//! `fault-recovery`: for every three `Session::train_resilient` runs, one
//! elastic `FleetSim` run — the two recovery paths, `whale::resilient` and
//! `whale_sim::{fleet, faults, recovery}`.
//!
//! The fault and fleet seeds form a fixed pool drawn from [`POOL_SEED`]; a
//! lap runs every pool member once, in an order drawn from the workload
//! seed. Goodput and recovery figures are therefore the same for every
//! workload seed, and latency quantiles do not depend on which fault
//! timelines a seed happened to draw (a pool drawn per workload seed moved
//! `latency_p99_ms` by 16% between seeds, three times the run-to-run noise).

use std::sync::Arc;

use whale::{Cluster, LossModel, RecoveryPolicy, ResilientRun, Session, WhaleIr};
use whale_planner::{CacheStats, PlanService};
use whale_sim::{
    default_templates, time_to_recover_quantile, FaultModel, FaultTrace, FleetConfig, FleetReport,
    FleetSim, JobTemplate, RecoveryEvent,
};

use crate::corpus::{self, fail, Model, Strategy};
use crate::gen::Gen;
use crate::report::count_service;
use crate::runner::{Measured, Workload};
use crate::stats::geomean;
use crate::trace;

/// `fault_bench`'s cluster, fault rates, policy and run length.
const CLUSTER: &str = "2x(8xV100)+2x(8xP100)";
const TOTAL_SAMPLES: f64 = 2e6;
const MTBF_SAMPLES: f64 = 3e5;
const MTTR_SAMPLES: f64 = 1e5;
const CHECKPOINT_SAMPLES: f64 = 5e4;
/// Data-parallel IRs (any surviving GPU count plans) and their parameter
/// counts for the loss model.
const DP_ZOO: [(Model, usize, f64); 3] = [
    (Model::Resnet50, 256, 25e6),
    (Model::BertBase, 256, 110e6),
    (Model::BertLarge, 128, 340e6),
];
const FAULT_SEEDS_PER_IR: usize = 32;

/// `fleet_bench`'s pool and churn.
const POOL: &str = "2x(4xV100)+2x(4xP100)";
const HORIZON_S: f64 = 20_000.0;
const ARRIVAL_MEAN_S: f64 = 150.0;
const FLEET_MTBF_S: f64 = 500.0;
const FLEET_MTTR_S: f64 = 800.0;
const FLEET_SEEDS: usize = 32;
/// Seed of the generator that draws the fault and fleet seeds.
const POOL_SEED: u64 = 42;

struct ResilientCase {
    name: String,
    ir: WhaleIr,
    loss: LossModel,
    faults: FaultModel,
    expected: Vec<u64>,
}

struct FleetCase {
    cfg: FleetConfig,
    expected: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
pub enum Req {
    Resilient(usize),
    Fleet(usize),
}

pub enum Out {
    Resilient(ResilientRun, CacheStats),
    Fleet(FleetReport),
}

pub struct FaultRecovery {
    cluster: Cluster,
    policy: RecoveryPolicy,
    pool: Cluster,
    templates: Vec<JobTemplate>,
    resilient: Vec<ResilientCase>,
    fleets: Vec<FleetCase>,
    laps: Vec<Vec<Req>>,
    plan_tp: f64,
    goodput: f64,
    ttr_p99_s: f64,
}

/// The deterministic outputs of a resilient run, as bits.
fn resilient_key(r: &ResilientRun) -> Vec<u64> {
    let s = &r.stats;
    vec![
        s.goodput.to_bits(),
        s.committed_samples.to_bits(),
        s.wall_seconds.to_bits(),
        s.downtime_seconds.to_bits(),
        s.faults.len() as u64,
        s.replans_cached,
        s.replans_full,
    ]
}

/// The deterministic outputs of a fleet run, as bits.
fn fleet_key(r: &FleetReport) -> Vec<u64> {
    let s = &r.stats;
    vec![
        s.goodput.to_bits(),
        s.committed_samples.to_bits(),
        s.submitted,
        s.completed,
        s.rejected,
        s.failed,
        s.kills,
        s.shrinks,
        s.expands,
        s.preemptions,
        s.recovery.faults.len() as u64,
    ]
}

/// Every submitted job ended in exactly one state.
fn fleet_accounting(r: &FleetReport) -> Result<(), String> {
    let s = &r.stats;
    let ended = s.completed + s.rejected + s.failed + s.queued_at_end + s.running_at_end;
    if s.submitted != ended {
        return Err(format!(
            "submitted {} != completed + rejected + failed + queued + running = {ended}",
            s.submitted
        ));
    }
    Ok(())
}

impl FaultRecovery {
    pub fn setup(seed: u64) -> Result<FaultRecovery, String> {
        let mut gen = Gen::new(POOL_SEED, "fault-recovery/seeds");
        let mut resilient = Vec::new();
        for (model, batch, params) in DP_ZOO {
            let ir = corpus::ir(model, batch, Strategy::Dp)?;
            for _ in 0..FAULT_SEEDS_PER_IR {
                let fault_seed = gen.next_u64();
                resilient.push(ResilientCase {
                    name: format!("{}@{batch} dp, fault seed {fault_seed}", model.name()),
                    ir: ir.clone(),
                    loss: LossModel::for_params(params),
                    faults: FaultModel {
                        mtbf_samples: MTBF_SAMPLES,
                        mttr_samples: MTTR_SAMPLES,
                        seed: fault_seed,
                    },
                    expected: Vec::new(),
                });
            }
        }
        let fleets = (0..FLEET_SEEDS)
            .map(|_| FleetCase {
                cfg: FleetConfig {
                    seed: gen.next_u64(),
                    horizon_s: HORIZON_S,
                    arrival_mean_s: ARRIVAL_MEAN_S,
                    gpu_choices: vec![2, 4, 8],
                    elastic: true,
                    faults: FaultModel {
                        mtbf_samples: FLEET_MTBF_S,
                        mttr_samples: FLEET_MTTR_S,
                        seed: gen.next_u64(),
                    },
                    ..FleetConfig::default()
                },
                expected: Vec::new(),
            })
            .collect();
        let mut w = FaultRecovery {
            cluster: corpus::cluster(CLUSTER)?,
            policy: RecoveryPolicy {
                checkpoint_interval: CHECKPOINT_SAMPLES,
                ..RecoveryPolicy::default()
            },
            pool: corpus::cluster(POOL)?,
            templates: default_templates(),
            resilient,
            fleets,
            laps: Vec::new(),
            plan_tp: 0.0,
            goodput: 0.0,
            ttr_p99_s: 0.0,
        };

        // The warm-up lap: every pool member once, recording its outputs.
        let (mut raw, mut goodput, mut events): (Vec<f64>, Vec<f64>, Vec<RecoveryEvent>) =
            Default::default();
        for i in 0..w.resilient.len() {
            let Out::Resilient(run, _) = w.run(&Req::Resilient(i), false)? else {
                unreachable!("a resilient request returns a resilient run")
            };
            raw.push(run.stats.raw_throughput);
            goodput.push(run.stats.goodput);
            w.resilient[i].expected = resilient_key(&run);
            events.extend(run.stats.faults);
        }
        for i in 0..w.fleets.len() {
            let Out::Fleet(report) = w.run(&Req::Fleet(i), false)? else {
                unreachable!("a fleet request returns a fleet report")
            };
            fleet_accounting(&report)?;
            goodput.push(report.stats.goodput);
            w.fleets[i].expected = fleet_key(&report);
            events.extend(report.stats.recovery.faults);
        }
        w.plan_tp = geomean(&raw);
        w.goodput = geomean(&goodput);
        w.ttr_p99_s =
            time_to_recover_quantile(&events, 0.99).ok_or("no fault struck any run of the pool")?;

        // Three resilient runs, then one fleet run.
        let mut gen = Gen::new(seed, "fault-recovery/order");
        let mut r: Vec<usize> = (0..w.resilient.len()).collect();
        let mut f: Vec<usize> = (0..w.fleets.len()).collect();
        gen.shuffle(&mut r);
        gen.shuffle(&mut f);
        let lap = r
            .chunks(3)
            .zip(f)
            .flat_map(|(rs, f)| rs.iter().map(|&i| Req::Resilient(i)).chain([Req::Fleet(f)]))
            .collect();
        w.laps = vec![lap];
        Ok(w)
    }
}

impl Workload for FaultRecovery {
    type Req = Req;
    type Out = Out;

    fn laps(&self) -> &[Vec<Req>] {
        &self.laps
    }

    fn kinds(&self) -> usize {
        self.resilient.len() + self.fleets.len()
    }

    fn kind(&self, req: &Req) -> usize {
        match *req {
            Req::Resilient(i) => i,
            Req::Fleet(i) => self.resilient.len() + i,
        }
    }

    fn run(&self, req: &Req, _traced: bool) -> Result<Out, String> {
        match *req {
            Req::Resilient(i) => {
                let c = &self.resilient[i];
                let faults = trace::span("faults.generate", || {
                    FaultTrace::generate(&self.cluster, &c.faults, TOTAL_SAMPLES * 4.0)
                });
                let mut session = Session::new(self.cluster.clone());
                let run = trace::span("resilient.train", || {
                    session.train_resilient(&c.ir, &c.loss, TOTAL_SAMPLES, &faults, &self.policy)
                })
                .map_err(fail(&c.name))?;
                Ok(Out::Resilient(
                    run,
                    session.cache_stats().unwrap_or_default(),
                ))
            }
            Req::Fleet(i) => {
                let cfg = &self.fleets[i].cfg;
                let what = format!("fleet seed {}", cfg.seed);
                let sim = trace::span("fleet.setup", || {
                    FleetSim::with_service(
                        self.pool.clone(),
                        self.templates.clone(),
                        cfg.clone(),
                        Arc::new(PlanService::default()),
                    )
                })
                .map_err(fail(&what))?;
                let report = trace::span("fleet.run", || sim.run()).map_err(fail(&what))?;
                Ok(Out::Fleet(report))
            }
        }
    }

    fn check(&self, req: &Req, out: &Out) -> Result<(), String> {
        match (*req, out) {
            (Req::Resilient(i), Out::Resilient(run, _)) => {
                if resilient_key(run) != self.resilient[i].expected {
                    return Err(format!(
                        "{}: recovery stats differ from set-up",
                        self.resilient[i].name
                    ));
                }
            }
            (Req::Fleet(i), Out::Fleet(report)) => {
                let seed = self.fleets[i].cfg.seed;
                fleet_accounting(report).map_err(fail(format!("fleet seed {seed}")))?;
                if fleet_key(report) != self.fleets[i].expected {
                    return Err(format!("fleet seed {seed}: fleet stats differ from set-up"));
                }
            }
            _ => return Err(format!("{req:?}: output of the wrong kind")),
        }
        Ok(())
    }

    fn count(&self, _: &Req, out: &Out) {
        let (stats, cache) = match out {
            Out::Resilient(run, cache) => (&run.stats, cache),
            Out::Fleet(report) => {
                let s = &report.stats;
                for (name, v) in [
                    ("fleet.submitted", s.submitted),
                    ("fleet.completed", s.completed),
                    ("fleet.rejected", s.rejected),
                    ("fleet.failed", s.failed),
                    ("fleet.kills", s.kills),
                    ("fleet.shrinks", s.shrinks),
                    ("fleet.expands", s.expands),
                    ("fleet.preemptions", s.preemptions),
                ] {
                    trace::count(name, v as f64);
                }
                (&s.recovery, &s.cache)
            }
        };
        trace::count("recovery.events", stats.faults.len() as f64);
        trace::count("recovery.replans_cached", stats.replans_cached as f64);
        trace::count("recovery.replans_full", stats.replans_full as f64);
        count_service(cache);
    }

    fn simulated(&self) -> (f64, f64) {
        (self.plan_tp, self.goodput)
    }

    fn run_metrics(&self, _: &Measured) -> Vec<(&'static str, f64)> {
        vec![("recovery.ttr_p99_s", self.ttr_p99_s)]
    }
}
