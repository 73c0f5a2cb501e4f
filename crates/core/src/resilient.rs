//! Self-healing training runs over delta replanning.
//!
//! [`ClusterDelta`](whale_hardware::ClusterDelta) and [`Session::replan`]
//! react to cluster drift; this module drives them under adversarial
//! schedules. Given a deterministic [`FaultTrace`],
//! [`Session::train_resilient`] trains in segments between fault events,
//! each charged whole steps at the running plan's simulated step time, and,
//! on each event, walks the recovery state machine
//!
//! ```text
//! detect  →  rollback  →  replan  →  resume
//! ```
//!
//! * **detect** — the runtime notices the fault `detection_latency_s`
//!   seconds after it strikes; that time is pure downtime.
//! * **rollback** — training restarts from the last periodic checkpoint;
//!   every sample committed since is lost and must be re-earned.
//! * **replan** — [`whale_sim::recovery::replan_verified`], the step the
//!   fleet simulator shares: the delta is applied through the session's
//!   delta-invalidation fast path (only the invalidated compile-pass suffix
//!   re-runs), the replanned plan is verified with
//!   [`whale_sim::check_replan`], and if verification fails the runtime
//!   falls back to a full from-scratch recompile. Recovery attempts for
//!   *transient* faults (degradation, congestion, restore) are retried with
//!   bounded exponential backoff; permanent faults fail fast.
//! * **resume** — training continues under the new plan, at the step time
//!   the verification simulated. If the surviving capacity has dropped
//!   below [`RecoveryPolicy::min_capacity`] of the starting cluster, the
//!   run aborts with [`WhaleError::InsufficientCapacity`] instead of
//!   limping.
//!
//! [`Session::train_restart_baseline`] is the foil: a conventional static
//! runtime that cannot replan. It ignores rate faults (and stalls behind the
//! resulting stragglers) and reacts to membership changes the only way it
//! can — restart from scratch, losing all progress. `fault_bench` compares
//! the two on goodput.

use std::sync::Arc;

use whale_ir::WhaleIr;
use whale_planner::{plan as cold_plan, ExecutionPlan};
use whale_sim::recovery::{ratio, replan_verified};
use whale_sim::{FaultEvent, FaultTrace, LossModel, TrainPoint};

use crate::error::{Result, WhaleError};
use crate::session::Session;

// The recovery data types moved to `whale_sim::recovery` so the fleet
// simulator can share them; re-exported here to keep `whale::resilient::*`
// and `whale::{RecoveryPolicy, ...}` stable.
pub use whale_sim::recovery::{RecoveryEvent, RecoveryPolicy, RecoveryStats, ReplanPath};

/// A completed run under fault injection: the loss curve actually committed
/// plus the recovery accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientRun {
    /// Curve points at segment boundaries. `samples` is *committed*
    /// progress, so a value can regress right after a rollback — that is
    /// the point.
    pub points: Vec<TrainPoint>,
    /// Recovery accounting.
    pub stats: RecoveryStats,
}

/// How the training loop reacts to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryMode {
    /// Checkpoint + delta-replan (the tentpole runtime).
    Resilient,
    /// Static plan: ignore rate faults (and straggle), restart from sample
    /// zero on membership changes.
    RestartFromScratch,
}

/// Mutable bookkeeping of one run.
struct LoopState {
    committed: f64,
    processed: f64,
    wall_s: f64,
    training_s: f64,
    downtime_s: f64,
    lost: f64,
    points: Vec<TrainPoint>,
    faults: Vec<RecoveryEvent>,
}

impl LoopState {
    fn new() -> LoopState {
        LoopState {
            committed: 0.0,
            processed: 0.0,
            wall_s: 0.0,
            training_s: 0.0,
            downtime_s: 0.0,
            lost: 0.0,
            points: Vec::new(),
            faults: Vec::new(),
        }
    }

    fn into_stats(self) -> RecoveryStats {
        let replans = |path| self.faults.iter().filter(|e| e.replan == path).count() as u64;
        RecoveryStats {
            committed_samples: self.committed,
            processed_samples: self.processed,
            samples_lost: self.lost,
            wall_seconds: self.wall_s,
            training_seconds: self.training_s,
            downtime_seconds: self.downtime_s,
            goodput: ratio(self.committed, self.wall_s),
            raw_throughput: ratio(self.processed, self.training_s),
            availability: ratio(self.training_s, self.wall_s),
            replans_cached: replans(ReplanPath::CachedSuffix),
            replans_full: replans(ReplanPath::Full),
            faults: self.faults,
        }
    }
}

impl Session {
    /// Train to `total_samples` committed samples while the faults in
    /// `trace` strike, recovering per `policy`. See the module docs for the
    /// recovery state machine. Deterministic: the trace is data, the
    /// simulator is seedless here (curve points carry no noise), so equal
    /// inputs give bit-identical [`RecoveryStats`].
    ///
    /// The session's cluster tracks every recovered delta; after the run it
    /// reflects the final topology. When a recovery fails, the run returns
    /// the error and the session keeps the cluster it had before that
    /// fault.
    pub fn train_resilient(
        &mut self,
        ir: &WhaleIr,
        loss: &LossModel,
        total_samples: f64,
        trace: &FaultTrace,
        policy: &RecoveryPolicy,
    ) -> Result<ResilientRun> {
        self.run_under_faults(
            ir,
            loss,
            total_samples,
            trace,
            policy,
            RecoveryMode::Resilient,
        )
    }

    /// The restart-from-scratch foil for [`Session::train_resilient`]: a
    /// static runtime that cannot replan. Rate faults are ridden out with
    /// the original plan (stragglers and all); membership changes force a
    /// cold recompile and lose **all** committed progress. Same policy
    /// semantics otherwise (detection latency, capacity floor).
    pub fn train_restart_baseline(
        &mut self,
        ir: &WhaleIr,
        loss: &LossModel,
        total_samples: f64,
        trace: &FaultTrace,
        policy: &RecoveryPolicy,
    ) -> Result<ResilientRun> {
        self.run_under_faults(
            ir,
            loss,
            total_samples,
            trace,
            policy,
            RecoveryMode::RestartFromScratch,
        )
    }

    fn run_under_faults(
        &mut self,
        ir: &WhaleIr,
        loss: &LossModel,
        total_samples: f64,
        trace: &FaultTrace,
        policy: &RecoveryPolicy,
        mode: RecoveryMode,
    ) -> Result<ResilientRun> {
        policy.check()?;
        let capacity0 = self.cluster().total_flops();
        let mut plan = self.plan(ir)?;
        // The running plan's step time on the session's cluster, once a
        // segment or a recovery has simulated it.
        let mut step_time = None;
        let mut state = LoopState::new();

        for event in &trace.events {
            if state.committed >= total_samples {
                break;
            }
            // Train up to the fault (or to completion, whichever is first).
            let to_event = event.at_samples - state.processed;
            let to_done = total_samples - state.committed;
            let seg = to_event.min(to_done);
            if seg > 0.0 {
                self.run_segment(&plan, &mut step_time, loss, seg, &mut state)?;
            }
            if state.committed >= total_samples {
                break;
            }

            // The fault strikes.
            (plan, step_time) = match mode {
                RecoveryMode::Resilient => self.recover(ir, event, policy, &mut state)?,
                RecoveryMode::RestartFromScratch => {
                    self.react_static(ir, plan, event, policy, &mut state)?
                }
            };
            let capacity = self.cluster().total_flops();
            if capacity < policy.min_capacity * capacity0 {
                return Err(WhaleError::InsufficientCapacity {
                    available: capacity / capacity0,
                    required: policy.min_capacity,
                });
            }
        }

        let remaining = total_samples - state.committed;
        if remaining > 0.0 {
            self.run_segment(&plan, &mut step_time, loss, remaining, &mut state)?;
        }
        Ok(ResilientRun {
            points: std::mem::take(&mut state.points),
            stats: state.into_stats(),
        })
    }

    /// Train `seg_samples` under `plan`, charging wall-clock for whole
    /// steps (at least one; the cast saturates an infinite segment) and
    /// emitting one curve point at the segment end. `step_time` is
    /// `plan`'s step time; when it is `None`, one step is simulated to
    /// fill it.
    fn run_segment(
        &self,
        plan: &ExecutionPlan,
        step_time: &mut Option<f64>,
        loss: &LossModel,
        seg_samples: f64,
        state: &mut LoopState,
    ) -> Result<()> {
        let step_time = match *step_time {
            Some(t) => t,
            None => *step_time.insert(self.step_plan(plan)?.stats.step_time),
        };
        let steps = (seg_samples / plan.global_batch as f64).ceil().max(1.0) as u64;
        let elapsed = steps as f64 * step_time;
        state.processed += seg_samples;
        state.committed += seg_samples;
        state.wall_s += elapsed;
        state.training_s += elapsed;
        state.points.push(TrainPoint {
            step: (state.committed / plan.global_batch as f64).ceil() as u64,
            samples: state.committed,
            wall_seconds: state.wall_s,
            loss: loss.loss_at(state.committed),
        });
        Ok(())
    }

    /// The resilient recovery state machine for one fault event: roll back
    /// to the last checkpoint, then replan, verify and fall back through
    /// [`replan_verified`] on the session's plan service. Returns the plan
    /// to resume under and the step time its verification simulated.
    fn recover(
        &mut self,
        ir: &WhaleIr,
        event: &FaultEvent,
        policy: &RecoveryPolicy,
        state: &mut LoopState,
    ) -> Result<(Arc<ExecutionPlan>, Option<f64>)> {
        // A rate fault's replan is checked against the pre-fault plan.
        let pre_fault = self.plan(ir)?;
        let lost = policy.rollback(&mut state.committed);
        state.lost += lost;

        let r = replan_verified(
            self.plan_service(),
            ir,
            self.cluster(),
            self.planner_config(),
            self.sim_config(),
            policy,
            *event,
            &pre_fault,
        )?;
        state.wall_s += r.downtime_s;
        state.downtime_s += r.downtime_s;
        state
            .faults
            .push(r.event(event.kind, event.at_samples, lost));
        *self.cluster_mut() = r.cluster;
        Ok((r.plan, Some(r.step.step_time)))
    }

    /// The static baseline's reaction: straggle through rate faults,
    /// restart from scratch on membership changes. Returns the plan to
    /// resume under and its step time when this reaction simulated it
    /// (`None` leaves the simulation, and its error, to the next segment).
    fn react_static(
        &mut self,
        ir: &WhaleIr,
        current: Arc<ExecutionPlan>,
        event: &FaultEvent,
        policy: &RecoveryPolicy,
        state: &mut LoopState,
    ) -> Result<(Arc<ExecutionPlan>, Option<f64>)> {
        if !event.delta.is_structural() {
            // The static runtime never even notices: the plan stays, the
            // cluster slows underneath it and the fast GPUs wait on the
            // straggler.
            self.cluster_mut().apply_delta(event.delta)?;
            return Ok((current, None));
        }
        // Membership changed: the only move a static runtime has is a full
        // restart — recompile cold, lose everything.
        let lost = state.committed;
        state.committed = 0.0;
        state.lost += lost;
        state.wall_s += policy.detection_latency_s;
        state.downtime_s += policy.detection_latency_s;
        self.cluster_mut().apply_delta(event.delta)?;
        let plan = Arc::new(cold_plan(ir, self.cluster(), self.planner_config())?);
        let step = self.step_plan(&plan).ok().map(|out| out.stats);
        state.faults.push(RecoveryEvent::restart(
            event.kind,
            event.at_samples,
            lost,
            policy.detection_latency_s,
            step.as_ref().map_or(0.0, |s| s.throughput),
        ));
        Ok((plan, step.map(|s| s.step_time)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::{ClusterDelta, LinkKind};
    use whale_ir::Annotator;
    use whale_sim::{FaultKind, FaultModel};

    fn dp_ir(batch: usize) -> WhaleIr {
        let g = models::resnet50(batch).unwrap();
        Annotator::new(g, batch)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap()
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            checkpoint_interval: 1e4,
            ..RecoveryPolicy::default()
        }
    }

    fn event(at: f64, kind: FaultKind, delta: ClusterDelta) -> FaultEvent {
        FaultEvent {
            at_samples: at,
            kind,
            delta,
        }
    }

    #[test]
    fn fault_free_run_matches_plain_training() {
        let ir = dp_ir(64);
        let mut s = Session::on_cluster("4xV100").unwrap();
        let loss = LossModel::for_params(25e6);
        let run = s
            .train_resilient(&ir, &loss, 1e5, &FaultTrace::default(), &policy())
            .unwrap();
        assert_eq!(run.stats.samples_lost, 0.0);
        assert_eq!(run.stats.committed_samples, 1e5);
        assert_eq!(run.stats.availability, 1.0);
        assert!(run.stats.faults.is_empty());
        assert!((run.stats.goodput - run.stats.raw_throughput).abs() < 1e-9);
    }

    #[test]
    fn degradation_recovers_via_cached_suffix_and_loses_bounded_samples() {
        let ir = dp_ir(64);
        let mut s = Session::on_cluster("4xV100").unwrap();
        s.plan(&ir).unwrap();
        let loss = LossModel::for_params(25e6);
        let trace = FaultTrace {
            events: vec![event(
                2.5e4,
                FaultKind::Degrade,
                ClusterDelta::GpuDegraded { id: 1, scale: 0.5 },
            )],
        };
        let run = s
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .unwrap();
        assert_eq!(run.stats.faults.len(), 1);
        let f = run.stats.faults[0];
        assert_eq!(f.replan, ReplanPath::CachedSuffix);
        assert_eq!(f.retries, 0);
        // Struck at 25k with 10k checkpoints → exactly 5k lost.
        assert!((f.samples_lost - 5e3).abs() < 1e-6, "{f:?}");
        assert_eq!(run.stats.replans_cached, 1);
        assert_eq!(run.stats.replans_full, 0);
        assert!((run.stats.committed_samples - 1e5).abs() < 1e-6);
        assert!(
            (run.stats.processed_samples - (1e5 + 5e3)).abs() < 1e-6,
            "lost samples are re-earned"
        );
        assert!(run.stats.goodput < run.stats.raw_throughput);
        assert!(run.stats.availability < 1.0);
        // The session tracked the delta.
        assert_eq!(s.cluster().gpu(1).unwrap().throughput_scale, 0.5);
    }

    #[test]
    fn crash_recovers_and_capacity_floor_aborts() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        let crash = |id| event(3e4, FaultKind::Crash, ClusterDelta::GpuRemoved { id });

        let mut s = Session::on_cluster("4xV100").unwrap();
        let trace = FaultTrace {
            events: vec![crash(3)],
        };
        let run = s
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .unwrap();
        assert_eq!(s.cluster().num_gpus(), 3);
        assert_eq!(run.stats.faults[0].kind, FaultKind::Crash);

        // Losing 3 of 4 GPUs leaves 25% capacity — below a 0.3 floor (and
        // exactly *at* the default 0.25 floor, which deliberately does not
        // abort: the gate is strict).
        let mut s = Session::on_cluster("4xV100").unwrap();
        let trace = FaultTrace {
            events: vec![crash(3), crash(2), crash(1)],
        };
        let strict = RecoveryPolicy {
            min_capacity: 0.3,
            ..policy()
        };
        match s.train_resilient(&ir, &loss, 1e7, &trace, &strict) {
            Err(WhaleError::InsufficientCapacity {
                available,
                required,
            }) => {
                assert!(available <= 0.25 + 1e-9, "{available}");
                assert_eq!(required, 0.3);
            }
            other => panic!("expected capacity abort, got {other:?}"),
        }
    }

    #[test]
    fn transient_recovery_failure_is_retried_then_fatal() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        // A restore for a GPU that does not exist can never apply.
        let bad = event(
            1e4,
            FaultKind::Restore,
            ClusterDelta::GpuRestored { id: 17 },
        );
        let mut s = Session::on_cluster("4xV100").unwrap();
        let trace = FaultTrace { events: vec![bad] };
        let err = s
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .unwrap_err();
        // Surfaced through the planner's replan path as a Plan error.
        assert!(err.to_string().contains("unknown device"), "{err}");

        // A permanent fault with an invalid target fails without retries.
        let mut s = Session::on_cluster("4xV100").unwrap();
        let trace = FaultTrace {
            events: vec![event(
                1e4,
                FaultKind::Crash,
                ClusterDelta::GpuRemoved { id: 17 },
            )],
        };
        assert!(s
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .is_err());
    }

    #[test]
    fn unbounded_retries_are_refused_before_the_first_plan() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        // Each retry of this restore fails the same way; u32::MAX of them
        // would spin for hours.
        let bad = event(
            1e4,
            FaultKind::Restore,
            ClusterDelta::GpuRestored { id: 17 },
        );
        let unbounded = RecoveryPolicy {
            max_retries: u32::MAX,
            ..policy()
        };
        let mut s = Session::on_cluster("4xV100").unwrap();
        let trace = FaultTrace { events: vec![bad] };
        let err = s
            .train_resilient(&ir, &loss, 1e5, &trace, &unbounded)
            .unwrap_err();
        assert!(matches!(err, WhaleError::Sim(_)), "{err}");
        assert!(err.to_string().contains("max_retries"), "{err}");
        assert_eq!(s.cache_stats(), Some(whale_planner::CacheStats::default()));
    }

    #[test]
    fn congestion_and_restore_round_trip() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        let mut s = Session::on_cluster("2x(2xV100)").unwrap();
        let base_bw = s.cluster().interconnect.network_bw;
        let trace = FaultTrace {
            events: vec![
                event(
                    2e4,
                    FaultKind::Congestion,
                    ClusterDelta::LinkBandwidth {
                        kind: LinkKind::Network,
                        bytes_per_sec: base_bw * 0.3,
                    },
                ),
                event(
                    5e4,
                    FaultKind::Restore,
                    ClusterDelta::LinkBandwidth {
                        kind: LinkKind::Network,
                        bytes_per_sec: base_bw,
                    },
                ),
            ],
        };
        let run = s
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .unwrap();
        assert_eq!(run.stats.faults.len(), 2);
        assert_eq!(s.cluster().interconnect.network_bw, base_bw);
    }

    #[test]
    fn restart_baseline_loses_everything_on_a_crash() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        let trace = FaultTrace {
            events: vec![event(
                8e4,
                FaultKind::Crash,
                ClusterDelta::GpuRemoved { id: 3 },
            )],
        };
        let mut resilient = Session::on_cluster("4xV100").unwrap();
        let res = resilient
            .train_resilient(&ir, &loss, 1e5, &trace, &policy())
            .unwrap();
        let mut naive = Session::on_cluster("4xV100").unwrap();
        let base = naive
            .train_restart_baseline(&ir, &loss, 1e5, &trace, &policy())
            .unwrap();
        // Baseline lost all 80k committed samples; resilient lost < 10k.
        assert!((base.stats.samples_lost - 8e4).abs() < 1e-6, "{base:?}");
        assert!(res.stats.samples_lost <= 1e4);
        assert!(res.stats.goodput > base.stats.goodput);
    }

    #[test]
    fn stats_json_round_trips() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        let cluster = whale_hardware::Cluster::parse("4xV100").unwrap();
        let trace = FaultTrace::generate(
            &cluster,
            &FaultModel {
                mtbf_samples: 3e4,
                mttr_samples: 1e4,
                seed: 9,
            },
            1.5e5,
        );
        let mut s = Session::new(cluster);
        let run = s
            .train_resilient(&ir, &loss, 1.5e5, &trace, &policy())
            .unwrap();
        let text = run.stats.to_json().to_string_pretty();
        let parsed = whale_sim::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("faults").as_array().unwrap().len(),
            run.stats.faults.len()
        );
        assert_eq!(parsed.get("goodput").as_f64().unwrap(), run.stats.goodput);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let ir = dp_ir(64);
        let loss = LossModel::for_params(25e6);
        let cluster = whale_hardware::Cluster::parse("2x(4xV100)").unwrap();
        let model = FaultModel {
            mtbf_samples: 4e4,
            mttr_samples: 2e4,
            seed: 1234,
        };
        let run = |_| {
            let trace = FaultTrace::generate(&cluster, &model, 3e5);
            let mut s = Session::new(cluster.clone());
            s.train_resilient(&ir, &loss, 3e5, &trace, &policy())
                .unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a, b, "same seed ⇒ identical run and RecoveryStats");
        assert!(!a.stats.faults.is_empty());
    }
}
