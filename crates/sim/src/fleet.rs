//! Fleet-scale multi-tenant serving under continuous churn.
//!
//! This module composes everything the repo has built — the shared
//! [`PlanService`], [`FaultTrace`] churn, delta replanning, and the
//! detect → rollback → replan → resume recovery loop — into one
//! long-running scenario: a shared heterogeneous GPU pool serving a
//! stochastic stream of training jobs while hardware continuously
//! degrades, heals, dies, and joins underneath them.
//!
//! The moving parts, in the order a job meets them:
//!
//! 1. **Arrivals.** Jobs arrive on a seeded Poisson process. Each samples a
//!    model from its [`JobTemplate`] zoo, a GPU request, a priority, a job
//!    size, and an SLO slack factor — all from one [`SplitMix64`] stream,
//!    so a seed fully determines the workload.
//! 2. **Admission.** An admission controller prices the request against
//!    free pool capacity: granted when capacity covers it (the elastic
//!    fleet may grant a *shrunken* allocation rather than block), queued
//!    behind a bounded priority queue otherwise, rejected only when the
//!    queue overflows.
//! 3. **Binding.** An admitted job binds a [`VirtualDevice`] over pool GPU
//!    ids — VirtualFlow-style decoupling: the job's code (its IR) never
//!    changes; only the binding does. [`Cluster::subcluster`] carves the
//!    binding into a standalone cluster and the plan comes from the one
//!    shared `Arc<PlanService>`, so tenants with the same (model, slice
//!    shape) share compiles.
//! 4. **Churn.** A shared [`FaultTrace`] generated over the pool plays out
//!    on the wall clock (the trace's monotone sample axis is reinterpreted
//!    as seconds — the pool as a whole never rolls back). The
//!    `FleetSim` scheduler reacts at step boundaries: degradations and
//!    congestion trigger cached replans of the affected tenants; a removal
//!    inside a binding runs the full rollback-to-checkpoint recovery; a
//!    heal or join re-expands shrunken tenants and drains the queue. Both
//!    recoveries replan, verify and fall back through
//!    [`crate::recovery::replan_verified`], the step the single-job
//!    resilient trainer also runs; a tenant whose step fails is failed.
//! 5. **Elastic resizing.** On capacity loss the scheduler shrinks victims
//!    — lowest priority first — issuing [`ClusterDelta`]s and cached
//!    replans through the service rather than killing jobs; on capacity
//!    return it grows under-allocated jobs back toward their request.
//!    `InsufficientCapacity` surfaces only when the pool itself falls
//!    below the policy floor and no legal shrink exists.
//!
//! The non-elastic foil ([`FleetConfig::elastic`]` = false`) is the
//! conventional kill-and-requeue fleet: static plans that straggle through
//! rate faults, full-allocation-or-nothing admission, and a crash inside a
//! binding kills the job and requeues it from sample zero. `fleet_bench`
//! gates the elastic fleet's goodput against it.
//!
//! Everything is deterministic: equal `(pool, templates, FleetConfig)`
//! give bit-identical [`FleetStats`].

use std::sync::Arc;

use whale_hardware::{Cluster, ClusterDelta, VirtualDevice};
use whale_ir::WhaleIr;
use whale_planner::{CacheStats, ExecutionPlan, PlanService, PlannerConfig};

use crate::engine::{simulate_step, SimConfig};
use crate::error::{Result, SimError};
use crate::faults::{check_event_stream, exponential, FaultEvent, FaultModel, FaultTrace};
use crate::json::{num, obj, JsonValue};
use crate::recovery::{
    ratio, replan_verified, RecoveryEvent, RecoveryPolicy, RecoveryStats, ReplanPath,
};
use crate::replan::check_replan;
use crate::rng::SplitMix64;

/// One entry of the fleet's model zoo: an annotated IR jobs can sample.
///
/// Templates must be replicable at any parallelism degree ≥ 1 (data
/// parallelism via `replicate_all` qualifies) because the elastic scheduler
/// resizes allocations freely between 1 GPU and the request.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Display name (zoo entry).
    pub name: String,
    /// The annotated model; shared by every job sampled from this template.
    pub ir: WhaleIr,
    /// Nominal single-V100-class-GPU duration of a size-1.0 job, seconds.
    /// The fleet converts this to a sample count at startup by measuring
    /// the template's single-GPU throughput, so job durations stay
    /// meaningful regardless of model FLOPs.
    pub nominal_duration_s: f64,
    /// Relative sampling weight in the arrival process.
    pub weight: f64,
}

impl JobTemplate {
    /// Build a template with weight 1.
    pub fn new(name: impl Into<String>, ir: WhaleIr, nominal_duration_s: f64) -> JobTemplate {
        JobTemplate {
            name: name.into(),
            ir,
            nominal_duration_s,
            weight: 1.0,
        }
    }
}

/// The stock zoo used by the CLI and `fleet_bench`: two ResNet-50 batch
/// sizes plus BERT-base, all data-parallel so any allocation size plans.
pub fn default_templates() -> Vec<JobTemplate> {
    let dp = |g: whale_graph::Graph, batch: usize| {
        whale_ir::Annotator::new(g, batch)
            .replicate_all()
            .expect("replicate_all on a zoo model")
            .finish()
            .expect("zoo IR finishes")
    };
    let r32 = whale_graph::models::resnet50(32).expect("resnet50@32");
    let r64 = whale_graph::models::resnet50(64).expect("resnet50@64");
    let bert = whale_graph::models::bert_base(16, 64).expect("bert_base@16");
    vec![
        JobTemplate::new("resnet50@32", dp(r32, 32), 1200.0),
        JobTemplate::new("resnet50@64", dp(r64, 64), 2000.0),
        JobTemplate {
            name: "bert_base@16".into(),
            ir: dp(bert, 16),
            nominal_duration_s: 1600.0,
            weight: 0.7,
        },
    ]
}

/// Knobs of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Seed of the arrival/workload stream (the fault stream has its own
    /// seed in [`FleetConfig::faults`]). Equal seeds ⇒ identical runs.
    pub seed: u64,
    /// Wall-clock length of the run, seconds.
    pub horizon_s: f64,
    /// Mean seconds between job arrivals (exponential inter-arrival).
    pub arrival_mean_s: f64,
    /// GPU-count choices an arriving job draws its request from (each is
    /// clamped to the pool size).
    pub gpu_choices: Vec<usize>,
    /// Admission queue bound; an overflow rejects the lowest-priority,
    /// youngest queued job.
    pub max_queue: usize,
    /// Elastic resizing (the tentpole) vs the kill-and-requeue baseline.
    pub elastic: bool,
    /// Recovery knobs inherited by every tenant's resilient loop:
    /// checkpoint interval, detection latency, bounded retry/backoff, and
    /// the pool-wide capacity floor.
    pub policy: RecoveryPolicy,
    /// Churn parameters. The fault timeline is generated over the *pool*,
    /// with [`FaultModel::mtbf_samples`]/`mttr_samples` reinterpreted as
    /// **seconds** on the fleet's wall clock (the pool as a whole never
    /// rolls back, so its monotone axis is time).
    pub faults: FaultModel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            horizon_s: 20_000.0,
            arrival_mean_s: 600.0,
            gpu_choices: vec![1, 2, 4],
            max_queue: 16,
            elastic: true,
            policy: RecoveryPolicy {
                // A fleet prefers queueing over aborting: only a
                // near-total pool loss is fatal.
                min_capacity: 0.05,
                ..RecoveryPolicy::default()
            },
            faults: FaultModel {
                mtbf_samples: 1500.0,
                mttr_samples: 600.0,
                seed: 1,
            },
        }
    }
}

/// Lifecycle of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the admission queue for capacity.
    Queued,
    /// Bound to a virtual device and making progress.
    Running,
    /// Reached its sample target.
    Completed,
    /// Rejected at admission or died unrecoverably.
    Failed,
}

impl JobPhase {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
        }
    }
}

/// Mutable per-tenant state.
#[derive(Debug, Clone)]
struct Job {
    id: usize,
    template: usize,
    priority: u8,
    arrival_s: f64,
    requested_gpus: usize,
    total_samples: f64,
    slo_slack: f64,

    phase: JobPhase,
    committed: f64,
    processed: f64,
    lost: f64,
    binding: Option<VirtualDevice>,
    sub: Option<Cluster>,
    plan: Option<Arc<ExecutionPlan>>,
    throughput: f64,
    /// No progress accrues before this wall-clock instant (detection
    /// latency + backoff of the tenant's latest recovery).
    paused_until: f64,
    /// Deadline in wall-clock seconds, fixed at first bind:
    /// `arrival + slo_slack · total/throughput(first binding)`.
    deadline_s: Option<f64>,
    queued_since: f64,
    queue_wait_s: f64,
    active_s: f64,
    downtime_s: f64,
    started_s: Option<f64>,
    finished_s: Option<f64>,
    restarts: u32,
    shrinks: u32,
    expands: u32,
    recoveries: Vec<RecoveryEvent>,
    error: Option<String>,
}

impl Job {
    fn is_running(&self) -> bool {
        self.phase == JobPhase::Running
    }

    fn allocated(&self) -> usize {
        self.binding.as_ref().map_or(0, |b| b.num_gpus())
    }
}

/// Public per-tenant outcome, one row per submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Submission index (arrival order).
    pub id: usize,
    /// Zoo entry the job sampled.
    pub template: String,
    /// 0 (lowest) to 2 (highest).
    pub priority: u8,
    /// GPUs the job asked for.
    pub requested_gpus: usize,
    /// GPUs held when the run ended (0 unless still running).
    pub allocated_gpus: usize,
    /// Terminal (or end-of-horizon) phase.
    pub phase: JobPhase,
    /// Committed samples at the end.
    pub committed_samples: f64,
    /// The job's sample target.
    pub total_samples: f64,
    /// Seconds spent in the admission queue.
    pub queue_wait_s: f64,
    /// Seconds lost to detection latency and backoff.
    pub downtime_s: f64,
    /// Kill-and-requeue restarts (baseline) or forced requeues (elastic).
    pub restarts: u32,
    /// Elastic shrink events applied to this job.
    pub shrinks: u32,
    /// Elastic expand events applied to this job.
    pub expands: u32,
    /// Faults this job recovered from.
    pub faults: usize,
    /// `Some(met?)` once decidable: completed, or deadline expired.
    pub slo_met: Option<bool>,
    /// Failure reason, when the job failed.
    pub error: Option<String>,
}

/// Fleet-wide outcome metrics. Deterministic for equal inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Wall-clock length of the run, seconds.
    pub horizon_s: f64,
    /// Jobs that arrived.
    pub submitted: u64,
    /// Jobs that reached their sample target.
    pub completed: u64,
    /// Jobs rejected by admission (queue overflow).
    pub rejected: u64,
    /// Jobs that died unrecoverably (excludes rejections).
    pub failed: u64,
    /// Still queued when the horizon closed.
    pub queued_at_end: u64,
    /// Still running when the horizon closed.
    pub running_at_end: u64,
    /// Whole-job preemptions by higher-priority admissions (elastic).
    pub preemptions: u64,
    /// Kill-and-requeue restarts (baseline reaction to owned crashes).
    pub kills: u64,
    /// Elastic shrink resizes.
    pub shrinks: u64,
    /// Elastic expand resizes.
    pub expands: u64,
    /// Times a displaced job found no free GPU, no legal shrink, and no
    /// preemptable victim and had to queue for a heal.
    pub insufficient_events: u64,
    /// Fault-trace events the pool absorbed.
    pub fault_events: u64,
    /// Samples committed fleet-wide (completed totals plus the partial
    /// progress of jobs still running at the horizon).
    pub committed_samples: f64,
    /// Samples worked on, including rolled-back work.
    pub processed_samples: f64,
    /// Samples lost to rollbacks and kills.
    pub samples_lost: f64,
    /// Committed samples per wall-clock second — the bench's headline.
    pub goodput: f64,
    /// Mean queue wait over submitted jobs, seconds.
    pub mean_queue_wait_s: f64,
    /// Jobs whose SLO outcome is decidable and met.
    pub slo_met: u64,
    /// Jobs whose SLO outcome is decidable and missed.
    pub slo_missed: u64,
    /// Aggregated recovery accounting (every tenant fault in fleet-time
    /// order; `ttr_p50`/`ttr_p99` come from here).
    pub recovery: RecoveryStats,
    /// Shared compile-service counters at the end of the run.
    pub cache: CacheStats,
}

impl FleetStats {
    /// Serialize through the repo's JSON layer.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("horizon_s", num(self.horizon_s)),
            ("submitted", num(self.submitted as f64)),
            ("completed", num(self.completed as f64)),
            ("rejected", num(self.rejected as f64)),
            ("failed", num(self.failed as f64)),
            ("queued_at_end", num(self.queued_at_end as f64)),
            ("running_at_end", num(self.running_at_end as f64)),
            ("preemptions", num(self.preemptions as f64)),
            ("kills", num(self.kills as f64)),
            ("shrinks", num(self.shrinks as f64)),
            ("expands", num(self.expands as f64)),
            ("insufficient_events", num(self.insufficient_events as f64)),
            ("fault_events", num(self.fault_events as f64)),
            ("committed_samples", num(self.committed_samples)),
            ("processed_samples", num(self.processed_samples)),
            ("samples_lost", num(self.samples_lost)),
            ("goodput", num(self.goodput)),
            ("mean_queue_wait_s", num(self.mean_queue_wait_s)),
            ("slo_met", num(self.slo_met as f64)),
            ("slo_missed", num(self.slo_missed as f64)),
            ("recovery", self.recovery.to_json()),
            (
                "cache",
                obj(vec![
                    ("hits", num(self.cache.hits as f64)),
                    ("misses", num(self.cache.misses as f64)),
                    ("partial_hits", num(self.cache.partial_hits as f64)),
                    ("coalesced", num(self.cache.coalesced as f64)),
                    ("evictions", num(self.cache.evictions as f64)),
                    ("passes_run", num(self.cache.passes_run as f64)),
                ]),
            ),
        ])
    }
}

/// A completed fleet run: the aggregate stats plus one summary per job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet-wide metrics.
    pub stats: FleetStats,
    /// Per-job outcomes in arrival order.
    pub jobs: Vec<JobSummary>,
}

/// An arrival drawn before the run starts (the workload is data).
#[derive(Debug, Clone)]
struct ArrivalSpec {
    at_s: f64,
    template: usize,
    requested_gpus: usize,
    priority: u8,
    size_factor: f64,
    slo_slack: f64,
}

/// What the event loop does next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NextEvent {
    Completion(usize, f64),
    Fault(f64),
    Arrival(f64),
    Horizon,
}

/// The fleet simulator. Construct with [`FleetSim::new`], run with
/// [`FleetSim::run`].
///
/// # Examples
///
/// ```
/// use whale_hardware::Cluster;
/// use whale_sim::fleet::{default_templates, FleetConfig, FleetSim};
///
/// let pool = Cluster::parse("2x(4xV100)+2x(4xP100)").unwrap();
/// let cfg = FleetConfig {
///     horizon_s: 4000.0,
///     arrival_mean_s: 500.0,
///     ..FleetConfig::default()
/// };
/// let report = FleetSim::new(pool, default_templates(), cfg)
///     .unwrap()
///     .run()
///     .unwrap();
/// assert!(report.stats.submitted > 0);
/// ```
pub struct FleetSim {
    pool: Cluster,
    start_flops: f64,
    templates: Vec<JobTemplate>,
    /// Samples a size-1.0 job of template *i* targets (measured at startup
    /// from single-GPU throughput × nominal duration).
    base_samples: Vec<f64>,
    cfg: FleetConfig,
    planner_cfg: PlannerConfig,
    sim_cfg: SimConfig,
    service: Arc<PlanService>,
    jobs: Vec<Job>,
    /// Queued job ids; drained highest priority first, then FIFO.
    queue: Vec<usize>,
    /// Free pool GPU ids, ascending.
    free: Vec<usize>,
    arrivals: Vec<ArrivalSpec>,
    next_arrival: usize,
    trace: FaultTrace,
    next_fault: usize,
    now: f64,
    preemptions: u64,
    kills: u64,
    shrinks: u64,
    expands: u64,
    rejected: u64,
    insufficient: u64,
}

impl FleetSim {
    /// Set up a run over `pool` with a private [`PlanService`].
    pub fn new(pool: Cluster, templates: Vec<JobTemplate>, cfg: FleetConfig) -> Result<FleetSim> {
        FleetSim::with_service(pool, templates, cfg, Arc::new(PlanService::default()))
    }

    /// Set up a run compiling through a caller-provided shared service —
    /// several fleets (or a fleet plus external traffic) can share one
    /// cache.
    pub fn with_service(
        pool: Cluster,
        templates: Vec<JobTemplate>,
        cfg: FleetConfig,
        service: Arc<PlanService>,
    ) -> Result<FleetSim> {
        if templates.is_empty() {
            return Err(SimError::BadPlan(
                "fleet needs at least one template".into(),
            ));
        }
        if cfg.gpu_choices.is_empty() || cfg.gpu_choices.contains(&0) {
            return Err(SimError::BadPlan(
                "gpu_choices must be non-empty and positive".into(),
            ));
        }
        // NaN fails these comparisons too, which is exactly what we want.
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !positive(cfg.horizon_s) {
            return Err(SimError::BadPlan("horizon must be positive".into()));
        }
        // Both generators below draw until the horizon: bound their event
        // counts before either runs.
        check_event_stream("arrival mean", cfg.arrival_mean_s, cfg.horizon_s)?;
        cfg.faults.check(cfg.horizon_s)?;
        cfg.policy.check()?;
        let planner_cfg = PlannerConfig::default();
        let sim_cfg = SimConfig::default();

        // Calibrate each template: one GPU of the pool defines the sample
        // target of a size-1.0 job. This also warms the shared cache with
        // the most common slice shape.
        let probe = pool.subcluster(&[0])?;
        let mut base_samples = Vec::with_capacity(templates.len());
        for t in &templates {
            let plan = service
                .plan(&t.ir, &probe, &planner_cfg)
                .map_err(|e| SimError::BadPlan(format!("template {}: {e}", t.name)))?;
            let out = simulate_step(&plan, &probe, &sim_cfg)?;
            base_samples.push(out.stats.throughput * t.nominal_duration_s.max(1.0));
        }

        let mut sim = FleetSim {
            start_flops: pool.total_flops(),
            free: (0..pool.num_gpus()).collect(),
            trace: FaultTrace::generate(&pool, &cfg.faults, cfg.horizon_s),
            arrivals: Vec::new(),
            pool,
            templates,
            base_samples,
            planner_cfg,
            sim_cfg,
            service,
            jobs: Vec::new(),
            queue: Vec::new(),
            next_arrival: 0,
            next_fault: 0,
            now: 0.0,
            preemptions: 0,
            kills: 0,
            shrinks: 0,
            expands: 0,
            rejected: 0,
            insufficient: 0,
            cfg,
        };
        sim.arrivals = sim.draw_arrivals();
        Ok(sim)
    }

    /// The shared compile service (e.g. to read its counters mid-run).
    pub fn service(&self) -> &Arc<PlanService> {
        &self.service
    }

    /// The generated fault timeline (events at wall-clock seconds).
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    fn draw_arrivals(&mut self) -> Vec<ArrivalSpec> {
        let mut rng = SplitMix64::seed_from_u64(self.cfg.seed);
        let total_weight: f64 = self.templates.iter().map(|t| t.weight.max(0.0)).sum();
        let mut specs = Vec::new();
        let mut t = 0.0;
        loop {
            t += exponential(&mut rng, self.cfg.arrival_mean_s);
            if t >= self.cfg.horizon_s || t.is_nan() {
                break;
            }
            // Weighted template pick.
            let mut roll = rng.next_f64() * total_weight;
            let mut template = self.templates.len() - 1;
            for (i, tpl) in self.templates.iter().enumerate() {
                roll -= tpl.weight.max(0.0);
                if roll < 0.0 {
                    template = i;
                    break;
                }
            }
            let choice = self.cfg.gpu_choices[rng.index(self.cfg.gpu_choices.len())];
            specs.push(ArrivalSpec {
                at_s: t,
                template,
                requested_gpus: choice.min(self.pool.num_gpus()).max(1),
                priority: rng.index(3) as u8,
                size_factor: rng.range_f64(0.5, 2.0),
                slo_slack: rng.range_f64(1.5, 4.0),
            });
        }
        specs
    }

    /// Run to the horizon and report.
    pub fn run(mut self) -> Result<FleetReport> {
        loop {
            let next = self.next_event();
            let t = match next {
                NextEvent::Completion(_, t) | NextEvent::Fault(t) | NextEvent::Arrival(t) => {
                    t.min(self.cfg.horizon_s)
                }
                NextEvent::Horizon => self.cfg.horizon_s,
            };
            self.advance_to(t);
            self.now = t;
            match next {
                NextEvent::Horizon => break,
                _ if t >= self.cfg.horizon_s => break,
                NextEvent::Completion(id, _) => self.complete(id),
                NextEvent::Arrival(_) => {
                    let spec = self.arrivals[self.next_arrival].clone();
                    self.next_arrival += 1;
                    self.admit(spec);
                }
                NextEvent::Fault(_) => {
                    let ev = self.trace.events[self.next_fault];
                    self.next_fault += 1;
                    self.apply_fault(ev)?;
                }
            }
            self.rebalance();
        }
        Ok(self.finish())
    }

    /// The earliest of: a running job finishing, the next fault, the next
    /// arrival, the horizon. Ties break completion < fault < arrival so
    /// capacity frees before it is claimed and churn lands before new work.
    fn next_event(&self) -> NextEvent {
        let mut best = NextEvent::Horizon;
        let mut best_t = self.cfg.horizon_s;
        if let Some(a) = self.arrivals.get(self.next_arrival) {
            if a.at_s < best_t {
                best_t = a.at_s;
                best = NextEvent::Arrival(a.at_s);
            }
        }
        if let Some(f) = self.trace.events.get(self.next_fault) {
            if f.at_samples <= best_t {
                best_t = f.at_samples;
                best = NextEvent::Fault(f.at_samples);
            }
        }
        for j in &self.jobs {
            if !j.is_running() || j.throughput <= 0.0 {
                continue;
            }
            let start = self.now.max(j.paused_until);
            let t = start + (j.total_samples - j.committed).max(0.0) / j.throughput;
            if t <= best_t {
                best_t = t;
                best = NextEvent::Completion(j.id, t);
            }
        }
        best
    }

    /// Accrue linear progress on every running job up to wall-clock `t`.
    fn advance_to(&mut self, t: f64) {
        for j in &mut self.jobs {
            if !j.is_running() || j.throughput <= 0.0 {
                continue;
            }
            let start = self.now.max(j.paused_until);
            let dt = (t - start).max(0.0);
            if dt <= 0.0 {
                continue;
            }
            let earned = (j.throughput * dt).min((j.total_samples - j.committed).max(0.0));
            j.committed += earned;
            j.processed += earned;
            j.active_s += dt;
        }
    }

    fn complete(&mut self, id: usize) {
        let j = &mut self.jobs[id];
        j.processed += j.total_samples - j.committed;
        j.committed = j.total_samples;
        j.phase = JobPhase::Completed;
        j.finished_s = Some(self.now);
        self.release(id);
    }

    /// Return a job's GPUs to the free pool and drop its binding.
    fn release(&mut self, id: usize) {
        let j = &mut self.jobs[id];
        if let Some(b) = j.binding.take() {
            self.free.extend_from_slice(b.gpu_ids());
            self.free.sort_unstable();
        }
        j.sub = None;
        j.plan = None;
        j.throughput = 0.0;
    }

    /// Admission: enqueue the arrival, evicting the worst queued job on
    /// overflow. Binding happens in `rebalance`.
    fn admit(&mut self, spec: ArrivalSpec) {
        let id = self.jobs.len();
        self.jobs.push(Job {
            id,
            template: spec.template,
            priority: spec.priority,
            arrival_s: spec.at_s,
            requested_gpus: spec.requested_gpus,
            total_samples: self.base_samples[spec.template] * spec.size_factor,
            slo_slack: spec.slo_slack,
            phase: JobPhase::Queued,
            committed: 0.0,
            processed: 0.0,
            lost: 0.0,
            binding: None,
            sub: None,
            plan: None,
            throughput: 0.0,
            paused_until: 0.0,
            deadline_s: None,
            queued_since: spec.at_s,
            queue_wait_s: 0.0,
            active_s: 0.0,
            downtime_s: 0.0,
            started_s: None,
            finished_s: None,
            restarts: 0,
            shrinks: 0,
            expands: 0,
            recoveries: Vec::new(),
            error: None,
        });
        self.queue.push(id);
        if self.queue.len() > self.cfg.max_queue {
            // Evict the lowest-priority, youngest queued job.
            let victim_pos = (0..self.queue.len())
                .min_by_key(|&p| {
                    let j = &self.jobs[self.queue[p]];
                    (j.priority, std::cmp::Reverse(j.id))
                })
                .expect("queue is non-empty");
            let victim = self.queue.remove(victim_pos);
            let j = &mut self.jobs[victim];
            j.phase = JobPhase::Failed;
            j.error = Some("rejected: admission queue full".into());
            j.finished_s = Some(self.now);
            self.rejected += 1;
        }
    }

    /// Queue order: highest priority first, then earliest queued, then id.
    fn queue_head(&self) -> Option<usize> {
        self.queue.iter().copied().min_by(|&a, &b| {
            let (ja, jb) = (&self.jobs[a], &self.jobs[b]);
            jb.priority
                .cmp(&ja.priority)
                .then(ja.queued_since.total_cmp(&jb.queued_since))
                .then(ja.id.cmp(&jb.id))
        })
    }

    /// Drain the queue and re-expand shrunken tenants. Called after every
    /// event (step boundary): this is the `FleetScheduler`'s reaction.
    fn rebalance(&mut self) {
        // 1. Admit queued jobs while capacity can be found.
        while let Some(head) = self.queue_head() {
            let requested = self.jobs[head].requested_gpus;
            let priority = self.jobs[head].priority;
            let grant: Vec<usize> = if !self.free.is_empty() {
                let n = if self.cfg.elastic {
                    requested.min(self.free.len())
                } else if self.free.len() >= requested {
                    requested
                } else {
                    break; // baseline: all-or-nothing, head-of-line blocks
                };
                self.free.drain(..n).collect()
            } else if self.cfg.elastic {
                // No free capacity: carve one GPU from a lower-priority
                // tenant (shrink first, whole-job preemption last).
                match self.carve_gpu(priority) {
                    Some(gpu) => vec![gpu],
                    None => {
                        self.insufficient += 1;
                        break;
                    }
                }
            } else {
                break;
            };
            self.queue.retain(|&q| q != head);
            self.bind(head, grant);
        }
        // 2. Elastic: grow under-allocated running jobs, highest priority
        //    first, one GPU at a time.
        if self.cfg.elastic {
            loop {
                if self.free.is_empty() {
                    break;
                }
                let candidate = self
                    .jobs
                    .iter()
                    .filter(|j| j.is_running() && j.allocated() < j.requested_gpus)
                    .min_by(|a, b| {
                        b.priority
                            .cmp(&a.priority)
                            .then(a.arrival_s.total_cmp(&b.arrival_s))
                            .then(a.id.cmp(&b.id))
                    })
                    .map(|j| j.id);
                let Some(id) = candidate else { break };
                let gpu = self.free.remove(0);
                if !self.expand(id, gpu) {
                    // Expansion failed to plan; put the GPU back and stop
                    // rather than retry the same candidate forever.
                    self.free.push(gpu);
                    self.free.sort_unstable();
                    break;
                }
            }
        }
    }

    /// Find one GPU for a queued job of `priority` when the free list is
    /// empty: shrink the lowest-priority multi-GPU tenant, else preempt the
    /// lowest-priority tenant outright. Only strictly lower priorities are
    /// victims. Returns the freed GPU id.
    fn carve_gpu(&mut self, priority: u8) -> Option<usize> {
        // Shrink path: lowest priority, then largest allocation.
        let shrink = self
            .jobs
            .iter()
            .filter(|j| j.is_running() && j.priority < priority && j.allocated() > 1)
            .min_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(b.allocated().cmp(&a.allocated()))
                    .then(a.id.cmp(&b.id))
            })
            .map(|j| j.id);
        if let Some(id) = shrink {
            return self.shrink(id);
        }
        // Preemption path: lowest priority, then latest arrival.
        let preempt = self
            .jobs
            .iter()
            .filter(|j| j.is_running() && j.priority < priority)
            .min_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(b.arrival_s.total_cmp(&a.arrival_s))
                    .then(a.id.cmp(&b.id))
            })
            .map(|j| j.id);
        let id = preempt?;
        self.preemptions += 1;
        self.jobs[id].phase = JobPhase::Queued;
        self.jobs[id].queued_since = self.now;
        self.release(id);
        self.queue.push(id);
        let gpu = self.free.remove(0);
        Some(gpu)
    }

    /// Planned shrink at a step boundary: drop the tenant's highest pool
    /// id, replan through the service (cached suffix when warm), no
    /// rollback. Returns the freed pool GPU id, or `None` if the replan
    /// could not produce a runnable plan (tenant state is left untouched).
    fn shrink(&mut self, id: usize) -> Option<usize> {
        let (binding, sub) = {
            let j = &self.jobs[id];
            (j.binding.clone()?, j.sub.clone()?)
        };
        let local = binding.num_gpus() - 1; // highest pool id == last local id
        let freed = *binding.gpu_ids().last().expect("non-empty binding");
        let ir = &self.templates[self.jobs[id].template].ir;
        let delta = ClusterDelta::GpuRemoved { id: local };
        let Ok((plan, after)) = self.service.replan(ir, &sub, &self.planner_cfg, delta) else {
            return None;
        };
        let report = check_replan(&plan, &plan, &after, &self.sim_cfg);
        let outcome = report.outcome?;
        let j = &mut self.jobs[id];
        // The freed GPU returns to the pool, so pool ids do not shift —
        // the binding just loses its largest member.
        j.binding = Some(
            VirtualDevice::new(
                binding
                    .gpu_ids()
                    .iter()
                    .copied()
                    .filter(|&g| g != freed)
                    .collect(),
            )
            .expect("shrink keeps at least one GPU"),
        );
        j.sub = Some(after);
        j.plan = Some(plan);
        j.throughput = outcome.stats.throughput;
        j.shrinks += 1;
        self.shrinks += 1;
        Some(freed)
    }

    /// Planned expand at a step boundary: add `gpu` to the binding and
    /// compile the grown slice through the shared service (a repeat shape
    /// is a cache hit). Returns false — with the tenant untouched — when
    /// the grown slice fails to plan.
    fn expand(&mut self, id: usize, gpu: usize) -> bool {
        let Some(binding) = self.jobs[id].binding.clone() else {
            return false;
        };
        let mut ids: Vec<usize> = binding.gpu_ids().to_vec();
        ids.push(gpu);
        ids.sort_unstable();
        let ir = &self.templates[self.jobs[id].template].ir;
        let Ok(sub) = self.pool.subcluster(&ids) else {
            return false;
        };
        let Ok(plan) = self.service.plan(ir, &sub, &self.planner_cfg) else {
            return false;
        };
        let Ok(out) = simulate_step(&plan, &sub, &self.sim_cfg) else {
            return false;
        };
        let j = &mut self.jobs[id];
        j.binding = Some(VirtualDevice::new(ids).expect("non-empty expansion"));
        j.sub = Some(sub);
        j.plan = Some(plan);
        j.throughput = out.stats.throughput;
        j.expands += 1;
        self.expands += 1;
        true
    }

    /// Bind a queued job to `gpu_ids` and start (or resume) it.
    fn bind(&mut self, id: usize, mut gpu_ids: Vec<usize>) {
        gpu_ids.sort_unstable();
        let ir = &self.templates[self.jobs[id].template].ir;
        let planned = self
            .pool
            .subcluster(&gpu_ids)
            .map_err(|e| e.to_string())
            .and_then(|sub| {
                self.service
                    .plan(ir, &sub, &self.planner_cfg)
                    .map_err(|e| e.to_string())
                    .map(|plan| (sub, plan))
            })
            .and_then(|(sub, plan)| {
                simulate_step(&plan, &sub, &self.sim_cfg)
                    .map_err(|e| e.to_string())
                    .map(|out| (sub, plan, out.stats.throughput))
            });
        match planned {
            Ok((sub, plan, throughput)) => {
                let now = self.now;
                let j = &mut self.jobs[id];
                j.queue_wait_s += now - j.queued_since;
                j.phase = JobPhase::Running;
                j.binding = Some(VirtualDevice::new(gpu_ids).expect("non-empty grant"));
                j.sub = Some(sub);
                j.plan = Some(plan);
                j.throughput = throughput;
                if j.started_s.is_none() {
                    j.started_s = Some(now);
                    if throughput > 0.0 {
                        j.deadline_s =
                            Some(j.arrival_s + j.slo_slack * j.total_samples / throughput);
                    }
                }
            }
            Err(e) => {
                // Should not happen for replicable templates; fail the job
                // rather than wedge the queue.
                self.free.extend_from_slice(&gpu_ids);
                self.free.sort_unstable();
                let now = self.now;
                let j = &mut self.jobs[id];
                j.phase = JobPhase::Failed;
                j.error = Some(format!("bind failed: {e}"));
                j.finished_s = Some(now);
            }
        }
    }

    /// Which running job owns pool GPU `gpu`, if any.
    fn owner_of(&self, gpu: usize) -> Option<usize> {
        self.jobs
            .iter()
            .find(|j| j.is_running() && j.binding.as_ref().is_some_and(|b| b.contains(gpu)))
            .map(|j| j.id)
    }

    /// Apply one fault-trace event to the pool and to affected tenants.
    fn apply_fault(&mut self, ev: FaultEvent) -> Result<()> {
        match ev.delta {
            ClusterDelta::GpuDegraded { id, scale } => {
                self.pool.apply_delta(ev.delta)?;
                if let Some(job) = self.owner_of(id) {
                    let local = self.local_id(job, id);
                    self.recover_rate(job, ev, ClusterDelta::GpuDegraded { id: local, scale });
                }
            }
            ClusterDelta::GpuRestored { id } => {
                self.pool.apply_delta(ev.delta)?;
                if let Some(job) = self.owner_of(id) {
                    let local = self.local_id(job, id);
                    self.recover_rate(job, ev, ClusterDelta::GpuRestored { id: local });
                }
            }
            ClusterDelta::LinkBandwidth { .. } => {
                self.pool.apply_delta(ev.delta)?;
                let running: Vec<usize> = self
                    .jobs
                    .iter()
                    .filter(|j| j.is_running())
                    .map(|j| j.id)
                    .collect();
                for job in running {
                    self.recover_rate(job, ev, ev.delta);
                }
            }
            ClusterDelta::GpuRemoved { id } => {
                let owner = self.owner_of(id);
                let local = owner.map(|job| self.local_id(job, id));
                self.pool.apply_delta(ev.delta)?;
                // Pool ids above `id` shifted down; remap the free list and
                // every binding (the owner loses the member outright).
                self.free.retain(|&g| g != id);
                for g in &mut self.free {
                    if *g > id {
                        *g -= 1;
                    }
                }
                for j in &mut self.jobs {
                    if let Some(b) = &j.binding {
                        j.binding = b.remap_removed(id);
                    }
                }
                if let (Some(job), Some(local)) = (owner, local) {
                    self.recover_structural(job, ev, local);
                }
            }
            ClusterDelta::GpuAdded { node, .. } => {
                let at = self.pool.insertion_id(node)?;
                self.pool.apply_delta(ev.delta)?;
                for g in &mut self.free {
                    if *g >= at {
                        *g += 1;
                    }
                }
                for j in &mut self.jobs {
                    if let Some(b) = &j.binding {
                        j.binding = Some(b.remap_inserted(at));
                    }
                }
                self.free.push(at);
                self.free.sort_unstable();
            }
        }
        let capacity = self.pool.total_flops();
        if capacity < self.cfg.policy.min_capacity * self.start_flops {
            return Err(SimError::InsufficientCapacity {
                available: capacity / self.start_flops,
                required: self.cfg.policy.min_capacity,
            });
        }
        Ok(())
    }

    /// Local (sub-cluster) id of pool GPU `gpu` inside `job`'s binding.
    fn local_id(&self, job: usize, gpu: usize) -> usize {
        self.jobs[job]
            .binding
            .as_ref()
            .and_then(|b| b.gpu_ids().iter().position(|&g| g == gpu))
            .expect("owner_of guarantees membership")
    }

    /// A rate fault (degrade / restore / link) hit a tenant. The elastic
    /// runtime replans through the service's delta fast path with bounded
    /// retry/backoff; the baseline rides it out on the static plan and
    /// merely re-measures its (straggling) throughput.
    fn recover_rate(&mut self, job: usize, ev: FaultEvent, local_delta: ClusterDelta) {
        if !self.cfg.elastic {
            // Static runtime: same plan, slower hardware underneath.
            let j = &mut self.jobs[job];
            let Some(sub) = j.sub.as_mut() else { return };
            if sub.apply_delta(local_delta).is_err() {
                return;
            }
            if let (Some(plan), Some(sub)) = (j.plan.clone(), j.sub.clone()) {
                if let Ok(out) = simulate_step(&plan, &sub, &self.sim_cfg) {
                    j.throughput = out.stats.throughput;
                }
            }
            return;
        }
        self.replan_job(
            job,
            FaultEvent {
                delta: local_delta,
                ..ev
            },
            0.0,
        );
    }

    /// A crash removed a GPU out of a tenant's binding (already remapped).
    /// Elastic: rollback to the last checkpoint, replan the shrunken slice
    /// (cached suffix when warm), resume — or requeue gracefully when the
    /// whole binding died. Baseline: kill and requeue from sample zero.
    fn recover_structural(&mut self, job: usize, ev: FaultEvent, local: usize) {
        let policy = self.cfg.policy;
        let old_throughput = self.jobs[job].throughput;
        if !self.cfg.elastic {
            // Kill-and-requeue: all committed progress is gone; the job
            // waits for a *full* allocation again.
            let now = self.now;
            let j = &mut self.jobs[job];
            let lost = j.committed;
            j.committed = 0.0;
            j.lost += lost;
            j.restarts += 1;
            j.phase = JobPhase::Queued;
            j.queued_since = now;
            j.downtime_s += policy.detection_latency_s;
            j.recoveries.push(RecoveryEvent {
                kind: ev.kind,
                at_samples: j.processed,
                samples_lost: lost,
                downtime_s: policy.detection_latency_s,
                time_to_recover_s: policy.detection_latency_s + ratio(lost, old_throughput),
                retries: 0,
                replan: ReplanPath::Full,
            });
            self.kills += 1;
            self.release(job);
            self.queue.push(job);
            return;
        }

        // Elastic: rollback to checkpoint.
        let j = &mut self.jobs[job];
        let lost = policy.rollback(&mut j.committed);
        j.lost += lost;

        if j.binding.is_none() {
            // The binding dissolved entirely: queue for reacquisition
            // rather than failing — `rebalance` will find capacity (or
            // count an insufficient event and wait for a heal).
            let downtime = policy.detection_latency_s;
            j.phase = JobPhase::Queued;
            j.queued_since = self.now;
            j.sub = None;
            j.plan = None;
            j.throughput = 0.0;
            j.restarts += 1;
            j.downtime_s += downtime;
            j.recoveries.push(RecoveryEvent {
                kind: ev.kind,
                at_samples: j.processed,
                samples_lost: lost,
                downtime_s: downtime,
                time_to_recover_s: downtime + ratio(lost, old_throughput),
                retries: 0,
                replan: ReplanPath::Full,
            });
            self.queue.push(job);
            return;
        }

        let delta = ClusterDelta::GpuRemoved { id: local };
        self.replan_job(job, FaultEvent { delta, ..ev }, lost);
    }

    /// The elastic runtime's recovery: replan `job`'s slice through the
    /// shared [`replan_verified`] step (`fault.delta` in slice-local ids)
    /// and resume it under the verified plan after the downtime, or fail
    /// the job with the step's error. `lost` is the rollback's cost.
    fn replan_job(&mut self, job: usize, fault: FaultEvent, lost: f64) {
        let j = &self.jobs[job];
        let (Some(sub), Some(pre_fault)) = (&j.sub, &j.plan) else {
            return;
        };
        let recovered = replan_verified(
            &self.service,
            &self.templates[j.template].ir,
            sub,
            &self.planner_cfg,
            &self.sim_cfg,
            &self.cfg.policy,
            fault,
            pre_fault,
        );
        let now = self.now;
        match recovered {
            Ok(r) => {
                let j = &mut self.jobs[job];
                j.recoveries.push(r.event(fault.kind, j.processed, lost));
                j.paused_until = j.paused_until.max(now + r.downtime_s);
                j.downtime_s += r.downtime_s;
                j.throughput = r.throughput;
                j.sub = Some(r.cluster);
                j.plan = Some(r.plan);
            }
            Err(e) => self.fail_job(job, format!("recovery failed: {e}")),
        }
    }

    fn fail_job(&mut self, job: usize, error: String) {
        self.release(job);
        let now = self.now;
        let j = &mut self.jobs[job];
        j.phase = JobPhase::Failed;
        j.error = Some(error);
        j.finished_s = Some(now);
    }

    /// Close the books at the horizon.
    fn finish(mut self) -> FleetReport {
        // Terminal queue time counts as waiting.
        for &id in &self.queue {
            let j = &mut self.jobs[id];
            j.queue_wait_s += self.cfg.horizon_s - j.queued_since;
        }
        let horizon = self.cfg.horizon_s;
        let mut stats = FleetStats {
            horizon_s: horizon,
            submitted: self.jobs.len() as u64,
            completed: 0,
            rejected: self.rejected,
            failed: 0,
            queued_at_end: 0,
            running_at_end: 0,
            preemptions: self.preemptions,
            kills: self.kills,
            shrinks: self.shrinks,
            expands: self.expands,
            insufficient_events: self.insufficient,
            fault_events: self.next_fault as u64,
            committed_samples: 0.0,
            processed_samples: 0.0,
            samples_lost: 0.0,
            goodput: 0.0,
            mean_queue_wait_s: 0.0,
            slo_met: 0,
            slo_missed: 0,
            recovery: RecoveryStats::default(),
            cache: self.service.stats(),
        };
        let mut faults: Vec<(f64, RecoveryEvent)> = Vec::new();
        let mut total_wait = 0.0;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        let mut training_s = 0.0;
        let mut downtime_s = 0.0;
        for j in &self.jobs {
            match j.phase {
                JobPhase::Completed => stats.completed += 1,
                JobPhase::Failed
                    if j.error
                        .as_deref()
                        .is_some_and(|e| e.starts_with("rejected")) => {}
                JobPhase::Failed => stats.failed += 1,
                JobPhase::Queued => stats.queued_at_end += 1,
                JobPhase::Running => stats.running_at_end += 1,
            }
            stats.committed_samples += j.committed;
            stats.processed_samples += j.processed;
            stats.samples_lost += j.lost;
            total_wait += j.queue_wait_s;
            training_s += j.active_s;
            downtime_s += j.downtime_s;
            let slo_met = match (j.finished_s, j.deadline_s) {
                (Some(f), Some(d)) if j.phase == JobPhase::Completed => Some(f <= d),
                (_, Some(d)) if horizon > d || j.phase == JobPhase::Failed => Some(false),
                _ => None,
            };
            match slo_met {
                Some(true) => stats.slo_met += 1,
                Some(false) => stats.slo_missed += 1,
                None => {}
            }
            for e in &j.recoveries {
                faults.push((e.at_samples, *e));
            }
            jobs.push(JobSummary {
                id: j.id,
                template: self.templates[j.template].name.clone(),
                priority: j.priority,
                requested_gpus: j.requested_gpus,
                allocated_gpus: j.allocated(),
                phase: j.phase,
                committed_samples: j.committed,
                total_samples: j.total_samples,
                queue_wait_s: j.queue_wait_s,
                downtime_s: j.downtime_s,
                restarts: j.restarts,
                shrinks: j.shrinks,
                expands: j.expands,
                faults: j.recoveries.len(),
                slo_met,
                error: j.error.clone(),
            });
        }
        faults.sort_by(|a, b| a.0.total_cmp(&b.0));
        let faults: Vec<RecoveryEvent> = faults.into_iter().map(|(_, e)| e).collect();
        stats.goodput = ratio(stats.committed_samples, horizon);
        stats.mean_queue_wait_s = ratio(total_wait, stats.submitted as f64);
        stats.recovery = RecoveryStats {
            committed_samples: stats.committed_samples,
            processed_samples: stats.processed_samples,
            samples_lost: stats.samples_lost,
            wall_seconds: horizon,
            training_seconds: training_s,
            downtime_seconds: downtime_s,
            goodput: stats.goodput,
            raw_throughput: ratio(stats.processed_samples, training_s),
            availability: ratio(training_s, training_s + downtime_s),
            replans_cached: faults
                .iter()
                .filter(|e| e.replan == ReplanPath::CachedSuffix)
                .count() as u64,
            replans_full: faults
                .iter()
                .filter(|e| e.replan == ReplanPath::Full)
                .count() as u64,
            faults,
        };
        FleetReport { stats, jobs }
    }

    /// Invariant check for tests: bindings plus the free list form an exact
    /// partition of the pool.
    #[doc(hidden)]
    pub fn audit_partition(&self) -> std::result::Result<(), String> {
        let mut vds: Vec<VirtualDevice> =
            self.jobs.iter().filter_map(|j| j.binding.clone()).collect();
        if !self.free.is_empty() {
            vds.push(VirtualDevice::new(self.free.clone()).expect("non-empty free list"));
        }
        whale_hardware::validate_partition(&self.pool, &vds).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Cluster {
        Cluster::parse("2x(4xV100)+2x(4xP100)").unwrap()
    }

    fn quick_cfg() -> FleetConfig {
        FleetConfig {
            horizon_s: 6000.0,
            arrival_mean_s: 400.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let run = || {
            FleetSim::new(pool(), default_templates(), quick_cfg())
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats, "same seeds ⇒ identical stats");
        assert_eq!(a.jobs, b.jobs);
        assert!(a.stats.submitted > 0);
        assert!(a.stats.fault_events > 0, "churn must actually strike");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetSim::new(pool(), default_templates(), quick_cfg())
            .unwrap()
            .run()
            .unwrap();
        let b = FleetSim::new(
            pool(),
            default_templates(),
            FleetConfig {
                seed: 7,
                ..quick_cfg()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_ne!(a.stats, b.stats);
    }

    #[test]
    fn calm_fleet_completes_jobs_without_loss() {
        // No faults at all: every admitted job should run clean.
        let cfg = FleetConfig {
            faults: FaultModel {
                mtbf_samples: 1e12,
                mttr_samples: 1.0,
                seed: 1,
            },
            ..quick_cfg()
        };
        let report = FleetSim::new(pool(), default_templates(), cfg)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.stats.completed > 0);
        assert_eq!(report.stats.samples_lost, 0.0);
        assert_eq!(report.stats.kills, 0);
        assert!(report.stats.recovery.faults.is_empty());
        assert!(report.stats.goodput > 0.0);
    }

    #[test]
    fn elastic_beats_kill_and_requeue_under_churn() {
        let elastic = FleetSim::new(pool(), default_templates(), quick_cfg())
            .unwrap()
            .run()
            .unwrap();
        let baseline = FleetSim::new(
            pool(),
            default_templates(),
            FleetConfig {
                elastic: false,
                ..quick_cfg()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            elastic.stats.goodput > baseline.stats.goodput,
            "elastic {} vs baseline {}",
            elastic.stats.goodput,
            baseline.stats.goodput
        );
    }

    #[test]
    fn stats_json_round_trips() {
        let report = FleetSim::new(pool(), default_templates(), quick_cfg())
            .unwrap()
            .run()
            .unwrap();
        let text = report.stats.to_json().to_string_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("goodput").as_f64().unwrap(),
            report.stats.goodput
        );
        assert_eq!(
            parsed.get("submitted").as_f64().unwrap() as u64,
            report.stats.submitted
        );
    }

    #[test]
    fn rejects_only_on_queue_overflow() {
        // A tiny queue and a flood of arrivals forces rejections.
        let cfg = FleetConfig {
            arrival_mean_s: 20.0,
            max_queue: 2,
            horizon_s: 3000.0,
            ..FleetConfig::default()
        };
        let report = FleetSim::new(pool(), default_templates(), cfg)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.stats.rejected > 0, "{:?}", report.stats);
        // Rejections are not failures.
        let rejected_rows = report
            .jobs
            .iter()
            .filter(|j| {
                j.error
                    .as_deref()
                    .is_some_and(|e| e.starts_with("rejected"))
            })
            .count() as u64;
        assert_eq!(rejected_rows, report.stats.rejected);
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(FleetSim::new(pool(), vec![], quick_cfg()).is_err());
        assert!(FleetSim::new(
            pool(),
            default_templates(),
            FleetConfig {
                gpu_choices: vec![],
                ..quick_cfg()
            },
        )
        .is_err());
        assert!(FleetSim::new(
            pool(),
            default_templates(),
            FleetConfig {
                horizon_s: 0.0,
                ..quick_cfg()
            },
        )
        .is_err());
        let unbounded = RecoveryPolicy {
            max_retries: u32::MAX,
            ..quick_cfg().policy
        };
        assert!(FleetSim::new(
            pool(),
            default_templates(),
            FleetConfig {
                policy: unbounded,
                ..quick_cfg()
            },
        )
        .is_err());
    }
}
