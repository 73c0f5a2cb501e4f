//! Recovery shared by the resilient trainer and the fleet.
//!
//! Both runtimes walk the same detect → rollback → replan → resume loop:
//! `whale::resilient` for one job, [`crate::fleet`] for each tenant. This
//! module holds what they share: the data types ([`RecoveryPolicy`],
//! [`ReplanPath`], [`RecoveryEvent`], [`RecoveryStats`]), the checkpoint
//! rollback ([`RecoveryPolicy::rollback`]) and the replan → verify → fall
//! back step ([`replan_verified`]). `whale::resilient` re-exports the data
//! types under their original paths. The foils (the restart baseline and
//! the fleet's kill-and-requeue mode) never replan and do not use the step.

use std::sync::Arc;

use whale_hardware::Cluster;
use whale_ir::WhaleIr;
use whale_planner::{
    plan as cold_plan, CacheStats, ExecutionPlan, PlanError, PlanService, PlannerConfig,
};

use crate::engine::SimConfig;
use crate::error::{Result, SimError};
use crate::faults::{FaultEvent, FaultKind, MAX_RETRIES};
use crate::json::{num, obj, s, JsonValue};
use crate::replan::check_replan;

/// Knobs of the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Committed samples between periodic checkpoints; a rollback loses at
    /// most this many samples.
    pub checkpoint_interval: f64,
    /// Seconds between a fault striking and the runtime noticing it.
    pub detection_latency_s: f64,
    /// Recovery attempts for transient faults before giving up (a permanent
    /// fault that cannot be recovered fails immediately). At most 64; see
    /// [`RecoveryPolicy::check`].
    pub max_retries: u32,
    /// Backoff before the first retry, seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// Upper bound on a single backoff wait, seconds.
    pub backoff_cap_s: f64,
    /// Abort the run when cluster capacity (sum of per-GPU FLOPS, including
    /// degradations) falls below this fraction of the starting capacity.
    pub min_capacity: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_interval: 5e4,
            detection_latency_s: 5.0,
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_cap_s: 30.0,
            min_capacity: 0.25,
        }
    }
}

impl RecoveryPolicy {
    /// The bounded exponential backoff before retry number `retry`
    /// (1-based): `backoff_base_s · 2^(retry−1)`, capped at
    /// `backoff_cap_s`.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        (self.backoff_base_s * 2f64.powi(retry.saturating_sub(1) as i32)).min(self.backoff_cap_s)
    }

    /// Refuse a policy the recovery loop cannot run in bounded time. Each
    /// retry re-runs a deterministic replan, so a transient fault whose
    /// delta cannot apply spins through every retry: `max_retries` must be
    /// at most 64, and the latency and backoff times finite and
    /// non-negative.
    pub fn check(&self) -> Result<()> {
        if self.max_retries > MAX_RETRIES {
            return Err(SimError::BadPlan(format!(
                "max_retries {} exceeds {MAX_RETRIES}",
                self.max_retries
            )));
        }
        for (what, value) in [
            ("detection_latency_s", self.detection_latency_s),
            ("backoff_base_s", self.backoff_base_s),
            ("backoff_cap_s", self.backoff_cap_s),
        ] {
            // NaN fails the comparison too.
            if !(value >= 0.0 && value.is_finite()) {
                return Err(SimError::BadPlan(format!(
                    "{what} must be finite and non-negative, got {value}"
                )));
            }
        }
        Ok(())
    }

    /// Roll `committed` back to the last periodic checkpoint and return the
    /// samples lost. An interval below one sample counts as one.
    pub fn rollback(&self, committed: &mut f64) -> f64 {
        let interval = self.checkpoint_interval.max(1.0);
        let checkpoint = (*committed / interval).floor() * interval;
        let lost = *committed - checkpoint;
        *committed = checkpoint;
        lost
    }
}

/// `a / b`, or 0 when `b` is not positive: the rate over an empty interval.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A plan that survived [`replan_verified`], with what the recovery cost.
#[derive(Debug)]
pub struct VerifiedPlan {
    /// The plan to resume under.
    pub plan: Arc<ExecutionPlan>,
    /// The post-delta cluster `plan` runs on.
    pub cluster: Cluster,
    /// Simulated throughput of `plan` on `cluster`, samples per second.
    pub throughput: f64,
    /// Replan attempts retried after transient errors.
    pub retries: u32,
    /// Detection latency plus backoff waits, seconds.
    pub downtime_s: f64,
    /// Whether the cached fast path or a full compile produced `plan`.
    pub path: ReplanPath,
}

impl VerifiedPlan {
    /// The accounting row of this recovery for a fault of `kind` that
    /// struck at `at_samples` and rolled back `samples_lost` samples, which
    /// are re-earned at the verified throughput.
    pub fn event(&self, kind: FaultKind, at_samples: f64, samples_lost: f64) -> RecoveryEvent {
        RecoveryEvent {
            kind,
            at_samples,
            samples_lost,
            downtime_s: self.downtime_s,
            time_to_recover_s: self.downtime_s + ratio(samples_lost, self.throughput),
            retries: self.retries,
            replan: self.path,
        }
    }
}

/// The recovery step both runtimes share: replan → verify → fall back.
///
/// 1. **Replan** `fault.delta` (in `cluster`'s GPU ids) through `service`'s
///    delta fast path. A transient fault's replan error is retried up to
///    `policy.max_retries` times, each retry charging
///    [`RecoveryPolicy::backoff_s`] of downtime on top of the detection
///    latency; any other error comes back unchanged.
/// 2. **Verify** the result with [`check_replan`]: a rate delta against
///    `pre_fault`, a structural delta, whose stage shapes legitimately
///    change, only for executability.
/// 3. **Fall back** when the check fails: compile cold on the post-delta
///    cluster, counted [`ReplanPath::Full`]. That plan must pass the same
///    check against itself, or the step fails with
///    [`PlanError::Internal`].
#[allow(clippy::too_many_arguments)]
pub fn replan_verified(
    service: &PlanService,
    ir: &WhaleIr,
    cluster: &Cluster,
    config: &PlannerConfig,
    sim: &SimConfig,
    policy: &RecoveryPolicy,
    fault: FaultEvent,
    pre_fault: &ExecutionPlan,
) -> std::result::Result<VerifiedPlan, PlanError> {
    let mut downtime_s = policy.detection_latency_s;
    let mut retries = 0;
    let (mut plan, after, mut path) = loop {
        let before = service.stats();
        match service.replan(ir, cluster, config, fault.delta) {
            Ok((plan, after)) => break (plan, after, classify(&before, &service.stats())),
            Err(_) if fault.kind.is_transient() && retries < policy.max_retries => {
                retries += 1;
                downtime_s += policy.backoff_s(retries);
            }
            Err(e) => return Err(e),
        }
    };
    let reference = if fault.delta.is_structural() {
        &plan
    } else {
        pre_fault
    };
    let mut report = check_replan(reference, &plan, &after, sim);
    if !report.is_consistent() {
        plan = Arc::new(cold_plan(ir, &after, config)?);
        report = check_replan(&plan, &plan, &after, sim);
        if !report.is_consistent() {
            return Err(PlanError::Internal(format!(
                "recovery failed verification even after a full recompile:\n{report}"
            )));
        }
        path = ReplanPath::Full;
    }
    let outcome = report.outcome.expect("consistent reports simulate");
    Ok(VerifiedPlan {
        plan,
        cluster: after,
        throughput: outcome.stats.throughput,
        retries,
        downtime_s,
        path,
    })
}

/// Which path a sequential [`PlanService::replan`] took, read off the
/// service's counters: a partial hit (only the invalidated pass suffix
/// re-ran) or a pure hit (the post-delta plan was already cached, e.g. a
/// restore back to a known topology) is the fast path.
fn classify(before: &CacheStats, after: &CacheStats) -> ReplanPath {
    if after.partial_hits > before.partial_hits || after.hits > before.hits {
        ReplanPath::CachedSuffix
    } else {
        ReplanPath::Full
    }
}

/// Which compile path a recovery took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanPath {
    /// The delta-invalidation fast path: cached artifacts were reused and
    /// only the invalidated pass suffix re-ran (or the post-delta state was
    /// already cached outright).
    CachedSuffix,
    /// A full from-scratch compile: nothing cached for the pre-delta state,
    /// the cache was disabled, or fast-path verification failed.
    Full,
}

impl ReplanPath {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplanPath::CachedSuffix => "cached-suffix",
            ReplanPath::Full => "full",
        }
    }
}

/// What one fault cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Fault class.
    pub kind: FaultKind,
    /// Processed-samples offset at which the fault struck.
    pub at_samples: f64,
    /// Committed samples rolled back (re-earned later).
    pub samples_lost: f64,
    /// Detection latency plus backoff waits, seconds.
    pub downtime_s: f64,
    /// Downtime plus the time to re-earn the lost samples at the
    /// post-recovery throughput: how long until the run is back to where
    /// the fault found it.
    pub time_to_recover_s: f64,
    /// Retries spent before recovery succeeded.
    pub retries: u32,
    /// Whether the recovery replanned via cached suffix or a full compile.
    pub replan: ReplanPath,
}

/// Nearest-rank quantile of `time_to_recover_s` over `events`.
///
/// `p` is clamped to `[0, 1]`; returns `None` when `events` is empty. The
/// nearest-rank definition (`⌈p·n⌉`-th smallest, with `p = 0` mapping to
/// the minimum) always returns an observed value, so a reported p99 is an
/// actual recovery the fleet survived, not an interpolation.
pub fn time_to_recover_quantile(events: &[RecoveryEvent], p: f64) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    let mut ttrs: Vec<f64> = events.iter().map(|e| e.time_to_recover_s).collect();
    ttrs.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 1.0);
    let rank = (p * ttrs.len() as f64).ceil() as usize;
    Some(ttrs[rank.max(1) - 1])
}

/// Outcome metrics of a resilient (or baseline) run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryStats {
    /// Samples that count toward training (the run's target).
    pub committed_samples: f64,
    /// Samples the cluster actually worked on, including rolled-back work.
    pub processed_samples: f64,
    /// Samples lost to rollbacks (`processed - committed`).
    pub samples_lost: f64,
    /// Total wall-clock seconds, downtime included.
    pub wall_seconds: f64,
    /// Seconds the cluster spent computing (committed or not).
    pub training_seconds: f64,
    /// Seconds lost to detection latency and backoff waits.
    pub downtime_seconds: f64,
    /// Committed samples per wall-clock second — the number that matters.
    pub goodput: f64,
    /// Processed samples per computing second: what the hardware sustained
    /// while up. The gap to `goodput` is the price of the faults.
    pub raw_throughput: f64,
    /// Fraction of wall-clock time spent computing.
    pub availability: f64,
    /// Recoveries served by the delta-invalidation fast path.
    pub replans_cached: u64,
    /// Recoveries that ran a full from-scratch compile.
    pub replans_full: u64,
    /// Per-fault breakdown, in timeline order.
    pub faults: Vec<RecoveryEvent>,
}

impl RecoveryStats {
    /// Nearest-rank quantile of time-to-recovery over [`RecoveryStats::faults`];
    /// `None` when the run saw no faults. See [`time_to_recover_quantile`].
    pub fn ttr_quantile(&self, p: f64) -> Option<f64> {
        time_to_recover_quantile(&self.faults, p)
    }

    /// Median time-to-recovery, seconds.
    pub fn ttr_p50(&self) -> Option<f64> {
        self.ttr_quantile(0.5)
    }

    /// 99th-percentile time-to-recovery, seconds — the tail the fleet bench
    /// gates on.
    pub fn ttr_p99(&self) -> Option<f64> {
        self.ttr_quantile(0.99)
    }

    /// Serialize through the repo's JSON layer (same shape the CLI and
    /// `fault_bench` emit). Quantiles are `null` for fault-free runs.
    pub fn to_json(&self) -> JsonValue {
        let quantile = |p| self.ttr_quantile(p).map(num).unwrap_or(JsonValue::Null);
        obj(vec![
            ("committed_samples", num(self.committed_samples)),
            ("processed_samples", num(self.processed_samples)),
            ("samples_lost", num(self.samples_lost)),
            ("wall_seconds", num(self.wall_seconds)),
            ("training_seconds", num(self.training_seconds)),
            ("downtime_seconds", num(self.downtime_seconds)),
            ("goodput", num(self.goodput)),
            ("raw_throughput", num(self.raw_throughput)),
            ("availability", num(self.availability)),
            ("replans_cached", num(self.replans_cached as f64)),
            ("replans_full", num(self.replans_full as f64)),
            ("ttr_p50_s", quantile(0.5)),
            ("ttr_p99_s", quantile(0.99)),
            (
                "faults",
                JsonValue::Array(
                    self.faults
                        .iter()
                        .map(|e| {
                            obj(vec![
                                ("kind", s(e.kind.name())),
                                ("at_samples", num(e.at_samples)),
                                ("samples_lost", num(e.samples_lost)),
                                ("downtime_s", num(e.downtime_s)),
                                ("time_to_recover_s", num(e.time_to_recover_s)),
                                ("retries", num(e.retries as f64)),
                                ("replan", s(e.replan.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_step;
    use whale_graph::models;
    use whale_hardware::ClusterDelta;
    use whale_ir::Annotator;

    fn dp_ir(batch: usize) -> WhaleIr {
        let g = models::resnet50(batch).unwrap();
        Annotator::new(g, batch)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap()
    }

    fn fault(kind: FaultKind, delta: ClusterDelta) -> FaultEvent {
        FaultEvent {
            at_samples: 0.0,
            kind,
            delta,
        }
    }

    fn after(cluster: &Cluster, delta: ClusterDelta) -> Cluster {
        let mut after = cluster.clone();
        after.apply_delta(delta).unwrap();
        after
    }

    #[test]
    fn a_rate_fault_on_a_warm_service_takes_the_cached_suffix() {
        let (ir, cluster) = (dp_ir(64), Cluster::parse("4xV100").unwrap());
        let (config, sim, policy) = (
            PlannerConfig::default(),
            SimConfig::default(),
            RecoveryPolicy::default(),
        );
        let service = PlanService::default();
        let pre_fault = service.plan(&ir, &cluster, &config).unwrap();
        let partial_hits = service.stats().partial_hits;
        let delta = ClusterDelta::GpuDegraded { id: 1, scale: 0.5 };

        let r = replan_verified(
            &service,
            &ir,
            &cluster,
            &config,
            &sim,
            &policy,
            fault(FaultKind::Degrade, delta),
            &pre_fault,
        )
        .unwrap();
        assert_eq!(r.path, ReplanPath::CachedSuffix);
        assert_eq!(r.retries, 0);
        assert_eq!(r.downtime_s, policy.detection_latency_s);
        assert_eq!(r.cluster, after(&cluster, delta));
        assert_eq!(service.stats().partial_hits, partial_hits + 1);
        let step = simulate_step(&r.plan, &r.cluster, &sim).unwrap();
        assert_eq!(r.throughput, step.stats.throughput);
    }

    #[test]
    fn a_replan_that_fails_its_check_falls_back_to_a_cold_compile() {
        let (ir, cluster) = (dp_ir(64), Cluster::parse("4xV100").unwrap());
        let (config, sim) = (PlannerConfig::default(), SimConfig::default());
        let service = PlanService::default();
        service.plan(&ir, &cluster, &config).unwrap();
        // A reference with another global batch fails every replan's check.
        let other_batch = cold_plan(&dp_ir(32), &cluster, &config).unwrap();
        let delta = ClusterDelta::GpuDegraded { id: 1, scale: 0.5 };

        let r = replan_verified(
            &service,
            &ir,
            &cluster,
            &config,
            &sim,
            &RecoveryPolicy::default(),
            fault(FaultKind::Degrade, delta),
            &other_batch,
        )
        .unwrap();
        let after = after(&cluster, delta);
        let cold = cold_plan(&ir, &after, &config).unwrap();
        assert_eq!(r.path, ReplanPath::Full);
        assert_eq!(*r.plan, cold);
        assert_eq!(r.cluster, after);
        let step = simulate_step(&cold, &after, &sim).unwrap();
        assert_eq!(r.throughput, step.stats.throughput);
    }

    #[test]
    fn a_replan_error_comes_back_unchanged() {
        // Two plan replicas of a 4-stage pipeline cannot split 3 GPUs.
        let g = models::bert_base(16, 128).unwrap();
        let ir = Annotator::new(g, 16)
            .outer_replica()
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("2x(2xV100)").unwrap();
        let config = PlannerConfig::default();
        let service = PlanService::default();
        let pre_fault = service.plan(&ir, &cluster, &config).unwrap();
        let delta = ClusterDelta::GpuRemoved { id: 3 };

        let err = replan_verified(
            &service,
            &ir,
            &cluster,
            &config,
            &SimConfig::default(),
            &RecoveryPolicy::default(),
            fault(FaultKind::Crash, delta),
            &pre_fault,
        )
        .unwrap_err();
        assert_eq!(
            err,
            cold_plan(&ir, &after(&cluster, delta), &config).unwrap_err()
        );
        assert!(
            err.to_string()
                .contains("3 GPUs not divisible into 2 plan replicas"),
            "{err}"
        );
    }

    fn event(ttr: f64) -> RecoveryEvent {
        RecoveryEvent {
            kind: FaultKind::Degrade,
            at_samples: 0.0,
            samples_lost: 0.0,
            downtime_s: ttr,
            time_to_recover_s: ttr,
            retries: 0,
            replan: ReplanPath::CachedSuffix,
        }
    }

    #[test]
    fn quantiles_are_nearest_rank_observed_values() {
        // 1..=100, shuffled order must not matter.
        let mut ttrs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        ttrs.reverse();
        let events: Vec<RecoveryEvent> = ttrs.into_iter().map(event).collect();
        assert_eq!(time_to_recover_quantile(&events, 0.5), Some(50.0));
        assert_eq!(time_to_recover_quantile(&events, 0.99), Some(99.0));
        assert_eq!(time_to_recover_quantile(&events, 1.0), Some(100.0));
        assert_eq!(time_to_recover_quantile(&events, 0.0), Some(1.0));
        // Out-of-range p clamps instead of panicking.
        assert_eq!(time_to_recover_quantile(&events, 7.0), Some(100.0));
        assert_eq!(time_to_recover_quantile(&events, -1.0), Some(1.0));
    }

    #[test]
    fn quantile_of_no_faults_is_none() {
        assert_eq!(time_to_recover_quantile(&[], 0.99), None);
        let stats = RecoveryStats::default();
        assert_eq!(stats.ttr_p50(), None);
        assert_eq!(stats.ttr_p99(), None);
        // And serializes as null, parseable.
        let text = stats.to_json().to_string_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(*parsed.get("ttr_p99_s"), JsonValue::Null);
    }

    #[test]
    fn single_event_is_every_quantile() {
        let events = [event(42.0)];
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(time_to_recover_quantile(&events, p), Some(42.0));
        }
    }

    #[test]
    fn stats_json_carries_quantiles() {
        let stats = RecoveryStats {
            faults: vec![event(10.0), event(20.0), event(30.0), event(40.0)],
            ..RecoveryStats::default()
        };
        assert_eq!(stats.ttr_p50(), Some(20.0));
        assert_eq!(stats.ttr_p99(), Some(40.0));
        let parsed = crate::json::parse(&stats.to_json().to_string_pretty()).unwrap();
        assert_eq!(parsed.get("ttr_p50_s").as_f64(), Some(20.0));
        assert_eq!(parsed.get("ttr_p99_s").as_f64(), Some(40.0));
        assert_eq!(parsed.get("faults").as_array().unwrap().len(), 4);
    }

    #[test]
    fn policies_are_bounded_before_they_run() {
        let policy = RecoveryPolicy::default();
        for (max_retries, ok) in [
            (0, true),
            (MAX_RETRIES, true),
            (MAX_RETRIES + 1, false),
            (u32::MAX, false),
        ] {
            let p = RecoveryPolicy {
                max_retries,
                ..policy
            };
            assert_eq!(p.check().is_ok(), ok, "{p:?}");
        }
        let times = |t| {
            [
                RecoveryPolicy {
                    detection_latency_s: t,
                    ..policy
                },
                RecoveryPolicy {
                    backoff_base_s: t,
                    ..policy
                },
                RecoveryPolicy {
                    backoff_cap_s: t,
                    ..policy
                },
            ]
        };
        for p in times(0.0) {
            assert!(p.check().is_ok(), "{p:?}");
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            for p in times(bad) {
                assert!(p.check().is_err(), "{p:?}");
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_s(1), 1.0);
        assert_eq!(policy.backoff_s(2), 2.0);
        assert_eq!(policy.backoff_s(5), 16.0);
        assert_eq!(policy.backoff_s(10), 30.0, "capped");
        assert_eq!(policy.backoff_s(0), 1.0, "retry 0 saturates to base");
    }
}
