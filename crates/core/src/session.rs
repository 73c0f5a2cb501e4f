//! The end-to-end driver: model + annotations + cluster → plan → simulation.
//!
//! [`Session`] is the reproduction's equivalent of Whale's outermost
//! `wh.cluster()` scope plus the runtime: it owns the cluster, the planner
//! configuration, and the simulator configuration, and drives the
//! annotate → plan → transform → execute path of Fig. 5.

use std::sync::Arc;

use whale_graph::TrainingConfig;
use whale_hardware::{Cluster, ClusterDelta};
use whale_ir::WhaleIr;
use whale_planner::{
    plan, CacheStats, CommConfig, DeviceAssignment, ExecutionPlan, PlanService, PlannerConfig,
    ScheduleKind,
};
use whale_sim::{
    simulate_step, simulate_step_reference, simulate_training, LossModel, SimConfig, StepOutcome,
    TrainingRun,
};

use crate::error::{Result, WhaleError};

/// A configured training session over one cluster.
///
/// Repeated [`Session::plan`] calls for the same (model, cluster, config)
/// triple are served from a shared content-addressed [`PlanService`] — a
/// sharded, single-flight plan cache. Clones of a session (e.g. the
/// per-candidate sessions of the auto-parallel search, or per-thread clones
/// of a serving loop) share the same service, so a hit anywhere in the
/// clone family is an `Arc` refcount bump, never a plan copy, and
/// concurrent misses for one key compile once. [`Session::replan`] reacts
/// to a [`ClusterDelta`] by re-running only the invalidated compile passes.
#[derive(Debug, Clone)]
pub struct Session {
    cluster: Cluster,
    planner: PlannerConfig,
    sim: SimConfig,
    cache: Option<Arc<PlanService>>,
}

impl Session {
    /// Start a session on an explicit cluster.
    pub fn new(cluster: Cluster) -> Session {
        Session {
            cluster,
            planner: PlannerConfig::default(),
            sim: SimConfig::default(),
            cache: Some(Arc::new(PlanService::default())),
        }
    }

    /// Start a session from a cluster-spec string
    /// (`"2x(8xV100)+2x(8xP100)"`).
    pub fn on_cluster(spec: &str) -> Result<Session> {
        Ok(Session::new(Cluster::parse(spec)?))
    }

    /// The session's cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Toggle §3.5's hardware-aware load balancing (off = paper baselines).
    pub fn hardware_aware(mut self, on: bool) -> Session {
        self.planner.hardware_aware = on;
        self
    }

    /// Set the training options (optimizer, AMP, recomputation).
    pub fn training(mut self, cfg: TrainingConfig) -> Session {
        self.planner.training = cfg;
        self
    }

    /// Set the compute efficiency `α` of the cost model `t = MF/(GF·α)`.
    pub fn efficiency(mut self, alpha: f64) -> Session {
        self.planner.efficiency = alpha;
        self
    }

    /// Select the pipeline schedule (backward-first is Whale's default, §4).
    pub fn schedule(mut self, schedule: ScheduleKind) -> Session {
        self.planner.schedule = schedule;
        self.sim.schedule = schedule;
        self
    }

    /// Set the plan-level DP degree used with `outer_replica` IRs.
    pub fn outer_dp(mut self, degree: usize) -> Session {
        self.planner.outer_dp = degree;
        self
    }

    /// Provide explicit virtual devices, one per TaskGraph
    /// (the paper's `cluster()` slicing).
    pub fn devices(mut self, assignment: DeviceAssignment) -> Session {
        self.planner.devices = assignment;
        self
    }

    /// Set the fraction of backward compute available to hide gradient sync.
    /// Only consulted by the legacy sync model — with bucketed fusion on
    /// (see [`Session::comm`]) overlap emerges from per-bucket events.
    pub fn sync_overlap(mut self, fraction: f64) -> Session {
        self.sim.sync_overlap = fraction;
        self
    }

    /// Configure the communication optimizer: gradient fusion buckets and
    /// per-group collective algorithm selection. Default = disabled
    /// (legacy monolithic sync); `CommConfig::fused()` is the recommended
    /// production setting.
    pub fn comm(mut self, cfg: CommConfig) -> Session {
        self.planner.comm = cfg;
        self
    }

    /// Set the gradient wire dtype (fp32/bf16/fp8) on top of whatever comm
    /// config is active: sub-fp32 dtypes shrink every AllReduce payload,
    /// re-run per-bucket algorithm selection at the smaller size, charge
    /// quantize/dequantize compute, and account fp32 master weights +
    /// loss-scaling state in the memory ledger.
    pub fn grad_dtype(mut self, dtype: whale_planner::GradDtype) -> Session {
        self.planner.comm.grad_dtype = dtype;
        self
    }

    /// Set the gradient compression factor in `(0, 1]` (1.0 = off) on top
    /// of the dtype scaling; values below 1 also charge an error-feedback
    /// residual in the memory ledger.
    pub fn compress_ratio(mut self, ratio: f64) -> Session {
        self.planner.comm.compress_ratio = ratio;
        self
    }

    /// Toggle the planner's per-stage cost memoization (on by default;
    /// results are bit-identical either way — `off` exists so benchmarks
    /// can measure the pre-fast-path planner).
    pub fn memoize(mut self, on: bool) -> Session {
        self.planner.memoize = on;
        self
    }

    /// Toggle the content-addressed plan cache (on by default). `off`
    /// exists for benchmarks that must measure cold planning on every call.
    pub fn plan_cache(mut self, on: bool) -> Session {
        self.cache = if on {
            Some(Arc::new(PlanService::default()))
        } else {
            None
        };
        self
    }

    /// The shared plan service behind this session's clone family (`None`
    /// when the cache is disabled). Exposed so serving front ends can issue
    /// keyed requests or inspect shard occupancy directly.
    pub fn plan_service(&self) -> Option<&Arc<PlanService>> {
        self.cache.as_ref()
    }

    /// The active planner configuration.
    pub fn planner_config(&self) -> &PlannerConfig {
        &self.planner
    }

    /// The active simulator configuration (for the resilient runtime).
    pub(crate) fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// Mutate the cluster directly, bypassing the replan path — the
    /// restart-from-scratch baseline needs a runtime that *doesn't* replan,
    /// and the resilient runtime installs the post-delta cluster its
    /// recovery step returns.
    pub(crate) fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Plan-cache counters (`None` when the cache is disabled). Clones of a
    /// session share one cache, so auto-parallel searches report here too.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Zero the plan-cache counters, keeping cached entries.
    pub fn reset_cache_stats(&self) {
        if let Some(c) = &self.cache {
            c.reset_stats();
        }
    }

    /// Produce the distributed execution plan for `ir`.
    ///
    /// With the cache enabled (default), a repeated request for the same
    /// (model, cluster, config) content returns a shared handle to the
    /// stored plan — an `Arc` refcount bump, no compile pass and no copy.
    pub fn plan(&self, ir: &WhaleIr) -> Result<Arc<ExecutionPlan>> {
        match &self.cache {
            Some(service) => Ok(service.plan(ir, &self.cluster, &self.planner)?),
            None => Ok(Arc::new(plan(ir, &self.cluster, &self.planner)?)),
        }
    }

    /// Apply a cluster change and re-plan, re-running only the compile
    /// passes the delta invalidates (see `whale_planner::invalidation_start`
    /// for the matrix). The session's cluster is updated to the post-delta
    /// topology.
    pub fn replan(&mut self, ir: &WhaleIr, delta: ClusterDelta) -> Result<Arc<ExecutionPlan>> {
        match &self.cache {
            Some(service) => {
                let (p, after) = service.replan(ir, &self.cluster, &self.planner, delta)?;
                self.cluster = after;
                Ok(p)
            }
            None => {
                self.cluster.apply_delta(delta)?;
                Ok(Arc::new(plan(ir, &self.cluster, &self.planner)?))
            }
        }
    }

    /// Plan and simulate one training step.
    pub fn step(&self, ir: &WhaleIr) -> Result<StepOutcome> {
        let p = self.plan(ir)?;
        Ok(simulate_step(&p, &self.cluster, &self.sim)?)
    }

    /// Simulate one step of an existing plan.
    pub fn step_plan(&self, p: &ExecutionPlan) -> Result<StepOutcome> {
        Ok(simulate_step(p, &self.cluster, &self.sim)?)
    }

    /// [`Session::step_plan`] through the polling reference scheduler — the
    /// golden baseline the equivalence tests and `fastpath_bench` compare
    /// the event-driven engine against.
    #[doc(hidden)]
    pub fn step_plan_reference(&self, p: &ExecutionPlan) -> Result<StepOutcome> {
        Ok(simulate_step_reference(p, &self.cluster, &self.sim)?)
    }

    /// Plan and simulate a training run to `total_samples`.
    pub fn train(
        &self,
        ir: &WhaleIr,
        loss: &LossModel,
        total_samples: f64,
        checkpoints: usize,
        seed: u64,
    ) -> Result<TrainingRun> {
        let p = self.plan(ir)?;
        Ok(simulate_training(
            &p,
            &self.cluster,
            &self.sim,
            loss,
            total_samples,
            checkpoints,
            seed,
        )?)
    }

    /// Fail unless the plan fits in device memory (useful in examples).
    pub fn check_memory(&self, p: &ExecutionPlan) -> Result<()> {
        if !p.memory_feasible(&self.cluster)? {
            return Err(WhaleError::OutOfMemory(
                p.memory_per_gpu()
                    .into_iter()
                    .filter(|&(gpu, bytes)| {
                        self.cluster
                            .gpu(gpu)
                            .map(|g| bytes > g.memory_bytes())
                            .unwrap_or(true)
                    })
                    .map(|(gpu, _)| gpu)
                    .collect(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_ir::Annotator;

    #[test]
    fn session_end_to_end_dp() {
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let s = Session::on_cluster("8xV100+8xP100").unwrap();
        let out = s.step(&ir).unwrap();
        assert!(out.stats.throughput > 0.0);
        assert_eq!(out.stats.per_gpu.len(), 16);
    }

    #[test]
    fn builder_options_apply() {
        let s = Session::on_cluster("4xV100")
            .unwrap()
            .hardware_aware(false)
            .efficiency(0.6)
            .sync_overlap(0.5)
            .outer_dp(2);
        assert!(!s.planner_config().hardware_aware);
        assert_eq!(s.planner_config().efficiency, 0.6);
        assert_eq!(s.planner_config().outer_dp, 2);
    }

    #[test]
    fn repeated_plans_hit_the_cache() {
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let s = Session::on_cluster("4xV100").unwrap();
        let a = s.plan(&ir).unwrap();
        let b = s.plan(&ir).unwrap();
        assert_eq!(a, b);
        let stats = s.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Clones share the cache.
        let clone = s.clone();
        clone.plan(&ir).unwrap();
        assert_eq!(s.cache_stats().unwrap().hits, 2);
        // Disabling the cache reports no stats.
        assert!(s.plan_cache(false).cache_stats().is_none());
    }

    #[test]
    fn replan_rebalances_on_degradation() {
        use whale_hardware::ClusterDelta;
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let mut s = Session::on_cluster("4xV100").unwrap();
        let cold = s.plan(&ir).unwrap();
        let replanned = s
            .replan(&ir, ClusterDelta::GpuDegraded { id: 0, scale: 0.4 })
            .unwrap();
        // Session cluster tracks the delta; the slow GPU sheds samples.
        assert_eq!(s.cluster().gpu(0).unwrap().throughput_scale, 0.4);
        assert!(
            replanned.stages[0].devices[0].samples_per_step
                < cold.stages[0].devices[0].samples_per_step
        );
        let stats = s.cache_stats().unwrap();
        assert_eq!(stats.partial_hits, 1);
    }

    #[test]
    fn memory_check_reports_oom_gpus() {
        let g = models::bert_large(1024, 128).unwrap();
        let ir = Annotator::new(g, 1024)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let s = Session::on_cluster("2xP100").unwrap().hardware_aware(false);
        let p = s.plan(&ir).unwrap();
        match s.check_memory(&p) {
            Err(WhaleError::OutOfMemory(gpus)) => assert!(!gpus.is_empty()),
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
