//! Content-addressed plan cache.
//!
//! A production plan service answers many repeated requests: the same model
//! on the same cluster with the same options must not re-run the planner.
//! [`PlanCache`] keys full [`CompileState`]s (not just plans — so cached
//! artifacts can seed a delta-replan) on [`PlanKey`], the triple of content
//! fingerprints of the planner's inputs. Entries are stored behind [`Arc`],
//! so a hit is an O(1) refcount bump — no artifact or plan is ever deep-
//! cloned on the read path. Hit/miss/pass counters are exposed for the
//! Session, CLI, and auto-parallel search to report.
//!
//! `PlanCache` itself is single-threaded (`&mut self`); the concurrent
//! front end — sharding and single-flight miss deduplication — lives in
//! [`crate::service::PlanService`], which composes one `PlanCache` per
//! shard.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use whale_fp::Fingerprint;
use whale_hardware::{Cluster, ClusterDelta};
use whale_ir::WhaleIr;

use crate::error::Result;
use crate::pipeline::{
    compile, invalidation_start, CompilePipeline, CompileState, PassContext, PassId,
};
use crate::plan::ExecutionPlan;
use crate::planner::PlannerConfig;

/// Cache key: content fingerprints of the three planner inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`WhaleIr::fingerprint`] of the annotated model.
    pub ir: Fingerprint,
    /// [`Cluster::fingerprint`] of the target cluster.
    pub cluster: Fingerprint,
    /// [`PlannerConfig::fingerprint`] of the options.
    pub config: Fingerprint,
}

impl PlanKey {
    /// Fingerprint all three planner inputs.
    pub fn new(ir: &WhaleIr, cluster: &Cluster, config: &PlannerConfig) -> PlanKey {
        PlanKey {
            ir: ir.fingerprint(),
            cluster: cluster.fingerprint(),
            config: config.fingerprint(),
        }
    }

    /// The key of the same IR and config on `cluster`. A replan derives
    /// its post-delta key with this, so it hashes the IR and config once.
    pub(crate) fn on_cluster(self, cluster: &Cluster) -> PlanKey {
        PlanKey {
            cluster: cluster.fingerprint(),
            ..self
        }
    }

    /// Stable 64-bit mix of the three fingerprints, used to pick a
    /// [`crate::service::PlanService`] shard. FNV-style multiply-xor so
    /// keys differing in any one input land on uncorrelated shards.
    pub fn shard_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for part in [self.ir.0, self.cluster.0, self.config.0] {
            h ^= part;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.ir, self.cluster, self.config)
    }
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered entirely from cache (zero passes run).
    pub hits: u64,
    /// Requests that ran the full pipeline from scratch (a compile that
    /// *fails* still counts as a miss — the passes were attempted — but
    /// stores no entry).
    pub misses: u64,
    /// Delta-replans that reused cached artifacts and re-ran only the
    /// invalidated suffix of the pipeline.
    pub partial_hits: u64,
    /// Requests that arrived while another request was already compiling
    /// the same key and blocked on that in-flight result instead of
    /// compiling themselves (single-flight deduplication; see
    /// [`crate::service::PlanService`]). Always 0 for a plain `PlanCache`.
    pub coalesced: u64,
    /// Total compile passes executed on behalf of this cache.
    pub passes_run: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total requests accounted: every lookup lands in exactly one of
    /// `hits`, `misses`, `partial_hits`, or `coalesced`.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.partial_hits + self.coalesced
    }

    /// Hit ratio over all requests (full hits only, coalesced requests
    /// count toward the denominator — they did not hit the cache, they
    /// drafted behind a miss).
    ///
    /// Defined as exactly `0.0` when no request has been recorded: an idle
    /// cache has no hit rate, and returning `0.0` (rather than the `NaN` a
    /// bare float division would produce) keeps the value safe to plot,
    /// serialize, and compare.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum, for aggregating per-shard counters.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            partial_hits: self.partial_hits + other.partial_hits,
            coalesced: self.coalesced + other.coalesced,
            passes_run: self.passes_run + other.passes_run,
            evictions: self.evictions + other.evictions,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} · misses {} · partial {} · coalesced {} · passes {} · evictions {}",
            self.hits,
            self.misses,
            self.partial_hits,
            self.coalesced,
            self.passes_run,
            self.evictions
        )
    }
}

/// Bounded FIFO cache of compile states keyed by content fingerprints.
#[derive(Debug)]
pub struct PlanCache {
    entries: HashMap<PlanKey, Arc<CompileState>>,
    order: VecDeque<PlanKey>,
    capacity: usize,
    stats: CacheStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default entry bound; a CompileState is a few hundred KB at most, so
    /// this keeps the cache well under typical service memory budgets.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Create a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Plan through the cache: a key hit returns the stored plan without
    /// running any pass (a shared handle, not a copy); a miss compiles,
    /// stores the full artifact state, and returns the fresh plan.
    pub fn plan(
        &mut self,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
    ) -> Result<Arc<ExecutionPlan>> {
        let key = PlanKey::new(ir, cluster, config);
        self.plan_keyed(key, ir, cluster, config)
    }

    /// [`PlanCache::plan`] with a caller-computed key. The key must equal
    /// `PlanKey::new(ir, cluster, config)`; services that admit requests by
    /// key use this to fingerprint once per request instead of once per
    /// lookup.
    pub fn plan_keyed(
        &mut self,
        key: PlanKey,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
    ) -> Result<Arc<ExecutionPlan>> {
        if let Some(state) = self.lookup(&key) {
            return Ok(state.plan_arc());
        }
        let state = match compile(ir, cluster, config) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                self.stats.misses += 1;
                return Err(e);
            }
        };
        let plan = state.plan_arc();
        self.admit_miss(key, state);
        Ok(plan)
    }

    /// Re-plan after `delta`, reusing cached artifacts where possible.
    ///
    /// `cluster` is the **pre-delta** cluster (the one prior plans were
    /// keyed on); the updated cluster is returned alongside the new plan.
    /// If the pre-delta state is cached, only the passes invalidated by the
    /// delta re-run (a degradation re-runs Balance + Schedule); otherwise
    /// this degenerates to a cold compile on the post-delta cluster. The
    /// result is stored under the post-delta key, so a later `plan()`
    /// against the updated cluster is a pure hit.
    pub fn replan(
        &mut self,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
        delta: ClusterDelta,
    ) -> Result<(Arc<ExecutionPlan>, Cluster)> {
        let old_key = PlanKey::new(ir, cluster, config);
        let mut after = cluster.clone();
        after.apply_delta(delta)?;
        let new_key = old_key.on_cluster(&after);

        if let Some(state) = self.lookup(&new_key) {
            return Ok((state.plan_arc(), after));
        }

        let seed = self.peek(&old_key).cloned();
        let (state, ran, partial) = replan_from_seed(seed, ir, &after, config, &delta)?;
        let plan = state.plan_arc();
        self.admit_replan(new_key, state, ran, partial);
        Ok((plan, after))
    }

    /// Look `key` up, counting a hit when present. Returns a shared handle;
    /// absent keys record nothing (the caller decides whether the miss is
    /// compiled here or coalesced onto an in-flight compile).
    pub fn lookup(&mut self, key: &PlanKey) -> Option<Arc<CompileState>> {
        let found = self.entries.get(key).cloned();
        if found.is_some() {
            self.stats.hits += 1;
        }
        found
    }

    /// Direct lookup of a cached state (no counters touched).
    pub fn peek(&self, key: &PlanKey) -> Option<&Arc<CompileState>> {
        self.entries.get(key)
    }

    /// Store a freshly compiled state and account the miss.
    pub fn admit_miss(&mut self, key: PlanKey, state: Arc<CompileState>) {
        self.stats.misses += 1;
        self.stats.passes_run += state.passes_run.len() as u64;
        self.insert(key, state);
    }

    /// Account a miss whose compile failed (no entry to store).
    pub fn note_failed_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Account a request that coalesced onto an in-flight compile of the
    /// same key instead of compiling itself (single-flight deduplication).
    pub fn note_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Store a replanned state: `ran` passes executed, `partial` when a
    /// cached prefix was reused (otherwise the replan was a cold compile).
    pub fn admit_replan(
        &mut self,
        key: PlanKey,
        state: Arc<CompileState>,
        ran: usize,
        partial: bool,
    ) {
        self.stats.passes_run += ran as u64;
        if partial {
            self.stats.partial_hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.insert(key, state);
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the counters, keeping entries.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries (counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    fn insert(&mut self, key: PlanKey, state: Arc<CompileState>) {
        if self.entries.insert(key, state).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                    self.stats.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// Run the delta-replan pipeline outside any cache lock: clone the cached
/// pre-delta artifacts (or start cold), re-run the invalidated suffix on
/// the **post-delta** cluster, and report `(state, passes_ran, partial)`.
/// Shared by [`PlanCache::replan`] and the single-flight leaders of
/// [`crate::service::PlanService`].
pub fn replan_from_seed(
    seed: Option<Arc<CompileState>>,
    ir: &WhaleIr,
    after: &Cluster,
    config: &PlannerConfig,
    delta: &ClusterDelta,
) -> Result<(Arc<CompileState>, usize, bool)> {
    let (mut state, start) = match seed {
        Some(cached) => ((*cached).clone(), invalidation_start(delta)),
        None => (CompileState::default(), PassId::DegreeInference),
    };
    let passes_before = state.passes_run.len();
    let cx = PassContext {
        ir,
        cluster: after,
        config,
    };
    CompilePipeline::standard().run_from(&cx, &mut state, start)?;
    let ran = state.passes_run.len() - passes_before;
    let partial = start > PassId::DegreeInference;
    Ok((Arc::new(state), ran, partial))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::{GpuModel, LinkKind};
    use whale_ir::Annotator;

    /// One `(pre-delta cluster, delta)` per delta kind. The restore starts
    /// from a degraded GPU, so every delta changes the cluster.
    pub(crate) fn every_delta_kind() -> Vec<(Cluster, ClusterDelta)> {
        let healthy = Cluster::parse("2x(2xV100)").unwrap();
        let mut degraded = healthy.clone();
        degraded.degrade_gpu(1, 0.5).unwrap();
        vec![
            (
                healthy.clone(),
                ClusterDelta::GpuDegraded { id: 0, scale: 0.5 },
            ),
            (degraded, ClusterDelta::GpuRestored { id: 1 }),
            (
                healthy.clone(),
                ClusterDelta::LinkBandwidth {
                    kind: LinkKind::Network,
                    bytes_per_sec: 1e9,
                },
            ),
            (healthy.clone(), ClusterDelta::GpuRemoved { id: 3 }),
            (
                healthy,
                ClusterDelta::GpuAdded {
                    node: 1,
                    model: GpuModel::P100_16GB,
                },
            ),
        ]
    }

    fn resnet_ir(batch: usize) -> WhaleIr {
        let g = models::resnet50(batch).unwrap();
        Annotator::new(g, batch)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn hit_runs_no_passes() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut cache = PlanCache::default();

        let first = cache.plan(&ir, &cluster, &cfg).unwrap();
        let after_miss = cache.stats();
        assert_eq!((after_miss.hits, after_miss.misses), (0, 1));
        assert_eq!(after_miss.passes_run, PassId::ALL.len() as u64);

        let second = cache.plan(&ir, &cluster, &cfg).unwrap();
        let after_hit = cache.stats();
        assert_eq!((after_hit.hits, after_hit.misses), (1, 1));
        assert_eq!(
            after_hit.passes_run, after_miss.passes_run,
            "a hit must not run any pass"
        );
        assert_eq!(first, second);
        // Zero-copy: the hit returned the same allocation, not a clone.
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn different_inputs_are_different_entries() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut cache = PlanCache::default();
        cache.plan(&resnet_ir(64), &cluster, &cfg).unwrap();
        cache.plan(&resnet_ir(32), &cluster, &cfg).unwrap();
        let other = Cluster::parse("2xV100").unwrap();
        cache.plan(&resnet_ir(64), &other, &cfg).unwrap();
        let hw_off = PlannerConfig {
            hardware_aware: false,
            ..PlannerConfig::default()
        };
        cache.plan(&resnet_ir(64), &cluster, &hw_off).unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn replan_is_a_partial_hit_and_seeds_the_new_key() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut cache = PlanCache::default();
        cache.plan(&ir, &cluster, &cfg).unwrap();

        let delta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };
        let (replanned, after) = cache.replan(&ir, &cluster, &cfg, delta).unwrap();
        let s = cache.stats();
        assert_eq!(s.partial_hits, 1);
        // Balance + Schedule + CommOpt only, on top of the 6 cold passes.
        assert_eq!(s.passes_run, 6 + 3);
        // Degraded GPU 0 now gets the smallest share.
        let dev = &replanned.stages[0].devices;
        assert!(dev[0].samples_per_step < dev[1].samples_per_step);

        // The post-delta key is now hot.
        let again = cache.plan(&ir, &after, &cfg).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(again, replanned);
    }

    #[test]
    fn every_delta_kind_leaves_a_pure_hit_on_the_post_delta_cluster() {
        let ir = resnet_ir(64);
        let cfg = PlannerConfig::default();
        for (cluster, delta) in every_delta_kind() {
            let mut cache = PlanCache::default();
            cache.plan(&ir, &cluster, &cfg).unwrap();
            let (replanned, after) = cache.replan(&ir, &cluster, &cfg, delta).unwrap();
            assert_ne!(after.fingerprint(), cluster.fingerprint(), "{delta:?}");
            let before = cache.stats();
            let again = cache.plan(&ir, &after, &cfg).unwrap();
            assert!(Arc::ptr_eq(&replanned, &again), "{delta:?}");
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: before.hits + 1,
                    ..before
                },
                "{delta:?}: planning the post-delta cluster is a pure hit"
            );
        }
    }

    #[test]
    fn replan_without_cached_state_degenerates_to_cold() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut cache = PlanCache::default();
        let delta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };
        let (plan, after) = cache.replan(&ir, &cluster, &cfg, delta).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().partial_hits, 0);
        assert_eq!(*plan, crate::planner::plan(&ir, &after, &cfg).unwrap());
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut cache = PlanCache::new(2);
        cache.plan(&resnet_ir(16), &cluster, &cfg).unwrap();
        cache.plan(&resnet_ir(32), &cluster, &cfg).unwrap();
        cache.plan(&resnet_ir(64), &cluster, &cfg).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest entry (batch 16) was evicted → miss again.
        cache.plan(&resnet_ir(16), &cluster, &cfg).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn hit_ratio_handles_zero_requests_and_counts_coalesced() {
        let idle = CacheStats::default();
        assert_eq!(idle.requests(), 0);
        assert_eq!(idle.hit_ratio(), 0.0, "idle cache must report 0.0, not NaN");
        assert!(idle.hit_ratio().is_finite());

        let busy = CacheStats {
            hits: 6,
            misses: 2,
            partial_hits: 1,
            coalesced: 3,
            ..CacheStats::default()
        };
        assert_eq!(busy.requests(), 12);
        assert!((busy.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            partial_hits: 3,
            coalesced: 4,
            passes_run: 5,
            evictions: 6,
        };
        let sum = a.merge(&a);
        assert_eq!(sum.hits, 2);
        assert_eq!(sum.misses, 4);
        assert_eq!(sum.partial_hits, 6);
        assert_eq!(sum.coalesced, 8);
        assert_eq!(sum.passes_run, 10);
        assert_eq!(sum.evictions, 12);
        assert_eq!(sum.requests(), 20);
    }

    #[test]
    fn shard_hash_spreads_distinct_keys() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let keys: Vec<PlanKey> = [16, 32, 64, 128]
            .iter()
            .map(|&b| PlanKey::new(&resnet_ir(b), &cluster, &cfg))
            .collect();
        let hashes: std::collections::HashSet<u64> = keys.iter().map(|k| k.shard_hash()).collect();
        assert_eq!(hashes.len(), keys.len(), "distinct keys, distinct hashes");
    }
}
