//! Plan-cache keys and counters.
//!
//! A production plan service answers many repeated requests: the same model
//! on the same cluster with the same options must not re-run the planner.
//! [`crate::service::PlanService`], the one plan cache, keys full compile
//! states (not just plans, so cached artifacts can seed a delta-replan) on
//! [`PlanKey`], the triple of content fingerprints of the planner's inputs,
//! and counts what it serves in [`CacheStats`] for the Session, CLI, and
//! auto-parallel search to report.

use whale_fp::Fingerprint;
use whale_hardware::Cluster;
use whale_ir::WhaleIr;

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
    /// [`crate::service::PlanService`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_ir::Annotator;

    fn resnet_ir(batch: usize) -> WhaleIr {
        let g = models::resnet50(batch).unwrap();
        Annotator::new(g, batch)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap()
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
