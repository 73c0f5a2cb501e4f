//! The plan cache: a sharded, single-flight store of compile states.
//!
//! [`PlanService`] keys full [`CompileState`]s on [`PlanKey`], so a repeated
//! request runs no pass and a delta-replan can reuse the cached artifacts
//! of the pre-delta cluster. Entries live behind [`Arc`], so a hit is a
//! refcount bump: no artifact or plan is ever deep-cloned on the read path
//! (see `CompileState::plan_arc`).
//!
//! Funneling a multi-tenant planning service through one lock has two
//! costs that grow with client count:
//!
//! 1. **a global serial section** — every request, hit or miss, queues on
//!    one lock; and
//! 2. **redundant compiles** — N concurrent misses for the same key run N
//!    identical compiles, N−1 of which are thrown away.
//!
//! The service removes both. The key space is split by
//! [`PlanKey::shard_hash`] across `S` independently locked shards, each a
//! bounded FIFO of entries with its own counters, so requests for different
//! keys proceed in parallel and a hit holds its shard lock only for a map
//! lookup plus an `Arc` refcount bump. Misses are **single-flight**: the
//! first requester for a key becomes the *leader*, registers an in-flight
//! ticket in the shard, and compiles *outside* the lock; every concurrent
//! requester for the same key finds the ticket, blocks on its condvar, and
//! receives the leader's result — including the error path, where all
//! waiters see a clone of the leader's [`PlanError`]. Coalesced requests
//! are counted in [`CacheStats::coalesced`].
//!
//! Lock discipline: a thread holds at most one shard lock at a time, and
//! never while compiling or while blocking on a flight, so the service
//! cannot deadlock and slow compiles on one key never delay hits on
//! another.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use whale_hardware::{Cluster, ClusterDelta};
use whale_ir::WhaleIr;

use crate::cache::{CacheStats, PlanKey};
use crate::error::{PlanError, Result};
use crate::pipeline::{
    compile, invalidation_start, CompilePipeline, CompileState, PassContext, PassId,
};
use crate::plan::ExecutionPlan;
use crate::planner::PlannerConfig;

/// One in-flight compile. The leader fills `result` exactly once and
/// notifies; waiters block on the condvar until it is set.
struct Flight {
    result: Mutex<Option<std::result::Result<Arc<CompileState>, PlanError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Publish the leader's result and wake every waiter.
    fn resolve(&self, result: std::result::Result<Arc<CompileState>, PlanError>) {
        let mut slot = lock_ignoring_poison(&self.result);
        *slot = Some(result);
        self.done.notify_all();
    }

    /// Block until the leader resolves, then return a shared copy.
    fn wait(&self) -> std::result::Result<Arc<CompileState>, PlanError> {
        let mut slot = lock_ignoring_poison(&self.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .done
                .wait(slot)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// One shard: a bounded FIFO of compile states, its counters, and the
/// in-flight tickets for keys that hash here.
struct Shard {
    entries: HashMap<PlanKey, Arc<CompileState>>,
    order: VecDeque<PlanKey>,
    capacity: usize,
    stats: CacheStats,
    inflight: HashMap<PlanKey, Arc<Flight>>,
}

impl Shard {
    /// Store `state` under `key`, evicting the oldest entries past
    /// capacity.
    fn insert(&mut self, key: PlanKey, state: Arc<CompileState>) {
        if self.entries.insert(key, state).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
    }
}

/// What the admission check under the shard lock decided for this request.
enum Admission {
    /// Cached: the request is done (hit already counted).
    Hit(Arc<CompileState>),
    /// Nothing cached or in flight: this thread compiles for everyone.
    Lead(Arc<Flight>),
    /// Another thread is compiling this key: wait for its flight.
    Coalesce(Arc<Flight>),
}

/// Clears a single-flight leader's in-flight ticket if the leader dies
/// before settling.
///
/// The leader compiles *outside* the shard lock; if that compile panics,
/// nothing on the unwind path would otherwise touch the shard, so the
/// ticket would sit in `inflight` forever and every coalesced waiter would
/// block on a flight nobody will resolve — and every *future* request for
/// the key would coalesce onto the same dead flight. The guard is armed
/// when leadership is taken and disarmed on the normal settle path; on a
/// panic-unwind drop it removes the ticket, accounts the abandoned
/// leadership as a failed miss (so the every-request-accounted invariant
/// holds: the leader's request landed, just unsuccessfully), and publishes
/// [`PlanError::Internal`] so waiters fail fast instead of hanging.
struct LeaderGuard<'a> {
    service: &'a PlanService,
    key: PlanKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl<'a> LeaderGuard<'a> {
    fn new(service: &'a PlanService, key: PlanKey, flight: Arc<Flight>) -> LeaderGuard<'a> {
        LeaderGuard {
            service,
            key,
            flight,
            armed: true,
        }
    }

    /// The leader survived its compile; the settle path owns cleanup now.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        {
            let mut shard = lock_ignoring_poison(self.service.shard_for(&self.key));
            shard.inflight.remove(&self.key);
            shard.stats.misses += 1;
        }
        self.flight.resolve(Err(PlanError::Internal(
            "compile leader panicked before publishing a result".into(),
        )));
    }
}

/// Sharded, single-flight, zero-copy-hit plan cache for concurrent use.
///
/// Cheap to share: `Session` clones hold one `PlanService` behind an `Arc`.
/// All methods take `&self`; internal locking is per shard. Each shard
/// holds at most its capacity of entries and evicts the oldest first.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use whale_graph::models;
/// use whale_hardware::Cluster;
/// use whale_ir::Annotator;
/// use whale_planner::{PlanService, PlannerConfig};
///
/// let g = models::resnet50(64).unwrap();
/// let ir = Annotator::new(g, 64).replicate_all().unwrap().finish().unwrap();
/// let cluster = Cluster::parse("4xV100").unwrap();
/// let cfg = PlannerConfig::default();
/// let service = Arc::new(PlanService::default());
///
/// let a = service.plan(&ir, &cluster, &cfg).unwrap();
/// let b = service.plan(&ir, &cluster, &cfg).unwrap();
/// assert!(Arc::ptr_eq(&a, &b)); // the hit copied nothing
/// let stats = service.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct PlanService {
    shards: Box<[Mutex<Shard>]>,
}

impl Default for PlanService {
    fn default() -> Self {
        PlanService::new(PlanService::DEFAULT_SHARDS, PlanService::DEFAULT_CAPACITY)
    }
}

/// The caches hold no invariants a panicking planner could break half-way
/// (entries are inserted whole, flights resolve whole), so a poisoned lock
/// is safe to enter.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PlanService {
    /// Default shard count: enough to make same-shard collisions rare for
    /// typical zoo×cluster working sets while keeping per-shard overhead
    /// negligible.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Default entry bound per shard, so a default service holds at most
    /// `DEFAULT_SHARDS × DEFAULT_CAPACITY` (8,192) compile states.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Create a service with `shards` independently locked shards (min 1),
    /// each bounded to `capacity_per_shard` entries (min 1).
    pub fn new(shards: usize, capacity_per_shard: usize) -> PlanService {
        let shards = shards.max(1);
        PlanService {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        order: VecDeque::new(),
                        capacity: capacity_per_shard.max(1),
                        stats: CacheStats::default(),
                        inflight: HashMap::new(),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_ignoring_poison(s).entries.len())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters aggregated across shards. Every request lands in exactly
    /// one of `hits`/`misses`/`partial_hits`/`coalesced`, so
    /// [`CacheStats::requests`] equals the number of `plan`/`replan` calls
    /// that have completed.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(|s| lock_ignoring_poison(s).stats)
            .fold(CacheStats::default(), |acc, s| acc.merge(&s))
    }

    /// Zero every shard's counters, keeping entries.
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            lock_ignoring_poison(shard).stats = CacheStats::default();
        }
    }

    fn shard_for(&self, key: &PlanKey) -> &Mutex<Shard> {
        &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize]
    }

    /// Serve one plan request: zero-copy hit, or single-flight compile.
    pub fn plan(
        &self,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
    ) -> Result<Arc<ExecutionPlan>> {
        let key = PlanKey::new(ir, cluster, config);
        self.plan_keyed(key, ir, cluster, config)
    }

    /// [`PlanService::plan`] with a caller-computed key (`key` must equal
    /// `PlanKey::new(ir, cluster, config)`). Lets a front end that already
    /// fingerprinted the request — e.g. to route or log it — skip a second
    /// fingerprint pass on the hot path.
    pub fn plan_keyed(
        &self,
        key: PlanKey,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
    ) -> Result<Arc<ExecutionPlan>> {
        let state = match self.admit(key) {
            Admission::Hit(state) => state,
            Admission::Coalesce(flight) => flight.wait()?,
            Admission::Lead(flight) => {
                let guard = LeaderGuard::new(self, key, flight.clone());
                let compiled = compile(ir, cluster, config).map(Arc::new);
                guard.disarm();
                self.settle_miss(key, &flight, compiled)?
            }
        };
        Ok(state.plan_arc())
    }

    /// Compile a burst of related requests, returning one result per
    /// request **in input order**.
    ///
    /// The batch is served smarter than a loop over [`PlanService::plan`]:
    ///
    /// 1. **One fingerprint pass.** Every request is keyed up front.
    ///    Requests in a burst typically share structure — the same model at
    ///    several batch sizes, the same cluster across models — and a graph
    ///    memoizes its fingerprint per value, so requests holding clones of
    ///    one graph walk its ops once, not once per request.
    /// 2. **Duplicates made adjacent.** Requests are processed in key order,
    ///    so repeated keys run back-to-back: the first becomes the compile
    ///    leader (or hits an existing entry) and every duplicate is a
    ///    zero-copy cache hit immediately after — no duplicate ever races a
    ///    cold shard, even on a fresh service.
    /// 3. **Keys reused.** Each compile/lookup goes through
    ///    [`PlanService::plan_keyed`] with the precomputed key, skipping a
    ///    second fingerprint pass.
    ///
    /// Failures are per-request: one bad request yields `Err` in its slot
    /// and leaves the rest of the batch untouched.
    pub fn compile_batch(
        &self,
        requests: &[(&WhaleIr, &Cluster, &PlannerConfig)],
    ) -> Vec<Result<Arc<ExecutionPlan>>> {
        let keys: Vec<PlanKey> = requests
            .iter()
            .map(|(ir, cluster, config)| PlanKey::new(ir, cluster, config))
            .collect();
        // Sort request indices so equal keys are adjacent (and same-shard
        // keys clustered); the sort is on the fingerprint words, not the
        // inputs, so it costs nothing beyond the fingerprints we already
        // have.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| {
            let k = &keys[i];
            (k.shard_hash(), k.ir.0, k.cluster.0, k.config.0)
        });
        let mut results: Vec<Option<Result<Arc<ExecutionPlan>>>> = vec![None; requests.len()];
        for &i in &order {
            let (ir, cluster, config) = requests[i];
            results[i] = Some(self.plan_keyed(keys[i], ir, cluster, config));
        }
        results
            .into_iter()
            .map(|r| r.expect("every index visited exactly once"))
            .collect()
    }

    /// Re-plan after `delta`, reusing cached artifacts where possible.
    ///
    /// `cluster` is the **pre-delta** cluster (the one prior plans were
    /// keyed on); the updated cluster is returned alongside the new plan.
    /// A cached post-delta key is a pure hit. Otherwise, if the pre-delta
    /// state is cached, only the passes the delta invalidates re-run (a
    /// degradation re-runs Balance, Schedule and CommOpt) and the request
    /// counts as a partial hit; if not, this degenerates to a cold compile
    /// on the post-delta cluster, counted as a miss. The result is stored
    /// under the post-delta key, so a later [`PlanService::plan`] against
    /// the updated cluster is a pure hit. A replan whose passes fail counts
    /// one miss and stores nothing; a delta that does not apply to
    /// `cluster` is refused before any counter moves.
    ///
    /// Concurrent replans (and plans) for the same **post-delta** key are
    /// single-flight: one leader runs the invalidated pass suffix, the rest
    /// coalesce onto its result.
    pub fn replan(
        &self,
        ir: &WhaleIr,
        cluster: &Cluster,
        config: &PlannerConfig,
        delta: ClusterDelta,
    ) -> Result<(Arc<ExecutionPlan>, Cluster)> {
        let old_key = PlanKey::new(ir, cluster, config);
        let mut after = cluster.clone();
        after.apply_delta(delta)?;
        let new_key = old_key.on_cluster(&after);

        match self.admit(new_key) {
            Admission::Hit(state) => Ok((state.plan_arc(), after)),
            Admission::Coalesce(flight) => Ok((flight.wait()?.plan_arc(), after)),
            Admission::Lead(flight) => {
                let guard = LeaderGuard::new(self, new_key, flight.clone());
                // The pre-delta seed may live on a different shard; a
                // thread only ever holds one shard lock at a time.
                let seed = {
                    let shard = lock_ignoring_poison(self.shard_for(&old_key));
                    shard.entries.get(&old_key).cloned()
                };
                let outcome = replan_from_seed(seed, ir, &after, config, &delta);
                guard.disarm();
                let state = self.settle_replan(new_key, &flight, outcome)?;
                Ok((state.plan_arc(), after))
            }
        }
    }

    /// The admission check: one shard lock, three-way outcome.
    fn admit(&self, key: PlanKey) -> Admission {
        let mut shard = lock_ignoring_poison(self.shard_for(&key));
        if let Some(state) = shard.entries.get(&key).cloned() {
            shard.stats.hits += 1;
            return Admission::Hit(state);
        }
        if let Some(flight) = shard.inflight.get(&key).cloned() {
            shard.stats.coalesced += 1;
            return Admission::Coalesce(flight);
        }
        let flight = Arc::new(Flight::new());
        shard.inflight.insert(key, flight.clone());
        Admission::Lead(flight)
    }

    /// Leader epilogue for a plain miss: admit the entry (or account the
    /// failure), retire the flight, publish the result.
    fn settle_miss(
        &self,
        key: PlanKey,
        flight: &Arc<Flight>,
        compiled: std::result::Result<Arc<CompileState>, PlanError>,
    ) -> Result<Arc<CompileState>> {
        {
            let mut shard = lock_ignoring_poison(self.shard_for(&key));
            shard.inflight.remove(&key);
            shard.stats.misses += 1;
            if let Ok(state) = &compiled {
                shard.stats.passes_run += state.passes_run.len() as u64;
                shard.insert(key, state.clone());
            }
        }
        flight.resolve(compiled.clone());
        compiled
    }

    /// Leader epilogue for a replan: admit under the post-delta key with
    /// partial-hit accounting, retire the flight, publish the result.
    fn settle_replan(
        &self,
        key: PlanKey,
        flight: &Arc<Flight>,
        outcome: Result<(Arc<CompileState>, usize, bool)>,
    ) -> Result<Arc<CompileState>> {
        let compiled = {
            let mut shard = lock_ignoring_poison(self.shard_for(&key));
            shard.inflight.remove(&key);
            match outcome {
                Ok((state, ran, partial)) => {
                    shard.stats.passes_run += ran as u64;
                    if partial {
                        shard.stats.partial_hits += 1;
                    } else {
                        shard.stats.misses += 1;
                    }
                    shard.insert(key, state.clone());
                    Ok(state)
                }
                Err(e) => {
                    shard.stats.misses += 1;
                    Err(e)
                }
            }
        };
        flight.resolve(compiled.clone());
        compiled
    }
}

/// Run the delta-replan pipeline outside any shard lock: clone the cached
/// pre-delta artifacts (or start cold), re-run the invalidated suffix on
/// the **post-delta** cluster, and report `(state, passes_ran, partial)`.
fn replan_from_seed(
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

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanService")
            .field("shards", &self.num_shards())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::{GpuModel, LinkKind};
    use whale_ir::Annotator;

    /// One `(pre-delta cluster, delta)` per delta kind. The restore starts
    /// from a degraded GPU, so every delta changes the cluster.
    fn every_delta_kind() -> Vec<(Cluster, ClusterDelta)> {
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
    fn hits_are_zero_copy_and_counted_per_service() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let a = service.plan(&ir, &cluster, &cfg).unwrap();
        assert_eq!(service.stats().passes_run, PassId::ALL.len() as u64);
        let b = service.plan(&ir, &cluster, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = service.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert_eq!(
            s.passes_run,
            PassId::ALL.len() as u64,
            "a hit must not run any pass"
        );
        assert_eq!(s.requests(), 2);
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn different_inputs_are_different_entries() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        service.plan(&resnet_ir(64), &cluster, &cfg).unwrap();
        service.plan(&resnet_ir(32), &cluster, &cfg).unwrap();
        let other = Cluster::parse("2xV100").unwrap();
        service.plan(&resnet_ir(64), &other, &cfg).unwrap();
        let hw_off = PlannerConfig {
            hardware_aware: false,
            ..PlannerConfig::default()
        };
        service.plan(&resnet_ir(64), &cluster, &hw_off).unwrap();
        assert_eq!(service.len(), 4);
        assert_eq!(service.stats().misses, 4);
        assert_eq!(service.stats().hits, 0);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::new(1, 2);
        service.plan(&resnet_ir(16), &cluster, &cfg).unwrap();
        service.plan(&resnet_ir(32), &cluster, &cfg).unwrap();
        service.plan(&resnet_ir(64), &cluster, &cfg).unwrap();
        assert_eq!(service.len(), 2);
        assert_eq!(service.stats().evictions, 1);
        // The oldest entry (batch 16) was evicted: a miss again, which in
        // turn evicts batch 32 and leaves batch 64 a hit.
        service.plan(&resnet_ir(16), &cluster, &cfg).unwrap();
        assert_eq!(service.stats().misses, 4);
        service.plan(&resnet_ir(64), &cluster, &cfg).unwrap();
        let s = service.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
        assert_eq!(service.len(), 2);
    }

    #[test]
    fn distinct_keys_spread_over_shards() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::new(4, 64);
        for batch in [16, 32, 64, 128, 256] {
            service.plan(&resnet_ir(batch), &cluster, &cfg).unwrap();
        }
        assert_eq!(service.len(), 5);
        assert_eq!(service.stats().misses, 5);
        let occupied = (0..service.num_shards())
            .filter(|&i| !lock_ignoring_poison(&service.shards[i]).entries.is_empty())
            .count();
        assert!(occupied > 1, "5 keys should not all land on one shard");
    }

    #[test]
    fn concurrent_same_key_misses_compile_once() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let barrier = std::sync::Barrier::new(8);
        let plans: Vec<Arc<ExecutionPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.plan(&ir, &cluster, &cfg).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &plans[1..] {
            assert_eq!(plans[0], *p);
        }
        let s = service.stats();
        assert_eq!(s.misses, 1, "single-flight: exactly one compile");
        assert_eq!(
            s.passes_run,
            PassId::ALL.len() as u64,
            "only the leader ran the pipeline's passes"
        );
        assert_eq!(s.requests(), 8);
        assert_eq!(s.hits + s.coalesced, 7);
    }

    #[test]
    fn failed_compiles_propagate_to_all_waiters() {
        // Two explicit stages on 4 GPUs give each stage a 2-GPU virtual
        // device, which the planner rejects; every concurrent caller must
        // see the error, and nothing may be cached.
        let g = whale_graph::models::bert_base(8, 64).unwrap();
        let n = g.len();
        let ir = Annotator::new(g, 8)
            .pipeline(4)
            .unwrap()
            .annotate_range(0, n / 2, vec![whale_ir::Primitive::Stage])
            .unwrap()
            .annotate_range(n / 2, n, vec![whale_ir::Primitive::Stage])
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let barrier = std::sync::Barrier::new(4);
        let errors: Vec<PlanError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.plan(&ir, &cluster, &cfg).unwrap_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(errors.len(), 4);
        for e in &errors[1..] {
            assert_eq!(&errors[0], e, "waiters clone the leader's error");
        }
        assert!(service.is_empty(), "failed compiles cache nothing");
        let s = service.stats();
        assert!(s.misses >= 1);
        assert_eq!(s.requests(), 4);
    }

    #[test]
    fn compile_batch_compiles_once_per_distinct_key_in_input_order() {
        let a = resnet_ir(64);
        let b = resnet_ir(128);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        // Duplicates deliberately interleaved and out of key order.
        let requests: Vec<(&WhaleIr, &Cluster, &PlannerConfig)> = vec![
            (&b, &cluster, &cfg),
            (&a, &cluster, &cfg),
            (&b, &cluster, &cfg),
            (&a, &cluster, &cfg),
            (&a, &cluster, &cfg),
        ];
        let plans = service.compile_batch(&requests);
        assert_eq!(plans.len(), 5);
        let plans: Vec<Arc<ExecutionPlan>> = plans.into_iter().map(|p| p.unwrap()).collect();
        // Input order preserved: slots 0/2 are the batch-128 plan, 1/3/4 the
        // batch-64 plan, and duplicates share one allocation.
        assert!(Arc::ptr_eq(&plans[0], &plans[2]));
        assert!(Arc::ptr_eq(&plans[1], &plans[3]));
        assert!(Arc::ptr_eq(&plans[1], &plans[4]));
        assert!(!Arc::ptr_eq(&plans[0], &plans[1]));
        assert_eq!(plans[0].stages[0].devices[0].samples_per_step * 2, 64);
        let s = service.stats();
        assert_eq!(s.misses, 2, "one compile per distinct key");
        assert_eq!(s.hits, 3, "every duplicate is a zero-copy hit");
        assert_eq!(s.requests(), 5);
    }

    #[test]
    fn compile_batch_failures_are_per_request() {
        let good = resnet_ir(64);
        // Two explicit stages on 4 GPUs → 2-GPU virtual devices, rejected.
        let g = whale_graph::models::bert_base(8, 64).unwrap();
        let n = g.len();
        let bad = Annotator::new(g, 8)
            .pipeline(4)
            .unwrap()
            .annotate_range(0, n / 2, vec![whale_ir::Primitive::Stage])
            .unwrap()
            .annotate_range(n / 2, n, vec![whale_ir::Primitive::Stage])
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let requests: Vec<(&WhaleIr, &Cluster, &PlannerConfig)> = vec![
            (&good, &cluster, &cfg),
            (&bad, &cluster, &cfg),
            (&good, &cluster, &cfg),
        ];
        let results = service.compile_batch(&requests);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(service.len(), 1, "failed compiles cache nothing");
    }

    #[test]
    fn panicking_leader_publishes_error_to_waiters_and_clears_ticket() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let key = PlanKey::new(&ir, &cluster, &cfg);

        // Take leadership by hand so the panic lands in exactly the window
        // a real `compile` panic would: ticket registered, no shard lock
        // held, result not yet published.
        let flight = match service.admit(key) {
            Admission::Lead(f) => f,
            _ => unreachable!("fresh service must elect a leader"),
        };
        let waiter_err = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| service.plan(&ir, &cluster, &cfg));
            // `coalesced` ticks under the shard lock at admission, so once
            // it reads 1 the waiter is bound to this flight.
            while service.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let _guard = LeaderGuard::new(&service, key, flight.clone());
                panic!("compile exploded");
            }));
            assert!(unwound.is_err());
            waiter.join().unwrap().unwrap_err()
        });
        assert!(
            matches!(waiter_err, PlanError::Internal(_)),
            "waiter got {waiter_err}"
        );
        assert!(waiter_err.to_string().contains("panicked"), "{waiter_err}");

        // The ticket is gone: the next request elects a fresh leader and
        // compiles normally instead of coalescing onto a dead flight.
        let plan = service.plan(&ir, &cluster, &cfg).unwrap();
        assert!(!plan.stages.is_empty());
        let s = service.stats();
        assert_eq!(s.coalesced, 1);
        assert_eq!(
            s.misses, 2,
            "abandoned leadership is accounted as a failed miss"
        );
        assert_eq!(s.requests(), 3);
        assert_eq!(service.len(), 1, "only the successful compile is cached");
    }

    #[test]
    fn replan_seeds_the_post_delta_key_across_shards() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        // Two shards force old/new keys to often differ in shard.
        let service = PlanService::new(2, 64);
        service.plan(&ir, &cluster, &cfg).unwrap();
        let delta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };
        let (replanned, after) = service.replan(&ir, &cluster, &cfg, delta).unwrap();
        let s = service.stats();
        assert_eq!(s.partial_hits, 1);
        assert_eq!(
            s.passes_run,
            6 + 3,
            "suffix replan ran Balance+Schedule+CommOpt"
        );
        // The degraded GPU 0 now gets the smallest share.
        let dev = &replanned.stages[0].devices;
        assert!(dev[1..]
            .iter()
            .all(|d| dev[0].samples_per_step < d.samples_per_step));
        let again = service.plan(&ir, &after, &cfg).unwrap();
        assert!(Arc::ptr_eq(&replanned, &again), "post-delta key is hot");
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn every_delta_kind_leaves_a_pure_hit_across_shards() {
        let ir = resnet_ir(64);
        let cfg = PlannerConfig::default();
        for (cluster, delta) in every_delta_kind() {
            let service = PlanService::new(2, 64);
            service.plan(&ir, &cluster, &cfg).unwrap();
            let (replanned, after) = service.replan(&ir, &cluster, &cfg, delta).unwrap();
            assert_ne!(after, cluster, "{delta:?}");
            let before = service.stats();
            let again = service.plan(&ir, &after, &cfg).unwrap();
            assert!(Arc::ptr_eq(&replanned, &again), "{delta:?}");
            assert_eq!(
                service.stats(),
                CacheStats {
                    hits: before.hits + 1,
                    ..before
                },
                "{delta:?}: planning the post-delta cluster is a pure hit"
            );
        }
    }

    #[test]
    fn replan_without_cached_state_is_a_cold_compile() {
        let ir = resnet_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let service = PlanService::default();
        let delta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };
        let (plan, after) = service.replan(&ir, &cluster, &cfg, delta).unwrap();
        let s = service.stats();
        assert_eq!((s.misses, s.partial_hits), (1, 0));
        assert_eq!(s.passes_run, PassId::ALL.len() as u64);
        assert_eq!(*plan, crate::planner::plan(&ir, &after, &cfg).unwrap());
    }
}
