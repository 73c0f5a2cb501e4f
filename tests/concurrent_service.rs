//! Stress test for the concurrent plan service: 16 threads hammer one
//! `Session` clone-family with mixed hit/miss/replan traffic and the
//! counters must balance to the request.
//!
//! The invariants under test:
//!
//! * **accounting** — every lookup lands in exactly one of
//!   `hits`/`misses`/`partial_hits`/`coalesced`, so `CacheStats::requests`
//!   equals the number of `plan`/`replan` calls issued across the family;
//! * **single-flight** — each unique `PlanKey` is compiled exactly once no
//!   matter how many threads race for it (`misses` = unique cold keys,
//!   `partial_hits` = unique post-delta keys, and `passes_run` proves no
//!   redundant pass ever ran);
//! * **zero-copy sharing** — every thread's plan for a key is the *same
//!   allocation* (`Arc::ptr_eq`), not an equal copy;
//! * **bit-identity** — every served plan equals a serial cold compile of
//!   the same inputs, so concurrency changes nothing about plan content.

use std::sync::{Arc, Barrier};

use whale::{models, strategies, ClusterDelta, ExecutionPlan, Session};

const THREADS: usize = 16;
/// Hot repeats per thread per key in the plan phase.
const REPEATS: usize = 8;
const DELTA: ClusterDelta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };

fn zoo() -> Vec<whale::WhaleIr> {
    [16, 32, 64]
        .into_iter()
        .map(|b| strategies::data_parallel(models::resnet50(b).unwrap(), b).unwrap())
        .collect()
}

#[test]
fn sixteen_threads_one_clone_family_counters_balance() {
    let irs = zoo();
    let n_keys = irs.len();
    let session = Session::on_cluster("4xV100+4xP100").unwrap();

    // Serial cold references, compiled outside the session so they share
    // nothing with the service under test.
    let cold: Vec<ExecutionPlan> = irs
        .iter()
        .map(|ir| whale::planner::plan(ir, session.cluster(), session.planner_config()).unwrap())
        .collect();
    let mut degraded = session.cluster().clone();
    degraded.apply_delta(DELTA).unwrap();
    let cold_degraded: Vec<ExecutionPlan> = irs
        .iter()
        .map(|ir| whale::planner::plan(ir, &degraded, session.planner_config()).unwrap())
        .collect();

    // Phase A+B per thread: hammer the shared service with repeated plans
    // (hit/miss/coalesce traffic), then replan every model through the same
    // delta (partial-hit traffic). Each worker owns a session *clone*; all
    // clones share one PlanService.
    let barrier = Barrier::new(THREADS);
    let plans: Vec<Vec<(Arc<ExecutionPlan>, Arc<ExecutionPlan>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let family = &session;
                let irs = &irs;
                let cold = &cold;
                let barrier = &barrier;
                scope.spawn(move || {
                    let worker = family.clone();
                    barrier.wait();
                    for round in 0..REPEATS {
                        for k in 0..irs.len() {
                            // Stagger so threads race for different keys.
                            let i = (k + t + round) % irs.len();
                            let p = worker.plan(&irs[i]).unwrap();
                            assert_eq!(*p, cold[i], "thread {t}: plan != serial cold compile");
                        }
                    }
                    let mut served = Vec::with_capacity(irs.len());
                    for ir in irs.iter() {
                        let planned = worker.plan(ir).unwrap();
                        // Each replan starts from its own pre-delta clone
                        // (replanning mutates the clone's cluster, and the
                        // whole point is that all clones share one service).
                        let mut replanner = family.clone();
                        let replanned = replanner.replan(ir, DELTA).unwrap();
                        assert_eq!(replanner.cluster().gpu(0).unwrap().throughput_scale, 0.5);
                        served.push((planned, replanned));
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Accounting: every call issued by every thread is in exactly one
    // counter. Per thread: REPEATS*n_keys + n_keys plans + n_keys replans.
    let stats = session.cache_stats().unwrap();
    let issued = (THREADS * (REPEATS * n_keys + 2 * n_keys)) as u64;
    assert_eq!(
        stats.hits + stats.misses + stats.partial_hits + stats.coalesced,
        issued,
        "hits + misses + partials + coalesced must sum to requests: {stats}"
    );
    assert_eq!(stats.requests(), issued);

    // Single-flight: each unique pre-delta key compiled exactly once
    // (6 passes), each unique post-delta key replanned exactly once
    // (Balance + Schedule + CommOpt suffix = 3 passes). A worker replanning
    // after the leader hits the cached post-delta entry instead.
    assert_eq!(stats.misses, n_keys as u64, "one compile per unique key");
    assert_eq!(
        stats.partial_hits, n_keys as u64,
        "one suffix replan per unique post-delta key"
    );
    assert_eq!(
        stats.passes_run,
        (6 * n_keys + 3 * n_keys) as u64,
        "no redundant compile pass may ever run"
    );

    for thread_plans in &plans {
        for (i, (planned, replanned)) in thread_plans.iter().enumerate() {
            // Zero-copy: all threads share the leader's allocation.
            let (first_plan, first_replan) = &plans[0][i];
            assert!(
                Arc::ptr_eq(planned, first_plan),
                "plan {i}: served copies instead of sharing"
            );
            assert!(
                Arc::ptr_eq(replanned, first_replan),
                "replan {i}: served copies instead of sharing"
            );
            // Bit-identity with serial compiles of the same inputs.
            assert_eq!(**planned, cold[i]);
            assert_eq!(**replanned, cold_degraded[i]);
        }
    }
}

#[test]
fn eviction_churn_keeps_every_request_accounted() {
    // A deliberately tiny service — one shard, capacity 2 — serving 6
    // unique keys from 8 threads: every round evicts entries that other
    // threads are about to ask for, so the cache churns continuously.
    // The accounting invariant must survive the churn: every single call
    // still lands in exactly one of hits/misses/partials/coalesced, and
    // the eviction counter explains where the missing entries went.
    const CHURN_THREADS: usize = 8;
    const ROUNDS: usize = 6;
    let irs: Vec<whale::WhaleIr> = [8, 16, 24, 32, 48, 64]
        .into_iter()
        .map(|b| strategies::data_parallel(models::resnet50(b).unwrap(), b).unwrap())
        .collect();
    let cluster = whale::Cluster::parse("4xV100").unwrap();
    let config = whale::PlannerConfig::default();
    let service = whale_planner::PlanService::new(1, 2);

    let cold: Vec<ExecutionPlan> = irs
        .iter()
        .map(|ir| whale::planner::plan(ir, &cluster, &config).unwrap())
        .collect();

    let barrier = Barrier::new(CHURN_THREADS);
    std::thread::scope(|scope| {
        for t in 0..CHURN_THREADS {
            let (service, irs, cold, cluster, config, barrier) =
                (&service, &irs, &cold, &cluster, &config, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for k in 0..irs.len() {
                        let i = (k + t + round) % irs.len();
                        let p = service.plan(&irs[i], cluster, config).unwrap();
                        assert_eq!(*p, cold[i], "evicted-and-recompiled plan changed");
                    }
                }
            });
        }
    });

    let stats = service.stats();
    let issued = (CHURN_THREADS * ROUNDS * irs.len()) as u64;
    assert_eq!(
        stats.requests(),
        issued,
        "every request must be accounted under eviction churn: {stats}"
    );
    assert_eq!(
        stats.hits + stats.misses + stats.partial_hits + stats.coalesced,
        issued
    );
    // Capacity 2 with 6 live keys: the cache must actually have churned...
    assert!(
        stats.evictions > 0,
        "6 keys through a 2-entry cache must evict: {stats}"
    );
    assert!(
        stats.misses > irs.len() as u64,
        "evicted keys must recompile on their next request: {stats}"
    );
    // ...and the books must balance: everything ever inserted either got
    // evicted or is still resident.
    assert_eq!(
        stats.misses + stats.partial_hits,
        stats.evictions + service.len() as u64,
        "inserts = evictions + resident entries: {stats}"
    );
    assert!(service.len() <= 2, "capacity must be enforced");
}
