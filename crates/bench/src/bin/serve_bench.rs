//! Concurrent plan-service benchmark: global-mutex cache vs sharded
//! single-flight service.
//!
//! Scenario: a multi-tenant planning front end replays a zoo×cluster
//! request mix from 1/2/4/8/16 client threads, in three phases per arm:
//!
//! * **cold** — empty cache, every thread walks every key from a barrier
//!   start: maximal same-key contention. The sharded service must compile
//!   each unique `PlanKey` exactly once (single-flight; the `coalesced`
//!   counter accounts for the drafting requests).
//! * **hot** — every key cached; the phase that dominates steady-state
//!   serving. The baseline arm keeps the old serving path's serial
//!   section: one global `Mutex` around a one-shard `PlanService` and an
//!   `ExecutionPlan` clone per hit under the lock (the old `plan()`
//!   returned the plan by value). The service arm returns `Arc` handles —
//!   a hit is a refcount bump.
//! * **degrade/replan** — every thread replans every key through one
//!   `GpuDegraded` delta; concurrent replans single-flight on the
//!   post-delta key.
//!
//! Both arms serve requests through caller-computed keys (`plan_keyed`), so
//! fingerprinting — identical work on either path — is kept out of the
//! comparison. The acceptance target (≥3× QPS at 8 threads on the hot mix)
//! is deliberately about *work under the lock*, not parallelism: on a
//! single-core host the speedup comes entirely from not cloning plans in
//! the serial section. Since plans share their stage and grad-sync lists
//! behind `Arc`s (DESIGN.md §12), that clone copies only the plan's header,
//! so the measured speedup sits close to the target (DESIGN.md §10).
//! Writes `BENCH_serve.json`; `--quick` shrinks the workload, skips the
//! perf target, and writes `BENCH_serve_quick.json` instead (CI smoke: no
//! panic + consistent counters).

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use whale::{models, strategies, Cluster, ClusterDelta, PlannerConfig, WhaleIr};
use whale_bench::{header, row};
use whale_planner::{ExecutionPlan, PlanKey, PlanService};
use whale_sim::json::{num, obj, s, JsonValue};

const TARGET_SPEEDUP_AT_8: f64 = 3.0;
const DELTA: ClusterDelta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };

/// One replayable request: inputs, precomputed key, and the serial cold
/// compile every served plan must be bit-identical to.
struct Request {
    name: String,
    ir: WhaleIr,
    cluster: Cluster,
    key: PlanKey,
    reference: ExecutionPlan,
}

fn build_workload(quick: bool, config: &PlannerConfig) -> Vec<Request> {
    type Case = (&'static str, fn() -> WhaleIr);
    let mut zoo: Vec<Case> = vec![
        ("resnet50/dp", || {
            strategies::data_parallel(models::resnet50(256).expect("build"), 256).expect("annotate")
        }),
        ("bert_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::bert_large(128, 128).expect("build"), 128, 8)
                .expect("annotate")
        }),
    ];
    let mut clusters = vec!["2x(8xV100)+2x(8xP100)"];
    if !quick {
        zoo.push(("gpt2_xl/pipeline_dp", || {
            strategies::pipeline_with_dp(models::gpt2_xl(64, 128).expect("build"), 64, 8)
                .expect("annotate")
        }));
        zoo.push(("t5_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::t5_large(64, 128, 128).expect("build"), 64, 8)
                .expect("annotate")
        }));
        zoo.push(("m6_10b/pipeline_dp", || {
            strategies::pipeline_with_dp(models::m6_10b(32).expect("build"), 32, 8)
                .expect("annotate")
        }));
        clusters.push("2x(8xV100)");
    }

    let mut reqs = Vec::new();
    for spec in &clusters {
        let cluster = Cluster::parse(spec).expect("cluster");
        for (name, build) in &zoo {
            let ir = build();
            let key = PlanKey::new(&ir, &cluster, config);
            let reference = whale_planner::plan(&ir, &cluster, config).expect("cold plan");
            reqs.push(Request {
                name: format!("{name}@{spec}"),
                ir,
                cluster: cluster.clone(),
                key,
                reference,
            });
        }
    }
    reqs
}

/// Fan `threads` workers over `reqs` from a barrier start and return the
/// aggregate QPS. Each worker issues `laps × reqs.len()` requests; with
/// `stagger` the workers start at distinct offsets (a mixed hot stream),
/// without it they walk the same order (maximal same-key contention).
fn replay(
    threads: usize,
    laps: usize,
    stagger: bool,
    reqs: &[Request],
    serve: &(impl Fn(&Request) + Sync),
) -> f64 {
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let offset = if stagger { t * reqs.len() / threads } else { 0 };
                    barrier.wait();
                    for lap in 0..laps {
                        for i in 0..reqs.len() {
                            serve(&reqs[(offset + lap + i) % reqs.len()]);
                        }
                    }
                })
            })
            .collect();
        // The clock must start before the workers are released — they run
        // the moment the last party reaches the barrier, and on a loaded
        // host they can finish before this thread is rescheduled.
        let start = Instant::now();
        barrier.wait();
        for h in handles {
            h.join().expect("worker");
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    (threads * laps * reqs.len()) as f64 / elapsed
}

/// Median of three replays (one warm-up lap is implicit in phase order).
fn replay_median(
    threads: usize,
    laps: usize,
    reqs: &[Request],
    serve: &(impl Fn(&Request) + Sync),
) -> f64 {
    let mut qps: Vec<f64> = (0..3)
        .map(|_| replay(threads, laps, true, reqs, serve))
        .collect();
    qps.sort_by(|a, b| a.total_cmp(b));
    qps[1]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    header(
        "serve_bench",
        "concurrent plan serving: global-mutex deep-clone cache vs sharded single-flight service",
    );
    let config = PlannerConfig::default();
    let reqs = build_workload(quick, &config);
    let n_keys = reqs.len();
    row("unique keys", format!("{n_keys}"));
    let thread_counts: &[usize] = if quick { &[1, 2, 8] } else { &[1, 2, 4, 8, 16] };
    // Fixed request budget per replay, split across threads, so every
    // thread count measures comparable total work and the phase runs long
    // enough to swamp barrier/spawn overhead.
    let hot_total = if quick { 16_000 } else { 120_000 };

    // ---- Cold contention (service arm, 8 threads): single-flight check.
    let cold_service = PlanService::default();
    replay(8, 1, false, &reqs, &|r: &Request| {
        let plan = cold_service
            .plan_keyed(r.key, &r.ir, &r.cluster, &config)
            .expect("plan");
        assert_eq!(
            *plan, r.reference,
            "{}: served plan != serial cold compile",
            r.name
        );
    });
    let cold_stats = cold_service.stats();
    row("cold contention (8 threads)", format!("{cold_stats}"));
    assert_eq!(
        cold_stats.misses, n_keys as u64,
        "single-flight must compile each unique key exactly once"
    );
    assert_eq!(
        cold_stats.passes_run,
        6 * n_keys as u64, // full pipeline: DegreeInference … Schedule, CommOpt
        "only the elected leaders may run compile passes"
    );
    assert_eq!(
        cold_stats.requests(),
        8 * n_keys as u64,
        "every request accounted"
    );
    assert_eq!(cold_stats.hits + cold_stats.coalesced, 7 * n_keys as u64);

    // ---- Thread sweep: hot + replan phases on both arms.
    let mut sweep_rows = Vec::new();
    let mut speedup_at_8 = 0.0;
    for &threads in thread_counts {
        let hot_laps = (hot_total / (threads * n_keys)).max(1);
        // Baseline arm: the old serving path — one global mutex around a
        // one-shard cache, a plan clone per hit inside the critical
        // section. The inner shard lock is never contended.
        let baseline = Mutex::new(PlanService::new(1, PlanService::DEFAULT_CAPACITY));
        for r in &reqs {
            baseline
                .lock()
                .unwrap()
                .plan_keyed(r.key, &r.ir, &r.cluster, &config)
                .expect("warm");
        }
        let baseline_hot = replay_median(threads, hot_laps, &reqs, &|r: &Request| {
            let cache = baseline.lock().unwrap();
            let plan = cache
                .plan_keyed(r.key, &r.ir, &r.cluster, &config)
                .expect("plan");
            let owned: ExecutionPlan = (*plan).clone();
            drop(cache);
            black_box(owned);
        });
        let baseline_replan = replay(threads, 1, true, &reqs, &|r: &Request| {
            let cache = baseline.lock().unwrap();
            let (plan, _) = cache
                .replan(&r.ir, &r.cluster, &config, DELTA)
                .expect("replan");
            let owned: ExecutionPlan = (*plan).clone();
            drop(cache);
            black_box(owned);
        });

        // Service arm: sharded, single-flight, Arc hits.
        let service = PlanService::default();
        for r in &reqs {
            service
                .plan_keyed(r.key, &r.ir, &r.cluster, &config)
                .expect("warm");
        }
        let service_hot = replay_median(threads, hot_laps, &reqs, &|r: &Request| {
            let plan = service
                .plan_keyed(r.key, &r.ir, &r.cluster, &config)
                .expect("plan");
            black_box(plan);
        });
        let service_replan = replay(threads, 1, true, &reqs, &|r: &Request| {
            let (plan, _) = service
                .replan(&r.ir, &r.cluster, &config, DELTA)
                .expect("replan");
            black_box(plan);
        });
        // Warm-up (n_keys) + three hot replays + one replan lap, all threads.
        let stats = service.stats();
        let expected = n_keys + 3 * threads * hot_laps * n_keys + threads * n_keys;
        assert_eq!(
            stats.requests(),
            expected as u64,
            "service counters must account every request (threads={threads})"
        );

        let hot_speedup = service_hot / baseline_hot;
        if threads == 8 {
            speedup_at_8 = hot_speedup;
        }
        row(
            &format!("{threads} thread(s) hot"),
            format!(
                "baseline {:.0} qps · service {:.0} qps · {hot_speedup:.2}x",
                baseline_hot, service_hot
            ),
        );
        sweep_rows.push(obj(vec![
            ("threads", num(threads as f64)),
            (
                "baseline",
                obj(vec![
                    ("hot_qps", num(baseline_hot)),
                    ("replan_qps", num(baseline_replan)),
                ]),
            ),
            (
                "service",
                obj(vec![
                    ("hot_qps", num(service_hot)),
                    ("replan_qps", num(service_replan)),
                ]),
            ),
            ("hot_speedup", num(hot_speedup)),
        ]));
    }

    let met = quick || speedup_at_8 >= TARGET_SPEEDUP_AT_8;
    if !quick {
        row(
            "hot speedup at 8 threads",
            format!(
                "{speedup_at_8:.2}x{}",
                if met { "" } else { "  << below target" }
            ),
        );
    }

    let doc = obj(vec![
        ("bench", s("serve_bench")),
        ("quick", JsonValue::Bool(quick)),
        ("unique_keys", num(n_keys as f64)),
        (
            "cold_contention",
            obj(vec![
                ("threads", num(8.0)),
                ("requests", num(cold_stats.requests() as f64)),
                ("misses", num(cold_stats.misses as f64)),
                ("coalesced", num(cold_stats.coalesced as f64)),
                ("hits", num(cold_stats.hits as f64)),
                ("passes_run", num(cold_stats.passes_run as f64)),
                (
                    "one_compile_per_key",
                    JsonValue::Bool(cold_stats.misses == n_keys as u64),
                ),
            ]),
        ),
        ("sweep", JsonValue::Array(sweep_rows)),
        ("hot_speedup_at_8_threads", num(speedup_at_8)),
        ("target_speedup", num(TARGET_SPEEDUP_AT_8)),
        ("targets_met", JsonValue::Bool(met)),
    ]);
    // Quick runs (CI smoke) must not clobber the committed full-run artifact.
    let path = if quick {
        "BENCH_serve_quick.json"
    } else {
        "BENCH_serve.json"
    };
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write bench artifact");
    row("artifact", path);

    assert!(
        met,
        "sharded service must serve the hot mix >= {TARGET_SPEEDUP_AT_8}x faster than the \
         global-mutex cache at 8 threads (measured {speedup_at_8:.2}x)"
    );
}
