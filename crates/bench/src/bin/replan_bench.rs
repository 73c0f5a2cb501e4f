//! Delta-replan vs cold-plan benchmark for the staged compile pipeline.
//!
//! Scenario: the auto-parallel evaluation cluster (2×(8×V100) + 2×(8×P100),
//! §7) loses part of one GPU's throughput mid-training (a
//! `ClusterDelta::GpuDegraded`). Reacting from scratch runs all six compile
//! passes on the new topology; the delta path (`PlanService::replan`)
//! clones the cached artifacts and re-runs only Balance, Schedule and
//! CommOpt. Both arms are timed at the pipeline layer, on the *post-delta*
//! cluster, so they differ in exactly one thing: the passes executed.
//! Content-addressing (the `PlanKey` fingerprints) costs the same on either
//! path and is reported as a context row, not folded into the speedup.
//!
//! For pure-DP plans Balance *is* most of the planner, so there is little
//! to skip — that case is reported honestly. The acceptance target (≥ 2×)
//! is asserted on the median across the auto-parallel model set, where the
//! pipelined giant models dominate; the binary exits non-zero if it is
//! missed. Writes `BENCH_replan.json` so later PRs can track the numbers.

use std::hint::black_box;

use whale::{models, strategies, Cluster, ClusterDelta, PlanService, PlannerConfig, WhaleIr};
use whale_bench::{header, row, time_fn, Timing};
use whale_planner::{compile, invalidation_start, CompilePipeline, PassContext, PlanKey};
use whale_sim::json::{num, obj, s, JsonValue};

const CLUSTER: &str = "2x(8xV100)+2x(8xP100)";
const TARGET_SPEEDUP: f64 = 2.0;

fn timing_json(t: &Timing) -> JsonValue {
    obj(vec![
        ("median_s", num(t.median_s)),
        ("p95_s", num(t.p95_s)),
        ("min_s", num(t.min_s)),
        ("iters", num(t.iters as f64)),
    ])
}

fn main() {
    let (warmup, iters) = (5, 31);
    header(
        "replan_bench",
        "cold plan (5 passes) vs delta replan (Balance+Schedule) on GPU degradation",
    );

    let cluster = Cluster::parse(CLUSTER).expect("cluster");
    let config = PlannerConfig::default();
    let delta = ClusterDelta::GpuDegraded { id: 0, scale: 0.5 };
    let mut after = cluster.clone();
    after.apply_delta(delta).expect("delta");

    type Case = (&'static str, fn() -> WhaleIr);
    let zoo: Vec<Case> = vec![
        ("resnet50/dp", || {
            strategies::data_parallel(models::resnet50(256).expect("build"), 256).expect("annotate")
        }),
        ("bert_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::bert_large(128, 128).expect("build"), 128, 8)
                .expect("annotate")
        }),
        ("gpt2_xl/pipeline_dp", || {
            strategies::pipeline_with_dp(models::gpt2_xl(64, 128).expect("build"), 64, 8)
                .expect("annotate")
        }),
        ("t5_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::t5_large(64, 128, 128).expect("build"), 64, 8)
                .expect("annotate")
        }),
        ("m6_10b/pipeline_dp", || {
            strategies::pipeline_with_dp(models::m6_10b(32).expect("build"), 32, 8)
                .expect("annotate")
        }),
    ];

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, build) in &zoo {
        let ir = build();

        // Sanity: the cache-level replan conserves every stage's sample
        // total and the result still simulates on the degraded cluster.
        {
            let service = PlanService::default();
            let old = service.plan(&ir, &cluster, &config).expect("plan");
            let (new, degraded) = service
                .replan(&ir, &cluster, &config, delta)
                .expect("replan");
            let report =
                whale_sim::check_replan(&old, &new, &degraded, &whale::SimConfig::default());
            assert!(
                report.is_consistent(),
                "{name}: inconsistent replan: {:?}",
                report.issues
            );
        }

        // Cold: all five passes on the post-delta cluster.
        let cold = time_fn(&format!("{name}/cold"), warmup, iters, || {
            black_box(compile(&ir, &after, &config).expect("compile"))
        });

        // Delta: clone the artifacts cached for the pre-delta cluster
        // (exactly what `PlanService::replan` does on a partial hit), then
        // re-run only the passes the degradation invalidates.
        let cached = compile(&ir, &cluster, &config).expect("compile");
        let cx = PassContext {
            ir: &ir,
            cluster: &after,
            config: &config,
        };
        let start = invalidation_start(&delta);
        let pipeline = CompilePipeline::standard();
        let replan = time_fn(&format!("{name}/replan"), warmup, iters, || {
            let mut state = cached.clone();
            pipeline.run_from(&cx, &mut state, start).expect("replan");
            black_box(state)
        });
        cold.print();
        replan.print();

        let speedup = cold.median_s / replan.median_s;
        row(name, format!("{speedup:.2}x (median)"));
        speedups.push(speedup);
        rows.push(obj(vec![
            ("name", s(*name)),
            ("cold", timing_json(&cold)),
            ("replan", timing_json(&replan)),
            ("speedup_median", num(speedup)),
        ]));
    }

    // Context: the content-addressing cost both paths pay identically.
    let key_ir = zoo.last().expect("zoo").1();
    let key_timing = time_fn("plan_key/m6_10b", warmup, iters, || {
        black_box(PlanKey::new(&key_ir, &after, &config))
    });
    key_timing.print();

    let mut sorted = speedups.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let met = median >= TARGET_SPEEDUP;
    row(
        "median speedup (auto-parallel model set)",
        format!("{median:.2}x{}", if met { "" } else { "  << below target" }),
    );

    let doc = obj(vec![
        ("bench", s("replan_bench")),
        ("cluster", s(CLUSTER)),
        ("delta", s("GpuDegraded { id: 0, scale: 0.5 }")),
        ("models", JsonValue::Array(rows)),
        ("plan_key_fingerprint", timing_json(&key_timing)),
        ("median_speedup", num(median)),
        ("target_speedup", num(TARGET_SPEEDUP)),
        ("targets_met", JsonValue::Bool(met)),
    ]);
    let path = "BENCH_replan.json";
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_replan.json");
    row("artifact", path);

    assert!(
        met,
        "delta replan must be >= {TARGET_SPEEDUP}x faster than a cold plan (median {median:.2}x)"
    );
}
