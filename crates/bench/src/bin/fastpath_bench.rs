//! Before/after micro-benchmarks for the planner/simulator fast path.
//!
//! Two measurements, both on the in-repo harness (no Criterion):
//!
//! 1. `auto_parallel` on a 32-GPU heterogeneous cluster across the model
//!    zoo. "Before" disables every fast-path ingredient — serial candidate
//!    loop, no cost memoization, polling sim scheduler — reproducing the
//!    seed search; "after" is the default fast path.
//! 2. `simulate_step` on a deep pipeline (16 stages × 64 micro batches),
//!    heap scheduler vs the polling reference.
//!
//! Writes `BENCH_planner.json` (pretty, stable key order) so later PRs can
//! track the perf trajectory; see EXPERIMENTS.md for how to read it.

use std::hint::black_box;

use whale::{auto_parallel_opts, models, strategies, SearchOptions, Session};
use whale_bench::{header, row, time_fn, Timing};
use whale_sim::json::{num, obj, s, JsonValue};

const AUTO_CLUSTER: &str = "2x(8xV100)+2x(8xP100)";
const PIPE_CLUSTER: &str = "16xV100";
const PIPE_MICRO: usize = 64;

/// Seed-equivalent search: serial, uncached, polling scheduler.
fn before() -> SearchOptions {
    SearchOptions {
        search_threads: 1,
        memoize: false,
        reference_sim: true,
        ..SearchOptions::default()
    }
}

fn timing_json(t: &Timing) -> JsonValue {
    obj(vec![
        ("median_s", num(t.median_s)),
        ("p95_s", num(t.p95_s)),
        ("min_s", num(t.min_s)),
        ("iters", num(t.iters as f64)),
    ])
}

fn speedup_row(label: &str, before: &Timing, after: &Timing) -> (f64, JsonValue) {
    let speedup = before.median_s / after.median_s;
    row(label, format!("{speedup:.2}x (median)"));
    let json = obj(vec![
        ("name", s(label)),
        ("before", timing_json(before)),
        ("after", timing_json(after)),
        ("speedup_median", num(speedup)),
    ]);
    (speedup, json)
}

fn main() {
    let (warmup, iters) = (2, 9);
    header(
        "fastpath_bench",
        "planner/simulator fast path, before (seed-equivalent) vs after",
    );

    // --- auto_parallel across the model zoo on 32 heterogeneous GPUs ---
    // The paper's evaluation workloads (§7): ResNet50 for the hetero-DP
    // experiment, BERT/T5/GPT/M6-10B for giant-model search.
    type ModelCase = (&'static str, usize, fn() -> whale::Graph);
    let zoo: Vec<ModelCase> = vec![
        ("resnet50", 256, || models::resnet50(256).expect("build")),
        ("bert_base", 256, || {
            models::bert_base(256, 128).expect("build")
        }),
        ("bert_large", 128, || {
            models::bert_large(128, 128).expect("build")
        }),
        ("gpt2_xl", 64, || models::gpt2_xl(64, 128).expect("build")),
        ("t5_large", 64, || {
            models::t5_large(64, 128, 128).expect("build")
        }),
        ("m6_10b", 32, || models::m6_10b(32).expect("build")),
    ];
    // The content-addressed plan cache would serve iterations 2+ without
    // planning at all; disable it so both arms measure cold planning.
    let session = Session::on_cluster(AUTO_CLUSTER)
        .expect("cluster")
        .plan_cache(false);
    let mut auto_rows = Vec::new();
    let mut auto_speedups = Vec::new();
    for (name, batch, build) in zoo {
        // The merge is deterministic and the caches bit-identical, so both
        // arms must agree on the full report — cheap end-to-end sanity.
        let slow = auto_parallel_opts(&session, batch, &before(), || Ok(build()));
        let fast = auto_parallel_opts(&session, batch, &SearchOptions::default(), || Ok(build()));
        match (&slow, &fast) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: fast path changed the report"),
            (a, b) => panic!("{name}: search failed (before {a:?} / after {b:?})"),
        }
        let before = time_fn(&format!("auto/{name}/before"), warmup, iters, || {
            black_box(auto_parallel_opts(&session, batch, &before(), || Ok(build())).unwrap())
        });
        let after = time_fn(&format!("auto/{name}/after"), warmup, iters, || {
            black_box(
                auto_parallel_opts(&session, batch, &SearchOptions::default(), || Ok(build()))
                    .unwrap(),
            )
        });
        before.print();
        after.print();
        let (speedup, json) = speedup_row(&format!("auto/{name}"), &before, &after);
        auto_speedups.push(speedup);
        auto_rows.push(json);
    }
    auto_speedups.sort_by(|a, b| a.total_cmp(b));
    let auto_median = auto_speedups[auto_speedups.len() / 2];
    row("auto_parallel median speedup", format!("{auto_median:.2}x"));

    // --- deep-pipeline simulate_step: heap vs polling scheduler ---
    let pipe_session = Session::on_cluster(PIPE_CLUSTER)
        .expect("cluster")
        .plan_cache(false);
    let ir = strategies::pipeline_only(
        models::bert_large(256, 128).expect("build"),
        256,
        PIPE_MICRO,
    )
    .expect("annotate");
    let plan = pipe_session.plan(&ir).expect("plan");
    let stages = plan.stages.len();
    row(
        "deep pipeline",
        format!("{stages} stages x {PIPE_MICRO} micro"),
    );
    assert_eq!(
        pipe_session.step_plan(&plan).unwrap(),
        pipe_session.step_plan_reference(&plan).unwrap(),
        "heap scheduler diverged from the polling reference"
    );
    let sim_before = time_fn("sim/deep_pipeline/before", warmup, iters * 3, || {
        black_box(pipe_session.step_plan_reference(&plan).unwrap())
    });
    let sim_after = time_fn("sim/deep_pipeline/after", warmup, iters * 3, || {
        black_box(pipe_session.step_plan(&plan).unwrap())
    });
    sim_before.print();
    sim_after.print();
    let (sim_speedup, sim_json) = speedup_row("sim/deep_pipeline", &sim_before, &sim_after);

    // --- artifact ---
    let doc = obj(vec![
        ("bench", s("fastpath_bench")),
        ("auto_cluster", s(AUTO_CLUSTER)),
        ("auto_parallel", JsonValue::Array(auto_rows)),
        ("auto_parallel_median_speedup", num(auto_median)),
        (
            "deep_pipeline_sim",
            obj(vec![
                ("cluster", s(PIPE_CLUSTER)),
                ("stages", num(stages as f64)),
                ("micro_batches", num(PIPE_MICRO as f64)),
                ("detail", sim_json),
            ]),
        ),
        (
            "targets",
            obj(vec![
                ("auto_parallel_speedup", num(3.0)),
                ("deep_pipeline_sim_speedup", num(2.0)),
            ]),
        ),
        (
            "targets_met",
            obj(vec![
                ("auto_parallel", JsonValue::Bool(auto_median >= 3.0)),
                ("deep_pipeline_sim", JsonValue::Bool(sim_speedup >= 2.0)),
            ]),
        ),
    ]);
    let path = "BENCH_planner.json";
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_planner.json");
    row("artifact", path);
}
