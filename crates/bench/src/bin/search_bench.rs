//! Gate benchmark for the branch-and-bound auto-parallel search
//! (`auto_parallel_search`) against the narrow enumeration it widens
//! (`auto_parallel`).
//!
//! Runs the model zoo across heterogeneous clusters and checks, per the
//! search's acceptance targets:
//!
//! 1. the best-found simulated throughput never regresses on any cell and
//!    is strictly better on at least two;
//! 2. total wall clock stays within 3x the narrow enumeration despite
//!    covering >= 20x as many strategies;
//! 3. at least half of the expanded leaves are bounded away without a full
//!    plan + simulate.
//!
//! Writes `BENCH_search.json` (committed) in full mode; `--quick` runs a
//! 3-model single-cluster smoke with looser noise margins and writes
//! `BENCH_search_quick.json` (gitignored) for CI.

use std::hint::black_box;

use whale::{auto_parallel, auto_parallel_search, models, Cluster, SearchOptions, Session};
use whale_bench::{header, row, time_fn, Timing};
use whale_sim::json::{num, obj, s, JsonValue};

const CLUSTERS: [&str; 2] = ["2x(8xV100)+2x(8xP100)", "1x(8xV100)+1x(8xP100)"];
const QUICK_CLUSTER: &str = "1x(8xV100)+1x(8xP100)";

fn timing_json(t: &Timing) -> JsonValue {
    obj(vec![
        ("median_s", num(t.median_s)),
        ("p95_s", num(t.p95_s)),
        ("min_s", num(t.min_s)),
        ("iters", num(t.iters as f64)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, iters) = if quick { (1, 3) } else { (2, 7) };
    header(
        "search_bench",
        "branch-and-bound strategy search vs narrow enumeration",
    );

    type ModelCase = (&'static str, usize, fn() -> whale::Graph);
    let mut zoo: Vec<ModelCase> = vec![
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
    let clusters: Vec<&str> = if quick {
        zoo = vec![zoo[0], zoo[3], zoo[4]];
        vec![QUICK_CLUSTER]
    } else {
        CLUSTERS.to_vec()
    };

    let opts = SearchOptions::default();
    let mut cells = Vec::new();
    let mut narrow_total = 0.0_f64;
    let mut search_total = 0.0_f64;
    let mut narrow_strategies = 0usize;
    let mut search_strategies = 0usize;
    let mut strict_wins = 0usize;
    let mut min_bounded_fraction = 1.0_f64;
    let mut regressed = false;

    for cluster in &clusters {
        // A session's plan cache would serve iterations 2+ without
        // planning, so every call gets a fresh session and both arms
        // measure cold search.
        let parsed = Cluster::parse(cluster).expect("cluster");
        let session = || Session::new(parsed.clone());
        for (name, batch, build) in &zoo {
            let narrow = auto_parallel(&session(), *batch, || Ok(build())).expect("narrow");
            let wide =
                auto_parallel_search(&session(), *batch, &opts, || Ok(build())).expect("search");
            let stats = wide.search.expect("search stats");
            let n_tp = narrow.stats.throughput;
            let w_tp = wide.stats.throughput;
            if w_tp < n_tp * (1.0 - 1e-9) {
                regressed = true;
            }
            if w_tp > n_tp * 1.01 {
                strict_wins += 1;
            }
            narrow_strategies += narrow.candidates.len();
            search_strategies += stats.nodes_expanded;
            min_bounded_fraction = min_bounded_fraction.min(stats.bounded_fraction());

            let t_narrow = time_fn(&format!("narrow/{name}"), warmup, iters, || {
                black_box(auto_parallel(&session(), *batch, || Ok(build())).unwrap())
            });
            let t_search = time_fn(&format!("search/{name}"), warmup, iters, || {
                black_box(auto_parallel_search(&session(), *batch, &opts, || Ok(build())).unwrap())
            });
            narrow_total += t_narrow.median_s;
            search_total += t_search.median_s;
            row(
                &format!("{name} @ {cluster}"),
                format!(
                    "tp {:.1} -> {:.1} samples/s, {} leaves ({} bounded), {:.2}x time",
                    n_tp,
                    w_tp,
                    stats.nodes_expanded,
                    stats.nodes_bounded,
                    t_search.median_s / t_narrow.median_s
                ),
            );
            cells.push(obj(vec![
                ("model", s(*name)),
                ("cluster", s(*cluster)),
                ("batch", num(*batch as f64)),
                (
                    "narrow",
                    obj(vec![
                        ("chosen", s(&narrow.chosen)),
                        ("throughput", num(n_tp)),
                        ("strategies", num(narrow.candidates.len() as f64)),
                        ("time", timing_json(&t_narrow)),
                    ]),
                ),
                (
                    "search",
                    obj(vec![
                        ("chosen", s(&wide.chosen)),
                        ("throughput", num(w_tp)),
                        ("leaves", num(stats.nodes_expanded as f64)),
                        ("bounded", num(stats.nodes_bounded as f64)),
                        ("planned", num(stats.nodes_planned as f64)),
                        ("pruned_planned", num(stats.nodes_pruned_planned as f64)),
                        ("simulated", num(stats.nodes_simulated as f64)),
                        ("bounded_fraction", num(stats.bounded_fraction())),
                        ("time", timing_json(&t_search)),
                    ]),
                ),
                ("throughput_ratio", num(w_tp / n_tp)),
                ("time_ratio", num(t_search.median_s / t_narrow.median_s)),
            ]));
        }
    }

    let wallclock_ratio = search_total / narrow_total;
    let strategies_ratio = search_strategies as f64 / narrow_strategies.max(1) as f64;
    row("wall-clock ratio", format!("{wallclock_ratio:.2}x"));
    row("strategies ratio", format!("{strategies_ratio:.1}x"));
    row("strict wins", format!("{strict_wins}"));
    row("min bounded fraction", format!("{min_bounded_fraction:.2}"));

    // Quick mode is a CI smoke on a 1-core container: same structure, but
    // looser wall-clock margin (noise) and a subset of the matrix.
    let (t_wallclock, t_strategies, t_strict) = if quick {
        (4.0, 15.0, 1.0)
    } else {
        (3.0, 20.0, 2.0)
    };
    let met_no_regression = !regressed;
    let met_strict = strict_wins as f64 >= t_strict;
    let met_wallclock = wallclock_ratio <= t_wallclock;
    let met_strategies = strategies_ratio >= t_strategies;
    let met_bounded = min_bounded_fraction >= 0.5;

    let doc = obj(vec![
        ("bench", s("search_bench")),
        ("mode", s(if quick { "quick" } else { "full" })),
        (
            "clusters",
            JsonValue::Array(clusters.iter().map(|c| s(*c)).collect()),
        ),
        ("cells", JsonValue::Array(cells)),
        (
            "aggregate",
            obj(vec![
                ("narrow_total_s", num(narrow_total)),
                ("search_total_s", num(search_total)),
                ("wallclock_ratio", num(wallclock_ratio)),
                ("strategies_ratio", num(strategies_ratio)),
                ("strict_wins", num(strict_wins as f64)),
                ("min_bounded_fraction", num(min_bounded_fraction)),
            ]),
        ),
        (
            "targets",
            obj(vec![
                ("no_throughput_regression", JsonValue::Bool(true)),
                ("strict_wins", num(t_strict)),
                ("wallclock_ratio_max", num(t_wallclock)),
                ("strategies_ratio_min", num(t_strategies)),
                ("bounded_fraction_min", num(0.5)),
            ]),
        ),
        (
            "targets_met",
            obj(vec![
                (
                    "no_throughput_regression",
                    JsonValue::Bool(met_no_regression),
                ),
                ("strict_wins", JsonValue::Bool(met_strict)),
                ("wallclock_ratio", JsonValue::Bool(met_wallclock)),
                ("strategies_ratio", JsonValue::Bool(met_strategies)),
                ("bounded_fraction", JsonValue::Bool(met_bounded)),
            ]),
        ),
    ]);
    let path = if quick {
        "BENCH_search_quick.json"
    } else {
        "BENCH_search.json"
    };
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write artifact");
    row("artifact", path);

    assert!(met_no_regression, "search regressed throughput on a cell");
    assert!(met_strict, "fewer than {t_strict} strictly-better cells");
    assert!(
        met_wallclock,
        "wall-clock ratio {wallclock_ratio:.2}x exceeds {t_wallclock}x"
    );
    assert!(
        met_strategies,
        "strategies ratio {strategies_ratio:.1}x below {t_strategies}x"
    );
    assert!(
        met_bounded,
        "bounded fraction {min_bounded_fraction:.2} below 0.5"
    );
}
