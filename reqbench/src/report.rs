//! Metric names, units and values, and the result line.

use whale_planner::CacheStats;
use whale_sim::json::{num, obj, s, JsonValue};

use crate::runner::{Measured, Workload};
use crate::stats::nearest_rank;
use crate::trace::{self, Totals};

/// Printed with `--trace 0`, on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("plan_throughput", "samples/s"),
    ("goodput", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const MS: &str = "ms/req";
const COUNT: &str = "count/req";
const FRACTION: &str = "fraction";

/// Printed with `--trace 1`, on every workload; a layer the workload does
/// not exercise reads 0. A name ending in `_ms` is the self time of the
/// span named by the rest, per traced request.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("graph.build_ms", MS),
    ("graph.ops", COUNT),
    ("graph.intern_hits", COUNT),
    ("graph.intern_misses", COUNT),
    ("graph.inst_sum_computes", COUNT),
    ("ir.annotate_ms", MS),
    ("fp.key_ms", MS),
    ("fp.keys", COUNT),
    ("planner.degree-inference_ms", MS),
    ("planner.placement_ms", MS),
    ("planner.bridge-insertion_ms", MS),
    ("planner.balance_ms", MS),
    ("planner.schedule_ms", MS),
    ("planner.comm-opt_ms", MS),
    ("planner.passes_run", COUNT),
    ("service.plan_ms", MS),
    ("service.replan_ms", MS),
    ("service.batch_ms", MS),
    ("service.hits", COUNT),
    ("service.misses", COUNT),
    ("service.partial_hits", COUNT),
    ("service.coalesced", COUNT),
    ("service.evictions", COUNT),
    ("service.hit_ratio", FRACTION),
    ("sim.step_ms", MS),
    ("sim.tasks", COUNT),
    ("sim.bubble_ratio", FRACTION),
    ("sim.sync_exposed_s", "sim_s"),
    ("search.build_ms", MS),
    ("search.self_ms", MS),
    ("search.leaves", COUNT),
    ("search.bounded", COUNT),
    ("search.planned", COUNT),
    ("search.pruned_planned", COUNT),
    ("search.simulated", COUNT),
    ("search.degenerate", COUNT),
    ("search.plan_errors", COUNT),
    ("search.memory_rejected", COUNT),
    ("search.plan_attempts", COUNT),
    ("search.plan_yield", FRACTION),
    ("fleet.setup_ms", MS),
    ("fleet.run_ms", MS),
    ("faults.generate_ms", MS),
    ("resilient.train_ms", MS),
    ("recovery.events", COUNT),
    ("recovery.replans_cached", COUNT),
    ("recovery.replans_full", COUNT),
    ("recovery.ttr_p99_s", "sim_s"),
    ("fleet.submitted", COUNT),
    ("fleet.completed", COUNT),
    ("fleet.rejected", COUNT),
    ("fleet.failed", COUNT),
    ("fleet.kills", COUNT),
    ("fleet.shrinks", COUNT),
    ("fleet.expands", COUNT),
    ("fleet.preemptions", COUNT),
    ("trace.unattributed_share", FRACTION),
    ("trace.overhead", FRACTION),
    ("alloc.per_req", COUNT),
    ("trace.traced_requests", "count"),
];

/// Count a request's plan-service counters.
pub fn count_service(c: &CacheStats) {
    for (name, v) in service_counts(c) {
        trace::count(name, v);
    }
}

fn service_counts(c: &CacheStats) -> [(&'static str, f64); 6] {
    [
        ("service.hits", c.hits as f64),
        ("service.misses", c.misses as f64),
        ("service.partial_hits", c.partial_hits as f64),
        ("service.coalesced", c.coalesced as f64),
        ("service.evictions", c.evictions as f64),
        ("planner.passes_run", c.passes_run as f64),
    ]
}

/// A shared service's counters over a whole phase, per request.
pub fn service_metrics(c: &CacheStats, requests: u64) -> Vec<(&'static str, f64)> {
    let per = requests.max(1) as f64;
    let mut m: Vec<_> = service_counts(c).map(|(k, v)| (k, v / per)).into();
    m.push(("service.hit_ratio", c.hit_ratio()));
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run.
pub fn per_layer<W: Workload>(w: &W, m: &Measured) -> Vec<(&'static str, f64)> {
    let t: &Totals = &m.totals;
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0.0);
    let requests = [
        "service.hits",
        "service.misses",
        "service.partial_hits",
        "service.coalesced",
    ]
    .iter()
    .map(|k| c(k))
    .sum();
    let attempts = c("search.plan_attempts");
    let untraced_rps = ratio(m.untraced_requests as f64, m.untraced_busy_s);
    let traced_rps = ratio(m.traced_requests as f64, m.traced_busy_s);
    let derived = [
        ("service.hit_ratio", ratio(c("service.hits"), requests)),
        (
            "search.plan_yield",
            ratio(attempts - c("search.plan_errors"), attempts),
        ),
        ("trace.unattributed_share", t.unattributed_share()),
        ("trace.overhead", ratio(untraced_rps, traced_rps) - 1.0),
        ("trace.traced_requests", m.traced_requests as f64),
    ];
    let overrides = w.run_metrics(m);
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = overrides
                .iter()
                .chain(derived.iter())
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| match name.strip_suffix("_ms") {
                    Some(span) => t.ms_per_request(span),
                    None => t.per_request(name),
                });
            (name, value)
        })
        .collect()
}

/// Every end-to-end metric of an untraced run.
pub fn end_to_end<W: Workload>(w: &W, m: &Measured, setup_s: f64) -> Vec<(&'static str, f64)> {
    let kinds = m.kind_medians();
    let (plan_tp, goodput) = w.simulated();
    vec![
        ("throughput_rps", m.throughput_rps),
        ("latency_p50_ms", nearest_rank(&kinds, 0.5) * 1e3),
        ("latency_p99_ms", nearest_rank(&kinds, 0.99) * 1e3),
        ("plan_throughput", plan_tp),
        ("goodput", goodput),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
    units: &[(&str, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            (
                name.to_string(),
                obj(vec![("value", num(value)), ("unit", s(unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn tables_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = whale_sim::json::parse(&text).expect("parse BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).as_str().expect("string field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn planner_spans_follow_the_pass_names() {
        let spans = crate::cold_plan::PASS_SPANS;
        for (id, span) in whale_planner::PassId::ALL.iter().zip(spans) {
            assert_eq!(span, format!("planner.{}", id.name()));
            let metric = format!("{span}_ms");
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == metric),
                "{metric} listed"
            );
        }
    }
}
