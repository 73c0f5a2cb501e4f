//! Bucketed gradient fusion vs monolithic AllReduce across the model zoo
//! and heterogeneous clusters.
//!
//! Two arms per (model, cluster) cell, identical except for the gradient
//! sync model:
//!
//! * **monolithic** — fusion disabled; each replica group synchronizes its
//!   full gradient payload as one AllReduce that cannot start before the
//!   last backward task finishes (`sync_overlap = 0.0`, the physically
//!   honest bound for an unfused collective);
//! * **bucketed** — `CommConfig::fused()`: ~25 MB fusion buckets in reverse
//!   backward order, per-bucket ring/tree/hierarchical selection, and the
//!   event-driven simulator overlapping each bucket with the backward
//!   compute that has not yet produced the later buckets.
//!
//! The acceptance target (≥ 1.3× median simulated throughput over the model
//! zoo on at least one heterogeneous bandwidth-bound cluster) is asserted on
//! the multi-node heterogeneous clusters at their stock interconnect —
//! gigabyte gradient payloads crossing the network make those steps
//! bandwidth-bound while backward compute is still long enough to hide
//! buckets behind. Saturated-network (10 GbE) variants are reported as
//! context but not gated: when sync dwarfs compute, no collective schedule
//! can hide more than the backward pass, so the ratio tends to 1.
//!
//! A **mixed-precision** sweep turns the previously ungated 10 GbE cells
//! into gated ones: with `CommConfig::fused().bf16()` the wire payload
//! halves, so on a saturated network — where exposed sync dominates the
//! step — throughput must reach ≥ 1.5× the fp32-bucketed arm (median over
//! the zoo, per 10 GbE cluster). fp8 cells are reported as context. Every
//! cell records exposed-sync seconds, and per-bucket algorithm flips
//! (fp32 vs dtype schedule over identical logical buckets) are counted; a
//! dedicated latency-dominated crossover cell (32 single-GPU nodes on
//! 10 GbE, ~1 MiB buckets) must record at least one ring → tree flip
//! attributable purely to dtype scaling.
//!
//! A further gate holds the planner honest: through a session's plan cache
//! (the production planning path — comm config is part of every `PlanKey`,
//! so cached entries stay valid), enabling CommOpt must keep planning
//! wall-clock within 5% of the fusion-off pipeline. The cold-compile delta
//! (a few µs of bucketing + algorithm selection per compile) is reported as
//! a context row. Writes `BENCH_comm.json`; `--quick` runs a 2-cell smoke
//! (equivalence + bucket invariants + one bf16 cell, no timing loops) and
//! writes the gitignored `BENCH_comm_quick.json` instead.

use whale::{models, strategies, Cluster, CommConfig, Session, SyncMode, WhaleIr};
use whale_bench::{header, row, time_fn};
use whale_hardware::{AllReduceAlgo, Interconnect};
use whale_sim::json::{num, obj, s, JsonValue};

const TARGET_SPEEDUP: f64 = 1.3;
const PLANNER_OVERHEAD_CAP: f64 = 1.05;
const MIXED_PRECISION_TARGET: f64 = 1.5;

type Case = (&'static str, fn() -> WhaleIr);

fn zoo() -> Vec<Case> {
    // Paper-scale batches (Fig. 17 runs ResNet-50 at 512): the backward pass
    // must be long enough to hide buckets behind — fusion cannot speed up a
    // step whose compute is negligible next to its synchronization.
    vec![
        ("resnet50/dp", || {
            strategies::data_parallel(models::resnet50(512).expect("build"), 512).expect("annotate")
        }),
        ("bert_base/dp", || {
            strategies::data_parallel(models::bert_base(256, 64).expect("build"), 256)
                .expect("annotate")
        }),
        ("bert_large/dp", || {
            strategies::data_parallel(models::bert_large(256, 64).expect("build"), 256)
                .expect("annotate")
        }),
        ("bert_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::bert_large(256, 64).expect("build"), 256, 8)
                .expect("annotate")
        }),
        ("gpt2_xl/pipeline_dp", || {
            strategies::pipeline_with_dp(models::gpt2_xl(128, 64).expect("build"), 128, 8)
                .expect("annotate")
        }),
        ("m6_10b/pipeline_dp", || {
            strategies::pipeline_with_dp(models::m6_10b(16).expect("build"), 16, 4)
                .expect("annotate")
        }),
    ]
}

/// (label, cluster, counts toward the bandwidth-bound acceptance gate).
///
/// The gated configurations are the heterogeneous multi-node clusters at
/// their stock interconnect: gigabyte gradient payloads crossing the network
/// make the step bandwidth-bound while backward compute is still long enough
/// to hide buckets behind. The 10 GbE variants are reported as context but
/// not gated — on a saturated network the only hideable time is the backward
/// pass itself, so the achievable ratio tends to 1 as bandwidth tends to 0
/// no matter how the collectives are scheduled.
fn clusters() -> Vec<(String, Cluster, bool)> {
    let mut out = Vec::new();
    for spec in ["8xV100+8xP100", "2x(8xV100)+2x(8xP100)"] {
        out.push((
            spec.to_string(),
            Cluster::parse(spec).expect("cluster"),
            true,
        ));
        let mut slow = Cluster::parse(spec).expect("cluster");
        slow.interconnect = Interconnect::ethernet_10g();
        out.push((format!("{spec} @10GbE"), slow, false));
    }
    out
}

/// Monolithic arm: fusion off, and no interpolated overlap — an unfused
/// AllReduce cannot start before the last gradient is ready.
fn baseline_session(cluster: &Cluster) -> Session {
    Session::new(cluster.clone()).sync_overlap(0.0)
}

fn bucketed_session(cluster: &Cluster) -> Session {
    Session::new(cluster.clone()).comm(CommConfig::fused())
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}

fn quick() {
    header(
        "comm_bench --quick",
        "smoke: fusion-off equivalence + bucket invariants (no timing loops)",
    );
    let cluster = {
        let mut c = Cluster::parse("2x(8xV100)+2x(8xP100)").expect("cluster");
        c.interconnect = Interconnect::ethernet_10g();
        c
    };
    let ir = strategies::data_parallel(models::bert_large(128, 64).expect("build"), 128)
        .expect("annotate");

    // Fusion off ⇒ the attached schedule is Legacy and the simulated step is
    // bit-identical to a plan with no schedule at all (the pre-fusion model).
    let plain = Session::new(cluster.clone());
    let plan = plain.plan(&ir).expect("plan");
    let sched = plan.grad_sync_schedule.as_ref().expect("schedule attached");
    assert_eq!(
        sched.mode,
        SyncMode::Legacy,
        "default config must be legacy"
    );
    let mut stripped = (*plan).clone();
    stripped.grad_sync_schedule = None;
    let with = plain.step_plan(&plan).expect("sim");
    let without = plain.step_plan(&stripped).expect("sim");
    assert_eq!(with, without, "legacy schedule must not change the step");
    row("fusion-off equivalence", "bit-identical step outcome");

    // Fusion on ⇒ multiple size-capped buckets that telescope to the exact
    // payload, each with a selected algorithm, and a faster step than the
    // monolithic baseline on this bandwidth-bound cluster.
    let fused = bucketed_session(&cluster);
    let fplan = fused.plan(&ir).expect("plan");
    let fsched = fplan.grad_sync_schedule.as_ref().expect("schedule");
    assert_eq!(fsched.mode, SyncMode::Bucketed);
    assert!(
        fsched.buckets.len() > 1,
        "bert-large must split into buckets"
    );
    for (i, sync) in fplan.grad_syncs.iter().enumerate() {
        let total: u64 = fsched.buckets_of(i).map(|b| b.bytes).sum();
        assert_eq!(total, sync.bytes, "bucket bytes must telescope exactly");
        assert!(fsched.buckets_of(i).all(|b| b.algo.is_some()));
    }
    row(
        "buckets",
        format!(
            "{} over {} group(s)",
            fsched.buckets.len(),
            fplan.grad_syncs.len()
        ),
    );

    let base_out = baseline_session(&cluster).step(&ir).expect("sim");
    let fused_out = fused.step_plan(&fplan).expect("sim");
    let speedup = fused_out.stats.throughput / base_out.stats.throughput;
    assert!(
        speedup > 1.0,
        "bucketing must beat monolithic here, got {speedup:.3}x"
    );
    row("speedup (1 cell)", format!("{speedup:.2}x"));

    // Mixed-precision smoke: bf16 halves the wire exactly (per-sync wire
    // bytes telescope to scale(sync.bytes)) and beats the fp32-bucketed arm
    // on this saturated fabric, where exposed sync dominates the step.
    let mp_cfg = CommConfig::fused().bf16();
    let mp = Session::new(cluster.clone()).comm(mp_cfg);
    let mp_plan = mp.plan(&ir).expect("bf16 plan");
    let mp_sched = mp_plan.grad_sync_schedule.as_ref().expect("schedule");
    assert!(mp_sched.wire_scaled(), "bf16 must scale the wire");
    for (i, sync) in mp_plan.grad_syncs.iter().enumerate() {
        assert_eq!(
            mp_sched.wire_bytes_of(i),
            Some(mp_cfg.wire_bytes(sync.bytes)),
            "bf16 wire bytes must telescope to half the payload"
        );
    }
    let mp_out = mp.step_plan(&mp_plan).expect("bf16 sim");
    let mp_speedup = mp_out.stats.throughput / fused_out.stats.throughput;
    assert!(
        mp_speedup > 1.0,
        "bf16 must beat fp32 bucketed on a saturated network, got {mp_speedup:.3}x"
    );
    row(
        "bf16 speedup (1 cell, vs fp32 bucketed)",
        format!(
            "{mp_speedup:.2}x  ({:.0} -> {:.0} MB on wire)",
            mp_plan.grad_sync_bytes() as f64 / 1e6,
            mp_sched.total_wire_bytes() as f64 / 1e6
        ),
    );

    let doc = obj(vec![
        ("bench", s("comm_bench --quick")),
        ("speedup", num(speedup)),
        ("buckets", num(fsched.buckets.len() as f64)),
        ("bf16_speedup_vs_fp32_bucketed", num(mp_speedup)),
        (
            "bf16_wire_mb",
            num(mp_sched.total_wire_bytes() as f64 / 1e6),
        ),
        ("equivalence", JsonValue::Bool(true)),
    ]);
    std::fs::write("BENCH_comm_quick.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_comm_quick.json");
    row("artifact", "BENCH_comm_quick.json (gitignored)");
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick();
        return;
    }
    header(
        "comm_bench",
        "bucketed fusion + algorithm selection vs monolithic AllReduce",
    );

    let mut rows = Vec::new();
    let mut per_cluster: Vec<(String, Vec<f64>)> = Vec::new();
    for (cluster_label, cluster, bandwidth_bound) in &clusters() {
        let mut cluster_speedups = Vec::new();
        for (name, build) in &zoo() {
            let ir = build();
            let base = baseline_session(cluster);
            let fused = bucketed_session(cluster);
            let base_out = base.step(&ir).expect("baseline sim");
            let fused_plan = fused.plan(&ir).expect("fused plan");
            let fused_out = fused.step_plan(&fused_plan).expect("fused sim");

            let buckets = fused_plan
                .grad_sync_schedule
                .as_ref()
                .map(|sched| sched.buckets.len())
                .unwrap_or(0);
            let speedup = fused_out.stats.throughput / base_out.stats.throughput;
            if *bandwidth_bound {
                cluster_speedups.push(speedup);
            }
            row(
                &format!("{name} @ {cluster_label}"),
                format!(
                    "{speedup:.2}x  ({:.4}s -> {:.4}s, {buckets} bucket(s))",
                    base_out.stats.step_time, fused_out.stats.step_time
                ),
            );
            rows.push(obj(vec![
                ("model", s(*name)),
                ("cluster", s(cluster_label.as_str())),
                ("bandwidth_bound", JsonValue::Bool(*bandwidth_bound)),
                ("baseline_step_s", num(base_out.stats.step_time)),
                ("bucketed_step_s", num(fused_out.stats.step_time)),
                (
                    "baseline_sync_exposed_s",
                    num(base_out.stats.sync_time_exposed),
                ),
                (
                    "bucketed_sync_exposed_s",
                    num(fused_out.stats.sync_time_exposed),
                ),
                ("buckets", num(buckets as f64)),
                ("speedup", num(speedup)),
            ]));
        }
        if *bandwidth_bound {
            per_cluster.push((cluster_label.clone(), cluster_speedups));
        }
    }

    // --- mixed precision over the saturated-network cells ----------------
    // On 10 GbE exposed sync dominates the step, so shrinking the wire is
    // the only lever left — these cells were ungated above precisely
    // because bucketing alone cannot help once the network saturates. With
    // bf16 the payload halves and the gate flips on: ≥ 1.5× median
    // throughput vs the fp32-bucketed arm per 10 GbE cluster. fp8 is
    // reported as context, and per-bucket algorithm flips (identical
    // logical buckets, scaled wire) are counted for the crossover gate.
    let mut mp_rows = Vec::new();
    let mut mp_cluster_rows = Vec::new();
    let mut mp_medians: Vec<(String, f64)> = Vec::new();
    let mut flips_total: u64 = 0;
    for (cluster_label, cluster, bandwidth_bound) in &clusters() {
        if *bandwidth_bound {
            continue; // stock fabrics stay gated on the fp32 sweep above
        }
        let mut bf16_speedups = Vec::new();
        for (name, build) in &zoo() {
            let ir = build();
            let fp32 = bucketed_session(cluster);
            let fp32_plan = fp32.plan(&ir).expect("fp32 plan");
            let fp32_out = fp32.step_plan(&fp32_plan).expect("fp32 sim");
            let fp32_sched = fp32_plan.grad_sync_schedule.clone().expect("fp32 schedule");
            for (dtype, cfg) in [
                ("bf16", CommConfig::fused().bf16()),
                ("fp8", CommConfig::fused().fp8()),
            ] {
                let sess = Session::new(cluster.clone()).comm(cfg);
                let plan = sess.plan(&ir).expect("mixed-precision plan");
                let out = sess.step_plan(&plan).expect("mixed-precision sim");
                let sched = plan.grad_sync_schedule.as_ref().expect("schedule");
                let flips = fp32_sched
                    .buckets
                    .iter()
                    .zip(sched.buckets.iter())
                    .filter(|(a, b)| a.algo != b.algo)
                    .count() as u64;
                flips_total += flips;
                let speedup = out.stats.throughput / fp32_out.stats.throughput;
                if dtype == "bf16" {
                    bf16_speedups.push(speedup);
                }
                row(
                    &format!("{name} {dtype} @ {cluster_label}"),
                    format!(
                        "{speedup:.2}x vs fp32-bucketed  ({:.4}s -> {:.4}s, \
                         {:.0} -> {:.0} MB wire, {flips} flip(s))",
                        fp32_out.stats.step_time,
                        out.stats.step_time,
                        fp32_sched.total_wire_bytes() as f64 / 1e6,
                        sched.total_wire_bytes() as f64 / 1e6,
                    ),
                );
                mp_rows.push(obj(vec![
                    ("model", s(*name)),
                    ("cluster", s(cluster_label.as_str())),
                    ("grad_dtype", s(dtype)),
                    ("step_s", num(out.stats.step_time)),
                    ("sync_exposed_s", num(out.stats.sync_time_exposed)),
                    ("fp32_step_s", num(fp32_out.stats.step_time)),
                    ("fp32_sync_exposed_s", num(fp32_out.stats.sync_time_exposed)),
                    ("wire_mb", num(sched.total_wire_bytes() as f64 / 1e6)),
                    ("algo_flips", num(flips as f64)),
                    ("speedup_vs_fp32_bucketed", num(speedup)),
                ]));
            }
        }
        let m = median(&bf16_speedups);
        row(
            &format!("median bf16 speedup @ {cluster_label}"),
            format!(
                "{m:.2}x vs fp32-bucketed{}",
                if m >= MIXED_PRECISION_TARGET {
                    ""
                } else {
                    "  << below target"
                }
            ),
        );
        mp_cluster_rows.push(obj(vec![
            ("cluster", s(cluster_label.as_str())),
            ("grad_dtype", s("bf16")),
            ("median_speedup_vs_fp32_bucketed", num(m)),
        ]));
        mp_medians.push((cluster_label.clone(), m));
    }

    // Dedicated crossover cell: 32 single-GPU nodes on 10 GbE put the
    // ring/tree break-even near 320 KB, so ~1 MiB fp32 buckets ride the
    // ring while their 256 KiB fp8 images flip to the tree — an algorithm
    // change attributable purely to dtype scaling (the logical buckets are
    // identical by construction).
    let mut xcluster = Cluster::parse("32x(1xV100)").expect("cluster");
    xcluster.interconnect = Interconnect::ethernet_10g();
    let xir =
        strategies::data_parallel(models::resnet50(64).expect("build"), 64).expect("annotate");
    let xcfg = CommConfig {
        fusion_bytes: 1 << 20,
        auto_algorithm: true,
        ..CommConfig::default()
    };
    let xplan32 = Session::new(xcluster.clone())
        .comm(xcfg)
        .plan(&xir)
        .expect("crossover fp32 plan");
    let xplan8 = Session::new(xcluster.clone())
        .comm(xcfg.fp8())
        .plan(&xir)
        .expect("crossover fp8 plan");
    let xs32 = xplan32.grad_sync_schedule.as_ref().expect("schedule");
    let xs8 = xplan8.grad_sync_schedule.as_ref().expect("schedule");
    let ring_to_tree = xs32
        .buckets
        .iter()
        .zip(xs8.buckets.iter())
        .filter(|(a, b)| a.algo == Some(AllReduceAlgo::Ring) && b.algo == Some(AllReduceAlgo::Tree))
        .count() as u64;
    flips_total += ring_to_tree;
    row(
        "crossover cell (resnet50/dp @ 32x(1xV100) @10GbE, 1 MiB cap)",
        format!(
            "{ring_to_tree} ring->tree flip(s) over {} bucket(s)",
            xs32.buckets.len()
        ),
    );
    let crossover = obj(vec![
        ("model", s("resnet50/dp")),
        ("cluster", s("32x(1xV100) @10GbE")),
        ("fusion_mb", num(1.0)),
        ("buckets", num(xs32.buckets.len() as f64)),
        ("ring_to_tree_flips", num(ring_to_tree as f64)),
    ]);

    // Planner overhead gate: the production planning path — the plan cache
    // is on, exactly as `Session` ships — must not slow down when CommOpt is
    // enabled. Comm config is fingerprinted into every `PlanKey`, so the
    // cached-plan fast path stays a pure hit either way; this measures that
    // claim end to end. The cold-compile delta (bucketing + algorithm
    // selection, paid once per cache miss) is reported as context below.
    let (warmup, iters) = (5, 31);
    let overhead_cluster = Cluster::parse("2x(8xV100)+2x(8xP100)").expect("cluster");
    let mut overheads = Vec::new();
    let mut cold_deltas = Vec::new();
    for (name, build) in &zoo() {
        let ir = build();
        let off = Session::new(overhead_cluster.clone());
        let on = Session::new(overhead_cluster.clone()).comm(CommConfig::fused());
        let t_off = time_fn(&format!("{name}/plan comm-off"), warmup, iters, || {
            off.plan(&ir).expect("plan")
        });
        let t_on = time_fn(&format!("{name}/plan comm-on"), warmup, iters, || {
            on.plan(&ir).expect("plan")
        });
        overheads.push(t_on.median_s / t_off.median_s);

        // Context: one uncached compile per arm, on each session's cluster
        // and config.
        let c_off = time_fn(&format!("{name}/cold comm-off"), warmup, iters, || {
            whale_planner::plan(&ir, off.cluster(), off.planner_config()).expect("plan")
        });
        let c_on = time_fn(&format!("{name}/cold comm-on"), warmup, iters, || {
            whale_planner::plan(&ir, on.cluster(), on.planner_config()).expect("plan")
        });
        cold_deltas.push((c_on.median_s - c_off.median_s).max(0.0));
    }
    let overhead = median(&overheads);
    row(
        "planner wall-clock (comm on / off, plan cache on)",
        format!("{overhead:.3}x (median)"),
    );
    let cold_delta = median(&cold_deltas);
    row(
        "cold-compile delta (context)",
        format!("+{:.1} us per uncached compile (median)", cold_delta * 1e6),
    );

    let mut cluster_rows = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for (label, speedups) in &per_cluster {
        let m = median(speedups);
        row(&format!("median speedup @ {label}"), format!("{m:.2}x"));
        cluster_rows.push(obj(vec![
            ("cluster", s(label.as_str())),
            ("median_speedup", num(m)),
        ]));
        if best.as_ref().is_none_or(|(_, b)| m > *b) {
            best = Some((label.clone(), m));
        }
    }
    let (best_cluster, best_median) = best.expect("gated clusters");
    let mp_met = mp_medians.iter().all(|(_, m)| *m >= MIXED_PRECISION_TARGET);
    let met = best_median >= TARGET_SPEEDUP
        && overhead <= PLANNER_OVERHEAD_CAP
        && mp_met
        && flips_total >= 1;
    row(
        "best bandwidth-bound cluster",
        format!(
            "{best_cluster}: {best_median:.2}x{}",
            if best_median >= TARGET_SPEEDUP {
                ""
            } else {
                "  << below target"
            }
        ),
    );

    let doc = obj(vec![
        ("bench", s("comm_bench")),
        ("cells", JsonValue::Array(rows)),
        ("gated_clusters", JsonValue::Array(cluster_rows)),
        ("best_cluster", s(best_cluster.as_str())),
        ("best_cluster_median_speedup", num(best_median)),
        ("target_speedup", num(TARGET_SPEEDUP)),
        ("mixed_precision_cells", JsonValue::Array(mp_rows)),
        ("mixed_precision_gates", JsonValue::Array(mp_cluster_rows)),
        ("mixed_precision_target", num(MIXED_PRECISION_TARGET)),
        ("crossover", crossover),
        ("algo_flips_total", num(flips_total as f64)),
        ("planner_overhead_median", num(overhead)),
        ("planner_overhead_cap", num(PLANNER_OVERHEAD_CAP)),
        ("cold_compile_delta_s", num(cold_delta)),
        ("targets_met", JsonValue::Bool(met)),
    ]);
    let path = "BENCH_comm.json";
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_comm.json");
    row("artifact", path);

    assert!(
        best_median >= TARGET_SPEEDUP,
        "bucketed fusion must reach >= {TARGET_SPEEDUP}x median on a bandwidth-bound cluster \
         (best: {best_cluster} at {best_median:.2}x)"
    );
    assert!(
        overhead <= PLANNER_OVERHEAD_CAP,
        "CommOpt must keep planning within {PLANNER_OVERHEAD_CAP}x (measured {overhead:.3}x)"
    );
    for (label, m) in &mp_medians {
        assert!(
            *m >= MIXED_PRECISION_TARGET,
            "bf16 must reach >= {MIXED_PRECISION_TARGET}x median vs fp32 bucketed on {label} \
             (got {m:.2}x)"
        );
    }
    assert!(
        flips_total >= 1,
        "at least one per-bucket algorithm flip must be attributable to dtype scaling"
    );
}
