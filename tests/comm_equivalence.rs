//! Backward-compat guard for the CommOpt pass: with fusion disabled (the
//! default), the pass must be a pure annotation — the attached
//! `GradSyncSchedule` is `Legacy` and the simulated step is bit-identical
//! to a plan with no schedule at all (the pre-fusion model). Any drift here
//! means the fusion machinery changed behaviour for users who never asked
//! for it.
//!
//! A second sweep checks the fused mode's structural invariants on the same
//! matrix: bucket bytes telescope exactly to each group's payload, every
//! bucket carries a selected algorithm, and ready fractions rise
//! monotonically to 1.0 along each group's bucket list.

use whale::{models, strategies, CommConfig, GradDtype, Session, SyncMode, WhaleIr};
use whale_hardware::{AllReduceAlgo, AllReduceSelector, Cluster, Interconnect};

type Case = (&'static str, fn() -> WhaleIr);

/// Small-batch slice of the model zoo: every strategy shape, sized so the
/// whole matrix stays fast in debug builds.
fn zoo() -> Vec<Case> {
    vec![
        ("resnet50/dp", || {
            strategies::data_parallel(models::resnet50(64).expect("build"), 64).expect("annotate")
        }),
        ("bert_base/dp", || {
            strategies::data_parallel(models::bert_base(32, 64).expect("build"), 32)
                .expect("annotate")
        }),
        ("bert_large/pipeline_dp", || {
            strategies::pipeline_with_dp(models::bert_large(32, 64).expect("build"), 32, 4)
                .expect("annotate")
        }),
        ("gpt2_xl/pipeline_dp", || {
            strategies::pipeline_with_dp(models::gpt2_xl(16, 64).expect("build"), 16, 4)
                .expect("annotate")
        }),
    ]
}

fn clusters() -> Vec<(&'static str, Cluster)> {
    ["8xV100", "8xV100+8xP100", "2x(8xV100)+2x(8xP100)"]
        .into_iter()
        .map(|spec| (spec, Cluster::parse(spec).expect("cluster")))
        .collect()
}

/// Fusion off ⇒ Legacy schedule, and stripping it changes nothing.
#[test]
fn legacy_schedule_is_bit_identical_to_no_schedule() {
    for (cspec, cluster) in clusters() {
        for (mname, build) in zoo() {
            let label = format!("{mname} on {cspec}");
            let ir = build();
            let session = Session::new(cluster.clone());
            let plan = session
                .plan(&ir)
                .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
            let sched = plan
                .grad_sync_schedule
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: no schedule attached"));
            assert_eq!(
                sched.mode,
                SyncMode::Legacy,
                "{label}: default config must produce a legacy schedule"
            );

            let mut stripped = (*plan).clone();
            stripped.grad_sync_schedule = None;
            let with = session
                .step_plan(&plan)
                .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
            let without = session
                .step_plan(&stripped)
                .unwrap_or_else(|e| panic!("{label}: stripped sim failed: {e}"));
            assert_eq!(
                with, without,
                "{label}: legacy schedule changed the simulated step"
            );
        }
    }
}

/// Spelling out the default precision (`fp32`, no compression) must be a
/// no-op at every level: the config fingerprints identically, every bucket's
/// wire bytes equal its logical bytes, and the simulated step is
/// bit-identical to the implicit-default plan. This is the contract that
/// lets mixed precision ship without perturbing existing users.
#[test]
fn explicit_fp32_is_bit_identical_to_the_default() {
    for (cspec, cluster) in clusters() {
        for (mname, build) in zoo() {
            let label = format!("{mname} on {cspec}");
            let ir = build();
            let implicit = Session::new(cluster.clone()).comm(CommConfig::fused());
            let explicit = Session::new(cluster.clone())
                .comm(CommConfig::fused().dtype(GradDtype::Fp32).compress(1.0));
            let p1 = implicit
                .plan(&ir)
                .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
            let p2 = explicit
                .plan(&ir)
                .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
            let sched = p2
                .grad_sync_schedule
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: no schedule attached"));
            assert!(
                !sched.wire_scaled(),
                "{label}: fp32 + no compression must not scale the wire"
            );
            for b in &sched.buckets {
                assert_eq!(
                    b.wire_bytes, b.bytes,
                    "{label}: fp32 wire bytes must equal logical bytes"
                );
            }
            let s1 = implicit
                .step_plan(&p1)
                .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
            let s2 = explicit
                .step_plan(&p2)
                .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
            assert_eq!(
                s1, s2,
                "{label}: explicit fp32 config changed the simulated step"
            );
        }
    }
}

/// Property sweep: for every (model, cluster, fusion cap, dtype, ratio)
/// cell, the per-sync bucket wire bytes telescope *exactly* to the scaled
/// group payload — the same single-division fixed-point scaling applied to
/// `sync.bytes` — and the logical bucket boundaries are identical to the
/// fp32 packing (dtype only shrinks payloads; it never re-shapes buckets,
/// so algorithm flips are attributable to wire scaling alone).
#[test]
fn wire_bytes_telescope_to_the_scaled_payload_across_the_matrix() {
    let caps: [u64; 3] = [1 << 20, 4 << 20, 25 << 20];
    let precisions = [
        (GradDtype::Bf16, 1.0),
        (GradDtype::Fp8, 1.0),
        (GradDtype::Bf16, 0.37),
        (GradDtype::Fp32, 0.125),
    ];
    for (cspec, cluster) in clusters() {
        for (mname, build) in zoo() {
            let ir = build();
            for cap in caps {
                let base_cfg = CommConfig {
                    fusion_bytes: cap,
                    auto_algorithm: true,
                    ..CommConfig::default()
                };
                let base_plan = Session::new(cluster.clone())
                    .comm(base_cfg)
                    .plan(&ir)
                    .expect("fp32 plan");
                let base_sched = base_plan.grad_sync_schedule.as_ref().expect("schedule");
                for (dtype, ratio) in precisions {
                    let label = format!("{mname} on {cspec}, cap {cap}, {} ×{ratio}", dtype.name());
                    let cfg = base_cfg.dtype(dtype).compress(ratio);
                    let plan = Session::new(cluster.clone())
                        .comm(cfg)
                        .plan(&ir)
                        .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
                    let sched = plan
                        .grad_sync_schedule
                        .as_ref()
                        .unwrap_or_else(|| panic!("{label}: no schedule attached"));
                    for (i, sync) in plan.grad_syncs.iter().enumerate() {
                        let wire_total: u64 = sched.buckets_of(i).map(|b| b.wire_bytes).sum();
                        assert_eq!(
                            wire_total,
                            cfg.wire_bytes(sync.bytes),
                            "{label}: wire bytes must telescope to scale(sync.bytes)"
                        );
                        assert_eq!(
                            sched.wire_bytes_of(i),
                            Some(wire_total),
                            "{label}: wire_bytes_of must agree with the bucket sum"
                        );
                        let scaled: Vec<(u64, (usize, usize))> =
                            sched.buckets_of(i).map(|b| (b.bytes, b.layers)).collect();
                        let fp32: Vec<(u64, (usize, usize))> = base_sched
                            .buckets_of(i)
                            .map(|b| (b.bytes, b.layers))
                            .collect();
                        assert_eq!(
                            scaled, fp32,
                            "{label}: logical bucket boundaries must not move with dtype"
                        );
                    }
                }
            }
        }
    }
}

/// Dtype-driven algorithm crossover on a latency-dominated fabric: 32
/// single-GPU nodes on 10 GbE put the ring/tree break-even near 320 KB
/// (ring pays `2(n−1)` latency hops; tree pays `2⌈log₂n⌉`). A 1 MiB payload
/// rides the bandwidth-optimal ring at fp32; the same payload at fp8 is
/// 256 KiB on the wire and flips to the latency-optimal tree — both at the
/// selector and end-to-end through the planner's bucket schedule.
#[test]
fn fp8_payload_scaling_flips_ring_to_tree_on_a_latency_dominated_fabric() {
    let mut cluster = Cluster::parse("32x(1xV100)").expect("cluster");
    cluster.interconnect = Interconnect::ethernet_10g();
    let group: Vec<usize> = (0..cluster.num_gpus()).collect();
    let sel = AllReduceSelector::new(&cluster, &group).expect("selector");

    let logical: u64 = 1 << 20;
    let fp32_wire = CommConfig::fused().wire_bytes(logical);
    let fp8_wire = CommConfig::fused().fp8().wire_bytes(logical);
    assert_eq!(fp32_wire, logical);
    assert_eq!(fp8_wire, logical / 4);
    assert_eq!(
        sel.select(fp32_wire).0,
        AllReduceAlgo::Ring,
        "1 MiB at fp32 must stay on the ring"
    );
    assert_eq!(
        sel.select(fp8_wire).0,
        AllReduceAlgo::Tree,
        "256 KiB at fp8 must flip to the tree"
    );

    // End-to-end: identical logical buckets, flipped per-bucket algorithms.
    let ir = strategies::data_parallel(models::resnet50(64).expect("build"), 64).expect("annotate");
    let fp32_cfg = CommConfig {
        fusion_bytes: 1 << 20,
        auto_algorithm: true,
        ..CommConfig::default()
    };
    let fp32_plan = Session::new(cluster.clone())
        .comm(fp32_cfg)
        .plan(&ir)
        .expect("fp32 plan");
    let fp8_plan = Session::new(cluster.clone())
        .comm(fp32_cfg.fp8())
        .plan(&ir)
        .expect("fp8 plan");
    let fp32_sched = fp32_plan.grad_sync_schedule.as_ref().expect("schedule");
    let fp8_sched = fp8_plan.grad_sync_schedule.as_ref().expect("schedule");
    assert_eq!(fp32_sched.buckets.len(), fp8_sched.buckets.len());
    let mut flips = 0;
    for (a, b) in fp32_sched.buckets.iter().zip(fp8_sched.buckets.iter()) {
        assert_eq!(a.bytes, b.bytes, "logical boundaries must match");
        if a.algo == Some(AllReduceAlgo::Ring) && b.algo == Some(AllReduceAlgo::Tree) {
            flips += 1;
        }
    }
    assert!(
        flips >= 1,
        "at least one bucket must flip ring → tree under fp8 scaling"
    );
}

/// Fusion on ⇒ buckets telescope to the exact payload, every bucket has an
/// algorithm, and ready fractions rise monotonically to 1.0 along each
/// group's bucket list (deepest layers' gradients finalize first, so each
/// later bucket waits on a larger share of the backward pass).
#[test]
fn bucketed_schedules_hold_structural_invariants() {
    for (cspec, cluster) in clusters() {
        for (mname, build) in zoo() {
            let label = format!("{mname} on {cspec}");
            let ir = build();
            let session = Session::new(cluster.clone()).comm(CommConfig::fused());
            let plan = session
                .plan(&ir)
                .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
            let sched = plan
                .grad_sync_schedule
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: no schedule attached"));
            assert_eq!(sched.mode, SyncMode::Bucketed, "{label}");

            for (i, sync) in plan.grad_syncs.iter().enumerate() {
                let total: u64 = sched.buckets_of(i).map(|b| b.bytes).sum();
                assert_eq!(total, sync.bytes, "{label}: bucket bytes must telescope");
                assert!(
                    sched.buckets_of(i).all(|b| b.algo.is_some()),
                    "{label}: every bucket needs a selected algorithm"
                );
                let fracs: Vec<f64> = sched.buckets_of(i).map(|b| b.ready_frac).collect();
                assert!(
                    fracs.windows(2).all(|w| w[0] <= w[1]),
                    "{label}: ready fractions must be monotone non-decreasing, \
                     got {fracs:?}"
                );
                assert_eq!(
                    fracs.last().copied(),
                    Some(1.0),
                    "{label}: last bucket must wait for the full backward pass"
                );
            }
        }
    }
}
