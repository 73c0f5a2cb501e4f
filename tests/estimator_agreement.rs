//! The auto-parallel driver's pruning bounds must agree with the simulator
//! in the one direction pruning relies on: no bound may exceed the
//! simulated step time, or the search could prune the true winner.

use whale::{models, strategies, ScheduleKind, Session, TrainingConfig, ZeroStage};
use whale_hardware::GroupCache;
use whale_planner::{
    estimate_step_lower_bound, pipeline_leaf_bound, structural_lower_bound, CommConfig,
    StructuralBound,
};

/// Every training and comm option a bound prices differently: AMP's rate
/// boost and halved traffic, recomputation's backward factor, ZeRO's
/// sharded optimizer and comm factor, the offload PCIe round trip, the
/// wire-scaled legacy syncs of a compressed bf16 schedule, and the
/// bucketed syncs of a fused one.
fn configs() -> Vec<(&'static str, TrainingConfig, CommConfig)> {
    let training = TrainingConfig::default();
    let comm = CommConfig::default();
    vec![
        ("default", training, comm),
        (
            "amp",
            TrainingConfig {
                amp: true,
                ..training
            },
            comm,
        ),
        (
            "recompute",
            TrainingConfig {
                recompute: true,
                ..training
            },
            comm,
        ),
        (
            "amp+zero2",
            TrainingConfig {
                amp: true,
                zero: ZeroStage::Gradients,
                ..training
            },
            comm,
        ),
        (
            "zero3+offload",
            TrainingConfig {
                zero: ZeroStage::Parameters,
                offload: true,
                ..training
            },
            comm,
        ),
        (
            "legacy bf16 compress(0.5)",
            training,
            CommConfig::default().bf16().compress(0.5),
        ),
        ("fused bf16", training, CommConfig::fused().bf16()),
    ]
}

/// Check that `bound` never exceeds the simulated step `sim`.
fn assert_admissible(what: &str, bound: f64, sim: f64, cell: &str) {
    assert!(
        bound <= sim * (1.0 + 1e-9),
        "{cell}: {what} {bound:.9}s exceeds simulated {sim:.9}s"
    );
}

#[test]
fn lower_bounds_never_exceed_simulated_step() {
    // Every pruning bound of the branch-and-bound search must be
    // admissible: the pre-plan structural bound, the post-plan bound
    // (priced from the assembled plan) and the partition-seeded pre-plan
    // leaf bound (priced from the exact cuts and profiles the plan would
    // use) may never exceed the simulated step time, or the search could
    // prune the true winner. Heterogeneous clusters so the bounds must
    // respect per-GPU rates, one of them with cross-node transfers and NIC
    // syncs; sweep every training and comm option, replica degree,
    // micro-batch count and schedule, plus data parallelism.
    let batch = 64;
    let mut cells = 0;
    for spec in ["4xV100,4xP100", "2x(4xV100)+1x(4xP100)"] {
        for (name, training, comm) in configs() {
            let session = Session::on_cluster(spec)
                .unwrap()
                .training(training)
                .comm(comm);
            let cfg = session.planner_config();
            let graph = models::bert_base(batch, 64).unwrap();
            let n = session.cluster().num_gpus();
            let structural = |replicas: usize, depth: usize, num_micro: usize| {
                structural_lower_bound(
                    &StructuralBound {
                        fw_flops_per_sample: graph.total_forward_flops() / batch as f64,
                        global_batch: batch,
                        replicas,
                        depth,
                        num_micro,
                        stage_width: 1,
                        amp: cfg.training.amp,
                        recompute: cfg.training.recompute,
                        efficiency: cfg.efficiency,
                    },
                    session.cluster(),
                )
            };
            let check = |cell: &str, s: &Session, ir: &whale::WhaleIr, bounds: &[(&str, f64)]| {
                let plan = s.plan(ir).unwrap();
                let sim = s.step_plan(&plan).unwrap().stats.step_time;
                let post =
                    estimate_step_lower_bound(&plan, &mut GroupCache::new(s.cluster())).unwrap();
                assert_admissible("post-plan bound", post, sim, cell);
                for &(what, bound) in bounds {
                    assert_admissible(what, bound, sim, cell);
                }
            };

            let cell = format!("{spec} [{name}] dp");
            let ir = strategies::data_parallel(graph.clone(), batch).unwrap();
            check(
                &cell,
                &session,
                &ir,
                &[("structural bound", structural(n, 1, 1))],
            );
            cells += 1;

            for replicas in [1usize, 2] {
                for micro in [1usize, 2, 4, 8] {
                    for schedule in [ScheduleKind::BackwardFirst, ScheduleKind::GPipe] {
                        let cell =
                            format!("{spec} [{name}] r={replicas} micro={micro} {schedule:?}");
                        let mut s = session.clone().schedule(schedule);
                        if replicas > 1 {
                            s = s.outer_dp(replicas);
                        }
                        let leaf = pipeline_leaf_bound(
                            &graph,
                            s.cluster(),
                            s.planner_config(),
                            replicas,
                            micro,
                            schedule == ScheduleKind::GPipe,
                            batch,
                        )
                        .unwrap()
                        .unwrap_or(0.0);
                        let ir = if replicas > 1 {
                            strategies::pipeline_with_dp(graph.clone(), batch, micro).unwrap()
                        } else {
                            strategies::pipeline_only(graph.clone(), batch, micro).unwrap()
                        };
                        let pre = structural(replicas, n / replicas, micro);
                        check(
                            &cell,
                            &s,
                            &ir,
                            &[("leaf bound", leaf), ("structural bound", pre)],
                        );
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cells, 2 * 7 * (1 + 2 * 4 * 2));
}
