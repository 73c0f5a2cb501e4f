//! The auto-parallel driver's pruning bounds must agree with the simulator
//! in the one direction pruning relies on: no bound may exceed the
//! simulated step time, or the search could prune the true winner.

use whale::{models, strategies, ScheduleKind, Session};
use whale_hardware::GroupCache;
use whale_planner::{estimate_step_lower_bound, pipeline_leaf_bound};

#[test]
fn lower_bounds_never_exceed_simulated_step() {
    // Both pruning bounds of the branch-and-bound search must be
    // admissible: the post-plan bound (priced from the assembled plan) and
    // the partition-seeded pre-plan leaf bound (priced from the exact cuts
    // and profiles the plan would use) may never exceed the simulated step
    // time, or the search could prune the true winner. Heterogeneous
    // cluster so the bounds must respect per-GPU rates; sweep replica
    // degree, micro-batch count, and schedule.
    let batch = 64;
    let session = Session::on_cluster("4xV100,4xP100").unwrap();
    for replicas in [1usize, 2] {
        for micro in [2usize, 4, 8] {
            for schedule in [ScheduleKind::BackwardFirst, ScheduleKind::GPipe] {
                let graph = models::bert_base(batch, 64).unwrap();
                let leaf_lb = pipeline_leaf_bound(
                    &graph,
                    session.cluster(),
                    session.planner_config(),
                    replicas,
                    micro,
                    schedule == ScheduleKind::GPipe,
                    batch,
                )
                .unwrap();
                let ir = if replicas > 1 {
                    strategies::pipeline_with_dp(graph, batch, micro).unwrap()
                } else {
                    strategies::pipeline_only(graph, batch, micro).unwrap()
                };
                let mut s = session.clone().schedule(schedule);
                if replicas > 1 {
                    s = s.outer_dp(replicas);
                }
                let plan = s.plan(&ir).unwrap();
                let sim = s.step_plan(&plan).unwrap().stats.step_time;
                let post_lb =
                    estimate_step_lower_bound(&plan, &mut GroupCache::new(s.cluster())).unwrap();
                let tag = format!("r={replicas} micro={micro} {schedule:?}");
                assert!(
                    post_lb <= sim * (1.0 + 1e-9),
                    "{tag}: post-plan bound {post_lb:.6}s exceeds simulated {sim:.6}s"
                );
                if let Some(lb) = leaf_lb {
                    assert!(
                        lb <= sim * (1.0 + 1e-9),
                        "{tag}: leaf bound {lb:.6}s exceeds simulated {sim:.6}s"
                    );
                }
            }
        }
    }
}
