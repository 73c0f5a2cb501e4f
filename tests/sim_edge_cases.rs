//! Simulator boundary conditions: degenerate pipelines, single micro
//! batches, co-located stages, determinism under reordering.

use whale::{models, strategies, ScheduleKind, Session};
use whale_sim::TaskKind;

#[test]
fn pipeline_with_one_micro_batch_is_sequential() {
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let ir = strategies::pipeline_only(models::bert_base(16, 64).unwrap(), 16, 1).unwrap();
    let out = session.step(&ir).unwrap();
    // With one micro batch the pipeline degenerates: 4 stages × (F + B).
    assert_eq!(out.timeline.len(), 8);
    // Fully serial: no two tasks overlap.
    for (i, a) in out.timeline.iter().enumerate() {
        for b in &out.timeline[i + 1..] {
            assert!(
                a.end <= b.start + 1e-12 || b.end <= a.start + 1e-12,
                "{:?} overlaps {:?}",
                a.kind,
                b.kind
            );
        }
    }
    assert!(out.stats.bubble_ratio() > 0.5, "mostly idle");
}

#[test]
fn two_stage_pipeline_interleaves_under_1f1b() {
    let session = Session::on_cluster("1x(2xV100)").unwrap();
    let ir = strategies::pipeline_only(models::bert_base(32, 64).unwrap(), 32, 8).unwrap();
    let out = session.step(&ir).unwrap();
    // Stage 0's F and stage 1's work overlap somewhere.
    let f0: Vec<_> = out
        .timeline
        .iter()
        .filter(|r| matches!(r.kind, TaskKind::Forward { stage: 0, .. }))
        .collect();
    let s1: Vec<_> = out
        .timeline
        .iter()
        .filter(|r| r.kind.stage() == 1)
        .collect();
    let overlaps = f0
        .iter()
        .any(|a| s1.iter().any(|b| a.start < b.end && b.start < a.end));
    assert!(overlaps, "pipelining must overlap stages");
}

#[test]
fn gpipe_and_1f1b_agree_on_total_work() {
    let mk = |schedule| {
        let session = Session::on_cluster("1x(4xV100)")
            .unwrap()
            .schedule(schedule);
        let ir = strategies::pipeline_only(models::bert_base(32, 64).unwrap(), 32, 8).unwrap();
        session.step(&ir).unwrap().stats
    };
    let a = mk(ScheduleKind::BackwardFirst);
    let b = mk(ScheduleKind::GPipe);
    // Same busy time per GPU (identical work), regardless of order.
    for (x, y) in a.per_gpu.iter().zip(&b.per_gpu) {
        assert!((x.busy - y.busy).abs() < 1e-9, "gpu {} busy differs", x.gpu);
    }
}

#[test]
fn colocated_sequential_taskgraphs_never_overlap_in_time() {
    // MoE-style: all stages share the same GPUs; makespan must be at least
    // the sum of per-stage durations.
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let g = models::m6_moe(models::MoeConfig::tiny(), 32).unwrap();
    let ir = strategies::moe_hybrid(g, 32).unwrap();
    let out = session.step(&ir).unwrap();
    let sum_durations: f64 = out.timeline.iter().map(|r| r.end - r.start).sum();
    assert!(
        out.stats.compute_makespan >= sum_durations * 0.999,
        "co-located stages must serialize: makespan {} < sum {}",
        out.stats.compute_makespan,
        sum_durations
    );
}

#[test]
fn throughput_is_batch_over_step_time() {
    let session = Session::on_cluster("1x(8xV100)").unwrap();
    let ir = strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap();
    let s = session.step(&ir).unwrap().stats;
    assert!((s.throughput - 256.0 / s.step_time).abs() < 1e-9);
}

#[test]
fn utilization_never_exceeds_one() {
    for spec in ["1xV100", "1x(4xV100)", "2x(2xP100,2xV100)"] {
        let session = Session::on_cluster(spec).unwrap();
        let ir = strategies::data_parallel(models::resnet50(64).unwrap(), 64).unwrap();
        let s = session.step(&ir).unwrap().stats;
        for g in &s.per_gpu {
            assert!(
                g.utilization <= 1.0 + 1e-9,
                "{spec}: gpu{} {}",
                g.gpu,
                g.utilization
            );
            assert!(g.utilization >= 0.0);
        }
    }
}

#[test]
fn timeline_and_chrome_trace_agree_on_task_count() {
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let ir = strategies::pipeline_only(models::bert_base(32, 64).unwrap(), 32, 6).unwrap();
    let out = session.step(&ir).unwrap();
    let trace = whale_sim::chrome_trace(&out);
    let events = trace.matches("\"ph\":\"X\"").count();
    assert_eq!(events, out.timeline.len());
    assert_eq!(events, 4 * 2 * 6);
}

/// A duplicate rank in any group the step prices is the typed
/// `InvalidGroup` error, even when the step has already priced a valid
/// group: the per-step topology cache is keyed by the group's exact
/// content, so a bad group is always validated on its first sight.
mod duplicate_ranks {
    use std::sync::Arc;

    use whale::{models, strategies, Cluster, CommConfig, ExecutionPlan, PlannerConfig, SimConfig};
    use whale_hardware::{AllReduceAlgo, Collective, HardwareError};
    use whale_planner::{plan, CollectiveTask, GradBucket};
    use whale_sim::{simulate_step, SimError};

    fn dp_plan(comm: CommConfig) -> (ExecutionPlan, Cluster) {
        let cluster = Cluster::parse("1x(4xV100)").unwrap();
        let ir = strategies::data_parallel(models::bert_base(16, 64).unwrap(), 16).unwrap();
        let config = PlannerConfig {
            comm,
            ..PlannerConfig::default()
        };
        (plan(&ir, &cluster, &config).unwrap(), cluster)
    }

    fn task(kind: Collective, group: Vec<usize>, stage: Option<usize>) -> CollectiveTask {
        CollectiveTask {
            kind,
            group,
            bytes: 1 << 20,
            label: "hand-built".into(),
            stage,
        }
    }

    fn invalid_group() -> SimError {
        HardwareError::InvalidGroup("duplicate rank in group".into()).into()
    }

    fn step(p: &ExecutionPlan, cluster: &Cluster) -> Result<(), SimError> {
        simulate_step(p, cluster, &SimConfig::default()).map(|_| ())
    }

    #[test]
    fn in_a_stage_collective() {
        for comm in [CommConfig::default(), CommConfig::fused()] {
            let (mut p, cluster) = dp_plan(comm);
            step(&p, &cluster).unwrap();
            let collectives = &mut Arc::make_mut(&mut p.stages)[0].collectives_per_micro;
            collectives.push(task(Collective::AllToAll, vec![0, 1, 2, 3], Some(0)));
            collectives.push(task(Collective::AllToAll, vec![0, 1, 2, 1], Some(0)));
            assert_eq!(step(&p, &cluster), Err(invalid_group()));
        }
    }

    #[test]
    fn in_a_legacy_grad_sync_after_a_valid_one() {
        let (mut p, cluster) = dp_plan(CommConfig::default());
        // The plan's own sync over [0, 1, 2, 3] is priced first.
        assert_eq!(p.grad_syncs[0].group, vec![0, 1, 2, 3]);
        let syncs = Arc::make_mut(&mut p.grad_syncs);
        syncs.push(task(Collective::AllReduce, vec![0, 1, 2, 3, 3], Some(0)));
        p.grad_sync_schedule = None;
        assert_eq!(step(&p, &cluster), Err(invalid_group()));
    }

    #[test]
    fn in_a_bucketed_grad_sync_after_a_valid_one() {
        for algo in [Some(AllReduceAlgo::Ring), None] {
            let (mut p, cluster) = dp_plan(CommConfig::fused());
            assert_eq!(p.grad_syncs[0].group, vec![0, 1, 2, 3]);
            Arc::make_mut(&mut p.grad_syncs).push(task(
                Collective::AllReduce,
                vec![3, 0, 1, 2, 3],
                Some(0),
            ));
            let sched = p.grad_sync_schedule.as_mut().unwrap();
            sched.buckets.push(GradBucket {
                sync_index: 1,
                bytes: 1 << 20,
                wire_bytes: 1 << 20,
                ready_frac: 1.0,
                algo,
                layers: (0, 0),
            });
            assert_eq!(step(&p, &cluster), Err(invalid_group()), "algo {algo:?}");
        }
    }
}
