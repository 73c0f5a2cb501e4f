//! Error paths and boundary conditions in the planner: a production system
//! must fail loudly and precisely, never silently misplan.

use whale::{
    auto_parallel, auto_parallel_search, models, strategies, SearchOptions, Session, WhaleError,
};
use whale_hardware::{Cluster, VirtualDevice};
use whale_ir::{Annotator, IrError, Primitive};
use whale_planner::{plan, DeviceAssignment, PlanError, PlannerConfig};

fn dp_ir(batch: usize) -> whale::WhaleIr {
    strategies::data_parallel(models::resnet50(batch).unwrap(), batch).unwrap()
}

#[test]
fn batch_smaller_than_gpu_count_still_plans() {
    // 3 samples over 8 GPUs: some replicas receive zero samples — the plan
    // must still be valid and conserve the batch.
    let session = Session::on_cluster("1x(8xV100)").unwrap();
    let p = session.plan(&dp_ir(3)).unwrap();
    let total: usize = p.stages[0].devices.iter().map(|d| d.samples_per_step).sum();
    assert_eq!(total, 3);
    let out = session.step_plan(&p).unwrap();
    assert!(out.stats.step_time > 0.0);
}

#[test]
fn outer_dp_must_divide_gpu_count() {
    let g = models::bert_base(30, 64).unwrap();
    let ir = Annotator::new(g, 30)
        .outer_replica()
        .auto_pipeline(4)
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("1x(6xV100)").unwrap();
    let cfg = PlannerConfig {
        outer_dp: 4, // 6 GPUs not divisible into 4 replicas
        ..PlannerConfig::default()
    };
    assert!(matches!(
        plan(&ir, &cluster, &cfg).unwrap_err(),
        PlanError::BadConfig(_)
    ));
}

#[test]
fn vd_count_must_match_taskgraph_count() {
    let g = models::bert_base(16, 64).unwrap();
    let n = g.len();
    let ir = Annotator::new(g, 16)
        .annotate_range(0, n / 2, vec![Primitive::Replica])
        .unwrap()
        .annotate_range(n / 2, n, vec![Primitive::Replica])
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("1x(4xV100)").unwrap();
    let cfg = PlannerConfig {
        devices: DeviceAssignment::PerTaskGraph(vec![
            VirtualDevice::new(vec![0, 1]).unwrap(), // only one VD for two TGs
        ]),
        ..PlannerConfig::default()
    };
    assert!(matches!(
        plan(&ir, &cluster, &cfg).unwrap_err(),
        PlanError::BadDeviceAssignment(_)
    ));
}

#[test]
fn vd_outside_cluster_rejected() {
    let g = models::resnet50(16).unwrap();
    let ir = Annotator::new(g, 16)
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("1x(2xV100)").unwrap();
    let cfg = PlannerConfig {
        devices: DeviceAssignment::PerTaskGraph(vec![VirtualDevice::new(vec![0, 1, 7]).unwrap()]),
        ..PlannerConfig::default()
    };
    assert!(plan(&ir, &cluster, &cfg).is_err());
}

#[test]
fn micro_batches_exceeding_batch_still_plan() {
    // 4 samples, 16 micro batches: micro batches are fractional-sample but
    // the plan stays consistent (FLOPs conserve).
    let g = models::bert_base(4, 64).unwrap();
    let ir = Annotator::new(g, 4)
        .auto_pipeline(16)
        .unwrap()
        .finish()
        .unwrap();
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let p = session.plan(&ir).unwrap();
    assert_eq!(p.num_micro_batches, 16);
    let out = session.step_plan(&p).unwrap();
    assert!(out.stats.step_time > 0.0);
}

#[test]
fn single_gpu_everything_degenerates_gracefully() {
    let session = Session::on_cluster("1xV100").unwrap();
    let p = session.plan(&dp_ir(32)).unwrap();
    assert_eq!(p.stages[0].devices.len(), 1);
    assert!(p.grad_syncs.is_empty(), "no peers to sync with");
    let out = session.step_plan(&p).unwrap();
    assert_eq!(out.stats.sync_time_total, 0.0);
    assert_eq!(out.stats.per_gpu.len(), 1);
}

#[test]
fn more_stages_than_ops_fails_cleanly() {
    // A 4-op model cannot fill 8 pipeline stages.
    let mut b = whale_graph::GraphBuilder::new("tiny");
    let x = b.input("x", &[4, 8]).unwrap();
    let h = b.dense("fc1", x, 4, 8, 8).unwrap();
    b.dense("fc2", h, 4, 8, 8).unwrap();
    let ir = Annotator::new(b.finish(), 4)
        .auto_pipeline(2)
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("1x(8xV100)").unwrap();
    assert!(plan(&ir, &cluster, &PlannerConfig::default()).is_err());
}

#[test]
fn infeasible_memory_is_an_explicit_error_under_awareness() {
    // GPT-2 XL DP replicas cannot fit 16 GB P100s even after PSVF: the
    // planner must say Infeasible, not emit a doomed plan.
    let g = models::gpt2_xl(64, 256).unwrap();
    let ir = Annotator::new(g, 64)
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("1x(4xP100)").unwrap();
    let err = plan(&ir, &cluster, &PlannerConfig::default()).unwrap_err();
    assert!(matches!(err, PlanError::Infeasible(_)), "got {err:?}");
}

#[test]
fn baseline_mode_emits_the_doomed_plan_for_comparison() {
    // With hardware awareness off (the paper's baseline), the planner does
    // not attempt PSVF; the simulator then reports the OOM.
    let g = models::gpt2_xl(64, 256).unwrap();
    let ir = Annotator::new(g, 64)
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap();
    let session = Session::on_cluster("1x(4xP100)")
        .unwrap()
        .hardware_aware(false);
    let p = session.plan(&ir).unwrap();
    let out = session.step_plan(&p).unwrap();
    assert!(out.stats.has_oom());
}

#[test]
fn zero_global_batch_is_rejected_or_empty() {
    // A step needs at least one sample: annotation refuses a zero global
    // batch with a typed error instead of producing an inert plan.
    let g = models::resnet50(1).unwrap();
    let err = Annotator::new(g.clone(), 0)
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap_err();
    assert_eq!(err, IrError::ZeroGlobalBatch);
    // An IR that reaches the planner with a zero batch by another route
    // fails validation there too, never a panic.
    let mut ir = Annotator::new(g, 1)
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap();
    ir.global_batch = 0;
    let cluster = Cluster::parse("1x(2xV100)").unwrap();
    assert!(matches!(
        plan(&ir, &cluster, &PlannerConfig::default()).unwrap_err(),
        PlanError::BadIr(_)
    ));
}

#[test]
fn zero_global_batch_is_a_typed_error_at_every_entry_point() {
    let session = Session::on_cluster("1x(2xV100)").unwrap();
    let mut ir = dp_ir(1);
    ir.global_batch = 0;
    assert!(matches!(session.plan(&ir), Err(WhaleError::Plan(_))));
    // Both strategy searches refuse before building a single candidate.
    let never = || -> whale::Result<whale::Graph> { panic!("no candidate may be built") };
    assert!(matches!(
        auto_parallel(&session, 0, never),
        Err(WhaleError::Ir(_))
    ));
    assert!(matches!(
        auto_parallel_search(&session, 0, &SearchOptions::default(), never),
        Err(WhaleError::Ir(_))
    ));
}

#[test]
fn vd_reaching_into_another_plan_replica_is_a_bad_device_assignment() {
    // Two nodes, so `outer_replica` makes two plan replicas: GPUs {0, 1}
    // and {2, 3}. A replica-0 virtual device naming GPU 2 reaches into
    // replica 1.
    let g = models::resnet50(16).unwrap();
    let ir = Annotator::new(g, 16)
        .outer_replica()
        .replicate_all()
        .unwrap()
        .finish()
        .unwrap();
    let cluster = Cluster::parse("2x(2xV100)").unwrap();
    let assign = |ids: Vec<usize>| PlannerConfig {
        devices: DeviceAssignment::PerTaskGraph(vec![VirtualDevice::new(ids).unwrap()]),
        ..PlannerConfig::default()
    };
    match plan(&ir, &cluster, &assign(vec![0, 2])) {
        Err(PlanError::BadDeviceAssignment(m)) => {
            assert!(m.contains("GPU 2 outside plan replica 0"), "{m}")
        }
        other => panic!("expected BadDeviceAssignment, got {other:?}"),
    }
    // The same layout inside replica 0 plans, shifted onto replica 1.
    let p = plan(&ir, &cluster, &assign(vec![0, 1])).unwrap();
    assert_eq!(p.all_gpus(), vec![0, 1, 2, 3]);
}

#[test]
fn ledger_of_an_unvalidated_plan_never_allocates_by_gpu_id() {
    // `memory_ledger` is public and takes plans no cluster has validated:
    // a GPU id near `usize::MAX` must cost an entry, not an id-sized table.
    let mut p = plan(
        &dp_ir(8),
        &Cluster::parse("1x(2xV100)").unwrap(),
        &PlannerConfig::default(),
    )
    .unwrap();
    let far = usize::MAX - 1;
    std::sync::Arc::make_mut(&mut p.stages)[0].devices[1].gpu = far;
    let ledger = p.memory_ledger();
    let gpus: Vec<usize> = ledger
        .entries
        .iter()
        .filter(|e| e.component == whale_planner::LedgerComponent::RuntimeOverhead)
        .map(|e| e.gpu)
        .collect();
    assert_eq!(
        gpus,
        vec![0, far],
        "overhead once per GPU, in first-seen order"
    );
    assert!(ledger.entries.iter().any(|e| e.gpu == far && e.bytes > 0));
}

#[test]
fn comm_opt_buckets_a_shared_taskgraph_index_by_the_first_taskgraph() {
    use whale_planner::{compile, CommConfig, CommOpt, PassContext, PlannerPass};
    // Two plan replicas of a two-stage pipeline: each stage's gradients
    // sync across the replicas, bucketed along that stage's layers.
    let ir = strategies::pipeline_with_dp(models::bert_base(16, 64).unwrap(), 16, 4).unwrap();
    let cluster = Cluster::parse("2x(2xV100)").unwrap();
    let config = PlannerConfig {
        comm: CommConfig::fused(),
        ..PlannerConfig::default()
    };
    let cx = PassContext {
        ir: &ir,
        cluster: &cluster,
        config: &config,
    };
    let state = compile(&ir, &cluster, &config).unwrap();
    let schedule =
        |state: &whale_planner::CompileState| state.plan_arc().grad_sync_schedule.clone().unwrap();
    let tgs = &state.placement.as_ref().unwrap().task_graphs;
    assert_eq!(tgs.len(), 2);
    let layers_of = |tg: &whale::TaskGraph| -> Vec<usize> {
        tg.ops
            .iter()
            .map(|&id| ir.graph.op(id).unwrap().layer.unwrap_or(0))
            .collect()
    };
    let (stage1_lo, stage1_hi) = {
        let l = layers_of(&tgs[1]);
        (*l.iter().min().unwrap(), *l.iter().max().unwrap())
    };
    // An impostor TaskGraph with stage 0's index and stage 1's ops.
    let impostor =
        whale::TaskGraph::new(tgs[0].index, tgs[1].ops.clone(), tgs[1].strategies.clone());

    // Listed after the real stage 0: the real one comes first and wins.
    let mut after = state.clone();
    after
        .placement
        .as_mut()
        .unwrap()
        .task_graphs
        .push(impostor.clone());
    CommOpt.run(&cx, &mut after).unwrap();
    assert_eq!(schedule(&after), schedule(&state));

    // Listed first: stage 0's syncs now bucket along the impostor's layers.
    let mut before = state.clone();
    before
        .placement
        .as_mut()
        .unwrap()
        .task_graphs
        .insert(0, impostor);
    CommOpt.run(&cx, &mut before).unwrap();
    let plan = before.plan_arc();
    let sched = schedule(&before);
    let mut stage0_buckets = 0;
    for b in &sched.buckets {
        if plan.grad_syncs[b.sync_index].stage == Some(tgs[0].index) {
            stage0_buckets += 1;
            assert!(
                stage1_lo <= b.layers.0 && b.layers.1 <= stage1_hi,
                "bucket layers {:?} outside the impostor's {stage1_lo}..={stage1_hi}",
                b.layers
            );
        }
    }
    assert!(stage0_buckets > 0);
    assert_ne!(sched, schedule(&state));
}
