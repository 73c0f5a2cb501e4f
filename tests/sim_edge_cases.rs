//! Simulator boundary conditions: degenerate pipelines, single micro
//! batches, co-located stages, determinism under reordering.

use whale::{models, strategies, ScheduleKind, Session, WhaleError};
use whale_sim::{SimError, TaskKind, MAX_TASKS};

#[test]
fn pipeline_with_one_micro_batch_is_sequential() {
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let ir = strategies::pipeline_only(models::bert_base(16, 64).unwrap(), 16, 1).unwrap();
    let out = session.step(&ir).unwrap();
    let records = out.timeline.records();
    // With one micro batch the pipeline degenerates: 4 stages × (F + B).
    assert_eq!(records.len(), 8);
    // Fully serial: no two tasks overlap.
    for (i, a) in records.iter().enumerate() {
        for b in &records[i + 1..] {
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
    let records = session.step(&ir).unwrap().timeline.records();
    // Stage 0's F and stage 1's work overlap somewhere.
    let f0: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.kind, TaskKind::Forward { stage: 0, .. }))
        .collect();
    let s1: Vec<_> = records.iter().filter(|r| r.kind.stage() == 1).collect();
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
    let sum_durations: f64 = out.timeline.records().iter().map(|r| r.end - r.start).sum();
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
fn sync_overlap_outside_the_unit_interval_is_a_typed_error() {
    // The post-plan search bound is admissible only for an overlap in
    // [0, 1], so the simulator refuses any other value before it runs.
    let ir = strategies::data_parallel(models::bert_base(16, 64).unwrap(), 16).unwrap();
    let session = Session::on_cluster("4xV100,4xP100").unwrap();
    for bad in [1.5, -1.0, f64::NAN] {
        let want = SimError::SyncOverlapOutOfRange(bad).to_string();
        match session.clone().sync_overlap(bad).step(&ir) {
            Err(WhaleError::Sim(msg)) => assert_eq!(msg, want),
            other => panic!("sync_overlap {bad}: {:?}", other.map(|o| o.stats.step_time)),
        }
    }
    for ok in [0.0, 1.0] {
        session.clone().sync_overlap(ok).step(&ir).unwrap();
    }
}

#[test]
fn a_step_with_too_many_tasks_is_a_typed_error() {
    // 8 stages × 2 × micro batches: 2^62 overflows usize, and
    // MAX_TASKS / 16 + 1 is 16 tasks over the cap.
    let session = Session::on_cluster("1x(8xV100)").unwrap();
    let over = MAX_TASKS / 16 + 1;
    for (micro, tasks) in [(1 << 62, None), (over, Some(16 * over))] {
        let ir = strategies::pipeline_only(models::bert_base(16, 64).unwrap(), 16, micro).unwrap();
        let want = SimError::TooManyTasks {
            stages: 8,
            micro_batches: micro,
            tasks,
        }
        .to_string();
        match session.step(&ir) {
            Err(WhaleError::Sim(msg)) => assert_eq!(msg, want),
            other => panic!("micro {micro}: {:?}", other.map(|o| o.stats.step_time)),
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

/// Two co-located one-device stages on GPU 0 whose model state sums past
/// `u64::MAX`: the per-GPU total saturates there instead of wrapping to a
/// small number, so the plan reads as out of memory everywhere.
#[test]
fn per_gpu_memory_totals_saturate_instead_of_wrapping() {
    use std::sync::Arc;
    use whale::{Cluster, SimConfig, TrainingConfig};
    use whale_planner::{DeviceWork, ExecutionPlan, PlannedStage};
    use whale_sim::simulate_step;

    let stage = |index| PlannedStage {
        index,
        devices: vec![DeviceWork {
            gpu: 0,
            fw_flops_per_micro: 1e9,
            mem_traffic_per_micro: 0.0,
            mem_bytes: (1 << 63) + (1 << 30),
            samples_per_step: 8,
        }],
        send_bytes_per_micro: 0,
        collectives_per_micro: vec![],
        param_bytes: 1 << 20,
        dp_degree: 1,
    };
    let plan = ExecutionPlan {
        name: "saturating".into(),
        global_batch: 8,
        num_micro_batches: 1,
        stages: Arc::new(vec![stage(0), stage(1)]),
        grad_syncs: Arc::new(vec![]),
        grad_sync_schedule: None,
        training: TrainingConfig::default(),
        efficiency: 0.45,
    };
    let cluster = Cluster::parse("1x(2xV100)").unwrap();
    assert_eq!(
        plan.memory_totals(&cluster).unwrap(),
        vec![Some(u64::MAX), None]
    );
    assert!(!plan.memory_feasible(&cluster).unwrap());
    let stats = simulate_step(&plan, &cluster, &SimConfig::default())
        .unwrap()
        .stats;
    assert_eq!(stats.oom_gpus, vec![0]);
    assert_eq!(stats.per_gpu[0].mem_bytes, u64::MAX);
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

/// Hand-built plans where a step that walks each stage's device rows once,
/// adding up busy time, sample shares, memory totals and the optimizer term
/// as it prices them, could go wrong. Each case pins a `whale_fp` digest of
/// its `StepOutcome`'s `{:?}`, as `tests/sim_equivalence.rs` does, so a
/// digest moves if and only if some output bit moves. The digests were
/// recorded while the simulator still walked the rows once per phase.
/// After an intended output change, regenerate the table with
///
/// ```text
/// cargo test --offline --test sim_edge_cases -- --ignored --nocapture print_step_goldens
/// ```
///
/// and paste the printed rows over `GOLDENS`.
mod row_walk_goldens {
    use std::fmt::{self, Write};
    use std::sync::Arc;

    use whale::{Cluster, SimConfig, TrainingConfig, ZeroStage};
    use whale_fp::Fingerprinter;
    use whale_hardware::{AllReduceAlgo, Collective};
    use whale_planner::{
        CollectiveTask, DeviceWork, ExecutionPlan, GradBucket, GradDtype, GradSyncSchedule,
        PlannedStage, SyncMode,
    };
    use whale_sim::simulate_step;

    /// `(case, StepOutcome digest)`, in the order `cases` lists them.
    const GOLDENS: &[(&str, &str)] = &[
        ("gpu listed twice in one stage", "59fbcc872db10e87"),
        ("alternating V100/P100 zero2", "b2cc705031b12717"),
        ("alternating V100/P100 zero3 offload", "603475046759dc3a"),
        ("groups A B A B legacy", "40c02538c928d899"),
        ("groups A B A B bucketed", "159f814f400034fc"),
    ];

    fn row(gpu: usize, fw_flops_per_micro: f64, mem_bytes: u64, samples: usize) -> DeviceWork {
        DeviceWork {
            gpu,
            fw_flops_per_micro,
            mem_traffic_per_micro: fw_flops_per_micro / 97.0,
            mem_bytes,
            samples_per_step: samples,
        }
    }

    fn task(kind: Collective, group: &[usize], bytes: u64, stage: usize) -> CollectiveTask {
        CollectiveTask {
            kind,
            group: group.to_vec(),
            bytes,
            label: "hand-built".into(),
            stage: Some(stage),
        }
    }

    fn stage(
        index: usize,
        devices: Vec<DeviceWork>,
        collectives_per_micro: Vec<CollectiveTask>,
        dp_degree: usize,
    ) -> PlannedStage {
        PlannedStage {
            index,
            devices,
            send_bytes_per_micro: 3 << 20,
            collectives_per_micro,
            param_bytes: (1 << 28) + 12_345,
            dp_degree,
        }
    }

    fn plan(
        stages: Vec<PlannedStage>,
        grad_syncs: Vec<CollectiveTask>,
        schedule: Option<GradSyncSchedule>,
        training: TrainingConfig,
    ) -> ExecutionPlan {
        ExecutionPlan {
            name: "row-walk".into(),
            global_batch: 48,
            num_micro_batches: 3,
            stages: Arc::new(stages),
            grad_syncs: Arc::new(grad_syncs),
            grad_sync_schedule: schedule,
            training,
            efficiency: 0.45,
        }
    }

    /// One bucket per sync, then a second, earlier one for sync 0.
    fn schedule(num_syncs: usize, grad_dtype: GradDtype, compress_ratio: f64) -> GradSyncSchedule {
        let bucket = |sync_index, ready_frac, algo| GradBucket {
            sync_index,
            bytes: 5 << 20,
            wire_bytes: (5 << 20) / 2,
            ready_frac,
            algo,
            layers: (0, 1),
        };
        let mut buckets: Vec<GradBucket> = (0..num_syncs)
            .map(|i| bucket(i, 1.0, (i % 2 == 0).then_some(AllReduceAlgo::Ring)))
            .collect();
        buckets.push(bucket(0, 0.375, Some(AllReduceAlgo::Tree)));
        GradSyncSchedule {
            mode: SyncMode::Bucketed,
            fusion_bytes: 25 << 20,
            grad_dtype,
            compress_ratio,
            buckets,
        }
    }

    /// GPU 0 is listed twice in stage 0, with FLOPs for which adding every
    /// row's forward share before any row's backward share rounds
    /// differently from adding each row's two shares in turn.
    fn repeated_gpu() -> (ExecutionPlan, Cluster) {
        let stages = vec![
            stage(
                0,
                vec![
                    row(0, 3.300_000_1e11, 5 << 30, 32),
                    row(1, 2.3e9, 2 << 30, 16),
                    row(0, 1.1e10, 3 << 30, 16),
                ],
                vec![],
                2,
            ),
            stage(
                1,
                vec![row(1, 7.77e10, 4 << 30, 16), row(0, 5.1e10, 1 << 30, 16)],
                vec![],
                2,
            ),
        ];
        let syncs = vec![task(Collective::AllReduce, &[0, 1], 1 << 26, 0)];
        let p = plan(stages, syncs, None, TrainingConfig::default());
        (p, Cluster::parse("1x(2xV100)").unwrap())
    }

    /// Rows alternate V100 and P100, so every row breaks a run of equal
    /// rows and the optimizer term is priced at every model change. A bf16
    /// compressed schedule charges master weights, loss scaling and a
    /// residual per row.
    fn alternating_models(zero: ZeroStage, offload: bool) -> (ExecutionPlan, Cluster) {
        let groups = [[0, 4, 1, 5], [2, 6, 3, 7]];
        let stages = groups
            .iter()
            .enumerate()
            .map(|(s, ids)| {
                let devices = ids
                    .iter()
                    .map(|&gpu| row(gpu, 4.1e11 + 1e9 * (s as f64), 9 << 30, 12))
                    .collect();
                stage(s, devices, vec![], 4)
            })
            .collect();
        let syncs = groups
            .iter()
            .enumerate()
            .map(|(s, ids)| task(Collective::AllReduce, ids, 1 << 28, s))
            .collect();
        let training = TrainingConfig {
            zero,
            offload,
            ..TrainingConfig::default()
        };
        let p = plan(
            stages,
            syncs,
            Some(schedule(2, GradDtype::Bf16, 0.5)),
            training,
        );
        (p, Cluster::parse("1x(4xV100)+1x(4xP100)").unwrap())
    }

    /// Stage collectives and grad syncs over two groups, looked up in the
    /// order A, B, A, B.
    fn two_groups(bucketed: bool) -> (ExecutionPlan, Cluster) {
        const A: &[usize] = &[0, 1, 2, 3];
        const B: &[usize] = &[1, 5];
        let all = || (0..8).map(|gpu| row(gpu, 2e11, 6 << 30, 6)).collect();
        let stages = vec![
            stage(
                0,
                all(),
                vec![
                    task(Collective::AllToAll, A, 8 << 20, 0),
                    task(Collective::AllGather, B, 2 << 20, 0),
                ],
                1,
            ),
            stage(
                1,
                all(),
                vec![
                    task(Collective::AllToAll, A, 8 << 20, 1),
                    task(Collective::Broadcast, B, 2 << 20, 1),
                ],
                1,
            ),
        ];
        let syncs = vec![
            task(Collective::AllReduce, A, 1 << 27, 0),
            task(Collective::AllReduce, B, 1 << 26, 0),
            task(Collective::AllReduce, A, 1 << 27, 1),
            task(Collective::AllReduce, B, 1 << 26, 1),
        ];
        let sched = bucketed.then(|| schedule(4, GradDtype::Fp32, 1.0));
        let p = plan(stages, syncs, sched, TrainingConfig::default());
        (p, Cluster::parse("2x(4xV100)").unwrap())
    }

    fn cases() -> Vec<(&'static str, (ExecutionPlan, Cluster))> {
        vec![
            ("gpu listed twice in one stage", repeated_gpu()),
            (
                "alternating V100/P100 zero2",
                alternating_models(ZeroStage::Gradients, false),
            ),
            (
                "alternating V100/P100 zero3 offload",
                alternating_models(ZeroStage::Parameters, true),
            ),
            ("groups A B A B legacy", two_groups(false)),
            ("groups A B A B bucketed", two_groups(true)),
        ]
    }

    /// Streams `{:?}` output straight into a fingerprint.
    struct FpWriter(Fingerprinter);

    impl Write for FpWriter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.push_bytes(s.as_bytes());
            Ok(())
        }
    }

    fn step_digest(label: &str, plan: &ExecutionPlan, cluster: &Cluster) -> String {
        let outcome = simulate_step(plan, cluster, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
        let mut w = FpWriter(Fingerprinter::new("sim-step/outcome"));
        write!(w, "{outcome:?}").unwrap();
        w.0.finish().to_string()
    }

    #[test]
    fn steps_match_their_golden_digests() {
        let cases = cases();
        assert_eq!(cases.len(), GOLDENS.len());
        for ((label, (plan, cluster)), (want_label, want)) in cases.iter().zip(GOLDENS) {
            assert_eq!(label, want_label);
            assert_eq!(
                step_digest(label, plan, cluster),
                *want,
                "{label}: golden digest moved"
            );
        }
    }

    #[test]
    #[ignore = "prints the GOLDENS table; run it to regenerate after an intended change"]
    fn print_step_goldens() {
        for (label, (plan, cluster)) in cases() {
            println!(
                "    ({label:?}, {:?}),",
                step_digest(label, &plan, &cluster)
            );
        }
    }
}

/// The text both timeline exporters print, pinned as `whale_fp` digests of
/// `ascii_timeline(&out, 100)` and `chrome_trace(&out)`: pipelines under
/// every schedule, a heterogeneous pipeline and a one-micro-batch
/// data-parallel step. The digests were recorded while a step still built
/// its start-ordered timeline eagerly. After an intended output change,
/// regenerate the table with
///
/// ```text
/// cargo test --offline --test sim_edge_cases -- --ignored --nocapture print_exporter_goldens
/// ```
///
/// and paste the printed rows over `GOLDENS`.
mod exporter_goldens {
    use whale::{models, strategies, ScheduleKind, Session, StepOutcome};
    use whale_fp::Fingerprinter;
    use whale_sim::{ascii_timeline, chrome_trace};

    /// `(case, ascii_timeline digest, chrome_trace digest)`, in the order
    /// `cases` lists them.
    const GOLDENS: &[(&str, &str, &str)] = &[
        (
            "4-stage bert-base pipeline BackwardFirst",
            "1308894606909145",
            "a099b9578d4058c9",
        ),
        (
            "4-stage bert-base pipeline GPipe",
            "ed664fb1a928df61",
            "b585e62b9e0d29d8",
        ),
        (
            "4-stage bert-base pipeline AsyncNoFlush",
            "1308894606909145",
            "a099b9578d4058c9",
        ),
        (
            "4xV100,4xP100 bert-base pipeline",
            "7028e376a6fd13bd",
            "0a69dbbd47cd1290",
        ),
        (
            "one-micro-batch resnet50 data parallel",
            "3f94056e9a7f7a31",
            "b32c2e21779c0ca5",
        ),
    ];

    fn cases() -> Vec<(String, StepOutcome)> {
        let pipeline =
            || strategies::pipeline_only(models::bert_base(32, 64).unwrap(), 32, 8).unwrap();
        let mut cases: Vec<(String, StepOutcome)> = [
            ScheduleKind::BackwardFirst,
            ScheduleKind::GPipe,
            ScheduleKind::AsyncNoFlush,
        ]
        .into_iter()
        .map(|schedule| {
            let session = Session::on_cluster("1x(4xV100)")
                .unwrap()
                .schedule(schedule);
            (
                format!("4-stage bert-base pipeline {schedule:?}"),
                session.step(&pipeline()).unwrap(),
            )
        })
        .collect();
        let hetero = Session::on_cluster("4xV100,4xP100").unwrap();
        cases.push((
            "4xV100,4xP100 bert-base pipeline".into(),
            hetero.step(&pipeline()).unwrap(),
        ));
        let dp = strategies::data_parallel(models::resnet50(64).unwrap(), 64).unwrap();
        cases.push((
            "one-micro-batch resnet50 data parallel".into(),
            Session::on_cluster("1x(4xV100)")
                .unwrap()
                .step(&dp)
                .unwrap(),
        ));
        cases
    }

    fn digest(domain: &str, text: &str) -> String {
        Fingerprinter::new(domain)
            .push_bytes(text.as_bytes())
            .finish()
            .to_string()
    }

    fn digests(out: &StepOutcome) -> (String, String) {
        (
            digest("sim-trace/ascii", &ascii_timeline(out, 100)),
            digest("sim-trace/chrome", &chrome_trace(out)),
        )
    }

    #[test]
    fn exporters_match_their_golden_digests() {
        let cases = cases();
        assert_eq!(cases.len(), GOLDENS.len());
        for ((label, out), (want_label, ascii, chrome)) in cases.iter().zip(GOLDENS) {
            assert_eq!(label, want_label);
            let (got_ascii, got_chrome) = digests(out);
            assert_eq!(got_ascii, *ascii, "{label}: ascii_timeline digest moved");
            assert_eq!(got_chrome, *chrome, "{label}: chrome_trace digest moved");
        }
    }

    #[test]
    #[ignore = "prints the GOLDENS table; run it to regenerate after an intended change"]
    fn print_exporter_goldens() {
        for (label, out) in cases() {
            let (ascii, chrome) = digests(&out);
            println!("    ({label:?}, {ascii:?}, {chrome:?}),");
        }
    }
}
