//! Determinism guarantees of the planner/simulator fast path:
//!
//! * `simulate_step` is a pure function of its plan — repeated runs match;
//! * `auto_parallel` returns one fixed report regardless of thread count
//!   (guards the deterministic merge behind the parallel candidate search);
//! * gradient-sync serialization does not depend on the insertion order of
//!   equal-ready-time collectives (the explicit min-gpu-id tie-break).

use whale::{auto_parallel_opts, models, strategies, SearchOptions, Session};
use whale_graph::TrainingConfig;
use whale_hardware::Collective;
use whale_planner::{CollectiveTask, DeviceWork, ExecutionPlan, PlannedStage};

#[test]
fn simulate_step_is_repeatable() {
    let session = Session::on_cluster("8xV100+8xP100").unwrap();
    let ir = strategies::pipeline_with_dp(models::bert_base(64, 64).unwrap(), 64, 8).unwrap();
    let plan = session.plan(&ir).unwrap();
    let first = session.step_plan(&plan).unwrap();
    let second = session.step_plan(&plan).unwrap();
    assert_eq!(first, second, "simulate_step must be deterministic");
}

#[test]
fn auto_parallel_report_is_thread_count_invariant() {
    let session = Session::on_cluster("2x(4xV100)").unwrap();
    let build = || Ok(models::bert_base(128, 64).expect("build"));
    let serial = auto_parallel_opts(
        &session,
        128,
        &SearchOptions {
            search_threads: 1,
            ..SearchOptions::default()
        },
        build,
    )
    .unwrap();
    let parallel = auto_parallel_opts(
        &session,
        128,
        &SearchOptions {
            search_threads: 8,
            ..SearchOptions::default()
        },
        build,
    )
    .unwrap();
    assert_eq!(
        serial.chosen, parallel.chosen,
        "thread count changed the winning strategy"
    );
    assert_eq!(
        serial.candidates, parallel.candidates,
        "thread count changed candidate ordering or contents"
    );
    assert_eq!(serial, parallel);
}

/// One stage whose parameters sync in two disjoint GPU groups (the shape a
/// nested split×replica TaskGraph produces): both collectives become ready
/// at exactly the same instant — the stage's backward drain — so only the
/// explicit min-gpu-id tie-break keeps the serialization stable. Build the
/// same plan with the syncs pushed in opposite orders and demand identical
/// outcomes.
#[test]
fn grad_sync_ties_are_insertion_order_independent() {
    let sync = |group: [usize; 2]| CollectiveTask {
        kind: Collective::AllReduce,
        group: group.to_vec(),
        bytes: 256 << 20,
        label: format!("grad sync shard {}", group[0]),
        stage: Some(0),
    };
    let plan = |syncs: Vec<CollectiveTask>| ExecutionPlan {
        name: "tie-break".into(),
        global_batch: 32,
        num_micro_batches: 1,
        stages: std::sync::Arc::new(vec![PlannedStage {
            index: 0,
            devices: (0..4)
                .map(|gpu| DeviceWork {
                    gpu,
                    fw_flops_per_micro: 4e12,
                    mem_traffic_per_micro: 0.0,
                    mem_bytes: 4 << 30,
                    samples_per_step: 16,
                })
                .collect(),
            send_bytes_per_micro: 0,
            collectives_per_micro: vec![],
            param_bytes: 256 << 20,
            dp_degree: 2,
        }]),
        grad_syncs: std::sync::Arc::new(syncs),
        grad_sync_schedule: None,
        training: TrainingConfig::default(),
        efficiency: 0.45,
    };
    let session = Session::on_cluster("1x(4xV100)").unwrap();
    let forward = plan(vec![sync([0, 1]), sync([2, 3])]);
    let reversed = plan(vec![sync([2, 3]), sync([0, 1])]);
    // Both syncs genuinely tie: same stage shape → same backward-drain time.
    let a = session.step_plan(&forward).unwrap();
    let b = session.step_plan(&reversed).unwrap();
    assert_eq!(a, b, "grad-sync insertion order leaked into the outcome");
    assert!(a.stats.sync_time_total > 0.0);
}
