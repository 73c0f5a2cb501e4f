//! Micro-benchmarks for the discrete-event simulator: step simulation
//! across micro-batch counts, collective cost models, and the scaling-law
//! trainer.
//!
//! Formerly a Criterion bench; now runs on the in-repo harness
//! (`whale_bench::time_fn`) so the build needs no registry access.

use std::hint::black_box;
use whale::{models, strategies, Session};
use whale_bench::{header, time_fn};
use whale_hardware::{AllReduceSelector, Cluster, GpuModel};
use whale_sim::{simulate_step, simulate_training, LossModel, SimConfig};

fn main() {
    let (warmup, iters) = (3, 15);

    header(
        "sim_bench",
        "simulator hot paths (median/p95 over timed iterations)",
    );

    for micros in [4usize, 16, 35] {
        let session = Session::on_cluster("4x(8xV100)").unwrap().outer_dp(4);
        let ir = strategies::pipeline_with_dp(models::bert_large(128, 128).unwrap(), 128, micros)
            .unwrap();
        let plan = session.plan(&ir).unwrap();
        let cluster = session.cluster().clone();
        time_fn(
            &format!("simulate_step/pipeline8_micro{micros}"),
            warmup,
            iters,
            || black_box(simulate_step(&plan, &cluster, &SimConfig::default()).unwrap()),
        )
        .print();
    }

    let cluster = Cluster::homogeneous(GpuModel::V100_32GB, 32, 8);
    let group: Vec<usize> = (0..256).collect();
    // Walking the group and pricing one payload.
    time_fn("hierarchical_allreduce_256", warmup, iters, || {
        black_box(
            AllReduceSelector::new(&cluster, &group)
                .unwrap()
                .hierarchical(1 << 30),
        )
    })
    .print();

    let session = Session::on_cluster("1x(8xV100)").unwrap();
    let ir = strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap();
    let plan = session.plan(&ir).unwrap();
    let cluster = session.cluster().clone();
    let loss = LossModel::for_params(25e6);
    time_fn("training_run_64ckpt", warmup, iters, || {
        black_box(
            simulate_training(&plan, &cluster, &SimConfig::default(), &loss, 1e7, 64, 3).unwrap(),
        )
    })
    .print();
}
