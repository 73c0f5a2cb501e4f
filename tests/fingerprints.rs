//! Stability and sensitivity of the content fingerprints behind the plan
//! cache. Stability: the same model / cluster / config content must hash
//! identically however it was produced (built twice, parsed from a spec,
//! round-tripped through the repo's own serialized forms). Sensitivity: any
//! planner-visible field change — one GPU's memory, one op's shape, the
//! efficiency constant — must change the key, or the cache would serve a
//! stale plan.

use whale::{models, strategies, Cluster, ClusterDelta, PlannerConfig, ScheduleKind};
use whale_fp::Fingerprint;
use whale_planner::PlanKey;

fn dp_ir(batch: usize, seq: usize) -> whale::WhaleIr {
    strategies::data_parallel(models::bert_base(batch, seq).unwrap(), batch).unwrap()
}

// --- stability -----------------------------------------------------------

#[test]
fn same_content_built_twice_hashes_identically() {
    // Model zoo: independent builder invocations.
    assert_eq!(
        models::resnet50(64).unwrap().fingerprint(),
        models::resnet50(64).unwrap().fingerprint()
    );
    assert_eq!(dp_ir(32, 64).fingerprint(), dp_ir(32, 64).fingerprint());
    assert_eq!(
        strategies::pipeline_with_dp(models::gpt2_xl(16, 64).unwrap(), 16, 4)
            .unwrap()
            .fingerprint(),
        strategies::pipeline_with_dp(models::gpt2_xl(16, 64).unwrap(), 16, 4)
            .unwrap()
            .fingerprint()
    );
    // Cluster: independent parses of one spec.
    let spec = "2x(8xV100)+2x(8xP100)";
    assert_eq!(
        Cluster::parse(spec).unwrap().fingerprint(),
        Cluster::parse(spec).unwrap().fingerprint()
    );
    // Config: independent constructions.
    assert_eq!(
        PlannerConfig::default().fingerprint(),
        PlannerConfig::default().fingerprint()
    );
}

#[test]
fn clone_round_trip_preserves_fingerprints() {
    let ir = dp_ir(32, 64);
    let cluster = Cluster::parse("8xV100+8xP100").unwrap();
    let config = PlannerConfig::default();
    assert_eq!(ir.fingerprint(), ir.clone().fingerprint());
    assert_eq!(cluster.fingerprint(), cluster.clone().fingerprint());
    assert_eq!(config.fingerprint(), config.clone().fingerprint());
}

#[test]
fn plan_key_display_round_trips() {
    // The CLI prints keys as `ir/cluster/config` hex; parsing that text back
    // must reproduce the exact fingerprints (the repo-native serialized form).
    let ir = dp_ir(32, 64);
    let cluster = Cluster::parse("4xV100").unwrap();
    let config = PlannerConfig::default();
    let key = PlanKey::new(&ir, &cluster, &config);
    let text = key.to_string();
    let parts: Vec<Fingerprint> = text
        .split('/')
        .map(|p| Fingerprint(u64::from_str_radix(p, 16).unwrap()))
        .collect();
    assert_eq!(parts, vec![key.ir, key.cluster, key.config]);
    // And the same inputs produce the same key on a second computation.
    assert_eq!(key, PlanKey::new(&ir, &cluster, &config));
}

#[test]
fn degradation_round_trips_to_the_original_fingerprint() {
    let base = Cluster::parse("4xV100").unwrap();
    let mut c = base.clone();
    c.apply_delta(ClusterDelta::GpuDegraded { id: 2, scale: 0.5 })
        .unwrap();
    assert_ne!(base.fingerprint(), c.fingerprint());
    c.apply_delta(ClusterDelta::GpuRestored { id: 2 }).unwrap();
    assert_eq!(base.fingerprint(), c.fingerprint());
}

// --- sensitivity ---------------------------------------------------------

#[test]
fn one_gpus_memory_changes_the_cluster_fingerprint() {
    // V100-32GB and V100-16GB differ only in memory capacity; swapping one
    // GPU's variant must re-key the cache.
    let a = Cluster::parse("4xV100").unwrap();
    let b = Cluster::parse("3xV100+1xV100_16GB").unwrap();
    assert_eq!(a.num_gpus(), b.num_gpus());
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn one_ops_shape_changes_the_ir_fingerprint() {
    // Same architecture, one tensor dimension different.
    assert_ne!(dp_ir(32, 64).fingerprint(), dp_ir(32, 128).fingerprint());
    assert_ne!(dp_ir(32, 64).fingerprint(), dp_ir(64, 64).fingerprint());
}

#[test]
fn annotation_changes_change_the_ir_fingerprint() {
    let g = || models::bert_base(32, 64).unwrap();
    let dp = strategies::data_parallel(g(), 32).unwrap();
    let pipe = strategies::pipeline_with_dp(g(), 32, 4).unwrap();
    let pipe8 = strategies::pipeline_with_dp(g(), 32, 8).unwrap();
    assert_ne!(dp.fingerprint(), pipe.fingerprint());
    assert_ne!(pipe.fingerprint(), pipe8.fingerprint(), "micro batches");
}

#[test]
fn every_planner_config_field_is_keyed() {
    let base = PlannerConfig::default();
    let variants = [
        PlannerConfig {
            efficiency: base.efficiency * 0.9,
            ..base.clone()
        },
        PlannerConfig {
            hardware_aware: !base.hardware_aware,
            ..base.clone()
        },
        PlannerConfig {
            outer_dp: base.outer_dp + 1,
            ..base.clone()
        },
        PlannerConfig {
            schedule: ScheduleKind::GPipe,
            ..base.clone()
        },
        PlannerConfig {
            training: whale::TrainingConfig {
                amp: true,
                ..base.training
            },
            ..base.clone()
        },
        PlannerConfig {
            comm: whale::CommConfig {
                fusion_bytes: base.comm.fusion_bytes + (1 << 20),
                ..base.comm
            },
            ..base.clone()
        },
        PlannerConfig {
            comm: whale::CommConfig {
                auto_algorithm: !base.comm.auto_algorithm,
                ..base.comm
            },
            ..base.clone()
        },
        PlannerConfig {
            comm: base.comm.dtype(whale::GradDtype::Bf16),
            ..base.clone()
        },
        PlannerConfig {
            comm: base.comm.dtype(whale::GradDtype::Fp8),
            ..base.clone()
        },
        PlannerConfig {
            comm: base.comm.compress(0.5),
            ..base.clone()
        },
    ];
    for v in &variants {
        assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
    }
    // Pairwise distinct too: bf16 and fp8 must not collide, nor dtype with
    // compression.
    for (i, a) in variants.iter().enumerate() {
        for b in variants.iter().skip(i + 1) {
            assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn comm_config_fingerprint_changes_iff_a_field_changes() {
    // Spelling out the defaults is content-identical — same key.
    let base = PlannerConfig::default();
    let explicit = PlannerConfig {
        comm: base.comm.dtype(whale::GradDtype::Fp32).compress(1.0),
        ..base.clone()
    };
    assert_eq!(base.fingerprint(), explicit.fingerprint());
    // And any real precision change re-keys (cache must not serve an fp32
    // plan to a bf16 request).
    let bf16 = PlannerConfig {
        comm: base.comm.dtype(whale::GradDtype::Bf16),
        ..base.clone()
    };
    assert_ne!(base.fingerprint(), bf16.fingerprint());
}

#[test]
fn cluster_topology_is_keyed_not_just_the_gpu_census() {
    // Identical GPU multiset, different node layout: interconnects differ,
    // so the planner can produce different plans — the key must differ.
    let a = Cluster::parse("2x(8xV100)").unwrap();
    let b = Cluster::parse("4x(4xV100)").unwrap();
    assert_eq!(a.num_gpus(), b.num_gpus());
    assert_ne!(a.fingerprint(), b.fingerprint());
}
