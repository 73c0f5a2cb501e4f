//! Stability and sensitivity of the content fingerprints behind the plan
//! cache. Stability: the same model / cluster / config content must hash
//! identically however it was produced (built twice, parsed from a spec,
//! round-tripped through the repo's own serialized forms). Sensitivity: any
//! planner-visible field change — one GPU's memory, one op's shape, the
//! efficiency constant — must change the key, or the cache would serve a
//! stale plan.

use whale::{
    models, strategies, Cluster, ClusterDelta, PlannerConfig, Primitive, ScheduleKind, TaskGraph,
};
use whale_fp::Fingerprint;
use whale_graph::OpId;
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
    // GPU's variant must re-key the cache. All three are one node of four
    // GPUs, so only the per-node model runs tell them apart: one run, a
    // 3+1 split, and the same multiset in the other order.
    let clusters = ["4xV100", "3xV100,1xV100_16GB", "1xV100_16GB,3xV100"]
        .map(|spec| Cluster::parse(spec).unwrap());
    for (i, a) in clusters.iter().enumerate() {
        for b in &clusters[i + 1..] {
            assert_eq!((a.num_nodes(), a.num_gpus()), (b.num_nodes(), b.num_gpus()));
            assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn taskgraph_op_lists_key_the_ir_exactly() {
    // Op lists are hashed as runs of consecutive ids. Moving a run boundary
    // between TaskGraphs, reordering ids, two lists with the same run starts,
    // and ids at the top of `usize` (where `id + 1` overflows) must each key
    // differently; equal lists must key equally.
    let base = dp_ir(8, 16);
    let keyed = |lists: &[&[usize]]| {
        let mut ir = base.clone();
        ir.task_graphs = lists
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let ops = ops.iter().map(|&id| OpId(id)).collect();
                TaskGraph::new(i, ops, vec![Primitive::Replica])
            })
            .collect();
        ir.fingerprint()
    };
    let max = usize::MAX;
    let cases: [&[&[usize]]; 14] = [
        &[&[0, 1], &[2]],
        &[&[0], &[1, 2]],
        &[&[0, 1, 2]],
        &[&[0, 2, 1]],
        &[&[0], &[1], &[2]],
        &[&[0, 1, 2, 5]],
        &[&[0, 5, 6, 7]],
        &[&[max - 1, max]],
        &[&[max - 1], &[max]],
        &[&[max, 0]],
        &[&[max], &[0]],
        &[&[max, 0, 1]],
        &[],
        &[&[]],
    ];
    let keys: Vec<Fingerprint> = cases.iter().map(|lists| keyed(lists)).collect();
    for (i, (a, key)) in cases.iter().zip(&keys).enumerate() {
        let copy: Vec<Vec<usize>> = a.iter().map(|ops| ops.to_vec()).collect();
        let copy: Vec<&[usize]> = copy.iter().map(Vec::as_slice).collect();
        assert_eq!(keyed(&copy), *key, "{a:?}");
        for (b, other) in cases.iter().zip(&keys).skip(i + 1) {
            assert_ne!(key, other, "{a:?} vs {b:?}");
        }
    }
    // The annotator's own contiguous TaskGraph keys like the same ids
    // listed by hand.
    let mut by_hand = base.clone();
    by_hand.task_graphs[0].ops = (0..base.graph.len()).map(OpId).collect();
    assert_eq!(by_hand.task_graphs, base.task_graphs);
    assert_eq!(by_hand.fingerprint(), base.fingerprint());
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
    // Same node count and the same model runs in order; only where the
    // node boundary falls differs.
    let a = Cluster::parse("1xV100,1xP100+1xV100").unwrap();
    let b = Cluster::parse("1xV100+1xP100,1xV100").unwrap();
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_ne!(a.fingerprint(), b.fingerprint());
}

// --- zoo goldens ---------------------------------------------------------

/// `Graph::fingerprint()` of every `whale-cli models` member, built as
/// `crates/cli/src/zoo.rs` builds it at batch 2 and sequence 32, then of
/// bert-base's training graph. Recorded while graphs were still built from
/// interned layer blocks, so this pins that the flat graph core keys every
/// member exactly as the interned one did. Regenerate with
///
/// ```text
/// cargo test --offline --test fingerprints -- --ignored --nocapture print_goldens
/// ```
///
/// and paste the printed rows over `ZOO_GOLDENS`.
const ZOO_GOLDENS: &[(&str, u64)] = &[
    ("resnet50", 0x0f3ccdb2d22b1340),
    ("imagenet100k", 0x7977d28722c24d16),
    ("bert-base", 0xbd198ad9a710b45f),
    ("bert-large", 0x7717c86ffcb45a3f),
    ("gnmt", 0xc6219f3b0231fa2e),
    ("t5-large", 0x47b22a68fe9d7d54),
    ("vit-large", 0x8399c7ca98ae9256),
    ("gpt2-xl", 0x0146f9b6b94b064a),
    ("m6-10b", 0x1e91cc9aba46a017),
    ("m6-tiny", 0x62afa51179dc656f),
    ("m6-moe-100b", 0x168b5efd909c01c5),
    ("m6-moe-1t", 0x2de572f15f04420d),
    ("m6-moe-1t-deep", 0xae9f0db17f8a30fc),
    ("moe-tiny", 0xc8ee731c5b65d213),
    ("bert-base training", 0x39b623647f85fe4f),
];

fn zoo_fingerprints() -> Vec<(&'static str, Fingerprint)> {
    let (batch, seq) = (2, 32);
    let zoo = [
        ("resnet50", models::resnet50(batch)),
        ("imagenet100k", models::imagenet_100k(batch)),
        ("bert-base", models::bert_base(batch, seq)),
        ("bert-large", models::bert_large(batch, seq)),
        ("gnmt", models::gnmt(batch, seq.min(200))),
        ("t5-large", models::t5_large(batch, seq, seq)),
        ("vit-large", models::vit_large(batch)),
        ("gpt2-xl", models::gpt2_xl(batch, seq)),
        ("m6-10b", models::m6_10b(batch)),
        ("m6-tiny", models::m6(models::M6Config::tiny(), batch)),
        ("m6-moe-100b", models::m6_moe_100b(batch)),
        ("m6-moe-1t", models::m6_moe_1t(batch)),
        ("m6-moe-1t-deep", models::m6_moe_1t_deep(batch)),
        ("moe-tiny", models::m6_moe(models::MoeConfig::tiny(), batch)),
    ];
    let mut out: Vec<_> = zoo
        .into_iter()
        .map(|(name, graph)| (name, graph.unwrap().fingerprint()))
        .collect();
    let training =
        whale_graph::derive_training_graph(&models::bert_base(batch, seq).unwrap()).unwrap();
    out.push(("bert-base training", training.graph.fingerprint()));
    out
}

#[test]
fn zoo_fingerprints_match_their_goldens() {
    let got = zoo_fingerprints();
    for (i, (a, fa)) in got.iter().enumerate() {
        for (b, fb) in &got[i + 1..] {
            assert_ne!(fa, fb, "{a} and {b} share a fingerprint");
        }
    }
    let got: Vec<(&str, u64)> = got.into_iter().map(|(name, fp)| (name, fp.0)).collect();
    assert_eq!(got, ZOO_GOLDENS);
}

#[test]
#[ignore = "prints the ZOO_GOLDENS table; run it to regenerate after an intended change"]
fn print_goldens() {
    for (name, fp) in zoo_fingerprints() {
        println!("    (\"{name}\", {:#018x}),", fp.0);
    }
}
