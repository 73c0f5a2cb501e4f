//! The staged compile pipeline across the model zoo × cluster × config
//! matrix.
//!
//! Golden digests pin every cell's plan (or error) bit for bit; they were
//! recorded while the original single-function planner still asserted
//! equality beside them. The cache/replan tests pin the operational claims:
//! a content hit runs zero passes, and a delta-replan re-runs only the
//! invalidated suffix while agreeing with a cold plan wherever the elastic
//! approximation promises it.

use std::fmt::{self, Write};

use whale::{models, strategies, Cluster, ClusterDelta, PlannerConfig, ScheduleKind, Session};
use whale_fp::Fingerprinter;
use whale_planner::{plan, CompilePipeline, PassId, PlanService};
use whale_sim::{check_replan, SimConfig};

type IrCase = (&'static str, whale::WhaleIr);

fn model_zoo() -> Vec<IrCase> {
    vec![
        (
            "resnet50/dp",
            strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap(),
        ),
        (
            "bert_base/dp",
            strategies::data_parallel(models::bert_base(128, 64).unwrap(), 128).unwrap(),
        ),
        (
            "bert_large/pipeline_dp",
            strategies::pipeline_with_dp(models::bert_large(64, 64).unwrap(), 64, 8).unwrap(),
        ),
        (
            "gpt2_xl/pipeline",
            strategies::pipeline_only(models::gpt2_xl(32, 64).unwrap(), 32, 8).unwrap(),
        ),
        (
            "t5_large/pipeline_dp",
            strategies::pipeline_with_dp(models::t5_large(32, 64, 64).unwrap(), 32, 8).unwrap(),
        ),
        (
            "m6_10b/pipeline_dp",
            strategies::pipeline_with_dp(models::m6_10b(16).unwrap(), 16, 4).unwrap(),
        ),
        (
            "moe_hybrid",
            strategies::moe_hybrid(models::m6_moe(models::MoeConfig::tiny(), 64).unwrap(), 64)
                .unwrap(),
        ),
        (
            "imagenet/split_classifier",
            strategies::feature_dp_classifier_split(
                models::imagenet_100k(64).unwrap(),
                64,
                "fc_big",
            )
            .unwrap(),
        ),
        (
            "moe_hybrid_ep",
            strategies::moe_hybrid_ep(models::m6_moe(models::MoeConfig::tiny(), 32).unwrap(), 32)
                .unwrap(),
        ),
    ]
}

const CLUSTERS: &[&str] = &[
    "4xV100",
    "8xV100+8xP100",
    "2x(8xV100)+2x(8xP100)",
    "2x(4xV100)",
];

fn configs() -> Vec<(&'static str, PlannerConfig)> {
    let base = PlannerConfig::default();
    vec![
        ("default", base.clone()),
        (
            "baseline",
            PlannerConfig {
                hardware_aware: false,
                ..base.clone()
            },
        ),
        (
            "gpipe",
            PlannerConfig {
                schedule: ScheduleKind::GPipe,
                ..base
            },
        ),
    ]
}

/// `(cell, digest)` for every cell of the zoo × cluster × config matrix, in
/// matrix order. A digest is `whale_fp` over the cell's `{:?}` plan, or
/// over its error text when the planner refuses the cell. After an
/// intended output change, regenerate the table with
///
/// ```text
/// cargo test --offline --test compile_pipeline -- --ignored --nocapture print_goldens
/// ```
///
/// and paste the printed rows over `GOLDENS`.
const GOLDENS: &[(&str, &str)] = &[
    ("resnet50/dp @ 4xV100 [default]", "40200a7ccbbb5d63"),
    ("resnet50/dp @ 4xV100 [baseline]", "40200a7ccbbb5d63"),
    ("resnet50/dp @ 4xV100 [gpipe]", "40200a7ccbbb5d63"),
    ("bert_base/dp @ 4xV100 [default]", "5276966c6d5cd58e"),
    ("bert_base/dp @ 4xV100 [baseline]", "5276966c6d5cd58e"),
    ("bert_base/dp @ 4xV100 [gpipe]", "5276966c6d5cd58e"),
    (
        "bert_large/pipeline_dp @ 4xV100 [default]",
        "0391d1e616d06225",
    ),
    (
        "bert_large/pipeline_dp @ 4xV100 [baseline]",
        "0391d1e616d06225",
    ),
    (
        "bert_large/pipeline_dp @ 4xV100 [gpipe]",
        "a2afee5a42bb8b16",
    ),
    ("gpt2_xl/pipeline @ 4xV100 [default]", "15c0103fa119701b"),
    ("gpt2_xl/pipeline @ 4xV100 [baseline]", "15c0103fa119701b"),
    ("gpt2_xl/pipeline @ 4xV100 [gpipe]", "2153f6c5801b29d4"),
    (
        "t5_large/pipeline_dp @ 4xV100 [default]",
        "23b8160ae2e112db",
    ),
    (
        "t5_large/pipeline_dp @ 4xV100 [baseline]",
        "23b8160ae2e112db",
    ),
    ("t5_large/pipeline_dp @ 4xV100 [gpipe]", "cf5287b433d34b8f"),
    ("m6_10b/pipeline_dp @ 4xV100 [default]", "9dcca9061eeea352"),
    ("m6_10b/pipeline_dp @ 4xV100 [baseline]", "81b2abbd89b31362"),
    ("m6_10b/pipeline_dp @ 4xV100 [gpipe]", "9a6a57bf08b81710"),
    ("moe_hybrid @ 4xV100 [default]", "2e0fce39ac0d9644"),
    ("moe_hybrid @ 4xV100 [baseline]", "2e0fce39ac0d9644"),
    ("moe_hybrid @ 4xV100 [gpipe]", "2e0fce39ac0d9644"),
    (
        "imagenet/split_classifier @ 4xV100 [default]",
        "5f51c1c8eebd4d7b",
    ),
    (
        "imagenet/split_classifier @ 4xV100 [baseline]",
        "5f51c1c8eebd4d7b",
    ),
    (
        "imagenet/split_classifier @ 4xV100 [gpipe]",
        "5f51c1c8eebd4d7b",
    ),
    ("moe_hybrid_ep @ 4xV100 [default]", "5265c68b0599eb37"),
    ("moe_hybrid_ep @ 4xV100 [baseline]", "5265c68b0599eb37"),
    ("moe_hybrid_ep @ 4xV100 [gpipe]", "5265c68b0599eb37"),
    ("resnet50/dp @ 8xV100+8xP100 [default]", "be1f099fb1e0a99e"),
    ("resnet50/dp @ 8xV100+8xP100 [baseline]", "615c8af9bed4a5b8"),
    ("resnet50/dp @ 8xV100+8xP100 [gpipe]", "be1f099fb1e0a99e"),
    ("bert_base/dp @ 8xV100+8xP100 [default]", "671f00542a8cb265"),
    (
        "bert_base/dp @ 8xV100+8xP100 [baseline]",
        "dfce26ec20c777a1",
    ),
    ("bert_base/dp @ 8xV100+8xP100 [gpipe]", "671f00542a8cb265"),
    (
        "bert_large/pipeline_dp @ 8xV100+8xP100 [default]",
        "0f285c5b5541452c",
    ),
    (
        "bert_large/pipeline_dp @ 8xV100+8xP100 [baseline]",
        "89679555c9865eae",
    ),
    (
        "bert_large/pipeline_dp @ 8xV100+8xP100 [gpipe]",
        "b661aceda59a5936",
    ),
    (
        "gpt2_xl/pipeline @ 8xV100+8xP100 [default]",
        "6450a3ef62b9b447",
    ),
    (
        "gpt2_xl/pipeline @ 8xV100+8xP100 [baseline]",
        "25b120faa72f9740",
    ),
    (
        "gpt2_xl/pipeline @ 8xV100+8xP100 [gpipe]",
        "3c9fbac3aab48088",
    ),
    (
        "t5_large/pipeline_dp @ 8xV100+8xP100 [default]",
        "3949faa4cb5bd9b3",
    ),
    (
        "t5_large/pipeline_dp @ 8xV100+8xP100 [baseline]",
        "5156559458a621d6",
    ),
    (
        "t5_large/pipeline_dp @ 8xV100+8xP100 [gpipe]",
        "4a6f81bd36594483",
    ),
    (
        "m6_10b/pipeline_dp @ 8xV100+8xP100 [default]",
        "c3f5a0a4e0cbd4e9",
    ),
    (
        "m6_10b/pipeline_dp @ 8xV100+8xP100 [baseline]",
        "dc99805cb65dd276",
    ),
    (
        "m6_10b/pipeline_dp @ 8xV100+8xP100 [gpipe]",
        "327122512d1f671e",
    ),
    ("moe_hybrid @ 8xV100+8xP100 [default]", "e617f73ca1b8d1d3"),
    ("moe_hybrid @ 8xV100+8xP100 [baseline]", "b8d7babd5e84f8c5"),
    ("moe_hybrid @ 8xV100+8xP100 [gpipe]", "e617f73ca1b8d1d3"),
    (
        "imagenet/split_classifier @ 8xV100+8xP100 [default]",
        "710b925a4b7e1635",
    ),
    (
        "imagenet/split_classifier @ 8xV100+8xP100 [baseline]",
        "89ddc3ba5e0b7ca7",
    ),
    (
        "imagenet/split_classifier @ 8xV100+8xP100 [gpipe]",
        "710b925a4b7e1635",
    ),
    (
        "moe_hybrid_ep @ 8xV100+8xP100 [default]",
        "f4a0d6421dd6aa3d",
    ),
    (
        "moe_hybrid_ep @ 8xV100+8xP100 [baseline]",
        "b2ebeb580d724447",
    ),
    ("moe_hybrid_ep @ 8xV100+8xP100 [gpipe]", "f4a0d6421dd6aa3d"),
    (
        "resnet50/dp @ 2x(8xV100)+2x(8xP100) [default]",
        "883b85ed0b5a38b4",
    ),
    (
        "resnet50/dp @ 2x(8xV100)+2x(8xP100) [baseline]",
        "fc66f318a9d8c012",
    ),
    (
        "resnet50/dp @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "883b85ed0b5a38b4",
    ),
    (
        "bert_base/dp @ 2x(8xV100)+2x(8xP100) [default]",
        "76082a64b7d5e67f",
    ),
    (
        "bert_base/dp @ 2x(8xV100)+2x(8xP100) [baseline]",
        "d221f5498109bff3",
    ),
    (
        "bert_base/dp @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "76082a64b7d5e67f",
    ),
    (
        "bert_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [default]",
        "0a925f9d51bbef3e",
    ),
    (
        "bert_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [baseline]",
        "b089a719f07aeb4b",
    ),
    (
        "bert_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "8e4ac6e5986b5922",
    ),
    (
        "gpt2_xl/pipeline @ 2x(8xV100)+2x(8xP100) [default]",
        "32e38ebeb1ef1be4",
    ),
    (
        "gpt2_xl/pipeline @ 2x(8xV100)+2x(8xP100) [baseline]",
        "2d216e011cd381d8",
    ),
    (
        "gpt2_xl/pipeline @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "e85115e5e8144ef5",
    ),
    (
        "t5_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [default]",
        "551b1fada1485d83",
    ),
    (
        "t5_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [baseline]",
        "1440e89156730e49",
    ),
    (
        "t5_large/pipeline_dp @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "3a8a16d696971d5d",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(8xV100)+2x(8xP100) [default]",
        "d872e789cc75bf3e",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(8xV100)+2x(8xP100) [baseline]",
        "4a96554af435367a",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "d28030770b2cc812",
    ),
    (
        "moe_hybrid @ 2x(8xV100)+2x(8xP100) [default]",
        "51d337c27705d4f9",
    ),
    (
        "moe_hybrid @ 2x(8xV100)+2x(8xP100) [baseline]",
        "d22aff822fd455db",
    ),
    (
        "moe_hybrid @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "51d337c27705d4f9",
    ),
    (
        "imagenet/split_classifier @ 2x(8xV100)+2x(8xP100) [default]",
        "56676a39d160d435",
    ),
    (
        "imagenet/split_classifier @ 2x(8xV100)+2x(8xP100) [baseline]",
        "83ba300df3b1af6b",
    ),
    (
        "imagenet/split_classifier @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "56676a39d160d435",
    ),
    (
        "moe_hybrid_ep @ 2x(8xV100)+2x(8xP100) [default]",
        "fbf485a8e4323bc1",
    ),
    (
        "moe_hybrid_ep @ 2x(8xV100)+2x(8xP100) [baseline]",
        "de708e9f83a45f83",
    ),
    (
        "moe_hybrid_ep @ 2x(8xV100)+2x(8xP100) [gpipe]",
        "fbf485a8e4323bc1",
    ),
    ("resnet50/dp @ 2x(4xV100) [default]", "3de9b61fce8eaabf"),
    ("resnet50/dp @ 2x(4xV100) [baseline]", "3de9b61fce8eaabf"),
    ("resnet50/dp @ 2x(4xV100) [gpipe]", "3de9b61fce8eaabf"),
    ("bert_base/dp @ 2x(4xV100) [default]", "16d8551492d0dc1e"),
    ("bert_base/dp @ 2x(4xV100) [baseline]", "16d8551492d0dc1e"),
    ("bert_base/dp @ 2x(4xV100) [gpipe]", "16d8551492d0dc1e"),
    (
        "bert_large/pipeline_dp @ 2x(4xV100) [default]",
        "ba5d09cde470aab0",
    ),
    (
        "bert_large/pipeline_dp @ 2x(4xV100) [baseline]",
        "ba5d09cde470aab0",
    ),
    (
        "bert_large/pipeline_dp @ 2x(4xV100) [gpipe]",
        "b07f9ff95bbd16b8",
    ),
    (
        "gpt2_xl/pipeline @ 2x(4xV100) [default]",
        "cc166924a1c11b9c",
    ),
    (
        "gpt2_xl/pipeline @ 2x(4xV100) [baseline]",
        "cc166924a1c11b9c",
    ),
    ("gpt2_xl/pipeline @ 2x(4xV100) [gpipe]", "9719825ca76b49bc"),
    (
        "t5_large/pipeline_dp @ 2x(4xV100) [default]",
        "26f2e8df2a2a15ac",
    ),
    (
        "t5_large/pipeline_dp @ 2x(4xV100) [baseline]",
        "26f2e8df2a2a15ac",
    ),
    (
        "t5_large/pipeline_dp @ 2x(4xV100) [gpipe]",
        "8973168911f8a100",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(4xV100) [default]",
        "9dcca9061eeea352",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(4xV100) [baseline]",
        "4a4bf29404219145",
    ),
    (
        "m6_10b/pipeline_dp @ 2x(4xV100) [gpipe]",
        "9a6a57bf08b81710",
    ),
    ("moe_hybrid @ 2x(4xV100) [default]", "4c226a01d89d1f6c"),
    ("moe_hybrid @ 2x(4xV100) [baseline]", "4c226a01d89d1f6c"),
    ("moe_hybrid @ 2x(4xV100) [gpipe]", "4c226a01d89d1f6c"),
    (
        "imagenet/split_classifier @ 2x(4xV100) [default]",
        "caa857101db16e33",
    ),
    (
        "imagenet/split_classifier @ 2x(4xV100) [baseline]",
        "caa857101db16e33",
    ),
    (
        "imagenet/split_classifier @ 2x(4xV100) [gpipe]",
        "caa857101db16e33",
    ),
    ("moe_hybrid_ep @ 2x(4xV100) [default]", "ac9b251833718568"),
    ("moe_hybrid_ep @ 2x(4xV100) [baseline]", "ac9b251833718568"),
    ("moe_hybrid_ep @ 2x(4xV100) [gpipe]", "ac9b251833718568"),
];

/// Streams `{:?}` output straight into a fingerprint.
struct FpWriter(Fingerprinter);

impl Write for FpWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_bytes(s.as_bytes());
        Ok(())
    }
}

fn fingerprint(domain: &str, value: &dyn fmt::Debug) -> String {
    let mut w = FpWriter(Fingerprinter::new(domain));
    write!(w, "{value:?}").unwrap();
    w.0.finish().to_string()
}

/// Every matrix cell's name and digest, in matrix order.
fn matrix_digests() -> Vec<(String, String)> {
    let zoo = model_zoo();
    let mut out = Vec::with_capacity(GOLDENS.len());
    for cluster_spec in CLUSTERS {
        let cluster = Cluster::parse(cluster_spec).unwrap();
        for (name, ir) in &zoo {
            for (cfg_name, config) in &configs() {
                let digest = match plan(ir, &cluster, config) {
                    Ok(p) => fingerprint("compile-matrix/plan", &p),
                    Err(e) => fingerprint("compile-matrix/error", &e.to_string()),
                };
                out.push((format!("{name} @ {cluster_spec} [{cfg_name}]"), digest));
            }
        }
    }
    out
}

#[test]
fn compile_matrix_matches_its_golden_fingerprints() {
    let got = matrix_digests();
    assert_eq!(got.len(), GOLDENS.len(), "matrix size changed");
    let mut diffs = Vec::new();
    for ((name, digest), &(g_name, g_digest)) in got.iter().zip(GOLDENS) {
        assert_eq!(name, g_name, "matrix order changed");
        if digest != g_digest {
            diffs.push(format!("{name}: {digest} != golden {g_digest}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "golden digests moved:\n{}",
        diffs.join("\n")
    );
}

#[test]
#[ignore = "prints the GOLDENS table; run it to regenerate after an intended change"]
fn print_goldens() {
    for (name, digest) in matrix_digests() {
        println!("    (\"{name}\", \"{digest}\"),");
    }
}

#[test]
fn pass_order_is_declared_and_enforced() {
    let ids = CompilePipeline::standard().pass_ids();
    assert_eq!(
        ids,
        vec![
            PassId::DegreeInference,
            PassId::Placement,
            PassId::BridgeInsertion,
            PassId::Balance,
            PassId::Schedule,
            PassId::CommOpt,
        ]
    );
}

#[test]
fn cache_hit_runs_zero_passes_across_the_zoo() {
    let cluster = Cluster::parse("8xV100+8xP100").unwrap();
    let config = PlannerConfig::default();
    let service = PlanService::default();
    for (name, ir) in &model_zoo() {
        let cold = service.plan(ir, &cluster, &config).unwrap();
        let passes_after_miss = service.stats().passes_run;
        let hit = service.plan(ir, &cluster, &config).unwrap();
        assert_eq!(cold, hit, "{name}: cache returned a different plan");
        assert_eq!(
            service.stats().passes_run,
            passes_after_miss,
            "{name}: a cache hit ran compile passes"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.hits as usize, model_zoo().len());
    assert_eq!(stats.misses as usize, model_zoo().len());
}

#[test]
fn structural_replan_equals_cold_plan_on_the_new_cluster() {
    let cluster = Cluster::parse("8xV100+8xP100").unwrap();
    let config = PlannerConfig::default();
    let ir = strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap();

    let service = PlanService::default();
    service.plan(&ir, &cluster, &config).unwrap();
    let (replanned, after) = service
        .replan(&ir, &cluster, &config, ClusterDelta::GpuRemoved { id: 15 })
        .unwrap();
    assert_eq!(after.num_gpus(), 15);
    let cold = plan(&ir, &after, &config).unwrap();
    assert_eq!(*replanned, cold, "structural replan must re-run everything");
}

#[test]
fn link_bandwidth_replan_keeps_the_plan_and_moves_the_simulation() {
    use whale_hardware::LinkKind;
    let ir = strategies::pipeline_with_dp(models::bert_large(64, 64).unwrap(), 64, 8).unwrap();
    let mut s = Session::on_cluster("2x(4xV100)").unwrap();
    let before_plan = s.plan(&ir).unwrap();
    let before_sim = s.step_plan(&before_plan).unwrap();
    let after_plan = s
        .replan(
            &ir,
            ClusterDelta::LinkBandwidth {
                kind: LinkKind::Network,
                bytes_per_sec: 1e9,
            },
        )
        .unwrap();
    // Plans carry no bandwidths: the plan is unchanged, but simulating it on
    // the updated cluster sees the slower network.
    assert_eq!(before_plan, after_plan);
    let after_sim = s.step_plan(&after_plan).unwrap();
    assert!(
        after_sim.stats.step_time > before_sim.stats.step_time,
        "slower cross-node link must slow the simulated step"
    );
}

#[test]
fn session_replan_chain_stays_consistent() {
    let ir = strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap();
    let mut s = Session::on_cluster("8xV100+8xP100").unwrap();
    let mut prev = s.plan(&ir).unwrap();
    let deltas = vec![
        ClusterDelta::GpuDegraded { id: 3, scale: 0.5 },
        ClusterDelta::GpuDegraded { id: 9, scale: 0.7 },
        ClusterDelta::GpuRestored { id: 3 },
    ];
    for delta in deltas {
        let next = s.replan(&ir, delta).unwrap();
        let report = check_replan(&prev, &next, s.cluster(), &SimConfig::default());
        assert!(
            report.is_consistent(),
            "after {delta:?}: {:?}",
            report.issues
        );
        prev = next;
    }
    let stats = s.cache_stats().unwrap();
    assert_eq!(stats.misses, 1);
    assert!(
        stats.partial_hits >= 2,
        "degradations should be partial hits"
    );
}

#[test]
fn replanned_cluster_state_is_a_pure_hit_afterwards() {
    let ir = strategies::data_parallel(models::resnet50(256).unwrap(), 256).unwrap();
    let mut s = Session::on_cluster("4xV100").unwrap();
    s.plan(&ir).unwrap();
    let replanned = s
        .replan(&ir, ClusterDelta::GpuDegraded { id: 0, scale: 0.5 })
        .unwrap();
    // The replan seeded the cache under the post-delta key: planning again
    // on the (now updated) session cluster is a pure hit.
    let hits_before = s.cache_stats().unwrap().hits;
    let again = s.plan(&ir).unwrap();
    assert_eq!(replanned, again);
    assert_eq!(s.cache_stats().unwrap().hits, hits_before + 1);
}
