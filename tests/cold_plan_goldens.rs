//! Golden fingerprints of the cold-plan corpus.
//!
//! The corpus is reqbench's `cold-plan` workload: 10 zoo members × a
//! homogeneous and a V100+P100 cluster × the default and the fused
//! (`CommConfig::fused()`) comm config, 40 cells. Each cell is planned
//! cold and simulated for one step, and three outputs are fingerprinted
//! with `whale_fp::Fingerprinter` over their `{:?}` rendering:
//!
//! * the full `ExecutionPlan` (every device row, collective, label and the
//!   grad-sync schedule),
//! * `memory_ledger().entries`,
//! * the `StepOutcome` (step stats, per-GPU stats and the task timeline).
//!
//! `{:?}` prints every `f64` in its shortest round-trip form, so a digest
//! moves if and only if some output bit moves. `whale_planner::digest` is
//! only a shape string and would miss a changed device row or label.
//!
//! After an intended output change, regenerate the table with
//!
//! ```text
//! cargo test --offline --test cold_plan_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and paste the printed rows over `GOLDENS`.

use std::fmt::{self, Write};

use whale::{models, simulate_step, strategies, Cluster, CommConfig, PlannerConfig, SimConfig};
use whale_fp::Fingerprinter;

const SMALL_HOM: &str = "4x(8xV100)";
const SMALL_HET: &str = "2x(8xV100)+2x(8xP100)";

#[derive(Clone, Copy)]
enum Strategy {
    Dp,
    PipelineDp(usize),
    Moe,
}

/// `(model, batch, strategy, homogeneous cluster, V100+P100 cluster)`, as in
/// reqbench's `cold-plan`.
const MEMBERS: [(&str, usize, Strategy, &str, &str); 10] = [
    ("resnet50", 256, Strategy::Dp, SMALL_HOM, SMALL_HET),
    ("bert-large", 128, Strategy::Dp, SMALL_HOM, SMALL_HET),
    (
        "bert-large",
        128,
        Strategy::PipelineDp(8),
        SMALL_HOM,
        SMALL_HET,
    ),
    ("gpt2-xl", 64, Strategy::PipelineDp(8), SMALL_HOM, SMALL_HET),
    (
        "gpt2-xl",
        256,
        Strategy::PipelineDp(64),
        SMALL_HOM,
        SMALL_HET,
    ),
    (
        "t5-large",
        64,
        Strategy::PipelineDp(8),
        SMALL_HOM,
        SMALL_HET,
    ),
    ("m6-10b", 32, Strategy::PipelineDp(8), SMALL_HOM, SMALL_HET),
    (
        "m6-moe-100b",
        1024,
        Strategy::Moe,
        "16x(8xV100)",
        "8x(8xV100)+8x(8xP100)",
    ),
    (
        "m6-moe-1t",
        1024,
        Strategy::Moe,
        "60x(8xV100)",
        "30x(8xV100)+30x(8xP100)",
    ),
    (
        "m6-moe-1t-deep",
        64,
        Strategy::Moe,
        "1x(8xV100)",
        "1x(4xV100)+1x(4xP100)",
    ),
];

/// `(cell, plan digest, ledger digest, step digest)`.
const GOLDENS: &[(&str, &str, &str, &str)] = &[
    (
        "resnet50@256 dp on 4x(8xV100) comm=default",
        "7d7f6366bc91213a",
        "46902d1cca12a7b7",
        "ccf2d7c1b84d88b9",
    ),
    (
        "resnet50@256 dp on 4x(8xV100) comm=fused",
        "468134db53f08c94",
        "46902d1cca12a7b7",
        "33952fc7a94d1997",
    ),
    (
        "resnet50@256 dp on 2x(8xV100)+2x(8xP100) comm=default",
        "e733cdc169e631bc",
        "93055c857bde5ae9",
        "6b607c725d795e9a",
    ),
    (
        "resnet50@256 dp on 2x(8xV100)+2x(8xP100) comm=fused",
        "f4901e56364d776e",
        "93055c857bde5ae9",
        "9aaa150d9b6f7351",
    ),
    (
        "bert-large@128 dp on 4x(8xV100) comm=default",
        "fbf6537a9f55bf4b",
        "713d38723c71a633",
        "5b973a5d23c6f38a",
    ),
    (
        "bert-large@128 dp on 4x(8xV100) comm=fused",
        "aeb061b5719c65c7",
        "713d38723c71a633",
        "7bcf44b92f5000dc",
    ),
    (
        "bert-large@128 dp on 2x(8xV100)+2x(8xP100) comm=default",
        "89db553d7fb20475",
        "6ed85fb8eaa5be15",
        "3525985450b738b0",
    ),
    (
        "bert-large@128 dp on 2x(8xV100)+2x(8xP100) comm=fused",
        "5f67b345ce688a55",
        "6ed85fb8eaa5be15",
        "3316725848dcf7ee",
    ),
    (
        "bert-large@128 pipeline+dp(micro=8) on 4x(8xV100) comm=default",
        "073670ea93cf0b78",
        "226a4dd40e989537",
        "015f3dff7c924a35",
    ),
    (
        "bert-large@128 pipeline+dp(micro=8) on 4x(8xV100) comm=fused",
        "bc7b13c9817e4df3",
        "226a4dd40e989537",
        "9a1a4a4183f51241",
    ),
    (
        "bert-large@128 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=default",
        "f63d432e8e32b389",
        "9fca07e87192495d",
        "fd08bc4e70cbbc33",
    ),
    (
        "bert-large@128 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=fused",
        "291f4207418779d6",
        "9fca07e87192495d",
        "38d339da1c9d0b69",
    ),
    (
        "gpt2-xl@64 pipeline+dp(micro=8) on 4x(8xV100) comm=default",
        "b12ebcc266ff4a38",
        "985d20a9ee35af33",
        "2812b4523f4d6776",
    ),
    (
        "gpt2-xl@64 pipeline+dp(micro=8) on 4x(8xV100) comm=fused",
        "3e2a00f819ca118d",
        "985d20a9ee35af33",
        "9b9681774e5853f4",
    ),
    (
        "gpt2-xl@64 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=default",
        "784b0fc8dd335c69",
        "b069663b6d366493",
        "becd56ddbc18100f",
    ),
    (
        "gpt2-xl@64 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=fused",
        "dac5b1f243eefe34",
        "b069663b6d366493",
        "42f1763fc5dce632",
    ),
    (
        "gpt2-xl@256 pipeline+dp(micro=64) on 4x(8xV100) comm=default",
        "8c9557190cd4a5a5",
        "22b64a51b3e271cb",
        "84d04230e061824f",
    ),
    (
        "gpt2-xl@256 pipeline+dp(micro=64) on 4x(8xV100) comm=fused",
        "ea51444ca7f5e100",
        "22b64a51b3e271cb",
        "35b8b99031bdacc1",
    ),
    (
        "gpt2-xl@256 pipeline+dp(micro=64) on 2x(8xV100)+2x(8xP100) comm=default",
        "0b669763d6681e1b",
        "78238cd5f993b5df",
        "21a41cb3ae40fc82",
    ),
    (
        "gpt2-xl@256 pipeline+dp(micro=64) on 2x(8xV100)+2x(8xP100) comm=fused",
        "a9693e561903a9f2",
        "78238cd5f993b5df",
        "7d6d487f9491803a",
    ),
    (
        "t5-large@64 pipeline+dp(micro=8) on 4x(8xV100) comm=default",
        "172d8822c4dccbfe",
        "d97d0f9cd4e75ce5",
        "bcf7697d47cc2b69",
    ),
    (
        "t5-large@64 pipeline+dp(micro=8) on 4x(8xV100) comm=fused",
        "5b07a0efd37b8b2e",
        "d97d0f9cd4e75ce5",
        "a8ddc0370b66dafc",
    ),
    (
        "t5-large@64 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=default",
        "273e5019dad180b1",
        "643692536e50a037",
        "9954c0588b98417f",
    ),
    (
        "t5-large@64 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=fused",
        "d02cf94d19285269",
        "643692536e50a037",
        "7d14ff9d9b0eec07",
    ),
    (
        "m6-10b@32 pipeline+dp(micro=8) on 4x(8xV100) comm=default",
        "4f65ee330cf1dfc6",
        "13678f3d14a7af2b",
        "65bc8964edf83ee7",
    ),
    (
        "m6-10b@32 pipeline+dp(micro=8) on 4x(8xV100) comm=fused",
        "956a82b279bb038e",
        "13678f3d14a7af2b",
        "dec3348ef43c8fba",
    ),
    (
        "m6-10b@32 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=default",
        "11db41cc15f0bb9a",
        "8571f04f6d18d355",
        "ce35c1331b382220",
    ),
    (
        "m6-10b@32 pipeline+dp(micro=8) on 2x(8xV100)+2x(8xP100) comm=fused",
        "180049bfb43696f2",
        "8571f04f6d18d355",
        "bd334fd83ea06d32",
    ),
    (
        "m6-moe-100b@1024 moe on 16x(8xV100) comm=default",
        "32f824fc7a44c933",
        "547e0143a71dd11b",
        "ff7af7cdb72e2eab",
    ),
    (
        "m6-moe-100b@1024 moe on 16x(8xV100) comm=fused",
        "fba1569cccc3d99e",
        "547e0143a71dd11b",
        "c8d9cc208fee51ac",
    ),
    (
        "m6-moe-100b@1024 moe on 8x(8xV100)+8x(8xP100) comm=default",
        "b42f10058f0c0949",
        "0f87dbc29da11513",
        "5a777ca78f1919a6",
    ),
    (
        "m6-moe-100b@1024 moe on 8x(8xV100)+8x(8xP100) comm=fused",
        "6e11b54a7c7e67bc",
        "0f87dbc29da11513",
        "575ae30665510b9b",
    ),
    (
        "m6-moe-1t@1024 moe on 60x(8xV100) comm=default",
        "ea9e3f685d2bb4aa",
        "5700cbf69ce6a55b",
        "6d077da4fe11a908",
    ),
    (
        "m6-moe-1t@1024 moe on 60x(8xV100) comm=fused",
        "f9005f5792686acc",
        "5700cbf69ce6a55b",
        "c10e1a49235f6686",
    ),
    (
        "m6-moe-1t@1024 moe on 30x(8xV100)+30x(8xP100) comm=default",
        "9551055b0001f660",
        "7cff55b625d1161b",
        "06c86538cec7a700",
    ),
    (
        "m6-moe-1t@1024 moe on 30x(8xV100)+30x(8xP100) comm=fused",
        "82a49a4e868c0c76",
        "7cff55b625d1161b",
        "b53485aae4fea83e",
    ),
    (
        "m6-moe-1t-deep@64 moe on 1x(8xV100) comm=default",
        "4cf2ecdf5f15eb54",
        "a05e5be9544c08df",
        "223c55ff5a67d34b",
    ),
    (
        "m6-moe-1t-deep@64 moe on 1x(8xV100) comm=fused",
        "009ff97b63644859",
        "a05e5be9544c08df",
        "b983123ba5cd398b",
    ),
    (
        "m6-moe-1t-deep@64 moe on 1x(4xV100)+1x(4xP100) comm=default",
        "a151c7ac3473602c",
        "7f8edc9c6eff1f1b",
        "6cc7d92b7e652a92",
    ),
    (
        "m6-moe-1t-deep@64 moe on 1x(4xV100)+1x(4xP100) comm=fused",
        "d968272bf8c1756e",
        "7f8edc9c6eff1f1b",
        "0d356ac19263ed04",
    ),
];

fn build(model: &str, batch: usize) -> whale::Graph {
    match model {
        "resnet50" => models::resnet50(batch),
        "bert-large" => models::bert_large(batch, 128),
        "gpt2-xl" => models::gpt2_xl(batch, 128),
        "t5-large" => models::t5_large(batch, 128, 128),
        "m6-10b" => models::m6_10b(batch),
        "m6-moe-100b" => models::m6_moe_100b(batch),
        "m6-moe-1t" => models::m6_moe_1t(batch),
        "m6-moe-1t-deep" => models::m6_moe_1t_deep(batch),
        other => panic!("unknown corpus member {other}"),
    }
    .unwrap()
}

/// Streams `{:?}` output straight into a fingerprint, so the multi-megabyte
/// renderings of the trillion-scale plans are never materialized.
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

/// Every cell's name and its three digests, in corpus order.
fn corpus_digests() -> Vec<(String, [String; 3])> {
    let mut out = Vec::with_capacity(GOLDENS.len());
    for &(model, batch, strategy, hom, het) in &MEMBERS {
        for spec in [hom, het] {
            let cluster = Cluster::parse(spec).unwrap();
            for (comm_name, comm) in [
                ("default", CommConfig::default()),
                ("fused", CommConfig::fused()),
            ] {
                let label = match strategy {
                    Strategy::Dp => "dp".to_string(),
                    Strategy::PipelineDp(micro) => format!("pipeline+dp(micro={micro})"),
                    Strategy::Moe => "moe".to_string(),
                };
                let name = format!("{model}@{batch} {label} on {spec} comm={comm_name}");
                let graph = build(model, batch);
                let ir = match strategy {
                    Strategy::Dp => strategies::data_parallel(graph, batch),
                    Strategy::PipelineDp(micro) => {
                        strategies::pipeline_with_dp(graph, batch, micro)
                    }
                    Strategy::Moe => strategies::moe_hybrid(graph, batch),
                }
                .unwrap();
                let config = PlannerConfig {
                    comm,
                    ..PlannerConfig::default()
                };
                let plan = whale_planner::plan(&ir, &cluster, &config)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let step =
                    simulate_step(&plan, &cluster, &SimConfig::with_schedule(config.schedule))
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                let digests = [
                    fingerprint("cold-plan/plan", &plan),
                    fingerprint("cold-plan/ledger", &plan.memory_ledger().entries),
                    fingerprint("cold-plan/step", &step),
                ];
                out.push((name, digests));
            }
        }
    }
    out
}

#[test]
fn cold_plan_corpus_matches_its_golden_fingerprints() {
    let got = corpus_digests();
    assert_eq!(got.len(), GOLDENS.len(), "corpus size changed");
    let mut diffs = Vec::new();
    for ((name, [plan, ledger, step]), &(g_name, g_plan, g_ledger, g_step)) in
        got.iter().zip(GOLDENS)
    {
        assert_eq!(name, g_name, "corpus order changed");
        for (what, got, want) in [
            ("plan", plan, g_plan),
            ("ledger", ledger, g_ledger),
            ("step", step, g_step),
        ] {
            if got != want {
                diffs.push(format!("{name}: {what} {got} != golden {want}"));
            }
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
    for (name, [plan, ledger, step]) in corpus_digests() {
        println!("    (\n        \"{name}\",\n        \"{plan}\",\n        \"{ledger}\",\n        \"{step}\",\n    ),");
    }
}
