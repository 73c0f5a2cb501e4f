//! Golden fingerprints of the auto-parallel reports.
//!
//! The corpus is reqbench's `auto-search` workload: six zoo members on two
//! V100+P100 clusters, plus two memory-tight cells, 14 cells. Each cell runs
//! the narrow enumeration (`auto_parallel_opts`) and the branch-and-bound
//! search (`auto_parallel_search`) with one search thread on a fresh
//! `Session`, and four outputs are fingerprinted with
//! `whale_fp::Fingerprinter` over their `{:?}` rendering:
//!
//! * the narrow winner: its name, plan and step stats, or the error when no
//!   narrow strategy is feasible;
//! * the narrow candidate names, in report order;
//! * the full narrow `AutoReport` (every candidate row, reject reason and
//!   counter);
//! * the full wide `AutoReport`.
//!
//! `{:?}` prints every `f64` in its shortest round-trip form, so a digest
//! moves if and only if some output bit moves.
//!
//! After an intended output change, regenerate the table with
//!
//! ```text
//! cargo test --offline --test auto_parallel_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and paste the printed rows over `GOLDENS`.

use std::fmt::{self, Write};

use whale::{auto_parallel_opts, auto_parallel_search, models, SearchOptions, Session};
use whale_fp::Fingerprinter;

const ZOO: [(&str, usize); 6] = [
    ("resnet50", 256),
    ("bert-base", 256),
    ("bert-large", 128),
    ("gpt2-xl", 64),
    ("t5-large", 64),
    ("m6-10b", 32),
];
const ZOO_CLUSTERS: [&str; 2] = ["2x(8xV100)+2x(8xP100)", "1x(8xV100)+1x(8xP100)"];
/// Memory-tight cells: most pipeline leaves of m6-10b@256 cannot fit.
const TIGHT: [(&str, usize, &str); 2] = [
    ("m6-10b", 256, "2x(8xV100)+2x(8xP100)"),
    ("gpt2-xl", 256, "4x(8xV100)"),
];

/// `(cell, narrow winner, narrow names, narrow report, wide report)`.
const GOLDENS: &[(&str, &str, &str, &str, &str)] = &[
    (
        "resnet50@256 on 2x(8xV100)+2x(8xP100)",
        "d28852a6ea96bb3c",
        "dcdfa440af5e333f",
        "a8fee7bfa30e0ab2",
        "4681a621d21a04f7",
    ),
    (
        "bert-base@256 on 2x(8xV100)+2x(8xP100)",
        "c015b2784b3d07c3",
        "dcdfa440af5e333f",
        "d176e3f185340a46",
        "6e0790c47917742f",
    ),
    (
        "bert-large@128 on 2x(8xV100)+2x(8xP100)",
        "5bda9b3ce597acae",
        "dcdfa440af5e333f",
        "9adff0b0bd8d00fb",
        "fa45b9072a6e4ae2",
    ),
    (
        "gpt2-xl@64 on 2x(8xV100)+2x(8xP100)",
        "003c8e9a71701d92",
        "dcdfa440af5e333f",
        "823bb600d901d01b",
        "6996d420845ff66d",
    ),
    (
        "t5-large@64 on 2x(8xV100)+2x(8xP100)",
        "df156c8f65668eb2",
        "dcdfa440af5e333f",
        "6be9d3f96b3d9bd6",
        "5c34dbe394aa0a80",
    ),
    (
        "m6-10b@32 on 2x(8xV100)+2x(8xP100)",
        "c4c10c3eb0d1bee4",
        "dcdfa440af5e333f",
        "407b1591c50ad656",
        "0262ba141abe0b67",
    ),
    (
        "resnet50@256 on 1x(8xV100)+1x(8xP100)",
        "dbd252750fd623c2",
        "dcdfa440af5e333f",
        "b61331afcf459526",
        "d5d9c65ba4f616f1",
    ),
    (
        "bert-base@256 on 1x(8xV100)+1x(8xP100)",
        "f8c252e39fda96ae",
        "dcdfa440af5e333f",
        "4bbd39b735083914",
        "c2a79deca77f7e75",
    ),
    (
        "bert-large@128 on 1x(8xV100)+1x(8xP100)",
        "f090b772cd48d8f8",
        "dcdfa440af5e333f",
        "3383aca90f24ad33",
        "b592bd03d45a44cf",
    ),
    (
        "gpt2-xl@64 on 1x(8xV100)+1x(8xP100)",
        "5810d97086fc7438",
        "dcdfa440af5e333f",
        "55d743e8ae790695",
        "041b1a2813e7768f",
    ),
    (
        "t5-large@64 on 1x(8xV100)+1x(8xP100)",
        "43a33449dc20f20a",
        "dcdfa440af5e333f",
        "54b7c264bdf6abc0",
        "bd7a27c962ac4c7a",
    ),
    (
        "m6-10b@32 on 1x(8xV100)+1x(8xP100)",
        "c7d60c288d77a1a3",
        "dcdfa440af5e333f",
        "e6cf1d162238329d",
        "108741500b68315c",
    ),
    (
        "m6-10b@256 on 2x(8xV100)+2x(8xP100)",
        "78502d109da468af",
        "b75ca971f4fef0cf",
        "f4c7c02651911842",
        "0e59b06a12e291bb",
    ),
    (
        "gpt2-xl@256 on 4x(8xV100)",
        "1ab6e612df74f1c4",
        "dcdfa440af5e333f",
        "d6ff43cf35a8f6ac",
        "11aacd706b5b86f7",
    ),
];

fn build(model: &str, batch: usize) -> whale::Result<whale::Graph> {
    Ok(match model {
        "resnet50" => models::resnet50(batch),
        "bert-base" => models::bert_base(batch, 128),
        "bert-large" => models::bert_large(batch, 128),
        "gpt2-xl" => models::gpt2_xl(batch, 128),
        "t5-large" => models::t5_large(batch, 128, 128),
        "m6-10b" => models::m6_10b(batch),
        other => panic!("unknown corpus member {other}"),
    }?)
}

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

/// Every cell's name and its four digests, in corpus order.
fn corpus_digests() -> Vec<(String, [String; 4])> {
    let cells = ZOO_CLUSTERS
        .iter()
        .flat_map(|&spec| ZOO.iter().map(move |&(m, b)| (m, b, spec)))
        .chain(TIGHT);
    let mut out = Vec::with_capacity(14);
    for (model, batch, spec) in cells {
        let name = format!("{model}@{batch} on {spec}");
        let opts = SearchOptions {
            search_threads: 1,
            ..SearchOptions::default()
        };
        let narrow = auto_parallel_opts(&Session::on_cluster(spec).unwrap(), batch, &opts, || {
            build(model, batch)
        });
        let wide = auto_parallel_search(&Session::on_cluster(spec).unwrap(), batch, &opts, || {
            build(model, batch)
        });
        let winner = match &narrow {
            Ok(r) => fingerprint("auto/winner", &(&r.chosen, &r.plan, &r.stats)),
            Err(e) => fingerprint("auto/winner", &e.to_string()),
        };
        let names: Vec<&str> = match &narrow {
            Ok(r) => r.candidates.iter().map(|c| c.name.as_str()).collect(),
            Err(_) => Vec::new(),
        };
        let digests = [
            winner,
            fingerprint("auto/names", &names),
            fingerprint("auto/narrow", &narrow),
            fingerprint("auto/wide", &wide),
        ];
        out.push((name, digests));
    }
    out
}

#[test]
fn auto_parallel_corpus_matches_its_golden_fingerprints() {
    let got = corpus_digests();
    assert_eq!(got.len(), GOLDENS.len(), "corpus size changed");
    let mut diffs = Vec::new();
    for ((name, [winner, names, narrow, wide]), &(g_name, g_winner, g_names, g_narrow, g_wide)) in
        got.iter().zip(GOLDENS)
    {
        assert_eq!(name, g_name, "corpus order changed");
        for (what, got, want) in [
            ("narrow winner", winner, g_winner),
            ("narrow names", names, g_names),
            ("narrow report", narrow, g_narrow),
            ("wide report", wide, g_wide),
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
    for (name, [winner, names, narrow, wide]) in corpus_digests() {
        println!(
            "    (\n        \"{name}\",\n        \"{winner}\",\n        \"{names}\",\n        \
             \"{narrow}\",\n        \"{wide}\",\n    ),"
        );
    }
}
