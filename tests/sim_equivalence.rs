//! The event-driven step scheduler on every strategy shape in the model
//! zoo and every pipeline schedule: each case pins a `whale_fp` digest of
//! its `StepOutcome`'s `{:?}` (step stats, per-GPU stats and the task
//! timeline). `{:?}` prints every `f64` in its shortest round-trip form, so
//! a digest moves if and only if some output bit moves. The digests were
//! recorded while the original polling scheduler still asserted equality
//! beside them. The run-boundary cases (a degraded GPU, mixed precision
//! with compression, ZeRO-3 with offload, and Balance's nested arms on
//! device slices that straddle two GPU models) were recorded while the
//! simulator still priced and audited every device row on its own. After
//! an intended output change, regenerate the table with
//!
//! ```text
//! cargo test --offline --test sim_equivalence -- --ignored --nocapture print_goldens
//! ```
//!
//! and paste the printed rows over `GOLDENS`.

use std::fmt::{self, Write};

use whale::{
    models, strategies, Annotator, Cluster, CommConfig, DeviceAssignment, Primitive, ScheduleKind,
    Session, TrainingConfig, VirtualDevice, WhaleIr, ZeroStage,
};
use whale_fp::Fingerprinter;

/// `(case, StepOutcome digest)`, in the order `all_cases` lists them.
const GOLDENS: &[(&str, &str)] = &[
    ("dp resnet50 aware=true", "718ac05df2cce909"),
    ("dp resnet50 aware=false", "3c3e506f21b1a3c2"),
    ("pipeline bert_base BackwardFirst", "110b0e923a2e361f"),
    ("pipeline bert_base GPipe", "2d739ee54432e8eb"),
    ("pipeline bert_base AsyncNoFlush", "f6d701d4791ed72a"),
    ("deep hetero pipeline bert_large", "c29cc01632e4a371"),
    ("hybrid pipeline×DP bert_base", "bc6ddb469f20ba76"),
    ("moe hybrid m6_moe tiny", "05a7bcc84761f616"),
    ("vanilla model parallel bert_base", "42250419e60cdcef"),
    ("moe hybrid m6_moe tiny gpu5 at 0.7", "042b6380b272a624"),
    (
        "moe hybrid m6_moe tiny bf16 compress(0.5) hetero",
        "f01912491c3a63f5",
    ),
    (
        "moe hybrid m6_moe tiny zero3 offload amp hetero",
        "b36324830ce65ed8",
    ),
    ("fig6 nested hybrid bert_base hetero", "8888cd72201d89fa"),
    ("nested replica×split bert_base hetero", "1e237ab1e9894a31"),
];

/// One simulated step: the session it plans and steps on, and its IR.
struct Case {
    label: String,
    session: Session,
    ir: WhaleIr,
}

fn dp_cases() -> Vec<Case> {
    [true, false]
        .into_iter()
        .map(|aware| Case {
            label: format!("dp resnet50 aware={aware}"),
            session: Session::on_cluster("8xV100+8xP100")
                .unwrap()
                .hardware_aware(aware),
            ir: strategies::data_parallel(models::resnet50(128).unwrap(), 128).unwrap(),
        })
        .collect()
}

fn pipeline_cases() -> Vec<Case> {
    [
        ScheduleKind::BackwardFirst,
        ScheduleKind::GPipe,
        ScheduleKind::AsyncNoFlush,
    ]
    .into_iter()
    .map(|schedule| Case {
        label: format!("pipeline bert_base {schedule:?}"),
        session: Session::on_cluster("4xV100").unwrap().schedule(schedule),
        ir: strategies::pipeline_only(models::bert_base(32, 64).unwrap(), 32, 8).unwrap(),
    })
    .collect()
}

/// Many stages × many micro batches: where a subtle ordering bug would
/// surface.
fn deep_heterogeneous_case() -> Case {
    Case {
        label: "deep hetero pipeline bert_large".into(),
        session: Session::on_cluster("8xV100+8xP100").unwrap(),
        ir: strategies::pipeline_only(models::bert_large(64, 128).unwrap(), 64, 32).unwrap(),
    }
}

fn hybrid_case() -> Case {
    Case {
        label: "hybrid pipeline×DP bert_base".into(),
        session: Session::on_cluster("2x(4xV100)").unwrap().outer_dp(2),
        ir: strategies::pipeline_with_dp(models::bert_base(64, 64).unwrap(), 64, 4).unwrap(),
    }
}

fn moe_case() -> Case {
    let g = models::m6_moe(models::MoeConfig::tiny(), 16).unwrap();
    Case {
        label: "moe hybrid m6_moe tiny".into(),
        session: Session::on_cluster("4xV100").unwrap(),
        ir: strategies::moe_hybrid(g, 16).unwrap(),
    }
}

fn vanilla_case() -> Case {
    let g = models::bert_base(16, 64).unwrap();
    let cut = g.len() / 2;
    Case {
        label: "vanilla model parallel bert_base".into(),
        session: Session::on_cluster("2xV100").unwrap(),
        ir: strategies::vanilla_model_parallel(g, 16, cut).unwrap(),
    }
}

/// The MoE hybrid at batch 64: replica TaskGraphs alternate with split
/// expert TaskGraphs, every one on every GPU.
fn moe_ir() -> WhaleIr {
    strategies::moe_hybrid(models::m6_moe(models::MoeConfig::tiny(), 64).unwrap(), 64).unwrap()
}

/// Cases where a run of equal device rows breaks, or a memory-ledger rule
/// fires, at a known place.
fn run_boundary_cases() -> Vec<Case> {
    // One degraded GPU: its split-expert rows equal their neighbours' in
    // model, FLOPs and traffic, and differ only in `throughput_scale`.
    let mut degraded = Cluster::parse("2x(8xV100)").unwrap();
    degraded.degrade_gpu(5, 0.7).unwrap();
    // The Fig. 6 hybrid and a `[Replica, Split]` TaskGraph, with virtual
    // devices that straddle the V100/P100 boundary so that Balance's
    // replica and nested arms see unequal batch shares within one device
    // slice. Fig. 6's TG4 shares TG1's GPUs, so those GPUs carry two
    // stages each and their runtime overhead is charged once.
    let vd = |ids: &[usize]| VirtualDevice::new(ids.to_vec()).unwrap();
    let fig6 = |g: whale::Graph| {
        let n = g.len();
        let q = n / 4;
        Annotator::new(g, 32)
            .annotate_range(0, q, vec![Primitive::Replica])
            .unwrap()
            .annotate_range(q, 2 * q, vec![Primitive::Replica])
            .unwrap()
            .annotate_range(2 * q, 3 * q, vec![Primitive::Split])
            .unwrap()
            .annotate_range(3 * q, n, vec![Primitive::Split, Primitive::Replica])
            .unwrap()
            .finish()
            .unwrap()
    };
    let nested = |g: whale::Graph| {
        let n = g.len();
        Annotator::new(g, 32)
            .annotate_range(0, n, vec![Primitive::Replica, Primitive::Split])
            .unwrap()
            .finish()
            .unwrap()
    };
    vec![
        Case {
            label: "moe hybrid m6_moe tiny gpu5 at 0.7".into(),
            session: Session::new(degraded),
            ir: moe_ir(),
        },
        Case {
            label: "moe hybrid m6_moe tiny bf16 compress(0.5) hetero".into(),
            session: Session::on_cluster("1x(4xV100)+1x(4xP100)")
                .unwrap()
                .comm(CommConfig::fused().bf16().compress(0.5)),
            ir: moe_ir(),
        },
        Case {
            label: "moe hybrid m6_moe tiny zero3 offload amp hetero".into(),
            session: Session::on_cluster("1x(4xV100)+1x(4xP100)")
                .unwrap()
                .training(TrainingConfig {
                    amp: true,
                    zero: ZeroStage::Parameters,
                    offload: true,
                    ..TrainingConfig::default()
                }),
            ir: moe_ir(),
        },
        Case {
            label: "fig6 nested hybrid bert_base hetero".into(),
            session: Session::on_cluster("8xV100+8xP100").unwrap().devices(
                DeviceAssignment::PerTaskGraph(vec![
                    vd(&[6, 7, 8, 9]),
                    vd(&[4, 5]),
                    vd(&[10, 11]),
                    vd(&[6, 7, 8, 9]),
                ]),
            ),
            ir: fig6(models::bert_base(32, 64).unwrap()),
        },
        Case {
            label: "nested replica×split bert_base hetero".into(),
            session: Session::on_cluster("8xV100+8xP100").unwrap().devices(
                DeviceAssignment::PerTaskGraph(vec![vd(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])]),
            ),
            ir: nested(models::bert_base(32, 64).unwrap()),
        },
    ]
}

fn all_cases() -> Vec<Case> {
    let mut cases = dp_cases();
    cases.extend(pipeline_cases());
    cases.extend([
        deep_heterogeneous_case(),
        hybrid_case(),
        moe_case(),
        vanilla_case(),
    ]);
    cases.extend(run_boundary_cases());
    cases
}

/// Streams `{:?}` output straight into a fingerprint.
struct FpWriter(Fingerprinter);

impl Write for FpWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_bytes(s.as_bytes());
        Ok(())
    }
}

/// Plan and simulate the case, and return its outcome's digest.
fn step_digest(case: &Case) -> String {
    let label = &case.label;
    let plan = case
        .session
        .plan(&case.ir)
        .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
    let outcome = case
        .session
        .step_plan(&plan)
        .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
    let mut w = FpWriter(Fingerprinter::new("sim-step/outcome"));
    write!(w, "{outcome:?}").unwrap();
    w.0.finish().to_string()
}

fn assert_golden(cases: Vec<Case>) {
    for case in cases {
        let want = GOLDENS
            .iter()
            .find(|(label, _)| *label == case.label)
            .unwrap_or_else(|| panic!("{}: no golden row", case.label))
            .1;
        assert_eq!(
            step_digest(&case),
            want,
            "{}: golden digest moved",
            case.label
        );
    }
}

#[test]
fn data_parallel_plans_match() {
    assert_golden(dp_cases());
}

#[test]
fn pipeline_plans_match_under_every_schedule() {
    assert_golden(pipeline_cases());
}

#[test]
fn deep_heterogeneous_pipeline_matches() {
    assert_golden(vec![deep_heterogeneous_case()]);
}

#[test]
fn hybrid_pipeline_with_outer_dp_matches() {
    assert_golden(vec![hybrid_case()]);
}

#[test]
fn moe_hybrid_matches() {
    assert_golden(vec![moe_case()]);
}

#[test]
fn vanilla_model_parallel_matches() {
    assert_golden(vec![vanilla_case()]);
}

#[test]
fn run_boundaries_and_ledger_rules_match() {
    assert_golden(run_boundary_cases());
}

#[test]
#[ignore = "prints the GOLDENS table; run it to regenerate after an intended change"]
fn print_goldens() {
    for case in all_cases() {
        println!("    (\"{}\", \"{}\"),", case.label, step_digest(&case));
    }
}
