//! End-to-end CLI tests: run the real binary and check its output.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_whale-cli"))
        .args(args)
        .output()
        .expect("launch whale-cli");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_commands() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for cmd in [
        "models", "gpus", "plan", "simulate", "auto", "dot", "inspect", "faults",
    ] {
        assert!(stdout.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn models_and_gpus_tables() {
    let (stdout, _, ok) = run(&["models"]);
    assert!(ok);
    assert!(stdout.contains("m6-moe-1t"));
    let (stdout, _, ok) = run(&["gpus"]);
    assert!(ok);
    assert!(stdout.contains("V100-32GB"));
    assert!(stdout.contains("P100-16GB"));
}

#[test]
fn simulate_dp_reports_throughput() {
    let (stdout, _, ok) = run(&[
        "simulate",
        "--cluster",
        "2xV100,2xP100",
        "--model",
        "resnet50",
        "--batch",
        "64",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("throughput"));
    assert!(stdout.contains("memory: fits"));
    assert!(stdout.contains("P100-16GB"));
}

#[test]
fn simulate_json_is_parseable() {
    let (stdout, _, ok) = run(&[
        "simulate",
        "--cluster",
        "4xV100",
        "--model",
        "bert-base",
        "--batch",
        "32",
        "--seq",
        "64",
        "--json",
    ]);
    assert!(ok);
    let json_start = stdout.find('{').expect("json in output");
    let v = whale_sim::json::parse(stdout[json_start..].trim()).expect("valid json");
    assert!(v.get("step_time").as_f64().unwrap() > 0.0);
    assert_eq!(v.get("per_gpu").as_array().unwrap().len(), 4);
}

#[test]
fn dot_output_is_graphviz() {
    let (stdout, _, ok) = run(&["dot", "--model", "moe-tiny", "--batch", "8"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("cluster_tg"));
}

#[test]
fn inspect_prints_census() {
    let (stdout, _, ok) = run(&["inspect", "--model", "vit-large", "--batch", "2"]);
    assert!(ok);
    assert!(stdout.contains("parameters"));
    assert!(stdout.contains("MatMul"));
}

#[test]
fn bad_inputs_fail_with_messages() {
    let (_, stderr, ok) = run(&["plan", "--model", "alexnet"]);
    assert!(!ok);
    assert!(stderr.contains("alexnet"));
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, ok) = run(&["plan", "--zero", "7"]);
    assert!(!ok);
    assert!(stderr.contains("zero"));
    let (_, stderr, ok) = run(&["faults", "--min-capacity", "nan"]);
    assert!(!ok);
    assert!(stderr.contains("min_capacity"), "{stderr}");
}

#[test]
fn faults_prints_timeline_and_summary() {
    let args = [
        "faults",
        "--cluster",
        "8xV100",
        "--model",
        "resnet50",
        "--batch",
        "128",
        "--samples",
        "300000",
        "--mtbf",
        "80000",
        "--seed",
        "11",
    ];
    let (stdout, _, ok) = run(&args);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("recovery timeline:"));
    assert!(stdout.contains("goodput"));
    assert!(stdout.contains("replans"));
    // Same seed reproduces the run verbatim.
    let (again, _, ok) = run(&args);
    assert!(ok);
    assert_eq!(stdout, again, "fault runs must be deterministic");
}

#[test]
fn faults_json_reports_recovery_stats() {
    let (stdout, _, ok) = run(&[
        "faults",
        "--cluster",
        "4xV100,4xP100",
        "--model",
        "resnet50",
        "--batch",
        "128",
        "--samples",
        "200000",
        "--mtbf",
        "60000",
        "--seed",
        "3",
        "--json",
    ]);
    assert!(ok, "{stdout}");
    let json_start = stdout.find('{').expect("json in output");
    let v = whale_sim::json::parse(stdout[json_start..].trim()).expect("valid json");
    assert_eq!(v.get("committed_samples").as_f64().unwrap(), 200000.0);
    assert!(v.get("goodput").as_f64().unwrap() > 0.0);
    assert!(v.get("faults").as_array().is_some());
}

#[test]
fn compile_degrade_checks_consistency() {
    let (stdout, _, ok) = run(&[
        "compile",
        "--cluster",
        "4xV100",
        "--model",
        "resnet50",
        "--batch",
        "64",
        "--degrade",
        "0:0.5",
        "--cache-stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("OK ("), "{stdout}");
    assert!(stdout.contains("partial 1"), "{stdout}");
    // Degrading a GPU that does not exist fails with a non-zero exit.
    let (_, stderr, ok) = run(&["compile", "--cluster", "4xV100", "--degrade", "17:0.5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown device"), "{stderr}");
}

#[test]
fn compile_degrade_checks_the_replan_under_the_sessions_schedule() {
    use whale::{models, strategies, ClusterDelta, ScheduleKind, Session};
    let mut session = Session::on_cluster("1x(4xV100)")
        .unwrap()
        .schedule(ScheduleKind::GPipe);
    let ir = strategies::pipeline_only(models::bert_base(64, 128).unwrap(), 64, 8).unwrap();
    session.plan(&ir).unwrap();
    let replanned = session
        .replan(&ir, ClusterDelta::GpuDegraded { id: 0, scale: 0.5 })
        .unwrap();
    let step = session.step_plan(&replanned).unwrap();
    let expected = format!("OK ({:.1} samples/s after replan)", step.stats.throughput);

    let (stdout, _, ok) = run(&[
        "compile",
        "--cluster",
        "1x(4xV100)",
        "--model",
        "bert-base",
        "--batch",
        "64",
        "--strategy",
        "pipeline",
        "--micro",
        "8",
        "--gpipe",
        "--degrade",
        "0:0.5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains(&expected), "{expected} not in\n{stdout}");
}

#[test]
fn an_out_of_range_compression_ratio_exits_nonzero_with_the_planners_message() {
    for command in ["simulate", "auto"] {
        let (_, stderr, ok) = run(&[command, "--compress-ratio", "0"]);
        assert!(!ok, "{command}");
        assert!(
            stderr.contains("compress_ratio must lie in (0, 1], got 0"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn baseline_flag_slows_hetero_dp() {
    let step_time = |extra: &[&str]| {
        let mut args = vec![
            "simulate",
            "--cluster",
            "4xV100,4xP100",
            "--model",
            "resnet50",
            "--batch",
            "256",
            "--json",
        ];
        args.extend_from_slice(extra);
        let (stdout, _, ok) = run(&args);
        assert!(ok);
        let json_start = stdout.find('{').unwrap();
        let v = whale_sim::json::parse(stdout[json_start..].trim()).unwrap();
        v.get("step_time").as_f64().unwrap()
    };
    let aware = step_time(&[]);
    let baseline = step_time(&["--baseline"]);
    assert!(
        baseline > aware * 1.2,
        "baseline {baseline} vs aware {aware}"
    );
}

#[test]
fn zero_batch_exits_nonzero() {
    for args in [
        &["simulate", "--model", "resnet50", "--batch", "0"][..],
        &["auto", "--search", "--model", "resnet50", "--batch", "0"][..],
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(!ok, "{args:?} succeeded: {stdout}");
        assert!(stderr.contains("global batch"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_batch_whose_tensors_overflow_exits_nonzero() {
    let (stdout, stderr, ok) = run(&[
        "simulate",
        "--model",
        "bert-large",
        "--batch",
        "4611686018427387904",
        "--cluster",
        "1x(8xV100)",
    ]);
    assert!(!ok, "succeeded: {stdout}");
    assert!(
        stderr.contains("op 'tokens': output [4611686018427387904, 128] of f32 overflows 64 bits"),
        "{stderr}"
    );
}

#[test]
fn oversized_cluster_exits_nonzero_at_once() {
    let start = std::time::Instant::now();
    for spec in ["99999999999x(8xV100)", "100000x(100000xV100)"] {
        let (stdout, stderr, ok) = run(&["simulate", "--model", "resnet50", "--cluster", spec]);
        assert!(!ok, "{spec} succeeded: {stdout}");
        assert!(stderr.contains("more than"), "{spec}: {stderr}");
    }
    assert!(start.elapsed().as_secs() < 30, "took {:?}", start.elapsed());
}

#[test]
fn a_step_with_too_many_tasks_exits_nonzero_at_once() {
    // 8 stages × 2 × micro batches: 2^62 overflows usize, 262,145 is
    // 4,194,320 tasks, just over the cap of 2^22.
    for (micro, why) in [
        ("4611686018427387904", "overflows usize"),
        ("262145", "is 4194320 tasks, over the cap of 4194304"),
    ] {
        let start = std::time::Instant::now();
        let (stdout, stderr, ok) = run(&[
            "simulate",
            "--strategy",
            "pipeline",
            "--model",
            "bert-base",
            "--batch",
            "16",
            "--cluster",
            "1x(8xV100)",
            "--micro",
            micro,
        ]);
        let took = start.elapsed();
        assert!(!ok, "--micro {micro} succeeded: {stdout}");
        assert!(stderr.contains(why), "--micro {micro}: {stderr}");
        assert!(took.as_secs_f64() < 5.0, "--micro {micro} took {took:?}");
    }
}

#[test]
fn auto_search_summary_partitions_the_leaves() {
    let (stdout, _, ok) = run(&[
        "auto",
        "--search",
        "--threads",
        "1",
        "--model",
        "m6-10b",
        "--batch",
        "256",
        "--cluster",
        "2x(8xV100)+2x(8xP100)",
    ]);
    assert!(ok, "{stdout}");
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("search:"))
        .expect("summary line");
    for part in [
        "by the memory floor",
        "degenerate",
        "plan errors",
        "out of memory",
        "pruned post-plan",
        "simulated",
        "rejected before planning",
    ] {
        assert!(
            summary.contains(part),
            "summary missing '{part}': {summary}"
        );
    }
    assert!(stdout.contains("chosen: pipeline"), "{stdout}");
}

#[test]
fn unbounded_event_generators_exit_nonzero_at_once() {
    for (args, why) in [
        (&["fleet", "--horizon", "1e12"][..], "expects"),
        (&["faults", "--mtbf", "0"][..], "positive and finite"),
        (
            &["compile", "--repeat", "18446744073709551615"][..],
            "--repeat",
        ),
    ] {
        let start = std::time::Instant::now();
        let (stdout, stderr, ok) = run(args);
        let took = start.elapsed();
        assert!(!ok, "{args:?} succeeded: {stdout}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(took.as_secs_f64() < 1.0, "{args:?} took {took:?}");
    }
}
