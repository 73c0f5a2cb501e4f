//! Request-level benchmark of the Whale reproduction.
//!
//! ```text
//! reqbench --workload <cold-plan|auto-search|plan-serve|fault-recovery>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from the seed, serves it closed-loop for the given
//! seconds, checks every output, and prints one JSON result line last on
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (which also writes the spans to
//! `out/trace-<workload>-<seed>.json` beside this package). See README.md.

mod alloc;
mod auto_search;
mod cold_plan;
mod corpus;
mod fault_recovery;
mod gen;
mod plan_serve;
mod report;
mod runner;
mod speed;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use runner::{Measured, Workload};
use whale_sim::json::{num, obj, s, JsonValue};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fresh processes that repeat set-up alone, so `setup_s` is a median of
/// nine cold set-ups (this process's own and these): one set-up swings by a
/// fifth on a shared host.
const SETUP_REPEATS: usize = 8;

/// The host-speed probe runs this long before and after set-up, which it
/// takes to reference speed.
const SETUP_PROBING: Duration = Duration::from_millis(20);

const USAGE: &str = "usage: reqbench --workload <cold-plan|auto-search|plan-serve|fault-recovery> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "cold-plan" => execute(&args, cold_plan::ColdPlan::setup),
        "auto-search" => execute(&args, auto_search::AutoSearch::setup),
        "plan-serve" => execute(&args, plan_serve::PlanServe::setup),
        "fault-recovery" => execute(&args, fault_recovery::FaultRecovery::setup),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up time of a fresh process running set-up alone.
fn repeat_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("repeat set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() => Ok(s),
        _ => Err(format!(
            "repeated set-up failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn execute<W: Workload>(args: &Args, setup: fn(u64) -> Result<W, String>) -> Result<(), String> {
    let mut speed = speed::Probe::new();
    speed.sample_for(SETUP_PROBING);
    let t0 = Instant::now();
    let w = setup(args.seed)?;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    speed.sample_for(SETUP_PROBING);
    let setup_s = setup_wall_s * speed.take_scale();
    if args.setup_only {
        println!("{setup_s}");
        return Ok(());
    }

    let (m, metrics, units): (Measured, _, &[(&str, &str)]) = if args.trace {
        alloc::enable();
        let m = runner::drive(&w, args.seconds, true);
        let metrics = report::per_layer(&w, &m);
        (m, metrics, &report::PER_LAYER)
    } else {
        let mut setups = vec![setup_s];
        for _ in 0..SETUP_REPEATS {
            setups.push(repeat_setup(args)?);
        }
        let m = runner::drive(&w, args.seconds, false);
        let metrics = report::end_to_end(&w, &m, stats::median(&setups));
        (m, metrics, &report::END_TO_END)
    };

    let n = m.untraced_requests;
    eprintln!(
        "reqbench {} seed {}: {} requests, {} failed, {:.2} s; {n} untraced requests of {} kinds, \
         {} beyond p99",
        args.workload,
        args.seed,
        m.attempted,
        m.failed,
        m.wall_s,
        m.kind_medians().len(),
        n - (n as f64 * 0.99).ceil() as u64,
    );
    if m.lap_scales.is_empty() {
        eprintln!("  timings: wall-clock");
    } else {
        eprintln!(
            "  timings: wall-clock seconds × {:.3} (median over {} laps) = seconds at reference speed",
            stats::median(&m.lap_scales),
            m.lap_scales.len()
        );
    }
    if let Some(e) = &m.first_error {
        eprintln!("  first failure: {e}");
    }
    for (name, value) in &metrics {
        eprintln!("  {name:<32} {value:.6}");
    }
    if args.trace {
        write_trace(args, &m, &metrics)?;
    }
    println!(
        "{}",
        report::result_line(m.attempted, m.failed, &metrics, units)
    );
    Ok(())
}

/// Write the traced run's spans, counters and metrics as one JSON document.
fn write_trace(args: &Args, m: &Measured, metrics: &[(&str, f64)]) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = obj(vec![
        ("workload", s(&args.workload)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        (
            "metrics",
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), num(*v)))
                    .collect(),
            ),
        ),
        ("trace", m.totals.to_json()),
    ]);
    std::fs::write(&path, doc.to_string_compact() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}
