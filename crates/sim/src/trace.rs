//! Timeline export: ASCII pipeline diagrams and Chrome-trace JSON.
//!
//! The ASCII renderer reproduces the paper's pipeline figures (Figs. 3, 12):
//! one row per stage, `F` cells for forward micro batches, `B` for backward,
//! `.` for bubbles.

use crate::engine::{StepOutcome, TaskRecord};
use crate::schedule::TaskKind;
use whale_hardware::Cluster;
use whale_planner::ExecutionPlan;

/// Render the step timeline as an ASCII pipeline diagram with `width`
/// character columns.
pub fn ascii_timeline(outcome: &StepOutcome, width: usize) -> String {
    let width = width.max(10);
    let records = outcome.timeline.records();
    let end = records.iter().map(|r| r.end).fold(0.0f64, f64::max);
    if end <= 0.0 {
        return String::from("(empty timeline)\n");
    }
    let num_stages = records
        .iter()
        .map(|r| r.kind.stage())
        .max()
        .map(|s| s + 1)
        .unwrap_or(0);
    let col = |t: f64| ((t / end) * width as f64).floor() as usize;
    let mut out = String::new();
    for s in 0..num_stages {
        let mut row = vec!['.'; width + 1];
        for r in records.iter().filter(|r| r.kind.stage() == s) {
            let (a, b) = (col(r.start), col(r.end).max(col(r.start) + 1));
            let ch = if r.kind.is_backward() { 'B' } else { 'F' };
            for cell in row.iter_mut().take(b.min(width + 1)).skip(a) {
                *cell = ch;
            }
        }
        out.push_str(&format!("stage{s:<2} |"));
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Export the timeline as Chrome `chrome://tracing` JSON (one row per
/// stage, microseconds).
pub fn chrome_trace(outcome: &StepOutcome) -> String {
    let mut events = Vec::new();
    for r in &outcome.timeline.records() {
        events.push(format!(
            r#"{{"name":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{}}}"#,
            task_label(r),
            r.start * 1e6,
            (r.end - r.start) * 1e6,
            r.kind.stage()
        ));
    }
    format!("[{}]", events.join(","))
}

/// Render each GPU's memory demand, its
/// [`memory_totals`](ExecutionPlan::memory_totals), as an ASCII bar chart
/// against capacity.
///
/// One row per GPU the plan touches, in id order: `#` cells for used
/// memory, `.` for headroom, `!` marking overflow past capacity.
///
/// # Errors
///
/// A device id the cluster lacks returns the error `memory_totals` returns.
pub fn memory_profile(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    width: usize,
) -> whale_planner::Result<String> {
    let width = width.max(10);
    let mut out = String::new();
    for (total, gpu) in plan.memory_totals(cluster)?.into_iter().zip(cluster.gpus()) {
        let Some(bytes) = total else { continue };
        let (cap, model, gpu_id) = (gpu.memory_bytes(), gpu.model.to_string(), gpu.id);
        let frac = if cap > 0 {
            bytes as f64 / cap as f64
        } else {
            1.0
        };
        let used = ((frac.min(1.0)) * width as f64).round() as usize;
        let over = frac > 1.0;
        let mut bar: String = "#".repeat(used);
        bar.push_str(&".".repeat(width - used));
        if over {
            bar.push('!');
        }
        out.push_str(&format!(
            "gpu{gpu_id:<3} {model:<10} |{bar}| {:.1}/{:.0} GiB{}\n",
            bytes as f64 / (1u64 << 30) as f64,
            cap as f64 / (1u64 << 30) as f64,
            if over { "  OUT OF MEMORY" } else { "" }
        ));
    }
    Ok(out)
}

fn task_label(r: &TaskRecord) -> String {
    match r.kind {
        TaskKind::Forward { stage, micro } => format!("F{stage},{micro}"),
        TaskKind::Backward { stage, micro } => format!("B{stage},{micro}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_step, SimConfig};
    use whale_graph::models;
    use whale_hardware::Cluster;
    use whale_ir::Annotator;
    use whale_planner::{plan, PlannerConfig};

    fn outcome() -> StepOutcome {
        let g = models::bert_base(16, 64).unwrap();
        let ir = Annotator::new(g, 16)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        simulate_step(&p, &cluster, &SimConfig::default()).unwrap()
    }

    #[test]
    fn ascii_has_one_row_per_stage() {
        let a = ascii_timeline(&outcome(), 80);
        assert_eq!(a.lines().count(), 4);
        assert!(a.contains('F') && a.contains('B'));
        // Later stages start later: stage 3's row begins with bubbles.
        let last = a.lines().last().unwrap();
        let body = last.split('|').nth(1).unwrap();
        assert!(body.starts_with('.'), "stage 3 should idle first: {last}");
    }

    #[test]
    fn memory_profile_bars() {
        let g = models::bert_base(16, 64).unwrap();
        let ir = Annotator::new(g, 16)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let prof = memory_profile(&p, &cluster, 40).unwrap();
        assert_eq!(prof.lines().count(), 4);
        assert!(prof.contains("V100-32GB"));
        assert!(prof.contains('#'));
        assert!(!prof.contains("OUT OF MEMORY"));
    }

    #[test]
    fn memory_profile_flags_oom() {
        let g = models::gpt2_xl(128, 256).unwrap();
        let ir = Annotator::new(g, 128)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("2xP100").unwrap();
        let cfg = PlannerConfig {
            hardware_aware: false,
            ..PlannerConfig::default()
        };
        let p = plan(&ir, &cluster, &cfg).unwrap();
        let prof = memory_profile(&p, &cluster, 30).unwrap();
        assert!(prof.contains("OUT OF MEMORY"));
        assert!(prof.contains('!'));
    }

    #[test]
    fn chrome_trace_is_json_array() {
        let j = chrome_trace(&outcome());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"name\":\"F0,0\""));
        assert!(j.contains("\"name\":\"B3,0\""));
    }
}
