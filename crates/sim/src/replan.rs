//! Consistency checks for replanned execution plans.
//!
//! `whale_planner::replan` re-runs only the compile passes a
//! [`whale_hardware::ClusterDelta`] invalidates, so a replanned plan reuses
//! artifacts computed for the *pre*-delta cluster. [`check_replan`] verifies
//! that the shortcut preserved the training semantics — same global batch,
//! same micro-batching, same stage structure, every referenced GPU present
//! on the post-delta cluster — and then simulates one step on the new
//! topology to prove the plan still executes.
//!
//! The check is diagnostic (tests, the CLI `replan` demo), not part of the
//! planning hot path: every violation is reported as a human-readable issue
//! rather than an error, so callers can print all of them at once.

use whale_hardware::Cluster;
use whale_planner::ExecutionPlan;

use crate::engine::{simulate_step, SimConfig, StepOutcome};

/// Outcome of [`check_replan`]: accumulated issues plus, when the plan is
/// structurally sound, the simulated step on the post-delta cluster.
#[derive(Debug)]
pub struct ReplanReport {
    /// Human-readable consistency violations (empty = consistent).
    pub issues: Vec<String>,
    /// Non-fatal observations (e.g. the plan exceeds device memory — a
    /// property of the workload, not of the replan shortcut; the simulator
    /// reports the same set in `StepStats::oom_gpus`).
    pub warnings: Vec<String>,
    /// One simulated step of the replanned plan on the new cluster.
    /// `None` when the plan failed validation or simulation.
    pub outcome: Option<StepOutcome>,
}

impl ReplanReport {
    /// True when the replanned plan passed every check and simulated.
    /// Warnings do not count against consistency.
    pub fn is_consistent(&self) -> bool {
        self.issues.is_empty() && self.outcome.is_some()
    }
}

impl std::fmt::Display for ReplanReport {
    /// One line per finding: `issue: …` / `warning: …`, or a single `OK`
    /// line (with the simulated throughput) for a clean report. The CLI and
    /// tests print this instead of formatting `issues` by hand.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut lines: Vec<String> = self
            .issues
            .iter()
            .map(|i| format!("issue: {i}"))
            .chain(self.warnings.iter().map(|w| format!("warning: {w}")))
            .collect();
        if let (Some(out), true) = (&self.outcome, self.issues.is_empty()) {
            lines.push(format!(
                "OK ({:.1} samples/s after replan)",
                out.stats.throughput
            ));
        }
        write!(f, "{}", lines.join("\n"))
    }
}

/// Verify that `new` (a replanned plan) is semantically consistent with
/// `old` (the pre-delta plan) and executable on `cluster` (the post-delta
/// topology). Never fails: every problem becomes an entry in
/// [`ReplanReport::issues`].
pub fn check_replan(
    old: &ExecutionPlan,
    new: &ExecutionPlan,
    cluster: &Cluster,
    sim: &SimConfig,
) -> ReplanReport {
    let mut issues = Vec::new();
    let mut warnings = Vec::new();

    if new.name != old.name {
        issues.push(format!(
            "replan changed the model: '{}' -> '{}'",
            old.name, new.name
        ));
    }
    if new.global_batch != old.global_batch {
        issues.push(format!(
            "replan changed the global batch: {} -> {}",
            old.global_batch, new.global_batch
        ));
    }
    if new.num_micro_batches != old.num_micro_batches {
        issues.push(format!(
            "replan changed micro-batching: {} -> {} micro batches",
            old.num_micro_batches, new.num_micro_batches
        ));
    }
    if new.stages.len() != old.stages.len() {
        issues.push(format!(
            "replan changed the stage count: {} -> {}",
            old.stages.len(),
            new.stages.len()
        ));
    } else {
        // Rebalancing may move samples between a stage's replicas but must
        // conserve the stage's total (the batch is fixed by the IR).
        for (o, n) in old.stages.iter().zip(new.stages.iter()) {
            let old_sum: usize = o.devices.iter().map(|d| d.samples_per_step).sum();
            let new_sum: usize = n.devices.iter().map(|d| d.samples_per_step).sum();
            if old_sum != new_sum {
                issues.push(format!(
                    "stage {} lost samples in the replan: {} -> {} per step",
                    o.index, old_sum, new_sum
                ));
            }
        }
    }

    if let Err(e) = new.validate(cluster) {
        issues.push(format!("replanned plan is invalid on the new cluster: {e}"));
        return ReplanReport {
            issues,
            warnings,
            outcome: None,
        };
    }
    match new.memory_feasible(cluster) {
        Ok(false) => {
            warnings.push("plan exceeds device memory on the new cluster".to_string());
        }
        Err(e) => issues.push(format!("memory audit failed: {e}")),
        Ok(true) => {}
    }

    match simulate_step(new, cluster, sim) {
        Ok(outcome) => ReplanReport {
            issues,
            warnings,
            outcome: Some(outcome),
        },
        Err(e) => {
            issues.push(format!("replanned plan failed to simulate: {e}"));
            ReplanReport {
                issues,
                warnings,
                outcome: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::ClusterDelta;
    use whale_ir::Annotator;
    use whale_planner::{plan, PlanService, PlannerConfig};

    fn dp_ir(batch: usize) -> whale_ir::WhaleIr {
        let g = models::resnet50(batch).unwrap();
        Annotator::new(g, batch)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn degradation_replan_is_consistent() {
        let ir = dp_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let config = PlannerConfig::default();
        let old = plan(&ir, &cluster, &config).unwrap();

        let (new, after) = PlanService::default()
            .replan(
                &ir,
                &cluster,
                &config,
                ClusterDelta::GpuDegraded { id: 0, scale: 0.5 },
            )
            .unwrap();

        let report = check_replan(&old, &new, &after, &SimConfig::default());
        assert!(report.is_consistent(), "issues: {:?}", report.issues);
        assert!(report.outcome.unwrap().stats.throughput > 0.0);
    }

    #[test]
    fn structural_replan_is_consistent_on_new_topology() {
        let ir = dp_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let config = PlannerConfig::default();
        let old = plan(&ir, &cluster, &config).unwrap();

        let (new, after) = PlanService::default()
            .replan(&ir, &cluster, &config, ClusterDelta::GpuRemoved { id: 3 })
            .unwrap();

        let report = check_replan(&old, &new, &after, &SimConfig::default());
        assert!(report.is_consistent(), "issues: {:?}", report.issues);
        assert_eq!(report.outcome.unwrap().stats.per_gpu.len(), 3);
    }

    #[test]
    fn tampered_plan_is_flagged() {
        let ir = dp_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let config = PlannerConfig::default();
        let old = plan(&ir, &cluster, &config).unwrap();

        // Batch mismatch + sample loss.
        let mut shrunk = old.clone();
        shrunk.global_batch = 32;
        std::sync::Arc::make_mut(&mut shrunk.stages)[0].devices[0].samples_per_step = 0;
        let report = check_replan(&old, &shrunk, &cluster, &SimConfig::default());
        assert!(!report.is_consistent());
        assert!(report.issues.iter().any(|i| i.contains("global batch")));
        assert!(report.issues.iter().any(|i| i.contains("lost samples")));

        // References a GPU missing from the post-delta cluster.
        let smaller = Cluster::parse("2xV100").unwrap();
        let report = check_replan(&old, &old, &smaller, &SimConfig::default());
        assert!(!report.is_consistent());
        assert!(report.outcome.is_none());
        assert!(report.issues.iter().any(|i| i.contains("invalid")));
    }

    #[test]
    fn report_display_covers_issues_warnings_and_ok() {
        let ir = dp_ir(64);
        let cluster = Cluster::parse("4xV100").unwrap();
        let config = PlannerConfig::default();
        let old = plan(&ir, &cluster, &config).unwrap();

        let clean = check_replan(&old, &old, &cluster, &SimConfig::default());
        assert!(clean.to_string().starts_with("OK ("), "{clean}");

        let mut shrunk = old.clone();
        shrunk.global_batch = 32;
        let report = check_replan(&old, &shrunk, &cluster, &SimConfig::default());
        let text = report.to_string();
        assert!(
            text.contains("issue: replan changed the global batch"),
            "{text}"
        );
        assert!(!text.contains("OK ("), "{text}");

        let synthetic = ReplanReport {
            issues: vec![],
            warnings: vec!["plan exceeds device memory".into()],
            outcome: None,
        };
        assert_eq!(synthetic.to_string(), "warning: plan exceeds device memory");
    }
}
