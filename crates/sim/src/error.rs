//! Error type for simulation.

use std::fmt;

/// Errors raised while simulating an execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The plan referenced devices or structure the cluster lacks.
    BadPlan(String),
    /// Hardware-model failure (unknown device, bad group).
    Hardware(String),
    /// Scheduling produced an inconsistent task graph (a bug if it happens).
    Schedule(String),
    /// [`crate::SimConfig::sync_overlap`] is not a finite fraction in
    /// `[0, 1]`.
    SyncOverlapOutOfRange(f64),
    /// A step's task count, stages × 2 × micro batches, is above
    /// [`crate::engine::MAX_TASKS`].
    TooManyTasks {
        /// The plan's pipeline stages.
        stages: usize,
        /// The plan's micro batches per step.
        micro_batches: usize,
        /// The task count; `None` when it overflows `usize`.
        tasks: Option<usize>,
    },
    /// A fleet run fell below its capacity floor: the pool's surviving
    /// FLOPS dropped under `required` (a fraction of the starting
    /// capacity), so no legal shrink can keep the tenants running.
    InsufficientCapacity {
        /// Surviving capacity as a fraction of the starting capacity.
        available: f64,
        /// The configured floor ([`crate::recovery::RecoveryPolicy::min_capacity`]).
        required: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadPlan(s) => write!(f, "bad plan: {s}"),
            SimError::Hardware(s) => write!(f, "hardware error: {s}"),
            SimError::Schedule(s) => write!(f, "schedule error: {s}"),
            SimError::SyncOverlapOutOfRange(x) => {
                write!(f, "sync_overlap must be a fraction in [0, 1], got {x}")
            }
            SimError::TooManyTasks {
                stages,
                micro_batches,
                tasks,
            } => {
                let cap = crate::engine::MAX_TASKS;
                let shape = format!("{stages} stages × 2 × {micro_batches} micro batches");
                match tasks {
                    Some(n) => write!(f, "{shape} is {n} tasks, over the cap of {cap} per step"),
                    None => write!(
                        f,
                        "{shape} overflows usize, over the cap of {cap} tasks per step"
                    ),
                }
            }
            SimError::InsufficientCapacity {
                available,
                required,
            } => write!(
                f,
                "insufficient capacity: {available:.3} of starting FLOPS survive, \
                 below the {required:.3} floor"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<whale_hardware::HardwareError> for SimError {
    fn from(e: whale_hardware::HardwareError) -> Self {
        SimError::Hardware(e.to_string())
    }
}

impl From<whale_planner::PlanError> for SimError {
    fn from(e: whale_planner::PlanError) -> Self {
        SimError::BadPlan(e.to_string())
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
