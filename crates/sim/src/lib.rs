//! Discrete-event cluster simulator for the Whale reproduction.
//!
//! The paper evaluates on real V100/P100 clusters; this crate substitutes a
//! deterministic simulator that executes an
//! [`whale_planner::ExecutionPlan`] against the analytic hardware model:
//!
//! * [`schedule`] — the backward-first (1F1B) and GPipe pipeline orders and
//!   the control/data dependency structure of §4 (Fig. 12);
//! * [`engine`] — per-step simulation: compute via `t = MF/(GF·α)`,
//!   inter-stage transfers, intra-stage collectives, hierarchical gradient
//!   AllReduce overlapped with backward compute, memory audit;
//! * [`metrics`] — step time, throughput, per-GPU utilization (the SMACT
//!   proxy of Tables 2-3), bubble ratio;
//! * [`trainer`] — multi-step runs with a scaling-law loss model (Fig. 16);
//! * [`trace`] — ASCII pipeline diagrams and Chrome-trace export.
//!
//! # Examples
//!
//! ```
//! use whale_graph::models;
//! use whale_hardware::Cluster;
//! use whale_ir::Annotator;
//! use whale_planner::{plan, PlannerConfig};
//! use whale_sim::{simulate_step, SimConfig};
//!
//! let g = models::resnet50(64).unwrap();
//! let ir = Annotator::new(g, 64).replicate_all().unwrap().finish().unwrap();
//! let cluster = Cluster::parse("8xV100+8xP100").unwrap();
//! let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
//! let out = simulate_step(&p, &cluster, &SimConfig::default()).unwrap();
//! assert!(out.stats.throughput > 0.0);
//! ```

pub mod engine;
pub mod error;
pub mod faults;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod recovery;
pub mod replan;
pub mod rng;
pub mod schedule;
pub mod trace;
pub mod trainer;

pub use engine::{simulate_step, SimConfig, StepOutcome, TaskRecord};
pub use error::{Result, SimError};
pub use faults::{FaultEvent, FaultKind, FaultModel, FaultTrace};
pub use fleet::{default_templates, FleetConfig, FleetReport, FleetSim, FleetStats, JobTemplate};
pub use json::JsonValue;
pub use metrics::{GpuStat, StepStats};
pub use queue::{replay, synthetic_trace, AllocPolicy, Job, JobOutcome, QueueStats};
pub use recovery::{
    time_to_recover_quantile, RecoveryEvent, RecoveryPolicy, RecoveryStats, ReplanPath,
};
pub use replan::{check_replan, ReplanReport};
pub use rng::SplitMix64;
pub use schedule::{data_deps, stage_order, TaskKind};
pub use trace::{ascii_timeline, chrome_trace, memory_profile};
pub use trainer::{simulate_training, LossModel, TrainPoint, TrainingRun};
