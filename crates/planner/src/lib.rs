//! The Whale parallel planner (§3.4-3.5).
//!
//! Transforms annotated Whale IR into a distributed [`ExecutionPlan`]:
//!
//! * [`bridge`] — Partition/Gather/Identity bridge layers with fusion
//!   (Figs. 7-9);
//! * [`partition`] — computation-balanced proportional splitting;
//! * [`psvf`](mod@psvf) — the Peak-Shaving-and-Valley-Filling loop (Algorithm 1);
//! * [`dp_balance`] — hardware-aware data-parallel partition (Algorithm 2);
//! * [`pipe_balance`] — hardware-aware pipeline partition with `shift_op`
//!   (Algorithm 3, Fig. 11);
//! * [`shard`] — split-pattern matching (MoE / Megatron / large-FC);
//! * [`planner`] — plan assembly: device mapping, degree inference, bridges,
//!   gradient-sync groups;
//! * [`cost`] — the step's cost model, which the simulator and every search
//!   bound price with.
//!
//! # Examples
//!
//! ```
//! use whale_graph::models;
//! use whale_hardware::Cluster;
//! use whale_ir::Annotator;
//! use whale_planner::{plan, PlannerConfig};
//!
//! let g = models::resnet50(64).unwrap();
//! let ir = Annotator::new(g, 64).replicate_all().unwrap().finish().unwrap();
//! let cluster = Cluster::parse("8xV100+8xP100").unwrap();
//! let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
//! // Hardware-aware DP gives V100 replicas bigger batches than P100's.
//! assert!(p.stages[0].devices[0].samples_per_step
//!     > p.stages[0].devices[8].samples_per_step);
//! ```

pub(crate) mod balance_memo;
pub mod bridge;
pub mod cache;
pub mod commopt;
pub mod cost;
pub mod dp_balance;
pub mod error;
pub mod estimate;
pub mod ledger;
pub mod partition;
pub mod pipe_balance;
pub mod pipeline;
pub mod plan;
pub mod planner;
pub mod psvf;
pub mod render;
pub mod service;
pub mod shard;

pub use cache::{CacheStats, PlanKey};
pub use commopt::{
    CommConfig, CommOpt, GradBucket, GradDtype, GradSyncSchedule, SyncMode, DEFAULT_FUSION_BYTES,
};
pub use dp_balance::{dp_partition, dp_partition_traced, DpPartition};
pub use error::{PlanError, Result};
pub use estimate::{estimate_step_lower_bound, structural_lower_bound, StructuralBound};
pub use ledger::{
    LedgerComponent, LedgerEntry, LedgerRules, MemoryLedger, LOSS_SCALING_STATE_BYTES,
};
pub use pipe_balance::{
    in_flight_micro_batches, pipeline_leaf_bound, pipeline_memory_floor, pipeline_partition,
    stage_flops, MemoryPrefix, MemoryShortfall, PipePartition,
};
pub use pipeline::{
    compile, invalidation_start, replan, BalancedStages, BridgedPlan, CompilePipeline,
    CompileState, InferredDegrees, PassContext, PassId, PlacedTaskGraphs, PlannerPass,
};
pub use plan::{CollectiveTask, DeviceWork, ExecutionPlan, PlannedStage};
pub use planner::{plan, DeviceAssignment, PlannerConfig, ScheduleKind};
pub use psvf::{psvf, psvf_traced, PsvfReport, PsvfStep, Workload};
pub use render::{digest, render_plan};
pub use service::PlanService;
pub use shard::{match_split_pattern, SplitPattern, SplitPlan};
