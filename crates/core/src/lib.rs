//! Whale (Rust reproduction): efficient giant-model training over
//! heterogeneous GPUs.
//!
//! This crate is the public façade over the reproduction of Jia et al.'s
//! Whale (USENIX ATC 2022). It re-exports the substrates and adds:
//!
//! * [`Session`] — the annotate → plan → simulate driver (Fig. 5's system
//!   flow);
//! * [`strategies`] — canned annotations mirroring the paper's code
//!   Examples 1–8;
//! * [`auto_parallel`] — Example 6's automatic strategy exploration.
//!
//! Real GPUs, TensorFlow graphs, and NCCL are replaced by analytic models
//! (see DESIGN.md §2); every Whale-specific mechanism — the four parallel
//! primitives, TaskGraphs, bridge fusion, PSVF, hardware-aware DP/pipeline
//! partitioning, backward-first scheduling, hierarchical gradient AllReduce
//! — is implemented in full.
//!
//! # Examples
//!
//! Train ResNet-50 data-parallel on the paper's heterogeneous testbed
//! (8 V100 + 8 P100, Fig. 17):
//!
//! ```
//! use whale::{strategies, Session};
//! use whale_graph::models;
//!
//! let session = Session::on_cluster("8xV100+8xP100").unwrap();
//! let ir = strategies::data_parallel(models::resnet50(512).unwrap(), 512).unwrap();
//! let out = session.step(&ir).unwrap();
//! assert!(out.stats.throughput > 0.0);
//!
//! // The baseline (uniform batches) is slower:
//! let baseline = Session::on_cluster("8xV100+8xP100").unwrap().hardware_aware(false);
//! let ir2 = strategies::data_parallel(models::resnet50(512).unwrap(), 512).unwrap();
//! let base = baseline.step(&ir2).unwrap();
//! assert!(base.stats.step_time > out.stats.step_time);
//! ```

pub mod auto;
pub mod error;
pub mod resilient;
pub mod search;
pub mod session;
pub mod strategies;

pub use auto::{
    auto_parallel, auto_parallel_opts, AutoReport, Candidate, RejectReason, SearchStats,
};
pub use error::{Result, WhaleError};
pub use resilient::{RecoveryEvent, RecoveryPolicy, RecoveryStats, ReplanPath, ResilientRun};
pub use search::{auto_parallel_search, SearchOptions};
pub use session::Session;

// Re-export the substrate crates under stable names.
pub use whale_graph as graph;
pub use whale_hardware as hardware;
pub use whale_ir as ir;
pub use whale_planner as planner;
pub use whale_sim as sim;

// Frequently used items at the crate root.
pub use whale_graph::{models, CostProfile, Graph, Optimizer, TrainingConfig, ZeroStage};
pub use whale_hardware::{Cluster, ClusterDelta, GpuModel, VirtualDevice};
pub use whale_ir::{Annotator, PipelineSpec, Primitive, ScopedBuilder, TaskGraph, WhaleIr};
pub use whale_planner::{
    CacheStats, CommConfig, DeviceAssignment, ExecutionPlan, GradDtype, GradSyncSchedule,
    LedgerComponent, MemoryLedger, PassId, PlanService, PlannerConfig, ScheduleKind, SyncMode,
};
pub use whale_sim::{
    ascii_timeline, simulate_step, simulate_training, LossModel, SimConfig, StepOutcome, StepStats,
};
