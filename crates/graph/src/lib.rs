//! Dataflow-graph IR for the Whale reproduction.
//!
//! Whale consumes TensorFlow computation graphs; this crate is the
//! reproduction's stand-in, carrying exactly the metadata Whale's planner and
//! load balancers need:
//!
//! * [`graph::Graph`] — an append-only DAG of [`op::OpKind`] nodes with
//!   analytic FLOP/parameter cost functions;
//! * [`tensor`] — shapes and dtypes for bridge-layer and communication
//!   volume reasoning;
//! * [`profile::CostProfile`] — `profile_flop` / `profile_mem` (§3.5) over
//!   graphs and subgraphs, with optimizer/AMP/recomputation-aware memory
//!   estimation;
//! * [`models`] — the paper's full workload zoo with parameter counts that
//!   match the published models (BERT-Large ≈ 340 M, M6-MoE-1T ≈ 1 T, ...).
//!
//! # Examples
//!
//! ```
//! use whale_graph::{models, profile::CostProfile};
//!
//! let g = models::bert_large(8, 128).unwrap();
//! let p = CostProfile::from_graph(&g, 8);
//! assert!(p.param_count > 300_000_000);
//! assert!(p.forward_flops(8) > 0.0);
//! ```

pub mod autodiff;
pub mod builder;
pub mod fingerprint;
pub mod graph;
pub mod inline_list;
pub mod intern;
pub mod models;
pub mod op;
pub mod profile;
pub mod stats;
pub mod tensor;

pub use autodiff::{derive_training_graph, TrainingGraph};
pub use builder::GraphBuilder;
pub use graph::{Graph, GraphError, Op, OpId};
pub use inline_list::InlineList;
pub use op::{OpKind, Phase};
pub use profile::{CostProfile, Optimizer, TrainingConfig, ZeroStage};
pub use stats::{graph_stats, GraphStats};
pub use tensor::{DType, Shape, TensorMeta};
