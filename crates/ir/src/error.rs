//! Error type for IR construction and validation.

use std::fmt;
use whale_graph::OpId;

/// Errors raised while annotating a model or validating Whale IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An op was claimed by two TaskGraphs.
    OverlappingTaskGraphs(OpId),
    /// After default-filling, some ops belong to no TaskGraph.
    UncoveredOps(usize),
    /// A TaskGraph was annotated over an empty op set.
    EmptyTaskGraph,
    /// `pipeline` requires at least one micro batch.
    BadMicroBatches(usize),
    /// A second `pipeline` scope was opened (Whale forbids connecting
    /// TaskGraphs after a pipeline, §3.4).
    NestedPipeline,
    /// A scope was closed that was never opened, or left open at finish.
    ScopeMismatch(String),
    /// Graph-level inconsistency surfaced during annotation.
    Graph(String),
    /// `stage` TaskGraphs must be convex (contiguous in topological order)
    /// to be schedulable as pipeline stages.
    NonConvexStage(usize),
    /// The global batch is zero: a training step needs at least one sample.
    ZeroGlobalBatch,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::OverlappingTaskGraphs(id) => {
                write!(f, "op {id} claimed by more than one TaskGraph")
            }
            IrError::UncoveredOps(n) => write!(f, "{n} ops not covered by any TaskGraph"),
            IrError::EmptyTaskGraph => write!(f, "TaskGraph has no ops"),
            IrError::BadMicroBatches(n) => write!(f, "pipeline needs ≥1 micro batch, got {n}"),
            IrError::NestedPipeline => write!(f, "pipeline scopes cannot nest"),
            IrError::ScopeMismatch(s) => write!(f, "scope mismatch: {s}"),
            IrError::Graph(s) => write!(f, "graph error: {s}"),
            IrError::NonConvexStage(i) => {
                write!(
                    f,
                    "stage TaskGraph {i} is not contiguous in topological order"
                )
            }
            IrError::ZeroGlobalBatch => write!(f, "global batch must be at least 1 sample"),
        }
    }
}

impl std::error::Error for IrError {}

impl From<whale_graph::GraphError> for IrError {
    fn from(e: whale_graph::GraphError) -> Self {
        IrError::Graph(e.to_string())
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, IrError>;
