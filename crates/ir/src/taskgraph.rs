//! TaskGraph: the unit of parallel annotation and execution (§3.2).

use crate::primitive::Primitive;
use whale_graph::{CostProfile, Graph, OpId};

/// A non-overlapping subgraph annotated with one or more parallel strategies.
///
/// `strategies` is ordered innermost-first: Fig. 6's TG4 — `split` nested
/// inside `replica` — is `[Split, Replica]`, meaning the TaskGraph is first
/// sharded and the sharded group is then replicated across the remaining
/// GPUs of its virtual device.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    /// Index within the IR's TaskGraph list (execution order for pipelines).
    pub index: usize,
    /// Member op ids.
    pub ops: Vec<OpId>,
    /// Parallel strategies, innermost first. Empty means "inherit default".
    pub strategies: Vec<Primitive>,
}

impl TaskGraph {
    /// Build a TaskGraph.
    pub fn new(index: usize, ops: Vec<OpId>, strategies: Vec<Primitive>) -> TaskGraph {
        TaskGraph {
            index,
            ops,
            strategies,
        }
    }

    /// Innermost strategy (defaulting to [`Primitive::Stage`] when
    /// unannotated).
    pub fn innermost(&self) -> Primitive {
        self.strategies.first().copied().unwrap_or(Primitive::Stage)
    }

    /// Whether this TaskGraph is contiguous in topological (id) order —
    /// required of pipeline stages.
    pub fn is_convex(&self) -> bool {
        if self.ops.is_empty() {
            return true;
        }
        let mut sorted: Vec<usize> = self.ops.iter().map(|id| id.0).collect();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[1] == w[0] + 1)
    }

    /// Cost profile of this TaskGraph's ops at the graph's reference batch.
    pub fn profile(&self, graph: &Graph, ref_batch: usize) -> CostProfile {
        CostProfile::from_ops(graph, &self.ops, ref_batch)
    }

    /// Exit tensors: `(producer op, bytes)` pairs consumed outside this
    /// TaskGraph (§4, "TaskGraph Schedule" adds control edges on these).
    pub fn exit_tensors(&self, graph: &Graph) -> Vec<(OpId, u64)> {
        graph.boundary_outputs(&self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::{GraphBuilder, OpId};

    fn chain4() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", &[4, 8]).unwrap();
        let h1 = b.dense("fc1", x, 4, 8, 8).unwrap();
        let h2 = b.dense("fc2", h1, 4, 8, 8).unwrap();
        b.dense("fc3", h2, 4, 8, 8).unwrap();
        b.finish()
    }

    #[test]
    fn convexity() {
        let contiguous = TaskGraph::new(0, vec![OpId(1), OpId(2)], vec![]);
        assert!(contiguous.is_convex());
        let gap = TaskGraph::new(0, vec![OpId(0), OpId(2)], vec![]);
        assert!(!gap.is_convex());
        let empty = TaskGraph::new(0, vec![], vec![]);
        assert!(empty.is_convex());
    }

    #[test]
    fn exit_tensors() {
        let g = chain4();
        let tg = TaskGraph::new(0, vec![OpId(1), OpId(2)], vec![Primitive::Stage]);
        let exit = tg.exit_tensors(&g);
        assert_eq!(exit.len(), 1);
        assert_eq!(exit[0].0, OpId(2));
        assert_eq!(exit[0].1, 4 * 8 * 4);
    }

    #[test]
    fn innermost_defaults_to_stage() {
        let tg = TaskGraph::new(0, vec![OpId(0)], vec![]);
        assert_eq!(tg.innermost(), Primitive::Stage);
        let nested = TaskGraph::new(0, vec![OpId(0)], vec![Primitive::Split, Primitive::Replica]);
        assert_eq!(nested.innermost(), Primitive::Split);
    }

    #[test]
    fn profile_covers_only_member_ops() {
        let g = chain4();
        let tg = TaskGraph::new(0, vec![OpId(1)], vec![]);
        let p = tg.profile(&g, 4);
        assert_eq!(p.param_count, 8 * 8 + 8);
    }
}
