//! Whale IR: the annotated computation graph handed to the parallel planner.

use crate::error::{IrError, Result};
use crate::primitive::{PipelineSpec, Primitive};
use crate::taskgraph::TaskGraph;
use whale_graph::Graph;

/// The augmented computation graph of §3.1: the local model plus parallel
/// annotations (strategy per TaskGraph, optional pipeline schedule, optional
/// plan-level data parallelism).
#[derive(Debug, Clone)]
pub struct WhaleIr {
    /// The local model.
    pub graph: Graph,
    /// Annotated, disjoint TaskGraphs in execution order.
    pub task_graphs: Vec<TaskGraph>,
    /// Pipeline schedule over the TaskGraphs, if any.
    pub pipeline: Option<PipelineSpec>,
    /// Plan-level data parallelism: the whole arrangement (including any
    /// pipeline) is replicated, as in Examples 3–5's outer `replica`.
    pub outer_replica: bool,
    /// Strategy assumed for ops not claimed by any TaskGraph
    /// (`set_default_scope` in Example 8).
    pub default_strategy: Option<Primitive>,
    /// Reference (global) batch size the graph was built with.
    pub global_batch: usize,
    /// When true and `task_graphs` is empty under a pipeline, the planner
    /// auto-partitions stages (Example 4).
    pub auto_partition: bool,
}

impl WhaleIr {
    /// Validate structural invariants:
    ///
    /// * TaskGraphs are disjoint;
    /// * every op is covered (after [`WhaleIr::fill_default`] or when a
    ///   default strategy / auto-partition is declared);
    /// * the global batch is positive;
    /// * pipeline micro-batch count is positive;
    /// * pipeline stages are convex.
    pub fn validate(&self) -> Result<()> {
        if self.global_batch == 0 {
            return Err(IrError::ZeroGlobalBatch);
        }
        let mut owner = vec![None::<usize>; self.graph.len()];
        for tg in &self.task_graphs {
            if tg.ops.is_empty() {
                return Err(IrError::EmptyTaskGraph);
            }
            for &id in &tg.ops {
                let slot = owner
                    .get_mut(id.0)
                    .ok_or_else(|| IrError::Graph(format!("op {id} out of range")))?;
                if slot.is_some() {
                    return Err(IrError::OverlappingTaskGraphs(id));
                }
                *slot = Some(tg.index);
            }
            if self.pipeline.is_some() && !tg.is_convex() {
                return Err(IrError::NonConvexStage(tg.index));
            }
        }
        let uncovered = owner.iter().filter(|o| o.is_none()).count();
        if uncovered > 0 && self.default_strategy.is_none() && !self.auto_partition {
            return Err(IrError::UncoveredOps(uncovered));
        }
        if let Some(p) = &self.pipeline {
            if p.num_micro_batches == 0 {
                return Err(IrError::BadMicroBatches(0));
            }
        }
        Ok(())
    }

    /// Assign every unclaimed op to a TaskGraph.
    ///
    /// Unclaimed ops are grouped into maximal contiguous id-runs; each run
    /// becomes a TaskGraph with the default strategy (or [`Primitive::Stage`]
    /// if none was set). Afterward every op is covered and TaskGraphs are
    /// renumbered in topological order of their first op.
    pub fn fill_default(&mut self) {
        let mut claimed = vec![false; self.graph.len()];
        for tg in &self.task_graphs {
            for &id in &tg.ops {
                if id.0 < claimed.len() {
                    claimed[id.0] = true;
                }
            }
        }
        let strategy = self.default_strategy.unwrap_or(Primitive::Stage);
        let mut run: Vec<whale_graph::OpId> = Vec::new();
        let mut new_tgs: Vec<Vec<whale_graph::OpId>> = Vec::new();
        for (i, &c) in claimed.iter().enumerate() {
            if c {
                if !run.is_empty() {
                    new_tgs.push(std::mem::take(&mut run));
                }
            } else {
                run.push(whale_graph::OpId(i));
            }
        }
        if !run.is_empty() {
            new_tgs.push(run);
        }
        for ops in new_tgs {
            self.task_graphs
                .push(TaskGraph::new(0, ops, vec![strategy]));
        }
        // Renumber by first-op order so pipeline stage order is topological.
        self.task_graphs
            .sort_by_key(|tg| tg.ops.iter().map(|id| id.0).min().unwrap_or(usize::MAX));
        for (i, tg) in self.task_graphs.iter_mut().enumerate() {
            tg.index = i;
        }
    }

    /// Number of TaskGraphs.
    pub fn num_task_graphs(&self) -> usize {
        self.task_graphs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::{GraphBuilder, OpId};

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut prev = b.input("x", &[4, 8]).unwrap();
        for i in 1..n {
            prev = b.dense(&format!("fc{i}"), prev, 4, 8, 8).unwrap();
        }
        b.finish()
    }

    fn ir(graph: Graph, tgs: Vec<TaskGraph>) -> WhaleIr {
        WhaleIr {
            graph,
            task_graphs: tgs,
            pipeline: None,
            outer_replica: false,
            default_strategy: None,
            global_batch: 4,
            auto_partition: false,
        }
    }

    #[test]
    fn overlap_detected() {
        let g = chain(3);
        let tgs = vec![
            TaskGraph::new(0, vec![OpId(0), OpId(1)], vec![Primitive::Replica]),
            TaskGraph::new(1, vec![OpId(1), OpId(2)], vec![Primitive::Split]),
        ];
        assert_eq!(
            ir(g, tgs).validate().unwrap_err(),
            IrError::OverlappingTaskGraphs(OpId(1))
        );
    }

    #[test]
    fn uncovered_ops_need_default() {
        let g = chain(3);
        let tgs = vec![TaskGraph::new(0, vec![OpId(0)], vec![Primitive::Replica])];
        let mut w = ir(g, tgs);
        assert_eq!(w.validate().unwrap_err(), IrError::UncoveredOps(2));
        w.default_strategy = Some(Primitive::Replica);
        w.validate().unwrap();
    }

    #[test]
    fn fill_default_covers_and_renumbers() {
        let g = chain(5);
        let tgs = vec![TaskGraph::new(7, vec![OpId(2)], vec![Primitive::Split])];
        let mut w = ir(g, tgs);
        w.default_strategy = Some(Primitive::Replica);
        w.fill_default();
        w.validate().unwrap();
        assert_eq!(w.num_task_graphs(), 3);
        // [0,1] replica, [2] split, [3,4] replica — renumbered 0..3.
        assert_eq!(w.task_graphs[0].ops, vec![OpId(0), OpId(1)]);
        assert_eq!(w.task_graphs[0].innermost(), Primitive::Replica);
        assert_eq!(w.task_graphs[1].ops, vec![OpId(2)]);
        assert_eq!(w.task_graphs[1].innermost(), Primitive::Split);
        assert_eq!(w.task_graphs[2].ops, vec![OpId(3), OpId(4)]);
        for (i, tg) in w.task_graphs.iter().enumerate() {
            assert_eq!(tg.index, i);
        }
    }

    #[test]
    fn pipeline_requires_convex_stages() {
        let g = chain(4);
        let tgs = vec![
            TaskGraph::new(0, vec![OpId(0), OpId(2)], vec![Primitive::Stage]),
            TaskGraph::new(1, vec![OpId(1), OpId(3)], vec![Primitive::Stage]),
        ];
        let mut w = ir(g, tgs);
        w.pipeline = Some(PipelineSpec::new(4).unwrap());
        assert!(matches!(
            w.validate().unwrap_err(),
            IrError::NonConvexStage(_)
        ));
    }

    #[test]
    fn empty_taskgraph_rejected() {
        let g = chain(2);
        let tgs = vec![TaskGraph::new(0, vec![], vec![Primitive::Replica])];
        assert_eq!(ir(g, tgs).validate().unwrap_err(), IrError::EmptyTaskGraph);
    }
}
