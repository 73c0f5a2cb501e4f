//! Post-hoc annotation: attach parallel primitives to a built graph.
//!
//! The paper's primitives are Python context managers wrapped around model
//! code. Our model zoo returns complete graphs, so the ergonomic equivalent
//! is to select op sets of the finished graph — by id range, layer range, or
//! name predicate — and annotate each selection. Exactly like Whale,
//! unannotated ops inherit the default scope (`set_default_scope`,
//! Example 8) and `pipeline` without explicit `stage`s requests automatic
//! balanced partitioning (Example 4).

use crate::error::{IrError, Result};
use crate::primitive::{PipelineSpec, Primitive};
use crate::taskgraph::TaskGraph;
use crate::whale_ir::WhaleIr;
use whale_graph::{Graph, OpId};

/// Builder that turns a [`Graph`] plus annotations into [`WhaleIr`].
#[derive(Debug)]
pub struct Annotator {
    graph: Graph,
    global_batch: usize,
    task_graphs: Vec<TaskGraph>,
    claimed: Vec<bool>,
    pipeline: Option<PipelineSpec>,
    outer_replica: bool,
    default_strategy: Option<Primitive>,
    auto_partition: bool,
}

impl Annotator {
    /// Start annotating `graph`, which was built at `global_batch` samples.
    pub fn new(graph: Graph, global_batch: usize) -> Annotator {
        let claimed = vec![false; graph.len()];
        Annotator {
            graph,
            global_batch,
            task_graphs: Vec::new(),
            claimed,
            pipeline: None,
            outer_replica: false,
            default_strategy: None,
            auto_partition: false,
        }
    }

    /// Example 8's `set_default_scope`: unannotated ops get `strategy`.
    pub fn set_default(mut self, strategy: Primitive) -> Annotator {
        self.default_strategy = Some(strategy);
        self
    }

    /// Example 3/5's outer `replica`: replicate the entire arrangement.
    pub fn outer_replica(mut self) -> Annotator {
        self.outer_replica = true;
        self
    }

    /// Example 3's `pipeline(num_micro_batch=n)` over the annotated stages.
    pub fn pipeline(mut self, num_micro_batches: usize) -> Result<Annotator> {
        if self.pipeline.is_some() {
            return Err(IrError::NestedPipeline);
        }
        self.pipeline = Some(PipelineSpec::new(num_micro_batches)?);
        Ok(self)
    }

    /// Example 4's auto pipeline: stages are derived by the planner's
    /// hardware-aware balanced partition instead of explicit `stage` scopes.
    pub fn auto_pipeline(mut self, num_micro_batches: usize) -> Result<Annotator> {
        if self.pipeline.is_some() {
            return Err(IrError::NestedPipeline);
        }
        self.pipeline = Some(PipelineSpec::new(num_micro_batches)?);
        self.auto_partition = true;
        Ok(self)
    }

    fn claim(&mut self, ops: &[OpId]) -> Result<()> {
        if ops.is_empty() {
            return Err(IrError::EmptyTaskGraph);
        }
        for &id in ops {
            let slot = self
                .claimed
                .get_mut(id.0)
                .ok_or_else(|| IrError::Graph(format!("op {id} out of range")))?;
            if *slot {
                return Err(IrError::OverlappingTaskGraphs(id));
            }
            *slot = true;
        }
        Ok(())
    }

    /// Annotate an explicit op set with nested strategies (innermost first).
    pub fn annotate_ops(mut self, ops: Vec<OpId>, strategies: Vec<Primitive>) -> Result<Annotator> {
        self.claim(&ops)?;
        let index = self.task_graphs.len();
        self.task_graphs
            .push(TaskGraph::new(index, ops, strategies));
        Ok(self)
    }

    /// Annotate the ops of graph-id range `[start, end)`.
    pub fn annotate_range(
        self,
        start: usize,
        end: usize,
        strategies: Vec<Primitive>,
    ) -> Result<Annotator> {
        let ops = self.graph.op_range(start, end)?;
        self.annotate_ops(ops, strategies)
    }

    /// Annotate all unclaimed ops whose name contains `needle` (how the MoE
    /// example wraps only the expert computation in `split`).
    pub fn annotate_named(self, needle: &str, strategies: Vec<Primitive>) -> Result<Annotator> {
        let ops: Vec<OpId> = self
            .graph
            .ops()
            .iter()
            .filter(|op| op.name.contains(needle) && !self.claimed[op.id.0])
            .map(|op| op.id)
            .collect();
        self.annotate_ops(ops, strategies)
    }

    /// Example 1: `replica` over the entire model.
    pub fn replicate_all(self) -> Result<Annotator> {
        let ops: Vec<OpId> = self.graph.ops().iter().map(|op| op.id).collect();
        self.annotate_ops(ops, vec![Primitive::Replica])
    }

    /// Finish: fill defaults, validate, and return the IR.
    pub fn finish(self) -> Result<WhaleIr> {
        let mut ir = WhaleIr {
            graph: self.graph,
            task_graphs: self.task_graphs,
            pipeline: self.pipeline,
            outer_replica: self.outer_replica,
            default_strategy: self.default_strategy,
            global_batch: self.global_batch,
            auto_partition: self.auto_partition,
        };
        // Auto-partitioned pipelines leave op assignment to the planner.
        if !(ir.auto_partition && ir.task_graphs.is_empty()) {
            ir.fill_default();
        }
        ir.validate()?;
        Ok(ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::GraphBuilder;

    fn two_part_model() -> Graph {
        let mut b = GraphBuilder::new("two_part");
        let x = b.input("x", &[8, 16]).unwrap();
        let f = b.dense("features/fc", x, 8, 16, 32).unwrap();
        b.next_layer();
        let logits = b.dense("classifier/fc", f, 8, 32, 100).unwrap();
        b.softmax("classifier/softmax", logits).unwrap();
        b.finish()
    }

    #[test]
    fn example1_pure_dp() {
        let ir = Annotator::new(two_part_model(), 8)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(ir.num_task_graphs(), 1);
        assert_eq!(ir.task_graphs[0].innermost(), Primitive::Replica);
        assert!(!ir.outer_replica);
    }

    #[test]
    fn example5_hybrid_dp_plus_split() {
        // replica { replica(features), split(classifier) }.
        let ir = Annotator::new(two_part_model(), 8)
            .outer_replica()
            .annotate_named("features", vec![Primitive::Replica])
            .unwrap()
            .annotate_named("classifier", vec![Primitive::Split])
            .unwrap()
            .set_default(Primitive::Replica)
            .finish()
            .unwrap();
        assert!(ir.outer_replica);
        assert_eq!(ir.task_graphs.len(), 3); // input op fell into a default TG
        let split_tg = ir
            .task_graphs
            .iter()
            .find(|tg| tg.innermost() == Primitive::Split)
            .unwrap();
        assert_eq!(split_tg.ops.len(), 2);
    }

    #[test]
    fn example3_pipeline_with_manual_stages() {
        let ir = Annotator::new(two_part_model(), 8)
            .outer_replica()
            .pipeline(4)
            .unwrap()
            .annotate_range(0, 2, vec![Primitive::Stage])
            .unwrap()
            .annotate_range(2, 4, vec![Primitive::Stage])
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(ir.pipeline.unwrap().num_micro_batches, 4);
        assert_eq!(ir.num_task_graphs(), 2);
    }

    #[test]
    fn example4_auto_pipeline() {
        let ir = Annotator::new(two_part_model(), 8)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        assert!(ir.auto_partition);
        assert!(ir.task_graphs.is_empty());
    }

    #[test]
    fn double_pipeline_rejected() {
        let err = Annotator::new(two_part_model(), 8)
            .pipeline(4)
            .unwrap()
            .pipeline(2)
            .unwrap_err();
        assert_eq!(err, IrError::NestedPipeline);
    }

    #[test]
    fn overlapping_annotation_rejected() {
        let err = Annotator::new(two_part_model(), 8)
            .annotate_range(0, 3, vec![Primitive::Replica])
            .unwrap()
            .annotate_range(2, 4, vec![Primitive::Split])
            .unwrap_err();
        assert!(matches!(err, IrError::OverlappingTaskGraphs(_)));
    }
}
