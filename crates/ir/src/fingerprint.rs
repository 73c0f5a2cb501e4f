//! Content fingerprint for [`WhaleIr`].
//!
//! The model side of the plan-cache key. Covers the underlying graph
//! (delegated to [`whale_graph::Graph::fingerprint`]) plus every parallel
//! annotation the planner reads: TaskGraph membership and strategies, the
//! pipeline spec, outer replication, default strategy, global batch, and
//! auto-partition.
//!
//! A TaskGraph's op list is hashed as its length followed by its maximal
//! runs of consecutive ids, each as `(first id, length)`. Annotated
//! TaskGraphs are almost always one contiguous id range, so a key costs
//! two words per TaskGraph instead of one per op. The encoding is exact:
//! the list's length and each run's length fix every run boundary, so
//! distinct lists give distinct byte streams. Runs are found with checked
//! addition, so an id of `usize::MAX` ends its run instead of overflowing.

use whale_fp::{Fingerprint, Fingerprinter};

use crate::primitive::Primitive;
use crate::whale_ir::WhaleIr;

fn primitive_tag(p: Primitive) -> u8 {
    match p {
        Primitive::Replica => 0,
        Primitive::Split => 1,
        Primitive::Stage => 2,
    }
}

impl WhaleIr {
    /// Stable content fingerprint over the graph and all annotations.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("whale-ir");
        fp.push_fingerprint(self.graph.fingerprint());
        fp.push_len(self.task_graphs.len());
        for tg in &self.task_graphs {
            fp.push_usize(tg.index).push_len(tg.ops.len());
            for run in tg.ops.chunk_by(|a, b| a.0.checked_add(1) == Some(b.0)) {
                fp.push_usize(run[0].0).push_len(run.len());
            }
            fp.push_len(tg.strategies.len());
            for &s in &tg.strategies {
                fp.push_tag(primitive_tag(s));
            }
        }
        match &self.pipeline {
            Some(p) => fp.push_tag(1).push_usize(p.num_micro_batches),
            None => fp.push_tag(0),
        };
        fp.push_bool(self.outer_replica);
        match self.default_strategy {
            Some(s) => fp.push_tag(1).push_tag(primitive_tag(s)),
            None => fp.push_tag(0),
        };
        fp.push_usize(self.global_batch);
        fp.push_bool(self.auto_partition);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Annotator;
    use crate::primitive::PipelineSpec;
    use whale_graph::models;

    fn bert_ir() -> WhaleIr {
        let g = models::bert_base(8, 64).unwrap();
        Annotator::new(g, 8)
            .set_default(Primitive::Replica)
            .finish()
            .unwrap()
    }

    #[test]
    fn same_ir_built_twice_hashes_identically() {
        assert_eq!(bert_ir().fingerprint(), bert_ir().fingerprint());
    }

    #[test]
    fn annotation_changes_change_fingerprint() {
        let base = bert_ir();
        let mut pipelined = bert_ir();
        pipelined.pipeline = Some(PipelineSpec::new(4).unwrap());
        assert_ne!(base.fingerprint(), pipelined.fingerprint(), "pipeline");

        let mut outer = bert_ir();
        outer.outer_replica = true;
        assert_ne!(base.fingerprint(), outer.fingerprint(), "outer replica");

        let mut batch = bert_ir();
        batch.global_batch = 16;
        assert_ne!(base.fingerprint(), batch.fingerprint(), "global batch");

        let mut strategy = bert_ir();
        strategy.task_graphs[0].strategies = vec![Primitive::Split];
        assert_ne!(base.fingerprint(), strategy.fingerprint(), "strategy");
    }

    #[test]
    fn micro_batch_count_matters() {
        let mut a = bert_ir();
        a.pipeline = Some(PipelineSpec::new(4).unwrap());
        let mut b = bert_ir();
        b.pipeline = Some(PipelineSpec::new(8).unwrap());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
