//! Training-graph derivation: backward and optimizer phases.
//!
//! Whale groups a TaskGraph's operations into forward, backward, optimizer,
//! and other phases and schedules them with control dependencies (§4,
//! "TaskGraph Schedule"). The model zoo builds forward graphs; this module
//! derives the full training graph: one gradient op per forward op (standard
//! reverse-mode sweep, 2× forward FLOPs) wired in reversed dataflow order,
//! plus one update op per parameterized forward op.

use crate::graph::{Graph, GraphError, OpId};
use crate::op::{OpKind, Phase};
use crate::tensor::TensorMeta;

/// A forward graph extended with backward and optimizer phases.
#[derive(Debug, Clone)]
pub struct TrainingGraph {
    /// The combined graph (forward ops keep their original ids).
    pub graph: Graph,
    /// For each forward op id, the id of its gradient op (None for inputs,
    /// which receive no gradient).
    pub backward_of: Vec<Option<OpId>>,
    /// Parameter-update ops, one per parameterized forward op.
    pub optimizer_ops: Vec<OpId>,
}

impl TrainingGraph {
    /// Ids of ops in a given phase.
    pub fn phase_ops(&self, phase: Phase) -> Vec<OpId> {
        self.graph
            .ops()
            .iter()
            .filter(|op| op.phase == phase)
            .map(|op| op.id)
            .collect()
    }
}

/// Derive the training graph of `forward`.
///
/// Gradient ops are appended in reverse topological order, so the combined
/// graph remains a DAG with ids in a valid execution order: all forward ops,
/// then all backward ops, then the optimizer updates.
pub fn derive_training_graph(forward: &Graph) -> Result<TrainingGraph, GraphError> {
    let n = forward.len();
    let mut graph = forward.clone();
    let consumers = forward.consumers();
    let mut backward_of: Vec<Option<OpId>> = vec![None; n];

    // Reverse sweep: the gradient of op i depends on the gradients of all
    // its consumers (which, in reverse order, are already emitted) and on
    // the op's own saved activations.
    for i in (0..n).rev() {
        let op = forward.op(OpId(i))?;
        if matches!(op.kind, OpKind::Input) {
            continue;
        }
        let inputs =
            std::iter::once(OpId(i)).chain(consumers[i].iter().filter_map(|c| backward_of[c.0]));
        let grad_id = graph.add_op(
            ["grad(", op.name.as_str(), ")"].concat(),
            OpKind::Synthetic {
                flops: op.kind.backward_flops(),
                params: 0,
            },
            inputs,
            // The gradient w.r.t. the op's input has the input's shape; we
            // conservatively carry the op's output meta (same magnitude).
            op.output.clone(),
            Phase::Backward,
            op.layer,
        )?;
        backward_of[i] = Some(grad_id);
    }

    // Optimizer updates: read the accumulated gradient, write parameters.
    let mut optimizer_ops = Vec::new();
    for (i, &grad_slot) in backward_of.iter().enumerate() {
        let op = forward.op(OpId(i))?;
        let params = op.param_count();
        if params == 0 {
            continue;
        }
        let Some(grad) = grad_slot else { continue };
        let update = graph.add_op(
            ["update(", op.name.as_str(), ")"].concat(),
            OpKind::Synthetic {
                // A few FLOPs per parameter (Adam-style update math).
                flops: 4.0 * params as f64,
                params: 0,
            },
            [grad],
            TensorMeta::f32(&[]),
            Phase::Optimizer,
            op.layer,
        )?;
        optimizer_ops.push(update);
    }

    Ok(TrainingGraph {
        graph,
        backward_of,
        optimizer_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::models;

    fn two_layer() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4, 8]).unwrap();
        let h = b.dense("fc1", x, 4, 8, 16).unwrap();
        b.dense("fc2", h, 4, 16, 2).unwrap();
        b.finish()
    }

    #[test]
    fn phases_partition_the_training_graph() {
        let tg = derive_training_graph(&two_layer()).unwrap();
        let fw = tg.phase_ops(Phase::Forward).len();
        let bw = tg.phase_ops(Phase::Backward).len();
        let opt = tg.phase_ops(Phase::Optimizer).len();
        assert_eq!(fw, 3);
        assert_eq!(bw, 2, "inputs get no gradient");
        assert_eq!(opt, 2, "both dense layers update");
        assert_eq!(tg.graph.len(), fw + bw + opt);
    }

    #[test]
    fn backward_flops_double_forward() {
        let fwd = two_layer();
        let fw_flops = fwd.total_forward_flops();
        let tg = derive_training_graph(&fwd).unwrap();
        let bw_flops: f64 = tg
            .phase_ops(Phase::Backward)
            .iter()
            .map(|&id| tg.graph.op(id).unwrap().forward_flops())
            .sum();
        assert!((bw_flops - 2.0 * fw_flops).abs() < 1e-6);
    }

    #[test]
    fn gradient_dataflow_is_reversed() {
        let fwd = two_layer();
        let tg = derive_training_graph(&fwd).unwrap();
        // grad(fc2) must precede grad(fc1) in id (= topological) order.
        let g1 = tg.backward_of[1].unwrap();
        let g2 = tg.backward_of[2].unwrap();
        assert!(g2.0 < g1.0, "reverse sweep emits deeper grads first");
        // grad(fc1) consumes grad(fc2).
        assert!(tg.graph.op(g1).unwrap().inputs.contains(&g2));
        // And its own forward activation.
        assert!(tg.graph.op(g1).unwrap().inputs.contains(&OpId(1)));
    }

    #[test]
    fn optimizer_ops_depend_on_gradients() {
        let tg = derive_training_graph(&two_layer()).unwrap();
        for &u in &tg.optimizer_ops {
            let op = tg.graph.op(u).unwrap();
            assert_eq!(op.phase, Phase::Optimizer);
            assert_eq!(op.inputs.len(), 1);
            let dep = tg.graph.op(op.inputs[0]).unwrap();
            assert_eq!(dep.phase, Phase::Backward);
        }
    }

    #[test]
    fn derives_real_models() {
        let fwd = models::bert_base(2, 32).unwrap();
        let tg = derive_training_graph(&fwd).unwrap();
        // Training graph is a valid DAG (construction would have failed
        // otherwise) roughly 2-3x the forward size.
        assert!(tg.graph.len() > 2 * fwd.len());
        assert!(!tg.phase_ops(Phase::Optimizer).is_empty());
        // Profiles over the forward subset are unchanged.
        let fw_ids: Vec<OpId> = (0..fwd.len()).map(OpId).collect();
        let p_before = crate::profile::CostProfile::from_ops(&fwd, &fw_ids, 2);
        let p_after = crate::profile::CostProfile::from_ops(&tg.graph, &fw_ids, 2);
        assert_eq!(p_before, p_after);
    }

    #[test]
    fn branching_graph_accumulates_consumer_grads() {
        // x → a, x → b, (a,b) → c: grad(x)... x is input (no grad), but
        // grad(a) and grad(b) each consume grad(c).
        let mut bld = GraphBuilder::new("branch");
        let x = bld.input("x", &[2, 4]).unwrap();
        let a = bld.dense("a", x, 2, 4, 4).unwrap();
        let b2 = bld.dense("b", x, 2, 4, 4).unwrap();
        bld.elementwise("c", vec![a, b2], 1).unwrap();
        let g = bld.finish();
        let tg = derive_training_graph(&g).unwrap();
        let gc = tg.backward_of[3].unwrap();
        for fw in [1usize, 2] {
            let gop = tg.graph.op(tg.backward_of[fw].unwrap()).unwrap();
            assert!(gop.inputs.contains(&gc), "grad({fw}) uses grad(c)");
        }
    }
}
