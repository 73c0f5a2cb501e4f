//! The dataflow graph: nodes, edges, topological structure.
//!
//! This is the reproduction's stand-in for a TensorFlow computation graph.
//! Construction is append-only: an op's inputs must already exist, so node
//! ids are a valid topological order by construction and the graph is a DAG
//! by construction.
//!
//! A graph stores its ops once, flat and in id order, behind one `Arc`: the
//! `&[Op]` view the planner consumes is that storage, and cloning a graph
//! shares it. What the planner derives from the ops — adjacency and the
//! [`Graph::fingerprint`] — is memoized per graph value (DESIGN.md §12).

use crate::inline_list::InlineList;
use crate::op::{OpKind, Phase};
use crate::tensor::TensorMeta;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use whale_fp::Fingerprint;

/// Identifier of an operation within a [`Graph`]; dense in `0..graph.len()`.
/// The default, `OpId(0)`, only pads [`InlineList`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One node of the computation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Dense id within the graph.
    pub id: OpId,
    /// Human-readable name (`"encoder.3/attn/qkv"`).
    pub name: String,
    /// Semantic kind with cost attributes.
    pub kind: OpKind,
    /// Data dependencies (producers of this op's inputs), inline up to
    /// four.
    pub inputs: InlineList<OpId>,
    /// Metadata of the (single) output tensor.
    pub output: TensorMeta,
    /// Execution phase.
    pub phase: Phase,
    /// Model-level layer index, used for stage partitioning diagnostics.
    pub layer: Option<usize>,
}

impl Op {
    /// Forward FLOPs of this op.
    pub fn forward_flops(&self) -> f64 {
        self.kind.forward_flops()
    }

    /// Parameter count owned by this op.
    pub fn param_count(&self) -> u64 {
        self.kind.param_count()
    }

    /// Output activation size in bytes.
    pub fn output_bytes(&self) -> u64 {
        self.output.size_bytes()
    }
}

/// Errors raised while building or slicing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An op referenced an input id that does not exist yet.
    DanglingInput {
        /// The op being added.
        op: String,
        /// The missing input id.
        input: OpId,
    },
    /// A subgraph request referenced an unknown op.
    UnknownOp(OpId),
    /// An op-range request was empty or out of bounds.
    BadRange(String),
    /// An op that needs at least one input was given none.
    NoInputs {
        /// The op being added.
        op: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { op, input } => {
                write!(f, "op '{op}' references missing input {input}")
            }
            GraphError::UnknownOp(id) => write!(f, "unknown op {id}"),
            GraphError::BadRange(s) => write!(f, "bad op range: {s}"),
            GraphError::NoInputs { op } => write!(f, "op '{op}' needs at least one input"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Adjacency derived from the op list, built once on first use: the inverse
/// edge map plus the source/sink frontiers. `sources()`/`sinks()`/
/// `consumers()` used to rebuild these `Vec`s on every call — an O(V+E)
/// term per call site that planner and autodiff loops paid repeatedly.
#[derive(Debug)]
struct AdjCache {
    consumers: Vec<Vec<OpId>>,
    sources: Vec<OpId>,
    sinks: Vec<OpId>,
}

impl AdjCache {
    fn build(ops: &[Op]) -> AdjCache {
        let mut consumers = vec![Vec::new(); ops.len()];
        let mut consumed = vec![false; ops.len()];
        for op in ops {
            for &input in &op.inputs {
                consumers[input.0].push(op.id);
                consumed[input.0] = true;
            }
        }
        let sources = ops
            .iter()
            .filter(|op| op.inputs.is_empty())
            .map(|op| op.id)
            .collect();
        let sinks = ops
            .iter()
            .filter(|op| !consumed[op.id.0])
            .map(|op| op.id)
            .collect();
        AdjCache {
            consumers,
            sources,
            sinks,
        }
    }
}

/// An append-only dataflow DAG.
///
/// Ops live behind an [`Arc`] with copy-on-write mutation, so cloning a
/// finished graph is a reference-count bump — `auto_parallel` hands one
/// built model to every candidate strategy without re-running the model
/// constructor. Value semantics are preserved: appending to a shared graph
/// copies the op list first.
///
/// Adjacency ([`Graph::consumers`], [`Graph::sources`], [`Graph::sinks`]) and
/// the [`Graph::fingerprint`] are memoized behind [`OnceLock`]s and shared
/// by clones; appending an op invalidates both. Equality looks only at the
/// semantic `(name, ops)` content, never at the memo.
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    ops: Arc<Vec<Op>>,
    memo: Arc<Memo>,
}

/// What a graph derives from its ops on first use. One cell holds both
/// memos, so building a graph allocates one `Arc` for them.
#[derive(Debug, Default)]
struct Memo {
    adj: OnceLock<AdjCache>,
    fingerprint: OnceLock<Fingerprint>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.ops() == other.ops()
    }
}

impl Graph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Graph {
        Graph::from_flat(name.into(), Vec::new())
    }

    /// Assemble a graph from already-validated ops (builder internal).
    pub(crate) fn from_flat(name: String, ops: Vec<Op>) -> Graph {
        debug_assert!(ops.iter().enumerate().all(|(i, op)| op.id.0 == i));
        Graph {
            name,
            ops: Arc::new(ops),
            memo: Arc::default(),
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All ops, in id (= topological) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Look up an op.
    pub fn op(&self, id: OpId) -> Result<&Op, GraphError> {
        self.ops().get(id.0).ok_or(GraphError::UnknownOp(id))
    }

    /// Append an op whose inputs must already exist.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: impl IntoIterator<Item = OpId>,
        output: TensorMeta,
        phase: Phase,
        layer: Option<usize>,
    ) -> Result<OpId, GraphError> {
        let name = name.into();
        let inputs: InlineList<OpId> = inputs.into_iter().collect();
        let id = OpId(self.len());
        for &input in &inputs {
            if input.0 >= id.0 {
                return Err(GraphError::DanglingInput { op: name, input });
            }
        }
        Arc::make_mut(&mut self.ops).push(Op {
            id,
            name,
            kind,
            inputs,
            output,
            phase,
            layer,
        });
        // Invalidate the memoized adjacency and fingerprint. A uniquely
        // owned cell is cleared in place (no allocation on the builder hot
        // path); a cell shared with clones is detached so their view stays
        // valid.
        match Arc::get_mut(&mut self.memo) {
            Some(memo) => *memo = Memo::default(),
            None => self.memo = Arc::default(),
        }
        Ok(id)
    }

    /// The fingerprint memo, filled by [`Graph::fingerprint`].
    pub(crate) fn fingerprint_memo(&self) -> &OnceLock<Fingerprint> {
        &self.memo.fingerprint
    }

    fn adjacency(&self) -> &AdjCache {
        self.memo.adj.get_or_init(|| AdjCache::build(&self.ops))
    }

    /// Ids of ops with no data dependencies (the graph inputs). Memoized;
    /// the first call after construction builds the adjacency cache.
    pub fn sources(&self) -> &[OpId] {
        &self.adjacency().sources
    }

    /// Ids of ops nothing consumes (the graph outputs). Memoized.
    pub fn sinks(&self) -> &[OpId] {
        &self.adjacency().sinks
    }

    /// Consumers of each op, indexed by producer id. Memoized — repeated
    /// calls return the same slices without rebuilding the edge map.
    pub fn consumers(&self) -> &[Vec<OpId>] {
        &self.adjacency().consumers
    }

    /// Total forward FLOPs over all ops.
    pub fn total_forward_flops(&self) -> f64 {
        self.ops().iter().map(|op| op.forward_flops()).sum()
    }

    /// Total trainable parameter count.
    pub fn total_params(&self) -> u64 {
        self.ops().iter().map(|op| op.param_count()).sum()
    }

    /// Per-layer aggregation: `(layer, flops, params)` for ops that carry a
    /// layer index, ordered by layer.
    pub fn per_layer_costs(&self) -> Vec<(usize, f64, u64)> {
        let mut agg: BTreeMap<usize, (f64, u64)> = BTreeMap::new();
        for op in self.ops().iter() {
            if let Some(layer) = op.layer {
                let e = agg.entry(layer).or_insert((0.0, 0));
                e.0 += op.forward_flops();
                e.1 += op.param_count();
            }
        }
        agg.into_iter().map(|(l, (f, p))| (l, f, p)).collect()
    }

    /// Cut the op-id range `[start, end)` out as a list of ids, validating
    /// bounds. Because ids are topologically ordered, a contiguous range is a
    /// convex subgraph — exactly what pipeline stages are.
    pub fn op_range(&self, start: usize, end: usize) -> Result<Vec<OpId>, GraphError> {
        if start >= end || end > self.len() {
            return Err(GraphError::BadRange(format!(
                "[{start}, {end}) of {} ops",
                self.len()
            )));
        }
        Ok((start..end).map(OpId).collect())
    }

    /// Tensors crossing from inside `ids` to outside (the *exit* tensors of a
    /// TaskGraph, §4 "TaskGraph Schedule"), as `(producer, total bytes)`.
    pub fn boundary_outputs(&self, ids: &[OpId]) -> Vec<(OpId, u64)> {
        let ops = self.ops();
        let inside: Vec<bool> = {
            let mut v = vec![false; ops.len()];
            for &id in ids {
                if id.0 < v.len() {
                    v[id.0] = true;
                }
            }
            v
        };
        let mut out = Vec::new();
        for op in ops.iter() {
            if inside[op.id.0] {
                continue;
            }
            for &input in &op.inputs {
                if inside[input.0] && !out.iter().any(|(p, _)| *p == input) {
                    out.push((input, ops[input.0].output_bytes()));
                }
            }
        }
        out
    }

    /// Export in Graphviz DOT format (for debugging and docs).
    pub fn to_dot(&self) -> String {
        let mut s = format!("digraph \"{}\" {{\n", self.name);
        for op in self.ops().iter() {
            s.push_str(&format!(
                "  n{} [label=\"{}\\n{:?}\"];\n",
                op.id.0, op.name, op.phase
            ));
            for &input in &op.inputs {
                s.push_str(&format!("  n{} -> n{};\n", input.0, op.id.0));
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::tensor::TensorMeta;

    fn mk_chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut prev: Option<OpId> = None;
        for i in 0..n {
            let inputs = prev.map(|p| vec![p]).unwrap_or_default();
            let kind = if i == 0 {
                OpKind::Input
            } else {
                OpKind::MatMul {
                    m: 8,
                    k: 16,
                    n: 16,
                    has_params: true,
                }
            };
            prev = Some(
                g.add_op(
                    format!("op{i}"),
                    kind,
                    inputs,
                    TensorMeta::f32(&[8, 16]),
                    Phase::Forward,
                    Some(i),
                )
                .unwrap(),
            );
        }
        g
    }

    fn mk_encoder(name: &str, layers: usize) -> Graph {
        let mut b = GraphBuilder::new(name);
        let mut h = b.input("x", &[2, 16, 64]).unwrap();
        for i in 0..layers {
            h = b
                .encoder_layer(&format!("enc.{i}"), h, 2, 16, 64, 4, 256)
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn append_only_topology() {
        let g = mk_chain(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.sources(), vec![OpId(0)]);
        assert_eq!(g.sinks(), vec![OpId(4)]);
        // Consumers are the inverse of inputs.
        let cons = g.consumers();
        assert_eq!(cons[0], vec![OpId(1)]);
        assert!(cons[4].is_empty());
    }

    #[test]
    fn adjacency_is_memoized_and_invalidated_on_append() {
        let mut g = mk_chain(3);
        // Same backing storage on repeated calls: the cache is built once.
        assert!(std::ptr::eq(g.consumers(), g.consumers()));
        assert_eq!(g.sinks(), vec![OpId(2)]);

        // Appending invalidates: the new op shows up in the adjacency.
        g.add_op(
            "tail",
            OpKind::MatMul {
                m: 8,
                k: 16,
                n: 16,
                has_params: true,
            },
            vec![OpId(2)],
            TensorMeta::f32(&[8, 16]),
            Phase::Forward,
            Some(3),
        )
        .unwrap();
        assert_eq!(g.sinks(), vec![OpId(3)]);
        assert_eq!(g.consumers()[2], vec![OpId(3)]);

        // A clone that shares an initialized cache stays correct when the
        // original mutates (the mutated graph detaches, the clone keeps its
        // own view).
        let clone = g.clone();
        let _ = clone.consumers();
        g.add_op(
            "tail2",
            OpKind::Input,
            vec![],
            TensorMeta::f32(&[1]),
            Phase::Forward,
            None,
        )
        .unwrap();
        assert_eq!(clone.sinks(), vec![OpId(3)]);
        assert_eq!(g.sinks(), vec![OpId(3), OpId(4)]);
        // Equality ignores the cache.
        assert_eq!(clone, clone.clone());
    }

    /// Replay `g`'s ops through [`Graph::new`] and [`Graph::add_op`]: the
    /// same content, flat and never fingerprinted.
    fn replay(g: &Graph) -> Graph {
        let mut out = Graph::new(g.name());
        for op in g.ops() {
            out.add_op(
                op.name.clone(),
                op.kind.clone(),
                op.inputs.iter().copied(),
                op.output.clone(),
                op.phase,
                op.layer,
            )
            .unwrap();
        }
        out
    }

    #[test]
    fn fingerprint_is_memoized_and_invalidated_on_append() {
        for original in [mk_chain(5), mk_encoder("enc", 2)] {
            let before = original.fingerprint();
            let mut grown = original.clone();
            assert_eq!(grown.fingerprint(), before);
            // The first append detaches the memo the clone shares with the
            // original; the second clears the clone's own memo in place.
            for i in 0..2 {
                let last = OpId(grown.len() - 1);
                grown
                    .add_op(
                        format!("tail{i}"),
                        OpKind::Elementwise {
                            elems: 4,
                            flops_per_elem: 1,
                        },
                        vec![last],
                        TensorMeta::f32(&[4]),
                        Phase::Forward,
                        None,
                    )
                    .unwrap();
                assert_eq!(grown.fingerprint(), replay(&grown).fingerprint());
                assert_ne!(grown.fingerprint(), before);
            }
            assert_eq!(original.fingerprint(), before);
            assert_eq!(before, replay(&original).fingerprint());
        }
    }

    #[test]
    fn an_op_with_six_inputs_spills_and_keeps_its_value_semantics() {
        let mut g = mk_chain(6);
        let inputs: Vec<OpId> = [5, 0, 4, 1, 3, 2].into_iter().map(OpId).collect();
        let wide = g
            .add_op(
                "wide",
                OpKind::Elementwise {
                    elems: 4,
                    flops_per_elem: 1,
                },
                inputs.clone(),
                TensorMeta::f32(&[4]),
                Phase::Forward,
                None,
            )
            .unwrap();
        let op = g.op(wide).unwrap();
        assert!(op.inputs.spilled());
        assert_eq!(&*op.inputs, inputs.as_slice());
        assert_eq!(op.inputs, inputs.iter().copied().collect());
        assert_ne!(op.inputs, inputs[..5].iter().copied().collect());
        assert_eq!(format!("{:?}", op.inputs), format!("{inputs:?}"));
        assert_eq!(g.consumers()[5], vec![wide]);
    }

    #[test]
    fn op_debug_text_is_unchanged_by_inline_storage() {
        let g = crate::models::bert_base(8, 128).unwrap();
        let op = g
            .ops()
            .iter()
            .find(|op| op.name == "encoder.0/attn/scores")
            .unwrap();
        assert_eq!(
            format!("{op:?}"),
            "Op { id: OpId(3), name: \"encoder.0/attn/scores\", kind: MatMul { m: 12288, \
             k: 64, n: 128, has_params: false }, inputs: [OpId(2), OpId(2)], output: \
             TensorMeta { shape: Shape([8, 12, 128, 128]), dtype: F32 }, phase: Forward, \
             layer: Some(1) }"
        );
        assert_eq!(
            format!("{:?}", op.output),
            "TensorMeta { shape: Shape([8, 12, 128, 128]), dtype: F32 }"
        );
    }

    #[test]
    fn dangling_input_rejected() {
        let mut g = Graph::new("bad");
        let err = g
            .add_op(
                "op0",
                OpKind::Input,
                vec![OpId(7)],
                TensorMeta::f32(&[1]),
                Phase::Forward,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::DanglingInput { .. }));
    }

    #[test]
    fn totals_accumulate() {
        let g = mk_chain(3);
        // Two parameterized matmuls: each 2·8·16·16 FLOPs, 16·16+16 params.
        assert_eq!(g.total_forward_flops(), 2.0 * 2.0 * 8.0 * 16.0 * 16.0);
        assert_eq!(g.total_params(), 2 * (16 * 16 + 16));
        let layers = g.per_layer_costs();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].1, 0.0); // Input layer has no FLOPs.
    }

    #[test]
    fn boundary_outputs_find_stage_cuts() {
        let g = mk_chain(4);
        // Ops 0-1 as one stage: its only exit tensor is op1's output.
        let stage = g.op_range(0, 2).unwrap();
        let exits = g.boundary_outputs(&stage);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].0, OpId(1));
        assert_eq!(exits[0].1, 8 * 16 * 4);
        // The whole graph has no exit tensors.
        let all = g.op_range(0, 4).unwrap();
        assert!(g.boundary_outputs(&all).is_empty());
    }

    #[test]
    fn op_range_validation() {
        let g = mk_chain(4);
        assert!(g.op_range(2, 2).is_err());
        assert!(g.op_range(0, 5).is_err());
        assert_eq!(g.op_range(1, 3).unwrap(), vec![OpId(1), OpId(2)]);
    }

    #[test]
    fn dot_export_contains_edges() {
        let g = mk_chain(2);
        let dot = g.to_dot();
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("digraph"));
    }
}
