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
    /// An op's output byte size (element count × dtype bytes) overflows
    /// `u64`, as a huge batch makes it, or takes its graph's doubled output
    /// total past `u64` (see [`Graph`]).
    OutputTooLarge {
        /// The op being added.
        op: String,
        /// Its output tensor.
        output: TensorMeta,
    },
    /// An op's parameter count, or that count's fp32 bytes (4 per
    /// parameter), overflows `u64`, or takes its graph's total parameter
    /// bytes past `u64` (see [`Graph`]).
    ParamsTooLarge {
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
            GraphError::OutputTooLarge { op, output } => write!(
                f,
                "op '{op}': output {} of {} overflows 64 bits of bytes",
                output.shape, output.dtype
            ),
            GraphError::ParamsTooLarge { op } => {
                write!(f, "op '{op}': parameter bytes overflow 64 bits")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The size totals a graph keeps within `u64`: its ops' parameter bytes
/// (Σ parameter count × 4) and their output bytes, at most half of
/// `u64::MAX` so that doubling fits too (see [`Graph`]'s invariant).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SizeTotals {
    param_bytes: u64,
    output_bytes: u64,
}

impl SizeTotals {
    /// The totals of a graph's ops, which hold the invariant, so adding
    /// them never fails.
    fn of(ops: &[Op]) -> Result<SizeTotals, GraphError> {
        let mut totals = SizeTotals::default();
        for op in ops {
            totals.add(&op.name, &op.kind, &op.output)?;
        }
        Ok(totals)
    }

    /// Add the sizes of the op `op` about to be recorded, or refuse it:
    /// [`GraphError::OutputTooLarge`] when its output byte size (element
    /// count × dtype bytes) overflows `u64` or takes the doubled output
    /// total past it, else [`GraphError::ParamsTooLarge`] when its
    /// parameter count, that count's fp32 bytes, or the parameter-byte
    /// total overflows `u64`. A zero dimension makes an output's size zero,
    /// whatever the others.
    pub(crate) fn add(
        &mut self,
        op: &str,
        kind: &OpKind,
        output: &TensorMeta,
    ) -> Result<(), GraphError> {
        let dims = output.shape.dims();
        let output_bytes = if dims.contains(&0) {
            Some(0)
        } else {
            dims.iter()
                .try_fold(output.dtype.size_bytes(), |bytes, &d| {
                    bytes.checked_mul(d as u64)
                })
        }
        .and_then(|bytes| self.output_bytes.checked_add(bytes))
        .filter(|total| total.checked_mul(2).is_some())
        .ok_or_else(|| GraphError::OutputTooLarge {
            op: op.to_string(),
            output: output.clone(),
        })?;
        let param_bytes = kind
            .checked_param_count()
            .and_then(|n| n.checked_mul(4))
            .and_then(|bytes| self.param_bytes.checked_add(bytes))
            .ok_or_else(|| GraphError::ParamsTooLarge { op: op.to_string() })?;
        *self = SizeTotals {
            param_bytes,
            output_bytes,
        };
        Ok(())
    }
}

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
///
/// **Size invariant.** A graph's total parameter bytes (Σ parameter count
/// × 4) and twice its total output bytes fit in `u64`: both insertion
/// paths, [`Graph::add_op`] and `GraphBuilder`, refuse the op that would
/// break it. So every sum or product over a subset of the ops fits as
/// written — [`CostProfile::from_ops`](crate::CostProfile::from_ops),
/// `MemoryPrefix`, [`Graph::total_params`], [`graph_stats`](crate::graph_stats),
/// a grad sync's `param_count * 2` — and none of them needs a check.
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

    /// Append an op whose inputs must already exist and whose output and
    /// parameter bytes keep the graph's size invariant
    /// ([`GraphError::OutputTooLarge`] or [`GraphError::ParamsTooLarge`]
    /// otherwise). The totals are summed over the graph's ops on each call.
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
        SizeTotals::of(&self.ops)?.add(&name, &kind, &output)?;
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

    /// One kind per `OpKind` arm with parameters, each at a size whose
    /// parameter count, or that count's fp32 bytes, overflows `u64`.
    fn kinds_with_oversized_params() -> Vec<OpKind> {
        vec![
            // 2^64 + 2^24 parameters.
            OpKind::MatMul {
                m: 8,
                k: 1 << 40,
                n: 1 << 24,
                has_params: true,
            },
            // 2^62 + 2^20 parameters: the count fits, its bytes do not.
            OpKind::Conv2d {
                batch: 8,
                in_c: 1 << 20,
                out_c: 1 << 20,
                kernel: (1 << 12, 1 << 10),
                out_hw: (1, 1),
            },
            OpKind::Embedding {
                vocab: 1 << 32,
                dim: 1 << 31,
                tokens: 8,
            },
            OpKind::LayerNorm {
                elems: 128,
                dim: 1 << 63,
            },
            OpKind::Lstm {
                seq: 4,
                batch: 8,
                input_dim: 1 << 33,
                hidden: 1 << 31,
            },
            OpKind::MoeFfn {
                tokens: 8,
                hidden: 1 << 20,
                intermediate: 1 << 20,
                experts: 1 << 23,
                top_k: 2,
            },
            OpKind::Gating {
                tokens: 8,
                hidden: 1 << 32,
                experts: 1 << 32,
            },
            OpKind::Synthetic {
                flops: 1.0,
                params: u64::MAX / 4 + 1,
            },
        ]
    }

    #[test]
    fn an_op_whose_parameter_bytes_overflow_is_refused() {
        for kind in kinds_with_oversized_params() {
            let want = GraphError::ParamsTooLarge {
                op: "big".to_string(),
            };
            let mut g = mk_chain(1);
            let err = g
                .add_op(
                    "big",
                    kind.clone(),
                    vec![OpId(0)],
                    TensorMeta::f32(&[8, 16]),
                    Phase::Forward,
                    None,
                )
                .unwrap_err();
            assert_eq!(err, want, "Graph::add_op, {kind:?}");
            assert_eq!(g.len(), 1, "{kind:?}");

            let mut b = GraphBuilder::new("big");
            let x = b.input("x", &[8, 16]).unwrap();
            let err = b
                .op("big", kind.clone(), [x], TensorMeta::f32(&[8, 16]))
                .unwrap_err();
            assert_eq!(err, want, "GraphBuilder::op, {kind:?}");
            assert_eq!(
                err.to_string(),
                "op 'big': parameter bytes overflow 64 bits"
            );
        }
    }

    #[test]
    fn parameter_bytes_that_just_fit_are_accepted() {
        let mut g = mk_chain(1);
        let params = u64::MAX / 4;
        let id = g
            .add_op(
                "fits",
                OpKind::Synthetic { flops: 1.0, params },
                vec![OpId(0)],
                TensorMeta::f32(&[8, 16]),
                Phase::Forward,
                None,
            )
            .unwrap();
        assert_eq!(g.op(id).unwrap().kind.param_count(), params);
    }

    /// Add `kind` with output `output` to a graph holding one input, first
    /// through `Graph::add_op`, then through `GraphBuilder::op`, `count`
    /// times each; return each path's graph or the first error and the
    /// index of the op that raised it.
    fn add_repeatedly(
        kind: OpKind,
        output: TensorMeta,
        count: usize,
    ) -> [Result<Graph, (usize, GraphError)>; 2] {
        let mut g = Graph::new("sum");
        let x = g
            .add_op(
                "x",
                OpKind::Input,
                vec![],
                TensorMeta::f32(&[8]),
                Phase::Forward,
                None,
            )
            .unwrap();
        let by_add_op = (0..count)
            .try_for_each(|i| {
                g.add_op(
                    format!("op{i}"),
                    kind.clone(),
                    vec![x],
                    output.clone(),
                    Phase::Forward,
                    None,
                )
                .map(drop)
                .map_err(|e| (i, e))
            })
            .map(|()| g);
        let mut b = GraphBuilder::new("sum");
        let x = b.input("x", &[8]).unwrap();
        let by_builder = (0..count)
            .try_for_each(|i| {
                b.op(format!("op{i}"), kind.clone(), [x], output.clone())
                    .map(drop)
                    .map_err(|e| (i, e))
            })
            .map(|()| b.finish());
        [by_add_op, by_builder]
    }

    #[test]
    fn ops_whose_parameter_bytes_sum_past_u64_are_refused() {
        // Each op's fp32 parameter bytes fit in u64, but two of them do not:
        // the second op is refused, by name.
        let kind = OpKind::Synthetic {
            flops: 1.0,
            params: u64::MAX / 4,
        };
        for outcome in add_repeatedly(kind.clone(), TensorMeta::f32(&[8]), 5) {
            let want = GraphError::ParamsTooLarge {
                op: "op1".to_string(),
            };
            assert_eq!(outcome.unwrap_err(), (1, want));
        }
        // One such op is a graph whose totals fit.
        for g in add_repeatedly(kind, TensorMeta::f32(&[8]), 1) {
            let g = g.unwrap();
            assert_eq!(g.total_params(), u64::MAX / 4);
            let profile = crate::CostProfile::from_graph(&g, 8);
            assert_eq!(profile.param_bytes, u64::MAX / 4 * 4);
        }
    }

    #[test]
    fn an_output_whose_doubled_bytes_overflow_is_refused() {
        // 2^61 f32 elements are 2^63 bytes: the op's own size fits, but the
        // doubled traffic of a bandwidth-bound op would not.
        let kind = OpKind::Elementwise {
            elems: 1 << 61,
            flops_per_elem: 1,
        };
        for outcome in add_repeatedly(kind.clone(), TensorMeta::f32(&[1 << 61]), 1) {
            let want = GraphError::OutputTooLarge {
                op: "op0".to_string(),
                output: TensorMeta::f32(&[1 << 61]),
            };
            assert_eq!(outcome.unwrap_err(), (0, want));
        }
        // Half of that fits once, and its traffic doubles without wrapping;
        // a second such op takes the graph's doubled total past u64.
        let half = TensorMeta::f32(&[1 << 60]);
        for g in add_repeatedly(kind.clone(), half.clone(), 1) {
            let profile = crate::CostProfile::from_graph(&g.unwrap(), 1);
            assert_eq!(profile.memory_traffic_bytes_per_sample, 2f64.powi(63));
        }
        for outcome in add_repeatedly(kind, half.clone(), 2) {
            let want = GraphError::OutputTooLarge {
                op: "op1".to_string(),
                output: half.clone(),
            };
            assert_eq!(outcome.unwrap_err(), (1, want));
        }
        // A zero dimension makes an output empty whatever the others, so
        // the ops after it still see the totals they had.
        let empty = TensorMeta::f32(&[1 << 40, 1 << 40, 0]);
        let pool = OpKind::Pool { elems: 0 };
        for g in add_repeatedly(pool, empty.clone(), 2) {
            assert_eq!(g.unwrap().len(), 3);
        }
    }
}
