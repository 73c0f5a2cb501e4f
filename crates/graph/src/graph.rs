//! The dataflow graph: nodes, edges, topological structure.
//!
//! This is the reproduction's stand-in for a TensorFlow computation graph.
//! Construction is append-only: an op's inputs must already exist, so node
//! ids are a valid topological order by construction and the graph is a DAG
//! by construction.
//!
//! Internally a graph stores its ops once, flat and in id order — the
//! `&[Op]` view the planner consumes is simply that storage, for every
//! representation. Interned graphs additionally carry a run of
//! [`Segment`]s: a metadata overlay mapping op ranges to instantiations of
//! interned layer blocks (see [`crate::intern`]). Deep models with
//! repeated layers share one block *template* allocation across all layers
//! and all graphs in the process, and fingerprinting, equality, and
//! adjacency compose from per-block memos instead of re-walking the ops.

use crate::inline_list::InlineList;
use crate::intern::{BlockInst, TemplateInput};
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
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { op, input } => {
                write!(f, "op '{op}' references missing input {input}")
            }
            GraphError::UnknownOp(id) => write!(f, "unknown op {id}"),
            GraphError::BadRange(s) => write!(f, "bad op range: {s}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One run of a graph's op sequence: either verbatim ops (graph inputs,
/// embeddings, heads, losses) or one instantiation of an interned layer
/// block. Segments are an overlay over the graph's flat op storage — they
/// hold no ops themselves, only ranges and block memos.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Literal ops `flat[start..start + len]` (positions are op ids).
    Literal {
        /// First op id covered by the run.
        start: usize,
        /// Number of ops in the run.
        len: usize,
    },
    /// One placement of a shared block (its ops live at
    /// `flat[inst.base..inst.base + inst.len()]`). Stored inline — the
    /// whole segment list is behind one `Arc`, so per-block indirection
    /// would buy nothing and cost an allocation per layer.
    Block(BlockInst),
}

impl Segment {
    fn len(&self) -> usize {
        match self {
            Segment::Literal { len, .. } => *len,
            Segment::Block(inst) => inst.len(),
        }
    }

    fn start(&self) -> usize {
        match self {
            Segment::Literal { start, .. } => *start,
            Segment::Block(inst) => inst.base,
        }
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

    /// Assemble adjacency from segments without re-walking block ops:
    /// block-internal edges come from the block's memoized
    /// [`crate::intern::BlockAdj`] (built once per *distinct* block
    /// process-wide, not once per graph or clone). Edge-list ordering is
    /// identical to [`AdjCache::build`] on the flat view: segments are
    /// walked in id order and block adjacency records edges in flat-scan
    /// order.
    fn build_from_segments(segments: &[Segment], flat: &[Op]) -> AdjCache {
        let len = flat.len();
        let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); len];
        let mut consumed = vec![false; len];
        let mut sources = Vec::new();
        for segment in segments {
            match segment {
                Segment::Literal { start, len } => {
                    for op in &flat[*start..start + len] {
                        if op.inputs.is_empty() {
                            sources.push(op.id);
                        }
                        for &input in &op.inputs {
                            consumers[input.0].push(op.id);
                            consumed[input.0] = true;
                        }
                    }
                }
                Segment::Block(inst) => {
                    let adj = inst.block.adjacency();
                    let base = inst.base;
                    for &s in &adj.sources_rel {
                        sources.push(OpId(base + s));
                    }
                    for (producer, cs) in adj.internal_consumers.iter().enumerate() {
                        if cs.is_empty() {
                            continue;
                        }
                        consumed[base + producer] = true;
                        let list = &mut consumers[base + producer];
                        list.extend(cs.iter().map(|&c| OpId(base + c)));
                    }
                    for (slot, cs) in adj.external_consumers.iter().enumerate() {
                        if cs.is_empty() {
                            continue;
                        }
                        let producer = inst.externals[slot];
                        consumed[producer.0] = true;
                        let list = &mut consumers[producer.0];
                        list.extend(cs.iter().map(|&c| OpId(base + c)));
                    }
                }
            }
        }
        let sinks = (0..len).filter(|&i| !consumed[i]).map(OpId).collect();
        AdjCache {
            consumers,
            sources,
            sinks,
        }
    }
}

/// Storage backing a graph: always the flat op vector, optionally overlaid
/// with segments mapping op ranges to interned block instantiations.
#[derive(Debug, Clone)]
pub(crate) enum Rep {
    /// Every op stored verbatim, no block structure.
    Flat(Arc<Vec<Op>>),
    /// Flat ops plus the literal/block segmentation the builder recorded.
    Interned {
        segments: Arc<Vec<Segment>>,
        flat: Arc<Vec<Op>>,
    },
}

/// An append-only dataflow DAG.
///
/// Ops live behind [`Arc`]s with copy-on-write mutation, so cloning a
/// finished graph is a reference-count bump — `auto_parallel` hands one
/// built model to every candidate strategy without re-running the model
/// constructor. Value semantics are preserved: appending to a shared graph
/// copies the op list first (and collapses an interned graph to its flat
/// form, since an arbitrary append invalidates block structure).
///
/// Adjacency ([`Graph::consumers`], [`Graph::sources`], [`Graph::sinks`]) and
/// the [`Graph::fingerprint`] are memoized behind [`OnceLock`]s and shared
/// by clones; appending an op invalidates both. For interned graphs the
/// per-block half of that work is additionally shared across *all* graphs
/// containing the block. Equality
/// and ordering look only at the semantic `(name, ops)` content — caches
/// and representation are invisible: two graphs holding the same ops
/// compare equal whether interned or flat, with a segment/pointer fast
/// path when both sides are interned.
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    rep: Rep,
    memo: Arc<Memo>,
}

/// What a graph derives from its ops on first use. One cell holds both
/// memos, so building a graph allocates one `Arc` for them.
#[derive(Debug, Default)]
struct Memo {
    adj: OnceLock<AdjCache>,
    fingerprint: OnceLock<Fingerprint>,
}

fn segment_eq(a: &Segment, a_flat: &[Op], b: &Segment, b_flat: &[Op]) -> bool {
    match (a, b) {
        (Segment::Literal { start: sa, len: la }, Segment::Literal { start: sb, len: lb }) => {
            sa == sb && la == lb && a_flat[*sa..sa + la] == b_flat[*sb..sb + lb]
        }
        (Segment::Block(a), Segment::Block(b)) => {
            // Interning guarantees pointer equality ⟺ template equality,
            // so this is exact, not probabilistic. Prefix text is compared
            // through the flat storage (instances own no text); blocks are
            // never empty, so `base` is in bounds.
            Arc::ptr_eq(&a.block, &b.block)
                && a.base == b.base
                && a.layer_base == b.layer_base
                && a.prefix_len == b.prefix_len
                && a.externals == b.externals
                && a_flat[a.base].name.as_bytes()[..a.prefix_len]
                    == b_flat[b.base].name.as_bytes()[..b.prefix_len]
        }
        _ => false,
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.len() != other.len() {
            return false;
        }
        // Interned fast path: identical segment structure proves equality
        // without comparing a single block op (literal runs — a handful of
        // embeddings/heads — are compared directly).
        if let (
            Rep::Interned {
                segments: sa,
                flat: fa,
            },
            Rep::Interned {
                segments: sb,
                flat: fb,
            },
        ) = (&self.rep, &other.rep)
        {
            if Arc::ptr_eq(fa, fb) || Arc::ptr_eq(sa, sb) {
                return true;
            }
            if sa.len() == sb.len()
                && sa
                    .iter()
                    .zip(sb.iter())
                    .all(|(x, y)| segment_eq(x, fa, y, fb))
            {
                return true;
            }
            // Differently segmented graphs can still flatten identically;
            // fall through to the semantic comparison.
        }
        self.ops() == other.ops()
    }
}

/// Instantiate one block placement into `out` (which must be exactly
/// `inst.len()` ops long), used when splicing an edited block into a
/// graph's flat storage. `prefix` is the instantiation's name prefix (the
/// instance only records its length). This is the only path that rebuilds
/// ops from a template — ordinary construction records ops once and never
/// revisits them.
fn write_block_ops(inst: &BlockInst, prefix: &str, out: &mut [Op]) {
    let template = inst.block.template();
    debug_assert_eq!(out.len(), template.ops.len());
    debug_assert_eq!(prefix.len(), inst.prefix_len);
    for (off, (slot, t)) in out.iter_mut().zip(template.ops.iter()).enumerate() {
        *slot = Op {
            id: OpId(inst.base + off),
            name: [prefix, t.suffix.as_str()].concat(),
            kind: t.kind.clone(),
            inputs: t
                .inputs
                .iter()
                .map(|input| match *input {
                    TemplateInput::Internal(p) => OpId(inst.base + p),
                    TemplateInput::External(s) => inst.externals[s],
                })
                .collect(),
            output: t.output.clone(),
            phase: t.phase,
            layer: t.layer_rel.map(|rel| inst.layer_base + rel),
        };
    }
}

impl Graph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Graph {
        Graph {
            name: name.into(),
            rep: Rep::Flat(Arc::new(Vec::new())),
            memo: Arc::default(),
        }
    }

    /// Assemble a graph from builder-produced flat ops plus the segment
    /// overlay describing which ranges are interned blocks (see
    /// [`crate::builder::GraphBuilder`]).
    pub(crate) fn from_segments(name: String, segments: Vec<Segment>, flat: Vec<Op>) -> Graph {
        debug_assert_eq!(
            segments.iter().map(Segment::len).sum::<usize>(),
            flat.len(),
            "segments must tile the op list"
        );
        debug_assert!(
            segments
                .iter()
                .scan(0usize, |pos, s| {
                    let ok = s.start() == *pos;
                    *pos += s.len();
                    Some(ok)
                })
                .all(|ok| ok),
            "segments must be contiguous and in id order"
        );
        Graph {
            name,
            rep: Rep::Interned {
                segments: Arc::new(segments),
                flat: Arc::new(flat),
            },
            memo: Arc::default(),
        }
    }

    /// Assemble a flat graph from already-validated ops (builder internal).
    pub(crate) fn from_flat(name: String, ops: Vec<Op>) -> Graph {
        debug_assert!(ops.iter().enumerate().all(|(i, op)| op.id.0 == i));
        Graph {
            name,
            rep: Rep::Flat(Arc::new(ops)),
            memo: Arc::default(),
        }
    }

    pub(crate) fn rep(&self) -> &Rep {
        &self.rep
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All ops, in id (= topological) order. Free for every
    /// representation: interned graphs store their flat view eagerly (the
    /// builder records each op exactly once) and share it across clones.
    pub fn ops(&self) -> &[Op] {
        match &self.rep {
            Rep::Flat(ops) => ops,
            Rep::Interned { flat, .. } => flat,
        }
    }

    /// Number of ops (cheap for every representation).
    pub fn len(&self) -> usize {
        self.ops().len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of interned-block instantiations (0 for flat graphs).
    pub fn block_count(&self) -> usize {
        match &self.rep {
            Rep::Flat(_) => 0,
            Rep::Interned { segments, .. } => segments
                .iter()
                .filter(|s| matches!(s, Segment::Block(_)))
                .count(),
        }
    }

    /// Look up an op.
    pub fn op(&self, id: OpId) -> Result<&Op, GraphError> {
        self.ops().get(id.0).ok_or(GraphError::UnknownOp(id))
    }

    /// Append an op whose inputs must already exist.
    ///
    /// An arbitrary append has no block structure, so an interned graph
    /// first collapses to its flat form (block sharing with other graphs
    /// is unaffected; this graph simply stops participating).
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
        if let Rep::Interned { flat, .. } = &self.rep {
            // The flat storage already exists — collapsing just drops the
            // segment overlay (block sharing with other graphs is
            // unaffected; this graph simply stops participating).
            self.rep = Rep::Flat(Arc::clone(flat));
        }
        let Rep::Flat(ops) = &mut self.rep else {
            unreachable!("interned representation collapsed above")
        };
        Arc::make_mut(ops).push(Op {
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

    /// Replace the `index`-th block instantiation with the `donor_index`-th
    /// block of `donor`, keeping this graph's placement (prefix, id base,
    /// layer base, external wiring). This is the single-layer-edit
    /// primitive: every untouched segment is shared with `self`, so
    /// re-fingerprinting the result re-hashes only the spliced block.
    ///
    /// The donor block must have the same op count (so downstream ids do
    /// not shift) and the same external arity; the caller is responsible
    /// for shape compatibility at the block boundary.
    pub fn with_block_replaced(
        &self,
        index: usize,
        donor: &Graph,
        donor_index: usize,
    ) -> Result<Graph, GraphError> {
        fn nth_block(rep: &Rep, n: usize) -> Option<(usize, &BlockInst)> {
            let Rep::Interned { segments, .. } = rep else {
                return None;
            };
            segments
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Segment::Block(inst) => Some((i, inst)),
                    Segment::Literal { .. } => None,
                })
                .nth(n)
        }
        let (seg_index, target) = nth_block(&self.rep, index)
            .ok_or_else(|| GraphError::BadRange(format!("graph has no interned block #{index}")))?;
        let (_, donor_inst) = nth_block(donor.rep(), donor_index).ok_or_else(|| {
            GraphError::BadRange(format!("donor has no interned block #{donor_index}"))
        })?;
        let donor_block = Arc::clone(&donor_inst.block);
        if donor_block.template().ops.len() != target.len() {
            return Err(GraphError::BadRange(format!(
                "replacement block has {} ops, target has {}",
                donor_block.template().ops.len(),
                target.len()
            )));
        }
        if donor_block.template().external_slots != target.externals.len() {
            return Err(GraphError::BadRange(format!(
                "replacement block takes {} externals, target wires {}",
                donor_block.template().external_slots,
                target.externals.len()
            )));
        }
        let Rep::Interned { segments, flat } = &self.rep else {
            unreachable!("nth_block succeeded on self above")
        };
        let new_inst = BlockInst::new(
            donor_block,
            target.prefix_len,
            target.base,
            target.layer_base,
            target.externals.clone(),
        );
        // Splice: clone the flat storage, rewrite only the replaced range.
        // The replacement keeps the target's prefix text, read from the
        // original storage before the range is overwritten.
        let prefix = &flat[target.base].name[..target.prefix_len];
        let mut new_flat: Vec<Op> = flat.as_ref().clone();
        let range = new_inst.base..new_inst.base + new_inst.len();
        write_block_ops(&new_inst, prefix, &mut new_flat[range]);
        let mut new_segments: Vec<Segment> = segments.as_ref().clone();
        new_segments[seg_index] = Segment::Block(new_inst);
        Ok(Graph::from_segments(
            self.name.clone(),
            new_segments,
            new_flat,
        ))
    }

    /// The fingerprint memo, filled by [`Graph::fingerprint`].
    pub(crate) fn fingerprint_memo(&self) -> &OnceLock<Fingerprint> {
        &self.memo.fingerprint
    }

    fn adjacency(&self) -> &AdjCache {
        self.memo.adj.get_or_init(|| match &self.rep {
            Rep::Flat(ops) => AdjCache::build(ops),
            Rep::Interned { segments, flat } => AdjCache::build_from_segments(segments, flat),
        })
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

    fn mk_encoder(name: &str, layers: usize, interned: bool) -> Graph {
        let mut b = GraphBuilder::with_interning(name, interned);
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
        let interned = mk_encoder("enc", 2, true);
        assert!(interned.block_count() > 0);
        for original in [mk_chain(5), interned] {
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
                assert_eq!(grown.block_count(), 0, "an append collapses to flat");
                assert_eq!(grown.fingerprint(), replay(&grown).fingerprint());
                assert_ne!(grown.fingerprint(), before);
            }
            assert_eq!(original.fingerprint(), before);
            assert_eq!(before, replay(&original).fingerprint());
        }
    }

    #[test]
    fn interned_adjacency_matches_flat_rebuild() {
        let interned = mk_encoder("enc", 3, true);
        let flat = mk_encoder("enc", 3, false);
        assert!(interned.block_count() > 0);
        assert_eq!(flat.block_count(), 0);
        // The segment-assembled adjacency is elementwise identical to a
        // flat scan: same consumer lists (order and duplicates included),
        // same frontiers.
        let rebuilt = AdjCache::build(interned.ops());
        assert_eq!(interned.consumers(), rebuilt.consumers);
        assert_eq!(interned.sources(), rebuilt.sources);
        assert_eq!(interned.sinks(), rebuilt.sinks);
        assert_eq!(flat.consumers(), interned.consumers());
    }

    #[test]
    fn interned_and_flat_builds_are_equal() {
        let interned = mk_encoder("enc", 2, true);
        let flat = mk_encoder("enc", 2, false);
        assert_eq!(interned.ops(), flat.ops());
        assert_eq!(interned, flat);
        assert_eq!(flat, interned);
        assert_eq!(interned, interned.clone());
        assert_ne!(interned, mk_encoder("enc", 3, true));
    }

    #[test]
    fn append_to_interned_graph_collapses_but_stays_correct() {
        let mut g = mk_encoder("enc", 2, true);
        let flat_before = g.ops().to_vec();
        let last = OpId(g.len() - 1);
        g.add_op(
            "tail",
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
        assert_eq!(g.block_count(), 0);
        assert_eq!(g.len(), flat_before.len() + 1);
        assert_eq!(&g.ops()[..flat_before.len()], flat_before.as_slice());
        assert_eq!(
            *g.consumers()[last.0].last().unwrap(),
            OpId(flat_before.len())
        );
    }

    #[test]
    fn block_replacement_validates_shape() {
        let g = mk_encoder("enc", 3, true);
        // Donor with a different FFN width: same op count, same externals.
        let mut b = GraphBuilder::new("donor");
        let x = b.input("x", &[2, 16, 64]).unwrap();
        b.encoder_layer("d", x, 2, 16, 64, 4, 512).unwrap();
        let donor = b.finish();

        let edited = g.with_block_replaced(1, &donor, 0).unwrap();
        assert_eq!(edited.len(), g.len());
        assert_ne!(edited, g);
        // Only the middle layer changed; names keep the target prefix.
        let changed: Vec<_> = g
            .ops()
            .iter()
            .zip(edited.ops())
            .filter(|(a, b)| a != b)
            .collect();
        assert!(!changed.is_empty());
        assert!(changed
            .iter()
            .all(|(a, b)| { a.name.starts_with("enc.1/") && b.name.starts_with("enc.1/") }));

        assert!(g.with_block_replaced(7, &donor, 0).is_err());
        assert!(g.with_block_replaced(0, &mk_chain(3), 0).is_err());
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
