//! Convenience builder for assembling model graphs.
//!
//! Provides the layer-level vocabulary the model zoo is written in: dense
//! layers, convolutions, transformer encoder/decoder blocks, LSTM layers, and
//! MoE blocks. Every helper stamps the current layer index onto the ops it
//! emits so stage partitioning and checkpointing can see layer boundaries.
//!
//! The builder is also where block interning happens: the layer-level
//! helpers ([`GraphBuilder::encoder_layer`], [`GraphBuilder::decoder_layer`],
//! [`GraphBuilder::moe_encoder_layer`], [`GraphBuilder::lstm`]) bracket the
//! ops they emit into a block, factor out the instantiation-specific parts
//! (name prefix, id base, layer index, external inputs), and intern the
//! remaining template (see [`crate::intern`]). A 48-layer BERT therefore
//! carries one encoder-block allocation plus 48 lightweight instantiations,
//! and downstream fingerprinting/equality/adjacency reuse per-block memos.
//! Each sealed block is first compared with the one sealed before it, so a
//! run of equal layers is hashed and looked up in the interner's table once.
//! Op names are built once at their exact length, and inputs and shapes are
//! held inline, so recording an op allocates only its name.
//! Ops emitted outside the layer helpers (embeddings, heads, losses) stay
//! literal. Interning is purely representational — the finished graph's op
//! list, fingerprint, and produced plans are identical either way, which
//! `with_interning(name, false)` (and the process-wide
//! [`set_default_interning`] switch used by benchmarks) lets tests verify.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use whale_fp::{Fingerprint, Fingerprinter};

use crate::fingerprint::{push_kind, push_phase, push_tensor};
use crate::graph::{Graph, GraphError, Op, OpId, Segment};
use crate::inline_list::InlineList;
use crate::intern::{
    intern_again, intern_block_with, BlockInst, BlockTemplate, InternedBlock, TemplateInput,
    TemplateOp,
};
use crate::op::{OpKind, Phase};
use crate::tensor::TensorMeta;

/// Whether builders constructed via [`GraphBuilder::new`] intern layer
/// blocks. On by default; benchmarks flip it to build the uninterned
/// baseline arm through the unmodified model-zoo constructors.
static DEFAULT_INTERNING: AtomicBool = AtomicBool::new(true);

/// Set the process-wide default for [`GraphBuilder::new`] and return the
/// previous value. Representation-only: graphs built either way are
/// semantically equal and fingerprint-identical.
pub fn set_default_interning(on: bool) -> bool {
    DEFAULT_INTERNING.swap(on, Ordering::SeqCst)
}

/// An open block bracket: the range `ops[base..]` is being recorded for
/// interning. The ops themselves live in the builder's single flat list —
/// bracketing adds no per-op storage, not even for the prefix: only its
/// byte length is kept, and the text is read back from the first recorded
/// op's name (which must start with it).
#[derive(Debug)]
struct OpenBlock {
    prefix_len: usize,
    base: usize,
    layer_base: usize,
}

/// Stateful graph builder.
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    interning: bool,
    layer: usize,
    /// Every op, recorded exactly once in id order. This becomes the
    /// finished graph's flat storage verbatim; segments only reference
    /// ranges of it, so interning costs no op copies.
    ops: Vec<Op>,
    segments: Vec<Segment>,
    /// Start of the literal run not yet flushed into a segment.
    lit_start: usize,
    block: Option<OpenBlock>,
    /// Block nesting depth; only the outermost bracket interns.
    depth: usize,
    /// The interner's canonical `Arc` for the block sealed last.
    last_block: Option<Arc<InternedBlock>>,
}

impl GraphBuilder {
    /// Start building a graph with the given name.
    pub fn new(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder::with_interning(name, DEFAULT_INTERNING.load(Ordering::SeqCst))
    }

    /// Start building with block interning explicitly on or off.
    pub fn with_interning(name: impl Into<String>, interning: bool) -> GraphBuilder {
        GraphBuilder {
            name: name.into(),
            interning,
            layer: 0,
            ops: Vec::new(),
            segments: Vec::new(),
            lit_start: 0,
            block: None,
            depth: 0,
            last_block: None,
        }
    }

    /// Set the layer index stamped on subsequently added ops.
    pub fn set_layer(&mut self, layer: usize) {
        self.layer = layer;
    }

    /// Advance to the next layer index and return it.
    pub fn next_layer(&mut self) -> usize {
        self.layer += 1;
        self.layer
    }

    /// Current layer index.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of ops created so far (used by scoped annotation to attribute
    /// op ranges to scopes).
    pub fn graph_len(&self) -> usize {
        self.ops.len()
    }

    /// Finish and return the graph.
    pub fn finish(mut self) -> Graph {
        // An unbalanced bracket (bail-out mid-layer) simply never seals:
        // its ops are still in the literal run and stay literal.
        self.block = None;
        if self.segments.iter().any(|s| matches!(s, Segment::Block(_))) {
            self.flush_literal();
            Graph::from_segments(self.name, self.segments, self.ops)
        } else {
            // No blocks recorded (conv nets, hand-built graphs, interning
            // off): plain flat graph with zero interning overhead.
            Graph::from_flat(self.name, self.ops)
        }
    }

    fn flush_literal(&mut self) {
        if self.ops.len() > self.lit_start {
            self.segments.push(Segment::Literal {
                start: self.lit_start,
                len: self.ops.len() - self.lit_start,
            });
            self.lit_start = self.ops.len();
        }
    }

    /// Open a block bracket: ops added until the matching [`end_block`]
    /// are recorded for interning under a name prefix of `prefix_len`
    /// bytes. Nested brackets merge into the outermost one.
    ///
    /// [`end_block`]: Self::end_block
    fn begin_block(&mut self, prefix_len: usize) {
        self.depth += 1;
        if self.depth > 1 || !self.interning {
            return;
        }
        self.flush_literal();
        if self.segments.capacity() == 0 {
            // One segment per layer block plus a few literals; deep models
            // (the interning sweet spot) repeat blocks dozens of times, so
            // skip the doubling ramp-up.
            self.segments.reserve(64);
        }
        self.block = Some(OpenBlock {
            prefix_len,
            base: self.ops.len(),
            layer_base: self.layer,
        });
    }

    /// Close the current block bracket, interning the recorded template.
    fn end_block(&mut self) {
        debug_assert!(self.depth > 0, "unbalanced end_block");
        self.depth = self.depth.saturating_sub(1);
        if self.depth > 0 {
            return;
        }
        if let Some(block) = self.block.take() {
            self.seal_block(block);
        }
    }

    /// Seal `ops[block.base..]` as one interned block, comparing the
    /// recorded ops with a template in place — suffixes by slicing off the
    /// prefix, inputs by arithmetic — so no [`BlockTemplate`] is built
    /// unless the block is new to the process. The block sealed last is
    /// tried first: a repeated layer matches it with no hash and no lock.
    /// Any other block is hashed and looked up in the interner's table.
    /// Either way the result is the canonical `Arc`, so pointer equality
    /// still holds exactly when templates are equal.
    fn seal_block(&mut self, block: OpenBlock) {
        let ops = &self.ops[block.base..];
        // Ops that don't fit the template shape (foreign name prefix,
        // layer index behind the block's base) stay literal — lit_start
        // still covers them — and the graph is identical either way.
        let Some(externals) = block_externals(ops, &block) else {
            return;
        };
        let interned = match &self.last_block {
            Some(last) if block_matches(last.template(), ops, &block, &externals) => {
                intern_again(last)
            }
            _ => intern_block_with(
                block_hash(ops, &block, &externals),
                |template| block_matches(template, ops, &block, &externals),
                || build_template(ops, &block, &externals),
            ),
        };
        self.last_block = Some(Arc::clone(&interned));
        self.segments.push(Segment::Block(BlockInst::new(
            interned,
            block.prefix_len,
            block.base,
            block.layer_base,
            externals,
        )));
        self.lit_start = self.ops.len();
    }

    fn output_of(&self, id: OpId) -> Result<&TensorMeta, GraphError> {
        self.ops
            .get(id.0)
            .map(|op| &op.output)
            .ok_or(GraphError::UnknownOp(id))
    }

    fn add(
        &mut self,
        name: String,
        kind: OpKind,
        inputs: InlineList<OpId>,
        output: TensorMeta,
        phase: Phase,
        layer: Option<usize>,
    ) -> Result<OpId, GraphError> {
        let id = OpId(self.ops.len());
        for &input in &inputs {
            if input.0 >= id.0 {
                return Err(GraphError::DanglingInput { op: name, input });
            }
        }
        self.ops.push(Op {
            id,
            name,
            kind,
            inputs,
            output,
            phase,
            layer,
        });
        Ok(id)
    }

    /// Raw op insertion at the current layer. A `String` name is moved in,
    /// not copied.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: impl IntoIterator<Item = OpId>,
        output: TensorMeta,
    ) -> Result<OpId, GraphError> {
        self.add(
            name.into(),
            kind,
            inputs.into_iter().collect(),
            output,
            Phase::Forward,
            Some(self.layer),
        )
    }

    /// Graph input of the given shape.
    pub fn input(&mut self, name: impl Into<String>, dims: &[usize]) -> Result<OpId, GraphError> {
        self.op(name, OpKind::Input, [], TensorMeta::f32(dims))
    }

    /// Dense (fully connected) layer: `[rows, in_dim] → [rows, out_dim]`.
    pub fn dense(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        rows: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<OpId, GraphError> {
        self.op(
            name,
            OpKind::MatMul {
                m: rows,
                k: in_dim,
                n: out_dim,
                has_params: true,
            },
            [input],
            TensorMeta::f32(&[rows, out_dim]),
        )
    }

    /// Activation-by-activation matmul (no parameters), e.g. attention
    /// scores.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul(
        &mut self,
        name: impl Into<String>,
        a: OpId,
        b: OpId,
        m: usize,
        k: usize,
        n: usize,
        out_dims: &[usize],
    ) -> Result<OpId, GraphError> {
        self.op(
            name,
            OpKind::MatMul {
                m,
                k,
                n,
                has_params: false,
            },
            [a, b],
            TensorMeta::f32(out_dims),
        )
    }

    /// Layer normalization preserving the input shape.
    pub fn layer_norm(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        dim: usize,
    ) -> Result<OpId, GraphError> {
        let meta = self.output_of(input)?.clone();
        let elems = meta.shape.num_elements();
        self.op(name, OpKind::LayerNorm { elems, dim }, [input], meta)
    }

    /// Softmax preserving the input shape.
    pub fn softmax(&mut self, name: impl Into<String>, input: OpId) -> Result<OpId, GraphError> {
        let meta = self.output_of(input)?.clone();
        let elems = meta.shape.num_elements();
        self.op(name, OpKind::Softmax { elems }, [input], meta)
    }

    /// Elementwise op (GeLU ≈ 8 FLOPs/elem, add = 1) preserving shape of the
    /// first input.
    pub fn elementwise(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = OpId>,
        flops_per_elem: u32,
    ) -> Result<OpId, GraphError> {
        let inputs: InlineList<OpId> = inputs.into_iter().collect();
        let meta = self.output_of(inputs[0])?.clone();
        let elems = meta.shape.num_elements();
        self.op(
            name,
            OpKind::Elementwise {
                elems,
                flops_per_elem,
            },
            inputs.iter().copied(),
            meta,
        )
    }

    /// 2-D convolution (+ folded batch-norm parameters via the bias term).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        batch: usize,
        in_c: usize,
        out_c: usize,
        kernel: (usize, usize),
        out_hw: (usize, usize),
    ) -> Result<OpId, GraphError> {
        self.op(
            name,
            OpKind::Conv2d {
                batch,
                in_c,
                out_c,
                kernel,
                out_hw,
            },
            [input],
            TensorMeta::f32(&[batch, out_c, out_hw.0, out_hw.1]),
        )
    }

    /// Token embedding lookup: `[batch, seq] → [batch, seq, dim]`.
    pub fn embedding(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        vocab: usize,
        dim: usize,
        batch: usize,
        seq: usize,
    ) -> Result<OpId, GraphError> {
        self.op(
            name,
            OpKind::Embedding {
                vocab,
                dim,
                tokens: batch * seq,
            },
            [input],
            TensorMeta::f32(&[batch, seq, dim]),
        )
    }

    /// Multi-head self-attention block (QKV projection, scores, context,
    /// output projection) with a residual add and layer norm.
    #[allow(clippy::too_many_arguments)]
    pub fn self_attention(
        &mut self,
        prefix: &str,
        input: OpId,
        batch: usize,
        seq: usize,
        hidden: usize,
        heads: usize,
    ) -> Result<OpId, GraphError> {
        let rows = batch * seq;
        let head_dim = hidden / heads;
        let qkv = self.dense([prefix, "/qkv"].concat(), input, rows, hidden, 3 * hidden)?;
        // Scores: per head [seq, head_dim] × [head_dim, seq].
        let scores = self.matmul(
            [prefix, "/scores"].concat(),
            qkv,
            qkv,
            batch * heads * seq,
            head_dim,
            seq,
            &[batch, heads, seq, seq],
        )?;
        let probs = self.softmax([prefix, "/probs"].concat(), scores)?;
        let ctx = self.matmul(
            [prefix, "/context"].concat(),
            probs,
            qkv,
            batch * heads * seq,
            seq,
            head_dim,
            &[batch, seq, hidden],
        )?;
        let proj = self.dense([prefix, "/out_proj"].concat(), ctx, rows, hidden, hidden)?;
        let residual = self.elementwise([prefix, "/residual"].concat(), [proj, input], 1)?;
        self.layer_norm([prefix, "/ln"].concat(), residual, hidden)
    }

    /// Cross-attention block: queries from `input`, keys/values from
    /// `memory` of length `mem_seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn cross_attention(
        &mut self,
        prefix: &str,
        input: OpId,
        memory: OpId,
        batch: usize,
        seq: usize,
        mem_seq: usize,
        hidden: usize,
        heads: usize,
    ) -> Result<OpId, GraphError> {
        let rows = batch * seq;
        let head_dim = hidden / heads;
        let q = self.dense([prefix, "/q"].concat(), input, rows, hidden, hidden)?;
        let kv = self.dense(
            [prefix, "/kv"].concat(),
            memory,
            batch * mem_seq,
            hidden,
            2 * hidden,
        )?;
        let scores = self.matmul(
            [prefix, "/scores"].concat(),
            q,
            kv,
            batch * heads * seq,
            head_dim,
            mem_seq,
            &[batch, heads, seq, mem_seq],
        )?;
        let probs = self.softmax([prefix, "/probs"].concat(), scores)?;
        let ctx = self.matmul(
            [prefix, "/context"].concat(),
            probs,
            kv,
            batch * heads * seq,
            mem_seq,
            head_dim,
            &[batch, seq, hidden],
        )?;
        let proj = self.dense([prefix, "/out_proj"].concat(), ctx, rows, hidden, hidden)?;
        let residual = self.elementwise([prefix, "/residual"].concat(), [proj, input], 1)?;
        self.layer_norm([prefix, "/ln"].concat(), residual, hidden)
    }

    /// Position-wise feed-forward block with GeLU, residual, and layer norm.
    pub fn ffn(
        &mut self,
        prefix: &str,
        input: OpId,
        rows: usize,
        hidden: usize,
        intermediate: usize,
    ) -> Result<OpId, GraphError> {
        let up = self.dense([prefix, "/up"].concat(), input, rows, hidden, intermediate)?;
        let act = self.elementwise([prefix, "/gelu"].concat(), [up], 8)?;
        let down = self.dense([prefix, "/down"].concat(), act, rows, intermediate, hidden)?;
        let residual = self.elementwise([prefix, "/residual"].concat(), [down, input], 1)?;
        self.layer_norm([prefix, "/ln"].concat(), residual, hidden)
    }

    /// Full transformer encoder layer (self-attention + FFN) as one model
    /// layer; bumps the layer counter. Recorded as one interned block.
    #[allow(clippy::too_many_arguments)]
    pub fn encoder_layer(
        &mut self,
        prefix: &str,
        input: OpId,
        batch: usize,
        seq: usize,
        hidden: usize,
        heads: usize,
        intermediate: usize,
    ) -> Result<OpId, GraphError> {
        self.begin_block(prefix.len());
        let result = (|| {
            let attn = self.self_attention(
                &[prefix, "/attn"].concat(),
                input,
                batch,
                seq,
                hidden,
                heads,
            )?;
            let out = self.ffn(
                &[prefix, "/ffn"].concat(),
                attn,
                batch * seq,
                hidden,
                intermediate,
            )?;
            self.next_layer();
            Ok(out)
        })();
        self.end_block();
        result
    }

    /// Full transformer decoder layer (self-attention + cross-attention +
    /// FFN); bumps the layer counter. Recorded as one interned block.
    #[allow(clippy::too_many_arguments)]
    pub fn decoder_layer(
        &mut self,
        prefix: &str,
        input: OpId,
        memory: OpId,
        batch: usize,
        seq: usize,
        mem_seq: usize,
        hidden: usize,
        heads: usize,
        intermediate: usize,
    ) -> Result<OpId, GraphError> {
        self.begin_block(prefix.len());
        let result = (|| {
            let self_attn = self.self_attention(
                &[prefix, "/self_attn"].concat(),
                input,
                batch,
                seq,
                hidden,
                heads,
            )?;
            let cross = self.cross_attention(
                &[prefix, "/cross_attn"].concat(),
                self_attn,
                memory,
                batch,
                seq,
                mem_seq,
                hidden,
                heads,
            )?;
            let out = self.ffn(
                &[prefix, "/ffn"].concat(),
                cross,
                batch * seq,
                hidden,
                intermediate,
            )?;
            self.next_layer();
            Ok(out)
        })();
        self.end_block();
        result
    }

    /// MoE encoder layer: self-attention followed by gating + expert FFN
    /// (paper Fig. 15 / Example 8); bumps the layer counter. Recorded as
    /// one interned block.
    #[allow(clippy::too_many_arguments)]
    pub fn moe_encoder_layer(
        &mut self,
        prefix: &str,
        input: OpId,
        batch: usize,
        seq: usize,
        hidden: usize,
        heads: usize,
        intermediate: usize,
        experts: usize,
        top_k: usize,
    ) -> Result<OpId, GraphError> {
        self.begin_block(prefix.len());
        let result = (|| {
            let attn = self.self_attention(
                &[prefix, "/attn"].concat(),
                input,
                batch,
                seq,
                hidden,
                heads,
            )?;
            let tokens = batch * seq;
            let gates = self.op(
                [prefix, "/gating"].concat(),
                OpKind::Gating {
                    tokens,
                    hidden,
                    experts,
                },
                [attn],
                TensorMeta::f32(&[batch, seq, experts]),
            )?;
            let moe = self.op(
                [prefix, "/moe_ffn"].concat(),
                OpKind::MoeFfn {
                    tokens,
                    hidden,
                    intermediate,
                    experts,
                    top_k,
                },
                [attn, gates],
                TensorMeta::f32(&[batch, seq, hidden]),
            )?;
            let residual = self.elementwise([prefix, "/residual"].concat(), [moe, attn], 1)?;
            let out = self.layer_norm([prefix, "/ln"].concat(), residual, hidden)?;
            self.next_layer();
            Ok(out)
        })();
        self.end_block();
        result
    }

    /// LSTM layer as a single composite op; bumps the layer counter.
    /// Recorded as one interned block.
    pub fn lstm(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        seq: usize,
        batch: usize,
        input_dim: usize,
        hidden: usize,
    ) -> Result<OpId, GraphError> {
        let name = name.into();
        self.begin_block(name.len());
        let result = self.op(
            name,
            OpKind::Lstm {
                seq,
                batch,
                input_dim,
                hidden,
            },
            [input],
            TensorMeta::f32(&[batch, seq, hidden]),
        );
        if result.is_ok() {
            self.next_layer();
        }
        self.end_block();
        result
    }

    /// Softmax cross-entropy loss over `[batch, classes]`, producing a
    /// scalar-per-batch loss tensor.
    pub fn cross_entropy(
        &mut self,
        name: impl Into<String>,
        logits: OpId,
        batch: usize,
        classes: usize,
    ) -> Result<OpId, GraphError> {
        self.op(
            name,
            OpKind::CrossEntropy { batch, classes },
            [logits],
            TensorMeta::f32(&[batch]),
        )
    }
}

/// Collect the external producer list (first-reference order, matching
/// [`TemplateInput::External`] slot numbering) for a recorded block, or
/// `None` if the ops don't factor into a template (empty block, name
/// outside the prefix, layer index behind the block's layer base). The
/// prefix text is the first `prefix_len` bytes of the first op's name —
/// every op must share it, which is what makes the sliced suffixes
/// reconstructible.
fn block_externals(ops: &[Op], block: &OpenBlock) -> Option<InlineList<OpId>> {
    let first = ops.first()?;
    if !first.name.is_char_boundary(block.prefix_len) {
        return None;
    }
    let prefix = &first.name.as_bytes()[..block.prefix_len];
    let mut externals = InlineList::new();
    for op in ops {
        // A name starting with the (valid UTF-8) prefix bytes necessarily
        // has a char boundary at `prefix_len`, so suffix slicing is safe.
        if !op.name.as_bytes().starts_with(prefix) {
            return None;
        }
        if let Some(layer) = op.layer {
            layer.checked_sub(block.layer_base)?;
        }
        for &input in &op.inputs {
            if input.0 < block.base && !externals.contains(&input) {
                externals.push(input);
            }
        }
    }
    Some(externals)
}

/// Hash a recorded block exactly as [`crate::intern::template_fingerprint`]
/// hashes the template it factors into, without building that template:
/// suffixes are name slices past the prefix, input slots are recomputed by
/// arithmetic and a scan of the (short) external list. Runs only on a block
/// that differs from the one sealed before it.
fn block_hash(ops: &[Op], block: &OpenBlock, externals: &[OpId]) -> Fingerprint {
    let mut fp = Fingerprinter::new("block-template");
    fp.push_len(ops.len());
    fp.push_usize(externals.len());
    for op in ops {
        fp.push_str(&op.name[block.prefix_len..]);
        push_kind(&mut fp, &op.kind);
        fp.push_len(op.inputs.len());
        for &input in &op.inputs {
            if input.0 >= block.base {
                fp.push_tag(0).push_usize(input.0 - block.base);
            } else {
                let slot = externals
                    .iter()
                    .position(|&e| e == input)
                    .expect("every external producer was collected");
                fp.push_tag(1).push_usize(slot);
            }
        }
        push_tensor(&mut fp, &op.output);
        push_phase(&mut fp, op.phase);
        match op.layer {
            Some(layer) => fp.push_bool(true).push_usize(layer - block.layer_base),
            None => fp.push_bool(false),
        };
    }
    fp.finish()
}

/// Exact structural comparison of a candidate template against recorded
/// ops — the hit-path verifier behind [`intern_block_with`]'s bucket scan.
/// Equivalent to `template == build_template(ops, ...)` without allocating.
fn block_matches(
    template: &BlockTemplate,
    ops: &[Op],
    block: &OpenBlock,
    externals: &[OpId],
) -> bool {
    if template.ops.len() != ops.len() || template.external_slots != externals.len() {
        return false;
    }
    template.ops.iter().zip(ops).all(|(t, op)| {
        t.suffix == op.name[block.prefix_len..]
            && t.kind == op.kind
            && t.output == op.output
            && t.phase == op.phase
            && t.layer_rel == op.layer.map(|layer| layer - block.layer_base)
            && t.inputs.len() == op.inputs.len()
            && t.inputs
                .iter()
                .zip(&op.inputs)
                .all(|(ti, &input)| match *ti {
                    TemplateInput::Internal(p) => input.0 == block.base + p,
                    TemplateInput::External(s) => externals.get(s) == Some(&input),
                })
    })
}

/// Build the template for a block the interner has never seen (the miss
/// path: once per distinct block shape process-wide).
fn build_template(ops: &[Op], block: &OpenBlock, externals: &[OpId]) -> BlockTemplate {
    let template_ops = ops
        .iter()
        .map(|op| TemplateOp {
            suffix: op.name[block.prefix_len..].to_string(),
            kind: op.kind.clone(),
            inputs: op
                .inputs
                .iter()
                .map(|&input| {
                    if input.0 >= block.base {
                        TemplateInput::Internal(input.0 - block.base)
                    } else {
                        let slot = externals
                            .iter()
                            .position(|&e| e == input)
                            .expect("every external producer was collected");
                        TemplateInput::External(slot)
                    }
                })
                .collect(),
            output: op.output.clone(),
            phase: op.phase,
            layer_rel: op.layer.map(|layer| layer - block.layer_base),
        })
        .collect();
    BlockTemplate {
        ops: template_ops,
        external_slots: externals.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Rep;
    use crate::profile::CostProfile;

    /// The interned block of every block segment, in order.
    fn block_arcs(g: &Graph) -> Vec<Arc<InternedBlock>> {
        let Rep::Interned { segments, .. } = g.rep() else {
            return Vec::new();
        };
        segments
            .iter()
            .filter_map(|s| match s {
                Segment::Block(inst) => Some(Arc::clone(&inst.block)),
                Segment::Literal { .. } => None,
            })
            .collect()
    }

    /// One way a test block can differ from the base block.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Change {
        None,
        OpCount,
        Suffix,
        Kind,
        OutputDim,
        Phase,
        LayerOffset,
        InternalInput,
        ExternalWiring,
        InputCount,
    }

    /// Record one block under `prefix`: `/a` reads `x`, `/b` reads `/a`
    /// and `y`, `/c` reads `/b` and `x` — with `change` applied.
    fn record_block(b: &mut GraphBuilder, prefix: &str, x: OpId, y: OpId, change: Change) {
        let layer = b.layer();
        let name = |suffix: &str| [prefix, suffix].concat();
        let kind = |flops_per_elem| OpKind::Elementwise {
            elems: 64,
            flops_per_elem,
        };
        let meta = TensorMeta::f32(&[4, 16]);
        b.begin_block(prefix.len());
        let a = b
            .add(
                name("/a"),
                kind(1),
                InlineList::from_slice(&[x]),
                meta.clone(),
                Phase::Forward,
                Some(layer),
            )
            .unwrap();
        let mid = b
            .add(
                name(if change == Change::Suffix { "/B" } else { "/b" }),
                kind(if change == Change::Kind { 2 } else { 1 }),
                InlineList::from_slice(&[a, y]),
                if change == Change::OutputDim {
                    TensorMeta::f32(&[4, 17])
                } else {
                    meta.clone()
                },
                if change == Change::Phase {
                    Phase::Backward
                } else {
                    Phase::Forward
                },
                Some(layer),
            )
            .unwrap();
        let last_inputs: &[OpId] = match change {
            Change::InternalInput => &[a, x],
            Change::ExternalWiring => &[mid, y],
            Change::InputCount => &[mid, x, x],
            _ => &[mid, x],
        };
        let last = b
            .add(
                name("/c"),
                kind(1),
                InlineList::from_slice(last_inputs),
                meta.clone(),
                Phase::Forward,
                Some(layer + usize::from(change == Change::LayerOffset)),
            )
            .unwrap();
        if change == Change::OpCount {
            b.add(
                name("/d"),
                kind(1),
                InlineList::from_slice(&[last]),
                meta,
                Phase::Forward,
                Some(layer),
            )
            .unwrap();
        }
        b.end_block();
    }

    fn builder_with_externals(name: &str) -> (GraphBuilder, OpId, OpId) {
        let mut b = GraphBuilder::with_interning(name, true);
        let x = b.input("x", &[4, 16]).unwrap();
        let y = b.input("y", &[4, 16]).unwrap();
        (b, x, y)
    }

    #[test]
    fn a_block_that_differs_from_the_one_before_gets_its_own_template() {
        for change in [
            Change::OpCount,
            Change::Suffix,
            Change::Kind,
            Change::OutputDim,
            Change::Phase,
            Change::LayerOffset,
            Change::InternalInput,
            Change::ExternalWiring,
            Change::InputCount,
        ] {
            let (mut b, x, y) = builder_with_externals("changes");
            record_block(&mut b, "base", x, y, Change::None);
            record_block(&mut b, "same.0", x, y, Change::None);
            record_block(&mut b, "changed", x, y, change);
            let blocks = block_arcs(&b.finish());
            assert_eq!(blocks.len(), 3, "{change:?}");
            assert!(Arc::ptr_eq(&blocks[0], &blocks[1]), "{change:?}");
            assert!(!Arc::ptr_eq(&blocks[1], &blocks[2]), "{change:?}");
        }
    }

    #[test]
    fn a_block_equal_to_an_earlier_one_gets_the_earlier_arc() {
        // A, B, A: the third block misses the block before it (B) and is
        // found in the interner's table.
        let (mut b, x, y) = builder_with_externals("aba");
        record_block(&mut b, "a.0", x, y, Change::None);
        record_block(&mut b, "b", x, y, Change::Kind);
        record_block(&mut b, "a.1", x, y, Change::None);
        let blocks = block_arcs(&b.finish());
        assert!(!Arc::ptr_eq(&blocks[0], &blocks[1]));
        assert!(!Arc::ptr_eq(&blocks[1], &blocks[2]));
        assert!(Arc::ptr_eq(&blocks[0], &blocks[2]));
    }

    #[test]
    fn block_matches_checks_the_external_slot_count() {
        // A template the builder builds references every one of its
        // slots, so only a hand-built one can differ in the count alone.
        let (mut b, x, y) = builder_with_externals("slots");
        let base = b.graph_len();
        record_block(&mut b, "blk", x, y, Change::None);
        let block = OpenBlock {
            prefix_len: "blk".len(),
            base,
            layer_base: b.layer(),
        };
        let ops = &b.ops[base..];
        let externals = block_externals(ops, &block).unwrap();
        let template = build_template(ops, &block, &externals);
        assert!(block_matches(&template, ops, &block, &externals));
        let wider = BlockTemplate {
            external_slots: template.external_slots + 1,
            ..template
        };
        assert!(!block_matches(&wider, ops, &block, &externals));
    }

    #[test]
    fn encoder_layer_parameter_count() {
        // One transformer layer at h=1024, ff=4096:
        // attn: qkv 1024·3072 + out 1024·1024 (+biases) ≈ 4.20 M
        // ffn: 2·1024·4096 (+biases) ≈ 8.39 M
        // layer norms: 2·2·1024.
        let mut b = GraphBuilder::new("one_layer");
        let x = b.input("x", &[4, 128, 1024]).unwrap();
        b.encoder_layer("enc0", x, 4, 128, 1024, 16, 4096).unwrap();
        let g = b.finish();
        let params = g.total_params() as f64;
        assert!(
            (12.5e6..13.0e6).contains(&params),
            "per-layer params = {params}"
        );
    }

    #[test]
    fn decoder_layer_has_more_params_than_encoder() {
        let mut b = GraphBuilder::new("enc");
        let x = b.input("x", &[2, 64, 512]).unwrap();
        b.encoder_layer("e", x, 2, 64, 512, 8, 2048).unwrap();
        let enc = b.finish().total_params();

        let mut b = GraphBuilder::new("dec");
        let x = b.input("x", &[2, 64, 512]).unwrap();
        let m = b.input("m", &[2, 64, 512]).unwrap();
        b.decoder_layer("d", x, m, 2, 64, 64, 512, 8, 2048).unwrap();
        let dec = b.finish().total_params();
        assert!(dec > enc);
    }

    #[test]
    fn layer_counter_advances() {
        let mut b = GraphBuilder::new("layers");
        let x = b.input("x", &[2, 16, 64]).unwrap();
        assert_eq!(b.layer(), 0);
        let h = b.encoder_layer("l0", x, 2, 16, 64, 4, 256).unwrap();
        assert_eq!(b.layer(), 1);
        b.encoder_layer("l1", h, 2, 16, 64, 4, 256).unwrap();
        assert_eq!(b.layer(), 2);
        let g = b.finish();
        assert_eq!(g.per_layer_costs().len(), 2);
    }

    #[test]
    fn moe_layer_profile() {
        let mut b = GraphBuilder::new("moe");
        let x = b.input("x", &[2, 64, 1024]).unwrap();
        b.moe_encoder_layer("l0", x, 2, 64, 1024, 16, 4096, 512, 2)
            .unwrap();
        let g = b.finish();
        let p = CostProfile::from_graph(&g, 2);
        // Expert weights dominate: 512·2·1024·4096 ≈ 4.3 B params.
        assert!(p.param_count > 4_000_000_000);
        // But FLOPs stay modest (top-2 routing).
        assert!(p.forward_flops(2) < 1e13);
    }

    #[test]
    fn identical_layers_share_one_interned_block() {
        let mut b = GraphBuilder::new("shared");
        let x = b.input("x", &[2, 16, 64]).unwrap();
        let h = b.encoder_layer("enc.0", x, 2, 16, 64, 4, 256).unwrap();
        b.encoder_layer("enc.1", h, 2, 16, 64, 4, 256).unwrap();
        let g = b.finish();
        assert_eq!(g.block_count(), 2);
        // Both layers resolve to the same per-layer cost — and the flat
        // view reconstructs distinct names and contiguous ids.
        let names: Vec<&str> = g.ops().iter().map(|op| op.name.as_str()).collect();
        assert!(names.contains(&"enc.0/attn/qkv"));
        assert!(names.contains(&"enc.1/attn/qkv"));
        assert!(g.ops().iter().enumerate().all(|(i, op)| op.id.0 == i));
        assert_eq!(g.per_layer_costs().len(), 2);
    }

    #[test]
    fn non_layer_ops_stay_literal() {
        let mut b = GraphBuilder::new("mixed");
        let x = b.input("x", &[2, 16]).unwrap();
        let e = b.embedding("embed", x, 100, 64, 2, 16).unwrap();
        let h = b.encoder_layer("enc.0", e, 2, 16, 64, 4, 256).unwrap();
        b.cross_entropy("loss", h, 2, 100).unwrap();
        let g = b.finish();
        assert_eq!(g.block_count(), 1);
        assert_eq!(g.ops().first().unwrap().name, "x");
        assert_eq!(g.ops().last().unwrap().name, "loss");
    }
}
