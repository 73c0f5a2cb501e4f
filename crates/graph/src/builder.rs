//! Convenience builder for assembling model graphs.
//!
//! Provides the layer-level vocabulary the model zoo is written in: dense
//! layers, convolutions, transformer encoder/decoder blocks, LSTM layers, and
//! MoE blocks. Every helper stamps the current layer index onto the ops it
//! emits so stage partitioning and checkpointing can see layer boundaries.
//!
//! The builder only records ops: each is pushed once, in id order, onto
//! the list that becomes the finished graph's storage. Op names are built
//! once at their exact length, and inputs and shapes are held inline, so
//! recording an op allocates only its name.

use crate::graph::{Graph, GraphError, Op, OpId, SizeTotals};
use crate::inline_list::InlineList;
use crate::op::{OpKind, Phase};
use crate::tensor::TensorMeta;

/// Stateful graph builder.
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    layer: usize,
    /// Every op, recorded exactly once in id order. This becomes the
    /// finished graph's storage verbatim.
    ops: Vec<Op>,
    /// The recorded ops' running size totals.
    totals: SizeTotals,
}

impl GraphBuilder {
    /// Start building a graph with the given name.
    pub fn new(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder {
            name: name.into(),
            layer: 0,
            ops: Vec::new(),
            totals: SizeTotals::default(),
        }
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
    pub fn finish(self) -> Graph {
        Graph::from_flat(self.name, self.ops)
    }

    fn output_of(&self, id: OpId) -> Result<&TensorMeta, GraphError> {
        self.ops
            .get(id.0)
            .map(|op| &op.output)
            .ok_or(GraphError::UnknownOp(id))
    }

    /// Record a forward op at the current layer. An op that would break
    /// the [`Graph`] size invariant is [`GraphError::OutputTooLarge`] or
    /// [`GraphError::ParamsTooLarge`].
    fn add(
        &mut self,
        name: String,
        kind: OpKind,
        inputs: InlineList<OpId>,
        output: TensorMeta,
    ) -> Result<OpId, GraphError> {
        let id = OpId(self.ops.len());
        for &input in &inputs {
            if input.0 >= id.0 {
                return Err(GraphError::DanglingInput { op: name, input });
            }
        }
        self.totals.add(&name, &kind, &output)?;
        self.ops.push(Op {
            id,
            name,
            kind,
            inputs,
            output,
            phase: Phase::Forward,
            layer: Some(self.layer),
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
        self.add(name.into(), kind, inputs.into_iter().collect(), output)
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
    /// first input. An empty input list is [`GraphError::NoInputs`].
    pub fn elementwise(
        &mut self,
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = OpId>,
        flops_per_elem: u32,
    ) -> Result<OpId, GraphError> {
        let name = name.into();
        let inputs: InlineList<OpId> = inputs.into_iter().collect();
        let Some(&first) = inputs.first() else {
            return Err(GraphError::NoInputs { op: name });
        };
        let meta = self.output_of(first)?.clone();
        let elems = meta.shape.num_elements();
        self.add(
            name,
            OpKind::Elementwise {
                elems,
                flops_per_elem,
            },
            inputs,
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
    /// layer; bumps the layer counter.
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
    }

    /// Full transformer decoder layer (self-attention + cross-attention +
    /// FFN); bumps the layer counter.
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
    }

    /// MoE encoder layer: self-attention followed by gating + expert FFN
    /// (paper Fig. 15 / Example 8); bumps the layer counter.
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
    }

    /// LSTM layer as a single composite op; bumps the layer counter.
    pub fn lstm(
        &mut self,
        name: impl Into<String>,
        input: OpId,
        seq: usize,
        batch: usize,
        input_dim: usize,
        hidden: usize,
    ) -> Result<OpId, GraphError> {
        let out = self.op(
            name,
            OpKind::Lstm {
                seq,
                batch,
                input_dim,
                hidden,
            },
            [input],
            TensorMeta::f32(&[batch, seq, hidden]),
        )?;
        self.next_layer();
        Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CostProfile;

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
    fn elementwise_without_inputs_is_a_typed_error() {
        let mut b = GraphBuilder::new("empty");
        b.input("x", &[2, 16]).unwrap();
        let err = b.elementwise("add", [], 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::NoInputs {
                op: "add".to_string()
            }
        );
        assert_eq!(err.to_string(), "op 'add' needs at least one input");
        assert_eq!(b.graph_len(), 1, "a refused op is not recorded");
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
    fn identical_layers_keep_distinct_names_and_dense_ids() {
        let mut b = GraphBuilder::new("shared");
        let x = b.input("x", &[2, 16, 64]).unwrap();
        let h = b.encoder_layer("enc.0", x, 2, 16, 64, 4, 256).unwrap();
        b.encoder_layer("enc.1", h, 2, 16, 64, 4, 256).unwrap();
        let g = b.finish();
        let names: Vec<&str> = g.ops().iter().map(|op| op.name.as_str()).collect();
        assert!(names.contains(&"enc.0/attn/qkv"));
        assert!(names.contains(&"enc.1/attn/qkv"));
        assert!(g.ops().iter().enumerate().all(|(i, op)| op.id.0 == i));
        assert_eq!(g.per_layer_costs().len(), 2);
    }

    #[test]
    fn non_layer_ops_keep_their_place() {
        let mut b = GraphBuilder::new("mixed");
        let x = b.input("x", &[2, 16]).unwrap();
        let e = b.embedding("embed", x, 100, 64, 2, 16).unwrap();
        let h = b.encoder_layer("enc.0", e, 2, 16, 64, 4, 256).unwrap();
        b.cross_entropy("loss", h, 2, 100).unwrap();
        let g = b.finish();
        assert_eq!(g.ops().first().unwrap().name, "x");
        assert_eq!(g.ops().last().unwrap().name, "loss");
    }
}
