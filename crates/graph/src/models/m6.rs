//! M6 (Lin et al. \[23\]) — the Chinese multimodal pretrainer the paper scales.
//!
//! M6-10B (§5.1) takes a visual input of length 16 and a linguistic input of
//! length 512 over a 21128-token vocabulary, with 24 encoder and 24 decoder
//! layers. The paper does not publish the hidden size; we use hidden 4096
//! with FFN 12288 (3×), which lands the dense model at ≈10 B parameters as
//! §5.1 states.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphError};

/// Dense M6 configuration.
#[derive(Debug, Clone, Copy)]
pub struct M6Config {
    /// Encoder layers.
    pub encoder_layers: usize,
    /// Decoder layers.
    pub decoder_layers: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN intermediate size.
    pub intermediate: usize,
    /// Vocabulary size (§5.1: 21128).
    pub vocab: usize,
    /// Visual-token sequence length (§5.1: 16).
    pub visual_len: usize,
    /// Linguistic sequence length (§5.1: 512).
    pub text_len: usize,
}

impl M6Config {
    /// M6-10B: 24+24 layers at hidden 4096 ⇒ ≈10 B parameters.
    pub fn m6_10b() -> M6Config {
        M6Config {
            encoder_layers: 24,
            decoder_layers: 24,
            hidden: 4096,
            heads: 32,
            intermediate: 12288,
            vocab: 21128,
            visual_len: 16,
            text_len: 512,
        }
    }

    /// A scaled-down M6 for fast tests (two layers, hidden 512).
    pub fn tiny() -> M6Config {
        M6Config {
            encoder_layers: 2,
            decoder_layers: 2,
            hidden: 512,
            heads: 8,
            intermediate: 2048,
            vocab: 21128,
            visual_len: 16,
            text_len: 64,
        }
    }

    /// Combined encoder sequence length (visual + linguistic tokens).
    pub fn encoder_seq(&self) -> usize {
        self.visual_len + self.text_len
    }
}

/// Build an M6 training graph at the given batch size.
pub fn m6(config: M6Config, batch: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("m6");
    let seq = config.encoder_seq();
    let h = config.hidden;

    // Visual patches enter via a linear projection; text via the embedding.
    let image = b.input("image_patches", &[batch, config.visual_len, 2048])?;
    let vis = b.dense("visual_proj", image, batch * config.visual_len, 2048, h)?;
    let text = b.input("text_tokens", &[batch, config.text_len])?;
    let txt = b.embedding("text_embed", text, config.vocab, h, batch, config.text_len)?;
    // Concatenate modalities along the sequence dimension.
    let mut enc = b.op(
        "concat_modalities",
        crate::op::OpKind::Elementwise {
            elems: (batch * seq * h) as u64,
            flops_per_elem: 1,
        },
        [vis, txt],
        crate::tensor::TensorMeta::f32(&[batch, seq, h]),
    )?;
    b.next_layer();

    for i in 0..config.encoder_layers {
        enc = b.encoder_layer(
            &format!("encoder.{i}"),
            enc,
            batch,
            seq,
            h,
            config.heads,
            config.intermediate,
        )?;
    }
    let tgt = b.input("target_tokens", &[batch, config.text_len])?;
    let mut dec = b.embedding("tgt_embed", tgt, config.vocab, h, batch, config.text_len)?;
    b.next_layer();
    for i in 0..config.decoder_layers {
        dec = b.decoder_layer(
            &format!("decoder.{i}"),
            dec,
            enc,
            batch,
            config.text_len,
            seq,
            h,
            config.heads,
            config.intermediate,
        )?;
    }
    let logits = b.dense("lm_head", dec, batch * config.text_len, h, config.vocab)?;
    b.cross_entropy("loss", logits, batch * config.text_len, config.vocab)?;
    Ok(b.finish())
}

/// M6-10B at the given batch size (§5.1's Fig. 14 workload).
///
/// # Examples
///
/// ```
/// let g = whale_graph::models::m6_10b(1).unwrap();
/// assert!((g.total_params() as f64) > 9e9);
/// ```
pub fn m6_10b(batch: usize) -> Result<Graph, GraphError> {
    m6(M6Config::m6_10b(), batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m6_10b_hits_ten_billion_parameters() {
        let g = m6_10b(1).unwrap();
        let p = g.total_params() as f64;
        assert!((9e9..11.5e9).contains(&p), "params = {p}");
    }

    #[test]
    fn tiny_m6_builds_fast_and_small() {
        let g = m6(M6Config::tiny(), 2).unwrap();
        assert!(g.len() < 200);
        assert!(g.total_params() < 100_000_000);
    }

    #[test]
    fn layers_cover_encoder_and_decoder() {
        let g = m6(M6Config::tiny(), 1).unwrap();
        // input layer + 2 encoder + embed layer + 2 decoder (+ head).
        assert!(g.per_layer_costs().len() >= 5);
    }

    #[test]
    fn multimodal_inputs_present() {
        let g = m6(M6Config::tiny(), 1).unwrap();
        let names: Vec<&str> = g.ops().iter().map(|o| o.name.as_str()).collect();
        assert!(names.contains(&"image_patches"));
        assert!(names.contains(&"text_tokens"));
        assert!(names.contains(&"target_tokens"));
    }
}
