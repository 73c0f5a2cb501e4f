//! GPT-style decoder-only language models (Brown et al. \[8\]) — the dense
//! giant-model family whose trillion-parameter variant \[28\] motivates
//! hybrid parallelism.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphError};

/// Decoder-only transformer configuration.
#[derive(Debug, Clone, Copy)]
pub struct GptConfig {
    /// Decoder layers.
    pub layers: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN intermediate size (4× hidden for the GPT family).
    pub intermediate: usize,
    /// BPE vocabulary size.
    pub vocab: usize,
}

impl GptConfig {
    /// GPT-2 XL: 48 layers, hidden 1600 (~1.5 B params).
    pub fn gpt2_xl() -> GptConfig {
        GptConfig {
            layers: 48,
            hidden: 1600,
            heads: 25,
            intermediate: 6400,
            vocab: 50257,
        }
    }

    /// Closed-form parameter estimate: `12·L·h² + V·h`.
    pub fn analytic_params(&self) -> u64 {
        let h = self.hidden as u64;
        let l = self.layers as u64;
        12 * l * h * h + self.vocab as u64 * h
    }
}

/// Build a GPT causal-LM training graph.
pub fn gpt(config: GptConfig, batch: usize, seq: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("gpt");
    let tokens = b.input("tokens", &[batch, seq])?;
    let mut h = b.embedding("embed", tokens, config.vocab, config.hidden, batch, seq)?;
    b.next_layer();
    for i in 0..config.layers {
        // A decoder block without cross-attention is structurally an
        // encoder block with causal masking (same cost).
        h = b.encoder_layer(
            &format!("decoder.{i}"),
            h,
            batch,
            seq,
            config.hidden,
            config.heads,
            config.intermediate,
        )?;
    }
    let logits = b.dense("lm_head", h, batch * seq, config.hidden, config.vocab)?;
    b.cross_entropy("loss", logits, batch * seq, config.vocab)?;
    Ok(b.finish())
}

/// GPT-2 XL at the given batch and sequence length.
///
/// # Examples
///
/// ```
/// let g = whale_graph::models::gpt2_xl(1, 256).unwrap();
/// assert!((g.total_params() as f64) > 1.3e9);
/// ```
pub fn gpt2_xl(batch: usize, seq: usize) -> Result<Graph, GraphError> {
    gpt(GptConfig::gpt2_xl(), batch, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_xl_parameter_count() {
        let g = gpt2_xl(1, 128).unwrap();
        let p = g.total_params() as f64;
        // Published GPT-2 XL: 1.56 B.
        assert!((1.3e9..1.8e9).contains(&p), "params = {p}");
        // Built graph tracks the closed form within 10%.
        let analytic = GptConfig::gpt2_xl().analytic_params() as f64;
        assert!((p - analytic).abs() / analytic < 0.1);
    }

    #[test]
    fn flops_dominated_by_matmuls() {
        // Forward FLOPs per token ≈ 2·params for a dense LM.
        let cfg = GptConfig::gpt2_xl();
        let seq = 128;
        let g = gpt(cfg, 1, seq).unwrap();
        let per_token = g.total_forward_flops() / seq as f64;
        let two_n = 2.0 * cfg.analytic_params() as f64;
        let ratio = per_token / two_n;
        assert!((0.8..1.6).contains(&ratio), "ratio = {ratio}");
    }
}
