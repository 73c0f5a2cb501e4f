//! M6-MoE (Yang et al. \[45\]) — the sparse-expert model scaled to 100 B and
//! 1 T parameters in §5.2, with the exact Table 1 configurations.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphError};

/// M6-MoE configuration (Table 1 fields plus structural constants).
#[derive(Debug, Clone, Copy)]
pub struct MoeConfig {
    /// Encoder layers (both Table 1 models use 24).
    pub layers: usize,
    /// Hidden size (Table 1: 1024).
    pub hidden: usize,
    /// Attention heads (Table 1: 16).
    pub heads: usize,
    /// Expert FFN intermediate size (Table 1: 4096 / 21248).
    pub intermediate: usize,
    /// Number of experts (Table 1: 512 / 960).
    pub experts: usize,
    /// Experts per token (Top2Gating in Example 8).
    pub top_k: usize,
    /// Vocabulary size (shared with M6: 21128).
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
}

impl MoeConfig {
    /// Table 1, column M6-MoE-100B.
    pub fn m6_moe_100b() -> MoeConfig {
        MoeConfig {
            layers: 24,
            hidden: 1024,
            heads: 16,
            intermediate: 4096,
            experts: 512,
            top_k: 2,
            vocab: 21128,
            seq: 512,
        }
    }

    /// Table 1, column M6-MoE-1T.
    pub fn m6_moe_1t() -> MoeConfig {
        MoeConfig {
            layers: 24,
            hidden: 1024,
            heads: 16,
            intermediate: 21248,
            experts: 960,
            top_k: 2,
            vocab: 21128,
            seq: 512,
        }
    }

    /// A depth-dominated trillion-parameter variant: the same ~1T budget as
    /// [`MoeConfig::m6_moe_1t`] spent on 1024 thin layers instead of 24 fat
    /// ones. Exercises the compile pipeline's scaling in *layer count* —
    /// graph construction, annotation, and fingerprinting all walk one op
    /// list per layer, so this member is the stress case for the graph core
    /// (1,024 structurally identical layers, 11,268 ops at batch 64).
    pub fn m6_moe_1t_deep() -> MoeConfig {
        MoeConfig {
            layers: 1024,
            hidden: 1024,
            heads: 16,
            intermediate: 2816,
            experts: 160,
            top_k: 2,
            vocab: 21128,
            seq: 512,
        }
    }

    /// A small configuration for tests.
    pub fn tiny() -> MoeConfig {
        MoeConfig {
            layers: 2,
            hidden: 256,
            heads: 4,
            intermediate: 512,
            experts: 8,
            top_k: 2,
            vocab: 21128,
            seq: 64,
        }
    }

    /// Closed-form parameter count (dominated by expert weights:
    /// `layers · experts · 2 · hidden · intermediate`).
    pub fn analytic_params(&self) -> u64 {
        let h = self.hidden as u64;
        let i = self.intermediate as u64;
        let e = self.experts as u64;
        let l = self.layers as u64;
        let expert = e * (2 * h * i + h + i);
        let attention = 4 * h * h + 4 * h; // QKV + output projection.
        let gating = h * e;
        let norms = 4 * h;
        l * (expert + attention + gating + norms) + self.vocab as u64 * h
    }
}

/// Build an M6-MoE training graph at the given batch size.
pub fn m6_moe(config: MoeConfig, batch: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("m6_moe");
    let tokens = b.input("tokens", &[batch, config.seq])?;
    let mut h = b.embedding(
        "embed",
        tokens,
        config.vocab,
        config.hidden,
        batch,
        config.seq,
    )?;
    b.next_layer();
    for i in 0..config.layers {
        h = b.moe_encoder_layer(
            &format!("encoder.{i}"),
            h,
            batch,
            config.seq,
            config.hidden,
            config.heads,
            config.intermediate,
            config.experts,
            config.top_k,
        )?;
    }
    let logits = b.dense(
        "lm_head",
        h,
        batch * config.seq,
        config.hidden,
        config.vocab,
    )?;
    b.cross_entropy("loss", logits, batch * config.seq, config.vocab)?;
    Ok(b.finish())
}

/// M6-MoE-100B (Table 1) at the given batch size.
pub fn m6_moe_100b(batch: usize) -> Result<Graph, GraphError> {
    m6_moe(MoeConfig::m6_moe_100b(), batch)
}

/// M6-MoE-1T (Table 1) at the given batch size.
///
/// # Examples
///
/// ```
/// use whale_graph::models::MoeConfig;
/// // Closed form avoids building the trillion-parameter graph in doctests.
/// assert!(MoeConfig::m6_moe_1t().analytic_params() > 1_000_000_000_000);
/// ```
pub fn m6_moe_1t(batch: usize) -> Result<Graph, GraphError> {
    m6_moe(MoeConfig::m6_moe_1t(), batch)
}

/// Depth-dominated ~1T-parameter MoE (1024 thin layers; see
/// [`MoeConfig::m6_moe_1t_deep`]).
///
/// # Examples
///
/// ```
/// use whale_graph::models::MoeConfig;
/// assert!(MoeConfig::m6_moe_1t_deep().analytic_params() > 900_000_000_000);
/// ```
pub fn m6_moe_1t_deep(batch: usize) -> Result<Graph, GraphError> {
    m6_moe(MoeConfig::m6_moe_1t_deep(), batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_100b_parameter_count() {
        let cfg = MoeConfig::m6_moe_100b();
        let analytic = cfg.analytic_params() as f64;
        assert!((95e9..115e9).contains(&analytic), "params = {analytic}");
        // The built graph must agree with the closed form.
        let g = m6_moe(cfg, 1).unwrap();
        let built = g.total_params() as f64;
        assert!((built - analytic).abs() / analytic < 0.01);
    }

    #[test]
    fn table1_1t_parameter_count() {
        let analytic = MoeConfig::m6_moe_1t().analytic_params() as f64;
        assert!((0.95e12..1.1e12).contains(&analytic), "params = {analytic}");
    }

    #[test]
    fn deep_1t_matches_the_trillion_budget_in_depth() {
        let cfg = MoeConfig::m6_moe_1t_deep();
        let analytic = cfg.analytic_params() as f64;
        assert!((0.9e12..1.1e12).contains(&analytic), "params = {analytic}");
        assert!(cfg.layers > 40 * MoeConfig::m6_moe_1t().layers);
    }

    #[test]
    fn scaling_100b_to_1t_is_about_10x() {
        // §5.2: "We scaled model parameters by 10 times".
        let small = MoeConfig::m6_moe_100b().analytic_params() as f64;
        let big = MoeConfig::m6_moe_1t().analytic_params() as f64;
        let ratio = big / small;
        assert!((8.5..11.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn sparse_flops_grow_much_slower_than_params() {
        let g100 = m6_moe(MoeConfig::m6_moe_100b(), 1).unwrap();
        let g1t = m6_moe(MoeConfig::m6_moe_1t(), 1).unwrap();
        let param_ratio = g1t.total_params() as f64 / g100.total_params() as f64;
        let flop_ratio = g1t.total_forward_flops() / g100.total_forward_flops();
        assert!(param_ratio > 8.0);
        // FLOPs only grow with the intermediate size (~5×), not experts.
        assert!(
            flop_ratio < param_ratio * 0.75,
            "flops {flop_ratio} vs params {param_ratio}"
        );
    }

    #[test]
    fn tiny_builds_quickly() {
        let g = m6_moe(MoeConfig::tiny(), 2).unwrap();
        assert!(g.len() < 100);
        assert!(g.total_params() < 50_000_000);
    }
}
