//! GNMT (Wu et al. \[42\]) — the recurrent seq2seq workload of Fig. 17.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphError};

/// GNMT configuration (defaults follow the published 8+8-layer system).
#[derive(Debug, Clone, Copy)]
pub struct GnmtConfig {
    /// Encoder LSTM layers.
    pub encoder_layers: usize,
    /// Decoder LSTM layers.
    pub decoder_layers: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Vocabulary size (shared source/target WPM).
    pub vocab: usize,
}

impl GnmtConfig {
    /// The published GNMT: 8 encoder + 8 decoder layers, hidden 1024,
    /// 32 k WPM vocabulary.
    pub fn standard() -> GnmtConfig {
        GnmtConfig {
            encoder_layers: 8,
            decoder_layers: 8,
            hidden: 1024,
            vocab: 32_000,
        }
    }
}

/// Build a GNMT training graph at the given batch and sequence length.
pub fn gnmt_with_config(config: GnmtConfig, batch: usize, seq: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("gnmt");
    let h = config.hidden;

    let src = b.input("src_tokens", &[batch, seq])?;
    let mut enc = b.embedding("src_embed", src, config.vocab, h, batch, seq)?;
    b.next_layer();
    for i in 0..config.encoder_layers {
        enc = b.lstm(format!("encoder.{i}"), enc, seq, batch, h, h)?;
    }

    let tgt = b.input("tgt_tokens", &[batch, seq])?;
    let mut dec = b.embedding("tgt_embed", tgt, config.vocab, h, batch, seq)?;
    b.next_layer();
    for i in 0..config.decoder_layers {
        dec = b.lstm(format!("decoder.{i}"), dec, seq, batch, h, h)?;
        if i == 0 {
            // Bahdanau-style attention over encoder states after the first
            // decoder layer.
            let scores = b.matmul(
                "attention/scores",
                dec,
                enc,
                batch * seq,
                h,
                seq,
                &[batch, seq, seq],
            )?;
            let probs = b.softmax("attention/probs", scores)?;
            let ctx = b.matmul(
                "attention/context",
                probs,
                enc,
                batch * seq,
                seq,
                h,
                &[batch, seq, h],
            )?;
            dec = b.elementwise("attention/combine", [dec, ctx], 1)?;
        }
    }
    let logits = b.dense("projection", dec, batch * seq, h, config.vocab)?;
    b.cross_entropy("loss", logits, batch * seq, config.vocab)?;
    Ok(b.finish())
}

/// Standard GNMT at the given batch and sequence length.
///
/// # Examples
///
/// ```
/// let g = whale_graph::models::gnmt(16, 50).unwrap();
/// assert!((g.total_params() as f64) > 200e6);
/// ```
pub fn gnmt(batch: usize, seq: usize) -> Result<Graph, GraphError> {
    gnmt_with_config(GnmtConfig::standard(), batch, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnmt_parameter_count() {
        let g = gnmt(1, 50).unwrap();
        let p = g.total_params() as f64;
        // Two 32 k embeddings (66 M) + 16 LSTM layers (~134 M) + 33 M
        // projection ≈ 230 M; published GNMT is ~278 M with its deeper
        // bidirectional encoder. Accept 200–300 M.
        assert!((200e6..300e6).contains(&p), "params = {p}");
    }

    #[test]
    fn flops_scale_with_sequence() {
        let short = gnmt(4, 25).unwrap().total_forward_flops();
        let long = gnmt(4, 50).unwrap().total_forward_flops();
        let ratio = long / short;
        assert!(ratio > 1.8 && ratio < 2.6, "ratio = {ratio}");
    }

    #[test]
    fn has_encoder_and_decoder_layers() {
        let g = gnmt(2, 30).unwrap();
        let enc = g
            .ops()
            .iter()
            .filter(|o| o.name.starts_with("encoder."))
            .count();
        let dec = g
            .ops()
            .iter()
            .filter(|o| o.name.starts_with("decoder."))
            .count();
        assert_eq!(enc, 8);
        assert_eq!(dec, 8);
    }
}
