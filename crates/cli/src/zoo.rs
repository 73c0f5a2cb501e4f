//! Model registry mapping CLI names to zoo builders.

use whale::models;
use whale_graph::Graph;

/// Known models: `(name, description)`.
pub const MODELS: &[(&str, &str)] = &[
    ("resnet50", "ResNet-50 image classifier (~25M params)"),
    (
        "imagenet100k",
        "ResNet-50 + 100,000-class FC (Fig. 4 motivation)",
    ),
    ("bert-base", "BERT-Base encoder (~110M params)"),
    ("bert-large", "BERT-Large encoder (~340M params)"),
    ("gnmt", "GNMT 8+8-layer LSTM seq2seq (~230M params)"),
    ("t5-large", "T5-Large encoder-decoder (~740M params)"),
    ("vit-large", "ViT-Large/16 (~300M params)"),
    ("gpt2-xl", "GPT-2 XL decoder-only LM (~1.5B params)"),
    ("m6-10b", "M6-10B multimodal encoder-decoder (§5.1)"),
    ("m6-tiny", "shrunken M6 for fast experiments"),
    ("m6-moe-100b", "M6-MoE-100B sparse-expert model (Table 1)"),
    ("m6-moe-1t", "M6-MoE-1T sparse-expert model (Table 1)"),
    (
        "m6-moe-1t-deep",
        "depth-dominated ~1T MoE (1024 thin layers; compile stress case)",
    ),
    ("moe-tiny", "shrunken MoE for fast experiments"),
];

/// Build a model by CLI name at `batch` samples with `seq` tokens (ignored
/// by vision models).
pub fn build(name: &str, batch: usize, seq: usize) -> Result<Graph, String> {
    let g = match name {
        "resnet50" => models::resnet50(batch),
        "imagenet100k" => models::imagenet_100k(batch),
        "bert-base" => models::bert_base(batch, seq),
        "bert-large" => models::bert_large(batch, seq),
        "gnmt" => models::gnmt(batch, seq.min(200)),
        "t5-large" => models::t5_large(batch, seq, seq),
        "vit-large" => models::vit_large(batch),
        "gpt2-xl" => models::gpt2_xl(batch, seq),
        "m6-10b" => models::m6_10b(batch),
        "m6-tiny" => models::m6(models::M6Config::tiny(), batch),
        "m6-moe-100b" => models::m6_moe_100b(batch),
        "m6-moe-1t" => models::m6_moe_1t(batch),
        "m6-moe-1t-deep" => models::m6_moe_1t_deep(batch),
        "moe-tiny" => models::m6_moe(models::MoeConfig::tiny(), batch),
        other => {
            return Err(format!(
                "unknown model '{other}'; run `whale-cli models` for the list"
            ))
        }
    };
    g.map_err(|e| format!("building {name}: {e}"))
}

/// Whether the model is a mixture-of-experts (selects the MoE strategy).
pub fn is_moe(name: &str) -> bool {
    name.contains("moe")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_model_builds() {
        for (name, _) in MODELS {
            // Tiny batch/seq keeps this fast even for the 1T model.
            let g = build(name, 1, 32).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.len() > 1, "{name} produced an empty graph");
        }
    }

    #[test]
    fn a_batch_whose_tensors_overflow_64_bits_is_refused() {
        // This build is unoptimized, so an unchecked product that
        // overflowed on the way to the refusal would panic here.
        for batch in [1 << 62, 1 << 52] {
            for (name, _) in MODELS {
                let err = build(name, batch, 128).expect_err(name);
                assert!(
                    err.starts_with(&format!("building {name}: op '"))
                        && err.ends_with("overflows 64 bits of bytes"),
                    "{name} at batch {batch}: {err}"
                );
            }
        }
    }

    #[test]
    fn unknown_model_is_a_clear_error() {
        let err = build("alexnet", 1, 32).unwrap_err();
        assert!(err.contains("alexnet"));
    }

    #[test]
    fn moe_detection() {
        assert!(is_moe("m6-moe-100b"));
        assert!(!is_moe("m6-10b"));
    }
}
