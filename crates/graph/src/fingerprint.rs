//! Content fingerprints for graphs and training configs.
//!
//! The staged compile pipeline caches plans keyed on `(model, cluster,
//! config)`; this module contributes the model side. A fingerprint covers
//! everything the planner reads: op kinds with all cost attributes, the
//! dependency structure, tensor metadata, phases, and layer indices. Two
//! graphs hash equal iff the planner cannot distinguish them; changing one
//! op's shape or one matmul dimension changes the fingerprint.
//!
//! # Incremental composition
//!
//! The graph fingerprint is the wrapping sum of independent per-op content
//! hashes (each covering the op's id, so position is pinned and two ops can
//! never trade places unnoticed), folded into one final FNV pass together
//! with the graph name and length. Summation makes the fingerprint
//! *composable*: an interned graph adds up per-segment subtotals, where
//! each block instantiation's subtotal is memoized
//! ([`crate::intern::BlockInst::content_sum`]) and computed without
//! materializing the ops. Re-fingerprinting after a single-block edit
//! ([`crate::graph::Graph::with_block_replaced`]) therefore re-hashes only
//! the touched block — and the result is bit-identical to fingerprinting
//! the same ops stored flat, so interned and uninterned builds of one model
//! share cache keys.

use whale_fp::{Fingerprint, Fingerprinter};

use crate::graph::{Graph, Op, Rep, Segment};
use crate::op::{OpKind, Phase};
use crate::profile::TrainingConfig;
use crate::tensor::{DType, TensorMeta};

pub(crate) fn push_phase(fp: &mut Fingerprinter, phase: Phase) {
    fp.push_tag(match phase {
        Phase::Forward => 0,
        Phase::Backward => 1,
        Phase::Optimizer => 2,
        Phase::Other => 3,
    });
}

pub(crate) fn push_tensor(fp: &mut Fingerprinter, t: &TensorMeta) {
    let dims = t.shape.dims();
    fp.push_len(dims.len());
    for &d in dims {
        fp.push_usize(d);
    }
    // Explicit match (not `as u8`) so reordering the enum cannot silently
    // re-key the cache — and no per-op string allocation on the hot path.
    fp.push_tag(match t.dtype {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::BF16 => 2,
        DType::I32 => 3,
        DType::I64 => 4,
        DType::Bool => 5,
    });
}

pub(crate) fn push_kind(fp: &mut Fingerprinter, kind: &OpKind) {
    match *kind {
        OpKind::Input => {
            fp.push_tag(0);
        }
        OpKind::MatMul {
            m,
            k,
            n,
            has_params,
        } => {
            fp.push_tag(1)
                .push_usize(m)
                .push_usize(k)
                .push_usize(n)
                .push_bool(has_params);
        }
        OpKind::Conv2d {
            batch,
            in_c,
            out_c,
            kernel: (kh, kw),
            out_hw: (oh, ow),
        } => {
            fp.push_tag(2)
                .push_usize(batch)
                .push_usize(in_c)
                .push_usize(out_c)
                .push_usize(kh)
                .push_usize(kw)
                .push_usize(oh)
                .push_usize(ow);
        }
        OpKind::Embedding { vocab, dim, tokens } => {
            fp.push_tag(3)
                .push_usize(vocab)
                .push_usize(dim)
                .push_usize(tokens);
        }
        OpKind::LayerNorm { elems, dim } => {
            fp.push_tag(4).push_u64(elems).push_usize(dim);
        }
        OpKind::Softmax { elems } => {
            fp.push_tag(5).push_u64(elems);
        }
        OpKind::Elementwise {
            elems,
            flops_per_elem,
        } => {
            fp.push_tag(6)
                .push_u64(elems)
                .push_u64(flops_per_elem as u64);
        }
        OpKind::Pool { elems } => {
            fp.push_tag(7).push_u64(elems);
        }
        OpKind::Lstm {
            seq,
            batch,
            input_dim,
            hidden,
        } => {
            fp.push_tag(8)
                .push_usize(seq)
                .push_usize(batch)
                .push_usize(input_dim)
                .push_usize(hidden);
        }
        OpKind::CrossEntropy { batch, classes } => {
            fp.push_tag(9).push_usize(batch).push_usize(classes);
        }
        OpKind::MoeFfn {
            tokens,
            hidden,
            intermediate,
            experts,
            top_k,
        } => {
            fp.push_tag(10)
                .push_usize(tokens)
                .push_usize(hidden)
                .push_usize(intermediate)
                .push_usize(experts)
                .push_usize(top_k);
        }
        OpKind::Gating {
            tokens,
            hidden,
            experts,
        } => {
            fp.push_tag(11)
                .push_usize(tokens)
                .push_usize(hidden)
                .push_usize(experts);
        }
        OpKind::Synthetic { flops, params } => {
            fp.push_tag(12).push_f64(flops).push_u64(params);
        }
    }
}

/// Content hash of one op. [`crate::intern::BlockInst::content_sum`] must
/// produce byte-identical pushes for instantiated template ops — that
/// equivalence is what makes the fingerprint representation-independent
/// (and is pinned by the `interned_and_flat_fingerprints_agree` test).
fn op_content_hash(op: &Op) -> u64 {
    let mut fp = Fingerprinter::new("graph-op");
    fp.push_usize(op.id.0);
    fp.push_str(&op.name);
    push_kind(&mut fp, &op.kind);
    fp.push_len(op.inputs.len());
    for input in &op.inputs {
        fp.push_usize(input.0);
    }
    push_tensor(&mut fp, &op.output);
    push_phase(&mut fp, op.phase);
    match op.layer {
        Some(layer) => fp.push_bool(true).push_usize(layer),
        None => fp.push_bool(false),
    };
    fp.finish().0
}

fn ops_content_sum(ops: &[Op]) -> u64 {
    ops.iter()
        .map(op_content_hash)
        .fold(0u64, u64::wrapping_add)
}

impl Graph {
    /// Stable content fingerprint over everything the planner reads from the
    /// graph: name, op kinds with all cost attributes, dependency edges,
    /// output tensors, phases, and layer indices.
    ///
    /// Representation-independent (interned and flat builds of the same ops
    /// agree) and subgraph-incremental: interned graphs reuse memoized
    /// per-block subtotals, so the first fingerprint of a one-block-edited
    /// graph does not re-walk the untouched blocks. The result is memoized
    /// per graph value: clones share it and [`Graph::add_op`] clears it, so
    /// every later call on the same graph is a load.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint_memo().get_or_init(|| {
            let sum = match self.rep() {
                Rep::Flat(ops) => ops_content_sum(ops),
                Rep::Interned { segments, flat } => segments
                    .iter()
                    .map(|segment| match segment {
                        Segment::Literal { start, len } => {
                            ops_content_sum(&flat[*start..start + len])
                        }
                        Segment::Block(inst) => {
                            inst.content_sum(&flat[inst.base].name[..inst.prefix_len])
                        }
                    })
                    .fold(0u64, u64::wrapping_add),
            };
            let mut fp = Fingerprinter::new("whale-graph");
            fp.push_str(self.name());
            fp.push_len(self.len());
            fp.push_u64(sum);
            fp.finish()
        })
    }
}

impl TrainingConfig {
    /// Stable content fingerprint over every training option the planner's
    /// memory and communication models consume.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("training-config");
        fp.push_tag(self.optimizer as u8)
            .push_bool(self.amp)
            .push_bool(self.recompute)
            .push_tag(self.zero as u8)
            .push_bool(self.offload)
            .push_usize(self.dp_shards);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::models;
    use crate::profile::{Optimizer, ZeroStage};

    fn encoder(name: &str, layers: usize, intermediate: usize, interned: bool) -> Graph {
        let mut b = GraphBuilder::with_interning(name, interned);
        let mut h = b.input("x", &[2, 16, 64]).unwrap();
        for i in 0..layers {
            h = b
                .encoder_layer(&format!("enc.{i}"), h, 2, 16, 64, 4, intermediate)
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn same_model_built_twice_hashes_identically() {
        let a = models::bert_base(8, 64).unwrap();
        let b = models::bert_base(8, 64).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shape_change_changes_fingerprint() {
        let a = models::bert_base(8, 64).unwrap();
        let b = models::bert_base(8, 128).unwrap();
        let c = models::bert_base(16, 64).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint(), "sequence length");
        assert_ne!(a.fingerprint(), c.fingerprint(), "batch size");
    }

    #[test]
    fn different_models_differ() {
        let a = models::resnet50(8).unwrap();
        let b = models::bert_base(8, 64).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn interned_and_flat_fingerprints_agree() {
        let interned = encoder("enc", 4, 256, true);
        let flat = encoder("enc", 4, 256, false);
        assert!(interned.block_count() > 0 && flat.block_count() == 0);
        assert_eq!(interned.fingerprint(), flat.fingerprint());
        assert_ne!(
            interned.fingerprint(),
            encoder("enc", 4, 512, true).fingerprint()
        );
    }

    #[test]
    fn single_block_edit_changes_fingerprint_incrementally() {
        let g = encoder("enc", 6, 256, true);
        let first = g.fingerprint();
        assert_eq!(g.clone().fingerprint(), first);

        // Splicing one edited layer changes the fingerprint, and the
        // incremental result matches a from-scratch flat hash of the
        // edited ops (the counter-exact "only one block re-hashed"
        // assertions live in tests/interning.rs, where the process is not
        // shared with unrelated concurrent tests).
        let donor = encoder("donor", 1, 512, true);
        let edited = g.with_block_replaced(3, &donor, 0).unwrap();
        let efp = edited.fingerprint();
        assert_ne!(efp, first);
        let reference = Graph::from_flat("enc".into(), edited.ops().to_vec());
        assert_eq!(efp, reference.fingerprint());
    }

    #[test]
    fn training_config_field_sensitivity() {
        let base = TrainingConfig::default();
        assert_eq!(base.fingerprint(), TrainingConfig::default().fingerprint());
        let variants = [
            TrainingConfig {
                optimizer: Optimizer::Sgd,
                ..base
            },
            TrainingConfig { amp: true, ..base },
            TrainingConfig {
                recompute: true,
                ..base
            },
            TrainingConfig {
                zero: ZeroStage::Parameters,
                ..base
            },
            TrainingConfig {
                offload: true,
                ..base
            },
            TrainingConfig {
                dp_shards: 8,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }
}
