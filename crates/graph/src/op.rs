//! Operations with analytic FLOP and parameter cost functions.
//!
//! Each graph node carries an [`OpKind`] describing its semantics with enough
//! detail to compute forward FLOPs and owned parameter counts. Composite
//! kinds (e.g. [`OpKind::Lstm`], [`OpKind::MoeFfn`]) fold a structured layer
//! into one node so real models stay at hundreds — not tens of thousands — of
//! nodes, which is also how Whale's own TaskGraph abstraction avoids
//! operation-wise strategy explosion (§3.2).

/// Execution phase of an operation (§4, "TaskGraph Schedule" groups
/// operations into forward / backward / optimizer / others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward computation.
    Forward,
    /// Gradient computation.
    Backward,
    /// Parameter update.
    Optimizer,
    /// Everything else (IO, bookkeeping).
    Other,
}

/// Semantic kind of an operation, with the attributes its cost depends on.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Graph input (a data source); no compute.
    Input,
    /// Dense matrix multiply of `[m, k] × [k, n]` (batch dims folded into
    /// `m`). `has_params` marks layer weights (vs. activation-activation
    /// matmuls inside attention).
    MatMul {
        /// Rows of the left operand (batch × sequence folded in).
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Columns of the right operand.
        n: usize,
        /// Whether the right operand is a trainable weight.
        has_params: bool,
    },
    /// 2-D convolution producing `[batch, out_c, oh, ow]`.
    Conv2d {
        /// Batch size.
        batch: usize,
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Output height and width.
        out_hw: (usize, usize),
    },
    /// Embedding lookup of `tokens` rows from a `[vocab, dim]` table.
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
        /// Number of looked-up tokens per step.
        tokens: usize,
    },
    /// Layer normalization over `elems` activations (owns 2·`dim` params).
    LayerNorm {
        /// Activation elements normalized per step.
        elems: u64,
        /// Feature dimension (for the scale/shift parameters).
        dim: usize,
    },
    /// Softmax over `elems` activations.
    Softmax {
        /// Activation elements.
        elems: u64,
    },
    /// Generic elementwise op (add, GeLU, dropout...) over `elems`.
    Elementwise {
        /// Activation elements.
        elems: u64,
        /// FLOPs per element (1 for add, ~8 for GeLU).
        flops_per_elem: u32,
    },
    /// Pooling over an input of `elems` elements.
    Pool {
        /// Input elements.
        elems: u64,
    },
    /// Full LSTM layer unrolled over a sequence (composite).
    Lstm {
        /// Sequence length.
        seq: usize,
        /// Batch size.
        batch: usize,
        /// Input feature dimension.
        input_dim: usize,
        /// Hidden state dimension.
        hidden: usize,
    },
    /// Softmax cross-entropy loss over `[batch, classes]`.
    CrossEntropy {
        /// Batch size.
        batch: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Mixture-of-Experts feed-forward layer (composite; paper Example 8).
    ///
    /// Owns `experts · 2 · hidden · intermediate` weights; each token is
    /// routed to `top_k` experts.
    MoeFfn {
        /// Tokens processed per step (batch × sequence).
        tokens: usize,
        /// Model hidden size.
        hidden: usize,
        /// Expert FFN intermediate size.
        intermediate: usize,
        /// Number of experts.
        experts: usize,
        /// Experts activated per token (2 for the paper's Top2Gating).
        top_k: usize,
    },
    /// MoE gating network: per-token routing scores over `experts`.
    Gating {
        /// Tokens per step.
        tokens: usize,
        /// Hidden size.
        hidden: usize,
        /// Number of experts.
        experts: usize,
    },
    /// Synthetic op with explicit costs (tests and micro-benchmarks).
    Synthetic {
        /// Forward FLOPs.
        flops: f64,
        /// Owned parameter count.
        params: u64,
    },
}

impl OpKind {
    /// Forward-pass FLOPs of this operation.
    pub fn forward_flops(&self) -> f64 {
        match *self {
            OpKind::Input => 0.0,
            OpKind::MatMul { m, k, n, .. } => 2.0 * m as f64 * k as f64 * n as f64,
            OpKind::Conv2d {
                batch,
                in_c,
                out_c,
                kernel: (kh, kw),
                out_hw: (oh, ow),
            } => {
                2.0 * batch as f64
                    * oh as f64
                    * ow as f64
                    * out_c as f64
                    * in_c as f64
                    * kh as f64
                    * kw as f64
            }
            // Lookup is memory-bound; model as one FLOP per fetched element.
            OpKind::Embedding { dim, tokens, .. } => dim as f64 * tokens as f64,
            OpKind::LayerNorm { elems, .. } => 8.0 * elems as f64,
            OpKind::Softmax { elems } => 5.0 * elems as f64,
            OpKind::Elementwise {
                elems,
                flops_per_elem,
            } => elems as f64 * flops_per_elem as f64,
            OpKind::Pool { elems } => elems as f64,
            // Four gates, each an input and a recurrent matmul per timestep:
            // 2·(4·(i·h + h·h)) MACs → ×2 FLOPs, times batch and seq.
            OpKind::Lstm {
                seq,
                batch,
                input_dim,
                hidden,
            } => {
                let per_step =
                    8.0 * (input_dim as f64 * hidden as f64 + hidden as f64 * hidden as f64);
                seq as f64 * batch as f64 * per_step
            }
            OpKind::CrossEntropy { batch, classes } => 5.0 * batch as f64 * classes as f64,
            // Each token visits `top_k` experts; each expert applies two
            // dense layers h→i and i→h.
            OpKind::MoeFfn {
                tokens,
                hidden,
                intermediate,
                top_k,
                ..
            } => top_k as f64 * tokens as f64 * 4.0 * hidden as f64 * intermediate as f64,
            OpKind::Gating {
                tokens,
                hidden,
                experts,
            } => 2.0 * tokens as f64 * hidden as f64 * experts as f64,
            OpKind::Synthetic { flops, .. } => flops,
        }
    }

    /// Backward-pass FLOPs (standard 2× forward estimate: gradients w.r.t.
    /// both inputs and weights).
    pub fn backward_flops(&self) -> f64 {
        match self {
            OpKind::Input => 0.0,
            _ => 2.0 * self.forward_flops(),
        }
    }

    /// Number of trainable parameters owned by this operation. A graph
    /// refuses an op whose count overflows `u64`
    /// ([`GraphError::ParamsTooLarge`](crate::GraphError::ParamsTooLarge));
    /// for such a kind built outside a graph the count saturates at
    /// `u64::MAX`.
    pub fn param_count(&self) -> u64 {
        self.checked_param_count().unwrap_or(u64::MAX)
    }

    /// [`OpKind::param_count`], or `None` when it overflows `u64`.
    pub(crate) fn checked_param_count(&self) -> Option<u64> {
        let mul = |a: usize, b: usize| (a as u64).checked_mul(b as u64);
        match *self {
            OpKind::MatMul {
                k, n, has_params, ..
            } if has_params => mul(k, n)?.checked_add(n as u64),
            OpKind::Conv2d {
                in_c,
                out_c,
                kernel: (kh, kw),
                ..
            } => mul(in_c, out_c)?
                .checked_mul(mul(kh, kw)?)?
                .checked_add(out_c as u64),
            OpKind::Embedding { vocab, dim, .. } => mul(vocab, dim),
            OpKind::LayerNorm { dim, .. } => mul(2, dim),
            OpKind::Lstm {
                input_dim, hidden, ..
            } => mul(input_dim, hidden)?
                .checked_add(mul(hidden, hidden)?)?
                .checked_add(hidden as u64)?
                .checked_mul(4),
            OpKind::MoeFfn {
                hidden,
                intermediate,
                experts,
                ..
            } => mul(hidden, intermediate)?
                .checked_mul(2)?
                .checked_add(hidden as u64)?
                .checked_add(intermediate as u64)?
                .checked_mul(experts as u64),
            OpKind::Gating {
                hidden, experts, ..
            } => mul(hidden, experts),
            OpKind::Synthetic { params, .. } => Some(params),
            _ => Some(0),
        }
    }

    /// Whether this op carries trainable parameters.
    pub fn has_params(&self) -> bool {
        self.param_count() > 0
    }

    /// Whether the op's runtime is bounded by memory bandwidth rather than
    /// FLOPS (elementwise work, normalizations, lookups). Matmuls and
    /// convolutions at training sizes are compute-bound.
    pub fn is_bandwidth_bound(&self) -> bool {
        matches!(
            self,
            OpKind::LayerNorm { .. }
                | OpKind::Softmax { .. }
                | OpKind::Elementwise { .. }
                | OpKind::Pool { .. }
                | OpKind::Embedding { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_and_params() {
        let op = OpKind::MatMul {
            m: 32,
            k: 1024,
            n: 4096,
            has_params: true,
        };
        assert_eq!(op.forward_flops(), 2.0 * 32.0 * 1024.0 * 4096.0);
        assert_eq!(op.backward_flops(), 2.0 * op.forward_flops());
        assert_eq!(op.param_count(), 1024 * 4096 + 4096);

        let act = OpKind::MatMul {
            m: 32,
            k: 64,
            n: 64,
            has_params: false,
        };
        assert_eq!(act.param_count(), 0);
    }

    #[test]
    fn conv_flops_match_textbook() {
        // ResNet-50 conv1: 7×7, 3→64, output 112×112, batch 1:
        // 2·112·112·64·3·7·7 ≈ 236 MFLOPs.
        let op = OpKind::Conv2d {
            batch: 1,
            in_c: 3,
            out_c: 64,
            kernel: (7, 7),
            out_hw: (112, 112),
        };
        let expect = 2.0 * 112.0 * 112.0 * 64.0 * 3.0 * 49.0;
        assert_eq!(op.forward_flops(), expect);
        assert_eq!(op.param_count(), 3 * 64 * 49 + 64);
    }

    #[test]
    fn moe_params_hit_table1_scale() {
        // Table 1: hidden 1024, intermediate 4096, 512 experts, 24 layers
        // should give ≈100 B parameters from the expert weights alone.
        let layer = OpKind::MoeFfn {
            tokens: 1,
            hidden: 1024,
            intermediate: 4096,
            experts: 512,
            top_k: 2,
        };
        let total = 24 * layer.param_count();
        assert!(
            (95e9..110e9).contains(&(total as f64)),
            "24-layer MoE params = {total}"
        );
    }

    #[test]
    fn moe_flops_are_sparse() {
        // Compute cost is governed by top_k, not the expert count.
        let small = OpKind::MoeFfn {
            tokens: 4096,
            hidden: 1024,
            intermediate: 4096,
            experts: 512,
            top_k: 2,
        };
        let big = OpKind::MoeFfn {
            tokens: 4096,
            hidden: 1024,
            intermediate: 4096,
            experts: 960,
            top_k: 2,
        };
        assert_eq!(small.forward_flops(), big.forward_flops());
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn lstm_costs() {
        let op = OpKind::Lstm {
            seq: 50,
            batch: 1,
            input_dim: 1024,
            hidden: 1024,
        };
        assert_eq!(op.param_count(), 4 * (1024 * 1024 * 2 + 1024));
        assert_eq!(op.forward_flops(), 50.0 * 8.0 * 2.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn input_is_free() {
        assert_eq!(OpKind::Input.forward_flops(), 0.0);
        assert_eq!(OpKind::Input.backward_flops(), 0.0);
        assert!(!OpKind::Input.has_params());
    }
}

#[cfg(test)]
mod roofline_tests {
    use super::*;

    #[test]
    fn bandwidth_bound_classification() {
        assert!(OpKind::Softmax { elems: 10 }.is_bandwidth_bound());
        assert!(OpKind::LayerNorm { elems: 10, dim: 4 }.is_bandwidth_bound());
        assert!(OpKind::Elementwise {
            elems: 10,
            flops_per_elem: 1
        }
        .is_bandwidth_bound());
        assert!(!OpKind::MatMul {
            m: 2,
            k: 2,
            n: 2,
            has_params: true
        }
        .is_bandwidth_bound());
        assert!(!OpKind::Conv2d {
            batch: 1,
            in_c: 1,
            out_c: 1,
            kernel: (3, 3),
            out_hw: (4, 4)
        }
        .is_bandwidth_bound());
        assert!(!OpKind::Input.is_bandwidth_bound());
    }
}
