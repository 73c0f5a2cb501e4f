//! Cost profiling: FLOPs, parameters, activations, and memory estimation.
//!
//! The paper's load balancers (§3.5) call `profile_flop(subgraph)` and
//! `profile_mem(subgraph)` (via an estimator in the spirit of Gao et al.
//! \[15\]). This module supplies both: [`CostProfile`] aggregates the analytic
//! per-op costs of a (sub)graph, and [`TrainingConfig::memory_bytes`] turns a
//! profile plus a batch size into a device-memory estimate covering weights,
//! gradients, optimizer states, and stored activations (with optional
//! recomputation and mixed precision).

use crate::graph::{Graph, OpId};
use crate::inline_list::InlineList;
use crate::op::{OpKind, Phase};

/// Optimizers with their per-parameter state footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimizer {
    /// Plain SGD: no extra state.
    Sgd,
    /// SGD with momentum: one fp32 slot per parameter.
    SgdMomentum,
    /// Adam: two fp32 slots per parameter.
    Adam,
    /// Adafactor (used for M6 training, §5.1): factored second moments,
    /// roughly half a byte per parameter.
    Adafactor,
}

impl Optimizer {
    /// Optimizer-state bytes per trainable parameter.
    pub fn state_bytes_per_param(self) -> f64 {
        match self {
            Optimizer::Sgd => 0.0,
            Optimizer::SgdMomentum => 4.0,
            Optimizer::Adam => 8.0,
            Optimizer::Adafactor => 0.5,
        }
    }
}

/// ZeRO sharded-data-parallelism stages (ref \[31\], integrated by Whale §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroStage {
    /// No sharding: every replica holds full states.
    None,
    /// Stage 1: optimizer states sharded across DP ranks.
    OptimizerState,
    /// Stage 2: optimizer states + gradients sharded.
    Gradients,
    /// Stage 3: optimizer states + gradients + parameters sharded
    /// (parameters are AllGathered on demand; ~1.5× communication).
    Parameters,
}

impl ZeroStage {
    /// Whether this stage shards optimizer states.
    pub fn shards_optimizer(self) -> bool {
        self != ZeroStage::None
    }

    /// Whether this stage shards gradients.
    pub fn shards_gradients(self) -> bool {
        matches!(self, ZeroStage::Gradients | ZeroStage::Parameters)
    }

    /// Whether this stage shards parameters.
    pub fn shards_parameters(self) -> bool {
        self == ZeroStage::Parameters
    }

    /// Gradient-synchronization communication multiplier relative to a plain
    /// AllReduce (ZeRO-3 pays a reduce-scatter plus two AllGathers ≈ 1.5×).
    pub fn comm_factor(self) -> f64 {
        if self.shards_parameters() {
            1.5
        } else {
            1.0
        }
    }
}

/// Training-time options that change the memory footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Optimizer choice.
    pub optimizer: Optimizer,
    /// Automatic mixed precision: fp16 activations/gradients with fp32
    /// master weights.
    pub amp: bool,
    /// Activation recomputation (ref \[9\]): store only layer-boundary
    /// checkpoints, recompute the rest during backward.
    pub recompute: bool,
    /// ZeRO sharding stage (ref \[31\]).
    pub zero: ZeroStage,
    /// ZeRO-Offload (ref \[34\]): optimizer states and fp32 master weights
    /// live in host memory; the device keeps fp16 parameters. Implies a
    /// PCIe transfer of gradients/updates each step (charged by the
    /// simulator).
    pub offload: bool,
    /// Data-parallel ranks the ZeRO stages shard across. Set by the planner
    /// to the gradient-sync group size; 1 disables sharding arithmetic.
    pub dp_shards: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            optimizer: Optimizer::Adam,
            amp: false,
            recompute: false,
            zero: ZeroStage::None,
            offload: false,
            dp_shards: 1,
        }
    }
}

/// Fixed per-GPU runtime overhead (CUDA context + workspace), bytes.
///
/// [`TrainingConfig::memory_bytes`] includes it once; planners placing
/// several TaskGraphs on one GPU must subtract it per extra TaskGraph.
pub const RUNTIME_OVERHEAD_BYTES: u64 = 1 << 30;

impl TrainingConfig {
    /// Estimated device memory for one replica of `profile` at `batch`
    /// samples, with stored activations scaled by `act_multiplier` (1.0 for
    /// plain DP; the number of in-flight micro-batches for pipeline stages).
    pub fn memory_bytes(&self, profile: &CostProfile, batch: usize, act_multiplier: f64) -> u64 {
        let p = profile.param_count as f64;
        let d = self.dp_shards.max(1) as f64;
        // Master weights stay fp32; AMP adds an fp16 working copy. ZeRO-3
        // shards both; ZeRO-Offload moves the fp32 master copy to the host
        // (an fp16 working copy remains on device under AMP).
        let mut master = p * 4.0;
        let mut working = if self.amp { p * 2.0 } else { 0.0 };
        if self.zero.shards_parameters() {
            master /= d;
            working /= d;
        }
        if self.offload {
            master = 0.0;
            if !self.amp {
                // Without AMP the device still needs an fp32 working copy.
                working = working.max(
                    p * 4.0
                        / if self.zero.shards_parameters() {
                            d
                        } else {
                            1.0
                        },
                );
            }
        }
        let mut grads = p * if self.amp { 2.0 } else { 4.0 };
        if self.zero.shards_gradients() {
            grads /= d;
        }
        let mut opt_state = p * self.optimizer.state_bytes_per_param();
        if self.zero.shards_optimizer() {
            opt_state /= d;
        }
        if self.offload {
            opt_state = 0.0;
        }
        let act_per_sample = if self.recompute {
            profile.checkpoint_bytes_per_sample
        } else {
            profile.activation_bytes_per_sample
        };
        let act_scale = if self.amp { 0.5 } else { 1.0 };
        let activations = act_per_sample * batch as f64 * act_multiplier * act_scale;
        // Fixed runtime overhead: CUDA context + workspace, ~1 GiB.
        let overhead = RUNTIME_OVERHEAD_BYTES as f64;
        (master + working + grads + opt_state + activations + overhead) as u64
    }

    /// FLOPs to process `batch` samples for one training step (forward +
    /// backward + recompute overhead if enabled).
    pub fn step_flops(&self, profile: &CostProfile, batch: usize) -> f64 {
        let fwd = profile.forward_flops_per_sample * batch as f64;
        // Backward ≈ 2× forward; recomputation replays the forward once more.
        let factor = if self.recompute { 4.0 } else { 3.0 };
        fwd * factor
    }
}

/// Aggregated analytic costs of a graph or subgraph, normalized per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Trainable parameters.
    pub param_count: u64,
    /// fp32 bytes of those parameters.
    pub param_bytes: u64,
    /// Forward FLOPs divided by the reference batch size.
    pub forward_flops_per_sample: f64,
    /// Bytes of all forward activations per sample (stored for backward).
    pub activation_bytes_per_sample: f64,
    /// Bytes of layer-boundary activations per sample (what recomputation
    /// keeps).
    pub checkpoint_bytes_per_sample: f64,
    /// Bytes read+written per sample by bandwidth-bound ops (elementwise,
    /// norms, softmax, lookups) — the roofline term the simulator charges
    /// against device memory bandwidth.
    pub memory_traffic_bytes_per_sample: f64,
    /// Batch size the source graph was built with.
    pub ref_batch: usize,
}

impl CostProfile {
    /// Profile a whole graph built at `ref_batch` samples per step.
    pub fn from_graph(graph: &Graph, ref_batch: usize) -> CostProfile {
        let ids: Vec<OpId> = graph.ops().iter().map(|op| op.id).collect();
        Self::from_ops(graph, &ids, ref_batch)
    }

    /// Profile the subgraph formed by `ids` (e.g., one TaskGraph or one
    /// pipeline stage).
    pub fn from_ops(graph: &Graph, ids: &[OpId], ref_batch: usize) -> CostProfile {
        assert!(ref_batch > 0, "reference batch must be positive");
        let mut param_count = 0u64;
        let mut fwd_flops = 0.0f64;
        let mut act_bytes = 0u64;
        let mut traffic_bytes = 0u64;
        // Last op of each layer — its output is the layer checkpoint. Ops
        // arrive grouped by layer in practice, so a tail-first scan over a
        // short list is amortized O(1) per op (checkpoint_bytes is a u64
        // sum, so the collection order does not affect the result). A
        // TaskGraph of at most four layers keeps the list inline.
        let mut layer_last: InlineList<(usize, OpId)> = InlineList::new();
        for &id in ids {
            let op = match graph.op(id) {
                Ok(op) => op,
                Err(_) => continue,
            };
            if op.phase != Phase::Forward {
                continue;
            }
            param_count += op.param_count();
            fwd_flops += op.forward_flops();
            if !matches!(op.kind, OpKind::Input) {
                act_bytes += op.output_bytes();
            }
            if op.kind.is_bandwidth_bound() {
                // Read the input(s), write the output: ~2x output bytes for
                // shape-preserving elementwise work.
                traffic_bytes += 2 * op.output_bytes();
            }
            if let Some(layer) = op.layer {
                match layer_last.iter_mut().rev().find(|(l, _)| *l == layer) {
                    Some(entry) => entry.1 = id,
                    None => layer_last.push((layer, id)),
                }
            }
        }
        let mut checkpoint_bytes = 0u64;
        for &(_, id) in &layer_last {
            if let Ok(op) = graph.op(id) {
                checkpoint_bytes += op.output_bytes();
            }
        }
        // A model without layer annotations keeps everything under
        // recomputation (no checkpoints identified).
        if checkpoint_bytes == 0 {
            checkpoint_bytes = act_bytes;
        }
        let rb = ref_batch as f64;
        CostProfile {
            param_count,
            param_bytes: param_count * 4,
            forward_flops_per_sample: fwd_flops / rb,
            activation_bytes_per_sample: act_bytes as f64 / rb,
            checkpoint_bytes_per_sample: checkpoint_bytes as f64 / rb,
            memory_traffic_bytes_per_sample: traffic_bytes as f64 / rb,
            ref_batch,
        }
    }

    /// Forward FLOPs at an arbitrary batch size.
    pub fn forward_flops(&self, batch: usize) -> f64 {
        self.forward_flops_per_sample * batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{OpKind, Phase};
    use crate::tensor::TensorMeta;

    /// Two-layer toy model at batch 8: input → matmul(16×32) → matmul(32×8).
    fn toy() -> Graph {
        let mut g = Graph::new("toy");
        let x = g
            .add_op(
                "x",
                OpKind::Input,
                vec![],
                TensorMeta::f32(&[8, 16]),
                Phase::Forward,
                None,
            )
            .unwrap();
        let h = g
            .add_op(
                "fc1",
                OpKind::MatMul {
                    m: 8,
                    k: 16,
                    n: 32,
                    has_params: true,
                },
                vec![x],
                TensorMeta::f32(&[8, 32]),
                Phase::Forward,
                Some(0),
            )
            .unwrap();
        g.add_op(
            "fc2",
            OpKind::MatMul {
                m: 8,
                k: 32,
                n: 8,
                has_params: true,
            },
            vec![h],
            TensorMeta::f32(&[8, 8]),
            Phase::Forward,
            Some(1),
        )
        .unwrap();
        g
    }

    #[test]
    fn profile_aggregates_costs() {
        let p = CostProfile::from_graph(&toy(), 8);
        assert_eq!(p.param_count, (16 * 32 + 32) + (32 * 8 + 8));
        assert_eq!(p.param_bytes, p.param_count * 4);
        let fwd = 2.0 * 8.0 * 16.0 * 32.0 + 2.0 * 8.0 * 32.0 * 8.0;
        assert!((p.forward_flops(8) - fwd).abs() < 1e-6);
        // Input tensor excluded from activations.
        let act = (8 * 32 + 8 * 8) * 4;
        assert!((p.activation_bytes_per_sample * 8.0 - act as f64).abs() < 1e-6);
    }

    #[test]
    fn checkpoints_are_layer_boundaries() {
        let p = CostProfile::from_graph(&toy(), 8);
        // Both matmuls end their layers, so checkpoints equal activations
        // here; a deeper layer would shrink the ratio.
        assert!(p.checkpoint_bytes_per_sample <= p.activation_bytes_per_sample);
    }

    #[test]
    fn memory_scales_linearly_in_batch() {
        let p = CostProfile::from_graph(&toy(), 8);
        let cfg = TrainingConfig::default();
        let m8 = cfg.memory_bytes(&p, 8, 1.0);
        let m16 = cfg.memory_bytes(&p, 16, 1.0);
        let m24 = cfg.memory_bytes(&p, 24, 1.0);
        // Differences are exactly the activation increments.
        assert_eq!(m16 - m8, m24 - m16);
    }

    #[test]
    fn optimizer_state_ordering() {
        let p = CostProfile::from_graph(&toy(), 8);
        let mem = |opt| {
            TrainingConfig {
                optimizer: opt,
                ..TrainingConfig::default()
            }
            .memory_bytes(&p, 8, 1.0)
        };
        assert!(mem(Optimizer::Adam) > mem(Optimizer::SgdMomentum));
        assert!(mem(Optimizer::SgdMomentum) > mem(Optimizer::Sgd));
        assert!(mem(Optimizer::Adafactor) < mem(Optimizer::SgdMomentum));
    }

    #[test]
    fn recompute_and_amp_reduce_memory() {
        let p = CostProfile::from_graph(&toy(), 8);
        let base = TrainingConfig::default();
        let recompute = TrainingConfig {
            recompute: true,
            ..base
        };
        let amp = TrainingConfig { amp: true, ..base };
        assert!(recompute.memory_bytes(&p, 1024, 1.0) <= base.memory_bytes(&p, 1024, 1.0));
        assert!(amp.memory_bytes(&p, 1024, 1.0) < base.memory_bytes(&p, 1024, 1.0));
    }

    #[test]
    fn recompute_costs_an_extra_forward() {
        let p = CostProfile::from_graph(&toy(), 8);
        let base = TrainingConfig::default();
        let rc = TrainingConfig {
            recompute: true,
            ..base
        };
        let f = p.forward_flops(8);
        assert!((base.step_flops(&p, 8) - 3.0 * f).abs() < 1e-6);
        assert!((rc.step_flops(&p, 8) - 4.0 * f).abs() < 1e-6);
    }

    #[test]
    fn subgraph_profile_partitions_whole() {
        let g = toy();
        let whole = CostProfile::from_graph(&g, 8);
        let a = CostProfile::from_ops(&g, &g.op_range(0, 2).unwrap(), 8);
        let b = CostProfile::from_ops(&g, &g.op_range(2, 3).unwrap(), 8);
        assert_eq!(whole.param_count, a.param_count + b.param_count);
        assert!(
            (whole.forward_flops_per_sample
                - (a.forward_flops_per_sample + b.forward_flops_per_sample))
                .abs()
                < 1e-9
        );
    }

    /// A graph accepts the output `f32[2^40, 2^40, 0]` as zero bytes, and
    /// profiling it reads zero bytes: its dimensions' product passes 2^64
    /// before it reaches the zero, which a debug build's overflow check
    /// used to turn into a panic.
    #[test]
    fn a_zero_sized_output_with_huge_dimensions_profiles_as_zero_bytes() {
        let dims = [1 << 40, 1 << 40, 0];
        let mut b = crate::builder::GraphBuilder::new("zero");
        let x = b.input("x", &[8, 16]).unwrap();
        b.op(
            "pool",
            OpKind::Pool { elems: 128 },
            [x],
            TensorMeta::f32(&dims),
        )
        .unwrap();
        let profile = CostProfile::from_graph(&b.finish(), 8);
        assert_eq!(profile.activation_bytes_per_sample, 0.0);
        assert_eq!(profile.memory_traffic_bytes_per_sample, 0.0);
        assert_eq!(TensorMeta::f32(&dims).size_bytes(), 0);
    }
}

#[cfg(test)]
mod zero_tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn profile() -> CostProfile {
        let mut b = GraphBuilder::new("z");
        let x = b.input("x", &[8, 1024]).unwrap();
        b.dense("fc", x, 8, 1024, 65536).unwrap();
        CostProfile::from_graph(&b.finish(), 8)
    }

    fn mem(zero: ZeroStage, offload: bool, amp: bool, shards: usize) -> u64 {
        let cfg = TrainingConfig {
            optimizer: Optimizer::Adam,
            amp,
            recompute: false,
            zero,
            offload,
            dp_shards: shards,
        };
        cfg.memory_bytes(&profile(), 8, 1.0)
    }

    #[test]
    fn zero_stages_shrink_memory_monotonically() {
        let none = mem(ZeroStage::None, false, false, 8);
        let z1 = mem(ZeroStage::OptimizerState, false, false, 8);
        let z2 = mem(ZeroStage::Gradients, false, false, 8);
        let z3 = mem(ZeroStage::Parameters, false, false, 8);
        assert!(none > z1, "{none} > {z1}");
        assert!(z1 > z2);
        assert!(z2 > z3);
    }

    #[test]
    fn zero_is_noop_without_data_parallelism() {
        assert_eq!(
            mem(ZeroStage::Parameters, false, false, 1),
            mem(ZeroStage::None, false, false, 1)
        );
    }

    #[test]
    fn zero1_removes_exactly_the_sharded_optimizer_share() {
        // 67.2 M params, Adam = 8 B/param; sharding 8 ways saves 7/8 of it.
        let p = profile();
        let none = mem(ZeroStage::None, false, false, 8) as f64;
        let z1 = mem(ZeroStage::OptimizerState, false, false, 8) as f64;
        let expect = p.param_count as f64 * 8.0 * (7.0 / 8.0);
        assert!(
            ((none - z1) - expect).abs() < 16.0,
            "{} vs {expect}",
            none - z1
        );
    }

    #[test]
    fn offload_moves_states_off_device() {
        let on_device = mem(ZeroStage::None, false, true, 1);
        let offloaded = mem(ZeroStage::None, true, true, 1);
        // Offload drops the fp32 master weights and Adam states from the GPU.
        let p = profile();
        let saved = p.param_count as f64 * (4.0 + 8.0);
        assert!(
            ((on_device - offloaded) as f64 - saved).abs() < 16.0,
            "saved {} expected {saved}",
            on_device - offloaded
        );
    }

    #[test]
    fn zero3_comm_factor() {
        assert_eq!(ZeroStage::None.comm_factor(), 1.0);
        assert_eq!(ZeroStage::Gradients.comm_factor(), 1.0);
        assert_eq!(ZeroStage::Parameters.comm_factor(), 1.5);
        assert!(ZeroStage::Parameters.shards_optimizer());
        assert!(!ZeroStage::OptimizerState.shards_gradients());
    }
}
