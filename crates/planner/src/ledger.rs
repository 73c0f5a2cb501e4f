//! Per-GPU memory ledger: itemized accounting behind
//! [`ExecutionPlan::memory_per_gpu`].
//!
//! The base plan charges each device its profiled model state (parameters,
//! gradients, optimizer state, activations — whatever
//! `TrainingConfig::memory_bytes` folded into `DeviceWork::mem_bytes`) plus
//! one fixed runtime overhead per GPU. Mixed-precision gradient collectives
//! (`CommConfig::grad_dtype` ≠ fp32) add state the profile does not know
//! about: an fp32 **master copy** of the weights the low-precision update
//! accumulates into, and the **loss-scaling** bookkeeping that keeps small
//! gradients from flushing to zero. Gradient compression
//! (`CommConfig::compress_ratio` < 1) adds an **error-feedback residual**
//! the same size as the gradient so dropped mass re-enters the next step.
//!
//! The ledger makes those costs visible to the planner — `memory_per_gpu`
//! (and therefore `memory_feasible` and the simulator's OOM audit) is the
//! ledger's per-GPU total, so a dtype choice that blows past device memory
//! fails feasibility like any other memory cost. This seeds the ROADMAP's
//! memory-ledger item: new components (activation checkpoints, ZeRO shards)
//! slot in as further [`LedgerComponent`] variants.

use std::collections::{BTreeMap, HashSet};

use whale_graph::profile::RUNTIME_OVERHEAD_BYTES;

use crate::commopt::GradDtype;
use crate::plan::ExecutionPlan;

/// Loss-scaling bookkeeping per GPU: the scale scalar, growth counter, and
/// per-bucket found-inf flags (tiny, but nonzero — the ledger itemizes it
/// so the render and tests can see precision is not free).
pub const LOSS_SCALING_STATE_BYTES: u64 = 4 << 10;

/// What a ledger entry pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LedgerComponent {
    /// Profiled model state from the cost model (params + grads + optimizer
    /// state + activations), net of the runtime overhead.
    ModelState,
    /// Fixed CUDA context + workspace, charged once per GPU.
    RuntimeOverhead,
    /// fp32 master copy of the trainable parameters, required when the
    /// gradient wire dtype is below fp32 and the training profile has not
    /// already provisioned one (i.e. AMP is off). ZeRO-sharded optimizers
    /// shard the master copy with the rest of the optimizer state.
    MasterWeights,
    /// Loss-scaling state for sub-fp32 gradient communication.
    LossScaling,
    /// Error-feedback residual for compressed collectives: the mass the
    /// compressor dropped this step, re-injected next step.
    CompressionResidual,
}

impl LedgerComponent {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            LedgerComponent::ModelState => "model-state",
            LedgerComponent::RuntimeOverhead => "runtime-overhead",
            LedgerComponent::MasterWeights => "master-weights",
            LedgerComponent::LossScaling => "loss-scaling",
            LedgerComponent::CompressionResidual => "compression-residual",
        }
    }
}

/// One itemized charge against one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Global GPU id.
    pub gpu: usize,
    /// What the bytes pay for.
    pub component: LedgerComponent,
    /// Bytes charged.
    pub bytes: u64,
}

/// The itemized per-GPU memory account of one plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryLedger {
    /// Every charge, in stage order then component order.
    pub entries: Vec<LedgerEntry>,
}

impl MemoryLedger {
    /// Total bytes per GPU (what [`ExecutionPlan::memory_per_gpu`] returns).
    pub fn per_gpu(&self) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            *out.entry(e.gpu).or_insert(0) += e.bytes;
        }
        out
    }

    /// Total bytes charged to one component across all GPUs.
    pub fn component_total(&self, component: LedgerComponent) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.component == component)
            .map(|e| e.bytes)
            .sum()
    }
}

/// Build the ledger for a plan. Base entries reproduce the pre-ledger
/// accounting exactly (model state per stage-device net of overhead, one
/// overhead per GPU); precision entries appear only when the attached
/// grad-sync schedule communicates in a sub-fp32 dtype or compresses.
pub(crate) fn build_ledger(plan: &ExecutionPlan) -> MemoryLedger {
    let mut entries = Vec::new();
    // GPUs in first-seen order. The set is hashed, not indexed by id: a
    // plan no cluster validated may name any id.
    let mut gpus_seen: Vec<usize> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let sched = plan.grad_sync_schedule.as_ref();
    let dtype = sched.map(|s| s.grad_dtype).unwrap_or(GradDtype::Fp32);
    let compressed = sched.is_some_and(|s| s.compress_ratio < 1.0);
    // AMP profiles already hold an fp32 master copy (see
    // `TrainingConfig::memory_bytes`); charging another would double-count.
    let needs_master = dtype != GradDtype::Fp32 && !plan.training.amp;
    let needs_scaling = dtype != GradDtype::Fp32;
    for stage in plan.stages.iter() {
        // ZeRO shards optimizer state — master weights included — across
        // the replica group; the error-feedback residual is per-rank.
        let master_shards = if plan.training.zero.shards_optimizer() {
            stage.dp_degree.max(1) as u64
        } else {
            1
        };
        for d in &stage.devices {
            entries.push(LedgerEntry {
                gpu: d.gpu,
                component: LedgerComponent::ModelState,
                bytes: d.mem_bytes.saturating_sub(RUNTIME_OVERHEAD_BYTES),
            });
            if needs_master && stage.param_bytes > 0 {
                entries.push(LedgerEntry {
                    gpu: d.gpu,
                    component: LedgerComponent::MasterWeights,
                    bytes: stage.param_bytes / master_shards,
                });
            }
            if compressed && stage.param_bytes > 0 {
                entries.push(LedgerEntry {
                    gpu: d.gpu,
                    component: LedgerComponent::CompressionResidual,
                    bytes: stage.param_bytes,
                });
            }
            if seen.insert(d.gpu) {
                gpus_seen.push(d.gpu);
            }
        }
    }
    for &gpu in &gpus_seen {
        entries.push(LedgerEntry {
            gpu,
            component: LedgerComponent::RuntimeOverhead,
            bytes: RUNTIME_OVERHEAD_BYTES,
        });
        if needs_scaling {
            entries.push(LedgerEntry {
                gpu,
                component: LedgerComponent::LossScaling,
                bytes: LOSS_SCALING_STATE_BYTES,
            });
        }
    }
    MemoryLedger { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commopt::CommConfig;
    use crate::planner::PlannerConfig;
    use whale_graph::models;
    use whale_ir::Annotator;

    fn plan_with(comm: CommConfig) -> ExecutionPlan {
        let g = models::bert_base(32, 64).unwrap();
        let ir = Annotator::new(g, 32)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = whale_hardware::Cluster::parse("8xV100+8xP100").unwrap();
        let cfg = PlannerConfig {
            comm,
            ..PlannerConfig::default()
        };
        crate::plan(&ir, &cluster, &cfg).unwrap()
    }

    #[test]
    fn fp32_ledger_reproduces_the_base_accounting() {
        let p = plan_with(CommConfig::fused());
        let ledger = p.memory_ledger();
        // No precision components at fp32.
        assert_eq!(ledger.component_total(LedgerComponent::MasterWeights), 0);
        assert_eq!(ledger.component_total(LedgerComponent::LossScaling), 0);
        assert_eq!(
            ledger.component_total(LedgerComponent::CompressionResidual),
            0
        );
        // The per-GPU totals ARE memory_per_gpu (same code path), and the
        // overhead is charged exactly once per GPU.
        assert_eq!(ledger.per_gpu(), p.memory_per_gpu());
        let overhead_gpus = ledger
            .entries
            .iter()
            .filter(|e| e.component == LedgerComponent::RuntimeOverhead)
            .count();
        assert_eq!(overhead_gpus, p.all_gpus().len());
    }

    #[test]
    fn sub_fp32_dtype_charges_master_weights_and_loss_scaling() {
        let fp32 = plan_with(CommConfig::fused());
        let bf16 = plan_with(CommConfig::fused().bf16());
        let l = bf16.memory_ledger();
        let master = l.component_total(LedgerComponent::MasterWeights);
        // Every replica of the single DP stage holds one fp32 master copy.
        let expected: u64 = bf16
            .stages
            .iter()
            .map(|s| s.param_bytes * s.devices.len() as u64)
            .sum();
        assert_eq!(master, expected);
        assert_eq!(
            l.component_total(LedgerComponent::LossScaling),
            LOSS_SCALING_STATE_BYTES * bf16.all_gpus().len() as u64
        );
        // And the totals grow accordingly.
        for (gpu, bytes) in bf16.memory_per_gpu() {
            assert!(bytes > fp32.memory_per_gpu()[&gpu]);
        }
    }

    #[test]
    fn compression_charges_an_error_feedback_residual() {
        let p = plan_with(CommConfig::fused().compress(0.5));
        let l = p.memory_ledger();
        assert!(l.component_total(LedgerComponent::CompressionResidual) > 0);
        // fp32 + compression: no master copy needed, residual only.
        assert_eq!(l.component_total(LedgerComponent::MasterWeights), 0);
    }

    #[test]
    fn amp_profiles_do_not_double_count_the_master_copy() {
        let g = models::bert_base(32, 64).unwrap();
        let ir = Annotator::new(g, 32)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = whale_hardware::Cluster::parse("8xV100").unwrap();
        let cfg = PlannerConfig {
            comm: CommConfig::fused().bf16(),
            training: whale_graph::TrainingConfig {
                amp: true,
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let p = crate::plan(&ir, &cluster, &cfg).unwrap();
        let l = p.memory_ledger();
        assert_eq!(
            l.component_total(LedgerComponent::MasterWeights),
            0,
            "AMP already provisions the fp32 master copy"
        );
        assert!(l.component_total(LedgerComponent::LossScaling) > 0);
    }
}
