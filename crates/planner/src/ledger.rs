//! Per-GPU memory ledger: the charging rules ([`LedgerRules`]) behind
//! every memory check, and the itemized account they produce.
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
//! One sum reads the rules: [`ExecutionPlan::memory_totals`], each GPU's
//! total in a vector indexed by id. `memory_feasible`, `Session::check_memory`,
//! the search's memory rejections and the memory profile read it, and the
//! simulator's OOM audit adds the same charges with
//! [`LedgerRules::charge_row`] in its own walk over the rows, so a dtype
//! choice that blows past device memory fails every check alike.
//! [`ExecutionPlan::memory_ledger`] itemizes the same charges by component
//! for rendering and attribution; folded by GPU it gives the same totals.

use std::collections::HashSet;

use whale_graph::profile::RUNTIME_OVERHEAD_BYTES;
use whale_hardware::Cluster;

use crate::commopt::GradDtype;
use crate::error::Result;
use crate::plan::{DeviceWork, ExecutionPlan, PlannedStage};

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
    /// Total bytes charged to one component across all GPUs, saturating
    /// at `u64::MAX`.
    pub fn component_total(&self, component: LedgerComponent) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.component == component)
            .fold(0, |total, e| total.saturating_add(e.bytes))
    }
}

/// The ledger's charging rules for one plan: what each device row of a
/// stage pays, and what each GPU pays once however many rows it has.
/// [`ExecutionPlan::memory_ledger`] itemizes the charges;
/// [`ExecutionPlan::memory_totals`] and the simulator's memory audit only
/// sum them per GPU, with [`LedgerRules::charge_row`], in whatever walk
/// over the rows they already make.
///
/// Base charges reproduce the pre-ledger accounting exactly (model state per
/// stage-device net of overhead, one overhead per GPU); precision charges
/// appear only when the attached grad-sync schedule communicates in a
/// sub-fp32 dtype or compresses.
#[derive(Debug, Clone, Copy)]
pub struct LedgerRules {
    needs_master: bool,
    needs_scaling: bool,
    compressed: bool,
    shards_optimizer: bool,
}

impl LedgerRules {
    /// The rules of `plan`'s training options and grad-sync schedule.
    pub fn of(plan: &ExecutionPlan) -> LedgerRules {
        let sched = plan.grad_sync_schedule.as_ref();
        let dtype = sched.map(|s| s.grad_dtype).unwrap_or(GradDtype::Fp32);
        LedgerRules {
            // AMP profiles already hold an fp32 master copy (see
            // `TrainingConfig::memory_bytes`); charging another would
            // double-count.
            needs_master: dtype != GradDtype::Fp32 && !plan.training.amp,
            needs_scaling: dtype != GradDtype::Fp32,
            compressed: sched.is_some_and(|s| s.compress_ratio < 1.0),
            shards_optimizer: plan.training.zero.shards_optimizer(),
        }
    }

    /// What every device row of `stage` pays after its model state,
    /// summed: the `extras` that [`LedgerRules::charge_row`] adds for each
    /// of the stage's rows. A sum past `u64::MAX` saturates there.
    pub fn stage_extras(&self, stage: &PlannedStage) -> u64 {
        sum(self.row_extras(stage))
    }

    /// Add one device row's charges to its GPU's running total: the row's
    /// model state plus `extras` (its stage's
    /// [`LedgerRules::stage_extras`]), and, when `total` is `None` because
    /// this is the GPU's first row, the charges each GPU pays once. Every
    /// add saturates at `u64::MAX`, so a total past it reads as out of
    /// memory on any GPU.
    pub fn charge_row(&self, total: &mut Option<u64>, row: &DeviceWork, extras: u64) {
        let bytes = total.get_or_insert_with(|| sum(self.per_gpu()));
        *bytes = bytes
            .saturating_add(Self::model_state(row))
            .saturating_add(extras);
    }

    /// The model state a device row pays: its profiled memory net of the
    /// runtime overhead, which [`LedgerRules::per_gpu`] charges instead.
    fn model_state(d: &DeviceWork) -> u64 {
        d.mem_bytes.saturating_sub(RUNTIME_OVERHEAD_BYTES)
    }

    /// What every device row of `stage` pays after its model state, in
    /// entry order. The charges depend on the stage alone.
    fn row_extras(&self, stage: &PlannedStage) -> [Option<(LedgerComponent, u64)>; 2] {
        if stage.param_bytes == 0 {
            return [None, None];
        }
        // ZeRO shards optimizer state — master weights included — across
        // the replica group; the error-feedback residual is per-rank.
        let master_shards = if self.shards_optimizer {
            stage.dp_degree.max(1) as u64
        } else {
            1
        };
        [
            self.needs_master.then_some((
                LedgerComponent::MasterWeights,
                stage.param_bytes / master_shards,
            )),
            self.compressed
                .then_some((LedgerComponent::CompressionResidual, stage.param_bytes)),
        ]
    }

    /// What each GPU the plan touches pays once, in entry order.
    fn per_gpu(&self) -> [Option<(LedgerComponent, u64)>; 2] {
        [
            Some((LedgerComponent::RuntimeOverhead, RUNTIME_OVERHEAD_BYTES)),
            self.needs_scaling
                .then_some((LedgerComponent::LossScaling, LOSS_SCALING_STATE_BYTES)),
        ]
    }
}

/// The saturating sum of some charges' bytes.
fn sum(charges: [Option<(LedgerComponent, u64)>; 2]) -> u64 {
    charges
        .into_iter()
        .flatten()
        .fold(0, |total, (_, bytes)| total.saturating_add(bytes))
}

/// Build the itemized ledger for a plan: each device row's charges in
/// stage order, then each GPU's once-only charges in first-seen order.
pub(crate) fn build_ledger(plan: &ExecutionPlan) -> MemoryLedger {
    let rules = LedgerRules::of(plan);
    let mut entries = Vec::new();
    // GPUs in first-seen order. The set is hashed, not indexed by id: a
    // plan no cluster validated may name any id.
    let mut gpus_seen: Vec<usize> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let entry = |gpu| {
        move |(component, bytes)| LedgerEntry {
            gpu,
            component,
            bytes,
        }
    };
    for stage in plan.stages.iter() {
        let extras = rules.row_extras(stage);
        for d in &stage.devices {
            entries.push(LedgerEntry {
                gpu: d.gpu,
                component: LedgerComponent::ModelState,
                bytes: LedgerRules::model_state(d),
            });
            entries.extend(extras.into_iter().flatten().map(entry(d.gpu)));
            if seen.insert(d.gpu) {
                gpus_seen.push(d.gpu);
            }
        }
    }
    let once = rules.per_gpu();
    for &gpu in &gpus_seen {
        entries.extend(once.into_iter().flatten().map(entry(gpu)));
    }
    MemoryLedger { entries }
}

/// Sum the ledger's charges per GPU into a vector indexed by id, without
/// itemizing or hashing anything (see [`ExecutionPlan::memory_totals`]).
pub(crate) fn memory_totals(plan: &ExecutionPlan, cluster: &Cluster) -> Result<Vec<Option<u64>>> {
    let rules = LedgerRules::of(plan);
    let mut totals = vec![None; cluster.num_gpus()];
    for stage in plan.stages.iter() {
        let extras = rules.stage_extras(stage);
        for d in &stage.devices {
            cluster.gpu(d.gpu)?;
            rules.charge_row(&mut totals[d.gpu], d, extras);
        }
    }
    Ok(totals)
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
        // The overhead is charged exactly once per GPU.
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
        let cluster = whale_hardware::Cluster::parse("8xV100+8xP100").unwrap();
        let (fp32, bf16) = (
            fp32.memory_totals(&cluster).unwrap(),
            bf16.memory_totals(&cluster).unwrap(),
        );
        for (a, b) in fp32.iter().zip(&bf16) {
            assert!(b.unwrap() > a.unwrap());
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
