//! The execution plan: the distributed computation the simulator runs.
//!
//! A plan is the output of the parallel planner (§3.4): an ordered list of
//! [`PlannedStage`]s (one per TaskGraph; several when a pipeline is
//! requested), per-device work assignments with batch sizes and memory
//! estimates, the collectives each stage launches per micro batch, and the
//! gradient-synchronization collectives run at the end of every step (§4).

use std::sync::Arc;

use whale_graph::TrainingConfig;
use whale_hardware::{Cluster, Collective};

use crate::error::{PlanError, Result};

/// Work assigned to one GPU within a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceWork {
    /// Global GPU id.
    pub gpu: usize,
    /// Forward FLOPs this GPU executes per micro batch.
    pub fw_flops_per_micro: f64,
    /// Bytes moved through device memory per micro batch by
    /// bandwidth-bound ops (roofline term).
    pub mem_traffic_per_micro: f64,
    /// Estimated device memory, bytes.
    pub mem_bytes: u64,
    /// Samples this GPU contributes per training step (diagnostics; equals
    /// its DP batch share, or the full micro-batch trail for stages/shards).
    pub samples_per_step: usize,
}

/// A collective launched by the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveTask {
    /// Which collective.
    pub kind: Collective,
    /// Participating GPU ids.
    pub group: Vec<usize>,
    /// Payload bytes (full logical tensor).
    pub bytes: u64,
    /// Human-readable origin (`"moe alltoall"`, `"bridge tg0→tg1"`, ...).
    pub label: String,
    /// Stage whose parameters/tensors this collective serves; gradient
    /// syncs use it to start as soon as that stage's backward drains.
    pub stage: Option<usize>,
}

/// One planned TaskGraph (a pipeline stage when a pipeline is scheduled).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStage {
    /// Stage index in execution order.
    pub index: usize,
    /// Per-GPU work. Replicated TaskGraphs list every replica; split
    /// TaskGraphs list every shard.
    pub devices: Vec<DeviceWork>,
    /// Activation bytes sent to the next stage per micro batch (0 for the
    /// last stage).
    pub send_bytes_per_micro: u64,
    /// Collectives executed once per micro batch inside this stage
    /// (split-pattern communication and unfused bridges).
    pub collectives_per_micro: Vec<CollectiveTask>,
    /// Trainable-parameter bytes held by this stage (one logical copy).
    pub param_bytes: u64,
    /// GPUs holding a full copy of this stage's parameters (the gradient
    /// sync fan-in); ZeRO shards states across this many ranks.
    pub dp_degree: usize,
}

impl PlannedStage {
    /// GPU ids participating in this stage.
    pub fn gpu_ids(&self) -> Vec<usize> {
        self.devices.iter().map(|d| d.gpu).collect()
    }
}

/// The distributed execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Model name this plan was derived from.
    pub name: String,
    /// Global batch size per training step.
    pub global_batch: usize,
    /// Micro batches per step (1 = no pipelining).
    pub num_micro_batches: usize,
    /// Stages in execution order. Shared (`Arc`) with the pipeline's
    /// `Balance` artifact so a `Schedule`-only replan assembles the plan
    /// without cloning per-stage device and collective vectors.
    pub stages: Arc<Vec<PlannedStage>>,
    /// Gradient synchronization collectives at the end of each step.
    /// Shared with the `Balance` artifact for the same reason as `stages`.
    pub grad_syncs: Arc<Vec<CollectiveTask>>,
    /// Bucketed grad-sync schedule from the `CommOpt` pass (`None` on
    /// hand-assembled plans; the simulator then uses its legacy model).
    pub grad_sync_schedule: Option<crate::commopt::GradSyncSchedule>,
    /// Training options the memory estimates assumed.
    pub training: TrainingConfig,
    /// Compute efficiency `α` used to convert FLOPs to time
    /// (`t = MF / (GF · α)`).
    pub efficiency: f64,
}

impl ExecutionPlan {
    /// All distinct GPU ids the plan touches, sorted.
    pub fn all_gpus(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .stages
            .iter()
            .flat_map(|s| s.devices.iter().map(|d| d.gpu))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Itemized per-GPU memory accounting (model state, runtime overhead,
    /// and — under mixed-precision or compressed gradient collectives —
    /// master weights, loss-scaling state, and compression residuals).
    /// Folded by GPU, its entries sum to [`ExecutionPlan::memory_totals`].
    pub fn memory_ledger(&self) -> crate::ledger::MemoryLedger {
        crate::ledger::build_ledger(self)
    }

    /// Estimated peak memory per GPU, bytes, in a vector indexed by GPU id:
    /// the one per-GPU sum every memory check reads. Entry `id` is `None`
    /// for a GPU of `cluster` the plan does not touch. Co-located stages
    /// sum their model memory, but the fixed runtime overhead (CUDA
    /// context and workspace) is charged once per GPU, not once per stage;
    /// plans whose grad-sync schedule communicates in a sub-fp32 dtype (or
    /// compresses) additionally carry fp32 master weights, loss-scaling
    /// state, and error-feedback residuals (see [`crate::ledger`]). The
    /// charges are the [`memory_ledger`]'s, summed without itemizing them;
    /// a total past `u64::MAX` saturates there, so it reads as out of
    /// memory.
    ///
    /// # Errors
    ///
    /// A device id the cluster lacks returns the error [`Cluster::gpu`]
    /// returns for it.
    ///
    /// [`memory_ledger`]: ExecutionPlan::memory_ledger
    pub fn memory_totals(&self, cluster: &Cluster) -> Result<Vec<Option<u64>>> {
        crate::ledger::memory_totals(self, cluster)
    }

    /// Validate the plan against a cluster: GPU ids exist, stage and
    /// collective groups are sane, micro-batch count is positive.
    ///
    /// The id lists are checked in this order: each stage's devices, then
    /// its collective groups, then each gradient-sync group. An unknown id
    /// returns the error [`Cluster::gpu`] returns for the first unknown id
    /// in that order.
    pub fn validate(&self, cluster: &Cluster) -> Result<()> {
        if self.num_micro_batches == 0 {
            return Err(PlanError::BadConfig("0 micro batches".into()));
        }
        if self.stages.is_empty() {
            return Err(PlanError::BadIr("plan has no stages".into()));
        }
        for stage in self.stages.iter() {
            if stage.devices.is_empty() {
                return Err(PlanError::BadDeviceAssignment(format!(
                    "stage {} has no devices",
                    stage.index
                )));
            }
            known_ids(cluster, stage.devices.iter().map(|d| d.gpu))?;
            for c in &stage.collectives_per_micro {
                known_ids(cluster, c.group.iter().copied())?;
            }
        }
        for c in self.grad_syncs.iter() {
            if c.group.is_empty() {
                return Err(PlanError::BadConfig(format!(
                    "empty gradient-sync group '{}'",
                    c.label
                )));
            }
            known_ids(cluster, c.group.iter().copied())?;
        }
        Ok(())
    }

    /// Whether every GPU's [`memory_totals`](ExecutionPlan::memory_totals)
    /// fits its capacity.
    pub fn memory_feasible(&self, cluster: &Cluster) -> Result<bool> {
        let totals = self.memory_totals(cluster)?;
        Ok(totals
            .iter()
            .zip(cluster.gpus())
            .all(|(total, gpu)| total.is_none_or(|bytes| bytes <= gpu.memory_bytes())))
    }

    /// Total gradient bytes synchronized per step.
    pub fn grad_sync_bytes(&self) -> u64 {
        self.grad_syncs.iter().map(|c| c.bytes).sum()
    }
}

/// Check that every id of one list names a GPU of `cluster`. One `max`
/// bounds the list; only a list whose max is out of range is walked, to
/// return [`Cluster::gpu`]'s error for its first unknown id.
fn known_ids(cluster: &Cluster, ids: impl Iterator<Item = usize> + Clone) -> Result<()> {
    if ids
        .clone()
        .max()
        .is_some_and(|max| max >= cluster.num_gpus())
    {
        for id in ids {
            cluster.gpu(id)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_hardware::GpuModel;

    fn plan_with(stage_gpus: Vec<Vec<usize>>) -> ExecutionPlan {
        ExecutionPlan {
            name: "test".into(),
            global_batch: 32,
            num_micro_batches: 4,
            stages: Arc::new(
                stage_gpus
                    .into_iter()
                    .enumerate()
                    .map(|(i, gpus)| PlannedStage {
                        index: i,
                        devices: gpus
                            .into_iter()
                            .map(|gpu| DeviceWork {
                                gpu,
                                fw_flops_per_micro: 1e9,
                                mem_traffic_per_micro: 0.0,
                                mem_bytes: 1 << 30,
                                samples_per_step: 8,
                            })
                            .collect(),
                        send_bytes_per_micro: 1 << 20,
                        collectives_per_micro: vec![],
                        param_bytes: 1 << 20,
                        dp_degree: 1,
                    })
                    .collect(),
            ),
            grad_syncs: Arc::new(vec![]),
            grad_sync_schedule: None,
            training: TrainingConfig::default(),
            efficiency: 0.45,
        }
    }

    #[test]
    fn all_gpus_dedup_sorted() {
        let p = plan_with(vec![vec![2, 0], vec![1, 2]]);
        assert_eq!(p.all_gpus(), vec![0, 1, 2]);
    }

    #[test]
    fn validate_against_cluster() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        assert!(plan_with(vec![vec![0, 1], vec![2, 3]]).validate(&c).is_ok());
        assert!(plan_with(vec![vec![0, 9]]).validate(&c).is_err());
        let mut empty = plan_with(vec![vec![0]]);
        empty.num_micro_batches = 0;
        assert!(empty.validate(&c).is_err());
    }

    #[test]
    fn memory_feasibility() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 2);
        let mut p = plan_with(vec![vec![0], vec![1]]);
        assert!(p.memory_feasible(&c).unwrap());
        Arc::make_mut(&mut p.stages)[0].devices[0].mem_bytes = 33 << 30;
        assert!(!p.memory_feasible(&c).unwrap());
    }

    #[test]
    fn colocated_stages_sum_memory_with_single_overhead() {
        // Two co-located 1-GiB stages: model memory (1 GiB − overhead = 0)
        // sums, but the fixed runtime overhead is charged once.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 1);
        let p = plan_with(vec![vec![0], vec![0]]);
        let overhead = whale_graph::profile::RUNTIME_OVERHEAD_BYTES;
        assert_eq!(p.memory_totals(&c).unwrap(), vec![Some(overhead)]);

        let mut big = plan_with(vec![vec![0], vec![0]]);
        for s in Arc::make_mut(&mut big.stages) {
            s.devices[0].mem_bytes = 3 << 30;
        }
        // (3 − 1) + (3 − 1) + 1 = 5 GiB.
        assert_eq!(big.memory_totals(&c).unwrap(), vec![Some(5 << 30)]);
    }
}
