//! Memoized Balance-pass helpers for the staged pipeline.
//!
//! The Balance pass plans every TaskGraph once per plan replica. Deep
//! interleaved models (the MoE zoo) multiply hundreds of TaskGraphs by tens
//! of replica groups, and the pure per-TaskGraph results —
//! [`dp_partition`] batch assignments and [`match_split_pattern`] shard
//! plans — repeat almost verbatim across groups. [`balance_taskgraph`]
//! threads a per-Balance-run [`BalanceMemo`] through them:
//!
//! * `dp_partition` results are memoized on their **exact** inputs — the
//!   bit patterns of the `CostProfile` fields, the batch, the activation
//!   multiplier's bits, `dp_shards` (the only `TrainingConfig` field that
//!   varies within a run), and the `(model, throughput_scale)` signature of
//!   the device slice (the only GPU fields the partitioner reads). The key
//!   names no TaskGraph, so the hundreds of identical replica TaskGraphs of
//!   a deep MoE model share one partition. `dp_partition` is a pure
//!   function, so replaying a memoized result is bit-identical to
//!   recomputing it.
//! * `match_split_pattern` results are memoized per `(TaskGraph position,
//!   degree)` — the pattern depends only on the graph, the TaskGraph's ops,
//!   and the shard count, all fixed across groups.
//!
//! [`build_grad_syncs`] assembles each TaskGraph's gradient-sync groups
//! directly as the plan's AllReduce tasks.
//!
//! The zoo × cluster × config golden matrix in `tests/compile_pipeline.rs`
//! pins the plans these helpers produce, including split and replica
//! TaskGraphs over several V100+P100 plan replicas (`moe_hybrid_ep`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use whale_graph::{CostProfile, TrainingConfig};
use whale_hardware::{Cluster, Collective, Gpu, GpuModel};
use whale_ir::Primitive;

use crate::dp_balance::{dp_partition, DpPartition};
use crate::error::{PlanError, Result};
use crate::partition::proportional_split;
use crate::pipe_balance::in_flight_micro_batches;
use crate::plan::{CollectiveTask, DeviceWork};
use crate::planner::{nested_degrees, PlanTgArgs};
use crate::shard::{match_split_pattern, SplitPlan};

/// GPU signature as seen by the DP partitioner: hardware model plus the
/// bit pattern of the effective-throughput scale. Two devices with equal
/// signatures are indistinguishable to [`dp_partition`].
type GpuSig = (GpuModel, u64);

/// Everything [`dp_partition`] reads besides the device slice: the
/// `CostProfile` fields (floats as bit patterns), the batch, the bits of the
/// activation multiplier, and `dp_shards`. The rest of the
/// `TrainingConfig` and `hardware_aware` are fixed for a Balance run.
type DpKey = ([u64; 7], usize, u64, usize);

/// Signature-matched memo bucket: every partition computed for one
/// [`DpKey`], keyed by the device-slice signature it was derived from.
type DpBucket = Vec<(Vec<GpuSig>, DpPartition)>;

/// Per-Balance-run memo for the pure planning subroutines.
#[derive(Default)]
pub(crate) struct BalanceMemo {
    /// [`DpKey`] → signature-matched [`dp_partition`] results. Buckets are
    /// tiny (distinct signatures per key — one on homogeneous clusters), so
    /// lookup is a scratch-signature build plus a short linear scan, with
    /// no allocation on hits.
    dp: HashMap<DpKey, DpBucket>,
    /// `(TaskGraph position, degree)` → shard plan.
    splits: HashMap<(usize, usize), SplitPlan>,
    /// Reused device-slice buffer.
    gpus: Vec<Gpu>,
    /// Reused signature buffer.
    sig: Vec<GpuSig>,
}

impl BalanceMemo {
    /// [`dp_partition`] over the GPUs `ids` of `cluster`, memoized.
    #[allow(clippy::too_many_arguments)]
    fn dp_partition_memo(
        &mut self,
        cluster: &Cluster,
        ids: &[usize],
        profile: &CostProfile,
        tcfg: &TrainingConfig,
        batch: usize,
        act_mult: f64,
        hardware_aware: bool,
    ) -> Result<&DpPartition> {
        self.gpus.clear();
        for &id in ids {
            self.gpus.push(*cluster.gpu(id)?);
        }
        self.sig.clear();
        self.sig.extend(
            self.gpus
                .iter()
                .map(|g| (g.model, g.throughput_scale.to_bits())),
        );
        let key = (
            [
                profile.param_count,
                profile.param_bytes,
                profile.forward_flops_per_sample.to_bits(),
                profile.activation_bytes_per_sample.to_bits(),
                profile.checkpoint_bytes_per_sample.to_bits(),
                profile.memory_traffic_bytes_per_sample.to_bits(),
                profile.ref_batch as u64,
            ],
            batch,
            act_mult.to_bits(),
            tcfg.dp_shards,
        );
        let bucket = self.dp.entry(key).or_default();
        let i = match bucket.iter().position(|(sig, _)| *sig == self.sig) {
            Some(i) => i,
            None => {
                let dp = dp_partition(profile, tcfg, &self.gpus, batch, act_mult, hardware_aware)?;
                bucket.push((self.sig.clone(), dp));
                bucket.len() - 1
            }
        };
        Ok(&bucket[i].1)
    }

    fn split_plan_memo(&mut self, a: &PlanTgArgs<'_>, degree: usize) -> Result<&SplitPlan> {
        Ok(match self.splits.entry((a.stage_index, degree)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match_split_pattern(&a.ir.graph, &a.tg.ops, degree)?),
        })
    }
}

/// Plan one TaskGraph on one plan replica's virtual device: per-device
/// work for its strategy, plus the collectives a split pattern launches.
/// The `dp_partition` and `match_split_pattern` calls go through `memo`.
pub(crate) fn balance_taskgraph(
    a: PlanTgArgs<'_>,
    memo: &mut BalanceMemo,
    devices: &mut Vec<DeviceWork>,
    collectives: &mut Vec<CollectiveTask>,
) -> Result<()> {
    let in_flight = in_flight_micro_batches(a.stage_index, a.num_stages, a.num_micro, a.gpipe);
    let act_mult = in_flight as f64 / a.num_micro as f64;
    let k = a.vd_gpus.len();
    let fw_per_sample = a.profile.forward_flops_per_sample;

    match a.tg.strategies.as_slice() {
        // Pure data parallelism (possibly via default scope).
        [] | [Primitive::Replica] => {
            // ZeRO shards across every replica of this TaskGraph: in-group
            // replicas times plan-level copies.
            let mut tcfg = a.config.training;
            tcfg.dp_shards = (k * a.outer_dp).max(1);
            let dp = memo.dp_partition_memo(
                a.cluster,
                a.vd_gpus,
                a.profile,
                &tcfg,
                a.group_batch,
                act_mult,
                a.config.hardware_aware,
            )?;
            for (i, &gpu) in a.vd_gpus.iter().enumerate() {
                let bs = dp.batch_sizes[i];
                devices.push(DeviceWork {
                    gpu,
                    fw_flops_per_micro: fw_per_sample * bs as f64 / a.num_micro as f64,
                    mem_traffic_per_micro: a.profile.memory_traffic_bytes_per_sample * bs as f64
                        / a.num_micro as f64,
                    mem_bytes: tcfg.memory_bytes(a.profile, bs, act_mult),
                    samples_per_step: bs,
                });
            }
        }
        // Tensor model parallelism.
        [Primitive::Split] => {
            shard_taskgraph(
                &a,
                memo,
                a.vd_gpus,
                a.group_batch,
                act_mult,
                devices,
                collectives,
            )?;
        }
        // Manual grouping: the TaskGraph runs whole on one GPU per replica.
        [Primitive::Stage] => {
            if k != 1 {
                return Err(PlanError::BadDeviceAssignment(format!(
                    "stage TaskGraph {} needs a 1-GPU virtual device, got {k}",
                    a.tg.index
                )));
            }
            let mut tcfg = a.config.training;
            tcfg.dp_shards = a.outer_dp.max(1);
            devices.push(DeviceWork {
                gpu: a.vd_gpus[0],
                fw_flops_per_micro: fw_per_sample * a.group_batch as f64 / a.num_micro as f64,
                mem_traffic_per_micro: a.profile.memory_traffic_bytes_per_sample
                    * a.group_batch as f64
                    / a.num_micro as f64,
                mem_bytes: tcfg.memory_bytes(a.profile, a.group_batch, act_mult),
                samples_per_step: a.group_batch,
            });
        }
        // Fig. 6 TG4: split nested inside replica — shard groups replicated.
        [Primitive::Split, Primitive::Replica] => {
            let (s, r) = nested_degrees(k);
            let sub_batches = proportional_split(a.group_batch, &vec![1.0; r])?;
            for (rep, chunk) in a.vd_gpus.chunks(s).enumerate() {
                shard_taskgraph(
                    &a,
                    memo,
                    chunk,
                    sub_batches[rep],
                    act_mult,
                    devices,
                    collectives,
                )?;
            }
        }
        // Replica nested inside split: replica groups each own a shard.
        [Primitive::Replica, Primitive::Split] => {
            let (s, r) = nested_degrees(k);
            for shard_gpus in a.vd_gpus.chunks(r) {
                let dp = memo.dp_partition_memo(
                    a.cluster,
                    shard_gpus,
                    a.profile,
                    &a.config.training,
                    a.group_batch,
                    act_mult / s as f64,
                    a.config.hardware_aware,
                )?;
                for (i, &gpu) in shard_gpus.iter().enumerate() {
                    let bs = dp.batch_sizes[i];
                    devices.push(DeviceWork {
                        gpu,
                        fw_flops_per_micro: fw_per_sample * bs as f64
                            / (a.num_micro as f64 * s as f64),
                        mem_traffic_per_micro: a.profile.memory_traffic_bytes_per_sample
                            * bs as f64
                            / (a.num_micro as f64 * s as f64),
                        mem_bytes: a.config.training.memory_bytes(
                            a.profile,
                            bs,
                            act_mult / s as f64,
                        ),
                        samples_per_step: bs,
                    });
                }
            }
        }
        other => {
            return Err(PlanError::BadIr(format!(
                "unsupported strategy nesting {other:?} on TaskGraph {}",
                a.tg.index
            )));
        }
    }
    Ok(())
}

/// Shard one TaskGraph over `shard_gpus` processing `batch` samples.
fn shard_taskgraph(
    a: &PlanTgArgs<'_>,
    memo: &mut BalanceMemo,
    shard_gpus: &[usize],
    batch: usize,
    act_mult: f64,
    devices: &mut Vec<DeviceWork>,
    collectives: &mut Vec<CollectiveTask>,
) -> Result<()> {
    let k = shard_gpus.len();
    let split = memo.split_plan_memo(a, k)?;
    let fw_per_sample = a.profile.forward_flops_per_sample;
    // Shard-local profile: parameters and activations divided across shards.
    let shard_profile = CostProfile {
        param_count: (a.profile.param_count as f64 * split.param_fraction) as u64,
        param_bytes: (a.profile.param_bytes as f64 * split.param_fraction) as u64,
        forward_flops_per_sample: fw_per_sample * split.flops_fraction,
        activation_bytes_per_sample: a.profile.activation_bytes_per_sample * split.flops_fraction,
        checkpoint_bytes_per_sample: a.profile.checkpoint_bytes_per_sample * split.flops_fraction,
        memory_traffic_bytes_per_sample: a.profile.memory_traffic_bytes_per_sample
            * split.flops_fraction,
        ref_batch: a.profile.ref_batch,
    };
    for &gpu in shard_gpus {
        devices.push(DeviceWork {
            gpu,
            fw_flops_per_micro: fw_per_sample * split.flops_fraction * batch as f64
                / a.num_micro as f64,
            mem_traffic_per_micro: shard_profile.memory_traffic_bytes_per_sample * batch as f64
                / a.num_micro as f64,
            mem_bytes: a
                .config
                .training
                .memory_bytes(&shard_profile, batch, act_mult),
            samples_per_step: batch,
        });
    }
    let micro_scale = batch as f64 / (a.num_micro as f64 * a.ir.global_batch.max(1) as f64);
    for (kind, bytes) in &split.collectives {
        let scaled = (*bytes as f64 * micro_scale) as u64;
        if scaled == 0 || k < 2 {
            continue;
        }
        collectives.push(CollectiveTask {
            kind: *kind,
            group: shard_gpus.to_vec(),
            bytes: scaled,
            label: format!("{:?} split tg{}", split.pattern, a.tg.index),
            stage: Some(a.stage_index),
        });
    }
    Ok(())
}

/// Append the gradient-sync AllReduce tasks of one TaskGraph: the GPUs at
/// the same replica or shard position across plan replicas, or across DP
/// replicas within a group. Groups of one GPU are never built (see
/// [`push_grad_sync`]).
pub(crate) fn build_grad_syncs(
    tg: &whale_ir::TaskGraph,
    profile: &CostProfile,
    vd0: &whale_hardware::VirtualDevice,
    groups: &[Vec<usize>],
    config: &crate::planner::PlannerConfig,
    out: &mut Vec<CollectiveTask>,
) {
    let grad_bytes_full = if config.training.amp {
        profile.param_count * 2
    } else {
        profile.param_bytes
    };
    let ids = vd0.gpu_ids();
    let k = ids.len();
    let base = groups[0][0];
    // Every plan copy's GPU at `id0`'s position in copy 0.
    let copies = |group: &mut Vec<usize>, id0: usize| {
        group.extend(groups.iter().map(|g| id0 - base + g[0]));
    };
    let tgi = tg.index;
    match tg.strategies.as_slice() {
        // Replicas hold full copies: one big group over every replica of
        // every plan copy.
        [] | [Primitive::Replica] => push_grad_sync(
            out,
            k * groups.len(),
            grad_bytes_full,
            tgi,
            || format!("dp sync tg{tgi}"),
            |group| {
                for &id0 in ids {
                    copies(group, id0);
                }
                group.sort_unstable();
            },
        ),
        // Shards are unique; only plan-level copies need syncing.
        [Primitive::Split] => {
            let per_shard = grad_bytes_full / k.max(1) as u64;
            for (i, &id0) in ids.iter().enumerate() {
                push_grad_sync(
                    out,
                    groups.len(),
                    per_shard,
                    tgi,
                    || format!("split sync tg{tgi} shard{i}"),
                    |group| copies(group, id0),
                );
            }
        }
        [Primitive::Stage] => push_grad_sync(
            out,
            k * groups.len(),
            grad_bytes_full,
            tgi,
            || format!("stage sync tg{tgi}"),
            |group| {
                for &id0 in ids {
                    copies(group, id0);
                }
            },
        ),
        // Shard j is replicated in every chunk and every plan copy: the
        // positions j, j + s, j + 2s, ...
        [Primitive::Split, Primitive::Replica] => {
            let (s, _r) = nested_degrees(k);
            for j in 0..s {
                let members = (j..k).step_by(s);
                push_grad_sync(
                    out,
                    members.len() * groups.len(),
                    grad_bytes_full / s as u64,
                    tgi,
                    || format!("nested sync tg{tgi} shard{j}"),
                    |group| {
                        for &id0 in ids.iter().skip(j).step_by(s) {
                            copies(group, id0);
                        }
                        group.sort_unstable();
                    },
                );
            }
        }
        // Replica groups each own a shard: positions shard·r .. (shard+1)·r.
        [Primitive::Replica, Primitive::Split] => {
            let (s, r) = nested_degrees(k);
            for shard in 0..s {
                let members = &ids[(shard * r).min(k)..((shard + 1) * r).min(k)];
                push_grad_sync(
                    out,
                    members.len() * groups.len(),
                    grad_bytes_full / s as u64,
                    tgi,
                    || format!("nested sync tg{tgi} shard{shard}"),
                    |group| {
                        for &id0 in members {
                            copies(group, id0);
                        }
                        group.sort_unstable();
                    },
                );
            }
        }
        _ => {}
    }
}

/// Append one gradient AllReduce of `size` GPUs, filled by `fill`, for
/// stage `stage`. The one place the rule lives that a group of one GPU
/// syncs nothing: such a group gets no label, no `Vec` and no task.
fn push_grad_sync(
    out: &mut Vec<CollectiveTask>,
    size: usize,
    bytes: u64,
    stage: usize,
    label: impl FnOnce() -> String,
    fill: impl FnOnce(&mut Vec<usize>),
) {
    if size < 2 {
        return;
    }
    let mut group = Vec::with_capacity(size);
    fill(&mut group);
    out.push(CollectiveTask {
        kind: Collective::AllReduce,
        group,
        bytes,
        label: label(),
        stage: Some(stage),
    });
}
