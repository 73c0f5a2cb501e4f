//! Memoized Balance-pass helpers for the staged pipeline.
//!
//! The Balance pass plans every TaskGraph once per plan replica. Deep
//! interleaved models (the MoE zoo) multiply hundreds of TaskGraphs by tens
//! of replica groups, and the monolithic helpers re-derive the same pure
//! results — [`dp_partition`] batch assignments and [`match_split_pattern`]
//! shard plans — for every `(TaskGraph, group)` pair even though the inputs
//! repeat almost verbatim across groups.
//!
//! This module is a transplant of [`crate::planner::plan_taskgraph`] /
//! [`crate::planner::build_grad_groups`] that threads a per-Balance-run
//! [`BalanceMemo`]:
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
//! The monolithic [`crate::planner::plan_reference`] keeps calling the
//! unmemoized originals: it is the golden reference the pipeline is compared
//! against, so its hot path stays untouched.
//!
//! Bit-identity of the pipeline against the reference is pinned by the
//! zoo × cluster golden matrix in `tests/compile_pipeline.rs`.

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

/// Memoizing transplant of [`crate::planner::plan_taskgraph`]: plan one
/// TaskGraph on one plan replica's virtual device. Byte-for-byte the same
/// control flow; the two `dp_partition` call sites and the
/// `match_split_pattern` site go through `memo`.
pub(crate) fn plan_taskgraph_memo(
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
            shard_onto_memo(
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
                shard_onto_memo(
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

/// Memoizing transplant of [`crate::planner::shard_onto`].
fn shard_onto_memo(
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

/// Transplant of [`crate::planner::build_grad_groups`] that assembles the
/// common replica/split/stage groups directly instead of materializing the
/// per-GPU `positions` table first, and emits them as the plan's
/// AllReduce tasks. Every group it keeps is element-for-element the
/// reference's `(label, group, bytes, stage)`: the direct loops visit the
/// same `(gpu, group)` pairs in the same order, and the replica-path sort
/// sees the same multiset. Groups of one GPU are never built (see
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{build_grad_groups, plan_taskgraph, PlannerConfig};
    use whale_hardware::Cluster;
    use whale_ir::Annotator;

    /// The memoized TaskGraph planner must reproduce the unmemoized helper
    /// bit-for-bit on a heterogeneous cluster with multiple plan replicas.
    #[test]
    fn memoized_taskgraph_planning_is_bit_identical() {
        let graph =
            whale_graph::models::m6_moe(whale_graph::models::MoeConfig::tiny(), 32).unwrap();
        let moe_ops: Vec<whale_graph::OpId> = graph
            .ops()
            .iter()
            .filter(|op| op.name.ends_with("/moe_ffn"))
            .map(|op| op.id)
            .collect();
        let mut annot = Annotator::new(graph, 32)
            .outer_replica()
            .set_default(Primitive::Replica);
        for id in moe_ops {
            annot = annot
                .annotate_ops(vec![id], vec![Primitive::Split])
                .unwrap();
        }
        let ir = annot.finish().unwrap();
        let cluster = Cluster::parse("2x(4xV100)+2x(4xP100)").unwrap();
        let config = PlannerConfig::default();
        let state = crate::pipeline::compile(&ir, &cluster, &config).unwrap();
        let d = state.degrees.as_ref().unwrap();
        let p = state.placement.as_ref().unwrap();
        let num_stages = p.task_graphs.len();

        let mut memo = BalanceMemo::default();
        for (tg_idx, tg) in p.task_graphs.iter().enumerate() {
            let profile = match &p.stage_profiles {
                Some(ps) => ps[tg_idx].clone(),
                None => tg.profile(&ir.graph, ir.global_batch.max(1)),
            };
            for (g, group) in d.groups.iter().enumerate() {
                let offset = group[0];
                let vd_gpus: Vec<usize> = p.vds0[tg_idx]
                    .gpu_ids()
                    .iter()
                    .map(|&id| id - d.groups[0][0] + offset)
                    .collect();
                let args = || PlanTgArgs {
                    ir: &ir,
                    cluster: &cluster,
                    config: &config,
                    tg,
                    profile: &profile,
                    vd_gpus: &vd_gpus,
                    group_batch: d.group_batches[g],
                    num_micro: d.num_micro,
                    stage_index: tg_idx,
                    num_stages,
                    gpipe: d.gpipe,
                    outer_dp: d.outer_dp,
                };
                let (mut dev_a, mut col_a) = (Vec::new(), Vec::new());
                let (mut dev_b, mut col_b) = (Vec::new(), Vec::new());
                plan_taskgraph(args(), &mut dev_a, &mut col_a).unwrap();
                plan_taskgraph_memo(args(), &mut memo, &mut dev_b, &mut col_b).unwrap();
                assert_eq!(dev_a, dev_b, "devices diverge on tg {tg_idx} group {g}");
                assert_eq!(col_a, col_b, "collectives diverge on tg {tg_idx} group {g}");
            }
            // Balance keeps only groups of two or more GPUs; the fast
            // builder never makes the others.
            let mut gg_a = Vec::new();
            let mut gg_b = Vec::new();
            build_grad_groups(tg, &profile, &p.vds0[tg_idx], &d.groups, &config, &mut gg_a);
            build_grad_syncs(tg, &profile, &p.vds0[tg_idx], &d.groups, &config, &mut gg_b);
            let kept: Vec<CollectiveTask> = gg_a
                .into_iter()
                .filter(|(_, group, _, _)| group.len() > 1)
                .map(|(label, group, bytes, stage)| CollectiveTask {
                    kind: Collective::AllReduce,
                    group,
                    bytes,
                    label,
                    stage: Some(stage),
                })
                .collect();
            assert_eq!(kept, gg_b, "grad groups diverge on tg {tg_idx}");
        }
    }
}
