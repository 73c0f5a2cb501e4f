//! The step's cost model, one function per price.
//!
//! Compute follows the paper's `t = MF / (GF · α)` (§3.5) with a roofline
//! term for bandwidth-bound traffic; communication prices through the
//! collective cost model of a [`GroupCache`]. The simulator
//! (`whale_sim::simulate_step`) charges a step with these functions, and
//! every pruning bound of the search ([`crate::structural_lower_bound`],
//! [`crate::estimate_step_lower_bound`], [`crate::pipeline_leaf_bound`])
//! prices with the same ones. A bound is admissible only while it prices
//! each term exactly as the simulator does, so a change here moves the
//! simulator and every bound together.

use whale_graph::TrainingConfig;
use whale_hardware::{Cluster, Collective, Gpu, GpuModel, GroupCache, Result};

use crate::plan::{CollectiveTask, ExecutionPlan, PlannedStage};

/// κ, the backward/forward cost factor: backward ≈ 2× forward, and
/// recomputation replays the forward first.
pub fn backward_factor(recompute: bool) -> f64 {
    if recompute {
        3.0
    } else {
        2.0
    }
}

/// A GPU's effective rate: peak FLOPs × AMP boost × α.
pub(crate) fn effective_rate(gpu: &Gpu, amp: bool, efficiency: f64) -> f64 {
    let boost = if amp { gpu.model.amp_speedup() } else { 1.0 };
    gpu.flops() * boost * efficiency
}

/// One task's roofline on `gpu`: `factor`× its forward `flops` at the
/// effective rate plus `factor`× its memory `traffic` at device bandwidth
/// (AMP halves the traffic). A forward task is `factor = 1`, a backward
/// task `factor = κ`.
pub fn roofline(
    gpu: &Gpu,
    flops: f64,
    traffic: f64,
    amp: bool,
    efficiency: f64,
    factor: f64,
) -> f64 {
    let traffic = traffic * if amp { 0.5 } else { 1.0 };
    factor * flops / effective_rate(gpu, amp, efficiency)
        + factor * traffic / gpu.model.memory_bandwidth()
}

/// Convert a plan collective's *total logical payload* into the per-rank
/// bytes the collective cost model expects. AllGather and AllToAll
/// distribute the payload across ranks (each rank contributes `1/n`);
/// AllReduce, ReduceScatter, and Broadcast operate on the full tensor per
/// rank.
fn per_rank_bytes(c: &CollectiveTask) -> u64 {
    let n = c.group.len().max(1) as u64;
    match c.kind {
        Collective::AllGather | Collective::AllToAll => (c.bytes / n).max(1),
        Collective::AllReduce | Collective::ReduceScatter | Collective::Broadcast => c.bytes,
    }
}

/// What `stage`'s per-micro collectives add to each of its forward and
/// backward tasks.
pub fn stage_collectives(stage: &PlannedStage, groups: &mut GroupCache<'_>) -> Result<f64> {
    let mut time = 0.0;
    for c in &stage.collectives_per_micro {
        time += groups
            .selector(&c.group)?
            .collective(c.kind, per_rank_bytes(c));
    }
    Ok(time)
}

/// The lag of the tensor `from` sends `to`, the next stage, per micro
/// batch: its point-to-point time between the two stages' first GPUs, or
/// zero when nothing is sent or the stages are co-located (alternating
/// replica/split MoE TaskGraphs on the same GPUs hand tensors over in
/// device memory).
pub fn stage_transfer(from: &PlannedStage, to: &PlannedStage, cluster: &Cluster) -> Result<f64> {
    let bytes = from.send_bytes_per_micro;
    if bytes == 0
        || from
            .devices
            .iter()
            .map(|d| d.gpu)
            .eq(to.devices.iter().map(|d| d.gpu))
    {
        return Ok(0.0);
    }
    let a = cluster.gpu(from.devices[0].gpu)?;
    let b = cluster.gpu(to.devices[0].gpu)?;
    Ok(cluster.interconnect.p2p_time(a, b, bytes))
}

/// The duration of each of `plan`'s gradient syncs on the legacy
/// (unbucketed) path: its collective at the ZeRO comm factor. Under a
/// schedule that scales the wire (a sub-fp32 dtype or compression) a sync
/// that crosses ranks moves its wire bytes and pays the quantize passes;
/// otherwise it moves its own bytes.
pub fn legacy_syncs(plan: &ExecutionPlan, groups: &mut GroupCache<'_>) -> Result<Vec<f64>> {
    let n = plan.grad_syncs.len();
    let wire_of = match plan.grad_sync_schedule.as_ref().filter(|s| s.wire_scaled()) {
        Some(sched) => sched.wire_bytes_per_sync(n),
        None => vec![None; n],
    };
    let zero_factor = plan.training.zero.comm_factor();
    plan.grad_syncs
        .iter()
        .zip(wire_of)
        .map(|(c, wire)| {
            let topo = groups.selector(&c.group)?;
            let (wire, quant) = match wire {
                Some(wire) if c.group.len() > 1 => (
                    wire,
                    whale_hardware::quantize_dequantize_cost(c.bytes, wire, topo.min_membw()),
                ),
                _ => (c.bytes, 0.0),
            };
            Ok(topo.collective(c.kind, wire) * zero_factor + quant)
        })
        .collect()
}

/// The optimizer update of one of `stage`'s rows on a `model` GPU: a
/// parameter read-modify-write at device memory bandwidth, or under
/// ZeRO-Offload a PCIe round trip of gradients down and fp16 parameters
/// back (ref \[34\]). ZeRO shards the update across the ranks
/// replicating the stage, and so does ZeRO-Offload's host update.
pub fn optimizer_update(
    stage: &PlannedStage,
    model: GpuModel,
    training: &TrainingConfig,
    cluster: &Cluster,
) -> f64 {
    let shards = if training.zero.shards_optimizer() || training.offload {
        stage.dp_degree.max(1) as f64
    } else {
        1.0
    };
    let local_params = stage.param_bytes as f64;
    if training.offload {
        let grad_bytes = local_params / 4.0 * if training.amp { 2.0 } else { 4.0 };
        let back_bytes = local_params / 4.0 * 2.0;
        (grad_bytes + back_bytes) / (shards * cluster.interconnect.pcie_bw)
    } else {
        3.0 * local_params / (shards * model.memory_bandwidth())
    }
}
