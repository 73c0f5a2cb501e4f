//! The parallel planner (§3.4): Whale IR + cluster → execution plan.
//!
//! Responsibilities, mirroring the paper:
//!
//! 1. **TaskGraph partition** — auto-partition pipeline stages with the
//!    hardware-aware balanced cut (Algorithm 3) when no `stage` was given;
//! 2. **Device mapping** — one virtual device per TaskGraph; the virtual
//!    device size fixes the parallelism degree;
//! 3. **Strategy resolution** — replica → hardware-aware DP partition
//!    (Algorithm 2), split → pattern-matched sharding, nesting → shard
//!    groups replicated inside the virtual device;
//! 4. **Bridges** — insert and fuse Partition/Gather/Identity chains between
//!    TaskGraphs with different parallelism;
//! 5. **Gradient synchronization** — AllReduce groups across replicas
//!    (including plan-level outer data parallelism).

use whale_graph::{CostProfile, TrainingConfig};
use whale_hardware::{Cluster, VirtualDevice};
use whale_ir::{Primitive, TaskGraph, WhaleIr};

use crate::error::{PlanError, Result};
use crate::plan::ExecutionPlan;

/// Pipeline schedule flavor (affects activation memory and the simulator's
/// task ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Backward-first / 1F1B (DAPPLE, ref \[13\]) — Whale's default (§4).
    BackwardFirst,
    /// GPipe-style flush (ref \[17\]).
    GPipe,
    /// Asynchronous pipeline without a flush (PipeMare, ref \[46\]) — the
    /// paper's §6 future work. Removes the warm-up/drain bubble entirely at
    /// the cost of stale gradients (no convergence guarantee); the trainer
    /// models that as reduced sample efficiency.
    AsyncNoFlush,
}

/// How TaskGraphs map to virtual devices.
#[derive(Debug, Clone)]
pub enum DeviceAssignment {
    /// Slice each plan replica's GPUs evenly across TaskGraphs (one GPU per
    /// stage for auto-partitioned pipelines).
    Auto,
    /// Explicit virtual devices for plan replica 0, one per TaskGraph; other
    /// plan replicas use the same layout shifted by the replica's GPU
    /// offset (the paper's `cluster()` slicing).
    PerTaskGraph(Vec<VirtualDevice>),
}

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Memory-relevant training options.
    pub training: TrainingConfig,
    /// Compute efficiency `α` in `t = MF/(GF·α)`.
    pub efficiency: f64,
    /// Enable the hardware-aware load balancing of §3.5. Off = the paper's
    /// baselines (uniform batch, FLOP-even stages).
    pub hardware_aware: bool,
    /// Plan-level DP degree when the IR has `outer_replica`. 0 = infer one
    /// replica per node.
    pub outer_dp: usize,
    /// Pipeline schedule flavor.
    pub schedule: ScheduleKind,
    /// TaskGraph → virtual device mapping.
    pub devices: DeviceAssignment,
    /// Communication-optimizer options (gradient fusion buckets + collective
    /// algorithm selection). Default = disabled (legacy sync model).
    pub comm: crate::commopt::CommConfig,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            training: TrainingConfig::default(),
            efficiency: 0.45,
            hardware_aware: true,
            outer_dp: 0,
            schedule: ScheduleKind::BackwardFirst,
            devices: DeviceAssignment::Auto,
            comm: crate::commopt::CommConfig::default(),
        }
    }
}

impl PlannerConfig {
    /// Stable content fingerprint over every option, for plan-cache keys.
    pub fn fingerprint(&self) -> whale_fp::Fingerprint {
        let mut fp = whale_fp::Fingerprinter::new("planner-config");
        fp.push_fingerprint(self.training.fingerprint())
            .push_f64(self.efficiency)
            .push_bool(self.hardware_aware)
            .push_usize(self.outer_dp)
            .push_tag(match self.schedule {
                ScheduleKind::BackwardFirst => 0,
                ScheduleKind::GPipe => 1,
                ScheduleKind::AsyncNoFlush => 2,
            });
        match &self.devices {
            DeviceAssignment::Auto => {
                fp.push_tag(0);
            }
            DeviceAssignment::PerTaskGraph(vds) => {
                fp.push_tag(1).push_len(vds.len());
                for vd in vds {
                    fp.push_len(vd.num_gpus());
                    for &id in vd.gpu_ids() {
                        fp.push_usize(id);
                    }
                }
            }
        }
        fp.push_u64(self.comm.fusion_bytes)
            .push_bool(self.comm.auto_algorithm)
            .push_tag(match self.comm.grad_dtype {
                crate::commopt::GradDtype::Fp32 => 0,
                crate::commopt::GradDtype::Bf16 => 1,
                crate::commopt::GradDtype::Fp8 => 2,
            })
            .push_f64(self.comm.compress_ratio);
        fp.finish()
    }
}

/// Plan `ir` onto `cluster` by running the staged compile pipeline
/// (`DegreeInference → Placement → BridgeInsertion → Balance → Schedule →
/// CommOpt`). The passes can be cached and selectively re-run (see
/// [`crate::pipeline`] and [`crate::cache`]).
pub fn plan(ir: &WhaleIr, cluster: &Cluster, config: &PlannerConfig) -> Result<ExecutionPlan> {
    let state = crate::pipeline::compile(ir, cluster, config)?;
    let arc = state
        .plan
        .expect("compile() runs the Schedule pass, which always sets `plan`");
    // The state is freshly compiled and unshared, so this unwrap never
    // clones.
    Ok(std::sync::Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
}

/// Exit-tensor byte totals for every TaskGraph in a single sweep over the
/// graph's edges, equal to `tg.exit_tensors(graph).iter().map(|(_, b)| b)
/// .sum()` per TaskGraph: a producer counts once when any consumer lives
/// outside its TaskGraph, and the per-TaskGraph u64 sums are
/// order-independent. TaskGraphs that share an op or name one out of range
/// are [`PlanError::BadIr`]; `WhaleIr::validate` refuses both before
/// placement runs.
pub(crate) fn stage_boundary_bytes(
    graph: &whale_graph::Graph,
    task_graphs: &[TaskGraph],
) -> Result<Vec<u64>> {
    const UNASSIGNED: u32 = u32::MAX;
    let mut stage_of = vec![UNASSIGNED; graph.len()];
    for (tg_idx, tg) in task_graphs.iter().enumerate() {
        for op in &tg.ops {
            let slot = stage_of
                .get_mut(op.0)
                .ok_or_else(|| PlanError::BadIr(format!("op {} out of range", op.0)))?;
            if *slot != UNASSIGNED {
                return Err(PlanError::BadIr(format!(
                    "op {} is in two TaskGraphs",
                    op.0
                )));
            }
            *slot = tg_idx as u32;
        }
    }
    let mut exits = vec![false; graph.len()];
    for op in graph.ops() {
        let consumer_stage = stage_of[op.id.0];
        for &input in &op.inputs {
            if stage_of[input.0] != consumer_stage {
                exits[input.0] = true;
            }
        }
    }
    let mut sums = vec![0u64; task_graphs.len()];
    for op in graph.ops() {
        if exits[op.id.0] && stage_of[op.id.0] != UNASSIGNED {
            sums[stage_of[op.id.0] as usize] += op.output_bytes();
        }
    }
    Ok(sums)
}

/// Auto-partition a pipeline into one stage per GPU of a plan replica
/// (Example 4: "the stage number is set to the number of virtual devices"),
/// returning the stage TaskGraphs and each stage's cost profile.
pub(crate) fn auto_stages(
    ir: &WhaleIr,
    cluster: &Cluster,
    config: &PlannerConfig,
    group: &[usize],
    group_batch: usize,
    num_micro: usize,
    gpipe: bool,
) -> Result<(Vec<TaskGraph>, Vec<CostProfile>)> {
    let gpus: Vec<whale_hardware::Gpu> = group
        .iter()
        .map(|&id| Ok(*cluster.gpu(id)?))
        .collect::<Result<_>>()?;
    let micro_batch = (group_batch / num_micro).max(1);
    let (part, profiles) = crate::pipe_balance::pipeline_partition_profiled(
        &ir.graph,
        &config.training,
        &gpus,
        micro_batch,
        num_micro,
        gpipe,
        ir.global_batch.max(1),
        config.hardware_aware,
    )?;
    let tgs = (0..part.num_stages())
        .map(|k| TaskGraph::new(k, part.stage_ops(k), vec![Primitive::Stage]))
        .collect();
    Ok((tgs, profiles))
}

/// Resolve per-TaskGraph virtual devices inside plan replica 0.
pub(crate) fn resolve_devices(
    config: &PlannerConfig,
    group: &[usize],
    task_graphs: &[TaskGraph],
    pipelined: bool,
) -> Result<Vec<VirtualDevice>> {
    let num_stages = task_graphs.len();
    match &config.devices {
        DeviceAssignment::PerTaskGraph(vds) => {
            if vds.len() != num_stages {
                return Err(PlanError::BadDeviceAssignment(format!(
                    "{} virtual devices for {} TaskGraphs",
                    vds.len(),
                    num_stages
                )));
            }
            Ok(vds.clone())
        }
        DeviceAssignment::Auto => {
            // Without a pipeline, replica/split TaskGraphs execute
            // sequentially and share the whole virtual device — the MoE
            // layout of Example 8, where attention is replicated on all
            // GPUs and experts are split across the same GPUs. All-`stage`
            // TaskGraphs are vanilla model parallelism instead (Example 2)
            // and need disjoint placements, handled by the slicing below.
            let vanilla_mp = task_graphs
                .iter()
                .all(|tg| tg.innermost() == Primitive::Stage);
            if !pipelined && !vanilla_mp {
                let vd = VirtualDevice::new(group.to_vec())?;
                return Ok(vec![vd; num_stages]);
            }
            if !group.len().is_multiple_of(num_stages) {
                return Err(PlanError::BadDeviceAssignment(format!(
                    "{} GPUs not divisible across {} TaskGraphs",
                    group.len(),
                    num_stages
                )));
            }
            let per = group.len() / num_stages;
            (0..num_stages)
                .map(|i| {
                    VirtualDevice::new(group[i * per..(i + 1) * per].to_vec())
                        .map_err(PlanError::from)
                })
                .collect()
        }
    }
}

pub(crate) struct PlanTgArgs<'a> {
    pub(crate) ir: &'a WhaleIr,
    pub(crate) cluster: &'a Cluster,
    pub(crate) config: &'a PlannerConfig,
    pub(crate) tg: &'a TaskGraph,
    pub(crate) profile: &'a CostProfile,
    pub(crate) vd_gpus: &'a [usize],
    pub(crate) group_batch: usize,
    pub(crate) num_micro: usize,
    pub(crate) stage_index: usize,
    pub(crate) num_stages: usize,
    pub(crate) gpipe: bool,
    /// Plan-level DP degree (number of plan replicas) — combined with the
    /// in-group replica count it gives ZeRO its shard count.
    pub(crate) outer_dp: usize,
}

/// Pick nesting degrees `(split, replica)` with `split·replica = k`,
/// preferring the most balanced divisor pair.
pub(crate) fn nested_degrees(k: usize) -> (usize, usize) {
    let mut best = (k, 1);
    let mut best_gap = k;
    for s in 1..=k {
        if k.is_multiple_of(s) {
            let r = k / s;
            let gap = s.abs_diff(r);
            if gap < best_gap || (gap == best_gap && s > best.0) {
                best = (s, r);
                best_gap = gap;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Collective;
    use whale_ir::Annotator;

    #[test]
    fn boundary_bytes_match_exit_tensors_and_refuse_shared_ops() {
        let g = models::bert_base(8, 32).unwrap();
        let (half, n) = (g.len() / 2, g.len());
        let tg = |i, ops: std::ops::Range<usize>| {
            TaskGraph::new(i, ops.map(whale_graph::OpId).collect(), vec![])
        };
        let tgs = [tg(0, 0..half), tg(1, half..n)];
        let sums = stage_boundary_bytes(&g, &tgs).unwrap();
        let direct: Vec<u64> = tgs
            .iter()
            .map(|t| t.exit_tensors(&g).iter().map(|(_, b)| b).sum())
            .collect();
        assert_eq!(sums, direct);
        assert!(sums[0] > 0);
        // Shared ops and out-of-range ids are refused, not priced.
        for bad in [
            [tg(0, 0..half), tg(1, 0..half)],
            [tg(0, 0..half), tg(1, half..n + 1)],
        ] {
            let err = stage_boundary_bytes(&g, &bad).unwrap_err();
            assert!(matches!(err, PlanError::BadIr(_)), "{err}");
        }
    }

    #[test]
    fn nested_degree_selection() {
        assert_eq!(nested_degrees(4), (2, 2));
        assert_eq!(nested_degrees(8), (4, 2));
        assert_eq!(nested_degrees(1), (1, 1));
        assert_eq!(nested_degrees(6), (3, 2));
        assert_eq!(nested_degrees(7), (7, 1));
    }

    #[test]
    fn pure_dp_plan_on_hetero_cluster() {
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("8xV100+8xP100").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].devices.len(), 16);
        let total: usize = p.stages[0].devices.iter().map(|d| d.samples_per_step).sum();
        assert_eq!(total, 64);
        // V100 replicas get more samples.
        assert!(p.stages[0].devices[0].samples_per_step > p.stages[0].devices[8].samples_per_step);
        // One big gradient-sync group over 16 GPUs.
        assert_eq!(p.grad_syncs.len(), 1);
        assert_eq!(p.grad_syncs[0].group.len(), 16);
    }

    #[test]
    fn baseline_dp_is_uniform() {
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("8xV100+8xP100").unwrap();
        let cfg = PlannerConfig {
            hardware_aware: false,
            ..PlannerConfig::default()
        };
        let p = plan(&ir, &cluster, &cfg).unwrap();
        assert!(p.stages[0].devices.iter().all(|d| d.samples_per_step == 4));
    }

    #[test]
    fn auto_pipeline_plan() {
        let g = models::bert_base(8, 64).unwrap();
        let ir = Annotator::new(g, 8)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        assert_eq!(p.stages.len(), 4);
        assert_eq!(p.num_micro_batches, 4);
        // Stage i sits alone on GPU i.
        for (i, s) in p.stages.iter().enumerate() {
            assert_eq!(s.gpu_ids(), vec![i]);
        }
        // Non-final stages send activations.
        assert!(p.stages[0].send_bytes_per_micro > 0);
        assert_eq!(p.stages[3].send_bytes_per_micro, 0);
    }

    #[test]
    fn outer_dp_replicates_pipeline() {
        let g = models::bert_base(16, 64).unwrap();
        let ir = Annotator::new(g, 16)
            .outer_replica()
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("2x(4xV100)").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        assert_eq!(p.stages.len(), 4);
        // Each stage runs on one GPU per plan replica.
        for s in p.stages.iter() {
            assert_eq!(s.devices.len(), 2);
        }
        // Per-stage gradient sync across the two plan replicas.
        assert_eq!(p.grad_syncs.len(), 4);
        assert!(p.grad_syncs.iter().all(|c| c.group.len() == 2));
    }

    #[test]
    fn moe_hybrid_plan() {
        use whale_ir::Primitive;
        let g = models::m6_moe(models::MoeConfig::tiny(), 8).unwrap();
        let ir = Annotator::new(g, 8)
            .annotate_named("moe_ffn", vec![Primitive::Split])
            .unwrap()
            .set_default(Primitive::Replica)
            .finish()
            .unwrap();
        let cluster = Cluster::parse("1x(4xV100)").unwrap();
        let cfg = PlannerConfig {
            devices: DeviceAssignment::PerTaskGraph(
                (0..ir.num_task_graphs())
                    .map(|_| VirtualDevice::new((0..4).collect()).unwrap())
                    .collect(),
            ),
            ..PlannerConfig::default()
        };
        let p = plan(&ir, &cluster, &cfg).unwrap();
        // Split TaskGraphs launch AllToAll per micro batch.
        let has_a2a = p.stages.iter().any(|s| {
            s.collectives_per_micro
                .iter()
                .any(|c| c.kind == Collective::AllToAll)
        });
        assert!(has_a2a, "MoE plan must dispatch tokens with AllToAll");
        // Replica TGs sync over all 4 GPUs; split shards do not sync (single
        // plan replica).
        assert!(p.grad_syncs.iter().any(|c| c.group.len() == 4));
    }

    #[test]
    fn stage_taskgraph_requires_single_gpu_vd() {
        let g = models::bert_base(8, 64).unwrap();
        let n = g.len();
        let ir = Annotator::new(g, 8)
            .pipeline(4)
            .unwrap()
            .annotate_range(0, n / 2, vec![Primitive::Stage])
            .unwrap()
            .annotate_range(n / 2, n, vec![Primitive::Stage])
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("4xV100").unwrap();
        // Auto assignment gives each stage 2 GPUs → must fail loudly.
        let err = plan(&ir, &cluster, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::BadDeviceAssignment(_)));
    }

    #[test]
    fn plan_memory_accounting_reports_usage() {
        let g = models::bert_large(32, 128).unwrap();
        let ir = Annotator::new(g, 32)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("8xV100+8xP100").unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let mem = p.memory_totals(&cluster).unwrap();
        assert_eq!(mem.len(), 16);
        assert!(
            mem.iter().all(|m| m.is_some_and(|m| m > 1 << 30)),
            "params + overhead"
        );
    }
}
