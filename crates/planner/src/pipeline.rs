//! The staged compile pipeline: `DegreeInference → Placement →
//! BridgeInsertion → Balance → Schedule → CommOpt`.
//!
//! Whale's Fig. 5 describes planning as a sequence of distinct phases; this
//! module makes that sequence explicit. Each phase is a [`PlannerPass`] that
//! consumes earlier typed artifacts from a [`CompileState`] blackboard and
//! deposits its own:
//!
//! | pass              | artifact             | contents |
//! |-------------------|----------------------|----------|
//! | `DegreeInference` | [`InferredDegrees`]  | plan-level DP groups + per-group batches |
//! | `Placement`       | [`PlacedTaskGraphs`] | stage cuts, virtual devices, boundary bytes |
//! | `BridgeInsertion` | [`BridgedPlan`]      | inter-stage send bytes + bridge collectives |
//! | `Balance`         | [`BalancedStages`]   | per-device work + gradient-sync groups |
//! | `Schedule`        | `ExecutionPlan`      | assembled, validated plan |
//! | `CommOpt`         | (plan rewrite)       | bucketed grad-sync schedule + collective algorithms |
//!
//! The decomposition is **bit-identical** to the retained monolith
//! ([`crate::planner::plan_reference`]): every pass body is transplanted
//! code, and the only reordering — computing bridge collectives *before*
//! per-device balancing instead of after — is sound because bridges read
//! only placement artifacts, and the Schedule pass appends them to the
//! per-stage collective lists in the monolith's exact `(source stage, plan
//! replica)` order.
//!
//! Why bother: passes become individually cacheable and re-runnable. A
//! [`crate::cache::PlanCache`] stores the whole [`CompileState`] keyed on
//! content fingerprints, and [`replan`] re-runs only the passes a
//! [`ClusterDelta`] invalidates — a GPU degradation keeps degrees, placement
//! and bridges, re-running just Balance + Schedule on the new device rates.

use std::sync::Arc;

use whale_graph::CostProfile;
use whale_hardware::{Cluster, ClusterDelta, Collective, VirtualDevice};
use whale_ir::{Primitive, TaskGraph, WhaleIr};

use crate::bridge::{chain_bytes, connect};
use crate::error::{PlanError, Result};
use crate::plan::{CollectiveTask, ExecutionPlan, PlannedStage};
use crate::planner::{
    auto_stages, resolve_devices, stage_boundary_bytes, PlanTgArgs, PlannerConfig, ScheduleKind,
};

/// Identity of one compile pass, in pipeline order.
///
/// The derived `Ord` follows declaration order, which **is** the execution
/// order — [`CompilePipeline::run_from`] relies on it to decide which passes
/// to (re-)run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassId {
    /// Infer plan-level DP degree and split the batch across plan replicas.
    DegreeInference,
    /// Resolve stage cuts (auto-partition) and per-TaskGraph virtual devices.
    Placement,
    /// Compute inter-stage activation traffic and bridge collectives.
    BridgeInsertion,
    /// Hardware-aware per-device load balancing + gradient-sync groups.
    Balance,
    /// Assemble and validate the final [`ExecutionPlan`].
    Schedule,
    /// Derive the bucketed grad-sync schedule (fusion buckets + collective
    /// algorithm selection) and attach it to the plan.
    CommOpt,
}

impl PassId {
    /// All passes in execution order.
    pub const ALL: [PassId; 6] = [
        PassId::DegreeInference,
        PassId::Placement,
        PassId::BridgeInsertion,
        PassId::Balance,
        PassId::Schedule,
        PassId::CommOpt,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PassId::DegreeInference => "degree-inference",
            PassId::Placement => "placement",
            PassId::BridgeInsertion => "bridge-insertion",
            PassId::Balance => "balance",
            PassId::Schedule => "schedule",
            PassId::CommOpt => "comm-opt",
        }
    }
}

/// Artifact of [`PassId::DegreeInference`]: how many plan replicas exist and
/// how the global batch divides among them.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredDegrees {
    /// Plan-level data-parallel degree (1 without `outer_replica`).
    pub outer_dp: usize,
    /// GPU ids of each plan replica, contiguous slices of the cluster.
    pub groups: Vec<Vec<usize>>,
    /// Per-replica mini-batch (flops-weighted when hardware-aware).
    pub group_batches: Vec<usize>,
    /// Micro batches per mini batch (1 without a pipeline).
    pub num_micro: usize,
    /// Whether the schedule is GPipe-style (affects in-flight accounting).
    pub gpipe: bool,
}

/// Artifact of [`PassId::Placement`]: concrete TaskGraphs and their device
/// mapping inside plan replica 0.
#[derive(Debug, Clone)]
pub struct PlacedTaskGraphs {
    /// Stage TaskGraphs in execution order (auto-partitioned if requested).
    pub task_graphs: Vec<TaskGraph>,
    /// Per-stage cost profiles handed back by the memoized auto-partition
    /// (`None` when stages were given explicitly — Balance re-profiles).
    pub stage_profiles: Option<Vec<CostProfile>>,
    /// Virtual device of each TaskGraph within plan replica 0.
    pub vds0: Vec<VirtualDevice>,
    /// Memoized per-stage exit-tensor byte totals (`None` when memoization
    /// is off or TaskGraphs overlap; consumers fall back to `exit_tensors`).
    pub boundary_sums: Option<Vec<u64>>,
}

/// Artifact of [`PassId::BridgeInsertion`]: everything that crosses a stage
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct BridgedPlan {
    /// Per-stage activation bytes sent to the next stage per micro batch
    /// (0 for the last stage).
    pub send_bytes: Vec<u64>,
    /// Bridge collectives as `(target stage, task)`, in the monolith's
    /// insertion order: outer loop over source stage, inner over plan
    /// replica.
    pub bridges: Vec<(usize, CollectiveTask)>,
}

/// Artifact of [`PassId::Balance`]: fully balanced stages (device work and
/// in-stage collectives) plus raw gradient-sync groups.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancedStages {
    /// Planned stages, one per TaskGraph, with bridge collectives already
    /// appended to their target stages (sound because `BridgeInsertion`
    /// precedes `Balance`, so bridges can never change without this pass
    /// rerunning). Behind an [`Arc`] so the Schedule pass assembles the
    /// final plan by sharing, not cloning, the per-stage vectors.
    pub stages: Arc<Vec<PlannedStage>>,
    /// Gradient-sync collectives, fully materialized (a group of one GPU is
    /// never built) and [`Arc`]-shared with the plan for the same reason as
    /// `stages`.
    pub grad_syncs: Arc<Vec<CollectiveTask>>,
}

/// Blackboard of per-pass artifacts. Each slot is `None` until its pass has
/// run; invalidating a pass clears its slot and every later one.
#[derive(Debug, Clone, Default)]
pub struct CompileState {
    /// [`PassId::DegreeInference`] output.
    pub degrees: Option<InferredDegrees>,
    /// [`PassId::Placement`] output.
    pub placement: Option<PlacedTaskGraphs>,
    /// [`PassId::BridgeInsertion`] output.
    pub bridged: Option<BridgedPlan>,
    /// [`PassId::Balance`] output.
    pub balanced: Option<BalancedStages>,
    /// [`PassId::Schedule`] output: the finished plan, behind an [`Arc`] so
    /// cache hits and concurrent readers share it without a deep clone.
    pub plan: Option<Arc<ExecutionPlan>>,
    /// Every pass executed on this state, in order, across all (re-)runs.
    /// Cache hits return states without growing this log — tests use it to
    /// prove that a hit runs zero passes.
    pub passes_run: Vec<PassId>,
}

impl CompileState {
    /// Drop the artifacts of `start` and every later pass, keeping earlier
    /// ones for reuse.
    pub fn invalidate_from(&mut self, start: PassId) {
        if start <= PassId::DegreeInference {
            self.degrees = None;
        }
        if start <= PassId::Placement {
            self.placement = None;
        }
        if start <= PassId::BridgeInsertion {
            self.bridged = None;
        }
        if start <= PassId::Balance {
            self.balanced = None;
        }
        // CommOpt rewrites the plan in place (idempotently), so a
        // CommOpt-only invalidation keeps the scheduled plan for it to
        // re-derive the sync schedule from.
        if start <= PassId::Schedule {
            self.plan = None;
        }
    }

    /// Shared handle on the finished plan (an O(1) refcount bump).
    ///
    /// Panics if the Schedule pass has not run; every cached state and every
    /// state returned by [`compile`]/[`CompilePipeline::run_from`] holds a
    /// plan.
    pub fn plan_arc(&self) -> Arc<ExecutionPlan> {
        self.plan
            .clone()
            .expect("finished compile states always hold a plan")
    }

    pub(crate) fn missing(dep: PassId, of: PassId) -> PlanError {
        PlanError::BadConfig(format!(
            "compile pipeline ran `{}` without the `{}` artifact (pass ordering bug)",
            of.name(),
            dep.name()
        ))
    }
}

/// Immutable inputs shared by every pass.
#[derive(Debug, Clone, Copy)]
pub struct PassContext<'a> {
    /// The annotated model.
    pub ir: &'a WhaleIr,
    /// The target cluster. During [`replan`] this is the *post-delta*
    /// cluster, so re-run passes see the new device rates.
    pub cluster: &'a Cluster,
    /// Planner options.
    pub config: &'a PlannerConfig,
}

/// One compile pass: reads earlier artifacts from the state, writes its own.
pub trait PlannerPass {
    /// Which pipeline slot this pass fills.
    fn id(&self) -> PassId;
    /// Execute, depositing this pass's artifact into `state`.
    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()>;
}

/// Pass 1: validate the IR, infer the plan-level DP degree, and split the
/// global batch across plan replicas (flops-weighted when hardware-aware).
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeInference;

impl PlannerPass for DegreeInference {
    fn id(&self) -> PassId {
        PassId::DegreeInference
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let (ir, cluster, config) = (cx.ir, cx.cluster, cx.config);
        ir.validate()?;
        let num_gpus = cluster.num_gpus();
        if num_gpus == 0 {
            return Err(PlanError::BadConfig("empty cluster".into()));
        }

        // Plan-level data parallelism: split the cluster into `outer_dp`
        // contiguous groups.
        let outer_dp = if ir.outer_replica {
            let r = if config.outer_dp == 0 {
                cluster.num_nodes()
            } else {
                config.outer_dp
            };
            if r == 0 || !num_gpus.is_multiple_of(r) {
                return Err(PlanError::BadConfig(format!(
                    "{num_gpus} GPUs not divisible into {r} plan replicas"
                )));
            }
            r
        } else {
            1
        };
        let group_size = num_gpus / outer_dp;
        let groups: Vec<Vec<usize>> = (0..outer_dp)
            .map(|g| (g * group_size..(g + 1) * group_size).collect())
            .collect();

        // Split the global batch across plan replicas.
        let group_weights: Vec<f64> = if config.hardware_aware {
            groups
                .iter()
                .map(|g| g.iter().map(|&id| cluster.gpus()[id].flops()).sum())
                .collect()
        } else {
            vec![1.0; outer_dp]
        };
        let group_batches = crate::partition::proportional_split(ir.global_batch, &group_weights)?;

        state.degrees = Some(InferredDegrees {
            outer_dp,
            groups,
            group_batches,
            num_micro: ir.pipeline.map(|p| p.num_micro_batches).unwrap_or(1),
            gpipe: config.schedule == ScheduleKind::GPipe,
        });
        Ok(())
    }
}

/// Pass 2: resolve TaskGraphs (auto-partition pipelines with the
/// hardware-aware balanced cut) and map each to a virtual device.
#[derive(Debug, Clone, Copy, Default)]
pub struct Placement;

impl PlannerPass for Placement {
    fn id(&self) -> PassId {
        PassId::Placement
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let (ir, cluster, config) = (cx.ir, cx.cluster, cx.config);
        let d = state
            .degrees
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::DegreeInference, self.id()))?;

        // The memoized partition hands back the per-stage profiles it
        // already computed for the final cuts; Balance then skips its own
        // re-profiling pass (bit-identical: same op ranges, same reference
        // batch).
        let (task_graphs, stage_profiles): (Vec<TaskGraph>, Option<Vec<CostProfile>>) =
            if ir.auto_partition && ir.task_graphs.is_empty() {
                auto_stages(
                    ir,
                    cluster,
                    config,
                    &d.groups[0],
                    d.group_batches[0],
                    d.num_micro,
                    d.gpipe,
                )?
            } else {
                (ir.task_graphs.clone(), None)
            };
        if task_graphs.is_empty() {
            return Err(PlanError::BadIr("no TaskGraphs to plan".into()));
        }

        let vds0 = resolve_devices(config, &d.groups[0], &task_graphs, ir.pipeline.is_some())?;

        // Boundary bytes: `exit_tensors` rescans the whole graph per
        // TaskGraph, an O(stages × ops) term that dominates deep-pipeline
        // planning. The memoized path replaces those scans with one pass
        // over the graph's edges; per-producer byte sums are u64, so the two
        // computations are exactly equal, not just approximately.
        let boundary_sums = if config.memoize {
            stage_boundary_bytes(&ir.graph, &task_graphs)
        } else {
            None
        };

        state.placement = Some(PlacedTaskGraphs {
            task_graphs,
            stage_profiles,
            vds0,
            boundary_sums,
        });
        Ok(())
    }
}

/// Pass 3: compute inter-stage activation traffic and the bridge
/// collectives between TaskGraphs of different parallelism (Figs. 7-9).
#[derive(Debug, Clone, Copy, Default)]
pub struct BridgeInsertion;

impl PlannerPass for BridgeInsertion {
    fn id(&self) -> PassId {
        PassId::BridgeInsertion
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let ir = cx.ir;
        let d = state
            .degrees
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::DegreeInference, self.id()))?;
        let p = state
            .placement
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::Placement, self.id()))?;
        let num_stages = p.task_graphs.len();

        // Inter-stage boundary bytes per micro batch (at the first group's
        // batch; groups are symmetric by construction).
        let mut send_bytes = Vec::with_capacity(num_stages);
        for (tg_idx, tg) in p.task_graphs.iter().enumerate() {
            let boundary: u64 = match &p.boundary_sums {
                Some(v) => v[tg_idx],
                None => tg
                    .exit_tensors(&ir.graph)
                    .iter()
                    .map(|(_, bytes)| bytes)
                    .sum(),
            };
            let micro_scale = if ir.global_batch > 0 {
                d.group_batches[0] as f64 / (d.num_micro as f64 * ir.global_batch as f64)
            } else {
                0.0
            };
            send_bytes.push(if tg_idx + 1 < num_stages {
                (boundary as f64 * micro_scale) as u64
            } else {
                0
            });
        }

        // Bridges between consecutive TaskGraphs (only meaningful outside
        // strict stage→stage pipelines, where the pattern is Identity
        // anyway).
        let mut bridges = Vec::new();
        for i in 0..num_stages.saturating_sub(1) {
            let (a, b) = (&p.task_graphs[i], &p.task_graphs[i + 1]);
            let deg_a = p.vds0[i].num_gpus();
            let deg_b = p.vds0[i + 1].num_gpus();
            // Same virtual device at equal degree: the tensor is already
            // distributed exactly as the consumer expects (the MoE layout —
            // replica output feeds the co-located shard directly; the split
            // pattern's own AllToAll performs any redistribution), so the
            // Gather/Partition pair fuses away entirely (Fig. 8).
            if deg_a == deg_b && p.vds0[i] == p.vds0[i + 1] {
                continue;
            }
            let chain = connect(a.innermost(), deg_a, b.innermost(), deg_b);
            if chain.is_empty() {
                continue;
            }
            let boundary: u64 = match &p.boundary_sums {
                Some(v) => v[i],
                None => a.exit_tensors(&ir.graph).iter().map(|(_, b)| b).sum(),
            };
            let micro_scale =
                d.group_batches[0] as f64 / (d.num_micro as f64 * ir.global_batch.max(1) as f64);
            let moved = (chain_bytes(&chain, boundary) as f64 * micro_scale) as u64;
            if moved == 0 {
                continue;
            }
            for (g, group) in d.groups.iter().enumerate() {
                let offset = group[0] - d.groups[0][0];
                let mut union: Vec<usize> = p.vds0[i]
                    .gpu_ids()
                    .iter()
                    .chain(p.vds0[i + 1].gpu_ids())
                    .map(|&id| id + offset)
                    .collect();
                union.sort_unstable();
                union.dedup();
                bridges.push((
                    i + 1,
                    CollectiveTask {
                        kind: Collective::Broadcast,
                        group: union,
                        bytes: moved,
                        label: format!("bridge tg{i}→tg{} (replica {g})", i + 1),
                        stage: Some(i + 1),
                    },
                ));
            }
        }

        state.bridged = Some(BridgedPlan {
            send_bytes,
            bridges,
        });
        Ok(())
    }
}

/// Membership test over one plan replica's GPU ids: a bitmap over the
/// replica's own id range. Replicas are contiguous id ranges, so the bitmap
/// has one slot per replica GPU.
struct GpuSet {
    lo: usize,
    member: Vec<bool>,
}

impl GpuSet {
    fn new(ids: &[usize]) -> GpuSet {
        let (Some(&lo), Some(&hi)) = (ids.iter().min(), ids.iter().max()) else {
            return GpuSet {
                lo: 0,
                member: Vec::new(),
            };
        };
        let mut member = vec![false; hi - lo + 1];
        for &id in ids {
            member[id - lo] = true;
        }
        GpuSet { lo, member }
    }

    fn contains(&self, id: usize) -> bool {
        id.checked_sub(self.lo)
            .and_then(|i| self.member.get(i))
            .is_some_and(|&m| m)
    }
}

/// Pass 4: hardware-aware load balancing — per-device batch/shard
/// assignment for every TaskGraph on every plan replica, plus gradient-sync
/// groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct Balance;

impl PlannerPass for Balance {
    fn id(&self) -> PassId {
        PassId::Balance
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let (ir, cluster, config) = (cx.ir, cx.cluster, cx.config);
        let d = state
            .degrees
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::DegreeInference, self.id()))?;
        let p = state
            .placement
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::Placement, self.id()))?;
        let br = state
            .bridged
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::BridgeInsertion, self.id()))?;
        let num_stages = p.task_graphs.len();

        let mut stages: Vec<PlannedStage> = Vec::with_capacity(num_stages);
        let mut grad_syncs: Vec<CollectiveTask> = Vec::new();
        // Run-scoped memo: dp-partition and split-pattern results repeat
        // across plan replicas (and across same-signature device slices on
        // heterogeneous clusters); replaying them is bit-identical because
        // both subroutines are pure (see `balance_memo`).
        let mut memo = crate::balance_memo::BalanceMemo::default();
        let mut vd_gpus: Vec<usize> = Vec::new();
        // Membership of each plan replica, built once: checking a virtual
        // device against it costs O(1) per GPU, not O(replica size).
        let members: Vec<GpuSet> = d.groups.iter().map(|g| GpuSet::new(g)).collect();

        for (tg_idx, tg) in p.task_graphs.iter().enumerate() {
            let profile = match &p.stage_profiles {
                Some(ps) => ps[tg_idx].clone(),
                None => tg.profile(&ir.graph, ir.global_batch.max(1)),
            };
            let mut devices = Vec::new();
            let mut collectives = Vec::new();

            for (g, group) in d.groups.iter().enumerate() {
                let offset = group[0];
                vd_gpus.clear();
                vd_gpus.extend(
                    p.vds0[tg_idx]
                        .gpu_ids()
                        .iter()
                        .map(|&id| id - d.groups[0][0] + offset),
                );
                for &id in &vd_gpus {
                    if !members[g].contains(id) {
                        return Err(PlanError::BadDeviceAssignment(format!(
                            "virtual device GPU {id} outside plan replica {g}"
                        )));
                    }
                }
                crate::balance_memo::plan_taskgraph_memo(
                    PlanTgArgs {
                        ir,
                        cluster,
                        config,
                        tg,
                        profile: &profile,
                        vd_gpus: &vd_gpus,
                        group_batch: d.group_batches[g],
                        num_micro: d.num_micro,
                        stage_index: tg_idx,
                        num_stages,
                        gpipe: d.gpipe,
                        outer_dp: d.outer_dp,
                    },
                    &mut memo,
                    &mut devices,
                    &mut collectives,
                )?;
            }

            // Gradient-sync groups: GPUs at the same (replica/shard)
            // position across plan replicas, or across DP replicas within a
            // group.
            crate::balance_memo::build_grad_syncs(
                tg,
                &profile,
                &p.vds0[tg_idx],
                &d.groups,
                config,
                &mut grad_syncs,
            );

            let dp_degree = match tg.strategies.as_slice() {
                [] | [Primitive::Replica] => p.vds0[tg_idx].num_gpus() * d.outer_dp,
                [Primitive::Split] => d.outer_dp,
                _ => d.outer_dp,
            }
            .max(1);
            stages.push(PlannedStage {
                index: tg_idx,
                devices,
                send_bytes_per_micro: br.send_bytes[tg_idx],
                collectives_per_micro: collectives,
                param_bytes: profile.param_bytes,
                dp_degree,
            });
        }

        // Append bridge collectives here rather than in Schedule: bridges
        // come from an *earlier* pass, so any change to them invalidates
        // Balance too, and folding them in lets Schedule share the stage
        // vector without a deep clone.
        for (target, task) in &br.bridges {
            stages[*target].collectives_per_micro.push(task.clone());
        }

        state.balanced = Some(BalancedStages {
            stages: Arc::new(stages),
            grad_syncs: Arc::new(grad_syncs),
        });
        Ok(())
    }
}

/// Pass 5: assemble the final [`ExecutionPlan`] — materialize gradient
/// syncs from the balanced stages and validate against the cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct Schedule;

impl PlannerPass for Schedule {
    fn id(&self) -> PassId {
        PassId::Schedule
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let d = state
            .degrees
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::DegreeInference, self.id()))?;
        let bal = state
            .balanced
            .as_ref()
            .ok_or_else(|| CompileState::missing(PassId::Balance, self.id()))?;

        // Share rather than clone: the Balance artifact stays intact (and
        // allocation-free to reuse) for a later Schedule-only re-run, e.g.
        // a link-bandwidth delta.
        let plan = ExecutionPlan {
            name: cx.ir.graph.name().to_string(),
            global_batch: cx.ir.global_batch,
            num_micro_batches: d.num_micro,
            stages: Arc::clone(&bal.stages),
            grad_syncs: Arc::clone(&bal.grad_syncs),
            grad_sync_schedule: None,
            training: cx.config.training,
            efficiency: cx.config.efficiency,
        };
        plan.validate(cx.cluster)?;
        state.plan = Some(Arc::new(plan));
        Ok(())
    }
}

/// An ordered sequence of [`PlannerPass`]es.
pub struct CompilePipeline {
    passes: Vec<Box<dyn PlannerPass + Send + Sync>>,
}

impl CompilePipeline {
    /// The standard six-pass Whale pipeline.
    pub fn standard() -> CompilePipeline {
        CompilePipeline {
            passes: vec![
                Box::new(DegreeInference),
                Box::new(Placement),
                Box::new(BridgeInsertion),
                Box::new(Balance),
                Box::new(Schedule),
                Box::new(crate::commopt::CommOpt),
            ],
        }
    }

    /// Build a pipeline from an explicit pass list (for swapping or
    /// instrumenting individual passes). Passes must be in strictly
    /// ascending [`PassId`] order.
    pub fn with_passes(passes: Vec<Box<dyn PlannerPass + Send + Sync>>) -> Result<CompilePipeline> {
        for w in passes.windows(2) {
            if w[0].id() >= w[1].id() {
                return Err(PlanError::BadConfig(format!(
                    "pipeline passes out of order: `{}` before `{}`",
                    w[0].id().name(),
                    w[1].id().name()
                )));
            }
        }
        Ok(CompilePipeline { passes })
    }

    /// Pass ids in execution order.
    pub fn pass_ids(&self) -> Vec<PassId> {
        self.passes.iter().map(|p| p.id()).collect()
    }

    /// Run every pass from scratch on a fresh state.
    pub fn run(&self, cx: &PassContext<'_>) -> Result<CompileState> {
        let mut state = CompileState::default();
        self.run_from(cx, &mut state, PassId::DegreeInference)?;
        Ok(state)
    }

    /// Invalidate `start` and everything after it, then re-run those passes
    /// on `state`, reusing every earlier artifact as-is.
    pub fn run_from(
        &self,
        cx: &PassContext<'_>,
        state: &mut CompileState,
        start: PassId,
    ) -> Result<()> {
        state.invalidate_from(start);
        state.passes_run.reserve(self.passes.len());
        for pass in &self.passes {
            if pass.id() >= start {
                pass.run(cx, state)?;
                state.passes_run.push(pass.id());
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for CompilePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompilePipeline")
            .field("passes", &self.pass_ids())
            .finish()
    }
}

/// Compile `ir` onto `cluster` with the standard pipeline, returning the
/// full artifact state (use [`plan()`](crate::plan()) if only the plan is
/// needed).
///
/// The standard pipeline is stateless (unit-struct passes), so one shared
/// instance serves every compile — rebuilding the boxed pass list per call
/// is measurable overhead under the auto-parallel search, which plans
/// dozens of leaves back to back.
pub fn compile(ir: &WhaleIr, cluster: &Cluster, config: &PlannerConfig) -> Result<CompileState> {
    static STANDARD: std::sync::OnceLock<CompilePipeline> = std::sync::OnceLock::new();
    STANDARD
        .get_or_init(CompilePipeline::standard)
        .run(&PassContext {
            ir,
            cluster,
            config,
        })
}

/// The earliest pass a [`ClusterDelta`] invalidates.
///
/// The matrix (see DESIGN.md §8):
///
/// * **structural** deltas (GPU added/removed) change the device set, so
///   degree inference, placement — everything — must re-run;
/// * **rate** deltas (degrade/restore) keep the device set; the elastic
///   approximation keeps stage cuts and bridges and re-runs Balance so
///   batch/shard assignments track the new throughput, then Schedule;
/// * **link-bandwidth** deltas change no quantity the planner writes into
///   the plan (bandwidth is consumed by the simulator/cost models), so only
///   the final assembly+validation re-runs.
pub fn invalidation_start(delta: &ClusterDelta) -> PassId {
    match delta {
        ClusterDelta::GpuAdded { .. } | ClusterDelta::GpuRemoved { .. } => PassId::DegreeInference,
        ClusterDelta::GpuDegraded { .. } | ClusterDelta::GpuRestored { .. } => PassId::Balance,
        ClusterDelta::LinkBandwidth { .. } => PassId::Schedule,
    }
}

/// Re-plan after a cluster change, re-running only the invalidated passes.
///
/// `state` must come from a prior [`compile`]/[`replan`] of the same `ir`
/// and `config`; `cluster` is the **post-delta** cluster (apply the delta
/// with [`Cluster::apply_delta`] first). For a degradation this re-runs
/// Balance + Schedule on the cached bridged plan — measurably cheaper than
/// a cold plan (see `replan_bench`).
pub fn replan(
    ir: &WhaleIr,
    cluster: &Cluster,
    config: &PlannerConfig,
    state: &mut CompileState,
    delta: &ClusterDelta,
) -> Result<Arc<ExecutionPlan>> {
    let cx = PassContext {
        ir,
        cluster,
        config,
    };
    CompilePipeline::standard().run_from(&cx, state, invalidation_start(delta))?;
    Ok(state.plan_arc())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_reference;
    use whale_graph::models;
    use whale_ir::Annotator;

    fn bert_ir() -> WhaleIr {
        let g = models::bert_base(32, 64).unwrap();
        Annotator::new(g, 32)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn pipeline_matches_reference_plan() {
        let ir = bert_ir();
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let a = crate::planner::plan(&ir, &cluster, &cfg).unwrap();
        let b = plan_reference(&ir, &cluster, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compile_exposes_all_artifacts() {
        let ir = bert_ir();
        let cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let state = compile(&ir, &cluster, &cfg).unwrap();
        assert!(state.degrees.is_some());
        assert!(state.placement.is_some());
        assert!(state.bridged.is_some());
        assert!(state.balanced.is_some());
        assert!(state.plan.is_some());
        assert_eq!(state.passes_run, PassId::ALL.to_vec());
        let p = state.placement.as_ref().unwrap();
        assert_eq!(p.task_graphs.len(), 4);
        assert_eq!(p.vds0.len(), 4);
    }

    #[test]
    fn degradation_replan_matches_cold_plan_structure() {
        let ir = bert_ir();
        let mut cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut state = compile(&ir, &cluster, &cfg).unwrap();
        let cold_stages = state.plan.as_ref().unwrap().stages.len();

        let delta = ClusterDelta::GpuDegraded { id: 1, scale: 0.5 };
        cluster.apply_delta(delta).unwrap();
        let replanned = replan(&ir, &cluster, &cfg, &mut state, &delta).unwrap();

        // Structure is kept (elastic approximation), only Balance+Schedule
        // re-ran.
        assert_eq!(replanned.stages.len(), cold_stages);
        assert_eq!(
            &state.passes_run[PassId::ALL.len()..],
            &[PassId::Balance, PassId::Schedule, PassId::CommOpt]
        );
        replanned.validate(&cluster).unwrap();
    }

    #[test]
    fn structural_delta_reruns_everything() {
        let g = models::resnet50(64).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let mut cluster = Cluster::parse("1x(4xV100)").unwrap();
        let cfg = PlannerConfig::default();
        let mut state = compile(&ir, &cluster, &cfg).unwrap();

        let delta = ClusterDelta::GpuRemoved { id: 3 };
        cluster.apply_delta(delta).unwrap();
        let replanned = replan(&ir, &cluster, &cfg, &mut state, &delta).unwrap();
        assert_eq!(replanned.stages[0].devices.len(), 3);
        assert_eq!(&state.passes_run[PassId::ALL.len()..], &PassId::ALL);
        // A full re-run equals a cold plan on the new cluster exactly.
        assert_eq!(
            *replanned,
            crate::planner::plan(&ir, &cluster, &cfg).unwrap()
        );
    }

    #[test]
    fn link_delta_reruns_schedule_only() {
        let ir = bert_ir();
        let mut cluster = Cluster::parse("4xV100").unwrap();
        let cfg = PlannerConfig::default();
        let mut state = compile(&ir, &cluster, &cfg).unwrap();
        let before = state.plan.clone().unwrap();

        let delta = ClusterDelta::LinkBandwidth {
            kind: whale_hardware::LinkKind::Network,
            bytes_per_sec: 1.25e9,
        };
        cluster.apply_delta(delta).unwrap();
        let after = replan(&ir, &cluster, &cfg, &mut state, &delta).unwrap();
        assert_eq!(
            &state.passes_run[PassId::ALL.len()..],
            &[PassId::Schedule, PassId::CommOpt]
        );
        // The plan itself carries no bandwidths — identical output; the
        // simulator picks the new rates up from the cluster.
        assert_eq!(before, after);
    }

    #[test]
    fn out_of_order_pipeline_rejected() {
        let err =
            CompilePipeline::with_passes(vec![Box::new(Placement), Box::new(DegreeInference)])
                .unwrap_err();
        assert!(matches!(err, PlanError::BadConfig(_)));
    }

    #[test]
    fn pass_order_is_total() {
        for w in PassId::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
