//! The discrete-event execution engine.
//!
//! Simulates one training step of an [`ExecutionPlan`] on a [`Cluster`]:
//! pipeline tasks execute in dependency + control order, compute time follows
//! the paper's cost model `t = MF / (GF · α)`, cross-stage tensors pay the
//! interconnect, intra-stage collectives (split patterns, bridges) pay the
//! collective cost model, and gradient AllReduce runs hierarchically at the
//! end of the step, partially overlapped with backward compute.

use whale_hardware::{Cluster, GroupCache};
use whale_planner::{ExecutionPlan, PlannedStage, ScheduleKind, SyncMode};

use crate::error::{Result, SimError};
use crate::metrics::{GpuStat, StepStats};
use crate::schedule::{data_deps, stage_order, TaskKind};

/// Simulator options.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Pipeline schedule (must match what the plan's memory model assumed).
    pub schedule: ScheduleKind,
    /// Fraction of backward compute usable to hide gradient AllReduce
    /// (Whale overlaps sync with the tail of backward; 1.0 = full overlap,
    /// 0.0 = fully exposed sync).
    pub sync_overlap: f64,
    /// Half-saturation batch of the SM-occupancy model: kernels launched
    /// with `b` samples reach `b/(b + half_sat)` of full SM activity, which
    /// is why the paper's Table 2 shows P100 SMACT *dipping slightly* when
    /// the hardware-aware policy shrinks its batch. 0 disables the model
    /// (utilization = pure busy fraction).
    pub occupancy_half_sat: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            schedule: ScheduleKind::BackwardFirst,
            sync_overlap: 1.0,
            occupancy_half_sat: 16.0,
        }
    }
}

impl SimConfig {
    /// Default config with the given pipeline schedule — the knob the
    /// auto-parallel search sweeps (backward-first vs GPipe flush change
    /// in-flight activation lifetimes and hence bubble shape).
    pub fn with_schedule(schedule: ScheduleKind) -> Self {
        Self {
            schedule,
            ..Self::default()
        }
    }
}

/// Per-task timing record from a simulated step (feeds the trace exporter).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// What ran.
    pub kind: TaskKind,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// A simulated step: stats plus the task timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Aggregate metrics.
    pub stats: StepStats,
    /// Per-task records ordered by start time.
    pub timeline: Vec<TaskRecord>,
}

fn task_index(kind: TaskKind, num_micro: usize) -> usize {
    let base = kind.stage() * 2 * num_micro;
    match kind {
        TaskKind::Forward { micro, .. } => base + micro,
        TaskKind::Backward { micro, .. } => base + num_micro + micro,
    }
}

/// Inverse of [`task_index`]: decode the task at a dense index.
fn task_kind(idx: usize, num_micro: usize) -> TaskKind {
    let stage = idx / (2 * num_micro);
    let rem = idx % (2 * num_micro);
    if rem < num_micro {
        TaskKind::Forward { stage, micro: rem }
    } else {
        TaskKind::Backward {
            stage,
            micro: rem - num_micro,
        }
    }
}

/// Convert a plan collective's *total logical payload* into the per-rank
/// bytes the cost model expects. AllGather and AllToAll distribute the
/// payload across ranks (each rank contributes `1/n`); AllReduce,
/// ReduceScatter, and Broadcast operate on the full tensor per rank.
fn per_rank_bytes(c: &whale_planner::CollectiveTask) -> u64 {
    use whale_hardware::Collective;
    let n = c.group.len().max(1) as u64;
    match c.kind {
        Collective::AllGather | Collective::AllToAll => (c.bytes / n).max(1),
        Collective::AllReduce | Collective::ReduceScatter | Collective::Broadcast => c.bytes,
    }
}

/// Transfer time for the tensor flowing between two adjacent stages.
fn inter_stage_transfer(
    from: &PlannedStage,
    to: &PlannedStage,
    cluster: &Cluster,
    bytes: u64,
) -> Result<f64> {
    if bytes == 0 {
        return Ok(0.0);
    }
    // Co-located stages (e.g. alternating replica/split MoE TaskGraphs on
    // the same GPUs) hand tensors over in device memory.
    if from
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

/// Per-stage task durations and inter-stage transfer lags, computed once per
/// simulated step and shared by both schedulers.
struct StageTimes {
    /// Duration of one forward micro-task of each stage: the slowest
    /// device's compute plus the stage's per-micro collectives.
    fw: Vec<f64>,
    /// Same for one backward micro-task.
    bw: Vec<f64>,
    /// `(gpu, forward share, backward share)` of every device row, stage
    /// after stage; stage `s` owns `rows[row_start[s]..row_start[s + 1]]`.
    rows: Vec<(usize, f64, f64)>,
    row_start: Vec<usize>,
    /// Largest backward share among each stage's devices.
    bw_max: Vec<f64>,
    /// Activation/gradient transfer lag across the boundary after stage `s`.
    xfer: Vec<f64>,
}

impl StageTimes {
    fn rows(&self, s: usize) -> &[(usize, f64, f64)] {
        &self.rows[self.row_start[s]..self.row_start[s + 1]]
    }
}

/// One pass over every device row and one price per stage collective:
/// forward and backward tasks of a stage pay the same collectives, so they
/// are priced once and shared.
fn stage_times(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    groups: &mut GroupCache<'_>,
) -> Result<StageTimes> {
    let num_stages = plan.stages.len();
    let (recompute, amp, efficiency) =
        (plan.training.recompute, plan.training.amp, plan.efficiency);
    // Backward ≈ 2× forward; recomputation replays the forward first.
    let bw_factor = if recompute { 3.0 } else { 2.0 };
    let mut fw = Vec::with_capacity(num_stages);
    let mut bw = Vec::with_capacity(num_stages);
    let mut bw_max = Vec::with_capacity(num_stages);
    let mut rows = Vec::new();
    let mut row_start = Vec::with_capacity(num_stages + 1);
    for stage in plan.stages.iter() {
        row_start.push(rows.len());
        let (mut max_fw, mut max_bw): (f64, f64) = (0.0, 0.0);
        for d in &stage.devices {
            let gpu = cluster.gpu(d.gpu)?;
            let amp_boost = if amp { gpu.model.amp_speedup() } else { 1.0 };
            // Roofline: compute-bound FLOPs at effective throughput plus the
            // bandwidth-bound traffic at device memory bandwidth (AMP halves
            // activation bytes).
            let traffic = d.mem_traffic_per_micro * if amp { 0.5 } else { 1.0 };
            let time = |factor: f64| {
                factor * d.fw_flops_per_micro / (gpu.flops() * amp_boost * efficiency)
                    + factor * traffic / gpu.model.memory_bandwidth()
            };
            let (t_fw, t_bw) = (time(1.0), time(bw_factor));
            rows.push((d.gpu, t_fw, t_bw));
            max_fw = max_fw.max(t_fw);
            max_bw = max_bw.max(t_bw);
        }
        let mut comm_time = 0.0;
        for c in &stage.collectives_per_micro {
            comm_time += groups
                .selector(&c.group)?
                .collective(c.kind, per_rank_bytes(c));
        }
        fw.push(max_fw + comm_time);
        bw.push(max_bw + comm_time);
        bw_max.push(max_bw);
    }
    row_start.push(rows.len());
    let mut xfer = vec![0.0; num_stages];
    for (s, slot) in xfer
        .iter_mut()
        .enumerate()
        .take(num_stages.saturating_sub(1))
    {
        *slot = inter_stage_transfer(
            &plan.stages[s],
            &plan.stages[s + 1],
            cluster,
            plan.stages[s].send_bytes_per_micro,
        )?;
    }
    Ok(StageTimes {
        fw,
        bw,
        rows,
        row_start,
        bw_max,
        xfer,
    })
}

/// Event-driven scheduler: an indegree-counted ready queue over the task
/// DAG, one visit per task, one relaxation per edge.
///
/// Produces bit-identical timelines to [`schedule_tasks_polling`]: task start
/// is `max(control-predecessor finish, data-dep finish + transfer lag)`, an
/// order-independent fold of `f64::max` over the same finish values, so the
/// traversal order cannot change any timestamp. That same order-independence
/// is why the ready queue is a plain LIFO stack rather than a `BinaryHeap`
/// keyed on ready time: a time-ordered heap costs `O(log n)` comparisons per
/// task to maintain an ordering the timestamps never observe (a heap-based
/// variant measured ~20% *slower* end to end than the polling rescan on a
/// 16×64 pipeline; the stack variant is >2× faster). Indegrees, task kinds,
/// and dependency edges all come from index arithmetic — the scheduler
/// allocates only its flat arrays, never a per-task `Vec`.
///
/// The win over polling is asymptotic and constant-factor at once: the
/// polling scheduler rescans stage cursors sweep after sweep (O(stages ×
/// tasks) on deep pipelines) and re-derives each task's dependency list via
/// `data_deps` on every readiness probe, while this one touches each DAG
/// edge exactly once.
fn schedule_tasks_event(
    num_stages: usize,
    num_micro: usize,
    times: &StageTimes,
    schedule: ScheduleKind,
) -> Result<(Vec<f64>, Vec<Option<TaskRecord>>)> {
    const NONE: u32 = u32::MAX;
    let n_tasks = num_stages * 2 * num_micro;
    let mut finish = vec![f64::NAN; n_tasks];
    let mut records: Vec<Option<TaskRecord>> = vec![None; n_tasks];

    // Control order: `order[pos] → order[pos + 1]` successor edges within
    // each stage, one slot per task.
    let mut control_next: Vec<u32> = vec![NONE; n_tasks];
    let mut has_control_pred = vec![false; n_tasks];
    for s in 0..num_stages {
        let order = stage_order(s, num_stages, num_micro, schedule);
        let mut prev = NONE;
        for kind in order {
            let idx = task_index(kind, num_micro) as u32;
            if prev != NONE {
                control_next[prev as usize] = idx;
                has_control_pred[idx as usize] = true;
            }
            prev = idx;
        }
    }

    // Indegree = control predecessor + data deps, both known from the task's
    // coordinates (see `data_deps`): F_{s,m} waits on F_{s−1,m} when s > 0;
    // B_{s,m} waits on F_{s,m} and on B_{s+1,m} when s+1 < S.
    let mut indegree: Vec<u8> = vec![0; n_tasks];
    let mut stack: Vec<u32> = Vec::with_capacity(num_stages.max(16));
    for idx in 0..n_tasks {
        let data = match task_kind(idx, num_micro) {
            TaskKind::Forward { stage, .. } => (stage > 0) as u8,
            TaskKind::Backward { stage, .. } => 1 + (stage + 1 < num_stages) as u8,
        };
        let deg = data + has_control_pred[idx] as u8;
        indegree[idx] = deg;
        if deg == 0 {
            stack.push(idx as u32);
        }
    }

    // `ready_acc[t]` accumulates max(finish + lag) over t's satisfied
    // dependencies; once the indegree hits zero it *is* the start time. The
    // LIFO pop order is just some topological order — the accumulated max is
    // complete by the time a task is visited, so every timestamp matches the
    // time-ordered traversal exactly.
    let mut ready_acc = vec![0.0f64; n_tasks];
    let mut scheduled = 0usize;
    while let Some(idx32) = stack.pop() {
        let idx = idx32 as usize;
        let kind = task_kind(idx, num_micro);
        let s = kind.stage();
        let dur = if kind.is_backward() {
            times.bw[s]
        } else {
            times.fw[s]
        };
        let start = ready_acc[idx];
        let done = start + dur;
        finish[idx] = done;
        records[idx] = Some(TaskRecord {
            kind,
            start,
            end: done,
        });
        scheduled += 1;

        // Release the control successor and the data dependents. Lags mirror
        // the polling scheduler: activations pay `xfer[s]` flowing into
        // stage s+1, gradients pay `xfer[s−1]` flowing back into stage s−1.
        let mut release = |dep_idx: usize, arrival: f64| {
            if arrival > ready_acc[dep_idx] {
                ready_acc[dep_idx] = arrival;
            }
            indegree[dep_idx] -= 1;
            if indegree[dep_idx] == 0 {
                stack.push(dep_idx as u32);
            }
        };
        if control_next[idx] != NONE {
            release(control_next[idx] as usize, done);
        }
        match kind {
            TaskKind::Forward { stage, .. } => {
                if stage + 1 < num_stages {
                    // F_{s+1,m} sits one stage-stride ahead.
                    release(idx + 2 * num_micro, done + times.xfer[stage]);
                }
                // B_{s,m} sits one micro-stride ahead in the same stage.
                release(idx + num_micro, done);
            }
            TaskKind::Backward { stage, .. } => {
                if stage > 0 {
                    release(idx - 2 * num_micro, done + times.xfer[stage - 1]);
                }
            }
        }
    }
    if scheduled < n_tasks {
        return Err(SimError::Schedule(
            "task DAG deadlocked (cyclic dependencies?)".into(),
        ));
    }
    Ok((finish, records))
}

/// The original polling scheduler, kept verbatim as the golden reference for
/// the event-driven one (see `tests/sim_equivalence.rs`) and as the "seed"
/// arm `fastpath_bench` measures against. Scheduled for deletion once the
/// event-driven scheduler has soaked for a few PRs.
fn schedule_tasks_polling(
    num_stages: usize,
    num_micro: usize,
    times: &StageTimes,
    schedule: ScheduleKind,
) -> Result<(Vec<f64>, Vec<Option<TaskRecord>>)> {
    // Per-stage control order, then a fixed-point pass over the task DAG.
    let orders: Vec<Vec<TaskKind>> = (0..num_stages)
        .map(|s| stage_order(s, num_stages, num_micro, schedule))
        .collect();

    let n_tasks = num_stages * 2 * num_micro;
    let mut finish = vec![f64::NAN; n_tasks];
    let mut records: Vec<Option<TaskRecord>> = vec![None; n_tasks];
    // Iterate stage orders round-robin until all tasks schedule; because the
    // control order within a stage and data deps across stages are acyclic,
    // each sweep schedules at least one task.
    let mut cursor = vec![0usize; num_stages];
    let mut stage_free = vec![0.0f64; num_stages];
    let mut scheduled = 0usize;
    while scheduled < n_tasks {
        let mut progressed = false;
        for s in 0..num_stages {
            while cursor[s] < orders[s].len() {
                let kind = orders[s][cursor[s]];
                // All data deps done?
                let deps = data_deps(kind, num_stages);
                let mut ready_at = stage_free[s];
                let mut blocked = false;
                for dep in deps {
                    let di = task_index(dep, num_micro);
                    if finish[di].is_nan() {
                        blocked = true;
                        break;
                    }
                    // Add the tensor transfer on cross-stage edges.
                    let lag = match (dep, kind) {
                        (TaskKind::Forward { stage: ds, .. }, TaskKind::Forward { .. })
                            if ds != s =>
                        {
                            times.xfer[ds]
                        }
                        (TaskKind::Backward { stage: ds, .. }, TaskKind::Backward { .. })
                            if ds != s =>
                        {
                            // Gradient tensor flows back over the same link.
                            times.xfer[s]
                        }
                        _ => 0.0,
                    };
                    ready_at = ready_at.max(finish[di] + lag);
                }
                if blocked {
                    break;
                }
                let dur = if kind.is_backward() {
                    times.bw[s]
                } else {
                    times.fw[s]
                };
                let idx = task_index(kind, num_micro);
                finish[idx] = ready_at + dur;
                stage_free[s] = finish[idx];
                records[idx] = Some(TaskRecord {
                    kind,
                    start: ready_at,
                    end: finish[idx],
                });
                cursor[s] += 1;
                scheduled += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(SimError::Schedule(
                "task DAG deadlocked (cyclic dependencies?)".into(),
            ));
        }
    }
    Ok((finish, records))
}

/// Assemble the start-ordered timeline by merging the presorted runs of the
/// index-ordered record array (each stage's forward block and backward block
/// are nondecreasing in start). Output order is the unique
/// `(start, task_index)` order — identical to sorting, in `O(n log stages)`
/// sequential passes.
fn merge_timeline(records: Vec<Option<TaskRecord>>, num_micro: usize) -> Vec<TaskRecord> {
    let n_tasks = records.len();
    let starts: Vec<f64> = records
        .iter()
        .map(|r| r.as_ref().map(|r| r.start).unwrap_or(f64::INFINITY))
        .collect();

    // Bottom-up two-way merge over index runs. Every run is a contiguous,
    // ascending index range throughout (initial runs are the per-stage F/B
    // blocks `[r·M, (r+1)·M)`, and merging neighbours preserves contiguity
    // of the *covered* range), so whenever starts tie the left run's index
    // is smaller — "take left on ties" IS the `(start, task_index)` order.
    let mut order: Vec<u32> = (0..n_tasks as u32).collect();
    let mut scratch: Vec<u32> = vec![0; n_tasks];
    let mut run_len = num_micro.max(1);
    while run_len < n_tasks {
        let mut lo = 0;
        while lo < n_tasks {
            let mid = (lo + run_len).min(n_tasks);
            let hi = (lo + 2 * run_len).min(n_tasks);
            let (mut a, mut b, mut o) = (lo, mid, lo);
            while a < mid && b < hi {
                // `<=` takes left on ties; starts are never NaN and never
                // -0.0 (nonnegative max-folds), so `<=` agrees with
                // `total_cmp`.
                if starts[order[a] as usize] <= starts[order[b] as usize] {
                    scratch[o] = order[a];
                    a += 1;
                } else {
                    scratch[o] = order[b];
                    b += 1;
                }
                o += 1;
            }
            scratch[o..o + (mid - a)].copy_from_slice(&order[a..mid]);
            let o2 = o + (mid - a);
            scratch[o2..o2 + (hi - b)].copy_from_slice(&order[b..hi]);
            lo = hi;
        }
        std::mem::swap(&mut order, &mut scratch);
        run_len *= 2;
    }

    let mut records = records;
    order
        .into_iter()
        .filter_map(|idx| records[idx as usize].take())
        .collect()
}

/// Simulate one training step of `plan` on `cluster`.
pub fn simulate_step(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    config: &SimConfig,
) -> Result<StepOutcome> {
    simulate_step_impl(plan, cluster, config, false)
}

/// [`simulate_step`] driven by the original polling scheduler instead of the
/// event-driven one. Exists so the golden-equivalence tests and
/// `fastpath_bench` can compare against the seed behavior; will be removed
/// once the event-driven scheduler has soaked for a few PRs.
#[doc(hidden)]
pub fn simulate_step_reference(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    config: &SimConfig,
) -> Result<StepOutcome> {
    simulate_step_impl(plan, cluster, config, true)
}

fn simulate_step_impl(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    config: &SimConfig,
    use_polling: bool,
) -> Result<StepOutcome> {
    plan.validate(cluster)?;
    // Every collective, sync and bucket below prices through one topology
    // per distinct group.
    let mut groups = GroupCache::new(cluster);
    let num_stages = plan.stages.len();
    let num_micro = plan.num_micro_batches;

    let times = stage_times(plan, cluster, &mut groups)?;
    let (finish, records) = if use_polling {
        schedule_tasks_polling(num_stages, num_micro, &times, config.schedule)?
    } else {
        schedule_tasks_event(num_stages, num_micro, &times, config.schedule)?
    };
    let fw_time = &times.fw;
    let bw_time = &times.bw;

    let mut compute_makespan = finish.iter().cloned().fold(0.0f64, f64::max);
    // PipeMare-style asynchrony (§6 future work): with no flush between
    // steps the pipeline stays full, so the amortized per-step span is the
    // bottleneck stage's work — warm-up and drain vanish.
    if config.schedule == ScheduleKind::AsyncNoFlush {
        let steady = (0..num_stages)
            .map(|s| (fw_time[s] + bw_time[s]) * num_micro as f64)
            .fold(0.0f64, f64::max);
        compute_makespan = steady;
    }

    // Per-GPU busy time: own compute share per task instance. `validate`
    // bounds every GPU id by the cluster, so per-GPU state lives in arrays
    // indexed by id.
    let num_gpus = cluster.num_gpus();
    let mut busy = vec![0.0f64; num_gpus];
    for s in 0..num_stages {
        for &(gpu, t, _) in times.rows(s) {
            busy[gpu] += t * num_micro as f64;
        }
        for &(gpu, _, t) in times.rows(s) {
            busy[gpu] += t * num_micro as f64;
        }
    }

    // Gradient synchronization. Each stage's AllReduce becomes *ready* when
    // that stage's last backward drains; syncs then serialize (they share
    // each node's NIC). `sync_overlap` interpolates readiness between fully
    // eager (1.0: start at backward completion, hiding in the pipeline
    // drain) and fully exposed (0.0: start only after the whole step's
    // compute). Backward tasks of stage `s` occupy the dense index range
    // `[s·2M + M, (s+1)·2M)`, so the drain time reads straight off `finish`.
    let stage_bw_done: Vec<f64> = (0..num_stages)
        .map(|s| {
            finish[s * 2 * num_micro + num_micro..(s + 1) * 2 * num_micro]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
        })
        .collect();
    let compute_makespan_tmp = finish.iter().cloned().fold(0.0f64, f64::max);
    // ZeRO-3 AllGathers sharded parameters on demand (~1.5x AllReduce
    // traffic, ref [31]).
    let zero_factor = plan.training.zero.comm_factor();
    // Plans carrying a *bucketed* grad-sync schedule take the event-driven
    // per-bucket path; everything else (legacy schedules, hand-built plans)
    // takes the original scalar-overlap model unchanged — bit-identical to
    // the pre-bucketing simulator (pinned by `tests/comm_equivalence.rs`).
    let bucketed = plan
        .grad_sync_schedule
        .as_ref()
        .filter(|s| s.mode == SyncMode::Bucketed);
    let (sync_total, sync_exposed) = if let Some(sched) = bucketed {
        // Event-driven bucket overlap: a bucket becomes ready when the last
        // backward op contributing to it finishes — the owning stage's last
        // backward task spans `[done − bw_dur, done]` and gradients
        // finalize at `ready_frac` through it. No interpolation constant.
        let mut sync_total = 0.0;
        // `(ready, tie-break gpu id, duration, group slot)` per bucket.
        let mut events: Vec<(f64, usize, f64, usize)> = Vec::with_capacity(sched.buckets.len());
        // Per-sync context (group topology, backward window) is derived
        // once per sync, not once per bucket.
        struct SyncCtx {
            slot: usize,
            done: f64,
            bw_dur: f64,
            tie: usize,
        }
        // Mixed-precision schedules serialize *wire* bytes on the NICs and
        // charge each bucket's quantize/dequantize passes; fp32 schedules
        // have `wire_bytes == bytes` and skip the quantize term entirely
        // (bit-identical to the pre-precision simulator).
        let scaled = sched.wire_scaled();
        let mut ctxs: Vec<Option<SyncCtx>> = std::iter::repeat_with(|| None)
            .take(plan.grad_syncs.len())
            .collect();
        for b in &sched.buckets {
            let c = plan.grad_syncs.get(b.sync_index).ok_or_else(|| {
                SimError::Schedule(format!(
                    "grad-sync schedule references unknown sync {}",
                    b.sync_index
                ))
            })?;
            let ctx = match &mut ctxs[b.sync_index] {
                Some(ctx) => ctx,
                empty => {
                    let stage_idx = c.stage.filter(|&s| s < num_stages);
                    empty.insert(SyncCtx {
                        slot: groups.slot(&c.group)?,
                        done: stage_idx
                            .map(|s| stage_bw_done[s])
                            .unwrap_or(compute_makespan_tmp),
                        bw_dur: stage_idx.map(|s| bw_time[s]).unwrap_or(0.0),
                        tie: c.group.iter().copied().min().unwrap_or(usize::MAX),
                    })
                }
            };
            let topo = groups.get(ctx.slot);
            let quant = if scaled && c.group.len() > 1 {
                whale_hardware::quantize_dequantize_cost(b.bytes, b.wire_bytes, topo.min_membw())
            } else {
                0.0
            };
            let dur = match b.algo {
                Some(algo) => topo.cost(algo, b.wire_bytes),
                None => topo.collective(c.kind, b.wire_bytes),
            } * zero_factor
                + quant;
            sync_total += dur;
            let ready = (ctx.done - (1.0 - b.ready_frac) * ctx.bw_dur).max(0.0);
            events.push((ready, ctx.tie, dur, ctx.slot));
        }
        // Stable sort keeps each sync's reverse-backward bucket order on
        // ties; the min-gpu tie-break keeps cross-sync order deterministic.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Buckets serialize per link, not globally: a cross-node collective
        // occupies every involved node's NIC, an intra-node one only that
        // node's local fabric — disjoint groups overlap freely.
        let mut nic_free = vec![0.0f64; cluster.num_nodes()];
        let mut local_free = vec![0.0f64; cluster.num_nodes()];
        let mut last_finish = 0.0f64;
        for (ready, _, dur, slot) in events {
            let nodes = groups.get(slot).nodes();
            let fin = if nodes.len() > 1 {
                let start = nodes.iter().fold(ready, |acc, &n| acc.max(nic_free[n]));
                let fin = start + dur;
                for &n in nodes {
                    nic_free[n] = fin;
                }
                fin
            } else {
                let n = nodes.first().copied().unwrap_or(0);
                let start = ready.max(local_free[n]);
                let fin = start + dur;
                local_free[n] = fin;
                fin
            };
            last_finish = last_finish.max(fin);
        }
        (sync_total, (last_finish - compute_makespan_tmp).max(0.0))
    } else {
        // `(ready, tie-break gpu id, duration)` per sync. The explicit
        // min-gpu-id tie-break keeps the serialization order stable when two
        // stages drain at exactly the same instant — equal ready times used
        // to fall back to the incidental insertion order, which refactors
        // could silently change.
        let mut syncs: Vec<(f64, usize, f64)> = Vec::with_capacity(plan.grad_syncs.len());
        let mut sync_total = 0.0;
        // A mixed-precision legacy schedule (fusion off, but a non-fp32
        // dtype or a compression factor) still shrinks the wire: each sync
        // moves its schedule's wire bytes and pays the quantize passes.
        // fp32 schedules — and plans with no schedule at all — take the
        // exact pre-existing expression.
        let wire_of = match plan.grad_sync_schedule.as_ref().filter(|s| s.wire_scaled()) {
            Some(sched) => sched.wire_bytes_per_sync(plan.grad_syncs.len()),
            None => vec![None; plan.grad_syncs.len()],
        };
        for (c, wire_sum) in plan.grad_syncs.iter().zip(wire_of) {
            let topo = groups.selector(&c.group)?;
            let (wire, quant) = match wire_sum {
                Some(wire) if c.group.len() > 1 => (
                    wire,
                    whale_hardware::quantize_dequantize_cost(c.bytes, wire, topo.min_membw()),
                ),
                _ => (c.bytes, 0.0),
            };
            let dur = topo.collective(c.kind, wire) * zero_factor + quant;
            sync_total += dur;
            let stage_idx = c.stage.filter(|&s| s < num_stages);
            let done = stage_idx
                .map(|s| stage_bw_done[s])
                .unwrap_or(compute_makespan_tmp);
            let ready = if num_micro == 1 {
                // Un-pipelined DP: gradients finalize layer by layer during
                // the single backward pass, so bucketed AllReduce overlaps
                // with the backward window itself (Horovod-style).
                let bw_busy = stage_idx.map(|s| times.bw_max[s]).unwrap_or(0.0);
                (done - config.sync_overlap * bw_busy).max(0.0)
            } else {
                // Pipelined: gradients accumulate across micro batches and
                // are final only after the stage's last backward; imperfect
                // overlap infrastructure shifts readiness toward the end of
                // compute.
                done + (1.0 - config.sync_overlap) * (compute_makespan_tmp - done)
            };
            let tie = c.group.iter().copied().min().unwrap_or(usize::MAX);
            syncs.push((ready, tie, dur));
        }
        syncs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut nic_free = 0.0f64;
        for (ready, _, dur) in syncs {
            nic_free = nic_free.max(ready) + dur;
        }
        (sync_total, (nic_free - compute_makespan_tmp).max(0.0))
    };

    // Optimizer update: parameter read-modify-write, memory-bandwidth bound.
    // ZeRO-Offload instead updates on the host and pays a PCIe round trip of
    // gradients down and fp16 parameters back (ref [34]).
    let mut optimizer_time: f64 = 0.0;
    for stage in plan.stages.iter() {
        // ZeRO shards the update across the ranks replicating this stage.
        let shards = if plan.training.zero.shards_optimizer() || plan.training.offload {
            stage.dp_degree.max(1) as f64
        } else {
            1.0
        };
        for d in &stage.devices {
            let gpu = cluster.gpu(d.gpu)?;
            let local_params = stage.param_bytes as f64;
            let t = if plan.training.offload {
                let grad_bytes = local_params / 4.0 * if plan.training.amp { 2.0 } else { 4.0 };
                let back_bytes = local_params / 4.0 * 2.0;
                (grad_bytes + back_bytes) / (shards * cluster.interconnect.pcie_bw)
            } else {
                3.0 * local_params / (shards * gpu.model.memory_bandwidth())
            };
            optimizer_time = optimizer_time.max(t);
        }
    }

    let step_time = compute_makespan + sync_exposed + optimizer_time;

    // Per-GPU sample share, for the occupancy model.
    let mut samples = vec![0usize; num_gpus];
    for stage in plan.stages.iter() {
        for d in &stage.devices {
            samples[d.gpu] = samples[d.gpu].max(d.samples_per_step);
        }
    }

    // Memory audit: the ledger's per-GPU totals (`memory_per_gpu`), visited
    // in id order.
    let mut mem = vec![0u64; num_gpus];
    let mut charged = vec![false; num_gpus];
    for e in &plan.memory_ledger().entries {
        mem[e.gpu] += e.bytes;
        charged[e.gpu] = true;
    }
    let mut oom = Vec::new();
    let mut per_gpu = Vec::new();
    for gpu_id in (0..num_gpus).filter(|&g| charged[g]) {
        let bytes = mem[gpu_id];
        let gpu = cluster.gpu(gpu_id)?;
        if bytes > gpu.memory_bytes() {
            oom.push(gpu_id);
        }
        let b = busy[gpu_id];
        let occupancy = if config.occupancy_half_sat > 0.0 {
            let s = samples[gpu_id] as f64;
            s / (s + config.occupancy_half_sat)
        } else {
            1.0
        };
        per_gpu.push(GpuStat {
            gpu: gpu_id,
            model: gpu.model,
            busy: b,
            utilization: if step_time > 0.0 {
                occupancy * b / step_time
            } else {
                0.0
            },
            mem_bytes: bytes,
            mem_capacity: gpu.memory_bytes(),
        });
    }

    // Records sit in task-index order: per stage, the forward block then the
    // backward block, each nondecreasing in start time (the control order
    // forces that within a stage). The comparator `(start, task_index)` is a
    // strict total order, so any correct sort yields one unique sequence —
    // and it matches what the seed's stable start-only sort produced on
    // index-ordered input. The fast path k-way-merges the 2·stages presorted
    // runs instead of sorting from scratch; the reference path keeps the
    // seed's sort. `tests/sim_equivalence.rs` pins the two together.
    let timeline = if use_polling {
        let mut timeline: Vec<TaskRecord> = records.into_iter().flatten().collect();
        timeline.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then_with(|| task_index(a.kind, num_micro).cmp(&task_index(b.kind, num_micro)))
        });
        timeline
    } else {
        merge_timeline(records, num_micro)
    };

    Ok(StepOutcome {
        stats: StepStats {
            step_time,
            compute_makespan,
            sync_time_total: sync_total,
            sync_time_exposed: sync_exposed,
            optimizer_time,
            throughput: if step_time > 0.0 {
                plan.global_batch as f64 / step_time
            } else {
                0.0
            },
            per_gpu,
            oom_gpus: oom,
        },
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Cluster;
    use whale_ir::Annotator;
    use whale_planner::{plan, PlannerConfig};

    fn dp_plan(hardware_aware: bool) -> (ExecutionPlan, Cluster) {
        let g = models::resnet50(128).unwrap();
        let ir = Annotator::new(g, 128)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("8xV100+8xP100").unwrap();
        let cfg = PlannerConfig {
            hardware_aware,
            ..PlannerConfig::default()
        };
        (plan(&ir, &cluster, &cfg).unwrap(), cluster)
    }

    #[test]
    fn dp_step_produces_sane_stats() {
        let (p, c) = dp_plan(true);
        let out = simulate_step(&p, &c, &SimConfig::default()).unwrap();
        let s = &out.stats;
        assert!(s.step_time > 0.0);
        assert!(s.throughput > 0.0);
        assert_eq!(s.per_gpu.len(), 16);
        assert!(s.per_gpu.iter().all(|g| g.utilization <= 1.0 + 1e-9));
        assert!(!s.has_oom());
    }

    #[test]
    fn hardware_aware_dp_beats_baseline() {
        // The Fig. 17 effect: balancing batches by FLOPS shortens the step.
        let (aware, c) = dp_plan(true);
        let (base, _) = dp_plan(false);
        let cfg = SimConfig::default();
        let t_aware = simulate_step(&aware, &c, &cfg).unwrap().stats.step_time;
        let t_base = simulate_step(&base, &c, &cfg).unwrap().stats.step_time;
        let speedup = t_base / t_aware;
        assert!(
            (1.15..1.75).contains(&speedup),
            "speedup {speedup} outside the paper's 1.2-1.4 neighbourhood"
        );
    }

    #[test]
    fn hardware_aware_raises_v100_utilization() {
        let (aware, c) = dp_plan(true);
        let (base, _) = dp_plan(false);
        let cfg = SimConfig::default();
        let u_aware = simulate_step(&aware, &c, &cfg).unwrap().stats;
        let u_base = simulate_step(&base, &c, &cfg).unwrap().stats;
        let v_aware = u_aware.utilization_by_model()["V100-32GB"];
        let v_base = u_base.utilization_by_model()["V100-32GB"];
        assert!(
            v_aware > v_base * 1.25,
            "V100 utilization should rise ≥1.25×: {v_base} → {v_aware}"
        );
    }

    #[test]
    fn pipeline_bubbles_shrink_with_more_micro_batches() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let mk = |micros: usize| {
            let g = models::bert_base(32, 64).unwrap();
            let ir = Annotator::new(g, 32)
                .auto_pipeline(micros)
                .unwrap()
                .finish()
                .unwrap();
            plan(&ir, &cluster, &PlannerConfig::default()).unwrap()
        };
        let cfg = SimConfig::default();
        let few = simulate_step(&mk(2), &cluster, &cfg).unwrap().stats;
        let many = simulate_step(&mk(16), &cluster, &cfg).unwrap().stats;
        assert!(
            many.bubble_ratio() < few.bubble_ratio(),
            "bubble {:.3} (m=16) vs {:.3} (m=2)",
            many.bubble_ratio(),
            few.bubble_ratio()
        );
    }

    #[test]
    fn backward_first_matches_gpipe_makespan_shape() {
        // Same pipeline: 1F1B and GPipe have similar makespans for equal
        // stage times (1F1B wins on memory, not time), so both should be
        // within a small factor.
        let cluster = Cluster::parse("4xV100").unwrap();
        let g = models::bert_base(32, 64).unwrap();
        let ir = Annotator::new(g, 32)
            .auto_pipeline(8)
            .unwrap()
            .finish()
            .unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let bf = simulate_step(&p, &cluster, &SimConfig::default())
            .unwrap()
            .stats;
        let gp = simulate_step(
            &p,
            &cluster,
            &SimConfig {
                schedule: ScheduleKind::GPipe,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .stats;
        let ratio = gp.compute_makespan / bf.compute_makespan;
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn schedule_choice_changes_the_simulated_timeline() {
        // The auto-parallel search treats the pipeline schedule as a search
        // dimension via `SimConfig::with_schedule`; the axis is only
        // meaningful if the simulator actually orders work differently.
        let cluster = Cluster::parse("4xV100").unwrap();
        let g = models::bert_base(32, 64).unwrap();
        let ir = Annotator::new(g, 32)
            .auto_pipeline(8)
            .unwrap()
            .finish()
            .unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let bf = simulate_step(
            &p,
            &cluster,
            &SimConfig::with_schedule(ScheduleKind::BackwardFirst),
        )
        .unwrap();
        let gp =
            simulate_step(&p, &cluster, &SimConfig::with_schedule(ScheduleKind::GPipe)).unwrap();
        assert_ne!(
            bf.timeline, gp.timeline,
            "backward-first and GPipe must order micro-batches differently"
        );
        // And the helper is the default config with only the schedule swapped.
        let c = SimConfig::with_schedule(ScheduleKind::GPipe);
        let d = SimConfig::default();
        assert_eq!(c.schedule, ScheduleKind::GPipe);
        assert_eq!(c.sync_overlap, d.sync_overlap);
        assert_eq!(c.occupancy_half_sat, d.occupancy_half_sat);
    }

    #[test]
    fn timeline_respects_pipeline_deps() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let g = models::bert_base(16, 64).unwrap();
        let ir = Annotator::new(g, 16)
            .auto_pipeline(4)
            .unwrap()
            .finish()
            .unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let out = simulate_step(&p, &cluster, &SimConfig::default()).unwrap();
        let find = |k: TaskKind| {
            out.timeline
                .iter()
                .find(|r| r.kind == k)
                .unwrap_or_else(|| panic!("missing {k:?}"))
                .clone()
        };
        // F_{1,0} starts after F_{0,0} ends.
        let f00 = find(TaskKind::Forward { stage: 0, micro: 0 });
        let f10 = find(TaskKind::Forward { stage: 1, micro: 0 });
        assert!(f10.start >= f00.end);
        // B_{0,0} after B_{1,0}.
        let b10 = find(TaskKind::Backward { stage: 1, micro: 0 });
        let b00 = find(TaskKind::Backward { stage: 0, micro: 0 });
        assert!(b00.start >= b10.end);
        assert_eq!(out.timeline.len(), 4 * 2 * 4);
    }

    #[test]
    fn task_kind_round_trips_through_task_index() {
        for num_micro in [1usize, 3, 8] {
            for stage in 0..5 {
                for micro in 0..num_micro {
                    for kind in [
                        TaskKind::Forward { stage, micro },
                        TaskKind::Backward { stage, micro },
                    ] {
                        assert_eq!(task_kind(task_index(kind, num_micro), num_micro), kind);
                    }
                }
            }
        }
    }

    #[test]
    fn oom_detection_reports_gpus() {
        // BERT-Large replicas at a huge per-GPU batch on 16 GB P100s.
        let g = models::bert_large(512, 128).unwrap();
        let ir = Annotator::new(g, 512)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("2xP100").unwrap();
        let cfg = PlannerConfig {
            hardware_aware: false,
            ..PlannerConfig::default()
        };
        let p = plan(&ir, &cluster, &cfg).unwrap();
        let out = simulate_step(&p, &cluster, &SimConfig::default()).unwrap();
        assert!(out.stats.has_oom());
    }
}

#[cfg(test)]
mod async_tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Cluster;
    use whale_ir::Annotator;
    use whale_planner::{plan, PlannerConfig};

    #[test]
    fn async_schedule_removes_the_bubble() {
        let cluster = Cluster::parse("1x(4xV100)").unwrap();
        let g = models::bert_base(64, 64).unwrap();
        let ir = Annotator::new(g, 64)
            .auto_pipeline(8)
            .unwrap()
            .finish()
            .unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let sync = simulate_step(&p, &cluster, &SimConfig::default())
            .unwrap()
            .stats;
        let asynch = simulate_step(
            &p,
            &cluster,
            &SimConfig {
                schedule: ScheduleKind::AsyncNoFlush,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .stats;
        assert!(
            asynch.compute_makespan < sync.compute_makespan,
            "async {} vs sync {}",
            asynch.compute_makespan,
            sync.compute_makespan
        );
        // The async span equals the bottleneck stage's total work — the
        // sync span minus its bubble, approximately.
        let lower_bound = sync.compute_makespan * (1.0 - sync.bubble_ratio()) * 0.8;
        assert!(asynch.compute_makespan > lower_bound);
    }

    #[test]
    fn stale_gradient_efficiency_slows_convergence() {
        use crate::trainer::LossModel;
        let sync = LossModel::for_params(1e9);
        let stale = sync.with_sample_efficiency(0.5);
        assert!(stale.loss_at(1e7) > sync.loss_at(1e7));
        // Efficiency clamps into (0, 1].
        let clamped = sync.with_sample_efficiency(7.0);
        assert_eq!(clamped.sample_efficiency, 1.0);
    }
}
