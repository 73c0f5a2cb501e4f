//! The discrete-event execution engine.
//!
//! Simulates one training step of an [`ExecutionPlan`] on a [`Cluster`]:
//! pipeline tasks execute in dependency + control order, compute time follows
//! the paper's cost model `t = MF / (GF · α)`, cross-stage tensors pay the
//! interconnect, intra-stage collectives (split patterns, bridges) pay the
//! collective cost model, and gradient AllReduce runs hierarchically at the
//! end of the step, partially overlapped with backward compute.

use std::fmt;

use whale_hardware::{Cluster, GpuModel, GroupCache};
use whale_planner::{cost, ExecutionPlan, LedgerRules, ScheduleKind, SyncMode};

use crate::error::{Result, SimError};
use crate::metrics::{GpuStat, StepStats};
use crate::schedule::{fill_stage_order, TaskKind};

/// Simulator options.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Pipeline schedule (must match what the plan's memory model assumed).
    pub schedule: ScheduleKind,
    /// Fraction of backward compute usable to hide gradient AllReduce
    /// (Whale overlaps sync with the tail of backward; 1.0 = full overlap,
    /// 0.0 = fully exposed sync). [`simulate_step`] refuses a value outside
    /// `[0, 1]` with [`SimError::SyncOverlapOutOfRange`].
    pub sync_overlap: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            schedule: ScheduleKind::BackwardFirst,
            sync_overlap: 1.0,
        }
    }
}

/// Half-saturation batch of the SM-occupancy model: kernels launched with
/// `b` samples reach `b/(b + OCCUPANCY_HALF_SAT)` of full SM activity, which
/// is why the paper's Table 2 shows P100 SMACT *dipping slightly* when the
/// hardware-aware policy shrinks its batch.
const OCCUPANCY_HALF_SAT: f64 = 16.0;

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

/// Most tasks one simulated step may schedule: 2²², 512× the 8,192 tasks
/// (32 stages × 2 × 128 micro batches) of the largest step the search
/// simulates. The scheduler's arrays and the kept timeline take about 40
/// bytes per task, so a step at the cap needs about 170 MB. A constant,
/// not an option.
pub const MAX_TASKS: usize = 1 << 22;

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
///
/// `{:?}` prints the timeline as the list of start-ordered records that
/// [`Timeline::records`] builds.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Aggregate metrics.
    pub stats: StepStats,
    /// Every task's start and end time.
    pub timeline: Timeline,
}

/// Every task's start and end time of a simulated step, in task-index
/// order: per stage, its forward micro batches, then its backward ones.
///
/// A step keeps only these two arrays. [`Timeline::records`] builds the
/// start-ordered [`TaskRecord`]s on each call, so only a caller that reads
/// them (the trace exporters, `{:?}`) pays for the merge. Two timelines are
/// equal exactly when their records are.
#[derive(Clone, PartialEq)]
pub struct Timeline {
    num_micro: usize,
    starts: Vec<f64>,
    ends: Vec<f64>,
}

impl Timeline {
    /// Number of tasks: stages × 2 × micro batches.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the step ran no task.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The tasks in `(start, task index)` order, built on every call.
    ///
    /// Each stage's forward block and backward block are nondecreasing in
    /// start (the control order forces that within a stage), so a
    /// bottom-up merge of those 2·stages presorted runs yields the order in
    /// `O(n log stages)` sequential passes. `(start, task index)` is a
    /// strict total order, so the merge and a sort agree exactly.
    pub fn records(&self) -> Vec<TaskRecord> {
        let n_tasks = self.len();
        let starts = &self.starts;

        // Bottom-up two-way merge over index runs. Every run is a
        // contiguous, ascending index range throughout (initial runs are
        // the per-stage F/B blocks `[r·M, (r+1)·M)`, and merging neighbours
        // preserves contiguity of the *covered* range), so whenever starts
        // tie the left run's index is smaller — "take left on ties" IS the
        // `(start, task_index)` order.
        let mut order: Vec<u32> = (0..n_tasks as u32).collect();
        let mut scratch: Vec<u32> = vec![0; n_tasks];
        let mut run_len = self.num_micro.max(1);
        while run_len < n_tasks {
            let mut lo = 0;
            while lo < n_tasks {
                let mid = (lo + run_len).min(n_tasks);
                let hi = (lo + 2 * run_len).min(n_tasks);
                let (mut a, mut b, mut o) = (lo, mid, lo);
                while a < mid && b < hi {
                    // `<=` takes left on ties; starts are never NaN and
                    // never -0.0 (nonnegative max-folds), so `<=` agrees
                    // with `total_cmp`.
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

        order
            .into_iter()
            .map(|idx| {
                let idx = idx as usize;
                TaskRecord {
                    kind: task_kind(idx, self.num_micro),
                    start: starts[idx],
                    end: self.ends[idx],
                }
            })
            .collect()
    }
}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.records()).finish()
    }
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

/// Per-stage task durations and inter-stage transfer lags, computed once per
/// simulated step.
struct StageTimes {
    /// Duration of one forward micro-task of each stage: the slowest
    /// device's compute plus the stage's per-micro collectives.
    fw: Vec<f64>,
    /// Same for one backward micro-task.
    bw: Vec<f64>,
    /// Largest backward share among each stage's devices.
    bw_max: Vec<f64>,
    /// Activation/gradient transfer lag across the boundary after stage `s`.
    xfer: Vec<f64>,
}

/// What a step adds up over every device row. The per-GPU vectors are
/// indexed by GPU id.
struct RowTotals {
    /// Each GPU's compute: every row's forward and backward share, times
    /// the micro-batch count.
    busy: Vec<f64>,
    /// Each GPU's largest sample share, for the occupancy model.
    samples: Vec<usize>,
    /// Each GPU's memory ledger total; `None` for a GPU the plan does not
    /// touch.
    mem: Vec<Option<u64>>,
    /// The optimizer update: the slowest row's parameter read-modify-write.
    optimizer_time: f64,
}

/// What a device row's times depend on besides the plan's constants: its
/// GPU's model and the bit patterns of its GPU's `throughput_scale` and of
/// its FLOPs and traffic per micro batch.
type RowKey = (GpuModel, u64, u64, u64);

/// One walk over each stage's device rows and one price per stage
/// collective: forward and backward tasks of a stage pay the same
/// collectives, so they are priced once and shared. The same walk adds up
/// each GPU's busy time, sample share and memory total, and the optimizer
/// term.
///
/// A row whose [`RowKey`] equals the last priced row's reuses that row's
/// times, so a run of equal rows — the replicas of one batch share, the
/// shards of one split — is priced once.
///
/// The plan must have passed [`ExecutionPlan::validate`] on `cluster`:
/// every row's GPU is read by id without a check.
fn stage_times(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    groups: &mut GroupCache<'_>,
) -> Result<(StageTimes, RowTotals)> {
    let num_stages = plan.stages.len();
    let training = &plan.training;
    let (amp, efficiency) = (training.amp, plan.efficiency);
    let bw_factor = cost::backward_factor(training.recompute);
    let num_micro = plan.num_micro_batches as f64;
    let ledger = LedgerRules::of(plan);
    let gpus = cluster.gpus();
    let mut fw = Vec::with_capacity(num_stages);
    let mut bw = Vec::with_capacity(num_stages);
    let mut bw_max = Vec::with_capacity(num_stages);
    let mut totals = RowTotals {
        busy: vec![0.0; gpus.len()],
        samples: vec![0; gpus.len()],
        mem: vec![None; gpus.len()],
        optimizer_time: 0.0,
    };
    // One stage's `(gpu, backward share)` per row: a stage adds every
    // row's forward share to its GPU's busy time before any row's backward
    // share, which fixes the rounding of a GPU listed twice in one stage.
    let mut bw_shares: Vec<(usize, f64)> = Vec::new();
    // The last priced row's inputs and its `(t_fw, t_bw)`.
    let mut last: Option<(RowKey, (f64, f64))> = None;
    for stage in plan.stages.iter() {
        let (mut max_fw, mut max_bw): (f64, f64) = (0.0, 0.0);
        let extras = ledger.stage_extras(stage);
        let mut last_model = None;
        bw_shares.clear();
        for d in &stage.devices {
            let gpu = &gpus[d.gpu];
            let key = (
                gpu.model,
                gpu.throughput_scale.to_bits(),
                d.fw_flops_per_micro.to_bits(),
                d.mem_traffic_per_micro.to_bits(),
            );
            let (t_fw, t_bw) = match last {
                Some((k, times)) if k == key => times,
                _ => {
                    let time = |factor| {
                        cost::roofline(
                            gpu,
                            d.fw_flops_per_micro,
                            d.mem_traffic_per_micro,
                            amp,
                            efficiency,
                            factor,
                        )
                    };
                    let times = (time(1.0), time(bw_factor));
                    last = Some((key, times));
                    times
                }
            };
            max_fw = max_fw.max(t_fw);
            max_bw = max_bw.max(t_bw);
            totals.busy[d.gpu] += t_fw * num_micro;
            bw_shares.push((d.gpu, t_bw));
            totals.samples[d.gpu] = totals.samples[d.gpu].max(d.samples_per_step);
            ledger.charge_row(&mut totals.mem[d.gpu], d, extras);
            // Within a stage the optimizer update depends only on the GPU
            // model, so it is priced once per change of model.
            if last_model.replace(gpu.model) != Some(gpu.model) {
                let t = cost::optimizer_update(stage, gpu.model, training, cluster);
                totals.optimizer_time = totals.optimizer_time.max(t);
            }
        }
        for &(gpu, t_bw) in &bw_shares {
            totals.busy[gpu] += t_bw * num_micro;
        }
        let comm_time = cost::stage_collectives(stage, groups)?;
        fw.push(max_fw + comm_time);
        bw.push(max_bw + comm_time);
        bw_max.push(max_bw);
    }
    let mut xfer = vec![0.0; num_stages];
    for (slot, pair) in xfer.iter_mut().zip(plan.stages.windows(2)) {
        *slot = cost::stage_transfer(&pair[0], &pair[1], cluster)?;
    }
    Ok((
        StageTimes {
            fw,
            bw,
            bw_max,
            xfer,
        },
        totals,
    ))
}

/// Event-driven scheduler: an indegree-counted ready queue over the task
/// DAG, one visit per task, one relaxation per edge.
///
/// A task starts at `max(control-predecessor finish, data-dep finish +
/// transfer lag)` over the edges
/// [`stage_order`](crate::schedule::stage_order) and
/// [`data_deps`](crate::schedule::data_deps) define: an order-independent
/// fold of `f64::max` over the same finish values, so the traversal order
/// cannot change any timestamp. That order-independence is why the ready
/// queue is a plain LIFO stack rather than a `BinaryHeap` keyed on ready
/// time: a time-ordered heap costs `O(log n)` comparisons per task to
/// maintain an ordering the timestamps never observe (a heap-based variant
/// measured ~20% *slower* end to end than a polling rescan of stage cursors
/// on a 16×64 pipeline; the stack variant is >2× faster than that rescan).
/// Indegrees, task kinds, and dependency edges all come from index
/// arithmetic — the scheduler allocates only its flat arrays and one
/// control-order buffer that every stage refills, never a per-task or
/// per-stage `Vec` — and it touches each DAG edge exactly once.
///
/// Returns each task's finish and start time in task-index order. The
/// caller has checked that `n_tasks` is at most [`MAX_TASKS`], so every
/// task index fits the `u32` slots.
fn schedule_tasks_event(
    num_stages: usize,
    num_micro: usize,
    times: &StageTimes,
    schedule: ScheduleKind,
) -> Result<(Vec<f64>, Vec<f64>)> {
    const NONE: u32 = u32::MAX;
    let n_tasks = num_stages * 2 * num_micro;
    let mut finish = vec![f64::NAN; n_tasks];

    // Control order: `order[pos] → order[pos + 1]` successor edges within
    // each stage, one slot per task.
    let mut control_next: Vec<u32> = vec![NONE; n_tasks];
    let mut has_control_pred = vec![false; n_tasks];
    let mut order = Vec::with_capacity(2 * num_micro);
    for s in 0..num_stages {
        fill_stage_order(&mut order, s, num_stages, num_micro, schedule);
        let mut prev = NONE;
        for &kind in &order {
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
    // dependencies; once the indegree hits zero it *is* the start time, and
    // nothing writes it again, so it is returned as the start array. The
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
        let done = ready_acc[idx] + dur;
        finish[idx] = done;
        scheduled += 1;

        // Release the control successor and the data dependents.
        // Activations pay `xfer[s]` flowing into stage s+1, gradients pay
        // `xfer[s−1]` flowing back into stage s−1 over the same link.
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
    Ok((finish, ready_acc))
}

/// Simulate one training step of `plan` on `cluster`.
///
/// A plan whose step has more than [`MAX_TASKS`] tasks (stages × 2 ×
/// micro batches) is refused with [`SimError::TooManyTasks`] before
/// anything is allocated per task.
pub fn simulate_step(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    config: &SimConfig,
) -> Result<StepOutcome> {
    // The post-plan search bound is admissible only for an overlap in
    // [0, 1]; outside it the legacy sync path charges a step the bound
    // cannot see.
    if !(0.0..=1.0).contains(&config.sync_overlap) {
        return Err(SimError::SyncOverlapOutOfRange(config.sync_overlap));
    }
    plan.validate(cluster)?;
    let num_stages = plan.stages.len();
    let num_micro = plan.num_micro_batches;
    // Each task gets a slot in the scheduler's arrays, so the count is
    // bounded before anything is sized by it.
    let tasks = num_stages
        .checked_mul(2)
        .and_then(|n| n.checked_mul(num_micro));
    if tasks.is_none_or(|n| n > MAX_TASKS) {
        return Err(SimError::TooManyTasks {
            stages: num_stages,
            micro_batches: num_micro,
            tasks,
        });
    }
    // Every collective, sync and bucket below prices through one topology
    // per distinct group.
    let mut groups = GroupCache::new(cluster);

    let (times, totals) = stage_times(plan, cluster, &mut groups)?;
    let (finish, starts) = schedule_tasks_event(num_stages, num_micro, &times, config.schedule)?;
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
        for (c, dur) in plan
            .grad_syncs
            .iter()
            .zip(cost::legacy_syncs(plan, &mut groups)?)
        {
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

    let optimizer_time = totals.optimizer_time;
    let step_time = compute_makespan + sync_exposed + optimizer_time;

    // Memory audit: the ledger's per-GPU totals, visited in id order.
    let mut oom = Vec::new();
    let mut per_gpu = Vec::new();
    for (gpu_id, total) in totals.mem.iter().enumerate() {
        let Some(bytes) = *total else { continue };
        let gpu = &cluster.gpus()[gpu_id];
        if bytes > gpu.memory_bytes() {
            oom.push(gpu_id);
        }
        let b = totals.busy[gpu_id];
        let s = totals.samples[gpu_id] as f64;
        let occupancy = s / (s + OCCUPANCY_HALF_SAT);
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
        timeline: Timeline {
            num_micro,
            starts,
            ends: finish,
        },
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
        let records = out.timeline.records();
        let find = |k: TaskKind| {
            records
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
        assert_eq!(records.len(), 4 * 2 * 4);
        assert_eq!(out.timeline.len(), records.len());
    }

    /// The event scheduler against the task-DAG spec on seeded random stage
    /// times: every task starts exactly when the last of its `stage_order`
    /// predecessor and its `data_deps` (plus transfer lag) ends, and the
    /// merged timeline lists every task once in `(start, task_index)` order.
    #[test]
    fn event_schedule_matches_the_dag_spec() {
        use crate::rng::SplitMix64;
        use crate::schedule::{data_deps, stage_order};

        let mut rng = SplitMix64::seed_from_u64(0x05EE_DDA6);
        for num_stages in 1..=6 {
            for num_micro in 1..=9 {
                for schedule in [
                    ScheduleKind::BackwardFirst,
                    ScheduleKind::GPipe,
                    ScheduleKind::AsyncNoFlush,
                ] {
                    let case = format!("{num_stages}x{num_micro} {schedule:?}");
                    // The scheduler reads only `fw`, `bw` and `xfer`.
                    let mut draw = || -> Vec<f64> {
                        (0..num_stages).map(|_| rng.range_f64(0.1, 2.0)).collect()
                    };
                    let times = StageTimes {
                        fw: draw(),
                        bw: draw(),
                        xfer: draw(),
                        bw_max: Vec::new(),
                    };
                    let (finish, starts) =
                        schedule_tasks_event(num_stages, num_micro, &times, schedule).unwrap();
                    for s in 0..num_stages {
                        let mut prev_end = 0.0f64;
                        for kind in stage_order(s, num_stages, num_micro, schedule) {
                            let idx = task_index(kind, num_micro);
                            let dur = if kind.is_backward() {
                                times.bw[s]
                            } else {
                                times.fw[s]
                            };
                            let (start, end) = (starts[idx], finish[idx]);
                            assert_eq!(end.to_bits(), (start + dur).to_bits(), "{case}");
                            // Activations flow into forward stage s over
                            // link s−1; gradients flow back into backward
                            // stage s over link s.
                            let want = data_deps(kind, num_stages).into_iter().fold(
                                prev_end,
                                |acc, dep| {
                                    let lag = match (dep, kind) {
                                        (TaskKind::Forward { .. }, TaskKind::Forward { .. }) => {
                                            times.xfer[s - 1]
                                        }
                                        (TaskKind::Backward { .. }, TaskKind::Backward { .. }) => {
                                            times.xfer[s]
                                        }
                                        _ => 0.0,
                                    };
                                    acc.max(finish[task_index(dep, num_micro)] + lag)
                                },
                            );
                            assert_eq!(start.to_bits(), want.to_bits(), "{case}: {kind:?}");
                            prev_end = end;
                        }
                    }

                    let n_tasks = num_stages * 2 * num_micro;
                    let timeline = Timeline {
                        num_micro,
                        starts,
                        ends: finish,
                    };
                    let records = timeline.records();
                    let mut seen = vec![false; n_tasks];
                    for r in &records {
                        let idx = task_index(r.kind, num_micro);
                        assert!(!seen[idx], "{case}: {:?} listed twice", r.kind);
                        seen[idx] = true;
                        let kept = (timeline.starts[idx], timeline.ends[idx]);
                        assert_eq!((r.start, r.end), kept, "{case}: {:?}", r.kind);
                    }
                    assert_eq!(records.len(), n_tasks, "{case}");
                    for w in records.windows(2) {
                        let a = (w[0].start, task_index(w[0].kind, num_micro));
                        let b = (w[1].start, task_index(w[1].kind, num_micro));
                        assert!(a.0 < b.0 || (a.0 == b.0 && a.1 < b.1), "{case}");
                    }
                }
            }
        }
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
