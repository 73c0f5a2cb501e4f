//! Admissible lower bounds on a plan's simulated step time — the pruning
//! cost model of the auto-parallel driver (`whale::search`).
//!
//! Whale's planner reasons about candidate strategies without executing
//! them. This module prices a strategy twice: before planning, from
//! cluster aggregates ([`structural_lower_bound`]), and after planning,
//! from the plan's own stages ([`estimate_step_lower_bound`]). Both drop
//! only time the discrete-event simulator adds, so neither ever exceeds the
//! simulated step; the driver prunes a leaf only when its bound cannot
//! beat the incumbent, which keeps the winner exact. There is no
//! closed-form step estimate: ranking by an inadmissible estimate could
//! discard the true winner, and the simulator decides every winner.

use whale_hardware::{Cluster, GroupCache};

use crate::commopt::SyncMode;
use crate::cost;
use crate::error::Result;
use crate::plan::{ExecutionPlan, PlannedStage};

/// One stage's per-micro `(forward+backward, forward-only)` span (compute
/// roofline + collectives). The engine prices a forward task as
/// `roofline + collectives` and a backward task as `κ·roofline +
/// collectives`, so the pair is exactly `((1+κ)·t + 2·c, t + c)`.
fn stage_fw_bw(
    stage: &PlannedStage,
    groups: &mut GroupCache<'_>,
    amp: bool,
    bw_factor: f64,
    efficiency: f64,
) -> Result<(f64, f64)> {
    let cluster = groups.cluster();
    let mut t: f64 = 0.0;
    for d in &stage.devices {
        let gpu = cluster.gpu(d.gpu)?;
        t = t.max(cost::roofline(
            gpu,
            d.fw_flops_per_micro,
            d.mem_traffic_per_micro,
            amp,
            efficiency,
            1.0,
        ));
    }
    let comm_t = cost::stage_collectives(stage, groups)?;
    Ok((t * (1.0 + bw_factor) + comm_t * 2.0, t + comm_t))
}

/// Structural description of one auto-search node *before* planning —
/// everything the admissible pre-plan lower bound needs, with no plan in
/// hand. The search driver prices thousands of these per search, so the
/// bound is closed-form over cluster-wide aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralBound {
    /// Forward FLOPs one sample costs through the whole model.
    pub fw_flops_per_sample: f64,
    /// Samples per training step.
    pub global_batch: usize,
    /// Plan-level replica groups (outer DP degree; 1 = none).
    pub replicas: usize,
    /// Pipeline depth inside one replica group (1 = no pipeline).
    pub depth: usize,
    /// Micro batches per step.
    pub num_micro: usize,
    /// Devices sharing one stage's compute inside a group (1 for
    /// one-GPU-per-stage pipelines; the group size for split/replicated
    /// single-stage structures).
    pub stage_width: usize,
    /// AMP on (fast kernels run at `flops × amp_speedup`).
    pub amp: bool,
    /// Activation recomputation on (backward replays forward: the
    /// backward/forward cost ratio becomes 3 instead of 2).
    pub recompute: bool,
    /// Compute efficiency `α` of the cost model.
    pub efficiency: f64,
}

/// Admissible pre-plan lower bound on the simulated step time of any plan
/// with the given structure: the true (engine-simulated) step time of every
/// such plan is ≥ the returned value.
///
/// Two rigorous terms, both ignoring communication, pipeline bubbles, and
/// load imbalance (each only adds time in the engine):
///
/// * **work conservation** — total forward+backward FLOPs cannot finish
///   faster than the whole cluster running flat out:
///   `(1+κ)·F / Σ_g c_g` with `κ` the backward factor (2, or 3 under
///   recomputation) and `c_g = flops_g · α · amp_g` the effective rate;
/// * **pipeline fill** — some replica group carries ≥ `B/r` samples. For
///   any contiguous partition of its chain into `d` stages with per-micro
///   stage times `f_j` (forward + backward), data dependencies force the
///   step ≥ `Σ_{s<j} f_s + m·f_j` for every `j`: stage `j` cannot start
///   before the first micro batch ramps through its predecessors, must
///   serialize its own `m` tasks, and the last micro batch still drains
///   back through `s < j` (which contributes the `bw_s` half of the ramp
///   term). Minimizing the max of those `d` constraints over all ways to
///   split the chain (`Σ f_j = C`, the per-micro whole-chain time at the
///   globally fastest rate) gives the closed form
///   `C / (1 − (1 − 1/m)^d)`, which every concrete partition — and hence
///   every plan with this structure — can only exceed. It degenerates to
///   `C` at `m = 1`, `m·C` at `d = 1`, and `C·m/d` as `m → ∞`, so it
///   dominates both the naive critical-chain and average-stage bounds.
///
/// **Heterogeneity refinement.** For one-GPU-per-stage pipelines that tile
/// the whole cluster (`replicas · depth = |GPUs|`), the planner's replica
/// groups are contiguous device ranges, so the *set* of per-stage rates in
/// each group is known before any plan exists. Redoing the waterfilling
/// with per-stage rates `c_j`: equalizing the `d` constraints gives
/// `f_j = (T/m)·q^{j−1}` with `q = 1 − 1/m`, and the work constraint
/// `Σ f_j · c_j = W_group / m` closes to
///
/// ```text
/// T = W_group / Σ_j c_j · q^{j−1}
/// ```
///
/// Sorting the rates descending maximizes the denominator over every
/// possible stage→GPU order, so the value stays admissible no matter how
/// the planner assigns stages; some group carries ≥ `B/r` samples
/// (pigeonhole), priced against the largest group denominator. With
/// uniform rates the formula reduces exactly to the closed form above, and
/// on mixed clusters its large-`m` plateau is the *group's* aggregate rate
/// rather than `d` copies of the fastest — the slack that used to let
/// every high-micro leaf through the pre-plan gate on V100+P100 clusters.
pub fn structural_lower_bound(b: &StructuralBound, cluster: &Cluster) -> f64 {
    let work =
        (1.0 + cost::backward_factor(b.recompute)) * b.fw_flops_per_sample * b.global_batch as f64;
    let mut total_rate = 0.0_f64;
    let mut max_rate = 0.0_f64;
    for g in cluster.gpus() {
        let rate = cost::effective_rate(g, b.amp, b.efficiency);
        total_rate += rate;
        max_rate = max_rate.max(rate);
    }
    if total_rate <= 0.0 || max_rate <= 0.0 {
        return 0.0;
    }
    let conservation = work / total_rate;
    let m = b.num_micro.max(1) as f64;
    let d = b.depth.max(1) as f64;
    let replicas = b.replicas.max(1);
    let group_work = work / replicas as f64;
    let fill = if b.depth > 1 && b.stage_width == 1 && replicas * b.depth == cluster.num_gpus() {
        let q = 1.0 - 1.0 / m;
        let mut denom = 0.0_f64;
        // One rate buffer for every replica group: the search prices this
        // bound for each of its leaves.
        let mut rates: Vec<f64> = Vec::with_capacity(b.depth);
        for group in cluster.gpus().chunks(b.depth) {
            rates.clear();
            rates.extend(
                group
                    .iter()
                    .map(|gpu| cost::effective_rate(gpu, b.amp, b.efficiency)),
            );
            rates.sort_by(|x, y| y.total_cmp(x));
            let (mut dsum, mut wgt) = (0.0_f64, 1.0_f64);
            for &c in &rates {
                dsum += c * wgt;
                wgt *= q;
            }
            denom = denom.max(dsum);
        }
        if denom > 0.0 {
            group_work / denom
        } else {
            0.0
        }
    } else {
        let chain = group_work / (m * b.stage_width.max(1) as f64 * max_rate);
        chain / (1.0 - (1.0 - 1.0 / m).powf(d))
    };
    conservation.max(fill)
}

/// Admissible post-plan lower bound on `plan`'s simulated step time,
/// pricing every collective through `groups` (the cluster's topologies,
/// shared across the plans of one search).
///
/// Uses the engine's own per-micro task price, from the same
/// [`crate::cost`] functions — per-device FLOPs at effective rate plus
/// memory traffic at device bandwidth (backward = κ× forward) plus the
/// stage's per-micro collectives, charged once in each direction — and the
/// engine's inter-stage transfer lags, but drops everything else additive:
/// scheduling gaps and any sync serialization beyond the release-time term
/// below.
///
/// **Compute term.** For every stage `j`, data dependencies alone force
///
/// ```text
/// step ≥ Σ_{s<j} (fw_s + bw_s + 2·xfer_s)  +  m · (fw_j + bw_j)
///        └───── ramp in + drain out ──────┘    └─ j's serial tasks ─┘
/// ```
///
/// (micro 0's forwards must climb through stages `0..j`, paying the
/// activation transfer at each boundary, before `j` starts; stage `j` then
/// serializes its `m` forward+backward tasks; and the last micro's
/// backwards must descend through `j-1..0`, paying the gradient transfer at
/// each boundary); the bound is the max over `j`, which dominates both the
/// classic `m · max_s t_s` and `Σ_s t_s` terms.
///
/// **Sync term (unbucketed plans).** In the engine's legacy path every
/// gradient AllReduce serializes on one global NIC accumulator, and stage
/// `j`'s sync cannot *start* before a release time `R_j`:
///
/// * `m ≥ 2`: gradients accumulate across micro batches, so readiness is
///   stage `j`'s last backward — no earlier than
///   `R_j = Σ_{s<j} (fw_s + xfer_s) + m·(fw_j + bw_j)` (micro 0's forward
///   ramp, then `j`'s own 2m serialized tasks);
/// * `m = 1`: Horovod-style overlap lets the sync start up to one backward
///   span early, leaving `R_j = Σ_{s<j} (fw_s + xfer_s) + fw_j`;
/// * stage-less syncs release at the full compute makespan, so `R` is the
///   compute term itself.
///
/// A single serial resource with release times obeys, for every subset `S`
/// of syncs, `finish ≥ min_{j∈S} R_j + Σ_{j∈S} dur_j`; the maximizing `S`
/// is a suffix of the syncs sorted by descending `R`, so the bound sweeps
/// those suffixes. The step is then
/// `max(compute, release-bound) + optimizer`, since the engine computes
/// `step = max(compute makespan, last sync finish) + optimizer` with the
/// same sync durations ([`crate::cost::legacy_syncs`]) and optimizer
/// price. Bucketed schedules overlap across disjoint node
/// groups, so no admissible serialization term exists and they contribute
/// nothing. (Admissibility needs `sync_overlap ∈ [0, 1]`; the simulator
/// refuses any other value.)
///
/// Because the engine prices each task exactly this way and then only ever
/// *adds* time, the returned value never exceeds the simulated step time —
/// the admissibility the branch-and-bound search relies on (see
/// `tests/search_determinism.rs` and `tests/estimator_agreement.rs`).
pub fn estimate_step_lower_bound(plan: &ExecutionPlan, groups: &mut GroupCache<'_>) -> Result<f64> {
    let cluster = groups.cluster();
    let m = plan.num_micro_batches.max(1) as f64;
    let amp = plan.training.amp;
    let bw_factor = cost::backward_factor(plan.training.recompute);
    let mut chain = 0.0_f64;
    let mut fw_ramp = 0.0_f64;
    let mut bottleneck = 0.0_f64;
    // Release-time lower bound per stage: earliest instant its gradient
    // sync could possibly start in the engine.
    let mut releases: Vec<f64> = Vec::with_capacity(plan.stages.len());
    for (s, stage) in plan.stages.iter().enumerate() {
        let (fw_bw, fw) = stage_fw_bw(stage, groups, amp, bw_factor, plan.efficiency)?;
        bottleneck = bottleneck.max(chain + m * fw_bw);
        releases.push(fw_ramp + if m >= 2.0 { m * fw_bw } else { fw });
        chain += fw_bw;
        fw_ramp += fw;
        // Boundary to the next stage: the engine lags cross-stage edges by
        // the activation transfer forward and the gradient transfer back.
        if let Some(next) = plan.stages.get(s + 1) {
            let xfer = cost::stage_transfer(stage, next, cluster)?;
            chain += 2.0 * xfer;
            fw_ramp += xfer;
        }
    }

    // Unbucketed gradient syncs serialize on one NIC accumulator in the
    // engine; collect each sync's (release bound, duration) — the engine's
    // own duration, from `cost::legacy_syncs` — and take the best suffix
    // bound over descending releases. Bucketed
    // schedules overlap across disjoint node groups; no admissible
    // serialization term there, so they contribute nothing.
    let bucketed = plan
        .grad_sync_schedule
        .as_ref()
        .is_some_and(|s| s.mode == SyncMode::Bucketed);
    let mut sync_finish = 0.0_f64;
    if !bucketed {
        let mut syncs: Vec<(f64, f64)> = Vec::with_capacity(plan.grad_syncs.len());
        for (c, dur) in plan
            .grad_syncs
            .iter()
            .zip(cost::legacy_syncs(plan, groups)?)
        {
            let release = c
                .stage
                .filter(|&s| s < plan.stages.len())
                .map(|s| releases[s])
                .unwrap_or(bottleneck);
            syncs.push((release, dur));
        }
        syncs.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut cum = 0.0;
        for (release, dur) in syncs {
            cum += dur;
            sync_finish = sync_finish.max(release + cum);
        }
    }

    // The optimizer update is charged unconditionally after compute + sync,
    // with the engine's exact price (bandwidth-bound read-modify-write, or
    // the ZeRO-Offload PCIe round trip).
    let mut optimizer_time: f64 = 0.0;
    for stage in plan.stages.iter() {
        for d in &stage.devices {
            let model = cluster.gpu(d.gpu)?.model;
            optimizer_time = optimizer_time.max(cost::optimizer_update(
                stage,
                model,
                &plan.training,
                cluster,
            ));
        }
    }

    Ok(bottleneck.max(sync_finish) + optimizer_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, PlannerConfig};
    use whale_graph::models;
    use whale_ir::Annotator;

    // The bounds live below whale-sim in the dependency order, so their
    // admissibility against the real simulator is checked in the
    // workspace-level `tests/estimator_agreement.rs`; here we check
    // internal consistency.

    #[test]
    fn lower_bounds_are_ordered() {
        // Pre-plan bound ≤ post-plan bound: the structural bound knows only
        // cluster aggregates, the post-plan bound prices the real stages
        // (and additionally charges collectives and transfer lags). The
        // post-plan bound's admissibility against the *simulator* is the
        // workspace-level `tests/estimator_agreement.rs`.
        let cluster = Cluster::parse("4xV100,4xP100").unwrap();
        let g = models::bert_base(64, 64).unwrap();
        let fw_per_sample = whale_graph::graph_stats(&g).forward_flops / 64.0;
        let ir = Annotator::new(g, 64)
            .auto_pipeline(8)
            .unwrap()
            .finish()
            .unwrap();
        let p = plan(&ir, &cluster, &PlannerConfig::default()).unwrap();
        let post = estimate_step_lower_bound(&p, &mut GroupCache::new(&cluster)).unwrap();
        assert!(post > 0.0, "post {post}");
        let b = StructuralBound {
            fw_flops_per_sample: fw_per_sample,
            global_batch: 64,
            replicas: 1,
            depth: p.stages.len(),
            num_micro: p.num_micro_batches,
            stage_width: 1,
            amp: p.training.amp,
            recompute: p.training.recompute,
            efficiency: p.efficiency,
        };
        let pre = structural_lower_bound(&b, &cluster);
        assert!(pre > 0.0 && pre <= post, "pre {pre} vs post {post}");
        // More micro batches can only lower the pre-plan bound's chain term.
        let wider = StructuralBound {
            num_micro: 4 * b.num_micro,
            ..b
        };
        assert!(structural_lower_bound(&wider, &cluster) <= pre);
    }
}
