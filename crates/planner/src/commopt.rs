//! The communication optimizer: bucketed gradient fusion + per-group
//! collective algorithm selection (§4, "Gradient Synchronization").
//!
//! Whale hides gradient AllReduce behind backward compute. Real stacks
//! (Horovod's tensor fusion, ref \[35\]) get that overlap from *size-capped
//! fusion buckets* released in reverse backward order: as soon as the last
//! gradient contributing to a bucket finalizes, the bucket's AllReduce can
//! launch while earlier layers are still back-propagating. The [`CommOpt`]
//! pass reconstructs that schedule at plan time:
//!
//! * each gradient-sync group's payload is split along the model's layer
//!   structure into buckets of at most [`CommConfig::fusion_bytes`] bytes,
//!   ordered in **reverse backward order** (deepest layers first — their
//!   gradients finalize first);
//! * each bucket records a `ready_frac`: the fraction of the stage's
//!   backward work that must drain before the bucket's last gradient exists
//!   (derived from cumulative per-layer FLOPs, since backward time is
//!   proportional to forward FLOPs);
//! * when [`CommConfig::auto_algorithm`] is set, each bucket also records
//!   the cheapest AllReduce algorithm for its `(group, payload, topology)`
//!   via [`whale_hardware::CommModel::select_allreduce`] — small buckets
//!   ride the latency-optimal tree, large ones the bandwidth-optimal ring
//!   or hierarchical reduction.
//!
//! The simulator's event-driven grad-sync path consumes the resulting
//! [`GradSyncSchedule`] directly — no `sync_overlap` interpolation constant.
//! With fusion disabled (`fusion_bytes == 0`, the default) the schedule is
//! [`SyncMode::Legacy`]: one bucket per sync group under the legacy
//! algorithm, and the simulator takes the exact pre-existing code path
//! (bit-identical step times, pinned by `tests/comm_equivalence.rs`).

use std::collections::HashMap;

use whale_graph::Graph;
use whale_hardware::{AllReduceAlgo, Cluster, GroupCache};
use whale_ir::TaskGraph;

use crate::error::Result;
use crate::pipeline::{CompileState, PassContext, PassId, PlannerPass};
use crate::plan::{CollectiveTask, ExecutionPlan};

/// Default fusion-bucket cap: 25 MB, Horovod's long-standing default
/// (`HOROVOD_FUSION_THRESHOLD`) and the paper's reference stack.
pub const DEFAULT_FUSION_BYTES: u64 = 25 << 20;

/// Wire dtype of gradient collectives. Logical payloads are always
/// accounted in fp32 bytes (that is what `CollectiveTask::bytes` holds);
/// the wire dtype scales what actually crosses the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GradDtype {
    /// Full precision: wire bytes == logical bytes (the default; every
    /// pre-existing plan and step time is bit-identical under it).
    #[default]
    Fp32,
    /// Brain float 16: halves every AllReduce payload.
    Bf16,
    /// 8-bit floats (e4m3/e5m2-style): quarters every AllReduce payload.
    Fp8,
}

impl GradDtype {
    /// Bytes per gradient element on the wire.
    pub fn bytes_per_elem(self) -> u64 {
        match self {
            GradDtype::Fp32 => 4,
            GradDtype::Bf16 => 2,
            GradDtype::Fp8 => 1,
        }
    }

    /// Stable display name (`"fp32"`, `"bf16"`, `"fp8"`).
    pub fn name(self) -> &'static str {
        match self {
            GradDtype::Fp32 => "fp32",
            GradDtype::Bf16 => "bf16",
            GradDtype::Fp8 => "fp8",
        }
    }

    /// Parse a display name back into a dtype (the CLI's `--grad-dtype`).
    pub fn parse(s: &str) -> Option<GradDtype> {
        match s {
            "fp32" => Some(GradDtype::Fp32),
            "bf16" => Some(GradDtype::Bf16),
            "fp8" => Some(GradDtype::Fp8),
            _ => None,
        }
    }
}

/// Fractional bits of the fixed-point compression factor. Wire bytes are
/// computed with a single integer division so per-bucket amounts telescope
/// exactly (no float rounding drift across a group's bucket list).
const COMPRESS_FRAC_BITS: u32 = 32;

fn compress_numer(ratio: f64) -> u128 {
    let r = if ratio.is_finite() {
        ratio.clamp(0.0, 1.0)
    } else {
        1.0
    };
    (r * (1u64 << COMPRESS_FRAC_BITS) as f64).round() as u128
}

/// `floor(logical · dtype_bytes · ratio / 4)` in exact integer arithmetic.
/// For fp32 with ratio 1.0 this is the identity.
fn wire_scale(logical: u64, dtype: GradDtype, numer: u128) -> u64 {
    ((logical as u128 * dtype.bytes_per_elem() as u128 * numer) / (4u128 << COMPRESS_FRAC_BITS))
        as u64
}

/// Communication-optimizer options, part of
/// [`PlannerConfig`](crate::PlannerConfig) (and thus of every plan-cache
/// key).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommConfig {
    /// Fusion-bucket byte cap. `0` (the default) disables bucketing
    /// entirely: one bucket per sync group, legacy algorithm selection, and
    /// the simulator's original scalar-overlap model (bit-identical to the
    /// pre-optimizer behavior).
    pub fusion_bytes: u64,
    /// Pick the cheapest AllReduce algorithm (ring vs. tree vs.
    /// hierarchical) per bucket from the topology-aware cost model instead
    /// of the legacy default.
    pub auto_algorithm: bool,
    /// Wire dtype of gradient collectives. Non-fp32 dtypes shrink every
    /// bucket's wire bytes, re-running algorithm selection at the smaller
    /// payload, and charge a per-bucket quantize/dequantize compute term
    /// plus an fp32 master-weight + loss-scaling memory-ledger entry.
    pub grad_dtype: GradDtype,
    /// Optional gradient compression factor in `(0, 1]` applied on top of
    /// the dtype scaling (top-k / sketching-style). `1.0` (the default)
    /// means no compression. Values below 1 also charge an error-feedback
    /// residual in the memory ledger.
    pub compress_ratio: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            fusion_bytes: 0,
            auto_algorithm: false,
            grad_dtype: GradDtype::Fp32,
            compress_ratio: 1.0,
        }
    }
}

impl CommConfig {
    /// The recommended production setting: 25 MB buckets + automatic
    /// algorithm selection.
    pub fn fused() -> CommConfig {
        CommConfig {
            fusion_bytes: DEFAULT_FUSION_BYTES,
            auto_algorithm: true,
            ..CommConfig::default()
        }
    }

    /// Whether bucketed fusion is on.
    pub fn enabled(&self) -> bool {
        self.fusion_bytes > 0
    }

    /// Set the gradient wire dtype (builder style).
    pub fn dtype(mut self, dtype: GradDtype) -> CommConfig {
        self.grad_dtype = dtype;
        self
    }

    /// Communicate gradients in bf16 (halves every wire payload).
    pub fn bf16(self) -> CommConfig {
        self.dtype(GradDtype::Bf16)
    }

    /// Communicate gradients in fp8 (quarters every wire payload).
    pub fn fp8(self) -> CommConfig {
        self.dtype(GradDtype::Fp8)
    }

    /// Apply a compression factor in `(0, 1]` on top of the dtype scaling.
    pub fn compress(mut self, ratio: f64) -> CommConfig {
        self.compress_ratio = ratio;
        self
    }

    /// Whether this config scales wire bytes at all. `false` means every
    /// priced byte count is bit-identical to the logical payload (the
    /// strict fp32/no-compression compatibility contract).
    pub fn wire_scaled(&self) -> bool {
        self.grad_dtype != GradDtype::Fp32
            || compress_numer(self.compress_ratio) != 1u128 << COMPRESS_FRAC_BITS
    }

    /// Wire bytes for a `logical` fp32 payload under this config, in exact
    /// integer arithmetic (identity for fp32 + no compression).
    pub fn wire_bytes(&self, logical: u64) -> u64 {
        wire_scale(
            logical,
            self.grad_dtype,
            compress_numer(self.compress_ratio),
        )
    }
}

/// Which overlap model a [`GradSyncSchedule`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Fusion disabled: one bucket per sync group, legacy algorithm. The
    /// simulator ignores the schedule and runs its original scalar
    /// `sync_overlap` model (the schedule still renders, for inspection).
    Legacy,
    /// Size-capped buckets in reverse backward order with per-bucket
    /// readiness; the simulator serializes them per link, event-driven.
    Bucketed,
}

/// One gradient fusion bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct GradBucket {
    /// Index into [`ExecutionPlan::grad_syncs`] of the group this bucket
    /// belongs to.
    pub sync_index: usize,
    /// Logical payload bytes (the buckets of one sync sum exactly to its
    /// `bytes`).
    pub bytes: u64,
    /// Bytes on the wire after dtype + compression scaling (the buckets of
    /// one sync sum exactly to `CommConfig::wire_bytes(sync.bytes)`; equal
    /// to `bytes` for fp32 without compression). Zero-byte buckets are
    /// legal — compression rounding can empty a small bucket — and cost
    /// nothing to price (the selector skips them).
    pub wire_bytes: u64,
    /// Fraction of the owning stage's backward work that must complete
    /// before this bucket's last gradient is final, in `[0, 1]`. The last
    /// bucket of every sync has `ready_frac == 1.0`.
    pub ready_frac: f64,
    /// Chosen AllReduce algorithm (`None` = legacy dispatch).
    pub algo: Option<AllReduceAlgo>,
    /// Model layer range `(min, max)` covered by this bucket.
    pub layers: (usize, usize),
}

/// The full grad-sync schedule attached to an [`ExecutionPlan`] by the
/// [`CommOpt`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GradSyncSchedule {
    /// Overlap model the buckets encode.
    pub mode: SyncMode,
    /// Fusion cap the buckets were built with.
    pub fusion_bytes: u64,
    /// Wire dtype the buckets were scaled with.
    pub grad_dtype: GradDtype,
    /// Compression factor the buckets were scaled with.
    pub compress_ratio: f64,
    /// Buckets, grouped by sync and in reverse backward order within each
    /// sync (deepest layers first).
    pub buckets: Vec<GradBucket>,
}

impl GradSyncSchedule {
    /// Buckets of one sync group, in release order.
    pub fn buckets_of(&self, sync_index: usize) -> impl Iterator<Item = &GradBucket> {
        self.buckets
            .iter()
            .filter(move |b| b.sync_index == sync_index)
    }

    /// Whether the schedule scales wire bytes at all (false ⇒ every bucket
    /// has `wire_bytes == bytes` and pricing is bit-identical to fp32).
    pub fn wire_scaled(&self) -> bool {
        self.grad_dtype != GradDtype::Fp32
            || compress_numer(self.compress_ratio) != 1u128 << COMPRESS_FRAC_BITS
    }

    /// Total wire bytes of one sync group (`None` if the schedule carries
    /// no buckets for it).
    pub fn wire_bytes_of(&self, sync_index: usize) -> Option<u64> {
        let mut total = 0u64;
        let mut seen = false;
        for b in self.buckets_of(sync_index) {
            total += b.wire_bytes;
            seen = true;
        }
        seen.then_some(total)
    }

    /// [`Self::wire_bytes_of`] for each sync index below `syncs`, in one
    /// pass over the buckets.
    pub fn wire_bytes_per_sync(&self, syncs: usize) -> Vec<Option<u64>> {
        let mut out = vec![None; syncs];
        for b in &self.buckets {
            if let Some(total) = out.get_mut(b.sync_index) {
                *total = Some(total.unwrap_or(0) + b.wire_bytes);
            }
        }
        out
    }

    /// Total wire bytes across every sync group.
    pub fn total_wire_bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.wire_bytes).sum()
    }
}

/// Build the grad-sync schedule for `grad_syncs` against the model's layer
/// structure and the cluster topology. Shared by the [`CommOpt`] pipeline
/// pass and the monolithic `plan_reference`, so both emit identical plans.
///
/// Cost: one pass over `task_graphs` to index them, one pass over each
/// owning stage's ops (its layer table is built once and shared by every
/// sync of that stage), one topology walk per distinct sync group, and
/// O(layers of the stage) per sync to pack its buckets.
pub(crate) fn build_grad_sync_schedule(
    grad_syncs: &[CollectiveTask],
    task_graphs: &[TaskGraph],
    graph: &Graph,
    cluster: &Cluster,
    cfg: &CommConfig,
) -> Result<GradSyncSchedule> {
    let mode = if cfg.enabled() {
        SyncMode::Bucketed
    } else {
        SyncMode::Legacy
    };
    let mut groups = GroupCache::new(cluster);
    let mut layers = StageLayers::new(task_graphs);
    let numer = compress_numer(cfg.compress_ratio);
    let mut buckets = Vec::with_capacity(grad_syncs.len());
    for (sync_index, sync) in grad_syncs.iter().enumerate() {
        let start = buckets.len();
        match mode {
            SyncMode::Legacy => buckets.push(GradBucket {
                sync_index,
                bytes: sync.bytes,
                wire_bytes: 0,
                ready_frac: 1.0,
                algo: None,
                layers: (0, 0),
            }),
            SyncMode::Bucketed => bucket_sync(
                sync_index,
                sync,
                layers.of(sync.stage, graph),
                cfg,
                &mut buckets,
            ),
        }
        // Wire bytes telescope over the *logical* cumulative marks, so the
        // group's wire total is exactly `wire_scale(sync.bytes)` regardless
        // of how packing split the payload (bucket boundaries themselves
        // stay dtype-independent — algorithm flips are attributable to
        // payload scaling alone, never to repacking).
        let mut cum = 0u64;
        for b in &mut buckets[start..] {
            let before = wire_scale(cum, cfg.grad_dtype, numer);
            cum += b.bytes;
            b.wire_bytes = wire_scale(cum, cfg.grad_dtype, numer) - before;
        }
        if cfg.auto_algorithm && mode == SyncMode::Bucketed {
            // One topology walk per distinct group; each bucket then costs
            // three multiply-adds to price (the selector is bit-identical
            // to `select_allreduce`). Selection runs on *wire* bytes:
            // smaller messages sit closer to the latency-optimal side of
            // the ring/tree/hierarchical crossover.
            let selector = groups.selector(&sync.group)?;
            for b in &mut buckets[start..] {
                b.algo = Some(selector.select(b.wire_bytes).0);
            }
        }
    }
    Ok(GradSyncSchedule {
        mode,
        fusion_bytes: cfg.fusion_bytes,
        grad_dtype: cfg.grad_dtype,
        compress_ratio: cfg.compress_ratio,
        buckets,
    })
}

/// Per-stage layer tables for bucketing, built on first use: for each model
/// layer a stage's ops touch, in ascending layer order, its summed parameter
/// count and forward FLOPs.
struct StageLayers<'t> {
    task_graphs: &'t [TaskGraph],
    /// TaskGraph index → position of the first TaskGraph with that index.
    position: HashMap<usize, usize>,
    /// Layer table of each TaskGraph position, once built.
    tables: Vec<Option<Vec<(usize, u64, f64)>>>,
}

impl<'t> StageLayers<'t> {
    fn new(task_graphs: &'t [TaskGraph]) -> Self {
        let mut position = HashMap::with_capacity(task_graphs.len());
        for (pos, tg) in task_graphs.iter().enumerate() {
            position.entry(tg.index).or_insert(pos);
        }
        StageLayers {
            task_graphs,
            position,
            tables: vec![None; task_graphs.len()],
        }
    }

    /// The layer table of the stage a sync belongs to (empty when the sync
    /// names no stage or no TaskGraph has its index).
    fn of(&mut self, stage: Option<usize>, graph: &Graph) -> &[(usize, u64, f64)] {
        let Some(&pos) = stage.and_then(|s| self.position.get(&s)) else {
            return &[];
        };
        let tg = &self.task_graphs[pos];
        self.tables[pos].get_or_insert_with(|| layer_table(tg, graph))
    }
}

/// One pass over a stage's ops, into a flat table sized by the stage's own
/// layer range (ops without a layer count as layer 0).
fn layer_table(tg: &TaskGraph, graph: &Graph) -> Vec<(usize, u64, f64)> {
    let ops = || tg.ops.iter().filter_map(|&id| graph.op(id).ok());
    let layers = || ops().map(|op| op.layer.unwrap_or(0));
    let (Some(lo), Some(hi)) = (layers().min(), layers().max()) else {
        return Vec::new();
    };
    let mut slots: Vec<(bool, u64, f64)> = vec![(false, 0, 0.0); hi - lo + 1];
    for op in ops() {
        let e = &mut slots[op.layer.unwrap_or(0) - lo];
        e.0 = true;
        e.1 += op.param_count();
        e.2 += op.forward_flops();
    }
    slots
        .into_iter()
        .enumerate()
        .filter(|(_, (seen, _, _))| *seen)
        .map(|(i, (_, p, f))| (lo + i, p, f))
        .collect()
}

/// Split one sync group's payload into size-capped buckets along the owning
/// stage's layer table (from [`layer_table`]), deepest layers first.
///
/// Byte split: each layer owns a share of `sync.bytes` proportional to its
/// parameter count, realized through cumulative u64 rounding so the bucket
/// bytes sum *exactly* to `sync.bytes` (the telescoping marks guarantee it).
fn bucket_sync(
    sync_index: usize,
    sync: &CollectiveTask,
    layers: &[(usize, u64, f64)],
    cfg: &CommConfig,
    out: &mut Vec<GradBucket>,
) {
    let total_params: u64 = layers.iter().map(|&(_, p, _)| p).sum();
    // Accumulate FLOPs in the same (descending) order the packing loop uses
    // so the final bucket's cumulative sum hits the total exactly.
    let total_flops: f64 = layers.iter().rev().map(|&(_, _, f)| f).sum();
    if total_params == 0 {
        // No layer structure to split along (stage missing, no parameters):
        // a single bucket released when the whole backward drains.
        out.push(GradBucket {
            sync_index,
            bytes: sync.bytes,
            wire_bytes: 0,
            ready_frac: 1.0,
            algo: None,
            layers: (0, 0),
        });
        return;
    }

    // Cumulative byte mark after `cum` of `total_params` parameters.
    let mark =
        |cum: u64| -> u64 { ((cum as u128 * sync.bytes as u128) / total_params as u128) as u64 };

    let mut cum_params = 0u64;
    let mut cum_flops = 0.0f64;
    let mut bucket_start = 0u64; // param mark where the open bucket begins
    let mut bucket_layers: Option<(usize, usize)> = None;
    // Deepest layers first: their gradients finalize first in backward.
    for &(layer, params, flops) in layers.iter().rev() {
        let would_be = mark(cum_params + params) - mark(bucket_start);
        if bucket_layers.is_some() && would_be > cfg.fusion_bytes {
            let (min, max) = bucket_layers.take().unwrap();
            out.push(GradBucket {
                sync_index,
                bytes: mark(cum_params) - mark(bucket_start),
                wire_bytes: 0,
                ready_frac: if total_flops > 0.0 {
                    cum_flops / total_flops
                } else {
                    1.0
                },
                algo: None,
                layers: (min, max),
            });
            bucket_start = cum_params;
        }
        cum_params += params;
        cum_flops += flops;
        bucket_layers = Some(match bucket_layers {
            Some((min, max)) => (min.min(layer), max.max(layer)),
            None => (layer, layer),
        });
    }
    let (min, max) = bucket_layers.unwrap_or((0, 0));
    out.push(GradBucket {
        sync_index,
        bytes: sync.bytes - mark(bucket_start),
        wire_bytes: 0,
        ready_frac: 1.0,
        algo: None,
        layers: (min, max),
    });
}

/// Attach the grad-sync schedule to a finished plan (the monolithic
/// reference planner's entry point; the pipeline uses [`CommOpt`]).
pub(crate) fn attach_schedule(
    plan: &mut ExecutionPlan,
    task_graphs: &[TaskGraph],
    graph: &Graph,
    cluster: &Cluster,
    cfg: &CommConfig,
) -> Result<()> {
    plan.grad_sync_schedule = Some(build_grad_sync_schedule(
        &plan.grad_syncs,
        task_graphs,
        graph,
        cluster,
        cfg,
    )?);
    Ok(())
}

/// Pass 6: derive the bucketed grad-sync schedule from the scheduled plan
/// and the placement's layer structure, and attach it to the plan.
///
/// Idempotent: it reads `state.plan` + `state.placement` and rewrites only
/// the plan's `grad_sync_schedule` field (in a fresh `Arc`), so a
/// CommOpt-only re-run needs no earlier artifacts recomputed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommOpt;

impl PlannerPass for CommOpt {
    fn id(&self) -> PassId {
        PassId::CommOpt
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> Result<()> {
        let mut plan_arc = state
            .plan
            .take()
            .ok_or_else(|| CompileState::missing(PassId::Schedule, self.id()))?;
        let p = match state.placement.as_ref() {
            Some(p) => p,
            None => {
                state.plan = Some(plan_arc);
                return Err(CompileState::missing(PassId::Placement, self.id()));
            }
        };
        let schedule = match build_grad_sync_schedule(
            &plan_arc.grad_syncs,
            &p.task_graphs,
            &cx.ir.graph,
            cx.cluster,
            &cx.config.comm,
        ) {
            Ok(schedule) => schedule,
            Err(e) => {
                // Put the untouched plan back so a failed CommOpt re-run
                // leaves the state exactly as Schedule produced it.
                state.plan = Some(plan_arc);
                return Err(e);
            }
        };
        // `make_mut` rewrites the schedule in place when the Schedule pass's
        // Arc is still uniquely held (the common pipeline path — no clone of
        // the stage tables); shared handles from a cache fall back to the
        // old copy-on-write behavior.
        std::sync::Arc::make_mut(&mut plan_arc).grad_sync_schedule = Some(schedule);
        state.plan = Some(plan_arc);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Cluster;
    use whale_ir::Annotator;

    fn dp_plan(cfg: &crate::PlannerConfig) -> (ExecutionPlan, Cluster) {
        let g = models::bert_large(64, 128).unwrap();
        let ir = Annotator::new(g, 64)
            .replicate_all()
            .unwrap()
            .finish()
            .unwrap();
        let cluster = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        (crate::plan(&ir, &cluster, cfg).unwrap(), cluster)
    }

    #[test]
    fn disabled_config_yields_legacy_single_buckets() {
        let (p, _) = dp_plan(&crate::PlannerConfig::default());
        let sched = p.grad_sync_schedule.as_ref().unwrap();
        assert_eq!(sched.mode, SyncMode::Legacy);
        assert_eq!(sched.buckets.len(), p.grad_syncs.len());
        for (i, b) in sched.buckets.iter().enumerate() {
            assert_eq!(b.sync_index, i);
            assert_eq!(b.bytes, p.grad_syncs[i].bytes);
            assert_eq!(b.ready_frac, 1.0);
            assert_eq!(b.algo, None);
        }
    }

    #[test]
    fn bucket_bytes_sum_exactly_and_caps_hold() {
        let cfg = crate::PlannerConfig {
            comm: CommConfig::fused(),
            ..crate::PlannerConfig::default()
        };
        let (p, _) = dp_plan(&cfg);
        let sched = p.grad_sync_schedule.as_ref().unwrap();
        assert_eq!(sched.mode, SyncMode::Bucketed);
        for (i, sync) in p.grad_syncs.iter().enumerate() {
            let buckets: Vec<_> = sched.buckets_of(i).collect();
            assert!(buckets.len() > 1, "BERT-Large must split into buckets");
            let total: u64 = buckets.iter().map(|b| b.bytes).sum();
            assert_eq!(total, sync.bytes, "buckets must sum exactly");
            // Every bucket except possibly single-layer outliers respects
            // the cap; all carry a chosen algorithm.
            for b in &buckets {
                assert!(b.algo.is_some());
                assert!(b.ready_frac > 0.0 && b.ready_frac <= 1.0);
            }
            // Reverse backward order: ready fractions nondecreasing, layer
            // ranges descending, final bucket exactly 1.0.
            for w in buckets.windows(2) {
                assert!(w[0].ready_frac <= w[1].ready_frac);
                assert!(w[0].layers.0 >= w[1].layers.1);
            }
            assert_eq!(buckets.last().unwrap().ready_frac, 1.0);
        }
    }

    #[test]
    fn fp32_wire_bytes_equal_logical_bytes() {
        let cfg = crate::PlannerConfig {
            comm: CommConfig::fused(),
            ..crate::PlannerConfig::default()
        };
        assert!(!cfg.comm.wire_scaled());
        let (p, _) = dp_plan(&cfg);
        let sched = p.grad_sync_schedule.as_ref().unwrap();
        assert!(!sched.wire_scaled());
        for b in &sched.buckets {
            assert_eq!(b.wire_bytes, b.bytes, "fp32 must be the identity");
        }
    }

    #[test]
    fn scaled_wire_bytes_telescope_exactly() {
        for (dtype, ratio) in [
            (GradDtype::Bf16, 1.0),
            (GradDtype::Fp8, 1.0),
            (GradDtype::Bf16, 0.37),
            (GradDtype::Fp32, 0.125),
        ] {
            let comm = CommConfig::fused().dtype(dtype).compress(ratio);
            assert!(comm.wire_scaled());
            let cfg = crate::PlannerConfig {
                comm,
                ..crate::PlannerConfig::default()
            };
            let (p, _) = dp_plan(&cfg);
            let sched = p.grad_sync_schedule.as_ref().unwrap();
            assert_eq!(sched.grad_dtype, dtype);
            let per_sync = sched.wire_bytes_per_sync(p.grad_syncs.len());
            for (i, sync) in p.grad_syncs.iter().enumerate() {
                assert_eq!(per_sync[i], sched.wire_bytes_of(i));
                assert_eq!(
                    sched.wire_bytes_of(i),
                    Some(comm.wire_bytes(sync.bytes)),
                    "{}/{ratio}: group wire bytes must telescope to scale(sync.bytes)",
                    dtype.name()
                );
                for b in sched.buckets_of(i) {
                    assert!(b.wire_bytes <= b.bytes);
                }
            }
        }
    }

    #[test]
    fn dtype_scaling_keeps_bucket_boundaries() {
        // Bucket packing runs on logical bytes, so a dtype change must not
        // repack — algorithm flips are attributable to payload scaling only.
        let base = crate::PlannerConfig {
            comm: CommConfig::fused(),
            ..crate::PlannerConfig::default()
        };
        let fp8 = crate::PlannerConfig {
            comm: CommConfig::fused().fp8(),
            ..crate::PlannerConfig::default()
        };
        let (p32, _) = dp_plan(&base);
        let (p8, _) = dp_plan(&fp8);
        let s32 = p32.grad_sync_schedule.as_ref().unwrap();
        let s8 = p8.grad_sync_schedule.as_ref().unwrap();
        assert_eq!(s32.buckets.len(), s8.buckets.len());
        for (a, b) in s32.buckets.iter().zip(&s8.buckets) {
            assert_eq!(
                (a.sync_index, a.bytes, a.layers),
                (b.sync_index, b.bytes, b.layers)
            );
            assert_eq!(a.ready_frac, b.ready_frac);
        }
    }

    #[test]
    fn wire_scale_is_exact_at_the_extremes() {
        let id = CommConfig::default();
        for bytes in [0u64, 1, 3, 4, 1 << 20, u64::MAX >> 3] {
            assert_eq!(id.wire_bytes(bytes), bytes);
        }
        let bf16 = CommConfig::default().bf16();
        assert_eq!(bf16.wire_bytes(10), 5);
        assert_eq!(bf16.wire_bytes(1), 0, "sub-element payloads round down");
        let heavy = CommConfig::default().fp8().compress(0.25);
        assert_eq!(heavy.wire_bytes(1 << 20), 1 << 16);
    }

    #[test]
    fn huge_cap_yields_one_bucket_per_sync() {
        let cfg = crate::PlannerConfig {
            comm: CommConfig {
                fusion_bytes: u64::MAX,
                auto_algorithm: true,
                ..CommConfig::default()
            },
            ..crate::PlannerConfig::default()
        };
        let (p, _) = dp_plan(&cfg);
        let sched = p.grad_sync_schedule.as_ref().unwrap();
        assert_eq!(sched.buckets.len(), p.grad_syncs.len());
        for b in &sched.buckets {
            assert_eq!(b.bytes, p.grad_syncs[b.sync_index].bytes);
            assert_eq!(b.ready_frac, 1.0);
        }
    }
}
