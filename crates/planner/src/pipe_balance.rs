//! Hardware-aware pipeline partitioning — Algorithm 3 of the paper.
//!
//! The forward ops are cut into contiguous stages whose FLOPs are
//! proportional to the stage GPUs' FLOPS; if a stage overflows its GPU's
//! memory, PSVF repairs the cut with `shift_op` — moving one boundary
//! operation at a time from the peak stage toward the valley stage through
//! the intermediate stages (Fig. 11), which preserves topological order.
//!
//! # Cross-plan partition memo
//!
//! The FLOP-proportional cut and the per-stage [`CostProfile`]s depend only
//! on the graph content, the training config, the stage GPUs' specs, the
//! reference batch, and the hardware-awareness flag — **not** on the leaf's
//! micro-batch size, micro-batch count, or schedule. Those three only enter
//! through the activation-memory overflow check that decides whether PSVF
//! runs. The auto-parallel search plans the *same* model on the *same*
//! stage shape dozens of times while sweeping micro counts and schedules,
//! so this module keeps a process-global, content-fingerprint-keyed memo of
//! `(cuts, profiles)`; a hit replays the O(stages) overflow check from the
//! cached profiles and skips the O(ops) cost scan and profiling pass
//! entirely. Hits are bit-identical to cold computes by construction (the
//! memo stores the exact pre-PSVF state the cold path would reach), and an
//! overflowing hit still runs PSVF, seeded from the cached profiles.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::{PlanError, Result};
use crate::partition::{balanced_cuts, group_costs};
use crate::planner::{DeviceAssignment, PlannerConfig};
use crate::psvf::{psvf, PsvfReport, Workload};
use whale_fp::{Fingerprint, Fingerprinter};
use whale_graph::{CostProfile, Graph, OpId, OpKind, Phase, TrainingConfig};
use whale_hardware::{Cluster, Gpu};

/// One memoized FLOP-proportional cut: the balanced cut points plus the
/// per-stage profiles at the reference batch, captured *before* any PSVF
/// repair (PSVF depends on the leaf's micro/schedule and is never cached).
type PartitionSeed = Arc<(Vec<usize>, Vec<CostProfile>)>;

/// Bound on the memo; past it the map is flushed wholesale. Entries are a
/// few hundred bytes, and one search touches a handful of keys (one per
/// stage shape), so the cap exists only to keep long-lived processes that
/// plan many distinct models from growing without bound.
const PARTITION_MEMO_CAP: usize = 512;

fn partition_memo() -> &'static Mutex<HashMap<Fingerprint, PartitionSeed>> {
    static MEMO: OnceLock<Mutex<HashMap<Fingerprint, PartitionSeed>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_memo() -> std::sync::MutexGuard<'static, HashMap<Fingerprint, PartitionSeed>> {
    partition_memo()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Content key over exactly the inputs the balanced cut and the reference
/// profiles read: graph ops, training config, each stage GPU's model and
/// throughput scale (covering both its FLOPS weight and memory capacity),
/// the reference batch, and hardware awareness. Deliberately excludes GPU
/// ids and node placement so every plan replica, micro count, and schedule
/// sharing a stage shape shares one entry.
fn partition_key(
    graph: &Graph,
    cfg: &TrainingConfig,
    gpus: &[Gpu],
    ref_batch: usize,
    hardware_aware: bool,
) -> Fingerprint {
    let mut fp = Fingerprinter::new("pipe-partition");
    fp.push_fingerprint(graph.fingerprint())
        .push_fingerprint(cfg.fingerprint())
        .push_usize(ref_batch)
        .push_bool(hardware_aware)
        .push_len(gpus.len());
    for g in gpus {
        // The memo is process-local, so the enum discriminant is a stable
        // enough model identity — cheaper than formatting the name on a
        // path the search hits once per planned leaf.
        fp.push_usize(g.model as usize).push_f64(g.throughput_scale);
    }
    fp.finish()
}

/// Outcome of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PipePartition {
    /// Cut points over the op sequence: stage `k` owns ops
    /// `[cuts[k], cuts[k+1])`.
    pub cuts: Vec<usize>,
    /// PSVF trace when the FLOP-proportional cut overflowed memory.
    pub psvf: Option<PsvfReport>,
}

impl PipePartition {
    /// Op ids of stage `k`.
    pub fn stage_ops(&self, k: usize) -> Vec<OpId> {
        (self.cuts[k]..self.cuts[k + 1]).map(OpId).collect()
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.cuts.len() - 1
    }
}

/// In-flight micro-batch count per stage under a backward-first (1F1B)
/// schedule: stage `i` of `s` holds at most `min(s − i, m)` activations
/// (ref \[13\]); under GPipe every stage holds all `m`.
pub fn in_flight_micro_batches(
    stage: usize,
    num_stages: usize,
    num_micro: usize,
    gpipe: bool,
) -> usize {
    if gpipe {
        num_micro
    } else {
        (num_stages - stage).min(num_micro)
    }
}

/// Memoized per-stage cost terms. Every PSVF iteration queries the memory
/// ratio of *all* stages; without the cache each query re-profiles the
/// stage's whole op range, making one PSVF step O(stages × ops). The cache
/// stores the (memory, flops) pair per stage and a `shift` refreshes only
/// the stages whose boundaries moved, so steady-state queries are O(1).
struct StageCostCache {
    mem: Vec<u64>,
    flops: Vec<f64>,
    /// Full per-stage profiles for the current cuts. The planner's stage
    /// loop needs exactly these (`TaskGraph::profile` over the same op
    /// ranges at the same reference batch), so the partition hands them
    /// back and the planner skips its own re-profiling pass.
    profiles: Vec<CostProfile>,
}

/// The `shift_op` workload over stage cut points.
struct PipeWorkload<'a> {
    graph: &'a Graph,
    cuts: Vec<usize>,
    cfg: &'a TrainingConfig,
    gpus: &'a [Gpu],
    micro_batch: usize,
    num_micro: usize,
    gpipe: bool,
    ref_batch: usize,
    /// `None` disables memoization (the planner-baseline path that
    /// `fastpath_bench` measures the speedup against).
    cache: Option<StageCostCache>,
}

impl<'a> PipeWorkload<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        graph: &'a Graph,
        cuts: Vec<usize>,
        cfg: &'a TrainingConfig,
        gpus: &'a [Gpu],
        micro_batch: usize,
        num_micro: usize,
        gpipe: bool,
        ref_batch: usize,
        memoize: bool,
    ) -> PipeWorkload<'a> {
        let mut w = PipeWorkload {
            graph,
            cuts,
            cfg,
            gpus,
            micro_batch,
            num_micro,
            gpipe,
            ref_batch,
            cache: None,
        };
        if memoize {
            let profiles = (0..w.gpus.len()).map(|i| w.stage_profile(i)).collect();
            w.install_cache(profiles);
        }
        w
    }

    /// [`PipeWorkload::new`] with the initial per-stage profiles supplied by
    /// the caller (a cross-plan memo hit) instead of recomputed from the op
    /// ranges. The profiles must correspond to `cuts` at `ref_batch`;
    /// `stage_profile` is deterministic, so the seeded workload is
    /// bit-identical to a freshly profiled one.
    #[allow(clippy::too_many_arguments)]
    fn seeded(
        graph: &'a Graph,
        cuts: Vec<usize>,
        cfg: &'a TrainingConfig,
        gpus: &'a [Gpu],
        micro_batch: usize,
        num_micro: usize,
        gpipe: bool,
        ref_batch: usize,
        profiles: Vec<CostProfile>,
    ) -> PipeWorkload<'a> {
        let mut w = PipeWorkload {
            graph,
            cuts,
            cfg,
            gpus,
            micro_batch,
            num_micro,
            gpipe,
            ref_batch,
            cache: None,
        };
        w.install_cache(profiles);
        w
    }

    /// Build the stage-cost cache from the given per-stage profiles,
    /// deriving the (memory, flops) pairs through the same `stage_cost_of`
    /// the direct queries use.
    fn install_cache(&mut self, profiles: Vec<CostProfile>) {
        let n = self.gpus.len();
        let mut mem = vec![0; n];
        let mut flops = vec![0.0; n];
        for (i, p) in profiles.iter().enumerate() {
            let (m, f) = self.stage_cost_of(i, p);
            mem[i] = m;
            flops[i] = f;
        }
        self.cache = Some(StageCostCache {
            mem,
            flops,
            profiles,
        });
    }

    fn stage_profile(&self, i: usize) -> CostProfile {
        let ops: Vec<OpId> = (self.cuts[i]..self.cuts[i + 1]).map(OpId).collect();
        CostProfile::from_ops(self.graph, &ops, self.ref_batch)
    }

    /// (memory, flops) of stage `i` given its profile — the single source of
    /// truth both the direct queries and the cache refresh go through, so
    /// cached and uncached runs are bit-identical.
    fn stage_cost_of(&self, i: usize, p: &CostProfile) -> (u64, f64) {
        let act_mult =
            in_flight_micro_batches(i, self.gpus.len(), self.num_micro, self.gpipe) as f64;
        (
            self.cfg.memory_bytes(p, self.micro_batch, act_mult),
            self.cfg.step_flops(p, self.micro_batch),
        )
    }

    /// Uncached (memory, flops) of stage `i`.
    fn stage_cost(&self, i: usize) -> (u64, f64) {
        let p = self.stage_profile(i);
        self.stage_cost_of(i, &p)
    }

    /// Refresh the cache for stages whose op ranges changed.
    fn refresh(&mut self, lo: usize, hi: usize) {
        if self.cache.is_none() {
            return;
        }
        for i in lo..=hi {
            let p = self.stage_profile(i);
            let (m, f) = self.stage_cost_of(i, &p);
            let cache = self.cache.as_mut().expect("checked above");
            cache.mem[i] = m;
            cache.flops[i] = f;
            cache.profiles[i] = p;
        }
    }
}

impl Workload for PipeWorkload<'_> {
    fn len(&self) -> usize {
        self.gpus.len()
    }
    fn mem_bytes(&self, i: usize) -> u64 {
        match &self.cache {
            Some(c) => c.mem[i],
            None => self.stage_cost(i).0,
        }
    }
    fn mem_capacity(&self, i: usize) -> u64 {
        self.gpus[i].memory_bytes()
    }
    fn flops(&self, i: usize) -> f64 {
        match &self.cache {
            Some(c) => c.flops[i],
            None => self.stage_cost(i).1,
        }
    }
    fn flops_capacity(&self, i: usize) -> f64 {
        self.gpus[i].flops()
    }
    fn shift(&mut self, from: usize, to: usize) -> bool {
        // Fig. 11: a shift from stage `from` to stage `to` ripples one op
        // across each intervening boundary, keeping topological order.
        if from < to {
            // Boundaries from+1 ..= to move left by one.
            for k in from + 1..=to {
                if self.cuts[k] - 1 <= self.cuts[k - 1] {
                    // Some intermediate stage would become empty: revert.
                    for j in (from + 1..k).rev() {
                        self.cuts[j] += 1;
                    }
                    return false;
                }
                self.cuts[k] -= 1;
            }
            self.refresh(from, to);
            true
        } else if from > to {
            for k in (to + 1..=from).rev() {
                if self.cuts[k] + 1 >= self.cuts[k + 1] {
                    for j in k + 1..=from {
                        self.cuts[j] -= 1;
                    }
                    return false;
                }
                self.cuts[k] += 1;
            }
            self.refresh(to, from);
            true
        } else {
            false
        }
    }
}

/// Algorithm 3: hardware-aware pipeline partition of `graph` onto one GPU
/// per stage.
///
/// `micro_batch` is the per-micro-batch sample count; `num_micro` the number
/// of in-flight micro batches (for activation memory); `gpipe` selects the
/// flush schedule's memory model. With `hardware_aware = false` the cut is
/// FLOP-even regardless of GPU type — the Fig. 18 baseline.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_partition(
    graph: &Graph,
    cfg: &TrainingConfig,
    gpus: &[Gpu],
    micro_batch: usize,
    num_micro: usize,
    gpipe: bool,
    ref_batch: usize,
    hardware_aware: bool,
) -> Result<PipePartition> {
    pipeline_partition_opts(
        graph,
        cfg,
        gpus,
        micro_batch,
        num_micro,
        gpipe,
        ref_batch,
        hardware_aware,
        true,
    )
}

/// [`pipeline_partition`] with the per-stage cost memoization made explicit.
/// `memoize = false` recomputes every profile query from scratch — the
/// pre-fast-path behavior kept for benchmarking; results are bit-identical
/// either way.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_partition_opts(
    graph: &Graph,
    cfg: &TrainingConfig,
    gpus: &[Gpu],
    micro_batch: usize,
    num_micro: usize,
    gpipe: bool,
    ref_batch: usize,
    hardware_aware: bool,
    memoize: bool,
) -> Result<PipePartition> {
    pipeline_partition_profiled(
        graph,
        cfg,
        gpus,
        micro_batch,
        num_micro,
        gpipe,
        ref_batch,
        hardware_aware,
        memoize,
    )
    .map(|(part, _)| part)
}

/// [`pipeline_partition_opts`] that also returns the memoized per-stage
/// [`CostProfile`]s for the final cuts (`None` when `memoize` is off). The
/// profiles equal `CostProfile::from_ops` over each stage's op range at
/// `ref_batch` — exactly what the planner's stage loop would recompute — so
/// callers can skip that second profiling pass.
///
/// With `memoize` on, the balanced cut and reference profiles come from the
/// cross-plan partition memo when a previous call already computed them for
/// the same (graph, config, stage GPUs, reference batch, awareness) key —
/// see the module docs. Results are bit-identical with or without a hit.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_partition_profiled(
    graph: &Graph,
    cfg: &TrainingConfig,
    gpus: &[Gpu],
    micro_batch: usize,
    num_micro: usize,
    gpipe: bool,
    ref_batch: usize,
    hardware_aware: bool,
    memoize: bool,
) -> Result<(PipePartition, Option<Vec<CostProfile>>)> {
    if gpus.is_empty() {
        return Err(PlanError::BadConfig(
            "pipeline needs at least one stage GPU".into(),
        ));
    }
    let key = memoize.then(|| partition_key(graph, cfg, gpus, ref_batch, hardware_aware));
    if let Some(key) = key {
        let seed = lock_memo().get(&key).cloned();
        if let Some(seed) = seed {
            let (cuts, profiles) = &*seed;
            // Replay the cold path's overflow check from the cached
            // profiles — the only place the leaf's micro/schedule enters.
            let overflow = hardware_aware
                && gpus.iter().enumerate().any(|(i, g)| {
                    let act = in_flight_micro_batches(i, gpus.len(), num_micro, gpipe) as f64;
                    cfg.memory_bytes(&profiles[i], micro_batch, act) > g.memory_bytes()
                });
            if !overflow {
                return Ok((
                    PipePartition {
                        cuts: cuts.clone(),
                        psvf: None,
                    },
                    Some(profiles.clone()),
                ));
            }
            let mut w = PipeWorkload::seeded(
                graph,
                cuts.clone(),
                cfg,
                gpus,
                micro_batch,
                num_micro,
                gpipe,
                ref_batch,
                profiles.clone(),
            );
            let report = Some(psvf(&mut w)?);
            let profiles = w.cache.map(|c| c.profiles);
            return Ok((
                PipePartition {
                    cuts: w.cuts,
                    psvf: report,
                },
                profiles,
            ));
        }
    }
    let costs: Vec<f64> = graph.ops().iter().map(|op| op.forward_flops()).collect();
    let weights: Vec<f64> = if hardware_aware {
        gpus.iter().map(|g| g.flops()).collect()
    } else {
        vec![1.0; gpus.len()]
    };
    let cuts = balanced_cuts(&costs, &weights)?;
    let mut w = PipeWorkload::new(
        graph,
        cuts,
        cfg,
        gpus,
        micro_batch,
        num_micro,
        gpipe,
        ref_batch,
        memoize,
    );
    if let (Some(key), Some(cache)) = (key, &w.cache) {
        // Snapshot the pre-PSVF state: exactly what a future hit replays.
        let mut memo = lock_memo();
        if memo.len() >= PARTITION_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, Arc::new((w.cuts.clone(), cache.profiles.clone())));
    }
    let report = if hardware_aware {
        let overflow = (0..w.len()).any(|i| w.mem_bytes(i) > w.mem_capacity(i));
        if overflow {
            Some(psvf(&mut w)?)
        } else {
            None
        }
    } else {
        None
    };
    let profiles = w.cache.map(|c| c.profiles);
    Ok((
        PipePartition {
            cuts: w.cuts,
            psvf: report,
        },
        profiles,
    ))
}

/// Per-stage forward FLOPs of a partition (diagnostics).
pub fn stage_flops(graph: &Graph, part: &PipePartition) -> Vec<f64> {
    let costs: Vec<f64> = graph.ops().iter().map(|op| op.forward_flops()).collect();
    group_costs(&costs, &part.cuts)
}

/// Admissible pre-plan lower bound on the simulated step time of the
/// pipeline leaf `(replicas, num_micro, gpipe)` on `cluster`, priced from
/// the **exact partition the planner would produce** — cuts, PSVF repair
/// and all — without paying for placement, bridging, balancing, or
/// scheduling.
///
/// The planner's replica groups are contiguous device ranges and a `Stage`
/// TaskGraph runs whole on one group GPU in order, so replica 0's stage →
/// GPU pairing, batch share, and per-stage profiles are all determined
/// before any plan exists. This reruns the planner's own partition entry
/// point ([`pipeline_partition_profiled`]) with the leaf's exact arguments
/// — a memo hit after the structure's first plan — and then reprices each
/// stage the way the estimator's post-plan bound does (per-micro FLOPs at
/// the device's effective rate plus memory traffic at device bandwidth,
/// backward = κ× forward), keeping only the data-dependency term
///
/// ```text
/// step ≥ max_j  Σ_{s<j} (fw_s + bw_s)  +  m · (fw_j + bw_j)
/// ```
///
/// Transfers, collectives, sync serialization, and the optimizer pass are
/// dropped (each only adds time in the engine), and only replica 0's
/// devices are priced (the plan's per-stage time is a max over every
/// replica's), so the value never exceeds the leaf's true simulated step
/// time. The partition call always runs memoized, whatever
/// `config.memoize` says: its result is bit-identical memoized or cold, so
/// the bound — and hence the search report it gates — depends neither on
/// memo warmth nor on the memoize switch.
///
/// Returns `Ok(None)` when the leaf cannot be priced this way: the cluster
/// does not tile into `replicas` groups of depth ≥ 2, or the group batch is
/// empty.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_leaf_bound(
    graph: &Graph,
    cluster: &Cluster,
    config: &PlannerConfig,
    replicas: usize,
    num_micro: usize,
    gpipe: bool,
    global_batch: usize,
) -> Result<Option<f64>> {
    let Some(depth) = pipeline_depth(cluster, replicas, num_micro) else {
        return Ok(None);
    };
    // Replica 0's batch share, exactly as DegreeInference splits it.
    let group_batch = group_batches(cluster, config, replicas, depth, global_batch)?[0];
    if group_batch == 0 {
        return Ok(None);
    }
    let gpus: Vec<Gpu> = cluster.gpus()[..depth].to_vec();
    let micro_batch = (group_batch / num_micro).max(1);
    let (_, profiles) = pipeline_partition_profiled(
        graph,
        &config.training,
        &gpus,
        micro_batch,
        num_micro,
        gpipe,
        global_batch.max(1),
        config.hardware_aware,
        true,
    )?;
    let profiles = profiles.expect("a memoized partition returns its stage profiles");
    // Price replica 0's stages the way `plan_taskgraph` + the estimator's
    // `stage_fw_bw` do, minus everything additive.
    let amp = config.training.amp;
    let bw_factor = if config.training.recompute { 3.0 } else { 2.0 };
    let m = num_micro as f64;
    let mut chain = 0.0_f64;
    let mut bound = 0.0_f64;
    for (j, profile) in profiles.iter().enumerate() {
        let gpu = &gpus[j.min(gpus.len() - 1)];
        let boost = if amp { gpu.model.amp_speedup() } else { 1.0 };
        let fw_flops_per_micro =
            profile.forward_flops_per_sample * group_batch as f64 / num_micro as f64;
        let traffic_per_micro = profile.memory_traffic_bytes_per_sample * group_batch as f64
            / num_micro as f64
            * if amp { 0.5 } else { 1.0 };
        let t = fw_flops_per_micro / (gpu.flops() * boost * config.efficiency)
            + traffic_per_micro / gpu.model.memory_bandwidth();
        let fw_bw = t * (1.0 + bw_factor);
        bound = bound.max(chain + m * fw_bw);
        chain += fw_bw;
    }
    Ok(Some(bound))
}

/// Stage count of the pipeline leaf `(replicas, num_micro)` on `cluster`,
/// or `None` when the cluster does not tile into `replicas` groups of depth
/// ≥ 2 (the shape both pre-plan pipeline gates price).
fn pipeline_depth(cluster: &Cluster, replicas: usize, num_micro: usize) -> Option<usize> {
    let n = cluster.num_gpus();
    if replicas == 0 || n == 0 || !n.is_multiple_of(replicas) || num_micro == 0 {
        return None;
    }
    Some(n / replicas).filter(|&depth| depth >= 2)
}

/// Each replica group's batch share, exactly as `DegreeInference` splits
/// the global batch over contiguous `depth`-GPU groups.
fn group_batches(
    cluster: &Cluster,
    config: &PlannerConfig,
    replicas: usize,
    depth: usize,
    global_batch: usize,
) -> Result<Vec<usize>> {
    let weights: Vec<f64> = if config.hardware_aware {
        cluster
            .gpus()
            .chunks(depth)
            .map(|group| group.iter().map(|gpu| gpu.flops()).sum())
            .collect()
    } else {
        vec![1.0; replicas]
    };
    crate::partition::proportional_split(global_batch, &weights)
}

/// Per-op prefix sums of the memory terms [`CostProfile::from_ops`] sums in
/// u64, so the profile of any contiguous op range costs O(1). Build once
/// per graph; [`pipeline_memory_floor`] then prices each candidate stage
/// range without walking its ops.
///
/// Parameter counts and stored activation bytes reproduce `from_ops` bit
/// for bit (same u64 sums, same division by the reference batch). The
/// recompute checkpoint term is a lower bound: it sums the outputs of the
/// *layer-final* forward ops (the last forward op of each layer in the
/// whole graph) that lie in the range. `from_ops` counts each of those too
/// — a layer-final op is the last op of its layer in any range holding it —
/// and only adds to them (a cut layer's last op in range; all activations
/// when a range holds no checkpoint), while the lower bound stays monotone
/// in the range, which the floor's greedy fill needs.
#[derive(Debug, Clone)]
pub struct MemoryPrefix {
    /// `params[k]` = forward parameter count of ops `0..k`.
    params: Vec<u64>,
    /// `activations[k]` = stored forward activation bytes of ops `0..k`.
    activations: Vec<u64>,
    /// `checkpoints[k]` = output bytes of the layer-final ops among `0..k`.
    checkpoints: Vec<u64>,
}

impl MemoryPrefix {
    /// Prefix sums over `graph`'s op sequence (the order pipeline cuts
    /// index).
    pub fn new(graph: &Graph) -> MemoryPrefix {
        let ops = graph.ops();
        // Last forward op of each layer, found the way `from_ops` finds it:
        // ops arrive grouped by layer, so a tail-first scan is amortized
        // O(1) per op.
        let mut layer_last: Vec<(usize, usize)> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            if let (Phase::Forward, Some(layer)) = (op.phase, op.layer) {
                match layer_last.iter_mut().rev().find(|(l, _)| *l == layer) {
                    Some(entry) => entry.1 = k,
                    None => layer_last.push((layer, k)),
                }
            }
        }
        let mut layer_final = vec![false; ops.len()];
        for (_, k) in layer_last {
            layer_final[k] = true;
        }
        let mut params = Vec::with_capacity(ops.len() + 1);
        let mut activations = Vec::with_capacity(ops.len() + 1);
        let mut checkpoints = Vec::with_capacity(ops.len() + 1);
        let (mut p, mut a, mut c) = (0u64, 0u64, 0u64);
        params.push(p);
        activations.push(a);
        checkpoints.push(c);
        for (k, op) in ops.iter().enumerate() {
            if op.phase == Phase::Forward {
                p += op.param_count();
                if !matches!(op.kind, OpKind::Input) {
                    a += op.output_bytes();
                }
                if layer_final[k] {
                    c += op.output_bytes();
                }
            }
            params.push(p);
            activations.push(a);
            checkpoints.push(c);
        }
        MemoryPrefix {
            params,
            activations,
            checkpoints,
        }
    }

    /// Number of ops covered.
    pub fn num_ops(&self) -> usize {
        self.params.len() - 1
    }

    /// The memory fields of `CostProfile::from_ops` over ops `lo..hi` at
    /// `ref_batch` (checkpoints as the lower bound above; FLOP and traffic
    /// fields, which no memory model reads, are zero).
    fn profile(&self, lo: usize, hi: usize, ref_batch: usize) -> CostProfile {
        let rb = ref_batch as f64;
        let param_count = self.params[hi] - self.params[lo];
        CostProfile {
            param_count,
            param_bytes: param_count * 4,
            forward_flops_per_sample: 0.0,
            activation_bytes_per_sample: (self.activations[hi] - self.activations[lo]) as f64 / rb,
            checkpoint_bytes_per_sample: (self.checkpoints[hi] - self.checkpoints[lo]) as f64 / rb,
            memory_traffic_bytes_per_sample: 0.0,
            ref_batch,
        }
    }
}

/// A pipeline leaf that no contiguous stage cut can fit (see
/// [`pipeline_memory_floor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryShortfall {
    /// Bytes the last stage would hold if it took every op the greedy fill
    /// could not place on an earlier stage, under the binding memory model.
    pub need: u64,
    /// Capacity of the binding GPU, bytes.
    pub have: u64,
}

/// One memory model a stage range must satisfy on one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageCheck {
    training: TrainingConfig,
    batch: usize,
    act_mult: f64,
    have: u64,
}

impl StageCheck {
    fn need(&self, profile: &CostProfile) -> u64 {
        self.training
            .memory_bytes(profile, self.batch, self.act_mult)
    }
}

/// Admissible pre-plan memory floor for the pipeline leaf
/// `(replicas, num_micro, gpipe)` on `cluster`: `Some` only when no plan of
/// the leaf can both succeed and pass
/// [`ExecutionPlan::memory_feasible`](crate::ExecutionPlan::memory_feasible).
///
/// The floor asks whether the ops can be cut, in order, into `depth`
/// contiguous stages so that stage `i` fits GPU `i` of every replica group
/// under the memory models the planner enforces:
///
/// * **PSVF's model** on group 0 (only when `config.hardware_aware`, since
///   only then does PSVF run): `memory_bytes(p, max(1, gb₀/m), in_flight)`
///   with the session's training config, exactly as `auto_stages` calls the
///   partitioner. A cut PSVF returns fits this; a failed PSVF is a plan
///   error.
/// * **The ledger's `Stage` arm** on every group `g`: `memory_bytes` with
///   ZeRO sharded `replicas` ways, batch `gb_g`, and multiplier
///   `in_flight / m`. The ledger only adds to a device's `mem_bytes`, so a
///   cut that overflows here fails `memory_feasible`.
///
/// No term of `memory_bytes` shrinks when a stage takes more ops, and the
/// stage order is fixed, so filling each stage greedily as far as it fits
/// leaves the last stage the smallest remainder any feasible cut could:
/// if that remainder overflows, every cut does. Stages may come out empty
/// in the greedy fill — a relaxation the planner never needs, which only
/// weakens the floor. Each stage costs a binary search over the
/// [`MemoryPrefix`], so one leaf is O(stages · log ops) with no partition,
/// IR, plan, or simulation.
///
/// `prefix` must come from the graph the leaf plans. Returns `None` when
/// some cut may fit, or when the leaf is outside the floor's shape (an
/// explicit device assignment, or a cluster that does not tile into
/// `replicas` groups of depth ≥ 2).
pub fn pipeline_memory_floor(
    prefix: &MemoryPrefix,
    cluster: &Cluster,
    config: &PlannerConfig,
    replicas: usize,
    num_micro: usize,
    gpipe: bool,
    global_batch: usize,
) -> Option<MemoryShortfall> {
    if !matches!(config.devices, DeviceAssignment::Auto) {
        return None;
    }
    let depth = pipeline_depth(cluster, replicas, num_micro)?;
    let batches = group_batches(cluster, config, replicas, depth, global_batch).ok()?;
    let ref_batch = global_batch.max(1);
    let ops = prefix.num_ops();
    let gpus = cluster.gpus();
    let psvf_batch = (batches[0] / num_micro).max(1);
    let mut stage_cfg = config.training;
    stage_cfg.dp_shards = replicas;

    let mut checks: Vec<StageCheck> = Vec::with_capacity(batches.len() + 1);
    let mut start = 0;
    for stage in 0..depth {
        let in_flight = in_flight_micro_batches(stage, depth, num_micro, gpipe) as f64;
        checks.clear();
        if config.hardware_aware {
            checks.push(StageCheck {
                training: config.training,
                batch: psvf_batch,
                act_mult: in_flight,
                have: gpus[stage].memory_bytes(),
            });
        }
        for (g, &batch) in batches.iter().enumerate() {
            let check = StageCheck {
                training: stage_cfg,
                batch,
                act_mult: in_flight / num_micro as f64,
                have: gpus[g * depth + stage].memory_bytes(),
            };
            // Groups with the same batch share and GPU capacity ask the
            // same question.
            if !checks.contains(&check) {
                checks.push(check);
            }
        }
        let fits = |hi: usize| {
            let p = prefix.profile(start, hi, ref_batch);
            checks.iter().all(|c| c.need(&p) <= c.have)
        };
        if stage + 1 == depth {
            let p = prefix.profile(start, ops, ref_batch);
            return checks
                .iter()
                .map(|c| (c.need(&p), c.have))
                .filter(|(need, have)| need > have)
                .max_by_key(|&(need, have)| (need - have, need))
                .map(|(need, have)| MemoryShortfall { need, have });
        }
        if fits(ops) {
            // Every remaining op fits here; later stages may stay empty.
            return None;
        }
        // Largest end this stage can hold (the empty range counts as
        // fitting, per the relaxation above).
        let (mut lo, mut hi) = (start, ops);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        start = lo;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Cluster;

    fn cfg() -> TrainingConfig {
        TrainingConfig::default()
    }

    #[test]
    fn in_flight_counts() {
        // 4 stages, 8 micro batches, backward-first: 4,3,2,1.
        assert_eq!(in_flight_micro_batches(0, 4, 8, false), 4);
        assert_eq!(in_flight_micro_batches(3, 4, 8, false), 1);
        // GPipe keeps all 8 everywhere.
        assert_eq!(in_flight_micro_batches(0, 4, 8, true), 8);
        // Fewer micro batches than stages caps at m.
        assert_eq!(in_flight_micro_batches(0, 8, 2, false), 2);
    }

    #[test]
    fn even_cut_on_homogeneous_gpus() {
        let g = models::bert_base(4, 64).unwrap();
        let c = Cluster::parse("4xV100").unwrap();
        let part = pipeline_partition(&g, &cfg(), c.gpus(), 1, 4, false, 4, true).unwrap();
        assert_eq!(part.num_stages(), 4);
        let f = stage_flops(&g, &part);
        let mean = f.iter().sum::<f64>() / 4.0;
        for (i, &s) in f.iter().enumerate() {
            assert!(
                (s - mean).abs() / mean < 0.35,
                "stage {i} flops {s} vs mean {mean}"
            );
        }
    }

    #[test]
    fn hardware_aware_gives_v100_more_flops() {
        let g = models::bert_large(4, 128).unwrap();
        // Stage GPUs: P100, P100, V100, V100 (the paper's baseline order).
        let c = Cluster::parse("2xP100,2xV100").unwrap();
        let aware = pipeline_partition(&g, &cfg(), c.gpus(), 1, 4, false, 4, true).unwrap();
        let f = stage_flops(&g, &aware);
        let p100_mean = (f[0] + f[1]) / 2.0;
        let v100_mean = (f[2] + f[3]) / 2.0;
        assert!(
            v100_mean > p100_mean * 1.3,
            "V100 stages should carry more: {f:?}"
        );

        let baseline = pipeline_partition(&g, &cfg(), c.gpus(), 1, 4, false, 4, false).unwrap();
        let fb = stage_flops(&g, &baseline);
        let spread = (fb.iter().cloned().fold(f64::MIN, f64::max)
            - fb.iter().cloned().fold(f64::MAX, f64::min))
            / fb.iter().sum::<f64>();
        assert!(spread < 0.3, "baseline should be near-even: {fb:?}");
    }

    #[test]
    fn stages_cover_all_ops_without_overlap() {
        let g = models::t5_large(2, 64, 64).unwrap();
        let c = Cluster::parse("2xP100,2xV100").unwrap();
        let part = pipeline_partition(&g, &cfg(), c.gpus(), 1, 4, false, 2, true).unwrap();
        assert_eq!(part.cuts[0], 0);
        assert_eq!(*part.cuts.last().unwrap(), g.len());
        let total: usize = (0..part.num_stages())
            .map(|k| part.stage_ops(k).len())
            .sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn memoized_partition_is_bit_identical_to_uncached() {
        // Sweep configurations with and without memory pressure (the large
        // micro batches push the P100 stages into PSVF) and require the
        // exact same cuts and PSVF trace from the cached and uncached paths.
        let g = models::bert_large(8, 128).unwrap();
        let c = Cluster::parse("2xP100,2xV100").unwrap();
        let cfg = TrainingConfig::default();
        for aware in [false, true] {
            for (micro_batch, num_micro, gpipe) in [(1, 4, false), (8, 8, false), (16, 8, true)] {
                let fast = pipeline_partition_opts(
                    &g,
                    &cfg,
                    c.gpus(),
                    micro_batch,
                    num_micro,
                    gpipe,
                    8,
                    aware,
                    true,
                );
                let slow = pipeline_partition_opts(
                    &g,
                    &cfg,
                    c.gpus(),
                    micro_batch,
                    num_micro,
                    gpipe,
                    8,
                    aware,
                    false,
                );
                match (fast, slow) {
                    (Ok(f), Ok(s)) => assert_eq!(f, s, "aware={aware} mb={micro_batch}"),
                    (Err(f), Err(s)) => assert_eq!(f.to_string(), s.to_string()),
                    (f, s) => panic!("divergent outcomes: {f:?} vs {s:?}"),
                }
            }
        }
    }

    #[test]
    fn cross_plan_memo_hits_are_bit_identical() {
        // The search's leaf pattern: one (graph, cluster) pair swept over
        // many (micro_batch, num_micro, schedule) leaves. After the first
        // call every memoized call is a memo hit; each must equal the
        // uncached compute bit-for-bit, including leaves whose memory
        // pressure forces the PSVF fall-through.
        let g = models::bert_large(8, 128).unwrap();
        let c = Cluster::parse("2xP100,2xV100").unwrap();
        let cfg = TrainingConfig::default();
        for num_micro in [1usize, 2, 4, 8, 16] {
            for micro_batch in [1usize, 4, 16] {
                for gpipe in [false, true] {
                    let hit = pipeline_partition_profiled(
                        &g,
                        &cfg,
                        c.gpus(),
                        micro_batch,
                        num_micro,
                        gpipe,
                        8,
                        true,
                        true,
                    )
                    .unwrap();
                    let cold = pipeline_partition_profiled(
                        &g,
                        &cfg,
                        c.gpus(),
                        micro_batch,
                        num_micro,
                        gpipe,
                        8,
                        true,
                        false,
                    )
                    .unwrap();
                    assert_eq!(
                        hit.0, cold.0,
                        "mb={micro_batch} m={num_micro} gpipe={gpipe}"
                    );
                    // The memoized path must also hand back the profiles the
                    // planner's stage loop needs, for the repaired cuts.
                    let profiles = hit.1.expect("memoized call returns profiles");
                    for (k, p) in profiles.iter().enumerate() {
                        let ops: Vec<OpId> = hit.0.stage_ops(k);
                        assert_eq!(*p, CostProfile::from_ops(&g, &ops, 8));
                    }
                }
            }
        }
    }

    #[test]
    fn memory_prefix_reproduces_from_ops() {
        // Parameters and stored activations must match the planner's
        // profiles bit for bit on every range; the checkpoint term must
        // never exceed them.
        for g in [
            models::bert_base(4, 64).unwrap(),
            models::t5_large(2, 64, 64).unwrap(),
        ] {
            let prefix = MemoryPrefix::new(&g);
            let n = g.len();
            assert_eq!(prefix.num_ops(), n);
            for lo in (0..n).step_by(7) {
                for hi in (lo..=n).step_by(5).chain([n]) {
                    let ops: Vec<OpId> = (lo..hi).map(OpId).collect();
                    let exact = CostProfile::from_ops(&g, &ops, 4);
                    let fast = prefix.profile(lo, hi, 4);
                    assert_eq!(fast.param_count, exact.param_count, "{lo}..{hi}");
                    assert_eq!(
                        fast.activation_bytes_per_sample.to_bits(),
                        exact.activation_bytes_per_sample.to_bits(),
                        "{lo}..{hi}"
                    );
                    assert!(
                        fast.checkpoint_bytes_per_sample <= exact.checkpoint_bytes_per_sample,
                        "{lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_floor_matches_brute_force_cuts() {
        // Enumerate every contiguous cut (empty stages allowed, as in the
        // floor's relaxation) of a small model and price each stage with
        // the planner's own profiles: without recompute the floor must
        // reject exactly the leaves no cut fits; with recompute (a lower
        // bound) it may reject only such leaves.
        let config = models::BertConfig {
            layers: 3,
            ..models::BertConfig::large()
        };
        let (mut rejected, mut accepted) = (0, 0);
        for (spec, replicas) in [("1xV100,1xP100", 1), ("2xV100,2xP100", 2), ("3xP100", 1)] {
            let cluster = Cluster::parse(spec).unwrap();
            let depth = cluster.num_gpus() / replicas;
            for batch in [256usize, 1024, 4096] {
                let g = models::bert(config, batch, 128).unwrap();
                let prefix = MemoryPrefix::new(&g);
                let n = g.len();
                let ranges: HashMap<(usize, usize), CostProfile> = (0..=n)
                    .flat_map(|lo| (lo..=n).map(move |hi| (lo, hi)))
                    .map(|(lo, hi)| {
                        let ops: Vec<OpId> = (lo..hi).map(OpId).collect();
                        ((lo, hi), CostProfile::from_ops(&g, &ops, batch))
                    })
                    .collect();
                for recompute in [false, true] {
                    let cfg = PlannerConfig {
                        training: TrainingConfig {
                            recompute,
                            ..TrainingConfig::default()
                        },
                        ..PlannerConfig::default()
                    };
                    let batches = group_batches(&cluster, &cfg, replicas, depth, batch).unwrap();
                    for num_micro in [1usize, 2, 4, 8, 16] {
                        for gpipe in [false, true] {
                            let fits = |stage: usize, lo: usize, hi: usize| {
                                let p = &ranges[&(lo, hi)];
                                let in_flight =
                                    in_flight_micro_batches(stage, depth, num_micro, gpipe) as f64;
                                let psvf_ok = cfg.training.memory_bytes(
                                    p,
                                    (batches[0] / num_micro).max(1),
                                    in_flight,
                                ) <= cluster.gpus()[stage].memory_bytes();
                                let mut ledger = cfg.training;
                                ledger.dp_shards = replicas;
                                psvf_ok
                                    && batches.iter().enumerate().all(|(gi, &gb)| {
                                        ledger.memory_bytes(p, gb, in_flight / num_micro as f64)
                                            <= cluster.gpus()[gi * depth + stage].memory_bytes()
                                    })
                            };
                            let feasible = if depth == 2 {
                                (0..=n).any(|c| fits(0, 0, c) && fits(1, c, n))
                            } else {
                                (0..=n).any(|c1| {
                                    fits(0, 0, c1)
                                        && (c1..=n).any(|c2| fits(1, c1, c2) && fits(2, c2, n))
                                })
                            };
                            let floor = pipeline_memory_floor(
                                &prefix, &cluster, &cfg, replicas, num_micro, gpipe, batch,
                            );
                            let what = format!(
                                "{spec} batch={batch} recompute={recompute} m={num_micro} \
                                 gpipe={gpipe}"
                            );
                            if let Some(short) = floor {
                                assert!(!feasible, "{what}: rejected a fitting leaf");
                                assert!(short.need > short.have, "{what}: {short:?}");
                                rejected += 1;
                            } else {
                                assert!(recompute || feasible, "{what}: missed an infeasible leaf");
                                accepted += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            rejected > 0 && accepted > 0,
            "{rejected} rejected, {accepted} accepted"
        );
    }

    #[test]
    fn memory_floor_stays_out_of_explicit_assignments() {
        let g = models::bert_large(4096, 128).unwrap();
        let prefix = MemoryPrefix::new(&g);
        let cluster = Cluster::parse("2xP100").unwrap();
        let cfg = PlannerConfig::default();
        assert!(pipeline_memory_floor(&prefix, &cluster, &cfg, 1, 1, true, 4096).is_some());
        let explicit = PlannerConfig {
            devices: DeviceAssignment::PerTaskGraph(Vec::new()),
            ..PlannerConfig::default()
        };
        assert_eq!(
            pipeline_memory_floor(&prefix, &cluster, &explicit, 1, 1, true, 4096),
            None
        );
        // One-stage and non-tiling shapes are not pipelines it can price.
        assert_eq!(
            pipeline_memory_floor(&prefix, &cluster, &cfg, 2, 1, true, 4096),
            None
        );
        assert_eq!(
            pipeline_memory_floor(&prefix, &cluster, &cfg, 3, 1, true, 4096),
            None
        );
    }

    #[test]
    fn shift_op_preserves_coverage() {
        let g = models::bert_base(2, 64).unwrap();
        let c = Cluster::parse("4xV100").unwrap();
        let config = cfg();
        let mut w = PipeWorkload::new(
            &g,
            balanced_cuts(
                &g.ops()
                    .iter()
                    .map(|o| o.forward_flops())
                    .collect::<Vec<_>>(),
                &[1.0; 4],
            )
            .unwrap(),
            &config,
            c.gpus(),
            1,
            4,
            false,
            2,
            true,
        );
        let before = w.cuts.clone();
        // Fig. 11: shift one op from stage 0 to stage 2.
        assert!(w.shift(0, 2));
        assert_eq!(w.cuts[0], before[0]);
        assert_eq!(w.cuts[1], before[1] - 1);
        assert_eq!(w.cuts[2], before[2] - 1);
        assert_eq!(w.cuts[3], before[3]);
        // And back.
        assert!(w.shift(2, 0));
        assert_eq!(w.cuts, before);
    }

    #[test]
    fn shift_refuses_to_empty_a_stage() {
        let g = models::bert_base(2, 64).unwrap();
        let c = Cluster::parse("3xV100").unwrap();
        let n = g.len();
        let config = cfg();
        // Stage 1 has exactly one op.
        let mut w = PipeWorkload::new(
            &g,
            vec![0, 1, 2, n],
            &config,
            c.gpus(),
            1,
            4,
            false,
            2,
            true,
        );
        // Moving from stage 0 through stage 1 would empty stage 0 (one op).
        assert!(!w.shift(0, 2));
        assert_eq!(
            w.cuts,
            vec![0, 1, 2, n],
            "failed shift must not corrupt cuts"
        );
    }
}

#[cfg(test)]
mod pipe_property_tests {
    use super::*;
    use whale_graph::models;
    use whale_hardware::Cluster;

    /// Any mix of stage GPUs and micro-batch counts yields a partition that
    /// covers all ops exactly once with non-empty stages. The parameter
    /// space is small enough to sweep exhaustively instead of sampling.
    #[test]
    fn partition_always_covers() {
        let g = models::bert_base(8, 64).unwrap();
        let cfg = TrainingConfig::default();
        for v100s in 0usize..4 {
            for p100s in 0usize..4 {
                if v100s + p100s == 0 {
                    continue;
                }
                for micro in [1usize, 5, 15] {
                    for aware in [false, true] {
                        let spec = match (v100s, p100s) {
                            (0, p) => format!("{p}xP100"),
                            (v, 0) => format!("{v}xV100"),
                            (v, p) => format!("{v}xV100,{p}xP100"),
                        };
                        let cluster = Cluster::parse(&spec).unwrap();
                        let part =
                            pipeline_partition(&g, &cfg, cluster.gpus(), 1, micro, false, 8, aware)
                                .unwrap();
                        assert_eq!(part.num_stages(), cluster.num_gpus());
                        assert_eq!(part.cuts[0], 0);
                        assert_eq!(*part.cuts.last().unwrap(), g.len());
                        for w in part.cuts.windows(2) {
                            assert!(w[1] > w[0]);
                        }
                        // Hardware awareness must never hand a P100 stage
                        // more FLOPs than the heaviest V100 stage (when both
                        // kinds exist).
                        if aware && v100s > 0 && p100s > 0 {
                            let f = stage_flops(&g, &part);
                            let max_p100 = cluster
                                .gpus()
                                .iter()
                                .zip(&f)
                                .filter(|(g, _)| g.model == whale_hardware::GpuModel::P100_16GB)
                                .map(|(_, &x)| x)
                                .fold(0.0f64, f64::max);
                            let max_v100 = cluster
                                .gpus()
                                .iter()
                                .zip(&f)
                                .filter(|(g, _)| g.model == whale_hardware::GpuModel::V100_32GB)
                                .map(|(_, &x)| x)
                                .fold(0.0f64, f64::max);
                            assert!(
                                max_v100 * 1.2 >= max_p100,
                                "V100 stages should carry at least comparable work: \
                                 v={max_v100} p={max_p100}"
                            );
                        }
                    }
                }
            }
        }
    }
}
