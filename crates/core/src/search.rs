//! Branch-and-bound auto-parallel search (Piper-style two-level
//! decomposition with DAPPLE-style micro-batch/schedule choice) — the one
//! driver behind both auto-parallel entry points.
//!
//! A strategy space is a list of level-1 *structures*, each a family of
//! fully specified leaves. Two generators build one:
//!
//! * the **wide** space of [`auto_parallel_search`] *generates*
//!
//!   ```text
//!   strategy   ::= structure × micro-batch count × schedule
//!   structure  ::= dp                                    (replica degree n)
//!                | pipeline(r)      r | n, depth d = n/r (replica × stage)
//!                | moe(r)           r | n, experts split n/r-wide per group
//!                | dp+split(op)                          (replica × split)
//!   micro      ::= {2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128}
//!   schedule   ::= backward-first (1F1B) | GPipe flush
//!   ```
//!
//! * the **narrow** preset of [`crate::auto::auto_parallel`] is a fixed
//!   list of hand-picked leaves in one structure, under the session's
//!   schedule: `data-parallel`, `pipeline(micro=4|8|16)`,
//!   `pipeline+dp(micro=8|16)` on multi-node clusters, and the MoE and
//!   dominant-classifier structures when the graph has them.
//!
//! The driver prunes either space with *admissible* lower bounds
//! (`whale_planner::estimate`, `whale_planner::pipe_balance`): a leaf is
//! discarded only when even its most optimistic step time cannot strictly
//! beat the incumbent, so pruning never changes the winner of the space it
//! searches. Under the default session settings the wide space contains
//! every narrow leaf's shape, so there it never loses to the narrow preset.
//!
//! Two levels, three time gates and a memory gate:
//!
//! 1. **structure bound** — the cheapest leaf bound of a structure; prunes
//!    whole subtrees before any per-leaf work;
//! 2. **pre-plan leaf bound** — [`whale_planner::structural_lower_bound`]
//!    from cluster aggregates (work conservation, fastest-GPU critical
//!    chain, stage-bottleneck averaging); prunes before paying for a plan;
//!    pipeline leaves that survive it first meet the **memory floor**
//!    ([`whale_planner::pipeline_memory_floor`]: no contiguous stage cut
//!    fits, so no plan could run), then the partition-seeded
//!    [`whale_planner::pipeline_leaf_bound`];
//! 3. **post-plan bound** — [`whale_planner::estimate_step_lower_bound`]
//!    from the planned stages' real rooflines; prunes before paying for a
//!    simulation.
//!
//! Leaves with more micro batches than per-replica samples are rejected up
//! front in both spaces, and planned leaves that do not fit device memory
//! are rejected at the wave drain.
//!
//! Determinism: structures and leaves are ordered best-bound-first with
//! generation-index tie-breaks, leaves are evaluated in fixed-size waves
//! (independent of `search_threads`), every prune/incumbent decision runs
//! serially between the fanned-out plan/simulate phases, and the fan-out
//! merges by index — so any thread count returns the identical
//! [`AutoReport`] (see `tests/search_determinism.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use whale_graph::Graph;
use whale_hardware::GroupCache;
use whale_planner::{
    estimate_step_lower_bound, pipeline_leaf_bound, pipeline_memory_floor, structural_lower_bound,
    ExecutionPlan, MemoryPrefix, ScheduleKind, StructuralBound,
};

use crate::auto::{
    effective_threads, evaluate_plan, fan_out, memory_reject, probe_graph, AutoReport, Candidate,
    GraphProbe, RejectReason, SearchStats,
};
use crate::error::{Result, WhaleError};
use crate::session::Session;
use crate::strategies;

/// Micro-batch counts the wide generator sweeps (clipped to the global
/// batch and [`SearchOptions::max_micro`]). Superset of the narrow list's
/// {4, 8, 16}, so the wide space contains every narrow leaf's shape.
const MICRO_GRID: [usize; 15] = [2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128];

/// Knobs of the branch-and-bound driver, for both the wide search and the
/// narrow preset; [`SearchOptions::default`] is the production
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOptions {
    /// Worker threads for the plan and simulate fan-outs. `0` sizes to
    /// [`std::thread::available_parallelism`]; any value returns an
    /// identical report.
    pub search_threads: usize,
    /// Leaves evaluated per wave. The wave is the determinism unit: bounds
    /// and the incumbent are re-read serially between waves, never inside
    /// one, so the report does not depend on worker scheduling.
    pub wave: usize,
    /// Largest micro-batch count the wide generator proposes. Shapes only
    /// the wide space; the narrow preset's leaves are fixed.
    pub max_micro: usize,
    /// Include the GPipe flush schedule next to backward-first (1F1B) in
    /// the wide space. Shapes only the wide space; the narrow preset runs
    /// every leaf under the session's schedule.
    pub gpipe: bool,
    /// Disable every pruning gate — the three time bounds and the memory
    /// floor: plan *and* simulate every leaf. Exists for the admissibility
    /// tests and for auditing the gates; the winner must match the pruned
    /// search.
    pub exhaustive: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            search_threads: 0,
            wave: 8,
            max_micro: 128,
            gpipe: true,
            exhaustive: false,
        }
    }
}

/// How a leaf builds its IR (the generators' closed strategy vocabulary).
#[derive(Debug, Clone)]
enum LeafKind {
    /// Whole-model replication over every GPU.
    Dp,
    /// `replicas` pipeline groups, one stage per group GPU, `micro` micro
    /// batches (`replicas == 1` = single full-depth pipeline).
    Pipeline { replicas: usize, micro: usize },
    /// MoE: experts split `n/replicas`-wide inside each of `replicas`
    /// plan-level replica groups.
    Moe { replicas: usize },
    /// Replicated feature extractor + split classifier (`marker` names the
    /// dominant FC).
    Split { marker: String },
}

/// One fully specified strategy (a level-2 leaf).
#[derive(Debug, Clone)]
struct Leaf {
    name: String,
    kind: LeafKind,
    schedule: ScheduleKind,
    /// Admissible pre-plan lower bound on step time, seconds.
    lb: f64,
    /// Structurally unrealizable on this workload (more micro batches than
    /// per-replica samples): rejected up front, never planned, and excluded
    /// from structure bounds and probe selection.
    degenerate: bool,
}

/// A level-1 node: a family of leaves sharing replica degree and shape (or,
/// for the narrow preset, its whole fixed list).
pub(crate) struct Structure {
    /// Cheapest leaf bound (the structure's own admissible bound).
    lb: f64,
    /// Exploration-order key: `lb` plus a gradient-sync cost heuristic for
    /// the structure's replica degree. The admissible bound ignores
    /// communication, which makes DP-heavy structures look exactly as
    /// cheap as deep pipelines; the heuristic restores the real ranking so
    /// a strong incumbent lands early. Pruning never reads this key — a
    /// bad guess costs time, never the optimum.
    key: f64,
    leaves: Vec<Leaf>,
}

impl Structure {
    /// A structure over `leaves`, explored at its bound plus `sync_heur`.
    fn new(leaves: Vec<Leaf>, sync_heur: f64) -> Structure {
        // The structure's bound covers only leaves it could ever plan;
        // degenerate leaves are rejected outright, so their (optimistic,
        // large-micro) bounds must not dilute it.
        let lb = leaves
            .iter()
            .filter(|l| !l.degenerate)
            .map(|l| l.lb)
            .fold(f64::INFINITY, f64::min);
        Structure {
            lb,
            key: lb + sync_heur,
            leaves,
        }
    }
}

fn schedule_label(s: ScheduleKind) -> &'static str {
    match s {
        ScheduleKind::BackwardFirst => "1f1b",
        ScheduleKind::GPipe => "gpipe",
        ScheduleKind::AsyncNoFlush => "async",
    }
}

/// Whether the time bounds may price a leaf run under `schedule`. They
/// model flush schedules, where every step fills and drains the pipeline
/// and co-located stages run back to back. The async no-flush schedule
/// (reachable only through the narrow preset, which runs the session's
/// schedule) charges just the slowest stage's work, so no bound applies and
/// such a leaf is never bounded away on time; the memory floor and the
/// degenerate-micro rule still apply.
fn time_bounded(schedule: ScheduleKind) -> bool {
    schedule != ScheduleKind::AsyncNoFlush
}

/// Ascending divisors of `n`.
fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

/// Build the leaf's IR from a fresh graph clone.
fn build_ir(kind: &LeafKind, graph: Graph, global_batch: usize) -> Result<whale_ir::WhaleIr> {
    match kind {
        LeafKind::Dp => strategies::data_parallel(graph, global_batch),
        LeafKind::Pipeline { replicas, micro } => {
            if *replicas > 1 {
                strategies::pipeline_with_dp(graph, global_batch, *micro)
            } else {
                strategies::pipeline_only(graph, global_batch, *micro)
            }
        }
        LeafKind::Moe { replicas } => {
            if *replicas > 1 {
                strategies::moe_hybrid_ep(graph, global_batch)
            } else {
                strategies::moe_hybrid(graph, global_batch)
            }
        }
        LeafKind::Split { marker } => {
            strategies::feature_dp_classifier_split(graph, global_batch, marker)
        }
    }
}

/// The per-leaf session: the shared session with this leaf's schedule and
/// plan-level DP degree applied. Clones share the caller's `PlanService`,
/// so identical (ir, cluster, config) keys across leaves plan once.
fn leaf_session(base: &Session, leaf: &Leaf) -> Session {
    let replicas = match &leaf.kind {
        LeafKind::Pipeline { replicas, .. } | LeafKind::Moe { replicas } => *replicas,
        _ => 1,
    };
    let mut s = base.clone().schedule(leaf.schedule);
    if replicas > 1 {
        s = s.outer_dp(replicas);
    }
    s
}

/// What a structure generator reads: the session and the probed graph.
pub(crate) struct Space<'a> {
    session: &'a Session,
    global_batch: usize,
    probe: &'a GraphProbe,
    fw_flops_per_sample: f64,
    param_bytes: f64,
}

impl Space<'_> {
    fn num_gpus(&self) -> usize {
        self.session.cluster().num_gpus()
    }

    /// One leaf with its admissible pre-plan bound
    /// ([`whale_planner::structural_lower_bound`]) and the degenerate-micro
    /// rule: a pipeline replica group owning `global_batch / replicas`
    /// samples cannot feed more micro batches than that.
    fn leaf(&mut self, name: String, kind: LeafKind, schedule: ScheduleKind) -> Leaf {
        let n = self.num_gpus();
        // (replicas, depth, micro batches, stage width) of the leaf's shape.
        let (replicas, depth, num_micro, stage_width) = match &kind {
            LeafKind::Dp => (n, 1, 1, 1),
            LeafKind::Pipeline { replicas, micro } => (*replicas, n / replicas, *micro, 1),
            LeafKind::Moe { replicas } => (*replicas, 1, 1, n / replicas),
            LeafKind::Split { .. } => (1, 1, 1, n),
        };
        let lb = if time_bounded(schedule) {
            let cfg = self.session.planner_config();
            structural_lower_bound(
                &StructuralBound {
                    fw_flops_per_sample: self.fw_flops_per_sample,
                    global_batch: self.global_batch,
                    replicas,
                    depth,
                    num_micro,
                    stage_width,
                    amp: cfg.training.amp,
                    recompute: cfg.training.recompute,
                    efficiency: cfg.efficiency,
                },
                self.session.cluster(),
            )
        } else {
            0.0
        };
        Leaf {
            name,
            degenerate: matches!(kind, LeafKind::Pipeline { .. })
                && num_micro > self.global_batch / replicas,
            kind,
            schedule,
            lb,
        }
    }
}

/// The narrow preset: the hand-picked candidates of paper Example 6, in
/// report order, as one structure under the session's schedule.
pub(crate) fn narrow_structures(sp: &mut Space<'_>, _: &SearchOptions) -> Vec<Structure> {
    let cfg = sp.session.planner_config();
    let (schedule, outer_dp) = (cfg.schedule, cfg.outer_dp);
    let n_gpus = sp.num_gpus();
    let n_nodes = sp.session.cluster().num_nodes();
    let mut leaves = vec![sp.leaf("data-parallel".into(), LeafKind::Dp, schedule)];
    if n_gpus > 1 {
        for micro in [4, 8, 16] {
            let kind = LeafKind::Pipeline { replicas: 1, micro };
            leaves.push(sp.leaf(format!("pipeline(micro={micro})"), kind, schedule));
        }
    }
    if n_nodes > 1 && n_gpus.is_multiple_of(n_nodes) && n_gpus / n_nodes > 1 {
        // The plan-level DP degree the planner infers: one replica per node
        // unless the session set one.
        let replicas = if outer_dp == 0 { n_nodes } else { outer_dp };
        for micro in [8, 16] {
            let kind = LeafKind::Pipeline { replicas, micro };
            leaves.push(sp.leaf(format!("pipeline+dp(micro={micro})"), kind, schedule));
        }
    }
    if sp.probe.has_moe && n_gpus > 1 {
        let kind = LeafKind::Moe { replicas: 1 };
        leaves.push(sp.leaf("moe(split experts + dp)".into(), kind, schedule));
    }
    if let Some(fc) = &sp.probe.dominant_fc {
        if n_gpus > 1 {
            let kind = LeafKind::Split { marker: fc.clone() };
            leaves.push(sp.leaf(format!("dp+split({fc})"), kind, schedule));
        }
    }
    vec![Structure::new(leaves, 0.0)]
}

/// The wide space: every structure of the grammar in the module docs.
fn wide_structures(sp: &mut Space<'_>, opts: &SearchOptions) -> Vec<Structure> {
    let cluster = sp.session.cluster();
    let n_gpus = cluster.num_gpus();
    let global_batch = sp.global_batch;
    // Slowest pairwise link in the cluster, as an effective bandwidth: the
    // denominator of the exploration-order sync heuristic (see
    // [`Structure::key`]). Measured through the same `p2p_time` model the
    // engine prices transfers with, so the ranking tracks the cost model.
    let sync_bw = {
        let probe_bytes: u64 = 64 << 20;
        let mut worst = 0.0_f64;
        for a in cluster.gpus() {
            for b in cluster.gpus() {
                worst = worst.max(cluster.interconnect.p2p_time(a, b, probe_bytes));
            }
        }
        if worst > 0.0 {
            probe_bytes as f64 / worst
        } else {
            f64::INFINITY
        }
    };
    // Ring-allreduce wire time for one replica group's gradients: each of
    // the `depth` stage groups syncs `params/depth`, groups in parallel.
    let param_bytes = sp.param_bytes;
    let sync_heur = |replicas: usize, depth: usize| -> f64 {
        if replicas < 2 {
            return 0.0;
        }
        let r = replicas as f64;
        2.0 * (r - 1.0) / r * param_bytes / (depth.max(1) as f64 * sync_bw)
    };

    let mut schedules = vec![ScheduleKind::BackwardFirst];
    if opts.gpipe {
        schedules.push(ScheduleKind::GPipe);
    }
    let micro_grid: Vec<usize> = MICRO_GRID
        .iter()
        .copied()
        .filter(|&m| m <= opts.max_micro && m <= global_batch)
        .collect();

    // Pure DP (replica degree n, no pipeline, no schedule dimension).
    let dp = sp.leaf("dp".into(), LeafKind::Dp, ScheduleKind::BackwardFirst);
    let mut structures = vec![Structure::new(vec![dp], sync_heur(n_gpus, 1))];
    // Pipelines: one structure per replica degree r | n with depth n/r ≥ 2.
    if n_gpus > 1 {
        for r in divisors(n_gpus) {
            let depth = n_gpus / r;
            if depth < 2 || r > global_batch {
                continue;
            }
            let mut leaves = Vec::new();
            for &micro in &micro_grid {
                for &schedule in &schedules {
                    // GPipe differs from backward-first only when a flush
                    // actually reorders work: more than one micro batch.
                    if schedule == ScheduleKind::GPipe && micro < 2 {
                        continue;
                    }
                    let name = if r > 1 {
                        format!(
                            "pipeline+dp(r={r},micro={micro},{})",
                            schedule_label(schedule)
                        )
                    } else {
                        format!("pipeline(micro={micro},{})", schedule_label(schedule))
                    };
                    let kind = LeafKind::Pipeline { replicas: r, micro };
                    leaves.push(sp.leaf(name, kind, schedule));
                }
            }
            if !leaves.is_empty() {
                structures.push(Structure::new(leaves, sync_heur(r, depth)));
            }
        }
    }
    // MoE: one structure per expert-parallel degree n/r ≥ 2.
    if sp.probe.has_moe && n_gpus > 1 {
        for r in divisors(n_gpus) {
            let ep = n_gpus / r;
            if ep < 2 || r > global_batch {
                continue;
            }
            let name = if r > 1 {
                format!("moe+dp(r={r},ep={ep})")
            } else {
                format!("moe(ep={ep})")
            };
            let leaf = sp.leaf(
                name,
                LeafKind::Moe { replicas: r },
                ScheduleKind::BackwardFirst,
            );
            structures.push(Structure::new(vec![leaf], sync_heur(r, 1)));
        }
    }
    // Dominant-classifier split.
    if let Some(fc) = &sp.probe.dominant_fc {
        if n_gpus > 1 {
            let kind = LeafKind::Split { marker: fc.clone() };
            let leaf = sp.leaf(format!("dp+split({fc})"), kind, ScheduleKind::BackwardFirst);
            structures.push(Structure::new(vec![leaf], sync_heur(n_gpus, 1)));
        }
    }
    structures
}

/// Explore the nested hybrid strategy space for `graph` and pick the
/// fastest memory-feasible strategy, pruning with admissible bounds.
///
/// Drop-in widening of [`crate::auto::auto_parallel`]: same signature plus
/// [`SearchOptions`], same [`AutoReport`]. The search overrides the
/// session's pipeline schedule per leaf — schedule choice is a search
/// dimension here.
pub fn auto_parallel_search(
    session: &Session,
    global_batch: usize,
    opts: &SearchOptions,
    build: impl Fn() -> Result<Graph> + Sync,
) -> Result<AutoReport> {
    drive(session, global_batch, opts, build, wide_structures)
}

/// Run the strategy space `generate` builds (its level-1 structures)
/// through the branch-and-bound gates and pick the fastest memory-feasible
/// leaf.
pub(crate) fn drive(
    session: &Session,
    global_batch: usize,
    opts: &SearchOptions,
    build: impl Fn() -> Result<Graph> + Sync,
    generate: fn(&mut Space<'_>, &SearchOptions) -> Vec<Structure>,
) -> Result<AutoReport> {
    if global_batch == 0 {
        return Err(whale_ir::IrError::ZeroGlobalBatch.into());
    }
    // Every leaf's CommOpt pass would refuse this config: refuse it once,
    // with its own error, rather than as no feasible strategy.
    session.planner_config().comm.check()?;
    // Leaves clone the probe (an O(1) Arc bump) instead of re-running the
    // model constructor.
    let probe = build()?;
    let probe_stats = whale_graph::graph_stats(&probe);
    let mem_prefix = MemoryPrefix::new(&probe);

    let structures = generate(
        &mut Space {
            session,
            global_batch,
            probe: &probe_graph(&probe),
            fw_flops_per_sample: probe_stats.forward_flops / global_batch as f64,
            param_bytes: probe_stats.params as f64 * 4.0,
        },
        opts,
    );
    // Every post-plan bound prices its collectives through one topology
    // per distinct group.
    let mut groups = GroupCache::new(session.cluster());

    // ---- order best-key-first with index tie-breaks -------------------
    let mut order: Vec<usize> = (0..structures.len()).collect();
    order.sort_by(|&a, &b| {
        structures[a]
            .key
            .total_cmp(&structures[b].key)
            .then(a.cmp(&b))
    });

    // ---- two-level branch-and-bound drive -----------------------------
    let wave = opts.wave.max(1);
    let batch = global_batch as f64;
    let mut stats = SearchStats::default();
    // (throughput, step_time) of the best simulated candidate so far; only
    // updated serially at wave boundaries.
    let mut incumbent: Option<(f64, f64)> = None;

    // A leaf cannot *strictly* beat the incumbent when even its lower
    // bound's throughput is no better.
    let beaten = |lb: f64, incumbent: &Option<(f64, f64)>| match incumbent {
        Some((tp, _)) if !lb.is_nan() && lb > 0.0 => batch / lb <= *tp,
        _ => false,
    };

    // Each structure's probe: the cheapest leaf to *simulate* among those
    // whose bound sits within 5% of the structure's best (first on ties).
    // Simulation cost grows with the micro-batch count (more tasks per
    // timeline), while the bound plateaus once the pipeline bubble is
    // amortized — near the plateau a small-micro leaf buys almost the same
    // incumbent for a fraction of the simulation time. The probe choice is
    // a heuristic: it steers which leaf seeds the incumbent, never what the
    // bound gates may discard, so admissibility is untouched.
    let probe_of: Vec<usize> = structures
        .iter()
        .map(|st| {
            let mut best = 0;
            let mut best_cost = f64::INFINITY;
            for (i, l) in st.leaves.iter().enumerate() {
                if l.degenerate || l.lb > st.lb * 1.05 {
                    continue;
                }
                let cost = match &l.kind {
                    LeafKind::Pipeline { micro, .. } => *micro as f64,
                    _ => 1.0,
                };
                if cost < best_cost {
                    best = i;
                    best_cost = cost;
                }
            }
            best
        })
        .collect();

    // Resolved candidates by (structure, leaf) generation index. Two
    // sweeps fill it: sweep 0 probes the single cheapest-bound leaf of
    // every structure — the admissible bounds are communication-blind, so
    // bound-order alone can leave the incumbent weak while an expensive
    // sync-heavy family plans and simulates; after the probes the
    // incumbent already sits at the best structure's plateau, and the
    // bound gates cut the bulk of the space before it is ever planned.
    // Sweep 1 drives the remaining leaves through the same gates. Each
    // leaf is planned and simulated at most once across both sweeps.
    let mut resolved: BTreeMap<(usize, usize), Candidate> = BTreeMap::new();

    // Degenerate leaves resolve up front (a validity check, not a prune —
    // active in exhaustive mode too): they never plan, never simulate, and
    // never occupy a probe or wave slot.
    for (si, st) in structures.iter().enumerate() {
        for (li, leaf) in st.leaves.iter().enumerate() {
            if !leaf.degenerate {
                continue;
            }
            let (num_micro, group_batch) = match &leaf.kind {
                LeafKind::Pipeline { replicas, micro } => (*micro, global_batch / *replicas),
                _ => unreachable!("only pipeline leaves can be degenerate"),
            };
            stats.nodes_degenerate += 1;
            resolved.insert(
                (si, li),
                Candidate {
                    name: leaf.name.clone(),
                    plan: None,
                    stats: None,
                    rejected: Some(RejectReason::DegenerateMicro {
                        num_micro,
                        group_batch,
                    }),
                },
            );
        }
    }

    for pass in 0..2usize {
        for &si in &order {
            let st = &structures[si];
            let lis: Vec<usize> = if pass == 0 {
                if opts.exhaustive {
                    // Exhaustive mode evaluates everything anyway; probes
                    // would only reorder identical work.
                    continue;
                }
                vec![probe_of[si]]
                    .into_iter()
                    .filter(|i| !resolved.contains_key(&(si, *i)))
                    .collect()
            } else {
                (0..st.leaves.len())
                    .filter(|i| !resolved.contains_key(&(si, *i)))
                    .collect()
            };
            if pass == 1 {
                stats.structures_expanded += 1;
                stats.nodes_expanded += st.leaves.len();
                if !opts.exhaustive && beaten(st.lb, &incumbent) && !lis.is_empty() {
                    // Level-1 prune: every unresolved leaf dies at once. The
                    // structure counts as pruned-whole only when its probe
                    // produced no simulation either.
                    if !matches!(
                        resolved.get(&(si, probe_of[si])),
                        Some(Candidate { stats: Some(_), .. })
                    ) {
                        stats.structures_pruned += 1;
                    }
                    let inc_time = incumbent.map(|(_, t)| t).unwrap_or(f64::INFINITY);
                    for li in lis {
                        stats.nodes_bounded += 1;
                        resolved.insert(
                            (si, li),
                            Candidate {
                                name: st.leaves[li].name.clone(),
                                plan: None,
                                stats: None,
                                rejected: Some(RejectReason::Pruned {
                                    bound: st.leaves[li].lb,
                                    incumbent: inc_time,
                                }),
                            },
                        );
                    }
                    continue;
                }
            }
            if lis.is_empty() {
                continue;
            }

            // Phase 1 (serial): pre-plan gates. The generator's structural
            // bound goes first (free). A pipeline leaf it cannot kill meets
            // the memory floor next: when no contiguous stage cut fits its
            // GPUs, the leaf could only fail inside PSVF or be rejected for
            // memory at the drain, so it dies here — no partition, IR, plan
            // or simulation — as a `MemoryInfeasible` row without a plan. A
            // survivor gets the partition-seeded bound — the exact cuts and
            // profiles its plan would use, a memo hit after the structure's
            // first plan — which sees heterogeneous stage rates, partition
            // imbalance, and memory traffic, and typically reaches within
            // transfers-and-syncs of the post-plan bound at ~1/10 the cost
            // of planning. A bound-call error falls through to planning,
            // which reports the same failure as a `PlanError` row.
            let mut to_plan: Vec<(usize, Leaf, Session)> = Vec::new();
            for li in lis {
                let leaf = &st.leaves[li];
                let mut lb = leaf.lb;
                if !opts.exhaustive && !beaten(lb, &incumbent) {
                    if let LeafKind::Pipeline { replicas, micro } = &leaf.kind {
                        let gpipe = leaf.schedule == ScheduleKind::GPipe;
                        if let Some(short) = pipeline_memory_floor(
                            &mem_prefix,
                            session.cluster(),
                            session.planner_config(),
                            *replicas,
                            *micro,
                            gpipe,
                            global_batch,
                        ) {
                            stats.nodes_bounded += 1;
                            stats.nodes_memory_floor += 1;
                            resolved.insert(
                                (si, li),
                                Candidate {
                                    name: leaf.name.clone(),
                                    plan: None,
                                    stats: None,
                                    rejected: Some(RejectReason::MemoryInfeasible {
                                        need: short.need,
                                        have: short.have,
                                    }),
                                },
                            );
                            continue;
                        }
                        let refined = time_bounded(leaf.schedule).then(|| {
                            pipeline_leaf_bound(
                                &probe,
                                session.cluster(),
                                session.planner_config(),
                                *replicas,
                                *micro,
                                gpipe,
                                global_batch,
                            )
                        });
                        if let Some(Ok(Some(r))) = refined {
                            lb = lb.max(r);
                        }
                    }
                }
                if !opts.exhaustive && beaten(lb, &incumbent) {
                    stats.nodes_bounded += 1;
                    resolved.insert(
                        (si, li),
                        Candidate {
                            name: leaf.name.clone(),
                            plan: None,
                            stats: None,
                            rejected: Some(RejectReason::Pruned {
                                bound: lb,
                                incumbent: incumbent.map(|(_, t)| t).unwrap_or(f64::INFINITY),
                            }),
                        },
                    );
                } else {
                    to_plan.push((li, leaf.clone(), leaf_session(session, leaf)));
                }
            }

            // Phase 2 (parallel): plan every surviving leaf of the sweep at
            // once; the merge is by index, so thread count cannot reorder
            // it.
            let threads = effective_threads(opts.search_threads, to_plan.len());
            type PlanOut = (
                usize,
                Leaf,
                Session,
                std::result::Result<Arc<ExecutionPlan>, String>,
            );
            let planned: Vec<PlanOut> = fan_out(threads, to_plan, |(i, leaf, ls)| {
                let plan = build_ir(&leaf.kind, probe.clone(), global_batch)
                    .and_then(|ir| ls.plan(&ir))
                    .map_err(|e| e.to_string());
                (i, leaf, ls, plan)
            });

            // Phase 3 (serial): the post-plan bound, which both gates the
            // leaf and orders the simulation frontier — the release-time
            // sync term makes it tight enough that a separate closed-form
            // estimate would not rank leaves any better. The memory gate
            // waits until the wave drain: most planned leaves die on the
            // bound there, and a dead leaf's memory model is never priced.
            struct SimLeaf {
                index: usize,
                lb: f64,
                name: String,
                plan: Arc<ExecutionPlan>,
                session: Session,
            }
            let mut frontier: Vec<SimLeaf> = Vec::new();
            for (i, leaf, ls, plan) in planned {
                match plan {
                    Err(e) => {
                        stats.nodes_plan_errors += 1;
                        resolved.insert(
                            (si, i),
                            Candidate {
                                name: leaf.name,
                                plan: None,
                                stats: None,
                                rejected: Some(RejectReason::PlanError(e)),
                            },
                        );
                    }
                    Ok(plan) => {
                        stats.nodes_planned += 1;
                        let lb = if time_bounded(leaf.schedule) {
                            estimate_step_lower_bound(&plan, &mut groups)
                                .map_err(|e| WhaleError::Plan(e.to_string()))?
                        } else {
                            0.0
                        };
                        frontier.push(SimLeaf {
                            index: i,
                            lb,
                            name: leaf.name,
                            plan,
                            session: ls,
                        });
                    }
                }
            }

            // Phase 4: simulate in bound-sorted waves. The first wave
            // almost always contains the sweep's true optimum, so its
            // result makes the incumbent tight and the bound gate
            // (re-checked between waves, serially) kills the rest of the
            // frontier. Order steers *time* only — pruning still uses the
            // admissible bound, so a bad ordering costs waves, never the
            // optimum.
            frontier.sort_by(|a, b| a.lb.total_cmp(&b.lb).then(a.index.cmp(&b.index)));
            let mut frontier = frontier.into_iter().peekable();
            while frontier.peek().is_some() {
                let mut batch_leaves: Vec<SimLeaf> = Vec::new();
                while batch_leaves.len() < wave {
                    let Some(leaf) = frontier.next() else { break };
                    if !opts.exhaustive && beaten(leaf.lb, &incumbent) {
                        stats.nodes_pruned_planned += 1;
                        resolved.insert(
                            (si, leaf.index),
                            Candidate {
                                name: leaf.name,
                                plan: Some(leaf.plan),
                                stats: None,
                                rejected: Some(RejectReason::Pruned {
                                    bound: leaf.lb,
                                    incumbent: incumbent.map(|(_, t)| t).unwrap_or(f64::INFINITY),
                                }),
                            },
                        );
                    } else if !leaf
                        .plan
                        .memory_feasible(session.cluster())
                        .map_err(|e| WhaleError::Plan(e.to_string()))?
                    {
                        stats.nodes_memory_rejected += 1;
                        let cluster = session.cluster();
                        let totals = leaf
                            .plan
                            .memory_totals(cluster)
                            .map_err(|e| WhaleError::Plan(e.to_string()))?;
                        let per_gpu = totals.iter().zip(cluster.gpus());
                        let rejected = Some(memory_reject(per_gpu.filter_map(|(total, gpu)| {
                            total.map(|need| (need, gpu.memory_bytes()))
                        })));
                        resolved.insert(
                            (si, leaf.index),
                            Candidate {
                                name: leaf.name,
                                plan: Some(leaf.plan),
                                stats: None,
                                rejected,
                            },
                        );
                    } else {
                        batch_leaves.push(leaf);
                    }
                }
                let threads = effective_threads(opts.search_threads, batch_leaves.len());
                let evaluated: Vec<(usize, Candidate)> = fan_out(threads, batch_leaves, |l| {
                    (l.index, evaluate_plan(&l.session, &l.name, l.plan))
                });
                // Serial merge in wave order: the incumbent moves only here.
                for (i, cand) in evaluated {
                    stats.nodes_simulated += 1;
                    if let Some(s) = &cand.stats {
                        let better = match incumbent {
                            Some((tp, _)) => s.throughput > tp,
                            None => true,
                        };
                        if better {
                            incumbent = Some((s.throughput, s.step_time));
                        }
                    }
                    resolved.insert((si, i), cand);
                }
            }
        }
    }
    // ---- assemble the report -----------------------------------------
    // Structures in exploration order, leaves in generation order; the
    // winner is the first candidate reaching the best throughput in report
    // order. The probe sweep cannot reorder rows — it only fills them.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut winner: Option<usize> = None;
    for &si in &order {
        for li in 0..structures[si].leaves.len() {
            let cand = resolved.remove(&(si, li)).expect("every leaf resolved");
            if let Some(s) = &cand.stats {
                let better = match winner {
                    Some(w) => {
                        s.throughput
                            > candidates[w]
                                .stats
                                .as_ref()
                                .expect("winner simulated")
                                .throughput
                    }
                    None => true,
                };
                if better {
                    winner = Some(candidates.len());
                }
            }
            candidates.push(cand);
        }
    }

    match winner {
        Some(i) => {
            let w = &candidates[i];
            match (&w.plan, &w.stats) {
                (Some(plan), Some(s)) => Ok(AutoReport {
                    chosen: w.name.clone(),
                    plan: plan.clone(),
                    stats: s.clone(),
                    candidates,
                    search: Some(stats),
                }),
                _ => Err(WhaleError::NoFeasibleStrategy),
            }
        }
        None => Err(WhaleError::NoFeasibleStrategy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;

    #[test]
    fn search_space_contains_the_enumerations_candidates() {
        // Every strategy the narrow enumeration proposes must appear in the
        // widened space (that containment is what makes "never worse than
        // the old winner" a theorem rather than a hope).
        let s = Session::on_cluster("2x(4xV100)").unwrap();
        let report = auto_parallel_search(&s, 64, &SearchOptions::default(), || {
            Ok(models::bert_base(64, 64).unwrap())
        })
        .unwrap();
        let names: Vec<&str> = report.candidates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"dp"));
        for micro in [4, 8, 16] {
            assert!(
                names.contains(&format!("pipeline(micro={micro},1f1b)").as_str()),
                "missing pipeline micro={micro} in {names:?}"
            );
            assert!(names.contains(&format!("pipeline+dp(r=2,micro={micro},1f1b)").as_str()));
        }
        let st = report.search.expect("search stats present");
        assert_eq!(
            st.nodes_expanded,
            report.candidates.len(),
            "one candidate row per expanded leaf"
        );
        assert!(st.nodes_simulated >= 1);
    }

    #[test]
    fn search_beats_or_matches_the_enumeration() {
        let s = Session::on_cluster("4xV100,4xP100").unwrap();
        let build = || Ok(models::bert_base(128, 64).unwrap());
        let narrow = crate::auto::auto_parallel(&s, 128, build).unwrap();
        let wide = auto_parallel_search(&s, 128, &SearchOptions::default(), build).unwrap();
        assert!(
            wide.stats.throughput >= narrow.stats.throughput,
            "wide {} < narrow {}",
            wide.stats.throughput,
            narrow.stats.throughput
        );
    }

    #[test]
    fn moe_graphs_get_expert_parallel_degrees() {
        let s = Session::on_cluster("1x(8xV100)").unwrap();
        let report = auto_parallel_search(&s, 64, &SearchOptions::default(), || {
            Ok(models::m6_moe(models::MoeConfig::tiny(), 64).unwrap())
        })
        .unwrap();
        let names: Vec<&str> = report.candidates.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names.contains(&"moe(ep=8)"),
            "full-cluster split: {names:?}"
        );
        assert!(
            names.contains(&"moe+dp(r=2,ep=4)"),
            "plan-level DP over 4-wide experts: {names:?}"
        );
    }
}
