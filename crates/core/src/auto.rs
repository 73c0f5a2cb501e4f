//! Automatic parallelism (paper Example 6: `wh.auto_parallel()`).
//!
//! Without user annotations, Whale explores parallel strategies itself.
//! [`auto_parallel`] runs the narrow preset — pure DP, auto pipelines at
//! several micro-batch counts, pipeline+DP when the cluster has several
//! nodes, and the MoE and dominant-classifier strategies when the graph has
//! them — through the same branch-and-bound driver as
//! [`crate::search::auto_parallel_search`]: leaves that admissible bounds
//! or the memory floor rule out are never planned or simulated, the rest
//! are planned and simulated, and the fastest memory-feasible plan wins.
//!
//! This module holds the narrow entry points and the report types both
//! entry points return.

use std::sync::Arc;

use whale_graph::Graph;
use whale_planner::ExecutionPlan;
use whale_sim::StepStats;

use crate::error::Result;
use crate::search::{self, SearchOptions};
use crate::session::Session;

/// Why a candidate was rejected — structured so callers can branch on the
/// cause (and render it) without parsing strings.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The candidate needs more bytes on some GPU than that GPU has.
    ///
    /// Two sources. A planned candidate carries its plan, and `need` is the
    /// ledger total of its worst overcommitted GPU. A pipeline leaf the
    /// search's memory floor rejected before planning
    /// ([`whale_planner::pipeline_memory_floor`]) carries no plan: no
    /// contiguous stage cut fits, and `need` is what the last stage would
    /// hold with every op the greedy fill could not place earlier, under
    /// the binding group's memory model.
    MemoryInfeasible {
        /// Peak bytes on the worst offending GPU.
        need: u64,
        /// That GPU's capacity, bytes.
        have: u64,
    },
    /// The strategy is structurally unrealizable on this workload: it asks
    /// for more micro batches than its per-replica batch has samples, so no
    /// plan can give every micro batch even one sample. Detected before
    /// planning; not a prune (no bound involved).
    DegenerateMicro {
        /// Micro batches the strategy requested.
        num_micro: usize,
        /// Samples available per replica group.
        group_batch: usize,
    },
    /// Planning itself failed.
    PlanError(String),
    /// The simulator failed on a planned candidate.
    SimError(String),
    /// Bounded away: the candidate's admissible lower bound on step time
    /// (`bound`, seconds) already meets or exceeds the incumbent
    /// (`incumbent`, seconds), so it cannot win.
    Pruned {
        /// Lower bound on this candidate's step time, seconds.
        bound: f64,
        /// Step time of the incumbent it lost to, seconds.
        incumbent: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::MemoryInfeasible { need, have } => write!(
                f,
                "out of memory (need {:.1} GiB, have {:.1} GiB)",
                *need as f64 / (1u64 << 30) as f64,
                *have as f64 / (1u64 << 30) as f64
            ),
            RejectReason::DegenerateMicro {
                num_micro,
                group_batch,
            } => write!(
                f,
                "unrealizable ({num_micro} micro batches for {group_batch} samples per replica)"
            ),
            RejectReason::PlanError(e) => write!(f, "planning failed: {e}"),
            RejectReason::SimError(e) => write!(f, "simulation failed: {e}"),
            RejectReason::Pruned { bound, incumbent } => {
                write!(f, "pruned (bound {bound:.4}s vs incumbent {incumbent:.4}s)")
            }
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Human-readable strategy name.
    pub name: String,
    /// The plan, if planning succeeded (shared with the plan cache).
    pub plan: Option<Arc<ExecutionPlan>>,
    /// Step statistics, if simulation succeeded and memory fit.
    pub stats: Option<StepStats>,
    /// Why the candidate was rejected, if it was.
    pub rejected: Option<RejectReason>,
}

/// Pruning counters of one branch-and-bound search ([`AutoReport::search`]).
///
/// The leaf counters partition the leaves with no overlap and nothing left
/// out:
///
/// ```text
/// nodes_expanded = nodes_bounded + nodes_degenerate + nodes_plan_errors + nodes_planned
/// nodes_planned  = nodes_memory_rejected + nodes_pruned_planned + nodes_simulated
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Level-1 structure nodes considered.
    pub structures_expanded: usize,
    /// Structures whose entire leaf set was bounded away at level 1.
    pub structures_pruned: usize,
    /// Leaf strategies generated (every (structure, micro, schedule) cell).
    pub nodes_expanded: usize,
    /// Leaves rejected before planning by a pre-plan gate: the structure
    /// bound, the leaf's time bounds, or the memory floor. Never planned.
    pub nodes_bounded: usize,
    /// The memory floor's share of [`SearchStats::nodes_bounded`]: pipeline
    /// leaves no contiguous stage cut can fit
    /// ([`whale_planner::pipeline_memory_floor`]), rejected with
    /// [`RejectReason::MemoryInfeasible`] and no plan.
    pub nodes_memory_floor: usize,
    /// Leaves with more micro batches than per-replica samples
    /// ([`RejectReason::DegenerateMicro`]). Never planned.
    pub nodes_degenerate: usize,
    /// Leaves whose plan attempt failed ([`RejectReason::PlanError`]).
    pub nodes_plan_errors: usize,
    /// Leaves that paid for a full plan.
    pub nodes_planned: usize,
    /// Planned leaves rejected at the wave drain because the plan does not
    /// fit device memory ([`RejectReason::MemoryInfeasible`] with a plan).
    pub nodes_memory_rejected: usize,
    /// Planned leaves pruned by the post-plan bound (never simulated).
    pub nodes_pruned_planned: usize,
    /// Leaves that paid for a full simulation.
    pub nodes_simulated: usize,
}

impl SearchStats {
    /// Fraction of expanded leaves rejected before any plan attempt —
    /// bounded or degenerate (the headline pruning metric `search_bench`
    /// gates on). Failed plan attempts do not count: they paid for
    /// planning.
    pub fn bounded_fraction(&self) -> f64 {
        if self.nodes_expanded == 0 {
            return 0.0;
        }
        (self.nodes_bounded + self.nodes_degenerate) as f64 / self.nodes_expanded as f64
    }
}

/// The auto-parallel decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoReport {
    /// Winning strategy name.
    pub chosen: String,
    /// Winning plan (shared with the plan cache and the winning candidate).
    pub plan: Arc<ExecutionPlan>,
    /// Winning step stats.
    pub stats: StepStats,
    /// All candidates in report order: structures in exploration order,
    /// leaves in generation order (the narrow preset's fixed order).
    pub candidates: Vec<Candidate>,
    /// Pruning counters of the driver that produced the report. Both
    /// [`auto_parallel`] and [`crate::search::auto_parallel_search`] set
    /// it, and its partition identities ([`SearchStats`]) hold on both.
    pub search: Option<SearchStats>,
}

/// Resolve a `search_threads` knob (0 = all cores) against the number of
/// work items.
pub(crate) fn effective_threads(requested: usize, work_items: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    requested.min(work_items).max(1)
}

/// Structure probe shared by the narrow preset and the wide search:
/// pattern-match MoE layers and a dominant fully-connected classifier (the
/// paper's planner likewise pattern-matches these shapes, §4 "TaskGraph
/// Partition").
pub(crate) struct GraphProbe {
    pub has_moe: bool,
    pub dominant_fc: Option<String>,
}

pub(crate) fn probe_graph(graph: &Graph) -> GraphProbe {
    let has_moe = graph
        .ops()
        .iter()
        .any(|op| matches!(op.kind, whale_graph::OpKind::MoeFfn { .. }));
    let total_params = graph.total_params().max(1);
    let dominant_fc: Option<String> = graph
        .ops()
        .iter()
        .filter(|op| {
            matches!(
                op.kind,
                whale_graph::OpKind::MatMul {
                    has_params: true,
                    ..
                }
            ) && op.param_count() * 2 > total_params
        })
        .map(|op| op.name.clone())
        .next();
    GraphProbe {
        has_moe,
        dominant_fc,
    }
}

/// Structured memory rejection for `plan` on `cluster`: the worst
/// overcommitted GPU's (need, have) pair, or the busiest GPU when the
/// ledger itself stays under capacity.
pub(crate) fn memory_reject(
    plan: &ExecutionPlan,
    cluster: &whale_hardware::Cluster,
) -> RejectReason {
    let (need, have) = plan
        .memory_per_gpu()
        .iter()
        .map(|(&gpu, &bytes)| {
            let cap = cluster.gpu(gpu).map(|g| g.memory_bytes()).unwrap_or(0);
            (bytes, cap)
        })
        .max_by_key(|&(bytes, cap)| (bytes.saturating_sub(cap), bytes))
        .unwrap_or((0, 0));
    RejectReason::MemoryInfeasible { need, have }
}

/// Run `f` over `items`, fanning across `threads` scoped workers when
/// `threads > 1`. Items are pre-split into contiguous chunks and workers
/// steal whole chunks from a shared counter, so the hot path (one item)
/// acquires no lock — each chunk's mutexes are touched exactly twice, at
/// claim and at publish. Results come back in item order no matter which
/// worker ran which chunk, and each item is processed exactly once, so the
/// output is identical to the serial loop.
pub(crate) fn fan_out<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = items.len();
    // ~4 chunks per worker keeps stealing granular enough to absorb uneven
    // item costs (one slow simulate does not serialize the tail) without
    // per-item synchronization.
    let num_chunks = (threads * 4).min(n).max(1);
    let chunk_len = n.div_ceil(num_chunks);
    let mut work: Vec<Mutex<Option<Vec<T>>>> = Vec::with_capacity(num_chunks);
    {
        let mut items = items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            work.push(Mutex::new(Some(chunk)));
        }
    }
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..work.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(work.len()) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= work.len() {
                    break;
                }
                let chunk = work[c]
                    .lock()
                    .expect("work mutex poisoned")
                    .take()
                    .expect("each chunk claimed exactly once");
                // Lock-free hot path: the whole chunk runs between the
                // claim above and the publish below.
                let results: Vec<R> = chunk.into_iter().map(&f).collect();
                *slots[c].lock().expect("slot mutex poisoned") = Some(results);
            });
        }
    });
    slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("every chunk published before scope exit")
        })
        .collect()
}

/// Explore the narrow preset of strategies for `graph` on the session's
/// cluster and pick the fastest memory-feasible one.
///
/// `build` constructs the graph once; each candidate annotates an O(1)
/// clone of it.
pub fn auto_parallel(
    session: &Session,
    global_batch: usize,
    build: impl Fn() -> Result<Graph> + Sync,
) -> Result<AutoReport> {
    auto_parallel_opts(session, global_batch, &SearchOptions::default(), build)
}

/// [`auto_parallel`] with explicit driver options. `max_micro` and `gpipe`
/// shape only the wide space, so they do not change the narrow preset.
pub fn auto_parallel_opts(
    session: &Session,
    global_batch: usize,
    opts: &SearchOptions,
    build: impl Fn() -> Result<Graph> + Sync,
) -> Result<AutoReport> {
    search::drive(
        session,
        global_batch,
        opts,
        build,
        search::narrow_structures,
    )
}

pub(crate) fn evaluate_plan(session: &Session, name: &str, plan: Arc<ExecutionPlan>) -> Candidate {
    let outcome = match session.step_plan(&plan) {
        Ok(o) => o,
        Err(e) => {
            return Candidate {
                name: name.into(),
                plan: Some(plan),
                stats: None,
                rejected: Some(RejectReason::SimError(e.to_string())),
            }
        }
    };
    if outcome.stats.has_oom() {
        let rejected = Some(memory_reject(&plan, session.cluster()));
        return Candidate {
            name: name.into(),
            plan: Some(plan),
            stats: None,
            rejected,
        };
    }
    Candidate {
        name: name.into(),
        plan: Some(plan),
        stats: Some(outcome.stats),
        rejected: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_graph::models;

    #[test]
    fn auto_parallel_picks_dp_for_small_models() {
        // ResNet-50 fits everywhere; DP avoids pipeline bubbles and wins.
        let s = Session::on_cluster("1x(4xV100)").unwrap();
        let report = auto_parallel(&s, 128, || Ok(models::resnet50(128).unwrap())).unwrap();
        assert_eq!(report.chosen, "data-parallel");
        assert!(report.candidates.len() >= 4);
    }

    #[test]
    fn auto_parallel_proposes_moe_strategy_for_moe_models() {
        let s = Session::on_cluster("1x(8xV100)").unwrap();
        let report = auto_parallel(&s, 64, || {
            Ok(models::m6_moe(models::MoeConfig::tiny(), 64).unwrap())
        })
        .unwrap();
        assert!(
            report.candidates.iter().any(|c| c.name.contains("moe")),
            "candidates: {:?}",
            report
                .candidates
                .iter()
                .map(|c| &c.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn auto_parallel_proposes_split_for_dominant_fc() {
        let s = Session::on_cluster("1x(4xV100)").unwrap();
        let report = auto_parallel(&s, 64, || Ok(models::imagenet_100k(64).unwrap())).unwrap();
        let split = report
            .candidates
            .iter()
            .find(|c| c.name.starts_with("dp+split"))
            .expect("100k-class FC dominates parameters → split candidate");
        assert!(split.rejected.is_none() || split.stats.is_some() || split.plan.is_some());
    }

    #[test]
    fn auto_parallel_keeps_the_only_strategy_that_fits() {
        // Only pipeline(micro=16) fits m6-10b@64 on this cluster. Cutting
        // candidates by a step estimate relative to one that later fails
        // for memory would lose it; the admissible bounds cannot.
        let s = Session::on_cluster("2x(8xV100)+2x(8xP100)").unwrap();
        let report = auto_parallel(&s, 64, || Ok(models::m6_10b(64).unwrap())).unwrap();
        assert_eq!(report.chosen, "pipeline(micro=16)");
        let simulated = report.candidates.iter().filter(|c| c.stats.is_some());
        assert_eq!(simulated.count(), 1);
    }

    #[test]
    fn auto_parallel_rejects_oom_candidates_for_giant_models() {
        // M6-10B replicas cannot fit on a single 32 GB V100: pure DP must be
        // rejected and a pipeline chosen.
        let s = Session::on_cluster("2x(4xV100)").unwrap();
        let report = auto_parallel(&s, 32, || Ok(models::m6_10b(32).unwrap())).unwrap();
        let dp = report
            .candidates
            .iter()
            .find(|c| c.name == "data-parallel")
            .unwrap();
        assert!(dp.rejected.is_some(), "10B DP replica must OOM");
        assert!(
            report.chosen.contains("pipeline"),
            "chose {}",
            report.chosen
        );
    }
}
