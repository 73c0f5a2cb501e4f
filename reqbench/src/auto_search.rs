//! `auto-search`: one `auto_parallel_search` on a fresh `Session` per
//! request — the only workload that runs the search's bounds and its
//! PSVF-failure path.

use whale::{
    auto_parallel_search, AutoReport, CacheStats, Cluster, RejectReason, SearchOptions, Session,
};
use whale_planner::digest;

use crate::corpus::{self, fail, stats_bits, Model};
use crate::gen::Gen;
use crate::runner::Workload;
use crate::stats::geomean;
use crate::trace;

/// The `search_bench` zoo, run on both of its clusters.
const ZOO: [(Model, usize); 6] = [
    (Model::Resnet50, 256),
    (Model::BertBase, 256),
    (Model::BertLarge, 128),
    (Model::Gpt2Xl, 64),
    (Model::T5Large, 64),
    (Model::M6_10b, 32),
];
const ZOO_CLUSTERS: [&str; 2] = ["2x(8xV100)+2x(8xP100)", "1x(8xV100)+1x(8xP100)"];

/// Memory-tight cells: most of m6-10b@256's leaves fail inside PSVF.
const TIGHT: [(Model, usize, &str); 2] = [
    (Model::M6_10b, 256, "2x(8xV100)+2x(8xP100)"),
    (Model::Gpt2Xl, 256, "4x(8xV100)"),
];

struct Cell {
    name: String,
    model: Model,
    batch: usize,
    cluster: Cluster,
    /// `(chosen strategy, plan digest, step bits)` from set-up.
    expected: (String, String, [u64; 7]),
    throughput: f64,
}

pub struct AutoSearch {
    cells: Vec<Cell>,
    opts: SearchOptions,
    laps: Vec<Vec<usize>>,
}

pub struct Out {
    report: AutoReport,
    cache: CacheStats,
}

/// Leaf outcomes the search's counters leave out, from its reject reasons:
/// `(degenerate, plan errors, memory rejected)`.
fn rejects(report: &AutoReport) -> (usize, usize, usize) {
    let mut r = (0, 0, 0);
    for c in &report.candidates {
        match c.rejected {
            Some(RejectReason::DegenerateMicro { .. }) => r.0 += 1,
            Some(RejectReason::PlanError(_)) => r.1 += 1,
            Some(RejectReason::MemoryInfeasible { .. }) => r.2 += 1,
            _ => {}
        }
    }
    r
}

impl AutoSearch {
    pub fn setup(seed: u64) -> Result<AutoSearch, String> {
        let mut cells = Vec::new();
        for (model, batch, spec) in cell_specs() {
            cells.push(Cell {
                name: format!("{}@{batch} on {spec}", model.name()),
                model,
                batch,
                cluster: corpus::cluster(spec)?,
                expected: Default::default(),
                throughput: 0.0,
            });
        }
        let mut w = AutoSearch {
            cells,
            // One thread: reports do not depend on the thread count, and two
            // threads on a two-core host would time the scheduler.
            opts: SearchOptions {
                search_threads: 1,
                ..SearchOptions::default()
            },
            laps: Vec::new(),
        };
        for i in 0..w.cells.len() {
            let out = w.run(&i, false).map_err(fail(&w.cells[i].name))?;
            let r = &out.report;
            w.cells[i].expected = (r.chosen.clone(), digest(&r.plan), stats_bits(&r.stats));
            w.cells[i].throughput = r.stats.throughput;
            w.check(&i, &out)?;
        }
        let mut gen = Gen::new(seed, "auto-search/order");
        let mut lap: Vec<usize> = (0..w.cells.len()).collect();
        gen.shuffle(&mut lap);
        w.laps = vec![lap];
        Ok(w)
    }
}

fn cell_specs() -> Vec<(Model, usize, &'static str)> {
    let mut cells: Vec<_> = ZOO_CLUSTERS
        .iter()
        .flat_map(|&spec| ZOO.iter().map(move |&(m, b)| (m, b, spec)))
        .collect();
    cells.extend(TIGHT);
    cells
}

impl Workload for AutoSearch {
    type Req = usize;
    type Out = Out;

    fn laps(&self) -> &[Vec<usize>] {
        &self.laps
    }

    fn kinds(&self) -> usize {
        self.cells.len()
    }

    fn kind(&self, i: &usize) -> usize {
        *i
    }

    fn run(&self, &i: &usize, _traced: bool) -> Result<Out, String> {
        let c = &self.cells[i];
        let session = Session::new(c.cluster.clone());
        let report = trace::span("search.self", || {
            auto_parallel_search(&session, c.batch, &self.opts, || {
                trace::span("search.build", || c.model.build(c.batch))
                    .map_err(whale::WhaleError::Graph)
            })
        })
        .map_err(fail("search"))?;
        Ok(Out {
            report,
            cache: session.cache_stats().unwrap_or_default(),
        })
    }

    fn check(&self, &i: &usize, out: &Out) -> Result<(), String> {
        let c = &self.cells[i];
        let r = &out.report;
        if (r.chosen.clone(), digest(&r.plan), stats_bits(&r.stats)) != c.expected {
            return Err(format!("{}: winner differs from set-up", c.name));
        }
        let s = r
            .search
            .ok_or_else(|| format!("{}: no search counters", c.name))?;
        let (degenerate, plan_errors, _) = rejects(r);
        if s.nodes_expanded != s.nodes_bounded + s.nodes_planned + degenerate + plan_errors {
            return Err(format!(
                "{}: leaves {} != bounded {} + planned {} + degenerate {degenerate} + plan errors {plan_errors}",
                c.name, s.nodes_expanded, s.nodes_bounded, s.nodes_planned
            ));
        }
        if out.cache.misses != (s.nodes_planned + plan_errors) as u64 {
            return Err(format!(
                "{}: plan attempts {} != planned {} + plan errors {plan_errors}",
                c.name, out.cache.misses, s.nodes_planned
            ));
        }
        Ok(())
    }

    fn count(&self, _: &usize, out: &Out) {
        let s = out.report.search.unwrap_or_default();
        let (degenerate, plan_errors, memory) = rejects(&out.report);
        for (name, v) in [
            ("search.leaves", s.nodes_expanded),
            ("search.bounded", s.nodes_bounded),
            ("search.planned", s.nodes_planned),
            ("search.pruned_planned", s.nodes_pruned_planned),
            ("search.simulated", s.nodes_simulated),
            ("search.degenerate", degenerate),
            ("search.plan_errors", plan_errors),
            ("search.memory_rejected", memory),
        ] {
            trace::count(name, v as f64);
        }
        trace::count("search.plan_attempts", out.cache.misses as f64);
        crate::report::count_service(&out.cache);
    }

    fn simulated(&self) -> (f64, f64) {
        // No fault strikes a searched plan, so its goodput is its throughput.
        let tp = geomean(&self.cells.iter().map(|c| c.throughput).collect::<Vec<_>>());
        (tp, tp)
    }
}
