//! `cold-plan`: build a zoo graph, annotate it, plan it on a service that
//! has never seen the key, and simulate one step — every compile pass and
//! the step simulator, with no search and only cache misses.

use std::hint::black_box;
use std::sync::{Arc, OnceLock};

use whale::{
    simulate_step, Cluster, CommConfig, ExecutionPlan, PlannerConfig, SimConfig, StepOutcome,
    WhaleIr,
};
use whale_graph::intern::counters;
use whale_planner::pipeline::{Balance, BridgeInsertion, DegreeInference, Placement, Schedule};
use whale_planner::{
    digest, CommOpt, CompilePipeline, CompileState, PassContext, PassId, PlanKey, PlanService,
    PlannerPass,
};

use crate::corpus::{self, fail, stats_bits, Model, Strategy};
use crate::gen::Gen;
use crate::runner::Workload;
use crate::stats::geomean;
use crate::trace;

const SMALL_HOM: &str = "4x(8xV100)";
const SMALL_HET: &str = "2x(8xV100)+2x(8xP100)";
const PDP8: Strategy = Strategy::PipelineDp { micro: 8 };

/// `(model, batch, strategy, homogeneous cluster, V100+P100 cluster)`.
const MEMBERS: [(Model, usize, Strategy, &str, &str); 10] = [
    (Model::Resnet50, 256, Strategy::Dp, SMALL_HOM, SMALL_HET),
    (Model::BertLarge, 128, Strategy::Dp, SMALL_HOM, SMALL_HET),
    (Model::BertLarge, 128, PDP8, SMALL_HOM, SMALL_HET),
    (Model::Gpt2Xl, 64, PDP8, SMALL_HOM, SMALL_HET),
    (
        Model::Gpt2Xl,
        256,
        Strategy::PipelineDp { micro: 64 },
        SMALL_HOM,
        SMALL_HET,
    ),
    (Model::T5Large, 64, PDP8, SMALL_HOM, SMALL_HET),
    (Model::M6_10b, 32, PDP8, SMALL_HOM, SMALL_HET),
    (
        Model::M6Moe100b,
        1024,
        Strategy::Moe,
        "16x(8xV100)",
        "8x(8xV100)+8x(8xP100)",
    ),
    (
        Model::M6Moe1t,
        1024,
        Strategy::Moe,
        "60x(8xV100)",
        "30x(8xV100)+30x(8xP100)",
    ),
    (
        Model::M6Moe1tDeep,
        64,
        Strategy::Moe,
        "1x(8xV100)",
        "1x(4xV100)+1x(4xP100)",
    ),
];

pub struct Cell {
    name: String,
    model: Model,
    batch: usize,
    strategy: Strategy,
    cluster: Cluster,
    config: PlannerConfig,
    sim: SimConfig,
    expected: (String, [u64; 7]),
    throughput: f64,
}

pub struct ColdPlan {
    cells: Vec<Cell>,
    laps: Vec<Vec<usize>>,
}

/// A request's outputs. The IR and the step outcome go back to the caller
/// with the plan, so dropping them is not part of the request.
pub struct Out {
    plan: Arc<ExecutionPlan>,
    step: StepOutcome,
    _ir: WhaleIr,
    ops: usize,
    intern: [u64; 3],
    passes: usize,
}

fn intern_counters() -> [u64; 3] {
    [
        counters::intern_hits(),
        counters::intern_misses(),
        counters::inst_sum_computes(),
    ]
}

/// A compile pass that records a `planner.<pass>` span around the real one.
struct Timed<P>(P, &'static str);

impl<P: PlannerPass> PlannerPass for Timed<P> {
    fn id(&self) -> PassId {
        self.0.id()
    }

    fn run(&self, cx: &PassContext<'_>, state: &mut CompileState) -> whale_planner::Result<()> {
        trace::span(self.1, || self.0.run(cx, state))
    }
}

/// Span name of each pass, in `PassId::ALL` order.
pub const PASS_SPANS: [&str; 6] = [
    "planner.degree-inference",
    "planner.placement",
    "planner.bridge-insertion",
    "planner.balance",
    "planner.schedule",
    "planner.comm-opt",
];

/// The standard pipeline with every pass wrapped in its span.
fn timed_pipeline() -> &'static CompilePipeline {
    static PIPELINE: OnceLock<CompilePipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        CompilePipeline::with_passes(vec![
            Box::new(Timed(DegreeInference, PASS_SPANS[0])),
            Box::new(Timed(Placement, PASS_SPANS[1])),
            Box::new(Timed(BridgeInsertion, PASS_SPANS[2])),
            Box::new(Timed(Balance, PASS_SPANS[3])),
            Box::new(Timed(Schedule, PASS_SPANS[4])),
            Box::new(Timed(CommOpt, PASS_SPANS[5])),
        ])
        .expect("passes in declared order")
    })
}

impl ColdPlan {
    pub fn setup(seed: u64) -> Result<ColdPlan, String> {
        let mut cells = Vec::new();
        for &(model, batch, strategy, hom, het) in &MEMBERS {
            for spec in [hom, het] {
                let cluster = corpus::cluster(spec)?;
                for (comm_name, comm) in [
                    ("default", CommConfig::default()),
                    ("fused", CommConfig::fused()),
                ] {
                    let config = PlannerConfig {
                        comm,
                        ..PlannerConfig::default()
                    };
                    cells.push(Cell {
                        name: format!(
                            "{}@{batch} {} on {spec} comm={comm_name}",
                            model.name(),
                            strategy.label()
                        ),
                        model,
                        batch,
                        strategy,
                        sim: SimConfig::with_schedule(config.schedule),
                        cluster: cluster.clone(),
                        config,
                        expected: (String::new(), [0; 7]),
                        throughput: 0.0,
                    });
                }
            }
        }
        let mut w = ColdPlan {
            cells,
            laps: Vec::new(),
        };
        // The warm-up lap computes the value every later request is
        // checked against.
        for i in 0..w.cells.len() {
            let out = w.run(&i, false).map_err(fail(&w.cells[i].name))?;
            let cell = &mut w.cells[i];
            cell.expected = (digest(&out.plan), stats_bits(&out.step.stats));
            cell.throughput = out.step.stats.throughput;
        }
        let mut gen = Gen::new(seed, "cold-plan/order");
        let mut lap: Vec<usize> = (0..w.cells.len()).collect();
        gen.shuffle(&mut lap);
        w.laps = vec![lap];
        Ok(w)
    }
}

impl Workload for ColdPlan {
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

    fn run(&self, &i: &usize, traced: bool) -> Result<Out, String> {
        let c = &self.cells[i];
        // One client thread, so the process-wide interner counters move
        // only for this request.
        let before = if traced { intern_counters() } else { [0; 3] };
        let graph = trace::span("graph.build", || c.model.build(c.batch))?;
        let ops = graph.ops().len();
        let ir = trace::span("ir.annotate", || c.strategy.annotate(graph, c.batch))?;
        let (plan, passes) = if traced {
            // Same work as the service's miss path, with each pass timed.
            let key = trace::span("fp.key", || PlanKey::new(&ir, &c.cluster, &c.config));
            black_box(key);
            let state = timed_pipeline()
                .run(&PassContext {
                    ir: &ir,
                    cluster: &c.cluster,
                    config: &c.config,
                })
                .map_err(fail("plan"))?;
            (state.plan_arc(), state.passes_run.len())
        } else {
            let plan = PlanService::default()
                .plan(&ir, &c.cluster, &c.config)
                .map_err(fail("plan"))?;
            (plan, 0)
        };
        let step = trace::span("sim.step", || simulate_step(&plan, &c.cluster, &c.sim))
            .map_err(fail("simulate"))?;
        let intern = if traced {
            let after = intern_counters();
            [0, 1, 2].map(|k| after[k] - before[k])
        } else {
            [0; 3]
        };
        Ok(Out {
            plan,
            step,
            _ir: ir,
            ops,
            intern,
            passes,
        })
    }

    fn check(&self, &i: &usize, out: &Out) -> Result<(), String> {
        let c = &self.cells[i];
        if (digest(&out.plan), stats_bits(&out.step.stats)) != c.expected {
            return Err(format!("{}: plan or step differs from set-up", c.name));
        }
        Ok(())
    }

    fn count(&self, _: &usize, out: &Out) {
        trace::count("graph.ops", out.ops as f64);
        trace::count("graph.intern_hits", out.intern[0] as f64);
        trace::count("graph.intern_misses", out.intern[1] as f64);
        trace::count("graph.inst_sum_computes", out.intern[2] as f64);
        trace::count("fp.keys", 1.0);
        trace::count("planner.passes_run", out.passes as f64);
        trace::count("sim.tasks", out.step.timeline.len() as f64);
        trace::count("sim.bubble_ratio", out.step.stats.bubble_ratio());
        trace::count("sim.sync_exposed_s", out.step.stats.sync_time_exposed);
    }

    fn simulated(&self) -> (f64, f64) {
        // No fault strikes a cold plan, so its goodput is its throughput.
        let tp = geomean(&self.cells.iter().map(|c| c.throughput).collect::<Vec<_>>());
        (tp, tp)
    }
}
