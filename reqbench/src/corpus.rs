//! The zoo members, strategies and clusters the workloads draw from.

use std::fmt::Display;

use whale::{models, strategies, Cluster, Graph, StepStats, WhaleIr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Resnet50,
    BertBase,
    BertLarge,
    Gpt2Xl,
    T5Large,
    M6_10b,
    M6Moe100b,
    M6Moe1t,
    M6Moe1tDeep,
}

impl Model {
    pub fn name(self) -> &'static str {
        match self {
            Model::Resnet50 => "resnet50",
            Model::BertBase => "bert-base",
            Model::BertLarge => "bert-large",
            Model::Gpt2Xl => "gpt2-xl",
            Model::T5Large => "t5-large",
            Model::M6_10b => "m6-10b",
            Model::M6Moe100b => "m6-moe-100b",
            Model::M6Moe1t => "m6-moe-1t",
            Model::M6Moe1tDeep => "m6-moe-1t-deep",
        }
    }

    /// Build the graph at `batch` (sequence lengths as in the repo's
    /// benches: 128 tokens).
    pub fn build(self, batch: usize) -> Result<Graph, String> {
        match self {
            Model::Resnet50 => models::resnet50(batch),
            Model::BertBase => models::bert_base(batch, 128),
            Model::BertLarge => models::bert_large(batch, 128),
            Model::Gpt2Xl => models::gpt2_xl(batch, 128),
            Model::T5Large => models::t5_large(batch, 128, 128),
            Model::M6_10b => models::m6_10b(batch),
            Model::M6Moe100b => models::m6_moe_100b(batch),
            Model::M6Moe1t => models::m6_moe_1t(batch),
            Model::M6Moe1tDeep => models::m6_moe_1t_deep(batch),
        }
        .map_err(fail(self.name()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Dp,
    PipelineDp { micro: usize },
    Moe,
}

impl Strategy {
    pub fn annotate(self, graph: Graph, batch: usize) -> Result<WhaleIr, String> {
        match self {
            Strategy::Dp => strategies::data_parallel(graph, batch),
            Strategy::PipelineDp { micro } => strategies::pipeline_with_dp(graph, batch, micro),
            Strategy::Moe => strategies::moe_hybrid(graph, batch),
        }
        .map_err(fail("annotate"))
    }

    pub fn label(self) -> String {
        match self {
            Strategy::Dp => "dp".into(),
            Strategy::PipelineDp { micro } => format!("pipeline+dp(micro={micro})"),
            Strategy::Moe => "moe".into(),
        }
    }
}

/// Parse a cluster spec of the corpus (set-up only).
pub fn cluster(spec: &str) -> Result<Cluster, String> {
    Cluster::parse(spec).map_err(fail(spec))
}

/// Build and annotate outside any span (set-up only).
pub fn ir(model: Model, batch: usize, strategy: Strategy) -> Result<WhaleIr, String> {
    strategy.annotate(model.build(batch)?, batch)
}

/// The bit patterns of a step's deterministic outputs.
pub fn stats_bits(s: &StepStats) -> [u64; 7] {
    [
        s.step_time.to_bits(),
        s.compute_makespan.to_bits(),
        s.sync_time_total.to_bits(),
        s.sync_time_exposed.to_bits(),
        s.optimizer_time.to_bits(),
        s.throughput.to_bits(),
        s.oom_gpus.len() as u64,
    ]
}

/// Map an error into the benchmark's `String` errors with context.
pub fn fail<E: Display>(what: impl Display) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}
