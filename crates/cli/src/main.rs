//! `whale-cli` — plan and simulate giant-model training from the shell.
//!
//! ```console
//! $ whale-cli simulate --cluster "8xV100+8xP100" --model bert-large \
//!       --batch 256 --strategy dp
//! $ whale-cli plan --cluster "1x(8xV100)" --model m6-10b --strategy pipeline \
//!       --micro 35 --recompute
//! $ whale-cli auto --cluster "2x(8xV100)" --model gpt2-xl --batch 64
//! $ whale-cli models
//! $ whale-cli gpus
//! ```

mod args;
mod zoo;

use args::Args;
use whale::{
    auto_parallel, strategies, ClusterDelta, CommConfig, GradDtype, Optimizer, RecoveryPolicy,
    ScheduleKind, Session, TrainingConfig, WhaleIr, ZeroStage,
};
use whale_hardware::GpuModel;
use whale_planner::PlanKey;
use whale_sim::{ascii_timeline, check_replan, FaultModel, FaultTrace, LossModel};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `whale-cli help` for usage");
            std::process::exit(1);
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    match args.command.as_deref() {
        Some("models") => cmd_models(),
        Some("gpus") => cmd_gpus(),
        Some("plan") => cmd_plan(&args, false),
        Some("simulate") => cmd_plan(&args, true),
        Some("compile") => cmd_compile(&args),
        Some("faults") => cmd_faults(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("auto") => cmd_auto(&args),
        Some("dot") => cmd_dot(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn print_help() {
    println!(
        "whale-cli — plan and simulate giant-model training (Whale reproduction)

USAGE:
  whale-cli <command> [options]

COMMANDS:
  models     list the model zoo
  gpus       list the GPU catalog
  plan       build and print a distributed execution plan
  simulate   plan, then simulate one training step (adds a timeline)
  compile    run the staged compile pipeline, show cache keys and counters
  faults     train under injected faults, printing the recovery timeline
  fleet      run a multi-tenant fleet over a shared pool under churn
  auto       explore strategies automatically and pick the fastest
  dot        emit the annotated IR as Graphviz DOT (Fig. 6 style)
  inspect    print a model's op/parameter/FLOP statistics

COMMON OPTIONS:
  --cluster SPEC     cluster spec, e.g. \"2x(8xV100)+2x(8xP100)\"  [1x(8xV100)]
  --model NAME       zoo model (see `models`)                    [resnet50]
  --batch N          global batch size                           [64]
  --seq N            sequence length for text models             [128]
  --strategy S       dp | pipeline | pipeline-dp | moe | split-classifier [dp]
  --micro N          micro batches for pipelines                 [8]
  --optimizer O      sgd | momentum | adam | adafactor           [adam]
  --zero N           ZeRO stage 0-3                              [0]
  --baseline         disable hardware-aware load balancing
  --gpipe            GPipe flush schedule instead of 1F1B
  --fusion-mb N      fuse gradients into ~N MB buckets with per-bucket
                     AllReduce algorithm selection (0 = monolithic)   [0]
  --grad-dtype D     gradient wire dtype: fp32 | bf16 | fp8          [fp32]
                     (sub-fp32 shrinks AllReduce payloads, re-selects
                     per-bucket algorithms, and accounts fp32 master
                     weights + loss scaling in the memory ledger)
  --compress-ratio F compress gradients to fraction F in (0,1]        [1.0]
  --amp --recompute --offload
  --json             (simulate) emit step stats as JSON

COMPILE OPTIONS:
  --repeat N         plan N times through the cache, N <= 65536 (default 2)
  --degrade ID:S     then degrade GPU ID to throughput scale S and replan,
                     re-running only the invalidated passes; exits non-zero
                     if the replanned plan fails the consistency check
  --cache-stats      print plan-cache hit/miss/partial-hit counters

FAULTS OPTIONS:
  --samples N          committed samples to train to                 [1e6]
  --mtbf N             mean samples between faults                   [2e5]
  --mttr N             mean samples until a transient fault heals    [5e4]
  --seed N             fault-trace seed (same seed = same timeline)  [0]
  --checkpoint-every N committed samples between checkpoints         [5e4]
  --min-capacity F     abort below this fraction of starting FLOPS   [0.25]
  --json               emit RecoveryStats as JSON instead of text

AUTO OPTIONS:
  --search           branch-and-bound search over the nested hybrid space
                     (per-stage replicas × pipeline depth × micro batches ×
                     schedule, + expert-parallel degree on MoE graphs)
                     instead of the narrow fixed enumeration
  --threads N        search worker threads (0 = all cores)            [0]
  --wave N           leaves evaluated per deterministic wave          [8]
  --max-micro N      largest micro-batch count generated              [128]
  --no-gpipe         drop the GPipe schedule dimension (1F1B only)
  --exhaustive       disable pruning: plan and simulate every leaf

FLEET OPTIONS:
  --pool SPEC          shared GPU pool spec             [2x(4xV100)+2x(4xP100)]
  --horizon N          wall-clock seconds to simulate                [20000]
  --arrival N          mean seconds between job arrivals             [600]
  --mtbf N             mean seconds between pool faults              [1500]
  --mttr N             mean seconds until a transient fault heals    [600]
  --seed N             workload seed (fault seed is seed+1)          [0]
  --queue N            admission queue bound                         [16]
  --checkpoint-every N committed samples between tenant checkpoints  [5e4]
  --baseline           kill-and-requeue fleet instead of elastic resizing
  --json               emit FleetStats as JSON instead of text
"
    );
}

fn cmd_models() -> Result<(), String> {
    println!("{:<14} description", "name");
    for (name, desc) in zoo::MODELS {
        println!("{name:<14} {desc}");
    }
    Ok(())
}

fn cmd_gpus() -> Result<(), String> {
    println!(
        "{:<11} {:>12} {:>9} {:>10} {:>7} {:>6}",
        "model", "fp32 TFLOPS", "mem GiB", "membw GB/s", "nvlink", "amp x"
    );
    for m in GpuModel::ALL {
        println!(
            "{:<11} {:>12.1} {:>9} {:>10.0} {:>7} {:>6.1}",
            m.to_string(),
            m.flops() / 1e12,
            m.memory_bytes() >> 30,
            m.memory_bandwidth() / 1e9,
            if m.has_nvlink() { "yes" } else { "no" },
            m.amp_speedup()
        );
    }
    Ok(())
}

fn session_from(args: &Args) -> Result<Session, String> {
    let cluster = args.get_or("cluster", "1x(8xV100)");
    let zero = match args.get_num("zero", 0u8)? {
        0 => ZeroStage::None,
        1 => ZeroStage::OptimizerState,
        2 => ZeroStage::Gradients,
        3 => ZeroStage::Parameters,
        n => return Err(format!("--zero must be 0-3, got {n}")),
    };
    let optimizer = match args.get_or("optimizer", "adam") {
        "sgd" => Optimizer::Sgd,
        "momentum" => Optimizer::SgdMomentum,
        "adam" => Optimizer::Adam,
        "adafactor" => Optimizer::Adafactor,
        o => return Err(format!("unknown optimizer '{o}'")),
    };
    let training = TrainingConfig {
        optimizer,
        amp: args.flag("amp"),
        recompute: args.flag("recompute"),
        zero,
        offload: args.flag("offload"),
        dp_shards: 1,
    };
    let schedule = if args.flag("gpipe") {
        ScheduleKind::GPipe
    } else {
        ScheduleKind::BackwardFirst
    };
    let fusion_mb = args.get_num("fusion-mb", 0u64)?;
    let grad_dtype = match args.get("grad-dtype") {
        None => GradDtype::Fp32,
        Some(s) => GradDtype::parse(s)
            .ok_or_else(|| format!("--grad-dtype must be fp32|bf16|fp8, got '{s}'"))?,
    };
    let comm = CommConfig {
        fusion_bytes: fusion_mb << 20,
        auto_algorithm: fusion_mb > 0,
        grad_dtype,
        compress_ratio: args.get_num("compress-ratio", 1.0f64)?,
    };
    Ok(Session::on_cluster(cluster)
        .map_err(|e| e.to_string())?
        .training(training)
        .schedule(schedule)
        .comm(comm)
        .hardware_aware(!args.flag("baseline")))
}

fn ir_from(args: &Args) -> Result<WhaleIr, String> {
    let model = args.get_or("model", "resnet50");
    let batch = args.get_num("batch", 64usize)?;
    let seq = args.get_num("seq", 128usize)?;
    let micro = args.get_num("micro", 8usize)?;
    let graph = zoo::build(model, batch, seq)?;
    let default_strategy = if zoo::is_moe(model) { "moe" } else { "dp" };
    let strategy = args.get_or("strategy", default_strategy);
    let ir = match strategy {
        "dp" => strategies::data_parallel(graph, batch),
        "pipeline" => strategies::pipeline_only(graph, batch, micro),
        "pipeline-dp" => strategies::pipeline_with_dp(graph, batch, micro),
        "moe" => strategies::moe_hybrid(graph, batch),
        "split-classifier" => strategies::feature_dp_classifier_split(graph, batch, "fc_big"),
        s => return Err(format!("unknown strategy '{s}'")),
    };
    ir.map_err(|e| e.to_string())
}

fn cmd_plan(args: &Args, simulate: bool) -> Result<(), String> {
    let session = session_from(args)?;
    let ir = ir_from(args)?;
    let plan = session.plan(&ir).map_err(|e| e.to_string())?;

    // Full stage detail only for small plans; big ones get the summary line
    // per stage from the library renderer trimmed to stage headers.
    let rendered = whale_planner::render_plan(&plan, session.cluster());
    if plan.all_gpus().len() <= 16 {
        print!("{rendered}");
    } else {
        for line in rendered
            .lines()
            .filter(|l| !l.trim_start().starts_with("gpu"))
        {
            println!("{line}");
        }
    }
    let mem_ok = plan
        .memory_feasible(session.cluster())
        .map_err(|e| e.to_string())?;
    println!(
        "  memory: {}",
        if mem_ok { "fits" } else { "OUT OF MEMORY" }
    );

    if simulate {
        let out = session.step_plan(&plan).map_err(|e| e.to_string())?;
        let s = &out.stats;
        if args.flag("json") {
            println!("{}", s.to_json().to_string_pretty());
            return Ok(());
        }
        println!("\nsimulated step:");
        println!("  step time    {:.4} s", s.step_time);
        println!("  throughput   {:.1} samples/s", s.throughput);
        println!(
            "  sync         {:.4} s total, {:.4} s exposed",
            s.sync_time_total, s.sync_time_exposed
        );
        println!("  bubble       {:.1} %", s.bubble_ratio() * 100.0);
        for (model, util) in s.utilization_by_model() {
            println!("  utilization  {model}: {util:.2}");
        }
        if plan.stages.len() > 1 && plan.num_micro_batches <= 16 {
            println!("\ntimeline (F = forward, B = backward):");
            print!("{}", ascii_timeline(&out, 100));
        }
    }
    Ok(())
}

/// Upper bound on `compile --repeat`. Each repeat is a cache hit, but an
/// unbounded count keeps the process busy until it is killed.
const MAX_REPEAT: usize = 1 << 16;

fn cmd_compile(args: &Args) -> Result<(), String> {
    let repeat = args.get_num("repeat", 2usize)?.max(1);
    if repeat > MAX_REPEAT {
        return Err(format!(
            "--repeat expects at most {MAX_REPEAT} plans, got {repeat}"
        ));
    }
    let mut session = session_from(args)?;
    let ir = ir_from(args)?;

    let key = PlanKey::new(&ir, session.cluster(), session.planner_config());
    println!("cache key (ir/cluster/config): {key}");

    let mut plan = session.plan(&ir).map_err(|e| e.to_string())?;
    for _ in 1..repeat {
        plan = session.plan(&ir).map_err(|e| e.to_string())?;
    }
    println!(
        "plan: {} stage(s) x {} micro batch(es) on {} GPU(s), global batch {}",
        plan.stages.len(),
        plan.num_micro_batches,
        plan.all_gpus().len(),
        plan.global_batch
    );

    if let Some(spec) = args.get("degrade") {
        let (id, scale) = spec
            .split_once(':')
            .and_then(|(id, s)| Some((id.parse::<usize>().ok()?, s.parse::<f64>().ok()?)))
            .ok_or_else(|| format!("--degrade expects GPU:SCALE (e.g. 0:0.5), got '{spec}'"))?;
        let old = plan.clone();
        let new = session
            .replan(&ir, ClusterDelta::GpuDegraded { id, scale })
            .map_err(|e| e.to_string())?;
        let report = check_replan(&old, &new, session.cluster(), session.sim_config());
        println!("\nreplan after degrading gpu {id} to {scale:.2}x:");
        let moved = old
            .stages
            .iter()
            .zip(new.stages.iter())
            .flat_map(|(o, n)| o.devices.iter().zip(&n.devices))
            .filter(|(o, n)| o.gpu == n.gpu && o.samples_per_step != n.samples_per_step)
            .count();
        println!("  rebalanced samples on {moved} GPU(s)");
        for line in report.to_string().lines() {
            println!("  {line}");
        }
        if !report.is_consistent() {
            return Err(format!(
                "replan after degrading gpu {id} is inconsistent ({} issue(s))",
                report.issues.len()
            ));
        }
    }

    if args.flag("cache-stats") {
        println!("\ncache: {}", session.plan_service().stats());
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let mut session = session_from(args)?;
    let ir = ir_from(args)?;
    let samples = args.get_num("samples", 1e6)?;
    let model = FaultModel {
        mtbf_samples: args.get_num("mtbf", 2e5)?,
        mttr_samples: args.get_num("mttr", 5e4)?,
        seed: args.get_num("seed", 0u64)?,
    };
    // The horizon covers re-earned samples too: a rollback pushes processed
    // past `samples`, so leave headroom for late faults.
    let horizon = samples * 1.5;
    model.check(horizon).map_err(|e| e.to_string())?;
    let policy = RecoveryPolicy {
        checkpoint_interval: args.get_num("checkpoint-every", 5e4)?,
        min_capacity: args.get_num("min-capacity", 0.25)?,
        ..RecoveryPolicy::default()
    };
    let trace = FaultTrace::generate(session.cluster(), &model, horizon);
    let loss = LossModel::for_params(ir.graph.total_params() as f64);

    println!(
        "fault injection: mtbf {:.0} mttr {:.0} seed {} over {} event(s)",
        model.mtbf_samples,
        model.mttr_samples,
        model.seed,
        trace.len()
    );
    let run = session
        .train_resilient(&ir, &loss, samples, &trace, &policy)
        .map_err(|e| e.to_string())?;

    if args.flag("json") {
        println!("{}", run.stats.to_json().to_string_pretty());
        return Ok(());
    }

    println!("\nrecovery timeline:");
    if run.stats.faults.is_empty() {
        println!("  (no faults struck before the run completed)");
    }
    for f in &run.stats.faults {
        println!(
            "  @{:>10.0}  {:<10}  lost {:>8.0}  down {:>6.1}s  recover {:>7.1}s  {} replan{}",
            f.at_samples,
            f.kind.name(),
            f.samples_lost,
            f.downtime_s,
            f.time_to_recover_s,
            f.replan.name(),
            if f.retries > 0 {
                format!(" ({} retries)", f.retries)
            } else {
                String::new()
            }
        );
    }
    let s = &run.stats;
    println!("\nrun summary:");
    println!("  committed    {:.0} samples", s.committed_samples);
    println!(
        "  lost         {:.0} samples rolled back ({:.0} processed)",
        s.samples_lost, s.processed_samples
    );
    println!(
        "  wall clock   {:.1} s ({:.1} s downtime)",
        s.wall_seconds, s.downtime_seconds
    );
    println!("  goodput      {:.1} samples/s", s.goodput);
    println!("  raw rate     {:.1} samples/s while up", s.raw_throughput);
    println!("  availability {:.1} %", s.availability * 100.0);
    println!(
        "  replans      {} cached-suffix, {} full",
        s.replans_cached, s.replans_full
    );
    Ok(())
}

fn cmd_fleet(args: &Args) -> Result<(), String> {
    use whale_sim::{default_templates, FleetConfig, FleetSim};

    let pool = whale_hardware::Cluster::parse(args.get_or("pool", "2x(4xV100)+2x(4xP100)"))
        .map_err(|e| e.to_string())?;
    let seed = args.get_num("seed", 0u64)?;
    let cfg = FleetConfig {
        seed,
        horizon_s: args.get_num("horizon", 20_000.0)?,
        arrival_mean_s: args.get_num("arrival", 600.0)?,
        max_queue: args.get_num("queue", 16usize)?,
        elastic: !args.flag("baseline"),
        policy: RecoveryPolicy {
            checkpoint_interval: args.get_num("checkpoint-every", 5e4)?,
            min_capacity: 0.05,
            ..RecoveryPolicy::default()
        },
        faults: FaultModel {
            mtbf_samples: args.get_num("mtbf", 1500.0)?,
            mttr_samples: args.get_num("mttr", 600.0)?,
            seed: seed + 1,
        },
        ..FleetConfig::default()
    };
    let sim = FleetSim::new(pool, default_templates(), cfg).map_err(|e| e.to_string())?;
    println!(
        "fleet: {} fault event(s) queued over {:.0}s, {} mode",
        sim.trace().len(),
        args.get_num("horizon", 20_000.0)?,
        if args.flag("baseline") {
            "kill-and-requeue"
        } else {
            "elastic"
        }
    );
    let report = sim.run().map_err(|e| e.to_string())?;

    if args.flag("json") {
        println!("{}", report.stats.to_json().to_string_pretty());
        return Ok(());
    }

    println!("\njobs (arrival order):");
    println!(
        "  {:<4} {:<13} {:>3} {:>5} {:>10} {:>9} {:>7} {:>7} {:>6}",
        "id", "template", "pri", "gpus", "phase", "progress", "wait s", "down s", "slo"
    );
    for j in &report.jobs {
        println!(
            "  {:<4} {:<13} {:>3} {:>2}/{:<2} {:>10} {:>8.0}% {:>7.0} {:>7.1} {:>6}",
            j.id,
            j.template,
            j.priority,
            j.allocated_gpus,
            j.requested_gpus,
            j.phase.name(),
            100.0 * j.committed_samples / j.total_samples.max(1.0),
            j.queue_wait_s,
            j.downtime_s,
            match j.slo_met {
                Some(true) => "met",
                Some(false) => "missed",
                None => "-",
            }
        );
    }
    let s = &report.stats;
    println!("\nfleet summary:");
    println!(
        "  jobs         {} submitted / {} completed / {} rejected / {} failed",
        s.submitted, s.completed, s.rejected, s.failed
    );
    println!(
        "  still going  {} running, {} queued at the horizon",
        s.running_at_end, s.queued_at_end
    );
    println!(
        "  resizing     {} shrinks, {} expands, {} preemptions, {} kills",
        s.shrinks, s.expands, s.preemptions, s.kills
    );
    println!(
        "  churn        {} fault event(s), {} insufficient-capacity stall(s)",
        s.fault_events, s.insufficient_events
    );
    println!(
        "  goodput      {:.1} samples/s committed fleet-wide",
        s.goodput
    );
    println!("  queue wait   {:.1} s mean", s.mean_queue_wait_s);
    println!("  slo          {} met / {} missed", s.slo_met, s.slo_missed);
    if let (Some(p50), Some(p99)) = (s.recovery.ttr_p50(), s.recovery.ttr_p99()) {
        println!("  ttr          p50 {p50:.1} s, p99 {p99:.1} s");
    }
    println!(
        "  replans      {} cached-suffix, {} full",
        s.recovery.replans_cached, s.recovery.replans_full
    );
    println!(
        "  compile      {} hits, {} misses, {} partial, {} coalesced, {} evicted",
        s.cache.hits, s.cache.misses, s.cache.partial_hits, s.cache.coalesced, s.cache.evictions
    );
    Ok(())
}

fn cmd_auto(args: &Args) -> Result<(), String> {
    let session = session_from(args)?;
    let model = args.get_or("model", "resnet50").to_string();
    let batch = args.get_num("batch", 64usize)?;
    let seq = args.get_num("seq", 128usize)?;
    let build = || zoo::build(&model, batch, seq).map_err(whale::WhaleError::Graph);
    let report = if args.flag("search") {
        let opts = whale::SearchOptions {
            search_threads: args.get_num("threads", 0usize)?,
            wave: args.get_num("wave", whale::SearchOptions::default().wave)?,
            max_micro: args.get_num("max-micro", whale::SearchOptions::default().max_micro)?,
            gpipe: !args.flag("no-gpipe"),
            exhaustive: args.flag("exhaustive"),
        };
        whale::auto_parallel_search(&session, batch, &opts, build)
    } else {
        auto_parallel(&session, batch, build)
    }
    .map_err(|e| e.to_string())?;
    println!("auto-parallel over {model} (batch {batch}):");
    for c in &report.candidates {
        match (&c.stats, &c.rejected) {
            (Some(s), _) => println!(
                "  {:<32} step {:>9.3} s   {:>9.1} samples/s",
                c.name, s.step_time, s.throughput
            ),
            (_, Some(why)) => println!("  {:<32} rejected: {why}", c.name),
            _ => {}
        }
    }
    if let Some(st) = &report.search {
        println!(
            "search: {} structures ({} pruned whole), {} nodes — {} bounded \
             ({} by the memory floor), {} degenerate, {} plan errors, {} planned \
             ({} out of memory, {} pruned post-plan, {} simulated); \
             {:.0}% rejected before planning",
            st.structures_expanded,
            st.structures_pruned,
            st.nodes_expanded,
            st.nodes_bounded,
            st.nodes_memory_floor,
            st.nodes_degenerate,
            st.nodes_plan_errors,
            st.nodes_planned,
            st.nodes_memory_rejected,
            st.nodes_pruned_planned,
            st.nodes_simulated,
            st.bounded_fraction() * 100.0
        );
    }
    println!("chosen: {}", report.chosen);
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let ir = ir_from(args)?;
    print!("{}", whale::ir::to_dot(&ir));
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let model = args.get_or("model", "resnet50");
    let batch = args.get_num("batch", 8usize)?;
    let seq = args.get_num("seq", 128usize)?;
    let graph = zoo::build(model, batch, seq)?;
    let s = whale_graph::graph_stats(&graph);
    println!("{} @ batch {batch}:", s.name);
    println!("  ops        {} across {} layers", s.num_ops, s.num_layers);
    println!("  parameters {:.2}M", s.params as f64 / 1e6);
    println!(
        "  fwd flops  {:.2} GFLOP/step ({:.2} GFLOP/sample)",
        s.forward_flops / 1e9,
        s.forward_flops / 1e9 / batch as f64
    );
    println!("  op census:");
    for (kind, n) in &s.ops_by_kind {
        println!("    {kind:<12} {n}");
    }
    println!("  heaviest ops (FLOPs):");
    for (name, f) in &s.heaviest_ops {
        println!("    {name:<40} {:.2} GFLOP", f / 1e9);
    }
    println!("  largest parameters:");
    for (name, p) in &s.largest_params {
        println!("    {name:<40} {:.2}M", *p as f64 / 1e6);
    }
    Ok(())
}
