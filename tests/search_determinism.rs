//! Guarantees of the branch-and-bound auto-parallel search
//! (`whale::auto_parallel_search`):
//!
//! * the full [`whale::AutoReport`] — winner, candidate order, reject
//!   reasons, pruning counters — is invariant under `search_threads`
//!   (serial, fixed pool, all cores) across models and clusters;
//! * the bounds are *admissible*: disabling pruning (`exhaustive`) and
//!   simulating every leaf never finds a strategy with higher simulated
//!   throughput than the pruned search's winner;
//! * the widened space never loses to the narrow enumeration it replaces;
//! * the memory floor rejects only pipeline leaves that no plan can run;
//! * every report's leaf counters partition its leaves.

use whale::{
    auto_parallel, auto_parallel_opts, auto_parallel_search, models, strategies, AutoReport,
    RejectReason, SearchOptions, Session,
};
use whale_graph::{Graph, TrainingConfig, ZeroStage};
use whale_hardware::Cluster;
use whale_planner::{pipeline_memory_floor, plan, MemoryPrefix, PlannerConfig, ScheduleKind};

fn opts(threads: usize) -> SearchOptions {
    SearchOptions {
        search_threads: threads,
        ..SearchOptions::default()
    }
}

fn exhaustive() -> SearchOptions {
    SearchOptions {
        search_threads: 1,
        exhaustive: true,
        ..SearchOptions::default()
    }
}

/// Both leaf-partition identities of `SearchStats`, and the counters that
/// have a reject reason of their own agree with the candidate rows.
fn assert_partition(report: &AutoReport, what: &str) {
    let st = report.search.expect("search stats present");
    assert_eq!(
        st.nodes_expanded,
        st.nodes_bounded + st.nodes_degenerate + st.nodes_plan_errors + st.nodes_planned,
        "{what}: leaves do not partition: {st:?}"
    );
    assert_eq!(
        st.nodes_planned,
        st.nodes_memory_rejected + st.nodes_pruned_planned + st.nodes_simulated,
        "{what}: planned leaves do not partition: {st:?}"
    );
    assert_eq!(st.nodes_expanded, report.candidates.len(), "{what}");
    assert!(st.nodes_memory_floor <= st.nodes_bounded, "{what}: {st:?}");
    let count =
        |f: &dyn Fn(&whale::Candidate) -> bool| report.candidates.iter().filter(|c| f(c)).count();
    assert_eq!(
        st.nodes_degenerate,
        count(&|c| matches!(c.rejected, Some(RejectReason::DegenerateMicro { .. }))),
        "{what}"
    );
    assert_eq!(
        st.nodes_plan_errors,
        count(&|c| matches!(c.rejected, Some(RejectReason::PlanError(_)))),
        "{what}"
    );
    assert_eq!(
        st.nodes_memory_floor,
        count(&|c| c.plan.is_none()
            && matches!(c.rejected, Some(RejectReason::MemoryInfeasible { .. }))),
        "{what}"
    );
}

#[test]
fn report_is_thread_count_invariant_across_zoo_and_clusters() {
    type Build = fn() -> whale::Result<Graph>;
    let builds: [(&str, usize, Build); 3] = [
        ("resnet50", 64, || Ok(models::resnet50(64).expect("build"))),
        ("bert-base", 128, || {
            Ok(models::bert_base(128, 64).expect("build"))
        }),
        ("m6-moe", 64, || {
            Ok(models::m6_moe(models::MoeConfig::tiny(), 64).expect("build"))
        }),
    ];
    for cluster in ["2x(4xV100)", "4xV100,4xP100"] {
        let session = Session::on_cluster(cluster).unwrap();
        for (name, batch, build) in builds {
            let serial = auto_parallel_search(&session, batch, &opts(1), build).unwrap();
            let pool = auto_parallel_search(&session, batch, &opts(4), build).unwrap();
            let auto = auto_parallel_search(&session, batch, &opts(0), build).unwrap();
            assert_partition(&serial, &format!("{name} on {cluster}"));
            assert_eq!(
                serial, pool,
                "{name} on {cluster}: 1 vs 4 threads changed the report"
            );
            assert_eq!(
                serial, auto,
                "{name} on {cluster}: 1 vs all threads changed the report"
            );
        }
    }
}

#[test]
fn pruning_is_admissible_on_an_exhaustively_enumerable_space() {
    // Small space (4 GPUs, batch 16 clips the micro grid) so exhaustive
    // evaluation stays cheap, heterogeneous so bounds must respect per-GPU
    // rates. If any bound were optimistic in the wrong direction, the
    // exhaustive sweep would surface a pruned leaf that out-simulates the
    // pruned search's winner.
    let session = Session::on_cluster("2xV100,2xP100").unwrap();
    let build = || Ok(models::bert_base(16, 64).expect("build"));
    let pruned = auto_parallel_search(&session, 16, &opts(1), build).unwrap();
    let exhaustive = auto_parallel_search(&session, 16, &exhaustive(), build).unwrap();
    assert_partition(&pruned, "pruned");
    assert_partition(&exhaustive, "exhaustive");
    let st = exhaustive.search.unwrap();
    assert_eq!(st.nodes_bounded, 0, "exhaustive mode must not prune");
    assert_eq!(st.nodes_pruned_planned, 0, "exhaustive mode must not prune");
    // Admissibility: nothing the pruned search discarded beats its winner.
    for c in &exhaustive.candidates {
        if let Some(s) = &c.stats {
            assert!(
                s.throughput <= pruned.stats.throughput + 1e-9,
                "pruned search missed {} at {:.1} samples/s (kept {} at {:.1})",
                c.name,
                s.throughput,
                pruned.chosen,
                pruned.stats.throughput
            );
        }
    }
    assert_eq!(pruned.chosen, exhaustive.chosen);
    assert_eq!(pruned.stats, exhaustive.stats);
}

#[test]
fn search_never_loses_to_the_narrow_enumeration() {
    type Build = fn() -> whale::Result<Graph>;
    let builds: [(&str, usize, Build); 2] = [
        ("bert-base", 128, || {
            Ok(models::bert_base(128, 64).expect("build"))
        }),
        ("m6-moe", 64, || {
            Ok(models::m6_moe(models::MoeConfig::tiny(), 64).expect("build"))
        }),
    ];
    for cluster in ["1x(8xV100)", "2x(8xV100)+2x(8xP100)"] {
        let session = Session::on_cluster(cluster).unwrap();
        for (name, batch, build) in builds {
            let narrow = auto_parallel(&session, batch, build).unwrap();
            let wide = auto_parallel_search(&session, batch, &opts(0), build).unwrap();
            assert_partition(&wide, &format!("{name} on {cluster}"));
            assert!(
                wide.stats.throughput >= narrow.stats.throughput - 1e-9,
                "{name} on {cluster}: search {:.1} < enumeration {:.1} samples/s",
                wide.stats.throughput,
                narrow.stats.throughput
            );
        }
    }
}

#[test]
fn pruned_rejects_carry_bound_and_incumbent() {
    let session = Session::on_cluster("2x(4xV100)").unwrap();
    let report = auto_parallel_search(&session, 128, &opts(1), || {
        Ok(models::bert_base(128, 64).expect("build"))
    })
    .unwrap();
    assert_partition(&report, "bert-base on 2x(4xV100)");
    let mut saw_pruned = false;
    for c in &report.candidates {
        if let Some(RejectReason::Pruned { bound, incumbent }) = &c.rejected {
            saw_pruned = true;
            assert!(bound.is_finite() && *bound > 0.0);
            assert!(incumbent.is_finite() && *incumbent > 0.0);
            // The prune was justified: the bound's throughput cannot beat
            // the incumbent the search held at that moment.
            assert!(
                bound >= incumbent,
                "pruned {} with bound {bound} < incumbent {incumbent}",
                c.name
            );
        }
    }
    assert!(saw_pruned, "expected at least one pruned leaf");
    let st = report.search.unwrap();
    assert!(
        st.bounded_fraction() >= 0.5,
        "bounds too weak: only {:.0}% of nodes skipped simulation",
        st.bounded_fraction() * 100.0
    );
}

#[test]
fn memory_floor_rejects_only_leaves_the_exhaustive_search_cannot_run() {
    // The memory-tight cell: most pipeline leaves cannot fit m6-10b's
    // batch-256 activations on the 16 GB P100 stages.
    let session = Session::on_cluster("2x(8xV100)+2x(8xP100)").unwrap();
    let build = || Ok(models::m6_10b(256).expect("build"));
    let pruned = auto_parallel_search(&session, 256, &opts(1), build).unwrap();
    let exhaustive = auto_parallel_search(&session, 256, &exhaustive(), build).unwrap();
    assert_partition(&pruned, "pruned");
    assert_partition(&exhaustive, "exhaustive");
    let st = pruned.search.unwrap();
    assert!(st.nodes_memory_floor > 0, "the floor fired nowhere: {st:?}");
    let ex = exhaustive.search.unwrap();
    assert_eq!(ex.nodes_bounded, 0, "exhaustive mode must not prune");
    assert_eq!(ex.nodes_memory_floor, 0, "exhaustive mode skips the floor");
    for c in &pruned.candidates {
        let Some(RejectReason::MemoryInfeasible { need, have }) = &c.rejected else {
            continue;
        };
        if c.plan.is_some() {
            continue;
        }
        assert!(need > have, "{}: floor rejected a fitting leaf", c.name);
        let twin = exhaustive
            .candidates
            .iter()
            .find(|e| e.name == c.name)
            .expect("same leaf set");
        assert!(
            twin.stats.is_none(),
            "{} was floor-rejected but simulates in the exhaustive run",
            c.name
        );
        assert!(
            matches!(
                twin.rejected,
                Some(RejectReason::PlanError(_) | RejectReason::MemoryInfeasible { .. })
            ),
            "{}: exhaustive run rejected it for {:?}",
            c.name,
            twin.rejected
        );
    }
    assert_eq!(pruned.chosen, exhaustive.chosen);
    assert_eq!(pruned.stats, exhaustive.stats);
}

#[test]
fn memory_floor_rejections_never_plan_a_feasible_leaf() {
    // Direct sweep over the search's pipeline leaves: wherever the floor
    // says no stage cut fits, the planner must fail or produce a plan that
    // fails `memory_feasible`. Configurations cover the PSVF model with and
    // without recompute's checkpoint lower bound, ZeRO-sharded AMP state,
    // and hardware awareness off (no PSVF, so only the ledger model).
    type Build = fn(usize) -> Graph;
    let builds: [(&str, usize, Build); 3] = [
        ("m6-10b", 256, |b| models::m6_10b(b).expect("build")),
        ("gpt2-xl", 128, |b| models::gpt2_xl(b, 128).expect("build")),
        ("bert-large", 128, |b| {
            models::bert_large(b, 128).expect("build")
        }),
    ];
    let configs: [(&str, TrainingConfig, bool); 4] = [
        ("default", TrainingConfig::default(), true),
        (
            "recompute",
            TrainingConfig {
                recompute: true,
                ..TrainingConfig::default()
            },
            true,
        ),
        (
            "amp+zero2",
            TrainingConfig {
                amp: true,
                zero: ZeroStage::Gradients,
                ..TrainingConfig::default()
            },
            true,
        ),
        (
            "unaware+zero3",
            TrainingConfig {
                zero: ZeroStage::Parameters,
                ..TrainingConfig::default()
            },
            false,
        ),
    ];
    const MICRO: [usize; 15] = [2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128];
    let (mut leaves, mut rejected) = (0usize, 0usize);
    for spec in [
        "2x(8xV100)+2x(8xP100)",
        "1x(8xV100)+1x(8xP100)",
        "2x(8xV100)",
    ] {
        let cluster = Cluster::parse(spec).unwrap();
        let n = cluster.num_gpus();
        for (model, batch, build) in builds {
            let graph = build(batch);
            let prefix = MemoryPrefix::new(&graph);
            for (cname, training, aware) in configs {
                for replicas in (1..=n).filter(|&r| n.is_multiple_of(r) && n / r >= 2) {
                    for micro in MICRO.into_iter().filter(|&m| m <= batch / replicas) {
                        for schedule in [ScheduleKind::BackwardFirst, ScheduleKind::GPipe] {
                            leaves += 1;
                            let cfg = PlannerConfig {
                                training,
                                hardware_aware: aware,
                                outer_dp: replicas,
                                schedule,
                                ..PlannerConfig::default()
                            };
                            let gpipe = schedule == ScheduleKind::GPipe;
                            let Some(short) = pipeline_memory_floor(
                                &prefix, &cluster, &cfg, replicas, micro, gpipe, batch,
                            ) else {
                                continue;
                            };
                            rejected += 1;
                            let what = format!(
                                "{model}@{batch} on {spec} ({cname}): r={replicas} \
                                 micro={micro} {schedule:?}"
                            );
                            assert!(short.need > short.have, "{what}: {short:?}");
                            let ir = if replicas > 1 {
                                strategies::pipeline_with_dp(graph.clone(), batch, micro)
                            } else {
                                strategies::pipeline_only(graph.clone(), batch, micro)
                            }
                            .unwrap();
                            if let Ok(p) = plan(&ir, &cluster, &cfg) {
                                assert!(
                                    !p.memory_feasible(&cluster).unwrap(),
                                    "{what}: floor rejected a plan that fits"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        rejected > 0 && rejected < leaves,
        "sweep must exercise both outcomes: {rejected} of {leaves} rejected"
    );
}

#[test]
fn reports_do_not_depend_on_memoization() {
    type Build = fn() -> whale::Result<Graph>;
    let builds: [(&str, usize, Build); 3] = [
        ("bert-base", 64, || {
            Ok(models::bert_base(64, 64).expect("build"))
        }),
        ("gpt2-xl", 64, || {
            Ok(models::gpt2_xl(64, 128).expect("build"))
        }),
        ("m6-10b", 32, || Ok(models::m6_10b(32).expect("build"))),
    ];
    let memo = |on: bool| SearchOptions {
        memoize: on,
        ..opts(1)
    };
    for cluster in ["2x(8xV100)+2x(8xP100)", "1x(8xV100)+1x(8xP100)"] {
        let session = Session::on_cluster(cluster).unwrap();
        for (name, batch, build) in builds {
            let on = auto_parallel_search(&session, batch, &memo(true), build).unwrap();
            let off = auto_parallel_search(&session, batch, &memo(false), build).unwrap();
            assert_partition(&on, &format!("{name} on {cluster}"));
            assert_eq!(on, off, "{name} on {cluster}: memoize changed the search");
            let on = auto_parallel_opts(&session, batch, &memo(true), build).unwrap();
            let off = auto_parallel_opts(&session, batch, &memo(false), build).unwrap();
            assert_partition(&on, &format!("narrow {name} on {cluster}"));
            assert_eq!(
                on, off,
                "{name} on {cluster}: memoize changed the narrow report"
            );
        }
    }
}

#[test]
fn async_sessions_are_never_bounded_on_time() {
    // The time bounds model flush schedules. Under the async no-flush
    // schedule the narrow preset runs every leaf it can plan: it must pick
    // what exhaustive evaluation picks and carry no `Pruned` row.
    let session = Session::on_cluster("2x(4xV100)")
        .unwrap()
        .schedule(ScheduleKind::AsyncNoFlush);
    let build = || Ok(models::resnet50(16).expect("build"));
    let pruned = auto_parallel_opts(&session, 16, &opts(1), build).unwrap();
    let exhaustive = auto_parallel_opts(&session, 16, &exhaustive(), build).unwrap();
    assert_partition(&pruned, "async");
    assert!(
        pruned
            .candidates
            .iter()
            .all(|c| !matches!(c.rejected, Some(RejectReason::Pruned { .. }))),
        "{:?}",
        pruned.candidates
    );
    assert_eq!(pruned.chosen, exhaustive.chosen);
    assert_eq!(pruned.stats, exhaustive.stats);
}
