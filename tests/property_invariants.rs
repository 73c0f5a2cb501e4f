//! Property-style tests over the core algorithms and data structures.
//!
//! Formerly written with `proptest`; the sandboxed build has no registry
//! access, so each property is now driven by a seeded in-repo PRNG
//! ([`whale_sim::SplitMix64`]) over a fixed number of cases. Seeds are
//! constants, so failures reproduce exactly.

use whale::{models, strategies, Session};
use whale_fp::{Fingerprint, Fingerprinter};
use whale_graph::{CostProfile, TrainingConfig};
use whale_hardware::{
    AllReduceSelector, Cluster, ClusterBuilder, ClusterDelta, GpuModel, LinkKind,
};
use whale_planner::bridge::{chain_bytes, fuse, Bridge};
use whale_planner::partition::{balanced_cuts, group_costs, proportional_split};
use whale_planner::{dp_partition, ScheduleKind};
use whale_sim::{stage_order, SplitMix64};

/// `proportional_split` always preserves the total exactly and tracks the
/// weights monotonically.
#[test]
fn proportional_split_preserves_total() {
    let mut rng = SplitMix64::seed_from_u64(0xA11CE);
    for _ in 0..64 {
        let total = rng.index(10_000);
        let n = rng.range_usize(1, 16);
        let weights: Vec<f64> = (0..n).map(|_| rng.range_f64(0.01, 100.0)).collect();
        let split = proportional_split(total, &weights).unwrap();
        assert_eq!(split.iter().sum::<usize>(), total);
        assert_eq!(split.len(), weights.len());
        // A strictly larger weight never receives a smaller share ± 1 unit
        // of rounding slack.
        for i in 0..weights.len() {
            for j in 0..weights.len() {
                if weights[i] > weights[j] * 1.01 {
                    assert!(split[i] + 1 >= split[j]);
                }
            }
        }
    }
}

/// `balanced_cuts` covers every op exactly once with non-empty groups.
#[test]
fn balanced_cuts_cover_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0xB417);
    for _ in 0..64 {
        let groups = rng.range_usize(1, 8);
        let len = rng.range_usize(groups, 200);
        let costs: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let weights = vec![1.0; groups];
        let cuts = balanced_cuts(&costs, &weights).unwrap();
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), costs.len());
        for w in cuts.windows(2) {
            assert!(w[1] > w[0], "non-empty groups");
        }
        let total: f64 = group_costs(&costs, &cuts).iter().sum();
        assert!((total - costs.iter().sum::<f64>()).abs() < 1e-6);
    }
}

/// Bridge fusion never increases the bytes moved and is idempotent.
#[test]
fn bridge_fusion_monotone_and_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(0xB21D);
    for _ in 0..64 {
        let len = rng.index(12);
        let chain: Vec<Bridge> = (0..len)
            .map(|_| match rng.index(3) {
                0 => Bridge::Partition(rng.range_usize(2, 9)),
                1 => Bridge::Gather(rng.range_usize(2, 9)),
                _ => Bridge::Identity,
            })
            .collect();
        let bytes = 1 + (rng.next_u64() & ((1 << 32) - 1));
        let fused = fuse(&chain);
        assert!(chain_bytes(&fused, bytes) <= chain_bytes(&chain, bytes));
        assert_eq!(fuse(&fused), fused.clone(), "idempotent");
        assert!(fused.iter().all(|b| b.is_communication()));
    }
}

/// Ring-AllReduce cost is monotone in bytes and never negative.
#[test]
fn allreduce_cost_monotone() {
    let mut rng = SplitMix64::seed_from_u64(0xC057);
    for _ in 0..64 {
        let gpus = rng.range_usize(2, 16);
        let bytes_a = 1 + (rng.next_u64() & ((1 << 30) - 1));
        let bytes_b = 1 + (rng.next_u64() & ((1 << 30) - 1));
        let cluster = Cluster::homogeneous(GpuModel::V100_32GB, 1, gpus);
        let group: Vec<usize> = (0..gpus).collect();
        let sel = AllReduceSelector::new(&cluster, &group).unwrap();
        let (lo, hi) = if bytes_a <= bytes_b {
            (bytes_a, bytes_b)
        } else {
            (bytes_b, bytes_a)
        };
        let t_lo = sel.ring(lo);
        let t_hi = sel.ring(hi);
        assert!(t_lo >= 0.0);
        assert!(t_hi >= t_lo);
        // Selection never loses to the flat ring: it takes the cheapest.
        let best = sel.select(hi).1;
        assert!(best <= t_hi + 1e-12);
    }
}

/// Algorithm 2 preserves the global batch for any feasible input.
#[test]
fn dp_partition_preserves_batch() {
    let g = models::resnet50(8).unwrap();
    let profile = CostProfile::from_graph(&g, 8);
    let cfg = TrainingConfig::default();
    let mut rng = SplitMix64::seed_from_u64(0xD9);
    for _ in 0..64 {
        let global = rng.range_usize(1, 2_000);
        let v100s = rng.range_usize(1, 6);
        let p100s = rng.range_usize(1, 6);
        let aware = rng.next_u64() & 1 == 1;
        let spec = format!("{v100s}xV100,{p100s}xP100");
        let cluster = Cluster::parse(&spec).unwrap();
        if let Ok(dp) = dp_partition(&profile, &cfg, cluster.gpus(), global, 1.0, aware) {
            assert_eq!(dp.batch_sizes.iter().sum::<usize>(), global);
            assert_eq!(dp.batch_sizes.len(), cluster.num_gpus());
        }
    }
}

/// Every (stage, micro, direction) task appears exactly once in any schedule
/// order.
#[test]
fn schedule_orders_are_permutations() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    for _ in 0..64 {
        let stages = rng.range_usize(1, 8);
        let micros = rng.range_usize(1, 24);
        let stage = rng.index(stages);
        let gpipe = rng.next_u64() & 1 == 1;
        let kind = if gpipe {
            ScheduleKind::GPipe
        } else {
            ScheduleKind::BackwardFirst
        };
        let order = stage_order(stage, stages, micros, kind);
        assert_eq!(order.len(), 2 * micros);
        let mut seen = std::collections::HashSet::new();
        for t in &order {
            assert!(seen.insert(*t), "duplicate task {t:?}");
            assert_eq!(t.stage(), stage);
            assert!(t.micro() < micros);
        }
    }
}

/// Cluster spec strings round-trip through the census.
#[test]
fn cluster_census_counts_gpus() {
    let mut rng = SplitMix64::seed_from_u64(0xCE2505);
    for _ in 0..64 {
        let nodes = rng.range_usize(1, 6);
        let v100s = rng.range_usize(1, 5);
        let p100s = rng.index(5);
        let inner = if p100s > 0 {
            format!("{v100s}xV100,{p100s}xP100")
        } else {
            format!("{v100s}xV100")
        };
        let c = Cluster::parse(&format!("{nodes}x({inner})")).unwrap();
        assert_eq!(c.num_nodes(), nodes);
        assert_eq!(c.num_gpus(), nodes * (v100s + p100s));
        let census = c.model_census();
        assert_eq!(census.get("V100-32GB").copied().unwrap_or(0), nodes * v100s);
        assert_eq!(census.get("P100-16GB").copied().unwrap_or(0), nodes * p100s);
    }
}

/// `push_u64` folds each run of zero bytes into one multiply by a power of
/// the prime; the result must be the FNV-1a byte loop's, value by value and
/// along a stream.
#[test]
fn push_u64_equals_pushing_its_little_endian_bytes() {
    let mut values = vec![
        0,
        1,
        0xFF,
        1 << 56,
        u64::MAX,
        0x0100_0000_0000_0001,
        0x00FF_0000_FF00_0000,
        0x0000_FF00_0000_00FF,
        1.0f64.to_bits(),
    ];
    let mut rng = SplitMix64::seed_from_u64(0xF17E);
    for _ in 0..256 {
        let v = rng.next_u64();
        // Clear a random subset of bytes, so zero runs of every length
        // occur at every offset.
        let clear = rng.next_u64();
        let zeroed = (0..8)
            .filter(|byte| clear >> byte & 1 == 1)
            .fold(v, |v, byte| v & !(0xFF << (8 * byte)));
        values.extend([v, zeroed]);
    }
    let bytes_of = |fp: &mut Fingerprinter, v: u64| fp.push_bytes(&v.to_le_bytes()).finish();
    let mut word = Fingerprinter::new("stream");
    let mut bytes = Fingerprinter::new("stream");
    for &v in &values {
        assert_eq!(
            Fingerprinter::new("one").push_u64(v).finish(),
            bytes_of(&mut Fingerprinter::new("one"), v),
            "{v:#018x}"
        );
        assert_eq!(
            word.push_u64(v).finish(),
            bytes_of(&mut bytes, v),
            "stream at {v:#018x}"
        );
    }
}

/// Every construction below goes through `ClusterBuilder::build`, so ids
/// are dense in node order and positions follow from the layout.
fn assert_dense_ids(c: &Cluster) {
    let mut next = 0;
    for (k, node) in c.nodes().iter().enumerate() {
        assert_eq!(node.index, k);
        for (rank, &id) in node.gpu_ids.iter().enumerate() {
            assert_eq!(id, next, "{c:?}");
            let g = c.gpu(id).unwrap();
            assert_eq!((g.id, g.node, g.local_rank), (id, k, rank), "{c:?}");
            next += 1;
        }
    }
    assert_eq!(next, c.num_gpus());
}

/// The cluster fingerprint hashes per-node model runs instead of every
/// GPU's record. Over seeded clusters built by `parse`, `homogeneous`,
/// mixed-node `ClusterBuilder`s, `subcluster`, `degrade_gpu` and every
/// `ClusterDelta` kind, two clusters are equal exactly when their
/// fingerprints are, and each keeps the dense-id invariant.
#[test]
fn cluster_fingerprints_are_equal_exactly_when_clusters_are() {
    // A small layout space, so independent constructions often meet.
    const MODELS: [(GpuModel, &str); 3] = [
        (GpuModel::V100_32GB, "V100"),
        (GpuModel::V100_16GB, "V100_16GB"),
        (GpuModel::P100_16GB, "P100"),
    ];
    const SCALES: [f64; 2] = [0.5, 1.0];
    const LINKS: [LinkKind; 3] = [LinkKind::NvLink, LinkKind::Pcie, LinkKind::Network];
    let mut rng = SplitMix64::seed_from_u64(0xC1A57E);
    let mut clusters = Vec::new();
    for _ in 0..32 {
        let layout: Vec<Vec<usize>> = (0..rng.range_usize(1, 4))
            .map(|_| (0..rng.range_usize(1, 4)).map(|_| rng.index(3)).collect())
            .collect();
        let spec = layout
            .iter()
            .map(|node| {
                let runs: Vec<String> =
                    node.iter().map(|&m| format!("1x{}", MODELS[m].1)).collect();
                runs.join(",")
            })
            .collect::<Vec<_>>()
            .join("+");
        let parsed = Cluster::parse(&spec).unwrap();
        let built = layout
            .iter()
            .fold(ClusterBuilder::new(), |b, node| {
                b.add_node(node.iter().map(|&m| MODELS[m].0).collect())
            })
            .build();
        let homogeneous = Cluster::homogeneous(
            MODELS[rng.index(3)].0,
            rng.range_usize(1, 3),
            rng.range_usize(1, 4),
        );
        let n = parsed.num_gpus();
        let picked: Vec<usize> = (0..n).filter(|_| rng.next_u64() & 1 == 1).collect();
        let sub = parsed
            .subcluster(if picked.is_empty() { &[0] } else { &picked })
            .unwrap();
        let mut degraded = parsed.clone();
        degraded
            .degrade_gpu(rng.index(n), SCALES[rng.index(2)])
            .unwrap();
        let deltas = [
            ClusterDelta::GpuDegraded {
                id: rng.index(n),
                scale: SCALES[rng.index(2)],
            },
            ClusterDelta::GpuRestored { id: rng.index(n) },
            ClusterDelta::GpuRemoved { id: rng.index(n) },
            ClusterDelta::GpuAdded {
                node: rng.index(parsed.num_nodes() + 1),
                model: MODELS[rng.index(3)].0,
            },
            ClusterDelta::LinkBandwidth {
                kind: LINKS[rng.index(3)],
                bytes_per_sec: [25e9, 50e9][rng.index(2)],
            },
        ];
        for delta in deltas {
            let mut after = degraded.clone();
            match after.apply_delta(delta) {
                Ok(()) => clusters.push(after),
                // The only refusal: removing a one-GPU cluster's last GPU.
                Err(e) => assert!(
                    matches!(delta, ClusterDelta::GpuRemoved { .. }) && n == 1,
                    "{delta:?}: {e}"
                ),
            }
        }
        clusters.extend([parsed, built, homogeneous, sub, degraded]);
    }
    let keyed: Vec<(Cluster, Fingerprint)> = clusters
        .into_iter()
        .map(|c| {
            let fp = c.fingerprint();
            (c, fp)
        })
        .collect();
    let (mut equal, mut distinct) = (0, 0);
    for (i, (a, fa)) in keyed.iter().enumerate() {
        assert_dense_ids(a);
        for (b, fb) in &keyed[i + 1..] {
            assert_eq!(a == b, fa == fb, "{a:?} vs {b:?}");
            if a == b {
                equal += 1;
            } else {
                distinct += 1;
            }
        }
    }
    assert!(
        equal > 0 && distinct > 0,
        "{equal} equal, {distinct} distinct"
    );
}

/// Planning + simulating pure DP succeeds for arbitrary small clusters and
/// batch sizes, is deterministic, and conserves samples. The end-to-end
/// property is slow; keep the case count small.
#[test]
fn dp_end_to_end_deterministic() {
    let mut rng = SplitMix64::seed_from_u64(0xE2E);
    for _ in 0..8 {
        let gpus = rng.range_usize(1, 9);
        let batch = 1usize << rng.range_usize(4, 9);
        let spec = format!("1x({gpus}xV100)");
        let session = Session::on_cluster(&spec).unwrap();
        let ir = strategies::data_parallel(models::resnet50(batch).unwrap(), batch).unwrap();
        let a = session.step(&ir).unwrap().stats;
        let b = session.step(&ir).unwrap().stats;
        assert_eq!(a.clone(), b, "simulation must be deterministic");
        let plan = session.plan(&ir).unwrap();
        let total: usize = plan.stages[0]
            .devices
            .iter()
            .map(|d| d.samples_per_step)
            .sum();
        assert_eq!(total, batch);
        assert!(a.step_time > 0.0);
    }
}
