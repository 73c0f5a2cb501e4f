//! Analytic cost models for collective communication.
//!
//! The paper synchronizes gradients with ring AllReduce (Horovod-style,
//! ref \[35\]) executed hierarchically: a local AllReduce inside each worker
//! node followed by a global AllReduce across workers (§4, "Gradient
//! Aggregation"). This module provides the standard α–β cost models for the
//! collectives Whale inserts: AllReduce, AllGather, ReduceScatter, Broadcast,
//! and AllToAll (used by MoE expert dispatch).
//!
//! All times are in seconds, sizes in bytes. Group members are global GPU ids
//! within a [`Cluster`].

use crate::cluster::Cluster;
use crate::error::{HardwareError, Result};
use crate::interconnect::LinkKind;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Collective operations the planner can insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Sum-reduce then replicate: each rank ends with the full reduced tensor.
    AllReduce,
    /// Concatenate per-rank shards: each rank ends with the full tensor.
    AllGather,
    /// Reduce then shard: each rank ends with `1/n` of the reduced tensor.
    ReduceScatter,
    /// One rank sends the full tensor to all others.
    Broadcast,
    /// Every rank exchanges a distinct shard with every other rank.
    AllToAll,
}

/// AllReduce algorithm flavors the runtime can execute (NCCL-style).
///
/// [`AllReduceSelector::select`] picks one per group, payload, and
/// topology at the latency/bandwidth crossover; the planner's comm-optimizer
/// pass records the choice per fusion bucket so the simulator prices exactly
/// the algorithm the schedule committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllReduceAlgo {
    /// Flat ring: bandwidth-optimal, `2(n−1)` latency hops.
    Ring,
    /// Binary tree: latency-optimal for small payloads.
    Tree,
    /// Two-level ring (Whale §4): local phases on fast links, one leader per
    /// node rings the network.
    Hierarchical,
}

impl AllReduceAlgo {
    /// Stable display name (`"ring"`, `"tree"`, `"hierarchical"`).
    pub fn name(self) -> &'static str {
        match self {
            AllReduceAlgo::Ring => "ring",
            AllReduceAlgo::Tree => "tree",
            AllReduceAlgo::Hierarchical => "hierarchical",
        }
    }
}

/// α–β cost of `kind` over a flat ring of `n` ranks whose slowest hop has
/// bandwidth `bw` and latency `lat` (for AllReduce, the ring algorithm).
/// The one copy of the ring formulas: every [`AllReduceSelector`] price
/// goes through it.
fn ring_cost(kind: Collective, n: usize, bw: f64, lat: f64, bytes: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    match kind {
        Collective::AllReduce => 2.0 * (nf - 1.0) / nf * bytes as f64 / bw + 2.0 * (nf - 1.0) * lat,
        Collective::AllGather => (nf - 1.0) * bytes as f64 / bw + (nf - 1.0) * lat,
        Collective::ReduceScatter | Collective::AllToAll => {
            (nf - 1.0) / nf * bytes as f64 / bw + (nf - 1.0) * lat
        }
        Collective::Broadcast => bytes as f64 / bw + (nf - 1.0) * lat,
    }
}

/// Link class of a ring whose members span `nodes` nodes: the network
/// across nodes, else NVLink only if every member has it.
fn ring_link(nodes: usize, all_nvlink: bool) -> LinkKind {
    if nodes > 1 {
        LinkKind::Network
    } else if all_nvlink {
        LinkKind::NvLink
    } else {
        LinkKind::Pcie
    }
}

/// Binary-tree AllReduce over `n` ranks: `2·⌈log2 n⌉·(lat + bytes/bw)`.
fn tree_cost(n: usize, bw: f64, lat: f64, bytes: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    2.0 * (n as f64).log2().ceil() * (lat + bytes as f64 / bw)
}

/// The collective cost model of one group on a concrete cluster: the
/// group's topology is walked once, in [`AllReduceSelector::new`], and each
/// payload then costs a few multiply-adds over the cached link parameters,
/// so pricing every bucket of a fusion schedule is O(buckets), not
/// O(buckets × group).
///
/// A flat ring runs on the group's *bottleneck link class* (the network if
/// the group spans nodes, otherwise NVLink or PCIe) under the textbook α–β
/// formulas. This first-order treatment is the one the paper's planner uses
/// to reason about communication (it never simulates packets). The
/// planner's comm-optimizer, its search bounds and the simulator all price
/// through a [`GroupCache`] of these, one per distinct group.
#[derive(Debug, Clone)]
pub struct AllReduceSelector {
    n: usize,
    ring_bw: f64,
    ring_lat: f64,
    /// Slowest group member's device memory bandwidth — the bound on the
    /// elementwise quantize/dequantize passes mixed-precision collectives
    /// run around the wire transfer.
    min_membw: f64,
    /// The nodes the group touches, ascending.
    nodes: Vec<usize>,
    /// `None` when the group sits on one node: hierarchical falls back to
    /// the flat ring there.
    hier: Option<HierTopo>,
}

/// A group spanning several nodes. Its leader ring (one GPU per node) runs
/// on the network, the same link as the group's own flat ring.
#[derive(Debug, Clone)]
struct HierTopo {
    /// Per node: member count and the node-local ring `(bw, lat)` (unused
    /// placeholders for single-member nodes, which run no local phase).
    nodes: Vec<(usize, f64, f64)>,
}

impl AllReduceSelector {
    /// Walk `group` on `cluster` once: its bottleneck link, per-node
    /// membership and leader ring. An empty group, a repeated rank or an
    /// unknown GPU id is [`HardwareError::InvalidGroup`] or
    /// [`HardwareError::UnknownDevice`].
    pub fn new(cluster: &Cluster, group: &[usize]) -> Result<AllReduceSelector> {
        let n = check_group(group)?;
        let ic = &cluster.interconnect;
        let link_params = |kind: LinkKind| (ic.bandwidth(kind), ic.latency(kind));
        // Per node, in first-appearance order: id, member count, and whether
        // every member has NVLink.
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut per_node: Vec<(usize, usize, bool)> = Vec::new();
        let mut min_membw = f64::INFINITY;
        for &id in group {
            let g = cluster.gpu(id)?;
            min_membw = min_membw.min(g.model.memory_bandwidth());
            let nvlink = g.model.has_nvlink();
            match slot_of.entry(g.node) {
                Entry::Occupied(e) => {
                    let node = &mut per_node[*e.get()];
                    node.1 += 1;
                    node.2 &= nvlink;
                }
                Entry::Vacant(e) => {
                    e.insert(per_node.len());
                    per_node.push((g.node, 1, nvlink));
                }
            }
        }
        let all_nvlink = per_node.iter().all(|&(_, _, nvlink)| nvlink);
        let (ring_bw, ring_lat) = link_params(ring_link(per_node.len(), all_nvlink));
        let hier = (per_node.len() > 1).then(|| HierTopo {
            nodes: per_node
                .iter()
                .map(|&(_, m, nvlink)| {
                    let (bw, lat) = if m > 1 {
                        link_params(ring_link(1, nvlink))
                    } else {
                        (1.0, 0.0)
                    };
                    (m, bw, lat)
                })
                .collect(),
        });
        let mut nodes: Vec<usize> = per_node.iter().map(|&(node, _, _)| node).collect();
        nodes.sort_unstable();
        Ok(AllReduceSelector {
            n,
            ring_bw,
            ring_lat,
            min_membw,
            nodes,
            hier,
        })
    }

    /// Flat-ring AllReduce: `2·(n−1)/n · bytes / bw + 2·(n−1)·lat`, a
    /// reduce-scatter pass followed by an all-gather pass.
    pub fn ring(&self, bytes: u64) -> f64 {
        ring_cost(
            Collective::AllReduce,
            self.n,
            self.ring_bw,
            self.ring_lat,
            bytes,
        )
    }

    /// Binary-tree AllReduce, reduce up and broadcast down:
    /// `2·⌈log2 n⌉·(lat + bytes/bw)`, latency-optimal for small tensors
    /// where the ring's `2(n−1)` latency hops dominate.
    pub fn tree(&self, bytes: u64) -> f64 {
        tree_cost(self.n, self.ring_bw, self.ring_lat, bytes)
    }

    /// Two-level AllReduce as Whale runs it (§4): ReduceScatter inside each
    /// node on the fast local links (the slowest node bounds), a ring
    /// AllReduce of the largest shard among one leader per node, then
    /// AllGather inside each node. Single-node groups fall back to the flat
    /// ring.
    pub fn hierarchical(&self, bytes: u64) -> f64 {
        if self.n == 1 {
            return 0.0;
        }
        let Some(h) = &self.hier else {
            return self.ring(bytes);
        };
        let mut local_rs: f64 = 0.0;
        let mut local_ag: f64 = 0.0;
        for &(m, bw, lat) in &h.nodes {
            if m > 1 {
                local_rs = local_rs.max(ring_cost(Collective::ReduceScatter, m, bw, lat, bytes));
                let per_rank = bytes / m as u64;
                local_ag = local_ag.max(ring_cost(Collective::AllGather, m, bw, lat, per_rank));
            }
        }
        let max_shard = h
            .nodes
            .iter()
            .map(|&(m, _, _)| bytes / m as u64)
            .max()
            .unwrap_or(bytes);
        let global = ring_cost(
            Collective::AllReduce,
            h.nodes.len(),
            self.ring_bw,
            self.ring_lat,
            max_shard,
        );
        local_rs + global + local_ag
    }

    /// Cost under an explicitly chosen algorithm. Zero-byte payloads are
    /// skipped (cost `0.0`) rather than charged the algorithm's latency
    /// terms: compression rounding can produce empty buckets, and an empty
    /// bucket launches no collective at all.
    pub fn cost(&self, algo: AllReduceAlgo, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        match algo {
            AllReduceAlgo::Ring => self.ring(bytes),
            AllReduceAlgo::Tree => self.tree(bytes),
            AllReduceAlgo::Hierarchical => self.hierarchical(bytes),
        }
    }

    /// Latency/bandwidth-crossover selection: the cheapest algorithm for
    /// `bytes` with its cost. Ties break toward ring, then hierarchical (the
    /// order NCCL uses when costs are equal: the bandwidth-optimal variant
    /// wins). Zero-byte payloads short-circuit to `(Ring, 0.0)` — see
    /// [`Self::cost`].
    pub fn select(&self, bytes: u64) -> (AllReduceAlgo, f64) {
        if bytes == 0 {
            return (AllReduceAlgo::Ring, 0.0);
        }
        let flat = self.ring(bytes);
        let hier = self.hierarchical(bytes);
        let tree = self.tree(bytes);
        if flat <= hier && flat <= tree {
            (AllReduceAlgo::Ring, flat)
        } else if hier <= tree {
            (AllReduceAlgo::Hierarchical, hier)
        } else {
            (AllReduceAlgo::Tree, tree)
        }
    }

    /// Cost of `kind` carrying `bytes` over this group: AllReduce at the
    /// [`Self::select`]ed algorithm, the other kinds on the flat ring.
    /// AllGather takes the bytes each rank contributes; AllToAll the bytes
    /// each rank holds, of which it sends `(n−1)/n` (MoE expert dispatch,
    /// `einsum("GSEC,GSM->EGCM")` in paper Example 8, lowers to it).
    pub fn collective(&self, kind: Collective, bytes: u64) -> f64 {
        match kind {
            Collective::AllReduce => self.select(bytes).1,
            _ => ring_cost(kind, self.n, self.ring_bw, self.ring_lat, bytes),
        }
    }

    /// The nodes the group touches, ascending: the NICs (or, on one node,
    /// the local fabric) its collectives occupy.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Slowest member's device memory bandwidth, bytes/s.
    pub fn min_membw(&self) -> f64 {
        self.min_membw
    }
}

/// Group topologies memoized by group content: each distinct group is
/// validated and walked once, however many collectives, syncs and buckets
/// name it. The planner's comm-optimizer keeps one per pass, the search one
/// per call and the simulator one per step; the first sight of an invalid
/// group returns [`AllReduceSelector::new`]'s error for it.
///
/// A lookup compares the group with the last valid group looked up before
/// it hashes anything: the collectives and syncs of an MoE plan name one
/// group over and over.
#[derive(Debug)]
pub struct GroupCache<'c> {
    cluster: &'c Cluster,
    slots: HashMap<Arc<[usize]>, usize>,
    /// Each slot's group and topology.
    groups: Vec<(Arc<[usize]>, AllReduceSelector)>,
    /// The slot of the last valid group looked up.
    last: Option<usize>,
}

impl<'c> GroupCache<'c> {
    /// An empty cache over `cluster`.
    pub fn new(cluster: &'c Cluster) -> Self {
        GroupCache {
            cluster,
            slots: HashMap::new(),
            groups: Vec::new(),
            last: None,
        }
    }

    /// The cluster the cached topologies belong to.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// Slot of `group`'s topology (see [`GroupCache::get`]), walking the
    /// group on its first sight. Only a lookup of a group never seen
    /// allocates.
    pub fn slot(&mut self, group: &[usize]) -> Result<usize> {
        if let Some(last) = self.last {
            if *self.groups[last].0 == *group {
                return Ok(last);
            }
        }
        let slot = match self.slots.get(group) {
            Some(&slot) => slot,
            None => {
                let topo = AllReduceSelector::new(self.cluster, group)?;
                let key: Arc<[usize]> = group.into();
                let slot = self.groups.len();
                self.groups.push((Arc::clone(&key), topo));
                self.slots.insert(key, slot);
                slot
            }
        };
        self.last = Some(slot);
        Ok(slot)
    }

    /// The topology in `slot`.
    pub fn get(&self, slot: usize) -> &AllReduceSelector {
        &self.groups[slot].1
    }

    /// `group`'s topology.
    pub fn selector(&mut self, group: &[usize]) -> Result<&AllReduceSelector> {
        let slot = self.slot(group)?;
        Ok(&self.groups[slot].1)
    }
}

/// Quantize + dequantize wall time for one rank: `2·(logical + wire)` bytes
/// of device-memory traffic at `membw` bytes/s, the slowest group member's
/// ([`AllReduceSelector::min_membw`]). The one quantize price: the
/// simulator's bucketed and legacy sync paths and the post-plan search
/// bound all charge it.
pub fn quantize_dequantize_cost(logical: u64, wire: u64, membw: f64) -> f64 {
    if membw <= 0.0 {
        return 0.0;
    }
    2.0 * (logical + wire) as f64 / membw
}

fn check_group(group: &[usize]) -> Result<usize> {
    if group.is_empty() {
        return Err(HardwareError::InvalidGroup("empty group".into()));
    }
    let mut sorted: Vec<usize> = group.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != group.len() {
        return Err(HardwareError::InvalidGroup(
            "duplicate rank in group".into(),
        ));
    }
    Ok(group.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::gpu::GpuModel;

    const MB100: u64 = 100 << 20;

    fn selector(c: &Cluster, group: &[usize]) -> AllReduceSelector {
        AllReduceSelector::new(c, group).unwrap()
    }

    /// The ring AllReduce formula over `n` ranks on a link of bandwidth
    /// `bw` and latency `lat`, written out independently of `ring_cost`.
    fn ring_formula(n: f64, bw: f64, lat: f64, bytes: u64) -> f64 {
        2.0 * (n - 1.0) / n * bytes as f64 / bw + 2.0 * (n - 1.0) * lat
    }

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() / want < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        assert_eq!(selector(&c, &[0]).ring(MB100), 0.0);
        assert_eq!(
            selector(&c, &[3]).collective(Collective::AllGather, MB100),
            0.0
        );
        assert_eq!(
            selector(&c, &[5]).collective(Collective::AllToAll, MB100),
            0.0
        );
    }

    #[test]
    fn empty_or_duplicate_group_rejected() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        assert!(AllReduceSelector::new(&c, &[]).is_err());
        assert!(AllReduceSelector::new(&c, &[0, 0]).is_err());
    }

    #[test]
    fn group_cache_walks_each_group_once() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let mut cache = GroupCache::new(&c);
        assert!(std::ptr::eq(cache.cluster(), &c));
        let a = cache.slot(&[0, 1, 8]).unwrap();
        let b = cache.slot(&[0, 1]).unwrap();
        assert_ne!(a, b);
        assert_eq!(cache.slot(&[0, 1, 8]).unwrap(), a);
        assert_eq!(cache.get(a).nodes(), &[0, 1]);
        assert_eq!(
            cache.selector(&[0, 1]).unwrap().ring(MB100),
            selector(&c, &[0, 1]).ring(MB100)
        );
        assert!(cache.slot(&[2, 2]).is_err());
        assert_eq!(
            cache.slot(&[16]).unwrap_err(),
            HardwareError::UnknownDevice(16)
        );
    }

    #[test]
    fn a_repeated_group_reuses_its_slot() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let mut cache = GroupCache::new(&c);
        let (a, b): (&[usize], &[usize]) = (&[0, 1, 8], &[2, 9]);
        let slots: Vec<usize> = [a, b, a, a]
            .into_iter()
            .map(|g| cache.slot(g).unwrap())
            .collect();
        assert_eq!(slots, vec![0, 1, 0, 0]);
        assert_eq!(cache.groups.len(), 2, "one topology per distinct group");
        assert_eq!(cache.get(0).nodes(), &[0, 1]);
        assert_eq!(cache.get(1).nodes(), &[0, 1]);
    }

    #[test]
    fn a_bad_group_after_a_repeated_hit_is_still_refused() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let mut cache = GroupCache::new(&c);
        cache.slot(&[0, 1, 2]).unwrap();
        cache.slot(&[0, 1, 2]).unwrap();
        let want = AllReduceSelector::new(&c, &[0, 1, 1]).unwrap_err();
        assert_eq!(
            want,
            HardwareError::InvalidGroup("duplicate rank in group".into())
        );
        assert_eq!(cache.slot(&[0, 1, 1]).unwrap_err(), want);
        // The refused group did not become the previous one.
        assert_eq!(cache.slot(&[0, 1, 1]).unwrap_err(), want);
        assert_eq!(cache.slot(&[0, 1, 2]).unwrap(), 0);
    }

    #[test]
    fn a_prefix_or_permutation_of_the_previous_group_is_its_own_group() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let mut cache = GroupCache::new(&c);
        assert_eq!(cache.slot(&[0, 1, 8]).unwrap(), 0);
        assert_eq!(cache.slot(&[0, 1]).unwrap(), 1);
        assert_eq!(cache.slot(&[0, 1, 8]).unwrap(), 0);
        assert_eq!(cache.slot(&[8, 0, 1]).unwrap(), 2);
        assert_eq!(cache.slot(&[0, 1, 8]).unwrap(), 0);
        assert_eq!(cache.groups.len(), 3);
        assert_eq!(cache.get(1).nodes(), &[0]);
    }

    #[test]
    fn intra_node_nvlink_beats_cross_node() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let intra = selector(&c, &[0, 1, 2, 3]).ring(MB100);
        let cross = selector(&c, &[0, 1, 8, 9]).ring(MB100);
        assert!(cross > intra * 5.0, "cross={cross} intra={intra}");
    }

    #[test]
    fn p100_nodes_use_pcie() {
        let c = Cluster::homogeneous(GpuModel::P100_16GB, 1, 8);
        let ic = &c.interconnect;
        assert_close(
            selector(&c, &[0, 1, 2, 3]).ring(MB100),
            ring_formula(4.0, ic.pcie_bw, ic.pcie_lat, MB100),
        );
    }

    #[test]
    fn ring_allreduce_formula() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        let ic = &c.interconnect;
        let t = selector(&c, &[0, 1, 2, 3]).ring(MB100);
        let expect = 2.0 * 3.0 / 4.0 * MB100 as f64 / ic.nvlink_bw + 6.0 * ic.nvlink_lat;
        assert_close(t, expect);
    }

    #[test]
    fn hierarchical_beats_flat_on_multi_node() {
        // 4 nodes × 8 GPUs: flat 32-way ring is bounded by the network for the
        // whole tensor; hierarchical only moves 1/8 of it across nodes.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 8);
        let group: Vec<usize> = (0..32).collect();
        let sel = selector(&c, &group);
        let flat = sel.ring(MB100);
        let hier = sel.hierarchical(MB100);
        assert!(
            hier < flat,
            "hierarchical {hier} should beat flat {flat} across nodes"
        );
        assert_eq!(sel.collective(Collective::AllReduce, MB100), hier.min(flat));
    }

    #[test]
    fn hierarchical_on_single_node_equals_flat() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let group: Vec<usize> = (0..8).collect();
        let sel = selector(&c, &group);
        assert_eq!(sel.hierarchical(MB100), sel.ring(MB100));
    }

    #[test]
    fn allreduce_scales_with_bytes_not_much_with_ranks() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let four = selector(&c, &[0, 1, 2, 3]);
        let t4 = four.ring(MB100);
        let t8 = selector(&c, &(0..8).collect::<Vec<_>>()).ring(MB100);
        // Ring AllReduce bandwidth term approaches 2·S/BW; 8 ranks within 17%
        // of 4 ranks.
        assert!(t8 < t4 * 1.2);
        let t_double = four.ring(2 * MB100);
        assert!(t_double > 1.8 * t4);
    }

    #[test]
    fn tree_wins_for_tiny_tensors_ring_for_big() {
        // 8 nodes × 8 GPUs over the network, where the ring's latency
        // (2·63 hops) dominates small payloads.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 8, 8);
        let sel = selector(&c, &(0..64).collect::<Vec<_>>());
        let tiny = 4 << 10; // 4 KiB
        assert!(sel.tree(tiny) < sel.ring(tiny), "tree should win at 4 KiB");
        let big = 256 << 20;
        assert!(sel.ring(big) < sel.tree(big), "ring should win at 256 MiB");
        // Selection picks the min of all three.
        let best = sel.select(tiny).1;
        assert!(best <= sel.tree(tiny));
        assert!(best <= sel.hierarchical(tiny));
    }

    #[test]
    fn singleton_groups_cost_nothing_under_every_algorithm() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let sel = selector(&c, &[5]);
        for algo in [
            AllReduceAlgo::Ring,
            AllReduceAlgo::Tree,
            AllReduceAlgo::Hierarchical,
        ] {
            assert_eq!(sel.cost(algo, MB100), 0.0);
        }
        assert_eq!(sel.select(MB100).1, 0.0);
        assert_eq!(sel.collective(Collective::AllReduce, MB100), 0.0);
    }

    #[test]
    fn heterogeneous_intra_and_inter_node_bandwidths_are_distinguished() {
        // Node 0: NVLink V100s; node 1: PCIe P100s. The same 4-rank group
        // costs more on PCIe than on NVLink, and a group spanning both nodes
        // is bounded by the network — strictly slower than either.
        let c = Cluster::parse("1x(8xV100)+1x(8xP100)").unwrap();
        let ic = &c.interconnect;
        let nvlink = selector(&c, &[0, 1, 2, 3]).ring(MB100);
        let pcie = selector(&c, &[8, 9, 10, 11]).ring(MB100);
        let cross = selector(&c, &[0, 1, 8, 9]).ring(MB100);
        assert!(pcie > nvlink, "pcie={pcie} nvlink={nvlink}");
        assert!(cross > pcie, "cross={cross} pcie={pcie}");
        assert_close(pcie, ring_formula(4.0, ic.pcie_bw, ic.pcie_lat, MB100));
        assert_close(
            cross,
            ring_formula(4.0, ic.network_bw, ic.network_lat, MB100),
        );
    }

    #[test]
    fn ring_tree_crossover_is_monotone_in_payload() {
        // tree − ring cost is strictly increasing in payload on a fixed
        // group (the tree re-sends the whole tensor per level, `2·log2(n)`
        // bandwidth terms vs the ring's ~2), so the selection flips at most
        // once as the payload grows: tree wins small tensors, ring wins big
        // ones, and once the ring wins it wins at every larger payload.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 8, 8);
        let sel = selector(&c, &(0..64).collect::<Vec<_>>());
        let mut ring_won = false;
        let mut prev_gap = f64::NEG_INFINITY;
        for shift in 10..30 {
            let bytes = 1u64 << shift; // 1 KiB → 512 MiB
            let ring = sel.ring(bytes);
            let tree = sel.tree(bytes);
            let gap = tree - ring;
            assert!(gap > prev_gap, "gap must grow: {prev_gap} → {gap}");
            prev_gap = gap;
            let (algo, cost) = sel.select(bytes);
            assert!(cost <= ring.min(tree));
            if ring_won {
                assert_ne!(
                    algo,
                    AllReduceAlgo::Tree,
                    "tree re-selected at {bytes} B after losing at a smaller payload"
                );
            }
            if ring < tree {
                ring_won = true;
            }
        }
        assert!(ring_won, "ring must win for large payloads");
    }

    #[test]
    fn hierarchical_single_node_fallback_matches_flat_ring_selection() {
        // On one node the hierarchical algorithm degenerates to a flat ring;
        // selection must therefore never report hierarchical as a strict
        // winner and its cost must equal the ring's at every payload.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let sel = selector(&c, &(0..8).collect::<Vec<_>>());
        for bytes in [4u64 << 10, 1 << 20, 256 << 20] {
            assert_eq!(
                sel.cost(AllReduceAlgo::Hierarchical, bytes),
                sel.cost(AllReduceAlgo::Ring, bytes)
            );
            let (algo, cost) = sel.select(bytes);
            assert_ne!(algo, AllReduceAlgo::Hierarchical);
            assert_eq!(cost, sel.collective(Collective::AllReduce, bytes));
        }
    }

    #[test]
    fn selection_cost_equals_chosen_algorithm_cost() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 8);
        let sel = selector(&c, &(0..32).collect::<Vec<_>>());
        for bytes in [1u64 << 12, 1 << 20, 25 << 20, 512 << 20] {
            let (algo, cost) = sel.select(bytes);
            assert_eq!(cost, sel.cost(algo, bytes));
        }
    }

    #[test]
    fn zero_byte_payloads_skip_pricing() {
        // Compression rounding can empty a fusion bucket; an empty bucket
        // launches no collective, so selection and explicit-algorithm
        // pricing must both return 0 — not the algorithm's latency terms.
        let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let sel = selector(&c, &(0..32).collect::<Vec<_>>());
        assert_eq!(sel.select(0), (AllReduceAlgo::Ring, 0.0));
        assert_eq!(sel.collective(Collective::AllReduce, 0), 0.0);
        for algo in [
            AllReduceAlgo::Ring,
            AllReduceAlgo::Tree,
            AllReduceAlgo::Hierarchical,
        ] {
            assert_eq!(sel.cost(algo, 0), 0.0);
        }
        // One byte is already a real collective again.
        assert!(sel.cost(AllReduceAlgo::Ring, 1) > 0.0);
    }

    #[test]
    fn quantize_cost_is_bound_by_the_slowest_member() {
        // V100 HBM2 is faster than P100; a mixed group pays the P100 rate.
        let c = Cluster::parse("8xV100+8xP100").unwrap();
        let (logical, wire) = (100u64 << 20, 50u64 << 20);
        let fast = selector(&c, &(0..8).collect::<Vec<_>>()).min_membw();
        let slow = selector(&c, &(0..16).collect::<Vec<_>>()).min_membw();
        assert_eq!(fast, GpuModel::V100_32GB.memory_bandwidth());
        let p100_bw = GpuModel::P100_16GB.memory_bandwidth();
        assert_eq!(slow, p100_bw);
        assert!(
            quantize_dequantize_cost(logical, wire, slow)
                > quantize_dequantize_cost(logical, wire, fast),
            "mixed group must pay the P100 membw"
        );
        assert_eq!(
            quantize_dequantize_cost(logical, wire, slow),
            2.0 * (logical + wire) as f64 / p100_bw
        );
        // No bandwidth, no price.
        assert_eq!(quantize_dequantize_cost(logical, wire, 0.0), 0.0);
    }

    // --- price goldens ---------------------------------------------------

    /// Per group of `2x(8xV100)+2x(8xP100)`, a `whale_fp` digest of the
    /// `f64::to_bits` of every selector price at payloads of 0, 2^10, 2^16,
    /// 2^20, 2^24, 2^27 and 2^30 bytes: `ring`, `tree`, `hierarchical`,
    /// `select` (algorithm and cost) and `collective` of each of the five
    /// [`Collective`] kinds.
    fn price_digests() -> Vec<(&'static str, u64)> {
        let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let groups: [(&str, Vec<usize>); 5] = [
            ("all four nodes", (0..32).collect()),
            ("one NVLink node", (0..8).collect()),
            ("asymmetric membership", vec![0, 1, 2, 8, 9, 16, 24]),
            ("singleton", vec![5]),
            ("one GPU per node", vec![0, 8, 16, 24]),
        ];
        groups
            .into_iter()
            .map(|(name, g)| {
                let sel = selector(&c, &g);
                let mut fp = whale_fp::Fingerprinter::new("price-goldens");
                for bytes in [0u64, 1 << 10, 1 << 16, 1 << 20, 1 << 24, 1 << 27, 1 << 30] {
                    let (algo, cost) = sel.select(bytes);
                    fp.push_u64(bytes)
                        .push_u64(sel.ring(bytes).to_bits())
                        .push_u64(sel.tree(bytes).to_bits())
                        .push_u64(sel.hierarchical(bytes).to_bits())
                        .push_str(algo.name())
                        .push_u64(cost.to_bits());
                    for kind in [
                        Collective::AllReduce,
                        Collective::AllGather,
                        Collective::ReduceScatter,
                        Collective::Broadcast,
                        Collective::AllToAll,
                    ] {
                        fp.push_u64(sel.collective(kind, bytes).to_bits());
                    }
                }
                (name, fp.finish().0)
            })
            .collect()
    }

    /// Recorded while every price was still checked against a second,
    /// group-walking implementation. Regenerate with
    ///
    /// ```text
    /// cargo test --offline -p whale-hardware --lib -- --ignored --nocapture print_goldens
    /// ```
    ///
    /// and paste the printed rows over `PRICE_GOLDENS`.
    const PRICE_GOLDENS: &[(&str, u64)] = &[
        ("all four nodes", 0x8c6f54f37716e2b4),
        ("one NVLink node", 0xf4f785843d5f8ec6),
        ("asymmetric membership", 0x79e139988b71f209),
        ("singleton", 0x1bca141a4bd0ab3a),
        ("one GPU per node", 0x300cebb81729ea0e),
    ];

    #[test]
    fn selector_prices_match_their_goldens() {
        assert_eq!(price_digests(), PRICE_GOLDENS);
    }

    #[test]
    #[ignore = "prints the PRICE_GOLDENS table; run it to regenerate after an intended change"]
    fn print_goldens() {
        for (name, digest) in price_digests() {
            println!("        (\"{name}\", {digest:#018x}),");
        }
    }
}
