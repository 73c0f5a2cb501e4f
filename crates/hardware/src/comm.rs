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
use std::collections::{BTreeSet, HashMap};

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
/// [`CommModel::select_allreduce`] picks one per group, payload, and
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

/// Communication cost model over a concrete cluster.
///
/// The model picks the *bottleneck link class* of the group (network if the
/// group spans nodes, otherwise NVLink/PCIe) and applies the textbook ring
/// formulas. This first-order treatment is the same one the paper's planner
/// uses to reason about communication (it never simulates packets).
#[derive(Debug, Clone)]
pub struct CommModel<'c> {
    cluster: &'c Cluster,
}

impl<'c> CommModel<'c> {
    /// Build a cost model over `cluster`.
    pub fn new(cluster: &'c Cluster) -> Self {
        Self { cluster }
    }

    /// The slowest link class used by a ring over `group`.
    pub fn bottleneck_link(&self, group: &[usize]) -> Result<LinkKind> {
        if group.len() < 2 {
            return Ok(LinkKind::Local);
        }
        let mut nodes = BTreeSet::new();
        let mut all_nvlink = true;
        for &id in group {
            let g = self.cluster.gpu(id)?;
            nodes.insert(g.node);
            all_nvlink &= g.model.has_nvlink();
        }
        Ok(ring_link(nodes.len(), all_nvlink))
    }

    fn link_params(&self, kind: LinkKind) -> (f64, f64) {
        let ic = &self.cluster.interconnect;
        (ic.bandwidth(kind), ic.latency(kind))
    }

    /// `kind` over a flat ring of `group`, priced by [`ring_cost`].
    fn ring(&self, kind: Collective, group: &[usize], bytes: u64) -> Result<f64> {
        let n = check_group(group)?;
        if n == 1 {
            return Ok(0.0);
        }
        let (bw, lat) = self.link_params(self.bottleneck_link(group)?);
        Ok(ring_cost(kind, n, bw, lat, bytes))
    }

    /// Ring AllReduce over `group` of a `bytes`-sized tensor.
    ///
    /// Cost: `2·(n−1)/n · bytes / bw + 2·(n−1)·lat` — a reduce-scatter pass
    /// followed by an all-gather pass.
    pub fn allreduce(&self, group: &[usize], bytes: u64) -> Result<f64> {
        self.ring(Collective::AllReduce, group, bytes)
    }

    /// Ring AllGather: each rank contributes `bytes_per_rank`, ends with
    /// `n·bytes_per_rank`.
    pub fn allgather(&self, group: &[usize], bytes_per_rank: u64) -> Result<f64> {
        self.ring(Collective::AllGather, group, bytes_per_rank)
    }

    /// Ring ReduceScatter of a `bytes`-sized tensor.
    pub fn reduce_scatter(&self, group: &[usize], bytes: u64) -> Result<f64> {
        self.ring(Collective::ReduceScatter, group, bytes)
    }

    /// Pipelined broadcast of a `bytes`-sized tensor from one rank.
    pub fn broadcast(&self, group: &[usize], bytes: u64) -> Result<f64> {
        self.ring(Collective::Broadcast, group, bytes)
    }

    /// AllToAll where each rank holds `bytes` total and sends `(n−1)/n` of it.
    ///
    /// MoE expert dispatch (`einsum("GSEC,GSM->EGCM")` in paper Example 8)
    /// lowers to this collective.
    pub fn alltoall(&self, group: &[usize], bytes: u64) -> Result<f64> {
        self.ring(Collective::AllToAll, group, bytes)
    }

    /// Binary-tree AllReduce: reduce up and broadcast down.
    ///
    /// Cost `2·log2(n)·(lat + bytes/bw)` — latency-optimal for small
    /// tensors where the ring's `2(n−1)` latency hops dominate.
    pub fn tree_allreduce(&self, group: &[usize], bytes: u64) -> Result<f64> {
        let n = check_group(group)?;
        if n == 1 {
            return Ok(0.0);
        }
        let (bw, lat) = self.link_params(self.bottleneck_link(group)?);
        Ok(tree_cost(n, bw, lat, bytes))
    }

    /// Hierarchical AllReduce as implemented by Whale (§4): ReduceScatter +
    /// AllReduce-across-node-leaders + AllGather, with intra-node phases on
    /// the fast local links.
    ///
    /// Falls back to a flat ring when the group sits on a single node.
    pub fn hierarchical_allreduce(&self, group: &[usize], bytes: u64) -> Result<f64> {
        if check_group(group)? == 1 {
            return Ok(0.0);
        }
        Ok(self.allreduce_selector(group)?.hierarchical(bytes))
    }

    /// AllReduce cost under an explicitly chosen algorithm.
    pub fn allreduce_with(&self, algo: AllReduceAlgo, group: &[usize], bytes: u64) -> Result<f64> {
        match algo {
            AllReduceAlgo::Ring => self.allreduce(group, bytes),
            AllReduceAlgo::Tree => self.tree_allreduce(group, bytes),
            AllReduceAlgo::Hierarchical => self.hierarchical_allreduce(group, bytes),
        }
    }

    /// Latency/bandwidth-crossover algorithm selection: evaluate every
    /// algorithm for this group size, payload, and topology and return the
    /// winner with its cost. Ties break deterministically toward ring, then
    /// hierarchical (the preference order NCCL uses when costs are equal:
    /// the bandwidth-optimal variant wins).
    ///
    /// Zero-byte payloads (compression rounding can empty a fusion bucket)
    /// are skipped rather than priced: the result is `(Ring, 0.0)` — no
    /// degenerate collective, no latency hops for bytes that never move.
    pub fn select_allreduce(&self, group: &[usize], bytes: u64) -> Result<(AllReduceAlgo, f64)> {
        Ok(self.allreduce_selector(group)?.select(bytes))
    }

    /// Precompute an [`AllReduceSelector`] for `group`: one walk over the
    /// group (bottleneck links, per-node membership, leader ring) happens
    /// here, and each subsequent payload costs a few multiply-adds. Costs
    /// are bit-identical to the [`CommModel`] methods; the planner's
    /// comm-optimizer and the simulator price through a [`GroupCache`] of
    /// these, one per distinct group.
    pub fn allreduce_selector(&self, group: &[usize]) -> Result<AllReduceSelector> {
        let n = check_group(group)?;
        // Per node, in first-appearance order: id, member count, and whether
        // every member has NVLink.
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut per_node: Vec<(usize, usize, bool)> = Vec::new();
        let mut min_membw = f64::INFINITY;
        for &id in group {
            let g = self.cluster.gpu(id)?;
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
        let (ring_bw, ring_lat) = self.link_params(ring_link(per_node.len(), all_nvlink));
        let hier = (per_node.len() > 1).then(|| HierTopo {
            nodes: per_node
                .iter()
                .map(|&(_, m, nvlink)| {
                    let (bw, lat) = if m > 1 {
                        self.link_params(ring_link(1, nvlink))
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

    /// Cost of the cheapest AllReduce algorithm — flat ring, hierarchical
    /// two-level ring, or binary tree — which is what an NCCL-style runtime
    /// selects per tensor size and topology. Exactly
    /// [`CommModel::select_allreduce`]'s cost.
    pub fn best_allreduce(&self, group: &[usize], bytes: u64) -> Result<f64> {
        Ok(self.select_allreduce(group, bytes)?.1)
    }

    /// Dispatch on a [`Collective`] kind.
    pub fn collective(&self, kind: Collective, group: &[usize], bytes: u64) -> Result<f64> {
        match kind {
            Collective::AllReduce => self.best_allreduce(group, bytes),
            _ => self.ring(kind, group, bytes),
        }
    }
}

/// α–β cost of `kind` over a flat ring of `n` ranks whose slowest hop has
/// bandwidth `bw` and latency `lat` (for AllReduce, the ring algorithm).
/// The one copy of the ring formulas: [`CommModel`] and
/// [`AllReduceSelector`] both price through it.
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

/// Per-group cost evaluator with the topology precomputed — built by
/// [`CommModel::allreduce_selector`]. Evaluating a payload is pure
/// arithmetic over the cached link parameters, so pricing every bucket of a
/// fusion schedule is O(buckets), not O(buckets × group).
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
    /// Flat-ring cost; bit-identical to [`CommModel::allreduce`].
    pub fn ring(&self, bytes: u64) -> f64 {
        ring_cost(
            Collective::AllReduce,
            self.n,
            self.ring_bw,
            self.ring_lat,
            bytes,
        )
    }

    /// Binary-tree cost; bit-identical to [`CommModel::tree_allreduce`].
    pub fn tree(&self, bytes: u64) -> f64 {
        tree_cost(self.n, self.ring_bw, self.ring_lat, bytes)
    }

    /// Two-level cost: ReduceScatter inside each node (the slowest node
    /// bounds), a ring AllReduce of the largest shard among one leader per
    /// node, then AllGather inside each node. Single-node groups fall back
    /// to the flat ring.
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

    /// Cost under an explicitly chosen algorithm; bit-identical to
    /// [`CommModel::allreduce_with`] for non-empty payloads. Zero-byte
    /// payloads are skipped (cost `0.0`) rather than charged the
    /// algorithm's latency terms: compression rounding can produce empty
    /// buckets, and an empty bucket launches no collective at all.
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

    /// The cheapest algorithm for `bytes`, with
    /// [`CommModel::select_allreduce`]'s tie-break order. Zero-byte
    /// payloads short-circuit to `(Ring, 0.0)` — see [`Self::cost`].
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

    /// Cost of `kind` carrying `bytes` (per rank, as
    /// [`CommModel::collective`] takes them) over this group; bit-identical
    /// to [`CommModel::collective`].
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

    /// Time to quantize a `logical`-byte fp32 gradient down to `wire` bytes
    /// before the collective and dequantize the result back afterwards:
    /// two elementwise passes (read logical + write wire, then read wire +
    /// write logical), memory-bandwidth-bound on the slowest group member.
    /// Zero when nothing is scaled (`wire == logical` charges nothing —
    /// callers gate on the schedule's `wire_scaled()`), on singleton
    /// groups, and on empty payloads.
    pub fn quantize_cost(&self, logical: u64, wire: u64) -> f64 {
        if self.n == 1 || logical == 0 {
            return 0.0;
        }
        quantize_dequantize_cost(logical, wire, self.min_membw)
    }
}

/// Group topologies memoized by group content: each distinct group is
/// validated and walked once, however many collectives, syncs and buckets
/// name it. The planner's comm-optimizer and the simulator keep one per
/// pass or step; every price is bit-identical to [`CommModel`]'s, and the
/// first sight of an invalid group returns [`CommModel::allreduce_selector`]'s
/// error for it.
#[derive(Debug)]
pub struct GroupCache<'c> {
    comm: CommModel<'c>,
    slots: HashMap<Box<[usize]>, usize>,
    groups: Vec<AllReduceSelector>,
}

impl<'c> GroupCache<'c> {
    /// An empty cache over `cluster`.
    pub fn new(cluster: &'c Cluster) -> Self {
        GroupCache {
            comm: CommModel::new(cluster),
            slots: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// Slot of `group`'s topology (see [`GroupCache::get`]), walking the
    /// group on its first sight.
    pub fn slot(&mut self, group: &[usize]) -> Result<usize> {
        if let Some(&slot) = self.slots.get(group) {
            return Ok(slot);
        }
        let topo = self.comm.allreduce_selector(group)?;
        let slot = self.groups.len();
        self.groups.push(topo);
        self.slots.insert(group.into(), slot);
        Ok(slot)
    }

    /// The topology in `slot`.
    pub fn get(&self, slot: usize) -> &AllReduceSelector {
        &self.groups[slot]
    }

    /// `group`'s topology.
    pub fn selector(&mut self, group: &[usize]) -> Result<&AllReduceSelector> {
        let slot = self.slot(group)?;
        Ok(&self.groups[slot])
    }
}

/// Quantize + dequantize wall time for one rank: `2·(logical + wire)` bytes
/// of device-memory traffic at `membw` bytes/s. Shared by the selector and
/// the simulator's legacy (non-bucketed) sync path so both charge the exact
/// same term.
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

    #[test]
    fn single_rank_collectives_are_free() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let m = CommModel::new(&c);
        assert_eq!(m.allreduce(&[0], MB100).unwrap(), 0.0);
        assert_eq!(m.allgather(&[3], MB100).unwrap(), 0.0);
        assert_eq!(m.alltoall(&[5], MB100).unwrap(), 0.0);
    }

    #[test]
    fn empty_or_duplicate_group_rejected() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let m = CommModel::new(&c);
        assert!(m.allreduce(&[], MB100).is_err());
        assert!(m.allreduce(&[0, 0], MB100).is_err());
    }

    #[test]
    fn intra_node_nvlink_beats_cross_node() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let m = CommModel::new(&c);
        let intra = m.allreduce(&[0, 1, 2, 3], MB100).unwrap();
        let cross = m.allreduce(&[0, 1, 8, 9], MB100).unwrap();
        assert!(cross > intra * 5.0, "cross={cross} intra={intra}");
    }

    #[test]
    fn p100_nodes_use_pcie() {
        let c = Cluster::homogeneous(GpuModel::P100_16GB, 1, 8);
        let m = CommModel::new(&c);
        assert_eq!(m.bottleneck_link(&[0, 1, 2, 3]).unwrap(), LinkKind::Pcie);
    }

    #[test]
    fn ring_allreduce_formula() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        let m = CommModel::new(&c);
        let ic = &c.interconnect;
        let t = m.allreduce(&[0, 1, 2, 3], MB100).unwrap();
        let expect = 2.0 * 3.0 / 4.0 * MB100 as f64 / ic.nvlink_bw + 6.0 * ic.nvlink_lat;
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn hierarchical_beats_flat_on_multi_node() {
        // 4 nodes × 8 GPUs: flat 32-way ring is bounded by the network for the
        // whole tensor; hierarchical only moves 1/8 of it across nodes.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 8);
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..32).collect();
        let flat = m.allreduce(&group, MB100).unwrap();
        let hier = m.hierarchical_allreduce(&group, MB100).unwrap();
        assert!(
            hier < flat,
            "hierarchical {hier} should beat flat {flat} across nodes"
        );
        assert_eq!(m.best_allreduce(&group, MB100).unwrap(), hier.min(flat));
    }

    #[test]
    fn hierarchical_on_single_node_equals_flat() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..8).collect();
        assert_eq!(
            m.hierarchical_allreduce(&group, MB100).unwrap(),
            m.allreduce(&group, MB100).unwrap()
        );
    }

    #[test]
    fn allreduce_scales_with_bytes_not_much_with_ranks() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        let m = CommModel::new(&c);
        let t4 = m.allreduce(&[0, 1, 2, 3], MB100).unwrap();
        let t8 = m.allreduce(&(0..8).collect::<Vec<_>>(), MB100).unwrap();
        // Ring AllReduce bandwidth term approaches 2·S/BW; 8 ranks within 17%
        // of 4 ranks.
        assert!(t8 < t4 * 1.2);
        let t_double = m.allreduce(&[0, 1, 2, 3], 2 * MB100).unwrap();
        assert!(t_double > 1.8 * t4);
    }

    #[test]
    fn tree_wins_for_tiny_tensors_ring_for_big() {
        // 64-rank single... use 4 nodes x 8 GPUs over the network where ring
        // latency (2·63 hops) dominates small payloads.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 8, 8);
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..64).collect();
        let tiny = 4 << 10; // 4 KiB
        assert!(
            m.tree_allreduce(&group, tiny).unwrap() < m.allreduce(&group, tiny).unwrap(),
            "tree should win at 4 KiB"
        );
        let big = 256 << 20;
        assert!(
            m.allreduce(&group, big).unwrap() < m.tree_allreduce(&group, big).unwrap(),
            "ring should win at 256 MiB"
        );
        // best_allreduce picks the min of all three.
        let best = m.best_allreduce(&group, tiny).unwrap();
        assert!(best <= m.tree_allreduce(&group, tiny).unwrap());
        assert!(best <= m.hierarchical_allreduce(&group, tiny).unwrap());
    }

    #[test]
    fn singleton_groups_cost_nothing_under_every_algorithm() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
        let m = CommModel::new(&c);
        for algo in [
            AllReduceAlgo::Ring,
            AllReduceAlgo::Tree,
            AllReduceAlgo::Hierarchical,
        ] {
            assert_eq!(m.allreduce_with(algo, &[5], MB100).unwrap(), 0.0);
        }
        let (_, cost) = m.select_allreduce(&[5], MB100).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(m.best_allreduce(&[5], MB100).unwrap(), 0.0);
    }

    #[test]
    fn heterogeneous_intra_and_inter_node_bandwidths_are_distinguished() {
        // Node 0: NVLink V100s; node 1: PCIe P100s. The same 4-rank group
        // costs more on PCIe than on NVLink, and a group spanning both nodes
        // is bounded by the network — strictly slower than either.
        let c = Cluster::parse("1x(8xV100)+1x(8xP100)").unwrap();
        let m = CommModel::new(&c);
        let nvlink = m.allreduce(&[0, 1, 2, 3], MB100).unwrap();
        let pcie = m.allreduce(&[8, 9, 10, 11], MB100).unwrap();
        let cross = m.allreduce(&[0, 1, 8, 9], MB100).unwrap();
        assert!(pcie > nvlink, "pcie={pcie} nvlink={nvlink}");
        assert!(cross > pcie, "cross={cross} pcie={pcie}");
        assert_eq!(m.bottleneck_link(&[8, 9, 10, 11]).unwrap(), LinkKind::Pcie);
        assert_eq!(m.bottleneck_link(&[0, 1, 8, 9]).unwrap(), LinkKind::Network);
    }

    #[test]
    fn ring_tree_crossover_is_monotone_in_payload() {
        // tree − ring cost is strictly increasing in payload on a fixed
        // group (the tree re-sends the whole tensor per level, `2·log2(n)`
        // bandwidth terms vs the ring's ~2), so the selection flips at most
        // once as the payload grows: tree wins small tensors, ring wins big
        // ones, and once the ring wins it wins at every larger payload.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 8, 8);
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..64).collect();
        let mut ring_won = false;
        let mut prev_gap = f64::NEG_INFINITY;
        for shift in 10..30 {
            let bytes = 1u64 << shift; // 1 KiB → 512 MiB
            let ring = m.allreduce(&group, bytes).unwrap();
            let tree = m.tree_allreduce(&group, bytes).unwrap();
            let gap = tree - ring;
            assert!(gap > prev_gap, "gap must grow: {prev_gap} → {gap}");
            prev_gap = gap;
            let (algo, cost) = m.select_allreduce(&group, bytes).unwrap();
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
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..8).collect();
        for bytes in [4u64 << 10, 1 << 20, 256 << 20] {
            assert_eq!(
                m.allreduce_with(AllReduceAlgo::Hierarchical, &group, bytes)
                    .unwrap(),
                m.allreduce_with(AllReduceAlgo::Ring, &group, bytes)
                    .unwrap()
            );
            let (algo, cost) = m.select_allreduce(&group, bytes).unwrap();
            assert_ne!(algo, AllReduceAlgo::Hierarchical);
            assert_eq!(cost, m.best_allreduce(&group, bytes).unwrap());
        }
    }

    #[test]
    fn selection_cost_equals_chosen_algorithm_cost() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 8);
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..32).collect();
        for bytes in [1u64 << 12, 1 << 20, 25 << 20, 512 << 20] {
            let (algo, cost) = m.select_allreduce(&group, bytes).unwrap();
            assert_eq!(cost, m.allreduce_with(algo, &group, bytes).unwrap());
        }
    }

    #[test]
    fn collective_dispatch_matches_direct_calls() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        let m = CommModel::new(&c);
        let g = [0usize, 1, 2, 3];
        assert_eq!(
            m.collective(Collective::AllGather, &g, MB100).unwrap(),
            m.allgather(&g, MB100).unwrap()
        );
        assert_eq!(
            m.collective(Collective::AllToAll, &g, MB100).unwrap(),
            m.alltoall(&g, MB100).unwrap()
        );
        assert_eq!(
            m.collective(Collective::Broadcast, &g, MB100).unwrap(),
            m.broadcast(&g, MB100).unwrap()
        );
        assert_eq!(
            m.collective(Collective::ReduceScatter, &g, MB100).unwrap(),
            m.reduce_scatter(&g, MB100).unwrap()
        );
    }

    #[test]
    fn zero_byte_payloads_skip_pricing() {
        // Compression rounding can empty a fusion bucket; an empty bucket
        // launches no collective, so selection and explicit-algorithm
        // pricing must both return 0 — not the algorithm's latency terms.
        let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let m = CommModel::new(&c);
        let group: Vec<usize> = (0..32).collect();
        let (algo, cost) = m.select_allreduce(&group, 0).unwrap();
        assert_eq!((algo, cost), (AllReduceAlgo::Ring, 0.0));
        assert_eq!(m.best_allreduce(&group, 0).unwrap(), 0.0);
        let sel = m.allreduce_selector(&group).unwrap();
        assert_eq!(sel.select(0), (AllReduceAlgo::Ring, 0.0));
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
        let m = CommModel::new(&c);
        let v100s: Vec<usize> = (0..8).collect();
        let mixed: Vec<usize> = (0..16).collect();
        let (logical, wire) = (100u64 << 20, 50u64 << 20);
        let fast = m
            .allreduce_selector(&v100s)
            .unwrap()
            .quantize_cost(logical, wire);
        let slow = m
            .allreduce_selector(&mixed)
            .unwrap()
            .quantize_cost(logical, wire);
        assert!(
            slow > fast,
            "mixed group must pay the P100 membw: {slow} vs {fast}"
        );
        let p100_bw = GpuModel::P100_16GB.memory_bandwidth();
        let expect = 2.0 * (logical + wire) as f64 / p100_bw;
        assert_eq!(slow, expect);
        assert_eq!(slow, quantize_dequantize_cost(logical, wire, p100_bw));
        // Degenerate cases are free.
        let sel = m.allreduce_selector(&mixed).unwrap();
        assert_eq!(sel.quantize_cost(0, 0), 0.0);
        assert_eq!(
            m.allreduce_selector(&[3])
                .unwrap()
                .quantize_cost(logical, wire),
            0.0
        );
    }

    #[test]
    fn selector_costs_are_bit_identical_to_direct_evaluation() {
        // Heterogeneous multi-node, single-node, and asymmetric-membership
        // groups, across payloads from 1 KB to 1 GB: the precomputed
        // selector must reproduce every direct cost exactly, and pick the
        // same winner.
        let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let m = CommModel::new(&c);
        let groups: Vec<Vec<usize>> = vec![
            (0..32).collect(),           // all four nodes
            (0..8).collect(),            // one NVLink node
            vec![0, 1, 2, 8, 9, 16, 24], // asymmetric membership
            vec![5],                     // singleton
            vec![0, 8, 16, 24],          // one GPU per node
        ];
        for g in &groups {
            let sel = m.allreduce_selector(g).unwrap();
            for shift in [10u64, 16, 20, 24, 27, 30] {
                let bytes = 1u64 << shift;
                assert_eq!(sel.ring(bytes), m.allreduce(g, bytes).unwrap());
                assert_eq!(sel.tree(bytes), m.tree_allreduce(g, bytes).unwrap());
                assert_eq!(
                    sel.hierarchical(bytes),
                    m.hierarchical_allreduce(g, bytes).unwrap()
                );
                for algo in [
                    AllReduceAlgo::Ring,
                    AllReduceAlgo::Tree,
                    AllReduceAlgo::Hierarchical,
                ] {
                    assert_eq!(
                        sel.cost(algo, bytes),
                        m.allreduce_with(algo, g, bytes).unwrap()
                    );
                }
                assert_eq!(sel.select(bytes), m.select_allreduce(g, bytes).unwrap());
            }
        }
    }
}
