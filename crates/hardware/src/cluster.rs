//! Physical cluster model: nodes of GPUs plus the connecting fabric.
//!
//! §5 of the paper describes nodes with 2/4/8 GPUs of mixed V100-32GB and
//! P100-16GB types. A [`Cluster`] is a flat list of [`Gpu`]s grouped into
//! nodes, and can be built programmatically ([`ClusterBuilder`]) or parsed
//! from a compact spec string ([`Cluster::parse`]).

use crate::error::{HardwareError, Result};
use crate::gpu::{Gpu, GpuModel};
use crate::interconnect::Interconnect;
use std::collections::BTreeMap;

/// Most GPUs a spec given to [`Cluster::parse`] may describe: 2,048 times
/// the paper's largest run (512 GPUs). A larger spec is a
/// [`HardwareError::ParseError`], returned before any node is built, so
/// hostile input costs neither time nor memory.
pub const MAX_GPUS: usize = 1 << 20;

/// One machine hosting several GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node index within the cluster.
    pub index: usize,
    /// Global GPU ids hosted on this node, in local-rank order.
    pub gpu_ids: Vec<usize>,
}

/// A physical GPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    gpus: Vec<Gpu>,
    nodes: Vec<Node>,
    /// Fabric description used by communication cost models.
    pub interconnect: Interconnect,
}

impl Cluster {
    /// Build a homogeneous cluster of `num_nodes` nodes, each hosting
    /// `gpus_per_node` GPUs of the same `model`.
    ///
    /// # Examples
    ///
    /// ```
    /// use whale_hardware::{Cluster, GpuModel};
    /// let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 8);
    /// assert_eq!(c.num_gpus(), 32);
    /// assert_eq!(c.num_nodes(), 4);
    /// ```
    pub fn homogeneous(model: GpuModel, num_nodes: usize, gpus_per_node: usize) -> Cluster {
        let mut b = ClusterBuilder::new();
        for _ in 0..num_nodes {
            b = b.add_node(vec![model; gpus_per_node]);
        }
        b.build()
    }

    /// Parse a compact cluster-spec string.
    ///
    /// Grammar: `spec := group ('+' group)*`, `group := [count 'x' '('] node
    /// [')']` where `node := count 'x' model`. Examples:
    ///
    /// * `"8xV100"` — one node with eight V100-32GB.
    /// * `"2x(8xV100)+2x(8xP100)"` — two 8-V100 nodes plus two 8-P100 nodes.
    /// * `"4xV100+4xP100"` — two nodes: one with four V100, one with four P100.
    ///
    /// A spec of more than [`MAX_GPUS`] GPUs is a parse error.
    ///
    /// # Examples
    ///
    /// ```
    /// use whale_hardware::Cluster;
    /// let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
    /// assert_eq!(c.num_gpus(), 32);
    /// assert_eq!(c.num_nodes(), 4);
    /// ```
    pub fn parse(spec: &str) -> Result<Cluster> {
        // Every group as `(node repeat, per-node model runs)`. Nothing is
        // expanded until the GPU count, taken with checked arithmetic, is
        // known to be at most `MAX_GPUS`.
        let mut groups: Vec<(usize, Vec<(usize, GpuModel)>)> = Vec::new();
        for group in spec.split('+') {
            let group = group.trim();
            if group.is_empty() {
                return Err(HardwareError::ParseError("empty group".into()));
            }
            // `NxM` where M is `(..)` means repeat the node; otherwise it is a
            // single node of N GPUs of the named model.
            if let Some(paren) = group.find("x(") {
                let count: usize = group[..paren]
                    .trim()
                    .parse()
                    .map_err(|_| HardwareError::ParseError(format!("bad count in '{group}'")))?;
                let inner = group[paren + 2..].strip_suffix(')').ok_or_else(|| {
                    HardwareError::ParseError(format!("missing ')' in '{group}'"))
                })?;
                groups.push((count, parse_node(inner)?));
            } else {
                groups.push((1, parse_node(group)?));
            }
        }
        let mut total = 0usize;
        for (count, runs) in &groups {
            total = runs
                .iter()
                .try_fold(0usize, |acc, &(n, _)| acc.checked_add(n))
                .and_then(|per_node| per_node.checked_mul(*count))
                .and_then(|gpus| total.checked_add(gpus))
                .filter(|&t| t <= MAX_GPUS)
                .ok_or_else(|| {
                    HardwareError::ParseError(format!(
                        "cluster spec '{spec}' has more than {MAX_GPUS} GPUs"
                    ))
                })?;
        }
        if total == 0 {
            return Err(HardwareError::ParseError("empty spec".into()));
        }
        let mut b = ClusterBuilder::new();
        for (count, runs) in groups {
            let models: Vec<GpuModel> = runs
                .into_iter()
                .flat_map(|(n, model)| std::iter::repeat_n(model, n))
                .collect();
            for _ in 0..count {
                b = b.add_node(models.clone());
            }
        }
        Ok(b.build())
    }

    /// All GPUs, ordered by global id.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a GPU by global id.
    pub fn gpu(&self, id: usize) -> Result<&Gpu> {
        self.gpus.get(id).ok_or(HardwareError::UnknownDevice(id))
    }

    /// Sum of peak FLOPS over all GPUs.
    pub fn total_flops(&self) -> f64 {
        self.gpus.iter().map(|g| g.flops()).sum()
    }

    /// Whether the cluster mixes more than one GPU model.
    pub fn is_heterogeneous(&self) -> bool {
        self.gpus.windows(2).any(|w| w[0].model != w[1].model)
    }

    /// Mark GPU `id` as degraded to `scale` of its peak throughput.
    ///
    /// Load balancing then treats it like a proportionally slower device —
    /// the dynamic-heterogeneity case of §2.2 where even a "homogeneous"
    /// allocation misbehaves at runtime.
    pub fn degrade_gpu(&mut self, id: usize, scale: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
            return Err(HardwareError::ParseError(format!(
                "degradation scale must be in (0, 1], got {scale}"
            )));
        }
        let n = self.gpus.len();
        let gpu = self
            .gpus
            .get_mut(id)
            .ok_or(HardwareError::UnknownDevice(id.min(n)))?;
        gpu.throughput_scale = scale;
        Ok(())
    }

    /// Count of GPUs per model, ordered by model name.
    pub fn model_census(&self) -> BTreeMap<String, usize> {
        let mut census = BTreeMap::new();
        for g in &self.gpus {
            *census.entry(g.model.to_string()).or_insert(0) += 1;
        }
        census
    }

    /// Extract the sub-cluster spanned by `gpu_ids`: the hosting nodes in
    /// original order (nodes contributing no GPU are dropped) with dense new
    /// global ids, preserving each GPU's model and degradation state plus
    /// the interconnect.
    ///
    /// Because global ids are dense in node order, the renumbering is
    /// order-preserving: the *i*-th smallest selected id becomes new id
    /// *i*. This is how a fleet scheduler carves a job's physical
    /// allocation (a [`VirtualDevice`](crate::virtual_device::VirtualDevice)
    /// over pool ids) into a standalone cluster the planner can compile
    /// against.
    ///
    /// # Examples
    ///
    /// ```
    /// use whale_hardware::Cluster;
    /// let pool = Cluster::parse("2x(4xV100)+1x(4xP100)").unwrap();
    /// let sub = pool.subcluster(&[1, 6, 9]).unwrap();
    /// assert_eq!(sub.num_gpus(), 3);
    /// assert_eq!(sub.num_nodes(), 3);
    /// assert!(sub.is_heterogeneous());
    /// ```
    pub fn subcluster(&self, gpu_ids: &[usize]) -> Result<Cluster> {
        if gpu_ids.is_empty() {
            return Err(HardwareError::EmptyVirtualDevice);
        }
        let mut selected = vec![false; self.gpus.len()];
        for &id in gpu_ids {
            if id >= self.gpus.len() {
                return Err(HardwareError::UnknownDevice(id));
            }
            if selected[id] {
                return Err(HardwareError::InvalidPartition(format!(
                    "GPU {id} selected more than once"
                )));
            }
            selected[id] = true;
        }
        let layout: Vec<Vec<(GpuModel, f64)>> = self
            .nodes
            .iter()
            .map(|n| {
                n.gpu_ids
                    .iter()
                    .filter(|&&g| selected[g])
                    .map(|&g| (self.gpus[g].model, self.gpus[g].throughput_scale))
                    .collect::<Vec<_>>()
            })
            .filter(|node| !node.is_empty())
            .collect();
        let mut b = ClusterBuilder::new().interconnect(self.interconnect.clone());
        for node in &layout {
            b = b.add_node(node.iter().map(|&(m, _)| m).collect());
        }
        let mut sub = b.build();
        for (id, (_, scale)) in layout.into_iter().flatten().enumerate() {
            if scale < 1.0 {
                sub.degrade_gpu(id, scale)?;
            }
        }
        Ok(sub)
    }

    /// The global id a
    /// [`GpuAdded`](crate::delta::ClusterDelta::GpuAdded) delta will assign
    /// to a GPU joining `node`: one past the node's current last GPU, or the
    /// current GPU count when `node == num_nodes()` appends a new node.
    /// Existing ids at or above the returned id shift up by one when the
    /// delta applies — callers holding id sets remap with
    /// [`VirtualDevice::remap_inserted`](crate::virtual_device::VirtualDevice::remap_inserted).
    pub fn insertion_id(&self, node: usize) -> Result<usize> {
        if node > self.nodes.len() {
            return Err(HardwareError::ParseError(format!(
                "cannot add GPU to node {node}: cluster has {} nodes",
                self.nodes.len()
            )));
        }
        if node == self.nodes.len() {
            return Ok(self.gpus.len());
        }
        Ok(self.nodes[node]
            .gpu_ids
            .last()
            .copied()
            .map_or(self.gpus.len(), |last| last + 1))
    }
}

/// One node's GPUs as `(count, model)` runs, in spec order (not expanded).
fn parse_node(s: &str) -> Result<Vec<(usize, GpuModel)>> {
    // `NxMODEL[,NxMODEL...]` — a node may itself mix GPU models.
    let mut runs = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        let (count, name) = match part.split_once('x') {
            Some((c, n)) => (
                c.trim()
                    .parse::<usize>()
                    .map_err(|_| HardwareError::ParseError(format!("bad count in '{part}'")))?,
                n.trim(),
            ),
            None => (1, part),
        };
        let model = GpuModel::parse(name)
            .ok_or_else(|| HardwareError::ParseError(format!("unknown GPU model '{name}'")))?;
        runs.push((count, model));
    }
    if runs.iter().all(|&(count, _)| count == 0) {
        return Err(HardwareError::ParseError(format!("empty node '{s}'")));
    }
    Ok(runs)
}

/// Incremental builder for [`Cluster`].
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    nodes: Vec<Vec<GpuModel>>,
    interconnect: Interconnect,
}

impl ClusterBuilder {
    /// Start an empty builder with the default interconnect.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            interconnect: Interconnect::default(),
        }
    }

    /// Append one node hosting the given GPU models.
    pub fn add_node(mut self, models: Vec<GpuModel>) -> Self {
        self.nodes.push(models);
        self
    }

    /// Override the interconnect description.
    pub fn interconnect(mut self, ic: Interconnect) -> Self {
        self.interconnect = ic;
        self
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalize into a [`Cluster`], assigning dense global GPU ids.
    pub fn build(self) -> Cluster {
        let mut gpus = Vec::new();
        let mut nodes = Vec::new();
        for (node_idx, models) in self.nodes.into_iter().enumerate() {
            let mut gpu_ids = Vec::with_capacity(models.len());
            for (local, model) in models.into_iter().enumerate() {
                let id = gpus.len();
                gpus.push(Gpu {
                    id,
                    node: node_idx,
                    local_rank: local,
                    model,
                    throughput_scale: 1.0,
                });
                gpu_ids.push(id);
            }
            nodes.push(Node {
                index: node_idx,
                gpu_ids,
            });
        }
        Cluster {
            gpus,
            nodes,
            interconnect: self.interconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builder() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 32, 8);
        assert_eq!(c.num_gpus(), 256);
        assert!(!c.is_heterogeneous());
        assert_eq!(c.gpu(255).unwrap().node, 31);
        assert!(c.gpu(256).is_err());
    }

    #[test]
    fn parse_paper_hetero_dp_cluster() {
        // Fig. 17 setup: 8 V100-32GB + 8 P100-16GB.
        let c = Cluster::parse("8xV100+8xP100").unwrap();
        assert_eq!(c.num_gpus(), 16);
        assert_eq!(c.num_nodes(), 2);
        assert!(c.is_heterogeneous());
        let census = c.model_census();
        assert_eq!(census["V100-32GB"], 8);
        assert_eq!(census["P100-16GB"], 8);
    }

    #[test]
    fn parse_repeated_nodes() {
        let c = Cluster::parse("2x(4xV100)+1x(4xP100)").unwrap();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_gpus(), 12);
        assert_eq!(c.nodes()[2].gpu_ids.len(), 4);
        assert_eq!(c.gpu(8).unwrap().model, GpuModel::P100_16GB);
    }

    #[test]
    fn parse_mixed_node() {
        let c = Cluster::parse("2xV100,2xP100").unwrap();
        assert_eq!(c.num_nodes(), 1);
        assert_eq!(c.num_gpus(), 4);
        assert!(c.is_heterogeneous());
    }

    #[test]
    fn parse_refuses_oversized_specs_before_building() {
        // Both used to run until killed: the first adds 10^11 nodes one by
        // one, the second allocates 10^10 GPUs.
        for spec in [
            "99999999999x(8xV100)",
            "100000x(100000xV100)",
            "1x(99999999999999999xV100)",
            "18446744073709551615x(2xV100)",
        ] {
            let err = Cluster::parse(spec).unwrap_err();
            assert!(
                matches!(&err, HardwareError::ParseError(m) if m.contains("more than")),
                "{spec}: {err}"
            );
        }
        // One GPU over the cap is refused (the cap itself is 2,048 times
        // the paper's 512-GPU run).
        assert_eq!(MAX_GPUS, 2048 * 512);
        let at_cap = format!("{}x(1024xV100)", MAX_GPUS / 1024);
        assert!(Cluster::parse(&format!("{at_cap}+1xP100")).is_err());
        // Zero-count groups still add nothing.
        assert!(Cluster::parse("0x(8xV100)").is_err());
        assert_eq!(
            Cluster::parse("0x(8xV100)+0xP100,2xV100")
                .unwrap()
                .num_gpus(),
            2
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cluster::parse("").is_err());
        assert!(Cluster::parse("8xH900").is_err());
        assert!(Cluster::parse("x(4xV100").is_err());
        assert!(Cluster::parse("axV100").is_err());
    }

    #[test]
    fn global_ids_are_dense_and_consistent() {
        let c = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        for (i, g) in c.gpus().iter().enumerate() {
            assert_eq!(g.id, i);
            assert!(c.nodes()[g.node].gpu_ids.contains(&i));
        }
    }

    #[test]
    fn total_flops_sums() {
        let c = Cluster::parse("1xV100+1xP100").unwrap();
        let expect = GpuModel::V100_32GB.flops() + GpuModel::P100_16GB.flops();
        assert!((c.total_flops() - expect).abs() < 1.0);
    }

    #[test]
    fn subcluster_preserves_models_scales_and_interconnect() {
        let mut pool = Cluster::parse("2x(4xV100)+1x(4xP100)").unwrap();
        pool.degrade_gpu(6, 0.5).unwrap();
        let sub = pool.subcluster(&[1, 6, 9]).unwrap();
        assert_eq!(sub.num_gpus(), 3);
        assert_eq!(sub.num_nodes(), 3);
        // Order-preserving renumbering: 1 → 0, 6 → 1, 9 → 2.
        assert_eq!(sub.gpu(0).unwrap().model, GpuModel::V100_32GB);
        assert_eq!(sub.gpu(1).unwrap().throughput_scale, 0.5);
        assert_eq!(sub.gpu(2).unwrap().model, GpuModel::P100_16GB);
        assert_eq!(sub.interconnect, pool.interconnect);
        // Ids arrive unsorted; the result depends only on the set.
        assert_eq!(sub, pool.subcluster(&[9, 1, 6]).unwrap());
    }

    #[test]
    fn subcluster_rejects_bad_selections() {
        let pool = Cluster::parse("4xV100").unwrap();
        assert_eq!(
            pool.subcluster(&[]).unwrap_err(),
            HardwareError::EmptyVirtualDevice
        );
        assert_eq!(
            pool.subcluster(&[0, 7]).unwrap_err(),
            HardwareError::UnknownDevice(7)
        );
        assert!(matches!(
            pool.subcluster(&[1, 1]).unwrap_err(),
            HardwareError::InvalidPartition(_)
        ));
    }

    #[test]
    fn insertion_id_matches_gpu_added_semantics() {
        let pool = Cluster::parse("2xV100+2xP100").unwrap();
        // Joining node 0 lands between the nodes; joining node 1 or a fresh
        // node 2 appends at the end.
        assert_eq!(pool.insertion_id(0).unwrap(), 2);
        assert_eq!(pool.insertion_id(1).unwrap(), 4);
        assert_eq!(pool.insertion_id(2).unwrap(), 4);
        assert!(pool.insertion_id(3).is_err());
        // Cross-check against an applied delta: the GPU really appears at
        // the predicted id.
        for node in 0..=pool.num_nodes() {
            let at = pool.insertion_id(node).unwrap();
            let mut c = pool.clone();
            c.apply_delta(crate::delta::ClusterDelta::GpuAdded {
                node,
                model: GpuModel::T4,
            })
            .unwrap();
            assert_eq!(c.gpu(at).unwrap().model, GpuModel::T4, "node {node}");
        }
    }
}

#[cfg(test)]
mod degradation_tests {
    use super::*;

    #[test]
    fn degraded_gpu_reports_scaled_flops() {
        let mut c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        c.degrade_gpu(2, 0.5).unwrap();
        let full = c.gpu(0).unwrap().flops();
        let half = c.gpu(2).unwrap().flops();
        assert!((half - full / 2.0).abs() < 1.0);
        // Memory is unaffected by throttling.
        assert_eq!(c.gpu(2).unwrap().memory_bytes(), 32 * crate::gpu::GIB);
    }

    #[test]
    fn degrade_validates_inputs() {
        let mut c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 2);
        assert!(c.degrade_gpu(9, 0.5).is_err());
        assert!(c.degrade_gpu(0, 0.0).is_err());
        assert!(c.degrade_gpu(0, 1.5).is_err());
        assert!(c.degrade_gpu(0, 1.0).is_ok());
    }
}
