//! Content fingerprints for clusters.
//!
//! The plan cache keys on `(model, cluster, config)`; this module contributes
//! the cluster side. The fingerprint covers everything the planner and cost
//! models read from a [`Cluster`]: every GPU's model, topology position and
//! `throughput_scale` (so a degraded device produces a different key than a
//! healthy one), the node grouping, and all interconnect bandwidths and
//! latencies. Positions are not hashed GPU by GPU: they follow from the
//! per-node layout, which is hashed as runs of equal GPUs
//! ([`Cluster::fingerprint`]).

use whale_fp::{Fingerprint, Fingerprinter};

use crate::cluster::Cluster;
use crate::interconnect::Interconnect;

impl Interconnect {
    /// Stable content fingerprint over all bandwidths and latencies.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("interconnect");
        fp.push_f64(self.nvlink_bw)
            .push_f64(self.pcie_bw)
            .push_f64(self.network_bw)
            .push_f64(self.nvlink_lat)
            .push_f64(self.pcie_lat)
            .push_f64(self.network_lat);
        fp.finish()
    }
}

impl Cluster {
    /// Stable content fingerprint over topology, device specs, degradation
    /// state, and fabric.
    ///
    /// Hashes the node count; per node, its GPU count and each maximal run
    /// of GPUs with the same model and `throughput_scale` bits as its
    /// length, model name and scale; then the interconnect. Ids, node
    /// indices and local ranks are positions in that layout (see
    /// [`Cluster`]'s dense-id invariant), so equal clusters hash equally
    /// and clusters that differ in any GPU, position or link hash
    /// differently. A key costs one run per stretch of equal hardware, not
    /// one record per GPU.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("whale-cluster");
        fp.push_len(self.num_nodes());
        // Dense ids in node order: each node's GPUs are the next slice.
        let mut rest = self.gpus();
        for n in self.nodes() {
            let (node, tail) = rest.split_at(n.gpu_ids.len());
            rest = tail;
            fp.push_len(node.len());
            for run in node.chunk_by(|a, b| {
                a.model == b.model && a.throughput_scale.to_bits() == b.throughput_scale.to_bits()
            }) {
                fp.push_len(run.len())
                    .push_str(run[0].model.name())
                    .push_f64(run[0].throughput_scale);
            }
        }
        fp.push_fingerprint(self.interconnect.fingerprint());
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuModel;

    #[test]
    fn same_spec_parsed_twice_hashes_identically() {
        let a = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let b = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn builder_and_parse_agree_when_content_matches() {
        let parsed = Cluster::parse("8xV100").unwrap();
        let built = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        assert_eq!(parsed.fingerprint(), built.fingerprint());
    }

    #[test]
    fn model_change_changes_fingerprint() {
        let a = Cluster::parse("8xV100").unwrap();
        let b = Cluster::parse("8xP100").unwrap();
        let c = Cluster::parse("4xV100").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint(), "gpu model");
        assert_ne!(a.fingerprint(), c.fingerprint(), "gpu count");
    }

    #[test]
    fn degradation_changes_fingerprint() {
        let a = Cluster::parse("8xV100").unwrap();
        let mut b = a.clone();
        b.degrade_gpu(3, 0.5).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Restoring to full throughput restores the original key.
        b.degrade_gpu(3, 1.0).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn interconnect_change_changes_fingerprint() {
        let a = Cluster::parse("8xV100").unwrap();
        let mut b = a.clone();
        b.interconnect = Interconnect::infiniband_100g();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn topology_matters_not_just_census() {
        // Same 16 GPUs, different node grouping.
        let a = Cluster::parse("2x(8xV100)").unwrap();
        let b = Cluster::parse("4x(4xV100)").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
