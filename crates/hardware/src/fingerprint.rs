//! Content fingerprints for clusters.
//!
//! The plan cache keys on `(model, cluster, config)`; this module contributes
//! the cluster side. The fingerprint covers everything the planner and cost
//! models read from a [`Cluster`]: every GPU's model, topology position and
//! `throughput_scale` (so a degraded device produces a different key than a
//! healthy one), the node grouping, and all interconnect bandwidths and
//! latencies.

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
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new("whale-cluster");
        fp.push_len(self.num_gpus());
        for g in self.gpus() {
            fp.push_usize(g.id)
                .push_usize(g.node)
                .push_usize(g.local_rank)
                .push_str(g.model.name())
                .push_f64(g.throughput_scale);
        }
        fp.push_len(self.num_nodes());
        for n in self.nodes() {
            fp.push_usize(n.index).push_len(n.gpu_ids.len());
            for &id in &n.gpu_ids {
                fp.push_usize(id);
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
