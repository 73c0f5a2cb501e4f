//! Virtual devices: the resource abstraction assigned to TaskGraphs (§3.2).
//!
//! A [`VirtualDevice`] is an ordered set of physical GPU ids. The paper's
//! `cluster()` primitive slices the physical cluster into virtual devices and
//! assigns the *i*-th virtual device to the *i*-th TaskGraph; the number of
//! GPUs in the virtual device then determines the parallelism degree of that
//! TaskGraph's strategy (§3.4).

use crate::cluster::Cluster;
use crate::error::{HardwareError, Result};

/// An ordered, non-empty set of physical GPUs assigned to one TaskGraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualDevice {
    gpu_ids: Vec<usize>,
}

impl VirtualDevice {
    /// Build from an explicit GPU-id list.
    ///
    /// Fails with [`HardwareError::EmptyVirtualDevice`] on an empty list.
    pub fn new(gpu_ids: Vec<usize>) -> Result<VirtualDevice> {
        if gpu_ids.is_empty() {
            return Err(HardwareError::EmptyVirtualDevice);
        }
        Ok(VirtualDevice { gpu_ids })
    }

    /// GPU ids in this virtual device.
    pub fn gpu_ids(&self) -> &[usize] {
        &self.gpu_ids
    }

    /// Number of physical GPUs — the parallelism degree it implies.
    pub fn num_gpus(&self) -> usize {
        self.gpu_ids.len()
    }

    /// Whether the device contains GPU `id`.
    pub fn contains(&self, id: usize) -> bool {
        self.gpu_ids.contains(&id)
    }

    /// Rewrite member ids after the cluster removed GPU `removed` and
    /// renumbered to keep ids dense (ids above `removed` shift down by
    /// one). Returns `None` when the device contained only the removed GPU
    /// — the binding is gone and its owner must reacquire capacity.
    ///
    /// Mirrors [`ClusterDelta::GpuRemoved`](crate::delta::ClusterDelta::GpuRemoved)
    /// renumbering exactly, so a binding stays valid across any legal
    /// removal sequence (see `tests/virtual_churn.rs`).
    pub fn remap_removed(&self, removed: usize) -> Option<VirtualDevice> {
        let gpu_ids: Vec<usize> = self
            .gpu_ids
            .iter()
            .filter(|&&id| id != removed)
            .map(|&id| if id > removed { id - 1 } else { id })
            .collect();
        if gpu_ids.is_empty() {
            None
        } else {
            Some(VirtualDevice { gpu_ids })
        }
    }

    /// Rewrite member ids after the cluster inserted a GPU at global id
    /// `inserted` (existing ids at or above it shift up by one; the new GPU
    /// is not a member). `inserted` comes from
    /// [`Cluster::insertion_id`] evaluated *before* the
    /// [`ClusterDelta::GpuAdded`](crate::delta::ClusterDelta::GpuAdded)
    /// delta applies.
    pub fn remap_inserted(&self, inserted: usize) -> VirtualDevice {
        VirtualDevice {
            gpu_ids: self
                .gpu_ids
                .iter()
                .map(|&id| if id >= inserted { id + 1 } else { id })
                .collect(),
        }
    }
}

/// Strategies for slicing a cluster into virtual devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStrategy {
    /// Equal-sized contiguous chunks in global-id order.
    EvenContiguous,
    /// One virtual device per node.
    PerNode,
    /// One virtual device per GPU.
    PerGpu,
}

/// Slice `cluster` into `parts` virtual devices using `strategy`.
///
/// `parts` is ignored for [`SliceStrategy::PerNode`] / [`SliceStrategy::PerGpu`].
///
/// # Examples
///
/// ```
/// use whale_hardware::{Cluster, GpuModel, slice_cluster, SliceStrategy};
/// let c = Cluster::homogeneous(GpuModel::V100_32GB, 2, 8);
/// let vds = slice_cluster(&c, 4, SliceStrategy::EvenContiguous).unwrap();
/// assert_eq!(vds.len(), 4);
/// assert!(vds.iter().all(|vd| vd.num_gpus() == 4));
/// ```
pub fn slice_cluster(
    cluster: &Cluster,
    parts: usize,
    strategy: SliceStrategy,
) -> Result<Vec<VirtualDevice>> {
    match strategy {
        SliceStrategy::EvenContiguous => {
            let n = cluster.num_gpus();
            if parts == 0 || !n.is_multiple_of(parts) {
                return Err(HardwareError::InvalidPartition(format!(
                    "{n} GPUs cannot be evenly sliced into {parts} virtual devices"
                )));
            }
            let chunk = n / parts;
            (0..parts)
                .map(|i| VirtualDevice::new((i * chunk..(i + 1) * chunk).collect()))
                .collect()
        }
        SliceStrategy::PerNode => cluster
            .nodes()
            .iter()
            .map(|node| VirtualDevice::new(node.gpu_ids.clone()))
            .collect(),
        SliceStrategy::PerGpu => (0..cluster.num_gpus())
            .map(|i| VirtualDevice::new(vec![i]))
            .collect(),
    }
}

/// Validate that `vds` form an exact partition of `cluster` (every GPU in
/// exactly one virtual device).
pub fn validate_partition(cluster: &Cluster, vds: &[VirtualDevice]) -> Result<()> {
    let mut seen = vec![false; cluster.num_gpus()];
    for vd in vds {
        for &id in vd.gpu_ids() {
            if id >= seen.len() {
                return Err(HardwareError::UnknownDevice(id));
            }
            if seen[id] {
                return Err(HardwareError::InvalidPartition(format!(
                    "GPU {id} appears in more than one virtual device"
                )));
            }
            seen[id] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(HardwareError::InvalidPartition(format!(
            "GPU {missing} is not covered by any virtual device"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuModel;

    #[test]
    fn empty_vd_rejected() {
        assert_eq!(
            VirtualDevice::new(vec![]).unwrap_err(),
            HardwareError::EmptyVirtualDevice
        );
    }

    #[test]
    fn slice_per_node_matches_fig6() {
        // Fig. 6(b): four nodes of four GPUs → four virtual devices.
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 4, 4);
        let vds = slice_cluster(&c, 0, SliceStrategy::PerNode).unwrap();
        assert_eq!(vds.len(), 4);
        validate_partition(&c, &vds).unwrap();
    }

    #[test]
    fn uneven_slice_rejected() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 8);
        assert!(slice_cluster(&c, 3, SliceStrategy::EvenContiguous).is_err());
        assert!(slice_cluster(&c, 0, SliceStrategy::EvenContiguous).is_err());
    }

    #[test]
    fn validate_detects_overlap_and_gap() {
        let c = Cluster::homogeneous(GpuModel::V100_32GB, 1, 4);
        let overlap = vec![
            VirtualDevice::new(vec![0, 1]).unwrap(),
            VirtualDevice::new(vec![1, 2, 3]).unwrap(),
        ];
        assert!(validate_partition(&c, &overlap).is_err());
        let gap = vec![VirtualDevice::new(vec![0, 1, 2]).unwrap()];
        assert!(validate_partition(&c, &gap).is_err());
    }

    #[test]
    fn remap_removed_shifts_drops_and_empties() {
        let vd = VirtualDevice::new(vec![1, 3, 5]).unwrap();
        // A non-member below shifts members above it down.
        assert_eq!(vd.remap_removed(2).unwrap().gpu_ids(), &[1, 2, 4]);
        // A member is dropped and the rest shift.
        assert_eq!(vd.remap_removed(3).unwrap().gpu_ids(), &[1, 4]);
        // A non-member above leaves everything alone.
        assert_eq!(vd.remap_removed(7).unwrap().gpu_ids(), &[1, 3, 5]);
        // Losing the only member dissolves the binding.
        let solo = VirtualDevice::new(vec![4]).unwrap();
        assert!(solo.remap_removed(4).is_none());
    }

    #[test]
    fn remap_inserted_shifts_at_and_above() {
        let vd = VirtualDevice::new(vec![1, 3, 5]).unwrap();
        assert_eq!(vd.remap_inserted(3).gpu_ids(), &[1, 4, 6]);
        assert_eq!(vd.remap_inserted(0).gpu_ids(), &[2, 4, 6]);
        assert_eq!(vd.remap_inserted(6).gpu_ids(), &[1, 3, 5]);
        assert!(vd.contains(3) && !vd.contains(2));
    }
}
