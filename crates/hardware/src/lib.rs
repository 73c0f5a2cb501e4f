//! Hardware substrate for the Whale reproduction.
//!
//! The original system runs on real clusters of mixed NVIDIA GPUs; this crate
//! replaces that hardware with an analytic model carrying exactly the
//! quantities Whale's algorithms consume:
//!
//! * a **GPU catalog** with published peak-FLOPS and memory specs
//!   ([`GpuModel`], [`Gpu`]);
//! * a **cluster topology** of nodes and devices ([`Cluster`], parseable from
//!   compact spec strings such as `"2x(8xV100)+2x(8xP100)"`);
//! * **virtual devices** — the TaskGraph resource abstraction of §3.2
//!   ([`VirtualDevice`], [`slice_cluster`]);
//! * **collective cost models** — ring and hierarchical AllReduce, AllGather,
//!   ReduceScatter, Broadcast, AllToAll ([`CommModel`]).
//!
//! # Examples
//!
//! ```
//! use whale_hardware::{Cluster, CommModel};
//!
//! // Fig. 17's testbed: 8 V100-32GB plus 8 P100-16GB.
//! let cluster = Cluster::parse("8xV100+8xP100").unwrap();
//! assert!(cluster.is_heterogeneous());
//!
//! let comm = CommModel::new(&cluster);
//! let group: Vec<usize> = (0..16).collect();
//! let sync = comm.best_allreduce(&group, 100 << 20).unwrap();
//! assert!(sync > 0.0);
//! ```

pub mod cluster;
pub mod comm;
pub mod delta;
pub mod error;
pub mod fingerprint;
pub mod gpu;
pub mod interconnect;
pub mod virtual_device;

pub use cluster::{Cluster, ClusterBuilder, Node, MAX_GPUS};
pub use comm::{
    quantize_dequantize_cost, AllReduceAlgo, AllReduceSelector, Collective, CommModel, GroupCache,
};
pub use delta::ClusterDelta;
pub use error::{HardwareError, Result};
pub use gpu::{Gpu, GpuModel, GIB, TFLOPS};
pub use interconnect::{Interconnect, LinkKind};
pub use virtual_device::{slice_cluster, validate_partition, SliceStrategy, VirtualDevice};
