//! GPU device catalog.
//!
//! The load-balancing algorithms in the paper (§3.5) consume exactly two
//! per-device quantities: peak single-precision FLOPS (`GF`) and device memory.
//! The catalog below records the published specs for the GPU types named in
//! the paper (V100, P100, P40) plus a few extras used in tests and ablations.

use std::fmt;

/// One teraFLOPS, in FLOP per second.
pub const TFLOPS: f64 = 1e12;
/// One gibibyte, in bytes.
pub const GIB: u64 = 1 << 30;

/// Known GPU models with published specifications.
///
/// The FLOPS numbers are peak single-precision (fp32) throughput, matching the
/// paper's cost model `t = α · MF / GF` which is stated in terms of
/// single-precision FLOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA Tesla V100 with 32 GB HBM2 (15.7 fp32 TFLOPS).
    V100_32GB,
    /// NVIDIA Tesla V100 with 16 GB HBM2 (15.7 fp32 TFLOPS).
    V100_16GB,
    /// NVIDIA Tesla P100 with 16 GB HBM2 (9.3 fp32 TFLOPS, per §3.5).
    P100_16GB,
    /// NVIDIA Tesla P40 with 24 GB GDDR5 (12 fp32 TFLOPS, per §3.5).
    P40,
    /// NVIDIA Tesla T4 with 16 GB GDDR6 (8.1 fp32 TFLOPS).
    T4,
    /// NVIDIA A100 with 40 GB HBM2e (19.5 fp32 TFLOPS).
    A100_40GB,
    /// NVIDIA A100 with 80 GB HBM2e (19.5 fp32 TFLOPS).
    A100_80GB,
}

impl GpuModel {
    /// All catalog entries, useful for enumeration in tests.
    pub const ALL: [GpuModel; 7] = [
        GpuModel::V100_32GB,
        GpuModel::V100_16GB,
        GpuModel::P100_16GB,
        GpuModel::P40,
        GpuModel::T4,
        GpuModel::A100_40GB,
        GpuModel::A100_80GB,
    ];

    /// Peak single-precision throughput in FLOP per second.
    pub fn flops(self) -> f64 {
        match self {
            GpuModel::V100_32GB | GpuModel::V100_16GB => 15.7 * TFLOPS,
            GpuModel::P100_16GB => 9.3 * TFLOPS,
            GpuModel::P40 => 12.0 * TFLOPS,
            GpuModel::T4 => 8.1 * TFLOPS,
            GpuModel::A100_40GB | GpuModel::A100_80GB => 19.5 * TFLOPS,
        }
    }

    /// Device memory capacity in bytes.
    pub fn memory_bytes(self) -> u64 {
        match self {
            GpuModel::V100_32GB => 32 * GIB,
            GpuModel::V100_16GB => 16 * GIB,
            GpuModel::P100_16GB => 16 * GIB,
            GpuModel::P40 => 24 * GIB,
            GpuModel::T4 => 16 * GIB,
            GpuModel::A100_40GB => 40 * GIB,
            GpuModel::A100_80GB => 80 * GIB,
        }
    }

    /// Device-local memory bandwidth in bytes per second.
    ///
    /// Used by the simulator to bound memory-bandwidth-limited ops (e.g.,
    /// elementwise kernels) that do not reach peak FLOPS.
    pub fn memory_bandwidth(self) -> f64 {
        match self {
            GpuModel::V100_32GB | GpuModel::V100_16GB => 900e9,
            GpuModel::P100_16GB => 732e9,
            GpuModel::P40 => 346e9,
            GpuModel::T4 => 300e9,
            GpuModel::A100_40GB => 1_555e9,
            GpuModel::A100_80GB => 2_039e9,
        }
    }

    /// Throughput multiplier under automatic mixed precision.
    ///
    /// Volta/Ampere tensor cores give fp16 matmul a large practical speedup
    /// (≈2.5× end-to-end is typical); Pascal-class GPUs (P100/P40) have no
    /// tensor cores and gain essentially nothing.
    pub fn amp_speedup(self) -> f64 {
        match self {
            GpuModel::V100_32GB | GpuModel::V100_16GB => 2.5,
            GpuModel::A100_40GB | GpuModel::A100_80GB => 2.8,
            GpuModel::T4 => 2.0,
            GpuModel::P100_16GB | GpuModel::P40 => 1.0,
        }
    }

    /// Whether the model supports NVLink (affects intra-node collectives).
    pub fn has_nvlink(self) -> bool {
        matches!(
            self,
            GpuModel::V100_32GB | GpuModel::V100_16GB | GpuModel::A100_40GB | GpuModel::A100_80GB
        )
    }

    /// Parse a short model name as used in cluster-spec strings.
    ///
    /// Accepted names (case-insensitive): `V100`, `V100_32GB`, `V100_16GB`,
    /// `P100`, `P100_16GB`, `P40`, `T4`, `A100`, `A100_40GB`, `A100_80GB`.
    /// Bare `V100` means the 32 GB variant (the one used throughout §5) and
    /// bare `A100` means the 40 GB variant.
    pub fn parse(name: &str) -> Option<GpuModel> {
        match name.to_ascii_uppercase().as_str() {
            "V100" | "V100_32GB" | "V100M32" => Some(GpuModel::V100_32GB),
            "V100_16GB" | "V100M16" => Some(GpuModel::V100_16GB),
            "P100" | "P100_16GB" => Some(GpuModel::P100_16GB),
            "P40" => Some(GpuModel::P40),
            "T4" => Some(GpuModel::T4),
            "A100" | "A100_40GB" => Some(GpuModel::A100_40GB),
            "A100_80GB" => Some(GpuModel::A100_80GB),
            _ => None,
        }
    }

    /// Display name; the cluster fingerprint hashes it without allocating.
    pub(crate) fn name(self) -> &'static str {
        match self {
            GpuModel::V100_32GB => "V100-32GB",
            GpuModel::V100_16GB => "V100-16GB",
            GpuModel::P100_16GB => "P100-16GB",
            GpuModel::P40 => "P40",
            GpuModel::T4 => "T4",
            GpuModel::A100_40GB => "A100-40GB",
            GpuModel::A100_80GB => "A100-80GB",
        }
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A physical GPU instance inside a cluster.
///
/// `id` is globally unique within the [`crate::Cluster`]; `node` is the index
/// of the hosting machine; `local_rank` is the GPU's slot within that machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gpu {
    /// Global device id, dense in `0..cluster.num_gpus()`.
    pub id: usize,
    /// Index of the hosting node.
    pub node: usize,
    /// Slot index within the hosting node.
    pub local_rank: usize,
    /// Hardware model.
    pub model: GpuModel,
    /// Effective-throughput multiplier in `(0, 1]`; below 1 models dynamic
    /// degradation (thermal throttling, a noisy co-tenant). The paper's
    /// motivation for hardware awareness includes exactly this kind of
    /// runtime variability (§2.2).
    pub throughput_scale: f64,
}

impl Gpu {
    /// Effective single-precision FLOPS of this device (peak × scale).
    pub fn flops(&self) -> f64 {
        self.model.flops() * self.throughput_scale
    }

    /// Memory capacity of this device in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.model.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_specs() {
        // §3.5 quotes P100 as 9.3 TFLOPS / (12 GB in the text's example, 16 GB
        // in §5's hardware description — we use the product spec of the
        // P100-16GB since §5 experiments use the 16 GB card) and P40 as
        // 12 TFLOPS / 24 GB.
        assert_eq!(GpuModel::P100_16GB.flops(), 9.3 * TFLOPS);
        assert_eq!(GpuModel::P40.flops(), 12.0 * TFLOPS);
        assert_eq!(GpuModel::P40.memory_bytes(), 24 * GIB);
        assert_eq!(GpuModel::V100_32GB.memory_bytes(), 32 * GIB);
    }

    #[test]
    fn parse_round_trips_common_names() {
        assert_eq!(GpuModel::parse("v100"), Some(GpuModel::V100_32GB));
        assert_eq!(GpuModel::parse("V100M32"), Some(GpuModel::V100_32GB));
        assert_eq!(GpuModel::parse("P100"), Some(GpuModel::P100_16GB));
        assert_eq!(GpuModel::parse("a100_80gb"), Some(GpuModel::A100_80GB));
        assert_eq!(GpuModel::parse("H100"), None);
    }

    #[test]
    fn all_models_have_positive_specs() {
        for m in GpuModel::ALL {
            assert!(m.flops() > 0.0, "{m} flops");
            assert!(m.memory_bytes() > 0, "{m} memory");
            assert!(m.memory_bandwidth() > 0.0, "{m} bandwidth");
        }
    }

    #[test]
    fn v100_is_faster_than_p100() {
        // The premise of §2.2: V100 outruns P100, so DP stalls on P100.
        assert!(GpuModel::V100_32GB.flops() > GpuModel::P100_16GB.flops());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(GpuModel::V100_32GB.to_string(), "V100-32GB");
        assert_eq!(GpuModel::P100_16GB.to_string(), "P100-16GB");
    }
}
