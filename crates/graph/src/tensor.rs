//! Tensor metadata: shapes and element types.
//!
//! The Whale planner never touches tensor *values*; it needs shapes and byte
//! sizes to reason about bridge layers, communication volume, and activation
//! memory. This module provides exactly that metadata.

use std::fmt;

use crate::inline_list::InlineList;

/// Element types understood by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (the paper's cost model is stated in fp32 FLOP).
    F32,
    /// 16-bit IEEE float (AMP training).
    F16,
    /// bfloat16.
    BF16,
    /// 32-bit signed integer (token ids, masks).
    I32,
    /// 64-bit signed integer.
    I64,
    /// Boolean mask.
    Bool,
}

impl DType {
    /// Bytes per element.
    pub fn size_bytes(self) -> u64 {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 | DType::BF16 => 2,
            DType::I64 => 8,
            DType::Bool => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A dense tensor shape. Dimension 0 is the batch dimension by convention,
/// which is what bridge layers partition and gather along (§3.4). Dims are
/// held inline up to rank four.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(InlineList<usize>);

impl Shape {
    /// Scalar shape.
    pub fn scalar() -> Shape {
        Shape(InlineList::new())
    }

    /// Build from a slice of dimensions.
    pub fn of(dims: &[usize]) -> Shape {
        Shape(InlineList::from_slice(dims))
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for scalars).
    ///
    /// The product wraps instead of overflowing, which a release build's
    /// `product()` does too: it is exact for every output a graph accepts
    /// (its byte size fits `u64`), and zero for any shape with a zero
    /// dimension, however large the others, such as `[2^40, 2^40, 0]`.
    pub fn num_elements(&self) -> u64 {
        self.0.iter().fold(1, |n, &d| n.wrapping_mul(d as u64))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Metadata for a tensor flowing along a graph edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorMeta {
    /// Shape of the tensor.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
}

impl TensorMeta {
    /// Build an fp32 tensor description.
    pub fn f32(dims: &[usize]) -> TensorMeta {
        TensorMeta {
            shape: Shape::of(dims),
            dtype: DType::F32,
        }
    }

    /// Total byte size.
    pub fn size_bytes(&self) -> u64 {
        self.shape.num_elements() * self.dtype.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_counts_and_bytes() {
        let t = TensorMeta::f32(&[32, 512, 1024]);
        assert_eq!(t.shape.num_elements(), 32 * 512 * 1024);
        assert_eq!(t.size_bytes(), 32 * 512 * 1024 * 4);
        assert_eq!(Shape::scalar().num_elements(), 1);
    }

    #[test]
    fn rank_five_shapes_spill_and_keep_their_value_semantics() {
        let dims = [2, 3, 4, 5, 6];
        let shape = Shape::of(&dims);
        assert!(shape.0.spilled());
        assert!(!Shape::of(&dims[..4]).0.spilled());
        assert_eq!(shape.dims(), dims);
        assert_eq!(shape.rank(), 5);
        assert_eq!(shape, Shape::of(&dims));
        assert_ne!(shape, Shape::of(&dims[..4]));
        assert_eq!(format!("{shape:?}"), "Shape([2, 3, 4, 5, 6])");
        assert_eq!(shape.to_string(), "[2, 3, 4, 5, 6]");
        let metas: std::collections::HashSet<TensorMeta> = [
            TensorMeta::f32(&dims),
            TensorMeta::f32(&dims),
            TensorMeta::f32(&dims[..4]),
            TensorMeta::f32(&dims[..4]),
        ]
        .into_iter()
        .collect();
        assert_eq!(metas.len(), 2);
        assert!(metas.contains(&TensorMeta::f32(&dims)));
        assert!(metas.contains(&TensorMeta::f32(&dims[..4])));
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::of(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(DType::BF16.to_string(), "bf16");
    }
}
