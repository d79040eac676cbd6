//! Tensor shapes and row-major stride arithmetic.

use crate::TensorError;
use std::fmt;

/// The extents of a tensor along each axis, in row-major order.
///
/// A `Shape` is an immutable list of dimension sizes. RedEye tensors use the
/// `CHW` convention for images (channels, height, width) and `NCHW` for
/// batches, so `Shape::from(&[3, 227, 227])` is a color frame.
///
/// # Example
///
/// ```
/// use redeye_tensor::Shape;
///
/// let s = Shape::new(vec![3, 227, 227]);
/// assert_eq!(s.volume(), 3 * 227 * 227);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dims; 1 for a scalar).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size along axis `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::RankMismatch {
                expected: axis + 1,
                actual: self.rank(),
            })
    }

    /// Row-major strides (elements to skip per unit step along each axis).
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs or
    /// any coordinate exceeds its extent.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() || index.iter().zip(&self.dims).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(Shape::new(vec![]).volume(), 1);
        assert_eq!(Shape::new(vec![]).rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![4]).strides(), vec![1]);
        assert_eq!(Shape::new(vec![2, 5]).strides(), vec![5, 1]);
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < 24);
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn offset_rejects_bad_index() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn display_uses_x_separator() {
        assert_eq!(Shape::new(vec![3, 227, 227]).to_string(), "[3x227x227]");
        assert_eq!(Shape::new(vec![]).to_string(), "[]");
    }

    #[test]
    fn zero_dim_gives_zero_volume() {
        assert_eq!(Shape::new(vec![3, 0, 7]).volume(), 0);
    }
}
