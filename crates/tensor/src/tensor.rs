//! The owned, row-major `f32` tensor.

use crate::{Rng, Shape, TensorError};
use std::fmt;

/// An owned, dense, row-major tensor of `f32` values.
///
/// `Tensor` is the single data container used throughout the RedEye
/// reproduction: images, feature maps, kernels, gradients, and analog signal
/// planes are all `Tensor`s. Data is stored contiguously in row-major order;
/// the last axis is the fastest-varying.
///
/// # Example
///
/// ```
/// use redeye_tensor::Tensor;
///
/// # fn main() -> Result<(), redeye_tensor::TensorError> {
/// let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3])?;
/// assert_eq!(t.at(&[1, 2])?, 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::from(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with values drawn uniformly from `[lo, hi)`.
    pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.volume()).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with values drawn from `N(mean, std^2)`.
    pub fn gaussian(dims: &[usize], mean: f32, std: f32, rng: &mut Rng) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.volume())
            .map(|_| mean + std * rng.standard_normal())
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data re-interpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Like [`Tensor::reshape`] but consumes `self`, avoiding a copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn into_reshaped(self, dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data, dims)
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterates over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2]);
        assert!(z.iter().all(|&v| v == 0.0));
        let f = Tensor::full(&[3], 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::uniform(&[1000], -1.0, 1.0, &mut rng);
        assert!(t.iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = Rng::seed_from(7);
        let t = Tensor::gaussian(&[20_000], 3.0, 2.0, &mut rng);
        let mean = t.iter().sum::<f32>() / t.len() as f32;
        let var = t.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn debug_preview_truncates() {
        let t = Tensor::zeros(&[100]);
        let text = format!("{t:?}");
        assert!(text.contains('…'));
        assert!(text.len() < 200);
    }
}
