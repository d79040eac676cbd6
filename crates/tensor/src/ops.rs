//! Elementwise operations and reductions on [`Tensor`].

use crate::{Tensor, TensorError};

fn check_same_shape(a: &Tensor, b: &Tensor) -> Result<(), TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    Ok(())
}

impl Tensor {
    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        check_same_shape(self, other)?;
        let data = self.iter().zip(other.iter()).map(|(a, b)| a + b).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        check_same_shape(self, other)?;
        let data = self.iter().zip(other.iter()).map(|(a, b)| a - b).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        check_same_shape(self, other)?;
        let data = self.iter().zip(other.iter()).map(|(a, b)| a * b).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<(), TensorError> {
        check_same_shape(self, other)?;
        for (a, b) in self.iter_mut().zip(other.iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a new tensor with every element multiplied by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|v| v * factor)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.iter_mut() {
            *v = f(*v);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn mean(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.sum() / self.len() as f32)
    }

    /// Largest element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32, TensorError> {
        self.iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |m| m.max(v)))
            })
            .ok_or(TensorError::Empty)
    }

    /// Smallest element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn min(&self) -> Result<f32, TensorError> {
        self.iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |m| m.min(v)))
            })
            .ok_or(TensorError::Empty)
    }

    /// Index of the largest element (first on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        let mut best = 0;
        for (i, &v) in self.iter().enumerate() {
            if v > self.as_slice()[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Indices of the `k` largest elements, in descending value order.
    ///
    /// Returns fewer than `k` indices if the tensor has fewer elements.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            self.as_slice()[b]
                .partial_cmp(&self.as_slice()[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(k);
        order
    }

    /// Mean of squared elements — the signal power used in SNR computations.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn power(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.iter().map(|v| v * v).sum::<f32>() / self.len() as f32)
    }

    /// Root-mean-square deviation from `other`, a convergence metric used by
    /// the analog-vs-digital fidelity tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ and
    /// [`TensorError::Empty`] for empty tensors.
    pub fn rms_error(&self, other: &Tensor) -> Result<f32, TensorError> {
        check_same_shape(self, other)?;
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        let mse = self
            .iter()
            .zip(other.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            / self.len() as f32;
        Ok(mse.sqrt())
    }

    /// Clamps every element into `[lo, hi]`, modeling analog signal clipping
    /// at maximum swing (the paper's rectification mechanism).
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Rectified linear unit: `max(v, 0)` elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(&[1.0, 1.0]);
        let b = t(&[2.0, 4.0]);
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[3.0, -1.0, 2.0]);
        assert_eq!(a.sum(), 4.0);
        assert!((a.mean().unwrap() - 4.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max().unwrap(), 3.0);
        assert_eq!(a.min().unwrap(), -1.0);
        assert_eq!(a.argmax().unwrap(), 0);
    }

    #[test]
    fn empty_reductions_error() {
        let e = Tensor::zeros(&[0]);
        assert!(e.mean().is_err());
        assert!(e.max().is_err());
        assert!(e.argmax().is_err());
        assert!(e.power().is_err());
    }

    #[test]
    fn top_k_descending() {
        let a = t(&[0.1, 0.9, 0.5, 0.7]);
        assert_eq!(a.top_k(3), vec![1, 3, 2]);
        assert_eq!(a.top_k(10).len(), 4);
    }

    #[test]
    fn power_and_rms() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.power().unwrap(), 12.5);
        let b = t(&[0.0, 0.0]);
        assert!((a.rms_error(&b).unwrap() - 12.5f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.rms_error(&a).unwrap(), 0.0);
    }

    #[test]
    fn clamp_and_relu() {
        let a = t(&[-2.0, 0.5, 3.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.5, 3.0]);
    }

    #[test]
    fn map_preserves_shape() {
        let a = Tensor::zeros(&[2, 3, 4]);
        let m = a.map(|v| v + 1.0);
        assert_eq!(m.dims(), &[2, 3, 4]);
        assert!(m.iter().all(|&v| v == 1.0));
    }
}
