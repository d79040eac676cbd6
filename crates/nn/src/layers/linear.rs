//! Fully-connected layer.

use crate::{Layer, NnError, Result, WeightInit};
use redeye_tensor::{gemm_into, PackBuffers, Rng, Tensor};

/// A fully-connected (dense) layer over a flat feature vector, with optional
/// fused rectification.
///
/// Fully-connected layers stay on the digital host in RedEye systems; this
/// implementation exists so the host-side remainder of a partitioned network
/// can run end-to-end in the simulation framework.
#[derive(Debug)]
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    relu: bool,
    /// `(out × in)` weight matrix.
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    /// Reusable GEMM packing scratch (dense layers have no `im2col` stage).
    packs: PackBuffers,
    /// GEMM thread budget (see [`Layer::set_threads`]).
    threads: usize,
}

impl Linear {
    /// Creates a dense layer with freshly initialized weights.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        relu: bool,
        init: WeightInit,
        rng: &mut Rng,
    ) -> Self {
        Linear {
            name: name.into(),
            in_features,
            out_features,
            relu,
            weights: init.sample(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weights: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            packs: PackBuffers::new(),
            threads: 1,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// The `(out × in)` weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.dims() != [self.in_features] {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "expected flat [{}] input, got {:?}",
                    self.in_features,
                    input.dims()
                ),
            });
        }
        Ok(())
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let mut y = vec![0.0f32; self.out_features];
        gemm_into(
            &mut self.packs,
            false,
            false,
            self.weights.as_slice(),
            input.as_slice(),
            &mut y,
            self.out_features,
            1,
            self.in_features,
            self.threads,
        );
        for (v, &b) in y.iter_mut().zip(self.bias.iter()) {
            *v += b;
            if self.relu && *v < 0.0 {
                *v = 0.0;
            }
        }
        Ok(Tensor::from_vec(y, &[self.out_features])?)
    }

    fn backward(&mut self, input: &Tensor, output: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let mut g = grad_out.clone();
        if self.relu {
            for (gv, &ov) in g.iter_mut().zip(output.iter()) {
                if ov <= 0.0 {
                    *gv = 0.0;
                }
            }
        }
        self.grad_bias.add_scaled(&g, 1.0)?;
        // dW = g · xᵀ: a rank-1 outer product, i.e. GEMM with n = in, k = 1.
        let mut dw = vec![0.0f32; self.out_features * self.in_features];
        gemm_into(
            &mut self.packs,
            false,
            false,
            g.as_slice(),
            input.as_slice(),
            &mut dw,
            self.out_features,
            self.in_features,
            1,
            self.threads,
        );
        for (acc, v) in self.grad_weights.as_mut_slice().iter_mut().zip(dw) {
            *acc += v;
        }
        // dx = Wᵀ · g (transpose absorbed by the pack step).
        let mut dx = vec![0.0f32; self.in_features];
        gemm_into(
            &mut self.packs,
            true,
            false,
            self.weights.as_slice(),
            g.as_slice(),
            &mut dx,
            self.in_features,
            1,
            self.out_features,
            self.threads,
        );
        Ok(Tensor::from_vec(dx, &[self.in_features])?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weights, &mut self.grad_weights);
        visitor(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weights.map_in_place(|_| 0.0);
        self.grad_bias.map_in_place(|_| 0.0);
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_affine() {
        let mut rng = Rng::seed_from(1);
        let mut l = Linear::new("fc", 3, 2, false, WeightInit::Constant(1.0), &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn wrong_input_rejected() {
        let mut rng = Rng::seed_from(1);
        let mut l = Linear::new("fc", 3, 2, false, WeightInit::XavierUniform, &mut rng);
        assert!(l.forward(&Tensor::zeros(&[4])).is_err());
        assert!(l.forward(&Tensor::zeros(&[3, 1])).is_err());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(2);
        let mut l = Linear::new("fc", 4, 3, true, WeightInit::XavierUniform, &mut rng);
        let x = Tensor::uniform(&[4], -1.0, 1.0, &mut rng);
        let y = l.forward(&x).unwrap();
        let ones = Tensor::full(&[3], 1.0);
        let dx = l.backward(&x, &y, &ones).unwrap();
        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric =
                (l.forward(&xp).unwrap().sum() - l.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 1e-2,
                "input grad {idx}"
            );
        }
    }
}
