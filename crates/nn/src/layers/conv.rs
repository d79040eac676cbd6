//! 2-D convolution with optional fused rectification.

use crate::{Layer, NnError, Result, WeightInit};
use redeye_tensor::{
    col2im_into, conv_gemm_into, gemm_into, im2col_into, ConvGeom, Rng, Tensor, Workspace,
};

/// A 2-D convolution layer (`C×H×W` → `out_c×H'×W'`), optionally fused with a
/// ReLU, matching RedEye's convolutional module which rectifies by clipping
/// at maximum signal swing.
///
/// Weights are stored in the `im2col` layout: a `(out_c × patch_len)` matrix
/// where `patch_len = in_c·k·k`, plus a bias vector of length `out_c`.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geom: ConvGeom,
    out_c: usize,
    relu: bool,
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    /// Reusable `im2col`/GEMM-packing scratch; grows to the layer's
    /// steady-state high-water mark on the first forward pass and is never
    /// reallocated afterwards.
    ws: Workspace,
    /// GEMM thread budget for this layer's products (see [`Layer::set_threads`]).
    threads: usize,
}

impl Conv2d {
    /// Creates a convolution layer with freshly initialized weights.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the kernel/stride/pad are inconsistent
    /// with the input shape.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_shape: [usize; 3],
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        relu: bool,
        init: WeightInit,
        rng: &mut Rng,
    ) -> Result<Self> {
        let [c, h, w] = in_shape;
        let geom = ConvGeom::new(c, h, w, kernel, kernel, stride, pad)?;
        let patch = geom.patch_len();
        let weights = init.sample(&[out_c, patch], patch, rng);
        Ok(Conv2d {
            name: name.into(),
            geom,
            out_c,
            relu,
            weights,
            bias: Tensor::zeros(&[out_c]),
            grad_weights: Tensor::zeros(&[out_c, patch]),
            grad_bias: Tensor::zeros(&[out_c]),
            ws: Workspace::new(),
            threads: 1,
        })
    }

    /// Output channel count.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// Output shape `[out_c, out_h, out_w]`.
    pub fn out_shape(&self) -> [usize; 3] {
        [self.out_c, self.geom.out_h(), self.geom.out_w()]
    }

    /// The weight matrix in `(out_c × patch_len)` layout.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        let expect = [self.geom.in_c(), self.geom.in_h(), self.geom.in_w()];
        if input.dims() != expect {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("expected {expect:?}, got {:?}", input.dims()),
            });
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let positions = self.geom.out_positions();
        // Implicit-GEMM: the engine's B packer copies receptive-field taps
        // from one padded copy of the C×H×W input, so no im2col matrix is
        // staged and at steady state the only per-call allocation is the
        // returned output tensor itself. Bit-identical to the im2col
        // lowering.
        let mut out = vec![0.0f32; self.out_c * positions];
        conv_gemm_into(
            self.ws.packs_mut(),
            self.weights.as_slice(),
            input.as_slice(),
            &self.geom,
            &mut out,
            self.out_c,
            self.threads,
        );
        for oc in 0..self.out_c {
            let b = self.bias.as_slice()[oc];
            for v in &mut out[oc * positions..(oc + 1) * positions] {
                *v += b;
                if self.relu && *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[self.out_c, self.geom.out_h(), self.geom.out_w()],
        )?)
    }

    fn backward(&mut self, input: &Tensor, output: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let positions = self.geom.out_positions();
        let patch = self.geom.patch_len();
        // Gate the gradient through the fused ReLU using the saved output.
        let mut g = grad_out.reshape(&[self.out_c, positions])?;
        if self.relu {
            for (gv, &ov) in g.iter_mut().zip(output.iter()) {
                if ov <= 0.0 {
                    *gv = 0.0;
                }
            }
        }
        // Bias gradient: row sums.
        for oc in 0..self.out_c {
            let row_sum: f32 = g.as_slice()[oc * positions..(oc + 1) * positions]
                .iter()
                .sum();
            self.grad_bias.as_mut_slice()[oc] += row_sum;
        }
        let (cols, dcols, packs) = self.ws.split_backward();
        im2col_into(input, &self.geom, cols)?;
        // Weight gradient: g · colsᵀ (transpose absorbed by the pack step).
        let mut dw = vec![0.0f32; self.out_c * patch];
        gemm_into(
            packs,
            false,
            true,
            g.as_slice(),
            cols,
            &mut dw,
            self.out_c,
            patch,
            positions,
            self.threads,
        );
        for (acc, v) in self.grad_weights.as_mut_slice().iter_mut().zip(dw) {
            *acc += v;
        }
        // Input gradient: col2im(Wᵀ · g), staged entirely in workspace
        // arenas — the only per-call allocation is the returned tensor.
        if dcols.len() < patch * positions {
            dcols.resize(patch * positions, 0.0);
        }
        gemm_into(
            packs,
            true,
            false,
            self.weights.as_slice(),
            g.as_slice(),
            &mut dcols[..patch * positions],
            patch,
            positions,
            self.out_c,
            self.threads,
        );
        let mut dx = Vec::new();
        col2im_into(
            &dcols[..patch * positions],
            &[patch, positions],
            &self.geom,
            &mut dx,
        )?;
        Ok(Tensor::from_vec(
            dx,
            &[self.geom.in_c(), self.geom.in_h(), self.geom.in_w()],
        )?)
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

    fn layer(relu: bool) -> Conv2d {
        let mut rng = Rng::seed_from(5);
        Conv2d::new(
            "c",
            [2, 5, 5],
            3,
            3,
            1,
            1,
            relu,
            WeightInit::XavierUniform,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn forward_shape() {
        let mut l = layer(false);
        let x = Tensor::full(&[2, 5, 5], 0.1);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[3, 5, 5]);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut l = layer(false);
        assert!(l.forward(&Tensor::zeros(&[2, 4, 5])).is_err());
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let mut l = layer(true);
        let mut rng = Rng::seed_from(6);
        let x = Tensor::uniform(&[2, 5, 5], -1.0, 1.0, &mut rng);
        let y = l.forward(&x).unwrap();
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    /// Numerically checks the full backward pass against finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(7);
        let mut l = Conv2d::new(
            "c",
            [2, 4, 4],
            2,
            3,
            1,
            1,
            false,
            WeightInit::XavierUniform,
            &mut rng,
        )
        .unwrap();
        let x = Tensor::uniform(&[2, 4, 4], -1.0, 1.0, &mut rng);
        // Loss = sum(output): grad_out is all-ones.
        let y = l.forward(&x).unwrap();
        let ones = Tensor::full(y.dims(), 1.0);
        let dx = l.backward(&x, &y, &ones).unwrap();

        let eps = 1e-2f32;
        // Check a few input coordinates.
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = l.forward(&xp).unwrap().sum();
            let fm = l.forward(&xm).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Check a few weight coordinates.
        let mut grads = Vec::new();
        l.visit_params(&mut |_, g| grads.push(g.clone()));
        let wgrad = grads[0].clone();
        for idx in [0usize, 5, 17] {
            let orig = l.weights.as_slice()[idx];
            l.weights.as_mut_slice()[idx] = orig + eps;
            let fp = l.forward(&x).unwrap().sum();
            l.weights.as_mut_slice()[idx] = orig - eps;
            let fm = l.forward(&x).unwrap().sum();
            l.weights.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = wgrad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight grad at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// The acceptance test for the workspace refactor: once the first
    /// forward pass has grown the `im2col`/packing scratch to its high-water
    /// mark, later passes must not move or regrow any buffer — i.e. the hot
    /// path performs zero per-call heap allocations for that scratch.
    #[test]
    fn workspace_buffers_stable_at_steady_state() {
        let mut l = layer(true);
        let mut rng = Rng::seed_from(11);
        let x = Tensor::uniform(&[2, 5, 5], -1.0, 1.0, &mut rng);
        let y = l.forward(&x).unwrap();
        let g = Tensor::full(y.dims(), 0.5);
        l.backward(&x, &y, &g).unwrap();
        let baseline = l.ws.stats();
        for _ in 0..4 {
            let y = l.forward(&x).unwrap();
            let g = Tensor::full(y.dims(), 0.5);
            l.backward(&x, &y, &g).unwrap();
            assert_eq!(l.ws.stats(), baseline, "workspace moved or regrew");
        }
    }

    /// The implicit-GEMM forward must equal the explicit `im2col` + GEMM
    /// lowering bit-for-bit — the layer-level face of the packer-identity
    /// argument in the tensor crate.
    #[test]
    fn implicit_forward_matches_explicit_lowering_bitwise() {
        let mut l = layer(false);
        let mut rng = Rng::seed_from(21);
        let x = Tensor::uniform(&[2, 5, 5], -1.0, 1.0, &mut rng);
        let got = l.forward(&x).unwrap();

        let positions = l.geom.out_positions();
        let patch = l.geom.patch_len();
        let mut ws = Workspace::new();
        let (cols, packs) = ws.split_im2col_packs();
        im2col_into(&x, &l.geom, cols).unwrap();
        let mut want = vec![0.0f32; l.out_c * positions];
        gemm_into(
            packs,
            false,
            false,
            l.weights.as_slice(),
            cols,
            &mut want,
            l.out_c,
            positions,
            patch,
            1,
        );
        for (oc, w) in want.chunks_mut(positions).enumerate() {
            let b = l.bias.as_slice()[oc];
            for v in w {
                *v += b;
            }
        }
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn threaded_forward_matches_serial() {
        let mut l = layer(false);
        let mut rng = Rng::seed_from(12);
        let x = Tensor::uniform(&[2, 5, 5], -1.0, 1.0, &mut rng);
        let serial = l.forward(&x).unwrap();
        l.set_threads(4);
        let threaded = l.forward(&x).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut l = layer(false);
        let x = Tensor::full(&[2, 5, 5], 0.5);
        let y = l.forward(&x).unwrap();
        let g = Tensor::full(y.dims(), 1.0);
        l.backward(&x, &y, &g).unwrap();
        let mut sum_before = 0.0;
        l.visit_params(&mut |_, grad| sum_before += grad.iter().map(|v| v.abs()).sum::<f32>());
        assert!(sum_before > 0.0);
        l.zero_grads();
        let mut sum_after = 0.0;
        l.visit_params(&mut |_, grad| sum_after += grad.iter().map(|v| v.abs()).sum::<f32>());
        assert_eq!(sum_after, 0.0);
    }
}
