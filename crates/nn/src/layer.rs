//! The executable-layer trait.

use crate::Result;
use redeye_tensor::Tensor;

/// An executable network layer.
///
/// This trait is deliberately open (not sealed): the RedEye simulation crate
/// implements it for the paper's Gaussian- and quantization-noise layers and
/// splices them into existing networks.
///
/// # Contract
///
/// - `forward` may mutate internal state (noise layers move on to the next
///   frame's noise; dropout layers sample masks during training).
/// - `seek_frame` positions a frame-keyed layer (a noise layer) so that its
///   next `forward` draws frame `frame`'s noise; other layers ignore it.
/// - `backward` receives the layer's original `input`, its `output`, and the
///   gradient of the loss w.r.t. that output; it returns the gradient w.r.t.
///   the input and *accumulates* parameter gradients internally.
/// - `visit_params` exposes `(weights, accumulated gradients)` pairs to the
///   optimizer; layers without parameters do nothing.
pub trait Layer: Send {
    /// Short, unique layer name (used in traces and error messages).
    fn name(&self) -> &str;

    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::NnError::BadInput`] (or a wrapped
    /// tensor error) when `input` has the wrong shape.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Computes the input gradient given the output gradient, accumulating
    /// parameter gradients internally.
    ///
    /// The default implementation supports stateless, parameter-free layers
    /// that are locally linear (identity gradient); layers with real
    /// backward logic must override it.
    ///
    /// # Errors
    ///
    /// Implementations return an error if shapes are inconsistent with the
    /// preceding `forward` call.
    fn backward(&mut self, input: &Tensor, output: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        let _ = (input, output);
        Ok(grad_out.clone())
    }

    /// Visits `(parameter, gradient)` tensor pairs for the optimizer.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        let _ = visitor;
    }

    /// Clears accumulated parameter gradients. Called once per minibatch.
    fn zero_grads(&mut self) {}

    /// Switches between training and inference behaviour (dropout, etc.).
    fn set_training(&mut self, training: bool) {
        let _ = training;
    }

    /// Sets the GEMM thread budget for this layer's matrix products.
    ///
    /// Layers with no matrix products ignore it. Results are bit-identical
    /// across budgets; this only trades wall-clock for cores. The default
    /// (and the budget every layer starts with) is 1.
    fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Makes the next `forward` draw frame `frame`'s noise, as
    /// `BatchExecutor::seek_frame` does for the analog executor; each
    /// `forward` after it moves on one frame. Layers that draw no noise
    /// ignore it.
    fn seek_frame(&mut self, frame: u64) {
        let _ = frame;
    }
}
