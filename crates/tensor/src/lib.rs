//! Dense `f32` tensor substrate for the RedEye simulator.
//!
//! This crate provides the numeric foundation that every other RedEye crate
//! builds on: an owned, row-major, dynamically-shaped [`Tensor`] of `f32`
//! values, together with the linear-algebra and convolution primitives
//! (`matmul`, `im2col`, pooling windows) that a ConvNet framework needs.
//!
//! The crate is deliberately small and dependency-light. It is *not* a
//! general-purpose array library: it implements exactly the operations the
//! RedEye reproduction exercises, each with careful shape validation and a
//! meaningful error type.
//!
//! # Example
//!
//! ```
//! use redeye_tensor::Tensor;
//!
//! # fn main() -> Result<(), redeye_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::full(&[2, 2], 0.5);
//! let sum = a.add(&b)?;
//! assert_eq!(sum.as_slice(), &[1.5, 2.5, 3.5, 4.5]);
//! # Ok(())
//! # }
//! ```

// The GEMM microkernel is plain Rust that the compiler vectorizes for the
// build target, so no module needs intrinsics or `unsafe`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gemm;
mod linalg;
pub mod math;
mod noise_stream;
mod ops;
pub mod par;
mod rng;
mod shape;
mod tensor;
mod workspace;

pub use conv::{col2im, col2im_into, im2col, im2col_into, ConvGeom, PoolGeom};
pub use error::TensorError;
pub use gemm::{conv_gemm_into, conv_gemm_packed_into, gemm, gemm_into, PackedWeights, SimdLevel};
pub use linalg::{matmul, matmul_naive, matmul_transpose_a, matmul_transpose_b};
pub use noise_stream::{
    box_muller_angle, box_muller_radius, NoiseSource, NoiseStream, SiteRng, LANES,
};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{PackBuffers, Workspace, WorkspaceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
