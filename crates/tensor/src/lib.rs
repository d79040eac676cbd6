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

// `deny` rather than `forbid`: the AVX-512 VNNI microkernel in `gemm_i8`
// carries the crate's single, narrowly-scoped `#[allow(unsafe_code)]` at its
// cfg-guarded dispatch call, where the target features are statically
// guaranteed by the build configuration.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gemm;
mod gemm_i8;
mod linalg;
mod noise_stream;
mod ops;
pub mod par;
mod rng;
mod shape;
mod simd;
mod tensor;
mod workspace;

pub use conv::{col2im, col2im_into, im2col, im2col_into, ConvGeom, PoolGeom, RoundMode};
pub use error::TensorError;
pub use gemm::{
    conv_gemm_into, conv_gemm_packed_into, gemm, gemm_into, gemm_into_level, PackedWeights,
};
pub use gemm_i8::gemm_i8_into;
pub use linalg::{matmul, matmul_naive, matmul_transpose_a, matmul_transpose_b};
pub use noise_stream::{box_muller_angle, box_muller_radius, NoiseSource, NoiseStream, SiteRng};
pub use rng::Rng;
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::Tensor;
pub use workspace::{PackBuffers, PackBuffersI8, Workspace, WorkspaceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
