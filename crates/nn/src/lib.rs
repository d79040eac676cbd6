//! A minimal, self-contained ConvNet framework for the RedEye reproduction.
//!
//! The RedEye paper built its simulation framework by patching Caffe; this
//! crate is the equivalent substrate written from scratch in Rust. It
//! provides:
//!
//! - **Declarative network specs** ([`LayerSpec`], [`NetworkSpec`]) with exact
//!   shape/op-count propagation ([`summarize`]) — used by the energy model,
//!   which needs GoogLeNet's precise geometry but not its weights;
//! - **Executable networks** ([`Network`]) with forward inference, full
//!   backpropagation, and an SGD trainer ([`train`]) — used to obtain trained
//!   weights for the noise-vs-accuracy experiments (we have no pre-trained
//!   ImageNet weights, so we train our own networks on a synthetic task);
//! - An open [`Layer`] trait so the simulation crate can inject the paper's
//!   Gaussian- and quantization-noise layers into any network;
//! - A **model zoo** ([`zoo`]) with the GoogLeNet and AlexNet topologies the
//!   paper evaluates, plus small trainable networks for functional runs.
//!
//! # Example
//!
//! ```
//! use redeye_nn::{zoo, summarize};
//!
//! let spec = zoo::googlenet();
//! let summary = summarize(&spec).unwrap();
//! // GoogLeNet conv1 over a 227x227 frame produces a 64x114x114 plane.
//! assert_eq!(summary.layers[0].out_shape, vec![64, 114, 114]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod error;
mod graph;
mod init;
mod layer;
pub mod layers;
mod loss;
mod op;
mod quant;
mod spec;
mod stats;
pub mod train;
pub mod zoo;

pub use build::build_network;
pub use error::NnError;
pub use graph::{Network, Node, Trace};
pub use init::WeightInit;
pub use layer::Layer;
pub use loss::{cross_entropy_from_logits, softmax, SoftmaxCrossEntropy};
pub use op::{AnalogOp, OpCounts};
pub use quant::{
    dequantize_symmetric, quantize_network_weights, quantize_symmetric, QuantizedWeights,
};
pub use spec::{LayerSpec, NetworkSpec};
pub use stats::{summarize, LayerStats, NetworkSummary, PrefixTotals};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
