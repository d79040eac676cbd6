//! # RedEye — analog in-sensor ConvNet architecture simulator
//!
//! A from-scratch Rust reproduction of *RedEye: Analog ConvNet Image Sensor
//! Architecture for Continuous Mobile Vision* (LiKamWa et al., ISCA 2016).
//!
//! RedEye moves the early layers of a convolutional network into an image
//! sensor's *analog* domain, ahead of the energy-dominant analog readout,
//! exporting compact low-bit-depth features instead of raw pixels. This
//! workspace rebuilds the entire system described in the paper:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`tensor`] | dense `f32` tensors, matmul, `im2col` |
//! | [`nn`] | mini ConvNet framework: forward, backward, SGD, GoogLeNet/AlexNet zoo |
//! | [`analog`] | behavioral circuit models, one per op: kT/C noise, damping, comparator, SAR ADC, per-frame cost |
//! | [`core`] | the RedEye architecture: programs, compiler, noisy executor, estimators |
//! | [`sim`] | the developer framework: noise injection, accuracy, parameter search |
//! | [`system`] | baselines: image sensor, BLE cloudlet, Jetson TK1, ShiDianNao |
//! | [`dataset`] | synthetic labeled images + raw-sensor input noise |
//!
//! # Quickstart
//!
//! Estimate the paper's headline numbers without running any data:
//!
//! ```
//! use redeye::core::{estimate, Depth, RedEyeConfig};
//! use redeye::system::ImageSensor;
//!
//! let config = RedEyeConfig::default(); // 40 dB, 4-bit ADC
//! let d1 = estimate::estimate_depth(Depth::D1, &config).unwrap();
//! let sensor = ImageSensor::paper_baseline();
//! let reduction = 1.0 - d1.energy.analog_total() / sensor.analog_energy_per_frame();
//! assert!(reduction > 0.8, "≈85% sensor energy reduction");
//! ```
//!
//! Or compile and *run* a trained network's prefix through the analog
//! pipeline — see `examples/quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Dense tensor substrate ([`redeye_tensor`]).
pub use redeye_tensor as tensor;

/// Mini ConvNet framework ([`redeye_nn`]).
pub use redeye_nn as nn;

/// Behavioral analog circuit models ([`redeye_analog`]).
pub use redeye_analog as analog;

/// The RedEye architecture ([`redeye_core`]).
pub use redeye_core as core;

/// Developer simulation framework ([`redeye_sim`]).
pub use redeye_sim as sim;

/// System-level baselines ([`redeye_system`]).
pub use redeye_system as system;

/// Synthetic dataset and sensor input models ([`redeye_dataset`]).
pub use redeye_dataset as dataset;
