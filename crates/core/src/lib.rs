//! The RedEye analog in-sensor ConvNet architecture.
//!
//! This crate implements the paper's primary contribution: an image-sensor
//! architecture that executes the early layers of a ConvNet *in the analog
//! domain*, before the costly analog readout, exporting low-bit-depth
//! digital features instead of raw pixels (§III).
//!
//! The pieces map one-to-one onto the paper:
//!
//! - [`Program`] / [`Instruction`] — the **ConvNet programming interface**
//!   (§III-C): layer ordering, dimensions, 8-bit kernel weights, and per-layer
//!   noise parameters, loaded into the program SRAM.
//! - [`compile()`](compile()) — turns a partitioned [`redeye_nn::NetworkSpec`] prefix plus
//!   trained weights into a RedEye program, quantizing kernels to the 8-bit
//!   tunable-capacitor codes of §IV-A.
//! - [`BatchExecutor`] — the **functional noisy executor**: runs a
//!   numbered stream of real images through the program using the
//!   `redeye-analog` behavioral models (damped-node Gaussian noise,
//!   comparator max-pooling, bit-accurate SAR quantization), producing
//!   features *and* an [`EnergyLedger`]. One thread budget is spent across
//!   a batch's frames first (one task-pool run, [`pool`]) and then within
//!   each frame, over one shared, immutable [`FrameEngine`]; output is
//!   bit-identical at any budget (continuous-vision frames/sec is the
//!   headline metric).
//! - [`FleetEngine`] / [`FleetExecutor`] — **fleet-scale simulation**:
//!   thousands of devices as lightweight [`DeviceCtx`] views over one
//!   shared pack-once engine, scheduled by the same task pool ([`pool`])
//!   and bit-identical at any worker count.
//! - [`estimate`] — the **analytic estimator**: exact per-depth energy,
//!   timing, and readout workloads for full-size networks (GoogLeNet at
//!   227×227) from shape propagation alone; this is what regenerates the
//!   paper's Figs. 7–10 and Table I.
//! - [`Depth`] — the five GoogLeNet partition points of Fig. 6; a spec is
//!   cut with `spec.prefix_through(depth.cut_layer())`.
//! - [`area`] — the §V-D silicon area model (column slices, SRAM, die).
//!
//! Programs are checked statically by the `redeye-verify` crate before they
//! run: [`compile()`](compile()) verifies its output (policy set by
//! [`CompileOptions::verify`]) and [`BatchExecutor::new`] refuses a program
//! with verification errors. The IR itself ([`Program`], [`Instruction`])
//! and the on-chip SRAM budgets ([`KERNEL_SRAM_BYTES`],
//! [`FEATURE_SRAM_BYTES`], [`TOTAL_SRAM_BYTES`], the defaults of
//! [`ResourceLimits`] that RE0401/RE0402 enforce) live in `redeye-verify`
//! and are re-exported here unchanged.
//!
//! # Example
//!
//! ```
//! use redeye_core::{estimate, Depth, RedEyeConfig};
//!
//! // Table I: Depth5 at 40 dB / 4-bit quantization ≈ 1.4 mJ per frame.
//! let est = estimate::estimate_depth(Depth::D5, &RedEyeConfig::default()).unwrap();
//! let mj = est.energy.analog_total().millis();
//! assert!((1.2..1.6).contains(&mj), "Depth5 = {mj} mJ");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod batch;
pub mod compile;
mod error;
pub mod estimate;
mod executor;
mod fleet;
mod partition;
pub mod pool;
pub mod rowsim;
pub mod stacking;

pub use batch::{BatchExecutor, BatchResult};
pub use compile::{compile, CompileOptions, VerifyPolicy, WeightBank};
pub use error::CoreError;
pub use estimate::{Estimate, NoisePlan, RedEyeConfig, TimingBreakdown};
pub use executor::{ExecutionResult, FrameCtx, FrameEngine, FrameOutput};
pub use fleet::{
    frame_digest, DeviceCalib, DeviceCtx, DeviceFrame, DeviceOutcome, DeviceProfile, DeviceScratch,
    DeviceWork, FleetEngine, FleetExecutor, FleetOptions, FleetReport, FrameStat,
};
pub use partition::Depth;
pub use pool::{auto_workers, run_tasks};
pub use redeye_analog::cost::EnergyLedger;
pub use redeye_verify::{
    analyze_cost, analyze_ranges, verify, verify_with_limits, verify_with_options, CostBounds,
    CostBudget, CostEstimate, DiagClass, Diagnostic, Instruction, Program, RangeSummary, Report,
    ResourceLimits, Severity, VerifyOptions, FEATURE_SRAM_BYTES, KERNEL_SRAM_BYTES,
    TOTAL_SRAM_BYTES,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
