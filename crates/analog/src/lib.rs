//! Behavioral analog circuit models for the RedEye architecture.
//!
//! The RedEye paper characterizes its circuits (mixed-signal MAC, dynamic
//! comparator, SAR ADC) with Cadence Spectre at transistor level, then drives
//! its system simulation from a *behavioral model* parameterized by noise,
//! power, and timing numbers (§IV-B). This crate is that behavioral model,
//! implemented from the published physics, with one model per analog op:
//!
//! - sampling (kT/C) thermal noise, `V̄n² = kT/C` (§II-B), and the SNR of
//!   a cascade of noisy stages;
//! - the energy–noise tradeoff `E ∝ C ∝ 1/V̄n²`, realized by the
//!   noise-damping capacitance (§III-C, Table I);
//! - the sampling energy of the 8-bit charge-sharing tunable capacitor,
//!   which reduces MAC sampling capacitors from `O(2^n)` to `O(n)` (§IV-A,
//!   Fig. 5);
//! - a bit-accurate ideal SAR ADC with MSB-cutting variable resolution,
//!   whose exact binary weights make each code `⌊x·2ⁿ⌋` (§IV-A);
//! - a dynamic comparator with metastability-forced decisions (§IV-A);
//! - process-corner scaling of the extracted parameters (§IV-B);
//! - the per-frame `count × unit cost` energy and timing model every
//!   consumer charges through ([`cost`]). The MAC array itself is the
//!   executor's GEMM plus layer noise, charged here per MAC.
//!
//! Absolute constants are calibrated to the paper's published anchors (e.g.
//! 1.4 mJ per Depth5 frame at 40 dB); see [`calib`].
//!
//! # Example
//!
//! ```
//! use redeye_analog::{DampingConfig, SnrDb};
//!
//! // Table I: 40 dB → 10 fF → 1×, 50 dB → 100 fF → 10× energy.
//! let hi_eff = DampingConfig::from_snr(SnrDb::new(40.0));
//! let moderate = DampingConfig::from_snr(SnrDb::new(50.0));
//! assert!((moderate.energy_scale() / hi_eff.energy_scale() - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod comparator;
mod corners;
pub mod cost;
mod damping;
mod error;
mod noise;
mod sar;
mod tunable_cap;
mod units;

pub use comparator::{Comparator, ComparatorDecision};
pub use corners::ProcessCorner;
pub use damping::{
    snr_admissible, snr_in_tunable_band, DampingConfig, SNR_ADMISSIBLE_MAX, SNR_ADMISSIBLE_MIN,
    SNR_TUNABLE_MAX, SNR_TUNABLE_MIN,
};
pub use error::AnalogError;
pub use noise::{cumulative_snr, ktc_noise_voltage, snr_from_powers};
pub use sar::{resolution_admissible, SarAdc, SarConversion, MAX_RESOLUTION};
pub use tunable_cap::{max_signed_code, TunableCap, DAC_WEIGHT_BITS};
pub use units::{Farads, Joules, Seconds, SnrDb, Volts, Watts};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AnalogError>;
