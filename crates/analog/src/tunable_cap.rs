//! The charge-sharing tunable capacitor — RedEye's mixed-signal weight DAC
//! (§IV-A, Fig. 5).
//!
//! Kernel weights are stored digitally and applied to analog signals through
//! a tunable capacitor. The naïve design needs a binary-weighted array of
//! `2^n − 1` unit capacitors, all charged from the input; RedEye's
//! charge-sharing design samples the input onto at most `n` unit capacitors
//! (one per set weight bit) and then *shares* each bit's charge with
//! `2^(n−j) − 1` grounded units, attenuating it into its binary weight. This
//! cuts input sampling capacitance — and therefore energy — by
//! `(2^n − 1)/n ≈ 32×` for 8-bit weights.

use crate::calib::{SUPPLY, UNIT_CAP};
use crate::{AnalogError, Farads, Joules, Result};

/// Bit width of the weight DAC as fabricated (§IV-A: "8-bit tunable
/// capacitor"). Programs must quantize kernel weights to signed fixed-point
/// codes representable at this width.
pub const DAC_WEIGHT_BITS: u32 = 8;

/// Largest magnitude of a signed symmetric fixed-point code at `bits` width:
/// `2^(bits−1) − 1` (e.g. ±127 for the 8-bit DAC).
pub const fn max_signed_code(bits: u32) -> i32 {
    (1i32 << (bits - 1)) - 1
}

/// Sampling-energy model of the `n`-bit charge-sharing weight DAC: the
/// charge-sharing and the naïve design side by side (the §IV-A ablation).
/// The conv MAC itself applies weights as `code · scale` in the GEMM.
#[derive(Debug, Clone)]
pub struct TunableCap {
    bits: u32,
}

impl TunableCap {
    /// Creates a tunable capacitor of `bits` weight bits.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::OutOfRange`] unless `2 ≤ bits ≤ 16`.
    pub fn new(bits: u32) -> Result<Self> {
        if !(2..=16).contains(&bits) {
            return Err(AnalogError::OutOfRange {
                parameter: "weight bits",
                value: bits.to_string(),
                allowed: "2..=16",
            });
        }
        Ok(TunableCap { bits })
    }

    /// Input sampling capacitance for a given code under the charge-sharing
    /// design: one unit capacitor per set bit.
    fn sampling_capacitance(&self, code: u32) -> Farads {
        UNIT_CAP * f64::from(code.count_ones())
    }

    /// Input sampling capacitance of the naïve binary-weighted design:
    /// `(2^bits − 1)` units regardless of code (worst-case array, all charged
    /// from the input).
    fn naive_sampling_capacitance(&self) -> Farads {
        UNIT_CAP * (2f64.powi(self.bits as i32) - 1.0)
    }

    /// Sampling energy `C·V²` for a code under the charge-sharing design.
    pub fn sampling_energy(&self, code: u32) -> Joules {
        let v = SUPPLY.value();
        Joules::new(self.sampling_capacitance(code).value() * v * v)
    }

    /// Sampling energy of the naïve design.
    pub fn naive_sampling_energy(&self) -> Joules {
        let v = SUPPLY.value();
        Joules::new(self.naive_sampling_capacitance().value() * v * v)
    }

    /// Average energy-reduction factor of charge sharing over the naïve
    /// design, averaged over all codes: `(2^n − 1) / (n/2) ≈ 2(2^n−1)/n`.
    /// The paper quotes the per-capacitor-count factor `(2^n−1)/n ≈ 32` for
    /// 8 bits; [`TunableCap::capacitor_reduction_factor`] reports that.
    pub fn capacitor_reduction_factor(&self) -> f64 {
        (2f64.powi(self.bits as i32) - 1.0) / f64::from(self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_32x_reduction_for_8_bits() {
        let tc = TunableCap::new(8).unwrap();
        let factor = tc.capacitor_reduction_factor();
        assert!((factor - 255.0 / 8.0).abs() < 1e-12);
        assert!((31.0..33.0).contains(&factor), "≈32×, got {factor}");
    }

    #[test]
    fn sampling_energy_counts_set_bits() {
        let tc = TunableCap::new(8).unwrap();
        // code 0b1010_1010 has 4 set bits.
        assert!(
            (tc.sampling_capacitance(0b1010_1010).value() - 4.0 * UNIT_CAP.value()).abs() < 1e-30
        );
        // Naïve design charges all 255 units.
        assert!((tc.naive_sampling_capacitance().value() - 255.0 * UNIT_CAP.value()).abs() < 1e-30);
        assert!(tc.sampling_energy(255) < tc.naive_sampling_energy());
    }

    #[test]
    fn invalid_bit_widths_rejected() {
        assert!(TunableCap::new(1).is_err());
        assert!(TunableCap::new(17).is_err());
        assert!(TunableCap::new(8).is_ok());
    }
}
