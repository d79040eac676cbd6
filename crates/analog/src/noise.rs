//! Thermal-noise physics and cascaded-stage SNR.

use crate::calib::{BOLTZMANN, NOMINAL_TEMPERATURE};
use crate::{Farads, SnrDb, Volts};

/// RMS thermal (kT/C) noise voltage of a sampling capacitor:
/// `V̄n = sqrt(kT/C)` (§II-B of the paper).
///
/// # Panics
///
/// Panics if the capacitance is not positive.
///
/// # Example
///
/// ```
/// use redeye_analog::{ktc_noise_voltage, Farads};
///
/// let vn = ktc_noise_voltage(Farads::from_femto(10.0));
/// // ≈ 0.64 mV at room temperature.
/// assert!((vn.value() - 6.4e-4).abs() < 1e-4);
/// ```
pub fn ktc_noise_voltage(cap: Farads) -> Volts {
    assert!(cap.value() > 0.0, "capacitance must be positive");
    Volts::new((BOLTZMANN * NOMINAL_TEMPERATURE / cap.value()).sqrt())
}

/// SNR from signal and noise *powers* (mean-square values).
///
/// # Panics
///
/// Panics if either power is not positive.
pub fn snr_from_powers(signal_power: f64, noise_power: f64) -> SnrDb {
    assert!(
        signal_power > 0.0 && noise_power > 0.0,
        "powers must be positive: signal {signal_power}, noise {noise_power}"
    );
    SnrDb::from_power_ratio(signal_power / noise_power)
}

/// Cumulative SNR of a cascade of stages that each add independent noise at
/// their own per-stage SNR (relative to the local signal): noise powers add,
/// so `SNR_total = −10·log10(Σ 10^(−SNR_i/10))`.
///
/// This is the §IV-B "propagate upwards" rule in closed form, and it
/// explains the paper's Fig. 9 knee: ten 40 dB stages accumulate to ≈30 dB
/// at the output — exactly where the paper reports GoogLeNet "only
/// susceptible to signal infidelity when SNR drops below 30 dB".
///
/// # Panics
///
/// Panics on an empty stage list.
///
/// # Example
///
/// ```
/// use redeye_analog::{cumulative_snr, SnrDb};
///
/// let stages = vec![SnrDb::new(40.0); 10];
/// let total = cumulative_snr(&stages);
/// assert!((total.db() - 30.0).abs() < 0.01);
/// ```
pub fn cumulative_snr(stages: &[SnrDb]) -> SnrDb {
    assert!(!stages.is_empty(), "need at least one stage");
    let noise: f64 = stages.iter().map(|s| 10f64.powf(-s.db() / 10.0)).sum();
    SnrDb::from_power_ratio(1.0 / noise)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ktc_scales_inverse_sqrt() {
        let v1 = ktc_noise_voltage(Farads::from_femto(10.0));
        let v2 = ktc_noise_voltage(Farads::from_femto(1000.0));
        // 100× capacitance → 10× lower noise voltage.
        assert!((v1.value() / v2.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn snr_round_trip() {
        let s = snr_from_powers(1.0, 1e-4);
        assert!((s.db() - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_noise_power_panics() {
        snr_from_powers(1.0, 0.0);
    }

    #[test]
    fn cumulative_snr_closed_form() {
        // One stage: identity.
        assert!((cumulative_snr(&[SnrDb::new(42.0)]).db() - 42.0).abs() < 1e-9);
        // Two equal stages: −3 dB.
        let two = cumulative_snr(&[SnrDb::new(40.0), SnrDb::new(40.0)]);
        assert!((two.db() - (40.0 - 10.0 * 2f64.log10())).abs() < 1e-9);
        // A much noisier stage dominates.
        let dom = cumulative_snr(&[SnrDb::new(60.0), SnrDb::new(20.0)]);
        assert!((dom.db() - 20.0).abs() < 0.05);
        // Ten identical independent stages raise noise power 10× → −10 dB.
        let one = SnrDb::new(40.0);
        let ten = cumulative_snr(&[one; 10]);
        assert!((one.db() - ten.db() - 10.0).abs() < 1e-9);
    }
}
