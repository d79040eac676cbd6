//! Process-corner scaling (§IV-B).
//!
//! The paper verifies its performance-critical blocks over five process
//! corners to guarantee behaviour across fabrication and temperature
//! variation. The behavioral model captures a corner as a triple of
//! multipliers applied to timing, power, and noise parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fabrication/temperature corner with its simulated conditions.
///
/// The factors are representative 0.18 µm spreads: fast silicon settles
/// ~20% quicker but leaks more; slow-hot silicon is ~25% slower with ~15%
/// more thermal noise power (kT tracks temperature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ProcessCorner {
    /// Typical NMOS / typical PMOS at 27 °C — the calibration reference.
    #[default]
    TT,
    /// Fast/fast at −20 °C.
    FF,
    /// Slow/slow at 80 °C.
    SS,
    /// Fast NMOS / slow PMOS at 27 °C.
    FS,
    /// Slow NMOS / fast PMOS at 27 °C.
    SF,
}

impl ProcessCorner {
    /// All five corners the paper simulates, in its order.
    pub const ALL: [ProcessCorner; 5] = [
        ProcessCorner::TT,
        ProcessCorner::FF,
        ProcessCorner::SS,
        ProcessCorner::FS,
        ProcessCorner::SF,
    ];

    /// Simulation temperature in °C (paper §IV-B).
    fn temperature_c(self) -> f64 {
        match self {
            ProcessCorner::TT | ProcessCorner::FS | ProcessCorner::SF => 27.0,
            ProcessCorner::FF => -20.0,
            ProcessCorner::SS => 80.0,
        }
    }

    /// Multiplier on settling/decision times.
    pub fn timing_factor(self) -> f64 {
        match self {
            ProcessCorner::TT => 1.0,
            ProcessCorner::FF => 0.8,
            ProcessCorner::SS => 1.25,
            ProcessCorner::FS | ProcessCorner::SF => 1.05,
        }
    }

    /// Multiplier on dynamic/static power.
    pub fn power_factor(self) -> f64 {
        match self {
            ProcessCorner::TT => 1.0,
            ProcessCorner::FF => 1.15,
            ProcessCorner::SS => 0.9,
            ProcessCorner::FS | ProcessCorner::SF => 1.02,
        }
    }

    /// Multiplier on noise *power* (kT tracks absolute temperature).
    pub fn noise_power_factor(self) -> f64 {
        let t_kelvin = self.temperature_c() + 273.15;
        t_kelvin / 300.15
    }

    /// Deterministically samples the fabrication corner of device
    /// `device_id` in a fleet seeded by `fleet_seed`.
    ///
    /// A **pure function** of `(fleet_seed, device_id)` — no RNG state, no
    /// sampling order: device 7's corner is the same whether it is drawn
    /// first, last, from another thread, or in a different fleet
    /// composition. The distribution is centered on typical silicon
    /// (TT 60%) with 10% in each off-corner, so a large fleet reproduces
    /// the §IV-B spread.
    pub fn for_device(fleet_seed: u64, device_id: u64) -> ProcessCorner {
        // SplitMix64 finalizer: decorrelates consecutive device ids.
        let mut z = fleet_seed ^ device_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        match z % 10 {
            0..=5 => ProcessCorner::TT,
            6 => ProcessCorner::FF,
            7 => ProcessCorner::SS,
            8 => ProcessCorner::FS,
            _ => ProcessCorner::SF,
        }
    }
}

impl fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, t) = (format!("{self:?}"), self.temperature_c());
        write!(f, "{name} {t:.0}°C")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_is_the_reference() {
        assert_eq!(ProcessCorner::TT.timing_factor(), 1.0);
        assert_eq!(ProcessCorner::TT.power_factor(), 1.0);
        assert!((ProcessCorner::TT.noise_power_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_corner_is_noisier_and_slower() {
        let ss = ProcessCorner::SS;
        assert!(ss.noise_power_factor() > 1.1);
        assert!(ss.timing_factor() > 1.0);
    }

    #[test]
    fn cold_fast_corner_is_quieter_and_faster() {
        let ff = ProcessCorner::FF;
        assert!(ff.noise_power_factor() < 0.9);
        assert!(ff.timing_factor() < 1.0);
    }

    #[test]
    fn five_paper_corners() {
        assert_eq!(ProcessCorner::ALL.len(), 5);
        assert_eq!(ProcessCorner::TT.to_string(), "TT 27°C");
        assert_eq!(ProcessCorner::FF.to_string(), "FF -20°C");
        assert_eq!(ProcessCorner::SS.to_string(), "SS 80°C");
    }

    #[test]
    fn device_sampling_is_pure_and_tt_weighted() {
        // Purity: repeated draws agree, and a draw is independent of any
        // other device's draw.
        for id in 0..50u64 {
            assert_eq!(
                ProcessCorner::for_device(42, id),
                ProcessCorner::for_device(42, id)
            );
        }
        // Different fleets re-roll the lottery.
        assert!(
            (0..200u64)
                .any(|id| { ProcessCorner::for_device(1, id) != ProcessCorner::for_device(2, id) }),
            "corner draw ignores the fleet seed"
        );
        // TT dominates a large fleet; every corner appears.
        let mut counts = std::collections::HashMap::new();
        for id in 0..2000u64 {
            *counts
                .entry(ProcessCorner::for_device(7, id))
                .or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 5, "some corner never sampled: {counts:?}");
        let tt = counts[&ProcessCorner::TT];
        assert!(
            (1000..1400).contains(&tt),
            "TT fraction drifted from 60%: {tt}/2000"
        );
    }

    #[test]
    fn variation_stays_within_design_margin() {
        // §IV-B: variations "remain acceptable in all reasonable fabrication
        // scenarios" — our spreads stay within ±25%.
        for c in ProcessCorner::ALL {
            assert!((0.75..=1.25).contains(&c.timing_factor()), "{c}");
            assert!((0.85..=1.2).contains(&c.power_factor()), "{c}");
        }
    }
}
