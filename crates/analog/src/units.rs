//! Physical-quantity newtypes.
//!
//! Every quantity in the behavioral model carries its unit in the type, so a
//! capacitance can never be added to an energy and SNR decibels can never be
//! confused with voltage ratios. All are `f64`-backed `Copy` newtypes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in base units.
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// The raw value in base units.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Zero.
            pub const fn zero() -> Self {
                $name(0.0)
            }

            /// `max(self, other)`.
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// `min(self, other)`.
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two same-unit quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (scaled, prefix) = si_scale(self.0);
                write!(f, "{scaled:.3} {prefix}{}", $symbol)
            }
        }
    };
}

/// Picks an SI prefix for display.
fn si_scale(v: f64) -> (f64, &'static str) {
    let a = v.abs();
    if a == 0.0 {
        (0.0, "")
    } else if a >= 1.0 {
        (v, "")
    } else if a >= 1e-3 {
        (v * 1e3, "m")
    } else if a >= 1e-6 {
        (v * 1e6, "µ")
    } else if a >= 1e-9 {
        (v * 1e9, "n")
    } else if a >= 1e-12 {
        (v * 1e12, "p")
    } else {
        (v * 1e15, "f")
    }
}

unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Voltage in volts.
    Volts,
    "V"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);

impl Farads {
    /// Convenience constructor in femtofarads.
    pub const fn from_femto(ff: f64) -> Self {
        Farads::new(ff * 1e-15)
    }

    /// Convenience constructor in picofarads.
    pub const fn from_pico(pf: f64) -> Self {
        Farads::new(pf * 1e-12)
    }
}

impl Joules {
    /// Convenience constructor in picojoules.
    pub const fn from_pico(pj: f64) -> Self {
        Joules::new(pj * 1e-12)
    }

    /// Convenience constructor in femtojoules.
    pub const fn from_femto(fj: f64) -> Self {
        Joules::new(fj * 1e-15)
    }

    /// Convenience constructor in millijoules.
    pub const fn from_milli(mj: f64) -> Self {
        Joules::new(mj * 1e-3)
    }

    /// Value in millijoules (for report tables).
    pub fn millis(self) -> f64 {
        self.value() * 1e3
    }

    /// Value in microjoules (for report tables).
    pub fn micros(self) -> f64 {
        self.value() * 1e6
    }
}

impl Seconds {
    /// Convenience constructor in nanoseconds.
    pub const fn from_nano(ns: f64) -> Self {
        Seconds::new(ns * 1e-9)
    }

    /// Convenience constructor in milliseconds.
    pub const fn from_milli(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }

    /// Value in milliseconds (for report tables).
    pub fn millis(self) -> f64 {
        self.value() * 1e3
    }
}

impl Mul<Seconds> for Watts {
    /// Power × time = energy.
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Div<Seconds> for Joules {
    /// Energy / time = power.
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

/// A signal-to-noise ratio in decibels (power dB: `10·log10(Ps/Pn)`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SnrDb(f64);

impl SnrDb {
    /// Wraps a decibel value.
    pub const fn new(db: f64) -> Self {
        SnrDb(db)
    }

    /// The decibel value.
    pub const fn db(self) -> f64 {
        self.0
    }

    /// Amplitude ratio `As/An = 10^(dB/20)`.
    pub fn amplitude_ratio(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Builds an SNR from a power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    pub fn from_power_ratio(ratio: f64) -> Self {
        assert!(ratio > 0.0, "power ratio must be positive, got {ratio}");
        SnrDb(10.0 * ratio.log10())
    }
}

impl fmt::Display for SnrDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

impl Sub for SnrDb {
    type Output = f64;
    fn sub(self, rhs: SnrDb) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Joules::new(2.0);
        let b = Joules::new(3.0);
        assert_eq!((a + b).value(), 5.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!(b / a, 1.5);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(2.0) * Seconds::from_milli(5.0);
        assert!((e.value() - 0.01).abs() < 1e-12);
        let p = e / Seconds::from_milli(5.0);
        assert!((p.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn si_display() {
        assert_eq!(Farads::from_femto(10.0).to_string(), "10.000 fF");
        assert_eq!(Farads::from_pico(1.0).to_string(), "1.000 pF");
        assert_eq!(Joules::from_milli(1.4).to_string(), "1.400 mJ");
        assert_eq!(Seconds::from_nano(6.5).to_string(), "6.500 ns");
    }

    #[test]
    fn snr_conversions() {
        let s = SnrDb::new(40.0);
        assert!((s.amplitude_ratio() - 100.0).abs() < 1e-9);
        let back = SnrDb::from_power_ratio(1e4);
        assert!((back.db() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Joules = (0..4).map(|i| Joules::new(i as f64)).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn unit_helpers() {
        assert!((Joules::from_pico(1.0).micros() - 1e-6).abs() < 1e-18);
        assert!((Seconds::from_milli(32.0).millis() - 32.0).abs() < 1e-12);
        assert_eq!(Joules::zero().value(), 0.0);
        assert_eq!(Joules::new(1.0).max(Joules::new(2.0)).value(), 2.0);
    }
}
