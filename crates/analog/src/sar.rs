//! The variable-resolution SAR ADC (§II-B, §IV-A).
//!
//! RedEye's quantization module is a 10-bit successive-approximation ADC
//! whose resolution can be lowered at runtime by *cutting the MSB
//! capacitor*: removing `C_n` halves the total array capacitance `C_Σ`, and
//! the next bit's weight is automatically promoted to ½ — conserving signal
//! range and allowing straightforward zero-padded bit alignment. Energy
//! scales with the active array size (`C_Σ = 2^n·C0`), i.e. halves per bit
//! removed; quantization noise doubles per bit removed. This is the
//! energy–noise tradeoff the Fig. 10 sweep exercises.

use crate::calib::{SAR_ARRAY_STEP_ENERGY, SAR_BIT_LOGIC_ENERGY, SAR_BIT_TIME};
use crate::{AnalogError, Joules, Result, Seconds};
use redeye_tensor::NoiseSource;

/// Maximum designed resolution of the array (the paper's design is 10-bit).
pub const MAX_RESOLUTION: u32 = 10;

/// Whether an ADC bit depth is admissible for the SAR array: at least one
/// active capacitor, at most the designed [`MAX_RESOLUTION`] (MSB-cutting
/// can only *remove* capacitors).
pub const fn resolution_admissible(bits: u32) -> bool {
    bits >= 1 && bits <= MAX_RESOLUTION
}

/// Result of one SAR conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SarConversion {
    /// The output code in `[0, 2^n)`.
    pub code: u32,
    /// Active resolution used for this conversion.
    pub resolution: u32,
}

impl SarConversion {
    /// One code step as a fraction of full scale at `resolution` bits:
    /// `2⁻ⁿ` exactly, so multiplying by it equals dividing by `2ⁿ`.
    pub fn lsb(resolution: u32) -> f64 {
        1.0 / f64::from(1u32 << resolution)
    }

    /// Ideal mid-rise reconstruction of the code onto `[0, 1)` full scale:
    /// `(code + ½)·2⁻ⁿ`.
    pub fn reconstruct(&self) -> f64 {
        (f64::from(self.code) + 0.5) * Self::lsb(self.resolution)
    }
}

/// Behavioral model of the charge-redistribution SAR ADC.
///
/// The full 10-capacitor binary-weighted array is ideal: `C_i = 2^(i−1)·C0`
/// plus the `C0` terminator, so the active array totals `C_Σ = 2ⁿ·C0`. A
/// resolution below 10 bits deactivates MSB capacitors, exactly as the
/// circuit does.
#[derive(Debug, Clone)]
pub struct SarAdc {
    resolution: u32,
}

impl SarAdc {
    /// Creates an ideal (mismatch-free, noiseless-comparator) ADC at the
    /// given resolution.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::OutOfRange`] unless `1 ≤ resolution ≤ 10`.
    pub fn new(resolution: u32) -> Result<Self> {
        if !(1..=MAX_RESOLUTION).contains(&resolution) {
            return Err(AnalogError::OutOfRange {
                parameter: "resolution",
                value: resolution.to_string(),
                allowed: "1..=10",
            });
        }
        Ok(SarAdc { resolution })
    }

    /// Active resolution in bits.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// The output code of a normalized input in `[0, 1)` of full scale.
    ///
    /// Out-of-range inputs are clipped to the rails (as the real circuit
    /// does) and NaN reads code 0. Bit `i`'s weight `C_i / C_Σ` is exactly
    /// `2^(i−1−n)`, so every trial sum of the bit loop is an exact dyadic
    /// number and the loop is a binary search for `⌊x·2ⁿ⌋`: the code is
    /// that product, also exact, truncated.
    #[inline]
    pub fn code(&self, input: f64) -> u32 {
        let x = input.clamp(0.0, 1.0 - f64::EPSILON);
        // `as` truncates toward zero (the floor of a value ≥ 0) and maps
        // NaN to 0, the code a NaN's failed comparisons give.
        (x * f64::from(1u32 << self.resolution)) as u32
    }

    /// Converts a normalized input in `[0, 1)` of full scale: [`code`]
    /// at the active resolution. The comparator is noiseless, so `_rng`
    /// draws nothing.
    ///
    /// [`code`]: SarAdc::code
    #[inline]
    pub fn convert<R: NoiseSource>(&self, input: f64, _rng: &mut R) -> SarConversion {
        SarConversion {
            code: self.code(input),
            resolution: self.resolution,
        }
    }

    /// Energy of one conversion at the active resolution: the array
    /// (`∝ 2^n`) plus comparator/logic (`∝ n`).
    pub fn energy_per_conversion(&self) -> Joules {
        SAR_ARRAY_STEP_ENERGY * 2f64.powi(self.resolution as i32)
            + SAR_BIT_LOGIC_ENERGY * f64::from(self.resolution)
    }

    /// Time of one conversion (one bit cycle per active bit).
    pub fn time_per_conversion(&self) -> Seconds {
        SAR_BIT_TIME * f64::from(self.resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_tensor::Rng;

    /// Measures the effective number of bits by converting `samples`
    /// uniform random inputs and comparing reconstruction error to the
    /// ideal LSB noise: `ENOB = n − log2(rms_err / ideal_rms_err)`.
    fn simulated_enob(adc: &SarAdc, samples: usize, rng: &mut Rng) -> f64 {
        let n = adc.resolution;
        let mut err_power = 0.0f64;
        for _ in 0..samples {
            let x = f64::from(rng.uniform(0.0, 1.0));
            let e = adc.convert(x, rng).reconstruct() - x;
            err_power += e * e;
        }
        err_power /= samples as f64;
        let lsb = 1.0 / 2f64.powi(n as i32);
        let ideal_power = lsb * lsb / 12.0;
        f64::from(n) - 0.5 * (err_power / ideal_power).log2()
    }

    #[test]
    fn ideal_conversion_is_floor_of_scaled_input() {
        let adc = SarAdc::new(8).unwrap();
        let mut rng = Rng::seed_from(1);
        for &x in &[0.0, 0.1, 0.25, 0.5, 0.73, 0.999] {
            let conv = adc.convert(x, &mut rng);
            assert_eq!(conv.code, (x * 256.0) as u32, "input {x}");
        }
    }

    #[test]
    fn reconstruction_error_bounded_by_lsb() {
        let adc = SarAdc::new(6).unwrap();
        let mut rng = Rng::seed_from(2);
        let lsb = 1.0 / 64.0;
        for i in 0..100 {
            let x = i as f64 / 100.0;
            let conv = adc.convert(x, &mut rng);
            assert!((conv.reconstruct() - x).abs() <= lsb, "input {x}");
        }
    }

    #[test]
    fn out_of_range_clips() {
        let adc = SarAdc::new(4).unwrap();
        let mut rng = Rng::seed_from(3);
        assert_eq!(adc.convert(-0.5, &mut rng).code, 0);
        assert_eq!(adc.convert(1.5, &mut rng).code, 15);
    }

    #[test]
    fn msb_cutting_conserves_signal_range() {
        // The same input converts to codes whose *aligned* values agree
        // across resolutions — the range-conserving promotion of §IV-A.
        let mut rng = Rng::seed_from(4);
        let x = 0.6328125; // exactly representable at 7 bits
        let mut codes = Vec::new();
        for n in [10u32, 8, 6] {
            let adc = SarAdc::new(n).unwrap();
            let conv = adc.convert(x, &mut rng);
            codes.push(f64::from(conv.code << (10 - n)) / 1024.0);
        }
        for c in &codes {
            assert!((c - x).abs() <= 1.0 / 64.0, "aligned {c} vs {x}");
        }
    }

    /// The ideal array's bit weights, built as the circuit sums them:
    /// `w_i = C_i / C_Σ` for `C_i = 2^(i−1)·C0` and `C_Σ` the active
    /// capacitors plus the `C0` terminator.
    fn ideal_weights(n: u32) -> Vec<f64> {
        let cap = |j: u32| 2f64.powi(j as i32 - 1);
        let total: f64 = (1..=n).map(cap).sum::<f64>() + 1.0;
        (1..=n).map(|i| cap(i) / total).collect()
    }

    /// The successive-approximation bit loop with the comparator outcome
    /// taken as a branch: the oracle for the closed-form `convert`.
    fn convert_branchy(n: u32, input: f64) -> u32 {
        let weights = ideal_weights(n);
        let x = input.clamp(0.0, 1.0 - f64::EPSILON);
        let mut code = 0u32;
        let mut approximation = 0.0f64;
        for i in (1..=n).rev() {
            let trial = approximation + weights[(i - 1) as usize];
            if x >= trial {
                approximation = trial;
                code |= 1 << (i - 1);
            }
        }
        code
    }

    #[test]
    fn branch_free_convert_matches_the_branchy_loop() {
        for n in 1..=MAX_RESOLUTION {
            let adc = SarAdc::new(n).unwrap();
            let lsb = SarConversion::lsb(n);
            let mut inputs = vec![
                -1.0,
                -0.0,
                0.0,
                1.0 - f64::EPSILON,
                1.0,
                2.0,
                f64::INFINITY,
                f64::NAN,
            ];
            for c in 0..=1u32 << n {
                let t = f64::from(c) * lsb;
                inputs.extend([t.next_down(), t, t.next_up()]);
            }
            let mut rng = Rng::seed_from(7);
            for x in inputs {
                let want = SarConversion {
                    code: convert_branchy(n, x),
                    resolution: n,
                };
                assert_eq!(adc.convert(x, &mut rng), want, "{n} bits, input {x:e}");
            }
        }
    }

    #[test]
    fn reconstruction_multiplies_by_the_exact_lsb() {
        for n in 1..=MAX_RESOLUTION {
            for code in 0..1u32 << n {
                let conv = SarConversion {
                    code,
                    resolution: n,
                };
                let divided = (code as f64 + 0.5) / 2f64.powi(n as i32);
                assert_eq!(
                    conv.reconstruct().to_bits(),
                    divided.to_bits(),
                    "{n} bits, code {code}"
                );
            }
        }
    }

    #[test]
    fn energy_halves_per_bit_cut() {
        let e = |n: u32| SarAdc::new(n).unwrap().energy_per_conversion().value();
        // Array term dominates: ratio just over 2 (logic term is linear).
        let ratio = e(10) / e(9);
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        assert!(e(4) < e(10) / 32.0);
    }

    #[test]
    fn enob_close_to_nominal_when_ideal() {
        let adc = SarAdc::new(8).unwrap();
        let mut rng = Rng::seed_from(5);
        let enob = simulated_enob(&adc, 20_000, &mut rng);
        assert!((7.8..8.2).contains(&enob), "ideal ENOB {enob}");
    }
}
