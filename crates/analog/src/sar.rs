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

use crate::calib::{MISMATCH_COEFF, SAR_ARRAY_STEP_ENERGY, SAR_BIT_LOGIC_ENERGY, SAR_BIT_TIME};
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

    /// Zero-padded alignment of the code to the full 10-bit grid, as the
    /// paper's digital interface performs.
    pub fn aligned_code(&self) -> u32 {
        self.code << (MAX_RESOLUTION - self.resolution)
    }
}

/// Behavioral model of the charge-redistribution SAR ADC.
///
/// The full 10-capacitor binary-weighted array is built once (optionally
/// with static mismatch); a resolution below 10 bits deactivates MSB
/// capacitors, exactly as the circuit does.
#[derive(Debug, Clone)]
pub struct SarAdc {
    resolution: u32,
    /// Relative mismatch of each binary-weighted capacitor `C_1..C_10`.
    mismatch: [f64; MAX_RESOLUTION as usize],
    /// Cached `C_i / C_Σ` for the active bits (index `i − 1`), built with
    /// the ADC; conversions are a hot path and the weights are constant.
    weights: [f64; MAX_RESOLUTION as usize],
    /// Comparator input-referred noise as a fraction of full scale.
    comparator_noise: f64,
    /// Unit-capacitor scale relative to the calibrated `C0` (§II-B: "using
    /// a larger unit capacitor C0 improves matching but consumes more
    /// energy, creating a tradeoff between efficiency and linearity").
    unit_scale: f64,
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
        let mut adc = SarAdc {
            resolution,
            mismatch: [0.0; MAX_RESOLUTION as usize],
            weights: [0.0; MAX_RESOLUTION as usize],
            comparator_noise: 0.0,
            unit_scale: 1.0,
        };
        adc.rebuild_weights();
        Ok(adc)
    }

    /// Creates an ADC with Pelgrom-scaled random capacitor mismatch and a
    /// small comparator noise floor.
    ///
    /// Bigger capacitors match better: `σ(ε_i) = MISMATCH_COEFF/√(2^(i−1))`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::OutOfRange`] unless `1 ≤ resolution ≤ 10`.
    pub fn with_mismatch<R: NoiseSource>(resolution: u32, rng: &mut R) -> Result<Self> {
        SarAdc::with_unit_scale(resolution, 1.0, rng)
    }

    /// Creates a mismatched ADC whose unit capacitor is `unit_scale × C0`
    /// — the §II-B linearity–energy knob: mismatch shrinks with `√scale`
    /// (Pelgrom area scaling) while array energy grows linearly.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::OutOfRange`] for a bad resolution or a
    /// non-positive scale.
    fn with_unit_scale<R: NoiseSource>(
        resolution: u32,
        unit_scale: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if !(unit_scale > 0.0 && unit_scale.is_finite()) {
            return Err(AnalogError::OutOfRange {
                parameter: "unit capacitor scale",
                value: unit_scale.to_string(),
                allowed: "positive finite",
            });
        }
        let mut adc = SarAdc::new(resolution)?;
        adc.unit_scale = unit_scale;
        for (i, m) in adc.mismatch.iter_mut().enumerate() {
            let units = 2f64.powi(i as i32) * unit_scale;
            *m = f64::from(rng.standard_normal()) * MISMATCH_COEFF / units.sqrt();
        }
        adc.comparator_noise = 1e-4;
        adc.rebuild_weights();
        Ok(adc)
    }

    /// Active resolution in bits.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Recomputes the cached bit-weight table for the active resolution:
    /// the weight of active bit `i` (1-based, `i = resolution` is the MSB),
    /// including mismatch, is `w_i = C_i / C_Σ`.
    fn rebuild_weights(&mut self) {
        let cap = |j: u32| 2f64.powi(j as i32 - 1) * (1.0 + self.mismatch[(j - 1) as usize]);
        let total: f64 = (1..=self.resolution).map(cap).sum::<f64>() + 1.0; // + C0 terminator
        self.weights = [0.0; MAX_RESOLUTION as usize];
        for i in 1..=self.resolution {
            self.weights[(i - 1) as usize] = cap(i) / total;
        }
    }

    /// Converts a normalized input in `[0, 1)` of full scale.
    ///
    /// Out-of-range inputs are clipped to the rails (as the real circuit
    /// does). Each bit trial is a select, not a branch: a comparator
    /// outcome depends on the data, so a branch on it mispredicts about
    /// half the time.
    pub fn convert<R: NoiseSource>(&self, input: f64, rng: &mut R) -> SarConversion {
        let x = input.clamp(0.0, 1.0 - f64::EPSILON);
        let mut code = 0u32;
        let mut approximation = 0.0f64;
        for i in (1..=self.resolution).rev() {
            let trial = approximation + self.weights[(i - 1) as usize];
            let noise = if self.comparator_noise > 0.0 {
                f64::from(rng.standard_normal()) * self.comparator_noise
            } else {
                0.0
            };
            let ge = x + noise >= trial;
            approximation = if ge { trial } else { approximation };
            code |= u32::from(ge) << (i - 1);
        }
        SarConversion {
            code,
            resolution: self.resolution,
        }
    }

    /// Energy of one conversion at the active resolution: the array
    /// (`∝ 2^n · unit_scale`) plus comparator/logic (`∝ n`).
    pub fn energy_per_conversion(&self) -> Joules {
        SAR_ARRAY_STEP_ENERGY * (2f64.powi(self.resolution as i32) * self.unit_scale)
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
            codes.push(conv.aligned_code() as f64 / 1024.0);
        }
        for c in &codes {
            assert!((c - x).abs() <= 1.0 / 64.0, "aligned {c} vs {x}");
        }
    }

    /// The bit loop as it was written before it became branch-free: a
    /// comparator outcome taken as a branch.
    fn convert_branchy<R: NoiseSource>(adc: &SarAdc, input: f64, rng: &mut R) -> u32 {
        let x = input.clamp(0.0, 1.0 - f64::EPSILON);
        let mut code = 0u32;
        let mut approximation = 0.0f64;
        for i in (1..=adc.resolution).rev() {
            let trial = approximation + adc.weights[(i - 1) as usize];
            let noise = if adc.comparator_noise > 0.0 {
                f64::from(rng.standard_normal()) * adc.comparator_noise
            } else {
                0.0
            };
            if x + noise >= trial {
                approximation = trial;
                code |= 1 << (i - 1);
            }
        }
        code
    }

    /// Every code's lower threshold (its bits' weights summed MSB first,
    /// as the bit loop accumulates them) and one ulp either side, plus the
    /// rails, inputs beyond them and NaN.
    fn probe_inputs(adc: &SarAdc) -> Vec<f64> {
        let n = adc.resolution;
        let mut inputs = vec![
            0.0,
            -0.0,
            -0.25,
            -1e-300,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            1e300,
            f64::NAN,
        ];
        for code in 0..1u32 << n {
            let t = (1..=n)
                .rev()
                .filter(|&i| code >> (i - 1) & 1 == 1)
                .fold(0.0f64, |acc, i| acc + adc.weights[(i - 1) as usize]);
            inputs.extend([t.next_down(), t, t.next_up()]);
        }
        inputs
    }

    #[test]
    fn branch_free_convert_matches_the_branchy_loop() {
        for n in 1..=MAX_RESOLUTION {
            let ideal = SarAdc::new(n).unwrap();
            let noisy = SarAdc::with_mismatch(n, &mut Rng::seed_from(u64::from(n))).unwrap();
            assert_eq!(noisy.comparator_noise, 1e-4);
            for adc in [&ideal, &noisy] {
                let (mut a, mut b) = (Rng::seed_from(7), Rng::seed_from(7));
                for x in probe_inputs(adc) {
                    let want = convert_branchy(adc, x, &mut b);
                    let got = adc.convert(x, &mut a);
                    assert_eq!(
                        got,
                        SarConversion {
                            code: want,
                            resolution: n
                        },
                        "{n} bits, σ {}, input {x:e}",
                        adc.comparator_noise
                    );
                }
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

    #[test]
    fn enob_degrades_with_mismatch_but_stays_close() {
        let mut rng = Rng::seed_from(6);
        let adc = SarAdc::with_mismatch(10, &mut rng).unwrap();
        let enob = simulated_enob(&adc, 20_000, &mut rng);
        assert!(enob < 10.05, "mismatch cannot add bits: {enob}");
        assert!(enob > 9.0, "0.2% matching keeps ENOB near 10: {enob}");
    }

    #[test]
    fn linearity_energy_tradeoff() {
        // §II-B: a 16× larger unit capacitor improves matching (higher
        // ENOB) but costs ~16× array energy.
        let enob_at = |scale: f64| {
            // Average over several mismatch draws to de-noise the estimate.
            let mut total = 0.0;
            for seed in 0..5 {
                let mut rng = Rng::seed_from(100 + seed);
                let adc = SarAdc::with_unit_scale(10, scale, &mut rng).unwrap();
                total += simulated_enob(&adc, 4000, &mut rng);
            }
            total / 5.0
        };
        // Exaggerate mismatch sensitivity by comparing a tiny unit cap
        // (0.01×C0) against a full-size one.
        let small = enob_at(0.01);
        let large = enob_at(16.0);
        assert!(
            large > small,
            "bigger unit cap must match better: {small} vs {large}"
        );
        let mut rng = Rng::seed_from(1);
        let e_small = SarAdc::with_unit_scale(10, 0.01, &mut rng)
            .unwrap()
            .energy_per_conversion();
        let e_large = SarAdc::with_unit_scale(10, 16.0, &mut rng)
            .unwrap()
            .energy_per_conversion();
        assert!(e_large.value() > 100.0 * e_small.value());
    }

    #[test]
    fn bad_unit_scale_rejected() {
        let mut rng = Rng::seed_from(1);
        assert!(SarAdc::with_unit_scale(8, 0.0, &mut rng).is_err());
        assert!(SarAdc::with_unit_scale(8, f64::NAN, &mut rng).is_err());
    }
}
