//! Property-based tests of the simulation framework's noise semantics.

use proptest::prelude::*;
use redeye_analog::SnrDb;
use redeye_nn::Layer;
use redeye_sim::search::{select_quantization, NelderMead, NelderMeadOptions};
use redeye_sim::{GaussianNoise, QuantizationNoise};
use redeye_tensor::{NoiseStream, Rng, Tensor};

proptest! {
    /// The Gaussian noise layer realizes its programmed SNR (measured over
    /// a large constant signal) within a fraction of a dB.
    #[test]
    fn gaussian_layer_realizes_snr(snr_db in 10.0f64..60.0, seed in 0u64..50) {
        let mut layer = GaussianNoise::new("g", SnrDb::new(snr_db), NoiseStream::new(seed), 0);
        let input = Tensor::full(&[30_000], 1.0);
        let out = layer.forward(&input).unwrap();
        let err_power = out.iter().map(|v| (v - 1.0).powi(2)).sum::<f32>() / out.len() as f32;
        let measured = 10.0 * (1.0 / f64::from(err_power)).log10();
        prop_assert!((measured - snr_db).abs() < 0.75, "programmed {snr_db}, measured {measured}");
    }

    /// Gaussian noise preserves shape and never produces non-finite values.
    #[test]
    fn gaussian_layer_is_wellformed(
        len in 1usize..256, snr_db in 1.0f64..80.0, seed in 0u64..50,
    ) {
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::uniform(&[len], -2.0, 2.0, &mut rng);
        let mut layer = GaussianNoise::new("g", SnrDb::new(snr_db), NoiseStream::new(seed), 0);
        let out = layer.forward(&input).unwrap();
        prop_assert_eq!(out.dims(), input.dims());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Re-quantizing a quantized signal drifts by at most one LSB (the
    /// layer's gain staging renormalizes to the new maximum, so exact
    /// idempotence does not hold — but drift is bounded by the step size).
    #[test]
    fn quantization_drift_bounded(bits in 1u32..10, seed in 0u64..50) {
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::uniform(&[64], 0.0, 1.0, &mut rng);
        let mut layer = QuantizationNoise::new("q", bits);
        let once = layer.forward(&input).unwrap();
        let twice = layer.forward(&once).unwrap();
        let lsb = once.max().unwrap() / 2f32.powi(bits as i32);
        for (a, b) in once.iter().zip(twice.iter()) {
            prop_assert!((a - b).abs() <= lsb + 1e-6, "{a} vs {b} (lsb {lsb})");
        }
    }

    /// The quantizer emits at most 2^bits distinct levels.
    #[test]
    fn quantization_level_count(bits in 1u32..8, seed in 0u64..50) {
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::uniform(&[2000], 0.0, 1.0, &mut rng);
        let mut layer = QuantizationNoise::new("q", bits);
        let out = layer.forward(&input).unwrap();
        let mut levels: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        prop_assert!(levels.len() <= (1usize << bits), "{} levels at {bits} bits", levels.len());
    }

    /// Nelder–Mead never returns a point worse than its starting point.
    #[test]
    fn simplex_never_regresses(x0 in -5.0f64..5.0, y0 in -5.0f64..5.0) {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 3.0 * (x[1] + 2.0).powi(2);
        let start = f(&[x0, y0]);
        let nm = NelderMead::new(NelderMeadOptions {
            max_evals: 200,
            ..NelderMeadOptions::default()
        });
        let out = nm.minimize(f, &[x0, y0]).unwrap();
        prop_assert!(out.value <= start + 1e-12);
    }

    /// The 1-D quantization scan returns the minimal feasible resolution
    /// for any monotone accuracy curve.
    #[test]
    fn quantization_scan_minimal(knee in 1u32..10) {
        let acc = move |bits: u32| if bits >= knee { 0.9 } else { 0.1 };
        let pick = select_quantization(1..=10, 0.5, acc).unwrap();
        prop_assert_eq!(pick, Some(knee));
    }
}
