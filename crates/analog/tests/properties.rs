//! Property-based tests for the analog behavioral models.

use proptest::prelude::*;
use redeye_analog::{
    ktc_noise_voltage, Comparator, DampingConfig, Farads, SarAdc, Seconds, SnrDb, TunableCap, Volts,
};
use redeye_tensor::{NoiseStream, Rng, SiteRng};

/// One pooling-window tap drawn from the mixes that stress the screen:
/// plateaus (exact ties, ±0.0), near-ties within 2σ of the running best,
/// the lower-rail padding value, non-finite values, and clear values.
fn window_tap(rng: &mut Rng, plateau: f32, volts_per_unit: f64, rail: f32) -> f32 {
    let two_sigma = (6e-4 / volts_per_unit) as f32;
    match rng.index(16) {
        0..=3 => plateau,
        4 => 0.0,
        5 => -0.0,
        6..=8 => plateau + two_sigma * rng.uniform(-1.0, 1.0),
        9 => plateau + two_sigma * 1e-4 * rng.uniform(-1.0, 1.0),
        10 => -rail,
        11 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.index(3)],
        _ => rng.uniform(-rail, rail),
    }
}

/// `compare` chained over the taps on a clone of `site`: the reference the
/// screened window must reproduce. Returns the kept tap and the generator
/// after the chain.
fn compare_chain(
    comparator: &mut Comparator,
    taps: &[f32],
    volts_per_unit: f64,
    site: &SiteRng,
) -> (f32, SiteRng) {
    let mut rng = site.clone();
    let mut best = taps[0];
    for &v in &taps[1..] {
        let a = f64::from(v) * volts_per_unit;
        let b = f64::from(best) * volts_per_unit;
        if comparator.compare(a, b, &mut rng).a_greater {
            best = v;
        }
    }
    (best, rng)
}

proptest! {
    /// `max_window` is `compare` chained over the window: the same kept
    /// bits, decisions, forced count and draws, for the default comparator
    /// and for ones whose zero noise, zero slot or short slot make forced
    /// decisions fire and shift later draws.
    #[test]
    fn max_window_matches_compare_chain(seed in 0u64..1 << 40) {
        let variants = [
            Comparator::new(),
            Comparator::new().with_noise(Volts::new(0.0)),
            Comparator::new().with_time_slot(Seconds::new(0.0)),
            // Forced below ≈0.3 mV: comparable to the 0.3 mV noise.
            Comparator::new().with_time_slot(Seconds::new(8e-10)),
            Comparator::new().with_noise(Volts::new(2e-3)),
        ];
        let stream = NoiseStream::new(seed);
        let mut rng = Rng::seed_from(seed);
        let mut forced = [0u64; 5];
        for (k, base) in variants.iter().enumerate() {
            let (mut screened, mut oracle) = (base.clone(), base.clone());
            for site_id in 0..400u64 {
                let window = 1 + rng.index(5);
                let rail = [1.0f32, 0.37, 2.5][rng.index(3)];
                let volts_per_unit = 0.9 / f64::from(rail);
                let plateau = rng.uniform(-rail, rail);
                let taps: Vec<f32> = (0..window * window)
                    .map(|_| window_tap(&mut rng, plateau, volts_per_unit, rail))
                    .collect();
                let site = stream.at(site_id);
                let before = oracle.forced_decisions();
                let got = screened.max_window(&taps, volts_per_unit, &site);
                let (want, mut after) = compare_chain(&mut oracle, &taps, volts_per_unit, &site);
                let context = format!("variant {k}, site {site_id}, taps {taps:?}");
                prop_assert_eq!(got.value.to_bits(), want.to_bits(), "value: {}", context);
                prop_assert_eq!(got.decisions, taps.len() as u64 - 1, "decisions: {}", context);
                prop_assert_eq!(got.forced, oracle.forced_decisions() - before, "forced: {}", context);
                let mut advanced = site.clone();
                for _ in 0..got.draws {
                    advanced.next_u64();
                }
                prop_assert_eq!(advanced.next_u64(), after.next_u64(), "draws: {}", context);
                forced[k] += got.forced;
            }
            prop_assert_eq!(screened.decisions_made(), oracle.decisions_made());
            prop_assert_eq!(screened.forced_decisions(), oracle.forced_decisions());
        }
        // Zero noise, zero slot and the short slot really force decisions.
        prop_assert!(forced[1] > 0 && forced[2] > 0 && forced[3] > 0, "forced {forced:?}");
    }

    /// An empty window decides nothing and a single tap is its own max.
    #[test]
    fn degenerate_windows(v in -1.0f32..1.0, seed in 0u64..1000) {
        let mut c = Comparator::new();
        let site = NoiseStream::new(seed).at(0);
        let empty = c.max_window(&[], 0.9, &site);
        prop_assert_eq!((empty.value, empty.decisions, empty.draws), (0.0, 0, 0));
        let one = c.max_window(&[v], 0.9, &site);
        prop_assert_eq!((one.value.to_bits(), one.decisions, one.draws), (v.to_bits(), 0, 0));
        prop_assert_eq!(c.decisions_made(), 0);
    }

    /// E ∝ C ∝ 1/V̄n²: +10 dB always costs exactly 10× energy.
    #[test]
    fn damping_energy_is_exponential_in_snr(snr in 20.0f64..80.0) {
        let a = DampingConfig::from_snr(SnrDb::new(snr));
        let b = DampingConfig::from_snr(SnrDb::new(snr + 10.0));
        prop_assert!((b.energy_scale() / a.energy_scale() - 10.0).abs() < 1e-9);
    }

    /// kT/C noise voltage is monotone decreasing in capacitance.
    #[test]
    fn ktc_monotone(c1 in 1.0f64..1000.0, c2 in 1.0f64..1000.0) {
        prop_assume!(c1 < c2);
        let v1 = ktc_noise_voltage(Farads::from_femto(c1));
        let v2 = ktc_noise_voltage(Farads::from_femto(c2));
        prop_assert!(v1.value() > v2.value());
    }

    /// The ideal weight DAC is exact: apply(v, code) == v·code/2^bits.
    #[test]
    fn tunable_cap_exact(code in 0u32..256, v in -0.9f64..0.9) {
        let tc = TunableCap::new(8).unwrap();
        let got = tc.apply(v, code).unwrap();
        prop_assert!((got - v * code as f64 / 256.0).abs() < 1e-12);
    }

    /// Charge-sharing sampling energy never exceeds the naïve design's.
    #[test]
    fn charge_sharing_never_worse(bits in 2u32..=12, seed in 0u64..100) {
        let tc = TunableCap::new(bits).unwrap();
        let mut rng = Rng::seed_from(seed);
        let code = rng.index(1 << bits as usize) as u32;
        prop_assert!(tc.sampling_energy(code).value() <= tc.naive_sampling_energy().value());
    }

    /// Ideal SAR codes are monotone in the input.
    #[test]
    fn sar_monotone(n in 1u32..=10, seed in 0u64..100) {
        let mut adc = SarAdc::new(n).unwrap();
        let mut rng = Rng::seed_from(seed);
        let mut prev = 0u32;
        for i in 0..=20 {
            let x = i as f64 / 20.0 * 0.999;
            let code = adc.convert(x, &mut rng).code;
            prop_assert!(code >= prev, "code regressed at {x}");
            prev = code;
        }
    }

    /// Aligned codes agree across resolutions to within the coarser LSB.
    #[test]
    fn sar_alignment_conserves_range(x in 0.0f64..0.999, n in 2u32..=9) {
        let mut rng = Rng::seed_from(1);
        let mut coarse = SarAdc::new(n).unwrap();
        let mut fine = SarAdc::new(10).unwrap();
        let a = coarse.convert(x, &mut rng).aligned_code() as f64 / 1024.0;
        let b = fine.convert(x, &mut rng).aligned_code() as f64 / 1024.0;
        let lsb = 1.0 / 2f64.powi(n as i32);
        prop_assert!((a - b).abs() <= lsb, "coarse {a} vs fine {b}");
    }

    /// SAR energy is strictly increasing in resolution.
    #[test]
    fn sar_energy_monotone(n in 1u32..10) {
        let e1 = SarAdc::new(n).unwrap().energy_per_conversion();
        let e2 = SarAdc::new(n + 1).unwrap().energy_per_conversion();
        prop_assert!(e2.value() > e1.value());
    }
}
