//! Property-based tests for the analog behavioral models.

use proptest::prelude::*;
use redeye_analog::{
    ktc_noise_voltage, Comparator, DampingConfig, Farads, SarAdc, Seconds, SnrDb, TunableCap, Volts,
};
use redeye_tensor::{NoiseStream, Rng, SiteRng, LANES};

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

/// `compare` chained over the taps on `site`: the reference the lane
/// kernel must reproduce.
fn compare_chain(
    comparator: &mut Comparator,
    taps: &[f32],
    volts_per_unit: f64,
    mut site: SiteRng,
) -> f32 {
    taps[1..].iter().fold(taps[0], |best, &v| {
        let a = f64::from(v) * volts_per_unit;
        let b = f64::from(best) * volts_per_unit;
        if comparator.compare(a, b, &mut site).a_greater {
            v
        } else {
            best
        }
    })
}

/// The windows of a band of consecutive sites through
/// [`Comparator::max_lanes`], as the executor runs a pooling band: groups
/// of [`LANES`] sites, a short last group padded with its last site.
fn lane_band(
    comparator: &mut Comparator,
    windows: &[Vec<f32>],
    volts_per_unit: f64,
    stream: &NoiseStream,
    first_site: u64,
) -> Vec<f32> {
    let taps = windows[0].len();
    let mut out = Vec::with_capacity(windows.len());
    for (g, group) in windows.chunks(LANES).enumerate() {
        let lane = |l: usize| l.min(group.len() - 1);
        let block: Vec<[f32; LANES]> = (0..taps)
            .map(|t| std::array::from_fn(|l| group[lane(l)][t]))
            .collect();
        let sites = std::array::from_fn(|l| first_site + (g * LANES + lane(l)) as u64);
        let best = comparator.max_lanes(&block, volts_per_unit, stream, &sites, group.len());
        out.extend_from_slice(&best[..group.len()]);
    }
    out
}

proptest! {
    /// `max_lanes` is `compare` chained over each window: the same kept
    /// bits per site, and per band the same decisions and forced count.
    /// Bands of 1–19 sites at random start ids run partial lane groups.
    /// The comparators are the default, ones whose zero noise, zero slot
    /// or short slot make forced decisions fire and shift later draws, a
    /// noisier one and one with a negative noise scale.
    #[test]
    fn lane_max_matches_compare_chain(seed in 0u64..1 << 40) {
        let variants = [
            Comparator::new(),
            Comparator::new().with_noise(Volts::new(0.0)),
            Comparator::new().with_time_slot(Seconds::new(0.0)),
            // Forced below ≈0.3 mV: comparable to the 0.3 mV noise.
            Comparator::new().with_time_slot(Seconds::new(8e-10)),
            Comparator::new().with_noise(Volts::new(2e-3)),
            Comparator::new().with_noise(Volts::new(-3e-4)),
        ];
        let stream = NoiseStream::new(seed);
        let mut rng = Rng::seed_from(seed);
        let mut forced = [0u64; 6];
        for (k, base) in variants.iter().enumerate() {
            for band in 0..40 {
                let sites = 1 + rng.index(19);
                let first_site = rng.index(1 << 40) as u64;
                let window = 1 + rng.index(5);
                let rail = [1.0f32, 0.37, 2.5][rng.index(3)];
                let volts_per_unit = 0.9 / f64::from(rail);
                let windows: Vec<Vec<f32>> = (0..sites)
                    .map(|_| {
                        let plateau = rng.uniform(-rail, rail);
                        (0..window * window)
                            .map(|_| window_tap(&mut rng, plateau, volts_per_unit, rail))
                            .collect()
                    })
                    .collect();
                let (mut lanes, mut oracle) = (base.clone(), base.clone());
                let got = lane_band(&mut lanes, &windows, volts_per_unit, &stream, first_site);
                for (i, taps) in windows.iter().enumerate() {
                    let site = stream.at(first_site + i as u64);
                    let want = compare_chain(&mut oracle, taps, volts_per_unit, site);
                    prop_assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "variant {}, band {}, site {}, taps {:?}",
                        k, band, i, taps
                    );
                }
                let context = format!("variant {k}, band {band}: {sites} sites of {window}x{window}");
                prop_assert_eq!(lanes.decisions_made(), oracle.decisions_made(), "decisions: {}", context);
                prop_assert_eq!(lanes.forced_decisions(), oracle.forced_decisions(), "forced: {}", context);
                forced[k] += lanes.forced_decisions();
            }
        }
        // Zero noise, zero slot and the short slot really force decisions.
        prop_assert!(forced[1] > 0 && forced[2] > 0 && forced[3] > 0, "forced {forced:?}");
    }

    /// An empty window decides nothing and a single tap is its own max.
    #[test]
    fn degenerate_windows(v in -1.0f32..1.0, seed in 0u64..1000) {
        let mut c = Comparator::new();
        let stream = NoiseStream::new(seed);
        let sites = [0; LANES];
        prop_assert_eq!(c.max_lanes(&[], 0.9, &stream, &sites, LANES), [0.0; LANES]);
        let one = c.max_lanes(&[[v; LANES]], 0.9, &stream, &sites, LANES);
        prop_assert!(one.iter().all(|x| x.to_bits() == v.to_bits()));
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
        let adc = SarAdc::new(n).unwrap();
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
        let coarse = SarAdc::new(n).unwrap();
        let fine = SarAdc::new(10).unwrap();
        // Zero-pad each code onto the full 10-bit grid.
        let a = f64::from(coarse.convert(x, &mut rng).code << (10 - n)) / 1024.0;
        let b = f64::from(fine.convert(x, &mut rng).code) / 1024.0;
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
