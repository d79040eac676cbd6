//! Property-based tests of the RedEye architecture's invariants.

use proptest::prelude::*;
use redeye_analog::{ProcessCorner, SnrDb};
use redeye_core::{
    compile, estimate, BatchExecutor, CompileOptions, Depth, EnergyLedger, Executor, FeatureSram,
    Program, RedEyeConfig, WeightBank,
};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_tensor::{Rng, Tensor};

fn config(snr: f64, bits: u32) -> RedEyeConfig {
    RedEyeConfig {
        snr: SnrDb::new(snr),
        adc_bits: bits,
        corner: ProcessCorner::TT,
    }
}

proptest! {
    /// Analog energy scales exactly ×10 per +10 dB at any depth and bit
    /// setting (the processing/memory terms dominate and both follow E ∝ C).
    #[test]
    fn processing_energy_exponential_in_snr(
        snr in 20.0f64..60.0,
        depth_idx in 0usize..5,
    ) {
        let depth = Depth::ALL[depth_idx];
        let lo = estimate::estimate_depth(depth, &config(snr, 4)).unwrap();
        let hi = estimate::estimate_depth(depth, &config(snr + 10.0, 4)).unwrap();
        let ratio = hi.energy.processing / lo.energy.processing;
        prop_assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }

    /// Quantization energy is monotone in ADC resolution; readout bits are
    /// exactly linear in it.
    #[test]
    fn quantization_monotone_in_bits(bits in 1u32..10, depth_idx in 0usize..5) {
        let depth = Depth::ALL[depth_idx];
        let a = estimate::estimate_depth(depth, &config(40.0, bits)).unwrap();
        let b = estimate::estimate_depth(depth, &config(40.0, bits + 1)).unwrap();
        prop_assert!(b.energy.quantization > a.energy.quantization);
        prop_assert_eq!(a.readout_bits / u64::from(bits), a.readout_values);
        prop_assert_eq!(
            b.readout_bits * u64::from(bits),
            a.readout_bits * u64::from(bits + 1)
        );
    }

    /// Frame time is independent of the SNR setting (bias scales with the
    /// damping cap) but strictly increasing in ADC bits.
    #[test]
    fn timing_depends_on_bits_not_snr(
        snr_a in 25.0f64..60.0,
        snr_b in 25.0f64..60.0,
        bits in 1u32..10,
    ) {
        let a = estimate::estimate_depth(Depth::D3, &config(snr_a, bits)).unwrap();
        let b = estimate::estimate_depth(Depth::D3, &config(snr_b, bits)).unwrap();
        prop_assert!(
            (a.timing.frame_time().value() - b.timing.frame_time().value()).abs() < 1e-12
        );
        let more = estimate::estimate_depth(Depth::D3, &config(snr_a, bits + 1)).unwrap();
        prop_assert!(more.timing.quantization > a.timing.quantization);
    }

    /// Deeper cuts never decrease MAC workload.
    #[test]
    fn macs_monotone_in_depth(snr in 25.0f64..60.0) {
        let mut prev = 0u64;
        for depth in Depth::ALL {
            let est = estimate::estimate_depth(depth, &config(snr, 4)).unwrap();
            prop_assert!(est.energy.macs >= prev, "{depth}");
            prev = est.energy.macs;
        }
    }

    /// Feature payload bytes follow the bit-packing formula for any load.
    #[test]
    fn feature_bytes_formula(values in 0u64..1_000_000, bits in 1u32..16) {
        let bytes = FeatureSram::bytes_needed(values, bits);
        prop_assert_eq!(bytes as u64, (values * u64::from(bits)).div_ceil(8));
    }

    /// Programs round-trip through JSON regardless of ADC setting.
    #[test]
    fn program_serde_round_trip(bits in 1u32..10, out_c in 1usize..8) {
        let program = Program::new(
            "p",
            [3, 8, 8],
            vec![redeye_core::Instruction::Conv {
                name: "c".into(),
                out_c,
                kernel: 3,
                stride: 1,
                pad: 1,
                relu: true,
                codes: vec![1; out_c * 27],
                scale: 0.01,
                bias: vec![0.0; out_c],
                snr: SnrDb::new(40.0),
            }],
            bits,
        );
        let json = serde_json::to_string(&program).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, program);
    }

    /// Executor output is a pure function of the seed: features, codes,
    /// energy ledger, frame time, and forced-decision counts are
    /// bit-identical across thread budgets 1/2/3/4 (GEMM row bands and
    /// analog site bands, 3 cutting uneven ones) for random programs from
    /// the zoo, under both Gaussian sampling strategies.
    #[test]
    fn executor_invariant_under_resharding(
        base_c in 4usize..9,
        cut_idx in 0usize..3,
        use_inception in 0u32..2,
        snr in 25.0f64..60.0,
        bits in 3u32..10,
        seed in 0u64..1_000_000,
    ) {
        let (spec, cut) = if use_inception == 1 {
            (zoo::tiny_inception(10), "pool2")
        } else {
            (zoo::micronet(base_c, 10), ["pool1", "pool2", "pool3"][cut_idx])
        };
        let prefix = spec.prefix_through(cut).unwrap();
        let mut rng = Rng::seed_from(seed ^ 0xA5A5);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            adc_bits: bits,
            ..CompileOptions::default()
        };
        let program = compile(&prefix, &mut bank, &opts).unwrap();
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let run = |threads: usize| {
            let mut exec = Executor::new(program.clone(), seed);
            exec.set_threads(threads);
            exec.execute(&input).unwrap()
        };
        let want = run(1);
        for threads in [2usize, 3, 4] {
            let got = run(threads);
            prop_assert_eq!(&want.features, &got.features, "{} threads", threads);
            prop_assert_eq!(&want.codes, &got.codes, "{} threads", threads);
            prop_assert!(want.ledger == got.ledger, "{} threads: ledger diverged", threads);
            prop_assert_eq!(want.elapsed.value(), got.elapsed.value());
            prop_assert_eq!(want.forced_decisions, got.forced_decisions);
        }
    }

    /// Batched execution is invariant to the worker count (1/2/4) *and* the
    /// batch split (1/4/whole-stream), bit-identical to the serial executor
    /// over the program zoo: per-frame features, codes, ledgers, frame
    /// times, and cumulative forced tallies, plus the merged ledger's
    /// integer stats (and its energy terms — the frame-order fold makes
    /// even the f64 sums exact).
    #[test]
    fn batch_executor_matches_serial_executor(
        base_c in 4usize..9,
        cut_idx in 0usize..3,
        use_inception in 0u32..2,
        snr in 25.0f64..60.0,
        bits in 3u32..10,
        seed in 0u64..1_000_000,
    ) {
        let (spec, cut) = if use_inception == 1 {
            (zoo::tiny_inception(10), "pool2")
        } else {
            (zoo::micronet(base_c, 10), ["pool1", "pool2", "pool3"][cut_idx])
        };
        let prefix = spec.prefix_through(cut).unwrap();
        let mut rng = Rng::seed_from(seed ^ 0x5A5A);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            adc_bits: bits,
            ..CompileOptions::default()
        };
        let program = compile(&prefix, &mut bank, &opts).unwrap();
        let n = 4usize;
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
            .collect();

        let mut serial = Executor::new(program.clone(), seed);
        let mut want_ledger = EnergyLedger::new();
        let want: Vec<_> = inputs
            .iter()
            .map(|input| {
                let r = serial.execute(input).unwrap();
                want_ledger.merge(&r.ledger);
                r
            })
            .collect();

        for workers in [1usize, 2, 4] {
            for batch_size in [1usize, 2, n] {
                let mut batch = BatchExecutor::new(program.clone(), seed, workers).unwrap();
                let mut merged = EnergyLedger::new();
                let mut got = Vec::new();
                for chunk in inputs.chunks(batch_size) {
                    let result = batch.execute_batch(chunk).unwrap();
                    merged.merge(&result.ledger);
                    got.extend(result.frames);
                }
                let tag = format!("{workers}w/b{batch_size}");
                prop_assert_eq!(want.len(), got.len(), "{}: frame count", &tag);
                for (f, (w, g)) in want.iter().zip(got.iter()).enumerate() {
                    prop_assert_eq!(&w.features, &g.features, "{}: frame {} features", &tag, f);
                    prop_assert_eq!(&w.codes, &g.codes, "{}: frame {} codes", &tag, f);
                    prop_assert!(w.ledger == g.ledger, "{}: frame {} ledger", &tag, f);
                    prop_assert_eq!(w.elapsed.value(), g.elapsed.value());
                    prop_assert_eq!(w.forced_decisions, g.forced_decisions);
                }
                prop_assert_eq!(merged.macs, want_ledger.macs, "{}: merged macs", &tag);
                prop_assert_eq!(
                    merged.comparisons, want_ledger.comparisons,
                    "{}: merged comparisons", &tag
                );
                prop_assert_eq!(merged.writes, want_ledger.writes, "{}: merged writes", &tag);
                prop_assert_eq!(
                    merged.conversions, want_ledger.conversions,
                    "{}: merged conversions", &tag
                );
                prop_assert_eq!(
                    merged.readout_bits, want_ledger.readout_bits,
                    "{}: merged readout bits", &tag
                );
                prop_assert!(merged == want_ledger, "{}: merged ledger energy diverged", &tag);
            }
        }
    }

    /// Corner factors move energy and timing in opposite directions for
    /// SS (slow silicon: slower but lower power).
    #[test]
    fn ss_corner_tradeoff(snr in 25.0f64..60.0, bits in 1u32..10) {
        let tt = estimate::estimate_depth(Depth::D2, &config(snr, bits)).unwrap();
        let ss = estimate::estimate_depth(
            Depth::D2,
            &RedEyeConfig {
                snr: SnrDb::new(snr),
                adc_bits: bits,
                corner: ProcessCorner::SS,
            },
        )
        .unwrap();
        prop_assert!(ss.timing.frame_time() > tt.timing.frame_time());
        prop_assert!(ss.energy.processing < tt.energy.processing);
    }
}
