//! Differential harness: the static analyses against real `FrameEngine`
//! runs.
//!
//! Two contracts are property-tested over the compiled model zoo:
//!
//! 1. **Cost bracket** — the RE07xx static bounds must bracket the dynamic
//!    ledger (`lower ≤ ledger ≤ upper`), and the nominal (typical-corner)
//!    point must *equal* the ledger bit for bit: the cost pass charges the
//!    same `redeye_analog::cost` model the executor does, in the same
//!    depth-first order. The static op counts must equal the ledger's
//!    counters.
//! 2. **Saturation soundness** — a program the RE06xx signal-range pass
//!    declares clean (no RE06xx diagnostics at all) must execute without
//!    any feature clipping at the SAR quantizer's 0 V rail, across several
//!    noise seeds.
//!
//! A directed check holds fleet devices to the same model: a device at each
//! process corner charges exactly the static point for that corner, inside
//! the corner bounds.
//!
//! The zoo has no average pool, so the property also runs a small spec with
//! a top-level average pool and one inside an inception branch, next to an
//! LRN; on that spec the network summary, the cost pass and the row
//! simulation must report the same op totals.
//!
//! Plus directed completeness checks: a program the range pass *warns*
//! about really does clip at run time, and the executor/compiler refuse
//! over-budget programs.

use proptest::prelude::*;
use redeye_analog::{Joules, ProcessCorner, SnrDb};
use redeye_core::estimate::controller_power;
use redeye_core::rowsim::{simulate_rows, ColumnMapping};
use redeye_core::{
    analyze_cost, compile, verify, verify_with_options, BatchExecutor, CompileOptions, CoreError,
    CostBudget, DeviceCalib, DeviceProfile, DeviceScratch, FleetEngine, Instruction, Program,
    Severity, VerifyOptions, WeightBank,
};
use redeye_nn::{build_network, summarize, zoo, LayerSpec, NetworkSpec, WeightInit};
use redeye_tensor::{Rng, Tensor};

fn compiled(spec: &NetworkSpec, cut: &str, seed: u64, opts: &CompileOptions) -> Program {
    let prefix = spec.prefix_through(cut).expect("cut exists");
    let mut rng = Rng::seed_from(seed);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&prefix, &mut bank, opts).expect("compiles")
}

/// A small spec the zoo lacks: a top-level average pool, then an
/// inception whose second branch holds an average pool and an LRN, next
/// to a max-pool branch.
fn avgpool_spec() -> NetworkSpec {
    let conv = |name: &str, out_c, kernel, pad| LayerSpec::Conv {
        name: name.into(),
        out_c,
        kernel,
        stride: 1,
        pad,
        relu: true,
    };
    let pool = |name: &str, max: bool, window, stride, pad| {
        let name = String::from(name);
        if max {
            LayerSpec::MaxPool {
                name,
                window,
                stride,
                pad,
            }
        } else {
            LayerSpec::AvgPool {
                name,
                window,
                stride,
                pad,
            }
        }
    };
    NetworkSpec::new(
        "avgpool_mix",
        [3, 16, 16],
        vec![
            conv("conv1", 8, 3, 1),
            pool("avg1", false, 2, 2, 0),
            LayerSpec::Inception {
                name: "mix".into(),
                branches: vec![
                    vec![conv("mix_1x1", 4, 1, 0)],
                    vec![
                        pool("mix_avg", false, 3, 1, 1),
                        LayerSpec::Lrn {
                            name: "mix_norm".into(),
                            size: 3,
                            alpha: 1e-4,
                            beta: 0.75,
                            k: 1.0,
                        },
                    ],
                    vec![pool("mix_max", true, 3, 1, 1), conv("mix_proj", 4, 1, 0)],
                ],
            },
        ],
    )
}

fn zoo_pick(pick: usize) -> (NetworkSpec, &'static str) {
    match pick {
        0 => (zoo::micronet(8, 10), "pool1"),
        1 => (zoo::micronet(8, 10), "pool3"),
        2 => (zoo::tiny_inception(10), "pool2"),
        3 => (zoo::tiny_inception(10), "inception_a"),
        _ => (avgpool_spec(), "mix"),
    }
}

fn frame_for(program: &Program, seed: u64) -> Tensor {
    Tensor::uniform(&program.input, 0.0, 1.0, &mut Rng::seed_from(seed))
}

/// Whether a report carries any signal-range (RE06xx) finding.
fn range_clean(report: &redeye_core::Report) -> bool {
    report
        .diagnostics
        .iter()
        .all(|d| !d.code.starts_with("RE06"))
}

proptest! {
    /// Static energy/latency bounds bracket the dynamic ledger, the nominal
    /// point reproduces it bit for bit, and the op counts
    /// agree — for every zoo cut, SNR, ADC depth, and weight seed.
    #[test]
    fn static_cost_bounds_bracket_dynamic_ledger(
        seed in 0u64..32,
        snr in 40.0f64..60.0,
        adc_bits in 1u32..10,
        pick in 0usize..5,
    ) {
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            adc_bits,
            ..CompileOptions::default()
        };
        let (spec, cut) = zoo_pick(pick);
        let program = compiled(&spec, cut, seed, &opts);
        let bounds = analyze_cost(&program).expect("zoo cost is statically derivable");

        let input = frame_for(&program, seed.wrapping_mul(31).wrapping_add(7));
        let mut exec = BatchExecutor::new(program, seed ^ 0x9e37_79b9, 1).expect("program verifies");
        let result = exec.execute(&input).expect("zoo program executes");

        let energy = result.ledger.total().value();
        let time = result.elapsed.value();
        prop_assert!(
            bounds.lower.energy.value() <= energy && energy <= bounds.upper.energy.value(),
            "energy {energy} outside [{}, {}]",
            bounds.lower.energy.value(),
            bounds.upper.energy.value()
        );
        prop_assert!(
            bounds.lower.time.value() <= time && time <= bounds.upper.time.value(),
            "time {time} outside [{}, {}]",
            bounds.lower.time.value(),
            bounds.upper.time.value()
        );
        // Both sides charge the same cost model in the same DFS order, so
        // the nominal point is the ledger, bit for bit.
        prop_assert_eq!(bounds.nominal.energy.value().to_bits(), energy.to_bits());
        prop_assert_eq!(bounds.nominal.time.value().to_bits(), time.to_bits());
        prop_assert_eq!(bounds.macs, result.ledger.macs);
        prop_assert_eq!(bounds.comparisons, result.ledger.comparisons);
        prop_assert_eq!(bounds.writes, result.ledger.writes);
        prop_assert_eq!(bounds.conversions, result.ledger.conversions);
        prop_assert_eq!(bounds.readout_bits, result.ledger.readout_bits);
    }

    /// A program the signal-range pass declares saturation-free executes
    /// without any rail clipping, across independent noise seeds.
    #[test]
    fn range_clean_programs_never_clip_at_runtime(
        seed in 0u64..16,
        snr in 40.0f64..60.0,
        pick in 0usize..4,
    ) {
        let opts = CompileOptions {
            snr: SnrDb::new(snr),
            ..CompileOptions::default()
        };
        let (spec, cut) = zoo_pick(pick);
        let program = compiled(&spec, cut, seed, &opts);
        let report = verify(&program);
        prop_assert!(
            range_clean(&report),
            "zoo program unexpectedly range-flagged:\n{}",
            report.render()
        );
        for noise_seed in 0u64..3 {
            let mut exec = BatchExecutor::new(program.clone(), 1000 + noise_seed, 1).expect("program verifies");
            let input = frame_for(&program, 77 + noise_seed);
            let result = exec.execute(&input).expect("executes");
            prop_assert_eq!(
                result.rail_clips, 0,
                "range-clean program clipped under noise seed {}", noise_seed
            );
        }
    }
}

/// On the average-pool spec, the three readers of the op table agree on
/// the totals: the network summary, the static cost pass and the row
/// simulation's summed pass work.
#[test]
fn avgpool_spec_counts_agree_across_summary_cost_and_rowsim() {
    let spec = avgpool_spec();
    let summary = summarize(&spec).expect("spec summarizes");
    let program = compiled(&spec, "mix", 1, &CompileOptions::default());
    let bounds = analyze_cost(&program).expect("cost derivable");
    let rows = simulate_rows(&program, ColumnMapping::ChannelSpread).expect("simulates");
    let summed =
        |f: fn(&redeye_nn::OpCounts) -> u64| rows.passes.iter().map(|p| f(&p.counts)).sum::<u64>();
    let layers = &summary.layers;
    let totals = (
        summary.total_macs(),
        layers.iter().map(|l| l.comparisons).sum::<u64>(),
        layers.iter().map(|l| l.writes).sum::<u64>(),
    );
    assert!(totals.0 > 0 && totals.1 > 0 && totals.2 > 0, "{totals:?}");
    assert_eq!(totals, (bounds.macs, bounds.comparisons, bounds.writes));
    assert_eq!(
        totals,
        (
            summed(|c| c.macs),
            summed(|c| c.comparisons),
            summed(|c| c.writes)
        )
    );
}

/// A mixed-sign final conv *without* ReLU: the range pass must warn that
/// the readout envelope crosses the rail (RE0603), and the executor must
/// actually observe rail clips — the completeness direction of the
/// clean-implies-no-clip contract.
#[test]
fn range_flagged_program_really_clips() {
    let patch = 3 * 3 * 3;
    let out_c = 4;
    let codes: Vec<i32> = (0..out_c * patch)
        .map(|i| if i % 2 == 0 { 80 } else { -80 })
        .collect();
    let program = Program::new(
        "signed-readout",
        [3, 8, 8],
        vec![Instruction::Conv {
            name: "conv1".into(),
            out_c,
            kernel: 3,
            stride: 1,
            pad: 1,
            relu: false,
            codes,
            scale: 1.0 / 128.0,
            bias: vec![0.0; out_c],
            snr: SnrDb::new(50.0),
        }],
        6,
    );
    let report = verify(&program);
    assert!(
        report.warnings().any(|d| d.code == "RE0603"),
        "expected a straddling-envelope warning:\n{}",
        report.render()
    );
    let mut exec = BatchExecutor::new(program.clone(), 11, 1).expect("program verifies");
    let result = exec.execute(&frame_for(&program, 5)).expect("executes");
    assert!(
        result.rail_clips > 0,
        "mixed-sign readout produced no rail clips"
    );
}

/// The executor's lazy pre-frame verification enforces the cost budget: a
/// cap below the static lower bound refuses to run, a cap above the upper
/// bound runs fine.
#[test]
fn executor_enforces_cost_budget() {
    let program = compiled(
        &zoo::micronet(8, 10),
        "pool1",
        3,
        &CompileOptions::default(),
    );
    let bounds = analyze_cost(&program).expect("cost derivable");
    let input = frame_for(&program, 9);

    let mut strict = BatchExecutor::new(program.clone(), 1, 1).expect("program verifies");
    strict.set_cost_budget(CostBudget {
        max_frame_energy: Some(Joules::new(bounds.lower.energy.value() * 0.5)),
        max_frame_time: None,
    });
    match strict.execute(&input) {
        Err(CoreError::Verify(report)) => {
            assert!(
                report.errors().any(|d| d.code == "RE0701"),
                "expected RE0701:\n{}",
                report.render()
            );
        }
        other => panic!("over-budget program executed: {other:?}"),
    }

    let mut generous = BatchExecutor::new(program, 1, 1).expect("program verifies");
    generous.set_cost_budget(CostBudget {
        max_frame_energy: Some(Joules::new(bounds.upper.energy.value() * 2.0)),
        max_frame_time: Some(bounds.upper.time * 2.0),
    });
    generous
        .execute(&input)
        .expect("within-budget program runs");
}

/// `compile()` rejects a program that cannot meet the configured budget,
/// and `verify_with_options` reports the warning-level variant when only
/// unfavorable corners exceed the cap.
#[test]
fn compile_and_verify_respect_budget() {
    let spec = zoo::micronet(8, 10);
    let prefix = spec.prefix_through("pool1").expect("cut exists");
    let mut rng = Rng::seed_from(2);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("builds");
    let mut bank = WeightBank::from_network(&mut net);
    let opts = CompileOptions {
        budget: CostBudget {
            max_frame_energy: Some(Joules::new(1e-12)),
            max_frame_time: None,
        },
        ..CompileOptions::default()
    };
    match compile(&prefix, &mut bank, &opts) {
        Err(CoreError::Verify(report)) => {
            assert!(report.errors().any(|d| d.code == "RE0701"));
        }
        other => panic!("over-budget compile succeeded: {other:?}"),
    }

    // A cap between the corner bounds: possible-but-not-provable overrun.
    let program = compiled(
        &zoo::micronet(8, 10),
        "pool1",
        2,
        &CompileOptions::default(),
    );
    let bounds = analyze_cost(&program).expect("cost derivable");
    let mid = (bounds.nominal.energy.value() + bounds.upper.energy.value()) / 2.0;
    let report = verify_with_options(
        &program,
        &VerifyOptions {
            budget: CostBudget {
                max_frame_energy: Some(Joules::new(mid)),
                max_frame_time: None,
            },
            ..VerifyOptions::default()
        },
    );
    assert_eq!(report.count(Severity::Error), 0, "{}", report.render());
    assert!(
        report.warnings().any(|d| d.code == "RE0702"),
        "expected corner-overrun warning:\n{}",
        report.render()
    );
}

/// A unity-calibrated fleet device at each process corner charges the
/// static model's point for that corner — analog energy by the power
/// factor, time by the timing factor, the time-proportional controller
/// energy by both — and so lies inside the RE07xx corner bounds.
#[test]
fn fleet_corner_devices_sit_on_the_static_corner_points() {
    let program = compiled(
        &zoo::micronet(8, 10),
        "pool1",
        5,
        &CompileOptions::default(),
    );
    let bounds = analyze_cost(&program).expect("cost derivable");
    let (nominal_e, nominal_t) = (bounds.nominal.energy.value(), bounds.nominal.time.value());
    let controller = controller_power().value() * nominal_t;
    let analog = nominal_e - controller;

    let input = frame_for(&program, 3);
    let fleet = FleetEngine::new(program, 21).expect("fleet engine builds");
    let mut scratch = DeviceScratch::new();
    for (id, corner) in (0u64..).zip(ProcessCorner::ALL) {
        let device = fleet.device_from(DeviceProfile {
            id,
            corner,
            calib: DeviceCalib::UNITY,
            noise_seed: 100 + id,
        });
        let frame = device
            .run_frame(0, &input, &mut scratch)
            .expect("device frame");
        let (pf, tf) = (corner.power_factor(), corner.timing_factor());
        let (energy, time) = (frame.energy, frame.frame_time);
        let want_e = analog * pf + controller * pf * tf;
        let want_t = nominal_t * tf;
        assert!(
            (energy.value() / want_e - 1.0).abs() < 1e-12,
            "{corner}: energy {} J, static corner point {want_e} J",
            energy.value()
        );
        assert!(
            (time.value() / want_t - 1.0).abs() < 1e-12,
            "{corner}: time {} s, static corner point {want_t} s",
            time.value()
        );
        assert!(
            bounds.lower.energy <= energy && energy <= bounds.upper.energy,
            "{corner}: energy {} J outside [{}, {}]",
            energy.value(),
            bounds.lower.energy.value(),
            bounds.upper.energy.value()
        );
        assert!(
            bounds.lower.time <= time && time <= bounds.upper.time,
            "{corner}: time {} s outside [{}, {}]",
            time.value(),
            bounds.lower.time.value(),
            bounds.upper.time.value()
        );
    }
}
