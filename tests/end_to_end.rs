//! Cross-crate integration tests: the full RedEye workflow from synthetic
//! capture through analog execution to host-side classification.

use redeye::analog::SnrDb;
use redeye::core::estimate;
use redeye::core::{compile, BatchExecutor, CompileOptions, Depth, RedEyeConfig, WeightBank};
use redeye::dataset::{sensor, SyntheticDataset};
use redeye::nn::train::{evaluate, train_epoch, Example, Sgd};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::tensor::{Rng, Tensor};

/// Trains a small model quickly and returns (spec, trained network).
fn quick_trained() -> (redeye::nn::NetworkSpec, redeye::nn::Network) {
    let spec = zoo::micronet(4, 10);
    let dataset = SyntheticDataset::new(10, 32, 3);
    let mut rng = Rng::seed_from(3);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let train: Vec<Example> = dataset
        .batch(0, 300)
        .into_iter()
        .map(|li| Example {
            input: sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
            label: li.label,
        })
        .collect();
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
    let mut opt = Sgd::new(0.02, 0.9, 1e-4);
    for _ in 0..10 {
        train_epoch(&mut net, &mut opt, &train, 16).unwrap();
    }
    (spec, net)
}

#[test]
fn trained_network_beats_chance_on_fresh_captures() {
    let (_spec, mut net) = quick_trained();
    let dataset = SyntheticDataset::new(10, 32, 3);
    let mut rng = Rng::seed_from(9);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let val: Vec<Example> = dataset
        .batch(50_000, 100)
        .into_iter()
        .map(|li| Example {
            input: sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
            label: li.label,
        })
        .collect();
    let acc = evaluate(&mut net, &val).unwrap();
    assert!(acc > 0.3, "top-1 {acc} should beat 10% chance clearly");
}

/// The headline workflow: features computed in the analog domain feed the
/// digital host suffix, and classification still works.
#[test]
fn analog_features_classify_on_host() {
    let (spec, mut net) = quick_trained();
    let cut = "pool3";
    let prefix = spec.prefix_through(cut).unwrap();

    // Compile the prefix with the trained weights.
    let mut bank = WeightBank::from_network(&mut net);
    let opts = CompileOptions {
        weight_bits: 8,
        snr: SnrDb::new(40.0),
        adc_bits: 6,
        ..CompileOptions::default()
    };
    let program = compile(&prefix, &mut bank, &opts).unwrap();
    let mut executor = BatchExecutor::new(program, 5, 1).unwrap();

    // Build the host-side suffix as its own network sharing trained weights:
    // rebuild the full net and drop prefix nodes.
    let dataset = SyntheticDataset::new(10, 32, 3);
    let mut rng = Rng::seed_from(11);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);

    let cut_pos = spec.position_of(cut).unwrap();
    let mut correct_analog = 0usize;
    let mut correct_digital = 0usize;
    let n = 60;
    for i in 0..n {
        let li = dataset.sample(90_000 + i);
        let raw = sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng);

        // Digital reference: full network.
        let digital_logits = net.forward(&raw).unwrap();
        if digital_logits.argmax().unwrap() == li.label {
            correct_digital += 1;
        }

        // Analog path: executor produces features; host runs the suffix.
        let result = executor.execute(&raw).unwrap();
        let mut x = result.features;
        // Feed through the remaining nodes of the trained network.
        for node in net.nodes_mut().iter_mut().skip(cut_pos + 1) {
            x = match node {
                redeye::nn::Node::Layer(layer) => layer.forward(&x).unwrap(),
                redeye::nn::Node::Concat { .. } => unreachable!("micronet has no concat"),
            };
        }
        if x.argmax().unwrap() == li.label {
            correct_analog += 1;
        }
    }
    let analog_acc = correct_analog as f32 / n as f32;
    let digital_acc = correct_digital as f32 / n as f32;
    assert!(
        digital_acc > 0.3,
        "digital reference should classify: {digital_acc}"
    );
    // The analog path at 40 dB / 6-bit should track the digital reference.
    assert!(
        analog_acc >= digital_acc - 0.15,
        "analog {analog_acc} vs digital {digital_acc}"
    );
}

#[test]
fn estimate_matches_executor_counters_on_googlenet_front() {
    // Cross-check: the analytic estimator and the functional executor charge
    // identical operation counts for the same (small) prefix.
    let spec = zoo::tiny_inception(10);
    let prefix = spec.prefix_through("pool2").unwrap();
    let mut rng = Rng::seed_from(13);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();

    let est = estimate::estimate_spec_prefix(&spec, "pool2", &RedEyeConfig::default()).unwrap();

    let mut executor = BatchExecutor::new(program, 1, 1).unwrap();
    let result = executor.execute(&Tensor::full(&[3, 32, 32], 0.4)).unwrap();

    assert_eq!(result.ledger.macs, est.energy.macs);
    assert_eq!(result.ledger.comparisons, est.energy.comparisons);
    assert_eq!(result.ledger.conversions, est.energy.conversions);
    assert_eq!(result.ledger.readout_bits, est.readout_bits);
    // Energies agree to within the comparator's data-dependence.
    let rel = (result.ledger.processing.value() - est.energy.processing.value()).abs()
        / est.energy.processing.value();
    assert!(rel < 1e-6, "processing energy mismatch {rel}");
}

/// A three-thread batch produces the same frame stream as one frame per
/// call on one thread, on the full trained-capture workflow — same
/// program, same raw-captured inputs, compared frame by frame.
#[test]
fn batched_execution_matches_serial_on_captured_frames() {
    let (spec, mut net) = quick_trained();
    let prefix = spec.prefix_through("pool3").unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();

    let dataset = SyntheticDataset::new(10, 32, 3);
    let mut rng = Rng::seed_from(17);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let frames: Vec<Tensor> = dataset
        .batch(70_000, 6)
        .into_iter()
        .map(|li| sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng))
        .collect();

    let mut serial = BatchExecutor::new(program.clone(), 5, 1).unwrap();
    let want: Vec<_> = frames.iter().map(|f| serial.execute(f).unwrap()).collect();

    let mut batch = BatchExecutor::new(program, 5, 3).unwrap();
    let got = batch.execute_batch(&frames).unwrap();
    assert_eq!(got.len(), want.len());
    for (i, (w, g)) in want.iter().zip(got.frames.iter()).enumerate() {
        assert_eq!(w.features, g.features, "frame {i} features");
        assert_eq!(w.codes, g.codes, "frame {i} codes");
        assert!(w.ledger == g.ledger, "frame {i} ledger");
        assert_eq!(w.forced_decisions, g.forced_decisions, "frame {i} tally");
    }
}

#[test]
fn paper_headline_numbers_hold_end_to_end() {
    use redeye::system::{scenario, ImageSensor};
    let config = RedEyeConfig::default();

    // 84.5% sensor energy reduction.
    let r = scenario::sensor_energy_reduction(&config).unwrap();
    assert!((0.80..0.90).contains(&r), "sensor reduction {r}");

    // Depth5 Table I anchor.
    let d5 = estimate::estimate_depth(Depth::D5, &config).unwrap();
    assert!((1.2..1.6).contains(&d5.energy.analog_total().millis()));

    // 30 fps.
    assert!(d5.timing.fps() > 27.0);

    // Conventional sensor untouched.
    let is = ImageSensor::paper_baseline();
    assert!((is.analog_energy_per_frame().millis() - 1.1).abs() < 1e-9);
}
