//! Integration tests of the Fig. 9 / Fig. 10 *shapes*: task accuracy is
//! robust to Gaussian noise down to moderate SNR and to quantization down to
//! a few bits, then collapses — the paper's central empirical claim.

use redeye::analog::SnrDb;
use redeye::dataset::{sensor, SyntheticDataset};
use redeye::nn::train::{train_epoch, Example, Sgd};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye::tensor::{Rng, Tensor};

struct Setup {
    spec: redeye::nn::NetworkSpec,
    params: Vec<Tensor>,
    harness: AccuracyHarness,
}

fn setup() -> Setup {
    let spec = zoo::micronet(6, 10);
    let dataset = SyntheticDataset::new(10, 32, 21);
    let mut rng = Rng::seed_from(21);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let train: Vec<Example> = dataset
        .batch(0, 500)
        .into_iter()
        .map(|li| Example {
            input: sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
            label: li.label,
        })
        .collect();
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
    let mut opt = Sgd::new(0.02, 0.9, 1e-4);
    for epoch in 0..14 {
        train_epoch(&mut net, &mut opt, &train, 16).unwrap();
        if epoch == 10 {
            opt.learning_rate *= 0.3;
        }
    }
    let params = extract_params(&mut net);
    let val: Vec<(Tensor, usize)> = dataset
        .batch(700_000, 150)
        .into_iter()
        .map(|li| {
            (
                sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
                li.label,
            )
        })
        .collect();
    Setup {
        spec,
        params,
        harness: AccuracyHarness::new(val, 4),
    }
}

fn accuracy(setup: &Setup, snr_db: f64, bits: u32) -> f32 {
    setup
        .harness
        .evaluate(|| {
            let opts = InstrumentOptions {
                snr: SnrDb::new(snr_db),
                adc_bits: bits,
                seed: 100,
                ..InstrumentOptions::paper_default("pool3")
            };
            instrument(&setup.spec, &setup.params, &opts)
        })
        .unwrap()
        .top1
}

#[test]
fn fig9_shape_robust_above_40db_collapses_below() {
    let s = setup();
    let clean = accuracy(&s, 80.0, 8);
    let at_40 = accuracy(&s, 40.0, 8);
    let at_5 = accuracy(&s, 5.0, 8);
    assert!(clean > 0.4, "trained model must work: clean {clean}");
    // 40 dB costs almost nothing (paper: 89% top-5 at the 40 dB floor).
    assert!(
        at_40 >= clean - 0.1,
        "40 dB should be near-transparent: {at_40} vs clean {clean}"
    );
    // Deep noise destroys the task.
    assert!(
        at_5 < clean - 0.15,
        "5 dB should degrade: {at_5} vs clean {clean}"
    );
}

#[test]
fn fig10_shape_flat_above_4_bits_collapses_at_1() {
    let s = setup();
    let at_8 = accuracy(&s, 40.0, 8);
    let at_4 = accuracy(&s, 40.0, 4);
    let at_1 = accuracy(&s, 40.0, 1);
    assert!(at_8 > 0.4, "trained model must work at 8 bits: {at_8}");
    // Paper: "from the range of 4–6 bits, all depth configurations operate
    // with similarly high accuracy."
    assert!(
        at_4 >= at_8 - 0.12,
        "4 bits should roughly match 8: {at_4} vs {at_8}"
    );
    assert!(at_1 < at_8 - 0.1, "1 bit should hurt: {at_1} vs {at_8}");
}

#[test]
fn weight_quantization_to_8_bits_is_accurate() {
    // Paper §IV-A: 8-bit fixed-point weights suffice.
    let s = setup();
    let full_precision = {
        let opts = InstrumentOptions {
            snr: SnrDb::new(80.0),
            adc_bits: 10,
            weight_bits: None,
            noise_input: false,
            ..InstrumentOptions::paper_default("pool3")
        };
        s.harness
            .evaluate(|| instrument(&s.spec, &s.params, &opts))
            .unwrap()
            .top1
    };
    let eight_bit = {
        let opts = InstrumentOptions {
            snr: SnrDb::new(80.0),
            adc_bits: 10,
            weight_bits: Some(8),
            noise_input: false,
            ..InstrumentOptions::paper_default("pool3")
        };
        s.harness
            .evaluate(|| instrument(&s.spec, &s.params, &opts))
            .unwrap()
            .top1
    };
    assert!(
        eight_bit >= full_precision - 0.05,
        "8-bit weights {eight_bit} vs fp32 {full_precision}"
    );
}
