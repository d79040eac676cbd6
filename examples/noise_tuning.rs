//! Noise tuning: the developer workflow of §III-D.
//!
//! Trains the stand-in network, then (1) sweeps the Gaussian SNR to confirm
//! the task is robust down to ~40 dB, and (2) runs the reduced
//! one-dimensional search to pick the energy-optimal ADC resolution that
//! still meets an accuracy target — exactly the decision procedure the
//! paper describes.
//!
//! ```sh
//! cargo run --release --example noise_tuning
//! ```

use redeye::analog::SnrDb;
use redeye::core::{estimate, Depth, RedEyeConfig};
use redeye::dataset::{sensor, SyntheticDataset};
use redeye::nn::train::{train_epoch, Example, Sgd};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::sim::search::select_quantization;
use redeye::sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye::tensor::{Rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train the stand-in model on raw-captured synthetic images.
    let dataset = SyntheticDataset::new(10, 32, 7);
    let mut rng = Rng::seed_from(7);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let capture = |li: redeye::dataset::LabeledImage, rng: &mut Rng| {
        (
            sensor::capture_raw(&li.image, 10_000.0, &fpn, rng),
            li.label,
        )
    };
    let train: Vec<Example> = dataset
        .batch(0, 1000)
        .into_iter()
        .map(|li| {
            let (input, label) = capture(li, &mut rng);
            Example { input, label }
        })
        .collect();
    let spec = zoo::micronet(8, 10);
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng)?;
    let mut opt = Sgd::new(0.02, 0.9, 1e-4);
    println!("training stand-in model...");
    for epoch in 0..25 {
        train_epoch(&mut net, &mut opt, &train, 16)?;
        if epoch == 17 {
            opt.learning_rate *= 0.3;
        }
    }
    let params = extract_params(&mut net);

    let val: Vec<(Tensor, usize)> = dataset
        .batch(1_000_000, 250)
        .into_iter()
        .map(|li| capture(li, &mut rng))
        .collect();
    let harness = AccuracyHarness::new(val, 8);
    let accuracy = |snr: f64, bits: u32| -> f32 {
        harness
            .evaluate(|| {
                let opts = InstrumentOptions {
                    snr: SnrDb::new(snr),
                    adc_bits: bits,
                    seed: 0,
                    ..InstrumentOptions::paper_default("pool3")
                };
                instrument(&spec, &params, &opts)
            })
            .expect("evaluation")
            .top1
    };

    // (1) Gaussian SNR sweep at 6-bit quantization.
    println!("\nGaussian SNR sweep (6-bit ADC):");
    for snr in [15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0] {
        let config = RedEyeConfig {
            snr: SnrDb::new(snr),
            ..RedEyeConfig::default()
        };
        let energy = estimate::estimate_depth(Depth::D5, &config)?
            .energy
            .processing;
        println!(
            "  {snr:>4.0} dB: top-1 {:.3} | GoogLeNet D5 processing {:.2} mJ",
            accuracy(snr, 6),
            energy.millis()
        );
    }
    println!("→ pick the lowest SNR on the plateau (the paper picks 40 dB).");

    // (2) The reduced 1-D quantization search at 40 dB.
    let clean = accuracy(80.0, 10);
    let target = clean - 0.05;
    println!("\nquantization search at 40 dB (target top-1 ≥ {target:.3}):");
    let pick = select_quantization(1..=10, target, |bits| {
        let a = accuracy(40.0, bits);
        println!("  {bits} bits: top-1 {a:.3}");
        a
    })?;
    match pick {
        Some(bits) => {
            let config = RedEyeConfig {
                adc_bits: bits,
                ..RedEyeConfig::default()
            };
            let e = estimate::estimate_depth(Depth::D5, &config)?
                .energy
                .quantization;
            println!(
                "→ energy-optimal ADC resolution: {bits} bits ({:.1} µJ quantization at D5); \
                 the paper lands on 4 bits for GoogLeNet.",
                e.micros()
            );
        }
        None => println!("→ no resolution meets the target (tighten training first)"),
    }
    Ok(())
}
