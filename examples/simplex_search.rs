//! The general noise-parameter search of §III-D.
//!
//! "Developers should search for an optimal set of parameters that achieves
//! task accuracy at minimal cost. In general, this is an intensive search
//! over a parameter space of dimension ℝ^(n+1) … such highly dimensional
//! searches would typically require tools such as the canonical simplex
//! search." This example runs that search: Nelder–Mead over (Gaussian SNR,
//! ADC bits) minimizing RedEye energy with an accuracy-shortfall penalty,
//! and confirms it lands near the paper's conclusion — take all the noise
//! the operations admit, then pick the smallest workable ADC resolution.
//!
//! ```sh
//! cargo run --release --example simplex_search
//! ```

use redeye::analog::SnrDb;
use redeye::core::{estimate, Depth, RedEyeConfig};
use redeye::dataset::{sensor, SyntheticDataset};
use redeye::nn::train::{train_epoch, Example, Sgd};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::sim::search::{NelderMead, NelderMeadOptions};
use redeye::sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye::tensor::{Rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train the stand-in model on the hard synthetic task.
    let classes = 32;
    let dataset = SyntheticDataset::with_difficulty(classes, 32, 7, 1.0);
    let mut rng = Rng::seed_from(7);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let train: Vec<Example> = dataset
        .batch(0, 1200)
        .into_iter()
        .map(|li| Example {
            input: sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
            label: li.label,
        })
        .collect();
    let spec = zoo::micronet(8, classes);
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
        .batch(1_000_000, 200)
        .into_iter()
        .map(|li| {
            (
                sensor::capture_raw(&li.image, 10_000.0, &fpn, &mut rng),
                li.label,
            )
        })
        .collect();
    let harness = AccuracyHarness::new(val, 8);
    let accuracy = |snr: f64, bits: u32| -> f64 {
        f64::from(
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
                .top1,
        )
    };
    let energy_mj = |snr: f64, bits: u32| -> f64 {
        let config = RedEyeConfig {
            snr: SnrDb::new(snr),
            adc_bits: bits,
            ..RedEyeConfig::default()
        };
        estimate::estimate_depth(Depth::D5, &config)
            .expect("estimate")
            .energy
            .analog_total()
            .millis()
    };

    // Objective: log-energy plus a steep penalty for missing the accuracy
    // target. x = [snr_db, adc_bits (continuous, rounded)].
    let target = 0.85;
    let mut evals = Vec::new();
    let objective = |x: &[f64]| -> f64 {
        let snr = x[0].clamp(1.0, 80.0);
        let bits = x[1].round().clamp(1.0, 10.0) as u32;
        let acc = accuracy(snr, bits);
        let shortfall = (target - acc).max(0.0);
        energy_mj(snr, bits).log10() + 200.0 * shortfall
    };
    println!("\nrunning Nelder–Mead over (SNR, ADC bits), target top-1 ≥ {target} ...");
    let nm = NelderMead::new(NelderMeadOptions {
        max_evals: 60,
        tolerance: 1e-4,
        initial_step: 8.0,
    });
    let outcome = nm.minimize(
        |x| {
            let v = objective(x);
            evals.push((x.to_vec(), v));
            v
        },
        &[40.0, 8.0],
    )?;

    let snr = outcome.best[0].clamp(1.0, 80.0);
    let bits = outcome.best[1].round().clamp(1.0, 10.0) as u32;
    println!(
        "best after {} evaluations: SNR {snr:.1} dB, {bits}-bit ADC → {:.3} mJ at top-1 {:.3}",
        outcome.evals,
        energy_mj(snr, bits),
        accuracy(snr, bits)
    );
    println!(
        "(paper's conclusion for GoogLeNet: admit all the Gaussian noise the ops allow, \
         then 4-bit quantization — the simplex should land at the low-SNR, low-bit corner \
         that still meets the target.)"
    );
    Ok(())
}
