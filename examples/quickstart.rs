//! Quickstart: capture a synthetic frame, run a ConvNet prefix through the
//! RedEye analog pipeline, and inspect the features and the energy bill.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use redeye::core::{
    compile, estimate, BatchExecutor, CompileOptions, Depth, RedEyeConfig, WeightBank,
};
use redeye::dataset::{sensor, SyntheticDataset};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A ConvNet whose early layers RedEye will execute in analog.
    let spec = zoo::micronet(8, 10);
    let prefix = spec.prefix_through("pool3").expect("micronet has pool3");
    println!(
        "network: {} | analog prefix: {} layers",
        spec.name,
        prefix.layers.len()
    );

    // 2. Build it (random weights here; see train_micronet for real ones)
    //    and compile the prefix into a RedEye program.
    let mut rng = Rng::seed_from(42);
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng)?;
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default())?;
    println!(
        "program: {} instructions, {} B of kernels ({} B resident), {}-bit ADC",
        program.len(),
        program.kernel_bytes(),
        program.kernel_working_set_bytes(),
        program.adc_bits
    );

    // 3. Capture a raw frame the way the sensor would (§V-A): undo gamma,
    //    photodiode shot noise, fixed-pattern noise.
    let dataset = SyntheticDataset::new(10, 32, 7);
    let shot = dataset.sample(0);
    let fpn = sensor::FixedPatternNoise::new(&[3, 32, 32], 0.01, 0.005, &mut rng);
    let raw = sensor::capture_raw(&shot.image, 10_000.0, &fpn, &mut rng);

    // 4. Execute the frame through the analog pipeline.
    let mut executor = BatchExecutor::new(program, 1, 1)?;
    let result = executor.execute(&raw)?;
    println!(
        "features: {:?} | forced comparator decisions: {}",
        result.features.dims(),
        result.forced_decisions
    );
    println!("energy:   {}", result.ledger);
    println!(
        "frame:    {:.2} ms ({:.1} fps possible)",
        result.elapsed.millis(),
        1.0 / result.elapsed.value()
    );

    // 5. And the paper-scale analytic estimate: GoogLeNet Depth5 at the
    //    recommended 40 dB / 4-bit operating point.
    let est = estimate::estimate_depth(Depth::D5, &RedEyeConfig::default())?;
    println!(
        "\nGoogLeNet Depth5 @ 40 dB / 4-bit: {:.2} mJ analog, {:.1} ms/frame (paper: 1.4 mJ, 32 ms)",
        est.energy.analog_total().millis(),
        est.timing.frame_time().millis()
    );
    Ok(())
}
