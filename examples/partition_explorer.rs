//! Partition explorer: the developer's depth-cut decision (§III-C).
//!
//! "The developer is responsible for partitioning ConvNets between RedEye
//! operation and digital host system operation. The decision of the cut
//! influences the energy consumption of the overall system." This example
//! sweeps all five GoogLeNet depths across three host pairings and reports
//! the energy-optimal cut for each.
//!
//! ```sh
//! cargo run --release --example partition_explorer
//! ```

use redeye::analog::Joules;
use redeye::core::{estimate, Depth, RedEyeConfig};
use redeye::system::{scenario, BleLink, JetsonHost, JetsonKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RedEyeConfig::default();

    println!("GoogLeNet depth sweep at 40 dB / 4-bit:");
    println!(
        "{:<8} {:>14} {:>12} {:>14} {:>14} {:>14}",
        "depth", "RedEye (mJ)", "frame (ms)", "+GPU (mJ)", "+CPU (mJ)", "+BLE (mJ)"
    );

    let gpu = JetsonHost::fit(JetsonKind::Gpu);
    let cpu = JetsonHost::fit(JetsonKind::Cpu);
    let ble = BleLink::paper_characterization();

    let mut best: Vec<(&str, Depth, Joules)> = Vec::new();
    let mut rows = Vec::new();
    for depth in Depth::ALL {
        let est = estimate::estimate_depth(depth, &config)?;
        let redeye = est.energy.analog_total() + est.energy.controller;
        let with_gpu = redeye + gpu.run_googlenet_suffix(depth).energy;
        let with_cpu = redeye + cpu.run_googlenet_suffix(depth).energy;
        let with_ble = redeye + ble.energy(est.readout_bits);
        rows.push((
            depth,
            redeye,
            est.timing.frame_time(),
            with_gpu,
            with_cpu,
            with_ble,
        ));
    }
    for (depth, redeye, frame, with_gpu, with_cpu, with_ble) in &rows {
        println!(
            "{:<8} {:>14.3} {:>12.1} {:>14.1} {:>14.1} {:>14.1}",
            depth.to_string(),
            redeye.millis(),
            frame.millis(),
            with_gpu.millis(),
            with_cpu.millis(),
            with_ble.millis()
        );
    }

    for (name, pick) in [
        (
            "Jetson GPU",
            rows.iter()
                .min_by(|a, b| a.3.partial_cmp(&b.3).unwrap())
                .unwrap()
                .0,
        ),
        (
            "Jetson CPU",
            rows.iter()
                .min_by(|a, b| a.4.partial_cmp(&b.4).unwrap())
                .unwrap()
                .0,
        ),
        (
            "BLE cloudlet",
            rows.iter()
                .min_by(|a, b| a.5.partial_cmp(&b.5).unwrap())
                .unwrap()
                .0,
        ),
    ] {
        println!("energy-optimal cut with {name}: {pick}");
        best.push((name, pick, Joules::zero()));
    }
    println!(
        "\npaper: \"we find Depth5 to be the energy-optimal configuration when RedEye is \
         combined with a host system\"; RedEye-alone minimum is Depth1."
    );

    // Sensor-alone view (Fig. 7a): Depth1 is the RedEye-energy minimum.
    let alone = rows
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0;
    println!("RedEye-alone minimum: {alone}");

    // Cloudlet headline.
    let raw = scenario::cloudlet_raw();
    let re = scenario::cloudlet_redeye(Depth::D4, &config)?;
    println!(
        "cloudlet: {:.1} mJ raw vs {:.1} mJ Depth4 → {:.1}% saved (paper 73.2%)",
        raw.energy.millis(),
        re.energy.millis(),
        scenario::reduction(raw.energy, re.energy) * 100.0
    );
    Ok(())
}
