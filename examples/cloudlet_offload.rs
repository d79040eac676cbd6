//! Cloudlet offload: transmitting features instead of frames (§V-B).
//!
//! Compares shipping raw 10-bit frames over BLE against shipping RedEye's
//! 4-bit features at every depth, reproducing the paper's 73.2% system
//! saving at Depth4.
//!
//! ```sh
//! cargo run --release --example cloudlet_offload
//! ```

use redeye::core::{estimate, Depth, RedEyeConfig};
use redeye::system::{scenario, BleLink, ImageSensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RedEyeConfig::default();
    let sensor = ImageSensor::paper_baseline();
    let ble = BleLink::paper_characterization();

    let raw_bits = sensor.bits_per_frame();
    println!(
        "raw frame: {} bits → {:.2} mJ over {:.2} s on BLE (paper: 129.42 mJ / 1.54 s)",
        raw_bits,
        ble.energy(raw_bits).millis(),
        ble.time(raw_bits).value()
    );
    println!(
        "BLE effective throughput: {:.0} kbit/s\n",
        ble.throughput_bps() / 1e3
    );

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "depth", "payload", "tx energy", "tx time", "system", "saving"
    );
    let raw_system = scenario::cloudlet_raw();
    for depth in Depth::ALL {
        let est = estimate::estimate_depth(depth, &config)?;
        let with = scenario::cloudlet_redeye(depth, &config)?;
        println!(
            "{:<8} {:>9.1} kB {:>9.1} mJ {:>10.2} s {:>9.1} mJ {:>9.1}%",
            depth.to_string(),
            est.readout_bits as f64 / 8e3,
            ble.energy(est.readout_bits).millis(),
            ble.time(est.readout_bits).value(),
            with.energy.millis(),
            scenario::reduction(raw_system.energy, with.energy) * 100.0
        );
    }
    println!(
        "\nconventional system: {:.1} mJ; paper reports Depth4 transmission at 33.7 mJ / 0.40 s \
         and a 73.2% system saving.",
        raw_system.energy.millis()
    );
    Ok(())
}
