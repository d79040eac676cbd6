//! End-to-end system scenarios (§V-B, Fig. 8).
//!
//! Combines the sensor models with the host/link baselines into the six
//! Fig. 8 bars (CPU / GPU / cloud-offload, each with and without RedEye)
//! and the paper's headline reductions.

use crate::{BleLink, ImageSensor, JetsonHost, JetsonKind, ShiDianNao};
use redeye_analog::{Joules, Seconds};
use redeye_core::{estimate, Depth, RedEyeConfig, Result};
use serde::{Deserialize, Serialize};

/// One system scenario's per-frame outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario label (e.g. `"GPU + RedEye"`).
    pub name: String,
    /// Total per-frame energy.
    pub energy: Joules,
    /// Per-frame latency (un-pipelined sum of stages).
    pub latency: Seconds,
    /// Pipelined throughput: the slowest stage bounds the frame rate.
    pub pipelined_fps: f64,
}

/// RedEye per-frame overhead used in system accounting: analog pipeline
/// plus the on-chip controller (the paper's "RedEye overhead of 1.3 mJ"
/// style figures fold both in at system level).
fn redeye_frame(depth: Depth, config: &RedEyeConfig) -> Result<(Joules, Seconds)> {
    let est = estimate::estimate_depth(depth, config)?;
    Ok((
        est.energy.analog_total() + est.energy.controller,
        est.timing.frame_time(),
    ))
}

/// Conventional system: image sensor + full GoogLeNet on a Jetson processor.
pub fn conventional_host(kind: JetsonKind) -> ScenarioResult {
    let sensor = ImageSensor::paper_baseline();
    let host = JetsonHost::fit(kind).run_googlenet_full();
    let stage_time = sensor.frame_time().max(host.time);
    ScenarioResult {
        name: format!("{kind:?} (conventional)"),
        energy: sensor.analog_energy_per_frame() + host.energy,
        latency: sensor.frame_time() + host.time,
        pipelined_fps: 1.0 / stage_time.value(),
    }
}

/// RedEye system: RedEye sensor at `depth` + the GoogLeNet remainder on a
/// Jetson processor.
///
/// # Errors
///
/// Returns the estimator's error when it refuses `config` (an SNR outside
/// `[0, 100]` dB, say).
pub fn redeye_host(
    kind: JetsonKind,
    depth: Depth,
    config: &RedEyeConfig,
) -> Result<ScenarioResult> {
    let (re_energy, re_time) = redeye_frame(depth, config)?;
    let host = JetsonHost::fit(kind).run_googlenet_suffix(depth);
    let stage_time = re_time.max(host.time);
    Ok(ScenarioResult {
        name: format!("{kind:?} + RedEye {depth}"),
        energy: re_energy + host.energy,
        latency: re_time + host.time,
        pipelined_fps: 1.0 / stage_time.value(),
    })
}

/// Conventional cloudlet offload: image sensor + raw frame over BLE.
pub fn cloudlet_raw() -> ScenarioResult {
    let sensor = ImageSensor::paper_baseline();
    let ble = BleLink::paper_characterization();
    let bits = sensor.bits_per_frame();
    let tx_time = ble.time(bits);
    let stage_time = sensor.frame_time().max(tx_time);
    ScenarioResult {
        name: "Cloudlet (conventional)".into(),
        energy: sensor.analog_energy_per_frame() + ble.energy(bits),
        latency: sensor.frame_time() + tx_time,
        pipelined_fps: 1.0 / stage_time.value(),
    }
}

/// RedEye cloudlet offload: RedEye features at `depth` over BLE.
///
/// # Errors
///
/// Returns the estimator's error when it refuses `config`.
pub fn cloudlet_redeye(depth: Depth, config: &RedEyeConfig) -> Result<ScenarioResult> {
    let (re_energy, re_time) = redeye_frame(depth, config)?;
    let ble = BleLink::paper_characterization();
    let est = estimate::estimate_depth(depth, config)?;
    let tx_time = ble.time(est.readout_bits);
    let stage_time = re_time.max(tx_time);
    Ok(ScenarioResult {
        name: format!("Cloudlet + RedEye {depth}"),
        energy: re_energy + ble.energy(est.readout_bits),
        latency: re_time + tx_time,
        pipelined_fps: 1.0 / stage_time.value(),
    })
}

/// The six Fig. 8 bars, in the paper's grouping. Host scenarios use Depth5
/// (the energy-optimal cut with a Jetson); cloudlet uses Depth4 (the cut the
/// paper transmits).
///
/// # Errors
///
/// Returns the estimator's error when it refuses `config`.
pub fn fig8(config: &RedEyeConfig) -> Result<Vec<ScenarioResult>> {
    Ok(vec![
        conventional_host(JetsonKind::Cpu),
        redeye_host(JetsonKind::Cpu, Depth::D5, config)?,
        conventional_host(JetsonKind::Gpu),
        redeye_host(JetsonKind::Gpu, Depth::D5, config)?,
        cloudlet_raw(),
        cloudlet_redeye(Depth::D4, config)?,
    ])
}

/// Fractional reduction `1 − with/without`.
pub fn reduction(without: Joules, with: Joules) -> f64 {
    1.0 - with / without
}

/// The §V-B sensor-vs-sensor headline: RedEye Depth1 analog energy against
/// the conventional sensor's 1.1 mJ (digital footprints excluded on both
/// sides, as the paper compares).
///
/// # Errors
///
/// Returns the estimator's error when it refuses `config`.
pub fn sensor_energy_reduction(config: &RedEyeConfig) -> Result<f64> {
    let redeye = estimate::estimate_depth(Depth::D1, config)?
        .energy
        .analog_total();
    Ok(reduction(
        ImageSensor::paper_baseline().analog_energy_per_frame(),
        redeye,
    ))
}

/// The ShiDianNao comparison: RedEye Depth4 vs accelerator + image sensor.
///
/// # Errors
///
/// Returns the estimator's error when it refuses `config`.
pub fn shidiannao_comparison(config: &RedEyeConfig) -> Result<(Joules, Joules, f64)> {
    let sdn = ShiDianNao::paper_configuration().system_energy(&ImageSensor::paper_baseline());
    let redeye = estimate::estimate_depth(Depth::D4, config)?
        .energy
        .analog_total();
    Ok((sdn, redeye, reduction(sdn, redeye)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RedEyeConfig {
        RedEyeConfig::default()
    }

    #[test]
    fn sensor_reduction_near_85_percent() {
        // §V-B: "This presents an 84.5% sensor energy reduction."
        let r = sensor_energy_reduction(&cfg()).unwrap();
        assert!((0.82..0.88).contains(&r), "sensor reduction {r}");
    }

    #[test]
    fn cloudlet_reduction_near_73_percent() {
        // §V-B: "RedEye saves 73.2% of system energy consumption for
        // locally-offloaded execution."
        let without = cloudlet_raw().energy;
        let with = cloudlet_redeye(Depth::D4, &cfg()).unwrap().energy;
        let r = reduction(without, with);
        assert!((0.70..0.76).contains(&r), "cloudlet reduction {r}");
    }

    #[test]
    fn gpu_reduction_near_44_percent() {
        // §V-B: "using RedEye can save 44.3% … of the energy per frame."
        let without = conventional_host(JetsonKind::Gpu).energy;
        let with = redeye_host(JetsonKind::Gpu, Depth::D5, &cfg())
            .unwrap()
            .energy;
        let r = reduction(without, with);
        assert!((0.40..0.48).contains(&r), "GPU reduction {r}");
    }

    #[test]
    fn cpu_reduction_near_45_percent() {
        // §V-B: "… and 45.6% …".
        let without = conventional_host(JetsonKind::Cpu).energy;
        let with = redeye_host(JetsonKind::Cpu, Depth::D5, &cfg())
            .unwrap()
            .energy;
        let r = reduction(without, with);
        assert!((0.42..0.49).contains(&r), "CPU reduction {r}");
    }

    #[test]
    fn gpu_keeps_30fps_cpu_accelerates() {
        // §V-B: "RedEye accelerates execution for the CPU from 1.83 fps to
        // 3.36 fps and maintains GPU timing, i.e., 'real-time' 30 fps."
        let gpu = redeye_host(JetsonKind::Gpu, Depth::D5, &cfg()).unwrap();
        assert!(gpu.pipelined_fps > 28.0, "GPU fps {}", gpu.pipelined_fps);
        let cpu_before = conventional_host(JetsonKind::Cpu);
        let cpu_after = redeye_host(JetsonKind::Cpu, Depth::D5, &cfg()).unwrap();
        assert!((1.7..2.0).contains(&cpu_before.pipelined_fps));
        assert!((3.1..3.6).contains(&cpu_after.pipelined_fps));
    }

    #[test]
    fn shidiannao_reduction_near_59_percent() {
        // §V-B: "system energy consumption is reduced by 59%".
        let (sdn, redeye, r) = shidiannao_comparison(&cfg()).unwrap();
        assert!(sdn > redeye);
        assert!((0.55..0.64).contains(&r), "ShiDianNao reduction {r}");
    }

    #[test]
    fn fig8_has_six_bars_redeye_always_wins() {
        let bars = fig8(&cfg()).unwrap();
        assert_eq!(bars.len(), 6);
        for pair in bars.chunks(2) {
            assert!(
                pair[1].energy < pair[0].energy,
                "{} should beat {}",
                pair[1].name,
                pair[0].name
            );
        }
    }

    #[test]
    fn snrs_the_estimator_refuses_are_errors() {
        for snr in [150.0, f64::NAN] {
            let config = RedEyeConfig {
                snr: redeye_analog::SnrDb::new(snr),
                ..cfg()
            };
            assert!(fig8(&config).is_err(), "fig8 at {snr} dB");
            assert!(sensor_energy_reduction(&config).is_err(), "{snr} dB");
            assert!(shidiannao_comparison(&config).is_err(), "{snr} dB");
        }
    }
}
