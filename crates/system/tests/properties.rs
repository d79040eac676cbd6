//! Property-based tests of the system-level models.

use proptest::prelude::*;
use redeye_analog::SnrDb;
use redeye_core::{Depth, RedEyeConfig};
use redeye_system::{scenario, BleLink, ImageSensor, JetsonHost, JetsonKind, ShiDianNao};

proptest! {
    /// BLE cost is exactly linear in payload bits.
    #[test]
    fn ble_linear(bits_a in 1u64..10_000_000, bits_b in 1u64..10_000_000) {
        let ble = BleLink::paper_characterization();
        let sum = ble.energy(bits_a) + ble.energy(bits_b);
        let joint = ble.energy(bits_a + bits_b);
        prop_assert!((sum.value() - joint.value()).abs() < 1e-12 * joint.value().max(1.0));
        prop_assert!(ble.time(bits_a).value() < ble.time(bits_a + 1).value());
    }

    /// Host time model: more work never takes less time or energy.
    #[test]
    fn host_monotone(macs in 0u64..2_000_000_000, params in 0u64..10_000_000) {
        for kind in [JetsonKind::Gpu, JetsonKind::Cpu] {
            let host = JetsonHost::fit(kind);
            let base = host.run_counts(macs, params);
            let more_macs = host.run_counts(macs + 1_000_000, params);
            let more_params = host.run_counts(macs, params + 1_000);
            prop_assert!(more_macs.time.value() > base.time.value());
            prop_assert!(more_params.energy.value() > base.energy.value());
        }
    }

    /// RedEye always beats the raw cloudlet at every depth and moderate SNR.
    #[test]
    fn cloudlet_always_wins(depth_idx in 0usize..5, snr in 35.0f64..45.0) {
        let config = RedEyeConfig {
            snr: SnrDb::new(snr),
            ..RedEyeConfig::default()
        };
        let raw = scenario::cloudlet_raw();
        let with = scenario::cloudlet_redeye(Depth::ALL[depth_idx], &config).unwrap();
        prop_assert!(with.energy < raw.energy, "{}", with.name);
    }

    /// Sensor model payload identities hold for any geometry.
    #[test]
    fn sensor_payload_identity(side in 8usize..1000, channels in 1usize..4, bits in 1u32..16) {
        let mut sensor = ImageSensor::paper_baseline();
        (sensor.side, sensor.channels, sensor.bits) = (side, channels, bits);
        prop_assert_eq!(
            sensor.bits_per_frame(),
            (side * side * channels) as u64 * u64::from(bits)
        );
    }

    /// Reduction is antisymmetric-ish: reducing to the same energy is 0.
    #[test]
    fn reduction_identities(mj in 0.1f64..1000.0) {
        let e = redeye_analog::Joules::from_milli(mj);
        prop_assert!(scenario::reduction(e, e).abs() < 1e-12);
        let half = e * 0.5;
        prop_assert!((scenario::reduction(e, half) - 0.5).abs() < 1e-12);
    }
}

#[test]
fn shidiannao_patch_tiling_scales_with_stride() {
    let base = ShiDianNao::paper_configuration();
    let mut fine = base;
    fine.stride = 8;
    assert!(fine.patch_instances() > base.patch_instances());
}

#[test]
fn image_sensor_struct_is_plain_data() {
    // The baseline is serde-round-trippable configuration data.
    let sensor = ImageSensor::paper_baseline();
    let json = serde_json::to_string(&sensor).unwrap();
    let back: ImageSensor = serde_json::from_str(&json).unwrap();
    assert_eq!(back, sensor);
}
