//! The reproduction certificate: every quantitative claim of the paper's
//! evaluation, asserted in one place with its tolerance.
//!
//! Tolerances are deliberate: anchors the model is *calibrated against*
//! must hold tightly (≤2%); *derived* quantities — numbers the paper
//! computes from other numbers, which our models re-derive — get 15%,
//! covering the paper's own rounding and our geometry conventions.

use redeye::analog::{DampingConfig, SnrDb, TunableCap};
use redeye::core::{area, estimate, Depth, RedEyeConfig};
use redeye::system::{scenario, BleLink, ImageSensor, JetsonHost, JetsonKind, ShiDianNao};

fn assert_close(measured: f64, paper: f64, tolerance: f64, what: &str) {
    let rel = (measured - paper).abs() / paper.abs();
    assert!(
        rel <= tolerance,
        "{what}: measured {measured}, paper {paper} (rel err {rel:.3} > {tolerance})"
    );
}

#[test]
fn table1_operation_modes() {
    for (snr, cap_ff, energy_mj) in [
        (40.0, 10.0, 1.4),
        (50.0, 100.0, 14.0),
        (60.0, 1000.0, 140.0),
    ] {
        let damping = DampingConfig::from_snr(SnrDb::new(snr));
        assert_close(
            damping.capacitance().value() * 1e15,
            cap_ff,
            0.001,
            "Table I damping capacitance",
        );
        let config = RedEyeConfig {
            snr: SnrDb::new(snr),
            ..RedEyeConfig::default()
        };
        let est = estimate::estimate_depth(Depth::D5, &config).unwrap();
        assert_close(
            est.energy.analog_total().millis(),
            energy_mj,
            0.15,
            "Table I Depth5 energy",
        );
    }
}

#[test]
fn section_5b_sensor_comparison() {
    // "the analog portion of the image sensor [consumes] 1.1 mJ per frame"
    let sensor = ImageSensor::paper_baseline();
    assert_close(
        sensor.analog_energy_per_frame().millis(),
        1.1,
        0.001,
        "image sensor frame energy",
    );
    // "the processing and quantization of Depth1 on RedEye consumes 170 µJ"
    let d1 = estimate::estimate_depth(Depth::D1, &RedEyeConfig::default()).unwrap();
    assert_close(
        d1.energy.analog_total().micros(),
        170.0,
        0.15,
        "Depth1 energy",
    );
    // "This presents an 84.5% sensor energy reduction."
    assert_close(
        scenario::sensor_energy_reduction(&RedEyeConfig::default()).unwrap(),
        0.845,
        0.05,
        "sensor energy reduction",
    );
}

#[test]
fn section_5b_cloudlet() {
    let ble = BleLink::paper_characterization();
    // "exporting a 227×227 frame will consume 129.42 mJ over 1.54 seconds"
    let raw_bits = ImageSensor::paper_baseline().bits_per_frame();
    assert_close(
        ble.energy(raw_bits).millis(),
        129.42,
        0.001,
        "BLE raw frame energy",
    );
    assert_close(
        ble.time(raw_bits).value(),
        1.54,
        0.001,
        "BLE raw frame time",
    );
    // "RedEye Depth4 output only consumes 33.7 mJ per frame, over 0.40 s"
    let d4 = estimate::estimate_depth(Depth::D4, &RedEyeConfig::default()).unwrap();
    assert_close(
        ble.energy(d4.readout_bits).millis(),
        33.7,
        0.02,
        "BLE Depth4 energy",
    );
    assert_close(
        ble.time(d4.readout_bits).value(),
        0.40,
        0.02,
        "BLE Depth4 time",
    );
    // "RedEye saves 73.2% of system energy consumption"
    let saving = scenario::reduction(
        scenario::cloudlet_raw().energy,
        scenario::cloudlet_redeye(Depth::D4, &RedEyeConfig::default())
            .unwrap()
            .energy,
    );
    assert_close(saving, 0.732, 0.02, "cloudlet system saving");
}

#[test]
fn section_5b_jetson() {
    let gpu = JetsonHost::fit(JetsonKind::Gpu);
    // "consumes 12.2 W over 33 ms, for 406 mJ per frame" (12.2·33 = 402.6)
    assert_close(
        gpu.run_googlenet_full().time.millis(),
        33.0,
        0.001,
        "GPU full time",
    );
    assert_close(
        gpu.run_googlenet_full().energy.millis(),
        406.0,
        0.02,
        "GPU full energy",
    );
    // "reduces the Jetson processing time for the GPU to 18.6 ms"
    assert_close(
        gpu.run_googlenet_suffix(Depth::D5).time.millis(),
        18.6,
        0.001,
        "GPU remainder time",
    );
    let cpu = JetsonHost::fit(JetsonKind::Cpu);
    // "3.1 W over 545 ms, for 1.7 J per frame"
    assert_close(
        cpu.run_googlenet_full().time.millis(),
        545.0,
        0.001,
        "CPU full time",
    );
    assert_close(
        cpu.run_googlenet_full().energy.value(),
        1.7,
        0.02,
        "CPU full energy",
    );
    assert_close(
        cpu.run_googlenet_suffix(Depth::D5).time.millis(),
        297.0,
        0.001,
        "CPU remainder time",
    );
    // "44.3% and 45.6% of the energy per frame"
    let config = RedEyeConfig::default();
    let gpu_saving = scenario::reduction(
        scenario::conventional_host(JetsonKind::Gpu).energy,
        scenario::redeye_host(JetsonKind::Gpu, Depth::D5, &config)
            .unwrap()
            .energy,
    );
    assert_close(gpu_saving, 0.443, 0.05, "GPU system saving");
    let cpu_saving = scenario::reduction(
        scenario::conventional_host(JetsonKind::Cpu).energy,
        scenario::redeye_host(JetsonKind::Cpu, Depth::D5, &config)
            .unwrap()
            .energy,
    );
    assert_close(cpu_saving, 0.456, 0.05, "CPU system saving");
    // "accelerates execution for the CPU from 1.83 fps to 3.36 fps"
    assert_close(
        scenario::conventional_host(JetsonKind::Cpu).pipelined_fps,
        1.83,
        0.05,
        "CPU fps before",
    );
    assert_close(
        scenario::redeye_host(JetsonKind::Cpu, Depth::D5, &config)
            .unwrap()
            .pipelined_fps,
        3.36,
        0.05,
        "CPU fps after",
    );
}

#[test]
fn section_5b_shidiannao() {
    // "144 instances … for 2.18 mJ … over 3.2 mJ per frame [with sensor]"
    let sdn = ShiDianNao::paper_configuration();
    assert_close(sdn.frame_energy().millis(), 2.18, 0.001, "ShiDianNao frame");
    assert_close(
        sdn.system_energy(&ImageSensor::paper_baseline()).millis(),
        3.28,
        0.01,
        "ShiDianNao system",
    );
    // "system energy consumption is reduced by 59%"
    let (_, _, saving) = scenario::shidiannao_comparison(&RedEyeConfig::default()).unwrap();
    assert_close(saving, 0.59, 0.05, "ShiDianNao saving");
}

#[test]
fn section_5b_timing() {
    // "RedEye is not the limiting factor … requiring only 32 ms"
    let d5 = estimate::estimate_depth(Depth::D5, &RedEyeConfig::default()).unwrap();
    assert_close(
        d5.timing.frame_time().millis(),
        32.0,
        0.05,
        "Depth5 frame time",
    );
    // "'real-time' 30 fps"
    assert!(d5.timing.fps() >= 30.0);
}

#[test]
fn section_4a_weight_dac() {
    // "this reduces energy by a factor of 32" (8-bit MAC sampling caps)
    let tc = TunableCap::new(8).unwrap();
    assert_close(tc.capacitor_reduction_factor(), 32.0, 0.01, "DAC reduction");
}

#[test]
fn section_5d_area_and_controller() {
    // "Each column slice is estimated to occupy 0.225 mm², with a low
    //  interconnect complexity of 23 per column … die size of 10.2 × 5.0 mm²,
    //  including the 0.5 × 7 mm² microcontroller and 4.5 × 4.5 mm² pixel array"
    let a = area::AreaEstimate::paper_design();
    assert_eq!(a.columns, 227);
    assert_eq!(a.interconnects / a.columns, 23);
    assert_close(a.die_mm2, 51.0, 0.001, "die area");
    assert_close(a.controller_mm2, 3.5, 0.001, "controller area");
    assert_close(a.pixel_array_mm2, 20.25, 0.001, "pixel array area");
    // "the Cortex-M0+ consumes an additional 12 mW"
    assert_close(
        estimate::controller_power().value() * 1e3,
        12.0,
        0.05,
        "controller power",
    );
    // "RedEye requires 100-kB memory to store features and 9-kB for kernels,
    //  which fit within the 128-kB on-chip SRAM"
    let (feature, kernel, total) = (
        redeye::core::FEATURE_SRAM_BYTES,
        redeye::core::KERNEL_SRAM_BYTES,
        redeye::core::TOTAL_SRAM_BYTES,
    );
    assert_eq!((feature, kernel), (100 * 1024, 9 * 1024));
    assert!(feature + kernel <= total);
}

#[test]
fn fig7c_payload_shape() {
    // "4-bit RedEye operation reduces output data size to nearly half of
    //  the image sensor's data size" (Depth1)
    let d1 = estimate::estimate_depth(Depth::D1, &RedEyeConfig::default()).unwrap();
    let ratio = d1.readout_bits as f64 / ImageSensor::paper_baseline().bits_per_frame() as f64;
    assert!(
        (0.45..0.60).contains(&ratio),
        "Depth1 payload ratio {ratio}"
    );
}

#[test]
fn fig7a_energy_ordering() {
    // Energy grows with depth; Depth1 is the RedEye-alone minimum and
    // beats the conventional sensor.
    let config = RedEyeConfig::default();
    let ests = estimate::estimate_all_depths(&config).unwrap();
    let sensor = ImageSensor::paper_baseline().analog_energy_per_frame();
    assert!(ests[0].1.energy.analog_total() < sensor);
    for pair in ests.windows(2) {
        assert!(pair[1].1.energy.analog_total() > pair[0].1.energy.analog_total());
    }
}
