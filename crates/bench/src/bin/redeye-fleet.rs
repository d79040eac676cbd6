//! Fleet-scale benchmark: a population of RedEye sensors through the
//! shared pack-once engine, with the cloudlet's queueing view on top.
//!
//! Three sections, all written to `BENCH_fleet.json` as
//! `{name, value, unit}` records ([`redeye_bench::schema`]):
//!
//! - **Setup** (`fleet_setup_naive_64` / `fleet_setup_shared_64`): the cost
//!   of instantiating 64 devices as 64 independent engines (compile-state
//!   packing and verification ×64) versus one [`FleetEngine`] plus 64
//!   lightweight device views — the pack-once payoff, single-threaded.
//! - **Determinism** (`fleet_determinism_<devices>x<frames>_<n>w`): the
//!   same fleet at three worker counts; the binary *asserts* the output
//!   digests match bit-for-bit and prints them. Digests are not records: a
//!   u64 does not fit in a record's f64 value.
//! - **Sweep** (`fleet_<tag>_<n>_*`): population energy, cloudlet tail
//!   latency (p50/p95/p99) and saturation versus fleet size. Devices mix
//!   continuous / low-light / privacy capture workloads; the cloudlet is a
//!   BLE-fed FIFO queue over the measured Jetson GPU suffix time.
//!
//! Usage: `cargo run --release -p redeye-bench --bin redeye-fleet [-- FLAGS]`
//!
//! - `--smoke`: CI-sized run — micronet-scale program, but a ≥1024-device
//!   fleet so the population path is genuinely exercised.
//! - `--workers <n|auto>`: worker threads for the sweep (default `auto`).

use redeye_analog::Seconds;
use redeye_bench::schema::{write_report, Record};
use redeye_bench::workload::{self, parse_workers, wall_ms, FleetScenario};
use redeye_core::{FleetEngine, FleetExecutor, FleetOptions, FleetReport, FrameEngine};
use redeye_sim::{fleet_workload, WorkloadOptions};
use redeye_system::{BleLink, Cloudlet, JetsonHost, JetsonKind};
use std::time::Instant;

/// Fleet seed for every section: fixed so digests are comparable across
/// runs and worker counts.
const FLEET_SEED: u64 = 0xF1EE7;

/// Nominal capture period the fleet's devices free-run at (30 fps); device
/// `d` of `n` starts its capture at phase `d/n` of a period, so arrivals
/// spread over one frame time instead of landing in a single burst.
const FRAME_PERIOD_S: f64 = 1.0 / 30.0;

/// Pack-once payoff: 64 naive per-device engines (each re-packing weights
/// and re-verifying the program) versus one shared [`FleetEngine`] and 64
/// device views. Best-of-`reps`, single thread.
fn bench_setup(records: &mut Vec<Record>, scenario: &FleetScenario, reps: usize) {
    const FLEET: usize = 64;
    let mut naive_ms = f64::INFINITY;
    let mut shared_ms = f64::INFINITY;
    for _ in 0..reps {
        naive_ms = naive_ms.min(wall_ms(|| {
            for d in 0..FLEET as u64 {
                let engine = FrameEngine::new(scenario.program.clone(), FLEET_SEED ^ d);
                engine.verify().expect("program verifies");
                std::hint::black_box(&engine);
            }
        }));
        shared_ms = shared_ms.min(wall_ms(|| {
            let engine =
                FleetEngine::new(scenario.program.clone(), FLEET_SEED).expect("program verifies");
            for d in 0..FLEET as u64 {
                std::hint::black_box(&engine.device(d));
            }
        }));
    }
    println!(
        "setup x{FLEET}: naive {naive_ms:.1} ms | shared pack-once {shared_ms:.1} ms ({:.1}x)",
        naive_ms / shared_ms
    );
    for (path, ms) in [("naive", naive_ms), ("shared", shared_ms)] {
        records.push(Record::new(format!("fleet_setup_{path}_{FLEET}"), ms, "ms"));
    }
}

/// Runs one fleet and returns the report plus wall time.
fn run_fleet(
    engine: &FleetEngine,
    scenario: &FleetScenario,
    devices: u64,
    frames_per_device: usize,
    workers: usize,
) -> (FleetReport, f64) {
    let work = fleet_workload(
        &scenario.input_dims,
        &WorkloadOptions {
            devices,
            frames_per_device,
            ..WorkloadOptions::default()
        },
    )
    .expect("fleet workload builds");
    let executor = FleetExecutor::with_options(engine.clone(), FleetOptions { workers });
    let start = Instant::now();
    let report = executor.run(&work).expect("fleet runs");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (report, ms)
}

/// The bit-identity self-check: the same fleet at 1/2/4 workers must yield
/// the same digest. Panics on mismatch; prints the digests and records
/// each run's wall time and population energy.
fn bench_determinism(
    records: &mut Vec<Record>,
    engine: &FleetEngine,
    scenario: &FleetScenario,
    smoke: bool,
) {
    let (devices, frames_per_device) = if smoke { (32u64, 2usize) } else { (12, 1) };
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let (report, ms) = run_fleet(engine, scenario, devices, frames_per_device, workers);
        let digest = report.digest_hex();
        println!(
            "determinism {devices}x{frames_per_device} @ {workers}w: digest {digest} ({ms:.1} ms)"
        );
        match &reference {
            Some(want) => assert_eq!(
                want, &digest,
                "fleet digest diverged between worker counts — determinism broken"
            ),
            None => reference = Some(digest),
        }
        let name = format!("fleet_determinism_{devices}x{frames_per_device}_{workers}w");
        records.push(Record::new(&name, ms, "ms"));
        records.push(Record::new(
            format!("{name}_energy"),
            report.energy.millis(),
            "mJ",
        ));
    }
}

/// Population metrics vs fleet size: run the fleet, feed every frame's
/// capture-complete time and payload through the BLE-fed cloudlet queue,
/// and report energy, tail latency, and saturation.
fn bench_sweep(
    records: &mut Vec<Record>,
    engine: &FleetEngine,
    scenario: &FleetScenario,
    workers: usize,
    smoke: bool,
) {
    let sizes: &[u64] = if smoke {
        &[64, 256, 1024]
    } else {
        &[16, 64, 128]
    };
    let host = JetsonHost::fit(JetsonKind::Gpu);
    let suffix = host.run_counts(scenario.suffix_macs, scenario.suffix_params);
    let cloudlet = Cloudlet::new(BleLink::paper_characterization(), suffix.time, host.power());
    println!(
        "cloudlet: suffix {:.2} MMACs -> {:.2} ms service per frame",
        scenario.suffix_macs as f64 / 1e6,
        suffix.time.millis()
    );

    for &fleet in sizes {
        let (report, ms) = run_fleet(engine, scenario, fleet, 1, workers);
        // Each device free-runs at 30 fps with a phase set by its position:
        // capture completes at phase + analog frame time.
        let jobs: Vec<(Seconds, u64)> = report
            .devices
            .iter()
            .enumerate()
            .flat_map(|(pos, outcome)| {
                let phase = FRAME_PERIOD_S * pos as f64 / fleet as f64;
                outcome
                    .frames
                    .iter()
                    .map(move |frame| (Seconds::new(phase) + frame.frame_time, frame.payload_bits))
            })
            .collect();
        let queue = cloudlet.simulate(&jobs);
        println!(
            "fleet {fleet}: {} frames in {ms:.1} ms | energy {:.2} mJ | p50 {:.1} ms p95 {:.1} ms p99 {:.1} ms | util {:.2} | digest {}",
            report.frames,
            report.energy.millis(),
            queue.latency.p50.millis(),
            queue.latency.p95.millis(),
            queue.latency.p99.millis(),
            queue.utilization,
            report.digest_hex(),
        );
        // Only the host wall time depends on the worker count; the rest is
        // simulated and identical at any count.
        let name = format!("fleet_{}_{fleet}", scenario.tag);
        records.push(Record::new(format!("{name}_{workers}w"), ms, "ms"));
        for (metric, value, unit) in [
            ("frames", report.frames as f64, "frames"),
            ("energy", report.energy.millis(), "mJ"),
            ("p50", queue.latency.p50.millis(), "ms"),
            ("p95", queue.latency.p95.millis(), "ms"),
            ("p99", queue.latency.p99.millis(), "ms"),
            ("saturation", queue.utilization, "ratio"),
        ] {
            records.push(Record::new(format!("{name}_{metric}"), value, unit));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let workers = parse_workers(&args);

    let scenario = workload::fleet_scenario(smoke);
    println!(
        "fleet scenario {}: {:?} input, suffix {} MACs / {} params, {workers} workers",
        scenario.tag, scenario.input_dims, scenario.suffix_macs, scenario.suffix_params
    );
    let engine = FleetEngine::new(scenario.program.clone(), FLEET_SEED).expect("program verifies");

    let mut records = Vec::new();
    bench_setup(&mut records, &scenario, if smoke { 2 } else { 3 });
    bench_determinism(&mut records, &engine, &scenario, smoke);
    bench_sweep(&mut records, &engine, &scenario, workers, smoke);
    write_report("BENCH_fleet.json", records);
}
