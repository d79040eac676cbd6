//! Property tests of the fleet engine's determinism contract: a fleet run
//! is a pure function of `(fleet_seed, device_id, frames)` — never of the
//! worker count, which worker runs which task, or which other devices
//! share the fleet.

use proptest::prelude::*;
use redeye_core::{
    compile, CompileOptions, DeviceProfile, DeviceWork, FleetEngine, FleetExecutor, FleetOptions,
    FleetReport, WeightBank,
};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_tensor::{Rng, Tensor};
use std::sync::Arc;

/// The micronet prefix the fleet unit tests use: small enough that a
/// property case finishes in milliseconds, deep enough to cross a conv, a
/// comparator pool, and the SAR readout.
fn fleet_engine(fleet_seed: u64) -> FleetEngine {
    let spec = zoo::micronet(4, 10);
    let prefix = spec.prefix_through("pool1").unwrap();
    let mut rng = Rng::seed_from(17);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
    FleetEngine::new(program, fleet_seed).unwrap()
}

fn frames(n: usize, seed: u64) -> Vec<Arc<Tensor>> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| Arc::new(Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng)))
        .collect()
}

/// The worker counts every fleet run is compared across.
const WORKERS: [usize; 4] = [1, 2, 3, 4];

/// What a fleet run must reproduce bit for bit: the fleet digest, the
/// population energy and every device digest.
fn observed(report: &FleetReport) -> (u64, f64, Vec<u64>) {
    (
        report.digest,
        report.energy.value(),
        report.devices.iter().map(|d| d.digest).collect(),
    )
}

/// Runs `work` at every worker count in [`WORKERS`] and returns the
/// reference observation plus the first worker count that diverged.
fn run_across_workers(
    engine: &FleetEngine,
    work: &[DeviceWork],
) -> ((u64, f64, Vec<u64>), Option<usize>) {
    let run = |workers| {
        let executor = FleetExecutor::with_options(engine.clone(), FleetOptions { workers });
        observed(&executor.run(work).unwrap())
    };
    let want = run(WORKERS[0]);
    let diverged = WORKERS[1..].iter().copied().find(|&w| run(w) != want);
    (want, diverged)
}

proptest! {
    /// The whole-fleet digest, population energy, and per-device digests
    /// are bit-identical across worker counts 1/2/3/4.
    #[test]
    fn fleet_run_invariant_across_workers(
        fleet_seed in 0u64..u64::MAX,
        devices in 2u64..7,
        frames_per_device in 1usize..3,
    ) {
        let engine = fleet_engine(fleet_seed);
        let shared = frames(frames_per_device, fleet_seed ^ 0xF00D);
        let work: Vec<DeviceWork> = (0..devices)
            .map(|device| DeviceWork { device, frames: shared.clone() })
            .collect();
        let (_, diverged) = run_across_workers(&engine, &work);
        prop_assert_eq!(diverged, None);
    }

    /// Skewed device weights: one device carries a burst of frames and the
    /// rest one frame each, so which worker runs which frame differs from
    /// run to run and the heavy device's frames land on several workers.
    /// The fleet is still bit-identical at every worker count, and the
    /// heavy device's position in the fleet changes nothing of its own.
    #[test]
    fn skewed_fleet_run_invariant_across_workers(
        fleet_seed in 0u64..u64::MAX,
        light in 2u64..6,
        burst in 4usize..8,
    ) {
        let engine = fleet_engine(fleet_seed);
        let shared = frames(burst, fleet_seed ^ 0xD00F);
        let heavy = DeviceWork { device: 100, frames: shared.clone() };
        let lights = (0..light).map(|device| DeviceWork { device, frames: shared[..1].to_vec() });
        let first: Vec<DeviceWork> = std::iter::once(heavy.clone()).chain(lights.clone()).collect();
        let last: Vec<DeviceWork> = lights.chain(std::iter::once(heavy)).collect();
        let (head, diverged) = run_across_workers(&engine, &first);
        prop_assert_eq!(diverged, None);
        let (tail, diverged) = run_across_workers(&engine, &last);
        prop_assert_eq!(diverged, None);
        prop_assert_eq!(head.2[0], tail.2[light as usize]);
    }

    /// A device's outcome is independent of fleet composition: running a
    /// device alone yields exactly the frame digests it produces inside a
    /// larger mixed fleet.
    #[test]
    fn device_outcome_independent_of_fleet_composition(
        fleet_seed in 0u64..u64::MAX,
        target in 0u64..40,
        others in 1u64..5,
    ) {
        let engine = fleet_engine(fleet_seed);
        let shared = frames(2, fleet_seed ^ 0xBEEF);
        let solo = vec![DeviceWork { device: target, frames: shared.clone() }];
        // A fleet holding the target plus unrelated neighbors, target last
        // so the scheduler order differs from the solo run.
        let mut crowd: Vec<DeviceWork> = (0..others)
            .map(|i| DeviceWork { device: 1000 + i, frames: shared.clone() })
            .collect();
        crowd.push(DeviceWork { device: target, frames: shared.clone() });

        let run = |work: &[DeviceWork], workers: usize| {
            FleetExecutor::with_options(
                engine.clone(),
                FleetOptions { workers },
            )
            .run(work)
            .unwrap()
        };
        let alone = run(&solo, 1);
        let crowded = run(&crowd, 4);
        let in_crowd = crowded
            .devices
            .iter()
            .find(|d| d.profile.id == target)
            .unwrap();
        prop_assert_eq!(alone.devices[0].digest, in_crowd.digest);
        let solo_frames: Vec<u64> =
            alone.devices[0].frames.iter().map(|f| f.digest).collect();
        let crowd_frames: Vec<u64> =
            in_crowd.frames.iter().map(|f| f.digest).collect();
        prop_assert_eq!(solo_frames, crowd_frames);
    }
}

proptest! {
    /// Device profiles — corner, calibration, and noise seed — are pure
    /// functions of `(fleet_seed, device_id)`: re-deriving one yields the
    /// identical profile, and it never depends on derivation order.
    #[test]
    fn device_profile_is_pure(fleet_seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let a = DeviceProfile::for_device(fleet_seed, id);
        // Derive a pile of unrelated profiles in between.
        for other in 0..16 {
            let _ = DeviceProfile::for_device(fleet_seed, id ^ (1 << other));
        }
        let b = DeviceProfile::for_device(fleet_seed, id);
        prop_assert_eq!(a.corner, b.corner);
        prop_assert_eq!(a.calib.gain.to_bits(), b.calib.gain.to_bits());
        prop_assert_eq!(a.calib.offset.to_bits(), b.calib.offset.to_bits());
        prop_assert_eq!(a.noise_seed, b.noise_seed);
        // Calibration stays inside the documented spread.
        prop_assert!((a.calib.gain - 1.0).abs() <= 0.02 + 1e-6);
        prop_assert!(a.calib.offset.abs() <= 0.005 + 1e-6);
    }

    /// Corner sampling is a pure function of `(fleet_seed, device_id)` and
    /// reacts to the fleet seed (different seeds reshuffle the corner
    /// lottery somewhere in any 64-device window).
    #[test]
    fn corner_sampling_is_pure(fleet_seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        use redeye_analog::ProcessCorner;
        let a = ProcessCorner::for_device(fleet_seed, id);
        let b = ProcessCorner::for_device(fleet_seed, id);
        prop_assert_eq!(a, b);
        let differs = (0..64u64).any(|d| {
            ProcessCorner::for_device(fleet_seed, id.wrapping_add(d))
                != ProcessCorner::for_device(fleet_seed ^ 0x5a5a_5a5a, id.wrapping_add(d))
        });
        prop_assert!(differs, "two fleets sampled identical corner windows");
    }
}
