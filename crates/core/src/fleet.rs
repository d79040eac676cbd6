//! Fleet-scale sensor simulation: thousands of RedEye devices as
//! lightweight views over one shared, pack-once [`FrameEngine`].
//!
//! The paper's deployment story is a *population* of sensors feeding a
//! cloudlet, not one camera. Simulating that population naively builds one
//! engine per device — re-cloning the program, re-packing the f32
//! weight buffers, re-deriving the SAR bit-weight table, and re-running
//! static verification a thousand times over, even though devices differ
//! only in fabrication corner, calibration trim, and noise seed. This
//! module splits those concerns the same way [`FrameEngine`]/[`FrameCtx`]
//! split engine and frame state:
//!
//! - [`FleetEngine`] — one compiled, verified, **pack-once** engine behind
//!   an `Arc`, shared read-only by every device and worker;
//! - [`DeviceProfile`] — the per-device physics: a [`ProcessCorner`]
//!   drawn per §IV-B, gain/offset calibration trim, and a device noise
//!   seed, all **pure functions of `(fleet_seed, device_id)`**;
//! - [`DeviceCtx`] — a device view binding the shared engine to one
//!   profile (a few dozen bytes, built on demand);
//! - [`FleetExecutor`] — runs heterogeneous device×frame tasks over the
//!   task pool ([`crate::pool`]), bit-identical at any worker count and
//!   whichever worker runs which task.
//!
//! Determinism is the load-bearing property: a device's output depends
//! only on `(program, fleet_seed, device_id, frame, input)`. The fleet
//! report therefore carries FNV-64 digests at frame, device, and fleet
//! granularity, so "bit-identical across worker counts" is a one-integer
//! comparison even for fleets too large to retain feature tensors.

use crate::executor::{FrameCtx, FrameEngine, FrameOutput};
use crate::pool::{auto_workers, run_tasks};
use crate::{Program, Result};
use redeye_analog::{Joules, ProcessCorner, Seconds};
use redeye_tensor::{NoiseStream, Tensor};
use std::sync::Arc;

/// Per-device calibration trim: the residual gain/offset error left after
/// the §IV-A calibration loop, applied to the captured frame before the
/// analog pipeline (the programmable-gain stage sits in front of the MAC
/// array).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCalib {
    /// Multiplicative gain trim (1.0 = perfectly calibrated).
    pub gain: f32,
    /// Additive dark-level offset in signal units (0.0 = none).
    pub offset: f32,
}

impl DeviceCalib {
    /// The perfectly calibrated reference device.
    pub const UNITY: DeviceCalib = DeviceCalib {
        gain: 1.0,
        offset: 0.0,
    };

    /// Whether this trim is the exact identity (in which case the input
    /// tensor is used untouched — bit-identical to a non-fleet run).
    fn is_unity(self) -> bool {
        self.gain == 1.0 && self.offset == 0.0
    }
}

/// Residual gain spread after calibration (±2% full range, uniform).
const GAIN_SPREAD: f32 = 0.02;
/// Residual dark-offset spread in signal units (±0.5% full range).
const OFFSET_SPREAD: f32 = 0.005;

/// Everything that distinguishes one fleet device from another: identity,
/// fabrication corner, calibration trim, and the seed of its private noise
/// stream. A **pure function** of `(fleet_seed, device_id)` — no shared
/// RNG, no sampling order — so any worker can materialize any device's
/// profile at any time and get the same physics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device identity within the fleet.
    pub id: u64,
    /// Fabrication/temperature corner (§IV-B), TT-weighted across a fleet.
    pub corner: ProcessCorner,
    /// Residual calibration trim applied to captured frames.
    pub calib: DeviceCalib,
    /// Seed of the device's private counter-based noise stream.
    pub noise_seed: u64,
}

/// SplitMix64 finalizer: one well-mixed word per `(seed, id, lane)`.
fn mix64(seed: u64, id: u64, lane: u64) -> u64 {
    let mut z =
        seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a mixed word to a uniform f32 in `[-1, 1)`.
fn signed_unit(word: u64) -> f32 {
    // 24 mantissa-sized bits → [0, 1) exactly representable, then shift.
    let u = (word >> 40) as f32 / (1u64 << 24) as f32;
    2.0 * u - 1.0
}

impl DeviceProfile {
    /// Samples device `id`'s profile in the fleet seeded by `fleet_seed`.
    pub fn for_device(fleet_seed: u64, id: u64) -> DeviceProfile {
        DeviceProfile {
            id,
            corner: ProcessCorner::for_device(fleet_seed, id),
            calib: DeviceCalib {
                gain: 1.0 + GAIN_SPREAD * signed_unit(mix64(fleet_seed, id, 1)),
                offset: OFFSET_SPREAD * signed_unit(mix64(fleet_seed, id, 2)),
            },
            noise_seed: mix64(fleet_seed, id, 0),
        }
    }

    /// The idealized reference device: typical corner, unity calibration,
    /// and a noise seed equal to `fleet_seed` itself — so its output is
    /// bit-identical to a plain (non-fleet) engine seeded the same way.
    /// Used by determinism tests and as the "golden" device.
    pub fn reference(fleet_seed: u64, id: u64) -> DeviceProfile {
        DeviceProfile {
            id,
            corner: ProcessCorner::TT,
            calib: DeviceCalib::UNITY,
            noise_seed: fleet_seed,
        }
    }

    /// Amplitude factor on every layer-noise σ: the corner's thermal noise
    /// *power* ratio as an amplitude ratio (√). Exactly 1.0 at TT.
    fn noise_sigma_scale(&self) -> f32 {
        let p = self.corner.noise_power_factor();
        if p == 1.0 {
            1.0
        } else {
            p.sqrt() as f32
        }
    }
}

/// The shared, immutable, pack-once engine of an entire fleet: one
/// compiled program, one set of packed f32 weight buffers, one SAR
/// bit-weight table, one *verified* status — reference-counted across all
/// workers. Per-device state lives in [`DeviceProfile`] (a few dozen
/// bytes); building a [`DeviceCtx`] allocates nothing program-sized.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    engine: Arc<FrameEngine>,
    fleet_seed: u64,
}

impl FleetEngine {
    /// Compiles the fleet's shared engine from `program`, packing weights
    /// once and verifying eagerly (a fleet should fail before it spawns a
    /// thousand devices, not on the first frame).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Verify`] if the program fails static
    /// verification.
    pub fn new(program: Program, fleet_seed: u64) -> Result<FleetEngine> {
        let engine = FrameEngine::new(program, fleet_seed);
        engine.verify()?;
        Ok(FleetEngine {
            engine: Arc::new(engine),
            fleet_seed,
        })
    }

    /// The shared engine.
    pub fn engine(&self) -> &FrameEngine {
        &self.engine
    }

    /// The fleet seed every device profile derives from.
    pub fn fleet_seed(&self) -> u64 {
        self.fleet_seed
    }

    /// A device view for `id`: profile sampled per the fleet seed, engine
    /// shared by reference.
    pub fn device(&self, id: u64) -> DeviceCtx {
        self.device_from(DeviceProfile::for_device(self.fleet_seed, id))
    }

    /// The idealized reference device (see [`DeviceProfile::reference`]):
    /// bit-identical to a plain engine run with the fleet seed.
    pub fn reference_device(&self, id: u64) -> DeviceCtx {
        self.device_from(DeviceProfile::reference(self.fleet_seed, id))
    }

    /// A device view with an explicit profile.
    pub fn device_from(&self, profile: DeviceProfile) -> DeviceCtx {
        DeviceCtx {
            engine: Arc::clone(&self.engine),
            root: NoiseStream::new(profile.noise_seed),
            profile,
        }
    }
}

/// One simulated device: the shared engine plus this device's profile and
/// private noise stream. Cheap to build (no program-sized allocation), so
/// fleet workers materialize device views per task.
#[derive(Debug)]
pub struct DeviceCtx {
    engine: Arc<FrameEngine>,
    profile: DeviceProfile,
    root: NoiseStream,
}

/// Reusable per-worker scratch for fleet execution: one [`FrameCtx`]
/// (GEMM workspace) plus the calibrated-input staging tensor. One scratch
/// serves any number of devices sequentially.
#[derive(Debug, Default)]
pub struct DeviceScratch {
    ctx: FrameCtx,
    calibrated: Option<Tensor>,
}

impl DeviceScratch {
    /// Fresh, empty scratch; buffers grow to the program's high-water mark
    /// on first use.
    pub fn new() -> DeviceScratch {
        DeviceScratch::default()
    }
}

/// One frame through one device: the raw engine output plus the
/// corner-scaled physics and the frame digest.
#[derive(Debug, Clone)]
pub struct DeviceFrame {
    /// The engine's frame output (features, codes, nominal ledger).
    pub output: FrameOutput,
    /// Frame energy at the device's corner (analog energy by the power
    /// factor, controller energy by the power and timing factors).
    pub energy: Joules,
    /// Frame time at the device's corner (by the timing factor).
    pub frame_time: Seconds,
    /// Bits the sensor radios out for this frame (the ADC readout).
    pub payload_bits: u64,
    /// FNV-64 digest over the frame's features and codes.
    pub digest: u64,
}

impl DeviceCtx {
    /// This device's sampled profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Runs frame `frame` of `input` through this device: calibration trim
    /// on the way in, corner-scaled noise during the analog pass,
    /// corner-scaled time/energy on the way out.
    ///
    /// A pure function of `(program, fleet_seed, device_id, frame, input)`
    /// — scheduling, worker identity, and scratch history cannot change the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates the engine's verification, shape and non-finite pixel
    /// errors.
    pub fn run_frame(
        &self,
        frame: u64,
        input: &Tensor,
        scratch: &mut DeviceScratch,
    ) -> Result<DeviceFrame> {
        let calib = self.profile.calib;
        let (output, cost) = if calib.is_unity() {
            // Reference devices skip the staging copy entirely, so the
            // fleet path stays bit-identical to the plain engine.
            self.engine.run_frame_with(
                &self.root,
                self.profile.noise_sigma_scale(),
                frame,
                input,
                &mut scratch.ctx,
            )?
        } else {
            let staged = match &mut scratch.calibrated {
                Some(t) if t.dims() == input.dims() => t,
                slot => slot.insert(Tensor::zeros(input.dims())),
            };
            for (dst, &src) in staged.as_mut_slice().iter_mut().zip(input.iter()) {
                *dst = calib.gain * src + calib.offset;
            }
            self.engine.run_frame_with(
                &self.root,
                self.profile.noise_sigma_scale(),
                frame,
                staged,
                &mut scratch.ctx,
            )?
        };
        let (ledger, timing) = cost.at_corner(self.profile.corner);
        let energy = ledger.total();
        let frame_time = timing.frame_time();
        let payload_bits = output.ledger.readout_bits;
        let digest = frame_digest(&output);
        Ok(DeviceFrame {
            output,
            energy,
            frame_time,
            payload_bits,
            digest,
        })
    }
}

/// FNV-1a 64 over a byte.
fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds a little-endian u32 into an FNV-1a 64 state.
fn fnv_u32(mut h: u64, v: u32) -> u64 {
    for b in v.to_le_bytes() {
        h = fnv_byte(h, b);
    }
    h
}

/// FNV-64 digest of one frame's observable output: every feature's exact
/// bit pattern, every ADC code, and the forced/clip diagnostics. Two
/// frames digest equal iff the host would receive identical data.
pub fn frame_digest(out: &FrameOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in out.features.iter() {
        h = fnv_u32(h, v.to_bits());
    }
    for &c in &out.codes {
        h = fnv_u32(h, c);
    }
    h = fnv_u32(h, out.forced as u32);
    h = fnv_u32(h, out.rail_clips as u32);
    h
}

/// The frame stream of one device in a fleet run: device id plus the
/// captured inputs it processes, in capture order. Inputs are `Arc`-shared
/// so a thousand devices watching similar scenes cost one tensor each, not
/// a thousand.
#[derive(Debug, Clone)]
pub struct DeviceWork {
    /// Device identity (selects the profile).
    pub device: u64,
    /// Captured frames, in order; frame `j` runs as frame number `j`.
    pub frames: Vec<Arc<Tensor>>,
}

/// Fleet execution knobs: the worker pool size.
#[derive(Debug, Clone, Copy)]
pub struct FleetOptions {
    /// Worker threads; defaults to [`auto_workers`].
    pub workers: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            workers: auto_workers(),
        }
    }
}

/// Per-frame summary retained in the fleet report (features themselves are
/// digested, not retained — a thousand-device fleet must not hold a
/// thousand feature tensors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStat {
    /// Corner-scaled frame time.
    pub frame_time: Seconds,
    /// Corner-scaled frame energy.
    pub energy: Joules,
    /// ADC readout bits radioed to the host.
    pub payload_bits: u64,
    /// Forced comparator decisions this frame.
    pub forced: u64,
    /// Lower-rail clips this frame.
    pub rail_clips: u64,
    /// FNV-64 digest of the frame's features/codes.
    pub digest: u64,
}

/// One device's outcome: its sampled profile and per-frame summaries.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// The device's sampled physics.
    pub profile: DeviceProfile,
    /// Frame summaries in capture order.
    pub frames: Vec<FrameStat>,
    /// FNV-64 fold of the device's frame digests (capture order).
    pub digest: u64,
}

/// The population-level result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-device outcomes, in submission order.
    pub devices: Vec<DeviceOutcome>,
    /// Total frames executed.
    pub frames: u64,
    /// Population analog+controller energy (corner-scaled, summed in
    /// device/frame order — deterministic).
    pub energy: Joules,
    /// Total bits the population radios to the cloudlet.
    pub payload_bits: u64,
    /// Always 0: a stub kept only for the repository benchmark package,
    /// which still reads it. Tasks are claimed from one shared cursor, so
    /// none is ever placed on one worker and run by another.
    pub steals: u64,
    /// Fleet digest: FNV-64 fold of the device digests in device order.
    /// Equal across worker counts and schedules by construction.
    pub digest: u64,
}

impl FleetReport {
    /// The fleet digest as fixed-width hex (for reports and logs).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// One device×frame task for the pool.
struct FleetTask {
    device_pos: usize,
    device_id: u64,
    frame: u64,
    input: Arc<Tensor>,
}

/// Runs fleets of devices over the shared engine on the task pool.
#[derive(Debug, Clone)]
pub struct FleetExecutor {
    engine: FleetEngine,
    opts: FleetOptions,
}

impl FleetExecutor {
    /// A fleet executor with default options (auto worker count).
    pub fn new(engine: FleetEngine) -> FleetExecutor {
        FleetExecutor::with_options(engine, FleetOptions::default())
    }

    /// A fleet executor with an explicit worker count.
    pub fn with_options(engine: FleetEngine, opts: FleetOptions) -> FleetExecutor {
        FleetExecutor { engine, opts }
    }

    /// The shared fleet engine.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Executes every device's frame stream and aggregates the population
    /// report. Device×frame tasks spread over the task pool; results are
    /// re-sequenced into submission order, so the report — and its digest
    /// — is bit-identical at any worker count and under any schedule.
    ///
    /// # Errors
    ///
    /// Returns the first (in submission order) frame error, if any frame
    /// fails shape checks or verification, or [`CoreError::WorkerPanic`]
    /// if its task panicked.
    ///
    /// [`CoreError::WorkerPanic`]: crate::CoreError::WorkerPanic
    pub fn run(&self, work: &[DeviceWork]) -> Result<FleetReport> {
        let mut tasks = Vec::with_capacity(work.iter().map(|w| w.frames.len()).sum());
        for (device_pos, w) in work.iter().enumerate() {
            for (j, input) in w.frames.iter().enumerate() {
                tasks.push(FleetTask {
                    device_pos,
                    device_id: w.device,
                    frame: j as u64,
                    input: Arc::clone(input),
                });
            }
        }
        let engine = &self.engine;
        let results = run_tasks(
            &tasks,
            self.opts.workers,
            |_| DeviceScratch::new(),
            |scratch, task| {
                let device = engine.device(task.device_id);
                device
                    .run_frame(task.frame, &task.input, scratch)
                    .map(|f| FrameStat {
                        frame_time: f.frame_time,
                        energy: f.energy,
                        payload_bits: f.payload_bits,
                        forced: f.output.forced,
                        rail_clips: f.output.rail_clips,
                        digest: f.digest,
                    })
            },
        );

        // Re-assemble per device, in submission order (tasks are
        // device-major, so each device's frames are contiguous).
        let mut devices: Vec<DeviceOutcome> = work
            .iter()
            .map(|w| DeviceOutcome {
                profile: DeviceProfile::for_device(engine.fleet_seed(), w.device),
                frames: Vec::with_capacity(w.frames.len()),
                digest: 0xcbf2_9ce4_8422_2325,
            })
            .collect();
        let mut energy = Joules::zero();
        let mut payload_bits = 0u64;
        let mut frames = 0u64;
        for (task, result) in tasks.iter().zip(results) {
            let stat = result??;
            let outcome = &mut devices[task.device_pos];
            outcome.digest = fnv_u32(outcome.digest, (stat.digest >> 32) as u32);
            outcome.digest = fnv_u32(outcome.digest, stat.digest as u32);
            outcome.frames.push(stat);
            energy += stat.energy;
            payload_bits += stat.payload_bits;
            frames += 1;
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for d in &devices {
            digest = fnv_u32(digest, (d.digest >> 32) as u32);
            digest = fnv_u32(digest, d.digest as u32);
        }
        Ok(FleetReport {
            devices,
            frames,
            energy,
            payload_bits,
            steals: 0,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use crate::executor::Executor;
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    fn micronet_program() -> Program {
        let spec = zoo::micronet(4, 10);
        let prefix = spec.prefix_through("pool1").unwrap();
        let mut rng = Rng::seed_from(17);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        compile(&prefix, &mut bank, &CompileOptions::default()).unwrap()
    }

    fn some_work(devices: u64, frames_each: usize) -> Vec<DeviceWork> {
        let input = Arc::new(Tensor::full(&[3, 32, 32], 0.5));
        (0..devices)
            .map(|device| DeviceWork {
                device,
                frames: vec![Arc::clone(&input); frames_each],
            })
            .collect()
    }

    #[test]
    fn reference_device_matches_plain_engine() {
        let program = micronet_program();
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let want = Executor::new(program.clone(), 99).execute(&input).unwrap();
        let fleet = FleetEngine::new(program, 99).unwrap();
        let device = fleet.reference_device(0);
        let mut scratch = DeviceScratch::new();
        let got = device.run_frame(0, &input, &mut scratch).unwrap();
        assert_eq!(want.features, got.output.features);
        assert_eq!(want.codes, got.output.codes);
        assert!(want.ledger == got.output.ledger);
        // TT corner scales by exactly 1.0.
        assert_eq!(got.energy.value(), got.output.ledger.total().value());
        assert_eq!(got.frame_time.value(), got.output.elapsed.value());
    }

    #[test]
    fn device_outcome_is_pure_in_seed_and_id() {
        let program = micronet_program();
        let fleet = FleetEngine::new(program, 7).unwrap();
        let input = Tensor::full(&[3, 32, 32], 0.4);
        let mut scratch = DeviceScratch::new();
        // Same device, fresh context, interleaved other devices: identical.
        let a = fleet.device(5).run_frame(0, &input, &mut scratch).unwrap();
        let _ = fleet.device(2).run_frame(0, &input, &mut scratch).unwrap();
        let b = fleet.device(5).run_frame(0, &input, &mut scratch).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.output.features, b.output.features);
        // Different devices draw different noise.
        let c = fleet.device(6).run_frame(0, &input, &mut scratch).unwrap();
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn fleet_run_is_bit_identical_across_workers() {
        let program = micronet_program();
        let fleet = FleetEngine::new(program, 11).unwrap();
        let work = some_work(6, 2);
        let mut reference: Option<FleetReport> = None;
        for workers in [1usize, 2, 3, 4] {
            let exec = FleetExecutor::with_options(fleet.clone(), FleetOptions { workers });
            let report = exec.run(&work).unwrap();
            assert_eq!(report.frames, 12);
            match &reference {
                Some(want) => {
                    assert_eq!(want.digest, report.digest, "{workers} workers");
                    assert_eq!(
                        want.energy.value(),
                        report.energy.value(),
                        "{workers} workers"
                    );
                }
                None => reference = Some(report),
            }
        }
    }

    #[test]
    fn corner_physics_scales_energy_and_time() {
        let program = micronet_program();
        let fleet = FleetEngine::new(program, 3).unwrap();
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let mut scratch = DeviceScratch::new();
        // Find a non-TT device in the first few ids (10% each corner).
        let off_tt = (0..200)
            .map(|id| fleet.device(id))
            .find(|d| d.profile().corner != ProcessCorner::TT)
            .expect("some off-corner device in 200");
        let frame = off_tt.run_frame(0, &input, &mut scratch).unwrap();
        let corner = off_tt.profile().corner;
        let (pf, tf) = (corner.power_factor(), corner.timing_factor());
        // Analog energy scales by the power factor, time by the timing
        // factor, and the time-proportional controller energy by both.
        let nominal = &frame.output.ledger;
        let want_e = nominal.analog_total().value() * pf + nominal.controller.value() * pf * tf;
        let want_t = frame.output.elapsed.value() * tf;
        assert!((frame.energy.value() / want_e - 1.0).abs() < 1e-12);
        assert!((frame.frame_time.value() / want_t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_engine_rejects_bad_programs_eagerly() {
        let mut program = micronet_program();
        if let crate::Instruction::Conv { codes, .. } = &mut program.instructions[0] {
            codes[0] = 10_000;
        }
        assert!(FleetEngine::new(program, 1).is_err());
    }

    #[test]
    fn profiles_vary_across_a_fleet() {
        let mut gains = std::collections::BTreeSet::new();
        for id in 0..100u64 {
            let p = DeviceProfile::for_device(5, id);
            assert_eq!(p, DeviceProfile::for_device(5, id), "purity");
            assert!(
                (0.95..=1.05).contains(&p.calib.gain),
                "gain {}",
                p.calib.gain
            );
            assert!(p.calib.offset.abs() <= 0.01, "offset {}", p.calib.offset);
            gains.insert(p.calib.gain.to_bits());
        }
        assert!(gains.len() > 50, "calibration trim barely varies");
    }
}
