//! Fleet workload construction for population-scale simulation.
//!
//! The fleet engine in `redeye-core` runs thousands of devices against one
//! shared pack-once engine; this module builds the *inputs* for such a
//! fleet without materializing thousands of frame copies. Devices are
//! assigned one of three capture workloads:
//!
//! - [`WorkloadKind::Continuous`] — the nominal continuous-vision stream;
//! - [`WorkloadKind::LowLight`] — the same scenes at a fraction of the
//!   nominal illumination (small signal against the analog noise floor);
//! - [`WorkloadKind::Privacy`] — scenes pre-degraded by
//!   [`privacy::pixelate`](crate::privacy::pixelate), the proactive §VII
//!   privacy mode.
//!
//! Each kind's frame set is synthesized **once** and shared by `Arc`
//! across every device of that kind, mirroring the engine-side pack-once
//! discipline: a 10 000-device fleet holds three frame sets, not 10 000.
//! Everything is a pure function of the workload seed, so fleet digests
//! stay bit-reproducible.

use crate::privacy::pixelate;
use crate::Result;
use redeye_core::DeviceWork;
use redeye_tensor::{Rng, Tensor};
use std::sync::Arc;

/// The capture workload a fleet device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Nominal continuous-vision capture.
    Continuous,
    /// Low-illumination capture: the same scenes scaled toward the noise
    /// floor.
    LowLight,
    /// Privacy-mode capture: scenes block-pixelated before the pipeline.
    Privacy,
}

impl WorkloadKind {
    /// The deterministic kind assignment for a device: ids cycle
    /// `Continuous, LowLight, Privacy, Continuous, …` so any contiguous
    /// fleet mixes all three.
    pub fn for_device(device_id: u64) -> WorkloadKind {
        match device_id % 3 {
            0 => WorkloadKind::Continuous,
            1 => WorkloadKind::LowLight,
            _ => WorkloadKind::Privacy,
        }
    }
}

/// Knobs for [`fleet_workload`].
#[derive(Debug, Clone, Copy)]
pub struct WorkloadOptions {
    /// Number of devices (ids `0..devices`).
    pub devices: u64,
    /// Frames each device captures.
    pub frames_per_device: usize,
    /// Seed for the synthesized scenes.
    pub seed: u64,
    /// Illumination factor for [`WorkloadKind::LowLight`].
    pub low_light_gain: f32,
    /// Pixelation block size for [`WorkloadKind::Privacy`].
    pub privacy_block: usize,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            devices: 64,
            frames_per_device: 1,
            seed: 0x5eed,
            low_light_gain: 0.12,
            privacy_block: 8,
        }
    }
}

/// Synthesizes one structured base scene: textured background plus a
/// bright foreground square that drifts with the frame index.
fn base_frame(dims: &[usize], frame: usize, rng: &mut Rng) -> Tensor {
    let mut t = Tensor::uniform(dims, 0.05, 0.35, rng);
    let (c, h, w) = (t.dims()[0], t.dims()[1], t.dims()[2]);
    let side = (h.min(w) / 3).max(1);
    let y0 = (frame * 3) % (h - side + 1);
    let x0 = (frame * 5) % (w - side + 1);
    let data = t.as_mut_slice();
    for ch in 0..c {
        for y in y0..y0 + side {
            for x in x0..x0 + side {
                data[ch * h * w + y * w + x] = 0.9;
            }
        }
    }
    t
}

/// Builds the per-device work list for a mixed fleet over `[C, H, W]`
/// frames of shape `dims`.
///
/// All devices of a kind share the *same* `Arc`ed frame tensors; only the
/// `DeviceWork` headers are per-device. The result is a pure function of
/// `dims` and `opts`.
///
/// # Errors
///
/// Propagates [`pixelate`] errors (zero block, non-3D dims).
pub fn fleet_workload(dims: &[usize], opts: &WorkloadOptions) -> Result<Vec<DeviceWork>> {
    let mut rng = Rng::seed_from(opts.seed);
    let mut continuous = Vec::with_capacity(opts.frames_per_device);
    let mut low_light = Vec::with_capacity(opts.frames_per_device);
    let mut privacy = Vec::with_capacity(opts.frames_per_device);
    for frame in 0..opts.frames_per_device {
        let base = base_frame(dims, frame, &mut rng);
        let mut dim = base.clone();
        for v in dim.iter_mut() {
            *v *= opts.low_light_gain;
        }
        privacy.push(Arc::new(pixelate(&base, opts.privacy_block)?));
        low_light.push(Arc::new(dim));
        continuous.push(Arc::new(base));
    }
    Ok((0..opts.devices)
        .map(|device| {
            let frames = match WorkloadKind::for_device(device) {
                WorkloadKind::Continuous => &continuous,
                WorkloadKind::LowLight => &low_light,
                WorkloadKind::Privacy => &privacy,
            };
            DeviceWork {
                device,
                frames: frames.clone(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: [usize; 3] = [3, 32, 32];

    #[test]
    fn kinds_cycle_and_cover_the_fleet() {
        assert_eq!(WorkloadKind::for_device(0), WorkloadKind::Continuous);
        assert_eq!(WorkloadKind::for_device(1), WorkloadKind::LowLight);
        assert_eq!(WorkloadKind::for_device(2), WorkloadKind::Privacy);
        assert_eq!(WorkloadKind::for_device(3), WorkloadKind::Continuous);
        assert_eq!(WorkloadKind::for_device(301), WorkloadKind::LowLight);
    }

    #[test]
    fn workload_shape_and_arc_sharing() {
        let opts = WorkloadOptions {
            devices: 9,
            frames_per_device: 2,
            ..WorkloadOptions::default()
        };
        let work = fleet_workload(&DIMS, &opts).unwrap();
        assert_eq!(work.len(), 9);
        for (i, dw) in work.iter().enumerate() {
            assert_eq!(dw.device, i as u64);
            assert_eq!(dw.frames.len(), 2);
            assert_eq!(dw.frames[0].dims(), &DIMS);
        }
        // Same kind → literally the same tensors, not copies.
        assert!(Arc::ptr_eq(&work[0].frames[0], &work[3].frames[0]));
        assert!(Arc::ptr_eq(&work[1].frames[1], &work[4].frames[1]));
        // Different kinds → different tensors.
        assert!(!Arc::ptr_eq(&work[0].frames[0], &work[1].frames[0]));
    }

    #[test]
    fn kinds_shape_the_signal() {
        let work = fleet_workload(&DIMS, &WorkloadOptions::default()).unwrap();
        let mean = |t: &Tensor| t.iter().sum::<f32>() / t.len() as f32;
        let continuous = &work[0].frames[0];
        let low_light = &work[1].frames[0];
        let privacy = &work[2].frames[0];
        assert!(
            mean(low_light) < 0.5 * mean(continuous),
            "low-light frames must be dim"
        );
        // Pixelated frames are block-constant.
        let first = privacy.at(&[0, 0, 0]).unwrap();
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(privacy.at(&[0, y, x]).unwrap(), first);
            }
        }
        // ...but preserve the scene's mean brightness.
        assert!((mean(privacy) - mean(continuous)).abs() < 1e-5);
    }

    #[test]
    fn workload_is_pure_in_its_seed() {
        let opts = WorkloadOptions::default();
        let a = fleet_workload(&DIMS, &opts).unwrap();
        let b = fleet_workload(&DIMS, &opts).unwrap();
        for (da, db) in a.iter().zip(&b) {
            for (fa, fb) in da.frames.iter().zip(&db.frames) {
                assert_eq!(fa.as_slice(), fb.as_slice());
            }
        }
        let c = fleet_workload(&DIMS, &WorkloadOptions { seed: 99, ..opts }).unwrap();
        assert_ne!(
            a[0].frames[0].as_slice(),
            c[0].frames[0].as_slice(),
            "seed must matter"
        );
    }
}
