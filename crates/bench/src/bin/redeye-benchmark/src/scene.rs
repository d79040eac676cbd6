//! The benchmark's own scene generator.
//!
//! It lives here, not in `redeye-sim` or `redeye-bench`, so that edits to
//! those crates cannot change the traffic the benchmark measures. A scene
//! is a textured background in `[0.05, 0.35]` with a bright `0.9` square
//! drifting across it; every fourth frame is scaled by `0.12` (low light).
//! Background and square are piecewise constant on purpose: the plateaus
//! produce the exact comparator ties and forced decisions that uniform
//! noise never does.

use crate::stats::mix;
use redeye_tensor::Tensor;

/// Distinct frames per workload; frame `f` of a run shows `ring[f % RING]`.
pub const RING: usize = 8;

/// Brightness of the drifting square.
const SQUARE: f32 = 0.9;
/// Gain applied to every fourth (low-light) frame.
const LOW_LIGHT: f32 = 0.12;

/// The ring of [`RING`] distinct frames for `seed` at `[c, h, w]`.
pub fn ring(seed: u64, dims: [usize; 3]) -> Vec<Tensor> {
    (0..RING).map(|k| frame(seed, dims, k)).collect()
}

/// Uniform `[0, 1)` from the top 24 bits of a mixed word.
fn unit(word: u64) -> f32 {
    (word >> 40) as f32 / (1u64 << 24) as f32
}

/// Frame `k` of the scene sequence for `seed`.
fn frame(seed: u64, [c, h, w]: [usize; 3], k: usize) -> Tensor {
    let block = (h / 28).max(2);
    let side = (h / 4).max(2);
    let stripe_period = 3 * block;
    let phase = (mix(seed, 1) % stripe_period as u64) as usize;
    // Steps of 1..=3 pixels keep all eight square positions distinct even
    // on the 32-pixel micronet frame (24 free positions per axis).
    let (vx, vy) = (
        1 + (mix(seed, 2) % 3) as usize,
        1 + (mix(seed, 3) % 3) as usize,
    );
    let (x0, y0) = (
        (mix(seed, 4) as usize + k * vx) % (w - side),
        (mix(seed, 5) as usize + k * vy) % (h - side),
    );
    let gain = if k % 4 == 3 { LOW_LIGHT } else { 1.0 };
    let mut data = Vec::with_capacity(c * h * w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let v = if (x0..x0 + side).contains(&x) && (y0..y0 + side).contains(&y) {
                    SQUARE
                } else {
                    let cell =
                        ((ch * (h / block + 1) + y / block) * (w / block + 1) + x / block) as u64;
                    let level = unit(mix(seed ^ 0x0005_ce4e, cell));
                    let stripe = ((x + 2 * y + phase) / stripe_period % 4) as f32 / 3.0;
                    0.05 + 0.30 * (0.7 * level + 0.3 * stripe)
                };
                data.push(gain * v);
            }
        }
    }
    Tensor::from_vec(data, &[c, h, w]).expect("scene volume matches its dims")
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: [usize; 3] = [3, 32, 32];

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(ring(1, DIMS), ring(1, DIMS));
        assert_ne!(ring(1, DIMS), ring(2, DIMS));
        assert_ne!(ring(1, [3, 227, 227]), ring(2, [3, 227, 227]));
    }

    #[test]
    fn ring_frames_are_distinct_and_in_range() {
        for seed in [1, 2, 3, 99] {
            let frames = ring(seed, DIMS);
            for (i, a) in frames.iter().enumerate() {
                for b in &frames[i + 1..] {
                    assert_ne!(a, b, "seed {seed}");
                }
                let lo = if i % 4 == 3 { 0.05 * LOW_LIGHT } else { 0.05 };
                assert!(a.iter().all(|&v| v >= lo * 0.999 && v <= SQUARE));
            }
        }
    }

    #[test]
    fn scenes_have_plateaus() {
        let f = &ring(7, [3, 227, 227])[0];
        let s = f.as_slice();
        let ties = s.windows(2).filter(|p| p[0] == p[1]).count();
        assert!(ties > s.len() / 2, "only {ties} equal neighbours");
    }
}
