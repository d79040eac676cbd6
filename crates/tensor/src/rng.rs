//! Seeded random number generation.
//!
//! All stochastic behaviour in the RedEye reproduction — synthetic datasets,
//! weight initialization, thermal noise, quantizer dithering — flows through
//! this one wrapper so every experiment is reproducible from a single `u64`
//! seed.

use crate::noise_stream::NoiseSource;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A seedable random number generator with the distributions RedEye needs.
///
/// Wraps [`rand::rngs::StdRng`] and adds a Box–Muller standard-normal and a
/// Knuth Poisson sampler so the workspace needs no further RNG dependencies.
///
/// # Example
///
/// ```
/// use redeye_tensor::Rng;
///
/// let mut rng = Rng::seed_from(1);
/// let u = rng.uniform(0.0, 1.0);
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Rng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Splits off an independent generator, advancing this one.
    ///
    /// Useful for handing reproducible sub-streams to parallel workers.
    /// Splitting is a stream boundary: any cached Box–Muller spare from an
    /// odd number of normal draws is discarded, so the parent's post-split
    /// stream depends only on its underlying generator position — not on
    /// whether the pre-split draws consumed their pair fully.
    pub fn split(&mut self) -> Rng {
        self.spare_normal = None;
        Rng::seed_from(self.inner.gen::<u64>())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        let v = lo + (hi - lo) * self.inner.gen::<f32>();
        // `lo + (hi-lo)·u` can round up to exactly `hi` when the range is
        // wide relative to the f32 grid at `hi` (for [2²⁴−1, 2²⁴) roughly
        // half of all draws would); clamp to keep the half-open contract.
        if v >= hi {
            hi.next_down()
        } else {
            v
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// A standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: two uniforms → two independent normals.
        let u1: f32 = self.inner.gen::<f32>().max(f32::MIN_POSITIVE);
        let u2: f32 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.standard_normal()
    }

    /// A standard-normal sample computed end-to-end in `f64`.
    ///
    /// Unlike [`Rng::standard_normal`], the uniforms are drawn at 53-bit
    /// precision and nothing narrows through `f32`, so the tails are not
    /// granular at the `~1e-7` level — this is what large-rate Poisson
    /// approximation needs. Does not touch the `f32` Box–Muller spare.
    fn standard_normal_f64(&mut self) -> f64 {
        let u1: f64 = self.inner.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.inner.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A Poisson sample with rate `lambda`.
    ///
    /// Uses Knuth's product method for small rates and a normal approximation
    /// for `lambda > 64`, which is accurate to well under the shot-noise
    /// magnitudes the sensor model cares about. The approximation runs in
    /// `f64` end-to-end (`standard_normal_f64`): narrowing the normal
    /// through `f32` would quantize the tail at high photon counts and bias
    /// the simulated shot noise.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson rate must be finite and non-negative, got {lambda}"
        );
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let z = self.standard_normal_f64();
            let sample = lambda + lambda.sqrt() * z;
            return sample.max(0.0).round() as u64;
        }
        let limit = (-lambda).exp();
        let mut product = 1.0f64;
        let mut count = 0u64;
        loop {
            product *= f64::from(self.inner.gen::<f32>());
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f32) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen::<f32>() < p
    }
}

impl NoiseSource for Rng {
    fn standard_normal(&mut self) -> f32 {
        Rng::standard_normal(self)
    }

    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        Rng::uniform(self, lo, hi)
    }

    fn chance(&mut self, p: f32) -> bool {
        Rng::chance(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(99);
        let mut b = Rng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0));
        assert!(same.count() < 4);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(3);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = Rng::seed_from(4);
        for &lambda in &[0.5f64, 4.0, 30.0, 500.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            let tolerance = 4.0 * (lambda / n as f64).sqrt() + 0.02;
            assert!(
                (mean - lambda).abs() < tolerance.max(0.05),
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = Rng::seed_from(5);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn standard_normal_f64_moments() {
        let mut rng = Rng::seed_from(41);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal_f64()).collect();
        let mean = samples.iter().sum::<f64>() / f64::from(n);
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn large_lambda_poisson_resolves_fine_tails() {
        // With the f64 path, samples around a large λ take many distinct
        // values near ±4σ, not a handful of f32-quantized steps.
        let mut rng = Rng::seed_from(42);
        let lambda = 1e12f64;
        let sigma = lambda.sqrt();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..256 {
            let s = rng.poisson(lambda);
            distinct.insert(s);
            let z = (s as f64 - lambda) / sigma;
            assert!(z.abs() < 8.0, "sample {s} implausibly far from λ");
        }
        assert!(
            distinct.len() > 250,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn uniform_respects_half_open_contract_at_adversarial_bounds() {
        // At [2²⁴−1, 2²⁴) the f32 grid at `hi` is coarser than the range,
        // so without the clamp roughly half of all draws round up to
        // exactly `hi`; wide symmetric ranges hit the same rounding at the
        // upper bound.
        let mut rng = Rng::seed_from(1234);
        let (lo, hi) = (16_777_215.0f32, 16_777_216.0f32);
        for _ in 0..4096 {
            let v = rng.uniform(lo, hi);
            assert!((lo..hi).contains(&v), "{v} escaped [{lo}, {hi})");
        }
        for _ in 0..4096 {
            let v = rng.uniform(-1.0e30, 1.0e30);
            assert!((-1.0e30..1.0e30).contains(&v), "{v} escaped the range");
        }
    }

    #[test]
    fn split_discards_the_cached_boxmuller_spare() {
        // Two parents at the same seed: `a` holds a cached spare after one
        // scalar normal draw, `b` reaches the identical inner-generator
        // position with the pair fully consumed. Splitting must erase the
        // difference — both the children and the parents' subsequent
        // normal streams have to agree.
        let mut a = Rng::seed_from(64);
        let _ = a.standard_normal();
        let mut b = Rng::seed_from(64);
        let _ = (b.standard_normal(), b.standard_normal());
        assert_eq!(
            a.split().standard_normal(),
            b.split().standard_normal(),
            "split children must agree"
        );
        assert_eq!(
            a.standard_normal(),
            b.standard_normal(),
            "the spare must not leak across a split"
        );
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::seed_from(8);
        let mut child = parent.split();
        // The child stream should not mirror the parent stream.
        let matches = (0..32)
            .filter(|_| parent.uniform(0.0, 1.0) == child.uniform(0.0, 1.0))
            .count();
        assert!(matches < 4);
    }
}
