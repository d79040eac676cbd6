//! Statistical quality tests for the counter-based noise streams.
//!
//! The unit tests in `noise_stream.rs` pin the determinism contracts
//! (same-site reproducibility, partition invariance); this suite checks that
//! the *distributions* are right: batched standard-normal fills have the
//! moments of `N(0, 1)`, per-site scalar draws agree with them, distinct
//! sites and substreams are uncorrelated, and per-site uniforms are flat.

use redeye_tensor::{NoiseSource, NoiseStream};

const N: usize = 100_000;

/// The standard normals of elements `[first, first + len)` of `stream`'s
/// plane: unit noise added over zeros.
fn normals(stream: &NoiseStream, first: u64, len: usize) -> Vec<f32> {
    let mut xs = vec![0.0f32; len];
    stream.add_scaled_normal(first, 1.0, &mut xs);
    xs
}

fn mean(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
}

fn variance(xs: &[f32], mu: f64) -> f64 {
    xs.iter().map(|&x| (f64::from(x) - mu).powi(2)).sum::<f64>() / xs.len() as f64
}

fn correlation(a: &[f32], b: &[f32]) -> f64 {
    let (ma, mb) = (mean(a), mean(b));
    let cov: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - ma) * (f64::from(y) - mb))
        .sum::<f64>()
        / a.len() as f64;
    cov / (variance(a, ma).sqrt() * variance(b, mb).sqrt())
}

#[test]
fn batched_fill_has_standard_normal_moments() {
    let xs = normals(&NoiseStream::new(101), 0, N);
    let mu = mean(&xs);
    let var = variance(&xs, mu);
    assert!(mu.abs() < 0.02, "mean {mu}");
    assert!((var - 1.0).abs() < 0.03, "variance {var}");
    // Third moment vanishes for a symmetric distribution.
    let skew: f64 = xs.iter().map(|&x| f64::from(x).powi(3)).sum::<f64>() / N as f64;
    assert!(skew.abs() < 0.05, "skewness {skew}");
    // Tails exist but are not fat: |z| > 4 is ~6e-5 of draws.
    let extreme = xs.iter().filter(|&&x| x.abs() > 4.0).count();
    assert!(extreme < 30, "|z|>4 count {extreme}");
}

#[test]
fn per_site_scalar_draws_have_standard_normal_moments() {
    let stream = NoiseStream::new(102);
    let xs: Vec<f32> = (0..N as u64)
        .map(|site| stream.at(site).standard_normal())
        .collect();
    let mu = mean(&xs);
    let var = variance(&xs, mu);
    assert!(mu.abs() < 0.02, "mean {mu}");
    assert!((var - 1.0).abs() < 0.03, "variance {var}");
}

#[test]
fn adjacent_sites_are_uncorrelated() {
    // Draw one normal per site and correlate site i against site i+1 —
    // a lag-1 autocorrelation test over the site id, the axis the
    // column-parallel executor shards on.
    let stream = NoiseStream::new(103);
    let xs: Vec<f32> = (0..=N as u64)
        .map(|site| stream.at(site).standard_normal())
        .collect();
    let r = correlation(&xs[..N], &xs[1..]);
    assert!(r.abs() < 0.02, "lag-1 site correlation {r}");
}

#[test]
fn sibling_substreams_are_uncorrelated() {
    let root = NoiseStream::new(104);
    let a = normals(&root.substream(0), 0, N);
    let b = normals(&root.substream(1), 0, N);
    let r = correlation(&a, &b);
    assert!(r.abs() < 0.02, "substream correlation {r}");
}

#[test]
fn successive_draws_within_a_site_are_uncorrelated() {
    let stream = NoiseStream::new(105);
    let mut firsts = vec![0.0f32; N / 4];
    let mut seconds = vec![0.0f32; N / 4];
    for site in 0..N as u64 / 4 {
        let mut rng = stream.at(site);
        // Draws 1 and 3 come from different Box–Muller evaluations.
        firsts[site as usize] = rng.standard_normal();
        let _ = rng.standard_normal();
        seconds[site as usize] = rng.standard_normal();
    }
    let r = correlation(&firsts, &seconds);
    assert!(r.abs() < 0.03, "within-site draw correlation {r}");
}

#[test]
fn per_site_uniform_draws_are_flat() {
    let stream = NoiseStream::new(106);
    let xs: Vec<f32> = (0..N as u64)
        .map(|site| stream.at(site).uniform(0.0, 1.0))
        .collect();
    let mu = mean(&xs);
    let var = variance(&xs, mu);
    assert!((mu - 0.5).abs() < 0.005, "mean {mu}");
    assert!((var - 1.0 / 12.0).abs() < 0.002, "variance {var}");
    // Decile histogram deviates from uniform by < 5% per bin.
    let mut bins = [0usize; 10];
    for &x in &xs {
        bins[((x * 10.0) as usize).min(9)] += 1;
    }
    for (i, &b) in bins.iter().enumerate() {
        let frac = b as f64 / N as f64;
        assert!((frac - 0.1).abs() < 0.005, "bin {i}: {frac}");
    }
}

#[test]
fn threaded_shards_reproduce_the_serial_fill() {
    // The end-to-end property the executor depends on: filling a plane in
    // parallel bands (even offsets) is bit-identical to the serial fill.
    let stream = NoiseStream::new(107);
    let serial = normals(&stream, 0, 64 * 1024 + 3);
    let mut sharded = vec![0.0f32; serial.len()];
    let chunk = 9 * 1024 + 2; // even → pair-aligned band starts
    redeye_tensor::par::fan_out(sharded.chunks_mut(chunk).enumerate(), |(t, band)| {
        stream.add_scaled_normal((t * chunk) as u64, 1.0, band);
    });
    assert_eq!(serial, sharded);
}
