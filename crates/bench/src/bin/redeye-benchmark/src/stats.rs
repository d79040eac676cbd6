//! Order statistics and process measurements shared by every workload.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), which is how the
/// spread of repeated runs is judged.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| {
        // Python: j = clamp(i*(n+1)//4, 1, n-1), delta = i*(n+1) - 4*j,
        // result = (data[j-1]*(4-delta) + data[j]*delta) / 4.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile of `n` samples that still has at least
/// ten samples beyond it, or `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100 * (n - 10) / n).min(99) as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a 64 fold of one digest into a running fold.
pub fn fold(h: u64, digest: u64) -> u64 {
    digest.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a 64 offset basis: the fold of nothing.
pub const FOLD_START: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 finaliser: one well-mixed word per `(seed, lane)`.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(66), Some(84));
        assert_eq!(tail_percentile(100_000), Some(99));
    }
}
