//! Classification metrics.

use redeye_tensor::Tensor;

/// Whether the ground-truth `label` appears in the top `k` scores of
/// `scores` (the paper's Top-5 metric with `k = 5`).
fn top_k_correct(scores: &Tensor, label: usize, k: usize) -> bool {
    scores.top_k(k).contains(&label)
}

/// Running Top-k accuracy accumulator.
///
/// # Example
///
/// ```
/// use redeye_dataset::metrics::TopKAccuracy;
/// use redeye_tensor::Tensor;
///
/// let mut acc = TopKAccuracy::new(1);
/// acc.observe(&Tensor::from_vec(vec![0.1, 0.9], &[2]).unwrap(), 1);
/// acc.observe(&Tensor::from_vec(vec![0.8, 0.2], &[2]).unwrap(), 1);
/// assert_eq!(acc.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKAccuracy {
    k: usize,
    correct: u64,
    total: u64,
}

impl TopKAccuracy {
    /// Creates an accumulator for Top-`k` accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopKAccuracy {
            k,
            correct: 0,
            total: 0,
        }
    }

    /// Records one prediction.
    pub fn observe(&mut self, scores: &Tensor, label: usize) {
        self.total += 1;
        if top_k_correct(scores, label, self.k) {
            self.correct += 1;
        }
    }

    /// Merges another accumulator (for parallel evaluation shards).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators use different `k`.
    pub fn merge(&mut self, other: &TopKAccuracy) {
        assert_eq!(self.k, other.k, "cannot merge different-k accumulators");
        self.correct += other.correct;
        self.total += other.total;
    }

    /// The accuracy so far (0 when nothing observed).
    pub fn accuracy(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn top1_vs_top5() {
        let s = scores(&[0.1, 0.2, 0.3, 0.15, 0.05, 0.2]);
        assert!(top_k_correct(&s, 2, 1));
        assert!(!top_k_correct(&s, 0, 1));
        assert!(top_k_correct(&s, 0, 5));
        assert!(!top_k_correct(&s, 4, 5));
    }

    #[test]
    fn accumulator_counts() {
        let mut acc = TopKAccuracy::new(2);
        acc.observe(&scores(&[0.5, 0.3, 0.2]), 1); // in top-2
        acc.observe(&scores(&[0.5, 0.3, 0.2]), 2); // not in top-2
        acc.observe(&scores(&[0.5, 0.3, 0.2]), 0); // in top-2
        assert_eq!(acc.count(), 3);
        assert!((acc.accuracy() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn merge_shards() {
        let mut a = TopKAccuracy::new(1);
        a.observe(&scores(&[1.0, 0.0]), 0);
        let mut b = TopKAccuracy::new(1);
        b.observe(&scores(&[1.0, 0.0]), 1);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.accuracy(), 0.5);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(TopKAccuracy::new(5).accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different-k")]
    fn merge_different_k_panics() {
        let mut a = TopKAccuracy::new(1);
        a.merge(&TopKAccuracy::new(5));
    }
}
