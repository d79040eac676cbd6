//! Multi-threaded Top-k accuracy evaluation.
//!
//! The paper runs its modified network over the 50 000-image validation set
//! and reports Top-5 accuracy (N = 2500 for the Fig. 9/10 sweeps). This
//! harness does the same over the synthetic validation set, sharding images
//! across threads; networks are not `Clone`, so each worker builds its own
//! instrumented instance. Before each image, the worker seeks its network to
//! the image's index in the validation set ([`Network::seek_frame`]), so an
//! image's noise depends on its index alone, not on the worker or shard that
//! evaluates it: a report is a pure function of the model, the examples and
//! the noise seed, at any thread budget.

use crate::Result;
use redeye_dataset::metrics::TopKAccuracy;
use redeye_nn::Network;
use redeye_tensor::{par, Tensor};

/// Accuracy over a validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Top-1 accuracy.
    pub top1: f32,
    /// Top-5 accuracy (the paper's headline metric).
    pub top5: f32,
    /// Images evaluated.
    pub samples: usize,
}

/// The evaluation harness: a labeled validation set plus a thread budget.
pub struct AccuracyHarness {
    examples: Vec<(Tensor, usize)>,
    threads: usize,
}

impl AccuracyHarness {
    /// Creates a harness over pre-generated `(input, label)` pairs.
    ///
    /// `threads` is the whole budget (a zero budget runs on one thread). It
    /// goes across frames first: the validation set is sharded over
    /// `threads.min(examples)` workers, which is where the throughput win
    /// lives for sweep workloads. What is left goes within a frame: each
    /// worker's network runs its GEMMs on `threads / workers` threads (at
    /// least one). The report is the same at every budget.
    pub fn new(examples: Vec<(Tensor, usize)>, threads: usize) -> Self {
        AccuracyHarness {
            examples,
            threads: threads.max(1),
        }
    }

    /// Number of validation examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the validation set is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Evaluates Top-1/Top-5 accuracy of networks produced by `build`.
    ///
    /// `build` is called once per worker thread; each instance sees a
    /// disjoint shard of the validation set and is sought to each example's
    /// index before its forward pass. Scores may be logits or probabilities
    /// — only their ranking matters.
    ///
    /// # Errors
    ///
    /// Propagates the first builder or inference error encountered.
    pub fn evaluate<F>(&self, build: F) -> Result<AccuracyReport>
    where
        F: Fn() -> Result<Network> + Sync,
    {
        let workers = self.threads.min(self.examples.len()).max(1);
        let layer_threads = (self.threads / workers).max(1);
        let shard_size = self.examples.len().div_ceil(workers).max(1);
        let shards = self.examples.chunks(shard_size).enumerate();
        let results = par::fan_out(shards, |(worker, shard)| {
            let mut net = build()?;
            net.set_training(false);
            net.set_threads(layer_threads);
            let mut top1 = TopKAccuracy::new(1);
            let mut top5 = TopKAccuracy::new(5);
            for (i, (input, label)) in shard.iter().enumerate() {
                net.seek_frame((worker * shard_size + i) as u64);
                let scores = net.forward(input).map_err(crate::SimError::from)?;
                top1.observe(&scores, *label);
                top5.observe(&scores, *label);
            }
            Ok((top1, top5))
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

        let mut top1 = TopKAccuracy::new(1);
        let mut top5 = TopKAccuracy::new(5);
        for (t1, t5) in &results {
            top1.merge(t1);
            top5.merge(t5);
        }
        Ok(AccuracyReport {
            top1: top1.accuracy(),
            top5: top5.accuracy(),
            samples: top1.count() as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_nn::layers::Flatten;
    use redeye_nn::Node;

    /// A "network" that just flattens — predictions equal pixel values, so
    /// accuracy is deterministic given crafted inputs.
    fn identity_net() -> Network {
        Network::from_nodes("id", vec![Node::Layer(Box::new(Flatten::new("f")))])
    }

    fn onehot_examples(n: usize, classes: usize) -> Vec<(Tensor, usize)> {
        (0..n)
            .map(|i| {
                let label = i % classes;
                let mut t = Tensor::zeros(&[classes]);
                t.as_mut_slice()[label] = 1.0;
                (t, label)
            })
            .collect()
    }

    #[test]
    fn perfect_predictions_score_one() {
        let harness = AccuracyHarness::new(onehot_examples(64, 10), 4);
        let report = harness.evaluate(|| Ok(identity_net())).unwrap();
        assert_eq!(report.samples, 64);
        assert_eq!(report.top1, 1.0);
        assert_eq!(report.top5, 1.0);
    }

    #[test]
    fn wrong_predictions_score_by_rank() {
        // Inputs put the mass on (label+1) % 10: top-1 always wrong, but the
        // true label ties at zero with 8 others — not reliably in top-5.
        let examples: Vec<(Tensor, usize)> = (0..40)
            .map(|i| {
                let label = i % 10;
                let mut t = Tensor::zeros(&[10]);
                t.as_mut_slice()[(label + 1) % 10] = 1.0;
                (t, label)
            })
            .collect();
        let harness = AccuracyHarness::new(examples, 3);
        let report = harness.evaluate(|| Ok(identity_net())).unwrap();
        assert_eq!(report.top1, 0.0);
    }

    #[test]
    fn sharding_covers_every_example() {
        for (n, threads) in [(50, 1), (50, 2), (50, 3), (50, 7), (0, 3)] {
            let harness = AccuracyHarness::new(onehot_examples(n, 10), threads);
            let report = harness.evaluate(|| Ok(identity_net())).unwrap();
            assert_eq!(report.samples, n, "threads={threads}");
        }
    }

    #[test]
    fn report_is_identical_across_thread_budgets() {
        use crate::{extract_params, instrument, InstrumentOptions};
        use redeye_analog::SnrDb;
        use redeye_nn::{build_network, zoo, WeightInit};
        use redeye_tensor::Rng;

        let spec = zoo::micronet(16, 10);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(5)).unwrap();
        let params = extract_params(&mut net);
        // At 6 dB the noise moves the logits, so each label below holds
        // only under its own example's noise.
        let opts = InstrumentOptions {
            snr: SnrDb::new(6.0),
            seed: 3,
            ..InstrumentOptions::paper_default("pool3")
        };
        let build = || instrument(&spec, &params, &opts);
        // Labels are the top-1 class of example `i` evaluated as frame `i`,
        // so noise keyed any other way shows as a lost hit.
        let mut reference = build().unwrap();
        reference.set_training(false);
        let mut rng = Rng::seed_from(9);
        let examples: Vec<(Tensor, usize)> = (0..7u64)
            .map(|i| {
                let x = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
                reference.seek_frame(i);
                let label = reference.forward(&x).unwrap().argmax().unwrap();
                (x, label)
            })
            .collect();
        let want = AccuracyReport {
            top1: 1.0,
            top5: 1.0,
            samples: 7,
        };
        // 0 threads runs on one; 7 threads: seven one-example workers;
        // 16 threads: seven workers with two GEMM threads each.
        for threads in [0, 1, 2, 3, 7, 16] {
            let harness = AccuracyHarness::new(examples.clone(), threads);
            assert_eq!(harness.evaluate(build).unwrap(), want, "{threads} threads");
        }
    }

    #[test]
    fn builder_errors_propagate() {
        let harness = AccuracyHarness::new(onehot_examples(8, 4), 2);
        let err = harness.evaluate(|| {
            Err(crate::SimError::ParamMismatch {
                reason: "boom".into(),
            })
        });
        assert!(err.is_err());
    }
}
