//! Shared experiment workloads: the trained stand-in network and the
//! raw-captured validation set.
//!
//! The paper's accuracy experiments use a pre-trained GoogLeNet over
//! ImageNet. We have neither, so (per the documented substitution) the
//! accuracy sweeps run a *trained-in-repo* network of the same layer
//! vocabulary over the synthetic dataset, captured through the paper's
//! raw-input pipeline (gamma undone, Poisson shot noise, fixed-pattern
//! noise). Energy curves always come from the exact GoogLeNet geometry.

use redeye_core::{auto_workers, compile, CompileOptions, Depth, Program, WeightBank};
use redeye_dataset::{sensor, SyntheticDataset};
use redeye_nn::train::{evaluate, train_epoch, Example, Sgd};
use redeye_nn::{build_network, summarize, zoo, NetworkSpec, WeightInit};
use redeye_sim::extract_params;
use redeye_tensor::{Rng, Tensor};
use std::time::Instant;

/// Number of classes in the stand-in task.
pub const CLASSES: usize = 32;

/// Task difficulty (see [`SyntheticDataset::with_difficulty`]): the hardest
/// setting, so fine hue/contrast distinctions — the kind analog noise
/// destroys — carry the label and the Fig. 9/10 knees are visible.
pub const DIFFICULTY: f32 = 1.0;

/// A trained stand-in model: its spec, trained parameters, and clean
/// validation accuracy.
pub struct TrainedModel {
    /// The network spec (micronet; ends in logits).
    pub spec: NetworkSpec,
    /// Trained parameters in visit order.
    pub params: Vec<Tensor>,
    /// Clean (noise-free) Top-1 validation accuracy after training.
    pub clean_top1: f32,
}

/// Captures a display-domain image through the §V-A raw pipeline.
pub fn capture(
    image: &Tensor,
    fpn: &sensor::FixedPatternNoise,
    full_well: f64,
    rng: &mut Rng,
) -> Tensor {
    sensor::capture_raw(image, full_well, fpn, rng)
}

/// Generates a raw-captured labeled set from the synthetic dataset.
pub fn captured_set(
    dataset: &SyntheticDataset,
    start: u64,
    n: usize,
    full_well: f64,
    seed: u64,
) -> Vec<(Tensor, usize)> {
    let mut rng = Rng::seed_from(seed);
    let fpn =
        sensor::FixedPatternNoise::new(&[3, dataset.side(), dataset.side()], 0.01, 0.005, &mut rng);
    dataset
        .batch(start, n)
        .into_iter()
        .map(|li| (capture(&li.image, &fpn, full_well, &mut rng), li.label))
        .collect()
}

/// Trains the micronet stand-in on raw-captured synthetic images.
///
/// `train_n` examples, `epochs` passes. Returns the trained model; training
/// is deterministic in `seed`.
///
/// # Panics
///
/// Panics if training diverges (it does not at the default hyperparameters).
pub fn train_standin(train_n: usize, epochs: usize, seed: u64) -> TrainedModel {
    let spec = zoo::micronet(8, CLASSES);
    let dataset = SyntheticDataset::with_difficulty(CLASSES, 32, seed, DIFFICULTY);
    let train_set = captured_set(&dataset, 0, train_n, 10_000.0, seed ^ 0xAB);
    let examples: Vec<Example> = train_set
        .into_iter()
        .map(|(input, label)| Example { input, label })
        .collect();

    let mut rng = Rng::seed_from(seed);
    let mut net =
        build_network(&spec, WeightInit::HeNormal, &mut rng).expect("micronet spec is well-formed");
    let mut opt = Sgd::new(0.02, 0.9, 1e-4);
    for epoch in 0..epochs {
        let stats = train_epoch(&mut net, &mut opt, &examples, 16)
            .unwrap_or_else(|e| panic!("training failed at epoch {epoch}: {e}"));
        // Simple step decay keeps late epochs stable.
        if epoch == epochs * 2 / 3 {
            opt.learning_rate *= 0.3;
        }
        let _ = stats;
    }

    let val = captured_set(&dataset, train_n as u64, 200, 10_000.0, seed ^ 0xCD);
    let val_examples: Vec<Example> = val
        .iter()
        .map(|(input, label)| Example {
            input: input.clone(),
            label: *label,
        })
        .collect();
    let clean_top1 = evaluate(&mut net, &val_examples).expect("evaluation");
    TrainedModel {
        spec,
        params: extract_params(&mut net),
        clean_top1,
    }
}

/// One executor benchmark scenario: the compiled GoogLeNet prefix for a
/// partition depth plus a matching full-size raw input.
///
/// Shared by every depth-swept perf section (whole-frame latency, batched
/// throughput) so scenario construction exists exactly once.
pub struct DepthScenario {
    /// The partition depth this scenario cuts at.
    pub depth: Depth,
    /// The compiled GoogLeNet-prefix program.
    pub program: Program,
    /// A 3×227×227 input in the executor's expected geometry.
    pub input: Tensor,
}

impl DepthScenario {
    /// Compiles the GoogLeNet prefix for `depth` and builds a matching
    /// input (deterministic: same weights and input every call).
    ///
    /// # Panics
    ///
    /// Panics if the zoo GoogLeNet spec fails to build or compile — a
    /// programming error, not a data condition.
    pub fn build(depth: Depth) -> Self {
        let spec = zoo::googlenet();
        let prefix = spec.prefix_through(depth.cut_layer()).expect("cut exists");
        let mut rng = Rng::seed_from(41);
        let mut net =
            build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("googlenet builds");
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).expect("compiles");
        let input = Tensor::uniform(&[3, 227, 227], 0.0, 1.0, &mut rng);
        DepthScenario {
            depth,
            program,
            input,
        }
    }

    /// Lowercase row tag ("depth1", "depth3", …).
    pub fn tag(&self) -> String {
        self.depth.to_string().to_lowercase()
    }
}

/// The depths a perf mode sweeps: Depth1 only under `--smoke` (CI-sized),
/// Depth1/3/5 otherwise.
pub fn perf_depths(smoke: bool) -> &'static [Depth] {
    if smoke {
        &[Depth::D1]
    } else {
        &[Depth::D1, Depth::D3, Depth::D5]
    }
}

/// One fleet benchmark scenario: a compiled prefix program for the whole
/// population plus the host-side suffix workload the cloudlet finishes per
/// frame.
pub struct FleetScenario {
    /// Row tag ("depth1" full, "micronet" smoke).
    pub tag: &'static str,
    /// The compiled prefix program every fleet device runs.
    pub program: Program,
    /// Input frame geometry `[c, h, w]`.
    pub input_dims: [usize; 3],
    /// MACs the cloudlet computes per frame (the network suffix).
    pub suffix_macs: u64,
    /// Parameters the cloudlet touches per frame (the network suffix).
    pub suffix_params: u64,
}

/// Builds the fleet scenario: the full GoogLeNet Depth1 cut (via
/// [`DepthScenario::build`], so the program exists once), or — under
/// `smoke` — a micronet cut small enough that CI can push a four-digit
/// fleet through it.
///
/// # Panics
///
/// Panics if the zoo specs fail to summarize, build, or compile — a
/// programming error, not a data condition.
pub fn fleet_scenario(smoke: bool) -> FleetScenario {
    let (spec, cut, tag, program) = if smoke {
        let spec = zoo::micronet(4, CLASSES);
        let prefix = spec.prefix_through("pool1").expect("cut exists");
        let mut rng = Rng::seed_from(17);
        let mut net =
            build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("micronet builds");
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).expect("compiles");
        (spec, "pool1", "micronet", program)
    } else {
        let scenario = DepthScenario::build(Depth::D1);
        (
            zoo::googlenet(),
            Depth::D1.cut_layer(),
            "depth1",
            scenario.program,
        )
    };
    let summary = summarize(&spec).expect("spec summarizes");
    let pos = summary
        .layers
        .iter()
        .position(|l| l.name == cut)
        .expect("cut layer exists in summary");
    let suffix = &summary.layers[pos + 1..];
    FleetScenario {
        tag,
        program,
        input_dims: summary.input,
        suffix_macs: suffix.iter().map(|l| l.macs).sum(),
        suffix_params: suffix.iter().map(|l| l.params).sum(),
    }
}

/// The worker counts a scaling sweep covers up to a budget of `max`
/// workers: powers of two below `max`, then `max` itself — so `4` gives
/// `[1, 2, 4]` and a 6-core budget gives `[1, 2, 4, 6]`. Always non-empty.
pub fn worker_counts(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts = Vec::new();
    let mut w = 1;
    while w < max {
        counts.push(w);
        w *= 2;
    }
    counts.push(max);
    counts
}

/// Parses `--workers <n|auto>` from a binary's arguments: the worker and
/// thread budget of every sweep. The default, and `auto`, is the machine's
/// available parallelism.
///
/// # Panics
///
/// Panics if `--workers` has no value or a value that is neither a count
/// nor `auto`.
pub fn parse_workers(args: &[String]) -> usize {
    let Some(at) = args.iter().position(|a| a == "--workers") else {
        return auto_workers();
    };
    match args.get(at + 1).map(String::as_str) {
        None => panic!("--workers needs a value: a count or `auto`"),
        Some("auto") => auto_workers(),
        Some(v) => v
            .parse()
            .expect("--workers value must be a positive count or `auto`"),
    }
}

/// Wall-clock milliseconds of one run of `f`.
pub fn wall_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock milliseconds of the best of `reps` runs of `f` (best-of
/// filters scheduler noise without needing a statistics stack).
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| wall_ms(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// The validation shard for noise sweeps (fresh indices, same capture
/// pipeline).
pub fn validation_set(n: usize, seed: u64) -> Vec<(Tensor, usize)> {
    let dataset = SyntheticDataset::with_difficulty(CLASSES, 32, seed, DIFFICULTY);
    captured_set(&dataset, 1_000_000, n, 10_000.0, seed ^ 0xEF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_training_beats_chance() {
        // A deliberately tiny run — the real sweeps train longer.
        let model = train_standin(320, 8, 7);
        assert!(
            model.clean_top1 > 0.15,
            "32-class chance is ~0.03; got {}",
            model.clean_top1
        );
    }

    #[test]
    fn fleet_scenario_smoke_has_a_real_suffix() {
        let s = fleet_scenario(true);
        assert_eq!(s.tag, "micronet");
        assert_eq!(s.input_dims, [3, 32, 32]);
        assert!(s.suffix_macs > 0, "the cloudlet must have work to do");
        assert!(s.suffix_params > 0);
        assert!(!s.program.instructions.is_empty());
    }

    #[test]
    fn worker_counts_cover_the_budget() {
        assert_eq!(worker_counts(1), vec![1]);
        assert_eq!(worker_counts(4), vec![1, 2, 4]);
        assert_eq!(worker_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(worker_counts(0), vec![1], "a zero budget still runs");
    }

    #[test]
    fn captured_set_is_raw_domain() {
        let val = validation_set(20, 3);
        assert_eq!(val.len(), 20);
        // Raw domain darkens midtones: mean well below display mean.
        let mean: f32 = val.iter().map(|(t, _)| t.mean().unwrap()).sum::<f32>() / val.len() as f32;
        assert!((0.0..0.5).contains(&mean), "raw mean {mean}");
    }
}
