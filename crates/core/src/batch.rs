//! Cross-frame batched execution on the task pool.
//!
//! RedEye is a *continuous* vision sensor: the interesting throughput
//! metric is sustained frames/sec over a stream, not the latency of one
//! frame. Within-frame parallelism is Amdahl-capped (the packed GEMM
//! dominates frame time — see `BENCH_analog.json`), so the next scaling
//! axis is *across* frames: [`BatchExecutor`] runs the frames of a batch
//! concurrently over one immutable [`FrameEngine`].
//!
//! # One pool call per batch
//!
//! A batch is one [`run_tasks`] call with one task per frame index.
//! Each worker builds its own [`FrameCtx`], whose conv workspace it reuses
//! for every frame it runs in that batch, and task `i` runs frame
//! `base + i`. A free worker claims the next unclaimed frame, so a slow
//! frame (a deeper inception branch, a cache-cold worker) holds only its
//! own worker and never stalls the frames behind it. The workers are
//! scoped threads that borrow the engine and the inputs; a batch on one
//! worker, or of one frame, runs inline on the caller's thread. A frame
//! that panics comes back as [`CoreError::WorkerPanic`] and leaves the
//! executor usable.
//!
//! # Determinism
//!
//! Frame `base + i`'s noise is a pure function of `(seed, base + i,
//! instruction, site, draw)` — never of the worker that ran it, the claim
//! order, or the worker count. The pool returns results in frame
//! order; the merged ledger is folded frame-by-frame in that order (the
//! same band-order discipline the column-parallel stages use), and the
//! cumulative forced-comparator diagnostic is accumulated in frame order
//! too. Batched output is therefore **bit-identical to the serial
//! [`Executor`](crate::Executor)** for the same seed, at any worker count
//! and any batch size.

use crate::executor::{ExecutionResult, FrameCtx, FrameEngine, FrameOutput};
use crate::pool::{auto_workers, run_tasks};
use crate::{CoreError, EnergyLedger, Program, Result};
use redeye_tensor::Tensor;

/// The result of one batch of frames.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-frame results in frame order, bit-identical to what the serial
    /// executor would have produced for the same seed and frame numbers
    /// (including the cumulative `forced_decisions` diagnostic).
    pub frames: Vec<ExecutionResult>,
    /// All per-frame ledgers merged in frame order.
    pub ledger: EnergyLedger,
}

impl BatchResult {
    /// Total frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Drives batches of frames through the task pool over one shared
/// [`FrameEngine`].
///
/// Each [`execute_batch`](BatchExecutor::execute_batch) call runs its
/// frames on up to `workers` scoped threads, one [`FrameCtx`] per worker.
/// Output is bit-identical to the serial [`Executor`](crate::Executor) for
/// the same seed at any worker count and any batch size (see the module
/// docs for why).
///
/// # Example
///
/// ```
/// use redeye_core::{compile, BatchExecutor, CompileOptions, Executor, WeightBank};
/// use redeye_nn::{build_network, zoo, WeightInit};
/// use redeye_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), redeye_core::CoreError> {
/// let spec = zoo::micronet(4, 10);
/// let prefix = spec.prefix_through("pool1").expect("micronet has pool1");
/// let mut rng = Rng::seed_from(1);
/// let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng)?;
/// let mut bank = WeightBank::from_network(&mut net);
/// let program = compile(&prefix, &mut bank, &CompileOptions::default())?;
///
/// let frames: Vec<Tensor> = (0..4).map(|_| Tensor::full(&[3, 32, 32], 0.5)).collect();
/// let mut batch = BatchExecutor::new(program.clone(), 42, 2)?;
/// let result = batch.execute_batch(&frames)?;
///
/// // Bit-identical to the serial executor, frame for frame.
/// let mut serial = Executor::new(program, 42);
/// for (i, frame) in frames.iter().enumerate() {
///     let want = serial.execute(frame)?;
///     assert_eq!(want.features, result.frames[i].features);
///     assert_eq!(want.codes, result.frames[i].codes);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchExecutor {
    engine: FrameEngine,
    /// Pool workers per batch.
    workers: usize,
    /// Frame number the next batch starts at.
    next_frame: u64,
    /// Cumulative forced comparator decisions across all batches, folded
    /// in frame order.
    forced_total: u64,
}

impl BatchExecutor {
    /// Creates a batch executor for `program` that runs each batch on
    /// `workers` pool workers (clamped to at least 1), seeding all
    /// stochastic behaviour from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification — checked eagerly here, so a bad program never
    /// reaches a batch.
    pub fn new(program: Program, seed: u64, workers: usize) -> Result<Self> {
        let engine = FrameEngine::new(program, seed);
        engine.verify()?;
        Ok(BatchExecutor {
            engine,
            workers: workers.max(1),
            next_frame: 0,
            forced_total: 0,
        })
    }

    /// Creates a batch executor sized to the host: [`auto_workers`]
    /// pool workers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification.
    pub fn new_auto(program: Program, seed: u64) -> Result<Self> {
        Self::new(program, seed, auto_workers())
    }

    /// Number of pool workers each batch runs on.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared engine (program, stream, knobs).
    pub fn engine(&self) -> &FrameEngine {
        &self.engine
    }

    /// The frame number the next batch's first frame will run as.
    pub fn next_frame(&self) -> u64 {
        self.next_frame
    }

    /// Repositions the frame counter so the next batch starts at frame `n`
    /// — the batched counterpart of
    /// [`Executor::seek_frame`](crate::Executor::seek_frame), with the same
    /// caveat: the cumulative forced-decision diagnostic does not replay
    /// skipped frames.
    pub fn seek_frame(&mut self, n: u64) {
        self.next_frame = n;
    }

    /// Executes `inputs` as frames `next_frame .. next_frame + inputs.len()`
    /// across the pool's workers and returns the results in frame
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProgram`] if any input's shape does not match
    /// the program (checked up front, before dispatch), or else the
    /// lowest-frame execution error, [`CoreError::WorkerPanic`] included.
    /// A failed batch advances neither the frame counter nor the forced
    /// tally.
    pub fn execute_batch(&mut self, inputs: &[Tensor]) -> Result<BatchResult> {
        for (i, input) in inputs.iter().enumerate() {
            if input.dims() != self.engine.program().input {
                return Err(CoreError::BadProgram {
                    reason: format!(
                        "batch frame {i}: input shape {:?} does not match program input {:?}",
                        input.dims(),
                        self.engine.program().input
                    ),
                });
            }
        }
        let base = self.next_frame;
        let engine = &self.engine;
        let indices: Vec<usize> = (0..inputs.len()).collect();
        let results = run_tasks(
            &indices,
            self.workers,
            |_| FrameCtx::new(),
            |ctx, &i| engine.run_frame(base + i as u64, &inputs[i], ctx),
        );
        let outputs = results
            .into_iter()
            .map(|r| r.and_then(|out| out))
            .collect::<Result<Vec<FrameOutput>>>()?;

        // Deterministic frame-order merge: cumulative forced tally and the
        // f64 ledger fold both walk frames in order, so the totals are
        // bit-identical to a serial run regardless of completion order.
        let mut frames = Vec::with_capacity(outputs.len());
        let mut ledger = EnergyLedger::new();
        for out in outputs {
            self.forced_total += out.forced;
            ledger.merge(&out.ledger);
            frames.push(ExecutionResult {
                features: out.features,
                codes: out.codes,
                ledger: out.ledger,
                elapsed: out.elapsed,
                forced_decisions: self.forced_total,
                rail_clips: out.rail_clips,
                code_mac_hits: out.code_mac_hits,
            });
        }
        self.next_frame += frames.len() as u64;
        Ok(BatchResult { frames, ledger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use crate::{Executor, Instruction};
    use redeye_analog::SnrDb;
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    fn micronet_program(snr_db: f64, adc_bits: u32) -> Program {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(17);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            weight_bits: 8,
            snr: SnrDb::new(snr_db),
            adc_bits,
            ..CompileOptions::default()
        };
        compile(&prefix, &mut bank, &opts).unwrap()
    }

    fn frame_stream(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
            .collect()
    }

    /// Serial reference results plus the frame-order merged ledger.
    fn serial_reference(
        program: &Program,
        seed: u64,
        inputs: &[Tensor],
    ) -> (Vec<ExecutionResult>, EnergyLedger) {
        let mut exec = Executor::new(program.clone(), seed);
        let mut merged = EnergyLedger::new();
        let results: Vec<ExecutionResult> = inputs
            .iter()
            .map(|input| {
                let r = exec.execute(input).unwrap();
                merged.merge(&r.ledger);
                r
            })
            .collect();
        (results, merged)
    }

    fn assert_frames_eq(want: &[ExecutionResult], got: &[ExecutionResult], tag: &str) {
        assert_eq!(want.len(), got.len(), "{tag}: frame count");
        for (f, (w, g)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(w.features, g.features, "{tag}: frame {f} features");
            assert_eq!(w.codes, g.codes, "{tag}: frame {f} codes");
            assert!(w.ledger == g.ledger, "{tag}: frame {f} ledger diverged");
            assert_eq!(
                w.elapsed.value(),
                g.elapsed.value(),
                "{tag}: frame {f} elapsed"
            );
            assert_eq!(
                w.forced_decisions, g.forced_decisions,
                "{tag}: frame {f} forced tally"
            );
        }
    }

    #[test]
    fn batch_matches_serial_across_worker_counts() {
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(6, 99);
        let (want, want_ledger) = serial_reference(&program, 7, &inputs);
        for workers in [1usize, 2, 4] {
            let mut batch = BatchExecutor::new(program.clone(), 7, workers).unwrap();
            let result = batch.execute_batch(&inputs).unwrap();
            assert_frames_eq(&want, &result.frames, &format!("{workers} workers"));
            assert!(
                result.ledger == want_ledger,
                "{workers} workers: merged ledger diverged"
            );
        }
    }

    #[test]
    fn batch_split_is_invariant() {
        // Feeding the stream as batches of 1, 2, or all-at-once yields the
        // same per-frame results: the frame counter carries across batches.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(6, 41);
        let (want, _) = serial_reference(&program, 3, &inputs);
        for batch_size in [1usize, 2, 6] {
            let mut batch = BatchExecutor::new(program.clone(), 3, 2).unwrap();
            let mut got = Vec::new();
            for chunk in inputs.chunks(batch_size) {
                got.extend(batch.execute_batch(chunk).unwrap().frames);
            }
            assert_frames_eq(&want, &got, &format!("batch size {batch_size}"));
        }
    }

    #[test]
    fn seek_frame_aligns_with_serial_stream() {
        // Batch frames k.. match a serial executor that already ran k frames.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(5, 77);
        let mut serial = Executor::new(program.clone(), 21);
        for input in &inputs[..2] {
            serial.execute(input).unwrap();
        }
        let want: Vec<ExecutionResult> = inputs[2..]
            .iter()
            .map(|i| serial.execute(i).unwrap())
            .collect();
        let mut batch = BatchExecutor::new(program, 21, 2).unwrap();
        batch.seek_frame(2);
        let got = batch.execute_batch(&inputs[2..]).unwrap();
        assert_eq!(batch.next_frame(), 5);
        // Features/codes/ledgers match; the forced tally does not (serial
        // accumulated frames 0-1 first), mirroring Executor::seek_frame.
        for (w, g) in want.iter().zip(got.frames.iter()) {
            assert_eq!(w.features, g.features);
            assert_eq!(w.codes, g.codes);
            assert!(w.ledger == g.ledger);
        }
    }

    #[test]
    fn merged_ledger_totals_match_per_frame_sum() {
        let program = micronet_program(40.0, 4);
        let inputs = frame_stream(4, 15);
        let mut batch = BatchExecutor::new(program, 9, 2).unwrap();
        let result = batch.execute_batch(&inputs).unwrap();
        let macs: u64 = result.frames.iter().map(|f| f.ledger.macs).sum();
        let conversions: u64 = result.frames.iter().map(|f| f.ledger.conversions).sum();
        assert_eq!(result.ledger.macs, macs);
        assert_eq!(result.ledger.conversions, conversions);
        assert_eq!(result.len(), 4);
        assert!(!result.is_empty());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let program = micronet_program(40.0, 4);
        let mut batch = BatchExecutor::new(program, 1, 2).unwrap();
        let result = batch.execute_batch(&[]).unwrap();
        assert!(result.is_empty());
        assert_eq!(batch.next_frame(), 0);
    }

    #[test]
    fn unverifiable_program_rejected_at_construction() {
        let mut program = micronet_program(40.0, 4);
        if let Instruction::Conv { codes, .. } = &mut program.instructions[0] {
            codes[0] = 10_000; // beyond the 8-bit DAC range
        }
        match BatchExecutor::new(program, 1, 2) {
            Err(CoreError::Verify(report)) => assert!(report.has_errors()),
            other => panic!("expected Verify error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_rejected_before_dispatch() {
        let program = micronet_program(40.0, 4);
        let mut batch = BatchExecutor::new(program, 1, 2).unwrap();
        let bad = vec![Tensor::zeros(&[3, 32, 32]), Tensor::zeros(&[3, 16, 16])];
        assert!(batch.execute_batch(&bad).is_err());
        // The frame counter did not advance; a good batch still works.
        assert_eq!(batch.next_frame(), 0);
        let good = frame_stream(2, 1);
        assert_eq!(batch.execute_batch(&good).unwrap().len(), 2);
    }

    #[test]
    fn pool_survives_many_batches() {
        // Many small batches through the same executor keep producing
        // serial-identical frames: the frame counter and forced tally carry.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(8, 63);
        let (want, _) = serial_reference(&program, 29, &inputs);
        let mut batch = BatchExecutor::new(program, 29, 2).unwrap();
        let mut got = Vec::new();
        for chunk in inputs.chunks(2) {
            got.extend(batch.execute_batch(chunk).unwrap().frames);
        }
        assert_frames_eq(&want, &got, "8 frames over 4 batches");
        assert_eq!(batch.next_frame(), 8);
        assert_eq!(batch.workers(), 2);
    }
}
