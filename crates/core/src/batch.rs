//! The stream executor: numbered frames through one [`FrameEngine`] under
//! one thread budget.
//!
//! RedEye is a *continuous* vision sensor: the interesting throughput
//! metric is sustained frames/sec over a stream, not the latency of one
//! frame. [`BatchExecutor`] is the one executor of that stream. It runs a
//! batch of frames, or one frame through [`BatchExecutor::execute`], and
//! carries the frame counter and the forced-decision tally from call to
//! call.
//!
//! # One budget, spent across frames first
//!
//! The executor owns a thread budget and one [`FrameCtx`] per budget
//! thread. A batch of `n` frames runs on `workers = min(budget, n)` pool
//! workers, and each frame splits its stages over `budget / workers`
//! threads (the rule `AccuracyHarness::evaluate` uses). A single frame on
//! a budget of 3 therefore runs 1 worker × 3 threads, and 8 frames on a
//! budget of 2 run 2 workers × 1 thread.
//!
//! # One pool call per batch
//!
//! A batch is one [`run_tasks`] call with one task per frame index, and
//! task `i` runs frame `base + i`. Worker `w` runs on context `w`, which
//! the executor keeps across calls, so a stream's steady state regrows no
//! conv workspace. A free worker claims the next unclaimed frame, so a
//! slow frame (a deeper inception branch, a cache-cold worker) holds only
//! its own worker and never stalls the frames behind it. A batch on one
//! worker, or of one frame, runs inline on the caller's thread. A frame
//! that panics comes back as [`CoreError::WorkerPanic`], its worker's
//! context is replaced by a fresh one, and the executor stays usable.
//!
//! # Determinism
//!
//! Frame `base + i`'s noise is a pure function of `(seed, base + i,
//! instruction, site, draw)` — never of the worker that ran it, the claim
//! order, the worker count or the threads per frame. The pool returns
//! results in frame order; the merged ledger is folded frame-by-frame in
//! that order (the same band-order discipline the column-parallel stages
//! use), and the cumulative forced-comparator diagnostic is accumulated
//! in frame order too. Output is therefore **bit-identical to running
//! the frames one at a time through [`FrameEngine::run_frame`]** for the
//! same seed, at any budget and any batch size.

use crate::executor::{ExecutionResult, FrameCtx, FrameEngine, FrameOutput};
use crate::pool::run_tasks;
use crate::{CoreError, EnergyLedger, Program, Result};
use redeye_tensor::Tensor;

/// The result of one batch of frames.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-frame results in frame order, bit-identical to running the
    /// frames one at a time for the same seed and frame numbers
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

/// The RedEye functional executor: drives a numbered frame stream through
/// one shared [`FrameEngine`] under one thread budget.
///
/// [`execute_batch`](BatchExecutor::execute_batch) spends the budget
/// across frames first, then within a frame (see the module docs);
/// [`execute`](BatchExecutor::execute) is a batch of one. Each budget
/// thread owns one [`FrameCtx`] for the executor's lifetime. Output is
/// bit-identical for the same seed at any budget and any batch size.
///
/// # Example
///
/// ```
/// use redeye_core::{compile, BatchExecutor, CompileOptions, WeightBank};
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
/// assert_eq!(result.frames[0].features.dims(), &[4, 16, 16]);
/// assert!(result.ledger.analog_total().value() > 0.0);
///
/// // Bit-identical to one frame at a time, frame for frame.
/// let mut serial = BatchExecutor::new(program, 42, 1)?;
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
    /// One context per budget thread; pool worker `w` runs on `ctxs[w]`
    /// in every batch, so its conv workspace stays warm.
    ctxs: Vec<FrameCtx>,
    /// Frame number the next batch starts at.
    next_frame: u64,
    /// Cumulative forced comparator decisions across all batches, folded
    /// in frame order.
    forced_total: u64,
}

impl BatchExecutor {
    /// Creates an executor for `program` with a budget of `threads`
    /// (clamped to at least 1), seeding all stochastic behaviour from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification — checked eagerly here, so a bad program never
    /// reaches a frame.
    pub fn new(program: Program, seed: u64, threads: usize) -> Result<Self> {
        let engine = FrameEngine::new(program, seed);
        engine.verify()?;
        Ok(BatchExecutor {
            engine,
            ctxs: (0..threads.max(1)).map(|_| FrameCtx::new()).collect(),
            next_frame: 0,
            forced_total: 0,
        })
    }

    /// The shared engine (program, stream, knobs).
    pub fn engine(&self) -> &FrameEngine {
        &self.engine
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        self.engine.program()
    }

    /// The frame number the next frame will run as.
    pub fn next_frame(&self) -> u64 {
        self.next_frame
    }

    /// Repositions the frame counter so the next frame runs as frame `n`,
    /// replaying any frame's noise substream from any offset for
    /// reproducible debugging.
    ///
    /// `seek_frame(k)` followed by one `execute` produces the same
    /// features, codes, ledger, and frame time as executing frames
    /// `0, 1, …, k` and keeping the last result. Only the cumulative
    /// forced-decision diagnostic differs: seeking does not replay the
    /// skipped frames' comparator tallies.
    pub fn seek_frame(&mut self, n: u64) {
        self.next_frame = n;
    }

    /// Sets the per-frame cost budget enforced by pre-frame verification
    /// (see [`FrameEngine::set_cost_budget`]); resets the engine's cached
    /// verification.
    pub fn set_cost_budget(&mut self, budget: redeye_verify::CostBudget) {
        self.engine.set_cost_budget(budget);
    }

    /// Executes one captured frame as frame `next_frame`: a batch of one,
    /// which runs inline with the whole budget inside the frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification under the current cost budget, or
    /// [`CoreError::BadProgram`] if the input shape does not match the
    /// program, a pixel is NaN or infinite, or a shape error surfaces from
    /// a corrupt program.
    pub fn execute(&mut self, input: &Tensor) -> Result<ExecutionResult> {
        let mut batch = self.execute_batch(std::slice::from_ref(input))?;
        // A successful batch of one input holds exactly one frame.
        Ok(batch.frames.swap_remove(0))
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
        let budget = self.ctxs.len();
        let workers = budget.min(inputs.len()).max(1);
        self.engine.set_threads(budget / workers);
        let base = self.next_frame;
        let engine = &self.engine;
        let indices: Vec<usize> = (0..inputs.len()).collect();
        let results = run_tasks(&indices, &mut self.ctxs[..workers], |ctx, &i| {
            engine.run_frame(base + i as u64, &inputs[i], ctx)
        });
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
    use crate::Instruction;
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

    /// Serial reference results, one frame at a time straight through the
    /// engine on one context, plus the frame-order merged ledger.
    fn serial_reference(
        program: &Program,
        seed: u64,
        inputs: &[Tensor],
    ) -> (Vec<ExecutionResult>, EnergyLedger) {
        let engine = FrameEngine::new(program.clone(), seed);
        let mut ctx = FrameCtx::new();
        let mut merged = EnergyLedger::new();
        let mut forced = 0;
        let results: Vec<ExecutionResult> = inputs
            .iter()
            .enumerate()
            .map(|(f, input)| {
                let out = engine.run_frame(f as u64, input, &mut ctx).unwrap();
                merged.merge(&out.ledger);
                forced += out.forced;
                ExecutionResult {
                    features: out.features,
                    codes: out.codes,
                    ledger: out.ledger,
                    elapsed: out.elapsed,
                    forced_decisions: forced,
                    rail_clips: out.rail_clips,
                    code_mac_hits: out.code_mac_hits,
                }
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
    fn batch_matches_serial_across_budgets() {
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(6, 99);
        let (want, want_ledger) = serial_reference(&program, 7, &inputs);
        for budget in [1usize, 2, 4, 8] {
            let mut batch = BatchExecutor::new(program.clone(), 7, budget).unwrap();
            let result = batch.execute_batch(&inputs).unwrap();
            assert_frames_eq(&want, &result.frames, &format!("budget {budget}"));
            assert!(
                result.ledger == want_ledger,
                "budget {budget}: merged ledger diverged"
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
        // Batch frames k.. match a serial stream that already ran k frames.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(5, 77);
        let (want, _) = serial_reference(&program, 21, &inputs);
        let mut batch = BatchExecutor::new(program, 21, 2).unwrap();
        batch.seek_frame(2);
        let got = batch.execute_batch(&inputs[2..]).unwrap();
        assert_eq!(batch.next_frame(), 5);
        // Features/codes/ledgers match; the forced tally does not (serial
        // accumulated frames 0-1 first): seeking replays no tallies.
        for (w, g) in want[2..].iter().zip(got.frames.iter()) {
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
    }
}
