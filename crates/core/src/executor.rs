//! The functional noisy executor: runs real images through a RedEye
//! [`Program`] using the analog behavioral models.
//!
//! Where the analytic estimator (see [`crate::estimate`]) charges energy and
//! time from operation counts, the executor also produces *data*: the noisy,
//! clipped, quantized feature tensor the digital host would receive. It is
//! the engine behind the accuracy-vs-noise experiments and behind fidelity
//! tests comparing analog output against the digital reference network.
//!
//! Noise semantics follow the paper's simulation framework (§III-D): each
//! convolutional/normalization layer output receives Gaussian noise at the
//! layer's programmed SNR (relative to the layer's signal power — the
//! aggregate equivalent of one damped-node sample per MAC output); max
//! pooling runs through the dynamic-comparator model with metastability
//! forcing; and the readout is a bit-accurate SAR conversion.
//!
//! # Deterministic column parallelism
//!
//! All stochastic behaviour draws from a counter-based
//! [`NoiseStream`](redeye_tensor::NoiseStream): every sample is a pure
//! function of `(seed, frame, instruction, site, draw)`, where the *site* is
//! the output element an analog module is computing. Because no draw state
//! is shared between sites, the per-element loops (layer noise, comparator
//! max pooling, SAR readout) shard freely across worker threads — mirroring
//! RedEye's physically column-parallel pipeline — and the output is
//! **bit-identical for a fixed seed regardless of the thread count**. Energy
//! is charged as `count × per-op energy` products and integer stats are
//! summed in band order, so the ledger is equally invariant to resharding.
//!
//! # Engine/context split (cross-frame batching)
//!
//! The executor is split into an immutable, shareable [`FrameEngine`]
//! (verified program, weights, root noise stream, column geometry, knobs)
//! and a per-worker mutable [`FrameCtx`] (the conv scratch workspace).
//! [`Executor`] binds one engine to one context plus the frame counter and
//! forced-comparator tally; [`BatchExecutor`](crate::BatchExecutor) shares
//! one engine across the task pool's workers, one context per worker, and
//! is bit-identical to the serial path at any worker count
//! because frame `f`'s noise depends only on `(seed, f)` — never on which
//! worker ran it or what ran before.

use crate::{CoreError, EnergyLedger, Instruction, Program, Result};
use redeye_analog::calib::SWING;
use redeye_analog::cost::FrameCost;
use redeye_analog::{AnalogError, Comparator, SarAdc, SarConversion, Seconds, SnrDb};
use redeye_tensor::{
    conv_gemm_packed_into, par, ConvGeom, NoiseStream, PackedWeights, PoolGeom, SimdLevel, Tensor,
    TensorError, Workspace, LANES,
};
use redeye_verify::charge;
use std::sync::OnceLock;

/// Result of executing one frame.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// The dequantized features the host receives (same scale as the
    /// digital network's activations).
    pub features: Tensor,
    /// Raw ADC codes, row-major over the feature tensor.
    pub codes: Vec<u32>,
    /// Itemized energy charged during execution.
    pub ledger: EnergyLedger,
    /// Frame time under column parallelism.
    pub elapsed: Seconds,
    /// Comparator decisions that were forced by the metastability timeout
    /// (cumulative across the executor's lifetime, like the hardware's
    /// diagnostic counter).
    pub forced_decisions: u64,
    /// Feature values that clipped at the SAR quantizer's 0 V lower rail
    /// in this frame (negative residues are clamped before conversion).
    /// Zero whenever the signal-range pass proved the program clean.
    pub rail_clips: u64,
    /// Always 0: a stub kept only for the repository benchmark package,
    /// which still reads it. The conv MAC has one f32 path.
    pub code_mac_hits: u64,
}

/// Raw output of one frame through a [`FrameEngine`], before any cross-frame
/// accounting.
///
/// Unlike [`ExecutionResult`], the forced-decision count here is *this
/// frame's* tally alone — the caller (the serial [`Executor`] or the batch
/// engine's frame-ordered merge) folds it into the lifetime-cumulative
/// counter the hardware diagnostic exposes.
#[derive(Debug, Clone)]
pub struct FrameOutput {
    /// The dequantized features the host receives.
    pub features: Tensor,
    /// Raw ADC codes, row-major over the feature tensor.
    pub codes: Vec<u32>,
    /// Itemized energy charged during this frame.
    pub ledger: EnergyLedger,
    /// Frame time under column parallelism.
    pub elapsed: Seconds,
    /// Comparator decisions forced by the metastability timeout in this
    /// frame only.
    pub forced: u64,
    /// Feature values that clipped at the SAR quantizer's 0 V lower rail
    /// in this frame.
    pub rail_clips: u64,
    /// Always 0: a stub kept only for the repository benchmark package,
    /// which still reads it. The conv MAC has one f32 path.
    pub code_mac_hits: u64,
}

/// Minimum number of analog sites in a stage before it shards across
/// threads; below this the spawn overhead dominates. Purely a performance
/// threshold — per-site streams make serial and sharded execution
/// bit-identical.
const ANALOG_PARALLEL_MIN: usize = 4096;

/// The immutable, shareable half of the executor: verified program, weights
/// (inside the program's instructions), the root noise stream, and the
/// column geometry plus execution knobs.
///
/// A `FrameEngine` holds *no* per-frame state, so one engine can be shared
/// by reference (or `Arc`) across any number of workers, each driving its
/// own [`FrameCtx`]. Frame `f` executes under `stream.frame_substream(f)`,
/// and every noise sample is a pure function of
/// `(seed, frame, instruction, site, draw)` — so which worker runs which
/// frame, and in what order, cannot change the output.
///
/// # Pack-once weight state
///
/// Everything about a conv instruction's weights that does not depend on
/// the frame — its GEMM weight panels —
/// plus the SAR ADC's bit-weight table and the comparator's screening
/// table is computed **once** at engine construction and shared read-only
/// by every frame, context, and worker thereafter. A fleet of simulated devices sharing one engine (see
/// [`crate::FleetEngine`]) therefore packs weights exactly once, no matter
/// how many devices run.
#[derive(Debug)]
pub struct FrameEngine {
    program: Program,
    /// Root counter-based stream; frame `f` executes under
    /// `stream.frame_substream(f)`.
    stream: NoiseStream,
    /// Pack-once GEMM weight panels per conv, in DFS instruction order;
    /// `None` for a conv whose weight dims are inconsistent.
    conv_packs: Vec<Option<PackedWeights>>,
    /// Pack-once SAR ADC template (bit-weight table), or the constructor's
    /// error for an invalid resolution, which quantization returns.
    sar: std::result::Result<SarAdc, AnalogError>,
    /// Pack-once comparator template: its screening table is built once
    /// and cloned into each pooling band.
    comparator: Comparator,
    /// Thread budget within a frame: conv GEMM output column ranges, LRN
    /// channel planes and the per-site analog stages (layer noise,
    /// comparator pooling, SAR readout).
    threads: usize,
    /// Per-frame cost caps enforced during pre-frame verification.
    budget: redeye_verify::CostBudget,
    /// Set once the program passes static verification; checked lazily on
    /// the first frame so construction stays infallible, and shared so
    /// concurrent workers verify at most once.
    verified: OnceLock<()>,
}

impl FrameEngine {
    /// Creates an engine for `program`, seeding all stochastic behaviour
    /// from `seed`.
    pub fn new(program: Program, seed: u64) -> Self {
        let mut conv_packs = Vec::new();
        collect_conv_packs(&program.instructions, &mut conv_packs);
        let sar = SarAdc::new(program.adc_bits);
        FrameEngine {
            program,
            stream: NoiseStream::new(seed),
            conv_packs,
            sar,
            comparator: Comparator::new(),
            threads: 1,
            budget: redeye_verify::CostBudget::default(),
            verified: OnceLock::new(),
        }
    }

    /// Sets the per-frame cost budget the lazy pre-frame verification
    /// enforces (RE07xx); a program whose static lower bound exceeds a cap
    /// refuses to execute. Resets the verification cache.
    pub fn set_cost_budget(&mut self, budget: redeye_verify::CostBudget) {
        self.budget = budget;
        self.verified = OnceLock::new();
    }

    /// Sets the frame's thread budget: conv GEMM output column ranges, LRN
    /// channel planes and the per-site analog stages (layer noise,
    /// comparator max pooling, SAR readout) all split across it. Results
    /// are bit-identical across budgets; small stages stay serial
    /// regardless.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Verifies the loaded program (cached: verification runs at most once
    /// per engine; failures re-verify and fail again).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program has verification errors.
    pub fn verify(&self) -> Result<()> {
        if self.verified.get().is_some() {
            return Ok(());
        }
        let report = redeye_verify::verify_with_options(
            &self.program,
            &redeye_verify::VerifyOptions {
                limits: redeye_verify::ResourceLimits::default(),
                budget: self.budget,
            },
        );
        if report.has_errors() {
            return Err(CoreError::Verify(report));
        }
        let _ = self.verified.set(());
        Ok(())
    }

    /// Executes frame number `frame` through the analog pipeline and the
    /// quantization module, using `ctx`'s scratch workspace.
    ///
    /// This is the engine-level entry point the serial [`Executor`] and the
    /// batch executor both call: the output is a pure function of
    /// `(program, seed, frame, input)` — independent of which context or
    /// thread runs it, and of any other frame having run before it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification (checked once, on the first frame), or
    /// [`CoreError::BadProgram`] if the input shape does not match the
    /// program, a pixel is NaN or infinite, or a shape error surfaces from
    /// a corrupt program.
    pub fn run_frame(&self, frame: u64, input: &Tensor, ctx: &mut FrameCtx) -> Result<FrameOutput> {
        self.run_frame_with(&self.stream, 1.0, frame, input, ctx)
            .map(|(out, _)| out)
    }

    /// Device-parameterized frame entry point: executes under an explicit
    /// root noise stream (a per-device stream in fleet simulation) with
    /// every layer-noise σ multiplied by `noise_scale` (a process corner's
    /// thermal-noise power ratio, as an amplitude factor).
    ///
    /// `run_frame` is exactly `run_frame_with(&self.stream, 1.0, …)`: a
    /// scale of `1.0` is an IEEE-exact multiplicative identity, so the
    /// nominal path stays bit-identical. The comparator and SAR models keep
    /// their nominal internal noise — the corner scaling applies to the
    /// aggregate layer-SNR Gaussian stage, where §III-D folds the damped
    /// node noise.
    ///
    /// Also returns the frame's charged cost, from which a device reads
    /// its process-corner energy and time.
    pub(crate) fn run_frame_with(
        &self,
        root: &NoiseStream,
        noise_scale: f32,
        frame: u64,
        input: &Tensor,
        ctx: &mut FrameCtx,
    ) -> Result<(FrameOutput, FrameCost)> {
        self.verify()?;
        if input.dims() != self.program.input {
            return Err(CoreError::BadProgram {
                reason: format!(
                    "input shape {:?} does not match program input {:?}",
                    input.dims(),
                    self.program.input
                ),
            });
        }
        // One NaN or infinite pixel would poison the first layer's signal
        // power, and through it every noise σ downstream.
        if let Some(i) = input.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::BadProgram {
                reason: format!("input pixel {i} is {}, not finite", input.as_slice()[i]),
            });
        }
        let mut pass = FramePass {
            ws: &mut ctx.ws,
            stream: root.frame_substream(frame),
            ordinal: 0,
            conv_ordinal: 0,
            engine: self,
            noise_scale,
            // The array parallelizes across the input width worth of
            // column slices (gain staging maps the image onto the array).
            cost: FrameCost::new(self.program.input[2]),
            forced: 0,
        };
        // The input tensor is borrowed, not cloned: instruction outputs move
        // through `owned`, and the first instruction reads `input` directly.
        let mut owned: Option<Tensor> = None;
        for inst in &self.program.instructions {
            let next = pass.run_instruction(inst, owned.as_ref().unwrap_or(input))?;
            owned = Some(next);
        }
        let (features, codes, rail_clips) = pass.quantize(owned.as_ref().unwrap_or(input))?;
        let FramePass { cost, forced, .. } = pass;
        let (ledger, elapsed) = cost.finish();
        let out = FrameOutput {
            features,
            codes,
            ledger,
            elapsed,
            forced,
            rail_clips,
            code_mac_hits: 0,
        };
        Ok((out, cost))
    }
}

/// The per-frame mutable half of the executor: the reusable conv scratch
/// [`Workspace`].
///
/// One context belongs to one worker: a batch gives each pool worker its
/// own, so every frame after a worker's first performs no packing
/// allocations, exactly like the serial path.
#[derive(Debug, Default)]
pub struct FrameCtx {
    /// Reusable GEMM packing scratch shared by every conv instruction;
    /// grows to the program's high-water mark on the first frame.
    ws: Workspace,
}

/// Packs one conv instruction's DAC-applied weights `code · scale` into the
/// GEMM engine's MR-panel layout, once at [`FrameEngine`] construction.
/// `None` when the weight dims are inconsistent (no `out_c` rows, or a
/// length that is not a whole number of rows); a frame reaching such a
/// conv returns [`CoreError::BadProgram`].
fn pack_conv(codes: &[i32], scale: f32, out_c: usize) -> Option<PackedWeights> {
    if out_c == 0 || !codes.len().is_multiple_of(out_c) {
        return None;
    }
    let weights: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
    Some(PackedWeights::pack(&weights, out_c, weights.len() / out_c))
}

/// Collects pack-once weight state for every conv instruction, recursing
/// through inception branches in the same DFS pre-order
/// [`FramePass::run_instruction`] visits them, so `conv_packs[i]` is the
/// `i`-th conv a frame executes.
fn collect_conv_packs(instructions: &[Instruction], packs: &mut Vec<Option<PackedWeights>>) {
    for inst in instructions {
        match inst {
            Instruction::Conv {
                out_c,
                codes,
                scale,
                ..
            } => packs.push(pack_conv(codes, *scale, *out_c)),
            Instruction::Inception { branches, .. } => {
                for branch in branches {
                    collect_conv_packs(branch, packs);
                }
            }
            _ => {}
        }
    }
}

impl FrameCtx {
    /// A fresh context with empty scratch.
    pub fn new() -> Self {
        FrameCtx::default()
    }
}

/// The RedEye functional executor: a [`FrameEngine`] driving one
/// [`FrameCtx`] through a numbered frame sequence.
///
/// Holds the program, the root noise stream (all noise is a pure function
/// of the seed), and the reusable scratch the conv instructions share —
/// mirroring the physical module reuse of §III-B. For cross-frame
/// parallelism over the same engine/context split, see
/// [`BatchExecutor`](crate::BatchExecutor).
///
/// Parallelism across frames belongs to the batch and fleet executors'
/// worker pools; parallelism within a frame is one budget,
/// [`Executor::set_threads`], shared by the conv GEMM, LRN and the
/// per-site analog stages.
///
/// # Example
///
/// ```
/// use redeye_core::{compile, CompileOptions, Executor, WeightBank};
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
/// let mut executor = Executor::new(program, 42);
/// let result = executor.execute(&Tensor::full(&[3, 32, 32], 0.5))?;
/// assert_eq!(result.features.dims(), &[4, 16, 16]);
/// assert!(result.ledger.analog_total().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor {
    engine: FrameEngine,
    ctx: FrameCtx,
    /// The frame-substream label the next frame executes under.
    next_frame: u64,
    /// Cumulative forced comparator decisions across this executor's frames.
    forced_total: u64,
}

impl Executor {
    /// Creates an executor for `program`, seeding all stochastic behaviour
    /// from `seed`.
    pub fn new(program: Program, seed: u64) -> Self {
        Executor {
            engine: FrameEngine::new(program, seed),
            ctx: FrameCtx::new(),
            next_frame: 0,
            forced_total: 0,
        }
    }

    /// Sets the frame's thread budget (see [`FrameEngine::set_threads`]).
    /// Results are bit-identical across budgets.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        self.engine.program()
    }

    /// The immutable engine half (program, stream, knobs).
    pub fn engine(&self) -> &FrameEngine {
        &self.engine
    }

    /// The frame number the next [`Executor::execute`] call will run as.
    pub fn next_frame(&self) -> u64 {
        self.next_frame
    }

    /// Repositions the frame counter so the next [`Executor::execute`] call
    /// runs as frame `n` — replaying any frame's noise substream from any
    /// offset for reproducible debugging.
    ///
    /// `seek_frame(k)` followed by one `execute` produces the same
    /// features, codes, ledger, and frame time as executing frames
    /// `0, 1, …, k` sequentially and keeping the last result. Only the
    /// cumulative forced-decision diagnostic differs: seeking does not
    /// replay the skipped frames' comparator tallies.
    pub fn seek_frame(&mut self, n: u64) {
        self.next_frame = n;
    }

    /// Executes one captured frame through the analog pipeline and the
    /// quantization module.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification (checked once, on the first frame), or
    /// [`CoreError::BadProgram`] if the input shape does not match the
    /// program, a pixel is NaN or infinite, or a shape error surfaces from
    /// a corrupt program.
    pub fn execute(&mut self, input: &Tensor) -> Result<ExecutionResult> {
        let out = self
            .engine
            .run_frame(self.next_frame, input, &mut self.ctx)?;
        self.next_frame += 1;
        self.forced_total += out.forced;
        Ok(ExecutionResult {
            features: out.features,
            codes: out.codes,
            ledger: out.ledger,
            elapsed: out.elapsed,
            forced_decisions: self.forced_total,
            rail_clips: out.rail_clips,
            code_mac_hits: out.code_mac_hits,
        })
    }

    /// Sets the per-frame cost budget enforced by pre-frame verification
    /// (see [`FrameEngine::set_cost_budget`]).
    pub fn set_cost_budget(&mut self, budget: redeye_verify::CostBudget) {
        self.engine.set_cost_budget(budget);
    }
}

/// State for one frame's pass through the program: borrows the executor's
/// scratch workspace and carries the frame's noise stream and cost
/// accumulator. Instruction substreams are keyed by a DFS ordinal, so the
/// noise a given instruction draws is independent of how any *other*
/// instruction is scheduled or sharded.
struct FramePass<'a> {
    ws: &'a mut Workspace,
    stream: NoiseStream,
    /// Next instruction ordinal (DFS order through inception branches).
    ordinal: u64,
    /// Next conv ordinal: index of the engine's pack-once weight state for
    /// the next conv instruction in DFS order.
    conv_ordinal: usize,
    /// The engine's pack-once state (conv weights, comparator and SAR
    /// templates) and thread budget.
    engine: &'a FrameEngine,
    /// Device amplitude factor on every layer-noise σ (1.0 nominal).
    noise_scale: f32,
    /// Energy and time charged so far, in DFS instruction order.
    cost: FrameCost,
    forced: u64,
}

impl FramePass<'_> {
    /// The substream for the next instruction in DFS order.
    fn next_stream(&mut self) -> NoiseStream {
        let s = self.stream.substream(self.ordinal);
        self.ordinal += 1;
        s
    }

    /// Runs one instruction's kernel and charges its op counts, read from
    /// the analog op table, with the shared [`charge`].
    fn run_instruction(&mut self, inst: &Instruction, x: &Tensor) -> Result<Tensor> {
        if let Instruction::Inception { branches, .. } = inst {
            // Each branch instruction charges itself; the concat is free.
            let mut outs = Vec::with_capacity(branches.len());
            for branch in branches {
                let mut bx: Option<Tensor> = None;
                for inst in branch {
                    let next = self.run_instruction(inst, bx.as_ref().unwrap_or(x))?;
                    bx = Some(next);
                }
                outs.push(bx.unwrap_or_else(|| x.clone()));
            }
            return concat_channels(&outs);
        }
        let name = inst.name();
        let dims = x.dims();
        let (Some(op), &[c, h, w]) = (inst.op(), dims) else {
            return Err(CoreError::BadProgram {
                reason: format!("`{name}` input must be CxHxW, got {dims:?}"),
            });
        };
        let (_, mut counts) = op.apply([c, h, w]).map_err(|e| CoreError::BadProgram {
            reason: format!("`{name}` cannot apply to {c}x{h}x{w}: {e}"),
        })?;
        let out = match inst {
            Instruction::Conv {
                out_c,
                kernel,
                stride,
                pad,
                relu,
                codes,
                bias,
                snr,
                // `scale` is folded into the engine's pack-once weights.
                ..
            } => {
                let geom = ConvGeom::new(c, h, w, *kernel, *kernel, *stride, *pad)?;
                let patch = geom.patch_len();
                if out_c.checked_mul(patch) != Some(codes.len()) || bias.len() != *out_c {
                    return Err(CoreError::BadProgram {
                        reason: format!("conv `{name}` weight dims inconsistent"),
                    });
                }
                // Pack-once weight panels, keyed by conv ordinal in the same
                // DFS order `collect_conv_packs` walked. The engine built
                // the packs from this very program, so the lookup cannot
                // miss; `get` keeps a corrupt index a reported error rather
                // than a panic. A conv the engine could not pack has
                // inconsistent weight dims.
                let pw = self
                    .engine
                    .conv_packs
                    .get(self.conv_ordinal)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| CoreError::BadProgram {
                        reason: format!("conv `{name}` has no packed weights"),
                    })?;
                self.conv_ordinal += 1;
                let positions = geom.out_positions();
                let out_len =
                    out_c
                        .checked_mul(positions)
                        .ok_or_else(|| CoreError::BadProgram {
                            reason: format!("conv `{name}` output {out_c}x{positions} overflows"),
                        })?;
                let mut out = vec![0.0f32; out_len];
                // The ideal MAC array is a matrix product (each output is
                // one damped node). The implicit-GEMM packer gathers
                // B-panels straight from the C×H×W input and multiplies
                // through the engine's pack-once weight panels,
                // bit-identical to the explicit im2col lowering.
                conv_gemm_packed_into(
                    self.ws.packs_mut(),
                    SimdLevel::auto(),
                    pw,
                    x.as_slice(),
                    &geom,
                    &mut out,
                    self.engine.threads,
                );
                for (oc, &b) in bias.iter().enumerate() {
                    for v in &mut out[oc * positions..(oc + 1) * positions] {
                        *v += b;
                    }
                }
                let out = Tensor::from_vec(out, &[*out_c, positions])?;
                let out = self.add_layer_noise(out, *snr, name)?;
                rectify(out, *relu).into_reshaped(&[*out_c, geom.out_h(), geom.out_w()])?
            }
            Instruction::MaxPool {
                window,
                stride,
                pad,
                ..
            } => {
                let geom = PoolGeom::new(c, h, w, *window, *stride, *pad)?;
                let (out, decisions) = self.comparator_maxpool(x, &geom, name)?;
                // Charge the comparator's measured decisions, not the
                // table's count, so static = dynamic stays a real check.
                counts.comparisons = decisions;
                out
            }
            Instruction::AvgPool {
                window,
                stride,
                pad,
                snr,
                ..
            } => {
                let geom = PoolGeom::new(c, h, w, *window, *stride, *pad)?;
                self.add_layer_noise(average_pool(x, &geom)?, *snr, name)?
            }
            Instruction::Lrn {
                size,
                alpha,
                beta,
                k,
                snr,
                ..
            } => {
                let out = lrn(x, [c, h, w], *size, *alpha, *beta, *k, self.engine.threads)?;
                self.add_layer_noise(out, *snr, name)?
            }
            Instruction::Inception { .. } => unreachable!("inception returned above"),
        };
        charge(&mut self.cost, counts, inst.snr());
        Ok(out)
    }

    /// Adds the layer-SNR Gaussian noise of the paper's Gaussian Noise
    /// Layer: σ = signal_rms / 10^(SNR/20). Site `i` is output element `i`;
    /// the plane shards across the thread budget on sample-pair
    /// boundaries, so any resharding reproduces the same elements.
    ///
    /// An overflowing or NaN signal power is an error naming the
    /// instruction, not an infinite σ.
    fn add_layer_noise(&mut self, mut out: Tensor, snr: SnrDb, name: &str) -> Result<Tensor> {
        let rms = out.power().map(f32::sqrt).unwrap_or(0.0);
        if !rms.is_finite() {
            return Err(not_finite(name, "signal rms", rms));
        }
        if rms <= 0.0 {
            return Ok(out);
        }
        // `noise_scale` is 1.0 on the nominal path — an IEEE-exact
        // multiplicative identity — and a process corner's thermal
        // amplitude factor on fleet devices.
        let sigma = self.noise_scale * (rms / snr.amplitude_ratio() as f32);
        let stream = self.next_stream();
        shard_mut(out.as_mut_slice(), self.engine.threads, 2, |first, band| {
            stream.add_scaled_normal(first as u64, sigma, band);
        });
        Ok(out)
    }

    /// Max pooling through the dynamic comparator, with real forced
    /// decisions under metastability. Each output element is one noise
    /// site. A band of sites is decided [`LANES`] at a time: each group's
    /// windows are gathered into a decision-major block, and
    /// [`Comparator::max_lanes`] decides them in lockstep. It settles every
    /// decision its noise provably cannot change — beyond any noise term,
    /// an exact tie that cannot time out, a draw whose radius is too small
    /// to matter, or noise with the difference's sign — from the draw's
    /// indices, so the output is bit-identical to chaining `compare` over
    /// each window. A band's short last group repeats its last site in the
    /// spare lanes and discards them. Sites share no draw state, so the
    /// output shards freely over the thread budget; per-band
    /// decision/forced counts are summed in band order and energy is
    /// charged as a `count × per-decision` product, keeping the ledger
    /// independent of the thread count.
    fn comparator_maxpool(
        &mut self,
        x: &Tensor,
        geom: &PoolGeom,
        name: &str,
    ) -> Result<(Tensor, u64)> {
        let stream = self.next_stream();
        // Gain staging: map the plane's max magnitude to the rail swing.
        let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if !max_abs.is_finite() {
            return Err(not_finite(name, "input magnitude", max_abs));
        }
        let volts_per_unit = if max_abs > 0.0 {
            SWING.value() / f64::from(max_abs)
        } else {
            1.0
        };
        let (in_h, in_w) = (geom.in_h(), geom.in_w());
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let plane_out = out_h * out_w;
        let (window, stride, pad) = (geom.window(), geom.stride(), geom.pad());
        let src = x.as_slice();
        let template = &self.engine.comparator;
        let mut out = vec![0.0f32; geom.out_len()];
        // Gathers the window of output site `(c, oy, ox)` into lane `l` of
        // a decision-major block: `block[ky·window + kx][l]` is tap
        // `(ky, kx)`. Groups whose windows share an output row and lie
        // inside the plane take the row-run copy below instead.
        let gather = |block: &mut [[f32; LANES]], l: usize, (c, oy, ox): (usize, usize, usize)| {
            let plane = &src[c * in_h * in_w..(c + 1) * in_h * in_w];
            // Window origin in padded coordinates; padded row/column `p`
            // is input row/column `p − pad`.
            let (y0, x0) = (oy * stride, ox * stride);
            let rows = block.chunks_exact_mut(window);
            if y0 >= pad && x0 >= pad && y0 + window <= in_h + pad && x0 + window <= in_w + pad {
                let origin = (y0 - pad) * in_w + (x0 - pad);
                for (ky, taps) in rows.enumerate() {
                    let row = &plane[origin + ky * in_w..][..window];
                    for (tap, &v) in taps.iter_mut().zip(row) {
                        tap[l] = v;
                    }
                }
            } else {
                // The column pipeline runs a fixed comparison schedule:
                // every window tap is compared, with out-of-bounds
                // (padding) taps presenting the lower rail. This keeps the
                // per-output decision count at window²−1 regardless of
                // border effects, matching the analytic model.
                for (ky, taps) in rows.enumerate() {
                    let y = (y0 + ky).checked_sub(pad).filter(|&y| y < in_h);
                    for (kx, tap) in taps.iter_mut().enumerate() {
                        let x = (x0 + kx).checked_sub(pad).filter(|&x| x < in_w);
                        tap[l] = match y.zip(x) {
                            Some((y, x)) => plane[y * in_w + x],
                            None => -max_abs,
                        };
                    }
                }
            }
        };
        let stats = shard_mut(&mut out, self.engine.threads, 1, |first, band| {
            let mut comparator = template.clone();
            let mut block = vec![[0.0f32; LANES]; window * window];
            // The next site's `(channel, row, column)`, stepped along the
            // band so that a band divides once.
            let mut at = (first / plane_out, first % plane_out / out_w, first % out_w);
            let step = |(c, oy, ox): (usize, usize, usize), n: usize| match ox + n {
                ox if ox < out_w => (c, oy, ox),
                _ if oy + 1 < out_h => (c, oy + 1, 0),
                _ => (c + 1, 0, 0),
            };
            for (g, group) in band.chunks_mut(LANES).enumerate() {
                let live = group.len();
                let (c, oy, ox) = at;
                let (y0, x0, x0_last) = (oy * stride, ox * stride, (ox + live - 1) * stride);
                if ox + live <= out_w
                    && y0 >= pad
                    && x0 >= pad
                    && y0 + window <= in_h + pad
                    && x0_last + window <= in_w + pad
                {
                    // One output row of windows inside the plane: tap
                    // (ky, kx) of lane `l` is element `l·stride` of a run
                    // of input row `y0 − pad + ky`. Spare lanes repeat the
                    // last site.
                    let origin = c * in_h * in_w + (y0 - pad) * in_w + (x0 - pad);
                    for (ky, rows) in block.chunks_exact_mut(window).enumerate() {
                        for (kx, taps) in rows.iter_mut().enumerate() {
                            let run = &src[origin + ky * in_w + kx..][..=x0_last - x0];
                            *taps = std::array::from_fn(|l| run[l.min(live - 1) * stride]);
                        }
                    }
                    at = step(at, live);
                } else {
                    for l in 0..live {
                        gather(&mut block, l, at);
                        at = step(at, 1);
                    }
                    for taps in &mut block {
                        let last = taps[live - 1];
                        taps[live..].fill(last);
                    }
                }
                let sites = std::array::from_fn(|l| (first + g * LANES + l.min(live - 1)) as u64);
                let best = comparator.max_lanes(&block, volts_per_unit, &stream, &sites, live);
                group.copy_from_slice(&best[..live]);
            }
            (comparator.decisions_made(), comparator.forced_decisions())
        });
        let decisions: u64 = stats.iter().map(|s| s.0).sum();
        let forced: u64 = stats.iter().map(|s| s.1).sum();
        self.forced += forced;
        let out =
            Tensor::from_vec(out, &[geom.channels(), out_h, out_w]).map_err(bad_pool_volume)?;
        Ok((out, decisions))
    }

    /// The quantization module: normalizes features to the ADC full scale,
    /// converts each through the bit-accurate SAR model, and returns the
    /// dequantized host-domain tensor plus the raw codes. Each feature is
    /// one noise site; bands share the engine's ADC and energy is the
    /// `conversions × per-conversion` product. Also returns how many
    /// features clipped at the 0 V lower rail (per-band counts summed in
    /// band order, so the tally is thread-count independent).
    fn quantize(&mut self, x: &Tensor) -> Result<(Tensor, Vec<u32>, u64)> {
        let stream = self.next_stream();
        let template = self.engine.sar.as_ref().map_err(AnalogError::clone)?;
        // Gain staging: features (post-rectification, ≥ 0) map onto the ADC
        // full scale; negative residues clip at the lower rail.
        let vmax = x.iter().fold(0.0f32, |m, &v| m.max(v));
        if !vmax.is_finite() {
            return Err(not_finite("readout", "full scale", vmax));
        }
        // Floor the full scale at the smallest normal f32: a subnormal
        // maximum (a degenerate all-≈0 frame) would otherwise set a gain of
        // up to ~2^126 and blow the reconstruction up to ±inf. Such frames
        // carry no signal, so the 1 V default scale applies.
        let full_scale = if vmax >= f32::MIN_POSITIVE {
            f64::from(vmax)
        } else {
            1.0
        };
        let n = x.len();
        let src = x.as_slice();
        let mut codes = vec![0u32; n];
        let clips = shard_mut(&mut codes, self.engine.threads, 1, |first, band| {
            let mut clips = 0u64;
            for (i, code) in band.iter_mut().enumerate() {
                let idx = first + i;
                if src[idx] < 0.0 {
                    clips += 1;
                }
                let v = f64::from(src[idx].max(0.0)) / full_scale;
                *code = template.convert(v, &mut stream.at(idx as u64)).code;
            }
            clips
        });
        // The host's dequantization is a pure function of each code: its
        // mid-rise reconstruction `(code + ½)·2⁻ⁿ`, scaled back up.
        let lsb = SarConversion::lsb(template.resolution());
        let deq = codes
            .iter()
            .map(|&code| ((f64::from(code) + 0.5) * lsb * full_scale) as f32)
            .collect();
        self.cost.convert(template, n as u64);
        Ok((Tensor::from_vec(deq, x.dims())?, codes, clips.iter().sum()))
    }
}

/// Runs `f` over bands of `data` whose starts are multiples of `align`
/// (pair-aligned sharding for the batched normal fills), in parallel when
/// the thread budget and site count warrant it. Band results return in band
/// order, so integer-stat merges do not depend on the thread count.
fn shard_mut<T, R, F>(data: &mut [T], threads: usize, align: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let n = data.len();
    // Serial below `ANALOG_PARALLEL_MIN` sites; never more than one site
    // per worker.
    let threads = if n < ANALOG_PARALLEL_MIN {
        1
    } else {
        threads.clamp(1, n)
    };
    if threads <= 1 {
        return vec![f(0, data)];
    }
    let chunk = n.div_ceil(threads).div_ceil(align).max(1) * align;
    par::fan_out(data.chunks_mut(chunk).enumerate(), |(t, band)| {
        f(t * chunk, band)
    })
}

/// Rectifies at zero when the layer fuses a ReLU. A conv output needs no
/// rail clamp: the plane's own largest magnitude, the only rail it could
/// be clamped to, already bounds every value in it.
fn rectify(mut out: Tensor, relu: bool) -> Tensor {
    if relu {
        for v in out.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }
    out
}

fn average_pool(x: &Tensor, geom: &PoolGeom) -> Result<Tensor> {
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let src = x.as_slice();
    let mut out = Vec::with_capacity(geom.out_len());
    for c in 0..geom.channels() {
        let plane = c * in_h * in_w;
        for oy in 0..geom.out_h() {
            for ox in 0..geom.out_w() {
                let mut acc = 0.0f32;
                let mut count = 0usize;
                for ky in 0..geom.window() {
                    for kx in 0..geom.window() {
                        let y = (oy * geom.stride() + ky) as isize - geom.pad() as isize;
                        let xx = (ox * geom.stride() + kx) as isize - geom.pad() as isize;
                        if y >= 0 && y < in_h as isize && xx >= 0 && xx < in_w as isize {
                            acc += src[plane + y as usize * in_w + xx as usize];
                            count += 1;
                        }
                    }
                }
                out.push(if count > 0 { acc / count as f32 } else { 0.0 });
            }
        }
    }
    Tensor::from_vec(out, &[geom.channels(), geom.out_h(), geom.out_w()]).map_err(bad_pool_volume)
}

/// A stage whose folded signal statistic overflowed f32 (or is NaN): the
/// noise σ or gain it sets would poison every value after it.
fn not_finite(name: &str, what: &str, v: f32) -> CoreError {
    CoreError::BadProgram {
        reason: format!("`{name}` {what} is {v}, not finite"),
    }
}

/// A pool output that does not fill its geometry's volume: the program's
/// pool shape and the plane it runs on disagree.
fn bad_pool_volume(e: TensorError) -> CoreError {
    CoreError::BadProgram {
        reason: format!("pool output volume: {e}"),
    }
}

/// Local response normalization across channels. Each output plane first
/// holds its channel window's sum of squares, added channel by channel in
/// channel order (so the sums vectorize across the plane and each element
/// still sums `0 + v²` over its window in order), then is normalized in
/// place. The channel planes shard freely over the thread budget (bands
/// of whole planes).
fn lrn(
    x: &Tensor,
    [c, h, w]: [usize; 3],
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    threads: usize,
) -> Result<Tensor> {
    let half = size / 2;
    let plane = h * w;
    let mut out = vec![0.0f32; c * plane];
    if plane == 0 {
        return Ok(Tensor::from_vec(out, &[c, h, w])?);
    }
    let src = x.as_slice();
    let scale = alpha / size as f32;
    shard_mut(&mut out, threads, plane, |first, band| {
        for (i, dst) in band.chunks_exact_mut(plane).enumerate() {
            let ci = first / plane + i;
            let lo = ci.saturating_sub(half);
            let hi = (ci + half).min(c - 1);
            // `dst` starts zeroed: it accumulates `0 + Σ v²` in channel order.
            for window in src[lo * plane..(hi + 1) * plane].chunks_exact(plane) {
                for (acc, &v) in dst.iter_mut().zip(window) {
                    *acc += v * v;
                }
            }
            for (o, &v) in dst.iter_mut().zip(&src[ci * plane..(ci + 1) * plane]) {
                *o = v * (k + scale * *o).powf(-beta);
            }
        }
    });
    Ok(Tensor::from_vec(out, &[c, h, w])?)
}

fn concat_channels(parts: &[Tensor]) -> Result<Tensor> {
    let first = parts.first().ok_or(CoreError::BadProgram {
        reason: "inception with zero branches".into(),
    })?;
    let (h, w) = (first.dims()[1], first.dims()[2]);
    let mut total_c = 0usize;
    let mut data = Vec::new();
    for p in parts {
        let d = p.dims();
        if d.len() != 3 || d[1] != h || d[2] != w {
            return Err(CoreError::BadProgram {
                reason: format!("inception branch output {d:?} incompatible with {h}x{w}"),
            });
        }
        total_c += d[0];
        data.extend_from_slice(p.as_slice());
    }
    Ok(Tensor::from_vec(data, &[total_c, h, w])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use redeye_nn::{build_network, quantize_network_weights, zoo, WeightInit};
    use redeye_tensor::Rng;

    /// Builds a micronet prefix program plus the matching digital reference
    /// network (with identically quantized weights).
    fn micronet_program(snr_db: f64, adc_bits: u32) -> (Program, redeye_nn::Network) {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(17);
        let mut reference = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut reference);
        let opts = CompileOptions {
            weight_bits: 8,
            snr: SnrDb::new(snr_db),
            adc_bits,
            ..CompileOptions::default()
        };
        let program = compile(&prefix, &mut bank, &opts).unwrap();
        // Quantize the reference identically so both paths share weights.
        quantize_network_weights(&mut reference, 8);
        (program, reference)
    }

    #[test]
    fn high_snr_matches_digital_reference() {
        let (program, mut reference) = micronet_program(100.0, 10);
        let mut exec = Executor::new(program, 5);
        let mut rng = Rng::seed_from(6);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let analog = exec.execute(&input).unwrap();
        let digital = reference.forward(&input).unwrap();
        let rel =
            analog.features.rms_error(&digital).unwrap() / (digital.power().unwrap().sqrt() + 1e-9);
        assert!(
            rel < 0.02,
            "analog-vs-digital relative error {rel} at 100 dB / 10-bit"
        );
    }

    #[test]
    fn low_snr_degrades_fidelity() {
        let run = |snr: f64| {
            let (program, mut reference) = micronet_program(snr, 10);
            let mut exec = Executor::new(program, 5);
            let mut rng = Rng::seed_from(6);
            let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            let analog = exec.execute(&input).unwrap();
            let digital = reference.forward(&input).unwrap();
            analog.features.rms_error(&digital).unwrap()
        };
        assert!(run(20.0) > 3.0 * run(60.0));
    }

    #[test]
    fn energy_ledger_matches_analytic_counts() {
        let (program, _) = micronet_program(40.0, 4);
        let spec = zoo::micronet(8, 10);
        let summary = redeye_nn::summarize(&spec).unwrap();
        let totals = summary.prefix_totals("pool3").unwrap();
        let mut exec = Executor::new(program, 7);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let result = exec.execute(&input).unwrap();
        assert_eq!(result.ledger.macs, totals.macs);
        assert_eq!(result.ledger.comparisons, totals.comparisons);
        assert_eq!(result.ledger.conversions, totals.out_len);
        assert_eq!(
            result.ledger.readout_bits,
            totals.out_len * 4,
            "4-bit readout"
        );
    }

    #[test]
    fn quantization_bits_bound_codes() {
        let (program, _) = micronet_program(40.0, 3);
        let mut exec = Executor::new(program, 8);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let result = exec.execute(&input).unwrap();
        assert!(result.codes.iter().all(|&c| c < 8));
    }

    #[test]
    fn refuses_to_execute_unverifiable_program() {
        let (mut program, _) = micronet_program(40.0, 4);
        if let Instruction::Conv { codes, .. } = &mut program.instructions[0] {
            codes[0] = 10_000; // beyond the 8-bit DAC range
        }
        let mut exec = Executor::new(program, 1);
        let err = exec.execute(&Tensor::full(&[3, 32, 32], 0.5)).unwrap_err();
        match err {
            CoreError::Verify(report) => assert!(report.has_errors()),
            other => panic!("expected Verify, got {other:?}"),
        }
    }

    /// A conv whose pad or channel count overflows the size arithmetic is
    /// a verification error, with no overflow panic on the way.
    #[test]
    fn oversized_conv_geometry_is_a_typed_error() {
        let input = Tensor::full(&[3, 32, 32], 0.5);
        for huge in [usize::MAX / 2, usize::MAX / 8] {
            let (mut program, _) = micronet_program(40.0, 4);
            if let Instruction::Conv { pad, .. } = &mut program.instructions[0] {
                *pad = huge;
            }
            let err = Executor::new(program, 1).execute(&input).unwrap_err();
            assert!(matches!(err, CoreError::Verify(_)), "pad {huge}: {err:?}");
            let (mut program, _) = micronet_program(40.0, 4);
            if let Instruction::Conv { out_c, .. } = &mut program.instructions[0] {
                *out_c = huge;
            }
            let err = Executor::new(program, 1).execute(&input).unwrap_err();
            assert!(matches!(err, CoreError::Verify(_)), "out_c {huge}: {err:?}");
        }
    }

    /// Past verification, the executor's own op-table read still turns an
    /// overflowing op count into a typed error rather than a panic.
    #[test]
    fn overflowing_op_count_is_a_bad_program_past_verification() {
        let program = Program::new(
            "lrn_huge",
            [2, 4, 4],
            vec![Instruction::Lrn {
                name: "norm1".into(),
                size: usize::MAX,
                alpha: 1e-4,
                beta: 0.75,
                k: 1.0,
                snr: SnrDb::new(40.0),
            }],
            4,
        );
        let engine = FrameEngine::new(program, 1);
        engine.verified.set(()).expect("fresh engine");
        let input = Tensor::full(&[2, 4, 4], 0.5);
        match engine.run_frame(0, &input, &mut FrameCtx::new()) {
            Err(CoreError::BadProgram { reason }) => {
                assert!(reason.contains("`norm1`"), "{reason}");
            }
            other => panic!("expected BadProgram, got {other:?}"),
        }
    }

    /// Weights large enough to overflow the f32 signal power used to pass
    /// verification and return all-zero codes: σ became ∞, the noise NaN,
    /// and `NaN.max(0.0)` read as code 0. The verifier now refuses them
    /// (RE0608), and past verification the run is a typed error naming
    /// the conv.
    #[test]
    fn overflowing_weights_are_refused_not_zeroed() {
        let input = Tensor::full(&[3, 32, 32], 0.5);
        for huge in [1e18, f32::MAX] {
            let (mut program, _) = micronet_program(40.0, 4);
            if let Instruction::Conv { scale, .. } = &mut program.instructions[0] {
                *scale = huge;
            }
            let report = redeye_verify::verify(&program);
            assert!(
                report
                    .errors()
                    .any(|d| d.code == "RE0608" && d.layer.as_deref() == Some("conv1")),
                "scale {huge}: {}",
                report.render()
            );
            let engine = FrameEngine::new(program, 1);
            engine.verified.set(()).expect("fresh engine");
            match engine.run_frame(0, &input, &mut FrameCtx::new()) {
                Err(CoreError::BadProgram { reason }) => {
                    assert!(reason.contains("`conv1`"), "scale {huge}: {reason}");
                }
                other => panic!("scale {huge}: expected BadProgram, got {other:?}"),
            }
        }
    }

    /// Past verification, a conv the engine could not pack (no output
    /// channels, weight dims inconsistent) is `BadProgram` naming the conv,
    /// and a readout resolution the SAR array cannot take is the SAR
    /// constructor's `OutOfRange`.
    #[test]
    fn unpackable_convs_and_bad_adc_bits_are_typed_errors_past_verification() {
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let run = |program: Program| {
            let engine = FrameEngine::new(program, 1);
            engine.verified.set(()).expect("fresh engine");
            engine.run_frame(0, &input, &mut FrameCtx::new())
        };
        let (base, _) = micronet_program(40.0, 4);
        let mut mutants: Vec<(&str, Program)> = Vec::new();
        let mut zero = base.clone();
        if let Instruction::Conv {
            out_c, codes, bias, ..
        } = &mut zero.instructions[0]
        {
            *out_c = 0;
            codes.clear();
            bias.clear();
        }
        mutants.push(("zero out_c", zero));
        let mut short = base.clone();
        if let Instruction::Conv { codes, .. } = &mut short.instructions[0] {
            codes.pop();
        }
        mutants.push(("short codes", short));
        let mut wide = base.clone();
        if let Instruction::Conv { out_c, .. } = &mut wide.instructions[0] {
            *out_c += 1;
        }
        mutants.push(("out_c past the codes", wide));
        for (what, program) in mutants {
            match run(program) {
                Err(CoreError::BadProgram { reason }) => {
                    assert!(reason.contains("`conv1`"), "{what}: {reason}");
                }
                other => panic!("{what}: expected BadProgram, got {other:?}"),
            }
        }
        for bits in [0, 11] {
            let mut program = base.clone();
            program.adc_bits = bits;
            match run(program) {
                Err(CoreError::Analog(AnalogError::OutOfRange { parameter, .. })) => {
                    assert_eq!(parameter, "resolution");
                }
                other => panic!("adc_bits {bits}: expected OutOfRange, got {other:?}"),
            }
        }
    }

    /// LRN shards whole channel planes; an empty plane returns before
    /// the plane-sized banding, at any thread budget.
    /// LRN as it was written before it summed plane by plane: each
    /// element sums its channel window on its own.
    fn lrn_elementwise(x: &Tensor, [c, h, w]: [usize; 3], size: usize, p: [f32; 3]) -> Vec<f32> {
        let [alpha, beta, k] = p;
        let (half, plane, src) = (size / 2, h * w, x.as_slice());
        let mut out = vec![0.0f32; c * plane];
        for ci in 0..c {
            let (lo, hi) = (ci.saturating_sub(half), (ci + half).min(c - 1));
            for q in 0..plane {
                let mut acc = 0.0f32;
                for cj in lo..=hi {
                    let v = src[cj * plane + q];
                    acc += v * v;
                }
                let denom = k + alpha / size as f32 * acc;
                out[ci * plane + q] = src[ci * plane + q] * denom.powf(-beta);
            }
        }
        out
    }

    #[test]
    fn plane_wise_lrn_matches_the_elementwise_sums() {
        // GoogLeNet's norm1 parameters and others; fewer channels than the
        // window, odd planes, and planes big enough for threads to split.
        let cases: &[([usize; 3], usize, [f32; 3])] = &[
            ([3, 5, 7], 5, [1e-4, 0.75, 1.0]),
            ([1, 9, 9], 5, [1e-4, 0.75, 1.0]),
            ([7, 13, 11], 3, [2e-3, 0.5, 2.0]),
            ([64, 17, 17], 5, [1e-4, 0.75, 1.0]),
            ([12, 31, 29], 4, [0.1, 0.9, 0.5]),
        ];
        let mut rng = Rng::seed_from(23);
        for &(dims, size, params) in cases {
            let x = Tensor::uniform(&dims, -3.0, 3.0, &mut rng);
            let want = lrn_elementwise(&x, dims, size, params);
            let [alpha, beta, k] = params;
            for threads in [1, 2, 3] {
                let got = lrn(&x, dims, size, alpha, beta, k, threads).unwrap();
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{dims:?}, size {size}, {threads} threads");
            }
        }
    }

    #[test]
    fn lrn_of_empty_planes_is_empty() {
        let x = Tensor::zeros(&[6, 0, 3]);
        for threads in [1, 2] {
            let out = lrn(&x, [6, 0, 3], 5, 1e-4, 0.75, 1.0, threads).unwrap();
            assert_eq!(out.dims(), &[6, 0, 3]);
        }
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (program, _) = micronet_program(40.0, 4);
        let mut exec = Executor::new(program, 9);
        assert!(exec.execute(&Tensor::zeros(&[3, 16, 16])).is_err());
    }

    #[test]
    fn execution_is_reproducible_per_seed() {
        let (program, _) = micronet_program(40.0, 4);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let a = Executor::new(program.clone(), 42).execute(&input).unwrap();
        let b = Executor::new(program, 42).execute(&input).unwrap();
        assert_eq!(a.features, b.features);
        assert_eq!(a.codes, b.codes);
    }

    #[test]
    fn successive_frames_draw_fresh_noise() {
        let (program, _) = micronet_program(30.0, 10);
        let mut exec = Executor::new(program, 11);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let a = exec.execute(&input).unwrap();
        let b = exec.execute(&input).unwrap();
        assert_ne!(
            a.features, b.features,
            "frame substreams must decorrelate identical inputs"
        );
    }

    #[test]
    fn output_is_bit_identical_across_thread_counts() {
        // A wide micronet so the conv planes (16×32×32) and pool planes
        // (16×16×16 = ANALOG_PARALLEL_MIN) actually engage the sharded
        // paths rather than falling back to serial; 3 threads cut uneven
        // GEMM column ranges and site bands.
        let spec = zoo::micronet(16, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(23);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            snr: SnrDb::new(35.0),
            adc_bits: 8,
            ..CompileOptions::default()
        };
        let program = compile(&prefix, &mut bank, &opts).unwrap();
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let run = |threads| {
            let mut exec = Executor::new(program.clone(), 77);
            exec.set_threads(threads);
            let r = exec.execute(&input).unwrap();
            (
                r.features,
                r.codes,
                r.ledger,
                r.elapsed.value(),
                r.forced_decisions,
            )
        };
        let want = run(1);
        for threads in [2, 3, 4] {
            assert!(run(threads) == want, "{threads} threads diverged");
        }
    }

    #[test]
    fn avgpool_instruction_executes() {
        // An ad-hoc program exercising the average-pool path (GoogLeNet's
        // global pool lives on the host in the paper's cuts, but the module
        // supports it).
        let program = Program::new(
            "avg",
            [2, 4, 4],
            vec![Instruction::AvgPool {
                name: "ga".into(),
                window: 4,
                stride: 1,
                pad: 0,
                snr: SnrDb::new(90.0),
            }],
            8,
        );
        let mut exec = Executor::new(program, 1);
        let mut data = vec![1.0f32; 16];
        data.extend(vec![3.0f32; 16]);
        let input = Tensor::from_vec(data, &[2, 4, 4]).unwrap();
        let result = exec.execute(&input).unwrap();
        assert_eq!(result.features.dims(), &[2, 1, 1]);
        // Channel means 1.0 and 3.0 survive (within quantization + noise).
        assert!((result.features.at(&[0, 0, 0]).unwrap() - 1.0).abs() < 0.2);
        assert!((result.features.at(&[1, 0, 0]).unwrap() - 3.0).abs() < 0.2);
        assert!(result.ledger.macs > 0, "avg pool charges MAC energy");
    }

    #[test]
    fn forced_decisions_counted_on_flat_planes() {
        // A perfectly flat plane makes every comparator decision a tie;
        // noise resolves most, but the counter plumbing must work end to
        // end and the result must still equal the flat value.
        let program = Program::new(
            "flat",
            [1, 8, 8],
            vec![Instruction::MaxPool {
                name: "p".into(),
                window: 2,
                stride: 2,
                pad: 0,
            }],
            8,
        );
        let mut exec = Executor::new(program, 2);
        let input = Tensor::full(&[1, 8, 8], 0.5);
        let result = exec.execute(&input).unwrap();
        for v in result.features.iter() {
            assert!((v - 0.5).abs() < 0.05, "flat max stays flat: {v}");
        }
    }

    #[test]
    fn seek_frame_replays_any_offset() {
        // seek_frame(k) + one execute == running k+1 frames and keeping the
        // last: features, codes, ledger, and frame time all match (the
        // cumulative forced-decision diagnostic intentionally does not
        // replay skipped frames).
        let (program, _) = micronet_program(30.0, 8);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        for k in [0u64, 1, 5] {
            let mut sequential = Executor::new(program.clone(), 13);
            let mut last = None;
            for _ in 0..=k {
                last = Some(sequential.execute(&input).unwrap());
            }
            let want = last.unwrap();

            let mut seeked = Executor::new(program.clone(), 13);
            seeked.seek_frame(k);
            assert_eq!(seeked.next_frame(), k);
            let got = seeked.execute(&input).unwrap();
            assert_eq!(seeked.next_frame(), k + 1);
            assert_eq!(want.features, got.features, "frame {k}");
            assert_eq!(want.codes, got.codes, "frame {k}");
            assert!(want.ledger == got.ledger, "frame {k}: ledger diverged");
            assert_eq!(want.elapsed.value(), got.elapsed.value(), "frame {k}");
        }
    }

    #[test]
    fn shared_engine_is_frame_pure() {
        // One engine, two independent contexts: the same frame number gives
        // the same output regardless of which context runs it or what that
        // context ran before.
        let (program, _) = micronet_program(30.0, 8);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let engine = FrameEngine::new(program, 19);
        let mut warm = FrameCtx::new();
        // This context has history: frames 0 and 1 already ran through it.
        engine.run_frame(0, &input, &mut warm).unwrap();
        engine.run_frame(1, &input, &mut warm).unwrap();
        let from_warm = engine.run_frame(7, &input, &mut warm).unwrap();
        let mut cold = FrameCtx::new();
        let from_cold = engine.run_frame(7, &input, &mut cold).unwrap();
        assert_eq!(from_warm.features, from_cold.features);
        assert_eq!(from_warm.codes, from_cold.codes);
        assert!(from_warm.ledger == from_cold.ledger);
        assert_eq!(from_warm.forced, from_cold.forced);
    }

    #[test]
    fn inception_program_executes() {
        let spec = zoo::tiny_inception(10);
        let prefix = spec.prefix_through("pool2").unwrap();
        let mut rng = Rng::seed_from(21);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        let mut exec = Executor::new(program, 3);
        let input = Tensor::full(&[3, 32, 32], 0.3);
        let result = exec.execute(&input).unwrap();
        // inception_a output 40×16×16 pooled to 40×8×8.
        assert_eq!(result.features.dims(), &[40, 8, 8]);
        assert!(result.ledger.analog_total().value() > 0.0);
    }

    #[test]
    fn quantize_survives_degenerate_subnormal_frames() {
        // An all-subnormal feature plane used to pass the `vmax > 0` gain
        // gate and normalize the noise floor up to the ADC full scale.
        // With the epsilon floor the frame reads as no-signal: unit full
        // scale, all-zero codes, finite (≈0) features.
        let program = Program::new(
            "degenerate",
            [1, 4, 4],
            vec![Instruction::MaxPool {
                name: "p".into(),
                window: 2,
                stride: 2,
                pad: 0,
            }],
            8,
        );
        let mut exec = Executor::new(program, 31);
        let input = Tensor::full(&[1, 4, 4], 1.0e-39);
        let result = exec.execute(&input).unwrap();
        assert!(result.features.iter().all(|v| v.is_finite()));
        // ADC-internal comparator noise may flip the odd LSB on a ≈0 V
        // input, but nothing should land anywhere near the upper codes the
        // old gain staging produced (the plane maximum mapped to full
        // scale, i.e. code 255).
        assert!(
            result.codes.iter().all(|&c| c <= 2),
            "noise floor was amplified to full scale: codes {:?}",
            result.codes
        );
        assert!(
            result.features.iter().all(|v| v.abs() < 0.05),
            "degenerate frame produced full-scale features"
        );
    }
}
