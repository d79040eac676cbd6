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
//! [`BatchExecutor`](crate::BatchExecutor) shares one engine across the
//! task pool's workers, keeps one context per worker for its lifetime, and
//! carries the frame counter and forced-comparator tally. Its output is
//! bit-identical at any thread budget because frame `f`'s noise depends
//! only on `(seed, f)` — never on which worker ran it or what ran before.

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
/// frame's* tally alone — the caller (the
/// [`BatchExecutor`](crate::BatchExecutor)'s frame-ordered merge) folds it
/// into the lifetime-cumulative counter the hardware diagnostic exposes.
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
/// plus each LRN `(k, β)` pair's `x^−β` table and the comparator's
/// screening table is computed **once** at engine construction and shared
/// read-only by every frame, context, and worker thereafter. A fleet of simulated devices sharing one engine (see
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
    /// Pack-once `x^−β` tables, one per distinct LRN `(k, β)` pair.
    lrn_tables: Vec<LrnTable>,
    /// The SAR ADC, or the constructor's error for an invalid resolution,
    /// which quantization returns.
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
        // Pack-once state in the DFS pre-order `FramePass::run_instruction`
        // visits instructions in, so `conv_packs[i]` is the `i`-th conv a
        // frame executes.
        let mut conv_packs = Vec::new();
        let mut lrn_tables: Vec<LrnTable> = Vec::new();
        visit(&program.instructions, &mut |inst| match *inst {
            Instruction::Conv {
                out_c,
                ref codes,
                scale,
                ..
            } => conv_packs.push(pack_conv(codes, scale, out_c)),
            Instruction::Lrn { k, beta, .. } if !lrn_tables.iter().any(|t| t.keyed(k, beta)) => {
                lrn_tables.push(LrnTable::new(k, beta));
            }
            _ => {}
        });
        let sar = SarAdc::new(program.adc_bits);
        FrameEngine {
            program,
            stream: NoiseStream::new(seed),
            conv_packs,
            lrn_tables,
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
    /// This is the engine-level entry point the
    /// [`BatchExecutor`](crate::BatchExecutor) calls: the output is a pure function of
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
/// One context belongs to one worker: the
/// [`BatchExecutor`](crate::BatchExecutor) keeps one per budget thread
/// across batches, so every frame after a worker's first performs no
/// packing allocations.
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

/// Calls `f` on every instruction in DFS pre-order through inception
/// branches: the order [`FramePass::run_instruction`] executes them in.
fn visit(instructions: &[Instruction], f: &mut impl FnMut(&Instruction)) {
    for inst in instructions {
        f(inst);
        if let Instruction::Inception { branches, .. } = inst {
            for branch in branches {
                visit(branch, f);
            }
        }
    }
}

/// Entries in an [`LrnTable`]: 32 KB. GoogLeNet's LRN bases stay within
/// ~6,600 ulps of `k`. A power of two, so that masking an index in the
/// table leaves it unchanged.
const LRN_TABLE_LEN: u32 = 8192;
const _: () = assert!(LRN_TABLE_LEN.is_power_of_two());

/// Pack-once `x^−β` for one LRN `(k, β)` pair. On real activations an LRN
/// base `k + (α/n)·Σv²` lies a few thousand ulps above `k`, so entry `i`
/// holds `powf(−β)` of the f32 whose bits are `k`'s plus `i`. A base whose
/// bit distance from `k` indexes the table reads `powf` of its own bits;
/// any other base calls `powf` itself. Either way the result is
/// `base.powf(−β)`, bit for bit.
#[derive(Debug)]
struct LrnTable {
    k: f32,
    beta: f32,
    pow: Box<[f32; LRN_TABLE_LEN as usize]>,
}

impl LrnTable {
    fn new(k: f32, beta: f32) -> LrnTable {
        let pow = Box::new(std::array::from_fn(|i| {
            f32::from_bits(k.to_bits().wrapping_add(i as u32)).powf(-beta)
        }));
        LrnTable { k, beta, pow }
    }

    /// Whether this is the table of `(k, β)`, compared by bits (a NaN
    /// parameter matches its own table).
    fn keyed(&self, k: f32, beta: f32) -> bool {
        (self.k.to_bits(), self.beta.to_bits()) == (k.to_bits(), beta.to_bits())
    }

    /// `base^−β`.
    #[inline]
    fn pow(&self, base: f32) -> f32 {
        let i = base.to_bits().wrapping_sub(self.k.to_bits());
        match self.pow.get(i as usize) {
            Some(&p) => p,
            None => base.powf(-self.beta),
        }
    }

    /// `base^−β` of [`LRN_LANES`] bases at once: one bounds test for the
    /// group and, when every base indexes the table, a gather the compiler
    /// vectorizes. A group with a miss takes [`LrnTable::pow`] per base, so
    /// each result is the same either way.
    #[inline]
    fn pow_lanes(&self, base: [f32; LRN_LANES]) -> [f32; LRN_LANES] {
        let index = base.map(|b| b.to_bits().wrapping_sub(self.k.to_bits()));
        if index.iter().fold(0, |m, &i| m.max(i)) < LRN_TABLE_LEN {
            // The mask is a no-op on indices in the table; it lets the
            // compiler drop the per-lane bounds check.
            index.map(|i| self.pow[i as usize & (LRN_TABLE_LEN as usize - 1)])
        } else {
            base.map(|b| self.pow(b))
        }
    }
}

/// Elements per group of [`LrnTable::pow_lanes`].
const LRN_LANES: usize = 16;

impl FrameCtx {
    /// A fresh context with empty scratch.
    pub fn new() -> Self {
        FrameCtx::default()
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
                // one damped node). The implicit-GEMM packer copies
                // B-panels from a padded copy of the C×H×W input and
                // multiplies through the engine's pack-once weight panels,
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
                // The engine built a table for every LRN pair of this very
                // program; `find` keeps a miss a reported error.
                let table = self
                    .engine
                    .lrn_tables
                    .iter()
                    .find(|t| t.keyed(*k, *beta))
                    .ok_or_else(|| CoreError::BadProgram {
                        reason: format!("lrn `{name}` has no x^-beta table"),
                    })?;
                let out = lrn(x, [c, h, w], *size, *alpha, table, self.engine.threads)?;
                self.add_layer_noise(out, *snr, name)?
            }
            // Cannot fire: an inception returned at the top of this function.
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
    /// instruction, not an infinite σ. A silent plane (zero power) draws
    /// nothing but still takes its substream, so every later stage keeps
    /// its DFS ordinal.
    fn add_layer_noise(&mut self, mut out: Tensor, snr: SnrDb, name: &str) -> Result<Tensor> {
        let stream = self.next_stream();
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
    /// each window. Sites share no draw state, so the output shards freely
    /// over the thread budget; per-band decision/forced counts are summed
    /// in band order and energy is charged as a `count × per-decision`
    /// product, keeping the ledger independent of the thread count.
    ///
    /// At stride 1 or 2, a band copies each channel it pools into one
    /// padded plane whose border holds the lower rail, so a window's taps
    /// need no bounds test; windows that tile the input with no border read
    /// the input channel in place. A group of windows in one output row
    /// reads each tap as one run of the plane, contiguous or every other
    /// element; a group that crosses rows reads each lane at its own
    /// offset. A group that crosses channels, and any other stride, gathers
    /// site by site. A group's spare lanes, past a band's end, are decided
    /// and discarded.
    fn comparator_maxpool(
        &mut self,
        x: &Tensor,
        geom: &PoolGeom,
        name: &str,
    ) -> Result<(Tensor, u64)> {
        let stream = self.next_stream();
        // Gain staging: map the plane's max magnitude to the rail swing.
        let max_abs = max_fold(x.as_slice(), f32::abs);
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
        // The padded plane spans every window (ceil-mode overhang
        // included), which covers the whole input, plus the slack a short
        // in-row group's spare lanes read past the last window. Windows
        // that tile the input exactly, with no border, read the input
        // channel in place instead: the plane would be a copy of it.
        let use_plane = matches!(stride, 1 | 2);
        let (padded_h, padded_w) = ((out_h - 1) * stride + window, (out_w - 1) * stride + window);
        let padded_len = padded_h * padded_w + (LANES - 1) * stride;
        let in_place = (padded_h, padded_w) == (in_h, in_w);
        // Gathers the window of output site `(c, oy, ox)` into lane `l` of
        // a decision-major block: `block[ky·window + kx][l]` is tap
        // `(ky, kx)`.
        let gather = |block: &mut [[f32; LANES]], l: usize, (c, oy, ox): (usize, usize, usize)| {
            let plane = &src[c * in_h * in_w..(c + 1) * in_h * in_w];
            // Window origin in padded coordinates; padded row/column `p`
            // is input row/column `p − pad`.
            let (y0, x0) = (oy * stride, ox * stride);
            // The column pipeline runs a fixed comparison schedule: every
            // window tap is compared, with out-of-bounds (padding) taps
            // presenting the lower rail. This keeps the per-output decision
            // count at window²−1 regardless of border effects, matching
            // the analytic model.
            for (ky, taps) in block.chunks_exact_mut(window).enumerate() {
                let y = (y0 + ky).checked_sub(pad).filter(|&y| y < in_h);
                for (kx, tap) in taps.iter_mut().enumerate() {
                    let x = (x0 + kx).checked_sub(pad).filter(|&x| x < in_w);
                    tap[l] = match y.zip(x) {
                        Some((y, x)) => plane[y * in_w + x],
                        None => -max_abs,
                    };
                }
            }
        };
        let stats = shard_mut(&mut out, self.engine.threads, 1, |first, band| {
            let mut comparator = template.clone();
            let mut block = vec![[0.0f32; LANES]; window * window];
            let mut padded = if use_plane && !in_place {
                vec![-max_abs; padded_len]
            } else {
                Vec::new()
            };
            let mut loaded = None;
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
                let last_site = first + g * LANES + live - 1;
                let plane = if !use_plane || last_site / plane_out != c {
                    None
                } else if in_place {
                    Some(&src[c * in_h * in_w..])
                } else {
                    if loaded != Some(c) {
                        // Only the interior changes between channels; the
                        // border keeps the lower rail.
                        let plane = src[c * in_h * in_w..].chunks_exact(in_w).take(in_h);
                        let rows = padded[pad * padded_w..].chunks_exact_mut(padded_w);
                        for (row, input) in rows.zip(plane) {
                            row[pad..pad + in_w].copy_from_slice(input);
                        }
                        loaded = Some(c);
                    }
                    Some(&padded[..])
                };
                let origin = (oy * padded_w + ox) * stride;
                let in_row = ox + live <= out_w;
                match plane {
                    // An in-row group's runs end inside the padded plane;
                    // past an in-place channel they may run into the next,
                    // but not past the input's end.
                    Some(plane)
                        if in_row
                            && origin + (window - 1) * (padded_w + 1) + LANES * stride
                                <= plane.len() =>
                    {
                        if stride == 1 {
                            read_runs::<1>(&mut block, &plane[origin..], window, padded_w);
                        } else {
                            read_runs::<2>(&mut block, &plane[origin..], window, padded_w);
                        }
                        at = step(at, live);
                    }
                    Some(plane) if !in_row => {
                        let mut offsets = [0; LANES];
                        for offset in &mut offsets[..live] {
                            let (_, oy, ox) = at;
                            *offset = (oy * padded_w + ox) * stride;
                            at = step(at, 1);
                        }
                        let last = offsets[live - 1];
                        offsets[live..].fill(last);
                        for (ky, taps) in block.chunks_exact_mut(window).enumerate() {
                            for (kx, lanes) in taps.iter_mut().enumerate() {
                                let tap = &plane[ky * padded_w + kx..];
                                *lanes = std::array::from_fn(|l| tap[offsets[l]]);
                            }
                        }
                    }
                    _ => {
                        for l in 0..live {
                            gather(&mut block, l, at);
                            at = step(at, 1);
                        }
                        for taps in &mut block {
                            let last = taps[live - 1];
                            taps[live..].fill(last);
                        }
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
    /// dequantized host-domain tensor plus the raw codes. The ideal ADC
    /// draws no noise, so the readout takes no substream. Features shard
    /// over the thread budget, and energy is the
    /// `conversions × per-conversion` product. Also returns how many
    /// features clipped at the 0 V lower rail (per-band counts summed in
    /// band order, so the tally is thread-count independent).
    fn quantize(&mut self, x: &Tensor) -> Result<(Tensor, Vec<u32>, u64)> {
        let adc = self.engine.sar.as_ref().map_err(AnalogError::clone)?;
        // Gain staging: features (post-rectification, ≥ 0) map onto the ADC
        // full scale; negative residues clip at the lower rail.
        let vmax = max_fold(x.as_slice(), |v| v);
        if !vmax.is_finite() {
            return Err(not_finite("readout", "full scale", vmax));
        }
        // Floor the full scale at the smallest normal f32: a subnormal
        // maximum (a degenerate all-≈0 frame) would otherwise set a gain of
        // up to ~2^126 and blow the reconstruction up to ±inf. Such frames
        // carry no signal, so the 1 V default scale applies (to a maximum
        // of either signed zero alike).
        let full_scale = if vmax >= f32::MIN_POSITIVE {
            f64::from(vmax)
        } else {
            1.0
        };
        let n = x.len();
        let src = x.as_slice();
        let lsb = SarConversion::lsb(adc.resolution());
        let mut codes = vec![0u32; n];
        let mut deq = vec![0.0f32; n];
        let band = |first: usize, codes: &mut [u32], deq: &mut [f32]| {
            let mut clips = 0u64;
            for ((code, d), &v) in codes.iter_mut().zip(deq).zip(&src[first..]) {
                clips += u64::from(v < 0.0);
                *code = adc.code(f64::from(v.max(0.0)) / full_scale);
                // The host's dequantization is a pure function of each
                // code: its mid-rise reconstruction `(code + ½)·2⁻ⁿ`,
                // scaled back up.
                *d = ((f64::from(*code) + 0.5) * lsb * full_scale) as f32;
            }
            clips
        };
        let clips = shard_pair_mut(&mut codes, &mut deq, self.engine.threads, band);
        self.cost.convert(adc, n as u64);
        Ok((Tensor::from_vec(deq, x.dims())?, codes, clips.iter().sum()))
    }
}

/// The largest `map(v)` over `xs`, and 0 for an empty slice: `0.0` folded
/// with `f32::max` into [`MAX_LANES`] accumulators that the compiler keeps
/// in vector registers, which are then combined. `f32::max` is exact and
/// drops a NaN operand whatever the order, so only the sign of a zero
/// result can depend on the grouping.
fn max_fold(xs: &[f32], map: impl Fn(f32) -> f32) -> f32 {
    let (groups, rest) = xs.as_chunks::<MAX_LANES>();
    let lanes = groups.iter().fold([0.0f32; MAX_LANES], |acc, g| {
        std::array::from_fn(|l| acc[l].max(map(g[l])))
    });
    rest.iter()
        .fold(lanes.into_iter().fold(0.0, f32::max), |m, &v| m.max(map(v)))
}

/// Accumulators of [`max_fold`].
const MAX_LANES: usize = 16;

/// Fills a decision-major block with the windows of [`LANES`] consecutive
/// output sites of one row at stride `S`: tap `(ky, kx)` of lane `l` is
/// `plane[ky·row + kx + l·S]`, where `plane` starts at the first window's
/// origin in a padded plane of row length `row`.
#[inline(always)]
fn read_runs<const S: usize>(block: &mut [[f32; LANES]], plane: &[f32], window: usize, row: usize) {
    for (ky, taps) in block.chunks_exact_mut(window).enumerate() {
        for (kx, lanes) in taps.iter_mut().enumerate() {
            let (run, _) = plane[ky * row + kx..][..LANES * S].as_chunks::<S>();
            *lanes = std::array::from_fn(|l| run[l][0]);
        }
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
    let Some(chunk) = band_len(data.len(), threads, align) else {
        return vec![f(0, data)];
    };
    par::fan_out(data.chunks_mut(chunk).enumerate(), |(t, band)| {
        f(t * chunk, band)
    })
}

/// [`shard_mut`] over two equally long slices at once: band `[s, e)` of
/// `a` and of `b` go to one call.
fn shard_pair_mut<A, B, R, F>(a: &mut [A], b: &mut [B], threads: usize, f: F) -> Vec<R>
where
    A: Send,
    B: Send,
    R: Send,
    F: Fn(usize, &mut [A], &mut [B]) -> R + Sync,
{
    debug_assert_eq!(a.len(), b.len());
    let Some(chunk) = band_len(a.len(), threads, 1) else {
        return vec![f(0, a, b)];
    };
    let bands = a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).enumerate();
    par::fan_out(bands, |(t, (a, b))| f(t * chunk, a, b))
}

/// The band length that splits `n` sites over `threads` on `align`
/// boundaries, or `None` to run serially: below `ANALOG_PARALLEL_MIN`
/// sites, on one thread, and never more than one site per worker.
fn band_len(n: usize, threads: usize, align: usize) -> Option<usize> {
    let threads = threads.clamp(1, n.max(1));
    (n >= ANALOG_PARALLEL_MIN && threads > 1)
        .then(|| n.div_ceil(threads).div_ceil(align).max(1) * align)
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
/// place, `v·(k + (α/n)·Σv²)^−β` with the power read from `table`. The
/// channel planes shard freely over the thread budget (bands of whole
/// planes).
fn lrn(
    x: &Tensor,
    [c, h, w]: [usize; 3],
    size: usize,
    alpha: f32,
    table: &LrnTable,
    threads: usize,
) -> Result<Tensor> {
    let half = size / 2;
    let plane = h * w;
    let mut out = vec![0.0f32; c * plane];
    if plane == 0 {
        return Ok(Tensor::from_vec(out, &[c, h, w])?);
    }
    let src = x.as_slice();
    let (k, scale) = (table.k, alpha / size as f32);
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
            let (dst_groups, dst_rest) = dst.as_chunks_mut::<LRN_LANES>();
            let (src_groups, src_rest) = src[ci * plane..(ci + 1) * plane].as_chunks::<LRN_LANES>();
            for (o, v) in dst_groups.iter_mut().zip(src_groups) {
                let pow = table.pow_lanes(o.map(|sum| k + scale * sum));
                *o = std::array::from_fn(|l| v[l] * pow[l]);
            }
            for (o, &v) in dst_rest.iter_mut().zip(src_rest) {
                *o = v * table.pow(k + scale * *o);
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
    use crate::BatchExecutor;
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
        let mut exec = BatchExecutor::new(program, 5, 1).unwrap();
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
            let mut exec = BatchExecutor::new(program, 5, 1).unwrap();
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
        let mut exec = BatchExecutor::new(program, 7, 1).unwrap();
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
        let mut exec = BatchExecutor::new(program, 8, 1).unwrap();
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
        let engine = FrameEngine::new(program, 1);
        let err = engine
            .run_frame(0, &Tensor::full(&[3, 32, 32], 0.5), &mut FrameCtx::new())
            .unwrap_err();
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
            let err = FrameEngine::new(program, 1)
                .run_frame(0, &input, &mut FrameCtx::new())
                .unwrap_err();
            assert!(matches!(err, CoreError::Verify(_)), "pad {huge}: {err:?}");
            let (mut program, _) = micronet_program(40.0, 4);
            if let Instruction::Conv { out_c, .. } = &mut program.instructions[0] {
                *out_c = huge;
            }
            let err = FrameEngine::new(program, 1)
                .run_frame(0, &input, &mut FrameCtx::new())
                .unwrap_err();
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

    /// LRN as it was written before it summed plane by plane: each
    /// element sums its channel window on its own and calls `powf`. Also
    /// returns each element's base `k + (α/n)·Σv²`.
    fn lrn_elementwise(
        x: &Tensor,
        [c, h, w]: [usize; 3],
        size: usize,
        p: [f32; 3],
    ) -> (Vec<f32>, Vec<f32>) {
        let [alpha, beta, k] = p;
        let (half, plane, src) = (size / 2, h * w, x.as_slice());
        let mut out = vec![0.0f32; c * plane];
        let mut bases = vec![0.0f32; c * plane];
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
                bases[ci * plane + q] = denom;
            }
        }
        (out, bases)
    }

    #[test]
    fn plane_wise_lrn_matches_the_elementwise_sums() {
        // GoogLeNet's norm1 parameters and others; fewer channels than the
        // window, odd planes, and planes big enough for threads to split.
        // Each case gives its input range and whether its bases must hit
        // the x^−β table, miss it, or both. Inputs ramp from 0 at a
        // plane's start to the full range at its end, so ±300 inputs
        // straddle the table's edge; the small-α cases at k = 2 and 0.5
        // read it.
        let (hit, miss, both) = ((true, false), (false, true), (true, true));
        type Case = ([usize; 3], usize, [f32; 3], f32, (bool, bool));
        let cases: &[Case] = &[
            ([3, 5, 7], 5, [1e-4, 0.75, 1.0], 3.0, hit),
            ([1, 9, 9], 5, [1e-4, 0.75, 1.0], 3.0, hit),
            ([7, 13, 11], 3, [2e-3, 0.5, 2.0], 3.0, both),
            ([64, 17, 17], 5, [1e-4, 0.75, 1.0], 3.0, hit),
            ([12, 31, 29], 4, [0.1, 0.9, 0.5], 3.0, miss),
            ([16, 19, 23], 5, [1e-4, 0.75, 1.0], 300.0, both),
            ([10, 21, 21], 5, [1e-4, 0.5, 2.0], 3.0, hit),
            ([10, 21, 21], 3, [1e-4, 0.75, 0.5], 1.0, hit),
        ];
        let mut rng = Rng::seed_from(23);
        for &(dims, size, params, range, (hits, misses)) in cases {
            let mut x = Tensor::uniform(&dims, -range, range, &mut rng);
            let plane = dims[1] * dims[2];
            for (i, v) in x.iter_mut().enumerate() {
                *v *= ((i % plane) as f32 / plane as f32).powi(3);
            }
            let (want, bases) = lrn_elementwise(&x, dims, size, params);
            let [alpha, beta, k] = params;
            let in_table = bases
                .iter()
                .filter(|b| b.to_bits().wrapping_sub(k.to_bits()) < LRN_TABLE_LEN)
                .count();
            let read = (in_table > 0, in_table < bases.len());
            assert!(
                read.0 >= hits && read.1 >= misses,
                "{dims:?} ±{range}, k {k}: {in_table} of {} bases in the table",
                bases.len()
            );
            let table = LrnTable::new(k, beta);
            for threads in [1, 2, 3] {
                let got = lrn(&x, dims, size, alpha, &table, threads).unwrap();
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{dims:?}, size {size}, {threads} threads");
            }
        }
    }

    /// LRN shards whole channel planes; an empty plane returns before
    /// the plane-sized banding, at any thread budget.
    #[test]
    fn lrn_of_empty_planes_is_empty() {
        let x = Tensor::zeros(&[6, 0, 3]);
        for threads in [1, 2] {
            let out = lrn(&x, [6, 0, 3], 5, 1e-4, &LrnTable::new(1.0, 0.75), threads).unwrap();
            assert_eq!(out.dims(), &[6, 0, 3]);
        }
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (program, _) = micronet_program(40.0, 4);
        let mut exec = BatchExecutor::new(program, 9, 1).unwrap();
        assert!(exec.execute(&Tensor::zeros(&[3, 16, 16])).is_err());
    }

    #[test]
    fn execution_is_reproducible_per_seed() {
        let (program, _) = micronet_program(40.0, 4);
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let a = BatchExecutor::new(program.clone(), 42, 1)
            .unwrap()
            .execute(&input)
            .unwrap();
        let b = BatchExecutor::new(program, 42, 1)
            .unwrap()
            .execute(&input)
            .unwrap();
        assert_eq!(a.features, b.features);
        assert_eq!(a.codes, b.codes);
    }

    #[test]
    fn successive_frames_draw_fresh_noise() {
        let (program, _) = micronet_program(30.0, 10);
        let mut exec = BatchExecutor::new(program, 11, 1).unwrap();
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
            let mut exec = BatchExecutor::new(program.clone(), 77, threads).unwrap();
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
        let mut exec = BatchExecutor::new(program, 1, 1).unwrap();
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
        let mut exec = BatchExecutor::new(program, 2, 1).unwrap();
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
            let mut sequential = BatchExecutor::new(program.clone(), 13, 1).unwrap();
            let mut last = None;
            for _ in 0..=k {
                last = Some(sequential.execute(&input).unwrap());
            }
            let want = last.unwrap();

            let mut seeked = BatchExecutor::new(program.clone(), 13, 1).unwrap();
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
    fn a_silent_plane_keeps_later_stages_on_their_ordinal() {
        let (program, _) = micronet_program(30.0, 8);
        let engine = FrameEngine::new(program, 23);
        let mut ctx = FrameCtx::new();
        let stream = engine.stream.frame_substream(4);
        let mut pass = FramePass {
            ws: &mut ctx.ws,
            stream,
            ordinal: 0,
            conv_ordinal: 0,
            engine: &engine,
            noise_scale: 1.0,
            cost: FrameCost::new(32),
            forced: 0,
        };
        let snr = SnrDb::new(10.0);
        let silent = Tensor::zeros(&[3, 5]);
        assert_eq!(
            pass.add_layer_noise(silent.clone(), snr, "s").unwrap(),
            silent
        );
        let signal = Tensor::full(&[3, 5], 0.5);
        let got = pass.add_layer_noise(signal.clone(), snr, "t").unwrap();
        // Stage 1 of the frame, as the DFS ordinal says.
        let mut want = signal;
        let sigma = 0.5 / snr.amplitude_ratio() as f32;
        stream
            .substream(1)
            .add_scaled_normal(0, sigma, want.as_mut_slice());
        assert_eq!(got, want);
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
        let mut exec = BatchExecutor::new(program, 3, 1).unwrap();
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
        let mut exec = BatchExecutor::new(program, 31, 1).unwrap();
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
