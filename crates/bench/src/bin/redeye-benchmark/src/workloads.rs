//! The four workloads: set-up, the closed measurement loop, the
//! correctness gate and, when traced, the per-layer replay.
//!
//! Every workload is a closed loop: the caller issues its next frame,
//! batch or fleet window when the previous one returns. What is measured
//! is the simulator's host throughput; the sensor's 30 fps is a modelled
//! quantity, not an arrival rate. No workload runs more than two threads.

use crate::replay::{LayerMs, Replay};
use crate::scene::{self, RING};
use crate::stats::{self, fold, median, mix, FOLD_START};
use crate::trace::Tracer;
use redeye_analog::Seconds;
use redeye_core::{
    analyze_cost, compile, frame_digest, verify_with_options, BatchExecutor, CompileOptions,
    CostBounds, CostBudget, Depth, DeviceScratch, DeviceWork, FleetEngine, FleetExecutor,
    FleetOptions, FleetReport, FrameCtx, FrameEngine, FrameOutput, Program, ResourceLimits,
    VerifyOptions, WeightBank,
};
use redeye_nn::{build_network, summarize, zoo, Network, NetworkSpec, WeightInit};
use redeye_system::{BleLink, Cloudlet, JetsonHost, JetsonKind};
use redeye_tensor::{PackBuffers, Rng, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads (or GEMM/analog threads) of the parallel workloads, so
/// that every workload fits a 2-core host.
const THREADS: usize = 2;
/// Frames per `d5_batch2` batch; equal to the scene ring, so batch `b`
/// shows the ring in order.
const BATCH: usize = RING;
/// Fleet population and frames per device.
const FLEET_DEVICES: u64 = 4096;
const FLEET_FRAMES: usize = 8;
/// Devices per fleet window: one `FleetExecutor::run` call. The loop
/// cycles through the population window by window.
const WINDOW_DEVICES: u64 = 512;
/// Capture period the fleet devices free-run at (30 fps).
const FRAME_PERIOD_S: f64 = 1.0 / 30.0;
/// Weights are fixed (the program is not an input); only scenes and noise
/// seeds follow `--seed`.
const WEIGHT_SEED: u64 = 41;

/// Digest folds pinned for seeds 1 and 2: `(workload, seed, fold)`. The
/// fold covers the first timed frames, one scene ring's worth (the first
/// timed window on `micronet_fleet`). A perf change must leave them alone.
const PINNED: [(Workload, u64, u64); 8] = [
    (Workload::D3Serial, 1, 0x7df1_563b_b4de_923f),
    (Workload::D3Serial, 2, 0x75b1_159c_e832_1f7a),
    (Workload::D1Threads2, 1, 0x7bc6_99b8_3107_389d),
    (Workload::D1Threads2, 2, 0xc1e8_2bf5_81d3_125e),
    (Workload::D5Batch2, 1, 0xde9a_09bd_fb3a_87df),
    (Workload::D5Batch2, 2, 0xa2ae_b551_4e05_45a8),
    (Workload::MicronetFleet, 1, 0x9f0c_c928_465c_273a),
    (Workload::MicronetFleet, 2, 0xf776_ccad_98e8_8894),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GoogLeNet through `pool3`, one engine on the caller's thread.
    D3Serial,
    /// GoogLeNet through `norm1` with two GEMM/analog threads per frame.
    D1Threads2,
    /// GoogLeNet through `inception_4b`, batches of 8 on two workers.
    D5Batch2,
    /// micronet through `pool1`, 4096 devices × 8 frames on two
    /// work-stealing workers, with the cloudlet queue over each window.
    MicronetFleet,
}

impl Workload {
    /// Every workload, in the order `--smoke` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::D3Serial,
        Workload::D1Threads2,
        Workload::D5Batch2,
        Workload::MicronetFleet,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::D3Serial => "d3_serial",
            Workload::D1Threads2 => "d1_threads2",
            Workload::D5Batch2 => "d5_batch2",
            Workload::MicronetFleet => "micronet_fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads one timed unit runs on.
    fn threads(self) -> usize {
        match self {
            Workload::D3Serial => 1,
            _ => THREADS,
        }
    }

    /// Timed units the loop must run before the digest fold is complete.
    fn min_units(self) -> usize {
        match self {
            Workload::D3Serial | Workload::D1Threads2 => RING,
            Workload::D5Batch2 | Workload::MicronetFleet => 1,
        }
    }
}

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the scenes, the engine noise and the fleet.
    pub seed: u64,
    /// Length of the measurement (split between the loop and the replay
    /// when tracing).
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produced.
pub struct Report {
    /// Frames issued (set-up warm units and timed units).
    pub attempted: u64,
    /// Frames whose call returned an error.
    pub failed: u64,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context lines printed before the metrics.
    pub notes: Vec<String>,
    /// The run's spans.
    pub tracer: Tracer,
}

/// The network prefix a workload compiles, with its fixed weights.
struct Model {
    prefix: NetworkSpec,
    net: Network,
}

impl Model {
    fn new(w: Workload) -> Model {
        let (spec, cut) = model_spec(w);
        let prefix = spec.prefix_through(cut).expect("the cut layer exists");
        let net = build_network(
            &prefix,
            WeightInit::HeNormal,
            &mut Rng::seed_from(WEIGHT_SEED),
        )
        .expect("zoo prefixes build");
        Model { prefix, net }
    }
}

fn model_spec(w: Workload) -> (NetworkSpec, &'static str) {
    match w {
        Workload::D3Serial => (zoo::googlenet(), Depth::D3.cut_layer()),
        Workload::D1Threads2 => (zoo::googlenet(), Depth::D1.cut_layer()),
        Workload::D5Batch2 => (zoo::googlenet(), Depth::D5.cut_layer()),
        Workload::MicronetFleet => (zoo::micronet(4, 10), "pool1"),
    }
}

/// The cloudlet finishing micronet's suffix for every fleet frame.
fn cloudlet() -> Cloudlet {
    let (spec, cut) = model_spec(Workload::MicronetFleet);
    let summary = summarize(&spec).expect("micronet summarizes");
    let pos = summary.layers.iter().position(|l| l.name == cut);
    let suffix = &summary.layers[pos.expect("cut layer in summary") + 1..];
    let host = JetsonHost::fit(JetsonKind::Gpu);
    let service = host.run_counts(
        suffix.iter().map(|l| l.macs).sum(),
        suffix.iter().map(|l| l.params).sum(),
    );
    Cloudlet::new(
        BleLink::paper_characterization(),
        service.time,
        host.power(),
    )
}

/// Seeds derived from `--seed`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    engine: u64,
    fleet: u64,
}

impl Seeds {
    /// The root noise seed a workload's frames run under: the engine seed,
    /// or the fleet seed (which the reference device uses as its own).
    fn of(self, w: Workload) -> u64 {
        match w {
            Workload::MicronetFleet => self.fleet,
            _ => self.engine,
        }
    }
}

/// Generated inputs: the scene ring and, for the fleet, its windows.
struct Inputs {
    ring: Vec<Tensor>,
    windows: Vec<Vec<DeviceWork>>,
}

impl Inputs {
    fn new(w: Workload, seed: u64, dims: [usize; 3]) -> Inputs {
        let ring = scene::ring(mix(seed, 0x0005_ce4e + w as u64), dims);
        let windows = if w == Workload::MicronetFleet {
            let shared: Vec<Arc<Tensor>> = ring.iter().cloned().map(Arc::new).collect();
            (0..FLEET_DEVICES / WINDOW_DEVICES)
                .map(|win| {
                    (win * WINDOW_DEVICES..(win + 1) * WINDOW_DEVICES)
                        .map(|device| DeviceWork {
                            device,
                            frames: (0..FLEET_FRAMES)
                                .map(|j| Arc::clone(&shared[(device as usize + j) % RING]))
                                .collect(),
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Inputs { ring, windows }
    }
}

/// The first frame of a timed unit, kept for the reference check.
struct Sample {
    frame: u64,
    digest: u64,
    output: FrameOutput,
}

/// One timed unit: a frame, a batch, or a fleet window plus its cloudlet
/// pass.
struct Unit {
    ms: f64,
    frames: u64,
    failed: u64,
    /// Frame digest, fold of the batch's frame digests, or fleet digest.
    digest: u64,
    steals: u64,
    /// Fleet window index.
    window: Option<usize>,
    sample: Option<Sample>,
}

impl Unit {
    fn errored(ms: f64, frames: u64) -> Unit {
        Unit {
            ms,
            frames,
            failed: frames,
            digest: 0,
            steals: 0,
            window: None,
            sample: None,
        }
    }
}

/// What a workload's loop runs each unit on.
enum Runner {
    Serial {
        engine: Box<FrameEngine>,
        ctx: FrameCtx,
        next: u64,
    },
    Batch {
        exec: BatchExecutor,
        forced_total: u64,
    },
    Fleet {
        exec: FleetExecutor,
        cloudlet: Cloudlet,
        next: usize,
    },
}

/// Cloudlet jobs of one fleet window: device `d` of `n` free-runs at
/// 30 fps with phase `d/n`, so capture completes at phase + frame time.
fn cloudlet_jobs(report: &FleetReport) -> Vec<(Seconds, u64)> {
    let n = report.devices.len().max(1) as f64;
    report
        .devices
        .iter()
        .enumerate()
        .flat_map(|(pos, outcome)| {
            let phase = Seconds::new(FRAME_PERIOD_S * pos as f64 / n);
            outcome
                .frames
                .iter()
                .map(move |f| (phase + f.frame_time, f.payload_bits))
        })
        .collect()
}

impl Runner {
    /// Runs one unit. Errors count as failed frames, never abort the loop.
    fn run_unit(&mut self, inputs: &Inputs, tracer: &mut Tracer) -> Unit {
        match self {
            Runner::Serial { engine, ctx, next } => {
                let frame = *next;
                *next += 1;
                let input = &inputs.ring[frame as usize % RING];
                let (out, ms) = tracer.time("core.executor.run_frame", || {
                    engine.run_frame(frame, input, ctx)
                });
                let Ok(output) = out else {
                    return Unit::errored(ms, 1);
                };
                let digest = frame_digest(&output);
                Unit {
                    ms,
                    frames: 1,
                    failed: 0,
                    digest,
                    steals: 0,
                    window: None,
                    sample: Some(Sample {
                        frame,
                        digest,
                        output,
                    }),
                }
            }
            Runner::Batch { exec, forced_total } => {
                let base = exec.next_frame();
                let (out, ms) = tracer.time("core.batch.execute_batch", || {
                    exec.execute_batch(&inputs.ring)
                });
                let Ok(result) = out else {
                    return Unit::errored(ms, BATCH as u64);
                };
                let mut digest = FOLD_START;
                let mut sample = None;
                for (i, r) in result.frames.into_iter().enumerate() {
                    let output = FrameOutput {
                        features: r.features,
                        codes: r.codes,
                        ledger: r.ledger,
                        elapsed: r.elapsed,
                        forced: r.forced_decisions - *forced_total,
                        rail_clips: r.rail_clips,
                        code_mac_hits: r.code_mac_hits,
                    };
                    *forced_total = r.forced_decisions;
                    let d = frame_digest(&output);
                    digest = fold(digest, d);
                    if i == 0 {
                        sample = Some(Sample {
                            frame: base,
                            digest: d,
                            output,
                        });
                    }
                }
                Unit {
                    ms,
                    frames: BATCH as u64,
                    failed: 0,
                    digest,
                    steals: 0,
                    window: None,
                    sample,
                }
            }
            Runner::Fleet {
                exec,
                cloudlet,
                next,
            } => {
                let window = *next;
                *next = (*next + 1) % inputs.windows.len();
                let work = &inputs.windows[window];
                let unit = tracer.begin("core.fleet.window");
                let (out, _) = tracer.time("core.fleet.run", || exec.run(work));
                let report = match out {
                    Ok(report) => {
                        let (queue, _) = tracer.time("system.cloudlet", || {
                            cloudlet.simulate(&cloudlet_jobs(&report))
                        });
                        std::hint::black_box(queue);
                        Some(report)
                    }
                    Err(_) => None,
                };
                let ms = tracer.end(unit);
                let Some(report) = report else {
                    return Unit::errored(ms, WINDOW_DEVICES * FLEET_FRAMES as u64);
                };
                Unit {
                    ms,
                    frames: report.frames,
                    failed: 0,
                    digest: report.digest,
                    steals: report.steals,
                    window: Some(window),
                    sample: None,
                }
            }
        }
    }
}

/// Wall time of one set-up's stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupMs {
    compile: f64,
    verify: f64,
    analyze: f64,
    engine_new: f64,
    warm: f64,
    total: f64,
}

/// A workload brought to steady state.
struct Ready {
    runner: Runner,
    program: Program,
    bounds: CostBounds,
    warm: Unit,
    ms: SetupMs,
}

/// Program spec to steady state: compile, verify, static cost, engine or
/// pool construction, and the first (warm-up) unit.
fn setup(
    w: Workload,
    model: &mut Model,
    seeds: Seeds,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<Ready, String> {
    let all = tracer.begin("setup");
    let (program, compile_ms) = tracer.time("core.compile", || {
        let mut bank = WeightBank::from_network(&mut model.net);
        compile(&model.prefix, &mut bank, &CompileOptions::default())
    });
    let program = program.map_err(|e| format!("compile: {e}"))?;
    let options = VerifyOptions {
        limits: ResourceLimits::default(),
        budget: CostBudget::default(),
    };
    let (report, verify_ms) =
        tracer.time("verify.verify", || verify_with_options(&program, &options));
    if report.has_errors() {
        return Err(format!("verify:\n{}", report.render()));
    }
    let (bounds, analyze_ms) = tracer.time("verify.analyze_cost", || analyze_cost(&program));
    let bounds = bounds.ok_or("analyze_cost: cost is not statically derivable")?;
    let (runner, new_ms) = tracer.time("core.engine.new", || match w {
        Workload::D3Serial | Workload::D1Threads2 => {
            let mut engine = Box::new(FrameEngine::new(program.clone(), seeds.engine));
            engine.set_threads(w.threads());
            Ok(Runner::Serial {
                engine,
                ctx: FrameCtx::new(),
                next: 0,
            })
        }
        Workload::D5Batch2 => {
            BatchExecutor::new(program.clone(), seeds.engine, THREADS).map(|exec| Runner::Batch {
                exec,
                forced_total: 0,
            })
        }
        Workload::MicronetFleet => FleetEngine::new(program.clone(), seeds.fleet).map(|engine| {
            let opts = FleetOptions {
                workers: THREADS,
                ..FleetOptions::default()
            };
            Runner::Fleet {
                exec: FleetExecutor::with_options(engine, opts),
                cloudlet: cloudlet(),
                next: 0,
            }
        }),
    });
    let mut runner = runner.map_err(|e| format!("engine: {e}"))?;
    let warm_span = tracer.begin("warm");
    let warm = runner.run_unit(inputs, tracer);
    let warm_ms = tracer.end(warm_span);
    let total = tracer.end(all);
    if warm.failed > 0 {
        return Err("the warm-up unit failed".into());
    }
    Ok(Ready {
        runner,
        program,
        bounds,
        warm,
        ms: SetupMs {
            compile: compile_ms,
            verify: verify_ms,
            analyze: analyze_ms,
            engine_new: new_ms,
            warm: warm_ms,
            total,
        },
    })
}

/// `|a - b| ≤ 1e-12·|a|`: the static cost pass reproduces the ledger's
/// arithmetic in the same order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs() * 1e-12
}

/// Compares the static nominal point with one frame's ledger.
fn cost_mismatch(bounds: &CostBounds, out: &FrameOutput) -> Option<String> {
    let l = &out.ledger;
    let static_counts = (
        bounds.macs,
        bounds.comparisons,
        bounds.writes,
        bounds.conversions,
        bounds.readout_bits,
    );
    let counts = (
        l.macs,
        l.comparisons,
        l.writes,
        l.conversions,
        l.readout_bits,
    );
    let (energy, time) = (bounds.nominal.energy.value(), bounds.nominal.time.value());
    let same = close(energy, l.total().value())
        && close(time, out.elapsed.value())
        && static_counts == counts;
    (!same).then(|| {
        format!(
            "analyze_cost nominal ({energy} J, {time} s, counts {static_counts:?}) != frame \
             ledger ({} J, {} s, counts {counts:?})",
            l.total().value(),
            out.elapsed.value()
        )
    })
}

/// The reference frame: what a fresh one-thread serial engine produces
/// for the sampled frame, compared with what the workload produced.
fn reference_check(
    ready: &Ready,
    seed: u64,
    inputs: &Inputs,
    sample: Option<&Sample>,
    failures: &mut Vec<String>,
) -> Option<FrameOutput> {
    let frame = match &ready.runner {
        Runner::Fleet { .. } => 0,
        _ => sample?.frame,
    };
    let input = &inputs.ring[frame as usize % RING];
    let engine = FrameEngine::new(ready.program.clone(), seed);
    let want = match engine.run_frame(frame, input, &mut FrameCtx::new()) {
        Ok(out) => out,
        Err(e) => {
            failures.push(format!("reference frame failed: {e}"));
            return None;
        }
    };
    let want_digest = frame_digest(&want);
    let got = match &ready.runner {
        Runner::Fleet { exec, .. } => exec
            .engine()
            .reference_device(0)
            .run_frame(frame, input, &mut DeviceScratch::new())
            .map(|f| (f.digest, f.output.ledger))
            .map_err(|e| e.to_string()),
        _ => sample
            .map(|s| (s.digest, s.output.ledger))
            .ok_or_else(|| "no sampled frame".to_string()),
    };
    match got {
        Ok((digest, ledger)) if digest == want_digest && ledger == want.ledger => {}
        Ok((digest, _)) => failures.push(format!(
            "frame {frame} digest {digest:016x} != fresh serial engine {want_digest:016x}"
        )),
        Err(e) => failures.push(format!("reference comparison failed: {e}")),
    }
    Some(want)
}

/// Runs workload `w` and returns its report.
///
/// # Errors
///
/// Returns a description when set-up fails (the program does not compile,
/// verify or construct); such a run has no metrics.
pub fn run(w: Workload, opts: &Options) -> Result<Report, String> {
    let mut tracer = Tracer::new(opts.trace);
    let seeds = Seeds {
        engine: mix(opts.seed, 0x00e4_617e),
        fleet: mix(opts.seed, 0x000f_1ee7),
    };
    let mut model = Model::new(w);
    let inputs = Inputs::new(w, opts.seed, model.prefix.input);
    let mut notes = Vec::new();

    let mut setups = Vec::with_capacity(opts.setups);
    let mut ready = None;
    let mut attempted = 0;
    for _ in 0..opts.setups.max(1) {
        drop(ready.take());
        let r = setup(w, &mut model, seeds, &inputs, &mut tracer)?;
        setups.push(r.ms);
        attempted += r.warm.frames;
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up ran");

    // The closed loop. When tracing, every other unit records its spans,
    // so traced and untraced unit times give the tracing overhead.
    let loop_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let min_units = w.min_units().max(if opts.trace { 2 } else { 1 });
    let mut units: Vec<Unit> = Vec::new();
    let start = Instant::now();
    while units.len() < min_units || start.elapsed().as_secs_f64() < loop_seconds {
        tracer.set_on(opts.trace && units.len() % 2 == 1);
        let mut unit = ready.runner.run_unit(&inputs, &mut tracer);
        // Only the first sample is checked; holding the rest would count
        // the benchmark's own memory in the peak RSS.
        if !units.is_empty() {
            unit.sample = None;
        }
        units.push(unit);
    }
    let wall_s = start.elapsed().as_secs_f64();
    // Read before the checks below build engines of their own.
    let peak_rss = stats::peak_rss_mib();
    tracer.set_on(opts.trace);
    let frames: u64 = units.iter().map(|u| u.frames).sum();
    let failed: u64 = units.iter().map(|u| u.failed).sum();
    attempted += frames;

    // Correctness gate.
    let mut failures = Vec::new();
    if failed > 0 {
        failures.push(format!(
            "{failed} of {frames} timed frames returned an error"
        ));
    }
    let mut digest = FOLD_START;
    let mut covered = 0;
    for u in &units {
        if covered >= RING as u64 {
            break;
        }
        digest = fold(digest, u.digest);
        covered += u.frames;
    }
    notes.push(format!("digest fold {digest:016x}"));
    if let Some(&(_, _, pinned)) = PINNED.iter().find(|p| p.0 == w && p.1 == opts.seed) {
        if digest != pinned {
            failures.push(format!(
                "digest fold {digest:016x} != {pinned:016x} pinned for seed {}",
                opts.seed
            ));
        }
    }
    let mut windows = BTreeMap::new();
    for u in std::iter::once(&ready.warm).chain(&units) {
        if let Some(win) = u.window {
            if *windows.entry(win).or_insert(u.digest) != u.digest {
                failures.push(format!("fleet window {win} digest changed between passes"));
            }
        }
    }
    let sample = units.iter().find_map(|u| u.sample.as_ref());
    if let Some(reference) = reference_check(&ready, seeds.of(w), &inputs, sample, &mut failures) {
        failures.extend(cost_mismatch(&ready.bounds, &reference));
    }

    let frame_ms: Vec<f64> = units.iter().map(|u| u.ms / u.frames as f64).collect();
    notes.push(format!(
        "{} timed units, {frames} frames in {wall_s:.2} s",
        units.len()
    ));
    if let Some(p) = stats::tail_percentile(frame_ms.len()) {
        notes.push(format!(
            "frame_ms_p{p} {:.4} ms (highest percentile with >= 10 of {} samples beyond it)",
            stats::quantile(&frame_ms, f64::from(p) / 100.0),
            frame_ms.len()
        ));
    }

    let metrics = if !opts.trace {
        end_to_end(&setups, &frame_ms, frames as f64 / wall_s, peak_rss)
    } else {
        match replay_phase(&ready.program, seeds.of(w), &inputs, opts, &mut tracer) {
            Ok(split) => per_layer(w, &setups, &units, &split),
            Err(e) => {
                failures.push(e);
                Vec::new()
            }
        }
    };
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics,
        notes,
        tracer,
    })
}

/// The untraced run's metrics.
fn end_to_end(setups: &[SetupMs], frame_ms: &[f64], fps: f64, rss: Option<f64>) -> Vec<Metric> {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total / 1e3).collect();
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("fps", fps, "frames/s"),
        metric("frame_ms_p50", median(frame_ms), "ms"),
        metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB"),
    ]
}

/// The traced run's metrics: set-up stages, the loop's units (every other
/// one traced), and the one-thread frame split over the replayed layers.
fn per_layer(w: Workload, setups: &[SetupMs], units: &[Unit], split: &Split) -> Vec<Metric> {
    let stage = |f: fn(&SetupMs) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let unit_ms: Vec<f64> = units.iter().map(|u| u.ms).collect();
    let traced: Vec<f64> = unit_ms.iter().copied().skip(1).step_by(2).collect();
    let untraced: Vec<f64> = unit_ms.iter().copied().step_by(2).collect();
    let frames: u64 = units.iter().map(|u| u.frames).sum();
    let steals: u64 = units.iter().map(|u| u.steals).sum();
    let frames_per_unit = frames as f64 / units.len() as f64;
    let mut m = vec![
        metric("core.compile.ms", stage(|s| s.compile), "ms"),
        metric("verify.verify.ms", stage(|s| s.verify), "ms"),
        metric("verify.analyze_cost.ms", stage(|s| s.analyze), "ms"),
        metric("core.engine.new_ms", stage(|s| s.engine_new), "ms"),
        metric("core.executor.warm_frame_ms", stage(|s| s.warm), "ms"),
        metric("core.executor.unit_ms", median(&unit_ms), "ms"),
        metric(
            "core.executor.parallel_efficiency",
            frames_per_unit * split.frame_ms / (w.threads() as f64 * median(&unit_ms)),
            "ratio",
        ),
    ];
    m.extend(split.metrics());
    m.push(metric(
        "core.stealing.steals_per_1k_frames",
        1e3 * steals as f64 / frames as f64,
        "steals/1kframes",
    ));
    m.push(metric(
        "trace.overhead_share",
        (median(&traced) - median(&untraced)) / median(&untraced),
        "ratio",
    ));
    m
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Replays at least this many frames, so each per-layer median has a
/// middle; at most this many, so a fast program's trace stays small.
const MIN_REPLAYS: u64 = 3;
const MAX_REPLAYS: u64 = 400;

/// One-thread frame time split over the replayed layers.
struct Split {
    frame_ms: f64,
    layers: LayerMs,
    counts: crate::replay::Counts,
    output: FrameOutput,
}

impl Split {
    fn metrics(&self) -> Vec<Metric> {
        let (l, c, out) = (&self.layers, &self.counts, &self.output);
        let residual = self.frame_ms - l.sum();
        vec![
            metric("core.executor.frame_ms", self.frame_ms, "ms"),
            metric("tensor.conv_gemm.ms", l.conv_gemm, "ms"),
            metric(
                "tensor.conv_gemm.gmac_per_s",
                c.conv_macs as f64 / (l.conv_gemm * 1e6),
                "GMAC/s",
            ),
            metric("tensor.noise.ms", l.noise, "ms"),
            metric("tensor.noise.samples", c.noise_samples as f64, "count"),
            metric("analog.comparator.ms", l.comparator, "ms"),
            metric(
                "analog.comparator.ns_per_decision",
                l.comparator * 1e6 / c.comparisons as f64,
                "ns",
            ),
            metric("analog.sar.ms", l.sar, "ms"),
            metric("core.executor.residual_ms", residual, "ms"),
            metric(
                "core.executor.residual_share",
                residual / self.frame_ms,
                "ratio",
            ),
            metric("core.executor.macs", out.ledger.macs as f64, "count"),
            metric(
                "core.executor.comparisons",
                out.ledger.comparisons as f64,
                "count",
            ),
            metric(
                "core.executor.conversions",
                out.ledger.conversions as f64,
                "count",
            ),
            metric("core.executor.writes", out.ledger.writes as f64, "count"),
            metric("core.executor.forced", out.forced as f64, "count"),
            metric("core.executor.rail_clips", out.rail_clips as f64, "count"),
            metric(
                "core.executor.code_mac_hits",
                out.code_mac_hits as f64,
                "count",
            ),
        ]
    }
}

/// Alternates one-thread `run_frame` calls with replays of the same frame
/// for half the run, checking each replay's op counts against the frame's
/// ledger. Layer times are medians over the replays.
fn replay_phase(
    program: &Program,
    seed: u64,
    inputs: &Inputs,
    opts: &Options,
    tracer: &mut Tracer,
) -> Result<Split, String> {
    let replay = Replay::new(program, seed).map_err(|e| format!("replay: {e}"))?;
    let engine = FrameEngine::new(program.clone(), seed);
    let mut ctx = FrameCtx::new();
    let mut packs = PackBuffers::new();
    let mut frame_ms = Vec::new();
    let mut layers: Vec<LayerMs> = Vec::new();
    let mut first = None;
    let start = Instant::now();
    for frame in 0u64.. {
        let elapsed = start.elapsed().as_secs_f64();
        if frame >= MAX_REPLAYS || (frame >= MIN_REPLAYS && elapsed >= opts.seconds / 2.0) {
            break;
        }
        let input = &inputs.ring[frame as usize % RING];
        let (out, ms) = tracer.time("core.executor.frame", || {
            engine.run_frame(frame, input, &mut ctx)
        });
        let out = out.map_err(|e| format!("reference frame {frame}: {e}"))?;
        let (counts, layer_ms) = replay.run(frame, input.as_slice(), tracer, &mut packs);
        let l = &out.ledger;
        let issued = (
            counts.macs,
            counts.comparisons,
            counts.conversions,
            counts.writes,
        );
        let charged = (l.macs, l.comparisons, l.conversions, l.writes);
        if issued != charged {
            return Err(format!(
                "replay issued (macs, comparisons, conversions, writes) {issued:?} \
                 but the ledger charged {charged:?}"
            ));
        }
        frame_ms.push(ms);
        layers.push(layer_ms);
        first.get_or_insert((counts, out));
    }
    let (counts, output) = first.expect("at least MIN_REPLAYS frames ran");
    let layer = |f: fn(&LayerMs) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    Ok(Split {
        frame_ms: median(&frame_ms),
        layers: LayerMs {
            conv_gemm: layer(|l| l.conv_gemm),
            noise: layer(|l| l.noise),
            comparator: layer(|l| l.comparator),
            sar: layer(|l| l.sar),
        },
        counts,
        output,
    })
}
