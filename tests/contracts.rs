//! Execution contracts at the system boundary: one frame is a pure function
//! of `(program, seed, frame, input)`, whichever driver runs it.
//!
//! A small micronet prefix with two comparator max-pool layers runs through
//! the serial engine, the stream executor under three thread budgets (a
//! two-worker batch; a budget of 3 fed a batch of 1, then a batch of 3 on
//! the same contexts; a budget of 2 fed one frame per call) and the
//! fleet's reference device. All must agree on every frame's digest
//! (features and ADC codes), ledger and forced-decision count, and the
//! digests are pinned, so a change that flips a single comparator
//! decision, noise sample or SAR code fails here. Fleet tasks digest
//! several frames at once; on ragged device streams each frame's digest
//! equals the frame run alone.
//!
//! GoogLeNet's two 3×3 max-pool shapes are pinned on their own, at one and
//! two threads, on planes whose thread bands end part-way through an
//! 8-site comparator lane group.
//!
//! A Depth1-shaped frame (conv 7×7/2, max pool 3×3/2, LRN) is pinned at
//! one, two and three threads: the conv GEMM's output column ranges, the
//! pool's site bands and the LRN's channel planes all split, and three
//! threads split the columns unevenly. So is a frame of convs with 8 and 3
//! filters, fewer than one GEMM tile's rows, which read B in place, and a
//! frame whose second conv reads a rectified plane, whose all-zero panel
//! rows the GEMM skips.
//!
//! The micronet program also pins "static cost = dynamic ledger":
//! `analyze_cost`'s nominal point equals every serial frame's ledger and
//! frame time exactly, with the same op counts.
//!
//! The accuracy figures share the executor's noise keying: two Fig. 9
//! points of the instrumented micronet stand-in give bit-identical
//! accuracy reports whether the harness runs on one thread or three.
//!
//! The layer-noise kernel is pinned on its own as well, so a rewrite that
//! changes a single noise sample fails here without running a frame. So is
//! the owned `ln` behind it and the Box–Muller radius: plain f64
//! arithmetic, so the pin holds on every libm.
//!
//! The task pool, which runs every batch and fleet, runs each task exactly
//! once on one of the caller's worker states and returns results in
//! submission order, with heavy tasks at the head of the list and with
//! more workers than tasks.
//!
//! Panics stay contained: a task that panics on the pool comes back as a
//! typed error while the other tasks finish, and so does a task whose
//! panic starts in one band of a within-frame fan-out, with the band's own
//! message.
//!
//! A NaN or infinite pixel is a typed error on every entry point, never a
//! panic and never a poisoned frame. So is a program whose op counts
//! overflow: an LRN with a `usize::MAX` channel window is a shape error
//! naming the layer, and its frames are refused.
//!
//! The implicit-GEMM conv, which packs B panels from a padded copy of the
//! input plane, equals the explicit `im2col` + GEMM bit for bit on a
//! GoogLeNet shape whose patch matrix crosses the packer's block
//! boundaries.
//!
//! Verify-clean ⇒ runs: over a corpus of mutated micronet and pool
//! programs, every program the verifier accepts runs, and every frame
//! error is one the verifier or the input check flagged.

use redeye::analog::calib::SWING;
use redeye::analog::{Comparator, Joules, SnrDb, MAX_RESOLUTION};
use redeye::core::{
    analyze_cost, compile, frame_digest, run_tasks, verify, verify_with_options, BatchExecutor,
    CompileOptions, CoreError, CostBudget, DeviceScratch, DeviceWork, ExecutionResult, FleetEngine,
    FleetExecutor, FleetOptions, FrameCtx, FrameEngine, FrameOutput, Instruction, Program,
    VerifyOptions, WeightBank,
};
use redeye::nn::{build_network, zoo, LayerSpec, NetworkSpec, WeightInit};
use redeye::sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye::tensor::{
    box_muller_angle, box_muller_radius, conv_gemm_into, conv_gemm_packed_into, gemm_into,
    im2col_into, math, par, ConvGeom, NoiseStream, PackBuffers, PackedWeights, PoolGeom, Rng,
    SimdLevel, Tensor,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEED: u64 = 11;
const FRAMES: usize = 4;
/// Fold of the `FRAMES` frame digests for `SEED`.
const PINNED_FOLD: u64 = 0x76c6_7794_66d7_e4e6;
/// Fold of the `FRAMES` frame digests of `pool_program` for `SEED`.
const PINNED_POOL_FOLD: u64 = 0x7cbb_730a_328c_5a7a;
/// Forced comparator decisions over those frames.
const PINNED_POOL_FORCED: u64 = 2;
/// Fold of the `FRAMES` frame digests of `depth1_program` for `SEED`.
const PINNED_DEPTH1_FOLD: u64 = 0xafc9_576d_e0a7_02bb;
/// Fold of the `FRAMES` frame digests of `narrow_conv_program` for `SEED`.
const PINNED_NARROW_FOLD: u64 = 0x75b9_b5b9_4cd0_4343;
/// Digest fold of the ReLU-fed conv frames.
const PINNED_RELU_FED_FOLD: u64 = 0xcda6_af73_bf07_e6f1;
/// Fold of the noise plane bits in `layer_noise_samples_are_pinned`.
const PINNED_NOISE_FOLD: u64 = 0x8cfc_f8b8_29dd_15b7;
/// Fold of the result bits in `the_owned_ln_and_box_muller_radius_are_pinned`.
const PINNED_LN_FOLD: u64 = 0x695b_054e_86b3_5c66;
/// Fold of the result bits in `the_owned_box_muller_angle_is_pinned`.
const PINNED_ANGLE_FOLD: u64 = 0x91be_404f_59ec_d78d;

/// FNV-1a over 64-bit words.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// micronet through `pool2`: conv, max pool, LRN, conv, max pool.
fn program() -> Program {
    let prefix = zoo::micronet(4, 10)
        .prefix_through("pool2")
        .expect("micronet has pool2");
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut Rng::seed_from(41))
        .expect("micronet prefix builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&prefix, &mut bank, &CompileOptions::default()).expect("micronet prefix compiles")
}

/// Piecewise-constant 32×32 scenes (see [`scenes_of`]).
fn scenes() -> Vec<Tensor> {
    scenes_of(32)
}

/// Piecewise-constant `side`×`side` scenes: 4×4 plateaus in
/// `[0.05, 0.35]` under a 0.9 square, the last frame dimmed to low light.
/// Plateaus make exact ties and near-ties for the comparator.
fn scenes_of(side: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(SEED);
    let cells = side.div_ceil(4);
    (0..FRAMES)
        .map(|f| {
            let levels: Vec<f32> = (0..3 * cells * cells)
                .map(|_| rng.uniform(0.05, 0.35))
                .collect();
            let gain = if f == FRAMES - 1 { 0.12 } else { 1.0 };
            let mut t = Tensor::zeros(&[3, side, side]);
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                let (c, y, x) = (i / (side * side), i / side % side, i % side);
                let square = (4 + 3 * f..14 + 3 * f).contains(&y) && (6 + f..16 + f).contains(&x);
                *v = gain
                    * if square {
                        0.9
                    } else {
                        levels[c * cells * cells + y / 4 * cells + x / 4]
                    };
            }
            t
        })
        .collect()
}

/// What one driver produced for one frame.
#[derive(Debug, PartialEq)]
struct Frame {
    digest: u64,
    ledger: redeye::core::EnergyLedger,
    forced: u64,
}

impl From<&FrameOutput> for Frame {
    fn from(out: &FrameOutput) -> Frame {
        Frame {
            digest: frame_digest(out),
            ledger: out.ledger,
            forced: out.forced,
        }
    }
}

fn serial(program: &Program, inputs: &[Tensor]) -> Vec<Frame> {
    let engine = FrameEngine::new(program.clone(), SEED);
    let mut ctx = FrameCtx::new();
    (0..FRAMES)
        .map(|f| {
            Frame::from(
                &engine
                    .run_frame(f as u64, &inputs[f], &mut ctx)
                    .expect("serial frame"),
            )
        })
        .collect()
}

/// The frames through the stream executor three ways: one batch of all
/// four on a budget of 2 (2 workers × 1 thread); a budget of 3 fed a batch
/// of 1 (1 worker × 3 threads) and then a batch of 3 on the same, warm
/// contexts; and a budget of 2 fed one `execute` call per frame.
fn batch(program: &Program, inputs: &[Tensor]) -> [Vec<Frame>; 3] {
    let exec = |threads| BatchExecutor::new(program.clone(), SEED, threads).expect("verifies");
    let whole = exec(2).execute_batch(inputs).expect("batch runs").frames;
    let mut split = exec(3);
    let mut resumed = split
        .execute_batch(&inputs[..1])
        .expect("batch of 1")
        .frames;
    resumed.extend(
        split
            .execute_batch(&inputs[1..])
            .expect("batch of 3")
            .frames,
    );
    let mut single = exec(2);
    let one_by_one = inputs.iter().map(|i| single.execute(i).expect("frame"));
    [whole, resumed, one_by_one.collect()].map(unfold)
}

/// Per-frame records of a stream, each frame's own forced count recovered
/// from the cumulative tally.
fn unfold(results: Vec<ExecutionResult>) -> Vec<Frame> {
    let mut forced_before = 0;
    results
        .into_iter()
        .map(|r| {
            let out = FrameOutput {
                features: r.features,
                codes: r.codes,
                ledger: r.ledger,
                elapsed: r.elapsed,
                forced: r.forced_decisions - forced_before,
                rail_clips: r.rail_clips,
                code_mac_hits: r.code_mac_hits,
            };
            forced_before = r.forced_decisions;
            Frame::from(&out)
        })
        .collect()
}

fn fleet_reference(program: &Program, inputs: &[Tensor]) -> Vec<Frame> {
    let fleet = FleetEngine::new(program.clone(), SEED).expect("fleet engine builds");
    let device = fleet.reference_device(0);
    let mut scratch = DeviceScratch::new();
    (0..FRAMES)
        .map(|f| {
            let frame = device
                .run_frame(f as u64, &inputs[f], &mut scratch)
                .expect("reference device frame");
            let got = Frame::from(&frame.output);
            assert_eq!(
                frame.digest, got.digest,
                "device digest is the frame digest"
            );
            got
        })
        .collect()
}

#[test]
fn serial_batch_and_fleet_reference_agree_on_a_pinned_frame_digest() {
    let program = program();
    let inputs = scenes();
    let want = serial(&program, &inputs);
    let [whole, resumed, one_by_one] = batch(&program, &inputs);
    assert_eq!(whole, want, "two-worker batch");
    assert_eq!(resumed, want, "budget-3 batches of 1 and 3");
    assert_eq!(one_by_one, want, "budget-2 single frames");
    assert_eq!(
        fleet_reference(&program, &inputs),
        want,
        "fleet reference device"
    );
    assert!(want.iter().all(|f| f.ledger.comparisons > 0));
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(fold, PINNED_FOLD, "digest fold {fold:#018x}");
}

/// A fleet task runs up to eight consecutive frames of one device and
/// digests them as lockstep chains. On ragged streams of 1, 7, 8, 9 and 17
/// frames (one short task, one full task, full tasks plus a short one),
/// every reported digest equals `frame_digest` of the same device frame
/// run alone on fresh scratch, at one and three workers.
#[test]
fn fleet_frame_digests_equal_each_device_frame_run_alone() {
    let inputs: Vec<Arc<Tensor>> = scenes().into_iter().map(Arc::new).collect();
    let work: Vec<DeviceWork> = [1usize, 7, 8, 9, 17]
        .iter()
        .enumerate()
        .map(|(d, &n)| DeviceWork {
            device: 3 + d as u64,
            frames: (0..n)
                .map(|j| Arc::clone(&inputs[(d + j) % FRAMES]))
                .collect(),
        })
        .collect();
    let fleet = FleetEngine::new(program(), SEED).expect("fleet engine builds");
    let alone: Vec<Vec<u64>> = work
        .iter()
        .map(|w| {
            let device = fleet.device(w.device);
            let run = |(j, input): (usize, &Arc<Tensor>)| {
                let frame = device
                    .run_frame(j as u64, input, &mut DeviceScratch::new())
                    .expect("device frame");
                frame_digest(&frame.output)
            };
            w.frames.iter().enumerate().map(run).collect()
        })
        .collect();
    for workers in [1, 3] {
        let report = FleetExecutor::with_options(fleet.clone(), FleetOptions { workers })
            .run(&work)
            .expect("fleet runs");
        assert_eq!(report.frames, 42);
        for ((w, outcome), want) in work.iter().zip(&report.devices).zip(&alone) {
            let got: Vec<u64> = outcome.frames.iter().map(|f| f.digest).collect();
            assert_eq!(&got, want, "device {}, {workers} workers", w.device);
        }
    }
}

/// Runs every frame of `inputs` through one engine at a thread budget.
fn at_threads(program: &Program, inputs: &[Tensor], threads: usize) -> Vec<Frame> {
    let mut engine = FrameEngine::new(program.clone(), SEED);
    engine.set_threads(threads);
    let mut ctx = FrameCtx::new();
    inputs
        .iter()
        .enumerate()
        .map(|(f, input)| Frame::from(&engine.run_frame(f as u64, input, &mut ctx).expect("frame")))
        .collect()
}

/// A 3×3 conv to 13 channels on a 38×38 scene, then GoogLeNet's two 3×3
/// max-pool shapes: stride 1 with pad 1 (the inception pool branch) and
/// stride 2 with pad 0, whose last window column hangs off the plane.
/// Both pools have more than `ANALOG_PARALLEL_MIN` (4,096) sites, so two
/// threads split them, into bands of 9,386 and 2,347 sites that end
/// mid-way through an 8-site comparator group.
fn pool_program() -> Program {
    let spec = NetworkSpec::new(
        "pools",
        [3, 38, 38],
        vec![
            LayerSpec::Conv {
                name: "conv".into(),
                out_c: 13,
                kernel: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
            LayerSpec::MaxPool {
                name: "pool_s1".into(),
                window: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::MaxPool {
                name: "pool_s2".into(),
                window: 3,
                stride: 2,
                pad: 0,
            },
        ],
    );
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(43))
        .expect("pool program builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&spec, &mut bank, &CompileOptions::default()).expect("pool program compiles")
}

#[test]
fn three_by_three_pools_are_pinned_at_one_and_two_threads() {
    let program = pool_program();
    let inputs = scenes_of(38);
    let run = |threads| at_threads(&program, &inputs, threads);
    let want = run(1);
    assert_eq!(run(2), want, "two threads");
    // 13·38·38 stride-1 and 13·19·19 stride-2 sites, 8 decisions each.
    assert!(want
        .iter()
        .all(|f| f.ledger.comparisons == 8 * 13 * (38 * 38 + 19 * 19)));
    let forced: u64 = want.iter().map(|f| f.forced).sum();
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(
        (fold, forced),
        (PINNED_POOL_FOLD, PINNED_POOL_FORCED),
        "digest fold {fold:#018x}, forced {forced}"
    );
}

/// A program of one `MaxPool` instruction on a `dims` input, read out at
/// the finest ADC resolution.
fn pool_only(dims: [usize; 3], (window, stride, pad): (usize, usize, usize)) -> Program {
    let pool = Instruction::MaxPool {
        name: "pool".into(),
        window,
        stride,
        pad,
    };
    Program::new("pool", dims, vec![pool], MAX_RESOLUTION)
}

/// The comparator pool by definition: every output site's window, padding
/// taps at the lower rail `−max|x|`, through a `Comparator::compare` chain
/// on the site's own generator of `stream`, site = output index. Returns
/// the pooled plane and the decision and forced counts.
fn pool_by_compare(x: &Tensor, geom: &PoolGeom, stream: NoiseStream) -> (Tensor, u64, u64) {
    let max_abs = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let volts_per_unit = if max_abs > 0.0 {
        SWING.value() / f64::from(max_abs)
    } else {
        1.0
    };
    let (h, w, window, stride) = (geom.in_h(), geom.in_w(), geom.window(), geom.stride());
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let tap = |c: usize, y: usize, x_: usize| {
        let (y, x_) = (y.checked_sub(geom.pad()), x_.checked_sub(geom.pad()));
        match y.zip(x_).filter(|&(y, x_)| y < h && x_ < w) {
            Some((y, x_)) => x.as_slice()[(c * h + y) * w + x_],
            None => -max_abs,
        }
    };
    let mut comparator = Comparator::new();
    let mut out = Vec::with_capacity(geom.out_len());
    for c in 0..geom.channels() {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut site = stream.at(out.len() as u64);
                let mut taps = (0..window * window)
                    .map(|t| tap(c, oy * stride + t / window, ox * stride + t % window));
                let first = taps.next().expect("a window has a tap");
                out.push(taps.fold(first, |best, v| {
                    let a = f64::from(v) * volts_per_unit;
                    let b = f64::from(best) * volts_per_unit;
                    if comparator.compare(a, b, &mut site).a_greater {
                        v
                    } else {
                        best
                    }
                }));
            }
        }
    }
    let out = Tensor::from_vec(out, &[geom.channels(), out_h, out_w]).expect("pool volume");
    (
        out,
        comparator.decisions_made(),
        comparator.forced_decisions(),
    )
}

/// A `[c, h, w]` pool input of 2×2 cells, each exact zeros (ties), a
/// plateau with near-ties within 2σ of the comparator noise, or texture.
fn pool_input(dims: [usize; 3], seed: u64) -> Tensor {
    let [c, h, w] = dims;
    let mut rng = Rng::seed_from(seed);
    let cells: Vec<(usize, f32)> = (0..c * h.div_ceil(2) * w.div_ceil(2))
        .map(|_| {
            (
                (rng.uniform(0.0, 3.0) as usize).min(2),
                rng.uniform(0.05, 0.35),
            )
        })
        .collect();
    // 2σ of the comparator noise is 6e-4 V, and the rail maps the largest
    // magnitude (under 0.4) to 0.9 V.
    let near = 6e-4 * 0.35 / 0.9;
    let mut t = Tensor::zeros(&dims);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        let (ch, y, x) = (i / (h * w), i / w % h, i % w);
        let (kind, base) = cells[(ch * h.div_ceil(2) + y / 2) * w.div_ceil(2) + x / 2];
        *v = match kind {
            0 => 0.0,
            1 => base + near * rng.uniform(-1.0, 1.0),
            _ => rng.uniform(0.0, 0.4),
        };
    }
    t
}

/// Every read path of the comparator pool against its definition: one
/// `MaxPool` instruction per shape on `BatchExecutor` at budgets 1, 2 and
/// 3, two frames each, must give the features, decision count and forced
/// count of a `compare` chain per window on the instruction's substream,
/// read out the same way. The shapes cover runs read in place (2×2/2 on
/// an even plane, whose last run would end past the input) and from a
/// padded plane at stride 2 and 1, a ceil-mode window one past the edge,
/// rows narrower than a lane group, groups that cross channels, and a
/// plane that two and three threads split into bands ending part-way
/// through a group.
#[test]
fn every_pool_read_path_equals_the_compare_chain() {
    let shapes = [
        ([4, 32, 32], (2, 2, 0)),
        ([3, 14, 14], (3, 2, 0)),
        ([2, 14, 14], (3, 1, 1)),
        ([1, 7, 7], (3, 1, 1)),
        ([3, 5, 5], (3, 2, 0)),
        ([3, 39, 39], (3, 1, 1)),
    ];
    for (s, (dims, shape)) in shapes.into_iter().enumerate() {
        let [c, h, w] = dims;
        let geom = PoolGeom::new(c, h, w, shape.0, shape.1, shape.2).expect("pool shape");
        let input = pool_input(dims, s as u64);
        let out_dims = [c, geom.out_h(), geom.out_w()];
        let readout = |pooled: &Tensor| {
            let program = Program::new("readout", out_dims, Vec::new(), MAX_RESOLUTION);
            let mut exec = BatchExecutor::new(program, SEED, 1).expect("readout verifies");
            exec.execute(pooled).expect("readout").features
        };
        let want: Vec<_> = (0..2)
            .map(|f| {
                let stream = NoiseStream::new(SEED).frame_substream(f).substream(0);
                let (pooled, decisions, forced) = pool_by_compare(&input, &geom, stream);
                (readout(&pooled), decisions, forced)
            })
            .collect();
        assert!(
            want.iter().any(|w| w.0.iter().any(|&v| v > 0.0)),
            "{dims:?} {shape:?}: the readout carries signal"
        );
        for threads in 1..=3 {
            let mut exec =
                BatchExecutor::new(pool_only(dims, shape), SEED, threads).expect("pool verifies");
            for (f, (features, decisions, forced)) in want.iter().enumerate() {
                let got = exec.execute(&input).expect("pool frame");
                let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let case = format!("{dims:?} {shape:?}, {threads} threads, frame {f}");
                assert_eq!(bits(&got.features), bits(features), "{case}");
                assert_eq!(got.ledger.comparisons, *decisions, "{case}");
                let forced_before = if f == 0 { 0 } else { want[0].2 };
                assert_eq!(got.forced_decisions - forced_before, *forced, "{case}");
            }
        }
    }
}

/// GoogLeNet's Depth1 prefix on a 64×64 scene: conv 7×7/2 to 64 channels
/// (a 64×147×1,024 product, above the GEMM's serial threshold), max pool
/// 3×3/2, then LRN over 64·16·16 = 16,384 sites. Two threads split the
/// conv's output columns, the pool and the LRN; three threads split the
/// columns unevenly (352, 352 and 320).
fn depth1_program() -> Program {
    let spec = NetworkSpec::new(
        "depth1",
        [3, 64, 64],
        zoo::googlenet()
            .prefix_through("norm1")
            .expect("googlenet has norm1")
            .layers,
    );
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(47))
        .expect("depth1 program builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&spec, &mut bank, &CompileOptions::default()).expect("depth1 program compiles")
}

#[test]
fn a_depth1_shaped_frame_is_pinned_at_one_two_and_three_threads() {
    let program = depth1_program();
    let inputs = scenes_of(64);
    let want = at_threads(&program, &inputs, 1);
    assert_eq!(at_threads(&program, &inputs, 2), want, "two threads");
    assert_eq!(at_threads(&program, &inputs, 3), want, "three threads");
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(fold, PINNED_DEPTH1_FOLD, "digest fold {fold:#018x}");
}

/// Convs with fewer filters than one GEMM tile has rows, which read their
/// input in place instead of packing B panels: 7×7 stride 2 to 8 channels
/// on a 45×45 scene (23-wide output rows), then 7×7 stride 2 to 3
/// channels, whose 392-long patch crosses the 256-deep inner block
/// (12-wide output rows). No output row is a multiple of 16 wide. Both
/// products are above the GEMM's serial threshold, so two and three
/// threads split their output columns part-way through a row.
fn narrow_conv_program() -> Program {
    let conv = |name: &str, out_c| LayerSpec::Conv {
        name: name.into(),
        out_c,
        kernel: 7,
        stride: 2,
        pad: 3,
        relu: true,
    };
    let spec = NetworkSpec::new(
        "narrow",
        [3, 45, 45],
        vec![conv("conv1", 8), conv("conv2", 3)],
    );
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(53))
        .expect("narrow conv program builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&spec, &mut bank, &CompileOptions::default()).expect("narrow conv program compiles")
}

#[test]
fn tile_starved_convs_are_pinned_at_one_two_and_three_threads() {
    let program = narrow_conv_program();
    let inputs = scenes_of(45);
    let want = at_threads(&program, &inputs, 1);
    assert_eq!(at_threads(&program, &inputs, 2), want, "two threads");
    assert_eq!(at_threads(&program, &inputs, 3), want, "three threads");
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(fold, PINNED_NARROW_FOLD, "digest fold {fold:#018x}");
}

/// A conv fed a rectified plane, as RedEye's second conv is: 3×3 to 16
/// channels with ReLU on a 40×40 scene, then 3×3 to 24 channels, more
/// filters than the direct path takes, so B is packed. On the scene's
/// plateaus a filter whose weights sum below zero rectifies to zero, so
/// many of the second conv's 16-wide panel rows are all zero and skipped.
/// The product (24×144×1,600) is above the serial threshold, so two and
/// three threads split its output columns.
fn relu_fed_conv_program() -> Program {
    let conv = |name: &str, out_c| LayerSpec::Conv {
        name: name.into(),
        out_c,
        kernel: 3,
        stride: 1,
        pad: 1,
        relu: true,
    };
    let spec = NetworkSpec::new(
        "relu_fed",
        [3, 40, 40],
        vec![conv("conv1", 16), conv("conv2", 24)],
    );
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(59))
        .expect("relu-fed conv program builds");
    let mut bank = WeightBank::from_network(&mut net);
    compile(&spec, &mut bank, &CompileOptions::default()).expect("relu-fed conv program compiles")
}

#[test]
fn a_relu_fed_conv_frame_is_pinned_at_one_two_and_three_threads() {
    let program = relu_fed_conv_program();
    let inputs = scenes_of(40);
    let want = at_threads(&program, &inputs, 1);
    assert_eq!(at_threads(&program, &inputs, 2), want, "two threads");
    assert_eq!(at_threads(&program, &inputs, 3), want, "three threads");
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(fold, PINNED_RELU_FED_FOLD, "digest fold {fold:#018x}");
}

#[test]
fn static_cost_equals_every_serial_frame_ledger() {
    let program = program();
    let bounds = analyze_cost(&program).expect("micronet cost is statically derivable");
    let engine = FrameEngine::new(program, SEED);
    let mut ctx = FrameCtx::new();
    for (f, input) in scenes().iter().enumerate() {
        let out = engine
            .run_frame(f as u64, input, &mut ctx)
            .expect("serial frame");
        let l = &out.ledger;
        assert_eq!(bounds.nominal.energy, l.total(), "frame {f} energy");
        assert_eq!(bounds.nominal.time, out.elapsed, "frame {f} time");
        assert_eq!(
            (
                bounds.macs,
                bounds.comparisons,
                bounds.writes,
                bounds.conversions,
                bounds.readout_bits
            ),
            (
                l.macs,
                l.comparisons,
                l.writes,
                l.conversions,
                l.readout_bits
            ),
            "frame {f} op counts"
        );
    }
}

/// Layer noise on a plane of 1,538 elements that starts on the odd element
/// 1,001: a leading half pair, three whole 256-pair blocks of the batched
/// fill and a trailing half pair.
#[test]
fn layer_noise_samples_are_pinned() {
    let stream = NoiseStream::new(SEED).substream(7);
    let mut plane: Vec<f32> = (0..1538).map(|i| (i % 29) as f32 * 0.03).collect();
    stream.add_scaled_normal(1001, 0.25, &mut plane);
    let fold = fold(plane.iter().map(|v| u64::from(v.to_bits())));
    assert_eq!(fold, PINNED_NOISE_FOLD, "noise fold {fold:#018x}");
}

/// Fig. 9 at 5 and 40 dB (4-bit ADC) on a micronet cut at `pool3`, over
/// 30 random scenes labelled with the clean network's top-1 class: the
/// harness report is bit-identical at budgets 1 and 3, whose shards start
/// each example at a different point of a worker's run. At 5 dB the noise
/// costs hits, so the comparison sees the noise.
#[test]
fn fig9_points_are_identical_at_one_and_three_harness_threads() {
    let spec = zoo::micronet(8, 10);
    let mut net = build_network(&spec, WeightInit::HeNormal, &mut Rng::seed_from(SEED))
        .expect("micronet builds");
    let params = extract_params(&mut net);
    net.set_training(false);
    let mut rng = Rng::seed_from(SEED);
    let examples: Vec<(Tensor, usize)> = (0..30)
        .map(|_| {
            let x = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            let label = net.forward(&x).expect("forward").argmax().expect("logits");
            (x, label)
        })
        .collect();
    for snr in [5.0, 40.0] {
        let opts = InstrumentOptions {
            snr: SnrDb::new(snr),
            adc_bits: 4,
            seed: 31,
            ..InstrumentOptions::paper_default("pool3")
        };
        let report = |threads| {
            AccuracyHarness::new(examples.clone(), threads)
                .evaluate(|| instrument(&spec, &params, &opts))
                .expect("accuracy evaluation")
        };
        let one = report(1);
        assert_eq!(one, report(3), "{snr} dB");
        if snr == 5.0 {
            assert!(one.top1 < 1.0, "5 dB noise should cost hits: {one:?}");
        }
    }
}

/// `math::ln` on 2^20 points spread evenly over the normal f32 bits below
/// 1.0, on both sides of each of its 16 table-interval edges, and the
/// Box–Muller radius of every 4,096th uniform index. The fold equals the
/// one libm's `f32::ln` gives on glibc ≥ 2.28.
#[test]
fn the_owned_ln_and_box_muller_radius_are_pinned() {
    let sweep = (0..1u32 << 20).map(|i| 0x0080_0000 + i * 1008);
    let edges = (0..16u32).flat_map(|j| {
        let edge = 0x3f33_0000 + (j << 19);
        [edge - 1, edge]
    });
    let logs = sweep
        .chain(edges)
        .map(|bits| math::ln(f32::from_bits(bits)).to_bits());
    let radii = (0..1u32 << 24)
        .step_by(4096)
        .map(|i| box_muller_radius(i).to_bits());
    let fold = fold(logs.chain(radii).map(u64::from));
    assert_eq!(fold, PINNED_LN_FOLD, "ln fold {fold:#018x}");
}

/// The owned Box–Muller angle on every one of its 2²⁴ `u2` indices, both
/// halves. Plain f64 arithmetic, so the pin holds on every libm; the fold
/// equals the one libm's `f32::sin_cos` gives on glibc ≥ 2.28.
#[test]
fn the_owned_box_muller_angle_is_pinned() {
    let angles = (0..1u32 << 24).flat_map(|i| {
        let (sin, cos) = box_muller_angle(i);
        [sin.to_bits(), cos.to_bits()]
    });
    let fold = fold(angles.map(u64::from));
    assert_eq!(fold, PINNED_ANGLE_FOLD, "angle fold {fold:#018x}");
}

/// 41 tasks whose first five are ~100× heavier than the rest, at one, two
/// and three workers, and three tasks on eight workers: every task runs
/// exactly once, the results come back in submission order, each task is
/// counted in exactly one worker's state, and only the first
/// `min(tasks, workers)` states are touched.
#[test]
fn the_task_pool_runs_every_task_once_in_submission_order() {
    for (n, workers) in [(41u64, 1usize), (41, 2), (41, 3), (3, 8)] {
        let tasks: Vec<u64> = (0..n).collect();
        let runs: Vec<AtomicUsize> = tasks.iter().map(|_| AtomicUsize::new(0)).collect();
        let mut counts = vec![0usize; workers];
        let results = run_tasks(&tasks, &mut counts, |count, &t| {
            *count += 1;
            runs[t as usize].fetch_add(1, Ordering::Relaxed);
            let rounds = if t < 5 { 200_000 } else { 2_000 };
            let mut acc = t;
            for i in 0..rounds {
                acc = std::hint::black_box(acc.rotate_left(5) ^ i);
            }
            (t, acc)
        });
        let tag = format!("{n} tasks @ {workers} workers");
        let order: Vec<u64> = results.into_iter().map(|r| r.expect(&tag).0).collect();
        assert_eq!(order, tasks, "{tag}: submission order");
        for (t, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "{tag}: task {t} run count");
        }
        assert_eq!(
            counts.iter().sum::<usize>(),
            n as usize,
            "{tag}: {counts:?}"
        );
        let touched = workers.min(n as usize);
        assert!(
            counts[touched..].iter().all(|&c| c == 0),
            "{tag}: states past {touched} touched: {counts:?}"
        );
    }
}

/// Eight tasks, task 5 panics: the call returns, task 5's slot is the
/// panic and the other seven results are intact, inline and on two
/// workers.
#[test]
fn a_panicking_task_is_contained_by_the_scheduler() {
    let tasks: Vec<u64> = (0..8).collect();
    for workers in [1usize, 2] {
        let results = run_tasks(&tasks, &mut vec![(); workers], |(), &t| {
            assert_ne!(t, 5, "task 5 fails on purpose");
            t * t
        });
        assert_eq!(results.len(), 8);
        for (t, result) in results.into_iter().enumerate() {
            match result {
                Err(CoreError::WorkerPanic { task, message }) => {
                    assert_eq!((t, task), (5, 5), "{workers} workers");
                    assert!(message.contains("task 5 fails on purpose"), "{message}");
                }
                other => assert_eq!(other, Ok(t as u64 * t as u64), "{workers} workers"),
            }
        }
    }
}

/// Six tasks, each fanning out over three bands the way a frame's GEMM and
/// analog stages do; band 1 of task 3 panics. Task 3's slot carries the
/// band's own message, not a wrapper's, and the other tasks finish, inline
/// and on two workers.
#[test]
fn a_panicking_band_inside_a_task_is_contained_with_its_message() {
    let tasks: Vec<u64> = (0..6).collect();
    for workers in [1usize, 2] {
        let results = run_tasks(&tasks, &mut vec![(); workers], |(), &t| {
            par::fan_out(0..3u64, |band| {
                if (t, band) == (3, 1) {
                    panic!("band {band} of task {t} fails on purpose");
                }
                t * 10 + band
            })
            .into_iter()
            .sum::<u64>()
        });
        for (t, result) in results.into_iter().enumerate() {
            let t = t as u64;
            match result {
                Err(CoreError::WorkerPanic { task, message }) => {
                    assert_eq!((t, task), (3, 3), "{workers} workers");
                    assert_eq!(message, "band 1 of task 3 fails on purpose");
                }
                other => assert_eq!(other, Ok(30 * t + 3), "{workers} workers"),
            }
        }
    }
}

/// A NaN, +inf or −inf pixel is a `BadProgram` error naming the first bad
/// index through the serial engine, a two-worker batch, the fleet's
/// reference device and a two-worker fleet of calibrated devices.
#[test]
fn non_finite_pixels_are_a_typed_error_on_every_entry_point() {
    let program = program();
    let engine = FrameEngine::new(program.clone(), SEED);
    let mut batch = BatchExecutor::new(program.clone(), SEED, 2).expect("program verifies");
    let fleet = FleetExecutor::with_options(
        FleetEngine::new(program, SEED).expect("fleet engine builds"),
        FleetOptions { workers: 2 },
    );
    let good = scenes().swap_remove(0);
    for bad_value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut bad = good.clone();
        bad.as_mut_slice()[1500] = bad_value;
        bad.as_mut_slice()[2000] = f32::NAN;
        let frames = vec![Arc::new(good.clone()), Arc::new(bad.clone())];
        let work: Vec<DeviceWork> = (0..3)
            .map(|device| DeviceWork {
                device,
                frames: frames.clone(),
            })
            .collect();
        let device = fleet.engine().reference_device(0);
        for (entry, err) in [
            (
                "serial",
                engine.run_frame(0, &bad, &mut FrameCtx::new()).err(),
            ),
            (
                "batch",
                batch.execute_batch(&[good.clone(), bad.clone()]).err(),
            ),
            (
                "device",
                device.run_frame(0, &bad, &mut DeviceScratch::new()).err(),
            ),
            ("fleet", fleet.run(&work).err()),
        ] {
            match err {
                Some(CoreError::BadProgram { reason }) => {
                    assert!(reason.contains("pixel 1500 "), "{entry}: {reason}");
                }
                other => panic!("{entry}, {bad_value}: {other:?}"),
            }
        }
    }
    assert!(engine.run_frame(0, &good, &mut FrameCtx::new()).is_ok());
}

/// An LRN whose channel window is `usize::MAX`: its `size + 1` MACs per
/// output overflow `u64`. Without checked op counts the static cost read
/// 0 MACs in release and both the cost pass and the executor panicked on
/// the overflow in debug.
const LRN_HUGE: &str = r#"{"name":"lrn_huge","input":[2,4,4],"instructions":[{"Lrn":{"name":"norm1","size":18446744073709551615,"alpha":0.0001,"beta":0.75,"k":1.0,"snr":40.0}}],"adc_bits":4}"#;

/// Overflowing op counts are a verify error naming the layer (RE0101), the
/// static cost is not derivable, and a frame is a typed error — no panic.
#[test]
fn an_overflowing_lrn_op_count_is_a_verify_error_not_a_panic() {
    let program: Program = serde_json::from_str(LRN_HUGE).expect("program parses");
    let report = verify(&program);
    assert!(
        report
            .errors()
            .any(|d| d.code == "RE0101" && d.layer.as_deref() == Some("norm1")),
        "{}",
        report.render()
    );
    assert_eq!(analyze_cost(&program), None);
    let engine = FrameEngine::new(program, SEED);
    let frame = engine.run_frame(0, &Tensor::full(&[2, 4, 4], 0.5), &mut FrameCtx::new());
    assert!(matches!(frame, Err(CoreError::Verify(_))), "{frame:?}");
}

/// The inception_3a 3×3 conv (96×28×28 → 128, pad 1): its 864×784 patch
/// matrix spans four 256-row and two 512-column packed blocks, so blocks
/// start mid-channel, mid-kernel-row and mid-output-row. Both implicit
/// entry points, at one and two threads, equal `im2col_into` + `gemm_into`
/// bit for bit.
#[test]
fn implicit_conv_equals_im2col_at_googlenet_block_boundaries() {
    let geom = ConvGeom::new(96, 28, 28, 3, 3, 1, 1).expect("inception_3a 3x3 geometry");
    let (out_c, k, n) = (128, geom.patch_len(), geom.out_positions());
    assert_eq!((k, n), (864, 784));
    let mut rng = Rng::seed_from(SEED);
    let input = Tensor::uniform(&[96, 28, 28], -1.0, 1.0, &mut rng);
    let weights = Tensor::uniform(&[out_c, k], -0.5, 0.5, &mut rng);

    let mut packs = PackBuffers::new();
    let mut cols = Vec::new();
    im2col_into(&input, &geom, &mut cols).expect("im2col");
    let mut want = vec![0.0f32; out_c * n];
    gemm_into(
        &mut packs,
        false,
        false,
        weights.as_slice(),
        &cols,
        &mut want,
        out_c,
        n,
        k,
        1,
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let want = bits(&want);

    let packed = PackedWeights::pack(weights.as_slice(), out_c, k);
    let mut out = vec![0.0f32; out_c * n];
    for threads in [1, 2] {
        conv_gemm_into(
            &mut packs,
            weights.as_slice(),
            input.as_slice(),
            &geom,
            &mut out,
            out_c,
            threads,
        );
        assert!(bits(&out) == want, "conv_gemm_into, {threads} threads");
        conv_gemm_packed_into(
            &mut packs,
            SimdLevel::auto(),
            &packed,
            input.as_slice(),
            &geom,
            &mut out,
            threads,
        );
        assert!(
            bits(&out) == want,
            "conv_gemm_packed_into, {threads} threads"
        );
    }
}

/// One corpus entry: a name, a program, and an optional cost budget the
/// verifier and the engine both enforce.
struct Mutant {
    what: String,
    program: Program,
    budget: Option<CostBudget>,
}

/// The "verify-clean ⇒ runs" corpus: each base program unchanged, under
/// each defect class of the verifier's mutation suite (shape break, code
/// range, noise admission, kernel SRAM, saturating gain chain, frame
/// budget, duplicate name), under the executor's own refusals (no output
/// channels, weight dims, readout resolution, overflowing scale, pool and
/// LRN parameters), and under edits that may or may not stay clean (an
/// instruction dropped, two swapped, the readout depth swept, the SNR and
/// the weight scale moved up to and past their bounds).
fn corpus(base: &str, program: &Program) -> Vec<Mutant> {
    let mut out = Vec::new();
    let mut push = |what: String, f: &dyn Fn(&mut Program), budget: Option<CostBudget>| {
        let mut p = program.clone();
        f(&mut p);
        out.push(Mutant {
            what: format!("{base}: {what}"),
            program: p,
            budget,
        });
    };
    // The first instruction matching `kind` (a conv, pool or LRN); an edit
    // of a kind the base lacks leaves it unchanged.
    fn first(p: &mut Program, kind: fn(&Instruction) -> bool) -> Option<&mut Instruction> {
        p.instructions.iter_mut().find(|i| kind(i))
    }
    let conv = |i: &Instruction| matches!(i, Instruction::Conv { .. });
    let pool = |i: &Instruction| matches!(i, Instruction::MaxPool { .. });
    let lrn = |i: &Instruction| matches!(i, Instruction::Lrn { .. });
    let mut edit_conv = |what: String, f: &dyn Fn(&mut Instruction)| {
        push(
            what,
            &|p| {
                if let Some(i) = first(p, conv) {
                    f(i);
                }
            },
            None,
        );
    };
    edit_conv("unchanged".into(), &|_| {});
    edit_conv("kernel past the input".into(), &|i| {
        if let Instruction::Conv { kernel, pad, .. } = i {
            (*kernel, *pad) = (48, 0);
        }
    });
    edit_conv("code past the DAC".into(), &|i| {
        if let Instruction::Conv { codes, .. } = i {
            codes[0] = 300;
        }
    });
    for db in [f64::NAN, 10.0, 45.0, 55.0, 130.0] {
        edit_conv(format!("conv SNR {db} dB"), &move |i| {
            if let Instruction::Conv { snr, .. } = i {
                *snr = SnrDb::new(db);
            }
        });
    }
    edit_conv("kernel SRAM overflow".into(), &|i| {
        if let Instruction::Conv { codes, .. } = i {
            codes.resize(codes.len() * 64, 1);
        }
    });
    edit_conv("bias pins every output at the rail".into(), &|i| {
        if let Instruction::Conv { bias, .. } = i {
            bias.iter_mut().for_each(|b| *b = -1e4);
        }
    });
    edit_conv("no output channels".into(), &|i| {
        if let Instruction::Conv {
            out_c, codes, bias, ..
        } = i
        {
            *out_c = 0;
            codes.clear();
            bias.clear();
        }
    });
    edit_conv("one code short".into(), &|i| {
        if let Instruction::Conv { codes, .. } = i {
            codes.pop();
        }
    });
    edit_conv("one bias short".into(), &|i| {
        if let Instruction::Conv { bias, .. } = i {
            bias.pop();
        }
    });
    // 1e16 is clean for both bases, 3e16 only for the pool program: the
    // RE0608 envelope bound sits between them.
    for factor in [0.5f32, 1e16, 3e16, 1e18, f32::MAX, f32::NAN] {
        edit_conv(format!("scale × {factor:e}"), &move |i| {
            if let Instruction::Conv { scale, .. } = i {
                *scale *= factor;
            }
        });
    }
    edit_conv("no ReLU".into(), &|i| {
        if let Instruction::Conv { relu, .. } = i {
            *relu = false;
        }
    });
    for (what, window, stride) in [("window 0", 0, 2), ("stride 0", 2, 0), ("window 64", 64, 1)] {
        push(
            format!("pool {what}"),
            &|p| {
                if let Some(Instruction::MaxPool {
                    window: w,
                    stride: s,
                    ..
                }) = first(p, pool)
                {
                    (*w, *s) = (window, stride);
                }
            },
            None,
        );
    }
    for (what, size, k, beta) in [
        ("size 0", 0, 1.0, 0.75),
        ("k 0", 5, 0.0, 0.75),
        ("β NaN", 5, 1.0, f32::NAN),
    ] {
        push(
            format!("LRN {what}"),
            &|p| {
                if let Some(Instruction::Lrn {
                    size: n,
                    k: kk,
                    beta: b,
                    ..
                }) = first(p, lrn)
                {
                    (*n, *kk, *b) = (size, k, beta);
                }
            },
            None,
        );
    }
    for bits in [0, 1, 4, 10, 11] {
        push(format!("{bits}-bit readout"), &|p| p.adc_bits = bits, None);
    }
    let n = program.instructions.len();
    for i in 0..n {
        push(
            format!("instruction {i} dropped"),
            &|p| {
                p.instructions.remove(i);
            },
            None,
        );
    }
    for i in 1..n {
        push(
            format!("instructions {} and {i} swapped", i - 1),
            &|p| p.instructions.swap(i - 1, i),
            None,
        );
    }
    push(
        "duplicate layer name".into(),
        &|p| {
            let first = p.instructions[0].name().to_string();
            if let Some(Instruction::MaxPool { name, .. }) = p.instructions.get_mut(1) {
                *name = first;
            }
        },
        None,
    );
    push(
        "frame energy cap of 1 fJ".into(),
        &|_| {},
        Some(CostBudget {
            max_frame_energy: Some(Joules::new(1e-15)),
            max_frame_time: None,
        }),
    );
    out
}

/// Verify-clean ⇒ runs. Every program the verifier accepts returns `Ok`
/// from `run_frame`, and every frame error is one the verifier flagged
/// (`CoreError::Verify`, carrying the same errors) or the input check
/// flagged (a non-finite pixel). The corpus mutates the micronet and the
/// 3×3-pool programs; a clean program also runs a NaN frame, which must
/// be the input check's error.
#[test]
fn every_verify_clean_program_runs_and_every_error_was_flagged() {
    let bases = [("micronet", program()), ("pools", pool_program())];
    let (mut clean, mut refused) = (0, 0);
    for (base, program) in &bases {
        let input = scenes_of(program.input[1]).swap_remove(0);
        let mut nan = input.clone();
        nan.as_mut_slice()[7] = f32::NAN;
        for m in corpus(base, program) {
            let budget = m.budget.unwrap_or_default();
            let report = verify_with_options(
                &m.program,
                &VerifyOptions {
                    budget,
                    ..VerifyOptions::default()
                },
            );
            let mut engine = FrameEngine::new(m.program, SEED);
            engine.set_cost_budget(budget);
            let run = |x: &Tensor| engine.run_frame(0, x, &mut FrameCtx::new());
            if report.has_errors() {
                refused += 1;
                match run(&input) {
                    Err(CoreError::Verify(r)) => {
                        assert_eq!(r.render(), report.render(), "{}", m.what);
                    }
                    other => panic!("{}: flagged program ran to {other:?}", m.what),
                }
            } else {
                clean += 1;
                if let Err(e) = run(&input) {
                    panic!("{}: verify-clean program failed: {e}", m.what);
                }
                match run(&nan) {
                    Err(CoreError::BadProgram { reason }) => {
                        assert!(reason.contains("pixel 7 "), "{}: {reason}", m.what);
                    }
                    other => panic!("{}: NaN frame gave {other:?}", m.what),
                }
            }
        }
    }
    // The corpus exercises both sides of the contract.
    assert!(
        clean >= 10 && refused >= 20,
        "{clean} clean, {refused} refused"
    );
}
