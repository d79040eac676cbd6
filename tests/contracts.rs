//! Execution contracts at the system boundary: one frame is a pure function
//! of `(program, seed, frame, input)`, whichever driver runs it.
//!
//! A small micronet prefix with two comparator max-pool layers runs through
//! the serial engine, a two-worker batch and the fleet's reference
//! device. All three must agree on every frame's digest (features and ADC
//! codes), ledger and forced-decision count, and the digests are pinned, so
//! a change that flips a single comparator decision, noise sample or SAR
//! code fails here.
//!
//! The same program pins "static cost = dynamic ledger": `analyze_cost`'s
//! nominal point equals every serial frame's ledger and frame time exactly,
//! with the same op counts.
//!
//! The layer-noise kernel is pinned on its own as well, so a rewrite that
//! changes a single noise sample fails here without running a frame.
//!
//! Panics stay contained: a task that panics on the work-stealing
//! scheduler, which runs every batch and fleet, comes back as a typed error
//! while the other tasks finish, and so does a task whose panic starts in
//! one band of a within-frame fan-out, with the band's own message.
//!
//! A NaN or infinite pixel is a typed error on every entry point, never a
//! panic and never a poisoned frame. So is a program whose op counts
//! overflow: an LRN with a `usize::MAX` channel window is a shape error
//! naming the layer, and its frames are refused.
//!
//! The implicit-GEMM conv, which packs B panels straight from the input
//! plane, equals the explicit `im2col` + GEMM bit for bit on a GoogLeNet
//! shape whose patch matrix crosses the packer's block boundaries.

use redeye::core::{
    analyze_cost, compile, frame_digest, run_stealing, verify, BatchExecutor, CompileOptions,
    CoreError, DeviceScratch, DeviceWork, FleetEngine, FleetExecutor, FleetOptions, FrameCtx,
    FrameEngine, FrameOutput, Program, StealOptions, WeightBank,
};
use redeye::nn::{build_network, zoo, WeightInit};
use redeye::tensor::{
    conv_gemm_into, conv_gemm_packed_into, gemm_into, im2col_into, par, ConvGeom, NoiseStream,
    PackBuffers, PackedWeights, Rng, SimdLevel, Tensor,
};
use std::sync::Arc;

const SEED: u64 = 11;
const FRAMES: usize = 4;
/// Fold of the `FRAMES` frame digests for `SEED`.
const PINNED_FOLD: u64 = 0x76c6_7794_66d7_e4e6;
/// Fold of the noise plane bits in `layer_noise_samples_are_pinned`.
const PINNED_NOISE_FOLD: u64 = 0x8cfc_f8b8_29dd_15b7;

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

/// Piecewise-constant scenes: 4×4 plateaus in `[0.05, 0.35]` under a 0.9
/// square, the last frame dimmed to low light. Plateaus make exact ties
/// and near-ties for the comparator.
fn scenes() -> Vec<Tensor> {
    let mut rng = Rng::seed_from(SEED);
    (0..FRAMES)
        .map(|f| {
            let levels: Vec<f32> = (0..3 * 8 * 8).map(|_| rng.uniform(0.05, 0.35)).collect();
            let gain = if f == FRAMES - 1 { 0.12 } else { 1.0 };
            let mut t = Tensor::zeros(&[3, 32, 32]);
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                let (c, y, x) = (i / 1024, i / 32 % 32, i % 32);
                let square = (4 + 3 * f..14 + 3 * f).contains(&y) && (6 + f..16 + f).contains(&x);
                *v = gain
                    * if square {
                        0.9
                    } else {
                        levels[c * 64 + y / 4 * 8 + x / 4]
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

fn batch(program: &Program, inputs: &[Tensor]) -> Vec<Frame> {
    let mut exec = BatchExecutor::new(program.clone(), SEED, 2).expect("program verifies");
    let result = exec.execute_batch(inputs).expect("batch runs");
    let mut forced_before = 0;
    result
        .frames
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
    assert_eq!(batch(&program, &inputs), want, "two-worker batch");
    assert_eq!(
        fleet_reference(&program, &inputs),
        want,
        "fleet reference device"
    );
    assert!(want.iter().all(|f| f.ledger.comparisons > 0));
    let fold = fold(want.iter().map(|f| f.digest));
    assert_eq!(fold, PINNED_FOLD, "digest fold {fold:#018x}");
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

/// Eight tasks, task 5 panics: the call returns, task 5's slot is the
/// panic and the other seven results are intact, inline and on two
/// workers.
#[test]
fn a_panicking_task_is_contained_by_the_scheduler() {
    let tasks: Vec<u64> = (0..8).collect();
    for workers in [1usize, 2] {
        let (results, stats) = run_stealing(
            &tasks,
            workers,
            StealOptions::default(),
            |_| (),
            |(), &t| {
                assert_ne!(t, 5, "task 5 fails on purpose");
                t * t
            },
        );
        assert_eq!(stats.executed, 8);
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
        let (results, _) = run_stealing(
            &tasks,
            workers,
            StealOptions::default(),
            |_| (),
            |(), &t| {
                par::fan_out(0..3u64, |band| {
                    if (t, band) == (3, 1) {
                        panic!("band {band} of task {t} fails on purpose");
                    }
                    t * 10 + band
                })
                .into_iter()
                .sum::<u64>()
            },
        );
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
        FleetOptions {
            workers: 2,
            ..FleetOptions::default()
        },
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
