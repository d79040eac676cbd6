//! Performance measurement of the simulation hot path.
//!
//! Three sections, each with its own JSON report:
//!
//! - **GEMM** (`BENCH_gemm.json`): the packed GEMM engine against the
//!   retained naive reference at the paper-relevant square sizes, one
//!   MicroNet forward epoch, and the frame-parallel accuracy sweep at 1 vs
//!   4 worker threads.
//! - **Analog** (`BENCH_analog.json`): the layer-noise stage at the
//!   Depth3 sample count (per-site Box–Muller vs the blocked polar
//!   `add_scaled_normal`) plus whole GoogLeNet frames at
//!   Depth1/Depth3/Depth5 across thread budgets.
//! - **Throughput** (`BENCH_throughput.json`): sustained frames/sec over a
//!   frame stream — the serial per-frame path against the batch executor
//!   on the work-stealing scheduler at worker counts 1/2/4, per depth.
//! - **GEMM i8** (`BENCH_gemm_i8.json`, via `--gemm-i8`): the integer
//!   code-domain GEMM engine against the f32 engine at the Depth3 conv
//!   shape, single thread.
//! - **Conv** (`BENCH_conv.json`, via `--conv`): the implicit-GEMM conv
//!   path (pack-once weights, no im2col matrix) against the explicit
//!   im2col lowering at per-layer shapes — each row carries the peak
//!   workspace bytes its path staged — plus the f32 microkernel at every
//!   compiled [`SimdLevel`] on a square GEMM.
//!
//! GEMM/analog/gemm-i8 rows are `{name, wall_ms, threads}`; throughput
//! rows are `{name, frames, wall_ms, fps, workers}`.
//!
//! Usage: `cargo run --release -p redeye-bench --bin perf [-- FLAGS]`
//!
//! - `--analog-only`: run only the analog section.
//! - `--throughput`: run only the throughput section.
//! - `--gemm-i8`: run only the integer-GEMM section.
//! - `--conv`: run only the convolution-path section.
//! - `--smoke`: CI-sized run — Depth1 only, fewer reps, smaller kernels.
//! - `--workers <n|auto>`: worker budget for the throughput sweep
//!   (default `auto` = `available_parallelism`); the sweep covers
//!   `worker_counts(budget)`.
//!
//! Each swept depth's `DepthScenario` (compiled program + input) is built
//! exactly once and shared by the analog and throughput sections.

use redeye_bench::schema::{ConvRow, Row, ThroughputRow};
use redeye_bench::workload::{self, DepthScenario};
use redeye_core::{auto_workers, BatchExecutor, Depth, Executor};
use redeye_nn::{build_network, zoo, Network, NetworkSpec, WeightInit};
use redeye_sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye_tensor::{
    conv_gemm_packed_into, gemm, gemm_i8_into, gemm_into, gemm_into_level, im2col_into,
    matmul_naive, par, ConvGeom, NoiseSource, NoiseStream, PackBuffersI8, PackedWeights, Rng,
    SimdLevel, Tensor, Workspace,
};
use std::time::Instant;

/// Wall-clock milliseconds of the best of `reps` runs (best-of filters
/// scheduler noise without needing a statistics stack).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn bench_gemm(rows: &mut Vec<Row>, size: usize, threads: usize) {
    let mut rng = Rng::seed_from(size as u64);
    let a = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let mut ws = Workspace::new();
    // Warm the workspace to its high-water mark before timing.
    gemm(&mut ws, false, false, &a, &b, threads).expect("gemm");

    // Interleave the three variants within each rep so host-load drift hits
    // them equally and the reported ratios stay meaningful.
    let reps = if size >= 512 { 5 } else { 7 };
    let mut naive_ms = f64::INFINITY;
    let mut packed_1_ms = f64::INFINITY;
    let mut packed_n_ms = f64::INFINITY;
    for _ in 0..reps {
        naive_ms = naive_ms.min(best_of(1, || {
            matmul_naive(&a, &b).expect("naive matmul");
        }));
        packed_1_ms = packed_1_ms.min(best_of(1, || {
            gemm(&mut ws, false, false, &a, &b, 1).expect("gemm");
        }));
        packed_n_ms = packed_n_ms.min(best_of(1, || {
            gemm(&mut ws, false, false, &a, &b, threads).expect("gemm");
        }));
    }

    println!(
        "gemm {size}^3: naive {naive_ms:.1} ms | packed(1t) {packed_1_ms:.1} ms ({:.2}x) | packed({threads}t) {packed_n_ms:.1} ms ({:.2}x)",
        naive_ms / packed_1_ms,
        naive_ms / packed_n_ms,
    );
    rows.push(Row {
        name: format!("gemm_{size}_naive"),
        wall_ms: naive_ms,
        threads: 1,
    });
    rows.push(Row {
        name: format!("gemm_{size}_packed"),
        wall_ms: packed_1_ms,
        threads: 1,
    });
    rows.push(Row {
        name: format!("gemm_{size}_packed"),
        wall_ms: packed_n_ms,
        threads,
    });
}

/// The integer code-domain GEMM engine against the f32 engine at the
/// Depth3 GoogLeNet conv shape (inception_3a 3×3 branch lowered by
/// im2col: m=192 filters, k=576 patch, n=3249 positions), single thread —
/// the acceptance workload for the executor's `MacDomain::CodeI8` path.
fn bench_gemm_i8(rows: &mut Vec<Row>, smoke: bool) {
    let (m, k, n) = (192usize, 576, 3249);
    let mut rng = Rng::seed_from(3);
    let a = Tensor::uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[k, n], -1.0, 1.0, &mut rng);
    let ai: Vec<i8> = a.iter().map(|&v| (v * 127.0) as i8).collect();
    let bi: Vec<i8> = b.iter().map(|&v| (v * 127.0) as i8).collect();
    let mut ws = Workspace::new();
    let mut packs = PackBuffersI8::new();
    let mut acc = vec![0i32; m * n];
    // Warm both engines to their pack high-water marks before timing.
    gemm(&mut ws, false, false, &a, &b, 1).expect("gemm");
    gemm_i8_into(&mut packs, false, false, &ai, &bi, &mut acc, m, n, k, 1);

    let reps = if smoke { 3 } else { 7 };
    let mut f32_ms = f64::INFINITY;
    let mut i8_ms = f64::INFINITY;
    for _ in 0..reps {
        f32_ms = f32_ms.min(best_of(1, || {
            gemm(&mut ws, false, false, &a, &b, 1).expect("gemm");
        }));
        i8_ms = i8_ms.min(best_of(1, || {
            gemm_i8_into(&mut packs, false, false, &ai, &bi, &mut acc, m, n, k, 1);
            std::hint::black_box(&acc);
        }));
    }

    println!(
        "gemm i8 depth3 ({m}x{k}x{n}): f32 {f32_ms:.2} ms | i8 {i8_ms:.2} ms ({:.2}x)",
        f32_ms / i8_ms,
    );
    rows.push(Row {
        name: "gemm_i8_depth3_f32".into(),
        wall_ms: f32_ms,
        threads: 1,
    });
    rows.push(Row {
        name: "gemm_i8_depth3_i8".into(),
        wall_ms: i8_ms,
        threads: 1,
    });
}

/// The GEMM-section scenario builder: the micronet spec plus a freshly
/// initialized network (accuracy numbers are irrelevant to perf, so
/// training is skipped — the per-frame work is identical).
fn micronet_scenario(seed: u64) -> (NetworkSpec, Network, Rng) {
    let spec = zoo::micronet(8, workload::CLASSES);
    let mut rng = Rng::seed_from(seed);
    let net = build_network(&spec, WeightInit::HeNormal, &mut rng).expect("micronet builds");
    (spec, net, rng)
}

fn bench_micronet_epoch(rows: &mut Vec<Row>) {
    let (_, mut net, mut rng) = micronet_scenario(3);
    net.set_training(false);
    let inputs: Vec<Tensor> = (0..64)
        .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    // One warm pass grows every per-layer workspace to steady state.
    for input in &inputs {
        net.forward(input).expect("forward");
    }
    let ms = best_of(3, || {
        for input in &inputs {
            net.forward(input).expect("forward");
        }
    });
    println!("micronet forward epoch (64 frames): {ms:.1} ms");
    rows.push(Row {
        name: "micronet_forward_epoch".into(),
        wall_ms: ms,
        threads: 1,
    });
}

fn bench_accuracy_sweep(rows: &mut Vec<Row>) {
    let (spec, mut net, _) = micronet_scenario(9);
    let params = extract_params(&mut net);
    let examples = workload::validation_set(96, 11);

    let sweep_ms = |threads: usize| {
        let harness = AccuracyHarness::new(examples.clone(), threads);
        let start = Instant::now();
        harness
            .evaluate(|worker| {
                let opts = InstrumentOptions {
                    seed: 31 + worker as u64,
                    ..InstrumentOptions::paper_default("pool3")
                };
                instrument(&spec, &params, &opts)
            })
            .expect("accuracy evaluation");
        start.elapsed().as_secs_f64() * 1e3
    };

    let ms_1 = sweep_ms(1);
    let ms_4 = sweep_ms(4);
    println!(
        "accuracy sweep (96 frames): 1 thread {ms_1:.1} ms | 4 threads {ms_4:.1} ms ({:.2}x)",
        ms_1 / ms_4
    );
    rows.push(Row {
        name: "accuracy_sweep".into(),
        wall_ms: ms_1,
        threads: 1,
    });
    rows.push(Row {
        name: "accuracy_sweep".into(),
        wall_ms: ms_4,
        threads: 4,
    });
}

/// Times the executor's layer-noise stage at Depth3 scale: a per-site
/// Box–Muller loop (`SiteRng::standard_normal`, the comparator's sampler)
/// against the blocked polar `add_scaled_normal` the executor uses, serial
/// and sharded on even offsets as the executor shards it.
fn bench_noise_kernels(rows: &mut Vec<Row>, smoke: bool) {
    // The layer-noise samples one GoogLeNet Depth3 frame draws: every
    // conv, LRN and average-pool output element through inception_3b.
    let n: usize = if smoke { 1 << 19 } else { 3_285_504 };
    let reps = if smoke { 2 } else { 5 };
    let stream = NoiseStream::new(7);
    let sigma = 0.05f32;
    let mut buf = vec![0.0f32; n];

    let scalar_ms = best_of(reps, || {
        for (i, v) in buf.iter_mut().enumerate() {
            *v += sigma * stream.at(i as u64).standard_normal();
        }
        std::hint::black_box(&buf);
    });
    let batched_ms = best_of(reps, || {
        stream.add_scaled_normal(0, sigma, &mut buf);
        std::hint::black_box(&buf);
    });
    let mut sharded_ms = |threads: usize| {
        best_of(reps, || {
            let chunk = n.div_ceil(threads).div_ceil(2) * 2;
            par::fan_out(buf.chunks_mut(chunk).enumerate(), |(t, band)| {
                stream.add_scaled_normal((t * chunk) as u64, sigma, band);
            });
            std::hint::black_box(&buf);
        })
    };
    let batched_2t_ms = sharded_ms(2);
    let batched_4t_ms = sharded_ms(4);

    println!(
        "noise kernel ({n} samples): scalar {scalar_ms:.1} ms | batched(1t) {batched_ms:.1} ms ({:.2}x) | batched(2t) {batched_2t_ms:.1} ms | batched(4t) {batched_4t_ms:.1} ms",
        scalar_ms / batched_ms,
    );
    for (name, wall_ms, threads) in [
        ("noise_d3_scalar", scalar_ms, 1),
        ("noise_d3_batched", batched_ms, 1),
        ("noise_d3_batched", batched_2t_ms, 2),
        ("noise_d3_batched", batched_4t_ms, 4),
    ] {
        rows.push(Row {
            name: name.into(),
            wall_ms,
            threads,
        });
    }
}

/// Times whole executor frames per depth across thread budgets (GEMM row
/// bands and analog site bands together).
fn bench_analog_frames(rows: &mut Vec<Row>, scenarios: &[DepthScenario], smoke: bool) {
    let reps = if smoke { 1 } else { 4 };
    let budgets = [1usize, 2, 4];
    for scenario in scenarios {
        let (program, input) = (&scenario.program, &scenario.input);
        let mut execs: Vec<Executor> = budgets
            .iter()
            .map(|&threads| {
                let mut exec = Executor::new(program.clone(), 29);
                exec.set_threads(threads);
                // Warm run: verifies the program and grows the conv workspace.
                exec.execute(input).expect("frame");
                exec
            })
            .collect();
        // Interleave the variants within each rep (as bench_gemm does) so
        // host-load drift hits them equally and the ratios stay meaningful.
        let mut best = [f64::INFINITY; 3];
        for _ in 0..reps {
            for (slot, exec) in best.iter_mut().zip(&mut execs) {
                let start = Instant::now();
                exec.execute(input).expect("frame");
                *slot = slot.min(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let tag = scenario.tag();
        println!(
            "{tag} frame: 1t {:.1} ms | 2t {:.1} ms | 4t {:.1} ms",
            best[0], best[1], best[2]
        );
        for (wall_ms, threads) in best.into_iter().zip(budgets) {
            rows.push(Row {
                name: format!("frame_{tag}_batched"),
                wall_ms,
                threads,
            });
        }
    }
}

/// Sustained frames/sec over a frame stream per depth: the serial per-frame
/// executor against the batch executor at 1/2/4 workers.
///
/// Every configuration runs the *same* frame stream from frame 0 (fresh
/// executor per variant) so the noise workload is identical; the batch path
/// is bit-identical to serial by construction, making this a pure dispatch
/// overhead / scaling measurement.
fn bench_throughput(
    rows: &mut Vec<ThroughputRow>,
    scenarios: &[DepthScenario],
    max_workers: usize,
    smoke: bool,
) {
    let reps = if smoke { 1 } else { 2 };
    for scenario in scenarios {
        let tag = scenario.tag();
        let n = if smoke {
            3
        } else {
            match scenario.depth {
                Depth::D1 => 8,
                Depth::D3 => 6,
                _ => 4,
            }
        };
        let frames: Vec<Tensor> = vec![scenario.input.clone(); n];

        let push = |rows: &mut Vec<ThroughputRow>, suffix: &str, wall_ms: f64, workers| {
            let fps = n as f64 / (wall_ms / 1e3);
            println!("{tag} throughput {suffix}({workers}w): {n} frames in {wall_ms:.1} ms = {fps:.2} fps");
            rows.push(ThroughputRow {
                name: format!("throughput_{tag}_{suffix}"),
                frames: n,
                wall_ms,
                fps,
                workers,
            });
        };

        // Serial baseline: the per-frame Executor loop the batch engine must
        // not regress at matched work.
        let serial_ms = {
            let mut exec = Executor::new(scenario.program.clone(), 29);
            exec.execute(&scenario.input).expect("warm frame");
            best_of(reps, || {
                exec.seek_frame(0);
                for frame in &frames {
                    exec.execute(frame).expect("frame");
                }
            })
        };
        push(rows, "serial", serial_ms, 1);

        for workers in workload::worker_counts(max_workers) {
            let mut batch =
                BatchExecutor::new(scenario.program.clone(), 29, workers).expect("verifies");
            // Warm batch, matching the serial baseline's warm frame.
            batch.execute_batch(&frames).expect("warm batch");
            let ms = best_of(reps, || {
                batch.seek_frame(0);
                batch.execute_batch(&frames).expect("batch");
            });
            push(rows, "batch", ms, workers);
        }
    }
}

/// The implicit-GEMM conv path against the explicit im2col lowering, per
/// conv-layer shape, single thread. Each path runs in its own fresh
/// [`Workspace`] so the reported `peak_ws_bytes` is exactly the staging
/// footprint that path requires: the explicit rows pay for the im2col
/// matrix, the implicit rows show it gone. A final sweep times the bare
/// microkernel at every compiled [`SimdLevel`] on a square GEMM (the
/// portable kernel autovectorizes under `-C target-cpu=native`, so these
/// rows measure the *guaranteed* vector floor, not a portable penalty).
fn bench_conv(rows: &mut Vec<ConvRow>, smoke: bool) {
    // (label, [in_c, in_h, in_w, kernel, stride, pad, out_c]): the
    // micronet and GoogLeNet stems as the zoo builds them, and the Depth3
    // inception-3a 3x3 branch (m=192, k=576, n=3249), the acceptance shape
    // the i8 section also uses.
    let shapes: &[(&str, [usize; 7])] = &[
        ("micronet_conv1", [3, 32, 32, 5, 1, 2, 4]),
        ("googlenet_conv1", [3, 224, 224, 7, 2, 3, 64]),
        ("depth3_3x3", [64, 57, 57, 3, 1, 1, 192]),
    ];
    let reps = if smoke { 3 } else { 7 };
    for &(label, [c, h, w, k, stride, pad, out_c]) in shapes {
        let geom = ConvGeom::new(c, h, w, k, k, stride, pad).expect("conv geometry");
        let (patch, positions) = (geom.patch_len(), geom.out_positions());
        let mut rng = Rng::seed_from(11);
        let x = Tensor::uniform(&[c, h, w], -1.0, 1.0, &mut rng);
        let weights = Tensor::uniform(&[out_c, patch], -1.0, 1.0, &mut rng);
        let packed = PackedWeights::pack(weights.as_slice(), out_c, patch);
        let mut out = vec![0.0f32; out_c * positions];

        // Warm each workspace to its high-water mark before timing.
        let mut ws_explicit = Workspace::new();
        let mut ws_implicit = Workspace::new();
        let explicit_pass = |ws: &mut Workspace, out: &mut [f32]| {
            let (cols, packs) = ws.split_im2col_packs();
            im2col_into(&x, &geom, cols).expect("im2col");
            gemm_into(
                packs,
                false,
                false,
                weights.as_slice(),
                cols,
                out,
                out_c,
                positions,
                patch,
                1,
            );
        };
        explicit_pass(&mut ws_explicit, &mut out);
        conv_gemm_packed_into(
            ws_implicit.packs_mut(),
            SimdLevel::auto(),
            &packed,
            x.as_slice(),
            &geom,
            &mut out,
            1,
        );

        // Interleave so host-load drift hits both paths equally.
        let mut explicit_ms = f64::INFINITY;
        let mut implicit_ms = f64::INFINITY;
        for _ in 0..reps {
            explicit_ms = explicit_ms.min(best_of(1, || {
                explicit_pass(&mut ws_explicit, &mut out);
                std::hint::black_box(&out);
            }));
            implicit_ms = implicit_ms.min(best_of(1, || {
                conv_gemm_packed_into(
                    ws_implicit.packs_mut(),
                    SimdLevel::auto(),
                    &packed,
                    x.as_slice(),
                    &geom,
                    &mut out,
                    1,
                );
                std::hint::black_box(&out);
            }));
        }

        let explicit_ws = ws_explicit.peak_bytes();
        let implicit_ws = ws_implicit.peak_bytes() + packed.bytes();
        println!(
            "conv {label}: im2col {explicit_ms:.2} ms / {explicit_ws} B ws | \
             implicit {implicit_ms:.2} ms / {implicit_ws} B ws ({:.2}x, {:.2}x ws)",
            explicit_ms / implicit_ms,
            explicit_ws as f64 / implicit_ws.max(1) as f64,
        );
        rows.push(ConvRow {
            name: format!("conv_{label}_im2col"),
            wall_ms: explicit_ms,
            threads: 1,
            peak_ws_bytes: explicit_ws,
        });
        rows.push(ConvRow {
            name: format!("conv_{label}_implicit"),
            wall_ms: implicit_ms,
            threads: 1,
            peak_ws_bytes: implicit_ws,
        });
    }

    // Bare-microkernel sweep: every compiled level on one square GEMM.
    let size = if smoke { 256 } else { 512 };
    let mut rng = Rng::seed_from(13);
    let a = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let mut out = vec![0.0f32; size * size];
    let mut ws = Workspace::new();
    let reps = if smoke { 3 } else { 5 };
    let mut level_ms: Vec<(SimdLevel, f64)> = SimdLevel::available_levels()
        .into_iter()
        .map(|l| (l, f64::INFINITY))
        .collect();
    gemm_into(
        ws.packs_mut(),
        false,
        false,
        a.as_slice(),
        b.as_slice(),
        &mut out,
        size,
        size,
        size,
        1,
    );
    for _ in 0..reps {
        for (level, best) in &mut level_ms {
            *best = best.min(best_of(1, || {
                gemm_into_level(
                    ws.packs_mut(),
                    *level,
                    false,
                    false,
                    a.as_slice(),
                    b.as_slice(),
                    &mut out,
                    size,
                    size,
                    size,
                    1,
                );
                std::hint::black_box(&out);
            }));
        }
    }
    let portable_ms = level_ms[0].1;
    for (level, wall_ms) in level_ms {
        println!(
            "gemm {size}^3 simd {level}: {wall_ms:.2} ms ({:.2}x vs portable)",
            portable_ms / wall_ms,
        );
        rows.push(ConvRow {
            name: format!("gemm_{size}_simd_{level}"),
            wall_ms,
            threads: 1,
            peak_ws_bytes: ws.peak_bytes(),
        });
    }
}

/// Parses `--workers <n|auto>`; the default worker budget is the machine's
/// available parallelism.
fn parse_workers(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workers" {
            let v = it
                .next()
                .expect("--workers needs a value: a count or `auto`");
            if v == "auto" {
                return auto_workers();
            }
            return v
                .parse()
                .expect("--workers value must be a positive count or `auto`");
        }
    }
    auto_workers()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let analog_only = args.iter().any(|a| a == "--analog-only");
    let throughput_only = args.iter().any(|a| a == "--throughput");
    let gemm_i8_only = args.iter().any(|a| a == "--gemm-i8");
    let conv_only = args.iter().any(|a| a == "--conv");
    let max_workers = parse_workers(&args);

    if conv_only {
        let mut rows: Vec<ConvRow> = Vec::new();
        bench_conv(&mut rows, smoke);
        let json = serde_json::to_string_pretty(&rows).expect("serialize rows");
        std::fs::write("BENCH_conv.json", json).expect("write BENCH_conv.json");
        println!("wrote BENCH_conv.json ({} rows)", rows.len());
        return;
    }

    if gemm_i8_only {
        let mut rows: Vec<Row> = Vec::new();
        bench_gemm_i8(&mut rows, smoke);
        let json = serde_json::to_string_pretty(&rows).expect("serialize rows");
        std::fs::write("BENCH_gemm_i8.json", json).expect("write BENCH_gemm_i8.json");
        println!("wrote BENCH_gemm_i8.json ({} rows)", rows.len());
        return;
    }

    if !analog_only && !throughput_only {
        let mut rows: Vec<Row> = Vec::new();
        bench_gemm(&mut rows, 256, 4);
        bench_gemm(&mut rows, 512, 4);
        bench_micronet_epoch(&mut rows);
        bench_accuracy_sweep(&mut rows);

        let json = serde_json::to_string_pretty(&rows).expect("serialize rows");
        std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
        println!("wrote BENCH_gemm.json ({} rows)", rows.len());
    }

    // One scenario per swept depth, shared by the analog and throughput
    // sections — compiling a GoogLeNet prefix is not free.
    let scenarios: Vec<DepthScenario> = workload::perf_depths(smoke)
        .iter()
        .map(|&depth| DepthScenario::build(depth))
        .collect();

    if !throughput_only {
        let mut analog_rows: Vec<Row> = Vec::new();
        bench_noise_kernels(&mut analog_rows, smoke);
        bench_analog_frames(&mut analog_rows, &scenarios, smoke);

        let json = serde_json::to_string_pretty(&analog_rows).expect("serialize rows");
        std::fs::write("BENCH_analog.json", json).expect("write BENCH_analog.json");
        println!("wrote BENCH_analog.json ({} rows)", analog_rows.len());
    }

    if !analog_only {
        let mut throughput_rows: Vec<ThroughputRow> = Vec::new();
        bench_throughput(&mut throughput_rows, &scenarios, max_workers, smoke);

        let json = serde_json::to_string_pretty(&throughput_rows).expect("serialize rows");
        std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
        println!(
            "wrote BENCH_throughput.json ({} rows)",
            throughput_rows.len()
        );
    }
}
