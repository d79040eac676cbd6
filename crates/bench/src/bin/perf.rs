//! Performance measurement of the simulation hot path.
//!
//! Four sections, each with its own JSON report of `{name, value, unit}`
//! records ([`redeye_bench::schema`]):
//!
//! - **GEMM** (`BENCH_gemm.json`): the packed GEMM engine against the
//!   retained naive reference at the paper-relevant square sizes, one
//!   MicroNet forward epoch, and the frame-parallel accuracy sweep per
//!   thread budget.
//! - **Analog** (`BENCH_analog.json`): the layer-noise stage at the
//!   Depth3 sample count (per-site Box–Muller vs the blocked polar
//!   `add_scaled_normal`), the max-pool comparator stage (the screened
//!   8-lane `max_lanes` kernel vs the exact `compare` chain over one tap
//!   set), plus whole GoogLeNet frames at Depth1/Depth3/Depth5 per thread
//!   budget.
//! - **Throughput** (`BENCH_throughput.json`): sustained frames/sec over a
//!   frame stream — the serial per-frame path against the batch executor
//!   on the task pool per worker count, per depth.
//! - **Conv** (`BENCH_conv.json`, via `--conv`): the implicit-GEMM conv
//!   path (pack-once weights, no im2col matrix) against the explicit
//!   im2col lowering at per-layer shapes, with the peak workspace bytes
//!   each path staged.
//!
//! Usage: `cargo run --release -p redeye-bench --bin perf [-- FLAGS]`
//!
//! - `--analog-only`: run only the analog section.
//! - `--throughput`: run only the throughput section.
//! - `--conv`: run only the convolution-path section.
//! - `--smoke`: CI-sized run — Depth1 only, fewer reps, smaller kernels.
//! - `--workers <n|auto>`: thread and worker budget (default `auto` =
//!   `available_parallelism`); every swept section covers
//!   `worker_counts(budget)` threads or workers.
//!
//! Each swept depth's `DepthScenario` (compiled program + input) is built
//! exactly once and shared by the analog and throughput sections.

use redeye_analog::Comparator;
use redeye_bench::schema::{write_report, Record};
use redeye_bench::workload::{self, best_of, parse_workers, wall_ms, worker_counts, DepthScenario};
use redeye_core::{BatchExecutor, Depth, Executor};
use redeye_nn::{build_network, zoo, Network, NetworkSpec, WeightInit};
use redeye_sim::{extract_params, instrument, AccuracyHarness, InstrumentOptions};
use redeye_tensor::{
    conv_gemm_packed_into, gemm, gemm_into, im2col_into, matmul_naive, par, ConvGeom, NoiseSource,
    NoiseStream, PackedWeights, Rng, SimdLevel, Tensor, Workspace, LANES,
};

fn bench_gemm(records: &mut Vec<Record>, size: usize, max_threads: usize) {
    let mut rng = Rng::seed_from(size as u64);
    let a = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let b = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
    let mut ws = Workspace::new();
    // Warm the workspace to its high-water mark before timing.
    gemm(&mut ws, false, false, &a, &b, max_threads).expect("gemm");

    // Interleave the variants within each rep so host-load drift hits them
    // equally and the reported ratios stay meaningful.
    let reps = if size >= 512 { 5 } else { 7 };
    let threads = worker_counts(max_threads);
    let mut naive_ms = f64::INFINITY;
    let mut packed_ms = vec![f64::INFINITY; threads.len()];
    for _ in 0..reps {
        naive_ms = naive_ms.min(wall_ms(|| {
            matmul_naive(&a, &b).expect("naive matmul");
        }));
        for (best, &t) in packed_ms.iter_mut().zip(&threads) {
            *best = best.min(wall_ms(|| {
                gemm(&mut ws, false, false, &a, &b, t).expect("gemm");
            }));
        }
    }

    print!("gemm {size}^3: naive {naive_ms:.1} ms");
    records.push(Record::new(format!("gemm_{size}_naive"), naive_ms, "ms"));
    for (ms, t) in packed_ms.into_iter().zip(threads) {
        print!(" | packed({t}t) {ms:.1} ms ({:.2}x)", naive_ms / ms);
        records.push(Record::new(format!("gemm_{size}_packed_{t}t"), ms, "ms"));
    }
    println!();
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

fn bench_micronet_epoch(records: &mut Vec<Record>) {
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
    records.push(Record::new("micronet_forward_epoch", ms, "ms"));
}

fn bench_accuracy_sweep(records: &mut Vec<Record>, max_threads: usize) {
    let (spec, mut net, _) = micronet_scenario(9);
    let params = extract_params(&mut net);
    let examples = workload::validation_set(96, 11);

    print!("accuracy sweep (96 frames):");
    for threads in worker_counts(max_threads) {
        let harness = AccuracyHarness::new(examples.clone(), threads);
        let ms = wall_ms(|| {
            harness
                .evaluate(|worker| {
                    let opts = InstrumentOptions {
                        seed: 31 + worker as u64,
                        ..InstrumentOptions::paper_default("pool3")
                    };
                    instrument(&spec, &params, &opts)
                })
                .expect("accuracy evaluation");
        });
        print!(" {threads}t {ms:.1} ms");
        records.push(Record::new(format!("accuracy_sweep_{threads}t"), ms, "ms"));
    }
    println!();
}

/// Times the executor's layer-noise stage at Depth3 scale: a per-site
/// Box–Muller loop (`SiteRng::standard_normal`, the comparator's sampler)
/// against the blocked polar `add_scaled_normal` the executor uses,
/// sharded on even offsets as the executor shards it.
fn bench_noise_kernels(records: &mut Vec<Record>, max_threads: usize, smoke: bool) {
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
    print!("noise kernel ({n} samples): scalar {scalar_ms:.1} ms");
    records.push(Record::new("noise_d3_scalar", scalar_ms, "ms"));
    for threads in worker_counts(max_threads) {
        let ms = best_of(reps, || {
            if threads == 1 {
                stream.add_scaled_normal(0, sigma, &mut buf);
            } else {
                let chunk = n.div_ceil(threads).div_ceil(2) * 2;
                par::fan_out(buf.chunks_mut(chunk).enumerate(), |(t, band)| {
                    stream.add_scaled_normal((t * chunk) as u64, sigma, band);
                });
            }
            std::hint::black_box(&buf);
        });
        print!(" | batched({threads}t) {ms:.1} ms ({:.2}x)", scalar_ms / ms);
        records.push(Record::new(
            format!("noise_d3_batched_{threads}t"),
            ms,
            "ms",
        ));
    }
    println!();
}

/// The max-pool stage on its own: 3×3 windows (8 decisions each) through
/// the screened lane kernel `Comparator::max_lanes`, 8 consecutive sites
/// per block, and through the exact `compare` chain it must reproduce,
/// over one tap set. A third of the windows are textured plateaus (clear
/// differences), a third ReLU zeros (exact ties) and a third near-ties
/// within 2σ of the comparator noise.
fn bench_comparator_window(records: &mut Vec<Record>, smoke: bool) {
    const WINDOWS: usize = 3072;
    let reps = if smoke { 3 } else { 20 };
    let volts_per_unit = 0.9;
    let near = (6e-4 / volts_per_unit) as f32;
    let mut rng = Rng::seed_from(12);
    let taps: Vec<f32> = (0..WINDOWS)
        .flat_map(|w| {
            let base = rng.uniform(0.05, 0.35);
            (0..9)
                .map(|_| match w % 3 {
                    0 => base + rng.uniform(-0.05, 0.05),
                    1 => 0.0,
                    _ => base + near * rng.uniform(-1.0, 1.0),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    // The same windows as decision-major blocks: `blocks[b][t][l]` is tap
    // `t` of window `LANES·b + l`.
    let blocks: Vec<[[f32; LANES]; 9]> = taps
        .chunks_exact(9 * LANES)
        .map(|group| std::array::from_fn(|t| std::array::from_fn(|l| group[9 * l + t])))
        .collect();
    let stream = NoiseStream::new(5);
    let mut cmp = Comparator::new();

    let screened_ms = best_of(reps, || {
        let sum: f32 = blocks
            .iter()
            .enumerate()
            .map(|(b, block)| {
                let sites = std::array::from_fn(|l| (b * LANES + l) as u64);
                cmp.max_lanes(block, volts_per_unit, &stream, &sites, LANES)
                    .iter()
                    .sum::<f32>()
            })
            .sum();
        std::hint::black_box(sum);
    });
    let exact_ms = best_of(reps, || {
        let sum: f32 = taps
            .chunks_exact(9)
            .enumerate()
            .map(|(i, w)| {
                let mut site = stream.at(i as u64);
                w[1..].iter().fold(w[0], |best, &v| {
                    let a = f64::from(v) * volts_per_unit;
                    let m = f64::from(best) * volts_per_unit;
                    if cmp.compare(a, m, &mut site).a_greater {
                        v
                    } else {
                        best
                    }
                })
            })
            .sum();
        std::hint::black_box(sum);
    });
    println!(
        "comparator windows ({WINDOWS} x 3x3): screened {screened_ms:.3} ms | exact {exact_ms:.3} ms ({:.2}x)",
        exact_ms / screened_ms
    );
    records.push(Record::new("comparator_window_screened", screened_ms, "ms"));
    records.push(Record::new("comparator_window_exact", exact_ms, "ms"));
}

/// Times whole executor frames per depth across thread budgets (GEMM row
/// bands and analog site bands together).
fn bench_analog_frames(
    records: &mut Vec<Record>,
    scenarios: &[DepthScenario],
    max_threads: usize,
    smoke: bool,
) {
    let reps = if smoke { 1 } else { 4 };
    let budgets = worker_counts(max_threads);
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
        let mut best = vec![f64::INFINITY; budgets.len()];
        for _ in 0..reps {
            for (slot, exec) in best.iter_mut().zip(&mut execs) {
                *slot = slot.min(wall_ms(|| {
                    exec.execute(input).expect("frame");
                }));
            }
        }
        let tag = scenario.tag();
        print!("{tag} frame:");
        for (ms, threads) in best.into_iter().zip(&budgets) {
            print!(" {threads}t {ms:.1} ms");
            records.push(Record::new(format!("frame_{tag}_{threads}t"), ms, "ms"));
        }
        println!();
    }
}

/// Sustained frames/sec over a frame stream per depth: the serial per-frame
/// executor against the batch executor per worker count.
///
/// Every configuration runs the *same* frame stream from frame 0 (fresh
/// executor per variant) so the noise workload is identical; the batch path
/// is bit-identical to serial by construction, making this a pure dispatch
/// overhead / scaling measurement.
fn bench_throughput(
    records: &mut Vec<Record>,
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
        records.push(Record::new(
            format!("throughput_{tag}_frames"),
            n as f64,
            "frames",
        ));

        let mut push = |variant: String, wall_ms: f64| {
            let fps = n as f64 / (wall_ms / 1e3);
            println!("{tag} throughput {variant}: {n} frames in {wall_ms:.1} ms = {fps:.2} fps");
            let name = format!("throughput_{tag}_{variant}");
            records.push(Record::new(&name, fps, "frames/s"));
            records.push(Record::new(format!("{name}_wall"), wall_ms, "ms"));
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
        push("serial".into(), serial_ms);

        for workers in worker_counts(max_workers) {
            let mut batch =
                BatchExecutor::new(scenario.program.clone(), 29, workers).expect("verifies");
            // Warm batch, matching the serial baseline's warm frame.
            batch.execute_batch(&frames).expect("warm batch");
            let ms = best_of(reps, || {
                batch.seek_frame(0);
                batch.execute_batch(&frames).expect("batch");
            });
            push(format!("batch_{workers}w"), ms);
        }
    }
}

/// The implicit-GEMM conv path against the explicit im2col lowering, per
/// conv-layer shape, single thread. Each path runs in its own fresh
/// [`Workspace`] so the reported `_peak_ws` is exactly the staging
/// footprint that path requires: the explicit records pay for the im2col
/// matrix, the implicit records show it gone.
fn bench_conv(records: &mut Vec<Record>, smoke: bool) {
    // (label, [in_c, in_h, in_w, kernel, stride, pad, out_c]): the
    // micronet and GoogLeNet stems as the zoo builds them, and the Depth3
    // inception-3a 3x3 branch (m=192, k=576, n=3249).
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
        let implicit_pass = |ws: &mut Workspace, out: &mut [f32]| {
            conv_gemm_packed_into(
                ws.packs_mut(),
                SimdLevel::auto(),
                &packed,
                x.as_slice(),
                &geom,
                out,
                1,
            );
        };
        explicit_pass(&mut ws_explicit, &mut out);
        implicit_pass(&mut ws_implicit, &mut out);

        // Interleave so host-load drift hits both paths equally.
        let mut explicit_ms = f64::INFINITY;
        let mut implicit_ms = f64::INFINITY;
        for _ in 0..reps {
            explicit_ms = explicit_ms.min(wall_ms(|| {
                explicit_pass(&mut ws_explicit, &mut out);
                std::hint::black_box(&out);
            }));
            implicit_ms = implicit_ms.min(wall_ms(|| {
                implicit_pass(&mut ws_implicit, &mut out);
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
        for (path, ms, ws) in [
            ("im2col", explicit_ms, explicit_ws),
            ("implicit", implicit_ms, implicit_ws),
        ] {
            let name = format!("conv_{label}_{path}");
            records.push(Record::new(&name, ms, "ms"));
            records.push(Record::new(format!("{name}_peak_ws"), ws as f64, "B"));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let analog_only = args.iter().any(|a| a == "--analog-only");
    let throughput_only = args.iter().any(|a| a == "--throughput");
    let conv_only = args.iter().any(|a| a == "--conv");
    let budget = parse_workers(&args);

    if conv_only {
        let mut records = Vec::new();
        bench_conv(&mut records, smoke);
        write_report("BENCH_conv.json", records);
        return;
    }

    if !analog_only && !throughput_only {
        let mut records = Vec::new();
        bench_gemm(&mut records, 256, budget);
        bench_gemm(&mut records, 512, budget);
        bench_micronet_epoch(&mut records);
        bench_accuracy_sweep(&mut records, budget);
        write_report("BENCH_gemm.json", records);
    }

    // One scenario per swept depth, shared by the analog and throughput
    // sections — compiling a GoogLeNet prefix is not free.
    let scenarios: Vec<DepthScenario> = workload::perf_depths(smoke)
        .iter()
        .map(|&depth| DepthScenario::build(depth))
        .collect();

    if !throughput_only {
        let mut records = Vec::new();
        bench_noise_kernels(&mut records, budget, smoke);
        bench_comparator_window(&mut records, smoke);
        bench_analog_frames(&mut records, &scenarios, budget, smoke);
        write_report("BENCH_analog.json", records);
    }

    if !analog_only {
        let mut records = Vec::new();
        bench_throughput(&mut records, &scenarios, budget, smoke);
        write_report("BENCH_throughput.json", records);
    }
}
