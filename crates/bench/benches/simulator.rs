//! Criterion micro-benchmarks of the RedEye simulator itself: the cost of
//! regenerating each paper artifact, plus the hot analog-model paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use redeye_analog::{Comparator, DampingConfig, Mac, MacConfig, SarAdc, SnrDb, TunableCap};
use redeye_core::{
    compile, estimate, BatchExecutor, CompileOptions, Depth, DeviceWork, Executor, FleetEngine,
    FleetExecutor, FleetOptions, FrameEngine, RedEyeConfig, WeightBank,
};
use redeye_nn::{build_network, summarize, zoo, WeightInit};
use redeye_system::scenario;
use redeye_tensor::{
    conv_gemm_packed_into, gemm, gemm_into, im2col_into, matmul_naive, ConvGeom, NoiseSource,
    NoiseStream, PackedWeights, Rng, SimdLevel, Tensor, Workspace,
};

/// Fig. 7 / Table I path: the analytic GoogLeNet estimator at all depths.
fn bench_estimator(c: &mut Criterion) {
    c.bench_function("fig7_table1/estimate_all_depths", |b| {
        b.iter(|| estimate::estimate_all_depths(&RedEyeConfig::default()).unwrap());
    });
    c.bench_function("fig7/summarize_googlenet", |b| {
        b.iter(|| summarize(&zoo::googlenet()).unwrap());
    });
}

/// Fig. 8 path: the six system scenarios (includes two Jetson model fits).
fn bench_scenarios(c: &mut Criterion) {
    c.bench_function("fig8/six_system_scenarios", |b| {
        b.iter(|| scenario::fig8(&RedEyeConfig::default()));
    });
}

/// Fig. 9/10 inner loop: one functional frame through the analog executor.
fn bench_executor(c: &mut Criterion) {
    let spec = zoo::micronet(8, 10);
    let prefix = spec.prefix_through("pool3").unwrap();
    let mut rng = Rng::seed_from(1);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
    let input = Tensor::full(&[3, 32, 32], 0.4);
    c.bench_function("fig9_fig10/executor_frame_micronet", |b| {
        b.iter_batched(
            || Executor::new(program.clone(), 7),
            |mut exec| exec.execute(&input).unwrap(),
            BatchSize::SmallInput,
        );
    });
}

/// The column-parallel analog pipeline: one executor frame per thread
/// budget (the BENCH_analog.json axes, criterion-sized).
fn bench_analog_pipeline(c: &mut Criterion) {
    let spec = zoo::micronet(16, 10);
    let prefix = spec.prefix_through("pool3").unwrap();
    let mut rng = Rng::seed_from(13);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
    let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
    for (label, threads) in [("batched_1t", 1usize), ("batched_4t", 4)] {
        c.bench_function(&format!("executor/analog_pipeline/{label}"), |b| {
            b.iter_batched(
                || {
                    let mut exec = Executor::new(program.clone(), 7);
                    exec.set_threads(threads);
                    exec
                },
                |mut exec| exec.execute(&input).unwrap(),
                BatchSize::SmallInput,
            );
        });
    }
}

/// Cross-frame throughput: a short frame stream through the serial
/// per-frame executor vs the batch executor on the work-stealing scheduler
/// (the BENCH_throughput.json axes, criterion-sized).
fn bench_frame_throughput(c: &mut Criterion) {
    let spec = zoo::micronet(8, 10);
    let prefix = spec.prefix_through("pool3").unwrap();
    let mut rng = Rng::seed_from(17);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
    let frames: Vec<Tensor> = (0..4)
        .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();

    let mut serial = Executor::new(program.clone(), 7);
    serial.execute(&frames[0]).unwrap();
    c.bench_function("executor/frame_throughput/serial", |b| {
        b.iter(|| {
            serial.seek_frame(0);
            for frame in &frames {
                serial.execute(frame).unwrap();
            }
        });
    });

    for workers in [1usize, 2] {
        let mut batch = BatchExecutor::new(program.clone(), 7, workers).unwrap();
        batch.execute_batch(&frames).unwrap();
        c.bench_function(
            &format!("executor/frame_throughput/batch_{workers}w"),
            |b| {
                b.iter(|| {
                    batch.seek_frame(0);
                    batch.execute_batch(&frames).unwrap()
                });
            },
        );
    }
}

/// Fleet-scale execution: per-device engine construction (naive ×16 vs
/// one shared pack-once engine plus device views) and a small fleet
/// through the work-stealing pool (the BENCH_fleet.json axes,
/// criterion-sized).
fn bench_fleet(c: &mut Criterion) {
    let spec = zoo::micronet(4, 10);
    let prefix = spec.prefix_through("pool1").unwrap();
    let mut rng = Rng::seed_from(17);
    let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
    let mut bank = WeightBank::from_network(&mut net);
    let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();

    c.bench_function("fleet/setup/naive_16", |b| {
        b.iter(|| {
            for d in 0..16u64 {
                let engine = FrameEngine::new(program.clone(), d);
                engine.verify().unwrap();
                std::hint::black_box(&engine);
            }
        });
    });
    c.bench_function("fleet/setup/shared_16", |b| {
        b.iter(|| {
            let engine = FleetEngine::new(program.clone(), 7).unwrap();
            for d in 0..16u64 {
                std::hint::black_box(&engine.device(d));
            }
        });
    });

    let engine = FleetEngine::new(program.clone(), 7).unwrap();
    let frame = std::sync::Arc::new(Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng));
    let work: Vec<DeviceWork> = (0..16)
        .map(|device| DeviceWork {
            device,
            frames: vec![frame.clone()],
        })
        .collect();
    for workers in [1usize, 2] {
        let executor = FleetExecutor::with_options(
            engine.clone(),
            FleetOptions {
                workers,
                ..FleetOptions::default()
            },
        );
        c.bench_function(&format!("fleet/run_16dev/{workers}w"), |b| {
            b.iter(|| executor.run(&work).unwrap());
        });
    }
}

/// §IV-A circuit models: MAC, SAR conversion, comparator, weight DAC.
fn bench_circuits(c: &mut Criterion) {
    let mut rng = Rng::seed_from(2);
    let mut mac = Mac::new(MacConfig::default(), &mut rng).unwrap();
    let inputs = [0.3f64; 49];
    let codes = [37i32; 49];
    c.bench_function("circuit/mac_49tap", |b| {
        b.iter(|| mac.multiply_accumulate(&inputs, &codes, &mut rng).unwrap());
    });

    let mut adc = SarAdc::new(10).unwrap();
    c.bench_function("circuit/sar_convert_10bit", |b| {
        b.iter(|| adc.convert(0.6172, &mut rng));
    });

    let mut cmp = Comparator::new();
    c.bench_function("circuit/comparator_decision", |b| {
        b.iter(|| cmp.compare(0.31, 0.29, &mut rng));
    });

    let tc = TunableCap::new(8).unwrap();
    c.bench_function("circuit/tunable_cap_apply", |b| {
        b.iter(|| tc.apply(0.5, 171).unwrap());
    });

    bench_comparator_window(c);
}

/// The max-pool stage on its own: 3×3 windows (8 decisions each) through
/// the screened `Comparator::max_window` and through the exact `compare`
/// chain it must reproduce. A third of the windows are textured plateaus
/// (clear differences), a third ReLU zeros (exact ties) and a third
/// near-ties within 2σ of the comparator noise.
fn bench_comparator_window(c: &mut Criterion) {
    const WINDOWS: usize = 3072;
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
    let stream = NoiseStream::new(5);
    let mut screened = Comparator::new();
    c.bench_function("circuit/comparator_window/screened", |b| {
        b.iter(|| {
            taps.chunks_exact(9)
                .enumerate()
                .map(|(i, w)| {
                    screened
                        .max_window(w, volts_per_unit, &stream.at(i as u64))
                        .value
                })
                .sum::<f32>()
        });
    });
    let mut exact = Comparator::new();
    c.bench_function("circuit/comparator_window/exact", |b| {
        b.iter(|| {
            taps.chunks_exact(9)
                .enumerate()
                .map(|(i, w)| {
                    let mut site = stream.at(i as u64);
                    w[1..].iter().fold(w[0], |best, &v| {
                        let a = f64::from(v) * volts_per_unit;
                        let m = f64::from(best) * volts_per_unit;
                        if exact.compare(a, m, &mut site).a_greater {
                            v
                        } else {
                            best
                        }
                    })
                })
                .sum::<f32>()
        });
    });
}

/// The layer-noise stage on one Depth3 plane (conv2's 192×56×56 output):
/// the blocked polar `add_scaled_normal` the executor uses, and a per-site
/// Box–Muller loop over `SiteRng::standard_normal`.
fn bench_noise(c: &mut Criterion) {
    let stream = NoiseStream::new(3);
    let sigma = 0.05f32;
    let mut plane = vec![0.0f32; 192 * 56 * 56];
    c.bench_function("noise/add_scaled_normal/batched", |b| {
        b.iter(|| stream.add_scaled_normal(0, sigma, &mut plane));
    });
    c.bench_function("noise/add_scaled_normal/scalar_sites", |b| {
        b.iter(|| {
            for (i, v) in plane.iter_mut().enumerate() {
                *v += sigma * stream.at(i as u64).standard_normal();
            }
        });
    });
}

/// §IV-A ablation: charge-sharing vs naïve DAC sampling energy, all codes.
fn bench_ablation(c: &mut Criterion) {
    let tc = TunableCap::new(8).unwrap();
    c.bench_function("ablation/charge_sharing_energy_sweep", |b| {
        b.iter(|| {
            (0..256u32)
                .map(|code| tc.sampling_energy(code).value())
                .sum::<f64>()
        });
    });
    c.bench_function("ablation/damping_energy_law", |b| {
        b.iter(|| {
            (30..=70)
                .map(|db| DampingConfig::from_snr(SnrDb::new(db as f64)).energy_scale())
                .sum::<f64>()
        });
    });
}

/// The packed cache-blocked GEMM engine against the retained naive
/// reference at the sizes the acceptance benchmark uses.
fn bench_gemm(c: &mut Criterion) {
    for size in [256usize, 512] {
        let mut rng = Rng::seed_from(size as u64);
        let a = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[size, size], -1.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        c.bench_function(&format!("gemm/packed_vs_naive/naive_{size}"), |bch| {
            bch.iter(|| matmul_naive(&a, &b).unwrap());
        });
        c.bench_function(&format!("gemm/packed_vs_naive/packed_{size}"), |bch| {
            bch.iter(|| gemm(&mut ws, false, false, &a, &b, 1).unwrap());
        });
    }
}

/// The implicit-GEMM conv path (pack-once weights, B-panels gathered
/// straight from the C×H×W input) against the explicit im2col lowering at
/// the micronet and GoogLeNet stems and the Depth3 inception-3a 3×3 shape.
/// Both produce bit-identical output; the difference is staging work and
/// workspace footprint.
fn bench_conv_implicit(c: &mut Criterion) {
    // (label, [in_c, in_h, in_w, kernel, stride, pad, out_c])
    let shapes: &[(&str, [usize; 7])] = &[
        ("micronet_conv1", [3, 32, 32, 5, 1, 2, 4]),
        ("googlenet_conv1", [3, 224, 224, 7, 2, 3, 64]),
        ("depth3", [64, 57, 57, 3, 1, 1, 192]),
    ];
    for &(label, [in_c, in_h, in_w, kernel, stride, pad, out_c]) in shapes {
        let geom = ConvGeom::new(in_c, in_h, in_w, kernel, kernel, stride, pad).unwrap();
        let (patch, positions) = (geom.patch_len(), geom.out_positions());
        let mut rng = Rng::seed_from(11);
        let x = Tensor::uniform(&[in_c, in_h, in_w], -1.0, 1.0, &mut rng);
        let weights = Tensor::uniform(&[out_c, patch], -1.0, 1.0, &mut rng);
        let packed = PackedWeights::pack(weights.as_slice(), out_c, patch);
        let mut out = vec![0.0f32; out_c * positions];
        let mut ws = Workspace::new();
        c.bench_function(&format!("conv/implicit_vs_im2col/im2col_{label}"), |bch| {
            bch.iter(|| {
                let (cols, packs) = ws.split_im2col_packs();
                im2col_into(&x, &geom, cols).unwrap();
                gemm_into(
                    packs,
                    false,
                    false,
                    weights.as_slice(),
                    cols,
                    &mut out,
                    out_c,
                    positions,
                    patch,
                    1,
                );
                std::hint::black_box(&out);
            });
        });
        c.bench_function(
            &format!("conv/implicit_vs_im2col/implicit_{label}"),
            |bch| {
                bch.iter(|| {
                    conv_gemm_packed_into(
                        ws.packs_mut(),
                        SimdLevel::auto(),
                        &packed,
                        x.as_slice(),
                        &geom,
                        &mut out,
                        1,
                    );
                    std::hint::black_box(&out);
                });
            },
        );
    }
}

/// Depth sweep of the analytic path used by the partition explorer.
fn bench_depths(c: &mut Criterion) {
    let config = RedEyeConfig::default();
    c.bench_function("fig6/partition_estimates", |b| {
        b.iter(|| {
            Depth::ALL
                .iter()
                .map(|&d| {
                    estimate::estimate_depth(d, &config)
                        .unwrap()
                        .energy
                        .analog_total()
                        .value()
                })
                .sum::<f64>()
        });
    });
}

criterion_group!(
    benches,
    bench_estimator,
    bench_scenarios,
    bench_executor,
    bench_analog_pipeline,
    bench_frame_throughput,
    bench_fleet,
    bench_circuits,
    bench_noise,
    bench_ablation,
    bench_gemm,
    bench_conv_implicit,
    bench_depths
);
criterion_main!(benches);
