//! Outside-in per-layer replay of one frame.
//!
//! The executor's stages are private, so the benchmark cannot time them
//! in place. Instead it walks the public `Program` IR, propagates each
//! instruction's exact geometry with the public `ConvGeom`/`PoolGeom`, and
//! re-issues each stage's work through the public kernel that stage calls:
//!
//! | stage | public call replayed |
//! |---|---|
//! | conv MAC | `conv_gemm_packed_into` (weights packed once, outside the span) |
//! | layer noise | `NoiseStream::add_scaled_normal` on each conv, LRN and avgpool plane |
//! | max pool | `Comparator::compare`, window²−1 per output, one `NoiseStream::at` site per output |
//! | readout | `SarAdc::convert`, one site per feature |
//!
//! Operands are real activations: the replay runs the conv, noise and
//! comparator kernels on the values the previous replayed stage produced,
//! so comparator ties and forced decisions occur as they do in a frame.
//! LRN passes its input through and avgpool subsamples; both are charged
//! to the residual, with bias/clip, concat, allocation and thread scopes.
//! The op counts the replay issues must equal the frame ledger's exactly.

use crate::trace::Tracer;
use redeye_analog::calib::SWING;
use redeye_analog::{Comparator, SarAdc};
use redeye_core::{Instruction, Program};
use redeye_tensor::{
    conv_gemm_packed_into, ConvGeom, NoiseStream, PackBuffers, PackedWeights, PoolGeom, SimdLevel,
};

/// One instruction, resolved against its input shape.
enum Step {
    Conv {
        name: String,
        geom: ConvGeom,
        weights: PackedWeights,
        bias: Vec<f32>,
        relu: bool,
        snr_ratio: f32,
    },
    MaxPool {
        name: String,
        geom: PoolGeom,
    },
    AvgPool {
        name: String,
        geom: PoolGeom,
        snr_ratio: f32,
    },
    Lrn {
        name: String,
        size: usize,
        snr_ratio: f32,
    },
    Inception {
        name: String,
        branches: Vec<Vec<Step>>,
    },
}

/// Op counts one replayed frame issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Analog MACs (conv, avgpool and LRN), as the ledger counts them.
    pub macs: u64,
    /// MACs issued through the conv GEMM alone.
    pub conv_macs: u64,
    /// `Comparator::compare` calls.
    pub comparisons: u64,
    /// `SarAdc::convert` calls.
    pub conversions: u64,
    /// Feature-memory writes (one per produced value).
    pub writes: u64,
    /// Gaussian samples added by `add_scaled_normal`.
    pub noise_samples: u64,
}

/// Milliseconds one replayed frame spent in each public kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerMs {
    pub conv_gemm: f64,
    pub noise: f64,
    pub comparator: f64,
    pub sar: f64,
}

impl LayerMs {
    /// Time inside the replayed kernels.
    pub fn sum(&self) -> f64 {
        self.conv_gemm + self.noise + self.comparator + self.sar
    }
}

/// A program resolved for replay: geometry propagated, weights packed.
pub struct Replay {
    steps: Vec<Step>,
    sar: SarAdc,
    stream: NoiseStream,
}

fn resolve(insts: &[Instruction], shape: &mut [usize; 3]) -> Result<Vec<Step>, String> {
    let mut steps = Vec::with_capacity(insts.len());
    for inst in insts {
        let [c, h, w] = *shape;
        let bad = |e: &dyn std::fmt::Display| format!("{}: {e}", inst.name());
        steps.push(match inst {
            Instruction::Conv {
                name,
                out_c,
                kernel,
                stride,
                pad,
                relu,
                codes,
                scale,
                bias,
                snr,
            } => {
                let geom =
                    ConvGeom::new(c, h, w, *kernel, *kernel, *stride, *pad).map_err(|e| bad(&e))?;
                if codes.len() != out_c * geom.patch_len() || bias.len() != *out_c {
                    return Err(bad(&"weight dims do not match the geometry"));
                }
                let weights: Vec<f32> = codes.iter().map(|&q| q as f32 * scale).collect();
                *shape = [*out_c, geom.out_h(), geom.out_w()];
                Step::Conv {
                    name: name.clone(),
                    weights: PackedWeights::pack(&weights, *out_c, geom.patch_len()),
                    geom,
                    bias: bias.clone(),
                    relu: *relu,
                    snr_ratio: snr.amplitude_ratio() as f32,
                }
            }
            Instruction::MaxPool {
                name,
                window,
                stride,
                pad,
            } => {
                let geom = PoolGeom::new(c, h, w, *window, *stride, *pad).map_err(|e| bad(&e))?;
                *shape = [c, geom.out_h(), geom.out_w()];
                Step::MaxPool {
                    name: name.clone(),
                    geom,
                }
            }
            Instruction::AvgPool {
                name,
                window,
                stride,
                pad,
                snr,
            } => {
                let geom = PoolGeom::new(c, h, w, *window, *stride, *pad).map_err(|e| bad(&e))?;
                *shape = [c, geom.out_h(), geom.out_w()];
                Step::AvgPool {
                    name: name.clone(),
                    geom,
                    snr_ratio: snr.amplitude_ratio() as f32,
                }
            }
            Instruction::Lrn {
                name, size, snr, ..
            } => Step::Lrn {
                name: name.clone(),
                size: *size,
                snr_ratio: snr.amplitude_ratio() as f32,
            },
            Instruction::Inception { name, branches } => {
                let input = *shape;
                let mut out_c = 0;
                let mut resolved = Vec::with_capacity(branches.len());
                for branch in branches {
                    let mut b = input;
                    resolved.push(resolve(branch, &mut b)?);
                    if (b[1], b[2]) != (shape[1], shape[2]) && out_c > 0 {
                        return Err(bad(&"inception branches disagree on height/width"));
                    }
                    out_c += b[0];
                    (shape[1], shape[2]) = (b[1], b[2]);
                }
                shape[0] = out_c;
                Step::Inception {
                    name: name.clone(),
                    branches: resolved,
                }
            }
        });
    }
    Ok(steps)
}

/// One frame's replay state.
struct Pass<'a> {
    tracer: &'a mut Tracer,
    packs: &'a mut PackBuffers,
    stream: NoiseStream,
    /// Next instruction substream label, in the executor's DFS order.
    ordinal: u64,
    counts: Counts,
    ms: LayerMs,
}

impl Pass<'_> {
    fn next_stream(&mut self) -> NoiseStream {
        let s = self.stream.substream(self.ordinal);
        self.ordinal += 1;
        s
    }

    /// Layer-SNR noise on one output plane (skipped for a silent plane,
    /// as the executor does).
    fn noise(&mut self, plane: &mut [f32], snr_ratio: f32) {
        let power = plane.iter().map(|v| v * v).sum::<f32>() / plane.len().max(1) as f32;
        let rms = power.sqrt();
        if rms <= 0.0 {
            return;
        }
        let stream = self.next_stream();
        let span = self.tracer.begin("tensor.noise");
        stream.add_scaled_normal(0, rms / snr_ratio, plane);
        self.ms.noise += self.tracer.end(span);
        self.counts.noise_samples += plane.len() as u64;
    }

    /// Runs a chain of steps over the activation volume `x`.
    fn run(&mut self, steps: &[Step], x: &[f32]) -> Vec<f32> {
        let mut cur: Option<Vec<f32>> = None;
        for step in steps {
            let next = self.step(step, cur.as_deref().unwrap_or(x));
            cur = Some(next);
        }
        cur.unwrap_or_else(|| x.to_vec())
    }

    fn step(&mut self, step: &Step, x: &[f32]) -> Vec<f32> {
        let name = match step {
            Step::Conv { name, .. }
            | Step::MaxPool { name, .. }
            | Step::AvgPool { name, .. }
            | Step::Lrn { name, .. }
            | Step::Inception { name, .. } => name,
        };
        let span = self.tracer.begin(&format!("replay.{name}"));
        let out = match step {
            Step::Conv {
                geom,
                weights,
                bias,
                relu,
                snr_ratio,
                ..
            } => {
                let positions = geom.out_positions();
                let mut out = vec![0.0f32; weights.m() * positions];
                let span = self.tracer.begin("tensor.conv_gemm");
                conv_gemm_packed_into(self.packs, SimdLevel::auto(), weights, x, geom, &mut out, 1);
                self.ms.conv_gemm += self.tracer.end(span);
                for (row, &b) in out.chunks_mut(positions).zip(bias) {
                    row.iter_mut().for_each(|v| *v += b);
                }
                self.noise(&mut out, *snr_ratio);
                if *relu {
                    out.iter_mut().for_each(|v| *v = v.max(0.0));
                }
                let macs = geom.macs(weights.m());
                self.counts.macs += macs;
                self.counts.conv_macs += macs;
                self.counts.writes += out.len() as u64;
                out
            }
            Step::MaxPool { geom, .. } => {
                let out = self.comparator_pool(geom, x);
                self.counts.writes += out.len() as u64;
                out
            }
            Step::AvgPool {
                geom, snr_ratio, ..
            } => {
                let (in_h, in_w) = (geom.in_h(), geom.in_w());
                let mut out = Vec::with_capacity(geom.out_len());
                for c in 0..geom.channels() {
                    for oy in 0..geom.out_h() {
                        for ox in 0..geom.out_w() {
                            let y = (oy * geom.stride()).min(in_h - 1);
                            let xx = (ox * geom.stride()).min(in_w - 1);
                            out.push(x[(c * in_h + y) * in_w + xx]);
                        }
                    }
                }
                self.noise(&mut out, *snr_ratio);
                let window = (geom.window() * geom.window()) as u64;
                self.counts.macs += out.len() as u64 * window;
                self.counts.writes += out.len() as u64;
                out
            }
            Step::Lrn {
                size, snr_ratio, ..
            } => {
                let mut out = x.to_vec();
                self.noise(&mut out, *snr_ratio);
                self.counts.macs += out.len() as u64 * (*size as u64 + 1);
                self.counts.writes += out.len() as u64;
                out
            }
            Step::Inception { branches, .. } => {
                let mut out = Vec::new();
                for branch in branches {
                    out.extend_from_slice(&self.run(branch, x));
                }
                out
            }
        };
        self.tracer.end(span);
        out
    }

    /// Comparator max pooling: the executor's fixed schedule of window²−1
    /// decisions per output, padding taps at the lower rail.
    fn comparator_pool(&mut self, geom: &PoolGeom, x: &[f32]) -> Vec<f32> {
        let stream = self.next_stream();
        let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let volts = if max_abs > 0.0 {
            SWING.value() / f64::from(max_abs)
        } else {
            1.0
        };
        let (in_h, in_w) = (geom.in_h() as isize, geom.in_w() as isize);
        let (out_w, plane_out) = (geom.out_w(), geom.out_h() * geom.out_w());
        let mut out = vec![0.0f32; geom.out_len()];
        let mut comparator = Comparator::new();
        let span = self.tracer.begin("analog.comparator");
        for (idx, slot) in out.iter_mut().enumerate() {
            let (c, rem) = (idx / plane_out, idx % plane_out);
            let (oy, ox) = ((rem / out_w) as isize, (rem % out_w) as isize);
            let plane = &x[c * (in_h * in_w) as usize..][..(in_h * in_w) as usize];
            let mut site = stream.at(idx as u64);
            let mut best: Option<f32> = None;
            for ky in 0..geom.window() as isize {
                for kx in 0..geom.window() as isize {
                    let y = oy * geom.stride() as isize + ky - geom.pad() as isize;
                    let xx = ox * geom.stride() as isize + kx - geom.pad() as isize;
                    let v = if (0..in_h).contains(&y) && (0..in_w).contains(&xx) {
                        plane[(y * in_w + xx) as usize]
                    } else {
                        -max_abs
                    };
                    best = Some(match best {
                        None => v,
                        Some(m) => {
                            let d = comparator.compare(
                                f64::from(v) * volts,
                                f64::from(m) * volts,
                                &mut site,
                            );
                            if d.a_greater {
                                v
                            } else {
                                m
                            }
                        }
                    });
                }
            }
            *slot = best.unwrap_or(0.0);
        }
        self.ms.comparator += self.tracer.end(span);
        self.counts.comparisons += comparator.decisions_made();
        out
    }

    /// SAR readout of the final features, one site per feature.
    fn readout(&mut self, template: &SarAdc, x: &[f32]) {
        let stream = self.next_stream();
        let vmax = x.iter().fold(0.0f32, |m, &v| m.max(v));
        let full_scale = if vmax >= f32::MIN_POSITIVE {
            f64::from(vmax)
        } else {
            1.0
        };
        let span = self.tracer.begin("analog.sar");
        let mut adc = template.clone();
        let mut check = 0u32;
        for (i, &v) in x.iter().enumerate() {
            let conv = adc.convert(f64::from(v.max(0.0)) / full_scale, &mut stream.at(i as u64));
            check ^= conv.code;
        }
        std::hint::black_box(check);
        self.ms.sar += self.tracer.end(span);
        self.counts.conversions += x.len() as u64;
    }
}

impl Replay {
    /// Resolves `program` for replay under the engine noise seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first instruction whose geometry or
    /// weights do not resolve, or an unsupported ADC resolution.
    pub fn new(program: &Program, seed: u64) -> Result<Replay, String> {
        let mut shape = program.input;
        let steps = resolve(&program.instructions, &mut shape)?;
        let sar = SarAdc::new(program.adc_bits).map_err(|e| format!("readout: {e}"))?;
        Ok(Replay {
            steps,
            sar,
            stream: NoiseStream::new(seed),
        })
    }

    /// Replays frame `frame` of `input` (the program's input volume,
    /// row-major), recording spans into `tracer`.
    pub fn run(
        &self,
        frame: u64,
        input: &[f32],
        tracer: &mut Tracer,
        packs: &mut PackBuffers,
    ) -> (Counts, LayerMs) {
        let mut pass = Pass {
            tracer,
            packs,
            stream: self.stream.frame_substream(frame),
            ordinal: 0,
            counts: Counts::default(),
            ms: LayerMs::default(),
        };
        let span = pass.tracer.begin("replay.frame");
        let features = pass.run(&self.steps, input);
        pass.readout(&self.sar, &features);
        pass.tracer.end(span);
        (pass.counts, pass.ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_analog::SnrDb;
    use redeye_core::{compile, CompileOptions, FrameCtx, FrameEngine, WeightBank};
    use redeye_nn::{build_network, zoo, NetworkSpec, WeightInit};
    use redeye_tensor::Rng;

    fn program(spec: &NetworkSpec, cut: &str) -> Program {
        let prefix = spec.prefix_through(cut).expect("cut exists");
        let mut net =
            build_network(&prefix, WeightInit::HeNormal, &mut Rng::seed_from(3)).expect("builds");
        compile(
            &prefix,
            &mut WeightBank::from_network(&mut net),
            &CompileOptions::default(),
        )
        .expect("compiles")
    }

    /// Replays frame 0 and returns what it issued beside the ledger.
    fn replay_vs_ledger(program: &Program) -> (Counts, LayerMs, redeye_core::EnergyLedger) {
        let input = &crate::scene::ring(5, program.input)[0];
        let out = FrameEngine::new(program.clone(), 9)
            .run_frame(0, input, &mut FrameCtx::new())
            .expect("frame runs");
        let (counts, ms) = Replay::new(program, 9).expect("resolves").run(
            0,
            input.as_slice(),
            &mut Tracer::new(true),
            &mut PackBuffers::new(),
        );
        (counts, ms, out.ledger)
    }

    fn assert_counts_match(program: &Program) {
        let (c, ms, l) = replay_vs_ledger(program);
        assert_eq!(
            (c.macs, c.comparisons, c.conversions, c.writes),
            (l.macs, l.comparisons, l.conversions, l.writes)
        );
        assert!(c.noise_samples > 0 && c.conv_macs > 0 && c.conv_macs <= c.macs);
        assert!(ms.conv_gemm > 0.0 && ms.comparator > 0.0 && ms.sar > 0.0 && ms.noise > 0.0);
    }

    #[test]
    fn replay_counts_equal_the_ledger_on_micronet() {
        assert_counts_match(&program(&zoo::micronet(4, 10), "pool1"));
        assert_counts_match(&program(&zoo::micronet(8, 10), "pool3"));
    }

    #[test]
    fn replay_counts_equal_the_ledger_through_inception_and_avgpool() {
        let mut p = program(&zoo::tiny_inception(10), "pool2");
        p.instructions.push(Instruction::AvgPool {
            name: "avg".into(),
            window: 2,
            stride: 2,
            pad: 0,
            snr: SnrDb::new(40.0),
        });
        assert_counts_match(&p);
    }

    #[test]
    fn inconsistent_weights_are_refused() {
        let mut p = program(&zoo::micronet(4, 10), "pool1");
        if let Instruction::Conv { codes, .. } = &mut p.instructions[0] {
            codes.pop();
        }
        assert!(Replay::new(&p, 1).is_err());
    }
}
