//! Compiling a partitioned ConvNet prefix into a RedEye program.
//!
//! The compiler takes the analog-executable prefix of a network spec plus
//! the trained weights of the corresponding layers, quantizes each kernel to
//! the 8-bit fixed-point codes the tunable-capacitor DAC applies (§IV-A),
//! and emits the [`Program`] the controller loads from the program SRAM.

use crate::{CoreError, Instruction, Program, Result};
use redeye_analog::{max_signed_code, SnrDb, DAC_WEIGHT_BITS};
use redeye_nn::{quantize_symmetric, LayerSpec, Network, NetworkSpec, NnError};
use redeye_tensor::Tensor;

/// Trained parameters extracted from an executable network, in layer order.
///
/// `redeye-nn` hides layers behind trait objects, but its parameter-visit
/// order is deterministic (chain order; inception branches in declaration
/// order), so pairing `(weight matrix, bias vector)` tuples in order
/// reconstructs each convolution's parameters. Shape checks at compile time
/// catch any misalignment.
#[derive(Debug, Clone)]
pub struct WeightBank {
    params: Vec<(Tensor, Tensor)>,
    cursor: usize,
}

impl WeightBank {
    /// Extracts all `(weights, bias)` pairs from a network.
    pub fn from_network(net: &mut Network) -> Self {
        let mut tensors: Vec<Tensor> = Vec::new();
        net.visit_params(&mut |p, _| tensors.push(p.clone()));
        // Parameters come in (rank-2 weight, rank-1 bias) pairs per layer.
        let mut params = Vec::new();
        let mut iter = tensors.into_iter();
        while let Some(w) = iter.next() {
            if let Some(b) = iter.next() {
                params.push((w, b));
            }
        }
        WeightBank { params, cursor: 0 }
    }

    /// Number of layer parameter sets remaining.
    pub fn remaining(&self) -> usize {
        self.params.len() - self.cursor
    }

    fn take(&mut self, layer: &str, out_c: usize, patch: usize) -> Result<(Tensor, Tensor)> {
        let (w, b) =
            self.params
                .get(self.cursor)
                .cloned()
                .ok_or_else(|| CoreError::WeightMismatch {
                    layer: layer.to_string(),
                    reason: "weight bank exhausted".into(),
                })?;
        if w.dims() != [out_c, patch] || b.dims() != [out_c] {
            return Err(CoreError::WeightMismatch {
                layer: layer.to_string(),
                reason: format!(
                    "expected ({out_c}x{patch}) weights and [{out_c}] bias, got {:?} / {:?}",
                    w.dims(),
                    b.dims()
                ),
            });
        }
        self.cursor += 1;
        Ok((w, b))
    }
}

/// What the compiler does with the static verification report of its own
/// output (see the `redeye-verify` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Do not verify the compiled program.
    Skip,
    /// Fail compilation if verification reports errors (the default).
    #[default]
    DenyErrors,
    /// Fail compilation if verification reports errors *or* warnings.
    DenyWarnings,
}

/// Compiler settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Weight DAC resolution (the paper's design is 8-bit).
    pub weight_bits: u32,
    /// Default noise-admission SNR programmed into every analog layer.
    pub snr: SnrDb,
    /// ADC resolution of the final quantization module.
    pub adc_bits: u32,
    /// Verification policy applied to the compiled program.
    pub verify: VerifyPolicy,
    /// Per-frame cost budget the verification checks the compiled program
    /// against (RE07xx). Unset caps are not checked.
    pub budget: redeye_verify::CostBudget,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            weight_bits: 8,
            snr: SnrDb::new(40.0),
            adc_bits: 4,
            verify: VerifyPolicy::default(),
            budget: redeye_verify::CostBudget::default(),
        }
    }
}

fn compile_layer(
    layer: &LayerSpec,
    shape: &mut [usize; 3],
    bank: &mut WeightBank,
    opts: &CompileOptions,
) -> Result<Instruction> {
    let inst = match layer {
        LayerSpec::Conv {
            name,
            out_c,
            kernel,
            stride,
            pad,
            relu,
        } => {
            let patch = shape[0] * kernel * kernel;
            let (w, b) = bank.take(name, *out_c, patch)?;
            let q = quantize_symmetric(w.as_slice(), opts.weight_bits);
            // The DAC applies codes directly through its capacitor bank, so a
            // code the 8-bit bank cannot express is rejected, never clamped
            // (clamping would silently distort the kernel).
            let limit = max_signed_code(DAC_WEIGHT_BITS);
            if let Some(&code) = q.codes.iter().find(|c| c.abs() > limit) {
                return Err(CoreError::CodeOutOfRange {
                    layer: name.clone(),
                    code,
                    bits: DAC_WEIGHT_BITS,
                });
            }
            Instruction::Conv {
                name: name.clone(),
                out_c: *out_c,
                kernel: *kernel,
                stride: *stride,
                pad: *pad,
                relu: *relu,
                codes: q.codes,
                scale: q.scale,
                bias: b.into_vec(),
                snr: opts.snr,
            }
        }
        LayerSpec::MaxPool {
            name,
            window,
            stride,
            pad,
        } => Instruction::MaxPool {
            name: name.clone(),
            window: *window,
            stride: *stride,
            pad: *pad,
        },
        LayerSpec::AvgPool {
            name,
            window,
            stride,
            pad,
        } => Instruction::AvgPool {
            name: name.clone(),
            window: *window,
            stride: *stride,
            pad: *pad,
            snr: opts.snr,
        },
        LayerSpec::Lrn {
            name,
            size,
            alpha,
            beta,
            k,
        } => Instruction::Lrn {
            name: name.clone(),
            size: *size,
            alpha: *alpha,
            beta: *beta,
            k: *k,
            snr: opts.snr,
        },
        LayerSpec::Inception { name, branches } => {
            let in_shape = *shape;
            let mut compiled = Vec::with_capacity(branches.len());
            let mut out_c = 0usize;
            let mut out_hw = (0usize, 0usize);
            for branch in branches {
                let mut bshape = in_shape;
                let mut insts = Vec::with_capacity(branch.len());
                for l in branch {
                    insts.push(compile_layer(l, &mut bshape, bank, opts)?);
                }
                out_c += bshape[0];
                out_hw = (bshape[1], bshape[2]);
                compiled.push(insts);
            }
            *shape = [out_c, out_hw.0, out_hw.1];
            return Ok(Instruction::Inception {
                name: name.clone(),
                branches: compiled,
            });
        }
        other => {
            return Err(CoreError::NotAnalogExecutable {
                layer: other.name().to_string(),
            })
        }
    };
    // Every other arm is an analog layer: the op table gives its shape.
    if let Some(op) = layer.analog_op() {
        *shape = op.apply(*shape).map_err(NnError::from)?.0;
    }
    Ok(inst)
}

/// Compiles an analog-executable network prefix into a RedEye [`Program`].
///
/// `bank` must hold the trained parameters of (at least) the prefix's
/// convolutions, in layer order — extract it from the built network with
/// [`WeightBank::from_network`].
///
/// # Errors
///
/// - [`CoreError::NotAnalogExecutable`] if the prefix contains a host-only
///   layer;
/// - [`CoreError::WeightMismatch`] if the bank's parameters do not line up
///   with the spec;
/// - [`CoreError::CodeOutOfRange`] if a quantized kernel code cannot be
///   expressed by the 8-bit weight DAC;
/// - [`CoreError::Verify`] if the compiled program fails static
///   verification under [`CompileOptions::verify`].
pub fn compile(
    prefix: &NetworkSpec,
    bank: &mut WeightBank,
    opts: &CompileOptions,
) -> Result<Program> {
    if !(2..=31).contains(&opts.weight_bits) {
        return Err(CoreError::BadProgram {
            reason: format!(
                "weight DAC resolution {} bits is not representable (supported: 2..=31)",
                opts.weight_bits
            ),
        });
    }
    let mut shape = prefix.input;
    let mut instructions = Vec::with_capacity(prefix.layers.len());
    for layer in &prefix.layers {
        instructions.push(compile_layer(layer, &mut shape, bank, opts)?);
    }
    let program = Program::new(
        prefix.name.clone(),
        prefix.input,
        instructions,
        opts.adc_bits,
    );
    let deny = match opts.verify {
        VerifyPolicy::Skip => None,
        VerifyPolicy::DenyErrors => Some(false),
        VerifyPolicy::DenyWarnings => Some(true),
    };
    if let Some(deny_warnings) = deny {
        let report = redeye_verify::verify_with_options(
            &program,
            &redeye_verify::VerifyOptions {
                limits: redeye_verify::ResourceLimits::default(),
                budget: opts.budget,
            },
        );
        if report.has_errors() || (deny_warnings && report.has_warnings()) {
            return Err(CoreError::Verify(report));
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    #[test]
    fn compiles_micronet_prefix() {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        assert_eq!(program.len(), prefix.layers.len());
        assert_eq!(program.adc_bits, 4);
        // conv1 of micronet: 8 channels × 5·5·3 patch.
        match &program.instructions[0] {
            Instruction::Conv { codes, out_c, .. } => {
                assert_eq!(*out_c, 8);
                assert_eq!(codes.len(), 8 * 75);
                assert!(codes.iter().all(|c| c.abs() <= 127));
            }
            other => panic!("expected conv, got {other:?}"),
        }
    }

    #[test]
    fn compiles_inception() {
        let spec = zoo::tiny_inception(10);
        let prefix = spec.prefix_through("pool2").unwrap();
        let mut rng = Rng::seed_from(2);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        let inception = program
            .instructions
            .iter()
            .find(|i| i.name() == "inception_a")
            .expect("inception instruction");
        match inception {
            Instruction::Inception { branches, .. } => assert_eq!(branches.len(), 4),
            other => panic!("expected inception, got {other:?}"),
        }
    }

    #[test]
    fn rejects_host_only_layers() {
        let spec = zoo::micronet(8, 10);
        // Full spec includes flatten/linear.
        let mut rng = Rng::seed_from(3);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let err = compile(&spec, &mut bank, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::NotAnalogExecutable { .. }));
    }

    #[test]
    fn exhausted_bank_is_reported() {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("conv2").unwrap();
        let mut bank = WeightBank {
            params: Vec::new(),
            cursor: 0,
        };
        let err = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::WeightMismatch { .. }));
    }

    #[test]
    fn rejects_codes_beyond_the_dac_range() {
        // Quantizing at 10 bits produces codes up to ±511, which the 8-bit
        // tunable-capacitor DAC cannot realize: compilation must fail rather
        // than clamp the kernel.
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            weight_bits: 10,
            ..CompileOptions::default()
        };
        let err = compile(&prefix, &mut bank, &opts).unwrap_err();
        match &err {
            CoreError::CodeOutOfRange { layer, code, bits } => {
                assert_eq!(layer, "conv1");
                assert_eq!(*bits, 8);
                assert!(code.abs() > 127, "code {code} should exceed the DAC limit");
            }
            other => panic!("expected CodeOutOfRange, got {other:?}"),
        }
        assert!(
            err.to_string()
                .contains("outside the 8-bit DAC range [-127, 127]"),
            "got: {err}"
        );
    }

    #[test]
    fn rejects_unrepresentable_weight_resolution() {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut bank = WeightBank {
            params: Vec::new(),
            cursor: 0,
        };
        for bad in [0, 1, 32] {
            let opts = CompileOptions {
                weight_bits: bad,
                ..CompileOptions::default()
            };
            let err = compile(&prefix, &mut bank, &opts).unwrap_err();
            assert!(matches!(err, CoreError::BadProgram { .. }), "bits={bad}");
        }
    }

    #[test]
    fn verify_policy_gates_warnings() {
        // 5 dB is admissible (no error) but outside the Table I tunable
        // band, so it compiles under DenyErrors and fails under
        // DenyWarnings.
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(9);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            snr: SnrDb::new(5.0),
            ..CompileOptions::default()
        };
        let program = compile(&prefix, &mut bank.clone(), &opts).unwrap();
        assert!(redeye_verify::verify(&program).has_warnings());

        let strict = CompileOptions {
            verify: VerifyPolicy::DenyWarnings,
            ..opts
        };
        let err = compile(&prefix, &mut bank, &strict).unwrap_err();
        match err {
            CoreError::Verify(report) => assert!(report.has_warnings()),
            other => panic!("expected Verify, got {other:?}"),
        }
    }

    #[test]
    fn googlenet_depth5_fits_kernel_sram() {
        // The cyclic weight-streaming working set of the deepest cut must
        // fit the paper's 9-kB kernel SRAM.
        let spec = zoo::googlenet();
        let (prefix, _) = crate::partition_googlenet(&spec, crate::Depth::D5).unwrap();
        let mut rng = Rng::seed_from(4);
        // Build only the prefix (building full GoogLeNet wastes time/memory).
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        let ws = program.kernel_working_set_bytes();
        assert!(
            crate::ProgramSram::new().check(&program).is_ok(),
            "working set {ws} B exceeds 9 kB"
        );
    }
}
