//! The RedEye ConvNet program representation (§III-C).
//!
//! A developer "writes a ConvNet program to the RedEye program SRAM": the
//! layer ordering, layer dimensions, convolutional kernel weights (8-bit
//! fixed point), and per-layer noise parameters. [`Program`] is that object.

use redeye_analog::SnrDb;
use redeye_nn::AnalogOp;
use serde::{Deserialize, Serialize};

/// One instruction of a RedEye program — one cyclic pass through (a subset
/// of) the column modules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// Convolution in the convolutional module, with fused rectification
    /// (clipping at swing). Weights are signed fixed-point codes for the
    /// tunable-capacitor DAC.
    Conv {
        /// Layer name.
        name: String,
        /// Output channels.
        out_c: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Whether rectification follows.
        relu: bool,
        /// Signed weight codes, `(out_c × patch_len)` row-major.
        codes: Vec<i32>,
        /// Real weight per unit code (dequantization scale).
        scale: f32,
        /// Per-output-channel bias (applied as a digital offset).
        bias: Vec<f32>,
        /// Noise-admission setting for this layer's damping circuit.
        snr: SnrDb,
    },
    /// Max pooling in the max-pooling module.
    MaxPool {
        /// Layer name.
        name: String,
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Average pooling (an accumulate with fixed weights in the
    /// convolutional module).
    AvgPool {
        /// Layer name.
        name: String,
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Noise-admission setting.
        snr: SnrDb,
    },
    /// Local response normalization, realized by the max-pooling module's
    /// sample adjusting convolutional weights for the next cycle (§III-B ③).
    Lrn {
        /// Layer name.
        name: String,
        /// Channel window.
        size: usize,
        /// α parameter.
        alpha: f32,
        /// β exponent.
        beta: f32,
        /// k bias.
        k: f32,
        /// Noise-admission setting.
        snr: SnrDb,
    },
    /// Parallel branch execution with channel concatenation (inception);
    /// each branch is a chain of instructions over the same input.
    Inception {
        /// Module name.
        name: String,
        /// Branches.
        branches: Vec<Vec<Instruction>>,
    },
}

impl Instruction {
    /// The instruction's layer name.
    pub fn name(&self) -> &str {
        match self {
            Instruction::Conv { name, .. }
            | Instruction::MaxPool { name, .. }
            | Instruction::AvgPool { name, .. }
            | Instruction::Lrn { name, .. }
            | Instruction::Inception { name, .. } => name,
        }
    }

    /// This instruction's entry in the analog op table, or `None` for an
    /// inception module (its branches carry the ops).
    pub fn op(&self) -> Option<AnalogOp> {
        match *self {
            Instruction::Conv {
                out_c,
                kernel,
                stride,
                pad,
                ..
            } => Some(AnalogOp::Conv {
                out_c,
                kernel,
                stride,
                pad,
            }),
            Instruction::MaxPool {
                window,
                stride,
                pad,
                ..
            } => Some(AnalogOp::MaxPool {
                window,
                stride,
                pad,
            }),
            Instruction::AvgPool {
                window,
                stride,
                pad,
                ..
            } => Some(AnalogOp::AvgPool {
                window,
                stride,
                pad,
            }),
            Instruction::Lrn { size, .. } => Some(AnalogOp::Lrn { size }),
            Instruction::Inception { .. } => None,
        }
    }

    /// The noise-admission setting of this instruction's damping circuit,
    /// or `None` where nothing is damped: the comparator selects rather
    /// than accumulates, and an inception module's branches carry their
    /// own settings.
    pub fn snr(&self) -> Option<SnrDb> {
        match self {
            Instruction::Conv { snr, .. }
            | Instruction::AvgPool { snr, .. }
            | Instruction::Lrn { snr, .. } => Some(*snr),
            Instruction::MaxPool { .. } | Instruction::Inception { .. } => None,
        }
    }

    /// Bytes of kernel storage this instruction needs in the program SRAM
    /// (8-bit codes), counting nested branches.
    pub fn kernel_bytes(&self) -> usize {
        match self {
            Instruction::Conv { codes, .. } => codes.len(),
            Instruction::Inception { branches, .. } => branches
                .iter()
                .flat_map(|b| b.iter().map(Instruction::kernel_bytes))
                .sum(),
            _ => 0,
        }
    }

    /// Kernel bytes that must be resident *simultaneously* while this
    /// instruction streams: RedEye cycles weights channel-by-channel from
    /// the program store, so a conv needs one output channel's kernel
    /// (double-buffered) per active module bank.
    pub fn kernel_working_set_bytes(&self) -> usize {
        match self {
            Instruction::Conv { codes, out_c, .. } => {
                if *out_c == 0 {
                    0
                } else {
                    // One channel's patch, double-buffered.
                    (codes.len() / out_c) * 2
                }
            }
            Instruction::Inception { branches, .. } => branches
                .iter()
                .map(|b| {
                    b.iter()
                        .map(Instruction::kernel_working_set_bytes)
                        .max()
                        .unwrap_or(0)
                })
                .sum(),
            _ => 0,
        }
    }
}

/// A complete RedEye program: input geometry, the instruction chain, and the
/// quantization (readout) setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable program name.
    pub name: String,
    /// Input shape `[channels, height, width]`.
    pub input: [usize; 3],
    /// The analog instruction chain.
    pub instructions: Vec<Instruction>,
    /// ADC resolution of the final quantization module.
    pub adc_bits: u32,
}

impl Program {
    /// Creates a program.
    pub fn new(
        name: impl Into<String>,
        input: [usize; 3],
        instructions: Vec<Instruction>,
        adc_bits: u32,
    ) -> Self {
        Program {
            name: name.into(),
            input,
            instructions,
            adc_bits,
        }
    }

    /// Total kernel bytes across the whole program (what the host must
    /// stream over the program interface per reconfiguration).
    pub fn kernel_bytes(&self) -> usize {
        self.instructions
            .iter()
            .map(Instruction::kernel_bytes)
            .sum()
    }

    /// Peak simultaneous kernel residency (what must fit in the 9-kB kernel
    /// SRAM).
    pub fn kernel_working_set_bytes(&self) -> usize {
        self.instructions
            .iter()
            .map(Instruction::kernel_working_set_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Number of top-level instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty (capture-only).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, out_c: usize, patch: usize) -> Instruction {
        Instruction::Conv {
            name: name.into(),
            out_c,
            kernel: 3,
            stride: 1,
            pad: 1,
            relu: true,
            codes: vec![0; out_c * patch],
            scale: 1.0 / 128.0,
            bias: vec![0.0; out_c],
            snr: SnrDb::new(40.0),
        }
    }

    #[test]
    fn kernel_bytes_counts_codes() {
        let p = Program::new("t", [3, 8, 8], vec![conv("c1", 4, 27)], 4);
        assert_eq!(p.kernel_bytes(), 108);
        // Working set: one channel (27 codes) double-buffered.
        assert_eq!(p.kernel_working_set_bytes(), 54);
    }

    #[test]
    fn inception_working_set_sums_branches() {
        let inc = Instruction::Inception {
            name: "i".into(),
            branches: vec![vec![conv("a", 2, 9)], vec![conv("b", 2, 25)]],
        };
        assert_eq!(inc.kernel_bytes(), 18 + 50);
        assert_eq!(inc.kernel_working_set_bytes(), 18 + 50);
        // (each branch holds one double-buffered channel: 9·2 + 25·2)
    }

    #[test]
    fn program_serde_round_trip() {
        let p = Program::new("t", [3, 8, 8], vec![conv("c1", 2, 27)], 6);
        let json = serde_json::to_string(&p).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn pooling_needs_no_kernel_storage() {
        let pool = Instruction::MaxPool {
            name: "p".into(),
            window: 3,
            stride: 2,
            pad: 0,
        };
        assert_eq!(pool.kernel_bytes(), 0);
        assert_eq!(pool.kernel_working_set_bytes(), 0);
    }
}
