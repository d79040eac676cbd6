//! Column-parallel topology and cyclic flow control (§III-B).
//!
//! RedEye arranges its modules in a column pipeline — buffer, convolutional,
//! max-pooling, quantization (Fig. 3) — replicated across the 227 sensor
//! columns. A ConvNet executes as a sequence of *cyclic passes*: each layer
//! is one pass through the physical pipeline, with the cyclic flow control
//! routing pooled output back to the storage module for the next pass, and
//! the bypass flow control skipping any module a pass does not need ("if
//! pooling is not required, the module can be skipped entirely").
//!
//! [`schedule`] derives that pass sequence from a [`Program`], making the
//! cyclic-reuse story concrete: the same four module types appear in every
//! pass, which is exactly why one physical pipeline suffices for a deep
//! network (and why the area model's reuse factor equals the pass count).

use crate::{Instruction, Program};
use serde::{Deserialize, Serialize};

/// The four RedEye module types of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Analog memory: samples pixels or intermediate results (①).
    Buffer,
    /// 3-D convolution / weighted accumulation, with rectification (②).
    Convolutional,
    /// Max pooling; also sources the normalization sample (③).
    MaxPooling,
    /// SAR readout at the end of the analog pipeline (④).
    Quantization,
}

impl ModuleKind {
    /// All module kinds in pipeline order.
    pub const ALL: [ModuleKind; 4] = [
        ModuleKind::Buffer,
        ModuleKind::Convolutional,
        ModuleKind::MaxPooling,
        ModuleKind::Quantization,
    ];
}

/// One cyclic pass of the column pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CyclePass {
    /// Name of the layer this pass realizes (or `"readout"`).
    pub layer: String,
    /// Modules engaged by this pass.
    pub engages: Vec<ModuleKind>,
    /// Modules bypassed by the bypass flow control.
    pub bypasses: Vec<ModuleKind>,
    /// Whether the cyclic flow control routes this pass's output back to
    /// the storage module (all passes except the final readout).
    pub cycles_back: bool,
    /// Branch group for inception passes (`None` for trunk passes). Passes
    /// in different groups of the same module read the same stored input.
    pub branch: Option<usize>,
}

fn pass(layer: &str, engages: &[ModuleKind], branch: Option<usize>) -> CyclePass {
    let bypasses = ModuleKind::ALL
        .iter()
        .copied()
        .filter(|k| !engages.contains(k) && *k != ModuleKind::Quantization)
        .collect();
    CyclePass {
        layer: layer.to_string(),
        engages: engages.to_vec(),
        bypasses,
        cycles_back: true,
        branch,
    }
}

fn schedule_instruction(inst: &Instruction, branch: Option<usize>, out: &mut Vec<CyclePass>) {
    match inst {
        Instruction::Conv { name, .. } => out.push(pass(
            name,
            &[ModuleKind::Buffer, ModuleKind::Convolutional],
            branch,
        )),
        Instruction::MaxPool { name, .. } => out.push(pass(
            name,
            &[ModuleKind::Buffer, ModuleKind::MaxPooling],
            branch,
        )),
        Instruction::AvgPool { name, .. } => out.push(pass(
            name,
            &[ModuleKind::Buffer, ModuleKind::Convolutional],
            branch,
        )),
        // §III-B ③: "when local response normalization is required, the
        // convolutional module uses this [max-pooling] sample to adjust
        // convolutional weights for the subsequent execution."
        Instruction::Lrn { name, .. } => out.push(pass(
            name,
            &[
                ModuleKind::Buffer,
                ModuleKind::MaxPooling,
                ModuleKind::Convolutional,
            ],
            branch,
        )),
        Instruction::Inception { branches, .. } => {
            for (bi, insts) in branches.iter().enumerate() {
                for inst in insts {
                    schedule_instruction(inst, Some(bi), out);
                }
            }
        }
    }
}

/// Derives the cyclic pass schedule of a program: one pass per executed
/// layer (inception branches flattened in order, re-reading the shared
/// stored input), plus the terminal quantization pass.
pub fn schedule(program: &Program) -> Vec<CyclePass> {
    let mut passes = Vec::new();
    for inst in &program.instructions {
        schedule_instruction(inst, None, &mut passes);
    }
    passes.push(CyclePass {
        layer: "readout".into(),
        engages: vec![ModuleKind::Buffer, ModuleKind::Quantization],
        bypasses: vec![ModuleKind::Convolutional, ModuleKind::MaxPooling],
        cycles_back: false,
        branch: None,
    });
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    fn micronet_schedule() -> Vec<CyclePass> {
        let spec = zoo::micronet(4, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        schedule(&program)
    }

    #[test]
    fn one_pass_per_layer_plus_readout() {
        let passes = micronet_schedule();
        // micronet prefix: conv1, pool1, norm1, conv2, pool2, conv3, pool3
        // → 7 passes + readout.
        assert_eq!(passes.len(), 8);
        assert_eq!(passes.last().unwrap().layer, "readout");
        assert!(!passes.last().unwrap().cycles_back);
        assert!(passes[..7].iter().all(|p| p.cycles_back));
    }

    #[test]
    fn bypass_flow_control_skips_unused_modules() {
        let passes = micronet_schedule();
        let conv1 = &passes[0];
        assert!(conv1.engages.contains(&ModuleKind::Convolutional));
        assert!(conv1.bypasses.contains(&ModuleKind::MaxPooling));
        let pool1 = &passes[1];
        assert!(pool1.engages.contains(&ModuleKind::MaxPooling));
        assert!(pool1.bypasses.contains(&ModuleKind::Convolutional));
    }

    #[test]
    fn lrn_engages_pooling_and_conv() {
        // §III-B ③: normalization uses the pooling sample to adjust conv
        // weights — both modules engage.
        let passes = micronet_schedule();
        let norm = passes.iter().find(|p| p.layer == "norm1").unwrap();
        assert!(norm.engages.contains(&ModuleKind::MaxPooling));
        assert!(norm.engages.contains(&ModuleKind::Convolutional));
    }

    #[test]
    fn inception_branches_are_grouped() {
        let spec = zoo::tiny_inception(10);
        let prefix = spec.prefix_through("pool2").unwrap();
        let mut rng = Rng::seed_from(2);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).unwrap();
        let passes = schedule(&program);
        // 4 branches: 1 + 2 + 2 + 2 = 7 branch passes with group tags.
        let branch_passes: Vec<_> = passes.iter().filter(|p| p.branch.is_some()).collect();
        assert_eq!(branch_passes.len(), 7);
        let groups: std::collections::BTreeSet<_> =
            branch_passes.iter().map(|p| p.branch.unwrap()).collect();
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn reuse_saving_matches_pass_count() {
        // Without cyclic reuse: 8 module sets; with: 1 set of 4 modules.
        let passes = micronet_schedule();
        assert_eq!(
            crate::area::AreaEstimate::reuse_saving_factor(passes.len()),
            8.0
        );
    }
}
