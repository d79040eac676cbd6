//! # redeye-verify — static analysis for RedEye ConvNet programs
//!
//! A RedEye program is written once into the sensor's program SRAM and then
//! runs on every frame; a malformed program wastes analog energy at best and
//! produces garbage silently at worst. This crate checks a [`Program`]
//! *without executing it*, the way `rustc` checks a crate without running it,
//! and reports structured [`Diagnostic`]s.
//!
//! ## Passes
//!
//! 1. **Shape dataflow** ([`DiagClass::ShapeDataflow`], `RE01xx`) —
//!    symbolically propagates the `(C, H, W)` activation shape through the
//!    instruction chain with the executor's exact geometry, rejecting
//!    non-chaining dimensions, degenerate outputs, and inputs wider than the
//!    physical column array.
//! 2. **DAC/code range** ([`DiagClass::CodeRange`], `RE02xx`) — weight codes
//!    must fit the 8-bit signed tunable-capacitor DAC, scales and biases
//!    must be finite, buffer lengths must match the layer geometry.
//! 3. **Noise admission** ([`DiagClass::NoiseAdmission`], `RE03xx`) —
//!    per-layer SNR settings must be admissible by the damping circuit and
//!    the ADC depth realizable by the SAR array; warnings flag energy wasted
//!    on fidelity the chain cannot deliver.
//! 4. **Resource budget** ([`DiagClass::ResourceBudget`], `RE04xx`) — kernel
//!    working set vs. program SRAM, readout payload vs. feature SRAM,
//!    duplicate layer names, dead instructions.
//! 5. **Spec conformance** ([`DiagClass::SpecConformance`], `RE05xx`, only
//!    via [`verify_against_spec`]) — the program faithfully implements the
//!    [`NetworkSpec`] it was compiled from.
//! 6. **Signal range** ([`DiagClass::SignalRange`], `RE06xx`) — abstract
//!    interpretation over an interval-with-noise domain: provable rail
//!    saturation and dead (always-rectified or constant) signals are
//!    errors, sub-rail excursions and noise-dominated readouts warnings.
//! 7. **Cost model** ([`DiagClass::CostModel`], `RE07xx`) — static
//!    energy/latency bounds from the executor's own per-op cost constants,
//!    bracketed over process corners and checked against a [`CostBudget`].
//!
//! Passes 1, 3, and 6 all run on one shared forward-dataflow engine over
//! the Program IR (the `dataflow` module); the IR is acyclic, so a single
//! program-order walk with a join at each inception is the fixpoint. Pass 7
//! consumes the shape pass's per-instruction sites.
//!
//! ## Entry points
//!
//! ```
//! use redeye_verify::{verify, Program};
//!
//! let program = Program::new("capture-only", [3, 32, 32], vec![], 8);
//! let report = verify(&program);
//! assert!(!report.has_errors());
//! ```
//!
//! [`verify`] checks against the paper's default resources;
//! [`verify_with_limits`] parameterizes them; [`verify_with_options`] adds
//! the cost budget; [`verify_against_spec`] adds the conformance pass.
//! All entry points always run every pass and return the full [`Report`]
//! (diagnostics in canonical order, see [`Report::normalize`]) — policy
//! (deny errors, deny warnings, ignore) is the caller's decision.
//! [`analyze_cost`] and [`analyze_ranges`] expose the passes' underlying
//! analysis results for tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codes;
mod conformance;
mod cost;
mod dataflow;
mod diag;
mod limits;
mod noise;
mod program;
mod resources;
mod shape;
mod signal;

pub use cost::{charge, CostBounds, CostBudget, CostEstimate};
pub use diag::{DiagClass, Diagnostic, Report, Severity};
pub use limits::{ResourceLimits, FEATURE_SRAM_BYTES, KERNEL_SRAM_BYTES, TOTAL_SRAM_BYTES};
pub use program::{Instruction, Program};
pub use signal::RangeSummary;

use redeye_nn::NetworkSpec;

/// Everything the full verification pipeline can be parameterized on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VerifyOptions {
    /// Physical resource limits (SRAM capacities, column count).
    pub limits: ResourceLimits,
    /// Per-frame cost caps for the RE07xx budget checks.
    pub budget: CostBudget,
}

/// Verifies a program against the paper's default resource limits.
#[must_use]
pub fn verify(program: &Program) -> Report {
    verify_with_options(program, &VerifyOptions::default())
}

/// Verifies a program against explicit resource limits.
#[must_use]
pub fn verify_with_limits(program: &Program, limits: &ResourceLimits) -> Report {
    verify_with_options(
        program,
        &VerifyOptions {
            limits: *limits,
            budget: CostBudget::default(),
        },
    )
}

/// Verifies a program with explicit resource limits and cost budget.
#[must_use]
pub fn verify_with_options(program: &Program, options: &VerifyOptions) -> Report {
    let mut report = Report::new(&program.name);
    let (sites, final_shape) = shape::analyze(program, &options.limits, &mut report);
    codes::run(&sites, &mut report);
    noise::run(program, &mut report);
    signal::run(program, &sites, &mut report, false);
    resources::run(program, &sites, final_shape, &options.limits, &mut report);
    cost::run(program, &sites, final_shape, &options.budget, &mut report);
    report.normalize();
    report
}

/// Verifies a program and additionally checks that it conforms to the
/// network spec it claims to implement.
#[must_use]
pub fn verify_against_spec(
    program: &Program,
    spec: &NetworkSpec,
    limits: &ResourceLimits,
) -> Report {
    let mut report = verify_with_limits(program, limits);
    conformance::run(program, spec, &mut report);
    report.normalize();
    report
}

/// Computes the static per-frame cost bounds for a program, or `None` when
/// the cost is not statically derivable (shape errors, inadmissible ADC
/// depth). The nominal point equals a `FrameEngine` ledger exactly; the
/// bounds bracket it over all process corners.
#[must_use]
pub fn analyze_cost(program: &Program) -> Option<CostBounds> {
    let mut scratch = Report::new(&program.name);
    let (sites, final_shape) = shape::analyze(program, &ResourceLimits::default(), &mut scratch);
    cost::compute(program, &sites, final_shape)
}

/// Computes the per-instruction signal envelope table (the `--ranges`
/// view): one row per instruction the signal dataflow reaches, in
/// depth-first program order, in volts at the analog swing.
#[must_use]
pub fn analyze_ranges(program: &Program) -> Vec<RangeSummary> {
    let mut scratch = Report::new(&program.name);
    let (sites, _) = shape::analyze(program, &ResourceLimits::default(), &mut scratch);
    signal::run(program, &sites, &mut scratch, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_analog::SnrDb;

    fn conv(name: &str, in_c: usize, out_c: usize, kernel: usize, snr: f64) -> Instruction {
        Instruction::Conv {
            name: name.into(),
            out_c,
            kernel,
            stride: 1,
            pad: kernel / 2,
            relu: true,
            codes: vec![1; out_c * in_c * kernel * kernel],
            scale: 1.0 / 128.0,
            bias: vec![0.0; out_c],
            snr: SnrDb::new(snr),
        }
    }

    fn small_program() -> Program {
        Program::new(
            "unit",
            [3, 16, 16],
            vec![
                conv("conv1", 3, 8, 3, 55.0),
                Instruction::MaxPool {
                    name: "pool1".into(),
                    window: 2,
                    stride: 2,
                    pad: 0,
                },
                conv("conv2", 8, 4, 3, 50.0),
            ],
            8,
        )
    }

    #[test]
    fn well_formed_program_is_clean() {
        let report = verify(&small_program());
        assert!(
            !report.has_errors() && !report.has_warnings(),
            "unexpected diagnostics:\n{report}"
        );
    }

    #[test]
    fn shape_break_cuts_dataflow_and_notes_unreachable() {
        let mut p = small_program();
        // An unpadded 64x64 kernel cannot apply to a 16x16 input.
        p.instructions[0] = conv("conv1", 3, 8, 64, 55.0);
        if let Instruction::Conv { pad, .. } = &mut p.instructions[0] {
            *pad = 0;
        }
        let report = verify(&p);
        assert!(report.has_errors());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"RE0101"), "got {codes:?}");
        assert!(codes.contains(&"RE0105"), "got {codes:?}");
    }

    #[test]
    fn out_of_range_code_is_flagged() {
        let mut p = small_program();
        if let Instruction::Conv { codes, .. } = &mut p.instructions[0] {
            codes[0] = 999;
        }
        let report = verify(&p);
        assert!(report
            .errors()
            .any(|d| d.code == "RE0201" && d.layer.as_deref() == Some("conv1")));
    }

    #[test]
    fn inadmissible_snr_is_an_error_and_off_band_a_warning() {
        let mut p = small_program();
        p.instructions[0] = conv("conv1", 3, 8, 3, f64::NAN);
        p.instructions[2] = conv("conv2", 8, 4, 3, 20.0);
        let report = verify(&p);
        assert!(report.errors().any(|d| d.code == "RE0301"));
        assert!(report.warnings().any(|d| d.code == "RE0302"));
    }

    #[test]
    fn wasted_snr_budget_warns() {
        let mut p = small_program();
        // conv2 asks for a tighter noise budget than conv1 already allowed.
        p.instructions[0] = conv("conv1", 3, 8, 3, 42.0);
        p.instructions[2] = conv("conv2", 8, 4, 3, 58.0);
        let report = verify(&p);
        assert!(report.warnings().any(|d| d.code == "RE0303"));
    }

    #[test]
    fn adc_depth_checked_against_sar() {
        let mut p = small_program();
        p.adc_bits = 14;
        let report = verify(&p);
        assert!(report.errors().any(|d| d.code == "RE0304"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = small_program();
        p.instructions[2] = conv("conv1", 8, 4, 3, 50.0);
        let report = verify(&p);
        assert!(report
            .errors()
            .any(|d| d.code == "RE0403" && d.layer.as_deref() == Some("conv1")));
    }

    #[test]
    fn sram_overflow_rejected() {
        let has = |report: &Report, code: &str| report.diagnostics.iter().any(|d| d.code == code);
        let kernel = |bytes| ResourceLimits {
            kernel_sram_bytes: bytes,
            ..ResourceLimits::default()
        };
        let feature = |bytes| ResourceLimits {
            feature_sram_bytes: bytes,
            ..ResourceLimits::default()
        };
        assert!(has(
            &verify_with_limits(&small_program(), &kernel(64)),
            "RE0401"
        ));

        // 4 output channels of 27-code patches: one channel double-buffered
        // is a 54 B working set, which fits 54 B exactly and not 53 B.
        let p = Program::new("t", [3, 8, 8], vec![conv("c", 3, 4, 3, 40.0)], 4);
        assert_eq!(p.kernel_working_set_bytes(), 54);
        assert!(!has(&verify_with_limits(&p, &kernel(54)), "RE0401"));
        assert!(verify_with_limits(&p, &kernel(53))
            .errors()
            .any(|d| d.code == "RE0401"));

        // 2×10×10 = 200 features at 4 bits bit-pack into 100 B.
        let p = Program::new("t", [3, 10, 10], vec![conv("c", 3, 2, 3, 40.0)], 4);
        assert!(!has(&verify_with_limits(&p, &feature(100)), "RE0402"));
        assert!(has(&verify_with_limits(&p, &feature(99)), "RE0402"));
    }

    #[test]
    fn conformance_flags_parameter_drift() {
        use redeye_nn::{LayerSpec, NetworkSpec};
        let p = small_program();
        let spec = NetworkSpec::new(
            "unit",
            [3, 16, 16],
            vec![
                LayerSpec::Conv {
                    name: "conv1".into(),
                    out_c: 8,
                    kernel: 5, // program uses 3
                    stride: 1,
                    pad: 1,
                    relu: true,
                },
                LayerSpec::MaxPool {
                    name: "pool1".into(),
                    window: 2,
                    stride: 2,
                    pad: 0,
                },
                LayerSpec::Conv {
                    name: "conv2".into(),
                    out_c: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    relu: true,
                },
            ],
        );
        let report = verify_against_spec(&p, &spec, &ResourceLimits::default());
        assert!(report
            .errors()
            .any(|d| d.code == "RE0503" && d.layer.as_deref() == Some("conv1")));
    }
}
