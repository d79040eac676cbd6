//! Pass 2 — DAC/code range.
//!
//! Every convolution's weight codes must be representable by the 8-bit
//! signed fixed-point tunable-capacitor DAC (§IV-A), its dequantization
//! scale and biases must be finite, and the code/bias buffer lengths must
//! agree with the layer geometry the shape pass inferred.

use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::shape::Site;
use crate::Instruction;
use redeye_analog::{max_signed_code, DAC_WEIGHT_BITS};

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Error, DiagClass::CodeRange, code, message)
}

pub(crate) fn run(sites: &[Site<'_>], report: &mut Report) {
    let limit = max_signed_code(DAC_WEIGHT_BITS);
    for site in sites {
        let Instruction::Conv {
            name,
            out_c,
            kernel,
            codes,
            scale,
            bias,
            ..
        } = site.inst
        else {
            continue;
        };
        let out_of_range: Vec<i32> = codes.iter().copied().filter(|c| c.abs() > limit).collect();
        if let Some(&worst) = out_of_range.iter().max_by_key(|c| c.abs()) {
            report.push(
                err(
                    "RE0201",
                    format!(
                        "conv `{name}`: {} weight code(s) outside the {DAC_WEIGHT_BITS}-bit DAC \
                         range [-{limit}, {limit}] (worst: {worst})",
                        out_of_range.len()
                    ),
                )
                .at_layer(name)
                .at_path(&site.path)
                .with_note("codes are applied by the tunable-capacitor DAC and cannot be clamped"),
            );
        }
        if !scale.is_finite() || *scale <= 0.0 {
            report.push(
                err(
                    "RE0204",
                    format!("conv `{name}`: dequantization scale {scale} is not a positive finite value"),
                )
                .at_layer(name)
                .at_path(&site.path),
            );
        }
        if bias.len() != *out_c {
            report.push(
                err(
                    "RE0203",
                    format!(
                        "conv `{name}`: bias length {} does not match {out_c} output channels",
                        bias.len()
                    ),
                )
                .at_layer(name)
                .at_path(&site.path),
            );
        } else if bias.iter().any(|b| !b.is_finite()) {
            report.push(
                err(
                    "RE0204",
                    format!("conv `{name}`: bias contains a non-finite value"),
                )
                .at_layer(name)
                .at_path(&site.path),
            );
        }
        if let Some([in_c, _, _]) = site.in_shape {
            let patch = in_c.saturating_mul(*kernel).saturating_mul(*kernel);
            if out_c.checked_mul(patch) != Some(codes.len()) {
                report.push(
                    err(
                        "RE0202",
                        format!(
                            "conv `{name}`: {} weight codes do not cover {out_c} channels x \
                             {patch}-element patches ({in_c}x{kernel}x{kernel} input window)",
                            codes.len()
                        ),
                    )
                    .at_layer(name)
                    .at_path(&site.path),
                );
            }
        }
    }
}
