//! Pass 3 — noise-admission feasibility.
//!
//! Each analog layer's programmed SNR must lie inside the damping circuit's
//! physically admissible band, and the readout bit depth must be realizable
//! by the SAR array. Beyond hard admissibility, the pass warns about *wasted
//! energy*: a layer whose SNR budget is tighter (higher) than what its
//! upstream producers already limited the signal to burns damping
//! capacitance (E ∝ 1/V̄n²) without improving output fidelity, and an ADC
//! bit depth far finer than the chain SNR burns conversion energy (E ∝ 2ⁿ)
//! digitizing noise.
//!
//! Runs on the shared [`crate::dataflow`] engine with the minimum upstream
//! SNR (in dB) as the abstract state; the inception join takes the minimum
//! over branch exits, since the concatenated output is only as clean as its
//! noisiest branch.

use crate::dataflow::{self, Ctx, ForwardAnalysis};
use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::{Instruction, Program};
use redeye_analog::{
    resolution_admissible, snr_admissible, snr_in_tunable_band, SnrDb, MAX_RESOLUTION,
    SNR_ADMISSIBLE_MAX, SNR_ADMISSIBLE_MIN, SNR_TUNABLE_MAX, SNR_TUNABLE_MIN,
};

/// Hysteresis before an SNR step-up is reported as wasted energy.
const WASTE_MARGIN_DB: f64 = 0.5;

/// Headroom before the ADC is reported as over-resolved vs. the chain SNR
/// (12 dB ≈ two SAR bits).
const ADC_HEADROOM_DB: f64 = 12.0;

fn diag(severity: Severity, code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(severity, DiagClass::NoiseAdmission, code, message)
}

pub(crate) fn run(program: &Program, report: &mut Report) {
    let mut analysis = NoiseAnalysis;
    // The noise pass never cuts; were it to, infinity (no noisy layer
    // upstream) skips the readout check rather than panicking.
    let min_upstream =
        dataflow::run(program, Some(f64::INFINITY), &mut analysis, report).unwrap_or(f64::INFINITY);

    let bits = program.adc_bits;
    if resolution_admissible(bits) {
        // Ideal n-bit quantization SNR: 6.02·n + 1.76 dB.
        let quant_snr = 6.02 * f64::from(bits) + 1.76;
        if min_upstream.is_finite() && quant_snr > min_upstream + ADC_HEADROOM_DB {
            report.push(diag(
                Severity::Warning,
                "RE0305",
                format!(
                    "{bits}-bit readout quantizes at ≈{quant_snr:.1} dB but the analog chain is \
                     already limited to ≈{min_upstream:.1} dB; conversion energy (E ∝ 2^n) is \
                     spent digitizing noise"
                ),
            ));
        }
    } else {
        report.push(diag(
            Severity::Error,
            "RE0304",
            format!(
                "ADC bit depth {bits} outside the SAR array's 1..={MAX_RESOLUTION} range \
                 (MSB-cutting can only remove capacitors)"
            ),
        ));
    }
}

/// State: the minimum SNR (dB) any upstream producer has limited the signal
/// to; `f64::INFINITY` before the first noisy stage.
struct NoiseAnalysis;

impl ForwardAnalysis<'_> for NoiseAnalysis {
    type State = f64;

    fn transfer(
        &mut self,
        inst: &Instruction,
        state: &f64,
        ctx: &Ctx<'_>,
        report: &mut Report,
    ) -> Option<f64> {
        match inst.snr() {
            Some(snr) => Some(check_layer(inst.name(), snr, *state, ctx.path, report)),
            // The comparator selects, it does not re-damp: SNR flows through.
            None => Some(*state),
        }
    }

    fn join(
        &mut self,
        _inst: &Instruction,
        state: &f64,
        exits: &[Option<f64>],
        _ctx: &Ctx<'_>,
        _report: &mut Report,
    ) -> Option<f64> {
        let merged = exits
            .iter()
            .flatten()
            .fold(f64::INFINITY, |acc, &e| acc.min(e));
        if merged.is_finite() {
            Some(merged)
        } else {
            Some(*state)
        }
    }
}

fn check_layer(
    name: &str,
    snr: SnrDb,
    min_upstream: f64,
    path: &[usize],
    report: &mut Report,
) -> f64 {
    if !snr_admissible(snr) {
        report.push(
            diag(
                Severity::Error,
                "RE0301",
                format!(
                    "layer `{name}` programs {snr} outside the damping circuit's admissible \
                     [{}, {}] band",
                    SNR_ADMISSIBLE_MIN, SNR_ADMISSIBLE_MAX
                ),
            )
            .at_layer(name)
            .at_path(path),
        );
        return min_upstream;
    }
    if !snr_in_tunable_band(snr) {
        report.push(
            diag(
                Severity::Warning,
                "RE0302",
                format!(
                    "layer `{name}` programs {snr} outside the Table I tunable damping band \
                     [{}, {}]",
                    SNR_TUNABLE_MIN, SNR_TUNABLE_MAX
                ),
            )
            .at_layer(name)
            .at_path(path),
        );
    }
    if snr.db() > min_upstream + WASTE_MARGIN_DB {
        report.push(
            diag(
                Severity::Warning,
                "RE0303",
                format!(
                    "layer `{name}` runs at {snr} but an upstream producer already limits the \
                     signal to ≈{min_upstream:.1} dB",
                ),
            )
            .at_layer(name)
            .at_path(path)
            .with_note(
                "the looser upstream budget caps end-to-end fidelity; the extra damping \
                 capacitance here burns energy (E ∝ 1/V̄n²) without buying accuracy",
            ),
        );
    }
    min_upstream.min(snr.db())
}
