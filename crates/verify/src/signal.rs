//! Pass 6 — signal-range / saturation analysis (RE06xx).
//!
//! Abstract-interprets the analog signal chain over an *interval-with-noise*
//! domain: each dataflow edge carries the worst-case per-value envelope
//! `[lo, hi]` (in units of the capture full-scale, so the raw pixel input is
//! `[0, 1]` and one unit maps onto the 0.9 V swing), the worst-case
//! accumulated noise sigma, and whether every value on the edge is provably
//! clamped non-negative (post-ReLU). Transfer functions follow the
//! behavioral models in `redeye-analog`:
//!
//! - **conv/MAC** (`tunable_cap.rs`, `calib.rs`): per-output-channel
//!   interval arithmetic over the signed DAC codes (`w = code · scale`),
//!   plus the damping stage's relative noise `10^(−SNR/20)`
//!   (`damping.rs`) and the MAC op amp's input-referred noise. Upstream
//!   sigma is amplified by the worst-case absolute row gain `Σ|w|`.
//! - **max-pool** (comparator): selects one of its taps — envelope, sigma,
//!   and clamping all flow through unchanged.
//! - **avg-pool / LRN**: keep (avg) or rescale (LRN, bounded by `k^−β`)
//!   the envelope, then add their own damping-stage noise; their outputs
//!   are *not* clamped, which matters at the readout.
//! - **SAR readout** (`sar.rs`): the readout clamps at the 0 V rail
//!   (`max(0)` before conversion), so a program whose final envelope can
//!   go negative clips there.
//!
//! The executor's gain staging normalizes each stage to the swing, so
//! absolute-magnitude rails are not the failure mode — provable *sign*
//! collapse and noise domination are:
//!
//! - `RE0601` (error): a ReLU conv whose pre-activation envelope is
//!   entirely negative — every output provably pinned at the rail.
//! - `RE0602` (error): the readout envelope is entirely below the 0 V
//!   rail — every feature quantizes to code 0.
//! - `RE0603` (warning): the readout envelope straddles the rail —
//!   negative excursions clip during SAR conversion.
//! - `RE0604` (warning): the envelope is non-negative but unclamped noise
//!   can push samples below the rail.
//! - `RE0605` (warning): a conv output is provably constant.
//! - `RE0606` (warning): accumulated noise sigma meets or exceeds the
//!   signal envelope at the readout.
//! - `RE0607` (error): LRN normalization parameters make the envelope
//!   unbounded or undefined.
//! - `RE0608` (error): a conv's worst-case envelope can overflow the f32
//!   signal power (`amp² · out_len > f32::MAX`), which would leave the
//!   layer noise σ infinite.

use crate::dataflow::{self, Ctx, ForwardAnalysis};
use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::shape::Site;
use crate::{Instruction, Program};
use redeye_analog::calib::{MAC_OPAMP_INPUT_NOISE, SWING};
use serde::Serialize;
use std::collections::HashMap;

/// The abstract value: worst-case per-value envelope in capture full-scale
/// units, accumulated noise sigma, and provable non-negativity.
#[derive(Debug, Clone)]
struct SignalState {
    /// Envelope lower bound.
    lo: f64,
    /// Envelope upper bound.
    hi: f64,
    /// Worst-case accumulated (unclamped) noise sigma.
    sigma: f64,
    /// Every value provably ≥ 0 (post-ReLU, or noiseless non-negative).
    clamped: bool,
}

/// One row of the `--ranges` table: the signal envelope *after* an
/// instruction, in volts at the analog swing.
#[derive(Debug, Clone, Serialize)]
pub struct RangeSummary {
    /// Instruction (layer) name.
    pub layer: String,
    /// Instruction index path into the program.
    pub path: Vec<usize>,
    /// Depth-first stage ordinal (executor noise-stream numbering).
    pub ordinal: usize,
    /// Envelope lower bound in volts.
    pub lo_volts: f64,
    /// Envelope upper bound in volts.
    pub hi_volts: f64,
    /// Worst-case accumulated noise sigma in volts.
    pub sigma_volts: f64,
}

fn volts(units: f64) -> f64 {
    units * SWING.value()
}

fn diag(severity: Severity, code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(severity, DiagClass::SignalRange, code, message)
}

/// Runs the pass over the shape pass's `sites`, emitting RE06xx
/// diagnostics. When `collect` is set, also returns the per-instruction
/// envelope table for `--ranges`.
pub(crate) fn run(
    program: &Program,
    sites: &[Site<'_>],
    report: &mut Report,
    collect: bool,
) -> Vec<RangeSummary> {
    let mut analysis = SignalAnalysis {
        summaries: Vec::new(),
        collect,
        out_lens: sites
            .iter()
            .filter_map(|s| {
                let [c, h, w] = s.out_shape?;
                Some((s.path.clone(), c as f64 * h as f64 * w as f64))
            })
            .collect(),
        // Input-referred MAC amplifier noise, normalized to the swing.
        opamp_noise: MAC_OPAMP_INPUT_NOISE.value() / SWING.value(),
    };
    // Raw pixels: non-negative, noiseless, spanning the capture full-scale.
    let start = SignalState {
        lo: 0.0,
        hi: 1.0,
        sigma: 0.0,
        clamped: true,
    };
    let exit = dataflow::run(program, Some(start), &mut analysis, report);
    if let Some(s) = exit {
        check_readout(&s, report);
    }
    analysis.summaries
}

/// Readout checks: the SAR conversion clamps at the 0 V rail
/// (`value.max(0)` before quantization), so sign structure at the program
/// exit decides whether clipping can occur.
fn check_readout(s: &SignalState, report: &mut Report) {
    if s.hi < 0.0 {
        report.push(
            diag(
                Severity::Error,
                "RE0602",
                format!(
                    "readout envelope [{:.3}, {:.3}] V is entirely below the 0 V rail; every \
                     feature clips to code 0 during SAR conversion",
                    volts(s.lo),
                    volts(s.hi)
                ),
            )
            .with_note(
                "the SAR quantizer clamps negative samples at the lower rail; the program's \
                 output is provably all-zero",
            ),
        );
    } else if s.lo < 0.0 {
        report.push(
            diag(
                Severity::Warning,
                "RE0603",
                format!(
                    "readout envelope [{:.3}, {:.3}] V extends below the 0 V rail; negative \
                     excursions clip during SAR conversion",
                    volts(s.lo),
                    volts(s.hi)
                ),
            )
            .with_note(
                "end the program with a ReLU stage or re-bias the final layer if negative \
                 values carry information",
            ),
        );
    } else if !s.clamped && s.sigma > 0.0 {
        report.push(
            diag(
                Severity::Warning,
                "RE0604",
                format!(
                    "readout envelope [{:.3}, {:.3}] V is non-negative but ≈{:.4} V of \
                     unclamped noise can push samples below the 0 V rail",
                    volts(s.lo),
                    volts(s.hi),
                    volts(s.sigma)
                ),
            )
            .with_note(
                "the final analog stage adds noise after the last rectification; sub-rail \
                 samples clip during SAR conversion",
            ),
        );
    }
    let amp = s.lo.abs().max(s.hi.abs());
    if amp > 0.0 && s.sigma >= amp {
        report.push(
            diag(
                Severity::Warning,
                "RE0606",
                format!(
                    "worst-case accumulated noise σ ≈ {:.3} V meets or exceeds the signal \
                     envelope ±{:.3} V at the readout",
                    volts(s.sigma),
                    volts(amp)
                ),
            )
            .with_note(
                "the chain's damping budgets leave no provable signal margin; raise per-layer \
                 SNR or shorten the analog chain",
            ),
        );
    }
}

struct SignalAnalysis {
    summaries: Vec<RangeSummary>,
    collect: bool,
    /// Output element count of each site whose shape is known, by path.
    out_lens: HashMap<Vec<usize>, f64>,
    opamp_noise: f64,
}

impl SignalAnalysis {
    fn record(&mut self, inst: &Instruction, ctx: &Ctx<'_>, s: &SignalState) {
        if self.collect {
            self.summaries.push(RangeSummary {
                layer: inst.name().to_string(),
                path: ctx.path.to_vec(),
                ordinal: ctx.ordinal,
                lo_volts: volts(s.lo),
                hi_volts: volts(s.hi),
                sigma_volts: volts(s.sigma),
            });
        }
    }

    /// The damping stage's relative noise for a layer envelope of amplitude
    /// `amp`: `σ = amp · 10^(−SNR/20)` plus the MAC amplifier's
    /// input-referred term. Zero-amplitude stages add nothing (the executor
    /// skips noise injection entirely on all-zero signals).
    fn stage_sigma(&self, amp: f64, snr: redeye_analog::SnrDb) -> f64 {
        if amp <= 0.0 {
            return 0.0;
        }
        let rel = if snr.db().is_finite() {
            1.0 / snr.amplitude_ratio()
        } else {
            0.0
        };
        amp * rel + self.opamp_noise
    }
}

impl<'p> ForwardAnalysis<'p> for SignalAnalysis {
    type State = SignalState;

    fn transfer(
        &mut self,
        inst: &'p Instruction,
        state: &SignalState,
        ctx: &Ctx<'_>,
        report: &mut Report,
    ) -> Option<SignalState> {
        let out = match inst {
            Instruction::Conv {
                name,
                out_c,
                relu,
                codes,
                scale,
                bias,
                snr,
                ..
            } => {
                // Degenerate weight layouts are the shape/code passes' to
                // report; the interval just stops here.
                if *out_c == 0
                    || codes.is_empty()
                    || codes.len() % *out_c != 0
                    || bias.len() != *out_c
                    || !scale.is_finite()
                    || bias.iter().any(|b| !b.is_finite())
                {
                    return None;
                }
                let patch = codes.len() / *out_c;
                let scale = f64::from(*scale);
                let (mut lo_out, mut hi_out) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut gain = 0.0f64;
                for (k, row) in codes.chunks_exact(patch).enumerate() {
                    let b = f64::from(bias[k]);
                    let (mut lo_k, mut hi_k, mut g_k) = (b, b, 0.0f64);
                    for &code in row {
                        let w = f64::from(code) * scale;
                        let (a, b) = (w * state.lo, w * state.hi);
                        lo_k += a.min(b);
                        hi_k += a.max(b);
                        g_k += w.abs();
                    }
                    lo_out = lo_out.min(lo_k);
                    hi_out = hi_out.max(hi_k);
                    gain = gain.max(g_k);
                }
                let amp = lo_out.abs().max(hi_out.abs());
                let out_len = self.out_lens.get(ctx.path).copied().unwrap_or(0.0);
                if amp * amp * out_len > f64::from(f32::MAX) {
                    report.push(
                        diag(
                            Severity::Error,
                            "RE0608",
                            format!(
                                "conv `{name}` worst-case output envelope ±{amp:.3e} over \
                                 {out_len} values can overflow the f32 signal power"
                            ),
                        )
                        .at_layer(name)
                        .at_path(ctx.path)
                        .with_note(
                            "the layer noise σ is the output's rms; an overflowing power makes \
                             it infinite and the frame fails; lower the weight scale",
                        ),
                    );
                    return None;
                }
                let sigma = state.sigma * gain + self.stage_sigma(amp, *snr);
                if *relu && hi_out < 0.0 {
                    report.push(
                        diag(
                            Severity::Error,
                            "RE0601",
                            format!(
                                "conv `{name}` worst-case pre-activation envelope \
                                 [{:.3}, {:.3}] V is entirely negative; ReLU pins every \
                                 output at the 0 V rail",
                                volts(lo_out),
                                volts(hi_out)
                            ),
                        )
                        .at_layer(name)
                        .at_path(ctx.path)
                        .with_note(
                            "the layer output is provably zero for every input; everything \
                             downstream computes on a dead signal",
                        ),
                    );
                    Some(SignalState {
                        lo: 0.0,
                        hi: 0.0,
                        sigma: 0.0,
                        clamped: true,
                    })
                } else {
                    let (lo, hi, clamped) = if *relu {
                        (lo_out.max(0.0), hi_out.max(0.0), true)
                    } else {
                        (lo_out, hi_out, false)
                    };
                    if lo == hi {
                        report.push(
                            diag(
                                Severity::Warning,
                                "RE0605",
                                format!(
                                    "conv `{name}` output is provably constant at {:.3} V \
                                     regardless of the input",
                                    volts(lo)
                                ),
                            )
                            .at_layer(name)
                            .at_path(ctx.path)
                            .with_note(
                                "no weight row contributes net swing; the layer carries no \
                                 information",
                            ),
                        );
                    }
                    Some(SignalState {
                        lo,
                        hi,
                        sigma,
                        clamped,
                    })
                }
            }
            // The comparator selects one of its taps: envelope, sigma, and
            // clamping all flow through.
            Instruction::MaxPool { .. } => Some(state.clone()),
            Instruction::AvgPool { snr, .. } => {
                let amp = state.lo.abs().max(state.hi.abs());
                let added = self.stage_sigma(amp, *snr);
                Some(SignalState {
                    lo: state.lo,
                    hi: state.hi,
                    sigma: state.sigma + added,
                    clamped: state.clamped && added == 0.0,
                })
            }
            Instruction::Lrn {
                name,
                alpha,
                beta,
                k,
                snr,
                ..
            } => {
                if !k.is_finite()
                    || !alpha.is_finite()
                    || !beta.is_finite()
                    || *k <= 0.0
                    || *alpha < 0.0
                    || *beta < 0.0
                {
                    report.push(
                        diag(
                            Severity::Error,
                            "RE0607",
                            format!(
                                "LRN `{name}` normalization (k = {k}, α = {alpha}, β = {beta}) \
                                 makes the signal envelope unbounded or undefined"
                            ),
                        )
                        .at_layer(name)
                        .at_path(ctx.path)
                        .with_note(
                            "the divisor (k + α·Σx²)^β must be positive and bounded away from \
                             zero: require k > 0, α ≥ 0, β ≥ 0",
                        ),
                    );
                    return None;
                }
                // Divisor ≥ k^β, so the multiplier is bounded by k^−β and
                // the output keeps the input's sign.
                let m = f64::from(*k).powf(f64::from(-*beta));
                let lo = (state.lo * m).min(0.0);
                let hi = (state.hi * m).max(0.0);
                let amp = lo.abs().max(hi.abs());
                let added = self.stage_sigma(amp, *snr);
                Some(SignalState {
                    lo,
                    hi,
                    sigma: state.sigma * m + added,
                    clamped: state.clamped && added == 0.0,
                })
            }
            // Cannot fire: the dataflow engine sends inceptions to `join`.
            Instruction::Inception { .. } => unreachable!("engine routes inception through join"),
        };
        if let Some(s) = &out {
            self.record(inst, ctx, s);
        }
        out
    }

    fn join(
        &mut self,
        inst: &'p Instruction,
        state: &SignalState,
        exits: &[Option<SignalState>],
        ctx: &Ctx<'_>,
        _report: &mut Report,
    ) -> Option<SignalState> {
        // Channel concatenation: the combined envelope is the per-branch
        // hull; any cut branch leaves the concatenation unbounded.
        if exits.is_empty() || exits.iter().any(Option::is_none) {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sigma = 0.0f64;
        let mut clamped = true;
        for e in exits.iter().flatten() {
            lo = lo.min(e.lo);
            hi = hi.max(e.hi);
            sigma = sigma.max(e.sigma);
            clamped &= e.clamped;
        }
        let _ = state;
        let out = SignalState {
            lo,
            hi,
            sigma,
            clamped,
        };
        self.record(inst, ctx, &out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_analog::SnrDb;

    fn analysis() -> SignalAnalysis {
        SignalAnalysis {
            summaries: Vec::new(),
            collect: false,
            out_lens: HashMap::new(),
            opamp_noise: MAC_OPAMP_INPUT_NOISE.value() / SWING.value(),
        }
    }

    #[test]
    fn stage_sigma_adds_the_mac_amplifiers_input_referred_noise() {
        let a = analysis();
        // The MAC op amp's input-referred noise is 0.2 mV, whatever the
        // damping setting: with no damping noise it is the whole stage.
        let floor = volts(a.stage_sigma(1.0, SnrDb::new(f64::INFINITY)));
        assert!((floor - 2e-4).abs() < 1e-15, "op-amp floor {floor} V");
        // At 40 dB the damping stage adds 1% of the envelope on top.
        let at_40 = a.stage_sigma(0.5, SnrDb::new(40.0));
        assert!((at_40 - (0.005 + 2e-4 / 0.9)).abs() < 1e-15, "{at_40}");
        // A zero envelope adds nothing: the executor skips all-zero signals.
        assert_eq!(a.stage_sigma(0.0, SnrDb::new(40.0)), 0.0);
    }
}
