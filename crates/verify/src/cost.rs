//! Pass 7 — static cost model (RE07xx).
//!
//! Walks the shape pass's sites in depth-first order — the order the
//! executor runs instructions in — reads each site's op counts from the
//! analog op table ([`redeye_nn::AnalogOp`]) and charges them with
//! [`charge`] into the shared cost model ([`FrameCost`]), the same function
//! and accumulator that fill the executor's ledger. The nominal estimate
//! therefore equals a real `FrameEngine` ledger by construction (the
//! executor's charges are a pure function of the program; noise never
//! reaches the ledger).
//!
//! Around the nominal, the pass brackets the cost across every process
//! corner (`redeye_analog::ProcessCorner::ALL`) with the model's one corner
//! rule, [`FrameCost::at_corner`]: analog energy scales by the corner's
//! power factor, time by its timing factor, and the time-proportional
//! controller energy by both. The `lower ≤ nominal = ledger ≤ upper`
//! bracket is the differential contract the static-vs-dynamic test harness
//! enforces.
//!
//! Against a configurable [`CostBudget`] the pass emits:
//!
//! - `RE0701` (error): even the lower energy bound exceeds the cap.
//! - `RE0702` (warning): only the upper energy bound exceeds the cap.
//! - `RE0703` (error): even the lower frame-time bound exceeds the cap.
//! - `RE0704` (warning): only the upper frame-time bound exceeds the cap.

use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::shape::Site;
use crate::Program;
use redeye_analog::cost::FrameCost;
use redeye_analog::{Joules, ProcessCorner, SarAdc, Seconds, SnrDb};
use redeye_nn::OpCounts;
use serde::Serialize;

/// Per-frame cost caps for the RE07xx budget checks. Unset caps are not
/// checked.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct CostBudget {
    /// Maximum per-frame energy (analog + controller).
    pub max_frame_energy: Option<Joules>,
    /// Maximum per-frame latency.
    pub max_frame_time: Option<Seconds>,
}

/// One point of the static cost model: per-frame energy and latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostEstimate {
    /// Per-frame energy, controller included.
    pub energy: Joules,
    /// Per-frame latency.
    pub time: Seconds,
}

/// The static cost bounds for one program, plus the op counts they were
/// derived from (these equal the dynamic ledger's counters exactly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostBounds {
    /// Minimum over all process corners.
    pub lower: CostEstimate,
    /// The typical-typical corner — equals the dynamic ledger bit-for-bit.
    pub nominal: CostEstimate,
    /// Maximum over all process corners.
    pub upper: CostEstimate,
    /// Analog MAC operations.
    pub macs: u64,
    /// Comparator decisions.
    pub comparisons: u64,
    /// Feature SRAM writes.
    pub writes: u64,
    /// SAR conversions.
    pub conversions: u64,
    /// Digital readout volume in bits.
    pub readout_bits: u64,
}

/// The SNR a max pool's writes are charged at: the comparator has no
/// damping setting, so its writes run at the unit costs' 40 dB reference.
const POOL_WRITE_SNR: SnrDb = SnrDb::new(40.0);

/// Charges one analog instruction's op counts in the ledger's fixed order —
/// MACs, comparator decisions, writes — so the static pass and the executor
/// accumulate bit-identical ledgers. `snr` is the instruction's damping
/// setting ([`crate::Instruction::snr`]); `None` (max pooling) charges at
/// `POOL_WRITE_SNR`. The executor passes a max pool's *measured*
/// decisions, so static = dynamic still checks the comparator's schedule.
pub fn charge(cost: &mut FrameCost, counts: OpCounts, snr: Option<SnrDb>) {
    let snr = snr.unwrap_or(POOL_WRITE_SNR);
    cost.mac(counts.macs, snr);
    cost.compare(counts.comparisons);
    cost.write(counts.writes, snr);
}

fn diag(severity: Severity, code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(severity, DiagClass::CostModel, code, message)
}

/// Runs the pass: computes bounds from the shape pass's sites and checks
/// them against `budget`. Returns `None` (and emits no RE07xx diagnostics)
/// when the program's cost is not statically derivable — the shape or noise
/// passes have already reported why.
pub(crate) fn run(
    program: &Program,
    sites: &[Site<'_>],
    final_shape: Option<[usize; 3]>,
    budget: &CostBudget,
    report: &mut Report,
) -> Option<CostBounds> {
    let bounds = compute(program, sites, final_shape)?;
    if let Some(cap) = budget.max_frame_energy {
        let (lo, hi, cap_mj) = (
            bounds.lower.energy.millis(),
            bounds.upper.energy.millis(),
            cap.millis(),
        );
        if bounds.lower.energy > cap {
            report.push(
                diag(
                    Severity::Error,
                    "RE0701",
                    format!(
                        "frame energy provably exceeds the {cap_mj:.6} mJ budget: corner \
                         bounds [{lo:.6}, {hi:.6}] mJ"
                    ),
                )
                .with_note(
                    "the bounds bracket the dynamic ledger across all process corners \
                     (TT/FF/SS/FS/SF); even the most favorable corner is over budget",
                ),
            );
        } else if bounds.upper.energy > cap {
            report.push(
                diag(
                    Severity::Warning,
                    "RE0702",
                    format!(
                        "frame energy may exceed the {cap_mj:.6} mJ budget at unfavorable \
                         process corners: bounds [{lo:.6}, {hi:.6}] mJ"
                    ),
                )
                .with_note("the typical corner fits, but slow/fast-corner devices will not"),
            );
        }
    }
    if let Some(cap) = budget.max_frame_time {
        let (lo, hi, cap_ms) = (
            bounds.lower.time.millis(),
            bounds.upper.time.millis(),
            cap.millis(),
        );
        if bounds.lower.time > cap {
            report.push(
                diag(
                    Severity::Error,
                    "RE0703",
                    format!(
                        "frame latency provably exceeds the {cap_ms:.6} ms budget: corner \
                         bounds [{lo:.6}, {hi:.6}] ms"
                    ),
                )
                .with_note(
                    "column-parallel settling, comparator, and SAR time alone exceed the cap \
                     at every process corner",
                ),
            );
        } else if bounds.upper.time > cap {
            report.push(
                diag(
                    Severity::Warning,
                    "RE0704",
                    format!(
                        "frame latency may exceed the {cap_ms:.6} ms budget at unfavorable \
                         process corners: bounds [{lo:.6}, {hi:.6}] ms"
                    ),
                )
                .with_note("the typical corner fits, but slow-corner devices will not"),
            );
        }
    }
    Some(bounds)
}

/// Charges the program's sites through the shared cost model in executor
/// order, then brackets the nominal point over the process corners.
pub(crate) fn compute(
    program: &Program,
    sites: &[Site<'_>],
    final_shape: Option<[usize; 3]>,
) -> Option<CostBounds> {
    let out_shape = final_shape?;
    let adc = SarAdc::new(program.adc_bits).ok()?;
    // The executor parallelizes across the *input width* worth of column
    // slices (gain staging maps the image onto the array).
    let mut cost = FrameCost::new(program.input[2]);

    // Sites are in depth-first visit order — the order the executor runs
    // (and charges) instructions in, so the accumulation below reproduces
    // the ledger exactly.
    for site in sites {
        let in_shape = site.in_shape?;
        // Inception has no op of its own: its branches charge themselves.
        let Some(op) = site.inst.op() else { continue };
        // A site the shape pass rejected (zero output channels) has no cost.
        site.out_shape?;
        let (_, counts) = op.apply(in_shape).ok()?;
        charge(&mut cost, counts, site.inst.snr());
    }

    // The SAR readout of the final feature map.
    cost.convert(&adc, (out_shape[0] * out_shape[1] * out_shape[2]) as u64);

    let (ledger, time) = cost.finish();
    let nominal = CostEstimate {
        energy: ledger.total(),
        time,
    };
    let (mut lower, mut upper) = (nominal, nominal);
    for corner in ProcessCorner::ALL {
        let (at, timing) = cost.at_corner(corner);
        let (energy, time) = (at.total(), timing.frame_time());
        lower = CostEstimate {
            energy: lower.energy.min(energy),
            time: lower.time.min(time),
        };
        upper = CostEstimate {
            energy: upper.energy.max(energy),
            time: upper.time.max(time),
        };
    }
    Some(CostBounds {
        lower,
        nominal,
        upper,
        macs: ledger.macs,
        comparisons: ledger.comparisons,
        writes: ledger.writes,
        conversions: ledger.conversions,
        readout_bits: ledger.readout_bits,
    })
}
