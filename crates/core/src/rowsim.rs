//! Row-timestep timing simulation of the column array (§III-B-3).
//!
//! "By adopting a column-based topology, we advance the processing window
//! by one row at a time, controlled by a clocked timestep, allowing
//! multiple modules to simultaneously operate in parallel."
//!
//! This module simulates a program pass-by-pass and row-by-row, charging
//! each output row the column-parallel work it needs. It exposes the one
//! mapping decision the paper leaves implicit: how a layer's work spreads
//! over the 227 column slices.
//!
//! - [`ColumnMapping::Spatial`] pins each output *x* position to its own
//!   column (the naïve reading of column-parallelism). Deep layers have
//!   narrow planes (14 wide) and leave ≥93% of the array idle.
//! - [`ColumnMapping::ChannelSpread`] additionally distributes output
//!   *channels* across idle columns over the horizontal bridge
//!   interconnects, keeping the array busy. This is the mapping under
//!   which GoogLeNet Depth5 meets the paper's 32 ms frame time, and it is
//!   what the analytic estimator assumes — the two agree exactly whenever
//!   the array saturates (tested).

use crate::{Instruction, Program, Result};
use redeye_analog::calib::{
    COLUMN_COUNT, COMPARATOR_DECISION_TIME, MAC_SETTLE_TIME_40DB, SAR_BIT_TIME,
};
use redeye_analog::Seconds;
use redeye_nn::OpCounts;
use serde::{Deserialize, Serialize};

/// How a pass's work maps onto the column array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnMapping {
    /// One output x position per column; idle columns stay idle.
    Spatial,
    /// Output channels spread over idle columns via the horizontal
    /// interconnects (full-array utilization whenever work suffices).
    ChannelSpread,
}

/// Timing of one cyclic pass at row granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassTiming {
    /// Layer realized by this pass.
    pub layer: String,
    /// The op table's counts for this pass (all zero for the readout).
    pub counts: OpCounts,
    /// Output rows produced.
    pub rows: usize,
    /// Columns doing work during the pass.
    pub active_columns: usize,
    /// Wall-clock time per output row.
    pub row_time: Seconds,
    /// Total pass duration.
    pub duration: Seconds,
}

/// Whole-frame row-simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSimReport {
    /// Mapping simulated.
    pub mapping: ColumnMapping,
    /// Per-pass timings, in execution order (readout last).
    pub passes: Vec<PassTiming>,
}

impl RowSimReport {
    /// Total frame time.
    pub fn frame_time(&self) -> Seconds {
        self.passes.iter().map(|p| p.duration).sum()
    }

    /// Mean column utilization, time-weighted.
    pub fn utilization(&self) -> f64 {
        let total = self.frame_time().value();
        if total == 0.0 {
            return 0.0;
        }
        self.passes
            .iter()
            .map(|p| p.duration.value() * p.active_columns as f64 / COLUMN_COUNT as f64)
            .sum::<f64>()
            / total
    }
}

/// Work of one pass: the op table's counts plus SAR bit conversions (the
/// readout pass), over the output geometry.
struct PassWork {
    layer: String,
    counts: OpCounts,
    sar_bits: u64,
    rows: usize,
    width: usize,
}

fn collect_work(inst: &Instruction, shape: &mut [usize; 3], out: &mut Vec<PassWork>) -> Result<()> {
    if let Some(op) = inst.op() {
        let (next, counts) = op.apply(*shape)?;
        out.push(PassWork {
            layer: inst.name().into(),
            counts,
            sar_bits: 0,
            rows: next[1],
            width: next[2],
        });
        *shape = next;
    } else if let Instruction::Inception { branches, .. } = inst {
        let in_shape = *shape;
        let mut out_c = 0usize;
        let mut hw = (in_shape[1], in_shape[2]);
        for branch in branches {
            let mut bshape = in_shape;
            for inst in branch {
                collect_work(inst, &mut bshape, out)?;
            }
            out_c += bshape[0];
            hw = (bshape[1], bshape[2]);
        }
        *shape = [out_c, hw.0, hw.1];
    }
    Ok(())
}

/// Simulates a program's frame at row granularity under a column mapping.
///
/// # Example
///
/// ```
/// use redeye_core::rowsim::{simulate_rows, ColumnMapping};
/// use redeye_core::{compile, CompileOptions, WeightBank};
/// use redeye_nn::{build_network, zoo, WeightInit};
/// use redeye_tensor::Rng;
///
/// # fn main() -> Result<(), redeye_core::CoreError> {
/// let spec = zoo::micronet(4, 10);
/// let prefix = spec.prefix_through("pool2").expect("cut exists");
/// let mut rng = Rng::seed_from(1);
/// let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng)?;
/// let mut bank = WeightBank::from_network(&mut net);
/// let program = compile(&prefix, &mut bank, &CompileOptions::default())?;
///
/// let report = simulate_rows(&program, ColumnMapping::ChannelSpread)?;
/// assert!(report.frame_time().value() > 0.0);
/// assert!(report.utilization() <= 1.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`crate::CoreError`] geometry errors if the program's shapes
/// is inconsistent.
pub fn simulate_rows(program: &Program, mapping: ColumnMapping) -> Result<RowSimReport> {
    let mut shape = program.input;
    let mut work = Vec::new();
    for inst in &program.instructions {
        collect_work(inst, &mut shape, &mut work)?;
    }
    // Terminal readout pass: every output value through the SAR.
    let out_len = (shape[0] * shape[1] * shape[2]) as u64;
    work.push(PassWork {
        layer: "readout".into(),
        counts: OpCounts::default(),
        sar_bits: out_len * u64::from(program.adc_bits),
        rows: shape[1],
        width: shape[2],
    });

    let passes = work
        .into_iter()
        .map(|w| {
            // Each kind of work settles at its own per-op time; a pass's
            // row time is the sum over kinds, per column.
            let terms = [
                (w.counts.macs, MAC_SETTLE_TIME_40DB),
                (w.counts.comparisons, COMPARATOR_DECISION_TIME),
                (w.sar_bits, SAR_BIT_TIME),
            ]
            .map(|(ops, op_time)| ((ops as f64 / w.rows.max(1) as f64).ceil(), op_time));
            let per_row_ops: f64 = terms.iter().map(|t| t.0).sum();
            let active = match mapping {
                ColumnMapping::Spatial => w.width.clamp(1, COLUMN_COUNT),
                ColumnMapping::ChannelSpread => {
                    // Channels spread until the array saturates or the row's
                    // work runs out.
                    (per_row_ops as usize).clamp(1, COLUMN_COUNT)
                }
            };
            let row_time = terms
                .iter()
                .map(|&(per_row, op_time)| op_time * (per_row / active as f64))
                .fold(Seconds::new(0.0), |acc, t| acc + t);
            PassTiming {
                layer: w.layer,
                counts: w.counts,
                rows: w.rows,
                active_columns: active,
                duration: row_time * w.rows as f64,
                row_time,
            }
        })
        .collect();
    Ok(RowSimReport { mapping, passes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use crate::{estimate, Depth, RedEyeConfig};
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    fn googlenet_program(depth: Depth) -> Program {
        let spec = zoo::googlenet();
        let prefix = spec.prefix_through(depth.cut_layer()).unwrap();
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        compile(&prefix, &mut bank, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn channel_spread_matches_analytic_estimate() {
        // When the array saturates (GoogLeNet's big layers), the row
        // simulation must agree with the analytic model to within the
        // per-row ceil() granularity.
        let program = googlenet_program(Depth::D5);
        let report = simulate_rows(&program, ColumnMapping::ChannelSpread).unwrap();
        let est = estimate::estimate_depth(Depth::D5, &RedEyeConfig::default()).unwrap();
        let rel = (report.frame_time().value() - est.timing.frame_time().value()).abs()
            / est.timing.frame_time().value();
        assert!(rel < 0.02, "rowsim vs estimate: {rel}");
        assert!(report.utilization() > 0.95, "{}", report.utilization());
    }

    #[test]
    fn spatial_mapping_starves_deep_layers() {
        // 14-wide inception planes use 14 of 227 columns: the naïve
        // mapping misses 30 fps by a wide margin, which is why the design
        // needs the horizontal interconnects to spread work.
        let program = googlenet_program(Depth::D5);
        let spatial = simulate_rows(&program, ColumnMapping::Spatial).unwrap();
        let spread = simulate_rows(&program, ColumnMapping::ChannelSpread).unwrap();
        assert!(
            spatial.frame_time().value() > 4.0 * spread.frame_time().value(),
            "spatial {} vs spread {}",
            spatial.frame_time(),
            spread.frame_time()
        );
        assert!(spatial.utilization() < 0.5);
    }

    #[test]
    fn shallow_cut_is_less_sensitive_to_mapping() {
        // Depth1's 114-wide plane keeps half the array busy even under the
        // naïve mapping.
        let program = googlenet_program(Depth::D1);
        let spatial = simulate_rows(&program, ColumnMapping::Spatial).unwrap();
        let spread = simulate_rows(&program, ColumnMapping::ChannelSpread).unwrap();
        let ratio = spatial.frame_time().value() / spread.frame_time().value();
        assert!(ratio < 2.5, "Depth1 mapping penalty {ratio}");
    }

    #[test]
    fn report_structure_is_complete() {
        let program = googlenet_program(Depth::D2);
        let report = simulate_rows(&program, ColumnMapping::ChannelSpread).unwrap();
        // conv1, pool1, norm1, conv2_reduce, conv2, norm2, pool2 + readout.
        assert_eq!(report.passes.len(), 8);
        assert_eq!(report.passes.last().unwrap().layer, "readout");
        for pass in &report.passes {
            assert!(pass.duration.value() > 0.0, "{}", pass.layer);
            assert!(pass.active_columns <= COLUMN_COUNT);
        }
    }
}
