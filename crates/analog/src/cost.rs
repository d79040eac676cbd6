//! The per-frame cost model: one calibrated `count × unit cost` table.
//!
//! The paper's developer framework derives per-layer energy and timing from
//! operation counts and the calibrated unit costs of [`crate::calib`]
//! (§III-D, Figs. 7–10, Table I). [`FrameCost`] is that model: one charge
//! method per analog operation kind, accumulating an itemized
//! [`EnergyLedger`] and a [`TimingBreakdown`] under column parallelism
//! (§III-B). The functional executor, the static cost pass, the analytic
//! estimator and the fleet's process-corner scaling all charge through it,
//! so their numbers agree by construction.
//!
//! [`FrameCost::at_corner`] is the one process-corner rule: each analog
//! energy category scales by the corner's power factor, each time by its
//! timing factor, and the time-proportional controller energy by both.

use crate::calib::{
    COMPARATOR_DECISION_TIME, COMPARATOR_ENERGY, CONTROLLER_CLOCK_MHZ, CONTROLLER_UW_PER_MHZ,
    MAC_ENERGY_40DB, MAC_SETTLE_TIME_40DB, MEMORY_WRITE_ENERGY_40DB,
};
use crate::{DampingConfig, Joules, ProcessCorner, SarAdc, Seconds, SnrDb, Watts};
use std::fmt;

/// An itemized per-frame energy ledger, filled in by the functional executor
/// and the analytic estimator alike.
///
/// Categories mirror the paper's breakdown: analog *processing* (MAC),
/// *pooling* (comparator), *memory* (buffer-module writes), *quantization*
/// (SAR readout), and the digital *controller*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// MAC (convolution + normalization) energy.
    pub processing: Joules,
    /// Max-pool comparator energy.
    pub pooling: Joules,
    /// Analog memory (buffer module) write energy.
    pub memory: Joules,
    /// SAR ADC readout energy.
    pub quantization: Joules,
    /// Digital controller energy (reported separately, as the paper does
    /// when it "ignores the digital footprint" in sensor comparisons).
    pub controller: Joules,
    /// Multiply–accumulate operations charged.
    pub macs: u64,
    /// Comparator decisions charged.
    pub comparisons: u64,
    /// Memory writes charged.
    pub writes: u64,
    /// ADC conversions charged.
    pub conversions: u64,
    /// Bits produced by the readout.
    pub readout_bits: u64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Total analog energy (everything except the digital controller) —
    /// the quantity the paper's sensor-vs-sensor comparisons use.
    pub fn analog_total(&self) -> Joules {
        self.processing + self.pooling + self.memory + self.quantization
    }

    /// Total including the controller.
    pub fn total(&self) -> Joules {
        self.analog_total() + self.controller
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.processing += other.processing;
        self.pooling += other.pooling;
        self.memory += other.memory;
        self.quantization += other.quantization;
        self.controller += other.controller;
        self.macs += other.macs;
        self.comparisons += other.comparisons;
        self.writes += other.writes;
        self.conversions += other.conversions;
        self.readout_bits += other.readout_bits;
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processing {} | pooling {} | memory {} | quantization {} | controller {} | analog total {}",
            self.processing,
            self.pooling,
            self.memory,
            self.quantization,
            self.controller,
            self.analog_total()
        )
    }
}

/// Itemized per-frame timing under column parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingBreakdown {
    /// MAC settling time (convolution + normalization).
    pub processing: Seconds,
    /// Comparator time (max pooling).
    pub pooling: Seconds,
    /// SAR conversion time (readout).
    pub quantization: Seconds,
}

impl TimingBreakdown {
    /// Total frame time.
    pub fn frame_time(&self) -> Seconds {
        self.processing + self.pooling + self.quantization
    }

    /// Achievable frame rate.
    pub fn fps(&self) -> f64 {
        1.0 / self.frame_time().value()
    }
}

/// Controller power at the 30-fps clock (§V-D: ≈12 mW).
pub fn controller_power() -> Watts {
    Watts::new(CONTROLLER_UW_PER_MHZ * 1e-6 * CONTROLLER_CLOCK_MHZ * 1e6 / 1e6)
}

/// One frame's cost accumulator: the column count, the analog ledger, and
/// the per-category time.
///
/// Each charge method adds one operation kind's `count × unit cost`; the
/// column-parallel array runs `count / columns` operations in sequence per
/// column. [`FrameCost::finish`] adds the time-proportional controller
/// energy at the typical corner, [`FrameCost::at_corner`] at any corner.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameCost {
    columns: f64,
    ledger: EnergyLedger,
    timing: TimingBreakdown,
}

impl FrameCost {
    /// An empty frame on `columns` parallel column slices (at least one).
    pub fn new(columns: usize) -> Self {
        FrameCost {
            columns: columns.max(1) as f64,
            ledger: EnergyLedger::new(),
            timing: TimingBreakdown::default(),
        }
    }

    /// Charges `count` multiply–accumulates (convolution, normalization,
    /// average pooling) at the damping setting that admits `snr`.
    pub fn mac(&mut self, count: u64, snr: SnrDb) {
        let scale = DampingConfig::from_snr(snr).energy_scale();
        self.ledger.processing += MAC_ENERGY_40DB * (count as f64 * scale);
        self.ledger.macs += count;
        self.timing.processing += MAC_SETTLE_TIME_40DB * (count as f64 / self.columns);
    }

    /// Charges `count` buffer-module writes at the damping setting that
    /// admits `snr`. Writes are charged energy only, no frame time.
    pub fn write(&mut self, count: u64, snr: SnrDb) {
        let scale = DampingConfig::from_snr(snr).energy_scale();
        self.ledger.memory += MEMORY_WRITE_ENERGY_40DB * (count as f64 * scale);
        self.ledger.writes += count;
    }

    /// Charges `count` dynamic-comparator decisions (max pooling).
    pub fn compare(&mut self, count: u64) {
        self.ledger.pooling += COMPARATOR_ENERGY * count as f64;
        self.ledger.comparisons += count;
        self.timing.pooling += COMPARATOR_DECISION_TIME * (count as f64 / self.columns);
    }

    /// Charges `count` readout conversions through `adc`.
    pub fn convert(&mut self, adc: &SarAdc, count: u64) {
        self.ledger.quantization += adc.energy_per_conversion() * count as f64;
        self.ledger.conversions += count;
        self.ledger.readout_bits += count * u64::from(adc.resolution());
        self.timing.quantization += adc.time_per_conversion() * (count as f64 / self.columns);
    }

    /// The nominal (typical-corner) frame: the ledger with its controller
    /// energy, and the frame time.
    pub fn finish(&self) -> (EnergyLedger, Seconds) {
        // TT's factors are exactly 1.0, so this is the unscaled charge.
        let (ledger, timing) = self.at_corner(ProcessCorner::TT);
        (ledger, timing.frame_time())
    }

    /// The frame at a process corner: every analog energy category times
    /// the power factor, every time category times the timing factor, and
    /// the controller charged as `P_ctrl · pf · (t · tf)`.
    pub fn at_corner(&self, corner: ProcessCorner) -> (EnergyLedger, TimingBreakdown) {
        let (pf, tf) = (corner.power_factor(), corner.timing_factor());
        let t = &self.timing;
        let timing = TimingBreakdown {
            processing: t.processing * tf,
            pooling: t.pooling * tf,
            quantization: t.quantization * tf,
        };
        let l = &self.ledger;
        let ledger = EnergyLedger {
            processing: l.processing * pf,
            pooling: l.pooling * pf,
            memory: l.memory * pf,
            quantization: l.quantization * pf,
            controller: controller_power() * pf * timing.frame_time(),
            ..*l
        };
        (ledger, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let ledger = EnergyLedger {
            processing: Joules::new(1.0),
            pooling: Joules::new(0.5),
            memory: Joules::new(0.25),
            quantization: Joules::new(0.25),
            controller: Joules::new(2.0),
            ..EnergyLedger::new()
        };
        assert_eq!(ledger.analog_total().value(), 2.0);
        assert_eq!(ledger.total().value(), 4.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyLedger {
            processing: Joules::new(1.0),
            macs: 10,
            ..EnergyLedger::new()
        };
        let b = EnergyLedger {
            processing: Joules::new(2.0),
            macs: 5,
            readout_bits: 32,
            ..EnergyLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.processing.value(), 3.0);
        assert_eq!(a.macs, 15);
        assert_eq!(a.readout_bits, 32);
    }

    #[test]
    fn display_is_nonempty() {
        let text = EnergyLedger::new().to_string();
        assert!(text.contains("processing"));
    }

    fn sample_frame() -> FrameCost {
        let mut cost = FrameCost::new(4);
        cost.mac(1_000, SnrDb::new(40.0));
        cost.write(100, SnrDb::new(50.0));
        cost.compare(300);
        cost.convert(&SarAdc::new(4).unwrap(), 100);
        cost
    }

    #[test]
    fn charges_are_count_times_unit_cost() {
        let (ledger, time) = sample_frame().finish();
        assert!((ledger.processing / (MAC_ENERGY_40DB * 1_000.0) - 1.0).abs() < 1e-12);
        // 50 dB damping costs 10× the 40 dB reference.
        assert!((ledger.memory / (MEMORY_WRITE_ENERGY_40DB * 1_000.0) - 1.0).abs() < 1e-12);
        assert_eq!(ledger.pooling, COMPARATOR_ENERGY * 300.0);
        assert_eq!(
            (
                ledger.macs,
                ledger.writes,
                ledger.comparisons,
                ledger.conversions
            ),
            (1_000, 100, 300, 100)
        );
        assert_eq!(ledger.readout_bits, 400);
        let want = MAC_SETTLE_TIME_40DB * 250.0
            + COMPARATOR_DECISION_TIME * 75.0
            + crate::calib::SAR_BIT_TIME * 100.0;
        assert!((time / want - 1.0).abs() < 1e-12);
        assert_eq!(ledger.controller, controller_power() * time);
    }

    #[test]
    fn table_one_sixty_db_costs_a_hundred_times_forty_db() {
        // Table I: the 60 dB damping point (1 pF) costs 100× the energy of
        // the 40 dB point (10 fF), for MACs and buffer writes alike.
        let frame = |snr: f64| {
            let mut cost = FrameCost::new(4);
            cost.mac(10, SnrDb::new(snr));
            cost.write(3, SnrDb::new(snr));
            cost.finish().0
        };
        let (hi, lo) = (frame(60.0), frame(40.0));
        assert!((hi.processing / lo.processing - 100.0).abs() < 1e-9);
        assert!((hi.memory / lo.memory - 100.0).abs() < 1e-9);
        assert_eq!((hi.macs, hi.writes), (10, 3));
    }

    #[test]
    fn typical_corner_is_the_nominal_frame() {
        let cost = sample_frame();
        let (ledger, time) = cost.finish();
        let (tt, timing) = cost.at_corner(ProcessCorner::TT);
        assert_eq!(tt, ledger);
        assert_eq!(
            timing.frame_time().value().to_bits(),
            time.value().to_bits()
        );
    }

    #[test]
    fn corner_scales_analog_by_power_and_controller_by_both() {
        let cost = sample_frame();
        let (nominal, time) = cost.finish();
        for corner in ProcessCorner::ALL {
            let (pf, tf) = (corner.power_factor(), corner.timing_factor());
            let (ledger, timing) = cost.at_corner(corner);
            let rel = |a: f64, b: f64| (a / b - 1.0).abs();
            assert!(
                rel(
                    ledger.analog_total().value(),
                    nominal.analog_total().value() * pf
                ) < 1e-12
            );
            assert!(rel(timing.frame_time().value(), time.value() * tf) < 1e-12);
            assert!(
                rel(
                    ledger.controller.value(),
                    nominal.controller.value() * pf * tf
                ) < 1e-12
            );
            assert_eq!(ledger.macs, nominal.macs);
        }
    }
}
