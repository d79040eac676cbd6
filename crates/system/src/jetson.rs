//! The NVIDIA Jetson TK1 digital host model (§V-B).
//!
//! The paper measured GoogLeNet-on-Caffe with an oscilloscope: the GPU runs
//! the full network in 33 ms at 12.2 W (406 mJ/frame) and the Depth5
//! remainder in 18.6 ms; the CPU takes 545 ms at 3.1 W and 297 ms for the
//! remainder. We reproduce those four anchors with a two-parameter roofline
//! time model per processor,
//!
//! `t = macs / throughput + params × traffic_cost`,
//!
//! i.e. a compute term plus a weight-traffic term. The traffic term is what
//! makes host time *not* proportional to MACs: GoogLeNet's late inception
//! stages and classifier hold ~75% of the weights but only ~32% of the
//! MACs, which is exactly why the measured Depth5 remainder (56% of full
//! GPU time) far exceeds its MAC share.

use redeye_analog::{Joules, Seconds, Watts};
use redeye_core::Depth;
use redeye_nn::NetworkSpec;
use serde::{Deserialize, Serialize};

/// Which Jetson TK1 processor runs the ConvNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JetsonKind {
    /// The Kepler GPU (best-in-class mobile ConvNet performance).
    Gpu,
    /// The Cortex-A15 CPU.
    Cpu,
}

/// One host execution measurement: time and energy for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Wall-clock processing time.
    pub time: Seconds,
    /// Energy consumed (`power × time`).
    pub energy: Joules,
}

/// `(macs, params)` of a spec via shape propagation.
fn workload(spec: &NetworkSpec) -> (u64, u64) {
    redeye_nn::summarize(spec)
        .map(|s| (s.total_macs(), s.total_params()))
        .unwrap_or((0, 0))
}

/// The fitted Jetson TK1 host model.
///
/// # Example
///
/// ```
/// use redeye_core::Depth;
/// use redeye_system::{JetsonHost, JetsonKind};
///
/// let gpu = JetsonHost::fit(JetsonKind::Gpu);
/// // The fit reproduces the paper's measured 33 ms full-GoogLeNet run.
/// assert!((gpu.run_googlenet_full().time.millis() - 33.0).abs() < 0.01);
/// // After a Depth5 RedEye cut, only 18.6 ms of host work remain.
/// assert!((gpu.run_googlenet_suffix(Depth::D5).time.millis() - 18.6).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JetsonHost {
    kind: JetsonKind,
    power: Watts,
    /// Seconds per MAC (compute roof).
    seconds_per_mac: f64,
    /// Seconds per weight parameter touched (traffic roof).
    seconds_per_param: f64,
}

impl JetsonHost {
    /// Measured anchors (§V-B): power, full-GoogLeNet time, Depth5-remainder
    /// time.
    fn anchors(kind: JetsonKind) -> (Watts, Seconds, Seconds) {
        match kind {
            JetsonKind::Gpu => (
                Watts::new(12.2),
                Seconds::from_milli(33.0),
                Seconds::from_milli(18.6),
            ),
            JetsonKind::Cpu => (
                Watts::new(3.1),
                Seconds::from_milli(545.0),
                Seconds::from_milli(297.0),
            ),
        }
    }

    /// Fits the model for one processor against the paper's GoogLeNet
    /// anchors.
    ///
    /// # Panics
    ///
    /// Panics if the built-in GoogLeNet descriptor ever stops producing a
    /// well-posed two-equation system (it cannot, short of a code bug).
    pub fn fit(kind: JetsonKind) -> Self {
        let spec = redeye_nn::zoo::googlenet();
        let prefix = spec
            .prefix_through(Depth::D5.cut_layer())
            .expect("GoogLeNet has the Depth5 cut layer");
        let (m_total, p_total) = workload(&spec);
        let (m_prefix, p_prefix) = workload(&prefix);
        let (m_suffix, p_suffix) = ((m_total - m_prefix) as f64, (p_total - p_prefix) as f64);
        let (m_total, p_total) = (m_total as f64, p_total as f64);

        let (power, t_total, t_suffix) = Self::anchors(kind);
        // Solve  a·m_total + b·p_total = t_total
        //        a·m_suffix + b·p_suffix = t_suffix
        let det = m_total * p_suffix - m_suffix * p_total;
        assert!(det.abs() > 1.0, "degenerate fit system");
        let a = (t_total.value() * p_suffix - t_suffix.value() * p_total) / det;
        let b = (m_total * t_suffix.value() - m_suffix * t_total.value()) / det;
        assert!(a > 0.0 && b > 0.0, "non-physical fit: a={a}, b={b}");
        JetsonHost {
            kind,
            power,
            seconds_per_mac: a,
            seconds_per_param: b,
        }
    }

    /// Board power while processing.
    pub fn power(&self) -> Watts {
        self.power
    }

    /// Predicts time and energy to execute a network (spec) on this host.
    pub fn run(&self, spec: &NetworkSpec) -> HostMeasurement {
        let (macs, params) = workload(spec);
        self.run_counts(macs, params)
    }

    /// Predicts time and energy from raw operation counts.
    pub fn run_counts(&self, macs: u64, params: u64) -> HostMeasurement {
        let time = Seconds::new(
            macs as f64 * self.seconds_per_mac + params as f64 * self.seconds_per_param,
        );
        HostMeasurement {
            time,
            energy: self.power * time,
        }
    }

    /// Predicts the remainder-after-depth run for GoogLeNet.
    pub fn run_googlenet_suffix(&self, depth: Depth) -> HostMeasurement {
        let spec = redeye_nn::zoo::googlenet();
        let prefix = spec
            .prefix_through(depth.cut_layer())
            .expect("GoogLeNet has all depth cut layers");
        let (m_total, p_total) = workload(&spec);
        let (m_prefix, p_prefix) = workload(&prefix);
        self.run_counts(m_total - m_prefix, p_total - p_prefix)
    }

    /// Predicts the full-GoogLeNet run.
    pub fn run_googlenet_full(&self) -> HostMeasurement {
        self.run(&redeye_nn::zoo::googlenet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_anchors_reproduce_exactly() {
        let gpu = JetsonHost::fit(JetsonKind::Gpu);
        let full = gpu.run_googlenet_full();
        assert!((full.time.millis() - 33.0).abs() < 0.01, "{}", full.time);
        // 33 ms × 12.2 W = 402.6 mJ ≈ paper's 406 mJ oscilloscope figure.
        assert!((full.energy.millis() - 402.6).abs() < 1.0);
        let rem = gpu.run_googlenet_suffix(Depth::D5);
        assert!((rem.time.millis() - 18.6).abs() < 0.01, "{}", rem.time);
        // 18.6 ms × 12.2 W ≈ 227 mJ ≈ paper's 226 mJ.
        assert!((rem.energy.millis() - 226.9).abs() < 1.0);
    }

    #[test]
    fn cpu_anchors_reproduce_exactly() {
        let cpu = JetsonHost::fit(JetsonKind::Cpu);
        let full = cpu.run_googlenet_full();
        assert!((full.time.millis() - 545.0).abs() < 0.1);
        // 545 ms × 3.1 W ≈ 1.69 J ≈ paper's 1.7 J.
        assert!((full.energy.value() - 1.69).abs() < 0.02);
        let rem = cpu.run_googlenet_suffix(Depth::D5);
        assert!((rem.time.millis() - 297.0).abs() < 0.1);
    }

    #[test]
    fn shallower_cuts_leave_more_host_work() {
        let gpu = JetsonHost::fit(JetsonKind::Gpu);
        let mut prev = f64::INFINITY;
        for depth in Depth::ALL {
            let t = gpu.run_googlenet_suffix(depth).time.value();
            assert!(t < prev, "{depth}: host time must shrink with depth");
            prev = t;
        }
    }

    #[test]
    fn fit_constants_are_physical() {
        for kind in [JetsonKind::Gpu, JetsonKind::Cpu] {
            let host = JetsonHost::fit(kind);
            // Throughput between 1 GMAC/s (CPU-ish) and 1 TMAC/s.
            let gmacs = 1e-9 / host.seconds_per_mac;
            assert!((1.0..1000.0).contains(&gmacs), "{kind:?}: {gmacs} GMAC/s");
            // Weight-traffic cost between 0.01 ns and 1 µs per parameter.
            assert!(
                (1e-11..1e-6).contains(&host.seconds_per_param),
                "{kind:?}: {} s/param",
                host.seconds_per_param
            );
        }
    }

    #[test]
    fn gpu_is_faster_than_cpu() {
        let gpu = JetsonHost::fit(JetsonKind::Gpu);
        let cpu = JetsonHost::fit(JetsonKind::Cpu);
        // Throughput in MAC/s is the reciprocal of seconds per MAC.
        assert!(cpu.seconds_per_mac > 5.0 * gpu.seconds_per_mac);
    }
}
