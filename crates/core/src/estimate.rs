//! Analytic per-frame energy, timing, and readout estimation.
//!
//! The paper's developer framework predicts "task accuracy and energy
//! estimations" for a partitioned ConvNet (§III-D). Accuracy needs the
//! functional executor; energy and timing need only *operation counts*,
//! which shape propagation provides exactly. This module charges a network
//! prefix's per-layer counts ([`NetworkSummary`]) into the per-frame numbers
//! behind Figs. 7–10 and Table I.
//!
//! The column-parallel topology (§III-B) processes all 227 columns
//! simultaneously, so frame time is the per-column sequential work times the
//! per-operation settling times of [`redeye_analog::calib`]. Each layer is
//! charged with [`redeye_verify::charge`] into the shared cost model
//! ([`redeye_analog::cost`]), the same function and accumulator the
//! executor's ledger and the static cost pass use.

use crate::{CoreError, EnergyLedger, ResourceLimits, Result};
use redeye_analog::calib::COLUMN_COUNT;
use redeye_analog::cost::FrameCost;
pub use redeye_analog::cost::{controller_power, TimingBreakdown};
use redeye_analog::{snr_admissible, AnalogError, ProcessCorner, SarAdc, SnrDb};
use redeye_nn::{summarize, NetworkSpec, NetworkSummary, OpCounts};
use serde::{Deserialize, Serialize};

/// A RedEye operating configuration: the knobs a developer programs
/// alongside the ConvNet (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RedEyeConfig {
    /// Noise-admission SNR of the analog processing layers.
    pub snr: SnrDb,
    /// ADC resolution of the quantization module (1–10 bits).
    pub adc_bits: u32,
    /// Process corner to evaluate at.
    pub corner: ProcessCorner,
}

impl Default for RedEyeConfig {
    /// The paper's recommended operating point: 40 dB, 4-bit, typical
    /// corner.
    fn default() -> Self {
        RedEyeConfig {
            snr: SnrDb::new(40.0),
            adc_bits: 4,
            corner: ProcessCorner::TT,
        }
    }
}

/// The full analytic estimate for one partitioned configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Itemized energy, in the executor's ledger categories.
    pub energy: EnergyLedger,
    /// Itemized timing.
    pub timing: TimingBreakdown,
    /// Feature values crossing the A/D boundary.
    pub readout_values: u64,
    /// Bits crossing the A/D boundary (`readout_values × adc_bits`).
    pub readout_bits: u64,
    /// Feature payload in bytes (bit-packed).
    pub feature_bytes: usize,
}

/// A per-layer noise-admission plan: a default SNR plus named overrides
/// (§III-C — "developers can specify the SNR for each layer").
///
/// Overrides are matched against top-level layer names; inception modules
/// are one module (their branches share the module's setting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoisePlan {
    default: SnrDb,
    overrides: std::collections::BTreeMap<String, SnrDb>,
}

impl NoisePlan {
    /// Creates a plan where every layer runs at `default`.
    pub fn uniform(default: SnrDb) -> Self {
        NoisePlan {
            default,
            overrides: std::collections::BTreeMap::new(),
        }
    }

    /// Sets a named layer's SNR, returning `self` for chaining.
    pub fn with_layer(mut self, name: impl Into<String>, snr: SnrDb) -> Self {
        self.overrides.insert(name.into(), snr);
        self
    }

    /// The SNR programmed for a layer.
    fn snr_for(&self, name: &str) -> SnrDb {
        self.overrides.get(name).copied().unwrap_or(self.default)
    }

    /// The default SNR.
    fn default_snr(&self) -> SnrDb {
        self.default
    }
}

/// Counts the noisy analog stages an output value passes through in one
/// layer (inception: the deepest branch, since channels see only their own
/// branch).
fn noisy_stages(layer: &redeye_nn::LayerSpec) -> usize {
    use redeye_nn::LayerSpec;
    match layer {
        LayerSpec::Conv { .. }
        | LayerSpec::Lrn { .. }
        | LayerSpec::MaxPool { .. }
        | LayerSpec::AvgPool { .. } => 1,
        LayerSpec::Inception { branches, .. } => branches
            .iter()
            .map(|b| b.iter().map(noisy_stages).sum())
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

/// Predicts the cumulative output SNR of a RedEye prefix under a noise
/// plan, by power-adding each analog stage's admitted noise (§IV-B's
/// upward propagation, in closed form via
/// [`redeye_analog::cumulative_snr`]). The input sampling stage is counted
/// at the plan's default.
///
/// This is the quantity that locates the Fig. 9 knee: GoogLeNet Depth5 at
/// a uniform 40 dB accumulates to ≈27.7 dB at the readout (Depth1 to
/// Depth4: ≈34.0, 31.0, 28.9 and 28.2 dB) — near the paper's observation
/// that accuracy only suffers "when SNR drops below 30 dB".
///
/// # Errors
///
/// Returns an error if `cut` does not name a top-level layer of `spec`.
pub fn predicted_output_snr(spec: &NetworkSpec, cut: &str, plan: &NoisePlan) -> Result<SnrDb> {
    let pos = spec
        .position_of(cut)
        .ok_or_else(|| CoreError::Nn(redeye_nn::NnError::UnknownLayer { name: cut.into() }))?;
    // Input sampling ("data layer") noise at the default setting.
    let mut stages = vec![plan.default_snr()];
    for layer in &spec.layers[..=pos] {
        let snr = plan.snr_for(layer.name());
        stages.extend(std::iter::repeat_n(snr, noisy_stages(layer)));
    }
    Ok(redeye_analog::cumulative_snr(&stages))
}

/// Estimates one frame over the prefix of `summary` ending at `cut`, each
/// layer charged at its planned SNR. Energy of each layer scales with its
/// own damping setting; timing and readout are unchanged by SNR.
///
/// # Errors
///
/// Returns an error if `cut` does not name a summarized layer, `adc_bits`
/// is not a SAR resolution (1–10), or a prefix layer's SNR lies outside
/// the damping circuit's admissible [0, 100] dB band.
pub fn estimate_prefix(
    summary: &NetworkSummary,
    cut: &str,
    plan: &NoisePlan,
    adc_bits: u32,
    corner: ProcessCorner,
) -> Result<Estimate> {
    let pos = summary
        .layers
        .iter()
        .position(|l| l.name == cut)
        .ok_or_else(|| CoreError::Nn(redeye_nn::NnError::UnknownLayer { name: cut.into() }))?;
    let adc = SarAdc::new(adc_bits)?;
    let mut cost = FrameCost::new(COLUMN_COUNT);
    for layer in &summary.layers[..=pos] {
        let snr = plan.snr_for(&layer.name);
        // The verifier refuses any other SNR (RE0301).
        if !snr_admissible(snr) {
            return Err(AnalogError::OutOfRange {
                parameter: "snr",
                value: snr.db().to_string(),
                allowed: "0..=100 dB, the damping circuit's admissible band",
            }
            .into());
        }
        let counts = OpCounts {
            macs: layer.macs,
            comparisons: layer.comparisons,
            writes: layer.writes,
        };
        redeye_verify::charge(&mut cost, counts, Some(snr));
    }
    let out_len = summary.layers[pos].out_len;
    cost.convert(&adc, out_len);
    let (energy, timing) = cost.at_corner(corner);
    Ok(Estimate {
        readout_values: out_len,
        readout_bits: energy.readout_bits,
        feature_bytes: ResourceLimits::feature_bytes_needed(out_len, adc_bits),
        energy,
        timing,
    })
}

/// Estimates one frame over the prefix of `spec` ending at layer `cut`.
///
/// # Errors
///
/// Returns an error if `cut` does not name a layer of `spec`, the spec's
/// geometry is inconsistent, or `config.adc_bits` is not a SAR resolution.
pub fn estimate_spec_prefix(
    spec: &NetworkSpec,
    cut: &str,
    config: &RedEyeConfig,
) -> Result<Estimate> {
    estimate_prefix(
        &summarize(spec)?,
        cut,
        &NoisePlan::uniform(config.snr),
        config.adc_bits,
        config.corner,
    )
}

/// Estimates one frame of GoogLeNet at one of the paper's five depths.
///
/// # Errors
///
/// Propagates shape-propagation errors (none occur for the built-in
/// GoogLeNet descriptor).
pub fn estimate_depth(depth: crate::Depth, config: &RedEyeConfig) -> Result<Estimate> {
    let spec = redeye_nn::zoo::googlenet();
    estimate_spec_prefix(&spec, depth.cut_layer(), config)
}

/// Convenience: estimates all five depths at one configuration.
///
/// # Errors
///
/// Propagates [`estimate_depth`] errors.
pub fn estimate_all_depths(config: &RedEyeConfig) -> Result<Vec<(crate::Depth, Estimate)>> {
    let summary = summarize(&redeye_nn::zoo::googlenet())?;
    let plan = NoisePlan::uniform(config.snr);
    crate::Depth::ALL
        .iter()
        .map(|&d| {
            let est = estimate_prefix(
                &summary,
                d.cut_layer(),
                &plan,
                config.adc_bits,
                config.corner,
            )?;
            Ok((d, est))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Depth;
    use redeye_analog::calib::MAC_ENERGY_40DB;

    #[test]
    fn table1_depth5_anchors() {
        // Table I: Depth5 per-frame analog energy ≈ 1.4 mJ at 40 dB,
        // 14 mJ at 50 dB, 140 mJ at 60 dB.
        for (snr, expect_mj) in [(40.0, 1.4), (50.0, 14.0), (60.0, 140.0)] {
            let config = RedEyeConfig {
                snr: SnrDb::new(snr),
                ..RedEyeConfig::default()
            };
            let est = estimate_depth(Depth::D5, &config).unwrap();
            let mj = est.energy.analog_total().millis();
            assert!(
                (mj / expect_mj - 1.0).abs() < 0.15,
                "{snr} dB: {mj} mJ vs paper {expect_mj} mJ"
            );
        }
    }

    #[test]
    fn snrs_the_verifier_refuses_are_errors() {
        for db in [150.0, 100.5, -1.0, f64::NAN, f64::INFINITY] {
            let config = RedEyeConfig {
                snr: SnrDb::new(db),
                ..RedEyeConfig::default()
            };
            let err = estimate_depth(Depth::D1, &config).expect_err("inadmissible SNR");
            assert!(
                matches!(
                    err,
                    CoreError::Analog(AnalogError::OutOfRange {
                        parameter: "snr",
                        ..
                    })
                ),
                "{db} dB: {err:?}"
            );
        }
        // The band's edges are estimated.
        for db in [0.0, 100.0] {
            let config = RedEyeConfig {
                snr: SnrDb::new(db),
                ..RedEyeConfig::default()
            };
            assert!(estimate_depth(Depth::D1, &config).is_ok(), "{db} dB");
        }
    }

    #[test]
    fn depth1_processing_anchor() {
        // §V-B: Depth1 processing + quantization ≈ 170 µJ per frame.
        let est = estimate_depth(Depth::D1, &RedEyeConfig::default()).unwrap();
        let uj = est.energy.analog_total().micros();
        assert!((140.0..200.0).contains(&uj), "Depth1 = {uj} µJ");
    }

    #[test]
    fn depth5_meets_30fps() {
        // §V-B: Depth5 RedEye requires only 32 ms — ~30 fps.
        let est = estimate_depth(Depth::D5, &RedEyeConfig::default()).unwrap();
        let ms = est.timing.frame_time().millis();
        assert!((28.0..36.0).contains(&ms), "Depth5 frame time {ms} ms");
        assert!(est.timing.fps() > 27.0);
    }

    #[test]
    fn energy_increases_with_depth() {
        // Fig. 7a: processing cost outpaces readout savings with depth.
        let ests = estimate_all_depths(&RedEyeConfig::default()).unwrap();
        for pair in ests.windows(2) {
            assert!(
                pair[1].1.energy.analog_total() > pair[0].1.energy.analog_total(),
                "{} -> {}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn readout_shrinks_with_depth_after_d1() {
        // Fig. 7c: deeper cuts quantize fewer values.
        let ests = estimate_all_depths(&RedEyeConfig::default()).unwrap();
        assert!(ests[0].1.readout_values > ests[1].1.readout_values);
        assert!(ests[1].1.readout_values > ests[2].1.readout_values);
        // Depth4 grows slightly (480→512 channels at 14×14) but stays far
        // below the shallow cuts.
        assert!(ests[3].1.readout_values < ests[0].1.readout_values / 2);
        // Depth1 at 4 bits is ≈ 54% of the raw 10-bit frame (Fig. 7c:
        // "nearly half").
        let raw_bits = 227 * 227 * 3 * 10u64;
        let ratio = ests[0].1.readout_bits as f64 / raw_bits as f64;
        assert!((0.5..0.6).contains(&ratio), "Depth1 bits ratio {ratio}");
    }

    #[test]
    fn quantization_energy_doubles_per_bit() {
        let e = |bits| {
            let config = RedEyeConfig {
                adc_bits: bits,
                ..RedEyeConfig::default()
            };
            estimate_depth(Depth::D5, &config)
                .unwrap()
                .energy
                .quantization
                .value()
        };
        let ratio = e(8) / e(7);
        assert!((1.8..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn controller_is_about_0_4_mj_per_frame() {
        // §V-B: "a low-power microcontroller for digital interface,
        // consuming 0.4 mJ per frame" (12 mW at 30 fps).
        let est = estimate_depth(Depth::D5, &RedEyeConfig::default()).unwrap();
        let mj = est.energy.controller.millis();
        assert!((0.3..0.5).contains(&mj), "controller {mj} mJ");
    }

    #[test]
    fn corners_shift_energy_and_timing() {
        let tt = estimate_depth(Depth::D3, &RedEyeConfig::default()).unwrap();
        let ss = estimate_depth(
            Depth::D3,
            &RedEyeConfig {
                corner: ProcessCorner::SS,
                ..RedEyeConfig::default()
            },
        )
        .unwrap();
        assert!(ss.timing.frame_time() > tt.timing.frame_time());
        assert!(ss.energy.processing < tt.energy.processing);
    }

    #[test]
    fn per_layer_charging_equals_prefix_totals() {
        // One SNR everywhere: charging layer by layer equals charging the
        // prefix's summed counts once, up to summation order.
        let summary = redeye_nn::summarize(&redeye_nn::zoo::googlenet()).unwrap();
        let config = RedEyeConfig::default();
        let cut = Depth::D5.cut_layer();
        let est = estimate_depth(Depth::D5, &config).unwrap();
        let totals = summary.prefix_totals(cut).unwrap();
        let mut cost = FrameCost::new(COLUMN_COUNT);
        cost.mac(totals.macs, config.snr);
        cost.compare(totals.comparisons);
        cost.write(totals.writes, config.snr);
        cost.convert(&SarAdc::new(config.adc_bits).unwrap(), totals.out_len);
        let (oracle, timing) = cost.at_corner(config.corner);
        assert_eq!(
            (est.energy.macs, est.energy.comparisons, est.energy.writes),
            (oracle.macs, oracle.comparisons, oracle.writes)
        );
        assert_eq!(est.readout_values, totals.out_len);
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        let (a, b) = (est.energy.analog_total(), oracle.analog_total());
        assert!(rel(a.value(), b.value()) < 1e-12, "{a} vs {b}");
        let (a, b) = (est.timing.frame_time(), timing.frame_time());
        assert!(rel(a.value(), b.value()) < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn non_finite_snr_is_out_of_range() {
        fn out_of_range<T>(r: Result<T>) -> bool {
            matches!(
                r,
                Err(CoreError::Analog(AnalogError::OutOfRange {
                    parameter: "snr",
                    ..
                }))
            )
        }
        let summary = redeye_nn::summarize(&redeye_nn::zoo::googlenet()).unwrap();
        let tt = ProcessCorner::TT;
        for db in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = RedEyeConfig {
                snr: SnrDb::new(db),
                ..RedEyeConfig::default()
            };
            assert!(out_of_range(estimate_depth(Depth::D3, &config)), "{db}");
            assert!(out_of_range(estimate_all_depths(&config)), "{db}");
            // An override inside the prefix is checked too; one past the cut
            // is never charged.
            let plan = NoisePlan::uniform(SnrDb::new(40.0)).with_layer("conv2", SnrDb::new(db));
            assert!(out_of_range(estimate_prefix(
                &summary, "pool2", &plan, 4, tt
            )));
            assert!(estimate_prefix(&summary, "norm1", &plan, 4, tt).is_ok());
        }
    }

    #[test]
    fn override_raises_only_that_layer() {
        let spec = redeye_nn::zoo::googlenet();
        let summary = redeye_nn::summarize(&spec).unwrap();
        let base = NoisePlan::uniform(SnrDb::new(40.0));
        let boosted = base.clone().with_layer("conv1", SnrDb::new(50.0));
        let a = estimate_prefix(&summary, "pool2", &base, 4, ProcessCorner::TT).unwrap();
        let b = estimate_prefix(&summary, "pool2", &boosted, 4, ProcessCorner::TT).unwrap();
        // conv1 is ~123.5M of ~500M prefix MACs; boosting it 10× adds ~9×
        // its share.
        let conv1 = summary.layer("conv1").unwrap().macs as f64;
        let expected_extra = MAC_ENERGY_40DB.value() * conv1 * 9.0;
        let extra = b.energy.processing.value() - a.energy.processing.value();
        assert!(
            (extra / expected_extra - 1.0).abs() < 1e-9,
            "extra {extra} vs {expected_extra}"
        );
        // Timing unchanged.
        assert_eq!(a.timing.frame_time(), b.timing.frame_time());
    }

    #[test]
    fn predicted_output_snr_matches_paper_knee() {
        // GoogLeNet Depth5 at a uniform 40 dB: the deepest channel path
        // passes 17 noisy stages (input, the conv/norm/pool stem, and the
        // longest branch of four inception modules), accumulating to
        // 40 − 10·log10(17) ≈ 27.7 dB — right at the paper's reported
        // "only susceptible below 30 dB" sensitivity threshold.
        let spec = redeye_nn::zoo::googlenet();
        let plan = NoisePlan::uniform(SnrDb::new(40.0));
        let out = predicted_output_snr(&spec, Depth::D5.cut_layer(), &plan).unwrap();
        assert!(
            (26.0..32.0).contains(&out.db()),
            "Depth5 cumulative SNR {out}"
        );
        // Shallower cuts accumulate less noise.
        let d1 = predicted_output_snr(&spec, Depth::D1.cut_layer(), &plan).unwrap();
        assert!(d1.db() > out.db());
    }

    #[test]
    fn protecting_a_layer_raises_cumulative_snr() {
        let spec = redeye_nn::zoo::googlenet();
        let base = NoisePlan::uniform(SnrDb::new(40.0));
        let protected = base.clone().with_layer("conv1", SnrDb::new(60.0));
        let a = predicted_output_snr(&spec, "pool2", &base).unwrap();
        let b = predicted_output_snr(&spec, "pool2", &protected).unwrap();
        assert!(b.db() > a.db());
    }

    #[test]
    fn plan_unknown_cut_rejected() {
        let spec = redeye_nn::zoo::googlenet();
        let summary = redeye_nn::summarize(&spec).unwrap();
        let plan = NoisePlan::uniform(SnrDb::new(40.0));
        assert!(estimate_prefix(&summary, "zzz", &plan, 4, ProcessCorner::TT).is_err());
    }

    #[test]
    fn depth4_analog_energy_near_1_3_mj() {
        // §V-B (cloudlet): "a RedEye overhead of 1.3 mJ per frame" at Depth4.
        let est = estimate_depth(Depth::D4, &RedEyeConfig::default()).unwrap();
        let mj = est.energy.analog_total().millis();
        assert!((1.1..1.5).contains(&mj), "Depth4 = {mj} mJ");
    }
}
