//! Fixed-point weight quantization.
//!
//! RedEye stores kernel weights digitally and applies them through an 8-bit
//! tunable capacitor (§IV-A), so ConvNet weights must be quantized to 8-bit
//! fixed point. The paper found 8-bit weights sufficient for accurate
//! GoogLeNet operation; [`quantize_network_weights`] reproduces that step and
//! the accuracy tests verify the claim on our trained networks.

use crate::Network;
use redeye_tensor::Tensor;

/// Result of symmetric fixed-point quantization: integer codes plus the
/// scale that maps them back to reals.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    /// Signed integer codes in `[-2^(bits-1)+1, 2^(bits-1)-1]`.
    pub codes: Vec<i32>,
    /// Multiply codes by this to recover approximate weights.
    pub scale: f32,
    /// Bit width used.
    pub bits: u32,
}

/// Quantizes values to symmetric signed fixed point with the given bit width.
///
/// The scale is chosen from the maximum absolute value so the full range is
/// used; an all-zero input quantizes to all-zero codes with scale 1.
///
/// # Panics
///
/// Panics if `bits` is not in `2..=31`.
pub fn quantize_symmetric(values: &[f32], bits: u32) -> QuantizedWeights {
    assert!((2..=31).contains(&bits), "bit width {bits} out of range");
    let max_code = (1i32 << (bits - 1)) - 1;
    let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs == 0.0 {
        1.0
    } else {
        max_abs / max_code as f32
    };
    let codes = values
        .iter()
        .map(|&v| (v / scale).round().clamp(-max_code as f32, max_code as f32) as i32)
        .collect();
    QuantizedWeights { codes, scale, bits }
}

/// Maps quantized codes back to reals.
pub fn dequantize_symmetric(q: &QuantizedWeights) -> Vec<f32> {
    q.codes.iter().map(|&c| c as f32 * q.scale).collect()
}

/// Rounds every weight tensor in a network to `bits`-bit symmetric fixed
/// point in place (a "fake quantization": weights remain `f32` but take only
/// representable values). Biases are left untouched, matching the paper's
/// digital accumulation of the MAC output offset.
///
/// Returns the worst relative RMS rounding error over all parameter tensors.
pub fn quantize_network_weights(net: &mut Network, bits: u32) -> f32 {
    let mut worst = 0.0f32;
    net.visit_params(&mut |param: &mut Tensor, _grad: &mut Tensor| {
        // Heuristic: weight matrices are rank ≥ 2; rank-1 tensors are biases.
        if param.shape().rank() < 2 {
            return;
        }
        let q = quantize_symmetric(param.as_slice(), bits);
        let deq = dequantize_symmetric(&q);
        let mut err = 0.0f32;
        let mut norm = 0.0f32;
        for (orig, new) in param.as_slice().iter().zip(&deq) {
            err += (orig - new).powi(2);
            norm += orig * orig;
        }
        if norm > 0.0 {
            worst = worst.max((err / norm).sqrt());
        }
        param.as_mut_slice().copy_from_slice(&deq);
    });
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    #[test]
    fn quantize_round_trip_small_error() {
        let values: Vec<f32> = (-100..=100).map(|v| v as f32 / 100.0).collect();
        let q = quantize_symmetric(&values, 8);
        let deq = dequantize_symmetric(&q);
        for (a, b) in values.iter().zip(&deq) {
            assert!((a - b).abs() <= q.scale / 2.0 + 1e-7);
        }
    }

    #[test]
    fn codes_respect_bit_range() {
        let values = vec![-5.0, -1.0, 0.0, 2.0, 5.0];
        let q = quantize_symmetric(&values, 4);
        let max_code = (1 << 3) - 1;
        assert!(q.codes.iter().all(|&c| c.abs() <= max_code));
        // Extremes hit the rails.
        assert_eq!(q.codes[0], -max_code);
        assert_eq!(q.codes[4], max_code);
    }

    #[test]
    fn zero_input_is_stable() {
        let q = quantize_symmetric(&[0.0, 0.0], 8);
        assert_eq!(q.codes, vec![0, 0]);
        assert_eq!(q.scale, 1.0);
    }

    #[test]
    fn more_bits_less_error() {
        let values: Vec<f32> = (0..1000).map(|v| (v as f32 * 0.017).sin()).collect();
        let err = |bits| {
            let q = quantize_symmetric(&values, bits);
            let deq = dequantize_symmetric(&q);
            values
                .iter()
                .zip(&deq)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        assert!(err(8) < err(4));
        assert!(err(4) < err(2));
    }

    #[test]
    fn network_quantization_touches_weights_not_biases() {
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&zoo::micronet(4, 10), WeightInit::HeNormal, &mut rng).unwrap();
        // Give biases distinctive irrational-ish values.
        net.visit_params(&mut |p, _| {
            if p.shape().rank() < 2 {
                p.map_in_place(|_| 0.333_333_3);
            }
        });
        let worst = quantize_network_weights(&mut net, 8);
        assert!(worst > 0.0 && worst < 0.01, "8-bit rel error {worst}");
        net.visit_params(&mut |p, _| {
            if p.shape().rank() < 2 {
                assert!(p.iter().all(|&v| v == 0.333_333_3), "bias was modified");
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_bit_panics() {
        quantize_symmetric(&[1.0], 1);
    }
}
