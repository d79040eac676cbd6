//! The analog op table: one definition per analog layer kind.
//!
//! RedEye's energy and timing models (§III-C, §III-D) are functions of each
//! layer's output shape, MACs, comparator decisions and analog memory
//! writes. [`AnalogOp`] defines these once per kind. [`crate::summarize`],
//! the static verifier, the executor's ledger and the row simulation all
//! read it, so their counts cannot drift apart.

use crate::LayerSpec;
use redeye_tensor::{ConvGeom, PoolGeom, TensorError};
use serde::{Deserialize, Serialize};

/// The dimensions of one analog layer that fix its output shape and op
/// counts. Weights, noise settings and LRN coefficients do not enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalogOp {
    /// Square-kernel convolution (floor rounding).
    Conv {
        /// Output channels.
        out_c: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Comparator max pooling (Caffe ceil rounding).
    MaxPool {
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Average pooling: a fixed-weight accumulate (Caffe ceil rounding).
    AvgPool {
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Local response normalization across `size` channels.
    Lrn {
        /// Channel window.
        size: usize,
    },
}

/// The work one analog layer performs per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Multiply–accumulates in the MAC array.
    pub macs: u64,
    /// Dynamic-comparator decisions.
    pub comparisons: u64,
    /// Analog memory writes: one per output value.
    pub writes: u64,
}

fn overflow() -> TensorError {
    TensorError::InvalidGeometry {
        reason: "op counts overflow u64".into(),
    }
}

fn mul(a: u64, b: u64) -> Result<u64, TensorError> {
    a.checked_mul(b).ok_or_else(overflow)
}

impl AnalogOp {
    /// The compact kind tag: `conv`, `maxpool`, `avgpool` or `lrn`.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalogOp::Conv { .. } => "conv",
            AnalogOp::MaxPool { .. } => "maxpool",
            AnalogOp::AvgPool { .. } => "avgpool",
            AnalogOp::Lrn { .. } => "lrn",
        }
    }

    /// The output shape and op counts of this layer over a `C×H×W` input.
    /// Per output value, a conv takes `C·kernel²` MACs, a max pool
    /// `window² − 1` decisions (padding taps included: the comparator runs
    /// a fixed schedule), an average pool `window²` MACs and an LRN
    /// `size + 1` MACs (square-accumulate the channel window, then scale).
    /// Every kind writes each output value once.
    ///
    /// ```
    /// // GoogLeNet pool1: 3×3 stride 2 over 64×114×114 → 64×57×57.
    /// let pool = redeye_nn::AnalogOp::MaxPool { window: 3, stride: 2, pad: 0 };
    /// let (out, counts) = pool.apply([64, 114, 114]).unwrap();
    /// assert_eq!((out, counts.comparisons), ([64, 57, 57], 64 * 57 * 57 * 8));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the geometry does not
    /// fit the input (see [`ConvGeom::new`]) or a count overflows `u64`.
    pub fn apply(&self, input: [usize; 3]) -> Result<([usize; 3], OpCounts), TensorError> {
        let [c, h, w] = input;
        // The output shape, then MACs and decisions per output value.
        let (out, macs, decisions) = match *self {
            AnalogOp::Conv {
                out_c,
                kernel,
                stride,
                pad,
            } => {
                let geom = ConvGeom::new(c, h, w, kernel, kernel, stride, pad)?;
                let out = [out_c, geom.out_h(), geom.out_w()];
                (out, geom.patch_len() as u64, 0)
            }
            AnalogOp::MaxPool {
                window,
                stride,
                pad,
            }
            | AnalogOp::AvgPool {
                window,
                stride,
                pad,
            } => {
                let geom = PoolGeom::new(c, h, w, window, stride, pad)?;
                let out = [c, geom.out_h(), geom.out_w()];
                // `PoolGeom::new` rejects a zero window.
                let taps = mul(window as u64, window as u64)?;
                match self {
                    AnalogOp::MaxPool { .. } => (out, 0, taps - 1),
                    _ => (out, taps, 0),
                }
            }
            AnalogOp::Lrn { size } => {
                let macs = (size as u64).checked_add(1).ok_or_else(overflow)?;
                (input, macs, 0)
            }
        };
        let writes = mul(mul(out[0] as u64, out[1] as u64)?, out[2] as u64)?;
        let counts = OpCounts {
            macs: mul(writes, macs)?,
            comparisons: mul(writes, decisions)?,
            writes,
        };
        Ok((out, counts))
    }
}

impl LayerSpec {
    /// This layer's entry in the analog op table, or `None` for an
    /// inception module (its branches carry the ops) and digital layers.
    pub fn analog_op(&self) -> Option<AnalogOp> {
        match *self {
            LayerSpec::Conv {
                out_c,
                kernel,
                stride,
                pad,
                ..
            } => Some(AnalogOp::Conv {
                out_c,
                kernel,
                stride,
                pad,
            }),
            LayerSpec::MaxPool {
                window,
                stride,
                pad,
                ..
            } => Some(AnalogOp::MaxPool {
                window,
                stride,
                pad,
            }),
            LayerSpec::AvgPool {
                window,
                stride,
                pad,
                ..
            } => Some(AnalogOp::AvgPool {
                window,
                stride,
                pad,
            }),
            LayerSpec::Lrn { size, .. } => Some(AnalogOp::Lrn { size }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_and_pool_counts_match_the_geometry() {
        let conv = AnalogOp::Conv {
            out_c: 64,
            kernel: 7,
            stride: 2,
            pad: 3,
        };
        let (out, counts) = conv.apply([3, 227, 227]).unwrap();
        let geom = ConvGeom::new(3, 227, 227, 7, 7, 2, 3).unwrap();
        assert_eq!(out, [64, 114, 114]);
        assert_eq!(counts.macs, geom.macs(64));
        assert_eq!((counts.comparisons, counts.writes), (0, 64 * 114 * 114));

        let pool = AnalogOp::MaxPool {
            window: 3,
            stride: 2,
            pad: 1,
        };
        let (out, counts) = pool.apply([8, 15, 15]).unwrap();
        let geom = PoolGeom::new(8, 15, 15, 3, 2, 1).unwrap();
        assert_eq!(out, [8, geom.out_h(), geom.out_w()]);
        assert_eq!(counts.comparisons, geom.comparisons());
        assert_eq!(counts.writes, geom.out_len() as u64);
    }

    #[test]
    fn avgpool_and_lrn_charge_macs_per_output() {
        let avg = AnalogOp::AvgPool {
            window: 2,
            stride: 2,
            pad: 0,
        };
        let (out, counts) = avg.apply([4, 8, 8]).unwrap();
        assert_eq!(out, [4, 4, 4]);
        assert_eq!((counts.macs, counts.writes), (64 * 4, 64));
        let (out, counts) = AnalogOp::Lrn { size: 5 }.apply([2, 4, 4]).unwrap();
        assert_eq!(out, [2, 4, 4]);
        assert_eq!(
            (counts.macs, counts.comparisons, counts.writes),
            (192, 0, 32)
        );
    }

    #[test]
    fn overflowing_counts_are_a_geometry_error() {
        let huge = AnalogOp::Lrn { size: usize::MAX };
        assert!(matches!(
            huge.apply([2, 4, 4]),
            Err(TensorError::InvalidGeometry { .. })
        ));
        let wide = AnalogOp::Conv {
            out_c: usize::MAX,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        assert!(wide.apply([2, 4, 4]).is_err());
    }

    #[test]
    fn digital_layers_have_no_analog_op() {
        assert_eq!(LayerSpec::Flatten { name: "f".into() }.analog_op(), None);
        let lrn = LayerSpec::Lrn {
            name: "n".into(),
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 1.0,
        };
        assert_eq!(lrn.analog_op(), Some(AnalogOp::Lrn { size: 5 }));
    }
}
