//! Shape and operation-count propagation over network specs.
//!
//! The RedEye energy and timing models never need to *run* GoogLeNet — they
//! need its exact geometry: every layer's output shape, multiply–accumulate
//! count, comparator count, and parameter count. [`summarize`] derives these
//! from a [`NetworkSpec`] alone, which keeps the Fig. 7/8 energy sweeps fast.

use crate::{AnalogOp, LayerSpec, NetworkSpec, NnError, Result};

/// Per-layer statistics derived from shape propagation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerStats {
    /// Layer name (inception branches are flattened into their module).
    pub name: String,
    /// Compact kind tag: `conv`, `maxpool`, `avgpool`, `lrn`, `inception`,
    /// `flatten`, `linear`, `dropout`, `softmax`.
    pub kind: &'static str,
    /// Output shape after this layer.
    pub out_shape: Vec<usize>,
    /// Multiply–accumulate operations in this layer (convs and linears;
    /// for inception, the sum over branches).
    pub macs: u64,
    /// Pairwise comparator operations (max pooling; sum over branches).
    pub comparisons: u64,
    /// Analog memory *writes* this layer performs: one per produced value
    /// (including inception branch outputs). Drives buffer-module energy.
    pub writes: u64,
    /// Trainable parameter count.
    pub params: u64,
    /// Number of output elements.
    pub out_len: u64,
    /// Whether RedEye's analog pipeline can execute this layer.
    pub analog: bool,
}

/// Whole-network statistics: per-layer rows plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSummary {
    /// Network name from the spec.
    pub name: String,
    /// Input shape `[c, h, w]`.
    pub input: [usize; 3],
    /// One row per top-level layer, in execution order.
    pub layers: Vec<LayerStats>,
}

impl NetworkSummary {
    /// Total MACs across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Stats row for a named layer, if present.
    pub fn layer(&self, name: &str) -> Option<&LayerStats> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Totals over the prefix ending at (and including) `name`:
    /// `(macs, comparisons, writes, out_len_of_last)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] if the name does not resolve.
    pub fn prefix_totals(&self, name: &str) -> Result<PrefixTotals> {
        let pos = self
            .layers
            .iter()
            .position(|l| l.name == name)
            .ok_or_else(|| NnError::UnknownLayer { name: name.into() })?;
        let slice = &self.layers[..=pos];
        Ok(PrefixTotals {
            macs: slice.iter().map(|l| l.macs).sum(),
            comparisons: slice.iter().map(|l| l.comparisons).sum(),
            writes: slice.iter().map(|l| l.writes).sum(),
            out_len: slice[pos].out_len,
            out_shape: slice[pos].out_shape.clone(),
        })
    }
}

/// Aggregate operation counts over a network prefix (everything RedEye would
/// execute before the quantization module).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixTotals {
    /// Total multiply–accumulates in the prefix.
    pub macs: u64,
    /// Total max-pool comparisons in the prefix.
    pub comparisons: u64,
    /// Total analog memory writes in the prefix.
    pub writes: u64,
    /// Elements in the prefix's final output (the quantization workload).
    pub out_len: u64,
    /// Shape of the prefix's final output.
    pub out_shape: Vec<usize>,
}

/// Propagates shapes/ops through one layer. Returns the layer's stats and
/// updates the shape flowing into the next layer. Analog layers read their
/// shape and counts from the op table ([`AnalogOp::apply`]).
fn layer_stats(layer: &LayerSpec, shape: &mut ShapeState) -> Result<LayerStats> {
    if let Some(op) = layer.analog_op() {
        let in_shape = shape.spatial(layer.name())?;
        let (out_shape, counts) = op.apply(in_shape)?;
        *shape = ShapeState::Spatial(out_shape);
        // Only convolutions carry trainable weights: the kernel plus one
        // bias per output channel.
        let params = match op {
            AnalogOp::Conv { out_c, kernel, .. } => {
                (in_shape[0] * kernel * kernel * out_c + out_c) as u64
            }
            _ => 0,
        };
        return Ok(LayerStats {
            name: layer.name().to_string(),
            kind: op.kind(),
            out_shape: out_shape.to_vec(),
            macs: counts.macs,
            comparisons: counts.comparisons,
            writes: counts.writes,
            params,
            out_len: counts.writes,
            analog: true,
        });
    }
    match layer {
        LayerSpec::Conv { .. }
        | LayerSpec::MaxPool { .. }
        | LayerSpec::AvgPool { .. }
        | LayerSpec::Lrn { .. } => unreachable!("analog layers read the op table above"),
        LayerSpec::Inception { name, branches } => {
            let in_shape = shape.spatial(name)?;
            if branches.is_empty() {
                return Err(NnError::BadSpec {
                    reason: format!("inception `{name}` has no branches"),
                });
            }
            let mut total = LayerStats {
                name: name.clone(),
                kind: "inception",
                analog: true,
                ..LayerStats::default()
            };
            let mut out_c = 0usize;
            let mut out_hw: Option<(usize, usize)> = None;
            for (bi, branch) in branches.iter().enumerate() {
                let mut branch_shape = ShapeState::Spatial(in_shape);
                let mut branch_last = in_shape;
                for l in branch {
                    let stats = layer_stats(l, &mut branch_shape)?;
                    total.macs += stats.macs;
                    total.comparisons += stats.comparisons;
                    total.writes += stats.writes;
                    total.params += stats.params;
                    total.analog &= stats.analog;
                    branch_last = branch_shape.spatial(l.name())?;
                }
                let (h, w) = (branch_last[1], branch_last[2]);
                match out_hw {
                    None => out_hw = Some((h, w)),
                    Some(hw) if hw == (h, w) => {}
                    Some(hw) => {
                        return Err(NnError::BadSpec {
                            reason: format!(
                                "inception `{name}` branch {bi} output {h}x{w} \
                                 disagrees with {}x{}",
                                hw.0, hw.1
                            ),
                        })
                    }
                }
                out_c += branch_last[0];
            }
            let (h, w) = out_hw.expect("at least one branch");
            let out_shape = [out_c, h, w];
            total.out_shape = out_shape.to_vec();
            total.out_len = out_shape.iter().product::<usize>() as u64;
            *shape = ShapeState::Spatial(out_shape);
            Ok(total)
        }
        LayerSpec::Flatten { name } => {
            let len = shape.spatial(name)?.iter().product();
            *shape = ShapeState::Flat(len);
            Ok(LayerStats {
                name: name.clone(),
                kind: "flatten",
                out_shape: vec![len],
                out_len: len as u64,
                ..LayerStats::default()
            })
        }
        LayerSpec::Linear { name, out, .. } => {
            let in_len = shape.flat(name)?;
            *shape = ShapeState::Flat(*out);
            Ok(LayerStats {
                name: name.clone(),
                kind: "linear",
                out_shape: vec![*out],
                macs: (in_len * *out) as u64,
                writes: *out as u64,
                params: (in_len * *out + *out) as u64,
                out_len: *out as u64,
                ..LayerStats::default()
            })
        }
        LayerSpec::Dropout { name, .. } | LayerSpec::Softmax { name } => {
            let out_shape = shape.any();
            Ok(LayerStats {
                name: name.clone(),
                kind: if matches!(layer, LayerSpec::Dropout { .. }) {
                    "dropout"
                } else {
                    "softmax"
                },
                out_len: out_shape.iter().product::<usize>() as u64,
                out_shape,
                ..LayerStats::default()
            })
        }
    }
}

/// Shape flowing between layers: spatial `C×H×W` or a flat feature vector.
#[derive(Debug, Clone)]
enum ShapeState {
    Spatial([usize; 3]),
    Flat(usize),
}

impl ShapeState {
    fn spatial(&self, layer: &str) -> Result<[usize; 3]> {
        match self {
            ShapeState::Spatial(s) => Ok(*s),
            ShapeState::Flat(n) => Err(NnError::BadSpec {
                reason: format!("layer `{layer}` needs a CxHxW input but got a flat vector of {n}"),
            }),
        }
    }

    fn flat(&self, layer: &str) -> Result<usize> {
        match self {
            ShapeState::Flat(n) => Ok(*n),
            ShapeState::Spatial(s) => Err(NnError::BadSpec {
                reason: format!(
                    "layer `{layer}` needs a flat input but got {}x{}x{} \
                     (insert a Flatten layer)",
                    s[0], s[1], s[2]
                ),
            }),
        }
    }

    fn any(&self) -> Vec<usize> {
        match self {
            ShapeState::Spatial(s) => s.to_vec(),
            ShapeState::Flat(n) => vec![*n],
        }
    }
}

/// Propagates shapes through a spec, producing per-layer statistics.
///
/// # Errors
///
/// Returns [`NnError::BadSpec`] if any layer's geometry is inconsistent with
/// the shape flowing into it.
///
/// # Example
///
/// ```
/// use redeye_nn::{summarize, zoo};
///
/// let s = summarize(&zoo::googlenet()).unwrap();
/// assert!(s.total_macs() > 1_000_000_000, "GoogLeNet exceeds 1G MACs");
/// ```
pub fn summarize(spec: &NetworkSpec) -> Result<NetworkSummary> {
    let mut shape = ShapeState::Spatial(spec.input);
    let mut layers = Vec::with_capacity(spec.layers.len());
    for layer in &spec.layers {
        layers.push(layer_stats(layer, &mut shape)?);
    }
    Ok(NetworkSummary {
        name: spec.name.clone(),
        input: spec.input,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, out_c: usize, kernel: usize, stride: usize, pad: usize) -> LayerSpec {
        LayerSpec::Conv {
            name: name.into(),
            out_c,
            kernel,
            stride,
            pad,
            relu: true,
        }
    }

    #[test]
    fn conv_shape_and_macs() {
        let spec = NetworkSpec::new("t", [3, 227, 227], vec![conv("c1", 64, 7, 2, 3)]);
        let s = summarize(&spec).unwrap();
        assert_eq!(s.layers[0].out_shape, vec![64, 114, 114]);
        assert_eq!(s.layers[0].macs, 114 * 114 * 64 * 7 * 7 * 3);
        assert_eq!(s.layers[0].params, (7 * 7 * 3 * 64 + 64) as u64);
    }

    #[test]
    fn pool_uses_ceil_mode() {
        let spec = NetworkSpec::new(
            "t",
            [64, 114, 114],
            vec![LayerSpec::MaxPool {
                name: "p1".into(),
                window: 3,
                stride: 2,
                pad: 0,
            }],
        );
        let s = summarize(&spec).unwrap();
        assert_eq!(s.layers[0].out_shape, vec![64, 57, 57]);
        assert_eq!(s.layers[0].comparisons, 64 * 57 * 57 * 8);
    }

    #[test]
    fn inception_concatenates_channels() {
        let spec = NetworkSpec::new(
            "t",
            [16, 8, 8],
            vec![LayerSpec::Inception {
                name: "inc".into(),
                branches: vec![
                    vec![conv("a", 4, 1, 1, 0)],
                    vec![conv("b_red", 2, 1, 1, 0), conv("b", 6, 3, 1, 1)],
                ],
            }],
        );
        let s = summarize(&spec).unwrap();
        assert_eq!(s.layers[0].out_shape, vec![10, 8, 8]);
        let expected_macs = (8 * 8 * 4 * 16) + (8 * 8 * 2 * 16) + (8 * 8 * 6 * 9 * 2);
        assert_eq!(s.layers[0].macs, expected_macs as u64);
    }

    #[test]
    fn inception_rejects_mismatched_branches() {
        let spec = NetworkSpec::new(
            "t",
            [16, 8, 8],
            vec![LayerSpec::Inception {
                name: "inc".into(),
                branches: vec![
                    vec![conv("a", 4, 1, 1, 0)],
                    // stride-2 branch shrinks the plane → mismatch
                    vec![conv("b", 4, 3, 2, 1)],
                ],
            }],
        );
        assert!(matches!(summarize(&spec), Err(NnError::BadSpec { .. })));
    }

    #[test]
    fn flatten_then_linear() {
        let spec = NetworkSpec::new(
            "t",
            [2, 4, 4],
            vec![
                LayerSpec::Flatten { name: "f".into() },
                LayerSpec::Linear {
                    name: "fc".into(),
                    out: 10,
                    relu: false,
                },
            ],
        );
        let s = summarize(&spec).unwrap();
        assert_eq!(s.layers[1].out_shape, vec![10]);
        assert_eq!(s.layers[1].macs, 320);
        assert_eq!(s.layers[1].params, 330);
    }

    #[test]
    fn linear_without_flatten_is_an_error() {
        let spec = NetworkSpec::new(
            "t",
            [2, 4, 4],
            vec![LayerSpec::Linear {
                name: "fc".into(),
                out: 10,
                relu: false,
            }],
        );
        assert!(summarize(&spec).is_err());
    }

    #[test]
    fn prefix_totals_accumulate() {
        let spec = NetworkSpec::new(
            "t",
            [3, 16, 16],
            vec![
                conv("c1", 8, 3, 1, 1),
                LayerSpec::MaxPool {
                    name: "p1".into(),
                    window: 2,
                    stride: 2,
                    pad: 0,
                },
                conv("c2", 16, 3, 1, 1),
            ],
        );
        let s = summarize(&spec).unwrap();
        let t1 = s.prefix_totals("p1").unwrap();
        assert_eq!(t1.macs, s.layers[0].macs);
        assert_eq!(t1.out_shape, vec![8, 8, 8]);
        let t2 = s.prefix_totals("c2").unwrap();
        assert_eq!(t2.macs, s.layers[0].macs + s.layers[2].macs);
        assert!(s.prefix_totals("zzz").is_err());
    }
}
