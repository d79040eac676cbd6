//! The GoogLeNet partition depths of Fig. 6.
//!
//! RedEye executes the prefix of the network up to a *depth cut*; the
//! remainder runs on the digital host. The paper evaluates five cuts. The
//! exact cut points are not fully specified in the paper; we use the
//! assignment that reproduces its published payload numbers (the Depth4
//! feature payload of 14×14×512 values reproduces the paper's BLE figures
//! exactly — see DESIGN.md):
//!
//! | Depth | Last RedEye layer | Output |
//! |---|---|---|
//! | 1 | `norm1` (conv1 + pool1 + LRN) | 64×57×57 |
//! | 2 | `pool2` (conv2 stack) | 192×28×28 |
//! | 3 | `pool3` (inception 3a + 3b) | 480×14×14 |
//! | 4 | `inception_4a` | 512×14×14 |
//! | 5 | `inception_4b` | 512×14×14 |
//!
//! GoogLeNet branches to an auxiliary classifier in this region, which is
//! why the paper's design "is unable to execute further than the first 5
//! layers".

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the five RedEye partition depths of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Depth {
    /// conv1 + pool1 + norm1.
    D1,
    /// + conv2_reduce + conv2 + norm2 + pool2.
    D2,
    /// + inception 3a, 3b + pool3.
    D3,
    /// + inception 4a.
    D4,
    /// + inception 4b.
    D5,
}

impl Depth {
    /// All five depths in order.
    pub const ALL: [Depth; 5] = [Depth::D1, Depth::D2, Depth::D3, Depth::D4, Depth::D5];

    /// The name of the last GoogLeNet layer RedEye executes at this depth:
    /// `spec.prefix_through(cut)` is the RedEye prefix and
    /// `spec.suffix_after(cut)` the host suffix.
    pub fn cut_layer(self) -> &'static str {
        match self {
            Depth::D1 => "norm1",
            Depth::D2 => "pool2",
            Depth::D3 => "pool3",
            Depth::D4 => "inception_4a",
            Depth::D5 => "inception_4b",
        }
    }

    /// 1-based index (for report tables).
    pub fn index(self) -> usize {
        match self {
            Depth::D1 => 1,
            Depth::D2 => 2,
            Depth::D3 => 3,
            Depth::D4 => 4,
            Depth::D5 => 5,
        }
    }
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Depth{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_nn::{summarize, zoo};

    #[test]
    fn cut_output_shapes_match_paper() {
        let spec = zoo::googlenet();
        let summary = summarize(&spec).unwrap();
        let expect = [
            (Depth::D1, vec![64usize, 57, 57]),
            (Depth::D2, vec![192, 28, 28]),
            (Depth::D3, vec![480, 14, 14]),
            (Depth::D4, vec![512, 14, 14]),
            (Depth::D5, vec![512, 14, 14]),
        ];
        for (depth, shape) in expect {
            let totals = summary.prefix_totals(depth.cut_layer()).unwrap();
            assert_eq!(totals.out_shape, shape, "{depth}");
        }
    }

    #[test]
    fn depth4_payload_reproduces_ble_anchor() {
        // 14×14×512 values at 4 bits = 401,408 bits — 26.0% of the raw
        // 227×227×3×10-bit frame, which is exactly the paper's 33.7 mJ /
        // 129.42 mJ = 0.26 BLE energy ratio.
        let spec = zoo::googlenet();
        let summary = summarize(&spec).unwrap();
        let d4 = summary.prefix_totals(Depth::D4.cut_layer()).unwrap();
        let redeye_bits = d4.out_len * 4;
        let raw_bits = 227 * 227 * 3 * 10u64;
        let ratio = redeye_bits as f64 / raw_bits as f64;
        assert!((ratio - 0.26).abs() < 0.005, "payload ratio {ratio}");
    }

    #[test]
    fn partition_splits_cleanly() {
        let spec = zoo::googlenet();
        for depth in Depth::ALL {
            let prefix = spec.prefix_through(depth.cut_layer()).unwrap();
            let suffix = spec.suffix_after(depth.cut_layer()).unwrap();
            assert_eq!(
                prefix.layers.len() + suffix.layers.len(),
                spec.layers.len(),
                "{depth}"
            );
            assert_eq!(prefix.layers.last().unwrap().name(), depth.cut_layer());
            // Every prefix layer is analog-executable.
            assert!(prefix
                .layers
                .iter()
                .all(redeye_nn::LayerSpec::analog_executable));
        }
        // A spec without GoogLeNet's layer names has no cut.
        let micronet = zoo::micronet(8, 10);
        assert!(micronet.prefix_through(Depth::D4.cut_layer()).is_none());
    }

    #[test]
    fn depths_are_ordered_and_displayed() {
        assert!(Depth::D1 < Depth::D5);
        assert_eq!(Depth::D3.to_string(), "Depth3");
        assert_eq!(Depth::ALL.len(), 5);
    }
}
