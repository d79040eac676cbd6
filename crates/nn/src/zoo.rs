//! Model zoo: the network topologies the RedEye paper evaluates, plus small
//! trainable networks for functional experiments.
//!
//! GoogLeNet and AlexNet are described at the paper's 227×227 input
//! resolution. These descriptors carry exact geometry (and therefore exact
//! MAC/readout workloads) for the energy model; the small networks
//! ([`micronet`], [`tiny_inception`]) are cheap enough to *train and run*
//! with noise injection.

use crate::{LayerSpec, NetworkSpec};

/// Caffe's default LRN parameters, used by both GoogLeNet and AlexNet.
const LRN_ALPHA: f32 = 1e-4;
const LRN_BETA: f32 = 0.75;
const LRN_K: f32 = 1.0;

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

fn maxpool(name: &str, window: usize, stride: usize, pad: usize) -> LayerSpec {
    LayerSpec::MaxPool {
        name: name.into(),
        window,
        stride,
        pad,
    }
}

fn lrn(name: &str) -> LayerSpec {
    LayerSpec::Lrn {
        name: name.into(),
        size: 5,
        alpha: LRN_ALPHA,
        beta: LRN_BETA,
        k: LRN_K,
    }
}

/// A GoogLeNet inception module: `1×1`, `1×1→3×3`, `1×1→5×5`, and
/// `maxpool→1×1` branches concatenated along channels.
pub fn inception(
    name: &str,
    c1: usize,
    c3_reduce: usize,
    c3: usize,
    c5_reduce: usize,
    c5: usize,
    pool_proj: usize,
) -> LayerSpec {
    LayerSpec::Inception {
        name: name.into(),
        branches: vec![
            vec![conv(&format!("{name}/1x1"), c1, 1, 1, 0)],
            vec![
                conv(&format!("{name}/3x3_reduce"), c3_reduce, 1, 1, 0),
                conv(&format!("{name}/3x3"), c3, 3, 1, 1),
            ],
            vec![
                conv(&format!("{name}/5x5_reduce"), c5_reduce, 1, 1, 0),
                conv(&format!("{name}/5x5"), c5, 5, 1, 2),
            ],
            vec![
                LayerSpec::MaxPool {
                    name: format!("{name}/pool"),
                    window: 3,
                    stride: 1,
                    pad: 1,
                },
                conv(&format!("{name}/pool_proj"), pool_proj, 1, 1, 0),
            ],
        ],
    }
}

/// The full GoogLeNet (Szegedy et al. 2014) topology at the paper's 227×227
/// input resolution, through the softmax classifier.
///
/// Layer names follow the Caffe model so partition cuts read naturally
/// (`conv1`, `pool1`, `inception_3a`, …).
pub fn googlenet() -> NetworkSpec {
    NetworkSpec::new(
        "googlenet",
        [3, 227, 227],
        vec![
            conv("conv1", 64, 7, 2, 3),
            maxpool("pool1", 3, 2, 0),
            lrn("norm1"),
            conv("conv2_reduce", 64, 1, 1, 0),
            conv("conv2", 192, 3, 1, 1),
            lrn("norm2"),
            maxpool("pool2", 3, 2, 0),
            inception("inception_3a", 64, 96, 128, 16, 32, 32),
            inception("inception_3b", 128, 128, 192, 32, 96, 64),
            maxpool("pool3", 3, 2, 0),
            inception("inception_4a", 192, 96, 208, 16, 48, 64),
            inception("inception_4b", 160, 112, 224, 24, 64, 64),
            inception("inception_4c", 128, 128, 256, 24, 64, 64),
            inception("inception_4d", 112, 144, 288, 32, 64, 64),
            inception("inception_4e", 256, 160, 320, 32, 128, 128),
            maxpool("pool4", 3, 2, 0),
            inception("inception_5a", 256, 160, 320, 32, 128, 128),
            inception("inception_5b", 384, 192, 384, 48, 128, 128),
            LayerSpec::AvgPool {
                name: "pool5".into(),
                window: 7,
                stride: 1,
                pad: 0,
            },
            LayerSpec::Dropout {
                name: "drop".into(),
                p: 0.4,
            },
            LayerSpec::Flatten {
                name: "flatten".into(),
            },
            LayerSpec::Linear {
                name: "classifier".into(),
                out: 1000,
                relu: false,
            },
            LayerSpec::Softmax {
                name: "prob".into(),
            },
        ],
    )
}

/// AlexNet (Krizhevsky et al. 2012) at 227×227, without the historical
/// two-GPU channel grouping (full connectivity, as later re-implementations
/// use). The paper reports evaluating RedEye on AlexNet "with similar
/// findings".
pub fn alexnet() -> NetworkSpec {
    NetworkSpec::new(
        "alexnet",
        [3, 227, 227],
        vec![
            conv("conv1", 96, 11, 4, 0),
            lrn("norm1"),
            maxpool("pool1", 3, 2, 0),
            conv("conv2", 256, 5, 1, 2),
            lrn("norm2"),
            maxpool("pool2", 3, 2, 0),
            conv("conv3", 384, 3, 1, 1),
            conv("conv4", 384, 3, 1, 1),
            conv("conv5", 256, 3, 1, 1),
            maxpool("pool5", 3, 2, 0),
            LayerSpec::Flatten {
                name: "flatten".into(),
            },
            LayerSpec::Linear {
                name: "fc6".into(),
                out: 4096,
                relu: true,
            },
            LayerSpec::Dropout {
                name: "drop6".into(),
                p: 0.5,
            },
            LayerSpec::Linear {
                name: "fc7".into(),
                out: 4096,
                relu: true,
            },
            LayerSpec::Dropout {
                name: "drop7".into(),
                p: 0.5,
            },
            LayerSpec::Linear {
                name: "fc8".into(),
                out: 1000,
                relu: false,
            },
            LayerSpec::Softmax {
                name: "prob".into(),
            },
        ],
    )
}

/// A small trainable ConvNet over 32×32×3 inputs with the GoogLeNet layer
/// vocabulary (conv/ReLU/LRN/maxpool), ending in *logits* (train with the
/// fused softmax-cross-entropy head).
///
/// `base_c` scales the channel widths; `classes` sets the output size.
pub fn micronet(base_c: usize, classes: usize) -> NetworkSpec {
    NetworkSpec::new(
        "micronet",
        [3, 32, 32],
        vec![
            conv("conv1", base_c, 5, 1, 2),
            maxpool("pool1", 2, 2, 0),
            lrn("norm1"),
            conv("conv2", base_c * 2, 3, 1, 1),
            maxpool("pool2", 2, 2, 0),
            conv("conv3", base_c * 4, 3, 1, 1),
            maxpool("pool3", 2, 2, 0),
            LayerSpec::Flatten {
                name: "flatten".into(),
            },
            LayerSpec::Linear {
                name: "fc".into(),
                out: classes,
                relu: false,
            },
        ],
    )
}

/// A small trainable network containing a real inception module, used to
/// exercise the RedEye compiler and executor on branch-and-concat dataflow.
/// Ends in a softmax (probabilities).
pub fn tiny_inception(classes: usize) -> NetworkSpec {
    NetworkSpec::new(
        "tiny_inception",
        [3, 32, 32],
        vec![
            conv("conv1", 16, 3, 1, 1),
            maxpool("pool1", 2, 2, 0),
            inception("inception_a", 8, 8, 16, 4, 8, 8),
            maxpool("pool2", 2, 2, 0),
            LayerSpec::Flatten {
                name: "flatten".into(),
            },
            LayerSpec::Linear {
                name: "fc".into(),
                out: classes,
                relu: false,
            },
            LayerSpec::Softmax {
                name: "prob".into(),
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize;

    #[test]
    fn googlenet_front_geometry_matches_paper() {
        let s = summarize(&googlenet()).unwrap();
        assert_eq!(s.layer("conv1").unwrap().out_shape, vec![64, 114, 114]);
        assert_eq!(s.layer("pool1").unwrap().out_shape, vec![64, 57, 57]);
        assert_eq!(s.layer("conv2").unwrap().out_shape, vec![192, 57, 57]);
        assert_eq!(s.layer("pool2").unwrap().out_shape, vec![192, 28, 28]);
        assert_eq!(
            s.layer("inception_3a").unwrap().out_shape,
            vec![256, 28, 28]
        );
        assert_eq!(
            s.layer("inception_3b").unwrap().out_shape,
            vec![480, 28, 28]
        );
        assert_eq!(s.layer("pool3").unwrap().out_shape, vec![480, 14, 14]);
        assert_eq!(
            s.layer("inception_4a").unwrap().out_shape,
            vec![512, 14, 14]
        );
        assert_eq!(
            s.layer("inception_4b").unwrap().out_shape,
            vec![512, 14, 14]
        );
        assert_eq!(s.layer("inception_5b").unwrap().out_shape, vec![1024, 7, 7]);
        assert_eq!(s.layers.last().unwrap().out_shape, &[1000]);
    }

    #[test]
    fn googlenet_macs_in_expected_range() {
        // Standard GoogLeNet is ~1.6G MACs at 224²; at 227² slightly more.
        let s = summarize(&googlenet()).unwrap();
        let macs = s.total_macs();
        assert!(
            (1_400_000_000..2_200_000_000).contains(&macs),
            "GoogLeNet MACs {macs}"
        );
    }

    #[test]
    fn googlenet_params_in_expected_range() {
        // GoogLeNet has ~7M parameters (13M with our full-res 1024→1000 head
        // counted once; the convolutional body is ~6M).
        let s = summarize(&googlenet()).unwrap();
        let params = s.total_params();
        assert!(
            (5_000_000..9_000_000).contains(&params),
            "GoogLeNet params {params}"
        );
    }

    #[test]
    fn alexnet_geometry() {
        let s = summarize(&alexnet()).unwrap();
        assert_eq!(s.layer("conv1").unwrap().out_shape, vec![96, 55, 55]);
        assert_eq!(s.layer("pool1").unwrap().out_shape, vec![96, 27, 27]);
        assert_eq!(s.layer("conv2").unwrap().out_shape, vec![256, 27, 27]);
        assert_eq!(s.layer("pool5").unwrap().out_shape, vec![256, 6, 6]);
        assert_eq!(s.layers.last().unwrap().out_shape, &[1000]);
        // AlexNet without grouping: ~60M+ params dominated by fc6.
        assert!(s.total_params() > 50_000_000);
    }

    #[test]
    fn micronet_is_small() {
        let s = summarize(&micronet(8, 10)).unwrap();
        assert!(s.total_params() < 100_000);
        assert_eq!(s.layers.last().unwrap().out_shape, &[10]);
    }

    #[test]
    fn tiny_inception_output_channels() {
        let s = summarize(&tiny_inception(10)).unwrap();
        assert_eq!(s.layer("inception_a").unwrap().out_shape, vec![40, 16, 16]);
    }

    #[test]
    fn googlenet_prefix_is_analog_executable() {
        let spec = googlenet();
        let prefix = spec.prefix_through("inception_4b").unwrap();
        assert!(prefix.layers.iter().all(LayerSpec::analog_executable));
        // The suffix contains host-only layers.
        let suffix = spec.suffix_after("inception_4b").unwrap();
        assert!(!suffix.layers.iter().all(LayerSpec::analog_executable));
    }
}
