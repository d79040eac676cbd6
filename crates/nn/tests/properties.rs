//! Property-based tests of the ConvNet framework's invariants.

use proptest::prelude::*;
use redeye_nn::{
    build_network, quantize_symmetric, softmax, summarize, LayerSpec, NetworkSpec, WeightInit,
};
use redeye_tensor::{Rng, Tensor};

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

proptest! {
    /// Built networks always produce the shape the summarizer predicts.
    #[test]
    fn built_shape_matches_summary(
        out_c in 1usize..6,
        kernel in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..100,
    ) {
        prop_assume!(12 + 2 * pad >= kernel);
        let spec = NetworkSpec::new(
            "p",
            [2, 12, 12],
            vec![
                conv("c1", out_c, kernel, stride, pad),
                LayerSpec::MaxPool { name: "p1".into(), window: 2, stride: 2, pad: 0 },
            ],
        );
        let summary = summarize(&spec).unwrap();
        let mut rng = Rng::seed_from(seed);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let out = net.forward(&Tensor::zeros(&[2, 12, 12])).unwrap();
        prop_assert_eq!(out.dims(), summary.layers.last().unwrap().out_shape);
    }

    /// Softmax is a probability distribution for any finite logits.
    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-30.0f32..30.0, 1..20)) {
        let t = Tensor::from_vec(logits.clone(), &[logits.len()]).unwrap();
        let p = softmax(&t).unwrap();
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    /// Softmax is invariant to a constant shift of the logits.
    #[test]
    fn softmax_shift_invariant(
        logits in prop::collection::vec(-10.0f32..10.0, 2..10),
        shift in -100.0f32..100.0,
    ) {
        let a = Tensor::from_vec(logits.clone(), &[logits.len()]).unwrap();
        let b = a.map(|v| v + shift);
        let pa = softmax(&a).unwrap();
        let pb = softmax(&b).unwrap();
        for (x, y) in pa.iter().zip(pb.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Quantization error is bounded by half a scale step.
    #[test]
    fn quantization_bounded(values in prop::collection::vec(-10.0f32..10.0, 1..64), bits in 2u32..12) {
        let q = quantize_symmetric(&values, bits);
        let deq = redeye_nn::dequantize_symmetric(&q);
        for (a, b) in values.iter().zip(&deq) {
            prop_assert!((a - b).abs() <= q.scale / 2.0 + 1e-6);
        }
    }

    /// MACs scale linearly with output channels.
    #[test]
    fn macs_linear_in_channels(out_c in 1usize..8, seed in 0u64..10) {
        let _ = seed;
        let spec_of = |c: usize| NetworkSpec::new(
            "p", [3, 16, 16], vec![conv("c1", c, 3, 1, 1)],
        );
        let one = summarize(&spec_of(1)).unwrap().total_macs();
        let many = summarize(&spec_of(out_c)).unwrap().total_macs();
        prop_assert_eq!(many, one * out_c as u64);
    }

    /// Forward inference is deterministic (no hidden state at eval time).
    #[test]
    fn inference_deterministic(seed in 0u64..100) {
        let spec = NetworkSpec::new(
            "p",
            [1, 8, 8],
            vec![
                conv("c1", 3, 3, 1, 1),
                LayerSpec::Lrn { name: "n".into(), size: 3, alpha: 1e-4, beta: 0.75, k: 1.0 },
                LayerSpec::MaxPool { name: "p1".into(), window: 2, stride: 2, pad: 0 },
            ],
        );
        let mut rng = Rng::seed_from(seed);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let x = Tensor::uniform(&[1, 8, 8], -1.0, 1.0, &mut rng);
        let a = net.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        prop_assert_eq!(a, b);
    }
}
