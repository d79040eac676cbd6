//! Splicing noise layers into a trained network at a partition cut.
//!
//! Mirrors the paper's Caffe modification: "we insert a Gaussian Noise Layer
//! to the output of each sampling layer, convolutional layer and
//! normalization layer" (and, per Fig. 9, the pooling modules), and "insert
//! the quantization noise layer where RedEye outputs the signal's digital
//! representation". Layers after the cut run on the digital host and stay
//! clean.

use crate::{GaussianNoise, QuantizationNoise, Result, SimError};
use redeye_analog::SnrDb;
use redeye_nn::{
    build_network, quantize_network_weights, LayerSpec, Network, NetworkSpec, Node, WeightInit,
};
use redeye_tensor::{NoiseStream, Rng, Tensor};

/// Options controlling instrumentation.
#[derive(Debug, Clone)]
pub struct InstrumentOptions {
    /// Gaussian SNR programmed into every analog (pre-cut) layer.
    pub snr: SnrDb,
    /// ADC resolution of the quantization layer inserted at the cut.
    pub adc_bits: u32,
    /// Name of the top-level layer after which RedEye quantizes and the
    /// host takes over.
    pub cut: String,
    /// Quantize weights to this many bits (the paper's 8-bit DAC grid);
    /// `None` leaves weights at full precision.
    pub weight_bits: Option<u32>,
    /// Whether to add sampling noise on the input ("data layer").
    pub noise_input: bool,
    /// Seed of the root [`NoiseStream`] all injected noise is keyed off.
    pub seed: u64,
    /// Per-layer SNR overrides (matched by exact layer name, including
    /// inception branch layers like `"inception_a/3x3"`); unlisted layers
    /// use `snr`.
    pub overrides: Vec<(String, SnrDb)>,
}

impl InstrumentOptions {
    /// The paper's default operating point: 40 dB, 4-bit ADC, 8-bit weights,
    /// input sampling noise on.
    pub fn paper_default(cut: impl Into<String>) -> Self {
        InstrumentOptions {
            snr: SnrDb::new(40.0),
            adc_bits: 4,
            cut: cut.into(),
            weight_bits: Some(8),
            noise_input: true,
            seed: 0,
            overrides: Vec::new(),
        }
    }

    /// The SNR programmed for a named layer.
    pub fn snr_for(&self, name: &str) -> SnrDb {
        self.overrides
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(self.snr)
    }
}

/// Extracts a network's parameters as a flat, ordered tensor list.
pub fn extract_params(net: &mut Network) -> Vec<Tensor> {
    let mut out = Vec::new();
    net.visit_params(&mut |p, _| out.push(p.clone()));
    out
}

/// Loads a flat parameter list back into a structurally identical network.
///
/// # Errors
///
/// Returns [`SimError::ParamMismatch`] if counts or shapes disagree.
pub fn load_params(net: &mut Network, params: &[Tensor]) -> Result<()> {
    let mut idx = 0usize;
    let mut error: Option<SimError> = None;
    net.visit_params(&mut |p, _| {
        if error.is_some() {
            return;
        }
        match params.get(idx) {
            Some(src) if src.dims() == p.dims() => {
                p.as_mut_slice().copy_from_slice(src.as_slice());
            }
            Some(src) => {
                error = Some(SimError::ParamMismatch {
                    reason: format!("param {idx}: shape {:?} vs {:?}", src.dims(), p.dims()),
                });
            }
            None => {
                error = Some(SimError::ParamMismatch {
                    reason: format!("params exhausted at index {idx}"),
                });
            }
        }
        idx += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if idx != params.len() {
        return Err(SimError::ParamMismatch {
            reason: format!("{} params supplied, {idx} consumed", params.len()),
        });
    }
    Ok(())
}

/// Whether this spec layer's output receives a Gaussian noise layer when it
/// executes on RedEye (conv modules, normalization, pooling — Fig. 9).
fn gets_noise(layer: &LayerSpec) -> bool {
    matches!(
        layer,
        LayerSpec::Conv { .. }
            | LayerSpec::Lrn { .. }
            | LayerSpec::MaxPool { .. }
            | LayerSpec::AvgPool { .. }
    )
}

/// Rebuilds a node list with noise layers spliced in. `specs` must parallel
/// `nodes` (as produced by `build_network`); `noise(name, snr)` makes the
/// next Gaussian noise layer.
fn splice(
    nodes: Vec<Node>,
    specs: &[LayerSpec],
    noisy: bool,
    opts: &InstrumentOptions,
    noise: &mut dyn FnMut(String, SnrDb) -> Node,
) -> Vec<Node> {
    let mut out = Vec::with_capacity(nodes.len() * 2);
    for (node, spec) in nodes.into_iter().zip(specs) {
        let inject_after = noisy && gets_noise(spec);
        match (node, spec) {
            (
                Node::Concat { name, branches },
                LayerSpec::Inception {
                    branches: bspecs, ..
                },
            ) => {
                let rebuilt = branches
                    .into_iter()
                    .zip(bspecs)
                    .map(|(branch, bspec)| {
                        let bname = branch.name().to_string();
                        let inner = splice(
                            {
                                let mut b = branch;
                                std::mem::take(b.nodes_mut())
                            },
                            bspec,
                            noisy,
                            opts,
                            noise,
                        );
                        Network::from_nodes(bname, inner)
                    })
                    .collect();
                out.push(Node::Concat {
                    name,
                    branches: rebuilt,
                });
                // Branch layers already received their own noise; the concat
                // itself is wiring, not a module.
            }
            (node, _) => {
                let name = format!("{}/noise", node.name());
                let snr = opts.snr_for(node.name());
                out.push(node);
                if inject_after {
                    out.push(noise(name, snr));
                }
            }
        }
    }
    out
}

/// Builds a noise-instrumented copy of `spec` loaded with `trained` params.
///
/// The returned network computes: input (+ sampling noise) → prefix layers,
/// each followed by a Gaussian noise layer at `opts.snr` → quantization
/// noise layer at `opts.adc_bits` → clean host suffix.
///
/// The Gaussian layers are numbered in DFS order (input noise first,
/// inception branches in branch order), and layer `k` draws frame `f`'s
/// noise from `NoiseStream::new(opts.seed).frame_substream(f).substream(k)`,
/// as the analog executor keys its noise stages. Use
/// [`Network::seek_frame`] to pick the frame an input is evaluated as.
///
/// # Example
///
/// ```
/// use redeye_nn::{build_network, zoo, WeightInit};
/// use redeye_sim::{extract_params, instrument, InstrumentOptions};
/// use redeye_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = zoo::micronet(4, 10);
/// let mut rng = Rng::seed_from(1);
/// let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng)?;
/// let params = extract_params(&mut net);
///
/// let opts = InstrumentOptions::paper_default("pool3");
/// let mut noisy = instrument(&spec, &params, &opts)?;
/// let scores = noisy.forward(&Tensor::full(&[3, 32, 32], 0.4))?;
/// assert_eq!(scores.dims(), &[10]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// - [`SimError::UnknownCut`] if `opts.cut` is not a top-level layer;
/// - [`SimError::ParamMismatch`] if `trained` does not match the spec.
pub fn instrument(
    spec: &NetworkSpec,
    trained: &[Tensor],
    opts: &InstrumentOptions,
) -> Result<Network> {
    let cut_pos = spec
        .position_of(&opts.cut)
        .ok_or_else(|| SimError::UnknownCut {
            name: opts.cut.clone(),
        })?;
    let mut net = build_network(spec, WeightInit::HeNormal, &mut Rng::seed_from(opts.seed))?;
    load_params(&mut net, trained)?;
    if let Some(bits) = opts.weight_bits {
        quantize_network_weights(&mut net, bits);
    }

    let nodes = std::mem::take(net.nodes_mut());
    let (prefix_nodes, suffix_nodes): (Vec<Node>, Vec<Node>) = {
        let mut prefix = Vec::new();
        let mut suffix = Vec::new();
        for (i, node) in nodes.into_iter().enumerate() {
            if i <= cut_pos {
                prefix.push(node);
            } else {
                suffix.push(node);
            }
        }
        (prefix, suffix)
    };

    let root = NoiseStream::new(opts.seed);
    let mut ordinal = 0u64;
    let mut noise = |name: String, snr: SnrDb| {
        ordinal += 1;
        Node::Layer(Box::new(GaussianNoise::new(name, snr, root, ordinal - 1)))
    };
    let mut rebuilt = Vec::new();
    if opts.noise_input {
        rebuilt.push(noise("input/noise".into(), opts.snr));
    }
    rebuilt.extend(splice(
        prefix_nodes,
        &spec.layers[..=cut_pos],
        true,
        opts,
        &mut noise,
    ));
    rebuilt.push(Node::Layer(Box::new(QuantizationNoise::new(
        format!("{}/quantize", opts.cut),
        opts.adc_bits,
    ))));
    rebuilt.extend(splice(
        suffix_nodes,
        &spec.layers[cut_pos + 1..],
        false,
        opts,
        &mut noise,
    ));

    Ok(Network::from_nodes(
        format!("{}@{}", spec.name, opts.cut),
        rebuilt,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_nn::zoo;

    fn trained_micronet() -> (NetworkSpec, Vec<Tensor>) {
        let spec = zoo::micronet(4, 10);
        let mut rng = Rng::seed_from(1);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let params = extract_params(&mut net);
        (spec, params)
    }

    #[test]
    fn instrument_adds_noise_and_quant_nodes() {
        let (spec, params) = trained_micronet();
        let opts = InstrumentOptions::paper_default("pool2");
        let net = instrument(&spec, &params, &opts).unwrap();
        let names = net.node_names().join(",");
        assert!(names.contains("input/noise"));
        assert!(names.contains("conv1/noise"));
        assert!(names.contains("pool2/quantize"));
        // Host-side conv3 gets no noise layer.
        assert!(!names.contains("conv3/noise"));
    }

    #[test]
    fn instrumented_output_shape_unchanged() {
        let (spec, params) = trained_micronet();
        let opts = InstrumentOptions::paper_default("pool2");
        let mut net = instrument(&spec, &params, &opts).unwrap();
        let out = net.forward(&Tensor::full(&[3, 32, 32], 0.4)).unwrap();
        assert_eq!(out.dims(), &[10]);
    }

    #[test]
    fn high_snr_instrumentation_is_nearly_transparent() {
        let (spec, params) = trained_micronet();
        let mut rng = Rng::seed_from(9);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);

        let mut clean = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        load_params(&mut clean, &params).unwrap();
        let reference = clean.forward(&input).unwrap();

        let opts = InstrumentOptions {
            snr: SnrDb::new(90.0),
            adc_bits: 12,
            weight_bits: None,
            noise_input: false,
            ..InstrumentOptions::paper_default("pool2")
        };
        let mut noisy = instrument(&spec, &params, &opts).unwrap();
        let out = noisy.forward(&input).unwrap();
        let rel = out.rms_error(&reference).unwrap() / (reference.power().unwrap().sqrt() + 1e-9);
        assert!(rel < 0.05, "relative error {rel} at 90 dB / 12-bit");
    }

    #[test]
    fn low_snr_perturbs_output() {
        let (spec, params) = trained_micronet();
        let mut rng = Rng::seed_from(10);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let run = |snr: f64, seed: u64| {
            let opts = InstrumentOptions {
                snr: SnrDb::new(snr),
                seed,
                ..InstrumentOptions::paper_default("pool2")
            };
            instrument(&spec, &params, &opts)
                .unwrap()
                .forward(&input)
                .unwrap()
        };
        let a = run(10.0, 1);
        let b = run(10.0, 2);
        assert!(a.rms_error(&b).unwrap() > 1e-3, "10 dB runs should differ");
    }

    #[test]
    fn inception_branches_receive_noise() {
        let spec = zoo::tiny_inception(10);
        let mut rng = Rng::seed_from(2);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let params = extract_params(&mut net);
        let opts = InstrumentOptions::paper_default("pool2");
        let mut noisy = instrument(&spec, &params, &opts).unwrap();
        // Run twice with different instrument seeds at low SNR: inception
        // branch noise must make outputs differ.
        let input = Tensor::full(&[3, 32, 32], 0.5);
        let a = noisy.forward(&input).unwrap();
        let opts2 = InstrumentOptions {
            seed: 99,
            snr: SnrDb::new(15.0),
            ..opts
        };
        let mut noisy2 = instrument(&spec, &params, &opts2).unwrap();
        let b = noisy2.forward(&input).unwrap();
        assert!(a.rms_error(&b).unwrap() > 0.0);
    }

    #[test]
    fn per_layer_overrides_apply() {
        let (spec, params) = trained_micronet();
        // Override conv1 to be essentially clean while the default is
        // catastrophic; a second instrumentation makes everything
        // catastrophic. The overridden pipeline must be closer to the clean
        // output.
        let mut rng = Rng::seed_from(31);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let mut clean = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        load_params(&mut clean, &params).unwrap();
        let reference = clean.forward(&input).unwrap();
        let run = |overrides: Vec<(String, SnrDb)>| {
            let opts = InstrumentOptions {
                snr: SnrDb::new(3.0),
                adc_bits: 10,
                weight_bits: None,
                noise_input: false,
                overrides,
                ..InstrumentOptions::paper_default("conv1")
            };
            // Cut right after conv1 so only conv1's noise matters.
            let mut net = instrument(&spec, &params, &opts).unwrap();
            net.forward(&input).unwrap().rms_error(&reference).unwrap()
        };
        let noisy = run(Vec::new());
        let protected = run(vec![("conv1".into(), SnrDb::new(90.0))]);
        assert!(
            protected < noisy / 3.0,
            "protected {protected} vs noisy {noisy}"
        );
    }

    #[test]
    fn unknown_cut_rejected() {
        let (spec, params) = trained_micronet();
        let opts = InstrumentOptions::paper_default("pool99");
        assert!(matches!(
            instrument(&spec, &params, &opts),
            Err(SimError::UnknownCut { .. })
        ));
    }

    #[test]
    fn param_mismatch_rejected() {
        let (spec, mut params) = trained_micronet();
        params.pop();
        let opts = InstrumentOptions::paper_default("pool2");
        assert!(matches!(
            instrument(&spec, &params, &opts),
            Err(SimError::ParamMismatch { .. })
        ));
    }
}
