//! Realizing a declarative [`NetworkSpec`] into an executable [`Network`].

use crate::layers::{AvgPool2d, Conv2d, Dropout, Flatten, Linear, Lrn, MaxPool2d, Softmax};
use crate::{LayerSpec, Network, NetworkSpec, NnError, Node, Result, WeightInit};
use redeye_tensor::Rng;

/// Shape flowing between layers during construction.
#[derive(Debug, Clone, Copy)]
enum BuildShape {
    Spatial([usize; 3]),
    Flat(usize),
}

impl BuildShape {
    fn spatial(self, layer: &str) -> Result<[usize; 3]> {
        match self {
            BuildShape::Spatial(s) => Ok(s),
            BuildShape::Flat(_) => Err(NnError::BadSpec {
                reason: format!("layer `{layer}` needs a spatial input"),
            }),
        }
    }

    fn flat(self, layer: &str) -> Result<usize> {
        match self {
            BuildShape::Flat(n) => Ok(n),
            BuildShape::Spatial(_) => Err(NnError::BadSpec {
                reason: format!("layer `{layer}` needs a flat input (insert Flatten)"),
            }),
        }
    }
}

fn build_node(
    spec: &LayerSpec,
    shape: &mut BuildShape,
    init: WeightInit,
    rng: &mut Rng,
) -> Result<Node> {
    match spec {
        LayerSpec::Conv {
            name,
            out_c,
            kernel,
            stride,
            pad,
            relu,
        } => {
            let in_shape = shape.spatial(name)?;
            let conv = Conv2d::new(
                name.clone(),
                in_shape,
                *out_c,
                *kernel,
                *stride,
                *pad,
                *relu,
                init,
                rng,
            )?;
            *shape = BuildShape::Spatial(conv.out_shape());
            Ok(Node::Layer(Box::new(conv)))
        }
        LayerSpec::MaxPool {
            name,
            window,
            stride,
            pad,
        } => {
            let in_shape = shape.spatial(name)?;
            let pool = MaxPool2d::new(name.clone(), in_shape, *window, *stride, *pad)?;
            *shape = BuildShape::Spatial(pool.out_shape());
            Ok(Node::Layer(Box::new(pool)))
        }
        LayerSpec::AvgPool {
            name,
            window,
            stride,
            pad,
        } => {
            let in_shape = shape.spatial(name)?;
            let pool = AvgPool2d::new(name.clone(), in_shape, *window, *stride, *pad)?;
            *shape = BuildShape::Spatial(pool.out_shape());
            Ok(Node::Layer(Box::new(pool)))
        }
        LayerSpec::Lrn {
            name,
            size,
            alpha,
            beta,
            k,
        } => {
            shape.spatial(name)?;
            Ok(Node::Layer(Box::new(Lrn::new(
                name.clone(),
                *size,
                *alpha,
                *beta,
                *k,
            )?)))
        }
        LayerSpec::Inception { name, branches } => {
            let in_shape = shape.spatial(name)?;
            let mut built = Vec::with_capacity(branches.len());
            let mut out_c = 0usize;
            let mut out_hw: Option<(usize, usize)> = None;
            for (bi, branch) in branches.iter().enumerate() {
                let mut bshape = BuildShape::Spatial(in_shape);
                let mut nodes = Vec::with_capacity(branch.len());
                for l in branch {
                    nodes.push(build_node(l, &mut bshape, init, rng)?);
                }
                let out = bshape.spatial(name)?;
                match out_hw {
                    None => out_hw = Some((out[1], out[2])),
                    Some(hw) if hw == (out[1], out[2]) => {}
                    Some(_) => {
                        return Err(NnError::BadSpec {
                            reason: format!("inception `{name}` branch {bi} spatial mismatch"),
                        })
                    }
                }
                out_c += out[0];
                built.push(Network::from_nodes(format!("{name}/b{bi}"), nodes));
            }
            let (h, w) = out_hw.ok_or(NnError::BadSpec {
                reason: format!("inception `{name}` has no branches"),
            })?;
            *shape = BuildShape::Spatial([out_c, h, w]);
            Ok(Node::Concat {
                name: name.clone(),
                branches: built,
            })
        }
        LayerSpec::Flatten { name } => {
            let in_shape = shape.spatial(name)?;
            *shape = BuildShape::Flat(in_shape.iter().product());
            Ok(Node::Layer(Box::new(Flatten::new(name.clone()))))
        }
        LayerSpec::Linear { name, out, relu } => {
            let in_features = shape.flat(name)?;
            let layer = Linear::new(name.clone(), in_features, *out, *relu, init, rng);
            *shape = BuildShape::Flat(*out);
            Ok(Node::Layer(Box::new(layer)))
        }
        LayerSpec::Dropout { name, p } => Ok(Node::Layer(Box::new(Dropout::new(
            name.clone(),
            *p,
            rng.split(),
        )?))),
        LayerSpec::Softmax { name } => Ok(Node::Layer(Box::new(Softmax::new(name.clone())))),
    }
}

/// Builds an executable [`Network`] from a spec, initializing all weights
/// from `rng` with the given scheme.
///
/// # Errors
///
/// Returns [`NnError::BadSpec`] if the spec's geometry is inconsistent.
///
/// # Example
///
/// ```
/// use redeye_nn::{build_network, zoo, WeightInit};
/// use redeye_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), redeye_nn::NnError> {
/// let mut rng = Rng::seed_from(1);
/// let spec = zoo::micronet(8, 10);
/// let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng)?;
/// let probs = net.forward(&Tensor::zeros(&[3, 32, 32]))?;
/// assert_eq!(probs.dims(), &[10]);
/// # Ok(())
/// # }
/// ```
pub fn build_network(spec: &NetworkSpec, init: WeightInit, rng: &mut Rng) -> Result<Network> {
    let mut shape = BuildShape::Spatial(spec.input);
    let mut nodes = Vec::with_capacity(spec.layers.len());
    for layer in &spec.layers {
        nodes.push(build_node(layer, &mut shape, init, rng)?);
    }
    Ok(Network::from_nodes(spec.name.clone(), nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize;
    use redeye_tensor::Tensor;

    #[test]
    fn built_network_matches_summary_shapes() {
        let spec = crate::zoo::micronet(8, 10);
        let summary = summarize(&spec).unwrap();
        let mut rng = Rng::seed_from(3);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let [c, h, w] = spec.input;
        let out = net.forward(&Tensor::zeros(&[c, h, w])).unwrap();
        assert_eq!(out.dims(), summary.layers.last().unwrap().out_shape);
    }

    #[test]
    fn built_param_count_matches_summary() {
        let spec = crate::zoo::micronet(8, 10);
        let summary = summarize(&spec).unwrap();
        let mut rng = Rng::seed_from(4);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        assert_eq!(net.param_count() as u64, summary.total_params());
    }

    #[test]
    fn inception_network_builds_and_runs() {
        let spec = crate::zoo::tiny_inception(10);
        let mut rng = Rng::seed_from(5);
        let mut net = build_network(&spec, WeightInit::HeNormal, &mut rng).unwrap();
        let [c, h, w] = spec.input;
        let out = net.forward(&Tensor::full(&[c, h, w], 0.1)).unwrap();
        let summary = summarize(&spec).unwrap();
        assert_eq!(out.dims(), summary.layers.last().unwrap().out_shape);
        // Softmax head: probabilities sum to 1.
        assert!((out.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bad_spec_is_rejected() {
        let spec = NetworkSpec::new(
            "bad",
            [3, 8, 8],
            vec![LayerSpec::Linear {
                name: "fc".into(),
                out: 4,
                relu: false,
            }],
        );
        let mut rng = Rng::seed_from(6);
        assert!(build_network(&spec, WeightInit::HeNormal, &mut rng).is_err());
    }
}
