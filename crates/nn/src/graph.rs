//! Executable network graph: a chain of layers with inception-style
//! channel-concatenated parallel branches.

use crate::{Layer, NnError, Result};
use redeye_tensor::Tensor;

/// One node of an executable network.
pub enum Node {
    /// A single layer.
    Layer(Box<dyn Layer>),
    /// Parallel branches whose `C×H×W` outputs are concatenated along the
    /// channel axis (GoogLeNet inception).
    Concat {
        /// Module name.
        name: String,
        /// The parallel branch sub-networks.
        branches: Vec<Network>,
    },
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            Node::Layer(l) => l.name(),
            Node::Concat { name, .. } => name,
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Layer(l) => write!(f, "Layer({})", l.name()),
            Node::Concat { name, branches } => {
                write!(f, "Concat({name}, {} branches)", branches.len())
            }
        }
    }
}

/// Concatenates `C×H×W` tensors along the channel axis.
fn concat_channels(parts: &[Tensor]) -> Result<Tensor> {
    let first = parts.first().ok_or(NnError::BadSpec {
        reason: "concat of zero branches".into(),
    })?;
    let dims = first.dims();
    if dims.len() != 3 {
        return Err(NnError::BadSpec {
            reason: format!("concat expects CxHxW tensors, got {dims:?}"),
        });
    }
    let (h, w) = (dims[1], dims[2]);
    let mut total_c = 0usize;
    for p in parts {
        let d = p.dims();
        if d.len() != 3 || d[1] != h || d[2] != w {
            return Err(NnError::BadSpec {
                reason: format!("concat branch shape {d:?} incompatible with {h}x{w}"),
            });
        }
        total_c += d[0];
    }
    let mut data = Vec::with_capacity(total_c * h * w);
    for p in parts {
        data.extend_from_slice(p.as_slice());
    }
    Ok(Tensor::from_vec(data, &[total_c, h, w])?)
}

/// Splits a `C×H×W` gradient back into per-branch channel groups.
fn split_channels(grad: &Tensor, channel_counts: &[usize]) -> Result<Vec<Tensor>> {
    let dims = grad.dims();
    let (h, w) = (dims[1], dims[2]);
    let mut out = Vec::with_capacity(channel_counts.len());
    let mut offset = 0usize;
    for &c in channel_counts {
        let len = c * h * w;
        let slice = grad.as_slice()[offset..offset + len].to_vec();
        out.push(Tensor::from_vec(slice, &[c, h, w])?);
        offset += len;
    }
    Ok(out)
}

/// Execution trace of one node, retained for the backward pass.
#[derive(Debug)]
pub enum NodeTrace {
    /// A single layer's output.
    Layer {
        /// The layer's output tensor.
        output: Tensor,
    },
    /// A concat node's output plus each branch's own trace.
    Concat {
        /// Concatenated output.
        output: Tensor,
        /// Per-branch traces.
        branches: Vec<Trace>,
        /// Channel count of each branch output (for gradient splitting).
        channels: Vec<usize>,
    },
}

impl NodeTrace {
    /// The node's output tensor.
    pub fn output(&self) -> &Tensor {
        match self {
            NodeTrace::Layer { output } | NodeTrace::Concat { output, .. } => output,
        }
    }
}

/// Full forward trace of a network: the input plus each node's trace.
#[derive(Debug)]
pub struct Trace {
    /// The network input.
    pub input: Tensor,
    /// Per-node traces in execution order.
    pub nodes: Vec<NodeTrace>,
}

impl Trace {
    /// The final output of the traced forward pass.
    ///
    /// Returns the input itself for an empty network.
    pub fn output(&self) -> &Tensor {
        self.nodes.last().map_or(&self.input, NodeTrace::output)
    }
}

/// An executable network: an ordered chain of [`Node`]s.
///
/// Built from a [`crate::NetworkSpec`] via [`crate::build_network`], or
/// assembled manually (the simulation crate splices noise layers in this
/// way).
pub struct Network {
    name: String,
    nodes: Vec<Node>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl Network {
    /// Creates a network from nodes.
    pub fn from_nodes(name: impl Into<String>, nodes: Vec<Node>) -> Self {
        Network {
            name: name.into(),
            nodes,
        }
    }

    /// An empty network that passes input through unchanged.
    pub fn identity(name: impl Into<String>) -> Self {
        Network::from_nodes(name, Vec::new())
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node chain.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to the node chain (used for splicing noise layers).
    pub fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }

    /// Number of top-level nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Runs a plain forward pass (no trace retained).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for node in &mut self.nodes {
            x = match node {
                Node::Layer(layer) => layer.forward(&x)?,
                Node::Concat { branches, .. } => {
                    let outs: Result<Vec<Tensor>> =
                        branches.iter_mut().map(|b| b.forward(&x)).collect();
                    concat_channels(&outs?)?
                }
            };
        }
        Ok(x)
    }

    /// Runs a forward pass retaining every intermediate activation for a
    /// subsequent [`Network::backward`].
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward_trace(&mut self, input: &Tensor) -> Result<Trace> {
        let mut traces = Vec::with_capacity(self.nodes.len());
        let mut x = input.clone();
        for node in &mut self.nodes {
            let trace = match node {
                Node::Layer(layer) => {
                    let output = layer.forward(&x)?;
                    NodeTrace::Layer { output }
                }
                Node::Concat { branches, .. } => {
                    let mut branch_traces = Vec::with_capacity(branches.len());
                    let mut outs = Vec::with_capacity(branches.len());
                    for b in branches.iter_mut() {
                        let t = b.forward_trace(&x)?;
                        outs.push(t.output().clone());
                        branch_traces.push(t);
                    }
                    let channels = outs.iter().map(|o| o.dims()[0]).collect();
                    NodeTrace::Concat {
                        output: concat_channels(&outs)?,
                        branches: branch_traces,
                        channels,
                    }
                }
            };
            x = trace.output().clone();
            traces.push(trace);
        }
        Ok(Trace {
            input: input.clone(),
            nodes: traces,
        })
    }

    /// Backpropagates `grad_out` through the network using a trace from
    /// [`Network::forward_trace`], accumulating parameter gradients, and
    /// returns the gradient w.r.t. the network input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the trace does not match the network.
    pub fn backward(&mut self, trace: &Trace, grad_out: &Tensor) -> Result<Tensor> {
        if trace.nodes.len() != self.nodes.len() {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "trace has {} nodes but network has {}",
                    trace.nodes.len(),
                    self.nodes.len()
                ),
            });
        }
        let mut grad = grad_out.clone();
        for (i, node) in self.nodes.iter_mut().enumerate().rev() {
            let node_input = if i == 0 {
                &trace.input
            } else {
                trace.nodes[i - 1].output()
            };
            grad = match (node, &trace.nodes[i]) {
                (Node::Layer(layer), NodeTrace::Layer { output }) => {
                    layer.backward(node_input, output, &grad)?
                }
                (
                    Node::Concat { branches, .. },
                    NodeTrace::Concat {
                        branches: branch_traces,
                        channels,
                        ..
                    },
                ) => {
                    let grads = split_channels(&grad, channels)?;
                    let mut acc: Option<Tensor> = None;
                    for ((b, t), g) in branches.iter_mut().zip(branch_traces).zip(&grads) {
                        let gi = b.backward(t, g)?;
                        acc = Some(match acc {
                            None => gi,
                            Some(a) => a.add(&gi)?,
                        });
                    }
                    acc.ok_or(NnError::BadSpec {
                        reason: "concat of zero branches".into(),
                    })?
                }
                _ => {
                    return Err(NnError::BadInput {
                        layer: self.name.clone(),
                        reason: format!("trace/network structure mismatch at node {i}"),
                    })
                }
            };
        }
        Ok(grad)
    }

    /// Calls `f` on every layer, in node order, recursing into concat
    /// branches in branch order. Parameter order (`visit_params`, and the
    /// weight banks built from it) is this order.
    fn for_each_layer(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for node in &mut self.nodes {
            match node {
                Node::Layer(layer) => f(layer.as_mut()),
                Node::Concat { branches, .. } => {
                    for b in branches {
                        b.for_each_layer(f);
                    }
                }
            }
        }
    }

    /// Visits every `(parameter, gradient)` pair in the network.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.for_each_layer(&mut |layer| layer.visit_params(visitor));
    }

    /// Clears all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        self.for_each_layer(&mut |layer| layer.zero_grads());
    }

    /// Switches every layer between training and inference behaviour.
    pub fn set_training(&mut self, training: bool) {
        self.for_each_layer(&mut |layer| layer.set_training(training));
    }

    /// Sets the GEMM thread budget on every layer (recursing into concat
    /// branches). Results are bit-identical across budgets; small products
    /// ignore the budget and stay serial, so this is safe to set high on
    /// networks with a mix of layer sizes.
    pub fn set_threads(&mut self, threads: usize) {
        self.for_each_layer(&mut |layer| layer.set_threads(threads));
    }

    /// Makes the next [`Network::forward`] draw frame `frame`'s noise in
    /// every noise layer ([`Layer::seek_frame`]), as
    /// `BatchExecutor::seek_frame` positions the analog executor.
    pub fn seek_frame(&mut self, frame: u64) {
        self.for_each_layer(&mut |layer| layer.seek_frame(frame));
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0usize;
        self.visit_params(&mut |p, _| count += p.len());
        count
    }

    /// Names of all top-level nodes in order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(Node::name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, MaxPool2d, Relu};
    use crate::WeightInit;
    use redeye_tensor::Rng;

    fn conv(name: &str, in_shape: [usize; 3], out_c: usize, seed: u64) -> Box<dyn Layer> {
        let mut rng = Rng::seed_from(seed);
        Box::new(
            Conv2d::new(
                name,
                in_shape,
                out_c,
                3,
                1,
                1,
                false,
                WeightInit::XavierUniform,
                &mut rng,
            )
            .unwrap(),
        )
    }

    #[test]
    fn sequential_forward() {
        let mut net = Network::from_nodes(
            "t",
            vec![
                Node::Layer(conv("c1", [1, 6, 6], 2, 1)),
                Node::Layer(Box::new(Relu::new("r1"))),
                Node::Layer(Box::new(MaxPool2d::new("p1", [2, 6, 6], 2, 2, 0).unwrap())),
            ],
        );
        let x = Tensor::full(&[1, 6, 6], 0.5);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 3]);
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn concat_stacks_channels() {
        let mut net = Network::from_nodes(
            "t",
            vec![Node::Concat {
                name: "inc".into(),
                branches: vec![
                    Network::from_nodes("a", vec![Node::Layer(conv("a1", [1, 4, 4], 2, 2))]),
                    Network::from_nodes("b", vec![Node::Layer(conv("b1", [1, 4, 4], 3, 3))]),
                ],
            }],
        );
        let x = Tensor::full(&[1, 4, 4], 1.0);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[5, 4, 4]);
    }

    #[test]
    fn trace_output_matches_forward() {
        let mut net = Network::from_nodes(
            "t",
            vec![
                Node::Layer(conv("c1", [1, 6, 6], 2, 4)),
                Node::Layer(Box::new(Relu::new("r1"))),
            ],
        );
        let x = Tensor::full(&[1, 6, 6], 0.3);
        let fwd = net.forward(&x).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.output(), &fwd);
        assert_eq!(trace.nodes.len(), 2);
    }

    #[test]
    fn backward_through_concat_matches_finite_differences() {
        let mut net = Network::from_nodes(
            "t",
            vec![Node::Concat {
                name: "inc".into(),
                branches: vec![
                    Network::from_nodes("a", vec![Node::Layer(conv("a1", [1, 3, 3], 1, 5))]),
                    Network::from_nodes("b", vec![Node::Layer(conv("b1", [1, 3, 3], 2, 6))]),
                ],
            }],
        );
        let mut rng = Rng::seed_from(7);
        let x = Tensor::uniform(&[1, 3, 3], -1.0, 1.0, &mut rng);
        let trace = net.forward_trace(&x).unwrap();
        let ones = Tensor::full(trace.output().dims(), 1.0);
        let dx = net.backward(&trace, &ones).unwrap();
        assert_eq!(dx.dims(), x.dims());
        let eps = 1e-2f32;
        for idx in 0..9 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric =
                (net.forward(&xp).unwrap().sum() - net.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 1e-2,
                "grad {idx}: numeric {numeric} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_rejects_mismatched_trace() {
        let mut net1 = Network::from_nodes("a", vec![Node::Layer(conv("c", [1, 3, 3], 1, 8))]);
        let mut net2 = Network::identity("b");
        let x = Tensor::zeros(&[1, 3, 3]);
        let trace = net1.forward_trace(&x).unwrap();
        assert!(net2.backward(&trace, &x).is_err());
    }

    #[test]
    fn param_count_counts_everything() {
        let mut net = Network::from_nodes("t", vec![Node::Layer(conv("c1", [1, 4, 4], 2, 9))]);
        // 2 output channels × (1·3·3) patch + 2 biases = 20.
        assert_eq!(net.param_count(), 20);
    }

    /// A pass-through layer that logs each `seek_frame` it receives.
    struct FrameProbe {
        name: String,
        seen: std::sync::Arc<std::sync::Mutex<Vec<(String, u64)>>>,
    }

    impl Layer for FrameProbe {
        fn name(&self) -> &str {
            &self.name
        }

        fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn seek_frame(&mut self, frame: u64) {
            self.seen.lock().unwrap().push((self.name.clone(), frame));
        }
    }

    #[test]
    fn seek_frame_walks_every_layer_in_parameter_order() {
        let seen = std::sync::Arc::default();
        let probe = |name: &str| {
            Node::Layer(Box::new(FrameProbe {
                name: name.into(),
                seen: std::sync::Arc::clone(&seen),
            }) as Box<dyn Layer>)
        };
        let mut net = Network::from_nodes(
            "t",
            vec![
                probe("a"),
                Node::Concat {
                    name: "inc".into(),
                    branches: vec![
                        Network::from_nodes("b", vec![probe("b1"), probe("b2")]),
                        Network::from_nodes("c", vec![probe("c1")]),
                    ],
                },
                probe("d"),
            ],
        );
        net.seek_frame(7);
        let want: Vec<(String, u64)> = ["a", "b1", "b2", "c1", "d"]
            .map(|n| (n.to_string(), 7))
            .into();
        assert_eq!(*seen.lock().unwrap(), want);
    }

    #[test]
    fn identity_network_passes_through() {
        let mut net = Network::identity("id");
        let x = Tensor::full(&[2, 2], 1.5);
        assert_eq!(net.forward(&x).unwrap(), x);
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.output(), &x);
    }
}
