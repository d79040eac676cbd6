//! Max and average pooling layers.

use crate::{Layer, NnError, Result};
use redeye_tensor::{PoolGeom, Tensor};

fn check_input(name: &str, geom: &PoolGeom, input: &Tensor) -> Result<()> {
    let expect = [geom.channels(), geom.in_h(), geom.in_w()];
    if input.dims() != expect {
        return Err(NnError::BadInput {
            layer: name.to_string(),
            reason: format!("expected {expect:?}, got {:?}", input.dims()),
        });
    }
    Ok(())
}

/// Iterates the valid (in-bounds) taps of one pooling window.
fn window_taps(geom: &PoolGeom, oy: usize, ox: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let stride = geom.stride();
    let pad = geom.pad() as isize;
    let (h, w) = (geom.in_h() as isize, geom.in_w() as isize);
    let win = geom.window();
    (0..win).flat_map(move |ky| {
        (0..win).filter_map(move |kx| {
            let y = (oy * stride + ky) as isize - pad;
            let x = (ox * stride + kx) as isize - pad;
            if y >= 0 && y < h && x >= 0 && x < w {
                Some((y as usize, x as usize))
            } else {
                None
            }
        })
    })
}

/// Max pooling over a square window (Caffe ceil-mode geometry), mirroring
/// RedEye's max-pooling module.
///
/// The layer caches each window's argmax during `forward` so `backward` can
/// route gradients; call `forward` before `backward` for the same input.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    geom: PoolGeom,
    /// Per-output linear index of the winning input element, cached by the
    /// most recent `forward`.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the window/stride/pad are inconsistent
    /// with the input shape.
    pub fn new(
        name: impl Into<String>,
        in_shape: [usize; 3],
        window: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        let [c, h, w] = in_shape;
        let geom = PoolGeom::new(c, h, w, window, stride, pad)?;
        Ok(MaxPool2d {
            name: name.into(),
            geom,
            argmax: Vec::new(),
        })
    }

    /// Output shape `[c, out_h, out_w]`.
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geom.channels(), self.geom.out_h(), self.geom.out_w()]
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        check_input(&self.name, &self.geom, input)?;
        let g = &self.geom;
        let (in_h, in_w) = (g.in_h(), g.in_w());
        let src = input.as_slice();
        let mut out = Vec::with_capacity(g.out_len());
        self.argmax.clear();
        self.argmax.reserve(g.out_len());
        for c in 0..g.channels() {
            let plane = c * in_h * in_w;
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let mut best_val = f32::NEG_INFINITY;
                    let mut best_idx = plane;
                    for (y, x) in window_taps(g, oy, ox) {
                        let idx = plane + y * in_w + x;
                        if src[idx] > best_val {
                            best_val = src[idx];
                            best_idx = idx;
                        }
                    }
                    out.push(best_val);
                    self.argmax.push(best_idx);
                }
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[g.channels(), g.out_h(), g.out_w()],
        )?)
    }

    fn backward(&mut self, input: &Tensor, _output: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        if self.argmax.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: "backward called without a matching forward".into(),
            });
        }
        let mut grad_in = Tensor::zeros(input.dims());
        let g = grad_in.as_mut_slice();
        for (&idx, &gv) in self.argmax.iter().zip(grad_out.iter()) {
            g[idx] += gv;
        }
        Ok(grad_in)
    }
}

/// Average pooling over a square window; out-of-bounds taps are excluded from
/// the mean (only GoogLeNet's global 7×7 pool uses this, where it makes no
/// difference).
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    geom: PoolGeom,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the window/stride/pad are inconsistent
    /// with the input shape.
    pub fn new(
        name: impl Into<String>,
        in_shape: [usize; 3],
        window: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        let [c, h, w] = in_shape;
        let geom = PoolGeom::new(c, h, w, window, stride, pad)?;
        Ok(AvgPool2d {
            name: name.into(),
            geom,
        })
    }

    /// Output shape `[c, out_h, out_w]`.
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geom.channels(), self.geom.out_h(), self.geom.out_w()]
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        check_input(&self.name, &self.geom, input)?;
        let g = &self.geom;
        let (in_h, in_w) = (g.in_h(), g.in_w());
        let src = input.as_slice();
        let mut out = Vec::with_capacity(g.out_len());
        for c in 0..g.channels() {
            let plane = c * in_h * in_w;
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let mut acc = 0.0f32;
                    let mut count = 0usize;
                    for (y, x) in window_taps(g, oy, ox) {
                        acc += src[plane + y * in_w + x];
                        count += 1;
                    }
                    out.push(if count > 0 { acc / count as f32 } else { 0.0 });
                }
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[g.channels(), g.out_h(), g.out_w()],
        )?)
    }

    fn backward(&mut self, input: &Tensor, _output: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        let g = &self.geom;
        let (in_h, in_w) = (g.in_h(), g.in_w());
        let mut grad_in = Tensor::zeros(input.dims());
        let gi = grad_in.as_mut_slice();
        let go = grad_out.as_slice();
        let mut out_idx = 0usize;
        for c in 0..g.channels() {
            let plane = c * in_h * in_w;
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let taps: Vec<(usize, usize)> = window_taps(g, oy, ox).collect();
                    if !taps.is_empty() {
                        let share = go[out_idx] / taps.len() as f32;
                        for (y, x) in taps {
                            gi[plane + y * in_w + x] += share;
                        }
                    }
                    out_idx += 1;
                }
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut l = MaxPool2d::new("p", [1, 4, 4], 2, 2, 0).unwrap();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool2d::new("p", [1, 2, 2], 2, 2, 0).unwrap();
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        let g = Tensor::full(y.dims(), 2.5);
        let dx = l.backward(&x, &y, &g).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_without_forward_errors() {
        let mut l = MaxPool2d::new("p", [1, 2, 2], 2, 2, 0).unwrap();
        let x = Tensor::zeros(&[1, 2, 2]);
        let g = Tensor::zeros(&[1, 1, 1]);
        assert!(l.backward(&x, &g, &g).is_err());
    }

    #[test]
    fn ceil_mode_partial_windows() {
        // 5x5 input, 2x2 window stride 2 → ceil((5-2)/2)+1 = 3 outputs.
        let mut l = MaxPool2d::new("p", [1, 5, 5], 2, 2, 0).unwrap();
        let x = Tensor::from_vec((0..25).map(|v| v as f32).collect(), &[1, 5, 5]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 3, 3]);
        // Bottom-right output sees only element (4,4) = 24.
        assert_eq!(y.at(&[0, 2, 2]).unwrap(), 24.0);
    }

    #[test]
    fn avgpool_global_mean() {
        let mut l = AvgPool2d::new("ga", [2, 3, 3], 3, 1, 0).unwrap();
        let mut data = vec![1.0f32; 9];
        data.extend(vec![2.0f32; 9]);
        let x = Tensor::from_vec(data, &[2, 3, 3]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 1, 1]);
        assert_eq!(y.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn avgpool_backward_distributes_evenly() {
        let mut l = AvgPool2d::new("ga", [1, 2, 2], 2, 2, 0).unwrap();
        let x = Tensor::full(&[1, 2, 2], 3.0);
        let y = l.forward(&x).unwrap();
        let g = Tensor::full(y.dims(), 4.0);
        let dx = l.backward(&x, &y, &g).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn wrong_shape_rejected() {
        let mut l = MaxPool2d::new("p", [1, 4, 4], 2, 2, 0).unwrap();
        assert!(l.forward(&Tensor::zeros(&[1, 3, 4])).is_err());
    }
}
