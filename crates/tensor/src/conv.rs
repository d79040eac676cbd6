//! Convolution and pooling geometry plus the `im2col`/`col2im` lowering.
//!
//! Output spatial sizes follow the Caffe conventions the RedEye paper's
//! framework used: convolutions round *down* and poolings round *up*
//! ([`RoundMode`]), which is what makes GoogLeNet's 227×227 pipeline produce
//! the 57×57 / 28×28 / 14×14 planes the paper reports.

use crate::{Tensor, TensorError};
use std::fmt;

/// How a fractional output extent is rounded.
///
/// Caffe rounds convolution outputs down and pooling outputs up; both modes
/// are needed to reproduce GoogLeNet's feature-map sizes exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RoundMode {
    /// Round down (Caffe convolution).
    Floor,
    /// Round up (Caffe pooling).
    Ceil,
}

impl RoundMode {
    fn apply(self, numerator: usize, denominator: usize) -> usize {
        match self {
            RoundMode::Floor => numerator / denominator,
            RoundMode::Ceil => numerator.div_ceil(denominator),
        }
    }
}

/// Checks that the product of `dims` fits in `usize`.
fn check_size(what: &str, dims: [usize; 3]) -> Result<(), TensorError> {
    match dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)) {
        Some(_) => Ok(()),
        None => Err(TensorError::InvalidGeometry {
            reason: format!(
                "{what} size {}x{}x{} overflows usize",
                dims[0], dims[1], dims[2]
            ),
        }),
    }
}

/// Geometry of a 2-D convolution over a `C×H×W` input.
///
/// # Example
///
/// ```
/// use redeye_tensor::ConvGeom;
///
/// // GoogLeNet conv1: 7×7 stride 2 pad 3 over a 227×227 frame.
/// let g = ConvGeom::new(3, 227, 227, 7, 7, 2, 3).unwrap();
/// assert_eq!((g.out_h(), g.out_w()), (114, 114));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeom {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    kernel_h: usize,
    kernel_w: usize,
    stride: usize,
    pad: usize,
    out_h: usize,
    out_w: usize,
}

impl ConvGeom {
    /// Builds a convolution geometry, validating all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the stride is zero, a
    /// kernel extent is zero, the padded input is smaller than the kernel,
    /// or the padded extent, patch length, input size or output size
    /// (`in_c·out_h·out_w`) overflows `usize`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        Self::with_round(
            in_c,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            pad,
            RoundMode::Floor,
        )
    }

    /// Like [`ConvGeom::new`], with an explicit output rounding mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvGeom::new`].
    #[allow(clippy::too_many_arguments)]
    fn with_round(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        pad: usize,
        round: RoundMode,
    ) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be positive".into(),
            });
        }
        if kernel_h == 0 || kernel_w == 0 || in_c == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel ({kernel_h}x{kernel_w}) and channels ({in_c}) must be positive"
                ),
            });
        }
        let padded = |extent: usize| pad.checked_mul(2).and_then(|p| p.checked_add(extent));
        let (Some(padded_h), Some(padded_w)) = (padded(in_h), padded(in_w)) else {
            return Err(TensorError::InvalidGeometry {
                reason: format!("input {in_h}x{in_w} with pad {pad} overflows usize"),
            });
        };
        if padded_h < kernel_h || padded_w < kernel_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "padded input {padded_h}x{padded_w} smaller than kernel {kernel_h}x{kernel_w}"
                ),
            });
        }
        let out_h = round.apply(padded_h - kernel_h, stride) + 1;
        let out_w = round.apply(padded_w - kernel_w, stride) + 1;
        // Callers multiply these sizes out; `in_c·out_h·out_w` is also a
        // pool's output length.
        check_size("patch", [in_c, kernel_h, kernel_w])?;
        check_size("input", [in_c, in_h, in_w])?;
        check_size("output", [in_c, out_h, out_w])?;
        Ok(ConvGeom {
            in_c,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            pad,
            out_h,
            out_w,
        })
    }

    /// Input channel count.
    pub fn in_c(&self) -> usize {
        self.in_c
    }
    /// Input height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }
    /// Input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }
    /// Kernel height.
    pub fn kernel_h(&self) -> usize {
        self.kernel_h
    }
    /// Kernel width.
    pub fn kernel_w(&self) -> usize {
        self.kernel_w
    }
    /// Stride (identical in both axes).
    pub fn stride(&self) -> usize {
        self.stride
    }
    /// Zero padding (identical on all sides).
    pub fn pad(&self) -> usize {
        self.pad
    }
    /// Output height.
    pub fn out_h(&self) -> usize {
        self.out_h
    }
    /// Output width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// Elements in one receptive field: `in_c · kernel_h · kernel_w`.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kernel_h * self.kernel_w
    }

    /// Number of output spatial positions: `out_h · out_w`.
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Multiply–accumulate operations for `out_c` output channels.
    ///
    /// This is the quantity the RedEye energy model charges per frame.
    pub fn macs(&self, out_c: usize) -> u64 {
        self.out_positions() as u64 * self.patch_len() as u64 * out_c as u64
    }
}

impl fmt::Display for ConvGeom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} -> k{}x{} s{} p{} -> {}x{}",
            self.in_c,
            self.in_h,
            self.in_w,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.pad,
            self.out_h,
            self.out_w
        )
    }
}

/// Geometry of a 2-D pooling window (Caffe ceil-mode by default).
///
/// # Example
///
/// ```
/// use redeye_tensor::PoolGeom;
///
/// // GoogLeNet pool1: 3×3 stride 2 over 114×114 → 57×57 (ceil mode).
/// let g = PoolGeom::new(64, 114, 114, 3, 2, 0).unwrap();
/// assert_eq!((g.out_h(), g.out_w()), (57, 57));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeom {
    inner: ConvGeom,
}

impl PoolGeom {
    /// Builds a pooling geometry with Caffe's ceil rounding.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] under the same conditions as
    /// [`ConvGeom::new`].
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        let inner = ConvGeom::with_round(
            channels,
            in_h,
            in_w,
            window,
            window,
            stride,
            pad,
            RoundMode::Ceil,
        )?;
        Ok(PoolGeom { inner })
    }

    /// Channel count (pooling preserves it).
    pub fn channels(&self) -> usize {
        self.inner.in_c()
    }
    /// Input height.
    pub fn in_h(&self) -> usize {
        self.inner.in_h()
    }
    /// Input width.
    pub fn in_w(&self) -> usize {
        self.inner.in_w()
    }
    /// Square window extent.
    pub fn window(&self) -> usize {
        self.inner.kernel_h()
    }
    /// Stride.
    pub fn stride(&self) -> usize {
        self.inner.stride()
    }
    /// Padding.
    pub fn pad(&self) -> usize {
        self.inner.pad()
    }
    /// Output height.
    pub fn out_h(&self) -> usize {
        self.inner.out_h()
    }
    /// Output width.
    pub fn out_w(&self) -> usize {
        self.inner.out_w()
    }

    /// Pairwise comparisons the max-pool comparator performs per frame.
    pub fn comparisons(&self) -> u64 {
        let per_window = (self.window() * self.window()).saturating_sub(1) as u64;
        self.channels() as u64 * self.out_h() as u64 * self.out_w() as u64 * per_window
    }

    /// Output element count.
    pub fn out_len(&self) -> usize {
        self.channels() * self.out_h() * self.out_w()
    }
}

/// Lowers a `C×H×W` input into the `(patch_len × out_positions)` matrix whose
/// columns are receptive-field patches, enabling convolution as matmul.
///
/// Out-of-bounds (padding) taps contribute zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not `C×H×W` matching
/// `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeom) -> Result<Tensor, TensorError> {
    let mut out = Vec::new();
    im2col_into(input, geom, &mut out)?;
    Tensor::from_vec(out, &[geom.patch_len(), geom.out_positions()])
}

/// Allocation-free variant of [`im2col`]: lowers into a caller-owned buffer.
///
/// `out` is cleared and refilled with the `(patch_len × out_positions)`
/// matrix in row-major order; its capacity is reused across calls, so a
/// buffer held in a [`crate::Workspace`] reaches a steady state with zero
/// per-call heap allocations. Padding taps are written as zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not `C×H×W` matching
/// `geom`.
pub fn im2col_into(input: &Tensor, geom: &ConvGeom, out: &mut Vec<f32>) -> Result<(), TensorError> {
    let expected = [geom.in_c(), geom.in_h(), geom.in_w()];
    if input.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: expected.to_vec(),
        });
    }
    let src = input.as_slice();
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (stride, pad) = (geom.stride(), geom.pad());
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let cols = geom.out_positions();
    let rows = geom.patch_len();
    // Every element below is written exactly once (padding taps explicitly
    // as zeros), so the buffer is only *sized* here, never pre-zeroed: at
    // steady state `resize` is a no-op and the old full-buffer zero-fill —
    // pure overhead at pad == 0, where no padding taps exist — is gone.
    out.resize(rows * cols, 0.0);
    let mut row = 0usize;
    for c in 0..geom.in_c() {
        let plane = &src[c * in_h * in_w..(c + 1) * in_h * in_w];
        for ky in 0..geom.kernel_h() {
            for kx in 0..geom.kernel_w() {
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..out_h {
                    let y = (oy * stride + ky) as isize - pad as isize;
                    let dst = &mut out_row[oy * out_w..(oy + 1) * out_w];
                    if y < 0 || y as usize >= in_h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[y as usize * in_w..(y as usize + 1) * in_w];
                    // In-bounds ox range: 0 ≤ ox·stride + kx − pad < in_w.
                    let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(out_w);
                    let ox_hi = if in_w + pad > kx {
                        ((in_w + pad - kx - 1) / stride + 1).clamp(ox_lo, out_w)
                    } else {
                        ox_lo
                    };
                    dst[..ox_lo].fill(0.0);
                    if ox_hi > ox_lo {
                        // Non-empty span ⇒ ox_lo·stride + kx ≥ pad, so the
                        // tap offsets below cannot underflow.
                        if stride == 1 {
                            // Contiguous: taps advance with ox one-to-one.
                            let x0 = ox_lo + kx - pad;
                            dst[ox_lo..ox_hi].copy_from_slice(&src_row[x0..x0 + (ox_hi - ox_lo)]);
                        } else {
                            for (ox, slot) in dst[ox_lo..ox_hi].iter_mut().enumerate() {
                                *slot = src_row[(ox_lo + ox) * stride + kx - pad];
                            }
                        }
                    }
                    dst[ox_hi..].fill(0.0);
                }
                row += 1;
            }
        }
    }
    Ok(())
}

/// Inverse of [`im2col`]: scatters a patch matrix back onto a `C×H×W` plane,
/// *accumulating* overlapping contributions. Used by the convolution backward
/// pass to form input gradients.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` is not the
/// `(patch_len × out_positions)` matrix implied by `geom`.
pub fn col2im(cols: &Tensor, geom: &ConvGeom) -> Result<Tensor, TensorError> {
    let mut out = Vec::new();
    col2im_into(cols.as_slice(), cols.dims(), geom, &mut out)?;
    Tensor::from_vec(out, &[geom.in_c(), geom.in_h(), geom.in_w()])
}

/// Allocation-free variant of [`col2im`]: scatters into a caller-owned
/// buffer held in a workspace arena, so a training loop's backward pass
/// reaches a steady state with zero per-call heap allocations for the
/// scatter target. `out` is resized to `C·H·W` and fully re-zeroed before
/// accumulation (the scatter adds overlapping contributions).
///
/// `cols` is the raw `(patch_len × out_positions)` gradient matrix with
/// `cols_dims` stating its logical shape.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols_dims` is not the
/// `(patch_len × out_positions)` shape implied by `geom`.
pub fn col2im_into(
    cols: &[f32],
    cols_dims: &[usize],
    geom: &ConvGeom,
    out: &mut Vec<f32>,
) -> Result<(), TensorError> {
    let expected = [geom.patch_len(), geom.out_positions()];
    if cols_dims != expected {
        return Err(TensorError::ShapeMismatch {
            left: cols_dims.to_vec(),
            right: expected.to_vec(),
        });
    }
    let (in_h, in_w) = (geom.in_h() as isize, geom.in_w() as isize);
    let n_cols = geom.out_positions();
    out.resize(geom.in_c() * geom.in_h() * geom.in_w(), 0.0);
    out.fill(0.0);
    let mut row = 0usize;
    for c in 0..geom.in_c() {
        let plane_base = c * geom.in_h() * geom.in_w();
        for ky in 0..geom.kernel_h() {
            for kx in 0..geom.kernel_w() {
                let src_row = &cols[row * n_cols..(row + 1) * n_cols];
                let mut col = 0usize;
                for oy in 0..geom.out_h() {
                    let y = (oy * geom.stride() + ky) as isize - geom.pad() as isize;
                    for ox in 0..geom.out_w() {
                        let x = (ox * geom.stride() + kx) as isize - geom.pad() as isize;
                        if y >= 0 && y < in_h && x >= 0 && x < in_w {
                            out[plane_base + y as usize * geom.in_w() + x as usize] += src_row[col];
                        }
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul;

    #[test]
    fn googlenet_front_sizes() {
        // conv1 7x7/2 pad 3 over 227 → 114 (floor mode).
        let c1 = ConvGeom::new(3, 227, 227, 7, 7, 2, 3).unwrap();
        assert_eq!((c1.out_h(), c1.out_w()), (114, 114));
        // pool1 3x3/2 over 114 → 57 (ceil mode).
        let p1 = PoolGeom::new(64, 114, 114, 3, 2, 0).unwrap();
        assert_eq!((p1.out_h(), p1.out_w()), (57, 57));
        // pool2 3x3/2 over 57 → 28 (ceil mode; floor would give 28 too... check 57: (57-3)=54, 54/2=27 → 28).
        let p2 = PoolGeom::new(192, 57, 57, 3, 2, 0).unwrap();
        assert_eq!((p2.out_h(), p2.out_w()), (28, 28));
        // pool3 3x3/2 over 28 → 14 (ceil: (28-3)/2=12.5→13 → 14).
        let p3 = PoolGeom::new(480, 28, 28, 3, 2, 0).unwrap();
        assert_eq!((p3.out_h(), p3.out_w()), (14, 14));
    }

    #[test]
    fn geometry_validation() {
        assert!(ConvGeom::new(3, 8, 8, 3, 3, 0, 1).is_err());
        assert!(ConvGeom::new(3, 2, 2, 5, 5, 1, 0).is_err());
        assert!(ConvGeom::new(0, 8, 8, 3, 3, 1, 0).is_err());
        assert!(ConvGeom::new(3, 2, 2, 5, 5, 1, 2).is_ok());
    }

    #[test]
    fn oversized_geometry_is_a_typed_error() {
        let invalid = |r: Result<(), TensorError>| {
            assert!(
                matches!(r, Err(TensorError::InvalidGeometry { .. })),
                "{r:?}"
            );
        };
        let conv = |c, h, w, k, s, p| ConvGeom::new(c, h, w, k, k, s, p).map(|_| ());
        let pool = |c, h, w, k, s, p| PoolGeom::new(c, h, w, k, s, p).map(|_| ());
        let huge = usize::MAX / 4;
        // `in + 2·pad` overflows.
        invalid(conv(3, 8, 8, 3, 1, usize::MAX / 2));
        invalid(pool(3, 8, 8, 3, 2, usize::MAX / 2));
        // `in_c·kh·kw` and `in_c·in_h·in_w` overflow.
        invalid(conv(huge, 8, 8, 3, 1, 1));
        invalid(pool(huge, 8, 8, 2, 2, 0));
        // Only the padded output `in_c·out_h·out_w` (21×21 per channel)
        // overflows.
        invalid(conv(usize::MAX / 100, 1, 1, 1, 1, 10));
        assert!(conv(usize::MAX / 1000, 1, 1, 1, 1, 10).is_ok());
    }

    #[test]
    fn macs_counting() {
        let g = ConvGeom::new(3, 227, 227, 7, 7, 2, 3).unwrap();
        // 114*114*64*7*7*3 = 122,280,192 MACs for conv1.
        assert_eq!(g.macs(64), 114 * 114 * 64 * 7 * 7 * 3);
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no pad is a plain reshape.
        let input = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]).unwrap();
        let g = ConvGeom::new(3, 2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[3, 4]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_padding_zeros() {
        let input = Tensor::full(&[1, 1, 1], 5.0);
        let g = ConvGeom::new(1, 1, 1, 3, 3, 1, 1).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 1]);
        // Only the center tap sees the pixel; the 8 padded taps are zero.
        assert_eq!(cols.sum(), 5.0);
        assert_eq!(cols.at(&[4, 0]).unwrap(), 5.0);
    }

    #[test]
    fn conv_as_matmul_matches_direct() {
        // Direct 2-D convolution vs im2col+matmul on a small case.
        let mut rng = crate::Rng::seed_from(11);
        let input = Tensor::uniform(&[2, 5, 5], -1.0, 1.0, &mut rng);
        let g = ConvGeom::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let weights = Tensor::uniform(&[4, g.patch_len()], -0.5, 0.5, &mut rng);
        let cols = im2col(&input, &g).unwrap();
        let out = matmul(&weights, &cols).unwrap();
        assert_eq!(out.dims(), &[4, 25]);

        // Direct computation for output channel 1, position (2,3).
        let (oc, oy, ox) = (1usize, 2usize, 3usize);
        let mut acc = 0.0f32;
        let mut widx = 0usize;
        for c in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let y = oy as isize + ky as isize - 1;
                    let x = ox as isize + kx as isize - 1;
                    if (0..5).contains(&y) && (0..5).contains(&x) {
                        acc += weights.at(&[oc, widx]).unwrap()
                            * input.at(&[c, y as usize, x as usize]).unwrap();
                    }
                    widx += 1;
                }
            }
        }
        let got = out.at(&[oc, oy * 5 + ox]).unwrap();
        assert!((got - acc).abs() < 1e-4, "direct {acc} vs matmul {got}");
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        // that makes the conv backward pass correct.
        let mut rng = crate::Rng::seed_from(13);
        let x = Tensor::uniform(&[2, 4, 4], -1.0, 1.0, &mut rng);
        let g = ConvGeom::new(2, 4, 4, 3, 3, 2, 1).unwrap();
        let y = Tensor::uniform(&[g.patch_len(), g.out_positions()], -1.0, 1.0, &mut rng);
        let lhs: f32 = im2col(&x, &g)
            .unwrap()
            .iter()
            .zip(y.iter())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .iter()
            .zip(col2im(&y, &g).unwrap().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The obvious per-element gather, kept as the oracle for the
    /// span-optimized `im2col_into` rewrite.
    fn im2col_naive(input: &Tensor, geom: &ConvGeom) -> Vec<f32> {
        let src = input.as_slice();
        let (in_h, in_w) = (geom.in_h() as isize, geom.in_w() as isize);
        let mut out = vec![0.0f32; geom.patch_len() * geom.out_positions()];
        let mut row = 0usize;
        for c in 0..geom.in_c() {
            let plane = &src[c * geom.in_h() * geom.in_w()..];
            for ky in 0..geom.kernel_h() {
                for kx in 0..geom.kernel_w() {
                    for oy in 0..geom.out_h() {
                        for ox in 0..geom.out_w() {
                            let y = (oy * geom.stride() + ky) as isize - geom.pad() as isize;
                            let x = (ox * geom.stride() + kx) as isize - geom.pad() as isize;
                            if y >= 0 && y < in_h && x >= 0 && x < in_w {
                                out[row * geom.out_positions() + oy * geom.out_w() + ox] =
                                    plane[y as usize * geom.in_w() + x as usize];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        out
    }

    #[test]
    fn im2col_matches_naive_across_edge_geometries() {
        let mut rng = crate::Rng::seed_from(23);
        // (c, h, w, kh, kw, stride, pad): stride/pad edges, non-square
        // kernels, a kernel wider than the input (all-pad rows), and the
        // GoogLeNet conv1 class 7×7/2 pad 3.
        for &(c, h, w, kh, kw, s, p) in &[
            (2usize, 5usize, 5usize, 3usize, 3usize, 1usize, 1usize),
            (3, 8, 6, 3, 3, 2, 0),
            (1, 7, 7, 5, 5, 3, 2),
            (2, 4, 4, 1, 1, 1, 0),
            (1, 1, 1, 7, 7, 1, 3),
            (1, 3, 1, 3, 7, 1, 3),
            (3, 11, 9, 7, 7, 2, 3),
            (2, 6, 6, 2, 3, 2, 1),
        ] {
            let geom = ConvGeom::new(c, h, w, kh, kw, s, p).unwrap();
            let input = Tensor::uniform(&[c, h, w], -1.0, 1.0, &mut rng);
            let mut got = Vec::new();
            im2col_into(&input, &geom, &mut got).unwrap();
            assert_eq!(got, im2col_naive(&input, &geom), "{geom}");
        }
    }

    #[test]
    fn im2col_buffer_shrinks_and_regrows_correctly() {
        // A buffer left over from a larger layer must not leak stale values
        // into a smaller lowering (the rewrite resizes instead of clearing).
        let mut rng = crate::Rng::seed_from(29);
        let big = Tensor::uniform(&[3, 8, 8], -1.0, 1.0, &mut rng);
        let big_geom = ConvGeom::new(3, 8, 8, 3, 3, 1, 1).unwrap();
        let small = Tensor::uniform(&[1, 4, 4], -1.0, 1.0, &mut rng);
        let small_geom = ConvGeom::new(1, 4, 4, 3, 3, 1, 1).unwrap();
        let mut buf = Vec::new();
        im2col_into(&big, &big_geom, &mut buf).unwrap();
        im2col_into(&small, &small_geom, &mut buf).unwrap();
        assert_eq!(buf, im2col_naive(&small, &small_geom));
        im2col_into(&big, &big_geom, &mut buf).unwrap();
        assert_eq!(buf, im2col_naive(&big, &big_geom));
    }

    #[test]
    fn col2im_into_reuses_buffer_and_rezeroes() {
        let mut rng = crate::Rng::seed_from(31);
        let g = ConvGeom::new(2, 4, 4, 3, 3, 2, 1).unwrap();
        let y = Tensor::uniform(&[g.patch_len(), g.out_positions()], -1.0, 1.0, &mut rng);
        let want = col2im(&y, &g).unwrap();
        let mut buf = vec![7.0f32; 256];
        col2im_into(y.as_slice(), y.dims(), &g, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), want.as_slice());
        // Second call through the same arena accumulates from zero again.
        col2im_into(y.as_slice(), y.dims(), &g, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), want.as_slice());
    }

    #[test]
    fn col2im_into_rejects_wrong_shape() {
        let g = ConvGeom::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let mut buf = Vec::new();
        assert!(col2im_into(&[0.0; 4], &[2, 2], &g, &mut buf).is_err());
    }

    #[test]
    fn pool_comparisons() {
        let p = PoolGeom::new(64, 114, 114, 3, 2, 0).unwrap();
        assert_eq!(p.comparisons(), 64 * 57 * 57 * 8);
        assert_eq!(p.out_len(), 64 * 57 * 57);
    }

    #[test]
    fn round_mode_behaviour() {
        assert_eq!(RoundMode::Floor.apply(5, 2), 2);
        assert_eq!(RoundMode::Ceil.apply(5, 2), 3);
        assert_eq!(RoundMode::Ceil.apply(4, 2), 2);
    }
}
