//! Reusable scratch arenas for the convolution/GEMM hot path.
//!
//! The simulation inner loop (one frame per validation image, one `im2col` +
//! matrix product per convolutional layer) used to allocate its staging
//! buffers on every call. A [`Workspace`] owns those buffers instead: the
//! first call through a layer grows them to the high-water mark and every
//! subsequent call reuses the same heap blocks, so steady-state forward
//! passes perform no im2col/packing allocations at all.

/// Packing scratch for the blocked GEMM engine (see [`crate::gemm`]).
///
/// Holds the packed A row-panels (one region per worker thread) and the
/// packed B column-panel shared by all workers. Buffers only ever grow.
#[derive(Debug, Default)]
pub struct PackBuffers {
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl PackBuffers {
    /// An empty pack scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-layer scratch arena: an `im2col` staging buffer plus GEMM pack
/// buffers.
///
/// # Example
///
/// ```
/// use redeye_tensor::{gemm, Tensor, Workspace};
///
/// # fn main() -> Result<(), redeye_tensor::TensorError> {
/// let mut ws = Workspace::new();
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// let c = gemm(&mut ws, false, false, &a, &b, 1)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) im2col: Vec<f32>,
    pub(crate) packs: PackBuffers,
    /// Backward-pass staging: the `Wᵀ·g` patch-gradient matrix that
    /// `col2im` scatters back onto the input plane.
    pub(crate) grad_cols: Vec<f32>,
}

/// Address/capacity snapshot of a workspace's buffers, used to verify
/// steady-state allocation behaviour (stable pointers ⇒ no reallocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Base address of the `im2col` staging buffer.
    pub im2col_ptr: usize,
    /// Capacity (elements) of the `im2col` staging buffer.
    pub im2col_capacity: usize,
    /// Base address of the packed-A buffer.
    pub pack_a_ptr: usize,
    /// Capacity (elements) of the packed-A buffer.
    pub pack_a_capacity: usize,
    /// Base address of the packed-B buffer.
    pub pack_b_ptr: usize,
    /// Capacity (elements) of the packed-B buffer.
    pub pack_b_capacity: usize,
    /// Base address of the backward patch-gradient buffer.
    pub grad_cols_ptr: usize,
    /// Capacity (elements) of the backward patch-gradient buffer.
    pub grad_cols_capacity: usize,
}

impl Workspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The GEMM packing scratch.
    pub fn packs_mut(&mut self) -> &mut PackBuffers {
        &mut self.packs
    }

    /// Splits the arena into the `im2col` staging buffer and the GEMM pack
    /// scratch, so a convolution can lower into one while multiplying
    /// through the other.
    pub fn split_im2col_packs(&mut self) -> (&mut Vec<f32>, &mut PackBuffers) {
        (&mut self.im2col, &mut self.packs)
    }

    /// Splits the arena for a conv backward pass: `im2col` staging (for the
    /// weight-gradient lowering), the patch-gradient buffer (the `Wᵀ·g`
    /// matrix that `col2im` scatters), and the GEMM pack scratch.
    pub fn split_backward(&mut self) -> (&mut Vec<f32>, &mut Vec<f32>, &mut PackBuffers) {
        (&mut self.im2col, &mut self.grad_cols, &mut self.packs)
    }

    /// Total heap bytes currently held by every arena in this workspace —
    /// the peak staging footprint of the layers that ran through it (the
    /// buffers only ever grow). The implicit-GEMM conv path shows up here
    /// as an `im2col` capacity that simply never grows.
    pub fn peak_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.im2col.capacity() + self.grad_cols.capacity()) * size_of::<f32>()
            + (self.packs.a.capacity() + self.packs.b.capacity()) * size_of::<f32>()
    }

    /// Snapshots buffer base addresses and capacities.
    ///
    /// Two equal snapshots around a call prove the call reallocated
    /// nothing in this workspace.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            im2col_ptr: self.im2col.as_ptr() as usize,
            im2col_capacity: self.im2col.capacity(),
            pack_a_ptr: self.packs.a.as_ptr() as usize,
            pack_a_capacity: self.packs.a.capacity(),
            pack_b_ptr: self.packs.b.as_ptr() as usize,
            pack_b_capacity: self.packs.b.capacity(),
            grad_cols_ptr: self.grad_cols.as_ptr() as usize,
            grad_cols_capacity: self.grad_cols.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_stable_when_buffers_unchanged() {
        let mut ws = Workspace::new();
        ws.im2col.resize(128, 0.0);
        ws.packs.a.resize(64, 0.0);
        ws.packs.b.resize(64, 0.0);
        let before = ws.stats();
        // Shrinking or refilling within capacity must not move anything.
        ws.im2col.clear();
        ws.im2col.resize(100, 1.0);
        assert_eq!(before, ws.stats());
    }

    #[test]
    fn split_returns_disjoint_buffers() {
        let mut ws = Workspace::new();
        let (cols, packs) = ws.split_im2col_packs();
        cols.push(1.0);
        packs.a.push(2.0);
        packs.b.push(3.0);
        assert_eq!(ws.im2col.len(), 1);
        assert_eq!(ws.packs.a.len(), 1);
        assert_eq!(ws.packs.b.len(), 1);
        let (cols, grad, packs) = ws.split_backward();
        cols.push(4.0);
        grad.push(5.0);
        packs.a.push(6.0);
        assert_eq!(ws.im2col.len(), 2);
        assert_eq!(ws.grad_cols.len(), 1);
        assert_eq!(ws.packs.a.len(), 2);
    }

    #[test]
    fn peak_bytes_tracks_arena_capacities() {
        let mut ws = Workspace::new();
        assert_eq!(ws.peak_bytes(), 0);
        ws.im2col.reserve_exact(256);
        ws.grad_cols.reserve_exact(64);
        ws.packs.b.reserve_exact(32);
        let floats = ws.im2col.capacity() + ws.grad_cols.capacity() + ws.packs.b.capacity();
        assert_eq!(ws.peak_bytes(), floats * 4);
    }
}
