//! Packed, cache-blocked, multi-threaded GEMM engine with one portable
//! register microkernel and an implicit-GEMM convolution front end.
//!
//! Convolutions lower onto matrix products, so this one kernel carries
//! essentially all the arithmetic of the digital reference path and of the
//! functional analog executor. It follows the classic BLIS/GotoBLAS
//! decomposition, in safe Rust:
//!
//! - The operand matrices are tiled into `MC×KC` blocks of A and `KC×NC`
//!   panels of B, sized so the packed A block lives in L2 and each B
//!   column-panel streams through L1.
//! - Both operands are *packed* into contiguous panel buffers before the
//!   inner loops run. Packing reads the source once (in whatever layout the
//!   transpose flags dictate) and writes panel-major scratch, which is what
//!   lets a single engine serve `A·B`, `Aᵀ·B`, and `A·Bᵀ` — the transpose
//!   is absorbed by the gather in the pack step and the inner loops never
//!   see it.
//! - An `MR×NR` register microkernel with fixed-size array accumulators
//!   does the arithmetic. It is plain safe Rust: every output element
//!   accumulates `acc += a * b` in `k`-order with a separate multiply and
//!   add (Rust never contracts them into an FMA), so the result does not
//!   depend on the target. The compiler vectorizes the `NR`-wide rows to
//!   whatever lanes the build targets; `.cargo/config.toml` builds for the
//!   host CPU with 512-bit lanes preferred where AVX-512 exists.
//! - When a thread budget is given and the product is large enough to
//!   amortize spawning, the output columns are split into one `NR`-aligned
//!   range per worker, across all rows, like the array's column slices.
//!   Each worker packs its own B panels and (for a raw A) its own A blocks
//!   into private regions of the caller's [`PackBuffers`] and runs every
//!   `KC` block of its range, so the whole product is one scoped fan-out.
//!   One worker runs the same loop inline and allocates nothing; several
//!   workers allocate one per-call table of row slices (each output row
//!   cut at the range boundaries) besides the fan-out's thread handles.
//!
//! Results are bit-identical across thread counts: every output element is
//! accumulated by exactly one worker in the same `KC`-block order.
//!
//! # Implicit-GEMM convolution
//!
//! Convolution does not need a materialized `im2col` matrix: the only
//! consumer of that matrix is the B-panel packer, which immediately
//! re-copies it into `KC×NR` panels. [`conv_gemm_into`] and
//! [`conv_gemm_packed_into`] instead pack those panels *directly from the
//! `C×H×W` input tensor* — the packer walks the receptive-field taps that
//! `im2col` would have written, emitting zeros for padding taps — which
//! deletes a full write+read pass over the patch matrix and shrinks the
//! conv workspace by `patch_len × out_positions` floats. Because the packed
//! panel bytes are identical to packing an explicit `im2col` matrix, and
//! blocking and microkernel are shared, the implicit path is bit-identical
//! to the `im2col` + [`gemm_into`] oracle at every geometry and thread
//! count.
//!
//! # Direct path for narrow convs
//!
//! A conv with at most `MR` filters fills at most one A panel, so packing
//! a `KC×NR` B panel feeds a single row panel of arithmetic, half of it
//! on zero rows when there are four filters. Such a conv packs no B at all:
//! the driver lays the input out once per call as a zero-padded copy split
//! into column phases (one per stride step), in which each tap's run of
//! output positions along one output row is a contiguous slice. A
//! `DR×DW` kernel (4 filters × 32 positions, the same eight vector
//! accumulators as an `MR×NR` tile) reads those slices in place against
//! the weight panel. Every output still sums `0 + Σ_KC-blocks (0 + Σ_k
//! a·b)` with `k` ascending and a separate multiply and add, padding taps
//! included as `a·0.0`, so the result is bit-identical to the packed path
//! and to the `im2col` oracle.
//!
//! [`PackedWeights`] completes the picture for inference engines that run
//! the same filters every frame: the A-side (weight) packing is hoisted
//! out of the per-frame loop entirely and shared read-only across threads
//! and frames, byte-identical to on-the-fly packing by layout construction.

use crate::conv::ConvGeom;
use crate::par;
use crate::workspace::{PackBuffers, Workspace};
use crate::{Tensor, TensorError};

/// Microkernel tile rows (output rows accumulated in registers at once).
const MR: usize = 8;
/// Microkernel tile columns.
const NR: usize = 16;
/// Rows of A packed per L2-resident block (multiple of `MR`).
const MC: usize = 64;
/// Inner-dimension extent of one packed block.
const KC: usize = 256;
/// Columns of B packed per shared panel (multiple of `NR`).
const NC: usize = 512;
/// Below this many flops (2·m·n·k) the product runs single-threaded: the
/// thread-spawn cost exceeds the work of a whole small product.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 18;
/// Filter rows per direct-path tile: half an A panel.
const DR: usize = MR / 2;
/// Output positions per direct-path tile: `DR` rows of `DW` lanes fill the
/// same eight vector accumulators as one `MR×NR` tile.
const DW: usize = 2 * NR;

/// Grows `v` to at least `len` elements and returns the prefix slice.
/// Growth is exact, so a scratch buffer's capacity is the largest length
/// any call asked of it: its high-water mark, not a doubling of it.
fn ensure_len(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.reserve_exact(len - v.len());
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Packs the `mc×kc` block of `op(A)` starting at (`row0`, `pc`) into
/// MR-row panels: `dst[panel][p][r] = op(A)[row0 + panel·MR + r][pc + p]`,
/// zero-padding rows past `mc` so the microkernel never branches on edges.
///
/// `trans_a` selects the gather: `op(A)[i][p]` reads `a[i·k + p]` when
/// `false` (A stored `m×k`) and `a[p·m + i]` when `true` (A stored `k×m`).
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[f32],
    trans_a: bool,
    m: usize,
    k: usize,
    row0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [f32],
) {
    let panels = mc.div_ceil(MR);
    for pi in 0..panels {
        let panel = &mut dst[pi * MR * kc..(pi + 1) * MR * kc];
        for p in 0..kc {
            for r in 0..MR {
                let row = pi * MR + r;
                panel[p * MR + r] = if row < mc {
                    let (i, pp) = (row0 + row, pc + p);
                    if trans_a {
                        a[pp * m + i]
                    } else {
                        a[i * k + pp]
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `kc×nc` panel of `op(B)` starting at (`pc`, `jc`) into NR-column
/// panels: `dst[panel][p][c] = op(B)[pc + p][jc + panel·NR + c]`, zero-padded
/// past `nc`.
///
/// `trans_b` selects the gather: `op(B)[p][j]` reads `b[p·n + j]` when
/// `false` (B stored `k×n`) and `b[j·k + p]` when `true` (B stored `n×k`).
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    b: &[f32],
    trans_b: bool,
    n: usize,
    k: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [f32],
) {
    let panels = nc.div_ceil(NR);
    for pi in 0..panels {
        let panel = &mut dst[pi * NR * kc..(pi + 1) * NR * kc];
        for p in 0..kc {
            for c in 0..NR {
                let col = pi * NR + c;
                panel[p * NR + c] = if col < nc {
                    let (j, pp) = (jc + col, pc + p);
                    if trans_b {
                        b[j * k + pp]
                    } else {
                        b[pp * n + j]
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// `⌈a / s⌉`, with no division at stride 1.
#[inline(always)]
fn ceil_div(a: usize, s: usize) -> usize {
    if s == 1 {
        a
    } else {
        a.div_ceil(s)
    }
}

/// Copies `dst.len()` taps of one input row, `stride` apart from `row[0]`:
/// a contiguous copy at stride 1.
#[inline(always)]
fn copy_taps(dst: &mut [f32], row: &[f32], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&row[..dst.len()]);
    } else {
        for (slot, &v) in dst.iter_mut().zip(row.iter().step_by(stride)) {
            *slot = v;
        }
    }
}

/// Packs one run of conv B-panel columns into the zeroed `run`: columns
/// on output row `oy` from output column `ox` on, under tap `(ky, kx)` of
/// `plane`. A tap row above or below the input stays zero. Otherwise the
/// run is a zero head left of the input row, an in-bounds body copied from
/// the row, and a zero tail right of it.
#[inline(always)]
fn pack_conv_run(
    run: &mut [f32],
    plane: &[f32],
    geom: &ConvGeom,
    (ky, kx): (usize, usize),
    oy: usize,
    ox: usize,
) {
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (stride, pad) = (geom.stride(), geom.pad());
    // A row above the input wraps to a huge `y`.
    let y = (oy * stride + ky).wrapping_sub(pad);
    if y >= in_h {
        return;
    }
    // `xp` is the input column of the run's first tap, plus `pad`.
    let xp = ox * stride + kx;
    let head = ceil_div(pad.saturating_sub(xp), stride);
    let end = ceil_div((pad + in_w).saturating_sub(xp), stride).min(run.len());
    if end <= head {
        // No tap lands inside the row, so there is no body to copy and its
        // first input column may lie past the row end.
        return;
    }
    let row = &plane[y * in_w..(y + 1) * in_w];
    copy_taps(
        &mut run[head..end],
        &row[xp + head * stride - pad..],
        stride,
    );
}

/// Packs the `kc×nc` panel of the *virtual* `im2col` matrix of `src`
/// (`C×H×W`, per `geom`) starting at (`pc`, `jc`) — the implicit-GEMM
/// gather. Produces bytes identical to running [`pack_b_panel`] over an
/// explicit `im2col` matrix: patch row `pc + p` is a channel/tap
/// `(ch, ky, kx)`, column `jc + col` an output position `(oy, ox)`, and the
/// packed value is the input pixel under that tap, or `0.0` when the tap
/// falls in the padding border.
///
/// The packer copies runs instead of decoding every element. It decodes
/// the block's first tap once and steps it per panel row, and decodes each
/// panel's first output position once. A panel row whose `NR` columns sit
/// on one output row with every tap inside the input is one copy of `NR`
/// taps. Any other row is zeroed and split into runs on one output row
/// each, packed by [`pack_conv_run`]. Columns past `nc` stay `0.0`. Beyond
/// those decodes, only the edge runs of a strided conv divide (by the
/// stride).
fn pack_b_conv_panel(
    src: &[f32],
    geom: &ConvGeom,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [f32],
) {
    let (kh, kw) = (geom.kernel_h(), geom.kernel_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (stride, pad) = (geom.stride(), geom.pad());
    let out_w = geom.out_w();
    let plane_len = in_h * in_w;
    let (ch0, tap0) = (pc / (kh * kw), pc % (kh * kw));
    let (ky0, kx0) = (tap0 / kw, tap0 % kw);
    let panels = nc.div_ceil(NR);
    for (pi, panel) in dst[..panels * NR * kc]
        .chunks_exact_mut(NR * kc)
        .enumerate()
    {
        let cols = NR.min(nc - pi * NR);
        let j0 = jc + pi * NR;
        let (oy0, ox0) = (j0 / out_w, j0 % out_w);
        let one_run = cols == NR && ox0 + NR <= out_w;
        let (mut ch, mut ky, mut kx) = (ch0, ky0, kx0);
        for step in panel.as_chunks_mut::<NR>().0 {
            let plane = &src[ch * plane_len..(ch + 1) * plane_len];
            let y = (oy0 * stride + ky).wrapping_sub(pad);
            let xp = ox0 * stride + kx;
            if one_run && y < in_h && xp >= pad && xp - pad + (NR - 1) * stride < in_w {
                copy_taps(step, &plane[y * in_w + xp - pad..], stride);
            } else {
                *step = [0.0; NR];
                let (mut c, mut oy, mut ox) = (0, oy0, ox0);
                while c < cols {
                    let len = (out_w - ox).min(cols - c);
                    pack_conv_run(&mut step[c..c + len], plane, geom, (ky, kx), oy, ox);
                    c += len;
                    oy += 1;
                    ox = 0;
                }
            }
            kx += 1;
            if kx == kw {
                kx = 0;
                ky += 1;
                if ky == kh {
                    ky = 0;
                    ch += 1;
                }
            }
        }
    }
}

/// Filter weights pre-packed into the engine's A-panel layout, built once
/// and shared read-only across frames and worker threads.
///
/// The layout is `KC`-block major: block `bi` holds all `⌈m/MR⌉` MR-row
/// panels for inner columns `[bi·KC, bi·KC + kc)`, exactly the bytes
/// `pack_a_block` would produce for those coordinates (rows past `m`
/// zero-padded). `MC` sub-blocking never changes panel contents — its
/// boundaries are MR-aligned — so a GEMM reading these panels is
/// bit-identical to one packing A on the fly.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedWeights {
    /// Packs an `m×k` row-major weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m·k`.
    pub fn pack(a: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "weights length vs {m}x{k}");
        let panels = m.div_ceil(MR);
        let mut data = Vec::new();
        let mut pc = 0usize;
        while pc < k {
            let kc = KC.min(k - pc);
            let start = data.len();
            data.resize(start + panels * MR * kc, 0.0);
            pack_a_block(a, false, m, k, 0, m, pc, kc, &mut data[start..]);
            pc += kc;
        }
        PackedWeights { data, m, k }
    }

    /// Output-row count (filters).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner extent (patch length).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Heap bytes held by the packed panels.
    pub fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// The packed panels for inner block (`pc`, `kc`) from row `row0` on.
    ///
    /// `row0` must be MR-aligned and `pc` KC-aligned — both invariants the
    /// blocked driver maintains — so the slice starts exactly at a panel
    /// boundary of the stored layout.
    fn block_panels(&self, row0: usize, pc: usize, kc: usize) -> &[f32] {
        debug_assert_eq!(row0 % MR, 0);
        debug_assert_eq!(pc % KC, 0);
        let panels = self.m.div_ceil(MR);
        // Every block before the last has kc == KC, so block offsets are
        // uniform; only the final block is shorter.
        let block_off = (pc / KC) * panels * MR * KC;
        let start = block_off + (row0 / MR) * MR * kc;
        &self.data[start..block_off + panels * MR * kc]
    }
}

/// The A operand of a blocked product: a raw matrix packed on the fly per
/// block, or pre-packed panels shared read-only.
#[derive(Clone, Copy)]
enum ASrc<'a> {
    Mat { a: &'a [f32], trans: bool },
    Packed(&'a PackedWeights),
}

/// The B operand: a raw matrix (with optional transpose) or the virtual
/// `im2col` matrix of a `C×H×W` input gathered implicitly.
#[derive(Clone, Copy)]
enum BSrc<'a> {
    Mat { b: &'a [f32], trans: bool },
    Conv { src: &'a [f32], geom: &'a ConvGeom },
}

/// A conv input laid out so that the direct path reads B rows in place.
///
/// Patch row `p` of the virtual `im2col` matrix is a tap `(ch, ky, kx)`.
/// Over one tile of `DW` output positions `ox0..ox0 + DW` on output row
/// `oy` it reads padded input row `oy·s + ky`, columns `(ox0 + c)·s + kx`.
/// Each padded row is stored as `s` column phases of `width` floats, phase
/// `q` holding padded columns `i·s + q`, so those `DW` columns are
/// consecutive floats of phase `kx mod s` from index `ox0 + ⌊kx/s⌋`: the
/// B row starts at `oy·row_step + ox0 + taps[p]`. Padding columns and
/// rows hold `0.0`, as `im2col` would. `width` covers every tile of a
/// row, so the tail lanes of a row's last tile stay in bounds; they are
/// computed and dropped.
#[derive(Clone, Copy)]
struct Padded<'a> {
    data: &'a [f32],
    /// Offset of each patch row's tap from a tile's origin.
    taps: &'a [usize],
    /// Floats between the origins of consecutive output rows.
    row_step: usize,
    out_w: usize,
}

/// Lays `src` (`C×H×W`, per `geom`) out in [`Padded`] form in `data` and
/// fills the per-patch-row offsets into `taps`. Both buffers only grow.
fn pad_input<'a>(
    src: &[f32],
    geom: &ConvGeom,
    data: &'a mut Vec<f32>,
    taps: &'a mut Vec<usize>,
) -> Padded<'a> {
    let (kh, kw) = (geom.kernel_h(), geom.kernel_w());
    let (in_h, in_w) = (geom.in_h(), geom.in_w());
    let (s, pad) = (geom.stride(), geom.pad());
    let out_w = geom.out_w();
    // The last tile's last lane under tap `kx` reads phase index
    // `tiles·DW − 1 + ⌊kx/s⌋`.
    let width = out_w.div_ceil(DW) * DW + (kw - 1) / s;
    let rows = (geom.out_h() - 1) * s + kh;
    let row_len = s * width;
    let plane_len = rows * row_len;
    let data = ensure_len(data, geom.in_c() * plane_len);
    data.fill(0.0);
    for ch in 0..geom.in_c() {
        // Input row `y` is padded row `y + pad`; rows no tap reads stay out.
        for y in 0..in_h.min(rows.saturating_sub(pad)) {
            let row = &src[(ch * in_h + y) * in_w..][..in_w];
            let dst = &mut data[ch * plane_len + (y + pad) * row_len..][..row_len];
            for (q, phase) in dst.chunks_exact_mut(width).enumerate() {
                // The indices `i` whose padded column `i·s + q` is an
                // input column, `i·s + q − pad` in `0..in_w`.
                let lo = pad.saturating_sub(q).div_ceil(s);
                let hi = (pad + in_w).saturating_sub(q).div_ceil(s).min(width);
                if lo < hi {
                    copy_taps(&mut phase[lo..hi], &row[lo * s + q - pad..], s);
                }
            }
        }
    }
    taps.clear();
    for ch in 0..geom.in_c() {
        for ky in 0..kh {
            for kx in 0..kw {
                taps.push(ch * plane_len + ky * row_len + kx % s * width + kx / s);
            }
        }
    }
    Padded {
        data,
        taps,
        row_step: s * row_len,
        out_w,
    }
}

/// The register microkernel: one `MR×NR` accumulator tile over a shared
/// inner extent. `apanel` is `kc` steps of `MR` packed A values, `bpanel`
/// `kc` steps of `NR` packed B values; the fixed-size accumulator array and
/// `as_chunks` iteration make the loop body branch- and bounds-check free.
/// Per element it computes `acc[c] += a * b[c]`: two roundings per step,
/// `k`-sequential, no FMA.
#[inline(always)]
fn mul_add_row<const W: usize>(acc: &mut [f32; W], a: f32, b: &[f32; W]) {
    for c in 0..W {
        acc[c] += a * b[c];
    }
}

#[inline(always)]
fn microkernel(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    let (asteps, _) = apanel.as_chunks::<MR>();
    let (bsteps, _) = bpanel.as_chunks::<NR>();
    for (ap, b) in asteps.iter().zip(bsteps.iter()) {
        mul_add_row(&mut r0, ap[0], b);
        mul_add_row(&mut r1, ap[1], b);
        mul_add_row(&mut r2, ap[2], b);
        mul_add_row(&mut r3, ap[3], b);
        mul_add_row(&mut r4, ap[4], b);
        mul_add_row(&mut r5, ap[5], b);
        mul_add_row(&mut r6, ap[6], b);
        mul_add_row(&mut r7, ap[7], b);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// Row access to the output columns one worker owns.
trait OutRows {
    /// Row `i` of the worker's columns.
    fn row(&mut self, i: usize) -> &mut [f32];
}

/// A lone worker owns the whole row-major output of width `n`.
struct Whole<'o> {
    out: &'o mut [f32],
    n: usize,
}

impl OutRows for Whole<'_> {
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        &mut self.out[i * self.n..(i + 1) * self.n]
    }
}

/// One of several workers owns one slice per output row: that row's
/// share of the worker's columns.
impl OutRows for &mut [&mut [f32]] {
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        &mut self[i][..]
    }
}

/// Runs the whole product for output columns `[j0, j1)` across all `m`
/// rows: each `NC` block of the range, each `KC` block of `k` in order.
/// B panels are packed into the worker-private `bpack`; raw-matrix A
/// blocks into the worker-private `apack`, while pre-packed A serves
/// panels straight from its shared buffer. Each `KC` block's products are
/// added to `out` in `k` order, so no output element depends on which
/// worker owns its column.
fn compute_cols(
    asrc: ASrc<'_>,
    bsrc: BSrc<'_>,
    (m, n, k): (usize, usize, usize),
    (j0, j1): (usize, usize),
    apack: &mut [f32],
    bpack: &mut [f32],
    mut out: impl OutRows,
) {
    let mut jc = j0;
    while jc < j1 {
        let nc = NC.min(j1 - jc);
        let col_panels = nc.div_ceil(NR);
        let mut pc = 0usize;
        while pc < k {
            let kc = KC.min(k - pc);
            let bblock = &mut bpack[..col_panels * NR * kc];
            match bsrc {
                BSrc::Mat { b, trans } => pack_b_panel(b, trans, n, k, jc, nc, pc, kc, bblock),
                BSrc::Conv { src, geom } => pack_b_conv_panel(src, geom, jc, nc, pc, kc, bblock),
            }
            let bblock: &[f32] = bblock;
            let mut ic = 0usize;
            while ic < m {
                let mc = MC.min(m - ic);
                let ablock: &[f32] = match asrc {
                    ASrc::Mat { a, trans } => {
                        pack_a_block(a, trans, m, k, ic, mc, pc, kc, apack);
                        apack
                    }
                    // MC boundaries are MR-aligned, so the pre-packed
                    // panels for these rows are bit-identical to what
                    // pack_a_block would have produced (see PackedWeights).
                    ASrc::Packed(pw) => pw.block_panels(ic, pc, kc),
                };
                let row_panels = mc.div_ceil(MR);
                // Col-panel outer / row-panel inner keeps the `KC×NR` B
                // slice hot in L1 while successive A panels stream from the
                // packed L2 block.
                for pj in 0..col_panels {
                    let bpanel = &bblock[pj * NR * kc..][..NR * kc];
                    let col = jc - j0 + pj * NR;
                    let cols = NR.min(nc - pj * NR);
                    for pi in 0..row_panels {
                        let apanel = &ablock[pi * MR * kc..][..MR * kc];
                        let rows = MR.min(mc - pi * MR);
                        let acc = microkernel(apanel, bpanel);
                        for (r, acc_row) in acc.iter().enumerate().take(rows) {
                            let dst = &mut out.row(ic + pi * MR + r)[col..col + cols];
                            for (d, &v) in dst.iter_mut().zip(acc_row.iter()) {
                                *d += v;
                            }
                        }
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// The direct path's register kernel: a `DR×DW` tile, filter rows
/// `DR·group..` of the A panel against `kc` B rows read in place, row `p`
/// at `tile[taps[p]..]`. Each element accumulates `acc += a * b` in `k`
/// order, exactly as [`microkernel`] does.
#[inline(always)]
fn direct_kernel(apanel: &[f32], group: usize, taps: &[usize], tile: &[f32]) -> [[f32; DW]; DR] {
    let mut r0 = [0.0f32; DW];
    let mut r1 = [0.0f32; DW];
    let mut r2 = [0.0f32; DW];
    let mut r3 = [0.0f32; DW];
    let (asteps, _) = apanel.as_chunks::<MR>();
    for (ap, &t) in asteps.iter().zip(taps) {
        let ap = &ap.as_chunks::<DR>().0[group];
        let b = tile[t..]
            .first_chunk::<DW>()
            .expect("a tile's B row lies inside the padded input");
        mul_add_row(&mut r0, ap[0], b);
        mul_add_row(&mut r1, ap[1], b);
        mul_add_row(&mut r2, ap[2], b);
        mul_add_row(&mut r3, ap[3], b);
    }
    [r0, r1, r2, r3]
}

/// Runs output columns `[j0, j1)` of a conv with at most `MR` filters
/// straight off the padded input, packing no B. Each `KC` block's one A
/// panel (served from pre-packed weights, or packed once per block from a
/// raw A) meets B rows read in place, `DR` filters at a time. Tiles are
/// `DW` output positions of one output row, aligned at multiples of `DW`
/// in that row; lanes outside the row or the range are computed and
/// dropped. Each `KC` block's products are added to `out` in `k` order, so
/// every output is bit-equal to the blocked product's.
fn compute_direct(
    asrc: ASrc<'_>,
    input: Padded<'_>,
    (m, k): (usize, usize),
    (j0, j1): (usize, usize),
    apack: &mut [f32],
    mut out: impl OutRows,
) {
    let out_w = input.out_w;
    let mut pc = 0usize;
    while pc < k {
        let kc = KC.min(k - pc);
        let apanel: &[f32] = match asrc {
            ASrc::Mat { a, trans } => {
                pack_a_block(a, trans, m, k, 0, m, pc, kc, apack);
                &apack[..MR * kc]
            }
            ASrc::Packed(pw) => pw.block_panels(0, pc, kc),
        };
        let taps = &input.taps[pc..pc + kc];
        let mut j = j0;
        while j < j1 {
            let (oy, ox) = (j / out_w, j % out_w);
            let ox0 = ox - ox % DW;
            let lanes = ((ox0 + DW).min(out_w) - ox).min(j1 - j);
            let tile = &input.data[oy * input.row_step + ox0..];
            for row0 in (0..m).step_by(DR) {
                let acc = direct_kernel(apanel, row0 / DR, taps, tile);
                for (r, acc_row) in acc.iter().enumerate().take(m - row0) {
                    let dst = &mut out.row(row0 + r)[j - j0..][..lanes];
                    for (d, &v) in dst.iter_mut().zip(&acc_row[ox - ox0..]) {
                        *d += v;
                    }
                }
            }
            j += lanes;
        }
        pc += kc;
    }
}

/// How a worker reads the B operand: packed into panels per block, or (a
/// conv with at most `MR` filters) in place from the padded input.
#[derive(Clone, Copy)]
enum BRead<'a> {
    Packed(BSrc<'a>),
    InPlace(Padded<'a>),
}

/// Runs output columns `[j0, j1)` of the product through the B read the
/// driver chose.
fn compute_range(
    asrc: ASrc<'_>,
    bread: BRead<'_>,
    (m, n, k): (usize, usize, usize),
    cols: (usize, usize),
    apack: &mut [f32],
    bpack: &mut [f32],
    out: impl OutRows,
) {
    match bread {
        BRead::Packed(bsrc) => compute_cols(asrc, bsrc, (m, n, k), cols, apack, bpack, out),
        BRead::InPlace(input) => compute_direct(asrc, input, (m, k), cols, apack, out),
    }
}

/// The shared blocked driver behind every public entry point. Each worker
/// owns one `NR`-aligned range of output columns across all `m` rows and
/// runs [`compute_cols`] over it, packing its own B panels (explicit matrix
/// or implicit conv gather) and A blocks into private regions of `packs`.
/// A conv with at most `MR` filters runs [`compute_direct`] instead, over
/// one padded copy of the input shared by every worker. The whole product
/// is one [`par::fan_out`]; one worker runs inline.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    packs: &mut PackBuffers,
    asrc: ASrc<'_>,
    bsrc: BSrc<'_>,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    let col_panels = n.div_ceil(NR);
    let threads = if flops < PARALLEL_FLOP_THRESHOLD {
        1
    } else {
        threads.clamp(1, col_panels)
    };
    // `width` columns per worker; the last range may be shorter, and
    // rounding can leave fewer ranges than threads.
    let width = col_panels.div_ceil(threads) * NR;
    let workers = n.div_ceil(width);
    // A conv whose filters fit one A panel reads B in place: packing a
    // `KC×NR` B panel would feed only `m ≤ MR` rows of arithmetic. Its
    // workers need one A panel and no B panels, and pre-packed weights need
    // no A scratch at all. `chunks_mut` below still takes nonzero lengths,
    // so an unused buffer gets a one-float placeholder per worker.
    let (bread, a_tile, b_len) = match bsrc {
        BSrc::Conv { src, geom } if m <= MR => {
            let input = pad_input(src, geom, &mut packs.padded, &mut packs.taps);
            (BRead::InPlace(input), MR * KC, 1)
        }
        _ => (BRead::Packed(bsrc), MC * KC, NC.min(width) * KC.min(k)),
    };
    let a_len = if matches!(asrc, ASrc::Packed(_)) {
        1
    } else {
        a_tile
    };
    if workers == 1 {
        let apack = ensure_len(&mut packs.a, a_len);
        let bpack = ensure_len(&mut packs.b, b_len);
        let out = Whole { out, n };
        compute_range(asrc, bread, (m, n, k), (0, n), apack, bpack, out);
        return;
    }
    // The one per-call allocation: a table of row slices, worker-major.
    // Splitting row `i` of worker `t`'s remainder leaves worker `t`'s
    // slice at `t·m + i` and pushes the rest to `(t + 1)·m + i`.
    let mut rows: Vec<&mut [f32]> = Vec::with_capacity(workers * m);
    rows.extend(out.chunks_mut(n));
    for at in 0..(workers - 1) * m {
        let (head, tail) = std::mem::take(&mut rows[at]).split_at_mut(width);
        rows[at] = head;
        rows.push(tail);
    }
    let apacks = ensure_len(&mut packs.a, workers * a_len);
    let bpacks = ensure_len(&mut packs.b, workers * b_len);
    let ranges = rows
        .chunks_mut(m)
        .zip(apacks.chunks_mut(a_len))
        .zip(bpacks.chunks_mut(b_len))
        .enumerate();
    par::fan_out(ranges, |(t, ((rows, apack), bpack))| {
        let j0 = t * width;
        let cols = (j0, (j0 + width).min(n));
        compute_range(asrc, bread, (m, n, k), cols, apack, bpack, rows);
    });
}

/// Computes `out = op(A) · op(B)` over raw row-major slices.
///
/// `op(X)` is `X` or `Xᵀ` per the transpose flags; `m`, `n`, `k` are the
/// *logical* dimensions of the product (`op(A)` is `m×k`, `op(B)` is `k×n`).
/// `out` is fully overwritten. Packing scratch comes from `packs` and is
/// only ever grown, so steady-state calls at a fixed shape allocate no
/// packing scratch; a one-worker call allocates nothing, and a call split
/// over several workers allocates one table of output row slices.
/// `threads` bounds worker parallelism over output column ranges; small
/// products ignore it and run serially.
///
/// # Panics
///
/// Panics if a slice length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    packs: &mut PackBuffers,
    trans_a: bool,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "operand A length vs {m}x{k}");
    assert_eq!(b.len(), k * n, "operand B length vs {k}x{n}");
    assert_eq!(out.len(), m * n, "output length vs {m}x{n}");
    gemm_driver(
        packs,
        ASrc::Mat { a, trans: trans_a },
        BSrc::Mat { b, trans: trans_b },
        out,
        m,
        n,
        k,
        threads,
    );
}

/// Implicit-GEMM convolution: `out = W · im2col(input)` without ever
/// materializing the `im2col` matrix — the B packer gathers receptive-field
/// taps (zeros in the padding border) straight from the `C×H×W` input, or,
/// for at most 8 filters, the kernel reads them in place from a padded
/// copy of the input.
///
/// `weights` is the `(out_c × patch_len)` filter matrix, `input` the
/// `C×H×W` tensor data per `geom`, `out` the `(out_c × out_positions)`
/// result. Bit-identical to `im2col_into` + [`gemm_into`] at every
/// geometry and thread count.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom`/`out_c`.
pub fn conv_gemm_into(
    packs: &mut PackBuffers,
    weights: &[f32],
    input: &[f32],
    geom: &ConvGeom,
    out: &mut [f32],
    out_c: usize,
    threads: usize,
) {
    let (k, n) = (geom.patch_len(), geom.out_positions());
    assert_eq!(weights.len(), out_c * k, "weights length vs {out_c}x{k}");
    assert_eq!(
        input.len(),
        geom.in_c() * geom.in_h() * geom.in_w(),
        "input length vs conv geometry"
    );
    assert_eq!(out.len(), out_c * n, "output length vs {out_c}x{n}");
    gemm_driver(
        packs,
        ASrc::Mat {
            a: weights,
            trans: false,
        },
        BSrc::Conv { src: input, geom },
        out,
        out_c,
        n,
        k,
        threads,
    );
}

/// A stub kept only because the repository benchmark package still names
/// it: there is one f32 microkernel, so the one variant selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable microkernel, the only one there is.
    Portable,
}

impl SimdLevel {
    /// Always [`SimdLevel::Portable`].
    pub fn auto() -> SimdLevel {
        SimdLevel::Portable
    }
}

/// [`conv_gemm_into`] over weights pre-packed once with
/// [`PackedWeights::pack`]: the per-frame A packing pass disappears and
/// the packed panels are shared read-only across threads and frames.
/// Bit-identical to the unpacked path by panel-layout construction.
///
/// The [`SimdLevel`] argument is ignored; it stays only for the benchmark
/// package's existing call.
///
/// # Panics
///
/// Panics if `input`/`out` lengths disagree with `geom`/`weights`, or if
/// the packed inner extent does not match `geom.patch_len()`.
pub fn conv_gemm_packed_into(
    packs: &mut PackBuffers,
    _level: SimdLevel,
    weights: &PackedWeights,
    input: &[f32],
    geom: &ConvGeom,
    out: &mut [f32],
    threads: usize,
) {
    let (m, k, n) = (weights.m(), geom.patch_len(), geom.out_positions());
    assert_eq!(
        weights.k(),
        k,
        "packed weights inner extent vs patch length"
    );
    assert_eq!(
        input.len(),
        geom.in_c() * geom.in_h() * geom.in_w(),
        "input length vs conv geometry"
    );
    assert_eq!(out.len(), m * n, "output length vs {m}x{n}");
    gemm_driver(
        packs,
        ASrc::Packed(weights),
        BSrc::Conv { src: input, geom },
        out,
        m,
        n,
        k,
        threads,
    );
}

/// Computes `op(A) · op(B)` over rank-2 tensors through the packed engine.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank-2 and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions disagree after
/// applying the transpose flags.
///
/// # Example
///
/// ```
/// use redeye_tensor::{gemm, Tensor, Workspace};
///
/// # fn main() -> Result<(), redeye_tensor::TensorError> {
/// let mut ws = Workspace::new();
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2])?;
/// let c = gemm(&mut ws, false, false, &a, &b, 1)?;
/// assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
/// # Ok(())
/// # }
/// ```
pub fn gemm(
    ws: &mut Workspace,
    trans_a: bool,
    trans_b: bool,
    a: &Tensor,
    b: &Tensor,
    threads: usize,
) -> Result<Tensor, TensorError> {
    let (ar, ac) = crate::linalg::matrix_dims(a)?;
    let (br, bc) = crate::linalg::matrix_dims(b)?;
    let (m, ka) = if trans_a { (ac, ar) } else { (ar, ac) };
    let (kb, n) = if trans_b { (bc, br) } else { (br, bc) };
    if ka != kb {
        return Err(TensorError::InnerDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &mut ws.packs,
        trans_a,
        trans_b,
        a.as_slice(),
        b.as_slice(),
        &mut out,
        m,
        n,
        ka,
        threads,
    );
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::im2col_into;
    use crate::linalg::matmul_naive;
    use crate::Rng;

    fn random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::uniform(&[rows, cols], -1.0, 1.0, &mut rng)
    }

    fn assert_close(got: &Tensor, want: &Tensor) {
        assert_eq!(got.dims(), want.dims());
        for (g, w) in got.iter().zip(want.iter()) {
            let tol = 1e-4 * w.abs().max(1.0);
            assert!((g - w).abs() <= tol, "{g} vs {w}");
        }
    }

    #[test]
    fn matches_naive_on_non_multiple_of_block_dims() {
        let mut ws = Workspace::new();
        // Dimensions straddle MR/NR/MC/KC/NC boundaries.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (65, 257, 9),
            (70, 300, 513),
        ] {
            let a = random(m, k, m as u64);
            let b = random(k, n, n as u64 + 100);
            let got = gemm(&mut ws, false, false, &a, &b, 1).unwrap();
            let want = matmul_naive(&a, &b).unwrap();
            assert_close(&got, &want);
        }
    }

    #[test]
    fn transpose_flags_match_explicit_transposes() {
        let mut ws = Workspace::new();
        let a = random(13, 9, 1);
        let b = random(13, 17, 2);
        // aᵀ(9×13) · b(13×17)
        let want = matmul_naive(&a.transpose2().unwrap(), &b).unwrap();
        let got = gemm(&mut ws, true, false, &a, &b, 1).unwrap();
        assert_close(&got, &want);
        // c(9×13) · dᵀ(13×21)
        let c = random(9, 13, 3);
        let d = random(21, 13, 4);
        let want = matmul_naive(&c, &d.transpose2().unwrap()).unwrap();
        let got = gemm(&mut ws, false, true, &c, &d, 1).unwrap();
        assert_close(&got, &want);
        // both transposed: aᵀ(9×13) · dᵀ(13×21)
        let want = matmul_naive(&a.transpose2().unwrap(), &d.transpose2().unwrap()).unwrap();
        let got = gemm(&mut ws, true, true, &a, &d, 1).unwrap();
        assert_close(&got, &want);
    }

    /// `op(A)·op(B)` at each thread count equals the one-worker product bit
    /// for bit. The product is above the serial threshold, so the column
    /// split really runs.
    fn assert_column_split_matches_serial(
        (trans_a, trans_b): (bool, bool),
        (m, n, k): (usize, usize, usize),
        threads: &[usize],
    ) {
        assert!(
            2 * m * n * k >= PARALLEL_FLOP_THRESHOLD,
            "{m}x{n}x{k} runs serially"
        );
        let a = random(m * k, 1, (m + k) as u64);
        let b = random(k * n, 1, (n + k) as u64);
        let (a, b) = (a.as_slice(), b.as_slice());
        let mut packs = PackBuffers::new();
        let mut want = vec![0.0f32; m * n];
        gemm_into(&mut packs, trans_a, trans_b, a, b, &mut want, m, n, k, 1);
        let mut got = vec![f32::NAN; m * n];
        for &t in threads {
            gemm_into(&mut packs, trans_a, trans_b, a, b, &mut got, m, n, k, t);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(
                same,
                "{m}x{n}x{k}, trans ({trans_a}, {trans_b}), {t} threads"
            );
        }
    }

    #[test]
    fn column_split_is_bit_identical_at_every_range_shape() {
        // Even and uneven splits of six column panels.
        assert_column_split_matches_serial((false, false), (150, 90, 80), &[2, 3, 4, 7]);
        // n < NR·threads: three 16-column panels for up to four workers.
        assert_column_split_matches_serial((false, false), (256, 40, 300), &[2, 3, 4]);
        // n not a multiple of NR: every worker's last panel is ragged.
        assert_column_split_matches_serial((false, false), (24, 1007, 60), &[2, 3, 5]);
        // k > KC: three `pc` blocks accumulate into each output in order.
        assert_column_split_matches_serial((false, false), (40, 200, 600), &[2, 3]);
        // 2,100 columns over two workers: 1,056 each, three NC blocks.
        assert_column_split_matches_serial((false, false), (16, 2100, 40), &[2, 3]);
        // Threads beyond the two column panels: two workers run.
        assert_column_split_matches_serial((false, false), (200, 20, 400), &[3, 7, 64]);
        // Each worker gathers its own transposed A and B.
        for trans in [(true, false), (false, true), (true, true)] {
            assert_column_split_matches_serial(trans, (70, 300, 290), &[2, 3]);
        }
    }

    /// GoogLeNet conv1 (3×227×227, 7×7 stride 2 pad 3, 64 filters): a
    /// 64×147×12,996 product, the largest-N conv of a Depth1 frame. Both
    /// conv entry points equal the one-worker product at two and three
    /// workers, whose ranges end mid-output-row.
    #[test]
    fn conv_column_split_is_bit_identical_at_googlenet_conv1() {
        let geom = ConvGeom::new(3, 227, 227, 7, 7, 2, 3).unwrap();
        let (m, k, n) = (64, geom.patch_len(), geom.out_positions());
        assert_eq!((k, n), (147, 12_996));
        let mut rng = Rng::seed_from(31);
        let input = Tensor::uniform(&[3, 227, 227], 0.0, 1.0, &mut rng);
        let weights = Tensor::uniform(&[m, k], -0.5, 0.5, &mut rng);
        let packed = PackedWeights::pack(weights.as_slice(), m, k);
        let mut packs = PackBuffers::new();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut out = vec![0.0f32; m * n];
        conv_gemm_into(
            &mut packs,
            weights.as_slice(),
            input.as_slice(),
            &geom,
            &mut out,
            m,
            1,
        );
        let want = bits(&out);
        for threads in [2, 3] {
            conv_gemm_into(
                &mut packs,
                weights.as_slice(),
                input.as_slice(),
                &geom,
                &mut out,
                m,
                threads,
            );
            assert!(bits(&out) == want, "conv_gemm_into, {threads} threads");
            conv_gemm_packed_into(
                &mut packs,
                SimdLevel::auto(),
                &packed,
                input.as_slice(),
                &geom,
                &mut out,
                threads,
            );
            assert!(
                bits(&out) == want,
                "conv_gemm_packed_into, {threads} threads"
            );
        }
    }

    #[test]
    fn implicit_conv_matches_im2col_oracle_bitwise() {
        // MicroNet-class geometry: 3×32×32, 3×3 stride 1 pad 1.
        let geom = ConvGeom::new(3, 32, 32, 3, 3, 1, 1).unwrap();
        let out_c = 8usize;
        let mut rng = Rng::seed_from(77);
        let input = Tensor::uniform(&[3, 32, 32], -1.0, 1.0, &mut rng);
        let weights = Tensor::uniform(&[out_c, geom.patch_len()], -0.5, 0.5, &mut rng);
        let (k, n) = (geom.patch_len(), geom.out_positions());

        let mut packs = PackBuffers::new();
        let mut cols = Vec::new();
        im2col_into(&input, &geom, &mut cols).unwrap();
        let mut want = vec![0.0f32; out_c * n];
        gemm_into(
            &mut packs,
            false,
            false,
            weights.as_slice(),
            &cols,
            &mut want,
            out_c,
            n,
            k,
            1,
        );

        let mut got = vec![0.0f32; out_c * n];
        conv_gemm_into(
            &mut packs,
            weights.as_slice(),
            input.as_slice(),
            &geom,
            &mut got,
            out_c,
            1,
        );
        assert_eq!(got, want, "implicit conv diverged from im2col oracle");

        let packed = PackedWeights::pack(weights.as_slice(), out_c, k);
        let mut got_packed = vec![0.0f32; out_c * n];
        conv_gemm_packed_into(
            &mut packs,
            SimdLevel::auto(),
            &packed,
            input.as_slice(),
            &geom,
            &mut got_packed,
            1,
        );
        assert_eq!(got_packed, want, "pre-packed conv diverged from oracle");
    }

    /// Packs every `(jc, pc)` block of `geom`'s patch matrix two ways: the
    /// implicit conv packer, and `pack_b_panel` over an explicit `im2col`.
    /// The buffers start with different sentinels, so a slot either packer
    /// leaves unwritten fails too.
    fn assert_conv_packer_matches_im2col(geom: &ConvGeom, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let input = Tensor::uniform(
            &[geom.in_c(), geom.in_h(), geom.in_w()],
            -1.0,
            1.0,
            &mut rng,
        );
        let mut cols = Vec::new();
        im2col_into(&input, geom, &mut cols).unwrap();
        let (k, n) = (geom.patch_len(), geom.out_positions());
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let len = nc.div_ceil(NR) * NR * kc;
                let mut want = vec![f32::NAN; len];
                let mut got = vec![f32::INFINITY; len];
                pack_b_panel(&cols, false, n, k, jc, nc, pc, kc, &mut want);
                pack_b_conv_panel(input.as_slice(), geom, jc, nc, pc, kc, &mut got);
                let first_diff = got
                    .iter()
                    .zip(&want)
                    .position(|(g, w)| g.to_bits() != w.to_bits());
                assert_eq!(first_diff, None, "{geom}: block (jc {jc}, pc {pc})");
            }
        }
    }

    #[test]
    fn conv_packer_matches_im2col_packing_at_every_block() {
        let cases: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
            // (in_c, in_h, in_w, kh, kw, stride, pad)
            (3, 32, 32, 5, 5, 1, 2), // micronet conv1
            // k = 576 > KC: the blocks at pc = 256 and 512 start mid-channel
            // and mid-kernel-row (taps (1, 1) and (2, 2)).
            (64, 9, 9, 3, 3, 1, 1),
            // inception_3a 3×3: k = 864 and n = 784 cross KC and NC.
            (96, 28, 28, 3, 3, 1, 1),
            // 29×29 output: n = 841 > NC, and jc = 512 starts mid-row.
            (2, 29, 29, 3, 3, 1, 1),
            // Strides 2 and 3 whose last output column reads right padding.
            (3, 17, 17, 3, 3, 2, 1),
            (2, 19, 19, 4, 4, 3, 2),
            (3, 57, 57, 7, 7, 2, 3),
            // Stride above the kernel: input columns no tap reads.
            (2, 10, 10, 2, 2, 3, 0),
            // 5-wide rows under a 16-wide panel: short runs entirely left
            // or right of the input row (empty bodies).
            (1, 5, 3, 5, 5, 1, 3),
            (1, 7, 7, 7, 7, 1, 3),
            (16, 14, 14, 1, 1, 1, 0),
        ];
        for (i, &(c, h, w, kh, kw, s, p)) in cases.iter().enumerate() {
            let geom = ConvGeom::new(c, h, w, kh, kw, s, p).unwrap();
            assert_conv_packer_matches_im2col(&geom, 90 + i as u64);
        }
    }

    proptest::proptest! {
        /// Random geometries, wide enough in channels and extent for `k`
        /// to cross `KC` and `n` to cross `NC`.
        #[test]
        fn conv_packer_matches_im2col_packing_on_random_geometries(
            in_c in 1usize..=40,
            in_h in 1usize..=30,
            in_w in 1usize..=30,
            kh in 1usize..=5,
            kw in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=3,
            seed in 0u64..=1_000_000,
        ) {
            if let Ok(geom) = ConvGeom::new(in_c, in_h, in_w, kh, kw, stride, pad) {
                assert_conv_packer_matches_im2col(&geom, seed);
            }
        }
    }

    /// A narrow conv's padded input and tap table are scratch like the
    /// pack buffers: the first call grows them, later calls at the same
    /// shape reuse them.
    #[test]
    fn direct_conv_scratch_is_stable_across_repeated_calls() {
        let geom = ConvGeom::new(3, 32, 32, 5, 5, 1, 2).unwrap();
        let (m, k) = (4, geom.patch_len());
        let mut rng = Rng::seed_from(5);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let weights = Tensor::uniform(&[m, k], -0.5, 0.5, &mut rng);
        let packed = PackedWeights::pack(weights.as_slice(), m, k);
        let mut out = vec![0.0f32; m * geom.out_positions()];
        for threads in [1, 2] {
            let mut ws = Workspace::new();
            let mut run = |ws: &mut Workspace| {
                conv_gemm_packed_into(
                    ws.packs_mut(),
                    SimdLevel::auto(),
                    &packed,
                    input.as_slice(),
                    &geom,
                    &mut out,
                    threads,
                );
            };
            run(&mut ws);
            let before = ws.stats();
            assert!(before.padded_capacity > 0, "the direct path ran");
            for _ in 0..3 {
                run(&mut ws);
            }
            assert_eq!(before, ws.stats(), "{threads} threads: scratch regrew");
        }
    }

    /// Pre-packed weights are read in place, so a conv through
    /// `conv_gemm_packed_into` grows no A scratch beyond one placeholder
    /// float per worker, on the packed path (16 filters) and the direct
    /// path (4 filters) alike.
    #[test]
    fn pre_packed_weights_take_no_a_scratch() {
        let geom = ConvGeom::new(3, 32, 32, 5, 5, 1, 2).unwrap();
        let k = geom.patch_len();
        let mut rng = Rng::seed_from(9);
        let input = Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        for m in [16, 4] {
            let weights = Tensor::uniform(&[m, k], -0.5, 0.5, &mut rng);
            let packed = PackedWeights::pack(weights.as_slice(), m, k);
            let mut out = vec![0.0f32; m * geom.out_positions()];
            for threads in [1, 2] {
                let mut ws = Workspace::new();
                conv_gemm_packed_into(
                    ws.packs_mut(),
                    SimdLevel::auto(),
                    &packed,
                    input.as_slice(),
                    &geom,
                    &mut out,
                    threads,
                );
                let stats = ws.stats();
                assert!(
                    stats.pack_a_capacity <= threads,
                    "m={m} @ {threads} threads: {} floats of A scratch",
                    stats.pack_a_capacity
                );
            }
        }
    }

    #[test]
    fn packed_weights_report_their_footprint() {
        let w = PackedWeights::pack(&vec![1.0f32; 24 * 300], 24, 300);
        assert_eq!((w.m(), w.k()), (24, 300));
        // 24 rows → 3 MR-panels; 300 inner → blocks of 256 + 44.
        assert!(w.bytes() >= 3 * MR * 300 * std::mem::size_of::<f32>());
    }

    #[test]
    fn degenerate_inner_dimension_yields_zeros() {
        let mut ws = Workspace::new();
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = gemm(&mut ws, false, false, &a, &b, 4).unwrap();
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn inner_dim_mismatch_rejected() {
        let mut ws = Workspace::new();
        let a = random(3, 4, 7);
        let b = random(5, 6, 8);
        assert!(matches!(
            gemm(&mut ws, false, false, &a, &b, 1),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        // With trans_a the inner dim becomes 3, still != 5.
        assert!(gemm(&mut ws, true, false, &a, &b, 1).is_err());
    }

    #[test]
    fn workspace_buffers_stable_across_repeated_calls() {
        let a = random(70, 300, 9);
        let b = random(300, 120, 10);
        for threads in [1, 2] {
            let mut ws = Workspace::new();
            // First call grows the scratch to its high-water mark: one
            // A block and one B panel region per worker.
            gemm(&mut ws, false, false, &a, &b, threads).unwrap();
            let before = ws.stats();
            for _ in 0..3 {
                gemm(&mut ws, false, false, &a, &b, threads).unwrap();
            }
            assert_eq!(
                before,
                ws.stats(),
                "{threads} threads: pack buffers reallocated"
            );
        }
    }
}
