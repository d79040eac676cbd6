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
//!   amortize spawning, output row bands are computed in parallel with
//!   scoped threads. Workers share the packed B panel read-only and each
//!   packs its own A blocks into a private region of the caller's
//!   [`PackBuffers`], so the parallel path allocates nothing either.
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

/// Grows `v` to at least `len` elements and returns the prefix slice.
fn ensure_len(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
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
/// zero-padded). Band/`MC` sub-blocking never changes panel contents —
/// band boundaries are MR-aligned — so a GEMM reading these panels is
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

/// The register microkernel: one `MR×NR` accumulator tile over a shared
/// inner extent. `apanel` is `kc` steps of `MR` packed A values, `bpanel`
/// `kc` steps of `NR` packed B values; the fixed-size accumulator array and
/// `as_chunks` iteration make the loop body branch- and bounds-check free.
/// Per element it computes `acc[c] += a * b[c]`: two roundings per step,
/// `k`-sequential, no FMA.
#[inline(always)]
fn mul_add_row(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for c in 0..NR {
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

/// Computes one output row band (`band_m` rows starting at global row
/// `row0`) against the shared packed B panel. Raw-matrix A blocks are
/// packed into the worker-private `apack` scratch; pre-packed A serves
/// panels straight from its shared buffer. `out_band` is the band's
/// row-major slice of the full output (width `n`); contributions are
/// accumulated so the `KC`-blocked outer loop can sum partial products.
#[allow(clippy::too_many_arguments)]
fn compute_band(
    asrc: ASrc<'_>,
    m: usize,
    k: usize,
    n: usize,
    bpack: &[f32],
    apack: &mut [f32],
    out_band: &mut [f32],
    row0: usize,
    band_m: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    let col_panels = nc.div_ceil(NR);
    let mut ic = 0usize;
    while ic < band_m {
        let mc = MC.min(band_m - ic);
        let ablock: &[f32] = match asrc {
            ASrc::Mat { a, trans } => {
                pack_a_block(a, trans, m, k, row0 + ic, mc, pc, kc, apack);
                apack
            }
            // Band and MC boundaries are MR-aligned, so the pre-packed
            // panels for these rows are bit-identical to what
            // pack_a_block would have produced (see PackedWeights).
            ASrc::Packed(pw) => pw.block_panels(row0 + ic, pc, kc),
        };
        let row_panels = mc.div_ceil(MR);
        // Col-panel outer / row-panel inner keeps the `KC×NR` B slice hot in
        // L1 while successive A panels stream from the packed L2 block.
        for pj in 0..col_panels {
            let bpanel = &bpack[pj * NR * kc..][..NR * kc];
            for pi in 0..row_panels {
                let apanel = &ablock[pi * MR * kc..][..MR * kc];
                let rows = MR.min(mc - pi * MR);
                let acc = microkernel(apanel, bpanel);
                let cols = NR.min(nc - pj * NR);
                for (r, acc_row) in acc.iter().enumerate().take(rows) {
                    let base = (ic + pi * MR + r) * n + jc + pj * NR;
                    for (dst, &v) in out_band[base..base + cols].iter_mut().zip(acc_row.iter()) {
                        *dst += v;
                    }
                }
            }
        }
        ic += mc;
    }
}

/// The shared blocked driver behind every public entry point: packs B
/// panels (explicit matrix or implicit conv gather), then computes output
/// row bands serially or across scoped worker threads.
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
    let threads = if flops < PARALLEL_FLOP_THRESHOLD {
        1
    } else {
        threads.clamp(1, m.div_ceil(MR))
    };

    let mut jc = 0usize;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0usize;
        while pc < k {
            let kc = KC.min(k - pc);
            let bpack = ensure_len(&mut packs.b, nc.div_ceil(NR) * NR * kc);
            match bsrc {
                BSrc::Mat { b, trans } => pack_b_panel(b, trans, n, k, jc, nc, pc, kc, bpack),
                BSrc::Conv { src, geom } => pack_b_conv_panel(src, geom, jc, nc, pc, kc, bpack),
            }
            if threads == 1 {
                let apack = ensure_len(&mut packs.a, MC * KC);
                compute_band(asrc, m, k, n, bpack, apack, out, 0, m, jc, nc, pc, kc);
            } else {
                // One MR-aligned row band per worker; each worker packs A
                // into its private region and owns its band of `out`, so the
                // packed B panel is the only shared (read-only) state.
                let band_rows = m.div_ceil(threads).div_ceil(MR) * MR;
                let apack_all = ensure_len(&mut packs.a, threads * MC * KC);
                let bpack: &[f32] = bpack;
                let bands = out
                    .chunks_mut(band_rows * n)
                    .zip(apack_all.chunks_mut(MC * KC))
                    .enumerate();
                par::fan_out(bands, |(t, (out_band, apack))| {
                    let band_m = out_band.len() / n;
                    compute_band(
                        asrc,
                        m,
                        k,
                        n,
                        bpack,
                        apack,
                        out_band,
                        t * band_rows,
                        band_m,
                        jc,
                        nc,
                        pc,
                        kc,
                    );
                });
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Computes `out = op(A) · op(B)` over raw row-major slices.
///
/// `op(X)` is `X` or `Xᵀ` per the transpose flags; `m`, `n`, `k` are the
/// *logical* dimensions of the product (`op(A)` is `m×k`, `op(B)` is `k×n`).
/// `out` is fully overwritten. Packing scratch comes from `packs` and is
/// only ever grown, so steady-state calls at a fixed shape allocate
/// nothing. `threads` bounds worker parallelism over output row bands;
/// small products ignore it and run serially.
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
/// taps (zeros in the padding border) straight from the `C×H×W` input.
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

    #[test]
    fn threaded_result_is_bit_identical_to_serial() {
        let mut ws = Workspace::new();
        let a = random(150, 80, 5);
        let b = random(80, 90, 6);
        let serial = gemm(&mut ws, false, false, &a, &b, 1).unwrap();
        for threads in [2, 3, 4, 7] {
            let parallel = gemm(&mut ws, false, false, &a, &b, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
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
        let mut ws = Workspace::new();
        let a = random(70, 300, 9);
        let b = random(300, 120, 10);
        // First call grows the scratch to its high-water mark.
        gemm(&mut ws, false, false, &a, &b, 2).unwrap();
        let before = ws.stats();
        for _ in 0..3 {
            gemm(&mut ws, false, false, &a, &b, 2).unwrap();
        }
        assert_eq!(before, ws.stats(), "pack buffers must not reallocate");
    }
}
