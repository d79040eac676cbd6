//! Packed, cache-blocked i8×i8→i32 GEMM engine for the code-domain MAC.
//!
//! RedEye's weights are signed 8-bit DAC codes by construction, and on
//! exact-representable inputs the activations snap to 8-bit codes too, so
//! the noiseless part of the analog MAC is an integer product. This module
//! is the integer twin of [`crate::gemm`]: the same BLIS-style `MC/KC/NC`
//! blocking, pack-absorbs-transpose operand staging, and per-band thread
//! parallelism, but over `i8` operands accumulating into `i32` — which is
//! exact, so results are bit-identical across blockings and thread counts
//! by construction.
//!
//! The packed layout differs from the f32 engine in one way: operands are
//! staged as *adjacent-k pairs*. Each packed `i32` lane holds two
//! sign-extended `i16` codes for inner positions `2p` and `2p+1` (low and
//! high halves respectively; the tail of an odd extent is zero-padded).
//! That is precisely the operand shape of the AVX-512 VNNI `vpdpwssd`
//! instruction — per 32-bit lane, `acc += a.lo·b.lo + a.hi·b.hi` — so on
//! VNNI hardware the microkernel issues two fused multiply-accumulates per
//! row per step over a 8×32 register tile. On targets without AVX-512 VNNI
//! a portable scalar microkernel decodes the same pair layout, keeping the
//! engine correct (if slower) everywhere.
//!
//! All accumulation is wrapping `i32` arithmetic, matching the
//! (non-saturating) semantics of `vpdpwssd`; callers that need overflow-free
//! results bound `max_row(Σ|a|)·max|b|` below `2³¹` themselves (the
//! executor's code-domain fast path uses a far stricter `2²⁴` bound so the
//! f32 reference path stays exact too).

use crate::par;
use crate::workspace::PackBuffersI8;

/// Microkernel tile rows (output rows accumulated in registers at once).
const MR: usize = 8;
/// Microkernel tile columns (two 16-lane vector accumulators per row).
const NR: usize = 32;
/// Rows of A packed per L2-resident block (multiple of `MR`).
const MC: usize = 64;
/// Inner-dimension extent of one packed block, in *k units* (pairs = KC/2).
const KC: usize = 256;
/// Columns of B packed per shared panel (multiple of `NR`).
const NC: usize = 512;
/// Below this many flops (2·m·n·k) the product runs single-threaded.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 18;

/// Grows `v` to at least `len` elements and returns the prefix slice.
fn ensure_len(v: &mut Vec<i32>, len: usize) -> &mut [i32] {
    if v.len() < len {
        v.resize(len, 0);
    }
    &mut v[..len]
}

/// Packs two adjacent-k codes into one `i32` lane: low 16 bits hold the
/// sign-extended even-k code, high 16 bits the odd-k code.
#[inline(always)]
fn pair(lo: i8, hi: i8) -> i32 {
    (i32::from(hi) << 16) | i32::from(lo as i16 as u16)
}

/// Packs the `mc×kc` block of `op(A)` starting at (`row0`, `pc`) into
/// MR-row pair panels: step `p` of panel row `r` holds the codes for inner
/// positions `pc+2p` and `pc+2p+1`, zero-padding rows past `mc` and the odd
/// tail past `kc`.
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[i8],
    trans_a: bool,
    m: usize,
    k: usize,
    row0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [i32],
) {
    let steps = kc.div_ceil(2);
    let at = |i: usize, pp: usize| -> i8 {
        if trans_a {
            a[pp * m + i]
        } else {
            a[i * k + pp]
        }
    };
    let panels = mc.div_ceil(MR);
    for pi in 0..panels {
        let panel = &mut dst[pi * MR * steps..(pi + 1) * MR * steps];
        for p in 0..steps {
            for r in 0..MR {
                let row = pi * MR + r;
                panel[p * MR + r] = if row < mc {
                    let i = row0 + row;
                    let lo = at(i, pc + 2 * p);
                    let hi = if 2 * p + 1 < kc {
                        at(i, pc + 2 * p + 1)
                    } else {
                        0
                    };
                    pair(lo, hi)
                } else {
                    0
                };
            }
        }
    }
}

/// Packs the `kc×nc` panel of `op(B)` starting at (`pc`, `jc`) into
/// NR-column pair panels, zero-padded past `nc` and past the odd `kc` tail.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    b: &[i8],
    trans_b: bool,
    n: usize,
    k: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    dst: &mut [i32],
) {
    let steps = kc.div_ceil(2);
    let bt = |pp: usize, j: usize| -> i8 {
        if trans_b {
            b[j * k + pp]
        } else {
            b[pp * n + j]
        }
    };
    let panels = nc.div_ceil(NR);
    for pi in 0..panels {
        let panel = &mut dst[pi * NR * steps..(pi + 1) * NR * steps];
        for p in 0..steps {
            for c in 0..NR {
                let col = pi * NR + c;
                panel[p * NR + c] = if col < nc {
                    let j = jc + col;
                    let lo = bt(pc + 2 * p, j);
                    let hi = if 2 * p + 1 < kc {
                        bt(pc + 2 * p + 1, j)
                    } else {
                        0
                    };
                    pair(lo, hi)
                } else {
                    0
                };
            }
        }
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    target_feature = "avx512vnni"
))]
mod vnni {
    //! The AVX-512 VNNI register microkernel.
    //!
    //! Everything here uses the *safe* `#[target_feature]` intrinsics of
    //! Rust ≥ 1.87: value operations like `_mm512_dpwssd_epi32` are safe to
    //! call inside a function annotated with the matching target features,
    //! so no raw pointer ever appears. Vector loads are assembled with
    //! `_mm512_set_epi32` from bounds-checked slices (LLVM folds the lane
    //! construction into a single 64-byte load) and stores go through
    //! per-lane extracts, which fold likewise.

    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_extract_epi32, _mm512_dpwssd_epi32, _mm512_extracti64x4_epi64,
        _mm512_set1_epi32, _mm512_set_epi32, _mm512_setzero_si512,
    };

    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    fn load_zmm(w: &[i32; 16]) -> __m512i {
        _mm512_set_epi32(
            w[15], w[14], w[13], w[12], w[11], w[10], w[9], w[8], w[7], w[6], w[5], w[4], w[3],
            w[2], w[1], w[0],
        )
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    fn store_zmm(v: __m512i, out: &mut [i32; 16]) {
        let lo: __m256i = _mm512_extracti64x4_epi64::<0>(v);
        let hi: __m256i = _mm512_extracti64x4_epi64::<1>(v);
        out[0] = _mm256_extract_epi32::<0>(lo);
        out[1] = _mm256_extract_epi32::<1>(lo);
        out[2] = _mm256_extract_epi32::<2>(lo);
        out[3] = _mm256_extract_epi32::<3>(lo);
        out[4] = _mm256_extract_epi32::<4>(lo);
        out[5] = _mm256_extract_epi32::<5>(lo);
        out[6] = _mm256_extract_epi32::<6>(lo);
        out[7] = _mm256_extract_epi32::<7>(lo);
        out[8] = _mm256_extract_epi32::<0>(hi);
        out[9] = _mm256_extract_epi32::<1>(hi);
        out[10] = _mm256_extract_epi32::<2>(hi);
        out[11] = _mm256_extract_epi32::<3>(hi);
        out[12] = _mm256_extract_epi32::<4>(hi);
        out[13] = _mm256_extract_epi32::<5>(hi);
        out[14] = _mm256_extract_epi32::<6>(hi);
        out[15] = _mm256_extract_epi32::<7>(hi);
    }

    /// The dual-accumulator `vpdpwssd` tile: each pair step broadcasts one
    /// packed i16 pair per row and issues two dot-accumulates against the
    /// 32 packed B lanes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    pub(super) fn microkernel(apanel: &[i32], bpanel: &[i32], out: &mut [[i32; NR]; MR]) {
        let mut acc = [[_mm512_setzero_si512(); 2]; MR];
        let (asteps, _) = apanel.as_chunks::<MR>();
        let (bsteps, _) = bpanel.as_chunks::<NR>();
        for (ap, bp) in asteps.iter().zip(bsteps.iter()) {
            let b0 = load_zmm(bp[0..16].try_into().expect("16-lane half"));
            let b1 = load_zmm(bp[16..32].try_into().expect("16-lane half"));
            for r in 0..MR {
                let a = _mm512_set1_epi32(ap[r]);
                acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], a, b0);
                acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], a, b1);
            }
        }
        for (acc_r, out_r) in acc.iter().zip(out.iter_mut()) {
            store_zmm(acc_r[0], (&mut out_r[0..16]).try_into().expect("half"));
            store_zmm(acc_r[1], (&mut out_r[16..32]).try_into().expect("half"));
        }
    }
}

/// Runs one `MR×NR` integer tile over `kc.div_ceil(2)` packed pair steps.
/// On AVX-512 VNNI builds this dispatches to the `vpdpwssd` microkernel;
/// elsewhere a portable scalar kernel decodes the same pair layout.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    target_feature = "avx512vnni"
))]
#[allow(unsafe_code)]
#[inline(always)]
fn microkernel(apanel: &[i32], bpanel: &[i32]) -> [[i32; NR]; MR] {
    let mut out = [[0i32; NR]; MR];
    // SAFETY: this arm only compiles when the build configuration statically
    // enables avx512f/avx512bw/avx512vnni (see the cfg gate), so the ISA is
    // guaranteed present on every machine the binary targets; the callee
    // touches memory only through safe bounds-checked slices.
    unsafe { vnni::microkernel(apanel, bpanel, &mut out) };
    out
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    target_feature = "avx512vnni"
)))]
#[inline(always)]
fn microkernel(apanel: &[i32], bpanel: &[i32]) -> [[i32; NR]; MR] {
    #[inline(always)]
    fn madd_row(acc: &mut [i32; NR], a: i32, b: &[i32; NR]) {
        // Decode the packed pair lanes; wrapping adds mirror `vpdpwssd`.
        let (a0, a1) = ((a << 16) >> 16, a >> 16);
        for c in 0..NR {
            let (b0, b1) = ((b[c] << 16) >> 16, b[c] >> 16);
            acc[c] = acc[c].wrapping_add(a0 * b0).wrapping_add(a1 * b1);
        }
    }
    let mut acc = [[0i32; NR]; MR];
    let (asteps, _) = apanel.as_chunks::<MR>();
    let (bsteps, _) = bpanel.as_chunks::<NR>();
    for (ap, b) in asteps.iter().zip(bsteps.iter()) {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            madd_row(acc_r, ap[r], b);
        }
    }
    acc
}

/// Computes one output row band against the shared packed B panel, exactly
/// mirroring the f32 engine's band decomposition (see
/// [`crate::gemm`]): col-panel outer / row-panel inner, contributions
/// accumulated so the `KC`-blocked outer loop can sum partial products.
#[allow(clippy::too_many_arguments)]
fn compute_band(
    a: &[i8],
    trans_a: bool,
    m: usize,
    k: usize,
    n: usize,
    bpack: &[i32],
    apack: &mut [i32],
    out_band: &mut [i32],
    row0: usize,
    band_m: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) {
    let steps = kc.div_ceil(2);
    let col_panels = nc.div_ceil(NR);
    let mut ic = 0usize;
    while ic < band_m {
        let mc = MC.min(band_m - ic);
        pack_a_block(a, trans_a, m, k, row0 + ic, mc, pc, kc, apack);
        let row_panels = mc.div_ceil(MR);
        for pj in 0..col_panels {
            let bpanel = &bpack[pj * NR * steps..][..NR * steps];
            for pi in 0..row_panels {
                let apanel = &apack[pi * MR * steps..][..MR * steps];
                let rows = MR.min(mc - pi * MR);
                let acc = microkernel(apanel, bpanel);
                let cols = NR.min(nc - pj * NR);
                for (r, acc_row) in acc.iter().enumerate().take(rows) {
                    let base = (ic + pi * MR + r) * n + jc + pj * NR;
                    for (dst, &v) in out_band[base..base + cols].iter_mut().zip(acc_row.iter()) {
                        *dst = dst.wrapping_add(v);
                    }
                }
            }
        }
        ic += mc;
    }
}

/// Computes `out = op(A) · op(B)` over raw row-major `i8` code slices,
/// accumulating into `i32` with wrapping arithmetic.
///
/// The contract mirrors [`crate::gemm::gemm_into`]: `op(X)` is `X` or `Xᵀ`
/// per the transpose flags, `m`/`n`/`k` are the logical product dimensions,
/// `out` is fully overwritten, packing scratch comes from `packs` and is
/// only ever grown, and `threads` bounds row-band worker parallelism (small
/// products ignore it). Because `i32` accumulation of in-range products is
/// exact, results are bit-identical across thread counts and blockings.
///
/// # Panics
///
/// Panics if a slice length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_into(
    packs: &mut PackBuffersI8,
    trans_a: bool,
    trans_b: bool,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "operand A length vs {m}x{k}");
    assert_eq!(b.len(), k * n, "operand B length vs {k}x{n}");
    assert_eq!(out.len(), m * n, "output length vs {m}x{n}");
    out.fill(0);
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
            let steps = kc.div_ceil(2);
            let bpack = ensure_len(&mut packs.b, nc.div_ceil(NR) * NR * steps);
            pack_b_panel(b, trans_b, n, k, jc, nc, pc, kc, bpack);
            let ablock = MC * KC.div_ceil(2);
            if threads == 1 {
                let apack = ensure_len(&mut packs.a, ablock);
                compute_band(a, trans_a, m, k, n, bpack, apack, out, 0, m, jc, nc, pc, kc);
            } else {
                let band_rows = m.div_ceil(threads).div_ceil(MR) * MR;
                let apack_all = ensure_len(&mut packs.a, threads * ablock);
                let bpack: &[i32] = bpack;
                let bands = out
                    .chunks_mut(band_rows * n)
                    .zip(apack_all.chunks_mut(ablock))
                    .enumerate();
                par::fan_out(bands, |(t, (out_band, apack))| {
                    let band_m = out_band.len() / n;
                    compute_band(
                        a,
                        trans_a,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn random_codes(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = Rng::seed_from(seed);
        (0..len).map(|_| rng.uniform(-127.0, 128.0) as i8).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn naive(
        a: &[i8],
        b: &[i8],
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
    ) -> Vec<i32> {
        let at = |i: usize, p: usize| i32::from(if trans_a { a[p * m + i] } else { a[i * k + p] });
        let bt = |p: usize, j: usize| i32::from(if trans_b { b[j * k + p] } else { b[p * n + j] });
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for p in 0..k {
                    s = s.wrapping_add(at(i, p) * bt(p, j));
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    #[test]
    fn matches_naive_on_non_multiple_of_block_dims() {
        let mut packs = PackBuffersI8::new();
        // Dimensions straddle MR/NR/MC/KC/NC boundaries; odd inner extents
        // exercise the pair-tail zero padding.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (9, 33, 65),
            (65, 257, 9),
            (70, 300, 513),
        ] {
            let a = random_codes(m * k, m as u64);
            let b = random_codes(k * n, n as u64 + 100);
            let mut got = vec![0i32; m * n];
            gemm_i8_into(&mut packs, false, false, &a, &b, &mut got, m, n, k, 1);
            assert_eq!(got, naive(&a, &b, false, false, m, n, k), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_flags_match_explicit_transposes() {
        let mut packs = PackBuffersI8::new();
        // aᵀ(9×13) · b(13×17)
        let a = random_codes(13 * 9, 1);
        let b = random_codes(13 * 17, 2);
        let mut got = vec![0i32; 9 * 17];
        gemm_i8_into(&mut packs, true, false, &a, &b, &mut got, 9, 17, 13, 1);
        assert_eq!(got, naive(&a, &b, true, false, 9, 17, 13));
        // c(9×13) · dᵀ(13×21)
        let c = random_codes(9 * 13, 3);
        let d = random_codes(21 * 13, 4);
        let mut got = vec![0i32; 9 * 21];
        gemm_i8_into(&mut packs, false, true, &c, &d, &mut got, 9, 21, 13, 1);
        assert_eq!(got, naive(&c, &d, false, true, 9, 21, 13));
        // both transposed: aᵀ(9×13) · dᵀ(13×21)
        let mut got = vec![0i32; 9 * 21];
        gemm_i8_into(&mut packs, true, true, &a, &d, &mut got, 9, 21, 13, 1);
        assert_eq!(got, naive(&a, &d, true, true, 9, 21, 13));
    }

    #[test]
    fn threaded_result_is_bit_identical_to_serial() {
        let mut packs = PackBuffersI8::new();
        let (m, k, n) = (150, 80, 90);
        let a = random_codes(m * k, 5);
        let b = random_codes(k * n, 6);
        let mut serial = vec![0i32; m * n];
        gemm_i8_into(&mut packs, false, false, &a, &b, &mut serial, m, n, k, 1);
        for threads in [2, 3, 4, 7] {
            let mut parallel = vec![0i32; m * n];
            gemm_i8_into(
                &mut packs,
                false,
                false,
                &a,
                &b,
                &mut parallel,
                m,
                n,
                k,
                threads,
            );
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn degenerate_inner_dimension_yields_zeros() {
        let mut packs = PackBuffersI8::new();
        let mut out = vec![7i32; 3 * 4];
        gemm_i8_into(&mut packs, false, false, &[], &[], &mut out, 3, 4, 0, 4);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn accumulation_wraps_like_vpdpwssd() {
        // 2^24 products of 127·127 overflow i32; both kernels must agree on
        // the wrapped value rather than saturate or panic.
        let mut packs = PackBuffersI8::new();
        let k = 1 << 18;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        let mut got = vec![0i32; 1];
        gemm_i8_into(&mut packs, false, false, &a, &b, &mut got, 1, 1, k, 1);
        let want = (0..k).fold(0i32, |s, _| s.wrapping_add(127 * 127));
        assert_eq!(got[0], want);
    }

    #[test]
    fn pack_buffers_stable_across_repeated_calls() {
        let mut packs = PackBuffersI8::new();
        let (m, k, n) = (70, 300, 120);
        let a = random_codes(m * k, 9);
        let b = random_codes(k * n, 10);
        let mut out = vec![0i32; m * n];
        gemm_i8_into(&mut packs, false, false, &a, &b, &mut out, m, n, k, 2);
        let before = (
            packs.a.as_ptr() as usize,
            packs.a.capacity(),
            packs.b.as_ptr() as usize,
            packs.b.capacity(),
        );
        for _ in 0..3 {
            gemm_i8_into(&mut packs, false, false, &a, &b, &mut out, m, n, k, 2);
        }
        let after = (
            packs.a.as_ptr() as usize,
            packs.a.capacity(),
            packs.b.as_ptr() as usize,
            packs.b.capacity(),
        );
        assert_eq!(before, after, "pack buffers must not reallocate");
    }
}
