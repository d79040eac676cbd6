//! Property-based equivalence for the implicit-GEMM convolution path and
//! the threaded GEMM.
//!
//! Two bit-exactness contracts are pinned here:
//!
//! 1. **Implicit == explicit lowering.** `conv_gemm_into` (and its
//!    pack-once variant `conv_gemm_packed_into`) must equal
//!    `im2col_into` + `gemm_into` *bitwise* at every geometry, because the
//!    conv B-panel packer gathers exactly the values im2col would have
//!    staged — padding taps as literal `0.0` — and the multiply itself is
//!    the same blocked engine.
//!
//! 2. **Thread invariance.** A GEMM split over any thread budget must equal
//!    the serial call bitwise at any shape: each output element is
//!    accumulated by exactly one worker in the same `k`-order.
//!
//! Both are exact assertions (`to_bits` equality), not tolerances.

use proptest::prelude::*;
use redeye_tensor::{
    conv_gemm_into, conv_gemm_packed_into, gemm_into, im2col_into, ConvGeom, PackBuffers,
    PackedWeights, Rng, SimdLevel, Tensor, Workspace,
};

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed);
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// The explicit lowering: `im2col` then the packed GEMM — the differential
/// oracle the implicit path must match bit-for-bit.
fn explicit_conv(geom: &ConvGeom, weights: &[f32], input: &[f32], out_c: usize) -> Vec<f32> {
    let x = Tensor::from_vec(input.to_vec(), &[geom.in_c(), geom.in_h(), geom.in_w()]).unwrap();
    let mut ws = Workspace::new();
    let (cols, packs) = ws.split_im2col_packs();
    im2col_into(&x, geom, cols).unwrap();
    let (patch, positions) = (geom.patch_len(), geom.out_positions());
    let mut out = vec![0.0f32; out_c * positions];
    gemm_into(
        packs, false, false, weights, cols, &mut out, out_c, positions, patch, 1,
    );
    out
}

/// Asserts both implicit entry points equal the explicit oracle bitwise,
/// at a serial and an oversubscribed thread budget.
fn assert_conv_equivalence(geom: &ConvGeom, out_c: usize, seed: u64) {
    let weights = random_vec(out_c * geom.patch_len(), seed);
    let input = random_vec(geom.in_c() * geom.in_h() * geom.in_w(), seed ^ 0x9e37_79b9);
    let oracle = explicit_conv(geom, &weights, &input, out_c);
    let packed = PackedWeights::pack(&weights, out_c, geom.patch_len());
    for threads in [1usize, 3] {
        let mut packs = PackBuffers::new();
        let mut out = vec![0.0f32; oracle.len()];
        conv_gemm_into(&mut packs, &weights, &input, geom, &mut out, out_c, threads);
        assert!(
            bits(&out) == bits(&oracle),
            "implicit conv diverged from im2col oracle at {geom}, {threads} threads"
        );
        out.fill(0.0);
        conv_gemm_packed_into(
            &mut packs,
            SimdLevel::auto(),
            &packed,
            &input,
            geom,
            &mut out,
            threads,
        );
        assert!(
            bits(&out) == bits(&oracle),
            "pack-once conv diverged from im2col oracle at {geom}, {threads} threads"
        );
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Fixed geometries from the zoo networks the simulator actually runs:
/// the TinyInception stem, the GoogLeNet 7×7/s2 stem (spatially shrunk),
/// and the three TinyInception branch kernels, plus stride/pad edge cases.
#[test]
fn zoo_geometries_are_bit_exact_against_the_oracle() {
    let cases: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        // (in_c, in_h, in_w, kh, kw, stride, pad), out_c varied below.
        (3, 32, 32, 3, 3, 1, 1),  // TinyInception stem
        (3, 57, 57, 7, 7, 2, 3),  // GoogLeNet stem kernel, shrunk input
        (16, 14, 14, 1, 1, 1, 0), // inception 1×1 reduce
        (8, 14, 14, 3, 3, 1, 1),  // inception 3×3 branch
        (4, 14, 14, 5, 5, 1, 2),  // inception 5×5 branch
        (2, 9, 9, 3, 3, 2, 0),    // strided, no pad
        (1, 7, 7, 7, 7, 1, 3),    // kernel == input, all-pad border
        (5, 1, 11, 1, 3, 1, 1),   // degenerate height
    ];
    for (i, &(c, h, w, kh, kw, s, p)) in cases.iter().enumerate() {
        let geom = ConvGeom::new(c, h, w, kh, kw, s, p).unwrap();
        let out_c = 1 + (i % 3) * 8 + i; // 1..=23, straddles MR=8 panels
        assert_conv_equivalence(&geom, out_c, 0xC0FFEE ^ i as u64);
    }
}

/// Geometries that put the packer's block and run boundaries in awkward
/// places: `KC` = 256 inner rows and `NC` = 512 columns per packed block,
/// `NR` = 16 columns per panel.
#[test]
fn packer_block_and_run_boundaries_are_bit_exact_against_the_oracle() {
    let cases: &[([usize; 7], usize)] = &[
        // ([in_c, in_h, in_w, kh, kw, stride, pad], out_c)
        ([3, 32, 32, 5, 5, 1, 2], 4), // micronet conv1
        // k = 576 > KC: the blocks at pc = 256 and 512 start mid-channel
        // and mid-kernel-row.
        ([64, 9, 9, 3, 3, 1, 1], 9),
        // n = 841 > NC: the block at jc = 512 starts 19 columns into a row.
        ([2, 29, 29, 3, 3, 1, 1], 5),
        // Strides 2 and 3 whose last output column reads right padding.
        ([3, 17, 17, 3, 3, 2, 1], 8),
        ([2, 19, 19, 4, 4, 3, 2], 3),
        // 5-wide output rows under 16-wide panels: short runs that lie
        // wholly in the left or right padding have an empty body.
        ([1, 5, 3, 5, 5, 1, 3], 2),
    ];
    for (i, &([c, h, w, kh, kw, s, p], out_c)) in cases.iter().enumerate() {
        let geom = ConvGeom::new(c, h, w, kh, kw, s, p).unwrap();
        assert_conv_equivalence(&geom, out_c, 0xB10C ^ i as u64);
    }
}

proptest! {
    /// Random geometries: the implicit packer must agree with the oracle
    /// bitwise wherever the geometry is constructible.
    #[test]
    fn implicit_conv_matches_oracle_on_random_geometries(
        in_c in 1usize..=4,
        in_h in 1usize..=14,
        in_w in 1usize..=14,
        kh in 1usize..=5,
        kw in 1usize..=5,
        stride in 1usize..=3,
        pad in 0usize..=3,
        out_c in 1usize..=17,
        seed in 0u64..=1_000_000,
    ) {
        let Ok(geom) = ConvGeom::new(in_c, in_h, in_w, kh, kw, stride, pad) else {
            // Kernel larger than the padded input: nothing to check.
            return Ok(());
        };
        assert_conv_equivalence(&geom, out_c, seed);
    }

    /// Plain GEMM at any thread budget is bit-identical to the serial call
    /// at any shape.
    #[test]
    fn threaded_gemm_bit_identical_to_serial_on_random_gemms(
        m in 1usize..=70,
        k in 1usize..=60,
        n in 1usize..=60,
        threads in 1usize..=4,
        seed in 0u64..=1_000_000,
    ) {
        let a = random_vec(m * k, seed);
        let b = random_vec(k * n, seed ^ 0xBEEF);
        let mut reference = vec![0.0f32; m * n];
        let mut packs = PackBuffers::new();
        gemm_into(&mut packs, false, false, &a, &b, &mut reference, m, n, k, 1);
        let mut out = vec![0.0f32; m * n];
        gemm_into(&mut packs, false, false, &a, &b, &mut out, m, n, k, threads);
        prop_assert_eq!(
            bits(&out), bits(&reference),
            "{} threads diverged from the serial call", threads
        );
    }
}
