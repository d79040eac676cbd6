//! Owned transcendentals for the noise path.
//!
//! [`ln`] is a port of the Arm optimized-routines `logf`, which glibc has
//! shipped as its `logf` since 2.28, and [`sin_cos`] a port of the same
//! family's `sinf` and `cosf`. Both are written in plain `f64`
//! multiplies and adds, with no fused multiply-add and no libm call, so
//! their bits are the same on every IEEE target and under any
//! `target-cpu`. Neither branches on its input, so a loop of calls
//! vectorizes (the table reads become gathers or selects).
//!
//! On every positive normal `f32`, [`ln`] returns exactly the bits of
//! `f32::ln` as glibc 2.36 computes it; a release-mode test checks all
//! 2,130,706,432 of them. On every one of the 2²⁴ Box–Muller angles,
//! [`sin_cos`] returns exactly the bits of `f32::sin_cos`; a release-mode
//! test checks all of them. The noise fill and the Box–Muller radius and
//! angle call these instead of libm, so their bits no longer depend on the
//! platform libm.

/// `1/c` for the 16 equal subintervals of the f32 bit range
/// `[0x3f33_0000, 0x3fb3_0000)` (about `[0.70, 1.40)`),
/// each `c` near the subinterval's centre.
const INVC: [f64; 16] = [
    f64::from_bits(0x3ff6_61ec_79f8_f3be),
    f64::from_bits(0x3ff5_71ed_4aaf_883d),
    f64::from_bits(0x3ff4_9539_f0f0_10b0),
    f64::from_bits(0x3ff3_c995_b0b8_0385),
    f64::from_bits(0x3ff3_0d19_0c88_64a5),
    f64::from_bits(0x3ff2_5e22_7b0b_8ea0),
    f64::from_bits(0x3ff1_bb4a_4a1a_343f),
    f64::from_bits(0x3ff1_2358_f08a_e5ba),
    f64::from_bits(0x3ff0_953f_4199_00a7),
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0x3fee_608c_fd9a_47ac),
    f64::from_bits(0x3fec_a4b3_1f02_6aa0),
    f64::from_bits(0x3feb_2036_576a_fce6),
    f64::from_bits(0x3fe9_c2d1_63a1_aa2d),
    f64::from_bits(0x3fe8_86e6_0378_41ed),
    f64::from_bits(0x3fe7_67dc_f553_4862),
];

/// `ln c` for the same subintervals.
const LOGC: [f64; 16] = [
    f64::from_bits(0xbfd5_7bf7_808c_aade),
    f64::from_bits(0xbfd2_bef0_a7c0_6ddb),
    f64::from_bits(0xbfd0_1eae_7f51_3a67),
    f64::from_bits(0xbfcb_31d8_a682_24e9),
    f64::from_bits(0xbfc6_574f_0ac0_7758),
    f64::from_bits(0xbfc1_aa2b_c79c_8100),
    f64::from_bits(0xbfba_4e76_ce8c_0e5e),
    f64::from_bits(0xbfb1_973c_5a61_1ccc),
    f64::from_bits(0xbfa2_52f4_38e1_0c1e),
    f64::from_bits(0x0000_0000_0000_0000),
    f64::from_bits(0x3faa_a5aa_5df2_5984),
    f64::from_bits(0x3fbc_5e53_aa36_2eb4),
    f64::from_bits(0x3fc5_26e5_7720_db08),
    f64::from_bits(0x3fcb_c286_0d22_4770),
    f64::from_bits(0x3fd1_058b_c8a0_7ee1),
    f64::from_bits(0x3fd4_0430_57b6_ee09),
];

/// `(a0, a1, a2)`: `ln(1 + r) ≈ r + a2·r² + a1·r³ + a0·r⁴`.
const A: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];

/// `ln 2`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);

/// The natural logarithm of a positive normal `f32`, bit-identical to
/// glibc's `logf` (see the module docs).
///
/// `x = 2^k · z` with `z` in `[0x3f33_0000, 0x3fb3_0000)` (about
/// `[0.70, 1.40)`); the subinterval of `z` picks `c`, and
/// `ln x = k·ln 2 + ln c + ln(1 + (z/c − 1))`, the last term a degree-4
/// polynomial evaluated in `f64`. Zero, subnormal, negative, infinite and
/// NaN inputs are outside its domain and return unspecified values.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let [a0, a1, a2] = A;
    let tmp = x.to_bits().wrapping_sub(0x3f33_0000);
    let i = ((tmp >> 19) & 15) as usize;
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(x.to_bits().wrapping_sub(tmp & 0xff80_0000)));
    let r = z * INVC[i] - 1.0;
    let y0 = LOGC[i] + f64::from(k) * LN2;
    let r2 = r * r;
    let y = a1 * r + a2;
    let y = a0 * r2 + y;
    (y * r2 + (y0 + r)) as f32
}

/// `2/π·2²⁴`: the quadrant lands in bits 24 and up of the scaled
/// argument.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `π/2`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `(c0, c1, c2, c3, c4)`: `cos x ≈ c0 + c1·x² + c2·x⁴ + c3·x⁶ + c4·x⁸`.
const C: [f64; 5] = [
    1.0,
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
/// `(s1, s2, s3)`: `sin x ≈ x + s1·x³ + s2·x⁵ + s3·x⁷`.
const S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];

/// `(sin a, cos a)` of a finite `f32` with `|a| < 120`, computed as
/// glibc's `sinf` and `cosf` compute them without FMA (see the module
/// docs). For `|a| ≤ 2π`, the Box–Muller angle's range, that is also what
/// glibc's FMA build returns, so it equals `f32::sin_cos` there.
///
/// `a = n·π/2 + x` with `|x| ≤ π/4` (one multiply and a scaled integer
/// conversion pick `n`; one multiply-subtract reduces). Each result is one
/// of two polynomials in `x`, both evaluated: the sine polynomial of
/// `±x` for the result of parity `n`, the cosine polynomial, negated in
/// the second half-turn, for the other. Below `2⁻¹²`, `sin a = a` and
/// `cos a = 1`. Larger or non-finite inputs return unspecified values.
#[inline(always)]
pub fn sin_cos(a: f32) -> (f32, f32) {
    let [c0, c1, c2, c3, c4] = C;
    let [s1, s2, s3] = S;
    let x = f64::from(a);
    let n = ((x * HPI_INV) as i32 + 0x80_0000) >> 24;
    let x = x - f64::from(n) * HPI;
    let x2 = x * x;
    // The sine polynomial's argument: `x` or `−x` by quadrant.
    let xs = if (n + 1) & 2 == 0 { x } else { -x };
    let x3 = xs * x2;
    let sin = xs + x3 * s1 + x3 * x2 * (s2 + x2 * s3);
    let x4 = x2 * x2;
    let cos = c0 + x2 * c1 + x4 * c2 + x4 * x2 * (c3 + x2 * c4);
    // Negating the sum equals summing the negated coefficients.
    let cos = if n & 2 == 0 { cos } else { -cos };
    let (sin, cos) = if n & 1 == 0 { (sin, cos) } else { (cos, sin) };
    if a.abs() < 1.0 / 4096.0 {
        (a, 1.0)
    } else {
        (sin as f32, cos as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_matches_libm_on_samples() {
        // The subinterval edges, a coarse sweep, 1 and the smallest and
        // largest normals; the exhaustive check below runs in release
        // builds.
        let edges = (0..16).map(|j| 0x3f33_0000u32 + (j << 19));
        let sweep = (0x0080_0000u32..0x7f80_0000).step_by(65_537);
        for bits in edges
            .chain(sweep)
            .chain([0x3f80_0000, 0x0080_0000, 0x7f7f_ffff])
        {
            let x = f32::from_bits(bits);
            assert_eq!(ln(x).to_bits(), x.ln().to_bits(), "ln({x:e})");
        }
    }

    /// Every positive normal `f32`, split over two threads (~12 s of
    /// single-thread work in release). It compares with the platform libm,
    /// so it holds where that is glibc ≥ 2.28.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn ln_matches_libm_on_every_positive_normal_f32() {
        const LO: u32 = 0x0080_0000;
        const HI: u32 = 0x7f80_0000;
        let mid = LO + (HI - LO) / 2;
        let mismatches = crate::par::fan_out([(LO, mid), (mid, HI)], |(lo, hi)| {
            (lo..hi)
                .filter(|&bits| {
                    let x = f32::from_bits(bits);
                    ln(x).to_bits() != x.ln().to_bits()
                })
                .count()
        });
        assert_eq!(mismatches, [0, 0]);
    }

    #[test]
    fn sin_cos_matches_libm_on_samples() {
        // Every 4,099th f32 up to 2π in magnitude, both signs, the
        // quadrant edges and the tiny-argument cutoff. Larger arguments
        // are left out: glibc's FMA build of `sinf`/`cosf`, which x86-64
        // hosts with FMA run, reduces them more exactly and can differ by
        // an ulp (first at 58.119465).
        let sweep = (0..0x40c9_0fdbu32).step_by(4099);
        let edges = (0..5).map(|q| (f64::from(q) * HPI) as f32).flat_map(|e| {
            let b = e.to_bits();
            [b.saturating_sub(1), b, b + 1]
        });
        let cutoff = (1.0f32 / 4096.0).to_bits();
        for bits in sweep.chain(edges).chain([0, cutoff - 1, cutoff]) {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                let (sin, cos) = sin_cos(x);
                let (want_sin, want_cos) = x.sin_cos();
                assert_eq!(
                    (sin.to_bits(), cos.to_bits()),
                    (want_sin.to_bits(), want_cos.to_bits()),
                    "sin_cos({x:e})"
                );
            }
        }
    }
}
