//! Counter-based deterministic noise streams.
//!
//! The sequential [`crate::Rng`] defines correctness by *draw order*: every
//! consumer advances one shared generator, so two runs agree only if every
//! sample is taken in exactly the same sequence. That forbids parallelism —
//! resharding a loop over threads reorders the draws and changes the output.
//!
//! [`NoiseStream`] removes the order dependence by making every sample a
//! pure function of `(seed, site, draw)`, in the spirit of counter-based
//! generators (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
//! SC'11) and Java's SplittableRandom. A stream is just a 64-bit key;
//! [`NoiseStream::at`] derives an independent per-site generator by mixing
//! the key with the site id through the SplitMix64 finalizer, and each
//! per-site draw advances a Weyl sequence through the same finalizer. No
//! state is shared between sites, so any loop over sites can be sharded
//! across threads — in any order, at any granularity — and produce
//! bit-identical results.
//!
//! The one batched Gaussian path, [`NoiseStream::add_scaled_normal`], adds
//! a plane's scaled noise in place. The executor's layer-noise stage and
//! the simulator's Gaussian noise layer (`redeye_sim::GaussianNoise`) both
//! draw through it, keyed the same way: a frame's substream, then one
//! substream per noise stage in DFS order. Consecutive element *pairs*
//! share one two-output Marsaglia polar evaluation (one `ln`/`sqrt`, no
//! trigonometry), cutting the transcendental cost well below scalar
//! per-element Box–Muller. Pairs are evaluated a block at a time, phase by
//! phase (hashes and first attempts, lockstep retry rounds, scale, apply),
//! and every phase is a loop over the block with no per-pair branch, so
//! the compiler vectorizes it. The `ln` is the owned [`crate::math::ln`],
//! bit-identical to glibc's `logf` but plain arithmetic, so noise bits do
//! not depend on the platform libm. Because the pair index is derived from
//! the element index, noise added over `[lo, hi)` equals the concatenation
//! of noise added over any partition of `[lo, hi)` — the property the
//! column-parallel executor relies on.

use crate::math;
use std::f32::consts::PI;

/// SplitMix64 Weyl increment (golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Sites per lockstep group: of [`NoiseStream::uniform_indices`], and of
/// one pass of the batched normal fill's retry rounds.
pub const LANES: usize = 8;

/// The SplitMix64 output finalizer: a bijective avalanche mix of `z`.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts 24 high bits of `x` to a uniform `f32` in `[0, 1)`, matching
/// the convention of the workspace's sequential generator.
#[inline]
fn unit_f32(x: u64) -> f32 {
    (x >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

/// Whole sample pairs per block of the batched normal fill.
const BLOCK_PAIRS: usize = 256;

/// The per-pair arrays of one block of the batched normal fill (8.5 KiB).
/// [`NoiseStream::for_each_normal`] zeroes one on its stack and reuses it
/// for every block, instead of zeroing fresh arrays per block.
struct PolarBlock {
    /// Each pair's current polar point.
    u: [f32; BLOCK_PAIRS],
    v: [f32; BLOCK_PAIRS],
    /// Each pair's squared radius `s`; in the last phases, its polar
    /// factor.
    s: [f32; BLOCK_PAIRS],
    /// The pairs still rejected, as indices into the block, packed at the
    /// front.
    listed: [u16; BLOCK_PAIRS],
    /// The listed pairs' site states, in `listed` order (before the
    /// listing, every pair's, in pair order).
    state: [u64; BLOCK_PAIRS],
    /// One retry round's attempts, in `listed` order.
    retry_u: [f32; BLOCK_PAIRS],
    retry_v: [f32; BLOCK_PAIRS],
    retry_s: [f32; BLOCK_PAIRS],
}

impl PolarBlock {
    const ZERO: PolarBlock = PolarBlock {
        u: [0.0; BLOCK_PAIRS],
        v: [0.0; BLOCK_PAIRS],
        s: [0.0; BLOCK_PAIRS],
        listed: [0; BLOCK_PAIRS],
        state: [0; BLOCK_PAIRS],
        retry_u: [0.0; BLOCK_PAIRS],
        retry_v: [0.0; BLOCK_PAIRS],
        retry_s: [0.0; BLOCK_PAIRS],
    };
}

/// Attempt `attempt` (from 0) of the Marsaglia polar method for the site
/// whose generator starts at `state` (see [`SiteRng`]): the point `(u, v)`
/// on `[−1, 1)²` built from the site's draws `2·attempt` and
/// `2·attempt + 1`, and its squared radius `s`.
#[inline(always)]
fn polar_attempt(state: u64, attempt: u64) -> (f32, f32, f32) {
    let draw = |j: u64| unit_f32(mix(state.wrapping_add((j + 1).wrapping_mul(GOLDEN))));
    let u = 2.0 * draw(2 * attempt) - 1.0;
    let v = 2.0 * draw(2 * attempt + 1) - 1.0;
    (u, v, u * u + v * v)
}

/// Whether a polar attempt lies strictly inside the unit disc, minus its
/// centre.
#[inline]
fn polar_accepts(s: f32) -> bool {
    s > 0.0 && s < 1.0
}

/// The first accepted polar attempt of the site whose generator starts at
/// `state`.
#[inline]
fn polar_point(state: u64) -> (f32, f32, f32) {
    let mut attempt = 0;
    loop {
        let point = polar_attempt(state, attempt);
        if polar_accepts(point.2) {
            return point;
        }
        attempt += 1;
    }
}

/// The polar transform's factor `sqrt(−2·ln s / s)`.
#[inline(always)]
fn polar_scale(s: f32) -> f32 {
    (-2.0 * math::ln(s) / s).sqrt()
}

/// Minimal sampling interface shared by the sequential [`crate::Rng`] and
/// the counter-based [`SiteRng`].
///
/// Analog behavioral models (comparator, SAR ADC, MAC, sample-and-hold) are
/// generic over this trait, so the same circuit code runs under the legacy
/// sequential stream and under per-site deterministic streams.
pub trait NoiseSource {
    /// A standard-normal (`N(0, 1)`) sample.
    fn standard_normal(&mut self) -> f32;

    /// Uniform sample in `[lo, hi)`.
    fn uniform(&mut self, lo: f32, hi: f32) -> f32;

    /// `true` with probability `p`.
    fn chance(&mut self, p: f32) -> bool;

    /// A normal sample with the given mean and standard deviation.
    fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.standard_normal()
    }
}

/// A splittable counter-based noise stream: a pure 64-bit key from which
/// per-site generators and labeled substreams are derived.
///
/// Cloning or copying a stream is free and sound — streams hold no draw
/// state. Two streams with the same key produce identical site generators.
///
/// # Example
///
/// ```
/// use redeye_tensor::{NoiseSource, NoiseStream};
///
/// let stream = NoiseStream::new(42);
/// // The same site always yields the same draws, independent of any other
/// // site having been sampled before it.
/// let a = stream.at(7).standard_normal();
/// let b = stream.at(7).standard_normal();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseStream {
    key: u64,
}

impl NoiseStream {
    /// Creates the root stream for `seed`.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so that small consecutive seeds land on unrelated keys.
        NoiseStream {
            key: mix(seed ^ 0x6A09_E667_F3BC_C909),
        }
    }

    /// Derives an independent stream for `label`.
    ///
    /// Substreams give each consumer (a frame, an instruction, a stage) its
    /// own site-id space, so site numbering can restart from zero in every
    /// consumer without collisions.
    #[must_use]
    pub fn substream(&self, label: u64) -> NoiseStream {
        NoiseStream {
            key: mix(self.key ^ mix(label.wrapping_mul(GOLDEN) ^ 0xE703_7ED1_A0B4_28DB)),
        }
    }

    /// The substream that seeds *all* of frame `frame`'s noise — the
    /// handoff point between a shared immutable frame engine and whichever
    /// worker thread executes the frame.
    ///
    /// Streams are plain `Copy` keys with no draw state, so a root stream
    /// can live in engine state shared across a worker pool while each
    /// worker derives its claimed frame's substream locally: the samples a
    /// frame draws depend only on `(seed, frame)`, never on the worker, the
    /// claim order, or any other frame having run first. That is the whole
    /// determinism argument for cross-frame batching (the executor keys
    /// instruction substreams off this one in DFS order, and sites off
    /// those).
    ///
    /// Currently frame labels share [`NoiseStream::substream`]'s label
    /// space; this named entry point pins the engine↔worker contract so the
    /// frame-labeling scheme can evolve independently of other substream
    /// consumers.
    #[must_use]
    pub fn frame_substream(&self, frame: u64) -> NoiseStream {
        self.substream(frame)
    }

    /// The per-site generator for `site`.
    ///
    /// Draws from the returned generator are a pure function of
    /// `(stream key, site, draw index)`; generators for distinct sites are
    /// statistically independent.
    pub fn at(&self, site: u64) -> SiteRng {
        SiteRng {
            state: mix(self.key.wrapping_add(site.wrapping_mul(GOLDEN))),
            spare_normal: None,
        }
    }

    /// The 24-bit uniform indices of draws `0..draws.len()` of the
    /// [`LANES`] site generators `sites`, in lockstep: `draws[k][l]` is
    /// `self.at(sites[l]).uniform_index(k)`. Each site is hashed once, and
    /// each draw offset is one branch-free pass over the lanes that the
    /// compiler vectorizes.
    #[inline]
    pub fn uniform_indices(&self, sites: &[u64; LANES], draws: &mut [[u32; LANES]]) {
        let states = sites.map(|site| self.at(site).state);
        let mut step = 0u64;
        for row in draws {
            step = step.wrapping_add(GOLDEN);
            *row = std::array::from_fn(|l| (mix(states[l].wrapping_add(step)) >> 40) as u32);
        }
    }

    /// One two-output Gaussian evaluation for element pair `pair`: returns
    /// the normals assigned to elements `2·pair` and `2·pair + 1`.
    ///
    /// Uses the Marsaglia polar transform — one `ln`/`sqrt` and no
    /// trigonometry per pair, the cheapest exact two-sample draw. The
    /// rejection loop consumes a variable number of uniforms, but they all
    /// come from the pair's own generator, so the result stays a pure
    /// function of `(key, pair)` and fills remain partition-invariant.
    #[inline]
    fn normal_pair(&self, pair: u64) -> (f32, f32) {
        let (u, v, s) = polar_point(self.at(pair).state);
        let scale = polar_scale(s);
        (u * scale, v * scale)
    }

    /// Adds `sigma`-scaled plane noise in place:
    /// `dst[i] += sigma * normal(first + i)`, where `normal(e)` is element
    /// `e`'s standard normal in this stream's plane.
    ///
    /// Element `e` always receives the same value regardless of how the
    /// plane is partitioned into calls: adding over `[0, n)` in one call is
    /// bit-identical to adding over any set of subranges that covers
    /// `[0, n)`. (Straddling a pair boundary recomputes that pair's polar
    /// evaluation once per side — partition on even offsets to avoid
    /// duplicate work.) With `sigma = 1` over zeros it writes the normals
    /// themselves, up to the sign of a zero.
    pub fn add_scaled_normal(&self, first: u64, sigma: f32, dst: &mut [f32]) {
        self.for_each_normal(first, dst, |slot, z| *slot += sigma * z);
    }

    /// The pair-walking loop behind [`NoiseStream::add_scaled_normal`].
    ///
    /// A leading element on an odd global index is the second half of its
    /// pair and a trailing element on an even one the first half; each
    /// recomputes its pair on its own and keeps that half. Every whole pair
    /// in between goes through [`NoiseStream::normal_block`], up to
    /// [`BLOCK_PAIRS`] at a time, all blocks sharing one [`PolarBlock`].
    #[inline]
    fn for_each_normal(&self, first: u64, dst: &mut [f32], apply: impl Fn(&mut f32, f32)) {
        let mut body = dst;
        if first & 1 == 1 {
            let Some((lead, rest)) = body.split_first_mut() else {
                return;
            };
            apply(lead, self.normal_pair(first >> 1).1);
            body = rest;
        }
        let first_pair = first.div_ceil(2);
        let (pairs, tail) = body.split_at_mut(body.len() & !1);
        if !pairs.is_empty() {
            let mut block = PolarBlock::ZERO;
            for (b, dst) in pairs.chunks_mut(2 * BLOCK_PAIRS).enumerate() {
                self.normal_block(
                    &mut block,
                    first_pair + (b * BLOCK_PAIRS) as u64,
                    dst,
                    &apply,
                );
            }
        }
        if let [last] = tail {
            apply(
                last,
                self.normal_pair(first_pair + (pairs.len() / 2) as u64).0,
            );
        }
    }

    /// Applies the normals of the `dst.len() / 2` whole pairs starting at
    /// pair `first_pair`, element `2·k + h` of `dst` receiving half `h` of
    /// pair `first_pair + k`, each exactly as [`NoiseStream::normal_pair`]
    /// computes it.
    ///
    /// The per-pair work is split into phases over the block, so that no
    /// phase carries a dependency from one pair to the next and none has a
    /// per-pair branch:
    ///
    /// 1. every pair's site hash and first polar attempt — two uniforms,
    ///    `u`, `v` and `s`;
    /// 2. the rejected pairs (about 21%) are listed with their site states
    ///    and retry in lockstep rounds: round `r` draws attempt `r` of
    ///    every listed pair in one pass, [`LANES`] at a time, and a
    ///    branch-free compaction keeps those still rejected (about 21% of
    ///    them again) for the next round, until none is left;
    /// 3. `sqrt(−2·ln s / s)` per pair, through the owned [`math::ln`];
    /// 4. the two products and `apply`.
    ///
    /// Phases 1, 3 and 4 and each round's attempts are loops the compiler
    /// vectorizes. A pair's attempts use its own site's draws in order, so
    /// every value goes through the same operations as in `normal_pair`.
    #[inline(always)]
    fn normal_block(
        &self,
        block: &mut PolarBlock,
        first_pair: u64,
        dst: &mut [f32],
        apply: &impl Fn(&mut f32, f32),
    ) {
        let pairs = dst.len() / 2;
        debug_assert!(pairs <= BLOCK_PAIRS && dst.len().is_multiple_of(2));
        let PolarBlock {
            u,
            v,
            s,
            listed,
            state,
            retry_u,
            retry_v,
            retry_s,
        } = block;
        for k in 0..pairs {
            state[k] = self.at(first_pair + k as u64).state;
            (u[k], v[k], s[k]) = polar_attempt(state[k], 0);
        }
        // List the rejected pairs from a bit mask per 64 pairs, so the loop
        // runs once per rejected pair instead of once per pair.
        let mut pending = 0;
        for (c, chunk) in s[..pairs].chunks(64).enumerate() {
            let mut rejected = chunk
                .iter()
                .enumerate()
                .fold(0u64, |m, (l, &sk)| m | u64::from(!polar_accepts(sk)) << l);
            while rejected != 0 {
                let k = 64 * c + rejected.trailing_zeros() as usize;
                listed[pending] = k as u16;
                state[pending] = state[k];
                pending += 1;
                rejected &= rejected - 1;
            }
        }
        let mut round = 1;
        while pending > 0 {
            // Whole lane groups: the spare lanes past `pending` draw from
            // stale states, and their results are never read.
            let lanes = pending.next_multiple_of(LANES);
            let (states, _) = state[..lanes].as_chunks::<LANES>();
            let (us, _) = retry_u[..lanes].as_chunks_mut::<LANES>();
            let (vs, _) = retry_v[..lanes].as_chunks_mut::<LANES>();
            let (ss, _) = retry_s[..lanes].as_chunks_mut::<LANES>();
            for (((st, ru), rv), rs) in states.iter().zip(us).zip(vs).zip(ss) {
                for l in 0..LANES {
                    (ru[l], rv[l], rs[l]) = polar_attempt(st[l], round);
                }
            }
            let mut kept = 0;
            for j in 0..pending {
                let k = usize::from(listed[j]);
                (u[k], v[k], s[k]) = (retry_u[j], retry_v[j], retry_s[j]);
                listed[kept] = k as u16;
                state[kept] = state[j];
                kept += usize::from(!polar_accepts(retry_s[j]));
            }
            pending = kept;
            round += 1;
        }
        for sk in &mut s[..pairs] {
            *sk = polar_scale(*sk);
        }
        for ((out, &uk), (&vk, &scale)) in dst.chunks_exact_mut(2).zip(&*u).zip(v.iter().zip(&*s)) {
            apply(&mut out[0], uk * scale);
            apply(&mut out[1], vk * scale);
        }
    }
}

/// The deterministic per-site generator produced by [`NoiseStream::at`].
///
/// Internally a SplitMix64 sequence whose starting point is the mixed
/// `(key, site)` pair: draw `j` is `mix(state0 + (j + 1)·GOLDEN)`, a pure
/// function of the triple `(key, site, j)`.
#[derive(Debug, Clone)]
pub struct SiteRng {
    state: u64,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl SiteRng {
    /// The next 64 uniform bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        unit_f32(self.next_u64())
    }

    /// The 24-bit index of the uniform `ahead` draws past the current
    /// counter, without advancing it: after `ahead` draws, the next uniform
    /// `f32` draw is exactly `index · 2⁻²⁴`.
    ///
    /// A Box–Muller pair whose first uniform is draw `k` has its `u1` index
    /// at `k` and its `u2` index at `k + 1`; [`box_muller_radius`] and
    /// [`box_muller_angle`] map them to the values
    /// [`NoiseSource::standard_normal`] combines.
    #[inline]
    pub fn uniform_index(&self, ahead: u64) -> u32 {
        let state = self
            .state
            .wrapping_add(ahead.wrapping_add(1).wrapping_mul(GOLDEN));
        (mix(state) >> 40) as u32
    }
}

/// The Box–Muller radius `sqrt(−2·ln u1)` of [`SiteRng`]'s scalar normal
/// draws for the `u1` uniform with 24-bit index `u1_index`
/// (see [`SiteRng::uniform_index`]), with `u1` floored at the smallest
/// normal `f32`.
///
/// Non-increasing in the index, so the largest radius any draw can have is
/// `box_muller_radius(0)` ≈ 13.2.
#[inline]
pub fn box_muller_radius(u1_index: u32) -> f32 {
    let u1 = unit_f32(u64::from(u1_index) << 40).max(f32::MIN_POSITIVE);
    (-2.0 * math::ln(u1)).sqrt()
}

/// The Box–Muller `(sin, cos)` of the angle `2π·u2` for the `u2` uniform
/// with 24-bit index `u2_index`, through the owned [`math::sin_cos`].
/// [`SiteRng`]'s scalar normal pair is `(radius·cos, radius·sin)`, cosine
/// half first.
#[inline]
pub fn box_muller_angle(u2_index: u32) -> (f32, f32) {
    math::sin_cos(2.0 * PI * unit_f32(u64::from(u2_index) << 40))
}

impl NoiseSource for SiteRng {
    fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let r = box_muller_radius((self.next_u64() >> 40) as u32);
        let (sin, cos) = box_muller_angle((self.next_u64() >> 40) as u32);
        self.spare_normal = Some(r * sin);
        r * cos
    }

    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.next_f32()
    }

    fn chance(&mut self, p: f32) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f32() < p
    }
}

// The batch executor shares one root stream across its worker pool by
// value; keep the stream trivially shareable.
const fn assert_shareable<T: Send + Sync + Copy>() {}
const _: () = assert_shareable::<NoiseStream>();

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_site_same_draws() {
        let s = NoiseStream::new(1);
        let mut a = s.at(123);
        let mut b = s.at(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_sites_differ() {
        let s = NoiseStream::new(2);
        let matches = (0..64)
            .filter(|&i| s.at(i).next_u64() == s.at(i + 1).next_u64())
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn substreams_are_independent_of_parent_and_siblings() {
        let s = NoiseStream::new(3);
        let a = s.substream(0);
        let b = s.substream(1);
        assert_ne!(a, b);
        assert_ne!(a, s);
        let same = (0..64)
            .filter(|&i| a.at(i).next_u64() == b.at(i).next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn frame_substream_handoff_is_thread_invariant() {
        // A root stream handed to worker threads by value yields the same
        // per-frame substream draws as deriving them in the owning thread —
        // and out-of-order claiming changes nothing.
        let root = NoiseStream::new(11);
        let serial: Vec<u64> = (0..8u64)
            .map(|f| root.frame_substream(f).at(0).next_u64())
            .collect();
        let claim_order = [5u64, 2, 7, 0, 3, 6, 1, 4];
        let claimed = crate::par::fan_out(claim_order, |f| {
            (f, root.frame_substream(f).at(0).next_u64())
        });
        for (f, draw) in claimed {
            assert_eq!(serial[f as usize], draw, "frame {f}");
        }
    }

    /// The standard normals of elements `[first, first + len)`: unit
    /// noise added over zeros.
    fn normals(s: &NoiseStream, first: u64, len: usize) -> Vec<f32> {
        let mut xs = vec![0.0f32; len];
        s.add_scaled_normal(first, 1.0, &mut xs);
        xs
    }

    #[test]
    fn fill_is_partition_invariant() {
        let s = NoiseStream::new(4).substream(9);
        let n = 3 * BLOCK + 65;
        let whole = normals(&s, 0, n);
        // Any partition — even one that splits a sample pair, or starts a
        // part on an odd offset and runs it across block boundaries — must
        // reproduce the same elements bit-for-bit.
        for splits in [
            vec![0, 500, n],
            vec![0, 1, 3, 64, 777, n],
            vec![0, 333, 1029, n],
            vec![0, BLOCK - 1, 3 * BLOCK - 1, n],
            vec![0, 7, BLOCK + 9, BLOCK + 10, 2 * BLOCK + 11, n],
        ] {
            let parts: Vec<f32> = splits
                .windows(2)
                .flat_map(|w| normals(&s, w[0] as u64, w[1] - w[0]))
                .collect();
            assert_eq!(bits(&whole), bits(&parts), "splits {splits:?}");
        }
    }

    /// Elements per block of the batched fill.
    const BLOCK: usize = 2 * BLOCK_PAIRS;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The pair-at-a-time fill the blocked one replaced, kept as its
    /// oracle: each pair's polar loop runs to completion, `ln` included,
    /// before the next pair starts.
    fn pairwise_fill(
        stream: &NoiseStream,
        first: u64,
        dst: &mut [f32],
        apply: impl Fn(&mut f32, f32),
    ) {
        let normal_pair = |pair: u64| {
            let mut site = stream.at(pair);
            loop {
                let u = 2.0 * site.next_f32() - 1.0;
                let v = 2.0 * site.next_f32() - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let factor = (-2.0 * s.ln() / s).sqrt();
                    return (u * factor, v * factor);
                }
            }
        };
        let n = dst.len();
        let mut i = 0usize;
        if n == 0 {
            return;
        }
        if first & 1 == 1 {
            apply(&mut dst[0], normal_pair(first >> 1).1);
            i = 1;
        }
        while i + 1 < n {
            let (z0, z1) = normal_pair((first + i as u64) >> 1);
            apply(&mut dst[i], z0);
            apply(&mut dst[i + 1], z1);
            i += 2;
        }
        if i < n {
            apply(&mut dst[i], normal_pair((first + i as u64) >> 1).0);
        }
    }

    /// The batched fill against the oracle, bit for bit, on a plane of
    /// `len` elements starting at element `first`.
    fn assert_matches_pairwise(stream: &NoiseStream, first: u64, len: usize, sigma: f32) {
        let init: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut got = init.clone();
        stream.add_scaled_normal(first, sigma, &mut got);
        let mut want = init;
        pairwise_fill(stream, first, &mut want, |slot, z| *slot += sigma * z);
        assert_eq!(
            got.iter()
                .zip(&want)
                .position(|(x, y)| x.to_bits() != y.to_bits()),
            None,
            "add_scaled_normal: first {first}, len {len}, sigma {sigma:e}"
        );
    }

    /// Plane lengths at and around the block edges, and several blocks
    /// plus an odd tail.
    const EDGE_LENGTHS: [usize; 10] = [
        0,
        1,
        2,
        BLOCK_PAIRS - 1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        BLOCK + 2,
        3 * BLOCK + 37,
        5 * BLOCK - 1,
    ];

    /// Zero, signed zero, negative and subnormal amplitudes, and an
    /// ordinary one.
    const SIGMAS: [f32; 6] = [0.0, -0.0, -1.75, f32::MIN_POSITIVE / 8.0, -1e-42, 0.31];

    #[test]
    fn blocked_fill_matches_the_pairwise_loop_at_block_edges() {
        let stream = NoiseStream::new(12).substream(3);
        for first in [0u64, 1, 2, 511, 512, 1 << 40, (1 << 40) + 1] {
            for len in EDGE_LENGTHS {
                for sigma in SIGMAS {
                    assert_matches_pairwise(&stream, first, len, sigma);
                }
            }
        }
    }

    #[test]
    fn blocked_fill_matches_the_pairwise_loop_on_a_depth3_plane() {
        // The per-frame layer-noise sample count of a GoogLeNet Depth3
        // prefix, started on an odd element.
        assert_matches_pairwise(&NoiseStream::new(13), 3, 3_285_504, 0.0625);
    }

    proptest! {
        #[test]
        fn blocked_fill_matches_the_pairwise_loop(
            key in 0u64..u64::MAX,
            first in 0u64..4 * BLOCK as u64,
            far in 0u64..2,
            len in 0usize..4 * BLOCK,
            edge in 0usize..2 * EDGE_LENGTHS.len(),
            sigma in -4.0f32..4.0,
            special in 0usize..2 * SIGMAS.len(),
        ) {
            // Half the cases take a block-edge length or a special sigma,
            // and half start far into the plane.
            let len = EDGE_LENGTHS.get(edge).copied().unwrap_or(len);
            let sigma = SIGMAS.get(special).copied().unwrap_or(sigma);
            let first = first + far * (key >> 2);
            assert_matches_pairwise(&NoiseStream { key }, first, len, sigma);
        }
    }

    /// `s` of each polar attempt of `pair`, first attempt first.
    fn polar_attempts(stream: &NoiseStream, pair: u64) -> impl Iterator<Item = f32> {
        let state = stream.at(pair).state;
        (0..).map(move |attempt| polar_attempt(state, attempt).2)
    }

    /// Fills around `pair` so that it is a whole pair inside a block, in
    /// the middle, first and last position of its block, and compares
    /// with the oracle.
    fn assert_pair_matches_pairwise(stream: &NoiseStream, pair: u64) {
        let element = 2 * pair;
        for (before, len) in [
            (37, 101),
            (0, BLOCK),
            (BLOCK - 2, BLOCK),
            (BLOCK - 1, BLOCK + 3),
        ] {
            let first = element - before as u64;
            for sigma in [1.0, -0.5] {
                assert_matches_pairwise(stream, first, len, sigma);
            }
        }
    }

    #[test]
    fn pairs_rejected_one_to_six_times_match_the_oracle() {
        // A pair rejected `times` times leaves the retry list after round
        // `times`, beside ordinary pairs that leave it earlier.
        let stream = NoiseStream::new(14).substream(2);
        let rejections = |pair: u64| {
            polar_attempts(&stream, pair)
                .take_while(|&s| !polar_accepts(s))
                .count()
        };
        for times in [1, 2, 3, 4, 6] {
            let pair = (BLOCK as u64..).find(|&p| rejections(p) == times).unwrap();
            assert_pair_matches_pairwise(&stream, pair);
        }
    }

    /// Inverse of [`mix`].
    fn unmix(mut z: u64) -> u64 {
        let unshift = |y: u64, k: u32| (1..=64 / k).fold(y, |x, i| x ^ (y >> (i * k)));
        let inverse = |c: u64| {
            (0..6).fold(c, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
            })
        };
        z = unshift(z, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30)
    }

    #[test]
    fn a_polar_attempt_at_the_origin_is_rejected() {
        // A pair's first two uniforms are both exactly 1/2, so `u = v = 0`
        // and `s == 0`, with probability 2⁻⁴⁸: too rare to find by
        // searching pair indices. Construct it instead by running
        // SplitMix64 backwards. Draw 1 is `mix(state0 + GOLDEN)`; choosing
        // it with top 24 bits `2²³` fixes `state0`, and a search over its
        // low 40 bits (done once, offline) found the value whose draw 2 has
        // the same top bits. The stream key then follows from `state0` and
        // the pair index.
        const DRAW1: u64 = (1 << 63) | 0x2a8_34c8;
        let pair = 1000u64;
        let state0 = unmix(DRAW1).wrapping_sub(GOLDEN);
        let stream = NoiseStream {
            key: unmix(state0).wrapping_sub(pair.wrapping_mul(GOLDEN)),
        };
        let mut site = stream.at(pair);
        assert_eq!((site.next_f32(), site.next_f32()), (0.5, 0.5));
        assert_eq!(polar_attempts(&stream, pair).next(), Some(0.0));
        assert_pair_matches_pairwise(&stream, pair);
    }

    #[test]
    fn add_scaled_normal_scales_the_unit_normals() {
        let s = NoiseStream::new(5).substream(1);
        let z = normals(&s, 0, 257);
        let mut added = vec![1.0f32; 257];
        s.add_scaled_normal(0, 2.0, &mut added);
        for (a, z) in added.iter().zip(&z) {
            assert_eq!(*a, 1.0 + 2.0 * z);
        }
    }

    #[test]
    fn uniform_index_peeks_without_advancing() {
        let site = NoiseStream::new(8).at(3);
        let mut walk = site.clone();
        for ahead in 0..16 {
            let index = site.uniform_index(ahead);
            assert_eq!(walk.next_f32(), index as f32 / (1u32 << 24) as f32);
        }
        // A scalar normal pair is the radius of draw 0 times the angle of
        // draw 1, cosine half first.
        let mut normal = site.clone();
        let r = box_muller_radius(site.uniform_index(0));
        let (sin, cos) = box_muller_angle(site.uniform_index(1));
        assert_eq!(normal.standard_normal().to_bits(), (r * cos).to_bits());
        assert_eq!(normal.standard_normal().to_bits(), (r * sin).to_bits());
        assert_eq!(normal.next_u64(), {
            let mut skipped = site.clone();
            skipped.next_u64();
            skipped.next_u64();
            skipped.next_u64()
        });
    }

    #[test]
    fn lane_indices_equal_each_site_generator() {
        let stream = NoiseStream::new(9).substream(4);
        let sites = [0, 1, 7, 7, 1 << 40, u64::MAX, 3, 12];
        let mut draws = [[0u32; LANES]; 19];
        stream.uniform_indices(&sites, &mut draws);
        for (l, &site) in sites.iter().enumerate() {
            let mut walk = stream.at(site);
            for (k, row) in draws.iter().enumerate() {
                assert_eq!(row[l], (walk.next_u64() >> 40) as u32, "lane {l}, draw {k}");
            }
        }
    }

    #[test]
    fn scalar_normal_uses_both_box_muller_halves() {
        let s = NoiseStream::new(7);
        let mut site = s.at(0);
        let a = site.standard_normal();
        let b = site.standard_normal();
        // Second draw comes from the cached sine half — not equal to the
        // first, and no extra uniforms were consumed for it.
        assert_ne!(a, b);
        let mut fresh = s.at(0);
        let _ = fresh.next_f32();
        let _ = fresh.next_f32();
        assert_eq!(site.state, fresh.state, "spare consumed no extra draws");
    }

    /// The owned angle against libm's `f32::sin_cos` of the same `f32`
    /// argument, on all 2²⁴ `u2` indices, both halves, split over two
    /// threads. It compares with the platform libm, so it holds where that
    /// is glibc ≥ 2.28.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn box_muller_angle_matches_libm_on_every_u2_index() {
        const HALF: u32 = 1 << 23;
        let mismatches = crate::par::fan_out([0, HALF], |lo| {
            (lo..lo + HALF)
                .filter(|&i| {
                    let (sin, cos) = box_muller_angle(i);
                    let (want_sin, want_cos) = (2.0 * PI * unit_f32(u64::from(i) << 40)).sin_cos();
                    (sin.to_bits(), cos.to_bits()) != (want_sin.to_bits(), want_cos.to_bits())
                })
                .count()
        });
        assert_eq!(mismatches, [0, 0]);
    }
}
