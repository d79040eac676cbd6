//! The fully-dynamic comparator used by the max-pooling module (§IV-A).
//!
//! Dynamic comparators draw no static current, but suffer *metastability*
//! when their inputs are nearly equal: decision time grows as
//! `τ·ln(swing/|Δ|)` and energy peaks. RedEye suppresses this by forcing an
//! arbitrary decision when the comparator misses its time slot — harmless
//! for max pooling, because a forced decision only ever picks between two
//! nearly-identical values.
//!
//! [`Comparator::compare`] is the exact per-decision model.
//! [`Comparator::max_lanes`] runs [`LANES`] pooling windows through the
//! same decisions in lockstep. It settles every decision whose outcome
//! provably does not depend on its noise value, or whose noise provably
//! decides it, from the draw's integer indices alone, and evaluates the
//! Box–Muller transform only for the rest (see DESIGN.md §15).

use crate::calib::{COMPARATOR_DECISION_TIME, SWING};
use crate::{Seconds, Volts};
use redeye_tensor::{box_muller_angle, box_muller_radius, NoiseSource, NoiseStream, LANES};
use std::sync::OnceLock;

/// Outcome of one comparator decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorDecision {
    /// `true` if the comparator declared `a > b`.
    pub a_greater: bool,
    /// Whether the decision was forced by the metastability timeout.
    pub forced: bool,
    /// Time the decision took (capped at the time slot).
    pub time: Seconds,
}

/// Behavioral model of the dynamic comparator.
#[derive(Debug, Clone)]
pub struct Comparator {
    /// Input-referred RMS noise.
    noise_rms: Volts,
    /// Regeneration time constant.
    tau: Seconds,
    /// Allocated decision time slot; exceeding it forces a decision.
    time_slot: Seconds,
    decisions: u64,
    forced: u64,
    /// Bounds derived from the three parameters above; rebuilt whenever one
    /// of them changes.
    screen: Screen,
    /// Uniform indices of the current lane block, `draws[k][lane]`; reused
    /// across blocks.
    draws: Vec<[u32; LANES]>,
}

impl Comparator {
    /// Creates a comparator with the calibrated 0.18 µm defaults:
    /// 0.3 mV input-referred noise, τ = 100 ps, 2 ns time slot.
    pub fn new() -> Self {
        let noise_rms = Volts::new(3e-4);
        let tau = Seconds::new(1e-10);
        let time_slot = COMPARATOR_DECISION_TIME;
        Comparator {
            noise_rms,
            tau,
            time_slot,
            decisions: 0,
            forced: 0,
            screen: Screen::new(noise_rms, tau, time_slot),
            draws: Vec::new(),
        }
    }

    /// Overrides the input-referred noise (for corner studies).
    pub fn with_noise(mut self, noise_rms: Volts) -> Self {
        self.noise_rms = noise_rms;
        self.screen = Screen::new(self.noise_rms, self.tau, self.time_slot);
        self
    }

    /// Overrides the decision time slot.
    pub fn with_time_slot(mut self, slot: Seconds) -> Self {
        self.time_slot = slot;
        self.screen = Screen::new(self.noise_rms, self.tau, self.time_slot);
        self
    }

    /// Compares two voltages, modeling input noise and metastability.
    ///
    /// Generic over the noise source so decisions can draw either from the
    /// sequential [`redeye_tensor::Rng`] or from a deterministic per-site
    /// [`redeye_tensor::SiteRng`] in parallel executors.
    pub fn compare<R: NoiseSource>(&mut self, a: f64, b: f64, rng: &mut R) -> ComparatorDecision {
        self.decisions += 1;
        let delta = (a - b) + f64::from(rng.standard_normal()) * self.noise_rms.value();
        let time = decision_time(self.tau, delta);
        if time.value() > self.time_slot.value() {
            // Timeout: force an arbitrary decision (paper §IV-A). The forced
            // decision costs the maximum (full-slot) time but no extra
            // energy beyond the dynamic decision charge.
            self.forced += 1;
            ComparatorDecision {
                a_greater: rng.chance(0.5),
                forced: true,
                time: self.time_slot,
            }
        } else {
            ComparatorDecision {
                a_greater: delta > 0.0,
                forced: false,
                time,
            }
        }
    }

    /// Maxima of [`LANES`] pooling windows through the comparator chain.
    /// Lane `l` returns the tap that
    ///
    /// ```text
    /// best = taps[0][l]
    /// for v in taps[1..][l]: if compare(v·volts_per_unit, best·volts_per_unit, site).a_greater { best = v }
    /// ```
    ///
    /// keeps on a fresh `stream.at(sites[l])`. `taps` is decision-major:
    /// row `t` holds tap `t` of every window. The first `live` lanes count
    /// their decisions and forced decisions; the others, a short group's
    /// padding, are decided and not counted. An empty window yields `0.0`
    /// with no decisions.
    ///
    /// Every site's draws are hashed up front, as if no decision were
    /// forced: decision `j` then draws half `j mod 2` of the Box–Muller
    /// pair at uniforms `2⌊j/2⌋` and `2⌊j/2⌋ + 1`. Each decision step
    /// screens all lanes branch-free. A step with an unsettled lane bounds
    /// every lane's noise term from its index buckets, again branch-free,
    /// and runs `compare`'s arithmetic only on lanes neither settles. A
    /// lane whose decision turns out forced, which shifts every later
    /// draw, or whose difference is infinite is recomputed with the
    /// `compare` chain itself.
    pub fn max_lanes(
        &mut self,
        taps: &[[f32; LANES]],
        volts_per_unit: f64,
        stream: &NoiseStream,
        sites: &[u64; LANES],
        live: usize,
    ) -> [f32; LANES] {
        let Some((&first, rest)) = taps.split_first() else {
            return [0.0; LANES];
        };
        let live = live.min(LANES);
        let pairs = rest.len().div_ceil(2);
        if self.draws.len() < 2 * pairs {
            self.draws.resize(2 * pairs, [0; LANES]);
        }
        stream.uniform_indices(sites, &mut self.draws[..2 * pairs]);
        let mut best = first;
        // The running best's voltage, carried so that a step's dependency
        // chain is one subtraction, a compare and a select per lane.
        let mut best_volts = first.map(|v| f64::from(v) * volts_per_unit);
        let mut redo = [false; LANES];
        let bounds = DrawBounds::get();
        for (j, row) in rest.iter().enumerate() {
            let (u1, u2) = (&self.draws[j & !1], &self.draws[j | 1]);
            let sine = j & 1 == 1;
            let volts = row.map(|v| f64::from(v) * volts_per_unit);
            let mut delta = [0.0f64; LANES];
            let mut settled = [false; LANES];
            // Every screen settles a decision as `delta > 0`, so the lane
            // loop selects on that; the rare step with an unsettled lane
            // selects again on the exact outcomes.
            let (mut next, mut next_volts) = (best, best_volts);
            for l in 0..LANES {
                delta[l] = volts[l] - best_volts[l];
                let tie = row[l].to_bits() == best[l].to_bits();
                settled[l] = self.screen.settles(delta[l], tie, u1[l], u2[l], sine);
                let greater = delta[l] > 0.0;
                next[l] = if greater { row[l] } else { best[l] };
                next_volts[l] = if greater { volts[l] } else { best_volts[l] };
            }
            if settled.contains(&false) {
                // The index-bucket bounds settle most of the rest, either
                // way, for all lanes at once; the exact arithmetic runs
                // only on what they leave open.
                let radius = &*bounds.radius;
                let trig = &*bounds.trig[usize::from(sine)];
                let mut greater = [false; LANES];
                let mut open = [false; LANES];
                for l in 0..LANES {
                    let (proven, g) = self.screen.bounded(radius, trig, delta[l], u1[l], u2[l]);
                    greater[l] = if settled[l] { delta[l] > 0.0 } else { g };
                    open[l] = !(settled[l] | proven);
                }
                if open.contains(&true) {
                    for l in (0..LANES).filter(|&l| open[l]) {
                        match self.decide(delta[l], u1[l], u2[l], sine) {
                            Some(g) => greater[l] = g,
                            None => redo[l] = true,
                        }
                    }
                }
                for l in 0..LANES {
                    next[l] = if greater[l] { row[l] } else { best[l] };
                    next_volts[l] = if greater[l] { volts[l] } else { best_volts[l] };
                }
            }
            (best, best_volts) = (next, next_volts);
        }
        let redone = redo[..live].iter().filter(|&&r| r).count();
        self.decisions += ((live - redone) * rest.len()) as u64;
        for l in (0..live).filter(|&l| redo[l]) {
            let mut site = stream.at(sites[l]);
            best[l] = rest.iter().fold(first[l], |kept, row| {
                let a = f64::from(row[l]) * volts_per_unit;
                let b = f64::from(kept) * volts_per_unit;
                if self.compare(a, b, &mut site).a_greater {
                    row[l]
                } else {
                    kept
                }
            });
        }
        best
    }

    /// [`Comparator::compare`]'s arithmetic for an input difference `delta`
    /// against the normal of the Box–Muller pair `(u1, u2)`, its sine half
    /// when `sine`: the radius first, the angle and the decision time only
    /// when needed. `None` when the decision is forced or `delta` is
    /// infinite; the caller then replays the lane through `compare`.
    fn decide(&self, delta: f64, u1: u32, u2: u32, sine: bool) -> Option<bool> {
        let abs = delta.abs();
        if abs == f64::INFINITY {
            return None;
        }
        let r = box_muller_radius(u1);
        if self.screen.clears(abs, r) {
            return Some(delta > 0.0);
        }
        let (sin, cos) = box_muller_angle(u2);
        let delta = delta + f64::from(r * if sine { sin } else { cos }) * self.noise_rms.value();
        let in_time = delta.abs() > self.screen.settle;
        if !in_time && decision_time(self.tau, delta).value() > self.time_slot.value() {
            None
        } else {
            Some(delta > 0.0)
        }
    }

    /// Total decisions made.
    pub fn decisions_made(&self) -> u64 {
        self.decisions
    }

    /// Number of decisions forced by the metastability timeout.
    pub fn forced_decisions(&self) -> u64 {
        self.forced
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Comparator::new()
    }
}

/// Regeneration time for a noisy input difference `delta`: it grows
/// logarithmically as `|delta|` shrinks, and is infinite at an exact zero.
fn decision_time(tau: Seconds, delta: f64) -> Seconds {
    if delta == 0.0 {
        Seconds::new(f64::INFINITY)
    } else {
        tau * (SWING.value() / delta.abs()).ln().max(0.0)
    }
}

/// Largest `u1` index a tie may draw for the tie test: `u1 ≤ 1 − 2⁻¹⁰`, so
/// the Box–Muller radius is at least ≈0.044.
const TIE_U1_MAX: u32 = (1 << 24) - (1 << 14);
/// Index distance a `u2` keeps from every zero of its half's trig function
/// (2π·2⁻¹⁰ rad) for the tie and sign tests.
const TIE_TRIG_GAP: u32 = 1 << 14;
/// Entries of the clear-decision table.
const BUCKETS: usize = 128;
/// `2⁵²`: adding it to a non-negative integer below `2⁵²` leaves the integer
/// in the low mantissa bits.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Bounds that settle a decision from its draw's integer indices, derived
/// once from a comparator's own noise, τ and time slot.
///
/// Every bound is computed with the same floating-point expressions the
/// decision itself evaluates, and each test only compares rounded values in
/// the direction rounding cannot reverse, so a settled decision is the one
/// `compare` would make (DESIGN.md §15).
#[derive(Debug, Clone)]
struct Screen {
    /// Every noisy difference with `|δ| ≥ settle` decides in time; `+∞`
    /// when the parameters admit no such bound.
    settle: f64,
    /// `|σ|`, the noise scale.
    sigma: f64,
    /// Whether `σ` carries a negative sign, which flips every noise term.
    sigma_negative: bool,
    /// `radius(0)·|σ|`: no draw's noise term exceeds it.
    noise_max: f64,
    /// Whether a tie whose indices pass [`trig_indices_clear`] is proven
    /// unforced.
    ties: bool,
    /// Reciprocal of the bucket width, an exact power of two.
    inv_width: f64,
    /// `min_u1[b]`: the smallest `u1` index whose radius clears every
    /// `|Δ| ≥ b·width`; `2²⁴`, which no index reaches, if none does or
    /// the screen has no table.
    min_u1: [u32; BUCKETS],
}

impl Screen {
    fn new(noise_rms: Volts, tau: Seconds, slot: Seconds) -> Screen {
        let sigma = noise_rms.value().abs();
        // A factor of two above the forced boundary `swing·e^(−slot/τ)`,
        // so the decision time at `settle` is τ·ln2 inside the slot.
        let candidate = 2.0 * SWING.value() * (-slot.value() / tau.value()).exp();
        let settle = if sigma.is_finite()
            && candidate.is_finite()
            && candidate > 0.0
            && decision_time(tau, candidate).value() <= slot.value()
        {
            candidate
        } else {
            f64::INFINITY
        };
        let noise_max = f64::from(box_muller_radius(0)) * sigma;
        let tie_noise = f64::from(box_muller_radius(TIE_U1_MAX) * tie_trig_floor()) * sigma;
        let mut screen = Screen {
            settle,
            sigma,
            sigma_negative: noise_rms.value().is_sign_negative(),
            noise_max,
            ties: tie_noise >= settle,
            inv_width: 0.0,
            min_u1: [1 << 24; BUCKETS],
        };
        // The largest power-of-two width whose buckets stay within
        // `noise_max`; larger differences share the last bucket. In this
        // range, scaling by its reciprocal is exact, so a difference in
        // bucket `b` is at least `b·width` exactly.
        let exp = (noise_max / BUCKETS as f64).log2().floor() as i32;
        let width = 2f64.powi(exp);
        if settle.is_finite() && (f64::MIN_POSITIVE..=1.0).contains(&width) {
            screen.inv_width = 2f64.powi(-exp);
            let mut min_u1 = [1u32 << 24; BUCKETS];
            let mut hi = 1u32 << 24;
            for (b, entry) in min_u1.iter_mut().enumerate() {
                let lower = b as f64 * width;
                // Radii are non-increasing in the index, so the clear
                // condition is monotone and `K[b]` never exceeds `K[b−1]`.
                let mut lo = 0u32;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if screen.clears(lower, box_muller_radius(mid)) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                *entry = hi;
            }
            screen.min_u1 = min_u1;
        }
        screen
    }

    /// Whether noise of Box–Muller radius `r` can neither flip the sign of
    /// a difference of magnitude `abs_delta` nor bring it under `settle`.
    #[inline]
    fn clears(&self, abs_delta: f64, r: f32) -> bool {
        abs_delta - f64::from(r) * self.sigma > self.settle
    }

    /// Whether [`DrawBounds`] prove the outcome of a decision on input
    /// difference `delta` against the Box–Muller pair `(u1, u2)`, and that
    /// outcome; `radius` is the `u1` table and `trig` the `u2` table of
    /// the decision's half. Proven when the noisy difference at both ends
    /// of the noise term's range has the same sign and a magnitude above
    /// `settle`: the decision is then not forced and takes that sign,
    /// which may be the opposite of `delta`'s. Branch-free, so the lanes
    /// of a block vectorize.
    ///
    /// The radius and the trig value each lie in their bucket's
    /// `[lo, hi]`, and the radius is non-negative, so the exact product
    /// lies between the smallest and largest corner product; rounding the
    /// product, scaling by `σ` and adding `delta` are each monotone, so
    /// the noisy difference lies between the two ends computed the same
    /// way.
    #[inline(always)]
    fn bounded(
        &self,
        radius: &[[f32; 2]; BOUND_BUCKETS],
        trig: &[[f32; 2]; BOUND_BUCKETS],
        delta: f64,
        u1: u32,
        u2: u32,
    ) -> (bool, bool) {
        let bucket = |u: u32| (u >> BOUND_SHIFT) as usize & (BOUND_BUCKETS - 1);
        let [r_lo, r_hi] = radius[bucket(u1)];
        let [t_lo, t_hi] = trig[bucket(u2)];
        let z_lo = (r_lo * t_lo).min(r_hi * t_lo);
        let z_hi = (r_lo * t_hi).max(r_hi * t_hi);
        let sigma = if self.sigma_negative {
            -self.sigma
        } else {
            self.sigma
        };
        let (a, b) = (
            delta + f64::from(z_lo) * sigma,
            delta + f64::from(z_hi) * sigma,
        );
        let settle = self.settle;
        let above = (a > settle) & (b > settle);
        let below = (a < -settle) & (b < -settle);
        // Infinite differences are left to the exact path.
        ((above | below) & (delta.abs() <= f64::MAX), above)
    }

    /// Whether a decision on input difference `delta`, drawing half `sine`
    /// of the Box–Muller pair with indices `(u1, u2)`, is provably not
    /// forced and decides `delta > 0`; `tie` says the two taps have
    /// identical bits. Branch-free, so the lanes of a block vectorize.
    #[inline(always)]
    fn settles(&self, delta: f64, tie: bool, u1: u32, u2: u32, sine: bool) -> bool {
        let abs = delta.abs();
        // Infinite and NaN differences are left to the exact path.
        let finite = abs <= f64::MAX;
        let trig_clear = trig_indices_clear(u2, sine);
        // (a) Larger than any noise term.
        let beyond = abs - self.noise_max > self.settle;
        // (b) An exact tie keeps the same bits whichever tap wins; only
        // "not forced" needs proof.
        let tied = tie & (delta == 0.0) & self.ties & (u1 <= TIE_U1_MAX) & trig_clear;
        // (c) This draw's radius is small enough for the difference.
        // `⌊abs/width⌋`, capped at the last bucket, read from the low bits
        // of `2⁵² + b`, which is exact for integers `b < 2⁵²`.
        let bucket = (abs * self.inv_width).min((BUCKETS - 1) as f64).floor();
        let bucket = (bucket + TWO_52).to_bits() as usize & (BUCKETS - 1);
        let small = u1 >= self.min_u1[bucket];
        // (d) The noise term has the difference's sign, so it only moves
        // the difference further from zero and from `settle`.
        let signed = (abs > self.settle)
            & trig_clear
            & (trig_negative(u2, sine) ^ self.sigma_negative == delta.is_sign_negative());
        finite & (beyond | tied | small | signed)
    }
}

/// `log2` of the `u1` and `u2` indices per [`DrawBounds`] bucket.
const BOUND_SHIFT: u32 = 14;
/// Buckets of [`DrawBounds`], over the 2²⁴ indices.
const BOUND_BUCKETS: usize = 1 << (24 - BOUND_SHIFT);
/// How far the trig bounds sit outside their bucket's edge values: four
/// `f32` ulps of 1, for the rounding of the angle's argument and result
/// between the edges.
const TRIG_MARGIN: f32 = 1.0 / (1 << 22) as f32;

/// Bounds on a draw's Box–Muller factors per bucket of
/// 2^[`BOUND_SHIFT`] consecutive indices, the same for every comparator.
/// Built once per process from the bucket edges; the tests check them
/// against every index.
struct DrawBounds {
    /// `radius[b]`: `[lo, hi]` of the radius of every `u1` index of bucket
    /// `b`. Radii do not rise with the index, so `hi` is the radius of the
    /// bucket's first index and `lo` that of the next bucket's (0 past the
    /// last).
    radius: Box<[[f32; 2]; BOUND_BUCKETS]>,
    /// `trig[h][b]`: `[lo, hi]` of the cosine (`h = 0`) or sine (`h = 1`)
    /// of every `u2` index of bucket `b`.
    trig: [Box<[[f32; 2]; BOUND_BUCKETS]>; 2],
}

impl DrawBounds {
    /// The process's one table.
    fn get() -> &'static DrawBounds {
        static BOUNDS: OnceLock<DrawBounds> = OnceLock::new();
        BOUNDS.get_or_init(DrawBounds::new)
    }

    fn new() -> DrawBounds {
        let width = 1u32 << BOUND_SHIFT;
        let table = |bound: &dyn Fn(u32) -> [f32; 2]| -> Box<[[f32; 2]; BOUND_BUCKETS]> {
            let entries: Vec<[f32; 2]> = (0..BOUND_BUCKETS as u32)
                .map(|b| bound(b * width))
                .collect();
            entries
                .into_boxed_slice()
                .try_into()
                .expect("one entry per bucket")
        };
        let radius = table(&|first| {
            let next = first + width;
            let lo = if next < 1 << 24 {
                box_muller_radius(next)
            } else {
                0.0
            };
            [lo, box_muller_radius(first)]
        });
        // Between its edges a bucket's angle is monotone: every quarter
        // turn starts a bucket. The margin covers rounding.
        let trig = [false, true].map(|sine| {
            let at = |u2| {
                let (sin, cos) = box_muller_angle(u2);
                if sine {
                    sin
                } else {
                    cos
                }
            };
            table(&|first| {
                let (a, b) = (at(first), at(first + width - 1));
                [a.min(b) - TRIG_MARGIN, a.max(b) + TRIG_MARGIN]
            })
        });
        DrawBounds { radius, trig }
    }
}

/// `u2_index` advanced by a quarter turn (`2²²`) for the cosine half, so
/// that both halves' trig values are positive on phases `(0, 2²³)` and
/// negative on `(2²³, 2²⁴)` (modulo `2²⁴`), with zeros at multiples of
/// `2²³`.
#[inline(always)]
fn trig_phase(u2_index: u32, sine: bool) -> u32 {
    u2_index + if sine { 0 } else { 1 << 22 }
}

/// Whether `u2_index` keeps [`TIE_TRIG_GAP`] from every zero of the sine
/// (`sine`) or cosine of `2π·u2`.
#[inline(always)]
fn trig_indices_clear(u2_index: u32, sine: bool) -> bool {
    let phase = trig_phase(u2_index, sine) & ((1 << 23) - 1);
    (TIE_TRIG_GAP..=(1 << 23) - TIE_TRIG_GAP).contains(&phase)
}

/// The sign of the trig value of `u2_index`'s half, where
/// [`trig_indices_clear`] holds: negative on the second half-turn.
#[inline(always)]
fn trig_negative(u2_index: u32, sine: bool) -> bool {
    trig_phase(u2_index, sine) & (1 << 23) != 0
}

/// The smallest `|sin|` or `|cos|` over the boundary indices of
/// [`trig_indices_clear`], evaluated through the real angle expression.
fn tie_trig_floor() -> f32 {
    let mut floor = f32::INFINITY;
    for sine in [false, true] {
        let shift = if sine { 0 } else { 1 << 22 };
        for zero in [0, 1 << 23, 1 << 24] {
            for phase in [
                zero - i64::from(TIE_TRIG_GAP),
                zero + i64::from(TIE_TRIG_GAP),
            ] {
                let Ok(u2) = u32::try_from(phase - shift) else {
                    continue;
                };
                if u2 < 1 << 24 {
                    let (sin, cos) = box_muller_angle(u2);
                    floor = floor.min(if sine { sin } else { cos }.abs());
                }
            }
        }
    }
    floor
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_tensor::Rng;

    #[test]
    fn clear_differences_decide_correctly() {
        let mut c = Comparator::new();
        let mut rng = Rng::seed_from(1);
        for _ in 0..100 {
            let d = c.compare(0.5, -0.5, &mut rng);
            assert!(d.a_greater);
            assert!(!d.forced);
        }
        assert_eq!(c.forced_decisions(), 0);
    }

    #[test]
    fn sub_threshold_ties_are_forced() {
        // Without noise, a difference below swing·exp(−slot/τ) regenerates
        // too slowly and must be forced.
        let mut c = Comparator::new().with_noise(Volts::new(0.0));
        let mut rng = Rng::seed_from(2);
        let d = c.compare(1e-10, 0.0, &mut rng);
        assert!(d.forced);
        assert_eq!(c.forced_decisions(), 1);
        // With realistic input noise, the same tie is almost always resolved
        // by the noise itself before the slot expires.
        let mut noisy = Comparator::new();
        let forced = (0..2000)
            .filter(|_| noisy.compare(1e-10, 0.0, &mut rng).forced)
            .count();
        assert!(forced < 20, "noise resolves ties: forced {forced}/2000");
    }

    #[test]
    fn forced_decisions_are_unbiased() {
        let mut c = Comparator::new().with_time_slot(Seconds::new(0.0));
        let mut rng = Rng::seed_from(3);
        // Zero time slot: every decision is forced.
        let ups = (0..2000)
            .filter(|_| c.compare(0.4, 0.4, &mut rng).a_greater)
            .count();
        assert_eq!(c.forced_decisions(), 2000);
        assert!((800..1200).contains(&ups), "coin flip, got {ups}/2000");
    }

    #[test]
    fn decision_time_grows_near_tie() {
        let mut c = Comparator::new().with_noise(Volts::new(0.0));
        let mut rng = Rng::seed_from(4);
        let far = c.compare(0.5, 0.0, &mut rng).time;
        let near = c.compare(0.001, 0.0, &mut rng).time;
        assert!(near.value() > far.value());
    }

    /// Comparators whose screens the exhaustive checks cover.
    fn screened_variants() -> [Comparator; 5] {
        [
            Comparator::new(),
            Comparator::new().with_noise(Volts::new(-3e-4)),
            Comparator::new().with_noise(Volts::new(2e-3)),
            Comparator::new().with_noise(Volts::new(1e-6)),
            Comparator::new().with_time_slot(Seconds::new(8e-10)),
        ]
    }

    #[test]
    fn radius_is_non_increasing_and_bounded_over_every_u1_index() {
        let max = box_muller_radius(0);
        assert!(max <= 13.22, "largest radius {max}");
        let mut prev = max;
        for i in 1..1u32 << 24 {
            let r = box_muller_radius(i);
            assert!(
                r <= prev && r >= 0.0,
                "radius rises at u1 index {i}: {prev} -> {r}"
            );
            prev = r;
        }
    }

    #[test]
    fn table_entries_are_the_first_clear_u1_index() {
        for c in screened_variants() {
            let s = &c.screen;
            assert_eq!(s.min_u1.len(), BUCKETS);
            let width = s.inv_width.recip();
            for (b, &k) in s.min_u1.iter().enumerate() {
                let lower = b as f64 * width;
                if k < 1 << 24 {
                    assert!(
                        s.clears(lower, box_muller_radius(k)),
                        "bucket {b}: K={k} not clear"
                    );
                }
                if k > 0 {
                    assert!(
                        !s.clears(lower, box_muller_radius(k - 1)),
                        "bucket {b}: K-1 clear"
                    );
                }
            }
            // (a) is (c) at the largest radius.
            assert_eq!(s.noise_max, f64::from(box_muller_radius(0)) * s.sigma);
        }
    }

    #[test]
    fn settle_bound_sits_above_the_forced_boundary() {
        for c in screened_variants() {
            let settle = c.screen.settle;
            assert!(settle.is_finite());
            assert!(decision_time(c.tau, settle).value() <= c.time_slot.value());
            // Within a factor of two of where decisions start to time out.
            assert!(decision_time(c.tau, settle * 0.49).value() > c.time_slot.value());
        }
        // No noise-independent bound exists with a negative slot, and the
        // screen then settles nothing.
        let never = Comparator::new().with_time_slot(Seconds::new(-1e-9));
        assert_eq!(never.screen.settle, f64::INFINITY);
        assert!(never.screen.min_u1.iter().all(|&k| k == 1 << 24) && !never.screen.ties);
    }

    #[test]
    fn tie_trig_margin_holds_over_every_u2_index() {
        let floor = tie_trig_floor();
        assert!(floor > 6e-3, "trig floor {floor}");
        for sine in [false, true] {
            for u2 in 0..1u32 << 24 {
                if trig_indices_clear(u2, sine) {
                    let (sin, cos) = box_muller_angle(u2);
                    let t = if sine { sin } else { cos }.abs();
                    assert!(
                        t >= floor,
                        "u2 index {u2} (sine {sine}): |trig| {t} < {floor}"
                    );
                }
            }
        }
        // The gap's boundary indices are in; one step toward a zero is out.
        let gap = TIE_TRIG_GAP;
        for (u2, sine, clear) in [
            (gap, true, true),
            (gap - 1, true, false),
            ((1 << 23) - gap, true, true),
            ((1 << 23) - gap + 1, true, false),
            ((1 << 24) - gap, true, true),
            ((1 << 24) - gap + 1, true, false),
            ((1 << 22) - gap, false, true),
            ((1 << 22) - gap + 1, false, false),
            ((3 << 22) + gap, false, true),
            ((3 << 22) + gap - 1, false, false),
        ] {
            assert_eq!(
                trig_indices_clear(u2, sine),
                clear,
                "u2 index {u2}, sine {sine}"
            );
        }
        // The radius floor of a tie and the resulting noise clear `settle`
        // for the default comparator.
        assert!(box_muller_radius(TIE_U1_MAX) > 0.044);
        assert!(Comparator::new().screen.ties);
    }

    /// Screen (d)'s proof: every `u2` index the sign ranges accept gives
    /// an f32 trig value of the claimed sign, for both halves.
    #[test]
    fn trig_sign_ranges_hold_over_every_u2_index() {
        for u2 in 0..1u32 << 24 {
            let (sin, cos) = box_muller_angle(u2);
            for (sine, t) in [(false, cos), (true, sin)] {
                if trig_indices_clear(u2, sine) {
                    assert!(
                        t != 0.0 && (t < 0.0) == trig_negative(u2, sine),
                        "u2 index {u2} (sine {sine}): trig {t}"
                    );
                }
            }
        }
        // Each half is positive on its first half-turn from its zero.
        let gap = TIE_TRIG_GAP;
        for (u2, sine, negative) in [
            (gap, true, false),
            ((1 << 23) - gap, true, false),
            ((1 << 23) + gap, true, true),
            ((1 << 24) - gap, true, true),
            (0, false, false),
            ((1 << 22) - gap, false, false),
            ((1 << 22) + gap, false, true),
            ((3 << 22) - gap, false, true),
            ((3 << 22) + gap, false, false),
        ] {
            assert_eq!(
                trig_negative(u2, sine),
                negative,
                "u2 index {u2}, sine {sine}"
            );
        }
    }

    /// [`Screen::bounded`]'s proof: every `u1` index's radius and every
    /// `u2` index's cosine and sine lie within their bucket's bounds.
    #[test]
    fn draw_bounds_hold_over_every_index() {
        let bounds = DrawBounds::get();
        for i in 0..1u32 << 24 {
            let b = (i >> BOUND_SHIFT) as usize;
            let r = box_muller_radius(i);
            let [lo, hi] = bounds.radius[b];
            assert!(
                (lo..=hi).contains(&r),
                "u1 index {i}: radius {r} outside bucket {b}"
            );
            let (sin, cos) = box_muller_angle(i);
            for (h, t) in [cos, sin].into_iter().enumerate() {
                let [lo, hi] = bounds.trig[h][b];
                assert!(
                    (lo..=hi).contains(&t),
                    "u2 index {i} (sine {h}): {t} outside [{lo}, {hi}]"
                );
            }
        }
        // The bounds are tight enough to settle: a bucket's trig range is
        // at most 2π·2⁻¹⁰ wide.
        let [lo, hi] = bounds.trig[0][BOUND_BUCKETS / 8];
        assert!(hi - lo < 7e-3 && lo > 0.5, "[{lo}, {hi}]");
    }

    /// [`Screen::bounded`] against the exact arithmetic of
    /// [`Comparator::decide`] on `u1` and `u2` indices at both edges of
    /// every 31st bucket, both halves and both noise signs, under
    /// differences either side of where the noisy difference crosses zero
    /// and `±settle`: every outcome the bounds prove is the exact one.
    #[test]
    fn bounded_outcomes_are_exact_at_bucket_edges() {
        let bounds = DrawBounds::get();
        let edges: Vec<u32> = (0..BOUND_BUCKETS as u32)
            .step_by(31)
            .flat_map(|b| [b << BOUND_SHIFT, ((b + 1) << BOUND_SHIFT) - 1])
            .collect();
        let mut proven_count = 0;
        for c in [
            Comparator::new(),
            Comparator::new().with_noise(Volts::new(-3e-4)),
            Comparator::new().with_noise(Volts::new(2e-3)),
        ] {
            let s = &c.screen;
            for (&u1, &u2, sine) in edges
                .iter()
                .flat_map(|u1| edges.iter().map(move |u2| (u1, u2)))
                .flat_map(|(u1, u2)| [(u1, u2, false), (u1, u2, true)])
            {
                let (sin, cos) = box_muller_angle(u2);
                let z = box_muller_radius(u1) * if sine { sin } else { cos };
                let noise = f64::from(z) * c.noise_rms.value();
                let trig = &bounds.trig[usize::from(sine)];
                for edge in [-noise, s.settle - noise, -s.settle - noise] {
                    for e in [-1e-3, -1e-4, -1e-6, 1e-6, 1e-4, 1e-3] {
                        let delta = edge + e * noise.abs().max(s.settle);
                        let (proven, greater) = s.bounded(&bounds.radius, trig, delta, u1, u2);
                        if proven {
                            proven_count += 1;
                            assert_eq!(
                                c.decide(delta, u1, u2, sine),
                                Some(greater),
                                "u1 {u1}, u2 {u2}, sine {sine}, delta {delta:e}"
                            );
                        }
                    }
                }
            }
        }
        assert!(proven_count > 10_000, "proven {proven_count}");
    }

    /// The first site id of `stream` whose first Box–Muller pair has `u1`
    /// and `u2` indices accepted by `accept`.
    fn find_site(stream: NoiseStream, accept: impl Fn(u32, u32) -> bool) -> u64 {
        (0..)
            .find(|&id| {
                let s = stream.at(id);
                accept(s.uniform_index(0), s.uniform_index(1))
            })
            .expect("an unbounded search finds a site")
    }

    /// `taps` (one volt per unit) through `max_lanes`, as a group's one
    /// live lane, and through the `compare` chain on site `id`: the same
    /// kept bits and forced count. Returns the forced count.
    fn assert_window_is_exact(c: &Comparator, taps: &[f32], stream: NoiseStream, id: u64) -> u64 {
        let (mut screened, mut oracle) = (c.clone(), c.clone());
        let block: Vec<[f32; LANES]> = taps.iter().map(|&v| [v; LANES]).collect();
        let got = screened.max_lanes(&block, 1.0, &stream, &[id; LANES], 1)[0];
        let mut rng = stream.at(id);
        let want = taps[1..].iter().fold(taps[0], |best, &v| {
            let d = oracle.compare(f64::from(v), f64::from(best), &mut rng);
            if d.a_greater {
                v
            } else {
                best
            }
        });
        assert_eq!(got.to_bits(), want.to_bits(), "{taps:?}");
        assert_eq!(
            (screened.decisions_made(), screened.forced_decisions()),
            (oracle.decisions_made(), oracle.forced_decisions()),
            "{taps:?}"
        );
        screened.forced_decisions()
    }

    /// Typical draws cannot show a screen bound that is slightly too
    /// loose: only rare draws make the noise matter. These windows put
    /// the draws the bounds are about against differences at the bounds.
    #[test]
    fn screen_is_exact_at_its_worst_case_draws() {
        let c = Comparator::new();
        let (s, sigma) = (&c.screen, c.noise_rms.value());
        let stream = NoiseStream::new(0x5c4e_e111);
        // (a): the largest radius, with the cosine half well away from 0.
        let id = find_site(stream, |u1, u2| {
            u1 == 0 && box_muller_angle(u2).1.abs() >= 0.6
        });
        let z = box_muller_radius(0) * box_muller_angle(stream.at(id).uniform_index(1)).1;
        let noise = f64::from(z) * sigma;
        for scale in [0.5, 0.9, 0.999, 1.001, 1.1] {
            assert_window_is_exact(&c, &[0.0, (-noise * scale) as f32], stream, id);
        }
        for edge in [s.noise_max + s.settle, 0.5 * s.noise_max] {
            assert_window_is_exact(&c, &[0.0, (-edge.copysign(noise)) as f32], stream, id);
        }
        // (c): a `u1` index just under a bucket's entry, the noise opposing
        // a difference at the bucket's lower edge.
        let bucket = (0..BUCKETS)
            .min_by_key(|&b| s.min_u1[b].abs_diff(1 << 12))
            .expect("the table has buckets");
        let k = s.min_u1[bucket];
        assert!((1000..1 << 24).contains(&k), "bucket {bucket}: K={k}");
        let lower = bucket as f64 / s.inv_width;
        let id = find_site(stream, |u1, u2| {
            (k - 1000..k).contains(&u1) && box_muller_angle(u2).1.abs() >= 0.999
        });
        let opposing = -f64::from(box_muller_angle(stream.at(id).uniform_index(1)).1).signum();
        for scale in [1.0, 1.000_01, 1.001, 1.01] {
            let v = (opposing * lower * scale) as f32;
            assert_window_is_exact(&c, &[0.0, v], stream, id);
        }
        // (b): a tie whose cosine sits on its zero times out.
        let id = find_site(stream, |u1, u2| u1 <= TIE_U1_MAX && u2 == 1 << 22);
        assert_eq!(assert_window_is_exact(&c, &[0.3, 0.3], stream, id), 1);
        // (d): `u2` indices at the edges of each half's sign ranges, in and
        // just out, under differences just above `settle` of both signs and
        // noise of both signs. A radius of at least 1.18 makes the noise
        // ~10³× `settle`, so a sign the test gets wrong flips the outcome.
        let gap = TIE_TRIG_GAP;
        let cosine_edges = [
            (1 << 22) - gap,
            (1 << 22) + gap,
            (3 << 22) - gap,
            (3 << 22) + gap,
        ];
        let sine_edges = [gap, (1 << 23) - gap, (1 << 23) + gap, (1 << 24) - gap];
        let mut settled_by_sign = 0;
        for (sine, edges) in [(false, cosine_edges), (true, sine_edges)] {
            for edge in edges {
                let id = find_site(stream, |u1, u2| u1 <= 1 << 23 && u2.abs_diff(edge) <= 8);
                let (u1, u2) = (
                    stream.at(id).uniform_index(0),
                    stream.at(id).uniform_index(1),
                );
                for c in [
                    Comparator::new(),
                    Comparator::new().with_noise(Volts::new(-3e-4)),
                ] {
                    let settle = c.screen.settle;
                    let mut above = settle as f32;
                    while f64::from(above) <= settle {
                        above = f32::from_bits(above.to_bits() + 1);
                    }
                    for v in [above, above * (1.0 + 1.0 / 1024.0), 2.0 * above] {
                        for v in [v, -v] {
                            // A sine-half decision follows a first decision
                            // that (a) settles for the running best.
                            let window = if sine {
                                vec![0.0, -1.0, v]
                            } else {
                                vec![0.0, v]
                            };
                            assert_eq!(assert_window_is_exact(&c, &window, stream, id), 0);
                            settled_by_sign +=
                                usize::from(c.screen.settles(f64::from(v), false, u1, u2, sine));
                        }
                    }
                }
            }
        }
        // Half the cases are in range, and half of those have the
        // difference's sign: 2 halves · 4 edges · 2 noise signs · 3 sizes.
        assert!(settled_by_sign >= 12, "(d) settled {settled_by_sign}");

        // The bucket bounds of `Screen::bounded`: `u1` indices on both
        // edges of a radius bucket and `u2` indices on both edges of a trig
        // bucket, for both noise signs, each against differences that
        // oppose the noise: just either side of the smallest one the
        // bounds settle as its own sign, and one small enough that the
        // bounds settle it as the noise's sign.
        let edges: [fn(u32, u32) -> bool; 2] = [
            |u1, u2| {
                u1 % (1 << BOUND_SHIFT) == 0 && u1 < 1 << 23 && box_muller_angle(u2).1.abs() >= 0.5
            },
            |u1, u2| {
                (u2 + 1) % (1 << BOUND_SHIFT) < 2
                    && u1 < 1 << 23
                    && box_muller_angle(u2).1.abs() >= 0.5
            },
        ];
        let mut settled_by_bounds = 0;
        for edge in edges {
            let id = find_site(stream, edge);
            let u2 = stream.at(id).uniform_index(1);
            for c in [
                Comparator::new(),
                Comparator::new().with_noise(Volts::new(-3e-4)),
            ] {
                let s = &c.screen;
                let cos = box_muller_angle(u2).1;
                // The noise's sign: the draw's cosine times `σ`'s.
                let noise_sign = if (cos < 0.0) == s.sigma_negative {
                    1.0
                } else {
                    -1.0
                };
                // A difference opposing the noise, sized so that the
                // bounds' far end sits at `±settle`.
                let bounds = DrawBounds::get();
                let b = (stream.at(id).uniform_index(0) >> BOUND_SHIFT) as usize;
                let [lo, hi] = bounds.trig[0][(u2 >> BOUND_SHIFT) as usize];
                let t_far = lo.abs().max(hi.abs());
                let far = f64::from(bounds.radius[b][1] * t_far) * s.sigma + s.settle;
                // Under half the smallest noise term the bounds allow.
                let t_near = lo.abs().min(hi.abs());
                let flipped = 0.5 * f64::from(bounds.radius[b][0] * t_near) * s.sigma;
                assert!(flipped > 2.0 * s.settle, "{flipped}");
                let (u1, u2) = (
                    stream.at(id).uniform_index(0),
                    stream.at(id).uniform_index(1),
                );
                let v = (-noise_sign * flipped) as f32;
                assert_eq!(assert_window_is_exact(&c, &[0.0, v], stream, id), 0);
                let (proven, greater) =
                    s.bounded(&bounds.radius, &bounds.trig[0], f64::from(v), u1, u2);
                assert!(proven && greater == (noise_sign > 0.0), "{v}: not flipped");
                for scale in [0.999, 0.999_99, 1.000_01, 1.001, 1.1] {
                    let v = (-noise_sign * far * scale) as f32;
                    assert_eq!(assert_window_is_exact(&c, &[0.0, v], stream, id), 0);
                    let (proven, greater) =
                        s.bounded(&bounds.radius, &bounds.trig[0], f64::from(v), u1, u2);
                    assert!(
                        !proven || greater == (v > 0.0),
                        "{v}: opposing noise flipped"
                    );
                    settled_by_bounds += usize::from(proven);
                }
            }
        }
        // Only the scales above 1 settle: 2 edges · 2 noise signs · 3.
        assert_eq!(settled_by_bounds, 12, "bounds settled {settled_by_bounds}");
    }

    /// Each `compare` is one decision; `FrameCost::compare` charges the
    /// per-decision energy.
    #[test]
    fn each_compare_is_one_decision() {
        let mut c = Comparator::new();
        let mut rng = Rng::seed_from(5);
        for _ in 0..10 {
            c.compare(1.0, 0.0, &mut rng);
        }
        assert_eq!(c.decisions_made(), 10);
    }
}
