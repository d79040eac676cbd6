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
//! [`Comparator::max_window`] runs a whole pooling window through the same
//! decisions, but settles every decision whose outcome provably does not
//! depend on its noise value from the draw's integer indices alone, and
//! evaluates the Box–Muller transform only for the rest (see DESIGN.md
//! §15).

use crate::calib::{COMPARATOR_DECISION_TIME, COMPARATOR_ENERGY, SWING};
use crate::{Joules, Seconds, Volts};
use redeye_tensor::{box_muller_angle, box_muller_radius, NoiseSource, SiteRng};

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

/// Outcome of [`Comparator::max_window`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowMax {
    /// The tap the comparison chain kept.
    pub value: f32,
    /// Decisions made: one per tap after the first.
    pub decisions: u64,
    /// Decisions forced by the metastability timeout.
    pub forced: u64,
    /// Uniform draws the equivalent [`Comparator::compare`] calls consume
    /// from the site generator.
    pub draws: u64,
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

    /// Max of one pooling window through the comparator chain: the result,
    /// counters and draw positions of
    ///
    /// ```text
    /// best = taps[0]
    /// for v in taps[1..]: if compare(v·volts_per_unit, best·volts_per_unit, site).a_greater { best = v }
    /// ```
    ///
    /// on a clone of `site`, which itself is not advanced. `site` must not
    /// hold a cached Box–Muller half, which is true of every generator from
    /// [`redeye_tensor::NoiseStream::at`] before its first normal draw. An
    /// empty window yields `0.0` with no decisions.
    ///
    /// Each decision is first screened at the draw it would consume. When
    /// its noise provably cannot flip the outcome or force it, the decision
    /// is settled from the draw's integer indices without evaluating the
    /// draw; otherwise the draw is evaluated lazily — radius before angle,
    /// the metastability logarithm only near a tie — with the same
    /// arithmetic `compare` uses.
    pub fn max_window(&mut self, taps: &[f32], volts_per_unit: f64, site: &SiteRng) -> WindowMax {
        let Some((&first, rest)) = taps.split_first() else {
            return WindowMax::default();
        };
        let mut best = first;
        // The running best's voltage, carried so the loop's dependency
        // chain is one subtraction and a compare per decision.
        let mut best_volts = f64::from(first) * volts_per_unit;
        let mut draws = Draws::new(site);
        let mut forced = 0u64;
        for &v in rest {
            let volts = f64::from(v) * volts_per_unit;
            let delta = volts - best_volts;
            draws.next_normal();
            let tie = v.to_bits() == best.to_bits();
            let a_greater = match self.screen.outcome(delta, tie, &mut draws) {
                Some(a_greater) => a_greater,
                None => {
                    let (a_greater, was_forced) = self.decide(delta, &mut draws);
                    forced += u64::from(was_forced);
                    a_greater
                }
            };
            if a_greater {
                best = v;
                best_volts = volts;
            }
        }
        let decisions = rest.len() as u64;
        self.decisions += decisions;
        self.forced += forced;
        WindowMax {
            value: best,
            decisions,
            forced,
            draws: draws.next,
        }
    }

    /// [`Comparator::compare`] for an input difference `delta` against the
    /// current normal of `draws`, evaluating only as much of the draw as
    /// the outcome needs. Returns `(a_greater, forced)` and leaves the
    /// counters to the caller.
    fn decide(&self, delta: f64, draws: &mut Draws<'_>) -> (bool, bool) {
        if self.screen.clears(delta.abs(), draws.radius()) {
            return (delta > 0.0, false);
        }
        let delta = delta + f64::from(draws.normal()) * self.noise_rms.value();
        let in_time = delta.abs() > self.screen.settle;
        if !in_time && decision_time(self.tau, delta).value() > self.time_slot.value() {
            (draws.coin(), true)
        } else {
            (delta > 0.0, false)
        }
    }

    /// Total energy consumed.
    pub fn energy_consumed(&self) -> Joules {
        COMPARATOR_ENERGY * self.decisions as f64
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

/// The draws a run of `compare` calls on one fresh site generator
/// consumes, tracked by position and evaluated lazily, each part of a
/// Box–Muller pair at most once.
///
/// `SiteRng::standard_normal` takes a fresh pair (two uniforms) for its
/// cosine half and caches the sine half for the next call; a forced
/// decision's `chance(0.5)` takes one uniform in between without touching
/// the cached half.
#[derive(Debug)]
struct Draws<'a> {
    site: &'a SiteRng,
    /// Uniforms consumed so far.
    next: u64,
    /// First uniform of the current normal's pair.
    pair: u64,
    /// Whether the current normal is its pair's sine half.
    sine: bool,
    /// Whether the current pair's sine half is still to come.
    spare: bool,
    u1: Option<u32>,
    u2: Option<u32>,
    radius: Option<f32>,
    angle: Option<(f32, f32)>,
}

impl<'a> Draws<'a> {
    fn new(site: &'a SiteRng) -> Draws<'a> {
        Draws {
            site,
            next: 0,
            pair: 0,
            sine: false,
            spare: false,
            u1: None,
            u2: None,
            radius: None,
            angle: None,
        }
    }

    /// Moves to the normal the next `standard_normal` call returns.
    fn next_normal(&mut self) {
        if self.spare {
            self.spare = false;
            self.sine = true;
        } else {
            *self = Draws {
                next: self.next + 2,
                pair: self.next,
                spare: true,
                ..Draws::new(self.site)
            };
        }
    }

    /// The 24-bit index of the pair's `u1` uniform.
    fn u1(&mut self) -> u32 {
        *self
            .u1
            .get_or_insert_with(|| self.site.uniform_index(self.pair))
    }

    /// The 24-bit index of the pair's `u2` uniform.
    fn u2(&mut self) -> u32 {
        *self
            .u2
            .get_or_insert_with(|| self.site.uniform_index(self.pair + 1))
    }

    /// The pair's Box–Muller radius, which bounds `|normal()|`.
    fn radius(&mut self) -> f32 {
        if let Some(r) = self.radius {
            return r;
        }
        let r = box_muller_radius(self.u1());
        self.radius = Some(r);
        r
    }

    /// The current normal, bit for bit what `standard_normal` returns.
    fn normal(&mut self) -> f32 {
        let (sin, cos) = match self.angle {
            Some(angle) => angle,
            None => {
                let angle = box_muller_angle(self.u2());
                self.angle = Some(angle);
                angle
            }
        };
        self.radius() * if self.sine { sin } else { cos }
    }

    /// A forced decision's `chance(0.5)`: the next uniform is below one
    /// half exactly when its index is below 2²³.
    fn coin(&mut self) -> bool {
        self.next += 1;
        self.site.uniform_index(self.next - 1) < 1 << 23
    }
}

/// Largest `u1` index a tie may draw for the tie test: `u1 ≤ 1 − 2⁻¹⁰`, so
/// the Box–Muller radius is at least ≈0.044.
const TIE_U1_MAX: u32 = (1 << 24) - (1 << 14);
/// Index distance a tie's `u2` keeps from every zero of its half's trig
/// function (2π·2⁻¹⁰ rad).
const TIE_TRIG_GAP: u32 = 1 << 14;
/// Entries of the clear-decision table.
const BUCKETS: usize = 128;

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
    /// `radius(0)·|σ|`: no draw's noise term exceeds it.
    noise_max: f64,
    /// Whether a tie whose indices pass [`tie_indices_clear`] is proven
    /// unforced.
    ties: bool,
    /// Reciprocal of the bucket width, an exact power of two.
    inv_width: f64,
    /// `min_u1[b]`: the smallest `u1` index whose radius clears every
    /// `|Δ| ≥ b·width` (`2²⁴` if none does); empty without noise.
    min_u1: Vec<u32>,
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
            noise_max,
            ties: tie_noise >= settle,
            inv_width: 0.0,
            min_u1: Vec::new(),
        };
        // The largest power-of-two width whose buckets stay within
        // `noise_max`; larger differences share the last bucket. In this
        // range, scaling by its reciprocal is exact, so a difference in
        // bucket `b` is at least `b·width` exactly.
        let exp = (noise_max / BUCKETS as f64).log2().floor() as i32;
        let width = 2f64.powi(exp);
        if settle.is_finite() && (f64::MIN_POSITIVE..=1.0).contains(&width) {
            screen.inv_width = 2f64.powi(-exp);
            let mut hi = 1u32 << 24;
            for b in 0..BUCKETS {
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
                screen.min_u1.push(hi);
            }
        }
        screen
    }

    /// Whether noise of Box–Muller radius `r` can neither flip the sign of
    /// a difference of magnitude `abs_delta` nor bring it under `settle`.
    #[inline]
    fn clears(&self, abs_delta: f64, r: f32) -> bool {
        abs_delta - f64::from(r) * self.sigma > self.settle
    }

    /// The outcome of a decision whose input difference is `delta` and
    /// whose normal is the current one of `draws`, when it is provably not
    /// forced and its sign does not depend on the noise; `None` otherwise.
    /// `tie` says the two taps have identical bits.
    #[inline]
    fn outcome(&self, delta: f64, tie: bool, draws: &mut Draws<'_>) -> Option<bool> {
        let abs = delta.abs();
        // (a) Larger than any noise term. An infinite difference passes
        // too, but is left to the exact path.
        if abs - self.noise_max > self.settle {
            return (abs <= f64::MAX).then_some(delta > 0.0);
        }
        // (b) An exact tie keeps the same bits whichever tap wins; only
        // "not forced" needs proof.
        if tie && delta == 0.0 {
            let clear =
                self.ties && draws.u1() <= TIE_U1_MAX && tie_indices_clear(draws.u2(), draws.sine);
            return clear.then_some(false);
        }
        // (c) This draw's radius is small enough for the difference. A NaN
        // lands in bucket 0, which never clears.
        let bucket = ((abs * self.inv_width) as usize).min(BUCKETS - 1);
        let min_u1 = *self.min_u1.get(bucket)?;
        (draws.u1() >= min_u1).then_some(delta > 0.0)
    }
}

/// Whether `u2_index` keeps [`TIE_TRIG_GAP`] from every zero of the sine
/// (`sine`) or cosine of `2π·u2`. Sine zeros sit at multiples of `2²³`,
/// cosine zeros a quarter turn (`2²²`) later.
fn tie_indices_clear(u2_index: u32, sine: bool) -> bool {
    let shift = if sine { 0 } else { 1 << 22 };
    let phase = (u2_index + shift) & ((1 << 23) - 1);
    (TIE_TRIG_GAP..=(1 << 23) - TIE_TRIG_GAP).contains(&phase)
}

/// The smallest `|sin|` or `|cos|` over the boundary indices of
/// [`tie_indices_clear`], evaluated through the real angle expression.
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
    use redeye_tensor::{NoiseStream, Rng};

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
    fn screened_variants() -> [Comparator; 4] {
        [
            Comparator::new(),
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
        assert!(never.screen.min_u1.is_empty() && !never.screen.ties);
    }

    #[test]
    fn tie_trig_margin_holds_over_every_u2_index() {
        let floor = tie_trig_floor();
        assert!(floor > 6e-3, "trig floor {floor}");
        for sine in [false, true] {
            for u2 in 0..1u32 << 24 {
                if tie_indices_clear(u2, sine) {
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
                tie_indices_clear(u2, sine),
                clear,
                "u2 index {u2}, sine {sine}"
            );
        }
        // The radius floor of a tie and the resulting noise clear `settle`
        // for the default comparator.
        assert!(box_muller_radius(TIE_U1_MAX) > 0.044);
        assert!(Comparator::new().screen.ties);
    }

    /// The first site of `stream` whose first Box–Muller pair has `u1`
    /// and `u2` indices accepted by `accept`.
    fn find_site(stream: NoiseStream, accept: impl Fn(u32, u32) -> bool) -> SiteRng {
        (0..)
            .map(|id| stream.at(id))
            .find(|s| accept(s.uniform_index(0), s.uniform_index(1)))
            .expect("an unbounded search finds a site")
    }

    /// One decision of `v` against `best` (one volt per unit) through
    /// `max_window` and through `compare`, on the same site.
    fn assert_window_is_exact(best: f32, v: f32, site: &SiteRng) {
        let (mut screened, mut oracle) = (Comparator::new(), Comparator::new());
        let got = screened.max_window(&[best, v], 1.0, site);
        let mut rng = site.clone();
        let d = oracle.compare(f64::from(v), f64::from(best), &mut rng);
        let want = if d.a_greater { v } else { best };
        assert_eq!(got.value.to_bits(), want.to_bits(), "{best} vs {v}");
        assert_eq!(got.forced, u64::from(d.forced), "{best} vs {v}");
        assert_eq!(got.draws, if d.forced { 3 } else { 2 }, "{best} vs {v}");
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
        let site = find_site(stream, |u1, u2| {
            u1 == 0 && box_muller_angle(u2).1.abs() >= 0.6
        });
        let z = box_muller_radius(0) * box_muller_angle(site.uniform_index(1)).1;
        let noise = f64::from(z) * sigma;
        for scale in [0.5, 0.9, 0.999, 1.001, 1.1] {
            assert_window_is_exact(0.0, (-noise * scale) as f32, &site);
        }
        for edge in [s.noise_max + s.settle, 0.5 * s.noise_max] {
            assert_window_is_exact(0.0, (-edge.copysign(noise)) as f32, &site);
        }
        // (c): a `u1` index just under a bucket's entry, the noise opposing
        // a difference at the bucket's lower edge.
        let bucket = (0..BUCKETS)
            .min_by_key(|&b| s.min_u1[b].abs_diff(1 << 12))
            .expect("the table has buckets");
        let k = s.min_u1[bucket];
        assert!((1000..1 << 24).contains(&k), "bucket {bucket}: K={k}");
        let lower = bucket as f64 / s.inv_width;
        let site = find_site(stream, |u1, u2| {
            (k - 1000..k).contains(&u1) && box_muller_angle(u2).1.abs() >= 0.999
        });
        let opposing = -f64::from(box_muller_angle(site.uniform_index(1)).1).signum();
        for scale in [1.0, 1.000_01, 1.001, 1.01] {
            assert_window_is_exact(0.0, (opposing * lower * scale) as f32, &site);
        }
        // (b): a tie whose cosine sits on its zero times out.
        let site = find_site(stream, |u1, u2| u1 <= TIE_U1_MAX && u2 == 1 << 22);
        assert_window_is_exact(0.3, 0.3, &site);
        assert_eq!(
            Comparator::new().max_window(&[0.3, 0.3], 1.0, &site).forced,
            1
        );
    }

    #[test]
    fn energy_is_per_decision() {
        let mut c = Comparator::new();
        let mut rng = Rng::seed_from(5);
        for _ in 0..10 {
            c.compare(1.0, 0.0, &mut rng);
        }
        let expect = COMPARATOR_ENERGY * 10.0;
        assert!((c.energy_consumed().value() - expect.value()).abs() < 1e-24);
    }
}
