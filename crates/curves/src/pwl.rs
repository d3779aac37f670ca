//! Wide-sense increasing piecewise-linear curves with an affine tail.
//!
//! [`Pwl`] is the workhorse representation for arrival and service curves.
//! A curve is stored as a sorted list of [`Segment`]s; segment `i` describes
//! the function on `[xᵢ, xᵢ₊₁)` as `yᵢ + slopeᵢ·(x − xᵢ)`, and the last
//! segment extends to infinity. Upward jumps between segments are allowed
//! (curves are the *right-continuous* versions, so e.g. a leaky bucket has
//! `α(0) = b`), downward jumps are not.

use crate::num::{approx_eq, approx_ge, require_non_negative, EPSILON};
use crate::CurveError;

/// One linear piece of a [`Pwl`] curve: on `[x, next.x)` the curve equals
/// `y + slope·(t − x)`.
///
/// # Example
///
/// ```
/// use wcm_curves::Segment;
///
/// let s = Segment::new(1.0, 2.0, 0.5);
/// assert_eq!(s.value_at(3.0), 3.0); // 2 + 0.5·(3 − 1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Segment {
    /// Left endpoint of the piece.
    pub x: f64,
    /// Curve value at `x` (right limit).
    pub y: f64,
    /// Slope of the piece; must be non-negative and finite.
    pub slope: f64,
}

impl Segment {
    /// Creates a segment starting at `(x, y)` with the given `slope`.
    #[must_use]
    pub fn new(x: f64, y: f64, slope: f64) -> Self {
        Self { x, y, slope }
    }

    /// Evaluates the *extension* of this piece at `t` (no domain check).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        self.y + self.slope * (t - self.x)
    }
}

/// A wide-sense increasing piecewise-linear curve `f: [0, ∞) → [0, ∞)`.
///
/// Invariants (enforced by constructors):
///
/// * the first segment starts at `x = 0`;
/// * segment start points are strictly increasing;
/// * slopes are finite and non-negative;
/// * at each junction the value does not decrease (upward jumps allowed);
/// * the last segment extends to `∞` with its slope as the *ultimate rate*.
///
/// # Example
///
/// ```
/// use wcm_curves::Pwl;
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// // A rate-latency curve: 0 until Δ=2, then slope 3.
/// let beta = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (2.0, 0.0, 3.0)])?;
/// assert_eq!(beta.value(1.0), 0.0);
/// assert_eq!(beta.value(4.0), 6.0);
/// assert_eq!(beta.ultimate_rate(), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Pwl {
    segments: Vec<Segment>,
}

impl Pwl {
    /// The curve that is identically zero.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            segments: vec![Segment::new(0.0, 0.0, 0.0)],
        }
    }

    /// The constant curve `f(Δ) = c`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `c` is negative or NaN.
    pub fn constant(c: f64) -> Result<Self, CurveError> {
        let c = require_non_negative("c", c)?;
        Ok(Self {
            segments: vec![Segment::new(0.0, c, 0.0)],
        })
    }

    /// The affine curve `f(Δ) = y0 + rate·Δ`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `y0` or `rate` is
    /// negative or NaN.
    pub fn affine(y0: f64, rate: f64) -> Result<Self, CurveError> {
        let y0 = require_non_negative("y0", y0)?;
        let rate = require_non_negative("rate", rate)?;
        Ok(Self {
            segments: vec![Segment::new(0.0, y0, rate)],
        })
    }

    /// Builds a curve from `(x, y, slope)` breakpoints.
    ///
    /// The breakpoints must start at `x = 0`, be strictly increasing in `x`,
    /// have non-negative `y` and `slope`, and must not jump downwards.
    /// Collinear junctions are merged.
    ///
    /// # Errors
    ///
    /// * [`CurveError::Empty`] if no breakpoints are given.
    /// * [`CurveError::NotIncreasing`] if `x` values are not strictly
    ///   increasing, the first `x` is not 0, or the value decreases at a
    ///   junction.
    /// * [`CurveError::NegativeParameter`] for negative/NaN coordinates.
    pub fn from_breakpoints(points: Vec<(f64, f64, f64)>) -> Result<Self, CurveError> {
        if points.is_empty() {
            return Err(CurveError::Empty);
        }
        let mut segments = Vec::with_capacity(points.len());
        for (i, &(x, y, slope)) in points.iter().enumerate() {
            require_non_negative("x", x)?;
            require_non_negative("y", y)?;
            require_non_negative("slope", slope)?;
            if i == 0 && !approx_eq(x, 0.0) {
                return Err(CurveError::NotIncreasing { index: 0 });
            }
            segments.push(Segment::new(x, y, slope));
        }
        Self::from_segments(segments)
    }

    /// Trusted constructor for segment lists that are already deduplicated,
    /// validated and normalized — i.e. the exact output the
    /// [`Pwl::from_segments`] pipeline would produce. Used by the lazy
    /// iterator layer ([`crate::iter`]), whose adapters run the same
    /// dedup/validate/normalize steps incrementally while streaming.
    ///
    /// Debug builds re-check the invariants; release builds trust the caller.
    pub(crate) fn from_normalized(segments: Vec<Segment>) -> Self {
        debug_assert!(!segments.is_empty(), "normalized stream must be non-empty");
        debug_assert!(
            approx_eq(segments[0].x, 0.0),
            "normalized stream must start at x ≈ 0"
        );
        debug_assert!(
            segments.windows(2).all(|w| w[1].x > w[0].x + EPSILON),
            "normalized stream must have strictly increasing x"
        );
        Self { segments }
    }

    /// Internal constructor: validates and normalizes a segment list.
    pub(crate) fn from_segments(mut segments: Vec<Segment>) -> Result<Self, CurveError> {
        if segments.is_empty() {
            return Err(CurveError::Empty);
        }
        // Coinciding start points: the later segment carries the
        // right-continuous value and wins (e.g. a zero-latency rate-latency
        // curve degenerates to a single affine segment). The anchor `x`
        // keeps the earlier value so a chain of near-equal points cannot
        // creep away from the origin.
        segments.dedup_by(|next, prev| {
            if approx_eq(next.x, prev.x) {
                prev.y = next.y;
                prev.slope = next.slope;
                true
            } else {
                false
            }
        });
        if !approx_eq(segments[0].x, 0.0) {
            return Err(CurveError::NotIncreasing { index: 0 });
        }
        for i in 1..segments.len() {
            let prev = segments[i - 1];
            let cur = segments[i];
            if cur.x <= prev.x + EPSILON {
                return Err(CurveError::NotIncreasing { index: i });
            }
            let reach = prev.value_at(cur.x);
            if cur.y < reach - EPSILON * (1.0 + reach.abs()) {
                return Err(CurveError::NotIncreasing { index: i });
            }
        }
        let mut c = Self { segments };
        c.normalize();
        Ok(c)
    }

    /// Merges collinear/continuous junctions in place.
    fn normalize(&mut self) {
        let mut out: Vec<Segment> = Vec::with_capacity(self.segments.len());
        for seg in self.segments.drain(..) {
            if let Some(last) = out.last() {
                let continuous = approx_eq(last.value_at(seg.x), seg.y);
                if continuous && approx_eq(last.slope, seg.slope) {
                    continue; // collinear continuation — drop the breakpoint
                }
            }
            out.push(seg);
        }
        self.segments = out;
    }

    /// The list of segments (sorted by `x`, first at `x = 0`).
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Consumes the curve, returning its segment buffer for reuse — e.g.
    /// as a ping-pong buffer feeding
    /// [`CurveIter::collect_pwl_reusing`](crate::CurveIter::collect_pwl_reusing)
    /// in fixpoint or fold loops.
    #[must_use]
    pub fn into_segments(self) -> Vec<Segment> {
        self.segments
    }

    /// Evaluates the curve at `t` (right-continuous value).
    ///
    /// For `t < 0` the value at 0 is returned; curves are only defined on
    /// `[0, ∞)`.
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        let seg = self.segment_at(t);
        seg.value_at(t.max(seg.x))
    }

    /// Evaluates the left limit `f(t⁻)`; equals [`Pwl::value`] except at
    /// upward jumps.
    #[must_use]
    pub fn value_left(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.value(0.0);
        }
        // Find the segment active immediately before t.
        let idx = match self
            .segments
            .binary_search_by(|s| s.x.total_cmp(&t))
        {
            Ok(i) => i.saturating_sub(1).min(self.segments.len() - 1),
            Err(0) => 0,
            Err(i) => i - 1,
        };
        // If t coincides with a breakpoint, use the previous piece.
        let seg = if idx > 0 && approx_eq(self.segments[idx].x, t) {
            self.segments[idx - 1]
        } else if approx_eq(self.segments[idx].x, t) && idx == 0 {
            self.segments[0]
        } else {
            self.segments[idx]
        };
        seg.value_at(t)
    }

    fn segment_at(&self, t: f64) -> Segment {
        if t <= self.segments[0].x {
            return self.segments[0];
        }
        let idx = self
            .segments
            .partition_point(|s| s.x <= t + EPSILON * (1.0 + t.abs()));
        self.segments[idx.saturating_sub(1)]
    }

    /// The slope of the final (infinite) segment — the long-run growth rate.
    #[must_use]
    pub fn ultimate_rate(&self) -> f64 {
        self.segments.last().expect("non-empty by invariant").slope
    }

    /// Start of the final segment; beyond this point the curve is affine.
    #[must_use]
    pub fn tail_start(&self) -> f64 {
        self.segments.last().expect("non-empty by invariant").x
    }

    /// All breakpoint x-coordinates, in increasing order.
    ///
    /// Returns a lazy iterator; callers that need a `Vec` can `collect()`,
    /// but operator hot paths iterate directly without allocating.
    pub fn breakpoint_xs(&self) -> impl Iterator<Item = f64> + '_ {
        self.segments.iter().map(|s| s.x)
    }

    /// Pointwise minimum (lower envelope) of two curves — exact, including
    /// intersection points inside segments.
    #[must_use]
    pub fn min(&self, other: &Pwl) -> Pwl {
        envelope(self, other, true)
    }

    /// Pointwise maximum (upper envelope) of two curves.
    #[must_use]
    pub fn max(&self, other: &Pwl) -> Pwl {
        envelope(self, other, false)
    }

    /// Pointwise sum `f + g`.
    #[must_use]
    pub fn add(&self, other: &Pwl) -> Pwl {
        let xs = merged_breakpoints(self, other);
        let mut segs = Vec::with_capacity(xs.len());
        for (i, &x) in xs.iter().enumerate() {
            let y = self.value(x) + other.value(x);
            let slope = if i + 1 < xs.len() {
                // Slope on [x_i, x_{i+1}) from left-limits to keep jumps at
                // the junction rather than smearing them.
                let next_x = xs[i + 1];
                let left = self.value_left(next_x) + other.value_left(next_x);
                (left - y) / (next_x - x)
            } else {
                self.ultimate_rate() + other.ultimate_rate()
            };
            segs.push(Segment::new(x, y, slope.max(0.0)));
        }
        Pwl::from_segments(segs).expect("sum of valid curves is valid")
    }

    /// Pointwise difference clamped at zero: `max(f − g, 0)`.
    ///
    /// Used e.g. for remaining-service computations. The result is not
    /// necessarily increasing pointwise, so it is *upper-rounded* to the
    /// smallest wide-sense increasing curve above the clamped difference
    /// (running maximum), which is the sound direction for upper bounds.
    #[must_use]
    pub fn sub_clamped_monotone(&self, other: &Pwl) -> Pwl {
        let mut xs = merged_breakpoints(self, other);
        // The difference may cross zero beyond the last breakpoint, on the
        // affine tails; add that crossing as a candidate.
        let last = *xs.last().expect("curves have at least one breakpoint");
        let (df, dg) = (self.ultimate_rate(), other.ultimate_rate());
        if (df - dg).abs() > EPSILON {
            let t = last + (other.value(last) - self.value(last)) / (df - dg);
            if t > last + EPSILON {
                xs.push(t);
                xs.push(t + 1.0); // interior sample past the crossing
            }
        }
        // Zero crossings of f−g inside intervals matter; sample candidates.
        let mut extra = Vec::new();
        for w in xs.windows(2) {
            let (a, b) = (w[0], w[1]);
            let da = self.value(a) - other.value(a);
            let db = self.value_left(b) - other.value_left(b);
            if (da > 0.0) != (db > 0.0) && (db - da).abs() > EPSILON {
                // Linear interpolation of the crossing point.
                let t = a + (b - a) * (0.0 - da) / (db - da);
                if t > a + EPSILON && t < b - EPSILON {
                    extra.push(t);
                }
            }
        }
        xs.extend(extra);
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| approx_eq(*a, *b));
        let mut running = 0.0_f64;
        let mut segs: Vec<Segment> = Vec::with_capacity(xs.len());
        for (i, &x) in xs.iter().enumerate() {
            let v = (self.value(x) - other.value(x)).max(0.0);
            running = running.max(v);
            let slope = if i + 1 < xs.len() {
                let nx = xs[i + 1];
                let nv = (self.value_left(nx) - other.value_left(nx)).max(0.0);
                ((nv.max(running) - running) / (nx - x)).max(0.0)
            } else {
                (self.ultimate_rate() - other.ultimate_rate()).max(0.0)
            };
            segs.push(Segment::new(x, running, slope));
            if i + 1 < xs.len() {
                running = (running + slope * (xs[i + 1] - x)).max(running);
            }
        }
        Pwl::from_segments(segs).expect("clamped difference is valid")
    }

    /// Vertical scaling `c·f`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `c` is negative or NaN.
    pub fn scale(&self, c: f64) -> Result<Pwl, CurveError> {
        let c = require_non_negative("c", c)?;
        let segs = self
            .segments
            .iter()
            .map(|s| Segment::new(s.x, s.y * c, s.slope * c))
            .collect();
        Pwl::from_segments(segs)
    }

    /// Shifts the curve right by `dx ≥ 0` and up by `dy ≥ 0`:
    /// `g(t) = f(t − dx) + dy` for `t ≥ dx`, and `g(t) = f(0) + dy` below —
    /// i.e. the head is held flat at the shifted initial value.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `dx` or `dy` is negative
    /// or NaN.
    pub fn shift(&self, dx: f64, dy: f64) -> Result<Pwl, CurveError> {
        let dx = require_non_negative("dx", dx)?;
        let dy = require_non_negative("dy", dy)?;
        let mut segs = Vec::with_capacity(self.segments.len() + 1);
        if dx > EPSILON {
            segs.push(Segment::new(0.0, self.segments[0].y + dy, 0.0));
        }
        for s in &self.segments {
            segs.push(Segment::new(s.x + dx, s.y + dy, s.slope));
        }
        if dx <= EPSILON {
            // Pure vertical shift: fix the first x back to exactly 0.
            segs[0].x = 0.0;
        }
        Pwl::from_segments(segs)
    }

    /// Lower pseudo-inverse `f⁻¹(y) = inf { t ≥ 0 : f(t) ≥ y }`.
    ///
    /// Returns `None` if `f` never reaches `y` (bounded curve).
    #[must_use]
    pub fn inverse_at(&self, y: f64) -> Option<f64> {
        if y <= self.segments[0].y {
            return Some(0.0);
        }
        for (i, s) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map(|n| n.x);
            let reach = match end {
                Some(e) => s.value_at(e),
                None => f64::INFINITY,
            };
            let next_y = end.map(|e| {
                // Right value of the next segment (jump target).
                self.segments[i + 1].value_at(e)
            });
            if y <= reach + EPSILON {
                if s.slope > 0.0 {
                    let t = s.x + (y - s.y) / s.slope;
                    return Some(t.max(s.x));
                }
                if y <= s.y + EPSILON {
                    return Some(s.x);
                }
                // Flat segment below y: y is first reached at the jump.
                if let (Some(e), Some(ny)) = (end, next_y) {
                    if y <= ny + EPSILON {
                        return Some(e);
                    }
                }
                // keep scanning
            } else if let (Some(e), Some(ny)) = (end, next_y) {
                // y lies inside the jump at `e`.
                if y <= ny + EPSILON {
                    return Some(e);
                }
            }
        }
        None
    }

    /// Checks `f(t) ≤ g(t)` at all breakpoints of both curves and on the
    /// tails. Exact for PWL curves (the max of `f−g` on a linear piece is at
    /// an endpoint).
    #[must_use]
    pub fn dominated_by(&self, g: &Pwl) -> bool {
        let xs = merged_breakpoints(self, g);
        for &x in &xs {
            if !approx_ge(g.value(x), self.value(x)) {
                return false;
            }
            if !approx_ge(g.value_left(x), self.value_left(x)) {
                return false;
            }
        }
        approx_ge(g.ultimate_rate(), self.ultimate_rate())
            || approx_ge(
                g.ultimate_rate(),
                self.ultimate_rate() - EPSILON,
            )
    }
}

impl Default for Pwl {
    fn default() -> Self {
        Self::zero()
    }
}

/// Merged, deduplicated breakpoint x-coordinates of two curves.
pub(crate) fn merged_breakpoints(a: &Pwl, b: &Pwl) -> Vec<f64> {
    let mut xs: Vec<f64> = a.breakpoint_xs().chain(b.breakpoint_xs()).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|p, q| approx_eq(*p, *q));
    xs
}

/// Exact lower (`lower = true`) or upper envelope of two PWL curves.
fn envelope(f: &Pwl, g: &Pwl, lower: bool) -> Pwl {
    let mut xs = merged_breakpoints(f, g);
    // Add interior intersection points (collected before `xs` is extended,
    // so no snapshot copy of the breakpoint list is needed).
    let mut extra = Vec::new();
    for w in xs.windows(2) {
        push_crossing(f, g, w[0], w[1], &mut extra);
    }
    // The tails may also cross beyond the last breakpoint.
    let last = *xs.last().expect("curves have at least one breakpoint");
    let (fv, gv) = (f.value(last), g.value(last));
    let (fr, gr) = (f.ultimate_rate(), g.ultimate_rate());
    if (fr - gr).abs() > EPSILON {
        let t = last + (gv - fv) / (fr - gr);
        if t > last + EPSILON {
            extra.push(t);
        }
    }
    xs.extend(extra);
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|p, q| approx_eq(*p, *q));

    let pick = |fa: f64, ga: f64| if lower { fa.min(ga) } else { fa.max(ga) };
    let mut segs = Vec::with_capacity(xs.len());
    for (i, &x) in xs.iter().enumerate() {
        let y = pick(f.value(x), g.value(x));
        let slope = if i + 1 < xs.len() {
            let nx = xs[i + 1];
            let ny = pick(f.value_left(nx), g.value_left(nx));
            ((ny - y) / (nx - x)).max(0.0)
        } else if lower {
            fr.min(gr)
        } else {
            fr.max(gr)
        };
        segs.push(Segment::new(x, y, slope));
    }
    Pwl::from_segments(segs).expect("envelope of valid curves is valid")
}

/// If `f − g` changes sign on `(a, b)` (both linear there), push the crossing.
fn push_crossing(f: &Pwl, g: &Pwl, a: f64, b: f64, out: &mut Vec<f64>) {
    let da = f.value(a) - g.value(a);
    let db = f.value_left(b) - g.value_left(b);
    if (da > 0.0) != (db > 0.0) && (db - da).abs() > EPSILON {
        let t = a + (b - a) * (0.0 - da) / (db - da);
        if t > a + EPSILON && t < b - EPSILON {
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_latency(rate: f64, latency: f64) -> Pwl {
        Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (latency, 0.0, rate)]).unwrap()
    }

    fn leaky_bucket(burst: f64, rate: f64) -> Pwl {
        Pwl::affine(burst, rate).unwrap()
    }

    #[test]
    fn zero_curve_is_zero_everywhere() {
        let z = Pwl::zero();
        assert_eq!(z.value(0.0), 0.0);
        assert_eq!(z.value(100.0), 0.0);
        assert_eq!(z.ultimate_rate(), 0.0);
    }

    #[test]
    fn default_equals_zero() {
        assert_eq!(Pwl::default(), Pwl::zero());
    }

    #[test]
    fn affine_evaluation() {
        let f = Pwl::affine(2.0, 3.0).unwrap();
        assert!(approx_eq(f.value(0.0), 2.0));
        assert!(approx_eq(f.value(2.0), 8.0));
    }

    #[test]
    fn constant_rejects_negative() {
        assert!(Pwl::constant(-1.0).is_err());
        assert!(Pwl::constant(f64::NAN).is_err());
    }

    #[test]
    fn from_breakpoints_rejects_nonzero_start() {
        assert!(Pwl::from_breakpoints(vec![(1.0, 0.0, 1.0)]).is_err());
    }

    #[test]
    fn from_breakpoints_rejects_unsorted() {
        assert!(
            Pwl::from_breakpoints(vec![(0.0, 0.0, 1.0), (2.0, 2.0, 1.0), (1.0, 1.0, 1.0)])
                .is_err()
        );
    }

    #[test]
    fn from_breakpoints_rejects_downward_jump() {
        assert!(Pwl::from_breakpoints(vec![(0.0, 5.0, 0.0), (1.0, 2.0, 0.0)]).is_err());
    }

    #[test]
    fn from_breakpoints_allows_upward_jump() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.0, 4.0, 1.0)]).unwrap();
        assert!(approx_eq(f.value(0.5), 0.0));
        assert!(approx_eq(f.value(1.0), 4.0)); // right-continuous
        assert!(approx_eq(f.value_left(1.0), 0.0));
        assert!(approx_eq(f.value(2.0), 5.0));
    }

    #[test]
    fn normalization_merges_collinear_segments() {
        let f =
            Pwl::from_breakpoints(vec![(0.0, 0.0, 2.0), (1.0, 2.0, 2.0), (2.0, 4.0, 2.0)])
                .unwrap();
        assert_eq!(f.segments().len(), 1);
        assert!(approx_eq(f.value(3.0), 6.0));
    }

    #[test]
    fn rate_latency_shape() {
        let b = rate_latency(10.0, 2.0);
        assert_eq!(b.value(1.0), 0.0);
        assert_eq!(b.value(2.0), 0.0);
        assert!(approx_eq(b.value(3.0), 10.0));
        assert!(approx_eq(b.ultimate_rate(), 10.0));
        assert!(approx_eq(b.tail_start(), 2.0));
    }

    #[test]
    fn min_of_crossing_lines_has_intersection_breakpoint() {
        let f = Pwl::affine(0.0, 2.0).unwrap(); // 2t
        let g = Pwl::affine(3.0, 1.0).unwrap(); // 3 + t
        let m = f.min(&g);
        // They cross at t = 3.
        assert!(approx_eq(m.value(1.0), 2.0));
        assert!(approx_eq(m.value(3.0), 6.0));
        assert!(approx_eq(m.value(5.0), 8.0)); // follows g after crossing
        assert!(approx_eq(m.ultimate_rate(), 1.0));
    }

    #[test]
    fn max_of_crossing_lines() {
        let f = Pwl::affine(0.0, 2.0).unwrap();
        let g = Pwl::affine(3.0, 1.0).unwrap();
        let m = f.max(&g);
        assert!(approx_eq(m.value(1.0), 4.0)); // g wins early
        assert!(approx_eq(m.value(5.0), 10.0)); // f wins late
        assert!(approx_eq(m.ultimate_rate(), 2.0));
    }

    #[test]
    fn min_respects_breakpoints_of_rate_latency_and_bucket() {
        let alpha = leaky_bucket(5.0, 1.0);
        let beta = rate_latency(4.0, 1.0);
        let m = alpha.min(&beta);
        // Before they cross, beta (=0) is below alpha.
        assert_eq!(m.value(0.5), 0.0);
        // Cross where 4(t−1) = 5 + t → t = 3.
        assert!(approx_eq(m.value(3.0), 8.0));
        assert!(approx_eq(m.value(10.0), 15.0)); // alpha afterwards
    }

    #[test]
    fn add_sums_values_and_rates() {
        let f = rate_latency(10.0, 2.0);
        let g = leaky_bucket(1.0, 3.0);
        let s = f.add(&g);
        assert!(approx_eq(s.value(0.0), 1.0));
        assert!(approx_eq(s.value(2.0), 7.0));
        assert!(approx_eq(s.value(4.0), 20.0 + 13.0));
        assert!(approx_eq(s.ultimate_rate(), 13.0));
    }

    #[test]
    fn add_preserves_jumps() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.0, 4.0, 0.0)]).unwrap();
        let g = Pwl::affine(0.0, 1.0).unwrap();
        let s = f.add(&g);
        assert!(approx_eq(s.value_left(1.0), 1.0));
        assert!(approx_eq(s.value(1.0), 5.0));
    }

    #[test]
    fn sub_clamped_monotone_clamps_and_monotonizes() {
        let f = rate_latency(2.0, 0.0); // 2t
        let g = leaky_bucket(4.0, 1.0); // 4 + t
        // f−g negative until t=4, then grows at rate 1.
        let d = f.sub_clamped_monotone(&g);
        assert_eq!(d.value(0.0), 0.0);
        assert_eq!(d.value(4.0), 0.0);
        assert!(approx_eq(d.value(6.0), 2.0));
        assert!(approx_eq(d.ultimate_rate(), 1.0));
    }

    #[test]
    fn scale_multiplies() {
        let f = leaky_bucket(2.0, 3.0);
        let s = f.scale(2.0).unwrap();
        assert!(approx_eq(s.value(1.0), 10.0));
        assert!(f.scale(-1.0).is_err());
    }

    #[test]
    fn shift_right_and_up() {
        let f = Pwl::affine(1.0, 1.0).unwrap();
        let s = f.shift(2.0, 3.0).unwrap();
        assert!(approx_eq(s.value(0.0), 4.0)); // flat head at f(0)+dy
        assert!(approx_eq(s.value(2.0), 4.0));
        assert!(approx_eq(s.value(5.0), 7.0)); // f(3)+3
    }

    #[test]
    fn shift_zero_is_identity() {
        let f = rate_latency(3.0, 1.0);
        let s = f.shift(0.0, 0.0).unwrap();
        assert_eq!(f, s);
    }

    #[test]
    fn inverse_of_rate_latency() {
        let b = rate_latency(10.0, 2.0);
        assert_eq!(b.inverse_at(0.0), Some(0.0));
        assert!(approx_eq(b.inverse_at(10.0).unwrap(), 3.0));
        assert!(approx_eq(b.inverse_at(25.0).unwrap(), 4.5));
    }

    #[test]
    fn inverse_of_bounded_curve_is_none_above_bound() {
        let f = Pwl::constant(5.0).unwrap();
        assert_eq!(f.inverse_at(6.0), None);
        assert_eq!(f.inverse_at(5.0), Some(0.0));
    }

    #[test]
    fn inverse_lands_on_jump() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (2.0, 10.0, 0.0)]).unwrap();
        // Values in (0, 10] are first reached at t = 2.
        assert!(approx_eq(f.inverse_at(5.0).unwrap(), 2.0));
        assert!(approx_eq(f.inverse_at(10.0).unwrap(), 2.0));
        assert_eq!(f.inverse_at(11.0), None);
    }

    #[test]
    fn dominated_by_detects_order() {
        let low = rate_latency(10.0, 2.0);
        let high = leaky_bucket(1.0, 10.0);
        assert!(low.dominated_by(&high));
        assert!(!high.dominated_by(&low));
    }

    #[test]
    fn value_left_at_zero_is_value_at_zero() {
        let f = leaky_bucket(4.0, 1.0);
        assert!(approx_eq(f.value_left(0.0), 4.0));
    }

    #[test]
    fn near_duplicate_breakpoints_do_not_creep_from_origin() {
        // Regression: a chain of points spaced below the tolerance used to
        // shift the merged anchor away from x = 0 and fail validation.
        let points: Vec<(f64, f64, f64)> = (0..=16)
            .map(|i| (i as f64 * 5e-11, i as f64, 0.0))
            .collect();
        let p = Pwl::from_breakpoints(points).expect("merges into one origin point");
        assert!(approx_eq(p.segments()[0].x, 0.0));
        assert!(approx_eq(p.value(0.0), 16.0)); // later value wins
    }

    #[test]
    fn min_is_commutative_on_samples() {
        let f = rate_latency(7.0, 1.5);
        let g = leaky_bucket(3.0, 2.0);
        let m1 = f.min(&g);
        let m2 = g.min(&f);
        for i in 0..100 {
            let t = i as f64 * 0.1;
            assert!(
                approx_eq(m1.value(t), m2.value(t)),
                "mismatch at t={t}: {} vs {}",
                m1.value(t),
                m2.value(t)
            );
        }
    }
}
