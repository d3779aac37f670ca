//! Lazy, composable curve algebra: operators as segment-streaming iterators.
//!
//! The pointwise operators of [`crate::pwl`] materialize a full [`Pwl`] per
//! operation, so an N-stage composition pays O(K) memory and allocation at
//! every node. This module provides the same operators as *iterator
//! adapters* that stream [`Segment`]s in x-order: a chain such as
//! `f.lazy().lazy_min(g.lazy()).lazy_add(h.lazy()).collect_pwl()` keeps only
//! O(active segments) of state per stage and allocates once, at the terminal
//! [`CurveIter::collect_pwl`]. The min-plus operators ([`crate::minplus`])
//! are built only here, as [`LazyCurve`] compositions of branch streams;
//! their materializing names collect the stream.
//!
//! # Bitwise contract
//!
//! Every pointwise adapter replicates the floating-point operations of its
//! [`Pwl`] counterpart *exactly* — the same merged-breakpoint dedup chains,
//! the same crossing formulas, the same `value`/`value_left` lookup
//! tolerances, and the same dedup/validate/normalize pipeline that
//! [`Pwl`]'s internal constructor runs. Consequently a lazy chain's
//! `collect_pwl()` is bit-identical (`f64::to_bits`) to the materialized
//! result; the proptests in `tests/proptest_lazy.rs` pin this for random
//! curve pairs and deep random chains, and pin the min-plus operators
//! against an exact pointwise oracle.
//!
//! Inputs must be *normalized* segment streams — exactly what
//! [`Pwl::lazy`] and every adapter in this module emit. Feeding an arbitrary
//! hand-rolled segment iterator is allowed but the stream must satisfy the
//! [`Pwl`] invariants (first x ≈ 0, strictly increasing x, no downward
//! jumps, collinear junctions merged); debug builds verify this at
//! collection time.

use crate::num::{approx_eq, EPSILON};
use crate::pwl::{Pwl, Segment};
use crate::CurveError;

/// Composable lazy curve operators over segment streams.
///
/// Blanket-implemented for every `Iterator<Item = Segment>`, so adapters
/// compose like ordinary iterator chains. See the [module docs](self) for
/// the normalization requirement on inputs.
pub trait CurveIter: Iterator<Item = Segment> + Sized {
    /// Lazy pointwise minimum (lower envelope); mirrors [`Pwl::min`].
    fn lazy_min<G: CurveIter>(self, g: G) -> Merge<Self, G> {
        Merge::new(self, g, MergeOp::Lower)
    }

    /// Lazy pointwise maximum (upper envelope); mirrors [`Pwl::max`].
    fn lazy_max<G: CurveIter>(self, g: G) -> Merge<Self, G> {
        Merge::new(self, g, MergeOp::Upper)
    }

    /// Lazy pointwise sum; mirrors [`Pwl::add`].
    fn lazy_add<G: CurveIter>(self, g: G) -> Merge<Self, G> {
        Merge::new(self, g, MergeOp::Sum)
    }

    /// Lazy vertical scaling `c·f`; mirrors [`Pwl::scale`].
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `c` is negative or NaN.
    fn scale_by(self, c: f64) -> Result<Scaled<Self>, CurveError> {
        Scaled::new(self, c)
    }

    /// Lazy shift right by `dx` and up by `dy`; mirrors [`Pwl::shift`].
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::NegativeParameter`] if `dx` or `dy` is negative
    /// or NaN.
    fn shift_by(self, dx: f64, dy: f64) -> Result<Shifted<Self>, CurveError> {
        Shifted::new(self, dx, dy)
    }

    /// Terminal: collect the stream into a [`Pwl`].
    ///
    /// The stream is trusted to be normalized (all adapters in this module
    /// guarantee it); debug builds re-check the invariants.
    fn collect_pwl(self) -> Pwl {
        Pwl::from_normalized(self.collect())
    }

    /// Terminal: collect into a reusable buffer (no allocation once `buf`
    /// has grown to the working size). Used by fixpoint loops such as the
    /// lazy sub-additive closure to ping-pong between two buffers.
    fn collect_segments_into(self, buf: &mut Vec<Segment>) {
        buf.clear();
        buf.extend(self);
    }

    /// Terminal: collect into a [`Pwl`] reusing a recycled buffer (e.g.
    /// from [`Pwl::into_segments`]) — no allocation once the buffer has
    /// grown to the working size. The buffer is cleared first.
    fn collect_pwl_reusing(self, mut buf: Vec<Segment>) -> Pwl {
        self.collect_segments_into(&mut buf);
        Pwl::from_normalized(buf)
    }
}

impl<T: Iterator<Item = Segment>> CurveIter for T {}

impl Pwl {
    /// A lazy view of this curve as a normalized segment stream — the
    /// entry point into the [`CurveIter`] adapter algebra.
    pub fn lazy(&self) -> SegmentSource<'_> {
        SegmentSource {
            segs: self.segments(),
            i: 0,
        }
    }
}

/// Lazy segment stream over a materialized [`Pwl`] (see [`Pwl::lazy`]).
#[derive(Debug, Clone)]
pub struct SegmentSource<'a> {
    segs: &'a [Segment],
    i: usize,
}

impl Iterator for SegmentSource<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        let s = self.segs.get(self.i)?;
        self.i += 1;
        Some(*s)
    }
}

// ---------------------------------------------------------------------------
// Buffered evaluation cursor
// ---------------------------------------------------------------------------

/// Inline capacity of the streaming window buffer. Merges only ever need the
/// current breakpoint window plus one segment of lookback/lookahead, so this
/// is generous; pathological ε-spaced breakpoint chains spill to the heap.
const INLINE: usize = 12;

/// A small window of consecutive segments addressed by *absolute* index
/// (the index the segment had in the full stream), with O(1) inline storage
/// and a rarely-used heap spill.
struct SegBuf {
    inline: [Segment; INLINE],
    len: usize,
    spill: Vec<Segment>,
    first_abs: usize,
}

impl SegBuf {
    fn new() -> Self {
        Self {
            inline: [Segment::new(0.0, 0.0, 0.0); INLINE],
            len: 0,
            spill: Vec::new(),
            first_abs: 0,
        }
    }

    /// One past the absolute index of the last buffered segment.
    fn end_abs(&self) -> usize {
        self.first_abs + self.len + self.spill.len()
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    fn get(&self, abs: usize) -> Segment {
        debug_assert!(abs >= self.first_abs && abs < self.end_abs());
        let i = abs - self.first_abs;
        if i < self.len {
            self.inline[i]
        } else {
            self.spill[i - self.len]
        }
    }

    fn push(&mut self, s: Segment) {
        if self.len < INLINE && self.spill.is_empty() {
            self.inline[self.len] = s;
            self.len += 1;
        } else {
            self.spill.push(s);
        }
    }

    /// Drops all segments with absolute index below `abs_keep`.
    fn evict_to(&mut self, abs_keep: usize) {
        if abs_keep <= self.first_abs {
            return;
        }
        let total = self.len + self.spill.len();
        let k = (abs_keep - self.first_abs).min(total);
        if k >= self.len {
            self.spill.drain(..k - self.len);
            self.len = 0;
        } else {
            self.inline.copy_within(k..self.len, 0);
            self.len -= k;
        }
        while self.len < INLINE && !self.spill.is_empty() {
            self.inline[self.len] = self.spill.remove(0);
            self.len += 1;
        }
        self.first_abs += k;
    }
}

/// A streaming mirror of [`Pwl::value`] / [`Pwl::value_left`]: answers the
/// same lookups the eager operators make against a materialized curve, but
/// against a segment stream, buffering only the active window.
///
/// Queries must be non-decreasing in the query point up to the lookback the
/// caller's [`Eval::release`] discipline retains — exactly the access
/// pattern of the envelope/sum sweeps.
struct Eval<I> {
    src: I,
    buf: SegBuf,
    exhausted: bool,
    /// Absolute index of the next breakpoint to hand to the merge driver.
    bp_pos: usize,
}

impl<I: Iterator<Item = Segment>> Eval<I> {
    fn new(src: I) -> Self {
        Self {
            src,
            buf: SegBuf::new(),
            exhausted: false,
            bp_pos: 0,
        }
    }

    fn pull(&mut self) {
        match self.src.next() {
            Some(s) => {
                debug_assert!(
                    self.buf.is_empty() || s.x > self.buf.get(self.buf.end_abs() - 1).x,
                    "input stream must have strictly increasing x"
                );
                self.buf.push(s);
            }
            None => self.exhausted = true,
        }
    }

    fn ensure_abs(&mut self, abs: usize) {
        while !self.exhausted && self.buf.end_abs() <= abs {
            self.pull();
        }
    }

    /// The x of the next unconsumed breakpoint, if any.
    fn peek_bp(&mut self) -> Option<f64> {
        self.ensure_abs(self.bp_pos);
        if self.bp_pos < self.buf.end_abs() {
            Some(self.buf.get(self.bp_pos).x)
        } else {
            None
        }
    }

    fn advance_bp(&mut self) {
        self.bp_pos += 1;
    }

    /// Mirror of `Pwl::value` (same tolerance, same clamping).
    fn value(&mut self, t: f64) -> f64 {
        self.ensure_abs(0);
        debug_assert!(!self.buf.is_empty(), "curve streams are non-empty");
        if self.buf.first_abs == 0 {
            let first = self.buf.get(0);
            if t <= first.x {
                return first.value_at(t.max(first.x));
            }
        }
        let tol = t + EPSILON * (1.0 + t.abs());
        loop {
            if self.buf.get(self.buf.end_abs() - 1).x > tol || self.exhausted {
                break;
            }
            self.pull();
        }
        let mut j = self.buf.end_abs() - 1;
        while self.buf.get(j).x > tol {
            debug_assert!(j > self.buf.first_abs, "active segment was evicted");
            j -= 1;
        }
        let seg = self.buf.get(j);
        seg.value_at(t.max(seg.x))
    }

    /// Mirror of `Pwl::value_left` (same breakpoint tie handling).
    fn value_left(&mut self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.value(0.0);
        }
        self.ensure_abs(0);
        loop {
            if self.buf.get(self.buf.end_abs() - 1).x >= t || self.exhausted {
                break;
            }
            self.pull();
        }
        let mut j = self.buf.end_abs() - 1;
        while j > self.buf.first_abs && self.buf.get(j).x >= t {
            j -= 1;
        }
        let idx = if self.buf.get(j).x < t {
            j
        } else {
            debug_assert_eq!(self.buf.first_abs, 0, "lookback past the eviction point");
            0
        };
        let seg = if idx > 0 && approx_eq(self.buf.get(idx).x, t) {
            debug_assert!(idx > self.buf.first_abs, "lookback segment was evicted");
            self.buf.get(idx - 1)
        } else {
            // idx == 0 with x ≈ t also resolves to segs[0] in the eager code.
            self.buf.get(idx)
        };
        seg.value_at(t)
    }

    /// Declares that no future query point lies below `a`; evicts everything
    /// except two segments of lookback before `a`.
    fn release(&mut self, a: f64) {
        if self.buf.is_empty() {
            return;
        }
        let mut j = self.buf.end_abs() - 1;
        while j > self.buf.first_abs && self.buf.get(j).x >= a {
            j -= 1;
        }
        if self.buf.get(j).x < a && j > 0 {
            self.buf.evict_to(j - 1);
        }
    }

    /// Slope of the final segment; callable once the stream is exhausted.
    fn ultimate_rate(&self) -> f64 {
        debug_assert!(self.exhausted, "ultimate rate needs the full stream");
        self.buf.get(self.buf.end_abs() - 1).slope
    }
}

// ---------------------------------------------------------------------------
// Normalization stage (streaming mirror of `Pwl::from_segments`)
// ---------------------------------------------------------------------------

/// Streaming mirror of the `Pwl::from_segments` pipeline: coinciding-start
/// dedup, invariant validation, and collinear-junction normalization, all
/// with O(1) state. Every public adapter runs its raw output through this,
/// so adapter output streams are exactly the segment lists the eager
/// operator would store.
struct Norm<I> {
    src: I,
    /// Dedup stage: last segment not yet confirmed distinct-x.
    pending: Option<Segment>,
    /// Validation stage: last segment that cleared dedup.
    last_deduped: Option<Segment>,
    /// Normalize stage: last segment actually emitted.
    last_emitted: Option<Segment>,
    done: bool,
}

impl<I> Norm<I> {
    fn new(src: I) -> Self {
        Self {
            src,
            pending: None,
            last_deduped: None,
            last_emitted: None,
            done: false,
        }
    }

    /// Validation + normalization for a segment that cleared the dedup
    /// stage. Returns `None` if the normalize stage drops it.
    fn finalize(&mut self, s: Segment) -> Option<Segment> {
        match self.last_deduped {
            None => assert!(
                approx_eq(s.x, 0.0),
                "lazy curve stream must start at x ≈ 0 (got {})",
                s.x
            ),
            Some(prev) => {
                assert!(
                    s.x > prev.x + EPSILON,
                    "lazy curve stream has non-increasing x at {}",
                    s.x
                );
                let reach = prev.value_at(s.x);
                assert!(
                    s.y >= reach - EPSILON * (1.0 + reach.abs()),
                    "lazy curve stream jumps downward at x = {}",
                    s.x
                );
            }
        }
        self.last_deduped = Some(s);
        if let Some(last) = self.last_emitted {
            let continuous = approx_eq(last.value_at(s.x), s.y);
            if continuous && approx_eq(last.slope, s.slope) {
                return None; // collinear continuation — drop the breakpoint
            }
        }
        self.last_emitted = Some(s);
        Some(s)
    }
}

impl<I: Iterator<Item = Segment>> Iterator for Norm<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        loop {
            if self.done {
                return None;
            }
            match self.src.next() {
                Some(s) => match &mut self.pending {
                    Some(p) if approx_eq(s.x, p.x) => {
                        // Coinciding start: the later segment's value wins,
                        // the earlier anchor x is kept.
                        p.y = s.y;
                        p.slope = s.slope;
                    }
                    Some(p) => {
                        let out = *p;
                        self.pending = Some(s);
                        if let Some(e) = self.finalize(out) {
                            return Some(e);
                        }
                    }
                    None => self.pending = Some(s),
                },
                None => {
                    self.done = true;
                    if let Some(p) = self.pending.take() {
                        if let Some(e) = self.finalize(p) {
                            return Some(e);
                        }
                    }
                    return None;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pointwise merge (min / max / add)
// ---------------------------------------------------------------------------

/// Which pointwise merge an [`Merge`] adapter computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeOp {
    /// Lower envelope (pointwise min).
    Lower,
    /// Upper envelope (pointwise max).
    Upper,
    /// Pointwise sum.
    Sum,
}

/// Streaming two-way merge core: produces the *raw* evaluated segments of
/// the eager `envelope` / `Pwl::add` sweeps (before `from_segments`), one
/// breakpoint window at a time.
struct MergeCore<F, G> {
    f: Eval<F>,
    g: Eval<G>,
    op: MergeOp,
    /// Start of the current breakpoint window (last retained merged bp).
    window_a: Option<f64>,
    /// Last candidate that survived the second dedup.
    last_cand: Option<f64>,
    /// Evaluated candidate awaiting its successor (for the slope).
    pending: Option<(f64, f64)>,
    /// Candidates of the current window awaiting evaluation.
    queue: [f64; 2],
    q_len: u8,
    q_pos: u8,
    tail_done: bool,
    finished: bool,
}

impl<F, G> MergeCore<F, G>
where
    F: Iterator<Item = Segment>,
    G: Iterator<Item = Segment>,
{
    fn new(f: F, g: G, op: MergeOp) -> Self {
        Self {
            f: Eval::new(f),
            g: Eval::new(g),
            op,
            window_a: None,
            last_cand: None,
            pending: None,
            queue: [0.0; 2],
            q_len: 0,
            q_pos: 0,
            tail_done: false,
            finished: false,
        }
    }

    fn pick(&self, fa: f64, ga: f64) -> f64 {
        match self.op {
            MergeOp::Lower => fa.min(ga),
            MergeOp::Upper => fa.max(ga),
            MergeOp::Sum => fa + ga,
        }
    }

    fn tail_slope(&self) -> f64 {
        let (fr, gr) = (self.f.ultimate_rate(), self.g.ultimate_rate());
        match self.op {
            MergeOp::Lower => fr.min(gr),
            MergeOp::Upper => fr.max(gr),
            // The eager `add` applies `.max(0.0)` to every slope including
            // the tail; replicate for bit-identity.
            MergeOp::Sum => (fr + gr).max(0.0),
        }
    }

    /// Next merged breakpoint after the first dedup (mirror of
    /// `merged_breakpoints`): smaller head first (`total_cmp`, ties take
    /// `f`'s), approx-equal chains collapse onto the first retained value.
    fn merge_next_bp(&mut self) -> Option<f64> {
        loop {
            let x = match (self.f.peek_bp(), self.g.peek_bp()) {
                (None, None) => return None,
                (Some(a), None) => {
                    self.f.advance_bp();
                    a
                }
                (None, Some(b)) => {
                    self.g.advance_bp();
                    b
                }
                (Some(a), Some(b)) => {
                    if a.total_cmp(&b) != std::cmp::Ordering::Greater {
                        self.f.advance_bp();
                        a
                    } else {
                        self.g.advance_bp();
                        b
                    }
                }
            };
            // First dedup (mirror of `merged_breakpoints`): chained against
            // the last *retained* breakpoint, which the driver stores as
            // `window_a`.
            if self.window_a.is_some_and(|p| approx_eq(x, p)) {
                continue;
            }
            return Some(x);
        }
    }

    fn push_cand(&mut self, c: f64) {
        self.queue[self.q_len as usize] = c;
        self.q_len += 1;
    }

    fn next_raw(&mut self) -> Option<Segment> {
        loop {
            // Drain the candidate queue first.
            while self.q_pos < self.q_len {
                let c = self.queue[self.q_pos as usize];
                self.q_pos += 1;
                // Second dedup (mirror of the post-crossing `dedup_by`).
                if self.last_cand.is_some_and(|p| approx_eq(c, p)) {
                    continue;
                }
                let mut out = None;
                if let Some((px, py)) = self.pending {
                    let ny = self.pick_left(c);
                    let slope = ((ny - py) / (c - px)).max(0.0);
                    out = Some(Segment::new(px, py, slope));
                }
                let y = self.pick_value(c);
                self.pending = Some((c, y));
                self.last_cand = Some(c);
                if let Some(s) = out {
                    return Some(s);
                }
            }
            if self.finished {
                return None;
            }
            // Refill: advance to the next breakpoint window.
            self.q_len = 0;
            self.q_pos = 0;
            match self.merge_next_bp() {
                Some(b) => {
                    if let Some(a) = self.window_a {
                        if self.op != MergeOp::Sum {
                            self.push_window_crossing(a, b);
                        }
                        self.push_cand(b);
                        self.f.release(a);
                        self.g.release(a);
                    } else {
                        self.push_cand(b);
                    }
                    self.window_a = Some(b);
                }
                None => {
                    if !self.tail_done {
                        self.tail_done = true;
                        if self.op != MergeOp::Sum {
                            self.push_tail_crossing();
                        }
                        continue;
                    }
                    self.finished = true;
                    if let Some((px, py)) = self.pending.take() {
                        return Some(Segment::new(px, py, self.tail_slope()));
                    }
                    return None;
                }
            }
        }
    }

    fn pick_value(&mut self, x: f64) -> f64 {
        let fv = self.f.value(x);
        let gv = self.g.value(x);
        self.pick(fv, gv)
    }

    fn pick_left(&mut self, x: f64) -> f64 {
        let fv = self.f.value_left(x);
        let gv = self.g.value_left(x);
        self.pick(fv, gv)
    }

    /// Mirror of `push_crossing`: sign change of `f − g` on `(a, b)`.
    fn push_window_crossing(&mut self, a: f64, b: f64) {
        let da = self.f.value(a) - self.g.value(a);
        let db = self.f.value_left(b) - self.g.value_left(b);
        if (da > 0.0) != (db > 0.0) && (db - da).abs() > EPSILON {
            let t = a + (b - a) * (0.0 - da) / (db - da);
            if t > a + EPSILON && t < b - EPSILON {
                self.push_cand(t);
            }
        }
    }

    /// Mirror of the eager envelope's affine-tail crossing.
    fn push_tail_crossing(&mut self) {
        let last = self.window_a.expect("curve streams are non-empty");
        let fv = self.f.value(last);
        let gv = self.g.value(last);
        let (fr, gr) = (self.f.ultimate_rate(), self.g.ultimate_rate());
        if (fr - gr).abs() > EPSILON {
            let t = last + (gv - fv) / (fr - gr);
            if t > last + EPSILON {
                self.push_cand(t);
            }
        }
    }
}

impl<F, G> Iterator for MergeCore<F, G>
where
    F: Iterator<Item = Segment>,
    G: Iterator<Item = Segment>,
{
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.next_raw()
    }
}

/// Lazy pointwise merge adapter returned by [`CurveIter::lazy_min`],
/// [`CurveIter::lazy_max`] and [`CurveIter::lazy_add`]. Streams the exact
/// segments of the corresponding eager operator.
pub struct Merge<F, G> {
    inner: Norm<MergeCore<F, G>>,
}

impl<F, G> Merge<F, G>
where
    F: Iterator<Item = Segment>,
    G: Iterator<Item = Segment>,
{
    pub(crate) fn new(f: F, g: G, op: MergeOp) -> Self {
        Self {
            inner: Norm::new(MergeCore::new(f, g, op)),
        }
    }
}

impl<F, G> Iterator for Merge<F, G>
where
    F: Iterator<Item = Segment>,
    G: Iterator<Item = Segment>,
{
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.inner.next()
    }
}

// ---------------------------------------------------------------------------
// Scale / shift adapters
// ---------------------------------------------------------------------------

struct ScaleRaw<I> {
    src: I,
    c: f64,
}

impl<I: Iterator<Item = Segment>> Iterator for ScaleRaw<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.src
            .next()
            .map(|s| Segment::new(s.x, s.y * self.c, s.slope * self.c))
    }
}

/// Lazy vertical scaling adapter (see [`CurveIter::scale_by`]).
pub struct Scaled<I> {
    inner: Norm<ScaleRaw<I>>,
}

impl<I: Iterator<Item = Segment>> Scaled<I> {
    fn new(src: I, c: f64) -> Result<Self, CurveError> {
        let c = crate::num::require_non_negative("c", c)?;
        Ok(Self {
            inner: Norm::new(ScaleRaw { src, c }),
        })
    }
}

impl<I: Iterator<Item = Segment>> Iterator for Scaled<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.inner.next()
    }
}

enum ShiftState {
    Start,
    Stashed(Segment),
    Running,
}

struct ShiftRaw<I> {
    src: I,
    dx: f64,
    dy: f64,
    state: ShiftState,
}

impl<I: Iterator<Item = Segment>> Iterator for ShiftRaw<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        match self.state {
            ShiftState::Start => {
                let s0 = self.src.next()?;
                if self.dx > EPSILON {
                    // Flat head at the shifted initial value; the mapped
                    // first segment follows.
                    self.state = ShiftState::Stashed(Segment::new(
                        s0.x + self.dx,
                        s0.y + self.dy,
                        s0.slope,
                    ));
                    Some(Segment::new(0.0, s0.y + self.dy, 0.0))
                } else {
                    // Pure vertical shift: first x is forced back to 0.
                    self.state = ShiftState::Running;
                    Some(Segment::new(0.0, s0.y + self.dy, s0.slope))
                }
            }
            ShiftState::Stashed(s) => {
                self.state = ShiftState::Running;
                Some(s)
            }
            ShiftState::Running => self
                .src
                .next()
                .map(|s| Segment::new(s.x + self.dx, s.y + self.dy, s.slope)),
        }
    }
}

/// Lazy shift adapter (see [`CurveIter::shift_by`]).
pub struct Shifted<I> {
    inner: Norm<ShiftRaw<I>>,
}

impl<I: Iterator<Item = Segment>> Shifted<I> {
    fn new(src: I, dx: f64, dy: f64) -> Result<Self, CurveError> {
        let dx = crate::num::require_non_negative("dx", dx)?;
        let dy = crate::num::require_non_negative("dy", dy)?;
        Ok(Self {
            inner: Norm::new(ShiftRaw {
                src,
                dx,
                dy,
                state: ShiftState::Start,
            }),
        })
    }
}

impl<I: Iterator<Item = Segment>> Iterator for Shifted<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.inner.next()
    }
}

// ---------------------------------------------------------------------------
// Dynamic composition node (branch envelopes of ⊗ / ⊘)
// ---------------------------------------------------------------------------

/// Raw stream of the deconvolution branch `t ↦ f(t + b) − c`: the piece of
/// `f` containing `b` re-anchored at the origin, then `f`'s later pieces
/// shifted left by `b` and down by `c` (values may be negative; the
/// envelope is clamped by the caller).
struct ShiftLeftRaw<'a> {
    segs: &'a [Segment],
    b: f64,
    c: f64,
    i: usize,
    anchored: bool,
}

impl Iterator for ShiftLeftRaw<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if !self.anchored {
            self.anchored = true;
            // The last piece starting at or before b is re-anchored at 0.
            let mut k = 0;
            while k + 1 < self.segs.len() && self.segs[k + 1].x <= self.b + EPSILON {
                k += 1;
            }
            self.i = k + 1;
            let s = self.segs[k];
            return Some(Segment::new(0.0, s.value_at(self.b) - self.c, s.slope));
        }
        let s = self.segs.get(self.i)?;
        self.i += 1;
        Some(Segment::new(s.x - self.b, s.y - self.c, s.slope))
    }
}

/// Raw stream of the deconvolution branch `t ↦ fa − g(a − t)` (for
/// `t ≤ a`; constant `fa − g(0)` beyond), using left limits of `g` so jumps
/// of `g` help the supremum.
struct ReflectedRaw<'a> {
    fa: f64,
    g: &'a Pwl,
    a: f64,
    /// Reverse position into g's segments (next kink candidate).
    rev: usize,
    emitted_zero: bool,
    /// Current kink `t` awaiting its successor (for the slope).
    cur: Option<f64>,
    done: bool,
}

impl ReflectedRaw<'_> {
    /// Next kink `t` of the branch, ascending, after the keep-first dedup:
    /// `0.0` first, then `a − b` for g's breakpoints `b` in descending
    /// order (clipped to `t > EPSILON`).
    fn next_t(&mut self) -> Option<f64> {
        loop {
            let t = if !self.emitted_zero {
                self.emitted_zero = true;
                0.0
            } else if self.rev > 0 {
                self.rev -= 1;
                let t = self.a - self.g.segments()[self.rev].x;
                if t <= EPSILON {
                    continue; // t ≤ 0: outside the domain, or the kink at 0 already emitted
                }
                t
            } else {
                return None;
            };
            if self.cur.is_some_and(|p| approx_eq(t, p)) {
                continue; // dedup keep-first
            }
            return Some(t);
        }
    }
}

impl Iterator for ReflectedRaw<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.done {
            return None;
        }
        if self.cur.is_none() {
            self.cur = self.next_t();
        }
        let t = self.cur?;
        let next = self.next_t();
        let x = self.a - t;
        let start = self.fa
            - if x > EPSILON {
                self.g.value_left(x)
            } else {
                self.g.value(0.0)
            };
        let slope = match next {
            Some(nt) => {
                let end = self.fa - self.g.value(self.a - nt);
                ((end - start) / (nt - t)).max(0.0)
            }
            None => {
                self.done = true;
                0.0
            }
        };
        self.cur = next;
        Some(Segment::new(t, start, slope))
    }
}

/// One node of a dynamically shaped lazy composition — the branch
/// envelopes of `minplus::convolve` and `minplus::deconvolve`, whose fold
/// shapes are only known at runtime.
enum LazyNode<'a> {
    /// A materialized curve's segment stream.
    Source(SegmentSource<'a>),
    /// Mirror of `Pwl::shift` applied to a materialized curve.
    Shift(Shifted<SegmentSource<'a>>),
    /// `t ↦ f(t + b) − c` (see [`ShiftLeftRaw`]).
    ShiftLeft(Norm<ShiftLeftRaw<'a>>),
    /// `t ↦ fa − g(a − t)` (see [`ReflectedRaw`]).
    Reflected(Norm<ReflectedRaw<'a>>),
    /// The zero curve (deconvolution's final clamp operand).
    Zero(bool),
    /// A pointwise merge of two sub-compositions.
    Merge(Box<Merge<LazyNode<'a>, LazyNode<'a>>>),
}

impl Iterator for LazyNode<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        match self {
            LazyNode::Source(s) => s.next(),
            LazyNode::Shift(s) => s.next(),
            LazyNode::ShiftLeft(s) => s.next(),
            LazyNode::Reflected(s) => s.next(),
            LazyNode::Zero(done) => {
                if *done {
                    None
                } else {
                    *done = true;
                    Some(Segment::new(0.0, 0.0, 0.0))
                }
            }
            LazyNode::Merge(m) => m.next(),
        }
    }
}

/// A lazily composed curve: the streaming result of a min-plus operator
/// chain (see [`crate::minplus::convolve_lazy`] and
/// [`crate::minplus::deconvolve_lazy`]).
///
/// Implements `Iterator<Item = Segment>`, so it plugs into any further
/// [`CurveIter`] adapter or a terminal [`CurveIter::collect_pwl`].
pub struct LazyCurve<'a>(LazyNode<'a>);

impl Iterator for LazyCurve<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.0.next()
    }
}

impl<'a> LazyCurve<'a> {
    pub(crate) fn source(p: &'a Pwl) -> Self {
        LazyCurve(LazyNode::Source(p.lazy()))
    }

    pub(crate) fn shift(p: &'a Pwl, dx: f64, dy: f64) -> Self {
        LazyCurve(LazyNode::Shift(
            p.lazy()
                .shift_by(dx, dy)
                .expect("shift by non-negative offsets"),
        ))
    }

    pub(crate) fn shift_left_minus(p: &'a Pwl, b: f64, c: f64) -> Self {
        LazyCurve(LazyNode::ShiftLeft(Norm::new(ShiftLeftRaw {
            segs: p.segments(),
            b,
            c,
            i: 0,
            anchored: false,
        })))
    }

    pub(crate) fn reflected(fa: f64, g: &'a Pwl, a: f64) -> Self {
        LazyCurve(LazyNode::Reflected(Norm::new(ReflectedRaw {
            fa,
            g,
            a,
            rev: g.segments().len(),
            emitted_zero: false,
            cur: None,
            done: false,
        })))
    }

    pub(crate) fn zero() -> Self {
        LazyCurve(LazyNode::Zero(false))
    }

    pub(crate) fn merge(f: Self, g: Self, op: MergeOp) -> Self {
        LazyCurve(LazyNode::Merge(Box::new(Merge::new(f.0, g.0, op))))
    }

    /// Merges `items` with a **fixed pairwise tree**: adjacent pairs are
    /// merged round after round until one stream remains (`None` for no
    /// items). Each branch takes part in O(log n) merges of comparably-sized
    /// envelopes instead of n merges against an ever-growing accumulator.
    /// The shape depends only on `items.len()`; it must not change, because
    /// merges are not associative in floating point and the resulting
    /// curves are pinned bit for bit.
    pub(crate) fn tree_merge(mut items: Vec<Self>, op: MergeOp) -> Option<Self> {
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            let mut it = items.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(Self::merge(a, b, op)),
                    None => next.push(a),
                }
            }
            items = next;
        }
        items.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_latency(rate: f64, latency: f64) -> Pwl {
        Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (latency, 0.0, rate)]).unwrap()
    }

    fn assert_bitwise(a: &Pwl, b: &Pwl) {
        assert_eq!(a.segments().len(), b.segments().len(), "{a:?} vs {b:?}");
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert_eq!(x.x.to_bits(), y.x.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(x.y.to_bits(), y.y.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(x.slope.to_bits(), y.slope.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn lazy_min_matches_eager_bitwise() {
        let f = Pwl::affine(0.0, 2.0).unwrap();
        let g = Pwl::affine(3.0, 1.0).unwrap();
        assert_bitwise(&f.lazy().lazy_min(g.lazy()).collect_pwl(), &f.min(&g));
        assert_bitwise(&f.lazy().lazy_max(g.lazy()).collect_pwl(), &f.max(&g));
        assert_bitwise(&f.lazy().lazy_add(g.lazy()).collect_pwl(), &f.add(&g));
    }

    #[test]
    fn lazy_min_with_staircase_and_jumps() {
        let f = Pwl::from_breakpoints(vec![
            (0.0, 1.0, 0.0),
            (1.0, 2.0, 0.5),
            (3.0, 5.0, 2.0),
        ])
        .unwrap();
        let g = rate_latency(4.0, 1.0);
        assert_bitwise(&f.lazy().lazy_min(g.lazy()).collect_pwl(), &f.min(&g));
        assert_bitwise(&f.lazy().lazy_max(g.lazy()).collect_pwl(), &f.max(&g));
        assert_bitwise(&g.lazy().lazy_min(f.lazy()).collect_pwl(), &g.min(&f));
        assert_bitwise(&f.lazy().lazy_add(g.lazy()).collect_pwl(), &f.add(&g));
    }

    #[test]
    fn lazy_scale_shift_match_eager_bitwise() {
        let f = Pwl::from_breakpoints(vec![(0.0, 1.0, 1.5), (2.0, 4.0, 0.25)]).unwrap();
        assert_bitwise(
            &f.lazy().scale_by(2.5).unwrap().collect_pwl(),
            &f.scale(2.5).unwrap(),
        );
        assert_bitwise(
            &f.lazy().shift_by(1.25, 0.5).unwrap().collect_pwl(),
            &f.shift(1.25, 0.5).unwrap(),
        );
        assert_bitwise(
            &f.lazy().shift_by(0.0, 2.0).unwrap().collect_pwl(),
            &f.shift(0.0, 2.0).unwrap(),
        );
        assert!(f.lazy().scale_by(-1.0).is_err());
        assert!(f.lazy().shift_by(-1.0, 0.0).is_err());
    }

    #[test]
    fn recycled_buffer_fold_matches_eager_convolution_fold() {
        // A tandem of rate-latency servers folded by ⊗, ping-ponging two
        // segment buffers through `collect_pwl_reusing`/`into_segments`.
        let betas: Vec<Pwl> = (1..=8)
            .map(|i| rate_latency(10.0 + f64::from(i), 0.25 * f64::from(i)))
            .collect();
        let mut acc = betas[0].clone();
        let mut buf: Vec<Segment> = Vec::new();
        for beta in &betas[1..] {
            let next = crate::minplus::convolve_lazy(&acc, beta)
                .collect_pwl_reusing(std::mem::take(&mut buf));
            buf = std::mem::replace(&mut acc, next).into_segments();
        }
        let mut eager = betas[0].clone();
        for beta in &betas[1..] {
            eager = crate::minplus::convolve(&eager, beta);
        }
        assert_bitwise(&acc, &eager);
        // Rate-latency servers compose to sum-of-latencies, min-of-rates.
        assert!((acc.ultimate_rate() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn deep_pointwise_chain_matches_eager() {
        // min/max/add alternating over 8 curves, lazy end-to-end.
        let curves: Vec<Pwl> = (0..8)
            .map(|i| {
                // Second breakpoint sits on the first segment's reach plus a
                // non-negative jump, so every generated curve is valid.
                let (y0, s0) = (i as f64 * 0.3, 0.5 + i as f64 * 0.2);
                let x1 = 1.0 + i as f64 * 0.4;
                let y1 = y0 + s0 * x1 + (i % 3) as f64 * 0.4;
                Pwl::from_breakpoints(vec![(0.0, y0, s0), (x1, y1, 0.1 * i as f64)]).unwrap()
            })
            .collect();
        let mut eager = curves[0].clone();
        for (i, c) in curves.iter().enumerate().skip(1) {
            eager = match i % 3 {
                0 => eager.min(c),
                1 => eager.max(c),
                _ => eager.add(c),
            };
        }
        // Lazy: same fold, materializing only at the end via boxed chaining.
        let mut lazy: Box<dyn Iterator<Item = Segment>> = Box::new(curves[0].lazy());
        for (i, c) in curves.iter().enumerate().skip(1) {
            lazy = match i % 3 {
                0 => Box::new(lazy.lazy_min(c.lazy())),
                1 => Box::new(lazy.lazy_max(c.lazy())),
                _ => Box::new(lazy.lazy_add(c.lazy())),
            };
        }
        assert_bitwise(&lazy.collect_pwl(), &eager);
    }

    #[test]
    fn norm_stage_merges_coinciding_starts_like_from_segments() {
        // A shift by exactly the first-breakpoint gap makes the head and the
        // mapped first segment collinear; the lazy path must merge them the
        // same way the eager constructor does.
        let f = Pwl::from_breakpoints(vec![(0.0, 2.0, 0.0), (1.0, 2.0, 3.0)]).unwrap();
        assert_bitwise(
            &f.lazy().shift_by(0.5, 0.0).unwrap().collect_pwl(),
            &f.shift(0.5, 0.0).unwrap(),
        );
    }
}
