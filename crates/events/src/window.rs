//! Sliding-window analysis of traces.
//!
//! Two families of questions are answered here:
//!
//! * **Demand windows** — over a sequence of per-event demands, what is the
//!   largest (smallest) total demand of any `k` *consecutive* events? These
//!   maxima/minima over all window positions are exactly the workload curves
//!   `γᵘ(k)` / `γˡ(k)` of Def. 1 when the demands are the per-event WCETs /
//!   BCETs.
//! * **Event spans** — over a sequence of timestamps, what is the smallest
//!   (largest) time span covered by any `k` consecutive events? The minimal
//!   spans are the inverse view of the empirical *arrival curve* `ᾱ(Δ)`:
//!   `ᾱ(Δ) = max { k : d(k) ≤ Δ }` for the minimal span `d(k)`.
//!
//! Both are one question to one kernel. The sorted stamps are the prefix
//! table of their gaps, so the span of `k` stamps, `t[i+k−1] − t[i]`, is
//! a window of `k − 1` gaps, read straight off the stamps.
//!
//! Exact computation of all window sizes is `O(N·K)` in the worst case
//! (see § Performance for what the scan skips); [`WindowMode::Strided`]
//! computes exact values on a grid of `k` and extends them *conservatively*
//! (upper results rounded up to the next grid point, lower results down), so
//! derived bounds stay guaranteed and only lose tightness.
//!
//! # Performance
//!
//! Demand scans run over a [`PrefixSums`] table built once in `O(N)`: the
//! sum of any window is two array reads (`p[i+k] − p[i]`), so the per-`k`
//! scan has no loop-carried dependency and auto-vectorizes (the table stays
//! in `u64` whenever the total demand fits, widening to `u128` only when it
//! would wrap), and every grid size shares the same table. Span scans use
//! the stamps as the table, without a copy.
//!
//! Whole-grid scans evaluate only the windows that can hold an extremum.
//! The table is non-decreasing, so for a block of 16 window starts
//! `[s, s+16)` every window of size `k` lies between `p[s+k] − p[s+15]`
//! and `p[s+15+k] − p[s]`. No step of the table is below its floor `g`
//! (the smallest value; for stamps the smallest gap, rounded down), so
//! each of the 15 values the lower bound drops adds at least `g`: the
//! window is at least `p[s+k] − p[s+15] + 15·g`, and likewise at most
//! `p[s+15+k] − p[s] − 15·g`. Per group of nearby window sizes the scan
//! reads these bounds for all blocks in one vectorized pass over strided
//! rows of the table, evaluates the two most promising blocks exactly,
//! and then evaluates only the blocks whose bound beats that seed,
//! shifted by the floor. The result is exact (a block is skipped only
//! when none of its windows can change the extremum; for stamps this
//! holds bit for bit under rounding, see the `f64` cell). On the paper's
//! MP@ML clips at `k` = 24 frames it evaluates 2–5 % of the demand
//! windows and 1.7–3 % of the spans: ᾱ's FIFO-input stamps sit on their
//! floor (the PE₁ back-to-back gap) for about 40 % of the steps, so most
//! spans lie within an unshifted bound's overshoot of the minimum.
//! Pruning needs the extreme windows to stand out from the rest by more
//! than a bound's overshoot above the floor. The worst case, a trace
//! where every block holds an extremum and the floor is 0 (values
//! alternating 0 and 14), still evaluates all `O(N·K)` windows and pays
//! a few percent more for the bounds. A constant trace is not that case:
//! the floor proves every block tied to its seed. Spans that tie exactly
//! (stamps with constant gaps) still keep their blocks, since the `f64`
//! cut leaves a margin for rounding.
//!
//! Every scan is that one pass, on the calling thread, under any
//! [`Parallelism`] setting (re-exported here for the callers that set
//! it): the worker count reaches only the `wcm-par` maps of other layers,
//! such as the points of a sweep.
//!
//! A stream that grows one stamp at a time keeps its minimal spans in a
//! [`SpanMinima`] table: `O(depth)` per stamp, no rescans.

use crate::summary::Sides;
use crate::EventError;
pub use wcm_par::Parallelism;

/// How to trade effort against tightness in whole-curve window analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum WindowMode {
    /// Compute every window size `1 ..= k_max` exactly (`O(N·k_max)`).
    Exact,
    /// Compute window sizes `1 ..= exact_upto` exactly, then only every
    /// `stride`-th size; intermediate sizes are filled conservatively.
    Strided {
        /// Largest window size computed exactly.
        exact_upto: usize,
        /// Grid stride beyond `exact_upto` (≥ 1).
        stride: usize,
    },
}

impl WindowMode {
    /// The grid of window sizes that will be computed exactly, up to
    /// `k_max` inclusive (always contains `k_max` itself). Values at
    /// these `k` are exact in every window-scan result; entries between
    /// them are conservative fills. Public so callers that must not use
    /// filled values (e.g. the overflow certificate) can select the
    /// exact entries.
    #[must_use]
    pub fn grid(self, k_max: usize) -> Vec<usize> {
        match self {
            WindowMode::Exact => (1..=k_max).collect(),
            WindowMode::Strided { exact_upto, stride } => {
                let stride = stride.max(1);
                // `exact_upto ≥ k_max` covers the whole range; a step past
                // `usize::MAX` ends the strided part like one past `k_max`,
                // so any stride ≥ k_max leaves `1..=exact_upto` plus k_max.
                let exact_upto = exact_upto.min(k_max);
                let mut ks: Vec<usize> = (1..=exact_upto).collect();
                let mut k = exact_upto.checked_add(stride);
                while let Some(next) = k.filter(|&next| next < k_max) {
                    ks.push(next);
                    k = next.checked_add(stride);
                }
                if ks.last() != Some(&k_max) && k_max > 0 {
                    ks.push(k_max);
                }
                ks
            }
        }
    }
}

/// Prefix-sum table over a demand sequence: `p[i]` is the sum of the first
/// `i` values.
///
/// Built once in `O(N)`; afterwards the sum of **any** window `[i, i+k)` is
/// the difference `p[i+k] − p[i]` — two array reads. All window sizes share
/// the same table, which is what turns whole-curve construction from
/// "rescan the trace per `k`" into "one scan per `k` over independent
/// differences" (branch-free, vectorizable, and trivially parallel).
///
/// The table is adaptive: while the running total fits in `u64` (every
/// realistic trace) it stays a narrow `Vec<u64>` whose difference scans
/// auto-vectorize; if the total would wrap, construction transparently
/// switches to a wide `Vec<u128>` table that cannot overflow.
///
/// # Example
///
/// ```
/// use wcm_events::window::PrefixSums;
///
/// let p = PrefixSums::new(&[1, 9, 2, 8]);
/// assert_eq!(p.window_sum(1, 2)?, 11); // 9 + 2
/// assert_eq!(p.max_window_sum(2)?, Some(11));
/// assert_eq!(p.min_window_sum(2)?, Some(10));
/// # Ok::<(), wcm_events::EventError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSums {
    table: Table,
    /// The smallest value (0 when there is none): every window of `k`
    /// values sums to at least `k · floor`, which tightens the scans'
    /// block bounds.
    floor: u64,
}

/// Storage for the prefix table; see [`PrefixSums`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Table {
    /// Total sum fits `u64`: differences are exact `u64` subtractions and
    /// the per-`k` scans vectorize (u64 lanes).
    Narrow(Vec<u64>),
    /// Total sum exceeds `u64::MAX`: fall back to a table that cannot wrap.
    Wide(Vec<u128>),
}

impl PrefixSums {
    /// Builds the table in one `O(N)` pass (plus a second pass only in the
    /// degenerate case where the total demand overflows `u64`).
    #[must_use]
    pub fn new(values: &[u64]) -> Self {
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let (mut acc, mut floor) = (0u64, u64::MAX);
        prefix.push(acc);
        for &v in values {
            match acc.checked_add(v) {
                Some(next) => {
                    acc = next;
                    floor = floor.min(v);
                    prefix.push(acc);
                }
                None => return Self::new_wide(values),
            }
        }
        Self {
            table: Table::Narrow(prefix),
            floor: if values.is_empty() { 0 } else { floor },
        }
    }

    fn new_wide(values: &[u64]) -> Self {
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut acc: u128 = 0;
        prefix.push(acc);
        for &v in values {
            acc += u128::from(v);
            prefix.push(acc);
        }
        Self {
            table: Table::Wide(prefix),
            floor: values.iter().copied().min().unwrap_or(0),
        }
    }

    /// Number of underlying values.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.table {
            Table::Narrow(p) => p.len() - 1,
            Table::Wide(p) => p.len() - 1,
        }
    }

    /// Whether the underlying sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the `k` values starting at `start` (two array reads).
    ///
    /// # Errors
    ///
    /// [`EventError::Overflow`] if the sum exceeds `u64::MAX` (the table
    /// itself cannot wrap).
    ///
    /// # Panics
    ///
    /// Panics if `start + k` exceeds the sequence length.
    pub fn window_sum(&self, start: usize, k: usize) -> Result<u64, EventError> {
        match &self.table {
            Table::Narrow(p) => Ok(p[start + k] - p[start]),
            Table::Wide(p) => to_u64(p[start + k] - p[start]),
        }
    }

    /// Maximum sum over all windows of `k` consecutive values.
    ///
    /// Returns `Some(0)` for `k = 0`, `None` if `k > len()`.
    ///
    /// # Errors
    ///
    /// [`EventError::Overflow`] if the maximum exceeds `u64::MAX`.
    pub fn max_window_sum(&self, k: usize) -> Result<Option<u64>, EventError> {
        self.scan(k, true)
    }

    /// Minimum sum over all windows of `k` consecutive values.
    ///
    /// Returns `Some(0)` for `k = 0`, `None` if `k > len()`.
    ///
    /// # Errors
    ///
    /// [`EventError::Overflow`] if the minimum exceeds `u64::MAX`.
    pub fn min_window_sum(&self, k: usize) -> Result<Option<u64>, EventError> {
        self.scan(k, false)
    }

    fn scan(&self, k: usize, maximize: bool) -> Result<Option<u64>, EventError> {
        if k == 0 {
            return Ok(Some(0));
        }
        if k > self.len() {
            return Ok(None);
        }
        // Independent differences p[i+k] − p[i]: no loop-carried state.
        match &self.table {
            Table::Narrow(p) => {
                let diffs = p[k..].iter().zip(p).map(|(hi, lo)| hi - lo);
                Ok(if maximize { diffs.max() } else { diffs.min() })
            }
            Table::Wide(p) => {
                let diffs = p[k..].iter().zip(p).map(|(hi, lo)| hi - lo);
                let best = if maximize { diffs.max() } else { diffs.min() };
                best.map(to_u64).transpose()
            }
        }
    }

    /// Scan of many window sizes over every window of the values: the
    /// max and min tables of the wanted `sides` (the other side's table
    /// is its start). `ks` should be ascending, as [`WindowMode::grid`]
    /// makes it: sizes within 8 of each other then share one bound pass
    /// (any order gives the same values).
    ///
    /// Every entry starts from `start` (default: the identities, `0` for
    /// maxima and `u64::MAX` for minima) and folds in every window of its
    /// size, so a known window sum both seeds the pruning and stays in
    /// the result: a summary merge passes its two runs' tables and scans
    /// only the seam. Entries with no window (`k = 0`, or `k` past the
    /// values) keep their start, so grid points beyond a short run merge
    /// away naturally; summaries rely on this.
    ///
    /// Exact and pruned: a block of 16 window starts is evaluated only
    /// when its bound from the monotone table, tightened by the smallest
    /// value, beats exactly evaluated seed blocks or the start (see
    /// [`plan_group`]). What survives is streamed in L1/L2 sized blocks
    /// with a small tile of `k` values per pass, so every block is loaded
    /// once per tile instead of once per `k`. Results are bit-identical
    /// to per-`k` [`PrefixSums::max_window_sum`] /
    /// [`PrefixSums::min_window_sum`] scans: a block is skipped only when
    /// none of its windows can change the extremum, and `u64` max/min is
    /// associative and commutative, so evaluation order cannot matter.
    ///
    /// `None` when a requested extremum exceeds `u64::MAX` (a wide table
    /// only: on a narrow one every window fits).
    pub(crate) fn scan_grid(
        &self,
        ks: &[usize],
        sides: Sides,
        start: Option<(&[u64], &[u64])>,
    ) -> Option<(Vec<u64>, Vec<u64>)> {
        let local_seeds = start.is_none();
        let (maxs, mins) = match start {
            Some((maxs, mins)) => (maxs.to_vec(), mins.to_vec()),
            None => (vec![0; ks.len()], vec![u64::MAX; ks.len()]),
        };
        let floor = self.floor;
        match &self.table {
            Table::Narrow(p) => scan_blocked(p, floor, ks, sides, maxs, mins, local_seeds),
            Table::Wide(p) => scan_blocked(p, floor.into(), ks, sides, maxs, mins, local_seeds),
        }
    }
}

/// A wide-table window sum as `u64`, or [`EventError::Overflow`].
fn to_u64(sum: u128) -> Result<u64, EventError> {
    u64::try_from(sum).map_err(|_| EventError::Overflow { what: "window sum" })
}

/// A prefix-table cell: the two storage widths of [`PrefixSums`], and the
/// timestamps of a span scan. Window extrema come out as `Sum`s (`u64`
/// for demands, `f64` for spans) and scans start from `Sum` tables. The
/// folds pick with explicit comparisons ([`max_of`], [`min_of`]), so a
/// cell needs only a partial order.
trait PrefixCell: Copy + PartialOrd + std::ops::Sub<Output = Self> {
    /// A reported window extremum, and an entry of a start table.
    type Sum: Copy + PartialOrd;
    /// Bound rows a scan holds at once (see [`BoundRows`]).
    const HELD_ROWS: usize;
    /// The obs counters of the windows a scan evaluates and covers.
    const COUNTERS: (&'static str, &'static str);
    /// A start-table entry in the table's width.
    fn widen(sum: Self::Sum) -> Self;
    /// A window extremum as reported; `None` if it does not fit.
    fn narrow(self) -> Option<Self::Sum>;
    /// A min-side cut moved down by `steps` table steps of at least
    /// `floor` each: a block whose lower bound reaches it, and whose
    /// windows lie `steps` steps above that bound, holds no window below
    /// `cut`. Never above `cut`.
    fn shift_down(cut: Self, floor: Self, steps: usize) -> Self;
    /// A max-side cut moved up by `steps` steps of at least `floor`
    /// each, the mirror of [`PrefixCell::shift_down`]. Never below `cut`.
    fn shift_up(cut: Self, floor: Self, steps: usize) -> Self;
    /// `hi[q] − lo[q]` folded with `pick` ([`max_of`] or [`min_of`]); the
    /// slices are non-empty and equally long. The one fold behind the
    /// bounds, the seeds and the window scan itself.
    #[inline(always)]
    fn fold_diffs(hi: &[Self], lo: &[Self], pick: impl Fn(Self, Self) -> Self) -> Self {
        let mut acc = hi[0] - lo[0];
        for (h, l) in hi.iter().zip(lo) {
            acc = pick(acc, *h - *l);
        }
        acc
    }
}

/// The demand scans count windows.
const WINDOW_COUNTERS: (&str, &str) = ("events.windows_scanned", "events.windows_total");

impl PrefixCell for u64 {
    type Sum = u64;
    const HELD_ROWS: usize = BOUND_BLOCK;
    const COUNTERS: (&'static str, &'static str) = WINDOW_COUNTERS;
    fn widen(sum: u64) -> u64 {
        sum
    }
    fn narrow(self) -> Option<u64> {
        Some(self)
    }
    fn shift_down(cut: u64, floor: u64, steps: usize) -> u64 {
        cut.saturating_sub(floor.saturating_mul(steps as u64))
    }
    fn shift_up(cut: u64, floor: u64, steps: usize) -> u64 {
        cut.saturating_add(floor.saturating_mul(steps as u64))
    }
}

impl PrefixCell for u128 {
    type Sum = u64;
    const HELD_ROWS: usize = BOUND_BLOCK;
    const COUNTERS: (&'static str, &'static str) = WINDOW_COUNTERS;
    fn widen(sum: u64) -> u128 {
        u128::from(sum)
    }
    fn narrow(self) -> Option<u64> {
        u64::try_from(self).ok()
    }
    fn shift_down(cut: u128, floor: u128, steps: usize) -> u128 {
        cut.saturating_sub(floor.saturating_mul(steps as u128))
    }
    fn shift_up(cut: u128, floor: u128, steps: usize) -> u128 {
        cut.saturating_add(floor.saturating_mul(steps as u128))
    }
}

/// Timestamps as a prefix table: the span of `k` stamps,
/// `t[i+k−1] − t[i]`, is the window `p[i+k−1] − p[i]` of `k − 1` gaps
/// over `p = times`, so span scans run the demand scans' kernel on the
/// stamps themselves.
///
/// The block bounds stay sound bit for bit although every difference is
/// rounded. Each bound of [`GroupBounds`] is one difference `p[x] − p[y]`
/// of the non-decreasing table: `x ≤ i+k` and `y ≥ i` for the lower
/// bound of a window `p[i+k] − p[i]` in the block, `x ≥ i+k` and
/// `y ≤ i` for the upper one. Correctly rounded subtraction is monotone
/// in both operands (a larger minuend or a smaller subtrahend never gives
/// a smaller result), so `fl(lb) ≤ fl(p[i+k] − p[i]) ≤ fl(ub)` for every
/// window of the block, and a block is still skipped only when none of
/// its rounded spans can change the extremum.
///
/// The step floor keeps that guarantee. The floor `g` is the double just
/// below the smallest computed gap, so it lies at or below every exact
/// gap (a gap below it would have rounded to it or lower). Over the
/// reals a window then lies at least `m·g` above the exact `lb` (at most
/// `m·g` below the exact `ub`), `m` the steps between them. On the min
/// side a block is skipped when `fl(lb)` reaches `cut − m·g` computed in
/// `f64` and raised by [`CUT_ULPS`] steps of the cut's spacing. Either
/// `fl(lb)` reaches `cut` itself (the argument above), or `fl(m·g)`
/// does, and then every window, being at least `m·g`, rounds to at least
/// `fl(m·g)`. Otherwise all of `fl(lb)`, `fl(m·g)` and the shifted cut
/// lie below `cut`, each within half a spacing of `cut` of its exact
/// value, and the raise, at least eight spacings, covers their sum:
/// every exact window is at least `cut`, and rounding, monotone, keeps
/// it there. The max side mirrors this, lowering `cut + m·g` by
/// [`CUT_ULPS`] steps of its own spacing. The margin also means that a
/// window tying the shifted cut exactly (a trace with constant gaps)
/// keeps its block. On the min side an `m·g` past `f64::MAX` is `∞` and
/// skips every block, as `m·g ≥ cut` does above; on the max side a
/// shifted cut past `f64::MAX` stays unshifted, since an exact bound can
/// lie past `f64::MAX` too. A `NaN` cut (`∞ − ∞`) never wins a
/// comparison and leaves the unshifted one.
///
/// The span scans take finite sorted stamps only, so no difference is
/// NaN and the max/min folds do not depend on the order in which windows
/// are evaluated, except for the sign of a zero span (`−0.0 − 0.0` is
/// `−0.0`). [`PrefixCell::narrow`] reports every zero as `+0.0`, which
/// makes the result independent of which windows were evaluated.
///
/// The stamps are the caller's, and ᾱ's scan runs where `analyze` peaks
/// in heap: a scan holds four bound rows (a quarter of a copy of the
/// stamps), enough for both sides' rows of a group and for the two row
/// phases the dense part of a grid alternates between.
impl PrefixCell for f64 {
    type Sum = f64;
    const HELD_ROWS: usize = 4;
    const COUNTERS: (&'static str, &'static str) = ("events.spans_scanned", "events.spans_total");
    fn widen(sum: f64) -> f64 {
        sum
    }
    fn narrow(self) -> Option<f64> {
        Some(self + 0.0)
    }
    fn shift_down(cut: f64, floor: f64, steps: usize) -> f64 {
        min_of(cut, cut - steps as f64 * floor + ulps_below(cut))
    }
    fn shift_up(cut: f64, floor: f64, steps: usize) -> f64 {
        let shifted = cut + steps as f64 * floor;
        if shifted.is_finite() {
            max_of(cut, shifted - ulps_below(shifted))
        } else {
            cut
        }
    }
    /// The fold in [`FOLD_LANES`] independent lanes: `f64` max/min has no
    /// associativity the compiler may assume, so one accumulator would
    /// serialize the scan on its latency.
    #[inline(always)]
    fn fold_diffs(hi: &[f64], lo: &[f64], pick: impl Fn(f64, f64) -> f64) -> f64 {
        let mut acc = [hi[0] - lo[0]; FOLD_LANES];
        let (hs, ls) = (hi.chunks_exact(FOLD_LANES), lo.chunks_exact(FOLD_LANES));
        let (h_rest, l_rest) = (hs.remainder(), ls.remainder());
        for (h, l) in hs.zip(ls) {
            for j in 0..FOLD_LANES {
                acc[j] = pick(acc[j], h[j] - l[j]);
            }
        }
        for (h, l) in h_rest.iter().zip(l_rest) {
            acc[0] = pick(acc[0], h - l);
        }
        acc.into_iter().reduce(pick).expect("lanes are non-empty")
    }
}

/// Accumulators of the `f64` fold: enough independent chains to hide the
/// max/min latency behind 256- or 512-bit vector units.
const FOLD_LANES: usize = 16;

/// Doubles that a shifted `f64` cut is moved outward by. Sixteen steps
/// below a value span at least eight of its spacings (a step below a
/// power of two is half one), against the three that rounding the
/// bound, the shift and the shifted cut can take together.
const CUT_ULPS: u64 = 16;

/// `x` less the double [`CUT_ULPS`] steps below it, or 0 unless `x` is
/// positive and finite: the outward margin of a shifted cut near `x`.
fn ulps_below(x: f64) -> f64 {
    if x > 0.0 && x.is_finite() {
        x - f64::from_bits(x.to_bits().saturating_sub(CUT_ULPS))
    } else {
        0.0
    }
}

/// The larger of two cells, `a` on a tie.
#[inline(always)]
fn max_of<T: PartialOrd>(a: T, b: T) -> T {
    if b > a {
        b
    } else {
        a
    }
}

/// The smaller of two cells, `a` on a tie.
#[inline(always)]
fn min_of<T: PartialOrd>(a: T, b: T) -> T {
    if b < a {
        b
    } else {
        a
    }
}

/// Table positions per cache block: 8 Ki entries = 64 KiB of `u64`, so a
/// block plus the `k`-shifted stream it is compared against stays resident
/// in L2 while a whole tile of window sizes scans it.
const SCAN_BLOCK: usize = 8 * 1024;

/// Window sizes per tile: enough reuse per block load to amortize the
/// second stream, few enough accumulators to keep them in registers.
const SCAN_TILE: usize = 16;

/// Window starts that share one bound: a sixteenth of the windows, so
/// the bounds cost little next to a full scan, while a bound overshoots a
/// window by only the excess over the floor of `BOUND_BLOCK − 1` values.
/// Blocks of 8 or 32 read slower on the clips' scans.
const BOUND_BLOCK: usize = 16;

/// Window sizes that share one bound when they lie within this distance:
/// the exact (dense) part of a grid pays one bound pass per 8 sizes, at
/// the price of 7 more values of overshoot.
const BOUND_GROUP: usize = 8;

/// Bound blocks decided together: one vectorized max/min over a chunk of
/// block bounds prunes 1 024 window starts at once, and a `u64` mask
/// holds which of its blocks survive.
const FILTER_CHUNK: usize = 64;

/// The prefix table once more as [`BOUND_BLOCK`] strided rows,
/// `row(r)[q] = p[q·B + r]` (padded with `p[n]`), so the bounds of
/// consecutive blocks are differences of two contiguous slices. A row is
/// gathered when a group first reads it, into one of
/// [`PrefixCell::HELD_ROWS`] slots of one allocation; once all slots are
/// taken, a row the group does not read makes room.
struct BoundRows<T> {
    /// The held rows back to back, `width` cells each.
    cells: Vec<T>,
    /// The slot of each row, while held.
    slot: [Option<usize>; BOUND_BLOCK],
    /// The row in each taken slot.
    held: Vec<usize>,
    width: usize,
}

impl<T: PrefixCell> BoundRows<T> {
    /// No rows yet, for a table of `n + 1` cells.
    fn new(n: usize) -> Self {
        Self {
            cells: Vec::new(),
            slot: [None; BOUND_BLOCK],
            held: Vec::new(),
            width: n / BOUND_BLOCK + 1,
        }
    }

    /// Makes the rows `want` (at most four) readable, gathering from `p`
    /// those not held.
    fn hold(&mut self, p: &[T], want: &[usize]) {
        let (n, width) = (p.len() - 1, self.width);
        for &r in want {
            if self.slot[r].is_some() {
                continue;
            }
            let row = (0..width).map(|q| p[(q * BOUND_BLOCK + r).min(n)]);
            let s = if self.held.len() < T::HELD_ROWS {
                if self.held.is_empty() {
                    self.cells.reserve_exact(T::HELD_ROWS * width);
                }
                self.cells.extend(row);
                self.held.push(r);
                self.held.len() - 1
            } else {
                let s = (0..self.held.len())
                    .find(|&s| !want.contains(&self.held[s]))
                    .expect("a scan holds more rows than a group reads");
                self.slot[self.held[s]] = None;
                for (cell, v) in self.cells[s * width..(s + 1) * width].iter_mut().zip(row) {
                    *cell = v;
                }
                self.held[s] = r;
                s
            };
            self.slot[r] = Some(s);
        }
    }

    fn row(&self, r: usize) -> &[T] {
        let s = self.slot[r].expect("rows are held before they are read");
        &self.cells[s * self.width..(s + 1) * self.width]
    }
}

/// Bit `q` set where `keep(hi[q] − lo[q])`, over one filter chunk.
#[inline(always)]
fn chunk_mask<T: PrefixCell>(hi: &[T], lo: &[T], keep: impl Fn(T) -> bool) -> u64 {
    let mut m = 0u64;
    for (q, (h, l)) in hi.iter().zip(lo).enumerate() {
        m |= u64::from(keep(*h - *l)) << q;
    }
    m
}

/// Appends `[lo, hi)` to the sorted disjoint ranges `ranges[from..]`,
/// joining a touching one.
fn push_range(ranges: &mut Vec<(usize, usize)>, from: usize, lo: usize, hi: usize) {
    match ranges[from..].last_mut() {
        Some(last) if last.1 == lo => last.1 = hi,
        _ => ranges.push((lo, hi)),
    }
}

/// How many leading sizes of `ks` are planned together: ascending sizes
/// `1 ≤ k ≤ n` within [`BOUND_GROUP`] of the first. A size with no
/// window (`k = 0` or `k > n`) stands alone.
fn group_len(ks: &[usize], n: usize) -> usize {
    let first = ks[0];
    if first == 0 || first > n {
        return 1;
    }
    let near = |&&k: &&usize| k >= first && k - first < BOUND_GROUP && k <= n;
    1 + ks[1..].iter().take_while(near).count()
}

/// The block bounds of one group of window sizes `k_lo..=k_hi` (each
/// `1 ≤ k ≤ n`, within [`BOUND_GROUP`]). The table is non-decreasing, so
/// for the starts `i ∈ [qB, qB+B)` every window `W(i,k) = p[i+k] − p[i]`
/// of the group lies between `lb(q) = p[qB+k_lo] − p[qB+B−1]` and
/// `ub(q) = p[qB+B−1+k_hi] − p[qB]`, each the difference of two rows of
/// [`BoundRows`]. Only the wanted sides' rows are held; an unwanted
/// side's rows are empty and never read.
struct GroupBounds<'a, T> {
    /// `(hi, lo)` rows with `ub(q) = hi[q] − lo[q]`.
    ub: (&'a [T], &'a [T]),
    /// `(hi, lo)` rows with `lb(q) = hi[q] − lo[q]`.
    lb: (&'a [T], &'a [T]),
    /// Blocks whose starts all hold a window of size `k_hi`.
    full: usize,
    /// The group's largest size.
    k_hi: usize,
}

impl<'a, T: PrefixCell> GroupBounds<'a, T> {
    /// `None` when no block is full, or when minima of windows shorter
    /// than `B − 1` are wanted (`lb` would be vacuous): every start of
    /// the group is then evaluated.
    fn new(rows: &'a mut BoundRows<T>, p: &[T], group: &[usize], sides: Sides) -> Option<Self> {
        const B: usize = BOUND_BLOCK;
        let k_lo = group[0];
        let k_hi = *group.iter().max().expect("groups are non-empty");
        let full = (p.len() - k_hi) / B;
        if full == 0 || (sides.wants_min() && k_lo + 1 < B) {
            return None;
        }
        let reach = k_hi + B - 1;
        let (want_max, want_min) = (sides.wants_max(), sides.wants_min());
        // The rows of `ub`, then of `lb`: the wanted sides' rows are held
        // in one call, so none of them makes room for another.
        let both = [reach % B, 0, k_lo % B, B - 1];
        rows.hold(p, match (want_max, want_min) {
            (true, true) => &both,
            (true, false) => &both[..2],
            _ => &both[2..],
        });
        let rows: &'a BoundRows<T> = rows;
        let none: (&[T], &[T]) = (&[], &[]);
        Some(Self {
            ub: if want_max { (&rows.row(reach % B)[reach / B..], rows.row(0)) } else { none },
            lb: if want_min { (&rows.row(k_lo % B)[k_lo / B..], rows.row(B - 1)) } else { none },
            full,
            k_hi,
        })
    }

    fn ub(&self, c: usize, e: usize) -> (&[T], &[T]) {
        (&self.ub.0[c..e], &self.ub.1[c..e])
    }

    fn lb(&self, c: usize, e: usize) -> (&[T], &[T]) {
        (&self.lb.0[c..e], &self.lb.1[c..e])
    }
}

/// The bound pass of one group: each filter chunk's largest `ub` and
/// smallest `lb` into `chunks` (an unwanted side stays at `p[0]` and is
/// never read).
fn bound_pass<T: PrefixCell>(
    p: &[T],
    bounds: &GroupBounds<T>,
    sides: Sides,
    chunks: &mut Vec<(T, T)>,
) {
    chunks.clear();
    for c in (0..bounds.full).step_by(FILTER_CHUNK) {
        let e = (c + FILTER_CHUNK).min(bounds.full);
        let top = if sides.wants_max() {
            let (hi, lo) = bounds.ub(c, e);
            T::fold_diffs(hi, lo, max_of)
        } else {
            p[0]
        };
        let bottom = if sides.wants_min() {
            let (hi, lo) = bounds.lb(c, e);
            T::fold_diffs(hi, lo, min_of)
        } else {
            p[0]
        };
        chunks.push((top, bottom));
    }
}

/// The seeds of one group after its [`bound_pass`]: evaluates for every
/// size the first block holding the largest `ub` (max side) and the one
/// holding the smallest `lb` (min side), each with the full block after
/// it, exactly into `seeds` (an unwanted side mirrors the wanted one).
/// Returns the windows evaluated.
///
/// The extreme bound of the group's largest size can come from a window
/// that reaches one far step at the very end of the block; the group's
/// smaller sizes reach that step only from the next block, and seeding
/// there keeps their cuts (and with them the group's) from falling back
/// to an ordinary window.
fn seed_group<T: PrefixCell>(
    p: &[T],
    bounds: &GroupBounds<T>,
    group: &[usize],
    sides: Sides,
    chunks: &[(T, T)],
    seeds: &mut [Option<(T, T)>],
) -> usize {
    const B: usize = BOUND_BLOCK;
    let (want_max, want_min) = (sides.wants_max(), sides.wants_min());
    let q_max = want_max.then(|| {
        let top = chunks.iter().map(|c| c.0).reduce(max_of).expect("a full block");
        let c = chunks.iter().position(|c| c.0 == top).expect("the max is a chunk's") * FILTER_CHUNK;
        (c..).find(|&q| bounds.ub.0[q] - bounds.ub.1[q] == top).expect("the chunk holds its max")
    });
    let q_min = want_min.then(|| {
        let bottom = chunks.iter().map(|c| c.1).reduce(min_of).expect("a full block");
        let c = chunks.iter().position(|c| c.1 == bottom).expect("the min is a chunk's") * FILTER_CHUNK;
        (c..).find(|&q| bounds.lb.0[q] - bounds.lb.1[q] == bottom).expect("the chunk holds its min")
    });
    // Blocks q and q + 1, while the latter is full.
    let starts = |q: usize| q * B..(q * B + 2 * B).min(bounds.full * B);
    for (&k, seed) in group.iter().zip(seeds) {
        let fold = |q: usize, pick: fn(T, T) -> T| {
            let r = starts(q);
            T::fold_diffs(&p[r.start + k..r.end + k], &p[r], pick)
        };
        let mx = q_max.map(|q| fold(q, max_of));
        let mn = q_min.map(|q| fold(q, min_of));
        *seed = mx.or(mn).zip(mn.or(mx));
    }
    let seeded = |q: Option<usize>| q.map_or(0, |q| starts(q).len());
    group.len() * (seeded(q_max) + seeded(q_min))
}

/// Plans one group of window sizes (see [`GroupBounds`]): writes into
/// `seeds` each size's exact extrema over its seed blocks ([`seed_group`],
/// when `local_seeds`; `None` otherwise or where the group has no bounds),
/// appends to `ranges` the window starts left to evaluate, and returns
/// the windows the seeds evaluated. A scan that starts from known window
/// sums (a merge's two runs) skips the local seeds: they would rarely
/// beat the start and cost a fixed price per group, which a stream
/// merged from many short runs pays many times.
///
/// A block survives only where its bound beats the cut. Each seed is
/// first folded with its size's `start`, then shifted by the table's
/// step floor `g` (see [`PrefixCell::shift_down`]): every window of size
/// `k` in a block lies `(B−1 + k−k_lo)` steps above `lb` and
/// `(B−1 + k_hi−k)` steps below `ub`, each step at least `g`. The cut is
/// the smallest shifted maximum and the largest shifted minimum over the
/// group. Each run of surviving blocks is one range; the starts past the
/// last full block, which have no bound, follow up to `n − k_lo + 1`,
/// and each size clips that tail to its own `n − k + 1`. A group without
/// bounds keeps one range of all starts.
fn plan_group<T: PrefixCell>(
    scan: &Scan<T>,
    rows: &mut BoundRows<T>,
    group: &[usize],
    start: &[(T::Sum, T::Sum)],
    chunks: &mut Vec<(T, T)>,
    seeds: &mut [Option<(T, T)>],
    ranges: &mut Vec<(usize, usize)>,
) -> usize {
    const B: usize = BOUND_BLOCK;
    let (p, sides) = (scan.p, scan.sides);
    let tail_end = scan.last(group[0]);
    let from = ranges.len();
    seeds.fill(None);
    let Some(bounds) = GroupBounds::new(rows, p, group, sides) else {
        ranges.push((0, tail_end));
        return 0;
    };
    bound_pass(p, &bounds, sides, chunks);
    let evaluated = if scan.local_seeds {
        seed_group(p, &bounds, group, sides, chunks, seeds)
    } else {
        0
    };
    let (k_lo, k_hi) = (group[0], bounds.k_hi);
    let (cut_max, cut_min) = group
        .iter()
        .zip(seeds.iter())
        .zip(start)
        .map(|((&k, seed), &(from_max, from_min))| {
            let (from_max, from_min) = (T::widen(from_max), T::widen(from_min));
            let (mx, mn) = seed
                .map_or((from_max, from_min), |(mx, mn)| (max_of(mx, from_max), min_of(mn, from_min)));
            (T::shift_up(mx, scan.floor, B - 1 + k_hi - k), T::shift_down(mn, scan.floor, B - 1 + k - k_lo))
        })
        .reduce(|a, b| (min_of(a.0, b.0), max_of(a.1, b.1)))
        .expect("groups are non-empty");
    // Only chunks whose extreme bound beats the cut are masked.
    for (i, &(top, bottom)) in chunks.iter().enumerate() {
        let (c, e) = (i * FILTER_CHUNK, ((i + 1) * FILTER_CHUNK).min(bounds.full));
        let mut mask = 0u64;
        if sides.wants_max() && top > cut_max {
            let (hi, lo) = bounds.ub(c, e);
            mask |= chunk_mask(hi, lo, |d| d > cut_max);
        }
        if sides.wants_min() && bottom < cut_min {
            let (hi, lo) = bounds.lb(c, e);
            mask |= chunk_mask(hi, lo, |d| d < cut_min);
        }
        while mask != 0 {
            let lo = mask.trailing_zeros() as usize;
            let run = (!(mask >> lo)).trailing_zeros() as usize;
            push_range(ranges, from, (c + lo) * B, (c + lo + run) * B);
            mask = if lo + run == FILTER_CHUNK { 0 } else { mask & (!0 << (lo + run)) };
        }
    }
    if bounds.full * B < tail_end {
        push_range(ranges, from, bounds.full * B, tail_end);
    }
    evaluated
}

/// What the groups of one scan share: the table, its step floor (no
/// step `p[j+1] − p[j]` is below it), the wanted sides and whether
/// groups evaluate seeds of their own.
struct Scan<'a, T> {
    p: &'a [T],
    floor: T,
    sides: Sides,
    local_seeds: bool,
}

impl<T: PrefixCell> Scan<'_, T> {
    /// Window starts of size `k` (`1 ≤ k ≤ n`): those whose window fits
    /// the table.
    fn last(&self, k: usize) -> usize {
        self.p.len() - k
    }
}

/// The max and min tables of a scan, one entry per window size.
type Tables<S> = (Vec<S>, Vec<S>);

/// The one window kernel, behind [`PrefixSums::scan_grid`] and the span
/// scans ([`min_spans`], [`max_spans`]): for each tile of window sizes,
/// plan its groups of nearby sizes ([`plan_group`]: exact seeds, block
/// bounds tightened by the step `floor`, the surviving start ranges),
/// then stream the table block by block and fold the per-`k` extremum of
/// `p[i+k] − p[i]` over the surviving starts in the block, into
/// `maxs`/`mins` (the start tables) for the wanted sides. `None` when an
/// extremum does not fit a `Sum`.
///
/// The extrema are folded in the table's width from the evaluated
/// windows alone, and meet the starts only as `Sum`s: a start can never
/// hide a window past `u64::MAX`.
///
/// Counts the windows it evaluates (seeds included) and the windows the
/// grid covers, one counter call each per scan, under the cell's
/// [`PrefixCell::COUNTERS`] (`events.windows_*` for demands,
/// `events.spans_*` for stamps).
fn scan_blocked<T: PrefixCell>(
    p: &[T],
    floor: T,
    ks: &[usize],
    sides: Sides,
    mut maxs: Vec<T::Sum>,
    mut mins: Vec<T::Sum>,
    local_seeds: bool,
) -> Option<Tables<T::Sum>> {
    let n = p.len() - 1;
    let (want_max, want_min) = (sides.wants_max(), sides.wants_min());
    let scan = Scan { p, floor, sides, local_seeds };
    let mut rows = BoundRows::new(n);
    let last = |k: usize| scan.last(k);
    let mut chunks = Vec::with_capacity(n / (BOUND_BLOCK * FILTER_CHUNK) + 1);
    let mut start = Vec::with_capacity(SCAN_TILE);
    // Per size of a tile: its extrema so far (`None` before its first
    // window), and its cursor in and the end of its group's ranges.
    let mut best: Vec<Option<(T, T)>> = Vec::with_capacity(SCAN_TILE);
    let mut cursors: Vec<(usize, usize)> = Vec::with_capacity(SCAN_TILE);
    // The ranges of a tile's groups, one group after another, in one
    // list kept across tiles.
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(SCAN_TILE * FILTER_CHUNK);
    let (mut scanned, mut total) = (0usize, 0usize);
    for (tile_idx, tile) in ks.chunks(SCAN_TILE).enumerate() {
        let base = tile_idx * SCAN_TILE;
        best.clear();
        best.resize(tile.len(), None);
        cursors.clear();
        ranges.clear();
        let mut j = 0;
        while j < tile.len() {
            let len = group_len(&tile[j..], n);
            let group = &tile[j..j + len];
            let from = ranges.len();
            if (1..=n).contains(&group[0]) {
                start.clear();
                start.extend((base + j..base + j + len).map(|i| (maxs[i], mins[i])));
                let seeds = &mut best[j..j + len];
                scanned +=
                    plan_group(&scan, &mut rows, group, &start, &mut chunks, seeds, &mut ranges);
                for &k in group {
                    total += last(k);
                    let clip = |&(lo, hi): &(usize, usize)| hi.min(last(k)).saturating_sub(lo);
                    scanned += ranges[from..].iter().map(clip).sum::<usize>();
                }
            }
            cursors.extend(std::iter::repeat_n((from, ranges.len()), len));
            j += len;
        }
        let mut at = 0usize;
        while at < n {
            let block_end = (at + SCAN_BLOCK).min(n);
            for (j, &k) in tile.iter().enumerate() {
                let (cursor, end) = &mut cursors[j];
                while *cursor < *end && ranges[*cursor].1 <= at {
                    *cursor += 1;
                }
                for &(lo, hi) in &ranges[*cursor..*end] {
                    // The surviving starts of this range inside the block;
                    // only the last range (the tail) can end past `n − k`.
                    let (lo, hi) = (lo.max(at), hi.min(block_end).min(last(k)));
                    if lo >= hi {
                        break;
                    }
                    let (hi_p, lo_p) = (&p[lo + k..hi + k], &p[lo..hi]);
                    let mx = if want_max { T::fold_diffs(hi_p, lo_p, max_of) } else { p[0] };
                    let mn = if want_min { T::fold_diffs(hi_p, lo_p, min_of) } else { p[0] };
                    best[j] = Some(best[j].map_or((mx, mn), |(bx, bn)| (max_of(bx, mx), min_of(bn, mn))));
                }
            }
            at = block_end;
        }
        for (j, &extrema) in best.iter().enumerate() {
            let Some((mx, mn)) = extrema else {
                continue; // k = 0 or k > n: the start stays in place
            };
            if want_max {
                maxs[base + j] = max_of(maxs[base + j], mx.narrow()?);
            }
            if want_min {
                mins[base + j] = min_of(mins[base + j], mn.narrow()?);
            }
        }
    }
    if wcm_obs::enabled() {
        wcm_obs::counter(T::COUNTERS.0, scanned as u64);
        wcm_obs::counter(T::COUNTERS.1, total as u64);
    }
    Some((maxs, mins))
}

/// Maximum sum of any `k` consecutive values, for a single `k`.
///
/// Returns 0 for `k = 0`; `None` if `k > values.len()` (no full window
/// exists).
///
/// # Errors
///
/// [`EventError::Overflow`] if the maximum exceeds `u64::MAX`.
///
/// # Example
///
/// ```
/// use wcm_events::window::max_window_sum;
///
/// assert_eq!(max_window_sum(&[1, 9, 2, 8], 2)?, Some(11));
/// assert_eq!(max_window_sum(&[1, 9, 2, 8], 5)?, None);
/// assert!(max_window_sum(&[u64::MAX, 1], 2).is_err());
/// # Ok::<(), wcm_events::EventError>(())
/// ```
pub fn max_window_sum(values: &[u64], k: usize) -> Result<Option<u64>, EventError> {
    PrefixSums::new(values).max_window_sum(k)
}

/// Minimum sum of any `k` consecutive values, for a single `k`.
///
/// Returns 0 for `k = 0`; `None` if `k > values.len()`.
///
/// # Errors
///
/// [`EventError::Overflow`] if the minimum exceeds `u64::MAX`.
pub fn min_window_sum(values: &[u64], k: usize) -> Result<Option<u64>, EventError> {
    PrefixSums::new(values).min_window_sum(k)
}

/// Maximum window sums for all `k = 1 ..= k_max`, index 0 ↦ `k = 1`.
///
/// With [`WindowMode::Strided`], non-grid entries are filled with the value
/// of the *next* grid point — an over-approximation, sound for upper curves
/// because window maxima are non-decreasing in `k`.
///
/// # Errors
///
/// Returns [`EventError::InvalidParameter`] if `k_max` is 0 or exceeds the
/// trace length, or if a strided mode has `stride = 0`;
/// [`EventError::Overflow`] if a reported window sum exceeds
/// `u64::MAX`.
///
/// One pruned pass over the prefix table (see § Performance), on the
/// calling thread under any [`Parallelism`].
pub fn max_window_sums(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
) -> Result<Vec<u64>, EventError> {
    window_sums(values, k_max, mode, true)
}

/// [`max_window_sums`] inside `par.scope(..)`, which the scan does not
/// read. It stays for the `examples/bench_e2e` harness; new code calls
/// [`max_window_sums`].
///
/// # Errors
///
/// Same conditions as [`max_window_sums`].
pub fn max_window_sums_with(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<Vec<u64>, EventError> {
    par.scope(|| max_window_sums(values, k_max, mode))
}

/// Minimum window sums for all `k = 1 ..= k_max`, index 0 ↦ `k = 1`.
///
/// With [`WindowMode::Strided`], non-grid entries are filled with the value
/// of the *previous* grid point — an under-approximation, sound for lower
/// curves.
///
/// # Errors
///
/// Same conditions as [`max_window_sums`].
pub fn min_window_sums(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
) -> Result<Vec<u64>, EventError> {
    window_sums(values, k_max, mode, false)
}

/// [`min_window_sums`] inside `par.scope(..)`, which the scan does not
/// read. It stays for the `examples/bench_e2e` harness; new code calls
/// [`min_window_sums`].
///
/// # Errors
///
/// Same conditions as [`max_window_sums`].
pub fn min_window_sums_with(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<Vec<u64>, EventError> {
    par.scope(|| min_window_sums(values, k_max, mode))
}

fn window_sums(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
    maximize: bool,
) -> Result<Vec<u64>, EventError> {
    if k_max == 0 || k_max > values.len() {
        return Err(EventError::InvalidParameter { name: "k_max" });
    }
    if let WindowMode::Strided { stride: 0, .. } = mode {
        return Err(EventError::InvalidParameter { name: "stride" });
    }
    let grid = mode.grid(k_max);
    let sides = if maximize { Sides::Max } else { Sides::Min };
    // One pruned, cache-blocked pass over the prefix table, k-tiles per
    // block instead of one full sweep per k.
    let (maxs, mins) = PrefixSums::new(values)
        .scan_grid(&grid, sides, None)
        .ok_or(EventError::Overflow { what: "window sum" })?;
    let exact = if maximize { maxs } else { mins };
    Ok(fill_gaps(&grid, &exact, k_max, maximize, 0u64))
}

/// Spreads exact grid values over the dense `1..=k_max` output with the
/// conservative filling direction: gaps take the *next* grid value when
/// maximizing (sound over-approximation for non-decreasing maxima) and the
/// *previous* one when minimizing.
fn fill_gaps<T: Copy>(
    grid: &[usize],
    exact: &[T],
    k_max: usize,
    take_next: bool,
    zero: T,
) -> Vec<T> {
    let mut out = vec![zero; k_max];
    let mut prev_k = 0usize;
    let mut prev_v = zero;
    for (&k, &v) in grid.iter().zip(exact) {
        for gap in prev_k + 1..k {
            out[gap - 1] = if take_next { v } else { prev_v };
        }
        out[k - 1] = v;
        prev_k = k;
        prev_v = v;
    }
    out
}

/// Minimal spans for all `k = 1 ..= k_max` (index 0 ↦ `k = 1`): the
/// smallest `t[i+k−1] − t[i]` over the sorted `times` (0 for `k = 1`),
/// with the same strided-conservative filling as the window sums: gaps
/// take the *previous* grid value (an under-approximation of the span,
/// hence an over-approximation of the event count per Δ — sound for
/// upper arrival curves). A zero span is reported as `+0.0`.
///
/// The stamps are the prefix table of their gaps, so this is the window
/// scan of [`min_window_sums`] over them (see § Performance): block
/// bounds skip the spans that cannot be minimal, with the same result as
/// evaluating every span. It runs on the calling thread under any
/// [`Parallelism`].
///
/// # Errors
///
/// Returns [`EventError::InvalidParameter`] if `k_max` is 0 or exceeds the
/// number of timestamps, or if a strided mode has `stride = 0`;
/// [`EventError::UnsortedTimestamps`] (index of the first) if a stamp is
/// not finite or lies before its predecessor.
///
/// # Example
///
/// ```
/// use wcm_events::window::{min_spans, WindowMode};
///
/// let times = [0.0, 1.0, 1.25, 5.0];
/// // k = 2: the 1.0–1.25 pair; k = 3: 0.0–1.25; k = 4: all of it.
/// assert_eq!(min_spans(&times, 4, WindowMode::Exact)?, [0.0, 0.25, 1.25, 5.0]);
/// # Ok::<(), wcm_events::EventError>(())
/// ```
pub fn min_spans(times: &[f64], k_max: usize, mode: WindowMode) -> Result<Vec<f64>, EventError> {
    spans(times, k_max, mode, false)
}

/// Maximal spans for all `k = 1 ..= k_max`; gaps take the *next* grid value
/// (over-approximation of the span — sound for lower arrival curves).
///
/// # Errors
///
/// Same conditions as [`min_spans`].
pub fn max_spans(times: &[f64], k_max: usize, mode: WindowMode) -> Result<Vec<f64>, EventError> {
    spans(times, k_max, mode, true)
}

fn spans(
    times: &[f64],
    k_max: usize,
    mode: WindowMode,
    maximize: bool,
) -> Result<Vec<f64>, EventError> {
    if k_max == 0 || k_max > times.len() {
        return Err(EventError::InvalidParameter { name: "k_max" });
    }
    if let WindowMode::Strided { stride: 0, .. } = mode {
        return Err(EventError::InvalidParameter { name: "stride" });
    }
    // The block bounds hold only on a non-decreasing table. The same
    // pass finds the step floor: the double below the smallest computed
    // gap, at or below every exact one (see the `f64` cell).
    let mut gap = f64::INFINITY;
    for (i, &t) in times.iter().enumerate() {
        let step = if i == 0 { f64::INFINITY } else { t - times[i - 1] };
        if !t.is_finite() || step < 0.0 {
            return Err(EventError::UnsortedTimestamps { index: i });
        }
        gap = gap.min(step);
    }
    let floor = if gap > 0.0 { gap.next_down() } else { 0.0 };
    let grid = mode.grid(k_max);
    // A span of `k` stamps is a window of `k − 1` gaps; `k = 1` has no
    // window and keeps its start, the span 0 of one stamp.
    let gaps: Vec<usize> = grid.iter().map(|k| k - 1).collect();
    let start = |identity: f64| -> Vec<f64> {
        gaps.iter().map(|&g| if g == 0 { 0.0 } else { identity }).collect()
    };
    let sides = if maximize { Sides::Max } else { Sides::Min };
    let (start_max, start_min) = (start(f64::NEG_INFINITY), start(f64::INFINITY));
    let (maxs, mins) = scan_blocked(times, floor, &gaps, sides, start_max, start_min, true)
        .expect("every f64 extremum is reported");
    let exact = if maximize { maxs } else { mins };
    Ok(fill_gaps(&grid, &exact, k_max, maximize, 0.0f64))
}

/// Whole-stream minimal spans, kept as the stamps arrive: for every
/// `k = 2..=depth` the running minimum of `t[j] − t[j−k+1]` over all
/// ends `j` so far. It is the dual of the envelope monitor's running
/// per-`k` maximum demand.
///
/// A push costs `O(depth)` and needs only the last `depth − 1` stamps,
/// which stay contiguous in a doubled buffer that is compacted every
/// `depth − 1` pushes. The minimum of sorted finite stamps' spans does
/// not depend on the order they are folded in, and a zero span is kept
/// as `+0.0` as [`min_spans`] reports it, so [`SpanMinima::min_spans`] is
/// bitwise equal to `min_spans(every stamp so far, depth,
/// WindowMode::Exact)`, signed zeros included.
///
/// The first non-finite or decreasing stamp is sticky: from then on
/// [`SpanMinima::min_spans`] fails exactly as a [`crate::TimedTrace`] of
/// every stamp so far would.
///
/// # Example
///
/// ```
/// use wcm_events::window::{min_spans, SpanMinima, WindowMode};
///
/// let times = [0.0, 1.0, 1.25, 5.0, 5.5, 6.0];
/// let mut w = SpanMinima::new(3);
/// for &t in &times {
///     w.push(t);
/// }
/// assert_eq!(w.min_spans()?, min_spans(&times, 3, WindowMode::Exact)?);
/// assert_eq!((w.len(), w.duration()), (6, 6.0));
/// # Ok::<(), wcm_events::EventError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpanMinima {
    /// The last `depth − 1` stamps, up to twice that many before a
    /// compaction.
    recent: Vec<f64>,
    /// `mins[k − 1]`: the minimal span of `k` consecutive stamps.
    mins: Vec<f64>,
    first: f64,
    last: f64,
    len: usize,
    /// Index of the first non-finite or decreasing stamp.
    unsorted: Option<usize>,
}

impl SpanMinima {
    /// An empty table of minimal spans for `k = 1..=depth`.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self {
            recent: Vec::with_capacity(2 * depth.saturating_sub(1)),
            mins: (0..depth).map(|k| if k == 0 { 0.0 } else { f64::INFINITY }).collect(),
            first: 0.0,
            last: 0.0,
            len: 0,
            unsorted: None,
        }
    }

    /// Stamps pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no stamp has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time between the first and the last stamp (0 before the first),
    /// like [`crate::TimedTrace::duration`].
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.last - self.first
    }

    /// Appends a stamp and folds the spans it closes into the minima.
    pub fn push(&mut self, t: f64) {
        if self.unsorted.is_none() && (!t.is_finite() || (self.len > 0 && t < self.last)) {
            self.unsorted = Some(self.len);
        }
        if self.len == 0 {
            self.first = t;
        }
        self.last = t;
        self.len += 1;
        let keep = self.mins.len().saturating_sub(1);
        if keep == 0 || self.unsorted.is_some() {
            return;
        }
        // `recent` ends with t[j−1], t[j−2], …: the starts of the spans
        // of k = 2, 3, … that end at t.
        // `+ 0.0` turns the span `−0.0 − 0.0` into `+0.0`.
        for (m, &lo) in self.mins[1..].iter_mut().zip(self.recent.iter().rev()) {
            *m = m.min((t - lo) + 0.0);
        }
        if self.recent.len() == 2 * keep {
            self.recent.copy_within(keep.., 0);
            self.recent.truncate(keep);
        }
        self.recent.push(t);
    }

    /// Minimal spans of every stamp so far for `k = 1..=depth`, bitwise
    /// equal to `min_spans(stamps, depth, WindowMode::Exact)`.
    ///
    /// # Errors
    ///
    /// [`EventError::UnsortedTimestamps`] (index of the first
    /// non-finite or decreasing stamp) once one was pushed;
    /// [`EventError::InvalidParameter`] if `depth` is 0 or exceeds the
    /// stamps pushed.
    pub fn min_spans(&self) -> Result<&[f64], EventError> {
        if let Some(index) = self.unsorted {
            return Err(EventError::UnsortedTimestamps { index });
        }
        if self.mins.is_empty() || self.mins.len() > self.len {
            return Err(EventError::InvalidParameter { name: "k_max" });
        }
        Ok(&self.mins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: [u64; 8] = [5, 1, 1, 9, 9, 1, 1, 5];

    /// The pre-prefix-sum implementation (one sliding-window rescan per
    /// `k`), kept verbatim as an oracle for the new scan.
    fn window_sum_sliding_oracle(values: &[u64], k: usize, maximize: bool) -> Option<u64> {
        if k == 0 {
            return Some(0);
        }
        if k > values.len() {
            return None;
        }
        let mut sum: u64 = values[..k].iter().sum();
        let mut best = sum;
        for i in k..values.len() {
            sum = sum + values[i] - values[i - k];
            best = if maximize { best.max(sum) } else { best.min(sum) };
        }
        Some(best)
    }

    #[test]
    fn single_window_sums() {
        assert_eq!(max_window_sum(&V, 1), Ok(Some(9)));
        assert_eq!(min_window_sum(&V, 1), Ok(Some(1)));
        assert_eq!(max_window_sum(&V, 2), Ok(Some(18)));
        assert_eq!(min_window_sum(&V, 2), Ok(Some(2)));
        assert_eq!(max_window_sum(&V, 8), Ok(Some(32)));
        assert_eq!(min_window_sum(&V, 8), Ok(Some(32)));
        assert_eq!(max_window_sum(&V, 9), Ok(None));
        assert_eq!(max_window_sum(&V, 0), Ok(Some(0)));
    }

    #[test]
    fn single_window_sums_past_u64_max_are_an_error() {
        let overflow = EventError::Overflow { what: "window sum" };
        assert_eq!(max_window_sum(&[u64::MAX, 1], 2), Err(overflow.clone()));
        assert_eq!(min_window_sum(&[u64::MAX, 1], 2), Err(overflow.clone()));
        // Only the windows that pass u64::MAX fail.
        assert_eq!(max_window_sum(&[u64::MAX, 1], 1), Ok(Some(u64::MAX)));
        assert_eq!(min_window_sum(&[u64::MAX, 1, 2], 2), Ok(Some(3)));
        let p = PrefixSums::new(&[u64::MAX, 1, 2]);
        assert_eq!(p.window_sum(0, 2), Err(overflow.clone()));
        assert_eq!(p.window_sum(1, 2), Ok(3));
        assert_eq!(p.max_window_sum(2), Err(overflow.clone()));
        assert_eq!(p.min_window_sum(3), Err(overflow));
    }

    #[test]
    fn prefix_scan_matches_sliding_oracle() {
        // Deterministic pseudo-random trace exercising both directions.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let values: Vec<u64> = (0..257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 10_000
            })
            .collect();
        let p = PrefixSums::new(&values);
        for k in 0..=values.len() + 1 {
            assert_eq!(
                p.max_window_sum(k),
                Ok(window_sum_sliding_oracle(&values, k, true)),
                "max mismatch at k={k}"
            );
            assert_eq!(
                p.min_window_sum(k),
                Ok(window_sum_sliding_oracle(&values, k, false)),
                "min mismatch at k={k}"
            );
        }
    }

    #[test]
    fn prefix_sums_handle_huge_values_without_table_overflow() {
        // Total sum exceeds u64 (would wrap a u64 prefix table), but each
        // window of 1 still fits.
        let big = u64::MAX / 2;
        let values = [big, big, big];
        let p = PrefixSums::new(&values);
        assert_eq!(p.max_window_sum(1), Ok(Some(big)));
        assert_eq!(p.min_window_sum(1), Ok(Some(big)));
        assert_eq!(p.window_sum(2, 1), Ok(big));
    }

    #[test]
    fn narrow_and_wide_tables_agree_at_the_boundary() {
        // Total exactly u64::MAX: still the narrow u64 table.
        let narrow = [u64::MAX - 10, 4, 6];
        let p = PrefixSums::new(&narrow);
        assert!(matches!(p.table, Table::Narrow(_)));
        assert_eq!(p.max_window_sum(2), Ok(Some(u64::MAX - 6)));
        assert_eq!(p.min_window_sum(2), Ok(Some(10)));
        // One more unit of demand: wide fallback, same per-window answers.
        let wide = [u64::MAX - 10, 4, 7];
        let p = PrefixSums::new(&wide);
        assert!(matches!(p.table, Table::Wide(_)));
        assert_eq!(p.max_window_sum(2), Ok(Some(u64::MAX - 6)));
        assert_eq!(p.min_window_sum(2), Ok(Some(11)));
        assert_eq!(p.window_sum(1, 2), Ok(11));
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let values: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let times: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * 2.5).collect();
        for mode in [
            WindowMode::Exact,
            WindowMode::Strided {
                exact_upto: 10,
                stride: 7,
            },
        ] {
            let scans = |par: Parallelism| {
                par.scope(|| {
                    (
                        max_window_sums(&values, 500, mode).unwrap(),
                        min_window_sums(&values, 500, mode).unwrap(),
                        min_spans(&times, 500, mode).unwrap(),
                        max_spans(&times, 500, mode).unwrap(),
                    )
                })
            };
            let seq = scans(Parallelism::Seq);
            for par in [
                Parallelism::Threads(2),
                Parallelism::Threads(3),
                Parallelism::Threads(16),
                Parallelism::Auto,
            ] {
                assert_eq!(scans(par), seq, "scans differ under {par:?} {mode:?}");
            }
        }
    }

    #[test]
    fn window_sums_past_u64_max_are_an_error_at_any_worker_count() {
        // K·N = 2^23, large enough that a worker count could split it.
        let mut values = vec![1u64; 4096];
        values[0] = u64::MAX;
        for par in [Parallelism::Seq, Parallelism::Threads(2)] {
            let (mx, mn) = par.scope(|| {
                (
                    max_window_sums(&values, 2048, WindowMode::Exact),
                    min_window_sums(&values, 2048, WindowMode::Exact),
                )
            });
            assert_eq!(
                mx,
                Err(EventError::Overflow { what: "window sum" }),
                "{par:?}"
            );
            // No smallest window holds the huge demand: every minimum fits.
            assert_eq!(mn, Ok((1..=2048).collect::<Vec<u64>>()), "{par:?}");
        }
    }

    #[test]
    fn exact_sums_are_monotone_in_k() {
        let maxs = max_window_sums(&V, 8, WindowMode::Exact).unwrap();
        let mins = min_window_sums(&V, 8, WindowMode::Exact).unwrap();
        for w in maxs.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for w in mins.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Upper dominates lower pointwise.
        for (u, l) in maxs.iter().zip(&mins) {
            assert!(u >= l);
        }
    }

    #[test]
    fn strided_upper_dominates_exact() {
        let exact = max_window_sums(&V, 8, WindowMode::Exact).unwrap();
        let strided = max_window_sums(
            &V,
            8,
            WindowMode::Strided {
                exact_upto: 2,
                stride: 3,
            },
        )
        .unwrap();
        for (k, (e, s)) in exact.iter().zip(&strided).enumerate() {
            assert!(s >= e, "strided below exact at k={}", k + 1);
        }
    }

    #[test]
    fn strided_lower_is_dominated_by_exact() {
        let exact = min_window_sums(&V, 8, WindowMode::Exact).unwrap();
        let strided = min_window_sums(
            &V,
            8,
            WindowMode::Strided {
                exact_upto: 2,
                stride: 3,
            },
        )
        .unwrap();
        for (k, (e, s)) in exact.iter().zip(&strided).enumerate() {
            assert!(s <= e, "strided above exact at k={}", k + 1);
        }
    }

    #[test]
    fn strided_grid_contains_kmax() {
        let grid = WindowMode::Strided {
            exact_upto: 3,
            stride: 4,
        }
        .grid(10);
        assert_eq!(grid, vec![1, 2, 3, 7, 10]);
        let grid = WindowMode::Strided {
            exact_upto: 3,
            stride: 4,
        }
        .grid(11);
        assert_eq!(grid, vec![1, 2, 3, 7, 11]);
    }

    #[test]
    fn strided_grid_clamps_exact_upto_at_kmax() {
        // exact_upto = k_max: plain dense grid, no point beyond k_max.
        let grid = WindowMode::Strided {
            exact_upto: 6,
            stride: 3,
        }
        .grid(6);
        assert_eq!(grid, vec![1, 2, 3, 4, 5, 6]);
        // exact_upto > k_max: same, and no overflow even at usize::MAX.
        let grid = WindowMode::Strided {
            exact_upto: 9,
            stride: 3,
        }
        .grid(6);
        assert_eq!(grid, vec![1, 2, 3, 4, 5, 6]);
        let grid = WindowMode::Strided {
            exact_upto: usize::MAX,
            stride: 1,
        }
        .grid(4);
        assert_eq!(grid, vec![1, 2, 3, 4]);
        // The clamped grids drive the full analysis without error.
        let sums = max_window_sums(
            &V,
            6,
            WindowMode::Strided {
                exact_upto: 8,
                stride: 2,
            },
        )
        .unwrap();
        assert_eq!(sums, max_window_sums(&V, 6, WindowMode::Exact).unwrap());
    }

    #[test]
    fn strided_grid_survives_strides_near_usize_max() {
        // exact_upto + stride would wrap: the grid must stay ascending
        // and end at k_max, exactly as any stride ≥ k_max does.
        for stride in [usize::MAX, usize::MAX - 1, 10, 1000] {
            let mode = WindowMode::Strided {
                exact_upto: 3,
                stride,
            };
            assert_eq!(mode.grid(10), vec![1, 2, 3, 10], "stride {stride}");
            let wide = WindowMode::Strided {
                exact_upto: 3,
                stride: 1000,
            };
            assert_eq!(
                max_window_sums(&V, 8, mode).unwrap(),
                max_window_sums(&V, 8, wide).unwrap(),
                "stride {stride}"
            );
            assert_eq!(
                min_window_sums(&V, 8, mode).unwrap(),
                min_window_sums(&V, 8, wide).unwrap(),
                "stride {stride}"
            );
        }
        // A stride that fits once keeps its one interior point; the
        // step after it would wrap and ends the grid at k_max.
        let grid = WindowMode::Strided {
            exact_upto: 2,
            stride: usize::MAX - 3,
        }
        .grid(usize::MAX);
        assert_eq!(grid, vec![1, 2, usize::MAX - 1, usize::MAX]);
    }

    #[test]
    fn sums_validate_parameters() {
        assert!(max_window_sums(&V, 0, WindowMode::Exact).is_err());
        assert!(max_window_sums(&V, 9, WindowMode::Exact).is_err());
        assert!(max_window_sums(
            &V,
            4,
            WindowMode::Strided {
                exact_upto: 1,
                stride: 0
            }
        )
        .is_err());
    }

    /// The naive fold over every span of `k` stamps, as `min_spans` ran
    /// it before it shared the window kernel, with a zero span reported
    /// as `+0.0`: the oracle of the blocked span scan.
    fn span_oracle(times: &[f64], k: usize, maximize: bool) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let diffs = times[k - 1..].iter().zip(times).map(|(hi, lo)| hi - lo);
        let best = if maximize {
            diffs.fold(f64::NEG_INFINITY, f64::max)
        } else {
            diffs.fold(f64::INFINITY, f64::min)
        };
        best + 0.0
    }

    /// [`span_oracle`] on every grid size, filled like [`spans`].
    fn spans_oracle(times: &[f64], k_max: usize, mode: WindowMode, maximize: bool) -> Vec<f64> {
        let grid = mode.grid(k_max);
        let exact: Vec<f64> = grid.iter().map(|&k| span_oracle(times, k, maximize)).collect();
        fill_gaps(&grid, &exact, k_max, maximize, 0.0)
    }

    #[test]
    fn spans_basic() {
        let t = [0.0, 1.0, 1.2, 5.0, 5.1];
        let mins = min_spans(&t, 5, WindowMode::Exact).unwrap();
        let maxs = max_spans(&t, 5, WindowMode::Exact).unwrap();
        assert_eq!(mins[0], 0.0);
        assert!((mins[1] - 0.1).abs() < 1e-12);
        assert!((maxs[1] - 3.8).abs() < 1e-12);
        assert!((mins[4] - 5.1).abs() < 1e-12);
        assert!(min_spans(&t, 6, WindowMode::Exact).is_err());
        // The bounds need sorted finite stamps: anything else is refused.
        for (bad, index) in [(vec![0.0, 2.0, 1.0], 2), (vec![0.0, f64::NAN, 1.0], 1)] {
            let err = Err(EventError::UnsortedTimestamps { index });
            assert_eq!(min_spans(&bad, 2, WindowMode::Exact), err);
            assert_eq!(max_spans(&bad, 2, WindowMode::Exact), err);
        }
    }

    #[test]
    fn blocked_spans_equal_the_naive_fold_bitwise() {
        let mut x = 0x5851_F42D_4C95_7F2Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 2000;
        let mut walk = |step: &mut dyn FnMut(u64) -> f64| {
            let mut clock = 0.0f64;
            (0..n)
                .map(|_| {
                    clock += step(next());
                    clock
                })
                .collect::<Vec<f64>>()
        };
        let random = walk(&mut |r| (r % 1_000_000) as f64 * 1e-9);
        // Runs of 1..32 equal stamps, some in near-equal bursts.
        let bursts = walk(&mut |r| match r % 32 {
            0 => (r >> 8) as f64 % 997.0 * 1e-3,
            1..=3 => 1e-12,
            _ => 0.0,
        });
        // Every span of a size equal: no block can be skipped.
        let constant: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        // Near ±f64::MAX: long spans overflow to ∞, and so does the
        // shift of a cut by 15 or more gaps.
        let huge: Vec<f64> = (0..n).map(|i| (i as f64 - 1000.0) * 1.5e305).collect();
        // Where one ulp (~1.2e-10) is a sizeable share of a gap.
        let offset: Vec<f64> = walk(&mut |r| (r % 4000) as f64 * 1e-10)
            .into_iter()
            .map(|t| t + 1e6)
            .collect();
        // A run of signed zeros (`−0.0 − 0.0` is `−0.0`), then steps.
        let mut zeros = walk(&mut |r| (r % 3) as f64 * 0.1);
        for (i, t) in zeros.iter_mut().take(300).enumerate() {
            *t = if i % 3 == 2 { -0.0 } else { 0.0 };
        }
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let modes = [
            WindowMode::Exact,
            WindowMode::Strided { exact_upto: 5, stride: 7 },
            WindowMode::Strided { exact_upto: 40, stride: 33 },
            WindowMode::Strided { exact_upto: 0, stride: 19 },
        ];
        for (name, t) in [
            ("random", &random),
            ("bursts", &bursts),
            ("constant", &constant),
            ("huge", &huge),
            ("offset", &offset),
            ("zeros", &zeros),
        ] {
            for k_max in [1, 2, 15, 16, 17, n] {
                for mode in modes {
                    for maximize in [false, true] {
                        assert_eq!(
                            bits(&spans(t, k_max, mode, maximize).unwrap()),
                            bits(&spans_oracle(t, k_max, mode, maximize)),
                            "{name} k_max {k_max} {mode:?} maximize {maximize}"
                        );
                    }
                }
            }
        }
        // The signed zeros do reach the results: as `+0.0` only.
        let mins = min_spans(&zeros, 300, WindowMode::Exact).unwrap();
        assert!(mins.iter().all(|d| d.to_bits() == 0));
    }

    #[test]
    fn spans_are_monotone_in_k() {
        let t = [0.0, 0.5, 2.0, 2.1, 2.2, 7.0];
        let mins = min_spans(&t, 6, WindowMode::Exact).unwrap();
        let maxs = max_spans(&t, 6, WindowMode::Exact).unwrap();
        for w in mins.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        for w in maxs.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn strided_spans_are_conservative() {
        let t: Vec<f64> = (0..40).map(|i| (i as f64).sqrt() * 3.0).collect();
        let exact_min = min_spans(&t, 40, WindowMode::Exact).unwrap();
        let strided_min = min_spans(
            &t,
            40,
            WindowMode::Strided {
                exact_upto: 5,
                stride: 7,
            },
        )
        .unwrap();
        for (e, s) in exact_min.iter().zip(&strided_min) {
            // Under-approximated spans ⇒ more events fit a window: sound for
            // upper arrival curves.
            assert!(s <= e);
        }
        let exact_max = max_spans(&t, 40, WindowMode::Exact).unwrap();
        let strided_max = max_spans(
            &t,
            40,
            WindowMode::Strided {
                exact_upto: 5,
                stride: 7,
            },
        )
        .unwrap();
        for (e, s) in exact_max.iter().zip(&strided_max) {
            assert!(s >= e);
        }
    }

    #[test]
    fn span_minima_match_a_whole_prefix_rescan_bitwise() {
        // Random streams of stamps that are mostly sorted, with ties, ±0,
        // NaN, ±∞ and inversions injected, each into tables of several
        // depths. At random points every table must equal the Exact
        // rescan of the whole prefix bit for bit, or fail exactly as a
        // timed trace of that prefix would.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut checked, mut rejected) = (0usize, 0usize);
        for walk in 0..24 {
            let depths = [
                1 + (next() % 3) as usize,
                2 + (next() % 40) as usize,
                64 + (next() % 80) as usize,
            ];
            let mut tables = depths.map(SpanMinima::new);
            let mut prefix: Vec<f64> = Vec::new();
            let mut clock = 0.0f64;
            // A third of the walks never see a bad stamp.
            let bad_odds = [u64::MAX, 4000, 800][walk % 3];
            for step in 0..2000 {
                let r = next();
                let t = match r % bad_odds {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => clock - ((r >> 32) % 16 + 1) as f64 * 0.01, // inversion
                    // A run of signed zeros opens some walks.
                    _ if walk % 4 == 1 && step < 400 => [0.0, -0.0][(r >> 8) as usize & 1],
                    _ => {
                        // Ties and small steps, in binary-unfriendly units.
                        clock += ((r >> 16) % 4) as f64 * 0.1;
                        clock
                    }
                };
                prefix.push(t);
                for table in &mut tables {
                    table.push(t);
                }
                if (r >> 24) % 53 != 0 && step != 1999 {
                    continue;
                }
                let bad = (0..prefix.len())
                    .find(|&i| !prefix[i].is_finite() || (i > 0 && prefix[i] < prefix[i - 1]));
                for (table, &depth) in tables.iter().zip(&depths) {
                    assert_eq!(table.len(), prefix.len());
                    match (bad, table.min_spans()) {
                        (Some(index), got) => {
                            assert_eq!(got, Err(EventError::UnsortedTimestamps { index }));
                            rejected += 1;
                        }
                        (None, got) => {
                            let want = min_spans(&prefix, depth, WindowMode::Exact);
                            assert_eq!(
                                got.map(bits),
                                want.as_deref().map(bits).map_err(Clone::clone),
                                "walk {walk} step {step} depth {depth}"
                            );
                            assert_eq!(
                                table.duration().to_bits(),
                                (prefix[prefix.len() - 1] - prefix[0]).to_bits()
                            );
                            checked += usize::from(prefix.len() >= depth);
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} full comparisons");
        assert!(rejected > 100, "only {rejected} rejections");
    }

    #[test]
    fn uniform_values_make_linear_curves() {
        let v = [4u64; 10];
        let maxs = max_window_sums(&v, 10, WindowMode::Exact).unwrap();
        for (i, m) in maxs.iter().enumerate() {
            assert_eq!(*m, 4 * (i as u64 + 1));
        }
    }
}
