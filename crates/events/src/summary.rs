//! Mergeable chunk summaries for workload curves.
//!
//! A [`CurveSummary`] condenses a contiguous run of event demands into the
//! exact `(k, max/min window sum)` table over a window-size grid plus the
//! raw boundary values needed to resolve windows that straddle a chunk
//! boundary. Two summaries over adjacent runs combine with [`CurveSummary::merge`]
//! into the summary of the concatenated run — *exactly*, not approximately:
//! every window of the combined run is either interior to the left chunk,
//! interior to the right chunk, or crosses the seam, and a crossing window
//! of size `k` is a suffix of the left chunk glued to a prefix of the right
//! chunk, both shorter than `k ≤ k_max`. Keeping the last/first
//! `k_max − 1` raw values per chunk therefore suffices to enumerate every
//! crossing window.
//!
//! Because `u64` max/min is associative and commutative, any merge order —
//! left fold, pairwise tree, parallel tree-reduce — produces bit-identical
//! tables, which is what makes the structure useful three times over:
//!
//! 1. **Trace-parallel construction** ([`summarize`]): chunks are
//!    summarized independently on `wcm-par` and tree-folded, parallelizing
//!    over the trace dimension instead of the window-size dimension.
//! 2. **Incremental appends** ([`CurveSummary::append`], [`SummarySpine`]):
//!    extending a summarized trace by one event costs `O(k_max)` instead of
//!    an `O(N·K)` rescan, and a logarithmic spine of sealed chunks keeps
//!    merge work bounded regardless of trace length.
//! 3. **Prefix sharing**: replays that perturb only a suffix of a trace
//!    (fault-seeded sweep points) reuse the unperturbed prefix's summary
//!    and only re-summarize the tail.
//!
//! The crossing-window scan in `merge` is dominance-pruned: suffix sums of
//! the left tail and prefix sums of the right head are monotone in length,
//! so a single `O(1)` bound per window size decides whether the seam can
//! beat the interior extremum before any per-split work is done — the same
//! pruning idea the `minplus` envelope fold uses.

use crate::window::PrefixSums;
use crate::EventError;
use wcm_par::Parallelism;

/// Which extrema a summary carries. One-sided summaries skip half the
/// table work — [`crate::window::max_window_sums`] only ever reads maxima,
/// and paying for minima there would halve the parallel speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sides {
    /// Maximum window sums only (`γᵘ` construction).
    Max,
    /// Minimum window sums only (`γˡ` construction).
    Min,
    /// Both extrema in one pass (spines, monitors).
    Both,
}

impl Sides {
    fn wants_max(self) -> bool {
        matches!(self, Self::Max | Self::Both)
    }

    fn wants_min(self) -> bool {
        matches!(self, Self::Min | Self::Both)
    }
}

/// Identity for the max fold: no window yet, nothing beats a real sum.
const MAX_IDENTITY: u64 = 0;
/// Identity for the min fold.
const MIN_IDENTITY: u64 = u64::MAX;

const OVERFLOW: &str = "window sum exceeds u64::MAX";

/// Exact, mergeable summary of a contiguous demand run. See the module
/// docs for the invariants; the short version:
///
/// * `max_win[j]` / `min_win[j]` are the exact extrema of all
///   `grid[j]`-sized windows inside the run (identities when
///   `grid[j] > len`),
/// * `head` / `tail` are the first / last `min(len, k_max − 1)` raw
///   values, where `k_max = grid.last()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurveSummary {
    grid: Vec<usize>,
    sides: Sides,
    len: usize,
    total: u128,
    max_win: Vec<u64>,
    min_win: Vec<u64>,
    head: Vec<u64>,
    tail: Vec<u64>,
}

/// The raw fields of a [`CurveSummary`], for serializers that need to
/// take a summary apart and rebuild it elsewhere (the `wcm-wire` binary
/// codec). Rebuilding goes through [`CurveSummary::from_parts`], which
/// re-checks the structural invariants, so a decoded blob can never
/// materialize a summary the constructors would have refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryParts {
    /// Window-size grid (non-empty, strictly ascending, starts ≥ 1).
    pub grid: Vec<usize>,
    /// Which extrema the tables carry.
    pub sides: Sides,
    /// Number of events summarized.
    pub len: usize,
    /// Total demand of the run.
    pub total: u128,
    /// Per-grid maximum window sums (identity `0` where unresolved).
    pub max_win: Vec<u64>,
    /// Per-grid minimum window sums (identity `u64::MAX` where
    /// unresolved).
    pub min_win: Vec<u64>,
    /// First `min(len, k_max − 1)` raw values.
    pub head: Vec<u64>,
    /// Last `min(len, k_max − 1)` raw values.
    pub tail: Vec<u64>,
}

impl CurveSummary {
    /// Summary of the empty run: the merge identity.
    #[must_use]
    pub fn empty(grid: &[usize], sides: Sides) -> Self {
        assert_grid(grid);
        Self {
            grid: grid.to_vec(),
            sides,
            len: 0,
            total: 0,
            max_win: vec![MAX_IDENTITY; grid.len()],
            min_win: vec![MIN_IDENTITY; grid.len()],
            head: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Summarize `values` in one blocked pass over its prefix-sum table.
    ///
    /// `grid` must be non-empty and strictly ascending with `grid[0] ≥ 1`;
    /// window sizes larger than `values.len()` are allowed and keep their
    /// identity entries (they resolve once enough data is merged in).
    #[must_use]
    pub fn from_values(values: &[u64], grid: &[usize], sides: Sides) -> Self {
        assert_grid(grid);
        let k_max = *grid.last().expect("grid is non-empty");
        let (max_win, min_win) = if values.is_empty() {
            (
                vec![MAX_IDENTITY; grid.len()],
                vec![MIN_IDENTITY; grid.len()],
            )
        } else {
            let prefix = PrefixSums::new(values);
            match sides {
                Sides::Both => prefix.scan_grid_both(grid),
                Sides::Max => (
                    prefix.scan_grid(grid, true),
                    vec![MIN_IDENTITY; grid.len()],
                ),
                Sides::Min => (
                    vec![MAX_IDENTITY; grid.len()],
                    prefix.scan_grid(grid, false),
                ),
            }
        };
        let boundary = values.len().min(k_max - 1);
        Self {
            grid: grid.to_vec(),
            sides,
            len: values.len(),
            total: values.iter().map(|&v| u128::from(v)).sum(),
            max_win,
            min_win,
            head: values[..boundary].to_vec(),
            tail: values[values.len() - boundary..].to_vec(),
        }
    }

    /// Rebuild a summary from its raw fields, re-checking every
    /// structural invariant ([`SummaryParts`] documents them). This is
    /// the only non-panicking constructor and exists for deserializers:
    /// hostile or corrupt parts come back as an error, never a malformed
    /// summary.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidSummary`] naming the violated
    /// invariant.
    pub fn from_parts(parts: SummaryParts) -> Result<Self, EventError> {
        let SummaryParts {
            grid,
            sides,
            len,
            total,
            max_win,
            min_win,
            head,
            tail,
        } = parts;
        let invalid = |what: &'static str| EventError::InvalidSummary { what };
        if grid.is_empty() {
            return Err(invalid("empty grid"));
        }
        if grid[0] < 1 {
            return Err(invalid("grid starts below 1"));
        }
        if !grid.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid("grid not strictly ascending"));
        }
        if max_win.len() != grid.len() || min_win.len() != grid.len() {
            return Err(invalid("table length differs from grid length"));
        }
        let k_max = *grid.last().expect("grid checked non-empty");
        let boundary = len.min(k_max - 1);
        if head.len() != boundary || tail.len() != boundary {
            return Err(invalid("boundary array length differs from min(len, k_max - 1)"));
        }
        for (j, &k) in grid.iter().enumerate() {
            if k > len {
                // Unresolved sizes must keep their fold identities, or a
                // later merge would mix garbage into real extrema.
                if max_win[j] != MAX_IDENTITY || min_win[j] != MIN_IDENTITY {
                    return Err(invalid("non-identity entry for unresolved window size"));
                }
            }
        }
        if !sides.wants_max() && max_win.iter().any(|&v| v != MAX_IDENTITY) {
            return Err(invalid("max table populated on a min-only summary"));
        }
        if !sides.wants_min() && min_win.iter().any(|&v| v != MIN_IDENTITY) {
            return Err(invalid("min table populated on a max-only summary"));
        }
        Ok(Self {
            grid,
            sides,
            len,
            total,
            max_win,
            min_win,
            head,
            tail,
        })
    }

    /// Take the summary apart into its raw fields (inverse of
    /// [`CurveSummary::from_parts`]).
    #[must_use]
    pub fn into_parts(self) -> SummaryParts {
        SummaryParts {
            grid: self.grid,
            sides: self.sides,
            len: self.len,
            total: self.total,
            max_win: self.max_win,
            min_win: self.min_win,
            head: self.head,
            tail: self.tail,
        }
    }

    /// The stored first `min(len, k_max − 1)` raw values.
    #[must_use]
    pub fn head(&self) -> &[u64] {
        &self.head
    }

    /// The stored last `min(len, k_max − 1)` raw values.
    #[must_use]
    pub fn tail(&self) -> &[u64] {
        &self.tail
    }

    /// Number of events summarized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events have been summarized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total demand of the run (wider than `u64` so totals cannot trap
    /// even when individual windows would).
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// The window-size grid this summary is exact on.
    #[must_use]
    pub fn grid(&self) -> &[usize] {
        &self.grid
    }

    /// Which sides this summary carries.
    #[must_use]
    pub fn sides(&self) -> Sides {
        self.sides
    }

    /// Exact per-grid maximum window sums (`0` where `grid[j] > len` or
    /// the summary is min-only).
    #[must_use]
    pub fn max_table(&self) -> &[u64] {
        &self.max_win
    }

    /// Exact per-grid minimum window sums (`u64::MAX` where
    /// `grid[j] > len` or the summary is max-only).
    #[must_use]
    pub fn min_table(&self) -> &[u64] {
        &self.min_win
    }

    /// Dense `γᵘ`-style table over `1..=k_max` (`k_max = grid.last()`),
    /// spreading grid gaps with the *next* grid value — the same sound
    /// over-approximation [`crate::window::max_window_sums`] uses.
    ///
    /// `None` when the summary is min-only or covers fewer than `k_max`
    /// events (identity entries would leak into the dense table).
    #[must_use]
    pub fn dense_max(&self) -> Option<Vec<u64>> {
        let k_max = *self.grid.last().expect("grid is non-empty");
        if !self.sides.wants_max() || self.len < k_max {
            return None;
        }
        Some(crate::window::fill_gaps(
            &self.grid,
            &self.max_win,
            k_max,
            true,
            0u64,
        ))
    }

    /// Dense `γˡ`-style table over `1..=k_max`, spreading gaps with the
    /// *previous* grid value (sound under-approximation). `None` when the
    /// summary is max-only or covers fewer than `k_max` events.
    #[must_use]
    pub fn dense_min(&self) -> Option<Vec<u64>> {
        let k_max = *self.grid.last().expect("grid is non-empty");
        if !self.sides.wants_min() || self.len < k_max {
            return None;
        }
        Some(crate::window::fill_gaps(
            &self.grid,
            &self.min_win,
            k_max,
            false,
            0u64,
        ))
    }

    /// Merge `self ⧺ other` (self is the *earlier* run) into the exact
    /// summary of the concatenation. Associative; bit-identical to
    /// summarizing the concatenated values directly.
    ///
    /// # Panics
    ///
    /// Panics if the grids or sides differ, or if a crossing window sum
    /// overflows `u64` (the sequential scan panics on the same input).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge_in_place(other);
        out
    }

    /// In-place [`merge`](CurveSummary::merge): folds `other` (the *later*
    /// run) into `self`, reusing `self`'s window tables and head/tail
    /// buffers instead of allocating a fresh summary per merge. Long
    /// chunk folds (e.g. the sweep demand memo) keep one accumulator live.
    ///
    /// # Panics
    ///
    /// Panics if the grids or sides differ, or if a crossing window sum
    /// overflows `u64` (the sequential scan panics on the same input).
    pub fn merge_in_place(&mut self, other: &Self) {
        assert_eq!(self.grid, other.grid, "summary grids must match");
        assert_eq!(self.sides, other.sides, "summary sides must match");
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        let k_max = *self.grid.last().expect("grid is non-empty");
        // Monotone seam profiles: suf[i] = sum of the last i values of
        // self, pre[j] = sum of the first j values of other. Every
        // crossing window of size k is suf[i] + pre[k − i] for exactly one
        // split i, and monotonicity gives O(1) dominance bounds per k.
        let suf = suffix_sums(&self.tail);
        let pre = prefix_sums(&other.head);
        let ta = self.tail.len();
        let hb = other.head.len();
        let merged_len = self.len + other.len;
        // Window tables update in place: entries with k > merged_len are
        // already identities (k exceeds self.len too) and stay untouched.
        for j in 0..self.grid.len() {
            let k = self.grid[j];
            if k > merged_len {
                continue;
            }
            let mut mx = self.max_win[j].max(other.max_win[j]);
            let mut mn = self.min_win[j].min(other.min_win[j]);
            // Crossing splits: i values from self's tail, k − i from
            // other's head. The head/tail lengths already encode the
            // chunk-length caps (i ≤ len_a, k − i ≤ len_b).
            let i_lo = 1.max(k.saturating_sub(hb));
            let i_hi = ta.min(k - 1);
            if i_lo <= i_hi {
                // One checked add proves every crossing sum of this k fits
                // in u64 (suf and pre are monotone, so `ub` dominates them
                // all); the scans below can use plain adds.
                let ub = suf[i_hi].checked_add(pre[k - i_lo]).expect(OVERFLOW);
                let a = &suf[i_lo..=i_hi];
                let b = &pre[k - i_hi..=k - i_lo];
                if self.sides.wants_max() && ub > mx {
                    mx = a
                        .iter()
                        .zip(b.iter().rev())
                        .fold(mx, |m, (&x, &y)| m.max(x + y));
                }
                if self.sides.wants_min() && suf[i_lo] + pre[k - i_hi] < mn {
                    mn = a
                        .iter()
                        .zip(b.iter().rev())
                        .fold(mn, |m, (&x, &y)| m.min(x + y));
                }
            }
            self.max_win[j] = mx;
            self.min_win[j] = mn;
        }
        let boundary = k_max - 1;
        if self.len < boundary {
            let want = (boundary - self.len).min(other.head.len());
            self.head.extend_from_slice(&other.head[..want]);
        }
        if other.len >= boundary {
            self.tail.clear();
            self.tail.extend_from_slice(&other.tail);
        } else {
            let want = (boundary - other.len).min(self.tail.len());
            self.tail.drain(..self.tail.len() - want);
            self.tail.extend_from_slice(&other.tail);
        }
        self.len = merged_len;
        self.total += other.total;
    }

    /// Extend the run by one event in `O(k_max)`: the only new windows
    /// are those *ending* at the appended value, and all of their earlier
    /// values live in the stored tail.
    pub fn append(&mut self, value: u64) {
        let k_max = *self.grid.last().expect("grid is non-empty");
        self.len += 1;
        self.total += u128::from(value);
        // Walk the tail backwards, growing the suffix sum one value at a
        // time; whenever the suffix length hits a grid size, fold it in.
        let mut gi = 0;
        let mut sum = value;
        let mut size = 1usize;
        loop {
            while gi < self.grid.len() && self.grid[gi] < size {
                gi += 1;
            }
            if gi >= self.grid.len() {
                break;
            }
            if self.grid[gi] == size && size <= self.len {
                if self.sides.wants_max() {
                    self.max_win[gi] = self.max_win[gi].max(sum);
                }
                if self.sides.wants_min() {
                    self.min_win[gi] = self.min_win[gi].min(sum);
                }
                gi += 1;
                if gi >= self.grid.len() {
                    break;
                }
            }
            if size > self.tail.len() {
                break;
            }
            sum = sum
                .checked_add(self.tail[self.tail.len() - size])
                .expect(OVERFLOW);
            size += 1;
        }
        if self.head.len() + 1 < k_max {
            self.head.push(value);
        }
        if k_max > 1 {
            if self.tail.len() + 1 == k_max {
                self.tail.remove(0);
            }
            self.tail.push(value);
        }
    }
}

/// `out[i]` = sum of the last `i` values (so `out[0] = 0`). Each entry is
/// a genuine window sum of the underlying run, so overflow means the
/// sequential oracle would have panicked too.
fn suffix_sums(tail: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(tail.len() + 1);
    out.push(0);
    let mut acc = 0u64;
    for &v in tail.iter().rev() {
        acc = acc.checked_add(v).expect(OVERFLOW);
        out.push(acc);
    }
    out
}

/// `out[j]` = sum of the first `j` values (so `out[0] = 0`).
fn prefix_sums(head: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(head.len() + 1);
    out.push(0);
    let mut acc = 0u64;
    for &v in head {
        acc = acc.checked_add(v).expect(OVERFLOW);
        out.push(acc);
    }
    out
}

fn assert_grid(grid: &[usize]) {
    assert!(!grid.is_empty(), "summary grid must be non-empty");
    assert!(grid[0] >= 1, "summary grid sizes start at 1");
    assert!(
        grid.windows(2).all(|w| w[0] < w[1]),
        "summary grid must be strictly ascending"
    );
}

/// Trace-parallel summary construction: split `values` into one chunk per
/// worker of the [`Parallelism::current`] setting, summarize the chunks
/// independently, and fold the summaries pairwise. Bit-identical to
/// [`CurveSummary::from_values`] on the whole slice for any worker
/// count, including 1.
#[must_use]
pub fn summarize(values: &[u64], grid: &[usize], sides: Sides) -> CurveSummary {
    assert_grid(grid);
    let per_side = match sides {
        Sides::Both => 2,
        Sides::Max | Sides::Min => 1,
    };
    let cost = values.len() as u64 * grid.len() as u64 * per_side;
    let workers = Parallelism::current().workers(values.len(), cost);
    if workers <= 1 || values.len() < 2 {
        return CurveSummary::from_values(values, grid, sides);
    }
    // One chunk per worker; chunks at least k_max long so the summarize
    // pass dominates the (serial) merge work.
    let k_max = *grid.last().expect("grid is non-empty");
    let chunk = values.len().div_ceil(workers).max(k_max).max(1);
    let ranges: Vec<(usize, usize)> = (0..values.len())
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(values.len())))
        .collect();
    wcm_obs::counter("summary.chunks", ranges.len() as u64);
    let mut summaries = wcm_par::par_map(&ranges, cost, |_, &(s, e)| {
        let _span = wcm_obs::span("summary.chunk");
        CurveSummary::from_values(&values[s..e], grid, sides)
    });
    // Pairwise tree fold: same result as any other order (the merge is
    // exact), chosen for its log depth.
    let _fold_span = wcm_obs::span("summary.fold");
    while summaries.len() > 1 {
        summaries = summaries
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    pair[0].merge(&pair[1])
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    summaries.pop().expect("at least one chunk")
}

/// Logarithmic spine of sealed chunk summaries plus one open append
/// chunk: `O(k_max)` per push amortized, with merge work bounded by the
/// spine depth instead of the trace length.
///
/// The spine is a binary counter: sealing the open chunk inserts it at
/// level 0 and carries (merging older-into-newer) until it finds a free
/// level, exactly like binary increment. [`SummarySpine::curve`] folds
/// the levels oldest-first and finishes with the open chunk — the result
/// is bit-identical to summarizing the full pushed sequence at once.
#[derive(Debug, Clone)]
pub struct SummarySpine {
    grid: Vec<usize>,
    sides: Sides,
    chunk_target: usize,
    open: CurveSummary,
    /// `levels[d]` holds a sealed summary of `chunk_target · 2^d` events,
    /// or `None`. Higher levels are older in push order.
    levels: Vec<Option<CurveSummary>>,
    /// Fold of every sealed level, oldest-first, refreshed on carry —
    /// levels only change when a chunk seals, so [`SummarySpine::curve`]
    /// is a single merge between seals.
    folded: Option<CurveSummary>,
    pushed: usize,
}

impl SummarySpine {
    /// New spine over `grid`/`sides`, sealing the open chunk every
    /// `chunk_target` events (clamped to at least `4 · k_max` so the
    /// boundary arrays stay a small fraction of each sealed chunk).
    #[must_use]
    pub fn new(grid: &[usize], sides: Sides, chunk_target: usize) -> Self {
        assert_grid(grid);
        let k_max = *grid.last().expect("grid is non-empty");
        let chunk_target = chunk_target.max(4 * k_max).max(1);
        Self {
            grid: grid.to_vec(),
            sides,
            chunk_target,
            open: CurveSummary::empty(grid, sides),
            levels: Vec::new(),
            folded: None,
            pushed: 0,
        }
    }

    /// Number of events pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// `true` when nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Append one event (`O(k_max)` amortized).
    pub fn push(&mut self, value: u64) {
        self.open.append(value);
        self.pushed += 1;
        if self.open.len() >= self.chunk_target {
            let sealed = std::mem::replace(&mut self.open, CurveSummary::empty(&self.grid, self.sides));
            self.carry(sealed);
        }
    }

    /// Bulk-append a slice: summarize whole chunks directly instead of
    /// pushing event by event, and fold partial runs into the open chunk
    /// with one exact merge — the blocked summarize kernel is an order of
    /// magnitude faster per window slot than the scalar [`CurveSummary::
    /// append`] walk, so bulk arrivals (a GOP at a time) should never pay
    /// the per-event constant. Bit-identical to pushing one by one.
    pub fn extend_from_slice(&mut self, values: &[u64]) {
        /// Below this many values the per-event walk is cheaper than a
        /// summarize-plus-merge round trip.
        const MERGE_MIN: usize = 64;
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.chunk_target - self.open.len();
            let take = room.min(rest.len());
            if self.open.is_empty() && take == self.chunk_target {
                // Fast path: a full chunk arrives at once.
                self.carry(CurveSummary::from_values(&rest[..take], &self.grid, self.sides));
            } else {
                if take >= MERGE_MIN {
                    let run = CurveSummary::from_values(&rest[..take], &self.grid, self.sides);
                    self.open = self.open.merge(&run);
                } else {
                    for &v in &rest[..take] {
                        self.open.append(v);
                    }
                }
                if self.open.len() >= self.chunk_target {
                    let sealed = std::mem::replace(
                        &mut self.open,
                        CurveSummary::empty(&self.grid, self.sides),
                    );
                    self.carry(sealed);
                }
            }
            self.pushed += take;
            rest = &rest[take..];
        }
    }

    fn carry(&mut self, mut incoming: CurveSummary) {
        for level in &mut self.levels {
            match level.take() {
                None => {
                    *level = Some(incoming);
                    self.refold();
                    return;
                }
                Some(older) => incoming = older.merge(&incoming),
            }
        }
        self.levels.push(Some(incoming));
        self.refold();
    }

    /// Recompute the cached oldest-first fold of the sealed levels.
    /// Carries at level `d` happen every `2^d` seals, so the refold work
    /// amortizes to `O(1)` merges per seal.
    fn refold(&mut self) {
        let mut acc: Option<CurveSummary> = None;
        for level in self.levels.iter().rev().flatten() {
            acc = Some(match acc {
                None => level.clone(),
                Some(a) => a.merge(level),
            });
        }
        self.folded = acc;
    }

    /// The exact summary of everything pushed: the cached fold of the
    /// sealed levels merged with the open chunk — one merge, `O(K ·
    /// k_max)` worst case and usually far cheaper after pruning.
    #[must_use]
    pub fn curve(&self) -> CurveSummary {
        match &self.folded {
            None => self.open.clone(),
            Some(a) => a.merge(&self.open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{max_window_sums, min_window_sums, WindowMode};

    fn demo_values(n: usize) -> Vec<u64> {
        // Deterministic, spiky: exercises both extrema.
        let mut state = 0x9e37_79b9_u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 1000
            })
            .collect()
    }

    fn oracle(values: &[u64], grid: &[usize]) -> (Vec<u64>, Vec<u64>) {
        let mut maxs = vec![MAX_IDENTITY; grid.len()];
        let mut mins = vec![MIN_IDENTITY; grid.len()];
        for (j, &k) in grid.iter().enumerate() {
            if k > values.len() {
                continue;
            }
            for w in values.windows(k) {
                let s: u64 = w.iter().sum();
                maxs[j] = maxs[j].max(s);
                mins[j] = mins[j].min(s);
            }
        }
        (maxs, mins)
    }

    #[test]
    fn from_values_matches_oracle() {
        let values = demo_values(200);
        let grid: Vec<usize> = (1..=32).collect();
        let s = CurveSummary::from_values(&values, &grid, Sides::Both);
        let (maxs, mins) = oracle(&values, &grid);
        assert_eq!(s.max_table(), &maxs[..]);
        assert_eq!(s.min_table(), &mins[..]);
    }

    #[test]
    fn merge_is_exact_across_a_seam() {
        let values = demo_values(300);
        let grid = vec![1, 2, 3, 5, 8, 13, 21, 34];
        for split in [0, 1, 17, 33, 34, 150, 299, 300] {
            let a = CurveSummary::from_values(&values[..split], &grid, Sides::Both);
            let b = CurveSummary::from_values(&values[split..], &grid, Sides::Both);
            let merged = a.merge(&b);
            let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
            assert_eq!(merged.max_table(), whole.max_table(), "split {split}");
            assert_eq!(merged.min_table(), whole.min_table(), "split {split}");
            assert_eq!(merged.head, whole.head, "split {split}");
            assert_eq!(merged.tail, whole.tail, "split {split}");
            assert_eq!(merged.total(), whole.total());
        }
    }

    #[test]
    fn merge_in_place_matches_merge() {
        let values = demo_values(300);
        let grid = vec![1, 2, 3, 5, 8, 13, 21, 34];
        for chunk_len in [1, 7, 34, 50, 299] {
            let mut acc = CurveSummary::empty(&grid, Sides::Both);
            let mut consumed = 0;
            for chunk in values.chunks(chunk_len) {
                acc.merge_in_place(&CurveSummary::from_values(chunk, &grid, Sides::Both));
                consumed += chunk.len();
                // Oracle: a from-scratch summary of everything folded so far.
                let whole = CurveSummary::from_values(&values[..consumed], &grid, Sides::Both);
                assert_eq!(acc.max_table(), whole.max_table(), "chunk {chunk_len}");
                assert_eq!(acc.min_table(), whole.min_table(), "chunk {chunk_len}");
                assert_eq!(acc.head, whole.head, "chunk {chunk_len}");
                assert_eq!(acc.tail, whole.tail, "chunk {chunk_len}");
                assert_eq!(acc.len(), whole.len());
                assert_eq!(acc.total(), whole.total());
            }
        }
    }

    #[test]
    fn merge_handles_chunks_shorter_than_k_max() {
        let values = demo_values(40);
        let grid = vec![1, 4, 16, 25];
        // Chunks of 7 < k_max = 25: crossing windows span several chunks
        // only via repeated merging — head/tail reconstruction must stay
        // exact through every intermediate merge.
        let mut acc = CurveSummary::empty(&grid, Sides::Both);
        for chunk in values.chunks(7) {
            acc = acc.merge(&CurveSummary::from_values(chunk, &grid, Sides::Both));
        }
        let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
        assert_eq!(acc.max_table(), whole.max_table());
        assert_eq!(acc.min_table(), whole.min_table());
    }

    #[test]
    fn append_matches_rebuild() {
        let values = demo_values(120);
        let grid = vec![1, 2, 4, 8, 16];
        let mut s = CurveSummary::empty(&grid, Sides::Both);
        for (i, &v) in values.iter().enumerate() {
            s.append(v);
            let whole = CurveSummary::from_values(&values[..=i], &grid, Sides::Both);
            assert_eq!(s.max_table(), whole.max_table(), "after {} appends", i + 1);
            assert_eq!(s.min_table(), whole.min_table(), "after {} appends", i + 1);
        }
    }

    #[test]
    fn one_sided_summaries_keep_identities() {
        let values = demo_values(50);
        let grid = vec![1, 3, 9];
        let mx = CurveSummary::from_values(&values, &grid, Sides::Max);
        assert!(mx.min_table().iter().all(|&v| v == MIN_IDENTITY));
        let mn = CurveSummary::from_values(&values, &grid, Sides::Min);
        assert!(mn.max_table().iter().all(|&v| v == MAX_IDENTITY));
        let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
        assert_eq!(mx.max_table(), whole.max_table());
        assert_eq!(mn.min_table(), whole.min_table());
    }

    #[test]
    fn summarize_matches_dense_window_sums() {
        let values = demo_values(2_000);
        let k_max = 64;
        let grid: Vec<usize> = (1..=k_max).collect();
        let (maxs, mins) = Parallelism::Seq.scope(|| {
            (
                max_window_sums(&values, k_max, WindowMode::Exact).unwrap(),
                min_window_sums(&values, k_max, WindowMode::Exact).unwrap(),
            )
        });
        for par in [Parallelism::Seq, Parallelism::Threads(3), Parallelism::Auto] {
            let s = par.scope(|| summarize(&values, &grid, Sides::Both));
            assert_eq!(s.max_table(), &maxs[..]);
            assert_eq!(s.min_table(), &mins[..]);
        }
    }

    #[test]
    fn spine_matches_full_rebuild() {
        let values = demo_values(500);
        let grid = vec![1, 2, 5, 10];
        let mut spine = SummarySpine::new(&grid, Sides::Both, 1);
        for &v in &values {
            spine.push(v);
        }
        assert_eq!(spine.len(), values.len());
        let curve = spine.curve();
        let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
        assert_eq!(curve.max_table(), whole.max_table());
        assert_eq!(curve.min_table(), whole.min_table());
        assert_eq!(curve.len(), whole.len());
    }

    #[test]
    fn spine_extend_matches_push_loop() {
        let values = demo_values(700);
        let grid = vec![1, 4, 7];
        let mut pushed = SummarySpine::new(&grid, Sides::Both, 64);
        for &v in &values {
            pushed.push(v);
        }
        let mut extended = SummarySpine::new(&grid, Sides::Both, 64);
        extended.extend_from_slice(&values[..123]);
        extended.extend_from_slice(&values[123..]);
        let a = pushed.curve();
        let b = extended.curve();
        assert_eq!(a.max_table(), b.max_table());
        assert_eq!(a.min_table(), b.min_table());
        assert_eq!(extended.len(), values.len());
    }

    #[test]
    fn empty_is_a_merge_identity() {
        let grid = vec![1, 2, 3];
        let e = CurveSummary::empty(&grid, Sides::Both);
        let s = CurveSummary::from_values(&demo_values(10), &grid, Sides::Both);
        let left = e.merge(&s);
        let right = s.merge(&e);
        assert_eq!(left.max_table(), s.max_table());
        assert_eq!(right.max_table(), s.max_table());
        assert_eq!(left.min_table(), s.min_table());
        assert_eq!(right.min_table(), s.min_table());
    }
}
