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
//! tables. The structure has two uses:
//!
//! 1. **Trace-parallel construction** ([`summarize`]): chunks of one
//!    prefix table are scanned independently on `wcm-par` and their
//!    tables folded, parallelizing over the trace dimension instead of
//!    the window-size dimension. The whole table is at hand, so a chunk
//!    scans every window that starts in it and no seam needs merging.
//!    This is the multi-worker path of
//!    [`crate::window::max_window_sums`] and
//!    [`crate::window::min_window_sums`].
//! 2. **The wire codec**: a summary travels as a `.wcmt` SUMMARY frame
//!    ([`SummaryParts`]), and summaries decoded from separate chunks of a
//!    stream merge into the summary of the whole stream.
//!
//! A live stream that grows event by event does not go through here:
//! `wcm_core::monitor::EnvelopeMonitor` keeps its per-`k` running extrema.
//!
//! Every table comes out of the pruned window scan of
//! [`crate::window`], which skips the blocks of window starts that cannot
//! beat the extremum it starts from. `merge` scans only the seam, started
//! from both runs' extrema; the chunks of [`summarize`] start from exact
//! seeds taken from the whole trace, so each chunk skips what cannot beat
//! the whole trace's extremum, not only its own, and the chunks together
//! evaluate about as many windows as one pass ([`summarize_chunks`]).

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
    /// Both extrema in one pass.
    Both,
}

impl Sides {
    pub(crate) fn wants_max(self) -> bool {
        matches!(self, Self::Max | Self::Both)
    }

    pub(crate) fn wants_min(self) -> bool {
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
    ///
    /// # Panics
    ///
    /// Panics if the grid is malformed or a window extremum exceeds
    /// `u64::MAX` (callers with untrusted demands check the total first,
    /// as [`crate::window::max_window_sums`] does).
    #[must_use]
    pub fn from_values(values: &[u64], grid: &[usize], sides: Sides) -> Self {
        assert_grid(grid);
        Self::with_tables(values, grid, sides, window_tables(values, grid, sides, None))
    }

    /// The summary of `values` around its scanned window tables.
    fn with_tables(
        values: &[u64],
        grid: &[usize],
        sides: Sides,
        (max_win, min_win): (Vec<u64>, Vec<u64>),
    ) -> Self {
        let k_max = *grid.last().expect("grid is non-empty");
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

    /// Merge `self ⧺ other` (self is the *earlier* run) into the exact
    /// summary of the concatenation. Associative; bit-identical to
    /// summarizing the concatenated values directly.
    ///
    /// # Panics
    ///
    /// Panics if the grids or sides differ, or if a window around the
    /// seam sums past `u64::MAX` (never when the total of both runs fits
    /// `u64`).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge_in_place(other);
        out
    }

    /// [`merge`](CurveSummary::merge) into `self`: folds `other` (the
    /// *later* run) in, reusing `self`'s window tables and head/tail
    /// buffers.
    fn merge_in_place(&mut self, other: &Self) {
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
        // Every window that crosses the seam takes at most k_max − 1
        // values from each side, so it lies in tail ⧺ head. The windows
        // of tail ⧺ head that do not cross are windows of one run, already
        // in its tables, so folding in all of them is exact.
        let mut seam = Vec::with_capacity(self.tail.len() + other.head.len());
        seam.extend_from_slice(&self.tail);
        seam.extend_from_slice(&other.head);
        for j in 0..self.grid.len() {
            self.max_win[j] = self.max_win[j].max(other.max_win[j]);
            self.min_win[j] = self.min_win[j].min(other.min_win[j]);
        }
        // Starting the seam scan from both runs' extrema prunes every
        // seam block that cannot beat them.
        let start = Some((&self.max_win[..], &self.min_win[..]));
        (self.max_win, self.min_win) = window_tables(&seam, &self.grid, self.sides, start);
        let merged_len = self.len + other.len;
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
}

/// The max and min tables of `values` in one pruned scan of its prefix
/// table, each entry folded into its `start` (default: the identities,
/// which also stay for the sides not wanted and for `k > len`).
///
/// # Panics
///
/// Panics if a window extremum exceeds `u64::MAX`.
fn window_tables(
    values: &[u64],
    grid: &[usize],
    sides: Sides,
    start: Option<(&[u64], &[u64])>,
) -> (Vec<u64>, Vec<u64>) {
    if values.is_empty() {
        return match start {
            Some((maxs, mins)) => (maxs.to_vec(), mins.to_vec()),
            None => (vec![MAX_IDENTITY; grid.len()], vec![MIN_IDENTITY; grid.len()]),
        };
    }
    PrefixSums::new(values)
        .scan_grid(0..values.len(), grid, sides, start)
        .expect(OVERFLOW)
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
/// worker of the [`Parallelism::current`] setting and summarize them with
/// [`summarize_chunks`]. Bit-identical to [`CurveSummary::from_values`] on
/// the whole slice for any worker count, including 1.
#[must_use]
pub fn summarize(values: &[u64], grid: &[usize], sides: Sides) -> CurveSummary {
    assert_grid(grid);
    let workers = Parallelism::current().workers(values.len(), scan_cost(values, grid, sides));
    if workers <= 1 || values.len() < 2 {
        return CurveSummary::from_values(values, grid, sides);
    }
    summarize_chunks(values, grid, sides, workers)
}

/// [`summarize`] with `chunks` chunks, whatever the worker count: the
/// chunks are scanned on the [`Parallelism::current`] workers (on the
/// calling thread under [`Parallelism::Seq`]). Bit-identical to
/// [`CurveSummary::from_values`] on the whole slice.
///
/// All chunks read one prefix table of the whole trace, and each scans
/// the windows that *start* in it, reading on past its end, so every
/// window is scanned exactly once and the chunk tables fold entry by
/// entry: no seam between chunks is scanned twice. Before the chunks,
/// one bound pass over the whole trace takes exact seed windows
/// ([`PrefixSums::seed_tables`]) that every chunk scan starts from: a
/// chunk then skips each block of starts that cannot beat the whole
/// trace's seed, as one pass would, where on its own it would know only
/// its own smaller extrema and evaluate several times more windows.
///
/// # Panics
///
/// Panics if the grid is malformed or a window extremum exceeds
/// `u64::MAX`.
#[must_use]
pub fn summarize_chunks(values: &[u64], grid: &[usize], sides: Sides, chunks: usize) -> CurveSummary {
    assert_grid(grid);
    // Chunks of whole bound blocks: a chunk's starts past its last full
    // block have no bound and would all be evaluated.
    let chunk = values.len().div_ceil(chunks.max(1)).next_multiple_of(crate::window::BOUND_BLOCK);
    let ranges: Vec<(usize, usize)> = (0..values.len())
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(values.len())))
        .collect();
    wcm_obs::counter("summary.chunks", ranges.len() as u64);
    let table = PrefixSums::new(values);
    let seeds = {
        let _span = wcm_obs::span("summary.seeds");
        table.seed_tables(grid, sides)
    };
    let start = Some((&seeds.0[..], &seeds.1[..]));
    let parts = wcm_par::par_map(&ranges, scan_cost(values, grid, sides), |_, &(s, e)| {
        let _span = wcm_obs::span("summary.chunk");
        table.scan_grid(s..e, grid, sides, start).expect(OVERFLOW)
    });
    let (mut max_win, mut min_win) = seeds;
    for (maxs, mins) in &parts {
        for (acc, &v) in max_win.iter_mut().zip(maxs) {
            *acc = (*acc).max(v);
        }
        for (acc, &v) in min_win.iter_mut().zip(mins) {
            *acc = (*acc).min(v);
        }
    }
    CurveSummary::with_tables(values, grid, sides, (max_win, min_win))
}

/// Windows an unpruned scan of `values` would evaluate: the work hint
/// that decides how many workers a trace-parallel summary engages.
fn scan_cost(values: &[u64], grid: &[usize], sides: Sides) -> u64 {
    let per_side = match sides {
        Sides::Both => 2,
        Sides::Max | Sides::Min => 1,
    };
    values.len() as u64 * grid.len() as u64 * per_side
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
