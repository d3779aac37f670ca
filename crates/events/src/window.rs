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
//!   `ᾱ(Δ) = max { k : min_span(k) ≤ Δ }`.
//!
//! Exact computation of all window sizes is `O(N·K)`; [`WindowMode::Strided`]
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
//! would wrap), and every grid size shares the same table.
//!
//! The worker count is the calling thread's [`Parallelism::current`]
//! setting (see [`Parallelism::scope`]); it changes speed, never results.
//! When it engages more than one worker, demand scans summarize chunks
//! of the trace in parallel and merge them exactly
//! ([`crate::summary::summarize`]), and span scans spread the grid's `k`
//! over the pool with [`wcm_par::par_map`]. Sequential and parallel runs
//! produce **bit-identical** results.
//!
//! A window that slides over a stream keeps its spans incrementally:
//! [`SlidingSpans`] caches per-block span minima, so a query after a few
//! pushes and pops rescans only the ends near the window's two edges.

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
                // Early clamp: `exact_upto ≥ k_max` covers the whole range
                // (and an unclamped `exact_upto + stride` could overflow).
                let exact_upto = exact_upto.min(k_max);
                let mut ks: Vec<usize> = (1..=exact_upto).collect();
                let mut k = exact_upto + stride;
                while k < k_max {
                    ks.push(k);
                    k += stride;
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
/// assert_eq!(p.window_sum(1, 2), 11); // 9 + 2
/// assert_eq!(p.max_window_sum(2), Some(11));
/// assert_eq!(p.min_window_sum(2), Some(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSums {
    table: Table,
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
        let mut acc: u64 = 0;
        prefix.push(acc);
        for &v in values {
            match acc.checked_add(v) {
                Some(next) => {
                    acc = next;
                    prefix.push(acc);
                }
                None => return Self::new_wide(values),
            }
        }
        Self {
            table: Table::Narrow(prefix),
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
    /// # Panics
    ///
    /// Panics if `start + k` exceeds the sequence length or the sum
    /// overflows `u64` (the table itself cannot wrap).
    #[must_use]
    pub fn window_sum(&self, start: usize, k: usize) -> u64 {
        match &self.table {
            Table::Narrow(p) => p[start + k] - p[start],
            Table::Wide(p) => {
                u64::try_from(p[start + k] - p[start]).expect("window sum exceeds u64::MAX")
            }
        }
    }

    /// Maximum sum over all windows of `k` consecutive values.
    ///
    /// Returns `Some(0)` for `k = 0`, `None` if `k > len()`.
    #[must_use]
    pub fn max_window_sum(&self, k: usize) -> Option<u64> {
        self.scan(k, true)
    }

    /// Minimum sum over all windows of `k` consecutive values.
    ///
    /// Returns `Some(0)` for `k = 0`, `None` if `k > len()`.
    #[must_use]
    pub fn min_window_sum(&self, k: usize) -> Option<u64> {
        self.scan(k, false)
    }

    fn scan(&self, k: usize, maximize: bool) -> Option<u64> {
        if k == 0 {
            return Some(0);
        }
        if k > self.len() {
            return None;
        }
        // Independent differences p[i+k] − p[i]: no loop-carried state.
        match &self.table {
            Table::Narrow(p) => {
                let diffs = p[k..].iter().zip(p).map(|(hi, lo)| hi - lo);
                if maximize {
                    diffs.max()
                } else {
                    diffs.min()
                }
            }
            Table::Wide(p) => {
                let diffs = p[k..].iter().zip(p).map(|(hi, lo)| hi - lo);
                let best = if maximize { diffs.max() } else { diffs.min() };
                best.map(|b| u64::try_from(b).expect("window sum exceeds u64::MAX"))
            }
        }
    }

    /// Cache-blocked scan of many window sizes in one pass over the table:
    /// `ks` must be sorted ascending; entries with `k > len` yield the
    /// identity (`0` when maximizing, `u64::MAX` when minimizing) so grid
    /// points beyond a short chunk merge away naturally.
    ///
    /// The table is streamed in L1/L2-sized blocks with a small tile of
    /// `k` values per pass, so every block is loaded once per tile instead
    /// of once per `k` — the difference between `O(N·K)` arithmetic on a
    /// cache-resident block and `O(N·K)` DRAM traffic. Results are
    /// bit-identical to per-`k` [`PrefixSums::max_window_sum`] /
    /// [`PrefixSums::min_window_sum`] scans (`u64` max/min is associative
    /// and commutative, so block order cannot matter).
    ///
    /// `None` when a requested extremum exceeds `u64::MAX` (a wide table
    /// only: on a narrow one every window fits).
    pub(crate) fn scan_grid(&self, ks: &[usize], maximize: bool) -> Option<Vec<u64>> {
        let (primary, _) = match &self.table {
            Table::Narrow(p) => scan_blocked(p, ks, maximize, None)?,
            Table::Wide(p) => scan_blocked(p, ks, maximize, None)?,
        };
        Some(primary)
    }

    /// Like [`PrefixSums::scan_grid`], but produces **both** extrema in the
    /// same blocked pass — the chunk-summary constructor needs max and min
    /// together, and sharing the pass halves the memory traffic.
    pub(crate) fn scan_grid_both(&self, ks: &[usize]) -> Option<(Vec<u64>, Vec<u64>)> {
        let (maxs, mins) = match &self.table {
            Table::Narrow(p) => scan_blocked(p, ks, true, Some(()))?,
            Table::Wide(p) => scan_blocked(p, ks, true, Some(()))?,
        };
        Some((maxs, mins.expect("both-sided scan fills mins")))
    }
}

/// A prefix-table cell: the two storage widths of [`PrefixSums`].
trait PrefixCell: Copy + Ord + std::ops::Sub<Output = Self> + TryInto<u64> {}

impl PrefixCell for u64 {}

impl PrefixCell for u128 {}

/// Table positions per cache block: 8 Ki entries = 64 KiB of `u64`, so a
/// block plus the `k`-shifted stream it is compared against stays resident
/// in L2 while a whole tile of window sizes scans it.
const SCAN_BLOCK: usize = 8 * 1024;

/// Window sizes per tile: enough reuse per block load to amortize the
/// second stream, few enough accumulators to keep them in registers.
const SCAN_TILE: usize = 16;

/// The blocked kernel behind [`PrefixSums::scan_grid`]: for each tile of
/// window sizes, stream the table block by block and fold the per-`k`
/// extremum of `p[i+k] − p[i]` over the block's valid positions. With
/// `both` set, the primary output holds maxima and the second minima
/// (`maximize` is ignored); otherwise only the requested side is computed.
/// `None` when an extremum does not fit `u64`.
fn scan_blocked<T: PrefixCell>(
    p: &[T],
    ks: &[usize],
    maximize: bool,
    both: Option<()>,
) -> Option<(Vec<u64>, Option<Vec<u64>>)> {
    let n = p.len() - 1;
    let want_both = both.is_some();
    let mut primary = vec![if maximize || want_both { 0 } else { u64::MAX }; ks.len()];
    let mut secondary = if want_both {
        Some(vec![u64::MAX; ks.len()])
    } else {
        None
    };
    let mut tile_best: Vec<(T, T)> = Vec::with_capacity(SCAN_TILE);
    for (tile_idx, tile) in ks.chunks(SCAN_TILE).enumerate() {
        tile_best.clear();
        let mut seen = vec![false; tile.len()];
        tile_best.resize(tile.len(), (p[0], p[0]));
        let mut start = 0usize;
        while start < n {
            let block_end = (start + SCAN_BLOCK).min(n);
            for (j, &k) in tile.iter().enumerate() {
                if k == 0 || k > n {
                    continue;
                }
                // Valid window starts in this block: i + k ≤ n.
                let end = block_end.min(n - k + 1);
                if start >= end {
                    continue;
                }
                let lo = &p[start..end];
                let hi = &p[start + k..end + k];
                let (mut mx, mut mn) = if seen[j] {
                    tile_best[j]
                } else {
                    let first = hi[0] - lo[0];
                    (first, first)
                };
                seen[j] = true;
                if want_both {
                    for (h, l) in hi.iter().zip(lo) {
                        let d = *h - *l;
                        mx = mx.max(d);
                        mn = mn.min(d);
                    }
                } else if maximize {
                    for (h, l) in hi.iter().zip(lo) {
                        mx = mx.max(*h - *l);
                    }
                } else {
                    for (h, l) in hi.iter().zip(lo) {
                        mn = mn.min(*h - *l);
                    }
                }
                tile_best[j] = (mx, mn);
            }
            start = block_end;
        }
        let base = tile_idx * SCAN_TILE;
        for (j, &(mx, mn)) in tile_best.iter().enumerate() {
            if !seen[j] {
                continue; // k > n: identity stays in place
            }
            if want_both {
                primary[base + j] = mx.try_into().ok()?;
                if let Some(sec) = &mut secondary {
                    sec[base + j] = mn.try_into().ok()?;
                }
            } else if maximize {
                primary[base + j] = mx.try_into().ok()?;
            } else {
                primary[base + j] = mn.try_into().ok()?;
            }
        }
    }
    Some((primary, secondary))
}

/// Maximum sum of any `k` consecutive values, for a single `k`.
///
/// Returns 0 for `k = 0`; `None` if `k > values.len()` (no full window
/// exists).
///
/// # Example
///
/// ```
/// use wcm_events::window::max_window_sum;
///
/// assert_eq!(max_window_sum(&[1, 9, 2, 8], 2), Some(11));
/// assert_eq!(max_window_sum(&[1, 9, 2, 8], 5), None);
/// ```
#[must_use]
pub fn max_window_sum(values: &[u64], k: usize) -> Option<u64> {
    PrefixSums::new(values).max_window_sum(k)
}

/// Minimum sum of any `k` consecutive values, for a single `k`.
///
/// Returns 0 for `k = 0`; `None` if `k > values.len()`.
#[must_use]
pub fn min_window_sum(values: &[u64], k: usize) -> Option<u64> {
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
pub fn max_window_sums(
    values: &[u64],
    k_max: usize,
    mode: WindowMode,
) -> Result<Vec<u64>, EventError> {
    window_sums(values, k_max, mode, true)
}

/// [`max_window_sums`] inside `par.scope(..)`. It stays for the
/// `examples/bench_e2e` harness; new code calls [`max_window_sums`]
/// inside a [`Parallelism::scope`].
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

/// [`min_window_sums`] inside `par.scope(..)`. It stays for the
/// `examples/bench_e2e` harness; new code calls [`min_window_sums`]
/// inside a [`Parallelism::scope`].
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
    // Each grid point scans ≤ N differences; the hint lets the runtime
    // skip thread start-up for small analyses.
    let cost = grid.len() as u64 * values.len() as u64;
    // A total that fits `u64` bounds every window sum, so the chunk
    // merges of the parallel path cannot overflow; wider traces take
    // the sequential scan, which reports an extremum past `u64::MAX`.
    let narrow = || {
        values
            .iter()
            .try_fold(0u64, |acc, &v| acc.checked_add(v))
            .is_some()
    };
    let exact = if Parallelism::current().workers(values.len(), cost) > 1 && narrow() {
        // Parallel: trace-parallel chunk summaries tree-folded into the
        // exact grid table — scales over N instead of fanning out per k.
        let sides = if maximize {
            crate::summary::Sides::Max
        } else {
            crate::summary::Sides::Min
        };
        let summary = crate::summary::summarize(values, &grid, sides);
        if maximize {
            summary.max_table().to_vec()
        } else {
            summary.min_table().to_vec()
        }
    } else {
        // Sequential: one cache-blocked pass over the prefix table,
        // k-tiles per block instead of one full sweep per k.
        PrefixSums::new(values)
            .scan_grid(&grid, maximize)
            .ok_or(EventError::Overflow { what: "window sum" })?
    };
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

/// Minimal time span covered by any `k` consecutive timestamps
/// (`times` must be sorted; `k ≥ 2` spans are `t[i+k−1] − t[i]`, `k ≤ 1`
/// spans are 0).
///
/// Returns `None` if `k > times.len()`.
///
/// # Example
///
/// ```
/// use wcm_events::window::min_span;
///
/// let times = [0.0, 1.0, 1.25, 5.0];
/// assert_eq!(min_span(&times, 2), Some(0.25)); // the 1.0–1.25 pair
/// assert_eq!(min_span(&times, 3), Some(1.25));
/// ```
#[must_use]
pub fn min_span(times: &[f64], k: usize) -> Option<f64> {
    span(times, k, false)
}

/// Maximal time span covered by any `k` consecutive timestamps.
#[must_use]
pub fn max_span(times: &[f64], k: usize) -> Option<f64> {
    span(times, k, true)
}

fn span(times: &[f64], k: usize, maximize: bool) -> Option<f64> {
    if k > times.len() {
        return None;
    }
    if k <= 1 {
        return Some(0.0);
    }
    // Like the prefix-sum scan: t[i+k−1] − t[i] are independent reads with
    // no loop-carried state.
    let diffs = times[k - 1..].iter().zip(times).map(|(hi, lo)| hi - lo);
    Some(if maximize {
        diffs.fold(f64::NEG_INFINITY, f64::max)
    } else {
        diffs.fold(f64::INFINITY, f64::min)
    })
}

/// Minimal spans for all `k = 1 ..= k_max` (index 0 ↦ `k = 1`), with the
/// same strided-conservative filling as the window sums: gaps take the
/// *previous* grid value (an under-approximation of the span, hence an
/// over-approximation of the event count per Δ — sound for upper arrival
/// curves).
///
/// # Errors
///
/// Returns [`EventError::InvalidParameter`] if `k_max` is 0 or exceeds the
/// number of timestamps, or if a strided mode has `stride = 0`.
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
    let grid = mode.grid(k_max);
    let cost = grid.len() as u64 * times.len() as u64;
    let exact = wcm_par::par_map(&grid, cost, |_, &k| {
        span(times, k, maximize).expect("k ≤ len by validation")
    });
    Ok(fill_gaps(&grid, &exact, k_max, maximize, 0.0f64))
}

/// Span ends per cached block of [`SlidingSpans`].
const SPAN_BLOCK: usize = 128;

/// A sliding window of timestamps that answers [`min_spans`] in
/// [`WindowMode::Exact`] without rescanning the whole window.
///
/// Span ends are grouped by absolute position into blocks of 128. For
/// each block the window keeps the minimum of `t[j] − t[j−k+1]` over the
/// block's ends `j`, for every `k = 2..=depth`. A block stays valid while
/// its first end is at least `depth − 1` stamps past the window's front,
/// so every window it covers is still retained; it is dropped once the
/// front passes that point. A query therefore only rescans the ends
/// before the first valid block, the ends after the last complete block,
/// and the blocks completed since the last query. The result is the
/// minimum over the same set of `f64` differences as the full rescan, so
/// it is bitwise equal.
///
/// The window counts its non-finite stamps and adjacent inversions;
/// while any is retained, [`SlidingSpans::min_spans`] fails exactly as a
/// [`crate::TimedTrace`] of the window contents would.
///
/// # Example
///
/// ```
/// use wcm_events::window::{min_spans, SlidingSpans, WindowMode};
///
/// let times = [0.0, 1.0, 1.25, 5.0, 5.5, 6.0];
/// let mut w = SlidingSpans::default();
/// for &t in &times {
///     w.push(t);
/// }
/// w.pop_front();
/// let mut spans = Vec::new();
/// w.min_spans(3, &mut spans)?;
/// assert_eq!(spans, min_spans(&times[1..], 3, WindowMode::Exact)?);
/// # Ok::<(), wcm_events::EventError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlidingSpans {
    times: std::collections::VecDeque<f64>,
    /// Absolute position of `times[0]`: stamps popped so far.
    base: u64,
    /// Non-finite stamps plus adjacent inversions in the window.
    unsorted: usize,
    /// `−0.0` stamps in the window. The minimum over reordered blocks
    /// could pick the other sign of a zero span, so queries rescan.
    neg_zeros: usize,
    /// Window depth the cached blocks were built for (0: none yet).
    depth: usize,
    /// Absolute index of the first cached block.
    first_block: u64,
    /// Cached block minima, `depth − 1` per block (`k = 2..=depth`).
    block_mins: Vec<f64>,
    /// Span differences computed so far (work counter).
    diffs: u64,
}

impl SlidingSpans {
    /// Stamps in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Time between the first and the last stamp (0 for fewer than two),
    /// like [`crate::TimedTrace::duration`].
    #[must_use]
    pub fn duration(&self) -> f64 {
        match (self.times.front(), self.times.back()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Span differences computed by all queries so far; a deterministic
    /// measure of the work a query does.
    #[must_use]
    pub fn diffs_computed(&self) -> u64 {
        self.diffs
    }

    /// Appends a stamp at the back.
    pub fn push(&mut self, t: f64) {
        if let Some(&prev) = self.times.back() {
            self.unsorted += usize::from(t < prev);
        }
        self.unsorted += usize::from(!t.is_finite());
        self.neg_zeros += usize::from(is_neg_zero(t));
        self.times.push_back(t);
    }

    /// Removes the oldest stamp.
    pub fn pop_front(&mut self) -> Option<f64> {
        let t = self.times.pop_front()?;
        if let Some(&next) = self.times.front() {
            self.unsorted -= usize::from(next < t);
        }
        self.unsorted -= usize::from(!t.is_finite());
        self.neg_zeros -= usize::from(is_neg_zero(t));
        self.base += 1;
        Some(t)
    }

    /// Minimal spans of the window for `k = 1..=k_max` into `out`
    /// (cleared first), bitwise equal to
    /// `min_spans(window, k_max, WindowMode::Exact)`.
    ///
    /// # Errors
    ///
    /// [`EventError::UnsortedTimestamps`] (first offending index in the
    /// window) while a non-finite stamp or an inversion is retained;
    /// [`EventError::InvalidParameter`] if `k_max` is 0 or exceeds the
    /// window length.
    pub fn min_spans(&mut self, k_max: usize, out: &mut Vec<f64>) -> Result<(), EventError> {
        out.clear();
        let n = self.times.len();
        if self.unsorted > 0 {
            let index = (0..n)
                .find(|&i| {
                    !self.times[i].is_finite() || (i > 0 && self.times[i] < self.times[i - 1])
                })
                .unwrap_or(0);
            return Err(EventError::UnsortedTimestamps { index });
        }
        if k_max == 0 || k_max > n {
            return Err(EventError::InvalidParameter { name: "k_max" });
        }
        if self.neg_zeros > 0 {
            // A sequential full rescan, whatever the thread's setting.
            let times = self.times.make_contiguous();
            out.extend((1..=k_max).map(|k| span(times, k, false).expect("k_max ≤ len")));
            self.diffs += (k_max as u64 - 1) * n as u64;
            return Ok(());
        }
        if k_max != self.depth {
            self.depth = k_max;
            self.block_mins.clear();
        }
        out.push(0.0);
        out.resize(k_max, f64::INFINITY);
        if k_max == 1 {
            return Ok(());
        }
        let b = SPAN_BLOCK as u64;
        let stride = k_max - 1;
        let end = self.base + n as u64;
        // Blocks whose ends all close windows of every depth inside the
        // window, and whose ends are all retained.
        let lo = (self.base + stride as u64).div_ceil(b);
        let hi = end / b;
        if lo >= hi {
            for k in 2..=k_max {
                out[k - 1] = self.fold_min(k - 1..n, k, f64::INFINITY);
            }
            return Ok(());
        }
        let mut cached = self.block_mins.len() / stride;
        while cached > 0 && self.first_block < lo {
            self.block_mins.drain(..stride);
            self.first_block += 1;
            cached -= 1;
        }
        if cached == 0 {
            self.first_block = lo;
        }
        for blk in self.first_block + cached as u64..hi {
            let from = (blk * b - self.base) as usize;
            for k in 2..=k_max {
                let m = self.fold_min(from..from + SPAN_BLOCK, k, f64::INFINITY);
                self.block_mins.push(m);
            }
        }
        let head = (lo * b - self.base) as usize;
        let tail = (hi * b - self.base) as usize;
        for k in 2..=k_max {
            let m = self.fold_min(k - 1..head, k, f64::INFINITY);
            out[k - 1] = self.fold_min(tail..n, k, m);
        }
        for block in self.block_mins.chunks_exact(stride) {
            for (o, &m) in out[1..].iter_mut().zip(block) {
                *o = o.min(m);
            }
        }
        Ok(())
    }

    /// Folds `t[j] − t[j−k+1]` for the window ends `j` in `ends` into
    /// `acc` with `f64::min`. The ring's two halves are walked as
    /// contiguous slices: `ends` is cut where the end or the start of a
    /// span crosses the seam, so each piece is a plain zipped scan.
    fn fold_min(&mut self, ends: std::ops::Range<usize>, k: usize, mut acc: f64) -> f64 {
        if ends.is_empty() {
            return acc;
        }
        self.diffs += ends.len() as u64;
        let halves = self.times.as_slices();
        let seam = halves.0.len();
        let mut from = ends.start;
        for cut in [seam, seam + k - 1, ends.end] {
            let to = cut.clamp(from, ends.end);
            if to > from {
                let hi = ring_piece(halves, from..to);
                let lo = ring_piece(halves, from + 1 - k..to + 1 - k);
                acc = hi.iter().zip(lo).map(|(h, l)| h - l).fold(acc, f64::min);
                from = to;
            }
        }
        acc
    }
}

/// The window positions `r` of a ring split into `halves`; `r` must not
/// cross the seam.
fn ring_piece<'a>((a, b): (&'a [f64], &'a [f64]), r: std::ops::Range<usize>) -> &'a [f64] {
    if r.end <= a.len() {
        &a[r]
    } else {
        &b[r.start - a.len()..r.end - a.len()]
    }
}

fn is_neg_zero(t: f64) -> bool {
    t.to_bits() == (-0.0f64).to_bits()
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
        assert_eq!(max_window_sum(&V, 1), Some(9));
        assert_eq!(min_window_sum(&V, 1), Some(1));
        assert_eq!(max_window_sum(&V, 2), Some(18));
        assert_eq!(min_window_sum(&V, 2), Some(2));
        assert_eq!(max_window_sum(&V, 8), Some(32));
        assert_eq!(min_window_sum(&V, 8), Some(32));
        assert_eq!(max_window_sum(&V, 9), None);
        assert_eq!(max_window_sum(&V, 0), Some(0));
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
                window_sum_sliding_oracle(&values, k, true),
                "max mismatch at k={k}"
            );
            assert_eq!(
                p.min_window_sum(k),
                window_sum_sliding_oracle(&values, k, false),
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
        assert_eq!(p.max_window_sum(1), Some(big));
        assert_eq!(p.min_window_sum(1), Some(big));
        assert_eq!(p.window_sum(2, 1), big);
    }

    #[test]
    fn narrow_and_wide_tables_agree_at_the_boundary() {
        // Total exactly u64::MAX: still the narrow u64 table.
        let narrow = [u64::MAX - 10, 4, 6];
        let p = PrefixSums::new(&narrow);
        assert!(matches!(p.table, Table::Narrow(_)));
        assert_eq!(p.max_window_sum(2), Some(u64::MAX - 6));
        assert_eq!(p.min_window_sum(2), Some(10));
        // One more unit of demand: wide fallback, same per-window answers.
        let wide = [u64::MAX - 10, 4, 7];
        let p = PrefixSums::new(&wide);
        assert!(matches!(p.table, Table::Wide(_)));
        assert_eq!(p.max_window_sum(2), Some(u64::MAX - 6));
        assert_eq!(p.min_window_sum(2), Some(11));
        assert_eq!(p.window_sum(1, 2), 11);
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
        // K·N = 2^23 is twice the largest grain, so Threads(2) engages
        // two workers whenever the trace takes the parallel path.
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

    #[test]
    fn spans_basic() {
        let t = [0.0, 1.0, 1.2, 5.0, 5.1];
        assert_eq!(min_span(&t, 1), Some(0.0));
        assert!((min_span(&t, 2).unwrap() - 0.1).abs() < 1e-12);
        assert!((max_span(&t, 2).unwrap() - 3.8).abs() < 1e-12);
        assert!((min_span(&t, 5).unwrap() - 5.1).abs() < 1e-12);
        assert_eq!(min_span(&t, 6), None);
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
    fn sliding_spans_match_full_rescan_bitwise() {
        // Random push/pop walks over stamps that are mostly sorted, with
        // ties, ±0, NaN, ±∞ and inversions injected; every query must
        // equal the full Exact rescan of the window contents bit for bit,
        // or fail exactly as a timed trace of those contents would.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut checked = 0usize;
        for walk in 0..24 {
            let mut w = SlidingSpans::default();
            let mut oracle: std::collections::VecDeque<f64> = Default::default();
            let cap = [5usize, 40, 129, 300, 700][walk % 5];
            let mut clock = 0.0f64;
            let mut out = Vec::new();
            for step in 0..3000 {
                let r = next();
                // A third of the walks never see a bad stamp, so long
                // windows reach the cached-block path.
                let bad_odds = [u64::MAX, 4000, 800][walk % 3];
                let t = match r % bad_odds {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => clock - 1.5, // inversion
                    // A run of signed zeros opens some walks.
                    _ if walk % 4 == 1 && step < 400 => [0.0, -0.0][(r >> 8) as usize & 1],
                    _ => {
                        // Ties and small steps, in binary-unfriendly units.
                        clock += ((r >> 16) % 4) as f64 * 0.1;
                        clock
                    }
                };
                w.push(t);
                oracle.push_back(t);
                while oracle.len() > cap || (r >> 40) % 11 == 0 && !oracle.is_empty() {
                    assert_eq!(
                        w.pop_front().map(f64::to_bits),
                        oracle.pop_front().map(f64::to_bits)
                    );
                    if oracle.len() <= cap {
                        break;
                    }
                }
                if step % 7 != 0 {
                    continue;
                }
                let times: Vec<f64> = oracle.iter().copied().collect();
                assert_eq!(w.len(), times.len());
                assert_eq!(
                    w.duration().to_bits(),
                    times.last().map_or(0.0, |l| l - times[0]).to_bits()
                );
                let depth = [1usize, 2, 64, 64, 64, 17][(r >> 20) as usize % 6];
                let got = w.min_spans(depth, &mut out);
                let bad = (0..times.len())
                    .find(|&i| !times[i].is_finite() || (i > 0 && times[i] < times[i - 1]));
                match (bad, got) {
                    (Some(index), Err(e)) => {
                        assert_eq!(e, EventError::UnsortedTimestamps { index });
                    }
                    (None, got) => {
                        match min_spans(&times, depth, WindowMode::Exact) {
                            Ok(want) => {
                                assert!(got.is_ok(), "walk {walk} step {step}: {got:?}");
                                let bits =
                                    |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                                assert_eq!(
                                    bits(&out),
                                    bits(&want),
                                    "walk {walk} step {step} depth {depth}"
                                );
                                checked += usize::from(times.len() > 2 * SPAN_BLOCK + depth);
                            }
                            Err(e) => assert_eq!(got, Err(e)),
                        }
                    }
                    (Some(_), Ok(())) => panic!("walk {walk} step {step}: accepted a bad window"),
                }
            }
        }
        assert!(
            checked > 1000,
            "only {checked} comparisons over cached blocks"
        );
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
