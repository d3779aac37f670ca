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
//! A stream that grows one stamp at a time keeps its minimal spans in a
//! [`SpanMinima`] table: `O(depth)` per stamp, no rescans.

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
/// assert_eq!(p.window_sum(1, 2)?, 11); // 9 + 2
/// assert_eq!(p.max_window_sum(2)?, Some(11));
/// assert_eq!(p.min_window_sum(2)?, Some(10));
/// # Ok::<(), wcm_events::EventError>(())
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

/// A wide-table window sum as `u64`, or [`EventError::Overflow`].
fn to_u64(sum: u128) -> Result<u64, EventError> {
    u64::try_from(sum).map_err(|_| EventError::Overflow { what: "window sum" })
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

/// Whole-stream minimal spans, kept as the stamps arrive: for every
/// `k = 2..=depth` the running minimum of `t[j] − t[j−k+1]` over all
/// ends `j` so far. It is the dual of the envelope monitor's running
/// per-`k` maximum demand.
///
/// A push costs `O(depth)` and needs only the last `depth − 1` stamps,
/// which stay contiguous in a doubled buffer that is compacted every
/// `depth − 1` pushes. Each `k`'s minimum is folded in stream order, as
/// [`min_spans`] folds it, so [`SpanMinima::min_spans`] is bitwise equal
/// to `min_spans(every stamp so far, depth, WindowMode::Exact)`, signed
/// zeros included.
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
        for (m, &lo) in self.mins[1..].iter_mut().zip(self.recent.iter().rev()) {
            *m = m.min(t - lo);
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
