//! Zero-dependency data-parallel runtime on a persistent work-stealing
//! worker pool.
//!
//! The analysis hot paths of this workspace (window scans over traces,
//! min-plus branch envelopes, design-sweep grids) are embarrassingly
//! parallel maps over independent items. This crate provides exactly
//! that — nothing more — without external runtime dependencies (the
//! build environment is offline; see `vendor/README.md`).
//!
//! # Runtime
//!
//! Workers are spawned **once per process** and parked on a condvar
//! between jobs ([`pool`]); a `par_*` call wakes them instead of paying a
//! `std::thread::scope` spawn/join (≈ 50–100 µs per worker) per call —
//! the overhead that used to leave paper-scale sweeps at
//! `speedup_par_vs_seq: 1.0`. Work is distributed through per-worker
//! chunked block deques with stealing ([`steal`]): each worker owns a
//! contiguous span of the input split into blocks, drains it
//! front-to-back, then steals blocks from the back of other deques, so
//! items with wildly different costs (a design-sweep point that is
//! analytically pruned in nanoseconds next to one simulated in
//! milliseconds) still spread evenly across cores.
//!
//! # Determinism
//!
//! Every entry point places results by **input index**, so the combined
//! result is identical to the sequential result — same values, same
//! order — for any worker count and any steal interleaving, as long as
//! the map function is a pure function of `(index, item)` and the
//! reduction is associative ([`par_map_reduce`] folds block partials in
//! index order).
//!
//! # Choosing a worker count
//!
//! [`Parallelism`] is a small knob threaded through the public APIs of
//! the analysis crates:
//!
//! * [`Parallelism::Seq`] — run inline on the caller's thread;
//! * [`Parallelism::Threads(n)`] — at most `n` workers (reduced when the
//!   cost hint says the work cannot amortize even a pool wake-up);
//! * [`Parallelism::Auto`] — [`std::thread::available_parallelism`]
//!   workers, but only when the caller's cost hint says the work dwarfs
//!   a dispatch.
//!
//! # Grain threshold
//!
//! Every worker must be backed by at least [`grain_ops`] unit operations
//! or it is not engaged: below the grain, waking a worker costs more
//! than the work itself. The grain is auto-tuned once per process by
//! timing an empty **pool dispatch** (not a thread spawn — the pool made
//! the old spawn-based grain an order of magnitude too conservative)
//! against a unit-operation loop, and can be pinned with the
//! `WCM_PAR_GRAIN_OPS` environment variable (useful for reproducible
//! benchmarks). Worker counts never affect results — every `par_*`
//! entry point is deterministic — so the tuning only moves the speed,
//! never the answer.
//!
//! # Observability
//!
//! The runtime is instrumented with `wcm-obs`: each engaged worker is a
//! `par.worker` span, each claimed block a `par.block` child span, and
//! the `par.seq_runs` / `par.par_runs` / `par.workers_spawned` /
//! `par.blocks` / `par.steals` / `par.pool_*` counters record dispatch
//! decisions and steal traffic; `par.job_ns` / `par.worker_busy_ns`
//! histograms expose idle time (job span minus busy span). With the
//! recorder disabled (the default) every site costs one relaxed load.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod pool;
mod steal;

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// Work below this many "unit operations" (caller-estimated) runs
/// sequentially under [`Parallelism::Auto`]: dispatch would dominate.
/// Kept as the calibration fallback when timing is unavailable.
pub const AUTO_SEQ_THRESHOLD_OPS: u64 = 1 << 18;

/// Lower clamp of the auto-tuned [`grain_ops`]: a pool wake-up costs
/// single-digit µs, so a worker backed by ~16k unit operations already
/// amortizes it. (The old spawn-based lower clamp was 16× higher.)
pub const GRAIN_OPS_MIN: u64 = 1 << 14;

/// Upper clamp of the auto-tuned grain: even on machines where dispatch
/// looks expensive, work this large is always worth one extra worker.
pub const GRAIN_OPS_MAX: u64 = 1 << 22;

static GRAIN_OPS: OnceLock<u64> = OnceLock::new();

/// The per-worker grain in unit operations: a worker is only engaged
/// when it can be handed at least this much work.
///
/// Resolved once per process: the `WCM_PAR_GRAIN_OPS` environment
/// variable wins when set to a positive integer; otherwise a one-shot
/// calibration times an empty pool dispatch against a unit-operation
/// loop and requires each worker to amortize ≈ 4 dispatch costs. The
/// result is clamped to `[`[`GRAIN_OPS_MIN`]`, `[`GRAIN_OPS_MAX`]`]`.
#[must_use]
pub fn grain_ops() -> u64 {
    *GRAIN_OPS.get_or_init(|| {
        if let Some(pinned) = std::env::var("WCM_PAR_GRAIN_OPS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
        {
            return pinned;
        }
        calibrate_grain().clamp(GRAIN_OPS_MIN, GRAIN_OPS_MAX)
    })
}

/// Times empty pool dispatches and a unit-op loop; returns the ops
/// equivalent of ~4 dispatches. Uses medians over a few repetitions so a
/// single scheduler hiccup cannot skew the grain for the whole process.
fn calibrate_grain() -> u64 {
    use std::time::Instant;
    let median = |mut xs: Vec<u128>| -> u128 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    // Warm the pool first: the one-time worker spawn must not be billed
    // to the steady-state dispatch cost.
    pool::run(2, &|_| {});
    let dispatch_ns = median(
        (0..7)
            .map(|_| {
                let t = Instant::now();
                pool::run(2, &|_| {});
                t.elapsed().as_nanos().max(1)
            })
            .collect(),
    );
    // A unit operation is one load/subtract/compare step of a window scan.
    const LOOP_OPS: u64 = 1 << 18;
    let loop_ns = median(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0u64;
                for i in 0..LOOP_OPS {
                    acc = acc.wrapping_add(i ^ (acc >> 3));
                }
                std::hint::black_box(acc);
                t.elapsed().as_nanos().max(1)
            })
            .collect(),
    );
    let ops_per_ns = f64::from(u32::try_from(LOOP_OPS).unwrap_or(u32::MAX)) / loop_ns as f64;
    let grain = (dispatch_ns as f64 * 4.0 * ops_per_ns).ceil();
    if grain.is_finite() {
        grain as u64
    } else {
        AUTO_SEQ_THRESHOLD_OPS
    }
}

/// How to split data-parallel work across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread.
    Seq,
    /// Use at most this many workers (`0` is treated as `1`); the count
    /// is reduced when the cost hint cannot back each worker with
    /// [`grain_ops`] unit operations, so an explicit thread count is
    /// never slower than sequential on small inputs.
    Threads(usize),
    /// Use all available cores when the work is large enough to amortize
    /// a pool dispatch, otherwise run sequentially.
    #[default]
    Auto,
}

impl Parallelism {
    /// Parses a CLI-style value: `"auto"`/`"0"` → [`Parallelism::Auto`],
    /// `"1"` → [`Parallelism::Seq`], `"n"` → [`Parallelism::Threads`]`(n)`.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it is neither `auto` nor an integer.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" | "Auto" | "AUTO" => Ok(Self::Auto),
            _ => match s.parse::<usize>() {
                Ok(0) => Ok(Self::Auto),
                Ok(1) => Ok(Self::Seq),
                Ok(n) => Ok(Self::Threads(n)),
                Err(_) => Err(format!("invalid thread count `{s}` (expected `auto` or N)")),
            },
        }
    }

    /// The number of workers to use for `items` items whose total cost is
    /// roughly `cost_hint_ops` unit operations.
    #[must_use]
    pub fn workers(self, items: usize, cost_hint_ops: u64) -> usize {
        // Each worker must amortize its wake-up with at least one grain
        // of unit operations; below that, fall back towards sequential
        // whatever the requested count — this is the work-threshold
        // fallback that keeps `par_map` from ever losing to the
        // sequential path on small grids.
        let affordable = usize::try_from(cost_hint_ops / grain_ops())
            .unwrap_or(usize::MAX)
            .max(1);
        let hard = match self {
            Self::Seq => 1,
            Self::Threads(n) => n.max(1).min(affordable),
            Self::Auto => {
                if cost_hint_ops < grain_ops() {
                    1
                } else {
                    let avail = std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1);
                    avail.min(affordable)
                }
            }
        };
        hard.min(items.max(1))
    }
}

/// Runs the block-claim loop of one job on `workers` pool workers and
/// gathers each worker's `(start, payload)` pairs. The workhorse behind
/// every parallel entry point: each engaged worker lazily creates one
/// state with `init` (on its first claimed block, so workers that never
/// claim anything pay nothing) and `process` maps one claimed block to a
/// payload placed later by its start index.
fn run_blocks<U, S, I, P>(workers: usize, n_items: usize, init: I, process: P) -> Vec<(usize, U)>
where
    U: Send,
    I: Fn() -> S + Sync,
    P: Fn(&mut S, &mut Vec<(usize, U)>, steal::Block) + Sync,
{
    let queues = steal::BlockQueues::new(n_items, workers, steal::block_size(n_items, workers));
    let buckets: Vec<Mutex<Vec<(usize, U)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let observe = wcm_obs::enabled();
    let job_t0 = if observe { wcm_obs::now_ns() } else { 0 };
    pool::run(workers, &|w| {
        let _span = wcm_obs::span("par.worker");
        let t0 = if observe { wcm_obs::now_ns() } else { 0 };
        let mut state: Option<S> = None;
        let mut mine: Vec<(usize, U)> = Vec::new();
        let (mut blocks, mut steals) = (0u64, 0u64);
        while let Some(block) = queues.claim(w) {
            let _block_span = wcm_obs::span("par.block");
            blocks += 1;
            steals += u64::from(block.stolen);
            process(state.get_or_insert_with(&init), &mut mine, block);
        }
        if observe {
            wcm_obs::counter("par.blocks", blocks);
            if steals > 0 {
                wcm_obs::counter("par.steals", steals);
            }
            wcm_obs::histogram("par.worker_busy_ns", wcm_obs::now_ns().saturating_sub(t0));
        }
        let mut bucket = buckets[w % buckets.len()].lock().expect("bucket poisoned");
        bucket.append(&mut mine);
    });
    if observe {
        wcm_obs::histogram("par.job_ns", wcm_obs::now_ns().saturating_sub(job_t0));
    }
    let mut out = Vec::new();
    for bucket in buckets {
        out.append(&mut bucket.into_inner().expect("bucket poisoned"));
    }
    out
}

/// Places `(start, values)` block results into a dense output vector.
fn assemble<U>(n: usize, parts: Vec<(usize, Vec<U>)>) -> Vec<U> {
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (start, vals) in parts {
        for (j, v) in vals.into_iter().enumerate() {
            out[start + j] = Some(v);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every block fills its own slots"))
        .collect()
}

/// Maps `f` over `items` with deterministic output ordering:
/// `out[i] = f(i, &items[i])` exactly as in the sequential loop.
///
/// `cost_hint_ops` estimates the total work in unit operations (e.g.
/// `items × inner-loop length`); the runtime uses it to decide whether
/// waking pool workers is worth it — below the [`grain_ops`] threshold
/// every mode degrades to the sequential path.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], cost_hint_ops: u64, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_init(par, items, cost_hint_ops, || (), move |(), i, t| f(i, t))
}

/// Maps `f` over `items` and folds the results with the associative
/// operation `reduce`, preserving input order inside and across blocks
/// (`((r0 ⊕ r1) ⊕ r2) ⊕ …` in index order). Returns `None` for empty input.
///
/// For an associative `reduce` the result equals the sequential
/// left-to-right fold **of the block partials in index order**; if
/// `reduce` is only *approximately* associative (e.g. floating-point
/// envelopes), results may differ across worker counts by the usual
/// re-association error.
pub fn par_map_reduce<T, U, F, R>(
    par: Parallelism,
    items: &[T],
    cost_hint_ops: u64,
    f: F,
    reduce: R,
) -> Option<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
    R: Fn(U, U) -> U + Sync,
{
    let workers = par.workers(items.len(), cost_hint_ops);
    if workers <= 1 || items.len() <= 1 {
        wcm_obs::counter("par.seq_runs", 1);
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .reduce(&reduce);
    }
    wcm_obs::counter("par.par_runs", 1);
    wcm_obs::counter("par.workers_spawned", workers as u64);
    let mut partials = run_blocks(
        workers,
        items.len(),
        || (),
        |(), mine, block| {
            let partial = items[block.start..block.end]
                .iter()
                .enumerate()
                .map(|(j, t)| f(block.start + j, t))
                .reduce(&reduce)
                .expect("blocks are non-empty");
            mine.push((block.start, partial));
        },
    );
    partials.sort_unstable_by_key(|&(start, _)| start);
    partials.into_iter().map(|(_, p)| p).reduce(&reduce)
}

/// Like [`par_map`], but with a per-worker state value (scratch buffers,
/// RNGs, …) created once per engaged worker by `init`.
///
/// Workers claim fixed-size blocks from per-worker deques and steal from
/// each other once their own span is drained, so items with wildly
/// different costs (e.g. design-sweep points that are either analytically
/// pruned in nanoseconds or simulated in milliseconds) still spread
/// evenly across threads. Each result is placed by its input index, so
/// the output equals the sequential `out[i] = f(&mut s, i, &items[i])`
/// for any worker count and any scheduling.
pub fn par_map_init<T, U, S, I, F>(
    par: Parallelism,
    items: &[T],
    cost_hint_ops: u64,
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let workers = par.workers(items.len(), cost_hint_ops);
    if workers <= 1 || items.len() <= 1 {
        wcm_obs::counter("par.seq_runs", 1);
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    wcm_obs::counter("par.par_runs", 1);
    wcm_obs::counter("par.workers_spawned", workers as u64);
    let parts = run_blocks(workers, items.len(), init, |state, mine, block| {
        let vals: Vec<U> = items[block.start..block.end]
            .iter()
            .enumerate()
            .map(|(j, t)| f(state, block.start + j, t))
            .collect();
        mine.push((block.start, vals));
    });
    assemble(items.len(), parts)
}

/// Streaming variant of [`par_map_init`] for outputs too large to hold:
/// evaluates the **virtual index range** `0..n_items` (no input slice —
/// the caller decodes each index itself, so a million-cell grid is never
/// materialized) one bounded chunk at a time and hands each completed
/// chunk to `emit` **in input-index order**. Peak memory is
/// O(`chunk_items`) values regardless of `n_items`.
///
/// Within a chunk the items are spread across the worker pool through
/// the same stealing block deques as [`par_map_init`] and placed by
/// index, so the emitted sequence equals the sequential
/// `for i in 0..n_items { f(&mut s, i) }` for any worker count. `emit`
/// runs on the calling thread between chunks; returning `Err` aborts the
/// run immediately (remaining chunks are never evaluated) — the hook for
/// sink I/O failures.
///
/// The chunk buffer is reused across chunks; `emit` receives it by
/// `&mut` and may drain it, but whatever it leaves is cleared before the
/// next chunk.
///
/// # Errors
///
/// Only what `emit` returns; evaluation itself is infallible.
pub fn par_map_stream<U, S, I, F, M, E>(
    par: Parallelism,
    n_items: usize,
    cost_hint_ops: u64,
    chunk_items: usize,
    init: I,
    f: F,
    mut emit: M,
) -> Result<(), E>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
    M: FnMut(usize, &mut Vec<U>) -> Result<(), E>,
{
    let chunk_items = chunk_items.max(1);
    let workers = par.workers(n_items, cost_hint_ops);
    if workers <= 1 || n_items <= 1 {
        wcm_obs::counter("par.seq_runs", 1);
        let mut state = init();
        let mut buf: Vec<U> = Vec::with_capacity(chunk_items.min(n_items));
        let mut start = 0;
        while start < n_items {
            let end = (start + chunk_items).min(n_items);
            buf.clear();
            buf.extend((start..end).map(|i| f(&mut state, i)));
            wcm_obs::counter("par.stream_chunks", 1);
            emit(start, &mut buf)?;
            start = end;
        }
        return Ok(());
    }
    wcm_obs::counter("par.par_runs", 1);
    wcm_obs::counter("par.workers_spawned", workers as u64);
    let mut buf: Vec<Option<U>> = Vec::new();
    let mut out: Vec<U> = Vec::with_capacity(chunk_items);
    let mut start = 0;
    while start < n_items {
        let end = (start + chunk_items).min(n_items);
        let len = end - start;
        // One pool job per chunk: workers re-create their state each
        // chunk, which a large chunk (the default is tens of thousands
        // of items) amortizes away.
        let parts = run_blocks(
            workers.min(len),
            len,
            &init,
            |state, mine: &mut Vec<(usize, Vec<U>)>, block| {
                let vals: Vec<U> = (block.start..block.end)
                    .map(|j| f(state, start + j))
                    .collect();
                mine.push((block.start, vals));
            },
        );
        buf.clear();
        buf.resize_with(len, || None);
        for (bstart, vals) in parts {
            for (j, v) in vals.into_iter().enumerate() {
                buf[bstart + j] = Some(v);
            }
        }
        out.clear();
        out.extend(
            buf.drain(..)
                .map(|slot| slot.expect("every block fills its own slots")),
        );
        wcm_obs::counter("par.stream_chunks", 1);
        emit(start, &mut out)?;
        start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_knob() {
        assert_eq!(Parallelism::parse("auto").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::parse("0").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::parse("1").unwrap(), Parallelism::Seq);
        assert_eq!(Parallelism::parse("4").unwrap(), Parallelism::Threads(4));
        assert!(Parallelism::parse("four").is_err());
    }

    #[test]
    fn workers_respect_mode_and_items() {
        assert_eq!(Parallelism::Seq.workers(100, u64::MAX), 1);
        assert_eq!(Parallelism::Threads(8).workers(100, u64::MAX), 8);
        assert_eq!(Parallelism::Threads(8).workers(3, u64::MAX), 3);
        assert_eq!(Parallelism::Threads(0).workers(5, u64::MAX), 1);
        // Auto stays sequential below the cost threshold.
        assert_eq!(Parallelism::Auto.workers(100, 10), 1);
        assert!(Parallelism::Auto.workers(100, u64::MAX) >= 1);
    }

    #[test]
    fn explicit_threads_respect_the_grain() {
        // Tiny work: even an explicit Threads(8) collapses to 1 worker —
        // this is the fix for the min_spans parallel regression.
        assert_eq!(Parallelism::Threads(8).workers(100, 0), 1);
        assert_eq!(Parallelism::Threads(8).workers(100, grain_ops() - 1), 1);
        // Work backing exactly two grains affords two workers.
        assert_eq!(Parallelism::Threads(8).workers(100, 2 * grain_ops()), 2);
        // Huge work: the requested count is honoured.
        assert_eq!(Parallelism::Threads(8).workers(100, u64::MAX), 8);
    }

    #[test]
    fn grain_is_positive_and_stable() {
        let g = grain_ops();
        assert!(g > 0);
        assert_eq!(g, grain_ops(), "grain must be resolved once per process");
    }

    #[test]
    fn par_map_matches_sequential_for_all_worker_counts() {
        let items: Vec<u64> = (0..1_003).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, v)| v * 3 + i as u64).collect();
        for par in [
            Parallelism::Seq,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(7),
            Parallelism::Threads(64),
            Parallelism::Auto,
        ] {
            let got = par_map(par, &items, u64::MAX, |i, v| v * 3 + i as u64);
            assert_eq!(got, expect, "mismatch under {par:?}");
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::Threads(4), &empty, u64::MAX, |_, v| *v).is_empty());
        assert_eq!(
            par_map(Parallelism::Threads(4), &[9u32], u64::MAX, |_, v| v + 1),
            vec![10]
        );
    }

    #[test]
    fn par_map_reduce_matches_sequential_fold() {
        let items: Vec<u64> = (1..=500).collect();
        let expect = items.iter().sum::<u64>();
        for par in [
            Parallelism::Seq,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Threads(100),
        ] {
            let got = par_map_reduce(par, &items, u64::MAX, |_, v| *v, |a, b| a + b);
            assert_eq!(got, Some(expect), "mismatch under {par:?}");
        }
        let empty: Vec<u64> = vec![];
        assert_eq!(
            par_map_reduce(Parallelism::Threads(2), &empty, 0, |_, v| *v, |a, b| a + b),
            None
        );
    }

    #[test]
    fn par_map_init_matches_sequential_for_all_worker_counts() {
        let items: Vec<u64> = (0..2_011).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 7 + i as u64)
            .collect();
        for par in [
            Parallelism::Seq,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(16),
            Parallelism::Auto,
        ] {
            // The per-worker state counts calls: it must be reused within a
            // worker, and results must land at the right indices anyway.
            let got = par_map_init(
                par,
                &items,
                u64::MAX,
                || 0u64,
                |calls, i, v| {
                    *calls += 1;
                    v * 7 + i as u64
                },
            );
            assert_eq!(got, expect, "mismatch under {par:?}");
        }
    }

    #[test]
    fn par_map_init_handles_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(
            par_map_init(Parallelism::Threads(4), &empty, u64::MAX, || (), |(), _, v| *v)
                .is_empty()
        );
        assert_eq!(
            par_map_init(Parallelism::Threads(4), &[5u32], u64::MAX, || (), |(), _, v| v + 1),
            vec![6]
        );
    }

    #[test]
    fn auto_workers_scale_with_cost() {
        // Below the grain Auto stays sequential; above it the worker count
        // is bounded by cost / grain_ops().
        assert_eq!(Parallelism::Auto.workers(1000, grain_ops() - 1), 1);
        let w = Parallelism::Auto.workers(1000, 3 * grain_ops());
        assert!((1..=3).contains(&w), "expected at most 3 affordable workers, got {w}");
    }

    #[test]
    fn par_map_stream_emits_in_order_for_all_worker_counts() {
        let n = 5_003usize;
        let expect: Vec<u64> = (0..n as u64).map(|i| i * 13 + 5).collect();
        for par in [
            Parallelism::Seq,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(16),
            Parallelism::Auto,
        ] {
            for chunk in [1usize, 7, 256, 10_000] {
                let mut got: Vec<u64> = Vec::new();
                let mut next_start = 0usize;
                par_map_stream::<_, _, _, _, _, ()>(
                    par,
                    n,
                    u64::MAX,
                    chunk,
                    || 0u64,
                    |calls, i| {
                        *calls += 1;
                        i as u64 * 13 + 5
                    },
                    |start, vals| {
                        assert_eq!(start, next_start, "chunks out of order under {par:?}");
                        assert!(vals.len() <= chunk, "chunk overflow under {par:?}");
                        next_start = start + vals.len();
                        got.append(vals);
                        Ok(())
                    },
                )
                .unwrap();
                assert_eq!(got, expect, "mismatch under {par:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn par_map_stream_aborts_on_emit_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evaluated = AtomicUsize::new(0);
        let mut emits = 0usize;
        let r = par_map_stream(
            Parallelism::Threads(4),
            100_000,
            u64::MAX,
            1_000,
            || (),
            |(), i| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                i
            },
            |_, _| {
                emits += 1;
                if emits == 3 {
                    Err("sink full")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("sink full"));
        assert_eq!(emits, 3);
        // Only the chunks up to the failing emit were evaluated.
        assert_eq!(evaluated.load(Ordering::Relaxed), 3_000);
    }

    #[test]
    fn par_map_stream_handles_empty_and_tiny_ranges() {
        let mut emits = 0usize;
        par_map_stream::<u32, _, _, _, _, ()>(
            Parallelism::Threads(4),
            0,
            u64::MAX,
            16,
            || (),
            |(), _| 0,
            |_, _| {
                emits += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(emits, 0, "empty range must not emit");
        let mut got = Vec::new();
        par_map_stream::<u32, _, _, _, _, ()>(
            Parallelism::Threads(4),
            1,
            u64::MAX,
            16,
            || (),
            |(), i| i as u32 + 40,
            |start, vals| {
                assert_eq!(start, 0);
                got.append(vals);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, vec![40]);
    }

    #[test]
    fn par_map_reduce_keeps_chunk_order_for_noncommutative_ops() {
        // String concatenation is associative but NOT commutative: any
        // chunk reordering would corrupt the result.
        let items: Vec<String> = (0..57).map(|i| format!("{i},")).collect();
        let expect = items.concat();
        for threads in [2usize, 3, 8, 57] {
            let got = par_map_reduce(
                Parallelism::Threads(threads),
                &items,
                u64::MAX,
                |_, s| s.clone(),
                |a, b| a + &b,
            )
            .unwrap();
            assert_eq!(got, expect, "order broken with {threads} workers");
        }
    }
}
