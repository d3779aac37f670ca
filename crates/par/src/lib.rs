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
//! between jobs (module `pool`); a `par_*` call wakes them instead of paying a
//! `std::thread::scope` spawn/join (≈ 50–100 µs per worker) per call —
//! the overhead that used to leave paper-scale sweeps at
//! `speedup_par_vs_seq: 1.0`. Work is distributed through per-worker
//! chunked block deques with stealing (module `steal`): each worker owns a
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
//! the map function is a pure function of `(index, item)`.
//!
//! # Choosing a worker count
//!
//! The worker count changes speed, never results, so it is not an
//! argument of the analysis APIs. It is a setting of the calling
//! thread, made once where a call enters (the CLI's `--threads`, a
//! serve round, a benchmark rung) with [`Parallelism::scope`], and read
//! by every `par_*` call underneath with [`Parallelism::current`].
//! Outside any scope it is [`Parallelism::Auto`]:
//!
//! * [`Parallelism::Seq`] — run inline on the caller's thread;
//! * [`Parallelism::Threads`]`(n)` — at most `n` workers (reduced when the
//!   cost hint says the work cannot amortize even a pool wake-up);
//! * [`Parallelism::Auto`] — [`std::thread::available_parallelism`]
//!   workers, but only when the caller's cost hint says the work dwarfs
//!   a dispatch.
//!
//! ```
//! use wcm_par::{par_map, Parallelism};
//!
//! assert_eq!(Parallelism::current(), Parallelism::Auto);
//! let squares = Parallelism::Threads(2).scope(|| {
//!     assert_eq!(Parallelism::current(), Parallelism::Threads(2));
//!     par_map(&[1u64, 2, 3], u64::MAX, |_, v| v * v)
//! });
//! assert_eq!(squares, [1, 4, 9]);
//! assert_eq!(Parallelism::current(), Parallelism::Auto);
//! ```
//!
//! # Grain threshold
//!
//! Every worker must be backed by at least a grain of unit operations
//! or it is not engaged: below the grain, waking a worker costs more
//! than the work itself. The grain is calibrated once per process by
//! timing an empty **pool dispatch** (not a thread spawn — the pool made
//! the old spawn-based grain an order of magnitude too conservative)
//! against a unit-operation loop. Worker counts never affect results —
//! every `par_*` entry point is deterministic — so the calibration only
//! moves the speed, never the answer.
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

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// Hard cap on pool threads. [`Parallelism::parse`] rejects larger
/// counts, and the pool never spawns more threads than this for any
/// `Threads(n)`.
pub const MAX_POOL_THREADS: usize = 256;

/// Work below this many "unit operations" (caller-estimated) runs
/// sequentially under [`Parallelism::Auto`]: dispatch would dominate.
/// Kept as the calibration fallback when timing is unavailable.
const AUTO_SEQ_THRESHOLD_OPS: u64 = 1 << 18;

/// Lower clamp of the calibrated [`grain_ops`]: a pool wake-up costs
/// single-digit µs, so a worker backed by ~16k unit operations already
/// amortizes it. (The old spawn-based lower clamp was 16× higher.)
const GRAIN_OPS_MIN: u64 = 1 << 14;

/// Upper clamp of the calibrated grain: even on machines where dispatch
/// looks expensive, work this large is always worth one extra worker.
const GRAIN_OPS_MAX: u64 = 1 << 22;

static GRAIN_OPS: OnceLock<u64> = OnceLock::new();

thread_local! {
    /// The calling thread's setting; see [`Parallelism::scope`].
    static CURRENT: Cell<Parallelism> = const { Cell::new(Parallelism::Auto) };
}

/// The per-worker grain in unit operations: a worker is only engaged
/// when it can be handed at least this much work.
///
/// Resolved once per process: a one-shot calibration times an empty
/// pool dispatch against a unit-operation loop and requires each worker
/// to amortize ≈ 4 dispatch costs, clamped to `2¹⁴..=2²²` operations.
#[must_use]
pub(crate) fn grain_ops() -> u64 {
    *GRAIN_OPS.get_or_init(|| calibrate_grain().clamp(GRAIN_OPS_MIN, GRAIN_OPS_MAX))
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
    /// is reduced when the cost hint cannot back each worker with a
    /// grain of unit operations (see the crate docs), so an explicit thread count is
    /// never slower than sequential on small inputs.
    Threads(usize),
    /// Use all available cores when the work is large enough to amortize
    /// a pool dispatch, otherwise run sequentially.
    #[default]
    Auto,
}

impl Parallelism {
    /// Parses a CLI-style value: `"auto"`/`"0"` → [`Parallelism::Auto`],
    /// `"1"` → [`Parallelism::Seq`], `"n"` → [`Parallelism::Threads`]`(n)`
    /// for `n ≤` [`MAX_POOL_THREADS`].
    ///
    /// # Errors
    ///
    /// A message naming the offending string if it is neither `auto` nor
    /// an integer, or if it asks for more than [`MAX_POOL_THREADS`]
    /// workers.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" | "Auto" | "AUTO" => Ok(Self::Auto),
            _ => match s.parse::<usize>() {
                Ok(0) => Ok(Self::Auto),
                Ok(1) => Ok(Self::Seq),
                Ok(n) if n <= MAX_POOL_THREADS => Ok(Self::Threads(n)),
                Ok(_) => Err(format!(
                    "thread count `{s}` exceeds the pool cap of {MAX_POOL_THREADS}"
                )),
                Err(_) => Err(format!("invalid thread count `{s}` (expected `auto` or N)")),
            },
        }
    }

    /// The calling thread's current setting: the innermost
    /// [`Parallelism::scope`] around this call, or
    /// [`Parallelism::Auto`] outside any scope.
    #[must_use]
    pub fn current() -> Self {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` with `self` as the calling thread's current setting, so
    /// every `par_*` call `f` makes uses it. The previous setting is
    /// restored when `f` returns and when it unwinds. A `par_*` call
    /// nested inside a pool worker runs inline on that worker whatever
    /// its setting.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Parallelism);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(self)));
        f()
    }

    /// The number of workers to use for `items` items whose total cost is
    /// roughly `cost_hint_ops` unit operations.
    ///
    /// A request for one worker (`Seq`, `Threads(0 | 1)`, one item)
    /// answers 1 without calibrating [`grain_ops`], so sequential work
    /// never wakes the pool, not even for the one-shot calibration.
    #[must_use]
    pub(crate) fn workers(self, items: usize, cost_hint_ops: u64) -> usize {
        let requested = match self {
            Self::Seq => 1,
            Self::Threads(n) => n,
            Self::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
        .min(items);
        if requested <= 1 {
            return 1;
        }
        // Each worker must amortize its wake-up with at least one grain
        // of unit operations; below that, fall back towards sequential
        // whatever the requested count — this is the work-threshold
        // fallback that keeps `par_map` from ever losing to the
        // sequential path on small grids.
        let affordable = usize::try_from(cost_hint_ops / grain_ops()).unwrap_or(usize::MAX);
        requested.min(affordable).max(1)
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

/// Places `(start, values)` block results covering `0..n` into `out`
/// in index order, with `slots` as reusable scratch.
fn assemble<U>(
    n: usize,
    parts: Vec<(usize, Vec<U>)>,
    slots: &mut Vec<Option<U>>,
    out: &mut Vec<U>,
) {
    slots.clear();
    slots.resize_with(n, || None);
    for (start, vals) in parts {
        for (j, v) in vals.into_iter().enumerate() {
            slots[start + j] = Some(v);
        }
    }
    out.extend(
        slots
            .drain(..)
            .map(|slot| slot.expect("every block fills its own slots")),
    );
}

/// Maps `f` over `items` with deterministic output ordering:
/// `out[i] = f(i, &items[i])` exactly as in the sequential loop, under
/// the [`Parallelism::current`] setting.
///
/// `cost_hint_ops` estimates the total work in unit operations (e.g.
/// `items × inner-loop length`); the runtime uses it to decide whether
/// waking pool workers is worth it — below the grain threshold
/// every setting degrades to the sequential path.
///
/// Workers claim fixed-size blocks from per-worker deques and steal from
/// each other once their own span is drained, so items with wildly
/// different costs still spread evenly across threads.
pub fn par_map<T, U, F>(items: &[T], cost_hint_ops: u64, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = Parallelism::current().workers(items.len(), cost_hint_ops);
    if workers <= 1 || items.len() <= 1 {
        wcm_obs::counter("par.seq_runs", 1);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    wcm_obs::counter("par.par_runs", 1);
    wcm_obs::counter("par.workers_spawned", workers as u64);
    let parts = run_blocks(
        workers,
        items.len(),
        || (),
        |(), mine, block| {
            let vals: Vec<U> = items[block.start..block.end]
                .iter()
                .enumerate()
                .map(|(j, t)| f(block.start + j, t))
                .collect();
            mine.push((block.start, vals));
        },
    );
    let mut out = Vec::with_capacity(items.len());
    assemble(items.len(), parts, &mut Vec::new(), &mut out);
    out
}

/// Streaming variant of [`par_map`] for outputs too large to hold:
/// evaluates the **virtual index range** `0..n_items` (no input slice —
/// the caller decodes each index itself, so a million-cell grid is never
/// materialized) one bounded chunk at a time and hands each completed
/// chunk to `emit` **in input-index order**. Peak memory is
/// O(`chunk_items`) values regardless of `n_items`.
///
/// Within a chunk the items are spread across the worker pool through
/// the same stealing block deques as [`par_map`] and placed by index, so
/// the emitted sequence equals the sequential
/// `for i in 0..n_items { f(&mut s, i) }` for any worker count. Each
/// engaged worker creates one state with `init` (scratch buffers, …).
/// `emit` runs on the calling thread between chunks; returning `Err`
/// aborts the run immediately (remaining chunks are never evaluated) —
/// the hook for sink I/O failures.
///
/// The chunk buffer is reused across chunks; `emit` receives it by
/// `&mut` and may drain it, but whatever it leaves is cleared before the
/// next chunk.
///
/// # Errors
///
/// Only what `emit` returns; evaluation itself is infallible.
pub fn par_map_stream<U, S, I, F, M, E>(
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
    let workers = Parallelism::current().workers(n_items, cost_hint_ops);
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
    let mut slots: Vec<Option<U>> = Vec::new();
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
        out.clear();
        assemble(len, parts, &mut slots, &mut out);
        wcm_obs::counter("par.stream_chunks", 1);
        emit(start, &mut out)?;
        start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parse_knob() {
        assert_eq!(Parallelism::parse("auto").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::parse("0").unwrap(), Parallelism::Auto);
        assert_eq!(Parallelism::parse("1").unwrap(), Parallelism::Seq);
        assert_eq!(Parallelism::parse("4").unwrap(), Parallelism::Threads(4));
        assert!(Parallelism::parse("four").is_err());
    }

    #[test]
    fn parse_rejects_counts_above_the_pool_cap() {
        let cap = MAX_POOL_THREADS.to_string();
        assert_eq!(
            Parallelism::parse(&cap).unwrap(),
            Parallelism::Threads(MAX_POOL_THREADS)
        );
        let over = (MAX_POOL_THREADS + 1).to_string();
        assert!(Parallelism::parse(&over).unwrap_err().contains(&over));
        assert!(Parallelism::parse("100000000000").is_err());
    }

    #[test]
    fn scope_defaults_to_auto() {
        // A fresh thread has entered no scope.
        let seen = std::thread::spawn(Parallelism::current).join().unwrap();
        assert_eq!(seen, Parallelism::Auto);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn nested_scopes_restore_the_outer_setting() {
        let before = Parallelism::current();
        Parallelism::Seq.scope(|| {
            assert_eq!(Parallelism::current(), Parallelism::Seq);
            let inner = Parallelism::Threads(3).scope(|| {
                assert_eq!(Parallelism::current(), Parallelism::Threads(3));
                7
            });
            assert_eq!(inner, 7);
            assert_eq!(Parallelism::current(), Parallelism::Seq);
        });
        assert_eq!(Parallelism::current(), before);
    }

    #[test]
    fn scope_is_restored_after_a_caught_panic() {
        let before = Parallelism::current();
        let r = std::panic::catch_unwind(|| {
            Parallelism::Threads(5).scope(|| {
                Parallelism::Seq.scope(|| panic!("boom"));
            });
        });
        assert!(r.is_err());
        assert_eq!(Parallelism::current(), before);
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
        // Tiny work: even an explicit Threads(8) collapses to 1 worker,
        // so thread start-up never costs more than the work it splits.
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
        assert!((GRAIN_OPS_MIN..=GRAIN_OPS_MAX).contains(&g));
        assert_eq!(g, grain_ops(), "grain must be resolved once per process");
    }

    #[test]
    fn par_map_matches_sequential_for_all_worker_counts() {
        let items: Vec<u64> = (0..1_003).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for par in [
            Parallelism::Seq,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(7),
            Parallelism::Threads(64),
            Parallelism::Auto,
        ] {
            let got = par.scope(|| par_map(&items, u64::MAX, |i, v| v * 3 + i as u64));
            assert_eq!(got, expect, "mismatch under {par:?}");
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        Parallelism::Threads(4).scope(|| {
            let empty: Vec<u32> = vec![];
            assert!(par_map(&empty, u64::MAX, |_, v| *v).is_empty());
            assert_eq!(par_map(&[9u32], u64::MAX, |_, v| v + 1), vec![10]);
        });
    }

    #[test]
    fn auto_workers_scale_with_cost() {
        // Below the grain Auto stays sequential; above it the worker count
        // is bounded by cost / grain_ops().
        assert_eq!(Parallelism::Auto.workers(1000, grain_ops() - 1), 1);
        let w = Parallelism::Auto.workers(1000, 3 * grain_ops());
        assert!(
            (1..=3).contains(&w),
            "expected at most 3 affordable workers, got {w}"
        );
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
                par.scope(|| {
                    par_map_stream::<_, _, _, _, _, ()>(
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
                })
                .unwrap();
                assert_eq!(got, expect, "mismatch under {par:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn par_map_stream_creates_one_state_per_engaged_worker() {
        for (par, most) in [(Parallelism::Seq, 1), (Parallelism::Threads(3), 3)] {
            let inits = AtomicUsize::new(0);
            let mut got = Vec::new();
            par.scope(|| {
                par_map_stream::<_, _, _, _, _, ()>(
                    2_011,
                    u64::MAX,
                    2_011,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i| i * 7,
                    |_, vals| {
                        got.append(vals);
                        Ok(())
                    },
                )
            })
            .unwrap();
            assert_eq!(got, (0..2_011).map(|i| i * 7).collect::<Vec<_>>());
            let inits = inits.load(Ordering::Relaxed);
            assert!((1..=most).contains(&inits), "{inits} states under {par:?}");
        }
    }

    #[test]
    fn par_map_stream_aborts_on_emit_error() {
        let evaluated = AtomicUsize::new(0);
        let mut emits = 0usize;
        let r = Parallelism::Threads(4).scope(|| {
            par_map_stream(
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
            )
        });
        assert_eq!(r, Err("sink full"));
        assert_eq!(emits, 3);
        // Only the chunks up to the failing emit were evaluated.
        assert_eq!(evaluated.load(Ordering::Relaxed), 3_000);
    }

    #[test]
    fn par_map_stream_handles_empty_and_tiny_ranges() {
        Parallelism::Threads(4).scope(|| {
            let mut emits = 0usize;
            par_map_stream::<u32, _, _, _, _, ()>(
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
        });
    }
}
