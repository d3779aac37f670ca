//! The window-scan counters (`events.windows_scanned`,
//! `events.windows_total`). A binary of its own: the recorder is
//! process-global, so each test holds [`RECORDER`] while it counts and no
//! other test binary scans in this process.

use std::sync::{Mutex, MutexGuard, PoisonError};
use wcm_events::window::{max_window_sums, min_window_sums, Parallelism, WindowMode};

/// Held by each test for as long as it reads the recorder.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Both scans under `par`, counted: `(events.windows_scanned,
/// events.windows_total, par.par_runs)`.
fn counted(values: &[u64], k_max: usize, mode: WindowMode, par: Parallelism) -> (u64, u64, u64) {
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    par.scope(|| {
        max_window_sums(values, k_max, mode).unwrap();
        min_window_sums(values, k_max, mode).unwrap();
    });
    wcm_obs::set_enabled(false);
    let snap = rec.snapshot();
    (
        snap.counter("events.windows_scanned"),
        snap.counter("events.windows_total"),
        snap.counter("par.par_runs"),
    )
}

#[test]
fn counters_report_covered_and_evaluated_windows() {
    let _recorder = recorder();
    let n = 20_000;
    let k_max = 500;
    let mode = WindowMode::Strided {
        exact_upto: 100,
        stride: 40,
    };
    let grid = mode.grid(k_max);
    // Both sides cover every window of every grid size.
    let total: u64 = 2 * grid.iter().map(|&k| (n - k + 1) as u64).sum::<u64>();

    // Alternating 0 and 14: every block holds both extrema and the step
    // floor is 0, so every window is evaluated (the seeds come on top).
    let alternating: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { 0 } else { 14 }).collect();
    let (scanned, covered, _) = counted(&alternating, k_max, mode, Parallelism::Seq);
    assert_eq!(covered, total);
    assert!(scanned >= total, "{scanned} < {total}");

    // Constant: every window of a size ties, and the step floor (the
    // smallest value) proves it block by block. The max side evaluates
    // only its seeds and the starts past the last full block, which have
    // no bound: at most two seed blocks plus a tail of under 16 + 7
    // starts per size. The min side also evaluates every window of the
    // groups that hold a size below 15 (sizes 1–16 here), which have no
    // lower bound.
    let flat = vec![7u64; n];
    let (scanned, covered) = counted_max(&flat, k_max, mode);
    assert_eq!(2 * covered, total);
    assert_eq!(scanned, FLAT_MAX_SCANNED);
    assert!(scanned <= grid.len() as u64 * (2 * 16 + 16 + 7), "{scanned} windows evaluated");
    let (scanned, _, _) = counted(&flat, k_max, mode, Parallelism::Seq);
    let unbounded: u64 = grid.iter().filter(|&&k| k <= 16).map(|&k| (n - k + 1) as u64).sum();
    assert!(scanned <= unbounded + 2 * FLAT_MAX_SCANNED, "{scanned} windows evaluated");

    // One tall plateau and one deep trough on a flat floor: only the
    // blocks near the plateau (trough) can hold a maximum (minimum).
    let wave: Vec<u64> = (0..n)
        .map(|i| match i {
            5_000..=5_499 => 5_000,
            12_000..=12_499 => 10,
            _ => 1_000,
        })
        .collect();
    let (scanned, covered, _) = counted(&wave, k_max, mode, Parallelism::Seq);
    assert_eq!(covered, total);
    assert!(scanned * 5 < total, "{scanned} of {total} windows evaluated");

    // Switched off, the scans count nothing.
    let rec = wcm_obs::mem();
    rec.reset();
    max_window_sums(&wave, k_max, mode).unwrap();
    assert_eq!(rec.snapshot().counter("events.windows_total"), 0);
}

/// `(events.windows_scanned, events.windows_total)` of one
/// `max_window_sums` scan.
fn counted_max(values: &[u64], k_max: usize, mode: WindowMode) -> (u64, u64) {
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    max_window_sums(values, k_max, mode).unwrap();
    wcm_obs::set_enabled(false);
    let snap = rec.snapshot();
    (snap.counter("events.windows_scanned"), snap.counter("events.windows_total"))
}

/// Windows the max side evaluates on 20 000 sevens over the strided
/// grid of [`counters_report_covered_and_evaluated_windows`].
const FLAT_MAX_SCANNED: u64 = 4_484;

#[test]
fn a_pause_among_unit_values_evaluates_few_windows() {
    let _recorder = recorder();
    // One value of 1 000 among 20 000 ones: every maximum holds it, and
    // the step floor (1) proves every block that misses it tied. Sizes
    // 16–23 seed on the block after the one with their group's largest
    // bound, as the smaller sizes reach the spike only from there.
    let mut values = vec![1u64; 20_000];
    values[10_000] = 1_000;
    let (scanned, covered) = counted_max(&values, 23, WindowMode::Exact);
    assert_eq!(covered, 459_747);
    assert_eq!(scanned, 963);
}

#[test]
fn threaded_scans_run_the_one_pass_on_the_calling_thread() {
    let _recorder = recorder();
    // len × grid = 2·10⁷ unit operations, at least twice the largest
    // pool grain: work a pool would split between two workers.
    let values: Vec<u64> =
        (0..40_000u64).map(|i| 150 + (i * 7_919 + i / 12 * 104_729) % 3_850).collect();
    let (k_max, mode) = (500, WindowMode::Exact);
    let (seq_scanned, seq_covered, _) = counted(&values, k_max, mode, Parallelism::Seq);
    let (scanned, covered, par_runs) = counted(&values, k_max, mode, Parallelism::Threads(2));
    assert_eq!(par_runs, 0, "a window scan dispatched to the pool");
    assert_eq!(scanned, seq_scanned, "Threads(2) evaluated other windows than Seq");
    assert_eq!(covered, seq_covered);
}
