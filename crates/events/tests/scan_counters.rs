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

    // Constant: every block may hold the extremum, so every window is
    // evaluated (the seeds come on top).
    let (scanned, covered, _) = counted(&vec![7u64; n], k_max, mode, Parallelism::Seq);
    assert_eq!(covered, total);
    assert!(scanned >= total, "{scanned} < {total}");

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
