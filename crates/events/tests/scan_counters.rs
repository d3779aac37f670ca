//! The window-scan counters (`events.windows_scanned`,
//! `events.windows_total`). One test in its own binary: the recorder is
//! process-global, so no other test may scan while this one counts.

use wcm_events::window::{max_window_sums, min_window_sums, Parallelism, WindowMode};

fn counted(values: &[u64], k_max: usize, mode: WindowMode) -> (u64, u64) {
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    Parallelism::Seq.scope(|| {
        max_window_sums(values, k_max, mode).unwrap();
        min_window_sums(values, k_max, mode).unwrap();
    });
    wcm_obs::set_enabled(false);
    let snap = rec.snapshot();
    (snap.counter("events.windows_scanned"), snap.counter("events.windows_total"))
}

#[test]
fn counters_report_covered_and_evaluated_windows() {
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
    let (scanned, covered) = counted(&vec![7u64; n], k_max, mode);
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
    let (scanned, covered) = counted(&wave, k_max, mode);
    assert_eq!(covered, total);
    assert!(scanned * 5 < total, "{scanned} of {total} windows evaluated");

    // Switched off, the scans count nothing.
    let rec = wcm_obs::mem();
    rec.reset();
    max_window_sums(&wave, k_max, mode).unwrap();
    assert_eq!(rec.snapshot().counter("events.windows_total"), 0);
}
