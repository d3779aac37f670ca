//! The span-scan counters (`events.spans_scanned`,
//! `events.spans_total`). One test in its own binary: the recorder is
//! process-global, so no other test may scan while this one counts.

use wcm_events::window::{max_spans, min_spans, Parallelism, WindowMode};

/// `(spans scanned, spans covered, demand windows covered)` of one
/// `min_spans` and one `max_spans` scan.
fn counted(times: &[f64], k_max: usize, mode: WindowMode) -> (u64, u64, u64) {
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    Parallelism::Seq.scope(|| {
        min_spans(times, k_max, mode).unwrap();
        max_spans(times, k_max, mode).unwrap();
    });
    wcm_obs::set_enabled(false);
    let snap = rec.snapshot();
    (
        snap.counter("events.spans_scanned"),
        snap.counter("events.spans_total"),
        snap.counter("events.windows_total"),
    )
}

#[test]
fn counters_report_covered_and_evaluated_spans() {
    let n = 20_000;
    let k_max = 500;
    let mode = WindowMode::Strided {
        exact_upto: 100,
        stride: 40,
    };
    let grid = mode.grid(k_max);
    // Both sides cover every span of two or more stamps; the span of one
    // stamp is 0 without a scan.
    let total: u64 = 2 * grid.iter().filter(|&&k| k > 1).map(|&k| (n - k + 1) as u64).sum::<u64>();

    // Constant gaps: every span of a size is equal, so every block may
    // hold the extremum and every span is evaluated (the seeds come on
    // top). Span scans count as spans, not as demand windows.
    let steady: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let (scanned, covered, windows) = counted(&steady, k_max, mode);
    assert_eq!(covered, total);
    assert!(scanned >= total, "{scanned} < {total}");
    assert_eq!(windows, 0);

    // A burst of 600 stamps 1 ms apart and a lull of 600 stamps 10 s
    // apart in a stream 1 s apart: only the blocks near the burst (lull)
    // can hold a minimal (maximal) span.
    let mut clock = 0.0;
    let bursty: Vec<f64> = (0..n)
        .map(|i| {
            clock += match i {
                5_000..=5_599 => 1e-3,
                12_000..=12_599 => 10.0,
                _ => 1.0,
            };
            clock
        })
        .collect();
    let (scanned, covered, _) = counted(&bursty, k_max, mode);
    assert_eq!(covered, total);
    assert!(scanned * 5 < total, "{scanned} of {total} spans evaluated");

    // One 1 000 s pause among 20 000 stamps 1 s apart: every maximal
    // span holds it. Spans of 17–24 stamps seed on the block after the
    // one with their group's largest bound, as the shorter spans reach
    // the pause only from there; with the pause in every seed, the
    // shifted cut leaves only the blocks near it.
    let mut clock = 0.0;
    let pause: Vec<f64> = (0..n)
        .map(|i| {
            clock += if i == 10_000 { 1_000.0 } else { 1.0 };
            clock
        })
        .collect();
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    max_spans(&pause, 24, WindowMode::Exact).unwrap();
    wcm_obs::set_enabled(false);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("events.spans_total"), 459_724);
    assert_eq!(snap.counter("events.spans_scanned"), 1_452);

    // Switched off, the scans count nothing.
    let rec = wcm_obs::mem();
    rec.reset();
    min_spans(&bursty, k_max, mode).unwrap();
    assert_eq!(rec.snapshot().counter("events.spans_total"), 0);
}
