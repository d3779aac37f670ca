//! Benchmarks of workload-curve and arrival-curve construction — the
//! `O(N·K)` window analyses that dominate the full-scale experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcm_core::{EnvelopeMonitor, UpperWorkloadCurve};
use wcm_events::summary::{CurveSummary, Sides};
use wcm_events::window::{max_window_sums, min_spans, Parallelism, WindowMode};

fn demand_vector(n: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    (0..n)
        .map(|_| if rng.gen_bool(0.1) { 17_500 } else { rng.gen_range(150..4_000) })
        .collect()
}

fn timestamps(n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.gen_range(1e-5..1e-3);
            t
        })
        .collect()
}

fn bench_window_sums(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_window_sums");
    for &(n, k) in &[(2_000usize, 500usize), (10_000, 2_000), (40_000, 4_000)] {
        let v = demand_vector(n);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| b.iter(|| max_window_sums(v, *k, WindowMode::Exact).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("strided", format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| {
                b.iter(|| {
                    max_window_sums(
                        v,
                        *k,
                        WindowMode::Strided {
                            exact_upto: 100,
                            stride: 50,
                        },
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// The pre-prefix-sum algorithm: one sliding-window rescan of the trace per
/// window size. Kept here as the old-vs-new baseline.
fn window_sums_rescan(values: &[u64], k_max: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let mut sum: u64 = values[..k].iter().sum();
        let mut best = sum;
        for i in k..values.len() {
            sum = sum + values[i] - values[i - k];
            best = best.max(sum);
        }
        out.push(best);
    }
    out
}

fn bench_old_vs_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_sums_old_vs_new");
    for &(n, k) in &[(10_000usize, 1_000usize), (50_000, 2_000)] {
        let v = demand_vector(n);
        group.bench_with_input(
            BenchmarkId::new("old_rescan", format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| b.iter(|| window_sums_rescan(v, *k)),
        );
        group.bench_with_input(
            BenchmarkId::new("new_prefix_seq", format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| {
                Parallelism::Seq
                    .scope(|| b.iter(|| max_window_sums(v, *k, WindowMode::Exact).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_seq_vs_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_sums_threads");
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    for &(n, k) in &[(50_000usize, 2_000usize), (100_000, 4_000)] {
        let v = demand_vector(n);
        group.bench_with_input(
            BenchmarkId::new("seq", format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| {
                Parallelism::Seq
                    .scope(|| b.iter(|| max_window_sums(v, *k, WindowMode::Exact).unwrap()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), format!("N{n}_K{k}")),
            &(&v, k),
            |b, (v, k)| {
                Parallelism::Threads(threads)
                    .scope(|| b.iter(|| max_window_sums(v, *k, WindowMode::Exact).unwrap()))
            },
        );
    }
    // Span scans run on the calling thread under any setting: the pair
    // shows that a thread scope costs them nothing.
    let t = timestamps(50_000);
    group.bench_function("spans_N50000_K2000_in_seq_scope", |b| {
        Parallelism::Seq.scope(|| b.iter(|| min_spans(&t, 2_000, WindowMode::Exact).unwrap()))
    });
    group.bench_function(format!("spans_N50000_K2000_in_threads{threads}_scope"), |b| {
        Parallelism::Threads(threads)
            .scope(|| b.iter(|| min_spans(&t, 2_000, WindowMode::Exact).unwrap()))
    });
    group.finish();
}

fn bench_curve_from_values(c: &mut Criterion) {
    let v = demand_vector(20_000);
    c.bench_function("upper_curve_from_20k_trace_k1000", |b| {
        b.iter(|| {
            UpperWorkloadCurve::new(
                max_window_sums(&v, 1_000, WindowMode::Exact).unwrap(),
            )
            .unwrap()
        })
    });
}

fn bench_pseudo_inverse(c: &mut Criterion) {
    let v = demand_vector(5_000);
    let gamma =
        UpperWorkloadCurve::new(max_window_sums(&v, 2_000, WindowMode::Exact).unwrap()).unwrap();
    c.bench_function("pseudo_inverse_1000_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000 {
                acc = acc.wrapping_add(gamma.pseudo_inverse(i as f64 * 9_999.0));
            }
            acc
        })
    });
}

fn bench_summaries(c: &mut Criterion) {
    let mut group = c.benchmark_group("curve_summary");
    let v = demand_vector(50_000);
    let grid: Vec<usize> = (1..=2_000).collect();
    group.bench_function("from_values_N50000_K2000", |b| {
        b.iter(|| CurveSummary::from_values(&v, &grid, Sides::Max))
    });
    group.bench_function("chunked8_merge_N50000_K2000", |b| {
        b.iter(|| {
            let mut acc = CurveSummary::empty(&grid, Sides::Max);
            for c in v.chunks(v.len().div_ceil(8)) {
                acc = acc.merge(&CurveSummary::from_values(c, &grid, Sides::Max));
            }
            acc
        })
    });
    // Incremental path: extend a live envelope monitor by one 3 000-event
    // GOP and read its measured curve, against the full-rebuild
    // `from_values` above.
    let mut monitor = EnvelopeMonitor::unbound(2_000).unwrap();
    monitor.observe_all(v[..47_000].iter().copied());
    let gop = &v[47_000..];
    group.bench_function("monitor_append_gop3000_over_47k", |b| {
        b.iter(|| {
            let mut m = monitor.clone();
            m.observe_all(gop.iter().copied());
            m.measured_bounds().unwrap()
        })
    });
    group.finish();
}

fn bench_min_spans(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_min_spans");
    for &(n, k) in &[(5_000usize, 1_000usize), (20_000, 4_000)] {
        let t = timestamps(n);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("N{n}_K{k}")),
            &(&t, k),
            |b, (t, k)| b.iter(|| min_spans(t, *k, WindowMode::Exact).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_window_sums,
    bench_old_vs_new,
    bench_seq_vs_par,
    bench_curve_from_values,
    bench_pseudo_inverse,
    bench_summaries,
    bench_min_spans
);
criterion_main!(benches);
