//! Benchmarks of the min-plus curve algebra.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcm_curves::{bounds, minplus, Pwl};

fn random_pwl(segments: usize, seed: u64) -> Pwl {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = 0.0;
    let mut y = 0.0;
    let mut bps = Vec::with_capacity(segments);
    for _ in 0..segments {
        let slope = rng.gen_range(0.0..6.0);
        bps.push((x, y, slope));
        let dx = rng.gen_range(0.2..2.0);
        y += slope * dx + rng.gen_range(0.0..1.0);
        x += dx;
    }
    Pwl::from_breakpoints(bps).expect("monotone by construction")
}

fn bench_convolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolve");
    for &n in &[4usize, 16, 64] {
        let f = random_pwl(n, 1);
        let g = random_pwl(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(&f, &g), |b, (f, g)| {
            b.iter(|| minplus::convolve(f, g))
        });
    }
    group.finish();
}

fn bench_deconvolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("deconvolve");
    for &n in &[4usize, 16, 32] {
        let f = random_pwl(n, 3);
        // Ensure the service rate dominates so the operation converges.
        let g = random_pwl(n, 4).add(&Pwl::affine(0.0, 10.0).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(n), &(&f, &g), |b, (f, g)| {
            b.iter(|| minplus::deconvolve(f, g).unwrap())
        });
    }
    group.finish();
}

fn bench_bounds(c: &mut Criterion) {
    let alpha = random_pwl(32, 5);
    let beta = random_pwl(32, 6).add(&Pwl::affine(0.0, 12.0).unwrap());
    c.bench_function("backlog_32seg", |b| {
        b.iter(|| bounds::backlog(&alpha, &beta).unwrap())
    });
    c.bench_function("delay_32seg", |b| {
        b.iter(|| bounds::delay(&alpha, &beta).unwrap())
    });
}

fn bench_envelope(c: &mut Criterion) {
    let f = random_pwl(64, 7);
    let g = random_pwl(64, 8);
    c.bench_function("pointwise_min_64seg", |b| b.iter(|| f.min(&g)));
}

fn bench_closure(c: &mut Criterion) {
    let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 8.0), (1.0, 8.0, 1.0)]).unwrap();
    c.bench_function("subadditive_closure", |b| {
        b.iter(|| minplus::subadditive_closure(&f, 16))
    });
}

fn bench_shaper(c: &mut Criterion) {
    let alpha = random_pwl(32, 9);
    let sigma = wcm_curves::Pwl::affine(5.0, 20.0).unwrap();
    let shaper = wcm_curves::shaper::GreedyShaper::new(sigma).unwrap();
    c.bench_function("greedy_shaper_output_32seg", |b| {
        b.iter(|| shaper.output_arrival(&alpha))
    });
}

fn bench_mode_graph(c: &mut Criterion) {
    use wcm_core::modes::ModeGraph;
    use wcm_events::{Cycles, ExecutionInterval};
    // A 32-mode ring with shortcut edges.
    let mut g = ModeGraph::new();
    let ids: Vec<_> = (0..32)
        .map(|i| {
            g.add_mode(
                format!("m{i}"),
                ExecutionInterval::fixed(Cycles(100 + (i * 37) % 500)),
            )
        })
        .collect();
    for i in 0..32 {
        g.add_edge(ids[i], ids[(i + 1) % 32]).unwrap();
        g.add_edge(ids[i], ids[(i + 7) % 32]).unwrap();
    }
    c.bench_function("mode_graph_curve_k1000_32modes", |b| {
        b.iter(|| g.upper_curve(1_000).unwrap())
    });
}

criterion_group!(
    benches,
    bench_convolve,
    bench_deconvolve,
    bench_bounds,
    bench_envelope,
    bench_closure,
    bench_shaper,
    bench_mode_graph
);
criterion_main!(benches);
