//! Frontier bisection against ground truth.
//!
//! Two layers:
//!
//! * property tests of [`staircase_thresholds`] on randomized monotone
//!   grids — the bisected thresholds must equal a brute-force column
//!   scan, within the O(log) query budget;
//! * an integration test on a real sweep spec — the bisected Pareto
//!   frontier must be **bit-identical** to the dense-grid frontier of
//!   [`run_sweep`] while evaluating at most 25 % of its cells (the
//!   acceptance bar of the adaptive-frontier work).

use proptest::prelude::*;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile::standard_clips, ClipWorkload, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::pipeline::OverflowPolicy;
use wcm_sim::{run_frontier, run_sweep, staircase_thresholds, Injector, SweepSpec};

/// Brute-force ground truth: first safe frequency position per capacity.
fn brute_thresholds(n_freq: usize, thresholds: &[usize]) -> Vec<usize> {
    thresholds
        .iter()
        .map(|&t| (0..n_freq).find(|&f| f >= t).unwrap_or(n_freq))
        .collect()
}

/// Non-increasing thresholds in `0..=n_freq` from raw generator output:
/// a random monotone staircase (bigger capacity never needs a higher
/// frequency).
fn monotone_grid(n_freq: usize, n_cap: usize, raw: &[usize]) -> Vec<usize> {
    let mut t: Vec<usize> = raw[..n_cap].iter().map(|r| r % (n_freq + 1)).collect();
    t.sort_unstable_by(|a, b| b.cmp(a)); // non-increasing
    t
}

proptest! {
    #[test]
    fn bisected_thresholds_equal_brute_force(
        n_freq in 1usize..48,
        n_cap in 1usize..14,
        raw in proptest::collection::vec(0usize..1000, 14),
    ) {
        let thresholds = monotone_grid(n_freq, n_cap, &raw);
        let mut queries = 0usize;
        let got = staircase_thresholds(n_freq, n_cap, &mut |f, c| {
            queries += 1;
            f >= thresholds[c]
        });
        prop_assert_eq!(got, brute_thresholds(n_freq, &thresholds));
        // Each capacity's binary search costs at most ceil(log2(W+1))
        // queries over its window W ≤ n_freq.
        let per_cap = usize::BITS as usize - n_freq.leading_zeros() as usize + 1;
        prop_assert!(
            queries <= n_cap * per_cap,
            "{queries} queries exceeds budget {} (n_freq={n_freq}, n_cap={n_cap})",
            n_cap * per_cap
        );
    }

    #[test]
    fn bisection_is_oblivious_to_query_results_outside_the_staircase(
        n_freq in 1usize..48,
        n_cap in 1usize..14,
        raw in proptest::collection::vec(0usize..1000, 14),
    ) {
        // Determinism: the query *sequence* is a pure function of the
        // oracle's answers, so running twice gives identical traces.
        let thresholds = monotone_grid(n_freq, n_cap, &raw);
        let mut trace_a = Vec::new();
        let a = staircase_thresholds(n_freq, n_cap, &mut |f, c| {
            trace_a.push((f, c));
            f >= thresholds[c]
        });
        let mut trace_b = Vec::new();
        let b = staircase_thresholds(n_freq, n_cap, &mut |f, c| {
            trace_b.push((f, c));
            f >= thresholds[c]
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(trace_a, trace_b);
    }
}

fn clips(count: usize) -> Vec<ClipWorkload> {
    let params =
        VideoParams::new(160, 128, 25.0, 1.0e6, wcm_mpeg::GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    standard_clips()[..count]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

fn frontier_spec() -> SweepSpec {
    // A frequency axis fine enough that log-bisection has room to win:
    // 32 geometric points from 2 MHz to 60 MHz, 3 capacities.
    let n = 32;
    let (lo, hi) = (2.0e6f64, 60.0e6f64);
    let frequencies_hz = (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect();
    SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz,
        capacities: vec![4, 80, 4000],
        policies: vec![OverflowPolicy::Backpressure, OverflowPolicy::Reject],
        seeds: vec![None, Some(11)],
        injectors: vec![Injector::JitterBurst {
            start: 5,
            len: 60,
            max_delay_s: 0.004,
        }],
        k_max: 600,
        mode: WindowMode::Strided {
            exact_upto: 128,
            stride: 40,
        },
        cert_depth: 400,
        prune: true,
    }
}

#[test]
fn bisected_frontier_is_bitwise_identical_to_dense_and_cheap() {
    let clips = clips(2);
    let spec = frontier_spec();

    let sweep = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
    let bisect = run_frontier(&clips, &spec).unwrap();

    // The full sweep's frontier, bit for bit.
    assert_eq!(bisect.frontier, sweep.pareto, "bisection changed the frontier");
    assert!(!bisect.frontier.is_empty(), "spec should admit safe cells");

    // The full sweep visits every cell; bisection at most a quarter.
    assert_eq!(bisect.grid_cells, spec.frequencies_hz.len() * spec.capacities.len());
    assert!(
        4 * bisect.evaluated_cells <= bisect.grid_cells,
        "bisection evaluated {}/{} cells (> 25%)",
        bisect.evaluated_cells,
        bisect.grid_cells
    );
}

#[test]
fn frontier_without_prune_still_matches_dense() {
    // The bisection must not depend on the analytic table being present:
    // with pruning off every cell decision is simulation-backed.
    let clips = clips(1);
    let spec = SweepSpec {
        prune: false,
        frequencies_hz: frontier_spec().frequencies_hz[..12].to_vec(),
        ..frontier_spec()
    };
    let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
    let bisect = run_frontier(&clips, &spec).unwrap();
    assert_eq!(bisect.frontier, dense.pareto);
    assert!(bisect.evaluated_cells < bisect.grid_cells);
}

#[test]
fn frontier_with_no_clean_seed_is_vacuously_all_safe() {
    // The dense pareto filter ignores fault-seeded points; with no clean
    // seed every cell is safe, and bisection must agree without running
    // a single simulation.
    let clips = clips(1);
    let spec = SweepSpec {
        seeds: vec![Some(7)],
        frequencies_hz: frontier_spec().frequencies_hz[..8].to_vec(),
        ..frontier_spec()
    };
    let sweep = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
    let bisect = run_frontier(&clips, &spec).unwrap();
    assert_eq!(bisect.frontier, sweep.pareto);
}
