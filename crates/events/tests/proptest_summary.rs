//! Property-based tests of the mergeable curve summaries.
//!
//! The three exactness claims the trace-parallel and incremental paths
//! rest on, each checked bitwise on `u64` sums:
//!
//! * **merge associativity** — `(A ⧺ B) ⧺ C` and `A ⧺ (B ⧺ C)` produce
//!   identical tables (and both equal the direct summary of the
//!   concatenation), for random values, grids and split points;
//! * **chunked ≡ sequential oracle** — summarizing random chunkings and
//!   folding equals the sequential [`max_window_sums`]/
//!   [`min_window_sums`] scan, and the parallel `window_sums` path
//!   equals the sequential one;
//! * **incremental ≡ full rebuild** — appending event by event (and via
//!   a [`SummarySpine`] with random chunk targets, including fault-plan
//!   perturbed streams) matches rebuilding from scratch.

use proptest::collection::vec;
use proptest::prelude::*;
use wcm_events::summary::{summarize, CurveSummary, Sides, SummarySpine};
use wcm_events::window::{max_window_sums, min_window_sums, Parallelism, WindowMode};

/// A strictly ascending grid starting at ≥ 1, like the ones
/// `WindowMode::grid` produces.
fn grid_strategy(max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    vec(1..=max_len.max(1), 1..8).prop_map(|mut ks| {
        ks.sort_unstable();
        ks.dedup();
        ks
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative_and_exact(
        values in vec(0u64..10_000, 3..200),
        grid in grid_strategy(64),
        splits in (0u16..=u16::MAX, 0u16..=u16::MAX),
    ) {
        let n = values.len();
        let (mut a, mut b) = (splits.0 as usize % (n + 1), splits.1 as usize % (n + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let sa = CurveSummary::from_values(&values[..a], &grid, Sides::Both);
        let sb = CurveSummary::from_values(&values[a..b], &grid, Sides::Both);
        let sc = CurveSummary::from_values(&values[b..], &grid, Sides::Both);
        let left = sa.merge(&sb).merge(&sc);
        let right = sa.merge(&sb.merge(&sc));
        let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
        prop_assert_eq!(left.max_table(), right.max_table());
        prop_assert_eq!(left.min_table(), right.min_table());
        prop_assert_eq!(left.max_table(), whole.max_table());
        prop_assert_eq!(left.min_table(), whole.min_table());
        prop_assert_eq!(left.len(), whole.len());
        prop_assert_eq!(left.total(), whole.total());
    }

    #[test]
    fn chunked_fold_matches_sequential_oracle(
        values in vec(0u64..50_000, 8..300),
        chunk in 1usize..40,
        k_max_frac in 1u8..=100,
    ) {
        let k_max = ((values.len() * k_max_frac as usize) / 100).clamp(1, values.len());
        let grid: Vec<usize> = (1..=k_max).collect();
        let mut acc = CurveSummary::empty(&grid, Sides::Both);
        for c in values.chunks(chunk) {
            acc = acc.merge(&CurveSummary::from_values(c, &grid, Sides::Both));
        }
        let (maxs, mins) = Parallelism::Seq.scope(|| {
            (
                max_window_sums(&values, k_max, WindowMode::Exact).unwrap(),
                min_window_sums(&values, k_max, WindowMode::Exact).unwrap(),
            )
        });
        prop_assert_eq!(acc.max_table(), &maxs[..]);
        prop_assert_eq!(acc.min_table(), &mins[..]);
    }

    #[test]
    fn parallel_window_sums_match_sequential_bitwise(
        values in vec(0u64..100_000, 4..400),
        k_max_frac in 1u8..=100,
        stride in 1usize..7,
        threads in 2usize..5,
    ) {
        let k_max = ((values.len() * k_max_frac as usize) / 100).clamp(1, values.len());
        for mode in [
            WindowMode::Exact,
            WindowMode::Strided { exact_upto: k_max / 3, stride },
        ] {
            let sums = |par: Parallelism| {
                par.scope(|| {
                    (
                        max_window_sums(&values, k_max, mode).unwrap(),
                        min_window_sums(&values, k_max, mode).unwrap(),
                    )
                })
            };
            prop_assert_eq!(sums(Parallelism::Threads(threads)), sums(Parallelism::Seq));
        }
    }

    #[test]
    fn summarize_is_worker_count_invariant(
        values in vec(0u64..10_000, 2..250),
        grid in grid_strategy(48),
    ) {
        let oracle = CurveSummary::from_values(&values, &grid, Sides::Both);
        for par in [Parallelism::Seq, Parallelism::Threads(2), Parallelism::Threads(7)] {
            let s = par.scope(|| summarize(&values, &grid, Sides::Both));
            prop_assert_eq!(s.max_table(), oracle.max_table());
            prop_assert_eq!(s.min_table(), oracle.min_table());
        }
    }

    #[test]
    fn incremental_append_matches_full_rebuild(
        values in vec(0u64..10_000, 1..150),
        grid in grid_strategy(32),
        prefix_frac in 0u8..=100,
    ) {
        // Start from a summarized prefix, append the rest one event at a
        // time — the summary must stay exact at every length.
        let split = (values.len() * prefix_frac as usize) / 100;
        let mut s = CurveSummary::from_values(&values[..split], &grid, Sides::Both);
        for (i, &v) in values[split..].iter().enumerate() {
            s.append(v);
            let upto = split + i + 1;
            let whole = CurveSummary::from_values(&values[..upto], &grid, Sides::Both);
            prop_assert_eq!(s.max_table(), whole.max_table(), "len {}", upto);
            prop_assert_eq!(s.min_table(), whole.min_table(), "len {}", upto);
        }
    }

    #[test]
    fn spine_matches_rebuild_across_chunk_targets_and_fault_plans(
        base in vec(0u64..10_000, 10..200),
        grid in grid_strategy(24),
        chunk_target in 1usize..100,
        spike in (0u16..=u16::MAX, 1u64..8, 0u64..50_000),
    ) {
        // Perturb a suffix window, like a demand-spike fault plan does:
        // scaled demand from a random start for a random length.
        let mut values = base;
        let start = spike.0 as usize % values.len();
        let len = (spike.1 as usize).min(values.len() - start);
        for v in &mut values[start..start + len] {
            *v = v.saturating_mul(3).saturating_add(spike.2);
        }
        let mut spine = SummarySpine::new(&grid, Sides::Both, chunk_target);
        // Mix push and bulk-extend across a random boundary.
        let mid = values.len() / 2;
        for &v in &values[..mid] {
            spine.push(v);
        }
        spine.extend_from_slice(&values[mid..]);
        let curve = spine.curve();
        let whole = CurveSummary::from_values(&values, &grid, Sides::Both);
        prop_assert_eq!(curve.max_table(), whole.max_table());
        prop_assert_eq!(curve.min_table(), whole.min_table());
        prop_assert_eq!(curve.len(), whole.len());
        prop_assert_eq!(curve.total(), whole.total());
    }
}
