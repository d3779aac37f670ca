//! Property-based tests of the mergeable curve summaries.
//!
//! The two exactness claims the `.wcmt` summary merge rests on, each
//! checked bitwise on `u64` sums:
//!
//! * **merge associativity** — `(A ⧺ B) ⧺ C` and `A ⧺ (B ⧺ C)` produce
//!   identical tables (and both equal the direct summary of the
//!   concatenation), for random values, grids and split points;
//! * **chunked ≡ sequential oracle** — summarizing random chunkings and
//!   folding equals the sequential [`max_window_sums`]/
//!   [`min_window_sums`] scan, which gives the same tables under any
//!   worker count.

use proptest::collection::vec;
use proptest::prelude::*;
use wcm_events::summary::{CurveSummary, Sides};
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
}
