//! Property-based tests of the single-pass window analysis: the prefix-sum
//! scan must agree with the textbook sliding-window recurrence, and the
//! threaded grid evaluation must be bit-identical to the sequential one for
//! every worker count and window mode.

use proptest::prelude::*;
use wcm::events::window::{
    max_spans, max_window_sums, min_spans, min_window_sums, Parallelism, PrefixSums, WindowMode,
};

/// The pre-prefix-sum implementation: one sliding-window rescan per `k`.
fn sliding_window_oracle(values: &[u64], k: usize, maximize: bool) -> Option<u64> {
    if k == 0 {
        return Some(0);
    }
    if k > values.len() {
        return None;
    }
    let mut sum: u64 = values[..k].iter().sum();
    let mut best = sum;
    for i in k..values.len() {
        sum = sum + values[i] - values[i - k];
        best = if maximize { best.max(sum) } else { best.min(sum) };
    }
    Some(best)
}

fn arb_mode() -> impl Strategy<Value = WindowMode> {
    (0usize..3, 1usize..20, 1usize..10).prop_map(|(tag, exact_upto, stride)| {
        if tag == 0 {
            WindowMode::Exact
        } else {
            WindowMode::Strided { exact_upto, stride }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The O(1)-per-window prefix-sum scan equals the O(1)-amortized
    /// sliding-window recurrence for every k, max and min alike.
    #[test]
    fn prefix_sums_match_sliding_window_oracle(
        values in proptest::collection::vec(0u64..100_000, 1..120)
    ) {
        let p = PrefixSums::new(&values);
        for k in 0..=values.len() + 1 {
            prop_assert_eq!(p.max_window_sum(k), Ok(sliding_window_oracle(&values, k, true)));
            prop_assert_eq!(p.min_window_sum(k), Ok(sliding_window_oracle(&values, k, false)));
        }
    }

    /// Threaded whole-curve construction returns the exact same `Vec<u64>`
    /// as the sequential run, for any worker count and window mode.
    #[test]
    fn parallel_window_sums_equal_sequential(
        values in proptest::collection::vec(0u64..100_000, 1..120),
        mode in arb_mode(),
        threads in 2usize..9
    ) {
        let k_max = values.len();
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

    /// Threaded span analysis is bit-identical to the sequential run
    /// (`Vec<f64>` equality, not approximate).
    #[test]
    fn parallel_spans_equal_sequential(
        gaps in proptest::collection::vec(0.0f64..10.0, 1..100),
        mode in arb_mode(),
        threads in 2usize..9
    ) {
        let mut t = 0.0;
        let times: Vec<f64> = gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();
        let k_max = times.len();
        let spans = |par: Parallelism| {
            par.scope(|| {
                (
                    min_spans(&times, k_max, mode).unwrap(),
                    max_spans(&times, k_max, mode).unwrap(),
                )
            })
        };
        prop_assert_eq!(spans(Parallelism::Threads(threads)), spans(Parallelism::Seq));
    }
}
