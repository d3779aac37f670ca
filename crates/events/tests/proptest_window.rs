//! Property tests of the pruned window scans.
//!
//! The blocked kernel behind `max_window_sums`/`min_window_sums` and the
//! chunk summaries skips every block of window starts whose bound cannot
//! beat the best window found so far. These tests pin it to a plain
//! rescan of every window on the shapes where a bound is tightest or
//! loosest — all zeros, constants (nothing prunes), a single spike,
//! ascending and descending ramps — for both sides, `k = n`, grids with
//! `exact_upto` 0 and 1, wide (`u128`) prefix tables, and the contract
//! that a grid entry with `k > len` keeps its identity. Every case runs
//! at `Parallelism::Seq` and `Parallelism::Threads(2)`.

use proptest::prelude::*;
use wcm_events::summary::{summarize, CurveSummary, Sides};
use wcm_events::window::{max_window_sums, min_window_sums, Parallelism, WindowMode};
use wcm_events::EventError;

/// Every window of `k` values rescanned, in `u128` so sums cannot wrap.
fn rescan(values: &[u64], k: usize, maximize: bool) -> u128 {
    let mut sum: u128 = values[..k].iter().map(|&v| u128::from(v)).sum();
    let mut best = sum;
    for i in k..values.len() {
        sum = sum + u128::from(values[i]) - u128::from(values[i - k]);
        best = if maximize { best.max(sum) } else { best.min(sum) };
    }
    best
}

/// Trace shapes: the adversarial ones, then two noisy ones whose
/// extrema sit anywhere, so a bound that is too tight shows.
const KINDS: u8 = 8;

/// One trace shape of `n` values at magnitude `scale`; `at` places the
/// spike and seeds the noise.
fn shape(kind: u8, n: usize, scale: u64, at: usize) -> Vec<u64> {
    let ramp = |i: usize| scale.saturating_mul(i as u64 + 1) / n as u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ at as u64;
    let mut noise = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|i| match kind % KINDS {
            0 => 0,
            1 => scale,
            2 => u64::from(i == at % n) * scale,
            3 => ramp(i),
            4 => ramp(n - 1 - i),
            // A spike on a constant floor: prunes hard, one block wins.
            5 => scale / 64 + u64::from(i == at % n) * scale,
            6 => noise() % (scale + 1),
            // Rare bursts on a low floor, like I-frames among B-frames.
            _ => {
                let r = noise();
                if r % 29 == 0 { scale } else { r % (scale / 16 + 1) }
            }
        })
        .collect()
}

/// The scans at `Seq` and `Threads(2)` checked against [`rescan`] at
/// every exact grid point: values where each extremum fits `u64`, the
/// overflow error where one does not.
fn check_scans(values: &[u64], k_max: usize, mode: WindowMode) {
    let grid = mode.grid(k_max);
    for maximize in [true, false] {
        let want: Vec<u128> = grid.iter().map(|&k| rescan(values, k, maximize)).collect();
        for par in PARS {
            let got = par.scope(|| {
                if maximize {
                    max_window_sums(values, k_max, mode)
                } else {
                    min_window_sums(values, k_max, mode)
                }
            });
            let case = format!("n={} k_max={k_max} {mode:?} {par:?} max={maximize}", values.len());
            if want.iter().any(|&w| w > u128::from(u64::MAX)) {
                assert_eq!(got, Err(EventError::Overflow { what: "window sum" }), "{case}");
                continue;
            }
            let got = got.unwrap_or_else(|e| panic!("{case}: {e:?}"));
            for (&k, &w) in grid.iter().zip(&want) {
                assert_eq!(u128::from(got[k - 1]), w, "{case} k={k}");
            }
        }
    }
}

fn modes(k_max: usize, stride: usize) -> [WindowMode; 3] {
    [
        WindowMode::Exact,
        WindowMode::Strided {
            exact_upto: 0,
            stride,
        },
        WindowMode::Strided {
            exact_upto: 1,
            stride: stride.min(k_max).max(1),
        },
    ]
}

const PARS: [Parallelism; 2] = [Parallelism::Seq, Parallelism::Threads(2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scans_match_a_full_rescan_on_adversarial_shapes(
        kind in 0u8..KINDS,
        n in 1usize..300,
        scale in 1u64..1_000_000,
        at in 0usize..300,
        k_frac in 1u8..=100,
        stride in 1usize..40,
    ) {
        let values = shape(kind, n, scale, at);
        // k = n is the top of the range; k_frac also draws smaller ones.
        for k_max in [n, ((n * k_frac as usize) / 100).clamp(1, n)] {
            for mode in modes(k_max, stride) {
                check_scans(&values, k_max, mode);
            }
        }
    }

    #[test]
    fn wide_tables_match_a_full_rescan(
        kind in 0u8..KINDS,
        n in 2usize..120,
        at in 0usize..120,
        k_frac in 1u8..=100,
    ) {
        // Values large enough that the running total passes u64::MAX,
        // so the prefix table is wide; short windows still fit.
        let values = shape(kind, n, u64::MAX / 3, at);
        let k_max = ((n * k_frac as usize) / 100).clamp(1, n);
        for mode in modes(k_max, 3) {
            check_scans(&values, k_max, mode);
        }
    }

    #[test]
    fn grid_entries_past_the_length_keep_their_identity(
        kind in 0u8..KINDS,
        n in 1usize..200,
        scale in 1u64..100_000,
        at in 0usize..200,
        split in 0usize..200,
        extra in 1usize..50,
    ) {
        // A chunk shorter than some grid sizes: those entries must stay
        // at the merge identities (0 for maxima, u64::MAX for minima),
        // so folding the chunks still equals summarizing the whole.
        let values = shape(kind, n, scale, at);
        let grid: Vec<usize> = (1..=n + extra).step_by(1 + extra / 8).collect();
        let split = split % (n + 1);
        let (left, right) = values.split_at(split);
        for sides in [Sides::Both, Sides::Max, Sides::Min] {
            for (part, len) in [(left, left.len()), (right, right.len())] {
                let s = CurveSummary::from_values(part, &grid, sides);
                for (j, &k) in grid.iter().enumerate() {
                    if k > len || !sides_want(sides, true) {
                        prop_assert_eq!(s.max_table()[j], 0);
                    } else {
                        prop_assert_eq!(u128::from(s.max_table()[j]), rescan(part, k, true));
                    }
                    if k > len || !sides_want(sides, false) {
                        prop_assert_eq!(s.min_table()[j], u64::MAX);
                    } else {
                        prop_assert_eq!(u128::from(s.min_table()[j]), rescan(part, k, false));
                    }
                }
            }
            let whole = CurveSummary::from_values(&values, &grid, sides);
            let merged = CurveSummary::from_values(left, &grid, sides)
                .merge(&CurveSummary::from_values(right, &grid, sides));
            prop_assert_eq!(merged.max_table(), whole.max_table());
            prop_assert_eq!(merged.min_table(), whole.min_table());
            for par in PARS {
                let s = par.scope(|| summarize(&values, &grid, sides));
                prop_assert_eq!(s.max_table(), whole.max_table());
                prop_assert_eq!(s.min_table(), whole.min_table());
            }
        }
    }
}

fn sides_want(sides: Sides, max: bool) -> bool {
    matches!((sides, max), (Sides::Both, _) | (Sides::Max, true) | (Sides::Min, false))
}

#[test]
fn shapes_at_a_size_that_engages_two_workers() {
    // K·N = 2^23 is twice the largest grain, so Threads(2) runs the
    // trace-parallel chunk summaries here, not the sequential scan.
    let n = 4096;
    for kind in 0..KINDS {
        let values = shape(kind, n, 5_000, 1234);
        check_scans(&values, 2048, WindowMode::Exact);
        check_scans(&values, n, WindowMode::Strided { exact_upto: 1, stride: 97 });
    }
}
