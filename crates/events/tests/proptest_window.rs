//! Property tests of the pruned window scans.
//!
//! The blocked kernel behind `max_window_sums`/`min_window_sums` and the
//! curve summaries skips every block of window starts whose bound cannot
//! beat the best window found so far. These tests pin it to a plain
//! rescan of every window on the shapes where a bound is tightest or
//! loosest — all zeros, constants (nothing prunes), a single spike,
//! ascending and descending ramps — for both sides, `k = n`, grids with
//! `exact_upto` 0 and 1, wide (`u128`) prefix tables, and the contract
//! that a grid entry with `k > len` keeps its identity. Every case runs
//! at `Parallelism::Seq` and `Parallelism::Threads(2)`.
//!
//! The block bounds are tightened by the table's step floor (the
//! smallest value, or the smallest stamp gap rounded down). The floor
//! tests feed traces that sit on their floor almost everywhere, where a
//! shift that is one step too far, or an `f64` floor or cut rounded the
//! wrong way, drops a block that holds the extremum. Their span checks
//! run once, outside any scope: no scan reads the worker count.

use proptest::prelude::*;
use wcm_events::summary::{CurveSummary, Sides};
use wcm_events::window::{
    max_spans, max_window_sums, min_spans, min_window_sums, Parallelism, WindowMode,
};
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
        }
    }
}

fn sides_want(sides: Sides, max: bool) -> bool {
    matches!((sides, max), (Sides::Both, _) | (Sides::Max, true) | (Sides::Min, false))
}

#[test]
fn shapes_at_a_size_that_engages_two_workers() {
    // K·N = 2^23 is twice the largest grain: a trace a pool would split
    // between two workers, were the scan ever to dispatch.
    let n = 4096;
    for kind in 0..KINDS {
        let values = shape(kind, n, 5_000, 1234);
        check_scans(&values, 2048, WindowMode::Exact);
        check_scans(&values, n, WindowMode::Strided { exact_upto: 1, stride: 97 });
    }
}

/// Every span of `k` stamps folded, a zero span reported as `+0.0`: the
/// naive fold the span scans were written against (`span_oracle` in the
/// window module, `wcm_bench::legacy::min_spans_naive`).
fn span_fold(times: &[f64], k: usize, maximize: bool) -> f64 {
    if k <= 1 {
        return 0.0;
    }
    let diffs = times[k - 1..].iter().zip(times).map(|(hi, lo)| hi - lo);
    let best = if maximize {
        diffs.fold(f64::NEG_INFINITY, f64::max)
    } else {
        diffs.fold(f64::INFINITY, f64::min)
    };
    best + 0.0
}

/// The `k_max` values of the floor tests on `n` events, and two grids.
fn floor_cases(n: usize) -> Vec<(usize, WindowMode)> {
    let mut cases = Vec::new();
    for k_max in [1, 15, 16, 17, 24, n] {
        let k_max = k_max.min(n);
        for mode in [WindowMode::Exact, WindowMode::Strided { exact_upto: 5, stride: 7 }] {
            cases.push((k_max, mode));
        }
    }
    cases
}

/// Both span scans checked bit for bit against [`span_fold`] at every
/// exact grid point.
fn check_spans(times: &[f64]) -> Result<(), TestCaseError> {
    for (k_max, mode) in floor_cases(times.len()) {
        for maximize in [false, true] {
            let got = if maximize { max_spans(times, k_max, mode) } else { min_spans(times, k_max, mode) };
            let got = got.map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            for k in mode.grid(k_max) {
                prop_assert_eq!(
                    got[k - 1].to_bits(),
                    span_fold(times, k, maximize).to_bits(),
                    "k_max {} {:?} max {} k {}",
                    k_max,
                    mode,
                    maximize,
                    k
                );
            }
        }
    }
    Ok(())
}

/// `n` stamps from `offset` on, each `gap` after the last plus, on about
/// one step in `sparsity`, an excess: one to four ulps of the stamp, or
/// up to 1 % of the gap. With `dups`, a quarter of the steps are 0
/// instead (runs of duplicate stamps: the floor is 0).
fn floor_stamps(n: usize, gap: f64, offset: f64, sparsity: u64, dups: bool, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = offset;
    (0..n)
        .map(|_| {
            let r = next();
            t = if dups && r.is_multiple_of(4) { t } else { t + gap };
            if (r >> 8).is_multiple_of(sparsity) {
                t = match (r >> 32) % 3 {
                    0 => (0..1 + (r >> 40) % 4).fold(t, |t, _| t.next_up()),
                    _ => t + gap * ((r >> 40) % 10_000 + 1) as f64 * 1e-6,
                };
            }
            t
        })
        .collect()
}

/// `n` demands of `floor` plus, on about one value in `sparsity`, an
/// excess of up to `excess`.
fn floor_values(n: usize, floor: u64, excess: u64, sparsity: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (x >> 8).is_multiple_of(sparsity) { floor + (x >> 16) % excess + 1 } else { floor }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn floor_shifted_span_bounds_match_the_naive_fold(
        n in 24usize..400,
        gap_at in 0usize..6,
        offset_at in 0usize..3,
        sparsity in 1u64..40,
        dups in 0u8..4,
        seed in 1u64..u64::MAX,
    ) {
        // Gaps from 1.84 ns to 3 s. Stamps from 0, from 0.5 (where a span
        // and its stamps share a binade, so each difference rounds at the
        // scale of the cut) and from 10⁶ (where a gap is few ulps).
        let gap = [1.84e-9, 1.84e-5, 1e-3, 0.1, 1.84, 3.0][gap_at];
        let offset = [0.0, 0.5, 1e6][offset_at];
        let times = floor_stamps(n, gap, offset, sparsity, dups == 0, seed);
        check_spans(&times)?;
    }

    #[test]
    fn floor_shifted_window_bounds_match_a_full_rescan(
        n in 24usize..400,
        floor in 0u64..5_000,
        excess in 1u64..100,
        sparsity in 1u64..40,
        seed in 1u64..u64::MAX,
    ) {
        let values = floor_values(n, floor, excess, sparsity, seed);
        for (k_max, mode) in floor_cases(n) {
            check_scans(&values, k_max, mode);
        }
    }

    #[test]
    fn saturating_and_wide_floor_shifts_match_a_full_rescan(
        n in 16usize..22,
        wide_n in 16usize..60,
        sparsity in 1u64..8,
        seed in 1u64..u64::MAX,
    ) {
        // 22 floors pass u64::MAX (the shift saturates) while the
        // n ≤ 21 values still fit a narrow table.
        let floor = u64::MAX / 22 + 1;
        let values = floor_values(n, floor, u64::MAX / 1_000, sparsity, seed);
        for (k_max, mode) in floor_cases(n) {
            check_scans(&values, k_max, mode);
        }
        // A floor of a quarter of u64::MAX: the table is wide.
        let values = floor_values(wide_n, u64::MAX / 4, u64::MAX / 8, sparsity, seed);
        for (k_max, mode) in floor_cases(wide_n) {
            check_scans(&values, k_max, mode);
        }
    }
}

#[test]
fn f64_cut_margins_keep_the_blocks_rounding_would_drop() {
    // Stamps from 0.5 whose spans round at the scale of the shifted cut.
    // Each of these drops a block holding an extremum when the shifted
    // `f64` cut is not moved outward (seed, n, sparsity, gap).
    for (seed, n, sparsity, gap) in [
        (1_233, 105, 12, 3.0),
        (1_906, 166, 9, 0.1),
        (14_375, 149, 11, 3.0),
        (17_935, 169, 9, 0.1),
    ] {
        let times = floor_stamps(n, gap, 0.5, sparsity, false, seed);
        check_spans(&times).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
}
