//! The blocked exact scan of `EnvelopeMonitor::observe_all` against the
//! per-event `observe` loop: random demands with injected upper and lower
//! violations, random batch splits, every constructor, several window
//! depths, mid-stream binds and rebinds and demands near `u64::MAX`
//! (whose sums only fit the `u128` ring) must all yield equal
//! `MonitorReport`s and equal measured bounds, and the measured bounds
//! must be those of a direct window scan. An envelope broken by almost
//! every window, after the violation store is full, must be counted the
//! same way too.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcm_core::monitor::EnvelopeMonitor;
use wcm_core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds, WorkloadError};

/// Depths 64 and up skip blocks of window ends in the batch scan.
const DEPTHS: [usize; 5] = [1, 2, 8, 64, 100];

/// Bounds around demands in `[base/2, 1.5·base]`: `γᵘ(k) = 1.5·base·k +
/// base` and `γˡ(k) = base·k/2 − base/4` (saturating), so one spike of
/// `5·base` breaks every upper window holding it and one zero every lower.
fn bounds(base: u64, k_max: usize) -> WorkloadBounds {
    let upper = (1..=k_max as u64)
        .map(|k| (base / 2 * 3).saturating_mul(k).saturating_add(base))
        .collect();
    let lower = (1..=k_max as u64)
        .map(|k| (base / 2).saturating_mul(k).saturating_sub(base / 4))
        .collect();
    WorkloadBounds {
        upper: UpperWorkloadCurve::new(upper).unwrap(),
        lower: LowerWorkloadCurve::new(lower).unwrap(),
    }
}

fn monitor(kind: usize, b: &WorkloadBounds, k_max: usize) -> EnvelopeMonitor {
    match kind {
        0 => EnvelopeMonitor::new(b, k_max),
        1 => EnvelopeMonitor::upper_only(&b.upper, k_max),
        _ => EnvelopeMonitor::unbound(k_max),
    }
    .unwrap()
}

/// Per-`k` largest and smallest window sum of `demands`, `None` when
/// one exceeds `u64::MAX`.
fn scanned_extrema(demands: &[u64], k_max: usize) -> Option<(Vec<u64>, Vec<u64>)> {
    let (mut up, mut lo) = (Vec::new(), Vec::new());
    for k in 1..=k_max {
        let sums: Vec<u128> = demands
            .windows(k)
            .map(|w| w.iter().map(|&d| u128::from(d)).sum())
            .collect();
        up.push(u64::try_from(*sums.iter().max()?).ok()?);
        lo.push(u64::try_from(*sums.iter().min()?).ok()?);
    }
    Some((up, lo))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn batched_observe_all_equals_per_event_observe(
        seed in 0u64..u64::MAX,
        kind in 0usize..3,
        depth in 0usize..5,
        huge in 0u32..4,
        odds in 50u64..2000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // One case in four runs near u64::MAX: window sums overflow u64,
        // so the blocked scan must fall back to the u128 ring.
        let base = if huge == 0 { u64::MAX / 16 } else { 100 };
        let n = rng.gen_range(1..2500usize);
        let demands: Vec<u64> = (0..n)
            .map(|_| match rng.gen_range(0..odds) {
                0 => base.saturating_mul(5),
                1 => 0,
                _ => rng.gen_range(base / 2..=base / 2 * 3),
            })
            .collect();
        let k_max = DEPTHS[depth];
        let b = bounds(base, k_max);
        let mut single = monitor(kind, &b, k_max);
        let mut batched = monitor(kind, &b, k_max);
        let mut at = 0;
        while at < n {
            if rng.gen_range(0..6u32) == 0 {
                // Bind (all sides, checks restart after this event) or
                // rebind (the sides the monitor has) to a rescaled
                // envelope between batches.
                let b = bounds(base / 4 * rng.gen_range(3..6u64), k_max);
                if rng.gen_range(0..3u32) == 0 {
                    single.bind(&b);
                    batched.bind(&b);
                } else {
                    single.rebind(&b);
                    batched.rebind(&b);
                }
            }
            let end = (at + rng.gen_range(1..=200usize)).min(n);
            let one: usize = demands[at..end].iter().map(|&d| single.observe(d)).sum();
            let all = batched.observe_all(demands[at..end].iter().copied());
            prop_assert_eq!(one, all, "fresh violations of events {}..{}", at, end);
            prop_assert_eq!(single.report(), batched.report(), "after event {}", end);
            prop_assert_eq!(single.measured_bounds(), batched.measured_bounds());
            at = end;
        }
        match (batched.measured_bounds(), scanned_extrema(&demands, k_max)) {
            (Ok(Some(m)), Some((up, lo))) => {
                prop_assert_eq!(m.upper.values(), &up[..]);
                prop_assert_eq!(m.lower.values(), &lo[..]);
            }
            (Ok(None), _) => prop_assert!(n < k_max),
            (Err(WorkloadError::Overflow { .. }), None) => {}
            (got, want) => prop_assert!(false, "measured {:?}, scanned {:?}", got, want),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn an_envelope_broken_thousands_of_times_counts_as_per_event_observe(
        seed in 0u64..u64::MAX,
        depth in 0usize..3,
        sides in 1usize..3,
    ) {
        // Bound once, after a random prefix, to `γᵘ(k) = γˡ(k) = 10·k`
        // under demands 0..=20: almost every window breaks a side, many
        // sit exactly on the bound, and the violation store fills within
        // the first batch, so most batches are counted in bulk.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k_max = [8, 64, 100][depth];
        let upper_only = sides == 1;
        let line: Vec<u64> = (1..=k_max as u64).map(|k| 10 * k).collect();
        let tight = WorkloadBounds {
            upper: UpperWorkloadCurve::new(line.clone()).unwrap(),
            lower: LowerWorkloadCurve::new(line).unwrap(),
        };
        let n = rng.gen_range(1500..4000usize);
        let demands: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=20)).collect();
        let mut single = if upper_only {
            EnvelopeMonitor::upper_only(&tight.upper, k_max)
        } else {
            EnvelopeMonitor::unbound(k_max)
        }
        .unwrap();
        let mut batched = single.clone();
        let bind_at = if upper_only { 0 } else { rng.gen_range(0..600usize) };
        let mut at = 0;
        while at < n {
            if at == bind_at && !upper_only {
                single.bind(&tight);
                batched.bind(&tight);
            }
            let cap = if at < bind_at { bind_at } else { n };
            let end = (at + rng.gen_range(1..=600usize)).min(cap);
            let one: usize = demands[at..end].iter().map(|&d| single.observe(d)).sum();
            let all = batched.observe_all(demands[at..end].iter().copied());
            prop_assert_eq!(one, all, "fresh violations of events {}..{}", at, end);
            prop_assert_eq!(single.report(), batched.report(), "after event {}", end);
            prop_assert_eq!(single.measured_bounds(), batched.measured_bounds());
            at = end;
        }
        prop_assert!(batched.total_violations() > 1000);
        prop_assert_eq!(batched.violations().len(), EnvelopeMonitor::VIOLATION_CAP);
    }
}

#[test]
fn spikes_and_zeros_break_both_bounds_at_both_scales() {
    // The generator above is only meaningful if its spikes and zeros
    // really break the bounds, at both scales.
    for base in [100u64, u64::MAX / 16] {
        let b = bounds(base, 8);
        let mut mon = EnvelopeMonitor::new(&b, 8).unwrap();
        let clean = vec![base; 300];
        mon.observe_all(clean.iter().copied());
        assert!(mon.is_clean(), "base {base}");
        let mut spiky = clean.clone();
        spiky[150] = base.saturating_mul(5);
        spiky[200] = 0;
        mon.observe_all(spiky.iter().copied());
        let report = mon.report();
        assert!(
            matches!(report.min_upper_slack(), Some(s) if s < 0),
            "base {base}"
        );
        assert!(
            matches!(report.min_lower_slack(), Some(s) if s < 0),
            "base {base}"
        );
    }
}
