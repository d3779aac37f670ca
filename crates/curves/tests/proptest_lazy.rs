//! Property-based pinning of the lazy streaming curve algebra.
//!
//! The pointwise adapters' contract is *bitwise* equality: collecting a
//! lazy chain must produce exactly the segment list the materializing
//! [`Pwl`] operators produce, bit for bit (`f64::to_bits`), for every
//! operator and for arbitrarily deep chains. The min-plus operators exist
//! only as lazy streams, so they are pinned against an exact pointwise
//! oracle instead: at every sample point off the operands'
//! kinks, the optimum over the split `s` is attained at a kink of one of
//! the operands, so a scan over that finite candidate set gives the exact
//! value. Generators draw breakpoint coordinates
//! from coarse grids (gaps ≥ 1/8, values in small-integer steps) so the
//! curves are well-conditioned but otherwise unconstrained — staircases,
//! jumps, flats and steep pieces all occur.

use proptest::prelude::*;
use wcm_curves::{approx_eq, minplus, CurveIter, Pwl, Segment};

/// Bit-exact segment-list equality with a readable failure message.
fn prop_bitwise(lazy: &Pwl, eager: &Pwl, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        lazy.segments().len(),
        eager.segments().len(),
        "{}: segment count {} vs {}",
        what,
        lazy.segments().len(),
        eager.segments().len()
    );
    for (i, (l, e)) in lazy.segments().iter().zip(eager.segments()).enumerate() {
        for (a, b, field) in [
            (l.x, e.x, "x"),
            (l.y, e.y, "y"),
            (l.slope, e.slope, "slope"),
        ] {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: segment {} {} differs: {} vs {}",
                what,
                i,
                field,
                a,
                b
            );
        }
    }
    Ok(())
}

/// The smaller of the left and right limits of `h` at `x`.
fn lo(h: &Pwl, x: f64) -> f64 {
    h.value_left(x).min(h.value(x))
}

/// The larger of the left and right limits of `h` at `x`.
fn hi(h: &Pwl, x: f64) -> f64 {
    h.value_left(x).max(h.value(x))
}

/// Sample points off every kink: the midpoints between consecutive
/// (distinct) entries of `kinks ∪ {0}`, plus two points past the last one.
/// Between kinks an operator's result is continuous and its inner
/// objective is linear in `s` between the candidate splits.
fn points_off(mut kinks: Vec<f64>) -> Vec<f64> {
    kinks.push(0.0);
    kinks.retain(|x| *x >= 0.0);
    kinks.sort_by(f64::total_cmp);
    kinks.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
    let last = *kinks.last().unwrap();
    let mut ts: Vec<f64> = kinks.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    ts.extend([last + 0.3125, last + 2.71875]);
    ts
}

/// Kinks of `f ⊗ g`: breakpoints of either operand and their
/// pairwise sums.
fn sum_kinks(f: &Pwl, g: &Pwl) -> Vec<f64> {
    let mut k: Vec<f64> = f.breakpoint_xs().chain(g.breakpoint_xs()).collect();
    for a in f.breakpoint_xs() {
        k.extend(g.breakpoint_xs().map(|b| a + b));
    }
    k
}

/// Kinks of `f ⊘ g`: the differences `a − b` of breakpoints of `f` and `g`.
fn difference_kinks(f: &Pwl, g: &Pwl) -> Vec<f64> {
    let mut k = Vec::new();
    for a in f.breakpoint_xs() {
        k.extend(g.breakpoint_xs().map(|b| a - b));
    }
    k
}

/// Exact `(f ⊗ g)(t) = inf_{0≤s≤t} f(t−s) + g(s)` at a `t` off the kinks,
/// with the Network-Calculus convention `f(0) = g(0) = 0`: the candidates
/// are the end points `s = 0` and `s = t` and every split with `s` at a
/// breakpoint of `g` or `t − s` at a breakpoint of `f`.
fn minplus_convolve_at(f: &Pwl, g: &Pwl, t: f64) -> f64 {
    let mut best = f.value(t).min(g.value(t));
    for b in g.breakpoint_xs().filter(|&b| b > 0.0 && b < t) {
        best = best.min(lo(f, t - b) + lo(g, b));
    }
    for a in f.breakpoint_xs().filter(|&a| a > 0.0 && a < t) {
        best = best.min(lo(f, a) + lo(g, t - a));
    }
    best
}

/// Exact `(f ⊘ g)(t) = sup_{s≥0} f(t+s) − g(s)`, clamped at zero, at a `t`
/// off the kinks (`g(0) = 0`; the rate check keeps the sup finite, so it
/// is attained at `s = 0` or at a kink).
fn minplus_deconvolve_at(f: &Pwl, g: &Pwl, t: f64) -> f64 {
    let mut best = f.value(t);
    for b in g.breakpoint_xs().filter(|&b| b > 0.0) {
        best = best.max(hi(f, t + b) - lo(g, b));
    }
    for a in f.breakpoint_xs().filter(|&a| a > t) {
        best = best.max(hi(f, a) - lo(g, a - t));
    }
    best.max(0.0)
}

/// Checks `curve` against `oracle` at every point of `ts`, within
/// [`approx_eq`].
fn prop_matches_oracle(
    curve: &Pwl,
    ts: &[f64],
    oracle: impl Fn(f64) -> f64,
    what: &str,
) -> Result<(), TestCaseError> {
    for &t in ts {
        let (got, want) = (curve.value(t), oracle(t));
        prop_assert!(approx_eq(got, want), "{}: {} vs oracle {} at t={}", what, got, want, t);
    }
    Ok(())
}

/// A valid curve built from grid-valued deltas: x gaps in `{1..=8}/8`,
/// upward jumps in `{0..=6}/2`, slopes in `{0..=12}/4`. Accumulating from
/// the previous segment's reach guarantees the wide-sense-increasing,
/// no-downward-jump invariant by construction.
fn pwl_strategy(max_bps: usize) -> impl Strategy<Value = Pwl> {
    (
        0u32..=6,
        0u32..=12,
        proptest::collection::vec((1u32..=8, 0u32..=6, 0u32..=12), 0..max_bps),
    )
        .prop_map(|(y0, s0, steps)| {
            let mut bps = vec![(0.0, y0 as f64 / 2.0, s0 as f64 / 4.0)];
            for (gap, jump, slope) in steps {
                let (px, py, ps) = *bps.last().unwrap();
                let x = px + gap as f64 / 8.0;
                let y = py + ps * (x - px) + jump as f64 / 2.0;
                bps.push((x, y, slope as f64 / 4.0));
            }
            Pwl::from_breakpoints(bps).expect("grid construction preserves invariants")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pointwise lazy adapters reproduce the eager operators bit for bit.
    #[test]
    fn pointwise_ops_match_eager_bitwise(
        f in pwl_strategy(8),
        g in pwl_strategy(8),
        c in 0u32..=8,
        dx in 0u32..=8,
        dy in 0u32..=8,
    ) {
        prop_bitwise(&f.lazy().lazy_min(g.lazy()).collect_pwl(), &f.min(&g), "min")?;
        prop_bitwise(&f.lazy().lazy_max(g.lazy()).collect_pwl(), &f.max(&g), "max")?;
        prop_bitwise(&f.lazy().lazy_add(g.lazy()).collect_pwl(), &f.add(&g), "add")?;
        let (c, dx, dy) = (c as f64 / 2.0, dx as f64 / 4.0, dy as f64 / 2.0);
        prop_bitwise(
            &f.lazy().scale_by(c).unwrap().collect_pwl(),
            &f.scale(c).unwrap(),
            "scale",
        )?;
        prop_bitwise(
            &f.lazy().shift_by(dx, dy).unwrap().collect_pwl(),
            &f.shift(dx, dy).unwrap(),
            "shift",
        )?;
    }

    /// Min-plus convolution equals the exact pointwise oracle, and never
    /// exceeds the sampled upper bound `convolve_sampled`.
    #[test]
    fn minplus_convolve_matches_oracle(
        f in pwl_strategy(6),
        g in pwl_strategy(6),
    ) {
        let c = minplus::convolve(&f, &g);
        let ts = points_off(sum_kinks(&f, &g));
        prop_matches_oracle(&c, &ts, |t| minplus_convolve_at(&f, &g, t), "minplus convolve")?;
        for &t in &ts {
            let sampled = minplus::convolve_sampled(&f, &g, t, 512);
            prop_assert!(
                c.value(t) <= sampled + 1e-9,
                "convolution {} above the sampled bound {} at t={}",
                c.value(t),
                sampled,
                t
            );
        }
    }

    /// Min-plus deconvolution equals the exact pointwise oracle, and fails
    /// exactly when the flow's long-run rate exceeds the service's (the
    /// supremum diverges).
    #[test]
    fn minplus_deconvolve_matches_oracle(
        f in pwl_strategy(6),
        g in pwl_strategy(6),
    ) {
        let diverges = f.ultimate_rate() > g.ultimate_rate();
        match minplus::deconvolve(&f, &g) {
            Ok(d) => {
                prop_assert!(!diverges, "finite result for a diverging supremum");
                let ts = points_off(difference_kinks(&f, &g));
                prop_matches_oracle(
                    &d,
                    &ts,
                    |t| minplus_deconvolve_at(&f, &g, t),
                    "minplus deconvolve",
                )?;
            }
            Err(_) => prop_assert!(diverges, "error for a finite supremum"),
        }
    }

    /// Deep chains (2–32 stages) of alternating pointwise operators stay
    /// bitwise-identical to the eager fold.
    #[test]
    fn deep_chains_match_eager_bitwise(
        curves in proptest::collection::vec(pwl_strategy(5), 2..32),
        ops in proptest::collection::vec(0u8..3, 31),
    ) {
        let mut eager = curves[0].clone();
        for (i, c) in curves.iter().enumerate().skip(1) {
            eager = match ops[i - 1] {
                0 => eager.min(c),
                1 => eager.max(c),
                _ => eager.add(c),
            };
        }
        let mut lazy: Box<dyn Iterator<Item = Segment>> = Box::new(curves[0].lazy());
        for (i, c) in curves.iter().enumerate().skip(1) {
            lazy = match ops[i - 1] {
                0 => Box::new(lazy.lazy_min(c.lazy())),
                1 => Box::new(lazy.lazy_max(c.lazy())),
                _ => Box::new(lazy.lazy_add(c.lazy())),
            };
        }
        prop_bitwise(&lazy.collect_pwl(), &eager, "deep chain")?;
    }

    /// Every closure iterate is `min(previous, previous ⊗ f)` against the
    /// exact pointwise oracle, the iterate count stays in range, and a
    /// converged report is a true fixpoint.
    #[test]
    fn closure_report_steps_match_oracle(
        f in pwl_strategy(4),
        max_iter in 1usize..6,
    ) {
        let report = minplus::subadditive_closure_report(&f, max_iter);
        prop_assert!(report.iterations >= 1 && report.iterations <= max_iter);
        let mut prev = f.clone();
        for k in 1..=max_iter {
            let step = if k == max_iter {
                report.curve.clone()
            } else {
                minplus::subadditive_closure_report(&f, k).curve
            };
            let ts = points_off(sum_kinks(&prev, &f));
            prop_matches_oracle(
                &step,
                &ts,
                |t| prev.value(t).min(minplus_convolve_at(&prev, &f, t)),
                "closure step",
            )?;
            prev = step;
        }
        if report.converged {
            let next = report.curve.min(&minplus::convolve(&report.curve, &f));
            prop_assert_eq!(&next, &report.curve, "converged but not a fixpoint");
        }
    }
}
