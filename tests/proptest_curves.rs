//! Property-based tests of the curve substrates: workload curves from
//! random traces, and the min-plus algebra on random PWL curves.

use proptest::prelude::*;
use wcm::core::curve::WorkloadBounds;
use wcm::core::verify;
use wcm::curves::{bounds, minplus, Pwl};
use wcm::events::window::WindowMode;
use wcm::events::{Cycles, ExecutionInterval, Trace, TypeRegistry};

/// A random trace over up to 4 event types with demands in [1, 50].
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec((1u64..=50, 0u64..=20), 1..=4),
        proptest::collection::vec(0usize..4, 4..60),
    )
        .prop_map(|(intervals, picks)| {
            let mut reg = TypeRegistry::new();
            let mut handles = Vec::new();
            for (i, (b, extra)) in intervals.iter().enumerate() {
                let iv = ExecutionInterval::new(Cycles(*b), Cycles(b + extra))
                    .expect("b ≤ b + extra");
                handles.push(reg.register(format!("t{i}"), iv).expect("unique names"));
            }
            let events = picks
                .into_iter()
                .map(|p| handles[p % handles.len()])
                .collect();
            Trace::new(reg, events)
        })
}

/// A random wide-sense increasing PWL curve with ≤ 5 breakpoints.
fn arb_pwl() -> impl Strategy<Value = Pwl> {
    proptest::collection::vec((0.1f64..5.0, 0.0f64..10.0, 0.0f64..8.0), 1..5).prop_map(
        |pieces| {
            let mut x = 0.0;
            let mut y = 0.0;
            let mut bps = Vec::new();
            for (dx, jump, slope) in pieces {
                bps.push((x, y + jump, slope));
                y = y + jump + slope * dx;
                x += dx;
            }
            Pwl::from_breakpoints(bps).expect("constructed monotone")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Trace-derived workload curves always satisfy Def. 1's structure.
    #[test]
    fn trace_curves_satisfy_definition(trace in arb_trace()) {
        let k_max = trace.len().min(12);
        let b = WorkloadBounds::from_trace(&trace, k_max, WindowMode::Exact).unwrap();
        prop_assert!(verify::upper_is_subadditive(&b.upper));
        prop_assert!(verify::lower_is_superadditive(&b.lower));
        prop_assert!(verify::bounds_are_consistent(&b));
        prop_assert!(verify::bounds_cover_trace(&b, &trace));
        prop_assert_eq!(b.upper.wcet(), trace.worst_demands().into_iter().max().unwrap());
        prop_assert_eq!(b.lower.bcet(), trace.best_demands().into_iter().min().unwrap());
    }

    /// Strided construction is conservative on both sides.
    #[test]
    fn strided_is_conservative(trace in arb_trace(), exact in 1usize..6, stride in 1usize..5) {
        let k_max = trace.len().min(15);
        let exact_mode = WorkloadBounds::from_trace(&trace, k_max, WindowMode::Exact).unwrap();
        let strided = WorkloadBounds::from_trace(
            &trace,
            k_max,
            WindowMode::Strided { exact_upto: exact, stride },
        ).unwrap();
        for k in 1..=k_max {
            prop_assert!(strided.upper.value(k) >= exact_mode.upper.value(k));
            prop_assert!(strided.lower.value(k) <= exact_mode.lower.value(k));
        }
    }

    /// Galois connection of the pseudo-inverses (Sec. 2.1):
    /// `γᵘ(k) ≤ e ⇔ γᵘ⁻¹(e) ≥ k` and `γˡ(k) ≥ e ⇔ γˡ⁻¹(e) ≤ k`.
    #[test]
    fn pseudo_inverse_galois(trace in arb_trace(), e in 0u64..2000) {
        let k_max = trace.len().min(10);
        let b = WorkloadBounds::from_trace(&trace, k_max, WindowMode::Exact).unwrap();
        let e_f = e as f64;
        let k_inv = b.upper.pseudo_inverse(e_f);
        for k in 1..=(2 * k_max) {
            let holds = b.upper.value(k).get() as f64 <= e_f;
            prop_assert_eq!(holds, (k as u64) <= k_inv, "upper Galois at k={}", k);
        }
        if let Some(k_inv_l) = b.lower.pseudo_inverse(e_f) {
            for k in 1..=(2 * k_max) {
                let holds = b.lower.value(k).get() as f64 >= e_f;
                prop_assert_eq!(holds, (k as u64) >= k_inv_l, "lower Galois at k={}", k);
            }
        }
    }

    /// Merging curves across traces stays a sound bound for each trace.
    #[test]
    fn merge_covers_both_traces(t1 in arb_trace(), t2 in arb_trace()) {
        // Give both traces the same registry shape by reusing t1's demands
        // directly: merging only needs the value sequences.
        let k = t1.len().min(t2.len()).min(8);
        let b1 = WorkloadBounds::from_trace(&t1, k, WindowMode::Exact).unwrap();
        let b2 = WorkloadBounds::from_trace(&t2, k, WindowMode::Exact).unwrap();
        let merged = WorkloadBounds::merge_all(&[b1, b2]).unwrap();
        prop_assert!(verify::bounds_cover_trace(&merged, &t1));
        prop_assert!(verify::bounds_cover_trace(&merged, &t2));
    }

    /// Min-plus convolution is commutative and dominated by both
    /// single-sided compositions.
    #[test]
    fn convolution_commutative_and_bounded(f in arb_pwl(), g in arb_pwl()) {
        let fg = minplus::convolve(&f, &g);
        let gf = minplus::convolve(&g, &f);
        for i in 0..40 {
            let t = i as f64 * 0.33;
            prop_assert!((fg.value(t) - gf.value(t)).abs() < 1e-6 * (1.0 + fg.value(t).abs()));
            // conv ≤ f + g(0) and ≤ g + f(0).
            prop_assert!(fg.value(t) <= f.value(t) + g.value(0.0) + 1e-9);
            prop_assert!(fg.value(t) <= g.value(t) + f.value(0.0) + 1e-9);
        }
    }

    /// Convolution agrees with dense sampling enriched by the kink
    /// candidates (a pure grid can miss infima attained only as left
    /// limits at near-coincident breakpoints).
    #[test]
    fn convolution_matches_sampling(f in arb_pwl(), g in arb_pwl()) {
        let c = minplus::convolve(&f, &g);
        for i in 1..12 {
            let t = i as f64 * 0.7;
            let mut brute = minplus::convolve_sampled(&f, &g, t, 1500);
            let mut consider = |s: f64| {
                if (0.0..=t).contains(&s) {
                    brute = brute.min(f.value(t - s) + g.value(s));
                    brute = brute.min(f.value_left(t - s) + g.value_left(s));
                }
            };
            for b in g.breakpoint_xs() {
                consider(b);
                consider(b - 1e-9);
            }
            for a in f.breakpoint_xs() {
                consider(t - a);
                consider(t - a + 1e-9);
            }
            prop_assert!(c.value(t) <= brute + 1e-6, "above sampled inf at t={}", t);
            prop_assert!(brute - c.value(t) < 0.15 * (1.0 + brute.abs()),
                "far below sampled inf at t={}: {} vs {}", t, c.value(t), brute);
        }
    }

    /// Deconvolution dominates the original curve (f ⊘ g ≥ f − g(0) and
    /// ≥ f when g(0) = 0), and its value at 0 equals the backlog bound.
    #[test]
    fn deconvolution_properties(f in arb_pwl(), g in arb_pwl()) {
        prop_assume!(f.ultimate_rate() <= g.ultimate_rate());
        let d = match minplus::deconvolve(&f, &g) {
            Ok(d) => d,
            Err(_) => return Ok(()), // equal-rate edge rejected upstream
        };
        // s = 0 is always a candidate.
        for i in 0..30 {
            let t = i as f64 * 0.4;
            prop_assert!(
                d.value(t) >= f.value(t) - g.value(0.0) - 1e-6,
                "deconv below s=0 candidate at t={}", t
            );
        }
        if let Ok(b) = bounds::backlog(&f, &g) {
            prop_assert!((d.value(0.0) - b).abs() <= 1e-6 * (1.0 + b.abs()) || d.value(0.0) >= b - 1e-6,
                "deconv(0)={} vs backlog={}", d.value(0.0), b);
        }
    }

    /// Backlog and delay bounds shrink when service grows.
    #[test]
    fn bounds_monotone_in_service(alpha in arb_pwl(), beta in arb_pwl(), extra in 0.1f64..5.0) {
        let better = beta.add(&Pwl::affine(extra, extra).unwrap());
        if let (Ok(b1), Ok(b2)) = (bounds::backlog(&alpha, &beta), bounds::backlog(&alpha, &better)) {
            prop_assert!(b2 <= b1 + 1e-9);
        }
        if let (Ok(d1), Ok(d2)) = (bounds::delay(&alpha, &beta), bounds::delay(&alpha, &better)) {
            prop_assert!(d2 <= d1 + 1e-9);
        }
    }

    /// Deconvolution dominates the sampled supremum (the sampled value can
    /// only miss candidates, never exceed the true sup).
    #[test]
    fn deconvolution_dominates_sampled_sup(f in arb_pwl(), g in arb_pwl()) {
        prop_assume!(f.ultimate_rate() <= g.ultimate_rate());
        let d = match minplus::deconvolve(&f, &g) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        for i in 0..12 {
            let t = i as f64 * 0.5;
            // Brute-force sup over a dense s grid (with the g(0)=0
            // boundary convention).
            let mut sampled = f.value(t); // s = 0
            let s_max = f.tail_start().max(g.tail_start()) + 4.0;
            for j in 1..=800 {
                let s = s_max * j as f64 / 800.0;
                sampled = sampled.max(f.value(t + s) - g.value(s));
                sampled = sampled.max(f.value(t + s) - g.value_left(s));
            }
            prop_assert!(
                d.value(t) >= sampled.max(0.0) - 1e-6 * (1.0 + sampled.abs()),
                "deconv {} below sampled sup {} at t={}", d.value(t), sampled, t
            );
        }
    }

    /// Min-plus convolution is associative (sampled).
    #[test]
    fn convolution_associative(f in arb_pwl(), g in arb_pwl(), h in arb_pwl()) {
        let left = minplus::convolve(&minplus::convolve(&f, &g), &h);
        let right = minplus::convolve(&f, &minplus::convolve(&g, &h));
        for i in 0..30 {
            let t = i as f64 * 0.4;
            prop_assert!(
                (left.value(t) - right.value(t)).abs()
                    < 1e-6 * (1.0 + left.value(t).abs()),
                "associativity fails at t={}: {} vs {}", t, left.value(t), right.value(t)
            );
        }
    }

    /// The pointwise envelope really is the pointwise min/max.
    #[test]
    fn envelope_is_pointwise(f in arb_pwl(), g in arb_pwl()) {
        let mn = f.min(&g);
        let mx = f.max(&g);
        for i in 0..60 {
            let t = i as f64 * 0.25;
            let (fv, gv) = (f.value(t), g.value(t));
            prop_assert!((mn.value(t) - fv.min(gv)).abs() < 1e-6 * (1.0 + fv.abs() + gv.abs()));
            prop_assert!((mx.value(t) - fv.max(gv)).abs() < 1e-6 * (1.0 + fv.abs() + gv.abs()));
        }
    }
}
