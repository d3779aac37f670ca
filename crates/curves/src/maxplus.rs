//! Max-plus algebra on piecewise-linear curves.
//!
//! The dual of [`crate::minplus`]: where min-plus convolution propagates
//! *upper* arrival and *lower* service curves, the max-plus operators
//! propagate the opposite pair —
//!
//! * `(f ⊕ g)(t) = sup_{0≤s≤t} f(t−s) + g(s)` (max-plus convolution)
//!   composes lower arrival curves with lower service curves,
//! * `(f ⊖ g)(t) = inf_{s≥0} f(t+s) − g(s)` (max-plus deconvolution)
//!   extracts guaranteed lower output curves.
//!
//! The same boundary convention as `minplus` applies: the true value of a
//! flow/service curve at 0 is 0; the stored value is the right-limit.
//!
//! # Exactness
//!
//! Both operators are exact for PWL inputs by the same kink argument as
//! their min-plus duals: the inner optimum in `s` is attained at a
//! breakpoint of `f` or `g`, so the result is the upper (resp. lower)
//! envelope of finitely many shifted copies.

use crate::iter::{CurveIter, LazyCurve, MergeOp};
use crate::num::EPSILON;
use crate::pwl::{Pwl, Segment};
use crate::CurveError;

/// Max-plus convolution `(f ⊕ g)(t) = sup_{0 ≤ s ≤ t} f(t−s) + g(s)`.
///
/// # Example
///
/// For lower curves the sup-split concentrates mass: two affine curves
/// compose into the larger-burst sum path.
///
/// ```
/// use wcm_curves::{maxplus, Pwl};
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// let f = Pwl::affine(1.0, 2.0)?;
/// let g = Pwl::affine(3.0, 1.0)?;
/// let c = maxplus::convolve(&f, &g);
/// // sup at s = 0⁺ keeps f's higher rate: 1 + 2t + 3.
/// assert!((c.value(2.0) - 8.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn convolve(f: &Pwl, g: &Pwl) -> Pwl {
    convolve_lazy(f, g).collect_pwl()
}

/// Lazy max-plus convolution: the exact envelope of [`convolve`], returned
/// as a composable segment stream; [`convolve`] is this stream collected.
/// See [`crate::minplus::convolve_lazy`] for the streaming contract.
#[must_use]
pub fn convolve_lazy<'a>(f: &'a Pwl, g: &'a Pwl) -> LazyCurve<'a> {
    // Upper envelope over candidates s at breakpoints of g (with the
    // stored right-limit; the sup wants the *largest* g) and t−s at
    // breakpoints of f, folded left-deep. A candidate anchored at
    // breakpoint `b` is only defined for t ≥ b (the split needs s ≤ t);
    // below that it is replaced by zero, which can never win the max since
    // curves are non-negative.
    let mut env = LazyCurve::shift(f, 0.0, g.value(0.0));
    for b in g.breakpoint_xs().skip(1) {
        env = LazyCurve::merge(env, LazyCurve::zero_head(f, b, g.value(b)), MergeOp::Upper);
    }
    for a in f.breakpoint_xs().skip(1) {
        env = LazyCurve::merge(env, LazyCurve::zero_head(g, a, f.value(a)), MergeOp::Upper);
    }
    LazyCurve::merge(
        env,
        LazyCurve::shift(g, 0.0, f.value(0.0)),
        MergeOp::Upper,
    )
}

/// Max-plus deconvolution `(f ⊖ g)(t) = inf_{s ≥ 0} f(t+s) − g(s)`,
/// clamped at zero.
///
/// Used to derive a guaranteed *lower* bound on a flow after crossing a
/// server with *upper* service curve `g`.
///
/// # Errors
///
/// Returns [`CurveError::Unbounded`] if `g` outgrows `f` (the infimum
/// diverges to −∞, i.e. no useful lower bound exists — the result would
/// be identically zero anyway, which the caller can choose explicitly).
pub fn deconvolve(f: &Pwl, g: &Pwl) -> Result<Pwl, CurveError> {
    if g.ultimate_rate() > f.ultimate_rate() + EPSILON {
        return Err(CurveError::Unbounded {
            operation: "max-plus deconvolution (upper service outgrows the flow)",
        });
    }
    // inf over s: candidates at kinks; evaluate on the difference lattice
    // and keep the lower envelope via direct evaluation (the result is
    // piecewise linear with kinks on {a − b}).
    let mut ts: Vec<f64> = vec![0.0];
    for a in f.breakpoint_xs() {
        for b in g.breakpoint_xs() {
            if a - b > EPSILON {
                ts.push(a - b);
            }
        }
        if a > EPSILON {
            ts.push(a);
        }
    }
    ts.sort_by(f64::total_cmp);
    ts.dedup_by(|p, q| (*p - *q).abs() < EPSILON * (1.0 + q.abs()));

    let eval = |t: f64| -> f64 {
        let mut best = f64::INFINITY;
        let mut consider = |s: f64| {
            if s < 0.0 {
                return;
            }
            // inf: smallest f version, largest g version.
            let fv = if t + s > 0.0 {
                f.value_left(t + s).min(f.value(t + s))
            } else {
                f.value(0.0)
            };
            let gv = g.value(s);
            best = best.min(fv - gv);
        };
        consider(0.0);
        for b in g.breakpoint_xs() {
            consider(b);
        }
        for a in f.breakpoint_xs() {
            if a >= t {
                consider(a - t);
            }
        }
        // Tail: slope rf − rg ≥ 0, so the infimum never improves beyond
        // the last kink unless rates tie; a far sample covers the tie.
        let far = f.tail_start().max(g.tail_start()) + 1.0;
        consider(far);
        consider(far + (f.tail_start() - t).max(0.0));
        best
    };

    // Between lattice points the function is a minimum of linear branches;
    // sample interior points to recover the exact slope.
    let mut segs: Vec<Segment> = Vec::with_capacity(ts.len());
    let mut running_max = 0.0f64; // clamp + enforce monotone lower curve
    for (i, &t) in ts.iter().enumerate() {
        let v = eval(t).max(0.0);
        running_max = running_max.max(v);
        let slope = if i + 1 < ts.len() {
            let nt = ts[i + 1];
            let m = t + 0.5 * (nt - t);
            let vm = eval(m).max(0.0).max(running_max);
            ((vm - running_max) / (m - t)).max(0.0)
        } else {
            (f.ultimate_rate() - g.ultimate_rate()).max(0.0)
        };
        segs.push(Segment::new(t, running_max, slope));
        if i + 1 < ts.len() {
            running_max += slope * (ts[i + 1] - t);
        }
    }
    Pwl::from_segments(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::approx_eq;

    #[test]
    fn convolve_affine_picks_best_split() {
        let f = Pwl::affine(1.0, 2.0).unwrap();
        let g = Pwl::affine(3.0, 1.0).unwrap();
        let c = convolve(&f, &g);
        for i in 0..40 {
            let t = i as f64 * 0.25;
            // sup over s of f(t−s)+g(s): all mass on f (rate 2 wins).
            let expect = f.value(t) + g.value(0.0);
            assert!(approx_eq(c.value(t), expect), "t={t}");
        }
    }

    #[test]
    fn convolve_dominates_both_shifts() {
        let f =
            Pwl::from_breakpoints(vec![(0.0, 0.0, 1.0), (2.0, 2.0, 4.0)]).unwrap();
        let g =
            Pwl::from_breakpoints(vec![(0.0, 1.0, 0.5), (1.0, 1.5, 3.0)]).unwrap();
        let c = convolve(&f, &g);
        for i in 0..40 {
            let t = i as f64 * 0.2;
            assert!(c.value(t) + 1e-9 >= f.value(t) + g.value(0.0));
            assert!(c.value(t) + 1e-9 >= g.value(t) + f.value(0.0));
        }
        assert!(approx_eq(c.ultimate_rate(), 4.0)); // max of the rates
    }

    #[test]
    fn convolve_matches_brute_force() {
        let f =
            Pwl::from_breakpoints(vec![(0.0, 0.5, 3.0), (1.5, 5.0, 0.5)]).unwrap();
        let g =
            Pwl::from_breakpoints(vec![(0.0, 0.0, 1.0), (2.0, 2.0, 2.5)]).unwrap();
        let c = convolve(&f, &g);
        for i in 0..30 {
            let t = i as f64 * 0.3;
            let mut brute = f64::NEG_INFINITY;
            for j in 0..=600 {
                let s = t * j as f64 / 600.0;
                brute = brute.max(f.value(t - s) + g.value(s));
            }
            assert!(
                c.value(t) + 1e-9 >= brute,
                "below brute sup at t={t}: {} vs {brute}",
                c.value(t)
            );
            assert!(
                c.value(t) - brute < 0.1 * (1.0 + brute.abs()),
                "far above brute sup at t={t}"
            );
        }
    }

    #[test]
    fn deconvolve_lower_output_of_bucket() {
        // Lower flow f = (t − 1)⁺·2 through upper service g = 5 + 3t:
        // inf_s f(t+s) − g(s) at s→∞ diverges if rate(g) > rate(f) — here
        // rate(g)=3 > 2 ⇒ Unbounded.
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.0, 0.0, 2.0)]).unwrap();
        let g = Pwl::affine(5.0, 3.0).unwrap();
        assert!(deconvolve(&f, &g).is_err());
        // With a slower upper service the result is finite and below f.
        let g2 = Pwl::affine(1.0, 1.0).unwrap();
        let d = deconvolve(&f, &g2).unwrap();
        for i in 0..40 {
            let t = i as f64 * 0.3;
            assert!(d.value(t) <= f.value(t) + 1e-9, "above the flow at t={t}");
        }
        // Long-run slope is the rate difference.
        assert!(approx_eq(d.ultimate_rate(), 1.0));
    }

    #[test]
    fn deconvolve_is_monotone_result() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 4.0), (2.0, 8.0, 2.0)]).unwrap();
        let g = Pwl::affine(2.0, 1.0).unwrap();
        let d = deconvolve(&f, &g).unwrap();
        let mut prev = 0.0;
        for i in 0..80 {
            let t = i as f64 * 0.15;
            let v = d.value(t);
            assert!(v + 1e-9 >= prev, "decreasing at t={t}");
            prev = v;
        }
    }
}
