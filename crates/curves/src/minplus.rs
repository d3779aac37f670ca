//! Min-plus algebra on piecewise-linear curves: convolution `⊗`,
//! deconvolution `⊘` and the sub-additive closure.
//!
//! These are the operators of Network Calculus (Le Boudec & Thiran, LNCS
//! 2050) used by the paper's streaming analysis: e.g. the output arrival
//! curve of a flow through a server is `α′ = α ⊘ β`, and the backlog bound
//! `sup (α − β)` equals `(α ⊘ β)(0)`.
//!
//! # Conventions
//!
//! [`crate::Pwl`] stores the *right-limit* at 0 (a leaky bucket has
//! `value(0) = b`), but Network Calculus defines arrival/service curves
//! with `f(0) = 0` and the burst as a limit from the right. The operators
//! here follow the theory: the boundary candidates `s = 0` and `s = t` of
//! `⊗`/`⊘` use the true `f(0) = g(0) = 0`, so e.g. shaping a flow by `σ`
//! yields an output bounded by `min(α, σ)` rather than by `α + σ(0)`.
//!
//! # Exactness
//!
//! For two PWL curves, `(f ⊗ g)(t) = inf_{0≤s≤t} f(t−s) + g(s)` is attained
//! with `s` at a breakpoint of `g` or `t−s` at a breakpoint of `f` (the
//! objective is PWL in `s`), so the convolution equals the lower envelope of
//! finitely many shifted copies of `f` and `g` and is computed exactly.
//! Deconvolution is the exact upper envelope of the per-kink branches.
//!
//! # Implementation
//!
//! Each operator is one lazy segment stream ([`convolve_lazy`],
//! [`deconvolve_lazy`]); the materializing names ([`convolve`],
//! [`deconvolve`], [`subadditive_closure`]) collect that stream into a
//! [`Pwl`]. Both operators first **prune dominated branches**: curves here
//! are monotone non-decreasing, so a shifted copy `f(· − b₁) + c₁` lies
//! pointwise below `f(· − b₂) + c₂` whenever `b₁ ≥ b₂` and `c₁ ≤ c₂`, and
//! the dominated branch can never contribute to the lower envelope (dually
//! for the upper envelope of deconvolution). Flat/staircase regions — the
//! common case for arrival curves derived from [`crate::StepCurve`]s —
//! collapse to a single branch each. The surviving branches are merged in
//! a **pairwise tree**: each branch takes part in O(log n) min/max merges
//! of comparably-sized envelopes instead of n merges against an
//! ever-growing accumulator.
//!
//! There is no fan-out over threads: evaluating the branches on a thread
//! pool measured no faster (1.0× on 96-segment operands, 2 cores). The
//! tree's shape depends only on the branch count and is fixed,
//! because merge arithmetic is not associative in floating point and the
//! resulting curves are pinned bit for bit by the tests and every report
//! built from them.

use crate::iter::{CurveIter, LazyCurve, MergeOp};
use crate::num::{approx_eq, EPSILON};
use crate::pwl::{Pwl, Segment};
use crate::CurveError;

/// Min-plus convolution `(f ⊗ g)(t) = inf_{0 ≤ s ≤ t} f(t−s) + g(s)`.
///
/// # Example
///
/// Convolving a rate-latency service curve with itself doubles the latency
/// (two servers in tandem):
///
/// ```
/// use wcm_curves::{minplus, Pwl};
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// let beta = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.0, 0.0, 5.0)])?;
/// let tandem = minplus::convolve(&beta, &beta);
/// assert_eq!(tandem.value(2.0), 0.0);
/// assert!((tandem.value(3.0) - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn convolve(f: &Pwl, g: &Pwl) -> Pwl {
    convolve_lazy(f, g).collect_pwl()
}

/// Lazy min-plus convolution: the exact envelope of [`convolve`], returned
/// as a composable segment stream ([`LazyCurve`]) instead of a materialized
/// [`Pwl`]; [`convolve`] is this stream collected
/// ([`CurveIter::collect_pwl`]).
///
/// Nothing is computed until the stream is consumed, and consuming it keeps
/// only the active window of every internal branch in memory: an N-stage
/// chain of lazy operators allocates O(branches) small iterator nodes
/// instead of O(branches) intermediate curves.
#[must_use]
pub fn convolve_lazy<'a>(f: &'a Pwl, g: &'a Pwl) -> LazyCurve<'a> {
    // Boundary candidates with the true f(0) = g(0) = 0 convention:
    // s = 0 contributes g alone, s = t contributes f alone.
    let base = LazyCurve::merge(LazyCurve::source(f), LazyCurve::source(g), MergeOp::Lower);
    // s at the breakpoints of g (b = 0 uses the stored right-limit, later
    // ones the left limits — the inf includes them), t − s at breakpoints
    // of f; dominated shifts are pruned before any envelope work.
    let mut branches: Vec<LazyCurve<'a>> = Vec::new();
    branches.extend(
        pruned_shifts(g, false)
            .into_iter()
            .map(|(b, c)| LazyCurve::shift(f, b, c)),
    );
    branches.extend(
        pruned_shifts(f, false)
            .into_iter()
            .map(|(a, c)| LazyCurve::shift(g, a, c)),
    );
    match LazyCurve::tree_merge(branches, MergeOp::Lower) {
        Some(env) => LazyCurve::merge(base, env, MergeOp::Lower),
        None => base,
    }
}

/// Shift candidates `(b, h(b⁻))` of a curve `h`, with runs of equal raise
/// collapsed to the largest shift: for monotone curves,
/// `x(· − b₁) + c` ≤ `x(· − b₂) + c` pointwise whenever `b₁ ≥ b₂`, so the
/// earlier shifts of a flat run can never win a lower envelope — and for an
/// *upper* envelope of `x(· + b) − c` branches (deconvolution) the same
/// largest shift dominates. `zero_at_origin` selects the Network-Calculus
/// `h(0) = 0` convention for the first candidate instead of the stored
/// right-limit.
fn pruned_shifts(h: &Pwl, zero_at_origin: bool) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(h.segments().len());
    for (i, b) in h.breakpoint_xs().enumerate() {
        let c = if i == 0 {
            if zero_at_origin {
                0.0
            } else {
                h.value(0.0)
            }
        } else {
            h.value_left(b)
        };
        match out.last_mut() {
            // Same raise, larger shift: the new branch dominates.
            Some(last) if approx_eq(last.1, c) => *last = (b, c),
            _ => out.push((b, c)),
        }
    }
    out
}

/// Min-plus deconvolution `(f ⊘ g)(t) = sup_{s ≥ 0} f(t+s) − g(s)`,
/// clamped at zero.
///
/// # Errors
///
/// Returns [`CurveError::Unbounded`] if the long-run rate of `f` exceeds the
/// long-run rate of `g` (the supremum diverges).
///
/// # Example
///
/// The output arrival curve of a leaky-bucket flow through a rate-latency
/// server gains `r·T` of burstiness:
///
/// ```
/// use wcm_curves::{minplus, Pwl};
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// let alpha = Pwl::affine(2.0, 1.0)?; // burst 2, rate 1
/// let beta = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (3.0, 0.0, 4.0)])?;
/// let out = minplus::deconvolve(&alpha, &beta)?;
/// assert!((out.value(0.0) - 5.0).abs() < 1e-9); // 2 + 1·3
/// # Ok(())
/// # }
/// ```
pub fn deconvolve(f: &Pwl, g: &Pwl) -> Result<Pwl, CurveError> {
    Ok(deconvolve_lazy(f, g)?.collect_pwl())
}

/// Lazy min-plus deconvolution: the exact envelope of [`deconvolve`],
/// returned as a composable segment stream; [`deconvolve`] is this stream
/// collected. See [`convolve_lazy`] for the streaming contract.
///
/// # Errors
///
/// Same conditions as [`deconvolve`].
pub fn deconvolve_lazy<'a>(f: &'a Pwl, g: &'a Pwl) -> Result<LazyCurve<'a>, CurveError> {
    if f.ultimate_rate() > g.ultimate_rate() + EPSILON {
        return Err(CurveError::Unbounded {
            operation: "deconvolution (flow rate exceeds service rate)",
        });
    }
    // For fixed t, h(s) = f(t+s) − g(s) is PWL in s with kinks at s ∈ bp(g)
    // and t+s ∈ bp(f); its supremum is attained at such a kink (the tail,
    // where h has slope rf − rg ≤ 0, never beats the last kink, and a flat
    // tie is covered by the kink value). Each kink family, as a function of
    // t, is itself a PWL "branch"; the deconvolution is the exact upper
    // envelope of all branches.
    //
    // Family B_b(t) = f(t + b) − g(b⁻): f shifted left by b, lowered by the
    // smallest admissible g value at b. At b = 0 the true g(0) = 0 applies
    // (the stored value is only the right-limit). Along a flat run of g the
    // largest b dominates (f(t+b) only grows at equal gv); the dominated
    // branches are pruned before any envelope work.
    let mut branches: Vec<LazyCurve<'a>> = Vec::new();
    branches.extend(
        pruned_shifts(g, true)
            .into_iter()
            .map(|(b, gv)| LazyCurve::shift_left_minus(f, b, gv)),
    );
    // Family C_a(t) = f(a) − g(a − t) for t ≤ a, constant afterwards.
    // Along a flat run of f the smallest a dominates: equal fa, and
    // g(a − t) only grows with a.
    let mut last_fa: Option<f64> = None;
    for a in f.breakpoint_xs() {
        if a > EPSILON {
            let fa = f.value(a);
            if !last_fa.is_some_and(|prev| approx_eq(fa, prev)) {
                branches.push(LazyCurve::reflected(fa, g, a));
                last_fa = Some(fa);
            }
        }
    }
    // Infallible: a valid Pwl has ≥ 1 segment, so `branches` is non-empty.
    let env = LazyCurve::tree_merge(branches, MergeOp::Upper)
        .expect("g has at least one breakpoint");
    // Clamp at zero (arrival/service curves are non-negative).
    Ok(LazyCurve::merge(env, LazyCurve::zero(), MergeOp::Upper))
}

/// Sub-additive closure `f* = min_{n ≥ 1} f^{⊗n}` (with `f*(0) = f(0)`),
/// iterated until a fixpoint or `max_iter` convolutions.
///
/// For curves with `f(0) = 0` this is the tightest sub-additive curve below
/// `f`; it converges after finitely many iterations for PWL curves whose
/// minimum-slope segment is the tail.
///
/// # Example
///
/// ```
/// use wcm_curves::{minplus, Pwl};
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 4.0), (1.0, 4.0, 1.0)])?;
/// let closure = minplus::subadditive_closure(&f, 16);
/// assert!(minplus::is_subadditive(&closure, 64));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn subadditive_closure(f: &Pwl, max_iter: usize) -> Pwl {
    subadditive_closure_report(f, max_iter).curve
}

/// Result of [`subadditive_closure_report`]: the closure curve together
/// with an explicit convergence verdict, instead of the silent truncation
/// of [`subadditive_closure`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureOutcome {
    /// The (possibly truncated) closure curve.
    pub curve: Pwl,
    /// Convolution iterations actually performed.
    pub iterations: usize,
    /// `true` if a fixpoint was reached within `max_iter` iterations;
    /// `false` if the iteration was truncated and `curve` is only an
    /// upper bound on the true closure.
    pub converged: bool,
}

/// Sub-additive closure with an explicit convergence report: each
/// iteration evaluates `min(closure, closure ⊗ f)` as one fused segment
/// stream ([`convolve_lazy`]) collected into a ping-pong buffer, so no
/// intermediate convolution curve is materialized.
#[must_use]
pub fn subadditive_closure_report(f: &Pwl, max_iter: usize) -> ClosureOutcome {
    let mut closure = f.clone();
    let mut buf: Vec<Segment> = Vec::new();
    for it in 0..max_iter {
        closure
            .lazy()
            .lazy_min(convolve_lazy(&closure, f))
            .collect_segments_into(&mut buf);
        if buf == closure.segments() {
            return ClosureOutcome {
                curve: closure,
                iterations: it + 1,
                converged: true,
            };
        }
        // Ping-pong: the old closure's buffer becomes the next scratch.
        let old = std::mem::replace(
            &mut closure,
            Pwl::from_normalized(std::mem::take(&mut buf)),
        );
        buf = old.into_segments();
    }
    ClosureOutcome {
        curve: closure,
        iterations: max_iter,
        converged: false,
    }
}

/// Tests `f(s + t) ≤ f(s) + f(t)` on a grid spanning the breakpoints
/// (`samples × samples` pairs). Exactness caveat: this is a sampled check,
/// suitable for tests and assertions rather than proofs.
#[must_use]
pub fn is_subadditive(f: &Pwl, samples: usize) -> bool {
    let span = 2.0 * (f.tail_start() + 1.0);
    let step = span / samples as f64;
    for i in 1..=samples {
        for j in i..=samples {
            let (s, t) = (i as f64 * step, j as f64 * step);
            let lhs = f.value(s + t);
            let rhs = f.value(s) + f.value(t);
            if lhs > rhs + EPSILON * (1.0 + rhs.abs()) {
                return false;
            }
        }
    }
    true
}

/// Brute-force convolution value by sampling `s` on a dense grid — used to
/// cross-check [`convolve`] in tests. Not exact; returns an upper bound on
/// the true infimum.
#[must_use]
pub fn convolve_sampled(f: &Pwl, g: &Pwl, t: f64, samples: usize) -> f64 {
    let mut best = f.value(t).min(g.value(t)); // s = t / s = 0 with f(0)=g(0)=0
    for i in 0..=samples {
        let s = t * i as f64 / samples as f64;
        best = best.min(f.value(t - s) + g.value(s));
        best = best.min(f.value_left(t - s) + g.value_left(s));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::approx_le;

    fn rate_latency(rate: f64, latency: f64) -> Pwl {
        Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (latency, 0.0, rate)]).unwrap()
    }

    #[test]
    fn convolution_with_zero_is_zero() {
        // The zero curve absorbs: inf over s includes s = 0 with the true
        // f(0) = 0, so (f ⊗ 0)(t) = 0.
        let f = Pwl::affine(3.0, 2.0).unwrap();
        let z = Pwl::zero();
        let c = convolve(&f, &z);
        assert!(approx_eq(c.value(0.0), 0.0));
        assert!(approx_eq(c.value(10.0), 0.0));
    }

    #[test]
    fn convolution_of_rate_latencies_adds_latencies_min_rates() {
        let b1 = rate_latency(10.0, 1.0);
        let b2 = rate_latency(4.0, 2.0);
        let c = convolve(&b1, &b2);
        assert_eq!(c.value(3.0), 0.0);
        assert!(approx_eq(c.value(4.0), 4.0));
        assert!(approx_eq(c.ultimate_rate(), 4.0));
    }

    #[test]
    fn convolution_of_leaky_buckets_is_pointwise_min() {
        // The textbook result: for leaky buckets (with the f(0) = 0
        // convention), γ_{b,r} ⊗ γ_{b',r'} = min(γ_{b,r}, γ_{b',r'}).
        let f = Pwl::affine(2.0, 1.0).unwrap();
        let g = Pwl::affine(5.0, 3.0).unwrap();
        let c = convolve(&f, &g);
        for i in 0..50 {
            let t = i as f64 * 0.25;
            let expect = f.value(t).min(g.value(t));
            assert!(approx_eq(c.value(t), expect), "t={t}");
        }
    }

    #[test]
    fn convolution_matches_brute_force_on_mixed_curves() {
        let f = Pwl::from_breakpoints(vec![(0.0, 1.0, 4.0), (2.0, 9.0, 0.5)]).unwrap();
        let g = rate_latency(3.0, 1.5);
        let c = convolve(&f, &g);
        for i in 0..60 {
            let t = i as f64 * 0.2;
            let brute = convolve_sampled(&f, &g, t, 4000);
            // The sampled value upper-bounds the true infimum; it may
            // overshoot by (slope · sample step).
            assert!(
                c.value(t) <= brute + 1e-9,
                "t={t}: exact {} above brute {}",
                c.value(t),
                brute
            );
            assert!(
                brute - c.value(t) < 1e-2 * (1.0 + brute.abs()),
                "t={t}: exact {} far below brute {}",
                c.value(t),
                brute
            );
        }
    }

    #[test]
    fn convolution_is_commutative() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 2.0), (3.0, 6.0, 0.25)]).unwrap();
        let g = rate_latency(5.0, 0.75);
        let c1 = convolve(&f, &g);
        let c2 = convolve(&g, &f);
        for i in 0..80 {
            let t = i as f64 * 0.15;
            assert!(approx_eq(c1.value(t), c2.value(t)), "t={t}");
        }
    }

    #[test]
    fn deconvolution_of_bucket_through_rate_latency() {
        let alpha = Pwl::affine(2.0, 1.0).unwrap();
        let beta = rate_latency(4.0, 3.0);
        let out = deconvolve(&alpha, &beta).unwrap();
        // Classic result: α′ = (b + r·T) + r·t.
        assert!(approx_eq(out.value(0.0), 5.0));
        assert!(approx_eq(out.value(2.0), 7.0));
        assert!(approx_eq(out.ultimate_rate(), 1.0));
    }

    #[test]
    fn deconvolution_detects_divergence() {
        let alpha = Pwl::affine(0.0, 5.0).unwrap();
        let beta = rate_latency(4.0, 0.0);
        assert!(matches!(
            deconvolve(&alpha, &beta),
            Err(CurveError::Unbounded { .. })
        ));
    }

    #[test]
    fn deconvolution_value_zero_equals_vertical_deviation() {
        let alpha = Pwl::affine(3.0, 2.0).unwrap();
        let beta = rate_latency(6.0, 1.0);
        let out = deconvolve(&alpha, &beta).unwrap();
        // sup(α−β) attained at Δ = latency where β starts: α(1) = 5.
        assert!(approx_eq(out.value(0.0), 5.0));
    }

    #[test]
    fn deconvolution_with_equal_rates_uses_tail_limit() {
        let alpha = Pwl::affine(1.0, 2.0).unwrap();
        let beta = rate_latency(2.0, 2.0);
        let out = deconvolve(&alpha, &beta).unwrap();
        // sup_s (1 + 2(t+s)) − 2(s−2)⁺ → attained for any large s:
        // = 1 + 2t + 4 = 5 + 2t.
        assert!(approx_eq(out.value(0.0), 5.0));
        assert!(approx_eq(out.value(3.0), 11.0));
    }

    #[test]
    fn closure_is_below_curve_and_subadditive() {
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 6.0), (1.0, 6.0, 1.0)]).unwrap();
        let c = subadditive_closure(&f, 32);
        assert!(is_subadditive(&c, 48));
        for i in 0..64 {
            let t = i as f64 * 0.25;
            assert!(approx_le(c.value(t), f.value(t)), "t={t}");
        }
    }

    #[test]
    fn closure_of_subadditive_curve_is_itself() {
        // Concave with f(0)=0 is sub-additive already.
        let f = Pwl::from_breakpoints(vec![(0.0, 0.0, 4.0), (2.0, 8.0, 1.0)]).unwrap();
        let c = subadditive_closure(&f, 16);
        for i in 0..64 {
            let t = i as f64 * 0.3;
            assert!(approx_eq(c.value(t), f.value(t)), "t={t}");
        }
    }

    #[test]
    fn staircase_operands_match_brute_force_after_pruning() {
        // Flat runs generate dominated branches; after pruning the result
        // must still match the dense sampled infimum.
        let stairs = Pwl::from_breakpoints(vec![
            (0.0, 1.0, 0.0),
            (1.0, 2.0, 0.0),
            (2.0, 2.0, 0.0), // collapses into the previous flat run
            (3.0, 5.0, 0.5),
        ])
        .unwrap();
        let g = rate_latency(2.0, 1.0);
        let c = convolve(&stairs, &g);
        for i in 0..80 {
            let t = i as f64 * 0.1;
            let brute = convolve_sampled(&stairs, &g, t, 4000);
            assert!(c.value(t) <= brute + 1e-9, "t={t}");
            assert!(brute - c.value(t) < 1e-2 * (1.0 + brute.abs()), "t={t}");
        }
        // Deconvolution of the staircase: exact result dominates every
        // sampled candidate sup f(t+s) − g(s) and stays close to it.
        let out = deconvolve(&stairs, &g).unwrap();
        for i in 0..60 {
            let t = i as f64 * 0.1;
            let mut brute = 0.0f64;
            for j in 0..=4000 {
                let s = j as f64 * 0.005;
                brute = brute.max(stairs.value(t + s) - g.value(s));
                brute = brute.max(stairs.value_left(t + s) - g.value_left(s));
            }
            assert!(out.value(t) >= brute - 1e-9, "t={t}");
            assert!(out.value(t) - brute < 1e-2 * (1.0 + brute.abs()), "t={t}");
        }
    }

    #[test]
    fn convolution_isotone() {
        // f ≤ f' and g ≤ g' ⇒ f⊗g ≤ f'⊗g'.
        let f = rate_latency(3.0, 2.0);
        let fp = rate_latency(4.0, 1.0);
        let g = Pwl::affine(1.0, 2.0).unwrap();
        let gp = Pwl::affine(2.0, 2.5).unwrap();
        let c = convolve(&f, &g);
        let cp = convolve(&fp, &gp);
        for i in 0..60 {
            let t = i as f64 * 0.2;
            assert!(approx_le(c.value(t), cp.value(t)), "t={t}");
        }
    }
}
