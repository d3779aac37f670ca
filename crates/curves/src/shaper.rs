//! Greedy traffic shapers.
//!
//! A *greedy shaper* with shaping curve `σ` delays incoming events just
//! enough that its output has `σ` as an arrival curve, releasing them as
//! early as possible. The classic results (Le Boudec & Thiran, §1.5; applied
//! to real-time embedded systems in the authors' follow-up work on greedy
//! shapers) are:
//!
//! * output arrival curve: `α′ = α ⊗ σ`;
//! * shaper backlog bound: `sup_Δ (α(Δ) − σ(Δ))`;
//! * shaper delay bound: the horizontal deviation `h(α, σ)`;
//! * *re-shaping is for free*: a shaper with `σ ≥ α` placed behind a flow
//!   that already had arrival curve `α` introduces no extra delay.
//!
//! `σ` must be sub-additive with `σ(0) ≥ 0`; [`GreedyShaper::new`] applies
//! the sub-additive closure to arbitrary concave-or-not inputs so the
//! stored curve is always a valid shaping curve.

use crate::minplus;
use crate::pwl::Pwl;
use crate::{bounds, CurveError};

/// A greedy shaper element.
///
/// # Example
///
/// Shaping a bursty flow to a leaky bucket halves its burstiness at the
/// cost of a bounded delay:
///
/// ```
/// use wcm_curves::{shaper::GreedyShaper, Pwl};
///
/// # fn main() -> Result<(), wcm_curves::CurveError> {
/// let alpha = Pwl::affine(8.0, 1.0)?;           // burst 8, rate 1
/// let sigma = Pwl::affine(2.0, 2.0)?;           // allow burst 2, rate 2
/// let shaper = GreedyShaper::new(sigma)?;
/// let out = shaper.output_arrival(&alpha);
/// assert!((out.value(0.0) - 2.0).abs() < 1e-9); // burst clipped to σ(0)
/// let delay = shaper.delay(&alpha)?;
/// assert!((delay - 3.0).abs() < 1e-9);          // (8−2)/2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyShaper {
    sigma: Pwl,
}

impl GreedyShaper {
    /// Creates a shaper; the input is replaced by its sub-additive closure
    /// (a no-op for concave curves), which is the curve a greedy shaper
    /// actually enforces.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::Empty`] only for degenerate inputs (cannot
    /// occur for valid [`Pwl`] values).
    pub fn new(sigma: Pwl) -> Result<Self, CurveError> {
        let sigma = minplus::subadditive_closure(&sigma, 32);
        Ok(Self { sigma })
    }

    /// Arrival curve of the shaped output: `α ⊗ σ`.
    #[must_use]
    pub fn output_arrival(&self, alpha: &Pwl) -> Pwl {
        minplus::convolve(alpha, &self.sigma)
    }

    /// Bound on the traffic stored inside the shaper.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::Unbounded`] if the flow's long-run rate
    /// exceeds the shaper's.
    pub fn backlog(&self, alpha: &Pwl) -> Result<f64, CurveError> {
        bounds::backlog(alpha, &self.sigma)
    }

    /// Bound on the delay the shaper adds to the flow.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::Unbounded`] if the flow outgrows the shaper.
    pub fn delay(&self, alpha: &Pwl) -> Result<f64, CurveError> {
        bounds::delay(alpha, &self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::{approx_eq, approx_le};

    #[test]
    fn output_conforms_to_sigma() {
        let alpha = Pwl::affine(10.0, 1.0).unwrap();
        let sigma = Pwl::affine(3.0, 2.0).unwrap();
        let shaper = GreedyShaper::new(sigma.clone()).unwrap();
        let out = shaper.output_arrival(&alpha);
        // The output is bounded by both σ and the original α.
        for i in 0..60 {
            let t = i as f64 * 0.25;
            assert!(approx_le(out.value(t), sigma.value(t)), "σ at t={t}");
            assert!(approx_le(out.value(t), alpha.value(t)), "α at t={t}");
        }
    }

    #[test]
    fn shaping_an_already_conforming_flow_is_identity() {
        // α ≤ σ ⇒ α ⊗ σ = α (re-shaping is for free).
        let alpha = Pwl::affine(2.0, 1.0).unwrap();
        let sigma = Pwl::affine(5.0, 3.0).unwrap();
        let shaper = GreedyShaper::new(sigma).unwrap();
        let out = shaper.output_arrival(&alpha);
        for i in 0..60 {
            let t = i as f64 * 0.25;
            assert!(approx_eq(out.value(t), alpha.value(t)), "t={t}");
        }
        assert!(approx_eq(shaper.delay(&alpha).unwrap(), 0.0));
        // Backlog equals the instantaneous burst difference handling: a
        // conforming flow is forwarded immediately.
        assert!(shaper.backlog(&alpha).unwrap() <= 2.0 + 1e-9);
    }

    #[test]
    fn shaper_backlog_and_delay_bounds() {
        let alpha = Pwl::affine(8.0, 1.0).unwrap();
        let sigma = Pwl::affine(2.0, 2.0).unwrap();
        let shaper = GreedyShaper::new(sigma).unwrap();
        // Backlog: sup (8 + t) − (2 + 2t) = 6 at t = 0.
        assert!(approx_eq(shaper.backlog(&alpha).unwrap(), 6.0));
        // Delay: burst drains at rate 2: (8−2)/2 = 3.
        assert!(approx_eq(shaper.delay(&alpha).unwrap(), 3.0));
    }

    #[test]
    fn non_concave_sigma_is_closed() {
        // A staircase-ish σ: the closure must be sub-additive.
        let sigma =
            Pwl::from_breakpoints(vec![(0.0, 0.0, 6.0), (1.0, 6.0, 0.5)]).unwrap();
        let shaper = GreedyShaper::new(sigma).unwrap();
        assert!(minplus::is_subadditive(&shaper.sigma, 48));
    }

    #[test]
    fn overloading_shaper_is_detected() {
        let alpha = Pwl::affine(0.0, 5.0).unwrap();
        let sigma = Pwl::affine(1.0, 2.0).unwrap();
        let shaper = GreedyShaper::new(sigma).unwrap();
        assert!(shaper.backlog(&alpha).is_err());
        assert!(shaper.delay(&alpha).is_err());
    }

    #[test]
    fn tandem_shapers_equal_combined_shaper() {
        // σ₁ ⊗ σ₂ shaping in tandem equals shaping by the convolution.
        let alpha = Pwl::affine(9.0, 1.5).unwrap();
        let s1 = Pwl::affine(4.0, 3.0).unwrap();
        let s2 = Pwl::affine(2.0, 2.0).unwrap();
        let tandem = GreedyShaper::new(s2.clone())
            .unwrap()
            .output_arrival(&GreedyShaper::new(s1.clone()).unwrap().output_arrival(&alpha));
        let combined = GreedyShaper::new(minplus::convolve(&s1, &s2))
            .unwrap()
            .output_arrival(&alpha);
        for i in 0..50 {
            let t = i as f64 * 0.3;
            assert!(approx_eq(tandem.value(t), combined.value(t)), "t={t}");
        }
    }
}
