//! Rate analysis of processed streams (extension).
//!
//! The companion question to the paper's buffer sizing (studied by the
//! same group in "Rate Analysis for Streaming Applications with On-chip
//! Buffer Constraints", ASP-DAC 2004): once a stream has crossed a PE,
//! *how bursty is its output*, and how long can an event be delayed inside
//! the PE? Both answers compose the workload curves with Network-Calculus
//! operators:
//!
//! * the guaranteed *event* service of the PE is `β̄ = γᵘ⁻¹ ∘ β` (eq. 7's
//!   conversion);
//! * the output event-arrival curve is `ᾱ′ = ᾱ ⊘ β̄`;
//! * the per-event delay bound is the horizontal deviation between the
//!   cycle-domain demand `γᵘ ∘ ᾱ` and `β`.

use crate::convert;
use crate::curve::UpperWorkloadCurve;
use crate::WorkloadError;
use wcm_curves::{bounds, minplus, Pwl, StepCurve};

/// Upper arrival curve (in events) of the stream *leaving* a PE with
/// cycle service `β` and per-event demand bounded by `γᵘ`.
///
/// `max_events` bounds the staircase resolution of the intermediate event
/// service curve (use at least the largest window of interest).
///
/// # Errors
///
/// Returns [`WorkloadError::Infeasible`] if the service saturates below
/// the demand, or propagates [`WorkloadError::Curve`] if the long-run
/// input rate exceeds the service rate (the output curve diverges).
///
/// # Example
///
/// ```
/// use wcm_core::{rate, UpperWorkloadCurve};
/// use wcm_curves::{Pwl, StepCurve};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alpha = StepCurve::new(vec![(0.0, 4), (1.0, 5), (2.0, 6)], 3.0, 1.0)?;
/// let gamma = UpperWorkloadCurve::new(vec![10, 18, 26, 34, 42, 50])?;
/// let beta = Pwl::affine(0.0, 40.0)?; // 40 cycles/s
/// let out = rate::output_event_arrival(&alpha, &beta, &gamma, 64)?;
/// // The output can never be burstier than what the service lets through.
/// assert!(out.value(1.0) <= 12.0);
/// # Ok(())
/// # }
/// ```
pub fn output_event_arrival(
    alpha_events: &StepCurve,
    beta_cycles: &Pwl,
    gamma_u: &UpperWorkloadCurve,
    max_events: usize,
) -> Result<Pwl, WorkloadError> {
    let alpha = alpha_events.to_pwl_upper();
    let beta_events = event_service_pwl(beta_cycles, gamma_u, max_events)?;
    Ok(minplus::deconvolve(&alpha, &beta_events)?)
}

/// The event-based service `β̄ = γᵘ⁻¹ ∘ β` as a [`Pwl`]: the exact
/// staircase up to `max_events`, then a *sound* affine tail.
///
/// Beyond the staircase, `γᵘ(k) ≤ (k/K + 1)·γᵘ(K)` (sub-additive
/// extension) gives `γᵘ⁻¹(e) ≥ e/c − K` with `c` the tail cycles per event
/// and `K = γᵘ`'s stored range — an affine lower bound with slope
/// `rate(β)/c`. The curve stays flat at `max_events` until that line
/// catches up, then follows it.
///
/// # Errors
///
/// Same conditions as [`convert::event_service`].
pub fn event_service_pwl(
    beta_cycles: &Pwl,
    gamma_u: &UpperWorkloadCurve,
    max_events: usize,
) -> Result<Pwl, WorkloadError> {
    let staircase = convert::event_service(beta_cycles, gamma_u, max_events)?;
    let mut pwl = staircase.to_pwl_lower();
    let per_event = gamma_u.tail_cycles_per_event();
    let rate = beta_cycles.ultimate_rate();
    if per_event <= 0.0 || rate <= 0.0 {
        return Ok(pwl);
    }
    let slope = rate / per_event;
    // The affine lower bound reaches `max_events` at Δ*.
    let k_stored = gamma_u.k_max() as f64;
    let delta_star =
        (max_events as f64 + k_stored) * per_event / rate + beta_cycles.tail_start();
    let last = staircase.horizon().max(pwl.tail_start());
    let attach = delta_star.max(last + 1e-9);
    // Flat until the attach point, then grow at the sustained event rate.
    let mut segs: Vec<wcm_curves::Segment> = pwl
        .segments().to_vec();
    segs.push(wcm_curves::Segment::new(
        attach,
        max_events as f64,
        slope,
    ));
    pwl = Pwl::from_breakpoints(
        segs.into_iter().map(|s| (s.x, s.y, s.slope)).collect(),
    )?;
    Ok(pwl)
}

/// Worst-case time an event spends in the PE's input queue plus service —
/// the horizontal deviation between the cycle demand `γᵘ(ᾱ(Δ))` and the
/// cycle service `β(Δ)` (FIFO processing).
///
/// # Errors
///
/// Propagates [`WorkloadError::Curve`] if the demand outgrows the service.
pub fn processing_delay(
    alpha_events: &StepCurve,
    beta_cycles: &Pwl,
    gamma_u: &UpperWorkloadCurve,
) -> Result<f64, WorkloadError> {
    let demand = convert::demand_arrival(alpha_events, gamma_u)?.to_pwl_upper();
    Ok(bounds::delay(&demand, beta_cycles)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_curves::service::FullCapacity;

    fn gamma() -> UpperWorkloadCurve {
        UpperWorkloadCurve::new(vec![10, 18, 26, 34, 42, 50]).unwrap()
    }

    fn alpha() -> StepCurve {
        StepCurve::new(vec![(0.0, 4), (1.0, 5), (2.0, 6), (3.0, 7)], 4.0, 1.0).unwrap()
    }

    #[test]
    fn output_is_never_burstier_than_input_long_run() {
        let beta = FullCapacity::new(50.0).unwrap().to_pwl();
        let out = output_event_arrival(&alpha(), &beta, &gamma(), 64).unwrap();
        // Long-run rates match the input (the PE is fast enough).
        assert!((out.ultimate_rate() - 1.0).abs() < 0.2);
    }

    #[test]
    fn smaller_service_gives_more_pessimistic_output_bound() {
        // α ⊘ β grows as β shrinks: a slower PE adds delay jitter, so the
        // guaranteed bound on its output must widen.
        let fast = FullCapacity::new(200.0).unwrap().to_pwl();
        let slow = FullCapacity::new(12.0).unwrap().to_pwl();
        let out_fast = output_event_arrival(&alpha(), &fast, &gamma(), 64).unwrap();
        let out_slow = output_event_arrival(&alpha(), &slow, &gamma(), 64).unwrap();
        for i in 0..40 {
            let d = i as f64 * 0.25;
            assert!(
                out_slow.value(d) + 1e-9 >= out_fast.value(d),
                "slow bound below fast bound at Δ={d}"
            );
        }
    }

    #[test]
    fn overloaded_pe_rejected() {
        // Service slower than the sustained demand (1 event/s × 8 c/event).
        let beta = FullCapacity::new(2.0).unwrap().to_pwl();
        assert!(output_event_arrival(&alpha(), &beta, &gamma(), 64).is_err());
    }

    #[test]
    fn processing_delay_shrinks_with_speed() {
        let slow = FullCapacity::new(15.0).unwrap().to_pwl();
        let fast = FullCapacity::new(150.0).unwrap().to_pwl();
        let d_slow = processing_delay(&alpha(), &slow, &gamma()).unwrap();
        let d_fast = processing_delay(&alpha(), &fast, &gamma()).unwrap();
        assert!(d_fast < d_slow);
        assert!(d_fast >= 0.0);
    }

    #[test]
    fn processing_delay_hand_value() {
        // Demand: γᵘ(4) = 34 cycles at Δ=0; service 17 c/s ⇒ the burst
        // alone takes 2 s to clear.
        let beta = FullCapacity::new(17.0).unwrap().to_pwl();
        let d = processing_delay(&alpha(), &beta, &gamma()).unwrap();
        assert!(d >= 2.0 - 1e-9, "delay {d} below burst drain time");
    }
}
