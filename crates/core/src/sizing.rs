//! Resource sizing under buffer constraints — eqs. 8–10 of the paper.
//!
//! Setting of the MPEG-2 case study (Sec. 3.2): a stream with measured
//! event-based arrival curve `ᾱ(Δ)` enters a FIFO of capacity `b` events in
//! front of a fully dedicated processing element. The PE's cycle-based
//! service curve is `β(Δ) = F·Δ`. The buffer never overflows iff
//!
//! > `β(Δ) ≥ γᵘ( ᾱ(Δ) − b )` for all `Δ ≥ 0`  (eq. 8)
//!
//! which yields the minimum admissible clock frequency
//!
//! > `F^γ_min = max_{Δ > 0} γᵘ( ᾱ(Δ) − b ) / Δ`  (eq. 9)
//!
//! and, with the WCET-only characterization `γᵘ_w(k) = w·k`, the pessimistic
//! baseline
//!
//! > `F^w_min = max_{Δ > 0} w·( ᾱ(Δ) − b ) / Δ`  (eq. 10).
//!
//! The paper reports `F^γ_min ≈ 340 MHz` vs `F^w_min ≈ 710 MHz` for the
//! MPEG-2 decoder — over 50 % savings from the workload-curve conversion.

use crate::convert;
use crate::curve::UpperWorkloadCurve;
use crate::WorkloadError;
use wcm_curves::{Pwl, StepCurve};
use wcm_events::Cycles;

/// Checks the no-overflow constraint of eq. 8:
/// `β(Δ) ≥ γᵘ(ᾱ(Δ) − b)` for all `Δ ≥ 0`.
///
/// Exact on the staircase steps (between steps the demand is constant while
/// `β` is non-decreasing), with a long-run rate check for the tail.
#[must_use]
pub fn service_satisfies_buffer(
    beta_cycles: &Pwl,
    alpha_events: &StepCurve,
    gamma_u: &UpperWorkloadCurve,
    buffer: u64,
) -> bool {
    // The demand side is a staircase (constant between arrival steps), so
    // the constraint is tightest at each step's Δ; a non-affine β (e.g.
    // rate-latency or TDMA) must additionally be checked where *it* bends,
    // against the demand level active there.
    let mut deltas: Vec<f64> = alpha_events.steps().iter().map(|&(d, _)| d).collect();
    deltas.extend(beta_cycles.breakpoint_xs());
    deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    for &delta in &deltas {
        let n = alpha_events.value(delta);
        if n <= buffer {
            continue;
        }
        let need = gamma_u.value((n - buffer) as usize).get() as f64;
        if beta_cycles.value(delta) < need - 1e-9 * (1.0 + need) {
            return false;
        }
    }
    // Tail: demand grows at tail_rate events/s × γᵘ cycles/event.
    let demand_rate = alpha_events.tail_rate() * gamma_u.tail_cycles_per_event();
    beta_cycles.ultimate_rate() >= demand_rate * (1.0 - 1e-9)
}

/// Minimum clock frequency by eq. 9 (workload-curve conversion), in Hz
/// (cycles per second).
///
/// # Errors
///
/// Returns [`WorkloadError::Infeasible`] if the instantaneous burst
/// `ᾱ(0)` already exceeds the buffer — no finite frequency avoids
/// overflow then.
///
/// # Example
///
/// ```
/// use wcm_core::{sizing, UpperWorkloadCurve};
/// use wcm_curves::StepCurve;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alpha = StepCurve::new(vec![(0.0, 2), (1.0, 4), (2.0, 6)], 3.0, 2.0)?;
/// let gamma = UpperWorkloadCurve::new(vec![10, 12, 22, 24, 34, 36])?;
/// let f = sizing::min_frequency_workload(&alpha, &gamma, 2)?;
/// // Binding window: Δ=1 needs γᵘ(2)=12 cycles ⇒ 12 Hz.
/// assert!((f - 12.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn min_frequency_workload(
    alpha_events: &StepCurve,
    gamma_u: &UpperWorkloadCurve,
    buffer: u64,
) -> Result<f64, WorkloadError> {
    min_frequency_by(alpha_events, buffer, |k| gamma_u.value(k).get() as f64,
        gamma_u.tail_cycles_per_event())
}

/// Minimum clock frequency by eq. 10 (WCET-only conversion `w·k`), in Hz.
///
/// # Errors
///
/// Returns [`WorkloadError::Infeasible`] under the same burst condition as
/// [`min_frequency_workload`].
pub fn min_frequency_wcet(
    alpha_events: &StepCurve,
    wcet: Cycles,
    buffer: u64,
) -> Result<f64, WorkloadError> {
    let w = wcet.get() as f64;
    min_frequency_by(alpha_events, buffer, |k| w * k as f64, w)
}

fn min_frequency_by(
    alpha_events: &StepCurve,
    buffer: u64,
    demand: impl Fn(usize) -> f64,
    tail_cycles_per_event: f64,
) -> Result<f64, WorkloadError> {
    let mut best = 0.0_f64;
    for &(delta, n) in alpha_events.steps() {
        if n <= buffer {
            continue;
        }
        let need = demand((n - buffer) as usize);
        if delta <= 0.0 {
            if need > 0.0 {
                return Err(WorkloadError::Infeasible {
                    reason: "instantaneous burst exceeds the buffer",
                });
            }
            continue;
        }
        best = best.max(need / delta);
    }
    // Long-run requirement: the PE must keep up with the sustained rate.
    best = best.max(alpha_events.tail_rate() * tail_cycles_per_event);
    Ok(best)
}

/// Minimum FIFO capacity (in events) for a PE clocked at `frequency`:
/// the event-based backlog bound of eq. 7 with `β(Δ) = F·Δ`.
///
/// # Errors
///
/// Returns [`WorkloadError::Infeasible`] if the sustained demand exceeds
/// the PE capacity, and propagates curve errors for invalid frequencies.
pub fn min_buffer(
    alpha_events: &StepCurve,
    gamma_u: &UpperWorkloadCurve,
    frequency: f64,
) -> Result<u64, WorkloadError> {
    if !(frequency.is_finite() && frequency > 0.0) {
        return Err(WorkloadError::InvalidParameter { name: "frequency" });
    }
    let beta = Pwl::affine(0.0, frequency)?;
    convert::backlog_events(alpha_events, &beta, gamma_u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamma() -> UpperWorkloadCurve {
        UpperWorkloadCurve::new(vec![10, 12, 22, 24, 34, 36]).unwrap()
    }

    fn alpha() -> StepCurve {
        // Burst of 3 at once, then one event per second.
        StepCurve::new(vec![(0.0, 3), (1.0, 4), (2.0, 5), (3.0, 6)], 4.0, 1.0).unwrap()
    }

    #[test]
    fn workload_frequency_below_wcet_frequency() {
        let a = alpha();
        let g = gamma();
        let fg = min_frequency_workload(&a, &g, 3).unwrap();
        let fw = min_frequency_wcet(&a, g.wcet(), 3).unwrap();
        assert!(fg <= fw, "γ-based {fg} must not exceed WCET-based {fw}");
        assert!(fg > 0.0);
    }

    #[test]
    fn frequencies_match_hand_computation() {
        let a = alpha();
        let g = gamma();
        // b = 3: candidates at Δ=1 (n=4): γᵘ(1)/1 = 10; Δ=2: γᵘ(2)/2 = 6;
        // Δ=3: γᵘ(3)/3 ≈ 7.33; tail: 1·6 = 6. Max = 10.
        assert!((min_frequency_workload(&a, &g, 3).unwrap() - 10.0).abs() < 1e-9);
        // WCET: Δ=1: 10; Δ=2: 20/2=10; Δ=3: 30/3=10; tail 10. Max = 10.
        assert!((min_frequency_wcet(&a, g.wcet(), 3).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_burst_exceeds_buffer() {
        let a = alpha();
        let g = gamma();
        assert!(matches!(
            min_frequency_workload(&a, &g, 2),
            Err(WorkloadError::Infeasible { .. })
        ));
        assert!(min_frequency_wcet(&a, g.wcet(), 2).is_err());
    }

    #[test]
    fn eq8_holds_at_computed_frequency() {
        let a = alpha();
        let g = gamma();
        let f = min_frequency_workload(&a, &g, 3).unwrap();
        let beta = Pwl::affine(0.0, f).unwrap();
        assert!(service_satisfies_buffer(&beta, &a, &g, 3));
        // Slightly slower fails.
        let beta_slow = Pwl::affine(0.0, f * 0.9).unwrap();
        assert!(!service_satisfies_buffer(&beta_slow, &a, &g, 3));
    }

    #[test]
    fn eq8_checks_rate_latency_service_at_its_own_breakpoints() {
        // A rate-latency β that satisfies all *step* instants but dips in
        // between (during its latency) must be rejected.
        let a = StepCurve::new(vec![(0.0, 3), (2.0, 4)], 3.0, 0.5).unwrap();
        let g = gamma();
        // Demand for b=2: γᵘ(1)=10 from Δ=0 on; γᵘ(2)=12 from Δ=2.
        // β with latency 1.5, rate 100: β(0)=0 < 10 → must fail even though
        // β(2)=50 ≥ 12 at the next arrival step.
        let beta = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.5, 0.0, 100.0)]).unwrap();
        assert!(!service_satisfies_buffer(&beta, &a, &g, 2));
        // An immediate-rate service of the same long-run rate passes.
        let ok = Pwl::from_breakpoints(vec![(0.0, 10.0, 100.0)]).unwrap();
        assert!(service_satisfies_buffer(&ok, &a, &g, 2));
    }

    #[test]
    fn bigger_buffer_never_needs_more_frequency() {
        let a = alpha();
        let g = gamma();
        let mut prev = f64::INFINITY;
        for b in 3..10 {
            let f = min_frequency_workload(&a, &g, b).unwrap();
            assert!(f <= prev + 1e-12, "b={b}");
            prev = f;
        }
    }

    #[test]
    fn min_buffer_roundtrip_with_frequency() {
        let a = alpha();
        let g = gamma();
        let f = min_frequency_workload(&a, &g, 3).unwrap();
        // At F^γ_min(b=3) the backlog bound must be at most 3.
        let b = min_buffer(&a, &g, f * (1.0 + 1e-9)).unwrap();
        assert!(b <= 3, "backlog bound {b} exceeds the buffer");
    }

    #[test]
    fn min_buffer_validates_frequency() {
        assert!(min_buffer(&alpha(), &gamma(), 0.0).is_err());
        assert!(min_buffer(&alpha(), &gamma(), f64::NAN).is_err());
    }

    #[test]
    fn faster_pe_needs_less_buffer() {
        let a = alpha();
        let g = gamma();
        let b_slow = min_buffer(&a, &g, 12.0).unwrap();
        let b_fast = min_buffer(&a, &g, 120.0).unwrap();
        assert!(b_fast <= b_slow);
    }
}
