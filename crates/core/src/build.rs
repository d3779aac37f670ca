//! Building curves from measured traces.
//!
//! The paper obtains both the workload curves `γᵘ/γˡ` and the event-based
//! arrival curve `ᾱ(Δ)` of the MPEG-2 case study by trace analysis
//! (Sec. 3.2): the workload curves from the per-macroblock demand sequence,
//! the arrival curve from the macroblock timestamps, each over a window of
//! 24 frames and maximized over 14 clips. The helpers here implement those
//! measurements for any [`Trace`]/[`TimedTrace`].

use crate::curve::WorkloadBounds;
use crate::WorkloadError;
use wcm_curves::StepCurve;
use wcm_events::window::{max_spans, min_spans, Parallelism, WindowMode};
use wcm_events::{TimedTrace, Trace};

/// Builds workload bounds for several traces and merges them
/// (max of uppers, min of lowers).
///
/// # Errors
///
/// Returns [`WorkloadError::Empty`] for an empty trace list and propagates
/// window-analysis errors (e.g. `k_max` longer than a trace).
///
/// # Example
///
/// ```
/// use wcm_core::build::bounds_from_traces;
/// use wcm_events::{window::WindowMode, Cycles, ExecutionInterval, Trace, TypeRegistry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = TypeRegistry::new();
/// let x = reg.register("x", ExecutionInterval::fixed(Cycles(4)))?;
/// let y = reg.register("y", ExecutionInterval::fixed(Cycles(1)))?;
/// let t1 = Trace::new(reg.clone(), vec![x, y, y, x]);
/// let t2 = Trace::new(reg, vec![y, x, x, y]);
/// let b = bounds_from_traces(&[t1, t2], 3, WindowMode::Exact)?;
/// assert_eq!(b.upper.value(2), Cycles(8)); // x,x occurs in t2
/// # Ok(())
/// # }
/// ```
pub fn bounds_from_traces(
    traces: &[Trace],
    k_max: usize,
    mode: WindowMode,
) -> Result<WorkloadBounds, WorkloadError> {
    let all: Vec<WorkloadBounds> = traces
        .iter()
        .map(|t| WorkloadBounds::from_trace(t, k_max, mode))
        .collect::<Result<_, _>>()?;
    WorkloadBounds::merge_all(&all)
}

/// Measures the empirical **upper arrival curve** `ᾱ(Δ)` of a timed trace:
/// the maximum number of events observed in any closed window of length `Δ`,
/// expressed as a staircase.
///
/// Internally computes the minimal span `d(k)` of every `k` consecutive
/// events; then `ᾱ(Δ) = max { k : d(k) ≤ Δ }`, so the staircase jumps to
/// `k` at `Δ = d(k)`. `horizon` is the span of `k_max` events.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] via the window layer if
/// `k_max` is 0 or exceeds the trace length.
pub fn arrival_upper(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, WorkloadError> {
    let spans = min_spans(&trace.times(), k_max, mode)?;
    arrival_upper_from_spans(&spans, trace.len(), trace.duration())
}

/// [`arrival_upper`] inside `par.scope(..)`, which the span scan does
/// not read. It stays for the `examples/bench_e2e` harness; new code
/// calls [`arrival_upper`].
///
/// # Errors
///
/// Same conditions as [`arrival_upper`].
pub fn arrival_upper_with(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<StepCurve, WorkloadError> {
    par.scope(|| arrival_upper(trace, k_max, mode))
}

/// The staircase of [`arrival_upper`] from already measured minimal
/// spans `spans[k − 1] = d(k)` of a trace with `len` events lasting
/// `duration`: it jumps to `k` at `Δ = d(k)`, its horizon is `d(k_max)`
/// and its tail rate `len / duration`. Shared by the batch path and the
/// running span minima of a `wcm serve` session.
///
/// # Errors
///
/// [`WorkloadError::InvalidParameter`] for empty `spans`; curve errors
/// from [`StepCurve::new`].
pub fn arrival_upper_from_spans(
    spans: &[f64],
    len: usize,
    duration: f64,
) -> Result<StepCurve, WorkloadError> {
    let &horizon = spans
        .last()
        .ok_or(WorkloadError::InvalidParameter { name: "k_max" })?;
    // spans is non-decreasing; build steps at strictly increasing Δ.
    let mut steps: Vec<(f64, u64)> = Vec::with_capacity(spans.len());
    for (i, &d) in spans.iter().enumerate() {
        let k = (i + 1) as u64;
        match steps.last_mut() {
            Some(last) if d <= last.0 + f64::EPSILON * (1.0 + last.0.abs()) => {
                // Same span: the larger k wins (more events fit in Δ).
                last.1 = k;
            }
            _ => steps.push((d, k)),
        }
    }
    let tail_rate = if duration > 0.0 {
        len as f64 / duration
    } else {
        0.0
    };
    Ok(StepCurve::new(steps, horizon, tail_rate)?)
}

/// Measures the empirical **lower arrival curve** of a timed trace: the
/// minimum number of events in any closed window of length `Δ`.
///
/// Uses maximal spans `D(k)`: at least `k` events are seen in any window of
/// length `≥ D(k+1)`... conservatively, the staircase rises to `k` at
/// `Δ = D(k)` (a window that long always covers `k` consecutive events of
/// the trace interior).
///
/// # Errors
///
/// Same conditions as [`arrival_upper`].
pub fn arrival_lower(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, WorkloadError> {
    let times = trace.times();
    let spans = max_spans(&times, k_max, mode)?;
    let mut steps: Vec<(f64, u64)> = vec![(0.0, 0)];
    for (i, &d) in spans.iter().enumerate() {
        let k = i as u64; // a window of length D(k+1) always contains ≥ k events
        if k == 0 {
            continue;
        }
        match steps.last_mut() {
            Some(last) if d <= last.0 + f64::EPSILON * (1.0 + last.0.abs()) => {
                last.1 = last.1.max(k);
            }
            _ => steps.push((d, k)),
        }
    }
    let horizon = *spans.last().expect("validated non-empty");
    Ok(StepCurve::new(steps, horizon, 0.0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TypeRegistry};

    fn timed(times: &[f64]) -> TimedTrace {
        let mut reg = TypeRegistry::new();
        let t = reg
            .register("t", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        TimedTrace::new(
            reg,
            times.iter().map(|&time| TimedEvent { time, ty: t }).collect(),
        )
        .unwrap()
    }

    #[test]
    fn arrival_upper_of_periodic_trace() {
        // Events at 0, 1, 2, …, 9: k events span k−1 time units.
        let tt = timed(&(0..10).map(f64::from).collect::<Vec<_>>());
        let alpha = arrival_upper(&tt, 10, WindowMode::Exact).unwrap();
        assert_eq!(alpha.value(0.0), 1);
        assert_eq!(alpha.value(0.5), 1);
        assert_eq!(alpha.value(1.0), 2);
        assert_eq!(alpha.value(4.2), 5);
        assert_eq!(alpha.value(9.0), 10);
    }

    #[test]
    fn arrival_upper_of_bursty_trace() {
        // Two instantaneous bursts of 3 events.
        let tt = timed(&[0.0, 0.0, 0.0, 10.0, 10.0, 10.0]);
        let alpha = arrival_upper(&tt, 6, WindowMode::Exact).unwrap();
        assert_eq!(alpha.value(0.0), 3);
        assert_eq!(alpha.value(9.0), 3);
        assert_eq!(alpha.value(10.0), 6);
    }

    #[test]
    fn arrival_upper_matches_brute_force_sliding_window() {
        let times = [0.0, 0.3, 0.9, 1.0, 2.5, 2.6, 2.7, 5.0];
        let tt = timed(&times);
        let alpha = arrival_upper(&tt, times.len(), WindowMode::Exact).unwrap();
        for i in 0..60 {
            let delta = i as f64 * 0.1;
            // Brute force: max events in any closed window [t, t+delta]
            // anchored at an event.
            let mut best = 0;
            for (s, &start) in times.iter().enumerate() {
                let count = times[s..]
                    .iter()
                    .take_while(|&&t| t <= start + delta + 1e-12)
                    .count();
                best = best.max(count);
            }
            assert_eq!(
                alpha.value(delta),
                best as u64,
                "mismatch at Δ={delta}"
            );
        }
    }

    #[test]
    fn arrival_lower_is_below_upper() {
        let times: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin().abs() + i as f64).collect();
        let tt = timed(&times);
        let up = arrival_upper(&tt, 20, WindowMode::Exact).unwrap();
        let lo = arrival_lower(&tt, 20, WindowMode::Exact).unwrap();
        for i in 0..200 {
            let d = i as f64 * 0.1;
            assert!(lo.value(d) <= up.value(d), "Δ={d}");
        }
    }

    #[test]
    fn arrival_lower_of_periodic_trace() {
        let tt = timed(&(0..10).map(f64::from).collect::<Vec<_>>());
        let lo = arrival_lower(&tt, 10, WindowMode::Exact).unwrap();
        // A window of length k always contains at least k−1 events… the
        // maximal span of k events is k−1, so the curve reaches k−1 at Δ=k.
        assert_eq!(lo.value(0.5), 0);
        assert_eq!(lo.value(1.0), 1);
        assert_eq!(lo.value(9.0), 9);
    }

    #[test]
    fn bounds_from_traces_merges() {
        let mut reg = TypeRegistry::new();
        let x = reg
            .register("x", ExecutionInterval::fixed(Cycles(4)))
            .unwrap();
        let y = reg
            .register("y", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        let t1 = Trace::new(reg.clone(), vec![x, y, y, x]);
        let t2 = Trace::new(reg, vec![y, x, x, y]);
        let b = bounds_from_traces(&[t1, t2], 3, WindowMode::Exact).unwrap();
        assert_eq!(b.upper.value(2), Cycles(8));
        assert_eq!(b.lower.value(2), Cycles(2));
        assert!(bounds_from_traces(&[], 3, WindowMode::Exact).is_err());
    }
}
