//! Event traces: ordered type sequences, optionally with timestamps.

use crate::types::{Cycles, EventType, TypeRegistry};
use crate::EventError;

/// An ordered sequence of typed events (no timing) together with the
/// registry defining the types — the `[E₁, E₂, …]` of the paper.
///
/// # Example
///
/// ```
/// use wcm_events::{Cycles, ExecutionInterval, TypeRegistry, Trace};
///
/// # fn main() -> Result<(), wcm_events::EventError> {
/// let mut reg = TypeRegistry::new();
/// let hit = reg.register("hit", ExecutionInterval::fixed(Cycles(2)))?;
/// let miss = reg.register("miss", ExecutionInterval::fixed(Cycles(10)))?;
/// let trace = Trace::new(reg, vec![hit, miss, hit]);
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.worst_demands(), vec![Cycles(2), Cycles(10), Cycles(2)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Trace {
    registry: TypeRegistry,
    events: Vec<EventType>,
}

impl Trace {
    /// Creates a trace over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if an event references a type outside the registry (programmer
    /// error — handles only come from a registry).
    #[must_use]
    pub fn new(registry: TypeRegistry, events: Vec<EventType>) -> Self {
        for &e in &events {
            registry
                .validate(e)
                .expect("event type must come from the supplied registry");
        }
        Self { registry, events }
    }

    /// Parses a trace from whitespace-separated type names, e.g.
    /// `"a b a b c c a a c"` (Fig. 1 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`EventError::DuplicateType`]-free registry lookups only;
    /// unknown names produce [`EventError::UnknownType`].
    pub fn parse(registry: TypeRegistry, text: &str) -> Result<Self, EventError> {
        let mut events = Vec::new();
        for tok in text.split_whitespace() {
            let ty = registry
                .lookup(tok)
                .ok_or(EventError::UnknownType { index: usize::MAX })?;
            events.push(ty);
        }
        Ok(Self { registry, events })
    }

    /// The type registry of this trace.
    #[must_use]
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The event sequence.
    #[must_use]
    pub fn events(&self) -> &[EventType] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-event worst-case demands `wcet(type(Eᵢ))`.
    #[must_use]
    pub fn worst_demands(&self) -> Vec<Cycles> {
        self.events
            .iter()
            .map(|&e| self.registry.interval(e).wcet())
            .collect()
    }

    /// Per-event best-case demands `bcet(type(Eᵢ))`.
    #[must_use]
    pub fn best_demands(&self) -> Vec<Cycles> {
        self.events
            .iter()
            .map(|&e| self.registry.interval(e).bcet())
            .collect()
    }

    /// `γ_w(j, k)`: worst-case demand of `k` events starting at 1-indexed
    /// position `j` (eq. in Sec. 2.1 of the paper). Returns `Cycles::ZERO`
    /// for `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `j = 0` or the window `[j, j+k)` leaves the trace.
    #[must_use]
    pub fn gamma_w(&self, j: usize, k: usize) -> Cycles {
        assert!(j >= 1, "events are 1-indexed in the paper's notation");
        self.events[j - 1..j - 1 + k]
            .iter()
            .map(|&e| self.registry.interval(e).wcet())
            .sum()
    }

    /// `γ_b(j, k)`: best-case demand of `k` events starting at 1-indexed
    /// position `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j = 0` or the window `[j, j+k)` leaves the trace.
    #[must_use]
    pub fn gamma_b(&self, j: usize, k: usize) -> Cycles {
        assert!(j >= 1, "events are 1-indexed in the paper's notation");
        self.events[j - 1..j - 1 + k]
            .iter()
            .map(|&e| self.registry.interval(e).bcet())
            .sum()
    }
}

/// One event with an arrival timestamp (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimedEvent {
    /// Arrival time in seconds.
    pub time: f64,
    /// Event type.
    pub ty: EventType,
}

/// A time-stamped typed event trace, sorted by arrival time.
///
/// # Example
///
/// ```
/// use wcm_events::{Cycles, ExecutionInterval, TypeRegistry, TimedTrace, TimedEvent};
///
/// # fn main() -> Result<(), wcm_events::EventError> {
/// let mut reg = TypeRegistry::new();
/// let t = reg.register("tick", ExecutionInterval::fixed(Cycles(1)))?;
/// let tt = TimedTrace::new(reg, vec![
///     TimedEvent { time: 0.0, ty: t },
///     TimedEvent { time: 1.5, ty: t },
/// ])?;
/// assert_eq!(tt.len(), 2);
/// assert_eq!(tt.duration(), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimedTrace {
    registry: TypeRegistry,
    /// Arrival times, one contiguous run so span scans borrow them.
    times: Vec<f64>,
    /// `types[i]` is the type of the event at `times[i]`.
    types: Vec<EventType>,
}

impl TimedTrace {
    /// Creates a timed trace; timestamps must be non-decreasing and finite.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnsortedTimestamps`] if times decrease or are
    /// not finite, [`EventError::UnknownType`] for foreign type handles.
    pub fn new(registry: TypeRegistry, events: Vec<TimedEvent>) -> Result<Self, EventError> {
        let (times, types) = events.into_iter().map(|e| (e.time, e.ty)).unzip();
        Self::from_parts(registry, times, types)
    }

    /// Creates a timed trace from its timestamps and the type of each
    /// event, keeping both vectors as they are.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] (`types`) if the lengths
    /// differ, otherwise the errors of [`TimedTrace::new`].
    pub fn from_parts(
        registry: TypeRegistry,
        times: Vec<f64>,
        types: Vec<EventType>,
    ) -> Result<Self, EventError> {
        if times.len() != types.len() {
            return Err(EventError::InvalidParameter { name: "types" });
        }
        for (i, (&time, &ty)) in times.iter().zip(&types).enumerate() {
            registry.validate(ty)?;
            if !time.is_finite() || (i > 0 && time < times[i - 1]) {
                return Err(EventError::UnsortedTimestamps { index: i });
            }
        }
        Ok(Self { registry, times, types })
    }

    /// The type registry.
    #[must_use]
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The events in time order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TimedEvent> + '_ {
        self.times
            .iter()
            .zip(&self.types)
            .map(|(&time, &ty)| TimedEvent { time, ty })
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Time span between first and last event (0 for < 2 events).
    #[must_use]
    pub fn duration(&self) -> f64 {
        match (self.times.first(), self.times.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// The timestamps, in time order.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The event types, in time order.
    #[must_use]
    pub fn types(&self) -> &[EventType] {
        &self.types
    }

    /// Drops timing, keeping the ordered type sequence.
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        Trace::new(self.registry.clone(), self.types.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ExecutionInterval;

    fn fig1_registry() -> (TypeRegistry, EventType, EventType, EventType) {
        let mut reg = TypeRegistry::new();
        let a = reg
            .register("a", ExecutionInterval::new(Cycles(1), Cycles(3)).unwrap())
            .unwrap();
        let b = reg
            .register("b", ExecutionInterval::new(Cycles(2), Cycles(6)).unwrap())
            .unwrap();
        let c = reg
            .register("c", ExecutionInterval::new(Cycles(1), Cycles(2)).unwrap())
            .unwrap();
        (reg, a, b, c)
    }

    /// The exact sequence of Fig. 1: `a b a b c c a a c`, with intervals
    /// chosen so that γ_b(3,4) = 5 and γ_w(3,4) = 13 as printed in the
    /// figure.
    fn fig1_trace() -> Trace {
        let (reg, a, b, c) = fig1_registry();
        Trace::new(reg, vec![a, b, a, b, c, c, a, a, c])
    }

    #[test]
    fn fig1_gamma_values() {
        let t = fig1_trace();
        // Events 3..6 are a, b, c, c; the figure prints γ_b(3,4) = 5 and
        // γ_w(3,4) = 13.
        assert_eq!(t.gamma_b(3, 4), Cycles(1 + 2 + 1 + 1));
        assert_eq!(t.gamma_w(3, 4), Cycles(3 + 6 + 2 + 2));
        assert_eq!(t.gamma_b(3, 4), Cycles(5));
        assert_eq!(t.gamma_w(3, 4), Cycles(13));
    }

    #[test]
    fn gamma_zero_window_is_zero() {
        let t = fig1_trace();
        assert_eq!(t.gamma_w(1, 0), Cycles::ZERO);
        assert_eq!(t.gamma_b(5, 0), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "1-indexed")]
    fn gamma_rejects_zero_index() {
        let _ = fig1_trace().gamma_w(0, 1);
    }

    #[test]
    fn parse_roundtrip() {
        let (reg, a, b, c) = fig1_registry();
        let t = Trace::parse(reg, "a b a b c c a a c").unwrap();
        assert_eq!(t.events(), fig1_trace().events());
        assert_eq!(t.events()[0], a);
        assert_eq!(t.events()[1], b);
        assert_eq!(t.events()[4], c);
    }

    #[test]
    fn parse_rejects_unknown_name() {
        let (reg, ..) = fig1_registry();
        assert!(Trace::parse(reg, "a b z").is_err());
    }

    #[test]
    fn demand_vectors() {
        let t = fig1_trace();
        let w = t.worst_demands();
        let b = t.best_demands();
        assert_eq!(w.len(), 9);
        assert_eq!(w[0], Cycles(3));
        assert_eq!(w[1], Cycles(6));
        assert_eq!(b[0], Cycles(1));
        assert!(w.iter().zip(&b).all(|(wi, bi)| wi >= bi));
    }

    #[test]
    fn timed_trace_rejects_unsorted() {
        let (reg, a, ..) = fig1_registry();
        let r = TimedTrace::new(
            reg,
            vec![
                TimedEvent { time: 1.0, ty: a },
                TimedEvent { time: 0.5, ty: a },
            ],
        );
        assert!(matches!(r, Err(EventError::UnsortedTimestamps { index: 1 })));
    }

    #[test]
    fn timed_trace_rejects_nan() {
        let (reg, a, ..) = fig1_registry();
        let r = TimedTrace::new(
            reg,
            vec![TimedEvent {
                time: f64::NAN,
                ty: a,
            }],
        );
        assert!(r.is_err());
    }

    #[test]
    fn timed_trace_duration_and_flatten() {
        let (reg, a, b, _) = fig1_registry();
        let tt = TimedTrace::new(
            reg,
            vec![
                TimedEvent { time: 0.25, ty: a },
                TimedEvent { time: 0.75, ty: b },
                TimedEvent { time: 2.0, ty: a },
            ],
        )
        .unwrap();
        assert!((tt.duration() - 1.75).abs() < 1e-12);
        let t = tt.to_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[1], b);
    }

    #[test]
    fn empty_traces() {
        let (reg, ..) = fig1_registry();
        let t = Trace::new(reg.clone(), vec![]);
        assert!(t.is_empty());
        let tt = TimedTrace::new(reg, vec![]).unwrap();
        assert!(tt.is_empty());
        assert_eq!(tt.duration(), 0.0);
    }
}
