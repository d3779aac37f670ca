//! Seeded fault injection over typed event streams.
//!
//! The simulator-side fault layer (`wcm-sim::faults`) perturbs the MPEG-2
//! macroblock workload; this module is its counterpart on the event
//! substrate: composable, reproducible injectors over [`Trace`] and
//! [`TimedTrace`]. Use it to stress workload curves built with
//! `wcm-core::build` — a curve derived from a clean trace should flag the
//! faulted variant of the same trace when replayed through an envelope
//! monitor.
//!
//! All randomness is drawn from a ChaCha8 stream seeded per injector from
//! the plan seed, so a fixed `(seed, injector list, input trace)` triple
//! always yields a bit-identical output trace.
//!
//! # Example
//!
//! ```
//! use wcm_events::faults::{StreamFaultPlan, StreamInjector};
//! use wcm_events::{Cycles, ExecutionInterval, Trace, TypeRegistry};
//!
//! # fn main() -> Result<(), wcm_events::EventError> {
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("a", ExecutionInterval::fixed(Cycles(1)))?;
//! let trace = Trace::new(reg, vec![a; 100]);
//! let plan = StreamFaultPlan::new(7).with(StreamInjector::Drop { per_mille: 200 });
//! let (faulted, report) = plan.apply(&trace)?;
//! assert_eq!(trace.len() - report.dropped, faulted.len());
//! let (again, _) = plan.apply(&trace)?;
//! assert_eq!(faulted, again); // same seed, same stream
//! # Ok(())
//! # }
//! ```

use crate::trace::{TimedEvent, TimedTrace, Trace};
use crate::types::{EventType, TypeRegistry};
use crate::EventError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Decorrelates per-injector RNG streams (see [`injector_rng`]).
const SUB_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One stream-level fault model. Injectors compose: a
/// [`StreamFaultPlan`] applies them in order, each with its own
/// deterministic RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StreamInjector {
    /// Loses each event independently with probability `per_mille`/1000
    /// (a lossy transport in front of the task).
    Drop {
        /// Drop probability in units of 1/1000; at most 1000.
        per_mille: u16,
    },
    /// Duplicates each event independently with probability
    /// `per_mille`/1000; the copy arrives back-to-back with the original
    /// (at the same timestamp in a [`TimedTrace`]).
    Duplicate {
        /// Duplication probability in units of 1/1000; at most 1000.
        per_mille: u16,
    },
    /// Corrupts the *classification* of each event independently with
    /// probability `per_mille`/1000: the event is re-labelled with a
    /// uniformly drawn different type from the registry (a bit error in
    /// the header that survives transport). No-op on single-type
    /// registries.
    Retype {
        /// Corruption probability in units of 1/1000; at most 1000.
        per_mille: u16,
    },
    /// Adds an independent uniform delay in `[0, max_delay_s)` to every
    /// arrival timestamp, then restores time order (events may be
    /// reordered relative to the input). No-op on untimed [`Trace`]s,
    /// which carry no timestamps.
    Jitter {
        /// Maximum added delay in seconds; finite and non-negative.
        max_delay_s: f64,
    },
}

impl StreamInjector {
    /// Short stable name, used in reports and CLI specs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StreamInjector::Drop { .. } => "drop",
            StreamInjector::Duplicate { .. } => "dup",
            StreamInjector::Retype { .. } => "retype",
            StreamInjector::Jitter { .. } => "jitter",
        }
    }

    /// Checks parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] naming the offending field
    /// when a probability exceeds 1000‰ or a delay is negative or
    /// non-finite.
    pub fn validate(&self) -> Result<(), EventError> {
        match *self {
            StreamInjector::Drop { per_mille }
            | StreamInjector::Duplicate { per_mille }
            | StreamInjector::Retype { per_mille } => {
                if per_mille > 1000 {
                    return Err(EventError::InvalidParameter { name: "per_mille" });
                }
            }
            StreamInjector::Jitter { max_delay_s } => {
                if !max_delay_s.is_finite() || max_delay_s < 0.0 {
                    return Err(EventError::InvalidParameter { name: "max_delay_s" });
                }
            }
        }
        Ok(())
    }

    /// Whether the injector cannot change any trace (zero intensity).
    fn is_noop(&self) -> bool {
        match *self {
            StreamInjector::Drop { per_mille }
            | StreamInjector::Duplicate { per_mille }
            | StreamInjector::Retype { per_mille } => per_mille == 0,
            StreamInjector::Jitter { max_delay_s } => max_delay_s == 0.0,
        }
    }
}

/// What a [`StreamFaultPlan`] actually did to a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamFaultReport {
    /// Events removed by [`StreamInjector::Drop`].
    pub dropped: usize,
    /// Copies added by [`StreamInjector::Duplicate`].
    pub duplicated: usize,
    /// Events whose type changed under [`StreamInjector::Retype`].
    pub retyped: usize,
    /// Events whose timestamp moved under [`StreamInjector::Jitter`].
    pub jittered: usize,
}

impl StreamFaultReport {
    /// Whether no injector touched the trace.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == StreamFaultReport::default()
    }
}

/// An ordered, seeded list of [`StreamInjector`]s.
///
/// Injectors run in list order; each draws from its own ChaCha8 stream
/// derived from the plan seed and its position, so inserting an injector
/// does not perturb the randomness of those before it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamFaultPlan {
    seed: u64,
    injectors: Vec<StreamInjector>,
}

impl StreamFaultPlan {
    /// An empty plan (applies no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            injectors: Vec::new(),
        }
    }

    /// Appends an injector (builder style).
    #[must_use]
    pub fn with(mut self, injector: StreamInjector) -> Self {
        self.injectors.push(injector);
        self
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injectors in application order.
    #[must_use]
    pub fn injectors(&self) -> &[StreamInjector] {
        &self.injectors
    }

    /// Validates every injector.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EventError::InvalidParameter`].
    pub fn validate(&self) -> Result<(), EventError> {
        for inj in &self.injectors {
            inj.validate()?;
        }
        Ok(())
    }

    /// Applies the plan to an untimed trace. [`StreamInjector::Jitter`] is
    /// skipped (no timestamps to perturb). The result may be empty if
    /// every event was dropped.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] if an injector is
    /// mis-parameterized; the input trace is never partially consumed.
    pub fn apply(&self, trace: &Trace) -> Result<(Trace, StreamFaultReport), EventError> {
        let (events, report) = self.inject(trace.registry(), trace.events().to_vec())?;
        Ok((Trace::new(trace.registry().clone(), events), report))
    }

    /// Applies the plan to a timed trace. All injectors participate;
    /// [`StreamInjector::Jitter`] perturbs timestamps and the result is
    /// re-sorted into time order (stable, so simultaneous events keep
    /// their relative order).
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] for a mis-parameterized
    /// injector.
    pub fn apply_timed(
        &self,
        trace: &TimedTrace,
    ) -> Result<(TimedTrace, StreamFaultReport), EventError> {
        let (events, report) = self.inject(trace.registry(), trace.events().collect())?;
        let faulted = TimedTrace::new(trace.registry().clone(), events)?;
        Ok((faulted, report))
    }

    /// The injector loop shared by [`Self::apply`] and
    /// [`Self::apply_timed`]: every arm but jitter is written once, over
    /// either event representation.
    fn inject<E: Faultable>(
        &self,
        registry: &TypeRegistry,
        mut events: Vec<E>,
    ) -> Result<(Vec<E>, StreamFaultReport), EventError> {
        self.validate()?;
        let mut report = StreamFaultReport::default();
        for (pos, inj) in self.injectors.iter().enumerate() {
            if inj.is_noop() {
                continue;
            }
            let mut rng = injector_rng(self.seed, pos);
            match *inj {
                StreamInjector::Drop { per_mille } => {
                    let before = events.len();
                    events.retain(|_| !rng.gen_bool(f64::from(per_mille) / 1000.0));
                    report.dropped += before - events.len();
                }
                StreamInjector::Duplicate { per_mille } => {
                    let mut out = Vec::with_capacity(events.len());
                    for &e in &events {
                        out.push(e);
                        if rng.gen_bool(f64::from(per_mille) / 1000.0) {
                            out.push(e);
                            report.duplicated += 1;
                        }
                    }
                    events = out;
                }
                StreamInjector::Retype { per_mille } => {
                    let types: Vec<EventType> = registry.iter().map(|(t, _, _)| t).collect();
                    if types.len() < 2 {
                        continue;
                    }
                    for e in &mut events {
                        if rng.gen_bool(f64::from(per_mille) / 1000.0) {
                            // Draw among the *other* types so a corrupted
                            // event always changes class.
                            let ty = e.ty_mut();
                            let mut pick = types[rng.gen_range(0..types.len() - 1)];
                            if pick == *ty {
                                pick = types[types.len() - 1];
                            }
                            *ty = pick;
                            report.retyped += 1;
                        }
                    }
                }
                StreamInjector::Jitter { max_delay_s } => {
                    report.jittered += E::jitter(&mut events, max_delay_s, &mut rng);
                }
            }
        }
        Ok((events, report))
    }
}

/// The RNG of the injector at position `index` in a plan seeded with
/// `seed`. Each injector draws from its own ChaCha8 stream, so inserting
/// an injector does not perturb the randomness of those before it. This
/// is the one derivation for every fault layer (the simulator's pipeline
/// and frame-corruption plans use it too), so mirrored plans across the
/// layers stay independent per index, not per layer.
#[must_use]
pub fn injector_rng(seed: u64, index: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (index as u64).wrapping_mul(SUB_SEED_MIX))
}

/// An event representation the stream injectors can fault: untimed
/// [`EventType`]s and [`TimedEvent`]s.
trait Faultable: Copy {
    /// The event's type, for [`StreamInjector::Retype`].
    fn ty_mut(&mut self) -> &mut EventType;

    /// [`StreamInjector::Jitter`]: delays every event and restores time
    /// order; returns how many timestamps moved.
    fn jitter(events: &mut [Self], max_delay_s: f64, rng: &mut ChaCha8Rng) -> usize;
}

impl Faultable for EventType {
    fn ty_mut(&mut self) -> &mut EventType {
        self
    }

    /// Untimed traces carry no timestamps to perturb.
    fn jitter(_: &mut [Self], _: f64, _: &mut ChaCha8Rng) -> usize {
        0
    }
}

impl Faultable for TimedEvent {
    fn ty_mut(&mut self) -> &mut EventType {
        &mut self.ty
    }

    fn jitter(events: &mut [Self], max_delay_s: f64, rng: &mut ChaCha8Rng) -> usize {
        let mut moved = 0;
        for e in events.iter_mut() {
            let d = rng.gen_range(0.0..max_delay_s);
            if d > 0.0 {
                e.time += d;
                moved += 1;
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cycles, ExecutionInterval, TypeRegistry};

    fn three_type_trace(n: usize) -> Trace {
        let mut reg = TypeRegistry::new();
        let a = reg
            .register("a", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        let b = reg
            .register("b", ExecutionInterval::fixed(Cycles(5)))
            .unwrap();
        let c = reg
            .register("c", ExecutionInterval::fixed(Cycles(9)))
            .unwrap();
        let events = (0..n)
            .map(|i| match i % 3 {
                0 => a,
                1 => b,
                _ => c,
            })
            .collect();
        Trace::new(reg, events)
    }

    fn timed(trace: &Trace, period: f64) -> TimedTrace {
        let events = trace
            .events()
            .iter()
            .enumerate()
            .map(|(i, &ty)| TimedEvent {
                time: i as f64 * period,
                ty,
            })
            .collect();
        TimedTrace::new(trace.registry().clone(), events).unwrap()
    }

    fn noisy_plan(seed: u64) -> StreamFaultPlan {
        StreamFaultPlan::new(seed)
            .with(StreamInjector::Drop { per_mille: 100 })
            .with(StreamInjector::Duplicate { per_mille: 100 })
            .with(StreamInjector::Retype { per_mille: 150 })
            .with(StreamInjector::Jitter { max_delay_s: 0.25 })
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let trace = three_type_trace(500);
        let (x, rx) = noisy_plan(42).apply(&trace).unwrap();
        let (y, ry) = noisy_plan(42).apply(&trace).unwrap();
        assert_eq!(x, y);
        assert_eq!(rx, ry);
        assert!(!rx.is_clean());
    }

    #[test]
    fn different_seeds_differ() {
        let trace = three_type_trace(500);
        let (x, _) = noisy_plan(1).apply(&trace).unwrap();
        let (y, _) = noisy_plan(2).apply(&trace).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn zero_intensity_is_noop() {
        let trace = three_type_trace(64);
        let plan = StreamFaultPlan::new(9)
            .with(StreamInjector::Drop { per_mille: 0 })
            .with(StreamInjector::Duplicate { per_mille: 0 })
            .with(StreamInjector::Retype { per_mille: 0 })
            .with(StreamInjector::Jitter { max_delay_s: 0.0 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert_eq!(out, trace);
        assert!(report.is_clean());
        let tt = timed(&trace, 0.04);
        let (out, report) = plan.apply_timed(&tt).unwrap();
        assert_eq!(out, tt);
        assert!(report.is_clean());
    }

    #[test]
    fn retype_always_changes_class() {
        let trace = three_type_trace(300);
        let plan = StreamFaultPlan::new(5).with(StreamInjector::Retype { per_mille: 1000 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert_eq!(report.retyped, trace.len());
        for (orig, new) in trace.events().iter().zip(out.events()) {
            assert_ne!(orig, new);
        }
    }

    #[test]
    fn retype_on_single_type_registry_is_noop() {
        let mut reg = TypeRegistry::new();
        let only = reg
            .register("only", ExecutionInterval::fixed(Cycles(3)))
            .unwrap();
        let trace = Trace::new(reg, vec![only; 20]);
        let plan = StreamFaultPlan::new(1).with(StreamInjector::Retype { per_mille: 1000 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert_eq!(out, trace);
        assert_eq!(report.retyped, 0);
    }

    #[test]
    fn drop_everything_yields_empty_trace() {
        let trace = three_type_trace(50);
        let plan = StreamFaultPlan::new(0).with(StreamInjector::Drop { per_mille: 1000 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.dropped, 50);
    }

    #[test]
    fn duplicate_everything_doubles_the_trace() {
        let trace = three_type_trace(50);
        let plan = StreamFaultPlan::new(0).with(StreamInjector::Duplicate { per_mille: 1000 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(report.duplicated, 50);
        // Copies are adjacent to their originals.
        for pair in out.events().chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn jittered_timed_trace_stays_sorted() {
        let trace = three_type_trace(200);
        let tt = timed(&trace, 0.001); // period << max delay forces reordering
        let plan = StreamFaultPlan::new(77).with(StreamInjector::Jitter { max_delay_s: 0.5 });
        let (out, report) = plan.apply_timed(&tt).unwrap();
        assert_eq!(out.len(), tt.len());
        assert!(report.jittered > 0);
        let times = out.times();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Type multiset is preserved — jitter moves, never mutates.
        let mut a = tt.types().to_vec();
        let mut b = out.types().to_vec();
        a.sort_by_key(|t| t.index());
        b.sort_by_key(|t| t.index());
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_is_skipped_on_untimed_traces() {
        let trace = three_type_trace(40);
        let plan = StreamFaultPlan::new(3).with(StreamInjector::Jitter { max_delay_s: 1.0 });
        let (out, report) = plan.apply(&trace).unwrap();
        assert_eq!(out, trace);
        assert!(report.is_clean());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert_eq!(
            StreamInjector::Drop { per_mille: 1001 }.validate(),
            Err(EventError::InvalidParameter { name: "per_mille" })
        );
        assert_eq!(
            StreamInjector::Jitter {
                max_delay_s: f64::NAN
            }
            .validate(),
            Err(EventError::InvalidParameter { name: "max_delay_s" })
        );
        let bad = StreamFaultPlan::new(0).with(StreamInjector::Duplicate { per_mille: 2000 });
        assert!(bad.apply(&three_type_trace(5)).is_err());
    }

    #[test]
    fn injector_names_are_stable() {
        assert_eq!(StreamInjector::Drop { per_mille: 1 }.name(), "drop");
        assert_eq!(StreamInjector::Duplicate { per_mille: 1 }.name(), "dup");
        assert_eq!(StreamInjector::Retype { per_mille: 1 }.name(), "retype");
        assert_eq!(StreamInjector::Jitter { max_delay_s: 0.1 }.name(), "jitter");
    }
}
