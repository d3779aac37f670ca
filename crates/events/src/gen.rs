//! Seeded trace generators.
//!
//! All generators take an explicit RNG (`rand::Rng`) so experiments are
//! reproducible; the crate-level convention is `ChaCha8Rng` seeded per
//! scenario.

use crate::trace::{TimedEvent, TimedTrace};
use crate::types::{EventType, TypeRegistry};
use crate::EventError;
use rand::Rng;

/// Periodic generator with optional uniform jitter and a cyclic type
/// pattern.
///
/// Event `i` nominally arrives at `i · period` displaced by `U[0, jitter]`,
/// and carries the type `pattern[i mod pattern.len()]`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use wcm_events::{gen::PeriodicGen, Cycles, ExecutionInterval, TypeRegistry};
///
/// # fn main() -> Result<(), wcm_events::EventError> {
/// let mut reg = TypeRegistry::new();
/// let i = reg.register("i", ExecutionInterval::fixed(Cycles(8)))?;
/// let p = reg.register("p", ExecutionInterval::fixed(Cycles(3)))?;
/// let gen = PeriodicGen::new(1.0, 0.1, vec![i, p, p])?;
/// let trace = gen.generate(&reg, 9, &mut ChaCha8Rng::seed_from_u64(7))?;
/// assert_eq!(trace.len(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicGen {
    period: f64,
    jitter: f64,
    pattern: Vec<EventType>,
}

impl PeriodicGen {
    /// Creates a periodic generator.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] if `period ≤ 0`, `jitter <
    /// 0`, either is non-finite, or `pattern` is empty.
    pub fn new(period: f64, jitter: f64, pattern: Vec<EventType>) -> Result<Self, EventError> {
        if !(period.is_finite() && period > 0.0) {
            return Err(EventError::InvalidParameter { name: "period" });
        }
        if !(jitter.is_finite() && jitter >= 0.0) {
            return Err(EventError::InvalidParameter { name: "jitter" });
        }
        if pattern.is_empty() {
            return Err(EventError::InvalidParameter { name: "pattern" });
        }
        Ok(Self {
            period,
            jitter,
            pattern,
        })
    }

    /// Generates `n` events.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnknownType`] if the pattern references types
    /// outside `registry`.
    pub fn generate(
        &self,
        registry: &TypeRegistry,
        n: usize,
        rng: &mut impl Rng,
    ) -> Result<TimedTrace, EventError> {
        for &t in &self.pattern {
            registry.validate(t)?;
        }
        let mut events: Vec<TimedEvent> = (0..n)
            .map(|i| {
                let jitter = if self.jitter > 0.0 {
                    rng.gen_range(0.0..self.jitter)
                } else {
                    0.0
                };
                TimedEvent {
                    time: i as f64 * self.period + jitter,
                    ty: self.pattern[i % self.pattern.len()],
                }
            })
            .collect();
        // Jitter larger than the period can reorder events.
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        TimedTrace::new(registry.clone(), events)
    }
}

/// Bursty generator: bursts of `burst_len` events separated by
/// `burst_period`, with `intra_gap` between events inside a burst.
///
/// Models e.g. the macroblock clusters that leave a variable-length decoder
/// when many small (skipped) blocks follow each other.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstGen {
    burst_period: f64,
    burst_len: usize,
    intra_gap: f64,
    ty: EventType,
}

impl BurstGen {
    /// Creates a burst generator.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] for non-positive
    /// `burst_period`, zero `burst_len`, negative `intra_gap`, or a burst
    /// that does not fit its period.
    pub fn new(
        burst_period: f64,
        burst_len: usize,
        intra_gap: f64,
        ty: EventType,
    ) -> Result<Self, EventError> {
        if !(burst_period.is_finite() && burst_period > 0.0) {
            return Err(EventError::InvalidParameter {
                name: "burst_period",
            });
        }
        if burst_len == 0 {
            return Err(EventError::InvalidParameter { name: "burst_len" });
        }
        if !(intra_gap.is_finite() && intra_gap >= 0.0) {
            return Err(EventError::InvalidParameter { name: "intra_gap" });
        }
        if (burst_len - 1) as f64 * intra_gap >= burst_period {
            return Err(EventError::InvalidParameter {
                name: "burst_period",
            });
        }
        Ok(Self {
            burst_period,
            burst_len,
            intra_gap,
            ty,
        })
    }

    /// Generates `bursts` bursts (`bursts · burst_len` events).
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnknownType`] if the type is foreign to
    /// `registry`.
    pub fn generate(
        &self,
        registry: &TypeRegistry,
        bursts: usize,
    ) -> Result<TimedTrace, EventError> {
        registry.validate(self.ty)?;
        let mut events = Vec::with_capacity(bursts * self.burst_len);
        for b in 0..bursts {
            let base = b as f64 * self.burst_period;
            for i in 0..self.burst_len {
                events.push(TimedEvent {
                    time: base + i as f64 * self.intra_gap,
                    ty: self.ty,
                });
            }
        }
        TimedTrace::new(registry.clone(), events)
    }
}

/// Markov-modulated type generator: a discrete-time Markov chain over
/// states, each emitting a fixed event type and inter-arrival time.
///
/// Captures correlated type sequences (e.g. "expensive events never follow
/// each other immediately") that make workload curves strictly tighter than
/// the WCET line.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovGen {
    /// `transitions[s]` = outgoing probabilities of state `s` (rows sum
    /// to 1).
    transitions: Vec<Vec<f64>>,
    /// Emitted event type per state.
    emissions: Vec<EventType>,
    /// Inter-arrival time after a state fires.
    gaps: Vec<f64>,
}

impl MarkovGen {
    /// Creates a Markov generator.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] if the matrix is not square
    /// over the state count, rows do not sum to ≈ 1, probabilities are
    /// negative, or gaps are negative/non-finite.
    pub fn new(
        transitions: Vec<Vec<f64>>,
        emissions: Vec<EventType>,
        gaps: Vec<f64>,
    ) -> Result<Self, EventError> {
        let n = transitions.len();
        if n == 0 || emissions.len() != n || gaps.len() != n {
            return Err(EventError::InvalidParameter { name: "states" });
        }
        for row in &transitions {
            if row.len() != n {
                return Err(EventError::InvalidParameter { name: "transitions" });
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&p| !(0.0..=1.0 + 1e-9).contains(&p)) || (sum - 1.0).abs() > 1e-6
            {
                return Err(EventError::InvalidParameter { name: "transitions" });
            }
        }
        if gaps.iter().any(|g| !(g.is_finite() && *g >= 0.0)) {
            return Err(EventError::InvalidParameter { name: "gaps" });
        }
        Ok(Self {
            transitions,
            emissions,
            gaps,
        })
    }

    /// Generates `n` events starting in state `start`.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidParameter`] if `start` is out of range,
    /// or [`EventError::UnknownType`] for foreign emission types.
    pub fn generate(
        &self,
        registry: &TypeRegistry,
        start: usize,
        n: usize,
        rng: &mut impl Rng,
    ) -> Result<TimedTrace, EventError> {
        if start >= self.transitions.len() {
            return Err(EventError::InvalidParameter { name: "start" });
        }
        for &t in &self.emissions {
            registry.validate(t)?;
        }
        let mut state = start;
        let mut time = 0.0;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(TimedEvent {
                time,
                ty: self.emissions[state],
            });
            time += self.gaps[state];
            let u: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            let mut next = self.transitions[state].len() - 1;
            for (j, &p) in self.transitions[state].iter().enumerate() {
                acc += p;
                if u < acc {
                    next = j;
                    break;
                }
            }
            state = next;
        }
        TimedTrace::new(registry.clone(), events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cycles, ExecutionInterval};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn reg2() -> (TypeRegistry, EventType, EventType) {
        let mut reg = TypeRegistry::new();
        let hi = reg
            .register("hi", ExecutionInterval::fixed(Cycles(10)))
            .unwrap();
        let lo = reg
            .register("lo", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        (reg, hi, lo)
    }

    #[test]
    fn periodic_no_jitter_is_exactly_periodic() {
        let (reg, hi, lo) = reg2();
        let g = PeriodicGen::new(2.0, 0.0, vec![hi, lo]).unwrap();
        let t = g
            .generate(&reg, 5, &mut ChaCha8Rng::seed_from_u64(1))
            .unwrap();
        let times = t.times();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(t.types()[..3], [hi, lo, hi]);
    }

    #[test]
    fn periodic_jitter_keeps_sorted_times() {
        let (reg, hi, _) = reg2();
        let g = PeriodicGen::new(1.0, 3.0, vec![hi]).unwrap();
        let t = g
            .generate(&reg, 50, &mut ChaCha8Rng::seed_from_u64(2))
            .unwrap();
        let times = t.times();
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn periodic_is_reproducible_per_seed() {
        let (reg, hi, _) = reg2();
        let g = PeriodicGen::new(1.0, 0.5, vec![hi]).unwrap();
        let a = g
            .generate(&reg, 20, &mut ChaCha8Rng::seed_from_u64(42))
            .unwrap();
        let b = g
            .generate(&reg, 20, &mut ChaCha8Rng::seed_from_u64(42))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn periodic_validates() {
        let (_, hi, _) = reg2();
        assert!(PeriodicGen::new(0.0, 0.0, vec![hi]).is_err());
        assert!(PeriodicGen::new(1.0, -1.0, vec![hi]).is_err());
        assert!(PeriodicGen::new(1.0, 0.0, vec![]).is_err());
    }

    #[test]
    fn burst_layout() {
        let (reg, hi, _) = reg2();
        let g = BurstGen::new(10.0, 3, 0.5, hi).unwrap();
        let t = g.generate(&reg, 2).unwrap();
        let times = t.times();
        assert_eq!(times, vec![0.0, 0.5, 1.0, 10.0, 10.5, 11.0]);
    }

    #[test]
    fn burst_validates_fit() {
        let (_, hi, _) = reg2();
        // 4 events with gap 3 span 9 ≥ period 8.
        assert!(BurstGen::new(8.0, 4, 3.0, hi).is_err());
        assert!(BurstGen::new(8.0, 0, 0.0, hi).is_err());
    }

    #[test]
    fn markov_alternation_forbids_double_hi() {
        let (reg, hi, lo) = reg2();
        // State 0 emits hi and must go to state 1; state 1 emits lo and may
        // loop or return.
        let g = MarkovGen::new(
            vec![vec![0.0, 1.0], vec![0.5, 0.5]],
            vec![hi, lo],
            vec![1.0, 1.0],
        )
        .unwrap();
        let t = g
            .generate(&reg, 0, 200, &mut ChaCha8Rng::seed_from_u64(3))
            .unwrap();
        for w in t.types().windows(2) {
            assert!(!(w[0] == hi && w[1] == hi), "two expensive events in a row");
        }
    }

    #[test]
    fn markov_validates_matrix() {
        let (_, hi, lo) = reg2();
        assert!(MarkovGen::new(vec![vec![0.5, 0.4]], vec![hi], vec![1.0]).is_err()); // not square
        assert!(MarkovGen::new(
            vec![vec![0.5, 0.4], vec![0.5, 0.5]],
            vec![hi, lo],
            vec![1.0, 1.0]
        )
        .is_err()); // row sum ≠ 1
        assert!(MarkovGen::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![hi, lo],
            vec![-1.0, 1.0]
        )
        .is_err()); // negative gap
    }

    #[test]
    fn markov_rejects_bad_start() {
        let (reg, hi, _) = reg2();
        let g = MarkovGen::new(vec![vec![1.0]], vec![hi], vec![1.0]).unwrap();
        assert!(g
            .generate(&reg, 5, 10, &mut ChaCha8Rng::seed_from_u64(1))
            .is_err());
    }
}
