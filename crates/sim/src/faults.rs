//! Seeded, composable fault injection for the pipeline simulator.
//!
//! The paper's workload curves are *hard* bounds: they must hold for every
//! window of every admissible trace. This module provides the adversarial
//! side of that claim — deterministic, reproducible perturbations of the
//! CBR → PE₁ → FIFO → PE₂ pipeline that push traces outside (or to the
//! edge of) the admissible set:
//!
//! * [`Injector::JitterBurst`] — bounded extra delay on bit arrival for a
//!   window of macroblocks (transport jitter);
//! * [`Injector::DropEvents`] / [`Injector::DuplicateEvents`] — the channel
//!   loses or re-delivers macroblocks;
//! * [`Injector::DemandSpike`] — PE₂ cycle demand scaled up for a window
//!   of macroblocks, deliberately exceeding the clip profile (and hence
//!   potentially `γᵘ`);
//! * [`Injector::ClockDrift`] — a PE runs slow for a window of macroblocks
//!   (thermal throttling, DVS undershoot);
//! * [`Injector::Stall`] — a one-off PE stall of fixed duration (cache
//!   refill, bus contention burst);
//! * [`Injector::BitErrors`] — seeded corruption of the compressed channel:
//!   a corrupted macroblock's size is re-drawn and its VLD (PE₁) cost
//!   doubles (resynchronisation penalty).
//!
//! All randomness comes from a `ChaCha8Rng` per injector, derived from
//! [`FaultPlan::seed`] by [`wcm_events::faults::injector_rng`]; a fixed plan applied to a fixed clip produces a
//! bit-identical [`FaultedWorkload`] on every run. Injectors compose in
//! plan order: each transforms the stream left by the previous one.

use crate::SimError;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use wcm_events::faults::injector_rng;
use wcm_mpeg::params::FrameKind;
use wcm_mpeg::ClipWorkload;

#[path = "faults_frames.rs"]
pub mod frames;

/// Which processing element a timing fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessingElement {
    /// PE₁ (VLD + IQ).
    Pe1,
    /// PE₂ (IDCT + MC).
    Pe2,
}

/// One composable fault injector.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Injector {
    /// Adds `U[0, max_delay_s]` of seeded delay to the bit-arrival instant
    /// of each macroblock in `[start, start + len)`.
    JitterBurst {
        /// First affected stream position.
        start: usize,
        /// Number of affected macroblocks.
        len: usize,
        /// Upper jitter bound in seconds (0 disables the injector).
        max_delay_s: f64,
    },
    /// Drops each macroblock independently with probability
    /// `per_mille / 1000` (the channel loses it before PE₁).
    DropEvents {
        /// Drop probability in 1/1000 units (0 disables, ≤ 1000).
        per_mille: u16,
    },
    /// Re-delivers each macroblock independently with probability
    /// `per_mille / 1000` (the duplicate follows its original).
    DuplicateEvents {
        /// Duplication probability in 1/1000 units (0 disables, ≤ 1000).
        per_mille: u16,
    },
    /// Scales the PE₂ cycle demand of macroblocks in `[start, start + len)`
    /// by `factor_pct / 100` — above 100 this exceeds the clip profile and
    /// can push windows over `γᵘ`.
    DemandSpike {
        /// First affected stream position.
        start: usize,
        /// Number of affected macroblocks.
        len: usize,
        /// Demand multiplier in percent (100 disables).
        factor_pct: u32,
    },
    /// Stretches the service time of one PE by `factor_pct / 100` for the
    /// macroblocks in `[start, start + len)` (clock drift / throttling).
    ClockDrift {
        /// The affected processing element.
        pe: ProcessingElement,
        /// First affected stream position.
        start: usize,
        /// Number of affected macroblocks.
        len: usize,
        /// Service-time multiplier in percent (100 disables, ≥ 100).
        factor_pct: u32,
    },
    /// Adds a one-off stall of `extra_s` seconds to the service of the
    /// macroblock at stream position `at` on one PE.
    Stall {
        /// The affected processing element.
        pe: ProcessingElement,
        /// Stream position of the stalled macroblock.
        at: usize,
        /// Stall duration in seconds (0 disables).
        extra_s: f64,
    },
    /// Corrupts each macroblock of the compressed channel independently
    /// with probability `per_mille / 1000`: its bit size is re-drawn
    /// uniformly in `[1, 2·bits]` and its PE₁ cost doubles.
    BitErrors {
        /// Corruption probability in 1/1000 units (0 disables, ≤ 1000).
        per_mille: u16,
    },
}

impl Injector {
    /// A short stable name for error messages and CLI specs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Injector::JitterBurst { .. } => "jitter",
            Injector::DropEvents { .. } => "drop",
            Injector::DuplicateEvents { .. } => "dup",
            Injector::DemandSpike { .. } => "spike",
            Injector::ClockDrift { .. } => "drift",
            Injector::Stall { .. } => "stall",
            Injector::BitErrors { .. } => "biterr",
        }
    }

    /// Checks parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] naming the injector and the
    /// offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |name| SimError::InvalidInjector {
            injector: self.name(),
            name,
        };
        match *self {
            Injector::JitterBurst { max_delay_s, .. } => {
                if !(max_delay_s.is_finite() && max_delay_s >= 0.0) {
                    return Err(bad("max_delay_s"));
                }
            }
            Injector::DropEvents { per_mille } | Injector::DuplicateEvents { per_mille } => {
                if per_mille > 1000 {
                    return Err(bad("per_mille"));
                }
            }
            Injector::DemandSpike { factor_pct, .. } => {
                if factor_pct == 0 {
                    return Err(bad("factor_pct"));
                }
            }
            Injector::ClockDrift { factor_pct, .. } => {
                if factor_pct < 100 {
                    return Err(bad("factor_pct"));
                }
            }
            Injector::Stall { extra_s, .. } => {
                if !(extra_s.is_finite() && extra_s >= 0.0) {
                    return Err(bad("extra_s"));
                }
            }
            Injector::BitErrors { per_mille } => {
                if per_mille > 1000 {
                    return Err(bad("per_mille"));
                }
            }
        }
        Ok(())
    }
}

/// Counters of what a [`FaultPlan`] actually did to a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Macroblocks removed from the stream.
    pub dropped_events: usize,
    /// Macroblocks re-delivered by the channel.
    pub duplicated_events: usize,
    /// Macroblocks whose bits were corrupted.
    pub corrupted_events: usize,
    /// Macroblocks whose PE₂ demand was scaled.
    pub spiked_events: usize,
    /// Macroblocks whose bit arrival was delayed.
    pub jittered_events: usize,
    /// Macroblocks whose service was slowed or stalled.
    pub slowed_events: usize,
}

impl FaultReport {
    /// Whether the plan changed anything at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }
}

/// A seeded, ordered list of [`Injector`]s.
///
/// # Example
///
/// ```
/// use wcm_sim::faults::{FaultPlan, Injector};
///
/// let plan = FaultPlan::new(42)
///     .with(Injector::DemandSpike { start: 100, len: 50, factor_pct: 300 })
///     .with(Injector::DropEvents { per_mille: 5 });
/// assert_eq!(plan.injectors().len(), 2);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    injectors: Vec<Injector>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            injectors: Vec::new(),
        }
    }

    /// Appends an injector (applied after all earlier ones).
    #[must_use]
    pub fn with(mut self, injector: Injector) -> Self {
        self.injectors.push(injector);
        self
    }

    /// The injectors in application order.
    #[must_use]
    pub fn injectors(&self) -> &[Injector] {
        &self.injectors
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Validates every injector's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] naming the injector and the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        for inj in &self.injectors {
            inj.validate()?;
        }
        Ok(())
    }

    /// Applies the plan to a clip, producing the faulted per-macroblock
    /// stream the simulator consumes. Deterministic: the same plan on the
    /// same clip yields a bit-identical result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] for invalid parameters,
    /// [`SimError::EmptyWorkload`] for an empty clip and
    /// [`SimError::AllEventsDropped`] if drop faults empty the stream.
    pub fn apply(&self, clip: &ClipWorkload) -> Result<FaultedWorkload, SimError> {
        self.validate()?;
        self.apply_to(FaultedWorkload::clean(clip)?)
    }

    /// [`FaultPlan::apply`] on a clip's clean stream that the caller
    /// already built ([`FaultedWorkload::clean`]), so that one clean
    /// build can serve several seeds: `plan.apply_to(clean.clone())`
    /// equals `plan.apply(&clip)` bit for bit.
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::apply`], except [`SimError::EmptyWorkload`].
    pub(crate) fn apply_to(&self, mut w: FaultedWorkload) -> Result<FaultedWorkload, SimError> {
        self.validate()?;
        for (i, inj) in self.injectors.iter().enumerate() {
            // One independent, deterministic sub-stream per injector, so
            // reordering-insensitive draws do not couple injectors.
            let mut rng = injector_rng(self.seed, i);
            w.inject(inj, &mut rng);
        }
        if w.is_empty() {
            return Err(SimError::AllEventsDropped);
        }
        Ok(w)
    }
}

/// The per-macroblock stream after fault injection — what the simulator
/// actually runs. Parallel vectors, one entry per (possibly duplicated)
/// macroblock in delivery order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedWorkload {
    /// Compressed bits per macroblock (post bit-error corruption).
    pub bits: Vec<u64>,
    /// PE₁ cycle demand per macroblock.
    pub pe1_cycles: Vec<u64>,
    /// PE₂ cycle demand per macroblock (post demand spikes).
    pub pe2_cycles: Vec<u64>,
    /// Enclosing picture kind per macroblock (drop priority: B before P
    /// before I).
    pub kinds: Vec<FrameKind>,
    /// Extra seconds added to the bit-arrival instant (jitter).
    pub arrival_delay_s: Vec<f64>,
    /// PE₁ service-time multiplier (clock drift; 1.0 = nominal).
    pub pe1_scale: Vec<f64>,
    /// PE₂ service-time multiplier.
    pub pe2_scale: Vec<f64>,
    /// One-off extra PE₁ service seconds (stalls).
    pub pe1_extra_s: Vec<f64>,
    /// One-off extra PE₂ service seconds.
    pub pe2_extra_s: Vec<f64>,
    /// What was injected.
    pub report: FaultReport,
}

impl FaultedWorkload {
    /// The unfaulted stream of a clip.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyWorkload`] for a clip without macroblocks.
    pub fn clean(clip: &ClipWorkload) -> Result<Self, SimError> {
        let n = clip.macroblock_count();
        if n == 0 {
            return Err(SimError::EmptyWorkload);
        }
        // One pass, every vector at its final size: the clip's own
        // per-vector collectors cannot size a chain of frames up front.
        let (pe1, pe2) = (clip.pe1_model(), clip.pe2_model());
        let mut bits = Vec::with_capacity(n);
        let mut pe1_cycles = Vec::with_capacity(n);
        let mut pe2_cycles = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        for mb in clip.macroblocks() {
            bits.push(u64::from(mb.bits));
            pe1_cycles.push(pe1.cycles(mb).get());
            pe2_cycles.push(pe2.cycles(mb.class).get());
            kinds.push(mb.frame);
        }
        Ok(Self {
            bits,
            pe1_cycles,
            pe2_cycles,
            kinds,
            arrival_delay_s: vec![0.0; n],
            pe1_scale: vec![1.0; n],
            pe2_scale: vec![1.0; n],
            pe1_extra_s: vec![0.0; n],
            pe2_extra_s: vec![0.0; n],
            report: FaultReport::default(),
        })
    }

    /// Number of macroblocks currently in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stream is empty (only after catastrophic drop faults).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    fn inject(&mut self, inj: &Injector, rng: &mut ChaCha8Rng) {
        let n = self.len();
        match *inj {
            Injector::JitterBurst {
                start,
                len,
                max_delay_s,
            } => {
                for i in start..(start + len).min(n) {
                    let d = if max_delay_s > 0.0 {
                        rng.gen_range(0.0..max_delay_s)
                    } else {
                        0.0
                    };
                    self.arrival_delay_s[i] += d;
                    if d > 0.0 {
                        self.report.jittered_events += 1;
                    }
                }
            }
            Injector::DropEvents { per_mille } => {
                let p = f64::from(per_mille) / 1000.0;
                let keep: Vec<bool> = (0..n).map(|_| !rng.gen_bool(p)).collect();
                let dropped = keep.iter().filter(|&&k| !k).count();
                if dropped > 0 {
                    self.retain(&keep);
                    self.report.dropped_events += dropped;
                }
            }
            Injector::DuplicateEvents { per_mille } => {
                let p = f64::from(per_mille) / 1000.0;
                let dup: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
                let count = dup.iter().filter(|&&d| d).count();
                if count > 0 {
                    self.duplicate(&dup);
                    self.report.duplicated_events += count;
                }
            }
            Injector::DemandSpike {
                start,
                len,
                factor_pct,
            } => {
                for i in start..(start + len).min(n) {
                    if factor_pct != 100 {
                        let scaled =
                            (u128::from(self.pe2_cycles[i]) * u128::from(factor_pct)) / 100;
                        self.pe2_cycles[i] = u64::try_from(scaled).unwrap_or(u64::MAX);
                        self.report.spiked_events += 1;
                    }
                }
            }
            Injector::ClockDrift {
                pe,
                start,
                len,
                factor_pct,
            } => {
                let factor = f64::from(factor_pct) / 100.0;
                for i in start..(start + len).min(n) {
                    if factor_pct != 100 {
                        match pe {
                            ProcessingElement::Pe1 => self.pe1_scale[i] *= factor,
                            ProcessingElement::Pe2 => self.pe2_scale[i] *= factor,
                        }
                        self.report.slowed_events += 1;
                    }
                }
            }
            Injector::Stall { pe, at, extra_s } => {
                if at < n && extra_s > 0.0 {
                    match pe {
                        ProcessingElement::Pe1 => self.pe1_extra_s[at] += extra_s,
                        ProcessingElement::Pe2 => self.pe2_extra_s[at] += extra_s,
                    }
                    self.report.slowed_events += 1;
                }
            }
            Injector::BitErrors { per_mille } => {
                let p = f64::from(per_mille) / 1000.0;
                for i in 0..n {
                    if rng.gen_bool(p) {
                        let max = 2 * self.bits[i].max(1);
                        self.bits[i] = rng.gen_range(1..=max);
                        // VLD loses sync on a corrupted macroblock and
                        // re-scans: double the PE1 cost.
                        self.pe1_cycles[i] = self.pe1_cycles[i].saturating_mul(2);
                        self.report.corrupted_events += 1;
                    }
                }
            }
        }
    }

    /// Keeps entry `i` iff `keep[i]` across every parallel vector.
    fn retain(&mut self, keep: &[bool]) {
        let mut it = keep.iter();
        self.bits.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe1_cycles.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe2_cycles.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.kinds.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.arrival_delay_s.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe1_scale.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe2_scale.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe1_extra_s.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.pe2_extra_s.retain(|_| *it.next().unwrap_or(&true));
    }

    /// Inserts a copy of entry `i` right after it for every `dup[i]`.
    fn duplicate(&mut self, dup: &[bool]) {
        fn dup_vec<T: Copy>(v: &[T], dup: &[bool]) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + dup.iter().filter(|&&d| d).count());
            for (i, &x) in v.iter().enumerate() {
                out.push(x);
                if dup[i] {
                    out.push(x);
                }
            }
            out
        }
        self.bits = dup_vec(&self.bits, dup);
        self.pe1_cycles = dup_vec(&self.pe1_cycles, dup);
        self.pe2_cycles = dup_vec(&self.pe2_cycles, dup);
        self.kinds = dup_vec(&self.kinds, dup);
        self.arrival_delay_s = dup_vec(&self.arrival_delay_s, dup);
        self.pe1_scale = dup_vec(&self.pe1_scale, dup);
        self.pe2_scale = dup_vec(&self.pe2_scale, dup);
        self.pe1_extra_s = dup_vec(&self.pe1_extra_s, dup);
        self.pe2_extra_s = dup_vec(&self.pe2_extra_s, dup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_mpeg::demand::{Pe1Model, Pe2Model};
    use wcm_mpeg::mb::{Macroblock, MacroblockClass};
    use wcm_mpeg::params::{GopStructure, VideoParams};
    use wcm_mpeg::workload::FrameWorkload;

    fn clip(n: usize) -> ClipWorkload {
        let params =
            VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(1, 1).unwrap()).unwrap();
        let mbs: Vec<Macroblock> = (0..n)
            .map(|_| Macroblock {
                frame: FrameKind::I,
                class: MacroblockClass::Intra { coded_blocks: 2 },
                bits: 100,
            })
            .collect();
        ClipWorkload::new(
            "faulty".into(),
            params,
            Pe1Model {
                base: 0,
                cycles_per_bit: 1.0,
                iq_per_block: 0,
            },
            Pe2Model {
                base: 1000,
                idct_per_block: 0,
                mc_single: 0,
                mc_single_field: 0,
                mc_bidirectional: 0,
                mc_bidirectional_field: 0,
                skip_copy: 0,
            },
            vec![FrameWorkload::new(wcm_mpeg::FrameKind::I, mbs)],
        )
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let c = clip(200);
        let plan = FaultPlan::new(7)
            .with(Injector::DropEvents { per_mille: 50 })
            .with(Injector::DuplicateEvents { per_mille: 50 })
            .with(Injector::BitErrors { per_mille: 100 })
            .with(Injector::JitterBurst {
                start: 0,
                len: 200,
                max_delay_s: 0.001,
            });
        let a = plan.apply(&c).unwrap();
        let b = plan.apply(&c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let c = clip(500);
        let mk = |seed| {
            FaultPlan::new(seed)
                .with(Injector::DropEvents { per_mille: 100 })
                .apply(&c)
                .unwrap()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn zero_intensity_is_noop() {
        let c = clip(100);
        let clean = FaultedWorkload::clean(&c).unwrap();
        let plan = FaultPlan::new(3)
            .with(Injector::JitterBurst {
                start: 0,
                len: 100,
                max_delay_s: 0.0,
            })
            .with(Injector::DropEvents { per_mille: 0 })
            .with(Injector::DuplicateEvents { per_mille: 0 })
            .with(Injector::DemandSpike {
                start: 0,
                len: 100,
                factor_pct: 100,
            })
            .with(Injector::ClockDrift {
                pe: ProcessingElement::Pe2,
                start: 0,
                len: 100,
                factor_pct: 100,
            })
            .with(Injector::Stall {
                pe: ProcessingElement::Pe1,
                at: 5,
                extra_s: 0.0,
            })
            .with(Injector::BitErrors { per_mille: 0 });
        let faulted = plan.apply(&c).unwrap();
        assert_eq!(faulted, clean);
        assert!(faulted.report.is_clean());
    }

    #[test]
    fn spike_scales_demands() {
        let c = clip(10);
        let w = FaultPlan::new(0)
            .with(Injector::DemandSpike {
                start: 2,
                len: 3,
                factor_pct: 250,
            })
            .apply(&c)
            .unwrap();
        assert_eq!(w.pe2_cycles[1], 1000);
        assert_eq!(w.pe2_cycles[2], 2500);
        assert_eq!(w.pe2_cycles[4], 2500);
        assert_eq!(w.pe2_cycles[5], 1000);
        assert_eq!(w.report.spiked_events, 3);
    }

    #[test]
    fn drop_and_duplicate_change_length() {
        let c = clip(1000);
        let dropped = FaultPlan::new(11)
            .with(Injector::DropEvents { per_mille: 200 })
            .apply(&c)
            .unwrap();
        assert!(dropped.len() < 1000);
        assert_eq!(dropped.len(), 1000 - dropped.report.dropped_events);
        let duped = FaultPlan::new(11)
            .with(Injector::DuplicateEvents { per_mille: 200 })
            .apply(&c)
            .unwrap();
        assert!(duped.len() > 1000);
        assert_eq!(duped.len(), 1000 + duped.report.duplicated_events);
        // Parallel vectors stay aligned.
        for w in [&dropped, &duped] {
            assert_eq!(w.bits.len(), w.len());
            assert_eq!(w.pe2_cycles.len(), w.len());
            assert_eq!(w.kinds.len(), w.len());
            assert_eq!(w.arrival_delay_s.len(), w.len());
        }
    }

    #[test]
    fn bit_errors_double_pe1_cost() {
        let c = clip(400);
        let w = FaultPlan::new(5)
            .with(Injector::BitErrors { per_mille: 500 })
            .apply(&c)
            .unwrap();
        assert!(w.report.corrupted_events > 0);
        let doubled = w.pe1_cycles.iter().filter(|&&c| c == 200).count();
        assert_eq!(doubled, w.report.corrupted_events);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = [
            Injector::JitterBurst {
                start: 0,
                len: 1,
                max_delay_s: f64::NAN,
            },
            Injector::DropEvents { per_mille: 1001 },
            Injector::DemandSpike {
                start: 0,
                len: 1,
                factor_pct: 0,
            },
            Injector::ClockDrift {
                pe: ProcessingElement::Pe1,
                start: 0,
                len: 1,
                factor_pct: 50,
            },
            Injector::Stall {
                pe: ProcessingElement::Pe2,
                at: 0,
                extra_s: -1.0,
            },
        ];
        for inj in bad {
            let err = FaultPlan::new(0).with(inj).validate().unwrap_err();
            assert!(matches!(err, SimError::InvalidInjector { .. }));
        }
    }

    #[test]
    fn total_drop_is_reported() {
        let c = clip(5);
        let err = FaultPlan::new(0)
            .with(Injector::DropEvents { per_mille: 1000 })
            .apply(&c)
            .unwrap_err();
        assert_eq!(err, SimError::AllEventsDropped);
    }
}
