//! Seeded frame-level corruption of encoded `.wcmt` byte streams.
//!
//! [`super::FaultPlan`] perturbs the *decoded* workload (jitter, drops,
//! demand spikes). This module attacks one layer below: the encoded wire
//! bytes themselves, exercising exactly the failure modes
//! [`wcm_wire::DecodePolicy::SkipCorrupt`] must survive —
//!
//! * [`FrameInjector::BitFlips`] — independent bit errors at a configured
//!   BER over every data frame's on-wire bytes (noisy link, bad sector);
//! * [`FrameInjector::LengthLies`] — a frame's length field is rewritten
//!   without fixing its CRC (malicious or buggy writer);
//! * [`FrameInjector::DuplicateFrames`] — a frame is re-delivered intact
//!   (retransmission bug: CRC passes, content repeats);
//! * [`FrameInjector::ReorderFrames`] — two intact frames swap places
//!   (out-of-order delivery);
//! * [`FrameInjector::Truncate`] — the tail of the stream is cut off
//!   (interrupted transfer).
//!
//! Every plan is driven by a `ChaCha8Rng` derived from
//! [`FrameCorruptionPlan::seed`] exactly like [`super::FaultPlan`]: a
//! fixed plan applied to fixed bytes produces bit-identical output and a
//! bit-identical [`FrameFaultReport`] on every run. The report is *ground
//! truth* for the decoder's own [`wcm_wire::DecodeReport`]: with the end
//! marker intact, a `SkipCorrupt` decode of the corrupted bytes must show
//! `frames_skipped == damage_runs` and `bytes_lost == damage_wire_bytes`
//! (a mismatch would need a CRC32 collision).
//!
//! Injectors compose in plan order; in-place damage (flips, lies) is
//! tracked by byte offset and re-based across structural edits
//! (duplication, reordering, truncation), and each injector only targets
//! frames that are still intact, so no frame is double-counted.

use crate::SimError;
use rand::Rng;
use wcm_events::faults::injector_rng;
use wcm_wire::frame::{FrameReader, HEADER_LEN};
use wcm_wire::WireError;

/// One composable frame-level corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameInjector {
    /// Flips each bit of every intact data frame independently with
    /// probability `ber_per_million / 1_000_000` (the paper-relevant
    /// regime is BER ≤ 1e-3, i.e. `ber_per_million ≤ 1000`).
    BitFlips {
        /// Bit-error rate in parts per million (≤ 1 000 000).
        ber_per_million: u32,
    },
    /// Rewrites the length field of `count` randomly chosen intact frames
    /// without fixing their CRCs — the lie is caught by the checksum, not
    /// by trusting the field.
    LengthLies {
        /// How many frames get a lying length field.
        count: usize,
    },
    /// Re-inserts an intact copy of `copies` randomly chosen frames
    /// immediately after the original.
    DuplicateFrames {
        /// How many duplicate insertions to perform.
        copies: usize,
    },
    /// Swaps the on-wire bytes of two randomly chosen intact frames,
    /// `swaps` times. CRCs stay valid; only the order changes.
    ReorderFrames {
        /// How many pairwise swaps to perform.
        swaps: usize,
    },
    /// Keeps the stream header plus the first `keep_pct` percent of the
    /// body, discarding the rest (including the end marker unless
    /// `keep_pct == 100`).
    Truncate {
        /// Percentage of the body to keep (≤ 100).
        keep_pct: u8,
    },
}

impl FrameInjector {
    /// Stable display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FrameInjector::BitFlips { .. } => "bit-flips",
            FrameInjector::LengthLies { .. } => "length-lies",
            FrameInjector::DuplicateFrames { .. } => "duplicate-frames",
            FrameInjector::ReorderFrames { .. } => "reorder-frames",
            FrameInjector::Truncate { .. } => "truncate",
        }
    }

    /// Checks parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] naming the injector and the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |name| SimError::InvalidInjector {
            injector: self.name(),
            name,
        };
        match *self {
            FrameInjector::BitFlips { ber_per_million } => {
                if ber_per_million > 1_000_000 {
                    return Err(bad("ber_per_million"));
                }
            }
            FrameInjector::Truncate { keep_pct } => {
                if keep_pct > 100 {
                    return Err(bad("keep_pct"));
                }
            }
            FrameInjector::LengthLies { .. }
            | FrameInjector::DuplicateFrames { .. }
            | FrameInjector::ReorderFrames { .. } => {}
        }
        Ok(())
    }
}

/// Exact ground-truth tally of what a [`FrameCorruptionPlan`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFaultReport {
    /// Intact non-end frames in the clean input.
    pub frames_seen: u64,
    /// Individual bits flipped by [`FrameInjector::BitFlips`].
    pub bits_flipped: u64,
    /// Distinct frames whose in-place bytes were altered (flips + lies).
    pub frames_damaged: u64,
    /// Maximal runs of *adjacent* damaged frames. Each run costs the
    /// lenient decoder exactly one resynchronisation, so this equals
    /// [`wcm_wire::DecodeReport::frames_skipped`] whenever the end marker
    /// survives.
    pub damage_runs: u64,
    /// Total on-wire bytes of the damaged frames — equals
    /// [`wcm_wire::DecodeReport::bytes_lost`] whenever the end marker
    /// survives.
    pub damage_wire_bytes: u64,
    /// Duplicate insertions performed.
    pub frames_duplicated: u64,
    /// Pairwise frame swaps performed.
    pub frames_reordered: u64,
    /// Length fields rewritten.
    pub length_lies: u64,
    /// Bytes removed from the tail by [`FrameInjector::Truncate`].
    pub bytes_truncated: u64,
}

/// The corrupted bytes plus their ground-truth accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameFaulted {
    /// The stream after corruption.
    pub bytes: Vec<u8>,
    /// What was done to it.
    pub report: FrameFaultReport,
}

/// A seeded, reproducible sequence of frame-level corruptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameCorruptionPlan {
    seed: u64,
    injectors: Vec<FrameInjector>,
}

/// `(start, wire_len)` of one intact frame in the current buffer.
type Extent = (usize, usize);

fn scan_intact(bytes: &[u8]) -> Result<Vec<Extent>, SimError> {
    let map_err = |e: WireError| SimError::NotAStream { offset: e.offset };
    let mut reader = FrameReader::new(bytes).map_err(map_err)?;
    let mut extents = Vec::new();
    loop {
        match reader.next_lenient() {
            wcm_wire::frame::Step::Frame(f) => extents.push((f.start, f.wire_len)),
            wcm_wire::frame::Step::Damage { .. } => {}
            wcm_wire::frame::Step::End { .. } | wcm_wire::frame::Step::Eof { .. } => break,
        }
    }
    Ok(extents)
}

impl FrameCorruptionPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            injectors: Vec::new(),
        }
    }

    /// Appends an injector (builder style).
    #[must_use]
    pub fn with(mut self, injector: FrameInjector) -> Self {
        self.injectors.push(injector);
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injectors in application order.
    #[must_use]
    pub fn injectors(&self) -> &[FrameInjector] {
        &self.injectors
    }

    /// Validates every injector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] for the first invalid one.
    pub fn validate(&self) -> Result<(), SimError> {
        self.injectors.iter().try_for_each(FrameInjector::validate)
    }

    /// Applies the plan to a *clean* encoded stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInjector`] for invalid parameters and
    /// [`SimError::NotAStream`] when `clean` does not start with a valid
    /// WCMT header (ground truth is only exact against clean input).
    pub fn apply(&self, clean: &[u8]) -> Result<FrameFaulted, SimError> {
        self.validate()?;
        let mut out = clean.to_vec();
        let mut report = FrameFaultReport {
            frames_seen: scan_intact(clean)?.len() as u64,
            ..FrameFaultReport::default()
        };
        // Damaged frames by (start, wire_len) in the *current* buffer;
        // re-based whenever a structural injector moves bytes around.
        let mut damaged: Vec<Extent> = Vec::new();

        for (i, injector) in self.injectors.iter().enumerate() {
            let mut rng = injector_rng(self.seed, i);
            match *injector {
                FrameInjector::BitFlips { ber_per_million } => {
                    let p = f64::from(ber_per_million) / 1e6;
                    for (start, wire_len) in scan_intact(&out)? {
                        let mut hit = false;
                        for slot in out.iter_mut().skip(start).take(wire_len) {
                            for bit in 0..8u8 {
                                if rng.gen_bool(p) {
                                    *slot ^= 1 << bit;
                                    report.bits_flipped += 1;
                                    hit = true;
                                }
                            }
                        }
                        if hit {
                            damaged.push((start, wire_len));
                            report.frames_damaged += 1;
                            report.damage_wire_bytes += wire_len as u64;
                        }
                    }
                }
                FrameInjector::LengthLies { count } => {
                    for _ in 0..count {
                        let intact = scan_intact(&out)?;
                        if intact.is_empty() {
                            break;
                        }
                        let (start, wire_len) = intact[rng.gen_range(0..intact.len())];
                        // XOR a nonzero mask into the length field; the CRC
                        // (which covers the field) is left stale.
                        let mask = rng.gen_range(1..=u32::from(u16::MAX));
                        let old = u32::from_le_bytes([
                            out[start + 2],
                            out[start + 3],
                            out[start + 4],
                            out[start + 5],
                        ]);
                        out[start + 2..start + 6].copy_from_slice(&(old ^ mask).to_le_bytes());
                        damaged.push((start, wire_len));
                        report.length_lies += 1;
                        report.frames_damaged += 1;
                        report.damage_wire_bytes += wire_len as u64;
                    }
                }
                FrameInjector::DuplicateFrames { copies } => {
                    for _ in 0..copies {
                        let intact = scan_intact(&out)?;
                        if intact.is_empty() {
                            break;
                        }
                        let (start, wire_len) = intact[rng.gen_range(0..intact.len())];
                        let copy = out[start..start + wire_len].to_vec();
                        let insert_at = start + wire_len;
                        out.splice(insert_at..insert_at, copy);
                        for d in &mut damaged {
                            if d.0 >= insert_at {
                                d.0 += wire_len;
                            }
                        }
                        report.frames_duplicated += 1;
                    }
                }
                FrameInjector::ReorderFrames { swaps } => {
                    for _ in 0..swaps {
                        let intact = scan_intact(&out)?;
                        if intact.len() < 2 {
                            break;
                        }
                        let a = rng.gen_range(0..intact.len());
                        let mut b = rng.gen_range(0..intact.len() - 1);
                        if b >= a {
                            b += 1;
                        }
                        let ((a_start, a_len), (b_start, b_len)) = if intact[a].0 < intact[b].0 {
                            (intact[a], intact[b])
                        } else {
                            (intact[b], intact[a])
                        };
                        let mut next = Vec::with_capacity(out.len());
                        next.extend_from_slice(&out[..a_start]);
                        next.extend_from_slice(&out[b_start..b_start + b_len]);
                        next.extend_from_slice(&out[a_start + a_len..b_start]);
                        next.extend_from_slice(&out[a_start..a_start + a_len]);
                        next.extend_from_slice(&out[b_start + b_len..]);
                        out = next;
                        // Damaged frames strictly between the pair shift by
                        // the length difference; the swapped frames
                        // themselves are intact by construction.
                        let delta = b_len as isize - a_len as isize;
                        for d in &mut damaged {
                            if d.0 > a_start && d.0 < b_start {
                                d.0 = (d.0 as isize + delta) as usize;
                            }
                        }
                        report.frames_reordered += 1;
                    }
                }
                FrameInjector::Truncate { keep_pct } => {
                    if out.len() > HEADER_LEN {
                        let body = out.len() - HEADER_LEN;
                        let new_len = HEADER_LEN + body * usize::from(keep_pct) / 100;
                        report.bytes_truncated += (out.len() - new_len) as u64;
                        out.truncate(new_len);
                        damaged.retain(|d| d.0 + d.1 <= new_len);
                    }
                }
            }
        }

        damaged.sort_unstable();
        let mut runs = 0u64;
        let mut next_adjacent = usize::MAX;
        for &(start, wire_len) in &damaged {
            if start != next_adjacent {
                runs += 1;
            }
            next_adjacent = start + wire_len;
        }
        report.damage_runs = runs;
        Ok(FrameFaulted { bytes: out, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_wire::{decode, encode_demands, DecodePolicy};

    fn sample_stream() -> Vec<u8> {
        // > CHUNK (4096) demands so the stream carries several data frames.
        let demands: Vec<u64> = (0..10_000u64).map(|i| 1_500 + i * 7).collect();
        encode_demands("corruption-target", &demands)
    }

    #[test]
    fn same_seed_same_bytes_and_report() {
        let clean = sample_stream();
        let plan = FrameCorruptionPlan::new(42)
            .with(FrameInjector::BitFlips {
                ber_per_million: 500,
            })
            .with(FrameInjector::LengthLies { count: 1 });
        let a = plan.apply(&clean).unwrap();
        let b = plan.apply(&clean).unwrap();
        assert_eq!(a, b);
        assert!(a.report.bits_flipped > 0);
        // A different seed produces different corruption.
        let c = FrameCorruptionPlan::new(43)
            .with(FrameInjector::BitFlips {
                ber_per_million: 500,
            })
            .with(FrameInjector::LengthLies { count: 1 })
            .apply(&clean)
            .unwrap();
        assert_ne!(a.bytes, c.bytes);
    }

    #[test]
    fn ground_truth_matches_decode_report_at_ber_1e3() {
        let clean = sample_stream();
        for seed in 0..20 {
            let plan = FrameCorruptionPlan::new(seed).with(FrameInjector::BitFlips {
                ber_per_million: 1000,
            });
            let faulted = plan.apply(&clean).unwrap();
            let out = decode(&faulted.bytes, DecodePolicy::SkipCorrupt).unwrap();
            assert_eq!(out.report.frames_skipped, faulted.report.damage_runs);
            assert_eq!(out.report.bytes_lost, faulted.report.damage_wire_bytes);
            assert!(out.report.clean_end, "end marker is never flipped away");
        }
    }

    #[test]
    fn surviving_demand_chunks_are_bit_identical() {
        let clean = sample_stream();
        let original = decode(&clean, DecodePolicy::Strict).unwrap();
        let plan = FrameCorruptionPlan::new(7).with(FrameInjector::BitFlips {
            ber_per_million: 800,
        });
        let faulted = plan.apply(&clean).unwrap();
        let out = decode(&faulted.bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert!(out.report.frames_skipped > 0, "seed 7 at 8e-4 damages frames");
        // Every surviving demand appears in the original at the same
        // residue: the survivors are a concatenation of whole original
        // chunks, so they form a subsequence of the original demands.
        let mut it = original.demands.iter();
        for d in &out.demands {
            assert!(it.any(|o| o == d), "decoded demand {d} not in original order");
        }
    }

    #[test]
    fn length_lies_cost_exactly_the_lied_frames() {
        let clean = sample_stream();
        let plan = FrameCorruptionPlan::new(99).with(FrameInjector::LengthLies { count: 2 });
        let faulted = plan.apply(&clean).unwrap();
        assert_eq!(faulted.report.length_lies, 2);
        let out = decode(&faulted.bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(out.report.frames_skipped, faulted.report.damage_runs);
        assert_eq!(out.report.bytes_lost, faulted.report.damage_wire_bytes);
    }

    #[test]
    fn duplication_and_reordering_keep_the_stream_decodable() {
        let clean = sample_stream();
        let plan = FrameCorruptionPlan::new(5)
            .with(FrameInjector::DuplicateFrames { copies: 2 })
            .with(FrameInjector::ReorderFrames { swaps: 2 });
        let faulted = plan.apply(&clean).unwrap();
        assert_eq!(faulted.report.frames_duplicated, 2);
        assert_eq!(faulted.report.frames_reordered, 2);
        // Every frame still passes its CRC, so even strict framing holds;
        // the decoded *content* differs (that is the point).
        let out = decode(&faulted.bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(out.report.frames_skipped, 0);
        assert!(out.demands.len() >= 10_000);
    }

    #[test]
    fn truncation_is_reported_by_the_decoder() {
        let clean = sample_stream();
        let plan = FrameCorruptionPlan::new(1).with(FrameInjector::Truncate { keep_pct: 60 });
        let faulted = plan.apply(&clean).unwrap();
        assert!(faulted.report.bytes_truncated > 0);
        let out = decode(&faulted.bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert!(out.report.truncated);
        assert!(!out.report.clean_end);
        assert!(out.demands.len() < 10_000);
    }

    #[test]
    fn invalid_parameters_and_inputs_are_rejected() {
        let err = FrameCorruptionPlan::new(0)
            .with(FrameInjector::BitFlips {
                ber_per_million: 1_000_001,
            })
            .apply(&sample_stream())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidInjector { .. }));
        let err = FrameCorruptionPlan::new(0)
            .with(FrameInjector::Truncate { keep_pct: 101 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidInjector { .. }));
        let err = FrameCorruptionPlan::new(0)
            .with(FrameInjector::LengthLies { count: 1 })
            .apply(b"not a wcmt stream")
            .unwrap_err();
        assert!(matches!(err, SimError::NotAStream { .. }));
    }
}
