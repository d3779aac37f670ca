//! Partial-sweep-result payloads: the frame kinds that let independent
//! sweep shard processes ship their slice of a design-space grid to a
//! merge coordinator.
//!
//! A shard stream carries one [`crate::frame::KIND_SWEEP_META`] frame (shard
//! coordinates, the full grid axes, and the per-clip advisories every
//! shard computes identically) followed by [`crate::frame::KIND_SWEEP_POINTS`]
//! frames holding per-point verdict records in grid-index order, chunked
//! a few thousand records each so a shard writer never buffers more than
//! one chunk. The representation is deliberately neutral — verdicts and
//! overflow policies travel as small integers whose meaning belongs to
//! `wcm-sim` — so this crate stays a pure wire layer.
//!
//! Like every other payload here, decoding is all-or-nothing per frame
//! and every count is bounded by the payload's own length before any
//! allocation happens.

use crate::varint::{put_str, put_varint, Cursor};
use crate::{WireError, WireErrorKind};

/// Records per [`crate::frame::KIND_SWEEP_POINTS`] frame.
const POINTS_CHUNK: usize = 4096;

/// Highest verdict code a point record may carry (codes are assigned by
/// `wcm-sim`: provably-safe, provably-unsafe, sim-ok, sim-overflow,
/// replay-ok). Raising it keeps every older shard stream decodable.
pub const MAX_VERDICT_CODE: u8 = 4;

/// Shard coordinates and the full grid description, carried by every
/// shard so a merge needs nothing but the shard files themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepShardMeta {
    /// This shard's index in `0..shards`.
    pub shard: u32,
    /// Total number of shards the grid was split into.
    pub shards: u32,
    /// First global grid index this shard covers.
    pub start: u64,
    /// Number of grid points this shard covers.
    pub len: u64,
    /// Total grid points across all shards.
    pub total: u64,
    /// Fingerprint of the sweep spec (axes, clips, engine knobs); shards
    /// with different fingerprints must never be merged.
    pub fingerprint: u64,
    /// Clip names, in grid axis order.
    pub clips: Vec<String>,
    /// Frequency axis (bit-preserved).
    pub frequencies_hz: Vec<f64>,
    /// Capacity axis.
    pub capacities: Vec<u64>,
    /// Overflow-policy axis as `wcm-sim` policy codes.
    pub policies: Vec<u8>,
    /// Seed axis (`None` = clean run).
    pub seeds: Vec<Option<u64>>,
    /// RMS advisory records (identical in every shard of one sweep).
    pub advisories: Vec<SweepAdvisoryRec>,
}

/// One rate-monotonic advisory row: clip axis index + frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepAdvisoryRec {
    /// Index into [`SweepShardMeta::clips`].
    pub clip: u32,
    /// PE2 frequency the advisory was evaluated at (bit-preserved).
    pub frequency_hz: f64,
    /// Whether the clip's RMS task set is schedulable at this frequency.
    pub schedulable: bool,
    /// Liu–Layland utilization factor (bit-preserved).
    pub l_factor: f64,
}

/// One evaluated grid point: a verdict code plus the simulation digest
/// when the point was simulated or its digest replayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPointRec {
    /// Verdict code in `0..=`[`MAX_VERDICT_CODE`].
    pub verdict: u8,
    /// Simulation digest, present only for simulated and replayed points.
    pub sim: Option<SweepSimRec>,
}

/// The simulation digest of one simulated (or replayed) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSimRec {
    /// Peak FIFO backlog observed.
    pub max_backlog: u64,
    /// Events dropped by the overflow policy.
    pub dropped: u64,
    /// Seconds PE1 spent stalled by backpressure (bit-preserved).
    pub pe1_stalled_s: f64,
}

/// Encode a [`crate::frame::KIND_SWEEP_META`] payload.
#[must_use]
pub fn encode_sweep_meta(meta: &SweepShardMeta) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + meta.frequencies_hz.len() * 9);
    put_varint(&mut p, u64::from(meta.shard));
    put_varint(&mut p, u64::from(meta.shards));
    put_varint(&mut p, meta.start);
    put_varint(&mut p, meta.len);
    put_varint(&mut p, meta.total);
    p.extend_from_slice(&meta.fingerprint.to_le_bytes());
    put_varint(&mut p, meta.clips.len() as u64);
    for clip in &meta.clips {
        put_str(&mut p, clip);
    }
    put_varint(&mut p, meta.frequencies_hz.len() as u64);
    for &f in &meta.frequencies_hz {
        p.extend_from_slice(&f.to_le_bytes());
    }
    put_varint(&mut p, meta.capacities.len() as u64);
    for &c in &meta.capacities {
        put_varint(&mut p, c);
    }
    put_varint(&mut p, meta.policies.len() as u64);
    p.extend_from_slice(&meta.policies);
    put_varint(&mut p, meta.seeds.len() as u64);
    for &s in &meta.seeds {
        match s {
            None => put_varint(&mut p, 0),
            Some(v) => {
                put_varint(&mut p, 1);
                put_varint(&mut p, v);
            }
        }
    }
    put_varint(&mut p, meta.advisories.len() as u64);
    for a in &meta.advisories {
        put_varint(&mut p, u64::from(a.clip));
        p.extend_from_slice(&a.frequency_hz.to_le_bytes());
        p.push(u8::from(a.schedulable));
        p.extend_from_slice(&a.l_factor.to_le_bytes());
    }
    p
}

/// Decode a [`crate::frame::KIND_SWEEP_META`] payload. `start_offset` is the
/// absolute offset used for the structural-consistency error (reported
/// when the shard coordinates contradict themselves or the axes).
///
/// # Errors
///
/// Any cursor error, or [`WireErrorKind::BadPayload`] when the shard
/// coordinates are inconsistent (`shard >= shards`, range outside the
/// grid, or an axis product that does not equal `total`).
pub fn decode_sweep_meta(c: &mut Cursor<'_>, start_offset: usize) -> Result<SweepShardMeta, WireError> {
    let bad = || WireError::new(start_offset, WireErrorKind::BadPayload);
    let shard = u32::try_from(c.varint()?).map_err(|_| bad())?;
    let shards = u32::try_from(c.varint()?).map_err(|_| bad())?;
    let start = c.varint()?;
    let len = c.varint()?;
    let total = c.varint()?;
    let fingerprint = {
        let b = c.take(8)?;
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    };
    let n_clips = c.count(1)?;
    let mut clips = Vec::with_capacity(n_clips);
    for _ in 0..n_clips {
        clips.push(c.str()?.to_string());
    }
    let n_freq = c.count(8)?;
    let mut frequencies_hz = Vec::with_capacity(n_freq);
    for _ in 0..n_freq {
        frequencies_hz.push(c.f64_le()?);
    }
    let n_cap = c.count(1)?;
    let mut capacities = Vec::with_capacity(n_cap);
    for _ in 0..n_cap {
        capacities.push(c.varint()?);
    }
    let n_pol = c.count(1)?;
    let policies = c.take(n_pol)?.to_vec();
    let n_seed = c.count(1)?;
    let mut seeds = Vec::with_capacity(n_seed);
    for _ in 0..n_seed {
        let at = c.offset();
        match c.varint()? {
            0 => seeds.push(None),
            1 => seeds.push(Some(c.varint()?)),
            _ => return Err(WireError::new(at, WireErrorKind::BadPayload)),
        }
    }
    let n_adv = c.count(14)?;
    let mut advisories = Vec::with_capacity(n_adv);
    for _ in 0..n_adv {
        let at = c.offset();
        let clip = u32::try_from(c.varint()?)
            .map_err(|_| WireError::new(at, WireErrorKind::BadPayload))?;
        let frequency_hz = c.f64_le()?;
        let schedulable = match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::new(at, WireErrorKind::BadPayload)),
        };
        let l_factor = c.f64_le()?;
        advisories.push(SweepAdvisoryRec {
            clip,
            frequency_hz,
            schedulable,
            l_factor,
        });
    }
    // Structural consistency: the shard must describe a real slice of the
    // grid its own axes span, so a merge can trust the coordinates.
    if shards == 0 || shard >= shards {
        return Err(bad());
    }
    let cells = [
        clips.len(),
        frequencies_hz.len(),
        capacities.len(),
        policies.len(),
        seeds.len(),
    ]
    .iter()
    .try_fold(1u64, |acc, &n| acc.checked_mul(n as u64))
    .ok_or_else(bad)?;
    if cells != total || start.checked_add(len).is_none_or(|end| end > total) {
        return Err(bad());
    }
    Ok(SweepShardMeta {
        shard,
        shards,
        start,
        len,
        total,
        fingerprint,
        clips,
        frequencies_hz,
        capacities,
        policies,
        seeds,
        advisories,
    })
}

/// Encode one [`crate::frame::KIND_SWEEP_POINTS`] payload for `recs` (callers
/// chunk with [`points_chunks`]).
#[must_use]
pub fn encode_sweep_points(recs: &[SweepPointRec]) -> Vec<u8> {
    let mut p = Vec::with_capacity(recs.len() * 2 + 4);
    put_varint(&mut p, recs.len() as u64);
    for rec in recs {
        debug_assert!(rec.verdict <= MAX_VERDICT_CODE);
        match rec.sim {
            None => p.push(rec.verdict),
            Some(sim) => {
                p.push(rec.verdict | 0x80);
                put_varint(&mut p, sim.max_backlog);
                put_varint(&mut p, sim.dropped);
                p.extend_from_slice(&sim.pe1_stalled_s.to_le_bytes());
            }
        }
    }
    p
}

/// Split `recs` into encode-sized chunks (the writer-side dual of the
/// chunked [`crate::frame::KIND_SWEEP_POINTS`] frames).
pub fn points_chunks(recs: &[SweepPointRec]) -> impl Iterator<Item = &[SweepPointRec]> {
    recs.chunks(POINTS_CHUNK)
}

/// Decode one [`crate::frame::KIND_SWEEP_POINTS`] payload.
///
/// # Errors
///
/// Any cursor error, or [`WireErrorKind::BadPayload`] on a verdict code
/// above [`MAX_VERDICT_CODE`].
pub fn decode_sweep_points(c: &mut Cursor<'_>) -> Result<Vec<SweepPointRec>, WireError> {
    let n = c.count(1)?;
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        let at = c.offset();
        let tag = c.u8()?;
        let verdict = tag & 0x7F;
        if verdict > MAX_VERDICT_CODE {
            return Err(WireError::new(at, WireErrorKind::BadPayload));
        }
        let sim = if tag & 0x80 != 0 {
            Some(SweepSimRec {
                max_backlog: c.varint()?,
                dropped: c.varint()?,
                pe1_stalled_s: c.f64_le()?,
            })
        } else {
            None
        };
        recs.push(SweepPointRec { verdict, sim });
    }
    Ok(recs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, DecodePolicy, StreamEncoder};

    fn sample_meta() -> SweepShardMeta {
        SweepShardMeta {
            shard: 1,
            shards: 3,
            start: 8,
            len: 8,
            total: 24,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            clips: vec!["newscast".into(), "drama".into()],
            frequencies_hz: vec![2e6, 6e6, 2e6],
            capacities: vec![4, 4000],
            policies: vec![0],
            seeds: vec![None, Some(11)],
            advisories: vec![SweepAdvisoryRec {
                clip: 0,
                frequency_hz: 6e6,
                schedulable: true,
                l_factor: 0.7435,
            }],
        }
    }

    fn sample_points() -> Vec<SweepPointRec> {
        (0..10)
            .map(|i| SweepPointRec {
                verdict: (i % u64::from(MAX_VERDICT_CODE + 1)) as u8,
                sim: (i % 3 == 0).then(|| SweepSimRec {
                    max_backlog: i * 17,
                    dropped: i,
                    pe1_stalled_s: i as f64 * 0.125,
                }),
            })
            .collect()
    }

    #[test]
    fn shard_stream_round_trips() {
        let meta = sample_meta();
        let points = sample_points();
        let mut enc = StreamEncoder::new();
        enc.sweep_meta(&meta);
        enc.sweep_points(&points);
        let bytes = enc.finish();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert!(out.report.is_clean());
        assert_eq!(out.sweep_meta.as_ref(), Some(&meta));
        assert_eq!(out.sweep_points, points);
        assert!(!out.is_empty());
        // Frequencies and stall times survive bit-for-bit.
        let back = out.sweep_meta.unwrap();
        for (a, b) in back.frequencies_hz.iter().zip(&meta.frequencies_hz) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn points_before_meta_rejected() {
        let mut enc = StreamEncoder::new();
        enc.sweep_points(&sample_points());
        let bytes = enc.finish();
        let err = decode(&bytes, DecodePolicy::Strict).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPayload);
        let out = decode(&bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(out.report.frames_skipped, 1);
        assert!(out.sweep_points.is_empty());
    }

    #[test]
    fn duplicate_meta_rejected() {
        let mut enc = StreamEncoder::new();
        enc.sweep_meta(&sample_meta());
        enc.sweep_meta(&sample_meta());
        let bytes = enc.finish();
        let err = decode(&bytes, DecodePolicy::Strict).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPayload);
    }

    #[test]
    fn inconsistent_coordinates_rejected() {
        for mutate in [
            (|m: &mut SweepShardMeta| m.shards = 0) as fn(&mut SweepShardMeta),
            |m| m.shard = m.shards,
            |m| m.total += 1,
            |m| m.start = m.total,
            |m| m.len = m.total + 1,
        ] {
            let mut meta = sample_meta();
            mutate(&mut meta);
            let mut enc = StreamEncoder::new();
            enc.sweep_meta(&meta);
            let bytes = enc.finish();
            let err = decode(&bytes, DecodePolicy::Strict).unwrap_err();
            assert_eq!(err.kind, WireErrorKind::BadPayload, "mutation accepted");
        }
    }

    #[test]
    fn verdict_code_range_enforced() {
        let mut enc = StreamEncoder::new();
        enc.sweep_meta(&sample_meta());
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.push(MAX_VERDICT_CODE + 1); // out of range, no sim digest
        enc.writer.push(crate::frame::KIND_SWEEP_POINTS, &payload);
        let bytes = enc.finish();
        let err = decode(&bytes, DecodePolicy::Strict).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadPayload);
    }

    #[test]
    fn points_chunking_splits_large_runs() {
        let recs: Vec<SweepPointRec> = (0..POINTS_CHUNK + 7)
            .map(|i| SweepPointRec {
                verdict: (i % 4) as u8,
                sim: None,
            })
            .collect();
        let mut enc = StreamEncoder::new();
        enc.sweep_meta(&SweepShardMeta {
            shard: 0,
            shards: 1,
            start: 0,
            len: recs.len() as u64,
            total: recs.len() as u64,
            fingerprint: 1,
            clips: vec!["c".into()],
            frequencies_hz: vec![1.0],
            capacities: vec![1],
            policies: vec![0],
            seeds: (0..recs.len()).map(|i| Some(i as u64)).collect(),
            advisories: Vec::new(),
        });
        enc.sweep_points(&recs);
        let out = decode(&enc.finish(), DecodePolicy::Strict).unwrap();
        assert_eq!(out.report.frames_read, 3); // meta + two point chunks
        assert_eq!(out.sweep_points, recs);
    }
}
