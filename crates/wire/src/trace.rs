//! Payload codecs for traces and the high-level stream encode/decode API.
//!
//! One `.wcmt` stream carries any mix of: a name ([`KIND_META`]),
//! varint demand values ([`KIND_DEMANDS`]), delta-coded timestamps
//! ([`KIND_TIMES`]), a type registry ([`KIND_REGISTRY`]),
//! typed events ([`KIND_EVENTS`]), curve-summary blobs
//! ([`KIND_SUMMARY`]), and application frames
//! (`0x40..=0x7D`, e.g. `wcm-mpeg` clips). Data frames are chunked a few
//! thousand elements each and every chunk is self-contained (a `Times`
//! frame starts from an absolute key, not a delta into the previous
//! frame), so losing one frame under [`DecodePolicy::SkipCorrupt`] never
//! poisons the frames after it.

use crate::frame::{
    Frame, FrameReader, FrameWriter, Step, KIND_APP_BASE, KIND_DEMANDS, KIND_END, KIND_EVENTS,
    KIND_META, KIND_REGISTRY, KIND_SUMMARY, KIND_SWEEP_META, KIND_SWEEP_POINTS, KIND_TIMES,
};
use crate::sweep::{SweepPointRec, SweepShardMeta};
use crate::varint::{f64_to_key, key_to_f64, put_str, put_varint, put_zigzag, Cursor};
use crate::{summary, sweep, DecodePolicy, DecodeReport, WireError, WireErrorKind};
use wcm_events::summary::CurveSummary;
use wcm_events::{Cycles, EventType, ExecutionInterval, TimedTrace, Trace, TypeRegistry};

/// Elements per data frame. Small enough that one lost frame costs a
/// bounded slice of the trace, large enough that framing overhead
/// (10 bytes per frame) is noise.
const CHUNK: usize = 4096;

/// Incremental stream builder: push sections in any order, then
/// [`StreamEncoder::finish`] seals the stream with its end marker.
#[derive(Debug, Clone, Default)]
pub struct StreamEncoder {
    pub(crate) writer: FrameWriter,
}

impl StreamEncoder {
    /// Start a stream (writes the header).
    #[must_use]
    pub fn new() -> Self {
        Self {
            writer: FrameWriter::new(),
        }
    }

    /// Name the stream (last meta frame wins on decode).
    pub fn meta(&mut self, name: &str) {
        let mut payload = Vec::with_capacity(name.len() + 2);
        put_str(&mut payload, name);
        self.writer.push(KIND_META, &payload);
    }

    /// Append demand values (varint-packed, chunked).
    pub fn demands(&mut self, demands: &[u64]) {
        for chunk in demands.chunks(CHUNK) {
            let mut payload = Vec::with_capacity(chunk.len() * 2 + 4);
            put_varint(&mut payload, chunk.len() as u64);
            for &d in chunk {
                put_varint(&mut payload, d);
            }
            self.writer.push(KIND_DEMANDS, &payload);
        }
    }

    /// Append timestamps as zigzag deltas over the order-preserving key
    /// map — bitwise exact for every finite float.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Unencodable`] (with the offending index as the
    /// offset) if a timestamp is NaN or infinite: non-finite times are
    /// meaningless to every consumer, so they are refused at the
    /// encoding boundary rather than round-tripped.
    pub fn times(&mut self, times: &[f64]) -> Result<(), WireError> {
        if let Some(bad) = times.iter().position(|t| !t.is_finite()) {
            return Err(WireError::new(bad, WireErrorKind::Unencodable));
        }
        for chunk in times.chunks(CHUNK) {
            let mut payload = Vec::with_capacity(chunk.len() * 3 + 12);
            put_varint(&mut payload, chunk.len() as u64);
            let mut prev = f64_to_key(chunk[0]);
            put_varint(&mut payload, prev);
            for &t in &chunk[1..] {
                let key = f64_to_key(t);
                put_zigzag(&mut payload, key.wrapping_sub(prev) as i64);
                prev = key;
            }
            self.writer.push(KIND_TIMES, &payload);
        }
        Ok(())
    }

    /// Append a type registry (one frame; at most one per stream decodes).
    pub fn registry(&mut self, registry: &TypeRegistry) {
        let mut payload = Vec::new();
        put_varint(&mut payload, registry.len() as u64);
        for (_, name, interval) in registry.iter() {
            put_str(&mut payload, name);
            put_varint(&mut payload, interval.bcet().get());
            put_varint(&mut payload, interval.wcet().get());
        }
        self.writer.push(KIND_REGISTRY, &payload);
    }

    /// Append typed events as varint registry indices (chunked).
    pub fn events(&mut self, events: &[EventType]) {
        for chunk in events.chunks(CHUNK) {
            let mut payload = Vec::with_capacity(chunk.len() + 4);
            put_varint(&mut payload, chunk.len() as u64);
            for &e in chunk {
                put_varint(&mut payload, e.index() as u64);
            }
            self.writer.push(KIND_EVENTS, &payload);
        }
    }

    /// Append one mergeable curve-summary blob.
    pub fn summary(&mut self, s: &CurveSummary) {
        self.writer.push(KIND_SUMMARY, &summary::encode_payload(s));
    }

    /// Append the sweep shard metadata frame (one per shard stream; it
    /// must precede every [`StreamEncoder::sweep_points`] frame).
    pub fn sweep_meta(&mut self, meta: &SweepShardMeta) {
        self.writer
            .push(KIND_SWEEP_META, &sweep::encode_sweep_meta(meta));
    }

    /// Append sweep point records in grid-index order (chunked).
    pub fn sweep_points(&mut self, recs: &[SweepPointRec]) {
        for chunk in sweep::points_chunks(recs) {
            self.writer
                .push(KIND_SWEEP_POINTS, &sweep::encode_sweep_points(chunk));
        }
    }

    /// Append an application frame (`kind` must be in `0x40..=0x7D`).
    ///
    /// # Panics
    ///
    /// Panics on a kind outside the application range — those bytes are
    /// reserved for this crate's own codecs.
    pub fn app_frame(&mut self, kind: u8, payload: &[u8]) {
        assert!(
            (KIND_APP_BASE..KIND_END).contains(&kind),
            "application frame kind out of range"
        );
        self.writer.push(kind, payload);
    }

    /// Seal the stream and return its bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }

    /// Reopen a sealed stream to append more sections. The buffer is
    /// strictly re-validated (every CRC re-checked) and its end marker
    /// stripped, so appending to a stream is exactly as safe as writing
    /// it in one sitting — and reuses the existing bytes in place.
    ///
    /// # Errors
    ///
    /// Any strict framing error from [`FrameWriter::reopen`]: damaged,
    /// truncated, unterminated, or trailing-byte streams are refused.
    pub fn reopen(bytes: Vec<u8>) -> Result<Self, WireError> {
        Ok(Self {
            writer: FrameWriter::reopen(bytes)?,
        })
    }
}

/// Encode a named demand sequence.
#[must_use]
pub fn encode_demands(name: &str, demands: &[u64]) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    enc.meta(name);
    enc.demands(demands);
    enc.finish()
}

/// Encode a named timestamp sequence.
///
/// # Errors
///
/// [`WireErrorKind::Unencodable`] on non-finite timestamps (the offset
/// is the offending index).
pub fn encode_times(name: &str, times: &[f64]) -> Result<Vec<u8>, WireError> {
    let mut enc = StreamEncoder::new();
    enc.meta(name);
    enc.times(times)?;
    Ok(enc.finish())
}

/// Encode a typed (untimed) trace: registry + events.
#[must_use]
pub fn encode_trace(name: &str, trace: &Trace) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    enc.meta(name);
    enc.registry(trace.registry());
    enc.events(trace.events());
    enc.finish()
}

/// Encode a timed trace: registry + timestamps + events. Infallible
/// because [`TimedTrace`] already guarantees finite timestamps.
#[must_use]
pub fn encode_timed_trace(name: &str, trace: &TimedTrace) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    enc.meta(name);
    enc.registry(trace.registry());
    enc.times(&trace.times())
        .expect("TimedTrace timestamps are finite by construction");
    enc.events(&trace.events().iter().map(|e| e.ty).collect::<Vec<_>>());
    enc.finish()
}

/// Everything one stream decoded to, plus the [`DecodeReport`].
#[derive(Debug, Clone, Default)]
pub struct Decoded {
    /// Stream name from the last meta frame, if any.
    pub name: Option<String>,
    /// Concatenated demand values.
    pub demands: Vec<u64>,
    /// Concatenated timestamps (finite; the decoder rejects non-finite
    /// values the same way the encoder refuses them).
    pub times: Vec<f64>,
    /// The typed trace, present when a registry frame decoded.
    pub trace: Option<Trace>,
    /// Decoded curve summaries, in stream order.
    pub summaries: Vec<CurveSummary>,
    /// Application frames (kind, payload copy), in stream order, for
    /// application decoders layered on top (e.g. `wcm-mpeg` clips).
    pub app_frames: Vec<(u8, Vec<u8>)>,
    /// Sweep shard metadata, present when the stream is a sweep shard.
    pub sweep_meta: Option<SweepShardMeta>,
    /// Concatenated sweep point records, in grid-index order.
    pub sweep_points: Vec<SweepPointRec>,
    /// What was read and what was lost.
    pub report: DecodeReport,
}

impl Decoded {
    /// `true` when the stream carried no payload data at all (a name
    /// alone does not count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
            && self.times.is_empty()
            && self.trace.as_ref().is_none_or(|t| t.is_empty())
            && self.summaries.is_empty()
            && self.app_frames.is_empty()
            && self.sweep_meta.is_none()
            && self.sweep_points.is_empty()
    }

    /// Rebuild the timed trace when the stream carried a registry,
    /// events, and exactly one timestamp per event in sorted order.
    #[must_use]
    pub fn timed_trace(&self) -> Option<TimedTrace> {
        let trace = self.trace.as_ref()?;
        if trace.len() != self.times.len() {
            return None;
        }
        let events = self
            .times
            .iter()
            .zip(trace.events())
            .map(|(&time, &ty)| wcm_events::TimedEvent { time, ty })
            .collect();
        TimedTrace::new(trace.registry().clone(), events).ok()
    }
}

/// Accumulates decoded sections until the whole stream has been walked.
#[derive(Default)]
pub(crate) struct DecodeState {
    /// Every section that decodes straight into a [`Decoded`] field
    /// (`trace` and `report` are filled in at the end) — what
    /// [`crate::FrameDecoder::feed_with`] lends its consumer per frame.
    pub(crate) out: Decoded,
    registry: Option<TypeRegistry>,
    handles: Vec<EventType>,
    events: Vec<EventType>,
    events_decoded: u64,
}

impl DecodeState {
    /// Decode one frame's payload and commit it. All-or-nothing: a
    /// frame that fails midway leaves the state untouched (what
    /// SkipCorrupt relies on).
    /// Returns `true` for known kinds, `false` for unknown ones.
    pub(crate) fn apply(&mut self, frame: &Frame<'_>) -> Result<bool, WireError> {
        let mut c = Cursor::new(frame.payload, frame.payload_offset);
        match frame.kind {
            KIND_META => {
                let name = c.str()?.to_string();
                c.finish()?;
                self.out.name = Some(name);
            }
            KIND_DEMANDS => {
                self.events_decoded += append_or_roll_back(&mut self.out.demands, |out| {
                    decode_demands_into(&mut c, out)?;
                    c.finish()
                })?;
            }
            KIND_TIMES => {
                self.events_decoded += append_or_roll_back(&mut self.out.times, |out| {
                    decode_times_into(&mut c, out)?;
                    c.finish()
                })?;
            }
            KIND_REGISTRY => {
                if self.registry.is_some() {
                    return Err(WireError::new(
                        frame.start,
                        WireErrorKind::DuplicateRegistry,
                    ));
                }
                let n = c.count(3)?;
                let mut reg = TypeRegistry::new();
                for _ in 0..n {
                    let at = c.offset();
                    let name = c.str()?;
                    let bcet = c.varint()?;
                    let wcet = c.varint()?;
                    let interval = ExecutionInterval::new(Cycles(bcet), Cycles(wcet))
                        .map_err(|_| WireError::new(at, WireErrorKind::BadRegistry))?;
                    reg.register(name, interval)
                        .map_err(|_| WireError::new(at, WireErrorKind::BadRegistry))?;
                }
                c.finish()?;
                self.handles = reg.iter().map(|(h, _, _)| h).collect();
                self.registry = Some(reg);
            }
            KIND_EVENTS => {
                let Some(_) = self.registry.as_ref() else {
                    return Err(WireError::new(frame.start, WireErrorKind::UnknownType));
                };
                let n = c.count(1)?;
                let mut vals = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = c.offset();
                    let idx = c.varint()?;
                    let handle = usize::try_from(idx)
                        .ok()
                        .and_then(|i| self.handles.get(i))
                        .ok_or(WireError::new(at, WireErrorKind::UnknownType))?;
                    vals.push(*handle);
                }
                c.finish()?;
                self.events_decoded += vals.len() as u64;
                self.events.extend_from_slice(&vals);
            }
            KIND_SUMMARY => {
                let s = summary::decode_payload(&mut c)?;
                c.finish()?;
                self.out.summaries.push(s);
            }
            KIND_SWEEP_META => {
                if self.out.sweep_meta.is_some() {
                    return Err(WireError::new(frame.start, WireErrorKind::BadPayload));
                }
                let meta = sweep::decode_sweep_meta(&mut c, frame.start)?;
                c.finish()?;
                self.out.sweep_meta = Some(meta);
            }
            KIND_SWEEP_POINTS => {
                if self.out.sweep_meta.is_none() {
                    return Err(WireError::new(frame.start, WireErrorKind::BadPayload));
                }
                let recs = sweep::decode_sweep_points(&mut c)?;
                c.finish()?;
                self.out.sweep_points.extend_from_slice(&recs);
            }
            k if (KIND_APP_BASE..KIND_END).contains(&k) => {
                self.out.app_frames.push((k, frame.payload.to_vec()));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    pub(crate) fn events_decoded(&self) -> u64 {
        self.events_decoded
    }

    pub(crate) fn into_decoded(self, report: DecodeReport) -> Decoded {
        Decoded {
            trace: self.registry.map(|reg| Trace::new(reg, self.events)),
            report,
            ..self.out
        }
    }
}

/// Run `decode`, which appends to `out`, all-or-nothing: on an error
/// `out` is cut back to where it stood. Returns the count appended.
fn append_or_roll_back<T>(
    out: &mut Vec<T>,
    decode: impl FnOnce(&mut Vec<T>) -> Result<(), WireError>,
) -> Result<u64, WireError> {
    let at = out.len();
    match decode(out) {
        Ok(()) => Ok((out.len() - at) as u64),
        Err(e) => {
            out.truncate(at);
            Err(e)
        }
    }
}

/// Append the varint demand values of a [`KIND_DEMANDS`] payload cursor
/// to `vals` (caller runs `finish`).
fn decode_demands_into(c: &mut Cursor<'_>, vals: &mut Vec<u64>) -> Result<(), WireError> {
    let n = c.count(1)?;
    vals.reserve(n);
    for _ in 0..n {
        vals.push(c.varint()?);
    }
    Ok(())
}

/// Append the delta-coded timestamps of a [`KIND_TIMES`] payload cursor
/// to `vals` (caller runs `finish`).
fn decode_times_into(c: &mut Cursor<'_>, vals: &mut Vec<f64>) -> Result<(), WireError> {
    let n = c.count(1)?;
    vals.reserve(n);
    if n > 0 {
        let at = c.offset();
        let mut key = c.varint()?;
        let first = key_to_f64(key);
        if !first.is_finite() {
            return Err(WireError::new(at, WireErrorKind::NonFinite));
        }
        vals.push(first);
        for _ in 1..n {
            let at = c.offset();
            let delta = c.zigzag()?;
            key = key.wrapping_add(delta as u64);
            let t = key_to_f64(key);
            if !t.is_finite() {
                return Err(WireError::new(at, WireErrorKind::NonFinite));
            }
            vals.push(t);
        }
    }
    Ok(())
}

/// Decode a whole stream under `policy`.
///
/// # Errors
///
/// Under [`DecodePolicy::Strict`], the first malformed byte anywhere.
/// Under [`DecodePolicy::SkipCorrupt`], only an unusable fixed header
/// (bad magic/version/flags — there is nothing to resynchronise onto);
/// all other damage is absorbed into [`Decoded::report`].
pub fn decode(bytes: &[u8], policy: DecodePolicy) -> Result<Decoded, WireError> {
    let mut reader = FrameReader::new(bytes)?;
    let mut state = DecodeState::default();
    let mut report = DecodeReport::default();
    match policy {
        DecodePolicy::Strict => loop {
            match reader.next_strict()? {
                None => {
                    report.clean_end = true;
                    break;
                }
                Some(frame) => {
                    let known = state.apply(&frame)?;
                    report.frames_read += 1;
                    if !known {
                        report.frames_unknown += 1;
                    }
                }
            }
        },
        DecodePolicy::SkipCorrupt => loop {
            match reader.next_lenient() {
                Step::Frame(frame) => match state.apply(&frame) {
                    Ok(known) => {
                        report.frames_read += 1;
                        if !known {
                            report.frames_unknown += 1;
                        }
                    }
                    Err(_) => {
                        report.frames_skipped += 1;
                        report.bytes_lost += frame.wire_len as u64;
                    }
                },
                Step::Damage { lost } => {
                    report.frames_skipped += 1;
                    report.bytes_lost += lost as u64;
                }
                Step::End { trailing } => {
                    report.clean_end = true;
                    report.bytes_lost += trailing as u64;
                    break;
                }
                Step::Eof { lost } => {
                    report.truncated = true;
                    report.bytes_lost += lost as u64;
                    break;
                }
            }
        },
    }
    report.events_decoded = state.events_decoded;
    Ok(state.into_decoded(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_timed() -> TimedTrace {
        let mut reg = TypeRegistry::new();
        let a = reg
            .register("a", ExecutionInterval::new(Cycles(1), Cycles(3)).unwrap())
            .unwrap();
        let b = reg
            .register("b", ExecutionInterval::new(Cycles(2), Cycles(6)).unwrap())
            .unwrap();
        let events = [a, b, a, b, a]
            .iter()
            .enumerate()
            .map(|(i, &ty)| wcm_events::TimedEvent {
                time: i as f64 * 0.25,
                ty,
            })
            .collect();
        TimedTrace::new(reg, events).unwrap()
    }

    #[test]
    fn demands_round_trip() {
        let demands: Vec<u64> = (0..10_000).map(|i| i * 37 % 5000).collect();
        let bytes = encode_demands("ramp", &demands);
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert_eq!(out.demands, demands);
        assert_eq!(out.name.as_deref(), Some("ramp"));
        assert_eq!(out.report.events_decoded, 10_000);
        assert!(out.report.is_clean());
        assert!(!out.is_empty());
    }

    #[test]
    fn times_round_trip_is_bitwise() {
        let times = vec![0.0, 0.1, 0.1, 0.30000000000000004, 1e-12 + 0.5, 4000.25];
        let bytes = encode_times("t", &times).unwrap();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert_eq!(out.times.len(), times.len());
        for (a, b) in out.times.iter().zip(&times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn times_reject_non_finite_at_encode() {
        let err = encode_times("t", &[0.0, f64::NAN]).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Unencodable);
        assert_eq!(err.offset, 1);
        assert!(encode_times("t", &[f64::INFINITY]).is_err());
    }

    #[test]
    fn timed_trace_round_trip() {
        let tt = fig1_timed();
        let bytes = encode_timed_trace("fig1", &tt);
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        let back = out.timed_trace().expect("reconstructible");
        assert_eq!(back, tt);
    }

    #[test]
    fn trace_round_trip_preserves_registry() {
        let tt = fig1_timed();
        let trace = tt.to_trace();
        let bytes = encode_trace("fig1", &trace);
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert_eq!(out.trace.as_ref(), Some(&trace));
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let bytes = StreamEncoder::new().finish();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert!(out.is_empty());
        assert!(out.report.is_clean());
    }

    #[test]
    fn events_before_registry_rejected() {
        let mut enc = StreamEncoder::new();
        // Hand-roll an events frame with no registry in the stream.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 0);
        enc.writer.push(KIND_EVENTS, &payload);
        let bytes = enc.finish();
        let err = decode(&bytes, DecodePolicy::Strict).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::UnknownType);
        // Lenient mode skips the frame instead.
        let out = decode(&bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(out.report.frames_skipped, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn skip_corrupt_drops_only_damaged_chunks() {
        let demands: Vec<u64> = (0..CHUNK as u64 * 3).collect();
        let mut bytes = encode_demands("big", &demands);
        // Flip a bit inside the second demands frame's payload.
        let second_frame_payload = crate::frame::HEADER_LEN + 64;
        bytes[second_frame_payload] ^= 0x40;
        let strict = decode(&bytes, DecodePolicy::Strict);
        assert!(strict.is_err());
        let out = decode(&bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(out.report.frames_skipped, 1);
        assert!(out.report.bytes_lost > 0);
        assert!(out.report.clean_end);
        // Two of three demand chunks survive, values bit-identical.
        assert_eq!(out.demands.len(), CHUNK * 2);
        assert!(out
            .demands
            .iter()
            .all(|d| demands.contains(d)));
    }

    #[test]
    fn reopened_stream_round_trips_both_sittings() {
        let demands: Vec<u64> = (0..500).map(|i| i * 13 % 97).collect();
        let bytes = encode_demands("first sitting", &demands);
        let mut enc = StreamEncoder::reopen(bytes).unwrap();
        let times = vec![0.0, 0.125, 0.30000000000000004, 7.5];
        enc.times(&times).unwrap();
        enc.meta("second sitting");
        let bytes = enc.finish();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert!(out.report.is_clean());
        assert_eq!(out.demands, demands);
        assert_eq!(out.name.as_deref(), Some("second sitting"));
        assert_eq!(out.times.len(), times.len());
        for (a, b) in out.times.iter().zip(&times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A third sitting works too: reopen is closed under itself.
        let mut enc = StreamEncoder::reopen(bytes).unwrap();
        enc.demands(&[1, 2, 3]);
        let out = decode(&enc.finish(), DecodePolicy::Strict).unwrap();
        assert_eq!(out.demands.len(), demands.len() + 3);
    }

    #[test]
    fn reopen_refuses_damaged_stream() {
        let mut bytes = encode_demands("x", &[1, 2, 3]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        assert!(StreamEncoder::reopen(bytes).is_err());
    }

    #[test]
    fn unknown_core_kind_is_counted_not_fatal() {
        let mut enc = StreamEncoder::new();
        enc.meta("future");
        enc.writer.push(0x2A, b"from a newer writer");
        let bytes = enc.finish();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert_eq!(out.report.frames_unknown, 1);
        assert_eq!(out.report.frames_read, 2);
    }

    #[test]
    fn app_frames_surface_to_caller() {
        let mut enc = StreamEncoder::new();
        enc.app_frame(0x41, b"clip blob");
        let bytes = enc.finish();
        let out = decode(&bytes, DecodePolicy::Strict).unwrap();
        assert_eq!(out.app_frames, vec![(0x41, b"clip blob".to_vec())]);
        assert!(!out.is_empty());
    }
}
