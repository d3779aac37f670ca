//! Incremental stream processing: a push-based [`FrameDecoder`] that is
//! fed bytes chunk-wise (off a socket, pipe, or file tail) and a
//! [`FrameSink`] that writes sealed frames straight to an [`io::Write`]
//! without ever holding more than one frame in memory.
//!
//! ## Equivalence contract
//!
//! `FrameDecoder` is **bitwise-pinned against [`crate::decode`]**: for
//! any byte stream, feeding it in arbitrary chunks and calling
//! [`FrameDecoder::finish`] produces exactly the result `decode()`
//! produces on the whole buffer — same [`Decoded`] contents, same
//! [`DecodeReport`] accounting, same error (kind *and* offset) under
//! [`DecodePolicy::Strict`]. The subtlety is that mid-stream a
//! truncation is indistinguishable from "more bytes are coming": the
//! decoder therefore parks on any would-be `Truncated` parse until
//! either more bytes arrive or `finish()` declares the input complete.
//! Under [`DecodePolicy::SkipCorrupt`] the same rule governs
//! resynchronisation — a damage-scan candidate is only accepted once a
//! complete CRC-valid frame parses there, and a candidate that is merely
//! incomplete parks the scan rather than being skipped, because the
//! whole-buffer reader would have accepted it once complete.
//!
//! ## Memory
//!
//! Consumed bytes are compacted away eagerly, so the decoder's buffer
//! holds at most one incomplete frame (bounded by
//! [`crate::frame::MAX_FRAME_LEN`] + overhead) regardless of how much
//! has been streamed through it — reading a multi-gigabyte shard file
//! in 64 KiB chunks peaks at the largest single frame.

use std::io;

use crate::frame::{
    append_frame, parse_frame_at, validate_header, write_header, Frame, FRAME_OVERHEAD, HEADER_LEN,
    KIND_END, SYNC,
};
use crate::trace::{DecodeState, Decoded};
use crate::{DecodePolicy, DecodeReport, WireError, WireErrorKind};

/// Push-based incremental decoder; see the module docs for the
/// equivalence and memory contracts.
pub struct FrameDecoder {
    policy: DecodePolicy,
    /// Unconsumed bytes; `buf[0]` sits at absolute stream offset `base`.
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    base: usize,
    /// Absolute offset of the next byte to parse (always ≥ `base` except
    /// while a resync scan holds `base` at the scan candidate).
    pos: usize,
    /// Total bytes fed so far.
    total: usize,
    header_ok: bool,
    /// Absolute offset just past the end marker once one was accepted.
    ended: Option<usize>,
    /// Lenient resync: absolute offset of the next scan candidate.
    resync: Option<usize>,
    /// `Eof` was recorded (lenient) — nothing more will be parsed.
    exhausted: bool,
    /// Sticky strict failure: every later call reports it again.
    failed: Option<WireError>,
    state: DecodeState,
    report: DecodeReport,
}

impl FrameDecoder {
    /// A decoder for one stream under `policy`.
    #[must_use]
    pub fn new(policy: DecodePolicy) -> Self {
        Self {
            policy,
            buf: Vec::new(),
            base: 0,
            pos: 0,
            total: 0,
            header_ok: false,
            ended: None,
            resync: None,
            exhausted: false,
            failed: None,
            state: DecodeState::default(),
            report: DecodeReport::default(),
        }
    }

    /// Feed the next chunk of the stream, decoding every frame it
    /// completes. Chunk boundaries are invisible: a frame may span any
    /// number of chunks.
    ///
    /// # Errors
    ///
    /// Under [`DecodePolicy::Strict`], the first malformed byte — the
    /// identical error `decode()` reports on the whole stream. The
    /// failure is sticky. Under [`DecodePolicy::SkipCorrupt`] only an
    /// unusable fixed header fails; all other damage is absorbed into
    /// the report.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        self.feed_with(chunk, |_, _| {})
    }

    /// Like [`FrameDecoder::feed`], additionally yielding every cleanly
    /// parsed data frame (end markers excluded) to `on_frame` as it
    /// completes — the hook for consumers that act per frame instead of
    /// waiting for [`FrameDecoder::finish`].
    ///
    /// `on_frame` also gets the sections decoded so far, the frame's own
    /// payload just committed to them (its values at the end of
    /// `demands`/`times`, its name in `name`, …; `trace` and `report`
    /// stay empty until `finish`). A long-lived consumer takes what it
    /// uses out of them — `name.take()`, `v.append(&mut demands)` — so
    /// the decoder stays flat; `finish` returns only what was left there.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::feed`].
    pub fn feed_with(
        &mut self,
        chunk: &[u8],
        mut on_frame: impl FnMut(&Frame<'_>, &mut Decoded),
    ) -> Result<(), WireError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.total += chunk.len();
        if let Some(end) = self.ended {
            // After a clean end marker nothing is parsed again: strict
            // input must not continue, lenient input counts as trailing.
            if chunk.is_empty() {
                return Ok(());
            }
            match self.policy {
                DecodePolicy::Strict => return Err(self.fail(end, WireErrorKind::TrailingBytes)),
                DecodePolicy::SkipCorrupt => {
                    self.report.bytes_lost += chunk.len() as u64;
                    return Ok(());
                }
            }
        }
        if self.exhausted {
            // Only reachable at/after finish-time accounting; defensive.
            return Ok(());
        }
        self.buf.extend_from_slice(chunk);
        let out = self.pump(false, &mut on_frame);
        self.compact();
        out
    }

    /// Declare the input complete and return what decoded — the same
    /// value [`crate::decode`] returns for the concatenation of every
    /// chunk fed.
    ///
    /// # Errors
    ///
    /// Under [`DecodePolicy::Strict`], any framing error end-of-input
    /// reveals (truncation mid-frame, [`WireErrorKind::MissingEnd`]).
    /// Under [`DecodePolicy::SkipCorrupt`], only an unusable fixed
    /// header.
    pub fn finish(mut self) -> Result<Decoded, WireError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.pump(true, &mut |_, _| {})?;
        let mut report = self.report;
        report.events_decoded = self.state.events_decoded();
        Ok(self.state.into_decoded(report))
    }

    /// Whether a clean end marker has been consumed (the stream is
    /// sealed from this reader's point of view).
    #[must_use]
    pub fn ended(&self) -> bool {
        self.ended.is_some()
    }

    /// Re-arm a cleanly-ended decoder for a writer that extended the
    /// stream in place.
    ///
    /// [`crate::StreamEncoder::reopen`] (and
    /// [`crate::frame::FrameWriter::reopen`]) grow a sealed stream by
    /// *truncating its end marker* and appending where it stood, so a
    /// live tail that already consumed the marker holds a stale view:
    /// the [`FRAME_OVERHEAD`] bytes it read as the end marker are now
    /// the head of the first appended frame. Feeding the appended bytes
    /// as-is would therefore mis-frame (strict) or resync-skip
    /// (lenient) the seam. This call rewinds the decoder over the
    /// consumed marker and returns the absolute stream offset to resume
    /// reading from — re-read the underlying file/socket from that
    /// offset and keep feeding.
    ///
    /// Returns `None` (decoder untouched) unless the decoder sits
    /// exactly at a clean end with nothing consumed past it — a sticky
    /// failure, absorbed trailing bytes, or a mid-frame park have no
    /// coherent seam to rewind to.
    pub fn resume_after_end(&mut self) -> Option<usize> {
        let end = self.ended?;
        if self.failed.is_some()
            || self.exhausted
            || self.pos != end
            || self.base + self.buf.len() != end
            || self.total != end
        {
            return None;
        }
        let restart = end - FRAME_OVERHEAD;
        self.ended = None;
        self.report.clean_end = false;
        self.pos = restart;
        self.base = restart;
        self.buf.clear();
        self.total = restart;
        Some(restart)
    }

    /// Frames decoded so far (progress for long-running feeds).
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.report.frames_read
    }

    /// Bytes currently buffered waiting for the rest of a frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Record a sticky strict failure and return it.
    fn fail(&mut self, offset: usize, kind: WireErrorKind) -> WireError {
        let e = WireError::new(offset, kind);
        self.failed = Some(e.clone());
        e
    }

    /// Drop consumed bytes. During a resync scan the candidate (not
    /// `pos`) is the first byte still needed; `pos` only feeds the lost
    /// arithmetic.
    fn compact(&mut self) {
        let keep_from = self.resync.unwrap_or(self.pos).max(self.base);
        let cut = keep_from - self.base;
        if cut > 0 {
            self.buf.drain(..cut);
            self.base = keep_from;
        }
    }

    /// Parse as far as the buffered bytes allow. `at_end` means no more
    /// bytes will ever arrive, so "incomplete" becomes a real outcome
    /// instead of a reason to park.
    fn pump(
        &mut self,
        at_end: bool,
        on_frame: &mut impl FnMut(&Frame<'_>, &mut Decoded),
    ) -> Result<(), WireError> {
        if !self.header_ok {
            debug_assert_eq!(self.base, 0);
            if self.buf.len() < HEADER_LEN && !at_end {
                return Ok(());
            }
            if let Err(e) = validate_header(&self.buf) {
                self.failed = Some(e.clone());
                return Err(e);
            }
            self.header_ok = true;
            self.pos = HEADER_LEN;
        }
        if self.ended.is_some() || self.exhausted {
            return Ok(());
        }
        loop {
            if let Some(candidate) = self.resync {
                match self.scan(candidate, at_end) {
                    Scan::Park | Scan::Done => return Ok(()),
                    Scan::Resume => {}
                }
            }
            let rel = self.pos - self.base;
            if rel == self.buf.len() {
                if !at_end {
                    return Ok(());
                }
                // Input stops exactly at a frame boundary without an end
                // marker: strict calls it out, lenient records a
                // zero-loss truncation.
                return match self.policy {
                    DecodePolicy::Strict => Err(self.fail(self.pos, WireErrorKind::MissingEnd)),
                    DecodePolicy::SkipCorrupt => {
                        self.report.truncated = true;
                        self.exhausted = true;
                        Ok(())
                    }
                };
            }
            match parse_frame_at(&self.buf, rel) {
                Ok(frame) => {
                    let frame = Frame {
                        start: frame.start + self.base,
                        payload_offset: frame.payload_offset + self.base,
                        ..frame
                    };
                    self.pos += frame.wire_len;
                    if frame.kind == KIND_END {
                        self.ended = Some(self.pos);
                        self.report.clean_end = true;
                        let trailing = (self.base + self.buf.len()) - self.pos;
                        match self.policy {
                            DecodePolicy::Strict if trailing > 0 => {
                                return Err(self.fail(self.pos, WireErrorKind::TrailingBytes));
                            }
                            DecodePolicy::Strict => {}
                            DecodePolicy::SkipCorrupt => {
                                self.report.bytes_lost += trailing as u64;
                                self.pos = self.base + self.buf.len();
                            }
                        }
                        return Ok(());
                    }
                    match self.state.apply(&frame) {
                        Ok(known) => {
                            self.report.frames_read += 1;
                            if !known {
                                self.report.frames_unknown += 1;
                            }
                            on_frame(&frame, &mut self.state.out);
                        }
                        Err(e) => match self.policy {
                            DecodePolicy::Strict => {
                                self.failed = Some(e.clone());
                                return Err(e);
                            }
                            DecodePolicy::SkipCorrupt => {
                                self.report.frames_skipped += 1;
                                self.report.bytes_lost += frame.wire_len as u64;
                            }
                        },
                    }
                }
                Err(e) if e.kind == WireErrorKind::Truncated && !at_end => {
                    // Might just be an incomplete frame: park until more
                    // bytes or finish() decide.
                    return Ok(());
                }
                Err(e) => match self.policy {
                    DecodePolicy::Strict => {
                        let e = WireError::new(e.offset + self.base, e.kind);
                        self.failed = Some(e.clone());
                        return Err(e);
                    }
                    DecodePolicy::SkipCorrupt => {
                        self.resync = Some(self.pos + 1);
                    }
                },
            }
        }
    }

    /// Advance the lenient damage scan from `candidate`. Mirrors
    /// `FrameReader::next_lenient`'s resync loop, split across feeds:
    /// a candidate that parses as *incomplete* parks the scan (it may
    /// become the accepted frame), anything else moves on.
    fn scan(&mut self, mut candidate: usize, at_end: bool) -> Scan {
        loop {
            let rel = candidate - self.base;
            if rel >= self.buf.len() {
                if !at_end {
                    self.resync = Some(candidate);
                    return Scan::Park;
                }
                // No acceptable frame to the very end: Eof { lost }.
                self.report.truncated = true;
                self.report.bytes_lost += (self.total - self.pos) as u64;
                self.resync = None;
                self.exhausted = true;
                return Scan::Done;
            }
            if self.buf[rel] == SYNC {
                match parse_frame_at(&self.buf, rel) {
                    Ok(_) => {
                        self.report.frames_skipped += 1;
                        self.report.bytes_lost += (candidate - self.pos) as u64;
                        self.pos = candidate;
                        self.resync = None;
                        return Scan::Resume;
                    }
                    Err(e) if e.kind == WireErrorKind::Truncated && !at_end => {
                        self.resync = Some(candidate);
                        return Scan::Park;
                    }
                    Err(_) => {}
                }
            }
            candidate += 1;
        }
    }
}

/// Outcome of one resync-scan attempt.
enum Scan {
    /// Wait for more bytes (or finish) before deciding.
    Park,
    /// A valid frame was found; resume normal parsing at `pos`.
    Resume,
    /// The stream ended unrecoverably; accounting is done.
    Done,
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("policy", &self.policy)
            .field("buffered", &self.buf.len())
            .field("total", &self.total)
            .field("frames_read", &self.report.frames_read)
            .field("ended", &self.ended)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

/// Streaming frame writer: the push-based dual of [`FrameDecoder`].
/// Writes the header up front and one sealed frame per
/// [`FrameSink::push`] straight into `W`, so an arbitrarily long stream
/// needs only one frame of memory at a time. [`FrameSink::finish`]
/// writes the end marker; dropping the sink without finishing leaves a
/// truncated stream that strict readers refuse — which is exactly the
/// honest outcome for an interrupted producer.
#[derive(Debug)]
pub struct FrameSink<W: io::Write> {
    out: W,
    scratch: Vec<u8>,
}

impl<W: io::Write> FrameSink<W> {
    /// Start a stream on `out` (writes the 8-byte header immediately).
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn new(mut out: W) -> io::Result<Self> {
        let mut scratch = Vec::with_capacity(64);
        write_header(&mut scratch);
        out.write_all(&scratch)?;
        scratch.clear();
        Ok(Self { out, scratch })
    }

    /// Write one CRC-sealed frame.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`crate::frame::MAX_FRAME_LEN`], like
    /// [`crate::frame::FrameWriter::push`].
    pub fn push(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        self.scratch.clear();
        append_frame(&mut self.scratch, kind, payload);
        self.out.write_all(&self.scratch)
    }

    /// Seal the stream with its end marker, flush, and return `out`.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn finish(mut self) -> io::Result<W> {
        self.push(KIND_END, &[])?;
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameWriter, KIND_DEMANDS, KIND_TIMES};
    use crate::{decode, DecodePolicy, StreamEncoder};

    /// Feed `bytes` to a fresh decoder in the given chunk lengths
    /// (remainder as one final chunk) and finish.
    fn run_chunked(
        bytes: &[u8],
        policy: DecodePolicy,
        chunks: &[usize],
    ) -> Result<Decoded, WireError> {
        let mut dec = FrameDecoder::new(policy);
        let mut rest = bytes;
        for &n in chunks {
            let n = n.min(rest.len());
            let (head, tail) = rest.split_at(n);
            dec.feed(head)?;
            rest = tail;
        }
        dec.feed(rest)?;
        dec.finish()
    }

    fn assert_same(a: &Result<Decoded, WireError>, b: &Result<Decoded, WireError>, ctx: &str) {
        match (a, b) {
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}: errors differ"),
            (Ok(da), Ok(db)) => {
                assert_eq!(da.name, db.name, "{ctx}: name");
                assert_eq!(da.demands, db.demands, "{ctx}: demands");
                let ta: Vec<u64> = da.times.iter().map(|t| t.to_bits()).collect();
                let tb: Vec<u64> = db.times.iter().map(|t| t.to_bits()).collect();
                assert_eq!(ta, tb, "{ctx}: times");
                assert_eq!(da.trace, db.trace, "{ctx}: trace");
                assert_eq!(da.summaries, db.summaries, "{ctx}: summaries");
                assert_eq!(da.app_frames, db.app_frames, "{ctx}: app frames");
                assert_eq!(da.sweep_meta, db.sweep_meta, "{ctx}: sweep meta");
                assert_eq!(da.sweep_points, db.sweep_points, "{ctx}: sweep points");
                assert_eq!(da.report, db.report, "{ctx}: report");
            }
            (a, b) => panic!("{ctx}: outcomes diverge: {a:?} vs {b:?}"),
        }
    }

    fn sample_stream() -> Vec<u8> {
        let mut enc = StreamEncoder::new();
        enc.meta("incremental");
        enc.demands(&(0..5000u64).map(|i| i * 7 % 997).collect::<Vec<_>>());
        enc.times(&(0..300).map(|i| i as f64 * 0.04).collect::<Vec<_>>())
            .unwrap();
        enc.app_frame(0x41, b"opaque");
        enc.finish()
    }

    #[test]
    fn byte_at_a_time_matches_whole_buffer() {
        let bytes = sample_stream();
        for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
            let whole = decode(&bytes, policy);
            let ones = vec![1; bytes.len()];
            assert_same(&run_chunked(&bytes, policy, &ones), &whole, "1-byte chunks");
            assert_same(&run_chunked(&bytes, policy, &[]), &whole, "single chunk");
            assert_same(
                &run_chunked(&bytes, policy, &[3, 17, 64, 1000]),
                &whole,
                "mixed chunks",
            );
        }
    }

    #[test]
    fn truncated_stream_matches_whole_buffer() {
        let bytes = sample_stream();
        for cut in [0, 3, 7, 8, 9, 20, bytes.len() - 5, bytes.len() - 1] {
            let cut_bytes = &bytes[..cut];
            for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
                let whole = decode(cut_bytes, policy);
                assert_same(
                    &run_chunked(cut_bytes, policy, &[5, 5, 5]),
                    &whole,
                    &format!("cut at {cut}"),
                );
            }
        }
    }

    #[test]
    fn damage_resync_across_chunk_boundaries() {
        let mut bytes = sample_stream();
        // Stomp a byte inside the second frame so the lenient reader
        // must resync — then feed in tiny chunks so the scan itself
        // crosses feed boundaries.
        bytes[HEADER_LEN + 30] ^= 0xFF;
        let whole = decode(&bytes, DecodePolicy::SkipCorrupt);
        let ones = vec![1; bytes.len()];
        assert_same(
            &run_chunked(&bytes, DecodePolicy::SkipCorrupt, &ones),
            &whole,
            "damaged, 1-byte chunks",
        );
        let strict_whole = decode(&bytes, DecodePolicy::Strict);
        assert_same(
            &run_chunked(&bytes, DecodePolicy::Strict, &ones),
            &strict_whole,
            "damaged, strict",
        );
    }

    #[test]
    fn trailing_bytes_after_end_marker() {
        let mut bytes = sample_stream();
        bytes.extend_from_slice(b"junk after the end");
        for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
            let whole = decode(&bytes, policy);
            assert_same(
                &run_chunked(&bytes, policy, &[50, 50, 50]),
                &whole,
                "trailing bytes",
            );
        }
        // Trailing bytes that arrive in a *later* feed, after the end
        // marker already closed the stream cleanly.
        let clean = sample_stream();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        dec.feed(&clean).unwrap();
        let err = dec.feed(b"late").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::TrailingBytes);
        assert_eq!(err.offset, clean.len());
        let mut dec = FrameDecoder::new(DecodePolicy::SkipCorrupt);
        dec.feed(&clean).unwrap();
        dec.feed(b"late").unwrap();
        let out = dec.finish().unwrap();
        assert_eq!(out.report.bytes_lost, 4);
        assert!(out.report.clean_end);
    }

    #[test]
    fn header_errors_surface_once_decidable() {
        // A bad magic can only be judged once 8 bytes exist.
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        dec.feed(b"NOP").unwrap();
        let err = dec.feed(b"E\x01\x00\x00\x00").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadMagic);
        // A short header fails only at finish, like decode() on the
        // same bytes.
        let mut dec = FrameDecoder::new(DecodePolicy::SkipCorrupt);
        dec.feed(b"WCM").unwrap();
        let err = dec.finish().unwrap_err();
        assert_eq!(err, WireError::new(3, WireErrorKind::Truncated));
    }

    #[test]
    fn strict_failure_is_sticky() {
        let mut bytes = sample_stream();
        bytes[HEADER_LEN + 2] ^= 0x01; // corrupt first frame's length
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        let first = dec.feed(&bytes).unwrap_err();
        assert_eq!(dec.feed(b"more").unwrap_err(), first);
        assert_eq!(dec.finish().unwrap_err(), first);
    }

    #[test]
    fn buffer_stays_bounded_by_one_frame() {
        let mut enc = StreamEncoder::new();
        for _ in 0..64 {
            enc.demands(&(0..4096u64).collect::<Vec<_>>());
        }
        let bytes = enc.finish();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        let mut max_buffered = 0;
        for chunk in bytes.chunks(512) {
            dec.feed(chunk).unwrap();
            max_buffered = max_buffered.max(dec.buffered());
        }
        let out = dec.finish().unwrap();
        assert!(out.report.is_clean());
        // One demands frame is a few KiB; the whole stream is hundreds.
        assert!(
            max_buffered < 16 * 1024,
            "buffered {max_buffered} bytes — compaction broke"
        );
        assert!(bytes.len() > 20 * max_buffered);
    }

    #[test]
    fn feed_with_yields_each_data_frame() {
        let bytes = sample_stream();
        let mut kinds = Vec::new();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        for chunk in bytes.chunks(7) {
            dec.feed_with(chunk, |f, _| kinds.push(f.kind)).unwrap();
        }
        let out = dec.finish().unwrap();
        assert_eq!(kinds.len() as u64, out.report.frames_read);
        assert!(kinds.contains(&KIND_DEMANDS) && kinds.contains(&KIND_TIMES));
        assert!(!kinds.contains(&crate::frame::KIND_END));
    }

    #[test]
    fn feed_with_consumer_drains_what_it_takes() {
        let bytes = sample_stream();
        let whole = decode(&bytes, DecodePolicy::Strict).unwrap();
        let mut demands = Vec::new();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        for chunk in bytes.chunks(64) {
            dec.feed_with(chunk, |f, d| {
                if f.kind == KIND_DEMANDS {
                    demands.append(&mut d.demands);
                }
            })
            .unwrap();
        }
        assert_eq!(demands, whole.demands);
        let rest = dec.finish().unwrap();
        assert!(rest.demands.is_empty(), "taken sections are gone");
        assert_eq!(rest.times, whole.times, "untouched sections remain");
        assert_eq!(rest.report, whole.report);
    }

    #[test]
    fn frame_sink_matches_frame_writer_bytes() {
        let mut w = FrameWriter::new();
        w.push(KIND_DEMANDS, b"abc");
        w.push(0x41, b"app payload");
        let expected = w.finish();

        let mut sink = FrameSink::new(Vec::new()).unwrap();
        sink.push(KIND_DEMANDS, b"abc").unwrap();
        sink.push(0x41, b"app payload").unwrap();
        let got = sink.finish().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn live_tail_parks_on_partial_frames_and_resumes_across_reopens() {
        // Writer/reader interleaving on one growing stream. The writer
        // seals, reopens in place (truncate end marker + append + seal
        // again), three sittings total; the reader tails the bytes with
        // arbitrary chunk cuts. Contract under test:
        //   * catching up to a partial frame at EOF parks the decoder
        //     (no error, no `truncated` report) until more bytes land;
        //   * after the reader consumed a clean end marker,
        //     `resume_after_end` rewinds over the marker the writer
        //     truncated away, and tailing continues cleanly;
        //   * the finished decode is identical to `decode()` over the
        //     final file for both policies.
        for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
            let mut dec = FrameDecoder::new(policy);
            assert_eq!(dec.resume_after_end(), None, "nothing to resume yet");

            // Sitting 1: seal a short stream; reader tails byte-wise.
            let mut enc = StreamEncoder::new();
            enc.meta("live");
            enc.demands(&[5, 3, 8, 1]);
            let mut file = enc.finish();
            for b in file.iter() {
                dec.feed(std::slice::from_ref(b)).unwrap();
            }
            assert!(dec.ended(), "reader consumed the end marker");
            let frames_after_first = dec.frames_read();

            // Sitting 2: writer reopens and appends. The reader's view
            // is stale by exactly the truncated end marker.
            let old_len = file.len();
            let mut enc = StreamEncoder::reopen(file).unwrap();
            enc.demands(&[7, 7, 2]);
            enc.times(&[0.0, 0.5, 1.25]).unwrap();
            file = enc.finish();
            let seam = dec.resume_after_end().unwrap();
            assert_eq!(seam, old_len - crate::frame::FRAME_OVERHEAD);
            assert!(!dec.ended());
            // Feed a cut that strands a partial frame at EOF: the
            // decoder must park, not fail or report truncation.
            let cut = seam + (file.len() - seam) / 2;
            dec.feed(&file[seam..cut]).unwrap();
            assert!(!dec.ended(), "mid-frame tail must park");
            dec.feed(&file[cut..]).unwrap();
            assert!(dec.ended());
            assert!(dec.frames_read() > frames_after_first);

            // Sitting 3: once more, appended bytes arriving one at a
            // time — every prefix is a partial frame the reader parks on.
            let old_len = file.len();
            let mut enc = StreamEncoder::reopen(file).unwrap();
            enc.demands(&[9, 9]);
            file = enc.finish();
            let seam = dec.resume_after_end().unwrap();
            assert_eq!(seam, old_len - crate::frame::FRAME_OVERHEAD);
            for b in file[seam..].iter() {
                dec.feed(std::slice::from_ref(b)).unwrap();
            }
            assert!(dec.ended());

            // A decoder that consumed trailing garbage (lenient) or sits
            // mid-frame has no coherent seam; clean end is required.
            let got = dec.finish().unwrap();
            let whole = decode(&file, policy).unwrap();
            assert_same(&Ok(got), &Ok(whole), "tailed == whole-buffer");
        }
    }

    #[test]
    fn resume_after_end_refuses_incoherent_states() {
        let clean = sample_stream();
        // Lenient decoder that absorbed trailing bytes after the end:
        // those bytes were already accounted lost, the seam is gone.
        let mut dec = FrameDecoder::new(DecodePolicy::SkipCorrupt);
        dec.feed(&clean).unwrap();
        dec.feed(b"junk").unwrap();
        assert_eq!(dec.resume_after_end(), None);
        // Strict decoder with a sticky failure stays failed.
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        dec.feed(&clean).unwrap();
        let err = dec.feed(b"junk").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::TrailingBytes);
        assert_eq!(dec.resume_after_end(), None);
        // Mid-frame park: nothing ended, nothing to resume.
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        dec.feed(&clean[..clean.len() / 2]).unwrap();
        assert_eq!(dec.resume_after_end(), None);
    }

    #[test]
    fn empty_input_matches_decode() {
        for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
            let whole = decode(&[], policy);
            let inc = FrameDecoder::new(policy).finish();
            assert_same(&inc, &whole, "empty input");
        }
    }

    #[test]
    fn sweep_shard_streams_decode_incrementally() {
        let bytes = {
            let mut enc = StreamEncoder::new();
            enc.sweep_meta(&crate::sweep::SweepShardMeta {
                shard: 0,
                shards: 1,
                start: 0,
                len: 4,
                total: 4,
                fingerprint: 42,
                clips: vec!["c".into()],
                frequencies_hz: vec![1.0, 2.0],
                capacities: vec![8, 16],
                policies: vec![0],
                seeds: vec![None],
                advisories: Vec::new(),
            });
            enc.sweep_points(&[
                crate::sweep::SweepPointRec { verdict: 0, sim: None },
                crate::sweep::SweepPointRec { verdict: 3, sim: None },
                crate::sweep::SweepPointRec { verdict: 1, sim: None },
                crate::sweep::SweepPointRec { verdict: 2, sim: None },
            ]);
            enc.finish()
        };
        for policy in [DecodePolicy::Strict, DecodePolicy::SkipCorrupt] {
            let whole = decode(&bytes, policy);
            assert_same(&run_chunked(&bytes, policy, &[9, 9, 9]), &whole, "shard");
        }
    }
}
