//! `wcm-wire` — the versioned binary wire format for event traces and
//! mergeable curve summaries.
//!
//! The CSV/JSON ingestion paths parse floats token by token; a corrupt
//! file aborts an entire sweep and a million-point run pays decimal
//! parsing per event. This crate defines the compact on-disk/over-the-wire
//! contract the online-serving and multi-host-sweep work builds on:
//!
//! * **Versioned container** ([`frame`]): an 8-byte `WCMT` header (magic,
//!   version, flags) followed by length-framed records, each protected by
//!   a sync byte and a CRC32 over its header *and* payload — a lying
//!   length field cannot pass the checksum.
//! * **Compact codecs** ([`trace`], [`summary`]): varint demands,
//!   zigzag-varint *delta* timestamps over an order-preserving `f64 ↔ u64`
//!   key map (bitwise round-trip for every finite float), string-table
//!   type registries, and [`wcm_events::summary::CurveSummary`] blobs
//!   whose decoded chunks merge bit-identically to the in-memory fold.
//! * **Hostile-input hardening**: the reader is zero-copy and *never
//!   panics or over-allocates on arbitrary bytes* — every length claim is
//!   checked against the remaining buffer before a single byte of it is
//!   trusted. [`fuzz`] ships the deterministic structural fuzzer that
//!   enforces this in `cargo test` (no external fuzz engine).
//! * **Graceful degradation** ([`DecodePolicy::SkipCorrupt`]): CRC-failed
//!   frames are skipped with exact [`DecodeReport`] accounting (frames
//!   read/skipped, bytes lost), so a monitor or sweep consuming a damaged
//!   trace degrades instead of dying — every surviving frame is
//!   bit-identical to a frame of the original stream.
//!
//! # Compatibility rules
//!
//! * The header major version is bumped only when existing frame kinds
//!   change meaning; readers reject higher versions.
//! * New frame kinds may be added within a version: readers skip unknown
//!   kinds whose CRC passes (counted in [`DecodeReport::frames_unknown`]),
//!   so old readers survive new writers.
//! * Kinds `0x01..=0x3F` are reserved for this crate, `0x40..=0x7D` for
//!   application payloads (e.g. `wcm-mpeg` clip workloads), `0x7E` is the
//!   end-of-stream marker.
//!
//! # Example
//!
//! ```
//! use wcm_wire::{decode, encode_demands, DecodePolicy};
//!
//! let bytes = encode_demands("clip", &[1500, 17_750, 3_200]);
//! let out = decode(&bytes, DecodePolicy::Strict).unwrap();
//! assert_eq!(out.demands, vec![1500, 17_750, 3_200]);
//! assert_eq!(out.name.as_deref(), Some("clip"));
//! assert!(out.report.clean_end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod frame;
pub mod fuzz;
pub mod stream;
pub mod summary;
pub mod sweep;
pub mod trace;
pub mod varint;

use std::fmt;

pub use frame::{Frame, FrameReader, FrameWriter, MAGIC, MAX_FRAME_LEN, VERSION};
pub use stream::{FrameDecoder, FrameSink};
pub use sweep::{SweepAdvisoryRec, SweepPointRec, SweepShardMeta, SweepSimRec};
pub use trace::{
    decode, encode_demands, encode_timed_trace, encode_times, encode_trace, Decoded, StreamEncoder,
};

/// How the decoder treats damaged frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// The first malformed byte aborts the decode with a [`WireError`].
    #[default]
    Strict,
    /// CRC-failed or structurally invalid frames are skipped and tallied
    /// in the [`DecodeReport`]; decoding continues at the next frame that
    /// passes its checksum. Surviving frames are bit-identical to frames
    /// of the original stream (a forged frame would have to collide
    /// CRC32).
    SkipCorrupt,
}

/// Exact accounting of a decode: what was read, what was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// Frames decoded successfully (including unknown-kind frames).
    pub frames_read: u64,
    /// Frames (or unrecoverable regions) dropped under
    /// [`DecodePolicy::SkipCorrupt`].
    pub frames_skipped: u64,
    /// Valid-CRC frames of a kind this reader does not understand.
    pub frames_unknown: u64,
    /// Bytes discarded while resynchronising past damage.
    pub bytes_lost: u64,
    /// Events (demands, timestamps, typed events) decoded.
    pub events_decoded: u64,
    /// The stream ended mid-frame (or without its end marker).
    pub truncated: bool,
    /// The end-of-stream marker was the last thing read.
    pub clean_end: bool,
}

impl DecodeReport {
    /// `true` when nothing was skipped or lost and the end marker was
    /// seen — the stream decoded exactly as written.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.frames_skipped == 0 && self.bytes_lost == 0 && !self.truncated && self.clean_end
    }
}

/// A decode failure: byte offset into the input plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset (into the whole input) where the problem was detected.
    pub offset: usize,
    /// The failure class.
    pub kind: WireErrorKind,
}

impl WireError {
    /// An error of `kind` detected at absolute byte `offset`.
    #[must_use]
    pub fn new(offset: usize, kind: WireErrorKind) -> Self {
        Self { offset, kind }
    }

    /// `true` when the input simply ended too early — the distinction the
    /// CLI uses to report truncation as `file:line:byte` instead of a
    /// generic parse error.
    #[must_use]
    pub fn is_truncation(&self) -> bool {
        matches!(
            self.kind,
            WireErrorKind::Truncated | WireErrorKind::MissingEnd
        )
    }
}

/// The failure classes of [`WireError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// The input does not start with the `WCMT` magic.
    BadMagic,
    /// The header names a version this reader does not support.
    UnsupportedVersion(u16),
    /// Reserved header flag bits were set.
    BadFlags,
    /// The input ended mid-header or mid-frame.
    Truncated,
    /// The stream ended without its end-of-stream marker (truncation at
    /// an exact frame boundary).
    MissingEnd,
    /// Bytes follow the end-of-stream marker.
    TrailingBytes,
    /// A frame did not start with the sync byte.
    BadSync,
    /// A frame's CRC32 did not match its contents.
    BadCrc,
    /// A frame claimed a length larger than [`MAX_FRAME_LEN`] or than the
    /// remaining input.
    FrameTooLong,
    /// A varint ran past its container or exceeded 64 bits.
    BadVarint,
    /// An element count claims more items than the remaining bytes could
    /// hold.
    CountTooLarge,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A timestamp decoded to NaN or ±∞.
    NonFinite,
    /// A registry entry had `bcet > wcet` or a duplicate name.
    BadRegistry,
    /// A typed event referenced a type index outside the registry, or
    /// appeared before any registry frame.
    UnknownType,
    /// A second registry frame appeared in one stream.
    DuplicateRegistry,
    /// A summary blob violated its structural invariants.
    BadSummary,
    /// A frame payload had bytes left over after its last field.
    TrailingPayload,
    /// An application-range frame payload violated its schema (the frame
    /// itself passed its CRC; the layered decoder rejected the contents).
    BadPayload,
    /// A well-formed frame of a kind the consumer does not accept (for
    /// example typed events on a stream that must carry sessions only).
    UnexpectedKind(u8),
    /// The value being encoded is not representable (e.g. a non-finite
    /// timestamp).
    Unencodable,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            WireErrorKind::BadMagic => "not a WCMT stream (bad magic)".to_string(),
            WireErrorKind::UnsupportedVersion(v) => {
                format!("unsupported wire version {v} (reader supports <= {VERSION})")
            }
            WireErrorKind::BadFlags => "reserved header flags set".to_string(),
            WireErrorKind::Truncated => "unexpected end of input".to_string(),
            WireErrorKind::MissingEnd => {
                "stream ends without its end marker (truncated at a frame boundary)".to_string()
            }
            WireErrorKind::TrailingBytes => "data after end-of-stream marker".to_string(),
            WireErrorKind::BadSync => "frame does not start with the sync byte".to_string(),
            WireErrorKind::BadCrc => "frame CRC mismatch".to_string(),
            WireErrorKind::FrameTooLong => "frame length exceeds limits".to_string(),
            WireErrorKind::BadVarint => "malformed varint".to_string(),
            WireErrorKind::CountTooLarge => "count exceeds remaining bytes".to_string(),
            WireErrorKind::BadUtf8 => "invalid UTF-8 in string".to_string(),
            WireErrorKind::NonFinite => "non-finite timestamp".to_string(),
            WireErrorKind::BadRegistry => "invalid type registry entry".to_string(),
            WireErrorKind::UnknownType => "event type outside the registry".to_string(),
            WireErrorKind::DuplicateRegistry => "second registry frame in one stream".to_string(),
            WireErrorKind::BadSummary => "invalid curve-summary blob".to_string(),
            WireErrorKind::TrailingPayload => "unconsumed bytes at end of frame".to_string(),
            WireErrorKind::BadPayload => "application payload violates its schema".to_string(),
            WireErrorKind::UnexpectedKind(k) => format!("frame kind {k:#04x} not accepted here"),
            WireErrorKind::Unencodable => "value not representable on the wire".to_string(),
        };
        write!(f, "wire error at byte {}: {what}", self.offset)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_cleanliness() {
        let mut r = DecodeReport {
            clean_end: true,
            ..DecodeReport::default()
        };
        assert!(r.is_clean());
        r.frames_skipped = 1;
        assert!(!r.is_clean());
    }

    #[test]
    fn errors_name_offset_and_cause() {
        let e = WireError::new(42, WireErrorKind::BadCrc);
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("CRC"));
        assert!(!e.is_truncation());
        assert!(WireError::new(0, WireErrorKind::Truncated).is_truncation());
        assert!(WireError::new(0, WireErrorKind::MissingEnd).is_truncation());
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<WireError>();
    }
}
