//! `.wcmt` codec for clip workloads, layered on `wcm-wire` application
//! frames.
//!
//! A clip occupies one `KIND_CLIP_META` frame (name, video parameters,
//! both cost models, declared picture count) followed by one
//! `KIND_CLIP_FRAME` frame per picture. Per-picture framing means a
//! corrupt frame under [`DecodePolicy::SkipCorrupt`] costs exactly that
//! picture's macroblocks; the rest of the clip decodes, and the
//! [`DecodeReport`] says how much is missing. Several clips can share
//! one stream back to back — `wcm sweep --clips` accepts such files in
//! place of synthesizer profile names.
//!
//! All parameter floats (fps, bitrate, PE₁ cycles-per-bit) travel as
//! canonical little-endian `f64` bits, so decoded models price
//! macroblocks bit-identically to the originals.

use crate::demand::{Pe1Model, Pe2Model};
use crate::mb::{Macroblock, MacroblockClass, MotionKind};
use crate::params::{FrameKind, GopStructure, VideoParams};
use crate::workload::{ClipWorkload, FrameWorkload};
use wcm_wire::varint::{put_str, put_varint, Cursor};
use wcm_wire::{decode, DecodePolicy, DecodeReport, StreamEncoder, WireError, WireErrorKind};

/// Application frame kind: clip header (name, params, models, picture
/// count).
pub const KIND_CLIP_META: u8 = 0x40;

/// Application frame kind: one picture's macroblocks.
pub const KIND_CLIP_FRAME: u8 = 0x41;

fn frame_kind_code(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::I => 0,
        FrameKind::P => 1,
        FrameKind::B => 2,
    }
}

fn frame_kind_from(code: u8) -> Option<FrameKind> {
    match code {
        0 => Some(FrameKind::I),
        1 => Some(FrameKind::P),
        2 => Some(FrameKind::B),
        _ => None,
    }
}

/// One packed byte per macroblock class: bits 0–2 the class/motion code,
/// bits 4–5 the enclosing picture kind stored on the macroblock.
fn class_code(class: MacroblockClass) -> u8 {
    match class {
        MacroblockClass::Skipped => 0,
        MacroblockClass::Intra { .. } => 1,
        MacroblockClass::Inter { motion, .. } => match motion {
            MotionKind::None => 2,
            MotionKind::Single => 3,
            MotionKind::SingleField => 4,
            MotionKind::Bidirectional => 5,
            MotionKind::BidirectionalField => 6,
        },
    }
}

fn bad(at: usize) -> WireError {
    WireError::new(at, WireErrorKind::BadPayload)
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append one clip (meta frame + per-picture frames) to a stream.
pub fn append_clip(enc: &mut StreamEncoder, clip: &ClipWorkload) {
    let mut meta = Vec::new();
    put_str(&mut meta, clip.name());
    let p = clip.params();
    put_varint(&mut meta, p.width() as u64);
    put_varint(&mut meta, p.height() as u64);
    put_f64(&mut meta, p.fps());
    put_f64(&mut meta, p.bitrate_bps());
    put_varint(&mut meta, p.gop().frames_per_gop() as u64);
    put_varint(&mut meta, p.gop().reference_spacing() as u64);
    let pe1 = clip.pe1_model();
    put_varint(&mut meta, pe1.base);
    put_f64(&mut meta, pe1.cycles_per_bit);
    put_varint(&mut meta, pe1.iq_per_block);
    let pe2 = clip.pe2_model();
    for v in [
        pe2.base,
        pe2.idct_per_block,
        pe2.mc_single,
        pe2.mc_single_field,
        pe2.mc_bidirectional,
        pe2.mc_bidirectional_field,
        pe2.skip_copy,
    ] {
        put_varint(&mut meta, v);
    }
    put_varint(&mut meta, clip.frames().len() as u64);
    enc.app_frame(KIND_CLIP_META, &meta);

    for frame in clip.frames() {
        let mbs = frame.macroblocks();
        let mut payload = Vec::with_capacity(4 + mbs.len() * 3);
        payload.push(frame_kind_code(frame.kind()));
        put_varint(&mut payload, mbs.len() as u64);
        for mb in mbs {
            payload.push(class_code(mb.class) | (frame_kind_code(mb.frame) << 4));
            if !matches!(mb.class, MacroblockClass::Skipped) {
                payload.push(mb.class.coded_blocks());
            }
            put_varint(&mut payload, u64::from(mb.bits));
        }
        enc.app_frame(KIND_CLIP_FRAME, &payload);
    }
}

/// Encode one clip as a complete `.wcmt` stream.
#[must_use]
pub fn encode_clip(clip: &ClipWorkload) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    append_clip(&mut enc, clip);
    enc.finish()
}

fn decode_meta(payload: &[u8]) -> Result<(ClipWorkload, usize), WireError> {
    let mut c = Cursor::new(payload, 0);
    let name = c.str()?.to_string();
    let at = c.offset();
    let width = usize::try_from(c.varint()?).map_err(|_| bad(at))?;
    let height = usize::try_from(c.varint()?).map_err(|_| bad(at))?;
    let fps = c.f64_le()?;
    let bitrate = c.f64_le()?;
    let at = c.offset();
    let gop_n = usize::try_from(c.varint()?).map_err(|_| bad(at))?;
    let gop_m = usize::try_from(c.varint()?).map_err(|_| bad(at))?;
    let gop = GopStructure::new(gop_n, gop_m).map_err(|_| bad(at))?;
    let params = VideoParams::new(width, height, fps, bitrate, gop).map_err(|_| bad(at))?;
    let pe1 = Pe1Model {
        base: c.varint()?,
        cycles_per_bit: c.f64_le()?,
        iq_per_block: c.varint()?,
    };
    if !pe1.cycles_per_bit.is_finite() || pe1.cycles_per_bit < 0.0 {
        return Err(bad(0));
    }
    let pe2 = Pe2Model {
        base: c.varint()?,
        idct_per_block: c.varint()?,
        mc_single: c.varint()?,
        mc_single_field: c.varint()?,
        mc_bidirectional: c.varint()?,
        mc_bidirectional_field: c.varint()?,
        skip_copy: c.varint()?,
    };
    let at = c.offset();
    let declared = usize::try_from(c.varint()?).map_err(|_| bad(at))?;
    c.finish()?;
    Ok((
        ClipWorkload::new(name, params, pe1, pe2, Vec::new()),
        declared,
    ))
}

fn decode_frame(payload: &[u8]) -> Result<FrameWorkload, WireError> {
    let mut c = Cursor::new(payload, 0);
    let at = c.offset();
    let kind = frame_kind_from(c.u8()?).ok_or(bad(at))?;
    // Every macroblock is at least 2 bytes (class byte + bits varint).
    let n = c.count(2)?;
    let mut mbs = Vec::with_capacity(n);
    for _ in 0..n {
        let at = c.offset();
        let packed = c.u8()?;
        let frame = frame_kind_from(packed >> 4).ok_or(bad(at))?;
        let class = match packed & 0x0F {
            0 => MacroblockClass::Skipped,
            code => {
                let blocks = c.u8()?;
                if blocks > 6 {
                    return Err(bad(at));
                }
                match code {
                    1 => MacroblockClass::Intra {
                        coded_blocks: blocks,
                    },
                    2..=6 => MacroblockClass::Inter {
                        motion: match code {
                            2 => MotionKind::None,
                            3 => MotionKind::Single,
                            4 => MotionKind::SingleField,
                            5 => MotionKind::Bidirectional,
                            _ => MotionKind::BidirectionalField,
                        },
                        coded_blocks: blocks,
                    },
                    _ => return Err(bad(at)),
                }
            }
        };
        let at = c.offset();
        let bits = u32::try_from(c.varint()?).map_err(|_| bad(at))?;
        mbs.push(Macroblock { frame, class, bits });
    }
    c.finish()?;
    Ok(FrameWorkload::new(kind, mbs))
}

/// Reassemble clips from a decoded stream's application frames.
///
/// With `strict` set, a clip whose picture count differs from its
/// declared count — or a picture frame outside any clip — is an error;
/// lenient reassembly keeps whatever pictures survived (the
/// SkipCorrupt path).
///
/// # Errors
///
/// [`WireErrorKind::BadPayload`] on schema violations; cursor errors on
/// malformed fields.
pub fn clips_from_app_frames(
    frames: &[(u8, Vec<u8>)],
    strict: bool,
) -> Result<Vec<ClipWorkload>, WireError> {
    let mut clips: Vec<ClipWorkload> = Vec::new();
    let mut declared: Vec<usize> = Vec::new();
    for (kind, payload) in frames {
        match *kind {
            KIND_CLIP_META => {
                let (clip, count) = decode_meta(payload)?;
                clips.push(clip);
                declared.push(count);
            }
            KIND_CLIP_FRAME => {
                let frame = decode_frame(payload)?;
                match clips.last_mut() {
                    Some(clip) => clip.push_frame(frame),
                    None if strict => return Err(bad(0)),
                    None => {}
                }
            }
            _ => {}
        }
    }
    if strict {
        for (clip, &want) in clips.iter().zip(&declared) {
            if clip.frames().len() != want {
                return Err(bad(0));
            }
        }
    }
    Ok(clips)
}

/// Decode every clip in a `.wcmt` stream.
///
/// # Errors
///
/// Header/framing/schema errors under [`DecodePolicy::Strict`]; under
/// [`DecodePolicy::SkipCorrupt`] only an unusable stream header fails,
/// and missing pictures are visible as `report.frames_skipped` plus a
/// shorter clip.
pub fn decode_clips(
    bytes: &[u8],
    policy: DecodePolicy,
) -> Result<(Vec<ClipWorkload>, DecodeReport), WireError> {
    let out = decode(bytes, policy)?;
    let strict = matches!(policy, DecodePolicy::Strict);
    let clips = clips_from_app_frames(&out.app_frames, strict)?;
    Ok((clips, out.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_clips;
    use crate::synth::Synthesizer;

    fn sample() -> ClipWorkload {
        let params =
            VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast()).unwrap();
        Synthesizer::new(params)
            .generate(&standard_clips()[3], 2)
            .unwrap()
    }

    #[test]
    fn clip_round_trip_is_exact() {
        let clip = sample();
        let bytes = encode_clip(&clip);
        let (clips, report) = decode_clips(&bytes, DecodePolicy::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(clips.len(), 1);
        let back = &clips[0];
        assert_eq!(back.name(), clip.name());
        assert_eq!(back.params(), clip.params());
        assert_eq!(back.frames(), clip.frames());
        assert_eq!(back.pe1_demands(), clip.pe1_demands());
        assert_eq!(back.pe2_demands(), clip.pe2_demands());
        assert_eq!(back.mb_bits(), clip.mb_bits());
    }

    #[test]
    fn two_clips_share_a_stream() {
        let a = sample();
        let params =
            VideoParams::new(160, 128, 30.0, 2.0e6, GopStructure::broadcast()).unwrap();
        let b = Synthesizer::new(params)
            .generate(&standard_clips()[9], 1)
            .unwrap();
        let mut enc = StreamEncoder::new();
        append_clip(&mut enc, &a);
        append_clip(&mut enc, &b);
        let (clips, _) = decode_clips(&enc.finish(), DecodePolicy::Strict).unwrap();
        assert_eq!(clips.len(), 2);
        assert_eq!(clips[0].name(), a.name());
        assert_eq!(clips[1].name(), b.name());
        assert_eq!(clips[1].frames(), b.frames());
    }

    #[test]
    fn append_after_reopen_matches_single_sitting() {
        let a = sample();
        let params =
            VideoParams::new(160, 128, 30.0, 2.0e6, GopStructure::broadcast()).unwrap();
        let b = Synthesizer::new(params)
            .generate(&standard_clips()[9], 1)
            .unwrap();
        // Two sittings: encode a, then reopen and append b.
        let mut enc = StreamEncoder::reopen(encode_clip(&a)).unwrap();
        append_clip(&mut enc, &b);
        let reopened = enc.finish();
        // One sitting: both clips in a fresh encoder.
        let mut enc = StreamEncoder::new();
        append_clip(&mut enc, &a);
        append_clip(&mut enc, &b);
        assert_eq!(reopened, enc.finish());
        let (clips, report) = decode_clips(&reopened, DecodePolicy::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(clips.len(), 2);
        assert_eq!(clips[0].frames(), a.frames());
        assert_eq!(clips[1].frames(), b.frames());
        // A damaged library file is refused, not extended.
        let mut dirty = encode_clip(&a);
        let mid = dirty.len() / 2;
        dirty[mid] ^= 0x01;
        assert!(StreamEncoder::reopen(dirty).is_err());
    }

    #[test]
    fn corrupt_picture_degrades_to_shorter_clip() {
        let clip = sample();
        let mut bytes = encode_clip(&clip);
        // Damage a byte near the middle of the stream (inside some
        // picture frame's payload).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(decode_clips(&bytes, DecodePolicy::Strict).is_err());
        let (clips, report) = decode_clips(&bytes, DecodePolicy::SkipCorrupt).unwrap();
        assert_eq!(clips.len(), 1);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(clips[0].frames().len(), clip.frames().len() - 1);
        // Surviving pictures are bit-identical to originals.
        for frame in clips[0].frames() {
            assert!(clip.frames().contains(frame));
        }
    }

    #[test]
    fn truncated_clip_fails_strict_only() {
        let clip = sample();
        let bytes = encode_clip(&clip);
        let cut = &bytes[..bytes.len() * 2 / 3];
        assert!(decode_clips(cut, DecodePolicy::Strict).is_err());
        let (clips, report) = decode_clips(cut, DecodePolicy::SkipCorrupt).unwrap();
        assert!(report.truncated);
        assert!(!clips.is_empty());
        assert!(clips[0].frames().len() < clip.frames().len());
    }
}
