//! Primitive codecs: LEB128 varints, zigzag signed varints, the
//! order-preserving `f64 ↔ u64` key map, and the bounds-checked [`Cursor`]
//! every payload decoder reads through.
//!
//! The cursor is the crate's allocation-safety choke point: every length
//! or element-count claim a payload makes goes through [`Cursor::take`]
//! or [`Cursor::count`], which check the claim against the bytes actually
//! remaining *before* anything is allocated. Hostile inputs can therefore
//! make a decode fail, but never make it reserve gigabytes.

use crate::{WireError, WireErrorKind};

/// Longest legal LEB128 encoding of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` to `buf` as an LEB128 varint (7 bits per byte, little
/// groups first, high bit = continuation).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append `v` zigzag-folded (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) so
/// small deltas of either sign stay short on the wire.
pub fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Map an `f64` to a `u64` key such that `a ≤ b ⇔ key(a) ≤ key(b)` for
/// all ordered floats (IEEE total order on the non-NaN range), and the
/// map round-trips *bitwise* for every bit pattern, NaNs included.
///
/// Non-negative floats get their sign bit set (placing them above all
/// negatives); negative floats are bitwise complemented (reversing their
/// order so more-negative sorts lower). Consecutive timestamps then have
/// small key deltas, which is what makes zigzag-delta varints compact.
#[must_use]
pub fn f64_to_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`f64_to_key`]: exact for every `u64`.
#[must_use]
pub fn key_to_f64(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// A bounds-checked reading position inside one frame payload.
///
/// `base` is the payload's absolute offset in the whole input, so every
/// error produced here carries a file-level byte offset without the
/// payload decoders threading it around by hand.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor over `bytes`, which begin at absolute offset `base`.
    #[must_use]
    pub fn new(bytes: &'a [u8], base: usize) -> Self {
        Self { bytes, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn err(&self, kind: WireErrorKind) -> WireError {
        WireError::new(self.offset(), kind)
    }

    /// Take the next `n` bytes, zero-copy.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(self.err(WireErrorKind::Truncated));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `f64` (the canonical raw-float encoding; only
    /// application payloads like clip parameters use it — timestamps go
    /// through the key map instead).
    pub fn f64_le(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Next LEB128 varint. Rejects encodings longer than
    /// [`MAX_VARINT_LEN`] bytes or overflowing 64 bits; an encoding cut
    /// short by the end of the payload reports as truncation.
    ///
    /// A one-byte varint returns at once. With [`MAX_VARINT_LEN`] bytes
    /// left, one bounds check covers every byte the varint may take, and
    /// the loop reads them unchecked; near the end of the payload the
    /// bytewise loop reads instead. Both paths accept, reject and
    /// consume exactly the same bytes.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let rest = &self.bytes[self.pos..];
        match rest.first() {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                return Ok(u64::from(b));
            }
            _ => {}
        }
        let Some(head) = rest.first_chunk::<MAX_VARINT_LEN>() else {
            return self.varint_bytewise();
        };
        let mut out: u64 = 0;
        for (i, &byte) in head.iter().enumerate() {
            out |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                // The 10th byte may only contribute the final bit of a u64.
                if i == MAX_VARINT_LEN - 1 && byte > 1 {
                    break;
                }
                self.pos += i + 1;
                return Ok(out);
            }
        }
        let start = self.offset();
        self.pos += MAX_VARINT_LEN;
        Err(WireError::new(start, WireErrorKind::BadVarint))
    }

    /// [`Cursor::varint`] one byte at a time, for the last bytes of a
    /// payload (and the tests' oracle).
    #[cold]
    #[inline(never)]
    fn varint_bytewise(&mut self) -> Result<u64, WireError> {
        let start = self.offset();
        let mut out: u64 = 0;
        for i in 0..MAX_VARINT_LEN {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(WireError::new(self.offset(), WireErrorKind::Truncated));
            };
            self.pos += 1;
            let low = u64::from(byte & 0x7F);
            // The 10th byte may only contribute the final bit of a u64.
            if i == MAX_VARINT_LEN - 1 && low > 1 {
                return Err(WireError::new(start, WireErrorKind::BadVarint));
            }
            out |= low << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(WireError::new(start, WireErrorKind::BadVarint))
    }

    /// Next zigzag-folded signed varint.
    pub fn zigzag(&mut self) -> Result<i64, WireError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Next varint interpreted as an element count, validated against
    /// the bytes remaining: each element occupies at least
    /// `min_bytes_per_item` bytes, so any claim exceeding
    /// `remaining / min_bytes_per_item` is rejected *before* the caller
    /// sizes a buffer from it.
    pub fn count(&mut self, min_bytes_per_item: usize) -> Result<usize, WireError> {
        let at = self.offset();
        let n = self.varint()?;
        let cap = (self.remaining() / min_bytes_per_item.max(1)) as u64;
        if n > cap {
            return Err(WireError::new(at, WireErrorKind::CountTooLarge));
        }
        Ok(n as usize)
    }

    /// Next length-prefixed UTF-8 string, zero-copy.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let at = self.offset();
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::new(at, WireErrorKind::BadUtf8))
    }

    /// Assert the payload was consumed exactly — leftover bytes mean the
    /// frame was built by a different (or corrupt) writer.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.err(WireErrorKind::TrailingPayload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut c = Cursor::new(&buf, 0);
            assert_eq!(c.varint().unwrap(), v);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trip_edges() {
        for v in [0, -1, 1, i64::MIN, i64::MAX, -123_456_789, 123_456_789] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            let mut c = Cursor::new(&buf, 0);
            assert_eq!(c.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        // 11 continuation bytes: too long.
        let long = [0x80u8; 11];
        assert_eq!(
            Cursor::new(&long, 0).varint().unwrap_err().kind,
            WireErrorKind::BadVarint
        );
        // 10th byte carries more than the final u64 bit.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert_eq!(
            Cursor::new(&overflow, 0).varint().unwrap_err().kind,
            WireErrorKind::BadVarint
        );
        // Continuation bit set on the last available byte.
        let cut = [0x80u8; 3];
        assert_eq!(
            Cursor::new(&cut, 0).varint().unwrap_err().kind,
            WireErrorKind::Truncated
        );
    }

    /// Reads one varint at `pos` of `bytes` (based at 100) through the
    /// fast and the bytewise path, and asserts the same value or error
    /// (kind and offset) and the same bytes consumed.
    fn assert_paths_agree(bytes: &[u8], pos: usize) {
        let mut fast = Cursor::new(bytes, 100);
        fast.pos = pos;
        let mut slow = fast;
        let (got, want) = (fast.varint(), slow.varint_bytewise());
        assert_eq!(got, want, "bytes {bytes:02x?} at {pos}");
        assert_eq!(fast.pos, slow.pos, "bytes {bytes:02x?} at {pos}");
    }

    /// Every start of every prefix of `bytes`: each start is read with
    /// and without ten bytes behind it.
    fn assert_paths_agree_everywhere(bytes: &[u8]) {
        for end in 0..=bytes.len() {
            for pos in 0..=end {
                assert_paths_agree(&bytes[..end], pos);
            }
        }
    }

    #[test]
    fn fast_path_agrees_on_every_length_and_the_10th_byte() {
        for v in (0..64)
            .flat_map(|s| [(1u64 << s) - 1, 1 << s, (1 << s) + 1])
            .chain([u64::MAX])
        {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let len = buf.len();
            buf.extend_from_slice(&[0x81; MAX_VARINT_LEN]);
            let mut c = Cursor::new(&buf, 0);
            assert_eq!(c.varint().unwrap(), v);
            assert_eq!(c.pos, len);
            assert_paths_agree_everywhere(&buf);
        }
        // Every 10th byte after nine continuation bytes, then 11-byte
        // overlong runs of every filler.
        for last in 0..=u8::MAX {
            let mut buf = vec![0xFFu8; 9];
            buf.push(last);
            buf.extend_from_slice(&[0x00; 12]);
            assert_paths_agree_everywhere(&buf);
        }
        for fill in 0x80..=u8::MAX {
            let mut buf = vec![fill; 11];
            buf.extend_from_slice(&[0x80; 4]);
            assert_paths_agree_everywhere(&buf);
        }
    }

    /// Mostly continuation bytes, so long and overlong runs are common,
    /// with the 10th-byte edge values mixed in.
    fn varint_byte() -> impl Strategy<Value = u8> {
        (0u8..=u8::MAX, 0u8..8).prop_map(|(b, pick)| match pick {
            0..=3 => b | 0x80,
            4 => b & 0x7F,
            5 => b & 0x03,
            6 => b & 0x81,
            _ => b,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fast_path_agrees_on_random_bytes(bytes in collection::vec(varint_byte(), 0..40)) {
            assert_paths_agree_everywhere(&bytes);
        }
    }

    #[test]
    fn key_map_preserves_order_and_bits() {
        let samples = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5e300,
            -2.0,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.0,
            1.5e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(f64_to_key(w[0]) < f64_to_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in samples {
            assert_eq!(key_to_f64(f64_to_key(v)).to_bits(), v.to_bits());
        }
        // NaN payload bits survive the round trip too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        assert_eq!(key_to_f64(f64_to_key(nan)).to_bits(), nan.to_bits());
    }

    #[test]
    fn count_rejects_giant_claims_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0u8; 8]);
        let mut c = Cursor::new(&buf, 0);
        assert_eq!(c.count(1).unwrap_err().kind, WireErrorKind::CountTooLarge);
    }

    #[test]
    fn str_round_trip_and_utf8_guard() {
        let mut buf = Vec::new();
        put_str(&mut buf, "clip β — 測試");
        let mut c = Cursor::new(&buf, 0);
        assert_eq!(c.str().unwrap(), "clip β — 測試");
        c.finish().unwrap();

        let bad = [2u8, 0xFF, 0xFE];
        assert_eq!(
            Cursor::new(&bad, 0).str().unwrap_err().kind,
            WireErrorKind::BadUtf8
        );
    }

    #[test]
    fn cursor_offsets_are_absolute() {
        let bytes = [0x80u8; 2];
        let mut c = Cursor::new(&bytes, 100);
        let err = c.varint().unwrap_err();
        assert_eq!(err.offset, 102);
        assert_eq!(err.kind, WireErrorKind::Truncated);
    }
}
