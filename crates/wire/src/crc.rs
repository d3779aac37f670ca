//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! every wire frame carries.
//!
//! # Method
//!
//! Slicing-by-16: `TABLES[j][b]` is the CRC state after byte `b`
//! followed by `j` zero bytes, so one step folds 16 input bytes into the
//! state with 16 independent lookups and xors instead of 16 dependent
//! ones. The bytes past the last full 16-byte step go through the
//! classic byte-at-a-time loop on `TABLES[0]`. The sixteen 256-entry
//! tables (16 KiB) are built in a const context, so the crate stays
//! allocation- and dependency-free, and the result is bit-identical to
//! the bytewise loop (pinned against it for every length up to 300 at
//! every start offset in the tests).
//!
//! # Cost
//!
//! Measured on a 625 KB four-GOP MP@ML `.wcmt` clip (best of 21, 2-vCPU
//! x86-64 VM): the bytewise loop ran at ~340 MB/s and took ~1.8 ms of a
//! ~2.6–3.0 ms decode, about two thirds of it. Sliced, the checksum takes
//! ~0.35 ms (~1.8 GB/s, 5.2× the bytewise loop), about a quarter of the
//! ~1.0–1.4 ms decode that remains. The `wire` section of
//! `BENCH_curves.json` times both loops on one stream in one process
//! (`crc_mb_s`, `crc_speedup_vs_bytewise`).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, one shift-xor round per bit.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `TABLES[0]` is [`TABLE`]; `TABLES[j]` advances `TABLES[j − 1]` by one
/// zero byte.
static TABLES: [[u32; 256]; SLICE] = {
    let mut tables = [[0u32; 256]; SLICE];
    tables[0] = TABLE;
    let mut j = 1;
    while j < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// same convention as zlib/PNG, so values can be cross-checked with any
/// standard tool).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(SLICE);
    for s in &mut steps {
        // The state overlaps the first four bytes; the other twelve are
        // looked up as they are. Byte `i` of the step is `15 − i` bytes
        // from its end.
        let head = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let [h0, h1, h2, h3] = head.to_le_bytes();
        crc = t[15][usize::from(h0)]
            ^ t[14][usize::from(h1)]
            ^ t[13][usize::from(h2)]
            ^ t[12][usize::from(h3)]
            ^ t[11][usize::from(s[4])]
            ^ t[10][usize::from(s[5])]
            ^ t[9][usize::from(s[6])]
            ^ t[8][usize::from(s[7])]
            ^ t[7][usize::from(s[8])]
            ^ t[6][usize::from(s[9])]
            ^ t[5][usize::from(s[10])]
            ^ t[4][usize::from(s[11])]
            ^ t[3][usize::from(s[12])]
            ^ t[2][usize::from(s[13])]
            ^ t[1][usize::from(s[14])]
            ^ t[0][usize::from(s[15])];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for this CRC variant.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        // xorshift64* bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..SLICE + 300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        for start in 0..SLICE {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = b"sensitivity check";
        let clean = crc32(data);
        let mut buf = data.to_vec();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32(&buf), clean, "flip at {byte}:{bit} went undetected");
                buf[byte] ^= 1 << bit;
            }
        }
    }
}
