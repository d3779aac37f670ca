//! Live-tail integration: a writer that grows, seals and reopens a
//! `.wcmt` file while a [`wcm_serve::TailSource`] follows it — the
//! decoder must park on partial frames and resume across the
//! `StreamEncoder::reopen` seam, and the sessions must end up exactly
//! where a batch decode of the final file would put them.

use std::io::Write;
use std::path::Path;

use wcm_serve::{ServeConfig, Service};
use wcm_wire::{decode, DecodePolicy, StreamEncoder};

fn write_file(path: &Path, bytes: &[u8]) {
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(bytes).unwrap();
    f.sync_all().ok();
}

#[test]
fn tail_follows_a_writer_across_reopens_and_partial_frames() {
    let dir = std::env::temp_dir().join(format!("wcm_serve_tail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("live.wcmt");

    // Sitting 1: a sealed stream (header, META, demands, END).
    let mut enc = StreamEncoder::new();
    enc.meta("live");
    let demands1: Vec<u64> = (0..40u64).map(|i| 100 + (i * 13) % 37).collect();
    enc.demands(&demands1);
    let sealed1 = enc.finish();
    write_file(&file, &sealed1);

    let cfg = ServeConfig {
        k_max: 8,
        refresh_every: 8,
        shards: 1,
        par: wcm_par::Parallelism::Seq,
        ..ServeConfig::default()
    };
    let mut svc = Service::new(cfg);
    svc.add_tail(&file).unwrap();

    let r = svc.round().unwrap();
    assert!(r.dead.is_empty());
    assert_eq!(r.events, 40);
    let r = svc.round().unwrap();
    assert!(r.idle, "sealed stream with no new bytes is idle");

    // Sitting 2: reopen the sealed file and append more — plus leave a
    // *partial* frame at the end (a torn mid-write observation).
    let mut enc = StreamEncoder::reopen(sealed1).unwrap();
    let demands2: Vec<u64> = (0..24u64).map(|i| 500 + (i * 7) % 11).collect();
    enc.demands(&demands2);
    let sealed2 = enc.finish();
    let cut = sealed2.len() - 5; // torn END frame
    write_file(&file, &sealed2[..cut]);

    let r = svc.round().unwrap();
    assert!(r.dead.is_empty(), "partial frame must park, not kill: {:?}", r.dead);
    assert_eq!(r.events, 24, "appended demands decoded across the seam");
    assert!(!r.idle, "torn tail is not a clean end");

    // The writer completes the torn frame.
    write_file(&file, &sealed2);
    let r = svc.round().unwrap();
    assert!(r.dead.is_empty());
    let r2 = svc.round().unwrap();
    assert!(r2.idle, "completed END makes the tail idle again");

    // Sitting 3: another reopen with a second session interleaved.
    let mut enc = StreamEncoder::reopen(sealed2).unwrap();
    enc.meta("late");
    enc.demands(&[9, 9, 9, 9]);
    enc.meta("live");
    let demands3 = [1000u64, 1001, 1002];
    enc.demands(&demands3);
    let sealed3 = enc.finish();
    write_file(&file, &sealed3);

    loop {
        let r = svc.round().unwrap();
        assert!(r.dead.is_empty());
        if r.idle {
            break;
        }
    }

    // Cross-check against a batch decode of the final file.
    let batch = decode(&sealed3, DecodePolicy::Strict).unwrap();
    assert!(batch.report.is_clean());
    let total: u64 = svc.stats().events;
    assert_eq!(total, (demands1.len() + demands2.len() + 4 + demands3.len()) as u64);
    assert_eq!(svc.session_count(), 2);
    let snaps = svc.snapshots();
    assert_eq!(snaps.len(), 2);
    let live = snaps.iter().find(|s| s.contains("/live\"")).unwrap();
    assert!(
        live.contains(&format!("\"events\":{}", demands1.len() + demands2.len() + 3)),
        "{live}"
    );
    let late = snaps.iter().find(|s| s.contains("/late\"")).unwrap();
    assert!(late.contains("\"events\":4"), "{late}");

    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn malformed_tail_marks_the_source_dead() {
    let dir = std::env::temp_dir().join(format!("wcm_serve_dead_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.wcmt");

    let mut enc = StreamEncoder::new();
    enc.meta("x");
    enc.demands(&[1, 2, 3]);
    let mut bytes = enc.finish();
    // Corrupt the first frame's sync byte (right after the 8-byte
    // header): an unambiguous structural error under Strict. (A flipped
    // *length* byte would merely park the live decoder waiting for the
    // phantom bytes — parking, not dying, is the tail contract for
    // anything that looks like an incomplete frame.)
    bytes[8] ^= 0xFF;
    write_file(&file, &bytes);

    let cfg = ServeConfig {
        shards: 1,
        par: wcm_par::Parallelism::Seq,
        ..ServeConfig::default()
    };
    let mut svc = Service::new(cfg);
    svc.add_tail(&file).unwrap();
    let r = svc.round().unwrap();
    assert_eq!(r.dead.len(), 1, "corrupt stream must kill the source");
    assert_eq!(svc.tail_count(), 0, "dead tails are dropped");

    // A fault in the payload alone: the DEMANDS frame claims two values
    // but carries three, and its CRC is recomputed so the framing holds.
    // The tail must die with the very error a batch decode reports.
    let mut enc = StreamEncoder::new();
    enc.meta("x");
    let demands_at = enc.clone().finish().len() - wcm_wire::frame::FRAME_OVERHEAD;
    enc.demands(&[1, 2, 3]);
    let mut bytes = enc.finish();
    bytes[demands_at + 6] = 2; // the payload's count varint
    let crc_at = bytes.len() - wcm_wire::frame::FRAME_OVERHEAD - 4;
    let crc = wcm_wire::crc::crc32(&bytes[demands_at..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let want = decode(&bytes, DecodePolicy::Strict).unwrap_err();
    assert_eq!(want.kind, wcm_wire::WireErrorKind::TrailingPayload);
    write_file(&file, &bytes);
    let mut svc = Service::new(svc.config().clone());
    svc.add_tail(&file).unwrap();
    let r = svc.round().unwrap();
    assert_eq!(r.dead.len(), 1, "a bad payload must kill the source");
    assert_eq!(r.dead[0].1, want, "same kind and offset as batch decode");

    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
}
