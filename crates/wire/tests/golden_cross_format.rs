//! Cross-format golden tests: the same event trace rendered as binary
//! `.wcmt`, as CSV and as JSON must decode event-for-event identical
//! through the three in-repo readers, and curve summaries decoded from a
//! chunked stream must merge bitwise-equal to the in-memory fold.

use wcm_events::summary::{CurveSummary, Sides};
use wcm_wire::{decode, DecodePolicy, StreamEncoder};

/// The reference trace: demands stay below 2^53 so the JSON reader's
/// f64 numbers carry them exactly; times are written with `{:?}` so the
/// shortest-round-trip formatting reparses to the same bits.
fn reference() -> (Vec<u64>, Vec<f64>) {
    let demands: Vec<u64> = (0..1500u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 14) + 1)
        .collect();
    let times: Vec<f64> = (0..1500)
        .map(|i| i as f64 * 0.013 + (i % 7) as f64 * 1e-4)
        .collect();
    (demands, times)
}

#[test]
fn binary_csv_and_json_decode_event_for_event_identical() {
    let (demands, times) = reference();

    // Binary.
    let mut enc = StreamEncoder::new();
    enc.meta("golden");
    enc.demands(&demands);
    enc.times(&times).unwrap();
    let decoded = decode(&enc.finish(), DecodePolicy::Strict).unwrap();
    assert!(decoded.report.is_clean());

    // CSV: one record per event.
    let mut csv = String::from("demand,time\n");
    for (d, t) in demands.iter().zip(&times) {
        csv.push_str(&format!("{d},{t:?}\n"));
    }
    let rows = wcm_obs::csv::parse_table(&csv).unwrap();
    let csv_events: Vec<(u64, f64)> = rows[1..]
        .iter()
        .map(|r| (r[0].parse().unwrap(), r[1].parse().unwrap()))
        .collect();

    // JSON: parallel arrays.
    let mut json = String::from("{\"demands\": [");
    json.push_str(&demands.iter().map(u64::to_string).collect::<Vec<_>>().join(", "));
    json.push_str("], \"times\": [");
    json.push_str(&times.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>().join(", "));
    json.push_str("]}");
    let doc = wcm_obs::json::parse(&json).unwrap();
    let json_demands: Vec<u64> = doc
        .get("demands")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as u64)
        .collect();
    let json_times: Vec<f64> = doc
        .get("times")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();

    // Event-for-event equality, timestamps compared bitwise.
    assert_eq!(decoded.demands, demands);
    assert_eq!(decoded.demands, json_demands);
    for (i, ((&bin_t, &json_t), &(csv_d, csv_t))) in decoded
        .times
        .iter()
        .zip(&json_times)
        .zip(&csv_events)
        .enumerate()
    {
        assert_eq!(bin_t.to_bits(), times[i].to_bits(), "event {i} binary time");
        assert_eq!(bin_t.to_bits(), json_t.to_bits(), "event {i} json time");
        assert_eq!(bin_t.to_bits(), csv_t.to_bits(), "event {i} csv time");
        assert_eq!(decoded.demands[i], csv_d, "event {i} csv demand");
    }
    assert_eq!(csv_events.len(), demands.len());
    assert_eq!(json_times.len(), times.len());
}

#[test]
fn summary_merges_over_decoded_chunks_equal_in_memory_fold() {
    let (demands, _) = reference();
    let grid = [1usize, 2, 4, 8, 16, 32];

    // Chunked summaries, one SUMMARY frame each, sharing a stream.
    let chunks: Vec<CurveSummary> = demands
        .chunks(256)
        .map(|c| CurveSummary::from_values(c, &grid, Sides::Both))
        .collect();
    let mut enc = StreamEncoder::new();
    enc.meta("summaries");
    for s in &chunks {
        enc.summary(s);
    }
    let decoded = decode(&enc.finish(), DecodePolicy::Strict).unwrap();
    assert_eq!(decoded.summaries.len(), chunks.len());

    // Each decoded blob is already bit-identical to its source...
    for (got, want) in decoded.summaries.iter().zip(&chunks) {
        assert_eq!(got, want);
    }

    // ...and the fold over decoded chunks equals the in-memory fold.
    let fold = |list: &[CurveSummary]| -> CurveSummary {
        let mut acc = list[0].clone();
        for s in &list[1..] {
            acc = acc.merge(s);
        }
        acc
    };
    let from_wire = fold(&decoded.summaries);
    let in_memory = fold(&chunks);
    assert_eq!(from_wire, in_memory);

    // Both agree with a summary of the raw values in one pass.
    assert_eq!(
        from_wire,
        CurveSummary::from_values(&demands, &grid, Sides::Both)
    );
}

/// The merge survives damage: corrupt one summary frame, decode
/// leniently, and the surviving blobs still merge bitwise-equal to the
/// fold of their clean counterparts.
#[test]
fn damaged_summary_streams_merge_what_survives_exactly() {
    let (demands, _) = reference();
    let grid = [1usize, 4, 16];
    let chunks: Vec<CurveSummary> = demands
        .chunks(300)
        .map(|c| CurveSummary::from_values(c, &grid, Sides::Both))
        .collect();
    let mut enc = StreamEncoder::new();
    for s in &chunks {
        enc.summary(s);
    }
    let mut bytes = enc.finish();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;

    assert!(decode(&bytes, DecodePolicy::Strict).is_err());
    let out = decode(&bytes, DecodePolicy::SkipCorrupt).unwrap();
    assert_eq!(out.report.frames_skipped, 1);
    assert_eq!(out.summaries.len(), chunks.len() - 1);
    // Survivors are bit-identical members of the clean set, in order.
    let mut cursor = 0usize;
    for got in &out.summaries {
        let at = chunks[cursor..]
            .iter()
            .position(|c| c == got)
            .expect("decoded summary not among the clean chunks");
        cursor += at + 1;
    }
}
