//! Multi-session determinism: N interleaved sessions fed chunk-wise
//! through the live serve pipeline produce snapshots byte-identical to
//! the batch path, across 1/2/4 shard threads.

use std::io::Write;
use std::path::Path;

use wcm_core::build::arrival_upper;
use wcm_core::{sizing, UpperWorkloadCurve};
use wcm_events::window::{max_window_sums, Parallelism, WindowMode};
use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm_serve::{ServeConfig, Service, SessionState};
use wcm_sim::OverflowPolicy;
use wcm_wire::StreamEncoder;

/// Deterministic synthetic demand stream for session `s` — an
/// MPEG-like per-GOP shape plus per-session phase and scale so every
/// session has different curves and admission dynamics.
fn demands_for(s: usize, n: usize) -> Vec<u64> {
    let gop = [900u64, 150, 150, 420, 150, 150, 420, 150, 150, 420, 150, 150];
    (0..n)
        .map(|i| {
            let base = gop[(i + 3 * s) % gop.len()];
            base * (10 + s as u64) / 10 + ((i as u64 * 37) % 23)
        })
        .collect()
}

fn timestamps_for(s: usize, n: usize) -> Vec<f64> {
    let period = 1.0 / (25.0 + s as f64);
    (0..n).map(|i| i as f64 * period).collect()
}

fn small_cfg(shards: usize, par: wcm_par::Parallelism) -> ServeConfig {
    ServeConfig {
        k_max: 12,
        refresh_every: 16,
        frequency_hz: 40.0e3,
        capacity_events: 8,
        policy: OverflowPolicy::Backpressure,
        session_buffer: 64,
        times_window: 256,
        shards,
        par,
        ..ServeConfig::default()
    }
}

/// Encode `sessions` as one interleaved `.wcmt` stream: round-robin
/// over the sessions, a few events per sitting, with META frames
/// switching the active session each time.
fn interleaved_stream(sessions: &[(String, Vec<u64>, Vec<f64>)]) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    let mut done = vec![0usize; sessions.len()];
    let mut remaining = true;
    let mut turn = 0usize;
    while remaining {
        remaining = false;
        for (s, (name, demands, times)) in sessions.iter().enumerate() {
            let at = done[s];
            if at >= demands.len() {
                continue;
            }
            // Vary the sitting size so frame boundaries never line up
            // with refresh boundaries.
            let take = (3 + (turn + s) % 5).min(demands.len() - at);
            enc.meta(name);
            // Times precede the demands they stamp (the serve pairing
            // contract), so a chunk boundary can only delay demands.
            enc.times(&times[at..at + take]).unwrap();
            enc.demands(&demands[at..at + take]);
            done[s] = at + take;
            if done[s] < demands.len() {
                remaining = true;
            }
            turn += 1;
        }
    }
    enc.finish()
}

/// The batch oracle: one `SessionState` fed the whole trace in a
/// single call.
fn batch_snapshot(name: &str, demands: &[u64], times: &[f64], cfg: &ServeConfig) -> String {
    let mut s = SessionState::new(cfg);
    s.record_times(times, cfg);
    s.enqueue(demands, cfg);
    s.apply_pending(cfg);
    s.snapshot_json(name)
}

/// Run the full service over `file`, feeding `chunk` bytes per round.
fn serve_snapshots(file: &Path, chunk: usize, cfg: ServeConfig) -> Vec<String> {
    let mut svc = Service::new(cfg);
    svc.add_tail(file).unwrap();
    svc.set_budget(chunk);
    loop {
        let report = svc.round().unwrap();
        assert!(report.dead.is_empty(), "source died: {:?}", report.dead);
        if report.idle {
            break;
        }
    }
    let drained = svc.drain().unwrap();
    assert_eq!(drained.bytes, 0, "idle service still had bytes");
    svc.snapshots()
}

#[test]
fn interleaved_sessions_match_batch_path_across_shard_counts() {
    let n_sessions = 7;
    let n_events = 160;
    let sessions: Vec<(String, Vec<u64>, Vec<f64>)> = (0..n_sessions)
        .map(|s| {
            (
                format!("cam-{s:02}"),
                demands_for(s, n_events),
                timestamps_for(s, n_events),
            )
        })
        .collect();
    let bytes = interleaved_stream(&sessions);

    let dir = std::env::temp_dir().join(format!("wcm_serve_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("interleaved.wcmt");
    std::fs::File::create(&file)
        .unwrap()
        .write_all(&bytes)
        .unwrap();

    // The oracle sees each session's whole trace in one call.
    let cfg1 = small_cfg(1, wcm_par::Parallelism::Seq);
    let expected: Vec<String> = {
        let mut lines: Vec<(String, String)> = sessions
            .iter()
            .map(|(name, demands, times)| {
                let display = format!("file:{}/{name}", file.display());
                (name.clone(), batch_snapshot(&display, demands, times, &cfg1))
            })
            .collect();
        lines.sort();
        lines.into_iter().map(|(_, l)| l).collect()
    };

    // Live path: several chunk sizes × shard/thread counts, all
    // byte-identical to the oracle.
    for &(shards, threads) in &[(1usize, 1usize), (2, 2), (4, 4)] {
        let par = if threads == 1 {
            wcm_par::Parallelism::Seq
        } else {
            wcm_par::Parallelism::Threads(threads)
        };
        for &chunk in &[97usize, 1024, 1 << 20] {
            let got = serve_snapshots(&file, chunk, small_cfg(shards, par));
            assert_eq!(
                got, expected,
                "snapshot mismatch: shards={shards} threads={threads} chunk={chunk}"
            );
        }
    }

    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn admission_decides_both_ways() {
    // Sanity that the test workload actually exercises admission: a
    // fast PE2 admits, a hopeless one rejects.
    let sessions = [(
        "one".to_string(),
        demands_for(0, 160),
        timestamps_for(0, 160),
    )];
    let (name, demands, times) = &sessions[0];
    let mut fast = small_cfg(1, wcm_par::Parallelism::Seq);
    fast.frequency_hz = 1.0e9;
    let line = batch_snapshot(name, demands, times, &fast);
    assert!(line.contains("\"verdict\":\"admit\""), "{line}");

    let mut slow = small_cfg(1, wcm_par::Parallelism::Seq);
    slow.frequency_hz = 1.0;
    let line = batch_snapshot(name, demands, times, &slow);
    assert!(line.contains("\"verdict\":\"reject\""), "{line}");
}

/// Timestamps whose rate drifts and that carry one dense burst, so the
/// minimal spans of a sliding window change as it moves.
fn drifting_timestamps(s: usize, n: usize) -> Vec<f64> {
    let base = 1.0 / (25.0 + s as f64);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            let burst = (700 + 90 * s..760 + 90 * s).contains(&i);
            t += if burst {
                base / 8.0
            } else {
                base * (1.0 + 0.5 * (i as f64 / 40.0).sin())
            };
            t
        })
        .collect()
}

/// The value of `key` in a snapshot line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).expect("key in snapshot") + key.len() + 3;
    let rest = &line[at..];
    rest[..rest.find([',', '}']).expect("field end")].trim_matches('"')
}

/// The eq.-9 verdict and `f_min_hz` of a session after `n` applied
/// events, recomputed from scratch: γᵘ from a full window scan of the
/// demands applied by the last refresh, ᾱ from a full rescan
/// (`arrival_upper`) of the timestamps the window holds then, both on
/// the calling thread.
fn oracle_verdict(demands: &[u64], times: &[f64], n: usize, cfg: &ServeConfig) -> (String, String) {
    let every = cfg.refresh_every as usize;
    let r = n / every * every;
    let gamma = UpperWorkloadCurve::new(
        Parallelism::Seq
            .scope(|| max_window_sums(&demands[..r], cfg.k_max, WindowMode::Exact))
            .unwrap(),
    )
    .unwrap();
    let window = &times[r.saturating_sub(cfg.times_window)..r];
    assert!(
        window.len() > cfg.k_max,
        "the oracle covers the empirical path only"
    );
    let mut reg = TypeRegistry::new();
    let ty = reg
        .register("e", ExecutionInterval::fixed(Cycles(1)))
        .unwrap();
    let events = window.iter().map(|&time| TimedEvent { time, ty }).collect();
    let f_min = match TimedTrace::new(reg, events) {
        Err(_) => f64::INFINITY,
        Ok(trace) => {
            let alpha = Parallelism::Seq
                .scope(|| arrival_upper(&trace, cfg.k_max, WindowMode::Exact))
                .unwrap();
            sizing::min_frequency_workload(&alpha, &gamma, cfg.capacity_events)
                .unwrap_or(f64::INFINITY)
        }
    };
    let verdict = if f_min <= cfg.frequency_hz {
        "admit"
    } else {
        "reject"
    };
    let f_min = if f_min.is_finite() {
        format!("{f_min:.3}")
    } else {
        "null".to_string()
    };
    (verdict.to_string(), f_min)
}

fn sliding_cfg(shards: usize, par: wcm_par::Parallelism) -> ServeConfig {
    ServeConfig {
        times_window: 300,
        // Between the burst's f_min and the rest of the stream's.
        frequency_hz: 15.0e3,
        ..small_cfg(shards, par)
    }
}

/// Feeds one session `piece` events at a time and checks its verdict
/// against the oracle after every call; returns the verdicts seen.
fn walk_against_oracle(
    demands: &[u64],
    times: &[f64],
    piece: usize,
    cfg: &ServeConfig,
) -> Vec<String> {
    let mut state = SessionState::new(cfg);
    let mut seen = Vec::new();
    for at in (0..demands.len()).step_by(piece) {
        let end = (at + piece).min(demands.len());
        state.record_times(&times[at..end], cfg);
        state.enqueue(&demands[at..end], cfg);
        state.apply_pending(cfg);
        if end / cfg.refresh_every as usize * (cfg.refresh_every as usize) <= cfg.k_max {
            continue; // warming or the periodic fallback
        }
        let line = state.snapshot_json("s");
        let (verdict, f_min) = oracle_verdict(demands, times, end, cfg);
        assert_eq!(
            (field(&line, "verdict"), field(&line, "f_min_hz")),
            (verdict.as_str(), f_min.as_str()),
            "after {end} events: {line}"
        );
        seen.push(verdict);
    }
    seen
}

#[test]
fn sliding_window_arrival_curve_matches_full_rescan() {
    // 2 000 events per session against a 300-stamp window: the window
    // slides ~6 times over, past the burst and back out.
    let n_events = 2000;
    let sessions: Vec<(String, Vec<u64>, Vec<f64>)> = (0..3)
        .map(|s| {
            (
                format!("long-{s}"),
                demands_for(s, n_events),
                drifting_timestamps(s, n_events),
            )
        })
        .collect();
    let cfg = sliding_cfg(1, wcm_par::Parallelism::Seq);

    // Refresh by refresh, and at an odd piece size, against the oracle.
    let mut verdicts = Vec::new();
    for (_, demands, times) in &sessions {
        verdicts.extend(walk_against_oracle(demands, times, 16, &cfg));
        walk_against_oracle(demands, times, 97, &cfg);
    }
    assert!(verdicts.iter().any(|v| v == "admit"), "{verdicts:?}");
    assert!(verdicts.iter().any(|v| v == "reject"), "{verdicts:?}");

    // The live service, whatever the read chunking, ends on the same
    // verdicts as the oracle.
    let dir = std::env::temp_dir().join(format!("wcm_serve_slide_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("sliding.wcmt");
    std::fs::write(&file, interleaved_stream(&sessions)).unwrap();
    for &chunk in &[97usize, 1024, 1 << 20] {
        let lines = serve_snapshots(
            &file,
            chunk,
            sliding_cfg(2, wcm_par::Parallelism::Threads(2)),
        );
        assert_eq!(lines.len(), sessions.len());
        for (line, (name, demands, times)) in lines.iter().zip(&sessions) {
            assert!(line.contains(name.as_str()), "{line}");
            let (verdict, f_min) = oracle_verdict(demands, times, n_events, &cfg);
            assert_eq!(
                (field(line, "verdict"), field(line, "f_min_hz")),
                (verdict.as_str(), f_min.as_str()),
                "chunk={chunk}: {line}"
            );
        }
    }
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn inverted_timestamps_reject_until_they_leave_the_window() {
    // One stamp jumps back in time. While it is in the 300-stamp window
    // no arrival curve exists and the session rejects at f = ∞; once it
    // has slid out, the verdict agrees with the oracle again.
    let n_events = 1200;
    let demands = demands_for(1, n_events);
    let mut times = drifting_timestamps(1, n_events);
    let inverted = 400;
    times[inverted] = times[inverted - 1] - 0.5;
    let cfg = sliding_cfg(1, wcm_par::Parallelism::Seq);
    let every = cfg.refresh_every as usize;
    let mut state = SessionState::new(&cfg);
    let (mut inside, mut after) = (0, 0);
    for at in (0..n_events).step_by(every) {
        state.record_times(&times[at..at + every], &cfg);
        state.enqueue(&demands[at..at + every], &cfg);
        state.apply_pending(&cfg);
        let end = at + every;
        if end <= cfg.k_max {
            continue;
        }
        let line = state.snapshot_json("s");
        let retained = end.saturating_sub(cfg.times_window)..end;
        if retained.contains(&inverted) {
            assert_eq!(
                (field(&line, "verdict"), field(&line, "f_min_hz")),
                ("reject", "null")
            );
            inside += 1;
        } else {
            after += usize::from(end > inverted);
        }
        let (verdict, f_min) = oracle_verdict(&demands, &times, end, &cfg);
        assert_eq!(
            (field(&line, "verdict"), field(&line, "f_min_hz")),
            (verdict.as_str(), f_min.as_str()),
            "after {end} events: {line}"
        );
    }
    assert!(inside >= cfg.times_window / every, "inside {inside}");
    assert!(after > 10, "after {after}");
    // The same stream through the live service: the decoder carries the
    // decreasing stamp (TIMES deltas are zigzag-coded), and the final
    // verdict, long after the inversion left the window, matches.
    let dir = std::env::temp_dir().join(format!("wcm_serve_inv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("inverted.wcmt");
    let sessions = [("inv".to_string(), demands.clone(), times.clone())];
    std::fs::write(&file, interleaved_stream(&sessions)).unwrap();
    let lines = serve_snapshots(&file, 1024, cfg.clone());
    let (verdict, f_min) = oracle_verdict(&demands, &times, n_events, &cfg);
    assert_eq!(
        (field(&lines[0], "verdict"), field(&lines[0], "f_min_hz")),
        (verdict.as_str(), f_min.as_str())
    );
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
}
