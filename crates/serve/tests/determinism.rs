//! Multi-session determinism: N interleaved sessions fed chunk-wise
//! through the live serve pipeline produce snapshots byte-identical to
//! the batch path, across 1/2/4 shard threads.

use std::io::Write;
use std::path::Path;

use wcm_core::build::arrival_upper;
use wcm_core::{sizing, EnvelopeMonitor, LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use wcm_events::window::{max_window_sums, min_window_sums, Parallelism, WindowMode};
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

/// Seven timestamped sessions of 160 events each.
fn seven_cameras() -> Vec<(String, Vec<u64>, Vec<f64>)> {
    (0..7)
        .map(|s| {
            (
                format!("cam-{s:02}"),
                demands_for(s, 160),
                timestamps_for(s, 160),
            )
        })
        .collect()
}

#[test]
fn interleaved_sessions_match_batch_path_across_shard_counts() {
    let sessions = seven_cameras();
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
fn monitor_off_changes_only_the_violation_count() {
    // With the envelope check off, the session's scan still measures the
    // curves every refresh reads: snapshots match the checked run in
    // every field but `violations`, which stays 0. The stream is the one
    // of the shard-count test above.
    let sessions = seven_cameras();
    let dir = std::env::temp_dir().join(format!("wcm_serve_off_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("off.wcmt");
    std::fs::write(&file, interleaved_stream(&sessions)).unwrap();
    let checked = serve_snapshots(&file, 97, small_cfg(1, wcm_par::Parallelism::Seq));
    assert!(
        checked.iter().any(|l| field(l, "violations") != "0"),
        "{checked:?}"
    );
    for &(shards, par) in &[
        (1usize, wcm_par::Parallelism::Seq),
        (2, wcm_par::Parallelism::Threads(2)),
    ] {
        let cfg = ServeConfig {
            monitor: false,
            ..small_cfg(shards, par)
        };
        let off = serve_snapshots(&file, 97, cfg);
        assert_eq!(off.len(), checked.len());
        for (off, on) in off.iter().zip(&checked) {
            let at = on.find("\"violations\":").expect("violations field");
            let rest = &on[at..];
            let end = rest.find(',').expect("field end");
            let want = format!("{}\"violations\":0{}", &on[..at], &rest[end..]);
            assert_eq!(off, &want, "shards={shards}");
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
/// minimal spans of a growing prefix change as it grows.
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

/// The eq.-9 `f_min` from scratch: γᵘ from a full window scan of
/// `demands`, ᾱ from a full rescan (`arrival_upper`) of `times`, both on
/// the calling thread; ∞ when `times` is not a valid timed trace.
fn oracle_f_min(demands: &[u64], times: &[f64], cfg: &ServeConfig) -> f64 {
    let gamma = UpperWorkloadCurve::new(
        Parallelism::Seq
            .scope(|| max_window_sums(demands, cfg.k_max, WindowMode::Exact))
            .unwrap(),
    )
    .unwrap();
    assert!(
        times.len() > cfg.k_max,
        "the oracle covers the empirical path only"
    );
    let mut reg = TypeRegistry::new();
    let ty = reg
        .register("e", ExecutionInterval::fixed(Cycles(1)))
        .unwrap();
    let events = times.iter().map(|&time| TimedEvent { time, ty }).collect();
    match TimedTrace::new(reg, events) {
        Err(_) => f64::INFINITY,
        Ok(trace) => {
            let alpha = Parallelism::Seq
                .scope(|| arrival_upper(&trace, cfg.k_max, WindowMode::Exact))
                .unwrap();
            sizing::min_frequency_workload(&alpha, &gamma, cfg.capacity_events)
                .unwrap_or(f64::INFINITY)
        }
    }
}

/// The eq.-9 verdict and `f_min_hz` of a session after `n` applied
/// events: [`oracle_f_min`] over the whole prefix of demands and
/// timestamps the last refresh consumed.
fn oracle_verdict(demands: &[u64], times: &[f64], n: usize, cfg: &ServeConfig) -> (String, String) {
    let every = cfg.refresh_every as usize;
    let r = n / every * every;
    let f_min = oracle_f_min(&demands[..r], &times[..r], cfg);
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

fn timed_cfg(shards: usize, par: wcm_par::Parallelism) -> ServeConfig {
    ServeConfig {
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

/// Writes `sessions` as one interleaved stream and returns the final
/// snapshots of the live service at each read chunk size.
fn serve_timed(
    tag: &str,
    sessions: &[(String, Vec<u64>, Vec<f64>)],
    cfg: &ServeConfig,
) -> Vec<Vec<String>> {
    let dir = std::env::temp_dir().join(format!("wcm_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("{tag}.wcmt"));
    std::fs::write(&file, interleaved_stream(sessions)).unwrap();
    let runs = [97usize, 1024, 1 << 20]
        .iter()
        .map(|&chunk| serve_snapshots(&file, chunk, cfg.clone()))
        .collect();
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir(&dir).ok();
    runs
}

#[test]
fn whole_session_arrival_curve_matches_full_rescan() {
    // 2 000 events per session, each with a dense burst: the verdict
    // admits before the burst and rejects from the refresh that sees it.
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
    let cfg = timed_cfg(1, wcm_par::Parallelism::Seq);

    // Call by call, at several piece sizes, against the oracle.
    let mut verdicts = Vec::new();
    for (_, demands, times) in &sessions {
        verdicts.extend(walk_against_oracle(demands, times, 16, &cfg));
        walk_against_oracle(demands, times, 1, &cfg);
        walk_against_oracle(demands, times, 97, &cfg);
    }
    assert!(verdicts.iter().any(|v| v == "admit"), "{verdicts:?}");
    assert!(verdicts.iter().any(|v| v == "reject"), "{verdicts:?}");

    // The live service, whatever the read chunking and the shard count,
    // ends on the same verdicts as the oracle.
    for (shards, par) in [
        (1, wcm_par::Parallelism::Seq),
        (2, wcm_par::Parallelism::Threads(2)),
    ] {
        for lines in serve_timed("whole", &sessions, &timed_cfg(shards, par)) {
            assert_eq!(lines.len(), sessions.len());
            for (line, (name, demands, times)) in lines.iter().zip(&sessions) {
                assert!(line.contains(name.as_str()), "{line}");
                let (verdict, f_min) = oracle_verdict(demands, times, n_events, &cfg);
                assert_eq!(
                    (field(line, "verdict"), field(line, "f_min_hz")),
                    (verdict.as_str(), f_min.as_str()),
                    "shards={shards}: {line}"
                );
            }
        }
    }
}

#[test]
fn an_early_burst_rejects_to_the_end_of_a_long_stream() {
    // A dense burst in the first 300 stamps, then 6 016 events at the
    // base rate. The PE2 clock lies between the whole stream's f_min and
    // that of its last 4 096 stamps: an arrival curve measured on a
    // recent window alone forgets the burst and admits; the session's
    // whole-session curve rejects from the burst to the end.
    let n_events = 6016;
    let demands = demands_for(2, n_events);
    let period = 1.0 / 25.0;
    let mut t = 0.0;
    let times: Vec<f64> = (0..n_events)
        .map(|i| {
            t += if (200..260).contains(&i) {
                period / 8.0
            } else {
                period
            };
            t
        })
        .collect();
    let base = small_cfg(1, wcm_par::Parallelism::Seq);
    let whole = oracle_f_min(&demands, &times, &base);
    let recent = oracle_f_min(&demands, &times[n_events - 4096..], &base);
    assert!(recent < whole, "recent {recent} whole {whole}");
    let cfg = ServeConfig {
        frequency_hz: (recent + whole) / 2.0,
        ..base
    };
    let verdicts = walk_against_oracle(&demands, &times, 64, &cfg);
    let first_reject = verdicts
        .iter()
        .position(|v| v == "reject")
        .expect("the burst rejects");
    assert!(first_reject > 0, "{verdicts:?}");
    assert!(
        verdicts[first_reject..].iter().all(|v| v == "reject"),
        "{verdicts:?}"
    );
    assert!(verdicts.len() - first_reject > 80, "{verdicts:?}");
    // Behind a FIFO deeper than the horizon (b = 400 > k_max = 64), eq. 9
    // binds past the measured spans, on the tail rate: the average rate
    // of the whole stream, burst included.
    let deep = ServeConfig {
        k_max: 64,
        refresh_every: 64,
        capacity_events: 400,
        ..cfg
    };
    let line = batch_snapshot("s", &demands, &times, &deep);
    let (_, f_min) = oracle_verdict(&demands, &times, n_events, &deep);
    assert_eq!(field(&line, "f_min_hz"), f_min);
}

#[test]
fn inverted_timestamps_reject_to_the_end_of_the_stream() {
    // One stamp jumps back in time. From the first refresh that consumes
    // it, no arrival curve exists: every refresh to the end of the
    // stream rejects at f = ∞, as the oracle over the whole prefix does.
    let n_events = 1200;
    let demands = demands_for(1, n_events);
    let mut times = drifting_timestamps(1, n_events);
    let inverted = 400;
    times[inverted] = times[inverted - 1] - 0.5;
    let cfg = timed_cfg(1, wcm_par::Parallelism::Seq);
    let every = cfg.refresh_every as usize;
    let mut state = SessionState::new(&cfg);
    let (mut before, mut after) = (0, 0);
    for at in (0..n_events).step_by(every) {
        state.record_times(&times[at..at + every], &cfg);
        state.enqueue(&demands[at..at + every], &cfg);
        state.apply_pending(&cfg);
        let end = at + every;
        if end <= cfg.k_max {
            continue;
        }
        let line = state.snapshot_json("s");
        if end > inverted {
            assert_eq!(
                (field(&line, "verdict"), field(&line, "f_min_hz")),
                ("reject", "null"),
                "after {end} events"
            );
            after += 1;
        } else {
            assert_ne!(field(&line, "f_min_hz"), "null", "after {end} events");
            before += 1;
        }
        let (verdict, f_min) = oracle_verdict(&demands, &times, end, &cfg);
        assert_eq!(
            (field(&line, "verdict"), field(&line, "f_min_hz")),
            (verdict.as_str(), f_min.as_str()),
            "after {end} events: {line}"
        );
    }
    assert!(before > 10, "before {before}");
    assert_eq!(
        after,
        (n_events - inverted).div_ceil(every),
        "after {after}"
    );
    // The same stream through the live service: the decoder carries the
    // decreasing stamp (TIMES deltas are zigzag-coded), and the final
    // verdict still rejects at f = ∞.
    let sessions = [("inv".to_string(), demands, times)];
    for lines in serve_timed("inv", &sessions, &cfg) {
        assert_eq!(
            (field(&lines[0], "verdict"), field(&lines[0], "f_min_hz")),
            ("reject", "null")
        );
    }
}

/// Deterministic pseudo-random `u64`s (SplitMix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random demand stream whose level shifts every 200 events, with
/// rare spikes and zeros, so an envelope measured on a prefix is broken
/// later in the stream.
fn shifting_demands(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            let r = splitmix(&mut state);
            let level = 100 + 60 * ((i / 200) % 3) as u64;
            match r % 150 {
                0 => level * 5,
                1 => 0,
                _ => level + (r >> 32) % 60,
            }
        })
        .collect()
}

/// γᵘ/γˡ of `prefix` from a full window scan on the calling thread.
fn prefix_bounds(prefix: &[u64], k_max: usize) -> WorkloadBounds {
    let (upper, lower) = Parallelism::Seq.scope(|| {
        (
            max_window_sums(prefix, k_max, WindowMode::Exact).unwrap(),
            min_window_sums(prefix, k_max, WindowMode::Exact).unwrap(),
        )
    });
    WorkloadBounds {
        upper: UpperWorkloadCurve::new(upper).unwrap(),
        lower: LowerWorkloadCurve::new(lower).unwrap(),
    }
}

/// Total violations after each event (`out[n]` after `n` events) of a
/// monitor with the session's lifecycle, built by hand: created fresh at
/// the first refresh that has `k_max` events, fed one event at a time,
/// and rebound to the prefix's bounds at every later refresh.
fn oracle_violations(demands: &[u64], cfg: &ServeConfig) -> Vec<u64> {
    let every = cfg.refresh_every as usize;
    let mut monitor: Option<EnvelopeMonitor> = None;
    let mut out = vec![0];
    for (i, &d) in demands.iter().enumerate() {
        if let Some(m) = monitor.as_mut() {
            m.observe(d);
        }
        let n = i + 1;
        if n % every == 0 && n >= cfg.k_max {
            let bounds = prefix_bounds(&demands[..n], cfg.k_max);
            match monitor.as_mut() {
                Some(m) => m.rebind(&bounds),
                None => monitor = Some(EnvelopeMonitor::new(&bounds, cfg.k_max).unwrap()),
            }
        }
        out.push(
            monitor
                .as_ref()
                .map_or(0, EnvelopeMonitor::total_violations),
        );
    }
    out
}

#[test]
fn snapshots_match_an_independent_window_scan_oracle() {
    // Per (k_max, refresh_every): refreshes that warm for several
    // rounds, refresh every event, and refresh less often than k_max.
    let pairs = [(1usize, 1u64), (4, 7), (12, 5), (12, 16), (33, 64)];
    const KEYS: [&str; 6] = [
        "events",
        "k",
        "refreshes",
        "wcet",
        "gamma_u_k",
        "violations",
    ];
    let mut total_violations = 0;
    for (case, &(k_max, refresh_every)) in pairs.iter().enumerate() {
        let cfg = ServeConfig {
            k_max,
            refresh_every,
            session_buffer: 1 << 20,
            ..small_cfg(1, wcm_par::Parallelism::Seq)
        };
        let every = refresh_every as usize;
        for seed in 0..3u64 {
            let n_events = 450 + 97 * seed as usize + case;
            let demands = shifting_demands(seed * 31 + case as u64, n_events);
            let violations = oracle_violations(&demands, &cfg);
            total_violations += violations[n_events];
            for piece in [1usize, 97, n_events] {
                let mut state = SessionState::new(&cfg);
                for at in (0..n_events).step_by(piece) {
                    let n = (at + piece).min(n_events);
                    state.enqueue(&demands[at..n], &cfg);
                    state.apply_pending(&cfg);
                    let line = state.snapshot_json("s");
                    let r = n / every * every;
                    let (k, wcet, gamma_k) = if r >= k_max {
                        let up = Parallelism::Seq
                            .scope(|| max_window_sums(&demands[..r], k_max, WindowMode::Exact))
                            .unwrap();
                        (k_max, up[0], up[k_max - 1])
                    } else {
                        (0, 0, 0)
                    };
                    let want = [
                        n.to_string(),
                        k.to_string(),
                        (n / every).to_string(),
                        wcet.to_string(),
                        gamma_k.to_string(),
                        violations[n].to_string(),
                    ];
                    let got = KEYS.map(|key| field(&line, key).to_string());
                    assert_eq!(
                        got, want,
                        "k_max={k_max} refresh={refresh_every} seed={seed} piece={piece} after {n}"
                    );
                }
            }
        }
    }
    // The streams must break their own prefix envelopes, or the
    // violation half of the oracle checks nothing.
    assert!(total_violations > 0);
}
