//! `serve_fanin` and `serve_deep`: a restarted `wcm serve` catching up
//! on one `.wcmt` file tail until drained, one shard, sequential. The
//! two shapes use the same layers the opposite way round: many short
//! sessions make decode and routing the cost, few long timestamped
//! sessions make the per-session refresh the cost.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wcm::events::window::Parallelism;
use wcm::obs::span;
use wcm::serve::{RoutedBatch, ServeConfig, Service, SessionState, TailSource};

use crate::inputs::{self, SessionGen, SessionShape};
use crate::{spans, stats, Budget, Outcome};

pub struct Workload {
    tag: &'static str,
    shape: SessionShape,
    cfg: ServeConfig,
    /// Bytes each source may read per round.
    budget: usize,
    /// Latency samples are rounds (else whole catch-ups).
    per_round_latency: bool,
    /// Catch-ups per timed pass.
    catch_ups_per_pass: usize,
    /// Sessions whose snapshots are compared with the batch oracle.
    oracle_sessions: usize,
}

/// 10 000 sessions × 24 untimed events in sittings of 8.
pub fn fanin() -> Workload {
    Workload {
        tag: "serve_fanin",
        shape: SessionShape {
            sessions: 10_000,
            events: 24,
            sitting: 8,
            with_times: false,
        },
        cfg: ServeConfig {
            k_max: 8,
            refresh_every: 16,
            frequency_hz: 100.0e6,
            capacity_events: 400,
            shards: 1,
            par: Parallelism::Seq,
            ..ServeConfig::default()
        },
        budget: 1 << 20,
        per_round_latency: false,
        catch_ups_per_pass: 5,
        oracle_sessions: 256,
    }
}

/// 16 sessions × 64 000 timestamped events in sittings of 256.
pub fn deep() -> Workload {
    Workload {
        tag: "serve_deep",
        shape: SessionShape {
            sessions: 16,
            events: 64_000,
            sitting: 256,
            with_times: true,
        },
        cfg: ServeConfig {
            k_max: 64,
            refresh_every: 64,
            shards: 1,
            par: Parallelism::Seq,
            ..ServeConfig::default()
        },
        budget: 16 << 10,
        per_round_latency: true,
        catch_ups_per_pass: 1,
        oracle_sessions: 4,
    }
}

impl Workload {
    fn start(&self, path: &Path) -> io::Result<Service> {
        let mut svc = Service::new(self.cfg.clone());
        svc.add_tail(path)?;
        svc.set_budget(self.budget);
        Ok(svc)
    }

    fn events(&self) -> u64 {
        (self.shape.sessions * self.shape.events) as u64
    }

    /// The batch oracle's snapshot of session `s`: one `SessionState`
    /// fed the session's whole stream, times ahead of their demands. It
    /// goes in 1024 events at a time because a session force-consumes
    /// staged timestamps beyond `2 · times_window + session_buffer`.
    fn oracle(&self, seed: u64, s: usize, path: &Path) -> String {
        let cfg = &self.cfg;
        let mut state = SessionState::new(cfg);
        let mut gen = SessionGen::new(seed, s);
        let (mut demands, mut times) = (Vec::new(), Vec::new());
        for at in (0..self.shape.events).step_by(1024) {
            demands.clear();
            times.clear();
            gen.take(1024.min(self.shape.events - at), &mut demands, &mut times);
            if self.shape.with_times {
                state.record_times(&times, cfg);
            }
            state.enqueue(&demands, cfg);
            state.apply_pending(cfg);
        }
        state.snapshot_json(&display_name(path, s))
    }
}

/// How the service names a session of a file tail in its snapshots.
fn display_name(path: &Path, s: usize) -> String {
    format!("file:{}/{}", path.display(), inputs::session_name(s))
}

/// A scratch file beside the benchmark executable (inside the build
/// directory), unique to this process.
fn work_file(tag: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("bench_e2e-work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("{tag}-{}.wcmt", std::process::id())))
}

/// One catch-up of a fresh service on the file: rounds until the tail
/// is idle, then the drain.
struct CatchUp {
    svc: Service,
    /// Seconds to start the service on the file: the set-up.
    setup_s: f64,
    /// Seconds of each round, the drain last.
    rounds: Vec<f64>,
    dead: usize,
}

fn catch_up(w: &Workload, path: &Path) -> io::Result<CatchUp> {
    let t = Instant::now();
    let mut svc = w.start(path)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut rounds = Vec::new();
    let mut dead = 0;
    loop {
        let t = Instant::now();
        let report = {
            let _s = span("bench.serve.round");
            svc.round()?
        };
        rounds.push(t.elapsed().as_secs_f64());
        dead += report.dead.len();
        if report.idle {
            break;
        }
    }
    let t = Instant::now();
    let drained = {
        let _s = span("bench.serve.drain");
        svc.drain()?
    };
    rounds.push(t.elapsed().as_secs_f64());
    dead += drained.dead.len();
    Ok(CatchUp {
        svc,
        setup_s,
        rounds,
        dead,
    })
}

pub fn run(w: &Workload, seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let path = match work_file(w.tag)
        .and_then(|p| std::fs::write(&p, inputs::session_stream(seed, w.shape)).map(|()| p))
    {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || format!("writing the {} stream: {e}", w.tag));
            return out;
        }
    };
    measure(w, seed, budget, &path, &mut out);
    if let Err(e) = std::fs::remove_file(&path) {
        eprintln!("bench_e2e: removing {}: {e}", path.display());
    }
    if let Some(dir) = path.parent() {
        // Only succeeds once no other run is using the directory.
        let _ = std::fs::remove_dir(dir);
    }
    out
}

fn measure(w: &Workload, seed: u64, budget: Budget, path: &Path, out: &mut Outcome) {
    let step = w.shape.sessions / w.oracle_sessions;
    let sample: Vec<(usize, String)> = (0..w.oracle_sessions)
        .map(|j| (j * step, w.oracle(seed, j * step, path)))
        .collect();
    let check = |out: &mut Outcome, c: io::Result<CatchUp>| {
        let c = match c {
            Ok(c) => c,
            Err(e) => return out.check(false, || format!("{}: {e}", w.tag)),
        };
        let stats = c.svc.stats();
        out.check(stats.events == w.events(), || {
            format!(
                "{}: {} events applied, {} sent",
                w.tag,
                stats.events,
                w.events()
            )
        });
        out.check(c.dead == 0, || {
            format!("{}: {} source(s) died", w.tag, c.dead)
        });
        let lines = c.svc.snapshots();
        out.check(lines.len() == w.shape.sessions, || {
            format!(
                "{}: {} sessions, {} sent",
                w.tag,
                lines.len(),
                w.shape.sessions
            )
        });
        for (s, want) in &sample {
            let got = lines.get(*s).map_or("", String::as_str);
            out.check(got == want, || {
                format!(
                    "{}: session {s} snapshot {got} differs from the batch oracle {want}",
                    w.tag
                )
            });
        }
    };

    // A traced run also replays the two layers under the service once
    // per untraced pass, right after that pass's catch-ups, so each
    // layer replay is paired with catch-ups measured moments before it.
    let mut layers: Vec<(f64, f64, f64)> = Vec::new();
    let mut setups = Vec::new();
    let mut catch_ups = Vec::new();
    let mut rounds = Vec::new();
    let mut heap = Vec::new();
    let passes = crate::timed_passes(budget.untraced, || {
        let mut secs = Vec::new();
        let mut pass_catch_ups = Vec::new();
        for _ in 0..w.catch_ups_per_pass {
            let (c, _, m) = crate::request(|| catch_up(w, path));
            heap.push(m);
            if let Ok(c) = &c {
                let total: f64 = c.rounds.iter().sum();
                if w.per_round_latency {
                    secs.extend_from_slice(&c.rounds);
                } else {
                    secs.push(total);
                }
                setups.push(c.setup_s);
                pass_catch_ups.push(total);
                rounds.extend_from_slice(&c.rounds);
            }
            check(out, c);
        }
        if budget.traced.is_some() {
            match layer_replay(w, path) {
                Ok(r) => {
                    for (s, want) in &sample {
                        let got = r.states[*s]
                            .as_ref()
                            .map(|st| st.snapshot_json(&display_name(path, *s)));
                        out.check(got.as_ref() == Some(want), || {
                            format!(
                                "{}: replayed session {s} differs from the batch oracle",
                                w.tag
                            )
                        });
                    }
                    layers.push((stats::median(&pass_catch_ups), r.ingest_s, r.session_s));
                }
                Err(e) => out.check(false, || format!("{}: layer replay: {e}", w.tag)),
            }
        }
        catch_ups.extend(pass_catch_ups);
        secs
    });
    if setups.is_empty() {
        return;
    }
    out.set("setup_s", stats::median(&setups));
    out.set_timing((w.events() * w.catch_ups_per_pass as u64) as f64, &passes);
    out.set_heap(&heap);

    let Some(traced) = budget.traced else {
        return;
    };
    let (traced_catch_ups, snap) = crate::with_tracing(|| {
        let mut secs = Vec::new();
        crate::timed_passes(traced, || {
            let c = catch_up(w, path);
            if let Ok(c) = &c {
                secs.push(c.rounds.iter().sum());
            }
            check(out, c);
            Vec::new()
        });
        secs
    });
    let catch_up_s = stats::median(&catch_ups);
    let replays = traced_catch_ups.len() as f64;
    let a = spans::attribute(&snap.spans);
    let refresh = a.get("serve.refresh").copied().unwrap_or_default();
    out.set("serve.refresh_ms", refresh.total_ns as f64 / 1e6 / replays);
    out.set("serve.refreshes", refresh.count as f64 / replays);
    out.set(
        "obs.overhead_frac",
        stats::median(&traced_catch_ups) / catch_up_s - 1.0,
    );
    out.snapshot = Some(snap);

    // A catch-up is nothing but rounds and the drain.
    out.set("serve.round_ms", catch_up_s * 1e3);
    out.set("serve.round_ms_p99", stats::quantile(&rounds, 0.99) * 1e3);
    let peak = heap.iter().map(|m| m.peak_bytes).max().unwrap_or(0);
    out.set(
        "serve.heap_bytes_per_session",
        peak as f64 / w.shape.sessions as f64,
    );
    let median_ms = |f: fn(&(f64, f64, f64)) -> f64| {
        stats::median(&layers.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    out.set("serve.ingest_ms", median_ms(|l| l.1));
    out.set("serve.session_ms", median_ms(|l| l.2));
    out.set("serve.service_self_ms", median_ms(|l| l.0 - l.1 - l.2));
}

/// The two layers under the service, replayed without it.
struct LayerReplay {
    /// Seconds in `TailSource::poll`.
    ingest_s: f64,
    /// Seconds in `SessionState::{record_times, enqueue, apply_pending}`.
    session_s: f64,
    states: Vec<Option<SessionState>>,
}

/// Polls the file at the service's read budget and hands each poll's
/// batches straight to their sessions, as a round does, timing the two
/// layers apart. What the service adds on top (keys, shard maps,
/// counters) is the difference to a round.
fn layer_replay(w: &Workload, path: &Path) -> io::Result<LayerReplay> {
    let cfg = &w.cfg;
    let mut src = TailSource::open(path)?;
    let mut r = LayerReplay {
        ingest_s: 0.0,
        session_s: 0.0,
        states: (0..w.shape.sessions).map(|_| None).collect(),
    };
    loop {
        let t = Instant::now();
        let poll = src.poll(w.budget, false)?;
        r.ingest_s += t.elapsed().as_secs_f64();
        if let Some(e) = poll.dead {
            return Err(io::Error::other(e.to_string()));
        }
        let batches = poll
            .batches
            .into_iter()
            .map(|(name, batch)| {
                name.strip_prefix('s')
                    .and_then(|n| n.parse().ok())
                    .filter(|&s: &usize| s < w.shape.sessions)
                    .map(|s| (s, batch))
                    .ok_or_else(|| io::Error::other(format!("unknown session {name:?}")))
            })
            .collect::<io::Result<Vec<(usize, RoutedBatch)>>>()?;
        let t = Instant::now();
        for (s, batch) in &batches {
            let state = r.states[*s].get_or_insert_with(|| SessionState::new(cfg));
            if !batch.times.is_empty() {
                state.record_times(&batch.times, cfg);
            }
            state.enqueue(&batch.demands, cfg);
            state.apply_pending(cfg);
        }
        r.session_s += t.elapsed().as_secs_f64();
        if poll.bytes == 0 {
            return Ok(r);
        }
    }
}
