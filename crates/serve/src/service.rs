//! The service proper: sources in, sharded sessions in the middle,
//! snapshots/metrics out.
//!
//! Each [`Service::round`] is one deterministic sweep: poll every
//! source (respecting per-source backpressure stalls), route the
//! decoded batches to their sessions' shards, then fan the shards out
//! over the `wcm-par` pool — each shard locks independently, so the
//! parallel step is uncontended — and fold the per-shard outcomes into
//! service counters. Session state only ever mutates inside the shard
//! step, and the event-count refresh cadence of
//! [`crate::session::SessionState`] makes every snapshot
//! independent of how rounds, polls, and shard threads sliced the
//! stream.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use wcm_wire::WireError;

use crate::config::ServeConfig;
use crate::ingest::{Poll, RoutedBatch, TailSource, TcpSource};
use crate::session::SessionState;

/// Separator between source id and session name in the canonical
/// session key (neither side can contain it: source ids are
/// `file:`/`tcp:` prefixed paths/addrs, names come from `META` text).
const KEY_SEP: char = '\u{1f}';

/// One shard: the subset of sessions whose key hashes here.
#[derive(Debug, Default)]
struct Shard {
    sessions: BTreeMap<String, SessionState>,
}

/// What one shard did during the parallel apply step.
#[derive(Debug, Default, Clone, Copy)]
struct ShardOutcome {
    events: u64,
    violations: u64,
    flips: u64,
    dropped: u64,
    sessions: usize,
    /// A session on this shard reported a full buffer (source stall).
    fulls: usize,
}

/// Aggregate of one [`Service::round`].
#[derive(Debug, Default, Clone)]
pub struct RoundReport {
    /// Bytes consumed across all sources.
    pub bytes: u64,
    /// Events applied to sessions.
    pub events: u64,
    /// Fresh monitor violations this round.
    pub violations: u64,
    /// Admission flips this round.
    pub flips: u64,
    /// Events dropped by overflow policies this round.
    pub dropped: u64,
    /// Sources that failed permanently this round, with the wire error.
    pub dead: Vec<(String, WireError)>,
    /// Every live tail source has consumed a clean end marker and no
    /// new bytes arrived (the natural idle-exit condition).
    pub idle: bool,
}

/// Cumulative service statistics.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Total bytes ingested.
    pub bytes: u64,
    /// Total events applied.
    pub events: u64,
    /// Total monitor violations.
    pub violations: u64,
    /// Total admission flips.
    pub flips: u64,
    /// Total events dropped by overflow policies.
    pub dropped: u64,
    /// Live sessions.
    pub sessions: usize,
    /// Sources that died on malformed input.
    pub dead_sources: u64,
    /// Rounds where at least one source was stalled by backpressure.
    pub stall_rounds: u64,
}

/// The long-lived monitoring service: live `.wcmt` sources demuxed
/// into per-session curves/monitors/admission, sharded over the
/// `wcm-par` pool.
#[derive(Debug)]
pub struct Service {
    cfg: ServeConfig,
    shards: Vec<Mutex<Shard>>,
    tails: Vec<TailSource>,
    tcp: Option<TcpSource>,
    /// Source ids stalled by backpressure (skip reads next round).
    stalled: Vec<String>,
    stats: ServiceStats,
    /// Per-poll read budget per source, bytes.
    budget: usize,
}

impl Service {
    /// Fresh service under `cfg`; add sources before the first round.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        let n = cfg.effective_shards().max(1);
        Self {
            cfg,
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            tails: Vec::new(),
            tcp: None,
            stalled: Vec::new(),
            stats: ServiceStats::default(),
            budget: 1 << 20,
        }
    }

    /// The configuration the service runs under.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Override the per-source per-round read budget (bytes).
    pub fn set_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(1);
    }

    /// Tail a `.wcmt` file.
    ///
    /// # Errors
    ///
    /// I/O errors opening the file.
    pub fn add_tail(&mut self, path: &Path) -> io::Result<()> {
        self.tails.push(TailSource::open(path)?);
        Ok(())
    }

    /// Start accepting `.wcmt` connections on `addr`; returns the
    /// bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn listen(&mut self, addr: &str) -> io::Result<std::net::SocketAddr> {
        let src = TcpSource::bind(addr)?;
        let bound = src.local_addr()?;
        self.tcp = Some(src);
        Ok(bound)
    }

    /// Stable shard of a session key (FNV-1a so placement does not
    /// depend on the process's hash seed).
    fn shard_of(&self, key: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// One sweep: poll sources, route, apply shards in parallel, fold
    /// counters.
    ///
    /// # Errors
    ///
    /// I/O errors from source polling (wire errors are folded into the
    /// report instead).
    pub fn round(&mut self) -> io::Result<RoundReport> {
        let _span = wcm_obs::span("serve.round");
        let mut report = RoundReport::default();
        let mut inboxes: Vec<Vec<(String, RoutedBatch)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut ended = 0usize;
        let mut polled = 0usize;

        let stalled = std::mem::take(&mut self.stalled);
        let mut polls: Vec<(String, Poll)> = Vec::new();
        for tail in &mut self.tails {
            let stall = stalled.iter().any(|s| s == &tail.id);
            let poll = tail.poll(self.budget, stall)?;
            polls.push((tail.id.clone(), poll));
        }
        if let Some(tcp) = &mut self.tcp {
            polls.extend(tcp.poll(self.budget, false)?);
        }
        if !stalled.is_empty() {
            self.stats.stall_rounds += 1;
            wcm_obs::counter("serve.backpressure_stalls", stalled.len() as u64);
        }

        for (src, poll) in polls {
            polled += 1;
            report.bytes += poll.bytes as u64;
            if poll.ended {
                ended += 1;
            }
            if let Some(err) = poll.dead {
                report.dead.push((src.clone(), err));
            }
            for (name, batch) in poll.batches {
                let key = format!("{src}{KEY_SEP}{name}");
                let shard = self.shard_of(&key);
                inboxes[shard].push((key, batch));
            }
        }

        // Parallel apply: one task per shard, each locking only its own
        // shard — the pool sees uncontended mutexes.
        let inboxes: Vec<Mutex<Vec<(String, RoutedBatch)>>> =
            inboxes.into_iter().map(Mutex::new).collect();
        let cfg = &self.cfg;
        let shards = &self.shards;
        let cost = (report.bytes / self.shards.len().max(1) as u64).max(1024);
        let apply = |i: usize, inbox: &Mutex<Vec<(String, RoutedBatch)>>| {
            let mut out = ShardOutcome::default();
            let batches = std::mem::take(&mut *inbox.lock().expect("inbox lock"));
            let mut shard = shards[i].lock().expect("shard lock");
            for (key, batch) in batches {
                let session = shard
                    .sessions
                    .entry(key)
                    .or_insert_with(|| SessionState::new(cfg));
                let flips_before = session.flips();
                if !batch.times.is_empty() {
                    session.record_times(&batch.times, cfg);
                }
                let enq = session.enqueue(&batch.demands, cfg);
                out.dropped += enq.dropped as u64;
                if enq.full {
                    out.fulls += 1;
                }
                out.events += enq.accepted as u64;
                out.violations += session.apply_pending(cfg);
                out.flips += session.flips() - flips_before;
            }
            out.sessions = shard.sessions.len();
            out
        };
        let outcomes = cfg.par.scope(|| wcm_par::par_map(&inboxes, cost, apply));

        let mut sessions = 0usize;
        let mut fulls = 0usize;
        for out in &outcomes {
            report.events += out.events;
            report.violations += out.violations;
            report.flips += out.flips;
            report.dropped += out.dropped;
            sessions += out.sessions;
            fulls += out.fulls;
        }
        // Backpressure: a full session buffer stalls every *tail*
        // source next round (sessions are not mapped back to sources,
        // so the stall is conservative); TCP peers are throttled by the
        // socket's own flow control instead.
        if fulls > 0 && matches!(self.cfg.policy, wcm_sim::OverflowPolicy::Backpressure) {
            self.stalled = self.tails.iter().map(|t| t.id.clone()).collect();
        }
        for (src, _) in &report.dead {
            self.tails.retain(|t| &t.id != src);
            self.stats.dead_sources += 1;
        }
        report.idle = report.bytes == 0
            && polled > 0
            && ended == polled
            && self.tcp.as_ref().is_none_or(|t| t.open_conns() == 0);

        self.stats.rounds += 1;
        self.stats.bytes += report.bytes;
        self.stats.events += report.events;
        self.stats.violations += report.violations;
        self.stats.flips += report.flips;
        self.stats.dropped += report.dropped;
        self.stats.sessions = sessions;
        wcm_obs::counter("serve.events", report.events);
        wcm_obs::counter("serve.violations", report.violations);
        wcm_obs::counter("serve.dropped", report.dropped);
        wcm_obs::gauge_max("serve.sessions", sessions as u64);
        Ok(report)
    }

    /// Graceful drain: keep polling until every source is quiet, then
    /// force a final refresh of every session with unfolded events so
    /// snapshots reflect the whole stream.
    ///
    /// # Errors
    ///
    /// I/O errors from the final polls.
    pub fn drain(&mut self) -> io::Result<RoundReport> {
        let _span = wcm_obs::span("serve.drain");
        let mut total = RoundReport::default();
        // Backpressure stalls are void during drain: nothing new is
        // admitted after the pending bytes, so flush them through.
        loop {
            self.stalled.clear();
            let report = self.round()?;
            total.bytes += report.bytes;
            total.events += report.events;
            total.violations += report.violations;
            total.flips += report.flips;
            total.dropped += report.dropped;
            total.dead.extend(report.dead);
            total.idle = report.idle;
            if report.bytes == 0 {
                break;
            }
        }
        Ok(total)
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Snapshot every session as one stable JSON line, sorted by
    /// session key — the byte-parity surface of the determinism tests.
    #[must_use]
    pub fn snapshots(&self) -> Vec<String> {
        let mut keyed: Vec<(String, String)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (key, session) in &shard.sessions {
                let name = key.replace(KEY_SEP, "/");
                keyed.push((key.clone(), session.snapshot_json(&name)));
            }
        }
        keyed.sort();
        keyed.into_iter().map(|(_, line)| line).collect()
    }

    /// Visit every session (key, state) in deterministic key order.
    pub fn for_each_session(&self, mut f: impl FnMut(&str, &SessionState)) {
        let mut order: Vec<(String, usize)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("shard lock");
            for key in shard.sessions.keys() {
                order.push((key.clone(), i));
            }
        }
        order.sort();
        for (key, i) in order {
            let shard = self.shards[i].lock().expect("shard lock");
            if let Some(session) = shard.sessions.get(&key) {
                f(&key, session);
            }
        }
    }

    /// Live session count.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").sessions.len())
            .sum()
    }

    /// Live tail sources.
    #[must_use]
    pub fn tail_count(&self) -> usize {
        self.tails.len()
    }
}

/// Peak resident set size of this process in kiB (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it — the flat-memory
/// guard of `serve_smoke.sh` reads this.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}
