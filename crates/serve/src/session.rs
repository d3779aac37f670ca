//! Per-session state: one [`EnvelopeMonitor`] over the demands, one
//! [`SpanMinima`] table over the timestamps, and the eq.-9 admission
//! verdict, refreshed on a deterministic event-count cadence. Both
//! curves of eq. 9 cover the whole session: the monitor keeps the
//! running per-`k` maximum demand (γᵘ), the table the running per-`k`
//! minimum span (ᾱ). A refresh reads them, binds the monitor to its
//! curves the first time (checks begin with the windows that start
//! after it) and rebinds it at every later refresh.
//!
//! ## Determinism contract
//!
//! Every decision a session makes — when to refresh, what envelope the
//! monitor is rebound to, what the admission verdict is — depends only
//! on the *prefix of events seen so far*, never on how those events
//! were chunked across polls, sources, or shard threads. Feeding a
//! whole trace in one call is therefore byte-identical (snapshots and
//! all) to feeding it event by event: the batch path and the live path
//! are the same code. `tests/determinism.rs` pins the serve pipeline
//! against a batch oracle built from full window scans and a
//! hand-driven `EnvelopeMonitor`.

use std::collections::VecDeque;

use wcm_core::{build::arrival_upper_from_spans, sizing, EnvelopeMonitor, UpperWorkloadCurve};
use wcm_curves::arrival::PeriodicJitter;
use wcm_events::window::SpanMinima;
use wcm_sim::OverflowPolicy;

use crate::config::ServeConfig;

/// Staged timestamps a session holds beyond its ingest buffer before it
/// force-consumes them (see [`SessionState::record_times`]).
const STAGED_TIMES: usize = 2 * 4096;

/// The eq.-9 admission verdict of one session: can this stream join
/// PE2 at the configured frequency without overflowing the FIFO?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Not enough events yet for a dense envelope (fewer than `k_max`).
    Warming,
    /// `f_min ≤ f_PE2`: the stream fits.
    Admit {
        /// Minimum feasible PE2 frequency (eq. 9), Hz.
        f_min_hz: f64,
    },
    /// `f_min > f_PE2` (or no finite frequency suffices).
    Reject {
        /// Minimum feasible PE2 frequency, Hz; infinite when the
        /// instantaneous burst alone overflows the FIFO.
        f_min_hz: f64,
    },
}

impl Admission {
    /// Whether the verdict admits the stream.
    #[must_use]
    pub fn admitted(&self) -> bool {
        matches!(self, Admission::Admit { .. })
    }
}

/// Outcome of routing one batch of demands into a session's bounded
/// ingest buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnqueueOutcome {
    /// Events accepted into the pending buffer.
    pub accepted: usize,
    /// Events dropped by the overflow policy.
    pub dropped: usize,
    /// The buffer is at/over capacity — under
    /// [`OverflowPolicy::Backpressure`] the source must stop feeding
    /// until the next apply drains it.
    pub full: bool,
}

/// All state the service keeps for one `(source, name)` stream.
#[derive(Debug)]
pub struct SessionState {
    /// Measures γᵘ/γˡ from the first event; checks windows once bound.
    monitor: EnvelopeMonitor,
    /// Running minimal spans of every *consumed* timestamp, for the
    /// empirical arrival curve ᾱ: the whole session, like the monitor's
    /// γᵘ. Timestamps pair with demands index-wise: time `i` belongs to
    /// event `i`, and is consumed exactly when event `i` is applied —
    /// so every refresh sees the timestamps of the events applied so
    /// far, never a chunk-dependent superset. The table is allocated at
    /// the first consumed timestamp, so untimed sessions stay small.
    times: Option<Box<SpanMinima>>,
    /// Timestamps received but not yet consumed (their events are
    /// still pending or in flight).
    times_in: VecDeque<f64>,
    /// Demands decoded but not yet applied (bounded by
    /// `cfg.session_buffer` + one frame under backpressure).
    pending: VecDeque<u64>,
    events: u64,
    since_refresh: u64,
    refreshes: u64,
    violations: u64,
    dropped: u64,
    admission: Admission,
    flips: u64,
    /// Refreshes that found no workload or arrival curve to size by.
    errors: u64,
    /// γᵘ(1) and γᵘ(k) of the last refresh, for snapshots.
    wcet: u64,
    gamma_k: u64,
    k_eff: usize,
}

impl SessionState {
    /// Fresh session under `cfg`.
    #[must_use]
    pub fn new(cfg: &ServeConfig) -> Self {
        Self {
            monitor: EnvelopeMonitor::unbound(cfg.k_max.max(1))
                .expect("a window depth of at least 1"),
            times: None,
            times_in: VecDeque::new(),
            pending: VecDeque::new(),
            events: 0,
            since_refresh: 0,
            refreshes: 0,
            violations: 0,
            dropped: 0,
            admission: Admission::Warming,
            flips: 0,
            errors: 0,
            wcet: 0,
            gamma_k: 0,
            k_eff: 0,
        }
    }

    /// Route freshly decoded demands into the bounded pending buffer
    /// under the configured overflow policy.
    pub fn enqueue(&mut self, demands: &[u64], cfg: &ServeConfig) -> EnqueueOutcome {
        let cap = cfg.session_buffer.max(1);
        let mut out = EnqueueOutcome::default();
        match cfg.policy {
            OverflowPolicy::Backpressure => {
                // Whole frames are accepted (they were already decoded);
                // the buffer may transiently exceed `cap` by one frame,
                // and `full` tells the source to stop reading bytes.
                self.pending.extend(demands.iter().copied());
                out.accepted = demands.len();
            }
            OverflowPolicy::Reject => {
                let free = cap.saturating_sub(self.pending.len());
                let take = demands.len().min(free);
                self.pending.extend(demands[..take].iter().copied());
                out.accepted = take;
                out.dropped = demands.len() - take;
            }
            OverflowPolicy::DropByPriority => {
                self.pending.extend(demands.iter().copied());
                out.accepted = demands.len();
                let excess = self.pending.len().saturating_sub(cap);
                if excess > 0 {
                    // Evict the smallest-demand pending events (lowest
                    // priority); earliest wins ties so eviction is
                    // deterministic. Removing a minimum never reorders
                    // the rest, so the victims are exactly the `excess`
                    // smallest `(demand, position)` keys: select the
                    // largest of them, then drop every key up to it.
                    let mut keys: Vec<(u64, usize)> =
                        self.pending.iter().copied().zip(0..).collect();
                    let (_, &mut last, _) = keys.select_nth_unstable(excess - 1);
                    let mut pos = 0;
                    self.pending.retain(|&d| {
                        let keep = (d, pos) > last;
                        pos += 1;
                        keep
                    });
                    out.dropped = excess;
                    out.accepted -= excess;
                }
            }
        }
        self.dropped += out.dropped as u64;
        out.full = self.pending.len() >= cap;
        out
    }

    /// Record observed timestamps. They are staged, not used: each is
    /// consumed into the span table when its same-index demand is
    /// applied. A well-formed live stream writes a `TIMES` frame
    /// before (or with) the `DEMANDS` it stamps, so consumption never
    /// has to wait.
    pub fn record_times(&mut self, times: &[f64], cfg: &ServeConfig) {
        self.times_in.extend(times.iter().copied());
        // Degenerate streams (timestamps without demands) must not grow
        // without bound: force-consume the excess. This only fires when
        // the pairing contract is already broken.
        let cap = STAGED_TIMES.saturating_add(cfg.session_buffer);
        if self.times_in.len() > cap {
            let over = self.times_in.len() - cap;
            self.consume_times(over, cfg);
        }
    }

    /// Move up to `n` staged timestamps into the span table.
    fn consume_times(&mut self, n: usize, cfg: &ServeConfig) {
        let n = n.min(self.times_in.len());
        if n == 0 {
            return;
        }
        let times = self
            .times
            .get_or_insert_with(|| Box::new(SpanMinima::new(cfg.k_max.max(1))));
        for t in self.times_in.drain(..n) {
            times.push(t);
        }
    }

    /// Apply every pending demand: feed the monitor, and run a refresh
    /// (curves + rebind + admission) at each `refresh_every`-event
    /// boundary. Returns new violations caused.
    pub fn apply_pending(&mut self, cfg: &ServeConfig) -> u64 {
        let mut fresh = 0u64;
        let every = cfg.refresh_every.max(1);
        while !self.pending.is_empty() {
            let room = usize::try_from(every - self.since_refresh).unwrap_or(usize::MAX);
            let n = self.pending.len().min(room);
            {
                let _span = wcm_obs::span("serve.scan");
                fresh += self.monitor.observe_all(self.pending.drain(..n)) as u64;
            }
            self.events += n as u64;
            self.since_refresh += n as u64;
            // Consume the timestamps of exactly the events applied so
            // far (catching up if earlier times arrived late).
            let used = self.times.as_ref().map_or(0, |t| t.len());
            let due = usize::try_from(self.events).map_or(usize::MAX, |n| n.saturating_sub(used));
            self.consume_times(due, cfg);
            if self.since_refresh >= every {
                self.refresh(cfg);
                self.since_refresh = 0;
            }
        }
        self.violations += fresh;
        fresh
    }

    /// Read the monitor's measured curves, bind or rebind the monitor to
    /// them and recompute the eq.-9 admission verdict, counting a flip
    /// (admit ↔ reject).
    fn refresh(&mut self, cfg: &ServeConfig) {
        let _span = wcm_obs::span("serve.refresh");
        self.refreshes += 1;
        let verdict = match self.monitor.measured_bounds() {
            Ok(None) => return, // warming: fewer than k_max events
            Ok(Some(bounds)) => {
                let k_eff = bounds.upper.k_max();
                self.wcet = bounds.upper.value(1).get();
                self.gamma_k = bounds.upper.value(k_eff).get();
                // `k_eff` is 0 until the first curves: bind then, so
                // checks begin with the windows that start after now.
                if cfg.monitor && self.k_eff == 0 {
                    self.monitor.bind(&bounds);
                } else {
                    self.monitor.rebind(&bounds);
                }
                self.k_eff = k_eff;
                self.decide(&bounds.upper, k_eff, cfg)
            }
            Err(_) => {
                // A window summed past u64::MAX: no curve to size PE2 by.
                self.errors += 1;
                Admission::Reject {
                    f_min_hz: f64::INFINITY,
                }
            }
        };
        if matches!(
            (self.admission, verdict),
            (Admission::Admit { .. }, Admission::Reject { .. })
                | (Admission::Reject { .. }, Admission::Admit { .. })
        ) {
            self.flips += 1;
            wcm_obs::counter("serve.admission_flips", 1);
        }
        self.admission = verdict;
    }

    /// Eq. 9 against the configured PE2: the empirical arrival curve of
    /// every timestamp consumed so far when the stream carries more than
    /// `k_eff` of them, the configured periodic-with-jitter model
    /// otherwise.
    fn decide(&mut self, gamma_u: &UpperWorkloadCurve, k_eff: usize, cfg: &ServeConfig) -> Admission {
        let alpha_span = wcm_obs::span("serve.alpha");
        let alpha = match self.times.as_deref() {
            Some(times) if times.len() > k_eff => times.min_spans().ok().and_then(|spans| {
                arrival_upper_from_spans(spans, times.len(), times.duration()).ok()
            }),
            _ => PeriodicJitter::new(
                cfg.period_s.max(f64::MIN_POSITIVE),
                cfg.jitter_s.max(0.0),
                0.0,
            )
            .and_then(|m| m.to_step_upper(cfg.period_s * (k_eff as f64 + 1.0)))
            .ok(),
        };
        drop(alpha_span);
        let Some(alpha) = alpha else {
            self.errors += 1;
            return Admission::Reject {
                f_min_hz: f64::INFINITY,
            };
        };
        let _span = wcm_obs::span("serve.eq9");
        match sizing::min_frequency_workload(&alpha, gamma_u, cfg.capacity_events) {
            Ok(f_min_hz) if f_min_hz <= cfg.frequency_hz => Admission::Admit { f_min_hz },
            Ok(f_min_hz) => Admission::Reject { f_min_hz },
            Err(_) => Admission::Reject {
                f_min_hz: f64::INFINITY,
            },
        }
    }

    /// Events applied so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events decoded but not yet applied.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total monitor violations so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Events dropped by the overflow policy.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Admission flips so far.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Current admission verdict.
    #[must_use]
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// One stable JSON object describing the session — the byte-level
    /// parity surface between the live and batch paths.
    #[must_use]
    pub fn snapshot_json(&self, name: &str) -> String {
        let (verdict, f_min) = match self.admission {
            Admission::Warming => ("warming", None),
            Admission::Admit { f_min_hz } => ("admit", Some(f_min_hz)),
            Admission::Reject { f_min_hz } => ("reject", Some(f_min_hz)),
        };
        let f_min = match f_min {
            Some(f) if f.is_finite() => format!("{f:.3}"),
            Some(_) => "null".to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"session\":{name:?},\"events\":{events},\"k\":{k},",
                "\"refreshes\":{refreshes},\"wcet\":{wcet},\"gamma_u_k\":{gk},",
                "\"verdict\":\"{verdict}\",\"f_min_hz\":{fmin},",
                "\"violations\":{viol},\"dropped\":{dropped},\"flips\":{flips}}}"
            ),
            name = name,
            events = self.events,
            k = self.k_eff,
            refreshes = self.refreshes,
            wcet = self.wcet,
            gk = self.gamma_k,
            verdict = verdict,
            fmin = f_min,
            viol = self.violations,
            dropped = self.dropped,
            flips = self.flips,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eviction loop `enqueue` replaced: one linear scan for the
    /// smallest `(demand, position)` and one removal per excess event.
    fn evict_one_at_a_time(pending: &mut VecDeque<u64>, cap: usize) -> usize {
        let mut dropped = 0;
        while pending.len() > cap {
            let (idx, _) = pending
                .iter()
                .enumerate()
                .min_by_key(|&(i, &d)| (d, i))
                .unwrap();
            pending.remove(idx);
            dropped += 1;
        }
        dropped
    }

    #[test]
    fn drop_by_priority_evicts_like_the_one_at_a_time_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for cap in [1usize, 2, 7, 64] {
            // Demand ranges from all-tied (1) to nearly distinct.
            for range in [1u64, 3, 10, 1_000_000] {
                let cfg = ServeConfig {
                    policy: OverflowPolicy::DropByPriority,
                    session_buffer: cap,
                    ..ServeConfig::default()
                };
                let mut state = SessionState::new(&cfg);
                let mut model = VecDeque::new();
                for _ in 0..40 {
                    let batch: Vec<u64> =
                        (0..next(3 * cap as u64 + 2)).map(|_| next(range)).collect();
                    let out = state.enqueue(&batch, &cfg);
                    model.extend(batch.iter().copied());
                    let dropped = evict_one_at_a_time(&mut model, cap);
                    assert_eq!(state.pending, model, "cap {cap} range {range}");
                    assert_eq!(
                        (out.dropped, out.accepted),
                        (dropped, batch.len() - dropped)
                    );
                    if next(4) == 0 {
                        let drain = next(model.len() as u64 + 1) as usize;
                        state.pending.drain(..drain);
                        model.drain(..drain);
                    }
                }
            }
        }
    }

    #[test]
    fn a_window_sum_past_u64_max_rejects_instead_of_panicking() {
        let cfg = ServeConfig {
            k_max: 4,
            refresh_every: 4,
            ..ServeConfig::default()
        };
        let mut state = SessionState::new(&cfg);
        let mut demands = vec![u64::MAX];
        demands.extend(1..=9);
        state.enqueue(&demands, &cfg);
        state.apply_pending(&cfg);
        // Both refreshes (after 4 and 8 events) see the first window
        // [u64::MAX, 1] in their curves: each counts as an error.
        assert_eq!((state.refreshes, state.errors), (2, 2));
        assert_eq!(state.violations, 0);
        let line = state.snapshot_json("s");
        assert!(
            line.contains("\"events\":10,\"k\":0,")
                && line.contains("\"verdict\":\"reject\",\"f_min_hz\":null"),
            "{line}"
        );
    }
}
