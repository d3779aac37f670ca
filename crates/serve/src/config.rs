//! Service configuration: one [`ServeConfig`] drives every session the
//! service hosts — curve depth, refresh cadence, the PE2 the admission
//! question is asked about, and the backpressure contract of the
//! per-session ingest buffers.

use wcm_sim::OverflowPolicy;

/// Configuration shared by every session of one [`crate::Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest window size of the per-session curves (γᵘ/γˡ and the
    /// minimal spans behind ᾱ) and of the monitor.
    pub k_max: usize,
    /// Events between session refreshes: each refresh reads the curves
    /// the monitor measured, rebinds the monitor to them and recomputes
    /// the eq.-9 admission verdict. Cadence counts *events*, never
    /// chunks or polls, so verdicts are a deterministic function of the
    /// stream alone.
    pub refresh_every: u64,
    /// PE2 clock frequency the admission question is asked about.
    pub frequency_hz: f64,
    /// PE2 input FIFO capacity in events (the `b` of eq. 8/9).
    pub capacity_events: u64,
    /// Overflow policy of the bounded per-session ingest buffer:
    /// `Backpressure` stalls the source, `Reject` drops the newest
    /// arrivals, `DropByPriority` evicts the smallest-demand pending
    /// events (low demand ≈ low-priority B frames).
    pub policy: OverflowPolicy,
    /// Per-session ingest buffer capacity in events.
    pub session_buffer: usize,
    /// Whether each session's [`wcm_core::EnvelopeMonitor`] checks the
    /// stream against its curves (off, it only measures them).
    pub monitor: bool,
    /// Fallback arrival model period (seconds) for sessions whose
    /// stream carries no timestamps.
    pub period_s: f64,
    /// Fallback arrival model jitter (seconds).
    pub jitter_s: f64,
    /// Session shards processed concurrently on the `wcm-par` pool.
    pub shards: usize,
    /// Parallelism of the shard fan-out: each round fans the shards out
    /// inside `par.scope(..)`.
    pub par: wcm_par::Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            k_max: 64,
            refresh_every: 64,
            frequency_hz: 60.0e6,
            capacity_events: 400,
            policy: OverflowPolicy::Backpressure,
            session_buffer: 4096,
            monitor: true,
            period_s: 1.0 / 30.0,
            jitter_s: 0.0,
            shards: 0, // resolved against the pool width at startup
            par: wcm_par::Parallelism::Auto,
        }
    }
}

impl ServeConfig {
    /// The shard count actually used: the configured one, or (when 0)
    /// the worker count `par` resolves to for a CPU-bound load. Never
    /// more than [`wcm_par::MAX_POOL_THREADS`], the most workers the pool
    /// engages.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        let shards = if self.shards > 0 {
            self.shards
        } else {
            match self.par {
                wcm_par::Parallelism::Seq => 1,
                wcm_par::Parallelism::Threads(n) => n.max(1),
                wcm_par::Parallelism::Auto => std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            }
        };
        shards.min(wcm_par::MAX_POOL_THREADS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_par::{Parallelism, MAX_POOL_THREADS};

    #[test]
    fn effective_shards_never_exceed_the_pool_cap() {
        let huge = ServeConfig {
            shards: 100_000_000_000_000,
            ..ServeConfig::default()
        };
        assert_eq!(huge.effective_shards(), MAX_POOL_THREADS);
        let threads = ServeConfig {
            par: Parallelism::Threads(100_000_000_000),
            ..ServeConfig::default()
        };
        assert_eq!(threads.effective_shards(), MAX_POOL_THREADS);
        let seq = ServeConfig {
            par: Parallelism::Seq,
            ..ServeConfig::default()
        };
        assert_eq!(seq.effective_shards(), 1);
    }
}
