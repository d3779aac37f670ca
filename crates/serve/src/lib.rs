//! # wcm-serve — always-on multi-tenant workload monitoring
//!
//! A long-lived service that tails live `.wcmt` streams (growing
//! files or TCP connections), demultiplexes their frames into
//! per-session state, and keeps three things current for every
//! session:
//!
//! * the workload curves γᵘ/γˡ of everything seen so far, measured in
//!   `O(k_max)` per event by the session's one window scan;
//! * a rebound [`wcm_core::EnvelopeMonitor`] — that same scan, flagging
//!   any window of the live stream that escapes the curves;
//! * the arrival curve ᾱ of every timestamp seen so far, from running
//!   per-`k` minimal spans ([`wcm_events::window::SpanMinima`]);
//! * the eq.-9 admission verdict — *can this stream join PE2 at the
//!   configured frequency without overflowing the FIFO?* —
//!   recomputed at every refresh from γᵘ and ᾱ.
//!
//! Sessions are sharded across the `wcm-par` work-stealing pool;
//! per-session ingest buffers are bounded and reuse the simulator's
//! [`wcm_sim::OverflowPolicy`] vocabulary (`Backpressure` stalls the
//! source, `Reject`/`DropByPriority` shed load). Snapshots, admission
//! flips and monitor violations flow through `wcm-obs`, so the usual
//! metrics-JSON and chrome://tracing exports cover the service too.
//!
//! The crate is the library under the `wcm serve` CLI subcommand, but
//! it is usable directly:
//!
//! ```no_run
//! use wcm_serve::{ServeConfig, Service};
//!
//! let mut svc = Service::new(ServeConfig::default());
//! svc.add_tail(std::path::Path::new("live.wcmt"))?;
//! loop {
//!     let report = svc.round()?;
//!     if report.idle {
//!         break;
//!     }
//! }
//! for line in svc.snapshots() {
//!     println!("{line}");
//! }
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Determinism
//!
//! Refresh cadence counts events, never wall-clock or poll
//! boundaries, so the snapshots a live session produces are
//! byte-identical to feeding the same stream to one session in a
//! single call — regardless of chunking and of how many shard threads
//! the service runs. `tests/determinism.rs` pins this, and pins both
//! against full window scans and a hand-driven `EnvelopeMonitor`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ingest;
pub mod service;
pub mod session;

pub use config::ServeConfig;
pub use ingest::{Poll, RoutedBatch, TailSource, TcpSource};
pub use service::{peak_rss_kb, RoundReport, Service, ServiceStats};
pub use session::{Admission, EnqueueOutcome, SessionState};
