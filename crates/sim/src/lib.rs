//! Transaction-level simulator of the two-PE streaming architecture.
//!
//! Reproduces the executable side of the paper's case study (Fig. 5): a
//! constant-bit-rate channel feeds compressed video into PE₁ (VLD+IQ);
//! partially decoded macroblocks flow through a FIFO into PE₂ (IDCT+MC).
//! The simulator is the stand-in for the authors' SystemC platform model —
//! one transaction per macroblock, continuous time, deterministic.
//!
//! * [`engine`] — a minimal discrete-event kernel (time-ordered calendar
//!   with deterministic FIFO tie-breaking);
//! * [`pipeline`] — the CBR → PE₁ → FIFO → PE₂ model; reports the
//!   macroblock timestamps at the FIFO input (the measured `ᾱ` of the
//!   paper) and the maximum FIFO backlog (Fig. 7's metric); FIFOs can be
//!   capacity-bounded with an explicit [`pipeline::OverflowPolicy`];
//! * [`faults`] — seeded, composable fault injection (jitter bursts,
//!   drops/duplicates, demand spikes, clock drift, stalls, bit errors)
//!   that turns a clip into the [`FaultedWorkload`] that
//!   [`pipeline::simulate`] runs;
//! * [`stats`] — the occupancy sweep over enqueue/dequeue timestamp pairs;
//! * [`sweep`] — parallel design-space exploration over a
//!   `(clip × frequency × capacity × policy × seed)` grid, with an
//!   analytic pre-pass (eqs. 8–10) that proves most points safe or unsafe
//!   without simulating them.
//!
//! # Example
//!
//! ```
//! use wcm_mpeg::{params::VideoParams, profile, Synthesizer};
//! use wcm_sim::pipeline::{simulate, FifoConfig, PipelineConfig, SimScratch};
//! use wcm_sim::FaultedWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = VideoParams::new(160, 128, 25.0, 1.0e6,
//!     wcm_mpeg::GopStructure::broadcast())?;
//! let clip = Synthesizer::new(params).generate(&profile::standard_clips()[0], 1)?;
//! let cfg = PipelineConfig { bitrate_bps: 1.0e6, pe1_hz: 20.0e6, pe2_hz: 40.0e6 };
//! let mut scratch = SimScratch::new();
//! let w = FaultedWorkload::clean(&clip)?;
//! let summary = simulate(&w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
//! assert!(summary.max_backlog > 0);
//! assert_eq!(scratch.fifo_in_times().len(), clip.macroblock_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
pub mod faults;
pub mod pipeline;
pub mod stats;
pub mod sweep;

pub use error::SimError;
pub use faults::frames::{FrameCorruptionPlan, FrameFaultReport, FrameFaulted, FrameInjector};
pub use faults::{FaultPlan, FaultReport, FaultedWorkload, Injector, ProcessingElement};
pub use pipeline::{
    simulate, FifoConfig, OverflowPolicy, PipelineConfig, PipelineSummary, SimScratch,
};
pub use sweep::{
    merge_shards, run_frontier, run_sweep, run_sweep_streaming, spec_fingerprint,
    staircase_thresholds, CollectSink, CsvSink, FrontierReport, PointRecord,
    ShardRange, SweepError, SweepReport, SweepRunHeader, SweepSink, SweepSpec, SweepSummary,
    Verdict, WcmtShardSink,
};
