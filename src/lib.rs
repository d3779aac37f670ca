//! # wcm — workload curves for tasks with variable execution demand
//!
//! A Rust reproduction of **A. Maxiaguine, S. Künzli, L. Thiele, "Workload
//! Characterization Model for Tasks with Variable Execution Demand",
//! DATE 2004**, including every substrate the paper's evaluation depends
//! on. This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `wcm-core` | workload curves `γᵘ/γˡ`, pseudo-inverses, event↔cycle conversions, buffer/frequency sizing (eqs. 7–10), the polling task of Example 1 |
//! | [`curves`] | `wcm-curves` | Network-/Real-Time-Calculus algebra: PWL curves, min-plus `⊗`/`⊘`, backlog & delay bounds, arrival/service models |
//! | [`events`] | `wcm-events` | typed event streams, trace generators, sliding-window analysis |
//! | [`sched`] | `wcm-sched` | Lehoczky RMS test (classic & γ-refined, Sec. 3.1), response times, EDF demand bounds, a preemptive scheduler simulator |
//! | [`mpeg`] | `wcm-mpeg` | the synthetic MPEG-2 decoder workload model (14 clip profiles, per-macroblock demand) |
//! | [`sim`] | `wcm-sim` | the transaction-level CBR → PE₁ → FIFO → PE₂ pipeline simulator (Fig. 5) |
//! | [`obs`] | `wcm-obs` | zero-dependency observability: spans, counters, log2 histograms, Chrome-trace export, strict JSON/CSV readers |
//! | [`wire`] | `wcm-wire` | the versioned binary `.wcmt` trace wire format: streaming encoder/decoder, corruption-tolerant resync |
//! | [`serve`] | `wcm-serve` | always-on monitoring: live `.wcmt` ingestion (file tail / TCP), per-session workload curves + monitors, eq.-9 admission control |
//!
//! # Quickstart
//!
//! Characterize a task from a measured trace and bound its buffer needs:
//!
//! ```
//! use wcm::core::curve::WorkloadBounds;
//! use wcm::core::sizing;
//! use wcm::events::{window::WindowMode, Cycles, ExecutionInterval, Trace, TypeRegistry};
//! use wcm::curves::StepCurve;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An event type set: cache hits are cheap, misses expensive.
//! let mut reg = TypeRegistry::new();
//! let hit = reg.register("hit", ExecutionInterval::fixed(Cycles(200)))?;
//! let miss = reg.register("miss", ExecutionInterval::fixed(Cycles(900)))?;
//! // Misses never occur back to back in the observed stream.
//! let trace = Trace::new(reg, vec![miss, hit, hit, miss, hit, miss, hit, hit]);
//! let bounds = WorkloadBounds::from_trace(&trace, 6, WindowMode::Exact)?;
//!
//! // γᵘ(2) = miss + hit, far below 2×WCET.
//! assert_eq!(bounds.upper.value(2), Cycles(1100));
//!
//! // Size the minimum clock frequency for a bursty arrival pattern and a
//! // 2-event input buffer (eq. 9) and compare with WCET-based sizing
//! // (eq. 10).
//! let alpha = StepCurve::new(vec![(0.0, 2), (1.0, 3), (2.0, 4)], 3.0, 1.0)?;
//! let f_gamma = sizing::min_frequency_workload(&alpha, &bounds.upper, 2)?;
//! let f_wcet = sizing::min_frequency_wcet(&alpha, bounds.upper.wcet(), 2)?;
//! assert!(f_gamma <= f_wcet);
//! # Ok(())
//! # }
//! ```
//!
//! # Reproducing the paper
//!
//! The `wcm-bench` crate regenerates every table and figure; see
//! `EXPERIMENTS.md` for the index and recorded results:
//!
//! ```text
//! cargo run --release -p wcm-bench --bin fig2_polling
//! cargo run --release -p wcm-bench --bin table_rms
//! cargo run --release -p wcm-bench --bin fig6_workload_curves
//! cargo run --release -p wcm-bench --bin table_fmin
//! cargo run --release -p wcm-bench --bin fig7_backlogs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wcm_core as core;
pub use wcm_curves as curves;
pub use wcm_events as events;
pub use wcm_mpeg as mpeg;
pub use wcm_obs as obs;
pub use wcm_sched as sched;
pub use wcm_serve as serve;
pub use wcm_sim as sim;
pub use wcm_wire as wire;

// The most-used types at the top level for convenience.
pub use wcm_core::{Cycles, LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
