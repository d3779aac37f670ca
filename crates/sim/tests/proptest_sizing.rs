//! Property-based tests of the analytic sizing functions (eqs. 8–10)
//! against the event-driven simulator, on random tiny workloads.
//!
//! Three properties the sweep engine's pruning relies on:
//!
//! * eq. 9 never asks for more clock than eq. 10 (`F^γ_min ≤ F^w_min`);
//! * `F^γ_min` is non-increasing in the buffer capacity;
//! * a pipeline clocked (a hair above) `F^γ_min(b)` never backs up more
//!   than `b` macroblocks — the no-overflow guarantee of eq. 8, checked
//!   against the real simulator rather than the curve algebra.

use proptest::prelude::*;
use wcm_core::build::arrival_upper;
use wcm_core::sizing::{min_frequency_wcet, min_frequency_workload};
use wcm_core::UpperWorkloadCurve;
use wcm_curves::StepCurve;
use wcm_events::window::{max_window_sums, WindowMode};
use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm_mpeg::demand::{Pe1Model, Pe2Model};
use wcm_mpeg::mb::{Macroblock, MacroblockClass};
use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::workload::FrameWorkload;
use wcm_mpeg::ClipWorkload;
use wcm_sim::pipeline::{simulate, FifoConfig, PipelineConfig, PipelineSummary, SimScratch};
use wcm_sim::FaultedWorkload;

fn clip_from(bits: Vec<u32>) -> ClipWorkload {
    let params =
        VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(1, 1).unwrap()).unwrap();
    let mbs: Vec<Macroblock> = bits
        .into_iter()
        .map(|b| Macroblock {
            frame: FrameKind::I,
            class: MacroblockClass::Intra {
                coded_blocks: (b % 6 + 1) as u8,
            },
            bits: b.max(1),
        })
        .collect();
    ClipWorkload::new(
        "prop".into(),
        params,
        Pe1Model {
            base: 50,
            cycles_per_bit: 1.0,
            iq_per_block: 10,
        },
        Pe2Model::default(),
        vec![FrameWorkload::new(FrameKind::I, mbs)],
    )
}

/// Measured arrival staircase over the full trace (exact windows).
fn arrival_of(times: &[f64]) -> StepCurve {
    let mut reg = TypeRegistry::new();
    let mb = reg
        .register("mb", ExecutionInterval::fixed(Cycles(1)))
        .unwrap();
    let trace = TimedTrace::new(
        reg,
        times
            .iter()
            .map(|&time| TimedEvent { time, ty: mb })
            .collect(),
    )
    .unwrap();
    arrival_upper(&trace, times.len(), WindowMode::Exact).unwrap()
}

/// A clean run of `clip` through an unbounded FIFO; the scratch holds its
/// timing.
fn run(clip: &ClipWorkload, cfg: &PipelineConfig) -> (PipelineSummary, SimScratch) {
    let w = FaultedWorkload::clean(clip).unwrap();
    let mut scratch = SimScratch::new();
    let summary = simulate(&w, cfg, &FifoConfig::unbounded(), None, &mut scratch).unwrap();
    (summary, scratch)
}

/// The measured `ᾱ` and `γᵘ` of one random clip. FIFO-input times do not
/// depend on the PE₂ clock (unbounded FIFO, no backpressure), so any fast
/// PE₂ works for the measurement run.
fn measure(clip: &ClipWorkload, bitrate: f64, pe1: f64) -> (StepCurve, UpperWorkloadCurve) {
    let cfg = PipelineConfig {
        bitrate_bps: bitrate,
        pe1_hz: pe1,
        pe2_hz: 1.0e9,
    };
    let (_, t) = run(clip, &cfg);
    let alpha = arrival_of(t.fifo_in_times());
    let demands = clip.pe2_demands();
    let gamma = UpperWorkloadCurve::new(
        max_window_sums(&demands, demands.len(), WindowMode::Exact).unwrap(),
    )
    .unwrap();
    (alpha, gamma)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// eq. 9 ≤ eq. 10, and both are non-increasing in the buffer.
    #[test]
    fn workload_sizing_below_wcet_sizing_and_monotone_in_buffer(
        bits in proptest::collection::vec(1u32..2000, 2..50),
        bitrate in 1.0e3f64..1.0e6,
        pe1 in 1.0e4f64..1.0e7,
    ) {
        let clip = clip_from(bits);
        let (alpha, gamma) = measure(&clip, bitrate, pe1);
        let mut prev_gamma: Option<f64> = None;
        let mut prev_wcet: Option<f64> = None;
        for b in [1u64, 2, 3, 5, 8, 16, 64] {
            let fg = min_frequency_workload(&alpha, &gamma, b).unwrap();
            let fw = min_frequency_wcet(&alpha, gamma.wcet(), b).unwrap();
            prop_assert!(
                fg <= fw * (1.0 + 1e-9),
                "F^γ_min = {fg} exceeds F^w_min = {fw} at b = {b}"
            );
            if let Some(p) = prev_gamma {
                prop_assert!(fg <= p * (1.0 + 1e-9), "F^γ_min grew with the buffer");
            }
            if let Some(p) = prev_wcet {
                prop_assert!(fw <= p * (1.0 + 1e-9), "F^w_min grew with the buffer");
            }
            prev_gamma = Some(fg);
            prev_wcet = Some(fw);
        }
    }

    /// eq. 8 end-to-end: at (a hair above) `F^γ_min(b)` the simulated
    /// backlog never exceeds `b`.
    #[test]
    fn simulated_backlog_never_exceeds_sized_buffer(
        bits in proptest::collection::vec(1u32..2000, 2..50),
        bitrate in 1.0e3f64..1.0e6,
        pe1 in 1.0e4f64..1.0e7,
        b in 1u64..12,
    ) {
        let clip = clip_from(bits);
        let (alpha, gamma) = measure(&clip, bitrate, pe1);
        let f = min_frequency_workload(&alpha, &gamma, b).unwrap();
        prop_assume!(f.is_finite() && f > 0.0);
        let (r, _) = run(
            &clip,
            &PipelineConfig {
                bitrate_bps: bitrate,
                pe1_hz: pe1,
                pe2_hz: f * (1.0 + 1e-6),
            },
        );
        prop_assert!(
            r.max_backlog <= b,
            "backlog {} exceeds sized buffer {b} at F^γ_min = {f}",
            r.max_backlog
        );
    }
}
