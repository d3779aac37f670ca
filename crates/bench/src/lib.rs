//! Experiment harness shared by the regeneration binaries and the
//! Criterion benchmarks.
//!
//! Each function computes one building block of the paper's evaluation so
//! that the `fig*`/`table_*` binaries stay thin and the benches can reuse
//! identical code paths. See `EXPERIMENTS.md` at the repository root for
//! the experiment index (E1–E7) and recorded results.

// `deny`, not `forbid`: the [`alloc`] module needs one `unsafe impl
// GlobalAlloc` (counting pass-through to the system allocator) and opts
// in locally; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod legacy;

use wcm_core::build::arrival_upper;
use wcm_core::curve::WorkloadBounds;
use wcm_core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadError};
use wcm_curves::StepCurve;
use wcm_events::window::{max_window_sums, min_window_sums, WindowMode};
use wcm_events::{Cycles, ExecutionInterval, TimedTrace, TypeRegistry};
use wcm_mpeg::profile::{standard_clips, ClipProfile};
use wcm_mpeg::{ClipWorkload, Synthesizer, VideoParams};
use wcm_sim::pipeline::{simulate, FifoConfig, PipelineConfig, PipelineSummary, SimScratch};
use wcm_sim::FaultedWorkload;

/// Default PE₁ clock used by the case-study experiments (fast enough to
/// sustain the stream, slow enough that VLD paces the output realistically).
pub const PE1_HZ: f64 = 60.0e6;

/// FIFO capacity of the case study: one frame of macroblocks.
pub const BUFFER_MB: u64 = 1620;

/// GOPs synthesized per clip in the full-scale experiments (48 frames
/// ≈ 2 s of video per clip).
pub const GOPS_PER_CLIP: usize = 4;

/// Analysis window of the paper: 24 full frames of macroblocks.
#[must_use]
pub fn k_max_24_frames(params: &VideoParams) -> usize {
    24 * params.mb_per_frame()
}

/// The strided window mode used at full scale: exact for short windows
/// (where curvature matters), a tenth-of-a-frame grid beyond.
#[must_use]
pub fn full_scale_mode(params: &VideoParams) -> WindowMode {
    WindowMode::Strided {
        exact_upto: params.mb_per_frame(),
        stride: params.mb_per_frame() / 10,
    }
}

/// Synthesizes the 14 standard clips at the paper's stream parameters.
///
/// # Errors
///
/// Propagates synthesis errors (cannot occur for the standard profiles).
pub fn synthesize_clips(gops: usize) -> Result<Vec<ClipWorkload>, wcm_mpeg::MpegError> {
    let params = VideoParams::main_profile_main_level()?;
    let synth = Synthesizer::new(params);
    standard_clips()
        .iter()
        .map(|c| synth.generate(c, gops))
        .collect()
}

/// The clip profiles corresponding to [`synthesize_clips`] order.
#[must_use]
pub fn clip_profiles() -> Vec<ClipProfile> {
    standard_clips()
}

/// Builds the PE₂ workload bounds of one clip from its demand vector.
///
/// # Errors
///
/// Propagates window-analysis errors (`k_max` longer than the clip).
pub fn clip_workload_bounds(
    clip: &ClipWorkload,
    k_max: usize,
    mode: WindowMode,
) -> Result<WorkloadBounds, WorkloadError> {
    let demands = clip.pe2_demands();
    let upper = UpperWorkloadCurve::new(max_window_sums(&demands, k_max, mode)?)?;
    let lower = LowerWorkloadCurve::new(min_window_sums(&demands, k_max, mode)?)?;
    Ok(WorkloadBounds { upper, lower })
}

/// Merged PE₂ workload bounds over all clips (max of uppers, min of
/// lowers) — the curves of Fig. 6.
///
/// # Errors
///
/// Propagates per-clip errors.
pub fn merged_workload_bounds(
    clips: &[ClipWorkload],
    k_max: usize,
    mode: WindowMode,
) -> Result<WorkloadBounds, WorkloadError> {
    let all: Vec<WorkloadBounds> = clips
        .iter()
        .map(|c| clip_workload_bounds(c, k_max, mode))
        .collect::<Result<_, _>>()?;
    WorkloadBounds::merge_all(&all)
}

/// One clean run of a clip through the case-study pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipRun {
    /// Time each macroblock entered the FIFO, seconds: the measured `ᾱ`.
    pub fifo_in_times: Vec<f64>,
    /// Time each macroblock left the FIFO, seconds.
    pub fifo_out_times: Vec<f64>,
    /// The run's backlog, busy times and makespan.
    pub summary: PipelineSummary,
}

/// Simulates one clip through the case-study pipeline (the clip's bit
/// rate, PE₁ at [`PE1_HZ`], an unbounded FIFO) with PE₂ at `pe2_hz`.
/// Without backpressure the FIFO-input timing does not depend on PE₂, so
/// any PE₂ clock measures `ᾱ`.
///
/// # Errors
///
/// Propagates simulator configuration errors.
pub fn simulate_clip(clip: &ClipWorkload, pe2_hz: f64) -> Result<ClipRun, wcm_sim::SimError> {
    let cfg = PipelineConfig {
        bitrate_bps: clip.params().bitrate_bps(),
        pe1_hz: PE1_HZ,
        pe2_hz,
    };
    let mut scratch = SimScratch::new();
    let w = FaultedWorkload::clean(clip)?;
    let summary = simulate(&w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
    Ok(ClipRun {
        fifo_in_times: scratch.fifo_in_times().to_vec(),
        fifo_out_times: scratch.fifo_out_times().to_vec(),
        summary,
    })
}

/// Measures the empirical macroblock arrival curve `ᾱ` at the FIFO input
/// of one clip.
///
/// # Errors
///
/// Propagates simulation and window-analysis errors.
pub fn clip_arrival_curve(
    clip: &ClipWorkload,
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, Box<dyn std::error::Error>> {
    // Any PE₂ speed works for measuring the FIFO *input*: use a fast one so
    // the simulation drains quickly.
    let result = simulate_clip(clip, 1.0e9)?;
    let trace = times_to_trace(&result.fifo_in_times)?;
    Ok(arrival_upper(&trace, k_max, mode)?)
}

/// Merged (max over clips) arrival curve — the `ᾱ` of eq. 9.
///
/// # Errors
///
/// Propagates per-clip errors; fails on an empty clip list.
pub fn merged_arrival_curve(
    clips: &[ClipWorkload],
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, Box<dyn std::error::Error>> {
    let mut merged: Option<StepCurve> = None;
    for clip in clips {
        let alpha = clip_arrival_curve(clip, k_max, mode)?;
        merged = Some(match merged {
            Some(m) => m.max(&alpha)?,
            None => alpha,
        });
    }
    merged.ok_or_else(|| Box::from("no clips supplied"))
}

/// Wraps raw timestamps in a single-type [`TimedTrace`].
///
/// # Errors
///
/// Propagates trace-construction errors (unsorted timestamps).
pub fn times_to_trace(times: &[f64]) -> Result<TimedTrace, wcm_events::EventError> {
    let mut reg = TypeRegistry::new();
    let mb = reg.register("mb", ExecutionInterval::fixed(Cycles(1)))?;
    TimedTrace::from_parts(reg, times.to_vec(), vec![mb; times.len()])
}

/// Everything eq. 9 / eq. 10 need, computed once.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Merged arrival staircase at the FIFO input.
    pub alpha: StepCurve,
    /// Merged PE₂ workload bounds.
    pub bounds: WorkloadBounds,
    /// eq. 9 minimum frequency (workload curves), Hz.
    pub f_gamma: f64,
    /// eq. 10 minimum frequency (WCET only), Hz.
    pub f_wcet: f64,
}

/// Runs the full E5 pipeline: synthesize, simulate, measure, size.
///
/// # Errors
///
/// Propagates any stage's error.
pub fn run_case_study(
    gops: usize,
    buffer: u64,
) -> Result<CaseStudy, Box<dyn std::error::Error>> {
    let params = VideoParams::main_profile_main_level()?;
    let clips = synthesize_clips(gops)?;
    let k_max = k_max_24_frames(&params).min(clips[0].macroblock_count());
    let mode = full_scale_mode(&params);
    let alpha = merged_arrival_curve(&clips, k_max, mode)?;
    let bounds = merged_workload_bounds(&clips, k_max, mode)?;
    let f_gamma = wcm_core::sizing::min_frequency_workload(&alpha, &bounds.upper, buffer)?;
    let f_wcet = wcm_core::sizing::min_frequency_wcet(&alpha, bounds.upper.wcet(), buffer)?;
    Ok(CaseStudy {
        alpha,
        bounds,
        f_gamma,
        f_wcet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-scale end-to-end smoke test of the whole harness (2 GOPs,
    /// reduced window).
    #[test]
    fn small_case_study_shapes() {
        let params = VideoParams::main_profile_main_level().unwrap();
        let clips: Vec<ClipWorkload> = {
            let synth = Synthesizer::new(params);
            standard_clips()[..3]
                .iter()
                .map(|c| synth.generate(c, 1).unwrap())
                .collect()
        };
        let k_max = 2 * params.mb_per_frame();
        let mode = WindowMode::Strided {
            exact_upto: 200,
            stride: 162,
        };
        let bounds = merged_workload_bounds(&clips, k_max, mode).unwrap();
        assert!(wcm_core::verify::bounds_are_consistent(&bounds));
        let alpha = merged_arrival_curve(&clips, k_max, mode).unwrap();
        assert!(alpha.value(0.0) >= 1);
        let f_gamma =
            wcm_core::sizing::min_frequency_workload(&alpha, &bounds.upper, BUFFER_MB).unwrap();
        let f_wcet =
            wcm_core::sizing::min_frequency_wcet(&alpha, bounds.upper.wcet(), BUFFER_MB)
                .unwrap();
        assert!(f_gamma > 0.0);
        assert!(f_gamma <= f_wcet, "γ sizing must not exceed WCET sizing");
    }
}
