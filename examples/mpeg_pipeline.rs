//! The MPEG-2 case study end to end (Sec. 3.2, Figs. 5–7) at reduced scale.
//!
//! Synthesizes three video clips, measures the macroblock arrival curve at
//! the FIFO and the PE₂ workload curves, sizes the minimum PE₂ clock by
//! eq. 9 (workload curves) and eq. 10 (WCET), and validates by simulating
//! the two-PE pipeline at the computed frequency.
//!
//! Run with: `cargo run --release --example mpeg_pipeline`
//! (debug builds work too, but take ~a minute).

use wcm::core::build::arrival_upper;
use wcm::core::sizing::{min_frequency_wcet, min_frequency_workload};
use wcm::core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use wcm::events::window::{max_window_sums, min_window_sums, WindowMode};
use wcm::events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm::mpeg::{profile, Synthesizer, VideoParams};
use wcm::sim::pipeline::{simulate, FifoConfig, PipelineConfig, SimScratch};
use wcm::sim::FaultedWorkload;

const PE1_HZ: f64 = 60.0e6;
const BUFFER: u64 = 1620; // one frame of macroblocks

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VideoParams::main_profile_main_level()?;
    let synth = Synthesizer::new(params);
    let clips: Vec<_> = profile::standard_clips()[11..]
        .iter()
        .map(|p| synth.generate(p, 2))
        .collect::<Result<_, _>>()?;
    println!(
        "Synthesized {} clips x 2 GOPs ({} macroblocks each)",
        clips.len(),
        clips[0].macroblock_count()
    );

    // Window analysis: up to 12 frames, strided beyond one frame.
    let k_max = 12 * params.mb_per_frame();
    let mode = WindowMode::Strided {
        exact_upto: params.mb_per_frame(),
        stride: params.mb_per_frame() / 10,
    };

    // Merge γᵘ/γˡ and ᾱ over the clips (the paper maximizes over 14).
    let streams: Vec<FaultedWorkload> = clips
        .iter()
        .map(FaultedWorkload::clean)
        .collect::<Result<_, _>>()?;
    let mut scratch = SimScratch::new();
    let mut bounds: Option<WorkloadBounds> = None;
    let mut alpha: Option<wcm::curves::StepCurve> = None;
    for (clip, w) in clips.iter().zip(&streams) {
        let demands = clip.pe2_demands();
        let b = WorkloadBounds {
            upper: UpperWorkloadCurve::new(max_window_sums(&demands, k_max, mode)?)?,
            lower: LowerWorkloadCurve::new(min_window_sums(&demands, k_max, mode)?)?,
        };
        bounds = Some(match bounds {
            Some(acc) => WorkloadBounds {
                upper: acc.upper.max_merge(&b.upper),
                lower: acc.lower.min_merge(&b.lower),
            },
            None => b,
        });
        // Measure the FIFO input times by running the pipeline (the input
        // side does not depend on PE₂'s speed).
        let cfg = PipelineConfig {
            bitrate_bps: params.bitrate_bps(),
            pe1_hz: PE1_HZ,
            pe2_hz: 1.0e9,
        };
        simulate(w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
        let mut reg = TypeRegistry::new();
        let mb = reg.register("mb", ExecutionInterval::fixed(Cycles(1)))?;
        let tt = TimedTrace::new(
            reg,
            scratch
                .fifo_in_times()
                .iter()
                .map(|&time| TimedEvent { time, ty: mb })
                .collect(),
        )?;
        let a = arrival_upper(&tt, k_max, mode)?;
        alpha = Some(match alpha {
            Some(acc) => acc.max(&a)?,
            None => a,
        });
    }
    let bounds = bounds.expect("clips is non-empty");
    let alpha = alpha.expect("clips is non-empty");

    println!(
        "\nPE2 workload: WCET = {} cycles, long-run max = {:.0} cycles/MB",
        bounds.upper.wcet().get(),
        bounds.upper.tail_cycles_per_event()
    );

    // Size the PE₂ clock (eqs. 9 and 10).
    let f_gamma = min_frequency_workload(&alpha, &bounds.upper, BUFFER)?;
    let f_wcet = min_frequency_wcet(&alpha, bounds.upper.wcet(), BUFFER)?;
    println!("\nMinimum PE2 frequency for b = {BUFFER} macroblocks:");
    println!("  workload curves (eq. 9):  {:>7.1} MHz", f_gamma / 1e6);
    println!("  WCET scaling (eq. 10):    {:>7.1} MHz", f_wcet / 1e6);
    println!(
        "  savings: {:.1} % (paper: >50 %)",
        100.0 * (1.0 - f_gamma / f_wcet)
    );

    // Validate: run the pipeline at F_gamma and watch the FIFO.
    println!("\nSimulated max backlog at F_gamma:");
    for (clip, w) in clips.iter().zip(&streams) {
        let cfg = PipelineConfig {
            bitrate_bps: params.bitrate_bps(),
            pe1_hz: PE1_HZ,
            pe2_hz: f_gamma,
        };
        let r = simulate(w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
        println!(
            "  {:<14} {:>5} / {BUFFER} macroblocks ({:.3})",
            clip.name(),
            r.max_backlog,
            r.max_backlog as f64 / BUFFER as f64
        );
        assert!(r.max_backlog <= BUFFER, "the eq. 8 guarantee must hold");
    }
    println!("\n  no overflow at the analytically sized frequency: ok");
    Ok(())
}
