//! Ablation — PE₁ clock vs the burstiness of the macroblock stream.
//!
//! DESIGN.md §7 argues that PE₁'s serial per-macroblock work is what caps
//! the FIFO arrival bursts (the reason eq. 10 is rate-bound rather than
//! burst-bound, as in the paper). This ablation sweeps PE₁'s clock: a
//! faster PE₁ emits skipped-macroblock runs in tighter bursts, inflating
//! `ᾱ` at short windows and with it both F_min values — while too slow a
//! PE₁ cannot sustain the stream at all.

use wcm_bench::{synthesize_clips, times_to_trace, BUFFER_MB};
use wcm_core::build::arrival_upper;
use wcm_core::sizing::{min_frequency_wcet, min_frequency_workload};
use wcm_core::UpperWorkloadCurve;
use wcm_events::window::{max_window_sums, WindowMode};
use wcm_mpeg::VideoParams;
use wcm_sim::pipeline::{simulate, FifoConfig, PipelineConfig, SimScratch};
use wcm_sim::FaultedWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VideoParams::main_profile_main_level()?;
    let clips = synthesize_clips(2)?;
    let k_max = 12 * params.mb_per_frame();
    let mode = WindowMode::Strided {
        exact_upto: params.mb_per_frame(),
        stride: params.mb_per_frame() / 10,
    };
    // γᵘ does not depend on PE1 — compute once over the busy clips.
    let mut gamma: Option<UpperWorkloadCurve> = None;
    for clip in clips.iter().skip(10) {
        let g = UpperWorkloadCurve::new(max_window_sums(
            &clip.pe2_demands(),
            k_max,
            mode,
        )?)?;
        gamma = Some(match gamma {
            Some(acc) => acc.max_merge(&g),
            None => g,
        });
    }
    let gamma = gamma.expect("clips processed");

    println!("Ablation: PE1 clock vs arrival burstiness and F_min (b = {BUFFER_MB})");
    println!();
    println!(
        "  {:<10} {:>16} {:>14} {:>14}",
        "PE1 (MHz)", "alpha(1 frame)", "F_gamma (MHz)", "F_wcet (MHz)"
    );
    let streams: Vec<FaultedWorkload> = clips
        .iter()
        .skip(10)
        .map(FaultedWorkload::clean)
        .collect::<Result<_, _>>()?;
    let mut scratch = SimScratch::new();
    let mut prev_burst = 0u64;
    for pe1_mhz in [45.0, 60.0, 90.0, 180.0, 360.0] {
        let mut alpha: Option<wcm_curves::StepCurve> = None;
        for w in &streams {
            let cfg = PipelineConfig {
                bitrate_bps: params.bitrate_bps(),
                pe1_hz: pe1_mhz * 1e6,
                pe2_hz: 1.0e9,
            };
            simulate(w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
            let trace = times_to_trace(scratch.fifo_in_times())?;
            let a = arrival_upper(&trace, k_max, mode)?;
            alpha = Some(match alpha {
                Some(acc) => acc.max(&a)?,
                None => a,
            });
        }
        let alpha = alpha.expect("clips processed");
        let burst = alpha.value(params.frame_period());
        let fg = min_frequency_workload(&alpha, &gamma, BUFFER_MB)?;
        let fw = min_frequency_wcet(&alpha, gamma.wcet(), BUFFER_MB)?;
        println!(
            "  {pe1_mhz:<10} {burst:>16} {:>14.1} {:>14.1}",
            fg / 1e6,
            fw / 1e6
        );
        assert!(
            burst >= prev_burst,
            "a faster PE1 must not reduce the one-frame arrival count"
        );
        prev_burst = burst;
    }
    println!();
    println!("  shape: faster PE1 -> burstier alpha -> higher F_min on both rows;");
    println!("  the paper's 710 MHz being rate-bound implies a PE1 in the slow regime.");
    Ok(())
}
