//! Ablation — GOP structure vs the workload-curve saving.
//!
//! The saving of eq. 9 over eq. 10 exists because expensive macroblocks
//! cannot be sustained: B frames (motion-heavy but skippable) and I frames
//! (intra-only) dilute the worst case. This ablation regenerates the F_min
//! comparison for different GOP structures: more B frames per GOP should
//! widen the saving; an I-only stream (N = 1) nearly eliminates the B-frame
//! burstiness and changes the binding window.

use wcm_core::sizing::{min_frequency_wcet, min_frequency_workload};
use wcm_core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use wcm_events::window::{max_window_sums, min_window_sums, WindowMode};
use wcm_mpeg::{profile, GopStructure, Synthesizer, VideoParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation: GOP structure vs F_min saving (b = one frame)");
    println!();
    println!(
        "  {:<14} {:>14} {:>14} {:>10}",
        "GOP (N,M)", "F_gamma (MHz)", "F_wcet (MHz)", "saving"
    );
    for (n, m) in [(1usize, 1usize), (6, 1), (12, 2), (12, 3), (24, 3)] {
        let gop = GopStructure::new(n, m)?;
        let params = VideoParams::new(720, 576, 25.0, 9.78e6, gop)?;
        let synth = Synthesizer::new(params);
        let buffer = params.mb_per_frame() as u64;
        let gops = (24 / n).max(1) + 1; // keep ≥ 24 frames of material
        let k_max = 12 * params.mb_per_frame();
        let mode = WindowMode::Strided {
            exact_upto: params.mb_per_frame(),
            stride: params.mb_per_frame() / 10,
        };
        // Three busy clips suffice for the trend.
        let mut bounds: Option<WorkloadBounds> = None;
        let mut alpha: Option<wcm_curves::StepCurve> = None;
        for p in &profile::standard_clips()[11..] {
            let clip = synth.generate(p, gops)?;
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
            let r = wcm_bench::simulate_clip(&clip, 1.0e9)?;
            let trace = wcm_bench::times_to_trace(&r.fifo_in_times)?;
            let a = wcm_core::build::arrival_upper(&trace, k_max, mode)?;
            alpha = Some(match alpha {
                Some(acc) => acc.max(&a)?,
                None => a,
            });
        }
        let bounds = bounds.expect("clips processed");
        let alpha = alpha.expect("clips processed");
        let fg = min_frequency_workload(&alpha, &bounds.upper, buffer)?;
        let fw = min_frequency_wcet(&alpha, bounds.upper.wcet(), buffer)?;
        println!(
            "  ({n:>2},{m})        {:>14.1} {:>14.1} {:>9.1}%",
            fg / 1e6,
            fw / 1e6,
            100.0 * (1.0 - fg / fw)
        );
        assert!(fg <= fw);
    }
    println!();
    println!("  shape: the saving persists across GOP structures; B-heavy GOPs");
    println!("  (larger M) shift demand into motion compensation and widen it.");
    Ok(())
}
