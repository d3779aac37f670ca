//! Developer diagnostic: where does eq. 9 bind, and how tight is it?
//!
//! Not part of the paper's experiment set — prints the binding window of
//! the F_min computation, per-frame-kind arrival/demand rates, and the
//! simulated backlog at F^γ, to guide calibration of the demand model.

use wcm_bench::{
    full_scale_mode, k_max_24_frames, merged_arrival_curve, merged_workload_bounds,
    simulate_clip, synthesize_clips, BUFFER_MB,
};
use wcm_mpeg::{FrameKind, VideoParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VideoParams::main_profile_main_level()?;
    let gops = 2;
    let clips = synthesize_clips(gops)?;
    let k_max = k_max_24_frames(&params).min(clips[0].macroblock_count());
    let mode = full_scale_mode(&params);
    let alpha = merged_arrival_curve(&clips, k_max, mode)?;
    let bounds = merged_workload_bounds(&clips, k_max, mode)?;

    // Binding window of eq. 9.
    let mut best = (0.0f64, 0.0f64, 0u64);
    for &(delta, n) in alpha.steps() {
        if n <= BUFFER_MB || delta <= 0.0 {
            continue;
        }
        let f = bounds.upper.value((n - BUFFER_MB) as usize).get() as f64 / delta;
        if f > best.0 {
            best = (f, delta, n);
        }
    }
    let tail = alpha.tail_rate() * bounds.upper.tail_cycles_per_event();
    println!("F_gamma = {:.1} MHz", best.0.max(tail) / 1e6);
    println!(
        "  binding: Delta = {:.1} ms ({:.2} frames), alpha = {} MB, tail floor {:.1} MHz",
        best.1 * 1e3,
        best.1 / params.frame_period(),
        best.2,
        tail / 1e6
    );
    println!(
        "  gamma_u at binding k = {}: {:.0} cycles/MB",
        best.2 - BUFFER_MB,
        bounds.upper.value((best.2 - BUFFER_MB) as usize).get() as f64
            / (best.2 - BUFFER_MB) as f64
    );

    // Per-frame-kind statistics from one mid-complexity clip.
    let clip = &clips[11];
    println!("\nclip `{}` per-frame-kind profile:", clip.name());
    for kind in [FrameKind::I, FrameKind::P, FrameKind::B] {
        let mut mb_count = 0usize;
        let mut pe2 = 0u64;
        let mut pe1 = 0u64;
        let mut bits = 0u64;
        for f in clip.frames().iter().filter(|f| f.kind() == kind) {
            mb_count += f.macroblocks().len();
            bits += f.bits();
            for m in f.macroblocks() {
                pe2 += clip.pe2_model().cycles(m.class).get();
                pe1 += clip.pe1_model().cycles(m).get();
            }
        }
        let bit_time = bits as f64 / params.bitrate_bps();
        let pe1_time = pe1 as f64 / wcm_bench::PE1_HZ;
        let arrival_rate = mb_count as f64 / bit_time.max(pe1_time);
        println!(
            "  {kind:?}: avg PE2 {:.0} c/MB, arrival {:.1} kMB/s ({}), demand rate {:.1} Mc/s",
            pe2 as f64 / mb_count as f64,
            arrival_rate / 1e3,
            if bit_time > pe1_time { "bits-bound" } else { "PE1-bound" },
            arrival_rate * pe2 as f64 / mb_count as f64 / 1e6,
        );
    }

    // Simulated tightness.
    let f_gamma = best.0.max(tail);
    let mut worst = 0u64;
    for clip in &clips {
        let r = simulate_clip(clip, f_gamma)?;
        worst = worst.max(r.summary.max_backlog);
    }
    println!(
        "\nsimulated worst backlog at F_gamma: {} / {} = {:.3}",
        worst,
        BUFFER_MB,
        worst as f64 / BUFFER_MB as f64
    );
    Ok(())
}
