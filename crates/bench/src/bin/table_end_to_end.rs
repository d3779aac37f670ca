//! Extension experiment — end-to-end MPA analysis of the two-PE decoder.
//!
//! The paper analyzes only PE₂'s FIFO; reference \[4\]'s framework (our
//! `wcm-core::mpa`) can analyze the whole chain: the measured PE₁-output
//! stream enters PE₂'s greedy processing component, giving analytic
//! backlog *and delay* bounds plus the decoded stream's output curves.
//! The simulation cross-checks both bounds per clip.

use wcm_bench::{
    full_scale_mode, k_max_24_frames, merged_workload_bounds, simulate_clip, synthesize_clips,
    times_to_trace,
};
use wcm_core::build::arrival_upper;
use wcm_core::mpa::{greedy_processing, EventStream, Service};
use wcm_mpeg::VideoParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VideoParams::main_profile_main_level()?;
    let gops = 2;
    eprintln!("synthesizing clips ...");
    let clips = synthesize_clips(gops)?;
    let k_max = k_max_24_frames(&params).min(clips[0].macroblock_count());
    let mode = full_scale_mode(&params);
    let bounds = merged_workload_bounds(&clips, k_max, mode)?;
    let f_pe2 = 340.0e6;
    let service = Service::dedicated(f_pe2)?;

    println!("Extension: MPA greedy-processing analysis of PE2 at {:.0} MHz", f_pe2 / 1e6);
    println!();
    println!(
        "  {:<16} {:>12} {:>12} {:>12} {:>12}",
        "clip", "B bound", "B sim", "d bound(ms)", "d sim(ms)"
    );
    for clip in clips.iter().skip(10) {
        // Per-clip arrival curve at the FIFO.
        let fast = simulate_clip(clip, 1.0e9)?;
        let trace = times_to_trace(&fast.fifo_in_times)?;
        let alpha = arrival_upper(&trace, k_max, mode)?;
        let stream = EventStream::from_upper_staircase(&alpha);
        let gpc = greedy_processing(&stream, &service, &bounds, 4096)?;

        // Simulate at the analyzed frequency and measure the actual
        // worst backlog and per-macroblock latency through the FIFO+PE2.
        let sim = simulate_clip(clip, f_pe2)?;
        let worst_latency = sim
            .fifo_in_times
            .iter()
            .zip(&sim.fifo_out_times)
            .map(|(i, o)| o - i)
            .fold(0.0f64, f64::max);
        println!(
            "  {:<16} {:>12} {:>12} {:>12.2} {:>12.2}",
            clip.name(),
            gpc.backlog_events,
            sim.summary.max_backlog,
            gpc.delay * 1e3,
            worst_latency * 1e3,
        );
        assert!(
            sim.summary.max_backlog <= gpc.backlog_events,
            "simulated backlog exceeds the MPA bound for {}",
            clip.name()
        );
        assert!(
            worst_latency <= gpc.delay + 1e-9,
            "simulated latency exceeds the MPA delay bound for {}",
            clip.name()
        );
    }
    println!();
    println!("  shape: analysis dominates simulation on both metrics, tighter for");
    println!("  busier clips (whose own windows set the merged curves).");
    Ok(())
}
