//! E6 — Fig. 7: maximum FIFO backlogs at the computed `F^γ_min`.
//!
//! Runs the full two-PE pipeline for every clip with PE₂ clocked at the
//! eq. 9 frequency and prints the maximum observed FIFO backlog normalized
//! to the buffer size `b = 1620`. The paper's shape: all bars ≤ 1.0 and
//! several close to 1.0 (the bound is tight but never violated).

use wcm_bench::{run_case_study, simulate_clip, synthesize_clips, BUFFER_MB, GOPS_PER_CLIP};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("computing F_gamma (eq. 9) ...");
    let study = run_case_study(GOPS_PER_CLIP, BUFFER_MB)?;
    println!(
        "E6: max FIFO backlog per clip, PE2 at F_gamma = {:.1} MHz, b = {} MB",
        study.f_gamma / 1e6,
        BUFFER_MB
    );
    println!();
    println!("  {:<16} {:>12} {:>12}", "clip", "max backlog", "normalized");
    let clips = synthesize_clips(GOPS_PER_CLIP)?;
    let mut worst = 0.0f64;
    for clip in &clips {
        let result = simulate_clip(clip, study.f_gamma)?.summary;
        let norm = result.max_backlog as f64 / BUFFER_MB as f64;
        worst = worst.max(norm);
        let bar: String = std::iter::repeat_n('#', (norm * 30.0).round() as usize)
            .collect();
        println!(
            "  {:<16} {:>12} {:>11.3} {bar}",
            clip.name(),
            result.max_backlog,
            norm
        );
        assert!(
            result.max_backlog <= BUFFER_MB,
            "bound violated for {}: backlog {} > buffer {}",
            clip.name(),
            result.max_backlog,
            BUFFER_MB
        );
    }
    println!();
    println!(
        "  worst normalized backlog: {worst:.3} (paper: bars close to but never above 1.0)"
    );
    Ok(())
}
