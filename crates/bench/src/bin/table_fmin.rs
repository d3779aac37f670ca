//! E5 — the in-text F_min result of Sec. 3.2.
//!
//! Regenerates the paper's headline comparison: the minimum PE₂ clock
//! frequency that keeps the one-frame FIFO (b = 1620 macroblocks) from
//! overflowing, computed once with the workload-curve conversion (eq. 9)
//! and once with the WCET-only conversion (eq. 10). The paper reports
//! `F^γ ≈ 340 MHz` vs `F^w ≈ 710 MHz` (>50 % savings); the shape to
//! reproduce is `F^γ ≪ F^w` with roughly 2× separation.
//!
//! A third column is the clock both bounds stand in for: each clip's
//! trace-exact minimum, bisected on the replay of its unbounded PE₂
//! departures (`wcm_sim::replay_min_frequency`). Its maximum over the
//! clips is what eq. 9's pessimism is measured against.

use wcm_sim::{replay_min_frequency, FaultedWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = wcm_bench::run_case_study(wcm_bench::GOPS_PER_CLIP, wcm_bench::BUFFER_MB)?;
    let clips = wcm_bench::synthesize_clips(wcm_bench::GOPS_PER_CLIP)?;
    let mut exact = Vec::with_capacity(clips.len());
    for clip in &clips {
        let w = FaultedWorkload::clean(clip)?;
        let f = replay_min_frequency(
            &w,
            clip.params().bitrate_bps(),
            wcm_bench::PE1_HZ,
            wcm_bench::BUFFER_MB,
            1.0e6,
            study.f_wcet,
        )
        .ok_or_else(|| format!("{}: the FIFO fills even at F^w_min", clip.name()))?;
        exact.push((clip.name().to_string(), f));
    }
    let f_exact = exact.iter().map(|&(_, f)| f).fold(0.0, f64::max);
    // Sound sizing never undercuts the clock the traces need.
    assert!(
        f_exact <= study.f_gamma,
        "eq. 9 ({} Hz) undercuts the trace-exact clock ({f_exact} Hz)",
        study.f_gamma
    );

    let w = study.bounds.upper.wcet();
    println!("E5: minimum PE2 clock frequency, b = {} macroblocks", wcm_bench::BUFFER_MB);
    println!("  PE2 per-macroblock WCET w = gamma_u(1) = {} cycles", w.get());
    println!(
        "  long-run demand            = {:.0} cycles/MB",
        study.bounds.upper.tail_cycles_per_event()
    );
    println!();
    println!("  | conversion       | F_min (MHz) |");
    println!("  |------------------|-------------|");
    println!("  | workload curves  | {:11.1} |", study.f_gamma / 1e6);
    println!("  | WCET scaling     | {:11.1} |", study.f_wcet / 1e6);
    println!("  | trace-exact      | {:11.1} |", f_exact / 1e6);
    println!();
    println!(
        "  savings: {:.1} % (paper: F_gamma ~= 340 MHz, F_w ~= 710 MHz, >50 %)",
        100.0 * (1.0 - study.f_gamma / study.f_wcet)
    );
    println!(
        "  eq. 9 pessimism over the trace-exact clock: {:.1} %",
        100.0 * (study.f_gamma / f_exact - 1.0)
    );
    println!();
    println!("  trace-exact F_min per clip (departure replay, no tie can fill b):");
    println!("  | clip           | F_min (MHz) |");
    println!("  |----------------|-------------|");
    for (name, f) in &exact {
        println!("  | {name:<14} | {:11.1} |", f / 1e6);
    }
    Ok(())
}
