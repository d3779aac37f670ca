//! Extension: greedy shaping of the macroblock stream.
//!
//! The follow-up line of work to the paper ("On the Use of Greedy Shapers
//! in Real-Time Embedded Systems") inserts a traffic shaper between PE₁
//! and the FIFO: the shaper delays bursts so the downstream buffer can
//! shrink, at the cost of bounded extra delay and a (small) shaper buffer.
//! This example quantifies that trade on a reduced MPEG case study.
//!
//! Run with: `cargo run --release --example shaped_stream`

use wcm::core::build::arrival_upper;
use wcm::core::UpperWorkloadCurve;
use wcm::curves::shaper::GreedyShaper;
use wcm::curves::{Pwl, StepCurve};
use wcm::events::window::{max_window_sums, WindowMode};
use wcm::events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm::mpeg::{profile, GopStructure, Synthesizer, VideoParams};
use wcm::sim::pipeline::{simulate, FifoConfig, PipelineConfig, SimScratch};
use wcm::sim::FaultedWorkload;

/// Event-domain buffer bound: `sup_Δ (ᾱ(Δ) − γᵘ⁻¹(F·Δ))`, evaluated on a
/// Δ grid plus the staircase steps.
fn buffer_bound(alpha: &Pwl, gamma: &UpperWorkloadCurve, f_hz: f64, horizon: f64) -> u64 {
    let mut worst = 0i64;
    let mut ds: Vec<f64> = alpha.breakpoint_xs().collect();
    ds.extend((0..400).map(|i| horizon * i as f64 / 400.0));
    for d in ds {
        let arrived = alpha.value(d).ceil() as i64;
        let served = gamma.pseudo_inverse(f_hz * d) as i64;
        worst = worst.max(arrived - served);
    }
    worst.max(0) as u64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reduced scale: 320×256, 3 busy clips, 2 GOPs.
    let params = VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast())?;
    let synth = Synthesizer::new(params);
    let pe1_hz = 10.0e6;
    let k_max = 6 * params.mb_per_frame();

    let mut scratch = SimScratch::new();
    let mut alpha_steps: Option<StepCurve> = None;
    let mut gamma: Option<UpperWorkloadCurve> = None;
    for p in &profile::standard_clips()[11..] {
        let clip = synth.generate(p, 2)?;
        let cfg = PipelineConfig {
            bitrate_bps: params.bitrate_bps(),
            pe1_hz,
            pe2_hz: 1.0e9,
        };
        let w = FaultedWorkload::clean(&clip)?;
        simulate(&w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)?;
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
        let a = arrival_upper(&tt, k_max, WindowMode::Exact)?;
        alpha_steps = Some(match alpha_steps {
            Some(acc) => acc.max(&a)?,
            None => a,
        });
        let g = UpperWorkloadCurve::new(max_window_sums(
            &clip.pe2_demands(),
            k_max,
            WindowMode::Exact,
        )?)?;
        gamma = Some(match gamma {
            Some(acc) => acc.max_merge(&g),
            None => g,
        });
    }
    let alpha_steps = alpha_steps.expect("clips processed");
    let gamma = gamma.expect("clips processed");
    let alpha = alpha_steps.to_pwl_upper();
    let horizon = alpha_steps.horizon();

    // PE2 at a frequency with some slack over the sustained demand.
    let f_pe2 = 1.25 * gamma.tail_cycles_per_event() * alpha_steps.tail_rate();
    println!(
        "PE2 at {:.1} MHz (1.25x sustained demand), window horizon {:.0} ms",
        f_pe2 / 1e6,
        horizon * 1e3
    );

    let unshaped = buffer_bound(&alpha, &gamma, f_pe2, horizon);
    println!("\nWithout shaper:");
    println!("  FIFO bound: {unshaped} macroblocks");

    // Shape to a leaky bucket at the sustained rate with a modest burst.
    println!("\nWith a greedy shaper between PE1 and the FIFO:");
    println!("  {:>10} {:>10} {:>12} {:>12}", "burst(MB)", "FIFO", "shaper buf", "delay(ms)");
    for burst in [100.0, 30.0, 10.0, 4.0] {
        let sigma = Pwl::affine(burst, 1.02 * alpha_steps.tail_rate())?;
        let shaper = GreedyShaper::new(sigma)?;
        let shaped = shaper.output_arrival(&alpha);
        let fifo = buffer_bound(&shaped, &gamma, f_pe2, horizon);
        let shaper_buf = shaper.backlog(&alpha)?.ceil() as u64;
        let delay = shaper.delay(&alpha)? * 1e3;
        println!("  {burst:>10.0} {fifo:>10} {shaper_buf:>12} {delay:>12.2}");
        assert!(
            fifo <= unshaped,
            "shaping must not increase the downstream buffer"
        );
    }
    println!("\n  tighter shaping trades downstream FIFO for shaper buffer + delay.");
    Ok(())
}
