//! Reduced-scale end-to-end checks of the MPEG-2 case study (Sec. 3.2):
//! the analytical bounds must dominate everything the simulator observes.

use wcm::core::build::arrival_upper;
use wcm::core::sizing::{min_buffer, min_frequency_wcet, min_frequency_workload};
use wcm::core::UpperWorkloadCurve;
use wcm::events::window::{max_window_sums, WindowMode};
use wcm::events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm::mpeg::{profile, ClipWorkload, GopStructure, Synthesizer, VideoParams};
use wcm::sim::pipeline::{simulate, FifoConfig, PipelineConfig, PipelineSummary, SimScratch};
use wcm::sim::FaultedWorkload;

const PE1_HZ: f64 = 10.0e6;

fn small_params() -> VideoParams {
    // 320×256 → 320 macroblocks per frame; scaled bitrate.
    VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast()).unwrap()
}

fn clip(index: usize, gops: usize) -> ClipWorkload {
    Synthesizer::new(small_params())
        .generate(&profile::standard_clips()[index], gops)
        .unwrap()
}

/// One clean run through an unbounded FIFO.
#[derive(Debug, PartialEq)]
struct Run {
    summary: PipelineSummary,
    fifo_in_times: Vec<f64>,
    fifo_out_times: Vec<f64>,
}

fn run(clip: &ClipWorkload, pe2_hz: f64) -> Run {
    let cfg = PipelineConfig {
        bitrate_bps: clip.params().bitrate_bps(),
        pe1_hz: PE1_HZ,
        pe2_hz,
    };
    let w = FaultedWorkload::clean(clip).unwrap();
    let mut scratch = SimScratch::new();
    let summary = simulate(&w, &cfg, &FifoConfig::unbounded(), None, &mut scratch).unwrap();
    Run {
        summary,
        fifo_in_times: scratch.fifo_in_times().to_vec(),
        fifo_out_times: scratch.fifo_out_times().to_vec(),
    }
}

fn measure(clip: &ClipWorkload, k_max: usize) -> (wcm::curves::StepCurve, UpperWorkloadCurve) {
    let r = run(clip, 1.0e9);
    let mut reg = TypeRegistry::new();
    let mb = reg
        .register("mb", ExecutionInterval::fixed(Cycles(1)))
        .unwrap();
    let tt = TimedTrace::new(
        reg,
        r.fifo_in_times
            .iter()
            .map(|&time| TimedEvent { time, ty: mb })
            .collect(),
    )
    .unwrap();
    let alpha = arrival_upper(&tt, k_max, WindowMode::Exact).unwrap();
    let demands = clip.pe2_demands();
    let gamma = UpperWorkloadCurve::new(
        max_window_sums(&demands, k_max, WindowMode::Exact).unwrap(),
    )
    .unwrap();
    (alpha, gamma)
}

/// The measured arrival staircase really covers the trace: for every
/// window of FIFO-input timestamps, the count is within the curve.
#[test]
fn measured_arrival_curve_covers_all_windows() {
    let c = clip(9, 1);
    let r = run(&c, 1.0e9);
    let times = &r.fifo_in_times;
    let k_max = 800usize;
    let (alpha, _) = measure(&c, k_max);
    for k in (1..=k_max).step_by(97) {
        for w in times.windows(k) {
            let span = w[k - 1] - w[0];
            assert!(
                alpha.value(span) >= k as u64,
                "window of {k} events in {span}s not covered"
            );
        }
    }
}

/// Eq. 7 soundness: the analytical backlog bound dominates the simulated
/// FIFO occupancy at every tested PE₂ frequency.
#[test]
fn backlog_bound_dominates_simulation() {
    let c = clip(12, 2);
    let k_max = 6 * small_params().mb_per_frame();
    let (alpha, gamma) = measure(&c, k_max);
    for f_mhz in [40.0, 60.0, 90.0, 140.0] {
        let f = f_mhz * 1e6;
        let bound = match min_buffer(&alpha, &gamma, f) {
            Ok(b) => b,
            Err(_) => continue, // under-provisioned: divergent bound
        };
        let sim = run(&c, f);
        assert!(
            sim.summary.max_backlog <= bound,
            "F = {f_mhz} MHz: simulated {} exceeds bound {bound}",
            sim.summary.max_backlog
        );
    }
}

/// Eq. 9 validity: at the computed minimum frequency, no simulated clip
/// ever exceeds the buffer.
#[test]
fn eq9_frequency_prevents_overflow() {
    let buffer = small_params().mb_per_frame() as u64; // one frame
    let k_max = 6 * small_params().mb_per_frame();
    let clips: Vec<ClipWorkload> = [9, 12, 13].iter().map(|&i| clip(i, 2)).collect();
    let mut alpha: Option<wcm::curves::StepCurve> = None;
    let mut gamma: Option<UpperWorkloadCurve> = None;
    for c in &clips {
        let (a, g) = measure(c, k_max);
        alpha = Some(match alpha {
            Some(acc) => acc.max(&a).unwrap(),
            None => a,
        });
        gamma = Some(match gamma {
            Some(acc) => acc.max_merge(&g),
            None => g,
        });
    }
    let (alpha, gamma) = (alpha.unwrap(), gamma.unwrap());
    let f_gamma = min_frequency_workload(&alpha, &gamma, buffer).unwrap();
    let f_wcet = min_frequency_wcet(&alpha, gamma.wcet(), buffer).unwrap();
    assert!(f_gamma <= f_wcet, "eq. 9 must not exceed eq. 10");
    assert!(
        f_gamma <= 0.75 * f_wcet,
        "the workload-curve saving should be substantial: {f_gamma} vs {f_wcet}"
    );
    for c in &clips {
        let sim = run(c, f_gamma);
        assert!(
            sim.summary.max_backlog <= buffer,
            "{}: backlog {} exceeds buffer {buffer} at F_gamma",
            c.name(),
            sim.summary.max_backlog
        );
    }
}

/// The *analytic* PE₁-output bound (chain throttles: processing cycles
/// and input bits, both via lower workload curves) dominates the measured
/// arrival curve — the analysis the paper said was hard to do without a
/// simulator, validated against the simulator.
#[test]
fn analytic_output_bound_dominates_measured_arrival() {
    use wcm::core::chain::{producer_output_bound, Throttle};
    use wcm::core::LowerWorkloadCurve;
    use wcm::events::window::min_window_sums;

    let c = clip(12, 1);
    let k_max = 2 * small_params().mb_per_frame();
    let r = run(&c, 1.0e9);

    // Lower workload curves of PE1's two consumed resources.
    let pe1_cycles = c.pe1_demands();
    let bits = c.mb_bits();
    let gamma_proc =
        LowerWorkloadCurve::new(min_window_sums(&pe1_cycles, k_max, WindowMode::Exact).unwrap())
            .unwrap();
    let gamma_bits =
        LowerWorkloadCurve::new(min_window_sums(&bits, k_max, WindowMode::Exact).unwrap())
            .unwrap();

    // Measure how many bits PE1 ever had pre-buffered (arrived but not yet
    // consumed at an emission instant).
    let rate = c.params().bitrate_bps();
    let total_bits: u64 = bits.iter().sum();
    let mut cum = 0u64;
    let mut head_start = 0.0f64;
    for (i, &b) in bits.iter().enumerate() {
        cum += b;
        let arrived = (rate * r.fifo_in_times[i]).min(total_bits as f64);
        head_start = head_start.max(arrived - cum as f64);
    }

    let bound = producer_output_bound(
        &[
            Throttle {
                gamma_lower: &gamma_proc,
                rate: PE1_HZ,
                head_start: 0.0,
            },
            Throttle {
                gamma_lower: &gamma_bits,
                rate,
                head_start,
            },
        ],
        k_max,
    )
    .unwrap();

    // Every window of the simulated output must respect the bound.
    let times = &r.fifo_in_times;
    for k in (2..=k_max).step_by(61) {
        for w in times.windows(k) {
            let span = w[k - 1] - w[0];
            assert!(
                bound.value(span) >= k as u64,
                "{k} emissions in {span}s exceed the analytic bound {}",
                bound.value(span)
            );
        }
    }
}

/// Reproducibility: the whole pipeline is bit-deterministic per seed.
#[test]
fn case_study_is_deterministic() {
    let a = run(&clip(5, 1), 50.0e6);
    let b = run(&clip(5, 1), 50.0e6);
    assert_eq!(a, b);
}

/// Monotonicity in frequency: faster PE₂ never increases the max backlog.
#[test]
fn backlog_monotone_in_frequency() {
    let c = clip(13, 1);
    let mut prev = u64::MAX;
    for f_mhz in [40.0, 80.0, 160.0, 320.0] {
        let sim = run(&c, f_mhz * 1e6);
        assert!(
            sim.summary.max_backlog <= prev,
            "backlog rose with frequency at {f_mhz} MHz"
        );
        prev = sim.summary.max_backlog;
    }
}
