//! One benchmark per paper experiment, at reduced scale so `cargo bench`
//! terminates quickly. The full-scale regenerations live in the `fig*` and
//! `table_*` binaries (see EXPERIMENTS.md); these benches track the cost of
//! the identical code paths.

use criterion::{criterion_group, criterion_main, Criterion};
use wcm_core::polling::PollingTask;
use wcm_core::sizing::{min_frequency_wcet, min_frequency_workload};
use wcm_core::Cycles;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile, GopStructure, Synthesizer, VideoParams};
use wcm_sched::rms::{lehoczky_wcet, lehoczky_workload};
use wcm_sched::task::{PeriodicTask, TaskSet};

fn small_params() -> VideoParams {
    VideoParams::new(320, 256, 2.0e6 / 391_200.0 * 25.0 * 6.5, 2.0e6, GopStructure::broadcast())
        .unwrap_or_else(|_| {
            VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast()).unwrap()
        })
}

/// E2 — the Fig. 2 polling-task curves.
fn bench_e2_polling(c: &mut Criterion) {
    let task = PollingTask::new(1.0, 3.0, 5.0, Cycles(10), Cycles(2)).unwrap();
    c.bench_function("e2_fig2_polling_curves_k500", |b| {
        b.iter(|| task.bounds(500).unwrap())
    });
}

/// E3 — one row of the RMS table (classic + refined test).
fn bench_e3_rms_row(c: &mut Criterion) {
    let video = PeriodicTask::new("video", 10.0, Cycles(90))
        .unwrap()
        .with_pattern(vec![
            Cycles(90),
            Cycles(32),
            Cycles(10),
            Cycles(32),
            Cycles(10),
            Cycles(10),
        ])
        .unwrap();
    let audio = PeriodicTask::new("audio", 40.0, Cycles(60)).unwrap();
    let ctrl = PeriodicTask::new("ctrl", 80.0, Cycles(40)).unwrap();
    let set = TaskSet::new(vec![video, audio, ctrl]).unwrap();
    c.bench_function("e3_rms_table_row", |b| {
        b.iter(|| {
            let classic = lehoczky_wcet(&set, 10.0).unwrap();
            let refined = lehoczky_workload(&set, 10.0).unwrap();
            (classic.l, refined.l)
        })
    });
}

/// E4 — workload-curve measurement of one small clip.
fn bench_e4_clip_curves(c: &mut Criterion) {
    let params = VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast()).unwrap();
    let clip = Synthesizer::new(params)
        .generate(&profile::standard_clips()[8], 1)
        .unwrap();
    let demands = clip.pe2_demands();
    let k_max = 2 * params.mb_per_frame();
    c.bench_function("e4_fig6_clip_workload_curve", |b| {
        b.iter(|| {
            wcm_events::window::max_window_sums(
                &demands,
                k_max,
                WindowMode::Strided {
                    exact_upto: 160,
                    stride: 32,
                },
            )
            .unwrap()
        })
    });
}

/// E5 — the eq. 9 / eq. 10 sizing step (curves pre-measured).
fn bench_e5_fmin(c: &mut Criterion) {
    let params = small_params();
    let clip = Synthesizer::new(params)
        .generate(&profile::standard_clips()[12], 1)
        .unwrap();
    let demands = clip.pe2_demands();
    let k_max = 3 * params.mb_per_frame();
    let gamma = wcm_core::UpperWorkloadCurve::new(
        wcm_events::window::max_window_sums(&demands, k_max, WindowMode::Exact).unwrap(),
    )
    .unwrap();
    // A synthetic arrival staircase of matching scale.
    let steps: Vec<(f64, u64)> = (0..200)
        .map(|i| (i as f64 * 0.002, 1 + (i as u64) * 40))
        .collect();
    let alpha = wcm_curves::StepCurve::new(steps, 0.4, 10_000.0).unwrap();
    let buffer = params.mb_per_frame() as u64;
    c.bench_function("e5_fmin_sizing", |b| {
        b.iter(|| {
            let fg = min_frequency_workload(&alpha, &gamma, buffer).unwrap();
            let fw = min_frequency_wcet(&alpha, gamma.wcet(), buffer).unwrap();
            (fg, fw)
        })
    });
}

/// E6 — one pipeline simulation at a fixed frequency (the Fig. 7 inner
/// loop).
fn bench_e6_pipeline_sim(c: &mut Criterion) {
    let params = VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast()).unwrap();
    let clip = Synthesizer::new(params)
        .generate(&profile::standard_clips()[13], 1)
        .unwrap();
    let cfg = wcm_sim::PipelineConfig {
        bitrate_bps: params.bitrate_bps(),
        pe1_hz: 10.0e6,
        pe2_hz: 60.0e6,
    };
    let fifo = wcm_sim::FifoConfig::unbounded();
    c.bench_function("e6_fig7_pipeline_sim_1gop", |b| {
        b.iter(|| {
            let w = wcm_sim::FaultedWorkload::clean(&clip).unwrap();
            let mut scratch = wcm_sim::SimScratch::new();
            wcm_sim::simulate(&w, &cfg, &fifo, None, &mut scratch).unwrap();
            scratch
        })
    });
}

/// E1/E7-adjacent — clip synthesis itself (the substrate cost).
fn bench_clip_synthesis(c: &mut Criterion) {
    let params = VideoParams::new(320, 256, 25.0, 2.0e6, GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    let profile = &profile::standard_clips()[6];
    c.bench_function("mpeg_synthesize_1gop", |b| {
        b.iter(|| synth.generate(profile, 1).unwrap())
    });
}

criterion_group!(
    benches,
    bench_e2_polling,
    bench_e3_rms_row,
    bench_e4_clip_curves,
    bench_e5_fmin,
    bench_e6_pipeline_sim,
    bench_clip_synthesis
);
criterion_main!(benches);
