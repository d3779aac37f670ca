//! Bench summary for the design-space sweep engine and the simulator
//! hot-path rewrite, written to `BENCH_sweep.json`.
//!
//! Five measurements, interleaved best-of-`REPS`:
//!
//! * **sweep points/s** — the full 14-clip grid, sequential without
//!   pruning vs threaded with the analytic pre-pass (the shipping
//!   configuration), plus a thread-scaling array (1/2/4/8 workers capped
//!   at the host's cores) and a `speedup_at_4` headline (`null` below
//!   4 cores). The pruned fraction is reported alongside, because on a
//!   single-core host it — not thread count — is what buys the speedup,
//!   and so is `simulated_frac`, the exact share of points left to the
//!   simulator (a deterministic count, guarded by
//!   `scripts/bench_smoke.sh`), next to `replayed_frac`, the exact share
//!   whose digest the departure replay supplies instead.
//! * **frontier bisection** — the Pareto frontier of a 64-frequency
//!   axis located by monotone staircase bisection: the full sweep's
//!   `pareto` asserted identical, cell counts, the evaluated fraction
//!   and the bisection's time recorded.
//! * **simulator ns/event** — the legacy heap-driven event loop
//!   (`wcm_bench::legacy`) vs the heap-free hot path with a reusable
//!   scratch, on one identical clip (3 events per macroblock).
//! * **simulator per policy** — one overloaded point (the same clip at
//!   a PE₂ clock far below its demand, capacity `4 · BUFFER_MB` = 6 480
//!   filled to the brim) under each overflow policy, in ns/event, and
//!   the same-process ratio `drop_priority_over_backpressure`: priority
//!   eviction must cost no more per push than a blocking write
//!   (guarded by `scripts/bench_smoke.sh`).
//! * **streaming result pipeline** — peak allocator bytes of the
//!   materializing `run_sweep` vs `run_sweep_streaming` into a
//!   stat-only sink, at a ~100k-cell grid and at 10× that: the
//!   streaming peak must stay flat while the materializing peak grows
//!   with the grid (guarded by `scripts/bench_smoke.sh`).
//! * **verdict equality** — asserts prune=on and prune=off agree on
//!   every overflow verdict, and every `replay_ok` digest equals the
//!   simulated one bit for bit, before any number is written.
//!
//! Usage: `cargo run --release -p wcm-bench --bin bench_sweep [OUT.json]`

use std::time::Instant;
use wcm_bench::alloc::{measure as measure_allocs, CountingAlloc};
use wcm_bench::legacy::simulate_pipeline_legacy;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile::standard_clips, GopStructure, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::pipeline::{simulate, FifoConfig, PipelineConfig, SimScratch};
use wcm_sim::sweep::PointReport;
use wcm_sim::{
    run_frontier, run_sweep, run_sweep_streaming, FaultedWorkload, OverflowPolicy, PointRecord,
    ShardRange, SweepError, SweepSink, SweepSpec, Verdict,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const REPS: usize = 5;

/// Stat-only sink for the streaming memory measurement: consumes each
/// record without retaining anything, so the run's peak is the
/// pipeline's own working set.
struct NullSink {
    points: u64,
}

impl SweepSink for NullSink {
    fn point(&mut self, rec: &PointRecord<'_>) -> Result<(), SweepError> {
        std::hint::black_box(rec.verdict);
        self.points += 1;
        Ok(())
    }
}

fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Interleaved measurement over [`REPS`] rounds, reversing the candidate
/// order on odd rounds (counterbalancing). Absolute numbers are
/// per-candidate minima; speedups are medians of per-round ratios, which
/// cancel common-mode noise bursts on a busy host (see `bench_curves`
/// for the rationale).
struct Timings {
    rounds: Vec<Vec<f64>>,
}

impl Timings {
    fn best(&self, i: usize) -> f64 {
        self.rounds[i].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median over rounds of `time[num] / time[den]`.
    fn speedup(&self, num: usize, den: usize) -> f64 {
        let mut r: Vec<f64> = self.rounds[num]
            .iter()
            .zip(&self.rounds[den])
            .map(|(a, b)| a / b)
            .collect();
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    }
}

fn measure<const M: usize>(candidates: [&mut dyn FnMut() -> f64; M]) -> Timings {
    let mut rounds = vec![Vec::with_capacity(REPS); M];
    for round in 0..REPS {
        for o in 0..M {
            let i = if round % 2 == 0 { o } else { M - 1 - o };
            let t = candidates[i]();
            rounds[i].push(t);
        }
    }
    Timings { rounds }
}

/// [`measure`] for a runtime-sized candidate list (the thread-scaling
/// sweep, whose length depends on the host's core count).
fn measure_dyn(candidates: &mut [Box<dyn FnMut() -> f64 + '_>]) -> Timings {
    let m = candidates.len();
    let mut rounds = vec![Vec::with_capacity(REPS); m];
    for round in 0..REPS {
        for o in 0..m {
            let i = if round % 2 == 0 { o } else { m - 1 - o };
            let t = candidates[i]();
            rounds[i].push(t);
        }
    }
    Timings { rounds }
}

/// The fixed `1/2/4/8` thread ladder, capped at `max` (the host's core
/// count) — every artifact carries the same rungs, so `speedup_at_4` is
/// comparable across hosts that have at least 4 cores.
fn thread_counts(max: usize) -> Vec<usize> {
    [1, 2, 4, 8].into_iter().filter(|&t| t <= max).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".into());
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);

    // The full 14-clip grid at the paper's operating range: frequencies
    // bracketing the ≈340 MHz (eq. 9) … ≈710 MHz (eq. 10) band, so the
    // analytic pre-pass can decide the points outside the band and only
    // the uncertain middle is simulated.
    let clips = wcm_bench::synthesize_clips(2)?;
    let params = clips[0].params();
    let spec = SweepSpec {
        pe1_hz: wcm_bench::PE1_HZ,
        frequencies_hz: vec![
            20.0e6, 40.0e6, 60.0e6, 120.0e6, 200.0e6, 280.0e6, 340.0e6, 420.0e6, 500.0e6,
            600.0e6, 710.0e6, 800.0e6, 900.0e6, 1000.0e6, 1200.0e6, 1600.0e6, 2000.0e6,
        ],
        capacities: vec![400, wcm_bench::BUFFER_MB, 4 * wcm_bench::BUFFER_MB],
        policies: vec![OverflowPolicy::Backpressure],
        seeds: vec![None],
        injectors: vec![],
        k_max: 2 * params.mb_per_frame(),
        mode: WindowMode::Strided {
            exact_upto: params.mb_per_frame() / 2,
            stride: params.mb_per_frame() / 10,
        },
        // Unread (see `SweepSpec::cert_depth`).
        cert_depth: 2 * 4 * wcm_bench::BUFFER_MB as usize,
        prune: true,
    };
    let unpruned = SweepSpec {
        prune: false,
        ..spec.clone()
    };

    eprintln!(
        "bench_sweep: {} clips x {} freqs x {} caps, threads={threads}, reps={REPS}",
        clips.len(),
        spec.frequencies_hz.len(),
        spec.capacities.len()
    );

    // Correctness gate first: identical verdicts with and without pruning.
    let report_pruned = run_sweep(&clips, &spec, Parallelism::Threads(threads))?;
    let report_full = run_sweep(&clips, &unpruned, Parallelism::Seq)?;
    assert_eq!(report_pruned.points.len(), report_full.points.len());
    for (a, b) in report_pruned.points.iter().zip(&report_full.points) {
        assert_eq!(
            a.verdict.overflowed(),
            b.verdict.overflowed(),
            "pruned/unpruned verdict mismatch at {} {} {}",
            a.clip,
            a.frequency_hz,
            a.capacity
        );
        if a.verdict == Verdict::ReplayOk {
            let digest =
                |p: &PointReport| (p.max_backlog, p.dropped, p.pe1_stalled_s.map(f64::to_bits));
            assert_eq!(
                digest(a),
                digest(b),
                "replayed digest differs from the simulated one"
            );
        }
    }
    let points = report_pruned.stats.total as f64;
    let pruned_fraction = report_pruned.stats.pruned_fraction();
    // Exact and host-independent: the share of the grid the analytic
    // pre-pass left to the simulator (guarded by scripts/bench_smoke.sh).
    let simulated_frac = report_pruned.stats.simulated as f64 / points;
    let replayed_frac = report_pruned.stats.replayed as f64 / points;

    let sweeps = measure([
        &mut || time_once(|| run_sweep(&clips, &unpruned, Parallelism::Seq).unwrap()),
        &mut || {
            time_once(|| run_sweep(&clips, &spec, Parallelism::Threads(threads)).unwrap())
        },
        &mut || time_once(|| run_sweep(&clips, &spec, Parallelism::Seq).unwrap()),
    ]);
    let (seq_unpruned_s, par_pruned_s, seq_pruned_s) =
        (sweeps.best(0), sweeps.best(1), sweeps.best(2));

    // Thread-scaling curve for the pruned sweep (one entry on one core).
    let counts = thread_counts(threads);
    let mut scaling_runs: Vec<Box<dyn FnMut() -> f64 + '_>> = counts
        .iter()
        .map(|&n| {
            let (clips, spec) = (&clips, &spec);
            Box::new(move || {
                time_once(|| run_sweep(clips, spec, Parallelism::Threads(n)).unwrap())
            }) as Box<dyn FnMut() -> f64 + '_>
        })
        .collect();
    let scaling = measure_dyn(&mut scaling_runs);
    let scaling_json = counts
        .iter()
        .enumerate()
        .map(|(idx, &n)| {
            format!(
                "{{ \"threads\": {n}, \"pruned_sweep_s\": {:.6}, \"points_per_s\": {:.2} }}",
                scaling.best(idx),
                points / scaling.best(idx)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    // Headline multi-core number: median per-round 1-thread/4-thread
    // ratio, `null` on hosts without 4 cores (the smoke guard skips it).
    let speedup_at_4 = counts
        .iter()
        .position(|&n| n == 4)
        .map_or("null".to_string(), |i4| {
            format!("{:.2}", scaling.speedup(0, i4))
        });

    // Frontier bisection against the full sweep's frontier, on a
    // frequency axis fine enough (64 points) that O(log) bisection has
    // room to win. Clean seed only — the frontier predicate ignores
    // fault seeds anyway.
    let frontier_spec = {
        let n = 64usize;
        let (lo, hi) = (20.0e6f64, 2000.0e6f64);
        SweepSpec {
            frequencies_hz: (0..n)
                .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
                .collect(),
            ..spec.clone()
        }
    };
    let frontier =
        || Parallelism::Threads(threads).scope(|| run_frontier(&clips, &frontier_spec));
    let sweep_pareto = run_sweep(&clips, &frontier_spec, Parallelism::Threads(threads))?.pareto;
    let bisect_frontier = frontier()?;
    let frontier_identical = bisect_frontier.frontier == sweep_pareto;
    assert!(
        frontier_identical,
        "bisected frontier diverged from the full sweep's"
    );
    let bisect_fraction =
        bisect_frontier.evaluated_cells as f64 / bisect_frontier.grid_cells as f64;
    let frontier_bisect_s = measure([&mut || time_once(|| frontier().unwrap())]).best(0);

    // Simulator hot path: ns per event (3 events per macroblock) on one
    // clip, legacy heap loop vs heap-free loop with a reused scratch.
    let clip = &clips[6];
    let cfg = PipelineConfig {
        bitrate_bps: clip.params().bitrate_bps(),
        pe1_hz: wcm_bench::PE1_HZ,
        pe2_hz: 90.0e6,
    };
    let stream = FaultedWorkload::clean(clip)?;
    let fifo = FifoConfig::unbounded();
    let mut scratch = SimScratch::new();
    // Equality gate (the bench lib's unit test covers it too, on a
    // smaller clip): both paths must agree on the backlog.
    let legacy_result = simulate_pipeline_legacy(clip, &cfg)?;
    let hot = simulate(&stream, &cfg, &fifo, None, &mut scratch)?;
    assert_eq!(legacy_result.max_backlog, hot.max_backlog);

    let sim = measure([
        &mut || time_once(|| simulate_pipeline_legacy(clip, &cfg).unwrap()),
        &mut || time_once(|| simulate(&stream, &cfg, &fifo, None, &mut scratch).unwrap()),
    ]);
    let events = 3.0 * clip.macroblock_count() as f64;
    let legacy_ns = sim.best(0) / events * 1e9;
    let hot_ns = sim.best(1) / events * 1e9;

    // One overloaded point per overflow policy: the same clip and clock,
    // with the largest sweep capacity, so a `DropByPriority` push finds
    // thousands of queued macroblocks. Per event means per the same
    // `3 · macroblocks` as above for every policy (drops skip PE₂), so
    // the ns/event figures compare as run times.
    let overload_capacity = 4 * wcm_bench::BUFFER_MB;
    let overload_fifo = [
        OverflowPolicy::Backpressure,
        OverflowPolicy::Reject,
        OverflowPolicy::DropByPriority,
    ]
    .map(|p| FifoConfig::bounded(overload_capacity, p));
    let run_policy = |fifo: &FifoConfig, scratch: &mut SimScratch| {
        simulate(&stream, &cfg, fifo, None, scratch).unwrap()
    };
    // One scratch per candidate: each timed closure borrows its own.
    let mut scratches: [SimScratch; 3] = Default::default();
    for (fifo, scratch) in overload_fifo.iter().zip(&mut scratches) {
        assert_eq!(
            run_policy(fifo, scratch).max_backlog,
            overload_capacity,
            "{:?}: the point must fill the FIFO",
            fifo.policy
        );
    }
    let [bp, reject, drop] = &mut scratches;
    let per_policy = measure([
        &mut || time_once(|| run_policy(&overload_fifo[0], bp)),
        &mut || time_once(|| run_policy(&overload_fifo[1], reject)),
        &mut || time_once(|| run_policy(&overload_fifo[2], drop)),
    ]);
    let [bp_ns, reject_ns, drop_ns] = [0, 1, 2].map(|i| per_policy.best(i) / events * 1e9);
    let drop_over_bp = per_policy.speedup(2, 0);

    // Streaming result pipeline: allocator peak of materializing vs
    // streaming, at a ~100k-cell grid and at 10× that. The grid grows
    // along the policy axis (duplicated entries): the analytic table
    // carries no policy dimension, so extra policies multiply only the
    // per-point result handling — exactly what the constant-memory
    // claim is about — at ~zero added precomputation. Frequencies sit
    // far outside the uncertain band so the pre-pass decides every
    // point and no simulation time drowns the measurement.
    let stream_clip = {
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())?;
        Synthesizer::new(params).generate(&standard_clips()[0], 1)?
    };
    let stream_spec_at = |dup_policies: usize| SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: vec![2.0e6, 2000.0e6],
        capacities: vec![20, 80],
        policies: vec![OverflowPolicy::Backpressure; dup_policies],
        seeds: vec![None],
        injectors: vec![],
        k_max: 400,
        mode: WindowMode::Strided {
            exact_upto: 96,
            stride: 40,
        },
        cert_depth: 300,
        prune: true,
    };
    let stream_base = stream_spec_at(25_000);
    let stream_big = stream_spec_at(250_000);
    let sclips = std::slice::from_ref(&stream_clip);

    // Correctness gate: the grid is fully analytic (otherwise the
    // measurement would mostly time simulation, not the result
    // pipeline).
    let stream_dense = run_sweep(sclips, &stream_base, Parallelism::Seq)?;
    assert_eq!(
        stream_dense.stats.pruned_safe + stream_dense.stats.pruned_unsafe,
        stream_dense.stats.total,
        "stream-bench grid must be fully analytic"
    );

    let run_mat = |spec: &SweepSpec| {
        let start = Instant::now();
        let (n, m) = measure_allocs(|| {
            let r = run_sweep(sclips, spec, Parallelism::Seq).unwrap();
            std::hint::black_box(r.points.len())
        });
        (start.elapsed().as_secs_f64(), n, m)
    };
    let run_stream = |spec: &SweepSpec| {
        let start = Instant::now();
        let (n, m) = measure_allocs(|| {
            let mut sink = NullSink { points: 0 };
            Parallelism::Seq
                .scope(|| run_sweep_streaming(sclips, spec, ShardRange::FULL, &mut sink))
                .unwrap();
            sink.points
        });
        (start.elapsed().as_secs_f64(), n, m)
    };
    let (mat_1x_s, mat_n_1x, mat_1x) = run_mat(&stream_base);
    let (mat_10x_s, mat_n_10x, mat_10x) = run_mat(&stream_big);
    let (_stream_1x_s, stream_n_1x, stream_1x) = run_stream(&stream_base);
    let (stream_10x_s, stream_n_10x, stream_10x) = run_stream(&stream_big);
    assert_eq!(mat_n_1x as u64, stream_n_1x);
    assert_eq!(mat_n_10x as u64, stream_n_10x);
    let stream_peak_ratio_10x = stream_10x.peak_bytes as f64 / stream_1x.peak_bytes.max(1) as f64;
    let mat_peak_ratio_10x = mat_10x.peak_bytes as f64 / mat_1x.peak_bytes.max(1) as f64;

    let n_clips = clips.len();
    let json = format!(
        "{{\n  \"config\": {{ \"clips\": {n_clips}, \"gops\": 2, \"grid_points\": {points}, \"threads\": {threads}, \"reps\": {REPS} }},\n\
         \x20 \"sweep\": {{\n\
         \x20   \"pruned_fraction\": {pruned_fraction:.4},\n\
         \x20   \"simulated_frac\": {simulated_frac:.4},\n\
         \x20   \"replayed_frac\": {replayed_frac:.4},\n\
         \x20   \"seq_unpruned_s\": {seq_unpruned_s:.6},\n\
         \x20   \"seq_pruned_s\": {seq_pruned_s:.6},\n\
         \x20   \"par_pruned_s\": {par_pruned_s:.6},\n\
         \x20   \"points_per_s_seq_unpruned\": {:.2},\n\
         \x20   \"points_per_s_par_pruned\": {:.2},\n\
         \x20   \"speedup_par_pruned_vs_seq_unpruned\": {:.1},\n\
         \x20   \"thread_scaling\": [\n      {scaling_json}\n    ],\n\
         \x20   \"speedup_at_4\": {speedup_at_4}\n\
         \x20 }},\n\
         \x20 \"frontier\": {{\n\
         \x20   \"grid_cells\": {},\n\
         \x20   \"bisect_cells_evaluated\": {},\n\
         \x20   \"bisect_fraction\": {bisect_fraction:.4},\n\
         \x20   \"identical\": {frontier_identical},\n\
         \x20   \"bisect_s\": {frontier_bisect_s:.6}\n\
         \x20 }},\n\
         \x20 \"simulator\": {{\n\
         \x20   \"events\": {events},\n\
         \x20   \"legacy_heap_ns_per_event\": {legacy_ns:.2},\n\
         \x20   \"hot_path_ns_per_event\": {hot_ns:.2},\n\
         \x20   \"speedup\": {:.1},\n\
         \x20   \"overload_capacity\": {overload_capacity},\n\
         \x20   \"backpressure_ns_per_event\": {bp_ns:.2},\n\
         \x20   \"reject_ns_per_event\": {reject_ns:.2},\n\
         \x20   \"drop_priority_ns_per_event\": {drop_ns:.2},\n\
         \x20   \"drop_priority_over_backpressure\": {drop_over_bp:.2}\n\
         \x20 }},\n\
         \x20 \"stream\": {{\n\
         \x20   \"grid_points_1x\": {mat_n_1x},\n\
         \x20   \"grid_points_10x\": {mat_n_10x},\n\
         \x20   \"materialize_peak_bytes_1x\": {},\n\
         \x20   \"materialize_peak_bytes_10x\": {},\n\
         \x20   \"stream_peak_bytes_1x\": {},\n\
         \x20   \"stream_peak_bytes_10x\": {},\n\
         \x20   \"materialize_allocs_10x\": {},\n\
         \x20   \"stream_allocs_10x\": {},\n\
         \x20   \"materialize_s_1x\": {mat_1x_s:.6},\n\
         \x20   \"materialize_s_10x\": {mat_10x_s:.6},\n\
         \x20   \"stream_s_10x\": {stream_10x_s:.6},\n\
         \x20   \"points_per_s_stream_10x\": {:.2},\n\
         \x20   \"materialize_peak_ratio_10x\": {mat_peak_ratio_10x:.2},\n\
         \x20   \"peak_ratio_10x\": {stream_peak_ratio_10x:.4}\n\
         \x20 }}\n}}\n",
        points / seq_unpruned_s,
        points / par_pruned_s,
        sweeps.speedup(0, 1),
        bisect_frontier.grid_cells,
        bisect_frontier.evaluated_cells,
        sim.speedup(0, 1),
        mat_1x.peak_bytes,
        mat_10x.peak_bytes,
        stream_1x.peak_bytes,
        stream_10x.peak_bytes,
        mat_10x.calls,
        stream_10x.calls,
        stream_n_10x as f64 / stream_10x_s,
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_sweep: {:.2}x points/s (pruned fraction {:.0}%), frontier bisection {}/{} cells, simulator {:.2}x ns/event, drop-priority/backpressure {drop_over_bp:.2}x, stream peak {:.2}x at 10x grid (materializing {:.2}x), wrote {out_path}",
        sweeps.speedup(0, 1),
        pruned_fraction * 100.0,
        bisect_frontier.evaluated_cells,
        bisect_frontier.grid_cells,
        sim.speedup(0, 1),
        stream_peak_ratio_10x,
        mat_peak_ratio_10x,
    );
    Ok(())
}
