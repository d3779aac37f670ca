//! Bench summary for the `wcm-obs` recorder overhead, written to
//! `BENCH_obs.json`.
//!
//! The criterion group in `benches/obs.rs` times the same workload, but
//! its groups run back-to-back rather than interleaved, so a frequency
//! shift between the "off" and the "on" group shows up as phantom
//! overhead several times larger than the real cost. This bin uses the
//! same interleaved counterbalanced protocol as `bench_curves` /
//! `bench_sweep`: the recorder-off and recorder-on sweeps alternate
//! within each round and the overhead is the *median of per-round
//! paired ratios*, which cancels common-mode noise bursts.
//!
//! Two numbers are recorded (EXPERIMENTS.md §E12):
//!
//! * **enabled overhead** — `run_sweep` with the shared `MemRecorder`
//!   live vs the gate closed, same process, median paired ratio. The
//!   acceptance bound is < 3 %.
//! * **disabled primitives** — ns per facade call with the gate closed
//!   (one relaxed atomic load), for spans and counters.
//!
//! Usage: `cargo run --release -p wcm-bench --bin bench_obs [OUT.json]`

use std::time::Instant;
use wcm_events::window::WindowMode;
use wcm_mpeg::{profile, ClipWorkload, GopStructure, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::{run_sweep, OverflowPolicy, SweepSpec};

/// Interleaved rounds; the median paired ratio needs an odd count.
const REPS: usize = 31;
/// `run_sweep` calls per timed sample, to sit well above timer noise.
const INNER: usize = 24;

fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

fn small_clips(count: usize) -> Vec<ClipWorkload> {
    let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    profile::standard_clips()[..count]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

fn sweep_spec(mb_frame: usize) -> SweepSpec {
    SweepSpec {
        pe1_hz: 20.0e6,
        frequencies_hz: vec![2.0e6, 6.0e6, 20.0e6, 60.0e6, 200.0e6],
        capacities: vec![4, 80, 4000],
        policies: vec![OverflowPolicy::Backpressure],
        seeds: vec![None],
        injectors: vec![],
        k_max: 4 * mb_frame,
        mode: WindowMode::Strided {
            exact_upto: mb_frame / 2,
            stride: mb_frame / 10,
        },
        cert_depth: 2 * 4000,
        prune: true,
    }
}

/// Median of `on[i] / off[i]` over paired rounds.
fn median_ratio(on: &[f64], off: &[f64]) -> f64 {
    let mut r: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b).collect();
    r.sort_by(f64::total_cmp);
    r[r.len() / 2]
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".into());

    let clips = small_clips(3);
    let spec = sweep_spec(clips[0].params().mb_per_frame());
    let rec = wcm_obs::mem();

    // One timed unit: a single sweep with the gate in the given state.
    // The recorder is drained afterwards so buffered spans can't grow
    // across the measurement (the reset is outside the timed region for
    // both candidates, so it cancels in the ratio anyway).
    let one = |enabled: bool| {
        wcm_obs::set_enabled(enabled);
        let t = time_once(|| {
            std::hint::black_box(run_sweep(&clips, &spec, Parallelism::Seq).unwrap());
        });
        wcm_obs::set_enabled(false);
        rec.reset();
        t
    };

    // One round: INNER off-sweeps and INNER on-sweeps, alternating at
    // single-sweep (sub-ms) granularity with the order flipped per pair,
    // so a noise burst on the host — this bin also runs on single-core
    // shared runners — lands on both candidates near-equally instead of
    // inflating whichever candidate it happened to overlap.
    let round_pair = |round: usize| {
        let (mut t_off, mut t_on) = (0.0, 0.0);
        for i in 0..INNER {
            if (round + i).is_multiple_of(2) {
                t_off += one(false);
                t_on += one(true);
            } else {
                t_on += one(true);
                t_off += one(false);
            }
        }
        (t_off, t_on)
    };

    eprintln!(
        "bench_obs: {} clips, {} grid points, reps={REPS}, inner={INNER}",
        clips.len(),
        spec.frequencies_hz.len() * spec.capacities.len() * clips.len()
    );

    // Warm-up round (untimed) so code and clip data are hot before the
    // first counterbalanced pair.
    round_pair(0);

    let mut off = Vec::with_capacity(REPS);
    let mut on = Vec::with_capacity(REPS);
    for round in 0..REPS {
        let (t_off, t_on) = round_pair(round);
        off.push(t_off);
        on.push(t_on);
    }
    let overhead = median_ratio(&on, &off);
    let sweep_off_s = best(&off) / INNER as f64;
    let sweep_on_s = best(&on) / INNER as f64;

    // Disabled-gate primitives: ns per facade call. 1e6 calls per sample
    // puts each timing in the hundreds of µs; best-of-REPS minima.
    wcm_obs::set_enabled(false);
    const CALLS: usize = 1_000_000;
    let mut span_s = Vec::with_capacity(REPS);
    let mut counter_s = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        span_s.push(time_once(|| {
            for _ in 0..CALLS {
                let _g = wcm_obs::span("bench.noop");
            }
        }));
        counter_s.push(time_once(|| {
            for i in 0..CALLS as u64 {
                wcm_obs::counter("bench.noop", i & 1);
            }
        }));
    }
    let span_ns = best(&span_s) / CALLS as f64 * 1e9;
    let counter_ns = best(&counter_s) / CALLS as f64 * 1e9;

    let n_clips = clips.len();
    let points = spec.frequencies_hz.len() * spec.capacities.len() * n_clips;
    let json = format!(
        "{{\n  \"config\": {{ \"clips\": {n_clips}, \"grid_points\": {points}, \"reps\": {REPS}, \"inner\": {INNER} }},\n\
         \x20 \"enabled\": {{\n\
         \x20   \"sweep_off_s\": {sweep_off_s:.6},\n\
         \x20   \"sweep_on_s\": {sweep_on_s:.6},\n\
         \x20   \"overhead_median_ratio\": {overhead:.4},\n\
         \x20   \"overhead_pct\": {:.2}\n\
         \x20 }},\n\
         \x20 \"disabled\": {{\n\
         \x20   \"span_ns_per_call\": {span_ns:.2},\n\
         \x20   \"counter_ns_per_call\": {counter_ns:.2}\n\
         \x20 }}\n}}\n",
        (overhead - 1.0) * 100.0
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_obs: recorder overhead {:.2}% (median paired ratio over {REPS} rounds), \
         disabled span {span_ns:.2} ns, counter {counter_ns:.2} ns, wrote {out_path}",
        (overhead - 1.0) * 100.0
    );
    Ok(())
}
