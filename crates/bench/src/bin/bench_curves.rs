//! Bench summary for the single-pass, multi-threaded curve construction.
//!
//! Times the old per-`k` sliding-window rescan against the prefix-sum scan
//! (sequential and threaded) on the headline `N = 50 000`, `K = 2 000`
//! exact-mode workload, plus the lazy vs materialized min-plus tandem, the
//! chunked-summary fold behind the trace-parallel path, and a one-GOP
//! incremental append against a full rebuild. Writes the interleaved
//! best-of-`REPS` times, a thread-scaling array (1/2/4/8 workers capped
//! at the host's cores, plus a `speedup_at_4` headline field — `null`
//! on hosts with fewer than 4 cores), and the speedups to
//! `BENCH_curves.json`. Unlike the
//! criterion benches this runs in seconds and produces one
//! machine-readable file, so `scripts/` can invoke it as part of a
//! reproduction run.
//!
//! Usage: `cargo run --release -p wcm-bench --bin bench_curves [OUT.json]`

use std::time::Instant;
use wcm_bench::alloc::{count_allocs, CountingAlloc};
use wcm_bench::legacy::convolve_materialized;
use wcm_curves::{minplus, CurveIter, Pwl, Segment};
use wcm_events::summary::{summarize, CurveSummary, Sides, SummarySpine};
use wcm_events::window::{max_window_sums, min_spans, Parallelism, WindowMode};

const N: usize = 50_000;
const K: usize = 2_000;
const REPS: usize = 31;
/// Events in "one GOP" for the append measurement: a 12-frame group of
/// 250-macroblock frames, the granularity at which a monitor or sweep
/// replay extends its trace.
const GOP_EVENTS: usize = 3_000;

// Shared counting allocator (`wcm_bench::alloc`), so the lazy vs eager
// comparison can report allocation counts and bytes, not just
// wall-clock. Counting is always on; the counters are read as
// before/after snapshots around single-threaded regions.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic xorshift64* stream (the bench binaries do not link `rand`).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn demand_vector(n: usize) -> Vec<u64> {
    let mut rng = XorShift(7);
    (0..n)
        .map(|_| {
            if rng.below(10) == 0 {
                17_500
            } else {
                150 + rng.below(3_850)
            }
        })
        .collect()
}

fn timestamps(n: usize) -> Vec<f64> {
    let mut rng = XorShift(11);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += 1e-5 + rng.below(1_000_000) as f64 * 1e-9;
            t
        })
        .collect()
}

/// The pre-prefix-sum algorithm: one sliding rescan of the trace per `k`.
fn window_sums_rescan(values: &[u64], k_max: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let mut sum: u64 = values[..k].iter().sum();
        let mut best = sum;
        for i in k..values.len() {
            sum = sum + values[i] - values[i - k];
            best = best.max(sum);
        }
        out.push(best);
    }
    out
}

/// One timed run of `f` in seconds.
fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Interleaved measurement over [`REPS`] rounds: each round times every
/// candidate once and keeps all per-round times. Odd rounds run the
/// candidates in reverse so each pair executes in both orders equally —
/// running second is measurably (~2%) different from running first on
/// this class of host, and counterbalancing cancels that bias.
///
/// Absolute numbers are reported as the per-candidate minimum —
/// disturbances only ever slow a run down. Speedups are reported as the
/// *median of per-round ratios* instead of a ratio of minima: the two
/// sides of a ratio run back to back inside one round, so a noise burst
/// hits both and cancels, where a ratio of independent minima wobbles by
/// the full noise amplitude on a busy host.
struct Timings {
    rounds: Vec<Vec<f64>>,
}

impl Timings {
    fn best(&self, i: usize) -> f64 {
        self.rounds[i].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median over rounds of `time[num] / time[den]` — how many times
    /// faster `den` is than `num`.
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

fn staircase(segments: usize, seed: u64) -> Pwl {
    let mut rng = XorShift(seed);
    let mut x = 0.0;
    let mut y = 0.0;
    let mut bps = Vec::with_capacity(segments);
    for _ in 0..segments {
        let slope = rng.below(6_000) as f64 * 1e-3;
        bps.push((x, y, slope));
        let dx = 0.2 + rng.below(1_800) as f64 * 1e-3;
        y += slope * dx + rng.below(1_000) as f64 * 1e-3;
        x += dx;
    }
    Pwl::from_breakpoints(bps).expect("monotone by construction")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_curves.json".into());
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let v = demand_vector(N);
    let t = timestamps(N);

    eprintln!("bench_curves: N={N} K={K} threads={threads} reps={REPS}");

    // Each rung sets its worker count where the call enters.
    let sums = |par: Parallelism| par.scope(|| max_window_sums(&v, K, WindowMode::Exact).unwrap());
    let spans = |par: Parallelism| par.scope(|| min_spans(&t, K, WindowMode::Exact).unwrap());
    let core = measure([
        &mut || time_once(|| window_sums_rescan(&v, K)),
        &mut || time_once(|| sums(Parallelism::Seq)),
        &mut || time_once(|| sums(Parallelism::Threads(threads))),
        &mut || time_once(|| spans(Parallelism::Seq)),
        &mut || time_once(|| spans(Parallelism::Threads(threads))),
    ]);
    let (old_rescan, prefix_seq, prefix_par) = (core.best(0), core.best(1), core.best(2));
    let (spans_seq, spans_par) = (core.best(3), core.best(4));

    // Outputs must agree exactly, whichever path produced them.
    assert_eq!(
        window_sums_rescan(&v, K),
        sums(Parallelism::Threads(threads)),
        "old and new window analyses disagree"
    );

    // Thread-scaling curve: the same window-sum construction on the
    // 1/2/4/8 ladder capped at the host's core count (a single entry on
    // one core). The sequential baseline runs inside the same interleaved
    // batch so the per-count speedups are not skewed by drift between
    // batches.
    let counts = thread_counts(threads);
    let mut scaling_runs: Vec<Box<dyn FnMut() -> f64 + '_>> = Vec::new();
    scaling_runs.push(Box::new(|| time_once(|| sums(Parallelism::Seq))));
    for &n in &counts {
        scaling_runs.push(Box::new(move || time_once(|| sums(Parallelism::Threads(n)))));
    }
    let scaling = measure_dyn(&mut scaling_runs);

    // Chunked-summary fold behind the trace-parallel path. The 8-chunk
    // sequential fold isolates the merge overhead from any threading;
    // `summarize` is the shipping auto-chunked entry point.
    let grid: Vec<usize> = (1..=K).collect();
    let chunked_fold = |chunks: usize| {
        let chunk = N.div_ceil(chunks);
        let mut acc = CurveSummary::empty(&grid, Sides::Max);
        for c in v.chunks(chunk) {
            acc = acc.merge(&CurveSummary::from_values(c, &grid, Sides::Max));
        }
        acc
    };
    let summaries = measure([
        &mut || time_once(|| CurveSummary::from_values(&v, &grid, Sides::Max)),
        &mut || time_once(|| chunked_fold(8)),
        &mut || {
            time_once(|| {
                Parallelism::Threads(threads).scope(|| summarize(&v, &grid, Sides::Max))
            })
        },
    ]);
    let (summary_single_s, summary_chunked8_s, summary_auto_s) =
        (summaries.best(0), summaries.best(1), summaries.best(2));
    assert_eq!(
        chunked_fold(8).max_table(),
        CurveSummary::from_values(&v, &grid, Sides::Max).max_table(),
        "chunked fold and single-pass summary disagree"
    );

    // Incremental append, steady state: extend a live spine GOP by GOP —
    // refolding the queryable curve after each — across `GOPS` arrivals,
    // and report the per-GOP cost against rebuilding the whole N-event
    // curve from scratch (what a monitor would otherwise do per GOP).
    // Timing several GOPs amortizes the chunk seals honestly instead of
    // always (or never) straddling one. The spine clone inside the timed
    // region only makes the measured append pessimistic.
    const GOPS: usize = 10;
    let base_len = N - GOPS * GOP_EVENTS;
    let mut spine_base = SummarySpine::new(&grid, Sides::Max, 0);
    spine_base.extend_from_slice(&v[..base_len]);
    let run_gops = |spine: &SummarySpine| {
        let mut s = spine.clone();
        let mut last = CurveSummary::empty(&grid, Sides::Max);
        for g in 0..GOPS {
            let lo = base_len + g * GOP_EVENTS;
            s.extend_from_slice(&v[lo..lo + GOP_EVENTS]);
            last = s.curve();
        }
        last
    };
    let appends = measure([
        &mut || time_once(|| CurveSummary::from_values(&v, &grid, Sides::Max)),
        &mut || time_once(|| run_gops(&spine_base)),
    ]);
    assert_eq!(
        run_gops(&spine_base).max_table(),
        CurveSummary::from_values(&v, &grid, Sides::Max).max_table(),
        "incremental append and full rebuild disagree"
    );
    let rebuild_s = appends.best(0);
    let append_s = appends.best(1) / GOPS as f64;
    let append_ratio = appends.speedup(1, 0) / GOPS as f64;

    // Lazy streaming curve algebra: a 32-stage tandem service
    // composition (left fold of min-plus convolutions). The eager fold
    // runs the materializing convolution kept in `wcm_bench::legacy`,
    // which builds a fresh Pwl per stage plus every branch inside each
    // convolution; the lazy fold streams each convolution's segments
    // straight into a ping-pong buffer. The two are independent
    // implementations, pinned bitwise identical before anything is timed.
    const STAGES: usize = 32;
    let stage_curves: Vec<Pwl> = (0..STAGES)
        .map(|i| staircase(16, 100 + i as u64))
        .collect();
    let eager_tandem = || {
        let mut acc = stage_curves[0].clone();
        for c in &stage_curves[1..] {
            acc = convolve_materialized(&acc, c);
        }
        acc
    };
    let lazy_tandem = || {
        let mut acc = stage_curves[0].clone();
        let mut buf: Vec<Segment> = Vec::new();
        for c in &stage_curves[1..] {
            let next =
                minplus::convolve_lazy(&acc, c).collect_pwl_reusing(std::mem::take(&mut buf));
            buf = std::mem::replace(&mut acc, next).into_segments();
        }
        acc
    };
    {
        let (e, l) = (eager_tandem(), lazy_tandem());
        assert_eq!(e.segments().len(), l.segments().len(), "lazy tandem diverged");
        for (a, b) in e.segments().iter().zip(l.segments()) {
            assert!(
                a.x.to_bits() == b.x.to_bits()
                    && a.y.to_bits() == b.y.to_bits()
                    && a.slope.to_bits() == b.slope.to_bits(),
                "lazy tandem is not bitwise identical to eager"
            );
        }
    }
    let (tandem_eager_allocs, tandem_eager_bytes) = count_allocs(eager_tandem);
    let (tandem_lazy_allocs, tandem_lazy_bytes) = count_allocs(lazy_tandem);
    let tandem = measure([
        &mut || time_once(eager_tandem),
        &mut || time_once(lazy_tandem),
    ]);
    let (tandem_eager_s, tandem_lazy_s) = (tandem.best(0), tandem.best(1));
    let tandem_alloc_ratio = tandem_eager_allocs as f64 / tandem_lazy_allocs as f64;
    let tandem_bytes_ratio = tandem_eager_bytes as f64 / tandem_lazy_bytes as f64;

    // Binary wire format: encode and decode throughput on the same
    // N-event demand+timestamp trace, plus the cost of the lenient
    // (resync-capable) reader on a clean stream relative to strict —
    // graceful degradation must not tax the happy path.
    let encode_wire = || {
        let mut enc = wcm_wire::StreamEncoder::new();
        enc.meta("bench");
        enc.demands(&v);
        enc.times(&t).expect("finite timestamps");
        enc.finish()
    };
    let wire_bytes = encode_wire();
    let wire_mb = wire_bytes.len() as f64 / 1e6;
    let wire = measure([
        &mut || time_once(encode_wire),
        &mut || {
            time_once(|| wcm_wire::decode(&wire_bytes, wcm_wire::DecodePolicy::Strict).unwrap())
        },
        &mut || {
            time_once(|| {
                wcm_wire::decode(&wire_bytes, wcm_wire::DecodePolicy::SkipCorrupt).unwrap()
            })
        },
    ]);
    let (wire_enc_s, wire_dec_s, wire_lenient_s) = (wire.best(0), wire.best(1), wire.best(2));
    let wire_lenient_ratio = wire.speedup(2, 1);
    {
        let back = wcm_wire::decode(&wire_bytes, wcm_wire::DecodePolicy::Strict).unwrap();
        assert_eq!(back.demands, v, "wire round trip lost demands");
        assert!(back.report.is_clean(), "clean stream decoded unclean");
    }

    let scaling_json = counts
        .iter()
        .enumerate()
        .map(|(idx, &n)| {
            format!(
                "{{ \"threads\": {n}, \"window_sums_s\": {:.6}, \"speedup_vs_seq\": {:.1} }}",
                scaling.best(idx + 1),
                scaling.speedup(0, idx + 1)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    // Headline multi-core number: median per-round seq/4-thread ratio,
    // `null` on hosts without 4 cores (the smoke guard skips it there).
    let speedup_at_4 = counts
        .iter()
        .position(|&n| n == 4)
        .map_or("null".to_string(), |idx| {
            format!("{:.2}", scaling.speedup(0, idx + 1))
        });

    let speedup_old_vs_par = core.speedup(0, 2);
    let wire_enc_mb_s = wire_mb / wire_enc_s;
    let wire_enc_ev_s = N as f64 * 2.0 / wire_enc_s; // demand + timestamp per event
    let wire_dec_mb_s = wire_mb / wire_dec_s;
    let wire_dec_ev_s = N as f64 * 2.0 / wire_dec_s;
    let json = format!(
        "{{\n  \"config\": {{ \"n_events\": {N}, \"k_max\": {K}, \"threads\": {threads}, \"reps\": {REPS}, \"gop_events\": {GOP_EVENTS} }},\n\
         \x20 \"window_sums\": {{\n\
         \x20   \"old_rescan_s\": {old_rescan:.6},\n\
         \x20   \"prefix_seq_s\": {prefix_seq:.6},\n\
         \x20   \"prefix_par_s\": {prefix_par:.6},\n\
         \x20   \"speedup_prefix_vs_old\": {:.1},\n\
         \x20   \"speedup_par_vs_seq\": {:.1},\n\
         \x20   \"speedup_total\": {speedup_old_vs_par:.1}\n\
         \x20 }},\n\
         \x20 \"thread_scaling\": [\n      {scaling_json}\n    ],\n\
         \x20 \"speedup_at_4\": {speedup_at_4},\n\
         \x20 \"chunk_summaries\": {{\n\
         \x20   \"single_pass_s\": {summary_single_s:.6},\n\
         \x20   \"chunked8_fold_s\": {summary_chunked8_s:.6},\n\
         \x20   \"auto_summarize_s\": {summary_auto_s:.6},\n\
         \x20   \"merge_overhead_vs_single\": {:.2}\n\
         \x20 }},\n\
         \x20 \"append_one_gop\": {{\n\
         \x20   \"gop_events\": {GOP_EVENTS},\n\
         \x20   \"full_rebuild_s\": {rebuild_s:.6},\n\
         \x20   \"incremental_append_s\": {append_s:.6},\n\
         \x20   \"append_over_rebuild\": {append_ratio:.4}\n\
         \x20 }},\n\
         \x20 \"min_spans\": {{ \"seq_s\": {spans_seq:.6}, \"par_s\": {spans_par:.6}, \"speedup\": {:.1} }},\n\
         \x20 \"lazy_tandem_32\": {{\n\
         \x20   \"stages\": {STAGES},\n\
         \x20   \"eager_s\": {tandem_eager_s:.6},\n\
         \x20   \"lazy_s\": {tandem_lazy_s:.6},\n\
         \x20   \"speedup_lazy_vs_eager\": {:.2},\n\
         \x20   \"eager_allocs\": {tandem_eager_allocs},\n\
         \x20   \"lazy_allocs\": {tandem_lazy_allocs},\n\
         \x20   \"alloc_ratio\": {tandem_alloc_ratio:.1},\n\
         \x20   \"eager_bytes\": {tandem_eager_bytes},\n\
         \x20   \"lazy_bytes\": {tandem_lazy_bytes},\n\
         \x20   \"bytes_ratio\": {tandem_bytes_ratio:.1}\n\
         \x20 }},\n\
         \x20 \"wire\": {{\n\
         \x20   \"stream_mb\": {wire_mb:.3},\n\
         \x20   \"events\": {N},\n\
         \x20   \"encode_s\": {wire_enc_s:.6},\n\
         \x20   \"encode_mb_s\": {wire_enc_mb_s:.1},\n\
         \x20   \"encode_events_s\": {wire_enc_ev_s:.0},\n\
         \x20   \"decode_strict_s\": {wire_dec_s:.6},\n\
         \x20   \"decode_mb_s\": {wire_dec_mb_s:.1},\n\
         \x20   \"decode_events_s\": {wire_dec_ev_s:.0},\n\
         \x20   \"decode_lenient_clean_s\": {wire_lenient_s:.6},\n\
         \x20   \"lenient_overhead_vs_strict\": {wire_lenient_ratio:.2}\n\
         \x20 }}\n}}\n",
        core.speedup(0, 1),
        core.speedup(1, 2),
        summaries.speedup(1, 0),
        core.speedup(3, 4),
        tandem.speedup(0, 1),
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_curves: total speedup {speedup_old_vs_par:.1}x, one-GOP append at {:.0}% of a rebuild, wrote {out_path}",
        append_ratio * 100.0
    );
    Ok(())
}
