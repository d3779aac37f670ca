//! Bench summary for the single-pass curve construction.
//!
//! Times the old per-`k` sliding-window rescan against the prefix-sum scan
//! on the headline `N = 50 000`, `K = 2 000` exact-mode workload, plus
//! the lazy vs materialized min-plus tandem
//! and a one-GOP incremental append against a full rebuild. Two rungs pin
//! the pruned window scan: the share of windows it evaluates on one MP@ML clip at
//! `k` = 24 frames (a deterministic count, read from the
//! `events.windows_scanned`/`events.windows_total` counters), and the
//! prefix-vs-rescan speedup on a constant trace, where no block of
//! window starts can be skipped. The `pruned_spans` rung does the same
//! for ᾱ's span scan on the clip's FIFO-input stamps (the share from the
//! `events.spans_scanned`/`events.spans_total` counters, the time against
//! the naive fold over every span) and on stamps with constant gaps,
//! where nothing prunes. Writes the interleaved
//! best-of-`REPS` times and the speedups to `BENCH_curves.json`. The
//! scans run on the calling thread, so no rung varies the worker
//! count. Unlike the
//! criterion benches this runs in seconds and produces one
//! machine-readable file, so `scripts/` can invoke it as part of a
//! reproduction run.
//!
//! Usage: `cargo run --release -p wcm-bench --bin bench_curves [OUT.json]`

use std::time::Instant;
use wcm_bench::alloc::{count_allocs, CountingAlloc};
use wcm_bench::legacy::{convolve_materialized, min_spans_naive, window_maxima_unpruned};
use wcm_core::{EnvelopeMonitor, LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use wcm_curves::{minplus, CurveIter, Pwl, Segment};
use wcm_events::summary::{CurveSummary, Sides};
use wcm_events::window::{max_window_sums, min_spans, min_window_sums, WindowMode};
use wcm_mpeg::VideoParams;

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
    let v = demand_vector(N);
    let t = timestamps(N);

    eprintln!("bench_curves: N={N} K={K} reps={REPS}");

    let sums = || max_window_sums(&v, K, WindowMode::Exact).unwrap();
    let core = measure([
        &mut || time_once(|| window_sums_rescan(&v, K)),
        &mut || time_once(sums),
        &mut || time_once(|| min_spans(&t, K, WindowMode::Exact).unwrap()),
    ]);
    let (old_rescan, prefix_seq, spans_seq) = (core.best(0), core.best(1), core.best(2));

    // Outputs must agree exactly, whichever path produced them.
    assert_eq!(window_sums_rescan(&v, K), sums(), "old and new window analyses disagree");

    // Pruned scans, where they prune: the paper's own workload (one
    // MP@ML clip, γᵘ and γˡ at k = 24 frames on the full-scale grid).
    // The counters count windows, not time, so the share is exact and
    // the same on every host.
    let params = VideoParams::main_profile_main_level()?;
    let clip = wcm_bench::synthesize_clips(4)?.swap_remove(0);
    let (clip_k, clip_mode) =
        (wcm_bench::k_max_24_frames(&params), wcm_bench::full_scale_mode(&params));
    let scan_clip = clip.name().to_string();
    let counted = |scan: &dyn Fn(), scanned: &str, total: &str| {
        let rec = wcm_obs::mem();
        rec.reset();
        wcm_obs::set_enabled(true);
        scan();
        wcm_obs::set_enabled(false);
        let snap = rec.snapshot();
        snap.counter(scanned) as f64 / snap.counter(total) as f64
    };
    let demands = clip.pe2_demands();
    let scanned_frac = counted(
        &|| {
            max_window_sums(&demands, clip_k, clip_mode).unwrap();
            min_window_sums(&demands, clip_k, clip_mode).unwrap();
        },
        "events.windows_scanned",
        "events.windows_total",
    );

    // ᾱ's span scan on the same clip's FIFO-input stamps: the share of
    // spans the block bounds leave to evaluate (a count), and the time
    // against the naive fold over every span
    // (`wcm_bench::legacy::min_spans_naive`) as a same-process ratio.
    // With constant gaps every span of a size is equal and nothing
    // prunes, so there the ratio is the price of the bounds.
    let stamps = wcm_bench::simulate_clip(&clip, 1.0e9)?.fifo_in_times;
    let blocked_spans = |t: &[f64], k: usize, mode: WindowMode| min_spans(t, k, mode).unwrap();
    let spans_frac = counted(
        &|| {
            blocked_spans(&stamps, clip_k, clip_mode);
        },
        "events.spans_scanned",
        "events.spans_total",
    );
    let clip_spans = measure([
        &mut || time_once(|| blocked_spans(&stamps, clip_k, clip_mode)),
        &mut || time_once(|| min_spans_naive(&stamps, clip_k, clip_mode)),
    ]);
    let steady: Vec<f64> = (0..N).map(|i| i as f64 * 0.25).collect();
    let steady_spans = measure([
        &mut || time_once(|| blocked_spans(&steady, K, WindowMode::Exact)),
        &mut || time_once(|| min_spans_naive(&steady, K, WindowMode::Exact)),
    ]);
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(blocked_spans(&stamps, clip_k, clip_mode)),
        bits(min_spans_naive(&stamps, clip_k, clip_mode)),
        "blocked and naive span scans disagree"
    );
    assert_eq!(
        bits(blocked_spans(&steady, K, WindowMode::Exact)),
        bits(min_spans_naive(&steady, K, WindowMode::Exact)),
        "constant-gap span scans disagree"
    );

    // Where nothing prunes: on a constant trace every block of window
    // starts may hold the maximum, so the scan pays its bounds on top
    // of evaluating every window. Same-process ratios against the
    // unchanged sliding rescan, like the i.i.d. rung above, and against
    // the blocked scan as it was before it pruned (the bounds' price).
    let flat = vec![2_000u64; N];
    let flat_sums = || max_window_sums(&flat, K, WindowMode::Exact).unwrap();
    let all_k: Vec<usize> = (1..=K).collect();
    let constant = measure([
        &mut || time_once(|| window_sums_rescan(&flat, K)),
        &mut || time_once(flat_sums),
        &mut || time_once(|| window_maxima_unpruned(&flat, &all_k)),
    ]);
    assert_eq!(window_sums_rescan(&flat, K), flat_sums(), "constant-trace scans disagree");
    assert_eq!(window_maxima_unpruned(&flat, &all_k), flat_sums(), "unpruned scan disagrees");

    // Incremental append, steady state: extend a live envelope monitor
    // (the per-session scan `wcm serve` runs) GOP by GOP — reading the
    // measured curve after each — across `GOPS` arrivals, and report the
    // per-GOP cost against rebuilding the whole N-event curve from
    // scratch (what a session would otherwise do per GOP). The monitor
    // clone inside the timed region only makes the measured append
    // pessimistic.
    const GOPS: usize = 10;
    let base_len = N - GOPS * GOP_EVENTS;
    let grid: Vec<usize> = (1..=K).collect();
    let mut monitor_base = EnvelopeMonitor::unbound(K).expect("K > 0");
    monitor_base.observe_all(v[..base_len].iter().copied());
    let run_gops = |monitor: &EnvelopeMonitor| {
        let mut m = monitor.clone();
        let mut last = None;
        for g in 0..GOPS {
            let lo = base_len + g * GOP_EVENTS;
            m.observe_all(v[lo..lo + GOP_EVENTS].iter().copied());
            last = m.measured_bounds().expect("demands fit u64");
        }
        last.expect("more than K events observed")
    };
    let appends = measure([
        &mut || time_once(|| CurveSummary::from_values(&v, &grid, Sides::Max)),
        &mut || time_once(|| run_gops(&monitor_base)),
    ]);
    assert_eq!(
        run_gops(&monitor_base).upper.values(),
        CurveSummary::from_values(&v, &grid, Sides::Max).max_table(),
        "incremental append and full rebuild disagree"
    );
    let rebuild_s = appends.best(0);
    let append_s = appends.best(1) / GOPS as f64;
    let append_ratio = appends.speedup(1, 0) / GOPS as f64;

    // Envelope monitor on a violated envelope: the same demand stream
    // through an unbound monitor (which only measures) and through one
    // bound once to `γᵘ(k) = γˡ(k) = k·mean`, which almost every window
    // breaks on one side, at `wcm serve`'s depth of 64. Once the
    // violation store is full a violating batch is counted in bulk, so
    // the checks cost a small multiple of the measuring scan; replaying
    // those batches event by event costs ~60×.
    const MONITOR_K: usize = 64;
    let mean = v.iter().sum::<u64>() / N as u64;
    let line: Vec<u64> = (1..=MONITOR_K as u64).map(|k| k * mean).collect();
    let too_tight = WorkloadBounds {
        upper: UpperWorkloadCurve::new(line.clone())?,
        lower: LowerWorkloadCurve::new(line)?,
    };
    let measuring = EnvelopeMonitor::unbound(MONITOR_K)?;
    let checking = EnvelopeMonitor::new(&too_tight, MONITOR_K)?;
    let run_monitor = |monitor: &EnvelopeMonitor| {
        let mut m = monitor.clone();
        m.observe_all(v.iter().copied());
        m
    };
    let monitors = measure([
        &mut || time_once(|| run_monitor(&measuring)),
        &mut || time_once(|| run_monitor(&checking)),
    ]);
    let monitor_violations = {
        let mut per_event = checking.clone();
        for &d in &v {
            per_event.observe(d);
        }
        let batched = run_monitor(&checking);
        assert_eq!(batched.report(), per_event.report(), "bulk-counted monitor disagrees");
        batched.total_violations()
    };
    let (monitor_clean_s, monitor_violating_s) = (monitors.best(0), monitors.best(1));

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

    let wire_enc_mb_s = wire_mb / wire_enc_s;
    let wire_enc_ev_s = N as f64 * 2.0 / wire_enc_s; // demand + timestamp per event
    let wire_dec_mb_s = wire_mb / wire_dec_s;
    let wire_dec_ev_s = N as f64 * 2.0 / wire_dec_s;
    let json = format!(
        "{{\n  \"config\": {{ \"n_events\": {N}, \"k_max\": {K}, \"reps\": {REPS}, \"gop_events\": {GOP_EVENTS} }},\n\
         \x20 \"window_sums\": {{\n\
         \x20   \"old_rescan_s\": {old_rescan:.6},\n\
         \x20   \"prefix_seq_s\": {prefix_seq:.6},\n\
         \x20   \"speedup_prefix_vs_old\": {:.1}\n\
         \x20 }},\n\
         \x20 \"pruned_scan\": {{\n\
         \x20   \"clip\": \"{scan_clip}\",\n\
         \x20   \"scanned_frac\": {scanned_frac:.4}\n\
         \x20 }},\n\
         \x20 \"pruned_spans\": {{\n\
         \x20   \"clip\": \"{scan_clip}\",\n\
         \x20   \"k_max\": {clip_k},\n\
         \x20   \"scanned_frac\": {spans_frac:.4},\n\
         \x20   \"blocked_s\": {:.6},\n\
         \x20   \"naive_s\": {:.6},\n\
         \x20   \"blocked_over_naive\": {:.3},\n\
         \x20   \"constant_blocked_s\": {:.6},\n\
         \x20   \"constant_naive_s\": {:.6},\n\
         \x20   \"constant_pruned_over_unpruned\": {:.3}\n\
         \x20 }},\n\
         \x20 \"window_sums_constant\": {{\n\
         \x20   \"old_rescan_s\": {:.6},\n\
         \x20   \"prefix_seq_s\": {:.6},\n\
         \x20   \"unpruned_s\": {:.6},\n\
         \x20   \"speedup_prefix_vs_old\": {:.1},\n\
         \x20   \"pruned_over_unpruned\": {:.3}\n\
         \x20 }},\n\
         \x20 \"append_one_gop\": {{\n\
         \x20   \"gop_events\": {GOP_EVENTS},\n\
         \x20   \"full_rebuild_s\": {rebuild_s:.6},\n\
         \x20   \"incremental_append_s\": {append_s:.6},\n\
         \x20   \"append_over_rebuild\": {append_ratio:.4}\n\
         \x20 }},\n\
         \x20 \"monitor_violating\": {{\n\
         \x20   \"k_max\": {MONITOR_K},\n\
         \x20   \"events\": {N},\n\
         \x20   \"violations\": {monitor_violations},\n\
         \x20   \"clean_s\": {monitor_clean_s:.6},\n\
         \x20   \"violating_s\": {monitor_violating_s:.6},\n\
         \x20   \"violating_over_clean\": {:.2}\n\
         \x20 }},\n\
         \x20 \"min_spans\": {{ \"seq_s\": {spans_seq:.6} }},\n\
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
        clip_spans.best(0),
        clip_spans.best(1),
        clip_spans.speedup(0, 1),
        steady_spans.best(0),
        steady_spans.best(1),
        steady_spans.speedup(0, 1),
        constant.best(0),
        constant.best(1),
        constant.best(2),
        constant.speedup(0, 1),
        constant.speedup(1, 2),
        monitors.speedup(1, 0),
        tandem.speedup(0, 1),
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_curves: prefix scan {:.1}x the rescan, one-GOP append at {:.0}% of a rebuild, wrote {out_path}",
        core.speedup(0, 1),
        append_ratio * 100.0
    );
    Ok(())
}
