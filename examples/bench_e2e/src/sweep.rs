//! `sweep`: the pruned design-space sweep. One request asks for one
//! clip's whole grid (20 PE₂ clocks × 3 FIFO sizes × 3 overflow policies
//! × {clean, faulted}); the client cycles through the 14 clips. Most
//! points are decided analytically and the rest are simulated, so this
//! is where simulator and pruning changes show; no wire or serve work
//! runs in the timed region.

use std::time::Instant;

use wcm::events::window::{Parallelism, WindowMode};
use wcm::mpeg::wire::decode_clips;
use wcm::mpeg::{ClipWorkload, VideoParams};
use wcm::obs::span;
use wcm::sim::{run_sweep, Injector, OverflowPolicy, SweepReport, SweepSpec};
use wcm::wire::DecodePolicy;
use wcm_bench::alloc::Measured;

use crate::{inputs, spans, stats, Budget, Outcome};

const GOPS: usize = 1;

fn spec(seed: u64, params: &VideoParams) -> SweepSpec {
    let mb = params.mb_per_frame();
    let (n, lo, hi) = (20, 20.0e6f64, 2000.0e6f64);
    SweepSpec {
        pe1_hz: wcm_bench::PE1_HZ,
        frequencies_hz: (0..n)
            .map(|i| lo * (hi / lo).powf(f64::from(i) / f64::from(n - 1)))
            .collect(),
        capacities: vec![400, wcm_bench::BUFFER_MB, 4 * wcm_bench::BUFFER_MB],
        policies: vec![
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ],
        seeds: vec![None, Some(seed)],
        injectors: vec![
            Injector::JitterBurst {
                start: 2 * mb,
                len: 2 * mb,
                max_delay_s: 0.002,
            },
            Injector::DemandSpike {
                start: 6 * mb,
                len: mb / 4,
                factor_pct: 250,
            },
        ],
        // Curves over the whole clip. Truncated at two frames, eq. 9
        // extends ᾱ past k_max with the trace's average rate, and some
        // points it then calls provably safe overflow in simulation.
        k_max: GOPS * params.gop().frames_per_gop() * mb,
        mode: WindowMode::Strided {
            exact_upto: mb / 2,
            stride: mb / 10,
        },
        // Deep enough to certify overflow at the largest capacity.
        cert_depth: 2 * 4 * wcm_bench::BUFFER_MB as usize,
        prune: true,
    }
}

fn decode_all(streams: &[Vec<u8>]) -> Result<Vec<ClipWorkload>, String> {
    let mut clips = Vec::with_capacity(streams.len());
    for bytes in streams {
        let (decoded, _) = decode_clips(bytes, DecodePolicy::Strict).map_err(|e| e.to_string())?;
        clips.extend(decoded);
    }
    Ok(clips)
}

/// One request: one clip's grid.
fn request(clip: &ClipWorkload, spec: &SweepSpec, par: Parallelism) -> Result<SweepReport, String> {
    let _s = span("bench.sweep.request");
    run_sweep(std::slice::from_ref(clip), spec, par).map_err(|e| e.to_string())
}

/// Checks one answer against the first answer for the same clip, or
/// keeps it as that first answer.
fn check(
    out: &mut Outcome,
    first: &mut Option<SweepReport>,
    clip: &ClipWorkload,
    got: Result<SweepReport, String>,
) {
    match (got, first.as_ref()) {
        (Err(e), _) => out.check(false, || format!("sweep {}: {e}", clip.name())),
        (Ok(r), Some(want)) => out.check(&r == want, || {
            format!(
                "sweep {}: report differs from the first request's",
                clip.name()
            )
        }),
        (Ok(r), None) => {
            out.check(r.stats.total > 0, || {
                format!("sweep {}: empty grid", clip.name())
            });
            *first = Some(r);
        }
    }
}

/// One pass: every clip's grid once, each answer checked. Returns the
/// request seconds and allocator readings.
fn pass(
    out: &mut Outcome,
    clips: &[ClipWorkload],
    spec: &SweepSpec,
    par: Parallelism,
    first: &mut [Option<SweepReport>],
) -> (Vec<f64>, Vec<Measured>) {
    let mut secs = Vec::with_capacity(clips.len());
    let mut heap = Vec::with_capacity(clips.len());
    for (i, clip) in clips.iter().enumerate() {
        let (r, s, m) = crate::request(|| request(clip, spec, par));
        secs.push(s);
        heap.push(m);
        check(out, &mut first[i], clip, r);
    }
    (secs, heap)
}

pub fn run(seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let streams = inputs::sweep_streams(seed, GOPS);
    let params = VideoParams::main_profile_main_level().expect("MP@ML parameters are valid");
    let spec = spec(seed, &params);
    // Every later answer to a request must equal the first one.
    let mut first: Vec<Option<SweepReport>> = vec![None; streams.len()];

    // Each pass loads the clip library from its bytes (the set-up) and
    // then sweeps it.
    let mut setups = Vec::new();
    let mut clips = Vec::new();
    let mut heap = Vec::new();
    let passes = crate::timed_passes(budget.untraced, || {
        let t = Instant::now();
        let decoded = decode_all(&streams);
        setups.push(t.elapsed().as_secs_f64());
        match decoded {
            Ok(c) if c.len() == streams.len() => clips = c,
            other => {
                out.check(false, || {
                    format!("decoding the clip streams: {:?}", other.err())
                });
                return Vec::new();
            }
        }
        let (secs, m) = pass(&mut out, &clips, &spec, Parallelism::Seq, &mut first);
        heap.extend(m);
        secs
    });
    if clips.is_empty() {
        return out;
    }
    let points: usize = first.iter().flatten().map(|r| r.stats.total).sum();
    out.set("setup_s", stats::median(&setups));
    out.set_timing(points as f64, &passes);
    out.set_heap(&heap);

    // Clean-stream verdicts of one clip against an unpruned sweep: every
    // overflow verdict agrees, and every point the pruned run simulated
    // is identical.
    let pick = (seed % clips.len() as u64) as usize;
    let unpruned = SweepSpec {
        prune: false,
        seeds: vec![None],
        ..spec.clone()
    };
    match (
        &first[pick],
        run_sweep(&clips[pick..=pick], &unpruned, Parallelism::Seq),
    ) {
        (Some(pruned), Ok(full)) => {
            let clean: Vec<_> = pruned.points.iter().filter(|p| p.seed.is_none()).collect();
            out.check(clean.len() == full.points.len(), || {
                "unpruned grid size differs".into()
            });
            for (p, f) in clean.into_iter().zip(&full.points) {
                let same = p.verdict.overflowed() == f.verdict.overflowed()
                    && (!p.verdict.simulated() || p == f);
                out.check(same, || {
                    format!(
                        "sweep {}: pruned {p:?} disagrees with unpruned {f:?}",
                        p.clip
                    )
                });
            }
        }
        (_, Err(e)) => out.check(false, || format!("unpruned sweep: {e}")),
        (None, _) => out.check(false, || "no pruned report to compare".into()),
    }

    if let Some(traced) = budget.traced {
        let (traced_passes, snap) = crate::with_tracing(|| {
            crate::timed_passes(traced, || {
                pass(&mut out, &clips, &spec, Parallelism::Seq, &mut first).0
            })
        });
        let requests = (traced_passes.len() * clips.len()) as f64;
        let a = spans::attribute(&snap.spans);
        let total_ns = |name: &str| a.get(name).map_or(0.0, |x| x.total_ns as f64);
        out.set(
            "sweep.total_ms",
            total_ns("bench.sweep.request") / 1e6 / requests,
        );
        out.set(
            "sweep.clip_analysis_ms",
            total_ns("sweep.clip_analysis") / 1e6 / requests,
        );
        out.set(
            "sweep.analytic_table_ms",
            total_ns("sweep.analytic_table") / 1e6 / requests,
        );
        out.set("sweep.eval_ms", total_ns("sweep.eval") / 1e6 / requests);
        out.set(
            "sim.ns_per_event",
            total_ns("sweep.eval") / snap.counter("sim.events").max(1) as f64,
        );
        let pruned: usize = first
            .iter()
            .flatten()
            .map(|r| r.stats.pruned_safe + r.stats.pruned_unsafe)
            .sum();
        out.set("sweep.pruned_frac", pruned as f64 / points.max(1) as f64);
        out.set(
            "obs.overhead_frac",
            crate::pass_seconds(&traced_passes) / crate::pass_seconds(&passes) - 1.0,
        );
        out.snapshot = Some(snap);

        // The 2-thread rung: one pass at two threads, same answers.
        let (two, _) = pass(&mut out, &clips, &spec, Parallelism::Threads(2), &mut first);
        out.set(
            "par.sweep_speedup_2t",
            crate::pass_seconds(&passes) / two.iter().sum::<f64>(),
        );
    }
    out
}
