//! `analyze`: the paper's own flow at paper scale. One request turns
//! one clip's `.wcmt` bytes into its eq.-9/eq.-10 verdict: decode →
//! γᵘ/γˡ window scans (k = 24 frames) → empirical ᾱ → F_min at
//! b = 1620. Serve and the simulator do no work here.

use std::error::Error;

use wcm::core::build::arrival_upper_with;
use wcm::core::{sizing, UpperWorkloadCurve};
use wcm::events::window::{max_window_sums_with, min_window_sums_with, Parallelism, WindowMode};
use wcm::mpeg::VideoParams;
use wcm::obs::span;
use wcm::wire::{decode, DecodePolicy};
use wcm_bench::alloc::Measured;

use crate::{inputs, spans, stats, Budget, Outcome};

const GOPS: usize = 4;
const SETUP_REPS: usize = 5;

/// Everything one analysis decides, compared bit for bit.
#[derive(Debug, PartialEq)]
struct Verdict {
    gamma_u: UpperWorkloadCurve,
    gamma_l: Vec<u64>,
    f_gamma_bits: u64,
    f_wcet_bits: u64,
}

#[derive(Clone, Copy)]
struct Window {
    k: usize,
    mode: WindowMode,
}

fn verdict_of(demands: &[u64], times: &[f64], w: Window) -> Result<Verdict, Box<dyn Error>> {
    let seq = Parallelism::Seq;
    let (upper, gamma_l) = {
        let _s = span("bench.events.window_scan");
        (
            max_window_sums_with(demands, w.k, w.mode, seq)?,
            min_window_sums_with(demands, w.k, w.mode, seq)?,
        )
    };
    let gamma_u = UpperWorkloadCurve::new(upper)?;
    let trace = wcm_bench::times_to_trace(times)?;
    let alpha = {
        let _s = span("bench.core.arrival");
        arrival_upper_with(&trace, w.k, w.mode, seq)?
    };
    let _s = span("bench.core.sizing");
    let f_gamma = sizing::min_frequency_workload(&alpha, &gamma_u, wcm_bench::BUFFER_MB)?;
    let f_wcet = sizing::min_frequency_wcet(&alpha, gamma_u.wcet(), wcm_bench::BUFFER_MB)?;
    Ok(Verdict {
        gamma_u,
        gamma_l,
        f_gamma_bits: f_gamma.to_bits(),
        f_wcet_bits: f_wcet.to_bits(),
    })
}

/// One request: bytes in, verdict out.
fn analyze(bytes: &[u8], w: Window) -> Result<Verdict, Box<dyn Error>> {
    let _s = span("bench.analyze.trace");
    let decoded = {
        let _s = span("bench.wire.decode");
        decode(bytes, DecodePolicy::Strict)?
    };
    verdict_of(&decoded.demands, &decoded.times, w)
}

pub fn run(seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let traces = inputs::analyze_traces(seed, GOPS);
    let params = VideoParams::main_profile_main_level().expect("MP@ML parameters are valid");
    let w = Window {
        k: wcm_bench::k_max_24_frames(&params),
        mode: wcm_bench::full_scale_mode(&params),
    };
    // The untimed reference: the same analysis of the in-memory clip,
    // without the wire round trip.
    let reference: Vec<Option<Verdict>> = traces
        .iter()
        .map(|t| verdict_of(&t.demands, &t.times, w).ok())
        .collect();
    let check = |out: &mut Outcome, i: usize, got: Result<Verdict, Box<dyn Error>>| {
        let name = &traces[i].name;
        out.check(
            matches!((&got, &reference[i]), (Ok(g), Some(r)) if g == r),
            || match got {
                Err(e) => format!("analyze {name}: {e}"),
                Ok(_) => format!("analyze {name}: verdict differs from the in-memory reference"),
            },
        );
    };

    // Set-up: untimed warm-up requests, before any pass.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| crate::request(|| analyze(&traces[0].bytes, w).is_ok()).1)
        .collect();
    out.set("setup_s", stats::median(&setups));

    // One pass: every clip's trace once, each verdict checked.
    let pass = |out: &mut Outcome, heap: &mut Vec<Measured>| {
        let mut secs = Vec::with_capacity(traces.len());
        for (i, t) in traces.iter().enumerate() {
            let (v, s, m) = crate::request(|| analyze(&t.bytes, w));
            secs.push(s);
            heap.push(m);
            check(out, i, v);
        }
        secs
    };
    let mut heap = Vec::new();
    let passes = crate::timed_passes(budget.untraced, || pass(&mut out, &mut heap));
    let mb_per_pass: usize = traces.iter().map(|t| t.demands.len()).sum();
    out.set_timing(mb_per_pass as f64, &passes);
    out.set_heap(&heap);

    if let Some(traced) = budget.traced {
        let (traced_passes, snap) =
            crate::with_tracing(|| crate::timed_passes(traced, || pass(&mut out, &mut Vec::new())));
        let requests = (traced_passes.len() * traces.len()) as f64;
        let a = spans::attribute(&snap.spans);
        let total_ms = |name: &str| a.get(name).map_or(0.0, |x| x.total_ns as f64) / 1e6;
        let decode_ms = total_ms("bench.wire.decode");
        let bytes_per_pass: usize = traces.iter().map(|t| t.bytes.len()).sum();
        out.set("wire.decode_ms", decode_ms / requests);
        out.set(
            "wire.decode_mb_per_s",
            (bytes_per_pass * traced_passes.len()) as f64 / 1e6 / (decode_ms / 1e3),
        );
        out.set(
            "events.window_scan_ms",
            total_ms("bench.events.window_scan") / requests,
        );
        out.set("core.arrival_ms", total_ms("bench.core.arrival") / requests);
        out.set("core.sizing_ms", total_ms("bench.core.sizing") / requests);
        out.set(
            "analyze.self_ms",
            a.get("bench.analyze.trace")
                .map_or(0.0, |x| x.self_ns as f64)
                / 1e6
                / requests,
        );
        out.set(
            "obs.overhead_frac",
            crate::pass_seconds(&traced_passes) / crate::pass_seconds(&passes) - 1.0,
        );
        out.snapshot = Some(snap);
    }
    out
}
