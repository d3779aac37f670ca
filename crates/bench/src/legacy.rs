//! Pre-rewrite implementations, kept verbatim as measurement baselines.
//!
//! * [`simulate_pipeline_legacy`] — the pipeline simulator before the
//!   hot-path rewrite. Before it, `wcm_sim::pipeline` drove every run
//!   through the binary-heap [`wcm_sim::engine::EventQueue`], allocating a
//!   fresh calendar, availability map and timestamp vectors per call. The
//!   rewrite replaced the heap with a sorted arrival arena plus two
//!   completion slots and moved all per-run vectors into a reusable
//!   scratch. The old loop (unbounded FIFO, CBR source — the hot path of
//!   the sweep engine) lets `bench_sweep` and the criterion group measure
//!   ns/event *before vs after* on identical inputs, and assert both
//!   produce bit-identical results.
//! * [`convolve_materialized`] — min-plus convolution as it was before
//!   `wcm_curves::minplus::convolve` became a collected lazy stream: every
//!   branch built as a full [`Pwl`] and folded with `Pwl::min`. It is the
//!   eager side of `bench_curves`' 32-stage tandem, whose allocation ratio
//!   against the lazy stream is a perf guard, and an independent second
//!   implementation the lazy result is asserted bit-identical to.
//! * [`window_maxima_unpruned`] — the blocked window-maximum scan before
//!   it learned to skip blocks of window starts by their bounds: every
//!   window of every size evaluated, 16 sizes per pass over each cache
//!   block of the prefix table. On a trace where nothing can be skipped
//!   it is the reference the pruned scan's overhead is measured against.
//! * [`min_spans_naive`] — the minimal-span scan before it shared the
//!   pruned window kernel: one fold over every span per grid size. It is
//!   the baseline of `bench_curves`' `pruned_spans` rung and an
//!   independent second implementation the blocked scan is asserted
//!   bit-identical to.
//! * [`crc32_bytewise`] — the wire format's CRC32 before slicing-by-16:
//!   one table lookup per byte. `bench_curves`' `wire` rung measures the
//!   sliced checksum against it on one stream and asserts both agree.

use wcm_curves::{approx_eq, Pwl};
use wcm_events::window::WindowMode;
use wcm_mpeg::ClipWorkload;
use wcm_sim::engine::EventQueue;
use wcm_sim::pipeline::PipelineConfig;
use wcm_sim::SimError;

/// Simulation events of the legacy calendar.
#[derive(Debug, Clone, Copy)]
enum Event {
    BitsReady(usize),
    Pe1Done(usize),
    Pe2Done(usize),
}

/// Timing digest of one legacy run.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyResult {
    /// FIFO entry instants per macroblock.
    pub fifo_in_times: Vec<f64>,
    /// FIFO exit instants per macroblock.
    pub fifo_out_times: Vec<f64>,
    /// Peak FIFO occupancy (in-service macroblock included).
    pub max_backlog: u64,
}

/// The original heap-driven pipeline loop: CBR source, unbounded FIFO.
///
/// # Errors
///
/// Same contract as `wcm_sim::simulate` on a clean stream through an
/// unbounded FIFO: invalid clock/bitrate parameters, empty workloads and
/// non-finite event times are rejected.
pub fn simulate_pipeline_legacy(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
) -> Result<LegacyResult, SimError> {
    if !(cfg.bitrate_bps.is_finite() && cfg.bitrate_bps > 0.0) {
        return Err(SimError::InvalidParameter {
            name: "bitrate_bps",
        });
    }
    if !(cfg.pe1_hz.is_finite() && cfg.pe1_hz > 0.0) {
        return Err(SimError::InvalidParameter { name: "pe1_hz" });
    }
    if !(cfg.pe2_hz.is_finite() && cfg.pe2_hz > 0.0) {
        return Err(SimError::InvalidParameter { name: "pe2_hz" });
    }
    let bits = clip.mb_bits();
    let pe1_cycles = clip.pe1_demands();
    let pe2_cycles = clip.pe2_demands();
    let n = bits.len();
    if n == 0 {
        return Err(SimError::EmptyWorkload);
    }

    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut cum = 0.0f64;
    for (i, &b) in bits.iter().enumerate() {
        cum += b as f64;
        queue.push(cum / cfg.bitrate_bps, Event::BitsReady(i))?;
    }

    let pe1_time = |i: usize| pe1_cycles[i] as f64 / cfg.pe1_hz;
    let pe2_time = |i: usize| pe2_cycles[i] as f64 / cfg.pe2_hz;

    let mut available = vec![false; n];
    let mut next_pe1 = 0usize;
    let mut pe1_idle = true;
    let mut fifo: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut pe2_busy_now = false;
    let mut fifo_in = vec![0.0f64; n];
    let mut fifo_out = vec![0.0f64; n];

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Event::BitsReady(i) => {
                available[i] = true;
                if pe1_idle && i == next_pe1 {
                    pe1_idle = false;
                    queue.push(now + pe1_time(i), Event::Pe1Done(i))?;
                }
            }
            Event::Pe1Done(i) => {
                next_pe1 = i + 1;
                fifo_in[i] = now;
                fifo.push_back(i);
                if next_pe1 < n && available[next_pe1] {
                    queue.push(now + pe1_time(next_pe1), Event::Pe1Done(next_pe1))?;
                } else {
                    pe1_idle = true;
                }
                if !pe2_busy_now {
                    if let Some(j) = fifo.pop_front() {
                        pe2_busy_now = true;
                        queue.push(now + pe2_time(j), Event::Pe2Done(j))?;
                    }
                }
            }
            Event::Pe2Done(i) => {
                fifo_out[i] = now;
                pe2_busy_now = false;
                if let Some(j) = fifo.pop_front() {
                    pe2_busy_now = true;
                    queue.push(now + pe2_time(j), Event::Pe2Done(j))?;
                }
            }
        }
    }

    let max_backlog = wcm_sim::stats::max_occupancy(&fifo_in, &fifo_out);
    Ok(LegacyResult {
        fifo_in_times: fifo_in,
        fifo_out_times: fifo_out,
        max_backlog,
    })
}

/// Min-plus convolution `(f ⊗ g)(t) = inf_{0 ≤ s ≤ t} f(t−s) + g(s)` on
/// materialized curves: the base `min(f, g)`, then every pruned shifted
/// branch built with `Pwl::shift` and folded with a pairwise `Pwl::min`
/// tree. Bit-identical to `wcm_curves::minplus::convolve`.
#[must_use]
pub fn convolve_materialized(f: &Pwl, g: &Pwl) -> Pwl {
    // Boundary candidates with the true f(0) = g(0) = 0 convention:
    // s = 0 contributes g alone, s = t contributes f alone.
    let base = f.min(g);
    // s at the breakpoints of g, t − s at breakpoints of f; dominated
    // shifts are pruned before any envelope work.
    let mut branches: Vec<ShiftOf> = Vec::new();
    branches.extend(pruned_shifts(g).into_iter().map(|(b, c)| ShiftOf::F(b, c)));
    branches.extend(pruned_shifts(f).into_iter().map(|(a, c)| ShiftOf::G(a, c)));
    // Infallible: pruned_shifts only emits breakpoint coordinates of valid
    // curves, which are non-negative — the only case shift rejects.
    let mut shifted: Vec<Pwl> = branches
        .iter()
        .map(|br| match *br {
            ShiftOf::F(dx, dy) => f.shift(dx, dy).expect("shift by non-negative offsets"),
            ShiftOf::G(dx, dy) => g.shift(dx, dy).expect("shift by non-negative offsets"),
        })
        .collect();
    // Pairwise tree: adjacent pairs merged round after round.
    while shifted.len() > 1 {
        let mut next = Vec::with_capacity(shifted.len().div_ceil(2));
        let mut it = shifted.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(a.min(&b)),
                None => next.push(a),
            }
        }
        shifted = next;
    }
    match shifted.pop() {
        Some(e) => base.min(&e),
        None => base,
    }
}

/// A pending lower-envelope branch: shift one of the operands right by `dx`
/// and up by `dy`.
enum ShiftOf {
    F(f64, f64),
    G(f64, f64),
}

/// Shift candidates `(b, h(b⁻))` of a curve `h` (the stored right-limit at
/// `b = 0`), with runs of equal raise collapsed to the largest shift: for
/// monotone curves the earlier shifts of a flat run never win a lower
/// envelope.
fn pruned_shifts(h: &Pwl) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(h.segments().len());
    for (i, b) in h.breakpoint_xs().enumerate() {
        let c = if i == 0 { h.value(0.0) } else { h.value_left(b) };
        match out.last_mut() {
            // Same raise, larger shift: the new branch dominates.
            Some(last) if approx_eq(last.1, c) => *last = (b, c),
            _ => out.push((b, c)),
        }
    }
    out
}

/// Largest window sum for each size in `ks` (`0` where `k = 0` or `k >
/// values.len()`), every window evaluated: the unpruned blocked scan over
/// a `u64` prefix table, 8 Ki table positions per cache block and 16
/// window sizes per tile.
///
/// # Panics
///
/// Panics if the total of `values` exceeds `u64::MAX`.
#[must_use]
pub fn window_maxima_unpruned(values: &[u64], ks: &[usize]) -> Vec<u64> {
    const SCAN_BLOCK: usize = 8 * 1024;
    const SCAN_TILE: usize = 16;
    let mut p = Vec::with_capacity(values.len() + 1);
    let mut acc = 0u64;
    p.push(acc);
    for &v in values {
        acc = acc.checked_add(v).expect("the total fits u64");
        p.push(acc);
    }
    let n = values.len();
    let mut out = vec![0u64; ks.len()];
    for (tile_idx, tile) in ks.chunks(SCAN_TILE).enumerate() {
        let best = &mut out[tile_idx * SCAN_TILE..tile_idx * SCAN_TILE + tile.len()];
        let mut start = 0usize;
        while start < n {
            let block_end = (start + SCAN_BLOCK).min(n);
            for (j, &k) in tile.iter().enumerate() {
                if k == 0 || k > n {
                    continue;
                }
                let end = block_end.min(n - k + 1);
                if start >= end {
                    continue;
                }
                let (lo, hi) = (&p[start..end], &p[start + k..end + k]);
                let mut mx = best[j];
                for (h, l) in hi.iter().zip(lo) {
                    mx = mx.max(*h - *l);
                }
                best[j] = mx;
            }
            start = block_end;
        }
    }
    out
}

/// Minimal spans of `k = 1..=k_max` stamps over the grid of `mode`, every
/// span of every grid size evaluated (`0` for `k = 1`), gaps filled with
/// the previous grid value.
///
/// # Panics
///
/// Panics if `k_max` is 0 or exceeds the number of stamps.
#[must_use]
pub fn min_spans_naive(times: &[f64], k_max: usize, mode: WindowMode) -> Vec<f64> {
    let mut out = vec![0.0; k_max];
    let (mut prev_k, mut prev) = (0, 0.0);
    for k in mode.grid(k_max) {
        let span = if k <= 1 {
            0.0
        } else {
            let diffs = times[k - 1..].iter().zip(times).map(|(hi, lo)| hi - lo);
            diffs.fold(f64::INFINITY, f64::min)
        };
        out[prev_k..k - 1].fill(prev);
        out[k - 1] = span;
        (prev_k, prev) = (k, span);
    }
    out
}

/// 256-entry table of the reflected IEEE CRC32 (polynomial `0xEDB88320`).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 of `bytes` one table lookup per byte: the loop
/// `wcm_wire::crc::crc32` ran before slicing-by-16, with the same value.
#[must_use]
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_mpeg::{profile::standard_clips, GopStructure, Synthesizer, VideoParams};

    #[test]
    fn legacy_and_hot_path_agree_bitwise() {
        let params =
            VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast()).unwrap();
        let clip = Synthesizer::new(params)
            .generate(&standard_clips()[4], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 30.0e6,
        };
        let old = simulate_pipeline_legacy(&clip, &cfg).unwrap();
        let mut new = wcm_sim::SimScratch::new();
        let w = wcm_sim::FaultedWorkload::clean(&clip).unwrap();
        let fifo = wcm_sim::FifoConfig::unbounded();
        let summary = wcm_sim::simulate(&w, &cfg, &fifo, None, &mut new).unwrap();
        assert_eq!(old.fifo_in_times, new.fifo_in_times());
        assert_eq!(old.fifo_out_times, new.fifo_out_times());
        assert_eq!(old.max_backlog, summary.max_backlog);
    }

    #[test]
    fn materialized_and_lazy_convolution_agree_bitwise() {
        // A staircase with flat runs (pruned branches), a rate-latency
        // curve and a many-kink curve with upward jumps.
        let stairs = Pwl::from_breakpoints(vec![
            (0.0, 1.0, 0.0),
            (1.0, 2.0, 0.0),
            (3.0, 5.0, 0.5),
        ])
        .unwrap();
        let rl = Pwl::from_breakpoints(vec![(0.0, 0.0, 0.0), (1.5, 0.0, 3.0)]).unwrap();
        let mut bps = Vec::new();
        let mut y = 0.0;
        for i in 0..40 {
            let x = f64::from(i) * 0.31;
            let slope = 0.25 + f64::from(i % 5) * 0.4;
            y += f64::from(i % 2) * 0.7;
            bps.push((x, y, slope));
            y += slope * 0.31;
        }
        let kinks = Pwl::from_breakpoints(bps).unwrap();
        for (f, g) in [(&stairs, &rl), (&rl, &kinks), (&kinks, &stairs), (&kinks, &kinks)] {
            assert_eq!(convolve_materialized(f, g), wcm_curves::minplus::convolve(f, g));
        }
    }

    #[test]
    fn unpruned_and_pruned_window_maxima_agree() {
        use wcm_events::window::{max_window_sums, WindowMode};
        let values: Vec<u64> = (0..3000u64)
            .map(|i| (i * 7919) % 1000 + u64::from(i % 97 == 0) * 9000)
            .collect();
        let ks: Vec<usize> = (1..=300).collect();
        assert_eq!(
            window_maxima_unpruned(&values, &ks),
            max_window_sums(&values, 300, WindowMode::Exact).unwrap()
        );
        assert_eq!(window_maxima_unpruned(&values, &[0, 3001]), vec![0, 0]);
    }

    #[test]
    fn naive_and_blocked_min_spans_agree() {
        use wcm_events::window::min_spans;
        let times: Vec<f64> = (0..3000u32)
            .map(|i| f64::from(i) * 0.5 + f64::from(i % 89 == 0) * 0.3)
            .collect();
        for mode in [WindowMode::Exact, WindowMode::Strided { exact_upto: 20, stride: 37 }] {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(min_spans_naive(&times, 400, mode)),
                bits(min_spans(&times, 400, mode).unwrap())
            );
        }
    }
}
