//! The CBR → PE₁ → FIFO → PE₂ pipeline model (Fig. 5 of the paper).
//!
//! One transaction per macroblock:
//!
//! 1. compressed bits arrive at the constant channel rate; macroblock `i`
//!    is parseable once all its bits (cumulative prefix) have arrived;
//! 2. PE₁ decodes macroblocks in order (VLD+IQ, `pe1_cycles/F₁` seconds
//!    each) and pushes each into the FIFO as it finishes — these push
//!    timestamps are the paper's measured macroblock arrival process `ᾱ`;
//! 3. PE₂ pops in order (IDCT+MC, `pe2_cycles/F₂` each); a macroblock
//!    occupies its FIFO slot from push until PE₂ *finishes* it (the
//!    in-service transaction still holds its buffer).
//!
//! The FIFO can run unbounded (the paper's measurement setup, capacity
//! checked a posteriori as in Fig. 7) or bounded with an explicit
//! [`OverflowPolicy`] so overload degrades gracefully: blocking-write
//! backpressure, rejection of the incoming macroblock, or priority
//! dropping that sacrifices B-frame macroblocks before P before I.
//!
//! [`simulate`] is the one entry point. It runs a [`FaultedWorkload`]: a
//! clip's stream as it is ([`FaultedWorkload::clean`]) or after a seeded
//! [`FaultPlan`](crate::FaultPlan). It can feed every macroblock PE₂
//! consumes into an online [`EnvelopeMonitor`], turning the a-posteriori
//! backlog check into a live verdict against `γᵘ/γˡ`. It returns a
//! [`PipelineSummary`]; the run's per-macroblock FIFO timing stays in the
//! [`SimScratch`] and is read through its slices.
//!
//! # Hot path
//!
//! The event loop does not use a binary heap. At any instant at most one
//! `Pe1Done` and one `Pe2Done` event are outstanding, and every `BitsReady`
//! time is known up front, so the next event is the minimum of a sorted
//! arrival arena cursor and two slots. The FIFO keeps one queue per frame
//! class, so a push, a pop and a `DropByPriority` eviction are O(1) too,
//! whatever the capacity: each event costs O(1) under every policy, with
//! no per-event allocation. Tie-breaking replicates the former heap's
//! `(time, seq)` order exactly: arrivals were pushed first (seq `0..n`, so
//! a stable sort by time preserves their index order and ranks them before
//! same-time PE completions), and PE completions take increasing sequence
//! numbers at schedule time. [`SimScratch`] makes all per-run buffers
//! reusable so a design-space sweep can evaluate thousands of points
//! without touching the allocator, and the [`FaultedWorkload`] is
//! read-only, so workers can share it.

use crate::faults::FaultedWorkload;
use crate::SimError;
use std::collections::VecDeque;
use wcm_core::monitor::EnvelopeMonitor;
use wcm_mpeg::params::FrameKind;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Channel rate in bits per second.
    pub bitrate_bps: f64,
    /// PE₁ clock in Hz.
    pub pe1_hz: f64,
    /// PE₂ clock in Hz.
    pub pe2_hz: f64,
}

/// What a bounded FIFO does when a push would exceed its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Blocking write: PE₁ stalls until PE₂ frees a slot (lossless).
    #[default]
    Backpressure,
    /// The incoming macroblock is discarded; PE₁ keeps decoding.
    Reject,
    /// The lowest-priority macroblock among the queued ones and the
    /// incoming one is discarded — B-frame macroblocks before P before I,
    /// newest first within a priority class. The macroblock in service at
    /// PE₂ is never dropped. Finding and removing the victim is O(1): the
    /// FIFO keeps one queue per frame class, and the victim is the back
    /// of the lowest non-empty class below the incoming macroblock's.
    DropByPriority,
}

/// FIFO sizing and overflow behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoConfig {
    /// Capacity in macroblocks, counting the one in service at PE₂;
    /// `None` = unbounded (the overflow policy is then irrelevant).
    pub capacity: Option<u64>,
    /// Behavior when a push finds the FIFO full.
    pub policy: OverflowPolicy,
}

impl FifoConfig {
    /// An unbounded FIFO (the paper's measurement setup).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A bounded FIFO with the given policy.
    #[must_use]
    pub fn bounded(capacity: u64, policy: OverflowPolicy) -> Self {
        Self {
            capacity: Some(capacity),
            policy,
        }
    }
}

/// MPEG drop priority: B is most expendable, I least (reference frames).
fn frame_priority(kind: FrameKind) -> usize {
    match kind {
        FrameKind::B => 0,
        FrameKind::P => 1,
        FrameKind::I => 2,
    }
}

/// The inter-PE FIFO, kept as one queue per frame class (indexed by
/// [`frame_priority`]) so every operation is O(1) whatever the capacity.
///
/// Macroblocks are pushed in increasing stream index (PE₁ decodes in
/// order, and a macroblock held by backpressure is pushed before PE₁
/// moves on), so each class queue is sorted and the FIFO head is the
/// smallest of the three fronts.
#[derive(Debug, Default)]
struct ClassFifo {
    queues: [VecDeque<usize>; 3],
}

impl ClassFifo {
    fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn push(&mut self, i: usize, kind: FrameKind) {
        debug_assert!(
            self.queues.iter().all(|q| q.back().is_none_or(|&b| b < i)),
            "pushes must arrive in stream order"
        );
        self.queues[frame_priority(kind)].push_back(i);
    }

    /// Removes the oldest macroblock of the whole FIFO.
    fn pop_front(&mut self) -> Option<usize> {
        // An empty class reads as `usize::MAX`; if all three are empty,
        // the pop below finds the I queue empty and returns `None`.
        let [b, p, i] = self
            .queues
            .each_ref()
            .map(|q| q.front().copied().unwrap_or(usize::MAX));
        let class = if b < p.min(i) {
            0
        } else if p < i {
            1
        } else {
            2
        };
        self.queues[class].pop_front()
    }

    /// The `DropByPriority` victim for an incoming macroblock of `kind`:
    /// the newest queued macroblock of the lowest class strictly below
    /// it, removed. `None` means nothing queued ranks below the incoming
    /// macroblock, which is then the victim itself (it is the newest of
    /// all, so it loses every tie).
    fn evict_newest_below(&mut self, kind: FrameKind) -> Option<usize> {
        self.queues[..frame_priority(kind)]
            .iter_mut()
            .find(|q| !q.is_empty())?
            .pop_back()
    }
}

/// Reusable per-run buffers for the pipeline simulator, and the
/// per-macroblock timing of the last run. A sweep worker creates one and
/// passes it to [`simulate`] for every point it evaluates: after the first
/// run no allocation happens (buffers are cleared, not freed), and workers
/// share no state.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// `(bits-ready time, stream index)`, sorted by `(time, index)`.
    ready: Vec<(f64, usize)>,
    available: Vec<bool>,
    fifo: ClassFifo,
    fifo_in: Vec<f64>,
    fifo_out: Vec<f64>,
    dropped: Vec<usize>,
}

impl SimScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.ready.clear();
        self.ready.reserve(n);
        self.available.clear();
        self.available.resize(n, false);
        self.fifo.clear();
        self.fifo_in.clear();
        self.fifo_in.resize(n, 0.0);
        self.fifo_out.clear();
        self.fifo_out.resize(n, 0.0);
        self.dropped.clear();
    }

    /// Time each macroblock of the last run entered the FIFO (PE₁
    /// completion, or the later un-blocking instant under backpressure),
    /// seconds, in stream order. A dropped macroblock carries its drop
    /// instant.
    #[must_use]
    pub fn fifo_in_times(&self) -> &[f64] {
        &self.fifo_in
    }

    /// Time each macroblock of the last run left the FIFO (PE₂
    /// completion, or the drop instant for a discarded macroblock),
    /// seconds, in stream order.
    #[must_use]
    pub fn fifo_out_times(&self) -> &[f64] {
        &self.fifo_out
    }

    /// Stream indices of the macroblocks the last run discarded under
    /// `Reject`/`DropByPriority`, in drop order (empty for lossless runs).
    #[must_use]
    pub fn dropped(&self) -> &[usize] {
        &self.dropped
    }
}

/// Digest of one pipeline run. The per-macroblock timing stays in the
/// [`SimScratch`] the run used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSummary {
    /// Maximum FIFO occupancy in macroblocks (including the one in service).
    pub max_backlog: u64,
    /// Whether any push found the FIFO full (a backpressure stall or a
    /// drop, depending on the policy). Always `false` for an unbounded run.
    pub overflowed: bool,
    /// Number of macroblocks discarded by `Reject`/`DropByPriority`.
    pub dropped: usize,
    /// Total PE₁ busy time, seconds.
    pub pe1_busy: f64,
    /// Time PE₁ spent blocked on a full FIFO (0 without backpressure).
    pub pe1_stalled: f64,
    /// Total PE₂ busy time, seconds.
    pub pe2_busy: f64,
    /// Completion time of the last macroblock PE₂ processed.
    pub makespan: f64,
}

/// Which of the three event sources fires next, and for which macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Bits(usize),
    Pe1(usize),
    Pe2(usize),
}

/// `(time, seq)` strictly before the current best? Uses `total_cmp` like
/// the former heap, so ordering is total even at the representation level.
#[inline]
fn beats(t: f64, s: u64, best_t: f64, best_s: u64) -> bool {
    match t.total_cmp(&best_t) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => s < best_s,
        std::cmp::Ordering::Greater => false,
    }
}

/// Rejects the non-finite event times that injected faults or degenerate
/// configs could produce — same contract the old `EventQueue::push` had.
#[inline]
fn finite(time: f64) -> Result<f64, SimError> {
    if time.is_finite() {
        Ok(time)
    } else {
        Err(SimError::NonFiniteTime { time })
    }
}

/// Simulates the stream `w` through the pipeline with the FIFO `fifo`,
/// reusing `scratch`'s buffers, and feeds every macroblock PE₂ starts into
/// `monitor`, if given. A clean stream through an unbounded FIFO is the
/// paper's measurement setup.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for a zero capacity or a
/// non-positive or non-finite rate, [`SimError::EmptyWorkload`] for an
/// empty stream and [`SimError::NonFiniteTime`] when injected faults push
/// an event time past `f64`'s range.
pub fn simulate(
    w: &FaultedWorkload,
    cfg: &PipelineConfig,
    fifo: &FifoConfig,
    mut monitor: Option<&mut EnvelopeMonitor>,
    scratch: &mut SimScratch,
) -> Result<PipelineSummary, SimError> {
    if fifo.capacity == Some(0) {
        return Err(SimError::InvalidParameter { name: "capacity" });
    }
    let _span = wcm_obs::span("sim.run");
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
    let n = w.len();
    if n == 0 {
        return Err(SimError::EmptyWorkload);
    }
    let capacity = fifo.capacity;
    let policy = fifo.policy;
    scratch.reset(n);

    // Bits arrive continuously; MB i is complete at cum_bits/rate, shifted
    // by any injected transport jitter. `x + 0.0 == x` exactly, so a clean
    // stream reproduces the unfaulted times bit-for-bit.
    let mut cum = 0.0f64;
    for i in 0..n {
        cum += w.bits[i] as f64;
        let t = finite(cum / cfg.bitrate_bps + w.arrival_delay_s[i])?;
        scratch.ready.push((t, i));
    }
    // Clean streams are already time-sorted; injected jitter may reorder.
    // A *stable* sort by time preserves the index order of ties, which is
    // exactly the former heap's ordering of the seq-`0..n` arrival events.
    if scratch
        .ready
        .windows(2)
        .any(|p| p[1].0.total_cmp(&p[0].0).is_lt())
    {
        scratch.ready.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    // PE service times including injected clock drift (multiplicative) and
    // stalls (additive); both neutral elements are exact in IEEE-754, so
    // the clean path is unchanged bit-for-bit.
    let pe1_time = |i: usize| (w.pe1_cycles[i] as f64 / cfg.pe1_hz) * w.pe1_scale[i] + w.pe1_extra_s[i];
    let pe2_time = |i: usize| (w.pe2_cycles[i] as f64 / cfg.pe2_hz) * w.pe2_scale[i] + w.pe2_extra_s[i];

    let mut next_pe1 = 0usize; // next MB index PE1 will start
    let mut pe1_idle = true;
    // A finished macroblock PE1 could not push (full FIFO) and its finish
    // time: PE1 is stalled while this is occupied (Backpressure only).
    let mut pe1_held: Option<(usize, f64)> = None;
    let mut pe2_busy_now = false;
    let mut cursor = 0usize;
    // Pending PE completions: `(time, seq, mb)`. The former heap assigned
    // seq `0..n` to the arrival events and then incremented per push, so PE
    // completions start at `n` and same-time arrivals always fire first.
    let mut pe1_slot: Option<(f64, u64, usize)> = None;
    let mut pe2_slot: Option<(f64, u64, usize)> = None;
    let mut next_seq = n as u64;
    let mut max_backlog = 0u64;
    let mut overflowed = false;
    let mut pe1_busy = 0.0f64;
    let mut pe2_busy = 0.0f64;
    let mut pe1_stalled = 0.0f64;
    let mut makespan = 0.0f64;

    loop {
        // The next event: minimum (time, seq) among the arrival cursor and
        // the two completion slots.
        let mut best: Option<(f64, u64, Next)> = None;
        if cursor < n {
            let (t, i) = scratch.ready[cursor];
            best = Some((t, i as u64, Next::Bits(i)));
        }
        if let Some((t, s, i)) = pe1_slot {
            if best.is_none_or(|(bt, bs, _)| beats(t, s, bt, bs)) {
                best = Some((t, s, Next::Pe1(i)));
            }
        }
        if let Some((t, s, i)) = pe2_slot {
            if best.is_none_or(|(bt, bs, _)| beats(t, s, bt, bs)) {
                best = Some((t, s, Next::Pe2(i)));
            }
        }
        let Some((now, _, which)) = best else { break };
        match which {
            Next::Bits(i) => {
                cursor += 1;
                scratch.available[i] = true;
                if pe1_idle && pe1_held.is_none() && i == next_pe1 {
                    pe1_idle = false;
                    let dt = pe1_time(i);
                    pe1_busy += dt;
                    pe1_slot = Some((finite(now + dt)?, next_seq, i));
                    next_seq += 1;
                }
            }
            Next::Pe1(i) => {
                pe1_slot = None;
                next_pe1 = i + 1;
                let resident = scratch.fifo.len() as u64 + u64::from(pe2_busy_now);
                let full = capacity.is_some_and(|c| resident >= c);
                overflowed |= full;
                // Occupancy bookkeeping resolves equal-time ties dequeue-
                // first (as the interval sweep in `stats::max_occupancy`
                // does): an in-service MB whose completion is also at `now`
                // has already left for accounting purposes.
                let pe2_live = pe2_busy_now
                    && pe2_slot.is_none_or(|(t, _, _)| t.total_cmp(&now).is_gt());
                if full && policy == OverflowPolicy::Backpressure {
                    // Backpressure: hold the macroblock; PE1 stalls.
                    pe1_held = Some((i, now));
                    pe1_idle = true;
                } else {
                    if !full {
                        scratch.fifo_in[i] = now;
                        scratch.fifo.push(i, w.kinds[i]);
                        max_backlog = max_backlog
                            .max(scratch.fifo.len() as u64 + u64::from(pe2_live));
                    } else {
                        match policy {
                            OverflowPolicy::Backpressure => unreachable!("handled above"),
                            OverflowPolicy::Reject => {
                                // Discard the incoming macroblock.
                                scratch.fifo_in[i] = now;
                                scratch.fifo_out[i] = now;
                                scratch.dropped.push(i);
                            }
                            OverflowPolicy::DropByPriority => {
                                match scratch.fifo.evict_newest_below(w.kinds[i]) {
                                    None => {
                                        // The incoming macroblock is the victim.
                                        scratch.fifo_in[i] = now;
                                        scratch.fifo_out[i] = now;
                                        scratch.dropped.push(i);
                                    }
                                    Some(v) => {
                                        scratch.fifo_out[v] = now;
                                        scratch.dropped.push(v);
                                        scratch.fifo_in[i] = now;
                                        scratch.fifo.push(i, w.kinds[i]);
                                        max_backlog = max_backlog
                                            .max(scratch.fifo.len() as u64 + u64::from(pe2_live));
                                    }
                                }
                            }
                        }
                    }
                    if next_pe1 < n && scratch.available[next_pe1] {
                        let dt = pe1_time(next_pe1);
                        pe1_busy += dt;
                        pe1_slot = Some((finite(now + dt)?, next_seq, next_pe1));
                        next_seq += 1;
                    } else {
                        pe1_idle = true;
                    }
                    if !pe2_busy_now {
                        if let Some(j) = scratch.fifo.pop_front() {
                            pe2_busy_now = true;
                            if let Some(m) = monitor.as_deref_mut() {
                                m.observe(w.pe2_cycles[j]);
                            }
                            let dt = pe2_time(j);
                            pe2_busy += dt;
                            pe2_slot = Some((finite(now + dt)?, next_seq, j));
                            next_seq += 1;
                        }
                    }
                }
            }
            Next::Pe2(i) => {
                pe2_slot = None;
                scratch.fifo_out[i] = now;
                makespan = makespan.max(now);
                pe2_busy_now = false;
                // A freed slot first admits the held macroblock, if any.
                if let Some((h, since)) = pe1_held.take() {
                    pe1_stalled += now - since;
                    scratch.fifo_in[h] = now;
                    scratch.fifo.push(h, w.kinds[h]);
                    max_backlog =
                        max_backlog.max(scratch.fifo.len() as u64 + u64::from(pe2_busy_now));
                    // PE1 resumes with the next macroblock.
                    if next_pe1 < n && scratch.available[next_pe1] {
                        pe1_idle = false;
                        let dt = pe1_time(next_pe1);
                        pe1_busy += dt;
                        pe1_slot = Some((finite(now + dt)?, next_seq, next_pe1));
                        next_seq += 1;
                    }
                }
                if let Some(j) = scratch.fifo.pop_front() {
                    pe2_busy_now = true;
                    if let Some(m) = monitor.as_deref_mut() {
                        m.observe(w.pe2_cycles[j]);
                    }
                    let dt = pe2_time(j);
                    pe2_busy += dt;
                    pe2_slot = Some((finite(now + dt)?, next_seq, j));
                    next_seq += 1;
                }
            }
        }
    }

    // Post-run digests only: nothing is recorded inside the event loop, so
    // the instrumented hot path costs one branch per simulation when the
    // recorder is disabled.
    if wcm_obs::enabled() {
        wcm_obs::counter("sim.runs", 1);
        wcm_obs::counter("sim.events", n as u64);
        wcm_obs::gauge_max("sim.backlog_high_water", max_backlog);
        if overflowed {
            wcm_obs::counter("sim.overflow_runs", 1);
        }
        if !scratch.dropped.is_empty() {
            wcm_obs::counter("sim.dropped_mbs", scratch.dropped.len() as u64);
        }
    }

    Ok(PipelineSummary {
        max_backlog,
        overflowed,
        dropped: scratch.dropped.len(),
        pe1_busy,
        pe1_stalled,
        pe2_busy,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, Injector};
    use wcm_mpeg::demand::{Pe1Model, Pe2Model};
    use wcm_mpeg::mb::{Macroblock, MacroblockClass};
    use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
    use wcm_mpeg::workload::FrameWorkload;
    use wcm_mpeg::ClipWorkload;

    /// A hand-sized workload: `n` identical intra macroblocks of 100 bits.
    fn tiny_clip(n: usize) -> ClipWorkload {
        tiny_clip_kinds(&vec![FrameKind::I; n])
    }

    /// Like `tiny_clip`, but one single-macroblock frame per entry of
    /// `kinds` — for exercising the priority-drop policy.
    fn tiny_clip_kinds(kinds: &[FrameKind]) -> ClipWorkload {
        let params =
            VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(1, 1).unwrap()).unwrap();
        let frames: Vec<FrameWorkload> = kinds
            .iter()
            .map(|&kind| {
                let mb = Macroblock {
                    frame: kind,
                    class: MacroblockClass::Intra { coded_blocks: 2 },
                    bits: 100,
                };
                FrameWorkload::new(kind, vec![mb])
            })
            .collect();
        ClipWorkload::new(
            "tiny".into(),
            params,
            Pe1Model {
                base: 0,
                cycles_per_bit: 1.0,
                iq_per_block: 0,
            },
            Pe2Model {
                base: 1000,
                idct_per_block: 0,
                mc_single: 0,
                mc_single_field: 0,
                mc_bidirectional: 0,
                mc_bidirectional_field: 0,
                skip_copy: 0,
            },
            frames,
        )
    }

    /// Runs `clip`, after `plan` if one is given, through `fifo`; the
    /// scratch holds the run's per-macroblock timing.
    fn run_with(
        clip: &ClipWorkload,
        cfg: &PipelineConfig,
        fifo: &FifoConfig,
        plan: Option<&FaultPlan>,
    ) -> Result<(PipelineSummary, SimScratch), SimError> {
        let w = match plan {
            Some(p) => p.apply(clip)?,
            None => FaultedWorkload::clean(clip)?,
        };
        let mut scratch = SimScratch::new();
        let summary = simulate(&w, cfg, fifo, None, &mut scratch)?;
        Ok((summary, scratch))
    }

    /// A clean run through an unbounded FIFO.
    fn run(clip: &ClipWorkload, cfg: &PipelineConfig) -> (PipelineSummary, SimScratch) {
        run_with(clip, cfg, &FifoConfig::unbounded(), None).unwrap()
    }

    #[test]
    fn hand_computed_timeline() {
        // 3 MBs × 100 bits at 100 bit/s → bits ready at 1, 2, 3 s.
        // PE1: 100 cycles at 100 Hz → 1 s per MB, but always waits for
        // bits: finishes at 2, 3, 4 s.
        // PE2: 1000 cycles at 1000 Hz → 1 s per MB: finishes at 3, 4, 5 s.
        let clip = tiny_clip(3);
        let (r, t) = run(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 1000.0,
            },
        );
        let expect_in = [2.0, 3.0, 4.0];
        let expect_out = [3.0, 4.0, 5.0];
        for i in 0..3 {
            assert!((t.fifo_in_times()[i] - expect_in[i]).abs() < 1e-9, "in {i}");
            assert!(
                (t.fifo_out_times()[i] - expect_out[i]).abs() < 1e-9,
                "out {i}"
            );
        }
        assert_eq!(r.max_backlog, 1);
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.pe1_busy - 3.0).abs() < 1e-9);
        assert!((r.pe2_busy - 3.0).abs() < 1e-9);
        assert_eq!(r.dropped, 0);
        assert!(t.dropped().is_empty());
    }

    #[test]
    fn slow_pe2_accumulates_backlog() {
        // PE2 at 250 Hz → 4 s per MB while PE1 emits one per second.
        let clip = tiny_clip(5);
        let (r, t) = run(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 250.0,
            },
        );
        assert!(r.max_backlog >= 3, "backlog {}", r.max_backlog);
        // FIFO discipline: out times strictly increasing.
        for w in t.fifo_out_times().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn fast_pe2_keeps_backlog_at_one() {
        let clip = tiny_clip(10);
        let (r, _) = run(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 1.0e6,
            },
        );
        assert_eq!(r.max_backlog, 1);
    }

    #[test]
    fn conservation_and_ordering_on_synthetic_clip() {
        let params = VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            GopStructure::broadcast(),
        )
        .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[4], 1)
            .unwrap();
        let (r, t) = run(
            &clip,
            &PipelineConfig {
                bitrate_bps: 1.0e6,
                pe1_hz: 20.0e6,
                pe2_hz: 50.0e6,
            },
        );
        let n = clip.macroblock_count();
        assert_eq!(t.fifo_in_times().len(), n);
        assert_eq!(t.fifo_out_times().len(), n);
        for i in 0..n {
            assert!(t.fifo_out_times()[i] >= t.fifo_in_times()[i]);
        }
        for w in t.fifo_in_times().windows(2) {
            assert!(w[1] >= w[0], "PE1 output must be in order");
        }
        // Work conservation: busy times equal total demand / frequency.
        let pe2_total: u64 = clip.pe2_demands().iter().sum();
        assert!((r.pe2_busy - pe2_total as f64 / 50.0e6).abs() < 1e-9);
    }

    #[test]
    fn higher_pe2_clock_reduces_backlog() {
        let params = VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            GopStructure::broadcast(),
        )
        .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[10], 1)
            .unwrap();
        let base = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 10.0e6,
        };
        let (slow, _) = run(&clip, &base);
        let (fast, _) = run(
            &clip,
            &PipelineConfig {
                pe2_hz: 100.0e6,
                ..base
            },
        );
        assert!(fast.max_backlog <= slow.max_backlog);
    }

    /// A clean CBR run through a blocking-write FIFO of `capacity`.
    fn backpressure(
        clip: &ClipWorkload,
        cfg: &PipelineConfig,
        capacity: u64,
    ) -> Result<(PipelineSummary, SimScratch), SimError> {
        let fifo = FifoConfig::bounded(capacity, OverflowPolicy::Backpressure);
        run_with(clip, cfg, &fifo, None)
    }

    #[test]
    fn backpressure_caps_occupancy() {
        // PE2 4× slower than PE1's output: unbounded backlog grows, the
        // bounded run must stay within capacity.
        let clip = tiny_clip(12);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let (unbounded, _) = run(&clip, &cfg);
        assert!(unbounded.max_backlog > 2);
        assert_eq!(unbounded.pe1_stalled, 0.0);
        let (bounded, t) = backpressure(&clip, &cfg, 2).unwrap();
        assert!(bounded.max_backlog <= 2);
        assert!(bounded.pe1_stalled > 0.0, "PE1 must have stalled");
        // Work conservation: every macroblock still processed, in order.
        for w in t.fifo_out_times().windows(2) {
            assert!(w[1] > w[0]);
        }
        // PE2 does the same total work either way.
        assert!((bounded.pe2_busy - unbounded.pe2_busy).abs() < 1e-9);
    }

    #[test]
    fn large_capacity_matches_unbounded() {
        let clip = tiny_clip(10);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let (unbounded, u) = run(&clip, &cfg);
        let (bounded, b) = backpressure(&clip, &cfg, unbounded.max_backlog).unwrap();
        assert_eq!(bounded, unbounded);
        assert_eq!(b.fifo_in_times(), u.fifo_in_times());
        assert_eq!(b.fifo_out_times(), u.fifo_out_times());
    }

    #[test]
    fn bounded_rejects_zero_capacity() {
        let clip = tiny_clip(1);
        let cfg = PipelineConfig {
            bitrate_bps: 1.0,
            pe1_hz: 1.0,
            pe2_hz: 1.0,
        };
        assert!(backpressure(&clip, &cfg, 0).is_err());
        let reject = FifoConfig::bounded(0, OverflowPolicy::Reject);
        assert!(run_with(&clip, &cfg, &reject, None).is_err());
    }

    #[test]
    fn validates_config() {
        let clip = tiny_clip(1);
        let ok = PipelineConfig {
            bitrate_bps: 1.0,
            pe1_hz: 1.0,
            pe2_hz: 1.0,
        };
        let unbounded = FifoConfig::unbounded();
        for bad in [
            PipelineConfig {
                bitrate_bps: 0.0,
                ..ok
            },
            PipelineConfig { pe1_hz: -1.0, ..ok },
            PipelineConfig {
                pe2_hz: f64::NAN,
                ..ok
            },
        ] {
            assert!(run_with(&clip, &bad, &unbounded, None).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_plan_matches_clean_run_bitwise() {
        // A plan with no injectors changes neither the stream nor any
        // output of the run, and one scratch reused across runs of
        // different lengths leaves nothing behind.
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())
            .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[3], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 30.0e6,
        };
        let clean = FaultedWorkload::clean(&clip).unwrap();
        let planned = FaultPlan::new(9).apply(&clip).unwrap();
        assert_eq!(planned, clean);
        assert!(planned.report.is_clean());
        let (bare, t) = run(&clip, &cfg);
        let mut scratch = SimScratch::new();
        let tiny = FaultedWorkload::clean(&tiny_clip(5)).unwrap();
        simulate(&tiny, &cfg, &FifoConfig::unbounded(), None, &mut scratch).unwrap();
        let reused =
            simulate(&planned, &cfg, &FifoConfig::unbounded(), None, &mut scratch).unwrap();
        assert_eq!(reused, bare);
        assert_eq!(scratch.fifo_in_times(), t.fifo_in_times());
        assert_eq!(scratch.fifo_out_times(), t.fifo_out_times());
    }

    #[test]
    fn online_backlog_matches_interval_sweep() {
        // The heap-free core tracks max backlog online; the legacy path
        // derived it from the FIFO entry/exit times with an interval sweep.
        // Both must agree on every policy, capacity, and fault seed.
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())
            .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[5], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 8.0e6, // slow PE2 so bounded FIFOs actually overflow
        };
        let fifos = [
            FifoConfig::unbounded(),
            FifoConfig::bounded(3, OverflowPolicy::Backpressure),
            FifoConfig::bounded(3, OverflowPolicy::Reject),
            FifoConfig::bounded(3, OverflowPolicy::DropByPriority),
        ];
        for fifo in &fifos {
            for seed in [None, Some(7u64), Some(41)] {
                let plan = seed.map(|s| {
                    FaultPlan::new(s)
                        .with(Injector::JitterBurst {
                            start: 10,
                            len: 200,
                            max_delay_s: 0.01,
                        })
                        .with(Injector::DemandSpike {
                            start: 50,
                            len: 120,
                            factor_pct: 300,
                        })
                });
                let (r, t) = run_with(&clip, &cfg, fifo, plan.as_ref()).unwrap();
                let swept = crate::stats::max_occupancy(t.fifo_in_times(), t.fifo_out_times());
                assert_eq!(
                    r.max_backlog, swept,
                    "fifo {fifo:?} seed {seed:?}: online backlog diverged"
                );
            }
        }
    }

    #[test]
    fn reject_policy_never_stalls_and_caps_backlog() {
        let clip = tiny_clip(12);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let fifo = FifoConfig::bounded(2, OverflowPolicy::Reject);
        let (r, t) = run_with(&clip, &cfg, &fifo, None).unwrap();
        assert!(r.max_backlog <= 2);
        assert_eq!(r.pe1_stalled, 0.0);
        assert!(r.dropped > 0, "overload must reject something");
        assert_eq!(t.dropped().len(), r.dropped);
        // Rejected macroblocks never occupy the FIFO.
        for &d in t.dropped() {
            assert_eq!(t.fifo_in_times()[d], t.fifo_out_times()[d]);
        }
    }

    /// The macroblocks a capacity-2 `DropByPriority` FIFO drops, in drop
    /// order, and the run's timing.
    fn drop_by_priority(kinds: &[FrameKind]) -> (PipelineSummary, SimScratch) {
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let fifo = FifoConfig::bounded(2, OverflowPolicy::DropByPriority);
        run_with(&tiny_clip_kinds(kinds), &cfg, &fifo, None).unwrap()
    }

    #[test]
    fn drop_by_priority_prefers_b_over_p_over_i() {
        // Frames: I P B B P B I B B P B B — overload with capacity 2.
        // Hand trace (bits at 1..12 s, PE1 1 s/MB, PE2 4 s/MB): B(2), B(3)
        // and B(5) arrive at a full FIFO and are sacrificed; at t=8 the
        // incoming I(6) outranks the queued P(4), which is evicted; B(8) is
        // later evicted for the incoming P(9); B(7), B(10), B(11) arrive
        // full and die. No I-frame macroblock is ever lost.
        let kinds = [
            FrameKind::I,
            FrameKind::P,
            FrameKind::B,
            FrameKind::B,
            FrameKind::P,
            FrameKind::B,
            FrameKind::I,
            FrameKind::B,
            FrameKind::B,
            FrameKind::P,
            FrameKind::B,
            FrameKind::B,
        ];
        let (r, t) = drop_by_priority(&kinds);
        assert!(r.max_backlog <= 2);
        assert_eq!(t.dropped(), [2, 3, 5, 4, 7, 8, 10, 11]);
        let count = |kind| t.dropped().iter().filter(|&&d| kinds[d] == kind).count();
        // B is sacrificed first and most (7 of 8); one P falls to protect
        // an I; no I is ever dropped.
        assert_eq!(count(FrameKind::B), 7);
        assert_eq!(count(FrameKind::P), 1);
        assert_eq!(count(FrameKind::I), 0);
        // Every I macroblock was fully processed (out > in).
        for (i, &k) in kinds.iter().enumerate() {
            if k == FrameKind::I {
                assert!(
                    t.fifo_out_times()[i] > t.fifo_in_times()[i],
                    "lost {k:?} at {i}"
                );
            }
        }
    }

    #[test]
    fn drop_by_priority_sacrifices_incoming_b_over_queued_p() {
        // Queue holds a P, incoming B: the incoming one is the victim (its
        // slot never materializes) and both references are processed.
        let (_, t) = drop_by_priority(&[FrameKind::I, FrameKind::P, FrameKind::B, FrameKind::B]);
        assert_eq!(t.dropped(), [2, 3]);
        for i in [0usize, 1] {
            assert!(t.fifo_out_times()[i] > t.fifo_in_times()[i]);
        }
    }

    #[test]
    fn drop_by_priority_evicts_queued_b_for_incoming_i() {
        // Queue holds a B when an I arrives at a full FIFO: the queued B
        // is evicted and the I takes its slot.
        let (_, t) = drop_by_priority(&[FrameKind::I, FrameKind::B, FrameKind::I]);
        assert_eq!(t.dropped(), [1]);
        assert!(t.fifo_out_times()[2] > t.fifo_in_times()[2], "the I must survive");
    }

    /// The FIFO and victim rule the simulator used before [`ClassFifo`]:
    /// one queue in arrival order, and a back-to-front scan with a strict
    /// `<` for the lowest-priority macroblock below the incoming one (so
    /// ties go to the newest), removed from the middle of the queue.
    #[derive(Default)]
    struct ScanFifo {
        queue: VecDeque<usize>,
    }

    impl ScanFifo {
        fn evict(&mut self, kinds: &[FrameKind], incoming: FrameKind) -> Option<usize> {
            let mut victim = None;
            let mut best = frame_priority(incoming);
            for pos in (0..self.queue.len()).rev() {
                let pq = frame_priority(kinds[self.queue[pos]]);
                if pq < best {
                    best = pq;
                    victim = Some(pos);
                }
            }
            victim.map(|pos| self.queue.remove(pos).unwrap())
        }
    }

    #[test]
    fn class_fifo_matches_the_back_to_front_scan() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use FrameKind::{B, I, P};
        // Kind mixes: single-class streams (two classes always empty),
        // a stream with no P, rare B among I, and a uniform mix.
        let mixes: [&[FrameKind]; 7] = [
            &[B],
            &[P],
            &[I],
            &[B, I],
            &[I, I, I, I, I, I, I, B],
            &[B, P, I],
            &[B, B, P, I, B, B, P],
        ];
        for (m, mix) in mixes.iter().enumerate() {
            for seed in 0..20u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 31 + m as u64);
                let kinds: Vec<FrameKind> =
                    (0..600).map(|_| mix[rng.gen_range(0..mix.len())]).collect();
                let (mut fifo, mut model) = (ClassFifo::default(), ScanFifo::default());
                let mut next = 0usize;
                // Bias toward pushes in some runs so the queue grows deep
                // before pops drain it.
                let push_pct = if seed % 2 == 0 { 50 } else { 75 };
                while next < kinds.len() {
                    let roll = rng.gen_range(0..100);
                    if roll < push_pct {
                        fifo.push(next, kinds[next]);
                        model.queue.push_back(next);
                        next += 1;
                    } else if roll < push_pct + 10 {
                        assert_eq!(fifo.pop_front(), model.queue.pop_front(), "pop");
                    } else {
                        // An overflowing push: evict, and admit the
                        // incoming macroblock unless it is the victim.
                        let incoming = kinds[next];
                        let victim = fifo.evict_newest_below(incoming);
                        assert_eq!(victim, model.evict(&kinds, incoming), "victim");
                        if victim.is_some() {
                            fifo.push(next, incoming);
                            model.queue.push_back(next);
                        }
                        next += 1;
                    }
                    assert_eq!(fifo.len(), model.queue.len(), "len");
                }
                while let Some(j) = model.queue.pop_front() {
                    assert_eq!(fifo.pop_front(), Some(j), "drain");
                }
                assert_eq!((fifo.pop_front(), fifo.len()), (None, 0));
            }
        }
    }

    #[test]
    fn capacity_respected_under_faults_any_policy() {
        let clip = tiny_clip(40);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let plan = FaultPlan::new(21)
            .with(Injector::DuplicateEvents { per_mille: 150 })
            .with(Injector::DemandSpike {
                start: 5,
                len: 10,
                factor_pct: 300,
            })
            .with(Injector::JitterBurst {
                start: 0,
                len: 40,
                max_delay_s: 0.05,
            });
        for policy in [
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ] {
            let fifo = FifoConfig::bounded(3, policy);
            let (r, _) = run_with(&clip, &cfg, &fifo, Some(&plan)).unwrap();
            assert!(
                r.max_backlog <= 3,
                "{policy:?}: backlog {} exceeds capacity",
                r.max_backlog
            );
        }
    }

    #[test]
    fn monitor_sees_consumed_demands() {
        use wcm_core::UpperWorkloadCurve;
        let clip = tiny_clip(8);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 1000.0,
        };
        let unbounded = FifoConfig::unbounded();
        let mut scratch = SimScratch::new();
        // Every MB costs 1000 PE2 cycles; a γᵘ of exactly k·1000 is tight.
        let gamma = UpperWorkloadCurve::new((1..=4).map(|k| 1000 * k).collect()).unwrap();
        let mut mon = wcm_core::EnvelopeMonitor::upper_only(&gamma, 4).unwrap();
        let w = FaultedWorkload::clean(&clip).unwrap();
        simulate(&w, &cfg, &unbounded, Some(&mut mon), &mut scratch).unwrap();
        assert_eq!(mon.events(), 8);
        assert!(mon.is_clean());
        // A demand spike above the profile must trip the monitor.
        let spiked = FaultPlan::new(4)
            .with(Injector::DemandSpike {
                start: 3,
                len: 2,
                factor_pct: 200,
            })
            .apply(&clip)
            .unwrap();
        let mut mon2 = wcm_core::EnvelopeMonitor::upper_only(&gamma, 4).unwrap();
        simulate(&spiked, &cfg, &unbounded, Some(&mut mon2), &mut scratch).unwrap();
        assert!(mon2.total_violations() >= 1);
    }
}
