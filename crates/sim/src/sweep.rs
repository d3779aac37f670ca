//! Parallel design-space exploration with analytic pruning.
//!
//! The paper's sizing question — *how slow may PE₂ be clocked, and how
//! small may the FIFO be, before the decoder drops macroblocks?* — is a
//! sweep over a `(clip × frequency × capacity × policy × fault-seed)`
//! grid. Simulating every point is wasteful: eqs. 8–10 already decide
//! most of them analytically.
//!
//! For each clip and seed the engine builds, **once**, the measured
//! arrival curve `ᾱᵘ` at the FIFO input and the PE₂ workload bound `γᵘ`.
//! A pre-pass then classifies every grid point:
//!
//! * **provably safe** — `F ≥ F^γ_min(ᾱᵘ, γᵘ, b)` (eq. 9): the
//!   no-overflow constraint of eq. 8 holds, no simulation needed;
//! * **provably unsafe** — a replay of the *unbounded* PE₂ departures
//!   `D_m = max(D_{m−1}, A_m) + s_m` over the FIFO-input instants `A`
//!   (the simulator's own floats, bit for bit) finds a push `i` with
//!   `D_{i−b} > A_i`: macroblocks `i−b … i−1` are all resident when `i`
//!   arrives, and a bounded run equals the unbounded one up to its first
//!   full push, so the FIFO fills under every policy;
//! * **replay ok** — the same replay, counted per push:
//!   `r_i = #{j < i : D_j > A_i}` and its tie-inclusive twin
//!   `r′_i = #{j < i : D_j ≥ A_i}`. When `max r′ == max r` and
//!   `b > max r′`, no push ever finds the FIFO full, so the bounded run
//!   under every policy *is* the unbounded run, and its digest is known
//!   without simulating: peak backlog `1 + max r`, nothing dropped, no
//!   PE₁ stall;
//! * **uncertain** — the rest: points whose verdict or peak backlog
//!   hinges on an exact tie `D_j == A_i`, which the simulator's event
//!   order decides, are simulated on the heap-free hot path of
//!   [`crate::pipeline`] with one reusable [`SimScratch`] per worker.
//!
//! **Fault-seeded points prune too.** The FIFO-input recurrence replays
//! the seed's jitter/drift/stall on PE₁ bit for bit, and the departure
//! replay uses the seed's exact PE₂ service times, so the unsafe
//! certificate holds under every injector. Per-seed `ᾱᵘ` and `γᵘ` are
//! derived from the *faulted* stream with the same window scans the
//! clean stream gets; the safe bound (eq. 9) additionally requires PE₂
//! service to scale exactly as `c/F` (`pe2_scale ≡ 1`,
//! `pe2_extra ≡ 0`), and seeds outside that envelope are never called
//! safe.
//!
//! Evaluation runs on [`wcm_par::par_map_stream`]: dynamic block
//! dispatch over bounded chunks of the grid, results emitted in index
//! order, so the report is **bit identical for any `--threads`
//! setting**. The report deliberately carries no wall-clock fields for
//! the same reason.

use crate::faults::{FaultPlan, FaultedWorkload, Injector};
use crate::pipeline::{simulate, FifoConfig, OverflowPolicy, PipelineConfig, SimScratch};
use crate::SimError;
use wcm_core::build::arrival_upper_from_spans;
use wcm_core::curve::UpperWorkloadCurve;
use wcm_core::sizing;
use wcm_core::WorkloadError;
use wcm_events::window::{max_window_sums, min_spans, WindowMode};
use wcm_mpeg::ClipWorkload;
use wcm_par::Parallelism;
use wcm_sched::{rms, PeriodicTask, TaskSet};

/// Relative safety margin applied to `F^γ_min` before a point is declared
/// provably safe: absorbs the float rounding between the analytic bound
/// and the simulator's arithmetic without giving up real pruning.
pub const SAFE_MARGIN: f64 = 1e-6;

/// The grid and analysis parameters of one sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// PE₁ clock in Hz (fixed across the sweep; PE₁ paces the FIFO input).
    pub pe1_hz: f64,
    /// Candidate PE₂ clock frequencies in Hz.
    pub frequencies_hz: Vec<f64>,
    /// Candidate FIFO capacities in macroblocks (in-service one included),
    /// each at least 1.
    pub capacities: Vec<u64>,
    /// Overflow policies to evaluate.
    pub policies: Vec<OverflowPolicy>,
    /// Fault seeds; `None` is the clean stream. Seeded points go through
    /// the analytic pre-pass too (see the module docs for when the safe
    /// bound applies to them).
    pub seeds: Vec<Option<u64>>,
    /// Injectors applied under each `Some` seed.
    pub injectors: Vec<Injector>,
    /// Analysis window (events) for `ᾱᵘ` and `γᵘ`.
    pub k_max: usize,
    /// Window mode for the `k_max`-deep curves.
    pub mode: WindowMode,
    /// Not read, and not part of [`spec_fingerprint`]. It set the depth
    /// of the former `γˡ` overflow certificate; the departure replay that
    /// replaced it scans the whole stream. The field stays only because
    /// the `examples/bench_e2e` harness sets it.
    pub cert_depth: usize,
    /// Run the analytic pre-pass (`false` simulates every point).
    pub prune: bool,
}

/// How a grid point was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// eq. 8 holds at this frequency/capacity: cannot overflow.
    ProvablySafe,
    /// The unbounded departure replay shows a push that must find the
    /// FIFO full, under every policy.
    ProvablyUnsafe,
    /// Simulated; no overflow event occurred.
    SimOk,
    /// Simulated; the FIFO hit capacity (stall or drop, per policy).
    SimOverflow,
    /// The unbounded departure replay shows no push that can find the
    /// FIFO full, tie or no tie, and pins the peak backlog: the point's
    /// digest is the unbounded run's, with no simulation.
    ReplayOk,
}

impl Verdict {
    /// Whether the point overflows (analytically or in simulation).
    #[must_use]
    pub fn overflowed(self) -> bool {
        matches!(self, Verdict::ProvablyUnsafe | Verdict::SimOverflow)
    }

    /// Whether the verdict came from an actual simulation run
    /// ([`Verdict::ReplayOk`] carries a digest but ran no simulation).
    #[must_use]
    pub fn simulated(self) -> bool {
        matches!(self, Verdict::SimOk | Verdict::SimOverflow)
    }

    /// Stable lower-snake label used in the JSON/CSV reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ProvablySafe => "provably_safe",
            Verdict::ProvablyUnsafe => "provably_unsafe",
            Verdict::SimOk => "sim_ok",
            Verdict::SimOverflow => "sim_overflow",
            Verdict::ReplayOk => "replay_ok",
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Clip name.
    pub clip: String,
    /// PE₂ clock in Hz.
    pub frequency_hz: f64,
    /// FIFO capacity in macroblocks.
    pub capacity: u64,
    /// Overflow policy.
    pub policy: OverflowPolicy,
    /// Fault seed (`None` = clean).
    pub seed: Option<u64>,
    /// The decision.
    pub verdict: Verdict,
    /// Peak FIFO occupancy (simulated and `replay_ok` points only).
    pub max_backlog: Option<u64>,
    /// Dropped macroblocks (simulated and `replay_ok` points only).
    pub dropped: Option<usize>,
    /// Seconds PE₁ spent blocked on a full FIFO (simulated and
    /// `replay_ok` points only).
    pub pe1_stalled_s: Option<f64>,
}

/// Lehoczky RMS advisory for one `(clip, frequency)` column: whether a
/// rate-monotonic PE₂ task with the clip's `γᵘ` attached passes the
/// workload-curve test of eq. 4. Advisory only — the pipeline is not
/// scheduled RMS — but a useful cross-check against the sweep verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsAdvisory {
    /// Clip name.
    pub clip: String,
    /// PE₂ clock in Hz.
    pub frequency_hz: f64,
    /// `L ≤ 1` under the workload-curve Lehoczky test.
    pub schedulable: bool,
    /// The load factor `L` itself.
    pub l_factor: f64,
}

/// Aggregate counters of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Grid points in total.
    pub total: usize,
    /// Points decided safe analytically (no simulation).
    pub pruned_safe: usize,
    /// Points decided unsafe analytically (no simulation).
    pub pruned_unsafe: usize,
    /// Points actually simulated.
    pub simulated: usize,
    /// Points whose digest came from the departure replay
    /// ([`Verdict::ReplayOk`]; no simulation).
    pub replayed: usize,
    /// Points that overflow (any verdict source).
    pub overflowed: usize,
}

impl SweepStats {
    /// Fraction of points skipped by the analytic pre-pass.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.pruned_safe + self.pruned_unsafe) as f64 / self.total as f64
    }

    /// Counts one decided point (everything but `total`) — the verdict
    /// counter of both [`run_sweep_streaming`] and [`merge_shards`].
    fn record(&mut self, v: Verdict) {
        match v {
            Verdict::ProvablySafe => self.pruned_safe += 1,
            Verdict::ProvablyUnsafe => self.pruned_unsafe += 1,
            Verdict::SimOk | Verdict::SimOverflow => self.simulated += 1,
            Verdict::ReplayOk => self.replayed += 1,
        }
        if v.overflowed() {
            self.overflowed += 1;
        }
    }
}

/// The full result of [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Every grid point, in deterministic grid order
    /// (clip-major, then frequency, capacity, policy, seed).
    pub points: Vec<PointReport>,
    /// Per-`(clip, frequency)` RMS advisories.
    pub advisories: Vec<RmsAdvisory>,
    /// Aggregate counters.
    pub stats: SweepStats,
    /// Frequency/capacity Pareto frontier: the non-dominated
    /// `(frequency_hz, capacity)` pairs for which **no** clean point of
    /// any clip/policy overflows, sorted by frequency then capacity.
    /// One-axis ties survive (domination is strict), exactly-equal pairs
    /// from duplicate axis values are collapsed to one entry — see
    /// `nondominated` for the full tie contract.
    pub pareto: Vec<(f64, u64)>,
}

/// Errors of the sweep engine.
#[derive(Debug)]
pub enum SweepError {
    /// A simulation failed.
    Sim(SimError),
    /// Curve construction or sizing failed.
    Analysis(WorkloadError),
    /// The spec itself is unusable.
    Invalid(&'static str),
    /// A [`SweepSink`] failed to accept a result (I/O on the underlying
    /// writer).
    Io(std::io::Error),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Sim(e) => write!(f, "simulation: {e}"),
            SweepError::Analysis(e) => write!(f, "analysis: {e}"),
            SweepError::Invalid(what) => write!(f, "invalid sweep spec: {what}"),
            SweepError::Io(e) => write!(f, "sweep sink I/O: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim(e) => Some(e),
            SweepError::Analysis(e) => Some(e),
            SweepError::Invalid(_) => None,
            SweepError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> Self {
        SweepError::Sim(e)
    }
}

impl From<WorkloadError> for SweepError {
    fn from(e: WorkloadError) -> Self {
        SweepError::Analysis(e)
    }
}

impl From<wcm_events::EventError> for SweepError {
    fn from(e: wcm_events::EventError) -> Self {
        SweepError::Analysis(WorkloadError::from(e))
    }
}

/// Everything the evaluator needs about one clip, computed once and
/// shared read-only across all workers and grid points.
struct ClipContext {
    name: String,
    bitrate_bps: f64,
    /// `streams[seed_idx]` — the (possibly faulted) workload per seed.
    streams: Vec<FaultedWorkload>,
    /// `push_times[seed_idx]` — the stream's FIFO-input instants
    /// ([`push_times_of`]; empty when the simulator rejects the stream).
    push_times: Vec<Vec<f64>>,
    /// `f_min[seed_idx][cap_idx]` — `F^γ_min` from the seed's own
    /// `ᾱᵘ`/`γᵘ` (`None` when eq. 9 is infeasible or the seed's PE₂
    /// faults break the `c/F` model — then the point cannot be proven
    /// safe).
    f_min: Vec<Vec<Option<f64>>>,
    /// Lehoczky advisory per frequency index.
    rms: Vec<Option<(bool, f64)>>,
}

/// The FIFO-input instants of a (possibly faulted) stream in O(N):
/// without backpressure the PE₁ output obeys
/// `done_i = max(done_{i-1}, ready_i) + ((c₁ᵢ/F₁)·scaleᵢ + extraᵢ)` with
/// `ready_i = cum_bits/rate + delayᵢ` — PE₁ serves macroblocks in stream
/// order regardless of arrival reordering, so this is exactly the
/// recurrence the event loop executes. Clean streams multiply by 1.0 and
/// add 0.0, both exact in IEEE-754, so the times stay bit-identical to a
/// simulated run.
///
/// Empty when an instant the simulator schedules before PE₂ — a bit
/// arrival `ready_i` or a push `done_i` — is not finite: `simulate`
/// fails on such a stream, so nothing may be decided from its instants
/// (the departure replay's verdicts and eq. 9's alike).
fn push_times_of(w: &FaultedWorkload, bitrate_bps: f64, pe1_hz: f64) -> Vec<f64> {
    let n = w.len();
    let mut push_times = Vec::with_capacity(n);
    let mut cum_bits = 0.0f64;
    let mut done = 0.0f64;
    let mut finite = true;
    for i in 0..n {
        cum_bits += w.bits[i] as f64;
        let ready = cum_bits / bitrate_bps + w.arrival_delay_s[i];
        // Service time first, as in the event loop: under a stall,
        // `(start + c) + extra` can differ from it in the last bit.
        let service = (w.pe1_cycles[i] as f64 / pe1_hz) * w.pe1_scale[i] + w.pe1_extra_s[i];
        // `max` drops a NaN `ready`, so it is checked on its own.
        done = done.max(ready) + service;
        finite &= ready.is_finite() & done.is_finite();
        push_times.push(done);
    }
    if finite {
        push_times
    } else {
        Vec::new()
    }
}

/// Replays an **unbounded** run's PE₂ departures at `pe2_hz` into
/// `departures`: `D_m = max(D_{m−1}, A_m) + s_m` over the FIFO-input
/// instants `A = push_times`, with the service time `s_m` written exactly
/// as the event loop writes it. PE₂ serves in push order and starts a
/// macroblock when it is pushed or when its predecessor leaves, whichever
/// is later, so `D` is bit-equal to the unbounded run's
/// `fifo_out_times()`.
///
/// Returns whether `D` can certify overflow ([`certify_lanes`]): every
/// departure finite and none before its predecessor. A non-finite
/// instant is where the simulator fails or diverges, and a negative
/// service time breaks the argument that the residents are a suffix.
fn replay_departures(
    w: &FaultedWorkload,
    push_times: &[f64],
    pe2_hz: f64,
    departures: &mut Vec<f64>,
) -> bool {
    let mut done = f64::NEG_INFINITY;
    let service = w.pe2_cycles.iter().zip(&w.pe2_scale).zip(&w.pe2_extra_s);
    let replay = push_times
        .iter()
        .zip(service)
        .map(|(&a, ((&c, &scale), &extra))| {
            // A compare-select rather than `f64::max`: one instruction on the
            // serial chain, and equal operands are the same instant anyway.
            done = (if a > done { a } else { done }) + ((c as f64 / pe2_hz) * scale + extra);
            done
        });
    departures.clear();
    departures.extend(replay);
    // Non-decreasing with finite ends means finite throughout (a NaN
    // fails every comparison).
    let d = &departures[..];
    d.first().is_none_or(|x| x.is_finite())
        && d.last().is_none_or(|x| x.is_finite())
        && d.windows(2).fold(true, |ok, p| ok & (p[1] >= p[0]))
}

/// PE₂ clocks one lane pass replays side by side. The departure chain
/// is serial per clock, but the chains of different clocks are
/// independent, so one pass runs them in SIMD lanes and pays for the
/// stream's loads, the step's divisions and the capacity checks once
/// per lane group. Picked by measurement on the benchmark's sweep
/// (EXPERIMENTS.md §E36): sixteen lanes built its verdict table faster
/// than twelve, eight or four, although they waste more lanes past the
/// scan's stop.
const LANES: usize = 16;

/// [`replay_departures`] for `LANES` clocks in one pass over the
/// stream, storing no departure: `visit(j, D_j)` sees each push's
/// departures, one per lane, and the result is each lane's validity
/// flag. Every lane computes the same expression as the scalar replay,
/// so its departures are bit-equal to it.
///
/// `push_times` must be finite (a non-empty [`push_times_of`]).
fn replay_lanes(
    w: &FaultedWorkload,
    push_times: &[f64],
    clocks: &[f64; LANES],
    mut visit: impl FnMut(usize, &[f64; LANES]),
) -> [bool; LANES] {
    // `−f64::MAX` stands for −∞ before the first push: the finite `A_0`
    // wins the select against either, and `D_0 ≥ −MAX` is then the
    // scalar check that `D_0` is finite (with the last departure
    // finite, a rising chain cannot reach +∞ either).
    let mut done = [-f64::MAX; LANES];
    let mut rising = [true; LANES];
    let service = w.pe2_cycles.iter().zip(&w.pe2_scale).zip(&w.pe2_extra_s);
    for (j, (&a, ((&c, &scale), &extra))) in push_times.iter().zip(service).enumerate() {
        let c = c as f64;
        for k in 0..LANES {
            let d = (if a > done[k] { a } else { done[k] }) + ((c / clocks[k]) * scale + extra);
            rising[k] &= d >= done[k];
            done[k] = d;
        }
        visit(j, &done);
    }
    std::array::from_fn(|k| rising[k] & done[k].is_finite())
}

/// One lane pass ([`replay_lanes`]) that also certifies overflow:
/// `hits[p][k]` is set when lane `k`'s departures `D` show that a FIFO
/// of capacity `b = caps[p]` overflows under every policy, that is,
/// when some push `i ≥ b` has `D_{i−b} > A_i`. `D` is non-decreasing
/// (in a valid lane), so macroblocks `i−b … i−1` are then all still
/// resident (queued or in service) when `i` is pushed, and a bounded run
/// is the unbounded run until its first full push. An exact tie
/// `D_{i−b} == A_i` does not count: the simulator's event order decides
/// it, so simulation does. (`b = 0`, which the simulator rejects, reads
/// `D_i > A_i`: some service time is positive, and no push fits.)
///
/// Monotone in both arguments: a larger capacity or a faster PE₂ (a
/// bitwise smaller `D`) never overflows where this one did not. `caps`
/// must be ascending; capacity `b` is checked while `j + b < n`, so the
/// live capacities are a prefix that shrinks as the pass goes on.
fn certify_lanes(
    w: &FaultedWorkload,
    push_times: &[f64],
    clocks: &[f64; LANES],
    caps: &[usize],
    hits: &mut [[bool; LANES]],
) -> [bool; LANES] {
    let n = push_times.len();
    let hits = &mut hits[..caps.len()];
    hits.fill([false; LANES]);
    let mut live = caps.len();
    replay_lanes(w, push_times, clocks, |j, done| {
        while live > 0 && caps[live - 1] >= n - j {
            live -= 1;
        }
        for (hit, &b) in hits[..live].iter_mut().zip(caps) {
            let a = push_times[j + b];
            for k in 0..LANES {
                hit[k] |= done[k] > a;
            }
        }
    })
}

/// The peak resident counts of a replay, by one two-pointer pass over
/// the non-decreasing FIFO-input instants `A` and the replayed
/// departures `D` (also non-decreasing, as [`replay_departures`]
/// checks): `(max r, max r′)` over every push `i`, with
/// `r_i = #{j < i : D_j > A_i}` the macroblocks certainly still resident
/// when `i` is pushed and `r′_i = #{j < i : D_j ≥ A_i}` those that may
/// be, depending on how the simulator orders an exact tie `D_j == A_i`.
///
/// So `b ≤ max r` is the overflow certificate of [`certify_lanes`], and
/// `b > max r′` is a FIFO that no push ever finds full. The unbounded
/// run's peak backlog (the pushed macroblock included) then lies in
/// `[1 + max r, 1 + max r′]`; it is pinned exactly when the two agree.
fn replay_peaks(push_times: &[f64], departures: &[f64]) -> (usize, usize) {
    // `lt`/`le` count the departures before `A_i` (strictly / or at
    // it) among the first `i`; both only move forward as `A` rises.
    let (mut lt, mut le) = (0usize, 0usize);
    let (mut peak, mut peak_ties) = (0usize, 0usize);
    for (i, &a) in push_times.iter().enumerate() {
        while lt < i && departures[lt] < a {
            lt += 1;
        }
        le = le.max(lt);
        while le < i && departures[le] <= a {
            le += 1;
        }
        peak = peak.max(i - le);
        peak_ties = peak_ties.max(i - lt);
    }
    (peak, peak_ties)
}

/// The trace-exact minimum PE₂ clock for a FIFO of `capacity` on the
/// stream `w` (PE₁ at `pe1_hz`): the smallest clock in
/// `[lo_hz, hi_hz]`, to the last bit of an `f64`, at which the
/// departure replay shows no push that can find the FIFO full, ties
/// included: no push `i` with `b` earlier departures `D_j ≥ A_i`.
/// Every departure falls as the clock rises, so the predicate is
/// monotone and a bisection over the bit patterns of the bracket finds
/// its edge in at most 64 replays. This is the clock eq. 9's `F^γ_min`
/// over-approximates.
///
/// `None` when the FIFO can fill even at `hi_hz`, when the bracket is
/// not positive, finite and ordered, or when the stream cannot be
/// replayed (an event instant the simulator rejects, or FIFO-input
/// instants out of order).
#[must_use]
pub fn replay_min_frequency(
    w: &FaultedWorkload,
    bitrate_bps: f64,
    pe1_hz: f64,
    capacity: u64,
    lo_hz: f64,
    hi_hz: f64,
) -> Option<f64> {
    let push_times = push_times_of(w, bitrate_bps, pe1_hz);
    let replayable = !push_times.is_empty() && push_times.windows(2).all(|p| p[1] >= p[0]);
    if !(replayable && lo_hz > 0.0 && lo_hz <= hi_hz && hi_hz.is_finite()) {
        return None;
    }
    let mut departures = Vec::new();
    let mut never_full = |f: f64| {
        replay_departures(w, &push_times, f, &mut departures)
            && (replay_peaks(&push_times, &departures).1 as u64) < capacity
    };
    if !never_full(hi_hz) {
        return None;
    }
    if never_full(lo_hz) {
        return Some(lo_hz);
    }
    // Positive finite doubles order like their bit patterns.
    let (mut lo, mut hi) = (lo_hz.to_bits(), hi_hz.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if never_full(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(f64::from_bits(hi))
}

impl ClipContext {
    fn build(clip: &ClipWorkload, spec: &SweepSpec) -> Result<Self, SweepError> {
        // One clean build serves every seed: each seed starts from a copy
        // of it, and the last seed from the build itself.
        let clean = FaultedWorkload::clean(clip)?;
        let seeded = |seed: &Option<u64>, w: FaultedWorkload| match seed {
            None => Ok(w),
            Some(s) => spec
                .injectors
                .iter()
                .fold(FaultPlan::new(*s), |plan, inj| plan.with(inj.clone()))
                .apply_to(w),
        };
        let mut streams = Vec::with_capacity(spec.seeds.len());
        if let Some((last, rest)) = spec.seeds.split_last() {
            for seed in rest {
                streams.push(seeded(seed, clean.clone())?);
            }
            streams.push(seeded(last, clean)?);
        }
        Self::from_streams(clip, spec, streams)
    }

    /// The analysis of `clip` over its per-seed streams (`streams[i]`
    /// belongs to `spec.seeds[i]`). The first clean seed's stream is the
    /// clean reference; without one, the clean stream is built here.
    fn from_streams(
        clip: &ClipWorkload,
        spec: &SweepSpec,
        streams: Vec<FaultedWorkload>,
    ) -> Result<Self, SweepError> {
        let spare;
        let clean = match spec.seeds.iter().position(Option::is_none) {
            Some(i) => &streams[i],
            None => {
                spare = FaultedWorkload::clean(clip)?;
                &spare
            }
        };
        let k_max = spec.k_max.min(clean.len());

        let bitrate_bps = clip.params().bitrate_bps();
        let push_times: Vec<Vec<f64>> = streams
            .iter()
            .map(|w| push_times_of(w, bitrate_bps, spec.pe1_hz))
            .collect();
        let mut clean_gamma_u: Option<UpperWorkloadCurve> = None;
        let f_min = streams
            .iter()
            .zip(&push_times)
            .map(|(w, push_times)| Self::seed_f_min(w, push_times, clean, spec, &mut clean_gamma_u))
            .collect::<Result<Vec<_>, _>>()?;

        // Advisory column: one RMS task per clip, one macroblock per
        // period, the clip's (clean) γᵘ as its demand curve.
        let gamma_u = match clean_gamma_u {
            Some(g) => g,
            None => UpperWorkloadCurve::new(max_window_sums(&clean.pe2_cycles, k_max, spec.mode)?)?,
        };
        let rms = {
            let period = 1.0 / clip.params().mb_rate();
            let task_set = PeriodicTask::new(clip.name(), period, gamma_u.wcet())
                .and_then(|t| t.with_curve(gamma_u.clone()))
                .and_then(|t| TaskSet::new(vec![t]));
            spec.frequencies_hz
                .iter()
                .map(|&f| {
                    task_set.as_ref().ok().and_then(|set| {
                        rms::lehoczky_workload(set, f)
                            .ok()
                            .map(|a| (a.schedulable(), a.l))
                    })
                })
                .collect()
        };

        Ok(ClipContext {
            name: clip.name().to_string(),
            bitrate_bps,
            streams,
            push_times,
            f_min,
            rms,
        })
    }

    /// `F^γ_min` per capacity for one seed's stream, from its own `ᾱᵘ`
    /// (over its FIFO-input instants `push_times`) and `γᵘ`; all `None`
    /// when eq. 9 does not transfer to the stream: the frequency
    /// threshold needs PE₂ service to be exactly `c/F`, and a simulation
    /// that fails (no `push_times`) is no safe run.
    fn seed_f_min(
        w: &FaultedWorkload,
        push_times: &[f64],
        clean: &FaultedWorkload,
        spec: &SweepSpec,
        clean_gamma_u: &mut Option<UpperWorkloadCurve>,
    ) -> Result<Vec<Option<f64>>, SweepError> {
        let n = push_times.len();
        let safe_ok = n > 0
            && w.pe2_scale.iter().all(|&s| s == 1.0)
            && w.pe2_extra_s.iter().all(|&e| e == 0.0);
        if !safe_ok {
            return Ok(vec![None; spec.capacities.len()]);
        }
        let k_max = spec.k_max.min(n);
        let gamma_u = UpperWorkloadCurve::new(max_window_sums(&w.pe2_cycles, k_max, spec.mode)?)?;
        // ᾱᵘ straight from the stamps: `arrival_upper` over a trace of
        // them, without copying them into one.
        let spans = min_spans(push_times, k_max, spec.mode)?;
        let alpha = arrival_upper_from_spans(&spans, n, push_times[n - 1] - push_times[0])?;
        let out = spec
            .capacities
            .iter()
            .map(|&cap| sizing::min_frequency_workload(&alpha, &gamma_u, cap).ok())
            .collect();
        if std::ptr::eq(w, clean) || w.pe2_cycles == clean.pe2_cycles {
            *clean_gamma_u = clean_gamma_u.take().or(Some(gamma_u));
        }
        Ok(out)
    }
}

/// One grid point by axis indices.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    clip: usize,
    freq: usize,
    cap: usize,
    policy: usize,
    seed: usize,
}

/// Simulation extras of a point: `(max_backlog, dropped, pe1_stalled_s)`.
type SimDigest = (u64, usize, f64);

/// Counter name for a verdict (`sweep.verdict.<label>`).
fn verdict_counter(v: Verdict) -> &'static str {
    match v {
        Verdict::ProvablySafe => "sweep.verdict.provably_safe",
        Verdict::ProvablyUnsafe => "sweep.verdict.provably_unsafe",
        Verdict::SimOk => "sweep.verdict.sim_ok",
        Verdict::SimOverflow => "sweep.verdict.sim_overflow",
        Verdict::ReplayOk => "sweep.verdict.replay_ok",
    }
}

/// Analytic verdicts for the whole grid, computed **before** point
/// evaluation starts, so that point evaluation is a table lookup except
/// at exact ties. Per `(clip, seed)` the frequencies are visited in
/// ascending order, `LANES` at a time: one lane pass
/// ([`certify_lanes`]) replays the group's departures side by side and
/// checks, for every clock of the group, each capacity the clock before
/// the group certified. Then each clock of the group, in order:
///
/// * takes the certified capacities — a down-set in `(F, b)`, so a
///   prefix of the previous clock's, found by `partition_point` over
///   the pass's predicate values;
/// * where a capacity is left that neither that certificate nor eq. 9
///   decides, replays its departures once more, on their own
///   ([`replay_departures`]), for one [`replay_peaks`] pass that marks
///   the capacity [`Verdict::ReplayOk`] when no tie can fill it or move
///   its peak backlog, and records that peak for the clock.
///
/// The scan stops at the first frequency that certifies nothing and at
/// which eq. 9 calls every capacity safe; a group the stop cuts short
/// wastes its later lanes. The eq. 9 safe bound is overlaid last (safe
/// wins on overlap); a cell it calls safe that the replay certified
/// unsafe is counted in `eq9_contradicted` first.
///
/// The table is a pure function of `(ctxs, spec)` — policies don't enter
/// the analytic bounds, thread counts don't enter the table — so reports
/// stay bit-identical across worker counts.
struct AnalyticTable {
    n_freq: usize,
    n_cap: usize,
    n_seed: usize,
    /// `((clip·S + seed)·C + cap)·F + freq`; empty when pruning is off.
    verdicts: Vec<Option<Verdict>>,
    /// `(clip·S + seed)·F + freq`: the unbounded run's peak backlog at
    /// that clock, read by its [`Verdict::ReplayOk`] cells only.
    peaks: Vec<u64>,
    /// Cells eq. 9 calls safe that the replay certifies unsafe: each one
    /// is a soundness failure of the safe bound (counted, not yet an
    /// error; published as the `sweep.eq9_contradicted` counter).
    eq9_contradicted: u64,
    /// The replay's work, published as counters: lane passes
    /// (`sweep.replay_passes`), the clocks they carried, those past the
    /// stop included (`sweep.replayed_clocks`), and the scalar replays
    /// run for [`replay_peaks`] (`sweep.peak_replays`).
    replay_passes: u64,
    replayed_clocks: u64,
    peak_replays: u64,
}

impl AnalyticTable {
    fn build(ctxs: &[ClipContext], spec: &SweepSpec) -> Self {
        let n_freq = spec.frequencies_hz.len();
        let n_cap = spec.capacities.len();
        let n_seed = spec.seeds.len();
        let mut table = Self {
            n_freq,
            n_cap,
            n_seed,
            verdicts: Vec::new(),
            peaks: Vec::new(),
            eq9_contradicted: 0,
            replay_passes: 0,
            replayed_clocks: 0,
            peak_replays: 0,
        };
        if !spec.prune {
            return table;
        }
        let _span = wcm_obs::span("sweep.analytic_table");
        table.verdicts = vec![None; ctxs.len() * n_seed * n_cap * n_freq];
        table.peaks = vec![0; ctxs.len() * n_seed * n_freq];
        // Both axes in ascending value order: they may be unsorted or
        // repeat values.
        let freqs = &spec.frequencies_hz;
        let mut freq_order: Vec<usize> = (0..n_freq).collect();
        freq_order.sort_by(|&a, &b| freqs[a].total_cmp(&freqs[b]));
        let mut cap_order: Vec<usize> = (0..n_cap).collect();
        cap_order.sort_by_key(|&i| spec.capacities[i]);
        let cap_sizes: Vec<usize> = cap_order
            .iter()
            .map(|&bi| usize::try_from(spec.capacities[bi]).unwrap_or(usize::MAX))
            .collect();
        // `hits[p][k]`: the pass's certificate for capacity `cap_order[p]`
        // at its lane `k`.
        let mut hits = vec![[false; LANES]; n_cap];
        let mut departures = Vec::new();
        for (ci, ctx) in ctxs.iter().enumerate() {
            for (si, w) in ctx.streams.iter().enumerate() {
                let cs = ci * n_seed + si;
                let at = |bi: usize| (cs * n_cap + bi) * n_freq;
                let f_min = &ctx.f_min[si];
                let eq9_safe = |bi: usize, freq: f64| {
                    f_min[bi].is_some_and(|f_min| freq >= f_min * (1.0 + SAFE_MARGIN))
                };
                let all_safe = |freq: f64| cap_order.iter().all(|&bi| eq9_safe(bi, freq));
                // An event instant the simulator rejects is a simulation
                // error: decide nothing from the replay.
                let push_times = &ctx.push_times[si][..];
                let replayable = !push_times.is_empty();
                // The two-pointer merge needs `A` sorted; PE₁ service
                // times that no injector makes negative keep it so.
                let mergeable = replayable && push_times.windows(2).all(|p| p[1] >= p[0]);
                let mut certified = if replayable { n_cap } else { 0 };
                let mut next = 0;
                'clocks: while replayable && next < n_freq {
                    let group = &freq_order[next..n_freq.min(next + LANES)];
                    if certified == 0 && all_safe(freqs[group[0]]) {
                        break; // the stop falls on the group's first clock
                    }
                    next += group.len();
                    // Spare lanes repeat the group's last clock.
                    let clocks = std::array::from_fn(|k| freqs[group[k.min(group.len() - 1)]]);
                    let valid =
                        certify_lanes(w, push_times, &clocks, &cap_sizes[..certified], &mut hits);
                    table.replay_passes += 1;
                    table.replayed_clocks += group.len() as u64;
                    for (k, &fi) in group.iter().enumerate() {
                        let f = freqs[fi];
                        if certified == 0 && all_safe(f) {
                            break 'clocks;
                        }
                        if !valid[k] {
                            certified = 0;
                            continue;
                        }
                        // The certified capacities are a prefix of
                        // `cap_order`; a faster PE₂ can only shorten it.
                        certified = hits[..certified].partition_point(|hit| hit[k]);
                        for &bi in &cap_order[..certified] {
                            table.verdicts[at(bi) + fi] = Some(Verdict::ProvablyUnsafe);
                            table.eq9_contradicted += u64::from(eq9_safe(bi, f));
                        }
                        let open = &cap_order[certified..];
                        if !mergeable || open.iter().all(|&bi| eq9_safe(bi, f)) {
                            continue;
                        }
                        let replayed = replay_departures(w, push_times, f, &mut departures);
                        debug_assert!(replayed, "the lane pass found this clock's replay valid");
                        table.peak_replays += 1;
                        let (peak, peak_ties) = replay_peaks(push_times, &departures);
                        if peak != peak_ties {
                            continue; // a tie may move the peak: simulate
                        }
                        table.peaks[cs * n_freq + fi] = 1 + peak as u64;
                        for &bi in open {
                            if spec.capacities[bi] > peak as u64 {
                                table.verdicts[at(bi) + fi] = Some(Verdict::ReplayOk);
                            }
                        }
                    }
                }
                // Overlaid last: on overlap safe wins, as it did when
                // each point was pruned on its own.
                for bi in 0..n_cap {
                    for (fi, &freq) in freqs.iter().enumerate() {
                        if eq9_safe(bi, freq) {
                            table.verdicts[at(bi) + fi] = Some(Verdict::ProvablySafe);
                        }
                    }
                }
            }
        }
        if table.eq9_contradicted > 0 {
            wcm_obs::counter("sweep.eq9_contradicted", table.eq9_contradicted);
        }
        wcm_obs::counter("sweep.replay_passes", table.replay_passes);
        wcm_obs::counter("sweep.replayed_clocks", table.replayed_clocks);
        wcm_obs::counter("sweep.peak_replays", table.peak_replays);
        table
    }

    /// The analytic verdict of `p`, with its digest when the replay
    /// pins one; `None` leaves the point to the simulator.
    fn lookup(&self, p: GridPoint) -> Option<(Verdict, Option<SimDigest>)> {
        if self.verdicts.is_empty() {
            return None;
        }
        let cs = p.clip * self.n_seed + p.seed;
        let verdict = self.verdicts[(cs * self.n_cap + p.cap) * self.n_freq + p.freq]?;
        let digest =
            (verdict == Verdict::ReplayOk).then(|| (self.peaks[cs * self.n_freq + p.freq], 0, 0.0));
        Some((verdict, digest))
    }
}

/// The verdict of one point: the analytic table's, or a simulation's
/// where the table leaves the point open. Observability: a per-verdict
/// counter for every point, and the simulated points' run times
/// (`sweep.sim_ns`). A table lookup is not timed: two clock reads would
/// cost more than it does, and the table's cost is its own span. Timing
/// happens only with the recorder enabled and never influences the
/// returned value, so reports stay bit-identical whether or not a
/// recorder is live.
fn eval_point(
    p: GridPoint,
    ctxs: &[ClipContext],
    spec: &SweepSpec,
    table: &AnalyticTable,
    scratch: &mut SimScratch,
) -> Result<(Verdict, Option<SimDigest>), SimError> {
    if let Some(decided) = table.lookup(p) {
        wcm_obs::counter(verdict_counter(decided.0), 1);
        return Ok(decided);
    }
    let t0 = wcm_obs::enabled().then(wcm_obs::now_ns);
    let out = simulate_point(p, ctxs, spec, scratch);
    match &out {
        Ok((verdict, _)) => {
            wcm_obs::counter(verdict_counter(*verdict), 1);
            if let Some(t0) = t0 {
                wcm_obs::histogram("sweep.sim_ns", wcm_obs::now_ns().saturating_sub(t0));
            }
        }
        Err(_) => wcm_obs::counter("sweep.verdict.error", 1),
    }
    out
}

/// Simulates one point on the hot path, with the worker's scratch.
fn simulate_point(
    p: GridPoint,
    ctxs: &[ClipContext],
    spec: &SweepSpec,
    scratch: &mut SimScratch,
) -> Result<(Verdict, Option<SimDigest>), SimError> {
    let ctx = &ctxs[p.clip];
    let cfg = PipelineConfig {
        bitrate_bps: ctx.bitrate_bps,
        pe1_hz: spec.pe1_hz,
        pe2_hz: spec.frequencies_hz[p.freq],
    };
    let fifo = FifoConfig::bounded(spec.capacities[p.cap], spec.policies[p.policy]);
    let summary = simulate(&ctx.streams[p.seed], &cfg, &fifo, None, scratch)?;
    let verdict = if summary.overflowed {
        Verdict::SimOverflow
    } else {
        Verdict::SimOk
    };
    Ok((
        verdict,
        Some((summary.max_backlog, summary.dropped, summary.pe1_stalled)),
    ))
}

/// Runs the sweep over `clips × spec` inside `par.scope(..)` and
/// collects every point: [`run_sweep_streaming`] over the whole grid
/// into a [`CollectSink`]. The `par` argument stays for the
/// `examples/bench_e2e` harness; new code sets the worker count with
/// [`Parallelism::scope`] where its call enters.
///
/// The returned report is deterministic: identical for every `par`
/// setting, including the order of `points`.
///
/// # Errors
///
/// [`SweepError::Invalid`] for an empty grid axis or non-positive PE₁
/// clock; otherwise propagates simulation/analysis errors.
pub fn run_sweep(
    clips: &[ClipWorkload],
    spec: &SweepSpec,
    par: Parallelism,
) -> Result<SweepReport, SweepError> {
    par.scope(|| {
        let mut sink = CollectSink::new();
        let summary = run_sweep_streaming(clips, spec, ShardRange::FULL, &mut sink)?;
        Ok(sink.into_report(&summary))
    })
}

/// Axis-validity checks shared by [`run_sweep_streaming`] and
/// [`run_frontier`]; returns the number of grid points.
fn validate(clips: &[ClipWorkload], spec: &SweepSpec) -> Result<u64, SweepError> {
    let total = validate_axes(
        clips.len(),
        &spec.frequencies_hz,
        &spec.capacities,
        spec.policies.len(),
        spec.seeds.len(),
    )?;
    if !(spec.pe1_hz.is_finite() && spec.pe1_hz > 0.0) {
        return Err(SweepError::Invalid("pe1_hz must be positive and finite"));
    }
    if spec.k_max == 0 {
        return Err(SweepError::Invalid("k_max must be at least 1"));
    }
    Ok(total)
}

/// The grid rules of every sweep, whether its axes come from a
/// [`SweepSpec`] or off the wire in [`merge_shards`]: no empty axis,
/// positive finite frequencies, positive capacities (the simulator
/// rejects a zero-slot FIFO, so a pruned and an exhaustive run must
/// both refuse it up front), and a point count that fits `u64`.
/// Returns that count.
fn validate_axes(
    n_clips: usize,
    frequencies_hz: &[f64],
    capacities: &[u64],
    n_pol: usize,
    n_seed: usize,
) -> Result<u64, SweepError> {
    if n_clips == 0 {
        return Err(SweepError::Invalid("no clips"));
    }
    if frequencies_hz.is_empty() || capacities.is_empty() || n_pol == 0 || n_seed == 0 {
        return Err(SweepError::Invalid("an axis of the grid is empty"));
    }
    if frequencies_hz.iter().any(|f| !(f.is_finite() && *f > 0.0)) {
        return Err(SweepError::Invalid(
            "frequencies must be positive and finite",
        ));
    }
    if capacities.contains(&0) {
        return Err(SweepError::Invalid("capacities must be at least 1"));
    }
    let n_cap = capacities.len();
    [n_clips, frequencies_hz.len(), n_cap, n_pol, n_seed]
        .iter()
        .try_fold(1u64, |acc, &n| acc.checked_mul(n as u64))
        .ok_or(SweepError::Invalid("grid size overflows u64"))
}

/// Online Pareto-frontier accumulator over `(frequency, capacity)`
/// cells — the one frontier implementation behind
/// [`run_sweep_streaming`] and [`merge_shards`]. A clean-seed overflow
/// marks its cell at *canonical* axis positions, so duplicate axis
/// values share one cell and one fate; [`Self::frontier`] then hands
/// the canonical safe cells, in axis order, to [`nondominated`].
/// O(points + cells), where a by-value scan per cell is
/// O(cells × points) — seconds against hours on a million-point grid.
struct FrontierCells<'a> {
    frequencies_hz: &'a [f64],
    capacities: &'a [u64],
    seeds: &'a [Option<u64>],
    freq_canon: Vec<usize>,
    cap_canon: Vec<usize>,
    overflow: Vec<bool>,
}

impl<'a> FrontierCells<'a> {
    fn new(frequencies_hz: &'a [f64], capacities: &'a [u64], seeds: &'a [Option<u64>]) -> Self {
        Self {
            frequencies_hz,
            capacities,
            seeds,
            freq_canon: canonical_positions(frequencies_hz),
            cap_canon: canonical_positions(capacities),
            overflow: vec![false; frequencies_hz.len() * capacities.len()],
        }
    }

    /// Marks `p`'s cell unsafe when `p` is a clean-seed overflow.
    fn record(&mut self, p: GridPoint, verdict: Verdict) {
        if self.seeds[p.seed].is_none() && verdict.overflowed() {
            let cell = self.freq_canon[p.freq] * self.capacities.len() + self.cap_canon[p.cap];
            self.overflow[cell] = true;
        }
    }

    /// The non-dominated safe cells. Canonical cells only: `nondominated`
    /// must see each cell once, both for the tie contract and because
    /// its strict-domination filter is quadratic in the safe-set size.
    fn frontier(&self) -> Vec<(f64, u64)> {
        let n_cap = self.capacities.len();
        let mut safe: Vec<(f64, u64)> = Vec::new();
        for (fi, &f) in self.frequencies_hz.iter().enumerate() {
            if self.freq_canon[fi] != fi {
                continue;
            }
            for (ci, &c) in self.capacities.iter().enumerate() {
                if self.cap_canon[ci] == ci && !self.overflow[fi * n_cap + ci] {
                    safe.push((f, c));
                }
            }
        }
        nondominated(&safe)
    }
}

/// Strict-domination filter + canonical sort shared by
/// [`FrontierCells`] and [`run_frontier`] — one implementation so the
/// paths cannot drift apart on ties or duplicate axis values.
///
/// Tie/duplicate contract (also the contract of [`SweepReport::pareto`]):
///
/// * two *distinct* pairs that tie on one axis (e.g. `(f, 4)` and
///   `(f, 8)`) do **not** dominate each other — domination is strict in
///   at least one axis — so both survive when nothing else dominates
///   them;
/// * *exactly equal* pairs (duplicate axis values produce the same
///   `(f, c)` cell twice) are collapsed to a single entry after the
///   canonical sort, compared bitwise on the frequency so `-0.0` and
///   `0.0` stay the distinct values `total_cmp` says they are.
fn nondominated(safe: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let mut frontier: Vec<(f64, u64)> = safe
        .iter()
        .copied()
        .filter(|&(f, c)| {
            !safe
                .iter()
                .any(|&(f2, c2)| (f2 <= f && c2 <= c) && (f2 < f || c2 < c))
        })
        .collect();
    frontier.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    frontier.dedup_by(|a, b| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
    frontier
}

/// The Pareto frontier of a spec plus how much of the grid finding it
/// took — the count [`run_frontier`]'s bisection exists to shrink.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// Non-dominated safe `(frequency_hz, capacity)` pairs, sorted by
    /// frequency then capacity — same contract as
    /// [`SweepReport::pareto`].
    pub frontier: Vec<(f64, u64)>,
    /// Cells of the `frequency × capacity` grid.
    pub grid_cells: usize,
    /// Cells whose safety was actually established by evaluating points
    /// (analytic table lookups and simulations both count — the point is
    /// the *cell* count bisection saves, not what deciding a cell costs).
    pub evaluated_cells: usize,
}

/// Memoizing safety oracle over `(frequency, capacity)` cells: a cell is
/// safe iff no clean-seed point of any clip/policy at that cell
/// overflows — exactly the predicate of [`FrontierCells`].
struct CellOracle<'a> {
    ctxs: &'a [ClipContext],
    spec: &'a SweepSpec,
    table: &'a AnalyticTable,
    clean_seeds: &'a [usize],
    scratch: SimScratch,
    cache: Vec<Option<bool>>,
    evaluated: usize,
    error: Option<SimError>,
}

impl CellOracle<'_> {
    fn safe(&mut self, fi: usize, ci: usize) -> bool {
        let idx = fi * self.spec.capacities.len() + ci;
        if let Some(v) = self.cache[idx] {
            return v;
        }
        if self.error.is_some() {
            return false; // unwinding: the answer no longer matters
        }
        self.evaluated += 1;
        let mut ok = true;
        'all: for clip in 0..self.ctxs.len() {
            for policy in 0..self.spec.policies.len() {
                for &seed in self.clean_seeds {
                    let p = GridPoint {
                        clip,
                        freq: fi,
                        cap: ci,
                        policy,
                        seed,
                    };
                    match eval_point(p, self.ctxs, self.spec, self.table, &mut self.scratch) {
                        Ok((v, _)) if v.overflowed() => {
                            ok = false;
                            break 'all;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            self.error = Some(e);
                            return false;
                        }
                    }
                }
            }
        }
        self.cache[idx] = Some(ok);
        ok
    }
}

/// First-safe frequency thresholds of a monotone safety staircase, by
/// divide-and-conquer bisection.
///
/// `safe(f, c)` is queried at *sorted* axis positions (frequency and
/// capacity both ascending) and must be monotone: safe at `(f, c)`
/// implies safe at `(f+1, c)` and `(f, c+1)`. Returns, per capacity
/// position, the smallest frequency position that is safe (`n_freq` when
/// none is). The middle capacity is solved by binary search, then each
/// half recurses with the frequency window its neighbour's threshold
/// pins — O((n_cap + log n_cap) · log n_freq) queries overall instead of
/// `n_freq · n_cap`.
///
/// Public for property tests against brute-forced randomized monotone
/// grids; sweep users want [`run_frontier`].
pub fn staircase_thresholds(
    n_freq: usize,
    n_cap: usize,
    safe: &mut dyn FnMut(usize, usize) -> bool,
) -> Vec<usize> {
    let mut t = vec![n_freq; n_cap];
    solve_staircase(&mut t, 0, n_cap, 0, n_freq, safe);
    t
}

/// Solves capacity positions `[clo, chi)` whose thresholds are known to
/// lie in `[flo, fhi]` (monotonicity pins the window; a collapsed window
/// answers without queries).
fn solve_staircase(
    t: &mut [usize],
    clo: usize,
    chi: usize,
    flo: usize,
    fhi: usize,
    safe: &mut dyn FnMut(usize, usize) -> bool,
) {
    if clo >= chi {
        return;
    }
    let cmid = clo + (chi - clo) / 2;
    let (mut lo, mut hi) = (flo, fhi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if safe(mid, cmid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    t[cmid] = lo;
    // Smaller capacities need at least this frequency; larger ones at most.
    solve_staircase(t, clo, cmid, lo, fhi, safe);
    solve_staircase(t, cmid + 1, chi, flo, lo, safe);
}

/// Computes the Pareto frontier of `spec` without materializing a full
/// [`SweepReport`], and without even *visiting* most of the
/// `frequency × capacity` grid.
///
/// The safe/unsafe boundary is monotone in both axes (a faster PE or a
/// bigger FIFO never turns a safe cell unsafe — eq. 8's two sides move
/// the right way), so the frontier is a staircase that
/// [`staircase_thresholds`] locates with O(log grid) cell evaluations
/// per capacity. The safe set is then rebuilt from the thresholds and
/// pushed through the **same** non-domination filter in the **same**
/// enumeration order as a full sweep, so the result is bit-identical
/// to [`SweepReport::pareto`] — duplicates and ties included.
///
/// # Errors
///
/// Same contract as [`run_sweep`].
pub fn run_frontier(clips: &[ClipWorkload], spec: &SweepSpec) -> Result<FrontierReport, SweepError> {
    validate(clips, spec)?;
    let _span = wcm_obs::span("sweep.frontier");

    let ctxs: Vec<ClipContext> = {
        let _span = wcm_obs::span("sweep.clip_analysis");
        clips
            .iter()
            .map(|c| ClipContext::build(c, spec))
            .collect::<Result<_, _>>()?
    };
    let table = AnalyticTable::build(&ctxs, spec);

    let n_freq = spec.frequencies_hz.len();
    let n_cap = spec.capacities.len();
    let clean_seeds: Vec<usize> = spec
        .seeds
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();

    // Stable ascending permutations of both axes: bisection runs in
    // value order whatever order the spec lists them in, and stability
    // keeps duplicate values deterministic.
    let mut freq_order: Vec<usize> = (0..n_freq).collect();
    freq_order.sort_by(|&a, &b| spec.frequencies_hz[a].total_cmp(&spec.frequencies_hz[b]));
    let mut cap_order: Vec<usize> = (0..n_cap).collect();
    cap_order.sort_by_key(|&i| spec.capacities[i]);
    let mut fpos = vec![0usize; n_freq];
    for (p, &i) in freq_order.iter().enumerate() {
        fpos[i] = p;
    }
    let mut cpos = vec![0usize; n_cap];
    for (p, &i) in cap_order.iter().enumerate() {
        cpos[i] = p;
    }

    let mut oracle = CellOracle {
        ctxs: &ctxs,
        spec,
        table: &table,
        clean_seeds: &clean_seeds,
        scratch: SimScratch::new(),
        cache: vec![None; n_freq * n_cap],
        evaluated: 0,
        error: None,
    };

    let thresholds = staircase_thresholds(n_freq, n_cap, &mut |fp, cp| {
        oracle.safe(freq_order[fp], cap_order[cp])
    });

    let mut safe: Vec<(f64, u64)> = Vec::new();
    for (fi, &f) in spec.frequencies_hz.iter().enumerate() {
        for (ci, &c) in spec.capacities.iter().enumerate() {
            if fpos[fi] >= thresholds[cpos[ci]] {
                safe.push((f, c));
            }
        }
    }
    if let Some(e) = oracle.error {
        return Err(e.into());
    }
    wcm_obs::counter("sweep.frontier_cells_evaluated", oracle.evaluated as u64);
    Ok(FrontierReport {
        frontier: nondominated(&safe),
        grid_cells: n_freq * n_cap,
        evaluated_cells: oracle.evaluated,
    })
}

impl SweepReport {
    /// Serializes the report as deterministic JSON (stable key order,
    /// shortest-round-trip float formatting, no timing fields).
    ///
    /// Floats go through [`wcm_obs::json::fmt_f64`], which maps NaN/±∞ to
    /// `null` — a fault-seeded point with a non-finite stat used to render
    /// as the bare token `NaN`, producing an unparseable document. Clip
    /// names are escaped with [`wcm_obs::json::quote`]. For finite floats
    /// and quote-free names the output is byte-identical to before.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.points.len() * 160);
        s.push_str(&json_head(&self.stats));
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&json_point_row(&PointRecord::from_report(p, i as u64)));
            if i + 1 < self.points.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str(&json_tail(&self.advisories, &self.pareto));
        s
    }

    /// Serializes the per-point table as CSV (same order as `points`).
    ///
    /// Fields are quoted per RFC 4180 via [`wcm_obs::csv::field`] when they
    /// contain commas, quotes or line breaks — a clip name with a `,` used
    /// to shift every later column of its row. Plain fields stay unquoted,
    /// so reports for ordinary names are byte-identical to before.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(CSV_HEADER);
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&csv_point_row(&PointRecord::from_report(p, i as u64)));
        }
        s
    }
}

/// Header line of [`SweepReport::to_csv`] (trailing newline included).
pub const CSV_HEADER: &str =
    "clip,frequency_hz,capacity,policy,seed,verdict,max_backlog,dropped,pe1_stalled_s\n";

/// Opening of the [`SweepReport::to_json`] document up to and including
/// the `"points": [` line — the stats block precedes the rows, which is
/// why the streaming CLI path composes its JSON from a row temp file
/// instead of writing head-to-tail. The `"replayed"` count is written
/// only when some point is `replay_ok`, so an exhaustive (`prune` off)
/// report keeps the bytes it had before that verdict existed.
#[must_use]
pub fn json_head(stats: &SweepStats) -> String {
    use wcm_obs::json::fmt_f64;
    let mut s = String::with_capacity(256);
    s.push_str("{\n  \"stats\": {");
    s.push_str(&format!(
        "\"total\": {}, \"pruned_safe\": {}, \"pruned_unsafe\": {}, \
         \"simulated\": {}, ",
        stats.total, stats.pruned_safe, stats.pruned_unsafe, stats.simulated,
    ));
    if stats.replayed > 0 {
        s.push_str(&format!("\"replayed\": {}, ", stats.replayed));
    }
    s.push_str(&format!(
        "\"overflowed\": {}, \"pruned_fraction\": {}",
        stats.overflowed,
        fmt_f64(stats.pruned_fraction()),
    ));
    s.push_str("},\n  \"points\": [\n");
    s
}

/// One `points[]` row of [`SweepReport::to_json`], indented, without the
/// separating comma or newline (the caller knows whether a row follows).
#[must_use]
pub fn json_point_row(p: &PointRecord<'_>) -> String {
    use wcm_obs::json::{fmt_f64, quote};
    let mut s = String::with_capacity(160);
    s.push_str("    {");
    s.push_str(&format!(
        "\"clip\": {}, \"frequency_hz\": {}, \"capacity\": {}, \
         \"policy\": \"{}\", \"seed\": {}, \"verdict\": \"{}\"",
        quote(p.clip),
        fmt_f64(p.frequency_hz),
        p.capacity,
        policy_str(p.policy),
        p.seed.map_or("null".to_string(), |s| s.to_string()),
        p.verdict.as_str(),
    ));
    if let (Some(b), Some(d), Some(st)) = (p.max_backlog, p.dropped, p.pe1_stalled_s) {
        s.push_str(&format!(
            ", \"max_backlog\": {b}, \"dropped\": {d}, \"pe1_stalled_s\": {}",
            fmt_f64(st)
        ));
    }
    s.push('}');
    s
}

/// Everything of [`SweepReport::to_json`] after the last point row: the
/// advisory and Pareto sections plus the closing braces.
#[must_use]
pub fn json_tail(advisories: &[RmsAdvisory], pareto: &[(f64, u64)]) -> String {
    use wcm_obs::json::{fmt_f64, quote};
    let mut s = String::with_capacity(128 + advisories.len() * 96);
    s.push_str("  ],\n  \"rms_advisories\": [\n");
    for (i, a) in advisories.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"clip\": {}, \"frequency_hz\": {}, \
             \"schedulable\": {}, \"l_factor\": {}}}",
            quote(&a.clip),
            fmt_f64(a.frequency_hz),
            a.schedulable,
            fmt_f64(a.l_factor)
        ));
        if i + 1 < advisories.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n  \"pareto\": [");
    for (i, &(f, c)) in pareto.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"frequency_hz\": {}, \"capacity\": {c}}}",
            fmt_f64(f)
        ));
    }
    s.push_str("]\n}\n");
    s
}

/// One data row of [`SweepReport::to_csv`] (trailing newline included).
#[must_use]
pub fn csv_point_row(p: &PointRecord<'_>) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{}\n",
        wcm_obs::csv::field(p.clip),
        p.frequency_hz,
        p.capacity,
        policy_str(p.policy),
        p.seed.map_or(String::new(), |x| x.to_string()),
        p.verdict.as_str(),
        p.max_backlog.map_or(String::new(), |x| x.to_string()),
        p.dropped.map_or(String::new(), |x| x.to_string()),
        p.pe1_stalled_s.map_or(String::new(), |x| x.to_string()),
    )
}

/// Stable lower-case policy label for reports.
#[must_use]
pub fn policy_str(p: OverflowPolicy) -> &'static str {
    match p {
        OverflowPolicy::Backpressure => "backpressure",
        OverflowPolicy::Reject => "reject",
        OverflowPolicy::DropByPriority => "drop-priority",
    }
}

// ---------------------------------------------------------------------------
// Streaming evaluation: sinks, shards, merge
// ---------------------------------------------------------------------------

/// Points evaluated per pool job in [`run_sweep_streaming`] — the
/// constant that bounds peak memory: the pipeline ever holds one chunk
/// of verdicts, never the grid.
const STREAM_CHUNK: usize = 16_384;

/// Stable wire code of a [`Verdict`]
/// (`0..=`[`wcm_wire::sweep::MAX_VERDICT_CODE`]).
#[must_use]
pub fn verdict_code(v: Verdict) -> u8 {
    match v {
        Verdict::ProvablySafe => 0,
        Verdict::ProvablyUnsafe => 1,
        Verdict::SimOk => 2,
        Verdict::SimOverflow => 3,
        Verdict::ReplayOk => 4,
    }
}

/// Inverse of [`verdict_code`].
#[must_use]
pub fn verdict_from_code(code: u8) -> Option<Verdict> {
    match code {
        0 => Some(Verdict::ProvablySafe),
        1 => Some(Verdict::ProvablyUnsafe),
        2 => Some(Verdict::SimOk),
        3 => Some(Verdict::SimOverflow),
        4 => Some(Verdict::ReplayOk),
        _ => None,
    }
}

/// Stable wire code of a policy: the index of its [`policy_str`] label
/// in `backpressure`, `reject`, `drop-priority` order.
#[must_use]
pub fn policy_code(p: OverflowPolicy) -> u8 {
    match p {
        OverflowPolicy::Backpressure => 0,
        OverflowPolicy::Reject => 1,
        OverflowPolicy::DropByPriority => 2,
    }
}

/// Inverse of [`policy_code`].
#[must_use]
pub fn policy_from_code(code: u8) -> Option<OverflowPolicy> {
    match code {
        0 => Some(OverflowPolicy::Backpressure),
        1 => Some(OverflowPolicy::Reject),
        2 => Some(OverflowPolicy::DropByPriority),
        _ => None,
    }
}

/// Borrowed view of one evaluated grid point, pushed to a [`SweepSink`]
/// the moment it is decided — the streaming counterpart of
/// [`PointReport`], carrying its global grid index so shard outputs can
/// be stitched back into grid order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRecord<'a> {
    /// Global grid index (clip-major, then frequency, capacity, policy,
    /// seed — the order of [`SweepReport::points`]).
    pub index: u64,
    /// Clip name.
    pub clip: &'a str,
    /// PE₂ clock in Hz.
    pub frequency_hz: f64,
    /// FIFO capacity in macroblocks.
    pub capacity: u64,
    /// Overflow policy.
    pub policy: OverflowPolicy,
    /// Fault seed (`None` = clean).
    pub seed: Option<u64>,
    /// The decision.
    pub verdict: Verdict,
    /// Peak FIFO occupancy (simulated and `replay_ok` points only).
    pub max_backlog: Option<u64>,
    /// Dropped macroblocks (simulated and `replay_ok` points only).
    pub dropped: Option<usize>,
    /// Seconds PE₁ spent blocked on a full FIFO (simulated and
    /// `replay_ok` points only).
    pub pe1_stalled_s: Option<f64>,
}

impl<'a> PointRecord<'a> {
    /// Borrows a materialized report row as a record.
    #[must_use]
    pub fn from_report(p: &'a PointReport, index: u64) -> Self {
        Self {
            index,
            clip: &p.clip,
            frequency_hz: p.frequency_hz,
            capacity: p.capacity,
            policy: p.policy,
            seed: p.seed,
            verdict: p.verdict,
            max_backlog: p.max_backlog,
            dropped: p.dropped,
            pe1_stalled_s: p.pe1_stalled_s,
        }
    }

    /// Materializes the record (the collecting sink's storage step).
    #[must_use]
    pub fn to_report(&self) -> PointReport {
        PointReport {
            clip: self.clip.to_string(),
            frequency_hz: self.frequency_hz,
            capacity: self.capacity,
            policy: self.policy,
            seed: self.seed,
            verdict: self.verdict,
            max_backlog: self.max_backlog,
            dropped: self.dropped,
            pe1_stalled_s: self.pe1_stalled_s,
        }
    }
}

/// Everything a [`SweepReport`] carries except the point vector:
/// what [`run_sweep_streaming`] and [`merge_shards`] return after the
/// last point has been pushed to the sink. For a full-grid run
/// (`ShardRange::FULL`) and a merge these are the report's fields
/// ([`run_sweep`] adds the collected points);
/// for a shard run, `stats` and `pareto` cover only the shard's slice
/// of the grid (the merge step recomputes them globally).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Per-`(clip, frequency)` RMS advisories (always the full set —
    /// they depend on the clip analysis, not the shard range).
    pub advisories: Vec<RmsAdvisory>,
    /// Aggregate counters over the evaluated range.
    pub stats: SweepStats,
    /// Pareto frontier over the evaluated range.
    pub pareto: Vec<(f64, u64)>,
}

/// The coordinates of one streaming run: which contiguous slice of the
/// grid it evaluates and the axes every shard must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRunHeader<'a> {
    /// This shard's index (`0` for a full run).
    pub shard: u32,
    /// Total shard count (`1` for a full run).
    pub shards: u32,
    /// First global grid index of this shard's slice.
    pub start: u64,
    /// Points in this shard's slice.
    pub len: u64,
    /// Total grid points across all shards.
    pub total: u64,
    /// [`spec_fingerprint`] of the clip set and spec.
    pub fingerprint: u64,
    /// Clip names, in grid (clip-major) order.
    pub clips: &'a [String],
    /// Frequency axis of the spec.
    pub frequencies_hz: &'a [f64],
    /// Capacity axis of the spec.
    pub capacities: &'a [u64],
    /// Policy axis of the spec.
    pub policies: &'a [OverflowPolicy],
    /// Seed axis of the spec.
    pub seeds: &'a [Option<u64>],
    /// Full advisory set (computed before point evaluation starts).
    pub advisories: &'a [RmsAdvisory],
}

/// Consumer of a streaming sweep: receives the run header once, then
/// every evaluated point in global grid-index order, then the summary.
/// Any error aborts the sweep immediately — remaining points are never
/// evaluated.
pub trait SweepSink {
    /// Called once before the first point, with the run coordinates.
    ///
    /// # Errors
    ///
    /// Propagated out of [`run_sweep_streaming`] verbatim.
    fn begin(&mut self, header: &SweepRunHeader<'_>) -> Result<(), SweepError> {
        let _ = header;
        Ok(())
    }

    /// Called for every evaluated point, in grid-index order.
    ///
    /// # Errors
    ///
    /// Propagated out of [`run_sweep_streaming`] verbatim.
    fn point(&mut self, rec: &PointRecord<'_>) -> Result<(), SweepError>;

    /// Called once after the last point, with the run summary.
    ///
    /// # Errors
    ///
    /// Propagated out of [`run_sweep_streaming`] verbatim.
    fn finish(&mut self, summary: &SweepSummary) -> Result<(), SweepError> {
        let _ = summary;
        Ok(())
    }
}

/// In-process aggregating sink: collects the streamed points so
/// [`CollectSink::into_report`] can assemble the full [`SweepReport`] —
/// how [`run_sweep`] returns one, and the bridge for any caller that
/// wants the whole report in memory.
#[derive(Debug, Default)]
pub struct CollectSink {
    points: Vec<PointReport>,
}

impl CollectSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected points plus `summary`, as a full report.
    #[must_use]
    pub fn into_report(self, summary: &SweepSummary) -> SweepReport {
        SweepReport {
            points: self.points,
            advisories: summary.advisories.clone(),
            stats: summary.stats,
            pareto: summary.pareto.clone(),
        }
    }
}

impl SweepSink for CollectSink {
    fn begin(&mut self, header: &SweepRunHeader<'_>) -> Result<(), SweepError> {
        self.points.reserve_exact(header.len as usize);
        Ok(())
    }

    fn point(&mut self, rec: &PointRecord<'_>) -> Result<(), SweepError> {
        self.points.push(rec.to_report());
        Ok(())
    }
}

/// Row-streaming CSV sink: writes [`CSV_HEADER`] at `begin` and one
/// [`csv_point_row`] per point straight to `W` — for a full-grid run the
/// bytes written equal [`SweepReport::to_csv`] exactly.
#[derive(Debug)]
pub struct CsvSink<W: std::io::Write> {
    out: W,
}

impl<W: std::io::Write> CsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// The underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> SweepSink for CsvSink<W> {
    fn begin(&mut self, _header: &SweepRunHeader<'_>) -> Result<(), SweepError> {
        self.out.write_all(CSV_HEADER.as_bytes())?;
        Ok(())
    }

    fn point(&mut self, rec: &PointRecord<'_>) -> Result<(), SweepError> {
        self.out.write_all(csv_point_row(rec).as_bytes())?;
        Ok(())
    }

    fn finish(&mut self, _summary: &SweepSummary) -> Result<(), SweepError> {
        self.out.flush()?;
        Ok(())
    }
}

/// `.wcmt` shard sink: one `KIND_SWEEP_META` frame carrying the run
/// coordinates and axes (so the merge step needs no side-channel), then
/// `KIND_SWEEP_POINTS` frames of up to 4096 verdict records, written
/// incrementally through [`wcm_wire::FrameSink`] — peak memory is one
/// frame, whatever the shard size. Call [`WcmtShardSink::finish_stream`]
/// after the sweep returns to seal the stream with its end marker.
#[derive(Debug)]
pub struct WcmtShardSink<W: std::io::Write> {
    sink: wcm_wire::FrameSink<W>,
    buf: Vec<wcm_wire::SweepPointRec>,
}

impl<W: std::io::Write> WcmtShardSink<W> {
    /// Points buffered before a `KIND_SWEEP_POINTS` frame is flushed.
    const FLUSH_AT: usize = 4096;

    /// A sink writing a fresh `.wcmt` stream to `out` (the stream header
    /// is written immediately).
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] from the writer.
    pub fn new(out: W) -> Result<Self, SweepError> {
        Ok(Self {
            sink: wcm_wire::FrameSink::new(out)?,
            buf: Vec::with_capacity(Self::FLUSH_AT),
        })
    }

    fn flush_points(&mut self) -> Result<(), SweepError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        for chunk in wcm_wire::sweep::points_chunks(&self.buf) {
            self.sink.push(
                wcm_wire::frame::KIND_SWEEP_POINTS,
                &wcm_wire::sweep::encode_sweep_points(chunk),
            )?;
        }
        wcm_obs::counter("sweep.stream.flushes", 1);
        self.buf.clear();
        Ok(())
    }

    /// Flushes any buffered points and seals the stream with its end
    /// marker, returning the writer. A sink dropped without this call
    /// leaves a truncated stream that strict readers (and the merge
    /// step) refuse — the honest outcome for an interrupted shard.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] from the writer.
    pub fn finish_stream(mut self) -> Result<W, SweepError> {
        self.flush_points()?;
        Ok(self.sink.finish()?)
    }
}

impl<W: std::io::Write> SweepSink for WcmtShardSink<W> {
    fn begin(&mut self, header: &SweepRunHeader<'_>) -> Result<(), SweepError> {
        let meta = wcm_wire::SweepShardMeta {
            shard: header.shard,
            shards: header.shards,
            start: header.start,
            len: header.len,
            total: header.total,
            fingerprint: header.fingerprint,
            clips: header.clips.to_vec(),
            frequencies_hz: header.frequencies_hz.to_vec(),
            capacities: header.capacities.to_vec(),
            policies: header.policies.iter().map(|&p| policy_code(p)).collect(),
            seeds: header.seeds.to_vec(),
            advisories: header
                .advisories
                .iter()
                .map(|a| {
                    let clip = header
                        .clips
                        .iter()
                        .position(|c| c == &a.clip)
                        .unwrap_or_default();
                    wcm_wire::SweepAdvisoryRec {
                        clip: clip as u32,
                        frequency_hz: a.frequency_hz,
                        schedulable: a.schedulable,
                        l_factor: a.l_factor,
                    }
                })
                .collect(),
        };
        self.sink.push(
            wcm_wire::frame::KIND_SWEEP_META,
            &wcm_wire::sweep::encode_sweep_meta(&meta),
        )?;
        Ok(())
    }

    fn point(&mut self, rec: &PointRecord<'_>) -> Result<(), SweepError> {
        self.buf.push(wcm_wire::SweepPointRec {
            verdict: verdict_code(rec.verdict),
            sim: match (rec.max_backlog, rec.dropped, rec.pe1_stalled_s) {
                (Some(b), Some(d), Some(s)) => Some(wcm_wire::SweepSimRec {
                    max_backlog: b,
                    dropped: d as u64,
                    pe1_stalled_s: s,
                }),
                _ => None,
            },
        });
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush_points()?;
        }
        Ok(())
    }

    fn finish(&mut self, _summary: &SweepSummary) -> Result<(), SweepError> {
        self.flush_points()
    }
}

/// Which contiguous slice of the grid a streaming run evaluates:
/// shard `index` of `count` balanced slices
/// (`start = index·total/count`, `end = (index+1)·total/count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard index, `< count`.
    pub index: u32,
    /// Total shard count, `≥ 1`.
    pub count: u32,
}

impl ShardRange {
    /// The whole grid in one run.
    pub const FULL: ShardRange = ShardRange { index: 0, count: 1 };
}

/// FNV-1a over every input that shapes a sweep's results: clip
/// identities, all grid axes, injectors, analysis windows and the prune
/// switch. Shards stamp it into their metadata so [`merge_shards`] can
/// refuse to fold outputs of different runs — a cheap guard against
/// mixing shard files, not a cryptographic commitment.
#[must_use]
pub fn spec_fingerprint(clips: &[ClipWorkload], spec: &SweepSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for clip in clips {
        eat(clip.name().as_bytes());
        eat(&(clip.macroblock_count() as u64).to_le_bytes());
    }
    eat(&spec.pe1_hz.to_bits().to_le_bytes());
    for &f in &spec.frequencies_hz {
        eat(&f.to_bits().to_le_bytes());
    }
    for &c in &spec.capacities {
        eat(&c.to_le_bytes());
    }
    for &p in &spec.policies {
        eat(&[policy_code(p)]);
    }
    for s in &spec.seeds {
        match s {
            None => eat(&[0]),
            Some(v) => {
                eat(&[1]);
                eat(&v.to_le_bytes());
            }
        }
    }
    for inj in &spec.injectors {
        eat(format!("{inj:?}").as_bytes());
    }
    eat(&(spec.k_max as u64).to_le_bytes());
    eat(format!("{:?}", spec.mode).as_bytes());
    eat(&[u8::from(spec.prune)]);
    h
}

/// Decomposes a global grid index into axis indices — the sweep's one
/// grid enumeration (clip-major, then frequency, capacity, policy,
/// seed), so no path ever materializes the grid vector.
fn grid_point_at(mut idx: u64, n_freq: usize, n_cap: usize, n_pol: usize, n_seed: usize) -> GridPoint {
    let seed = (idx % n_seed as u64) as usize;
    idx /= n_seed as u64;
    let policy = (idx % n_pol as u64) as usize;
    idx /= n_pol as u64;
    let cap = (idx % n_cap as u64) as usize;
    idx /= n_cap as u64;
    let freq = (idx % n_freq as u64) as usize;
    idx /= n_freq as u64;
    GridPoint {
        clip: idx as usize,
        freq,
        cap,
        policy,
        seed,
    }
}

/// Canonical axis-index map: each position maps to the first position
/// holding an equal value, so duplicate axis values share one frontier
/// cell. A value equal to nothing before it (NaN included) is its own
/// canonical position.
fn canonical_positions<T: PartialEq>(axis: &[T]) -> Vec<usize> {
    (0..axis.len())
        .map(|i| axis[..i].iter().position(|w| *w == axis[i]).unwrap_or(i))
        .collect()
}

/// Global index range `[start, end)` of shard `index` of `count`
/// balanced slices of a `total`-point grid, computed in `u128` so the
/// products cannot overflow.
fn shard_slice(index: u64, count: u64, total: u64) -> (u64, u64) {
    let at = |i: u64| (u128::from(i) * u128::from(total) / u128::from(count)) as u64;
    (at(index), at(index + 1))
}

/// The sweep driver: evaluates the shard's slice of the grid and pushes
/// every point to `sink` in grid-index order. Peak memory is
/// **independent of the grid size** — one bounded chunk of verdicts in
/// flight, the per-clip analysis contexts, and the analytic table's one
/// slot per `(clip, seed, capacity, frequency)` cell — unless the sink
/// itself keeps the points, as [`run_sweep`]'s [`CollectSink`] does.
///
/// Points arrive in grid order for every [`Parallelism::current`]
/// setting, and the returned [`SweepSummary`] — stats, advisory set and
/// Pareto frontier, ties included — is bit-identical across settings
/// too. Stats and
/// frontier are tracked online while the points stream past
/// (the private `FrontierCells` explains the frontier).
///
/// # Errors
///
/// [`SweepError::Invalid`] for a bad spec or an out-of-range shard;
/// sink errors verbatim; otherwise propagates simulation/analysis
/// errors.
pub fn run_sweep_streaming(
    clips: &[ClipWorkload],
    spec: &SweepSpec,
    shard: ShardRange,
    sink: &mut dyn SweepSink,
) -> Result<SweepSummary, SweepError> {
    let total = validate(clips, spec)?;
    if shard.count == 0 || shard.index >= shard.count {
        return Err(SweepError::Invalid("shard index out of range"));
    }
    let _span = wcm_obs::span("sweep.run");

    // Phase 1: per-clip analysis, memoized once, then the analytic
    // verdict table.
    let ctxs: Vec<ClipContext> = {
        let _span = wcm_obs::span("sweep.clip_analysis");
        clips
            .iter()
            .map(|c| ClipContext::build(c, spec))
            .collect::<Result<_, _>>()?
    };
    let table = AnalyticTable::build(&ctxs, spec);

    let n_freq = spec.frequencies_hz.len();
    let n_cap = spec.capacities.len();
    let n_pol = spec.policies.len();
    let n_seed = spec.seeds.len();
    let (start, end) = shard_slice(u64::from(shard.index), u64::from(shard.count), total);
    let len = (end - start) as usize;

    let advisories: Vec<RmsAdvisory> = ctxs
        .iter()
        .flat_map(|ctx| {
            spec.frequencies_hz
                .iter()
                .zip(&ctx.rms)
                .filter_map(|(&f, r)| {
                    r.map(|(schedulable, l)| RmsAdvisory {
                        clip: ctx.name.clone(),
                        frequency_hz: f,
                        schedulable,
                        l_factor: l,
                    })
                })
        })
        .collect();
    let clip_names: Vec<String> = ctxs.iter().map(|c| c.name.clone()).collect();
    sink.begin(&SweepRunHeader {
        shard: shard.index,
        shards: shard.count,
        start,
        len: len as u64,
        total,
        fingerprint: spec_fingerprint(clips, spec),
        clips: &clip_names,
        frequencies_hz: &spec.frequencies_hz,
        capacities: &spec.capacities,
        policies: &spec.policies,
        seeds: &spec.seeds,
        advisories: &advisories,
    })?;

    let mut frontier = FrontierCells::new(&spec.frequencies_hz, &spec.capacities, &spec.seeds);
    let mut stats = SweepStats {
        total: len,
        ..SweepStats::default()
    };

    // Phase 2: classify/simulate the slice chunk by chunk, one reusable
    // scratch per worker; each chunk is emitted in grid order.
    let events_per_point = clips.iter().map(ClipWorkload::macroblock_count).sum::<usize>()
        / clips.len();
    let cost = (len as u64) * (events_per_point as u64).max(1) * 16;
    wcm_obs::counter("sweep.points", len as u64);
    {
        let _span = wcm_obs::span("sweep.eval");
        wcm_par::par_map_stream(
            len,
            cost,
            STREAM_CHUNK,
            SimScratch::new,
            |scratch, i| {
                let p = grid_point_at(start + i as u64, n_freq, n_cap, n_pol, n_seed);
                eval_point(p, &ctxs, spec, &table, scratch)
            },
            |chunk_start, vals| -> Result<(), SweepError> {
                for (j, out) in vals.drain(..).enumerate() {
                    let idx = start + (chunk_start + j) as u64;
                    let p = grid_point_at(idx, n_freq, n_cap, n_pol, n_seed);
                    let (verdict, sim) = out?;
                    stats.record(verdict);
                    frontier.record(p, verdict);
                    if let Some((b, _, _)) = sim {
                        wcm_obs::gauge_max("sweep.max_backlog", b);
                    }
                    sink.point(&PointRecord {
                        index: idx,
                        clip: &ctxs[p.clip].name,
                        frequency_hz: spec.frequencies_hz[p.freq],
                        capacity: spec.capacities[p.cap],
                        policy: spec.policies[p.policy],
                        seed: spec.seeds[p.seed],
                        verdict,
                        max_backlog: sim.map(|(b, _, _)| b),
                        dropped: sim.map(|(_, d, _)| d),
                        pe1_stalled_s: sim.map(|(_, _, s)| s),
                    })?;
                }
                Ok(())
            },
        )?;
    }

    let summary = SweepSummary {
        advisories,
        stats,
        pareto: frontier.frontier(),
    };
    sink.finish(&summary)?;
    Ok(summary)
}

/// Bitwise equality for float-bearing advisory records — shard
/// consistency must not be fooled by `NaN != NaN`.
fn advisory_recs_equal(a: &[wcm_wire::SweepAdvisoryRec], b: &[wcm_wire::SweepAdvisoryRec]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.clip == y.clip
                && x.frequency_hz.to_bits() == y.frequency_hz.to_bits()
                && x.schedulable == y.schedulable
                && x.l_factor.to_bits() == y.l_factor.to_bits()
        })
}

/// Folds decoded shard streams (one per `wcm sweep --shard i/N` process)
/// back into the single-process run of the same spec: `sink` receives
/// the points in global grid order, exactly as a full-grid
/// [`run_sweep_streaming`] pushes them, and the returned summary equals
/// that run's — stats and frontier are recounted from the verdicts
/// through the same accumulators, and advisories come from the
/// (validated identical) shard metadata. A [`CollectSink`] therefore
/// rebuilds the [`SweepReport`] of [`run_sweep`] byte for byte.
///
/// # Errors
///
/// [`SweepError::Invalid`] when the shard set is not exactly the output
/// of one run: a stream without sweep metadata, fingerprint/axis/
/// advisory disagreement, axes that break the grid rules of a spec (an
/// empty axis, a non-positive or non-finite frequency), a declared
/// total other than the axis product, duplicate/missing/unbalanced
/// shard ranges, or a point count that does not match a shard's
/// declared range; sink errors verbatim.
pub fn merge_shards(
    shards: &[wcm_wire::Decoded],
    sink: &mut dyn SweepSink,
) -> Result<SweepSummary, SweepError> {
    let _span = wcm_obs::span("sweep.merge");
    let mut parts: Vec<(&wcm_wire::SweepShardMeta, &[wcm_wire::SweepPointRec])> = shards
        .iter()
        .map(|d| {
            d.sweep_meta
                .as_ref()
                .map(|m| (m, d.sweep_points.as_slice()))
                .ok_or(SweepError::Invalid("shard stream carries no sweep metadata"))
        })
        .collect::<Result<_, _>>()?;
    let Some(&(first, _)) = parts.first() else {
        return Err(SweepError::Invalid("no shard streams to merge"));
    };
    if parts.len() != first.shards as usize {
        return Err(SweepError::Invalid(
            "shard file count does not match the declared shard count",
        ));
    }
    for &(m, pts) in &parts {
        if m.fingerprint != first.fingerprint {
            return Err(SweepError::Invalid(
                "shard fingerprints disagree (outputs of different runs?)",
            ));
        }
        let axes_equal = m.shards == first.shards
            && m.total == first.total
            && m.clips == first.clips
            && m.frequencies_hz.len() == first.frequencies_hz.len()
            && m.frequencies_hz
                .iter()
                .zip(&first.frequencies_hz)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && m.capacities == first.capacities
            && m.policies == first.policies
            && m.seeds == first.seeds;
        if !axes_equal {
            return Err(SweepError::Invalid("shard grid axes disagree"));
        }
        if !advisory_recs_equal(&m.advisories, &first.advisories) {
            return Err(SweepError::Invalid("shard advisories disagree"));
        }
        if pts.len() as u64 != m.len {
            return Err(SweepError::Invalid(
                "shard point count does not match its declared range",
            ));
        }
    }
    // The axes came off the wire: hold them to the rules a spec obeys
    // before any grid index is decomposed against them.
    let total = validate_axes(
        first.clips.len(),
        &first.frequencies_hz,
        &first.capacities,
        first.policies.len(),
        first.seeds.len(),
    )?;
    if first.total != total {
        return Err(SweepError::Invalid(
            "declared shard total does not match the grid axes",
        ));
    }
    parts.sort_by_key(|&(m, _)| m.shard);
    let count = u64::from(first.shards);
    for (i, &(m, _)) in parts.iter().enumerate() {
        if m.shard as usize != i {
            return Err(SweepError::Invalid("duplicate or missing shard index"));
        }
        let (expect_start, expect_end) = shard_slice(i as u64, count, total);
        if m.start != expect_start || m.start.checked_add(m.len) != Some(expect_end) {
            return Err(SweepError::Invalid("shard range is not the balanced split"));
        }
    }

    let n_freq = first.frequencies_hz.len();
    let n_cap = first.capacities.len();
    let n_pol = first.policies.len();
    let n_seed = first.seeds.len();
    let policies: Vec<OverflowPolicy> = first
        .policies
        .iter()
        .map(|&c| policy_from_code(c).ok_or(SweepError::Invalid("unknown policy code")))
        .collect::<Result<_, _>>()?;
    for a in &first.advisories {
        if a.clip as usize >= first.clips.len() {
            return Err(SweepError::Invalid("advisory clip index out of range"));
        }
    }

    let advisories: Vec<RmsAdvisory> = first
        .advisories
        .iter()
        .map(|a| RmsAdvisory {
            clip: first.clips[a.clip as usize].clone(),
            frequency_hz: a.frequency_hz,
            schedulable: a.schedulable,
            l_factor: a.l_factor,
        })
        .collect();
    sink.begin(&SweepRunHeader {
        shard: 0,
        shards: 1,
        start: 0,
        len: total,
        total,
        fingerprint: first.fingerprint,
        clips: &first.clips,
        frequencies_hz: &first.frequencies_hz,
        capacities: &first.capacities,
        policies: &policies,
        seeds: &first.seeds,
        advisories: &advisories,
    })?;

    let mut stats = SweepStats {
        total: total as usize,
        ..SweepStats::default()
    };
    let mut frontier = FrontierCells::new(&first.frequencies_hz, &first.capacities, &first.seeds);
    for &(m, pts) in &parts {
        for (j, rec) in pts.iter().enumerate() {
            let index = m.start + j as u64;
            let p = grid_point_at(index, n_freq, n_cap, n_pol, n_seed);
            let verdict = verdict_from_code(rec.verdict)
                .ok_or(SweepError::Invalid("unknown verdict code"))?;
            stats.record(verdict);
            frontier.record(p, verdict);
            sink.point(&PointRecord {
                index,
                clip: &first.clips[p.clip],
                frequency_hz: first.frequencies_hz[p.freq],
                capacity: first.capacities[p.cap],
                policy: policies[p.policy],
                seed: first.seeds[p.seed],
                verdict,
                max_backlog: rec.sim.map(|s| s.max_backlog),
                dropped: rec.sim.map(|s| s.dropped as usize),
                pe1_stalled_s: rec.sim.map(|s| s.pe1_stalled_s),
            })?;
        }
    }
    wcm_obs::counter("sweep.merge.shards", parts.len() as u64);
    wcm_obs::counter("sweep.merge.points", total);

    let summary = SweepSummary {
        advisories,
        stats,
        pareto: frontier.frontier(),
    };
    sink.finish(&summary)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::lane_tests::overflows_at;
    use super::*;
    use wcm_core::build::arrival_upper;
    use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
    use wcm_mpeg::{profile::standard_clips, Synthesizer, VideoParams};

    fn small_clips(count: usize) -> Vec<ClipWorkload> {
        let params =
            VideoParams::new(160, 128, 25.0, 1.0e6, wcm_mpeg::GopStructure::broadcast()).unwrap();
        let synth = Synthesizer::new(params);
        standard_clips()[..count]
            .iter()
            .map(|c| synth.generate(c, 1).unwrap())
            .collect()
    }

    /// [`merge_shards`] into a [`CollectSink`], as a full report.
    fn merge(shards: &[wcm_wire::Decoded]) -> Result<SweepReport, SweepError> {
        let mut sink = CollectSink::new();
        let summary = merge_shards(shards, &mut sink)?;
        Ok(sink.into_report(&summary))
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            pe1_hz: 60.0e6,
            frequencies_hz: vec![2.0e6, 6.0e6, 20.0e6, 60.0e6],
            capacities: vec![4, 80, 4000],
            policies: vec![OverflowPolicy::Backpressure, OverflowPolicy::Reject],
            seeds: vec![None, Some(11)],
            injectors: vec![
                Injector::JitterBurst {
                    start: 5,
                    len: 60,
                    max_delay_s: 0.004,
                },
                Injector::DemandSpike {
                    start: 30,
                    len: 40,
                    factor_pct: 250,
                },
            ],
            k_max: 600,
            mode: WindowMode::Strided {
                exact_upto: 128,
                stride: 40,
            },
            cert_depth: 400,
            prune: true,
        }
    }

    #[test]
    fn pruned_and_unpruned_sweeps_agree_on_every_verdict() {
        let clips = small_clips(3);
        let spec = small_spec();
        let pruned = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let full = run_sweep(
            &clips,
            &SweepSpec {
                prune: false,
                ..spec.clone()
            },
            Parallelism::Seq,
        )
        .unwrap();
        assert_eq!(pruned.points.len(), full.points.len());
        assert!(
            pruned.stats.pruned_safe + pruned.stats.pruned_unsafe > 0,
            "the analytic pre-pass should decide at least some points"
        );
        assert_eq!(full.stats.simulated, full.stats.total);
        for (a, b) in pruned.points.iter().zip(&full.points) {
            assert_eq!(
                a.verdict.overflowed(),
                b.verdict.overflowed(),
                "clip {} f {} cap {} seed {:?}: pruned verdict {:?} vs simulated {:?}",
                a.clip,
                a.frequency_hz,
                a.capacity,
                a.seed,
                a.verdict,
                b.verdict
            );
            if a.verdict == Verdict::ReplayOk {
                let digest = |p: &PointReport| {
                    (p.max_backlog, p.dropped, p.pe1_stalled_s.map(f64::to_bits))
                };
                assert_eq!(digest(a), digest(b), "{a:?} vs simulated {b:?}");
            }
        }
        assert!(pruned.stats.replayed > 0, "{:?}", pruned.stats);
        assert_eq!(pruned.pareto, full.pareto);
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let clips = small_clips(2);
        let spec = small_spec();
        let seq = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let other = run_sweep(&clips, &spec, par).unwrap();
            assert_eq!(seq, other, "{par:?} diverged from sequential");
            assert_eq!(seq.to_json(), other.to_json());
            assert_eq!(seq.to_csv(), other.to_csv());
        }
    }

    #[test]
    fn seeded_points_prune_and_agree_with_their_simulation() {
        // small_spec's injectors (jitter + integer demand spike) keep
        // pe2_scale ≡ 1 and pe2_extra ≡ 0, so both analytic bounds apply
        // to the seeded stream too.
        let clips = small_clips(1);
        let spec = small_spec();
        let pruned = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let seeded_pruned = pruned
            .points
            .iter()
            .filter(|p| p.seed.is_some() && !p.verdict.simulated())
            .count();
        assert!(
            seeded_pruned > 0,
            "seeded points with exact-model faults should prune analytically"
        );
        let full = run_sweep(
            &clips,
            &SweepSpec {
                prune: false,
                ..spec
            },
            Parallelism::Seq,
        )
        .unwrap();
        for (a, b) in pruned.points.iter().zip(&full.points) {
            if a.seed.is_some() {
                assert_eq!(
                    a.verdict.overflowed(),
                    b.verdict.overflowed(),
                    "seed {:?} f {} cap {}: {:?} vs simulated {:?}",
                    a.seed,
                    a.frequency_hz,
                    a.capacity,
                    a.verdict,
                    b.verdict
                );
            }
        }
    }

    /// Window maxima of `d` by direct prefix differences on `mode`'s
    /// grid, gaps filled from the next grid point — the oracle for a
    /// seed's `γᵘ`.
    fn scanned_upper(d: &[u64], k_max: usize, mode: WindowMode) -> Vec<u64> {
        let mut p = vec![0u64];
        for &v in d {
            p.push(p.last().unwrap() + v);
        }
        let grid = mode.grid(k_max);
        let at = |k: usize| (k..p.len()).map(|i| p[i] - p[i - k]).max().unwrap();
        (1..=k_max)
            .map(|k| at(*grid.iter().find(|&&g| g >= k).unwrap()))
            .collect()
    }

    /// `stamps` as a timed trace of one event type.
    fn stamp_trace(stamps: &[f64]) -> TimedTrace {
        let mut reg = TypeRegistry::new();
        let mb = reg
            .register("mb", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        let events = stamps
            .iter()
            .map(|&time| TimedEvent { time, ty: mb })
            .collect();
        TimedTrace::new(reg, events).unwrap()
    }

    #[test]
    fn seed_curves_are_measured_on_the_seeds_own_demand() {
        // A spike that raises (250 %) or lowers (20 %) the seeded
        // stream's demand moves its γᵘ: its eq.-9 thresholds must come
        // from its own demand vector and its own FIFO-input stamps, and
        // equal `arrival_upper` over a trace of those stamps.
        let clips = small_clips(1);
        for factor_pct in [250, 20] {
            let mut spec = small_spec();
            spec.injectors[1] = Injector::DemandSpike {
                start: 30,
                len: 40,
                factor_pct,
            };
            let ctx = ClipContext::build(&clips[0], &spec).unwrap();
            let clean = scanned_upper(&ctx.streams[0].pe2_cycles, spec.k_max, spec.mode);
            for (w, f_min) in ctx.streams.iter().zip(&ctx.f_min) {
                let upper = scanned_upper(&w.pe2_cycles, spec.k_max, spec.mode);
                if w.pe2_cycles != ctx.streams[0].pe2_cycles {
                    assert_ne!(upper, clean, "{factor_pct} %");
                }
                let gamma_u = UpperWorkloadCurve::new(upper).unwrap();
                let push_times = push_times_of(w, clips[0].params().bitrate_bps(), spec.pe1_hz);
                let alpha =
                    arrival_upper(&stamp_trace(&push_times), spec.k_max, spec.mode).unwrap();
                let want: Vec<Option<f64>> = spec
                    .capacities
                    .iter()
                    .map(|&cap| sizing::min_frequency_workload(&alpha, &gamma_u, cap).ok())
                    .collect();
                assert!(want.iter().any(Option::is_some), "{factor_pct} %");
                assert_eq!(
                    f_min
                        .iter()
                        .map(|f| f.map(f64::to_bits))
                        .collect::<Vec<_>>(),
                    want.iter().map(|f| f.map(f64::to_bits)).collect::<Vec<_>>(),
                    "{factor_pct} %"
                );
            }
        }
    }

    #[test]
    fn scale_faulted_seeds_fall_back_to_simulation_for_safe_prunes() {
        // A PE₂ clock drift (pe2_scale > 1) breaks the `c/F` model: the
        // safe bound must not fire for that seed, while the overflow
        // certificate (it replays the exact service times) may.
        let clips = small_clips(1);
        let mut spec = small_spec();
        spec.injectors = vec![Injector::ClockDrift {
            start: 10,
            len: 200,
            factor_pct: 180,
            pe: crate::faults::ProcessingElement::Pe2,
        }];
        let report = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let mut seeded_seen = false;
        for p in &report.points {
            if p.seed.is_some() {
                seeded_seen = true;
                assert_ne!(
                    p.verdict,
                    Verdict::ProvablySafe,
                    "safe prune is unsound under pe2 scale faults"
                );
            }
        }
        assert!(seeded_seen);
        // And the verdicts still agree with the unpruned ground truth.
        let full = run_sweep(
            &clips,
            &SweepSpec {
                prune: false,
                ..spec
            },
            Parallelism::Seq,
        )
        .unwrap();
        for (a, b) in report.points.iter().zip(&full.points) {
            assert_eq!(a.verdict.overflowed(), b.verdict.overflowed());
        }
    }

    #[test]
    fn pareto_frontier_is_nondominated_and_sorted() {
        let clips = small_clips(2);
        let report = run_sweep(&clips, &small_spec(), Parallelism::Seq).unwrap();
        let pf = &report.pareto;
        for w in pf.windows(2) {
            assert!(w[0].0 < w[1].0, "frontier frequencies must increase");
            assert!(w[0].1 > w[1].1, "capacity must strictly drop along it");
        }
        for &(f, c) in pf {
            for p in &report.points {
                if p.seed.is_none() && p.frequency_hz == f && p.capacity == c {
                    assert!(!p.verdict.overflowed());
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_specs() {
        let clips = small_clips(1);
        let spec = small_spec();
        assert!(matches!(
            run_sweep(&[], &spec, Parallelism::Seq),
            Err(SweepError::Invalid(_))
        ));
        for bad in [
            SweepSpec {
                frequencies_hz: vec![],
                ..spec.clone()
            },
            SweepSpec {
                capacities: vec![],
                ..spec.clone()
            },
            SweepSpec {
                pe1_hz: f64::NAN,
                ..spec.clone()
            },
            SweepSpec {
                frequencies_hz: vec![-3.0],
                ..spec.clone()
            },
            SweepSpec {
                k_max: 0,
                ..spec.clone()
            },
        ] {
            assert!(matches!(
                run_sweep(&clips, &bad, Parallelism::Seq),
                Err(SweepError::Invalid(_))
            ));
        }
    }

    /// A report with every float axis poisoned and a hostile clip name.
    fn poisoned_report() -> SweepReport {
        let point = |clip: &str, f: f64, stalled: Option<f64>| PointReport {
            clip: clip.to_string(),
            frequency_hz: f,
            capacity: 4,
            policy: OverflowPolicy::Backpressure,
            seed: Some(7),
            verdict: Verdict::SimOverflow,
            max_backlog: Some(9),
            dropped: Some(2),
            pe1_stalled_s: stalled,
        };
        SweepReport {
            points: vec![
                point("clip, with \"quotes\"", f64::NAN, Some(f64::INFINITY)),
                point("plain", f64::NEG_INFINITY, Some(f64::NAN)),
            ],
            advisories: vec![RmsAdvisory {
                clip: "adv, clip".to_string(),
                frequency_hz: f64::INFINITY,
                schedulable: false,
                l_factor: f64::NAN,
            }],
            stats: SweepStats {
                total: 2,
                simulated: 2,
                overflowed: 2,
                ..SweepStats::default()
            },
            pareto: vec![(f64::NAN, 4)],
        }
    }

    #[test]
    fn non_finite_floats_and_hostile_names_emit_parseable_json() {
        // Regression: bare `format!("{}")` rendered NaN/inf as the invalid
        // tokens `NaN`/`inf`, and clip names were interpolated unescaped.
        let json = poisoned_report().to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        let v = wcm_obs::json::parse(&json).expect("poisoned report must stay valid JSON");
        let points = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].get("clip").and_then(|c| c.as_str()),
            Some("clip, with \"quotes\"")
        );
        assert!(points[0].get("frequency_hz").unwrap().is_null());
        assert!(points[0].get("pe1_stalled_s").unwrap().is_null());
        assert!(v.get("rms_advisories").unwrap().as_array().unwrap()[0]
            .get("l_factor")
            .unwrap()
            .is_null());
        assert!(v.get("pareto").unwrap().as_array().unwrap()[0]
            .get("frequency_hz")
            .unwrap()
            .is_null());
    }

    #[test]
    fn csv_quotes_clip_names_with_commas_and_quotes() {
        // Regression: an unescaped `,` in a clip name shifted every later
        // column of its row.
        let csv = poisoned_report().to_csv();
        let rows = wcm_obs::csv::parse_table(&csv).expect("report must stay valid CSV");
        assert_eq!(rows.len(), 3, "header + 2 points");
        assert_eq!(rows[0].len(), 9);
        assert_eq!(rows[1][0], "clip, with \"quotes\"");
        assert_eq!(rows[1][5], "sim_overflow");
        assert_eq!(rows[2][0], "plain");
    }

    #[test]
    fn real_reports_round_trip_through_the_strict_readers() {
        let clips = small_clips(2);
        let report = run_sweep(&clips, &small_spec(), Parallelism::Seq).unwrap();
        let v = wcm_obs::json::parse(&report.to_json()).expect("sweep JSON parses");
        let points = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(points.len(), report.points.len());
        let rows = wcm_obs::csv::parse_table(&report.to_csv()).expect("sweep CSV parses");
        assert_eq!(rows.len(), report.points.len() + 1);
    }

    // ---- streaming path ---------------------------------------------------

    #[test]
    fn streaming_csv_sink_writes_to_csv_bytes() {
        let clips = small_clips(1);
        let spec = small_spec();
        let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        let mut sink = CsvSink::new(Vec::new());
        run_sweep_streaming(&clips, &spec, ShardRange::FULL, &mut sink).unwrap();
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), dense.to_csv());
    }

    #[test]
    fn duplicate_axis_values_share_one_frontier_entry() {
        let clips = small_clips(1);
        let mut spec = small_spec();
        // Duplicate one frequency and one capacity: a duplicated cell is
        // one cell, so the frontier must equal that of the deduplicated
        // axes, and carry no exact duplicates.
        spec.frequencies_hz = vec![2.0e6, 6.0e6, 6.0e6, 60.0e6];
        spec.capacities = vec![4, 80, 80, 4000];
        let report = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        spec.frequencies_hz.dedup();
        spec.capacities.dedup();
        let unique = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        assert_eq!(report.pareto, unique.pareto);
        for (i, a) in report.pareto.iter().enumerate() {
            for b in &report.pareto[i + 1..] {
                assert!(
                    a.0.to_bits() != b.0.to_bits() || a.1 != b.1,
                    "duplicate frontier entry {a:?}"
                );
            }
        }
    }

    #[test]
    fn shard_wire_round_trip_merges_to_the_single_process_report() {
        let clips = small_clips(2);
        let spec = small_spec();
        let dense = run_sweep(&clips, &spec, Parallelism::Seq).unwrap();
        for count in [1u32, 2, 3, 5] {
            let mut files = Vec::new();
            for index in 0..count {
                let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
                Parallelism::Threads(2)
                    .scope(|| {
                        run_sweep_streaming(&clips, &spec, ShardRange { index, count }, &mut sink)
                    })
                    .unwrap();
                files.push(sink.finish_stream().unwrap());
            }
            let decoded: Vec<wcm_wire::Decoded> = files
                .iter()
                .map(|f| wcm_wire::decode(f, wcm_wire::DecodePolicy::Strict).unwrap())
                .collect();
            let merged = merge(&decoded).unwrap();
            assert_eq!(merged, dense, "{count} shards: merged report diverges");
            assert_eq!(merged.to_json(), dense.to_json(), "{count} shards: JSON");
            assert_eq!(merged.to_csv(), dense.to_csv(), "{count} shards: CSV");
        }
    }

    #[test]
    fn merge_rejects_inconsistent_or_incomplete_shard_sets() {
        let clips = small_clips(1);
        let spec = small_spec();
        let shard_bytes = |index: u32, count: u32, clips: &[ClipWorkload], spec: &SweepSpec| {
            let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
            run_sweep_streaming(clips, spec, ShardRange { index, count }, &mut sink).unwrap();
            sink.finish_stream().unwrap()
        };
        let decode = |bytes: &[u8]| wcm_wire::decode(bytes, wcm_wire::DecodePolicy::Strict).unwrap();

        assert!(matches!(merge(&[]), Err(SweepError::Invalid(_))));

        // Missing shard 1 of 2.
        let a = decode(&shard_bytes(0, 2, &clips, &spec));
        assert!(matches!(merge(std::slice::from_ref(&a)), Err(SweepError::Invalid(_))));

        // Duplicate shard index.
        let dup = decode(&shard_bytes(0, 2, &clips, &spec));
        assert!(matches!(
            merge(&[a.clone(), dup]),
            Err(SweepError::Invalid(_))
        ));

        // Fingerprint mismatch: shard 1 from a different spec.
        let mut other = small_spec();
        other.capacities = vec![4, 80, 4001];
        let b = decode(&shard_bytes(1, 2, &clips, &other));
        assert!(matches!(merge(&[a, b]), Err(SweepError::Invalid(_))));

        // Stream with no sweep metadata at all.
        let plain = decode(&wcm_wire::encode_demands("x", &[1, 2, 3]));
        assert!(matches!(
            merge(&[plain]),
            Err(SweepError::Invalid(_))
        ));
    }

    #[test]
    fn merge_rejects_hostile_axes_without_panicking() {
        // Shard metadata with valid CRCs whose axes break the grid
        // rules must be refused before any index is taken from them: a
        // NaN frequency (the frontier's axis map), an empty seed axis
        // (the index decomposition), a total past the axis product (the
        // clip lookup).
        let clips = small_clips(1);
        let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
        run_sweep_streaming(&clips, &small_spec(), ShardRange::FULL, &mut sink).unwrap();
        let bytes = sink.finish_stream().unwrap();
        let good = wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict).unwrap();
        assert!(merge(std::slice::from_ref(&good)).is_ok());
        let mutations: [fn(&mut wcm_wire::Decoded); 3] = [
            |d| d.sweep_meta.as_mut().unwrap().frequencies_hz[0] = f64::NAN,
            |d| d.sweep_meta.as_mut().unwrap().seeds.clear(),
            |d| {
                let meta = d.sweep_meta.as_mut().unwrap();
                meta.total += 1;
                meta.len += 1;
                d.sweep_points.push(d.sweep_points[0]);
            },
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert!(
                matches!(merge(&[bad]), Err(SweepError::Invalid(_))),
                "mutation {i} must be refused"
            );
        }
    }

    #[test]
    fn streaming_rejects_out_of_range_shard() {
        let clips = small_clips(1);
        let spec = small_spec();
        let mut sink = CollectSink::new();
        for shard in [ShardRange { index: 2, count: 2 }, ShardRange { index: 0, count: 0 }] {
            assert!(matches!(
                run_sweep_streaming(&clips, &spec, shard, &mut sink),
                Err(SweepError::Invalid(_))
            ));
        }
    }

    #[test]
    fn streaming_rejects_zero_capacity_with_and_without_pruning() {
        // A grid a pruned run decides analytically (slow and fast PE₂)
        // must be refused exactly like the exhaustive run that would hand
        // the zero-slot FIFO to the simulator.
        let clips = small_clips(1);
        for prune in [true, false] {
            for capacities in [vec![0, 16], vec![0]] {
                let spec = SweepSpec {
                    frequencies_hz: vec![5.0e6, 2.0e9],
                    capacities,
                    prune,
                    ..small_spec()
                };
                let mut sink = CollectSink::new();
                assert!(matches!(
                    run_sweep_streaming(&clips, &spec, ShardRange::FULL, &mut sink),
                    Err(SweepError::Invalid("capacities must be at least 1"))
                ));
            }
        }
    }

    #[test]
    fn merge_rejects_a_zero_capacity_off_the_wire() {
        let clips = small_clips(1);
        let mut sink = WcmtShardSink::new(Vec::new()).unwrap();
        run_sweep_streaming(&clips, &small_spec(), ShardRange::FULL, &mut sink).unwrap();
        let bytes = sink.finish_stream().unwrap();
        let mut bad = wcm_wire::decode(&bytes, wcm_wire::DecodePolicy::Strict).unwrap();
        bad.sweep_meta.as_mut().unwrap().capacities[0] = 0;
        assert!(matches!(
            merge(&[bad]),
            Err(SweepError::Invalid("capacities must be at least 1"))
        ));
    }

    #[test]
    fn sink_error_aborts_the_sweep() {
        struct FailAfter(usize);
        impl SweepSink for FailAfter {
            fn point(&mut self, _: &PointRecord<'_>) -> Result<(), SweepError> {
                if self.0 == 0 {
                    return Err(SweepError::Io(std::io::Error::other("sink full")));
                }
                self.0 -= 1;
                Ok(())
            }
        }
        let clips = small_clips(1);
        let spec = small_spec();
        let mut sink = FailAfter(3);
        let err = run_sweep_streaming(&clips, &spec, ShardRange::FULL, &mut sink).unwrap_err();
        assert!(matches!(err, SweepError::Io(_)), "got {err:?}");
    }

    #[test]
    fn verdict_and_policy_codes_round_trip() {
        for v in [
            Verdict::ProvablySafe,
            Verdict::ProvablyUnsafe,
            Verdict::SimOk,
            Verdict::SimOverflow,
            Verdict::ReplayOk,
        ] {
            assert_eq!(verdict_from_code(verdict_code(v)), Some(v));
            assert!(verdict_code(v) <= wcm_wire::sweep::MAX_VERDICT_CODE);
        }
        assert_eq!(verdict_code(Verdict::ReplayOk), 4);
        assert_eq!(verdict_from_code(5), None);
        for p in [
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ] {
            assert_eq!(policy_from_code(policy_code(p)), Some(p));
        }
        assert_eq!(policy_from_code(3), None);
    }

    #[test]
    fn fingerprint_tracks_every_spec_axis() {
        let clips = small_clips(2);
        let base = small_spec();
        let f0 = spec_fingerprint(&clips, &base);
        assert_eq!(f0, spec_fingerprint(&clips, &base), "must be deterministic");
        let unread = SweepSpec {
            cert_depth: base.cert_depth + 1,
            ..base.clone()
        };
        assert_eq!(f0, spec_fingerprint(&clips, &unread), "cert_depth shapes no result");
        let mut tweaked = Vec::new();
        let mut s = base.clone();
        s.pe1_hz += 1.0;
        tweaked.push(s);
        let mut s = base.clone();
        s.frequencies_hz.push(1.0);
        tweaked.push(s);
        let mut s = base.clone();
        s.capacities[0] += 1;
        tweaked.push(s);
        let mut s = base.clone();
        s.policies.push(OverflowPolicy::DropByPriority);
        tweaked.push(s);
        let mut s = base.clone();
        s.seeds.push(Some(99));
        tweaked.push(s);
        let mut s = base.clone();
        s.prune = false;
        tweaked.push(s);
        for (i, s) in tweaked.iter().enumerate() {
            assert_ne!(f0, spec_fingerprint(&clips, s), "tweak {i} not fingerprinted");
        }
        assert_ne!(
            f0,
            spec_fingerprint(&clips[..1], &base),
            "clip set not fingerprinted"
        );
    }

    #[test]
    fn push_times_match_the_simulated_fifo_input() {
        // Nothing blocks PE₁ in front of an unbounded FIFO, so the
        // recurrence must reproduce the simulator's FIFO-input instants
        // bit for bit, and the departure replay its FIFO-output instants:
        // on the clean stream and under every injector, with PE₁ and PE₂
        // each mostly idle and mostly busy.
        use crate::faults::ProcessingElement::{Pe1, Pe2};
        let clip = &small_clips(1)[0];
        let bitrate_bps = clip.params().bitrate_bps();
        let injectors = [
            Injector::JitterBurst {
                start: 5,
                len: 200,
                max_delay_s: 0.004,
            },
            Injector::DropEvents { per_mille: 80 },
            Injector::DuplicateEvents { per_mille: 80 },
            Injector::ClockDrift {
                pe: Pe1,
                start: 10,
                len: 300,
                factor_pct: 170,
            },
            Injector::Stall {
                pe: Pe1,
                at: 40,
                extra_s: 3e-3,
            },
            Injector::BitErrors { per_mille: 100 },
            Injector::DemandSpike {
                start: 30,
                len: 40,
                factor_pct: 250,
            },
            Injector::ClockDrift {
                pe: Pe2,
                start: 10,
                len: 300,
                factor_pct: 170,
            },
            Injector::Stall {
                pe: Pe2,
                at: 40,
                extra_s: 3e-3,
            },
        ];
        let clean = FaultedWorkload::clean(clip).unwrap();
        let mut streams = vec![clean.clone()];
        for inj in injectors {
            streams.push(FaultPlan::new(5).with(inj).apply(clip).unwrap());
        }
        // A PE₂ *faster* than modelled, which no plan can inject.
        let mut faster = clean;
        faster.pe2_scale[10..310].fill(0.6);
        streams.push(faster);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = SimScratch::new();
        let mut departures = Vec::new();
        for pe1_hz in [60.0e6, 2.0e6] {
            for pe2_hz in [1.0e9, 20.0e6, 6.0e6] {
                let cfg = PipelineConfig {
                    bitrate_bps,
                    pe1_hz,
                    pe2_hz,
                };
                for (s, w) in streams.iter().enumerate() {
                    simulate(w, &cfg, &FifoConfig::unbounded(), None, &mut scratch).unwrap();
                    let push_times = push_times_of(w, bitrate_bps, pe1_hz);
                    assert_eq!(
                        bits(&push_times),
                        bits(scratch.fifo_in_times()),
                        "stream {s} at PE1 {pe1_hz} Hz"
                    );
                    assert!(replay_departures(w, &push_times, pe2_hz, &mut departures));
                    assert_eq!(
                        bits(&departures),
                        bits(scratch.fifo_out_times()),
                        "stream {s} at PE1 {pe1_hz} Hz, PE2 {pe2_hz} Hz"
                    );
                }
            }
        }
    }

    /// Two macroblocks whose instants are exact binary fractions: bits
    /// arrive at 1 024 bit/s, PE₁ runs at 1 024 Hz and PE₂ at 2 048 Hz.
    /// MB 0 is pushed at 0.5 s and leaves at exactly 1.5 s, the instant MB 1
    /// is pushed; PE₁ waited for MB 1's bits, so the simulator retires
    /// MB 0 first and the push finds the FIFO empty.
    fn tie_stream() -> FaultedWorkload {
        FaultedWorkload {
            bits: vec![256, 768],
            pe1_cycles: vec![256, 512],
            pe2_cycles: vec![2048, 100],
            kinds: vec![wcm_mpeg::FrameKind::I; 2],
            arrival_delay_s: vec![0.0; 2],
            pe1_scale: vec![1.0; 2],
            pe2_scale: vec![1.0; 2],
            pe1_extra_s: vec![0.0; 2],
            pe2_extra_s: vec![0.0; 2],
            report: crate::faults::FaultReport::default(),
        }
    }

    #[test]
    fn a_push_that_ties_a_departure_is_left_to_simulation() {
        let w = tie_stream();
        let push_times = push_times_of(&w, 1024.0, 1024.0);
        assert_eq!(push_times, [0.5, 1.5]);
        let mut departures = Vec::new();
        let mut scratch = SimScratch::new();
        // At 2 048 Hz MB 0 leaves exactly when MB 1 arrives: no
        // certificate, and indeed no overflow. One hertz slower it leaves
        // after: certified, and every policy overflows.
        //
        // The peak merge sees the same tie: at 2 048 Hz MB 0 may or may
        // not count when MB 1 is pushed (`max r = 0`, `max r′ = 1`), so
        // neither capacity is decided without the simulator, which
        // retires MB 0 first (peak 1 at b = 2). One hertz slower the
        // counts agree, and b = 2 is `replay_ok` with peak 1 + 1.
        for (pe2_hz, overflows, peaks, peak_at_2) in
            [(2048.0, false, (0, 1), 1), (2047.0, true, (1, 1), 2)]
        {
            assert!(replay_departures(&w, &push_times, pe2_hz, &mut departures));
            assert_eq!(departures[0] == push_times[1], !overflows);
            assert_eq!(
                overflows_at(&push_times, &departures, 1),
                overflows,
                "{pe2_hz} Hz"
            );
            assert!(!overflows_at(&push_times, &departures, 2));
            assert_eq!(replay_peaks(&push_times, &departures), peaks, "{pe2_hz} Hz");
            let cfg = PipelineConfig {
                bitrate_bps: 1024.0,
                pe1_hz: 1024.0,
                pe2_hz,
            };
            for policy in [
                OverflowPolicy::Backpressure,
                OverflowPolicy::Reject,
                OverflowPolicy::DropByPriority,
            ] {
                let fifo = FifoConfig::bounded(1, policy);
                let run = simulate(&w, &cfg, &fifo, None, &mut scratch).unwrap();
                assert_eq!(run.overflowed, overflows, "{pe2_hz} Hz, {policy:?}");
                let fifo = FifoConfig::bounded(2, policy);
                let run = simulate(&w, &cfg, &fifo, None, &mut scratch).unwrap();
                assert!(!run.overflowed, "{pe2_hz} Hz, {policy:?}");
                assert_eq!(run.max_backlog, peak_at_2, "{pe2_hz} Hz, {policy:?}");
            }
        }
    }

    #[test]
    fn the_replay_decides_nothing_on_a_stream_the_simulator_rejects() {
        // A NaN bit-arrival instant leaves every FIFO-input instant
        // finite (`max` drops the NaN) and an infinite PE₂ stall makes
        // the departures non-finite; `simulate` fails on both, so no
        // point of the seed may be decided from the replay.
        let clip = &small_clips(1)[0];
        let spec = small_spec();
        let streams = ClipContext::build(clip, &spec).unwrap().streams;
        let mut nan_arrival = streams.clone();
        nan_arrival[1].arrival_delay_s[7] = f64::NAN;
        let mut inf_stall = streams;
        inf_stall[1].pe2_extra_s[7] = f64::INFINITY;
        let mut scratch = SimScratch::new();
        for streams in [nan_arrival, inf_stall] {
            let ctxs = [ClipContext::from_streams(clip, &spec, streams).unwrap()];
            let table = AnalyticTable::build(&ctxs, &spec);
            for freq in 0..spec.frequencies_hz.len() {
                for cap in 0..spec.capacities.len() {
                    let p = GridPoint {
                        clip: 0,
                        freq,
                        cap,
                        policy: 0,
                        seed: 1,
                    };
                    let decided = table.lookup(p).map(|(v, _)| v);
                    assert!(
                        !matches!(decided, Some(Verdict::ReplayOk | Verdict::ProvablyUnsafe)),
                        "{p:?}: {decided:?}"
                    );
                    let cfg = PipelineConfig {
                        bitrate_bps: ctxs[0].bitrate_bps,
                        pe1_hz: spec.pe1_hz,
                        pe2_hz: spec.frequencies_hz[freq],
                    };
                    let fifo = FifoConfig::bounded(spec.capacities[cap], spec.policies[0]);
                    assert!(
                        simulate(&ctxs[0].streams[1], &cfg, &fifo, None, &mut scratch).is_err()
                    );
                }
            }
        }
    }

    #[test]
    fn faster_pe2_drift_prunes_unsafe_and_agrees_with_simulation() {
        // A seed whose PE₂ runs faster than modelled (60 % of the nominal
        // service time over part of the stream) is outside eq. 9's `c/F`
        // model, so none of its points may be called safe; the departure
        // replay still certifies its overflowing points exactly.
        let clip = &small_clips(1)[0];
        let spec = small_spec();
        let mut streams = ClipContext::build(clip, &spec).unwrap().streams;
        streams[1].pe2_scale[10..310].fill(0.6);
        let ctxs = [ClipContext::from_streams(clip, &spec, streams).unwrap()];
        let pruned = AnalyticTable::build(&ctxs, &spec);
        let unpruned_spec = SweepSpec {
            prune: false,
            ..spec.clone()
        };
        let unpruned = AnalyticTable::build(&ctxs, &unpruned_spec);
        let mut scratch = SimScratch::new();
        let mut seeded_unsafe = 0;
        for freq in 0..spec.frequencies_hz.len() {
            for cap in 0..spec.capacities.len() {
                for policy in 0..spec.policies.len() {
                    for seed in 0..spec.seeds.len() {
                        let p = GridPoint {
                            clip: 0,
                            freq,
                            cap,
                            policy,
                            seed,
                        };
                        let (got, _) = eval_point(p, &ctxs, &spec, &pruned, &mut scratch).unwrap();
                        let (want, _) =
                            eval_point(p, &ctxs, &unpruned_spec, &unpruned, &mut scratch).unwrap();
                        assert_eq!(
                            got.overflowed(),
                            want.overflowed(),
                            "{p:?}: {got:?} vs {want:?}"
                        );
                        if seed == 1 {
                            assert_ne!(got, Verdict::ProvablySafe, "{p:?}");
                            seeded_unsafe += usize::from(got == Verdict::ProvablyUnsafe);
                        }
                    }
                }
            }
        }
        assert!(seeded_unsafe > 0, "the faster seed should prune unsafe");
    }

    #[test]
    fn replay_work_is_counted_per_table() {
        // Three clips × two seeds, four clocks: one lane pass per stream
        // carries the whole axis, and the clocks whose open capacities
        // eq. 9 leaves undecided replay once more for their peaks.
        let clips = small_clips(3);
        let spec = small_spec();
        let ctxs: Vec<ClipContext> = clips
            .iter()
            .map(|c| ClipContext::build(c, &spec).unwrap())
            .collect();
        let table = AnalyticTable::build(&ctxs, &spec);
        assert_eq!(table.replay_passes, 6);
        assert_eq!(table.replayed_clocks, 24);
        assert_eq!(table.peak_replays, 15);
    }

    /// The SplitMix64 finalizer that seeds the benchmark's clip library
    /// (`examples/bench_e2e`), so this test sweeps the same clips.
    fn mix(seed: u64, salt: u64) -> u64 {
        let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn eq9_contradictions_are_counted_on_truncated_curves() {
        // ROADMAP item 1: with curves cut at two frames, eq. 9 extends ᾱ
        // past the horizon with the trace's average rate and calls b =
        // 1 620 safe at clocks where the replay proves an overflow. The
        // benchmark's seed-1 clips, its clock axis and capacities, clean
        // streams: one contradicted cell each on the three clips that
        // have any (of the 14), counted and not raised, and none with
        // curves over the whole clip.
        let params = VideoParams::main_profile_main_level().unwrap();
        let synth = Synthesizer::new(params);
        let clips: Vec<ClipWorkload> = standard_clips()
            .into_iter()
            .filter(|c| ["talking_head", "nature", "sports"].contains(&c.name.as_str()))
            .map(|mut profile| {
                profile.seed = mix(1, profile.seed);
                synth.generate(&profile, 1).unwrap()
            })
            .collect();
        let mb = params.mb_per_frame();
        let (lo, hi) = (20.0e6f64, 2000.0e6f64);
        let mut spec = SweepSpec {
            pe1_hz: 60.0e6,
            frequencies_hz: (0..20)
                .map(|i| lo * (hi / lo).powf(f64::from(i) / 19.0))
                .collect(),
            capacities: vec![400, 1620, 6480],
            policies: vec![OverflowPolicy::Backpressure],
            seeds: vec![None],
            injectors: vec![],
            k_max: 2 * mb,
            mode: WindowMode::Strided {
                exact_upto: mb / 2,
                stride: mb / 10,
            },
            cert_depth: 0,
            prune: true,
        };
        let contradicted = |spec: &SweepSpec| {
            let ctxs: Vec<ClipContext> = clips
                .iter()
                .map(|c| ClipContext::build(c, spec).unwrap())
                .collect();
            AnalyticTable::build(&ctxs, spec).eq9_contradicted
        };
        assert_eq!(contradicted(&spec), 3);
        spec.k_max = clips[0].macroblock_count();
        assert_eq!(contradicted(&spec), 0);
    }

    #[test]
    fn replay_min_frequency_is_the_edge_of_the_never_full_region() {
        // At the returned clock no policy's FIFO fills. One ulp slower
        // some push may find `b` residents (the edge is typically an
        // exact tie, which the simulator's event order decides), and a
        // millionth slower the replay certifies the overflow that every
        // policy's simulation shows.
        let clip = &small_clips(1)[0];
        let w = FaultedWorkload::clean(clip).unwrap();
        let bitrate_bps = clip.params().bitrate_bps();
        let pe1_hz = 60.0e6;
        let mut scratch = SimScratch::new();
        let mut departures = Vec::new();
        let push_times = push_times_of(&w, bitrate_bps, pe1_hz);
        for cap in [2, 16, 64] {
            let f = replay_min_frequency(&w, bitrate_bps, pe1_hz, cap, 1.0e3, 1.0e10).unwrap();
            let below = f64::from_bits(f.to_bits() - 1);
            assert!(replay_departures(&w, &push_times, below, &mut departures));
            assert!(
                replay_peaks(&push_times, &departures).1 as u64 >= cap,
                "b = {cap}"
            );
            let slower = f * (1.0 - 1e-6);
            assert!(replay_departures(&w, &push_times, slower, &mut departures));
            assert!(overflows_at(&push_times, &departures, cap), "b = {cap}");
            for policy in [
                OverflowPolicy::Backpressure,
                OverflowPolicy::Reject,
                OverflowPolicy::DropByPriority,
            ] {
                let fifo = FifoConfig::bounded(cap, policy);
                for (pe2_hz, overflows) in [(f, false), (slower, true)] {
                    let cfg = PipelineConfig {
                        bitrate_bps,
                        pe1_hz,
                        pe2_hz,
                    };
                    let run = simulate(&w, &cfg, &fifo, None, &mut scratch).unwrap();
                    assert_eq!(
                        run.overflowed, overflows,
                        "b = {cap} at {pe2_hz} Hz, {policy:?}"
                    );
                }
            }
        }
        // The whole bracket fills: no answer.
        assert_eq!(
            replay_min_frequency(&w, bitrate_bps, pe1_hz, 2, 1.0e3, 2.0e3),
            None
        );
    }
}

#[cfg(test)]
mod lane_tests {
    //! The lane pass of [`AnalyticTable::build`] against the per-clock
    //! replay it replaced: one [`replay_departures`] per clock, the overflow
    //! certificate ([`overflows_at`]) per capacity, and [`replay_peaks`]
    //! where a capacity is left open. On random clips, fault plans, clock
    //! axes and capacities, both build the same verdicts, peaks and eq.-9
    //! contradiction count, and every lane's departures are bit-equal to
    //! the scalar replay's.

    use super::*;
    use crate::faults::ProcessingElement;
    use proptest::prelude::*;
    use wcm_mpeg::demand::{Pe1Model, Pe2Model};
    use wcm_mpeg::mb::{Macroblock, MacroblockClass};
    use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
    use wcm_mpeg::workload::FrameWorkload;
    use wcm_mpeg::{profile::standard_clips, Synthesizer};

    /// Whether a FIFO of `capacity` overflows under every policy, by the
    /// replayed departures `D` of one clock: some push `i ≥ b` has
    /// `D_{i−b} > A_i` (the certificate [`certify_lanes`] checks in its
    /// lanes).
    pub(super) fn overflows_at(push_times: &[f64], departures: &[f64], capacity: u64) -> bool {
        let n = push_times.len();
        let b = usize::try_from(capacity).unwrap_or(usize::MAX);
        if b >= n {
            return false;
        }
        departures[..n - b]
            .iter()
            .zip(&push_times[b..])
            .any(|(d, a)| d > a)
    }

    /// What the per-clock replay decides: the verdict table, the peaks and
    /// the eq.-9 contradiction count, as [`AnalyticTable`] holds them.
    type Reference = (Vec<Option<Verdict>>, Vec<u64>, u64);

    /// The verdict table of the per-clock replay, and how many clocks had a
    /// peak that a tie may move.
    fn reference_table(ctxs: &[ClipContext], spec: &SweepSpec) -> (Reference, usize) {
        let n_freq = spec.frequencies_hz.len();
        let n_cap = spec.capacities.len();
        let n_seed = spec.seeds.len();
        let mut verdicts = vec![None; ctxs.len() * n_seed * n_cap * n_freq];
        let mut peaks = vec![0; ctxs.len() * n_seed * n_freq];
        let mut contradicted = 0;
        let mut tied = 0;
        let mut freq_order: Vec<usize> = (0..n_freq).collect();
        freq_order.sort_by(|&a, &b| spec.frequencies_hz[a].total_cmp(&spec.frequencies_hz[b]));
        let mut cap_order: Vec<usize> = (0..n_cap).collect();
        cap_order.sort_by_key(|&i| spec.capacities[i]);
        let mut departures = Vec::new();
        for (ci, ctx) in ctxs.iter().enumerate() {
            for (si, w) in ctx.streams.iter().enumerate() {
                let cs = ci * n_seed + si;
                let at = |bi: usize| (cs * n_cap + bi) * n_freq;
                let f_min = &ctx.f_min[si];
                let eq9_safe = |bi: usize, freq: f64| {
                    f_min[bi].is_some_and(|f_min| freq >= f_min * (1.0 + SAFE_MARGIN))
                };
                let push_times = push_times_of(w, ctx.bitrate_bps, spec.pe1_hz);
                let replayable = !push_times.is_empty();
                let mergeable = replayable && push_times.windows(2).all(|p| p[1] >= p[0]);
                let mut certified = if replayable { n_cap } else { 0 };
                for &fi in &freq_order {
                    let f = spec.frequencies_hz[fi];
                    if !replayable
                        || (certified == 0 && cap_order.iter().all(|&bi| eq9_safe(bi, f)))
                    {
                        break;
                    }
                    if !replay_departures(w, &push_times, f, &mut departures) {
                        certified = 0;
                        continue;
                    }
                    certified = cap_order[..certified].partition_point(|&bi| {
                        overflows_at(&push_times, &departures, spec.capacities[bi])
                    });
                    for &bi in &cap_order[..certified] {
                        verdicts[at(bi) + fi] = Some(Verdict::ProvablyUnsafe);
                        contradicted += u64::from(eq9_safe(bi, f));
                    }
                    let open = &cap_order[certified..];
                    if !mergeable || open.iter().all(|&bi| eq9_safe(bi, f)) {
                        continue;
                    }
                    let (peak, peak_ties) = replay_peaks(&push_times, &departures);
                    if peak != peak_ties {
                        tied += 1;
                        continue;
                    }
                    peaks[cs * n_freq + fi] = 1 + peak as u64;
                    for &bi in open {
                        if spec.capacities[bi] > peak as u64 {
                            verdicts[at(bi) + fi] = Some(Verdict::ReplayOk);
                        }
                    }
                }
                for bi in 0..n_cap {
                    for (fi, &freq) in spec.frequencies_hz.iter().enumerate() {
                        if eq9_safe(bi, freq) {
                            verdicts[at(bi) + fi] = Some(Verdict::ProvablySafe);
                        }
                    }
                }
            }
        }
        ((verdicts, peaks, contradicted), tied)
    }

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    /// A clip whose instants are exact binary fractions (1 024 bit/s, bit
    /// counts and cycle costs in powers of two), so departures often tie
    /// pushes exactly, as in `tie_stream`.
    fn dyadic_clip(rng: &mut TestRng) -> ClipWorkload {
        let longest = pick(rng, &[6, 60]);
        let n = 2 + rng.below(longest) as usize;
        let params =
            VideoParams::new(16, 16, 25.0, 1024.0, GopStructure::new(1, 1).unwrap()).unwrap();
        let frames = (0..n)
            .map(|_| {
                let mb = Macroblock {
                    frame: FrameKind::I,
                    class: MacroblockClass::Intra {
                        coded_blocks: pick(rng, &[0, 1, 2, 4, 6]),
                    },
                    bits: 128 * pick(rng, &[1, 2, 4, 7]),
                };
                FrameWorkload::new(FrameKind::I, vec![mb])
            })
            .collect();
        ClipWorkload::new(
            "dyadic".into(),
            params,
            Pe1Model {
                base: 0,
                cycles_per_bit: 1.0,
                iq_per_block: 0,
            },
            Pe2Model {
                base: pick(rng, &[0, 128]),
                idct_per_block: 256,
                mc_single: 0,
                mc_single_field: 0,
                mc_bidirectional: 0,
                mc_bidirectional_field: 0,
                skip_copy: 0,
            },
            frames,
        )
    }

    /// One GOP of a standard profile at 160 × 128 (960 macroblocks).
    fn synthesized_clip(rng: &mut TestRng) -> ClipWorkload {
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast()).unwrap();
        let profiles = standard_clips();
        let mut profile = profiles[rng.below(profiles.len() as u64) as usize].clone();
        profile.seed = rng.next_u64();
        Synthesizer::new(params).generate(&profile, 1).unwrap()
    }

    /// The PE₂ faults break eq. 9's `c/F` model, so the scan cannot stop
    /// early and replays the whole clock axis; the rest move `A` and `D`.
    fn injector(rng: &mut TestRng, n: usize) -> Injector {
        let start = rng.below(n as u64) as usize;
        let len = 1 + rng.below(n as u64) as usize;
        match rng.below(6) {
            0 => Injector::JitterBurst {
                start,
                len,
                max_delay_s: pick(rng, &[0.25, 1.0, 3.0]) * 0.01,
            },
            1 => Injector::DemandSpike {
                start,
                len,
                factor_pct: pick(rng, &[50, 150, 250, 137]),
            },
            2 => Injector::ClockDrift {
                pe: ProcessingElement::Pe2,
                start,
                len,
                factor_pct: pick(rng, &[125, 150, 200, 173]),
            },
            3 => Injector::Stall {
                pe: ProcessingElement::Pe2,
                at: start,
                extra_s: pick(rng, &[0.25, 0.5, 1.0, 0.3]) * 0.01,
            },
            4 => Injector::DropEvents {
                per_mille: rng.below(150) as u16,
            },
            _ => Injector::DuplicateEvents {
                per_mille: rng.below(150) as u16,
            },
        }
    }

    /// A hand edit of the last seed's stream that no plan injects.
    #[derive(Debug, Clone, Copy)]
    enum Edit {
        /// A NaN bit arrival: `simulate` fails, the replay decides nothing.
        NanArrival(usize),
        /// An infinite PE₂ stall: every lane's departures are non-finite.
        InfiniteStall(usize),
        /// A negative PE₂ stall: departures can fall at the fast clocks
        /// only, so some lanes of a pass are valid and others are not.
        NegativeStall(usize, f64),
        /// A PE₂ faster than modelled over the whole stream.
        FasterPe2,
        /// A −∞ stall on the first macroblock's PE₂ service: the first
        /// departure is −∞, which every lane must refuse as the scalar
        /// replay does.
        MinusInfiniteFirstStall,
    }

    struct Case {
        clip: ClipWorkload,
        spec: SweepSpec,
        edit: Option<Edit>,
    }

    fn case(seed: u64) -> Case {
        let mut rng = TestRng::seeded(seed);
        let dyadic = rng.below(2) == 0;
        let clip = if dyadic {
            dyadic_clip(&mut rng)
        } else {
            synthesized_clip(&mut rng)
        };
        let n = clip.macroblock_count();
        // Clock pools with repeats; axes of every length around the lane
        // count, unsorted.
        let pool: Vec<f64> = if dyadic {
            vec![
                128.0, 256.0, 300.0, 512.0, 700.0, 1024.0, 2048.0, 4096.0, 8192.0,
            ]
        } else {
            (0..12).map(|i| 1.0e6 * 1.5f64.powi(i)).collect()
        };
        let n_freq = pick(&mut rng, &[1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1]);
        let frequencies_hz = (0..n_freq).map(|_| pick(&mut rng, &pool)).collect();
        let cap_pool: Vec<u64> = if dyadic {
            vec![1, 2, 3, 4, 6, 100]
        } else {
            vec![1, 4, 16, 80, 200, 959, 4000]
        };
        let capacities = (0..1 + rng.below(5))
            .map(|_| pick(&mut rng, &cap_pool))
            .collect();
        let seeds = match rng.below(4) {
            0 => vec![Some(rng.next_u64())],
            1 => vec![Some(rng.next_u64()), None, Some(rng.next_u64())],
            _ => vec![None, Some(rng.next_u64())],
        };
        let injectors = (0..rng.below(4)).map(|_| injector(&mut rng, n)).collect();
        let edit = match rng.below(9) {
            0 => Some(Edit::NanArrival(rng.below(n as u64) as usize)),
            1 => Some(Edit::InfiniteStall(rng.below(n as u64) as usize)),
            // The service time is negative above the pool's middle clock.
            2 => Some(Edit::NegativeStall(
                rng.below(n as u64) as usize,
                pool[pool.len() / 2],
            )),
            3 => Some(Edit::FasterPe2),
            4 => Some(Edit::MinusInfiniteFirstStall),
            _ => None,
        };
        let pe1_hz = if dyadic {
            pick(&mut rng, &[1024.0, 4096.0, 3000.0])
        } else {
            60.0e6
        };
        let spec = SweepSpec {
            pe1_hz,
            frequencies_hz,
            capacities,
            policies: vec![OverflowPolicy::Backpressure],
            seeds,
            injectors,
            k_max: 64,
            mode: WindowMode::Exact,
            cert_depth: 0,
            prune: true,
        };
        Case { clip, spec, edit }
    }

    /// What one case exercised.
    #[derive(Debug, Default)]
    struct Seen {
        unsafe_cells: usize,
        replay_ok_cells: usize,
        tied_clocks: usize,
        /// Streams whose clock axis took more than one lane pass.
        multi_pass_streams: usize,
        /// Lane passes with both valid and invalid lanes.
        mixed_passes: usize,
        /// Streams the replay refused (a non-finite instant).
        refused_streams: usize,
    }

    /// `None` when the plan leaves nothing to analyse.
    fn check(case: &Case) -> Option<Result<Seen, String>> {
        let spec = &case.spec;
        let mut ctx = ClipContext::build(&case.clip, spec).ok()?;
        if let Some(edit) = case.edit {
            let mut streams = ctx.streams;
            let w = streams.last_mut().expect("every case has a seed");
            let n = w.len();
            match edit {
                Edit::NanArrival(i) => w.arrival_delay_s[i % n] = f64::NAN,
                Edit::InfiniteStall(i) => w.pe2_extra_s[i % n] = f64::INFINITY,
                Edit::NegativeStall(i, hz) => {
                    w.pe2_extra_s[i % n] = -(w.pe2_cycles[i % n] as f64) / hz;
                }
                Edit::FasterPe2 => w.pe2_scale.fill(0.6),
                Edit::MinusInfiniteFirstStall => w.pe2_extra_s[0] = f64::NEG_INFINITY,
            }
            ctx = ClipContext::from_streams(&case.clip, spec, streams).ok()?;
        }
        let ctxs = [ctx];
        Some(compare(&ctxs, spec))
    }

    fn compare(ctxs: &[ClipContext], spec: &SweepSpec) -> Result<Seen, String> {
        let table = AnalyticTable::build(ctxs, spec);
        let ((verdicts, peaks, contradicted), tied_clocks) = reference_table(ctxs, spec);
        if table.verdicts != verdicts {
            return Err(format!("verdicts {:?} vs {verdicts:?}", table.verdicts));
        }
        if table.peaks != peaks {
            return Err(format!("peaks {:?} vs {peaks:?}", table.peaks));
        }
        if table.eq9_contradicted != contradicted {
            return Err(format!("eq9 {} vs {contradicted}", table.eq9_contradicted));
        }
        let mut seen = Seen {
            unsafe_cells: verdicts
                .iter()
                .filter(|v| **v == Some(Verdict::ProvablyUnsafe))
                .count(),
            replay_ok_cells: verdicts
                .iter()
                .filter(|v| **v == Some(Verdict::ReplayOk))
                .count(),
            tied_clocks,
            ..Seen::default()
        };
        let streams = ctxs.iter().map(|c| c.streams.len()).sum::<usize>() as u64;
        seen.multi_pass_streams = usize::from(table.replay_passes > streams);
        // Every lane's departures, bit for bit, on the spec's clocks (the
        // spare lanes repeat them).
        let freqs = &spec.frequencies_hz;
        let clocks: [f64; LANES] = std::array::from_fn(|k| freqs[k % freqs.len()]);
        let mut departures = Vec::new();
        for ctx in ctxs {
            for (w, push_times) in ctx.streams.iter().zip(&ctx.push_times) {
                if push_times.is_empty() {
                    seen.refused_streams += 1;
                    continue;
                }
                let mut lanes: Vec<[f64; LANES]> = Vec::with_capacity(push_times.len());
                let valid = replay_lanes(w, push_times, &clocks, |j, done| {
                    assert_eq!(j, lanes.len());
                    lanes.push(*done);
                });
                for (k, &f) in clocks.iter().enumerate() {
                    let ok = replay_departures(w, push_times, f, &mut departures);
                    if valid[k] != ok {
                        return Err(format!("lane {k} at {f} Hz: valid {} vs {ok}", valid[k]));
                    }
                    let lane = lanes.iter().map(|d| d[k].to_bits());
                    if !lane.eq(departures.iter().map(|d| d.to_bits())) {
                        return Err(format!("lane {k} at {f} Hz: departures differ"));
                    }
                }
                seen.mixed_passes += usize::from(valid.contains(&true) && valid.contains(&false));
            }
        }
        Ok(seen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lane_table_equals_the_per_clock_replay(seed in 0u64..u64::MAX) {
            let outcome = check(&case(seed));
            prop_assume!(outcome.is_some());
            if let Some(Err(e)) = outcome {
                prop_assert!(false, "seed {seed}: {e}");
            }
        }
    }

    #[test]
    fn the_lane_property_sees_every_path() {
        // The property is only as strong as its cases: they must certify
        // and replay cells, hit ties, take several passes per stream, mix
        // valid and invalid lanes in one pass, and refuse streams.
        let mut total = Seen::default();
        for seed in 0..200 {
            let Some(outcome) = check(&case(seed)) else {
                continue;
            };
            let seen = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            total.unsafe_cells += seen.unsafe_cells;
            total.replay_ok_cells += seen.replay_ok_cells;
            total.tied_clocks += seen.tied_clocks;
            total.multi_pass_streams += seen.multi_pass_streams;
            total.mixed_passes += seen.mixed_passes;
            total.refused_streams += seen.refused_streams;
        }
        assert!(total.unsafe_cells > 1000, "{total:?}");
        assert!(total.replay_ok_cells > 1000, "{total:?}");
        assert!(total.tied_clocks > 10, "{total:?}");
        assert!(total.multi_pass_streams > 10, "{total:?}");
        assert!(total.mixed_passes > 3, "{total:?}");
        assert!(total.refused_streams > 5, "{total:?}");
    }
}
