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
//! * **uncertain** — the rest (the band between the two, plus pushes
//!   that tie exactly `D_{i−b} == A_i`, which the simulator's event
//!   order decides) is simulated, on the heap-free hot path of
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
}

impl Verdict {
    /// Whether the point overflows (analytically or in simulation).
    #[must_use]
    pub fn overflowed(self) -> bool {
        matches!(self, Verdict::ProvablyUnsafe | Verdict::SimOverflow)
    }

    /// Whether the verdict came from an actual simulation run.
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
    /// Peak FIFO occupancy (simulated points only).
    pub max_backlog: Option<u64>,
    /// Dropped macroblocks (simulated points only).
    pub dropped: Option<usize>,
    /// Seconds PE₁ spent blocked on a full FIFO (simulated points only).
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
fn push_times_of(w: &FaultedWorkload, bitrate_bps: f64, pe1_hz: f64) -> Vec<f64> {
    let n = w.len();
    let mut push_times = Vec::with_capacity(n);
    let mut cum_bits = 0.0f64;
    let mut done = 0.0f64;
    for i in 0..n {
        cum_bits += w.bits[i] as f64;
        let ready = cum_bits / bitrate_bps + w.arrival_delay_s[i];
        // Service time first, as in the event loop: under a stall,
        // `(start + c) + extra` can differ from it in the last bit.
        let service = (w.pe1_cycles[i] as f64 / pe1_hz) * w.pe1_scale[i] + w.pe1_extra_s[i];
        done = done.max(ready) + service;
        push_times.push(done);
    }
    push_times
}

/// Replays an **unbounded** run's PE₂ departures at `pe2_hz` into
/// `departures`: `D_m = max(D_{m−1}, A_m) + s_m` over the FIFO-input
/// instants `A = push_times`, with the service time `s_m` written exactly
/// as the event loop writes it. PE₂ serves in push order and starts a
/// macroblock when it is pushed or when its predecessor leaves, whichever
/// is later, so `D` is bit-equal to the unbounded run's
/// `fifo_out_times()`.
///
/// Returns whether `D` can certify overflow ([`overflows_at`]): every
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

/// Whether a FIFO of `capacity` `b` overflows under every policy, by the
/// replayed unbounded departures `D` of the FIFO-input instants `A`:
/// some push `i ≥ b` has `D_{i−b} > A_i`. `D` is non-decreasing, so
/// macroblocks `i−b … i−1` are then all still resident (queued or in
/// service) when `i` is pushed, and a bounded run is the unbounded run
/// until its first full push. An exact tie `D_{i−b} == A_i` does not
/// count: the simulator's event order decides it, so simulation does.
/// (`b = 0`, which the simulator rejects, reads `D_i > A_i`: some
/// service time is positive, and no push fits.)
///
/// Monotone in both arguments: a larger capacity or a faster PE₂ (a
/// bitwise smaller `D`) never overflows where this one did not.
fn overflows_at(push_times: &[f64], departures: &[f64], capacity: u64) -> bool {
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

impl ClipContext {
    fn build(clip: &ClipWorkload, spec: &SweepSpec) -> Result<Self, SweepError> {
        let streams = spec
            .seeds
            .iter()
            .map(|seed| match seed {
                None => FaultedWorkload::clean(clip),
                Some(s) => spec
                    .injectors
                    .iter()
                    .fold(FaultPlan::new(*s), |plan, inj| plan.with(inj.clone()))
                    .apply(clip),
            })
            .collect::<Result<Vec<_>, _>>()?;
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

        let mut clean_gamma_u: Option<UpperWorkloadCurve> = None;
        let f_min = streams
            .iter()
            .map(|w| {
                Self::seed_f_min(
                    w,
                    clean,
                    spec,
                    clip.params().bitrate_bps(),
                    &mut clean_gamma_u,
                )
            })
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
            bitrate_bps: clip.params().bitrate_bps(),
            streams,
            f_min,
            rms,
        })
    }

    /// `F^γ_min` per capacity for one seed's stream, from its own `ᾱᵘ`
    /// and `γᵘ`; all `None` when eq. 9 does not transfer to the stream:
    /// the frequency threshold needs PE₂ service to be exactly `c/F`.
    fn seed_f_min(
        w: &FaultedWorkload,
        clean: &FaultedWorkload,
        spec: &SweepSpec,
        bitrate_bps: f64,
        clean_gamma_u: &mut Option<UpperWorkloadCurve>,
    ) -> Result<Vec<Option<f64>>, SweepError> {
        let n = w.len();
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
        let push_times = push_times_of(w, bitrate_bps, spec.pe1_hz);
        let spans = min_spans(&push_times, k_max, spec.mode)?;
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
    }
}

/// Analytic verdicts for the whole grid, computed **before** point
/// evaluation starts. Per `(clip, seed)` the FIFO-input instants are
/// computed once and the frequencies are visited in ascending order, one
/// departure replay ([`replay_departures`]) each, which then serves
/// every capacity ([`overflows_at`]). The certified set is a down-set in
/// `(F, b)`, so each replay only searches the capacities the previous
/// frequency certified, and the scan stops at the first frequency that
/// certifies none. The eq. 9 safe bound is overlaid last (safe wins on
/// overlap). Point evaluation degrades to a table lookup.
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
}

impl AnalyticTable {
    fn build(ctxs: &[ClipContext], spec: &SweepSpec) -> Self {
        let n_freq = spec.frequencies_hz.len();
        let n_cap = spec.capacities.len();
        let n_seed = spec.seeds.len();
        if !spec.prune {
            return Self {
                n_freq,
                n_cap,
                n_seed,
                verdicts: Vec::new(),
            };
        }
        let _span = wcm_obs::span("sweep.analytic_table");
        let mut verdicts = vec![None; ctxs.len() * n_seed * n_cap * n_freq];
        // Both axes in ascending value order: they may be unsorted or
        // repeat values.
        let mut freq_order: Vec<usize> = (0..n_freq).collect();
        freq_order.sort_by(|&a, &b| spec.frequencies_hz[a].total_cmp(&spec.frequencies_hz[b]));
        let mut cap_order: Vec<usize> = (0..n_cap).collect();
        cap_order.sort_by_key(|&i| spec.capacities[i]);
        let mut departures = Vec::new();
        for (ci, ctx) in ctxs.iter().enumerate() {
            for (si, w) in ctx.streams.iter().enumerate() {
                let at = |bi: usize| ((ci * n_seed + si) * n_cap + bi) * n_freq;
                let push_times = push_times_of(w, ctx.bitrate_bps, spec.pe1_hz);
                // A non-finite push is a simulation error: certify nothing.
                let mut certified = if push_times.iter().all(|a| a.is_finite()) {
                    n_cap
                } else {
                    0
                };
                for &fi in &freq_order {
                    if certified == 0 {
                        break;
                    }
                    let f = spec.frequencies_hz[fi];
                    // The certified capacities are a prefix of
                    // `cap_order`; a faster PE₂ can only shorten it.
                    certified = if replay_departures(w, &push_times, f, &mut departures) {
                        cap_order[..certified].partition_point(|&bi| {
                            overflows_at(&push_times, &departures, spec.capacities[bi])
                        })
                    } else {
                        0
                    };
                    for &bi in &cap_order[..certified] {
                        verdicts[at(bi) + fi] = Some(Verdict::ProvablyUnsafe);
                    }
                }
                // Overlaid last: on overlap safe wins, as it did when
                // each point was pruned on its own.
                for (bi, f_min) in ctx.f_min[si].iter().enumerate() {
                    let Some(f_min) = *f_min else { continue };
                    for (fi, &freq) in spec.frequencies_hz.iter().enumerate() {
                        if freq >= f_min * (1.0 + SAFE_MARGIN) {
                            verdicts[at(bi) + fi] = Some(Verdict::ProvablySafe);
                        }
                    }
                }
            }
        }
        Self {
            n_freq,
            n_cap,
            n_seed,
            verdicts,
        }
    }

    fn verdict(&self, p: GridPoint) -> Option<Verdict> {
        if self.verdicts.is_empty() {
            return None;
        }
        self.verdicts
            [((p.clip * self.n_seed + p.seed) * self.n_cap + p.cap) * self.n_freq + p.freq]
    }
}

/// [`eval_point_inner`] plus observability: per-verdict counters and
/// time-in-prune vs time-in-sim histograms. Timing happens only with the
/// recorder enabled and never influences the returned value, so reports stay
/// bit-identical whether or not a recorder is live.
fn eval_point(
    p: GridPoint,
    ctxs: &[ClipContext],
    spec: &SweepSpec,
    table: &AnalyticTable,
    scratch: &mut SimScratch,
) -> Result<(Verdict, Option<SimDigest>), SimError> {
    if !wcm_obs::enabled() {
        return eval_point_inner(p, ctxs, spec, table, scratch);
    }
    let t0 = wcm_obs::now_ns();
    let out = eval_point_inner(p, ctxs, spec, table, scratch);
    let dt = wcm_obs::now_ns().saturating_sub(t0);
    match &out {
        Ok((verdict, sim)) => {
            wcm_obs::counter(verdict_counter(*verdict), 1);
            if sim.is_some() {
                wcm_obs::histogram("sweep.sim_ns", dt);
            } else {
                wcm_obs::histogram("sweep.prune_ns", dt);
            }
        }
        Err(_) => wcm_obs::counter("sweep.verdict.error", 1),
    }
    out
}

fn eval_point_inner(
    p: GridPoint,
    ctxs: &[ClipContext],
    spec: &SweepSpec,
    table: &AnalyticTable,
    scratch: &mut SimScratch,
) -> Result<(Verdict, Option<SimDigest>), SimError> {
    let ctx = &ctxs[p.clip];
    let freq = spec.frequencies_hz[p.freq];
    let cap = spec.capacities[p.cap];

    if let Some(verdict) = table.verdict(p) {
        return Ok((verdict, None));
    }

    let cfg = PipelineConfig {
        bitrate_bps: ctx.bitrate_bps,
        pe1_hz: spec.pe1_hz,
        pe2_hz: freq,
    };
    let fifo = FifoConfig::bounded(cap, spec.policies[p.policy]);
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
/// instead of writing head-to-tail.
#[must_use]
pub fn json_head(stats: &SweepStats) -> String {
    use wcm_obs::json::fmt_f64;
    let mut s = String::with_capacity(256);
    s.push_str("{\n  \"stats\": {");
    s.push_str(&format!(
        "\"total\": {}, \"pruned_safe\": {}, \"pruned_unsafe\": {}, \
         \"simulated\": {}, \"overflowed\": {}, \"pruned_fraction\": {}",
        stats.total,
        stats.pruned_safe,
        stats.pruned_unsafe,
        stats.simulated,
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
    /// Peak FIFO occupancy (simulated points only).
    pub max_backlog: Option<u64>,
    /// Dropped macroblocks (simulated points only).
    pub dropped: Option<usize>,
    /// Seconds PE₁ spent blocked on a full FIFO (simulated points only).
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
        }
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
        ] {
            assert_eq!(verdict_from_code(verdict_code(v)), Some(v));
            assert!(verdict_code(v) <= wcm_wire::sweep::MAX_VERDICT_CODE);
        }
        assert_eq!(verdict_from_code(4), None);
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
        for (pe2_hz, overflows) in [(2048.0, false), (2047.0, true)] {
            assert!(replay_departures(&w, &push_times, pe2_hz, &mut departures));
            assert_eq!(departures[0] == push_times[1], !overflows);
            assert_eq!(
                overflows_at(&push_times, &departures, 1),
                overflows,
                "{pe2_hz} Hz"
            );
            assert!(!overflows_at(&push_times, &departures, 2));
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
}
