//! Online envelope monitoring against workload curves.
//!
//! The offline checkers in [`crate::verify`] answer "did this finished
//! trace respect `γᵘ/γˡ`?" after the fact. The [`EnvelopeMonitor`] answers
//! it *while the trace happens*: it consumes one demand value per event and
//! slides every window size `k = 1..=k_max` against the bounds, so a
//! violation is reported at the exact event that causes it — with the
//! window offset, the window size, the observed demand and the violated
//! bound. This is the runtime side of the paper's hard-bound claim: curves
//! built from clean traces must never be violated by those traces, and an
//! injected overload must be flagged the moment a window exceeds `γᵘ(k)`.
//!
//! The monitor keeps the last `k_max + 1` cumulative sums in a ring, so
//! each event costs `O(k_max)` comparisons and memory stays constant
//! regardless of trace length.
//!
//! Every closed window, bound or not, also feeds a per-`k` running
//! maximum and minimum: the measured `γᵘ/γˡ` of the stream so far
//! ([`EnvelopeMonitor::measured_bounds`]). So one scan can both measure
//! a live stream's curves and check the stream against them.
//!
//! The scan is blocked per batch: [`EnvelopeMonitor::observe_all`]
//! rebases the full ring plus up to `max(256, k_max)` demands into a
//! local `u64` prefix table and, for each `k`, takes the largest and
//! smallest sum of the windows ending in the batch in one branch-free
//! loop (the shape of the window scans in `wcm_events::window`). For the
//! sizes `k ≥ 64` that fill groups of 8 counted down from `k_max` (none
//! below `k_max` = 71; the rest are scanned whole) the loop skips, as
//! those scans do, each block of 16 window ends whose bounds from the
//! monotone table (`p[e+15] − p[e−k]` above, `p[e] − p[e+15−k]` below)
//! show that none of its windows can move the running extrema or a slack
//! minimum, or break a bound; on a long stream that is most blocks, since
//! a new batch rarely beats the extrema of everything before it. The
//! extrema, slack minima, counters and ring are then updated in bulk.
//! A batch in which some `k` breaks a bound is replayed event by event
//! while the violation store still has room, so the stored violations
//! keep their order and fields; once the store is full (it never
//! empties), each such `k` costs one more branch-free pass over its
//! windows in the batch that counts those breaking each side, and the
//! batch stays in bulk. Short batches, a ring that is not yet full, the
//! first `k_max − 1` events after a bind and sums that do not fit `u64`
//! take the per-event path; the `monitor.replayed_events` counter adds
//! up the events of the batches handed back to it. Either way the
//! [`MonitorReport`] equals that of per-event
//! [`EnvelopeMonitor::observe`].
//!
//! # Example
//!
//! ```
//! use wcm_core::monitor::EnvelopeMonitor;
//! use wcm_core::UpperWorkloadCurve;
//!
//! # fn main() -> Result<(), wcm_core::WorkloadError> {
//! // At most one expensive event (10) per 2 consecutive events.
//! let gamma = UpperWorkloadCurve::new(vec![10, 12])?;
//! let mut mon = EnvelopeMonitor::upper_only(&gamma, 2)?;
//! mon.observe_all([10, 2, 10]);
//! assert!(mon.is_clean());
//! mon.observe(10); // the pair 10,10 breaks γᵘ(2) = 12
//! assert_eq!(mon.total_violations(), 1);
//! let v = &mon.violations()[0];
//! assert_eq!((v.offset, v.k, v.observed, v.bound), (3, 2, 20, 12));
//! # Ok(())
//! # }
//! ```

use crate::curve::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use crate::WorkloadError;
use std::collections::VecDeque;

/// Most demands per blocked exact scan in [`EnvelopeMonitor::observe_all`],
/// unless `k_max` is larger: a batch pays `O(k_max)` to set up (ring,
/// cuts, bulk update), so it spans at least `k_max` demands.
const SCAN_BATCH: usize = 256;

/// Window ends that share one bound in [`EnvelopeMonitor::observe_all`]'s
/// batch scan.
const PRUNE_BLOCK: usize = 16;

/// The smallest window size whose blocks that scan may skip. A block's
/// bounds overshoot its windows by up to 15 values, a quarter of a
/// 64-event window and more below it, so shorter windows rarely lie
/// under the cut and are scanned whole: flagging sizes 16 to 64 made
/// `wcm serve`'s 64-deep session monitors over a fifth slower.
const PRUNE_FROM: usize = 64;

/// Window sizes that share one bound in that scan before each is checked
/// on its own.
const SIZE_GROUP: usize = 8;

/// Size groups per block of window ends: consecutive blocks' group
/// bounds sit this many samples apart.
const STEPS: usize = PRUNE_BLOCK / SIZE_GROUP;

/// Fewer demands than this go through [`EnvelopeMonitor::observe`] one
/// by one: the blocked scan's set-up would not pay off.
const SCAN_MIN: usize = 8;

/// Which bound a window broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// The window exceeded `γᵘ(k)`.
    Upper,
    /// The window fell below `γˡ(k)`.
    Lower,
}

/// One violated window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// 1-indexed position of the first event of the window.
    pub offset: u64,
    /// Window size.
    pub k: usize,
    /// Observed demand of the window, in cycles.
    pub observed: u128,
    /// The violated bound value `γᵘ(k)` or `γˡ(k)`.
    pub bound: u64,
    /// Which side was broken.
    pub kind: BoundKind,
}

impl Violation {
    /// Signed slack of the window: negative by construction
    /// (`bound − observed` for upper, `observed − bound` for lower).
    #[must_use]
    pub fn slack(&self) -> i128 {
        match self.kind {
            BoundKind::Upper => i128::from(self.bound) - self.observed as i128,
            BoundKind::Lower => self.observed as i128 - i128::from(self.bound),
        }
    }
}

/// Snapshot of a monitoring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// Events observed.
    pub events: u64,
    /// Windows checked (each event closes up to `k_max` windows per bound).
    pub windows_checked: u64,
    /// Total violations, including those beyond the stored cap.
    pub total_violations: u64,
    /// The first violations in stream order (capped; see
    /// [`EnvelopeMonitor::VIOLATION_CAP`]).
    pub violations: Vec<Violation>,
    /// Per-`k` minimum upper slack `min_j (γᵘ(k) − demand(j, k))`;
    /// `upper_slack[k−1]`, `None` until a window of size `k` completed or
    /// when no upper curve is installed. Negative ⇔ violated.
    pub upper_slack: Vec<Option<i128>>,
    /// Per-`k` minimum lower slack `min_j (demand(j, k) − γˡ(k))`.
    pub lower_slack: Vec<Option<i128>>,
}

impl MonitorReport {
    /// The tightest upper slack over all window sizes, if any window closed.
    #[must_use]
    pub fn min_upper_slack(&self) -> Option<i128> {
        self.upper_slack.iter().flatten().min().copied()
    }

    /// The tightest lower slack over all window sizes.
    #[must_use]
    pub fn min_lower_slack(&self) -> Option<i128> {
        self.lower_slack.iter().flatten().min().copied()
    }

    /// Whether the whole run stayed within the envelope.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

/// Streaming checker of demand windows against `γᵘ(k)` / `γˡ(k)`.
#[derive(Debug, Clone)]
pub struct EnvelopeMonitor {
    k_max: usize,
    /// `γᵘ(k)` for `k = 1..=k_max`, or `None` when the upper side is not
    /// checked; materialized so the per-event loop reads a flat table
    /// instead of re-running curve extrapolation.
    upper: Option<Vec<u64>>,
    /// `γˡ(k)` for `k = 1..=k_max`, or `None`.
    lower: Option<Vec<u64>>,
    /// Ring of cumulative demand sums; front is the sum before the oldest
    /// retained event, back the sum after the newest. Holds at most
    /// `k_max + 1` entries, so `sum(window of k ending now) = back − ...`.
    cum: VecDeque<u128>,
    events: u64,
    windows_checked: u64,
    total_violations: u64,
    violations: Vec<Violation>,
    upper_slack: Vec<Option<i128>>,
    lower_slack: Vec<Option<i128>>,
    /// Work table of the blocked exact scan in [`Self::observe_all`]:
    /// kept between batches so a long stream allocates it once, and
    /// never allocated while the ring is filling.
    scratch: Vec<u64>,
    /// Only windows that start after this event are checked: the
    /// events seen at the last [`Self::bind`], else 0.
    bound_at: u64,
    /// Largest sum of every closed window of size `k`, at `k − 1`.
    max_win: Vec<u64>,
    /// Smallest sum of every closed window of size `k`.
    min_win: Vec<u64>,
    /// Some closed window summed past `u64::MAX`.
    overflowed: bool,
}

impl EnvelopeMonitor {
    /// At most this many violations are stored verbatim; counting continues
    /// beyond it ([`MonitorReport::total_violations`] is exact).
    pub const VIOLATION_CAP: usize = 64;

    /// A monitor checking both bounds of `bounds` for windows up to
    /// `k_max` (curve extrapolation covers `k` beyond the stored range).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0.
    pub fn new(bounds: &WorkloadBounds, k_max: usize) -> Result<Self, WorkloadError> {
        Self::build(Some(&bounds.upper), Some(&bounds.lower), k_max)
    }

    /// A monitor checking only the upper curve.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0.
    pub fn upper_only(gamma: &UpperWorkloadCurve, k_max: usize) -> Result<Self, WorkloadError> {
        Self::build(Some(gamma), None, k_max)
    }

    /// A monitor that checks nothing yet and only measures: it keeps the
    /// running extrema behind [`Self::measured_bounds`] until
    /// [`Self::bind`] installs bounds.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0.
    pub fn unbound(k_max: usize) -> Result<Self, WorkloadError> {
        Self::build(None, None, k_max)
    }

    fn build(
        upper: Option<&UpperWorkloadCurve>,
        lower: Option<&LowerWorkloadCurve>,
        k_max: usize,
    ) -> Result<Self, WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        let mut cum = VecDeque::with_capacity(k_max + 1);
        cum.push_back(0u128);
        Ok(Self {
            k_max,
            upper: upper.map(|u| table(k_max, |k| u.value(k))),
            lower: lower.map(|l| table(k_max, |k| l.value(k))),
            cum,
            events: 0,
            windows_checked: 0,
            total_violations: 0,
            violations: Vec::new(),
            upper_slack: vec![None; k_max],
            lower_slack: vec![None; k_max],
            scratch: Vec::new(),
            bound_at: 0,
            max_win: vec![0; k_max],
            min_win: vec![u64::MAX; k_max],
            overflowed: false,
        })
    }

    /// Installs both sides of `bounds`, checking only the windows that
    /// start after the events seen so far, as a fresh [`Self::new`]
    /// monitor created now would. Counters, violations and the running
    /// extrema are kept.
    pub fn bind(&mut self, bounds: &WorkloadBounds) {
        self.upper = Some(table(self.k_max, |k| bounds.upper.value(k)));
        self.lower = Some(table(self.k_max, |k| bounds.lower.value(k)));
        self.bound_at = self.events;
    }

    /// Swaps in refreshed bound curves **without discarding the
    /// observation window**: the ring of retained cumulative sums, event
    /// and violation counters and the running extrema all survive, so
    /// the windows closing after the rebind are still checked against
    /// `k_max` events of history.
    ///
    /// Only the sides the monitor has are replaced (an upper-only monitor
    /// stays upper-only, an unbound one stays unbound).
    pub fn rebind(&mut self, bounds: &WorkloadBounds) {
        if let Some(t) = &mut self.upper {
            *t = table(self.k_max, |k| bounds.upper.value(k));
        }
        if let Some(t) = &mut self.lower {
            *t = table(self.k_max, |k| bounds.lower.value(k));
        }
    }

    /// `γᵘ/γˡ` of the stream so far (eq. 1/2): per `k`, the largest and
    /// smallest sum of every window of `k` events since the first event,
    /// bound or not. `None` until `k_max` events have been seen.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Overflow`] once any window sum has
    /// exceeded `u64::MAX`: the curve has no `u64` value from then on.
    pub fn measured_bounds(&self) -> Result<Option<WorkloadBounds>, WorkloadError> {
        if self.overflowed {
            return Err(WorkloadError::Overflow { what: "window sum" });
        }
        if self.events < self.k_max as u64 {
            return Ok(None);
        }
        Ok(Some(WorkloadBounds {
            upper: UpperWorkloadCurve::new(self.max_win.clone())?,
            lower: LowerWorkloadCurve::new(self.min_win.clone())?,
        }))
    }

    /// Feeds one event's demand; checks every window that this event
    /// closes. Returns how many new violations the event caused.
    pub fn observe(&mut self, demand: u64) -> usize {
        let total = self.cum.back().copied().unwrap_or(0) + u128::from(demand);
        self.cum.push_back(total);
        if self.cum.len() > self.k_max + 1 {
            self.cum.pop_front();
        }
        self.events += 1;
        let mut fresh = 0usize;
        let deepest = self.k_max.min(self.cum.len() - 1);
        for k in 1..=deepest {
            let sum = total - self.cum[self.cum.len() - 1 - k];
            match u64::try_from(sum) {
                Ok(sum) => {
                    self.max_win[k - 1] = self.max_win[k - 1].max(sum);
                    self.min_win[k - 1] = self.min_win[k - 1].min(sum);
                }
                Err(_) => self.overflowed = true,
            }
            if self.events < self.bound_at + k as u64 {
                continue; // the window starts at or before the bind
            }
            if let Some(bound) = self.upper.as_ref().map(|t| t[k - 1]) {
                fresh += self.check(BoundKind::Upper, k, sum, bound);
            }
            if let Some(bound) = self.lower.as_ref().map(|t| t[k - 1]) {
                fresh += self.check(BoundKind::Lower, k, sum, bound);
            }
        }
        fresh
    }

    /// Checks the window of `k` events ending now, summing to `sum`,
    /// against one side's `bound`: counts it, tightens that side's slack
    /// and records a violation. Returns 1 if the bound broke, else 0.
    fn check(&mut self, kind: BoundKind, k: usize, sum: u128, bound: u64) -> usize {
        self.windows_checked += 1;
        let v = Violation {
            offset: self.events - k as u64 + 1,
            k,
            observed: sum,
            bound,
            kind,
        };
        let slack = v.slack();
        let entry = match kind {
            BoundKind::Upper => &mut self.upper_slack[k - 1],
            BoundKind::Lower => &mut self.lower_slack[k - 1],
        };
        *entry = Some(entry.map_or(slack, |s| s.min(slack)));
        if slack >= 0 {
            return 0;
        }
        self.total_violations += 1;
        wcm_obs::counter("monitor.violations", 1);
        if self.violations.len() < Self::VIOLATION_CAP {
            self.violations.push(v);
        }
        1
    }

    /// Feeds a batch of demands in order; returns the new violations they
    /// caused.
    ///
    /// The result and the monitor's state are exactly those of calling
    /// [`Self::observe`] per demand. Once the ring is full and `k_max`
    /// events have passed a [`Self::bind`], the demands go in blocks of
    /// up to `max(256, k_max)` through a branch-free scan (see the module
    /// docs). A block that breaks a bound while fewer than
    /// [`Self::VIOLATION_CAP`] violations are stored is replayed event by
    /// event, so the stored violations keep their order; after that its
    /// violations are counted in bulk.
    pub fn observe_all(&mut self, demands: impl IntoIterator<Item = u64>) -> usize {
        let mut demands = demands.into_iter();
        let mut fresh = 0;
        // Taken out of `self` while `observe` may run; put back below.
        let mut scratch = std::mem::take(&mut self.scratch);
        loop {
            scratch.clear();
            // The blocked scan checks every window ending in the batch:
            // each must be closed (a full ring) and start after the bind.
            if self.cum.len() <= self.k_max || self.events + 1 < self.bound_at + self.k_max as u64 {
                match demands.next() {
                    Some(d) => fresh += self.observe(d),
                    None => break,
                }
                continue;
            }
            scratch.extend(demands.by_ref().take(SCAN_BATCH.max(self.k_max)));
            let n = scratch.len();
            if n == 0 {
                break;
            }
            let bulk = if n < SCAN_MIN { None } else { self.scan_batch(&mut scratch) };
            fresh += match bulk {
                Some(broken) => broken,
                None => {
                    wcm_obs::counter("monitor.replayed_events", n as u64);
                    scratch[..n].iter().map(|&d| self.observe(d)).sum::<usize>()
                }
            };
        }
        self.scratch = scratch;
        fresh
    }

    /// The blocked exact scan of the batch in `s` on a full ring. Appends
    /// to the batch the ring plus the batch rebased into a `u64` prefix
    /// table, then takes for every `k` the largest and smallest sum of
    /// the windows that end in the batch, skipping the blocks of windows
    /// that [`Self::cuts`] shows cannot matter. If none breaks a bound,
    /// or the violation store is full, applies the batch in bulk
    /// (extrema, slack minima, counters, ring, and the windows that break
    /// a bound, counted per side in one pass per broken `k`) and returns
    /// how many windows broke a bound. Returns `None`, with the monitor
    /// untouched, when a bound breaks while the store has room or the
    /// table would overflow; the caller then replays the batch (still
    /// `s[..n]`) through [`Self::observe`].
    fn scan_batch(&mut self, s: &mut Vec<u64>) -> Option<usize> {
        let (n, k_max) = (s.len(), self.k_max);
        // The longest sizes from PRUNE_FROM on go in groups of 8 with cuts
        // (see below); the shorter ones are scanned whole.
        let long = k_max.saturating_sub(PRUNE_FROM - 1) / SIZE_GROUP * SIZE_GROUP;
        let (short, groups) = (k_max - long, long / SIZE_GROUP);
        let samples = if groups > 0 { STEPS * (n / PRUNE_BLOCK) + groups } else { 0 };
        let scratch = 2 * k_max + 2 * long + 3 * groups + 2 * samples;
        s.reserve_exact(k_max + 1 + n + scratch);
        let front = self.cum[0];
        for &c in &self.cum {
            match u64::try_from(c - front) {
                Ok(v) => s.push(v),
                Err(_) => return None,
            }
        }
        let mut acc = s[n + k_max];
        for i in 0..n {
            match acc.checked_add(s[i]) {
                Some(v) => acc = v,
                None => return None,
            }
            s.push(acc);
        }
        // s = [batch | prefix table | (max, min) per k | cuts per long k
        //      | cuts per group | table samples | flag per group]
        let table = s.len();
        s.resize(table + scratch, 0);
        let (head, rest) = s.split_at_mut(table);
        let (extremes, rest) = rest.split_at_mut(2 * k_max);
        let (cuts, rest) = rest.split_at_mut(2 * long);
        let (group_cuts, rest) = rest.split_at_mut(2 * groups);
        let (sampled, flags) = rest.split_at_mut(2 * samples);
        let p = &head[n..];
        let ends = &p[k_max + 1..];
        for (k, ext) in (1..=short).zip(extremes.chunks_exact_mut(2)) {
            let starts = &p[k_max + 1 - k..k_max + 1 - k + n];
            let (mut mx, mut mn) = (0u64, u64::MAX);
            for (h, l) in ends.iter().zip(starts) {
                let sum = h - l;
                mx = mx.max(sum);
                mn = mn.min(sum);
            }
            ext.copy_from_slice(&[mx, mn]);
        }
        // Longer windows block by block of window ends: the table is
        // non-decreasing, so every window of size k ending in a block
        // lies between `first − p[start of its last window]` and
        // `last − p[start of its first window]`, and the windows of a
        // group of 8 sizes between the group's widest such bounds. One
        // branch-free pass over the groups flags those whose windows may
        // matter; in those, each size is checked on its own bounds and
        // evaluated only if they may matter too. Sizes run from k_max
        // down (index `i` is size `k_max − i`), so that the starts are
        // read ascending.
        let (cut_max, cut_min) = cuts.split_at_mut(long);
        for (i, k) in (short + 1..=k_max).rev().enumerate() {
            extremes[2 * (k - 1)..2 * k].copy_from_slice(&[0, u64::MAX]);
            // (0, u64::MAX) skips nothing: no block of sums lies at or
            // below 0 and at or above u64::MAX at once.
            (cut_max[i], cut_min[i]) = match self.cuts(k) {
                (Some(below), Some(above)) => (below, above),
                _ => (0, u64::MAX),
            };
        }
        let (group_max, group_min) = group_cuts.split_at_mut(groups);
        for (g, (gmax, gmin)) in group_max.iter_mut().zip(group_min.iter_mut()).enumerate() {
            let sizes = g * SIZE_GROUP..(g + 1) * SIZE_GROUP;
            *gmax = cut_max[sizes.clone()].iter().copied().min().expect("a full group");
            *gmin = cut_min[sizes].iter().copied().max().expect("a full group");
        }
        // A full block `b` starts the first window of its group `g`'s
        // widest size at `p[1 + 16b + 8g]` and the last window of its
        // narrowest size at `p[23 + 16b + 8g]`: every 8th table entry
        // from 1 and from 7, read contiguously.
        let (firsts, lasts) = sampled.split_at_mut(samples);
        for (j, (a, z)) in firsts.iter_mut().zip(lasts.iter_mut()).enumerate() {
            (*a, *z) = (p[1 + SIZE_GROUP * j], p[SIZE_GROUP - 1 + SIZE_GROUP * j]);
        }
        // Without a group of long sizes there is nothing to flag.
        let blocks = if groups == 0 { 0 } else { n.div_ceil(PRUNE_BLOCK) };
        for (b, e) in ends.chunks(PRUNE_BLOCK).take(blocks).enumerate() {
            let (first, last, len) = (e[0], e[e.len() - 1], e.len());
            if len == PRUNE_BLOCK {
                let j = STEPS * b;
                let bounds = firsts[j..j + groups].iter().zip(&lasts[j + STEPS..j + STEPS + groups]);
                let cuts = group_max.iter().zip(group_min.iter());
                for (flag, ((&a, &z), (&below, &above))) in flags.iter_mut().zip(bounds.zip(cuts)) {
                    *flag = u64::from((last - a > below) | (first.saturating_sub(z) < above));
                }
            } else {
                // The batch's last, short block: every size on its own.
                flags.fill(1);
            }
            // Index in `p` of the start of the first window of k_max.
            let lo = 1 + b * PRUNE_BLOCK;
            for g in (0..groups).filter(|&g| flags[g] != 0) {
                for i in g * SIZE_GROUP..(g + 1) * SIZE_GROUP {
                    let (a, z) = (p[lo + i], p[lo + len - 1 + i]);
                    if last - a <= cut_max[i] && first.saturating_sub(z) >= cut_min[i] {
                        continue;
                    }
                    let k = k_max - i;
                    let ext = &mut extremes[2 * (k - 1)..2 * k];
                    let (mut mx, mut mn) = (ext[0], ext[1]);
                    for (h, l) in e.iter().zip(&p[lo + i..]) {
                        let sum = h - l;
                        mx = mx.max(sum);
                        mn = mn.min(sum);
                    }
                    ext.copy_from_slice(&[mx, mn]);
                }
            }
        }
        // A size whose extremum breaks a bound is counted in one more
        // branch-free pass over its windows, once the store is full;
        // before that the batch is replayed, so the stored violations
        // keep their order and fields. A side that is absent or that no
        // window breaks counts nothing in that pass.
        let full = self.violations.len() == Self::VIOLATION_CAP;
        let mut broken = 0usize;
        for (k, ext) in (1..=k_max).zip(extremes.chunks_exact(2)) {
            let above = self.upper.as_ref().map_or(u64::MAX, |t| t[k - 1]);
            let below = self.lower.as_ref().map_or(0, |t| t[k - 1]);
            if ext[0] <= above && ext[1] >= below {
                continue;
            }
            if !full {
                return None;
            }
            let starts = &p[k_max + 1 - k..k_max + 1 - k + n];
            for (h, l) in ends.iter().zip(starts) {
                let sum = h - l;
                broken += usize::from(sum > above) + usize::from(sum < below);
            }
        }
        for (k, ext) in extremes.chunks_exact(2).enumerate() {
            self.max_win[k] = self.max_win[k].max(ext[0]);
            self.min_win[k] = self.min_win[k].min(ext[1]);
            if let Some(t) = &self.upper {
                let slack = i128::from(t[k]) - i128::from(ext[0]);
                let entry = &mut self.upper_slack[k];
                *entry = Some(entry.map_or(slack, |s| s.min(slack)));
            }
            if let Some(t) = &self.lower {
                let slack = i128::from(ext[1]) - i128::from(t[k]);
                let entry = &mut self.lower_slack[k];
                *entry = Some(entry.map_or(slack, |s| s.min(slack)));
            }
        }
        let sides = u64::from(self.upper.is_some()) + u64::from(self.lower.is_some());
        self.windows_checked += sides * (n * k_max) as u64;
        self.events += n as u64;
        self.cum.clear();
        self.cum
            .extend(p[n..].iter().map(|&v| front + u128::from(v)));
        if broken > 0 {
            self.total_violations += broken as u64;
            wcm_obs::counter("monitor.violations", broken as u64);
        }
        Some(broken)
    }

    /// The windows of size `k` that [`Self::scan_batch`] may skip: sums
    /// at or below the first cut (at or above the second) change neither
    /// the running extremum nor the slack minimum and break no bound.
    /// `None` where every window counts: a bound side before its first
    /// check, or a slack past the bound. A side that skips every window
    /// keeps its identity (`0` / `u64::MAX`), and that changes nothing
    /// either: the slack it yields is no smaller than the cut's.
    fn cuts(&self, k: usize) -> (Option<u64>, Option<u64>) {
        let cut_max = match (&self.upper, self.upper_slack[k - 1]) {
            (None, _) => Some(self.max_win[k - 1]),
            (Some(_), None) => None,
            (Some(t), Some(slack)) => u64::try_from(i128::from(t[k - 1]) - slack.max(0))
                .ok()
                .map(|c| c.min(self.max_win[k - 1])),
        };
        let cut_min = match (&self.lower, self.lower_slack[k - 1]) {
            (None, _) => Some(self.min_win[k - 1]),
            (Some(_), None) => None,
            (Some(t), Some(slack)) => u64::try_from(i128::from(t[k - 1]) + slack.max(0))
                .ok()
                .map(|c| c.max(self.min_win[k - 1])),
        };
        (cut_max, cut_min)
    }

    /// Events observed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total violations so far (exact even beyond the stored cap).
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// The stored violations in stream order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no window has broken a bound yet.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Snapshot of the run so far.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            events: self.events,
            windows_checked: self.windows_checked,
            total_violations: self.total_violations,
            violations: self.violations.clone(),
            upper_slack: self.upper_slack.clone(),
            lower_slack: self.lower_slack.clone(),
        }
    }
}

/// `bound(k)` for `k = 1..=k_max`.
fn table(k_max: usize, bound: impl Fn(usize) -> crate::Cycles) -> Vec<u64> {
    (1..=k_max).map(|k| bound(k).get()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_events::window::WindowMode;
    use wcm_events::{Cycles, ExecutionInterval, Trace, TypeRegistry};

    fn alternating(n: usize) -> Vec<u64> {
        (0..n).map(|i| if i % 2 == 0 { 10 } else { 2 }).collect()
    }

    fn bounds_of(demands: &[u64], k_max: usize) -> WorkloadBounds {
        let mut reg = TypeRegistry::new();
        let evs: Vec<_> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                reg.register(format!("t{i}"), ExecutionInterval::fixed(Cycles(d)))
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(reg, evs);
        WorkloadBounds::from_trace(&trace, k_max, WindowMode::Exact).unwrap()
    }

    #[test]
    fn clean_on_the_trace_the_curve_was_built_from() {
        let demands = alternating(40);
        let bounds = bounds_of(&demands, 12);
        let mut mon = EnvelopeMonitor::new(&bounds, 12).unwrap();
        mon.observe_all(demands.iter().copied());
        assert!(mon.is_clean());
        let report = mon.report();
        assert_eq!(report.events, 40);
        assert!(report.min_upper_slack().unwrap() >= 0);
        assert!(report.min_lower_slack().unwrap() >= 0);
        // The curve is the max/min over windows of this very trace, so the
        // tightest window has exactly zero slack on each side.
        assert_eq!(report.min_upper_slack(), Some(0));
        assert_eq!(report.min_lower_slack(), Some(0));
    }

    #[test]
    fn pruned_batches_match_per_event_observe_across_rebinds() {
        // Phases of 300 low (~50) and 300 high (~200) demands: inside a
        // phase every window lies far from one running extremum and, once
        // a peak has raised the maximum, under the other, so most blocks
        // of window ends are skipped (sizes 64 to 100). Rebinding to the
        // envelope of the first half leaves slack minima from the loose
        // one that exceed the new bound, so nothing may be skipped until
        // each size is checked again. A peak then breaks every size and
        // drives its slack far below zero; a later rise breaks only the
        // sizes from about 80 on, and at sums below that peak's, so the
        // batch scan must flag it from the bound, not from the running
        // maximum.
        let k_max = 100;
        let demands: Vec<u64> = (0..6000u64)
            .map(|i| match i {
                // 63 events that set the envelope of every size below 64.
                1000..=1062 => 400,
                3500 => 40_000,
                4800..=4999 => 360,
                _ => (if (i / 300) % 2 == 0 { 50 } else { 200 }) + (i * 7919) % 23,
            })
            .collect();
        let loose = WorkloadBounds {
            upper: UpperWorkloadCurve::new((1..=k_max as u64).map(|k| 1_000_000 * k).collect()).unwrap(),
            lower: LowerWorkloadCurve::new(vec![0; k_max]).unwrap(),
        };
        let tight = bounds_of(&demands[..3000], k_max);
        for kind in 0..3 {
            let make = || match kind {
                0 => EnvelopeMonitor::new(&loose, k_max),
                1 => EnvelopeMonitor::upper_only(&loose.upper, k_max),
                _ => EnvelopeMonitor::unbound(k_max),
            };
            let (mut single, mut batched) = (make().unwrap(), make().unwrap());
            for (i, part) in demands.chunks(1000).enumerate() {
                if i == 3 {
                    single.rebind(&tight);
                    batched.rebind(&tight);
                }
                let one: usize = part.iter().map(|&d| single.observe(d)).sum();
                assert_eq!(batched.observe_all(part.iter().copied()), one, "kind {kind} part {i}");
                assert_eq!(batched.report(), single.report(), "kind {kind} part {i}");
                assert_eq!(batched.measured_bounds(), single.measured_bounds());
            }
            if kind < 2 {
                assert!(!batched.is_clean(), "kind {kind}");
            }
        }
    }

    #[test]
    fn rebind_keeps_the_observation_window() {
        let demands = alternating(40);
        let loose = WorkloadBounds {
            upper: UpperWorkloadCurve::wcet_line(Cycles(20), 8).unwrap(),
            lower: LowerWorkloadCurve::bcet_line(Cycles(0), 8).unwrap(),
        };
        let tight = bounds_of(&demands, 8);
        // Stream half under the loose envelope, rebind to the tight one
        // mid-stream, then finish. A fresh monitor bound tight from the
        // start must agree on every post-rebind verdict — that only
        // holds if the ring survives the rebind.
        let mut rebound = EnvelopeMonitor::new(&loose, 8).unwrap();
        rebound.observe_all(demands[..20].iter().copied());
        assert!(rebound.is_clean());
        rebound.rebind(&tight);
        let mut reference = EnvelopeMonitor::new(&tight, 8).unwrap();
        reference.observe_all(demands[..20].iter().copied());
        for &d in &demands[20..] {
            assert_eq!(rebound.observe(d), reference.observe(d));
        }
        assert!(rebound.is_clean());
        // And a rebind to a violated envelope fires immediately on the
        // next closing window.
        let hostile = bounds_of(&[1, 1, 1, 1, 1, 1, 1, 1], 8);
        rebound.rebind(&hostile);
        assert!(rebound.observe(10) > 0);
    }

    #[test]
    fn measured_bounds_equal_the_window_scan() {
        let demands: Vec<u64> = (0..300u64).map(|i| 20 + (i * 37) % 23 + i / 50).collect();
        let k_max = 12;
        let mut unbound = EnvelopeMonitor::unbound(k_max).unwrap();
        let mut checking =
            EnvelopeMonitor::new(&bounds_of(&alternating(30), k_max), k_max).unwrap();
        let mut at = 0;
        for piece in [1usize, 5, 7, 64, 3, 200].into_iter().cycle() {
            let end = (at + piece).min(demands.len());
            unbound.observe_all(demands[at..end].iter().copied());
            checking.observe_all(demands[at..end].iter().copied());
            let want = (end >= k_max).then(|| bounds_of(&demands[..end], k_max));
            assert_eq!(unbound.measured_bounds().unwrap(), want, "after {end}");
            assert_eq!(checking.measured_bounds().unwrap(), want, "after {end}");
            at = end;
            if at == demands.len() {
                break;
            }
        }
        assert!(unbound.is_clean());
        assert!(!checking.is_clean());
    }

    #[test]
    fn bind_checks_only_windows_that_start_after_it() {
        // Bound mid-stream, the monitor must agree with a fresh one built
        // at the same point: same violations (offsets shifted by the
        // events before the bind), same slack, same windows checked.
        let demands: Vec<u64> = (0..400u64)
            .map(|i| if i % 41 == 0 { 90 } else { 10 + (i * 13) % 7 })
            .collect();
        let tight = bounds_of(&demands[..100], 8);
        for split in [0usize, 1, 7, 100, 101, 260] {
            let mut late = EnvelopeMonitor::unbound(8).unwrap();
            late.observe_all(demands[..split].iter().copied());
            late.bind(&tight);
            let mut fresh = EnvelopeMonitor::new(&tight, 8).unwrap();
            for piece in demands[split..].chunks(37) {
                assert_eq!(
                    late.observe_all(piece.iter().copied()),
                    fresh.observe_all(piece.iter().copied()),
                    "split {split}"
                );
            }
            let (a, b) = (late.report(), fresh.report());
            assert!(b.total_violations > 0, "split {split}");
            assert_eq!(a.total_violations, b.total_violations, "split {split}");
            assert_eq!(a.windows_checked, b.windows_checked, "split {split}");
            assert_eq!(
                (a.upper_slack, a.lower_slack),
                (b.upper_slack, b.lower_slack),
                "split {split}"
            );
            let shifted: Vec<Violation> = b
                .violations
                .iter()
                .map(|v| Violation {
                    offset: v.offset + split as u64,
                    ..*v
                })
                .collect();
            assert_eq!(a.violations, shifted, "split {split}");
            // The extrema still cover the windows before the bind.
            assert_eq!(
                late.measured_bounds().unwrap(),
                Some(bounds_of(&demands, 8))
            );
        }
    }

    #[test]
    fn measured_bounds_report_an_overflowing_window_sum() {
        let mut mon = EnvelopeMonitor::unbound(2).unwrap();
        mon.observe(u64::MAX);
        assert_eq!(mon.measured_bounds(), Ok(None));
        mon.observe(1);
        assert!(matches!(
            mon.measured_bounds(),
            Err(WorkloadError::Overflow { .. })
        ));
        // Through the blocked scan too: the batch's prefix table
        // overflows, the per-event replay finds the window.
        let mut mon = EnvelopeMonitor::unbound(2).unwrap();
        mon.observe_all([1, 2, 3]);
        let huge = u64::MAX / 2;
        mon.observe_all((0..40).map(|i| if i == 30 { huge + 2 } else { huge }));
        assert!(matches!(
            mon.measured_bounds(),
            Err(WorkloadError::Overflow { .. })
        ));
    }

    #[test]
    fn flags_upper_violation_with_exact_window() {
        let demands = alternating(20);
        let bounds = bounds_of(&demands, 8);
        let mut mon = EnvelopeMonitor::new(&bounds, 8).unwrap();
        // 10,2,10 then a hostile second 10: the closing event breaks both
        // the k=2 window (10+10 = 20 > 12) and the k=4 window
        // (10+2+10+10 = 32 > 24).
        mon.observe_all([10, 2, 10, 10]);
        assert_eq!(mon.total_violations(), 2);
        let v = mon.violations()[0];
        assert_eq!(v.kind, BoundKind::Upper);
        assert_eq!(v.k, 2);
        assert_eq!(v.offset, 3);
        assert_eq!(v.observed, 20);
        assert_eq!(v.bound, 12);
        assert_eq!(v.slack(), -8);
    }

    #[test]
    fn flags_lower_violation() {
        let demands = alternating(20);
        let bounds = bounds_of(&demands, 8);
        let mut mon = EnvelopeMonitor::new(&bounds, 8).unwrap();
        // Two consecutive cheap events: γˡ(2) = 12 but observed 4.
        mon.observe_all([10, 2, 2]);
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.kind == BoundKind::Lower && v.k == 2 && v.observed == 4));
    }

    #[test]
    fn upper_only_ignores_lower_bound() {
        let demands = alternating(20);
        let bounds = bounds_of(&demands, 8);
        let mut mon = EnvelopeMonitor::upper_only(&bounds.upper, 8).unwrap();
        mon.observe_all([2, 2, 2, 2]); // starves the lower bound
        assert!(mon.is_clean());
        assert!(mon.report().lower_slack.iter().all(Option::is_none));
    }

    #[test]
    fn streaming_matches_offline_oracle() {
        // Every window of every prefix: the monitor must agree with a
        // brute-force scan.
        let demands: Vec<u64> = [3u64, 9, 1, 7, 7, 2, 8, 1, 4, 6, 6, 2].to_vec();
        let bounds = bounds_of(&alternating(30), 6);
        let mut mon = EnvelopeMonitor::new(&bounds, 6).unwrap();
        let streamed: usize = mon.observe_all(demands.iter().copied());
        let mut oracle = 0usize;
        for end in 1..=demands.len() {
            for k in 1..=6.min(end) {
                let sum: u64 = demands[end - k..end].iter().sum();
                if sum > bounds.upper.value(k).get() {
                    oracle += 1;
                }
                if sum < bounds.lower.value(k).get() {
                    oracle += 1;
                }
            }
        }
        assert_eq!(streamed, oracle);
        assert_eq!(mon.total_violations(), oracle as u64);
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let gamma = UpperWorkloadCurve::new(vec![1]).unwrap();
        let mut mon = EnvelopeMonitor::upper_only(&gamma, 1).unwrap();
        for _ in 0..200 {
            mon.observe(5);
        }
        assert_eq!(mon.total_violations(), 200);
        assert_eq!(mon.violations().len(), EnvelopeMonitor::VIOLATION_CAP);
    }

    #[test]
    fn a_full_store_counts_a_violating_batch_as_per_event_observe() {
        // γᵘ(k) = γˡ(k) = 10·k under demands 0..=20: almost every window
        // breaks one side, many sit exactly on the bound, and the store
        // fills within the first events. The 256-event batch after that
        // is counted in bulk and must agree with the per-event path.
        let line: Vec<u64> = (1..=16).map(|k| 10 * k).collect();
        let tight = WorkloadBounds {
            upper: UpperWorkloadCurve::new(line.clone()).unwrap(),
            lower: LowerWorkloadCurve::new(line).unwrap(),
        };
        let demands: Vec<u64> = (0..600u64).map(|i| (i * 7919) % 21).collect();
        let mut batched = EnvelopeMonitor::new(&tight, 16).unwrap();
        batched.observe_all(demands[..344].iter().copied());
        assert_eq!(batched.violations().len(), EnvelopeMonitor::VIOLATION_CAP);
        let mut single = batched.clone();
        let one: usize = demands[344..].iter().map(|&d| single.observe(d)).sum();
        assert_eq!(batched.observe_all(demands[344..].iter().copied()), one);
        assert!(one > 2000, "{one} violations");
        assert_eq!(batched.report(), single.report());
        assert_eq!(batched.measured_bounds(), single.measured_bounds());
    }

    #[test]
    fn k_beyond_stored_range_uses_extrapolation() {
        // Stored only to k=2, monitored to k=4: γᵘ(4) = 2·γᵘ(2) = 24.
        let gamma = UpperWorkloadCurve::new(vec![10, 12]).unwrap();
        let mut mon = EnvelopeMonitor::upper_only(&gamma, 4).unwrap();
        mon.observe_all([6, 6, 6, 6]); // sum 24 = bound, no violation
        assert!(mon.is_clean());
        mon.observe(7); // 6,6,6,7 = 25 > 24
        assert!(!mon.is_clean());
        assert!(mon.violations().iter().any(|v| v.k == 4 && v.bound == 24));
    }

    #[test]
    fn rejects_zero_k_max() {
        let gamma = UpperWorkloadCurve::new(vec![1]).unwrap();
        assert!(matches!(
            EnvelopeMonitor::upper_only(&gamma, 0),
            Err(WorkloadError::InvalidParameter { name: "k_max" })
        ));
    }

    #[test]
    fn report_slack_tracks_minimum() {
        let gamma = UpperWorkloadCurve::new(vec![10]).unwrap();
        let mut mon = EnvelopeMonitor::upper_only(&gamma, 1).unwrap();
        mon.observe_all([4, 9, 2]);
        // slacks 6, 1, 8 → min 1.
        assert_eq!(mon.report().upper_slack[0], Some(1));
    }
}
