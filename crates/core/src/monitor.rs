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
//! The scan is blocked per batch: [`EnvelopeMonitor::observe_all`]
//! rebases the full ring plus up to 256 demands into a local `u64` prefix
//! table and, for each `k`, takes the largest and smallest sum of the
//! windows ending in the batch in one branch-free loop (the shape of the
//! window scans in `wcm_events::window`). When no `k` breaks a bound,
//! the slack minima, counters and ring are updated in bulk; otherwise the
//! batch is replayed event by event, so violations are recorded in the
//! same order with the same fields. Short batches, a ring that is not yet
//! full and sums that do not fit `u64` take the per-event path. Either
//! way the [`MonitorReport`] equals that of per-event [`EnvelopeMonitor::observe`].
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

/// Most demands per blocked exact scan in [`EnvelopeMonitor::observe_all`].
const SCAN_BATCH: usize = 256;

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
    upper: Option<UpperWorkloadCurve>,
    lower: Option<LowerWorkloadCurve>,
    k_max: usize,
    /// `γᵘ(k)` for `k = 1..=k_max`, materialized once so the per-event loop
    /// reads a flat table instead of re-running curve extrapolation.
    upper_bounds: Vec<u64>,
    /// `γˡ(k)` for `k = 1..=k_max`.
    lower_bounds: Vec<u64>,
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
        Self::build(Some(bounds.upper.clone()), Some(bounds.lower.clone()), k_max)
    }

    /// A monitor checking only the upper curve.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0.
    pub fn upper_only(gamma: &UpperWorkloadCurve, k_max: usize) -> Result<Self, WorkloadError> {
        Self::build(Some(gamma.clone()), None, k_max)
    }

    /// A monitor checking only the lower curve.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0.
    pub fn lower_only(gamma: &LowerWorkloadCurve, k_max: usize) -> Result<Self, WorkloadError> {
        Self::build(None, Some(gamma.clone()), k_max)
    }

    fn build(
        upper: Option<UpperWorkloadCurve>,
        lower: Option<LowerWorkloadCurve>,
        k_max: usize,
    ) -> Result<Self, WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        let mut cum = VecDeque::with_capacity(k_max + 1);
        cum.push_back(0u128);
        let upper_bounds = upper
            .as_ref()
            .map(|u| (1..=k_max).map(|k| u.value(k).get()).collect())
            .unwrap_or_default();
        let lower_bounds = lower
            .as_ref()
            .map(|l| (1..=k_max).map(|k| l.value(k).get()).collect())
            .unwrap_or_default();
        Ok(Self {
            upper,
            lower,
            k_max,
            upper_bounds,
            lower_bounds,
            cum,
            events: 0,
            windows_checked: 0,
            total_violations: 0,
            violations: Vec::new(),
            upper_slack: vec![None; k_max],
            lower_slack: vec![None; k_max],
            scratch: Vec::new(),
        })
    }

    /// Largest window size checked.
    #[must_use]
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Swaps in refreshed bound curves **without discarding the
    /// observation window**: the ring of retained cumulative sums, event
    /// and violation counters all survive, so the windows closing after
    /// the rebind are still checked against `k_max` events of history.
    ///
    /// This is the online half of the incremental-bounds story: a
    /// [`crate::build::IncrementalBounds`] refreshes its envelope in
    /// `O(k_max)` per appended reference event, and a long-running monitor
    /// adopts the tighter envelope mid-stream instead of being rebuilt
    /// from scratch. Only the sides the monitor was constructed with are
    /// replaced (an upper-only monitor stays upper-only).
    pub fn rebind(&mut self, bounds: &WorkloadBounds) {
        if self.upper.is_some() {
            self.upper_bounds = (1..=self.k_max)
                .map(|k| bounds.upper.value(k).get())
                .collect();
            self.upper = Some(bounds.upper.clone());
        }
        if self.lower.is_some() {
            self.lower_bounds = (1..=self.k_max)
                .map(|k| bounds.lower.value(k).get())
                .collect();
            self.lower = Some(bounds.lower.clone());
        }
    }

    /// [`Self::rebind`] with a new window depth, for refreshes whose
    /// curve covers a different exact range than the monitor was built
    /// for (a spine refresh after a shorter GOP shrinks `k_max`; a
    /// longer clip grows it).
    ///
    /// Everything that is indexed by `k` is resized *before* the bound
    /// tables are rebuilt: the per-`k` slack statistics are truncated or
    /// extended and the retained ring is trimmed to `k_max + 1` entries
    /// — a shrink therefore cannot leave the scan reading windows
    /// deeper than the new curve. Counters and stored violations
    /// survive, exactly as in [`Self::rebind`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0; the
    /// monitor is left unchanged.
    pub fn rebind_with_k_max(
        &mut self,
        bounds: &WorkloadBounds,
        k_max: usize,
    ) -> Result<(), WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        if k_max != self.k_max {
            self.upper_slack.resize(k_max, None);
            self.lower_slack.resize(k_max, None);
            while self.cum.len() > k_max + 1 {
                self.cum.pop_front();
            }
            self.k_max = k_max;
        }
        self.rebind(bounds);
        Ok(())
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
            // 1-indexed first event of the window ending at `events`.
            let offset = self.events - k as u64 + 1;
            if self.upper.is_some() {
                self.windows_checked += 1;
                let bound = self.upper_bounds[k - 1];
                let slack = i128::from(bound) - sum as i128;
                let entry = &mut self.upper_slack[k - 1];
                *entry = Some(entry.map_or(slack, |s| s.min(slack)));
                if sum > u128::from(bound) {
                    fresh += 1;
                    self.record(Violation {
                        offset,
                        k,
                        observed: sum,
                        bound,
                        kind: BoundKind::Upper,
                    });
                }
            }
            if self.lower.is_some() {
                self.windows_checked += 1;
                let bound = self.lower_bounds[k - 1];
                let slack = sum as i128 - i128::from(bound);
                let entry = &mut self.lower_slack[k - 1];
                *entry = Some(entry.map_or(slack, |s| s.min(slack)));
                if sum < u128::from(bound) {
                    fresh += 1;
                    self.record(Violation {
                        offset,
                        k,
                        observed: sum,
                        bound,
                        kind: BoundKind::Lower,
                    });
                }
            }
        }
        fresh
    }

    /// Feeds a batch of demands in order; returns the new violations they
    /// caused.
    ///
    /// The result and the monitor's state are exactly those of calling
    /// [`Self::observe`] per demand. Once the ring is full, the demands
    /// go in blocks of up to 256 through a branch-free scan
    /// (see the module docs); a block that breaks a bound is replayed
    /// event by event, so the stored violations keep their order.
    pub fn observe_all(&mut self, demands: impl IntoIterator<Item = u64>) -> usize {
        let mut demands = demands.into_iter();
        let mut fresh = 0;
        // Taken out of `self` while `observe` may run; put back below.
        let mut scratch = std::mem::take(&mut self.scratch);
        loop {
            scratch.clear();
            if self.cum.len() <= self.k_max {
                match demands.next() {
                    Some(d) => fresh += self.observe(d),
                    None => break,
                }
                continue;
            }
            scratch.extend(demands.by_ref().take(SCAN_BATCH));
            let n = scratch.len();
            if n == 0 {
                break;
            }
            if n < SCAN_MIN || !self.scan_batch(&mut scratch) {
                fresh += scratch[..n].iter().map(|&d| self.observe(d)).sum::<usize>();
            }
        }
        self.scratch = scratch;
        fresh
    }

    /// The blocked exact scan of the batch in `s` on a full ring. Appends
    /// to the batch the ring plus the batch rebased into a `u64` prefix
    /// table, then takes for every `k` the largest and smallest sum of
    /// the windows that end in the batch. If none breaks a bound, applies
    /// the batch in bulk (slack minima, counters, ring) and returns
    /// `true`. Returns `false`, with the monitor untouched, when a bound
    /// breaks or the table would overflow; the caller then replays the
    /// batch (still `s[..n]`) through [`Self::observe`].
    fn scan_batch(&mut self, s: &mut Vec<u64>) -> bool {
        let (n, k_max) = (s.len(), self.k_max);
        s.reserve_exact(k_max + 1 + n + 2 * k_max);
        let front = self.cum[0];
        for &c in &self.cum {
            match u64::try_from(c - front) {
                Ok(v) => s.push(v),
                Err(_) => return false,
            }
        }
        let mut acc = s[n + k_max];
        for i in 0..n {
            match acc.checked_add(s[i]) {
                Some(v) => acc = v,
                None => return false,
            }
            s.push(acc);
        }
        // s = [batch | prefix table | (max, min) per k]
        let table = s.len();
        s.resize(table + 2 * k_max, 0);
        let (head, extremes) = s.split_at_mut(table);
        let p = &head[n..];
        let ends = &p[k_max + 1..];
        for (k, ext) in (1..=k_max).zip(extremes.chunks_exact_mut(2)) {
            let starts = &p[k_max + 1 - k..k_max + 1 - k + n];
            let (mut mx, mut mn) = (0u64, u64::MAX);
            for (h, l) in ends.iter().zip(starts) {
                let sum = h - l;
                mx = mx.max(sum);
                mn = mn.min(sum);
            }
            if (self.upper.is_some() && mx > self.upper_bounds[k - 1])
                || (self.lower.is_some() && mn < self.lower_bounds[k - 1])
            {
                return false;
            }
            ext.copy_from_slice(&[mx, mn]);
        }
        for (k, ext) in extremes.chunks_exact(2).enumerate() {
            if self.upper.is_some() {
                let slack = i128::from(self.upper_bounds[k]) - i128::from(ext[0]);
                let entry = &mut self.upper_slack[k];
                *entry = Some(entry.map_or(slack, |s| s.min(slack)));
            }
            if self.lower.is_some() {
                let slack = i128::from(ext[1]) - i128::from(self.lower_bounds[k]);
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
        true
    }

    fn record(&mut self, v: Violation) {
        self.total_violations += 1;
        wcm_obs::counter("monitor.violations", 1);
        if self.violations.len() < Self::VIOLATION_CAP {
            self.violations.push(v);
        }
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
    fn rebind_with_k_max_survives_a_shrinking_gop() {
        // A stream that opens on 12-frame GOPs and switches to 6-frame
        // GOPs: the spine refresh after the switch hands back a curve
        // covering only k ≤ 6, so the monitor must shrink its window
        // depth mid-stream. Every post-shrink verdict has to match a
        // monitor built at k = 6 that saw the same history — stale
        // slack tables or ring entries deeper than the new k_max would
        // break the agreement (or index past the rebuilt 6-entry bound
        // tables).
        let gop12: Vec<u64> = [60, 10, 10, 30, 10, 10, 30, 10, 10, 30, 10, 10]
            .repeat(2)
            .to_vec();
        let gop6: Vec<u64> = [40, 8, 8, 20, 8, 8].repeat(4).to_vec();
        let bounds12 = bounds_of(&gop12, 12);
        let bounds6 = bounds_of(&gop6, 6);
        let mut shrunk = EnvelopeMonitor::new(&bounds12, 12).unwrap();
        shrunk.observe_all(gop12.iter().copied());
        assert!(shrunk.is_clean(), "prefix under own curve");
        shrunk.rebind_with_k_max(&bounds6, 6).unwrap();
        assert_eq!(shrunk.k_max(), 6);
        assert_eq!(shrunk.report().upper_slack.len(), 6);

        let mut reference = EnvelopeMonitor::new(&bounds6, 6).unwrap();
        reference.observe_all(gop12.iter().copied());
        for (i, &d) in gop6.iter().enumerate() {
            assert_eq!(
                shrunk.observe(d),
                reference.observe(d),
                "event {i} after the shrink"
            );
        }

        // And growing back out to the original depth stays sound. The
        // shrink trimmed the ring to 6 events of history, so the grown
        // monitor must agree with a fresh k = 12 monitor seeded with
        // exactly those 6 retained events.
        shrunk.rebind_with_k_max(&bounds12, 12).unwrap();
        assert_eq!(shrunk.k_max(), 12);
        let mut wide = EnvelopeMonitor::new(&bounds12, 12).unwrap();
        wide.observe_all(gop6[gop6.len() - 6..].iter().copied());
        for (i, &d) in gop12.iter().enumerate() {
            assert_eq!(
                shrunk.observe(d),
                wide.observe(d),
                "event {i} after growing back"
            );
        }
        // k_max = 0 is rejected without touching the monitor.
        let mut mon = EnvelopeMonitor::new(&bounds12, 12).unwrap();
        assert!(mon.rebind_with_k_max(&bounds6, 0).is_err());
        assert_eq!(mon.k_max(), 12);
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
