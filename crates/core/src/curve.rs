//! The workload-curve types of Def. 1.
//!
//! An upper workload curve `γᵘ(k)` bounds from above the cycles consumed by
//! any `k` consecutive task activations; a lower curve `γˡ(k)` bounds them
//! from below. Both are stored as dense sequences over `k = 1 ..= k_max` and
//! extended soundly beyond `k_max` using sub-/super-additivity:
//!
//! * `γᵘ(k₁ + k₂) ≤ γᵘ(k₁) + γᵘ(k₂)` — a window of `k₁+k₂` events splits
//!   into adjacent windows of `k₁` and `k₂` events, each individually
//!   bounded; hence `γᵘ(q·K + r) ≤ q·γᵘ(K) + γᵘ(r)` is a valid upper value.
//! * dually `γˡ(q·K + r) ≥ q·γˡ(K) + γˡ(r)` is a valid lower value.

use crate::WorkloadError;
use wcm_events::window::WindowMode;
use wcm_events::{Cycles, Trace};

fn validate_monotone(values: &[u64]) -> Result<(), WorkloadError> {
    if values.is_empty() {
        return Err(WorkloadError::Empty);
    }
    for (i, w) in values.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(WorkloadError::NotMonotone { k: i + 2 });
        }
    }
    Ok(())
}

/// Splits `k > k_max` into `q·k_max + r` with `r ∈ [0, k_max)`.
fn split(k: usize, k_max: usize) -> (u64, usize) {
    ((k / k_max) as u64, k % k_max)
}

/// Upper workload curve `γᵘ(k)` (Def. 1, eq. 1).
///
/// # Example
///
/// ```
/// use wcm_core::{Cycles, UpperWorkloadCurve};
///
/// # fn main() -> Result<(), wcm_core::WorkloadError> {
/// // One expensive activation (10) can occur at most once per 3 events.
/// let gamma = UpperWorkloadCurve::new(vec![10, 12, 14])?;
/// assert_eq!(gamma.value(1), Cycles(10));
/// assert_eq!(gamma.value(3), Cycles(14));
/// // Extrapolation: γᵘ(7) ≤ 2·γᵘ(3) + γᵘ(1) = 38.
/// assert_eq!(gamma.value(7), Cycles(38));
/// // Pseudo-inverse: how many events fit into 25 cycles?
/// assert_eq!(gamma.pseudo_inverse(25.0), 4); // γᵘ(4) = 24 ≤ 25 < γᵘ(5) = 26
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UpperWorkloadCurve {
    values: Vec<u64>,
}

impl UpperWorkloadCurve {
    /// Creates a curve from `values[k−1] = γᵘ(k)`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Empty`] for an empty vector and
    /// [`WorkloadError::NotMonotone`] if the values decrease.
    pub fn new(values: Vec<u64>) -> Result<Self, WorkloadError> {
        validate_monotone(&values)?;
        Ok(Self { values })
    }

    /// The classic WCET-only characterization `γᵘ(k) = w·k` (the pessimistic
    /// baseline the paper improves upon).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0, and
    /// [`WorkloadError::Overflow`] if `k_max · wcet` exceeds `u64::MAX`.
    pub fn wcet_line(wcet: Cycles, k_max: usize) -> Result<Self, WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        let values = (1..=k_max as u64)
            .map(|k| {
                k.checked_mul(wcet.get())
                    .ok_or(WorkloadError::Overflow { what: "k·WCET" })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { values })
    }

    /// Builds the curve from a measured trace:
    /// `γᵘ(k) = max_j γ_w(j, k)` over all windows of the trace (eq. 1).
    ///
    /// # Errors
    ///
    /// Propagates window-analysis parameter errors.
    pub fn from_trace(trace: &Trace, k_max: usize, mode: WindowMode) -> Result<Self, WorkloadError> {
        let demands: Vec<u64> = trace.worst_demands().iter().map(|c| c.get()).collect();
        let values = wcm_events::window::max_window_sums(&demands, k_max, mode)?;
        Self::new(values)
    }

    /// Largest `k` stored exactly.
    #[must_use]
    pub fn k_max(&self) -> usize {
        self.values.len()
    }

    /// The stored values (`values()[k−1] = γᵘ(k)`).
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// `γᵘ(k)` for any `k ≥ 0`, with sub-additive extrapolation beyond
    /// `k_max`. `γᵘ(0) = 0`.
    #[must_use]
    pub fn value(&self, k: usize) -> Cycles {
        if k == 0 {
            return Cycles::ZERO;
        }
        if k <= self.values.len() {
            return Cycles(self.values[k - 1]);
        }
        let k_max = self.values.len();
        let (q, r) = split(k, k_max);
        let rest = if r == 0 { 0 } else { self.values[r - 1] };
        Cycles(q * self.values[k_max - 1] + rest)
    }

    /// The per-activation worst case `γᵘ(1)` — the `w` of eq. 10.
    #[must_use]
    pub fn wcet(&self) -> Cycles {
        Cycles(self.values[0])
    }

    /// Long-run cycles per event of the extrapolation, `γᵘ(k_max)/k_max`.
    #[must_use]
    pub fn tail_cycles_per_event(&self) -> f64 {
        self.values[self.values.len() - 1] as f64 / self.values.len() as f64
    }

    /// Upper pseudo-inverse `γᵘ⁻¹(e) = max { k ≥ 0 : γᵘ(k) ≤ e }`
    /// (Sec. 2.1): the number of activations guaranteed to complete within
    /// `e` available cycles.
    ///
    /// Saturates at `u64::MAX` for degenerate all-zero curves.
    #[must_use]
    pub fn pseudo_inverse(&self, e: f64) -> u64 {
        if e < self.values[0] as f64 {
            return 0;
        }
        if self.values[self.values.len() - 1] == 0 {
            return u64::MAX; // zero demand: any number of events fits
        }
        // Exponential search for an upper bracket, then binary search.
        let mut hi: usize = self.values.len();
        while (self.value(hi).get() as f64) <= e {
            if hi > usize::MAX / 2 {
                return u64::MAX;
            }
            hi *= 2;
        }
        let mut lo: usize = 0;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.value(mid).get() as f64) <= e {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }

    /// Workload curve of the **OR-activation** (merge) of two event
    /// streams feeding the same task: any `k` consecutive activations of
    /// the merged stream split into `i` from one source and `k − i` from
    /// the other, so
    /// `γᵘ_∨(k) = max_{i+j=k} ( γᵘ₁(i) + γᵘ₂(j) )` — the discrete max-plus
    /// convolution of the curves. Covers every interleaving.
    ///
    /// The result spans the sum of the stored ranges.
    ///
    /// # Example
    ///
    /// ```
    /// use wcm_core::UpperWorkloadCurve;
    ///
    /// # fn main() -> Result<(), wcm_core::WorkloadError> {
    /// let video = UpperWorkloadCurve::new(vec![10, 12])?;
    /// let audio = UpperWorkloadCurve::new(vec![4, 8])?;
    /// let merged = video.or_merge(&audio);
    /// // Worst 2 events: both video-expensive? No — γᵘ_v(2)=12 vs
    /// // γᵘ_v(1)+γᵘ_a(1)=14: the mix is worse.
    /// assert_eq!(merged.values()[1], 14);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn or_merge(&self, other: &UpperWorkloadCurve) -> UpperWorkloadCurve {
        let n = self.values.len() + other.values.len();
        let mut out = Vec::with_capacity(n);
        for k in 1..=n {
            let mut best = 0u64;
            for i in 0..=k {
                // value() extrapolates soundly beyond each stored range.
                best = best.max(self.value(i).get() + other.value(k - i).get());
            }
            out.push(best);
        }
        UpperWorkloadCurve { values: out }
    }

    /// Pointwise maximum with another curve (e.g. across measured clips);
    /// the result covers the common `k` range.
    ///
    /// # Example
    ///
    /// ```
    /// use wcm_core::UpperWorkloadCurve;
    ///
    /// # fn main() -> Result<(), wcm_core::WorkloadError> {
    /// let a = UpperWorkloadCurve::new(vec![5, 8])?;
    /// let b = UpperWorkloadCurve::new(vec![4, 9, 12])?;
    /// assert_eq!(a.max_merge(&b).values(), &[5, 9]);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn max_merge(&self, other: &UpperWorkloadCurve) -> UpperWorkloadCurve {
        let n = self.values.len().min(other.values.len());
        UpperWorkloadCurve {
            values: (0..n)
                .map(|i| self.values[i].max(other.values[i]))
                .collect(),
        }
    }
}

/// Lower workload curve `γˡ(k)` (Def. 1, eq. 2).
///
/// # Example
///
/// ```
/// use wcm_core::{Cycles, LowerWorkloadCurve};
///
/// # fn main() -> Result<(), wcm_core::WorkloadError> {
/// let gamma = LowerWorkloadCurve::new(vec![2, 5, 9])?;
/// assert_eq!(gamma.value(1), Cycles(2));
/// // Extrapolation: γˡ(7) ≥ 2·γˡ(3) + γˡ(1) = 20.
/// assert_eq!(gamma.value(7), Cycles(20));
/// assert_eq!(gamma.pseudo_inverse(6.0), Some(3)); // first k with γˡ(k) ≥ 6
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LowerWorkloadCurve {
    values: Vec<u64>,
}

impl LowerWorkloadCurve {
    /// Creates a curve from `values[k−1] = γˡ(k)`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Empty`] for an empty vector and
    /// [`WorkloadError::NotMonotone`] if the values decrease.
    pub fn new(values: Vec<u64>) -> Result<Self, WorkloadError> {
        validate_monotone(&values)?;
        Ok(Self { values })
    }

    /// The classic BCET-only characterization `γˡ(k) = b·k`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0, and
    /// [`WorkloadError::Overflow`] if `k_max · bcet` exceeds `u64::MAX`.
    pub fn bcet_line(bcet: Cycles, k_max: usize) -> Result<Self, WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        let values = (1..=k_max as u64)
            .map(|k| {
                k.checked_mul(bcet.get())
                    .ok_or(WorkloadError::Overflow { what: "k·BCET" })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { values })
    }

    /// Builds the curve from a measured trace:
    /// `γˡ(k) = min_j γ_b(j, k)` (eq. 2).
    ///
    /// # Errors
    ///
    /// Propagates window-analysis parameter errors.
    pub fn from_trace(trace: &Trace, k_max: usize, mode: WindowMode) -> Result<Self, WorkloadError> {
        let demands: Vec<u64> = trace.best_demands().iter().map(|c| c.get()).collect();
        let values = wcm_events::window::min_window_sums(&demands, k_max, mode)?;
        Self::new(values)
    }

    /// Largest `k` stored exactly.
    #[must_use]
    pub fn k_max(&self) -> usize {
        self.values.len()
    }

    /// The stored values.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// `γˡ(k)` for any `k ≥ 0`, with super-additive extrapolation.
    #[must_use]
    pub fn value(&self, k: usize) -> Cycles {
        if k == 0 {
            return Cycles::ZERO;
        }
        if k <= self.values.len() {
            return Cycles(self.values[k - 1]);
        }
        let k_max = self.values.len();
        let (q, r) = split(k, k_max);
        let rest = if r == 0 { 0 } else { self.values[r - 1] };
        Cycles(q * self.values[k_max - 1] + rest)
    }

    /// The per-activation best case `γˡ(1)`.
    #[must_use]
    pub fn bcet(&self) -> Cycles {
        Cycles(self.values[0])
    }

    /// Lower pseudo-inverse `γˡ⁻¹(e) = min { k : γˡ(k) ≥ e }`: the largest
    /// number of activations that may be necessary before `e` cycles of
    /// demand are guaranteed to have accumulated.
    ///
    /// Returns `None` if the curve never reaches `e` (flat zero curve).
    #[must_use]
    pub fn pseudo_inverse(&self, e: f64) -> Option<u64> {
        if e <= 0.0 {
            return Some(0);
        }
        if self.values[self.values.len() - 1] == 0 {
            return None;
        }
        let mut hi: usize = self.values.len();
        while (self.value(hi).get() as f64) < e {
            hi *= 2;
        }
        let mut lo: usize = 0;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.value(mid).get() as f64) >= e {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi as u64)
    }

    /// The largest event count whose guaranteed demand fits in `e` cycles:
    /// `max { k ≥ 0 : γˡ(k) ≤ e }` — the converse question to
    /// [`LowerWorkloadCurve::pseudo_inverse`], used to bound how many
    /// *output* events at most `e` processed cycles can correspond to.
    ///
    /// Saturates at `u64::MAX` for degenerate all-zero curves.
    #[must_use]
    pub fn count_within(&self, e: f64) -> u64 {
        if e < self.values[0] as f64 {
            return 0;
        }
        if self.values[self.values.len() - 1] == 0 {
            return u64::MAX;
        }
        let mut hi: usize = self.values.len();
        while (self.value(hi).get() as f64) <= e {
            if hi > usize::MAX / 2 {
                return u64::MAX;
            }
            hi *= 2;
        }
        let mut lo: usize = 0;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.value(mid).get() as f64) <= e {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }

    /// Lower workload curve of the **OR-activation** of two streams:
    /// `γˡ_∨(k) = min_{i+j=k} ( γˡ₁(i) + γˡ₂(j) )` — the discrete min-plus
    /// convolution (see [`UpperWorkloadCurve::or_merge`] for the split
    /// argument).
    #[must_use]
    pub fn or_merge(&self, other: &LowerWorkloadCurve) -> LowerWorkloadCurve {
        let n = self.values.len() + other.values.len();
        let mut out = Vec::with_capacity(n);
        for k in 1..=n {
            let mut best = u64::MAX;
            for i in 0..=k {
                best = best.min(self.value(i).get() + other.value(k - i).get());
            }
            out.push(best);
        }
        LowerWorkloadCurve { values: out }
    }

    /// Pointwise minimum with another curve, over the common `k` range.
    #[must_use]
    pub fn min_merge(&self, other: &LowerWorkloadCurve) -> LowerWorkloadCurve {
        let n = self.values.len().min(other.values.len());
        LowerWorkloadCurve {
            values: (0..n)
                .map(|i| self.values[i].min(other.values[i]))
                .collect(),
        }
    }
}

impl std::fmt::Display for UpperWorkloadCurve {
    /// Shows the first values and the stored range, e.g.
    /// `γᵘ[k≤6]: 10 12 22 24 …`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "γᵘ[k≤{}]:", self.values.len())?;
        for v in self.values.iter().take(8) {
            write!(f, " {v}")?;
        }
        if self.values.len() > 8 {
            write!(f, " …")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for LowerWorkloadCurve {
    /// Shows the first values and the stored range, e.g.
    /// `γˡ[k≤6]: 2 12 14 …`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "γˡ[k≤{}]:", self.values.len())?;
        for v in self.values.iter().take(8) {
            write!(f, " {v}")?;
        }
        if self.values.len() > 8 {
            write!(f, " …")?;
        }
        Ok(())
    }
}

/// The `(γᵘ, γˡ)` pair characterizing one task.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WorkloadBounds {
    /// Upper workload curve.
    pub upper: UpperWorkloadCurve,
    /// Lower workload curve.
    pub lower: LowerWorkloadCurve,
}

impl WorkloadBounds {
    /// Builds both curves from one trace and checks `γˡ ≤ γᵘ`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; returns
    /// [`WorkloadError::NotMonotone`] never for valid traces (window sums
    /// are monotone by construction).
    pub fn from_trace(
        trace: &Trace,
        k_max: usize,
        mode: WindowMode,
    ) -> Result<Self, WorkloadError> {
        let upper = UpperWorkloadCurve::from_trace(trace, k_max, mode)?;
        let lower = LowerWorkloadCurve::from_trace(trace, k_max, mode)?;
        Ok(Self { upper, lower })
    }

    /// Merges bounds across several traces (max of uppers, min of lowers) —
    /// how the paper combines its 14 video clips into Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Empty`] if `all` is empty.
    pub fn merge_all(all: &[WorkloadBounds]) -> Result<Self, WorkloadError> {
        let first = all.first().ok_or(WorkloadError::Empty)?;
        let mut upper = first.upper.clone();
        let mut lower = first.lower.clone();
        for b in &all[1..] {
            upper = upper.max_merge(&b.upper);
            lower = lower.min_merge(&b.lower);
        }
        Ok(Self { upper, lower })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_events::{ExecutionInterval, TypeRegistry};

    fn alternating_trace(n: usize) -> Trace {
        let mut reg = TypeRegistry::new();
        let hi = reg
            .register("hi", ExecutionInterval::fixed(Cycles(10)))
            .unwrap();
        let lo = reg
            .register("lo", ExecutionInterval::fixed(Cycles(2)))
            .unwrap();
        let evs = (0..n).map(|i| if i % 2 == 0 { hi } else { lo }).collect();
        Trace::new(reg, evs)
    }

    #[test]
    fn construction_validates() {
        assert!(UpperWorkloadCurve::new(vec![]).is_err());
        assert!(UpperWorkloadCurve::new(vec![5, 3]).is_err());
        assert!(LowerWorkloadCurve::new(vec![5, 3]).is_err());
        assert!(UpperWorkloadCurve::new(vec![3, 3, 4]).is_ok()); // flat steps allowed
    }

    #[test]
    fn value_zero_is_zero() {
        let g = UpperWorkloadCurve::new(vec![4, 7]).unwrap();
        assert_eq!(g.value(0), Cycles::ZERO);
        let l = LowerWorkloadCurve::new(vec![1, 3]).unwrap();
        assert_eq!(l.value(0), Cycles::ZERO);
    }

    #[test]
    fn alternating_trace_curves() {
        let t = alternating_trace(10);
        let b = WorkloadBounds::from_trace(&t, 6, WindowMode::Exact).unwrap();
        // γᵘ: 10, 12, 22, 24, 34, 36 — at most ⌈k/2⌉ expensive events.
        assert_eq!(b.upper.values(), &[10, 12, 22, 24, 34, 36]);
        // γˡ: 2, 12, 14, 24, 26, 36.
        assert_eq!(b.lower.values(), &[2, 12, 14, 24, 26, 36]);
        assert_eq!(b.upper.wcet(), Cycles(10));
        assert_eq!(b.lower.bcet(), Cycles(2));
    }

    #[test]
    fn upper_extension_is_subadditive_bound() {
        let t = alternating_trace(20);
        let full = UpperWorkloadCurve::from_trace(&t, 15, WindowMode::Exact).unwrap();
        let short = UpperWorkloadCurve::from_trace(&t, 4, WindowMode::Exact).unwrap();
        for k in 5..=15 {
            assert!(
                short.value(k) >= full.value(k),
                "extension below exact at k={k}: {:?} < {:?}",
                short.value(k),
                full.value(k)
            );
        }
    }

    #[test]
    fn lower_extension_is_superadditive_bound() {
        let t = alternating_trace(20);
        let full = LowerWorkloadCurve::from_trace(&t, 15, WindowMode::Exact).unwrap();
        let short = LowerWorkloadCurve::from_trace(&t, 4, WindowMode::Exact).unwrap();
        for k in 5..=15 {
            assert!(
                short.value(k) <= full.value(k),
                "extension above exact at k={k}"
            );
        }
    }

    #[test]
    fn extension_exact_multiples() {
        let g = UpperWorkloadCurve::new(vec![10, 12]).unwrap();
        assert_eq!(g.value(4), Cycles(24)); // 2·γᵘ(2)
        assert_eq!(g.value(5), Cycles(34)); // 2·γᵘ(2) + γᵘ(1)
    }

    #[test]
    fn wcet_line_is_linear_and_dominates_trace_curve() {
        let t = alternating_trace(12);
        let g = UpperWorkloadCurve::from_trace(&t, 8, WindowMode::Exact).unwrap();
        let line = UpperWorkloadCurve::wcet_line(g.wcet(), 8).unwrap();
        for k in 1..=8 {
            assert!(line.value(k) >= g.value(k));
        }
        assert_eq!(line.value(8), Cycles(80));
    }

    #[test]
    fn reference_lines_report_overflow() {
        // 3 · (u64::MAX / 2) wraps: must be an error, not a bogus curve.
        let huge = Cycles(u64::MAX / 2);
        assert_eq!(
            UpperWorkloadCurve::wcet_line(huge, 3).unwrap_err(),
            WorkloadError::Overflow { what: "k·WCET" }
        );
        assert_eq!(
            LowerWorkloadCurve::bcet_line(huge, 3).unwrap_err(),
            WorkloadError::Overflow { what: "k·BCET" }
        );
        // 2 · (u64::MAX / 2) still fits.
        assert!(UpperWorkloadCurve::wcet_line(huge, 2).is_ok());
        assert!(LowerWorkloadCurve::bcet_line(huge, 2).is_ok());
    }

    #[test]
    fn from_trace_is_worker_count_invariant() {
        use wcm_events::window::Parallelism;
        let t = alternating_trace(40);
        let bounds = |par: Parallelism| {
            par.scope(|| WorkloadBounds::from_trace(&t, 20, WindowMode::Exact).unwrap())
        };
        let seq = bounds(Parallelism::Seq);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4), Parallelism::Auto] {
            assert_eq!(
                bounds(par),
                seq,
                "bounds differ under {par:?}"
            );
        }
    }

    #[test]
    fn pseudo_inverse_upper_properties() {
        let g = UpperWorkloadCurve::new(vec![10, 12, 22, 24]).unwrap();
        assert_eq!(g.pseudo_inverse(0.0), 0);
        assert_eq!(g.pseudo_inverse(9.9), 0);
        assert_eq!(g.pseudo_inverse(10.0), 1);
        assert_eq!(g.pseudo_inverse(21.9), 2);
        assert_eq!(g.pseudo_inverse(22.0), 3);
        // Beyond stored range: γᵘ(5) = 34, γᵘ(6) = 36.
        assert_eq!(g.pseudo_inverse(35.0), 5);
        // Galois property: γᵘ(k) ≤ e ⇔ k ≤ γᵘ⁻¹(e).
        for e in [0.0, 5.0, 12.0, 23.0, 100.0, 1000.0] {
            let k_inv = g.pseudo_inverse(e);
            assert!(g.value(k_inv as usize).get() as f64 <= e || k_inv == 0);
            assert!(g.value(k_inv as usize + 1).get() as f64 > e);
        }
    }

    #[test]
    fn pseudo_inverse_upper_degenerate_zero_curve() {
        let g = UpperWorkloadCurve::new(vec![0, 0]).unwrap();
        assert_eq!(g.pseudo_inverse(1.0), u64::MAX);
    }

    #[test]
    fn pseudo_inverse_lower_properties() {
        let l = LowerWorkloadCurve::new(vec![2, 12, 14]).unwrap();
        assert_eq!(l.pseudo_inverse(0.0), Some(0));
        assert_eq!(l.pseudo_inverse(1.0), Some(1));
        assert_eq!(l.pseudo_inverse(2.0), Some(1));
        assert_eq!(l.pseudo_inverse(3.0), Some(2));
        assert_eq!(l.pseudo_inverse(13.0), Some(3));
        // Beyond range: γˡ(4) = 16, γˡ(5) = 26.
        assert_eq!(l.pseudo_inverse(20.0), Some(5));
        let flat = LowerWorkloadCurve::new(vec![0, 0]).unwrap();
        assert_eq!(flat.pseudo_inverse(1.0), None);
    }

    #[test]
    fn inverse_roundtrip_identity() {
        // γᵘ⁻¹(γᵘ(k)) = k for strictly increasing curves (Sec. 2.1).
        let g = UpperWorkloadCurve::new(vec![3, 7, 11, 16]).unwrap();
        for k in 1..=10usize {
            assert_eq!(g.pseudo_inverse(g.value(k).get() as f64), k as u64);
        }
        let l = LowerWorkloadCurve::new(vec![2, 5, 9, 14]).unwrap();
        for k in 1..=10usize {
            assert_eq!(l.pseudo_inverse(l.value(k).get() as f64), Some(k as u64));
        }
    }

    #[test]
    fn merge_across_traces() {
        let a = UpperWorkloadCurve::new(vec![5, 8, 10]).unwrap();
        let b = UpperWorkloadCurve::new(vec![4, 9]).unwrap();
        assert_eq!(a.max_merge(&b).values(), &[5, 9]);
        let la = LowerWorkloadCurve::new(vec![2, 4, 6]).unwrap();
        let lb = LowerWorkloadCurve::new(vec![3, 3]).unwrap();
        assert_eq!(la.min_merge(&lb).values(), &[2, 3]);
    }

    #[test]
    fn merge_all_matches_pairwise() {
        let t1 = alternating_trace(10);
        let t2 = alternating_trace(14);
        let b1 = WorkloadBounds::from_trace(&t1, 6, WindowMode::Exact).unwrap();
        let b2 = WorkloadBounds::from_trace(&t2, 6, WindowMode::Exact).unwrap();
        let merged = WorkloadBounds::merge_all(&[b1.clone(), b2.clone()]).unwrap();
        assert_eq!(merged.upper, b1.upper.max_merge(&b2.upper));
        assert!(WorkloadBounds::merge_all(&[]).is_err());
    }

    #[test]
    fn tail_rate() {
        let g = UpperWorkloadCurve::new(vec![10, 12, 22, 24]).unwrap();
        assert!((g.tail_cycles_per_event() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn or_merge_upper_covers_every_interleaving() {
        // Streams A (10,2 alternating) and B (fixed 5): brute-force all
        // binary interleavings of short prefixes.
        let a = [10u64, 2, 10, 2];
        let b = [5u64, 5, 5, 5];
        let trace = |vals: &[u64]| {
            let mut reg = wcm_events::TypeRegistry::new();
            let evs: Vec<_> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    reg.register(format!("t{i}"), wcm_events::ExecutionInterval::fixed(Cycles(v)))
                        .unwrap()
                })
                .collect();
            Trace::new(reg, evs)
        };
        let ga = UpperWorkloadCurve::from_trace(&trace(&a), 4, WindowMode::Exact).unwrap();
        let gb = UpperWorkloadCurve::from_trace(&trace(&b), 4, WindowMode::Exact).unwrap();
        let merged = ga.or_merge(&gb);
        // Enumerate all interleavings by bitmask.
        for mask in 0u32..256 {
            let mut ai = 0usize;
            let mut bi = 0usize;
            let mut seq = Vec::new();
            for bit in 0..8 {
                if (mask >> bit) & 1 == 0 {
                    if ai < a.len() {
                        seq.push(a[ai]);
                        ai += 1;
                    }
                } else if bi < b.len() {
                    seq.push(b[bi]);
                    bi += 1;
                }
            }
            for k in 1..=seq.len().min(8) {
                for w in seq.windows(k) {
                    let sum: u64 = w.iter().sum();
                    assert!(
                        sum <= merged.value(k).get(),
                        "interleaving {mask:08b}: window of {k} = {sum} exceeds {}",
                        merged.value(k).get()
                    );
                }
            }
        }
    }

    #[test]
    fn or_merge_lower_is_below_both() {
        let a = LowerWorkloadCurve::new(vec![3, 6, 9]).unwrap();
        let b = LowerWorkloadCurve::new(vec![1, 5, 9]).unwrap();
        let m = a.or_merge(&b);
        // γˡ_∨(k) ≤ min(γˡ₁(k), γˡ₂(k)) — taking all events from one source
        // is one admissible split.
        for k in 1..=6usize {
            assert!(m.value(k) <= a.value(k).min(b.value(k)));
        }
        // And the mixed split binds: γˡ_∨(2) = γˡa(1)+γˡb(0)… = min incl. 3+1.
        assert_eq!(m.value(2), Cycles(4));
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let g = UpperWorkloadCurve::new((1..=20).map(|k| 3 * k).collect()).unwrap();
        let s = g.to_string();
        assert!(s.starts_with("γᵘ[k≤20]:"));
        assert!(s.ends_with('…'));
        let l = LowerWorkloadCurve::new(vec![1, 2]).unwrap();
        assert_eq!(l.to_string(), "γˡ[k≤2]: 1 2");
    }

    #[test]
    fn strided_trace_curve_stays_sound() {
        let t = alternating_trace(40);
        let exact = UpperWorkloadCurve::from_trace(&t, 30, WindowMode::Exact).unwrap();
        let strided = UpperWorkloadCurve::from_trace(
            &t,
            30,
            WindowMode::Strided {
                exact_upto: 5,
                stride: 8,
            },
        )
        .unwrap();
        for k in 1..=30 {
            assert!(strided.value(k) >= exact.value(k), "k={k}");
        }
    }
}
