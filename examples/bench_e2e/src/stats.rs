//! Sample statistics and the regression rule shared by every workload.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Quantile `q ∈ [0, 1]` of `samples` by linear interpolation between
/// the two closest ranks (the common "type 7" definition). 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles a latency tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support:
/// at least ten samples must lie beyond it. `None` when not even the
/// median is supported (fewer than 20 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Whether `new` is worse than `base` by more than `bound`, a share of
/// `base`, in the metric's `better` direction.
pub fn regressed(base: f64, new: f64, bound: f64, better: Better) -> bool {
    match better {
        Better::Lower => new > base * (1.0 + bound),
        Better::Higher => new < base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 91.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10 % worse is the edge, just past it regresses.
        assert!(!regressed(100.0, 110.0, 0.10, Better::Lower));
        assert!(regressed(100.0, 110.5, 0.10, Better::Lower));
        assert!(!regressed(100.0, 50.0, 0.10, Better::Lower));
        // Higher is better.
        assert!(!regressed(100.0, 90.0, 0.10, Better::Higher));
        assert!(regressed(100.0, 89.5, 0.10, Better::Higher));
        assert!(!regressed(100.0, 200.0, 0.10, Better::Higher));
    }
}
