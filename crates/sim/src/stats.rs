//! Occupancy statistics over enqueue/dequeue timestamp pairs.

/// Maximum number of items simultaneously resident, given per-item
/// enqueue and dequeue times (an item occupies `[enq, deq)`).
///
/// Ties are resolved dequeue-first (an item leaving at `t` frees its slot
/// for an item arriving at `t`), matching a FIFO whose read and write can
/// happen in the same cycle.
///
/// # Panics
///
/// Panics if the slices have different lengths or a dequeue precedes its
/// enqueue.
///
/// # Example
///
/// ```
/// use wcm_sim::stats::max_occupancy;
///
/// // Three overlapping intervals, at most 2 resident at once.
/// let enq = [0.0, 1.0, 2.5];
/// let deq = [2.0, 3.0, 4.0];
/// assert_eq!(max_occupancy(&enq, &deq), 2);
/// ```
#[must_use]
pub fn max_occupancy(enq: &[f64], deq: &[f64]) -> u64 {
    assert_eq!(enq.len(), deq.len(), "enqueue/dequeue length mismatch");
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(enq.len() * 2);
    for (&e, &d) in enq.iter().zip(deq) {
        assert!(d >= e, "dequeue before enqueue");
        events.push((e, 1));
        events.push((d, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))); // -1 before +1 at equal times
    let mut occ: i64 = 0;
    let mut max: i64 = 0;
    for (_, delta) in events {
        occ += delta;
        max = max.max(occ);
    }
    max.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(max_occupancy(&[], &[]), 0);
    }

    #[test]
    fn non_overlapping_is_one() {
        let enq = [0.0, 2.0, 4.0];
        let deq = [1.0, 3.0, 5.0];
        assert_eq!(max_occupancy(&enq, &deq), 1);
    }

    #[test]
    fn nested_intervals_stack() {
        let enq = [0.0, 1.0, 2.0];
        let deq = [10.0, 9.0, 8.0];
        assert_eq!(max_occupancy(&enq, &deq), 3);
    }

    #[test]
    fn dequeue_first_at_ties() {
        // Item leaves exactly when the next arrives: never 2 resident.
        let enq = [0.0, 1.0, 2.0];
        let deq = [1.0, 2.0, 3.0];
        assert_eq!(max_occupancy(&enq, &deq), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = max_occupancy(&[0.0], &[]);
    }

    #[test]
    #[should_panic(expected = "dequeue before enqueue")]
    fn rejects_inverted_interval() {
        let _ = max_occupancy(&[1.0], &[0.5]);
    }
}
