//! Per-layer attribution from a recorded span tree: total and self time
//! per span name, where a span's self time is its duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;

use wcm::obs::SpanRecord;

/// Time attributed to one span name over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attributed {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span, summed per span name.
pub fn attribute(spans: &[SpanRecord]) -> BTreeMap<&'static str, Attributed> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    let mut out: BTreeMap<&'static str, Attributed> = BTreeMap::new();
    for s in spans {
        let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, start, end));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns;
        e.self_ns += s.dur_ns - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            tid: 1,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_children_count_once_against_their_own_parent() {
        // root [0,100) ⊃ mid [10,60) ⊃ leaf [20,30)
        let a = attribute(&[
            span("root", 1, 0, 0, 100),
            span("mid", 2, 1, 10, 50),
            span("leaf", 3, 2, 20, 10),
        ]);
        assert_eq!(a["root"].self_ns, 50);
        assert_eq!(a["mid"].self_ns, 40);
        assert_eq!(a["leaf"].self_ns, 10);
        let sum: u64 = a.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, a["root"].total_ns);
    }

    #[test]
    fn back_to_back_and_repeated_children() {
        // Two children that touch end to start, and a repeated name.
        let a = attribute(&[
            span("root", 1, 0, 0, 100),
            span("decode", 2, 1, 0, 40),
            span("scan", 3, 1, 40, 40),
            span("root", 4, 0, 200, 10),
            span("decode", 5, 4, 200, 10),
        ]);
        assert_eq!(a["root"].count, 2);
        assert_eq!(a["root"].total_ns, 110);
        assert_eq!(a["root"].self_ns, 20);
        assert_eq!(a["decode"].self_ns, 50);
        assert_eq!(a["scan"].self_ns, 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_never_go_negative() {
        // Children overlap each other and one runs past its parent's end.
        let a = attribute(&[
            span("root", 1, 0, 100, 100),
            span("x", 2, 1, 110, 50),
            span("y", 3, 1, 150, 80),
        ]);
        // Covered: [110, 200) = 90 of the parent's 100.
        assert_eq!(a["root"].self_ns, 10);
    }
}
