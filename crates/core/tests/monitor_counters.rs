//! The envelope monitor's counters (`monitor.replayed_events`,
//! `monitor.violations`). One test in its own binary: the recorder is
//! process-global, so no other test may run a monitor while this one
//! counts.

use wcm_core::monitor::EnvelopeMonitor;
use wcm_core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};

#[test]
fn a_full_store_replays_no_violating_batch() {
    // γᵘ(k) = γˡ(k) = 10·k: 300 demands of 10 sit exactly on it, then
    // under demands 0..=20 almost every window breaks one side.
    let k_max = 16;
    let line: Vec<u64> = (1..=k_max as u64).map(|k| 10 * k).collect();
    let tight = WorkloadBounds {
        upper: UpperWorkloadCurve::new(line.clone()).unwrap(),
        lower: LowerWorkloadCurve::new(line).unwrap(),
    };
    let demands: Vec<u64> = (0..784u64)
        .map(|i| if i < 300 { 10 } else { (i * 7919) % 21 })
        .collect();
    let mut mon = EnvelopeMonitor::new(&tight, k_max).unwrap();
    let rec = wcm_obs::mem();
    rec.reset();
    wcm_obs::set_enabled(true);
    // The first 16 events fill the ring one by one, and the next 256 are
    // a clean batch. The 256 after those break a bound while the store
    // has room, so they are replayed; the store fills among them.
    mon.observe_all(demands[..528].iter().copied());
    let before = rec.snapshot();
    assert_eq!(mon.violations().len(), EnvelopeMonitor::VIOLATION_CAP);
    assert_eq!(before.counter("monitor.replayed_events"), 256);
    // A violating 256-event batch on a full store stays in bulk.
    let fresh = mon.observe_all(demands[528..].iter().copied());
    wcm_obs::set_enabled(false);
    let after = rec.snapshot();
    assert!(fresh > 1000, "{fresh} violations");
    assert_eq!(after.counter("monitor.replayed_events"), 256);
    assert_eq!(
        after.counter("monitor.violations") - before.counter("monitor.violations"),
        fresh as u64
    );
    assert_eq!(after.counter("monitor.violations"), mon.total_violations());

    // Switched off, the monitor counts nothing.
    rec.reset();
    mon.observe_all(demands.iter().copied());
    assert_eq!(rec.snapshot().counter("monitor.violations"), 0);
}
