//! Golden outputs of the stream fault injector.
//!
//! Each test fixes a seed, a plan and an input trace and asserts the exact
//! report plus an FNV-1a digest of the faulted trace. A change to the
//! per-injector seed derivation, the draw order or any injector arm shows
//! up here as a changed digest, so refactors of the injector core must
//! keep these passing unchanged.

use wcm_events::faults::{StreamFaultPlan, StreamFaultReport, StreamInjector};
use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, Trace, TypeRegistry};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn trace(n: usize) -> Trace {
    let mut reg = TypeRegistry::new();
    let types: Vec<_> = (0..4u64)
        .map(|i| {
            reg.register(format!("t{i}"), ExecutionInterval::fixed(Cycles(1 + 3 * i)))
                .unwrap()
        })
        .collect();
    let events = (0..n).map(|i| types[(i * 7 + i / 5) % 4]).collect();
    Trace::new(reg, events)
}

fn timed(trace: &Trace) -> TimedTrace {
    let events = trace
        .events()
        .iter()
        .enumerate()
        .map(|(i, &ty)| TimedEvent {
            time: i as f64 * 0.01 + (i % 3) as f64 * 1e-3,
            ty,
        })
        .collect();
    TimedTrace::new(trace.registry().clone(), events).unwrap()
}

fn plan(seed: u64) -> StreamFaultPlan {
    StreamFaultPlan::new(seed)
        .with(StreamInjector::Drop { per_mille: 120 })
        .with(StreamInjector::Duplicate { per_mille: 90 })
        .with(StreamInjector::Retype { per_mille: 200 })
        .with(StreamInjector::Jitter { max_delay_s: 0.05 })
        .with(StreamInjector::Drop { per_mille: 30 })
}

fn digest_untimed(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    for e in t.events() {
        h.u64(e.index() as u64);
    }
    h.0
}

fn digest_timed(t: &TimedTrace) -> u64 {
    let mut h = Fnv::new();
    for e in t.events() {
        h.u64(e.ty.index() as u64);
        h.u64(e.time.to_bits());
    }
    h.0
}

#[test]
fn untimed_plan_is_golden() {
    let input = trace(1_000);
    let (out, report) = plan(0x00C0_FFEE).apply(&input).unwrap();
    assert_eq!(
        report,
        StreamFaultReport {
            dropped: 141,
            duplicated: 95,
            retyped: 207,
            jittered: 0,
        }
    );
    assert_eq!(out.len(), 954);
    assert_eq!(digest_untimed(&out), 5_171_965_859_257_508_260);
}

#[test]
fn timed_plan_is_golden() {
    let input = timed(&trace(1_000));
    let (out, report) = plan(0x00C0_FFEE).apply_timed(&input).unwrap();
    assert_eq!(
        report,
        StreamFaultReport {
            dropped: 141,
            duplicated: 95,
            retyped: 207,
            jittered: 984,
        }
    );
    assert_eq!(out.len(), 954);
    assert_eq!(digest_timed(&out), 8_262_789_693_527_401_002);
}

#[test]
fn second_seed_is_golden() {
    let input = trace(257);
    let (out, report) = plan(7).apply(&input).unwrap();
    assert_eq!(
        report,
        StreamFaultReport {
            dropped: 44,
            duplicated: 26,
            retyped: 51,
            jittered: 0,
        }
    );
    assert_eq!(digest_untimed(&out), 10_103_594_127_112_737_060);
    let (out, report) = plan(7).apply_timed(&timed(&input)).unwrap();
    assert_eq!(
        report,
        StreamFaultReport {
            dropped: 44,
            duplicated: 26,
            retyped: 51,
            jittered: 245,
        }
    );
    assert_eq!(digest_timed(&out), 13_221_218_794_018_168_700);
}
