//! The single-thread contract: work run under `Parallelism::Seq` never
//! dispatches to the `wcm-par` pool. The end-to-end benchmark runs its
//! workloads this way, so its numbers are single-thread numbers.
//!
//! A test binary of its own, with one test, because the obs recorder
//! that counts dispatches is process-wide.

use wcm::events::window::{Parallelism, WindowMode};
use wcm::events::{Cycles, ExecutionInterval, Trace, TypeRegistry};
use wcm::mpeg::profile::standard_clips;
use wcm::mpeg::{ClipWorkload, GopStructure, Synthesizer, VideoParams};
use wcm::sim::{run_sweep, Injector, OverflowPolicy, SweepSpec};
use wcm::WorkloadBounds;

fn clips() -> Vec<ClipWorkload> {
    let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    standard_clips()[..2]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

fn spec() -> SweepSpec {
    SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: vec![2.0e6, 6.0e6, 20.0e6, 60.0e6],
        capacities: vec![4, 80, 4000],
        policies: vec![OverflowPolicy::Backpressure, OverflowPolicy::Reject],
        seeds: vec![None, Some(11)],
        injectors: vec![Injector::DemandSpike {
            start: 30,
            len: 40,
            factor_pct: 250,
        }],
        k_max: 600,
        mode: WindowMode::Strided {
            exact_upto: 128,
            stride: 40,
        },
        cert_depth: 400,
        prune: true,
    }
}

/// A trace long enough that a window scan over it is worth several
/// pool workers (`k_max × len` = 2·10⁷ unit operations).
fn long_trace() -> Trace {
    let mut reg = TypeRegistry::new();
    let types: Vec<_> = [(900, 1200), (150, 400), (420, 700)]
        .iter()
        .enumerate()
        .map(|(i, &(b, w))| {
            let interval = ExecutionInterval::new(Cycles(b), Cycles(w)).unwrap();
            reg.register(format!("t{i}"), interval).unwrap()
        })
        .collect();
    let events = (0..40_000).map(|i| types[(i * 7 + i / 5) % 3]).collect();
    Trace::new(reg, events)
}

/// Runs the sweep and the window scans with `par` and returns the pool
/// counters `(par.par_runs, par.pool_wakeups, par.seq_runs)`.
fn pool_counters(par: Parallelism, clips: &[ClipWorkload], trace: &Trace) -> (u64, u64, u64) {
    let rec = wcm::obs::mem();
    rec.reset();
    wcm::obs::set_enabled(true);
    let report = run_sweep(clips, &spec(), par).unwrap();
    let bounds = par.scope(|| WorkloadBounds::from_trace(trace, 500, WindowMode::Exact));
    wcm::obs::set_enabled(false);
    assert!(report.stats.total > 0);
    assert!(bounds.is_ok());
    let snap = rec.snapshot();
    (
        snap.counter("par.par_runs"),
        snap.counter("par.pool_wakeups"),
        snap.counter("par.seq_runs"),
    )
}

#[test]
fn seq_never_dispatches_to_the_pool() {
    let clips = clips();
    let trace = long_trace();

    let (par_runs, wakeups, seq_runs) = pool_counters(Parallelism::Seq, &clips, &trace);
    assert_eq!(par_runs, 0, "a Seq run dispatched to the pool");
    assert_eq!(wakeups, 0, "a Seq run woke pool workers");
    assert!(seq_runs > 0, "the recorder saw no pool entry at all");

    // The same work with two workers does dispatch, so the zeros above
    // are not an artifact of inputs too small to ever engage the pool.
    let (par_runs, wakeups, _) = pool_counters(Parallelism::Threads(2), &clips, &trace);
    assert!(par_runs > 0, "Threads(2) never dispatched: the inputs are too small");
    assert!(wakeups > 0, "Threads(2) never woke a pool worker");
}
