//! The sweep's overflow certificate against the simulator.
//!
//! A point `(F, b)` is `ProvablyUnsafe` when the replayed departures of
//! an unbounded run show a push `i` with `D_{i−b} > A_i`. On small random
//! streams, fault plans and capacities:
//!
//! * every certified point overflows in `simulate`, under each of the
//!   three policies (the sweep evaluates all three);
//! * every point that overflows in simulation is certified, unless its
//!   overflow hinges on an exact tie `D_{i−b} == A_i`, which only the
//!   simulator's event order decides;
//! * pruned and unpruned sweeps agree on every overflow verdict;
//! * every `replay_ok` point carries, bit for bit, the digest
//!   (`max_backlog`, `dropped`, `pe1_stalled_s`) that `simulate` reports
//!   for it, and never overflows (streams `simulate` rejects are a unit
//!   test of `crates/sim/src/sweep.rs`).
//!
//! Bit counts, cycle costs and clocks are mostly powers of two, so the
//! times are exact binary fractions and exact ties are common. A second
//! generator adds zero-cycle macroblocks: some carry no bits (zero PE₁
//! cycles, pushed at the instant of their predecessor) and some are
//! skipped (zero PE₂ cycles without a base cost). On those streams the
//! `k_max` = 8 curves miss bursts past their horizon, and eq. 9 calls
//! some overflowing points safe (ROADMAP item 1, counted by the sweep as
//! `sweep.eq9_contradicted`); there, `provably_safe` points are left
//! unchecked until that hole is closed, and every other verdict is
//! checked as above.

use proptest::prelude::*;
use wcm_events::window::WindowMode;
use wcm_mpeg::demand::{Pe1Model, Pe2Model};
use wcm_mpeg::mb::{Macroblock, MacroblockClass};
use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::workload::FrameWorkload;
use wcm_mpeg::ClipWorkload;
use wcm_par::Parallelism;
use wcm_sim::pipeline::{simulate, FifoConfig, OverflowPolicy, PipelineConfig, SimScratch};
use wcm_sim::{
    run_sweep, FaultPlan, FaultedWorkload, Injector, ProcessingElement, SweepSpec, Verdict,
};

/// One random case: a clip and a sweep spec over it.
struct Case {
    clip: ClipWorkload,
    spec: SweepSpec,
    /// Drawn with zero-cycle macroblocks (see the module docs).
    zero_cycle: bool,
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn clip(rng: &mut TestRng, zero_cycle: bool) -> ClipWorkload {
    // Short streams often, so that some overflow hinges on one tie.
    let longest = pick(rng, &[6, 40]);
    let n = 2 + rng.below(longest) as usize;
    let params = VideoParams::new(16, 16, 25.0, 1024.0, GopStructure::new(1, 1).unwrap()).unwrap();
    let frames = (0..n)
        .map(|_| {
            let kind = pick(rng, &[FrameKind::I, FrameKind::P, FrameKind::B]);
            let class = if zero_cycle && rng.below(5) == 0 {
                MacroblockClass::Skipped
            } else {
                MacroblockClass::Intra {
                    coded_blocks: pick(rng, &[1, 2, 4, 6]),
                }
            };
            let bits: &[u32] = if zero_cycle {
                &[0, 1, 2, 4, 7]
            } else {
                &[1, 2, 4, 7]
            };
            let mb = Macroblock {
                frame: kind,
                class,
                bits: 128 * pick(rng, bits),
            };
            FrameWorkload::new(kind, vec![mb])
        })
        .collect();
    ClipWorkload::new(
        "cert".into(),
        params,
        Pe1Model {
            base: 0,
            cycles_per_bit: 1.0,
            iq_per_block: 0,
        },
        Pe2Model {
            base: pick(rng, &[0, 0, 128]),
            idct_per_block: 256,
            mc_single: 0,
            mc_single_field: 0,
            mc_bidirectional: 0,
            mc_bidirectional_field: 0,
            skip_copy: 0,
        },
        frames,
    )
}

fn injector(rng: &mut TestRng, n: usize) -> Injector {
    let start = rng.below(n as u64) as usize;
    let len = 1 + rng.below(n as u64) as usize;
    let pe = pick(rng, &[ProcessingElement::Pe1, ProcessingElement::Pe2]);
    match rng.below(7) {
        0 => Injector::JitterBurst {
            start,
            len,
            max_delay_s: pick(rng, &[0.25, 1.0, 3.0]),
        },
        1 => Injector::DropEvents {
            per_mille: rng.below(150) as u16,
        },
        2 => Injector::DuplicateEvents {
            per_mille: rng.below(150) as u16,
        },
        3 => Injector::DemandSpike {
            start,
            len,
            factor_pct: pick(rng, &[50, 150, 250, 137]),
        },
        4 | 5 => Injector::ClockDrift {
            pe,
            start,
            len,
            factor_pct: pick(rng, &[125, 150, 200, 173]),
        },
        _ => Injector::Stall {
            pe,
            at: start,
            extra_s: pick(rng, &[0.25, 0.5, 1.0, 0.3]),
        },
    }
}

fn case(seed: u64, zero_cycle: bool) -> Case {
    let mut rng = TestRng::seeded(seed);
    let clip = clip(&mut rng, zero_cycle);
    let n = clip.macroblock_count();
    let injectors = (0..rng.below(4)).map(|_| injector(&mut rng, n)).collect();
    let capacities = (0..1 + rng.below(4)).map(|_| 1 + rng.below(6)).collect();
    let frequencies_hz = (0..1 + rng.below(5))
        .map(|_| {
            pick(
                &mut rng,
                &[256.0, 300.0, 700.0, 1024.0, 2048.0, 4096.0, 8192.0],
            )
        })
        .collect();
    let spec = SweepSpec {
        pe1_hz: pick(&mut rng, &[1024.0, 4096.0, 3000.0]),
        frequencies_hz,
        capacities,
        policies: vec![
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ],
        seeds: vec![None, Some(rng.next_u64())],
        injectors,
        k_max: 8,
        mode: WindowMode::Exact,
        cert_depth: 0,
        prune: true,
    };
    Case {
        clip,
        spec,
        zero_cycle,
    }
}

/// What one case exercised.
#[derive(Debug, Default)]
struct Seen {
    certified: usize,
    certified_faulted_pe2: usize,
    tie_overflows: usize,
    replayed: usize,
    replayed_faulted: usize,
    replayed_zero_cycle: usize,
    /// `provably_safe` points that overflow in simulation (zero-cycle
    /// cases only; see the module docs).
    eq9_overflows: usize,
}

/// The stream the sweep builds for `seed`; `None` when the plan leaves
/// nothing to simulate.
fn stream(case: &Case, seed: Option<u64>) -> Option<FaultedWorkload> {
    let w = match seed {
        None => FaultedWorkload::clean(&case.clip),
        Some(s) => case
            .spec
            .injectors
            .iter()
            .fold(FaultPlan::new(s), |plan, inj| plan.with(inj.clone()))
            .apply(&case.clip),
    };
    w.ok().filter(|w| !w.is_empty())
}

fn check(case: &Case) -> Result<Seen, String> {
    let spec = &case.spec;
    let clips = std::slice::from_ref(&case.clip);
    let pruned = run_sweep(clips, spec, Parallelism::Seq).map_err(|e| e.to_string())?;
    let full = run_sweep(
        clips,
        &SweepSpec {
            prune: false,
            ..spec.clone()
        },
        Parallelism::Seq,
    )
    .map_err(|e| e.to_string())?;
    let mut seen = Seen::default();
    let mut scratch = SimScratch::new();
    for (p, f) in pruned.points.iter().zip(&full.points) {
        if p.verdict.overflowed() != f.verdict.overflowed() {
            if case.zero_cycle && p.verdict == Verdict::ProvablySafe {
                seen.eq9_overflows += 1;
                continue;
            }
            return Err(format!("pruned {p:?} vs unpruned {f:?}"));
        }
        let w = stream(case, p.seed).expect("the sweep ran it");
        let cfg = PipelineConfig {
            bitrate_bps: case.clip.params().bitrate_bps(),
            pe1_hz: spec.pe1_hz,
            pe2_hz: p.frequency_hz,
        };
        match p.verdict {
            Verdict::ProvablyUnsafe => {
                let fifo = FifoConfig::bounded(p.capacity, p.policy);
                let run =
                    simulate(&w, &cfg, &fifo, None, &mut scratch).map_err(|e| e.to_string())?;
                if !run.overflowed {
                    return Err(format!("certified {p:?} does not overflow"));
                }
                seen.certified += 1;
                let faulted_pe2 = w.pe2_scale.iter().any(|&s| s != 1.0)
                    || w.pe2_extra_s.iter().any(|&e| e != 0.0);
                seen.certified_faulted_pe2 += usize::from(faulted_pe2);
            }
            Verdict::SimOverflow => {
                // The unbounded run's own times: no push may find `b`
                // departures strictly after it, and some push must tie.
                simulate(&w, &cfg, &FifoConfig::unbounded(), None, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let (a, d) = (scratch.fifo_in_times(), scratch.fifo_out_times());
                let b = p.capacity as usize;
                let pairs = || d.iter().zip(a.get(b..).unwrap_or_default());
                if pairs().any(|(d, a)| d > a) {
                    return Err(format!(
                        "{p:?} overflows on a strict push but was simulated"
                    ));
                }
                if !pairs().any(|(d, a)| d == a) {
                    return Err(format!("{p:?} overflows without a full push"));
                }
                seen.tie_overflows += 1;
            }
            Verdict::ReplayOk => {
                // The unpruned point is `simulate` on the same stream,
                // capacity and policy.
                let digest = |q: &wcm_sim::sweep::PointReport| {
                    (q.max_backlog, q.dropped, q.pe1_stalled_s.map(f64::to_bits))
                };
                if f.verdict != Verdict::SimOk || digest(p) != digest(f) {
                    return Err(format!("replayed {p:?} vs simulated {f:?}"));
                }
                seen.replayed += 1;
                seen.replayed_faulted += usize::from(p.seed.is_some());
                let zero_cycle = w.pe1_cycles.contains(&0) || w.pe2_cycles.contains(&0);
                seen.replayed_zero_cycle += usize::from(zero_cycle);
            }
            Verdict::ProvablySafe | Verdict::SimOk => {}
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn certified_points_overflow_and_missed_overflows_are_ties(seed in 0u64..u64::MAX) {
        let case = case(seed, false);
        prop_assume!(stream(&case, case.spec.seeds[1]).is_some());
        if let Err(e) = check(&case) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }

    #[test]
    fn replayed_digests_equal_simulation_with_zero_cycle_macroblocks(seed in 0u64..u64::MAX) {
        let case = case(seed, true);
        prop_assume!(stream(&case, case.spec.seeds[1]).is_some());
        if let Err(e) = check(&case) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }
}

#[test]
fn the_property_sees_certificates_and_ties() {
    // The properties above are only as strong as their cases: they must
    // certify points, certify them under PE₂ faults, hit overflows that
    // hinge on an exact tie, and replay digests on faulted streams and
    // on streams with zero-cycle macroblocks.
    let mut total = Seen::default();
    for zero_cycle in [false, true] {
        for seed in 0..300 {
            let case = case(seed, zero_cycle);
            if stream(&case, case.spec.seeds[1]).is_none() {
                continue;
            }
            let seen = check(&case).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            total.certified += seen.certified;
            total.certified_faulted_pe2 += seen.certified_faulted_pe2;
            total.tie_overflows += seen.tie_overflows;
            total.replayed += seen.replayed;
            total.replayed_faulted += seen.replayed_faulted;
            total.replayed_zero_cycle += seen.replayed_zero_cycle;
            total.eq9_overflows += seen.eq9_overflows;
        }
    }
    assert!(total.certified > 100, "{total:?}");
    assert!(total.certified_faulted_pe2 > 10, "{total:?}");
    assert!(total.tie_overflows > 0, "{total:?}");
    assert!(total.replayed > 100, "{total:?}");
    assert!(total.replayed_faulted > 10, "{total:?}");
    assert!(total.replayed_zero_cycle > 10, "{total:?}");
}
