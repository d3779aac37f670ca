//! Property-based tests of the fault-injection layer, the bounded FIFO
//! overflow policies and the online envelope monitor.

use proptest::prelude::*;
use wcm_core::curve::UpperWorkloadCurve;
use wcm_core::EnvelopeMonitor;
use wcm_events::window::{max_window_sums, WindowMode};
use wcm_mpeg::demand::{Pe1Model, Pe2Model};
use wcm_mpeg::mb::{Macroblock, MacroblockClass, MotionKind};
use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::workload::FrameWorkload;
use wcm_mpeg::ClipWorkload;
use wcm_sim::pipeline::{simulate, PipelineConfig, PipelineSummary, SimScratch};
use wcm_sim::{FaultPlan, FaultedWorkload, FifoConfig, Injector, OverflowPolicy, SimError};

/// A clip with mixed frame kinds: frame `i` holds one macroblock of the
/// `i`-th kind in an I/P/B/B rotation.
fn mixed_clip(bits: Vec<u32>) -> ClipWorkload {
    let params =
        VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(4, 2).unwrap()).unwrap();
    let frames: Vec<FrameWorkload> = bits
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let kind = match i % 4 {
                0 => FrameKind::I,
                1 => FrameKind::P,
                _ => FrameKind::B,
            };
            let class = match kind {
                FrameKind::I => MacroblockClass::Intra {
                    coded_blocks: (b % 6 + 1) as u8,
                },
                FrameKind::P => MacroblockClass::Inter {
                    motion: MotionKind::Single,
                    coded_blocks: (b % 7) as u8,
                },
                FrameKind::B => MacroblockClass::Inter {
                    motion: MotionKind::Bidirectional,
                    coded_blocks: (b % 7) as u8,
                },
            };
            FrameWorkload::new(
                kind,
                vec![Macroblock {
                    frame: kind,
                    class,
                    bits: b.max(1),
                }],
            )
        })
        .collect();
    ClipWorkload::new(
        "prop-faults".into(),
        params,
        Pe1Model {
            base: 50,
            cycles_per_bit: 1.0,
            iq_per_block: 10,
        },
        Pe2Model {
            base: 100,
            idct_per_block: 20,
            mc_single: 30,
            mc_single_field: 35,
            mc_bidirectional: 60,
            mc_bidirectional_field: 70,
            skip_copy: 10,
        },
        frames,
    )
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        bitrate_bps: 1e5,
        pe1_hz: 1e6,
        pe2_hz: 5e4,
    }
}

/// One run: the (possibly faulted) stream, the summary, and the scratch
/// holding the run's per-macroblock timing.
type Run = (FaultedWorkload, PipelineSummary, SimScratch);

/// Runs `clip`, after `plan` if one is given, through `fifo` at [`cfg`],
/// feeding `monitor` if one is given.
fn run(
    clip: &ClipWorkload,
    fifo: &FifoConfig,
    plan: Option<&FaultPlan>,
    monitor: Option<&mut EnvelopeMonitor>,
) -> Result<Run, SimError> {
    let w = match plan {
        Some(p) => p.apply(clip)?,
        None => FaultedWorkload::clean(clip)?,
    };
    let mut scratch = SimScratch::new();
    let summary = simulate(&w, &cfg(), fifo, monitor, &mut scratch)?;
    Ok((w, summary, scratch))
}

/// A plan exercising every injector at moderate intensity.
fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(Injector::JitterBurst {
            start: 0,
            len: 10,
            max_delay_s: 0.01,
        })
        .with(Injector::DropEvents { per_mille: 60 })
        .with(Injector::DuplicateEvents { per_mille: 60 })
        .with(Injector::DemandSpike {
            start: 3,
            len: 8,
            factor_pct: 250,
        })
        .with(Injector::BitErrors { per_mille: 40 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fixed seed reproduces the faulted stream and the simulation
    /// bit-for-bit; a different seed perturbs at least the fault report.
    #[test]
    fn seeded_faults_are_reproducible(
        bits in proptest::collection::vec(1u32..2000, 8..40),
        seed in 0u64..u64::MAX,
    ) {
        let clip = mixed_clip(bits);
        let fifo = FifoConfig::bounded(4, OverflowPolicy::Reject);
        let a = run(&clip, &fifo, Some(&noisy_plan(seed)), None);
        let b = run(&clip, &fifo, Some(&noisy_plan(seed)), None);
        match (a, b) {
            (Ok((wa, sa, ta)), Ok((wb, sb, tb))) => {
                prop_assert_eq!(wa, wb);
                prop_assert_eq!(sa, sb);
                prop_assert_eq!(ta.fifo_in_times(), tb.fifo_in_times());
                prop_assert_eq!(ta.fifo_out_times(), tb.fifo_out_times());
                prop_assert_eq!(ta.dropped(), tb.dropped());
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            (x, y) => prop_assert!(
                false, "diverged: {:?} vs {:?}", x.map(|r| r.1), y.map(|r| r.1)),
        }
    }

    /// Zero-intensity injectors leave the stream, and so every output of an
    /// unbounded run, bit-identical to the clean clip's.
    #[test]
    fn zero_intensity_plan_is_the_identity(
        bits in proptest::collection::vec(1u32..2000, 4..40),
        seed in 0u64..u64::MAX,
    ) {
        let clip = mixed_clip(bits);
        let plan = FaultPlan::new(seed)
            .with(Injector::DropEvents { per_mille: 0 })
            .with(Injector::DuplicateEvents { per_mille: 0 })
            .with(Injector::JitterBurst { start: 0, len: 0, max_delay_s: 0.0 })
            .with(Injector::DemandSpike { start: 0, len: 0, factor_pct: 100 })
            .with(Injector::BitErrors { per_mille: 0 });
        let unbounded = FifoConfig::unbounded();
        let (clean, bare, u) = run(&clip, &unbounded, None, None).unwrap();
        let (w, planned, t) = run(&clip, &unbounded, Some(&plan), None).unwrap();
        prop_assert!(w.report.is_clean());
        prop_assert_eq!(w, clean);
        prop_assert_eq!(planned, bare);
        prop_assert_eq!(t.fifo_in_times(), u.fifo_in_times());
        prop_assert_eq!(t.fifo_out_times(), u.fifo_out_times());
    }

    /// The FIFO never holds more than its capacity, under any overflow
    /// policy and any injector mix.
    #[test]
    fn capacity_is_a_hard_bound_under_faults(
        bits in proptest::collection::vec(1u32..2000, 8..40),
        seed in 0u64..u64::MAX,
        cap in 1u64..6,
    ) {
        let clip = mixed_clip(bits);
        for policy in [
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ] {
            let fifo = FifoConfig::bounded(cap, policy);
            // Heavy drop plans can empty tiny streams; that error is fine.
            if let Ok((_, r, t)) = run(&clip, &fifo, Some(&noisy_plan(seed)), None) {
                prop_assert!(
                    r.max_backlog <= cap,
                    "policy {:?}: backlog {} > cap {}",
                    policy, r.max_backlog, cap
                );
                // Rejected macroblocks never enter, so they occupy the
                // FIFO for zero time; priority-evicted ones may have
                // waited in the queue before eviction (out ≥ in).
                for &i in t.dropped() {
                    let (fin, fout) = (t.fifo_in_times()[i], t.fifo_out_times()[i]);
                    if policy == OverflowPolicy::Reject {
                        prop_assert_eq!(fin.to_bits(), fout.to_bits());
                    } else {
                        prop_assert!(fout >= fin);
                    }
                }
                // Backpressure is lossless by definition.
                if policy == OverflowPolicy::Backpressure {
                    prop_assert!(t.dropped().is_empty());
                }
            }
        }
    }

    /// A monitor fed the trace its curve was built from never fires; a
    /// demand spike above γᵘ always does.
    #[test]
    fn monitor_is_sound_and_sensitive(
        bits in proptest::collection::vec(1u32..2000, 6..40),
        k_max in 2usize..12,
    ) {
        let clip = mixed_clip(bits);
        let demands = clip.pe2_demands();
        let k_max = k_max.min(demands.len());
        let gamma = UpperWorkloadCurve::new(
            max_window_sums(&demands, k_max, WindowMode::Exact).unwrap()).unwrap();

        // Soundness: the clean clip stays inside its own envelope.
        let mut clean = EnvelopeMonitor::upper_only(&gamma, k_max).unwrap();
        run(&clip, &FifoConfig::unbounded(), None, Some(&mut clean)).unwrap();
        prop_assert!(clean.is_clean(), "violations on own trace: {:?}", clean.violations());
        prop_assert_eq!(clean.events() as usize, demands.len());
        // Some window attains its bound exactly.
        prop_assert_eq!(clean.report().min_upper_slack(), Some(0));

        // Sensitivity: quadrupling every demand must break γᵘ(1) at least.
        let spike = FaultPlan::new(1).with(Injector::DemandSpike {
            start: 0,
            len: demands.len(),
            factor_pct: 400,
        });
        let mut spiked = EnvelopeMonitor::upper_only(&gamma, k_max).unwrap();
        run(&clip, &FifoConfig::unbounded(), Some(&spike), Some(&mut spiked)).unwrap();
        prop_assert!(spiked.total_violations() > 0);
        let v = &spiked.violations()[0];
        prop_assert!(v.observed > u128::from(v.bound));
        prop_assert!(v.slack() < 0);
    }
}
