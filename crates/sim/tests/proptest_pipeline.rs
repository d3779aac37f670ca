//! Property-based tests of the pipeline simulator on random tiny
//! workloads.

use proptest::prelude::*;
use wcm_mpeg::demand::{Pe1Model, Pe2Model};
use wcm_mpeg::mb::{Macroblock, MacroblockClass};
use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::workload::FrameWorkload;
use wcm_mpeg::ClipWorkload;
use wcm_sim::pipeline::{
    simulate, FifoConfig, OverflowPolicy, PipelineConfig, PipelineSummary, SimScratch,
};
use wcm_sim::FaultedWorkload;

/// A clean run of `clip` through `fifo`; the scratch holds its timing.
fn run(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
    fifo: &FifoConfig,
) -> (PipelineSummary, SimScratch) {
    let w = FaultedWorkload::clean(clip).unwrap();
    let mut scratch = SimScratch::new();
    let summary = simulate(&w, cfg, fifo, None, &mut scratch).unwrap();
    (summary, scratch)
}

/// A clean run through a blocking-write FIFO of `capacity`.
fn backpressure(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
    capacity: u64,
) -> (PipelineSummary, SimScratch) {
    run(
        clip,
        cfg,
        &FifoConfig::bounded(capacity, OverflowPolicy::Backpressure),
    )
}

fn clip_from(bits: Vec<u32>) -> ClipWorkload {
    let params =
        VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(1, 1).unwrap()).unwrap();
    let mbs: Vec<Macroblock> = bits
        .into_iter()
        .map(|b| Macroblock {
            frame: FrameKind::I,
            class: MacroblockClass::Intra {
                coded_blocks: (b % 6 + 1) as u8,
            },
            bits: b.max(1),
        })
        .collect();
    ClipWorkload::new(
        "prop".into(),
        params,
        Pe1Model {
            base: 50,
            cycles_per_bit: 1.0,
            iq_per_block: 10,
        },
        Pe2Model::default(),
        vec![FrameWorkload::new(FrameKind::I, mbs)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural invariants hold for any workload and any rates.
    #[test]
    fn pipeline_invariants(
        bits in proptest::collection::vec(1u32..2000, 1..60),
        bitrate in 100.0f64..1e6,
        pe1 in 1e3f64..1e7,
        pe2 in 1e3f64..1e7,
    ) {
        let clip = clip_from(bits);
        let n = clip.macroblock_count();
        let cfg = PipelineConfig { bitrate_bps: bitrate, pe1_hz: pe1, pe2_hz: pe2 };
        let (r, t) = run(&clip, &cfg, &FifoConfig::unbounded());
        let (fifo_in, fifo_out) = (t.fifo_in_times(), t.fifo_out_times());
        // Every macroblock processed, in order, out after in.
        prop_assert_eq!(fifo_in.len(), n);
        for w in fifo_in.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for w in fifo_out.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for i in 0..n {
            prop_assert!(fifo_out[i] >= fifo_in[i]);
        }
        // Work conservation.
        let pe1_total: u64 = clip.pe1_demands().iter().sum();
        let pe2_total: u64 = clip.pe2_demands().iter().sum();
        prop_assert!((r.pe1_busy - pe1_total as f64 / pe1).abs() < 1e-9 * (1.0 + r.pe1_busy));
        prop_assert!((r.pe2_busy - pe2_total as f64 / pe2).abs() < 1e-9 * (1.0 + r.pe2_busy));
        // Makespan at least the serial lower bounds.
        let bits_total: u64 = clip.mb_bits().iter().sum();
        prop_assert!(r.makespan + 1e-9 >= bits_total as f64 / bitrate);
        prop_assert!(r.makespan + 1e-9 >= r.pe2_busy);
        prop_assert_eq!(r.pe1_stalled, 0.0);
    }

    /// Backpressure: capped occupancy, same total work, never faster.
    #[test]
    fn backpressure_invariants(
        bits in proptest::collection::vec(1u32..2000, 2..50),
        cap in 1u64..8,
    ) {
        let clip = clip_from(bits);
        let cfg = PipelineConfig { bitrate_bps: 1e5, pe1_hz: 1e6, pe2_hz: 5e4 };
        let (unbounded, u) = run(&clip, &cfg, &FifoConfig::unbounded());
        let (bounded, _) = backpressure(&clip, &cfg, cap);
        prop_assert!(bounded.max_backlog <= cap);
        prop_assert!((bounded.pe2_busy - unbounded.pe2_busy).abs() < 1e-9);
        prop_assert!(bounded.makespan + 1e-9 >= unbounded.makespan);
        // With capacity at least the unbounded peak, behaviour is identical.
        let (roomy, r) = backpressure(&clip, &cfg, unbounded.max_backlog.max(1));
        prop_assert_eq!(roomy, unbounded);
        prop_assert_eq!(r.fifo_in_times(), u.fifo_in_times());
        prop_assert_eq!(r.fifo_out_times(), u.fifo_out_times());
    }
}
