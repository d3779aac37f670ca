//! Property-based tests of the pipeline simulator on random tiny
//! workloads.

use proptest::prelude::*;
use wcm_mpeg::demand::{Pe1Model, Pe2Model};
use wcm_mpeg::mb::{Macroblock, MacroblockClass};
use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::workload::FrameWorkload;
use wcm_mpeg::ClipWorkload;
use wcm_sim::pipeline::{
    simulate_pipeline, simulate_pipeline_robust, FifoConfig, OverflowPolicy, PipelineConfig,
    PipelineResult, SourceModel,
};

/// A clean CBR run through a blocking-write FIFO of `capacity`.
fn backpressure(clip: &ClipWorkload, cfg: &PipelineConfig, capacity: u64) -> PipelineResult {
    let fifo = FifoConfig::bounded(capacity, OverflowPolicy::Backpressure);
    simulate_pipeline_robust(clip, cfg, &fifo, SourceModel::Cbr, None, None)
        .unwrap()
        .pipeline
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
        let r = simulate_pipeline(&clip, &cfg).unwrap();
        // Every macroblock processed, in order, out after in.
        prop_assert_eq!(r.fifo_in_times.len(), n);
        for w in r.fifo_in_times.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for w in r.fifo_out_times.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for i in 0..n {
            prop_assert!(r.fifo_out_times[i] >= r.fifo_in_times[i]);
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
        let unbounded = simulate_pipeline(&clip, &cfg).unwrap();
        let bounded = backpressure(&clip, &cfg, cap);
        prop_assert!(bounded.max_backlog <= cap);
        prop_assert!((bounded.pe2_busy - unbounded.pe2_busy).abs() < 1e-9);
        prop_assert!(bounded.makespan + 1e-9 >= unbounded.makespan);
        // With capacity at least the unbounded peak, behaviour is identical.
        let roomy = backpressure(&clip, &cfg, unbounded.max_backlog.max(1));
        prop_assert_eq!(roomy, unbounded);
    }
}
