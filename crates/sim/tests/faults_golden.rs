//! Golden outputs of the simulator's fault injectors and bounded FIFO.
//!
//! Each test fixes a seed, a plan and an input and asserts the exact
//! report plus an FNV-1a digest of the faulted output. A change to the
//! per-injector seed derivation or to any injector's draw order shows up
//! here as a changed digest, so refactors of the injector core must keep
//! these passing unchanged. `bounded_pipeline_is_golden` does the same
//! for the overflow policies: which macroblock each one drops, and when.

use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
use wcm_mpeg::profile::standard_clips;
use wcm_mpeg::{ClipWorkload, Synthesizer};
use wcm_sim::{
    simulate, FaultPlan, FaultReport, FaultedWorkload, FifoConfig, FrameCorruptionPlan,
    FrameFaultReport, FrameInjector, Injector, OverflowPolicy, PipelineConfig, ProcessingElement,
    SimScratch,
};
use wcm_wire::StreamEncoder;

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

/// `gops` GOPs of a standard clip at QCIF size (99 macroblocks per
/// frame, 12 frames of I, P and B per GOP).
fn clip(gops: usize) -> ClipWorkload {
    let params =
        VideoParams::new(176, 144, 25.0, 1.5e6, GopStructure::new(12, 3).unwrap()).unwrap();
    Synthesizer::new(params)
        .generate(&standard_clips()[2], gops)
        .unwrap()
}

fn digest_workload(w: &FaultedWorkload) -> u64 {
    let mut h = Fnv::new();
    for v in [&w.bits, &w.pe1_cycles, &w.pe2_cycles] {
        h.u64(v.len() as u64);
        v.iter().for_each(|&x| h.u64(x));
    }
    h.u64(w.kinds.len() as u64);
    for k in &w.kinds {
        h.u64(match k {
            FrameKind::I => 0,
            FrameKind::P => 1,
            FrameKind::B => 2,
        });
    }
    for v in [
        &w.arrival_delay_s,
        &w.pe1_scale,
        &w.pe2_scale,
        &w.pe1_extra_s,
        &w.pe2_extra_s,
    ] {
        h.u64(v.len() as u64);
        v.iter().for_each(|&x| h.u64(x.to_bits()));
    }
    h.0
}

#[test]
fn pipeline_plan_is_golden() {
    let clip = clip(1);
    let plan = FaultPlan::new(0x5EED)
        .with(Injector::JitterBurst {
            start: 40,
            len: 300,
            max_delay_s: 2e-3,
        })
        .with(Injector::DropEvents { per_mille: 40 })
        .with(Injector::DuplicateEvents { per_mille: 25 })
        .with(Injector::DemandSpike {
            start: 200,
            len: 150,
            factor_pct: 250,
        })
        .with(Injector::ClockDrift {
            pe: ProcessingElement::Pe2,
            start: 500,
            len: 100,
            factor_pct: 140,
        })
        .with(Injector::Stall {
            pe: ProcessingElement::Pe1,
            at: 700,
            extra_s: 1e-3,
        })
        .with(Injector::BitErrors { per_mille: 60 });
    let w = plan.apply(&clip).unwrap();
    assert_eq!(
        w.report,
        FaultReport {
            dropped_events: 47,
            duplicated_events: 28,
            corrupted_events: 85,
            spiked_events: 150,
            jittered_events: 300,
            slowed_events: 101,
        }
    );
    assert_eq!(w.bits.len(), 1_169);
    assert_eq!(digest_workload(&w), 16_031_830_274_993_571_518);
}

#[test]
fn pipeline_plan_second_seed_is_golden() {
    let clip = clip(1);
    let plan = FaultPlan::new(3)
        .with(Injector::BitErrors { per_mille: 200 })
        .with(Injector::DropEvents { per_mille: 100 });
    let w = plan.apply(&clip).unwrap();
    assert_eq!(
        w.report,
        FaultReport {
            dropped_events: 117,
            duplicated_events: 0,
            corrupted_events: 270,
            spiked_events: 0,
            jittered_events: 0,
            slowed_events: 0,
        }
    );
    assert_eq!(digest_workload(&w), 528_921_917_289_027_338);
}

fn stream() -> Vec<u8> {
    let n = 20_000usize;
    let demands: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 20)
        .collect();
    let times: Vec<f64> = (0..n).map(|i| i as f64 * 0.04).collect();
    let mut enc = StreamEncoder::new();
    enc.meta("faults-golden");
    enc.demands(&demands);
    enc.times(&times).unwrap();
    enc.finish()
}

#[test]
fn frame_plan_is_golden() {
    let clean = stream();
    let plan = FrameCorruptionPlan::new(0xF00D)
        .with(FrameInjector::BitFlips { ber_per_million: 3 })
        .with(FrameInjector::LengthLies { count: 2 })
        .with(FrameInjector::DuplicateFrames { copies: 2 })
        .with(FrameInjector::ReorderFrames { swaps: 2 })
        .with(FrameInjector::Truncate { keep_pct: 97 });
    let out = plan.apply(&clean).unwrap();
    assert_eq!(
        out.report,
        FrameFaultReport {
            frames_seen: 11,
            bits_flipped: 6,
            frames_damaged: 6,
            damage_runs: 4,
            damage_wire_bytes: 120207,
            frames_duplicated: 2,
            frames_reordered: 2,
            length_lies: 2,
            bytes_truncated: 7221,
        }
    );
    assert_eq!(out.bytes.len(), 233_458);
    let mut h = Fnv::new();
    h.bytes(&out.bytes);
    assert_eq!(h.0, 906_160_139_097_156_152);
}

/// PE₂ clock slow enough that the unbounded backlog (1 780) passes the
/// largest capacity, so every run overflows and a `DropByPriority` queue
/// holds macroblocks of several frames when it is full.
const PE2_HZ: f64 = 2.5e6;

/// FNV-1a digest of every bounded-FIFO run of one policy: 4 capacities ×
/// {clean, drop/duplicate/jitter plan}. It covers the push and drop times
/// of every macroblock, the victims in drop order, the peak backlog and
/// the backpressure stall, so a change to which macroblock an overflow
/// policy evicts, or when, changes it.
fn digest_bounded_runs(clip: &ClipWorkload, policy: OverflowPolicy) -> u64 {
    let cfg = PipelineConfig {
        bitrate_bps: clip.params().bitrate_bps(),
        pe1_hz: 60.0e6,
        pe2_hz: PE2_HZ,
    };
    let plan = FaultPlan::new(11)
        .with(Injector::DropEvents { per_mille: 30 })
        .with(Injector::DuplicateEvents { per_mille: 30 })
        .with(Injector::JitterBurst {
            start: 100,
            len: 400,
            max_delay_s: 3e-3,
        });
    let streams = [
        FaultedWorkload::clean(clip).unwrap(),
        plan.apply(clip).unwrap(),
    ];
    let mut scratch = SimScratch::new();
    let mut h = Fnv::new();
    for capacity in [1, 7, 64, 1620] {
        for w in &streams {
            let fifo = FifoConfig::bounded(capacity, policy);
            let r = simulate(w, &cfg, &fifo, None, &mut scratch).unwrap();
            // The PE₂ clock makes every run overflow its capacity.
            assert_eq!(r.max_backlog, capacity, "{policy:?}");
            for v in [scratch.fifo_in_times(), scratch.fifo_out_times()] {
                h.u64(v.len() as u64);
                v.iter().for_each(|&x| h.u64(x.to_bits()));
            }
            h.u64(scratch.dropped().len() as u64);
            scratch.dropped().iter().for_each(|&i| h.u64(i as u64));
            h.u64(r.max_backlog);
            h.u64(r.pe1_stalled.to_bits());
        }
    }
    h.0
}

#[test]
fn bounded_pipeline_is_golden() {
    let clip = clip(2);
    assert_eq!(clip.macroblock_count(), 2_376);
    assert_eq!(
        digest_bounded_runs(&clip, OverflowPolicy::Backpressure),
        13_590_137_632_145_084_930
    );
    assert_eq!(
        digest_bounded_runs(&clip, OverflowPolicy::Reject),
        15_603_634_928_209_941_425
    );
    assert_eq!(
        digest_bounded_runs(&clip, OverflowPolicy::DropByPriority),
        10_445_293_444_192_658_152
    );
}
