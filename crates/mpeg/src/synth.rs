//! The stochastic stream synthesizer.
//!
//! Generates per-macroblock coding decisions frame by frame. The decision
//! process mimics how real encoders behave:
//!
//! * **I frames** code every macroblock intra, with 4–6 coded blocks
//!   depending on texture complexity.
//! * **P frames** mix skipped, zero-MV, single-MC and occasional intra
//!   macroblocks; residual size grows with complexity and motion.
//! * **B frames** are dominated by skipped and bidirectionally predicted
//!   macroblocks with sparse residuals.
//! * A two-state (calm/active) Markov chain over the macroblocks of each
//!   frame clusters skipped regions and busy regions, producing the bursty
//!   demand correlation that makes workload curves strictly tighter than
//!   the WCET line.
//! * Per-frame compressed bits are normalized to the CBR budget with the
//!   classic 5:3:1 I:P:B weighting, so the bitstream timing matches the
//!   constant-rate channel.

use crate::demand::{Pe1Model, Pe2Model};
use crate::mb::{Macroblock, MacroblockClass, MotionKind};
use crate::params::{FrameKind, VideoParams};
use crate::profile::ClipProfile;
use crate::workload::{ClipWorkload, FrameWorkload};
use crate::MpegError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Relative bit weights of I, P and B pictures under CBR rate control.
const BIT_WEIGHTS: (f64, f64, f64) = (5.0, 3.0, 1.0);

/// Synthesizes clips for fixed stream parameters.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    params: VideoParams,
}

impl Synthesizer {
    /// Creates a synthesizer with the default cost models.
    #[must_use]
    pub fn new(params: VideoParams) -> Self {
        Self { params }
    }

    /// The stream parameters.
    #[must_use]
    pub fn params(&self) -> &VideoParams {
        &self.params
    }

    /// Generates `gops` GOPs of workload for a clip profile. Deterministic
    /// per profile (seeded).
    ///
    /// # Errors
    ///
    /// Returns [`MpegError::InvalidParameter`] if `gops` is 0.
    pub fn generate(&self, clip: &ClipProfile, gops: usize) -> Result<ClipWorkload, MpegError> {
        if gops == 0 {
            return Err(MpegError::InvalidParameter { name: "gops" });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(clip.seed);
        let order = self.params.gop().decode_order();
        let mut frames = Vec::with_capacity(gops * order.len());
        for _ in 0..gops {
            for &kind in &order {
                frames.push(self.generate_frame(kind, clip, &mut rng));
            }
        }
        Ok(ClipWorkload::new(
            clip.name.clone(),
            self.params,
            Pe1Model::default(),
            Pe2Model::default(),
            frames,
        ))
    }

    /// Per-frame-kind CBR bit budget.
    fn frame_bit_target(&self, kind: FrameKind) -> f64 {
        let gop = self.params.gop();
        let (wi, wp, wb) = BIT_WEIGHTS;
        let total_weight = wi * gop.count(FrameKind::I) as f64
            + wp * gop.count(FrameKind::P) as f64
            + wb * gop.count(FrameKind::B) as f64;
        let unit =
            self.params.bits_per_frame() * gop.frames_per_gop() as f64 / total_weight;
        match kind {
            FrameKind::I => wi * unit,
            FrameKind::P => wp * unit,
            FrameKind::B => wb * unit,
        }
    }

    fn generate_frame(
        &self,
        kind: FrameKind,
        clip: &ClipProfile,
        rng: &mut ChaCha8Rng,
    ) -> FrameWorkload {
        let n = self.params.mb_per_frame();
        let mut mbs = Vec::with_capacity(n);
        // Scene cuts turn a predicted picture intra-dominated. The draw is
        // skipped entirely at rate 0 so default streams stay bit-identical.
        let scene_cut = kind != FrameKind::I
            && clip.scene_cut_rate() > 0.0
            && rng.gen_bool(clip.scene_cut_rate());
        // Two-state activity chain: clusters of calm (skipped-heavy) and
        // active (coded-heavy) regions within the picture.
        let mut active = rng.gen_bool(0.5);
        let stay = 0.95;
        for _ in 0..n {
            if rng.gen_bool(1.0 - stay) {
                active = !active;
            }
            let class = if scene_cut && rng.gen_bool(0.85) {
                // Prediction fails across the cut: code intra.
                MacroblockClass::Intra {
                    coded_blocks: self.coded_blocks(4, 6, clip.complexity, rng),
                }
            } else {
                self.pick_class(kind, clip, active, rng)
            };
            let bits = self.raw_bits(class, clip, rng);
            mbs.push(Macroblock {
                frame: kind,
                class,
                bits,
            });
        }
        self.normalize_bits(kind, &mut mbs);
        FrameWorkload::new(kind, mbs)
    }

    fn pick_class(
        &self,
        kind: FrameKind,
        clip: &ClipProfile,
        active: bool,
        rng: &mut ChaCha8Rng,
    ) -> MacroblockClass {
        let activity = if active { 1.0 } else { 0.35 };
        match kind {
            FrameKind::I => MacroblockClass::Intra {
                coded_blocks: self.coded_blocks(4, 6, clip.complexity * activity, rng),
            },
            FrameKind::P => {
                let p_skip = (0.45 - 0.28 * clip.motion) * (2.0 - activity);
                let p_intra = 0.02 + 0.06 * clip.motion * clip.complexity;
                let u: f64 = rng.gen();
                if u < p_skip.clamp(0.02, 0.9) {
                    MacroblockClass::Skipped
                } else if u < (p_skip + p_intra).clamp(0.02, 0.95) {
                    MacroblockClass::Intra {
                        coded_blocks: self.coded_blocks(4, 6, clip.complexity, rng),
                    }
                } else {
                    let motion = if rng.gen_bool(clip.motion.clamp(0.05, 1.0)) {
                        // Interlaced sources use field prediction for a
                        // share of the moving macroblocks.
                        if rng.gen_bool((0.30 * clip.motion).clamp(0.0, 1.0)) {
                            MotionKind::SingleField
                        } else {
                            MotionKind::Single
                        }
                    } else {
                        MotionKind::None
                    };
                    MacroblockClass::Inter {
                        motion,
                        coded_blocks: self
                            .coded_blocks(0, 6, 0.30 + 0.50 * clip.complexity * activity, rng),
                    }
                }
            }
            FrameKind::B => {
                let p_skip = (0.55 - 0.30 * clip.motion) * (2.0 - activity);
                let u: f64 = rng.gen();
                if u < p_skip.clamp(0.05, 0.92) {
                    MacroblockClass::Skipped
                } else {
                    let p_bidi = 0.25 + 0.55 * clip.motion;
                    let field = rng.gen_bool((0.35 * clip.motion).clamp(0.0, 1.0));
                    let motion = match (rng.gen_bool(p_bidi.clamp(0.0, 1.0)), field) {
                        (true, true) => MotionKind::BidirectionalField,
                        (true, false) => MotionKind::Bidirectional,
                        (false, true) => MotionKind::SingleField,
                        (false, false) => MotionKind::Single,
                    };
                    MacroblockClass::Inter {
                        motion,
                        coded_blocks: self
                            .coded_blocks(0, 6, 0.18 + 0.42 * clip.complexity * activity, rng),
                    }
                }
            }
        }
    }

    /// Draws a coded-block count in `[lo, hi]` with per-block probability
    /// `p` (a binomial over the blocks above the floor).
    fn coded_blocks(&self, lo: u8, hi: u8, p: f64, rng: &mut ChaCha8Rng) -> u8 {
        let p = p.clamp(0.0, 1.0);
        let mut cb = lo;
        for _ in lo..hi {
            if rng.gen_bool(p) {
                cb += 1;
            }
        }
        cb
    }

    /// Pre-normalization compressed size of one macroblock.
    fn raw_bits(&self, class: MacroblockClass, clip: &ClipProfile, rng: &mut ChaCha8Rng) -> u32 {
        let noise: f64 = 0.75 + 0.5 * rng.gen::<f64>();
        let bits = match class {
            MacroblockClass::Intra { coded_blocks } => {
                (60.0 + 110.0 * f64::from(coded_blocks) * (0.5 + clip.complexity)) * noise
            }
            MacroblockClass::Inter {
                motion,
                coded_blocks,
            } => {
                let mv_bits = match motion {
                    MotionKind::None => 4.0,
                    MotionKind::Single => 14.0,
                    MotionKind::SingleField => 22.0,
                    MotionKind::Bidirectional => 26.0,
                    MotionKind::BidirectionalField => 40.0,
                };
                (12.0 + mv_bits + 55.0 * f64::from(coded_blocks) * (0.4 + clip.complexity))
                    * noise
            }
            MacroblockClass::Skipped => 1.5,
        };
        bits.max(1.0).round() as u32
    }

    /// Scales macroblock bits so the frame hits its CBR budget.
    fn normalize_bits(&self, kind: FrameKind, mbs: &mut [Macroblock]) {
        let target = self.frame_bit_target(kind);
        let total: f64 = mbs.iter().map(|m| f64::from(m.bits)).sum();
        if total <= 0.0 {
            return;
        }
        let scale = target / total;
        for m in mbs.iter_mut() {
            m.bits = ((f64::from(m.bits) * scale).round() as u32).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_clips;

    fn small_params() -> VideoParams {
        // 160×128 keeps unit tests fast: 80 MBs per frame.
        VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            crate::params::GopStructure::broadcast(),
        )
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let synth = Synthesizer::new(small_params());
        let clip = &standard_clips()[3];
        let a = synth.generate(clip, 2).unwrap();
        let b = synth.generate(clip, 2).unwrap();
        assert_eq!(a.pe2_demands(), b.pe2_demands());
        assert_eq!(a.total_bits(), b.total_bits());
    }

    #[test]
    fn different_clips_differ() {
        let synth = Synthesizer::new(small_params());
        let clips = standard_clips();
        let a = synth.generate(&clips[0], 1).unwrap();
        let b = synth.generate(&clips[13], 1).unwrap();
        assert_ne!(a.pe2_demands(), b.pe2_demands());
        // The stress clip works much harder than the newscast.
        let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(avg(&b.pe2_demands()) > avg(&a.pe2_demands()));
    }

    #[test]
    fn frame_counts_and_sizes() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[5], 3).unwrap();
        assert_eq!(w.frames().len(), 36);
        assert_eq!(w.macroblock_count(), 36 * 80);
        assert!(synth.generate(&standard_clips()[5], 0).is_err());
    }

    #[test]
    fn i_frames_are_all_intra() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[7], 1).unwrap();
        let i_frame = &w.frames()[0];
        assert_eq!(i_frame.kind(), FrameKind::I);
        assert!(i_frame
            .macroblocks()
            .iter()
            .all(|m| matches!(m.class, MacroblockClass::Intra { .. })));
    }

    #[test]
    fn b_frames_contain_skips_and_bidir() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[11], 2).unwrap();
        let mut skips = 0usize;
        let mut bidi = 0usize;
        for f in w.frames().iter().filter(|f| f.kind() == FrameKind::B) {
            for m in f.macroblocks() {
                match m.class {
                    MacroblockClass::Skipped => skips += 1,
                    MacroblockClass::Inter {
                        motion: MotionKind::Bidirectional,
                        ..
                    } => bidi += 1,
                    _ => {}
                }
            }
        }
        assert!(skips > 0, "B frames must contain skipped macroblocks");
        assert!(bidi > 0, "B frames must contain bidirectional macroblocks");
    }

    #[test]
    fn scene_cuts_make_predicted_frames_intra_heavy() {
        let synth = Synthesizer::new(small_params());
        let base = standard_clips()[4].clone();
        let cutty = base.clone().with_scene_cuts(1.0).unwrap(); // every frame cuts
        let count_intra_in_predicted = |clip: &crate::profile::ClipProfile| {
            let w = synth.generate(clip, 1).unwrap();
            w.frames()
                .iter()
                .filter(|f| f.kind() != FrameKind::I)
                .flat_map(|f| f.macroblocks().iter())
                .filter(|m| matches!(m.class, MacroblockClass::Intra { .. }))
                .count()
        };
        let without = count_intra_in_predicted(&base);
        let with = count_intra_in_predicted(&cutty);
        assert!(
            with > 10 * without.max(1),
            "scene cuts must flood predicted frames with intra MBs: {without} -> {with}"
        );
    }

    #[test]
    fn zero_scene_cut_rate_preserves_streams() {
        // The calibrated default streams must be bit-identical whether the
        // knob exists or not (rate 0 draws no extra randomness).
        let synth = Synthesizer::new(small_params());
        let base = standard_clips()[4].clone();
        let explicit_zero = base.clone().with_scene_cuts(0.0).unwrap();
        let a = synth.generate(&base, 1).unwrap();
        let b = synth.generate(&explicit_zero, 1).unwrap();
        assert_eq!(a.pe2_demands(), b.pe2_demands());
    }

    #[test]
    fn scene_cut_rate_validation() {
        let base = standard_clips()[0].clone();
        assert!(base.clone().with_scene_cuts(1.5).is_err());
        assert!(base.clone().with_scene_cuts(-0.1).is_err());
        assert!(base.with_scene_cuts(0.5).is_ok());
    }

    #[test]
    fn cbr_normalization_hits_frame_budgets() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[6], 2).unwrap();
        for f in w.frames() {
            let target = synth.frame_bit_target(f.kind());
            let actual: f64 = f.macroblocks().iter().map(|m| f64::from(m.bits)).sum();
            // Rounding and the 1-bit floor leave a small error.
            assert!(
                (actual - target).abs() / target < 0.02,
                "{:?}: {} vs {}",
                f.kind(),
                actual,
                target
            );
        }
    }

    #[test]
    fn gop_bits_sum_to_cbr_budget() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[6], 1).unwrap();
        let per_gop_budget = synth.params().bits_per_frame() * 12.0;
        let actual = w.total_bits() as f64;
        assert!((actual - per_gop_budget).abs() / per_gop_budget < 0.02);
    }

    #[test]
    fn demand_variability_exists_within_frames() {
        let synth = Synthesizer::new(small_params());
        let w = synth.generate(&standard_clips()[9], 1).unwrap();
        let demands = w.pe2_demands();
        let max = demands.iter().max().unwrap();
        let min = demands.iter().min().unwrap();
        assert!(max > &(min * 10), "demand spread too small: {min}–{max}");
    }
}
