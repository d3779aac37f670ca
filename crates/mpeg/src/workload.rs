//! Generated clip workloads and their per-macroblock demand vectors.

use crate::demand::{Pe1Model, Pe2Model};
use crate::mb::Macroblock;
use crate::params::{FrameKind, VideoParams};

/// One picture's worth of synthesized macroblocks.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FrameWorkload {
    kind: FrameKind,
    macroblocks: Vec<Macroblock>,
}

impl FrameWorkload {
    /// Creates a frame workload.
    #[must_use]
    pub fn new(kind: FrameKind, macroblocks: Vec<Macroblock>) -> Self {
        Self { kind, macroblocks }
    }

    /// The picture kind.
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The macroblocks in raster order.
    #[must_use]
    pub fn macroblocks(&self) -> &[Macroblock] {
        &self.macroblocks
    }

    /// Total compressed bits of the frame.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.macroblocks.iter().map(|m| u64::from(m.bits)).sum()
    }
}

/// A fully synthesized clip: frames in decode order with per-macroblock
/// sizes and the cost models that price them.
#[derive(Debug, Clone)]
pub struct ClipWorkload {
    name: String,
    params: VideoParams,
    pe1: Pe1Model,
    pe2: Pe2Model,
    frames: Vec<FrameWorkload>,
}

impl ClipWorkload {
    /// Assembles a clip from explicit frames — the synthesizer's output
    /// path, also usable to wrap externally-sourced (e.g. hand-crafted or
    /// measured) macroblock sequences.
    #[must_use]
    pub fn new(
        name: String,
        params: VideoParams,
        pe1: Pe1Model,
        pe2: Pe2Model,
        frames: Vec<FrameWorkload>,
    ) -> Self {
        Self {
            name,
            params,
            pe1,
            pe2,
            frames,
        }
    }

    /// Clip name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stream parameters the clip was generated for.
    #[must_use]
    pub fn params(&self) -> &VideoParams {
        &self.params
    }

    /// Frames in decode order.
    #[must_use]
    pub fn frames(&self) -> &[FrameWorkload] {
        &self.frames
    }

    /// Appends one picture (decoder/builder path — the wire codec
    /// reassembles clips picture by picture).
    pub fn push_frame(&mut self, frame: FrameWorkload) {
        self.frames.push(frame);
    }

    /// Total number of macroblocks.
    #[must_use]
    pub fn macroblock_count(&self) -> usize {
        self.frames.iter().map(|f| f.macroblocks.len()).sum()
    }

    /// Total compressed bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.frames.iter().map(FrameWorkload::bits).sum()
    }

    /// All macroblocks in decode order.
    pub fn macroblocks(&self) -> impl Iterator<Item = &Macroblock> + '_ {
        self.frames.iter().flat_map(|f| f.macroblocks.iter())
    }

    /// PE₂ (IDCT+MC) cycle demand per macroblock, decode order.
    #[must_use]
    pub fn pe2_demands(&self) -> Vec<u64> {
        self.macroblocks()
            .map(|m| self.pe2.cycles(m.class).get())
            .collect()
    }

    /// PE₁ (VLD+IQ) cycle demand per macroblock, decode order.
    #[must_use]
    pub fn pe1_demands(&self) -> Vec<u64> {
        self.macroblocks().map(|m| self.pe1.cycles(m).get()).collect()
    }

    /// Compressed bits per macroblock, decode order.
    #[must_use]
    pub fn mb_bits(&self) -> Vec<u64> {
        self.macroblocks().map(|m| u64::from(m.bits)).collect()
    }

    /// The PE₂ cost model in effect.
    #[must_use]
    pub fn pe2_model(&self) -> &Pe2Model {
        &self.pe2
    }

    /// The PE₁ cost model in effect.
    #[must_use]
    pub fn pe1_model(&self) -> &Pe1Model {
        &self.pe1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_clips;
    use crate::synth::Synthesizer;

    fn sample() -> ClipWorkload {
        let params = VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            crate::params::GopStructure::broadcast(),
        )
        .unwrap();
        Synthesizer::new(params)
            .generate(&standard_clips()[8], 1)
            .unwrap()
    }

    #[test]
    fn demand_vectors_align_with_macroblock_count() {
        let w = sample();
        assert_eq!(w.pe2_demands().len(), w.macroblock_count());
        assert_eq!(w.pe1_demands().len(), w.macroblock_count());
        assert_eq!(w.mb_bits().len(), w.macroblock_count());
    }

    #[test]
    fn total_bits_is_sum_of_frames() {
        let w = sample();
        let sum: u64 = w.frames().iter().map(FrameWorkload::bits).sum();
        assert_eq!(sum, w.total_bits());
        assert!(w.total_bits() > 0);
    }

    #[test]
    fn name_is_preserved() {
        assert_eq!(sample().name(), "cartoon");
    }
}
