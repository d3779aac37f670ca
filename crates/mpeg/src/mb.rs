//! Macroblock-level coding decisions.

use crate::params::FrameKind;

/// Motion-compensation mode of an inter-coded macroblock.
///
/// Field-based prediction doubles the reference fetches (two half-height
/// fields instead of one frame block), so the field variants cost roughly
/// twice their frame counterparts on PE₂ — `BidirectionalField` is the
/// worst legal macroblock of MPEG-2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MotionKind {
    /// No motion vector (zero-MV prediction).
    None,
    /// Single-direction (forward or backward) frame prediction.
    Single,
    /// Single-direction field prediction (two field fetches).
    SingleField,
    /// Bidirectional frame prediction (two reference fetches + average).
    Bidirectional,
    /// Bidirectional field prediction (four field fetches + average) —
    /// the most expensive MC mode.
    BidirectionalField,
}

/// The coding class of one macroblock — everything the cycle-cost model
/// needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MacroblockClass {
    /// Intra-coded: all blocks from the bitstream, no prediction.
    Intra {
        /// Number of coded 8×8 blocks (1–6; intra macroblocks always code
        /// at least the four luminance blocks in practice).
        coded_blocks: u8,
    },
    /// Inter-coded: motion-compensated prediction plus a coded residual.
    Inter {
        /// Motion-compensation mode.
        motion: MotionKind,
        /// Number of coded residual blocks (0–6).
        coded_blocks: u8,
    },
    /// Skipped: copy of the co-located/predicted macroblock, no residual.
    Skipped,
}

impl MacroblockClass {
    /// Number of coded 8×8 blocks (0 for skipped macroblocks).
    #[must_use]
    pub fn coded_blocks(&self) -> u8 {
        match *self {
            MacroblockClass::Intra { coded_blocks } => coded_blocks,
            MacroblockClass::Inter { coded_blocks, .. } => coded_blocks,
            MacroblockClass::Skipped => 0,
        }
    }

    /// Whether any motion compensation is performed.
    #[must_use]
    pub fn uses_motion(&self) -> bool {
        matches!(
            self,
            MacroblockClass::Inter {
                motion: MotionKind::Single
                    | MotionKind::SingleField
                    | MotionKind::Bidirectional
                    | MotionKind::BidirectionalField,
                ..
            } | MacroblockClass::Skipped
        )
    }
}

/// One synthesized macroblock.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Macroblock {
    /// Kind of the enclosing picture.
    pub frame: FrameKind,
    /// Coding class.
    pub class: MacroblockClass,
    /// Compressed size in bits.
    pub bits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coded_blocks_accessor() {
        assert_eq!(MacroblockClass::Skipped.coded_blocks(), 0);
        assert_eq!(MacroblockClass::Intra { coded_blocks: 6 }.coded_blocks(), 6);
        assert_eq!(
            MacroblockClass::Inter {
                motion: MotionKind::Single,
                coded_blocks: 3
            }
            .coded_blocks(),
            3
        );
    }

    #[test]
    fn motion_usage() {
        assert!(MacroblockClass::Skipped.uses_motion());
        assert!(!MacroblockClass::Intra { coded_blocks: 4 }.uses_motion());
        assert!(!MacroblockClass::Inter {
            motion: MotionKind::None,
            coded_blocks: 2
        }
        .uses_motion());
        assert!(MacroblockClass::Inter {
            motion: MotionKind::Bidirectional,
            coded_blocks: 2
        }
        .uses_motion());
    }
}
