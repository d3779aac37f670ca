use std::error::Error;
use std::fmt;

/// Error returned by event-type and trace constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// `bcet > wcet` in an execution interval.
    InvertedInterval {
        /// Offered best-case demand.
        bcet: u64,
        /// Offered worst-case demand.
        wcet: u64,
    },
    /// An event type name was registered twice.
    DuplicateType {
        /// The offending name.
        name: String,
    },
    /// An [`crate::EventType`] does not belong to the registry it was used
    /// with.
    UnknownType {
        /// The foreign type index.
        index: usize,
    },
    /// Timestamps of a timed trace were not non-decreasing.
    UnsortedTimestamps {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// A numeric parameter was invalid (negative, NaN, zero where positive
    /// is required).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// Raw summary parts violated a [`crate::summary::CurveSummary`]
    /// structural invariant (deserialized or hand-built parts only —
    /// the in-crate constructors cannot produce this).
    InvalidSummary {
        /// The violated invariant.
        what: &'static str,
    },
    /// A result does not fit `u64`, e.g. a window sum of demands near
    /// `u64::MAX`.
    Overflow {
        /// What overflowed.
        what: &'static str,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::InvertedInterval { bcet, wcet } => {
                write!(f, "bcet {bcet} exceeds wcet {wcet}")
            }
            EventError::DuplicateType { name } => {
                write!(f, "event type `{name}` registered twice")
            }
            EventError::UnknownType { index } => {
                write!(f, "event type index {index} not in this registry")
            }
            EventError::UnsortedTimestamps { index } => {
                write!(f, "timestamps not sorted at event {index}")
            }
            EventError::InvalidParameter { name } => {
                write!(f, "invalid value for parameter `{name}`")
            }
            EventError::InvalidSummary { what } => {
                write!(f, "invalid summary parts: {what}")
            }
            EventError::Overflow { what } => write!(f, "{what} exceeds u64::MAX"),
        }
    }
}

impl Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_offending_data() {
        let e = EventError::DuplicateType {
            name: "vld".into(),
        };
        assert!(e.to_string().contains("vld"));
        let e = EventError::InvertedInterval { bcet: 9, wcet: 3 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<EventError>();
    }
}
