use std::error::Error;
use std::fmt;

/// Error returned by the MPEG workload model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpegError {
    /// A parameter was out of range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
}

impl fmt::Display for MpegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpegError::InvalidParameter { name } => {
                write!(f, "invalid value for parameter `{name}`")
            }
        }
    }
}

impl Error for MpegError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        let e = MpegError::InvalidParameter { name: "fps" };
        assert!(e.to_string().contains("fps"));
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<MpegError>();
    }
}
