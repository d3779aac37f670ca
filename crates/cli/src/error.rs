//! Typed CLI errors with stable exit codes.
//!
//! Every failure path of the binary maps to one [`CliError`] variant, and
//! each variant to a documented exit code, so scripts can branch on *why*
//! a run failed instead of parsing stderr:
//!
//! | code | meaning                                            |
//! |------|----------------------------------------------------|
//! | 0    | success                                            |
//! | 1    | analysis error (invalid model parameters, overflow) |
//! | 2    | usage error (unknown subcommand, bad options)       |
//! | 3    | input error (unreadable or malformed trace file)    |
//! | 4    | envelope-monitor violations (`faults --monitor on`) |
//!
//! The `trace` subcommand reuses these numbers with a stream-oriented
//! reading — the one documented exception to the table above: 0 = decoded
//! clean, 2 = stream decodes to no events ([`CliError::WireEmpty`]), 3 =
//! malformed or truncated ([`CliError::WireMalformed`], [`CliError::Truncated`]),
//! 4 = partial decode, corrupt frames skipped ([`CliError::WirePartial`]).
//! The numbers stay in their classes (2 "nothing to do", 3 "bad input",
//! 4 "ran fine, degraded outcome"), so scripts branching on the global
//! table still do the right thing.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// A failure of the `wcm-cli` binary, carrying enough context to point at
/// the offending file, line and token.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Command line itself is wrong: unknown subcommand, malformed or
    /// missing options. Exit code 2.
    Usage(String),
    /// A trace file could not be read. Exit code 3.
    Io {
        /// The file that failed.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A token in a trace file did not parse. Exit code 3.
    Parse {
        /// The file containing the token.
        path: PathBuf,
        /// 1-indexed line of the first offending token.
        line: usize,
        /// The offending token itself.
        token: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A trace file contained no values (only comments/whitespace).
    /// Exit code 3.
    Empty {
        /// The empty file.
        path: PathBuf,
    },
    /// Timestamps in a trace file decreased. Exit code 3.
    Unsorted {
        /// The file with the regression.
        path: PathBuf,
        /// 1-indexed line on which time went backwards.
        line: usize,
    },
    /// The analysis itself failed (library error: invalid parameters,
    /// overflow, inconsistent model). Exit code 1.
    Analysis(String),
    /// The envelope monitor flagged demand outside the workload curve.
    /// Exit code 4 — distinct from errors so scripts can treat "ran fine,
    /// bound broken" as a first-class outcome.
    Violations {
        /// Total violations across all window sizes.
        count: u64,
    },
    /// An input file ended mid-record (truncated transfer). Exit code 3,
    /// reported as `file:line:byte` so the cut point is findable.
    Truncated {
        /// The truncated file.
        path: PathBuf,
        /// 1-indexed line of the cut (1 for binary streams).
        line: usize,
        /// Absolute byte offset of the cut.
        byte: usize,
    },
    /// A binary wire stream was malformed (bad magic, CRC failure,
    /// structural violation). Exit code 3.
    WireMalformed {
        /// The offending file.
        path: PathBuf,
        /// Byte offset where decoding failed.
        offset: usize,
        /// The decoder's reason.
        reason: String,
    },
    /// A wire stream decoded cleanly but contained no events. Exit code 2
    /// (the `trace` contract's "nothing to do").
    WireEmpty {
        /// The empty stream.
        path: PathBuf,
    },
    /// A lenient decode survived by skipping corrupt frames. Exit code 4:
    /// usable output was produced, but it is not the whole stream.
    WirePartial {
        /// The damaged file.
        path: PathBuf,
        /// Frames (damage regions) skipped.
        frames_skipped: u64,
        /// Bytes lost while resynchronising.
        bytes_lost: u64,
    },
}

impl CliError {
    /// The stable process exit code for this error.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Analysis(_) => 1,
            CliError::Usage(_) | CliError::WireEmpty { .. } => 2,
            CliError::Io { .. }
            | CliError::Parse { .. }
            | CliError::Empty { .. }
            | CliError::Unsorted { .. }
            | CliError::Truncated { .. }
            | CliError::WireMalformed { .. } => 3,
            CliError::Violations { .. } | CliError::WirePartial { .. } => 4,
        }
    }

    /// Whether the usage text should accompany the message.
    #[must_use]
    pub fn wants_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            CliError::Parse {
                path,
                line,
                token,
                reason,
            } => write!(
                f,
                "{}:{line}: bad token `{token}`: {reason}",
                path.display()
            ),
            CliError::Empty { path } => write!(f, "{} contains no values", path.display()),
            CliError::Unsorted { path, line } => write!(
                f,
                "{}:{line}: timestamps must be sorted non-decreasingly",
                path.display()
            ),
            CliError::Analysis(msg) => write!(f, "{msg}"),
            CliError::Violations { count } => {
                write!(f, "envelope monitor flagged {count} violation(s)")
            }
            CliError::Truncated { path, line, byte } => write!(
                f,
                "{}:{line}:{byte}: unexpected end of file (truncated input)",
                path.display()
            ),
            CliError::WireMalformed {
                path,
                offset,
                reason,
            } => write!(
                f,
                "{}: malformed wire stream at byte {offset}: {reason}",
                path.display()
            ),
            CliError::WireEmpty { path } => {
                write!(f, "{}: stream decodes to no events", path.display())
            }
            CliError::WirePartial {
                path,
                frames_skipped,
                bytes_lost,
            } => write!(
                f,
                "{}: partial decode: skipped {frames_skipped} corrupt frame(s), lost {bytes_lost} byte(s)",
                path.display()
            ),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// Option parsing and ad-hoc validation produce plain strings; they are
// usage errors by construction.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

// An unusable sweep spec or shard set is the caller's to fix; anything
// else a sweep hits is an analysis failure.
impl From<wcm_sim::SweepError> for CliError {
    fn from(e: wcm_sim::SweepError) -> Self {
        match e {
            wcm_sim::SweepError::Invalid(what) => CliError::Usage(what.to_string()),
            other => CliError::Analysis(other.to_string()),
        }
    }
}

// Library errors surface as analysis failures.
macro_rules! analysis_from {
    ($($ty:path),* $(,)?) => {$(
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::Analysis(e.to_string())
            }
        }
    )*};
}
analysis_from!(
    wcm_core::WorkloadError,
    wcm_events::EventError,
    wcm_mpeg::MpegError,
    wcm_sim::SimError,
    wcm_curves::CurveError,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            CliError::Io {
                path: "t.txt".into(),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
            }
            .exit_code(),
            3
        );
        assert_eq!(
            CliError::Parse {
                path: "t.txt".into(),
                line: 7,
                token: "x".into(),
                reason: "nope".into(),
            }
            .exit_code(),
            3
        );
        assert_eq!(CliError::Analysis("x".into()).exit_code(), 1);
        assert_eq!(CliError::Violations { count: 3 }.exit_code(), 4);
        // The `trace` contract: 2 empty, 3 malformed/truncated, 4 partial.
        assert_eq!(CliError::WireEmpty { path: "t.wcmt".into() }.exit_code(), 2);
        assert_eq!(
            CliError::Truncated {
                path: "t.wcmt".into(),
                line: 1,
                byte: 96,
            }
            .exit_code(),
            3
        );
        assert_eq!(
            CliError::WireMalformed {
                path: "t.wcmt".into(),
                offset: 8,
                reason: "frame CRC mismatch".into(),
            }
            .exit_code(),
            3
        );
        assert_eq!(
            CliError::WirePartial {
                path: "t.wcmt".into(),
                frames_skipped: 2,
                bytes_lost: 40,
            }
            .exit_code(),
            4
        );
    }

    #[test]
    fn truncation_names_file_line_and_byte() {
        let e = CliError::Truncated {
            path: "report.csv".into(),
            line: 12,
            byte: 431,
        };
        let msg = e.to_string();
        assert!(msg.contains("report.csv:12:431"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn parse_error_points_at_file_line_and_token() {
        let e = CliError::Parse {
            path: "trace.txt".into(),
            line: 42,
            token: "-3".into(),
            reason: "invalid digit".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("trace.txt"));
        assert!(msg.contains(":42:"));
        assert!(msg.contains("`-3`"));
    }

    #[test]
    fn only_usage_errors_want_usage_text() {
        assert!(CliError::Usage("x".into()).wants_usage());
        assert!(!CliError::Analysis("x".into()).wants_usage());
        assert!(!CliError::Violations { count: 1 }.wants_usage());
    }
}
