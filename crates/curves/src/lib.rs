//! Network-/Real-Time-Calculus curve algebra.
//!
//! This crate is the mathematical substrate for the workload-curve model of
//! Maxiaguine, Künzli and Thiele (DATE 2004). It provides:
//!
//! * [`Pwl`] — wide-sense increasing piecewise-linear curves over
//!   `Δ ∈ [0, ∞)` with an ultimately affine tail, the representation used for
//!   arrival curves `α(Δ)` and service curves `β(Δ)`;
//! * [`StepCurve`] — integer-valued staircase curves, the natural shape of
//!   *empirical* arrival curves measured from event traces;
//! * pointwise operations (min, max, add, subtraction clamped at zero,
//!   scaling, shifting) in [`ops`](crate::pwl);
//! * min-plus convolution `⊗`, deconvolution `⊘` and the sub-additive
//!   closure in [`minplus`];
//! * a lazy, composable streaming form of the same algebra in [`iter`]
//!   (operator chains as segment iterators; the min-plus operators are
//!   such streams, collected by their materializing names);
//! * the classic Network Calculus bounds in [`bounds`]: backlog
//!   `B ≤ sup_{Δ≥0} (α(Δ) − β(Δ))` (eq. 6 of the paper), delay as the
//!   horizontal deviation, and the output arrival curve `α′ = α ⊘ β`;
//! * standard arrival-curve models ([`arrival`]: periodic-with-jitter,
//!   leaky bucket) and service-curve models ([`service`]: rate-latency,
//!   full-capacity `β(Δ) = F·Δ`, TDMA, bounded-delay).
//!
//! # Example
//!
//! Backlog bound for a leaky-bucket flow served by a rate-latency server
//! (the textbook instance of Fig. 3 of the paper):
//!
//! ```
//! use wcm_curves::{arrival::LeakyBucket, service::RateLatency, bounds};
//!
//! # fn main() -> Result<(), wcm_curves::CurveError> {
//! let alpha = LeakyBucket::new(5.0, 10.0)?.to_pwl(); // burst 5, rate 10
//! let beta = RateLatency::new(20.0, 0.5)?.to_pwl();  // rate 20, latency 0.5
//! let backlog = bounds::backlog(&alpha, &beta)?;
//! assert!((backlog - 10.0).abs() < 1e-9); // α(0.5) = 5 + 10·0.5 = 10
//! # Ok(())
//! # }
//! ```
//!
//! All curves are functions of a *time interval* `Δ`, not of absolute time:
//! an upper arrival curve bounds the events seen in any window of length `Δ`,
//! a lower service curve bounds the service guaranteed in any window of
//! length `Δ`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod bounds;
mod error;
pub mod iter;
pub mod minplus;
mod num;
pub mod pwl;
pub mod service;
pub mod shaper;
pub mod step;

pub use error::CurveError;
pub use iter::{CurveIter, LazyCurve};
pub use num::{approx_eq, approx_ge, approx_le, EPSILON};
pub use pwl::{Pwl, Segment};
pub use step::StepCurve;
