//! Character-level uncertain string model (Sections 1, 3, 5.1 of
//! Thankachan et al., EDBT 2016).
//!
//! An *uncertain string* assigns, at every position, a set of
//! `(character, probability)` choices. This crate provides:
//!
//! * [`UncertainChar`] / [`UncertainString`] — the model, with parsing,
//!   validation, and exact occurrence-probability evaluation
//!   ([`UncertainString::match_probability`]).
//! * [`Correlation`] / [`CorrelationSet`] — the pairwise correlation model of
//!   §3.3 (`pr⁺` when the conditioning character is present, `pr⁻` when
//!   absent, total-probability marginal when outside the window).
//! * Possible-world semantics ([`UncertainString::possible_worlds`]) used as
//!   the ground-truth oracle in tests.
//! * [`SpecialUncertainString`] — Definition 1: one probabilistic character
//!   per position.
//! * [`transform`] — the Lemma-2 reduction from a general uncertain string to
//!   a special one by concatenating *extended maximal factors* with respect
//!   to a construction-time threshold `τmin`, together with the position
//!   mapping `Pos` used to report original offsets.
//! * [`ProbPlane`] / [`MatchKernel`] — the flat `pos × σ` probability plane
//!   and its zero-allocation verification kernel: bit-identical to
//!   [`UncertainString::log_match_probability`], but evaluated as a tight
//!   flat-array loop (see [`plane`]). Every query executor in the workspace
//!   verifies its candidates through one kernel call,
//!   [`MatchKernel::verify`], and counts them once per [`Scan`].
//! * [`codes`] — probabilities as codes into a table of their distinct
//!   values, at the narrowest width that numbers the table: the plane's
//!   cells, and an index's text in `ustr-core`.

#![forbid(unsafe_code)]

pub mod canon;
mod chars;
pub mod codes;
mod correlation;
mod error;
pub mod kstats;
pub mod plane;
mod special;
pub mod split;
mod string;
mod transform;
mod worlds;

pub use chars::UncertainChar;
pub use correlation::{Correlation, CorrelationSet};
pub use error::ModelError;
pub use plane::{MatchKernel, ProbPlane, Scan};
pub use special::SpecialUncertainString;
pub use string::UncertainString;
pub use transform::{transform, Transformed, MAX_TEXT_LEN, NO_POSITION, SENTINEL};
pub use worlds::DEFAULT_WORLD_LIMIT;

/// Relative tolerance of every probability comparison (products of hundreds
/// of floats accumulate rounding error): [`canon::log_meets_threshold`]
/// admits `p ≥ τ·e^−PROB_EPS`. A model probability given up to
/// 1 + PROB_EPS is stored as 1 ([`UncertainChar::new`]).
pub const PROB_EPS: f64 = 1e-9;
