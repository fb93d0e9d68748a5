//! Baselines and test oracles for uncertain-string searching.
//!
//! The paper positions its indexes against two kinds of competition:
//!
//! * the *online* algorithmic approach of Li et al. \[20\], which scans the
//!   uncertain string per query — reproduced here as [`NaiveScanner`]
//!   (per-position product with early termination) and the exact
//!   KMP-automaton containment DP ([`containment_probability`]);
//! * the paper's own *simple index* (§4.1): suffix range + exhaustive
//!   scan + cumulative-probability verification — reproduced as
//!   [`SimpleIndex`], whose scan `tests/paper_axes.rs` counts (the ablation).
//!
//! [`PossibleWorldOracle`] enumerates possible worlds outright and serves as
//! the ground truth for every property test in the workspace.
//!
//! [`ScanIndex`] packages the scan strategy as a per-document engine
//! whose only construction cost is the flat
//! [`ProbPlane`](ustr_uncertain::ProbPlane) (no transform, no suffix tree)
//! and whose answers are bit-identical to a built index — the serving path
//! for documents too young to have been indexed (the `ustr-live`
//! memtable). Its scan prefilters candidate starts with the plane's
//! first-pattern-character presence row and verifies through the
//! [`MatchKernel`](ustr_uncertain::MatchKernel) flat loop.

#![forbid(unsafe_code)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

mod dp;
mod exec;
mod oracle;
mod scan;
mod simple;

pub use dp::{containment_probability, kmp_delta, prefix_function};
pub use exec::ScanIndex;
pub use oracle::PossibleWorldOracle;
pub use scan::NaiveScanner;
pub use simple::SimpleIndex;
