//! Decomposed, persistence-ready state of what a server loads: the §5
//! [`crate::Index`] and the §7 links over it.
//!
//! An [`crate::Index`] is taken apart into an [`IndexState`] (`to_snapshot`
//! / `from_snapshot`) holding exactly the query-critical state, each fact
//! once (so assembly checks that the one copy is valid, never that two agree):
//!
//! * the source model (uncertain string, correlations) — in memory the
//!   index holds it only as its verification plane, so `to_snapshot`
//!   rebuilds the string bit for bit and `from_snapshot` builds the plane
//!   from it and drops it,
//! * the paper's §4 machinery as one [`SubstrateState`]:
//!   * a [`ScoredTextState`] — the **only copy** of the deterministic text,
//!     with its `(SA, LCP)` arrays (the suffix tree is rebuilt from these in
//!     one linear, deterministic pass; separators are its zero bytes),
//!   * per-level RMQ champion indices and duplicate masks (champion
//!     *values* are re-derived from the cumulative array on reassembly,
//!     read through each slot's run to the next separator),
//! * the Lemma-2 position map beside it, as each factor's source start.
//!
//! `C` is not stored: the model and the map already say it, and
//! `from_snapshot` sums it again with the build's own code, bit for bit.
//!
//! The ε-link table of an [`crate::ApproxIndex`] built
//! [`over`](crate::ApproxIndex::over) an index is an [`ApproxLinksState`]
//! that hangs off the [`IndexState`]'s text: a link stores a *witness* text
//! position, not its source position or probability — the position map and
//! `C` give both back. [`crate::SpecialIndex`], [`crate::ListingIndex`]
//! and a stand-alone [`crate::ApproxIndex`] have no state: nothing loads
//! one, so each is built from its input whenever it is wanted.
//!
//! A state says what `build` produces and a query reads, nothing else:
//! level lengths are the ladder its text derives. So a loaded index is a
//! built index.
//!
//! The byte-level encoding of these structs lives in the `ustr-store` crate;
//! this module only defines the shapes. Assembly is invariant-checked (the
//! tree and levels by the crate-private substrate, the links against that
//! tree), so a structurally inconsistent state is an
//! [`crate::Error::InvalidSnapshot`]. Reassembly never recomputes the
//! expensive parts of construction (SA-IS, the Lemma-2 transform, level
//! mask sweeps, the link search; a link's probability is one `canon::exp`
//! of a `C` window, as the build computed it) and produces an index that
//! answers every query identically to the freshly built original.

use ustr_uncertain::UncertainString;

use crate::stats::BuildStats;

/// The deterministic text of an index with its suffix structure — what
/// pattern loci are read from, and, with the model and the position map,
/// window probabilities; no state struct holds either a second time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTextState {
    /// The indexed deterministic text (no virtual terminator; 0 = separator).
    pub text: Vec<u8>,
    /// Plain suffix array of `text`.
    pub sa: Vec<u32>,
    /// LCP array of `text` (`lcp[0] = 0`).
    pub lcp: Vec<u32>,
}

/// Persistent representation of one short RMQ level.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortLevelParts {
    /// Duplicate-elimination mask, 64 slots per word.
    pub mask_words: Vec<u64>,
    /// Champion index of every 64-slot block.
    pub champions: Vec<u32>,
}

/// Persistent representation of one long (blocking-scheme) level: the
/// `k`-th has filter length and block size `L·2ᵏ`, `L` the short count.
#[derive(Debug, Clone, PartialEq)]
pub struct LongLevelParts {
    /// Champion index of every block.
    pub champions: Vec<u32>,
}

/// Persistent representation of all RMQ levels of an index: exactly
/// `L = ⌈log₂(slots + 1)⌉` short levels and a long level for every `L·2ᵏ`
/// up to the text length.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelsParts {
    /// Short levels, in pattern-length order (`1..=short.len()`).
    pub short: Vec<ShortLevelParts>,
    /// Long levels, in increasing filter-length order.
    pub long: Vec<LongLevelParts>,
}

/// The §4 machinery of an index: scored text plus per-length RMQ levels.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateState {
    /// Text and suffix structure.
    pub text: ScoredTextState,
    /// Per-length RMQ levels over `text`.
    pub levels: LevelsParts,
}

/// Snapshot state of a general substring [`crate::Index`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexState {
    /// The source uncertain string (with correlations).
    pub source: UncertainString,
    /// Lemma-2 position map: per stretch of the text (position 0 and every
    /// position after a separator start one), the source position its
    /// characters read from, one by one.
    pub starts: Vec<u32>,
    /// The §4 machinery over the transformed text.
    pub substrate: SubstrateState,
    /// Construction-time threshold.
    pub tau_min: f64,
    /// Build statistics (the original build's numbers).
    pub stats: BuildStats,
}

/// One ε-refined link of an [`crate::ApproxIndex`], as plain data.
///
/// Links are the §7 sub-link table: each connects an origin endpoint at
/// `origin_depth` to a target endpoint at `target_depth` along the path from
/// a marked suffix-tree node toward the root. Its source position and
/// probability are not stored: both are read at its `witness`, a text
/// position whose leaf lies below the origin node — the position map gives
/// the one, the cumulative array `C` (the window of `origin_depth`
/// characters there, capped at the next separator) the other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxLinkState {
    /// Key of the (real) node anchoring the origin endpoint, as the suffix
    /// tree keys it ([`ustr_suffix::SuffixTree::node_key`]): `2·j + 1` for
    /// leaf `j`, `2·k` for the internal node whose first ℓ-index is `k`.
    pub origin: u32,
    /// String depth of the origin endpoint (at most the node's own).
    pub origin_depth: u32,
    /// String depth of the target endpoint (`< origin_depth`).
    pub target_depth: u32,
    /// Text position of a suffix below the origin node, on no separator.
    pub witness: u32,
}

/// The ε-link table of an [`crate::ApproxIndex`] built
/// [`over`](crate::ApproxIndex::over) an [`crate::Index`]: everything the
/// links add to the text they hang off, which the index's state holds.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxLinksState {
    /// The ε-refined sub-link table, sorted by `origin` (the min-RMQ
    /// over target depths is rebuilt from this on reassembly).
    pub links: Vec<ApproxLinkState>,
    /// The additive error bound ε.
    pub epsilon: f64,
    /// What building the links took.
    pub build_time: std::time::Duration,
}

/// Shorthand for snapshot-assembly failures.
pub(crate) fn invalid(detail: impl Into<String>) -> crate::Error {
    crate::Error::InvalidSnapshot {
        detail: detail.into(),
    }
}
