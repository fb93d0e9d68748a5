//! Decomposed, persistence-ready state of the index types.
//!
//! Each of the four index types — [`crate::SpecialIndex`], [`crate::Index`],
//! [`crate::ListingIndex`] and [`crate::ApproxIndex`] — can be taken apart
//! into a plain-data *snapshot state* struct (`to_snapshot` /
//! `from_snapshot`) holding exactly the query-critical state, each array
//! once (so assembly checks that the one copy is valid, never that two agree):
//!
//! * the source model (uncertain string(s), correlations) — in memory an
//!   index holds it only as its verification plane(s), so `to_snapshot`
//!   rebuilds the strings bit for bit and `from_snapshot` builds the planes
//!   from them and drops them,
//! * the paper's §4 machinery as one [`SubstrateState`], the same shape in
//!   every index that has it:
//!   * a [`ScoredTextState`] — the **only copy** of the deterministic text
//!     and its probabilities: the text with its `(SA, LCP)` arrays (the
//!     suffix tree is rebuilt from these in one linear, deterministic pass)
//!     and the cumulative log-probability prefix sums (serialized verbatim
//!     so window evaluations stay bit-identical; separators are recounted),
//!   * per-level RMQ champion indices and duplicate masks (champion
//!     *values* are re-derived from the cumulative array on reassembly),
//! * each index's own map beside it: the Lemma-2 position map (§5) or the
//!   document maps (§6),
//! * the ε-link table (§7) as an [`ApproxLinksState`] that hangs off an
//!   [`IndexState`]'s text: a link stores a *witness* text position, not
//!   its source position or probability — the position map and `C` give
//!   both back. A stand-alone approximate index ([`ApproxIndexState`])
//!   carries the scored text and position map an `Index` would.
//!
//! A state says what `build` produces and a query reads, nothing else:
//! level lengths are the ladder its text derives, and what only
//! construction needs (the listing index's document offsets) is not in
//! it. So a loaded index is a built index.
//!
//! The byte-level encoding of these structs lives in the `ustr-store` crate;
//! this module only defines the shapes. Assembly is invariant-checked in
//! one place for all four types (the crate-private substrate), so a
//! structurally inconsistent state is an [`crate::Error::InvalidSnapshot`]
//! whichever index it was addressed to. Reassembly never recomputes the
//! expensive parts of construction (SA-IS, the Lemma-2 transform, level
//! mask sweeps, the link search; a link's probability is one `canon::exp`
//! of a `C` window, as the build computed it) and produces an index that
//! answers every query identically to the freshly built original.

use ustr_uncertain::UncertainString;

use crate::stats::BuildStats;

/// The deterministic text of an index with its suffix structure and
/// cumulative probabilities — what window probabilities and pattern loci
/// are read from; no state struct holds either a second time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTextState {
    /// The indexed deterministic text (no virtual terminator; 0 = separator).
    pub text: Vec<u8>,
    /// Plain suffix array of `text`.
    pub sa: Vec<u32>,
    /// LCP array of `text` (`lcp[0] = 0`).
    pub lcp: Vec<u32>,
    /// Prefix sums of per-position log probabilities (`len + 1` entries).
    pub prefix: Vec<f64>,
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
    /// Text, suffix structure and cumulative probabilities.
    pub text: ScoredTextState,
    /// Per-length RMQ levels over `text`.
    pub levels: LevelsParts,
}

/// Snapshot state of a general substring [`crate::Index`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexState {
    /// The source uncertain string (with correlations).
    pub source: UncertainString,
    /// Lemma-2 position map: text position → source position (`u32::MAX`
    /// at separators).
    pub pos: Vec<u32>,
    /// The §4 machinery over the transformed text.
    pub substrate: SubstrateState,
    /// Construction-time threshold.
    pub tau_min: f64,
    /// Build statistics (the original build's numbers).
    pub stats: BuildStats,
}

/// Snapshot state of a [`crate::SpecialIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecialIndexState {
    /// Probability of every character of the indexed string (the
    /// characters are `substrate.text.text`).
    pub probs: Vec<f64>,
    /// Correlations attached at build time, as plain rows.
    pub correlations: Vec<ustr_uncertain::Correlation>,
    /// The §4 machinery over the string's characters.
    pub substrate: SubstrateState,
    /// Build statistics.
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
    /// Preorder rank of the (real) node anchoring the origin endpoint.
    pub origin_pre: u32,
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
    /// The ε-refined sub-link table, sorted by `origin_pre` (the min-RMQ
    /// over target depths is rebuilt from this on reassembly).
    pub links: Vec<ApproxLinkState>,
    /// The additive error bound ε.
    pub epsilon: f64,
    /// What building the links took.
    pub build_time: std::time::Duration,
}

/// Snapshot state of a stand-alone [`crate::ApproxIndex`]: the scored text
/// and position map an [`crate::Index`] over the same source holds, and the
/// links over them.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxIndexState {
    /// The transformed text, its suffix structure and cumulative
    /// probabilities.
    pub text: ScoredTextState,
    /// Lemma-2 position map: text position → source position (`u32::MAX`
    /// at separators).
    pub pos: Vec<u32>,
    /// Construction-time threshold.
    pub tau_min: f64,
    /// Build statistics.
    pub stats: BuildStats,
    /// The ε-refined sub-link table, sorted by `origin_pre`.
    pub links: Vec<ApproxLinkState>,
    /// The additive error bound ε.
    pub epsilon: f64,
}

/// Snapshot state of a [`crate::ListingIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct ListingIndexState {
    /// The indexed collection.
    pub docs: Vec<UncertainString>,
    /// The §4 machinery over the concatenated transformed texts.
    pub substrate: SubstrateState,
    /// Transformed position → document id (`u32::MAX` at separators).
    pub doc_of: Vec<u32>,
    /// Transformed position → offset within its document.
    pub src_of: Vec<u32>,
    /// Construction-time threshold.
    pub tau_min: f64,
    /// Build statistics.
    pub stats: BuildStats,
}

/// Shorthand for snapshot-assembly failures.
pub(crate) fn invalid(detail: impl Into<String>) -> crate::Error {
    crate::Error::InvalidSnapshot {
        detail: detail.into(),
    }
}
