//! Decomposed, persistence-ready state of what a server loads: the §5
//! [`crate::Index`].
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
//!     with the `(SA, LCP)` arrays of the suffixes a query can reach (the
//!     suffix tree is rebuilt from these in one linear, deterministic pass;
//!     separators are its zero bytes),
//!   * one visibility byte per slot, which says at which short levels a
//!     slot is a duplicate, and per-level RMQ champion indices (champion
//!     *values* are re-derived from the text's value codes on reassembly,
//!     read through each slot's run to the next separator),
//! * the Lemma-2 position map beside it, as each factor's source start.
//!
//! The text's probabilities (its value codes) are not stored: the model and
//! the map already say them, and `from_snapshot` codes them again with the
//! build's own code, bit for bit.
//!
//! [`crate::SpecialIndex`], [`crate::ListingIndex`] and
//! [`crate::ApproxIndex`] have no state: nothing loads one, so each is built
//! from its input whenever it is wanted.
//!
//! A state says what `build` produces and a query reads, nothing else:
//! level lengths are the ladder its text derives. So a loaded index is a
//! built index.
//!
//! The byte-level encoding of these structs lives in the `ustr-store` crate;
//! this module only defines the shapes. Assembly is invariant-checked (the
//! tree and levels by the crate-private substrate), so a structurally
//! inconsistent state is an [`crate::Error::InvalidSnapshot`]. Reassembly
//! never recomputes the expensive parts of construction (SA-IS, the Lemma-2
//! transform, the level sweeps) and produces an index that answers every
//! query identically to the freshly built original.

use ustr_uncertain::UncertainString;

/// The deterministic text of an index with its suffix structure — what
/// pattern loci are read from, and, with the model and the position map,
/// window probabilities; no state struct holds either a second time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTextState {
    /// The indexed deterministic text (no virtual terminator; 0 = separator).
    pub text: Vec<u8>,
    /// The suffixes of `text` a query can reach, in suffix order: its suffix
    /// array without the separators' entries and the redundant ones (a
    /// window another entry of the same source position extends, or repeats
    /// before it).
    pub sa: Vec<u32>,
    /// LCP of each entry of `sa` with the one before (`lcp[0] = 0`).
    pub lcp: Vec<u32>,
}

/// Persistent representation of one short RMQ level.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortLevelParts {
    /// Champion index of every 64-slot block.
    pub champions: Vec<u32>,
}

/// Persistent representation of one long (blocking-scheme) level: the
/// first has filter length and block size `L`, the short count, the second
/// `2L`.
#[derive(Debug, Clone, PartialEq)]
pub struct LongLevelParts {
    /// Champion index of every block.
    pub champions: Vec<u32>,
}

/// Persistent representation of all RMQ levels of an index: exactly
/// `L = ⌈log₂(slots + 1)⌉` short levels, and long levels of lengths `L` and
/// `2L`, each where the text has a separator-free stretch that long.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelsParts {
    /// Duplicate elimination for every short level, one byte per slot: the
    /// short level of length `m` shows slot `j` iff `visibility[j] < m`.
    /// The entry is the minimum LCP since the previous slot with the same
    /// source position, capped at `L`; 0 when there is none, and 255 at the
    /// terminator.
    pub visibility: Vec<u8>,
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
}

/// Shorthand for snapshot-assembly failures.
pub(crate) fn invalid(detail: impl Into<String>) -> crate::Error {
    crate::Error::InvalidSnapshot {
        detail: detail.into(),
    }
}
