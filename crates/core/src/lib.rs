//! The probabilistic threshold indexes of Thankachan, Patil, Shah, Biswas —
//! *"Probabilistic Threshold Indexing for Uncertain Strings"* (EDBT 2016).
//!
//! Four indexes over character-level uncertain strings, all parameterised by
//! a construction-time threshold `τmin` and answering queries for any
//! `τ ≥ τmin`. As in the paper, `τmin` is the only construction parameter
//! (plus ε for the approximate index; the special index, which needs no
//! transform, takes none): the level ladder is derived from the text an
//! index is built over.
//!
//! | Type | Paper | Problem | Service query mode |
//! |---|---|---|---|
//! | [`SpecialIndex`] | §4 | substring search in a *special* uncertain string (one probabilistic character per position) | — |
//! | [`Index`] | §5 | substring search in a general uncertain string | `Threshold`, `TopK` |
//! | [`ListingIndex`] | §6 | string listing from an uncertain collection, with [`RelMetric`] relevance | `Listing` |
//! | [`ApproxIndex`] | §7 | approximate substring search with additive error ε | `Approx` |
//!
//! The build-once/serve-forever persistence layer covers what a server
//! loads: an [`Index`] (`to_snapshot` / `from_snapshot`), as the
//! plain-data state structs in [`snapshot`]. [`SpecialIndex`],
//! [`ListingIndex`] and [`ApproxIndex`] are built from their input whenever
//! they are wanted. The byte encoding (magic, format version, checksum)
//! lives in the `ustr-store` crate (which also defines the single-file
//! *collection snapshot* container); the concurrent sharded serving engine
//! dispatching all four query modes over built or loaded indexes lives in
//! `ustr-service`, which answers `Approx` from the exact [`Index`] (the
//! exact answer keeps §7's sandwich by definition, and is as fast).
//!
//! The machinery follows the paper: the uncertain string is reduced to a
//! deterministic text (via the Lemma-2 maximal-factor transform for general
//! strings), a suffix tree provides pattern loci, the cumulative probability
//! array `C` gives O(1) window probabilities, per-length arrays `C_i` with
//! range-maximum structures drive the *report-in-decreasing-probability*
//! recursion, per-level duplicate elimination keeps output time proportional
//! to distinct results, and a geometric blocking scheme covers patterns
//! longer than `log n`.
//!
//! That is §4's machinery, and the paper has only the one: §5, §6 and §7
//! are the same engine under a Lemma-2 position map, a document map and an
//! ε-link table. So has this crate. One crate-private *substrate* (suffix
//! tree + `C` + levels) is the only code that builds, queries, measures,
//! decomposes and validates that triple; [`SpecialIndex`], [`Index`] and
//! [`ListingIndex`] are each "substrate + own map + own verification", and
//! [`ApproxIndex`] hangs its links off the substrate's level-free half
//! (suffix tree + `C`) and the position map. In [`snapshot`] the substrate
//! appears as one [`snapshot::SubstrateState`] inside an
//! [`snapshot::IndexState`]; the tree comes back through one validator.
//!
//! A loaded index is a built index: a state struct says what `build`
//! produces and a query reads, `from_snapshot` accepts only levels on the
//! ladder `build` derives, and `from_snapshot(x.to_snapshot())` has `x`'s
//! `heap_size()` and state (`tests/loaded_is_built.rs`).
//!
//! # Space
//!
//! The substrate holds the only copy of the transformed text and its
//! probabilities, and the verification plane the only copy of the source
//! model. What an [`Index`] keeps per *source* position on the benchmark's
//! `paper-string` workload (n = 100 000, 948 400 slots) — the rows of
//! [`Index::heap_breakdown`], which `ustr stats FILE` prints and
//! `tests/space_budget.rs` pins — at PR 21; after the suffix tree dropped
//! its node arena for a child table and the levels their sparse tables for
//! the linear-space block RMQ (PR 23); and after the plane became the model
//! (PR 26): probability rows only at the 30 % uncertain positions, their
//! choices verbatim, and no `UncertainString` beside it. The tables before
//! PR 26 left that source copy out: the last row, by a counting allocator.
//!
//! | structure | nodes, sparse tables | child table, block RMQ | plane as model | choices only | visibility bytes | `i16` child cells |
//! |---|---|---|---|---|---|---|
//! | text + SA + LCP | 85.4 | 85.4 | 85.4 | 56.9 | 56.9 | 56.9 |
//! | suffix-tree nodes + CSR children → child table | 293.0 | 37.9 | 37.9 | 37.9 | 37.9 | 19.1 |
//! | cumulative array `C` (prefix sums, separator counts) | 113.8 | 113.8 | 113.8 | 75.9 | 75.9 | 75.9 |
//! | visibility bytes (the short levels' duplicate elimination) | — | — | — | — | 9.5 | 9.5 |
//! | short levels (masks, champions, RMQ over champion values) | 200.4 | 84.7 | 84.7 | 84.7 | 61.0 | 61.0 |
//! | long levels (champions, RMQ over champion values) | 59.2 | 19.6 | 19.6 | 14.7 | 14.7 | 14.7 |
//! | position map → separator rank + factor bases | 37.9 | 37.9 | 37.9 | 5.7 | 5.7 | 5.7 |
//! | model (plane) | 184.0 | 184.0 | 75.0 | 33.1 | 33.1 | 33.1 |
//! | **`Index::heap_size()`** | **973.9** | **563.3** | **454.3** | **308.8** | **294.6** | **275.8** |
//! | source copy beside the plane, uncounted | 57.8 | 57.8 | — | — | — | — |
//!
//! Between the last two columns `C` came to keep its prefix sums alone
//! (no window a query reads crosses a separator: the window contract in
//! `carray.rs`), and the position map became a separator rank (2.4) and
//! one base per factor (3.3): `Index::heap_size()` was 384.1. The suffix
//! tree then took its LCP at a byte per slot, and the long levels end at
//! the longest factor, 42 characters, instead of the text length (two
//! levels where there were 16): `Index::heap_size()` was 350.8. Then the
//! plane stopped keeping σ = 22 cells at each uncertain position, most of
//! them −∞: it holds one `ln p` cell per choice and a one-word
//! rank-bitmap record per uncertain row, and gets the choices' bytes back
//! from the record's bits (the fourth column). Last, the short levels'
//! duplicate masks, a bit per slot at each of the 20 levels (23.7), became
//! one visibility byte per slot for all of them (the fifth column): the
//! short levels keep their champions and block RMQs alone. Then the suffix
//! tree's child table went from a `u32` per slot to an `i16` offset from
//! the slot, with the ≈ 30 cells that do not fit in a far list, and the
//! root's children in a table of their own (the last column); no file byte
//! moved.
//!
//! And an [`ApproxIndex`] on the same string (1 944 732 links) — the rows of
//! [`ApproxIndex::heap_breakdown`] — when it kept the `C` it found its links
//! with, once everything only `build` reads was a local of `build`, once its
//! links hung off an [`Index`]'s text (the text, tree and position map are
//! an `Index`'s rows, not counted here), and now that a link keys its
//! origin as the suffix tree keys its nodes, with no preorder numbering
//! beside the tree.
//!
//! | structure | with `C` | tree of its own | over the `Index` | keyed by the tree |
//! |---|---|---|---|---|
//! | suffix tree (text + SA + LCP + child table) | 123.3 | 123.3 | — | — |
//! | cumulative array `C` | 113.8 | 0 | — | — |
//! | ancestry: preorder ranks (+ boundary names, LCP RMQ) | 274.4 | 75.9 | 75.9 | — |
//! | links (24 B each) | 466.7 | 466.7 | 466.7 | 466.7 |
//! | min-RMQ over the links' target depths | 330.5 | 330.5 | 330.5 | 330.5 |
//! | **`stats().heap_bytes`** | **1 308.7** | **996.4** | **873.1** | **797.2** |

#![forbid(unsafe_code)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

mod approx;
mod carray;
mod error;
mod factors;
mod index;
mod listing;
mod result;
pub mod snapshot;
mod special;
mod stats;
mod substrate;

pub use approx::ApproxIndex;
pub use error::{validate_pattern, validate_query, Error};
pub use index::Index;
pub use listing::{ListingHit, ListingIndex, RelMetric};
pub use result::{canonical_hit_order, QueryResult};
pub use snapshot::{
    IndexState, LevelsParts, LongLevelParts, ScoredTextState, ShortLevelParts, SubstrateState,
};
pub use special::SpecialIndex;
pub use stats::BuildStats;
