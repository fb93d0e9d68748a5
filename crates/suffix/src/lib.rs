//! Deterministic-string substrate: suffix arrays, LCP arrays, and suffix
//! trees (Section 3.4 of the paper).
//!
//! The uncertain-string indexes of Thankachan et al. reduce every query to
//! classic suffix-structure operations over a *deterministic* text `t`
//! derived from the uncertain string:
//!
//! * [`suffix_array`] — linear-time SA-IS construction.
//! * [`lcp_array`] — Kasai's linear-time longest-common-prefix array.
//! * [`SuffixArray`] — text + SA bundle with O(m log n) pattern range search
//!   (used by the simple/naive baselines).
//! * [`SuffixTree`] — explicit suffix tree built from SA + LCP in linear
//!   time, with O(m log σ) locus/suffix-range descent and subtree slot
//!   intervals — what every index of Sections 4–6 queries.
//! * [`Ancestry`] — preorder numbering, subtree preorder intervals and O(1)
//!   LCA over a [`SuffixTree`], for the ε-link structure of Section 7.
//!
//! # Space
//!
//! A tree over `n` characters has `n + 1` suffix-array slots (one virtual
//! terminator) and about 1.5 nodes per slot on transformed uncertain
//! strings. The two layers are built — and paid for — separately:
//!
//! * **Locus core** ([`SuffixTree`], ≈ 40 B/slot): text 1, SA 4, slot-LCP 4,
//!   `{depth, l, r}` nodes 12 per node, CSR children 8 per node (offsets +
//!   ids). The node arena is sized exactly; the parent links exist only
//!   while the children are laid out (one counting sort — siblings are
//!   created in slot order, so no comparison sort is needed).
//! * **Ancestry layer** ([`Ancestry`], ≈ 37 B/slot): leaf-of-slot 4,
//!   boundary LCA node 4, preorder rank and subtree end 8 per node, and the
//!   LCP min-RMQ (`ustr_rmq::BlockRmq`: value 8 + in-block mask 8 per slot,
//!   plus its block table). One depth-first pass over the core derives it;
//!   only `ustr_core::ApproxIndex` does.
//!
//! Measured per *source* position on the benchmark's `paper-string` workload
//! (n = 100 000, 9.48 slots per position): the locus core is 378.5 B, of
//! which nodes + CSR children are 293 — the largest single structure of an
//! `ustr_core::Index` (973.9 B in all; its crate docs have the table).

#![forbid(unsafe_code)]

mod ancestry;
mod array;
mod lcp;
mod sais;
mod tree;

pub use ancestry::Ancestry;
pub use array::SuffixArray;
pub use lcp::{lcp_array, rank_array};
pub use sais::suffix_array;
pub use tree::{NodeId, SuffixTree};
