//! Deterministic-string substrate: suffix arrays, LCP arrays, and suffix
//! trees (Section 3.4 of the paper).
//!
//! The uncertain-string indexes of Thankachan et al. reduce every query to
//! classic suffix-structure operations over a *deterministic* text `t`
//! derived from the uncertain string:
//!
//! * [`suffix_array`] — linear-time SA-IS construction on `u32` arrays,
//!   the text read as byte ranks.
//! * [`lcp_array`] — Kasai's linear-time longest-common-prefix array.
//! * [`SuffixArray`] — text + SA bundle with O(m log n) pattern range search
//!   (used by the simple/naive baselines).
//! * [`SuffixTree`] — the suffix tree as an enhanced suffix array: SA, LCP
//!   and a child table built from the LCP array in one stack sweep, with
//!   O(m · σ) descent to a pattern's suffix range and child-interval
//!   enumeration — what every index of Sections 4–6 queries. Nodes are LCP
//!   intervals; none is stored. Keyed "internal node named `k`, then leaf
//!   `k`" ([`SuffixTree::node_key`]), a subtree is one run of keys.
//! * [`LeafLca`] — O(1) LCA of leaves — for the ε-link structure of
//!   Section 7: what finds its links, which key their origins as the tree
//!   does.
//!
//! # Space
//!
//! A tree over `k` suffixes of an `n`-character text has `k + 1`
//! suffix-array slots (one virtual terminator): `k = n` from
//! [`SuffixTree::build`], any sorted subset of the suffixes from
//! [`SuffixTree::from_parts`] (an `ustr_core` index keeps only the suffixes
//! a query can reach). Everything but the text is an array over slots. The
//! two layers are built — and paid for — separately:
//!
//! * **Locus core** ([`SuffixTree`], 7 B/slot and 1 B per text character):
//!   text 1 per character, SA 4, slot-LCP 1, child table 2 — one `i16`
//!   cell per slot holding, as an offset from
//!   the slot, the `up`, `down` or `nextlIndex` value of Abouelhoda, Kurtz
//!   and Ohlebusch's enhanced suffix array, whichever that slot can be
//!   asked for. A value more than 32 767 slots away is kept in a far list
//!   sorted by slot and binary-searched (8 B an entry; ≈ 30 entries on
//!   a tree of every slot of the benchmark's `paper-string`, none on a
//!   tree of fewer than 32 768 slots), and the root's children
//!   in a table of their own, 9 B a child, which the descent's first step
//!   reads in place of the root's sibling links. The LCP is their byte
//!   table too: an entry of 255 or more is stored as 255, and its value
//!   kept in an exception list sorted by slot (8 B an entry; none on the
//!   benchmark's strings, whose entries stay below 55). (A `u32` child
//!   cell made 10 B/slot in all, and 13 B/slot with the `u32` LCP of
//!   snapshot formats up to 10. Until PR 23 the tree had explicit nodes:
//!   a 12-byte `{depth, l, r}` record and 8 bytes of CSR child list for
//!   each of ≈ 1.55 nodes per slot, leaves included — ≈ 40 B/slot in all.)
//! * **Ancestry layer** ([`LeafLca`], ≈ 21 B/slot), which only
//!   `ustr_core::ApproxIndex` derives, and only at build time — never on
//!   load: name of the LCA of each pair of neighbouring leaves 4 and the
//!   LCP min-RMQ (`ustr_rmq::BlockRmq`: value 8 + in-block mask 8 per slot,
//!   plus its block table). (Through snapshot format 8 the layer also
//!   *held* two preorder-rank arrays, 8 B/slot, rebuilt in one depth-first
//!   pass at construction and at load, to number the links' origins; the
//!   tree's own node keys number them now. Earlier still, one struct held
//!   all ≈ 28 B/slot for the life of the index, and ≈ 37 with per-node
//!   ranks and ends.)
//!
//! Measured per *source* position on the benchmark's `paper-string` workload
//! (n = 100 000, 9.48 text characters per position): over every slot the
//! locus core is 76.0 B (94.8 with a `u32` child cell, 123.3 with a `u32`
//! LCP too), of which the child table is 19.1 — where nodes + CSR children
//! were 293, the largest single structure of an `ustr_core::Index` (563.3 B
//! in all, 973.9 before; its crate docs have the table). Over the 2.76
//! slots per position an `Index` keeps, it is 28.8 B, the child table 5.5.

#![forbid(unsafe_code)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

mod ancestry;
mod array;
mod lcp;
mod sais;
mod tree;

pub use ancestry::LeafLca;
pub use array::SuffixArray;
pub use lcp::{lcp_array, rank_array};
pub use sais::suffix_array;
pub use tree::SuffixTree;
