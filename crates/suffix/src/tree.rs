//! The suffix tree of a text as an *enhanced suffix array*: SA, LCP and a
//! child table (Abouelhoda, Kurtz, Ohlebusch 2004), built in linear time.
//!
//! The tree is taken over the text extended with a *virtual terminator* — a
//! character strictly smaller than every byte that appears exactly once at
//! the end. This guarantees no suffix is a prefix of another (so every
//! suffix is a distinct leaf), even for texts that embed repeated separator
//! bytes, which the transformed uncertain strings do.
//!
//! Consequences for users:
//!
//! * There are `n + 1` leaves; SA slot `0` is the virtual-terminator suffix
//!   (text position `n`), slots `1..=n` are the real suffixes in the same
//!   order as [`crate::suffix_array`].
//! * Pattern descent never matches the virtual terminator, so suffix ranges
//!   of non-empty patterns always lie within `[1, n]`.
//!
//! # Nodes are intervals
//!
//! No node is stored. A leaf *is* its slot `j`, of string depth
//! `n − SA[j] + 1` (the virtual terminator counts). An internal node *is*
//! its LCP interval `[l, r]`: the maximal run of slots whose suffixes share
//! a prefix of length `ℓ` = the minimum of `LCP[l+1..=r]`, its string depth.
//! The slots in `(l, r]` where the LCP equals `ℓ` are the node's *ℓ-indices*;
//! they are where one child interval ends and the next begins, and the
//! first of them names the node ([`SuffixTree::first_l_index`]): every slot
//! `k ≥ 1` is an ℓ-index of exactly one node, the LCA of leaves `k − 1` and
//! `k`.
//!
//! The child table is one `u32` per slot holding whichever of the classic
//! `up`/`down`/`nextlIndex` values that slot can ever be asked for — they
//! exclude each other:
//!
//! * `up[k + 1]` when `LCP[k] > LCP[k + 1]`: the first ℓ-index of the
//!   widest interval that ends at `k`;
//! * else `nextlIndex[k]`: the next ℓ-index of the node `k` is one of;
//! * else `down[k]`: the first ℓ-index of the widest interval that starts
//!   at `k` (needed only for an interval the `up` of its end does not
//!   name, which is exactly when `nextlIndex[k]` does not exist).
//!
//! A value is told apart by where it points and by what lies there — an
//! equal LCP for a `nextlIndex`, or, in the pattern descent, a different
//! edge character — so a descent step reads per child what it did with
//! explicit nodes, one SA entry and one text byte, with the table cell in
//! place of a child-list entry and a node record (see the crate docs for
//! the bytes per slot). The siblings of a node form a linked list through
//! the table where the explicit nodes had an array: a walk over them is
//! bound by load latency rather than throughput, the one cost of the
//! smaller structure (≈ 50 ns of a 200 ns descent at a 20-letter alphabet).

use std::ops::RangeInclusive;

use crate::{lcp_array, sais::suffix_array};

/// Suffix tree with pattern descent to suffix-array ranges, held as text,
/// suffix array, LCP array and child table (see the module docs).
///
/// ```
/// use ustr_suffix::SuffixTree;
/// let st = SuffixTree::build(b"banana".to_vec());
/// // "ana" prefixes the suffixes starting at 3 and 1.
/// let (l, r) = st.suffix_range(b"ana").unwrap();
/// let mut occ: Vec<usize> = (l..=r).map(|j| st.sa(j)).collect();
/// occ.sort();
/// assert_eq!(occ, vec![1, 3]);
/// assert_eq!(st.suffix_range(b"nab"), None);
/// ```
#[derive(Debug, Clone)]
pub struct SuffixTree {
    text: Box<[u8]>,
    /// Virtual SA: `sa[0] = n` (terminator suffix), `sa[1..]` = real SA.
    sa: Box<[u32]>,
    /// `slot_lcp[j]` = LCP of the suffixes in slots `j-1` and `j` (0 for
    /// `j <= 1`).
    slot_lcp: Box<[u32]>,
    /// One cell per slot: `up`, `nextlIndex` or `down` (module docs); 0
    /// where none exists.
    child: Box<[u32]>,
}

impl SuffixTree {
    /// Builds the suffix tree of `text` (linear time: SA-IS + Kasai + one
    /// stack sweep).
    pub fn build(text: Vec<u8>) -> Self {
        let plain_sa = suffix_array(&text);
        let lcp = lcp_array(&text, &plain_sa);
        Self::from_parts(text, plain_sa, lcp)
    }

    /// Builds from a precomputed suffix array and LCP array of `text`: the
    /// child table is one stack sweep over the LCP values.
    pub fn from_parts(text: Vec<u8>, plain_sa: Vec<u32>, lcp: Vec<u32>) -> Self {
        let n = text.len();
        let m = n + 1; // slots, including the virtual-terminator suffix

        // Each array is collected straight into its allocation (exact-size
        // iterators).
        let sa = std::iter::once(n as u32).chain(plain_sa).collect();
        let slot_lcp: Box<[u32]> = (0..m).map(|j| if j < 2 { 0 } else { lcp[j - 1] }).collect();

        // The stack holds the slots whose interval is still open, LCP
        // non-decreasing toward the top; slot 0 (LCP 0) never leaves it.
        // A slot popped because a smaller LCP arrived is the first ℓ-index
        // of an interval that just ended: the `up` of the arriving slot if
        // it is the last one popped, and the `down` of the slot below it
        // if that one lies strictly shallower — unless the arriving LCP
        // falls between the two, which opens a wider interval at the same
        // start. A slot arriving at the LCP of the top is that one's
        // `nextlIndex`, written after — and so over — any `down` of the
        // same cell.
        let mut child = vec![0u32; m].into_boxed_slice();
        let mut stack: Vec<u32> = vec![0];
        for k in 1..m {
            let lcp_k = slot_lcp[k];
            let mut last = None;
            while let Some(&top) = stack.last() {
                let lcp_top = slot_lcp[top as usize];
                if lcp_top <= lcp_k {
                    if lcp_top == lcp_k {
                        child[top as usize] = k as u32;
                    }
                    break;
                }
                stack.pop();
                let below = *stack.last().expect("slot 0 is never popped") as usize;
                if lcp_k <= slot_lcp[below] && slot_lcp[below] != lcp_top {
                    child[below] = top;
                }
                last = Some(top);
            }
            if let Some(first) = last {
                child[k - 1] = first;
            }
            stack.push(k as u32);
        }
        // Past the last slot every interval ends: the remaining `down`s.
        while let Some(top) = stack.pop() {
            if let Some(&below) = stack.last() {
                if slot_lcp[below as usize] != slot_lcp[top as usize] {
                    child[below as usize] = top;
                }
            }
        }

        Self {
            text: text.into(),
            sa,
            slot_lcp,
            child,
        }
    }

    /// The indexed text (without the virtual terminator).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Decomposes the tree into the `(text, suffix array, LCP array)` triple
    /// accepted by [`SuffixTree::from_parts`] — the persistent representation
    /// used by index snapshots. Rebuilding from these parts is a linear,
    /// deterministic pass, so the reconstructed tree answers every query
    /// identically (and skips the SA-IS construction entirely).
    pub fn to_parts(&self) -> (Vec<u8>, Vec<u32>, Vec<u32>) {
        let n = self.text.len();
        // `sa[0]` is the virtual-terminator slot; the plain SA follows.
        let plain_sa = self.sa[1..].to_vec();
        // `slot_lcp[j]` for `j >= 2` holds `lcp[j - 1]`; `lcp[0]` is 0.
        let mut lcp = vec![0u32; n];
        if n > 1 {
            lcp[1..n].copy_from_slice(&self.slot_lcp[2..n + 1]);
        }
        (self.text.to_vec(), plain_sa, lcp)
    }

    /// Number of SA slots / leaves: one per text character plus the
    /// virtual terminator.
    pub fn num_slots(&self) -> usize {
        self.sa.len()
    }

    /// Text position of the suffix in SA slot `j` (slot 0 is the virtual
    /// terminator at position `text().len()`).
    #[inline]
    pub fn sa(&self, j: usize) -> usize {
        self.sa[j] as usize
    }

    /// The whole virtual suffix array: [`SuffixTree::sa`] of every slot.
    pub fn sa_slots(&self) -> &[u32] {
        &self.sa
    }

    /// LCP between the suffixes in slots `j-1` and `j` (0 for `j <= 1`).
    #[inline]
    pub fn slot_lcp(&self, j: usize) -> usize {
        self.slot_lcp[j] as usize
    }

    /// The whole slot-LCP array: [`SuffixTree::slot_lcp`] of every slot.
    pub fn slot_lcps(&self) -> &[u32] {
        &self.slot_lcp
    }

    /// The name of the internal node `[l, r]` (`l < r`): its first ℓ-index,
    /// the end of its first child interval plus one.
    /// [`SuffixTree::slot_lcp`] there is the node's string depth.
    #[inline]
    pub fn first_l_index(&self, l: usize, r: usize) -> usize {
        debug_assert!(l < r, "a leaf has no ℓ-index");
        // `up[r + 1]` names the widest interval ending at `r`; this one
        // unless that starts left of `l`, and then `down[l]` is stored.
        let up = self.child[r] as usize;
        if l < up && up <= r {
            up
        } else {
            self.child[l] as usize
        }
    }

    /// The key of leaf `slot`: `2·slot + 1`. Keys order the nodes "the
    /// internal node named `k`, then leaf `k`", in which a subtree is one
    /// run ([`SuffixTree::subtree_keys`]).
    #[inline]
    pub fn leaf_key(slot: usize) -> usize {
        2 * slot + 1
    }

    /// The key of the internal node named `name`
    /// ([`SuffixTree::first_l_index`]): `2·name`.
    #[inline]
    pub fn internal_key(name: usize) -> usize {
        2 * name
    }

    /// The key of the node `[l, r]` (a leaf when `l == r`).
    #[inline]
    pub fn node_key(&self, l: usize, r: usize) -> usize {
        if l == r {
            Self::leaf_key(l)
        } else {
            Self::internal_key(self.first_l_index(l, r))
        }
    }

    /// The keys of the subtree of the node `[l, r]` (a leaf when `l == r`):
    /// exactly the run from leaf `l`'s key to leaf `r`'s. Its leaves are
    /// keyed there, and so is every internal node inside, the node itself
    /// included: each is named in `(l, r]`. No other node is: an ancestor
    /// named in `(l, r]` would put an LCP below the node's depth there,
    /// where the node's depth is the minimum, and the ancestor named `l`
    /// keys `2·l`, just before the run.
    ///
    /// ```
    /// use ustr_suffix::SuffixTree;
    /// let st = SuffixTree::build(b"banana".to_vec());
    /// let (l, r) = st.suffix_range(b"an").unwrap(); // "anana", "ana"
    /// let keys = SuffixTree::subtree_keys(l, r);
    /// assert!(keys.contains(&st.node_key(l, r)));
    /// let (pl, pr) = st.suffix_range(b"a").unwrap(); // its parent
    /// assert!(!keys.contains(&st.node_key(pl, pr)));
    /// ```
    #[inline]
    pub fn subtree_keys(l: usize, r: usize) -> RangeInclusive<usize> {
        Self::leaf_key(l)..=Self::leaf_key(r)
    }

    /// Calls `visit(l, r)` for every node of the tree, a leaf as `(j, j)`,
    /// in preorder (children in SA order): one depth-first pass.
    pub fn for_each_node(&self, mut visit: impl FnMut(usize, usize)) {
        // Open internal nodes: the children still to visit. The empty text
        // is a root above the terminator leaf, visited as that leaf.
        let mut open = Vec::new();
        let mut step = |(l, r): (usize, usize), open: &mut Vec<_>| {
            visit(l, r);
            if l < r {
                open.push(self.child_intervals(l, r));
            }
        };
        step((0, self.num_slots() - 1), &mut open);
        while let Some(children) = open.last_mut() {
            match children.next() {
                Some(child) => step(child, &mut open),
                None => {
                    open.pop();
                }
            }
        }
    }

    /// Child intervals of the internal node `[l, r]` (`l < r`, as returned
    /// by [`SuffixTree::suffix_range`] or by this function) in SA order:
    /// they partition `[l, r]`, and a child `(j, j)` is the leaf of slot `j`.
    pub fn child_intervals(&self, l: usize, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first = self.first_l_index(l, r);
        let depth = self.slot_lcp[first];
        let (mut start, mut next) = (l, first);
        std::iter::from_fn(move || {
            if start > r {
                return None;
            }
            let child = (start, next - 1);
            start = next;
            if start <= r {
                // The cell of an ℓ-index is its successor exactly when it
                // points right at an equal LCP (`down` points at a larger
                // one, `up` points left).
                let cell = self.child[start] as usize;
                next = if cell > start && self.slot_lcp[cell] == depth {
                    cell
                } else {
                    r + 1
                };
            }
            Some(child)
        })
    }

    /// Inclusive SA-slot range of all suffixes prefixed by `pattern` — the
    /// pattern's locus, as an interval — or `None` when the pattern does
    /// not occur. The empty pattern matches every slot including the
    /// virtual terminator.
    pub fn suffix_range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        let m = pattern.len();
        let n = self.text.len();
        let (mut l, mut r) = (0, n);
        // Characters matched == string depth of `[l, r]`.
        let mut matched = 0usize;
        if m == 0 || n == 0 {
            return (m == 0).then_some((l, r));
        }
        let mut first = self.first_l_index(l, r);
        // The edge into the child starting at `slot` begins with its
        // suffixes' character `depth`; past the text end that is the
        // virtual terminator (`None`).
        let edge = |slot: usize, depth: usize| self.text.get(self.sa(slot) + depth).copied();
        loop {
            let target = Some(pattern[matched]);
            // Walk the child boundaries: `a` starts the current child and
            // `next` the one after it (`r + 1` when there is none), `c` and
            // `next_c` are their edge characters.
            let (mut a, mut c) = (l, edge(l, matched));
            let (mut next, mut next_c) = (first, edge(first, matched));
            while c != target {
                if next > r {
                    return None;
                }
                (a, c) = (next, next_c);
                // The cell of a boundary is the next boundary unless it
                // points left (`up`) or into the same child (`down`) — told
                // here by the edge character, which the walk reads anyway
                // and which repeats inside a child.
                let cell = self.child[a] as usize;
                (next, next_c) = (r + 1, None);
                if cell > a {
                    let cell_c = edge(cell, matched);
                    if cell_c != c {
                        (next, next_c) = (cell, cell_c);
                    }
                }
            }
            let b = next - 1;
            let start = self.sa(a);
            // Real characters on the path to the child: a leaf's last one
            // is the virtual terminator, which matches nothing.
            let depth = if a == b {
                n - start
            } else {
                // `first_l_index(a, b)` without its test: a child that
                // ends before `r` is the widest interval ending there, and
                // the last child the widest starting at its boundary.
                first = self.child[if b < r { b } else { a }] as usize;
                self.slot_lcp(first)
            };
            let end = depth.min(m);
            if self.text[start + matched + 1..start + end] != pattern[matched + 1..end] {
                return None;
            }
            if end == m {
                return Some((a, b));
            }
            if a == b {
                return None; // the pattern outruns the one suffix left
            }
            matched = depth;
            (l, r) = (a, b);
        }
    }

    /// All text positions where `pattern` occurs (unsorted).
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<usize> {
        if pattern.is_empty() {
            return (0..self.text.len()).collect();
        }
        match self.suffix_range(pattern) {
            Some((l, r)) => (l..=r).map(|j| self.sa(j)).collect(),
            None => Vec::new(),
        }
    }

    /// Heap bytes held: the text, SA and LCP arrays plus
    /// [`SuffixTree::child_table_heap_size`].
    pub fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.text)
            + std::mem::size_of_val(&*self.sa)
            + std::mem::size_of_val(&*self.slot_lcp)
            + self.child_table_heap_size()
    }

    /// Heap bytes of the child table alone — what the tree holds beyond the
    /// three arrays a snapshot stores.
    pub fn child_table_heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuffixArray;

    #[test]
    fn banana_structure() {
        let st = SuffixTree::build(b"banana".to_vec());
        assert_eq!(st.num_slots(), 7);
        assert_eq!(st.sa(0), 6); // virtual terminator slot
                                 // Real suffixes preserve plain SA order.
        let plain = SuffixArray::new(b"banana".to_vec());
        for j in 0..6 {
            assert_eq!(st.sa(j + 1), plain.sa()[j] as usize);
        }
    }

    #[test]
    fn ranges_match_suffix_array() {
        let text = b"abaabbabaabbaabab".to_vec();
        let st = SuffixTree::build(text.clone());
        let sa = SuffixArray::new(text.clone());
        for m in 1..=5 {
            for start in 0..text.len() - m {
                let pattern = &text[start..start + m];
                let tree_range = st.suffix_range(pattern);
                let arr_range = sa.suffix_range(pattern);
                match (tree_range, arr_range) {
                    (Some((tl, tr)), Some((al, ar))) => {
                        // Tree slots are array slots shifted by 1 (virtual slot 0).
                        assert_eq!((tl, tr), (al + 1, ar + 1), "pattern {pattern:?}");
                    }
                    (None, None) => {}
                    other => panic!("mismatch for {pattern:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn missing_patterns() {
        let st = SuffixTree::build(b"mississippi".to_vec());
        assert_eq!(st.suffix_range(b"x"), None);
        assert_eq!(st.suffix_range(b"issx"), None);
        assert_eq!(st.suffix_range(b"mississippix"), None);
        assert_eq!(st.suffix_range(b"ppi\0"), None);
    }

    #[test]
    fn pattern_is_full_text() {
        let st = SuffixTree::build(b"abcde".to_vec());
        let (l, r) = st.suffix_range(b"abcde").unwrap();
        assert_eq!(l, r);
        assert_eq!(st.sa(l), 0);
    }

    #[test]
    fn repeated_separators_are_handled() {
        // One suffix is a proper prefix of another ("0" of "00"): the virtual
        // terminator keeps them distinct leaves.
        let st = SuffixTree::build(b"A\0A\0\0".to_vec());
        let (l, r) = st.suffix_range(b"A\0").unwrap();
        let mut occ: Vec<usize> = (l..=r).map(|j| st.sa(j)).collect();
        occ.sort_unstable();
        assert_eq!(occ, vec![0, 2]);
        let (l, r) = st.suffix_range(b"\0").unwrap();
        assert_eq!(r - l + 1, 3);
    }

    /// Every internal node reached from the root: its children partition
    /// its range in SA order, there are at least two, each lies strictly
    /// deeper, and the LCP reaches the node's depth exactly at the child
    /// boundaries. Returns the number of nodes below and including `[l, r]`.
    fn check_subtree(st: &SuffixTree, l: usize, r: usize) -> usize {
        if l == r {
            return 1;
        }
        let depth = st.slot_lcp(st.first_l_index(l, r));
        let n = st.text().len();
        let mut nodes = 1;
        let mut cursor = l;
        let mut kids = 0;
        for (a, b) in st.child_intervals(l, r) {
            assert_eq!(a, cursor, "gap in children of [{l}, {r}]");
            assert!(b <= r);
            if a > l {
                assert_eq!(st.slot_lcp(a), depth, "child boundary {a} of [{l}, {r}]");
            }
            assert!((a + 1..=b).all(|k| st.slot_lcp(k) > depth));
            let child_depth = if a == b {
                n - st.sa(a) + 1
            } else {
                st.slot_lcp(st.first_l_index(a, b))
            };
            assert!(child_depth > depth);
            cursor = b + 1;
            kids += 1;
            nodes += check_subtree(st, a, b);
        }
        assert_eq!(cursor, r + 1);
        assert!(kids >= 2, "internal nodes branch");
        nodes
    }

    #[test]
    fn children_partition_their_parent_and_lie_deeper() {
        for text in [
            &b"abracadabra"[..],
            b"mississippi",
            b"A\0A\0\0",
            b"aaaaaa",
            b"a",
        ] {
            let st = SuffixTree::build(text.to_vec());
            let nodes = check_subtree(&st, 0, st.num_slots() - 1);
            // One leaf per slot, and every slot past the first child of
            // some node is an ℓ-index of exactly one: fewer internal nodes
            // than slots.
            assert!(nodes > st.num_slots() && nodes < 2 * st.num_slots());
        }
    }

    /// Every node below and including `[l, r]`, in preorder.
    fn preorder(st: &SuffixTree, l: usize, r: usize, out: &mut Vec<(usize, usize)>) {
        out.push((l, r));
        if l < r {
            for (a, b) in st.child_intervals(l, r) {
                preorder(st, a, b, out);
            }
        }
    }

    #[test]
    fn the_node_walk_is_a_recursive_preorder_walk() {
        for text in [
            &b"mississippi"[..],
            b"abaababaabaab",
            b"A\0A\0\0",
            b"a",
            b"",
        ] {
            let st = SuffixTree::build(text.to_vec());
            let mut nodes = Vec::new();
            preorder(&st, 0, st.num_slots() - 1, &mut nodes);
            let mut walked = Vec::new();
            st.for_each_node(|l, r| walked.push((l, r)));
            assert_eq!(walked, nodes, "{text:?}");
        }
    }

    #[test]
    fn single_char_text() {
        let st = SuffixTree::build(b"a".to_vec());
        assert_eq!(st.suffix_range(b"a"), Some((1, 1)));
        assert_eq!(st.suffix_range(b"b"), None);
        assert_eq!(st.num_slots(), 2);
    }

    #[test]
    fn all_equal_text() {
        let st = SuffixTree::build(b"aaaaaa".to_vec());
        let (l, r) = st.suffix_range(b"aaa").unwrap();
        assert_eq!(r - l + 1, 4);
        let mut occ = st.occurrences(b"aaa");
        occ.sort_unstable();
        assert_eq!(occ, vec![0, 1, 2, 3]);
    }

    #[test]
    fn occurrences_match_brute_force_random() {
        let mut state = 77u64;
        let text: Vec<u8> = (0..400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 4) as u8 + b'a'
            })
            .collect();
        let st = SuffixTree::build(text.clone());
        for m in [1usize, 2, 3, 7, 12] {
            for start in (0..text.len() - m).step_by(11) {
                let pattern = text[start..start + m].to_vec();
                let mut expected: Vec<usize> = (0..=text.len() - m)
                    .filter(|&i| text[i..i + m] == pattern[..])
                    .collect();
                expected.sort_unstable();
                let mut got = st.occurrences(&pattern);
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn to_parts_round_trips_through_from_parts() {
        for text in [&b"mississippi"[..], b"A\0A\0\0", b"a", b"aaaaaa", b""] {
            let original = SuffixTree::build(text.to_vec());
            let (t, sa, lcp) = original.to_parts();
            let rebuilt = SuffixTree::from_parts(t, sa, lcp);
            for j in 0..original.num_slots() {
                assert_eq!(original.sa(j), rebuilt.sa(j));
                assert_eq!(original.slot_lcp(j), rebuilt.slot_lcp(j));
            }
            for m in 1..=3.min(text.len()) {
                for start in 0..=text.len() - m {
                    let pattern = &text[start..start + m];
                    assert_eq!(
                        original.suffix_range(pattern),
                        rebuilt.suffix_range(pattern),
                        "pattern {pattern:?}"
                    );
                }
            }
        }
    }
}
