//! Explicit suffix tree built from SA + LCP in linear time.
//!
//! The tree is constructed over the text extended with a *virtual
//! terminator* — a character strictly smaller than every byte that appears
//! exactly once at the end. This guarantees no suffix is a prefix of another
//! (so every suffix is a distinct leaf), even for texts that embed repeated
//! separator bytes, which the transformed uncertain strings do.
//!
//! Consequences for users:
//!
//! * The tree has `n + 1` leaves; SA slot `0` is the virtual-terminator
//!   suffix (text position `n`), slots `1..=n` are the real suffixes in the
//!   same order as [`crate::suffix_array`].
//! * Leaf string depths are inflated by 1 (the virtual terminator);
//!   internal-node depths are real LCP values.
//! * Pattern descent never matches the virtual terminator, so suffix ranges
//!   of non-empty patterns always lie within `[1, n]`.
//!
//! [`SuffixTree`] holds only what pattern descent reads — the *locus core*:
//! text, SA, slot-LCP, 12-byte `{depth, l, r}` nodes and their CSR children.
//! Preorder ranks and LCA live in [`crate::Ancestry`], which its one consumer
//! builds on top (see the crate docs for the bytes per slot of each).

use crate::{lcp_array, sais::suffix_array};

/// Node identifier within a [`SuffixTree`] (index into the node arena).
pub type NodeId = u32;

const NO_NODE: u32 = u32::MAX;
const ROOT: NodeId = 0;

#[derive(Debug, Clone)]
struct Node {
    /// String depth: length of the root-to-node path label. Leaf depths
    /// include the virtual terminator.
    depth: u32,
    /// Inclusive SA-slot range of the leaves below this node.
    l: u32,
    r: u32,
}

/// Explicit suffix tree with subtree slot intervals and pattern locus
/// descent.
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
    text: Vec<u8>,
    /// Virtual SA: `sa[0] = n` (terminator suffix), `sa[1..]` = real SA.
    sa: Vec<u32>,
    /// `slot_lcp[j]` = LCP of the suffixes in slots `j-1` and `j` (0 for
    /// `j <= 1`).
    slot_lcp: Vec<u32>,
    /// Node arena in creation order of the build sweep; the root is node 0.
    nodes: Vec<Node>,
    /// CSR children: `child_flat[child_start[v]..child_start[v+1]]`, in SA
    /// (lexicographic) order.
    child_start: Vec<u32>,
    child_flat: Vec<u32>,
}

impl SuffixTree {
    /// Builds the suffix tree of `text` (linear time: SA-IS + Kasai + one
    /// stack sweep).
    pub fn build(text: Vec<u8>) -> Self {
        let plain_sa = suffix_array(&text);
        let lcp = lcp_array(&text, &plain_sa);
        Self::from_parts(text, plain_sa, lcp)
    }

    /// Builds from a precomputed suffix array and LCP array of `text`.
    pub fn from_parts(text: Vec<u8>, plain_sa: Vec<u32>, lcp: Vec<u32>) -> Self {
        let n = text.len();
        let m = n + 1; // leaves, including the virtual-terminator suffix

        let mut sa = Vec::with_capacity(m);
        sa.push(n as u32);
        sa.extend_from_slice(&plain_sa);

        let mut slot_lcp = vec![0u32; m];
        if m > 2 {
            slot_lcp[2..m].copy_from_slice(&lcp[1..m - 1]);
        }

        // A tree with m leaves and only branching internal nodes (the root
        // aside) has fewer than 2m nodes.
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * m);
        // Build-time only: the CSR below is laid out from it.
        let mut parent: Vec<u32> = Vec::with_capacity(2 * m);
        nodes.push(Node {
            depth: 0,
            l: 0,
            r: (m - 1) as u32,
        });
        parent.push(NO_NODE);
        let mut stack: Vec<u32> = vec![ROOT];

        // One sweep over the leaves; a node's parent is fixed when it leaves
        // the stack.
        for j in 0..=m {
            let lcp_j = if j < m { slot_lcp[j] } else { 0 };
            let mut last: Option<u32> = None;
            loop {
                let &top = stack.last().expect("root never pops");
                if nodes[top as usize].depth <= lcp_j || top == ROOT {
                    break;
                }
                stack.pop();
                nodes[top as usize].r = (j - 1) as u32;
                if let Some(l) = last {
                    parent[l as usize] = top;
                }
                last = Some(top);
            }
            if let Some(l) = last {
                let &top = stack.last().expect("root never pops");
                if nodes[top as usize].depth == lcp_j {
                    parent[l as usize] = top;
                } else {
                    // Split: new internal node at depth lcp_j adopting `last`
                    // as its first (leftmost) child.
                    let v = nodes.len() as u32;
                    nodes.push(Node {
                        depth: lcp_j,
                        l: nodes[l as usize].l,
                        r: NO_NODE, // finalized when popped
                    });
                    parent.push(NO_NODE);
                    parent[l as usize] = v;
                    stack.push(v);
                }
            }
            if j < m {
                // Leaf depth includes the virtual terminator.
                let suffix_len = (n - sa[j] as usize) as u32 + 1;
                stack.push(nodes.len() as u32);
                nodes.push(Node {
                    depth: suffix_len,
                    l: j as u32,
                    r: j as u32,
                });
                parent.push(NO_NODE);
            }
        }
        debug_assert_eq!(stack.as_slice(), &[ROOT]);
        nodes[ROOT as usize].r = (m - 1) as u32;
        nodes.shrink_to_fit();

        // CSR children by a counting sort on the parent. Siblings are
        // created in slot order (a node is created no earlier than its
        // range start and no later than its range end, and sibling ranges
        // are disjoint), so filling in id order leaves every child list in
        // SA order.
        let count = nodes.len();
        let mut child_start = vec![0u32; count + 1];
        for &p in &parent[1..] {
            child_start[p as usize + 1] += 1;
        }
        for i in 0..count {
            child_start[i + 1] += child_start[i];
        }
        let mut child_flat = vec![0u32; count - 1];
        // `child_start[p]` serves as parent p's write cursor, which leaves
        // every entry one parent ahead; the shift back restores it.
        for (id, &p) in parent.iter().enumerate().skip(1) {
            let cursor = &mut child_start[p as usize];
            child_flat[*cursor as usize] = id as u32;
            *cursor += 1;
        }
        child_start.copy_within(0..count, 1);
        child_start[0] = 0;

        Self {
            text,
            sa,
            slot_lcp,
            nodes,
            child_start,
            child_flat,
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
        (self.text.clone(), plain_sa, lcp)
    }

    /// Number of SA slots / leaves: one per text character plus the
    /// virtual terminator.
    pub fn num_slots(&self) -> usize {
        self.sa.len()
    }

    /// Total node count (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
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

    /// The root node.
    pub fn root(&self) -> NodeId {
        ROOT
    }

    /// String depth of `node` (leaf depths include the virtual terminator).
    #[inline]
    pub fn string_depth(&self, node: NodeId) -> usize {
        self.nodes[node as usize].depth as usize
    }

    /// Children of `node` in lexicographic (SA) order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let v = node as usize;
        &self.child_flat[self.child_start[v] as usize..self.child_start[v + 1] as usize]
    }

    /// Returns `true` when `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        let v = node as usize;
        self.child_start[v] == self.child_start[v + 1]
    }

    /// Inclusive SA-slot range `[l, r]` of the leaves below `node`.
    #[inline]
    pub fn slot_range(&self, node: NodeId) -> (usize, usize) {
        let n = &self.nodes[node as usize];
        (n.l as usize, n.r as usize)
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

    /// First byte of the edge entering `child` from a parent at string depth
    /// `parent_depth`, or `None` when the edge starts with the virtual
    /// terminator.
    fn edge_first_byte(&self, child: NodeId, parent_depth: usize) -> Option<u8> {
        let pos = self.sa(self.nodes[child as usize].l as usize) + parent_depth;
        self.text.get(pos).copied()
    }

    /// Locus of `pattern`: the node closest to the root whose path label has
    /// `pattern` as a prefix. Returns the root for the empty pattern and
    /// `None` when the pattern does not occur.
    pub fn locus(&self, pattern: &[u8]) -> Option<NodeId> {
        let m = pattern.len();
        if m == 0 {
            return Some(ROOT);
        }
        let mut node = ROOT;
        let mut matched = 0usize; // chars matched == string depth reached
        loop {
            let depth = self.nodes[node as usize].depth as usize;
            debug_assert_eq!(depth, matched);
            let target = pattern[matched];
            let child = *self
                .children(node)
                .iter()
                .find(|&&c| self.edge_first_byte(c, depth) == Some(target))?;
            let child_depth = self.nodes[child as usize].depth as usize;
            let start = self.sa(self.nodes[child as usize].l as usize);
            // Real characters available along this path (a leaf's final
            // character is the virtual terminator, which matches nothing).
            let real_limit = self.text.len() - start;
            let end = child_depth.min(m);
            if end > real_limit {
                return None;
            }
            if self.text[start + matched + 1..start + end] != pattern[matched + 1..end] {
                return None;
            }
            if end == m {
                return Some(child);
            }
            matched = end; // == child_depth < m: descend further
            node = child;
        }
    }

    /// Inclusive SA-slot range of all suffixes prefixed by `pattern`, or
    /// `None` when the pattern does not occur. The empty pattern matches
    /// every slot including the virtual terminator.
    pub fn suffix_range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        if pattern.is_empty() {
            return Some((0, self.sa.len() - 1));
        }
        let locus = self.locus(pattern)?;
        Some(self.slot_range(locus))
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

    /// Heap bytes held.
    pub fn heap_size(&self) -> usize {
        use std::mem::size_of;
        self.text.capacity()
            + self.nodes.capacity() * size_of::<Node>()
            + (self.sa.capacity()
                + self.slot_lcp.capacity()
                + self.child_start.capacity()
                + self.child_flat.capacity())
                * size_of::<u32>()
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
    fn locus_and_ranges_match_suffix_array() {
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

    #[test]
    fn every_node_but_the_root_is_a_deeper_child_of_one_node() {
        let st = SuffixTree::build(b"abracadabra".to_vec());
        let mut times_a_child = vec![0usize; st.num_nodes()];
        for id in 0..st.num_nodes() as u32 {
            for &c in st.children(id) {
                times_a_child[c as usize] += 1;
                assert!(st.string_depth(c) > st.string_depth(id));
                let (pl, pr) = st.slot_range(id);
                let (cl, cr) = st.slot_range(c);
                assert!(pl <= cl && cr <= pr);
            }
        }
        assert_eq!(times_a_child[st.root() as usize], 0);
        assert!(times_a_child[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn children_partition_parent_range() {
        let st = SuffixTree::build(b"abracadabra".to_vec());
        for id in 0..st.num_nodes() as u32 {
            if st.is_leaf(id) {
                continue;
            }
            let (pl, pr) = st.slot_range(id);
            let mut cursor = pl;
            for &c in st.children(id) {
                let (cl, cr) = st.slot_range(c);
                assert_eq!(cl, cursor, "gap in children of node {id}");
                cursor = cr + 1;
            }
            assert_eq!(cursor, pr + 1);
            assert!(st.children(id).len() >= 2, "internal nodes branch");
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
            assert_eq!(original.num_nodes(), rebuilt.num_nodes());
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
