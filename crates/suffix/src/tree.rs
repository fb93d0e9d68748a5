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
//! The LCP array is one byte per slot: string depths are small on the texts
//! an index is built over (the transformed strings' factors are short), so
//! an entry of 255 or more is stored as 255 and its true value kept in a
//! short list sorted by slot, which [`SuffixTree::slot_lcp`] searches only
//! for such an entry — the byte LCP table of Abouelhoda, Kurtz and
//! Ohlebusch's enhanced suffix array.
//!
//! The child table is one cell per slot holding whichever of the classic
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
//! A cell is an `i16`: the value's offset from the cell's own slot. The
//! three values point into the node around the slot, so nearly all of
//! them lie within ±32 767 slots; one that does not is stored as `FAR`,
//! and its value kept in a far list sorted by slot, reached through a
//! start index of one `u32` per 256 slots. Only a child wider than 32 767
//! slots makes a far cell, so on a transformed string they are the
//! root's: its sibling links and the `up`s of its widest children, ≈ 30
//! on `paper-string`'s tree of 950 000 slots, and none on a tree of fewer
//! than 32 768 slots.
//!
//! A value is told apart by where it points and by what lies there — an
//! equal LCP for a `nextlIndex`, or, in the pattern descent, a different
//! edge character — so a descent step reads per child what it did with
//! explicit nodes, one SA entry and one text byte, with the table cell in
//! place of a child-list entry and a node record (see the crate docs for
//! the bytes per slot). The siblings of a node form a linked list through
//! the table where the explicit nodes had an array: a walk over them is
//! bound by load latency rather than throughput. The root's children,
//! where every descent starts and whose links are the far cells, are also
//! kept as an array — edge character, first slot and name — so the
//! descent's first step is a scan of σ bytes.

use std::ops::RangeInclusive;

use crate::{lcp_array, sais::suffix_array};

/// The byte of a slot whose LCP does not fit below it: the true value is
/// in the exception list.
const LCP_MARK: u8 = u8::MAX;

/// The cell of a slot whose value lies more than 32 767 slots away: the
/// value is in the far list.
const FAR: i16 = i16::MIN;

/// Slots per entry of the far list's start index.
const FAR_BLOCK: usize = 256;

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
    /// `j <= 1`), or [`LCP_MARK`] when that is 255 or more.
    slot_lcp: Box<[u8]>,
    /// `(slot, LCP)` of every slot marked in `slot_lcp`, by slot.
    long_lcp: Box<[(u32, u32)]>,
    /// One cell per slot: the offset of its `up`, `nextlIndex` or `down`
    /// (module docs) from the slot, or [`FAR`]. A slot with none holds 0,
    /// pointing at itself, except the last, which points at slot 0.
    child: Box<[i16]>,
    /// `(slot, value)` of every cell marked [`FAR`], by slot.
    far: Box<[(u32, u32)]>,
    /// `far_start[b]`: the first entry of `far` at a slot of block `b` or
    /// later, blocks being [`FAR_BLOCK`] slots; one entry past the last
    /// block, and none at all when `far` is empty.
    far_start: Box<[u32]>,
    /// The edge character of each child of the root past the terminator
    /// leaf, in SA order.
    root_chars: Box<[u8]>,
    /// `(first slot, name)` of each of those children (the name 0 for a
    /// leaf), and `(num_slots, 0)` after the last.
    root_children: Box<[(u32, u32)]>,
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
    /// child table is one stack sweep over the `u32` LCP values, which are
    /// then narrowed to a byte each (module docs).
    pub fn from_parts(text: Vec<u8>, plain_sa: Vec<u32>, lcp: Vec<u32>) -> Self {
        let n = text.len();
        let m = n + 1; // slots, including the virtual-terminator suffix

        // Each array is collected straight into its allocation (exact-size
        // iterators).
        let sa = std::iter::once(n as u32).chain(plain_sa).collect();
        let slot_lcp: Vec<u32> = (0..m).map(|j| if j < 2 { 0 } else { lcp[j - 1] }).collect();
        drop(lcp);

        // The stack holds the slots whose interval is still open, LCP
        // non-decreasing toward the top; slot 0 (LCP 0) never leaves it.
        // A slot popped because a smaller LCP arrived is the first ℓ-index
        // of an interval that just ended: the `up` of the arriving slot if
        // it is the last one popped, and the `down` of the slot below it
        // if that one lies strictly shallower and the arriving LCP pops it
        // too; one between the two opens a wider interval at the same
        // start. A slot arriving at the LCP of the top, once the pops are
        // done, is that one's `nextlIndex`, which a cell holds in place of
        // its `down`. So every cell is written at most once.
        let mut child = vec![0i16; m].into_boxed_slice();
        let mut far = Vec::new();
        let mut set = |slot: usize, value: u32| match i16::try_from(value as i64 - slot as i64) {
            Ok(offset) if offset != FAR => child[slot] = offset,
            _ => {
                child[slot] = FAR;
                far.push((slot as u32, value));
            }
        };
        let mut stack: Vec<u32> = vec![0];
        for k in 1..m {
            let lcp_k = slot_lcp[k];
            let mut last = None;
            while let Some(&top) = stack.last() {
                let lcp_top = slot_lcp[top as usize];
                if lcp_top <= lcp_k {
                    if lcp_top == lcp_k {
                        set(top as usize, k as u32);
                    }
                    break;
                }
                stack.pop();
                let below = *stack.last().expect("slot 0 is never popped") as usize;
                if lcp_k < slot_lcp[below] && slot_lcp[below] != lcp_top {
                    set(below, top);
                }
                last = Some(top);
            }
            if let Some(first) = last {
                set(k - 1, first);
            }
            stack.push(k as u32);
        }
        // Past the last slot every interval ends: the remaining `down`s.
        while let Some(top) = stack.pop() {
            if let Some(&below) = stack.last() {
                if slot_lcp[below as usize] != slot_lcp[top as usize] {
                    set(below as usize, top);
                }
            }
        }
        // The last slot has no `up`: slot 0 tells `first_l_index` so.
        set(m - 1, 0);

        far.sort_unstable();
        let far_start = if far.is_empty() {
            Box::default()
        } else {
            (0..=m.div_ceil(FAR_BLOCK))
                .map(|b| far.partition_point(|&(slot, _)| (slot as usize) < b * FAR_BLOCK) as u32)
                .collect()
        };
        let long_lcp = (slot_lcp.iter().enumerate())
            .filter(|&(_, &l)| l >= u32::from(LCP_MARK))
            .map(|(j, &l)| (j as u32, l))
            .collect();
        let slot_lcp = slot_lcp
            .iter()
            .map(|&l| l.min(u32::from(LCP_MARK)) as u8)
            .collect();
        let mut tree = Self {
            text: text.into(),
            sa,
            slot_lcp,
            long_lcp,
            child,
            far: far.into(),
            far_start,
            root_chars: Box::default(),
            root_children: Box::default(),
        };
        // The root's children past the terminator leaf start at the slots
        // of LCP 0.
        let starts: Vec<usize> = (1..m).filter(|&j| tree.slot_lcp[j] == 0).collect();
        let ends = starts.iter().skip(1).chain([&m]).map(|&next| next - 1);
        tree.root_chars = starts.iter().map(|&a| tree.text[tree.sa(a)]).collect();
        tree.root_children = (starts.iter().zip(ends))
            .map(|(&a, b)| (a, if a < b { tree.first_l_index(a, b) } else { 0 }))
            .chain([(m, 0)])
            .map(|(a, name)| (a as u32, name as u32))
            .collect();
        tree
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
        // `sa[0]` is the virtual-terminator slot; the plain SA follows.
        let plain_sa = self.sa[1..].to_vec();
        // `slot_lcp(j)` for `j >= 1` is `lcp[j - 1]`, widened back to `u32`.
        let lcp = (1..self.num_slots())
            .map(|j| self.slot_lcp(j) as u32)
            .collect();
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

    /// LCP between the suffixes in slots `j-1` and `j` (0 for `j <= 1`):
    /// one byte load, and a binary search of the exception list for an
    /// entry of 255 or more.
    #[inline]
    pub fn slot_lcp(&self, j: usize) -> usize {
        match self.slot_lcp[j] {
            LCP_MARK => self.long_slot_lcp(j),
            short => short as usize,
        }
    }

    /// The LCP of a slot marked [`LCP_MARK`], from the exception list.
    #[cold]
    fn long_slot_lcp(&self, j: usize) -> usize {
        let at = self
            .long_lcp
            .binary_search_by_key(&(j as u32), |&(slot, _)| slot)
            .expect("every marked slot has an exception entry");
        self.long_lcp[at].1 as usize
    }

    /// The child-table cell of slot `k` (module docs): one `i16` load, and
    /// a search of one block's far cells for a value more than 32 767
    /// slots away.
    #[inline]
    fn cell(&self, k: usize) -> usize {
        match self.child[k] {
            FAR => self.far_cell(k),
            offset => k.wrapping_add_signed(isize::from(offset)),
        }
    }

    /// The value of a cell marked [`FAR`], from the far list.
    #[cold]
    fn far_cell(&self, k: usize) -> usize {
        let block = k / FAR_BLOCK;
        let run = &self.far[self.far_start[block] as usize..self.far_start[block + 1] as usize];
        let at = run
            .binary_search_by_key(&(k as u32), |&(slot, _)| slot)
            .expect("every far cell has a list entry");
        run[at].1 as usize
    }

    /// The name of the internal node `[l, r]` (`l < r`): its first ℓ-index,
    /// the end of its first child interval plus one.
    /// [`SuffixTree::slot_lcp`] there is the node's string depth.
    #[inline]
    pub fn first_l_index(&self, l: usize, r: usize) -> usize {
        debug_assert!(l < r, "a leaf has no ℓ-index");
        // `up[r + 1]` names the widest interval ending at `r`; this one
        // unless that starts left of `l`, and then `down[l]` is stored.
        let up = self.cell(r);
        if l < up && up <= r {
            up
        } else {
            self.cell(l)
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
        let depth = self.slot_lcp(first);
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
                let cell = self.cell(start);
                next = if cell > start && self.slot_lcp(cell) == depth {
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
        if m == 0 || n == 0 {
            return (m == 0).then_some((0, n));
        }
        // The root's child `[a, b]` for the first character, from the root
        // table, named `first` unless it is a leaf.
        let i = self.root_chars.iter().position(|&c| c == pattern[0])?;
        let ((a, first), (next, _)) = (self.root_children[i], self.root_children[i + 1]);
        let (mut a, mut b, mut first) = (a as usize, next as usize - 1, first as usize);
        // Characters matched == string depth of the parent of `[a, b]`.
        let mut matched = 0usize;
        // The edge into the child starting at `slot` begins with its
        // suffixes' character `depth`; past the text end that is the
        // virtual terminator (`None`).
        let edge = |slot: usize, depth: usize| self.text.get(self.sa(slot) + depth).copied();
        loop {
            let start = self.sa(a);
            // Real characters on the path to the child: a leaf's last one
            // is the virtual terminator, which matches nothing.
            let depth = if a == b {
                n - start
            } else {
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
            let (l, r) = (a, b);
            let target = Some(pattern[matched]);
            // Walk the child boundaries: `a` starts the current child and
            // `next` the one after it (`r + 1` when there is none), `c` and
            // `next_c` are their edge characters.
            let mut c = edge(l, matched);
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
                let cell = self.cell(a);
                (next, next_c) = (r + 1, None);
                if cell > a {
                    let cell_c = edge(cell, matched);
                    if cell_c != c {
                        (next, next_c) = (cell, cell_c);
                    }
                }
            }
            b = next - 1;
            if a < b {
                // `first_l_index(a, b)` without its test: a child that
                // ends before `r` is the widest interval ending there, and
                // the last child the widest starting at its boundary.
                first = self.cell(if b < r { b } else { a });
            }
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

    /// Heap bytes held: the text, SA and LCP arrays (the LCP's exception
    /// list included) plus [`SuffixTree::child_table_heap_size`].
    pub fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.text)
            + std::mem::size_of_val(&*self.sa)
            + std::mem::size_of_val(&*self.slot_lcp)
            + std::mem::size_of_val(&*self.long_lcp)
            + self.child_table_heap_size()
    }

    /// Heap bytes of the child table alone — its cells, far list and start
    /// index: what the tree holds beyond the three arrays a snapshot stores.
    pub fn child_table_heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.child)
            + std::mem::size_of_val(&*self.far)
            + std::mem::size_of_val(&*self.far_start)
            + std::mem::size_of_val(&*self.root_chars)
            + std::mem::size_of_val(&*self.root_children)
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

    /// The child table as one `u32` per slot, by the sweep in its classic
    /// form: a `nextlIndex` written over the `down` of the same cell, and
    /// 0 in a cell with neither of the three values.
    fn classic_child_table(st: &SuffixTree) -> Vec<u32> {
        let m = st.num_slots();
        let lcp: Vec<usize> = (0..m).map(|j| st.slot_lcp(j)).collect();
        let mut child = vec![0u32; m];
        let mut stack = vec![0usize];
        for k in 1..m {
            let mut last = None;
            while let Some(&top) = stack.last() {
                if lcp[top] <= lcp[k] {
                    if lcp[top] == lcp[k] {
                        child[top] = k as u32;
                    }
                    break;
                }
                stack.pop();
                let below = *stack.last().unwrap();
                if lcp[k] <= lcp[below] && lcp[below] != lcp[top] {
                    child[below] = top as u32;
                }
                last = Some(top);
            }
            if let Some(first) = last {
                child[k - 1] = first as u32;
            }
            stack.push(k);
        }
        while let Some(top) = stack.pop() {
            if let Some(&below) = stack.last() {
                if lcp[below] != lcp[top] {
                    child[below] = top as u32;
                }
            }
        }
        child
    }

    /// Every cell reads the classic table's value — a cell without one
    /// reads its own slot, the last slot's reads 0 — and the far list
    /// holds one entry per cell marked [`FAR`], by slot.
    fn check_cells(st: &SuffixTree) {
        let last = st.num_slots() - 1;
        for (k, value) in classic_child_table(st).into_iter().enumerate() {
            let want = if value == 0 && k != last {
                k
            } else {
                value as usize
            };
            assert_eq!(st.cell(k), want, "slot {k}");
        }
        let marked: Vec<u32> = (0..=last)
            .filter(|&k| st.child[k] == FAR)
            .map(|k| k as u32)
            .collect();
        assert_eq!(
            st.far.iter().map(|&(slot, _)| slot).collect::<Vec<_>>(),
            marked
        );
        let blocks = st.far_start.len().saturating_sub(1);
        assert!(st.far.is_empty() || blocks == st.num_slots().div_ceil(FAR_BLOCK));
    }

    /// `a` repeated `count` times, then `b`.
    fn a_run(count: usize) -> Vec<u8> {
        let mut text = vec![b'a'; count];
        text.push(b'b');
        text
    }

    /// `a`, then `ab` repeated `count` times.
    fn a_then_ab(count: usize) -> Vec<u8> {
        std::iter::once(b'a').chain(b"ab".repeat(count)).collect()
    }

    #[test]
    fn cells_read_the_classic_table() {
        for text in [
            &b"abracadabra"[..],
            b"mississippi",
            b"A\0A\0\0",
            b"aaaaaa",
            b"a",
            b"",
        ] {
            let st = SuffixTree::build(text.to_vec());
            check_cells(&st);
            assert!(st.far.is_empty() && st.far_start.is_empty(), "{text:?}");
        }
    }

    #[test]
    fn an_up_may_point_at_its_own_slot() {
        // Slots 1.. hold `aaaab`, `aaab`, `aab`, `ab`: the LCP falls 3, 2,
        // 1, so slot 2's `up` names `[1, 2]`, whose one ℓ-index is 2.
        let st = SuffixTree::build(b"aaaab".to_vec());
        check_cells(&st);
        assert_eq!((st.child[2], st.cell(2)), (0, 2));
        assert_eq!(st.first_l_index(1, 2), 2);
    }

    #[test]
    fn the_last_slot_reads_slot_zero() {
        // Near in a small tree, far in one of 32 770 slots.
        let st = SuffixTree::build(b"banana".to_vec());
        assert_eq!((st.child[6], st.cell(6)), (-6, 0));
        let st = SuffixTree::build(a_run(32_768));
        let last = st.num_slots() - 1;
        assert_eq!((st.child[last], st.cell(last)), (FAR, 0));
        check_cells(&st);
        // The root ends at the last slot: no `up` may name it.
        assert_eq!(st.first_l_index(0, last), 1);
    }

    #[test]
    fn offsets_of_32_767_fit_and_32_768_go_far() {
        // Slot 1 starts the root's `a` child of `count` slots: its cell is
        // the `nextlIndex` `count + 1`, `count` slots on.
        for (count, cell) in [(32_767, 32_767), (32_768, FAR)] {
            let st = SuffixTree::build(a_run(count));
            check_cells(&st);
            assert_eq!((st.child[1], st.cell(1)), (cell, count + 1));
        }
        // Slot 1 is the leaf `aab…` and slots 2.. the `count` suffixes
        // `ab…`: the `a` child ends at slot `count + 1`, whose `up` names
        // it by slot 2, `count − 1` slots back.
        for (count, cell) in [(32_768, -32_767), (32_769, FAR)] {
            let st = SuffixTree::build(a_then_ab(count));
            check_cells(&st);
            assert_eq!((st.child[count + 1], st.cell(count + 1)), (cell, 2));
            assert_eq!(st.first_l_index(1, count + 1), 2);
        }
    }

    #[test]
    fn a_far_next_l_index_leaves_no_down_behind() {
        // The classic sweep writes a cell's `down` and then its
        // `nextlIndex` over it. A `nextlIndex` lies past the `down` of
        // the same cell, so a cell can go from near to far that way but
        // never back. Slot 1's `down` is near (2) in the first text and
        // far (32 769) in the second, and its `nextlIndex` far in both:
        // the far list holds the `nextlIndex` alone.
        for (text, down, next) in [
            (a_then_ab(32_768), 2, 32_770),
            (a_run(32_769), 32_769, 32_770),
        ] {
            let st = SuffixTree::build(text);
            check_cells(&st);
            assert_eq!(st.child[1], FAR);
            let entries: Vec<_> = st.far.iter().filter(|&&(slot, _)| slot == 1).collect();
            assert_eq!(entries, [&(1, next)]);
            assert_eq!(st.first_l_index(1, next as usize - 1), down);
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
