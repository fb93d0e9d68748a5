//! The ancestry layer over a [`SuffixTree`]: preorder ranks with subtree
//! intervals ([`Ancestry`]), and O(1) LCA of leaves ([`LeafLca`]).
//!
//! Pattern descent needs none of this, so the tree does not carry it; the
//! §7 approximate index — the one structure that links nodes to their
//! ancestors — builds it on top. Nodes are named as the tree names them: a
//! leaf by its slot, an internal node by its first ℓ-index
//! ([`SuffixTree::first_l_index`]), so everything here is an array over
//! slots.
//!
//! The halves live apart because they are needed apart. Links name their
//! origin by preorder rank and a query turns its locus into a rank
//! interval, so the ranks are *held* with the links: two `u32` per slot,
//! one depth-first pass. The LCA structure (boundary names + a block RMQ
//! over the slot-LCP array, ≈ 21 B per slot) finds the links and is read by
//! no query: a *build-time* value, never built when an index is loaded.

use ustr_rmq::{BlockRmq, Direction, Rmq};

use crate::tree::SuffixTree;

/// Preorder numbering and subtree intervals for one [`SuffixTree`]. Slot
/// and interval arguments are those of the tree it was built over. The root
/// has rank 0 and children are visited in SA order.
///
/// ```
/// use ustr_suffix::{Ancestry, LeafLca, SuffixTree};
/// let st = SuffixTree::build(b"banana".to_vec());
/// let (l, r) = st.suffix_range(b"ana").unwrap();
/// let lca = LeafLca::build(&st).lca_of_slots(l, r);
/// assert_eq!(lca, st.first_l_index(l, r));
/// assert_eq!(st.slot_lcp(lca), 3);
/// let anc = Ancestry::build(&st);
/// let (first, last) = anc.preorder_range(&st, l, r);
/// assert_eq!(first, anc.interval_preorder(lca));
/// assert_eq!(last, anc.leaf_preorder(r));
/// ```
#[derive(Debug, Clone)]
pub struct Ancestry {
    /// Slot `j` -> preorder rank of leaf `j`.
    leaf_pre: Vec<u32>,
    /// First ℓ-index `k` -> preorder rank of the internal node it names
    /// (unused at every other slot).
    interval_pre: Vec<u32>,
}

impl Ancestry {
    /// Derives the ranks from `tree` in one depth-first pass.
    pub fn build(tree: &SuffixTree) -> Self {
        let slots = tree.num_slots();
        let mut leaf_pre = vec![0u32; slots];
        let mut interval_pre = vec![0u32; slots];
        Self::preorder(tree, |rank, (l, r)| {
            if l == r {
                leaf_pre[l] = rank as u32;
            } else {
                interval_pre[tree.first_l_index(l, r)] = rank as u32;
            }
        });
        Self {
            leaf_pre,
            interval_pre,
        }
    }

    /// Calls `visit(rank, (l, r))` for every node of `tree` in preorder,
    /// with the rank [`Ancestry::build`] gives it — a leaf as `(j, j)`. One
    /// depth-first pass; what the ranks number is thereby what this visits.
    pub fn preorder(tree: &SuffixTree, mut visit: impl FnMut(usize, (usize, usize))) {
        let slots = tree.num_slots();
        // The empty text is a root above the terminator leaf: the one tree
        // whose root (rank 0) is not an interval of two slots or more.
        let mut next_pre = usize::from(slots == 1);
        // Open internal nodes: the children still to visit.
        let mut dfs = Vec::new();
        let mut step = |(l, r): (usize, usize), dfs: &mut Vec<_>| {
            visit(next_pre, (l, r));
            if l < r {
                dfs.push(tree.child_intervals(l, r));
            }
            next_pre += 1;
        };
        step((0, slots - 1), &mut dfs);
        while let Some(children) = dfs.last_mut() {
            match children.next() {
                Some(child) => step(child, &mut dfs),
                None => {
                    dfs.pop();
                }
            }
        }
    }

    /// Number of tree nodes, leaves included: one more than the last rank,
    /// which the last leaf holds.
    pub fn node_count(&self) -> usize {
        self.leaf_pre.last().map_or(0, |&p| p as usize + 1)
    }

    /// Preorder rank of the leaf of slot `slot`.
    #[inline]
    pub fn leaf_preorder(&self, slot: usize) -> usize {
        self.leaf_pre[slot] as usize
    }

    /// Preorder rank of the internal node whose first ℓ-index is `name`.
    #[inline]
    pub fn interval_preorder(&self, name: usize) -> usize {
        self.interval_pre[name] as usize
    }

    /// Preorder ranks `[first, last]` of the subtree of the node `[l, r]` of
    /// `tree` (a leaf when `l == r`): its own rank, and that of its last
    /// leaf.
    #[inline]
    pub fn preorder_range(&self, tree: &SuffixTree, l: usize, r: usize) -> (usize, usize) {
        let last = self.leaf_preorder(r);
        if l == r {
            (last, last)
        } else {
            (self.interval_preorder(tree.first_l_index(l, r)), last)
        }
    }

    /// Heap bytes held: two `u32` per slot.
    pub fn heap_size(&self) -> usize {
        (self.leaf_pre.capacity() + self.interval_pre.capacity()) * std::mem::size_of::<u32>()
    }
}

/// O(1) lowest common ancestor of two leaves of one [`SuffixTree`],
/// answered from the slot-LCP array: the LCA of leaves `i < j` is the node
/// the minimum of `LCP[i+1..=j]` is an ℓ-index of.
#[derive(Debug, Clone)]
pub struct LeafLca {
    /// Slot `k` -> name of the node `k` is an ℓ-index of: the LCA of leaves
    /// `k - 1` and `k` (unused at slot 0).
    boundary_node: Vec<u32>,
    /// Min-RMQ over the tree's slot-LCP array.
    lcp_rmq: BlockRmq,
}

impl LeafLca {
    /// Derives the structure from `tree`'s slot-LCP array: one stack sweep
    /// for the boundary names plus the RMQ construction.
    pub fn build(tree: &SuffixTree) -> Self {
        let lcp = tree.slot_lcps();
        let mut boundary_node = vec![0u32; lcp.len()];
        // First ℓ-indices of the nodes still open, LCP strictly increasing
        // toward the top: a smaller LCP closes a node, an equal one is its
        // next ℓ-index, a larger one opens a node below it.
        let mut open: Vec<u32> = Vec::new();
        for k in 1..lcp.len() {
            while open.last().is_some_and(|&top| lcp[top as usize] > lcp[k]) {
                open.pop();
            }
            boundary_node[k] = match open.last() {
                Some(&top) if lcp[top as usize] == lcp[k] => top,
                _ => {
                    open.push(k as u32);
                    k as u32
                }
            };
        }
        let lcp_f64: Vec<f64> = lcp.iter().map(|&x| x as f64).collect();
        Self {
            boundary_node,
            lcp_rmq: BlockRmq::new(&lcp_f64, Direction::Min),
        }
    }

    /// Name of the LCA of the leaves in slots `i != j`: the node whose
    /// ℓ-index is the minimum slot-LCP between them.
    pub fn lca_of_slots(&self, i: usize, j: usize) -> usize {
        debug_assert_ne!(i, j, "a leaf is not named by an ℓ-index");
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let k = self.lcp_rmq.query(lo + 1, hi);
        self.boundary_node[k] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node below and including `[l, r]` as `(l, r)`, in preorder.
    fn preorder(st: &SuffixTree, l: usize, r: usize, out: &mut Vec<(usize, usize)>) {
        out.push((l, r));
        if l < r {
            for (a, b) in st.child_intervals(l, r) {
                preorder(st, a, b, out);
            }
        }
    }

    #[test]
    fn ranks_follow_a_recursive_preorder_walk() {
        for text in [&b"mississippi"[..], b"abaababaabaab", b"A\0A\0\0", b"a"] {
            let st = SuffixTree::build(text.to_vec());
            let anc = Ancestry::build(&st);
            let mut nodes = Vec::new();
            preorder(&st, 0, st.num_slots() - 1, &mut nodes);
            assert_eq!(anc.node_count(), nodes.len());
            let mut walked = Vec::new();
            Ancestry::preorder(&st, |rank, node| walked.push((rank, node)));
            assert!(walked.into_iter().eq(nodes.iter().copied().enumerate()));
            for (rank, &(l, r)) in nodes.iter().enumerate() {
                // The subtree is the run of nodes nested in `[l, r]`.
                let size = nodes[rank..]
                    .iter()
                    .take_while(|&&(a, b)| l <= a && b <= r)
                    .count();
                assert_eq!(
                    anc.preorder_range(&st, l, r),
                    (rank, rank + size - 1),
                    "node [{l}, {r}]"
                );
            }
        }
    }

    #[test]
    fn the_empty_text_is_a_root_above_one_leaf() {
        let st = SuffixTree::build(Vec::new());
        let anc = Ancestry::build(&st);
        assert_eq!(anc.node_count(), 2);
        assert_eq!(anc.leaf_preorder(0), 1);
    }

    #[test]
    fn lca_of_leaves_is_the_narrowest_interval_holding_both() {
        let text = b"abaababaabaab".to_vec();
        let st = SuffixTree::build(text.clone());
        let anc = LeafLca::build(&st);
        let mut nodes = Vec::new();
        preorder(&st, 0, st.num_slots() - 1, &mut nodes);
        let lcp_of = |a: usize, b: usize| -> usize {
            text[a..]
                .iter()
                .zip(text[b..].iter())
                .take_while(|(x, y)| x == y)
                .count()
        };
        for i in 0..st.num_slots() {
            for j in i + 1..st.num_slots() {
                let &(l, r) = nodes
                    .iter()
                    .filter(|&&(l, r)| l <= i && j <= r)
                    .min_by_key(|&&(l, r)| r - l)
                    .unwrap();
                let lca = anc.lca_of_slots(i, j);
                assert_eq!(lca, st.first_l_index(l, r), "slots {i},{j}");
                assert_eq!(anc.lca_of_slots(j, i), lca);
                assert_eq!(
                    st.slot_lcp(lca),
                    lcp_of(st.sa(i), st.sa(j)),
                    "slots {i},{j}"
                );
            }
        }
    }
}
