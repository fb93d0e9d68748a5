//! The ancestry layer over a [`SuffixTree`]: leaf lookup, preorder ranks
//! with subtree intervals, and O(1) LCA.
//!
//! Pattern descent needs none of this, so the tree does not carry it; the
//! §7 approximate index — the one structure that links nodes to their
//! ancestors — builds it on top. LCA is answered from the slot-LCP array
//! and per-boundary split nodes with an O(n)-word block RMQ.

use ustr_rmq::{BlockRmq, Direction, Rmq};

use crate::tree::{NodeId, SuffixTree};

/// Preorder numbering, subtree intervals and O(1) LCA for one
/// [`SuffixTree`]. Node arguments are ids of the tree it was built over.
///
/// ```
/// use ustr_suffix::{Ancestry, SuffixTree};
/// let st = SuffixTree::build(b"banana".to_vec());
/// let anc = Ancestry::build(&st);
/// let (l, r) = st.suffix_range(b"ana").unwrap();
/// let lca = anc.lca(&st, anc.leaf(l), anc.leaf(r));
/// assert_eq!(st.string_depth(lca), 3);
/// assert_eq!(Some(lca), st.locus(b"ana"));
/// ```
#[derive(Debug, Clone)]
pub struct Ancestry {
    /// SA slot -> leaf node id.
    leaf_of_slot: Vec<u32>,
    /// Node id -> preorder rank, and the largest preorder rank in its subtree.
    pre: Vec<u32>,
    pre_end: Vec<u32>,
    /// `boundary_node[j]` = LCA of leaves `j-1` and `j` (the root for slot 0).
    boundary_node: Vec<u32>,
    /// Min-RMQ over the tree's slot-LCP array.
    lcp_rmq: BlockRmq,
}

impl Ancestry {
    /// Derives the layer from `tree` in one depth-first pass plus the RMQ
    /// construction.
    pub fn build(tree: &SuffixTree) -> Self {
        let root = tree.root();
        let count = tree.num_nodes();
        let slots = tree.num_slots();
        let mut leaf_of_slot = vec![root; slots];
        let mut boundary_node = vec![root; slots];
        let mut pre = vec![0u32; count];
        let mut pre_end = vec![0u32; count];
        let mut next_pre = 1u32; // the root is rank 0
        let mut dfs: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&mut (node, ref mut visited)) = dfs.last_mut() {
            let Some(&child) = tree.children(node).get(*visited) else {
                pre_end[node as usize] = next_pre - 1;
                dfs.pop();
                continue;
            };
            let first_slot = tree.slot_range(child).0;
            if *visited > 0 {
                // `node` is where the leaves either side of this child
                // boundary part ways.
                boundary_node[first_slot] = node;
            }
            *visited += 1;
            pre[child as usize] = next_pre;
            next_pre += 1;
            if tree.is_leaf(child) {
                leaf_of_slot[first_slot] = child;
                pre_end[child as usize] = next_pre - 1;
            } else {
                dfs.push((child, 0));
            }
        }

        let lcp_f64: Vec<f64> = tree.slot_lcps().iter().map(|&x| x as f64).collect();
        let lcp_rmq = BlockRmq::new(&lcp_f64, Direction::Min);

        Self {
            leaf_of_slot,
            pre,
            pre_end,
            boundary_node,
            lcp_rmq,
        }
    }

    /// Leaf node for SA slot `j`.
    #[inline]
    pub fn leaf(&self, slot: usize) -> NodeId {
        self.leaf_of_slot[slot]
    }

    /// Preorder rank of `node`.
    #[inline]
    pub fn preorder(&self, node: NodeId) -> usize {
        self.pre[node as usize] as usize
    }

    /// Preorder interval `[preorder(node), ..]` covered by the subtree.
    #[inline]
    pub fn preorder_range(&self, node: NodeId) -> (usize, usize) {
        (
            self.pre[node as usize] as usize,
            self.pre_end[node as usize] as usize,
        )
    }

    /// Returns `true` when `a` is an ancestor of `b` (inclusive).
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let (al, ar) = self.preorder_range(a);
        let pb = self.preorder(b);
        al <= pb && pb <= ar
    }

    /// LCA of the leaves in slots `i` and `j`: the boundary split node at
    /// the minimum slot-LCP between them.
    pub fn lca_of_slots(&self, i: usize, j: usize) -> NodeId {
        if i == j {
            return self.leaf_of_slot[i];
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let k = self.lcp_rmq.query(lo + 1, hi);
        self.boundary_node[k]
    }

    /// Lowest common ancestor of two nodes of `tree` in O(1).
    pub fn lca(&self, tree: &SuffixTree, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        if self.is_ancestor(a, b) {
            return a;
        }
        if self.is_ancestor(b, a) {
            return b;
        }
        let (al, _) = tree.slot_range(a);
        let (bl, _) = tree.slot_range(b);
        self.lca_of_slots(al, bl)
    }

    /// Heap bytes held.
    pub fn heap_size(&self) -> usize {
        (self.leaf_of_slot.capacity()
            + self.pre.capacity()
            + self.pre_end.capacity()
            + self.boundary_node.capacity())
            * std::mem::size_of::<u32>()
            + self.lcp_rmq.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node id -> parent, read off the children lists.
    fn parents(st: &SuffixTree) -> Vec<Option<NodeId>> {
        let mut parent = vec![None; st.num_nodes()];
        for id in 0..st.num_nodes() as u32 {
            for &c in st.children(id) {
                parent[c as usize] = Some(id);
            }
        }
        parent
    }

    #[test]
    fn leaves_map_slots_to_their_nodes() {
        let st = SuffixTree::build(b"mississippi".to_vec());
        let anc = Ancestry::build(&st);
        for j in 0..st.num_slots() {
            let leaf = anc.leaf(j);
            assert!(st.is_leaf(leaf));
            assert_eq!(st.slot_range(leaf), (j, j));
        }
    }

    #[test]
    fn preorder_intervals_nest() {
        let st = SuffixTree::build(b"mississippi".to_vec());
        let anc = Ancestry::build(&st);
        for id in 0..st.num_nodes() as u32 {
            let (l, r) = anc.preorder_range(id);
            assert!(l <= r);
            assert_eq!(anc.preorder(id), l);
            for &c in st.children(id) {
                let (cl, cr) = anc.preorder_range(c);
                assert!(l < cl && cr <= r);
                assert!(anc.is_ancestor(id, c));
                assert!(!anc.is_ancestor(c, id));
            }
        }
    }

    #[test]
    fn lca_agrees_with_ancestor_walk() {
        let st = SuffixTree::build(b"abaababaabaab".to_vec());
        let anc = Ancestry::build(&st);
        let parent = parents(&st);
        let naive_lca = |mut a: NodeId, mut b: NodeId| -> NodeId {
            let mut seen = std::collections::HashSet::new();
            seen.insert(a);
            while let Some(p) = parent[a as usize] {
                a = p;
                seen.insert(a);
            }
            while !seen.contains(&b) {
                b = parent[b as usize].unwrap();
            }
            b
        };
        let slots = st.num_slots();
        for i in 0..slots {
            for j in 0..slots {
                let (a, b) = (anc.leaf(i), anc.leaf(j));
                assert_eq!(anc.lca(&st, a, b), naive_lca(a, b), "slots {i},{j}");
            }
        }
        // Internal-node LCAs too.
        for a in 0..st.num_nodes() as u32 {
            for b in (0..st.num_nodes() as u32).step_by(3) {
                assert_eq!(anc.lca(&st, a, b), naive_lca(a, b), "nodes {a},{b}");
            }
        }
    }

    #[test]
    fn lca_of_leaves_has_lcp_string_depth() {
        let text = b"abaababaabaab".to_vec();
        let st = SuffixTree::build(text.clone());
        let anc = Ancestry::build(&st);
        let lcp_of = |a: usize, b: usize| -> usize {
            text[a..]
                .iter()
                .zip(text[b..].iter())
                .take_while(|(x, y)| x == y)
                .count()
        };
        for i in 1..st.num_slots() {
            for j in i + 1..st.num_slots() {
                let l = anc.lca(&st, anc.leaf(i), anc.leaf(j));
                assert_eq!(
                    st.string_depth(l),
                    lcp_of(st.sa(i), st.sa(j)),
                    "slots {i},{j}"
                );
            }
        }
    }

    #[test]
    fn slot_lcp_matches_lca_depth() {
        let st = SuffixTree::build(b"mississippi".to_vec());
        let anc = Ancestry::build(&st);
        for j in 2..st.num_slots() {
            let l = anc.lca(&st, anc.leaf(j - 1), anc.leaf(j));
            assert_eq!(st.slot_lcp(j), st.string_depth(l));
        }
    }
}
