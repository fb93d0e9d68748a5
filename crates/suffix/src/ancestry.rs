//! The ancestry layer over a [`SuffixTree`]: O(1) LCA of leaves
//! ([`LeafLca`]), which the §7 approximate index builds to find its links.
//!
//! Pattern descent needs none of this, so the tree does not carry it. Nodes
//! are named as the tree names them: a leaf by its slot, an internal node
//! by its first ℓ-index ([`SuffixTree::first_l_index`]), so everything here
//! is an array over slots. The structure (boundary names + a block RMQ over
//! the slot-LCP array, ≈ 21 B per slot) finds the links and is read by no
//! query: a *build-time* value, never built when an index is loaded. A link
//! keys its origin by the tree's own name ([`SuffixTree::node_key`]), so
//! nothing of this layer is held.

use ustr_rmq::{BlockRmq, Direction, Rmq};

use crate::tree::SuffixTree;

/// O(1) lowest common ancestor of two leaves of one [`SuffixTree`],
/// answered from the slot-LCP array: the LCA of leaves `i < j` is the node
/// the minimum of `LCP[i+1..=j]` is an ℓ-index of.
///
/// ```
/// use ustr_suffix::{LeafLca, SuffixTree};
/// let st = SuffixTree::build(b"banana".to_vec());
/// let (l, r) = st.suffix_range(b"ana").unwrap();
/// let lca = LeafLca::build(&st).lca_of_slots(l, r);
/// assert_eq!(lca, st.first_l_index(l, r));
/// assert_eq!(st.slot_lcp(lca), 3);
/// ```
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
        let lcp = |k: usize| tree.slot_lcp(k);
        let slots = tree.num_slots();
        let mut boundary_node = vec![0u32; slots];
        // First ℓ-indices of the nodes still open, LCP strictly increasing
        // toward the top: a smaller LCP closes a node, an equal one is its
        // next ℓ-index, a larger one opens a node below it.
        let mut open: Vec<u32> = Vec::new();
        for (k, name) in boundary_node.iter_mut().enumerate().skip(1) {
            let lcp_k = lcp(k);
            while open.last().is_some_and(|&top| lcp(top as usize) > lcp_k) {
                open.pop();
            }
            *name = match open.last() {
                Some(&top) if lcp(top as usize) == lcp_k => top,
                _ => {
                    open.push(k as u32);
                    k as u32
                }
            };
        }
        let lcp_f64: Vec<f64> = (0..slots).map(|k| lcp(k) as f64).collect();
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

    #[test]
    fn lca_of_leaves_is_the_narrowest_interval_holding_both() {
        let text = b"abaababaabaab".to_vec();
        let st = SuffixTree::build(text.clone());
        let anc = LeafLca::build(&st);
        let mut nodes = Vec::new();
        st.for_each_node(|l, r| nodes.push((l, r)));
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
