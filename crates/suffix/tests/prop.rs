//! Property tests for the suffix substrate: SA-IS, LCP, tree structure and
//! LCA.

use proptest::prelude::*;
use ustr_suffix::{lcp_array, rank_array, suffix_array, LeafLca, SuffixArray, SuffixTree};

fn byte_text() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Small alphabet with embedded separators (the transformed-text shape).
        prop::collection::vec(prop::sample::select(vec![0u8, b'a', b'b', b'c']), 1..150),
        // Full byte range.
        prop::collection::vec(any::<u8>(), 1..80),
    ]
}

/// A periodic text of 300–1 000 characters: a period of 1–3 symbols
/// repeated, so that neighbouring suffixes share hundreds of characters —
/// LCP entries of 255 and more, which the tree keeps beside its byte table —
/// with a separator dropped in at up to two places.
fn periodic_text() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..4),
        300usize..1_000,
        prop::collection::vec(0usize..1_000, 0..3),
    )
        .prop_map(|(period, len, separators)| {
            let mut text: Vec<u8> = period.iter().copied().cycle().take(len).collect();
            for at in separators {
                text[at % len] = 0;
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sa_is_sorted_permutation(text in byte_text()) {
        let sa = suffix_array(&text);
        // Permutation.
        let mut seen = vec![false; text.len()];
        for &p in &sa {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // Sorted.
        for w in sa.windows(2) {
            prop_assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
        // Rank inverts.
        let rank = rank_array(&sa);
        for (j, &p) in sa.iter().enumerate() {
            prop_assert_eq!(rank[p as usize] as usize, j);
        }
    }

    #[test]
    fn lcp_is_exact_and_tight(text in byte_text()) {
        let sa = suffix_array(&text);
        let lcp = lcp_array(&text, &sa);
        for j in 1..sa.len() {
            let a = &text[sa[j - 1] as usize..];
            let b = &text[sa[j] as usize..];
            let l = lcp[j] as usize;
            prop_assert_eq!(&a[..l], &b[..l], "common prefix");
            if l < a.len() && l < b.len() {
                prop_assert_ne!(a[l], b[l], "maximality");
            }
        }
    }

    #[test]
    fn tree_ranges_cover_exactly_the_occurrences(
        text in byte_text(),
        start in 0usize..150,
        len in 1usize..8,
    ) {
        let start = start % text.len();
        let len = len.min(text.len() - start);
        let pattern = text[start..start + len].to_vec();
        let tree = SuffixTree::build(text.clone());
        let mut occ = tree.occurrences(&pattern);
        occ.sort_unstable();
        let expected: Vec<usize> = (0..=text.len() - len)
            .filter(|&i| text[i..i + len] == pattern[..])
            .collect();
        prop_assert_eq!(occ, expected);
        // The suffix array agrees.
        let arr = SuffixArray::new(text.clone());
        let mut a_occ = arr.occurrences(&pattern);
        a_occ.sort_unstable();
        let mut t_occ = tree.occurrences(&pattern);
        t_occ.sort_unstable();
        prop_assert_eq!(t_occ, a_occ);
    }

    /// `suffix_range` against a naive scan of the sorted suffixes: the slots
    /// whose suffix starts with the pattern are exactly `[l, r]`.
    #[test]
    fn suffix_range_is_the_run_of_matching_slots(
        text in byte_text(),
        pattern in prop::collection::vec(prop::sample::select(vec![0u8, b'a', b'b', b'c']), 1..5),
    ) {
        let tree = SuffixTree::build(text.clone());
        let matching: Vec<usize> = (0..tree.num_slots())
            .filter(|&j| text[tree.sa(j)..].starts_with(&pattern))
            .collect();
        match tree.suffix_range(&pattern) {
            Some((l, r)) => prop_assert_eq!(matching, (l..=r).collect::<Vec<_>>()),
            None => prop_assert!(matching.is_empty()),
        }
    }

    /// The child-table descent against the binary search of
    /// [`SuffixArray`]: the same range, shifted by the virtual slot, for
    /// present and absent patterns over alphabets of 1-4 symbols with
    /// embedded separators — patterns ending in `0`, longer than the text,
    /// the all-equal and the single-character text included.
    #[test]
    fn suffix_range_equals_the_suffix_array_search(
        sigma in 1usize..5,
        raw_text in prop::collection::vec(0u8..4, 1..120),
        raw_pattern in prop::collection::vec(0u8..4, 1..7),
        start in 0usize..120,
        len in 1usize..130,
        zero_end in any::<bool>(),
    ) {
        const SYMBOLS: [u8; 4] = [b'a', 0, b'b', b'c'];
        let text: Vec<u8> = raw_text.iter().map(|&c| SYMBOLS[c as usize % sigma]).collect();
        let tree = SuffixTree::build(text.clone());
        let arr = SuffixArray::new(text.clone());
        // A substring of the text (stretched past its end when `len` says
        // so), and a free pattern that is usually absent.
        let start = start % text.len();
        let mut present: Vec<u8> = text[start..].iter().copied().take(len).collect();
        present.extend(std::iter::repeat_n(b'a', len.saturating_sub(text.len())));
        let mut free: Vec<u8> = raw_pattern.iter().map(|&c| SYMBOLS[c as usize % 4]).collect();
        if zero_end {
            present.push(0);
            free.push(0);
        }
        for pattern in [present, free] {
            let shifted = arr.suffix_range(&pattern).map(|(l, r)| (l + 1, r + 1));
            prop_assert_eq!(tree.suffix_range(&pattern), shifted, "pattern {:?}", pattern);
        }
    }

    /// Node keys, names, children and leaf LCAs against a tree built here
    /// from SA + LCP with explicit nodes: the keys the ε-link snapshots
    /// persist (`origin`) are one per node, and for every node `[l, r]`
    /// the nodes keyed in `subtree_keys(l, r)` are exactly its subtree.
    #[test]
    fn keys_and_lcas_match_an_explicit_tree(text in byte_text()) {
        let tree = SuffixTree::build(text);
        let oracle = ExplicitTree::build(&tree);
        let keys: Vec<usize> = (oracle.nodes.iter()).map(|v| tree.node_key(v.l, v.r)).collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), keys.len(), "one key per node");
        for (v, node) in oracle.nodes.iter().enumerate() {
            let (l, r) = (node.l, node.r);
            if l < r {
                let name = tree.first_l_index(l, r);
                prop_assert_eq!(tree.slot_lcp(name), node.depth);
                let kids: Vec<(usize, usize)> = oracle.children[v]
                    .iter()
                    .map(|&c| (oracle.nodes[c].l, oracle.nodes[c].r))
                    .collect();
                prop_assert_eq!(tree.child_intervals(l, r).collect::<Vec<_>>(), kids);
            }
            let run = SuffixTree::subtree_keys(l, r);
            let keyed: Vec<usize> = (0..keys.len()).filter(|&w| run.contains(&keys[w])).collect();
            prop_assert_eq!(keyed, oracle.subtree(v), "node [{}, {}]", l, r);
        }
        let slots = tree.num_slots();
        let leaf_lca = LeafLca::build(&tree);
        for i in 0..slots {
            for j in (i + 1..slots).step_by(3) {
                let lca = oracle.lca(oracle.leaf_of_slot[i], oracle.leaf_of_slot[j]);
                let (l, r) = (oracle.nodes[lca].l, oracle.nodes[lca].r);
                prop_assert_eq!(leaf_lca.lca_of_slots(i, j), tree.first_l_index(l, r));
                prop_assert_eq!(leaf_lca.lca_of_slots(j, i), tree.first_l_index(l, r));
            }
        }
    }

    #[test]
    fn lca_depth_equals_pairwise_lcp(text in byte_text(), i in 0usize..150, j in 0usize..150) {
        let tree = SuffixTree::build(text.clone());
        let slots = tree.num_slots();
        let (i, j) = (1 + i % (slots - 1).max(1), 1 + j % (slots - 1).max(1));
        if i == j || slots < 3 {
            return Ok(());
        }
        let l = LeafLca::build(&tree).lca_of_slots(i, j);
        let (a, b) = (tree.sa(i), tree.sa(j));
        let expected = text[a..]
            .iter()
            .zip(text[b..].iter())
            .take_while(|(x, y)| x == y)
            .count();
        prop_assert_eq!(tree.slot_lcp(l), expected);
    }

    /// Every internal node, as an interval: its children partition its
    /// range in SA order, there are at least two, and each is strictly
    /// deeper.
    #[test]
    fn tree_structural_invariants(text in byte_text()) {
        let n = text.len();
        let tree = SuffixTree::build(text);
        let depth = |l: usize, r: usize| {
            if l == r { n - tree.sa(l) + 1 } else { tree.slot_lcp(tree.first_l_index(l, r)) }
        };
        let mut open = vec![(0, tree.num_slots() - 1)];
        let mut leaves = 0;
        while let Some((l, r)) = open.pop() {
            if l == r {
                leaves += 1;
                continue;
            }
            let mut cursor = l;
            let mut kids = 0;
            for (cl, cr) in tree.child_intervals(l, r) {
                prop_assert_eq!(cl, cursor);
                prop_assert!(cl <= cr);
                prop_assert!(depth(l, r) < depth(cl, cr));
                cursor = cr + 1;
                kids += 1;
                open.push((cl, cr));
            }
            prop_assert_eq!(cursor, r + 1);
            prop_assert!(kids >= 2);
        }
        prop_assert_eq!(leaves, tree.num_slots());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LCP entries past a byte: every slot reads Kasai's value, the parts a
    /// snapshot stores carry it back at full width, and the descent — which
    /// reads node depths through the same table — finds `SuffixArray`'s
    /// range for patterns up to 600 long, present (cut from the text,
    /// stretched past its end when the length says so) and absent (one
    /// character changed at the end).
    #[test]
    fn long_lcp_entries_survive_the_byte_table(
        text in periodic_text(),
        cuts in prop::collection::vec((0usize..1_000, 1usize..601), 4),
    ) {
        let tree = SuffixTree::build(text.clone());
        let arr = SuffixArray::new(text.clone());
        let lcp = lcp_array(&text, arr.sa());
        prop_assert_eq!(tree.slot_lcp(0), 0);
        for j in 1..tree.num_slots() {
            prop_assert_eq!(tree.slot_lcp(j), lcp[j - 1] as usize, "slot {}", j);
        }
        if !text.contains(&0) {
            prop_assert!(lcp.iter().any(|&l| l >= 255), "no entry past a byte");
        }
        let (t, sa, stored) = tree.to_parts();
        prop_assert_eq!(&stored, &lcp);
        let rebuilt = SuffixTree::from_parts(t, sa, stored);
        prop_assert_eq!(rebuilt.to_parts().2, lcp);
        for (start, len) in cuts {
            let start = start % text.len();
            let mut present: Vec<u8> = text[start..].iter().copied().take(len).collect();
            present.extend(std::iter::repeat_n(b'a', len.saturating_sub(present.len())));
            let mut absent = present.clone();
            *absent.last_mut().unwrap() = b'd';
            for pattern in [present, absent] {
                let shifted = arr.suffix_range(&pattern).map(|(l, r)| (l + 1, r + 1));
                prop_assert_eq!(tree.suffix_range(&pattern), shifted, "length {}", pattern.len());
                prop_assert_eq!(rebuilt.suffix_range(&pattern), shifted);
            }
        }
    }
}

/// The suffix tree with explicit nodes, built from SA + LCP by the stack
/// sweep `SuffixTree` used before it named nodes by intervals: the oracle
/// for the tree's node keys.
struct ExplicitTree {
    nodes: Vec<OracleNode>,
    /// Children of each node in SA order.
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
    leaf_of_slot: Vec<usize>,
}

struct OracleNode {
    depth: usize,
    l: usize,
    r: usize,
}

impl ExplicitTree {
    fn build(tree: &SuffixTree) -> Self {
        let m = tree.num_slots();
        let n = m - 1;
        let mut nodes = vec![OracleNode {
            depth: 0,
            l: 0,
            r: n,
        }];
        let mut parent = vec![usize::MAX];
        let mut leaf_of_slot = Vec::with_capacity(m);
        let mut stack = vec![0usize];
        // One sweep over the leaves; a node's parent is fixed when it
        // leaves the stack.
        for j in 0..=m {
            let lcp_j = if j < m { tree.slot_lcp(j) } else { 0 };
            let mut last = None;
            while let Some(&top) = stack.last() {
                if nodes[top].depth <= lcp_j || top == 0 {
                    break;
                }
                stack.pop();
                nodes[top].r = j - 1;
                if let Some(l) = last {
                    parent[l] = top;
                }
                last = Some(top);
            }
            if let Some(l) = last {
                let top = *stack.last().unwrap();
                if nodes[top].depth == lcp_j {
                    parent[l] = top;
                } else {
                    // Split: a new internal node adopting `last` as its
                    // first child.
                    let v = nodes.len();
                    nodes.push(OracleNode {
                        depth: lcp_j,
                        l: nodes[l].l,
                        r: usize::MAX,
                    });
                    parent.push(usize::MAX);
                    parent[l] = v;
                    stack.push(v);
                }
            }
            if j < m {
                leaf_of_slot.push(nodes.len());
                stack.push(nodes.len());
                nodes.push(OracleNode {
                    depth: n - tree.sa(j) + 1,
                    l: j,
                    r: j,
                });
                parent.push(usize::MAX);
            }
        }
        // Siblings are created in slot order.
        let mut children = vec![Vec::new(); nodes.len()];
        for (v, &p) in parent.iter().enumerate().skip(1) {
            children[p].push(v);
        }
        Self {
            nodes,
            children,
            parent,
            leaf_of_slot,
        }
    }

    /// The nodes below and including `v`, ascending.
    fn subtree(&self, v: usize) -> Vec<usize> {
        let (mut below, mut open) = (Vec::new(), vec![v]);
        while let Some(w) = open.pop() {
            below.push(w);
            open.extend(&self.children[w]);
        }
        below.sort_unstable();
        below
    }

    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        let contains = |v: usize, w: usize| {
            self.nodes[v].l <= self.nodes[w].l && self.nodes[w].r <= self.nodes[v].r
        };
        while !contains(a, b) {
            a = self.parent[a];
        }
        while !contains(b, a) {
            b = self.parent[b];
        }
        // `a` holds `b`'s leaf range and is the lowest node to: climbing
        // `b` to it cannot pass it.
        debug_assert_eq!(a, b);
        a
    }
}
