//! Property tests for the suffix substrate: SA-IS, LCP, tree structure and
//! LCA.

use proptest::prelude::*;
use ustr_suffix::{lcp_array, rank_array, suffix_array, Ancestry, SuffixArray, SuffixTree};

fn byte_text() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Small alphabet with embedded separators (the transformed-text shape).
        prop::collection::vec(prop::sample::select(vec![0u8, b'a', b'b', b'c']), 1..150),
        // Full byte range.
        prop::collection::vec(any::<u8>(), 1..80),
    ]
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

    #[test]
    fn lca_depth_equals_pairwise_lcp(text in byte_text(), i in 0usize..150, j in 0usize..150) {
        let tree = SuffixTree::build(text.clone());
        let slots = tree.num_slots();
        let (i, j) = (1 + i % (slots - 1).max(1), 1 + j % (slots - 1).max(1));
        if i == j || slots < 3 {
            return Ok(());
        }
        let anc = Ancestry::build(&tree);
        let l = anc.lca(&tree, anc.leaf(i), anc.leaf(j));
        let (a, b) = (tree.sa(i), tree.sa(j));
        let expected = text[a..]
            .iter()
            .zip(text[b..].iter())
            .take_while(|(x, y)| x == y)
            .count();
        prop_assert_eq!(tree.string_depth(l), expected);
    }

    #[test]
    fn tree_structural_invariants(text in byte_text()) {
        let tree = SuffixTree::build(text);
        let anc = Ancestry::build(&tree);
        for id in 0..tree.num_nodes() as u32 {
            let (l, r) = tree.slot_range(id);
            prop_assert!(l <= r);
            let (pl, pr) = anc.preorder_range(id);
            prop_assert!(pl <= pr);
            if !tree.is_leaf(id) {
                let kids = tree.children(id);
                prop_assert!(kids.len() >= 2 || id == tree.root());
                let mut cursor = l;
                for &c in kids {
                    prop_assert!(anc.is_ancestor(id, c));
                    prop_assert!(tree.string_depth(id) < tree.string_depth(c));
                    let (cl, cr) = tree.slot_range(c);
                    prop_assert_eq!(cl, cursor);
                    cursor = cr + 1;
                }
                prop_assert_eq!(cursor, r + 1);
            }
        }
    }
}
