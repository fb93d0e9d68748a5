//! Tests for the ranked top-k extension (best-first search over the RMQ
//! levels): results must equal sorting the full threshold-query output.

use proptest::prelude::*;
use uncertain_strings::{
    baseline::NaiveScanner,
    workload::{generate_string, sample_patterns, DatasetConfig, PatternMode},
    Index, ListingIndex, SpecialIndex, SpecialUncertainString, UncertainString,
};

/// Reference top-k: scan all occurrences, sort by probability descending,
/// truncate. Ties make the exact set ambiguous, so comparisons check the
/// probability multiset.
fn reference_top_k(s: &UncertainString, pattern: &[u8], k: usize) -> Vec<f64> {
    let mut probs: Vec<f64> = NaiveScanner::find_with_probs(s, pattern, f64::MIN_POSITIVE)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    probs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    probs.truncate(k);
    probs
}

#[test]
fn special_index_top_k_is_exact() {
    let x = SpecialUncertainString::new(b"banana".to_vec(), vec![0.4, 0.7, 0.5, 0.8, 0.9, 0.6])
        .unwrap();
    let idx = SpecialIndex::build(&x).unwrap();
    let top = idx.query_top_k(b"ana", 1).unwrap();
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].0, 3);
    assert!((top[0].1 - 0.432).abs() < 1e-9);
    // `k` is unvalidated wire input: past the occurrence count it changes
    // nothing, and it never sizes an allocation (`1 << 40` used to abort
    // the process, `usize::MAX` to panic with a capacity overflow).
    for k in [5, 1 << 40, usize::MAX] {
        let top = idx.query_top_k(b"ana", k).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 3);
        assert_eq!(top[1].0, 1);
        assert!(top[0].1 >= top[1].1);
    }
    let top = idx.query_top_k(b"a", 2).unwrap();
    assert_eq!(top.len(), 2);
    // Positions 3 (.8) and 5 (... wait: probabilities .7, .8, .6 at a's).
    assert!((top[0].1 - 0.8).abs() < 1e-9);
    assert!((top[1].1 - 0.7).abs() < 1e-9);
}

#[test]
fn general_index_top_k_matches_reference() {
    let s = generate_string(&DatasetConfig::new(3000, 0.3, 17));
    // Tiny tau_min so the visibility horizon covers everything the naive
    // scanner can see for short patterns.
    let idx = Index::build(&s, 0.01).unwrap();
    for m in [2usize, 4, 6] {
        for pattern in sample_patterns(&s, m, 6, PatternMode::Probable, 23) {
            for k in [1usize, 3, 10, 1 << 40, usize::MAX] {
                let got: Vec<f64> = idx
                    .query_top_k(&pattern, k)
                    .unwrap()
                    .into_iter()
                    .map(|(_, p)| p)
                    .collect();
                // The index only sees occurrences with probability >= tau_min.
                let reference: Vec<f64> = reference_top_k(&s, &pattern, k)
                    .into_iter()
                    .filter(|&p| p >= 0.01 - 1e-12)
                    .collect();
                assert_eq!(got.len(), reference.len(), "m={m} k={k}");
                for (g, r) in got.iter().zip(reference.iter()) {
                    assert!(
                        (g - r).abs() < 1e-9,
                        "m={m} k={k}: {got:?} vs {reference:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn top_k_long_patterns_use_lazy_bounds() {
    let s = generate_string(&DatasetConfig::new(2000, 0.15, 29));
    let idx = Index::build(&s, 0.02).unwrap();
    for pattern in sample_patterns(&s, 30, 4, PatternMode::Probable, 31) {
        let got: Vec<f64> = idx
            .query_top_k(&pattern, 5)
            .unwrap()
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let reference: Vec<f64> = reference_top_k(&s, &pattern, 5)
            .into_iter()
            .filter(|&p| p >= 0.02 - 1e-12)
            .collect();
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference.iter()) {
            assert!((g - r).abs() < 1e-9);
        }
    }
}

#[test]
fn listing_top_k_ranks_documents() {
    let docs = vec![
        UncertainString::parse("A:.9,B:.1 | B | C").unwrap(), // AB at .9
        UncertainString::parse("A:.5,B:.5 | B | C").unwrap(), // AB at .5
        UncertainString::parse("A:.7,B:.3 | B | C").unwrap(), // AB at .7
        UncertainString::parse("C | C | C").unwrap(),         // no AB
    ];
    let idx = ListingIndex::build(&docs, 0.05).unwrap();
    let top = idx.query_top_k(b"AB", 2).unwrap();
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].doc, 0);
    assert!((top[0].relevance - 0.9).abs() < 1e-9);
    assert_eq!(top[1].doc, 2);
    assert!((top[1].relevance - 0.7).abs() < 1e-9);
    // k beyond the candidate set returns everything that matches.
    for k in [10, 1 << 40, usize::MAX] {
        assert_eq!(idx.query_top_k(b"AB", k).unwrap().len(), 3);
    }
    // Missing pattern.
    assert!(idx.query_top_k(b"ZZ", 3).unwrap().is_empty());
}

#[test]
fn top_k_validates_patterns() {
    let s = UncertainString::deterministic(b"abc");
    let idx = Index::build(&s, 0.5).unwrap();
    assert!(idx.query_top_k(b"", 3).is_err());
    assert!(idx.query_top_k(b"a\0", 3).is_err());
    assert!(idx.query_top_k(b"zzz", 3).unwrap().is_empty());
    assert!(idx.query_top_k(b"a", 0).unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-k probabilities equal the k largest scanner probabilities (above
    /// the tau_min horizon) on random strings.
    #[test]
    fn top_k_matches_sorted_scan(
        rows in prop::collection::vec(
            prop::collection::vec((0u8..3, 1u32..50), 1..=3),
            1..=12,
        ),
        p in prop::collection::vec(0u8..3, 1..4),
        k in 1usize..6,
    ) {
        let rows: Vec<Vec<(u8, f64)>> = rows
            .into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, w as f64 / total as f64))
                    .collect()
            })
            .collect();
        let s = UncertainString::from_rows(rows).unwrap();
        let pattern: Vec<u8> = p.into_iter().map(|c| b'a' + c).collect();
        let tau_min = 0.05;
        let idx = Index::build(&s, tau_min).unwrap();
        let got: Vec<f64> = idx
            .query_top_k(&pattern, k)
            .unwrap()
            .into_iter()
            .map(|(_, pr)| pr)
            .collect();
        let reference: Vec<f64> = reference_top_k(&s, &pattern, usize::MAX)
            .into_iter()
            .filter(|&pr| pr >= tau_min - 1e-12)
            .take(k)
            .collect();
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference.iter()) {
            prop_assert!((g - r).abs() < 1e-9, "{:?} vs {:?}", got, reference);
        }
        // Output is sorted descending.
        for w in got.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
