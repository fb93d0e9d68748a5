//! Tests for the ranked top-k extension (best-first search over the RMQ
//! levels): results must equal sorting the full threshold-query output.

use proptest::prelude::*;
use uncertain_strings::{
    baseline::NaiveScanner,
    core::{canonical_hit_order, ListingHit},
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

/// One tie-heavy position: its choices' probabilities drawn from
/// {1, .5, .25} over a four-letter alphabet, so many windows share one
/// probability and every cut at `k` falls inside a tie class.
fn tie_heavy_row() -> impl Strategy<Value = Vec<(u8, f64)>> {
    let shapes = vec![
        vec![1.0],
        vec![1.0],
        vec![0.5, 0.5],
        vec![0.5, 0.25, 0.25],
        vec![0.25; 4],
    ];
    (prop::sample::select(shapes), 0u8..4).prop_map(|(probs, shift)| {
        let mut row: Vec<(u8, f64)> = (0u8..)
            .zip(probs)
            .map(|(i, p)| (b'a' + (shift + i) % 4, p))
            .collect();
        row.sort_by_key(|&(c, _)| c);
        row
    })
}

/// Substrings of the most probable world of `s`, of short and long-level
/// lengths.
fn patterns_of(s: &UncertainString) -> Vec<Vec<u8>> {
    let world = s.most_probable_world();
    let mut patterns: Vec<Vec<u8>> = [1, 2, 3, 5, 9]
        .into_iter()
        .flat_map(|m| world.windows(m).step_by(3).map(<[u8]>::to_vec))
        .collect();
    patterns.sort_unstable();
    patterns.dedup();
    patterns
}

/// `(key, probability bits)`: hits compared to the bit.
fn bits(hits: impl IntoIterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
    hits.into_iter().map(|(x, p)| (x, p.to_bits())).collect()
}

/// For every `k` from 1 to one past the answer's size, `top_k(k)` is the
/// first `k` of `answer` ranked by `canonical_hit_order`.
fn assert_ranked_prefixes(
    mut answer: Vec<(usize, f64)>,
    top_k: impl Fn(usize) -> Vec<(usize, f64)>,
    context: &str,
) {
    answer.sort_by(canonical_hit_order);
    for k in 1..=answer.len() + 1 {
        let expected = bits(answer.iter().copied().take(k));
        assert_eq!(bits(top_k(k)), expected, "{context} k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Top-k is the threshold answer at τmin, ranked and cut at `k`, ties
    /// at the cut included, positions and probability bits alike — for the
    /// general, listing and special indexes. And listing at τmin is every
    /// document the general index finds an occurrence in, at its most
    /// probable one's probability, to the bit: both rank the canonical
    /// values `Index::query` reports. The special index's
    /// threshold answer is the scanner's over the same one-choice model, to
    /// the bit.
    #[test]
    fn top_k_is_the_ranked_threshold_answer(
        docs in prop::collection::vec(prop::collection::vec(tie_heavy_row(), 1..40), 1..4),
        special in prop::collection::vec((0u8..2, prop::sample::select(vec![1.0, 0.5, 0.25])), 1..60),
    ) {
        let tau_min = 0.01;
        let docs: Vec<UncertainString> =
            docs.into_iter().map(|rows| UncertainString::from_rows(rows).unwrap()).collect();
        let listing = ListingIndex::build(&docs, tau_min).unwrap();
        let indexes: Vec<Index> = docs.iter().map(|s| Index::build(s, tau_min).unwrap()).collect();
        for (s, idx) in docs.iter().zip(&indexes) {
            for p in patterns_of(s) {
                let context = format!("{:?}", String::from_utf8_lossy(&p));
                let answer = idx.query(&p, tau_min).unwrap().into_hits();
                assert_ranked_prefixes(answer, |k| idx.query_top_k(&p, k).unwrap(), &context);
                let doc_hits = |hits: Vec<ListingHit>| -> Vec<(usize, f64)> {
                    hits.into_iter().map(|h| (h.doc, h.relevance)).collect()
                };
                let answer = doc_hits(listing.query(&p, tau_min).unwrap());
                let maxima: Vec<(usize, f64)> = (indexes.iter().enumerate())
                    .filter_map(|(d, idx)| {
                        let hits = idx.query(&p, tau_min).unwrap().into_hits();
                        hits.into_iter().map(|(_, pr)| pr).reduce(f64::max).map(|max| (d, max))
                    })
                    .collect();
                let docs_of = |hits: &[(usize, f64)]| hits.iter().map(|&(d, _)| d).collect::<Vec<_>>();
                prop_assert_eq!(docs_of(&answer), docs_of(&maxima), "listing {}", &context);
                for (&(d, relevance), &(_, max)) in answer.iter().zip(&maxima) {
                    prop_assert_eq!(relevance.to_bits(), max.to_bits(), "listing {} doc {}", &context, d);
                }
                let top_k = |k| doc_hits(listing.query_top_k(&p, k).unwrap());
                assert_ranked_prefixes(answer, top_k, &format!("listing {context}"));
            }
        }
        let (chars, probs): (Vec<u8>, Vec<f64>) = special.into_iter().map(|(c, p)| (b'a' + c, p)).unzip();
        let x = SpecialUncertainString::new(chars.clone(), probs).unwrap();
        let idx = SpecialIndex::build(&x).unwrap();
        // The same string as a model of one choice a position: the special
        // index reports the scanner's bits.
        let rows = chars.iter().zip(x.probs()).map(|(&c, &p)| vec![(c, p)]).collect();
        let model = UncertainString::from_rows(rows).unwrap();
        for p in patterns_of(&UncertainString::deterministic(&chars)) {
            let context = format!("special {:?}", String::from_utf8_lossy(&p));
            for tau in [0.1, 0.3] {
                let got = idx.query(&p, tau).unwrap().into_hits();
                let expected = NaiveScanner::find_with_probs(&model, &p, tau);
                prop_assert_eq!(bits(got), bits(expected), "{} τ {}", &context, tau);
            }
            let answer = idx.query(&p, f64::MIN_POSITIVE).unwrap().into_hits();
            let expected = NaiveScanner::find_with_probs(&model, &p, f64::MIN_POSITIVE);
            prop_assert_eq!(bits(answer.clone()), bits(expected), "{}", &context);
            let top_k = |k| idx.query_top_k(&p, k).unwrap();
            assert_ranked_prefixes(answer, top_k, &context);
        }
    }
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
