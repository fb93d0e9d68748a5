//! Edge cases and failure injection promised in DESIGN.md §7: numeric
//! extremes, degenerate strings, boundary thresholds, and hostile inputs.

use uncertain_strings::{
    baseline::NaiveScanner, ApproxIndex, Correlation, CorrelationSet, Error, Index, ListingIndex,
    RelMetric, SpecialIndex, SpecialUncertainString, UncertainChar, UncertainString,
};

#[test]
#[allow(clippy::disallowed_methods, reason = "an independent expected value")]
fn underflow_scale_products_are_handled_in_log_space() {
    // 20K characters at probability 0.9: a plain f64 product underflows to
    // zero after ~7000 characters; log space must stay exact.
    let positions: Vec<UncertainChar> = (0..20_000)
        .map(|i| UncertainChar::new(vec![(b'a', 0.9), (b'b', 0.1)], i).unwrap())
        .collect();
    let s = UncertainString::new(positions);
    let long = vec![b'a'; 20_000];
    let lp = s.log_match_probability(&long, 0);
    assert!(lp.is_finite());
    assert!((lp - 20_000.0 * 0.9f64.ln()).abs() < 1e-6);
    // The full-length probability in linear space IS zero — but queries at
    // realistic lengths still verify exactly.
    let idx = Index::build(&s, 0.5).unwrap();
    let pattern = vec![b'a'; 6]; // 0.9^6 ≈ .53
    assert_eq!(
        idx.query(&pattern, 0.5).unwrap().positions().len(),
        NaiveScanner::find(&s, &pattern, 0.5).len()
    );
}

#[test]
fn single_position_strings() {
    let s = UncertainString::parse("a:.6,b:.4").unwrap();
    let idx = Index::build(&s, 0.1).unwrap();
    assert_eq!(idx.query(b"a", 0.5).unwrap().positions(), vec![0]);
    assert!(idx.query(b"b", 0.5).unwrap().is_empty());
    assert_eq!(idx.query(b"b", 0.3).unwrap().positions(), vec![0]);
    assert!(idx.query(b"ab", 0.1).unwrap().is_empty());
}

#[test]
fn tau_equals_one_boundary() {
    let s = UncertainString::parse("a | b:.999999999999 | c").unwrap();
    let idx = Index::build(&s, 0.5).unwrap();
    // tau = 1.0 is legal; only certain occurrences qualify (within epsilon).
    assert_eq!(idx.query(b"a", 1.0).unwrap().positions(), vec![0]);
    assert_eq!(idx.query(b"abc", 1.0).unwrap().positions(), vec![0]);
}

#[test]
fn uniform_max_entropy_positions() {
    // Every position uniform over 4 characters: worst case for the factor
    // transform's branching.
    let rows: Vec<Vec<(u8, f64)>> = (0..24)
        .map(|_| vec![(b'a', 0.25), (b'b', 0.25), (b'c', 0.25), (b'd', 0.25)])
        .collect();
    let s = UncertainString::from_rows(rows).unwrap();
    let idx = Index::build(&s, 0.2).unwrap();
    // Only single characters can reach tau = 0.25.
    assert_eq!(idx.query(b"a", 0.25).unwrap().len(), 24);
    assert!(idx.query(b"ab", 0.25).unwrap().is_empty());
    // At tau_min = 0.2 even pairs are invisible (0.0625 < 0.2): the index
    // and the scanner agree everywhere above the floor.
    assert_eq!(
        idx.query(b"ab", 0.2).unwrap().positions(),
        NaiveScanner::find(&s, b"ab", 0.2)
    );
}

#[test]
fn pattern_of_every_length_against_tiny_string() {
    let s = UncertainString::parse("x:.9,y:.1 | y | x:.8,z:.2").unwrap();
    let idx = Index::build(&s, 0.05).unwrap();
    for pattern in [&b"x"[..], b"xy", b"xyx", b"xyxz", b"zzzzzzzz"] {
        assert_eq!(
            idx.query(pattern, 0.05).unwrap().positions(),
            NaiveScanner::find(&s, pattern, 0.05),
            "pattern {pattern:?}"
        );
    }
}

#[test]
fn special_index_on_all_certain_string() {
    let x = SpecialUncertainString::new(b"mississippi".to_vec(), vec![1.0; 11]).unwrap();
    let idx = SpecialIndex::build(&x).unwrap();
    assert_eq!(idx.query(b"issi", 0.999).unwrap().positions(), vec![1, 4]);
    assert_eq!(idx.query(b"i", 1.0).unwrap().len(), 4);
}

/// The special index builds its string's model, whose checks refuse a 0
/// byte (the separator) and a correlation whose subject or condition
/// character does not occur at its position: each is a model error, never
/// a panic.
#[test]
fn special_index_refuses_what_the_model_refuses() {
    let x = SpecialUncertainString::new(b"a\0b".to_vec(), vec![0.5, 1.0, 0.5]).unwrap();
    assert!(matches!(SpecialIndex::build(&x), Err(Error::Model(_))));
    let x = SpecialUncertainString::new(b"abc".to_vec(), vec![0.5; 3]).unwrap();
    for (subject_char, cond_char) in [(b'x', b'a'), (b'b', b'x')] {
        let mut set = CorrelationSet::new();
        set.add(Correlation {
            subject_pos: 1,
            subject_char,
            cond_pos: 0,
            cond_char,
            p_present: 0.9,
            p_absent: 0.1,
        })
        .unwrap();
        let built = SpecialIndex::build_correlated(&x, set);
        assert!(
            matches!(built, Err(Error::Model(_))),
            "{subject_char} on {cond_char}"
        );
    }
}

#[test]
fn near_zero_probabilities_survive() {
    let s = UncertainString::parse("a:.999999,b:.000001 | a").unwrap();
    let idx = Index::build(&s, 1e-7).unwrap();
    let hits = idx.query(b"ba", 1e-7).unwrap();
    assert_eq!(hits.positions(), vec![0]);
    assert!((hits.hits()[0].1 - 1e-6).abs() < 1e-12);
}

#[test]
fn listing_with_empty_and_tiny_documents() {
    let docs = vec![
        UncertainString::new(Vec::new()),
        UncertainString::parse("a:.9,b:.1").unwrap(),
        UncertainString::deterministic(b"ab"),
    ];
    let idx = ListingIndex::build(&docs, 0.1).unwrap();
    let hits = idx.query(b"a", 0.5).unwrap();
    let ids: Vec<usize> = hits.iter().map(|h| h.doc).collect();
    assert_eq!(ids, vec![1, 2]);
    assert!(idx.query(b"ab", 0.5).unwrap().iter().all(|h| h.doc == 2));

    // Laid end to end, the first and third documents read `AB` at
    // .6 × .7 = .42 across their boundary, the empty one between them
    // adding no position: no metric lists a match that no document holds.
    let docs = vec![
        UncertainString::parse("C | A:.6,B:.4").unwrap(),
        UncertainString::new(Vec::new()),
        UncertainString::parse("B:.7,D:.3 | C").unwrap(),
        UncertainString::parse("A | B:.8,C:.2").unwrap(),
    ];
    let idx = ListingIndex::build(&docs, 0.05).unwrap();
    assert_eq!(idx.num_docs(), 4);
    for metric in [RelMetric::Max, RelMetric::Or, RelMetric::IndependentOr] {
        let hits = idx.query_with_metric(b"AB", 0.3, metric).unwrap();
        assert_eq!(hits.len(), 1, "{metric:?}");
        assert_eq!(hits[0].doc, 3, "{metric:?}");
        assert!((hits[0].relevance - 0.8).abs() < 1e-12, "{metric:?}");
    }
    let ids = |p: &[u8], tau| -> Vec<usize> {
        idx.query(p, tau).unwrap().iter().map(|h| h.doc).collect()
    };
    assert_eq!(ids(b"AB", 0.05), [3]);
    // `CA` at 1 across the third document's end: only the first holds it.
    assert_eq!(ids(b"CA", 0.5), [0]);
    assert_eq!(ids(b"C", 1.0), [0, 2]);
}

#[test]
fn approx_with_epsilon_larger_than_tau_gap() {
    // eps close to tau: everything that exists above tau_min may be
    // reported, but nothing below tau - eps and nothing is missed.
    let s = UncertainString::parse("a:.5,b:.5 | a:.5,b:.5 | a:.5,b:.5").unwrap();
    let idx = ApproxIndex::build(&s, 0.1, 0.3).unwrap();
    let approx = idx.query(b"aa", 0.35).unwrap().positions();
    let exact = NaiveScanner::find(&s, b"aa", 0.35);
    let slack = NaiveScanner::find(&s, b"aa", 0.05);
    for p in &exact {
        assert!(approx.contains(p));
    }
    for p in &approx {
        assert!(slack.contains(p));
    }
}

#[test]
fn identical_repeated_documents_dedupe_correctly() {
    let doc = UncertainString::parse("a:.7,b:.3 | c | d:.6,e:.4").unwrap();
    let docs = vec![doc.clone(), doc.clone(), doc];
    let idx = ListingIndex::build(&docs, 0.1).unwrap();
    let hits = idx.query(b"ac", 0.5).unwrap();
    assert_eq!(hits.len(), 3, "all three identical docs listed once each");
    for h in &hits {
        assert!((h.relevance - 0.7).abs() < 1e-9);
    }
}

#[test]
fn build_rejects_degenerate_thresholds() {
    let s = UncertainString::deterministic(b"ab");
    assert!(Index::build(&s, 0.0).is_err());
    assert!(Index::build(&s, -1.0).is_err());
    assert!(Index::build(&s, 1.5).is_err());
    assert!(Index::build(&s, 1.0).is_ok());
}

#[test]
fn sentinel_free_alphabet_is_enforced_at_model_level() {
    assert!(UncertainChar::new(vec![(0u8, 1.0)], 0).is_err());
    // And patterns with sentinels are rejected at query level (not silently
    // matched against factor separators).
    let s = UncertainString::deterministic(b"ab");
    let idx = Index::build(&s, 0.5).unwrap();
    assert!(idx.query(b"a\0b", 0.5).is_err());
}
