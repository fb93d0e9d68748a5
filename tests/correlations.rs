//! End-to-end tests of the §3.3 correlation model through every layer:
//! model evaluation, transform upper-bounding, and index verification.

mod common;

use common::{correlated, first_long_lengths, slots};
use proptest::prelude::*;
use uncertain_strings::{
    baseline::NaiveScanner, ApproxIndex, Correlation, CorrelationSet, Index, ListingIndex,
    SpecialIndex, SpecialUncertainString, UncertainString,
};

fn corr(
    subject_pos: usize,
    subject_char: u8,
    cond_pos: usize,
    cond_char: u8,
    p_present: f64,
    p_absent: f64,
) -> Correlation {
    Correlation {
        subject_pos,
        subject_char,
        cond_pos,
        cond_char,
        p_present,
        p_absent,
    }
}

/// `spec` followed by one certain position per byte of `tail`. A tail
/// keeps every factor that reaches it probable for as long as it lasts, so
/// the cases below also sit behind an index's long levels.
fn with_tail(spec: &str, tail: &[u8]) -> UncertainString {
    let mut spec = spec.to_string();
    for &c in tail {
        spec.push_str(" | ");
        spec.push(c as char);
    }
    UncertainString::parse(&spec).unwrap()
}

const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwx";

/// Figure 4's string with a backward correlation.
fn figure_4_string() -> UncertainString {
    figure_4_string_with_tail(b"")
}

fn figure_4_string_with_tail(tail: &[u8]) -> UncertainString {
    let mut s = with_tail("e:.6,f:.4 | q | z:.36", tail);
    let mut set = CorrelationSet::new();
    set.add(corr(2, b'z', 0, b'e', 0.3, 0.4)).unwrap();
    s.set_correlations(set).unwrap();
    s
}

#[test]
fn scanner_handles_all_three_window_cases() {
    let s = figure_4_string();
    // In-window, condition chosen: eqz = .6 * 1 * .3
    let hits = NaiveScanner::find_with_probs(&s, b"eqz", 0.01);
    assert_eq!(hits.len(), 1);
    assert!((hits[0].1 - 0.18).abs() < 1e-12);
    // In-window, condition not chosen: fqz = .4 * 1 * .4
    let hits = NaiveScanner::find_with_probs(&s, b"fqz", 0.01);
    assert!((hits[0].1 - 0.16).abs() < 1e-12);
    // Out-of-window: qz = 1 * (.6*.3 + .4*.4) = .34
    let hits = NaiveScanner::find_with_probs(&s, b"qz", 0.01);
    assert!((hits[0].1 - 0.34).abs() < 1e-12);
}

#[test]
fn general_index_agrees_with_scanner_under_correlation() {
    let s = figure_4_string();
    let idx = Index::build(&s, 0.05).unwrap();
    for pattern in [&b"eqz"[..], b"fqz", b"qz", b"z", b"eq", b"e"] {
        assert_index_agrees_with_scanner(&idx, &s, pattern);
    }
    // The same three window cases past the first and the second long level.
    let s = figure_4_string_with_tail(TAIL);
    let idx = Index::build(&s, 0.05).unwrap();
    for m in first_long_lengths(slots(&idx)) {
        for head in [&b"eqz"[..], b"fqz", b"qz"] {
            let pattern = [head, &TAIL[..m - head.len()]].concat();
            assert_index_agrees_with_scanner(&idx, &s, &pattern);
        }
    }
}

fn assert_index_agrees_with_scanner(idx: &Index, s: &UncertainString, pattern: &[u8]) {
    for tau in [0.05, 0.17, 0.2, 0.33, 0.35, 0.5] {
        assert_eq!(
            idx.query(pattern, tau).unwrap().positions(),
            NaiveScanner::find(s, pattern, tau),
            "pattern {:?} tau {tau}",
            String::from_utf8_lossy(pattern)
        );
    }
}

#[test]
fn index_probabilities_are_correlation_exact() {
    let s = figure_4_string();
    let idx = Index::build(&s, 0.05).unwrap();
    for (pos, p) in idx.query(b"qz", 0.05).unwrap() {
        assert!((p - s.match_probability(b"qz", pos)).abs() < 1e-12);
        assert!((p - 0.34).abs() < 1e-12);
    }
}

#[test]
fn forward_correlation_within_window() {
    // Subject at position 0 conditioned on a LATER position (forward edge):
    // the transform's upper bound must still be sound.
    let mut s = UncertainString::parse("x:.5 | a:.5,b:.5 | y").unwrap();
    let mut set = CorrelationSet::new();
    set.add(corr(0, b'x', 1, b'a', 0.9, 0.1)).unwrap();
    s.set_correlations(set).unwrap();
    let idx = Index::build(&s, 0.05).unwrap();
    // xay: x's probability is conditional on a present = .9; total .9*.5*1.
    for pattern in [&b"xay"[..], b"xby", b"xa", b"xb", b"x"] {
        for tau in [0.05, 0.1, 0.3, 0.46, 0.5] {
            assert_eq!(
                idx.query(pattern, tau).unwrap().positions(),
                NaiveScanner::find(&s, pattern, tau),
                "pattern {:?} tau {tau}",
                String::from_utf8_lossy(pattern)
            );
        }
    }
}

#[test]
fn special_index_boost_prevents_missed_uplifts() {
    // Stored probability far below the conditional: without the §4.1 boost
    // the RMQ recursion would prune a true match.
    let x = SpecialUncertainString::new(b"abc".to_vec(), vec![1.0, 0.1, 1.0]).unwrap();
    let mut set = CorrelationSet::new();
    set.add(corr(1, b'b', 0, b'a', 0.95, 0.05)).unwrap();
    let idx = SpecialIndex::build_correlated(&x, set).unwrap();
    // abc window: b's probability is .95 (a present) → product .95.
    let hits = idx.query(b"abc", 0.9).unwrap();
    assert_eq!(hits.positions(), vec![0]);
    assert!((hits.hits()[0].1 - 0.95).abs() < 1e-12);
    // bc window: marginal for b = 1.0*.95 + 0*.05 = .95 (a always present).
    let hits = idx.query(b"bc", 0.9).unwrap();
    assert_eq!(hits.positions(), vec![1]);
}

/// A special string over `abc` with random probabilities, and up to five
/// correlations whose subject and condition are the characters at their
/// positions (a duplicate subject is dropped).
fn correlated_special() -> impl Strategy<Value = (SpecialUncertainString, CorrelationSet)> {
    let rows = prop::collection::vec((0u8..3, 1u32..101), 2..40);
    let corrs = prop::collection::vec((0usize..1000, 0usize..1000, 0u32..101, 0u32..101), 0..6);
    (rows, corrs).prop_map(|(rows, corrs)| {
        let n = rows.len();
        let (chars, probs): (Vec<u8>, Vec<f64>) = (rows.into_iter())
            .map(|(c, p)| (b'a' + c, f64::from(p) / 100.0))
            .unzip();
        let mut set = CorrelationSet::new();
        for (s, c, present, absent) in corrs {
            let (s, c) = (s % n, c % n);
            let (present, absent) = (f64::from(present) / 100.0, f64::from(absent) / 100.0);
            if s != c {
                let _ = set.add(corr(s, chars[s], c, chars[c], present, absent));
            }
        }
        (SpecialUncertainString::new(chars, probs).unwrap(), set)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A correlated special index reports the scanner's answer over the
    /// same one-choice model with the correlations attached, to the bit.
    #[test]
    fn special_index_reports_the_scanners_bits(case in correlated_special()) {
        let (x, set) = case;
        let rows = (x.chars().iter().zip(x.probs())).map(|(&c, &p)| vec![(c, p)]).collect();
        let mut model = UncertainString::from_rows(rows).unwrap();
        model.set_correlations(set.clone()).unwrap();
        let idx = SpecialIndex::build_correlated(&x, set).unwrap();
        let bits = |hits: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            hits.into_iter().map(|(x, p)| (x, p.to_bits())).collect()
        };
        for m in 1..=x.len().min(6) {
            for window in x.chars().windows(m).step_by(2) {
                for tau in [f64::MIN_POSITIVE, 0.05, 0.2, 0.5] {
                    let got = idx.query(window, tau).unwrap().into_hits();
                    let expected = NaiveScanner::find_with_probs(&model, window, tau);
                    prop_assert_eq!(
                        bits(got), bits(expected),
                        "pattern {:?} tau {}", String::from_utf8_lossy(window), tau
                    );
                }
            }
        }
    }
}

#[test]
fn listing_with_correlated_documents() {
    // Without a tail, then with one: the same cases behind the long levels.
    for tail in [&b""[..], TAIL] {
        let mut d0 = with_tail("a:.5,b:.5 | c:.2 | d", tail);
        let mut set = CorrelationSet::new();
        set.add(corr(1, b'c', 0, b'a', 0.9, 0.1)).unwrap();
        d0.set_correlations(set).unwrap();
        let d1 = with_tail("a | c:.15 | d", tail);
        let docs = vec![d0, d1];
        let idx = ListingIndex::build(&docs, 0.05).unwrap();
        let mut patterns = vec![b"acd".to_vec(), b"cd".to_vec(), b"c".to_vec()];
        if !tail.is_empty() {
            for m in first_long_lengths(idx.stats().transformed_len + 1) {
                for head in [&b"acd"[..], b"cd"] {
                    patterns.push([head, &tail[..m - head.len()]].concat());
                }
            }
        }
        for pattern in &patterns {
            for tau in [0.05, 0.12, 0.2, 0.4, 0.5] {
                let got: Vec<usize> = idx
                    .query(pattern, tau)
                    .unwrap()
                    .into_iter()
                    .map(|h| h.doc)
                    .collect();
                let expected = NaiveScanner::listing(&docs, pattern, tau);
                assert_eq!(got, expected, "pattern {pattern:?} tau {tau}");
            }
        }
    }
}

#[test]
fn correlation_chain_through_many_positions() {
    // Several subjects conditioned on one hub position.
    let mut s = UncertainString::parse("h:.5,g:.5 | a:.5 | b:.5 | c:.5").unwrap();
    let mut set = CorrelationSet::new();
    set.add(corr(1, b'a', 0, b'h', 0.8, 0.2)).unwrap();
    set.add(corr(2, b'b', 0, b'h', 0.7, 0.3)).unwrap();
    set.add(corr(3, b'c', 0, b'h', 0.6, 0.4)).unwrap();
    s.set_correlations(set).unwrap();
    let idx = Index::build(&s, 0.02).unwrap();
    for pattern in [&b"habc"[..], b"gabc", b"abc", b"ab", b"bc"] {
        for tau in [0.02, 0.1, 0.2, 0.35] {
            assert_eq!(
                idx.query(pattern, tau).unwrap().positions(),
                NaiveScanner::find(&s, pattern, tau),
                "pattern {:?} tau {tau}",
                String::from_utf8_lossy(pattern)
            );
        }
    }
}

/// §7 under correlation, where `C` holds each character's upper bound and a
/// link's probability only bounds the truth from above: for every probable
/// pattern of length 1–4 at every 11th start, and four thresholds, the
/// approximate index reports every position the exact index does at τ,
/// none below τ − ε, and no probability above the true one (the links alone reported "E" at 350
/// of the 2 000-position string at 0.125 for τ = 0.1, where it is 0.0417).
#[test]
fn approx_sandwich_holds_under_correlation() {
    const EPS: f64 = 0.05;
    let strings = [
        figure_4_string(),
        figure_4_string_with_tail(TAIL),
        correlated(400, 13),
        correlated(2_000, 43),
    ];
    for s in &strings {
        let index = Index::build(s, 0.05).unwrap();
        let approx = ApproxIndex::build(s, 0.05, EPS).unwrap();
        let probable = |q: usize| s.position(q).most_probable().0;
        let mut patterns: Vec<Vec<u8>> = (1..=s.len().min(4))
            .flat_map(|m| (0..=s.len() - m).step_by(11).map(move |i| i..i + m))
            .map(|span| span.map(probable).collect())
            .collect();
        patterns.extend(b"efqzE".iter().map(|&c| vec![c]));
        for pattern in &patterns {
            for tau in [0.05, 0.1, 0.2, 0.4] {
                let exact = index.query(pattern, tau).unwrap().positions();
                let hits = approx.query(pattern, tau).unwrap();
                let reported = hits.positions();
                let what = format!("{:?} at τ {tau}", String::from_utf8_lossy(pattern));
                assert!(exact.iter().all(|p| reported.contains(p)), "{what}");
                for &(pos, p) in hits.hits() {
                    let truth = s.match_probability(pattern, pos);
                    assert!(truth >= tau - EPS - 1e-9, "{what}: {pos} at {truth}");
                    assert!(p <= truth + 1e-9, "{what}: {pos} reported {p}, is {truth}");
                }
            }
        }
    }
}
