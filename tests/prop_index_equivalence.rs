//! Property tests: every index agrees with the naive scanner and the
//! possible-world oracle on arbitrary small uncertain strings.

use proptest::prelude::*;
use uncertain_strings::{
    baseline::{NaiveScanner, PossibleWorldOracle},
    ApproxIndex, Index, ListingIndex, SimpleIndex, UncertainString,
};

/// Strategy: a small uncertain string over the alphabet {a, b, c} with
/// random per-position pdfs (1–3 choices, probabilities normalized).
fn uncertain_string(max_len: usize) -> impl Strategy<Value = UncertainString> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 1u32..100), 1..=3),
        1..=max_len,
    )
    .prop_map(|rows| {
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
        UncertainString::from_rows(rows).expect("normalized rows are valid")
    })
}

/// Strategy: a short pattern over the same alphabet.
fn pattern(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 1..=max_len)
        .prop_map(|v| v.into_iter().map(|c| b'a' + c).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The general index returns exactly the scanner's answer set for any
    /// tau >= tau_min.
    #[test]
    fn index_matches_scanner(
        s in uncertain_string(14),
        p in pattern(5),
        tau_idx in 0usize..4,
    ) {
        let taus = [0.1, 0.25, 0.5, 0.8];
        let tau = taus[tau_idx];
        let idx = Index::build(&s, 0.1).unwrap();
        let got = idx.query(&p, tau).unwrap().positions();
        let expected = NaiveScanner::find(&s, &p, tau);
        prop_assert_eq!(got, expected);
    }

    /// The scanner itself agrees with exhaustive possible-world enumeration
    /// (closing the loop on the ground truth).
    #[test]
    fn scanner_matches_oracle(
        s in uncertain_string(10),
        p in pattern(4),
    ) {
        let tau = 0.2;
        let scan = NaiveScanner::find(&s, &p, tau);
        let oracle = PossibleWorldOracle::matches(&s, &p, tau).unwrap();
        prop_assert_eq!(scan, oracle);
    }

    /// The simple (scan-the-range) index agrees with the efficient one.
    #[test]
    fn simple_index_matches_efficient(
        s in uncertain_string(12),
        p in pattern(4),
    ) {
        let tau = 0.3;
        let simple = SimpleIndex::build(&s, 0.1).unwrap();
        let efficient = Index::build(&s, 0.1).unwrap();
        prop_assert_eq!(
            simple.query(&p, tau).unwrap(),
            efficient.query(&p, tau).unwrap().positions()
        );
    }

    /// Reported probabilities are the scanner's, bit for bit: a window's
    /// value is its characters' `ln p` summed left to right, as the
    /// scanner sums them.
    #[test]
    fn reported_probabilities_are_exact(
        s in uncertain_string(16),
        p in pattern(6),
    ) {
        let idx = Index::build(&s, 0.1).unwrap();
        let bits = |hits: &[(usize, f64)]| -> Vec<(usize, u64)> {
            hits.iter().map(|&(pos, prob)| (pos, prob.to_bits())).collect()
        };
        let expected = NaiveScanner::find_with_probs(&s, &p, 0.1);
        prop_assert_eq!(bits(idx.query(&p, 0.1).unwrap().hits()), bits(&expected));
    }

    /// Listing over a random collection equals the per-document scan.
    #[test]
    fn listing_matches_naive(
        docs in prop::collection::vec(uncertain_string(8), 1..5),
        p in pattern(3),
    ) {
        let tau = 0.25;
        let idx = ListingIndex::build(&docs, 0.1).unwrap();
        let got: Vec<usize> = idx.query(&p, tau).unwrap().into_iter().map(|h| h.doc).collect();
        let expected = NaiveScanner::listing(&docs, &p, tau);
        prop_assert_eq!(got, expected);
    }

    /// The approximate index respects its sandwich contract.
    #[test]
    fn approx_sandwich(
        s in uncertain_string(12),
        p in pattern(4),
        tau_idx in 0usize..3,
    ) {
        let eps = 0.08;
        let taus = [0.15, 0.35, 0.6];
        let tau = taus[tau_idx];
        let idx = ApproxIndex::build(&s, 0.1, eps).unwrap();
        let approx = idx.query(&p, tau).unwrap().positions();
        let exact = NaiveScanner::find(&s, &p, tau);
        let slack = NaiveScanner::find(&s, &p, tau - eps);
        for pos in &exact {
            prop_assert!(approx.contains(pos), "missed exact hit {}", pos);
        }
        for pos in &approx {
            prop_assert!(slack.contains(pos), "hit {} below tau - eps", pos);
        }
    }

    /// Queries at tau = tau_min (the boundary) behave identically to the
    /// scanner — no off-by-epsilon at the construction threshold.
    #[test]
    fn boundary_threshold(
        s in uncertain_string(10),
        p in pattern(3),
    ) {
        let tau_min = 0.2;
        let idx = Index::build(&s, tau_min).unwrap();
        prop_assert_eq!(
            idx.query(&p, tau_min).unwrap().positions(),
            NaiveScanner::find(&s, &p, tau_min)
        );
    }
}
