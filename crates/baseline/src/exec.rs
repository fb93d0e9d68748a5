//! [`ScanIndex`]: the scan-based per-document executor.
//!
//! Answers the per-document queries over one [`UncertainString`]
//! (threshold, top-k) by scanning instead of building the paper's index.
//! Construction builds only the flat [`ProbPlane`] — no transform, no
//! suffix tree, and no copy of the string: the plane is the model — which
//! is exactly what a live memtable needs: a freshly
//! ingested document is queryable immediately, and the answers are
//! **bit-identical** to what a built [`ustr_core::Index`] over the same
//! document at the same `τmin` returns. The scan verifies through the
//! kernel's one call, [`MatchKernel::verify`]; so does a correlated
//! document's index, and an uncorrelated one's keeps window values that sum
//! the same `canon::ln` values in the kernel's order. Both decide by the one
//! threshold rule, and top-k uses the same total order,
//! [`ustr_core::canonical_hit_order`], over the same candidate set, the
//! threshold answer at `τmin`. A scan also holds its document's bigram set
//! ([`ProbPlane::bigrams`]), derived once, for a memtable's filter.
//!
//! The scan's candidates are the starts whose first two pattern characters
//! are possible there (the plane's presence bitmaps; every other start
//! fails at its first or second factor), and the walk exits per factor as
//! [`crate::NaiveScanner`] does. `NaiveScanner` stays as the plane-free
//! reference implementation the differential tests compare against.
//!
//! [`MatchKernel::verify`]: ustr_uncertain::MatchKernel::verify

use ustr_core::{validate_pattern, validate_query, Error};
use ustr_uncertain::kstats::ScanPath;
use ustr_uncertain::{canon, ProbPlane, Scan, UncertainString};

/// A scan-backed per-document query engine (O(n·σ) construction for the
/// probability plane, O(n·m) queries), interchangeable with a built
/// [`ustr_core::Index`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ScanIndex {
    plane: ProbPlane,
    tau_min: f64,
    /// The plane's bigrams at `tau_min` ([`ProbPlane::bigrams`]).
    bigrams: Box<[[u8; 2]]>,
}

impl ScanIndex {
    /// Serves `doc` with the construction threshold `tau_min ∈ (0, 1]` (the
    /// same value an [`ustr_core::Index`] would be built with).
    pub fn new(doc: &UncertainString, tau_min: f64) -> Result<Self, Error> {
        if !canon::valid_tau(tau_min) {
            return Err(Error::InvalidThreshold { value: tau_min });
        }
        let plane = ProbPlane::build(doc);
        let bigrams = plane.bigrams(tau_min).into();
        Ok(Self {
            plane,
            tau_min,
            bigrams,
        })
    }

    /// The served document, rebuilt bit for bit from the plane.
    pub fn to_source(&self) -> UncertainString {
        self.plane.to_model()
    }

    /// The document's flat verification plane.
    pub fn plane(&self) -> &ProbPlane {
        &self.plane
    }

    /// The document's bigrams at `τmin`, derived when the scan was made.
    pub fn bigrams(&self) -> &[[u8; 2]] {
        &self.bigrams
    }

    /// The scan shared by threshold and top-k: the presence prefilter's
    /// starts, verified by the kernel's one call and counted as
    /// `ScanPath::Cold` (no index picked them). Equivalent to
    /// `NaiveScanner::find_with_probs` + retain, bit for bit.
    fn scan(&self, pattern: &[u8], tau: f64) -> Vec<(usize, f64)> {
        let limit = (self.plane.len() + 1).saturating_sub(pattern.len());
        let mut scan = Scan::new(ScanPath::Cold);
        (self.plane).with_kernel(pattern, |k| {
            k.verify(k.candidates(limit), canon::ln(tau), &mut scan)
        });
        scan.finish()
    }

    /// The smallest τ this executor accepts.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// All `(position, probability)` occurrences of `pattern` with
    /// probability ≥ `tau`, sorted by position. Requires `tau ≥ tau_min`.
    pub fn threshold_hits(&self, pattern: &[u8], tau: f64) -> Result<Vec<(usize, f64)>, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        Ok(self.scan(pattern, tau))
    }

    /// The `k` most probable occurrences with probability ≥ `tau_min`, in
    /// `(probability ↓, position ↑)` order.
    pub fn top_k_hits(&self, pattern: &[u8], k: usize) -> Result<Vec<(usize, f64)>, Error> {
        validate_pattern(pattern)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        // Candidates = the threshold answer at τmin; canonical
        // (probability ↓, position ↑) order decides ties at the cut.
        let mut hits = self.scan(pattern, self.tau_min);
        hits.sort_by(ustr_core::canonical_hit_order);
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveScanner;
    use ustr_core::Index;

    fn figure_3_string() -> UncertainString {
        UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap()
    }

    /// Five positions, the third's `A` conditioned on the first's: the
    /// index stores its upper bound .9, and the true marginal is .5.
    fn correlated_string() -> UncertainString {
        let mut s = UncertainString::parse("A:.5,B:.5 | T | A:.4,T:.6 | T | A:.3,B:.7").unwrap();
        let mut set = ustr_uncertain::CorrelationSet::new();
        set.add(ustr_uncertain::Correlation {
            subject_pos: 2,
            subject_char: b'A',
            cond_pos: 0,
            cond_char: b'A',
            p_present: 0.9,
            p_absent: 0.1,
        })
        .unwrap();
        s.set_correlations(set).unwrap();
        s
    }

    /// Fixed τs, and the three boundary draws at each occurrence's
    /// probability p: τ = p and p·(1 + PROB_EPS/2) report it, and
    /// p·(1 + 2·PROB_EPS) does not — on both executors, to the bit, with
    /// and without a correlation.
    #[test]
    fn threshold_hits_are_bit_identical_to_an_index() {
        use ustr_uncertain::PROB_EPS;
        let margins = [
            (1.0, true),
            (1.0 + PROB_EPS / 2.0, true),
            (1.0 + 2.0 * PROB_EPS, false),
        ];
        for s in [figure_3_string(), correlated_string()] {
            let scan = ScanIndex::new(&s, 0.05).unwrap();
            let idx = Index::build(&s, 0.05).unwrap();
            let answers = |pattern: &[u8], tau: f64| {
                let got = scan.threshold_hits(pattern, tau).unwrap();
                let want = idx.query(pattern, tau).unwrap().into_hits();
                assert_eq!(got, want, "{s}: pattern {pattern:?} tau {tau}");
                got
            };
            for pattern in [&b"AT"[..], b"P", b"FP", b"SFPQ", b"ZZ", b"T", b"TA", b"A"] {
                for tau in [0.05, 0.1, 0.2, 0.4, 0.5, 0.9] {
                    answers(pattern, tau);
                }
                for (pos, p) in answers(pattern, 0.05) {
                    for (tau, reported) in margins.map(|(m, reported)| (p * m, reported)) {
                        if (0.05..=1.0).contains(&tau) {
                            let at = answers(pattern, tau).iter().any(|&(q, _)| q == pos);
                            assert_eq!(at, reported, "{s}: {pattern:?} at {pos}, tau {tau}");
                        }
                    }
                }
            }
        }
    }

    /// Under correlation the index's window values are only upper bounds;
    /// it ranks the canonical τmin threshold answer, so both still agree.
    #[test]
    fn top_k_is_bit_identical_to_an_index() {
        for s in [figure_3_string(), correlated_string()] {
            let scan = ScanIndex::new(&s, 0.05).unwrap();
            let idx = Index::build(&s, 0.05).unwrap();
            for pattern in [&b"P"[..], b"AT", b"T", b"F", b"A"] {
                // The last two: `k` is unvalidated wire input, never a capacity.
                for k in [1usize, 2, 5, 100, 1 << 40, usize::MAX] {
                    assert_eq!(
                        scan.top_k_hits(pattern, k).unwrap(),
                        idx.query_top_k(pattern, k).unwrap(),
                        "{s}: pattern {pattern:?} k {k}"
                    );
                }
            }
        }
    }

    /// A choice given in (1, 1 + PROB_EPS] is stored as 1, so no window is
    /// more probable than its prefix. Unclamped, `A`'s factor lifted `XA`
    /// at 0 (p ≈ 0.4999999998) over τ = 0.5 for the full walk an index
    /// verifies with, while the early-exit walk of the scan and the naive
    /// scanner dropped it at `X` (0.49999999935): a live document answered
    /// one way in the memtable and another once sealed.
    #[test]
    fn a_choice_above_one_answers_alike_through_every_executor() {
        let text = "X:0.49999999935,Y:0.49999990065 | A:1.0000000009 | C";
        let s = UncertainString::parse(text).unwrap();
        let (pattern, tau) = (&b"XA"[..], 0.5);
        let naive = NaiveScanner::find_with_probs(&s, pattern, tau);
        let scan = ScanIndex::new(&s, 0.1).unwrap();
        assert_eq!(scan.threshold_hits(pattern, tau).unwrap(), naive);
        for tau_min in [0.1, 0.5] {
            let idx = Index::build(&s, tau_min).unwrap();
            let got = idx.query(pattern, tau).unwrap().into_hits();
            assert_eq!(got, naive, "index at τmin {tau_min}");
        }
        let log_p = s.log_match_probability(pattern, 0);
        assert_eq!(
            canon::log_meets_threshold(log_p, canon::ln(tau)),
            !naive.is_empty()
        );
        assert_eq!(naive, vec![], "X alone is below τ");
        assert_eq!(s.position(1).choices(), &[(b'A', 1.0)]);
    }

    #[test]
    fn top_k_tie_break_is_positional_under_equal_probabilities() {
        // "ABABAB" deterministic: every "AB" occurrence has p = 1 exactly.
        let s = UncertainString::deterministic(b"ABABAB");
        let scan = ScanIndex::new(&s, 0.5).unwrap();
        let idx = Index::build(&s, 0.5).unwrap();
        let got = scan.top_k_hits(b"AB", 2).unwrap();
        assert_eq!(got, vec![(0, 1.0), (2, 1.0)], "smallest positions win");
        assert_eq!(got, idx.query_top_k(b"AB", 2).unwrap());
    }

    #[test]
    fn validation_matches_the_index_layer() {
        let scan = ScanIndex::new(&figure_3_string(), 0.2).unwrap();
        assert!(matches!(
            scan.threshold_hits(b"", 0.5),
            Err(Error::EmptyPattern)
        ));
        assert!(matches!(
            scan.threshold_hits(b"AT", 0.1),
            Err(Error::ThresholdBelowTauMin { .. })
        ));
        assert!(matches!(
            scan.top_k_hits(b"A\0T", 3),
            Err(Error::PatternContainsSentinel)
        ));
        assert!(matches!(
            ScanIndex::new(&figure_3_string(), 0.0),
            Err(Error::InvalidThreshold { .. })
        ));
    }
}
