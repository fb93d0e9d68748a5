//! [`ScanIndex`]: the scan-based per-document executor.
//!
//! Answers the per-document queries over one [`UncertainString`]
//! (threshold, top-k) by scanning instead of building the paper's index.
//! Construction builds only the flat [`ProbPlane`] — no transform, no
//! suffix tree, and no copy of the string: the plane is the model — which
//! is exactly what a live memtable needs: a freshly
//! ingested document is queryable immediately, and the answers are
//! **bit-identical** to what a built [`ustr_core::Index`] over the same
//! document at the same `τmin` returns (both report canonical
//! probabilities recomputed from the model through the same
//! [`MatchKernel`], both decide by the one threshold rule, and top-k uses
//! the same total order, [`ustr_core::canonical_hit_order`], over the same
//! candidate set, the threshold answer at `τmin`).
//!
//! The scan itself runs on the plane: candidate start positions are
//! prefiltered with the presence bitmap of the *first* pattern character
//! (every other start fails at its first factor), and each surviving
//! window is verified by the kernel's bounded flat loop with the same
//! per-factor early exit [`crate::NaiveScanner`] uses. `NaiveScanner`
//! stays as the plane-free reference implementation the differential tests
//! compare against.

use ustr_core::{validate_pattern, validate_query, Error};
use ustr_uncertain::{canon, MatchKernel, ProbPlane, UncertainString};

/// A scan-backed per-document query engine (O(n·σ) construction for the
/// probability plane, O(n·m) queries), interchangeable with a built
/// [`ustr_core::Index`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ScanIndex {
    plane: ProbPlane,
    tau_min: f64,
}

impl ScanIndex {
    /// Serves `doc` with the construction threshold `tau_min ∈ (0, 1]` (the
    /// same value an [`ustr_core::Index`] would be built with).
    pub fn new(doc: &UncertainString, tau_min: f64) -> Result<Self, Error> {
        if !canon::valid_tau(tau_min) {
            return Err(Error::InvalidThreshold { value: tau_min });
        }
        Ok(Self {
            plane: ProbPlane::build(doc),
            tau_min,
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

    /// The plane-backed scan shared by threshold and top-k: presence-row
    /// prefilter on the first pattern character, then the bounded kernel
    /// loop per surviving candidate, which decides by the threshold rule
    /// ([`canon::log_meets_threshold`]).
    /// Equivalent to `NaiveScanner::find_with_probs` + retain, bit for bit.
    fn scan(&self, kernel: &MatchKernel<'_>, pattern: &[u8], tau: f64) -> Vec<(usize, f64)> {
        let m = pattern.len();
        let n = self.plane.len();
        let mut hits = Vec::new();
        if m == 0 || m > n {
            return hits;
        }
        let log_tau = canon::ln(tau);
        let start = std::time::Instant::now();
        let mut candidates = 0u64;
        for i in kernel.candidates(n - m + 1) {
            candidates += 1;
            // The bounded loop has decided by the threshold rule already.
            if let Some(log_p) = kernel.log_match_bounded(i, log_tau) {
                hits.push((i, canon::exp(log_p)));
            }
        }
        // One batched record per scan: the per-candidate loop stays free
        // of atomics and clock reads. Counted as `ScanPath::Cold`: no index
        // picked the candidates, though the plane kernel verifies them.
        ustr_uncertain::kstats::record_scan_on(
            ustr_uncertain::kstats::ScanPath::Cold,
            candidates,
            hits.len() as u64,
            ustr_uncertain::kstats::elapsed_ns(start),
        );
        hits
    }

    /// The smallest τ this executor accepts.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// All `(position, probability)` occurrences of `pattern` with
    /// probability ≥ `tau`, sorted by position. Requires `tau ≥ tau_min`.
    pub fn threshold_hits(&self, pattern: &[u8], tau: f64) -> Result<Vec<(usize, f64)>, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        // The kernel's bounded loop decides by the same rule, on the same
        // log value, as the index's final filter.
        Ok(self
            .plane
            .with_kernel(pattern, |kernel| self.scan(kernel, pattern, tau)))
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
        let mut hits = self
            .plane
            .with_kernel(pattern, |kernel| self.scan(kernel, pattern, self.tau_min));
        hits.sort_by(ustr_core::canonical_hit_order);
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Under correlation the index's stored values are only upper bounds;
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
