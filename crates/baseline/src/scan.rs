//! Online per-position scan (the Li et al. \[20\] style baseline).

use ustr_uncertain::{canon, UncertainString};

/// Stateless online matcher: O(n·m) worst case, with early termination as
/// soon as a window's running product drops below the threshold (products of
/// probabilities are non-increasing in window length).
pub struct NaiveScanner;

impl NaiveScanner {
    /// All positions where `pattern` matches `s` with probability ≥ `tau`.
    pub fn find(s: &UncertainString, pattern: &[u8], tau: f64) -> Vec<usize> {
        Self::find_with_probs(s, pattern, tau)
            .into_iter()
            .map(|(i, _)| i)
            .collect()
    }

    /// Like [`Self::find`], also returning the occurrence probabilities.
    #[allow(clippy::float_arithmetic, reason = "the scanner's running log product")]
    pub fn find_with_probs(s: &UncertainString, pattern: &[u8], tau: f64) -> Vec<(usize, f64)> {
        let m = pattern.len();
        let n = s.len();
        let mut out = Vec::new();
        if m == 0 || m > n || !canon::is_positive_prob(tau) {
            return out;
        }
        let log_tau = canon::ln(tau);
        let corrs = s.correlations();
        'positions: for i in 0..=n - m {
            let mut log_p = 0.0f64;
            for (k, &ch) in pattern.iter().enumerate() {
                let q = i + k;
                let base = s.position(q).prob_of(ch);
                if !canon::is_positive_prob(base) {
                    continue 'positions;
                }
                // The conditioning outcome is known from the pattern itself
                // whenever the conditioning position falls inside the window,
                // so the contribution of each character is final immediately
                // and early termination is sound.
                let p = match corrs.get(q, ch) {
                    Some(corr) => {
                        let j = corr.cond_pos;
                        if j >= i && j < i + m {
                            corr.effective_prob(Some(pattern[j - i]), 0.0)
                        } else {
                            let marginal = s.position(j).prob_of(corr.cond_char);
                            corr.effective_prob(None, marginal)
                        }
                    }
                    None => base,
                };
                if !canon::is_positive_prob(p) {
                    continue 'positions;
                }
                log_p += canon::ln(p);
                if !canon::log_meets_threshold(log_p, log_tau) {
                    continue 'positions;
                }
            }
            out.push((i, canon::exp(log_p)));
        }
        out
    }

    /// String listing by brute force: every document is scanned.
    pub fn listing(docs: &[UncertainString], pattern: &[u8], tau: f64) -> Vec<usize> {
        docs.iter()
            .enumerate()
            .filter(|(_, d)| !Self::find_with_probs(d, pattern, tau).is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Maximum occurrence probability of `pattern` in `s` (the `Rel_max`
    /// relevance metric of §6); 0 when there is no possible occurrence.
    pub fn relevance_max(s: &UncertainString, pattern: &[u8]) -> f64 {
        Self::find_with_probs(s, pattern, f64::MIN_POSITIVE)
            .into_iter()
            .map(|(_, p)| p)
            .fold(0.0, f64::max)
    }

    /// The paper's `Rel_OR` metric (Figure 6): `Σ pr(tⱼ) − Π pr(tⱼ)` over
    /// all nonzero-probability occurrence positions.
    pub fn relevance_or(s: &UncertainString, pattern: &[u8]) -> f64 {
        let probs: Vec<f64> = Self::find_with_probs(s, pattern, f64::MIN_POSITIVE)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        match probs.len() {
            0 => 0.0,
            // §6: one occurrence's relevance is its probability.
            1 => probs[0],
            #[allow(clippy::float_arithmetic, reason = "§6's Rel_OR, Σp − Πp")]
            _ => {
                let sum: f64 = probs.iter().sum();
                let prod: f64 = probs.iter().product();
                sum - prod
            }
        }
    }

    /// Independent-event OR: `1 − Π(1 − pr(tⱼ))` — the standard alternative
    /// to the paper's formula, exposed for comparison.
    pub fn relevance_independent_or(s: &UncertainString, pattern: &[u8]) -> f64 {
        let probs = Self::find_with_probs(s, pattern, f64::MIN_POSITIVE);
        canon::independent_or(probs.iter().map(|&(_, p)| p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_6_string() -> UncertainString {
        UncertainString::parse(
            "A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | A:.5,F:.5 | A:.6,B:.4 | B:.5,F:.3,J:.2 | A:.4,C:.3,E:.2,F:.1",
        )
        .unwrap()
    }

    #[test]
    fn finds_expected_positions() {
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        assert_eq!(NaiveScanner::find(&s, b"AT", 0.4), vec![8]);
        // Position 6 matches with probability .4 * .1 = .04 only.
        assert_eq!(NaiveScanner::find(&s, b"AT", 0.1), vec![8]);
        assert_eq!(NaiveScanner::find(&s, b"AT", 0.04), vec![6, 8]);
    }

    #[test]
    fn probabilities_match_model() {
        let s = figure_6_string();
        for (i, p) in NaiveScanner::find_with_probs(&s, b"BFA", 0.0001) {
            assert!((p - s.match_probability(b"BFA", i)).abs() < 1e-12);
        }
    }

    #[test]
    fn figure_6_relevance_metrics() {
        let s = figure_6_string();
        // Rel(S, "BFA")max = .09 as in the paper. (Figure 6's OR arithmetic
        // uses .06 for the first occurrence, but the displayed string gives
        // .3*.3*.5 = .045; we assert the formula Σp − Πp on the actual
        // occurrence probabilities .045, .09, .048.)
        assert!((NaiveScanner::relevance_max(&s, b"BFA") - 0.09).abs() < 1e-9);
        let expected = (0.045 + 0.09 + 0.048) - 0.045 * 0.09 * 0.048;
        assert!((NaiveScanner::relevance_or(&s, b"BFA") - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_and_oversized_patterns() {
        let s = UncertainString::deterministic(b"abc");
        assert!(NaiveScanner::find(&s, b"", 0.5).is_empty());
        assert!(NaiveScanner::find(&s, b"abcd", 0.5).is_empty());
        assert_eq!(NaiveScanner::find(&s, b"abc", 0.5), vec![0]);
    }

    #[test]
    fn threshold_filters() {
        let s = UncertainString::parse("a:.9,b:.1 | a:.9,b:.1").unwrap();
        assert_eq!(NaiveScanner::find(&s, b"aa", 0.5), vec![0]); // .81
        assert!(NaiveScanner::find(&s, b"ab", 0.5).is_empty()); // .09
        assert_eq!(NaiveScanner::find(&s, b"ab", 0.05), vec![0]);
    }

    #[test]
    fn listing_returns_matching_documents() {
        // Figure 2: only d1 contains "BF" with probability > 0.1.
        let d1 =
            UncertainString::parse("A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5").unwrap();
        let d2 =
            UncertainString::parse("A:.6,C:.4 | B:.5,F:.3,E:.2 | B:.4,C:.3,P:.2,F:.1").unwrap();
        let d3 = UncertainString::parse("A:.4,F:.4,P:.2 | I:.3,L:.3,P:.3,T:.1 | A").unwrap();
        let docs = vec![d1, d2, d3];
        assert_eq!(NaiveScanner::listing(&docs, b"BF", 0.1), vec![0]);
    }

    #[test]
    fn independent_or_differs_from_paper_or() {
        let s = figure_6_string();
        let paper = NaiveScanner::relevance_or(&s, b"BFA");
        let indep = NaiveScanner::relevance_independent_or(&s, b"BFA");
        assert!(paper > 0.0 && indep > 0.0);
        assert!(
            (paper - indep).abs() > 1e-6,
            "metrics are genuinely different"
        );
    }
}
