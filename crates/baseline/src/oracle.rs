//! Ground-truth oracle by exhaustive possible-world enumeration.

// A reference evaluator shares none of the kernel's arithmetic, so a
// differential test against it is not circular (INVARIANTS.md §1).
#![allow(clippy::float_arithmetic, reason = "an independent reference")]

use std::collections::HashMap;

use ustr_uncertain::{canon, ModelError, UncertainString};

/// Exhaustive oracle: evaluates queries by enumerating every possible world
/// (§1's possible-world semantics). Exponential — usable only on the small
/// strings of the test suite, where it provides an implementation-independent
/// ground truth for the indexes and the scanner.
pub struct PossibleWorldOracle;

impl PossibleWorldOracle {
    /// Per-position occurrence probability of `pattern`, computed by summing
    /// the probabilities of all worlds that contain `pattern` at each
    /// position.
    pub fn occurrence_probabilities(
        s: &UncertainString,
        pattern: &[u8],
    ) -> Result<HashMap<usize, f64>, ModelError> {
        let worlds = s.possible_worlds()?;
        let m = pattern.len();
        let mut acc: HashMap<usize, f64> = HashMap::new();
        if m == 0 || m > s.len() {
            return Ok(acc);
        }
        for (world, prob) in worlds {
            for i in 0..=world.len() - m {
                if &world[i..i + m] == pattern {
                    *acc.entry(i).or_insert(0.0) += prob;
                }
            }
        }
        Ok(acc)
    }

    /// Positions where `pattern` matches with probability ≥ `tau` (sorted),
    /// by the workspace's one threshold rule
    /// ([`canon::log_meets_threshold`]) on the world sum.
    pub fn matches(
        s: &UncertainString,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Vec<usize>, ModelError> {
        let probs = Self::occurrence_probabilities(s, pattern)?;
        let log_tau = canon::ln(tau);
        let mut out: Vec<usize> = probs
            .into_iter()
            .filter(|&(_, p)| canon::log_meets_threshold(canon::ln(p), log_tau))
            .map(|(i, _)| i)
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Probability that `pattern` occurs at least once (for validating the
    /// containment DP).
    pub fn containment_probability(s: &UncertainString, pattern: &[u8]) -> Result<f64, ModelError> {
        let worlds = s.possible_worlds()?;
        let m = pattern.len();
        if m == 0 {
            return Ok(1.0);
        }
        Ok(worlds
            .into_iter()
            .filter(|(w, _)| m <= w.len() && w.windows(m).any(|win| win == pattern))
            .map(|(_, p)| p)
            .sum())
    }

    /// Document ids (sorted) containing at least one occurrence of `pattern`
    /// with probability ≥ `tau`.
    pub fn listing(
        docs: &[UncertainString],
        pattern: &[u8],
        tau: f64,
    ) -> Result<Vec<usize>, ModelError> {
        let mut out = Vec::new();
        for (id, d) in docs.iter().enumerate() {
            if !Self::matches(d, pattern, tau)?.is_empty() {
                out.push(id);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveScanner;

    #[test]
    fn oracle_agrees_with_direct_evaluation() {
        let s = UncertainString::parse("a:.3,b:.7 | a:.6,c:.4 | a | b:.5,c:.5").unwrap();
        for pattern in [&b"a"[..], b"aa", b"ba", b"aab", b"aac"] {
            let probs = PossibleWorldOracle::occurrence_probabilities(&s, pattern).unwrap();
            for i in 0..=s.len().saturating_sub(pattern.len()) {
                let direct = s.match_probability(pattern, i);
                let oracle = probs.get(&i).copied().unwrap_or(0.0);
                assert!(
                    (direct - oracle).abs() < 1e-9,
                    "pattern {:?} pos {i}: direct {direct} oracle {oracle}",
                    String::from_utf8_lossy(pattern)
                );
            }
        }
    }

    #[test]
    fn oracle_matches_scanner() {
        let s = UncertainString::parse("x:.5,y:.5 | x:.9,z:.1 | y:.4,x:.6 | x").unwrap();
        for tau in [0.05, 0.2, 0.5, 0.9] {
            for pattern in [&b"x"[..], b"xx", b"xy", b"yx", b"xxx"] {
                let oracle = PossibleWorldOracle::matches(&s, pattern, tau).unwrap();
                let scan = NaiveScanner::find(&s, pattern, tau);
                assert_eq!(oracle, scan, "pattern {pattern:?} tau {tau}");
            }
        }
    }

    #[test]
    fn containment_agrees_with_dp() {
        let s = UncertainString::parse("a:.5,b:.5 | b:.3,a:.7 | a:.2,b:.8").unwrap();
        for pattern in [&b"ab"[..], b"ba", b"aa", b"aba"] {
            let oracle = PossibleWorldOracle::containment_probability(&s, pattern).unwrap();
            let dp = crate::containment_probability(&s, pattern);
            assert!((oracle - dp).abs() < 1e-9);
        }
    }

    #[test]
    fn listing_on_figure_2() {
        let d1 =
            UncertainString::parse("A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5").unwrap();
        let d2 =
            UncertainString::parse("A:.6,C:.4 | B:.5,F:.3,E:.2 | B:.4,C:.3,P:.2,F:.1").unwrap();
        let d3 = UncertainString::parse("A:.4,F:.4,P:.2 | I:.3,L:.3,P:.3,T:.1 | A").unwrap();
        let docs = vec![d1, d2, d3];
        assert_eq!(
            PossibleWorldOracle::listing(&docs, b"BF", 0.1).unwrap(),
            vec![0]
        );
    }
}
