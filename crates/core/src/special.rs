//! The special-uncertain-string index (§4): the paper's core machinery in
//! its simplest setting — every text position is a distinct occurrence
//! position, so no transformation or duplicate elimination is needed.

use std::time::Instant;

use ustr_uncertain::{canon, CorrelationSet, SpecialUncertainString};

use crate::{
    error::{validate_query, Error},
    result::QueryResult,
    stats::BuildStats,
    substrate::{DedupStrategy, Substrate},
};

/// Index over a [`SpecialUncertainString`] (Definition 1) supporting
/// arbitrary thresholds `τ ∈ (0, 1]` (no transform means no `τmin`
/// restriction).
///
/// Query cost: `O(m + occ)` for `m ≤ ⌈log₂ n⌉` (per-length RMQ levels),
/// `O(m · occ)`-flavoured for longer patterns (blocking scheme).
///
/// ```
/// use ustr_core::SpecialIndex;
/// use ustr_uncertain::SpecialUncertainString;
/// // Figure 5: X = (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6), query ("ana", 0.3).
/// let x = SpecialUncertainString::new(
///     b"banana".to_vec(),
///     vec![0.4, 0.7, 0.5, 0.8, 0.9, 0.6],
/// ).unwrap();
/// let idx = SpecialIndex::build(&x).unwrap();
/// assert_eq!(idx.query(b"ana", 0.3).unwrap().positions(), vec![3]);
/// assert_eq!(idx.query(b"ana", 0.2).unwrap().positions(), vec![1, 3]);
/// ```
pub struct SpecialIndex {
    special: SpecialUncertainString,
    correlations: CorrelationSet,
    substrate: Substrate,
    /// Log-space slack added to the recursion threshold so upward
    /// correlation adjustments cannot prune true matches (§4.1).
    boost_log: f64,
    stats: BuildStats,
}

impl SpecialIndex {
    /// Builds the index without correlations.
    pub fn build(special: &SpecialUncertainString) -> Result<Self, Error> {
        Self::build_correlated(special, CorrelationSet::new())
    }

    /// Builds the index with `correlations` attached to the string.
    pub fn build_correlated(
        special: &SpecialUncertainString,
        correlations: CorrelationSet,
    ) -> Result<Self, Error> {
        let start = Instant::now();
        // Every text position is a distinct occurrence position: nothing
        // to deduplicate.
        let substrate = Substrate::build(special.chars(), special.probs(), &DedupStrategy::None)?;
        let boost_log = correlation_boost(special, &correlations);
        let stats = BuildStats {
            source_len: special.len(),
            transformed_len: special.len(),
            num_factors: 1,
            ..Default::default()
        };
        let mut idx = Self {
            special: special.clone(),
            correlations,
            substrate,
            boost_log,
            stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        Ok(idx)
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The indexed string.
    pub fn special(&self) -> &SpecialUncertainString {
        &self.special
    }

    /// All positions where `pattern` matches with probability ≥ `tau`.
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, 0.0)?;
        let m = pattern.len();
        let Some((l, r)) = self.substrate.range(pattern) else {
            return Ok(QueryResult::default());
        };
        // Candidates come back with their *stored* window log-probability.
        let log_tau = canon::ln(tau);
        #[allow(clippy::float_arithmetic, reason = "a cut; hits are re-verified")]
        let candidates = self.substrate.report(m, l, r, log_tau - self.boost_log);
        let mut hits = Vec::with_capacity(candidates.len());
        for (pos, stored) in candidates {
            let (log_p, p) = if self.correlations.is_empty() {
                (stored, canon::exp(stored))
            } else {
                let p = self.special.window_prob_with(&self.correlations, pos, m);
                (canon::ln(p), p)
            };
            if canon::log_meets_threshold(log_p, log_tau) {
                hits.push((pos, p));
            }
        }
        let (reported, result) = (hits.len(), QueryResult::from_hits(hits));
        debug_assert_eq!(result.len(), reported, "a special slot is a position");
        Ok(result)
    }

    /// The `k` most probable occurrences of `pattern`: `query(pattern, τ)`
    /// at the least τ it takes, [`f64::MIN_POSITIVE`], ranked by
    /// [`crate::canonical_hit_order`] (probability ↓, position ↑) and cut at
    /// `k`.
    pub fn query_top_k(&self, pattern: &[u8], k: usize) -> Result<Vec<(usize, f64)>, Error> {
        let mut out = self.query(pattern, f64::MIN_POSITIVE)?.into_hits();
        out.sort_by(crate::canonical_hit_order);
        out.truncate(k);
        Ok(out)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.substrate.heap_size() + self.special.len() * (1 + std::mem::size_of::<f64>())
    }
}

/// Log-space slack for the reporting threshold: correlations can raise a
/// window's probability above the stored product (stored probabilities play
/// the paper's pr+ role), so the recursion threshold is relaxed by the total
/// possible uplift; exact verification filters afterwards.
#[allow(clippy::float_arithmetic, reason = "a build-time candidate bound")]
fn correlation_boost(special: &SpecialUncertainString, correlations: &CorrelationSet) -> f64 {
    let mut boost_log = 0.0f64;
    for corr in correlations.iter() {
        let pos = corr.subject_pos;
        if special.chars().get(pos) == Some(&corr.subject_char) {
            let stored = special.prob_at(pos);
            let uplift = (canon::ln(corr.max_prob()) - canon::ln(stored)).max(0.0);
            boost_log += uplift;
        }
    }
    boost_log
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "independent expected values")]

    use super::*;
    use ustr_uncertain::Correlation;

    fn banana() -> SpecialUncertainString {
        SpecialUncertainString::new(b"banana".to_vec(), vec![0.4, 0.7, 0.5, 0.8, 0.9, 0.6]).unwrap()
    }

    #[test]
    fn figure_5_query() {
        let idx = SpecialIndex::build(&banana()).unwrap();
        let r = idx.query(b"ana", 0.3).unwrap();
        assert_eq!(r.positions(), vec![3]);
        assert!((r.max_probability() - 0.432).abs() < 1e-9);
    }

    #[test]
    fn all_pattern_lengths_match_brute_force() {
        let x = banana();
        let idx = SpecialIndex::build(&x).unwrap();
        let text = b"banana";
        for m in 1..=6 {
            for start in 0..=6 - m {
                let pattern = &text[start..start + m];
                for tau in [0.05, 0.1, 0.3, 0.5, 0.9] {
                    let got = idx.query(pattern, tau).unwrap();
                    let expected: Vec<usize> = (0..=6 - m)
                        .filter(|&i| {
                            &text[i..i + m] == pattern && x.window_prob(i, m) >= tau - 1e-12
                        })
                        .collect();
                    assert_eq!(got.positions(), expected, "pattern {pattern:?} tau {tau}");
                }
            }
        }
    }

    #[test]
    fn long_patterns_use_blocking_path() {
        // 40 characters forces patterns beyond ceil(log2(41)) = 6.
        let chars: Vec<u8> = b"abcabcabcabcabcabcabcabcabcabcabcabcabca".to_vec();
        let probs = vec![0.95f64; 40];
        let x = SpecialUncertainString::new(chars.clone(), probs).unwrap();
        let idx = SpecialIndex::build(&x).unwrap();
        let pattern = &chars[0..12]; // "abcabcabcabc"
        let got = idx.query(pattern, 0.5).unwrap();
        let expected: Vec<usize> = (0..=40 - 12)
            .filter(|&i| chars[i..i + 12] == pattern[..] && 0.95f64.powi(12) >= 0.5)
            .collect();
        assert_eq!(got.positions(), expected);
    }

    #[test]
    fn correlation_uplift_is_not_pruned() {
        // Stored probability .2 at the subject, but pr+ = .9: the stored
        // window value underestimates; without the boost the recursion would
        // prune the true match at tau = .5.
        let x = SpecialUncertainString::new(b"eqz".to_vec(), vec![1.0, 1.0, 0.2]).unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 2,
                subject_char: b'z',
                cond_pos: 0,
                cond_char: b'e',
                p_present: 0.9,
                p_absent: 0.1,
            })
            .unwrap();
        let idx = SpecialIndex::build_correlated(&x, corrs).unwrap();
        let r = idx.query(b"eqz", 0.5).unwrap();
        assert_eq!(r.positions(), vec![0]);
        assert!((r.hits()[0].1 - 0.9).abs() < 1e-9);
        // And the downward adjustment filters correctly: window "qz" uses the
        // marginal 1.0*.9 + 0*.1 = .9 (e always present).
        let r = idx.query(b"qz", 0.95).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn query_validation() {
        let idx = SpecialIndex::build(&banana()).unwrap();
        assert!(matches!(idx.query(b"", 0.5), Err(Error::EmptyPattern)));
        assert!(matches!(
            idx.query(b"a\0", 0.5),
            Err(Error::PatternContainsSentinel)
        ));
        assert!(matches!(
            idx.query(b"a", 0.0),
            Err(Error::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn missing_pattern_is_empty() {
        let idx = SpecialIndex::build(&banana()).unwrap();
        assert!(idx.query(b"xyz", 0.1).unwrap().is_empty());
        assert!(idx.query(b"bananaX", 0.1).unwrap().is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let idx = SpecialIndex::build(&banana()).unwrap();
        assert_eq!(idx.stats().source_len, 6);
        assert!(idx.stats().heap_bytes > 0);
        assert!(idx.heap_size() > 0);
    }
}
