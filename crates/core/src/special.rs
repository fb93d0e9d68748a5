//! The special-uncertain-string index (§4): the paper's core machinery in
//! its simplest setting — every text position is a distinct occurrence
//! position, so no transformation or duplicate elimination is needed.

use std::time::Instant;

use ustr_uncertain::{canon, CorrelationSet, ProbPlane, SpecialUncertainString, UncertainString};

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
/// Built as [`crate::Index`] is, with the identity position map: the
/// string's model as one [`ProbPlane`], and the text's value codes taken
/// from each character's correlation upper bound. Without correlations a
/// window's value is its probability as the plane's kernel sums it, and a
/// query reports it as it is; under correlation it bounds the probability
/// from above, and a query verifies its candidates through the kernel. So
/// its probabilities are every exact executor's bits.
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
    /// The string's model, one choice a position, with its correlations:
    /// the one in-memory copy, and the verification kernel.
    plane: ProbPlane,
    pub(crate) substrate: Substrate,
    stats: BuildStats,
}

impl SpecialIndex {
    /// Builds the index without correlations.
    pub fn build(special: &SpecialUncertainString) -> Result<Self, Error> {
        Self::build_correlated(special, CorrelationSet::new())
    }

    /// Builds the index with `correlations` attached to the string. The
    /// model's checks apply: a 0 byte, or a correlation naming a character
    /// that does not occur at its position, is an [`Error::Model`].
    pub fn build_correlated(
        special: &SpecialUncertainString,
        correlations: CorrelationSet,
    ) -> Result<Self, Error> {
        let start = Instant::now();
        let chars = special.chars();
        let rows = (chars.iter().zip(special.probs())).map(|(&c, &p)| vec![(c, p)]);
        let mut model = UncertainString::from_rows(rows.collect())?;
        model.set_correlations(correlations)?;
        // Each character's probability through the transform's rule, as
        // `Index` reads it: the model's own, or its correlation's bound. A
        // subject no outcome lets occur (pr⁺ = pr⁻ = 0) keeps its own, a
        // looser bound: a value code is of a positive value, and the kernel refuses
        // every window over it.
        let probs: Vec<f64> = (chars.iter().enumerate())
            .map(|(i, &c)| {
                let base = model.position(i).prob_of(c);
                let bound = model.correlations().upper_bound(i, c, base);
                if canon::is_positive_prob(bound) {
                    bound
                } else {
                    base
                }
            })
            .collect();
        // Every text position is a distinct occurrence position: nothing
        // to deduplicate.
        let substrate = Substrate::build(chars, &probs, &DedupStrategy::None)?;
        let stats = BuildStats {
            source_len: special.len(),
            transformed_len: special.len(),
            num_factors: 1,
            ..Default::default()
        };
        let mut idx = Self {
            plane: ProbPlane::build(&model),
            substrate,
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

    /// All positions where `pattern` matches with probability ≥ `tau`,
    /// each with its probability as the kernel's one walk gives it.
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, 0.0)?;
        let Some((l, r)) = self.substrate.range(pattern) else {
            return Ok(QueryResult::default());
        };
        let log_tau = canon::ln(tau);
        let candidates = self.substrate.report(pattern.len(), l, r, log_tau);
        let hits = crate::index::confirmed(&self.plane, pattern, candidates, log_tau);
        Ok(QueryResult::from_hits(hits))
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

    /// Approximate heap footprint in bytes, the model (plane) included.
    pub fn heap_size(&self) -> usize {
        self.substrate.heap_size() + self.plane.heap_size()
    }
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
        // Probability .2 at the subject, but pr+ = .9: the value codes take the
        // subject's upper bound, .9, where a window of the string's own .2
        // would prune the true match at tau = .5.
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
    fn an_impossible_subject_matches_nowhere() {
        // pr⁺ = pr⁻ = 0: `z` never occurs, whatever `e` does.
        let x = SpecialUncertainString::new(b"eqzq".to_vec(), vec![0.6, 1.0, 0.5, 1.0]).unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 2,
                subject_char: b'z',
                cond_pos: 0,
                cond_char: b'e',
                p_present: 0.0,
                p_absent: 0.0,
            })
            .unwrap();
        let idx = SpecialIndex::build_correlated(&x, corrs).unwrap();
        for pattern in [&b"eqz"[..], b"zq", b"z"] {
            assert!(idx.query(pattern, f64::MIN_POSITIVE).unwrap().is_empty());
        }
        assert_eq!(idx.query(b"q", 0.5).unwrap().positions(), vec![1, 3]);
        assert_eq!(idx.query(b"eq", 0.5).unwrap().positions(), vec![0]);
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
