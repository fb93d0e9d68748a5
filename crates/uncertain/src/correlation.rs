//! Pairwise correlation between string positions (§3.3 of the paper).
//!
//! A character `c_k` at position `i` may be correlated with character `c_l`
//! at position `j`: its probability is `pr⁺` when the conditioning character
//! is taken at `j` and `pr⁻` otherwise. When position `j` falls *outside*
//! the substring window under consideration, the law of total probability
//! applies: `pr = pr(c_l at j)·pr⁺ + (1 − pr(c_l at j))·pr⁻`.
//!
//! (The paper's Case 2 displays `pr(c)⁺` in both terms — an evident typo; we
//! implement the total-probability form its example in Figure 4 actually
//! uses: for substring `qz`, `pr(z₃) = .6·.3 + .4·.4`.)

use std::collections::HashMap;

use crate::error::ModelError;

/// One pairwise correlation: the probability of `subject_char` at
/// `subject_pos` depends on whether `cond_char` occurs at `cond_pos`.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlation {
    /// Position whose character probability is modified.
    pub subject_pos: usize,
    /// The character at `subject_pos` the correlation applies to.
    pub subject_char: u8,
    /// The conditioning position.
    pub cond_pos: usize,
    /// The conditioning character at `cond_pos`.
    pub cond_char: u8,
    /// Probability of the subject when the conditioning character occurs.
    pub p_present: f64,
    /// Probability of the subject when the conditioning character does not.
    pub p_absent: f64,
}

impl Correlation {
    /// Probability of the subject character given full knowledge of the
    /// window: `cond_choice` is the character chosen at `cond_pos` when that
    /// position lies inside the window, `None` when it lies outside (in
    /// which case `cond_marginal` = `pr(cond_char at cond_pos)` is used).
    #[inline]
    pub fn effective_prob(&self, cond_choice: Option<u8>, cond_marginal: f64) -> f64 {
        match cond_choice {
            Some(c) if c == self.cond_char => self.p_present,
            Some(_) => self.p_absent,
            None => cond_marginal * self.p_present + (1.0 - cond_marginal) * self.p_absent,
        }
    }

    /// Largest probability this correlation can assign to the subject under
    /// any conditioning outcome (the marginal is a convex combination, so
    /// the max of the two conditionals bounds it).
    #[inline]
    pub fn max_prob(&self) -> f64 {
        self.p_present.max(self.p_absent)
    }
}

/// A set of correlations indexed by `(subject position, subject character)`.
///
/// At most one correlation per subject is supported (matching the paper's
/// presentation); self-correlations are rejected.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrelationSet {
    by_subject: HashMap<(usize, u8), Correlation>,
}

impl CorrelationSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a correlation, validating its probabilities and rejecting
    /// duplicates or self-references.
    pub fn add(&mut self, corr: Correlation) -> Result<(), ModelError> {
        if corr.subject_pos == corr.cond_pos {
            return Err(ModelError::InvalidCorrelation {
                detail: format!("position {} conditions on itself", corr.subject_pos),
            });
        }
        for (name, p) in [("pr+", corr.p_present), ("pr-", corr.p_absent)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ModelError::InvalidCorrelation {
                    detail: format!("{name} = {p} is outside [0, 1]"),
                });
            }
        }
        let key = (corr.subject_pos, corr.subject_char);
        if self.by_subject.contains_key(&key) {
            return Err(ModelError::InvalidCorrelation {
                detail: format!(
                    "duplicate correlation for character {:?} at position {}",
                    corr.subject_char as char, corr.subject_pos
                ),
            });
        }
        self.by_subject.insert(key, corr);
        Ok(())
    }

    /// The correlation whose subject is `(pos, ch)`, if any.
    #[inline]
    pub fn get(&self, pos: usize, ch: u8) -> Option<&Correlation> {
        self.by_subject.get(&(pos, ch))
    }

    /// The probability the Lemma-2 transform gives character `ch` at
    /// position `pos`, whose own probability there is `base`: `base`, or
    /// the correlation's [`Correlation::max_prob`] when `(pos, ch)` is a
    /// correlation subject — an upper bound on every conditioning outcome.
    /// The transform's factor search and an index load both read a text
    /// character's probability through this one rule.
    #[inline]
    pub fn upper_bound(&self, pos: usize, ch: u8, base: f64) -> f64 {
        self.get(pos, ch).map_or(base, Correlation::max_prob)
    }

    /// Returns `true` when no correlations are registered.
    pub fn is_empty(&self) -> bool {
        self.by_subject.is_empty()
    }

    /// Number of registered correlations.
    pub fn len(&self) -> usize {
        self.by_subject.len()
    }

    /// Iterates over all correlations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Correlation> {
        self.by_subject.values()
    }

    /// Approximate heap footprint in bytes (the table's slots, by capacity).
    pub(crate) fn heap_size(&self) -> usize {
        self.by_subject.capacity() * std::mem::size_of::<((usize, u8), Correlation)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr() -> Correlation {
        Correlation {
            subject_pos: 2,
            subject_char: b'z',
            cond_pos: 0,
            cond_char: b'e',
            p_present: 0.3,
            p_absent: 0.4,
        }
    }

    #[test]
    fn figure_4_example() {
        // S[1]=e:.6,f:.4  S[2]=q:1  S[3]=z correlated with e1.
        let c = corr();
        // Substring "eqz": e chosen at the conditioning position.
        assert_eq!(c.effective_prob(Some(b'e'), 0.6), 0.3);
        // Substring "fqz": e not chosen.
        assert_eq!(c.effective_prob(Some(b'f'), 0.6), 0.4);
        // Substring "qz": conditioning position outside the window.
        let marginal = c.effective_prob(None, 0.6);
        assert!((marginal - (0.6 * 0.3 + 0.4 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn max_prob_bounds_every_outcome() {
        let c = corr();
        assert_eq!(c.max_prob(), 0.4);
        for choice in [Some(b'e'), Some(b'f'), None] {
            assert!(c.effective_prob(choice, 0.6) <= c.max_prob() + 1e-12);
        }
    }

    #[test]
    fn set_rejects_bad_correlations() {
        let mut set = CorrelationSet::new();
        let mut self_ref = corr();
        self_ref.cond_pos = 2;
        assert!(set.add(self_ref).is_err());
        let mut bad_prob = corr();
        bad_prob.p_present = 1.5;
        assert!(set.add(bad_prob).is_err());
        set.add(corr()).unwrap();
        assert!(set.add(corr()).is_err(), "duplicate subject rejected");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn lookup_by_subject() {
        let mut set = CorrelationSet::new();
        set.add(corr()).unwrap();
        assert!(set.get(2, b'z').is_some());
        assert!(set.get(2, b'y').is_none());
        assert!(set.get(1, b'z').is_none());
    }
}
