//! A single uncertain position: a pdf over characters.

use crate::{canon, error::ModelError, transform::SENTINEL};

/// One position of an uncertain string: a non-empty set of
/// `(character, probability)` choices with probabilities in `(0, 1]` summing
/// to at most 1 (strictly-less sums model unenumerated rare characters,
/// which real annotation pipelines produce). A choice in
/// `(1, 1 + PROB_EPS]` — rounding above certainty — is stored as exactly 1.
///
/// Choices are kept sorted by character byte.
///
/// ```
/// use ustr_uncertain::UncertainChar;
/// let c = UncertainChar::new(vec![(b'B', 0.3), (b'A', 0.7)], 0).unwrap();
/// assert_eq!(c.prob_of(b'A'), 0.7);
/// assert_eq!(c.prob_of(b'Z'), 0.0);
/// assert_eq!(c.most_probable(), (b'A', 0.7));
/// assert!(!c.is_deterministic());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainChar {
    choices: Vec<(u8, f64)>,
}

impl UncertainChar {
    /// Builds a validated uncertain character. `position` is only used in
    /// error messages.
    pub fn new(mut choices: Vec<(u8, f64)>, position: usize) -> Result<Self, ModelError> {
        if choices.is_empty() {
            return Err(ModelError::NoChoices { position });
        }
        choices.sort_unstable_by_key(|&(c, _)| c);
        let mut sum = 0.0;
        for w in choices.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ModelError::DuplicateChar {
                    position,
                    ch: w[0].0,
                });
            }
        }
        for (c, p) in &mut choices {
            if *c == SENTINEL {
                return Err(ModelError::ReservedByte { position });
            }
            if !canon::valid_prob(*p) {
                return Err(ModelError::InvalidProbability {
                    position,
                    ch: *c,
                    prob: *p,
                });
            }
            // Admitted up to 1 + PROB_EPS (rounding), stored as at most 1:
            // no factor may raise a running product (plane.rs module docs).
            *p = p.min(1.0);
            sum += *p;
        }
        if sum > 1.0 + 1e-6 {
            return Err(ModelError::ProbabilitySumExceedsOne { position, sum });
        }
        Ok(Self { choices })
    }

    /// A deterministic position: one character with probability 1.
    pub fn deterministic(ch: u8) -> Self {
        debug_assert_ne!(ch, SENTINEL, "sentinel byte is reserved");
        Self {
            choices: vec![(ch, 1.0)],
        }
    }

    /// Rebuilds a position from choices that were validated when it was
    /// first built (already sorted by byte).
    pub(crate) fn from_validated(choices: Vec<(u8, f64)>) -> Self {
        Self { choices }
    }

    /// The choices, sorted by character byte.
    pub fn choices(&self) -> &[(u8, f64)] {
        &self.choices
    }

    /// Number of character choices.
    pub fn num_choices(&self) -> usize {
        self.choices.len()
    }

    /// Probability of `ch` at this position (0 when absent).
    pub fn prob_of(&self, ch: u8) -> f64 {
        match self.choices.binary_search_by_key(&ch, |&(c, _)| c) {
            Ok(i) => self.choices[i].1,
            Err(_) => 0.0,
        }
    }

    /// The most probable choice (leftmost byte on ties).
    pub fn most_probable(&self) -> (u8, f64) {
        let mut best = self.choices[0];
        for &(c, p) in &self.choices[1..] {
            if p > best.1 {
                best = (c, p);
            }
        }
        best
    }

    /// A position is deterministic when it has exactly one choice with
    /// probability 1.
    pub fn is_deterministic(&self) -> bool {
        self.choices.len() == 1 && canon::is_certain(self.choices[0].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            UncertainChar::new(vec![], 2),
            Err(ModelError::NoChoices { position: 2 })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(b'A', 0.0)], 0),
            Err(ModelError::InvalidProbability { .. })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(b'A', -0.1)], 0),
            Err(ModelError::InvalidProbability { .. })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(b'A', 1.2)], 0),
            Err(ModelError::InvalidProbability { .. })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(b'A', 0.5), (b'A', 0.5)], 1),
            Err(ModelError::DuplicateChar { .. })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(b'A', 0.7), (b'B', 0.7)], 0),
            Err(ModelError::ProbabilitySumExceedsOne { .. })
        ));
        assert!(matches!(
            UncertainChar::new(vec![(0u8, 1.0)], 0),
            Err(ModelError::ReservedByte { .. })
        ));
    }

    #[test]
    fn determinism() {
        assert!(UncertainChar::deterministic(b'X').is_deterministic());
        let c = UncertainChar::new(vec![(b'A', 0.999999999999)], 0).unwrap();
        assert!(c.is_deterministic());
        let c = UncertainChar::new(vec![(b'A', 0.9)], 0).unwrap();
        assert!(!c.is_deterministic());
    }

    #[test]
    fn choices_sorted_and_queryable() {
        let c = UncertainChar::new(vec![(b'C', 0.2), (b'A', 0.5), (b'B', 0.3)], 0).unwrap();
        let bytes: Vec<u8> = c.choices().iter().map(|&(b, _)| b).collect();
        assert_eq!(bytes, vec![b'A', b'B', b'C']);
        assert_eq!(c.prob_of(b'B'), 0.3);
        assert_eq!(c.num_choices(), 3);
    }

    #[test]
    fn most_probable_breaks_ties_leftmost() {
        let c = UncertainChar::new(vec![(b'B', 0.5), (b'A', 0.5)], 0).unwrap();
        assert_eq!(c.most_probable(), (b'A', 0.5));
    }
}
