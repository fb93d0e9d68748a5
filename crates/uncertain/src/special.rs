//! Special uncertain strings (Definition 1): one probabilistic character per
//! position.

use crate::{canon, error::ModelError};

/// A special uncertain string `X = (c₁, pr₁) … (c_N, pr_N)`.
///
/// Byte 0 is the factor separator in transformed strings; positions holding
/// it carry probability 1 and are ignored by window evaluations (windows
/// crossing a separator have probability 0 — enforced by the index layer).
///
/// ```
/// use ustr_uncertain::SpecialUncertainString;
/// // Figure 5: X = (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6)
/// let x = SpecialUncertainString::new(
///     b"banana".to_vec(),
///     vec![0.4, 0.7, 0.5, 0.8, 0.9, 0.6],
/// ).unwrap();
/// // "ana" at position 1 (0-based): .7*.5*.8 = .28
/// assert!((x.window_prob(1, 3) - 0.28).abs() < 1e-12);
/// // "ana" at position 3: .8*.9*.6 = .432
/// assert!((x.window_prob(3, 3) - 0.432).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpecialUncertainString {
    chars: Vec<u8>,
    probs: Vec<f64>,
}

impl SpecialUncertainString {
    /// Builds a validated special uncertain string: probabilities in `(0, 1]`.
    pub fn new(chars: Vec<u8>, probs: Vec<f64>) -> Result<Self, ModelError> {
        if chars.len() != probs.len() {
            return Err(ModelError::Parse {
                detail: format!(
                    "character count {} does not match probability count {}",
                    chars.len(),
                    probs.len()
                ),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !canon::valid_prob(p) {
                return Err(ModelError::InvalidProbability {
                    position: i,
                    ch: chars[i],
                    prob: p,
                });
            }
        }
        Ok(Self { chars, probs })
    }

    /// Internal constructor bypassing validation (used by the transform,
    /// whose outputs are valid by construction and contain separator bytes).
    pub(crate) fn from_raw(chars: Vec<u8>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(chars.len(), probs.len());
        Self { chars, probs }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Returns `true` for the empty string.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// The deterministic character sequence.
    pub fn chars(&self) -> &[u8] {
        &self.chars
    }

    /// The per-position probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Character at position `i`.
    #[inline]
    pub fn char_at(&self, i: usize) -> u8 {
        self.chars[i]
    }

    /// Probability at position `i`.
    #[inline]
    pub fn prob_at(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Product of probabilities over the window `[start, start + len)`;
    /// 0 when the window leaves the string. Uses plain multiplication — for
    /// long windows prefer the index layer's cumulative log array.
    pub fn window_prob(&self, start: usize, len: usize) -> f64 {
        if start + len > self.probs.len() {
            return 0.0;
        }
        self.probs[start..start + len].iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banana() -> SpecialUncertainString {
        SpecialUncertainString::new(b"banana".to_vec(), vec![0.4, 0.7, 0.5, 0.8, 0.9, 0.6]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(SpecialUncertainString::new(b"ab".to_vec(), vec![0.5]).is_err());
        assert!(SpecialUncertainString::new(b"a".to_vec(), vec![0.0]).is_err());
        assert!(SpecialUncertainString::new(b"a".to_vec(), vec![1.1]).is_err());
        assert!(SpecialUncertainString::new(Vec::new(), Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn figure_5_cumulative_products() {
        // C = 0.4, 0.28, 0.14, 0.112, 0.1008, 0.06048 (paper rounds to 2dp).
        let x = banana();
        let mut c = 1.0;
        let expected = [0.4, 0.28, 0.14, 0.112, 0.1008, 0.060_48];
        for (i, e) in expected.iter().enumerate() {
            c *= x.prob_at(i);
            assert!((c - e).abs() < 1e-9, "C[{i}]");
        }
    }

    #[test]
    fn out_of_bounds_window() {
        let x = banana();
        assert_eq!(x.window_prob(4, 3), 0.0);
        assert_eq!(x.window_prob(6, 1), 0.0);
        assert_eq!(x.window_prob(0, 0), 1.0);
    }
}
