//! The general uncertain string (§3.1) with exact probability evaluation.

use std::fmt;

use crate::{canon, chars::UncertainChar, correlation::CorrelationSet, error::ModelError};

/// A character-level uncertain string: a sequence of per-position character
/// distributions, optionally with pairwise correlations between positions.
///
/// ```
/// use ustr_uncertain::UncertainString;
/// let s = UncertainString::parse("A:.3,B:.4,D:.3 | A:.6,C:.4 | D | A:.5,C:.5 | A").unwrap();
/// assert_eq!(s.len(), 5);
/// // Figure 1: world "aadaa" has probability .3*.6*1*.5*1 = .09
/// assert!((s.match_probability(b"ADAA", 1) - 0.3).abs() < 1e-12);
/// assert!((s.match_probability(b"BAD", 0) - 0.24).abs() < 1e-12);
/// assert_eq!(s.match_probability(b"Z", 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainString {
    positions: Vec<UncertainChar>,
    correlations: CorrelationSet,
}

impl UncertainString {
    /// Builds an uncertain string from validated positions.
    pub fn new(positions: Vec<UncertainChar>) -> Self {
        Self {
            positions,
            correlations: CorrelationSet::new(),
        }
    }

    /// Reassembles a string from parts that were validated together when it
    /// was first built.
    pub(crate) fn from_validated(
        positions: Vec<UncertainChar>,
        correlations: CorrelationSet,
    ) -> Self {
        Self {
            positions,
            correlations,
        }
    }

    /// Builds a fully deterministic uncertain string from plain bytes.
    pub fn deterministic(text: &[u8]) -> Self {
        Self::new(
            text.iter()
                .map(|&b| UncertainChar::deterministic(b))
                .collect(),
        )
    }

    /// Builds from raw `(char, prob)` rows, validating each position.
    pub fn from_rows(rows: Vec<Vec<(u8, f64)>>) -> Result<Self, ModelError> {
        let positions = rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| UncertainChar::new(row, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(positions))
    }

    /// Attaches correlations, validating that every referenced position and
    /// character exists.
    pub fn set_correlations(&mut self, correlations: CorrelationSet) -> Result<(), ModelError> {
        for c in correlations.iter() {
            for (pos, ch, role) in [
                (c.subject_pos, c.subject_char, "subject"),
                (c.cond_pos, c.cond_char, "condition"),
            ] {
                let valid = self.positions.get(pos).is_some_and(|u| u.prob_of(ch) > 0.0);
                if !valid {
                    return Err(ModelError::InvalidCorrelation {
                        detail: format!(
                            "{role} character {:?} does not occur at position {pos}",
                            ch as char
                        ),
                    });
                }
            }
        }
        self.correlations = correlations;
        Ok(())
    }

    /// The attached correlations.
    pub fn correlations(&self) -> &CorrelationSet {
        &self.correlations
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` for a zero-length string.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The distribution at position `i`.
    pub fn position(&self, i: usize) -> &UncertainChar {
        &self.positions[i]
    }

    /// All positions.
    pub fn positions(&self) -> &[UncertainChar] {
        &self.positions
    }

    /// Total number of `(char, prob)` pairs across all positions (the
    /// paper's "total number of characters", which can exceed `len`).
    pub fn total_choices(&self) -> usize {
        self.positions.iter().map(|p| p.num_choices()).sum()
    }

    /// Fraction of positions with more than one choice (the θ of §8.1).
    pub fn uncertain_fraction(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        let uncertain = self
            .positions
            .iter()
            .filter(|p| p.num_choices() > 1)
            .count();
        uncertain as f64 / self.positions.len() as f64
    }

    /// `true` when position `i` is deterministic *and* not the subject of any
    /// correlation (so its contribution to any window is exactly 1). The
    /// factor transform uses this to extend factors through deterministic
    /// runs instead of restarting at every position.
    pub fn is_effectively_deterministic(&self, i: usize) -> bool {
        let p = &self.positions[i];
        // A subject's character occurs at its position (`set_correlations`
        // refuses any other), so a certain position can only be the
        // subject of its one choice: one lookup, not a scan of the set.
        p.is_deterministic() && self.correlations.get(i, p.choices()[0].0).is_none()
    }

    /// Exact probability that the deterministic `pattern` occurs at `pos`
    /// (§3.2), honoring correlations per §3.3: conditioning characters inside
    /// the window `[pos, pos + |pattern|)` use the pattern's choice; those
    /// outside use the law of total probability. Returns 0 when the window
    /// leaves the string.
    pub fn match_probability(&self, pattern: &[u8], pos: usize) -> f64 {
        canon::exp(self.log_match_probability(pattern, pos))
    }

    /// Natural logarithm of [`Self::match_probability`] (−∞ for impossible
    /// matches); products over long windows stay representable in log space.
    pub fn log_match_probability(&self, pattern: &[u8], pos: usize) -> f64 {
        let m = pattern.len();
        if pos + m > self.positions.len() {
            return f64::NEG_INFINITY;
        }
        if m == 0 {
            return 0.0;
        }
        let mut log_p = 0.0;
        for (k, &ch) in pattern.iter().enumerate() {
            let i = pos + k;
            let base = self.positions[i].prob_of(ch);
            if base <= 0.0 {
                return f64::NEG_INFINITY;
            }
            let p = match self.correlations.get(i, ch) {
                Some(corr) => {
                    let j = corr.cond_pos;
                    let in_window = j >= pos && j < pos + m;
                    if in_window {
                        corr.effective_prob(Some(pattern[j - pos]), 0.0)
                    } else {
                        let marginal = self.positions[j].prob_of(corr.cond_char);
                        corr.effective_prob(None, marginal)
                    }
                }
                None => base,
            };
            if p <= 0.0 {
                return f64::NEG_INFINITY;
            }
            log_p += canon::ln(p);
        }
        log_p
    }

    /// The single most probable character at every position.
    pub fn most_probable_world(&self) -> Vec<u8> {
        self.positions.iter().map(|p| p.most_probable().0).collect()
    }

    /// Parses the text format: positions separated by `|`, choices by `,`,
    /// each choice `CHAR:PROB` or a bare `CHAR` (probability 1). Whitespace
    /// around tokens is ignored; probabilities accept the `.5` shorthand.
    pub fn parse(input: &str) -> Result<Self, ModelError> {
        let mut rows = Vec::new();
        for (idx, chunk) in input.split('|').enumerate() {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                return Err(ModelError::Parse {
                    detail: format!("position {idx} is empty"),
                });
            }
            let mut row = Vec::new();
            for token in chunk.split(',') {
                let token = token.trim();
                let (ch_str, prob) = match token.split_once(':') {
                    Some((c, p)) => {
                        let p = p.trim();
                        let normalized = if p.starts_with('.') {
                            format!("0{p}")
                        } else {
                            p.to_string()
                        };
                        let prob: f64 = normalized.parse().map_err(|_| ModelError::Parse {
                            detail: format!("bad probability {p:?} at position {idx}"),
                        })?;
                        (c.trim(), prob)
                    }
                    None => (token, 1.0),
                };
                let bytes = ch_str.as_bytes();
                if bytes.len() != 1 {
                    return Err(ModelError::Parse {
                        detail: format!(
                            "expected a single character, got {ch_str:?} at position {idx}"
                        ),
                    });
                }
                row.push((bytes[0], prob));
            }
            rows.push(row);
        }
        Self::from_rows(rows)
    }
}

impl fmt::Display for UncertainString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.positions.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            for (k, &(c, pr)) in p.choices().iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                if canon::is_certain(pr) && p.choices().len() == 1 {
                    write!(f, "{}", c as char)?;
                } else {
                    write!(f, "{}:{}", c as char, pr)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::Correlation;

    /// The string of Figure 1.
    fn figure_1() -> UncertainString {
        UncertainString::parse("a:.3,b:.4,d:.3 | a:.6,c:.4 | d | a:.5,c:.5 | a").unwrap()
    }

    #[test]
    fn parse_round_trips() {
        let s = figure_1();
        let text = s.to_string();
        let s2 = UncertainString::parse(&text).unwrap();
        assert_eq!(s2.len(), s.len());
        for i in 0..s.len() {
            assert_eq!(s.position(i), s2.position(i));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(UncertainString::parse("").is_err());
        assert!(UncertainString::parse("A | | B").is_err());
        assert!(UncertainString::parse("AB:0.5").is_err());
        assert!(UncertainString::parse("A:x").is_err());
        assert!(UncertainString::parse("A:1.5").is_err());
    }

    #[test]
    fn figure_1_world_probabilities() {
        let s = figure_1();
        // w1 = aadaa: .3*.6*1*.5*1 = .09
        assert!((s.match_probability(b"aadaa", 0) - 0.09).abs() < 1e-12);
        // w6 = badca? Figure labels aside: badca = .4*.6*1*.5*1 = .12
        assert!((s.match_probability(b"badaa", 0) - 0.12).abs() < 1e-12);
        // dcdca = .3*.4*1*.5*1 = .06
        assert!((s.match_probability(b"dcdca", 0) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn figure_3_at_query() {
        // The motivating example: "AT" at positions 7 and 9 (1-based) of the
        // At4g15440 fragment; position 9 has probability 0.5, position 7 only
        // 0.4 * 0.3 = 0.12.
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        // 0-based positions 6 and 8.
        assert!((s.match_probability(b"AT", 6) - 0.4 * 0.1).abs() < 1e-12);
        assert!((s.match_probability(b"AT", 8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_bounds_window_has_zero_probability() {
        let s = figure_1();
        assert_eq!(s.match_probability(b"aa", 4), 0.0);
        assert_eq!(s.match_probability(b"a", 5), 0.0);
        assert_eq!(s.match_probability(b"", 5), 1.0);
    }

    #[test]
    fn sfpq_example_from_section_3_2() {
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        // "SFPQ has probability of occurrence 0.7 × 1 × 1 × 0.5 = 0.35 at
        // position 2" (1-based) — 0-based position 1.
        assert!((s.match_probability(b"SFPQ", 1) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn correlation_inside_and_outside_window() {
        // Figure 4: S[1]=e:.6,f:.4; S[2]=q:1; S[3]=z with base prob
        // (placeholder .36 = marginal) correlated with e at S[1].
        let mut s = UncertainString::parse("e:.6,f:.4 | q | z:.36").unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 2,
                subject_char: b'z',
                cond_pos: 0,
                cond_char: b'e',
                p_present: 0.3,
                p_absent: 0.4,
            })
            .unwrap();
        s.set_correlations(corrs).unwrap();
        // eqz: conditioning char chosen.
        assert!((s.match_probability(b"eqz", 0) - 0.6 * 1.0 * 0.3).abs() < 1e-12);
        // fqz: conditioning char not chosen.
        assert!((s.match_probability(b"fqz", 0) - 0.4 * 1.0 * 0.4).abs() < 1e-12);
        // qz: conditioning position outside the window → total probability.
        let expected = 1.0 * (0.6 * 0.3 + 0.4 * 0.4);
        assert!((s.match_probability(b"qz", 1) - expected).abs() < 1e-12);
    }

    #[test]
    fn correlation_validation() {
        let mut s = UncertainString::parse("a:.5,b:.5 | c").unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 1,
                subject_char: b'c',
                cond_pos: 0,
                cond_char: b'z', // not a choice at position 0
                p_present: 0.5,
                p_absent: 0.5,
            })
            .unwrap();
        assert!(s.set_correlations(corrs).is_err());
    }

    #[test]
    fn effectively_deterministic_accounts_for_correlations() {
        let mut s = UncertainString::parse("a:.5,b:.5 | c | d").unwrap();
        assert!(!s.is_effectively_deterministic(0));
        assert!(s.is_effectively_deterministic(1));
        // Subjects at 1 and 0; position 2 only conditions.
        let mut corrs = CorrelationSet::new();
        for (subject_pos, subject_char, cond_pos, cond_char) in
            [(1, b'c', 0, b'a'), (0, b'b', 2, b'd')]
        {
            corrs
                .add(Correlation {
                    subject_pos,
                    subject_char,
                    cond_pos,
                    cond_char,
                    p_present: 0.9,
                    p_absent: 0.8,
                })
                .unwrap();
        }
        s.set_correlations(corrs).unwrap();
        assert!(!s.is_effectively_deterministic(1), "correlation subject");
        assert!(
            s.is_effectively_deterministic(2),
            "a condition, not a subject"
        );
    }

    #[test]
    fn deterministic_constructor() {
        let s = UncertainString::deterministic(b"banana");
        assert_eq!(s.len(), 6);
        assert!((s.match_probability(b"nan", 2) - 1.0).abs() < 1e-12);
        assert_eq!(s.match_probability(b"nab", 2), 0.0);
        assert_eq!(s.uncertain_fraction(), 0.0);
        assert_eq!(s.most_probable_world(), b"banana");
    }

    #[test]
    fn total_choices_counts_pairs() {
        assert_eq!(figure_1().total_choices(), 9); // the paper's example: 9 characters, 5 positions
    }
}
