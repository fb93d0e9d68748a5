//! The Lemma-2 transformation (§5.1): reduce a general uncertain string to a
//! special uncertain string by concatenating *extended maximal factors*.
//!
//! A **maximal factor** at position `i` w.r.t. `τmin` (Definition 2) is a
//! maximal-length deterministic string that, aligned at `i`, has occurrence
//! probability ≥ `τmin`. Concatenating, for enough start positions, all
//! maximal factors — each followed by a separator — yields a special
//! uncertain string `X` such that every deterministic substring of `S` with
//! occurrence probability ≥ `τmin` occurs inside `X`, with the `Pos` array
//! mapping `X`-offsets back to `S`-offsets.
//!
//! **Extension optimization** (our realisation of Amir et al.'s *extended*
//! maximal factors): a factor start is only placed at position `i` when
//! `i = 0` or position `i−1` is not effectively deterministic (single
//! character, probability 1, not a correlation subject). Runs of
//! deterministic characters thus extend factors leftwards instead of
//! spawning suffix-sharing restarts. Soundness: if `p` matches at `j` with
//! probability ≥ τmin and `r ≤ j` is the latest start, every character in
//! `[r, j)` has probability exactly 1, so the factor at `r` following `p`'s
//! choices keeps all its prefixes at probability ≥ τmin and extends through
//! the whole occurrence.
//!
//! **Correlation handling**: during enumeration a correlated character
//! contributes `max(pr⁺, pr⁻)` — an upper bound on every conditioning
//! outcome (the marginal is a convex combination). Stored factor
//! probabilities are therefore *upper bounds* on true window probabilities;
//! the index layer uses them for RMQ ordering/pruning (never missing a true
//! match) and re-verifies candidates exactly against the original string.

use std::ops::Range;

use crate::{
    canon, error::ModelError, special::SpecialUncertainString, split, string::UncertainString,
};

/// Separator byte between factors in the transformed string. Reserved: it
/// may not appear as an uncertain-string character.
pub const SENTINEL: u8 = 0;

/// `Pos` value marking separator positions.
pub const NO_POSITION: u32 = u32::MAX;

/// Longest text an index can be built over. Text positions, source
/// positions and suffix-array slots (one more than the text has characters)
/// are stored as `u32`, and `u32::MAX` itself is [`NO_POSITION`].
pub const MAX_TEXT_LEN: usize = u32::MAX as usize - 1;

/// Result of the Lemma-2 transformation.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The special uncertain string `X` (factors joined by [`SENTINEL`]
    /// positions carrying probability 1).
    pub special: SpecialUncertainString,
    /// `pos[k]` = position in the source string of the k-th character of
    /// `X`; [`NO_POSITION`] at separators.
    pub pos: Vec<u32>,
    /// Number of factors emitted.
    pub num_factors: usize,
}

impl Transformed {
    /// Output length (characters of `X`, separators included).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Returns `true` when no factors were emitted.
    pub fn is_empty(&self) -> bool {
        self.num_factors == 0
    }

    /// Source position of `X`-offset `k`, or `None` at separators.
    #[inline]
    pub fn source_pos(&self, k: usize) -> Option<usize> {
        match self.pos[k] {
            NO_POSITION => None,
            p => Some(p as usize),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.special.chars().len()
            + std::mem::size_of_val(self.special.probs())
            + self.pos.capacity() * std::mem::size_of::<u32>()
    }
}

/// Transforms `s` into a special uncertain string w.r.t. `tau_min`
/// (see the module documentation). `tau_min` must lie in `(0, 1]`.
///
/// ```
/// use ustr_uncertain::{transform, UncertainString};
/// let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
/// let t = transform(&s, 0.1).unwrap();
/// // Every probable substring of s occurs in the transformed text, e.g. "QPP".
/// let text = t.special.chars();
/// assert!(text.windows(3).any(|w| w == b"QPP"));
/// ```
///
/// The paper bounds the output by O((1/τmin)²·n); one that would outgrow
/// [`MAX_TEXT_LEN`] is [`ModelError::TransformTooLarge`].
pub fn transform(s: &UncertainString, tau_min: f64) -> Result<Transformed, ModelError> {
    transform_capped(s, tau_min, MAX_TEXT_LEN)
}

/// Source positions below which [`transform`] runs on one thread.
const SPLIT_FLOOR: usize = 4096;

/// [`transform`], failing once the output exceeds `limit` characters
/// (checked per emitted factor). Factor starts are independent, so a long
/// string runs its first half of starts on this thread and its second half
/// on another, and the two outputs are concatenated in start order: the
/// same output, and the same error, as one thread produces.
fn transform_capped(
    s: &UncertainString,
    tau_min: f64,
    limit: usize,
) -> Result<Transformed, ModelError> {
    if !(tau_min > 0.0 && tau_min <= 1.0) {
        return Err(ModelError::InvalidThreshold { value: tau_min });
    }
    let n = s.len();
    // `pos` stores source positions as `u32` too.
    if n > MAX_TEXT_LEN {
        return Err(ModelError::TransformTooLarge {
            produced: n,
            limit: MAX_TEXT_LEN,
        });
    }
    let log_tau = canon::ln(tau_min);
    let factors = |starts| Factors::enumerate(s, starts, log_tau, limit);
    let out = if split::worth_splitting(n, SPLIT_FLOOR) {
        let (mut out, later) = split::join(true, || factors(0..n / 2), || factors(n / 2..n));
        out.append(later);
        out
    } else {
        factors(0..n)
    };
    if out.chars.len() > limit {
        // One thread stops at the first factor whose separator lands past
        // the limit: report the length it had then.
        let past = out.chars[limit..].iter().position(|&c| c == SENTINEL);
        return Err(ModelError::TransformTooLarge {
            produced: limit + 1 + past.expect("every factor ends with a separator"),
            limit,
        });
    }
    Ok(Transformed {
        special: SpecialUncertainString::from_raw(out.chars, out.probs),
        pos: out.pos,
        num_factors: out.count,
    })
}

/// One character choice on a factor path: the byte, its (upper-bound)
/// probability, and that probability's `canon::ln`, computed once.
#[derive(Clone, Copy)]
struct Choice {
    c: u8,
    p: f64,
    ln_p: f64,
}

/// The factors of a run of start positions, in the transformed string's
/// layout.
#[derive(Default)]
struct Factors {
    chars: Vec<u8>,
    probs: Vec<f64>,
    pos: Vec<u32>,
    count: usize,
}

impl Factors {
    /// The maximal factors of every start in `starts`, in start order —
    /// stopping after the first factor that takes the output past `limit`
    /// characters.
    fn enumerate(s: &UncertainString, starts: Range<usize>, log_tau: f64, limit: usize) -> Self {
        let n = s.len();
        let mut out = Self::default();
        // Iterative DFS over viable character choices. `path` is the current
        // path; `siblings` holds the untried siblings of every node on it in
        // one stack, those at depth k from `open[k]` up to `open[k + 1]`.
        let mut path: Vec<Choice> = Vec::new();
        let mut siblings: Vec<Choice> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        for start in starts {
            if start > 0 && s.is_effectively_deterministic(start - 1) {
                continue; // covered by the factor extending through position start-1
            }
            let mut log_p = 0.0f64;
            'dfs: loop {
                let q = start + path.len();
                let level = siblings.len();
                if q < n {
                    for &(c, base) in s.position(q).choices() {
                        // Upper-bound probability of choosing `c` at `q` (see
                        // the module docs for why correlated characters use
                        // max(pr+, pr-)).
                        let p = s.correlations().upper_bound(q, c, base);
                        if p > 0.0 {
                            let ln_p = canon::ln(p);
                            if canon::log_meets_threshold(log_p + ln_p, log_tau) {
                                siblings.push(Choice { c, p, ln_p });
                            }
                        }
                    }
                }
                // The last viable choice first, its siblings kept for later.
                if siblings.len() > level {
                    let next = siblings.pop().expect("a viable choice");
                    open.push(level);
                    path.push(next);
                    log_p += next.ln_p;
                    continue;
                }
                // No viable extension: the current path is a maximal factor.
                if !path.is_empty() {
                    out.emit(start, &path);
                    if out.chars.len() > limit {
                        return out;
                    }
                }
                // Backtrack to the deepest level with an untried sibling.
                loop {
                    let Some(last) = path.pop() else {
                        break 'dfs;
                    };
                    log_p -= last.ln_p;
                    let level = *open.last().expect("one open level per path step");
                    if siblings.len() > level {
                        let next = siblings.pop().expect("an untried sibling");
                        path.push(next);
                        log_p += next.ln_p;
                        continue 'dfs;
                    }
                    open.pop();
                }
            }
        }
        out
    }

    /// Appends the factor `path` read from source position `start`, and its
    /// separator.
    fn emit(&mut self, start: usize, path: &[Choice]) {
        for (k, choice) in path.iter().enumerate() {
            self.chars.push(choice.c);
            self.probs.push(choice.p);
            self.pos.push((start + k) as u32);
        }
        self.chars.push(SENTINEL);
        self.probs.push(1.0);
        self.pos.push(NO_POSITION);
        self.count += 1;
    }

    /// Appends `later`, the factors of the starts after this run's.
    fn append(&mut self, later: Self) {
        self.chars.extend_from_slice(&later.chars);
        self.probs.extend_from_slice(&later.probs);
        self.pos.extend_from_slice(&later.pos);
        self.count += later.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every substring of every world with probability ≥ τmin must occur in
    /// the transformed text at a matching `Pos` alignment (Lemma 2).
    fn assert_conservation(s: &UncertainString, tau_min: f64) {
        let t = transform(s, tau_min).unwrap();
        let text = t.special.chars();
        for start in 0..s.len() {
            for len in 1..=s.len() - start {
                // Enumerate all deterministic strings for this window.
                let window_rows: Vec<Vec<u8>> = (start..start + len)
                    .map(|i| s.position(i).choices().iter().map(|&(c, _)| c).collect())
                    .collect();
                let mut stack = vec![Vec::<u8>::new()];
                while let Some(prefix) = stack.pop() {
                    if prefix.len() == len {
                        let p = s.match_probability(&prefix, start);
                        if p >= tau_min - 1e-12 {
                            // Must appear in X aligned at source position `start`.
                            let found = (0..text.len().saturating_sub(len - 1)).any(|k| {
                                text[k..k + len] == prefix[..]
                                    && t.source_pos(k) == Some(start)
                                    && (0..len).all(|d| t.source_pos(k + d) == Some(start + d))
                            });
                            assert!(
                                found,
                                "substring {:?} at {} (prob {}) missing from transform",
                                String::from_utf8_lossy(&prefix),
                                start,
                                p
                            );
                        }
                        continue;
                    }
                    for &c in &window_rows[prefix.len()] {
                        let mut next = prefix.clone();
                        next.push(c);
                        stack.push(next);
                    }
                }
            }
        }
    }

    #[test]
    fn conservation_on_paper_figure_10_string() {
        // S = Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1
        let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
        assert_conservation(&s, 0.1);
        assert_conservation(&s, 0.3);
    }

    #[test]
    fn conservation_on_deterministic_runs() {
        let s = UncertainString::parse("A | B | C:.5,D:.5 | E | F | G:.9,H:.1").unwrap();
        assert_conservation(&s, 0.2);
    }

    #[test]
    fn deterministic_string_transforms_to_itself() {
        let s = UncertainString::deterministic(b"banana");
        let t = transform(&s, 0.5).unwrap();
        assert_eq!(t.num_factors, 1);
        assert_eq!(t.special.chars(), b"banana\0");
        assert_eq!(t.pos, vec![0, 1, 2, 3, 4, 5, NO_POSITION]);
    }

    #[test]
    fn factors_are_prefix_free_per_start() {
        // Maximal factors starting at one position can never be prefixes of
        // each other (maximality), hence they are ≤ 1/τmin many.
        let s = UncertainString::parse("A:.5,B:.5 | C:.5,D:.5 | E:.5,F:.5 | G:.5,H:.5").unwrap();
        let t = transform(&s, 0.25).unwrap();
        // From position 0: prefixes of length 2 have prob .25 ≥ τ; length 3
        // drops to .125 < τ. So factors from start 0 are the 4 two-char
        // combos; similar for starts 1, 2; start 3: single chars.
        let text = t.special.chars();
        let factors: Vec<&[u8]> = text
            .split(|&b| b == SENTINEL)
            .filter(|f| !f.is_empty())
            .collect();
        assert_eq!(t.num_factors, factors.len());
        for f in &factors {
            assert!(f.len() <= 2);
        }
        assert_eq!(factors.iter().filter(|f| f.len() == 2).count(), 12);
    }

    #[test]
    fn no_factor_when_probability_below_threshold() {
        let s = UncertainString::parse("A:.1,B:.1 | C:.05,D:.05").unwrap();
        let t = transform(&s, 0.2).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let s = UncertainString::deterministic(b"x");
        assert!(matches!(
            transform(&s, 0.0),
            Err(ModelError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            transform(&s, 1.5),
            Err(ModelError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn output_limit_enforced() {
        let s = UncertainString::parse("A:.5,B:.5 | C:.5,D:.5 | E:.5,F:.5").unwrap();
        assert!(matches!(
            transform_capped(&s, 0.1, 4),
            Err(ModelError::TransformTooLarge { .. })
        ));
    }

    /// A limit that falls in the second half of the starts fails as one
    /// thread fails: after the factor that crossed it, with the length the
    /// output had then.
    #[test]
    fn a_limit_in_the_second_half_fails_as_one_thread_fails() {
        let spec: Vec<&str> = (0..2 * SPLIT_FLOOR)
            .map(|i| if i % 3 == 0 { "A:.5,B:.5" } else { "C" })
            .collect();
        let s = UncertainString::parse(&spec.join(" | ")).unwrap();
        let full = transform(&s, 0.1).unwrap().len();
        for limit in [full * 3 / 4, full - 1] {
            let serial = Factors::enumerate(&s, 0..s.len(), canon::ln(0.1), limit);
            assert!(serial.chars.len() > limit);
            let err = transform_capped(&s, 0.1, limit).unwrap_err();
            assert_eq!(
                err,
                ModelError::TransformTooLarge {
                    produced: serial.chars.len(),
                    limit
                }
            );
        }
    }

    #[test]
    fn deterministic_interior_positions_do_not_restart_factors() {
        // "A B C" fully deterministic: only one start (position 0).
        let s = UncertainString::deterministic(b"ABC");
        let t = transform(&s, 0.9).unwrap();
        assert_eq!(t.num_factors, 1);
        // Prefixing with an uncertain position adds starts at 0 and 1 only.
        let s = UncertainString::parse("X:.5,Y:.5 | A | B | C").unwrap();
        let t = transform(&s, 0.4).unwrap();
        // Start 0: factors XABC and YABC; start 1: ABC (positions 2,3 are
        // covered by the factor through the deterministic run).
        let text = t.special.chars();
        let factors: Vec<&[u8]> = text
            .split(|&b| b == SENTINEL)
            .filter(|f| !f.is_empty())
            .collect();
        assert_eq!(factors.len(), 3);
        assert!(factors.contains(&&b"XABC"[..]));
        assert!(factors.contains(&&b"YABC"[..]));
        assert!(factors.contains(&&b"ABC"[..]));
    }

    #[test]
    fn empty_string() {
        let s = UncertainString::new(Vec::new());
        let t = transform(&s, 0.5).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn pos_maps_every_character() {
        let s = UncertainString::parse("A:.6,B:.4 | C | D:.5,E:.5").unwrap();
        let t = transform(&s, 0.2).unwrap();
        for k in 0..t.len() {
            match t.source_pos(k) {
                Some(p) => {
                    assert!(p < s.len());
                    // The character at X[k] must be a choice at S[p].
                    let c = t.special.char_at(k);
                    assert!(s.position(p).prob_of(c) > 0.0);
                }
                None => assert_eq!(t.special.char_at(k), SENTINEL),
            }
        }
    }

    #[test]
    fn correlated_subjects_use_upper_bound() {
        use crate::correlation::{Correlation, CorrelationSet};
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
        let t = transform(&s, 0.2).unwrap();
        // z's upper bound is .4: the factor "eqz" survives τ=.2 via
        // .6*1*.4 = .24 even though the true conditional is .6*1*.3 = .18.
        let text = t.special.chars();
        assert!(text.windows(3).any(|w| w == b"eqz"));
        // The stored probability for z inside that factor is the bound .4.
        let k = (0..text.len() - 2)
            .find(|&k| &text[k..k + 3] == b"eqz")
            .unwrap();
        assert!((t.special.prob_at(k + 2) - 0.4).abs() < 1e-12);
    }
}
