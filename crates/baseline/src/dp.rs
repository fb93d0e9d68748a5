//! Exact containment probability via a KMP-automaton dynamic program.
//!
//! This is the algorithmic (non-indexed) approach of Li et al. \[20\]: for a
//! pattern `p` and an uncertain string `S`, compute in O(n·m·σ) time the
//! probability that at least one possible world of `S` contains `p`.
//! Occurrences overlap, so this is *not* `1 − Π(1 − prᵢ)`; the DP tracks the
//! distribution over KMP automaton states (longest matched prefix of `p`)
//! with an absorbing accept state.
//!
//! Correlations are not supported by this DP (the automaton state would have
//! to be augmented per correlation); it assumes independent positions, which
//! is how the paper's experiments are set up.

// A reference evaluator shares none of the kernel's arithmetic, so a
// differential test against it is not circular (INVARIANTS.md §1).
#![allow(clippy::float_arithmetic, reason = "an independent reference")]

use ustr_uncertain::UncertainString;

/// KMP failure function: `pi[k]` = length of the longest proper border of
/// `pattern[..=k]`.
pub fn prefix_function(pattern: &[u8]) -> Vec<usize> {
    let m = pattern.len();
    let mut pi = vec![0usize; m];
    let mut k = 0usize;
    for i in 1..m {
        while k > 0 && pattern[i] != pattern[k] {
            k = pi[k - 1];
        }
        if pattern[i] == pattern[k] {
            k += 1;
        }
        pi[i] = k;
    }
    pi
}

/// KMP transition: from state `q` (characters matched) on character `c`.
pub fn kmp_delta(pattern: &[u8], pi: &[usize], mut q: usize, c: u8) -> usize {
    debug_assert!(q < pattern.len());
    while q > 0 && pattern[q] != c {
        q = pi[q - 1];
    }
    if pattern[q] == c {
        q + 1
    } else {
        0
    }
}

/// Probability that `pattern` occurs (at least once, anywhere) in `s`,
/// assuming independent positions. Returns 0 for the empty pattern on an
/// empty string convention: the empty pattern trivially occurs (probability
/// 1) whenever `s` is non-trivial; we define it as 1 always.
pub fn containment_probability(s: &UncertainString, pattern: &[u8]) -> f64 {
    let m = pattern.len();
    if m == 0 {
        return 1.0;
    }
    let n = s.len();
    if m > n {
        return 0.0;
    }
    debug_assert!(
        s.correlations().is_empty(),
        "containment DP assumes independent positions"
    );
    let pi = prefix_function(pattern);

    // Dense transition table: states 0..m over the characters that actually
    // occur in the string keeps the inner loop branch-free.
    let mut delta = vec![[0u32; 256]; m];
    for (q, row) in delta.iter_mut().enumerate() {
        for c in 0..=255u8 {
            row[c as usize] = kmp_delta(pattern, &pi, q, c) as u32;
        }
    }

    let mut dist = vec![0.0f64; m + 1];
    dist[0] = 1.0;
    let mut accepted = 0.0f64;
    let mut next = vec![0.0f64; m + 1];
    for i in 0..n {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut listed_mass = 0.0f64;
        for &(c, p) in s.position(i).choices() {
            listed_mass += p;
            for q in 0..m {
                if dist[q] > 0.0 {
                    next[delta[q][c as usize] as usize] += dist[q] * p;
                }
            }
        }
        // Unlisted residual mass behaves as a character matching nothing:
        // the automaton falls back to state 0.
        let residual = (1.0 - listed_mass).max(0.0);
        if residual > 0.0 {
            let live: f64 = dist[..m].iter().sum();
            next[0] += live * residual;
        }
        accepted += next[m];
        next[m] = 0.0; // absorb
        std::mem::swap(&mut dist, &mut next);
    }
    accepted.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_function_known_values() {
        assert_eq!(prefix_function(b"abcabd"), vec![0, 0, 0, 1, 2, 0]);
        assert_eq!(prefix_function(b"aaaa"), vec![0, 1, 2, 3]);
        assert_eq!(prefix_function(b"ababaa"), vec![0, 0, 1, 2, 3, 1]);
        assert_eq!(prefix_function(b"x"), vec![0]);
    }

    #[test]
    fn delta_walks_the_pattern() {
        let p = b"abab";
        let pi = prefix_function(p);
        let mut q = 0;
        for &c in b"ababab" {
            q = kmp_delta(p, &pi, q.min(p.len() - 1), c);
            // After consuming "abab" the state reaches 4 (match).
        }
        assert_eq!(kmp_delta(p, &pi, 0, b'a'), 1);
        assert_eq!(kmp_delta(p, &pi, 1, b'b'), 2);
        assert_eq!(kmp_delta(p, &pi, 2, b'a'), 3);
        assert_eq!(kmp_delta(p, &pi, 3, b'b'), 4);
        assert_eq!(kmp_delta(p, &pi, 3, b'a'), 1);
        assert_eq!(kmp_delta(p, &pi, 2, b'c'), 0);
        let _ = q;
    }

    #[test]
    fn deterministic_string_containment_is_binary() {
        let s = UncertainString::deterministic(b"abracadabra");
        assert_eq!(containment_probability(&s, b"cad"), 1.0);
        assert_eq!(containment_probability(&s, b"xyz"), 0.0);
        assert_eq!(containment_probability(&s, b"abra"), 1.0);
    }

    #[test]
    fn matches_possible_world_enumeration() {
        let s = UncertainString::parse("a:.5,b:.5 | a:.5,b:.5 | a:.5,b:.5 | a:.5,b:.5").unwrap();
        for pattern in [&b"ab"[..], b"aa", b"aba", b"bb", b"abab"] {
            let worlds = s.possible_worlds().unwrap();
            let expected: f64 = worlds
                .iter()
                .filter(|(w, _)| w.windows(pattern.len()).any(|win| win == pattern))
                .map(|&(_, p)| p)
                .sum();
            let got = containment_probability(&s, pattern);
            assert!(
                (got - expected).abs() < 1e-9,
                "pattern {:?}: got {got}, expected {expected}",
                String::from_utf8_lossy(pattern)
            );
        }
    }

    #[test]
    fn overlapping_occurrences_are_not_double_counted() {
        // "aa" in "aaa" with all-probable 'a': containment is less than the
        // sum of per-position probabilities (2 × .81).
        let s = UncertainString::parse("a:.9,b:.1 | a:.9,b:.1 | a:.9,b:.1").unwrap();
        let contain = containment_probability(&s, b"aa");
        // Exact via enumeration: worlds containing "aa" are aaa (.729),
        // aab (.081), baa (.081) → .891.
        assert!((contain - 0.891).abs() < 1e-9);
    }

    #[test]
    fn residual_mass_goes_to_state_zero() {
        // Position 1 has mass .6 listed; the remaining .4 is "other".
        let s = UncertainString::parse("a | a:.6 | a").unwrap();
        // "aaa" requires the listed 'a' at position 1.
        assert!((containment_probability(&s, b"aaa") - 0.6).abs() < 1e-12);
        // "aa" occurs iff position 1 is 'a' (either window).
        assert!((containment_probability(&s, b"aa") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_and_oversized() {
        let s = UncertainString::deterministic(b"ab");
        assert_eq!(containment_probability(&s, b""), 1.0);
        assert_eq!(containment_probability(&s, b"abc"), 0.0);
    }
}
