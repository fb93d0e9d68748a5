//! The cumulative probability array `C` (§4.1), in log space.
//!
//! The paper stores `C[j] = Π_{i≤j} pr(cᵢ)` and evaluates any window as
//! `C[i+j-1] / C[i-1]`. Products of hundreds of probabilities underflow
//! `f64`, so we store cumulative *log* probabilities and evaluate windows by
//! subtraction — a monotone transform, so every comparison and every RMQ
//! argmax is unchanged. Separator positions contribute 0 to the sums.
//!
//! A snapshot does not store the sums: a load runs [`CumulativeLogProb::new`]
//! over the build's probabilities again, so its windows are bit-identical.
//!
//! # The window contract
//!
//! `C` holds the prefix sums and nothing else: [`CumulativeLogProb::window`]
//! is one subtraction, and its caller guarantees a window that stays inside
//! the array and crosses no separator. Every query meets that by
//! construction — each slot of a pattern's suffix range starts with the
//! pattern, which holds no separator byte — and the substrate's
//! `ScoredText::window` checks it in debug builds against the text. Reads
//! that may meet a separator (champion values at build and load time, a
//! link's capped depth) go through the slot's run length, which the text's
//! bytes give; the separators themselves are the text's, counted nowhere
//! here.

use ustr_uncertain::canon;

/// Cumulative log-probability array.
#[derive(Debug)]
pub struct CumulativeLogProb {
    /// `prefix[i]` = Σ log(prob) over the first `i` positions.
    prefix: Box<[f64]>,
}

impl CumulativeLogProb {
    /// Builds from per-position probabilities; `is_sentinel(i)` marks
    /// separator positions (their probability is ignored).
    #[allow(clippy::float_arithmetic, reason = "prefix sums of canonical ln p")]
    pub fn new(probs: &[f64], is_sentinel: impl Fn(usize) -> bool) -> Self {
        let mut sum = 0.0f64;
        let sums = probs.iter().enumerate().map(|(i, &p)| {
            if !is_sentinel(i) {
                debug_assert!(canon::is_positive_prob(p), "probabilities must be positive");
                sum += canon::ln(p);
            }
            sum
        });
        // An exact-size iterator: collected straight into one allocation.
        Self {
            prefix: std::iter::once(0.0).chain(sums).collect(),
        }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Log probability of the window `[start, start + len)`, which must lie
    /// inside the array and cross no separator (see the module docs); 0
    /// (= log 1) for the empty window.
    #[inline]
    #[allow(clippy::float_arithmetic, reason = "a window of the prefix sums")]
    pub fn window(&self, start: usize, len: usize) -> f64 {
        self.prefix[start + len] - self.prefix[start]
    }

    /// The prefix sums themselves: `window(start, len)` is
    /// `prefix()[start + len] - prefix()[start]`.
    pub(crate) fn prefix(&self) -> &[f64] {
        &self.prefix
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.prefix)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "independent expected values")]

    use super::*;

    #[test]
    fn windows_match_direct_products() {
        // Figure 5's special string: probabilities of "banana".
        let probs = [0.4, 0.7, 0.5, 0.8, 0.9, 0.6];
        let cum = CumulativeLogProb::new(&probs, |_| false);
        for start in 0..probs.len() {
            for len in 0..=probs.len() - start {
                let direct: f64 = probs[start..start + len].iter().product();
                assert!(
                    (cum.window(start, len).exp() - direct).abs() < 1e-9,
                    "window({start},{len})"
                );
            }
        }
    }

    #[test]
    fn separators_add_nothing_to_the_sums() {
        // probs: a b | c d  (index 2 is a separator; its 0.25 is ignored)
        let probs = [0.5, 0.5, 0.25, 0.5, 0.5];
        let cum = CumulativeLogProb::new(&probs, |i| i == 2);
        assert_eq!(cum.prefix()[2], cum.prefix()[3]);
        assert!((cum.window(3, 2).exp() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn no_underflow_on_long_products() {
        // 10^5 positions at 0.9 — a plain f64 product would underflow to 0
        // near 7000 positions; log space keeps it exact.
        let probs = vec![0.9f64; 100_000];
        let cum = CumulativeLogProb::new(&probs, |_| false);
        let logp = cum.window(0, 100_000);
        assert!(logp.is_finite());
        assert!((logp - 100_000.0 * 0.9f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn empty_array() {
        let cum = CumulativeLogProb::new(&[], |_| false);
        assert_eq!(cum.len(), 0);
        assert_eq!(cum.window(0, 0), 0.0);
    }
}
