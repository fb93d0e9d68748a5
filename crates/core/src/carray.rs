//! The cumulative probability array `C` (§4.1), in log space.
//!
//! The paper stores `C[j] = Π_{i≤j} pr(cᵢ)` and evaluates any window as
//! `C[i+j-1] / C[i-1]`. Products of hundreds of probabilities underflow
//! `f64`, so we store cumulative *log* probabilities and evaluate windows by
//! subtraction — a monotone transform, so every comparison and every RMQ
//! argmax is unchanged. Separator positions contribute 0 to the sums and are
//! tracked separately so any window crossing one evaluates to −∞.

use std::sync::Arc;

use ustr_uncertain::canon;

/// Cumulative log-probability array with separator tracking. A clone shares
/// the arrays.
#[derive(Debug, Clone)]
pub struct CumulativeLogProb {
    /// `prefix[i]` = Σ log(prob) over the first `i` positions.
    prefix: Arc<[f64]>,
    /// `sentinels[i]` = number of separator positions among the first `i`.
    sentinels: Arc<[u32]>,
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
        // Exact-size iterators: each array is collected straight into its
        // shared allocation.
        Self::counting(std::iter::once(0.0).chain(sums).collect(), is_sentinel)
    }

    /// Reassembles from the prefix sums (`len + 1` entries, never empty) —
    /// what snapshots store, so window evaluations stay bit-identical after
    /// a load — recounting the separators as [`Self::new`] counts them.
    pub fn from_prefix(prefix: Vec<f64>, is_sentinel: impl Fn(usize) -> bool) -> Self {
        Self::counting(prefix.into(), is_sentinel)
    }

    fn counting(prefix: Arc<[f64]>, is_sentinel: impl Fn(usize) -> bool) -> Self {
        assert!(!prefix.is_empty(), "prefix sums start with the empty sum");
        let mut count = 0u32;
        let counts = (0..prefix.len() - 1).map(|i| {
            count += u32::from(is_sentinel(i));
            count
        });
        let sentinels = std::iter::once(0).chain(counts).collect();
        Self { prefix, sentinels }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Log probability of the window `[start, start + len)`: −∞ when the
    /// window leaves the array or crosses a separator; 0 (= log 1) for the
    /// empty window.
    #[inline]
    #[allow(clippy::float_arithmetic, reason = "a window of the prefix sums")]
    pub fn window(&self, start: usize, len: usize) -> f64 {
        let end = start + len;
        if end > self.len() {
            return f64::NEG_INFINITY;
        }
        if self.sentinels[end] != self.sentinels[start] {
            return f64::NEG_INFINITY;
        }
        self.prefix[end] - self.prefix[start]
    }

    /// The prefix sums themselves: `window(start, len)` of a window that
    /// crosses no separator is `prefix()[start + len] - prefix()[start]`.
    pub(crate) fn prefix(&self) -> &[f64] {
        &self.prefix
    }

    /// For every start `0..=len()`, the number of positions until the next
    /// separator (or the end of the array) — the longest valid window
    /// there: `window(start, len)` is finite exactly when
    /// `len <= run_lengths()[start]`. One backward pass.
    pub(crate) fn run_lengths(&self) -> Vec<u32> {
        let n = self.len();
        let mut run = vec![0u32; n + 1];
        for i in (0..n).rev() {
            if self.sentinels[i + 1] == self.sentinels[i] {
                run[i] = run[i + 1] + 1;
            }
        }
        run
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.prefix) + std::mem::size_of_val(&*self.sentinels)
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
        assert_eq!(cum.window(4, 3), f64::NEG_INFINITY, "out of bounds");
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
    fn sentinel_crossing_is_rejected() {
        // probs: a b | c d  (index 2 is a separator)
        let probs = [0.5, 0.5, 1.0, 0.5, 0.5];
        let cum = CumulativeLogProb::new(&probs, |i| i == 2);
        assert!(cum.window(0, 2).is_finite());
        assert_eq!(cum.window(0, 3), f64::NEG_INFINITY);
        assert_eq!(cum.window(1, 3), f64::NEG_INFINITY);
        assert!(cum.window(3, 2).is_finite());
        assert_eq!(cum.window(2, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn run_lengths_find_the_next_separator() {
        let probs = [0.5, 0.5, 1.0, 0.5, 1.0, 0.5];
        let cum = CumulativeLogProb::new(&probs, |i| i == 2 || i == 4);
        let run = cum.run_lengths();
        assert_eq!(run, [2, 1, 0, 1, 0, 1, 0]);
        for (start, &run) in run.iter().enumerate() {
            for len in 0..=probs.len() + 1 {
                assert_eq!(cum.window(start, len).is_finite(), len <= run as usize);
            }
        }
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
        assert_eq!(cum.window(0, 1), f64::NEG_INFINITY);
    }
}
