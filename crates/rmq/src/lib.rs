//! Range maximum/minimum query (RMQ) substrate for uncertain-string indexing.
//!
//! The indexes of Thankachan et al. (EDBT 2016) retrieve occurrences in
//! decreasing probability order by iterating *range maximum queries* over
//! per-pattern-length probability arrays (the paper's Lemma 1 cites the
//! Fischer–Heun 2n+o(n)-bit structure). The workspace does not implement
//! that succinct design: [`SampledRmq`] stands in for it wherever the value
//! array is discarded after construction (the per-length level arrays), and
//! [`BlockRmq`] where the values stay resident (suffix tree, approx index).
//! Both keep the O(1)-query, O(n)-space bounds Lemma 1 needs, in words
//! rather than bits. This crate provides:
//!
//! * [`SparseTable`] — classic O(n log n)-word, O(1)-query table; the top
//!   level of [`BlockRmq`], over 1/64 of its elements, and nowhere else.
//! * [`BlockRmq`] — O(n)-word hybrid with word-parallel in-block queries
//!   (one `u64` "visible extrema" mask per element) and a sparse table over
//!   per-block extrema. O(1) query with small constants.
//! * [`SampledRmq`] — accessor-based hybrid that stores only per-block
//!   champion indices and a [`BlockRmq`] over the champions' values (the
//!   underlying value array can be *discarded*, exactly as the paper
//!   discards the `C_i` arrays after building `RMQ_i`); partial blocks are
//!   rescanned through the accessor. A query reads up to two blocks;
//!   [`SampledRmq::report_at_least`], the levels' threshold report
//!   (Algorithm 2/4 in the paper), reads each value of its range at most
//!   once: both partial edge blocks, and a full middle block only when its
//!   champion reaches the threshold (the same split recursion, over the
//!   champions), so at most `block · (occ + 2)` reads in all.
//!   [`SampledRmq::best_first`], the levels' top-k, hands out the values of
//!   a range best first ([`BestFirst`]), reading each at most once as well:
//!   both partial edge blocks, and a full middle block only when its
//!   champion is the best value left, so drained it reads at most
//!   `block · (yielded + 2)`; its floor can be raised as it goes, and a
//!   yielded index put back at a worse value (top-k's lazy bounds).
//! * [`ThresholdReporter`] — the same recursion over any range-extreme
//!   oracle, in decreasing order within each subrange (the approximate
//!   index's links, over a [`BlockRmq`]).
//!
//! All structures are parameterised over a [`Direction`] (maximum or
//! minimum) and break ties toward the *leftmost* index, which the reporting
//! recursion relies on for determinism.

#![forbid(unsafe_code)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

mod block;
mod reporter;
mod sampled;
mod sparse;

pub use block::BlockRmq;
pub use reporter::{report_above, ThresholdReporter};
pub use sampled::{BestFirst, SampledRmq};
pub use sparse::SparseTable;

/// Whether a structure answers range-maximum or range-minimum queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Range maximum: `query` returns the index of the largest value.
    Max,
    /// Range minimum: `query` returns the index of the smallest value.
    Min,
}

impl Direction {
    /// Returns `true` when `candidate` should replace `incumbent` under this
    /// direction. Strict comparison, so earlier (leftmost) indices win ties.
    #[inline]
    pub fn beats(self, candidate: f64, incumbent: f64) -> bool {
        match self {
            Direction::Max => candidate > incumbent,
            Direction::Min => candidate < incumbent,
        }
    }

    /// The identity element for this direction (`-inf` for max, `+inf` for
    /// min), i.e. a value every real input beats.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            Direction::Max => f64::NEG_INFINITY,
            Direction::Min => f64::INFINITY,
        }
    }

    /// Whether `value` passes `threshold` in a report: `value >= threshold`
    /// for max, `value <= threshold` for min.
    #[inline]
    pub fn reaches(self, value: f64, threshold: f64) -> bool {
        match self {
            Direction::Max => value >= threshold,
            Direction::Min => value <= threshold,
        }
    }
}

/// Common interface implemented by every RMQ structure in this crate that
/// materialises its own values.
pub trait Rmq {
    /// Number of elements covered by the structure.
    fn len(&self) -> usize;

    /// Returns `true` when the structure covers no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the extreme value within the inclusive range `[l, r]`.
    ///
    /// # Panics
    ///
    /// Panics if `l > r` or `r >= self.len()`.
    fn query(&self, l: usize, r: usize) -> usize;
}

#[cfg(test)]
pub(crate) fn scan_extreme(values: &[f64], l: usize, r: usize, dir: Direction) -> usize {
    let mut best = l;
    for i in l + 1..=r {
        if dir.beats(values[i], values[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_beats_is_strict() {
        assert!(Direction::Max.beats(2.0, 1.0));
        assert!(!Direction::Max.beats(1.0, 1.0));
        assert!(Direction::Min.beats(1.0, 2.0));
        assert!(!Direction::Min.beats(2.0, 2.0));
    }

    #[test]
    fn direction_identity_loses_to_everything() {
        assert!(Direction::Max.beats(-1e300, Direction::Max.identity()));
        assert!(Direction::Min.beats(1e300, Direction::Min.identity()));
    }
}
