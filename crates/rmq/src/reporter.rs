//! Threshold-driven RMQ reporting: the query driver of Algorithms 2 and 4.
//!
//! Given a range-extreme oracle and a per-index value accessor, repeatedly
//! pop the extreme element of the current range; if it passes the threshold,
//! report it and recurse into both halves, otherwise prune the whole range.
//! Each report costs O(1) oracle queries, so total work is O(1 + occ) —
//! exactly the paper's recursion (`RecursiveRmq`).

use crate::Direction;

/// Iterator yielding `(index, value)` pairs for every element in the initial
/// range whose value passes the threshold, extreme-first within each subrange.
///
/// For [`Direction::Max`] an element passes when `value >= threshold`;
/// for [`Direction::Min`] when `value <= threshold`.
///
/// ```
/// use ustr_rmq::{Direction, ThresholdReporter};
/// let v = [0.1, 0.9, 0.3, 0.8, 0.05];
/// let hits: Vec<usize> = ThresholdReporter::new(
///     0,
///     v.len() - 1,
///     0.3,
///     Direction::Max,
///     |l, r| (l..=r).max_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap()).unwrap(),
///     |i| v[i],
/// )
/// .map(|(i, _)| i)
/// .collect();
/// assert_eq!(hits.first(), Some(&1)); // global max comes first
/// let mut sorted = hits.clone();
/// sorted.sort();
/// assert_eq!(sorted, vec![1, 2, 3]);
/// ```
pub struct ThresholdReporter<Q, V>
where
    Q: FnMut(usize, usize) -> usize,
    V: FnMut(usize) -> f64,
{
    stack: Vec<(usize, usize)>,
    threshold: f64,
    direction: Direction,
    query: Q,
    value: V,
}

impl<Q, V> ThresholdReporter<Q, V>
where
    Q: FnMut(usize, usize) -> usize,
    V: FnMut(usize) -> f64,
{
    /// Creates a reporter over the inclusive range `[l, r]`.
    ///
    /// `query(l, r)` must return the index of the extreme element in `[l, r]`
    /// (consistent with `direction`); `value(i)` returns the value used both
    /// for the threshold test and for the yielded pairs.
    pub fn new(
        l: usize,
        r: usize,
        threshold: f64,
        direction: Direction,
        query: Q,
        value: V,
    ) -> Self {
        let stack = if l <= r { vec![(l, r)] } else { Vec::new() };
        Self {
            stack,
            threshold,
            direction,
            query,
            value,
        }
    }
}

impl<Q, V> Iterator for ThresholdReporter<Q, V>
where
    Q: FnMut(usize, usize) -> usize,
    V: FnMut(usize) -> f64,
{
    type Item = (usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((l, r)) = self.stack.pop() {
            let m = (self.query)(l, r);
            debug_assert!((l..=r).contains(&m), "oracle returned index outside range");
            let v = (self.value)(m);
            if self.direction.reaches(v, self.threshold) {
                if m > l {
                    self.stack.push((l, m - 1));
                }
                if m < r {
                    self.stack.push((m + 1, r));
                }
                return Some((m, v));
            }
            // Extreme fails the threshold: the entire range is pruned.
        }
        None
    }
}

/// Convenience wrapper collecting all passing `(index, value)` pairs.
pub fn report_above<Q, V>(
    l: usize,
    r: usize,
    threshold: f64,
    direction: Direction,
    query: Q,
    value: V,
) -> Vec<(usize, f64)>
where
    Q: FnMut(usize, usize) -> usize,
    V: FnMut(usize) -> f64,
{
    ThresholdReporter::new(l, r, threshold, direction, query, value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockRmq, Rmq};

    fn max_oracle(v: &[f64]) -> impl FnMut(usize, usize) -> usize + '_ {
        move |l, r| {
            let mut best = l;
            for i in l + 1..=r {
                if v[i] > v[best] {
                    best = i;
                }
            }
            best
        }
    }

    #[test]
    fn reports_exactly_the_passing_set() {
        let v = [0.5, 0.1, 0.7, 0.2, 0.9, 0.4, 0.6];
        let mut got: Vec<usize> = report_above(0, 6, 0.5, Direction::Max, max_oracle(&v), |i| v[i])
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4, 6]);
    }

    #[test]
    fn first_report_is_the_global_extreme() {
        let v = [0.5, 0.1, 0.7, 0.2, 0.9, 0.4, 0.6];
        let first = ThresholdReporter::new(0, 6, 0.0, Direction::Max, max_oracle(&v), |i| v[i])
            .next()
            .unwrap();
        assert_eq!(first, (4, 0.9));
    }

    #[test]
    fn nothing_passes_high_threshold() {
        let v = [0.5, 0.1, 0.7];
        let got = report_above(0, 2, 0.71, Direction::Max, max_oracle(&v), |i| v[i]);
        assert!(got.is_empty());
    }

    #[test]
    fn min_direction_reports_below_threshold() {
        let v = [5.0, 1.0, 3.0, 0.5, 9.0];
        let oracle = |l: usize, r: usize| {
            let mut best = l;
            for i in l + 1..=r {
                if v[i] < v[best] {
                    best = i;
                }
            }
            best
        };
        let mut got: Vec<usize> = report_above(0, 4, 3.0, Direction::Min, oracle, |i| v[i])
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let v = [1.0];
        let got = report_above(1, 0, 0.0, Direction::Max, max_oracle(&v), |i| v[i]);
        assert!(got.is_empty());
    }

    #[test]
    fn oracle_query_count_is_linear_in_output() {
        // Count oracle calls: the recursion does at most 2·occ + 1 queries.
        let v: Vec<f64> = (0..1000).map(|i| (i % 10) as f64 / 10.0).collect();
        let rmq = BlockRmq::new(&v, Direction::Max);
        let mut calls = 0usize;
        let got = report_above(
            0,
            v.len() - 1,
            0.9,
            Direction::Max,
            |l, r| {
                calls += 1;
                rmq.query(l, r)
            },
            |i| v[i],
        );
        assert_eq!(got.len(), 100);
        assert!(
            calls <= 2 * got.len() + 1,
            "calls={calls} occ={}",
            got.len()
        );
    }

    #[test]
    fn works_with_block_rmq_backend() {
        let v: Vec<f64> = (0..500)
            .map(|i| {
                if i % 97 == 0 {
                    1.0
                } else {
                    (i % 7) as f64 / 100.0
                }
            })
            .collect();
        let rmq = BlockRmq::new(&v, Direction::Max);
        let got = report_above(
            0,
            v.len() - 1,
            0.5,
            Direction::Max,
            |l, r| rmq.query(l, r),
            |i| v[i],
        );
        let expected = (0..500).filter(|i| i % 97 == 0).count();
        assert_eq!(got.len(), expected);
    }
}
