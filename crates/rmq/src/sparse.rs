//! Classic sparse-table RMQ: O(n log n) preprocessing, O(1) query.

use crate::{Direction, Rmq};

/// Sparse table answering range-extreme queries in O(1) after
/// O(n log n) preprocessing.
///
/// Stores, for every power-of-two window length `2^k` and start `i`, the
/// index of the extreme element in `[i, i + 2^k)`. Ties resolve to the
/// leftmost index. Values are kept so queries can compare the two candidate
/// windows.
///
/// ```
/// use ustr_rmq::{Direction, Rmq, SparseTable};
/// let st = SparseTable::new(&[0.3, 0.9, 0.1, 0.9], Direction::Max);
/// assert_eq!(st.query(0, 3), 1); // leftmost maximum wins ties
/// assert_eq!(st.query(2, 3), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SparseTable {
    values: Vec<f64>,
    /// `table[k][i]` = extreme index in `[i, i + 2^(k+1))`; level 0 (windows
    /// of length 1) is implicit (the index itself).
    table: Vec<Vec<u32>>,
    direction: Direction,
}

impl SparseTable {
    /// Builds a sparse table over `values`.
    pub fn new(values: &[f64], direction: Direction) -> Self {
        let n = values.len();
        let levels = if n <= 1 { 0 } else { n.ilog2() as usize };
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        for k in 0..levels {
            let width = 1usize << (k + 1);
            let half = width / 2;
            let count = n + 1 - width;
            let mut row = Vec::with_capacity(count);
            for i in 0..count {
                let left = if k == 0 { i as u32 } else { table[k - 1][i] };
                let right = if k == 0 {
                    (i + half) as u32
                } else {
                    table[k - 1][i + half]
                };
                let pick = if direction.beats(values[right as usize], values[left as usize]) {
                    right
                } else {
                    left
                };
                row.push(pick);
            }
            table.push(row);
        }
        Self {
            values: values.to_vec(),
            table,
            direction,
        }
    }

    /// The direction (max or min) this table answers.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The value stored at `index`.
    #[inline]
    pub fn value(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Heap bytes held: the value copy plus every index row (row `k` holds
    /// `n + 1 − 2^(k+1)` entries) and the row headers.
    pub fn heap_size(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<f64>()
            + self.table.capacity() * size_of::<Vec<u32>>()
            + self
                .table
                .iter()
                .map(|row| row.capacity() * size_of::<u32>())
                .sum::<usize>()
    }
}

impl Rmq for SparseTable {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn query(&self, l: usize, r: usize) -> usize {
        assert!(l <= r, "invalid range: l={l} > r={r}");
        assert!(r < self.values.len(), "range end {r} out of bounds");
        if l == r {
            return l;
        }
        let k = (r - l + 1).ilog2() as usize; // window 2^k fits at least half
        if k == 0 {
            // Range of length 1 is handled above; length >= 2 has k >= 1.
            unreachable!("ranges of length >= 2 always have k >= 1");
        }
        let row = &self.table[k - 1];
        let left = row[l] as usize;
        let right = row[r + 1 - (1usize << k)] as usize;
        if self.direction.beats(self.values[right], self.values[left]) {
            right
        } else {
            left
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_extreme;

    fn pseudo_random_values(n: usize, seed: u64) -> Vec<f64> {
        // Small xorshift so the unit test does not need the rand crate.
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 1000.0
            })
            .collect()
    }

    #[test]
    fn single_element() {
        let st = SparseTable::new(&[42.0], Direction::Max);
        assert_eq!(st.query(0, 0), 0);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn matches_linear_scan_max() {
        let values = pseudo_random_values(257, 0xDECAF);
        let st = SparseTable::new(&values, Direction::Max);
        for l in 0..values.len() {
            for r in l..values.len() {
                assert_eq!(
                    st.query(l, r),
                    scan_extreme(&values, l, r, Direction::Max),
                    "range [{l},{r}]"
                );
            }
        }
    }

    #[test]
    fn matches_linear_scan_min() {
        let values = pseudo_random_values(100, 0xBEEF);
        let st = SparseTable::new(&values, Direction::Min);
        for l in 0..values.len() {
            for r in l..values.len() {
                assert_eq!(st.query(l, r), scan_extreme(&values, l, r, Direction::Min));
            }
        }
    }

    #[test]
    fn ties_resolve_leftmost() {
        let values = vec![1.0, 5.0, 5.0, 5.0, 1.0];
        let st = SparseTable::new(&values, Direction::Max);
        assert_eq!(st.query(0, 4), 1);
        assert_eq!(st.query(2, 4), 2);
    }

    #[test]
    fn handles_infinities() {
        let values = vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        let st = SparseTable::new(&values, Direction::Max);
        assert_eq!(st.query(0, 2), 1);
        assert_eq!(st.query(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let st = SparseTable::new(&[1.0, 2.0], Direction::Max);
        st.query(0, 2);
    }

    #[test]
    fn heap_size_counts_the_rows_actually_held() {
        // n = 5: rows of 4 and 2 indices, not 2 x 5.
        let st = SparseTable::new(&[1.0, 2.0, 3.0, 4.0, 5.0], Direction::Max);
        let rows = 2 * std::mem::size_of::<Vec<u32>>();
        assert_eq!(st.heap_size(), 5 * 8 + 6 * 4 + rows);
    }
}
