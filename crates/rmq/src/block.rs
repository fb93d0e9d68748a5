//! O(n)-word hybrid RMQ with word-parallel in-block queries.
//!
//! Elements are grouped into blocks of 64. Within a block, a monotone-stack
//! bitmask per element answers any in-block query with one `AND` and one
//! count-trailing-zeros — the standard word-parallel alternative to
//! Fischer–Heun block decoding. Across blocks, a [`SparseTable`] over
//! per-block champions answers the middle part in O(1).

use crate::{sparse::SparseTable, Direction, Rmq};

const BLOCK: usize = 64;

/// Hybrid block RMQ: O(1) query, ~(n·8 bytes masks + n/64 table) space.
///
/// ```
/// use ustr_rmq::{BlockRmq, Direction, Rmq};
/// let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
/// let rmq = BlockRmq::new(&values, Direction::Max);
/// let best = rmq.query(10, 190);
/// assert!((10..=190).all(|i| values[i] <= values[best]));
/// ```
#[derive(Debug, Clone)]
pub struct BlockRmq {
    values: Vec<f64>,
    /// `masks[i]`: bit `j` set iff in-block offset `j <= i % 64` is a
    /// "visible extremum" for queries ending at `i` (monotone stack state).
    masks: Vec<u64>,
    /// Champion (extreme) index of each full or partial block.
    champions: Vec<u32>,
    /// Sparse table over champion values, indexed by block number.
    block_table: Option<SparseTable>,
    direction: Direction,
}

impl BlockRmq {
    /// Builds the structure over `values`.
    pub fn new(values: &[f64], direction: Direction) -> Self {
        let n = values.len();
        let mut masks = vec![0u64; n];
        let num_blocks = n.div_ceil(BLOCK);
        let mut champions = Vec::with_capacity(num_blocks);
        let mut champion_values = Vec::with_capacity(num_blocks);
        let mut stack: Vec<usize> = Vec::with_capacity(BLOCK);

        for b in 0..num_blocks {
            let start = b * BLOCK;
            let end = (start + BLOCK).min(n);
            stack.clear();
            let mut mask = 0u64;
            for i in start..end {
                // Pop strictly-worse entries so equal values survive and the
                // leftmost one wins ties.
                while let Some(&top) = stack.last() {
                    if direction.beats(values[i], values[top]) {
                        mask &= !(1u64 << (top - start));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                stack.push(i);
                mask |= 1u64 << (i - start);
                masks[i] = mask;
            }
            // The bottom of the stack is the block champion (leftmost extreme).
            let champ = stack[0];
            champions.push(champ as u32);
            champion_values.push(values[champ]);
        }

        let block_table = if num_blocks > 0 {
            Some(SparseTable::new(&champion_values, direction))
        } else {
            None
        };

        Self {
            values: values.to_vec(),
            masks,
            champions,
            block_table,
            direction,
        }
    }

    /// The direction (max or min) this structure answers.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The value stored at `index`.
    #[inline]
    pub fn value(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Heap bytes held: one `f64` value and one `u64` in-block mask per
    /// element, the per-block champions, and the sparse table over them.
    pub fn heap_size(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<f64>()
            + self.masks.capacity() * size_of::<u64>()
            + self.champions.capacity() * size_of::<u32>()
            + self.block_table.as_ref().map_or(0, SparseTable::heap_size)
    }

    /// In-block query: both endpoints must lie in the same block.
    #[inline]
    fn query_in_block(&self, l: usize, r: usize) -> usize {
        let block_start = r - (r % BLOCK);
        debug_assert!(l >= block_start);
        let m = self.masks[r] & (!0u64 << (l - block_start));
        debug_assert!(m != 0, "mask always contains r itself");
        block_start + m.trailing_zeros() as usize
    }
}

impl Rmq for BlockRmq {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn query(&self, l: usize, r: usize) -> usize {
        assert!(l <= r, "invalid range: l={l} > r={r}");
        assert!(r < self.values.len(), "range end {r} out of bounds");
        let bl = l / BLOCK;
        let br = r / BLOCK;
        if bl == br {
            return self.query_in_block(l, r);
        }
        // Left partial block [l .. end of bl], right partial [start of br .. r].
        let left_end = (bl + 1) * BLOCK - 1;
        let mut best = self.query_in_block(l, left_end);
        if bl + 1 < br {
            let table = self
                .block_table
                .as_ref()
                .expect("non-empty structure has a block table");
            let mid_block = table.query(bl + 1, br - 1);
            let mid = self.champions[mid_block] as usize;
            if self.direction.beats(self.values[mid], self.values[best]) {
                best = mid;
            }
        }
        let right = self.query_in_block(br * BLOCK, r);
        if self.direction.beats(self.values[right], self.values[best]) {
            best = right;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_extreme;

    fn values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 97) as f64
            })
            .collect()
    }

    #[test]
    fn single_block_matches_scan() {
        let v = values(50, 7);
        let rmq = BlockRmq::new(&v, Direction::Max);
        for l in 0..v.len() {
            for r in l..v.len() {
                assert_eq!(rmq.query(l, r), scan_extreme(&v, l, r, Direction::Max));
            }
        }
    }

    #[test]
    fn multi_block_matches_scan_max() {
        let v = values(300, 11);
        let rmq = BlockRmq::new(&v, Direction::Max);
        for l in (0..v.len()).step_by(3) {
            for r in (l..v.len()).step_by(5) {
                assert_eq!(
                    rmq.query(l, r),
                    scan_extreme(&v, l, r, Direction::Max),
                    "range [{l},{r}]"
                );
            }
        }
    }

    #[test]
    fn multi_block_matches_scan_min() {
        let v = values(300, 13);
        let rmq = BlockRmq::new(&v, Direction::Min);
        for l in (0..v.len()).step_by(3) {
            for r in (l..v.len()).step_by(5) {
                assert_eq!(rmq.query(l, r), scan_extreme(&v, l, r, Direction::Min));
            }
        }
    }

    #[test]
    fn exact_block_boundary_sizes() {
        for n in [63, 64, 65, 127, 128, 129, 192] {
            let v = values(n, n as u64);
            let rmq = BlockRmq::new(&v, Direction::Max);
            assert_eq!(
                rmq.query(0, n - 1),
                scan_extreme(&v, 0, n - 1, Direction::Max)
            );
            assert_eq!(rmq.len(), n);
        }
    }

    #[test]
    fn ties_resolve_leftmost_within_and_across_blocks() {
        let mut v = vec![0.0; 200];
        v[30] = 9.0;
        v[130] = 9.0;
        let rmq = BlockRmq::new(&v, Direction::Max);
        assert_eq!(rmq.query(0, 199), 30);
        assert_eq!(rmq.query(31, 199), 130);
        // Ties inside one block.
        let v = vec![5.0, 5.0, 5.0];
        let rmq = BlockRmq::new(&v, Direction::Max);
        assert_eq!(rmq.query(0, 2), 0);
        assert_eq!(rmq.query(1, 2), 1);
    }

    #[test]
    fn heap_size_includes_the_block_table() {
        let v = values(64 * 5, 3);
        let rmq = BlockRmq::new(&v, Direction::Max);
        let table = SparseTable::new(&[0.0; 5], Direction::Max).heap_size();
        assert_eq!(rmq.heap_size(), v.len() * 16 + 5 * 4 + table);
    }

    #[test]
    fn neg_infinity_sentinels_never_win() {
        let mut v = vec![f64::NEG_INFINITY; 100];
        v[77] = -1.0;
        let rmq = BlockRmq::new(&v, Direction::Max);
        assert_eq!(rmq.query(0, 99), 77);
    }
}
