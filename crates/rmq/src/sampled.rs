//! Accessor-based RMQ that lets the caller discard the value array.
//!
//! The paper builds `RMQ_i` over each per-length probability array `C_i` and
//! then *discards* `C_i`, re-deriving probabilities from the cumulative array
//! `C` during queries. [`SampledRmq`] mirrors that: it stores only per-block
//! champion indices plus a linear-space [`BlockRmq`] over the champion
//! values; partial blocks are rescanned through a caller-supplied accessor
//! (each probe costs what the accessor costs), keeping queries
//! O(block size) probes for a fixed block size. A threshold report ([`SampledRmq::report_at_least`])
//! reads each value of its range at most once: the two partial edge blocks
//! once each, and a full middle block only when its champion reaches the
//! threshold — found by the same max-split recursion over the champions —
//! so at most `block · (reported + 2)` values. A best-first walk
//! ([`SampledRmq::best_first`], top-k's) reads the same way in the order of
//! the values: the edge blocks on creation, the middle blocks under one
//! queue entry keyed by their best champion, and a block only when that
//! champion is the best value left — so a drained walk reads at most
//! `block · (yielded + 2)` values, and each at most once.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::{BlockRmq, Direction, Rmq};

/// Sampled hybrid RMQ over values provided by an accessor closure.
///
/// Space, per *block* of `block_size` elements: the champion index (4 B)
/// plus one element of the [`BlockRmq`] over the champion values — value 8,
/// in-block mask 8, and its own champions and sparse table over 1/64 of the
/// blocks, ≈ 0.2: **20.2 B per block**, `n · 20.2 / 64 ≈ n / 3` bytes at the
/// default block size, against 8 B per *element* for a materialised level.
/// Until PR 23 the champion values sat in a sparse table — the `f64` and
/// `⌊log₂ blocks⌋` rows of `u32` per block, 4 + 55.6 B at the 14 819
/// blocks of a 948 400-element level (`≈ n` bytes) — while this comment
/// promised "roughly `n/8` bytes".
///
/// ```
/// use ustr_rmq::{Direction, SampledRmq};
/// let values: Vec<f64> = (0..500).map(|i| ((i * 13) % 83) as f64).collect();
/// let at = |i: usize| values[i];
/// let rmq = SampledRmq::new(values.len(), Direction::Max, &at);
/// let best = rmq.query_with(120, 480, &at);
/// assert!((120..=480).all(|i| values[i] <= values[best]));
/// ```
#[derive(Debug, Clone)]
pub struct SampledRmq {
    len: usize,
    block_size: usize,
    champions: Vec<u32>,
    /// Extremum over the champion *values*, indexed by block number.
    block_table: BlockRmq,
    direction: Direction,
}

impl SampledRmq {
    /// Default block size: balances the per-query rescan (≤ 2 partial blocks)
    /// against stored-champion space.
    pub const DEFAULT_BLOCK: usize = 64;

    /// Builds over `len` virtual elements whose values come from `accessor`.
    pub fn new(len: usize, direction: Direction, accessor: &dyn Fn(usize) -> f64) -> Self {
        Self::with_block_size(len, Self::DEFAULT_BLOCK, direction, accessor)
    }

    /// Builds with an explicit block size (must be ≥ 1).
    pub fn with_block_size(
        len: usize,
        block_size: usize,
        direction: Direction,
        accessor: &dyn Fn(usize) -> f64,
    ) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        let num_blocks = len.div_ceil(block_size);
        let mut champions = Vec::with_capacity(num_blocks);
        let mut champion_values = Vec::with_capacity(num_blocks);
        for b in 0..num_blocks {
            let start = b * block_size;
            let end = (start + block_size).min(len);
            let mut best = start;
            let mut best_val = accessor(start);
            for i in start + 1..end {
                let v = accessor(i);
                if direction.beats(v, best_val) {
                    best = i;
                    best_val = v;
                }
            }
            champions.push(best as u32);
            champion_values.push(best_val);
        }
        let block_table = BlockRmq::new(&champion_values, direction);
        Self {
            len,
            block_size,
            champions,
            block_table,
            direction,
        }
    }

    /// Reassembles a structure from its persistent parts: the element count,
    /// block size, direction, and per-block champion indices previously read
    /// from [`SampledRmq::champions`]. Champion *values* are re-derived
    /// through `accessor` (exactly as queries re-derive partial-block
    /// values), so only the `u32` indices need to be stored.
    ///
    /// Fails when the parts are structurally inconsistent: wrong champion
    /// count for `(len, block_size)`, or a champion outside its block.
    pub fn from_parts(
        len: usize,
        block_size: usize,
        direction: Direction,
        champions: Vec<u32>,
        accessor: &dyn Fn(usize) -> f64,
    ) -> Result<Self, &'static str> {
        if block_size < 1 {
            return Err("block size must be at least 1");
        }
        let num_blocks = len.div_ceil(block_size);
        if champions.len() != num_blocks {
            return Err("champion count does not match len / block_size");
        }
        let mut champion_values = Vec::with_capacity(num_blocks);
        for (b, &c) in champions.iter().enumerate() {
            let start = b * block_size;
            let end = (start + block_size).min(len);
            let c = c as usize;
            if c < start || c >= end {
                return Err("champion index outside its block");
            }
            champion_values.push(accessor(c));
        }
        let block_table = BlockRmq::new(&champion_values, direction);
        Ok(Self {
            len,
            block_size,
            champions,
            block_table,
            direction,
        })
    }

    /// Number of virtual elements covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The block size champions are sampled at.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Per-block champion indices (the persistent representation; see
    /// [`SampledRmq::from_parts`]).
    pub fn champions(&self) -> &[u32] {
        &self.champions
    }

    /// Returns `true` when no elements are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The direction (max or min) this structure answers.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Heap bytes held (for the space experiments): the champion indices
    /// plus the block RMQ over their values.
    pub fn heap_size(&self) -> usize {
        self.champions.capacity() * std::mem::size_of::<u32>() + self.block_table.heap_size()
    }

    fn scan(
        &self,
        l: usize,
        r: usize,
        accessor: &(impl Fn(usize) -> f64 + ?Sized),
        mut best: Option<(usize, f64)>,
    ) -> Option<(usize, f64)> {
        for i in l..=r {
            let v = accessor(i);
            match best {
                Some((_, bv)) if !self.direction.beats(v, bv) => {}
                _ => best = Some((i, v)),
            }
        }
        best
    }

    /// Index of the extreme value within `[l, r]`, re-reading partial blocks
    /// through `accessor`: at most two blocks' worth of values. The accessor
    /// must be consistent with the one used at construction time.
    ///
    /// # Panics
    ///
    /// Panics if `l > r` or `r >= self.len()`.
    pub fn query_with(
        &self,
        l: usize,
        r: usize,
        accessor: &(impl Fn(usize) -> f64 + ?Sized),
    ) -> usize {
        self.extreme(l, r, accessor).0
    }

    /// Calls `emit(i, value)` once for every `i` in `[l, r]` whose value
    /// [reaches](Direction::reaches) `threshold`, in no set order (nothing
    /// for `l > r`), reading each value of the range at most once. A range
    /// inside two blocks is read once, value by value. A wider one reads
    /// its two partial edge blocks once each; its full middle blocks are
    /// split at their champion, block by block: a block whose champion
    /// reaches `threshold` is read once and both sides of it are split in
    /// turn, a sub-range whose best champion fails is dropped unread. A read
    /// middle block reports at least its champion, so at most
    /// `min(r − l + 1, block·(reported + 2))` values are read.
    ///
    /// # Panics
    ///
    /// Panics if `l <= r` and `r >= self.len()`.
    pub fn report_at_least(
        &self,
        l: usize,
        r: usize,
        threshold: f64,
        accessor: &(impl Fn(usize) -> f64 + ?Sized),
        mut emit: impl FnMut(usize, f64),
    ) {
        assert!(l > r || r < self.len, "range end {r} out of bounds");
        let mut read = |lo: usize, hi: usize| {
            for i in lo..=hi {
                let v = accessor(i);
                if self.direction.reaches(v, threshold) {
                    emit(i, v);
                }
            }
        };
        let (bs, bl, br) = (self.block_size, l / self.block_size, r / self.block_size);
        if l > r || br <= bl + 1 {
            read(l, r);
            return;
        }
        read(l, (bl + 1) * bs - 1);
        read(br * bs, r);
        let mut next = Some((bl + 1, br - 1));
        let mut pending = Vec::new();
        while let Some((a, b)) = next.take().or_else(|| pending.pop()) {
            let block = self.block_table.query(a, b);
            let champion = self.block_table.value(block);
            if !self.direction.reaches(champion, threshold) {
                continue;
            }
            read(block * bs, (block + 1) * bs - 1);
            if block > a {
                pending.push((a, block - 1));
            }
            next = (block < b).then_some((block + 1, b));
        }
    }

    /// Every `(i, value)` of `[l, r]` whose value [reaches](Direction::reaches)
    /// `floor`, best first (non-increasing for a maximum, non-decreasing for
    /// a minimum; nothing for `l > r`), reading each value of the range at
    /// most once. A range inside two blocks is read on creation, value by
    /// value. A wider one reads its two partial edge blocks on creation and
    /// queues its full middle blocks as one entry, keyed by their best
    /// champion; when such an entry is the best one queued, its champion's
    /// block is read, its values are queued, and the blocks on either side
    /// are queued as two entries keyed by their own best champions. At
    /// equal keys a read value comes out before an unopened block, so a
    /// middle block is read only once the walk has emitted everything
    /// better than its champion, which it emits next: drained, the walk
    /// reads at most `min(r − l + 1, block·(yielded + 2))` values.
    /// [`BestFirst::raise_floor`] drops the values and blocks that can no
    /// longer be wanted.
    ///
    /// ```
    /// use ustr_rmq::{Direction, SampledRmq};
    /// let values = [0.2, 0.9, 0.4, 0.9, 0.1, 0.7, 0.3, 0.8];
    /// let at = |i: usize| values[i];
    /// let rmq = SampledRmq::with_block_size(values.len(), 2, Direction::Max, &at);
    /// let mut walk = rmq.best_first(1, 7, 0.3, &at);
    /// assert_eq!(walk.next(), Some((1, 0.9)));
    /// assert_eq!(walk.next(), Some((3, 0.9)));
    /// walk.raise_floor(0.75);
    /// assert_eq!(walk.collect::<Vec<_>>(), vec![(7, 0.8)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `l <= r` and `r >= self.len()`.
    pub fn best_first<'a, A>(
        &'a self,
        l: usize,
        r: usize,
        floor: f64,
        accessor: &'a A,
    ) -> BestFirst<'a, A>
    where
        A: Fn(usize) -> f64 + ?Sized,
    {
        assert!(l > r || r < self.len, "range end {r} out of bounds");
        let mut walk = BestFirst {
            rmq: self,
            accessor,
            floor,
            queue: BinaryHeap::new(),
        };
        let (bs, bl, br) = (self.block_size, l / self.block_size, r / self.block_size);
        if l > r {
            return walk;
        }
        let values = |lo, hi| read(accessor, self.direction, floor, lo, hi);
        if br <= bl + 1 {
            walk.queue = values(l, r).collect();
            return walk;
        }
        walk.queue = values(l, (bl + 1) * bs - 1)
            .chain(values(br * bs, r))
            .collect();
        walk.queue_blocks(bl + 1, br - 1);
        walk
    }

    /// [`SampledRmq::query_with`] with the extreme's value.
    fn extreme(
        &self,
        l: usize,
        r: usize,
        accessor: &(impl Fn(usize) -> f64 + ?Sized),
    ) -> (usize, f64) {
        assert!(l <= r, "invalid range: l={l} > r={r}");
        assert!(
            r < self.len,
            "range end {r} out of bounds (len {})",
            self.len
        );
        let bl = l / self.block_size;
        let br = r / self.block_size;
        if bl == br {
            return self.scan(l, r, accessor, None).expect("non-empty range");
        }
        let left_end = (bl + 1) * self.block_size - 1;
        let mut best = self.scan(l, left_end, accessor, None);
        if bl + 1 < br {
            let mid_block = self.block_table.query(bl + 1, br - 1);
            let mid = self.champions[mid_block] as usize;
            let mid_val = self.block_table.value(mid_block);
            match best {
                Some((_, bv)) if !self.direction.beats(mid_val, bv) => {}
                _ => best = Some((mid, mid_val)),
            }
        }
        best = self.scan(br * self.block_size, r, accessor, best);
        best.expect("non-empty range")
    }
}

/// The walk of [`SampledRmq::best_first`]: an iterator over `(index,
/// value)`, best first, that reads each index at most once.
pub struct BestFirst<'a, A: ?Sized> {
    rmq: &'a SampledRmq,
    accessor: &'a A,
    floor: f64,
    queue: BinaryHeap<Queued>,
}

/// One queued entry of a [`BestFirst`] walk, in the order it comes out:
/// the greater key first, then a read value before unopened blocks, then
/// the leftmost.
#[derive(Clone, Copy)]
struct Queued {
    /// The value, or the blocks' best champion, as [`key`] orders it.
    key: f64,
    item: Item,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.key.total_cmp(&other.key)).then(self.item.cmp(&other.item))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    /// The full blocks `a..=b`, unread; `best` holds their best champion.
    Blocks {
        best: Reverse<usize>,
        a: usize,
        b: usize,
    },
    /// The value read at this index.
    Value(Reverse<usize>),
}

/// `value` as a queue key, the better value the greater: itself for a
/// maximum, negated for a minimum (which reverses the total order
/// exactly). Its own inverse.
#[allow(clippy::float_arithmetic, reason = "negation is exact")]
fn key(direction: Direction, value: f64) -> f64 {
    match direction {
        Direction::Max => value,
        Direction::Min => -value,
    }
}

/// The queue entries of the values in `[lo, hi]` that reach `floor`, each
/// read once.
fn read<A: Fn(usize) -> f64 + ?Sized>(
    accessor: &A,
    direction: Direction,
    floor: f64,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = Queued> + '_ {
    (lo..=hi).filter_map(move |i| {
        let v = accessor(i);
        direction.reaches(v, floor).then(|| Queued {
            key: key(direction, v),
            item: Item::Value(Reverse(i)),
        })
    })
}

impl<A: Fn(usize) -> f64 + ?Sized> BestFirst<'_, A> {
    /// The values a walk still yields reach this.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// From now on yields only values that [reach](Direction::reaches)
    /// `floor` as well, and queues nothing that does not: the tail is the
    /// values of the range that reach both floors. A `floor` the current
    /// one already reaches changes nothing.
    pub fn raise_floor(&mut self, floor: f64) {
        if self.rmq.direction.beats(floor, self.floor) {
            self.floor = floor;
        }
    }

    /// Queues index `i` once more at `value`, to come out in its place
    /// among the rest, unless `value` misses the floor. For a caller whose
    /// values bound the true ones from above: `value` is the true value of
    /// an index the walk yielded, no better than that yield, so it comes
    /// out once nothing left in the walk can beat it.
    ///
    /// ```
    /// use ustr_rmq::{Direction, SampledRmq};
    /// let bounds = [0.9, 0.8, 0.7];
    /// let at = |i: usize| bounds[i];
    /// let rmq = SampledRmq::with_block_size(bounds.len(), 1, Direction::Max, &at);
    /// let mut walk = rmq.best_first(0, 2, 0.0, &at);
    /// assert_eq!(walk.next(), Some((0, 0.9)));
    /// walk.requeue(0, 0.75);
    /// let rest: Vec<(usize, f64)> = walk.collect();
    /// assert_eq!(rest, vec![(1, 0.8), (0, 0.75), (2, 0.7)]);
    /// ```
    pub fn requeue(&mut self, i: usize, value: f64) {
        let direction = self.rmq.direction;
        if direction.reaches(value, self.floor) {
            self.queue.push(Queued {
                key: key(direction, value),
                item: Item::Value(Reverse(i)),
            });
        }
    }

    /// Queues the full blocks `a..=b` unread, keyed by their best
    /// champion, when it reaches the floor.
    fn queue_blocks(&mut self, a: usize, b: usize) {
        let best = self.rmq.block_table.query(a, b);
        let champion = self.rmq.block_table.value(best);
        if self.rmq.direction.reaches(champion, self.floor) {
            self.queue.push(Queued {
                key: key(self.rmq.direction, champion),
                item: Item::Blocks {
                    best: Reverse(best),
                    a,
                    b,
                },
            });
        }
    }
}

impl<A: Fn(usize) -> f64 + ?Sized> Iterator for BestFirst<'_, A> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        let direction = self.rmq.direction;
        while let Some(Queued { key: k, item }) = self.queue.pop() {
            let value = key(direction, k);
            if !direction.reaches(value, self.floor) {
                // Everything still queued is no better.
                self.queue.clear();
                return None;
            }
            match item {
                Item::Value(Reverse(i)) => return Some((i, value)),
                Item::Blocks {
                    best: Reverse(best),
                    a,
                    b,
                } => {
                    let (lo, hi) = (
                        best * self.rmq.block_size,
                        (best + 1) * self.rmq.block_size - 1,
                    );
                    self.queue
                        .extend(read(self.accessor, direction, self.floor, lo, hi));
                    if best > a {
                        self.queue_blocks(a, best - 1);
                    }
                    if best < b {
                        self.queue_blocks(best + 1, b);
                    }
                }
            }
        }
        None
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
                (state % 89) as f64
            })
            .collect()
    }

    #[test]
    fn matches_scan_for_various_block_sizes() {
        let v = values(211, 3);
        let at = |i: usize| v[i];
        for bs in [1, 2, 7, 64, 300] {
            let rmq = SampledRmq::with_block_size(v.len(), bs, Direction::Max, &at);
            for l in (0..v.len()).step_by(4) {
                for r in (l..v.len()).step_by(6) {
                    assert_eq!(
                        rmq.query_with(l, r, &at),
                        scan_extreme(&v, l, r, Direction::Max),
                        "bs={bs} range=[{l},{r}]"
                    );
                }
            }
        }
    }

    #[test]
    fn min_direction_works() {
        let v = values(130, 5);
        let at = |i: usize| v[i];
        let rmq = SampledRmq::new(v.len(), Direction::Min, &at);
        for l in 0..v.len() {
            let r = v.len() - 1;
            assert_eq!(
                rmq.query_with(l, r, &at),
                scan_extreme(&v, l, r, Direction::Min)
            );
        }
    }

    #[test]
    fn leftmost_tie_break() {
        let v = [3.0, 7.0, 7.0, 7.0, 3.0, 7.0];
        let at = |i: usize| v[i];
        let rmq = SampledRmq::with_block_size(v.len(), 2, Direction::Max, &at);
        assert_eq!(rmq.query_with(0, 5, &at), 1);
        assert_eq!(rmq.query_with(2, 5, &at), 2);
    }

    #[test]
    fn empty_structure_is_ok() {
        let at = |_: usize| 0.0;
        let rmq = SampledRmq::new(0, Direction::Max, &at);
        assert!(rmq.is_empty());
        assert_eq!(rmq.heap_size(), 0);
    }

    #[test]
    fn parts_round_trip_preserves_queries() {
        let v = values(333, 13);
        let at = |i: usize| v[i];
        for bs in [1usize, 7, 64] {
            let original = SampledRmq::with_block_size(v.len(), bs, Direction::Max, &at);
            let restored = SampledRmq::from_parts(
                original.len(),
                original.block_size(),
                original.direction(),
                original.champions().to_vec(),
                &at,
            )
            .unwrap();
            for l in (0..v.len()).step_by(5) {
                for r in (l..v.len()).step_by(9) {
                    assert_eq!(
                        original.query_with(l, r, &at),
                        restored.query_with(l, r, &at),
                        "bs={bs} range=[{l},{r}]"
                    );
                }
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_input() {
        let v = values(100, 17);
        let at = |i: usize| v[i];
        let rmq = SampledRmq::with_block_size(v.len(), 8, Direction::Max, &at);
        // Wrong champion count.
        assert!(SampledRmq::from_parts(v.len(), 8, Direction::Max, vec![0; 3], &at).is_err());
        // Champion outside its block.
        let mut bad = rmq.champions().to_vec();
        bad[0] = 99;
        assert!(SampledRmq::from_parts(v.len(), 8, Direction::Max, bad, &at).is_err());
        // Zero block size.
        assert!(SampledRmq::from_parts(v.len(), 0, Direction::Max, vec![], &at).is_err());
    }

    #[test]
    fn heap_size_is_sublinear_in_values() {
        let v = values(64 * 100, 9);
        let at = |i: usize| v[i];
        let rmq = SampledRmq::new(v.len(), Direction::Max, &at);
        let full = v.len() * std::mem::size_of::<f64>();
        assert!(
            rmq.heap_size() < full / 2,
            "sampled structure should be small"
        );
    }
}
