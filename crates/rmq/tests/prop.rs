//! Property tests for the RMQ structures: agreement with linear scan,
//! leftmost tie-breaking, reporter completeness, and block-size robustness.

use proptest::prelude::*;
use ustr_rmq::{report_above, BlockRmq, Direction, Rmq, SampledRmq, SparseTable};

fn scan(values: &[f64], l: usize, r: usize, dir: Direction) -> usize {
    let mut best = l;
    for i in l + 1..=r {
        if dir.beats(values[i], values[best]) {
            best = i;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_structures_agree_with_scan(
        raw in prop::collection::vec(-100i64..100, 1..200),
        ranges in prop::collection::vec((0usize..200, 0usize..200), 1..16),
        max_dir in any::<bool>(),
    ) {
        let dir = if max_dir { Direction::Max } else { Direction::Min };
        // Duplicate-heavy values stress the tie-breaking rule.
        let values: Vec<f64> = raw.iter().map(|&v| (v / 10) as f64).collect();
        let n = values.len();
        let sparse = SparseTable::new(&values, dir);
        let block = BlockRmq::new(&values, dir);
        let at = |i: usize| values[i];
        for bs in [1usize, 3, 64] {
            let sampled = SampledRmq::with_block_size(n, bs, dir, &at);
            for &(a, b) in &ranges {
                let (l, r) = ((a % n).min(b % n), (a % n).max(b % n));
                let expected = scan(&values, l, r, dir);
                prop_assert_eq!(sparse.query(l, r), expected);
                prop_assert_eq!(block.query(l, r), expected);
                prop_assert_eq!(sampled.query_with(l, r, &at), expected);
            }
        }
    }

    /// `SampledRmq` alone, at the sizes where its block RMQ over the
    /// champions has blocks of its own (block size 1 over hundreds of
    /// elements) down to a `len` inside one block: leftmost extremum under
    /// heavy ties and whole blocks of −∞ (masked level entries), and the
    /// same answers from the champions alone.
    #[test]
    fn sampled_agrees_with_scan_and_round_trips(
        raw in prop::collection::vec(-3i64..6, 1..500),
        masked in prop::collection::vec((0usize..500, 0usize..120), 0..4),
        ranges in prop::collection::vec((0usize..500, 0usize..500), 1..24),
    ) {
        let mut values: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let n = values.len();
        for &(start, len) in &masked {
            for v in values.iter_mut().skip(start % n).take(len) {
                *v = f64::NEG_INFINITY;
            }
        }
        let at = |i: usize| values[i];
        for bs in [1usize, 7, 20, 64, 300] {
            let sampled = SampledRmq::with_block_size(n, bs, Direction::Max, &at);
            let restored = SampledRmq::from_parts(
                n,
                bs,
                Direction::Max,
                sampled.champions().to_vec(),
                &at,
            )
            .unwrap();
            prop_assert_eq!(restored.heap_size(), sampled.heap_size());
            for &(a, b) in &ranges {
                let (l, r) = ((a % n).min(b % n), (a % n).max(b % n));
                let expected = scan(&values, l, r, Direction::Max);
                prop_assert_eq!(sampled.query_with(l, r, &at), expected, "bs={} [{},{}]", bs, l, r);
                prop_assert_eq!(restored.query_with(l, r, &at), expected, "bs={} [{},{}]", bs, l, r);
            }
        }
    }

    /// `SampledRmq::report_at_least` emits the naive filter's index set,
    /// each index once, reads each index of the range at most once through
    /// the accessor and at most `min(r − l + 1, block·(reported + 2))` in
    /// all — an exact work bound, checked as a count per index — and a range
    /// inside two blocks exactly once. Each drawn range is also cut to its
    /// first block and to its first two, under heavy ties and runs of −∞
    /// (masked level entries).
    #[test]
    fn report_at_least_reads_each_index_at_most_once(
        raw in prop::collection::vec(-3i64..6, 1..700),
        masked in prop::collection::vec((0usize..700, 0usize..120), 0..4),
        ranges in prop::collection::vec((0usize..700, 0usize..700), 1..8),
        threshold in -4i64..7,
        max_dir in any::<bool>(),
    ) {
        let dir = if max_dir { Direction::Max } else { Direction::Min };
        let mut values: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let n = values.len();
        for &(start, len) in &masked {
            for v in values.iter_mut().skip(start % n).take(len) {
                *v = f64::NEG_INFINITY;
            }
        }
        let t = threshold as f64;
        let reads: Vec<std::cell::Cell<usize>> = vec![Default::default(); n];
        let at = |i: usize| {
            reads[i].set(reads[i].get() + 1);
            values[i]
        };
        for bs in [1usize, 2, 7, 64, 300] {
            let sampled = SampledRmq::with_block_size(n, bs, dir, &at);
            for &(a, b) in &ranges {
                let (l, r) = ((a % n).min(b % n), (a % n).max(b % n));
                let block_end = |blocks: usize| r.min((l / bs + blocks) * bs - 1);
                for (l, r) in [(l, block_end(1)), (l, block_end(2)), (l, r)] {
                    let mut got = Vec::new();
                    reads.iter().for_each(|c| c.set(0));
                    sampled.report_at_least(l, r, t, &at, |i, v| {
                        assert_eq!(v, values[i]);
                        got.push(i);
                    });
                    let reread = reads.iter().position(|c| c.get() > 1);
                    prop_assert_eq!(reread, None, "bs={} [{},{}] read an index twice", bs, l, r);
                    let total: usize = reads.iter().map(|c| c.get()).sum();
                    let bound = (r - l + 1).min(bs * (got.len() + 2));
                    prop_assert!(total <= bound, "bs={} [{},{}]: {} reads > {}", bs, l, r, total, bound);
                    if r / bs <= l / bs + 1 {
                        prop_assert_eq!(total, r - l + 1, "bs={} [{},{}] read once", bs, l, r);
                    }
                    got.sort_unstable();
                    let expected: Vec<usize> = (l..=r).filter(|&i| dir.reaches(values[i], t)).collect();
                    prop_assert_eq!(got, expected, "bs={} [{},{}]", bs, l, r);
                }
            }
        }
    }

    /// `SampledRmq::best_first` against a sort of the range: it yields
    /// exactly the indices whose value reaches the floor, each once and
    /// best first, reads each index at most once and, drained at a fixed
    /// floor, at most `min(r − l + 1, block·(yielded + 2))` in all. With
    /// the floor raised after a few yields, the tail is exactly the rest of
    /// the values that reach the raised floor too. With each yield above a
    /// drawn worse value put back at it (`requeue`, top-k's lazy bounds),
    /// what comes out at its worse value is every index whose worse value
    /// reaches the floor, once, in the order of those values. Heavy ties
    /// and runs of −∞ (masked level entries); each drawn range also cut to
    /// its first block and to its first two.
    #[test]
    fn best_first_is_the_sorted_range_read_once(
        raw in prop::collection::vec(-3i64..6, 1..700),
        masked in prop::collection::vec((0usize..700, 0usize..120), 0..4),
        ranges in prop::collection::vec((0usize..700, 0usize..700), 1..8),
        floor in -4i64..7,
        raised in -4i64..8,
        head in 0usize..24,
        worse in prop::collection::vec(0i64..3, 1..64),
        max_dir in any::<bool>(),
    ) {
        let dir = if max_dir { Direction::Max } else { Direction::Min };
        let mut values: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let n = values.len();
        for &(start, len) in &masked {
            for v in values.iter_mut().skip(start % n).take(len) {
                *v = f64::NEG_INFINITY;
            }
        }
        let (floor, raised) = (floor as f64, raised as f64);
        let reads: Vec<std::cell::Cell<usize>> = vec![Default::default(); n];
        let at = |i: usize| {
            reads[i].set(reads[i].get() + 1);
            values[i]
        };
        // Best first under `dir`, the leftmost index first among equals.
        let sorted = |mut picked: Vec<usize>| {
            picked.sort_by(|&a, &b| match dir {
                Direction::Max => values[b].total_cmp(&values[a]),
                Direction::Min => values[a].total_cmp(&values[b]),
            }.then(a.cmp(&b)));
            picked.into_iter().map(|i| values[i]).collect::<Vec<f64>>()
        };
        for bs in [1usize, 3, 7, 64] {
            let sampled = SampledRmq::with_block_size(n, bs, dir, &at);
            for &(a, b) in &ranges {
                let (l, r) = ((a % n).min(b % n), (a % n).max(b % n));
                let block_end = |blocks: usize| r.min((l / bs + blocks) * bs - 1);
                for (l, r) in [(l, block_end(1)), (l, block_end(2)), (l, r)] {
                    let passing: Vec<usize> = (l..=r).filter(|&i| dir.reaches(values[i], floor)).collect();
                    reads.iter().for_each(|c| c.set(0));
                    let got: Vec<(usize, f64)> = sampled.best_first(l, r, floor, &at).collect();
                    let reread = reads.iter().position(|c| c.get() > 1);
                    prop_assert_eq!(reread, None, "bs={} [{},{}] read an index twice", bs, l, r);
                    let total: usize = reads.iter().map(|c| c.get()).sum();
                    let bound = (r - l + 1).min(bs * (got.len() + 2));
                    prop_assert!(total <= bound, "bs={} [{},{}]: {} reads > {}", bs, l, r, total, bound);
                    for &(i, v) in &got {
                        prop_assert_eq!(v.to_bits(), values[i].to_bits());
                    }
                    let got_values: Vec<f64> = got.iter().map(|&(_, v)| v).collect();
                    prop_assert_eq!(got_values, sorted(passing.clone()), "bs={} [{},{}]", bs, l, r);
                    let mut got_indices: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
                    got_indices.sort_unstable();
                    prop_assert_eq!(&got_indices, &passing, "bs={} [{},{}] once each", bs, l, r);

                    reads.iter().for_each(|c| c.set(0));
                    let mut walk = sampled.best_first(l, r, floor, &at);
                    let before: Vec<usize> = walk.by_ref().take(head).map(|(i, _)| i).collect();
                    walk.raise_floor(raised);
                    let tail: Vec<(usize, f64)> = walk.collect();
                    let reread = reads.iter().position(|c| c.get() > 1);
                    prop_assert_eq!(reread, None, "bs={} [{},{}] raised: read twice", bs, l, r);
                    let rest: Vec<usize> = passing
                        .iter()
                        .copied()
                        .filter(|&i| dir.reaches(values[i], raised) && !before.contains(&i))
                        .collect();
                    let tail_values: Vec<f64> = tail.iter().map(|&(_, v)| v).collect();
                    prop_assert_eq!(tail_values, sorted(rest.clone()), "bs={} [{},{}] raised", bs, l, r);
                    let mut tail_indices: Vec<usize> = tail.iter().map(|&(i, _)| i).collect();
                    tail_indices.sort_unstable();
                    prop_assert_eq!(tail_indices, rest, "bs={} [{},{}] raised", bs, l, r);

                    let exact = |i: usize| {
                        let by = worse[i % worse.len()] as f64;
                        match dir {
                            Direction::Max => values[i] - by,
                            Direction::Min => values[i] + by,
                        }
                    };
                    reads.iter().for_each(|c| c.set(0));
                    let mut walk = sampled.best_first(l, r, floor, &at);
                    let mut out = Vec::new();
                    while let Some((i, bound)) = walk.next() {
                        if dir.beats(bound, exact(i)) {
                            walk.requeue(i, exact(i));
                        } else {
                            out.push((i, bound));
                        }
                    }
                    let reread = reads.iter().position(|c| c.get() > 1);
                    prop_assert_eq!(reread, None, "bs={} [{},{}] requeued: read twice", bs, l, r);
                    let kept: Vec<usize> =
                        passing.iter().copied().filter(|&i| dir.reaches(exact(i), floor)).collect();
                    let mut want: Vec<f64> = kept.iter().map(|&i| exact(i)).collect();
                    want.sort_by(|a, b| match dir {
                        Direction::Max => b.total_cmp(a),
                        Direction::Min => a.total_cmp(b),
                    });
                    let out_values: Vec<f64> = out.iter().map(|&(_, v)| v).collect();
                    prop_assert_eq!(out_values, want, "bs={} [{},{}] requeued", bs, l, r);
                    let mut out_indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                    out_indices.sort_unstable();
                    prop_assert_eq!(out_indices, kept, "bs={} [{},{}] requeued", bs, l, r);
                }
            }
        }
    }

    #[test]
    fn reporter_returns_exactly_the_passing_set(
        raw in prop::collection::vec(0u32..100, 1..150),
        threshold in 0u32..100,
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let rmq = BlockRmq::new(&values, Direction::Max);
        let t = threshold as f64;
        let mut got: Vec<usize> = report_above(
            0,
            values.len() - 1,
            t,
            Direction::Max,
            |l, r| rmq.query(l, r),
            |i| values[i],
        )
        .into_iter()
        .map(|(i, _)| i)
        .collect();
        got.sort_unstable();
        let expected: Vec<usize> = (0..values.len()).filter(|&i| values[i] >= t).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn first_report_is_global_extreme(
        raw in prop::collection::vec(0u32..1000, 2..100),
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let rmq = BlockRmq::new(&values, Direction::Max);
        let first = report_above(
            0,
            values.len() - 1,
            f64::NEG_INFINITY,
            Direction::Max,
            |l, r| rmq.query(l, r),
            |i| values[i],
        )
        .into_iter()
        .next()
        .unwrap();
        let best = scan(&values, 0, values.len() - 1, Direction::Max);
        prop_assert_eq!(first.0, best);
    }
}
