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
