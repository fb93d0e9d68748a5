//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! RMQ variants, per-level duplicate elimination, and the long-pattern
//! blocking levels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ustr_core::{Index, IndexOptions};
use ustr_rmq::{BlockRmq, Direction, Rmq, SampledRmq, SparseTable};
use ustr_workload::{generate_string, sample_patterns, DatasetConfig, PatternMode};

fn bench_rmq_variants(c: &mut Criterion) {
    let n = 1 << 16;
    let mut state = 0xC0FFEEu64;
    let values: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as f64
        })
        .collect();
    let queries: Vec<(usize, usize)> = (0..256)
        .map(|i| {
            let a = (i * 7919) % n;
            let b = (i * 104729) % n;
            (a.min(b), a.max(b))
        })
        .collect();

    let sparse = SparseTable::new(&values, Direction::Max);
    let block = BlockRmq::new(&values, Direction::Max);
    let at = |i: usize| values[i];
    let sampled = SampledRmq::new(n, Direction::Max, &at);

    let mut group = c.benchmark_group("rmq_query");
    group.bench_function("sparse_table", |b| {
        b.iter(|| {
            for &(l, r) in &queries {
                std::hint::black_box(sparse.query(l, r));
            }
        })
    });
    group.bench_function("block_rmq", |b| {
        b.iter(|| {
            for &(l, r) in &queries {
                std::hint::black_box(block.query(l, r));
            }
        })
    });
    group.bench_function("sampled_rmq", |b| {
        b.iter(|| {
            for &(l, r) in &queries {
                std::hint::black_box(sampled.query_with(l, r, &at));
            }
        })
    });
    group.finish();
}

fn bench_dedup_ablation(c: &mut Criterion) {
    let s = generate_string(&DatasetConfig::new(20_000, 0.3, 8));
    let with_dedup = Index::build(&s, 0.1).unwrap();
    let without = Index::build_with(
        &s,
        0.1,
        &IndexOptions {
            disable_dedup: true,
            ..Default::default()
        },
    )
    .unwrap();
    let patterns = sample_patterns(&s, 4, 16, PatternMode::Probable, 12);

    let mut group = c.benchmark_group("dedup_ablation");
    group.bench_function("with_dedup", |b| {
        b.iter(|| {
            for p in &patterns {
                std::hint::black_box(with_dedup.query(p, 0.15).unwrap().len());
            }
        })
    });
    group.bench_function("without_dedup", |b| {
        b.iter(|| {
            for p in &patterns {
                std::hint::black_box(without.query(p, 0.15).unwrap().len());
            }
        })
    });
    group.finish();
}

fn bench_long_level_ablation(c: &mut Criterion) {
    let s = generate_string(&DatasetConfig::new(20_000, 0.15, 16));
    let with_levels = Index::build(&s, 0.1).unwrap();
    let without = Index::build_with(
        &s,
        0.1,
        &IndexOptions {
            disable_long_levels: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mut group = c.benchmark_group("long_pattern_blocking");
    for m in [32usize, 64] {
        let patterns = sample_patterns(&s, m, 8, PatternMode::Probable, 14);
        group.bench_with_input(
            BenchmarkId::new("blocking_levels", m),
            &patterns,
            |b, ps| {
                b.iter(|| {
                    for p in ps {
                        std::hint::black_box(with_levels.query(p, 0.1).unwrap().len());
                    }
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("range_scan", m), &patterns, |b, ps| {
            b.iter(|| {
                for p in ps {
                    std::hint::black_box(without.query(p, 0.1).unwrap().len());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rmq_variants,
    bench_dedup_ablation,
    bench_long_level_ablation
);
criterion_main!(benches);
