//! Persistence and serving benchmarks: snapshot encode/decode against a full
//! rebuild (the economics that motivate `ustr-store`), and batch serving
//! throughput through the `ustr-service` thread pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ustr_core::Index;
use ustr_service::{QueryRequest, QueryService, ServiceConfig};
use ustr_store::Snapshot;
use ustr_workload::{
    generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode,
};

fn bench_snapshot_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_vs_rebuild");
    group.sample_size(10);
    for n in [5_000usize, 20_000] {
        let s = generate_string(&DatasetConfig::new(n, 0.3, 11));
        let index = Index::build(&s, 0.1).unwrap();
        let mut bytes = Vec::new();
        index.write_snapshot(&mut bytes).unwrap();

        group.bench_with_input(BenchmarkId::new("rebuild", n), &s, |b, s| {
            b.iter(|| std::hint::black_box(Index::build(s, 0.1).unwrap().stats().transformed_len))
        });
        group.bench_with_input(BenchmarkId::new("snapshot_load", n), &bytes, |b, bytes| {
            b.iter(|| {
                std::hint::black_box(
                    Index::read_snapshot(&bytes[..])
                        .unwrap()
                        .stats()
                        .transformed_len,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("snapshot_write", n), &index, |b, index| {
            b.iter(|| {
                let mut out = Vec::new();
                index.write_snapshot(&mut out).unwrap();
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_service_batch(c: &mut Criterion) {
    let docs = generate_collection(&DatasetConfig::new(20_000, 0.25, 3));
    let concat = ustr_uncertain::UncertainString::new(
        docs.iter()
            .flat_map(|d| d.positions().iter().cloned())
            .collect(),
    );
    let batch: Vec<QueryRequest> = sample_patterns(&concat, 6, 48, PatternMode::Probable, 9)
        .into_iter()
        .map(|pattern| QueryRequest::Threshold { pattern, tau: 0.2 })
        .collect();

    let mut group = c.benchmark_group("service_batch");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let service = QueryService::build(
            &docs,
            0.1,
            ServiceConfig {
                threads,
                shards: threads,
                cache_capacity: 0, // measure computation, not the cache
                epsilon: None,
            },
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &batch, |b, batch| {
            b.iter(|| {
                let results = service.query_requests(batch);
                std::hint::black_box(results.iter().filter(|r| r.is_ok()).count())
            })
        });
    }

    // The cache short-circuits repeated batches entirely.
    let cached = QueryService::build(
        &docs,
        0.1,
        ServiceConfig {
            threads: 4,
            shards: 4,
            cache_capacity: 4096,
            epsilon: None,
        },
    )
    .unwrap();
    let _ = cached.query_requests(&batch); // warm
    group.bench_with_input(
        BenchmarkId::from_parameter("4+cache"),
        &batch,
        |b, batch| {
            b.iter(|| {
                let results = cached.query_requests(batch);
                std::hint::black_box(results.len())
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_snapshot_vs_rebuild, bench_service_batch);
criterion_main!(benches);
