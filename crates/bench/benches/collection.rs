//! Collection persistence benchmarks: loading a served collection from the
//! single-file collection snapshot, plus the cost of writing it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ustr_service::{QueryRequest, QueryService, ServiceConfig};
use ustr_workload::{generate_collection, DatasetConfig};

fn no_cache(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        shards: threads,
        cache_capacity: 0,
        epsilon: None,
    }
}

fn bench_collection_load(c: &mut Criterion) {
    let docs = generate_collection(&DatasetConfig::new(6_000, 0.25, 17));
    let service = QueryService::build(&docs, 0.1, no_cache(2)).unwrap();

    let base = std::env::temp_dir().join("ustr_bench_collection");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let coll = base.join("all.coll");
    service.save_collection(&coll).unwrap();

    let mut group = c.benchmark_group("collection_load");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("collection"),
        &coll,
        |b, coll| {
            b.iter(|| {
                let s = QueryService::load_collection(coll, no_cache(2)).unwrap();
                std::hint::black_box(s.num_docs())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("collection_save"),
        &service,
        |b, service| {
            let out = base.join("resave.coll");
            b.iter(|| {
                service.save_collection(&out).unwrap();
                std::hint::black_box(std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0))
            })
        },
    );
    group.finish();

    // A loaded collection must serve a mixed-mode batch — keep the whole
    // pipeline (load → typed dispatch) exercised under the bench harness so
    // format regressions fail the CI smoke run loudly.
    let loaded = QueryService::load_collection(&coll, no_cache(4)).unwrap();
    let batch = vec![
        QueryRequest::Threshold {
            pattern: b"aa".to_vec(),
            tau: 0.3,
        },
        QueryRequest::TopK {
            pattern: b"aa".to_vec(),
            k: 5,
        },
        QueryRequest::Listing {
            pattern: b"a".to_vec(),
            tau: 0.5,
        },
        QueryRequest::Approx {
            pattern: b"aa".to_vec(),
            tau: 0.3,
        },
    ];
    let parallel = loaded.query_requests(&batch);
    let sequential = loaded.query_requests_sequential(&batch);
    for (q, (a, b)) in parallel.iter().zip(sequential.iter()).enumerate() {
        assert_eq!(
            a.as_ref().unwrap(),
            b.as_ref().unwrap(),
            "request {q}: parallel != sequential after collection load"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_collection_load);
criterion_main!(benches);
