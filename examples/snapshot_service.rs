//! Build once, snapshot, serve forever: the `ustr-store` + `ustr-service`
//! workflow end to end.
//!
//! A small collection of uncertain protein reads is indexed per document,
//! packed into one `.coll` snapshot, loaded back into a sharded concurrent
//! service, and queried in one batch — with the round-trip and determinism guarantees
//! checked along the way.
//!
//! Run with: `cargo run --example snapshot_service`

use uncertain_strings::{
    workload::{generate_collection, DatasetConfig},
    Index, QueryRequest, QueryResponse, QueryService, ServiceConfig, Snapshot,
};

fn main() {
    // 1. A synthetic collection (the paper's §8.1 protein workload).
    let docs = generate_collection(&DatasetConfig::new(2_000, 0.3, 42));
    println!("collection: {} documents", docs.len());

    // 2. Build one index per document and snapshot the whole collection.
    let dir = std::env::temp_dir().join("ustr_example_snapshots");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let coll = dir.join("collection.coll");
    let t0 = std::time::Instant::now();
    let built = QueryService::build(&docs, 0.1, ServiceConfig::default()).unwrap();
    let build_time = t0.elapsed();
    built.save_collection(&coll).unwrap();
    println!(
        "built {} indexes in {build_time:?}, snapshot in {}",
        docs.len(),
        coll.display()
    );

    // 3. A fresh process would start here: load the snapshot into a
    //    4-thread, 4-shard service with a 256-entry result cache.
    let t1 = std::time::Instant::now();
    let service = QueryService::load_collection(
        &coll,
        ServiceConfig {
            threads: 4,
            shards: 4,
            cache_capacity: 256,
            epsilon: None,
        },
    )
    .unwrap();
    println!(
        "loaded {} documents into {} shards in {:?} ({:.1}x faster than building)",
        service.num_docs(),
        service.num_shards(),
        t1.elapsed(),
        build_time.as_secs_f64() / t1.elapsed().as_secs_f64().max(1e-9),
    );

    // 4. One batch of queries, fanned across the pool.
    let patterns = [&b"LL"[..], b"AA", b"SE", b"GLV"];
    let batch: Vec<QueryRequest> = patterns
        .iter()
        .map(|p| QueryRequest::Threshold {
            pattern: p.to_vec(),
            tau: 0.25,
        })
        .collect();
    let results = service.query_requests(&batch);
    for (pattern, result) in patterns.iter().zip(results.iter()) {
        let Ok(QueryResponse::Threshold(hits)) = result else {
            panic!("a threshold request answers in kind: {result:?}");
        };
        let occurrences: usize = hits.iter().map(|d| d.hits.len()).sum();
        println!(
            "  {:?} tau=0.25: {occurrences} occurrence(s) across {} document(s)",
            String::from_utf8_lossy(pattern),
            hits.len()
        );
    }

    // 5. The contracts this subsystem guarantees, checked live:
    //    (a) parallel batches equal sequential evaluation;
    let sequential = service.query_requests_sequential(&batch);
    for (par, seq) in results.iter().zip(sequential.iter()) {
        assert_eq!(par.as_ref().unwrap(), seq.as_ref().unwrap());
    }
    //    (b) a loaded index answers identically to the freshly built one.
    let single = &docs[0];
    let fresh = Index::build(single, 0.1).unwrap();
    let path = dir.join("doc_0.idx");
    fresh.save(&path).unwrap();
    let loaded = Index::load(&path).unwrap();
    for pattern in [&b"L"[..], b"AL", b"KDE"] {
        assert_eq!(
            fresh.query(pattern, 0.2).unwrap().hits(),
            loaded.query(pattern, 0.2).unwrap().hits(),
        );
    }
    let (cache_hits, cache_misses) = service.cache_stats();
    println!("cache: {cache_hits} hit(s), {cache_misses} miss(es)");
    println!("round-trip and determinism contracts verified");

    let _ = std::fs::remove_dir_all(&dir);
}
