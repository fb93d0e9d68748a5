//! Property tests for the typed dispatcher's determinism contract: a batch
//! interleaving all four query modes returns identical responses under
//! `threads = 1` and `threads = 8`, with and without approx indexes, and the
//! single-file collection snapshot reloads into a service that answers the
//! same batch identically.

use proptest::prelude::*;
use ustr_service::{QueryRequest, QueryService, ServiceConfig};
use ustr_uncertain::UncertainString;

/// Random documents over {a, b, c} with 1–3 normalized choices per position.
fn doc(max_len: usize) -> impl Strategy<Value = Vec<Vec<(u8, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 1u32..80), 1..=3),
        1..=max_len,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, w as f64 / total as f64))
                    .collect()
            })
            .collect()
    })
}

fn pattern(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 1..=max_len)
        .prop_map(|v| v.into_iter().map(|c| b'a' + c).collect())
}

/// One random request of any mode.
fn request() -> impl Strategy<Value = QueryRequest> {
    (pattern(4), 0usize..4, 0usize..4).prop_map(|(pattern, mode, arg)| {
        let tau = [0.1, 0.25, 0.4, 0.7][arg];
        match mode {
            0 => QueryRequest::Threshold { pattern, tau },
            1 => QueryRequest::TopK {
                pattern,
                k: arg + 1,
            },
            2 => QueryRequest::Listing { pattern, tau },
            _ => QueryRequest::Approx { pattern, tau },
        }
    })
}

fn config(threads: usize, shards: usize, epsilon: Option<f64>) -> ServiceConfig {
    ServiceConfig {
        threads,
        shards,
        cache_capacity: 0,
        epsilon,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed-mode batches are thread-count invariant: 1 thread / 1 shard,
    /// 8 threads / many shards, the sequential reference and each request
    /// asked alone all agree, with and without approx indexes.
    #[test]
    fn mixed_mode_batches_are_thread_invariant(
        raw_docs in prop::collection::vec(doc(10), 1..6),
        batch in prop::collection::vec(request(), 1..10),
        eps_idx in 0usize..3,
    ) {
        let docs: Vec<UncertainString> = raw_docs
            .into_iter()
            .map(|r| UncertainString::from_rows(r).unwrap())
            .collect();
        let epsilon = [None, Some(0.05), Some(0.2)][eps_idx];
        let single = QueryService::build(&docs, 0.05, config(1, 1, epsilon)).unwrap();
        let pooled = QueryService::build(&docs, 0.05, config(8, 3, epsilon)).unwrap();
        let a = single.query_requests(&batch);
        let b = pooled.query_requests(&batch);
        let c = pooled.query_requests_sequential(&batch);
        for (q, ((x, y), z)) in a.iter().zip(b.iter()).zip(c.iter()).enumerate() {
            match (x, y, z) {
                (Ok(x), Ok(y), Ok(z)) => {
                    prop_assert_eq!(x, y, "request {} diverged across thread counts", q);
                    prop_assert_eq!(x, z, "request {} diverged from sequential", q);
                }
                (Err(_), Err(_), Err(_)) => {}
                _ => prop_assert!(false, "request {} error-ness diverged", q),
            }
            // A batch is its requests, each answered as if alone —
            // duplicates of an earlier one included.
            prop_assert_eq!(y, &pooled.query_requests(&batch[q..=q])[0], "request {}", q);
        }
    }

    /// A collection saved to one `.coll` file reloads into a service that
    /// answers the same mixed-mode batch identically, at any thread count.
    #[test]
    fn collection_snapshot_serves_identically(
        raw_docs in prop::collection::vec(doc(8), 1..5),
        batch in prop::collection::vec(request(), 1..8),
        seed in 0u32..1_000_000,
        threads in 1usize..9,
    ) {
        let docs: Vec<UncertainString> = raw_docs
            .into_iter()
            .map(|r| UncertainString::from_rows(r).unwrap())
            .collect();
        let built = QueryService::build(&docs, 0.05, config(2, 2, Some(0.1))).unwrap();
        let path = std::env::temp_dir().join(format!("ustr_prop_modes_{seed}.coll"));
        built.save_collection(&path).unwrap();
        let loaded = QueryService::load_collection(&path, config(threads, 0, None)).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert!(loaded.has_approx_indexes(), "approx sections round-trip");
        let a = built.query_requests_sequential(&batch);
        let b = loaded.query_requests(&batch);
        for (q, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            match (x, y) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "request {} diverged after reload", q),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "request {} error-ness diverged after reload", q),
            }
        }
    }
}
