//! A segment's bigram document filter drops no document that holds an
//! answer: over generated collections, correlations included, every mode
//! of the sharded service — which visits only the documents the filter
//! passes — answers what the naive scanner finds in every document, and
//! what every document's own executor answers.

mod common;

use proptest::prelude::*;
use uncertain_strings::{
    baseline::NaiveScanner,
    service::{DocExecutor, QueryRequest, QueryResponse, QueryService, ServiceConfig},
    workload::{generate_collection, sample_patterns, DatasetConfig, PatternMode},
    UncertainString,
};

/// `(doc, positions)` of every document with an occurrence of `pattern` at
/// `tau` or above, by the scanner.
fn scanned(docs: &[UncertainString], pattern: &[u8], tau: f64) -> Vec<(usize, Vec<usize>)> {
    (docs.iter().enumerate())
        .map(|(doc, d)| (doc, NaiveScanner::find(d, pattern, tau)))
        .filter(|(_, hits)| !hits.is_empty())
        .collect()
}

/// The top `k` `(doc, pos)` over every document's own executor, in the
/// service's order: probability ↓, then `(doc, pos)` ↑.
fn top_k_everywhere(executors: &[DocExecutor], pattern: &[u8], k: usize) -> Vec<(usize, usize)> {
    let mut all: Vec<(f64, usize, usize)> = Vec::new();
    for (doc, d) in executors.iter().enumerate() {
        let hits = d.top_k(pattern, k).unwrap();
        all.extend(hits.into_iter().map(|(pos, prob)| (prob, doc, pos)));
    }
    all.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    all.truncate(k);
    all.into_iter().map(|(_, doc, pos)| (doc, pos)).collect()
}

/// Checks every mode of `service` over `docs` for `pattern`.
fn check(
    service: &QueryService,
    docs: &[UncertainString],
    executors: &[DocExecutor],
    tau_min: f64,
    pattern: &[u8],
) -> Result<(), TestCaseError> {
    let ask = |request: QueryRequest| service.answer(&request, None).0.unwrap();
    let pattern = pattern.to_vec();
    for tau in [tau_min, 2.0 * tau_min] {
        let expected = scanned(docs, &pattern, tau);
        for approx in [false, true] {
            let request = match approx {
                false => QueryRequest::Threshold {
                    pattern: pattern.clone(),
                    tau,
                },
                true => QueryRequest::Approx {
                    pattern: pattern.clone(),
                    tau,
                },
            };
            let (QueryResponse::Threshold(hits) | QueryResponse::Approx(hits)) = ask(request)
            else {
                panic!("a threshold request answers with hits");
            };
            let got: Vec<(usize, Vec<usize>)> = (hits.iter())
                .map(|h| (h.doc, h.hits.iter().map(|&(pos, _)| pos).collect()))
                .collect();
            prop_assert_eq!(&got, &expected, "{:?} at τ = {}", pattern, tau);
        }
        let QueryResponse::Listing(listed) = ask(QueryRequest::Listing {
            pattern: pattern.clone(),
            tau,
        }) else {
            panic!("a listing request answers with documents");
        };
        let got: Vec<usize> = listed.iter().map(|hit| hit.doc).collect();
        let want: Vec<usize> = expected.iter().map(|&(doc, _)| doc).collect();
        prop_assert_eq!(got, want, "listing {:?} at τ = {}", pattern, tau);
    }
    // Top-k at a `k` past every occurrence is the whole answer at τmin; at
    // a small `k`, the cut every executor makes.
    let all = scanned(docs, &pattern, tau_min);
    let occurrences: usize = all.iter().map(|(_, hits)| hits.len()).sum();
    for k in [3, occurrences + 1] {
        let QueryResponse::TopK(top) = ask(QueryRequest::TopK {
            pattern: pattern.clone(),
            k,
        }) else {
            panic!("a top-k request answers with hits");
        };
        let mut got: Vec<(usize, usize)> = top.iter().map(|h| (h.doc, h.pos)).collect();
        prop_assert_eq!(&got, &top_k_everywhere(executors, &pattern, k));
        if k > occurrences {
            got.sort_unstable();
            let want: Vec<(usize, usize)> = (all.iter())
                .flat_map(|(doc, hits)| hits.iter().map(move |&pos| (*doc, pos)))
                .collect();
            prop_assert_eq!(got, want, "top-{} {:?}", k, pattern);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generated collection, every other document correlated, served
    /// in two shards: weighted patterns of every length 1–5 drawn from its
    /// documents (mostly hits, many off the most probable world), and
    /// random ones (mostly misses).
    #[test]
    fn the_filter_drops_no_document_with_an_answer(
        seed in any::<u64>(),
        n in 150usize..500,
        theta in prop::sample::select(vec![0.3, 0.5]),
        tau_min in prop::sample::select(vec![0.05, 0.1]),
    ) {
        let docs: Vec<UncertainString> = (generate_collection(&DatasetConfig::new(n, theta, seed)))
            .into_iter()
            .enumerate()
            .map(|(i, d)| if i % 2 == 0 { common::with_correlations(d) } else { d })
            .collect();
        let config = ServiceConfig { threads: 1, shards: 2, cache_capacity: 0, epsilon: None };
        let service = QueryService::build(&docs, tau_min, config).unwrap();
        let executors: Vec<DocExecutor> =
            docs.iter().map(|d| DocExecutor::build(d, tau_min).unwrap()).collect();
        for (i, doc) in docs.iter().enumerate().step_by(3) {
            for m in 1..=5 {
                for mode in [PatternMode::Weighted, PatternMode::Random] {
                    for pattern in sample_patterns(doc, m, 2, mode, seed ^ i as u64) {
                        check(&service, &docs, &executors, tau_min, &pattern)?;
                    }
                }
            }
        }
    }
}
