//! Cross-crate integration: realistic-scale pipelines from workload
//! generation through every index, with edge-case and failure injection.

mod common;

use common::{first_long_lengths, slots};
use uncertain_strings::{
    baseline::NaiveScanner,
    workload::{generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode},
    ApproxIndex, Error, Index, ListingIndex, RelMetric, UncertainString,
};

#[test]
fn workload_pipeline_substring_search() {
    let s = generate_string(&DatasetConfig::new(4000, 0.3, 123));
    let idx = Index::build(&s, 0.1).unwrap();
    for mode in [
        PatternMode::Probable,
        PatternMode::Weighted,
        PatternMode::Random,
    ] {
        for m in [2, 4, 8, 16] {
            for pattern in sample_patterns(&s, m, 5, mode, 7) {
                for tau in [0.1, 0.3, 0.7] {
                    let got = idx.query(&pattern, tau).unwrap().positions();
                    let expected = NaiveScanner::find(&s, &pattern, tau);
                    assert_eq!(got, expected, "m={m} tau={tau} mode={mode:?}");
                }
            }
        }
    }
}

#[test]
fn workload_pipeline_listing() {
    // θ = 0.25 as the paper's collections; θ = 0.02 so that probable
    // factors outgrow both of the lengths `first_long_lengths` names.
    for theta in [0.25, 0.02] {
        let docs = generate_collection(&DatasetConfig::new(1500, theta, 55));
        let idx = ListingIndex::build(&docs, 0.1).unwrap();
        let all = UncertainString::new(
            docs.iter()
                .flat_map(|d| d.positions().iter().cloned())
                .collect(),
        );
        let mut patterns = sample_patterns(&all, 3, 10, PatternMode::Probable, 3);
        // Long patterns are drawn inside one document, so that it can list.
        let long = first_long_lengths(idx.stats().transformed_len + 1);
        for m in long {
            let long_enough = docs.iter().filter(|d| d.len() >= m);
            patterns.extend(
                long_enough.flat_map(|d| sample_patterns(d, m, 1, PatternMode::Probable, 3)),
            );
        }
        let mut listed_past_second_level = 0;
        for pattern in &patterns {
            for tau in [0.1, 0.4] {
                let got: Vec<usize> = idx
                    .query(pattern, tau)
                    .unwrap()
                    .into_iter()
                    .map(|h| h.doc)
                    .collect();
                let expected = NaiveScanner::listing(&docs, pattern, tau);
                assert_eq!(got, expected, "m={} tau={tau}", pattern.len());
                if pattern.len() == long[1] {
                    listed_past_second_level += got.len();
                }
            }
        }
        assert!(theta > 0.1 || listed_past_second_level > 0, "{long:?}");
    }
}

#[test]
fn workload_pipeline_approx() {
    let s = generate_string(&DatasetConfig::new(2500, 0.3, 77));
    let eps = 0.05;
    let idx = ApproxIndex::build(&s, 0.1, eps).unwrap();
    for pattern in sample_patterns(&s, 5, 10, PatternMode::Probable, 11) {
        for tau in [0.15, 0.4, 0.8] {
            let approx = idx.query(&pattern, tau).unwrap().positions();
            let exact = NaiveScanner::find(&s, &pattern, tau);
            let slack = NaiveScanner::find(&s, &pattern, tau - eps);
            assert!(exact.iter().all(|p| approx.contains(p)), "missed hits");
            assert!(approx.iter().all(|p| slack.contains(p)), "spurious hits");
        }
    }
}

#[test]
fn long_patterns_cross_blocking_threshold() {
    // Patterns past the ~log2(N) short levels exercise the blocking path:
    // at θ = 0.15 mostly to find nothing, at θ = 0.02 (long probable
    // factors) to find occurrences behind every long level asked.
    for theta in [0.15, 0.02] {
        let s = generate_string(&DatasetConfig::new(3000, theta, 31));
        let idx = Index::build(&s, 0.1).unwrap();
        let [first, second] = first_long_lengths(slots(&idx));
        for m in [first, second, 24, 32, 64] {
            let mut found = 0;
            for pattern in sample_patterns(&s, m, 4, PatternMode::Probable, 13) {
                let got = idx.query(&pattern, 0.1).unwrap().positions();
                let expected = NaiveScanner::find(&s, &pattern, 0.1);
                assert_eq!(got, expected, "m={m}");
                found += got.len();
            }
            assert!(theta > 0.1 || found > 0, "theta={theta} m={m}");
        }
    }
}

#[test]
fn theta_zero_and_theta_heavy_extremes() {
    for theta in [0.0, 0.5] {
        let s = generate_string(&DatasetConfig::new(800, theta, 3));
        let idx = Index::build(&s, 0.1).unwrap();
        for pattern in sample_patterns(&s, 4, 5, PatternMode::Probable, 5) {
            assert_eq!(
                idx.query(&pattern, 0.2).unwrap().positions(),
                NaiveScanner::find(&s, &pattern, 0.2),
                "theta={theta}"
            );
        }
    }
}

#[test]
fn query_error_paths() {
    let s = generate_string(&DatasetConfig::new(200, 0.2, 1));
    let idx = Index::build(&s, 0.2).unwrap();
    assert!(matches!(idx.query(b"", 0.5), Err(Error::EmptyPattern)));
    assert!(matches!(
        idx.query(b"A\0B", 0.5),
        Err(Error::PatternContainsSentinel)
    ));
    assert!(matches!(
        idx.query(b"AA", 0.1),
        Err(Error::ThresholdBelowTauMin { .. })
    ));
    assert!(matches!(
        idx.query(b"AA", -0.5),
        Err(Error::InvalidThreshold { .. })
    ));
    assert!(matches!(
        idx.query(b"AA", 1.01),
        Err(Error::InvalidThreshold { .. })
    ));
}

#[test]
fn or_metrics_on_generated_collection() {
    let docs = generate_collection(&DatasetConfig::new(600, 0.2, 42));
    let idx = ListingIndex::build(&docs, 0.05).unwrap();
    let all_worlds: Vec<u8> = docs[0].most_probable_world();
    let pattern = &all_worlds[0..2];
    for metric in [RelMetric::Or, RelMetric::IndependentOr] {
        let hits = idx.query_with_metric(pattern, 0.05, metric).unwrap();
        for h in &hits {
            assert!(h.relevance >= 0.05 - 1e-9);
            assert!(h.doc < docs.len());
        }
    }
}

#[test]
fn pattern_longer_than_any_factor_is_empty_not_wrong() {
    let s = generate_string(&DatasetConfig::new(300, 0.4, 8));
    let idx = Index::build(&s, 0.3).unwrap();
    // A 200-char pattern cannot reach probability 0.3 through θ=0.4
    // uncertainty; the index must return empty (and the scanner agrees).
    let world = s.most_probable_world();
    let pattern = &world[0..200];
    assert_eq!(
        idx.query(pattern, 0.3).unwrap().positions(),
        NaiveScanner::find(&s, pattern, 0.3)
    );
}

#[test]
fn build_stats_scale_sanely() {
    let small = Index::build(&generate_string(&DatasetConfig::new(500, 0.2, 2)), 0.1).unwrap();
    let large = Index::build(&generate_string(&DatasetConfig::new(5000, 0.2, 2)), 0.1).unwrap();
    assert!(large.stats().transformed_len > small.stats().transformed_len);
    assert!(large.stats().heap_bytes > small.stats().heap_bytes);
    assert!(large.stats().num_factors > small.stats().num_factors);
}
