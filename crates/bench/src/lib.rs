//! Experiment cells and measurement helpers of the `figures` harness
//! (Section 8 of the paper), plus the JSON reader `benchmark/` borrows
//! ([`gate`]). Timing that gates a PR lives in `benchmark/` alone.

#![forbid(unsafe_code)]

pub mod gate;

use std::time::Instant;

use ustr_core::{Index, ListingIndex};
use ustr_uncertain::UncertainString;
use ustr_workload::{
    generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode,
};

/// θ sweep used by every figure.
pub const THETAS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

/// Query lengths averaged in Figures 7a/8a (the paper uses 10, 100, 500,
/// 1000; lengths beyond the probability horizon simply return empty fast,
/// exactly as in the paper).
pub const QUERY_LENGTHS: [usize; 4] = [10, 100, 500, 1000];

/// Patterns per (length, dataset) cell.
pub const PATTERNS_PER_CELL: usize = 25;

/// One experiment cell: a built index plus its query workload.
pub struct SubstringCell {
    pub source: UncertainString,
    pub index: Index,
    pub patterns: Vec<Vec<u8>>,
}

/// Builds the substring-search cell for (n, θ, τmin) with the standard
/// mixed-length query workload.
pub fn substring_cell(n: usize, theta: f64, tau_min: f64, seed: u64) -> SubstringCell {
    let source = generate_string(&DatasetConfig::new(n, theta, seed));
    let index = Index::build(&source, tau_min).expect("index build");
    let mut patterns = Vec::new();
    for (k, &m) in QUERY_LENGTHS.iter().enumerate() {
        if m > n {
            continue;
        }
        patterns.extend(sample_patterns(
            &source,
            m,
            PATTERNS_PER_CELL,
            PatternMode::Probable,
            seed ^ (k as u64 + 1),
        ));
    }
    SubstringCell {
        source,
        index,
        patterns,
    }
}

/// One listing cell: collection + index + workload.
pub struct ListingCell {
    pub docs: Vec<UncertainString>,
    pub index: ListingIndex,
    pub patterns: Vec<Vec<u8>>,
}

/// Builds the listing cell for (n, θ, τmin). Patterns are sampled from the
/// concatenated collection; lengths are capped by the document lengths.
pub fn listing_cell(n: usize, theta: f64, tau_min: f64, seed: u64) -> ListingCell {
    let docs = generate_collection(&DatasetConfig::new(n, theta, seed));
    let index = ListingIndex::build(&docs, tau_min).expect("listing build");
    let concat = UncertainString::new(
        docs.iter()
            .flat_map(|d| d.positions().iter().cloned())
            .collect(),
    );
    let mut patterns = Vec::new();
    for (k, m) in [4usize, 8, 12, 16].into_iter().enumerate() {
        patterns.extend(sample_patterns(
            &concat,
            m,
            PATTERNS_PER_CELL,
            PatternMode::Probable,
            seed ^ (k as u64 + 11),
        ));
    }
    ListingCell {
        docs,
        index,
        patterns,
    }
}

/// Average query latency over a pattern set (microseconds).
pub fn avg_query_micros(mut query: impl FnMut(&[u8]), patterns: &[Vec<u8>], repeat: usize) -> f64 {
    if patterns.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for _ in 0..repeat {
        for p in patterns {
            query(p);
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (patterns.len() * repeat) as f64
}

/// Renders one figure series as an aligned table: rows = sweep values,
/// one column per θ.
pub fn print_table(
    title: &str,
    x_label: &str,
    xs: &[String],
    columns: &[(String, Vec<f64>)],
    unit: &str,
) {
    println!("\n## {title}");
    print!("{x_label:>12}");
    for (name, _) in columns {
        print!(" {name:>14}");
    }
    println!("   ({unit})");
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, series) in columns {
            print!(" {:>14.3}", series[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_build_and_answer() {
        let cell = substring_cell(2000, 0.2, 0.1, 1);
        assert!(!cell.patterns.is_empty());
        let hits = cell.index.query(&cell.patterns[0], 0.2).unwrap();
        let _ = hits.len();
        let cell = listing_cell(1000, 0.2, 0.1, 1);
        assert!(!cell.patterns.is_empty());
        let _ = cell.index.query(&cell.patterns[0], 0.2).unwrap();
    }

    #[test]
    fn timing_helpers_return_positive() {
        let micros = avg_query_micros(|_| (), &[vec![1u8]], 2);
        assert!(micros >= 0.0);
    }
}
