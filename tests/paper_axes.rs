//! The paper's §8 axes as counts: index space against τmin and n (Fig. 9),
//! the suffix-array slots an index keeps per position against its
//! ⌊1/τmin⌋ bound, kernel work per occurrence against n, m and τ (Fig. 7),
//! and the §4.1
//! ablation — how many suffix-array slots the simple index scans for the
//! occurrences the RMQ levels report. Every number is a count over the
//! shared §8.1 generator at a fixed seed, so a failure is a change in what
//! the index holds or reads, not a flake; the tables are printed.
//!
//! CI appends the tables to the job summary (`cargo test --release --test
//! paper_axes -- --nocapture --test-threads=1`).

mod common;

use std::sync::OnceLock;

use uncertain_strings::{
    uncertain::kstats,
    workload::{generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode},
    Index, ListingIndex, SimpleIndex, UncertainString,
};

const SEED: u64 = 43;

/// The benchmark's construction threshold and uncertain fraction, at which
/// the n sweep runs.
const TAU_MIN: f64 = 0.1;
const THETA: f64 = 0.3;

/// Fig. 7's query lengths: 3–10 run on the short levels (`L` = 14–18 over
/// the slots the n sweep's indexes keep), 25 on a long level, and 100 is
/// past every factor.
const LENGTHS: [usize; 6] = [3, 4, 6, 10, 25, 100];
const TAUS: [f64; 3] = [0.1, 0.2, 0.4];
const PATTERNS_PER_LENGTH: usize = 40;

/// The longest of [`LENGTHS`] that runs on a short level, where a level's
/// dedup mask reports each source position once.
const SHORT: usize = 10;

/// Least total simple-index range width per occurrence, m ≤ 10, in every
/// (n, m, τ) cell: the table read 2.45–19.00 when this was set (2.45–5.26
/// at τ 0.1, where the most slots pass).
const SIMPLE_SCAN_PER_OCC: f64 = 2.0;

fn per_position(bytes: usize, n: usize) -> f64 {
    bytes as f64 / n as f64
}

/// Fig. 9(a)–(b): bytes per position rise as τmin falls, for `Index` over
/// one string and for `ListingIndex` over the same generator's documents.
///
/// Fig. 9 also draws space rising with θ. On this generator it does not
/// (at τmin 0.2, θ 0.3 reads less than θ 0.1; at τmin 0.05, more than θ
/// 0.6): an uncertain position gets about `edits_per_neighbor` alternative
/// votes against `1 + θ·len` base votes, so each pdf sharpens as θ rises
/// while the number of uncertain positions grows. Only the τmin direction
/// is asserted.
#[test]
fn space_rises_as_tau_min_falls() {
    const N: usize = 5_000;
    const TAU_MINS: [f64; 3] = [0.2, 0.1, 0.05];
    const THETAS: [f64; 3] = [0.1, 0.3, 0.6];
    println!("\n\n| τmin | θ | Index B/position | ListingIndex B/position | expansion |");
    println!("|---:|---:|---:|---:|---:|");
    for theta in THETAS {
        let config = DatasetConfig::new(N, theta, SEED);
        let s = generate_string(&config);
        let docs = generate_collection(&config);
        let listing_n: usize = docs.iter().map(UncertainString::len).sum();
        let mut last = (0.0, 0.0);
        for tau_min in TAU_MINS {
            let index = Index::build(&s, tau_min).unwrap();
            let listing = ListingIndex::build(&docs, tau_min).unwrap();
            let bytes = (
                per_position(index.heap_size(), N),
                per_position(listing.heap_size(), listing_n),
            );
            println!(
                "| {tau_min} | {theta} | {:.1} | {:.1} | {:.2} |",
                bytes.0,
                bytes.1,
                index.stats().expansion()
            );
            assert!(
                bytes.0 > last.0 && bytes.1 > last.1,
                "θ {theta}: at τmin {tau_min} the indexes hold {bytes:.1?} B/position, \
                 not more than {last:.1?} at the τmin above"
            );
            last = bytes;
        }
    }
}

/// Fig. 9's axis as a bound: the suffix-array slots an `Index` keeps — those
/// a query can reach, the kept windows of one source position prefix-free —
/// are at most ⌊1/τmin⌋ per source position on uncorrelated input, where
/// the transform's text grows as 1/τmin². Each row prints the text and the
/// kept slots per position and the index's bytes per position; one
/// correlated row (whose window values are upper bounds, so the bound is
/// not guaranteed) is printed and not asserted.
#[test]
fn kept_slots_are_at_most_one_over_tau_min_a_position() {
    const N: usize = 10_000;
    const TAU_MINS: [f64; 3] = [0.2, 0.1, 0.05];
    const THETAS: [f64; 3] = [0.1, 0.3, 0.6];
    println!(
        "\n\n| θ | τmin | text / position | kept slots / position | ⌊1/τmin⌋ | Index B/position |"
    );
    println!("|---:|---:|---:|---:|---:|---:|");
    // The kept slots of `s`'s index at `tau_min`, after its row.
    let row = |theta: &str, tau_min: f64, s: &UncertainString| {
        let index = Index::build(s, tau_min).unwrap();
        let kept = index.to_snapshot().substrate.text.sa.len();
        println!(
            "| {theta} | {tau_min} | {:.2} | {:.2} | {} | {:.1} |",
            per_position(index.stats().transformed_len, N),
            per_position(kept, N),
            (1.0 / tau_min).floor(),
            per_position(index.heap_size(), N)
        );
        kept
    };
    for theta in THETAS {
        let s = generate_string(&DatasetConfig::new(N, theta, SEED));
        for tau_min in TAU_MINS {
            let kept = row(&theta.to_string(), tau_min, &s);
            let bound = (1.0 / tau_min).floor() as usize * N;
            assert!(
                kept <= bound,
                "θ {theta}, τmin {tau_min}: {kept} slots kept, past {bound}"
            );
        }
    }
    row("0.3, correlated", TAU_MIN, &common::correlated(N, SEED));
}

/// One size of the n sweep: the string, both indexes over it at
/// [`TAU_MIN`], and Fig. 7's patterns.
struct Built {
    n: usize,
    index: Index,
    simple: SimpleIndex,
    patterns: Vec<(usize, Vec<Vec<u8>>)>,
}

/// The n sweep, built once for the tests that read it.
fn sweep() -> &'static [Built] {
    static SWEEP: OnceLock<Vec<Built>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        [5_000, 20_000, 80_000]
            .into_iter()
            .map(|n| {
                let s = generate_string(&DatasetConfig::new(n, THETA, SEED));
                let patterns = (LENGTHS.into_iter())
                    .map(|m| {
                        let mode = PatternMode::Probable;
                        (m, sample_patterns(&s, m, PATTERNS_PER_LENGTH, mode, SEED))
                    })
                    .collect();
                Built {
                    n,
                    index: Index::build(&s, TAU_MIN).unwrap(),
                    simple: SimpleIndex::build(&s, TAU_MIN).unwrap(),
                    patterns,
                }
            })
            .collect()
    })
}

/// Fig. 9(c): linear space — bytes per position within ±10 % of the
/// smallest size's at every n.
#[test]
fn space_per_position_is_flat_in_n() {
    println!("\n\n| n | Index B/position | expansion |");
    println!("|---:|---:|---:|");
    let sweep = sweep();
    let first = per_position(sweep[0].index.heap_size(), sweep[0].n);
    for built in sweep {
        let bytes = per_position(built.index.heap_size(), built.n);
        println!(
            "| {} | {bytes:.1} | {:.2} |",
            built.n,
            built.index.stats().expansion()
        );
        assert!(
            (bytes / first - 1.0).abs() <= 0.1,
            "n {}: {bytes:.1} B/position against {first:.1} at n {}",
            built.n,
            sweep[0].n
        );
    }
}

/// Fig. 7 as kernel work: every candidate the levels hand the kernel is a
/// verified hit, on a short level every verified hit is a distinct
/// occurrence (one verification per occurrence at every n), and fewer
/// candidates pass a higher τ.
#[test]
fn kernel_work_is_one_verification_per_occurrence() {
    println!("\n\n| n | m | τ | candidates | verified | occurrences | verified/occ |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    for built in sweep() {
        for (m, patterns) in &built.patterns {
            let mut last_candidates = u64::MAX;
            for tau in TAUS {
                let before = kstats::thread_totals();
                let occ: usize = (patterns.iter())
                    .map(|p| built.index.query(p, tau).unwrap().len())
                    .sum();
                let work = kstats::thread_totals().since(&before);
                let occ = occ as u64;
                println!(
                    "| {} | {m} | {tau} | {} | {} | {occ} | {:.2} |",
                    built.n,
                    work.candidates,
                    work.verified,
                    work.verified as f64 / occ.max(1) as f64
                );
                let cell = format!("n {}, m {m}, τ {tau}", built.n);
                assert_eq!(work.candidates, work.verified, "{cell}");
                if *m <= SHORT {
                    assert_eq!(work.verified, occ, "{cell}: verified hits");
                }
                assert!(
                    work.candidates <= last_candidates,
                    "{cell}: {} candidates, more than {last_candidates} at the τ below",
                    work.candidates
                );
                last_candidates = work.candidates;
            }
        }
    }
}

/// §4.1's ablation as a count: the simple index scans its whole suffix
/// range, at least every occurrence and, on short patterns, a constant
/// multiple of them, for the answer the RMQ levels report without the scan.
#[test]
fn simple_index_scans_a_multiple_of_the_occurrences() {
    println!("\n\n| n | m | τ | simple-index range width | occurrences | width/occ |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for built in sweep() {
        for (m, patterns) in &built.patterns {
            let width: usize = patterns.iter().map(|p| built.simple.candidates(p)).sum();
            for tau in TAUS {
                let mut occ = 0;
                for p in patterns {
                    let positions = built.index.query(p, tau).unwrap().positions();
                    assert_eq!(built.simple.query(p, tau).unwrap(), positions);
                    occ += positions.len();
                }
                let ratio = width as f64 / occ.max(1) as f64;
                println!(
                    "| {} | {m} | {tau} | {width} | {occ} | {ratio:.2} |",
                    built.n
                );
                let cell = format!("n {}, m {m}, τ {tau}", built.n);
                assert!(
                    width >= occ,
                    "{cell}: range width {width} < {occ} occurrences"
                );
                if *m <= SHORT {
                    assert!(
                        ratio >= SIMPLE_SCAN_PER_OCC,
                        "{cell}: range width {width} for {occ} occurrences"
                    );
                }
            }
        }
    }
}
