//! Regenerates every figure of the paper's evaluation (Section 8).
//!
//! Usage:
//!   cargo run -p ustr-bench --release --bin figures -- \[PANEL\] \[--full\]
//!
//! PANEL ∈ {fig7a, fig7b, fig7c, fig7d, fig8a, fig8b, fig8c, fig8d,
//!          fig9a, fig9b, fig9c, all}. Default: all.
//!
//! `--full` uses the paper's n range (up to 300K positions); the default
//! uses reduced sizes that finish in a few minutes. Absolute times differ
//! from the paper's 2015 C++/i5 testbed; the *shapes* are the comparison
//! target (`benchmark/README.md` describes the gated `paper-string`
//! workload that measures the same axes).

#![forbid(unsafe_code)]

use std::time::Instant;

use ustr_bench::{avg_query_micros, listing_cell, print_table, substring_cell, THETAS};
use ustr_core::{Index, ListingIndex};
use ustr_workload::{generate_collection, generate_string, DatasetConfig};

struct Scale {
    /// n sweep for the (a) panels and Figure 9.
    ns: Vec<usize>,
    /// Fixed n for the τ/τmin/m sweeps.
    n_fixed: usize,
}

fn scale(full: bool) -> Scale {
    if full {
        Scale {
            ns: vec![2_000, 50_000, 100_000, 200_000, 300_000],
            n_fixed: 100_000,
        }
    } else {
        Scale {
            ns: vec![2_000, 10_000, 25_000, 50_000],
            n_fixed: 20_000,
        }
    }
}

const SEED: u64 = 0xEDB7_2016;
const TAU_MIN_DEFAULT: f64 = 0.1;
const TAU_DEFAULT: f64 = 0.2;

fn theta_cols(mut f: impl FnMut(f64) -> Vec<f64>) -> Vec<(String, Vec<f64>)> {
    THETAS
        .iter()
        .map(|&theta| (format!("theta={theta}"), f(theta)))
        .collect()
}

/// Fig 7(a): substring query time vs n.
fn fig7a(s: &Scale) {
    let xs: Vec<String> = s.ns.iter().map(|n| format!("{}", n / 1000)).collect();
    let cols = theta_cols(|theta| {
        s.ns.iter()
            .map(|&n| {
                let cell = substring_cell(n, theta, TAU_MIN_DEFAULT, SEED);
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, TAU_DEFAULT).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 7(a) substring search: query time vs n (x1000 positions)",
        "n/1000",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 7(b): substring query time vs τ (τmin fixed at 0.1).
fn fig7b(s: &Scale) {
    let taus = [0.10, 0.11, 0.12, 0.13, 0.14];
    let xs: Vec<String> = taus.iter().map(|t| format!("{t}")).collect();
    let cols = theta_cols(|theta| {
        let cell = substring_cell(s.n_fixed, theta, TAU_MIN_DEFAULT, SEED);
        taus.iter()
            .map(|&tau| {
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, tau).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 7(b) substring search: query time vs tau",
        "tau",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 7(c): substring query time vs τmin (index rebuilt per τmin).
fn fig7c(s: &Scale) {
    let tau_mins = [0.05, 0.10, 0.15, 0.20];
    let xs: Vec<String> = tau_mins.iter().map(|t| format!("{t}")).collect();
    let cols = theta_cols(|theta| {
        tau_mins
            .iter()
            .map(|&tau_min| {
                let cell = substring_cell(s.n_fixed, theta, tau_min, SEED);
                let tau = TAU_DEFAULT.max(tau_min);
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, tau).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 7(c) substring search: query time vs tau_min",
        "tau_min",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 7(d): substring query time vs pattern length m. This panel builds
/// at τmin = 0.05 and queries at τ = τmin so that long patterns keep
/// producing output; otherwise long queries exit at the locus and the
/// blocking path is never exercised (the paper's §8.2 notes the same
/// probability-horizon effect).
fn fig7d(s: &Scale) {
    let tau_min = 0.05;
    let ms = [5usize, 10, 15, 20, 25, 40, 80];
    let xs: Vec<String> = ms.iter().map(|m| format!("{m}")).collect();
    let cols = theta_cols(|theta| {
        let source = generate_string(&DatasetConfig::new(s.n_fixed, theta, SEED));
        let index = Index::build(&source, tau_min).expect("build");
        ms.iter()
            .map(|&m| {
                let patterns = ustr_workload::sample_patterns(
                    &source,
                    m,
                    ustr_bench::PATTERNS_PER_CELL,
                    ustr_workload::PatternMode::Probable,
                    SEED ^ m as u64,
                );
                avg_query_micros(
                    |p| {
                        let _ = index.query(p, tau_min).map(|r| r.len());
                    },
                    &patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 7(d) substring search: query time vs pattern length m",
        "m",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 8(a): listing query time vs n.
fn fig8a(s: &Scale) {
    let xs: Vec<String> = s.ns.iter().map(|n| format!("{}", n / 1000)).collect();
    let cols = theta_cols(|theta| {
        s.ns.iter()
            .map(|&n| {
                let cell = listing_cell(n, theta, TAU_MIN_DEFAULT, SEED);
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, TAU_DEFAULT).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 8(a) string listing: query time vs n (x1000 positions)",
        "n/1000",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 8(b): listing query time vs τ.
fn fig8b(s: &Scale) {
    let taus = [0.10, 0.11, 0.12, 0.13, 0.14];
    let xs: Vec<String> = taus.iter().map(|t| format!("{t}")).collect();
    let cols = theta_cols(|theta| {
        let cell = listing_cell(s.n_fixed, theta, TAU_MIN_DEFAULT, SEED);
        taus.iter()
            .map(|&tau| {
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, tau).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 8(b) string listing: query time vs tau",
        "tau",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 8(c): listing query time vs τmin.
fn fig8c(s: &Scale) {
    let tau_mins = [0.05, 0.10, 0.15, 0.20];
    let xs: Vec<String> = tau_mins.iter().map(|t| format!("{t}")).collect();
    let cols = theta_cols(|theta| {
        tau_mins
            .iter()
            .map(|&tau_min| {
                let cell = listing_cell(s.n_fixed, theta, tau_min, SEED);
                let tau = TAU_DEFAULT.max(tau_min);
                avg_query_micros(
                    |p| {
                        let _ = cell.index.query(p, tau).map(|r| r.len());
                    },
                    &cell.patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 8(c) string listing: query time vs tau_min",
        "tau_min",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 8(d): listing query time vs pattern length m (τmin = τ = 0.05, as
/// in 7d).
fn fig8d(s: &Scale) {
    let tau_min = 0.05;
    let ms = [5usize, 10, 15, 20, 25, 40];
    let xs: Vec<String> = ms.iter().map(|m| format!("{m}")).collect();
    let cols = theta_cols(|theta| {
        let docs = generate_collection(&DatasetConfig::new(s.n_fixed, theta, SEED));
        let index = ListingIndex::build(&docs, tau_min).expect("build");
        let concat = ustr_uncertain::UncertainString::new(
            docs.iter()
                .flat_map(|d| d.positions().iter().cloned())
                .collect(),
        );
        ms.iter()
            .map(|&m| {
                let patterns = ustr_workload::sample_patterns(
                    &concat,
                    m,
                    ustr_bench::PATTERNS_PER_CELL,
                    ustr_workload::PatternMode::Probable,
                    SEED ^ m as u64,
                );
                avg_query_micros(
                    |p| {
                        let _ = index.query(p, tau_min).map(|r| r.len());
                    },
                    &patterns,
                    3,
                )
            })
            .collect()
    });
    print_table(
        "Fig 8(d) string listing: query time vs pattern length m",
        "m",
        &xs,
        &cols,
        "us/query",
    );
}

/// Fig 9(a): construction time vs n.
fn fig9a(s: &Scale) {
    let xs: Vec<String> = s.ns.iter().map(|n| format!("{}", n / 1000)).collect();
    let cols = theta_cols(|theta| {
        s.ns.iter()
            .map(|&n| {
                let source = generate_string(&DatasetConfig::new(n, theta, SEED));
                let t0 = Instant::now();
                let idx = Index::build(&source, TAU_MIN_DEFAULT).expect("build");
                let secs = t0.elapsed().as_secs_f64();
                std::hint::black_box(idx.stats().transformed_len);
                secs
            })
            .collect()
    });
    print_table(
        "Fig 9(a) construction time vs n (x1000 positions)",
        "n/1000",
        &xs,
        &cols,
        "seconds",
    );
}

/// Fig 9(b): construction time vs τmin.
fn fig9b(s: &Scale) {
    let tau_mins = [0.05, 0.10, 0.15, 0.20];
    let xs: Vec<String> = tau_mins.iter().map(|t| format!("{t}")).collect();
    let cols = theta_cols(|theta| {
        let source = generate_string(&DatasetConfig::new(s.n_fixed, theta, SEED));
        tau_mins
            .iter()
            .map(|&tau_min| {
                // Average two builds: single-build times are allocator-noisy.
                let t0 = Instant::now();
                for _ in 0..2 {
                    let idx = Index::build(&source, tau_min).expect("build");
                    std::hint::black_box(idx.stats().transformed_len);
                }
                t0.elapsed().as_secs_f64() / 2.0
            })
            .collect()
    });
    print_table(
        "Fig 9(b) construction time vs tau_min",
        "tau_min",
        &xs,
        &cols,
        "seconds",
    );
}

/// Fig 9(c): index space vs n.
fn fig9c(s: &Scale) {
    let xs: Vec<String> = s.ns.iter().map(|n| format!("{}", n / 1000)).collect();
    let cols = theta_cols(|theta| {
        s.ns.iter()
            .map(|&n| {
                let source = generate_string(&DatasetConfig::new(n, theta, SEED));
                let idx = Index::build(&source, TAU_MIN_DEFAULT).expect("build");
                idx.stats().heap_mib()
            })
            .collect()
    });
    print_table(
        "Fig 9(c) index space vs n (x1000 positions)",
        "n/1000",
        &xs,
        &cols,
        "MiB",
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let panel = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("all");
    const PANELS: [&str; 12] = [
        "all", "fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig8d", "fig9a",
        "fig9b", "fig9c",
    ];
    if !PANELS.contains(&panel) {
        eprintln!("unknown panel {panel:?}; expected one of {PANELS:?}");
        std::process::exit(2);
    }
    let s = scale(full);

    println!(
        "# Probabilistic Threshold Indexing — figure harness ({} scale)",
        if full { "paper (--full)" } else { "reduced" }
    );
    println!(
        "# defaults: tau_min={TAU_MIN_DEFAULT}, tau={TAU_DEFAULT}, theta in {THETAS:?}, seed={SEED:#x}"
    );

    let t0 = Instant::now();
    let run = |name: &str| panel == "all" || panel == name;
    if run("fig7a") {
        fig7a(&s);
    }
    if run("fig7b") {
        fig7b(&s);
    }
    if run("fig7c") {
        fig7c(&s);
    }
    if run("fig7d") {
        fig7d(&s);
    }
    if run("fig8a") {
        fig8a(&s);
    }
    if run("fig8b") {
        fig8b(&s);
    }
    if run("fig8c") {
        fig8c(&s);
    }
    if run("fig8d") {
        fig8d(&s);
    }
    if run("fig9a") {
        fig9a(&s);
    }
    if run("fig9b") {
        fig9b(&s);
    }
    if run("fig9c") {
        fig9c(&s);
    }
    println!("\n# total harness time: {:?}", t0.elapsed());
}
