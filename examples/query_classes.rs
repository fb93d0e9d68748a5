//! Query time per pattern length on the `paper-string` benchmark's setup:
//! a 100 000-position string (θ = 0.3, seed 43, τmin = 0.1) and its pool of
//! 120 probable patterns at each m ∈ {3, 4, 6, 10, 100}, τ cycling through
//! {0.1, 0.2, 0.3, 0.4}. Prints, per m, the mean occurrences per threshold
//! query, the mean µs per query of threshold, top-10 and listing (each
//! query run once to warm, then three times timed; the quickest of five
//! passes), and m's share of the pool's threshold time.
//!
//! Run with: `cargo run --release --example query_classes`

use std::hint::black_box;
use std::time::Instant;

use uncertain_strings::{
    workload::{generate_collection, generate_string, sample_patterns, DatasetConfig, PatternMode},
    Index, ListingIndex,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DatasetConfig::new(100_000, 0.3, 43);
    let s = generate_string(&cfg);
    let index = Index::build(&s, 0.1)?;
    let listing = ListingIndex::build(&generate_collection(&cfg), 0.1)?;
    let taus = [0.1, 0.2, 0.3, 0.4];

    let mut pool_len = 0usize;
    let mut rows = Vec::new();
    for m in [3usize, 4, 6, 10, 100] {
        let mut class = Vec::new();
        for p in sample_patterns(&s, m, 120, PatternMode::Probable, 43 ^ ((m as u64) << 8)) {
            class.push((p, taus[pool_len % taus.len()]));
            pool_len += 1;
        }
        let mut occ = 0;
        for (p, tau) in &class {
            occ += index.query(p, *tau)?.len();
        }
        let mut us = [f64::MAX; 3];
        for _ in 0..5 {
            for (mode, best) in us.iter_mut().enumerate() {
                let mut spent = 0.0;
                for (p, tau) in &class {
                    let run = || match mode {
                        0 => drop(black_box(index.query(p, *tau))),
                        1 => drop(black_box(index.query_top_k(p, 10))),
                        _ => drop(black_box(listing.query(p, *tau))),
                    };
                    run();
                    let t0 = Instant::now();
                    (0..3).for_each(|_| run());
                    spent += t0.elapsed().as_secs_f64() * 1e6 / 3.0;
                }
                *best = best.min(spent / class.len() as f64);
            }
        }
        rows.push((m, class.len(), occ as f64 / class.len() as f64, us));
    }

    let total = |mode: usize| -> f64 { rows.iter().map(|r| r.3[mode] * r.1 as f64).sum() };
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>10} {:>16}",
        "m", "occ/query", "threshold", "top-10", "listing", "threshold share"
    );
    for &(m, queries, occ, us) in &rows {
        let share = 100.0 * us[0] * queries as f64 / total(0);
        println!(
            "{m:>4} {occ:>12.1} {:>10.2}us {:>8.2}us {:>8.2}us {share:>15.0}%",
            us[0], us[1], us[2]
        );
    }
    let pool = pool_len as f64;
    println!(
        "pool {:>12.1} {:>10.2}us {:>8.2}us {:>8.2}us",
        rows.iter().map(|r| r.2 * r.1 as f64).sum::<f64>() / pool,
        total(0) / pool,
        total(1) / pool,
        total(2) / pool
    );
    Ok(())
}
