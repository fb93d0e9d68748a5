//! The space budget of the general index (the paper's Fig. 9(c) axis, the
//! benchmark's `index_bytes_per_pos`): bytes per structure on a generated
//! 10 000-position string, printed as a table and pinned per row. A failure
//! here is a space regression — some structure grew — not a flake: every
//! number is a count.
//!
//! CI appends the table to the job summary
//! (`cargo test --release --test space_budget -- --nocapture`).

use uncertain_strings::{
    workload::{generate_string, DatasetConfig},
    Index,
};

/// The benchmark's construction threshold.
const TAU_MIN: f64 = 0.1;

/// `Index::heap_size()` per source position on this input when the budget
/// was last set (PR 22; 925.3 before it, with explicit tree nodes and a
/// sparse table per level).
const MEASURED_BYTES_PER_POS: f64 = 561.4;

#[test]
fn heap_breakdown_stays_inside_the_budget() {
    let n = 10_000;
    let s = generate_string(&DatasetConfig::new(n, 0.3, 43));
    let index = Index::build(&s, TAU_MIN).unwrap();
    let snapshot = index.to_snapshot();
    let slots = index.stats().transformed_len + 1;
    let short_levels = snapshot.substrate.levels.short.len();
    let rows = index.heap_breakdown();

    println!("| structure | bytes | B/position | B/slot |");
    println!("|---|---:|---:|---:|");
    let per = |bytes: usize, of: usize| bytes as f64 / of as f64;
    for (structure, bytes) in rows {
        println!(
            "| {structure} | {bytes} | {:.1} | {:.2} |",
            per(bytes, n),
            per(bytes, slots)
        );
    }
    let total = index.heap_size();
    println!(
        "| **`Index::heap_size()`** ({n} positions, {slots} slots, {short_levels} short levels) \
         | **{total}** | **{:.1}** | **{:.2}** |",
        per(total, n),
        per(total, slots)
    );

    assert_eq!(rows.iter().map(|&(_, bytes)| bytes).sum::<usize>(), total);
    assert!(
        per(total, n) <= MEASURED_BYTES_PER_POS * 1.05,
        "index grew: {:.1} B/position against {MEASURED_BYTES_PER_POS} when the budget was set",
        per(total, n)
    );
    let row = |name: &str| {
        let found = rows.iter().find(|&&(structure, _)| structure == name);
        found.unwrap_or_else(|| panic!("no {name:?} row")).1
    };
    assert!(per(row("child table"), slots) <= 8.0);
    assert!(per(row("short levels"), slots * short_levels) <= 0.5);

    let loaded = Index::from_snapshot(snapshot).unwrap();
    assert_eq!(loaded.heap_breakdown(), rows);
}
