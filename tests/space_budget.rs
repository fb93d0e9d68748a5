//! The space budget of the general index (the paper's Fig. 9(c) axis, the
//! benchmark's `index_bytes_per_pos`), of the §7 approximate index
//! (`core.approx_heap_bytes_per_pos`), of the §6 listing index over the
//! same positions cut into documents (`core.listing_heap_bytes_per_pos`),
//! of an index file (`snapshot_bytes_per_pos` on `paper-string`) and of a
//! collection file (`snapshot_bytes_per_pos` on `serve-wire`): bytes per
//! structure on a generated 10 000-position string, and per section kind
//! for the benchmark's 62 short documents, printed as tables and pinned
//! per row. A failure here is a space regression — some structure grew —
//! not a flake: every number is a count.
//!
//! CI appends the tables to the job summary (`cargo test --release --test
//! space_budget -- --nocapture --test-threads=1`).

use uncertain_strings::{
    store::{write_collection, CollectionSection},
    uncertain::ProbPlane,
    workload::{generate_collection, generate_string, DatasetConfig},
    ApproxIndex, Index, ListingIndex, Snapshot, SnapshotKind, UncertainString,
};

/// The benchmark's construction threshold and additive error.
const TAU_MIN: f64 = 0.1;
const EPSILON: f64 = 0.05;

/// The `paper-string` configuration at a tenth of its length.
fn config() -> DatasetConfig {
    DatasetConfig::new(10_000, 0.3, 43)
}

/// The `paper-string` input at a tenth of its length.
fn string() -> (usize, UncertainString) {
    let s = generate_string(&config());
    (s.len(), s)
}

fn per(bytes: usize, of: usize) -> f64 {
    bytes as f64 / of as f64
}

/// Prints `rows` (the whole footprint `total` of the structure `what`) as a
/// table and holds the total to its `budget` in bytes per position, +5 %.
fn check_heap_rows(
    what: &str,
    rows: &[(&str, usize)],
    total: usize,
    n: usize,
    slots: usize,
    budget: f64,
) {
    println!("\n\n| structure | bytes | B/position | B/slot |");
    println!("|---|---:|---:|---:|");
    let line = |name: &str, bytes: usize, bold: &str| {
        println!(
            "| {bold}{name}{bold} | {bold}{bytes}{bold} | {bold}{:.1}{bold} | {bold}{:.2}{bold} |",
            per(bytes, n),
            per(bytes, slots)
        );
    };
    for &(structure, bytes) in rows {
        line(structure, bytes, "");
    }
    line(what, total, "**");
    assert_eq!(rows.iter().map(|&(_, bytes)| bytes).sum::<usize>(), total);
    assert!(
        per(total, n) <= budget * 1.05,
        "{what} grew: {:.1} B/position against {budget} when the budget was set",
        per(total, n)
    );
}

/// `Index::heap_size()` per source position on this input when the budget
/// was last set (PR 26, which made the plane the one copy of the model, with
/// probability rows only at uncertain positions; 561.4 at PR 23, which did
/// not count the ≈ 58 B of source copy beside the plane; 925.3 before PR 23,
/// with explicit tree nodes and a sparse table per level).
const MEASURED_BYTES_PER_POS: f64 = 452.3;

#[test]
fn heap_breakdown_stays_inside_the_budget() {
    let (n, s) = string();
    let index = Index::build(&s, TAU_MIN).unwrap();
    let snapshot = index.to_snapshot();
    let slots = index.stats().transformed_len + 1;
    let short_levels = snapshot.substrate.levels.short.len();
    let rows = index.heap_breakdown();

    let what =
        format!("`Index::heap_size()` ({n} positions, {slots} slots, {short_levels} short levels)");
    let total = index.heap_size();
    check_heap_rows(&what, &rows, total, n, slots, MEASURED_BYTES_PER_POS);
    let row = |name: &str| {
        let found = rows.iter().find(|&&(structure, _)| structure == name);
        found.unwrap_or_else(|| panic!("no {name:?} row")).1
    };
    assert!(per(row("child table"), slots) <= 8.0);
    assert!(per(row("short levels"), slots * short_levels) <= 0.5);
    // Probability rows only where the kernel reads one: σ cells at each
    // uncertain position, plus the per-position sidecars and the uncertain
    // positions' choices verbatim.
    let plane = per(row("model (plane)"), n);
    let rows_budget = s.uncertain_fraction() * ProbPlane::build(&s).sigma() as f64 * 8.0;
    assert!(
        plane <= rows_budget + 24.0,
        "the plane holds {plane:.1} B/position against {rows_budget:.1} of uncertain rows"
    );

    let loaded = Index::from_snapshot(snapshot).unwrap();
    assert_eq!(loaded.heap_breakdown(), rows);
}

/// `ApproxIndex` heap per source position on the same input when the budget
/// was last set (PR 24; 1 322.3 before it, when the index kept `C`, the
/// boundary names and the LCP RMQ it had found its links with).
const APPROX_MEASURED_BYTES_PER_POS: f64 = 1005.4;

#[test]
fn approx_heap_breakdown_stays_inside_the_budget() {
    let (n, s) = string();
    let approx = ApproxIndex::build(&s, TAU_MIN, EPSILON).unwrap();
    let slots = approx.stats().transformed_len + 1;
    let rows = approx.heap_breakdown();

    let what = format!(
        "`ApproxIndex` heap ({n} positions, {slots} slots, {} links)",
        approx.num_links()
    );
    let total = approx.stats().heap_bytes;
    check_heap_rows(&what, &rows, total, n, slots, APPROX_MEASURED_BYTES_PER_POS);
    // Text 1 + SA 4 + LCP 4 + child table 4, and two rank arrays.
    assert!(per(rows[0].1, slots) <= 13.01);
    assert!(per(rows[1].1, slots) <= 8.01);
}

/// `ListingIndex::heap_size()` per source position over the same positions
/// cut into documents when the budget was set (PR 26, the first count of
/// everything the index holds: 549.8 on `paper-string` before it, without
/// the documents' source copies or the planes' slots).
const LISTING_MEASURED_BYTES_PER_POS: f64 = 450.6;

#[test]
fn listing_heap_stays_inside_the_budget() {
    let docs = generate_collection(&config());
    let n: usize = docs.iter().map(UncertainString::len).sum();
    let listing = ListingIndex::build(&docs, TAU_MIN).unwrap();
    let slots = listing.stats().transformed_len + 1;
    let models: usize = (docs.iter())
        .map(|d| ProbPlane::build(d).heap_size() + std::mem::size_of::<ProbPlane>())
        .sum();
    let total = listing.heap_size();
    let rows = [
        ("substrate + document maps", total - models),
        ("models (one plane per document)", models),
    ];
    let what = format!(
        "`ListingIndex::heap_size()` ({} documents, {n} positions, {slots} slots)",
        docs.len()
    );
    check_heap_rows(
        &what,
        &rows,
        total,
        n,
        slots,
        LISTING_MEASURED_BYTES_PER_POS,
    );
}

/// `.idx` bytes per source position of the 10 000-position string when the
/// budget was set (snapshot format 5, which writes integer arrays as
/// varints: 261.8 in format 4).
const IDX_BYTES_PER_POS: f64 = 180.4;

/// The `paper-string` snapshot (`snapshot_bytes_per_pos`) at a tenth.
#[test]
fn index_file_bytes_stay_inside_the_budget() {
    let (n, s) = string();
    let mut bytes = Vec::new();
    Index::build(&s, TAU_MIN)
        .unwrap()
        .write_snapshot(&mut bytes)
        .unwrap();
    println!("\n\n| file | bytes | B/position |");
    println!("|---|---:|---:|");
    println!(
        "| `.idx` ({n} positions, format 5) | {} | {:.1} |",
        bytes.len(),
        per(bytes.len(), n)
    );
    assert!(per(bytes.len(), n) <= IDX_BYTES_PER_POS * 1.05);
}

/// Section bytes per source position of the collection below when the
/// budget was last set (snapshot format 5, which writes integer arrays as
/// varints: 291.3 and 579.8 in format 4): substring-index sections (292.8
/// in format 3, with their long-level lengths) and approx-index sections
/// (667.6 in format 3, with their prefix sums).
const COLL_INDEX_BYTES_PER_POS: f64 = 186.1;
const COLL_APPROX_BYTES_PER_POS: f64 = 294.7;

/// The `serve-wire` collection — 62 documents of 20–45 positions — as the
/// `.coll` file `build-collection --epsilon 0.05` writes, split by section
/// kind.
#[test]
fn collection_file_bytes_stay_inside_the_budget() {
    let docs = generate_collection(&DatasetConfig::new(2_000, 0.25, 43));
    let positions: usize = docs.iter().map(UncertainString::len).sum();
    let mut sections = Vec::new();
    for (doc, d) in docs.iter().enumerate() {
        let mut section = |kind, bytes| sections.push(CollectionSection { doc, kind, bytes });
        let mut bytes = Vec::new();
        Index::build(d, TAU_MIN)
            .unwrap()
            .write_snapshot(&mut bytes)
            .unwrap();
        section(SnapshotKind::Index, bytes);
        let mut bytes = Vec::new();
        ApproxIndex::build(d, TAU_MIN, EPSILON)
            .unwrap()
            .write_snapshot(&mut bytes)
            .unwrap();
        section(SnapshotKind::Approx, bytes);
    }
    let mut file = Vec::new();
    write_collection(&mut file, docs.len(), 1, &sections).unwrap();

    let of_kind = |kind| -> usize {
        let of_kind = sections.iter().filter(|s| s.kind == kind);
        of_kind.map(|s| s.bytes.len()).sum()
    };
    let (index, approx) = (of_kind(SnapshotKind::Index), of_kind(SnapshotKind::Approx));
    println!("\n\n| .coll part | bytes | B/position | share |");
    println!("|---|---:|---:|---:|");
    for (part, bytes) in [
        ("index sections", index),
        ("approx sections", approx),
        ("header + manifest", file.len() - index - approx),
    ] {
        println!(
            "| {part} | {bytes} | {:.1} | {:.1} % |",
            per(bytes, positions),
            100.0 * per(bytes, file.len())
        );
    }
    println!(
        "| **file** ({} documents, {positions} positions) | **{}** | **{:.1}** | |",
        docs.len(),
        file.len(),
        per(file.len(), positions)
    );

    assert_eq!(docs.len(), 62);
    assert!(per(index, positions) <= COLL_INDEX_BYTES_PER_POS * 1.05);
    assert!(per(approx, positions) <= COLL_APPROX_BYTES_PER_POS * 1.05);
}
