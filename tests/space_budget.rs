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
    service::{save_coll, DocExecutor, QueryService, Segment, SegmentSet, ServiceConfig},
    store::{read_collection_manifest, RealIo, FORMAT_VERSION},
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

/// `Index::heap_size()` per source position on this input when the budget was
/// last set, once the suffix tree's child table held an `i16` offset per slot
/// (293.0 before, the figure once the short levels' duplicate masks, a bit per
/// slot per level, became one visibility byte per slot for all of them; 303.9
/// before that, the figure once the plane stored a cell per choice and a
/// one-word rank-bitmap record per uncertain row instead of σ cells; 345.9
/// before that, the figure once the LCP became a byte per slot and the long
/// levels ended at the longest separator-free stretch; 380.8 before that, the
/// figure since `C` kept only its prefix sums and the position map became a
/// separator rank and one base per factor; 452.3 before that, with a `u32` per
/// character for each — the figure since the plane became the one copy of the
/// model, with probability rows only at uncertain positions; 561.4 before that,
/// not counting the ≈ 58 B of source copy beside the plane; 925.3 with explicit
/// tree nodes and a sparse table per level).
const MEASURED_BYTES_PER_POS: f64 = 274.0;

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
    // An `i16` cell per slot, plus the few cells more than 32 767 slots
    // from their value, a `u32` per 256 slots to find them and the root's
    // children: 2.02 B/slot when set, +5 % (4.0 with a `u32` cell, which
    // the row held to 8.0).
    assert!(per(row("child table"), slots) <= 2.12);
    // A text byte, a `u32` SA entry and an LCP byte per slot: no LCP entry
    // of this text reaches 255, so its exception list is empty.
    assert!(per(row("text + SA + LCP"), slots) <= 6.0);
    // What the short levels hide is one byte per slot for all of them; each
    // level is a champion per 64 slots and the block RMQ over their values.
    assert_eq!(row("visibility bytes"), slots);
    assert!(per(row("short levels"), slots * short_levels) <= 0.35);
    // The position map: 16 bytes per 64 characters (0.25 B a character),
    // and 4 B a factor.
    assert!(row("separator rank") <= (slots - 1).div_ceil(64) * 16);
    assert_eq!(row("factor bases"), index.stats().num_factors * 4);
    // Only the choices: at each uncertain position a one-word record (σ ≤
    // 32) and, per choice, its `ln p` cell and its probability verbatim;
    // then per position a `u32` run length, a byte and σ presence bits, and
    // a byte of slack for the masks, bases and alphabet.
    let (uncertain, choices) = (s.positions().iter())
        .filter(|p| !matches!(p.choices(), &[(_, pr)] if pr.to_bits() == 1.0f64.to_bits()))
        .fold((0, 0), |(u, c), p| (u + 1, c + p.num_choices()));
    let sigma = ProbPlane::build(&s).sigma();
    assert!(sigma <= 32);
    let rows_budget = per(uncertain * 8 + choices * 16, n);
    let sidecars = 4.0 + 1.0 + sigma as f64 / 8.0 + 1.0;
    let plane = per(row("model (plane)"), n);
    assert!(
        plane <= rows_budget + sidecars,
        "the plane holds {plane:.1} B/position against {rows_budget:.1} of uncertain rows \
         and {sidecars:.1} of sidecars"
    );

    let loaded = Index::from_snapshot(snapshot).unwrap();
    assert_eq!(loaded.heap_breakdown(), rows);
}

/// `ApproxIndex` heap per source position on the same input when the budget
/// was last set: what the links add to the `Index` whose text they hang
/// off, once their origins were keyed as the tree keys its nodes (879.5
/// before, with 77.5 of preorder ranks; 1 005.4 before that, with a suffix
/// tree of its own; 1 322.3 before that, when the index kept `C`, the
/// boundary names and the LCP RMQ it had found its links with).
const APPROX_MEASURED_BYTES_PER_POS: f64 = 802.0;

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
    // No tree of its own and nothing numbered beside it: 24 bytes a link.
    assert_eq!(rows.map(|(name, _)| name), ["links", "link RMQ"]);
    assert!(per(rows[0].1, approx.num_links()) <= 24.01);
}

/// `ListingIndex::heap_size()` per source position over the same positions cut
/// into documents when the budget was last set, once the suffix tree's child
/// table held an `i16` offset per slot (286.0 before, the figure once each
/// document's plane stored only its choices; 326.1 before that, the figure once
/// the LCP became a byte per slot and the long levels ended at the longest
/// separator-free stretch; 360.8 before that, the figure since its document and
/// source maps — 8 B a character — became a factor map and a document id per
/// factor; 450.6 before that, the first count of everything the index holds:
/// 549.8 on `paper-string` before it, without the documents' source copies or
/// the planes' slots).
const LISTING_MEASURED_BYTES_PER_POS: f64 = 270.0;

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
/// budget was set (snapshot format 12, which writes a visibility byte per slot
/// in place of the short levels' mask words: 94.6 in format 11, which writes no
/// long level past the longest separator-free stretch; 94.9 in format 8, which
/// writes no `C` and one position map entry per factor; 180.3 in formats 6 and
/// 7, which wrote lengths and stats as varints too; 180.4 in format 5, which
/// wrote integer arrays as varints; 261.8 in format 4).
const IDX_BYTES_PER_POS: f64 = 83.7;

/// The `paper-string` snapshot (`snapshot_bytes_per_pos`) at a tenth.
#[test]
fn index_file_bytes_stay_inside_the_budget() {
    let (n, s) = string();
    let path = std::env::temp_dir().join(format!("ustr_space_budget.{}.idx", std::process::id()));
    Index::build(&s, TAU_MIN).unwrap().save(&path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    std::fs::remove_file(&path).unwrap();
    println!("\n\n| file | bytes | B/position |");
    println!("|---|---:|---:|");
    println!(
        "| `.idx` ({n} positions, format {FORMAT_VERSION}) | {len} | {:.1} |",
        per(len, n)
    );
    assert!(per(len, n) <= IDX_BYTES_PER_POS * 1.05);
}

/// Section bytes per source position of the collection below when the budget
/// was set: substring-index sections (format 12, with a visibility byte per
/// slot in place of the short levels' mask words; 81.0 in format 11, without
/// long levels past the longest separator-free stretch; 81.9 in format 8,
/// without `C` and with one map entry per factor; 178.9 in formats 6 and 7;
/// 186.1 in format 5, with `u64` lengths; 291.3 in format 4). Until format 10 a
/// document served with ε also had an approx section of its links (96.2 in
/// format 9; 96.0 in format 8; 294.7 in format 5; 579.8 in format 4); since,
/// `Approx` is answered by the index.
const COLL_INDEX_BYTES_PER_POS: f64 = 78.4;

/// Bytes per source position of the same collection's bigram document
/// filters when the budget was set, served as `serve-wire` serves it: two
/// segments of 31 documents, each a table of σ² one-word cells over its
/// 22 letters (3 872 B) and the table's own allocation. Derived at load,
/// never in the file, and outside `index_bytes_per_pos`.
const FILTER_BYTES_PER_POS: f64 = 4.2;

/// The `serve-wire` collection — 62 documents of 20–45 positions — as the
/// `.coll` file `save_coll` writes over `DocExecutor::build` (what
/// `build-collection` writes), split into index sections and framing, and
/// beside it the document filters its two served segments hold.
#[test]
fn collection_file_bytes_stay_inside_the_budget() {
    let docs = generate_collection(&DatasetConfig::new(2_000, 0.25, 43));
    let positions: usize = docs.iter().map(UncertainString::len).sum();
    let built: Vec<DocExecutor> = (docs.iter())
        .map(|d| DocExecutor::build(d, TAU_MIN).unwrap())
        .collect();
    let path = std::env::temp_dir().join(format!("ustr_space_budget.{}.coll", std::process::id()));
    save_coll(&RealIo, &path, &built).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let manifest = read_collection_manifest(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let index: usize = manifest.entries.iter().map(|e| e.len as usize).sum();
    println!("\n\n| .coll part | bytes | B/position | share |");
    println!("|---|---:|---:|---:|");
    for (part, bytes) in [
        ("index sections", index),
        ("header + manifest", file_len - index),
    ] {
        println!(
            "| {part} | {bytes} | {:.1} | {:.1} % |",
            per(bytes, positions),
            100.0 * per(bytes, file_len)
        );
    }
    println!(
        "| **file** ({} documents, {positions} positions) | **{file_len}** | **{:.1}** | |",
        docs.len(),
        per(file_len, positions)
    );

    let config = ServiceConfig {
        threads: 1,
        shards: 2,
        cache_capacity: 0,
        epsilon: None,
    };
    let service = QueryService::build(&docs, TAU_MIN, config).unwrap();
    let segments = service.segments();
    let filter = |segment: &Segment| segment.heap_breakdown()[1];
    println!("\n\n| served segment | documents | document filter | B/position |");
    println!("|---|---:|---:|---:|");
    for (i, segment) in segments.iter().enumerate() {
        let (row, bytes) = filter(segment);
        assert_eq!(row, "document filter");
        println!(
            "| {i} | {} | {bytes} | {:.1} |",
            segment.docs.len(),
            per(bytes, positions)
        );
    }
    let filters: usize = segments.iter().map(|s| filter(s).1).sum();
    println!(
        "| **both** | {} | **{filters}** | **{:.1}** |",
        docs.len(),
        per(filters, positions)
    );

    assert_eq!(docs.len(), 62);
    assert_eq!(segments.len(), 2);
    assert!(per(filters, positions) <= FILTER_BYTES_PER_POS * 1.05);
    assert_eq!(manifest.entries.len(), docs.len());
    assert!(manifest
        .entries
        .iter()
        .all(|e| e.kind == SnapshotKind::Index));
    assert!(per(index, positions) <= COLL_INDEX_BYTES_PER_POS * 1.05);
}
