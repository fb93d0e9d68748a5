//! Crash-recovery property tests for the WAL: replaying a log truncated at
//! **every** byte boundary either recovers a prefix of the committed writes
//! or fails with a clean [`StoreError`] — never a panic, never a duplicate
//! sequence number, never a torn document.

use proptest::prelude::*;
use ustr_store::{read_wal_bytes, RealIo, StoreError, WalOp, WalRecord, WalWriter};
use ustr_uncertain::UncertainString;

/// Strategy: a small uncertain document over {a, b, c} with random pdfs.
fn uncertain_doc(max_len: usize) -> impl Strategy<Value = UncertainString> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 1u32..100), 1..=3),
        1..=max_len,
    )
    .prop_map(|rows| {
        let rows: Vec<Vec<(u8, f64)>> = rows
            .into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, w as f64 / total as f64))
                    .collect()
            })
            .collect();
        UncertainString::from_rows(rows).expect("normalized rows are valid")
    })
}

/// Strategy: a mixed log of inserts and deletes with strictly increasing
/// sequence numbers and never-reused document ids.
fn wal_records(max_records: usize) -> impl Strategy<Value = Vec<WalRecord>> {
    prop::collection::vec((uncertain_doc(8), 0u8..4, 1u64..4), 1..=max_records).prop_map(
        |entries| {
            let mut records = Vec::with_capacity(entries.len());
            let mut seq = 0u64;
            let mut next_doc = 0u64;
            for (body, op_kind, seq_gap) in entries {
                seq += seq_gap; // gaps are legal; regressions are not
                let op = if op_kind == 0 && next_doc > 0 {
                    WalOp::Delete { doc: next_doc - 1 }
                } else {
                    let doc = next_doc;
                    next_doc += 1;
                    WalOp::Insert { doc, body }
                };
                records.push(WalRecord { seq, op });
            }
            records
        },
    )
}

/// Writes records through the real writer and returns the file bytes.
fn committed_bytes(records: &[WalRecord]) -> Vec<u8> {
    // Unique per call: the two property tests run concurrently and would
    // otherwise collide on a pid+len-keyed filename.
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("ustr_prop_wal_{}_{}.wal", std::process::id(), call));
    let _ = std::fs::remove_file(&path);
    let mut w = WalWriter::create(&RealIo, &path).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at every byte boundary: a committed prefix or a clean
    /// error, with no duplicates and no torn documents.
    #[test]
    fn truncated_wal_recovers_a_prefix_or_errors(records in wal_records(6)) {
        let bytes = committed_bytes(&records);
        // Sanity: the untruncated log replays completely and cleanly.
        let full = read_wal_bytes(&bytes).unwrap();
        prop_assert!(full.clean);
        prop_assert_eq!(&full.records, &records);

        for cut in 0..bytes.len() {
            match read_wal_bytes(&bytes[..cut]) {
                Ok(replay) => {
                    // Exactly a prefix: every recovered record is one of the
                    // committed records, in order, starting from the first.
                    prop_assert!(replay.records.len() <= records.len());
                    prop_assert_eq!(
                        &replay.records[..],
                        &records[..replay.records.len()],
                        "cut at {} must recover a committed prefix", cut
                    );
                    // No duplicate sequence numbers (strictly increasing).
                    for w in replay.records.windows(2) {
                        prop_assert!(w[0].seq < w[1].seq);
                    }
                }
                Err(e) => {
                    // Clean error (header truncation); formatting must not
                    // panic either.
                    let _ = e.to_string();
                }
            }
        }
    }

    /// A flipped byte anywhere in the record stream is never silently
    /// accepted as extra data: replay errors, or recovers no more than what
    /// was committed.
    #[test]
    fn flipped_bytes_never_fabricate_records(
        records in wal_records(4),
        flip_seed in 0usize..997,
    ) {
        let bytes = committed_bytes(&records);
        let at = flip_seed % bytes.len();
        let mut mutated = bytes.clone();
        mutated[at] ^= 0xA5;
        match read_wal_bytes(&mutated) {
            Ok(replay) => {
                prop_assert!(replay.records.len() <= records.len());
                for w in replay.records.windows(2) {
                    prop_assert!(w[0].seq < w[1].seq);
                }
            }
            Err(e) => {
                prop_assert!(matches!(
                    e,
                    StoreError::ChecksumMismatch
                        | StoreError::Corrupt { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::UnsupportedVersion { .. }
                        | StoreError::UnknownKind { .. }
                ));
            }
        }
    }
}
