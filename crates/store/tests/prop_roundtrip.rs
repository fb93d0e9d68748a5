//! Property tests for the snapshot round-trip guarantee: a loaded index
//! answers *identically* (positions and exact probabilities) to the index it
//! was saved from, for random uncertain strings across τmin values — and
//! every flavour of file corruption fails with a clean error, never a panic.
//! The files are the one container: a one-document `.idx` and a
//! two-document `.coll`.

use proptest::prelude::*;
use ustr_core::Index;
use ustr_store::{
    read_collection, write_collection, FileKind, Section, Snapshot, SnapshotKind, StoreError,
    Writer, FORMAT_VERSION, MAGIC,
};
use ustr_uncertain::UncertainString;

/// Random rows over {a, b, c} with 1–3 normalized choices per position.
fn rows(max_len: usize) -> impl Strategy<Value = Vec<Vec<(u8, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 1u32..80), 1..=3),
        1..=max_len,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, w as f64 / total as f64))
                    .collect()
            })
            .collect()
    })
}

fn pattern(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 1..=max_len)
        .prop_map(|v| v.into_iter().map(|c| b'a' + c).collect())
}

fn payload(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    encode(&mut w);
    w.into_bytes()
}

/// The bytes `Snapshot::save` writes for `index`.
fn idx_bytes(index: &Index) -> Vec<u8> {
    let payload = payload(|w| index.encode_payload(w));
    let mut bytes = Vec::new();
    let section = Section {
        doc: 0,
        kind: SnapshotKind::Index,
        payload: &payload,
    };
    write_collection(&mut bytes, 1, &[section]).unwrap();
    bytes
}

fn load_idx(bytes: &[u8]) -> Result<Index, StoreError> {
    let file = read_collection(bytes)?;
    file.single(SnapshotKind::Index)?
        .decode(Index::decode_payload)
}

/// A two-document `.coll`: `index`'s section for each.
fn coll_bytes(index: &Index) -> Vec<u8> {
    let ib = payload(|w| index.encode_payload(w));
    let section = |doc| Section {
        doc,
        kind: SnapshotKind::Index,
        payload: &ib,
    };
    let mut bytes = Vec::new();
    write_collection(&mut bytes, 2, &[section(0), section(1)]).unwrap();
    bytes
}

/// The two indexes of [`coll_bytes`]' file.
fn load_coll(bytes: &[u8]) -> Result<Vec<Index>, StoreError> {
    let file = read_collection(bytes)?;
    if file.sections.len() != 2 {
        return Err(StoreError::Corrupt {
            detail: format!("{} sections", file.sections.len()),
        });
    }
    (file.sections.iter())
        .map(|section| section.decode(Index::decode_payload))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// save → load → query is exact for the general index, across τmin
    /// values: positions AND probabilities are bit-identical.
    #[test]
    fn index_round_trip_is_exact(
        r in rows(14),
        p in pattern(5),
        tau_min_idx in 0usize..4,
        tau_idx in 0usize..4,
    ) {
        let tau_min = [0.02, 0.05, 0.1, 0.2][tau_min_idx];
        let tau = [0.2, 0.35, 0.5, 0.8][tau_idx];
        let s = UncertainString::from_rows(r).unwrap();
        let built = Index::build(&s, tau_min).unwrap();
        let loaded = load_idx(&idx_bytes(&built)).unwrap();

        let a = built.query(&p, tau).unwrap();
        let b = loaded.query(&p, tau).unwrap();
        prop_assert_eq!(a.hits(), b.hits(), "threshold query diverged");

        // Top-k agrees too (exercises the RMQ levels directly).
        let ta = built.query_top_k(&p, 5).unwrap();
        let tb = loaded.query_top_k(&p, 5).unwrap();
        prop_assert_eq!(ta, tb, "top-k diverged");

        // Metadata survives.
        prop_assert_eq!(built.tau_min().to_bits(), loaded.tau_min().to_bits());
        let (b, l) = (built.stats(), loaded.stats());
        prop_assert_eq!(b.source_len, l.source_len);
        prop_assert_eq!(b.transformed_len, l.transformed_len);
        prop_assert_eq!(b.num_factors, l.num_factors);
    }

    /// Every truncation point of a two-document `.coll` fails cleanly.
    #[test]
    fn coll_truncation_always_errors(r in rows(8), cut_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let bytes = coll_bytes(&Index::build(&s, 0.1).unwrap());
        prop_assert!(load_coll(&bytes).is_ok());
        let cut = cut_seed as usize % bytes.len();
        prop_assert!(
            load_coll(&bytes[..cut]).is_err(),
            "prefix of {} bytes must not load", cut
        );
    }

    /// Every truncation point of a one-document `.idx` fails cleanly (no
    /// panic, no bogus success).
    #[test]
    fn truncation_always_errors(r in rows(8), cut_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let built = Index::build(&s, 0.1).unwrap();
        let bytes = idx_bytes(&built);
        let cut = cut_seed as usize % bytes.len();
        prop_assert!(
            load_idx(&bytes[..cut]).is_err(),
            "prefix of {} bytes must not load", cut
        );
    }

    /// A flipped byte anywhere in either file is caught: in a payload by its
    /// checksum; in the header or manifest by the magic, the version, a
    /// count, a document id, a kind, or the lengths no longer filling the
    /// file.
    #[test]
    fn bit_flips_never_load_silently(r in rows(8), flip_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let built = Index::build(&s, 0.1).unwrap();
        let mut idx = idx_bytes(&built);
        let at = flip_seed as usize % idx.len();
        idx[at] ^= 0x40;
        prop_assert!(load_idx(&idx).is_err(), ".idx flip at {} loaded", at);

        let mut coll = coll_bytes(&built);
        let at = flip_seed as usize % coll.len();
        coll[at] ^= 0x40;
        prop_assert!(load_coll(&coll).is_err(), ".coll flip at {} loaded", at);
    }
}

fn sample() -> Index {
    let s = UncertainString::parse("a:.5,b:.5 | b | a").unwrap();
    Index::build(&s, 0.1).unwrap()
}

#[test]
fn bad_magic_is_a_clean_error() {
    let mut bytes = idx_bytes(&sample());
    bytes[0..8].copy_from_slice(b"NOTSNAPS");
    assert!(matches!(
        load_idx(&bytes),
        Err(StoreError::BadMagic {
            expected: FileKind::Snapshot
        })
    ));
}

/// A newer file and older ones (version 1 was the old `.coll` container)
/// are refused by the version field alone, before any payload byte is read.
#[test]
fn wrong_version_is_a_clean_error() {
    let mut bytes = idx_bytes(&sample());
    for foreign in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 1] {
        bytes[8..12].copy_from_slice(&foreign.to_le_bytes());
        match load_idx(&bytes) {
            Err(StoreError::UnsupportedVersion { found, reads, .. }) => {
                assert_eq!((found, reads), (foreign, FORMAT_VERSION))
            }
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("foreign version must not load"),
        }
    }
}

/// Files written by earlier formats: a single-index file of format 6 (a
/// header of its own around the payload), a version-1 collection, a
/// format-7 `.idx` (its payload holds `C` and the per-character map), a
/// format-8 `.coll` with approx sections (its links name their origins by
/// preorder rank), a format-9 `.coll` with approx sections (its links
/// name their origins by node key), a format-10 `.coll` (its long levels
/// run on to the text length), a format-11 `.coll` (its short levels
/// carry a duplicate mask each), a format-12 `.coll` (its payloads end
/// with build statistics), a format-13 `.coll` (its suffix arrays hold
/// every keyed and separator slot) and a format-14 `.coll` (its champions
/// are the maxima of `C`'s windows). Each is refused with a message that
/// says to rebuild it.
#[test]
fn old_format_files_are_refused_with_a_rebuild_message() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, refused) in [
        ("format6.idx", "bad magic"),
        ("format6.coll", "version 1 (this build reads version 15)"),
        ("format7.idx", "version 7 (this build reads version 15)"),
        ("format8.coll", "version 8 (this build reads version 15)"),
        ("format9.coll", "version 9 (this build reads version 15)"),
        ("format10.coll", "version 10 (this build reads version 15)"),
        ("format11.coll", "version 11 (this build reads version 15)"),
        ("format12.coll", "version 12 (this build reads version 15)"),
        ("format13.coll", "version 13 (this build reads version 15)"),
        ("format14.coll", "version 14 (this build reads version 15)"),
    ] {
        let err = Index::load(fixtures.join(file)).err().unwrap();
        let said = err.to_string();
        assert!(said.contains(refused), "{file}: {said}");
        assert!(
            said.ends_with(": rebuild it from its source"),
            "{file}: {said}"
        );
    }
}

#[test]
fn empty_and_header_only_files_error() {
    assert!(matches!(load_idx(b""), Err(StoreError::Truncated { .. })));
    // One document, one section claiming 1 000 payload bytes, and none.
    let mut header_only = MAGIC.to_vec();
    header_only.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header_only.extend_from_slice(&[1, 1, 0, SnapshotKind::Index as u8, 0xe8, 0x07]);
    header_only.extend_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        load_idx(&header_only),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn save_load_files_round_trip() {
    let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
    let built = Index::build(&s, 0.1).unwrap();
    let path = std::env::temp_dir().join("ustr_store_prop_file.idx");
    built.save(&path).unwrap();
    let loaded = Index::load(&path).unwrap();
    assert_eq!(
        built.query(b"QP", 0.2).unwrap().hits(),
        loaded.query(b"QP", 0.2).unwrap().hits()
    );
    assert_eq!(std::fs::read(&path).unwrap(), idx_bytes(&loaded));
    // A collection is not an index file.
    std::fs::write(&path, coll_bytes(&built)).unwrap();
    assert!(matches!(
        Index::load(&path),
        Err(StoreError::NotSingle {
            docs: 2,
            sections: 2,
            ..
        })
    ));
    let _ = std::fs::remove_file(&path);
}
