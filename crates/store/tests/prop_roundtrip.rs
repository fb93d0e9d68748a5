//! Property tests for the snapshot round-trip guarantee: a loaded index
//! answers *identically* (positions and exact probabilities) to the index it
//! was saved from, for random uncertain strings across τmin values — and
//! every flavour of file corruption fails with a clean error, never a panic.

use proptest::prelude::*;
use ustr_core::{ApproxIndex, Index};
use ustr_store::{
    read_links_snapshot, write_links_snapshot, Snapshot, StoreError, FORMAT_VERSION, HEADER_LEN,
    MAGIC,
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
        let mut bytes = Vec::new();
        built.write_snapshot(&mut bytes).unwrap();
        let loaded = Index::read_snapshot(&bytes[..]).unwrap();

        let a = built.query(&p, tau).unwrap();
        let b = loaded.query(&p, tau).unwrap();
        prop_assert_eq!(a.hits(), b.hits(), "threshold query diverged");

        // Top-k agrees too (exercises the RMQ levels directly).
        let ta = built.query_top_k(&p, 5).unwrap();
        let tb = loaded.query_top_k(&p, 5).unwrap();
        prop_assert_eq!(ta, tb, "top-k diverged");

        // Metadata survives.
        prop_assert_eq!(built.tau_min().to_bits(), loaded.tau_min().to_bits());
        prop_assert_eq!(built.stats().transformed_len, loaded.stats().transformed_len);
    }

    /// The links over an index round-trip byte-identically: positions AND
    /// reported (ε-approximate) probabilities, across ε and τ values — over
    /// the index they were built over and over one loaded from its bytes.
    #[test]
    fn approx_round_trip_is_exact(
        r in rows(14),
        p in pattern(4),
        eps_idx in 0usize..3,
        tau_idx in 0usize..4,
    ) {
        let epsilon = [0.02, 0.05, 0.2][eps_idx];
        let tau = [0.1, 0.25, 0.5, 0.8][tau_idx];
        let s = UncertainString::from_rows(r).unwrap();
        let index = Index::build(&s, 0.05).unwrap();
        let built = ApproxIndex::over(&index, epsilon).unwrap();

        let mut bytes = Vec::new();
        index.write_snapshot(&mut bytes).unwrap();
        let loaded_index = Index::read_snapshot(&bytes[..]).unwrap();
        let mut bytes = Vec::new();
        write_links_snapshot(&built, &mut bytes).unwrap();
        let a = built.query(&p, tau).unwrap();
        for over in [&index, &loaded_index] {
            let loaded = read_links_snapshot(&bytes[..], over).unwrap();
            let b = loaded.query(&p, tau).unwrap();
            prop_assert_eq!(a.hits(), b.hits(), "byte round-trip diverged");
            for (&(_, pa), &(_, pb)) in a.hits().iter().zip(b.hits().iter()) {
                prop_assert_eq!(pa.to_bits(), pb.to_bits(), "probabilities not bit-exact");
            }
            prop_assert_eq!(built.num_links(), loaded.num_links());
            prop_assert_eq!(built.epsilon().to_bits(), loaded.epsilon().to_bits());
            prop_assert_eq!(built.tau_min().to_bits(), loaded.tau_min().to_bits());
        }
    }

    /// Every truncation point of a valid links snapshot fails cleanly.
    #[test]
    fn approx_truncation_always_errors(r in rows(8), cut_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let index = Index::build(&s, 0.1).unwrap();
        let built = ApproxIndex::over(&index, 0.1).unwrap();
        let mut bytes = Vec::new();
        write_links_snapshot(&built, &mut bytes).unwrap();
        let cut = cut_seed as usize % bytes.len();
        prop_assert!(
            read_links_snapshot(&bytes[..cut], &index).is_err(),
            "prefix of {} bytes must not load", cut
        );
    }

    /// Every truncation point of a valid snapshot fails cleanly (no panic,
    /// no bogus success).
    #[test]
    fn truncation_always_errors(r in rows(8), cut_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let built = Index::build(&s, 0.1).unwrap();
        let mut bytes = Vec::new();
        built.write_snapshot(&mut bytes).unwrap();
        let cut = cut_seed as usize % bytes.len();
        prop_assert!(
            Index::read_snapshot(&bytes[..cut]).is_err(),
            "prefix of {} bytes must not load", cut
        );
    }

    /// A flipped byte anywhere in the payload is caught by the checksum (or,
    /// in the header, by magic/version/kind/length validation).
    #[test]
    fn bit_flips_never_load_silently(r in rows(8), flip_seed in 0u32..10_000) {
        let s = UncertainString::from_rows(r).unwrap();
        let built = Index::build(&s, 0.1).unwrap();
        let mut bytes = Vec::new();
        built.write_snapshot(&mut bytes).unwrap();
        let baseline = built.query(b"a", 0.1).unwrap();
        let at = flip_seed as usize % bytes.len();
        bytes[at] ^= 0x40;
        match Index::read_snapshot(&bytes[..]) {
            Err(_) => {}
            Ok(loaded) => {
                // Only a flip inside the checksum field itself could still
                // load; then the payload is untouched and answers match.
                prop_assert!((24..32).contains(&at), "flip at {} loaded", at);
                prop_assert_eq!(baseline.hits(), loaded.query(b"a", 0.1).unwrap().hits());
            }
        }
    }
}

#[test]
fn bad_magic_is_a_clean_error() {
    let s = UncertainString::parse("a:.5,b:.5 | b | a").unwrap();
    let built = Index::build(&s, 0.1).unwrap();
    let mut bytes = Vec::new();
    built.write_snapshot(&mut bytes).unwrap();
    bytes[0..8].copy_from_slice(b"NOTSNAPS");
    assert!(matches!(
        Index::read_snapshot(&bytes[..]),
        Err(StoreError::BadMagic)
    ));
}

/// A newer file and an older one (version 2 wrote each array twice) are
/// refused by the version field alone, before any payload byte is read.
#[test]
fn wrong_version_is_a_clean_error() {
    let s = UncertainString::parse("a:.5,b:.5 | b | a").unwrap();
    let built = Index::build(&s, 0.1).unwrap();
    let mut bytes = Vec::new();
    built.write_snapshot(&mut bytes).unwrap();
    for foreign in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
        bytes[8..12].copy_from_slice(&foreign.to_le_bytes());
        match Index::read_snapshot(&bytes[..]) {
            Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, foreign),
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("foreign version must not load"),
        }
    }
}

#[test]
fn empty_and_header_only_files_error() {
    assert!(matches!(
        Index::read_snapshot(&b""[..]),
        Err(StoreError::Truncated { .. })
    ));
    let mut header_only = Vec::new();
    header_only.extend_from_slice(&MAGIC);
    header_only.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header_only.push(1);
    header_only.extend_from_slice(&[0, 0, 0]);
    header_only.extend_from_slice(&1000u64.to_le_bytes()); // claims a payload
    header_only.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(header_only.len(), HEADER_LEN);
    assert!(Index::read_snapshot(&header_only[..]).is_err());
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
    // Loading the file as links over the index fails cleanly.
    let file = std::fs::File::open(&path).unwrap();
    assert!(matches!(
        read_links_snapshot(file, &loaded),
        Err(StoreError::KindMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}
