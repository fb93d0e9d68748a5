//! A loaded index is a built index: taking what a server loads — an
//! `Index` — apart and putting it back together, from its state or from the
//! bytes of its section payload, yields the structures `build` made: the
//! same bytes on the heap, row for row, and the same state when taken apart
//! again (the recorded build time included: it is in the bytes). Nothing is
//! kept that a snapshot does not carry or derive, and a snapshot carries
//! nothing an index does not keep. The same holds for a document through
//! the `.coll` file the service writes. A loaded `C` is summed from the
//! model through the position map; `ustr-core`'s
//! `a_loaded_c_is_the_built_c_bit_for_bit` holds its bits to the built one's.

mod common;

use common::correlated;
use uncertain_strings::{
    service::{load_coll, save_coll, DocExecutor},
    store::{Reader, RealIo, Writer},
    workload::{generate_string, DatasetConfig},
    Index, Snapshot, UncertainString,
};

const TAU_MIN: f64 = 0.1;

/// Generated strings from one position (no long level at all) to 2 000
/// (more than 16 384 slots, so some SA entries take three varint bytes),
/// certain and uncertain, a periodic certain one whose LCPs pass 127
/// (two-byte LCP entries), a period-2 certain one whose LCPs pass 255 (the
/// tree's exception list), a certain one over `{A, B}` of 70 000 positions,
/// whose root children are wider than a child-table cell reaches (the tree's
/// far list), and correlated ones, whose `C` a load sums from the
/// correlations' bounds.
fn strings() -> Vec<UncertainString> {
    let mut out = Vec::new();
    for (n, seed) in [(1, 3), (2, 5), (3, 7), (37, 11), (400, 13), (2_000, 29)] {
        for theta in [0.0, 0.3] {
            out.push(generate_string(&DatasetConfig::new(n, theta, seed)));
        }
    }
    let periodic = (0..300).map(|i| vec![(b"ABC"[i % 3], 1.0)]).collect();
    out.push(UncertainString::from_rows(periodic).unwrap());
    out.push(UncertainString::deterministic(&b"AB".repeat(300)));
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let coin_flips: Vec<u8> = (0..70_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"AB"[(state >> 63) as usize]
        })
        .collect();
    out.push(UncertainString::deterministic(&coin_flips));
    for (n, seed) in [(37, 11), (400, 13), (2_000, 43)] {
        out.push(correlated(n, seed));
    }
    out
}

fn payload(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    encode(&mut w);
    w.into_bytes()
}

/// `built` written as a section payload and read back.
fn reread(built: &Index) -> Index {
    let bytes = payload(|w| built.encode_payload(w));
    Index::decode_payload(&mut Reader::new(&bytes)).unwrap()
}

#[test]
fn index_round_trip_keeps_heap_and_state() {
    for s in strings() {
        let built = Index::build(&s, TAU_MIN).unwrap();
        let state = built.to_snapshot();
        for loaded in [Index::from_snapshot(state.clone()).unwrap(), reread(&built)] {
            assert_eq!(loaded.heap_breakdown(), built.heap_breakdown());
            assert_eq!(loaded.heap_size(), built.heap_size());
            assert_eq!(loaded.to_snapshot(), state);
        }
    }
}

#[test]
fn an_index_round_trips_through_a_collection_file() {
    let built: Vec<DocExecutor> = (strings().iter())
        .map(|s| DocExecutor::build(s, TAU_MIN).unwrap())
        .collect();
    let path =
        std::env::temp_dir().join(format!("ustr_loaded_is_built.{}.coll", std::process::id()));
    save_coll(&RealIo, &path, &built).unwrap();
    let loaded = load_coll(&RealIo, &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.len(), built.len());
    for (built, loaded) in built.iter().zip(&loaded) {
        let (DocExecutor::Built { index }, DocExecutor::Built { index: loaded }) = (built, loaded)
        else {
            panic!("a saved document is a built index");
        };
        assert_eq!(loaded.heap_breakdown(), index.heap_breakdown());
        assert_eq!(loaded.to_snapshot(), index.to_snapshot());
    }
}
