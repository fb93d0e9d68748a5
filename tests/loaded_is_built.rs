//! A loaded index is a built index: taking any of the four index types
//! apart and putting it back together yields the structures `build` made —
//! the same bytes on the heap, row for row, and the same state when taken
//! apart again. Nothing is kept that a snapshot does not carry or derive,
//! and a snapshot carries nothing an index does not keep.

use uncertain_strings::{
    workload::{generate_collection, generate_string, DatasetConfig},
    ApproxIndex, Index, ListingIndex, SpecialIndex, SpecialUncertainString, UncertainString,
};

const TAU_MIN: f64 = 0.1;

/// Generated strings from one position (no long level at all) to a few
/// hundred (several long levels), certain and uncertain.
fn strings() -> Vec<UncertainString> {
    let mut out = Vec::new();
    for (n, seed) in [(1, 3), (2, 5), (3, 7), (37, 11), (400, 13)] {
        for theta in [0.0, 0.3] {
            out.push(generate_string(&DatasetConfig::new(n, theta, seed)));
        }
    }
    out
}

#[test]
fn index_round_trip_keeps_heap_and_state() {
    for s in strings() {
        let built = Index::build(&s, TAU_MIN).unwrap();
        let state = built.to_snapshot();
        let loaded = Index::from_snapshot(state.clone()).unwrap();
        assert_eq!(loaded.heap_breakdown(), built.heap_breakdown());
        assert_eq!(loaded.heap_size(), built.heap_size());
        assert_eq!(loaded.to_snapshot(), state);
    }
}

#[test]
fn special_index_round_trip_keeps_heap_and_state() {
    for s in strings() {
        // The most probable world of `s`, with its probabilities.
        let (chars, probs) = s.positions().iter().map(|p| p.choices()[0]).unzip();
        let special = SpecialUncertainString::new(chars, probs).unwrap();
        let built = SpecialIndex::build(&special).unwrap();
        let state = built.to_snapshot();
        let loaded = SpecialIndex::from_snapshot(state.clone()).unwrap();
        assert_eq!(loaded.heap_size(), built.heap_size());
        assert_eq!(loaded.to_snapshot(), state);
    }
}

#[test]
fn listing_index_round_trip_keeps_heap_and_state() {
    for (n, seed) in [(1, 17), (300, 19), (1_200, 23)] {
        let docs = generate_collection(&DatasetConfig::new(n, 0.3, seed));
        let built = ListingIndex::build(&docs, TAU_MIN).unwrap();
        let state = built.to_snapshot();
        let loaded = ListingIndex::from_snapshot(state.clone()).unwrap();
        assert_eq!(loaded.heap_size(), built.heap_size());
        assert_eq!(loaded.to_snapshot(), state);
    }
}

#[test]
fn approx_index_round_trip_keeps_heap_and_state() {
    for s in strings() {
        let built = ApproxIndex::build(&s, TAU_MIN, 0.05).unwrap();
        let state = built.to_snapshot();
        let loaded = ApproxIndex::from_snapshot(state.clone()).unwrap();
        assert_eq!(loaded.heap_breakdown(), built.heap_breakdown());
        assert_eq!(loaded.stats().heap_bytes, built.stats().heap_bytes);
        assert_eq!(loaded.to_snapshot(), state);
    }
}
