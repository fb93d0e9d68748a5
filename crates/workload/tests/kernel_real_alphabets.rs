//! The flat-plane `MatchKernel` is **bit-identical** (`f64::to_bits`) to
//! `UncertainString::log_match_probability` at the alphabet sizes real
//! data has: IUPAC DNA (σ ≤ 16, long deterministic runs — one-word row
//! records, all-deterministic windows that the walk byte-compares, and
//! windows that cross a 64-position word before their first uncertain
//! position, where the walk numbers its row) and the §8.1 protein pdfs
//! (σ ≈ 20). `ustr-uncertain`'s own property test draws from five letters
//! and at most 16 positions; this one verifies every candidate the
//! plane's presence prefilter hands to verification.

use ustr_uncertain::{ProbPlane, UncertainString};
use ustr_workload::{from_iupac, generate_string, sample_patterns, DatasetConfig, PatternMode};

/// Deterministic IUPAC text: ACGT body with ~8% ambiguity codes (the
/// real-FASTA shape the crate docs describe), from a plain LCG.
fn iupac_sequence(n: usize, mut state: u64) -> Vec<u8> {
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            let r = step();
            if r % 100 < 8 {
                b"RYSWKMBDHVN"[(r / 100) as usize % 11]
            } else {
                b"ACGT"[(r / 100) as usize % 4]
            }
        })
        .collect()
}

/// Checks every prefilter candidate of 40 probable patterns.
fn assert_kernel_bit_identical(s: &UncertainString) {
    let plane = ProbPlane::build(s);
    let patterns: Vec<Vec<u8>> = [6usize, 12]
        .into_iter()
        .flat_map(|m| sample_patterns(s, m, 20, PatternMode::Probable, 97))
        .collect();
    assert!(!patterns.is_empty(), "workload must yield patterns");
    let mut candidates = 0usize;
    for p in &patterns {
        plane.with_kernel(p, |kernel| {
            for pos in kernel.candidates(s.len() + 1 - p.len()) {
                candidates += 1;
                assert_eq!(
                    s.log_match_probability(p, pos).to_bits(),
                    kernel.log_match(pos).to_bits(),
                    "pattern {:?} at {pos}",
                    String::from_utf8_lossy(p)
                );
            }
        });
    }
    assert!(candidates > 0, "prefilter must leave candidates");
}

#[test]
fn kernel_is_bit_identical_on_iupac_dna() {
    let s = from_iupac(&iupac_sequence(12_000, 0xD1CE)).expect("IUPAC parses");
    assert_kernel_bit_identical(&s);
}

#[test]
fn kernel_is_bit_identical_on_protein_pdfs() {
    let s = generate_string(&DatasetConfig::new(8_000, 0.25, 41));
    assert_kernel_bit_identical(&s);
}
