//! Shared by the integration tests: the pattern lengths that cross an
//! index's long levels, and a generated string with correlations.

use uncertain_strings::{
    workload::{generate_string, DatasetConfig},
    Correlation, CorrelationSet, Index, UncertainString,
};

/// The shortest pattern lengths an index's first and second long level
/// answer, `[L + 1, 2L + 1]`: an index of `slots` suffix-array slots (the
/// terminator's included) has `L = ⌈log₂(slots + 1)⌉` short levels. An
/// `Index` keeps only the slots a query can reach, `to_snapshot().substrate
/// .text.sa.len() + 1` of them; a `ListingIndex` over documents without
/// correlations keeps one per text character and the terminator's,
/// `stats().transformed_len + 1`. (Over correlated documents it keeps the
/// reachable ones alone and exposes no count: the text's is an upper
/// bound, whose lengths still run on long levels.)
#[allow(dead_code, reason = "not every test file that shares this calls it")]
pub fn first_long_lengths(slots: usize) -> [usize; 2] {
    let short = (usize::BITS - slots.leading_zeros()) as usize;
    [short + 1, 2 * short + 1]
}

/// The suffix-array slots of `index`, the terminator's included: what
/// [`first_long_lengths`] takes.
#[allow(dead_code, reason = "not every test file that shares this calls it")]
pub fn slots(index: &Index) -> usize {
    index.to_snapshot().substrate.text.sa.len() + 1
}

/// The generated protein string with a correlation on the first choice of
/// every 5th uncertain position, conditioned on the first choice of the
/// position before it (the generator `build_pins.rs` pins): pr⁺ above pr⁻
/// at every other one, below it at the rest.
#[allow(dead_code, reason = "not every test file that shares this calls it")]
pub fn correlated(n: usize, seed: u64) -> UncertainString {
    with_correlations(generate_string(&DatasetConfig::new(n, 0.3, seed)))
}

/// `s` with `correlated`'s correlations.
#[allow(dead_code, reason = "not every test file that shares this calls it")]
pub fn with_correlations(mut s: UncertainString) -> UncertainString {
    let mut set = CorrelationSet::new();
    let uncertain = (1..s.len()).filter(|&q| s.position(q).num_choices() > 1);
    for (k, q) in uncertain.step_by(5).enumerate() {
        let (subject_char, p) = s.position(q).choices()[0];
        let (high, low) = ((p * 1.5).min(1.0), p * 0.5);
        let (p_present, p_absent) = if k % 2 == 0 { (high, low) } else { (low, high) };
        set.add(Correlation {
            subject_pos: q,
            subject_char,
            cond_pos: q - 1,
            cond_char: s.position(q - 1).choices()[0].0,
            p_present,
            p_absent,
        })
        .unwrap();
    }
    s.set_correlations(set).unwrap();
    s
}
