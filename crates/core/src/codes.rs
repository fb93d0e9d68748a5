//! A text's probabilities as one value code per character: §4.1's `C`,
//! kept as the choices rather than as their sums.
//!
//! The paper keeps `C[j] = Π_{i≤j} pr(cᵢ)` so that a window costs one
//! division. A text's probabilities come from a tiny value alphabet — the
//! §8.1 generator's vote fractions give 58 distinct `ln p` over
//! `paper-string`'s 948 399 characters, and Phred-quantized reads are the
//! same — so [`ValueCodes`] keeps the `ln p` of each distinct probability
//! once, in a table, and one code per character into it, coded by
//! [`ustr_uncertain::codes::code`], which codes the verification plane's
//! cells too. A code is the narrowest of `u8`/`u16`/`u32` that numbers the
//! table: the table's length picks the width, a property of the data and
//! not a setting.
//!
//! A window's value is the left-to-right sum of its characters' values
//! from `+0.0`, each added through [`canon::log_mul`] — the kernel's own
//! summation step, in the kernel's order: a certain character adds exactly
//! `+0.0`, which the kernel's walk skips to the same bits. So on a text
//! without correlations a window's value *is* the probability every
//! executor reports for its occurrence, bit for bit, and an index reports
//! it straight off its levels. Under correlation a character's value is
//! its correlation's upper bound
//! ([`CorrelationSet::upper_bound`](ustr_uncertain::CorrelationSet::upper_bound)),
//! and a window's value bounds the kernel's from above.
//!
//! A window costs one addition a character, the O(m) the kernel's walk
//! cost a candidate; the sweeps that build the levels take each slot's
//! running sums in one pass ([`ValueCodes::running`]). A snapshot stores
//! neither codes nor table: a load derives them from the model through
//! the position map with the build's own code, so its windows are the
//! built ones to the bit.
//!
//! # The window contract
//!
//! A window must stay inside the text and cross no separator. Every query
//! meets that by construction — each slot of a pattern's suffix range
//! starts with the pattern, which holds no separator byte — and the
//! substrate's `ScoredText::window` checks it in debug builds against the
//! text. Reads that may meet a separator (champion values at build and
//! load time) go through the slot's run length, which the text's bytes
//! give. A separator is coded as a certain character, `ln 1 = +0.0`, and no
//! window reads it.

use ustr_uncertain::codes::{self, Code, Codes};
use ustr_uncertain::{canon, split, with_codes};

/// The one sum loop: the values of `codes` in `table` added left to right
/// from [`canon::LOG_ONE`], each running sum handed to `each`; returns the
/// last.
#[inline]
fn sum<C: Code>(codes: &[C], table: &[f64], mut each: impl FnMut(f64)) -> f64 {
    #[cfg(test)]
    SUMMED.with(|summed| summed.set(summed.get() + codes.len() as u64));
    codes.iter().fold(canon::LOG_ONE, |log_p, &code| {
        let log_p = canon::log_mul(log_p, table[code.index()]);
        each(log_p);
        log_p
    })
}

#[cfg(test)]
thread_local! {
    /// The characters [`sum`] has added on this thread: a build's work.
    static SUMMED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The characters the window sums have added on this thread so far.
#[cfg(test)]
pub(crate) fn summed() -> u64 {
    SUMMED.with(std::cell::Cell::get)
}

#[cfg(not(test))]
pub(crate) use split::join;

/// [`split::join`], with what `there` sums on a thread of its own counted
/// on the calling thread too, so that [`summed`] reads a split pass whole.
#[cfg(test)]
pub(crate) fn join<A, B: Send>(
    split: bool,
    here: impl FnOnce() -> A,
    there: impl FnOnce() -> B + Send,
) -> (A, B) {
    let there = || {
        let before = summed();
        (there(), summed() - before)
    };
    let (here, (there, there_summed)) = split::join(split, here, there);
    if split {
        SUMMED.with(|summed| summed.set(summed.get() + there_summed));
    }
    (here, there)
}

/// The `ln p` of the text's distinct probabilities, and one code per
/// character.
#[derive(Debug)]
pub(crate) struct ValueCodes {
    /// The value of each distinct probability, in the order the text first
    /// reaches them.
    table: Box<[f64]>,
    codes: Codes,
}

impl ValueCodes {
    /// Codes the per-character probabilities `probs`, one code per
    /// distinct probability; `is_sentinel(i)` marks separator positions,
    /// coded as certain characters (their own probability is ignored). The
    /// table and the codes depend on `probs` alone, so a build and a load
    /// that derive the same probabilities get the same bits.
    pub(crate) fn new(probs: &[f64], is_sentinel: impl Fn(usize) -> bool) -> Self {
        let (table, codes) = codes::code(
            probs.len(),
            (probs.iter().enumerate()).map(|(i, &p)| if is_sentinel(i) { 1.0 } else { p }),
        );
        Self {
            table: table.iter().map(|&(_, value)| value).collect(),
            codes,
        }
    }

    /// Number of characters coded.
    pub(crate) fn len(&self) -> usize {
        self.codes.len()
    }

    /// The value of the window `[start, start + len)`, which must lie
    /// inside the text and cross no separator (see the module docs):
    /// [`canon::LOG_ONE`] for the empty window.
    #[inline]
    pub(crate) fn window(&self, start: usize, len: usize) -> f64 {
        with_codes!(&self.codes, c => sum(&c[start..start + len], &self.table, |_| {}))
    }

    /// The value of every window at `start` up to `out.len()` characters:
    /// `out[i]` is the window of `i + 1`, as [`ValueCodes::window`] gives
    /// it. One pass over the characters.
    #[inline]
    pub(crate) fn running(&self, start: usize, out: &mut [f64]) {
        let end = start + out.len();
        let mut at = out.iter_mut();
        let mut each = |log_p| {
            if let Some(slot) = at.next() {
                *slot = log_p;
            }
        };
        with_codes!(&self.codes, c => sum(&c[start..end], &self.table, &mut each));
    }

    /// The text without its certain characters: the codes of those whose
    /// value is not `+0.0`, in text order over the same table, and
    /// `rank[i]`, how many of them stand before position `i`, for every `i`
    /// up to the text's length. A certain character adds exactly `+0.0`,
    /// which leaves a running sum's bits as they were ([`canon::log_mul`]),
    /// so the window `[start, end)` has the value of the returned codes'
    /// window `[rank[start], rank[end])`, and a sum over it costs nothing
    /// for a certain character.
    pub(crate) fn without_certain(&self) -> (Self, Vec<u32>) {
        fn kept<C: Code>(codes: &[C], certain: &[bool], rank: &mut Vec<u32>) -> Box<[C]> {
            let mut kept = Vec::new();
            for &code in codes {
                if !certain[code.index()] {
                    kept.push(code);
                }
                rank.push(u32::try_from(kept.len()).expect("a text of u32 positions"));
            }
            kept.into_boxed_slice()
        }
        let certain: Vec<bool> = (self.table.iter())
            .map(|v| v.to_bits() == canon::LOG_ONE.to_bits())
            .collect();
        let mut rank = vec![0];
        let codes = match &self.codes {
            Codes::U8(c) => Codes::U8(kept(c, &certain, &mut rank)),
            Codes::U16(c) => Codes::U16(kept(c, &certain, &mut rank)),
            Codes::U32(c) => Codes::U32(kept(c, &certain, &mut rank)),
        };
        let table = self.table.clone();
        (Self { table, codes }, rank)
    }

    /// Heap bytes: the codes at their width and 8 a table entry.
    pub(crate) fn heap_size(&self) -> usize {
        self.codes.heap_size() + std::mem::size_of_val(&*self.table)
    }

    /// The table's values and every character's code, widened: what a
    /// build and a load must agree on bit for bit.
    #[cfg(test)]
    pub(crate) fn to_bits(&self) -> (Vec<u64>, Vec<u32>) {
        let table = self.table.iter().map(|v| v.to_bits()).collect();
        let codes =
            with_codes!(&self.codes, c => c.iter().map(|&code| code.index() as u32).collect());
        (table, codes)
    }

    /// The code width in bytes.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.codes.width()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "independent expected values")]

    use super::*;

    #[test]
    fn windows_are_the_left_to_right_sums() {
        // Figure 5's special string: probabilities of "banana".
        let probs = [0.4, 0.7, 0.5, 0.8, 0.9, 0.6];
        let values = ValueCodes::new(&probs, |_| false);
        for start in 0..probs.len() {
            let mut running = vec![0.0; probs.len() - start];
            values.running(start, &mut running);
            for len in 0..=probs.len() - start {
                let direct = (probs[start..start + len].iter()).fold(0.0, |s, p| s + p.ln());
                assert_eq!(values.window(start, len).to_bits(), direct.to_bits());
                if len > 0 {
                    assert_eq!(running[len - 1].to_bits(), direct.to_bits());
                }
            }
        }
    }

    #[test]
    fn a_window_without_its_certain_characters_keeps_its_bits() {
        // probs: a 1 b 1 1 c | 1  (index 6 is a separator, coded as certain)
        let probs = [0.4, 1.0, 0.7, 1.0, 1.0, 0.5, 0.25, 1.0];
        let values = ValueCodes::new(&probs, |i| i == 6);
        let (uncertain, rank) = values.without_certain();
        assert_eq!(rank, [0, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(uncertain.len(), 3);
        for start in 0..probs.len() {
            for end in start..=probs.len() {
                let (from, to) = (rank[start] as usize, rank[end] as usize);
                assert_eq!(
                    uncertain.window(from, to - from).to_bits(),
                    values.window(start, end - start).to_bits(),
                    "window {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn the_table_holds_each_value_once() {
        // probs: a b | c d  (index 2 is a separator, coded as certain; its
        // 0.25 is ignored)
        let probs = [0.5, 0.5, 0.25, 0.5, 1.0];
        let values = ValueCodes::new(&probs, |i| i == 2);
        let (table, codes) = values.to_bits();
        let bits = |p: f64| p.ln().to_bits();
        assert_eq!(
            table,
            [bits(0.5), bits(1.0)],
            "in text order; the separator coded as the certain character"
        );
        assert_eq!(codes, [0, 0, 1, 0, 1]);
        assert_eq!((values.width(), values.heap_size()), (1, 5 + 2 * 8));
        assert_eq!(values.window(3, 2).to_bits(), bits(0.5));
    }

    #[test]
    fn no_underflow_on_long_products() {
        // 10^5 positions at 0.9 — a plain f64 product would underflow to 0
        // near 7000 positions; log space keeps it.
        let probs = vec![0.9f64; 100_000];
        let values = ValueCodes::new(&probs, |_| false);
        let logp = values.window(0, 100_000);
        assert!(logp.is_finite());
        assert!((logp - 100_000.0 * 0.9f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn empty_text() {
        let values = ValueCodes::new(&[], |_| false);
        assert_eq!(values.len(), 0);
        assert_eq!(values.window(0, 0).to_bits(), 0.0f64.to_bits());
    }
}
