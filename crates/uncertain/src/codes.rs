//! Probabilities as codes into a table of their distinct values: the one
//! way the workspace stores a model's probabilities, for the verification
//! plane's cells ([`crate::ProbPlane`]) and an index's text alike.
//!
//! A model's probabilities come from a tiny value alphabet — the §8.1
//! generator's vote fractions give 61 distinct probabilities over
//! `paper-string`'s 141 156 uncertain choices, and Phred-quantized reads are
//! the same — so [`code`] keeps each distinct probability once, in a table,
//! beside its value `canon::ln(p)`, and one code per probability into it.
//! It is the one place a probability becomes a value. A code is the
//! narrowest of `u8`/`u16`/`u32` that numbers the table: the table's length
//! picks the width, a property of the data and not a setting.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::canon;

/// A code: an index into a table of distinct probabilities.
pub trait Code: Copy {
    /// The code `code` at this width, which must number it.
    fn of(code: u32) -> Self;
    /// The table index the code names.
    fn index(self) -> usize;
}

macro_rules! code {
    ($($t:ty),*) => {$(
        impl Code for $t {
            #[inline]
            fn of(code: u32) -> Self {
                let narrow = code as $t;
                debug_assert_eq!(
                    narrow as u32, code,
                    "code {code} does not fit a {}", stringify!($t)
                );
                narrow
            }
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
code!(u8, u16, u32);

/// One code per probability, at the narrowest width that numbers the table.
#[derive(Debug, Clone)]
pub enum Codes {
    /// Tables of at most 2⁸ entries.
    U8(Box<[u8]>),
    /// Tables of at most 2¹⁶ entries.
    U16(Box<[u16]>),
    /// Larger tables.
    U32(Box<[u32]>),
}

/// `$body` with `$c` bound to the codes as a slice of their own width.
#[macro_export]
macro_rules! with_codes {
    ($codes:expr, $c:ident => $body:expr) => {
        match $codes {
            $crate::codes::Codes::U8($c) => $body,
            $crate::codes::Codes::U16($c) => $body,
            $crate::codes::Codes::U32($c) => $body,
        }
    };
}

impl Codes {
    /// Number of codes.
    pub fn len(&self) -> usize {
        with_codes!(self, c => c.len())
    }

    /// `true` when there are no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table index of code `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        with_codes!(self, c => c[i].index())
    }

    /// The code width in bytes.
    pub fn width(&self) -> usize {
        fn of<C>(_: &[C]) -> usize {
            std::mem::size_of::<C>()
        }
        with_codes!(self, c => of(c))
    }

    /// Heap bytes: the codes at their width.
    pub fn heap_size(&self) -> usize {
        with_codes!(self, c => std::mem::size_of_val(&**c))
    }
}

/// The map's hash of a probability's bits: one folded multiply, keyed once
/// per map from [`RandomState`]. A SipHash per lookup cost more than the
/// rest of a 30-position document's plane build.
struct BitsKey(u64);

impl BitsKey {
    fn new() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for BitsKey {
    type Hasher = BitsHash;
    fn build_hasher(&self) -> BitsHash {
        BitsHash(self.0)
    }
}

/// [`BitsKey`]'s hasher: the map hashes `u64` keys only.
struct BitsHash(u64);

impl Hasher for BitsHash {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    #[inline]
    fn write_u64(&mut self, bits: u64) {
        let m = u128::from(bits ^ self.0) * 0x9e37_79b9_7f4a_7c15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Codes `probs` by their bits: returns the table — each distinct
/// probability once, in the order `probs` first reaches it, as `(p,
/// canon::ln(p))` — and one code per probability into it. `count` is the
/// number of probabilities, which sizes the codes up front. The table and
/// the codes depend on the probabilities' bits alone, so two callers that
/// code the same probabilities get the same bits.
pub fn code(count: usize, probs: impl IntoIterator<Item = f64>) -> (Box<[(f64, f64)]>, Codes) {
    // A small start: a 40-choice document's few probabilities fit without
    // a rehash, and a 61-probability model rehashes twice.
    let mut by_prob: HashMap<u64, u32, BitsKey> =
        HashMap::with_capacity_and_hasher(count.min(16), BitsKey::new());
    // A code goes out as one byte while the table numbers at most 2⁸
    // probabilities; the first code past that widens the codes so far to
    // `u32`, once. So the usual model fills one allocation of `count` bytes.
    let (mut bytes, mut wide): (Vec<u8>, Vec<u32>) = (Vec::with_capacity(count), Vec::new());
    // The last probability and its code: a probability equal to the one
    // before skips the lookup (61 % of `paper-string`'s 948 399 text
    // characters: 8.2 ms where the map alone took 12.5, on a 2-vCPU Linux
    // VM).
    let mut last = None;
    for p in probs {
        debug_assert!(canon::is_positive_prob(p), "probabilities must be positive");
        let bits = p.to_bits();
        let code = match last {
            Some((seen, code)) if seen == bits => code,
            _ => {
                let next = u32::try_from(by_prob.len()).expect("fewer than 2^32 probabilities");
                let code = *by_prob.entry(bits).or_insert(next);
                last = Some((bits, code));
                code
            }
        };
        match u8::try_from(code) {
            Ok(byte) if wide.is_empty() => bytes.push(byte),
            _ => {
                if wide.is_empty() {
                    wide.reserve_exact(count.max(bytes.len() + 1));
                    wide.extend(bytes.drain(..).map(u32::from));
                }
                wide.push(code);
            }
        }
    }
    // The table at its final length: each distinct probability at its code.
    let mut table = vec![(0.0, 0.0); by_prob.len()].into_boxed_slice();
    for (&bits, &code) in &by_prob {
        let p = f64::from_bits(bits);
        table[code as usize] = (p, canon::ln(p));
    }
    let codes = match table.len() {
        len if len <= 1 << u8::BITS => Codes::U8(bytes.into_boxed_slice()),
        len if len <= 1 << u16::BITS => Codes::U16(wide.into_iter().map(u16::of).collect()),
        _ => Codes::U32(wide.into_boxed_slice()),
    };
    (table, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_width_follows_the_table_length() {
        for (distinct, width) in [
            (0usize, 1),
            (1, 1),
            (256, 1),
            (257, 2),
            (65_536, 2),
            (65_537, 4),
        ] {
            // Distinct probabilities, each reached twice: the codes number
            // the table whatever their width.
            let probs = (0..2 * distinct).map(|i| (1 + i % distinct.max(1)) as f64 / 65_538.0);
            let (table, codes) = code(2 * distinct, probs);
            assert_eq!((table.len(), codes.width()), (distinct, width));
            assert_eq!(codes.len(), 2 * distinct);
            assert!((0..codes.len()).all(|i| codes.get(i) == i % distinct.max(1)));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    #[cfg(debug_assertions)]
    fn a_code_past_its_width_is_refused() {
        u8::of(256);
    }
}
