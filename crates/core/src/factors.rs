//! The Lemma-2 position map (§5.1), one base per factor.
//!
//! The transformed text is factors, each ended by a separator, and inside a
//! factor the source position of text position `x` is `x` plus a constant:
//! the factor's source start minus its text start. [`FactorMap`] keeps that
//! constant once per factor, beside one separator bit per character with a
//! rank count per 64-bit word. [`FactorMap::source_pos`] is `None` on a
//! separator bit, else `x + base[rank(x)]`, `rank(x)` being the separators
//! before `x` — so the map costs 0.25 B per character and 4 B per factor,
//! where a `u32` per character cost 4 B.
//!
//! A snapshot stores the plain map (`IndexState::pos`), which
//! [`FactorMap::to_positions`] gives back and [`FactorMap::new`] checks and
//! compresses.

use std::sync::Arc;

use ustr_uncertain::NO_POSITION;

/// 64 characters of the text: which are separators, and how many
/// separators come before the first of them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RankWord {
    /// Bit `i`: character `64·w + i` is a separator (or past the text end).
    separators: u64,
    /// Separators among the characters before this word's.
    before: u32,
}

/// Text position → factor and source position. A clone shares the arrays.
#[derive(Debug, Clone)]
pub(crate) struct FactorMap {
    words: Arc<[RankWord]>,
    /// Per factor (per stretch between separators): source start minus
    /// text start, as wrapping `u32` arithmetic.
    bases: Arc<[u32]>,
}

impl FactorMap {
    /// Compresses the position map `pos` of `chars` (byte 0 = separator).
    /// `pos` must be a factor map — [`NO_POSITION`] exactly at the
    /// separators, and one more from each character to the next inside a
    /// factor — or the reason it is not comes back.
    pub(crate) fn new(chars: &[u8], pos: &[u32]) -> Result<Self, &'static str> {
        if chars.len() != pos.len() {
            return Err("position map length does not match text");
        }
        let mut words = Vec::with_capacity(chars.len().div_ceil(64));
        let mut bases = Vec::new();
        // The previous character's source position; `None` after a
        // separator, where a factor starts.
        let mut previous: Option<u32> = None;
        let mut before = 0u32;
        for (w, (chars, pos)) in chars.chunks(64).zip(pos.chunks(64)).enumerate() {
            let mut separators = 0u64;
            for (i, (&c, &p)) in chars.iter().zip(pos).enumerate() {
                let x = (w * 64 + i) as u32;
                match (c, p, previous) {
                    (0, NO_POSITION, prev) => {
                        // A stretch with no characters still owns a base,
                        // so that a rank is always a factor index.
                        if prev.is_none() {
                            bases.push(0);
                        }
                        separators |= 1 << i;
                        previous = None;
                        continue;
                    }
                    (0, _, _) => return Err("position map has a source position at a separator"),
                    (_, NO_POSITION, _) => {
                        return Err("position map has no source position inside a factor")
                    }
                    (_, p, None) => bases.push(p.wrapping_sub(x)),
                    (_, p, Some(prev)) if p != prev.wrapping_add(1) => {
                        return Err("position map is not consecutive inside a factor")
                    }
                    _ => {}
                }
                previous = Some(p);
            }
            // Bits past the text end read as separators.
            let past_end = u64::MAX.checked_shl(chars.len() as u32).unwrap_or(0);
            words.push(RankWord {
                separators: separators | past_end,
                before,
            });
            before += separators.count_ones();
        }
        Ok(Self {
            words: words.into(),
            bases: bases.into(),
        })
    }

    /// Factor index and source position of text position `x`; `None` on a
    /// separator or past the text.
    #[inline]
    pub(crate) fn locate(&self, x: usize) -> Option<(usize, usize)> {
        let word = self.words.get(x / 64)?;
        let bit = 1u64 << (x % 64);
        if word.separators & bit != 0 {
            return None;
        }
        let factor = word.before as usize + (word.separators & (bit - 1)).count_ones() as usize;
        let source = (x as u32).wrapping_add(self.bases[factor]);
        Some((factor, source as usize))
    }

    /// Source position of text position `x`; `None` on a separator or past
    /// the text.
    #[inline]
    pub(crate) fn source_pos(&self, x: usize) -> Option<usize> {
        self.locate(x).map(|(_, source)| source)
    }

    /// The plain map over the first `len` text positions (the whole text),
    /// [`NO_POSITION`] at separators: what [`FactorMap::new`] compressed.
    pub(crate) fn to_positions(&self, len: usize) -> Vec<u32> {
        let at = |x| self.source_pos(x).map_or(NO_POSITION, |p| p as u32);
        (0..len).map(at).collect()
    }

    /// Number of factors (bases).
    pub(crate) fn num_factors(&self) -> usize {
        self.bases.len()
    }

    /// Heap bytes of the separator bits with their rank counts, and of the
    /// factor bases.
    pub(crate) fn heap_sizes(&self) -> (usize, usize) {
        (
            std::mem::size_of_val(&*self.words),
            std::mem::size_of_val(&*self.bases),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxIndex, Index, ListingIndex};
    use proptest::prelude::*;
    use ustr_uncertain::{transform, Correlation, CorrelationSet, UncertainString};

    const N: u32 = NO_POSITION;

    #[test]
    fn positions_come_back_from_the_bases() {
        // Factors "ab" from source 5, "c" from 0 and "ab" from 5 again.
        let chars = b"ab\0c\0ab\0";
        let pos = [5, 6, N, 0, N, 5, 6, N];
        let map = FactorMap::new(chars, &pos).unwrap();
        assert_eq!(map.num_factors(), 3);
        assert_eq!(map.to_positions(chars.len()), pos);
        assert_eq!(map.locate(3), Some((1, 0)));
        assert_eq!(map.locate(6), Some((2, 6)));
        assert_eq!(map.source_pos(8), None, "past the text");
        assert_eq!(map.source_pos(64), None, "past the last word");
    }

    #[test]
    fn ranks_carry_across_words() {
        // 200 characters: factors of 9 characters and a separator, each
        // read from source 3·k.
        let chars: Vec<u8> = (0..200)
            .map(|x| if x % 10 == 9 { 0 } else { b'a' })
            .collect();
        let pos: Vec<u32> = (0..200u32)
            .map(|x| {
                if x % 10 == 9 {
                    N
                } else {
                    3 * (x / 10) + x % 10
                }
            })
            .collect();
        let map = FactorMap::new(&chars, &pos).unwrap();
        assert_eq!(map.num_factors(), 20);
        assert_eq!(map.to_positions(chars.len()), pos);
        assert_eq!(map.heap_sizes(), (4 * 16, 20 * 4));
    }

    #[test]
    fn stretches_without_characters_keep_ranks_aligned() {
        let chars = b"\0\0ab\0\0c";
        let pos = [N, N, 7, 8, N, N, 2];
        let map = FactorMap::new(chars, &pos).unwrap();
        assert_eq!(map.to_positions(chars.len()), pos);
        assert_eq!(FactorMap::new(b"", &[]).unwrap().num_factors(), 0);
    }

    #[test]
    fn a_map_that_is_no_factor_map_is_refused() {
        let refused = |chars: &[u8], pos: &[u32]| FactorMap::new(chars, pos).unwrap_err();
        assert!(refused(b"ab\0", &[0, 1]).contains("length"));
        assert!(refused(b"ab\0", &[0, 1, 2]).contains("at a separator"));
        assert!(refused(b"ab\0", &[0, N, N]).contains("no source position"));
        assert!(refused(b"ab\0", &[0, 2, N]).contains("not consecutive"));
    }

    /// Shapes of [`shaped`]: as drawn, with a correlation, certain (one
    /// factor), and flat (every character at 1/3: no factor reaches a τmin
    /// of 0.5).
    const SHAPES: usize = 4;

    /// A string over {a, b, c} from `rows` of (character, weight) pairs in
    /// the shape `shape` (see [`SHAPES`]).
    fn shaped(rows: &[Vec<(u8, u32)>], shape: usize) -> UncertainString {
        let rows: Vec<Vec<(u8, f64)>> = (rows.iter())
            .map(|row| {
                let mut row = row.clone();
                match shape {
                    2 => row.truncate(1),
                    3 => row = vec![(0, 1), (1, 1), (2, 1)],
                    _ => {}
                }
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                let weight = |w: u32| w as f64 / total as f64;
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, weight(w)))
                    .collect()
            })
            .collect();
        let (first, last) = (rows[0][0].0, rows[rows.len() - 1][0].0);
        let mut s = UncertainString::from_rows(rows).unwrap();
        if shape == 1 && s.len() > 1 {
            let mut set = CorrelationSet::new();
            set.add(Correlation {
                subject_pos: s.len() - 1,
                subject_char: last,
                cond_pos: 0,
                cond_char: first,
                p_present: 0.9,
                p_absent: 0.2,
            })
            .unwrap();
            s.set_correlations(set).unwrap();
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The factor map of every index answers as the plain map of the
        /// transform it was built from, at every text position and past
        /// the text — for an `Index` (built and loaded, whose snapshot
        /// writes the plain map back), the `ApproxIndex` over it (built and
        /// loaded), a stand-alone `ApproxIndex`, and a `ListingIndex`, whose map and
        /// per-factor documents give the pair the per-position arrays gave.
        #[test]
        fn the_factor_map_is_the_plain_map(
            rows in prop::collection::vec(prop::collection::vec((0u8..3, 1u32..100), 1..=3), 1..=24),
            shape in 0..SHAPES,
            tau_min in prop::sample::select(vec![0.05, 0.2, 0.5]),
        ) {
            let s = shaped(&rows, shape);
            let tau_min = if shape == 3 { 0.5 } else { tau_min };
            let plain = transform(&s, tau_min).unwrap();
            let len = plain.len();
            if shape == 3 {
                prop_assert_eq!(len, 0, "a flat string has no factor");
            }
            let index = Index::build(&s, tau_min).unwrap();
            let state = index.to_snapshot();
            prop_assert_eq!(&state.pos, &plain.pos);
            let loaded = Index::from_snapshot(state).unwrap();
            let over = ApproxIndex::over(&index, 0.05).unwrap();
            let links = over.to_links_snapshot();
            let reloaded = ApproxIndex::from_links_snapshot(&loaded, links).unwrap();
            let alone = ApproxIndex::build(&s, tau_min, 0.05).unwrap();
            for x in 0..len + 64 {
                let want = (x < len).then(|| plain.source_pos(x)).flatten();
                prop_assert_eq!(index.source_pos(x), want, "index at {}", x);
                prop_assert_eq!(loaded.source_pos(x), want, "loaded index at {}", x);
                prop_assert_eq!(over.source_pos(x), want, "approx over the index at {}", x);
                prop_assert_eq!(reloaded.source_pos(x), want, "approx loaded over it at {}", x);
                prop_assert_eq!(alone.source_pos(x), want, "stand-alone approx at {}", x);
            }

            // The listing's documents: the string, its certain twin, itself.
            let docs = [s.clone(), shaped(&rows, 2), s];
            let listing = ListingIndex::build(&docs, tau_min).unwrap();
            let mut x = 0;
            for (id, doc) in docs.iter().enumerate() {
                let plain = transform(doc, tau_min).unwrap();
                for k in 0..plain.len() {
                    let want = plain.source_pos(k).map(|p| (id, p));
                    prop_assert_eq!(listing.doc_and_src(x), want, "listing at {}", x);
                    x += 1;
                }
            }
            prop_assert_eq!(listing.doc_and_src(x), None);
        }
    }
}
