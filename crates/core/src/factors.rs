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
//! A snapshot stores each factor's source start ([`FactorMap::starts`]),
//! which [`FactorMap::new`] checks and turns into the bases.

/// 64 characters of the text: which are separators, and how many
/// separators come before the first of them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RankWord {
    /// Bit `i`: character `64·w + i` is a separator (or past the text end).
    separators: u64,
    /// Separators among the characters before this word's.
    before: u32,
}

/// Text position → factor and source position.
#[derive(Debug)]
pub(crate) struct FactorMap {
    words: Box<[RankWord]>,
    /// Per factor (per stretch between separators): source start minus
    /// text start, as wrapping `u32` arithmetic.
    bases: Box<[u32]>,
}

/// The text position where each stretch of `chars` (byte 0 = separator)
/// starts: 0, and every position after a separator. A stretch lies between
/// separators — a factor, or nothing where two meet — and owns a base even
/// when empty, so that a rank is always a factor index.
pub(crate) fn stretch_starts(chars: &[u8]) -> impl Iterator<Item = usize> + '_ {
    (0..chars.len()).filter(|&x| x == 0 || chars[x - 1] == 0)
}

impl FactorMap {
    /// The map of `chars` (byte 0 = separator) whose `k`-th stretch reads
    /// the source from the `k`-th of `starts` on, or the reason not: there
    /// must be one start per stretch, and every factor must end inside a
    /// source of `source_len` positions.
    pub(crate) fn new(
        chars: &[u8],
        starts: impl IntoIterator<Item = u32>,
        source_len: usize,
    ) -> Result<Self, &'static str> {
        const COUNT: &str = "factor start count does not match the stretches of the text";
        let mut starts = starts.into_iter();
        let mut words = Vec::with_capacity(chars.len().div_ceil(64));
        let mut bases = Vec::new();
        // Whether the next character starts a stretch, and how many source
        // positions the current factor has left.
        let (mut at_start, mut room) = (true, 0usize);
        let mut before = 0u32;
        for (w, chars) in chars.chunks(64).enumerate() {
            let mut separators = 0u64;
            for (i, &c) in chars.iter().enumerate() {
                if at_start {
                    let start = starts.next().ok_or(COUNT)?;
                    bases.push(start.wrapping_sub((w * 64 + i) as u32));
                    room = source_len.saturating_sub(start as usize);
                }
                at_start = c == 0;
                if c == 0 {
                    separators |= 1 << i;
                } else if room == 0 {
                    return Err("factor runs past the source string");
                } else {
                    room -= 1;
                }
            }
            // Bits past the text end read as separators.
            let past_end = u64::MAX.checked_shl(chars.len() as u32).unwrap_or(0);
            words.push(RankWord {
                separators: separators | past_end,
                before,
            });
            before += separators.count_ones();
        }
        if starts.next().is_some() {
            return Err(COUNT);
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

    /// The source start of every stretch of `chars`, the text this map is
    /// over: what [`FactorMap::new`] took.
    pub(crate) fn starts(&self, chars: &[u8]) -> Vec<u32> {
        let bases = stretch_starts(chars).zip(self.bases.iter());
        bases.map(|(x, &b)| (x as u32).wrapping_add(b)).collect()
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
    use ustr_uncertain::{transform, Correlation, CorrelationSet, UncertainString, NO_POSITION};

    const N: u32 = NO_POSITION;

    /// The map of `chars` built from the starts of its plain map `pos`,
    /// after checking that it gives `pos` back at every text position and
    /// its starts back whole.
    fn from_plain(chars: &[u8], pos: &[u32], source_len: usize) -> FactorMap {
        let starts: Vec<u32> = stretch_starts(chars).map(|x| pos[x]).collect();
        let map = FactorMap::new(chars, starts.iter().copied(), source_len).unwrap();
        let plain: Vec<u32> = (0..chars.len())
            .map(|x| map.source_pos(x).map_or(N, |p| p as u32))
            .collect();
        assert_eq!(plain, pos);
        assert_eq!(map.starts(chars), starts);
        map
    }

    #[test]
    fn positions_come_back_from_the_bases() {
        // Factors "ab" from source 5, "c" from 0 and "ab" from 5 again.
        let chars = b"ab\0c\0ab\0";
        let map = from_plain(chars, &[5, 6, N, 0, N, 5, 6, N], 7);
        assert_eq!(map.num_factors(), 3);
        assert_eq!(map.starts(chars), [5, 0, 5]);
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
        let map = from_plain(&chars, &pos, 66);
        assert_eq!(map.num_factors(), 20);
        assert_eq!(map.heap_sizes(), (4 * 16, 20 * 4));
    }

    #[test]
    fn stretches_without_characters_keep_ranks_aligned() {
        let chars = b"\0\0ab\0\0c";
        let map = from_plain(chars, &[N, N, 7, 8, N, N, 2], 9);
        assert_eq!(map.num_factors(), 5);
        assert_eq!(FactorMap::new(b"", [], 0).unwrap().num_factors(), 0);
    }

    /// One start per stretch, and each factor inside the source: a trailing
    /// stretch without a separator is one, the empty one after a final
    /// separator is none.
    #[test]
    fn starts_that_are_no_factor_map_are_refused() {
        let refused = |chars: &[u8], starts: &[u32], source_len| {
            FactorMap::new(chars, starts.iter().copied(), source_len).unwrap_err()
        };
        assert!(FactorMap::new(b"ab\0c", [0, 2], 3).is_ok());
        assert!(refused(b"ab\0c", &[0], 3).contains("start count"));
        assert!(refused(b"ab\0", &[0, 2], 3).contains("start count"));
        assert!(refused(b"ab\0c", &[2, 0], 3).contains("past the source"));
        assert!(refused(b"ab\0c", &[0, 3], 3).contains("past the source"));
        assert!(refused(b"ab\0c", &[0, u32::MAX], 3).contains("past the source"));
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
        /// writes the plain map's factor starts), an `ApproxIndex`, and a
        /// `ListingIndex`, whose map and per-factor documents give the pair
        /// the per-position arrays gave.
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
            let starts = stretch_starts(plain.special.chars()).map(|x| plain.pos[x]);
            prop_assert_eq!(state.starts, starts.collect::<Vec<_>>());
            let loaded = Index::from_snapshot(state).unwrap();
            let alone = ApproxIndex::build(&s, tau_min, 0.05).unwrap();
            for x in 0..len + 64 {
                let want = (x < len).then(|| plain.source_pos(x)).flatten();
                prop_assert_eq!(index.source_pos(x), want, "index at {}", x);
                prop_assert_eq!(loaded.source_pos(x), want, "loaded index at {}", x);
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
