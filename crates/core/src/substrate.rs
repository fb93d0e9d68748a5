//! The paper's §4 machinery, owned in one place.
//!
//! §4 builds one engine — a suffix tree over a deterministic text, the
//! cumulative probability array `C`, and per-pattern-length RMQ levels — and
//! §5, §6 and §7 reuse it under a Lemma-2 position map, a document map and
//! an ε-link table. [`Substrate`] is that engine: the only code that knows
//! how the triple is built, queried (suffix range → candidates in
//! decreasing-probability order, threshold or top-k), measured, taken apart
//! into [`SubstrateState`] and validated back together. [`ScoredText`] is
//! its level-free half (tree + `C`), whose clone shares its arrays: the
//! [`crate::ApproxIndex`] built over an [`crate::Index`] hangs its links off
//! the same tree and reads its probabilities from the same `C`
//! ([`checked_tree`] is how any index gets a tree back from a snapshot).
//! The index types add their own map and their own verification.
//!
//! Outside this module nothing sees a suffix-array *slot*: candidates come
//! back as text positions.

mod levels;
mod topk;

use ustr_suffix::SuffixTree;
use ustr_uncertain::{ModelError, MAX_TEXT_LEN};

use crate::{
    carray::CumulativeLogProb,
    error::Error,
    snapshot::{invalid, ScoredTextState, SubstrateState},
};

use levels::Levels;
pub(crate) use levels::{DedupStrategy, NO_KEY};

/// Refuses a length that `u32` positions (and one more slot than
/// positions) cannot address.
pub(crate) fn check_text_len(len: usize) -> Result<(), Error> {
    if len > MAX_TEXT_LEN {
        return Err(Error::Model(ModelError::TransformTooLarge {
            produced: len,
            limit: MAX_TEXT_LEN,
        }));
    }
    Ok(())
}

/// A deterministic text with per-position probabilities: its suffix tree
/// (pattern loci) and cumulative array `C` (O(1) window probabilities) —
/// the only copy an index keeps of the characters (in the tree) and of the
/// probabilities (`C`'s prefix sums). A clone shares both, array by array,
/// so a holder reaches them as directly as their owner does.
#[derive(Clone)]
pub(crate) struct ScoredText {
    pub(crate) tree: SuffixTree,
    pub(crate) cum: CumulativeLogProb,
}

impl ScoredText {
    /// Builds over `chars` (byte 0 = factor separator) with one probability
    /// per character. Every index builds its text here, so this is where a
    /// text too long for `u32` positions and slots is refused.
    pub(crate) fn build(chars: &[u8], probs: &[f64]) -> Result<Self, Error> {
        check_text_len(chars.len())?;
        Ok(Self {
            tree: SuffixTree::build(chars.to_vec()),
            cum: CumulativeLogProb::new(probs, |i| chars[i] == 0),
        })
    }

    /// Text position of the suffix in suffix-array slot `slot`.
    #[inline]
    fn pos(&self, slot: usize) -> usize {
        self.tree.sa(slot)
    }

    /// Stored log-probability of the length-`len` prefix of the suffix in
    /// `slot` (−∞ past the text end or across a separator).
    #[inline]
    fn window(&self, slot: usize, len: usize) -> f64 {
        self.cum.window(self.tree.sa(slot), len)
    }

    /// Decomposes into plain data: `(text, SA, LCP)` and the prefix sums.
    pub(crate) fn to_state(&self) -> ScoredTextState {
        let (text, sa, lcp) = self.tree.to_parts();
        ScoredTextState {
            text,
            sa,
            lcp,
            prefix: self.cum.prefix().to_vec(),
        }
    }

    /// Validates and reassembles: the tree through [`checked_tree`], and
    /// `C` must cover the text (whose separators are recounted as
    /// [`ScoredText::build`] counts them).
    pub(crate) fn from_state(state: ScoredTextState) -> Result<Self, Error> {
        let ScoredTextState {
            text,
            sa,
            lcp,
            prefix,
        } = state;
        let tree = checked_tree(text, sa, lcp)?;
        let text = tree.text();
        if prefix.len() != text.len() + 1 {
            return Err(invalid("cumulative array length does not match text"));
        }
        let cum = CumulativeLogProb::from_prefix(prefix, |i| text[i] == 0);
        Ok(Self { tree, cum })
    }
}

/// The suffix tree of `text` from its stored `(SA, LCP)` arrays, for every
/// index that loads one. The checks are exact: the SA must be *the* suffix
/// array of the text — a permutation of `0..n` whose neighbours ascend —
/// and every LCP entry the full common prefix of its two suffixes, because
/// `SuffixTree::from_parts` derives its child table from the LCP values
/// alone and a wrong table loses occurrences silently.
pub(crate) fn checked_tree(
    text: Vec<u8>,
    sa: Vec<u32>,
    lcp: Vec<u32>,
) -> Result<SuffixTree, Error> {
    let n = text.len();
    if sa.len() != n || lcp.len() != n {
        return Err(invalid("suffix/LCP array length does not match text"));
    }
    let mut seen = vec![false; n];
    for &p in &sa {
        let p = p as usize;
        if p >= n || seen[p] {
            return Err(invalid("suffix array is not a permutation of 0..n"));
        }
        seen[p] = true;
    }
    for (j, &l) in lcp.iter().enumerate() {
        let l = l as usize;
        if j == 0 {
            if l != 0 {
                return Err(invalid("lcp[0] must be 0"));
            }
            continue;
        }
        let (a, b) = (sa[j - 1] as usize, sa[j] as usize);
        if l > n - a || l > n - b || text[a..a + l] != text[b..b + l] {
            return Err(invalid("LCP entry exceeds the true common prefix"));
        }
        // Past the common prefix slot j-1 ends (a proper prefix sorts
        // first) or continues with a smaller character: the order of
        // the two slots and the maximality of `l` in one comparison.
        if a + l < n {
            if b + l == n || text[a + l] > text[b + l] {
                return Err(invalid("suffix array is not in suffix order"));
            }
            if text[a + l] == text[b + l] {
                return Err(invalid("LCP entry is short of the true common prefix"));
            }
        }
    }
    Ok(SuffixTree::from_parts(text, sa, lcp))
}

/// Scored text plus the per-length RMQ levels over it (see the module docs).
pub(crate) struct Substrate {
    text: ScoredText,
    levels: Levels,
}

impl Substrate {
    /// Builds the machinery over `chars`/`probs`. `dedup` states which
    /// suffixes of one locus partition are duplicates of each other.
    pub(crate) fn build(
        chars: &[u8],
        probs: &[f64],
        dedup: &DedupStrategy<'_>,
    ) -> Result<Self, Error> {
        let text = ScoredText::build(chars, probs)?;
        let levels = Levels::build(&text, dedup);
        Ok(Self { text, levels })
    }

    /// The scored text, for an index that shares it.
    pub(crate) fn text(&self) -> &ScoredText {
        &self.text
    }

    /// Suffix range of `pattern`: an opaque `(l, r)` for the query methods
    /// (`report` and `top_k` live beside the levels they search),
    /// `r - l + 1` suffixes wide. `None` when the pattern does not occur.
    pub(crate) fn range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        self.text.tree.suffix_range(pattern)
    }

    /// Every suffix in `[l, r]` as `(text position, stored length-m window
    /// log-probability)`, unfiltered and with duplicates.
    pub(crate) fn windows(
        &self,
        m: usize,
        l: usize,
        r: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        (l..=r).map(move |slot| (self.text.pos(slot), self.text.window(slot, m)))
    }

    /// Heap bytes per structure; a `(name, bytes)` row each.
    pub(crate) fn heap_breakdown(&self) -> [(&'static str, usize); 5] {
        let tree = &self.text.tree;
        let child_table = tree.child_table_heap_size();
        let (short, long) = self.levels.heap_sizes();
        [
            ("text + SA + LCP", tree.heap_size() - child_table),
            ("child table", child_table),
            ("cumulative array C", self.text.cum.heap_size()),
            ("short levels", short),
            ("long levels", long),
        ]
    }

    /// Approximate heap footprint in bytes: the rows of
    /// [`Substrate::heap_breakdown`].
    pub(crate) fn heap_size(&self) -> usize {
        self.heap_breakdown().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Decomposes into plain data (see [`crate::snapshot`]).
    pub(crate) fn to_state(&self) -> SubstrateState {
        SubstrateState {
            text: self.text.to_state(),
            levels: self.levels.to_parts(),
        }
    }

    /// Validates and reassembles; [`Error::InvalidSnapshot`] on any
    /// structural inconsistency, never a panic.
    pub(crate) fn from_state(state: SubstrateState) -> Result<Self, Error> {
        let text = ScoredText::from_state(state.text)?;
        let levels = Levels::from_parts(state.levels, &text)?;
        Ok(Self { text, levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{IndexState, SpecialIndexState};
    use crate::{ApproxIndex, Index, ListingIndex, SpecialIndex};
    use ustr_uncertain::{SpecialUncertainString, UncertainString};

    const BANANA_PROBS: [f64; 6] = [0.4, 0.7, 0.5, 0.8, 0.9, 0.6];

    fn banana() -> SpecialUncertainString {
        SpecialUncertainString::new(b"banana".to_vec(), BANANA_PROBS.to_vec()).unwrap()
    }

    fn figure_10() -> UncertainString {
        UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap()
    }

    /// Figure 5's string (7 slots, 3 short levels, long levels at 3 and 6)
    /// as a special index, beside Figure 10's as a general one: between
    /// them every array a state struct holds.
    fn states() -> (SpecialIndexState, IndexState) {
        (
            SpecialIndex::build(&banana()).unwrap().to_snapshot(),
            Index::build(&figure_10(), 0.1).unwrap().to_snapshot(),
        )
    }

    fn assemble((special, index): (SpecialIndexState, IndexState)) -> Result<(), Error> {
        SpecialIndex::from_snapshot(special)?;
        Index::from_snapshot(index)?;
        Ok(())
    }

    fn rejection<T>(result: Result<T, Error>) -> String {
        match result {
            Err(Error::InvalidSnapshot { detail }) => detail,
            Err(other) => panic!("wrong error kind: {other:?}"),
            Ok(_) => panic!("inconsistent state was accepted"),
        }
    }

    /// Checksummed-but-inconsistent state: a payload can pass the store's
    /// checksum and still describe no valid structure. Every such state is
    /// an `InvalidSnapshot` — never a panic, at load or at the first query.
    /// No row sets two copies of one array against each other: a state
    /// holds each once.
    #[test]
    fn inconsistent_state_is_rejected_not_panicked_on() {
        assert!(assemble(states()).is_ok());
        type Tamper = fn(&mut SpecialIndexState, &mut IndexState);
        const LADDER: &str = "level count does not match the ladder";
        let rows: [(&str, Tamper); 15] = [
            ("not a permutation", |s, _| {
                s.substrate.text.sa[0] = s.substrate.text.sa[1]
            }),
            ("lcp[0] must be 0", |s, _| s.substrate.text.lcp[0] = 1),
            ("exceeds the true common prefix", |s, _| {
                s.substrate.text.lcp[1] += 1
            }),
            // Two suffixes swapped, with the LCPs around them zeroed so
            // that none *exceeds* a common prefix.
            ("not in suffix order", |s, _| {
                s.substrate.text.sa.swap(2, 3);
                s.substrate.text.lcp[2..5].fill(0);
            }),
            ("short of the true common prefix", |s, _| {
                let lcp = &mut s.substrate.text.lcp;
                *lcp.iter_mut().find(|l| **l > 0).unwrap() -= 1;
            }),
            ("cumulative array length", |s, _| {
                s.substrate.text.prefix.push(0.0)
            }),
            ("mask word count", |s, _| {
                s.substrate.levels.short[0].mask_words.push(0)
            }),
            ("outside its block", |s, _| {
                s.substrate.levels.short[0].champions[0] = u32::MAX
            }),
            // One short level missing, one long level missing, one long
            // level too many: a file describes the levels `build` makes.
            (LADDER, |s, _| drop(s.substrate.levels.short.pop())),
            (LADDER, |s, _| drop(s.substrate.levels.long.pop())),
            (LADDER, |s, _| {
                let extra = s.substrate.levels.long[1].clone();
                s.substrate.levels.long.push(extra)
            }),
            ("champion count", |s, _| {
                s.substrate.levels.long[0].champions.push(0)
            }),
            ("does not match probability count", |s, _| s.probs.push(0.5)),
            ("position map length", |_, i| i.pos.push(0)),
            ("outside the source string", |_, i| {
                i.pos[0] = i.source.len() as u32
            }),
        ];
        for (expected, tamper) in rows {
            let (mut special, mut index) = states();
            tamper(&mut special, &mut index);
            let detail = rejection(assemble((special, index)));
            assert!(detail.contains(expected), "{expected:?}: got {detail:?}");
        }
    }

    /// `u32::MAX` is the "no position" value and the slot count is one
    /// more than the length, so the last length that fits is one below it.
    #[test]
    fn a_text_too_long_for_u32_positions_is_refused() {
        assert!(check_text_len(u32::MAX as usize - 1).is_ok());
        let refused = check_text_len(u32::MAX as usize);
        assert!(matches!(
            refused,
            Err(Error::Model(ModelError::TransformTooLarge { .. }))
        ));
    }

    /// One row of the table through each public entry point: all four
    /// `from_snapshot`s reach the same validator.
    #[test]
    fn every_from_snapshot_reaches_the_substrate_validator() {
        let s = figure_10();
        let (mut special, mut index) = states();
        index.substrate.text.lcp[0] = 1;
        special.substrate.text.lcp[0] = 1;
        let mut listing = ListingIndex::build(&[s.clone(), s.clone()], 0.1)
            .unwrap()
            .to_snapshot();
        listing.substrate.text.lcp[0] = 1;
        let mut approx = ApproxIndex::build(&s, 0.1, 0.05).unwrap().to_snapshot();
        approx.text.lcp[0] = 1;
        let details = [
            rejection(Index::from_snapshot(index)),
            rejection(SpecialIndex::from_snapshot(special)),
            rejection(ListingIndex::from_snapshot(listing)),
            rejection(ApproxIndex::from_snapshot(approx)),
        ];
        assert_eq!(details, ["lcp[0] must be 0"; 4]);
    }

    /// `heap_bytes` measures the index it is read from: a loaded index
    /// reports its own footprint, not the number its builder recorded.
    #[test]
    fn a_loaded_index_reports_its_own_heap() {
        let s = figure_10();
        let (mut special, mut index) = states();
        let mut listing = ListingIndex::build(&[s.clone(), s.clone()], 0.1)
            .unwrap()
            .to_snapshot();
        let mut approx = ApproxIndex::build(&s, 0.1, 0.05).unwrap().to_snapshot();
        for stats in [
            &mut special.stats,
            &mut index.stats,
            &mut listing.stats,
            &mut approx.stats,
        ] {
            stats.heap_bytes = 1;
        }
        let special = SpecialIndex::from_snapshot(special).unwrap();
        let index = Index::from_snapshot(index).unwrap();
        let listing = ListingIndex::from_snapshot(listing).unwrap();
        let approx = ApproxIndex::from_snapshot(approx).unwrap();
        for (reported, held) in [
            (special.stats().heap_bytes, special.heap_size()),
            (index.stats().heap_bytes, index.heap_size()),
            (listing.stats().heap_bytes, listing.heap_size()),
            (approx.stats().heap_bytes, approx.heap_size()),
        ] {
            assert!(reported > 1);
            assert_eq!(reported, held);
        }
    }
}
