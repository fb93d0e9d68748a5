//! The paper's §4 machinery, owned in one place.
//!
//! §4 builds one engine — a suffix tree over a deterministic text, the
//! cumulative probability array `C`, and per-pattern-length RMQ levels — and
//! §5, §6 and §7 reuse it under a Lemma-2 position map, a document map and
//! an ε-link table. [`Substrate`] is that engine: the only code that knows
//! how the triple is built, queried (suffix range → candidates in
//! decreasing-probability order, threshold or top-k), measured, taken apart
//! into [`SubstrateState`] and validated back together. [`ScoredText`] is
//! its level-free half (tree + `C`), which the [`crate::ApproxIndex`] hangs
//! its links off ([`checked_tree`] is how a loaded index gets its tree
//! back).
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

/// Refuses a length past `limit`: [`MAX_TEXT_LEN`] for a text that `u32`
/// positions (and one more slot than positions) must address.
pub(crate) fn check_text_len(len: usize, limit: usize) -> Result<(), Error> {
    if len > limit {
        return Err(Error::Model(ModelError::TransformTooLarge {
            produced: len,
            limit,
        }));
    }
    Ok(())
}

/// A deterministic text with per-position probabilities: its suffix tree
/// (pattern loci) and cumulative array `C` (O(1) window probabilities) —
/// the only copy an index keeps of the characters (in the tree) and of the
/// probabilities (`C`'s prefix sums).
pub(crate) struct ScoredText {
    pub(crate) tree: SuffixTree,
    pub(crate) cum: CumulativeLogProb,
}

impl ScoredText {
    /// Builds over `chars` (byte 0 = factor separator) with one probability
    /// per character. Every index builds its text here, so this is where a
    /// text too long for `u32` positions and slots is refused.
    pub(crate) fn build(chars: &[u8], probs: &[f64]) -> Result<Self, Error> {
        check_text_len(chars.len(), MAX_TEXT_LEN)?;
        Ok(Self::new(SuffixTree::build(chars.to_vec()), probs))
    }

    /// `tree`'s text with `C` over `probs`, one per character (ignored at
    /// separators): the one place `C` is computed, for a build and a load.
    fn new(tree: SuffixTree, probs: &[f64]) -> Self {
        let chars = tree.text();
        let cum = CumulativeLogProb::new(probs, |i| chars[i] == 0);
        Self { tree, cum }
    }

    /// Text position of the suffix in suffix-array slot `slot`.
    #[inline]
    fn pos(&self, slot: usize) -> usize {
        self.tree.sa(slot)
    }

    /// Stored log-probability of the length-`len` prefix of the suffix in
    /// `slot`, which must cross no separator and stay inside the text: the
    /// contract of [`CumulativeLogProb::window`], which every slot of a
    /// pattern's suffix range meets at the pattern's length. Checked
    /// against the text in debug builds.
    #[inline]
    fn window(&self, slot: usize, len: usize) -> f64 {
        let x = self.tree.sa(slot);
        debug_assert!(
            (self.tree.text().get(x..x + len)).is_some_and(|window| !window.contains(&0)),
            "window {x}+{len} crosses a separator or leaves the text"
        );
        self.cum.window(x, len)
    }

    /// For every text position and the end, the number of characters up to
    /// the next separator or the text end — the longest window there. One
    /// backward pass over the text's bytes; transient, for the build- and
    /// load-time reads that can meet a separator.
    pub(crate) fn run_lengths(&self) -> Vec<u32> {
        let chars = self.tree.text();
        let mut run = vec![0u32; chars.len() + 1];
        for x in (0..chars.len()).rev() {
            if chars[x] != 0 {
                run[x] = run[x + 1] + 1;
            }
        }
        run
    }

    /// [`ScoredText::window`] where the window is whole, −∞ where it would
    /// cross a separator or leave the text: read through the slot's run
    /// length (`run` is [`ScoredText::run_lengths`]).
    #[inline]
    fn run_window(&self, run: &[u32], slot: usize, len: usize) -> f64 {
        if len > run[self.tree.sa(slot)] as usize {
            f64::NEG_INFINITY
        } else {
            self.window(slot, len)
        }
    }
}

/// The suffix tree of `text` from its stored `(SA, LCP)` arrays, for a
/// loaded index. The checks are exact: the SA must be *the* suffix
/// array of the text — a permutation of `0..n` whose neighbours ascend —
/// and every LCP entry the full common prefix of its two suffixes, because
/// `SuffixTree::from_parts` derives its child table from the LCP values
/// alone and a wrong table loses occurrences silently.
fn checked_tree(text: Vec<u8>, sa: Vec<u32>, lcp: Vec<u32>) -> Result<SuffixTree, Error> {
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

    /// The scored text.
    pub(crate) fn text(&self) -> &ScoredText {
        &self.text
    }

    /// Suffix range of `pattern`: an opaque `(l, r)` for the query methods
    /// (`report` and `top_k` live beside the levels they search),
    /// `r - l + 1` suffixes wide. `None` when the pattern does not occur.
    pub(crate) fn range(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        self.text.tree.suffix_range(pattern)
    }

    /// The text position of every suffix in `[l, r]`, with duplicates.
    pub(crate) fn positions(&self, l: usize, r: usize) -> impl Iterator<Item = usize> + '_ {
        (l..=r).map(|slot| self.text.pos(slot))
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

    /// Decomposes into plain data (see [`crate::snapshot`]): `(text, SA,
    /// LCP)` and the levels. `C` is not in it: a load derives it.
    pub(crate) fn to_state(&self) -> SubstrateState {
        let (text, sa, lcp) = self.text.tree.to_parts();
        SubstrateState {
            text: ScoredTextState { text, sa, lcp },
            levels: self.levels.to_parts(),
        }
    }

    /// Validates and reassembles — the tree through [`checked_tree`], `C`
    /// over `probs` (one per text character, as the index's load derived
    /// them) — with [`Error::InvalidSnapshot`] on any structural
    /// inconsistency, never a panic.
    pub(crate) fn from_state(state: SubstrateState, probs: &[f64]) -> Result<Self, Error> {
        let ScoredTextState { text, sa, lcp } = state.text;
        let text = ScoredText::new(checked_tree(text, sa, lcp)?, probs);
        let levels = Levels::from_parts(state.levels, &text)?;
        Ok(Self { text, levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IndexState;
    use crate::{ApproxIndex, Index};
    use ustr_uncertain::UncertainString;

    /// Figure 5's characters twice as a certain string (a separator ends
    /// its one factor: 14 slots, 4 short levels, long levels at 4 and 8):
    /// every array a state struct holds, and a ladder with two long levels.
    fn state() -> IndexState {
        let banana = UncertainString::deterministic(b"bananabanana");
        Index::build(&banana, 0.5).unwrap().to_snapshot()
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
        let levels = &state().substrate.levels;
        assert_eq!((levels.short.len(), levels.long.len()), (4, 2));
        assert!(Index::from_snapshot(state()).is_ok());
        type Tamper = fn(&mut IndexState);
        const LADDER: &str = "level count does not match the ladder";
        let rows: [(&str, Tamper); 14] = [
            ("not a permutation", |i| {
                i.substrate.text.sa[0] = i.substrate.text.sa[1]
            }),
            ("lcp[0] must be 0", |i| i.substrate.text.lcp[0] = 1),
            ("exceeds the true common prefix", |i| {
                i.substrate.text.lcp[1] += 1
            }),
            // The last `a…` suffix and the first `b…` one swapped, with the
            // LCPs around them zeroed so that none *exceeds* a common prefix.
            ("not in suffix order", |i| {
                i.substrate.text.sa.swap(6, 7);
                i.substrate.text.lcp[6..9].fill(0);
            }),
            ("short of the true common prefix", |i| {
                let lcp = &mut i.substrate.text.lcp;
                *lcp.iter_mut().find(|l| **l > 0).unwrap() -= 1;
            }),
            ("mask word count", |i| {
                i.substrate.levels.short[0].mask_words.push(0)
            }),
            ("outside its block", |i| {
                i.substrate.levels.short[0].champions[0] = u32::MAX
            }),
            // One short level missing, one long level missing, one long
            // level too many: a file describes the levels `build` makes.
            (LADDER, |i| drop(i.substrate.levels.short.pop())),
            (LADDER, |i| drop(i.substrate.levels.long.pop())),
            (LADDER, |i| {
                let extra = i.substrate.levels.long[1].clone();
                i.substrate.levels.long.push(extra)
            }),
            ("champion count", |i| {
                i.substrate.levels.long[0].champions.push(0)
            }),
            // The map is one start per stretch (here one factor, and no
            // stretch after the final separator) with each factor inside
            // the source, and every character has a probability at its
            // source position: `C` is summed from them.
            ("start count does not match", |i| i.starts.push(0)),
            ("runs past the source string", |i| i.starts[0] = 1),
            ("no probability at its source position", |i| {
                i.substrate.text.text[0] = b'n'
            }),
        ];
        for (expected, tamper) in rows {
            let mut index = state();
            tamper(&mut index);
            let detail = rejection(Index::from_snapshot(index));
            assert!(detail.contains(expected), "{expected:?}: got {detail:?}");
        }
    }

    /// The run at a text position ends at the next separator or the text
    /// end, and a window read through it is whole exactly up to there.
    #[test]
    fn run_lengths_find_the_next_separator() {
        let text = ScoredText::build(b"ab\0c\0d", &[0.5, 0.5, 1.0, 0.5, 1.0, 0.5]).unwrap();
        let run = text.run_lengths();
        assert_eq!(run, [2, 1, 0, 1, 0, 1, 0]);
        for slot in 0..text.tree.num_slots() {
            let x = text.pos(slot);
            for len in 0..=run.len() {
                let whole = text.run_window(&run, slot, len).is_finite();
                assert_eq!(whole, len <= run[x] as usize, "{x}+{len}");
            }
        }
    }

    /// A pattern whose characters meet only across a separator occurs in
    /// no text: not in a bare text, and — where the source string gives it
    /// less than τmin, so the transform splits it — in no index's. A query
    /// therefore never asks `C` for a window across a separator.
    #[test]
    fn a_pattern_that_would_span_a_separator_is_found_by_no_index() {
        let bare = Substrate::build(b"A\0B", &[0.9, 1.0, 0.9], &DedupStrategy::None).unwrap();
        assert_eq!(bare.range(b"AB"), None);
        assert!(bare.range(b"A").is_some() && bare.range(b"B").is_some());

        // Every window of two has probability .25 < τmin: one factor per
        // character, and each pair of neighbours across a separator.
        let source = UncertainString::parse("A:.5,C:.5 | B:.5,D:.5 | A:.5,C:.5").unwrap();
        let tau_min = 0.3;
        let index = Index::build(&source, tau_min).unwrap();
        let alone = ApproxIndex::build(&source, tau_min, 0.05).unwrap();
        let listing = crate::ListingIndex::build(std::slice::from_ref(&source), tau_min).unwrap();
        let chars = index.to_snapshot().substrate.text.text;
        let spans: Vec<[u8; 2]> = (1..chars.len() - 1)
            .filter(|&x| chars[x] == 0)
            .map(|x| [chars[x - 1], chars[x + 1]])
            .collect();
        assert_eq!(spans.len(), 5, "six one-character factors");
        for pattern in &spans {
            assert!(index.query(pattern, tau_min).unwrap().is_empty());
            assert!(index.query_top_k(pattern, 3).unwrap().is_empty());
            assert!(alone.query(pattern, tau_min).unwrap().is_empty());
            assert!(listing.query(pattern, tau_min).unwrap().is_empty());
        }
    }

    /// `u32::MAX` is the "no position" value and the slot count is one
    /// more than the length, so the last length that fits is one below it.
    #[test]
    fn a_text_too_long_for_u32_positions_is_refused() {
        assert!(check_text_len(u32::MAX as usize - 1, MAX_TEXT_LEN).is_ok());
        let refused = check_text_len(u32::MAX as usize, MAX_TEXT_LEN);
        assert!(matches!(
            refused,
            Err(Error::Model(ModelError::TransformTooLarge { .. }))
        ));
    }

    /// `heap_bytes` measures the index it is read from: a loaded index
    /// reports its own footprint, not the number recorded at build time.
    #[test]
    fn a_loaded_index_reports_its_own_heap() {
        let mut index = state();
        index.stats.heap_bytes = 1;
        let index = Index::from_snapshot(index).unwrap();
        assert!(index.stats().heap_bytes > 1);
        assert_eq!(index.stats().heap_bytes, index.heap_size());
    }
}
