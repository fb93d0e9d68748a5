//! The paper's §4 machinery, owned in one place.
//!
//! §4 builds one engine — a suffix tree over a deterministic text, the
//! text's probabilities (the paper's `C`; here one value code per character,
//! [`crate::codes`]), and per-pattern-length RMQ levels — and §5 and §6
//! reuse it under a Lemma-2 position map and a document map. [`Substrate`]
//! is that engine: the only code that knows how the triple is built,
//! queried (suffix range → candidates in decreasing-probability order,
//! threshold or top-k), measured, taken apart into [`SubstrateState`] and
//! validated back together. [`ScoredText`] is its level-free half (tree +
//! value codes) ([`checked_tree`] is how a loaded index gets its tree
//! back). A candidate's value is its window's sum in the kernel's order:
//! on a model without correlations the probability every executor
//! reports, so the index types report it as it is, and under correlation
//! an upper bound, which they verify through their plane's kernel.
//!
//! Outside this module nothing sees a suffix-array *slot*: candidates come
//! back as text positions.
//!
//! # Only the suffixes a query can reach
//!
//! Under `BySource` keys (an `Index`, and a `ListingIndex` over correlated
//! documents) the tree holds a sorted subset of the text's suffixes, not
//! all of them. A slot's *window* is its suffix up to the next separator
//! (or the text end); every pattern a slot can answer is a prefix of it,
//! and is answered at the slot's key with the characters, so the
//! probability, of the window. A slot is *redundant* when another slot of
//! its key has a window that starts with all of its own: that slot answers
//! everything this one does. [`keep_reachable`] drops every slot without a
//! key (the separators) and every redundant one, keeping the first of
//! exact twins, after SA-IS and the LCP ran over the whole text, and
//! compacts SA and LCP: a kept pair's LCP is the minimum over the slots
//! dropped between them, their true common prefix. The tree, the window
//! reads, the visibility bytes and the levels are then built over the kept slots
//! (a descent over a sorted subset of suffixes with their LCPs is the same
//! enhanced-suffix-array walk), and no (pattern, source position) pair is
//! lost.
//!
//! The kept windows of one source position are prefix-free, so on
//! uncorrelated input — where each is an event of probability ≥ τmin and
//! prefix-free windows are disjoint events — at most ⌊1/τmin⌋ slots are
//! kept per source position: the z-estimation's length, where the text is
//! O(n/τmin²). On `paper-string` (θ 0.3, τmin 0.1) 29.1 % of the slots stay,
//! 2.76 a position. Whether a loaded SA holds *every* reachable slot cannot
//! be checked without SA-IS (INVARIANTS.md); [`checked_tree`] checks that
//! its entries are distinct, keyed and sorted at their LCPs.
//!
//! A `SpecialIndex` (no keys: every slot is a distinct position) and a
//! `ListingIndex` under `ByKeyMax` (a document's winner may be any of its
//! slots) keep every slot, and so does an `ApproxIndex`, whose links hang
//! off a bare [`ScoredText::build`].

mod levels;
mod topk;

use ustr_suffix::{lcp_array, suffix_array, SuffixTree};
use ustr_uncertain::{ModelError, MAX_TEXT_LEN};

use crate::{
    codes::ValueCodes,
    error::Error,
    snapshot::{invalid, ScoredTextState, SubstrateState},
};

use levels::{key_space, Levels};
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

/// For every position of `chars` and its end, the number of characters up
/// to the next separator or the text end — the longest window there. One
/// backward pass over the text's bytes; transient, for the build- and
/// load-time reads that can meet a separator.
pub(crate) fn run_lengths(chars: &[u8]) -> Vec<u32> {
    let mut run = vec![0u32; chars.len() + 1];
    for x in (0..chars.len()).rev() {
        if chars[x] != 0 {
            run[x] = run[x + 1] + 1;
        }
    }
    run
}

/// Keeps of the suffix array `sa` of `chars` and its LCP array `lcp` only
/// the slots a query can reach under the `BySource` `keys` (module docs),
/// compacted in place, with the text's [`run_lengths`] `run`. Three linear
/// passes:
///
/// 1. Left to right, each keyed slot `j` meets `p`, the previous slot of its
///    key, and the minimum LCP over `(p, j]`, read off a stack of LCP minima.
///    A slot's window is followed by a separator or the text end, which sort
///    before every character, so the slots whose suffixes start with a
///    window `w` are its twins (window `w`) and then the slots whose window
///    extends `w`. Hence `p` is a twin of `j` when the minimum reaches `j`'s
///    run (`j` is dropped: keep the first twin), and `j` extends `p`, or is
///    its twin, when it reaches `p`'s.
/// 2. Right to left, a twin takes the verdict of the next slot of its key
///    ("extended by a longer window" is the same for twins).
/// 3. Left to right, the kept slots move down, each with the minimum LCP
///    since the previous kept one.
fn keep_reachable(run: &[u32], keys: &[u32], sa: &mut Vec<u32>, lcp: &mut Vec<u32>) {
    /// A slot without a key: a separator's.
    const KEYLESS: u8 = 1;
    /// An earlier slot of the key has the same window.
    const LATER_TWIN: u8 = 2;
    /// A later slot of the key has a window that extends this one.
    const EXTENDED: u8 = 4;
    /// The next slot of the key has the same window, and this one's verdict.
    const NEXT_IS_TWIN: u8 = 8;
    let window = |slot: u32| run[sa[slot as usize] as usize];
    let mut flags = vec![0u8; sa.len()];
    let mut prev = vec![u32::MAX; key_space(keys)];
    // `(slot, LCP)` pairs, both rising toward the top: the minimum LCP over
    // `(p, j]` is that of the first pair past `p`.
    let mut minima: Vec<(u32, u32)> = Vec::new();
    for j in 0..sa.len() as u32 {
        let lcp_j = lcp[j as usize];
        while minima.last().is_some_and(|&(_, l)| l >= lcp_j) {
            minima.pop();
        }
        minima.push((j, lcp_j));
        let key = keys[sa[j as usize] as usize];
        if key == NO_KEY {
            flags[j as usize] = KEYLESS;
            continue;
        }
        let p = std::mem::replace(&mut prev[key as usize], j);
        if p == u32::MAX {
            continue;
        }
        let shared = minima[minima.partition_point(|&(slot, _)| slot <= p)].1;
        if shared >= window(j) {
            flags[j as usize] |= LATER_TWIN;
        }
        if shared >= window(p) {
            flags[p as usize] |= if window(j) > window(p) {
                EXTENDED
            } else {
                NEXT_IS_TWIN
            };
        }
    }
    // Per key, whether its slot right of the current one is extended.
    let mut extended = vec![false; prev.len()];
    drop(prev);
    for j in (0..sa.len()).rev() {
        let key = keys[sa[j] as usize];
        if key == NO_KEY {
            continue;
        }
        let next = &mut extended[key as usize];
        *next = flags[j] & EXTENDED != 0 || (flags[j] & NEXT_IS_TWIN != 0 && *next);
        if *next {
            flags[j] |= EXTENDED;
        }
    }
    let (mut kept, mut shared) = (0, u32::MAX);
    for j in 0..sa.len() {
        shared = shared.min(lcp[j]);
        if flags[j] & (KEYLESS | LATER_TWIN | EXTENDED) == 0 {
            (sa[kept], lcp[kept]) = (sa[j], shared);
            (kept, shared) = (kept + 1, u32::MAX);
        }
    }
    sa.truncate(kept);
    lcp.truncate(kept);
}

/// A deterministic text with per-position probabilities: its suffix tree
/// (pattern loci) and its value codes (window values, [`crate::codes`]) —
/// the only copy an index keeps of the characters (in the tree) and of the
/// probabilities (a code per character into a table of their `ln p`).
pub(crate) struct ScoredText {
    pub(crate) tree: SuffixTree,
    pub(crate) values: ValueCodes,
}

impl ScoredText {
    /// Builds over `chars` (byte 0 = factor separator) with one probability
    /// per character, keeping every slot.
    pub(crate) fn build(chars: &[u8], probs: &[f64]) -> Result<Self, Error> {
        check_text_len(chars.len(), MAX_TEXT_LEN)?;
        Ok(Self::new(SuffixTree::build(chars.to_vec()), probs))
    }

    /// `tree`'s text with the value codes of `probs`, one per character
    /// (ignored at separators): the one place they are computed, for a
    /// build and a load.
    fn new(tree: SuffixTree, probs: &[f64]) -> Self {
        let chars = tree.text();
        let values = ValueCodes::new(probs, |i| chars[i] == 0);
        Self { tree, values }
    }

    /// Text position of the suffix in suffix-array slot `slot`.
    #[inline]
    fn pos(&self, slot: usize) -> usize {
        self.tree.sa(slot)
    }

    /// Value of the length-`len` prefix of the suffix in `slot`, which must
    /// cross no separator and stay inside the text: the contract of
    /// [`ValueCodes::window`], which every slot of a pattern's suffix range
    /// meets at the pattern's length. Checked against the text in debug
    /// builds.
    #[inline]
    pub(crate) fn window(&self, slot: usize, len: usize) -> f64 {
        let x = self.tree.sa(slot);
        debug_assert!(
            (self.tree.text().get(x..x + len)).is_some_and(|window| !window.contains(&0)),
            "window {x}+{len} crosses a separator or leaves the text"
        );
        self.values.window(x, len)
    }

    /// [`run_lengths`] of the text.
    pub(crate) fn run_lengths(&self) -> Vec<u32> {
        run_lengths(self.tree.text())
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
/// loaded index: the kept slots (module docs). The checks are exact for
/// what is stored: every SA entry is a keyed position of the text (not a
/// separator), no entry repeats, neighbours ascend in suffix order, and
/// every LCP entry is the full common prefix of its two suffixes, because
/// `SuffixTree::from_parts` derives its child table from the LCP values
/// alone and a wrong table loses occurrences silently. Whether the entries
/// are *all* the reachable slots is not checked: that takes SA-IS.
fn checked_tree(text: Vec<u8>, sa: Vec<u32>, lcp: Vec<u32>) -> Result<SuffixTree, Error> {
    let n = text.len();
    if lcp.len() != sa.len() {
        return Err(invalid("suffix/LCP array lengths differ"));
    }
    for &p in &sa {
        match text.get(p as usize) {
            None => return Err(invalid("suffix array entry past the text")),
            Some(0) => return Err(invalid("suffix array entry at a separator")),
            Some(_) => {}
        }
    }
    for (j, &l) in lcp.iter().enumerate() {
        let l = l as usize;
        if j == 0 {
            if l != 0 {
                return Err(invalid("lcp[0] must be 0"));
            }
            continue;
        }
        // Neighbours that ascend strictly are distinct, and so, by
        // transitivity, is every entry.
        let (a, b) = (sa[j - 1] as usize, sa[j] as usize);
        if a == b {
            return Err(invalid("suffix array entry repeats"));
        }
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
    /// suffixes of one locus partition are duplicates of each other; under
    /// `BySource` keys the tree holds only the slots a query can reach
    /// (module docs).
    pub(crate) fn build(
        chars: &[u8],
        probs: &[f64],
        dedup: &DedupStrategy<'_>,
    ) -> Result<Self, Error> {
        check_text_len(chars.len(), MAX_TEXT_LEN)?;
        let mut sa = suffix_array(chars);
        let mut lcp = lcp_array(chars, &sa);
        let run = run_lengths(chars);
        if let DedupStrategy::BySource(keys) = *dedup {
            keep_reachable(&run, keys, &mut sa, &mut lcp);
        }
        let tree = SuffixTree::from_parts(chars.to_vec(), sa, lcp);
        let text = ScoredText::new(tree, probs);
        let levels = Levels::build(&text, &run, dedup);
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

    /// `(text position, window value)` of every suffix in `[l, r]`, the
    /// suffix range of a length-`m` pattern, with duplicates.
    pub(crate) fn windows(
        &self,
        m: usize,
        l: usize,
        r: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        (l..=r).map(move |slot| (self.text.pos(slot), self.text.window(slot, m)))
    }

    /// Heap bytes per structure; a `(name, bytes)` row each.
    pub(crate) fn heap_breakdown(&self) -> [(&'static str, usize); 6] {
        let tree = &self.text.tree;
        let child_table = tree.child_table_heap_size();
        let (hidden, short, long) = self.levels.heap_sizes();
        [
            ("text + SA + LCP", tree.heap_size() - child_table),
            ("child table", child_table),
            ("value codes", self.text.values.heap_size()),
            ("visibility bytes", hidden),
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
    /// LCP)` and the levels. The value codes are not in it: a load derives
    /// them.
    pub(crate) fn to_state(&self) -> SubstrateState {
        let (text, sa, lcp) = self.text.tree.to_parts();
        SubstrateState {
            text: ScoredTextState { text, sa, lcp },
            levels: self.levels.to_parts(),
        }
    }

    /// Validates and reassembles — the tree through [`checked_tree`], the
    /// value codes of `probs` (one per text character, as the index's load
    /// derived them) — with [`Error::InvalidSnapshot`] on any structural
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
    use crate::{ApproxIndex, BuildStats, Index};
    use ustr_uncertain::UncertainString;

    /// Figure 5's characters twice as a certain string (a separator ends
    /// its one factor; every character is a source position of its own, so
    /// every slot but the separator's is kept: 13 slots, 4 short levels,
    /// long levels at 4 and 8):
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
        let rows: [(&str, Tamper); 19] = [
            // The text is 12 characters and the separator at 12.
            ("entry at a separator", |i| i.substrate.text.sa[0] = 12),
            ("entry past the text", |i| i.substrate.text.sa[0] = 13),
            ("entry repeats", |i| {
                i.substrate.text.sa[1] = i.substrate.text.sa[0]
            }),
            ("lcp[0] must be 0", |i| i.substrate.text.lcp[0] = 1),
            ("exceeds the true common prefix", |i| {
                i.substrate.text.lcp[1] += 1
            }),
            // The last `a…` suffix and the first `b…` one swapped, with the
            // LCPs around them zeroed so that none *exceeds* a common prefix.
            ("not in suffix order", |i| {
                i.substrate.text.sa.swap(5, 6);
                i.substrate.text.lcp[5..8].fill(0);
            }),
            ("short of the true common prefix", |i| {
                let lcp = &mut i.substrate.text.lcp;
                *lcp.iter_mut().find(|l| **l > 0).unwrap() -= 1;
            }),
            ("visibility byte count", |i| {
                i.substrate.levels.visibility.pop();
            }),
            // Four short levels: a byte of 5 names none, at slot 1.
            ("visibility byte above", |i| {
                i.substrate.levels.visibility[1] = 5
            }),
            ("visibility byte 255 at a slot", |i| {
                i.substrate.levels.visibility[1] = 255
            }),
            ("other than 255 at the terminator", |i| {
                i.substrate.levels.visibility[0] = 5
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
            // source position: its value code is derived from it.
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
    /// therefore never asks for a window across a separator.
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

    /// The ladder ends at the longest factor. Over generated strings and
    /// collections, every long level of an `Index` and a `ListingIndex`
    /// holds a finite champion, the long levels are those of `L` and `2L`
    /// no longer than the text's longest separator-free stretch, and a
    /// pattern longer than that stretch answers empty in every mode, as the
    /// scanner does.
    #[test]
    fn no_long_level_passes_the_longest_stretch() {
        use crate::ListingIndex;
        use ustr_baseline::NaiveScanner;
        use ustr_workload::{generate_collection, generate_string, DatasetConfig};
        const TAU: f64 = 0.1;
        // The longest separator-free stretch of `sub`'s text, after the
        // checks on its long levels.
        let checked = |sub: &Substrate| {
            let text = sub.text.tree.text();
            let longest = text.split(|&c| c == 0).map(<[u8]>::len).max().unwrap();
            let long = sub.long_levels();
            assert!(long.iter().all(|&(_, finite)| finite), "{long:?}");
            let short = (usize::BITS - sub.text.tree.num_slots().leading_zeros()) as usize;
            let fitting = [short, 2 * short].into_iter().filter(|&len| len <= longest);
            let lens: Vec<usize> = long.iter().map(|&(len, _)| len).collect();
            assert_eq!(lens, fitting.collect::<Vec<_>>(), "for {longest}");
            longest
        };
        // `len` characters of the world of each position's first choice,
        // from `start` on, cycled past the end.
        let world = |s: &UncertainString, start: usize, len: usize| -> Vec<u8> {
            let chars = (0..s.len()).map(|q| s.position(q).choices()[0].0);
            chars.cycle().skip(start).take(len).collect()
        };
        for (n, theta, seed) in [
            (37, 0.3, 11),
            (400, 0.3, 13),
            (2_000, 0.3, 43),
            (300, 0.0, 5),
        ] {
            let config = DatasetConfig::new(n, theta, seed);
            let source = generate_string(&config);
            let index = Index::build(&source, TAU).unwrap();
            let approx = ApproxIndex::build(&source, TAU, 0.05).unwrap();
            let longest = checked(&index.substrate);
            for start in (0..n).step_by(n / 7 + 1) {
                let pattern = world(&source, start, longest + 1);
                assert!(NaiveScanner::find(&source, &pattern, TAU).is_empty());
                assert!(index.query(&pattern, TAU).unwrap().is_empty());
                assert!(index.query_top_k(&pattern, 3).unwrap().is_empty());
                assert!(approx.query(&pattern, TAU).unwrap().is_empty());
            }
            let docs = generate_collection(&config);
            let listing = ListingIndex::build(&docs, TAU).unwrap();
            let longest = checked(&listing.substrate);
            for doc in docs.iter().step_by(docs.len() / 5 + 1) {
                let pattern = world(doc, 0, longest + 1);
                assert!(NaiveScanner::listing(&docs, &pattern, TAU).is_empty());
                assert!(listing.query(&pattern, TAU).unwrap().is_empty());
                assert!(listing.query_top_k(&pattern, 3).unwrap().is_empty());
            }
        }
    }

    /// A deterministic period-2 source of 600 positions: its LCP entries
    /// reach 598, past the byte table, so a descent deeper than 254
    /// characters reads node depths from the exception list. For pattern
    /// lengths from 1 to 601 (stepped, but whole around 255 and at the
    /// text's end), in both phases, all four modes answer as the scanner
    /// does — the index built and loaded — and the state round trip is the
    /// identity.
    #[test]
    fn a_periodic_source_answers_through_long_lcp_entries() {
        use crate::ListingIndex;
        use ustr_baseline::NaiveScanner;
        const TAU: f64 = 0.1;
        let source = UncertainString::deterministic(&b"AB".repeat(300));
        let built = Index::build(&source, TAU).unwrap();
        let state = built.to_snapshot();
        assert_eq!(state.substrate.text.lcp.iter().max(), Some(&598));
        let loaded = Index::from_snapshot(state.clone()).unwrap();
        assert_eq!(loaded.to_snapshot(), state);
        let approx = ApproxIndex::build(&source, TAU, 0.05).unwrap();
        let docs = [
            source.clone(),
            UncertainString::deterministic(&b"BA".repeat(150)),
        ];
        let listing = ListingIndex::build(&docs, TAU).unwrap();
        let lens = (1..=20)
            .chain((21..250).step_by(23))
            .chain(250..=260)
            .chain((261..590).step_by(29))
            .chain(590..=601);
        for m in lens {
            for phase in [b"AB", b"BA"] {
                let pattern: Vec<u8> = phase.iter().copied().cycle().take(m).collect();
                let expected = NaiveScanner::find_with_probs(&source, &pattern, TAU);
                assert_eq!(expected.is_empty(), m > 600 || (m == 600 && phase == b"BA"));
                let mut top = expected.clone();
                top.sort_by(crate::canonical_hit_order);
                top.truncate(3);
                for index in [&built, &loaded] {
                    assert_eq!(index.query(&pattern, TAU).unwrap().hits(), expected, "{m}");
                    assert_eq!(index.query_top_k(&pattern, 3).unwrap(), top, "top-k at {m}");
                }
                let approx = approx.query(&pattern, TAU).unwrap();
                assert_eq!(approx.hits(), expected, "approx at {m}");
                let documents: Vec<usize> = (listing.query(&pattern, TAU).unwrap())
                    .iter()
                    .map(|hit| hit.doc)
                    .collect();
                assert_eq!(
                    documents,
                    NaiveScanner::listing(&docs, &pattern, TAU),
                    "{m}"
                );
            }
        }
    }

    /// Factors that end in one window: `A:.5,B:.5 | C` at τmin 0.3 is the
    /// factors `BC`, `AC` and `C`, whose slots at source position 1 are
    /// three exact twins (window `C`) that no longer window extends. The
    /// first is kept, so `C` is found at 1: three slots stay, one a window,
    /// and the index — built and loaded — answers every pattern of up to
    /// two characters, in both modes, as the scanner does.
    #[test]
    fn an_exact_twin_keeps_its_first_slot() {
        use ustr_baseline::NaiveScanner;
        let source = UncertainString::parse("A:.5,B:.5 | C").unwrap();
        let built = Index::build(&source, 0.3).unwrap();
        let state = built.to_snapshot();
        let text = &state.substrate.text;
        assert_eq!(text.text, b"BC\0AC\0C\0", "three factors");
        let windows: Vec<Vec<u8>> = (text.sa.iter())
            .map(|&x| {
                text.text[x as usize..]
                    .split(|&c| c == 0)
                    .next()
                    .unwrap()
                    .to_vec()
            })
            .collect();
        let loaded = Index::from_snapshot(state).unwrap();
        let alphabet = [b'A', b'B', b'C'];
        let pairs = alphabet.iter().flat_map(|&a| alphabet.map(|b| vec![a, b]));
        for pattern in alphabet.iter().map(|&c| vec![c]).chain(pairs) {
            for tau in [0.3, 0.5, 0.9] {
                let expected = NaiveScanner::find_with_probs(&source, &pattern, tau);
                let mut top = NaiveScanner::find_with_probs(&source, &pattern, 0.3);
                top.sort_by(crate::canonical_hit_order);
                top.truncate(2);
                for index in [&built, &loaded] {
                    assert_eq!(index.query(&pattern, tau).unwrap().hits(), expected);
                    assert_eq!(index.query_top_k(&pattern, 2).unwrap(), top);
                }
            }
        }
        assert_eq!(windows, [&b"AC"[..], b"BC", b"C"]);
    }

    /// `keep_reachable` against its definition, on small random texts with
    /// few characters and few keys: a keyed slot is kept iff no other slot
    /// of its key has a window that starts with its own and is longer, or
    /// equal and earlier in suffix order; the kept slots keep their order,
    /// and each LCP is the true common prefix of its two suffixes.
    #[test]
    fn the_cut_keeps_what_its_definition_keeps() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..400 {
            let n = 1 + next(60) as usize;
            let sigma = 1 + case % 3;
            let chars: Vec<u8> = (0..n)
                .map(|_| match next(sigma as u64 + 1) {
                    0 => 0,
                    c => b'a' + c as u8 - 1,
                })
                .collect();
            let keys: Vec<u32> = (chars.iter())
                .map(|&c| if c == 0 { NO_KEY } else { next(4) as u32 })
                .collect();
            let full = suffix_array(&chars);
            let (mut sa, mut lcp) = (full.clone(), lcp_array(&chars, &full));
            keep_reachable(&run_lengths(&chars), &keys, &mut sa, &mut lcp);
            let window = |x: u32| chars[x as usize..].split(|&c| c == 0).next().unwrap();
            let expected: Vec<u32> = (full.iter().enumerate())
                .filter(|&(_, &x)| keys[x as usize] != NO_KEY)
                .filter(|&(j, &x)| {
                    let (w, key) = (window(x), keys[x as usize]);
                    !full.iter().enumerate().any(|(i, &y)| {
                        let v = window(y);
                        keys[y as usize] == key
                            && v.starts_with(w)
                            && (v.len() > w.len() || (i < j && v.len() == w.len()))
                    })
                })
                .map(|(_, &x)| x)
                .collect();
            assert_eq!(sa, expected, "{chars:?} {keys:?}");
            for j in 0..sa.len() {
                let (a, b) = (
                    &chars[sa[j] as usize..],
                    j.checked_sub(1).map(|i| &chars[sa[i] as usize..]),
                );
                let common = b.map_or(0, |b| a.iter().zip(b).take_while(|(x, y)| x == y).count());
                assert_eq!(lcp[j] as usize, common, "{chars:?} slot {j}");
            }
        }
    }

    /// No workload's table numbers past a byte, so a bare substrate over
    /// more than 256 and more than 65 536 distinct probabilities builds the
    /// `u16` and `u32` codes: a text of `a`/`b`/`c` with a separator every
    /// 50 characters, each source position its own key. Each is built, its
    /// state reassembled to the same table and codes bit for bit, and every
    /// pattern among every 997th window of up to four characters reported,
    /// built and loaded, as the brute-force filter of the text, with each
    /// value the left-to-right sum of its `ln p`.
    #[test]
    fn wide_value_tables_code_at_u16_and_u32() {
        #![allow(clippy::disallowed_methods, reason = "independent expected values")]
        for (distinct, width) in [(300, 2), (70_000, 4)] {
            let n = distinct + (distinct - 1) / 49;
            let separator = |x: usize| x % 50 == 49;
            let chars: Vec<u8> = (0..n)
                .map(|x| {
                    if separator(x) {
                        0
                    } else {
                        b"abc"[x * 7 % 11 % 3]
                    }
                })
                .collect();
            // One probability per character, all distinct.
            let probs: Vec<f64> = (0..n)
                .map(|x| 0.5 + (x - x / 50) as f64 * (0.4 / distinct as f64))
                .collect();
            let keys: Vec<u32> = (0..n as u32)
                .map(|x| if separator(x as usize) { NO_KEY } else { x })
                .collect();
            let built = Substrate::build(&chars, &probs, &DedupStrategy::BySource(&keys)).unwrap();
            let loaded = Substrate::from_state(built.to_state(), &probs).unwrap();
            let values = &built.text.values;
            assert_eq!(
                (values.to_bits().0.len(), values.width()),
                (distinct + 1, width)
            );
            assert_eq!(values.to_bits(), loaded.text.values.to_bits());
            let tau = 0.05f64;
            let cut = ustr_uncertain::canon::log_cut(tau.ln());
            for m in 1..=4 {
                let mut patterns: Vec<&[u8]> = (chars.windows(m).step_by(997))
                    .filter(|w| !w.contains(&0))
                    .collect();
                patterns.sort_unstable();
                patterns.dedup();
                for pattern in patterns {
                    let mut expected: Vec<(usize, u64)> = (0..=n - m)
                        .filter(|&x| &chars[x..x + m] == pattern)
                        .map(|x| (x, probs[x..x + m].iter().fold(0.0, |s, p| s + p.ln())))
                        .filter(|&(_, v)| v >= cut)
                        .map(|(x, v)| (x, v.to_bits()))
                        .collect();
                    expected.sort_unstable();
                    for sub in [&built, &loaded] {
                        let (l, r) = sub.range(pattern).unwrap();
                        let mut got: Vec<(usize, u64)> = (sub.report(m, l, r, tau.ln()))
                            .into_iter()
                            .map(|(x, v)| (x, v.to_bits()))
                            .collect();
                        got.sort_unstable();
                        assert_eq!(got, expected, "{pattern:?} over {distinct} values");
                    }
                }
            }
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

    /// `heap_bytes` measures the index it is read from, and a loaded index
    /// derives the rest of its statistics from its state: the built ones,
    /// with no build time.
    #[test]
    fn a_loaded_index_reports_its_own_heap() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(300, 0.3, 5));
        let built = Index::build(&s, 0.1).unwrap();
        let index = Index::from_snapshot(built.to_snapshot()).unwrap();
        assert_eq!(index.stats().heap_bytes, index.heap_size());
        let expected = BuildStats {
            build_time: std::time::Duration::ZERO,
            ..built.stats().clone()
        };
        assert_eq!(index.stats(), &expected);
    }
}
