//! Per-pattern-length RMQ levels (`C_i` + `RMQ_i`) with duplicate
//! elimination, plus the long-pattern blocking scheme (§4.2, §5.2).
//!
//! For every pattern length `i ≤ L = ⌈log₂ N⌉` the paper materialises
//! `C_i[j]` = probability of the length-`i` prefix of the `j`-th suffix,
//! builds an RMQ over it, and discards the array, re-deriving values from
//! the cumulative array `C`. [`Levels`] does the same with
//! [`SampledRmq`] structures whose accessors read
//! [`ScoredText::window`]: the window's sum over the text's value codes, in
//! the kernel's order ([`crate::codes`]), so on a model without
//! correlations a level's value is the probability an index reports.
//!
//! Duplicate elimination (§5.2/§6): within each level-`i` locus partition
//! (maximal runs of suffix-array slots whose pairwise LCP is ≥ `i`),
//! duplicate entries are hidden (read as −∞) so each distinct source
//! position (or document) is reported at most once. The suffix range of any
//! length-`i` pattern coincides with exactly one partition, so the short
//! levels report every distinct result exactly once.
//!
//! Long patterns (`m > L`): materialising per-length block maxima for every
//! `i ∈ [log n, n]`, as §4.2 describes, costs Θ(n²) construction time, and
//! so would any level much longer than `L` here: a window's value is the
//! sum of its characters' values, so a level of length `len` costs every
//! slot whose run reaches it `len` additions — over a text of one long
//! stretch (a special index's, or an index's over a near-certain string)
//! Θ(n · len). We build two blocking levels instead, of lengths `L` and
//! `2L`, each only where the text has a stretch that long: past the longest
//! factor (the longest separator-free stretch of the text) every window
//! crosses a separator or leaves the text, so a level there would hold −∞
//! alone, and no pattern that long has a suffix range. A window's value is
//! non-increasing in its length (each character adds a value ≤ 0, and
//! rounding keeps the order), so a level-`i` value (`i ≤ m`) upper-bounds
//! every length-`m` window in its block — a sound pruning filter; survivors
//! are valued at the pattern's length exactly. A pattern of `2L` characters
//! or more is filtered by its first `2L`: its candidates are the slots of
//! its suffix range whose `2L`-prefix meets τ, a superset of its
//! occurrences that a level nearer `m` would narrow, at `m` additions a
//! slot of build. The build takes at most `2L` additions a slot, O(N log N)
//! in all.
//!
//! # What a short level hides
//!
//! Under `BySource` keys (an `Index`, and a `ListingIndex` over correlated
//! documents) what every short level hides is one number per slot, its
//! *visibility byte* `d[j]`: the minimum LCP over `(prev(j), j]`, capped at
//! `L`, where `prev(j)` is the previous slot with the same key — 0 when no
//! earlier slot has the key, and [`HIDDEN`] at the terminator (the tree
//! holds no slot without a key under these keys: it keeps only the slots a
//! query can reach, see [`super`]). Slot `j` shares its level-`m`
//! partition with `prev(j)` exactly when `m ≤ d[j]`, so the level of length `m` shows it iff
//! `d[j] < m` (and its window is whole: `m` is at most its run, which a
//! query's suffix range always meets). One byte per slot serves all `L`
//! levels.
//!
//! `ByKeyMax` keys (a `ListingIndex` without correlations) keep one mask bit
//! per slot per short level instead: a key's winner, its best slot in the
//! partition, moves from level to level, so the slots a level shows are not
//! the ones below a threshold. Without dedup (a `SpecialIndex`) nothing is
//! hidden: every slot is a distinct position, and the terminator's run is 0.
//!
//! # One level type, one ladder, one query path
//!
//! Short and long levels are one type (length, [`SampledRmq`]), and a query
//! does not tell them apart: the level that serves `m` bounds every
//! candidate, and the exact value is that bound when the level's length is
//! `m`, the length-`m` window otherwise. A threshold report is that level's
//! [`SampledRmq::report_at_least`]: it reads each slot of the suffix range
//! at most once — the partial edge blocks, and a full middle block only
//! when its champion reaches the cut — at most `block · (reported + 2)`
//! slots, so each candidate costs O(1) reads (§4's `O(m + occ)`).
//! Top-k is [`super::topk`]'s search over the same level's
//! [`SampledRmq::best_first`] walk, which hands out the range's values best
//! first and reads each slot at most once as well: the edge blocks, and a
//! middle block only when its champion is the next value out — at most
//! `block · (emitted + 2)` slots on the pattern's own level (O(m + k)).
//! No other shape exists: [`ladder`] derives the lengths from
//! the text alone, `build` makes exactly those levels and `from_parts`
//! accepts exactly those — a stored state names no lengths, and one level
//! short or over is refused.
//!
//! # Construction: every level from one pass over the slots
//!
//! The slots are the tree's: every suffix of the text without dedup and
//! under `ByKeyMax`, the kept ones under `BySource` (29.1 % of them on
//! `paper-string`), so every sweep below runs over those alone.
//!
//! The level-`i` values of one slot `j` are the running sums of one
//! *contiguous* stretch of the value codes (`x = SA[j]` on): the window of
//! `i` characters is the sum of `i` of them, and each is the last plus one
//! addition. So [`Levels::build`] walks the suffix array once per job, not
//! once per level, and reads per slot `SA[j]`, `LCP[j]`, the slot's dedup
//! key and that stretch, once ([`crate::codes::ValueCodes::running`]):
//!
//! 1. **Visibility sweep** (skipped without dedup). `BySource`: the chain
//!    sweep (Muthukrishnan's previous-occurrence chain) keeps per key the
//!    last slot that had it, and per level the last slot whose LCP is below
//!    the level's length; `d[j]` counts the levels whose last such slot is
//!    no later than `prev(j)`. `ByKeyMax`: the keep sweep keeps per level a
//!    partition counter, bumped for the levels above `LCP[j]`, and a stamp
//!    table addressed `key · L + level` holding the partition the key last
//!    won in, the winner's slot and its value; a better slot takes the
//!    displaced winner's bit.
//! 2. **Champion sweep**: per block of slots, the leftmost maximum of every
//!    level among the slots it shows — a slot's levels are
//!    `low_bits(min(run, L)) & !low_bits(d[j])` under `BySource`, the keep
//!    sweep's bits under `ByKeyMax`; the champions go straight into
//!    [`SampledRmq::from_parts`].
//!
//! A window exists exactly up to the slot's separator-free run length
//! ([`ScoredText::run_lengths`], from the text's bytes), and the codes hold
//! no separators to check it against (see [`crate::codes`]): neither sweep
//! sums past the run — deeper short levels are hidden (or −∞) without
//! a memory access, and a long level is evaluated only for the few slots
//! whose run reaches its length. Champion values, which
//! [`SampledRmq::from_parts`] reads at build and load time for any slot,
//! are read through the run too, and are −∞ past it; a query reads only
//! its suffix range, whose windows are whole.
//!
//! # Space
//!
//! A level keeps one champion slot per block and a linear-space block RMQ
//! over the champions' values, 20.2 B per block in all (see [`SampledRmq`]).
//! A short level has blocks of 64 slots: ≈ 0.32 B per slot per level. Under
//! `BySource` the visibility bytes add one byte per slot for all the short
//! levels together (on `paper-string`, `L = 19` over its kept slots: 1 B
//! per slot where a mask bit per level took 2.5); under `ByKeyMax` each
//! level adds its mask bit, ≈ 0.44 B per slot per level in all. A long
//! level's block is its length: 20.2 / `L` B per slot at `L` and half that
//! at `2L` (on `paper-string`, `L = 19` over its kept slots and factors of
//! at most 42 characters: levels 19 and 38).
//!
//! Temporary memory: the run lengths (one word per text position), and the
//! visibility sweep's tables. The chain sweep keeps one slot per key, the
//! key space being the document's source positions. The keep sweep keeps
//! one `u64` of level bits per slot — `L ≤ 32` for any text an index
//! accepts — and a stamp table of `L × key space` partitions and winners,
//! the key space being the collection's document ids.

use ustr_rmq::{Direction, SampledRmq};
use ustr_uncertain::canon;

use super::{topk::top_k_search, ScoredText, Substrate};
use crate::{
    error::Error,
    snapshot::{invalid, LevelsParts, LongLevelParts, ShortLevelParts},
};

/// Compact bit vector for the `ByKeyMax` per-level masks.
#[derive(Debug, Clone)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    /// Bit `i`.
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// "No key" in a [`DedupStrategy`] key array: separator positions.
pub(crate) const NO_KEY: u32 = u32::MAX;

/// The visibility byte of a slot no short level shows: one with no key,
/// and the terminator.
pub(crate) const HIDDEN: u8 = u8::MAX;

/// How duplicate entries are eliminated inside each locus partition. Keys
/// are given per *text position* a suffix starts at ([`NO_KEY`] at
/// separators), so a caller can state its strategy before the suffix tree
/// exists; the largest key sizes the build's per-key table.
pub(crate) enum DedupStrategy<'a> {
    /// No hiding (the special index: every slot is a distinct position).
    None,
    /// Hide slots whose source key repeats within the partition (general
    /// substring index: key = original string position).
    BySource(&'a [u32]),
    /// Keep only the maximum-value slot per key per partition, the earlier
    /// slot on a tie (listing index: key = document id, value drives
    /// `Rel_max`).
    ByKeyMax(&'a [u32]),
}

/// What the short levels hide, besides the slots whose window is not whole
/// (see the module docs).
enum Hidden {
    /// Nothing (no dedup).
    Nothing,
    /// `BySource`: the visibility byte of every slot.
    Depth(Box<[u8]>),
    /// `ByKeyMax`: one mask per short level; a set bit hides the slot.
    Masks(Vec<BitVec>),
}

/// What a long level hides.
const NOTHING: &Hidden = &Hidden::Nothing;

/// One RMQ level: short levels (`len ≤ L`) have blocks of 64 slots, long
/// levels blocks of their length (one champion per block, as in the
/// paper's `PB_i` arrays).
struct Level {
    /// Prefix length of the level's values.
    len: usize,
    rmq: SampledRmq,
}

/// The per-length RMQ levels of a [`Substrate`], on its text's [`ladder`].
/// Values are never stored: they are re-derived from the substrate's text,
/// which the levels were built (or reloaded) over; the queries are the
/// `impl Substrate` below.
pub(super) struct Levels {
    /// Level `i` serves pattern length `i + 1`.
    short: Vec<Level>,
    /// In increasing length order.
    long: Vec<Level>,
    /// What the short levels hide.
    hidden: Hidden,
}

/// Level-`len` value of slot `j` at query time: the window's value, or −∞
/// where `hidden` hides the slot. A query reads only
/// slots of a suffix range at lengths up to the pattern's, so the window is
/// whole (see [`ScoredText::window`]); a champion's value is read once, at
/// build or load time, through [`champion_value`].
fn level_value<'a>(
    hidden: &'a Hidden,
    text: &'a ScoredText,
    len: usize,
) -> impl Fn(usize) -> f64 + Copy + 'a {
    move |j| {
        if hidden.shows(len, j) {
            text.window(j, len)
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// [`level_value`] for any slot: a champion may be a slot whose window
/// crosses a separator or leaves the text (a block with nothing visible, or
/// a level that hides nothing), so this one reads through the slot's run
/// length (`run` is [`ScoredText::run_lengths`]) and is −∞ there.
fn champion_value<'a>(
    hidden: &'a Hidden,
    text: &'a ScoredText,
    run: &'a [u32],
    len: usize,
) -> impl Fn(usize) -> f64 + Copy + 'a {
    move |j| {
        if hidden.shows(len, j) {
            text.run_window(run, j, len)
        } else {
            f64::NEG_INFINITY
        }
    }
}

impl Level {
    /// The level of length `len` over `text` (with its run lengths `run`)
    /// from its per-block champions, blocks of `block` slots, hiding what
    /// `hidden` hides.
    fn new(
        text: &ScoredText,
        run: &[u32],
        (len, block): (usize, usize),
        hidden: &Hidden,
        champions: Vec<u32>,
    ) -> Result<Self, &'static str> {
        let rmq = SampledRmq::from_parts(
            text.tree.num_slots(),
            block,
            Direction::Max,
            champions,
            &champion_value(hidden, text, run, len),
        )?;
        Ok(Self { len, rmq })
    }

    /// This level's [`level_value`], hiding what `hidden` hides.
    fn value<'a>(
        &self,
        hidden: &'a Hidden,
        text: &'a ScoredText,
    ) -> impl Fn(usize) -> f64 + Copy + 'a {
        level_value(hidden, text, self.len)
    }

    /// The length-`m` window of `slot`, whose value here is `upper`: that
    /// value itself on the level of length `m`, a bound on a shorter one.
    fn exact(&self, text: &ScoredText, m: usize, slot: usize, upper: f64) -> f64 {
        if self.len == m {
            upper
        } else {
            text.window(slot, m)
        }
    }
}

impl Hidden {
    /// Whether the level of length `len` shows slot `j` where the slot's
    /// window is whole. A long level hides [`NOTHING`], so `Depth` and
    /// `Masks` are asked for a short level's, `len ≤ L`, only.
    #[inline]
    fn shows(&self, len: usize, j: usize) -> bool {
        match self {
            Hidden::Nothing => true,
            Hidden::Depth(depth) => (depth[j] as usize) < len,
            Hidden::Masks(masks) => !masks[len - 1].get(j),
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            Hidden::Nothing => 0,
            Hidden::Depth(depth) => depth.len(),
            Hidden::Masks(masks) => masks.iter().map(BitVec::heap_size).sum(),
        }
    }
}

impl Levels {
    /// Builds all levels over `text`, whose run lengths are `run` (see the
    /// module docs), on the ladder [`ladder`] derives from it. Slot 0 (the
    /// virtual terminator) is never shown.
    pub(super) fn build(text: &ScoredText, run: &[u32], dedup: &DedupStrategy<'_>) -> Self {
        let slots = text.tree.num_slots();
        let (max_short, long_lens) = ladder(text, run);
        let mut long_sweeps: Vec<LongSweep> =
            long_lens.map(|len| LongSweep::new(len, slots)).collect();

        // The short levels whose window at text position `x` is whole.
        let whole = |x: usize| low_bits(levels_below(run[x] as usize, max_short));
        let (sweep, long) = ((text, run, max_short), &mut long_sweeps[..]);
        let (hidden, champions) = match *dedup {
            DedupStrategy::None => (
                Hidden::Nothing,
                champion_sweep(sweep, |_, x| whole(x), long),
            ),
            DedupStrategy::BySource(keys) => {
                let depth = chain_sweep(text, keys, max_short);
                let shown = |j, x| whole(x) & !low_bits(depth[j] as usize);
                let champions = champion_sweep(sweep, shown, long);
                (Hidden::Depth(depth), champions)
            }
            DedupStrategy::ByKeyMax(keys) => {
                let keep = keep_sweep(text, run, max_short, keys);
                let champions = champion_sweep(sweep, |j, _| keep[j], long);
                (Hidden::Masks(masks(&keep, max_short)), champions)
            }
        };
        let level = |len_block, hidden, champions| {
            Level::new(text, run, len_block, hidden, champions)
                .expect("the sweep yields one in-block champion per block")
        };
        let block = SampledRmq::DEFAULT_BLOCK;
        let short = (champions.into_iter().zip(1..))
            .map(|(champions, len)| level((len, block), &hidden, champions))
            .collect();
        let long = long_sweeps
            .into_iter()
            .map(|sweep| level((sweep.len, sweep.len), NOTHING, sweep.champions))
            .collect();
        Self {
            short,
            long,
            hidden,
        }
    }

    /// Decomposes the levels of a `BySource` build — an `Index`'s, the only
    /// ones a state holds — into the persistent representation accepted by
    /// [`Levels::from_parts`]: the visibility bytes, per short level and
    /// per long level its RMQ champion indices. Champion *values* are never
    /// stored — they are re-derived from the value codes on reload, read as
    /// the build read them — nor lengths.
    pub(super) fn to_parts(&self) -> LevelsParts {
        let champions = |level: &Level| level.rmq.champions().to_vec();
        let visibility = match &self.hidden {
            Hidden::Depth(depth) => depth.to_vec(),
            Hidden::Nothing | Hidden::Masks(_) => {
                unreachable!("only an `Index` is taken apart, and it dedups by source")
            }
        };
        LevelsParts {
            visibility,
            short: self
                .short
                .iter()
                .map(|level| ShortLevelParts {
                    champions: champions(level),
                })
                .collect(),
            long: self
                .long
                .iter()
                .map(|level| LongLevelParts {
                    champions: champions(level),
                })
                .collect(),
        }
    }

    /// Reassembles `BySource` levels from parts produced by
    /// [`Levels::to_parts`], re-deriving all RMQ champion values through
    /// `text` (the reloaded text of the same substrate, whose tree holds
    /// keyed slots only), whose [`ladder`] the parts must sit on level for
    /// level. Fails with [`Error::InvalidSnapshot`] on structurally
    /// inconsistent parts: a visibility byte per slot, [`HIDDEN`] exactly
    /// at the terminator and at most the slot's LCP capped at `L`
    /// elsewhere, is checked, but not re-derived (the chain sweep would
    /// cost a load what the build paid for it).
    pub(super) fn from_parts(parts: LevelsParts, text: &ScoredText) -> Result<Self, Error> {
        let run = text.run_lengths();
        let (max_short, long_lens) = ladder(text, &run);
        let long_lens: Vec<usize> = long_lens.collect();
        if parts.short.len() != max_short || parts.long.len() != long_lens.len() {
            return Err(invalid("level count does not match the ladder of the text"));
        }
        let depth = parts.visibility;
        if depth.len() != text.tree.num_slots() {
            return Err(invalid("visibility byte count does not match slot count"));
        }
        // One pass over the slots: 255 exactly where there is no key (the
        // terminator: a loaded tree holds keyed slots alone), and elsewhere
        // a byte no higher than the slot's LCP capped at `L`, as the sweep
        // leaves it.
        for (j, &d) in depth.iter().enumerate() {
            let keyless = j == 0;
            if keyless != (d == HIDDEN) {
                return Err(invalid(if keyless {
                    "visibility byte other than 255 at the terminator"
                } else {
                    "visibility byte 255 at a slot with a source position"
                }));
            }
            if !keyless && d as usize > levels_below(text.tree.slot_lcp(j), max_short) {
                return Err(invalid("visibility byte above its slot's capped LCP"));
            }
        }
        let hidden = Hidden::Depth(depth.into_boxed_slice());
        let block = SampledRmq::DEFAULT_BLOCK;
        let short = (parts.short.into_iter().zip(1..))
            .map(|(level, len)| Level::new(text, &run, (len, block), &hidden, level.champions));
        let short = short.collect::<Result<_, _>>().map_err(invalid)?;
        let long = (parts.long.into_iter().zip(long_lens))
            .map(|(level, len)| Level::new(text, &run, (len, len), NOTHING, level.champions));
        let long = long.collect::<Result<_, _>>().map_err(invalid)?;
        Ok(Self {
            short,
            long,
            hidden,
        })
    }

    /// The level that serves pattern length `m ≥ 1`, with what it hides:
    /// its own short level up to `L`; past that the longest long level no
    /// longer than `m`, whose values bound every length-`m` window from
    /// above (prefix probabilities are non-increasing in length).
    fn serving(&self, m: usize) -> (&Level, &Hidden) {
        if let Some(level) = self.short.get(m - 1) {
            return (level, &self.hidden);
        }
        let long = self.long.iter().rev().find(|level| level.len <= m);
        let level = long.expect(
            "a pattern longer than L occurs only in a stretch that long, which has a long level",
        );
        (level, NOTHING)
    }

    /// Heap bytes of what the short levels hide (the visibility bytes, or
    /// the masks), of the short levels' RMQs and of the long levels'.
    pub(super) fn heap_sizes(&self) -> (usize, usize, usize) {
        let bytes =
            |levels: &[Level]| -> usize { levels.iter().map(|level| level.rmq.heap_size()).sum() };
        (
            self.hidden.heap_size(),
            bytes(&self.short),
            bytes(&self.long),
        )
    }
}

impl Substrate {
    /// Candidates of a length-`m` pattern (`m ≥ 1`) with suffix range
    /// `[l, r]`: `(text position, window value)` of every suffix whose
    /// length-`m` window meets `log_tau` by the threshold rule. Algorithm 2/4 runs on
    /// the level that serves `m`; survivors of a shorter level are verified
    /// at length `m`. Hits come in no set order. A short level (`m ≤ L`)
    /// yields one hit per distinct key; a long one — the blocking scheme —
    /// does *not* eliminate duplicate keys (the caller aggregates).
    pub(crate) fn report(&self, m: usize, l: usize, r: usize, log_tau: f64) -> Vec<(usize, f64)> {
        debug_assert!(m >= 1, "patterns are validated non-empty");
        let (text, (level, hidden)) = (&self.text, self.levels.serving(m));
        let (cut, mut hits) = (canon::log_cut(log_tau), Vec::new());
        level
            .rmq
            .report_at_least(l, r, cut, &level.value(hidden, text), |slot, upper| {
                let v = level.exact(text, m, slot, upper);
                if canon::log_meets_threshold(v, log_tau) {
                    hits.push((text.pos(slot), v));
                }
            });
        hits
    }

    /// The `k` most probable distinct sources over the suffix range `[l, r]`
    /// of a length-`m` pattern, and every other source tied with the `k`-th
    /// within `PROB_EPS`, as `(source, window value)` in decreasing value
    /// order: [`super::topk`]'s search over the
    /// [`SampledRmq::best_first`] walk of the level that serves `m`, its
    /// values lazy bounds when it is shorter than `m`. The walk reads each
    /// slot of the range at most once, and on the level of length `m` at
    /// most `64 · (emitted + 2)` slots. `source` maps a text position to its
    /// deduplicated output key (`None` to skip it); `floor` is a
    /// log-probability cut-off below which nothing is emitted (`f64::MIN`
    /// disables it).
    pub(crate) fn top_k(
        &self,
        m: usize,
        l: usize,
        r: usize,
        k: usize,
        floor: f64,
        source: impl Fn(usize) -> Option<usize>,
    ) -> Vec<(usize, f64)> {
        // The range holds `r - l + 1` candidates. `k` reaches here straight
        // off the wire: past that population it can surface nothing more,
        // and it must never size an allocation.
        let k = k.min(r - l + 1);
        let (text, (level, hidden)) = (&self.text, self.levels.serving(m));
        let bound = level.value(hidden, text);
        let ranked = level.rmq.best_first(l, r, floor, &bound);
        let exact = |slot, upper| level.exact(text, m, slot, upper);
        top_k_search(ranked, k, exact, |slot| source(text.pos(slot)))
    }
}

#[cfg(test)]
impl Substrate {
    /// Per long level, its length and whether some champion has a finite
    /// value — a whole window at that length.
    pub(crate) fn long_levels(&self) -> Vec<(usize, bool)> {
        let run = self.text.run_lengths();
        let finite = |level: &Level| {
            let value = champion_value(NOTHING, &self.text, &run, level.len);
            let champions = level.rmq.champions().iter();
            champions.map(|&c| value(c as usize)).any(f64::is_finite)
        };
        let long = self.levels.long.iter();
        long.map(|level| (level.len, finite(level))).collect()
    }
}

/// The level ladder, derived from the text and nothing else: short levels
/// for the pattern lengths `1..=L`, `L = ⌈log₂(slots + 1)⌉` (the paper's
/// `log n`), and the lengths of the long levels, `L` and `2L`, each where
/// the longest separator-free stretch of the text — the largest of its run
/// lengths `run` ([`ScoredText::run_lengths`]) — is at least that long. A
/// longer level would hold −∞ alone, and serve no pattern: one longer than
/// every stretch has no suffix range. None is longer than `2L`: its build
/// would cost a slot an addition per character (see the module docs).
fn ladder(text: &ScoredText, run: &[u32]) -> (usize, impl Iterator<Item = usize>) {
    let max_short = (usize::BITS - text.tree.num_slots().leading_zeros()) as usize;
    let longest = run.iter().max().map_or(0, |&len| len as usize);
    let long = [max_short, 2 * max_short]
        .into_iter()
        .filter(move |&len| len <= longest);
    (max_short, long)
}

/// The sweeps hold a slot's short levels as the bits of one `u64`: level
/// `ℓ` (pattern length `ℓ + 1`) is bit `ℓ`, and [`ladder`] cannot derive
/// more levels than a `usize` has bits — fewer than [`HIDDEN`], so a
/// visibility byte holds every count of levels.
const LEVEL_BITS: usize = u64::BITS as usize;
const _: () = assert!(usize::BITS <= u64::BITS && LEVEL_BITS < HIDDEN as usize);

/// `u64` with the low `n` bits set (all of them from 64 on).
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// How many of the `levels` short levels a threshold `t` lies above: the
/// levels `ℓ < t`.
#[inline]
fn levels_below(t: usize, levels: usize) -> usize {
    t.min(levels)
}

/// The size of the key space of `keys`: one past the largest key.
pub(super) fn key_space(keys: &[u32]) -> usize {
    let max = keys.iter().filter(|&&k| k != NO_KEY).max();
    max.map_or(0, |&k| k as usize + 1)
}

/// The chain sweep: the visibility byte of every slot under the `BySource`
/// `keys` over the short levels `0..levels` (see the module docs).
fn chain_sweep(text: &ScoredText, keys: &[u32], levels: usize) -> Box<[u8]> {
    debug_assert_eq!(keys.len(), text.values.len(), "one key per text position");
    let (tree, sa) = (&text.tree, text.tree.sa_slots());
    // `prev[key]`: the last slot that had the key, 0 for none (slot 0, the
    // terminator, has no key).
    let mut prev = vec![0u32; key_space(keys)];
    // `below[ℓ]`: the last slot whose LCP is below the length of level `ℓ`
    // (`ℓ + 1`) — where the slot's level-`ℓ` partition starts.
    let mut below = [0u32; LEVEL_BITS];
    let mut depth = vec![HIDDEN; sa.len()];
    for j in 1..sa.len() {
        for b in &mut below[levels_below(tree.slot_lcp(j), levels)..levels] {
            *b = j as u32;
        }
        let key = keys[sa[j] as usize];
        if key == NO_KEY {
            continue;
        }
        let p = std::mem::replace(&mut prev[key as usize], j as u32);
        // `below` rises with the level: the levels that put `p` in slot
        // `j`'s partition are the lowest ones, and none when `p` is 0.
        depth[j] = match p {
            0 => 0,
            p => below[..levels].iter().take_while(|&&b| b <= p).count() as u8,
        };
    }
    depth.into_boxed_slice()
}

/// A key's current winner in one level's partition (`ByKeyMax`).
#[derive(Clone)]
struct Best {
    slot: u32,
    value: f64,
}

/// The keep sweep over the short levels `0..levels` under the `ByKeyMax`
/// `keys`: for every slot, bit `i` set when the slot stays visible at level
/// `i`, i.e. its window is finite and it is its key's winner in its
/// level-`i` partition — its greatest window value, the earliest slot on a
/// tie.
fn keep_sweep(text: &ScoredText, run: &[u32], levels: usize, keys: &[u32]) -> Vec<u64> {
    debug_assert_eq!(keys.len(), text.values.len(), "one key per text position");
    let (tree, sa) = (&text.tree, text.tree.sa_slots());
    let key_space = key_space(keys);
    let mut sums = [f64::NEG_INFINITY; LEVEL_BITS];

    // `stamp[key · levels + i]`: the level-`i` partition the key last won
    // in, and `best[…]` the winner there. Partition ids start at 1 (slot 1
    // opens one at every level), so 0 is "never".
    let mut stamp = vec![0u32; key_space * levels];
    let mut best = vec![
        Best {
            slot: 0,
            value: 0.0
        };
        key_space * levels
    ];
    let mut partition = [0u32; LEVEL_BITS];
    let mut keep = vec![0u64; sa.len()];
    for j in 1..sa.len() {
        // A level's partition ends where the LCP drops below its length.
        for p in &mut partition[levels_below(tree.slot_lcp(j), levels)..levels] {
            *p += 1;
        }
        let x = sa[j] as usize;
        let key = keys[x];
        if key == NO_KEY {
            continue;
        }
        let at = key as usize * levels;
        let finite = levels_below(run[x] as usize, levels);
        text.values.running(x, &mut sums[..finite]);
        let mut bits = 0u64;
        for (i, &value) in sums[..finite].iter().enumerate() {
            let seen = std::mem::replace(&mut stamp[at + i], partition[i]) == partition[i];
            let incumbent = &mut best[at + i];
            if seen {
                if incumbent.value >= value {
                    continue;
                }
                keep[incumbent.slot as usize] &= !(1u64 << i);
            }
            *incumbent = Best {
                slot: j as u32,
                value,
            };
            bits |= 1u64 << i;
        }
        keep[j] = bits;
    }
    keep
}

/// The masks of the short levels `0..levels` from the [`keep_sweep`]
/// result: level `i` hides every slot without bit `i`.
fn masks(keep: &[u64], levels: usize) -> Vec<BitVec> {
    let mut words = vec![!0u64; keep.len().div_ceil(64)];
    if let Some(last) = words.last_mut() {
        *last = low_bits(keep.len() - (keep.len() - 1) / 64 * 64);
    }
    let mut masks = vec![BitVec { words }; levels];
    for (j, &bits) in keep.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            masks[bits.trailing_zeros() as usize].words[j / 64] &= !(1u64 << (j % 64));
            bits &= bits - 1;
        }
    }
    masks
}

/// One long level while the champion sweep runs over it.
struct LongSweep {
    /// Filter length = block size.
    len: usize,
    /// Starts out as every block's first slot: the champion of a block of
    /// −∞ values.
    champions: Vec<u32>,
    /// The best value seen in the block ending before `block_end`.
    best: f64,
    block_end: usize,
}

impl LongSweep {
    fn new(len: usize, slots: usize) -> Self {
        Self {
            len,
            champions: (0..slots.div_ceil(len)).map(|b| (b * len) as u32).collect(),
            best: f64::NEG_INFINITY,
            block_end: 0,
        }
    }

    /// Slot `j` (slots arrive in increasing order) has the finite `value`.
    #[inline]
    fn offer(&mut self, j: usize, value: f64) {
        if j >= self.block_end {
            self.block_end = (j / self.len + 1) * self.len;
            self.best = f64::NEG_INFINITY;
        }
        if value > self.best {
            self.best = value;
            self.champions[j / self.len] = j as u32;
        }
    }
}

/// The champion sweep over `text` (with its run lengths `run`) and its
/// short levels `0..levels`: per level its per-block champions (leftmost
/// maximum of the shown values; the block's first slot when none is).
/// `bits(j, x)` are the levels slot `j` (at text position `x`) shows, its
/// window whole at each; `long` levels are offered every slot whose run
/// reaches their length. A slot's values are the running sums of its
/// window, up to the longest length it is asked for: at most `2L`.
fn champion_sweep(
    (text, run, levels): (&ScoredText, &[u32], usize),
    bits: impl Fn(usize, usize) -> u64,
    long: &mut [LongSweep],
) -> Vec<Vec<u32>> {
    const BLOCK: usize = SampledRmq::DEFAULT_BLOCK;
    let sa = text.tree.sa_slots();
    let longest = long.last().map_or(0, |level| level.len).max(levels);
    let mut sums = vec![f64::NEG_INFINITY; longest];
    let blocks = sa.len().div_ceil(BLOCK);
    let mut swept: Vec<Vec<u32>> = (0..levels).map(|_| Vec::with_capacity(blocks)).collect();
    let mut best = [f64::NEG_INFINITY; LEVEL_BITS];
    let mut champion = [0u32; LEVEL_BITS];
    for start in (0..sa.len()).step_by(BLOCK) {
        let end = (start + BLOCK).min(sa.len());
        best[..levels].fill(f64::NEG_INFINITY);
        champion[..levels].fill(start as u32);
        for (j, &x) in (start..end).zip(&sa[start..end]) {
            let x = x as usize;
            let mut shown = bits(j, x);
            // The highest shown level's length, and the longest long level
            // the run reaches: the sums this slot needs.
            let short = (u64::BITS - shown.leading_zeros()) as usize;
            let reached = long.iter().take_while(|level| level.len <= run[x] as usize);
            let sums = &mut sums[..reached.last().map_or(0, |level| level.len).max(short)];
            text.values.running(x, sums);
            while shown != 0 {
                let i = shown.trailing_zeros() as usize;
                shown &= shown - 1;
                if sums[i] > best[i] {
                    best[i] = sums[i];
                    champion[i] = j as u32;
                }
            }
            for level in long.iter_mut() {
                if level.len > run[x] as usize {
                    break;
                }
                level.offer(j, sums[level.len - 1]);
            }
        }
        for (i, champions) in swept.iter_mut().enumerate() {
            champions.push(champion[i]);
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "independent expected values")]

    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn substrate(text: &[u8], probs: &[f64], dedup: &DedupStrategy<'_>) -> Substrate {
        Substrate::build(text, probs, dedup).unwrap()
    }

    /// Reported `(text position, probability)` for `pattern` at `tau`,
    /// sorted by position.
    fn report(sub: &Substrate, pattern: &[u8], tau: f64) -> Vec<(usize, f64)> {
        let (l, r) = sub.range(pattern).unwrap();
        let mut hits = sub.report(pattern.len(), l, r, tau.ln());
        hits.sort_unstable_by_key(|&(x, _)| x);
        hits.into_iter().map(|(x, v)| (x, v.exp())).collect()
    }

    fn positions(sub: &Substrate, pattern: &[u8], tau: f64) -> Vec<usize> {
        report(sub, pattern, tau)
            .into_iter()
            .map(|(x, _)| x)
            .collect()
    }

    #[test]
    fn short_report_matches_brute_force() {
        let probs = [0.4, 0.7, 0.5, 0.8, 0.9, 0.6];
        let sub = substrate(b"banana", &probs, &DedupStrategy::None);
        // Level 3 over the suffix range of "ana" with tau = 0.3: Figure 5
        // reports position 3 only (prob .432); position 1 has .28.
        let hits = report(&sub, b"ana", 0.3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 3);
        assert!((hits[0].1 - 0.432).abs() < 1e-9);
        // Lower threshold reports both.
        assert_eq!(positions(&sub, b"ana", 0.2), vec![1, 3]);
    }

    #[test]
    fn long_report_verifies_exact_length() {
        // 9 slots: 4 short levels, long levels at 4 and 8.
        let sub = substrate(b"abababab", &[0.9; 8], &DedupStrategy::None);
        assert_eq!((sub.levels.short.len(), sub.levels.long.len()), (4, 2));
        // length 5 at 0.9^5 = .59049; threshold .5 keeps both occurrences
        let hits = report(&sub, b"ababa", 0.5);
        assert_eq!(positions(&sub, b"ababa", 0.5), vec![0, 2]);
        for &(_, p) in &hits {
            assert!((p - 0.9f64.powi(5)).abs() < 1e-9);
        }
        // Threshold .6 rejects (0.59049 < 0.6).
        assert!(report(&sub, b"ababa", 0.6).is_empty());
    }

    #[test]
    fn dedup_by_source_masks_repeats_within_partition() {
        // Text "AB\0AB\0" where both "AB" factors map to source position 7.
        let text = b"AB\0AB\0";
        let probs = [0.5, 0.5, 1.0, 0.5, 0.5, 1.0];
        // Every real position pretends to be source 7.
        let keys = [7, 7, NO_KEY, 7, 7, NO_KEY];
        let sub = substrate(text, &probs, &DedupStrategy::BySource(&keys));
        assert_eq!(
            report(&sub, b"AB", 0.2).len(),
            1,
            "duplicate source reported once"
        );
    }

    #[test]
    fn dedup_by_key_max_keeps_best_entry() {
        // Two "AB" occurrences with different probabilities, same document.
        let text = b"AB\0AB\0";
        let probs = [0.5, 0.5, 1.0, 0.9, 0.9, 1.0];
        let keys = [0, 0, NO_KEY, 0, 0, NO_KEY]; // one document
        let sub = substrate(text, &probs, &DedupStrategy::ByKeyMax(&keys));
        let hits = report(&sub, b"AB", 0.1);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].1 - 0.81).abs() < 1e-9, "max entry kept");
    }

    /// A 48-character text for the matrix below: 6 short levels and long
    /// levels at 6 and 12 (its longest stretch is 30). Characters
    /// repeat with period 3 and probabilities with period 6, broken by one
    /// separator, so a pattern matches at two residues with two different
    /// values.
    fn periodic_text() -> (Vec<u8>, Vec<f64>) {
        const PROBS: [f64; 6] = [0.9, 1.0, 0.8, 1.0, 0.95, 0.9];
        let mut chars: Vec<u8> = (0..48).map(|x| b"abc"[x % 3]).collect();
        chars[30] = 0;
        let probs = (0..48)
            .map(|x| if x == 30 { 1.0 } else { PROBS[x % 6] })
            .collect();
        (chars, probs)
    }

    /// Per key (the text position without dedup) the best window among
    /// `hits`, as probabilities.
    fn best_per_key(
        hits: impl IntoIterator<Item = (usize, f64)>,
        keys: Option<&[u32]>,
    ) -> BTreeMap<u32, f64> {
        let mut best = BTreeMap::new();
        for (x, p) in hits {
            let key = keys.map_or(x as u32, |keys| keys[x]);
            let entry = best.entry(key).or_insert(0.0f64);
            *entry = entry.max(p);
        }
        best
    }

    /// `report` and `top_k` over [`periodic_text`] against brute force, for
    /// every distinct separator-free substring of the lengths `lens`, three
    /// thresholds and all three strategies. `prepare` may rebuild the
    /// substrate; `deduplicated` says whether each key must come back once.
    fn check_against_brute_force(
        lens: &[usize],
        prepare: impl Fn(Substrate) -> Substrate,
        deduplicated: bool,
    ) {
        let (chars, probs) = periodic_text();
        // Equal key ⇒ equal value for one pattern, as for source positions.
        let by_source: Vec<u32> = (0..48)
            .map(|x| if x == 30 { NO_KEY } else { x as u32 % 6 })
            .collect();
        // "Documents" of ten positions: both residues meet inside one key.
        let by_key: Vec<u32> = (0..48)
            .map(|x| if x == 30 { NO_KEY } else { x as u32 / 10 })
            .collect();
        for (dedup, keys) in [
            (DedupStrategy::None, None),
            (DedupStrategy::BySource(&by_source), Some(&by_source[..])),
            (DedupStrategy::ByKeyMax(&by_key), Some(&by_key[..])),
        ] {
            let sub = prepare(substrate(&chars, &probs, &dedup));
            for &m in lens {
                let mut patterns: Vec<&[u8]> =
                    chars.windows(m).filter(|w| !w.contains(&0)).collect();
                patterns.sort_unstable();
                patterns.dedup();
                assert!(!patterns.is_empty(), "no pattern of length {m}");
                for pattern in patterns {
                    let all = best_per_key(
                        (0..=48 - m)
                            .filter(|&x| &chars[x..x + m] == pattern)
                            .map(|x| (x, probs[x..x + m].iter().product())),
                        keys,
                    );
                    for tau in [0.05, 0.33, 0.62] {
                        let hits = report(&sub, pattern, tau);
                        let got = best_per_key(hits.iter().copied(), keys);
                        let expected: Vec<_> = all.iter().filter(|e| *e.1 >= tau).collect();
                        let context = format!("{:?} at {tau}", String::from_utf8_lossy(pattern));
                        assert_eq!(got.len(), expected.len(), "{context}");
                        for ((k, p), (ek, ep)) in got.iter().zip(expected) {
                            assert_eq!(k, ek, "{context}");
                            assert!((p - ep).abs() < 1e-9, "{context}: {p} vs {ep}");
                        }
                        if deduplicated {
                            assert_eq!(hits.len(), got.len(), "{context}: a key twice");
                        }
                    }
                    // Top-k: the k best distinct keys, best first, and then
                    // the rest of the k-th one's tie class.
                    let (l, r) = sub.range(pattern).unwrap();
                    let key_of = |x: usize| Some(keys.map_or(x as u32, |keys| keys[x]) as usize);
                    let mut top = sub.top_k(m, l, r, 3, f64::MIN, key_of);
                    if let Some(&(_, third)) = top.get(2) {
                        assert!(top[3..].iter().all(|&(_, v)| (v - third).abs() < 1e-9));
                    }
                    top.truncate(3);
                    let mut ranked: Vec<f64> = all.values().copied().collect();
                    ranked.sort_by(|a, b| b.total_cmp(a));
                    ranked.truncate(3);
                    assert_eq!(top.len(), ranked.len());
                    for ((_, v), p) in top.iter().zip(ranked) {
                        assert!((v.exp() - p).abs() < 1e-9, "top-k of {pattern:?}");
                    }
                }
            }
        }
    }

    /// A build adds at most `2L` values a slot in its sweeps over a text of
    /// one separator-free stretch, where a long level as long as the
    /// stretch would cost about n²/4 additions: a special index's text, and
    /// an index's over a certain string, of 10⁵ characters each. The bound
    /// covers the champion values the built levels read, `L²/128 + 2` a
    /// slot.
    #[test]
    fn a_build_adds_at_most_2l_values_a_slot_over_one_long_stretch() {
        use crate::{codes::summed, Index, SpecialIndex};
        use ustr_uncertain::{SpecialUncertainString, UncertainString};
        const N: usize = 100_000;
        let mut state = 43u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let chars: Vec<u8> = (0..N).map(|_| b"acgt"[next() % 4]).collect();
        let probs: Vec<f64> = (0..N).map(|_| [1.0, 0.99, 0.9, 0.6][next() % 4]).collect();
        let special = SpecialUncertainString::new(chars.clone(), probs).unwrap();
        let certain = UncertainString::deterministic(&chars);
        // The ladder of `sub`, and its build's additions a slot, `work`.
        let check = |sub: &Substrate, work: u64| {
            let slots = sub.text.tree.num_slots();
            let short = (usize::BITS - slots.leading_zeros()) as usize;
            let lens: Vec<usize> = sub.long_levels().iter().map(|&(len, _)| len).collect();
            assert_eq!(lens, [short, 2 * short], "the ladder stops at 2L");
            let per_slot = work as f64 / slots as f64;
            assert!(
                per_slot <= (3 * short) as f64,
                "{per_slot} additions a slot, L = {short}"
            );
        };
        let before = summed();
        let index = SpecialIndex::build(&special).unwrap();
        check(&index.substrate, summed() - before);
        let before = summed();
        let index = Index::build(&certain, 0.1).unwrap();
        check(&index.substrate, summed() - before);
    }

    #[test]
    fn short_levels_match_brute_force() {
        check_against_brute_force(&[1, 2, 3, 5, 6], |sub| sub, true);
    }

    #[test]
    fn long_levels_match_brute_force() {
        // Filter levels 6 and 12 over all 49 slots; the blocking scheme may
        // repeat a key. By source, the tree keeps the 6 slots of the first
        // stretch's first period, and the filter levels are 3 and 6.
        let two_long = |sub: Substrate| {
            assert!(sub.levels.short.len() < 7 && sub.levels.long.len() >= 2);
            sub
        };
        check_against_brute_force(&[7, 12, 13, 17], two_long, false);
    }

    /// The cases of the short levels' read counts below: a generated
    /// 20 000-position string under both masks — by source position, and
    /// by documents of 1 000 source positions for the listing mask — and
    /// the distinct patterns among every 211th window of each short length.
    /// `check(sub, keys, pattern, (l, r))` gets the substrate, the mask's
    /// key per text position, and the pattern with its suffix range.
    fn for_each_counted_range(mut check: impl FnMut(&Substrate, &[u32], &[u8], (usize, usize))) {
        use ustr_workload::{generate_string, DatasetConfig};
        let source = generate_string(&DatasetConfig::new(20_000, 0.3, 43));
        let transformed = ustr_uncertain::transform(&source, 0.1).unwrap();
        let (chars, pos) = (transformed.special.chars(), &transformed.pos[..]);
        let docs: Vec<u32> = pos
            .iter()
            .map(|&p| if p == NO_KEY { NO_KEY } else { p / 1_000 })
            .collect();
        for (dedup, keys) in [
            (DedupStrategy::BySource(pos), pos),
            (DedupStrategy::ByKeyMax(&docs), &docs[..]),
        ] {
            let sub = substrate(chars, transformed.special.probs(), &dedup);
            let mut patterns: Vec<&[u8]> = (1..=sub.levels.short.len())
                .flat_map(|m| chars.windows(m).step_by(211))
                .filter(|w| !w.contains(&0))
                .collect();
            patterns.sort_unstable();
            patterns.dedup();
            for pattern in patterns {
                let m = pattern.len();
                assert_eq!(sub.levels.serving(m).0.len, m, "a short level serves {m}");
                check(&sub, keys, pattern, sub.range(pattern).unwrap());
            }
        }
    }

    /// A short level's threshold report, counted through its accessor on
    /// [`for_each_counted_range`]'s cases: it reads the suffix range once,
    /// less the full middle blocks whose champion fails the cut, which it
    /// drops unread — so the width when none fails, below it when one does
    /// (asserted to happen on some range of four blocks or more). Its hits
    /// are the brute-force filter of the range.
    #[test]
    fn short_report_reads_the_range_once_less_the_failing_blocks() {
        use std::cell::Cell;
        let block = SampledRmq::DEFAULT_BLOCK;
        let mut dropped_in_wide_range = 0;
        for_each_counted_range(|sub, _, pattern, (l, r)| {
            let (level, hidden) = sub.levels.serving(pattern.len());
            let value = level.value(hidden, &sub.text);
            let reads = Cell::new(0usize);
            let counted = |j| {
                reads.set(reads.get() + 1);
                value(j)
            };
            for tau in [0.1f64, 0.5, 0.9] {
                let cut = canon::log_cut(tau.ln());
                reads.set(0);
                let mut hits = Vec::new();
                (level.rmq).report_at_least(l, r, cut, &counted, |slot, _| hits.push(slot));
                hits.sort_unstable();
                let expected: Vec<usize> = (l..=r).filter(|&j| value(j) >= cut).collect();
                let context = format!("{:?} [{l}, {r}] at {tau}", String::from_utf8_lossy(pattern));
                assert_eq!(hits, expected, "{context}");
                let middle = l / block + 1..r / block;
                let fails = |b: usize| (b * block..(b + 1) * block).all(|j| value(j) < cut);
                let failing = middle.clone().filter(|&b| fails(b)).count();
                assert_eq!(reads.get(), r - l + 1 - block * failing, "{context}");
                if failing > 0 && middle.len() >= 2 {
                    dropped_in_wide_range += 1;
                }
            }
        });
        assert!(
            dropped_in_wide_range > 0,
            "no range of ≥ 4 blocks dropped a middle block"
        );
    }

    /// Top-k on a short level, counted through its accessor on
    /// [`for_each_counted_range`]'s cases, for k = 1 and 10, with and
    /// without `Index`'s τmin floor: each slot of the range is read at most
    /// once (a read outside it panics) and at most
    /// `min(r − l + 1, 64·(emitted + 2))` in all, and the answer is the
    /// brute-force top-k of the range — the best value of each key, cut at
    /// the k-th — plus the k-th value's tie class.
    #[test]
    fn short_top_k_reads_each_slot_at_most_once() {
        use std::cell::Cell;
        use ustr_uncertain::PROB_EPS;
        let block = SampledRmq::DEFAULT_BLOCK;
        let mut wide_ranges = 0;
        for_each_counted_range(|sub, keys, pattern, (l, r)| {
            let (m, text) = (pattern.len(), &sub.text);
            let (level, hidden) = sub.levels.serving(m);
            let value = level.value(hidden, text);
            let reads = vec![Cell::new(0u32); r - l + 1];
            let counted = |j: usize| {
                reads[j - l].set(reads[j - l].get() + 1);
                value(j)
            };
            let key = |slot: usize| Some(keys[text.pos(slot)] as usize);
            for floor in [f64::MIN, canon::log_cut(canon::ln(0.1))] {
                let mut best = HashMap::new();
                for j in (l..=r).filter(|&j| value(j) >= floor) {
                    let v = best.entry(key(j).unwrap()).or_insert(value(j));
                    *v = v.max(value(j));
                }
                let mut ranked: Vec<f64> = best.values().copied().collect();
                ranked.sort_by(|a, b| b.total_cmp(a));
                for k in [1, 10] {
                    reads.iter().for_each(|c| c.set(0));
                    let walk = level.rmq.best_first(l, r, floor, &counted);
                    let exact = |slot, upper| level.exact(text, m, slot, upper);
                    let got = top_k_search(walk, k, exact, key);
                    let context = format!(
                        "{:?} [{l}, {r}] k = {k}, floor {floor:e}",
                        String::from_utf8_lossy(pattern)
                    );
                    assert!(reads.iter().all(|c| c.get() <= 1), "{context}: read twice");
                    let total = reads.iter().map(Cell::get).sum::<u32>() as usize;
                    let bound = (r - l + 1).min(block * (got.len() + 2));
                    assert!(total <= bound, "{context}: {total} reads > {bound}");
                    let cut = ranked.get(k - 1).map_or(floor, |&kth| kth - PROB_EPS);
                    let mut expected: Vec<(usize, u64)> = (best.iter())
                        .filter(|&(_, &v)| v >= cut)
                        .map(|(&src, &v)| (src, v.to_bits()))
                        .collect();
                    expected.sort_unstable();
                    let mut got: Vec<(usize, u64)> =
                        got.iter().map(|&(src, v)| (src, v.to_bits())).collect();
                    got.sort_unstable();
                    assert_eq!(got, expected, "{context}");
                    if r / block > l / block + 2 {
                        wide_ranges += 1;
                    }
                }
            }
        });
        assert!(wide_ranges > 0, "no range of ≥ 4 blocks");
    }

    /// Per short and per long level, its champions.
    type Champions = (Vec<Vec<u32>>, Vec<Vec<u32>>);

    /// What the per-level construction the sweeps replaced hides, kept as
    /// their reference: the [`reference_mask`] of every short level.
    fn reference_hidden(text: &ScoredText, dedup: &DedupStrategy<'_>) -> Hidden {
        let (max_short, _) = ladder(text, &text.run_lengths());
        let masks = (1..=max_short).map(|len| BitVec {
            words: reference_mask(text, len, dedup),
        });
        Hidden::Masks(masks.collect())
    }

    /// The champions of the per-level construction: `SampledRmq::new` over
    /// each level's accessor on its own, hiding what `hidden` hides.
    fn reference_champions(text: &ScoredText, hidden: &Hidden) -> Champions {
        let slots = text.tree.num_slots();
        let run = text.run_lengths();
        let (max_short, long_lens) = ladder(text, &run);
        let short = (1..=max_short)
            .map(|i| {
                let value = champion_value(hidden, text, &run, i);
                SampledRmq::new(slots, Direction::Max, &value)
                    .champions()
                    .to_vec()
            })
            .collect();
        let long = long_lens
            .map(|len| {
                let value = |j| text.run_window(&run, j, len);
                let rmq = SampledRmq::with_block_size(slots, len, Direction::Max, &value);
                rmq.champions().to_vec()
            })
            .collect();
        (short, long)
    }

    fn champions(levels: &Levels) -> Champions {
        let of = |levels: &[Level]| -> Vec<Vec<u32>> {
            (levels.iter())
                .map(|level| level.rmq.champions().to_vec())
                .collect()
        };
        (of(&levels.short), of(&levels.long))
    }

    /// The `(length, slot)` cells where a short level of `levels` (built
    /// over `text`) shows a slot with a whole window and `reference` hides
    /// it, or the other way round: none, when the levels hide what the
    /// reference hides.
    fn visibility_mismatches(
        text: &ScoredText,
        levels: &Levels,
        reference: &Hidden,
    ) -> Vec<(usize, usize)> {
        let run = text.run_lengths();
        let mut cells = Vec::new();
        for len in 1..=levels.short.len() {
            for j in 0..text.tree.num_slots() {
                let whole = len <= run[text.pos(j)] as usize;
                let shows = |hidden: &Hidden| whole && hidden.shows(len, j);
                if shows(&levels.hidden) != shows(reference) {
                    cells.push((len, j));
                }
            }
        }
        cells
    }

    /// The duplicate-mask words of one level, the old way.
    fn reference_mask(text: &ScoredText, level: usize, dedup: &DedupStrategy<'_>) -> Vec<u64> {
        let tree = &text.tree;
        let slots = tree.num_slots();
        let run = text.run_lengths();
        let window = |j| text.run_window(&run, j, level);
        let mut words = vec![0u64; slots.div_ceil(64)];
        let set = |words: &mut Vec<u64>, j: usize| words[j / 64] |= 1u64 << (j % 64);
        let clear = |words: &mut Vec<u64>, j: usize| words[j / 64] &= !(1u64 << (j % 64));
        let key_of =
            |keys: &[u32], j: usize| keys.get(text.pos(j)).copied().filter(|&k| k != NO_KEY);
        set(&mut words, 0); // virtual-terminator slot never matches
        match *dedup {
            DedupStrategy::None => {}
            DedupStrategy::BySource(keys) => {
                let mut seen: HashMap<u32, u32> = HashMap::new();
                let mut partition = 0u32;
                for j in 1..slots {
                    if tree.slot_lcp(j) < level {
                        partition += 1;
                    }
                    let valid = window(j) > f64::NEG_INFINITY;
                    match key_of(keys, j) {
                        Some(key) if valid => {
                            if seen.insert(key, partition) == Some(partition) {
                                set(&mut words, j);
                            }
                        }
                        _ => set(&mut words, j),
                    }
                }
            }
            DedupStrategy::ByKeyMax(keys) => {
                let mut best: HashMap<u32, (usize, f64)> = HashMap::new();
                let mut members: Vec<usize> = Vec::new();
                let flush = |best: &mut HashMap<u32, (usize, f64)>,
                             members: &mut Vec<usize>,
                             words: &mut Vec<u64>| {
                    for &j in members.iter() {
                        set(words, j);
                    }
                    for &(winner, _) in best.values() {
                        clear(words, winner);
                    }
                    best.clear();
                    members.clear();
                };
                for j in 1..slots {
                    if tree.slot_lcp(j) < level {
                        flush(&mut best, &mut members, &mut words);
                    }
                    let value = window(j);
                    match key_of(keys, j) {
                        Some(key) if value > f64::NEG_INFINITY => {
                            members.push(j);
                            match best.get(&key) {
                                Some(&(_, v)) if v >= value => {}
                                _ => {
                                    best.insert(key, (j, value));
                                }
                            }
                        }
                        _ => set(&mut words, j),
                    }
                }
                flush(&mut best, &mut members, &mut words);
            }
        }
        words
    }

    /// One text position: character (0 = separator), probability, dedup
    /// key. Few characters give deep partitions; probability 1 gives exact
    /// value ties; few keys give repeats inside a partition.
    fn position(separator_weight: usize) -> impl Strategy<Value = (u8, f64, u32)> {
        let mut chars = vec![b'a', b'a', b'b', b'b', b'c'];
        chars.resize(chars.len() + separator_weight, 0u8);
        (
            prop::sample::select(chars),
            prop::sample::select(vec![1.0, 1.0, 0.5, 0.7]),
            prop::sample::select(vec![0, 0, 1, 2, 5, NO_KEY]),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The window contract's premise: every slot of a pattern's suffix
        /// range starts with the pattern, so the window a query reads there
        /// at the pattern's length lies inside the text and crosses no
        /// separator.
        #[test]
        fn every_slot_of_a_range_has_a_whole_window(
            positions in prop::collection::vec(position(2), 1..80),
        ) {
            let chars: Vec<u8> = positions.iter().map(|p| p.0).collect();
            let probs: Vec<f64> = positions.iter().map(|p| p.1).collect();
            let sub = substrate(&chars, &probs, &DedupStrategy::None);
            for m in 1..=chars.len().min(12) {
                for pattern in chars.windows(m).filter(|w| !w.contains(&0)) {
                    let (l, r) = sub.range(pattern).unwrap();
                    for slot in l..=r {
                        let x = sub.text.pos(slot);
                        prop_assert_eq!(chars.get(x..x + m), Some(pattern));
                    }
                }
            }
        }

        /// The fused sweeps show what the reference shows and yield its
        /// champions, level by level, for every strategy.
        #[test]
        fn sweeps_match_the_per_level_reference(
            positions in prop_oneof![
                // Shorter than one 64-slot block; separators common.
                prop::collection::vec(position(2), 1..40),
                // Several blocks.
                prop::collection::vec(position(1), 40..200),
                // No separators: runs that reach every long level.
                prop::collection::vec(position(0), 60..160),
            ],
        ) {
            let chars: Vec<u8> = positions.iter().map(|p| p.0).collect();
            let probs: Vec<f64> = positions.iter().map(|p| p.1).collect();
            let keys: Vec<u32> = positions.iter().map(|p| p.2).collect();
            let text = ScoredText::build(&chars, &probs).unwrap();
            for dedup in [
                DedupStrategy::None,
                DedupStrategy::BySource(&keys),
                DedupStrategy::ByKeyMax(&keys),
            ] {
                let levels = Levels::build(&text, &text.run_lengths(), &dedup);
                let reference = reference_hidden(&text, &dedup);
                prop_assert_eq!(visibility_mismatches(&text, &levels, &reference), vec![]);
                let (short, long) = champions(&levels);
                let (ref_short, ref_long) = reference_champions(&text, &reference);
                prop_assert_eq!(short.len(), ref_short.len());
                for (i, (f, r)) in short.iter().zip(&ref_short).enumerate() {
                    prop_assert_eq!(f, r, "champions of level {}", i + 1);
                }
                prop_assert_eq!(long, ref_long);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chain sweep against the per-level reference on generated
        /// strings: the visibility bytes of an `Index` over a generated
        /// string and over the same string with correlations, and of a
        /// `ListingIndex` over both as documents (its `BySource` fallback:
        /// one of them is correlated), show at every short level exactly the
        /// slots [`reference_mask`] leaves visible.
        #[test]
        fn visibility_bytes_are_the_reference_masks(
            n in 20usize..400,
            theta in prop::sample::select(vec![0.0, 0.3, 0.6]),
            seed in 0u64..1 << 20,
            tau in prop::sample::select(vec![0.05, 0.1, 0.3]),
        ) {
            use crate::{index::tests::correlated, Index, ListingIndex};
            use ustr_workload::{generate_string, DatasetConfig};
            let plain = generate_string(&DatasetConfig::new(n, theta, seed));
            let correlated = correlated(n, seed);
            let check = |sub: &Substrate, keys: &[u32]| {
                prop_assert!(matches!(sub.levels.hidden, Hidden::Depth(_)));
                let reference = reference_hidden(&sub.text, &DedupStrategy::BySource(keys));
                let mismatches = visibility_mismatches(&sub.text, &sub.levels, &reference);
                prop_assert_eq!(mismatches, vec![]);
                Ok(())
            };
            for source in [&plain, &correlated] {
                let index = Index::build(source, tau).unwrap();
                check(&index.substrate, &ustr_uncertain::transform(source, tau).unwrap().pos)?;
            }
            let docs = [correlated.clone(), plain.clone()];
            let listing = ListingIndex::build(&docs, tau).unwrap();
            let base = [0, correlated.len()];
            let keys: Vec<u32> = (0..listing.substrate.text.values.len())
                .map(|x| listing.doc_and_src(x).map_or(NO_KEY, |(d, q)| (base[d] + q) as u32))
                .collect();
            check(&listing.substrate, &keys)?;
        }
    }
}
