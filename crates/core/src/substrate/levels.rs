//! Per-pattern-length RMQ levels (`C_i` + `RMQ_i`) with duplicate
//! elimination, plus the long-pattern blocking scheme (§4.2, §5.2).
//!
//! For every pattern length `i ≤ L = ⌈log₂ N⌉` the paper materialises
//! `C_i[j]` = probability of the length-`i` prefix of the `j`-th suffix,
//! builds an RMQ over it, and discards the array, re-deriving values from
//! the cumulative array `C`. [`Levels`] does the same with
//! [`SampledRmq`] structures whose accessors read
//! [`ScoredText::window`].
//!
//! Duplicate elimination (§5.2/§6): within each level-`i` locus partition
//! (maximal runs of suffix-array slots whose pairwise LCP is ≥ `i`),
//! duplicate entries are masked to −∞ so each distinct source position (or
//! document) is reported at most once. The suffix range of any length-`i`
//! pattern coincides with exactly one partition, so masked levels report
//! every distinct result exactly once.
//!
//! Long patterns (`m > L`): materialising per-length block maxima for every
//! `i ∈ [log n, n]`, as §4.2 describes, costs Θ(n²) construction time; we
//! build the blocking levels at geometric lengths `L, 2L, 4L, …` instead.
//! Prefix probabilities are non-increasing in length, so a level-`i` value
//! (`i ≤ m`) upper-bounds every length-`m` window in its block — a sound
//! pruning filter; survivors are verified against `C` exactly. This keeps
//! the paper's `O(m · occ)` long-pattern flavour at O(N log N) build cost.
//!
//! # One level type, one ladder, one query path
//!
//! Short and long levels are one type (length, [`SampledRmq`], mask — the
//! empty one on a long level), and a query does not tell them apart: the
//! level that serves `m` bounds every candidate, and the exact value is
//! that bound when the level's length is `m`, the length-`m` window
//! otherwise. A threshold report is that level's
//! [`SampledRmq::report_at_least`]: the suffix range is split at its
//! maximum only while it spans more than two blocks, and a smaller range is
//! read once, so each candidate costs O(1) reads (§4's `O(m + occ)`).
//! Top-k is [`super::topk`]'s best-first search over the same level.
//! No other shape exists: [`ladder`] derives the lengths from
//! the text alone, `build` makes exactly those levels and `from_parts`
//! accepts exactly those — a stored state names no lengths, and one level
//! short or over is refused.
//!
//! # Construction: every level from one pass over the slots
//!
//! The level-`i` values of one slot `j` are the differences
//! `C[x + i] − C[x]` of one *contiguous* stretch of `C` (`x = SA[j]`), so
//! [`Levels::build`] walks the suffix array once per job, not once per
//! level, and reads per slot `SA[j]`, `LCP[j]`, the slot's dedup key and
//! that stretch:
//!
//! 1. **Keep sweep** (skipped without dedup): decides for every slot the
//!    set of levels at which it stays visible, one bit per level. All
//!    levels keep their own partition counter, bumped for the levels above
//!    `LCP[j]`; "was this key already seen in this partition of this level"
//!    is one read of a stamp table addressed `key · L + level` holding the
//!    partition id it was last seen in (`ByKeyMax` keeps the winner's slot
//!    and value beside the stamp and drops the displaced winner's bit).
//! 2. **Champion sweep**: per block of slots, the mask word and the
//!    leftmost maximum of every level among the kept bits; the champions go
//!    straight into [`SampledRmq::from_parts`].
//!
//! A window exists exactly up to the slot's separator-free run length
//! ([`ScoredText::run_lengths`], from the text's bytes), and `C` holds no
//! separators to check it against (see [`crate::carray`]): neither sweep
//! reads `C` past the run — deeper short levels are masked (or −∞) without
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
//! A short level has blocks of 64 slots and one mask bit per slot:
//! ≈ 0.44 B per slot per level. A long level's block is its length, from
//! `L` up: 20.2 / `len` B per slot, under 2.5 B per slot for the whole
//! geometric ladder.
//!
//! Temporary memory: the run lengths (one word per text position), one
//! `u64` of level bits per slot — `L ≤ 32` for any text an index accepts —
//! and the stamp table: `L × key space` words, the key space being the
//! document's own (source positions, or document ids).

use ustr_rmq::{Direction, SampledRmq};

use super::{topk::top_k_search, ScoredText, Substrate};
use crate::{
    error::Error,
    snapshot::{invalid, LevelsParts, LongLevelParts, ShortLevelParts},
};

/// Compact bit vector for per-level duplicate masks.
#[derive(Debug, Clone)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    /// Bit `i`; clear past the last word, so the empty vector is the mask
    /// that hides nothing.
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// "No key" in a [`DedupStrategy`] key array: separator positions.
pub(crate) const NO_KEY: u32 = u32::MAX;

/// How duplicate entries are eliminated inside each locus partition. Keys
/// are given per *text position* a suffix starts at ([`NO_KEY`] at
/// separators), so a caller can state its strategy before the suffix tree
/// exists; the largest key sizes the build's stamp table.
pub(crate) enum DedupStrategy<'a> {
    /// No masking (the special index: every slot is a distinct position).
    None,
    /// Mask slots whose source key repeats within the partition (general
    /// substring index: key = original string position).
    BySource(&'a [u32]),
    /// Keep only the maximum-value slot per key per partition, the earlier
    /// slot on a tie (listing index: key = document id, value drives
    /// `Rel_max`).
    ByKeyMax(&'a [u32]),
}

/// One RMQ level: short levels (`len ≤ L`, 64-slot blocks) carry the
/// duplicate mask of their length, long levels (block size = `len`, one
/// champion per block as in the paper's `PB_i` arrays) the empty one.
struct Level {
    /// Prefix length of the level's values.
    len: usize,
    rmq: SampledRmq,
    mask: BitVec,
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
}

/// Level-`len` value of slot `j` at query time: the stored window
/// probability, or −∞ where `mask` hides the slot. A query reads only slots
/// of a suffix range at lengths up to the pattern's, so the window is
/// whole (see [`ScoredText::window`]); a champion's value is read once, at
/// build or load time, through [`champion_value`].
fn level_value<'a>(
    mask: &'a BitVec,
    text: &'a ScoredText,
    len: usize,
) -> impl Fn(usize) -> f64 + Copy + 'a {
    move |j| {
        if mask.get(j) {
            f64::NEG_INFINITY
        } else {
            text.window(j, len)
        }
    }
}

/// [`level_value`] for any slot: a champion may be a slot whose window
/// crosses a separator or leaves the text (a block with nothing visible, or
/// a level without a mask), so this one reads through the slot's run length
/// (`run` is [`ScoredText::run_lengths`]) and is −∞ there.
fn champion_value<'a>(
    mask: &'a BitVec,
    text: &'a ScoredText,
    run: &'a [u32],
    len: usize,
) -> impl Fn(usize) -> f64 + Copy + 'a {
    move |j| {
        if mask.get(j) {
            f64::NEG_INFINITY
        } else {
            text.run_window(run, j, len)
        }
    }
}

impl Level {
    /// The level of length `len` over `text` (with its run lengths `run`)
    /// from its mask words (none for a long level) and per-block champions;
    /// the block size follows from the kind: 64 slots under a mask, `len`
    /// without one.
    fn new(
        text: &ScoredText,
        run: &[u32],
        len: usize,
        words: Vec<u64>,
        champions: Vec<u32>,
    ) -> Result<Self, &'static str> {
        let block = match words.len() {
            0 => len,
            _ => SampledRmq::DEFAULT_BLOCK,
        };
        let mask = BitVec { words };
        let rmq = SampledRmq::from_parts(
            text.tree.num_slots(),
            block,
            Direction::Max,
            champions,
            &champion_value(&mask, text, run, len),
        )?;
        Ok(Self { len, rmq, mask })
    }

    /// This level's [`level_value`].
    fn value<'a>(&'a self, text: &'a ScoredText) -> impl Fn(usize) -> f64 + Copy + 'a {
        level_value(&self.mask, text, self.len)
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

impl Levels {
    /// Builds all levels over `text` (see the module docs) on the ladder
    /// [`ladder`] derives from it. Slot 0 (the virtual terminator) is
    /// always masked.
    pub(super) fn build(text: &ScoredText, dedup: &DedupStrategy<'_>) -> Self {
        let slots = text.tree.num_slots();
        let run = text.run_lengths();
        let (max_short, long_lens) = ladder(text);
        let mut long_sweeps: Vec<LongSweep> =
            long_lens.map(|len| LongSweep::new(len, slots)).collect();

        let keep = keep_sweep(text, &run, max_short, dedup);
        let swept = champion_sweep(text, &run, max_short, keep.as_deref(), &mut long_sweeps);
        let level = |len, words, champions| {
            Level::new(text, &run, len, words, champions)
                .expect("the sweep yields one in-block champion per block")
        };
        let short = swept
            .into_iter()
            .enumerate()
            .map(|(i, (words, champions))| level(i + 1, words, champions))
            .collect();
        let long = long_sweeps
            .into_iter()
            .map(|sweep| level(sweep.len, Vec::new(), sweep.champions))
            .collect();
        Self { short, long }
    }

    /// Decomposes all levels into the persistent representation accepted by
    /// [`Levels::from_parts`]: per short level the duplicate-mask words and
    /// RMQ champion indices, per long level its champions. Champion *values*
    /// are never stored — they are re-derived from the cumulative array on
    /// reload, read as the build read them — nor lengths.
    pub(super) fn to_parts(&self) -> LevelsParts {
        let champions = |level: &Level| level.rmq.champions().to_vec();
        LevelsParts {
            short: self
                .short
                .iter()
                .map(|level| ShortLevelParts {
                    mask_words: level.mask.words.clone(),
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

    /// Reassembles levels from parts produced by [`Levels::to_parts`],
    /// re-deriving all RMQ champion values through `text` (the reloaded
    /// text of the same substrate), whose [`ladder`] the parts must sit on
    /// level for level. Fails with [`Error::InvalidSnapshot`] on
    /// structurally inconsistent parts.
    pub(super) fn from_parts(parts: LevelsParts, text: &ScoredText) -> Result<Self, Error> {
        let (max_short, long_lens) = ladder(text);
        let long_lens: Vec<usize> = long_lens.collect();
        if parts.short.len() != max_short || parts.long.len() != long_lens.len() {
            return Err(invalid("level count does not match the ladder of the text"));
        }
        let mask_words = text.tree.num_slots().div_ceil(64);
        let run = text.run_lengths();
        let short = parts.short.into_iter().zip(1..).map(|(level, len)| {
            if level.mask_words.len() != mask_words {
                return Err("mask word count does not match slot count");
            }
            Level::new(text, &run, len, level.mask_words, level.champions)
        });
        let short = short.collect::<Result<_, _>>().map_err(invalid)?;
        let long = parts
            .long
            .into_iter()
            .zip(long_lens)
            .map(|(level, len)| Level::new(text, &run, len, Vec::new(), level.champions));
        let long = long.collect::<Result<_, _>>().map_err(invalid)?;
        Ok(Self { short, long })
    }

    /// The level that serves pattern length `m ≥ 1`: its own short level up
    /// to `L`; past that the longest long level no longer than `m`, whose
    /// values bound every length-`m` window from above (prefix
    /// probabilities are non-increasing in length).
    fn serving(&self, m: usize) -> &Level {
        let long = || self.long.iter().rev().find(|level| level.len <= m);
        self.short.get(m - 1).or_else(long).expect(
            "a pattern longer than L occurs only in a text that long, which has a long level",
        )
    }

    /// Heap bytes of the short levels (masks and RMQs) and of the long
    /// levels.
    pub(super) fn heap_sizes(&self) -> (usize, usize) {
        let bytes = |levels: &[Level]| -> usize {
            levels
                .iter()
                .map(|level| level.rmq.heap_size() + level.mask.heap_size())
                .sum()
        };
        (bytes(&self.short), bytes(&self.long))
    }
}

impl Substrate {
    /// Candidates of a length-`m` pattern (`m ≥ 1`) with suffix range
    /// `[l, r]`: `(text position, stored window log-probability)` of every
    /// suffix whose length-`m` window is ≥ `log_tau`. Algorithm 2/4 runs on
    /// the level that serves `m`; survivors of a shorter level are verified
    /// at length `m`. Hits come in no set order. A short level (`m ≤ L`)
    /// yields one hit per distinct key; a long one — the blocking scheme —
    /// does *not* eliminate duplicate keys (the caller aggregates).
    pub(crate) fn report(&self, m: usize, l: usize, r: usize, log_tau: f64) -> Vec<(usize, f64)> {
        debug_assert!(m >= 1, "patterns are validated non-empty");
        let (text, level) = (&self.text, self.levels.serving(m));
        #[allow(clippy::float_arithmetic, reason = "the τ cut, once per report")]
        let threshold = log_tau - ustr_uncertain::PROB_EPS;
        let mut hits = Vec::new();
        level
            .rmq
            .report_at_least(l, r, threshold, &level.value(text), |slot, upper| {
                let v = level.exact(text, m, slot, upper);
                if v >= threshold {
                    hits.push((text.pos(slot), v));
                }
            });
        hits
    }

    /// The `k` most probable distinct sources over the suffix range `[l, r]`
    /// of a length-`m` pattern, and every other source tied with the `k`-th
    /// within `PROB_EPS`, as `(source, stored value)` in decreasing
    /// stored-value order: best-first search over the level that serves `m`
    /// (see [`super::topk`]), its values lazy bounds when it is shorter than
    /// `m`. `source` maps a text position to its deduplicated output key
    /// (`None` to skip it); `floor` is a log-probability cut-off below which
    /// nothing is emitted (`f64::MIN` disables it).
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
        let (text, level) = (&self.text, self.levels.serving(m));
        let source = |slot: usize| source(text.pos(slot));
        let bound = level.value(text);
        let best = |a, b| {
            let s = level.rmq.query_with(a, b, &bound);
            (s, bound(s))
        };
        let exact = |slot, upper| level.exact(text, m, slot, upper);
        top_k_search(l, r, k, floor, best, exact, source)
    }
}

/// The level ladder, derived from the text and nothing else: short levels
/// for the pattern lengths `1..=L`, `L = ⌈log₂(slots + 1)⌉` (the paper's
/// `log n`), and the lengths of the long levels, `L·2ᵏ` up to the text
/// length.
fn ladder(text: &ScoredText) -> (usize, impl Iterator<Item = usize>) {
    let max_short = (usize::BITS - text.tree.num_slots().leading_zeros()) as usize;
    let text_len = text.cum.len().max(1);
    let long = std::iter::successors(Some(max_short), |&len| len.checked_mul(2))
        .take_while(move |&len| len <= text_len);
    (max_short, long)
}

/// The sweeps hold a slot's short levels as the bits of one `u64`: level
/// `ℓ` (pattern length `ℓ + 1`) is bit `ℓ`, and [`ladder`] cannot derive
/// more levels than a `usize` has bits.
const LEVEL_BITS: usize = u64::BITS as usize;
const _: () = assert!(usize::BITS <= u64::BITS);

/// `u64` with the low `n ≤ 64` bits set.
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
fn levels_below(t: u32, levels: usize) -> usize {
    (t as usize).min(levels)
}

/// A key's current winner in one level's partition (`ByKeyMax`).
#[derive(Clone)]
struct Best {
    slot: u32,
    value: f64,
}

/// The keep sweep over the short levels `0..levels`: for every slot, bit
/// `i` set when the slot stays visible at level `i`, i.e. its window is
/// finite and `dedup` does not hide it. `None` without dedup, where
/// visibility is the run length alone.
fn keep_sweep(
    text: &ScoredText,
    run: &[u32],
    levels: usize,
    dedup: &DedupStrategy<'_>,
) -> Option<Vec<u64>> {
    let (keys, keep_max) = match *dedup {
        DedupStrategy::None => return None,
        DedupStrategy::BySource(keys) => (keys, false),
        DedupStrategy::ByKeyMax(keys) => (keys, true),
    };
    debug_assert_eq!(keys.len(), text.cum.len(), "one key per text position");
    let sa = text.tree.sa_slots();
    let lcp = text.tree.slot_lcps();
    let prefix = text.cum.prefix();
    let key_space = keys
        .iter()
        .filter(|&&k| k != NO_KEY)
        .max()
        .map_or(0, |&k| k as usize + 1);

    // `stamp[key · levels + i]`: the level-`i` partition the key was last
    // seen in. Partition ids start at 1 (slot 1 opens one at every level),
    // so 0 is "never".
    let mut stamp = vec![0u32; key_space * levels];
    let mut best = vec![
        Best {
            slot: 0,
            value: 0.0
        };
        if keep_max { key_space * levels } else { 0 }
    ];
    let mut partition = [0u32; LEVEL_BITS];
    let mut keep = vec![0u64; sa.len()];
    for j in 1..sa.len() {
        // A level's partition ends where the LCP drops below its length.
        for p in &mut partition[levels_below(lcp[j], levels)..levels] {
            *p += 1;
        }
        let x = sa[j] as usize;
        let key = keys[x];
        if key == NO_KEY {
            continue;
        }
        let at = key as usize * levels;
        let finite = levels_below(run[x], levels);
        let mut bits = 0u64;
        for i in 0..finite {
            let seen = std::mem::replace(&mut stamp[at + i], partition[i]) == partition[i];
            if keep_max {
                #[allow(clippy::float_arithmetic, reason = "a stored window sum ranks keys")]
                let value = prefix[x + i + 1] - prefix[x];
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
            } else if seen {
                continue;
            }
            bits |= 1u64 << i;
        }
        keep[j] = bits;
    }
    Some(keep)
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

/// The champion sweep over the short levels `0..levels`: per level its
/// duplicate-mask words and per-block champions (leftmost maximum of the
/// visible values; the block's first slot when none is). `keep` is the
/// [`keep_sweep`] result; `long` levels are offered every slot whose run
/// reaches their length.
#[allow(clippy::float_arithmetic, reason = "stored window sums rank champions")]
fn champion_sweep(
    text: &ScoredText,
    run: &[u32],
    levels: usize,
    keep: Option<&[u64]>,
    long: &mut [LongSweep],
) -> Vec<(Vec<u64>, Vec<u32>)> {
    const BLOCK: usize = SampledRmq::DEFAULT_BLOCK;
    const _: () = assert!(BLOCK == 64, "one mask word per champion block");
    let sa = text.tree.sa_slots();
    let prefix = text.cum.prefix();
    let blocks = sa.len().div_ceil(BLOCK);
    let mut swept: Vec<(Vec<u64>, Vec<u32>)> = (0..levels)
        .map(|_| (Vec::with_capacity(blocks), Vec::with_capacity(blocks)))
        .collect();
    let mut mask = [0u64; LEVEL_BITS];
    let mut best = [f64::NEG_INFINITY; LEVEL_BITS];
    let mut champion = [0u32; LEVEL_BITS];
    for start in (0..sa.len()).step_by(BLOCK) {
        let end = (start + BLOCK).min(sa.len());
        // With dedup every slot is masked until a kept bit says otherwise;
        // without, only the virtual-terminator slot is.
        mask[..levels].fill(match keep {
            Some(_) => low_bits(end - start),
            None => u64::from(start == 0),
        });
        best[..levels].fill(f64::NEG_INFINITY);
        champion[..levels].fill(start as u32);
        for j in start..end {
            let x = sa[j] as usize;
            let run_x = run[x];
            let mut bits = match keep {
                Some(keep) => keep[j],
                None => low_bits(levels_below(run_x, levels)),
            };
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if keep.is_some() {
                    mask[i] &= !(1u64 << (j - start));
                }
                let value = prefix[x + i + 1] - prefix[x];
                if value > best[i] {
                    best[i] = value;
                    champion[i] = j as u32;
                }
            }
            for level in long.iter_mut() {
                if level.len > run_x as usize {
                    break;
                }
                level.offer(j, prefix[x + level.len] - prefix[x]);
            }
        }
        for (i, (words, champions)) in swept.iter_mut().enumerate() {
            words.push(mask[i]);
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
    /// levels at 6, 12, 24 and 48. Characters repeat with period 3 and
    /// probabilities with period 6, broken by one separator, so a pattern
    /// matches at two residues with two different values.
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

    #[test]
    fn short_levels_match_brute_force() {
        check_against_brute_force(&[1, 2, 3, 5, 6], |sub| sub, true);
    }

    #[test]
    fn long_levels_match_brute_force() {
        // Filter levels 6, 12 and 24; the blocking scheme may repeat a key.
        let two_long = |sub: Substrate| {
            assert!(sub.levels.short.len() == 6 && sub.levels.long.len() >= 2);
            sub
        };
        check_against_brute_force(&[7, 12, 13, 17], two_long, false);
    }

    /// The per-level construction the sweeps replaced, kept as their
    /// reference: for each level on its own, one pass over the slots for
    /// the duplicate mask (hash maps keyed by dedup key), then
    /// `SampledRmq::new` over the masked accessor.
    fn reference_parts(text: &ScoredText, dedup: &DedupStrategy<'_>) -> LevelsParts {
        let slots = text.tree.num_slots();
        let run = text.run_lengths();
        let (max_short, long_lens) = ladder(text);
        let short = (1..=max_short)
            .map(|i| {
                let mask = BitVec {
                    words: reference_mask(text, i, dedup),
                };
                let value = champion_value(&mask, text, &run, i);
                let rmq = SampledRmq::new(slots, Direction::Max, &value);
                ShortLevelParts {
                    champions: rmq.champions().to_vec(),
                    mask_words: mask.words,
                }
            })
            .collect();
        let long = long_lens
            .map(|len| {
                let value = |j| text.run_window(&run, j, len);
                let rmq = SampledRmq::with_block_size(slots, len, Direction::Max, &value);
                LongLevelParts {
                    champions: rmq.champions().to_vec(),
                }
            })
            .collect();
        LevelsParts { short, long }
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

        /// The fused sweeps yield the reference's mask words and champions,
        /// level by level, for every strategy.
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
                let fused = Levels::build(&text, &dedup).to_parts();
                let reference = reference_parts(&text, &dedup);
                prop_assert_eq!(fused.short.len(), reference.short.len());
                for (i, (f, r)) in fused.short.iter().zip(&reference.short).enumerate() {
                    prop_assert_eq!(&f.mask_words, &r.mask_words, "mask of level {}", i + 1);
                    prop_assert_eq!(&f.champions, &r.champions, "champions of level {}", i + 1);
                }
                prop_assert_eq!(fused.long.len(), reference.long.len());
                for (k, (f, r)) in fused.long.iter().zip(&reference.long).enumerate() {
                    prop_assert_eq!(&f.champions, &r.champions, "champions of long level {}", k);
                }
            }
        }
    }
}
