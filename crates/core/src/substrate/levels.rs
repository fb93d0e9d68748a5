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

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use ustr_rmq::{Direction, SampledRmq, ThresholdReporter};

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
    fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// How duplicate entries are eliminated inside each locus partition. Keys
/// are functions of the *text position* a suffix starts at (`None` at
/// separators), so a caller can state its strategy before the suffix tree
/// exists.
pub(crate) enum DedupStrategy<'a> {
    /// No masking (the special index: every slot is a distinct position).
    None,
    /// Mask slots whose source key repeats within the partition (general
    /// substring index: key = original string position).
    BySource(&'a dyn Fn(usize) -> Option<u32>),
    /// Keep only the maximum-value slot per key per partition (listing
    /// index: key = document id, value drives `Rel_max`).
    ByKeyMax(&'a dyn Fn(usize) -> Option<u32>),
}

struct ShortLevel {
    rmq: SampledRmq,
    mask: BitVec,
}

struct LongLevel {
    /// Prefix length this level filters with.
    len: usize,
    /// Block RMQ with block size = `len` (one champion per block, as in the
    /// paper's `PB_i` arrays).
    rmq: SampledRmq,
}

/// The per-length RMQ levels of a [`Substrate`]. Values are never stored:
/// they are re-derived from the substrate's text, which the levels were
/// built (or reloaded) over; the queries are the `impl Substrate` below.
pub(super) struct Levels {
    /// Level `i` (pattern length `i + 1`); the count is `max_short`.
    short: Vec<ShortLevel>,
    long: Vec<LongLevel>,
}

/// Level-`len` value of slot `j`: the stored window probability, or −∞
/// when the level's duplicate mask hides the slot.
fn masked<'a>(
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

/// Unmasked length-`len` window value of slot `j`.
fn plain(text: &ScoredText, len: usize) -> impl Fn(usize) -> f64 + Copy + '_ {
    move |j| text.window(j, len)
}

impl Levels {
    /// Builds all levels over `text`. Slot 0 (the virtual terminator) is
    /// always masked. `max_short` short levels are built (lengths
    /// `1..=max_short`); long levels at `max_short·ratioᵏ` while ≤ text
    /// length, unless `enable_long` is false.
    pub(super) fn build(
        text: &ScoredText,
        max_short: usize,
        ratio: usize,
        enable_long: bool,
        dedup: &DedupStrategy<'_>,
    ) -> Self {
        let slots = text.tree.num_slots();
        let short = (1..=max_short)
            .map(|i| {
                let mask = build_mask(text, i, dedup);
                let rmq = SampledRmq::new(slots, Direction::Max, &masked(&mask, text, i));
                ShortLevel { rmq, mask }
            })
            .collect();

        let mut long = Vec::new();
        if enable_long {
            let mut len = max_short;
            while len <= text.cum.len().max(1) {
                let rmq = SampledRmq::with_block_size(
                    slots,
                    len.max(1),
                    Direction::Max,
                    &plain(text, len),
                );
                long.push(LongLevel { len, rmq });
                match len.checked_mul(ratio) {
                    Some(next) => len = next,
                    None => break,
                }
            }
        }

        Self { short, long }
    }

    /// Decomposes all levels into the persistent representation accepted by
    /// [`Levels::from_parts`]: per short level the duplicate-mask words and
    /// RMQ champion indices, per long level its filter length and champions.
    /// Champion *values* are never stored — they are re-derived from the
    /// cumulative array on reload, exactly as queries re-derive them.
    pub(super) fn to_parts(&self) -> LevelsParts {
        LevelsParts {
            max_short: self.short.len(),
            short: self
                .short
                .iter()
                .map(|s| ShortLevelParts {
                    mask_words: s.mask.words.clone(),
                    block_size: s.rmq.block_size(),
                    champions: s.rmq.champions().to_vec(),
                })
                .collect(),
            long: self
                .long
                .iter()
                .map(|l| LongLevelParts {
                    len: l.len,
                    block_size: l.rmq.block_size(),
                    champions: l.rmq.champions().to_vec(),
                })
                .collect(),
        }
    }

    /// Reassembles levels from parts produced by [`Levels::to_parts`],
    /// re-deriving all RMQ champion values through `text` (the reloaded
    /// text of the same substrate). Fails with [`Error::InvalidSnapshot`] on
    /// structurally inconsistent parts.
    pub(super) fn from_parts(parts: LevelsParts, text: &ScoredText) -> Result<Self, Error> {
        let slots = text.tree.num_slots();
        if parts.short.len() != parts.max_short {
            return Err(invalid("short level count does not match max_short"));
        }
        let mut short = Vec::with_capacity(parts.short.len());
        for (idx, level) in parts.short.into_iter().enumerate() {
            if level.mask_words.len() != slots.div_ceil(64) {
                return Err(invalid("mask word count does not match slot count"));
            }
            let mask = BitVec {
                words: level.mask_words,
            };
            let rmq = SampledRmq::from_parts(
                slots,
                level.block_size,
                Direction::Max,
                level.champions,
                &masked(&mask, text, idx + 1),
            )
            .map_err(invalid)?;
            short.push(ShortLevel { rmq, mask });
        }
        let mut long = Vec::with_capacity(parts.long.len());
        let mut prev_len = 0usize;
        for level in parts.long {
            if level.len <= prev_len {
                return Err(invalid("long level lengths must be strictly increasing"));
            }
            // `build` stops at the text length; a longer filter could only
            // overflow the window arithmetic.
            if level.len > text.cum.len().max(1) {
                return Err(invalid("long level length exceeds the text length"));
            }
            prev_len = level.len;
            let rmq = SampledRmq::from_parts(
                slots,
                level.block_size,
                Direction::Max,
                level.champions,
                &plain(text, level.len),
            )
            .map_err(invalid)?;
            long.push(LongLevel {
                len: level.len,
                rmq,
            });
        }
        Ok(Self { short, long })
    }

    /// The largest blocking level with `len ≤ m`. Prefix probabilities are
    /// non-increasing in length, so its values bound every length-`m`
    /// window from above.
    fn filter_level(&self, m: usize) -> Option<&LongLevel> {
        self.long.iter().rev().find(|lvl| lvl.len <= m)
    }

    /// Approximate heap footprint in bytes.
    pub(super) fn heap_size(&self) -> usize {
        self.short
            .iter()
            .map(|s| s.rmq.heap_size() + s.mask.heap_size())
            .sum::<usize>()
            + self.long.iter().map(|l| l.rmq.heap_size()).sum::<usize>()
    }
}

impl Substrate {
    /// Candidates of a length-`m` pattern (`m ≥ 1`) with suffix range
    /// `[l, r]`: `(text position, stored window log-probability)` of every
    /// suffix whose length-`m` window is ≥ `log_tau`. Short patterns
    /// (`m ≤ max_short`) run Algorithm 2/4 on the level-`m` RMQ — one hit
    /// per distinct key, most probable first; longer ones run the blocking
    /// scheme, where duplicate keys are *not* eliminated (the caller
    /// aggregates).
    pub(crate) fn report(&self, m: usize, l: usize, r: usize, log_tau: f64) -> Vec<(usize, f64)> {
        debug_assert!(m >= 1, "patterns are validated non-empty");
        let (text, levels) = (&self.text, &self.levels);
        let threshold = log_tau - ustr_uncertain::PROB_EPS;
        if let Some(level) = levels.short.get(m - 1) {
            let value = masked(&level.mask, text, m);
            return ThresholdReporter::new(
                l,
                r,
                threshold,
                Direction::Max,
                |a, b| level.rmq.query_with(a, b, &value),
                value,
            )
            .map(|(slot, v)| (text.pos(slot), v))
            .collect();
        }
        // Survivors of the filter level are verified at length `m` exactly.
        let exact = |slot: usize| {
            let v = text.window(slot, m);
            (v >= threshold).then(|| (text.pos(slot), v))
        };
        let Some(level) = levels.filter_level(m) else {
            // No filter level available: scan the whole range.
            return (l..=r).filter_map(exact).collect();
        };
        let filter = plain(text, level.len);
        ThresholdReporter::new(
            l,
            r,
            threshold,
            Direction::Max,
            |a, b| level.rmq.query_with(a, b, &filter),
            filter,
        )
        .filter_map(|(slot, _upper)| exact(slot))
        .collect()
    }

    /// The `k` most probable distinct sources over the suffix range `[l, r]`
    /// of a length-`m` pattern, as `(source, stored value)` in decreasing
    /// stored-value order: best-first search over the level that serves `m`
    /// (see [`super::topk`]). `source` maps a text position to its
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
        let (text, levels) = (&self.text, &self.levels);
        let source = |slot: usize| source(text.pos(slot));
        if let Some(level) = levels.short.get(m - 1) {
            let value = masked(&level.mask, text, m);
            let best = |a, b| {
                let s = level.rmq.query_with(a, b, &value);
                (s, value(s))
            };
            return top_k_search(l, r, k, floor, best, value, source);
        }
        let exact = plain(text, m);
        let Some(level) = levels.filter_level(m) else {
            // No blocking level: rank by scanning (rare; tiny texts only).
            let mut all: Vec<(usize, f64)> = (l..=r)
                .filter_map(|j| {
                    let v = exact(j);
                    if v == f64::NEG_INFINITY || v < floor {
                        return None;
                    }
                    source(j).map(|s| (s, v))
                })
                .collect();
            all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
            let mut seen = HashSet::new();
            all.retain(|&(s, _)| seen.insert(s));
            all.truncate(k);
            return all;
        };
        // Lazy bounds: the filter-length value is an upper bound for `m`.
        let bound = plain(text, level.len);
        let best = |a, b| {
            let s = level.rmq.query_with(a, b, &bound);
            (s, bound(s))
        };
        top_k_search(l, r, k, floor, best, exact, source)
    }
}

/// Builds the duplicate mask for one level.
fn build_mask(text: &ScoredText, level: usize, dedup: &DedupStrategy<'_>) -> BitVec {
    let tree = &text.tree;
    let slots = tree.num_slots();
    let mut mask = BitVec::new(slots);
    if slots > 0 {
        mask.set(0); // virtual-terminator slot never matches
    }
    match dedup {
        DedupStrategy::None => {}
        DedupStrategy::BySource(key_of) => {
            // Stamp-based "seen" set avoids clearing a hash set per partition.
            let mut seen: HashMap<u32, u32> = HashMap::new();
            let mut partition = 0u32;
            for j in 1..slots {
                if tree.slot_lcp(j) < level {
                    partition += 1;
                }
                let valid = text.window(j, level) > f64::NEG_INFINITY;
                match key_of(text.pos(j)) {
                    Some(key) if valid => {
                        if seen.insert(key, partition) == Some(partition) {
                            mask.set(j);
                        }
                    }
                    _ => mask.set(j),
                }
            }
        }
        DedupStrategy::ByKeyMax(key_of) => {
            let mut best: HashMap<u32, (usize, f64)> = HashMap::new();
            let mut members: Vec<usize> = Vec::new();
            let flush = |best: &mut HashMap<u32, (usize, f64)>,
                         members: &mut Vec<usize>,
                         mask: &mut BitVec| {
                for &j in members.iter() {
                    mask.set(j);
                }
                for &(winner, _) in best.values() {
                    mask.clear(winner);
                }
                best.clear();
                members.clear();
            };
            for j in 1..slots {
                if tree.slot_lcp(j) < level {
                    flush(&mut best, &mut members, &mut mask);
                }
                let value = text.window(j, level);
                match key_of(text.pos(j)) {
                    Some(key) if value > f64::NEG_INFINITY => {
                        members.push(j);
                        match best.get(&key) {
                            Some(&(_, v)) if v >= value => {}
                            _ => {
                                best.insert(key, (j, value));
                            }
                        }
                    }
                    _ => mask.set(j),
                }
            }
            flush(&mut best, &mut members, &mut mask);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;

    fn substrate(
        text: &[u8],
        probs: &[f64],
        max_short: usize,
        enable_long: bool,
        dedup: &DedupStrategy<'_>,
    ) -> Substrate {
        let options = IndexOptions {
            max_short_level: Some(max_short),
            disable_long_levels: !enable_long,
            ..Default::default()
        };
        Substrate::build(text, probs, &options, dedup)
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
        let sub = substrate(b"banana", &probs, 3, true, &DedupStrategy::None);
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
        let sub = substrate(b"abababab", &[0.9; 8], 2, true, &DedupStrategy::None);
        assert!(!sub.levels.long.is_empty());
        // length 4 at 0.9^4 = .6561; threshold .6 keeps all three occurrences
        let hits = report(&sub, b"abab", 0.6);
        assert_eq!(positions(&sub, b"abab", 0.6), vec![0, 2, 4]);
        for &(_, p) in &hits {
            assert!((p - 0.9f64.powi(4)).abs() < 1e-9);
        }
        // Threshold .66 rejects (0.6561 < 0.66).
        assert!(report(&sub, b"abab", 0.66).is_empty());
    }

    #[test]
    fn dedup_by_source_masks_repeats_within_partition() {
        // Text "AB\0AB\0" where both "AB" factors map to source position 7.
        let text = b"AB\0AB\0";
        let probs = [0.5, 0.5, 1.0, 0.5, 0.5, 1.0];
        // Every real position pretends to be source 7.
        let key = |x: usize| (x < 6 && text[x] != 0).then_some(7u32);
        let sub = substrate(text, &probs, 2, false, &DedupStrategy::BySource(&key));
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
        let key = |x: usize| (x < 6 && text[x] != 0).then_some(0u32); // one document
        let sub = substrate(text, &probs, 2, false, &DedupStrategy::ByKeyMax(&key));
        let hits = report(&sub, b"AB", 0.1);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].1 - 0.81).abs() < 1e-9, "max entry kept");
    }

    #[test]
    fn sentinel_windows_never_report() {
        let sub = substrate(b"A\0B", &[0.9, 1.0, 0.9], 2, false, &DedupStrategy::None);
        // "A\0" would cross the separator: the window is -inf at level 2.
        let (l, r) = sub.range(b"A").unwrap();
        assert!(sub.report(2, l, r, 0.001f64.ln()).is_empty());
    }

    #[test]
    fn report_without_long_levels_falls_back_to_scan() {
        let sub = substrate(b"aaaa", &[0.9; 4], 1, false, &DedupStrategy::None);
        assert!(sub.levels.long.is_empty());
        assert_eq!(report(&sub, b"aa", 0.5).len(), 3);
    }
}
