//! Approximate substring search (§7): ε-refined links in the suffix tree,
//! after the top-k framework of Hon, Shah, Vitter (FOCS 2009).
//!
//! Every leaf of the suffix tree over the transformed text is marked with
//! its original position `Posid`; internal nodes are marked at LCAs of
//! equally-marked leaves. Each marked node links to its lowest marked
//! proper ancestor, and each link is split into sub-links whose endpoint
//! probabilities differ by at most ε (probabilities are evaluated on the
//! *real* prefix of the witness suffix — the separator-capped window — so
//! chains that run past a factor boundary stay finite). A window's value
//! is the left-to-right sum of its value codes ([`crate::codes`]), as the
//! exact indexes take it: on a model without correlations a link's
//! probability is the canonical probability of its origin window, bit for
//! bit, so a reported value is at most the occurrence's, never above it.
//!
//! **Query.** For a pattern of length `m` with locus `ip`, the stabbed
//! sub-link for position `d` is the unique one with
//! `target_depth < m ≤ origin_depth` and origin inside `ip`'s subtree.
//! Using `m` (rather than `depth(ip)`, which can overshoot the pattern
//! into a longer shared prefix) makes the additive guarantee exact:
//! the true occurrence probability is sandwiched between the sub-link's
//! endpoint probabilities, which differ by ≤ ε. Hence
//! `exact(τ) ⊆ reported ⊆ exact(τ − ε)` — the paper's additive-error
//! semantics.
//!
//! A link keys its origin as the suffix tree keys its nodes
//! ([`SuffixTree::node_key`]) and the table is sorted by key, so the links
//! of `ip`'s subtree are one run ([`SuffixTree::subtree_keys`]). Retrieval
//! walks a min-RMQ recursion over that run's target depths, reporting each
//! link in O(1); links whose chains cross the locus but fail the
//! probability cutoff cost extra visits (bounded by the τmin-occurrences),
//! which is the documented deviation from the fixed-τ HSV machinery.
//!
//! **Correlation.** Under correlation a character's value code holds its
//! [`CorrelationSet::upper_bound`](ustr_uncertain::CorrelationSet::upper_bound),
//! not its probability, so a link's probability only bounds the truth from
//! above: the cut at τ − ε keeps every true hit but may keep more, and the
//! value overstates. A correlated document's index therefore holds the
//! model's verification plane and re-verifies each hit through its kernel,
//! as [`Index::query`](crate::Index::query) does: a hit stays iff its exact
//! probability meets τ − ε, and reports that exact value. Uncorrelated
//! documents hold no plane and do no such work.
//!
//! **The paper's artifact.** This index is built and measured as §7 has
//! it; nothing serves it. The exact answer keeps the sandwich by
//! definition, and the exact [`Index`](crate::Index) answers as fast, so
//! the serving stack answers `Approx` from its `Index` and holds no links.
//! A link stores a *witness* — the text position of a leaf below its
//! origin — and reads its source position off the position map there.

use std::cmp::Reverse;
use std::ops::Range;
use std::time::Instant;

use ustr_rmq::{BlockRmq, Direction, Rmq, ThresholdReporter};
use ustr_suffix::{LeafLca, SuffixTree};
use ustr_uncertain::{canon, split, transform, ProbPlane, UncertainString};

use crate::{
    codes::{self, ValueCodes},
    error::{validate_query, Error},
    factors::{stretch_starts, FactorMap},
    result::QueryResult,
    stats::BuildStats,
    substrate::{check_text_len, ScoredText},
};

/// One ε-refined link (24 bytes): it connects an origin endpoint at
/// `origin_depth` to a target endpoint at `target_depth` along the path from
/// a marked suffix-tree node toward the root.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Key of the (real) node anchoring the origin endpoint, as the suffix
    /// tree keys it ([`SuffixTree::node_key`]).
    origin: u32,
    /// String depth of the origin endpoint (at most the node's own).
    origin_depth: u32,
    /// String depth of the target endpoint (`< origin_depth`).
    target_depth: u32,
    /// Text position of a suffix below the origin node, on no separator.
    witness: u32,
    /// The probability of the window of `origin_depth` characters at the
    /// witness, capped at the next separator: its value codes' sum.
    prob: f64,
}

/// Approximate substring-search index with additive error ε.
///
/// ```
/// use ustr_core::ApproxIndex;
/// use ustr_uncertain::UncertainString;
/// let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
/// let idx = ApproxIndex::build(&s, 0.1, 0.05).unwrap();
/// let hits = idx.query(b"QP", 0.4).unwrap();
/// // Everything with true probability >= 0.4 is present ...
/// assert!(hits.positions().contains(&0)); // .7 * .7 = .49
/// // ... and nothing below 0.4 - eps = 0.35 can appear (position 1 has .3).
/// assert!(!hits.positions().contains(&1));
/// ```
pub struct ApproxIndex {
    /// The suffix tree of the text the links hang off, over every slot:
    /// pattern loci. The build's value codes, dropped when it returns, gave
    /// each link its probability.
    tree: SuffixTree,
    /// The position map over `text`: a link's witness → its source position.
    map: FactorMap,
    /// The source model's verification plane, held only when the model has
    /// correlations (module docs).
    plane: Option<ProbPlane>,
    /// Sorted by `origin`, the key of the origin node in `text`'s tree.
    links: Vec<Link>,
    /// Min-RMQ over `links[..].target_depth`.
    target_rmq: BlockRmq,
    epsilon: f64,
    tau_min: f64,
    stats: BuildStats,
}

impl ApproxIndex {
    /// Builds the index for threshold floor `tau_min` and additive error
    /// `epsilon ∈ (0, 1)`: the transform and tree an [`Index`](crate::Index)
    /// over `source` would build, and the links over them (and the plane,
    /// when `source` has correlations).
    pub fn build(source: &UncertainString, tau_min: f64, epsilon: f64) -> Result<Self, Error> {
        if !canon::valid_epsilon(epsilon) {
            return Err(Error::InvalidEpsilon { value: epsilon });
        }
        let start = Instant::now();
        let transformed = transform(source, tau_min)?;
        let chars = transformed.special.chars();
        check_text_len(chars.len(), MAX_KEYED_LEN)?;
        let text = ScoredText::build(chars, transformed.special.probs())?;
        let starts = stretch_starts(chars).map(|x| transformed.pos[x]);
        let map =
            FactorMap::new(chars, starts, source.len()).expect("the transform emits a factor map");
        let plane = (!source.correlations().is_empty()).then(|| ProbPlane::build(source));
        let links = find_links(&text, &map, epsilon);
        // The value codes gave the links their probabilities; no query
        // reads them.
        let tree = text.tree;
        let depths: Vec<f64> = links.iter().map(|l| l.target_depth as f64).collect();
        let target_rmq = BlockRmq::new(&depths, Direction::Min);
        let mut idx = Self {
            tree,
            map,
            plane,
            links,
            target_rmq,
            epsilon,
            tau_min,
            stats: BuildStats {
                source_len: source.len(),
                transformed_len: transformed.len(),
                num_factors: transformed.num_factors,
                ..Default::default()
            },
        };
        idx.stats.heap_bytes = idx.heap_size();
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        Ok(idx)
    }

    /// Heap bytes held, per structure: a `(name, bytes)` row for everything
    /// the links add to the text they hang off. The text, its tree and the
    /// position map (and a correlated model's plane) are an
    /// [`Index`](crate::Index)'s rows, and are not counted here.
    pub fn heap_breakdown(&self) -> [(&'static str, usize); 2] {
        [
            ("links", self.links.capacity() * std::mem::size_of::<Link>()),
            ("link RMQ", self.target_rmq.heap_size()),
        ]
    }

    /// Heap bytes held: the sum of [`ApproxIndex::heap_breakdown`].
    pub(crate) fn heap_size(&self) -> usize {
        self.heap_breakdown().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Source position of text position `x` (`None` at separators).
    #[cfg(test)]
    pub(crate) fn source_pos(&self, x: usize) -> Option<usize> {
        self.map.source_pos(x)
    }

    /// The additive error bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The construction threshold floor.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// Number of ε-refined links (the O(N/ε) structure of §7).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Positions where `pattern` matches with probability ≥ τ, up to the
    /// additive error: the result contains every position with true
    /// probability ≥ τ and no position below τ − ε. Reported probabilities
    /// are the link approximations (within ε below the true value), or,
    /// for a model with correlations, the exact ones (module docs).
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        let m = pattern.len();
        let Some((l, r)) = self.tree.suffix_range(pattern) else {
            return Ok(QueryResult::default());
        };
        // The links whose origin is keyed inside the locus subtree.
        let keys = SuffixTree::subtree_keys(l, r);
        let lo = (self.links).partition_point(|l| (l.origin as usize) < *keys.start());
        let hi = (self.links).partition_point(|l| (l.origin as usize) <= *keys.end());
        if lo >= hi {
            return Ok(QueryResult::default());
        }
        // §7's lower sandwich edge: a bound, not the exact threshold rule.
        #[allow(clippy::float_arithmetic, reason = "§7's cut τ − ε, once per query")]
        let cutoff = tau - self.epsilon - ustr_uncertain::PROB_EPS;
        let mut hits: Vec<(usize, f64)> = Vec::new();
        // Pop links by ascending target depth; prune once the minimum
        // target depth in a range reaches m.
        let reporter = ThresholdReporter::new(
            lo,
            hi - 1,
            (m - 1) as f64,
            Direction::Min,
            |a, b| self.target_rmq.query(a, b),
            |i| self.links[i].target_depth as f64,
        );
        for (i, _) in reporter {
            let link = &self.links[i];
            if (link.origin_depth as usize) >= m && link.prob >= cutoff {
                hits.push((link.witness as usize, link.prob));
            }
        }
        // Witnesses become source positions in a pass of their own, where
        // the map's lookups overlap.
        let source = |(witness, prob)| {
            let pos = self.map.source_pos(witness);
            (pos.expect("a link's witness is a text character"), prob)
        };
        let hits = hits.into_iter().map(source);
        let hits: Vec<_> = match &self.plane {
            None => hits.collect(),
            // The cut above kept every true hit; the kernel drops the rest.
            Some(plane) => plane.with_kernel(pattern, |kernel| {
                let exact = |(pos, _)| (pos, canon::exp(kernel.log_match(pos)));
                hits.map(exact).filter(|&(_, p)| p >= cutoff).collect()
            }),
        };
        let (reported, result) = (hits.len(), QueryResult::from_hits(hits));
        debug_assert_eq!(result.len(), reported, "one stabbed sub-link per position");
        Ok(result)
    }
}

/// The longest text whose node keys fit a link's `u32` origin: the
/// largest, leaf `n`'s, is `2·n + 1`.
const MAX_KEYED_LEN: usize = (u32::MAX / 2) as usize;

/// Source positions from which [`find_links`] walks its sources as two
/// halves on two threads (below it, a spawn per small document costs more
/// than its links).
const SPLIT_SOURCES: usize = 4_096;

/// Finds the ε-refined links over `text`: for every source position of
/// `map`, the virtual tree of the leaves it marks, each edge split by
/// [`Split::edge`]. Sources are independent, so a long text walks them as
/// two halves on two threads; the sort below makes the table the same
/// either way.
fn find_links(text: &ScoredText, map: &FactorMap, epsilon: f64) -> Vec<Link> {
    let tree = &text.tree;
    // What finds the links and no query reads: the run lengths and the
    // leaf-LCA structure are dropped when this returns.
    let lca = LeafLca::build(tree);

    // Group marked leaves by Posid (slots ascend in preorder order)
    // with a counting sort into one flat arena — two passes, zero
    // per-position `Vec` allocations (the plane/kernel treatment of the
    // query path, applied to the build's hottest grouping loop).
    let marked = |slot: usize| map.source_pos(tree.sa(slot));
    let text_len = tree.text().len();
    let n_src = (0..text_len).filter_map(|x| map.source_pos(x)).max();
    let n_src = n_src.map_or(0, |p| p + 1);
    let mut bucket_start = vec![0u32; n_src + 2];
    for slot in 1..tree.num_slots() {
        if let Some(d) = marked(slot) {
            bucket_start[d + 2] += 1;
        }
    }
    for d in 2..bucket_start.len() {
        bucket_start[d] += bucket_start[d - 1];
    }
    let mut flat = vec![0u32; *bucket_start.last().unwrap() as usize];
    for slot in 1..tree.num_slots() {
        if let Some(d) = marked(slot) {
            flat[bucket_start[d + 1] as usize] = slot as u32;
            bucket_start[d + 1] += 1;
        }
    }

    let run = text.run_lengths();
    let (uncertain, rank) = text.values.without_certain();
    // A tree node as a link sees it: (key, string depth). A leaf's depth
    // counts the virtual terminator; an internal node's is the LCP at the
    // slot that names it.
    let leaf_node = |slot: usize| {
        let depth = text_len - tree.sa(slot) + 1;
        (SuffixTree::leaf_key(slot) as u32, depth)
    };
    let lca_node = |a: u32, b: u32| {
        let name = lca.lca_of_slots(a as usize, b as usize);
        (SuffixTree::internal_key(name) as u32, tree.slot_lcp(name))
    };
    let walk = |sources: Range<usize>| {
        let mut split = Split {
            uncertain: &uncertain,
            rank: &rank,
            run: &run,
            epsilon,
            witness: None,
            sums: Vec::new(),
            links: Vec::new(),
        };
        // Virtual-tree stack of `(node, witness)`: the witness is the text
        // position of the first marked leaf found below the node, fixed
        // when the node is pushed.
        let mut stack: Vec<((u32, usize), u32)> = Vec::new();
        for d in sources {
            let slots = &flat[bucket_start[d] as usize..bucket_start[d + 1] as usize];
            stack.clear();
            // Virtual (induced) tree over the marked leaves; split every
            // virtual edge.
            for (k, &slot) in slots.iter().enumerate() {
                let leaf = (leaf_node(slot as usize), tree.sa(slot as usize) as u32);
                if k == 0 {
                    stack.push(leaf);
                    continue;
                }
                // The previous leaf tops the stack.
                let l = lca_node(slots[k - 1], slot);
                let l_depth = l.1;
                // Unwind stack nodes deeper than the new LCA, emitting their
                // virtual-tree edges; the LCA ends up on top of the stack.
                while let Some(&top) = stack.last() {
                    if top.0 .1 <= l_depth {
                        break;
                    }
                    stack.pop();
                    match stack.last() {
                        Some(&((_, p_depth), _)) if p_depth >= l_depth => {
                            split.edge(top, p_depth);
                        }
                        _ => {
                            split.edge(top, l_depth);
                            stack.push((l, top.1));
                            break;
                        }
                    }
                }
                debug_assert_eq!(stack.last().map(|e| e.0), Some(l), "LCA tops the stack");
                stack.push(leaf);
            }
            // Drain: connect the remaining right spine, then the virtual
            // root to the tree root (target depth 0) unless it is the root.
            while let Some(top) = stack.pop() {
                match stack.last() {
                    Some(&((_, p_depth), _)) => split.edge(top, p_depth),
                    None if top.0 .1 > 0 => split.edge(top, 0),
                    None => {}
                }
            }
        }
        split.links
    };
    let mid = n_src / 2;
    let halves = codes::join(
        split::worth_splitting(n_src, SPLIT_SOURCES),
        || walk(0..mid),
        || walk(mid..n_src),
    );
    in_table_order(halves, SuffixTree::leaf_key(tree.num_slots()))
}

/// The links of both halves of the walk in table order: by origin (a
/// counting sort over the tree's node keys, all below `keys`), then by
/// witness, deepest origin first. The order is unique per link — one
/// virtual edge per origin and source position, one sub-link per origin
/// depth — so the table depends on the input alone, not on a sort's
/// tie-breaking or on where the walk was split.
fn in_table_order((first, later): (Vec<Link>, Vec<Link>), keys: usize) -> Vec<Link> {
    let all = || first.iter().chain(&later);
    let Some(&placeholder) = all().next() else {
        return Vec::new();
    };
    // `end[o]`: the start of origin `o`'s run, then — as the scatter
    // advances it — its end.
    let mut end = vec![0u32; keys + 1];
    for l in all() {
        end[l.origin as usize + 1] += 1;
    }
    for o in 1..=keys {
        end[o] += end[o - 1];
    }
    let mut links = vec![placeholder; end[keys] as usize];
    for &l in all() {
        let at = &mut end[l.origin as usize];
        links[*at as usize] = l;
        *at += 1;
    }
    let mut start = 0;
    for &end in &end[..keys] {
        let run = &mut links[start..end as usize];
        if run.len() > 1 {
            run.sort_unstable_by_key(|l| (l.witness, Reverse(l.origin_depth)));
        }
        start = end as usize;
    }
    links
}

/// One walk's link split: the links so far, and the window values of the
/// witness it split last, summed once over its run's uncertain characters
/// ([`ValueCodes::without_certain`]) and reused while consecutive edges
/// share the witness. A witness costs one addition per uncertain character
/// of its run and none per certain one, however long its run.
struct Split<'a> {
    /// The text's uncertain characters alone.
    uncertain: &'a ValueCodes,
    /// `rank[i]`: the uncertain characters before text position `i`.
    rank: &'a [u32],
    /// The run length at every text position ([`ScoredText::run_lengths`]).
    run: &'a [u32],
    epsilon: f64,
    witness: Option<u32>,
    /// `sums[k]`: the witness's window through its run's first `k`
    /// uncertain characters (`sums[0] = canon::LOG_ONE`), the value of
    /// every window at the witness that holds those and no more.
    sums: Vec<f64>,
    links: Vec<Link>,
}

impl Split<'_> {
    /// Splits the virtual edge from a node — `origin` is its (key, string
    /// depth `o₀`) — up to depth `t₀` into sub-links whose endpoint
    /// probabilities differ by ≤ ε. Probabilities are evaluated at the
    /// witness position `x`, capped at the factor boundary `lmax` (its run
    /// length).
    #[allow(clippy::float_arithmetic, reason = "a build-time link split at ε")]
    fn edge(&mut self, ((origin, o0), x): ((u32, usize), u32), t0: usize) {
        debug_assert!(o0 > t0, "virtual child must be deeper than its parent");
        let lmax = self.run[x as usize] as usize;
        // The window of `d ≤ lmax` characters holds `rank[d] − rank[0]` uncertain ones.
        let rank = &self.rank[x as usize..=x as usize + lmax];
        if self.witness != Some(x) {
            self.sums.clear();
            self.sums
                .resize((rank[lmax] - rank[0]) as usize + 1, canon::LOG_ONE);
            self.uncertain
                .running(rank[0] as usize, &mut self.sums[1..]);
            self.witness = Some(x);
        }
        let p = |d: usize| self.sums[(rank[d.min(lmax)] - rank[0]) as usize];
        let mut o = o0;
        while o > t0 {
            let p_o = canon::exp(p(o));
            // Smallest t ∈ [t0, o-1] with P(t) − P(o) ≤ ε (P non-increasing
            // in depth, so the predicate is monotone in t). If even one step
            // up exceeds ε the link degenerates to a single character. At
            // depths ≥ `lmax` P is the constant P(lmax) = P(o) (`o` is
            // deeper still), so the search ends there, and probes nothing
            // where `t0` is past the run already. P changes only where the
            // window takes in an uncertain character: when the first `k`
            // sums are those more than ε above P(o), the answer is the
            // first depth whose window holds `k` uncertain characters.
            let end = (o - 1).min(lmax);
            let t = match rank.get(t0..end) {
                Some(depths) if !depths.is_empty() => {
                    let k = self
                        .sums
                        .partition_point(|&v| canon::exp(v) - p_o > self.epsilon);
                    t0 + depths.partition_point(|&r| ((r - rank[0]) as usize) < k)
                }
                _ => t0,
            };
            self.links.push(Link {
                origin,
                origin_depth: o as u32,
                target_depth: t as u32,
                witness: x,
                prob: p_o,
            });
            o = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_baseline::NaiveScanner;

    fn sandwich_holds(s: &UncertainString, idx: &ApproxIndex, pattern: &[u8], tau: f64) {
        let eps = idx.epsilon();
        let reported = idx.query(pattern, tau).unwrap().positions();
        let must_have = NaiveScanner::find(s, pattern, tau);
        let may_have = NaiveScanner::find(s, pattern, (tau - eps).max(1e-12));
        for p in &must_have {
            assert!(
                reported.contains(p),
                "missing exact hit {p} for {:?} tau {tau}",
                String::from_utf8_lossy(pattern)
            );
        }
        for p in &reported {
            assert!(
                may_have.contains(p),
                "spurious hit {p} below tau-eps for {:?} tau {tau}",
                String::from_utf8_lossy(pattern)
            );
        }
    }

    #[test]
    fn sandwich_on_figure_10() {
        let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
        let idx = ApproxIndex::build(&s, 0.05, 0.05).unwrap();
        for pattern in [&b"QP"[..], b"P", b"QPP", b"PA", b"PPA", b"SP", b"Q"] {
            for tau in [0.05, 0.1, 0.2, 0.4, 0.6, 0.9] {
                sandwich_holds(&s, &idx, pattern, tau);
            }
        }
    }

    #[test]
    fn sandwich_on_protein_fragment() {
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        let idx = ApproxIndex::build(&s, 0.02, 0.03).unwrap();
        for pattern in [&b"AT"[..], b"PQ", b"SFPQ", b"PA", b"TPA", b"FPQP"] {
            for tau in [0.05, 0.12, 0.3, 0.5] {
                sandwich_holds(&s, &idx, pattern, tau);
            }
        }
    }

    #[test]
    fn deterministic_text_is_exact() {
        let s = UncertainString::deterministic(b"abracadabra");
        let idx = ApproxIndex::build(&s, 0.5, 0.1).unwrap();
        let hits = idx.query(b"abra", 0.9).unwrap();
        assert_eq!(hits.positions(), vec![0, 7]);
        for &(_, p) in hits.hits() {
            assert!((p - 1.0).abs() < 1e-9);
        }
        assert!(idx.query(b"zzz", 0.9).unwrap().is_empty());
    }

    #[test]
    fn smaller_epsilon_means_more_links() {
        let s = UncertainString::parse(
            "a:.9,b:.1 | a:.9,b:.1 | a:.9,b:.1 | a:.9,b:.1 | a:.9,b:.1 | a:.9,b:.1",
        )
        .unwrap();
        let coarse = ApproxIndex::build(&s, 0.05, 0.5).unwrap();
        let fine = ApproxIndex::build(&s, 0.05, 0.01).unwrap();
        assert!(
            fine.num_links() > coarse.num_links(),
            "fine {} vs coarse {}",
            fine.num_links(),
            coarse.num_links()
        );
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let s = UncertainString::deterministic(b"ab");
        assert!(matches!(
            ApproxIndex::build(&s, 0.5, 0.0),
            Err(Error::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            ApproxIndex::build(&s, 0.5, 1.0),
            Err(Error::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn reported_probability_within_epsilon() {
        let s = UncertainString::parse("a:.8,b:.2 | a:.8,b:.2 | a:.8,b:.2").unwrap();
        let idx = ApproxIndex::build(&s, 0.05, 0.1).unwrap();
        for (pos, approx_p) in idx.query(b"aa", 0.3).unwrap() {
            let true_p = s.match_probability(b"aa", pos);
            assert!(
                approx_p <= true_p + 1e-9,
                "approximation never exceeds truth"
            );
            assert!(true_p - approx_p <= 0.1 + 1e-9, "within epsilon");
        }
    }

    /// A link's probability is the canonical value of its origin window, at
    /// least as long as the pattern, so no hit reports more than the
    /// scanner's probability of its occurrence, to the bit. Over the pinned
    /// 10 000-position string at ε 0.05 (as `the_link_table_is_pinned`),
    /// the most probable reading at every 37th start, at seven pattern
    /// lengths and τ 0.1; prints how many hits report that probability
    /// exactly.
    #[test]
    fn no_hit_reports_more_than_the_exact_probability() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(10_000, 0.3, 43));
        let (tau, epsilon) = (0.1, 0.05);
        let idx = ApproxIndex::build(&s, 0.1, epsilon).unwrap();
        let reading: Vec<u8> = (0..s.len())
            .map(|q| s.position(q).most_probable().0)
            .collect();
        let (mut hits, mut equal) = (0, 0);
        for m in [1, 2, 3, 5, 8, 12, 20] {
            for start in (0..=s.len() - m).step_by(37) {
                let pattern = &reading[start..start + m];
                // Every hit's occurrence meets τ − ε, up to the cut's slack.
                let exact = NaiveScanner::find_with_probs(&s, pattern, (tau - epsilon) * 0.9);
                let exact: std::collections::HashMap<usize, f64> = exact.into_iter().collect();
                for (pos, p) in idx.query(pattern, tau).unwrap() {
                    let truth = exact[&pos];
                    assert!(
                        p.to_bits() <= truth.to_bits(),
                        "{p} above {truth} at {pos} for {pattern:?}"
                    );
                    hits += 1;
                    equal += usize::from(p.to_bits() == truth.to_bits());
                }
            }
        }
        println!("{equal} of {hits} hits report the exact probability");
    }

    /// FNV-1a, 64 bits.
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        (bytes.iter()).fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The link table at ε = 0.05 over the generated 10 000-position
    /// protein string (seed 43) at τmin 0.1: `(links, hash over each link's
    /// origin key, origin depth, target depth and witness)`. The walk runs
    /// as two halves on two threads above its size floor; CI runs this a
    /// second time pinned to one core, where it runs serially, against the
    /// same numbers. The hash moved once, when origins went from preorder
    /// ranks to the tree's node keys: the same links, keyed and ordered
    /// anew. Both numbers moved once, when the split went from prefix
    /// differences of `C` to the value codes' canonical left-to-right sums,
    /// whose last bits put some probes on the other side of ε: 28 fewer
    /// links here, 48 on `paper-string`'s string (1 944 732 → 1 944 684).
    #[test]
    fn the_link_table_is_pinned() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(10_000, 0.3, 43));
        let idx = ApproxIndex::build(&s, 0.1, 0.05).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325;
        for l in &idx.links {
            for v in [l.origin, l.origin_depth, l.target_depth, l.witness] {
                h = fnv(h, &v.to_le_bytes());
            }
        }
        assert_eq!((idx.num_links(), h), (196_582, 5150909041425707026));
    }

    /// The split adds a value per uncertain character of a witness's run,
    /// none per certain one: over a 10⁵-character certain string, whose
    /// transform is one factor — each witness's run reaches the end of the
    /// text, and summing it whole would cost about n²/2 additions — it adds
    /// none; over a near-certain one, one position in 1 000 held at 0.5, a
    /// factor holds at most three such positions (0.5³ ≥ τmin 0.1), and the
    /// split adds at most three values an edge. `codes::summed` counts both
    /// halves of the walk.
    #[test]
    fn the_split_adds_no_value_for_a_certain_character() {
        use crate::codes::summed;
        const N: usize = 100_000;
        let mut state = 43u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize
        };
        let chars: Vec<u8> = (0..N).map(|_| b"acgt"[next() % 4]).collect();
        let certain = UncertainString::deterministic(&chars);
        let rows = (chars.iter().enumerate())
            .map(|(i, &c)| vec![(c, if i % 1_000 == 999 { 0.5 } else { 1.0 })])
            .collect();
        let near_certain = UncertainString::from_rows(rows).unwrap();
        for (s, per_edge) in [(certain, 0), (near_certain, 3)] {
            let before = summed();
            let idx = ApproxIndex::build(&s, 0.1, 0.05).unwrap();
            let work = summed() - before;
            // Each source position's virtual tree has fewer edges than
            // twice its marked leaves, one per text character.
            let edges = 2 * idx.stats().transformed_len as u64;
            assert!(
                work <= per_edge * edges,
                "{work} additions over {edges} edges"
            );
            println!("{work} additions, {} links, {edges} edges", idx.num_links());
        }
    }

    /// The longest text the links take keys its last leaf `u32::MAX`.
    #[test]
    fn the_last_key_of_the_longest_keyed_text_fits_u32() {
        assert_eq!(SuffixTree::leaf_key(MAX_KEYED_LEN), u32::MAX as usize);
    }

    #[test]
    fn positions_unique_per_query() {
        let s = UncertainString::parse("a:.9,b:.1 | a | a:.9,b:.1 | a | a:.9,b:.1").unwrap();
        let idx = ApproxIndex::build(&s, 0.05, 0.05).unwrap();
        let hits = idx.query(b"aa", 0.1).unwrap();
        let mut positions = hits.positions();
        positions.dedup();
        assert_eq!(positions.len(), hits.len(), "one link per position");
    }
}
