//! Approximate substring search (§7): ε-refined links in the suffix tree,
//! after the top-k framework of Hon, Shah, Vitter (FOCS 2009).
//!
//! Every leaf of the suffix tree over the transformed text is marked with
//! its original position `Posid`; internal nodes are marked at LCAs of
//! equally-marked leaves. Each marked node links to its lowest marked
//! proper ancestor, and each link is split into sub-links whose endpoint
//! probabilities differ by at most ε (probabilities are evaluated on the
//! *real* prefix of the witness suffix — the separator-capped window — so
//! chains that run past a factor boundary stay finite).
//!
//! **Query.** For a pattern of length `m` with locus `ip`, the stabbed
//! sub-link for position `d` is the unique one with
//! `target_depth < m ≤ origin_depth` and origin preorder inside `ip`'s
//! subtree. Using `m` (rather than `depth(ip)`, which can overshoot the
//! pattern into a longer shared prefix) makes the additive guarantee exact:
//! the true occurrence probability is sandwiched between the sub-link's
//! endpoint probabilities, which differ by ≤ ε. Hence
//! `exact(τ) ⊆ reported ⊆ exact(τ − ε)` — the paper's additive-error
//! semantics.
//!
//! Retrieval walks a min-RMQ recursion over link target depths, reporting
//! each link in O(1); links whose chains cross the locus but fail the
//! probability cutoff cost extra visits (bounded by the τmin-occurrences),
//! which is the documented deviation from the fixed-τ HSV machinery.
//!
//! **One text.** The links hang off the suffix tree, `C` and position map
//! of the §5 [`Index`] over the same source: [`ApproxIndex::over`] shares
//! them, so a document has one transform and one tree. A link stores a
//! *witness* — the text position of a leaf below its origin — instead of
//! its source position (the position map's at the witness) and probability
//! (the window of `C` at the witness), so a snapshot of the links
//! ([`ApproxIndex::to_links_snapshot`]) is four integers a link, and a load
//! reads each probability back from `C` with the build's own `canon::exp`.

use std::cmp::Reverse;
use std::ops::Range;
use std::time::Instant;

use ustr_rmq::{BlockRmq, Direction, Rmq, ThresholdReporter};
use ustr_suffix::{Ancestry, LeafLca};
use ustr_uncertain::{canon, split, transform, UncertainString};

use crate::{
    carray::CumulativeLogProb,
    error::{validate_query, Error},
    factors::FactorMap,
    index::Index,
    result::QueryResult,
    snapshot::{invalid, ApproxLinkState, ApproxLinksState},
    stats::BuildStats,
    substrate::ScoredText,
};

/// One ε-refined link as a query reads it: its snapshot row, with the
/// probability read at its witness beside it (24 bytes).
#[derive(Debug, Clone, Copy)]
struct Link {
    row: ApproxLinkState,
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
    /// The scored text the links hang off: an [`Index`]'s, its arrays
    /// shared, when built [`over`](ApproxIndex::over) one. Its tree gives
    /// pattern loci; its `C` gave each link its probability. Counted by the
    /// `Index`.
    text: ScoredText,
    /// The position map over `text`: a link's witness → its source position.
    map: FactorMap,
    /// Preorder ranks over `text`'s tree, the numbering a link's
    /// `origin_pre` is in — derived state, one depth-first pass at
    /// construction and at load.
    ranks: Ancestry,
    /// Sorted by `origin_pre`.
    links: Vec<Link>,
    /// Min-RMQ over `links[..].target_depth`.
    target_rmq: BlockRmq,
    epsilon: f64,
    tau_min: f64,
    stats: BuildStats,
}

impl ApproxIndex {
    /// Builds a stand-alone index for threshold floor `tau_min` and
    /// additive error `epsilon ∈ (0, 1)`: the transform and tree an
    /// [`Index`] over `source` would build, and the links over them.
    pub fn build(source: &UncertainString, tau_min: f64, epsilon: f64) -> Result<Self, Error> {
        check_epsilon(epsilon)?;
        let start = Instant::now();
        let transformed = transform(source, tau_min)?;
        let chars = transformed.special.chars();
        let text = ScoredText::build(chars, transformed.special.probs())?;
        let map =
            FactorMap::new(chars, &transformed.pos).expect("the transform emits a factor map");
        let stats = BuildStats {
            source_len: source.len(),
            transformed_len: transformed.len(),
            num_factors: transformed.num_factors,
            ..Default::default()
        };
        Ok(Self::link(text, map, tau_min, epsilon, stats, start))
    }

    /// Builds the links over `index`'s own text, tree and position map,
    /// which both then share: the document's one transform and one suffix
    /// tree serve the exact and the approximate queries.
    pub fn over(index: &Index, epsilon: f64) -> Result<Self, Error> {
        check_epsilon(epsilon)?;
        let start = Instant::now();
        let (text, map) = index.shared_text();
        let stats = BuildStats {
            heap_bytes: 0,
            build_time: Default::default(),
            ..index.stats().clone()
        };
        let (text, map) = (text.clone(), map.clone());
        Ok(Self::link(
            text,
            map,
            index.tau_min(),
            epsilon,
            stats,
            start,
        ))
    }

    /// Finds the links over `text` and assembles the index; the clock
    /// started at `start`.
    fn link(
        text: ScoredText,
        map: FactorMap,
        tau_min: f64,
        epsilon: f64,
        stats: BuildStats,
        start: Instant,
    ) -> Self {
        let (ranks, links) = find_links(&text, &map, epsilon);
        let mut idx = Self::assemble(text, map, ranks, links, epsilon, tau_min, stats);
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        idx
    }

    fn assemble(
        text: ScoredText,
        map: FactorMap,
        ranks: Ancestry,
        links: Vec<Link>,
        epsilon: f64,
        tau_min: f64,
        stats: BuildStats,
    ) -> Self {
        let depths: Vec<f64> = links.iter().map(|l| l.row.target_depth as f64).collect();
        let target_rmq = BlockRmq::new(&depths, Direction::Min);
        let mut idx = Self {
            text,
            map,
            ranks,
            links,
            target_rmq,
            epsilon,
            tau_min,
            stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        idx
    }

    /// Heap bytes held, per structure: a `(name, bytes)` row for everything
    /// the links add to the text they hang off. The text, its tree and the
    /// position map are the [`Index`]'s rows, counted there once.
    pub fn heap_breakdown(&self) -> [(&'static str, usize); 3] {
        [
            ("preorder ranks", self.ranks.heap_size()),
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

    /// The links alone: what an index built [`over`](ApproxIndex::over) an
    /// [`Index`] adds to that index's state.
    pub fn to_links_snapshot(&self) -> ApproxLinksState {
        ApproxLinksState {
            links: self.links.iter().map(|l| l.row).collect(),
            epsilon: self.epsilon,
            build_time: self.stats.build_time,
        }
    }

    /// Reassembles the links of `state` over `index`, which must be the
    /// index they were built over (or one loaded from its snapshot): the
    /// counterpart of [`ApproxIndex::to_links_snapshot`]. Only cheap derived
    /// structures are rebuilt — the preorder ranks in one depth-first pass,
    /// each link's probability from `C` (on the loading machine, with
    /// `canon::exp`: the build's one call per link), the min-RMQ over link
    /// target depths — so the result holds what the index the state was
    /// taken from held and answers every query byte-identically. Every link
    /// is checked against `index`'s tree, so links paired with another text
    /// fail with [`Error::InvalidSnapshot`], as does any other structurally
    /// inconsistent state.
    pub fn from_links_snapshot(index: &Index, state: ApproxLinksState) -> Result<Self, Error> {
        if !canon::valid_epsilon(state.epsilon) {
            return Err(invalid("epsilon outside (0, 1)"));
        }
        let (text, map) = index.shared_text();
        let ranks = Ancestry::build(&text.tree);
        check_links(text, map, &state.links)?;
        let run = text.run_lengths();
        let links = (state.links.into_iter())
            .map(|row| {
                let lmax = run[row.witness as usize] as usize;
                let prob = link_prob(&text.cum, (row.witness, lmax), row.origin_depth as usize);
                Link { row, prob }
            })
            .collect();
        let stats = BuildStats {
            heap_bytes: 0,
            build_time: state.build_time,
            ..index.stats().clone()
        };
        let (text, map) = (text.clone(), map.clone());
        let (epsilon, tau_min) = (state.epsilon, index.tau_min());
        Ok(Self::assemble(
            text, map, ranks, links, epsilon, tau_min, stats,
        ))
    }

    /// Positions where `pattern` matches with probability ≥ τ, up to the
    /// additive error: the result contains every position with true
    /// probability ≥ τ and no position below τ − ε. Reported probabilities
    /// are the link approximations (within ε below the true value).
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        let m = pattern.len();
        let tree = &self.text.tree;
        let Some((l, r)) = tree.suffix_range(pattern) else {
            return Ok(QueryResult::default());
        };
        let (pl, pr) = self.ranks.preorder_range(tree, l, r);
        // Link range whose origin preorder falls inside the locus subtree.
        let lo = (self.links).partition_point(|l| (l.row.origin_pre as usize) < pl);
        let hi = (self.links).partition_point(|l| (l.row.origin_pre as usize) <= pr);
        if lo >= hi {
            return Ok(QueryResult::default());
        }
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
            |i| self.links[i].row.target_depth as f64,
        );
        for (i, _) in reporter {
            let Link { row, prob } = self.links[i];
            if (row.origin_depth as usize) >= m && prob >= cutoff {
                hits.push((row.witness as usize, prob));
            }
        }
        // Witnesses become source positions in a pass of their own, where
        // the map's lookups overlap.
        let source = |(witness, prob)| {
            let pos = self.map.source_pos(witness);
            (pos.expect("a link's witness is a text character"), prob)
        };
        let hits = hits.into_iter().map(source).collect();
        Ok(QueryResult::from_hits(hits))
    }
}

fn check_epsilon(epsilon: f64) -> Result<(), Error> {
    if canon::valid_epsilon(epsilon) {
        Ok(())
    } else {
        Err(Error::InvalidEpsilon { value: epsilon })
    }
}

/// Refuses link rows that the tree of `text` does not carry: out of order,
/// a target not above its origin, or — in one depth-first pass beside the
/// rows, which are sorted by origin — an origin that is no node, a witness
/// out of the text or on a separator, a witness leaf outside the origin
/// node's subtree, or an origin deeper than that node.
fn check_links(text: &ScoredText, map: &FactorMap, rows: &[ApproxLinkState]) -> Result<(), Error> {
    let mut prev_pre = 0u32;
    for row in rows {
        if row.origin_pre < prev_pre {
            return Err(invalid("links are not sorted by origin preorder"));
        }
        prev_pre = row.origin_pre;
        if row.target_depth >= row.origin_depth {
            return Err(invalid("link target depth not below its origin"));
        }
    }
    let tree = &text.tree;
    let chars = tree.text();
    // Text position → the slot of its leaf (transient).
    let mut slot_of = vec![0u32; chars.len()];
    for slot in 1..tree.num_slots() {
        slot_of[tree.sa(slot)] = slot as u32;
    }
    let mut rows = rows.iter().peekable();
    let mut refused = None;
    Ancestry::preorder(tree, |rank, (l, r)| {
        let depth = if l == r {
            chars.len() - tree.sa(l) + 1
        } else {
            tree.slot_lcp(tree.first_l_index(l, r))
        };
        while let Some(row) = rows.next_if(|row| row.origin_pre as usize == rank) {
            let w = row.witness as usize;
            let detail = if map.source_pos(w).is_none() {
                "link witness outside the text or on a separator"
            } else if !(l..=r).contains(&(slot_of[w] as usize)) {
                "link witness outside its origin's subtree"
            } else if row.origin_depth as usize > depth {
                "link origin deeper than its node"
            } else {
                continue;
            };
            refused.get_or_insert(detail);
        }
    });
    if rows.next().is_some() {
        refused.get_or_insert("link origin preorder outside the tree");
    }
    refused.map_or(Ok(()), |detail| Err(invalid(detail)))
}

/// Slots from which [`find_links`] builds the preorder ranks and the
/// leaf-LCA structure on two threads.
const SPLIT_SLOTS: usize = 16_384;

/// Source positions from which [`find_links`] walks its sources as two
/// halves on two threads (below it, a spawn per small document costs more
/// than its links).
const SPLIT_SOURCES: usize = 4_096;

/// Finds the ε-refined links over `text` (preorder ranks over its tree
/// with them): for every source position of `map`, the virtual tree of the
/// leaves it marks, each edge split by [`refine_link`]. Sources are
/// independent, so a long text walks them as two halves on two threads;
/// the sort below makes the table the same either way.
fn find_links(text: &ScoredText, map: &FactorMap, epsilon: f64) -> (Ancestry, Vec<Link>) {
    // What finds the links and no query reads: the run lengths and the
    // leaf-LCA structure are dropped when this returns. The ranks are
    // kept, so this thread allocates them.
    let tree = &text.tree;
    let (ranks, lca) = split::join(
        split::worth_splitting(tree.num_slots(), SPLIT_SLOTS),
        || Ancestry::build(tree),
        || LeafLca::build(tree),
    );

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
    // A tree node as a link sees it: (preorder rank, string depth). A
    // leaf's depth counts the virtual terminator; an internal node's is
    // the LCP at the slot that names it.
    let leaf_node = |slot: usize| {
        let depth = text_len - tree.sa(slot) + 1;
        (ranks.leaf_preorder(slot) as u32, depth)
    };
    let lca_node = |a: u32, b: u32| {
        let name = lca.lca_of_slots(a as usize, b as usize);
        (ranks.interval_preorder(name) as u32, tree.slot_lcp(name))
    };
    let walk = |sources: Range<usize>| {
        let mut links: Vec<Link> = Vec::new();
        // Virtual-tree stack of `(node, witness)`: the witness is the text
        // position of the first marked leaf found below the node, fixed
        // when the node is pushed.
        let mut stack: Vec<((u32, usize), u32)> = Vec::new();
        for d in sources {
            let slots = &flat[bucket_start[d] as usize..bucket_start[d + 1] as usize];
            stack.clear();
            // Virtual (induced) tree over the marked leaves; emit one link
            // per virtual edge.
            let emit = |(origin, witness): ((u32, usize), u32), v_depth, links: &mut Vec<Link>| {
                let lmax = run[witness as usize] as usize;
                refine_link(&text.cum, origin, v_depth, (witness, lmax), epsilon, links);
            };
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
                            emit(top, p_depth, &mut links);
                        }
                        _ => {
                            emit(top, l_depth, &mut links);
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
                    Some(&((_, p_depth), _)) => emit(top, p_depth, &mut links),
                    None if top.0 .1 > 0 => emit(top, 0, &mut links),
                    None => {}
                }
            }
        }
        links
    };
    let mid = n_src / 2;
    let halves = split::join(
        split::worth_splitting(n_src, SPLIT_SOURCES),
        || walk(0..mid),
        || walk(mid..n_src),
    );
    let links = in_table_order(halves, ranks.node_count());
    (ranks, links)
}

/// The links of both halves of the walk in table order: by origin preorder
/// (a counting sort over the tree's `nodes`), then by witness, deepest
/// origin first. The key is unique per link — one virtual edge per origin
/// and source position, one sub-link per origin depth — so the table
/// depends on the input alone, not on a sort's tie-breaking or on where
/// the walk was split.
fn in_table_order((first, later): (Vec<Link>, Vec<Link>), nodes: usize) -> Vec<Link> {
    let all = || first.iter().chain(&later);
    let Some(&placeholder) = all().next() else {
        return Vec::new();
    };
    // `end[o]`: the start of origin `o`'s run, then — as the scatter
    // advances it — its end.
    let mut end = vec![0u32; nodes + 1];
    for l in all() {
        end[l.row.origin_pre as usize + 1] += 1;
    }
    for o in 1..=nodes {
        end[o] += end[o - 1];
    }
    let mut links = vec![placeholder; end[nodes] as usize];
    for &l in all() {
        let at = &mut end[l.row.origin_pre as usize];
        links[*at as usize] = l;
        *at += 1;
    }
    let mut start = 0;
    for &end in &end[..nodes] {
        let run = &mut links[start..end as usize];
        if run.len() > 1 {
            run.sort_unstable_by_key(|l| (l.row.witness, Reverse(l.row.origin_depth)));
        }
        start = end as usize;
    }
    links
}

/// The probability a link reports: that of the length-`depth` prefix of
/// the suffix at witness `x`, capped at the factor boundary `lmax` (its run
/// length).
fn link_prob(cum: &CumulativeLogProb, (x, lmax): (u32, usize), depth: usize) -> f64 {
    canon::exp(cum.window(x as usize, depth.min(lmax)))
}

/// Splits the virtual edge from a node — `origin` is its (preorder rank,
/// string depth `o₀`) — up to depth `t₀` into sub-links whose endpoint
/// probabilities differ by ≤ ε. Probabilities are evaluated at the witness
/// position `x`, capped at the factor boundary `lmax` (its run length).
#[allow(clippy::float_arithmetic, reason = "a build-time link split at ε")]
fn refine_link(
    cum: &CumulativeLogProb,
    (origin_pre, o0): (u32, usize),
    t0: usize,
    (x, lmax): (u32, usize),
    epsilon: f64,
    links: &mut Vec<Link>,
) {
    debug_assert!(o0 > t0, "virtual child must be deeper than its parent");
    let p_at = |depth: usize| link_prob(cum, (x, lmax), depth);
    let mut o = o0;
    while o > t0 {
        let p_o = p_at(o);
        // Smallest t ∈ [t0, o-1] with P(t) − P(o) ≤ ε (P non-increasing in
        // depth, so the predicate is monotone in t). If even one step up
        // exceeds ε the link degenerates to a single character. At depths
        // ≥ `lmax` P is the constant P(lmax) = P(o) (`o` is deeper still),
        // so the predicate holds there without a probe.
        let t = first_holding(t0, o - 1, lmax, |mid| p_at(mid) - p_o <= epsilon);
        let row = ApproxLinkState {
            origin_pre,
            origin_depth: o as u32,
            target_depth: t as u32,
            witness: x,
        };
        links.push(Link { row, prob: p_o });
        o = t;
    }
}

/// The binary search for the smallest `t ∈ [lo, hi]` at which `holds`,
/// where every midpoint at or past `lmax` holds without a probe: the
/// probes and the answer of the plain search, with its runs of unprobed
/// halvings taken in O(1). Such a halving keeps `lo` and halves the range,
/// so `k` of them leave ⌊w / 2ᵏ⌋ of a range of `w`; the k-th is taken while
/// ⌊w / 2ᵏ⌋ ≥ `lmax − lo`, which makes `k` the `ilog2` of `w / (lmax − lo)`.
/// Unlike a clamp of `hi` to `lmax`, this needs nothing of `holds`: no
/// monotonicity, so no assumption that `exp` is monotone.
fn first_holding(
    mut lo: usize,
    mut hi: usize,
    lmax: usize,
    mut holds: impl FnMut(usize) -> bool,
) -> usize {
    while lo < hi {
        let w = hi - lo;
        match lmax.checked_sub(lo) {
            // Every midpoint from here on is at or past `lmax`.
            None | Some(0) => return lo,
            Some(gap) if w >= gap => hi = lo + (w >> (w / gap).ilog2()),
            Some(_) => {}
        }
        // Below `lmax` now: ⌊w / 2ᵏ⁺¹⌋ < lmax − lo.
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
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

    fn protein_fragment() -> UncertainString {
        UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap()
    }

    const PATTERNS: [&[u8]; 7] = [b"AT", b"PQ", b"SFPQ", b"PA", b"TPA", b"FPQP", b"Z"];

    fn same_answers(a: &ApproxIndex, b: &ApproxIndex) {
        for pattern in PATTERNS {
            for tau in [0.05, 0.12, 0.3, 0.5] {
                assert_eq!(
                    a.query(pattern, tau).unwrap().hits(),
                    b.query(pattern, tau).unwrap().hits(),
                    "pattern {pattern:?} tau {tau}"
                );
            }
        }
    }

    /// Links built over an `Index` are the stand-alone build's links, over
    /// the index's own tree, and survive their links-only snapshot.
    #[test]
    fn links_over_an_index_are_the_stand_alone_links() {
        let s = protein_fragment();
        let alone = ApproxIndex::build(&s, 0.02, 0.03).unwrap();
        let index = Index::build(&s, 0.02).unwrap();
        let over = ApproxIndex::over(&index, 0.03).unwrap();
        let shared = |text: &ScoredText| text.tree.sa_slots().as_ptr();
        assert_eq!(shared(&over.text), shared(index.shared_text().0));
        assert_eq!(
            over.to_links_snapshot().links,
            alone.to_links_snapshot().links
        );
        assert_eq!(over.heap_breakdown(), alone.heap_breakdown());
        same_answers(&alone, &over);
        let loaded = ApproxIndex::from_links_snapshot(&index, over.to_links_snapshot()).unwrap();
        same_answers(&over, &loaded);
    }

    /// A link is loaded only if the tree it hangs off carries it: its
    /// witness is a suffix of the text below its origin node, no deeper
    /// than that node, and its target above its origin; and only with an ε
    /// in (0, 1). One row per way a checksummed state can break that, and
    /// links paired with another document's index.
    #[test]
    fn loaded_links_are_checked_against_the_tree() {
        let index = Index::build(&protein_fragment(), 0.02).unwrap();
        let approx = ApproxIndex::over(&index, 0.03).unwrap();
        let load = |index: &Index, state| match ApproxIndex::from_links_snapshot(index, state) {
            Err(Error::InvalidSnapshot { detail }) => detail,
            Err(other) => panic!("wrong error kind: {other:?}"),
            Ok(_) => panic!("inconsistent links were accepted"),
        };
        let state = approx.to_links_snapshot();
        let rows = &state.links;
        let tree = &approx.text.tree;
        let chars = tree.text();
        let separator = chars.iter().position(|&c| c == 0).unwrap() as u32;
        // A link from a leaf, whose subtree is its witness alone, and
        // another suffix for it.
        let leaf_rank = |w: u32| {
            let slot = (0..tree.num_slots()).find(|&j| tree.sa(j) == w as usize);
            approx.ranks.leaf_preorder(slot.unwrap()) as u32
        };
        let from_leaf = rows
            .iter()
            .position(|l| leaf_rank(l.witness) == l.origin_pre);
        let from_leaf = from_leaf.unwrap();
        let elsewhere = (0..chars.len() as u32)
            .find(|&w| chars[w as usize] != 0 && w != rows[from_leaf].witness)
            .unwrap();

        type Tamper<'a> = Box<dyn Fn(&mut ApproxLinksState) + 'a>;
        let tampers: [(&str, Tamper<'_>); 7] = [
            ("epsilon outside (0, 1)", Box::new(|s| s.epsilon = 0.0)),
            (
                "target depth not below its origin",
                Box::new(|s| s.links[0].target_depth = s.links[0].origin_depth),
            ),
            (
                "preorder outside the tree",
                Box::new(|s| s.links.last_mut().unwrap().origin_pre = u32::MAX),
            ),
            (
                "outside the text or on a separator",
                Box::new(|s| s.links[0].witness = chars.len() as u32),
            ),
            (
                "outside the text or on a separator",
                Box::new(move |s| s.links[0].witness = separator),
            ),
            (
                "outside its origin's subtree",
                Box::new(move |s| s.links[from_leaf].witness = elsewhere),
            ),
            (
                "origin deeper than its node",
                Box::new(|s| s.links.iter_mut().for_each(|l| l.origin_depth += 3)),
            ),
        ];
        for (expected, tamper) in tampers {
            let mut tampered = state.clone();
            tamper(&mut tampered);
            let detail = load(&index, tampered);
            assert!(detail.contains(expected), "{expected:?}: got {detail:?}");
        }
        // The links of one document over the index of another.
        let other = UncertainString::parse("A | T | S:.5,T:.5 | P | A:.4,F:.4,P:.2").unwrap();
        let other = Index::build(&other, 0.02).unwrap();
        load(&other, state.clone());
    }

    /// The search as it was written before its unprobed halvings were
    /// skipped: one halving per step.
    fn first_holding_plain(
        mut lo: usize,
        mut hi: usize,
        lmax: usize,
        mut holds: impl FnMut(usize) -> bool,
    ) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid >= lmax || holds(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// For random `(t0, o, lmax)` — leaf depths run to the text length,
    /// run lengths to a factor's — and predicates below `lmax` that are
    /// monotone or not, the skipping search probes the midpoints the plain
    /// one probes, in the same order, and returns the same `t`.
    #[test]
    fn skipped_halvings_probe_and_answer_as_the_plain_search() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..20_000 {
            let t0 = (next() % 64) as usize;
            let o = t0 + 1 + (next() % [4, 100, 1_000_000][case % 3]) as usize;
            let lmax = (next() % 80) as usize;
            let salt = next();
            // Monotone (a threshold), or a hash of the depth.
            let cut = t0 + (salt % 70) as usize;
            let holds = |mid: usize| {
                if case % 2 == 0 {
                    mid >= cut
                } else {
                    (mid as u64).wrapping_mul(salt) >> 63 == 1
                }
            };
            let (mut plain, mut skipping) = (Vec::new(), Vec::new());
            let want = first_holding_plain(t0, o - 1, lmax, |mid| {
                plain.push(mid);
                holds(mid)
            });
            let got = first_holding(t0, o - 1, lmax, |mid| {
                skipping.push(mid);
                holds(mid)
            });
            assert_eq!(
                (got, &skipping),
                (want, &plain),
                "t0 {t0} o {o} lmax {lmax}"
            );
        }
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
