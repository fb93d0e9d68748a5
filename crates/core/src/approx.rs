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

use std::time::Instant;

use ustr_rmq::{BlockRmq, Direction, Rmq, ThresholdReporter};
use ustr_suffix::{Ancestry, LeafLca, SuffixTree};
use ustr_uncertain::{canon, transform, UncertainString};

use crate::{
    carray::CumulativeLogProb,
    error::{validate_query, Error},
    result::QueryResult,
    // A link's in-memory form *is* its snapshot row.
    snapshot::{invalid, ApproxIndexState, ApproxLinkState as Link},
    stats::BuildStats,
    substrate::{checked_tree, ScoredText},
};

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
    /// Pattern loci over the transformed text. Nothing else of the §4
    /// machinery outlives `build`: the links replace the levels, and carry
    /// the probabilities and source positions a query reports.
    tree: SuffixTree,
    /// Preorder ranks over `tree`, the numbering `Link::origin_pre` is in —
    /// derived state, one depth-first pass at construction and at load.
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
    /// Builds the index for threshold floor `tau_min` and additive error
    /// `epsilon ∈ (0, 1)`.
    pub fn build(source: &UncertainString, tau_min: f64, epsilon: f64) -> Result<Self, Error> {
        if !canon::valid_epsilon(epsilon) {
            return Err(Error::InvalidEpsilon { value: epsilon });
        }
        let start = Instant::now();
        let transformed = transform(source, tau_min)?;
        let text = ScoredText::build(transformed.special.chars(), transformed.special.probs())?;
        // What finds the links and no query reads: `C` (in `text`), the run
        // lengths and the leaf-LCA structure are dropped when this returns.
        let tree = &text.tree;
        let ranks = Ancestry::build(tree);
        let lca = LeafLca::build(tree);

        // Group marked leaves by Posid (slots ascend in preorder order)
        // with a counting sort into one flat arena — two passes, zero
        // per-position `Vec` allocations (the plane/kernel treatment of the
        // query path, applied to the build's hottest grouping loop).
        let n_src = source.len();
        let marked = |slot: usize| -> Option<usize> {
            let x = tree.sa(slot);
            if x >= transformed.pos.len() {
                return None;
            }
            transformed.source_pos(x)
        };
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

        let run = text.cum.run_lengths();
        // A tree node as a link sees it: (preorder rank, string depth). A
        // leaf's depth counts the virtual terminator; an internal node's is
        // the LCP at the slot that names it.
        let text_len = tree.text().len();
        let leaf_node = |slot: usize| {
            let depth = text_len - tree.sa(slot) + 1;
            (ranks.leaf_preorder(slot) as u32, depth)
        };
        let lca_node = |a: u32, b: u32| {
            let name = lca.lca_of_slots(a as usize, b as usize);
            (ranks.interval_preorder(name) as u32, tree.slot_lcp(name))
        };
        let mut links: Vec<Link> = Vec::new();
        // Virtual-tree stack of `(node, witness)`: the witness is the text
        // position of the first marked leaf found below the node, fixed
        // when the node is pushed.
        let mut stack: Vec<((u32, usize), u32)> = Vec::new();
        for d in 0..n_src {
            let slots = &flat[bucket_start[d] as usize..bucket_start[d + 1] as usize];
            stack.clear();
            // Virtual (induced) tree over the marked leaves; emit one link
            // per virtual edge.
            let emit =
                |(origin, witness_x): ((u32, usize), u32), v_depth, links: &mut Vec<Link>| {
                    let lmax = run[witness_x as usize] as usize;
                    refine_link(
                        &text.cum,
                        origin,
                        v_depth,
                        d as u32,
                        (witness_x, lmax),
                        epsilon,
                        links,
                    );
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

        links.sort_unstable_by_key(|l| l.origin_pre);
        links.shrink_to_fit();
        let target_rmq = target_depth_rmq(&links);

        let stats = BuildStats {
            source_len: source.len(),
            transformed_len: transformed.len(),
            num_factors: transformed.num_factors,
            ..Default::default()
        };
        let mut idx = Self {
            tree: text.tree,
            ranks,
            links,
            target_rmq,
            epsilon,
            tau_min,
            stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        Ok(idx)
    }

    /// Heap bytes held, per structure: a `(name, bytes)` row for everything
    /// the index keeps — which is everything a query reads.
    pub fn heap_breakdown(&self) -> [(&'static str, usize); 4] {
        [
            ("suffix tree", self.tree.heap_size()),
            ("preorder ranks", self.ranks.heap_size()),
            ("links", self.links.capacity() * std::mem::size_of::<Link>()),
            ("link RMQ", self.target_rmq.heap_size()),
        ]
    }

    /// Heap bytes held: the sum of [`ApproxIndex::heap_breakdown`].
    pub(crate) fn heap_size(&self) -> usize {
        self.heap_breakdown().iter().map(|&(_, bytes)| bytes).sum()
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

    /// Decomposes the index into its persistence-ready snapshot state (see
    /// [`crate::snapshot`]). The byte encoding lives in `ustr-store`.
    pub fn to_snapshot(&self) -> ApproxIndexState {
        let (text, sa, lcp) = self.tree.to_parts();
        ApproxIndexState {
            source_len: self.stats.source_len,
            text,
            sa,
            lcp,
            links: self.links.clone(),
            epsilon: self.epsilon,
            tau_min: self.tau_min,
            stats: self.stats.clone(),
        }
    }

    /// Reassembles an index from snapshot state. Only the cheap derived
    /// structures are rebuilt (the child table from the LCP array, the
    /// preorder ranks in one depth-first pass, the min-RMQ over link target
    /// depths); the sub-link table is restored verbatim, so the result holds
    /// what the index the snapshot was taken from held and answers every
    /// query byte-identically. Fails with [`Error::InvalidSnapshot`] on
    /// structurally inconsistent state.
    pub fn from_snapshot(state: ApproxIndexState) -> Result<Self, Error> {
        if !canon::valid_epsilon(state.epsilon) {
            return Err(invalid("epsilon outside (0, 1)"));
        }
        if !canon::valid_tau(state.tau_min) {
            return Err(invalid("tau_min outside (0, 1]"));
        }
        let tree = checked_tree(state.text, state.sa, state.lcp)?;
        let ranks = Ancestry::build(&tree);
        let source_len = state.source_len;
        let mut prev_pre = 0u32;
        for link in &state.links {
            if link.origin_pre as usize >= ranks.node_count() {
                return Err(invalid("link origin preorder outside the tree"));
            }
            if link.origin_pre < prev_pre {
                return Err(invalid("links are not sorted by origin preorder"));
            }
            prev_pre = link.origin_pre;
            if link.target_depth >= link.origin_depth {
                return Err(invalid("link target depth not below its origin"));
            }
            if link.source_pos as usize >= source_len {
                return Err(invalid("link source position outside the source"));
            }
            if !link.prob.is_finite() || canon::is_negative(link.prob) {
                return Err(invalid("link probability is not a finite non-negative"));
            }
        }
        let links = state.links;
        let target_rmq = target_depth_rmq(&links);
        let mut idx = Self {
            tree,
            ranks,
            links,
            target_rmq,
            epsilon: state.epsilon,
            tau_min: state.tau_min,
            stats: state.stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        Ok(idx)
    }

    /// Positions where `pattern` matches with probability ≥ τ, up to the
    /// additive error: the result contains every position with true
    /// probability ≥ τ and no position below τ − ε. Reported probabilities
    /// are the link approximations (within ε below the true value).
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        let m = pattern.len();
        let Some((l, r)) = self.tree.suffix_range(pattern) else {
            return Ok(QueryResult::default());
        };
        let (pl, pr) = self.ranks.preorder_range(&self.tree, l, r);
        // Link range whose origin preorder falls inside the locus subtree.
        let lo = self.links.partition_point(|l| (l.origin_pre as usize) < pl);
        let hi = self
            .links
            .partition_point(|l| (l.origin_pre as usize) <= pr);
        if lo >= hi {
            return Ok(QueryResult::default());
        }
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
                hits.push((link.source_pos as usize, link.prob));
            }
        }
        Ok(QueryResult::from_hits(hits))
    }
}

/// Min-RMQ over `links[..].target_depth`.
fn target_depth_rmq(links: &[Link]) -> BlockRmq {
    let depths: Vec<f64> = links.iter().map(|l| l.target_depth as f64).collect();
    BlockRmq::new(&depths, Direction::Min)
}

/// Splits the virtual edge from a node — `origin` is its (preorder rank,
/// string depth `o₀`) — up to depth `t₀` into sub-links whose endpoint
/// probabilities differ by ≤ ε. Probabilities are evaluated at the witness
/// position `x`, capped at the factor boundary `lmax` (its run length).
fn refine_link(
    cum: &CumulativeLogProb,
    (origin_pre, o0): (u32, usize),
    t0: usize,
    source_pos: u32,
    (x, lmax): (u32, usize),
    epsilon: f64,
    links: &mut Vec<Link>,
) {
    debug_assert!(o0 > t0, "virtual child must be deeper than its parent");
    let p_at = |depth: usize| -> f64 { canon::exp(cum.window(x as usize, depth.min(lmax))) };
    let mut o = o0;
    while o > t0 {
        let p_o = p_at(o);
        // Smallest t ∈ [t0, o-1] with P(t) − P(o) ≤ ε (P non-increasing in
        // depth, so the predicate is monotone in t). If even one step up
        // exceeds ε the link degenerates to a single character. At depths
        // ≥ `lmax` P is the constant P(lmax) = P(o) (`o` is deeper still),
        // so the predicate holds there without a probe.
        let (mut lo, mut hi) = (t0, o - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid >= lmax || p_at(mid) - p_o <= epsilon {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let t = lo;
        links.push(Link {
            origin_pre,
            origin_depth: o as u32,
            target_depth: t as u32,
            source_pos,
            prob: p_o,
        });
        o = t;
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

    #[test]
    fn snapshot_round_trip_answers_identically() {
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        let built = ApproxIndex::build(&s, 0.02, 0.03).unwrap();
        let loaded = ApproxIndex::from_snapshot(built.to_snapshot()).unwrap();
        assert_eq!(built.num_links(), loaded.num_links());
        assert_eq!(built.epsilon().to_bits(), loaded.epsilon().to_bits());
        for pattern in [&b"AT"[..], b"PQ", b"SFPQ", b"PA", b"TPA", b"FPQP", b"Z"] {
            for tau in [0.05, 0.12, 0.3, 0.5] {
                assert_eq!(
                    built.query(pattern, tau).unwrap().hits(),
                    loaded.query(pattern, tau).unwrap().hits(),
                    "pattern {pattern:?} tau {tau}"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_tampered_links() {
        let s = UncertainString::parse("a:.9,b:.1 | a | a:.9,b:.1").unwrap();
        let built = ApproxIndex::build(&s, 0.05, 0.1).unwrap();
        let mut state = built.to_snapshot();
        assert!(!state.links.is_empty());
        state.links[0].target_depth = state.links[0].origin_depth + 1;
        assert!(matches!(
            ApproxIndex::from_snapshot(state),
            Err(Error::InvalidSnapshot { .. })
        ));
        let mut state = built.to_snapshot();
        state.epsilon = 0.0;
        assert!(matches!(
            ApproxIndex::from_snapshot(state),
            Err(Error::InvalidSnapshot { .. })
        ));
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
