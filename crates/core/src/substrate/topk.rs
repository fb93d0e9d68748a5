//! Ranked top-k retrieval — an extension the paper's related-work section
//! motivates (top-k queries on probabilistic data, Re et al. / Li et al.).
//!
//! A level hands out the values of a suffix range best first
//! ([`SampledRmq::best_first`]), reading each slot at most once: its two
//! partial edge blocks, and a full middle block only once everything
//! better than the block's champion is out. The search takes values off
//! that walk until the `k` best distinct sources and the `k`-th one's tie
//! class are out, and raises the walk's floor to that cut as soon as `k`
//! sources are, so the walk queues nothing it cannot emit. On a level of
//! the pattern's own length every block the walk opens gives up its
//! champion, so a query reads at most `min(r − l + 1, 64·(emitted + 2))`
//! slots: with the suffix-range lookup, O(m + k).
//!
//! Long patterns use the *lazy bound* pattern: the serving level is
//! shorter than the pattern, so the walk yields upper bounds. A slot whose
//! exact length-`m` value falls below its bound goes back into the walk at
//! that value ([`BestFirst::requeue`]), and comes out again once nothing
//! the walk still holds can beat it; on the pattern's own level every
//! value is exact and comes out once.
//!
//! `Substrate::top_k` points this search at an RMQ level. Values ranked there
//! are window sums over the text's value codes, in the kernel's order: on a
//! model without correlations the canonical probabilities every executor
//! over the document reports, which `Index::query_top_k` keeps as they are,
//! and cuts at `k` in their canonical order (probability ↓, position ↑).
//! The search closes the tie class at the cut itself: its one stop rule is
//! the walk's floor, raised to the `k`-th emitted value less `PROB_EPS` once
//! `k` sources are out, so everything tied with the `k`-th comes out in the
//! same pass and the position order, not heap arbitration, settles ties.
//!
//! [`SampledRmq::best_first`]: ustr_rmq::SampledRmq::best_first

use std::collections::BTreeSet;

use ustr_rmq::BestFirst;
use ustr_uncertain::PROB_EPS;

/// Best-first top-k over the walk `ranked`, whose values bound the exact
/// ones from above.
///
/// `exact(slot, bound)` returns the true value of a slot the walk yielded
/// with `bound` (`-inf` to drop the slot); `source(slot)` maps a slot to
/// the deduplicated output key. Emits, as `(source, value)`, each of the
/// `k` best distinct sources and every source within `PROB_EPS` of the
/// `k`-th, in decreasing exact-value order, skipping values below the
/// walk's floor.
pub(super) fn top_k_search<A: Fn(usize) -> f64 + ?Sized>(
    mut ranked: BestFirst<'_, A>,
    k: usize,
    exact: impl Fn(usize, f64) -> f64,
    source: impl Fn(usize) -> Option<usize>,
) -> Vec<(usize, f64)> {
    let floor = ranked.floor();
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(k);
    if k == 0 {
        return out;
    }
    // Ordered, not hashed: a small `k`'s sources fit one B-tree node,
    // searched like a list with no hash to compute, and a large one still
    // costs O(log k) a source.
    let mut seen = BTreeSet::new();
    while let Some((slot, bound)) = ranked.next() {
        let value = exact(slot, bound);
        if value < bound {
            // A lazy bound: back into the walk at its exact value.
            ranked.requeue(slot, value);
            continue;
        }
        if let Some(src) = source(slot) {
            if seen.insert(src) {
                out.push((src, value));
                if out.len() == k {
                    #[allow(clippy::float_arithmetic, reason = "the k-th value's tie cut")]
                    let tie = value - PROB_EPS;
                    ranked.raise_floor(floor.max(tie));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_rmq::{Direction, SampledRmq};

    /// `top_k_search` over `[l, r]` of `bounds`, once per block size in
    /// {1, 2} (so a range of three slots or more has middle blocks), with
    /// the exact values `exact` and the source map `source`.
    fn search(
        bounds: &[f64],
        (l, r): (usize, usize),
        k: usize,
        floor: f64,
        exact: impl Fn(usize, f64) -> f64 + Copy,
        source: impl Fn(usize) -> Option<usize> + Copy,
    ) -> Vec<Vec<(usize, f64)>> {
        let at = |i: usize| bounds[i];
        [1, 2]
            .into_iter()
            .map(|block| {
                let rmq = SampledRmq::with_block_size(bounds.len(), block, Direction::Max, &at);
                top_k_search(rmq.best_first(l, r, floor, &at), k, exact, source)
            })
            .collect()
    }

    #[test]
    fn top_k_returns_descending_distinct() {
        let values = [0.3, 0.9, 0.1, 0.7, 0.9, 0.2];
        for got in search(&values, (0, 5), 3, f64::MIN, |s, _| values[s], Some) {
            assert_eq!(got, vec![(1, 0.9), (4, 0.9), (3, 0.7)]);
        }
    }

    #[test]
    fn top_k_dedupes_sources() {
        let values = [0.9, 0.8, 0.7];
        // Every slot maps to the same source: only one output.
        for got in search(&values, (0, 2), 3, f64::MIN, |s, _| values[s], |_| Some(42)) {
            assert_eq!(got, vec![(42, 0.9)]);
        }
    }

    #[test]
    fn the_tie_class_at_the_cut_comes_out_in_one_pass() {
        // k = 2 cuts inside the class of .5 (one member PROB_EPS / 10 below
        // it): all of it is emitted, and the search stops before .2.
        let values = [0.5, 0.9, 0.5 - PROB_EPS / 10.0, 0.2, 0.5];
        for got in search(&values, (0, 4), 2, f64::MIN, |s, _| values[s], Some) {
            let mut slots: Vec<usize> = got.iter().map(|&(s, _)| s).collect();
            assert_eq!(got[0], (1, 0.9));
            slots.sort_unstable();
            assert_eq!(slots, vec![0, 1, 2, 4]);
        }
        // The floor still holds inside the class.
        for got in search(&values, (0, 4), 1, 0.9, |s, _| values[s], Some) {
            assert_eq!(got, vec![(1, 0.9)]);
        }
    }

    #[test]
    fn lazy_bounds_resolve_correctly() {
        // Bounds deliberately overestimate; exact values reorder entries.
        let bounds = [1.0, 0.95, 0.9];
        let exacts = [0.1, 0.94, 0.5];
        for got in search(&bounds, (0, 2), 3, f64::MIN, |s, _| exacts[s], Some) {
            let vals: Vec<f64> = got.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, vec![0.94, 0.5, 0.1], "emitted in exact order");
        }
    }

    #[test]
    fn zero_k_and_empty_range() {
        let values = [1.0; 6];
        for got in search(&values, (0, 5), 0, f64::MIN, |_, _| 1.0, Some) {
            assert!(got.is_empty());
        }
        for got in search(&values, (3, 2), 4, f64::MIN, |_, _| 1.0, Some) {
            assert!(got.is_empty());
        }
    }
}
