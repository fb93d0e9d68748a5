//! Ranked top-k retrieval — an extension the paper's related-work section
//! motivates (top-k queries on probabilistic data, Re et al. / Li et al.).
//!
//! The threshold machinery already retrieves occurrences in decreasing
//! probability order from RMQ ranges; replacing the recursion stack with a
//! max-heap ("best-first" search) yields the k most probable occurrences
//! without any threshold at all, in O((k + log n)·log k)-flavoured time.
//!
//! Long patterns use the *lazy bound* pattern: heap entries carry the
//! filter-level upper bound; when an entry surfaces, its exact length-`m`
//! value is computed and re-inserted, and it is only emitted once exact —
//! correct because every other entry still bounds its contents from above.
//!
//! `Levels::top_k` points this search at an RMQ level. Values ranked there
//! are the *stored* window products read off the cumulative array;
//! `Index::query_top_k` re-verifies every emitted source through the flat
//! [`ustr_uncertain::ProbPlane`] kernel to produce the canonical
//! probabilities every executor over the document reports, and cuts at `k`
//! in their canonical order. So the search closes the tie class at the cut
//! itself: its one stop rule is a next key below the `k`-th emitted value
//! by more than `PROB_EPS` (or below the floor), and everything tied with
//! the `k`-th comes out in the same pass.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use ustr_uncertain::PROB_EPS;

/// Max-heap entry: either an unexplored range (keyed by the value of its
/// best slot) or an exact candidate awaiting emission.
enum Entry {
    Range {
        key: f64,
        slot: usize,
        l: usize,
        r: usize,
    },
    Exact {
        key: f64,
        slot: usize,
    },
}

impl Entry {
    fn key(&self) -> f64 {
        match self {
            Entry::Range { key, .. } | Entry::Exact { key, .. } => *key,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key()
            .partial_cmp(&other.key())
            .unwrap_or(Ordering::Equal)
    }
}

/// Best-first top-k over `[l, r]`.
///
/// `bound(l, r) -> (slot, value)` returns the best slot of a range and an
/// *upper bound* of its value; `exact(slot, bound)` returns the true value
/// of a slot whose bound is `bound` (`-inf` to drop the slot);
/// `source(slot)` maps a slot to the deduplicated output key. Emits, as
/// `(source, value)`, each of the `k` best distinct sources and every
/// source within `PROB_EPS` of the `k`-th, in decreasing exact-value order,
/// skipping values below `floor`.
pub(super) fn top_k_search(
    l: usize,
    r: usize,
    k: usize,
    floor: f64,
    bound: impl Fn(usize, usize) -> (usize, f64),
    exact: impl Fn(usize, f64) -> f64,
    source: impl Fn(usize) -> Option<usize>,
) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(k);
    if k == 0 || l > r {
        return out;
    }
    let mut seen: HashSet<usize> = HashSet::new();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let (slot, key) = bound(l, r);
    heap.push(Entry::Range { key, slot, l, r });
    while let Some(entry) = heap.pop() {
        #[allow(clippy::float_arithmetic, reason = "the k-th value's tie cut")]
        let cut = out
            .get(k - 1)
            .map_or(floor, |&(_, kth)| floor.max(kth - PROB_EPS));
        if entry.key() < cut {
            break;
        }
        match entry {
            Entry::Range { key, slot, l, r } => {
                let v = exact(slot, key);
                if v >= floor {
                    heap.push(Entry::Exact { key: v, slot });
                }
                if slot > l {
                    let (s, b) = bound(l, slot - 1);
                    if b >= floor {
                        heap.push(Entry::Range {
                            key: b,
                            slot: s,
                            l,
                            r: slot - 1,
                        });
                    }
                }
                if slot < r {
                    let (s, b) = bound(slot + 1, r);
                    if b >= floor {
                        heap.push(Entry::Range {
                            key: b,
                            slot: s,
                            l: slot + 1,
                            r,
                        });
                    }
                }
            }
            Entry::Exact { key, slot } => {
                if let Some(src) = source(slot) {
                    if seen.insert(src) {
                        out.push((src, key));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leftmost maximum of a range, with its value.
    fn argmax(values: &[f64]) -> impl Fn(usize, usize) -> (usize, f64) + '_ {
        move |l, r| {
            let best = (l..=r).fold(l, |b, i| if values[i] > values[b] { i } else { b });
            (best, values[best])
        }
    }

    #[test]
    fn top_k_returns_descending_distinct() {
        let values = [0.3, 0.9, 0.1, 0.7, 0.9, 0.2];
        let got = top_k_search(0, 5, 3, f64::MIN, argmax(&values), |s, _| values[s], Some);
        assert_eq!(got, vec![(1, 0.9), (4, 0.9), (3, 0.7)]);
    }

    #[test]
    fn top_k_dedupes_sources() {
        let values = [0.9, 0.8, 0.7];
        // Every slot maps to the same source: only one output.
        let got = top_k_search(
            0,
            2,
            3,
            f64::MIN,
            argmax(&values),
            |s, _| values[s],
            |_| Some(42),
        );
        assert_eq!(got, vec![(42, 0.9)]);
    }

    #[test]
    fn the_tie_class_at_the_cut_comes_out_in_one_pass() {
        // k = 2 cuts inside the class of .5 (one member PROB_EPS / 10 below
        // it): all of it is emitted, and the search stops before .2.
        let values = [0.5, 0.9, 0.5 - PROB_EPS / 10.0, 0.2, 0.5];
        let got = top_k_search(0, 4, 2, f64::MIN, argmax(&values), |s, _| values[s], Some);
        let mut slots: Vec<usize> = got.iter().map(|&(s, _)| s).collect();
        assert_eq!(got[0], (1, 0.9));
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 4]);
        // The floor still holds inside the class.
        let got = top_k_search(0, 4, 1, 0.9, argmax(&values), |s, _| values[s], Some);
        assert_eq!(got, vec![(1, 0.9)]);
    }

    #[test]
    fn lazy_bounds_resolve_correctly() {
        // Bounds deliberately overestimate; exact values reorder entries.
        let bounds = [1.0, 0.95, 0.9];
        let exacts = [0.1, 0.94, 0.5];
        let got = top_k_search(0, 2, 3, f64::MIN, argmax(&bounds), |s, _| exacts[s], Some);
        let vals: Vec<f64> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0.94, 0.5, 0.1], "emitted in exact order");
    }

    #[test]
    fn zero_k_and_empty_range() {
        let bound = |_: usize, _: usize| (0, 1.0);
        assert!(top_k_search(0, 5, 0, f64::MIN, bound, |_, _| 1.0, Some).is_empty());
        assert!(top_k_search(3, 2, 4, f64::MIN, bound, |_, _| 1.0, Some).is_empty());
    }
}
