//! Query result container and the canonical order of its hits.

/// Result of a substring-search query: occurrence positions with their
/// occurrence probabilities, sorted by position.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    hits: Vec<(usize, f64)>,
}

/// The canonical total order for per-document hits: probability
/// descending, then position ascending. Every top-k over one document —
/// the built [`crate::Index`] or a scan of the source — ranks with exactly
/// this comparator, so ties at the cut never depend on which one answered.
pub fn canonical_hit_order(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

impl QueryResult {
    /// Builds from `(position, probability)` pairs; sorts by position and
    /// keeps one pair per position. Only [`crate::Index`] hands it repeats
    /// (the blocking scheme and source-level dedup under correlation may
    /// report a position twice), and they carry the same canonical
    /// probability.
    pub(crate) fn from_hits(mut hits: Vec<(usize, f64)>) -> Self {
        hits.sort_unstable_by_key(|&(pos, _)| pos);
        hits.dedup_by_key(|&mut (pos, _)| pos);
        Self { hits }
    }

    /// The `(position, probability)` pairs, sorted by position.
    pub fn hits(&self) -> &[(usize, f64)] {
        &self.hits
    }

    /// Consumes the result, returning the sorted `(position, probability)`
    /// pairs without copying.
    pub fn into_hits(self) -> Vec<(usize, f64)> {
        self.hits
    }

    /// The occurrence positions, sorted ascending.
    pub fn positions(&self) -> Vec<usize> {
        self.hits.iter().map(|&(p, _)| p).collect()
    }

    /// Number of occurrences.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Returns `true` when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The maximum occurrence probability, or 0 when empty.
    pub fn max_probability(&self) -> f64 {
        self.hits.iter().map(|&(_, p)| p).fold(0.0, f64::max)
    }

    /// Iterates over `(position, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, f64)> {
        self.hits.iter()
    }
}

impl IntoIterator for QueryResult {
    type Item = (usize, f64);
    type IntoIter = std::vec::IntoIter<(usize, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.hits.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_by_position() {
        let r = QueryResult::from_hits(vec![(5, 0.2), (1, 0.9), (3, 0.5)]);
        assert_eq!(r.positions(), vec![1, 3, 5]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!((r.max_probability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn one_hit_per_position() {
        let r = QueryResult::from_hits(vec![(5, 0.2), (1, 0.9), (5, 0.2), (1, 0.9)]);
        assert_eq!(r.hits(), &[(1, 0.9), (5, 0.2)]);
    }

    #[test]
    fn empty_result() {
        let r = QueryResult::default();
        assert!(r.is_empty());
        assert_eq!(r.max_probability(), 0.0);
        assert_eq!(r.into_iter().count(), 0);
    }
}
