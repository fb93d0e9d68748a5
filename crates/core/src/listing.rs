//! Uncertain string listing (§6): report every string in a collection that
//! contains a probable occurrence of the pattern.

use std::time::Instant;

use ustr_uncertain::{canon, transform, ProbPlane, UncertainString};

use crate::{
    error::{validate_query, Error},
    factors::FactorMap,
    stats::BuildStats,
    substrate::{check_text_len, DedupStrategy, Substrate, NO_KEY},
};

/// Relevance metric for string listing (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelMetric {
    /// Maximum occurrence probability (`Rel_max`) — supports the optimal
    /// output-sensitive query path.
    Max,
    /// The paper's OR metric: `Σ prᵢ − Π prᵢ` over all occurrences with
    /// probability ≥ τmin. Requires touching every occurrence.
    Or,
    /// Independent-event OR: `1 − Π(1 − prᵢ)` — exposed alongside the
    /// paper's formula. Requires touching every occurrence.
    IndependentOr,
}

/// One listed string: its id in the collection and its relevance value.
#[derive(Debug, Clone, PartialEq)]
pub struct ListingHit {
    /// Index of the string in the collection passed to `build`.
    pub doc: usize,
    /// Relevance of the query pattern in that string.
    pub relevance: f64,
}

/// String-listing index over a collection of uncertain strings.
///
/// ```
/// use ustr_core::{ListingIndex, RelMetric};
/// use ustr_uncertain::UncertainString;
/// // Figure 2: only d1 contains "BF" with probability > 0.1.
/// let docs = vec![
///     UncertainString::parse("A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5").unwrap(),
///     UncertainString::parse("A:.6,C:.4 | B:.5,F:.3,E:.2 | B:.4,C:.3,P:.2,F:.1").unwrap(),
///     UncertainString::parse("A:.4,F:.4,P:.2 | I:.3,L:.3,P:.3,T:.1 | A").unwrap(),
/// ];
/// let idx = ListingIndex::build(&docs, 0.05).unwrap();
/// let hits = idx.query(b"BF", 0.1).unwrap();
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].doc, 0);
/// ```
pub struct ListingIndex {
    /// Per-document flat verification planes, the one in-memory copy of
    /// each document's model.
    planes: Vec<ProbPlane>,
    substrate: Substrate,
    /// X position → source position *within its document* (`None` at
    /// separators), one base per factor.
    map: FactorMap,
    /// Factor → its document's id.
    factor_doc: Box<[u32]>,
    tau_min: f64,
    stats: BuildStats,
}

/// "No document" in the build's `doc_of`/`src_of` — the dedup sweeps' "no
/// key" too.
const NONE32: u32 = NO_KEY;

impl ListingIndex {
    /// Builds the index over `docs` with construction threshold `tau_min`.
    pub fn build(docs: &[UncertainString], tau_min: f64) -> Result<Self, Error> {
        let start = Instant::now();
        // Document ids and `doc_base` offsets are `u32`s, like the text
        // positions `Substrate::build` checks.
        let source_total: usize = docs.iter().map(UncertainString::len).sum();
        check_text_len(docs.len().max(source_total))?;
        let mut chars: Vec<u8> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        // Per text position (transient: the dedup keys and the map's
        // input): document id and source position within it.
        let mut doc_of: Vec<u32> = Vec::new();
        let mut src_of: Vec<u32> = Vec::new();
        let mut factor_doc: Vec<u32> = Vec::new();
        // Start of each document in the concatenated *source* position
        // space: globally unique dedup keys, under correlations.
        let mut doc_base: Vec<u32> = Vec::with_capacity(docs.len());
        let mut base = 0usize;
        let mut num_factors = 0usize;
        for (id, d) in docs.iter().enumerate() {
            doc_base.push(base as u32);
            let t = transform(d, tau_min)?;
            num_factors += t.num_factors;
            factor_doc.resize(num_factors, id as u32);
            chars.extend_from_slice(t.special.chars());
            probs.extend_from_slice(t.special.probs());
            for k in 0..t.len() {
                match t.source_pos(k) {
                    Some(p) => {
                        doc_of.push(id as u32);
                        src_of.push(p as u32);
                    }
                    None => {
                        doc_of.push(NONE32);
                        src_of.push(NONE32);
                    }
                }
            }
            base += d.len();
        }
        let has_correlations = docs.iter().any(|d| !d.correlations().is_empty());

        // Doc-level dedup keeps the max-probability entry per document per
        // partition (Rel_max). Under correlations the stored values are only
        // upper bounds, so the "max" entry could be the wrong one — fall back
        // to source-level dedup (keys unique across documents) and aggregate
        // per document at query time. `doc_of` is already the document key
        // array (`NONE32` = no key).
        let source_keys: Vec<u32>;
        let dedup = if has_correlations {
            source_keys = doc_of
                .iter()
                .zip(&src_of)
                .map(|(&d, &s)| match d {
                    NONE32 => NONE32,
                    d => doc_base[d as usize] + s,
                })
                .collect();
            DedupStrategy::BySource(&source_keys)
        } else {
            DedupStrategy::ByKeyMax(&doc_of)
        };
        let substrate = Substrate::build(&chars, &probs, &dedup)?;
        let map = FactorMap::new(&chars, &src_of).expect("transforms emit factor maps");
        debug_assert_eq!(
            map.num_factors(),
            factor_doc.len(),
            "one document per factor"
        );
        let stats = BuildStats {
            source_len: source_total,
            transformed_len: chars.len(),
            num_factors,
            ..Default::default()
        };
        let mut idx = Self {
            planes: docs.iter().map(ProbPlane::build).collect(),
            substrate,
            map,
            factor_doc: factor_doc.into(),
            tau_min,
            stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        Ok(idx)
    }

    /// Number of strings in the collection.
    pub fn num_docs(&self) -> usize {
        self.planes.len()
    }

    /// The construction-time threshold.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Lists all strings with `Rel_max ≥ tau` (the default metric), sorted
    /// by document id. A document's relevance is one of its occurrences'
    /// probability, bit for bit as a per-document executor reports that
    /// occurrence; the occurrence is the maximum in the index's stored
    /// arithmetic, so the relevance can differ from the maximum of the
    /// canonical probabilities by rounding (within `PROB_EPS`) where two
    /// occurrences tie in exact arithmetic.
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<Vec<ListingHit>, Error> {
        self.query_with_metric(pattern, tau, RelMetric::Max)
    }

    /// Lists all strings whose relevance under `metric` is ≥ `tau`.
    ///
    /// `Rel_max` runs in output-sensitive time via the RMQ recursion; the OR
    /// metrics must inspect every occurrence in the suffix range (as §6
    /// notes for complex relevance metrics).
    pub fn query_with_metric(
        &self,
        pattern: &[u8],
        tau: f64,
        metric: RelMetric,
    ) -> Result<Vec<ListingHit>, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        let Some((l, r)) = self.substrate.range(pattern) else {
            return Ok(Vec::new());
        };
        match metric {
            RelMetric::Max => self.query_max(pattern, tau, l, r),
            RelMetric::Or | RelMetric::IndependentOr => {
                self.query_aggregate(pattern, tau, l, r, metric)
            }
        }
    }

    /// Document and in-document offset of text position `x` (`None` at
    /// separators).
    pub(crate) fn doc_and_src(&self, x: usize) -> Option<(usize, usize)> {
        let (factor, src) = self.map.locate(x)?;
        Some((self.factor_doc[factor] as usize, src))
    }

    /// Every distinct occurrence among the candidate text positions `xs`,
    /// as `(doc, src, canonical probability)` in `(doc, src)` order. The
    /// probability is recomputed from the document model through its plane
    /// kernel (see `Index::query`), one [`ProbPlane::with_kernel`] per
    /// document, so each occurrence's value agrees bit for bit with any
    /// per-document executor's.
    fn verified(
        &self,
        pattern: &[u8],
        xs: impl IntoIterator<Item = usize>,
    ) -> Vec<(usize, usize, f64)> {
        let occ = |x| self.doc_and_src(x).map(|(doc, src)| (doc, src, 0.0));
        let mut occs: Vec<(usize, usize, f64)> = xs.into_iter().filter_map(occ).collect();
        occs.sort_unstable_by_key(|&(doc, src, _)| (doc, src));
        occs.dedup_by_key(|&mut (doc, src, _)| (doc, src));
        for group in occs.chunk_by_mut(|a, b| a.0 == b.0) {
            self.planes[group[0].0].with_kernel(pattern, |kernel| {
                for (_, src, p) in group.iter_mut() {
                    *p = kernel.match_probability(*src);
                }
            });
        }
        occs
    }

    /// `Rel_max` of every document whose most probable verified candidate
    /// reaches `tau`, sorted by document.
    fn query_max(
        &self,
        pattern: &[u8],
        tau: f64,
        l: usize,
        r: usize,
    ) -> Result<Vec<ListingHit>, Error> {
        let candidates = self.substrate.report(pattern.len(), l, r, canon::ln(tau));
        let mut hits: Vec<ListingHit> = self
            .verified(pattern, candidates.into_iter().map(|(x, _)| x))
            .into_iter()
            .filter(|&(_, _, p)| canon::meets_threshold(p, tau))
            .map(|(doc, _, relevance)| ListingHit { doc, relevance })
            .collect();
        hits.sort_unstable_by(|a, b| a.doc.cmp(&b.doc).then(b.relevance.total_cmp(&a.relevance)));
        hits.dedup_by_key(|hit| hit.doc);
        Ok(hits)
    }

    /// OR-style metrics: gather every distinct occurrence (probability ≥
    /// τmin, the transform's visibility horizon) per document, then combine.
    fn query_aggregate(
        &self,
        pattern: &[u8],
        tau: f64,
        l: usize,
        r: usize,
        metric: RelMetric,
    ) -> Result<Vec<ListingHit>, Error> {
        // Every slot of the range starts with the pattern: its window is
        // whole, so each is a candidate.
        let mut occs = self.verified(pattern, self.substrate.positions(l, r));
        occs.retain(|&(_, _, p)| canon::is_positive_prob(p));
        let mut hits = Vec::new();
        for group in occs.chunk_by(|a, b| a.0 == b.0) {
            let probs = group.iter().map(|&(_, _, p)| p);
            let relevance = match metric {
                // §6: a single occurrence's relevance is its probability;
                // the Σp − Πp form applies to multiple occurrences.
                RelMetric::Or if group.len() == 1 => group[0].2,
                #[allow(clippy::float_arithmetic, reason = "§6's Rel_OR, Σp − Πp")]
                RelMetric::Or => probs.clone().sum::<f64>() - probs.product::<f64>(),
                RelMetric::IndependentOr => canon::independent_or(probs),
                RelMetric::Max => unreachable!("handled by query_max"),
            };
            if canon::meets_threshold(relevance, tau) {
                hits.push(ListingHit {
                    doc: group[0].0,
                    relevance,
                });
            }
        }
        Ok(hits)
    }

    /// The `k` most relevant documents under `Rel_max`: `query(pattern,
    /// tau_min)` ranked by relevance (descending), then document id, and cut
    /// at `k`.
    pub fn query_top_k(&self, pattern: &[u8], k: usize) -> Result<Vec<ListingHit>, Error> {
        let mut hits = self.query(pattern, self.tau_min)?;
        let key = |hit: &ListingHit| (hit.doc, hit.relevance);
        hits.sort_by(|a, b| crate::canonical_hit_order(&key(a), &key(b)));
        hits.truncate(k);
        Ok(hits)
    }

    /// Approximate heap footprint in bytes: everything the index holds,
    /// the documents' models included (their planes are their one copy).
    pub fn heap_size(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let (rank, bases) = self.map.heap_sizes();
        self.substrate.heap_size()
            + self.planes.capacity() * size_of::<ProbPlane>()
            + self.planes.iter().map(ProbPlane::heap_size).sum::<usize>()
            + rank
            + bases
            + size_of_val(&*self.factor_doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_baseline::NaiveScanner;

    fn figure_2_docs() -> Vec<UncertainString> {
        vec![
            UncertainString::parse("A:.4,B:.3,F:.3 | B:.3,L:.3,F:.3,J:.1 | F:.5,J:.5").unwrap(),
            UncertainString::parse("A:.6,C:.4 | B:.5,F:.3,E:.2 | B:.4,C:.3,P:.2,F:.1").unwrap(),
            UncertainString::parse("A:.4,F:.4,P:.2 | I:.3,L:.3,P:.3,T:.1 | A").unwrap(),
        ]
    }

    #[test]
    fn figure_2_listing() {
        let idx = ListingIndex::build(&figure_2_docs(), 0.05).unwrap();
        let hits = idx.query(b"BF", 0.1).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 0);
        assert!((hits[0].relevance - 0.3 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_naive_listing() {
        let docs = figure_2_docs();
        let idx = ListingIndex::build(&docs, 0.02).unwrap();
        let alphabet = [b'A', b'B', b'F', b'C', b'L'];
        for &a in &alphabet {
            for &b in &alphabet {
                let pattern = [a, b];
                for tau in [0.02, 0.05, 0.1, 0.3] {
                    let got: Vec<usize> = idx
                        .query(&pattern, tau)
                        .unwrap()
                        .into_iter()
                        .map(|h| h.doc)
                        .collect();
                    let expected = NaiveScanner::listing(&docs, &pattern, tau);
                    assert_eq!(got, expected, "pattern {pattern:?} tau {tau}");
                }
            }
        }
    }

    #[test]
    fn relevance_values_are_max_probabilities() {
        let docs = figure_2_docs();
        let idx = ListingIndex::build(&docs, 0.02).unwrap();
        for hit in idx.query(b"F", 0.02).unwrap() {
            let expected = NaiveScanner::relevance_max(&docs[hit.doc], b"F");
            assert!((hit.relevance - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn or_metric_aggregates_occurrences() {
        let docs = figure_2_docs();
        // Tiny tau_min so the transform sees every occurrence.
        let idx = ListingIndex::build(&docs, 0.001).unwrap();
        let hits = idx.query_with_metric(b"F", 0.05, RelMetric::Or).unwrap();
        for hit in &hits {
            let expected = NaiveScanner::relevance_or(&docs[hit.doc], b"F");
            assert!(
                (hit.relevance - expected).abs() < 1e-9,
                "doc {} rel {} expected {expected}",
                hit.doc,
                hit.relevance
            );
        }
        assert!(!hits.is_empty());
        let indep = idx
            .query_with_metric(b"F", 0.05, RelMetric::IndependentOr)
            .unwrap();
        for hit in &indep {
            let expected = NaiveScanner::relevance_independent_or(&docs[hit.doc], b"F");
            assert!((hit.relevance - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_collection_and_missing_patterns() {
        let idx = ListingIndex::build(&[], 0.1).unwrap();
        assert!(idx.query(b"A", 0.5).unwrap().is_empty());
        let idx = ListingIndex::build(&figure_2_docs(), 0.1).unwrap();
        assert!(idx.query(b"ZZZ", 0.5).unwrap().is_empty());
    }

    #[test]
    fn docs_never_duplicated_in_output() {
        // A document with many occurrences of the pattern must be listed once.
        let docs = vec![
            UncertainString::deterministic(b"ABABABAB"),
            UncertainString::deterministic(b"CCCC"),
        ];
        let idx = ListingIndex::build(&docs, 0.5).unwrap();
        let hits = idx.query(b"AB", 0.9).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 0);
    }

    #[test]
    fn stats_aggregate_collection() {
        let idx = ListingIndex::build(&figure_2_docs(), 0.05).unwrap();
        assert_eq!(idx.stats().source_len, 9);
        assert_eq!(idx.num_docs(), 3);
        assert!(idx.stats().heap_bytes > 0);
    }
}
