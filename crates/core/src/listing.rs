//! Uncertain string listing (§6): report every string in a collection that
//! contains a probable occurrence of the pattern.
//!
//! The index is one structure over the collection, as §6 builds it: the
//! documents' transforms laid end to end under one suffix tree, one set of
//! value codes and one set of levels, and the documents' models laid end
//! to end in one [`ProbPlane`], each document's correlations shifted by its
//! start. The factor map gives a text position's position in the
//! collection, and one start per document splits those into documents. A
//! query confirms its candidates as `Index::query` does — over a collection
//! without correlations each window's value is its occurrence's canonical
//! probability, kept as it is; under correlation one kernel call verifies
//! them — and folds the hits of each document into its relevance.

use std::time::Instant;

use ustr_uncertain::{
    canon, transform, Correlation, CorrelationSet, ProbPlane, UncertainString, MAX_TEXT_LEN,
    NO_POSITION,
};

use crate::{
    error::{validate_query, Error},
    factors::{stretch_starts, FactorMap},
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
    /// The documents laid end to end as one string: one verification plane
    /// over the collection, the one in-memory copy of every document's
    /// model.
    plane: ProbPlane,
    pub(crate) substrate: Substrate,
    /// X position → its position in the collection (`None` at separators),
    /// one base per factor.
    map: FactorMap,
    /// Each document's first position in the collection; an empty document
    /// shares the next one's.
    doc_starts: Box<[u32]>,
    tau_min: f64,
    stats: BuildStats,
}

/// The documents laid end to end as one string: their positions in order,
/// and each one's correlations shifted by its start in `doc_starts`. A
/// correlation never leaves its document, so the shifted ones are distinct
/// and name positions of the same characters.
fn concatenated(docs: &[UncertainString], doc_starts: &[u32]) -> UncertainString {
    let positions = docs.iter().flat_map(|d| d.positions().iter().cloned());
    let mut whole = UncertainString::new(positions.collect());
    let mut correlations = CorrelationSet::new();
    for (d, &start) in docs.iter().zip(doc_starts) {
        for c in d.correlations().iter() {
            let shifted = Correlation {
                subject_pos: c.subject_pos + start as usize,
                cond_pos: c.cond_pos + start as usize,
                ..c.clone()
            };
            (correlations.add(shifted)).expect("one document's correlations, shifted by its start");
        }
    }
    (whole.set_correlations(correlations)).expect("a correlation stays inside its document");
    whole
}

impl ListingIndex {
    /// Builds the index over `docs` with construction threshold `tau_min`.
    pub fn build(docs: &[UncertainString], tau_min: f64) -> Result<Self, Error> {
        let start = Instant::now();
        // Document ids and collection positions are `u32`s, like the text
        // positions `Substrate::build` checks.
        let source_total: usize = docs.iter().map(UncertainString::len).sum();
        check_text_len(docs.len().max(source_total), MAX_TEXT_LEN)?;
        let mut chars: Vec<u8> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        // Per text position (transient: the dedup keys and the map's
        // input): its position in the collection, and its document's id;
        // `NO_KEY` at separators.
        let mut pos: Vec<u32> = Vec::new();
        let mut doc_of: Vec<u32> = Vec::new();
        let mut doc_starts: Vec<u32> = Vec::with_capacity(docs.len());
        let (mut base, mut num_factors) = (0u32, 0usize);
        for (id, d) in docs.iter().enumerate() {
            doc_starts.push(base);
            let t = transform(d, tau_min)?;
            num_factors += t.num_factors;
            chars.extend_from_slice(t.special.chars());
            probs.extend_from_slice(t.special.probs());
            for &p in &t.pos {
                let (key, doc) = match p {
                    NO_POSITION => (NO_KEY, NO_KEY),
                    p => (base + p, id as u32),
                };
                pos.push(key);
                doc_of.push(doc);
            }
            base += d.len() as u32;
        }
        let has_correlations = docs.iter().any(|d| !d.correlations().is_empty());

        // Doc-level dedup keeps the max-probability entry per document per
        // partition (Rel_max). Under correlations the window values are only
        // upper bounds, so the "max" entry could be the wrong one — fall back
        // to source-level dedup (keys unique across documents: the
        // collection positions, as an `Index`'s map is its key array) and
        // aggregate per document at query time.
        let dedup = if has_correlations {
            DedupStrategy::BySource(&pos)
        } else {
            DedupStrategy::ByKeyMax(&doc_of)
        };
        let substrate = Substrate::build(&chars, &probs, &dedup)?;
        let starts = stretch_starts(&chars).map(|x| pos[x]);
        let map =
            FactorMap::new(&chars, starts, source_total).expect("transforms emit factor maps");
        debug_assert_eq!(map.num_factors(), num_factors, "one base per factor");
        let stats = BuildStats {
            source_len: source_total,
            transformed_len: chars.len(),
            num_factors,
            ..Default::default()
        };
        let mut idx = Self {
            plane: ProbPlane::build(&concatenated(docs, &doc_starts)),
            substrate,
            map,
            doc_starts: doc_starts.into(),
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
        self.doc_starts.len()
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
    /// by document id. A document's relevance is the maximum of its
    /// occurrences' probabilities, bit for bit as a per-document executor
    /// reports each occurrence.
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

    /// The document holding collection position `pos`: the last one that
    /// starts at or before it (an empty document shares the next start).
    fn doc_of(&self, pos: usize) -> usize {
        self.doc_starts.partition_point(|&s| s as usize <= pos) - 1
    }

    /// Document and in-document offset of text position `x` (`None` at
    /// separators).
    #[cfg(test)]
    pub(crate) fn doc_and_src(&self, x: usize) -> Option<(usize, usize)> {
        let pos = self.map.source_pos(x)?;
        let doc = self.doc_of(pos);
        Some((doc, pos - self.doc_starts[doc] as usize))
    }

    /// Confirms every distinct occurrence among the candidates `(text
    /// position, window value)` at `log_tau`'s cut and calls `per_doc(doc,
    /// kept)` for each document with an occurrence that meets τ, in turn,
    /// `kept` being those occurrences as `(collection position, canonical
    /// probability)` in position order. A candidate's window lies inside one
    /// factor, so inside its document, whose cells it sums in a
    /// per-document executor's order: over a collection without
    /// correlations its value is that executor's, bit for bit, and is kept
    /// as it is; under correlation it is an upper bound, and the plane
    /// kernel's one call verifies the occurrence, as in `Index::query`
    /// (`crate::index::confirmed`).
    fn verified(
        &self,
        pattern: &[u8],
        candidates: impl IntoIterator<Item = (usize, f64)>,
        log_tau: f64,
        mut per_doc: impl FnMut(usize, &[(usize, f64)]),
    ) {
        let mut sources: Vec<(usize, f64)> = (candidates.into_iter())
            .filter_map(|(x, v)| Some((self.map.source_pos(x)?, v)))
            .collect();
        // One occurrence's windows all have its value.
        sources.sort_unstable_by_key(|&(pos, _)| pos);
        sources.dedup_by_key(|&mut (pos, _)| pos);
        // The hits are in position order, which is document order.
        let hits = crate::index::confirmed(&self.plane, pattern, sources, log_tau);
        let mut rest = &hits[..];
        while let Some(&(first, _)) = rest.first() {
            let doc = self.doc_of(first);
            let end = (self.doc_starts.get(doc + 1)).map_or(self.plane.len(), |&s| s as usize);
            let (kept, tail) = rest.split_at(rest.partition_point(|&(pos, _)| pos < end));
            debug_assert!(
                !kept.is_empty() && kept.iter().all(|&(pos, _)| pos + pattern.len() <= end),
                "a document's run holds its first hit, and each window ends inside it"
            );
            per_doc(doc, kept);
            rest = tail;
        }
    }

    /// `Rel_max` of every document whose most probable candidate reaches
    /// `tau`, sorted by document. Over a collection without correlations a
    /// short level shows each document's best window alone, the canonical
    /// maximum.
    fn query_max(
        &self,
        pattern: &[u8],
        tau: f64,
        l: usize,
        r: usize,
    ) -> Result<Vec<ListingHit>, Error> {
        let log_tau = canon::ln(tau);
        let candidates = self.substrate.report(pattern.len(), l, r, log_tau);
        let mut hits = Vec::new();
        self.verified(pattern, candidates, log_tau, |doc, kept| {
            let relevance = kept.iter().map(|&(_, p)| p).max_by(f64::total_cmp);
            hits.extend(relevance.map(|relevance| ListingHit { doc, relevance }));
        });
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
        let all = self.substrate.windows(pattern.len(), l, r);
        let (log_tau, mut hits) = (canon::ln(tau), Vec::new());
        self.verified(pattern, all, f64::NEG_INFINITY, |doc, kept| {
            let positive = (kept.iter().map(|&(_, p)| p)).filter(|&p| canon::is_positive_prob(p));
            let probs: Vec<f64> = positive.collect();
            let relevance = match (metric, probs.as_slice()) {
                (_, []) => return,
                // §6: a single occurrence's relevance is its probability;
                // the Σp − Πp form applies to multiple occurrences.
                (RelMetric::Or, &[p]) => p,
                #[allow(clippy::float_arithmetic, reason = "§6's Rel_OR, Σp − Πp")]
                (RelMetric::Or, _) => probs.iter().sum::<f64>() - probs.iter().product::<f64>(),
                (RelMetric::IndependentOr, _) => canon::independent_or(probs.iter().copied()),
                (RelMetric::Max, _) => unreachable!("handled by query_max"),
            };
            if canon::log_meets_threshold(canon::ln(relevance), log_tau) {
                hits.push(ListingHit { doc, relevance });
            }
        });
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
    /// the documents' models included (the plane is their one copy).
    pub fn heap_size(&self) -> usize {
        let (rank, bases) = self.map.heap_sizes();
        self.substrate.heap_size()
            + self.plane.heap_size()
            + rank
            + bases
            + std::mem::size_of_val(&*self.doc_starts)
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

    /// Without correlations a listed document's relevance is
    /// `NaiveScanner::relevance_max` to the bit — the canonical maximum,
    /// whichever of its occurrences the level kept. Over generated
    /// collections (the most probable reading at every 13th start, at
    /// lengths that reach the long levels), and over tie-heavy ones: three
    /// documents of non-dyadic choices over three letters, every window of
    /// their most probable readings, where occurrences equal in exact
    /// arithmetic round apart (52 of these 49 769 relevances, and 169 of
    /// 172 188 over 200 such collections, missed the canonical maximum
    /// when a level picked the winner by prefix-sum differences).
    #[test]
    fn relevance_is_the_canonical_maximum() {
        use ustr_workload::{generate_collection, DatasetConfig};
        let mut listed = 0;
        let mut check = |docs: &[UncertainString], idx: &ListingIndex, pattern: &[u8], tau| {
            let hits = idx.query(pattern, tau).unwrap();
            let docs_of = hits.iter().map(|hit| hit.doc).collect::<Vec<_>>();
            assert_eq!(docs_of, NaiveScanner::listing(docs, pattern, tau));
            for hit in hits {
                let max = NaiveScanner::relevance_max(&docs[hit.doc], pattern);
                assert_eq!(hit.relevance.to_bits(), max.to_bits(), "{pattern:?}");
                listed += 1;
            }
        };
        for (theta, seed) in [(0.1, 5), (0.3, 43)] {
            let docs = generate_collection(&DatasetConfig::new(2_000, theta, seed));
            let idx = ListingIndex::build(&docs, 0.1).unwrap();
            for m in [1, 2, 3, 6, 20, 30] {
                for doc in &docs {
                    for start in (0..doc.len().saturating_sub(m)).step_by(13) {
                        let pattern: Vec<u8> = (start..start + m)
                            .map(|q| doc.position(q).most_probable().0)
                            .collect();
                        for tau in [0.1, 0.3] {
                            check(&docs, &idx, &pattern, tau);
                        }
                    }
                }
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let shapes: [&[f64]; 5] = [&[1.0], &[0.7, 0.3], &[0.6, 0.4], &[0.9, 0.1], &[0.35, 0.65]];
        for _ in 0..60 {
            let docs: Vec<UncertainString> = (0..3)
                .map(|_| {
                    let rows = (0..5 + next(40)).map(|_| {
                        let (shape, shift) = (shapes[next(5) as usize], next(3) as u8);
                        let mut row: Vec<(u8, f64)> = (0u8..)
                            .zip(shape)
                            .map(|(i, &p)| (b'a' + (shift + i) % 3, p))
                            .collect();
                        row.sort_by_key(|&(c, _)| c);
                        row
                    });
                    UncertainString::from_rows(rows.collect()).unwrap()
                })
                .collect();
            let idx = ListingIndex::build(&docs, 0.01).unwrap();
            for doc in &docs {
                let world = doc.most_probable_world();
                for m in 2..=6 {
                    for pattern in world.windows(m) {
                        check(&docs, &idx, pattern, 0.01);
                    }
                }
            }
        }
        assert!(listed > 10_000, "{listed} listed");
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
