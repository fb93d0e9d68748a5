//! The general uncertain-string substring index (§5): Lemma-2 transform +
//! position mapping + per-level duplicate elimination over the §4 machinery.

use std::time::Instant;

use ustr_uncertain::{canon, transform, ProbPlane, UncertainString, NO_POSITION};

use crate::{
    error::{validate_query, Error},
    factors::{stretch_starts, FactorMap},
    result::QueryResult,
    snapshot::{invalid, IndexState},
    stats::BuildStats,
    substrate::{DedupStrategy, Substrate, NO_KEY},
};

// The position map doubles as the dedup key array.
const _: () = assert!(NO_POSITION == NO_KEY);

/// Each character's probability as the transform of `source` gave it: its
/// choice's at its source position, through the transform's own rule
/// ([`CorrelationSet::upper_bound`](ustr_uncertain::CorrelationSet::upper_bound)),
/// and 1 at separators. A character with none there is an
/// [`Error::InvalidSnapshot`]: no transform emits it, and `C` cannot sum it.
fn text_probs(source: &UncertainString, chars: &[u8], map: &FactorMap) -> Result<Vec<f64>, Error> {
    let prob = |(x, &c): (usize, &u8)| {
        let p = map.source_pos(x).map_or(1.0, |q| {
            let base = source.position(q).prob_of(c);
            source.correlations().upper_bound(q, c, base)
        });
        let missing = || invalid("text character has no probability at its source position");
        canon::is_positive_prob(p).then_some(p).ok_or_else(missing)
    };
    chars.iter().enumerate().map(prob).collect()
}

/// Substring-search index over a general [`UncertainString`].
///
/// Built for a construction-time threshold `τmin`; answers queries for any
/// `τ ≥ τmin` in `O(m + occ)` for short patterns (`m ≤ ⌈log₂ N⌉` over the
/// transformed text) and `O(m · occ)`-flavoured time for longer ones.
///
/// ```
/// use ustr_core::Index;
/// use ustr_uncertain::UncertainString;
/// // The running example of Figure 10.
/// let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
/// let idx = Index::build(&s, 0.1).unwrap();
/// // Query ("QP", 0.4): only position 0 qualifies (.7*.7 = .49);
/// // position 1 reaches just .3*1 = .3.
/// assert_eq!(idx.query(b"QP", 0.4).unwrap().positions(), vec![0]);
/// ```
pub struct Index {
    /// The one in-memory copy of the source model, and its verification
    /// kernel — rebuilt on load from the snapshot's string, which
    /// [`Index::to_snapshot`] materializes again (formats are untouched).
    plane: ProbPlane,
    /// Lemma-2 position map, all that is kept of the transform beside the
    /// substrate: text position → source position, `None` at separators,
    /// as one base per factor.
    map: FactorMap,
    substrate: Substrate,
    tau_min: f64,
    stats: BuildStats,
}

impl Index {
    /// Builds the index with construction-time threshold `tau_min ∈ (0, 1]`.
    pub fn build(source: &UncertainString, tau_min: f64) -> Result<Self, Error> {
        let start = Instant::now();
        let transformed = transform(source, tau_min)?;
        let (chars, pos) = (transformed.special.chars(), &transformed.pos);
        // `pos` is already the dedup key array: source position per text
        // position, `NO_POSITION` (= no key) at separators. It is dropped
        // once the levels are built; the map keeps its bases.
        let substrate = Substrate::build(
            chars,
            transformed.special.probs(),
            &DedupStrategy::BySource(pos),
        )?;
        let starts = stretch_starts(chars).map(|x| pos[x]);
        let map =
            FactorMap::new(chars, starts, source.len()).expect("the transform emits a factor map");
        let stats = BuildStats {
            source_len: source.len(),
            transformed_len: pos.len(),
            num_factors: transformed.num_factors,
            ..Default::default()
        };
        let mut idx = Self {
            plane: ProbPlane::build(source),
            map,
            substrate,
            tau_min,
            stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        // Last: the clock covers everything a caller waits for.
        idx.stats.build_time = start.elapsed();
        Ok(idx)
    }

    /// The construction-time threshold.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// Decomposes the index into its persistence-ready snapshot state (see
    /// [`crate::snapshot`]): the position map as one source start per
    /// factor, and no `C`. The byte encoding lives in `ustr-store`.
    pub fn to_snapshot(&self) -> IndexState {
        IndexState {
            source: self.plane.to_model(),
            starts: self.map.starts(self.substrate.text().tree.text()),
            substrate: self.substrate.to_state(),
            tau_min: self.tau_min,
            stats: self.stats.clone(),
        }
    }

    /// Reassembles an index from snapshot state. Rebuilds only the cheap
    /// derived structures (suffix-tree child table from the LCP array, the
    /// map's factor bases from the starts, `C` from the source through the
    /// map, RMQ champion values from `C`, the plane from the source, which
    /// is then dropped): the built index, bit for bit. Fails with
    /// [`Error::InvalidSnapshot`] on structurally inconsistent state — a
    /// start count other than the text's stretch count, a factor past the
    /// source, or a character with no probability there included.
    pub fn from_snapshot(state: IndexState) -> Result<Self, Error> {
        if !canon::valid_tau(state.tau_min) {
            return Err(invalid("tau_min outside (0, 1]"));
        }
        let chars = &state.substrate.text.text;
        let map = FactorMap::new(chars, state.starts, state.source.len()).map_err(invalid)?;
        let probs = text_probs(&state.source, chars, &map)?;
        let substrate = Substrate::from_state(state.substrate, &probs)?;
        let mut idx = Self {
            plane: ProbPlane::build(&state.source),
            map,
            substrate,
            tau_min: state.tau_min,
            stats: state.stats,
        };
        idx.stats.heap_bytes = idx.heap_size();
        Ok(idx)
    }

    /// Construction statistics (transform expansion, timings, space).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The source uncertain string, rebuilt bit for bit from the plane.
    pub fn to_source(&self) -> UncertainString {
        self.plane.to_model()
    }

    /// Source position of the suffix starting at text position `x`, if it
    /// starts inside a factor.
    pub(crate) fn source_pos(&self, x: usize) -> Option<usize> {
        self.map.source_pos(x)
    }

    /// All positions of the source string where `pattern` matches with
    /// probability ≥ `tau` (requires `tau ≥ tau_min`). Positions are sorted;
    /// each carries its exact occurrence probability.
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<QueryResult, Error> {
        validate_query(pattern, tau, self.tau_min)?;
        let m = pattern.len();
        let Some((l, r)) = self.substrate.range(pattern) else {
            return Ok(QueryResult::default());
        };
        let log_tau = canon::ln(tau);
        let candidates = self.substrate.report(m, l, r, log_tau);
        // Reported probabilities are *canonical*: always recomputed from the
        // source model, never read off the stored prefix sums. The two agree
        // to float noise, but the canonical value is independent of the
        // transform's factor layout — so an index, a snapshot-loaded index,
        // and an executor that scans the source directly all report
        // bit-identical probabilities. (Under correlation the stored values
        // are only upper bounds, making the recomputation mandatory rather
        // than merely canonical.) Recomputation goes through the flat
        // `ProbPlane` kernel, pattern remapped to plane ranks once; the rule
        // decides on its log value, and `exp` of it runs for hits only.
        let mut hits: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
        if !candidates.is_empty() {
            let start = std::time::Instant::now();
            let evaluated = candidates.len() as u64;
            self.plane.with_kernel(pattern, |kernel| {
                for (x, _stored) in candidates {
                    let Some(src) = self.source_pos(x) else {
                        continue;
                    };
                    let log_p = kernel.log_match(src);
                    if canon::log_meets_threshold(log_p, log_tau) {
                        hits.push((src, canon::exp(log_p)));
                    }
                }
            });
            ustr_uncertain::kstats::record_scan_on(
                ustr_uncertain::kstats::ScanPath::Plane,
                evaluated,
                hits.len() as u64,
                ustr_uncertain::kstats::elapsed_ns(start),
            );
        }
        // A duplicate-masked level reports each source position once; the
        // blocking scheme and source-level masks under correlation may
        // repeat one, which `from_hits` drops.
        Ok(QueryResult::from_hits(hits))
    }

    /// The `k` most probable occurrences of `pattern` with probability
    /// ≥ `tau_min`: `query(pattern, tau_min)` ranked by
    /// [`crate::canonical_hit_order`] (probability ↓, position ↑) and cut at
    /// `k`. Best-first search over the RMQ levels.
    ///
    /// That candidate set and total order make the answer *canonical*:
    /// independent of heap arbitration among ties and identical for any
    /// other executor over the same document. Probabilities are recomputed
    /// from the source model (see [`Index::query`]).
    pub fn query_top_k(&self, pattern: &[u8], k: usize) -> Result<Vec<(usize, f64)>, Error> {
        crate::error::validate_pattern(pattern)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let Some((l, r)) = self.substrate.range(pattern) else {
            return Ok(Vec::new());
        };
        if self.plane.has_correlations() {
            // Stored values are only *upper bounds* under correlation —
            // arbitrarily far from the canonical probabilities, so the
            // best-first cut is not sound. Rank the full τmin threshold
            // answer (already canonical and exactly the documented candidate
            // set) instead.
            let mut out = self.query(pattern, self.tau_min)?.into_hits();
            out.sort_by(crate::canonical_hit_order);
            out.truncate(k);
            return Ok(out);
        }
        let (log_tau_min, m) = (canon::ln(self.tau_min), pattern.len());
        // The search also returns the k-th candidate's whole tie class, so
        // the cut is decided by the canonical order below, not by heap
        // arbitration among equal stored values.
        let floor = canon::log_cut(log_tau_min);
        let ranked = (self.substrate).top_k(m, l, r, k, floor, |x| self.source_pos(x));
        let mut out: Vec<(usize, f64)> = Vec::with_capacity(ranked.len());
        if !ranked.is_empty() {
            // The threshold query's final filter at τmin, so the candidate
            // set is exactly the τmin threshold answer.
            self.plane.with_kernel(pattern, |kernel| {
                for (src, _) in ranked {
                    let log_p = kernel.log_match(src);
                    if canon::log_meets_threshold(log_p, log_tau_min) {
                        out.push((src, canon::exp(log_p)));
                    }
                }
            });
        }
        out.sort_by(crate::canonical_hit_order);
        out.truncate(k);
        Ok(out)
    }

    /// Heap bytes held, per structure: a `(name, bytes)` row for every
    /// array the index keeps, each counted by capacity. The rows are the
    /// whole footprint, the model included (the plane is its one copy) —
    /// [`Index::heap_size`] is their sum.
    pub fn heap_breakdown(&self) -> [(&'static str, usize); 8] {
        let [arrays, child_table, cum, short, long] = self.substrate.heap_breakdown();
        let (rank, bases) = self.map.heap_sizes();
        [
            arrays,
            child_table,
            cum,
            short,
            long,
            ("separator rank", rank),
            ("factor bases", bases),
            ("model (plane)", self.plane.heap_size()),
        ]
    }

    /// Approximate heap footprint in bytes (Figure 9c): the sum of
    /// [`Index::heap_breakdown`].
    pub fn heap_size(&self) -> usize {
        self.heap_breakdown().iter().map(|&(_, bytes)| bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_baseline::NaiveScanner;

    fn figure_10_string() -> UncertainString {
        UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap()
    }

    #[test]
    fn figure_10_running_example() {
        let idx = Index::build(&figure_10_string(), 0.1).unwrap();
        let r = idx.query(b"QP", 0.4).unwrap();
        assert_eq!(r.positions(), vec![0]);
        assert!((r.hits()[0].1 - 0.49).abs() < 1e-9);
        // Both QP occurrences pass at tau = 0.2.
        let r = idx.query(b"QP", 0.2).unwrap();
        assert_eq!(r.positions(), vec![0, 1]);
    }

    #[test]
    fn agrees_with_scanner_exhaustively() {
        let s = figure_10_string();
        let idx = Index::build(&s, 0.1).unwrap();
        // All sentinel-free patterns over the observed alphabet up to len 4.
        let alphabet = [b'Q', b'S', b'P', b'A', b'F'];
        let mut patterns: Vec<Vec<u8>> = alphabet.iter().map(|&c| vec![c]).collect();
        for _ in 0..3 {
            let mut next = Vec::new();
            for p in &patterns {
                for &c in &alphabet {
                    let mut q = p.clone();
                    q.push(c);
                    next.push(q);
                }
            }
            patterns.extend(next);
        }
        for pattern in &patterns {
            for tau in [0.1, 0.15, 0.25, 0.4, 0.7] {
                let got = idx.query(pattern, tau).unwrap().positions();
                let expected = NaiveScanner::find(&s, pattern, tau);
                assert_eq!(
                    got,
                    expected,
                    "pattern {:?} tau {tau}",
                    String::from_utf8_lossy(pattern)
                );
            }
        }
    }

    #[test]
    fn deterministic_text_behaves_like_plain_search() {
        let s = UncertainString::deterministic(b"abracadabra");
        let idx = Index::build(&s, 0.5).unwrap();
        assert_eq!(idx.query(b"abra", 0.9).unwrap().positions(), vec![0, 7]);
        assert_eq!(
            idx.query(b"a", 0.9).unwrap().positions(),
            vec![0, 3, 5, 7, 10]
        );
        assert!(idx.query(b"zz", 0.9).unwrap().is_empty());
    }

    #[test]
    fn tau_below_tau_min_is_rejected() {
        let idx = Index::build(&figure_10_string(), 0.2).unwrap();
        assert!(matches!(
            idx.query(b"QP", 0.1),
            Err(Error::ThresholdBelowTauMin { .. })
        ));
    }

    #[test]
    fn long_patterns_on_mostly_deterministic_text() {
        // A long deterministic body with a few uncertain positions.
        let mut spec = String::new();
        let body = b"abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz";
        for (i, &c) in body.iter().enumerate() {
            if i > 0 {
                spec.push_str(" | ");
            }
            if i % 10 == 3 {
                spec.push_str(&format!(
                    "{}:.6,{}:.4",
                    c as char,
                    ((c - b'a' + 1) % 26 + b'a') as char
                ));
            } else {
                spec.push(c as char);
            }
        }
        let s = UncertainString::parse(&spec).unwrap();
        let idx = Index::build(&s, 0.05).unwrap();
        // A pattern of length 20 starting at 5 follows the most likely chars.
        let world = s.most_probable_world();
        let pattern = &world[5..25];
        let got = idx.query(pattern, 0.05).unwrap().positions();
        let expected = NaiveScanner::find(&s, pattern, 0.05);
        assert_eq!(got, expected);
    }

    #[test]
    fn probabilities_reported_are_exact() {
        let s = figure_10_string();
        let idx = Index::build(&s, 0.1).unwrap();
        for (pos, prob) in idx.query(b"P", 0.1).unwrap() {
            assert!((prob - s.match_probability(b"P", pos)).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_capture_transform_expansion() {
        let idx = Index::build(&figure_10_string(), 0.1).unwrap();
        let st = idx.stats();
        assert_eq!(st.source_len, 4);
        assert!(
            st.transformed_len > 4,
            "factors + separators expand the text"
        );
        assert!(st.num_factors >= 2);
        assert!(st.expansion() > 1.0);
        assert!(st.heap_bytes > 0);
    }

    /// The generated protein string with a correlation on the first choice
    /// of every 5th uncertain position, conditioned on the first choice of
    /// the position before it: pr⁺ above pr⁻ at every other one, below it
    /// at the rest.
    fn correlated(n: usize, seed: u64) -> UncertainString {
        use ustr_uncertain::{Correlation, CorrelationSet};
        use ustr_workload::{generate_string, DatasetConfig};
        let mut s = generate_string(&DatasetConfig::new(n, 0.3, seed));
        let mut set = CorrelationSet::new();
        let uncertain = (1..n).filter(|&q| s.position(q).num_choices() > 1);
        for (k, q) in uncertain.step_by(5).enumerate() {
            let (subject_char, p) = s.position(q).choices()[0];
            let (high, low) = ((p * 1.5).min(1.0), p * 0.5);
            let (p_present, p_absent) = if k % 2 == 0 { (high, low) } else { (low, high) };
            set.add(Correlation {
                subject_pos: q,
                subject_char,
                cond_pos: q - 1,
                cond_char: s.position(q - 1).choices()[0].0,
                p_present,
                p_absent,
            })
            .unwrap();
        }
        s.set_correlations(set).unwrap();
        s
    }

    /// A load sums `C` from the model through the factor map with the
    /// build's own code: its prefix sums are the built ones to the bit —
    /// correlation subjects at their bound (pr⁺ above pr⁻ and below it), a
    /// correlated certain position and a single choice just below 1.0
    /// included.
    #[test]
    fn a_loaded_c_is_the_built_c_bit_for_bit() {
        use ustr_uncertain::{Correlation, CorrelationSet};
        let mut fixture =
            UncertainString::parse("A:.6,B:.4 | C | A:.999999999999 | B:.5,C:.5").unwrap();
        let mut set = CorrelationSet::new();
        set.add(Correlation {
            subject_pos: 1,
            subject_char: b'C',
            cond_pos: 0,
            cond_char: b'A',
            p_present: 0.9,
            p_absent: 0.7,
        })
        .unwrap();
        fixture.set_correlations(set).unwrap();
        let bits = |index: &Index| -> Vec<u64> {
            let cum = &index.substrate.text().cum;
            cum.prefix().iter().map(|x| x.to_bits()).collect()
        };
        for (s, tau_min) in [
            (correlated(400, 13), 0.1),
            (correlated(2_000, 29), 0.1),
            (correlated(2_000, 43), 0.02),
            (fixture, 0.1),
        ] {
            // pr⁺ > pr⁻ per correlation: both orders (the fixture has one).
            let up: Vec<bool> = (s.correlations().iter())
                .map(|c| c.p_present > c.p_absent)
                .collect();
            assert!(up.contains(&true) && (up.contains(&false) || s.len() == 4));
            let built = Index::build(&s, tau_min).unwrap();
            let loaded = Index::from_snapshot(built.to_snapshot()).unwrap();
            assert_eq!(bits(&loaded), bits(&built));
        }
    }

    #[test]
    fn empty_source_string() {
        let s = UncertainString::new(Vec::new());
        let idx = Index::build(&s, 0.5).unwrap();
        assert!(idx.query(b"a", 0.5).unwrap().is_empty());
    }
}
