//! The correctness gate: what the answer to a request must be, computed by
//! the `ustr-baseline` scanner from the generated documents alone, and the
//! comparison of a served answer against it.
//!
//! A threshold answer must contain every occurrence with probability
//! clearly ≥ τ and nothing clearly below it (occurrences within
//! [`BOUNDARY`] of τ may fall either way: the scanner and the index apply
//! their tolerance in different domains). Top-k is checked against the
//! ranking of the τmin threshold answer, listing against each document's
//! maximum, and approx against the §7 sandwich `exact(τ) ⊆ answer ⊆
//! exact(τ − ε)`.

use std::collections::BTreeMap;

use ustr_baseline::NaiveScanner;
use ustr_service::{QueryRequest, QueryResponse};
use ustr_uncertain::{UncertainString, PROB_EPS};

use crate::data::pattern_of;

/// Every scan collects occurrences down to this probability; it is below
/// `τ − ε` for every τ any workload asks (τ ≥ 0.1, ε = 0.05).
pub const SCAN_FLOOR: f64 = 0.049;

/// Occurrences this close to a threshold may be reported or not.
const BOUNDARY: f64 = 2e-9;

/// All occurrences of one pattern with probability ≥ [`SCAN_FLOOR`], over
/// a set of `(document id, document)` pairs.
pub struct Truth {
    /// `(doc, pos) → probability`.
    hits: BTreeMap<(usize, usize), f64>,
}

impl Truth {
    pub fn scan<'a>(
        docs: impl IntoIterator<Item = (usize, &'a UncertainString)>,
        pattern: &[u8],
    ) -> Self {
        let mut hits = BTreeMap::new();
        for (id, doc) in docs {
            for (pos, p) in NaiveScanner::find_with_probs(doc, pattern, SCAN_FLOOR) {
                hits.insert((id, pos), p);
            }
        }
        Self { hits }
    }

    /// `Ok` when `resp` is a correct answer to `req` over the scanned
    /// documents; otherwise what is wrong with it.
    pub fn check(
        &self,
        req: &QueryRequest,
        resp: &QueryResponse,
        tau_min: f64,
        epsilon: f64,
    ) -> Result<(), String> {
        match (req, resp) {
            (QueryRequest::Threshold { tau, .. }, QueryResponse::Threshold(hits)) => {
                assert!(*tau - BOUNDARY >= SCAN_FLOOR);
                let got = hits
                    .iter()
                    .flat_map(|d| d.hits.iter().map(|&(pos, p)| ((d.doc, pos), p)));
                self.sandwich(got, *tau, *tau, 0.0)
            }
            (QueryRequest::Approx { tau, .. }, QueryResponse::Approx(hits)) => {
                assert!(*tau - epsilon - BOUNDARY >= SCAN_FLOOR);
                let got = hits
                    .iter()
                    .flat_map(|d| d.hits.iter().map(|&(pos, p)| ((d.doc, pos), p)));
                self.sandwich(got, *tau, *tau - epsilon, epsilon)
            }
            (QueryRequest::Listing { tau, .. }, QueryResponse::Listing(listed)) => {
                assert!(*tau - BOUNDARY >= SCAN_FLOOR);
                let mut best: BTreeMap<usize, f64> = BTreeMap::new();
                for (&(doc, _), &p) in &self.hits {
                    let slot = best.entry(doc).or_insert(0.0);
                    *slot = slot.max(p);
                }
                let got: BTreeMap<usize, f64> =
                    listed.iter().map(|h| (h.doc, h.relevance)).collect();
                if got.len() != listed.len() {
                    return Err("a document is listed twice".into());
                }
                for (doc, rel) in &got {
                    match best.get(doc) {
                        Some(&p) if (p - rel).abs() <= PROB_EPS && p >= *tau - BOUNDARY => {}
                        Some(&p) => {
                            return Err(format!(
                                "document {doc} listed with relevance {rel}, true maximum {p}"
                            ))
                        }
                        None => return Err(format!("document {doc} listed without an occurrence")),
                    }
                }
                for (doc, &p) in &best {
                    if p >= *tau + BOUNDARY && !got.contains_key(doc) {
                        return Err(format!("document {doc} (maximum {p}) is not listed"));
                    }
                }
                Ok(())
            }
            (QueryRequest::TopK { k, .. }, QueryResponse::TopK(top)) => {
                assert!(tau_min - BOUNDARY >= SCAN_FLOOR);
                let mut ranked: Vec<f64> = self
                    .hits
                    .values()
                    .copied()
                    .filter(|&p| p >= tau_min - BOUNDARY)
                    .collect();
                ranked.sort_by(|a, b| b.total_cmp(a));
                let sure = ranked.iter().filter(|&&p| p >= tau_min + BOUNDARY).count();
                if top.len() < sure.min(*k) || top.len() > ranked.len().min(*k) {
                    return Err(format!(
                        "top-{k} has {} entries, {} occurrence(s) qualify",
                        top.len(),
                        ranked.len()
                    ));
                }
                for (i, hit) in top.iter().enumerate() {
                    let Some(&p) = self.hits.get(&(hit.doc, hit.pos)) else {
                        return Err(format!(
                            "top-k entry ({}, {}) does not occur",
                            hit.doc, hit.pos
                        ));
                    };
                    if (p - hit.prob).abs() > PROB_EPS {
                        return Err(format!(
                            "top-k entry ({}, {}) has probability {}, true {p}",
                            hit.doc, hit.pos, hit.prob
                        ));
                    }
                    // Rank i must carry the i-th largest probability: ties
                    // may be ordered either way, values may not.
                    if (ranked[i] - hit.prob).abs() > PROB_EPS {
                        return Err(format!(
                            "rank {i} has probability {}, the ranking has {}",
                            hit.prob, ranked[i]
                        ));
                    }
                }
                Ok(())
            }
            _ => Err("response kind does not match the request".into()),
        }
    }

    /// `got` must contain every occurrence with probability clearly ≥
    /// `must_tau`, nothing clearly below `may_tau`, and report each
    /// probability at most `slack` below the true one.
    fn sandwich(
        &self,
        got: impl Iterator<Item = ((usize, usize), f64)>,
        must_tau: f64,
        may_tau: f64,
        slack: f64,
    ) -> Result<(), String> {
        let mut seen = BTreeMap::new();
        for (key, reported) in got {
            let Some(&p) = self.hits.get(&key) else {
                return Err(format!("{key:?} reported, but it does not occur"));
            };
            if p < may_tau - BOUNDARY {
                return Err(format!(
                    "{key:?} reported with true probability {p} < {may_tau}"
                ));
            }
            if reported > p + PROB_EPS || reported < p - slack - PROB_EPS {
                return Err(format!(
                    "{key:?} reported with probability {reported}, true {p}"
                ));
            }
            if seen.insert(key, reported).is_some() {
                return Err(format!("{key:?} reported twice"));
            }
        }
        for (key, &p) in &self.hits {
            if p >= must_tau + BOUNDARY && !seen.contains_key(key) {
                return Err(format!("{key:?} (probability {p}) is missing"));
            }
        }
        Ok(())
    }
}

/// The truth for every request of a pool, scanned once per request.
pub fn truths(docs: &[(usize, &UncertainString)], pool: &[QueryRequest]) -> Vec<Truth> {
    pool.iter()
        .map(|req| Truth::scan(docs.iter().copied(), pattern_of(req)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ustr_service::{DocHits, ListingHit, TopHit};

    fn docs() -> Vec<UncertainString> {
        vec![
            UncertainString::parse("A:.9,B:.1 | B | C").unwrap(),
            UncertainString::parse("C | C | C").unwrap(),
            UncertainString::parse("A:.5,B:.5 | B | C").unwrap(),
        ]
    }

    fn truth(pattern: &[u8]) -> Truth {
        let docs = docs();
        Truth::scan(docs.iter().enumerate(), pattern)
    }

    #[test]
    fn a_correct_threshold_answer_passes() {
        let req = QueryRequest::Threshold {
            pattern: b"AB".to_vec(),
            tau: 0.4,
        };
        let resp = QueryResponse::Threshold(Arc::new(vec![
            DocHits {
                doc: 0,
                hits: vec![(0, 0.9)],
            },
            DocHits {
                doc: 2,
                hits: vec![(0, 0.5)],
            },
        ]));
        assert_eq!(truth(b"AB").check(&req, &resp, 0.1, 0.05), Ok(()));
    }

    #[test]
    fn a_corrupted_answer_is_caught() {
        let req = QueryRequest::Threshold {
            pattern: b"AB".to_vec(),
            tau: 0.4,
        };
        // A missing occurrence, a wrong probability, and an invented one.
        for hits in [
            vec![DocHits {
                doc: 0,
                hits: vec![(0, 0.9)],
            }],
            vec![
                DocHits {
                    doc: 0,
                    hits: vec![(0, 0.8)],
                },
                DocHits {
                    doc: 2,
                    hits: vec![(0, 0.5)],
                },
            ],
            vec![
                DocHits {
                    doc: 0,
                    hits: vec![(0, 0.9)],
                },
                DocHits {
                    doc: 1,
                    hits: vec![(0, 0.5)],
                },
                DocHits {
                    doc: 2,
                    hits: vec![(0, 0.5)],
                },
            ],
        ] {
            let resp = QueryResponse::Threshold(Arc::new(hits));
            assert!(truth(b"AB").check(&req, &resp, 0.1, 0.05).is_err());
        }
    }

    #[test]
    fn top_k_is_checked_against_the_ranking() {
        let req = QueryRequest::TopK {
            pattern: b"AB".to_vec(),
            k: 1,
        };
        let best = QueryResponse::TopK(Arc::new(vec![TopHit {
            doc: 0,
            pos: 0,
            prob: 0.9,
        }]));
        let second = QueryResponse::TopK(Arc::new(vec![TopHit {
            doc: 2,
            pos: 0,
            prob: 0.5,
        }]));
        assert_eq!(truth(b"AB").check(&req, &best, 0.1, 0.05), Ok(()));
        assert!(truth(b"AB").check(&req, &second, 0.1, 0.05).is_err());
    }

    #[test]
    fn listing_and_approx_follow_their_definitions() {
        let list = QueryRequest::Listing {
            pattern: b"BC".to_vec(),
            tau: 0.9,
        };
        let listed = |docs: &[usize]| {
            QueryResponse::Listing(Arc::new(
                docs.iter()
                    .map(|&doc| ListingHit {
                        doc,
                        relevance: 1.0,
                    })
                    .collect(),
            ))
        };
        assert_eq!(
            truth(b"BC").check(&list, &listed(&[0, 2]), 0.1, 0.05),
            Ok(())
        );
        assert!(truth(b"BC").check(&list, &listed(&[0]), 0.1, 0.05).is_err());

        // Approx at τ = 0.52 with ε = 0.05 may report the 0.5 occurrence
        // (≥ τ − ε) or leave it out, but must report the 0.9 one.
        let approx = QueryRequest::Approx {
            pattern: b"AB".to_vec(),
            tau: 0.52,
        };
        let with = |docs: &[(usize, f64)]| {
            QueryResponse::Approx(Arc::new(
                docs.iter()
                    .map(|&(doc, p)| DocHits {
                        doc,
                        hits: vec![(0, p)],
                    })
                    .collect(),
            ))
        };
        let t = truth(b"AB");
        assert_eq!(
            t.check(&approx, &with(&[(0, 0.9), (2, 0.48)]), 0.1, 0.05),
            Ok(())
        );
        assert_eq!(t.check(&approx, &with(&[(0, 0.9)]), 0.1, 0.05), Ok(()));
        assert!(t.check(&approx, &with(&[(2, 0.5)]), 0.1, 0.05).is_err());
    }
}
