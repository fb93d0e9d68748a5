//! Construction output pinned bit for bit, on both sides of the size floor
//! above which the transform and the ε-link walk run as two halves on two
//! threads. The pins were taken from one-thread builds, so a split build
//! must reproduce them exactly; CI runs this file a second time pinned to
//! one core, where every pass runs serially, against the same numbers. The
//! link table itself is pinned in `ustr-core` (`the_link_table_is_pinned`),
//! where its rows are visible.

mod common;

use uncertain_strings::{
    uncertain::transform,
    workload::{generate_collection, generate_string, DatasetConfig},
    ApproxIndex, Correlation, CorrelationSet, ListingIndex, RelMetric, UncertainString,
};

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The generated protein string, or the same string with a correlation on
/// the first choice of every 5th uncertain position, conditioned on the
/// first choice of the position before it.
fn string(n: usize, correlated: bool) -> UncertainString {
    let mut s = generate_string(&DatasetConfig::new(n, 0.3, 43));
    if correlated {
        let mut set = CorrelationSet::new();
        let uncertain = (1..n).filter(|&q| s.position(q).num_choices() > 1);
        for q in uncertain.step_by(5) {
            let (subject_char, p) = s.position(q).choices()[0];
            set.add(Correlation {
                subject_pos: q,
                subject_char,
                cond_pos: q - 1,
                cond_char: s.position(q - 1).choices()[0].0,
                p_present: (p * 1.5).min(1.0),
                p_absent: p * 0.5,
            })
            .unwrap();
        }
        s.set_correlations(set).unwrap();
    }
    s
}

/// `(factors, length, hash over chars, probability bits and pos)`.
fn transform_pin(s: &UncertainString, tau_min: f64) -> (usize, usize, u64) {
    let t = transform(s, tau_min).unwrap();
    let mut h = Fnv::new();
    h.bytes(t.special.chars());
    for p in t.special.probs() {
        h.bytes(&p.to_bits().to_le_bytes());
    }
    for p in &t.pos {
        h.bytes(&p.to_le_bytes());
    }
    (t.num_factors, t.len(), h.0)
}

#[test]
fn transform_output_is_pinned() {
    let mut got = Vec::new();
    for n in [1_000, 10_000] {
        for correlated in [false, true] {
            let s = string(n, correlated);
            for tau_min in [0.1, 0.02] {
                got.push((n, correlated, tau_min, transform_pin(&s, tau_min)));
            }
        }
    }
    assert_eq!(
        got,
        [
            (1_000, false, 0.1, (899, 9_728, 4713046775027280895)),
            (1_000, false, 0.02, (5_019, 85_112, 5811878456152849344)),
            (1_000, true, 0.1, (953, 10_398, 8711992844845220187)),
            (1_000, true, 0.02, (5_217, 89_880, 18022505141767486396)),
            (10_000, false, 0.1, (8_677, 96_826, 15225427006247998173)),
            (10_000, false, 0.02, (49_574, 852_848, 9891462125370447527)),
            (10_000, true, 0.1, (9_238, 104_895, 16482453632746071046)),
            (10_000, true, 0.02, (52_140, 927_298, 17958402854889288342)),
        ]
    );
}

/// The answers of `ApproxIndex` at ε = 0.05 on the uncorrelated
/// 10 000-position string: `(hits, hash over each hit's position and
/// probability bits)` for the most probable reading of the string at every
/// 97th start, at six pattern lengths and four thresholds. Pinned before
/// the links' origins were keyed by the tree's own names, which must not
/// move an answer, and over an `Index`'s text before the links were built
/// only on their own, which must not either. The hash moved once, when the
/// link split went from prefix differences of `C` to the value codes'
/// canonical left-to-right sums: the same hits, each reporting its origin
/// window's canonical probability.
#[test]
fn approx_answers_are_pinned() {
    let s = string(10_000, false);
    let approx = ApproxIndex::build(&s, 0.1, 0.05).unwrap();
    let (mut hits, mut h) = (0, Fnv::new());
    for m in [1, 2, 3, 5, 8, 12] {
        for start in (0..s.len() - m).step_by(97) {
            let pattern: Vec<u8> = (start..start + m)
                .map(|q| s.position(q).most_probable().0)
                .collect();
            for tau in [0.1, 0.2, 0.4, 0.7] {
                for (pos, prob) in approx.query(&pattern, tau).unwrap() {
                    h.bytes(&(pos as u64).to_le_bytes());
                    h.bytes(&prob.to_bits().to_le_bytes());
                    hits += 1;
                }
            }
        }
    }
    assert_eq!((hits, h.0), (279_541, 3405156099072796761));
}

/// The answers of `ListingIndex` at τmin = 0.1 over a generated collection
/// of 4 000 positions, with and without `common::with_correlations` on
/// every document: `(hits, hash over each hit's document and relevance
/// bits)` under `Rel_max` and `Rel_OR` for the most probable reading of
/// the collection at every 29th start of every document, at five pattern
/// lengths and four thresholds. Pinned over the per-document planes, with
/// one kernel per document a query touched, before the index verified
/// through one plane over the collection, which must not move a bit.
#[test]
fn listing_answers_are_pinned() {
    let mut got = Vec::new();
    for correlated in [false, true] {
        let mut docs = generate_collection(&DatasetConfig::new(4_000, 0.3, 43));
        if correlated {
            docs = docs.into_iter().map(common::with_correlations).collect();
        }
        let listing = ListingIndex::build(&docs, 0.1).unwrap();
        for metric in [RelMetric::Max, RelMetric::Or] {
            let (mut hits, mut h) = (0, Fnv::new());
            for m in [1, 2, 3, 5, 8] {
                for doc in &docs {
                    for start in (0..doc.len().saturating_sub(m)).step_by(29) {
                        let pattern: Vec<u8> = (start..start + m)
                            .map(|q| doc.position(q).most_probable().0)
                            .collect();
                        for tau in [0.1, 0.2, 0.4, 0.7] {
                            for hit in listing.query_with_metric(&pattern, tau, metric).unwrap() {
                                h.bytes(&(hit.doc as u64).to_le_bytes());
                                h.bytes(&hit.relevance.to_bits().to_le_bytes());
                                hits += 1;
                            }
                        }
                    }
                }
            }
            got.push((correlated, metric, hits, h.0));
        }
    }
    assert_eq!(
        got,
        [
            (false, RelMetric::Max, 96_840, 4150858921188894046),
            (false, RelMetric::Or, 97_996, 3438174838647562859),
            (true, RelMetric::Max, 96_824, 10289102496832396104),
            (true, RelMetric::Or, 97_988, 10594577402539896450),
        ]
    );
}
