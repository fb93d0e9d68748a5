//! Per-layer probes shared by the workloads' traced runs: the build and
//! kernel costs of `uncertain`, `suffix`, `rmq` and `core`, each measured
//! by calling the crate's public functions directly on the workload's own
//! documents. Which end-to-end metric each should move is tabulated in
//! `README.md`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ustr_core::{ApproxIndex, Index, ListingIndex};
use ustr_rmq::{report_above, BlockRmq, Direction, Rmq, SampledRmq};
use ustr_service::{
    top_hit_order, DocExecutor, DocHits, ListingHit, QueryRequest, QueryResponse, Segment, TopHit,
};
use ustr_suffix::{lcp_array, suffix_array, SuffixTree};
use ustr_uncertain::{transform, ProbPlane, UncertainString, PROB_EPS};

use crate::data::{pattern_of, positions, EPSILON, TAU_MIN};
use crate::report::Report;
use crate::stats::Summary;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and summarizes `scale × seconds` per run.
fn timed(reps: usize, scale: f64, mut f: impl FnMut()) -> Summary {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t) * scale
        })
        .collect();
    Summary::of_epochs(&runs, reps)
}

/// Heap bytes of the exact per-document indexes (`Index::heap_size`) that
/// `segments` answer from: the paper's space cost as a service holds it.
/// Scanned (memtable) documents have no index and count nothing.
pub fn index_heap_bytes(segments: &[Arc<Segment>]) -> usize {
    segments
        .iter()
        .flat_map(|s| s.docs.iter())
        .map(|(_, doc)| match doc.as_ref() {
            DocExecutor::Built { index, .. } => index.heap_size(),
            DocExecutor::Scanned(_) => 0,
        })
        .sum()
}

/// SplitMix64: the probes' own value stream, seeded from `--seed`.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `uncertain.*` build costs and `suffix.*`: the Lemma-2 transform, the
/// probability plane, SA-IS, Kasai LCP and the suffix tree, over every
/// document. Returns (transform, plane, tree) µs per position so the
/// caller can label what is left of `Index::build` as the levels residual.
pub fn probe_substrate(
    report: &mut Report,
    docs: &[UncertainString],
    reps: usize,
) -> (f64, f64, f64) {
    let n = positions(docs) as f64;
    let per_pos = 1e6 / n;

    let transformed: Vec<_> = docs
        .iter()
        .map(|d| transform(d, TAU_MIN).expect("generated documents transform"))
        .collect();
    let chars: usize = transformed.iter().map(|t| t.len()).sum();
    report.exact("uncertain.expansion", chars as f64 / n);
    let t_transform = timed(reps, per_pos, || {
        for d in docs {
            black_box(transform(d, TAU_MIN).expect("generated documents transform"));
        }
    });
    report.put("uncertain.transform_us_per_pos", t_transform);
    let t_plane = timed(reps, per_pos, || {
        for d in docs {
            black_box(ProbPlane::build(d));
        }
    });
    report.put("uncertain.plane_build_us_per_pos", t_plane);

    let texts: Vec<Vec<u8>> = transformed
        .iter()
        .map(|t| t.special.chars().to_vec())
        .collect();
    let per_char = 1e9 / chars as f64;
    report.put(
        "suffix.sais_ns_per_char",
        timed(reps, per_char, || {
            for t in &texts {
                black_box(suffix_array(t));
            }
        }),
    );
    let arrays: Vec<Vec<u32>> = texts.iter().map(|t| suffix_array(t)).collect();
    report.put(
        "suffix.lcp_ns_per_char",
        timed(reps, per_char, || {
            for (t, sa) in texts.iter().zip(&arrays) {
                black_box(lcp_array(t, sa));
            }
        }),
    );
    let mut tree_runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        // `build` takes the text by value; the copies are made outside
        // the timed region.
        let copies = texts.clone();
        let t = Instant::now();
        for text in copies {
            black_box(SuffixTree::build(text));
        }
        tree_runs.push(secs(t) * per_pos);
    }
    let t_tree = Summary::of_epochs(&tree_runs, reps);
    report.put("suffix.tree_build_us_per_pos", t_tree);
    (t_transform.value, t_plane.value, t_tree.value)
}

/// `uncertain.kernel_ns_per_candidate`: `MatchKernel::log_match_bounded`
/// over `candidates()` for every pattern over every document's plane —
/// the scan a memtable document is served by, and the verification step
/// of every index query.
pub fn probe_kernel(
    report: &mut Report,
    docs: &[UncertainString],
    patterns: &[&[u8]],
    tau: f64,
    epochs: usize,
    passes: usize,
) {
    let planes: Vec<ProbPlane> = docs.iter().map(ProbPlane::build).collect();
    let log_tau = tau.ln();
    let mut per_epoch = Vec::with_capacity(epochs);
    let mut candidates = 0u64;
    for epoch in 0..=epochs {
        // Epoch 0 is the discarded warm-up.
        let passes = if epoch == 0 { 1 } else { passes };
        candidates = 0;
        let t = Instant::now();
        for _ in 0..passes {
            for pattern in patterns {
                for plane in &planes {
                    if plane.len() < pattern.len() {
                        continue;
                    }
                    let limit = plane.len() - pattern.len() + 1;
                    plane.with_kernel(pattern, |kernel| {
                        for pos in kernel.candidates(limit) {
                            candidates += 1;
                            black_box(kernel.log_match_bounded(pos, log_tau));
                        }
                    });
                }
            }
        }
        if epoch > 0 {
            per_epoch.push(secs(t) * 1e9 / candidates.max(1) as f64);
        }
    }
    report.put(
        "uncertain.kernel_ns_per_candidate",
        Summary::of_epochs(&per_epoch, candidates as usize * epochs),
    );
}

/// `rmq.*` on arrays of the size the workload's indexes hold: `len`
/// elements (the transformed length of one document), rebuilt `arrays`
/// times per repetition so small documents still time measurably.
pub fn probe_rmq(report: &mut Report, len: usize, seed: u64, reps: usize) {
    let len = len.max(64);
    let arrays = (200_000 / len).max(1);
    let mut state = seed ^ 0x726d71;
    // Log-probabilities like the levels hold: (−5, 0].
    let values: Vec<f64> = (0..len)
        .map(|_| -5.0 * (next_u64(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let at = |i: usize| values[i];

    let elems = (arrays * len * 2) as f64;
    report.put(
        "rmq.build_ns_per_elem",
        timed(reps, 1e9 / elems, || {
            for _ in 0..arrays {
                black_box(BlockRmq::new(&values, Direction::Max));
                black_box(SampledRmq::new(len, Direction::Max, &at));
            }
        }),
    );

    let block = BlockRmq::new(&values, Direction::Max);
    let sampled = SampledRmq::new(len, Direction::Max, &at);
    let ranges: Vec<(usize, usize)> = (0..4096)
        .map(|_| {
            let a = (next_u64(&mut state) % len as u64) as usize;
            let b = (next_u64(&mut state) % len as u64) as usize;
            (a.min(b), a.max(b))
        })
        .collect();
    let rounds = 50;
    report.put(
        "rmq.query_ns",
        timed(reps, 1e9 / (rounds * ranges.len() * 2) as f64, || {
            for _ in 0..rounds {
                for &(l, r) in &ranges {
                    black_box(block.query(l, r));
                    black_box(sampled.query_with(l, r, &at));
                }
            }
        }),
    );

    // Report everything above the value a tenth of the elements exceed.
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    let threshold = sorted[len - len / 10 - 1];
    let hits = report_above(
        0,
        len - 1,
        threshold,
        Direction::Max,
        |l, r| block.query(l, r),
        at,
    )
    .len();
    report.put(
        "rmq.report_ns_per_hit",
        timed(reps, 1e9 / (arrays * hits.max(1)) as f64, || {
            for _ in 0..arrays {
                black_box(report_above(
                    0,
                    len - 1,
                    threshold,
                    Direction::Max,
                    |l, r| block.query(l, r),
                    at,
                ));
            }
        }),
    );
}

/// Build cost and heap footprint of the three `core` indexes over one
/// workload's documents.
pub struct CoreBuilds {
    /// µs per source position of `Index::build`, `ApproxIndex::build`
    /// (both summed over `index_docs`) and `ListingIndex::build`.
    pub index: Summary,
    pub approx: Summary,
    pub listing: Summary,
    /// Heap bytes per source position of the same three.
    pub index_heap: f64,
    pub approx_heap: f64,
    pub listing_heap: f64,
}

impl CoreBuilds {
    /// Builds one `Index` and one `ApproxIndex` per document of
    /// `index_docs` and one `ListingIndex` over `listing_docs`, `reps`
    /// times each.
    pub fn measure(
        index_docs: &[UncertainString],
        listing_docs: &[UncertainString],
        reps: usize,
    ) -> Self {
        let n = positions(index_docs) as f64;
        let listing_n = positions(listing_docs) as f64;
        let (mut index_heap, mut approx_heap, mut listing_heap) = (0usize, 0usize, 0usize);
        let index = timed(reps, 1e6 / n, || {
            index_heap = index_docs
                .iter()
                .map(|d| Index::build(d, TAU_MIN).expect("index builds").heap_size())
                .sum();
        });
        let approx = timed(reps, 1e6 / n, || {
            approx_heap = index_docs
                .iter()
                .map(|d| {
                    ApproxIndex::build(d, TAU_MIN, EPSILON)
                        .expect("approx index builds")
                        .stats()
                        .heap_bytes
                })
                .sum();
        });
        let listing = timed(reps, 1e6 / listing_n, || {
            listing_heap = ListingIndex::build(listing_docs, TAU_MIN)
                .expect("listing index builds")
                .heap_size();
        });
        Self {
            index,
            approx,
            listing,
            index_heap: index_heap as f64 / n,
            approx_heap: approx_heap as f64 / n,
            listing_heap: listing_heap as f64 / listing_n,
        }
    }

    /// Reports `core.*_build_us_per_pos` and `core.*_heap_bytes_per_pos`.
    /// `substrate` is [`probe_substrate`]'s result; what `Index::build`
    /// takes beyond those three phases is the levels residual.
    pub fn report(&self, report: &mut Report, substrate: (f64, f64, f64)) {
        report.put("core.index_build_us_per_pos", self.index);
        report.put("core.approx_build_us_per_pos", self.approx);
        report.put("core.listing_build_us_per_pos", self.listing);
        let (transform_us, plane_us, tree_us) = substrate;
        // A residual, not a measurement: it holds the level structures,
        // the cumulative array and glue.
        report.exact(
            "core.levels_build_us_per_pos",
            self.index.value - transform_us - plane_us - tree_us,
        );
        report.exact("core.index_heap_bytes_per_pos", self.index_heap);
        report.exact("core.approx_heap_bytes_per_pos", self.approx_heap);
        report.exact("core.listing_heap_bytes_per_pos", self.listing_heap);
    }
}

/// The exact answer computed with nothing but each document's plane
/// kernel (`candidates()` + `log_match_bounded`), and the number of
/// candidates it evaluated.
pub fn answer_via_kernel(
    planes: &[(usize, ProbPlane)],
    req: &QueryRequest,
) -> (QueryResponse, u64) {
    let pattern = pattern_of(req);
    let tau = match req {
        QueryRequest::Threshold { tau, .. }
        | QueryRequest::Listing { tau, .. }
        | QueryRequest::Approx { tau, .. } => *tau,
        QueryRequest::TopK { .. } => TAU_MIN,
    };
    let log_tau = tau.ln();
    let mut candidates = 0u64;
    let mut per_doc: Vec<DocHits> = Vec::new();
    for (doc, plane) in planes {
        if plane.len() < pattern.len() {
            continue;
        }
        let mut hits = Vec::new();
        plane.with_kernel(pattern, |kernel| {
            for pos in kernel.candidates(plane.len() - pattern.len() + 1) {
                candidates += 1;
                if let Some(log_p) = kernel.log_match_bounded(pos, log_tau) {
                    let p = log_p.exp();
                    if p >= tau - PROB_EPS {
                        hits.push((pos, p));
                    }
                }
            }
        });
        if !hits.is_empty() {
            per_doc.push(DocHits { doc: *doc, hits });
        }
    }
    let resp = match req {
        QueryRequest::Threshold { .. } => QueryResponse::Threshold(Arc::new(per_doc)),
        QueryRequest::Approx { .. } => QueryResponse::Approx(Arc::new(per_doc)),
        QueryRequest::Listing { .. } => QueryResponse::Listing(Arc::new(
            per_doc
                .iter()
                .map(|d| ListingHit {
                    doc: d.doc,
                    relevance: d.hits.iter().map(|&(_, p)| p).fold(0.0, f64::max),
                })
                .collect(),
        )),
        QueryRequest::TopK { k, .. } => {
            let mut all: Vec<TopHit> = per_doc
                .iter()
                .flat_map(|d| {
                    d.hits.iter().map(|&(pos, prob)| TopHit {
                        doc: d.doc,
                        pos,
                        prob,
                    })
                })
                .collect();
            all.sort_by(top_hit_order);
            all.truncate(*k);
            QueryResponse::TopK(Arc::new(all))
        }
    };
    (resp, candidates)
}

/// One plane per document, keyed by document id (position in `docs`).
pub fn planes_of(docs: &[UncertainString]) -> Vec<(usize, ProbPlane)> {
    docs.iter().map(ProbPlane::build).enumerate().collect()
}
