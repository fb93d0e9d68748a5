//! The per-segment execution layer shared by every service front end.
//!
//! A collection — static ([`crate::QueryService`]) or mutable
//! (`ustr-live`'s `LiveService`) — is served as an ordered sequence of
//! [`Segment`]s, each holding `(doc id, executor)` pairs in ascending doc
//! order and a bigram [`DocFilter`] over them. One function
//! ([`Segment::answer`]) evaluates any [`QueryRequest`] over a segment,
//! visiting only the documents whose bigram sets hold every bigram of the
//! pattern (all of them at `m = 1`), built or scanned alike: the others
//! answer nothing in any mode, so the filter changes no answer. One
//! function ([`merge_partials`]) deterministically reassembles per-segment
//! partials into the final [`QueryResponse`]. Both services share these
//! code paths, which is what makes their answers identical for identical
//! document sets.
//!
//! Every executor's probabilities are the kernel's canonical sums of the
//! model's `ln` values in window order ([`ustr_uncertain::ProbPlane`]), so
//! a query answered here matches the naive `match_probability` evaluation
//! bit for bit. A scan and a correlated document's index verify their
//! candidates through the kernel. An uncorrelated document's index keeps
//! its window values with no kernel call: they are the same sums, its
//! text's value codes added in the kernel's order from the same table of
//! `canon::ln` values.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use ustr_baseline::ScanIndex;
use ustr_core::{Error, Index, ListingHit};
use ustr_store::{collection, Section, Snapshot, SnapshotKind, StoreError, StoreIo, Writer};
use ustr_uncertain::UncertainString;

use crate::filter::DocFilter;
use crate::{DocHits, QueryRequest, QueryResponse, SharedHits, TopHit};

/// How one document is queried: through its built index, or by scanning
/// the source string. `Scanned` is the serving strategy for documents too
/// young to have been indexed (a live memtable).
///
/// **Interchangeability contract:** both variants over the same document
/// with the same `τmin` return **bit-identical** answers from every method.
/// That holds because answers are *canonical*: a probability is the sum of
/// the model's `ln` values over the window, in window order, and both
/// decide on that value by the one threshold rule
/// ([`ustr_uncertain::canon::log_meets_threshold`]). A scan, and the index
/// of a correlated document, take the sum through the plane kernel; the
/// index of an uncorrelated document keeps it from its window values, which
/// sum the text's value codes in the kernel's order over the same table of
/// `canon::ln` values, so their bits agree. A document answers
/// alike before and after a seal, correlated or not; top-k uses the total
/// [`ustr_core::canonical_hit_order`], so ties at the cut are never left to
/// implementation arbitration; and the top-k candidate set is exactly the
/// threshold answer at `τmin`. Both answer [`DocExecutor::approx`] exactly,
/// through [`DocExecutor::threshold`]: the exact answer keeps §7's
/// ε-sandwich (every position at τ or above, none below τ − ε) for every ε.
// Executors always live behind an `Arc` in a `Segment`, so the size
// difference between a built index and a bare scan wrapper is paid once per
// document, not per handle.
#[allow(clippy::large_enum_variant)]
pub enum DocExecutor {
    /// The paper's built index.
    Built {
        /// The exact substring index (serves every mode).
        index: Index,
    },
    /// A scan of the source document.
    Scanned(ScanIndex),
}

impl DocExecutor {
    /// Builds the paper's substring index for one document.
    pub fn build(source: &UncertainString, tau_min: f64) -> Result<Self, Error> {
        let index = Index::build(source, tau_min)?;
        Ok(DocExecutor::Built { index })
    }

    /// The document this executor answers for, rebuilt bit for bit from
    /// its plane.
    pub fn to_source(&self) -> UncertainString {
        match self {
            DocExecutor::Built { index, .. } => index.to_source(),
            DocExecutor::Scanned(scan) => scan.to_source(),
        }
    }

    /// The smallest τ the document accepts.
    pub fn tau_min(&self) -> f64 {
        match self {
            DocExecutor::Built { index, .. } => index.tau_min(),
            DocExecutor::Scanned(scan) => scan.tau_min(),
        }
    }

    /// Threshold occurrences, sorted by position.
    pub fn threshold(&self, pattern: &[u8], tau: f64) -> Result<Vec<(usize, f64)>, Error> {
        match self {
            DocExecutor::Built { index, .. } => Ok(index.query(pattern, tau)?.into_hits()),
            DocExecutor::Scanned(scan) => scan.threshold_hits(pattern, tau),
        }
    }

    /// The document's top-k occurrences in `(probability ↓, position ↑)`
    /// order.
    pub fn top_k(&self, pattern: &[u8], k: usize) -> Result<Vec<(usize, f64)>, Error> {
        match self {
            DocExecutor::Built { index, .. } => index.query_top_k(pattern, k),
            DocExecutor::Scanned(scan) => scan.top_k_hits(pattern, k),
        }
    }

    /// §7 ε-approximate occurrences, for any ε: the exact threshold answer.
    pub fn approx(&self, pattern: &[u8], tau: f64) -> Result<Vec<(usize, f64)>, Error> {
        self.threshold(pattern, tau)
    }

    /// Heap bytes the executor holds: a built document's index, a scanned
    /// one's plane and bigram set. The shard planner's weight.
    pub fn heap_size(&self) -> usize {
        match self {
            DocExecutor::Built { index } => index.heap_size(),
            DocExecutor::Scanned(scan) => {
                scan.plane().heap_size() + std::mem::size_of_val(scan.bigrams())
            }
        }
    }

    /// The document's bigram set at its τmin, its column in a
    /// [`DocFilter`]: a built index derives it from its plane, a scan holds
    /// the one it derived when it was made.
    pub fn bigrams(&self) -> Cow<'_, [[u8; 2]]> {
        match self {
            DocExecutor::Built { index } => Cow::Owned(index.plane().bigrams(index.tau_min())),
            DocExecutor::Scanned(scan) => Cow::Borrowed(scan.bigrams()),
        }
    }
}

fn corrupt(detail: String) -> StoreError {
    StoreError::Corrupt { detail }
}

/// Writes `docs` as one `.coll` file ([`ustr_store::collection`]): per
/// document, in rank order, its substring-index section. Static collection
/// snapshots and live sealed segments are both written here — and read
/// back by [`load_coll`] — so they are the same artifact. Only built
/// executors have a persistent form.
pub fn save_coll<'a>(
    io: &dyn StoreIo,
    path: &Path,
    docs: impl IntoIterator<Item = &'a DocExecutor>,
) -> Result<(), StoreError> {
    let mut payloads = Vec::new();
    for doc in docs {
        let DocExecutor::Built { index } = doc else {
            return Err(corrupt(format!(
                "document {} is scan-served: only built indexes can be saved",
                payloads.len()
            )));
        };
        let mut w = Writer::new();
        index.encode_payload(&mut w);
        payloads.push(w.into_bytes());
    }
    let sections: Vec<Section> = (payloads.iter().enumerate())
        .map(|(doc, payload)| Section {
            doc,
            kind: SnapshotKind::Index,
            payload,
        })
        .collect();
    collection::save_collection_file(io, path, payloads.len(), &sections)
}

/// Reads a `.coll` file written by [`save_coll`]: one built executor per
/// document, in rank order, decoded straight from the file's buffer. A
/// well-formed container with the wrong contents — a section count other
/// than its document count, a section out of document order — is
/// [`StoreError::Corrupt`], never a panic.
pub fn load_coll(io: &dyn StoreIo, path: &Path) -> Result<Vec<DocExecutor>, StoreError> {
    collection::load_collection_file(io, path, |coll| {
        let (n, sections) = (coll.num_docs, coll.sections);
        if sections.len() != n {
            let m = sections.len();
            return Err(corrupt(format!("{m} sections for {n} documents")));
        }
        (sections.iter().enumerate())
            .map(|(rank, section)| {
                if section.doc != rank {
                    let doc = section.doc;
                    return Err(corrupt(format!("section {rank} holds document {doc}")));
                }
                let index = section.decode(Index::decode_payload)?;
                Ok(DocExecutor::Built { index })
            })
            .collect()
    })
}

/// One unit of query fan-out: a contiguous run of documents (ascending doc
/// ids), each with its executor, and their bigram [`DocFilter`]. The static
/// service's shards and the live service's sealed segments + memtable are
/// all `Segment`s.
pub struct Segment {
    /// `(doc_id, executor)` pairs in ascending doc order. The filter's
    /// document `i` is the `i`-th pair: replace the pairs, replace the
    /// segment.
    pub docs: Vec<(usize, Arc<DocExecutor>)>,
    /// Which documents can hold a pattern.
    filter: DocFilter,
}

/// One segment's (partial) answer to one request.
pub enum ShardPartial {
    /// Threshold / approx occurrences, in ascending doc order.
    Hits(Vec<DocHits>),
    /// The segment-local top-k, already in [`top_hit_order`].
    TopK(Vec<TopHit>),
    /// Listed documents, in ascending doc order.
    Listing(Vec<ListingHit>),
}

/// Total order for top-k answers: probability descending, then `(doc, pos)`
/// ascending — a deterministic tie-break so parallel merges are stable.
pub fn top_hit_order(a: &TopHit, b: &TopHit) -> std::cmp::Ordering {
    b.prob
        .partial_cmp(&a.prob)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.doc.cmp(&b.doc))
        .then(a.pos.cmp(&b.pos))
}

impl Segment {
    /// The segment of `docs`, with the filter built over them.
    pub fn new(docs: Vec<(usize, Arc<DocExecutor>)>) -> Self {
        let filter = DocFilter::build(docs.iter().map(|(_, d)| d.as_ref()));
        Self::with_filter(docs, filter)
    }

    /// The segment of `docs` with a filter already built over them, its
    /// document `i` the `i`-th.
    pub fn with_filter(docs: Vec<(usize, Arc<DocExecutor>)>, filter: DocFilter) -> Self {
        debug_assert_eq!(filter.docs(), docs.len());
        Self { docs, filter }
    }

    /// Heap bytes held, per structure: the executors' (shared with every
    /// other segment over the same documents), the filter's, and the
    /// `(doc, executor)` pairs'. [`Segment::heap_size`] is their sum.
    pub fn heap_breakdown(&self) -> [(&'static str, usize); 3] {
        let pairs = self.docs.capacity() * std::mem::size_of::<(usize, Arc<DocExecutor>)>();
        [
            (
                "executors",
                self.docs.iter().map(|(_, d)| d.heap_size()).sum(),
            ),
            ("document filter", self.filter.heap_size()),
            ("documents", pairs),
        ]
    }

    /// Heap bytes held: the sum of [`Segment::heap_breakdown`].
    pub fn heap_size(&self) -> usize {
        self.heap_breakdown().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Calls `visit(doc, executor)`, in doc order, for every document the
    /// filter passes for `pattern`, and stops at the first error.
    fn visit(
        &self,
        pattern: &[u8],
        mut visit: impl FnMut(usize, &DocExecutor) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.filter
            .for_each_passed(pattern, |i| match self.docs.get(i) {
                Some((doc, d)) => visit(*doc, d),
                None => Err(Error::internal("the document filter outgrew its segment")),
            })
    }

    /// `row(doc, hits)` of every document the filter passes whose `hits`
    /// answer is not empty, in doc order.
    fn rows<T>(
        &self,
        pattern: &[u8],
        hits: impl Fn(&DocExecutor) -> Result<Vec<(usize, f64)>, Error>,
        row: impl Fn(usize, Vec<(usize, f64)>) -> T,
    ) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        self.visit(pattern, |doc, d| {
            let hits = hits(d)?;
            if !hits.is_empty() {
                out.push(row(doc, hits));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Sequentially answers a validated `req` ([`crate::validate_request`])
    /// over the documents the filter passes for its pattern: the others
    /// answer nothing in any mode.
    pub fn answer(&self, req: &QueryRequest) -> Result<ShardPartial, Error> {
        let doc_hits = |doc, hits| DocHits { doc, hits };
        match req {
            // `Approx` is answered exactly (`DocExecutor::approx`).
            QueryRequest::Threshold { pattern, tau } | QueryRequest::Approx { pattern, tau } => {
                let hits = self.rows(pattern, |d| d.threshold(pattern, *tau), doc_hits);
                hits.map(ShardPartial::Hits)
            }
            QueryRequest::TopK { pattern, k } => {
                // Any global top-k hit is inside its document's top-k, so
                // per-doc truncation loses nothing.
                let mut all = Vec::new();
                self.visit(pattern, |doc, d| {
                    let hits = d.top_k(pattern, *k)?;
                    all.extend(
                        hits.into_iter()
                            .map(|(pos, prob)| TopHit { doc, pos, prob }),
                    );
                    Ok(())
                })?;
                all.sort_by(top_hit_order);
                all.truncate(*k);
                Ok(ShardPartial::TopK(all))
            }
            // `Rel_max`: a document's best threshold hit.
            QueryRequest::Listing { pattern, tau } => self
                .rows(
                    pattern,
                    |d| d.threshold(pattern, *tau),
                    |doc, hits| ListingHit {
                        doc,
                        relevance: hits
                            .iter()
                            .map(|&(_, p)| p)
                            .fold(f64::NEG_INFINITY, f64::max),
                    },
                )
                .map(ShardPartial::Listing),
        }
    }
}

/// Merges per-segment partial answers (already in segment = ascending doc
/// order) into the response for `req`. Used identically by the parallel
/// and sequential paths — and by both the static and the live service —
/// which is what makes them all answer-identical.
pub fn merge_partials(req: &QueryRequest, parts: Vec<ShardPartial>) -> QueryResponse {
    match req {
        QueryRequest::Threshold { .. } | QueryRequest::Approx { .. } => {
            let mut merged = Vec::new();
            for p in parts {
                if let ShardPartial::Hits(mut h) = p {
                    merged.append(&mut h);
                }
            }
            let shared: SharedHits = Arc::new(merged);
            match req {
                QueryRequest::Threshold { .. } => QueryResponse::Threshold(shared),
                _ => QueryResponse::Approx(shared),
            }
        }
        QueryRequest::TopK { k, .. } => {
            let mut all = Vec::new();
            for p in parts {
                if let ShardPartial::TopK(mut h) = p {
                    all.append(&mut h);
                }
            }
            all.sort_by(top_hit_order);
            all.truncate(*k);
            QueryResponse::TopK(Arc::new(all))
        }
        QueryRequest::Listing { .. } => {
            let mut merged = Vec::new();
            for p in parts {
                if let ShardPartial::Listing(mut h) = p {
                    merged.append(&mut h);
                }
            }
            QueryResponse::Listing(Arc::new(merged))
        }
    }
}
