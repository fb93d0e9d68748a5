//! The per-segment execution layer shared by every service front end.
//!
//! A collection — static ([`crate::QueryService`]) or mutable
//! (`ustr-live`'s `LiveService`) — is served as an ordered sequence of
//! [`Segment`]s, each holding `(doc id, executor)` pairs in ascending doc
//! order. One function ([`Segment::answer`]) evaluates any
//! [`QueryRequest`] over a segment; one function ([`merge_partials`])
//! deterministically reassembles per-segment partials into the final
//! [`QueryResponse`]. Both services share these code paths, which is what
//! makes their answers identical for identical document sets.
//!
//! Per-candidate verification inside every executor — built index or scan —
//! runs on the flat [`ustr_uncertain::ProbPlane`] kernel (pattern remapped
//! to plane ranks once per document per query, thread-local scratch, no
//! per-candidate allocation), so the whole serving stack inherits the
//! kernel's bit-identity contract: a query answered here matches the naive
//! `match_probability` evaluation bit for bit.

use std::path::Path;
use std::sync::Arc;

use ustr_baseline::ScanIndex;
use ustr_core::{ApproxIndex, Error, Index, ListingHit};
use ustr_store::{
    collection, decode_links_payload, encode_links_payload, Section, Snapshot, SnapshotKind,
    StoreError, StoreIo, Writer,
};
use ustr_uncertain::UncertainString;

use crate::{DocHits, QueryRequest, QueryResponse, SharedHits, TopHit};

/// How one document is queried: through built index structures, or by
/// scanning the source string. `Scanned` is the serving strategy for
/// documents too young to have been indexed (a live memtable).
///
/// **Interchangeability contract:** both variants over the same document
/// with the same `τmin` return **bit-identical** answers from every method
/// but [`DocExecutor::approx`] with ε. That holds because answers are
/// *canonical*: probabilities are always recomputed from the source model
/// through the plane kernel, never read off an execution structure's
/// internal arithmetic, and both decide on that value by the one threshold
/// rule ([`ustr_uncertain::canon::log_meets_threshold`]), so a document
/// answers alike before and after a seal, correlated or not; top-k uses the
/// total [`ustr_core::canonical_hit_order`], so ties at the cut are never
/// left to implementation arbitration; and the top-k candidate set is
/// exactly the threshold answer at `τmin`. An `approx` answer of a built
/// document with ε comes from its ε-links and a scanned one's is exact: the
/// two differ, and both keep the ε-sandwich (every position at τ or above,
/// none below τ − ε).
// Executors always live behind an `Arc` in a `Segment`, so the size
// difference between a built index bundle and a bare scan wrapper is paid
// once per document, not per handle.
#[allow(clippy::large_enum_variant)]
pub enum DocExecutor {
    /// The paper's built indexes.
    Built {
        /// The exact substring index (serves `Threshold`, `TopK`,
        /// `Listing`).
        index: Index,
        /// The ε-approximate index over `index`'s own text and tree
        /// ([`ApproxIndex::over`]; serves `Approx`, exact fallback when
        /// absent).
        approx: Option<ApproxIndex>,
    },
    /// A scan of the source document (always exact; `Approx` requests get
    /// the exact answer, which trivially satisfies the ε sandwich).
    Scanned(ScanIndex),
}

impl DocExecutor {
    /// Builds the paper's indexes for one document: the substring index,
    /// plus, when `epsilon` is set, the ε-links over its text — one
    /// transform and one suffix tree either way.
    pub fn build(
        source: &UncertainString,
        tau_min: f64,
        epsilon: Option<f64>,
    ) -> Result<Self, Error> {
        let index = Index::build(source, tau_min)?;
        let approx = epsilon
            .map(|eps| ApproxIndex::over(&index, eps))
            .transpose()?;
        Ok(DocExecutor::Built { index, approx })
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

    /// `true` when `Approx` requests are served ε-approximately rather than
    /// by an exact fallback.
    pub fn has_approx(&self) -> bool {
        matches!(
            self,
            DocExecutor::Built {
                approx: Some(_),
                ..
            }
        )
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

    /// ε-approximate occurrences (exact when no approx index is held).
    pub fn approx(&self, pattern: &[u8], tau: f64) -> Result<Vec<(usize, f64)>, Error> {
        match self {
            DocExecutor::Built {
                approx: Some(approx),
                ..
            } => Ok(approx.query(pattern, tau)?.into_hits()),
            _ => self.threshold(pattern, tau),
        }
    }

    /// Heap bytes the executor holds: a built document's index plus its
    /// links (the text they share counted once), a scanned one's plane. The
    /// shard planner's weight.
    pub fn heap_size(&self) -> usize {
        match self {
            DocExecutor::Built { index, approx } => {
                index.heap_size() + approx.as_ref().map_or(0, |a| a.stats().heap_bytes)
            }
            DocExecutor::Scanned(scan) => scan.plane().heap_size(),
        }
    }
}

fn corrupt(detail: String) -> StoreError {
    StoreError::Corrupt { detail }
}

/// Writes `docs` as one `.coll` file ([`ustr_store::collection`]): per
/// document, in rank order, its substring-index section, then the links of
/// its approx index when it holds one (a section with no text: the links
/// hang off the index's). Static collection snapshots and
/// live sealed segments are both written here — and read back by
/// [`load_coll`] — so they are the same artifact. Only built executors have
/// a persistent form.
pub fn save_coll<'a>(
    io: &dyn StoreIo,
    path: &Path,
    docs: impl IntoIterator<Item = &'a DocExecutor>,
) -> Result<(), StoreError> {
    let mut payloads = Vec::new();
    let mut num_docs = 0;
    for doc in docs {
        let DocExecutor::Built { index, approx } = doc else {
            return Err(corrupt(format!(
                "document {num_docs} is scan-served: only built indexes can be saved"
            )));
        };
        let mut w = Writer::new();
        index.encode_payload(&mut w);
        payloads.push((num_docs, SnapshotKind::Index, w.into_bytes()));
        if let Some(approx) = approx {
            let mut w = Writer::new();
            encode_links_payload(approx, &mut w);
            payloads.push((num_docs, SnapshotKind::ApproxLinks, w.into_bytes()));
        }
        num_docs += 1;
    }
    let sections: Vec<Section> = (payloads.iter())
        .map(|(doc, kind, payload)| Section {
            doc: *doc,
            kind: *kind,
            payload,
        })
        .collect();
    collection::save_collection_file(io, path, num_docs, &sections)
}

/// Reads a `.coll` file written by [`save_coll`]: one built executor per
/// document, in rank order, decoded straight from the file's buffer. A
/// well-formed container with the wrong contents — two sections of one
/// kind for a document, a document without a substring index — is
/// [`StoreError::Corrupt`], never a panic.
pub fn load_coll(io: &dyn StoreIo, path: &Path) -> Result<Vec<DocExecutor>, StoreError> {
    collection::load_collection_file(io, path, |coll| {
        let n = coll.num_docs;
        let mut indexes: Vec<Option<Section>> = vec![None; n];
        let mut links: Vec<Option<Section>> = vec![None; n];
        for section in coll.sections {
            let table = match section.kind {
                SnapshotKind::Index => &mut indexes,
                SnapshotKind::ApproxLinks => &mut links,
            };
            // The container has checked every id against `n`; this crate
            // indexes nothing unchecked all the same.
            let slot = table.get_mut(section.doc).ok_or_else(|| {
                corrupt(format!(
                    "collection section names document {} of {n}",
                    section.doc
                ))
            })?;
            if slot.replace(section).is_some() {
                return Err(corrupt(format!(
                    "document {} has duplicate sections of one kind",
                    section.doc
                )));
            }
        }
        let docs = indexes.into_iter().zip(links).enumerate();
        docs.map(|(rank, (index, links))| {
            let index = index
                .ok_or_else(|| corrupt(format!("document {rank} has no substring-index section")))?
                .decode(Index::decode_payload)?;
            let approx = links
                .map(|links| links.decode(|r| decode_links_payload(r, &index)))
                .transpose()?;
            Ok(DocExecutor::Built { index, approx })
        })
        .collect()
    })
}

/// One unit of query fan-out: a contiguous run of documents (ascending doc
/// ids), each with its executor. The static service's shards and the live
/// service's sealed segments + memtable are all `Segment`s.
pub struct Segment {
    /// `(doc_id, executor)` pairs in ascending doc order.
    pub docs: Vec<(usize, Arc<DocExecutor>)>,
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
    /// `row(doc, hits)` of every document whose `hits` answer is not empty,
    /// in doc order.
    fn rows<T>(
        &self,
        hits: impl Fn(&DocExecutor) -> Result<Vec<(usize, f64)>, Error>,
        row: impl Fn(usize, Vec<(usize, f64)>) -> T,
    ) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        for (doc, d) in &self.docs {
            let hits = hits(d)?;
            if !hits.is_empty() {
                out.push(row(*doc, hits));
            }
        }
        Ok(out)
    }

    /// Sequentially answers `req` over every document in the segment.
    pub fn answer(&self, req: &QueryRequest) -> Result<ShardPartial, Error> {
        let doc_hits = |doc, hits| DocHits { doc, hits };
        match req {
            QueryRequest::Threshold { pattern, tau } => self
                .rows(|d| d.threshold(pattern, *tau), doc_hits)
                .map(ShardPartial::Hits),
            QueryRequest::Approx { pattern, tau } => self
                .rows(|d| d.approx(pattern, *tau), doc_hits)
                .map(ShardPartial::Hits),
            QueryRequest::TopK { pattern, k } => {
                // Any global top-k hit is inside its document's top-k, so
                // per-doc truncation loses nothing.
                let mut all = Vec::new();
                for (doc, d) in &self.docs {
                    for (pos, prob) in d.top_k(pattern, *k)? {
                        all.push(TopHit {
                            doc: *doc,
                            pos,
                            prob,
                        });
                    }
                }
                all.sort_by(top_hit_order);
                all.truncate(*k);
                Ok(ShardPartial::TopK(all))
            }
            // `Rel_max`: a document's best threshold hit.
            QueryRequest::Listing { pattern, tau } => self
                .rows(
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
