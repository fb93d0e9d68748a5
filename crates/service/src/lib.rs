//! Concurrent sharded query engine over uncertain-string indexes — every
//! query mode of the paper, served through one typed dispatcher.
//!
//! The ROADMAP's north star is serving heavy query traffic over indexes
//! that were built (or [loaded from snapshots](ustr_store)) once. This crate
//! supplies the serving layer:
//!
//! * **Four query modes** — a [`QueryRequest`] is `Threshold` (§5 substring
//!   search), `TopK` (ranked retrieval), `Listing` (§6 string listing with
//!   `Rel_max` relevance), or `Approx` (§7 ε-approximate search, answered
//!   exactly: the exact answer keeps the ε-sandwich for every ε). Any mix
//!   of modes can share one batch; each answer comes back as the matching
//!   [`QueryResponse`] variant.
//! * **Document sharding** — a collection is split into contiguous shards,
//!   each holding one [`ustr_core::Index`] per document.
//! * **One fixed thread pool** — a request fans out as one job per shard
//!   over [`ThreadPool::scatter`], and a batch as one job per request (each
//!   then working its own shards), worked by the calling thread beside the
//!   pool's workers — and by it alone, no helper woken, when the engine
//!   measures the fan-out to be cheaper than a wake. A front end queues its
//!   request jobs on the same pool ([`QueryService::execute`]), so a
//!   serving process runs `threads` query workers in all; what the engine
//!   measures cheap it may answer on its own thread instead
//!   ([`QueryService::answer_inline`]).
//! * **Deterministic merge** — per-shard results are reassembled in shard
//!   order (top-k answers are re-ranked with a total tie-break on
//!   `(probability, doc, position)`), so a request returns *exactly* the
//!   same answer as sequential evaluation for **every** mode, regardless of
//!   thread interleaving — alone or in a batch.
//! * **LRU result cache** — hot requests are served from an [`LruCache`]
//!   without touching the indexes. Cache keys are per-mode: a `Threshold`
//!   and an `Approx` request for the same `(pattern, τ)` occupy distinct
//!   entries, and τ is keyed by its exact bit pattern, so a cached answer
//!   is only ever served for the very threshold it was computed at.
//!
//! # Persistence
//!
//! The primary format is the single-file **collection snapshot**
//! ([`QueryService::save_collection`] / [`QueryService::load_collection`],
//! format in [`ustr_store::collection`]): one `.coll` artifact holding a
//! manifest (document count, per-section lengths and checksums) plus one
//! substring-index section per document. Building and loading plan shards
//! alike, from each document's heap.
//! Mutable collections persist as `ustr-live` directories instead.
//!
//! # Architecture
//!
//! The serving machinery is layered so static and mutable services share
//! every query path: [`exec`] defines [`DocExecutor`] (a built index or an
//! exact scan — interchangeable, bit for bit, by its contract) and its
//! one `.coll` codec ([`save_coll`] / [`load_coll`] — collection snapshots
//! and `ustr-live`'s sealed segments are the same artifact), [`Segment`]
//! (an ordered run of documents), and the deterministic [`merge_partials`];
//! [`engine`] defines the [`Engine`] — one per-request answer function
//! (validation, per-mode LRU cache, thread-pool fan-out, merge, timing and
//! accounting) running over any [`SegmentSet`]. [`QueryService`] is the
//! static `SegmentSet` (fixed shards); `ustr-live`'s `LiveService` is the
//! mutable one (sealed segments + memtable snapshot per call).
//!
//! ```
//! use ustr_service::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
//! use ustr_uncertain::UncertainString;
//!
//! let docs = vec![
//!     UncertainString::parse("A:.9,B:.1 | B | C").unwrap(),
//!     UncertainString::parse("C | C | C").unwrap(),
//!     UncertainString::parse("A:.5,B:.5 | B | C").unwrap(),
//! ];
//! let service = QueryService::build(&docs, 0.05, ServiceConfig::default()).unwrap();
//! let ab = QueryRequest::Threshold { pattern: b"AB".to_vec(), tau: 0.4 };
//! // One request, one answer (and a trace summary when tracing is on).
//! let (answer, _trace) = service.answer(&ab, None);
//! let Ok(QueryResponse::Threshold(hits)) = answer else { panic!() };
//! // Documents 0 (p = .9) and 2 (p = .5) contain "AB" at position 0.
//! assert_eq!(hits.len(), 2);
//! assert_eq!((hits[0].doc, hits[0].hits[0].0), (0, 0));
//! assert_eq!((hits[1].doc, hits[1].hits[0].0), (2, 0));
//!
//! // An in-process batch may mix modes; a duplicate is answered once.
//! let batch = vec![
//!     QueryRequest::Threshold { pattern: b"AB".to_vec(), tau: 0.4 },
//!     QueryRequest::TopK { pattern: b"AB".to_vec(), k: 2 },
//!     QueryRequest::Listing { pattern: b"C".to_vec(), tau: 0.9 },
//! ];
//! let answers = service.query_requests(&batch);
//! assert!(matches!(answers[0], Ok(QueryResponse::Threshold(_))));
//! let Ok(QueryResponse::TopK(top)) = &answers[1] else { panic!() };
//! assert_eq!((top[0].doc, top[0].pos), (0, 0)); // p = .9 ranks first
//! ```

#![forbid(unsafe_code)]
// Serving paths never panic (INVARIANTS.md §2). The attribute, not a `[lints]`
// table: `tests/*.rs` are not swept in, and `clippy.toml` exempts unit tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing
)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

mod cache;
pub mod engine;
pub mod exec;
mod filter;
mod pool;
pub mod sync;

use std::path::Path;
use std::sync::Arc;

use ustr_core::Error;
use ustr_obs::TraceContext;
use ustr_store::{RealIo, StoreError};
use ustr_uncertain::UncertainString;

pub use cache::LruCache;
pub use engine::{mode_name, validate_request, Answer, Engine, SegmentSet, TraceSummary};
pub use exec::{
    load_coll, merge_partials, save_coll, top_hit_order, DocExecutor, Segment, ShardPartial,
};
pub use filter::DocFilter;
pub use pool::ThreadPool;
pub use sync::{lock_clean, wait_clean, WakeQueue};
pub use ustr_core::ListingHit;

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool (0 = one per available core).
    pub threads: usize,
    /// Document shards (0 = same as the effective thread count; always
    /// clamped to the document count so no empty shard is ever planned).
    pub shards: usize,
    /// LRU cache capacity in request entries (0 disables caching).
    pub cache_capacity: usize,
    /// Accepted and ignored: `Approx` requests are answered by the exact
    /// index, whose answer keeps the §7 sandwich for every ε. Kept only
    /// because `benchmark/src` names it; removal is queued in ROADMAP item
    /// 1A(e).
    pub epsilon: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            shards: 0,
            cache_capacity: 1024,
            epsilon: None,
        }
    }
}

/// All probable occurrences of one query pattern within one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocHits {
    /// Document id (position in the collection the service was built from).
    pub doc: usize,
    /// Sorted `(position, probability)` occurrences within the document.
    pub hits: Vec<(usize, f64)>,
}

/// One ranked occurrence from a `TopK` request.
#[derive(Debug, Clone, PartialEq)]
pub struct TopHit {
    /// Document id.
    pub doc: usize,
    /// Position within the document.
    pub pos: usize,
    /// Occurrence probability (the ranking key).
    pub prob: f64,
}

/// One query of any mode, addressed to the whole collection.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// §5 substring search: all `(doc, position)` occurrences with
    /// probability ≥ τ.
    Threshold {
        /// Query pattern.
        pattern: Vec<u8>,
        /// Probability threshold.
        tau: f64,
    },
    /// Ranked retrieval: the `k` most probable occurrences across the
    /// collection (among occurrences visible at the construction τmin).
    TopK {
        /// Query pattern.
        pattern: Vec<u8>,
        /// Number of occurrences to return.
        k: usize,
    },
    /// §6 string listing: every document whose `Rel_max` is ≥ τ.
    Listing {
        /// Query pattern.
        pattern: Vec<u8>,
        /// Relevance threshold.
        tau: f64,
    },
    /// §7 ε-approximate search: all occurrences with probability ≥ τ, none
    /// below τ − ε. Answered exactly, as [`QueryRequest::Threshold`] is.
    Approx {
        /// Query pattern.
        pattern: Vec<u8>,
        /// Probability threshold.
        tau: f64,
    },
}

/// The answer to one [`QueryRequest`], in the matching variant.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Threshold`].
    Threshold(SharedHits),
    /// Answer to [`QueryRequest::TopK`]: probability descending with a
    /// deterministic `(doc, pos)` tie-break.
    TopK(Arc<Vec<TopHit>>),
    /// Answer to [`QueryRequest::Listing`], sorted by document id.
    Listing(Arc<Vec<ListingHit>>),
    /// Answer to [`QueryRequest::Approx`].
    Approx(SharedHits),
}

/// Shared, immutable results (cache entries hand out clones of the `Arc`).
pub type SharedHits = Arc<Vec<DocHits>>;

/// Plans `num_shards` contiguous, non-empty document ranges balancing the
/// given per-document weights; returns the shard sizes (summing to
/// `weights.len()`). With uniform weights this degenerates to count
/// balancing. The shard count is clamped to the document count, so no empty
/// shard is ever planned (one empty shard stands in for an empty collection).
fn plan_shards(weights: &[usize], num_shards: usize) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return vec![0];
    }
    let num_shards = num_shards.clamp(1, n);
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut sizes = Vec::with_capacity(num_shards);
    let mut doc = 0usize;
    let mut acc: u128 = 0;
    for s in 0..num_shards {
        let shards_left = num_shards - s;
        // Leave at least one document for each later shard.
        let max_take = n - doc - (shards_left - 1);
        let target = total * (s as u128 + 1) / num_shards as u128;
        let mut take = 1;
        acc += weights.get(doc).map_or(0, |&w| w as u128);
        while take < max_take && acc < target {
            acc += weights.get(doc + take).map_or(0, |&w| w as u128);
            take += 1;
        }
        sizes.push(take);
        doc += take;
    }
    debug_assert_eq!(doc, n, "every document is assigned to a shard");
    sizes
}

/// A document-sharded, thread-pooled, result-cached query engine.
///
/// Built from a collection ([`QueryService::build`]) or a single-file
/// collection snapshot ([`QueryService::load_collection`]).
pub struct QueryService {
    shards: Vec<Arc<Segment>>,
    engine: Engine,
    /// Smallest τ every underlying index accepts.
    tau_min: f64,
    num_docs: usize,
}

/// The static service *is* a [`SegmentSet`]: its segments are the fixed
/// shard list planned at assembly time.
impl SegmentSet for QueryService {
    fn segments(&self) -> Vec<Arc<Segment>> {
        self.shards.clone()
    }

    fn tau_min(&self) -> f64 {
        self.tau_min
    }
}

impl QueryService {
    /// Builds one index per document and shards the collection.
    pub fn build(
        docs: &[UncertainString],
        tau_min: f64,
        config: ServiceConfig,
    ) -> Result<Self, Error> {
        let executors = docs
            .iter()
            .map(|d| DocExecutor::build(d, tau_min))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(Self::assemble(executors, &config))
    }

    /// Shards `docs` into contiguous runs balanced by each executor's heap
    /// ([`DocExecutor::heap_size`]) and wires up the dispatch engine. The
    /// shard count is `config.shards`, else the pool's thread count.
    fn assemble(docs: Vec<DocExecutor>, config: &ServiceConfig) -> Self {
        let num_docs = docs.len();
        let engine = Engine::new(config.threads, config.cache_capacity);
        let num_shards = match config.shards {
            0 => engine.threads(),
            shards => shards,
        };
        let tau_min = docs.iter().map(|d| d.tau_min()).fold(0.0, f64::max);
        let weights: Vec<usize> = docs.iter().map(DocExecutor::heap_size).collect();
        let sizes = plan_shards(&weights, num_shards);
        let mut shards = Vec::with_capacity(sizes.len());
        let mut iter = docs.into_iter().enumerate();
        for take in sizes {
            let docs: Vec<(usize, Arc<DocExecutor>)> = iter
                .by_ref()
                .take(take)
                .map(|(doc, d)| (doc, Arc::new(d)))
                .collect();
            shards.push(Arc::new(Segment::new(docs)));
        }
        Self {
            shards,
            engine,
            tau_min,
            num_docs,
        }
    }

    /// Saves the whole collection as one file: a manifest (document count,
    /// per-section lengths and checksums) followed by each document's
    /// substring-index payload. Format: [`ustr_store::collection`]; written by
    /// [`save_coll`]. The shard plan is not saved: it is the loader's.
    pub fn save_collection(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let docs = self.shards.iter().flat_map(|shard| &shard.docs);
        let docs = docs.map(|(_, d)| d.as_ref());
        save_coll(&RealIo, path.as_ref(), docs)
    }

    /// Loads a single-file collection snapshot and assembles a service,
    /// sharded as [`QueryService::build`] shards the same documents at the
    /// same `config`. Truncated or corrupted files fail with a clean
    /// [`StoreError`], never a panic.
    pub fn load_collection(
        path: impl AsRef<Path>,
        config: ServiceConfig,
    ) -> Result<Self, StoreError> {
        let docs = load_coll(&RealIo, path.as_ref())?;
        Ok(Self::assemble(docs, &config))
    }

    /// Number of documents served.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Number of document shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Runs `job` on the query pool (see [`Engine::execute`]).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.engine.execute(job);
    }

    /// The smallest τ the service accepts (largest `τmin` of its indexes).
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// `(hits, misses)` of the result cache; zeros when caching is
    /// disabled. The counters are cumulative totals over the service's
    /// lifetime (for a CLI invocation: process-lifetime totals) — they are
    /// never reset.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.engine.cache_stats()
    }

    /// Point-in-time snapshot of the engine's metrics registry: cache
    /// hit/miss counters, request/error totals, and per-stage latency
    /// histograms. Instance-scoped — two services in one process never
    /// mix counts.
    pub fn metrics_snapshot(&self) -> ustr_obs::MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// The engine's slow-query ring buffer (threshold adjustable at
    /// runtime).
    pub fn slow_log(&self) -> &ustr_obs::SlowQueryLog {
        self.engine.slow_log()
    }

    /// Answers one request of any mode through the cache and the thread
    /// pool, with its [`TraceSummary`] when its trace recorded (`parent`: a
    /// propagated context the root span continues). See [`Engine::answer`].
    pub fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
        self.engine.answer(self, request, parent)
    }

    /// Answers a typed batch of any mix of query modes through the shared
    /// [`Engine`] (see [`Engine::run`] for how a batch is spread
    /// over the thread pool). Responses are positionally aligned with
    /// `requests` and are **identical** to
    /// [`QueryService::query_requests_sequential`] for every mode —
    /// per-shard answers are merged in shard order (top-k with a total
    /// tie-break), never in completion order.
    pub fn query_requests(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, Error>> {
        self.engine.run(self, requests)
    }

    /// Answers one request on the calling thread when the engine measures
    /// that to be cheaper than a hand-off, and declines (`None`) otherwise
    /// — see [`Engine::run_inline`]. No lock on the way is ever held across
    /// I/O: the shard list is fixed at assembly.
    pub fn answer_inline(
        &self,
        request: &QueryRequest,
        parent: Option<TraceContext>,
        spent_us: u64,
    ) -> Option<Answer> {
        self.engine.run_inline(self, request, parent, spent_us)
    }

    /// The engine's tracer: configure sampling with
    /// [`Tracer::set_sample_permyriad`](ustr_obs::Tracer::set_sample_permyriad),
    /// read sampled span trees back via
    /// [`Tracer::traces`](ustr_obs::Tracer::traces).
    pub fn tracer(&self) -> &std::sync::Arc<ustr_obs::Tracer> {
        self.engine.tracer()
    }

    /// Reference implementation: the same typed batch answered request by
    /// request, shard by shard, on the calling thread (no pool), through
    /// the same answer function. Exists to state — and test — the
    /// determinism contract of [`QueryService::query_requests`].
    pub fn query_requests_sequential(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        self.engine.run_sequential(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection() -> Vec<UncertainString> {
        vec![
            UncertainString::parse("A:.9,B:.1 | B | C | A | B").unwrap(),
            UncertainString::parse("C | C | C").unwrap(),
            UncertainString::parse("A:.5,B:.5 | B | A:.7,C:.3 | B").unwrap(),
            UncertainString::deterministic(b"ABABAB"),
            UncertainString::parse("B | A:.2,B:.8 | B").unwrap(),
        ]
    }

    fn config(threads: usize, shards: usize, cache: usize) -> ServiceConfig {
        ServiceConfig {
            threads,
            shards,
            cache_capacity: cache,
            epsilon: None,
        }
    }

    fn mixed_batch() -> Vec<QueryRequest> {
        vec![
            QueryRequest::Threshold {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
            QueryRequest::TopK {
                pattern: b"AB".to_vec(),
                k: 4,
            },
            QueryRequest::Listing {
                pattern: b"B".to_vec(),
                tau: 0.5,
            },
            QueryRequest::Approx {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
            QueryRequest::Threshold {
                pattern: b"C".to_vec(),
                tau: 0.9,
            },
            QueryRequest::TopK {
                pattern: b"ZZ".to_vec(),
                k: 3,
            },
            QueryRequest::Listing {
                pattern: b"AB".to_vec(),
                tau: 0.45,
            },
            QueryRequest::Approx {
                pattern: b"B".to_vec(),
                tau: 0.6,
            },
        ]
    }

    fn threshold(pattern: &[u8], tau: f64) -> QueryRequest {
        QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        }
    }

    /// What a threshold or approx request answers with.
    fn hits(service: &QueryService, request: &QueryRequest) -> Vec<DocHits> {
        match service.answer(request, None).0.unwrap() {
            QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => hits.to_vec(),
            other => panic!("not a hit list: {other:?}"),
        }
    }

    #[test]
    fn doc_ids_and_positions_are_global() {
        let service = QueryService::build(&collection(), 0.05, config(3, 2, 16)).unwrap();
        assert_eq!(service.num_docs(), 5);
        assert_eq!(service.num_shards(), 2);
        let hits = hits(&service, &threshold(b"AB", 0.4));
        let docs: Vec<usize> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![0, 2, 3]);
        // Doc 3 is deterministic "ABABAB": AB at 0, 2, 4 with p = 1.
        let d3 = hits.iter().find(|h| h.doc == 3).unwrap();
        assert_eq!(
            d3.hits.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn traced_run_yields_full_span_tree_and_identical_answers() {
        use ustr_obs::{assemble_traces, AttrValue, SAMPLE_SCALE};
        let docs = collection();
        let traced = QueryService::build(&docs, 0.05, config(4, 2, 16)).unwrap();
        let plain = QueryService::build(&docs, 0.05, config(4, 2, 16)).unwrap();
        traced.tracer().set_sample_permyriad(SAMPLE_SCALE);
        let request = threshold(b"AB", 0.3);

        let (traced_out, summary) = traced.answer(&request, None);
        let plain_out = plain.answer(&request, None).0.unwrap();
        // Tracing never perturbs answers.
        assert_eq!(traced_out.unwrap(), plain_out);

        let summary = summary.expect("trace recorded at 100%");
        let stage_names: Vec<&str> = summary.stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(stage_names, vec!["cache_lookup", "fanout", "merge"]);

        // The span set assembles into root + cache_lookup(miss) + fanout
        // + per-segment answers (with kernel attribution) + merge.
        let trees = assemble_traces(&summary.trace.spans);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        let root = tree.find("request").expect("root span");
        assert_eq!(
            root.span.attrs.get("mode"),
            Some(AttrValue::Str("threshold"))
        );
        let lookup = tree.find("cache_lookup").expect("cache_lookup span");
        assert_eq!(lookup.span.attrs.get("cache"), Some(AttrValue::Str("miss")));
        let fanout = tree.find("fanout").expect("fanout span");
        assert_eq!(fanout.span.parent_span, root.span.span_id);
        let segs: Vec<_> = fanout
            .children
            .iter()
            .filter(|c| c.span.name == "segment_answer")
            .collect();
        assert_eq!(segs.len(), traced.num_shards());
        assert!(segs
            .iter()
            .any(|s| matches!(s.span.attrs.get("candidates"), Some(AttrValue::U64(c)) if c > 0)));
        assert!(segs.iter().all(|s| s.span.attrs.get("verified").is_some()));
        assert!(tree.find("merge").is_some());
        // The tracer ring holds the same trace for exporters.
        assert_eq!(traced.tracer().traces().len(), 1);

        // A repeat of the same request is a cache hit: its trace has a
        // cache_lookup child tagged hit and no fanout.
        let (again, summary) = traced.answer(&request, None);
        assert_eq!(again.unwrap(), plain_out);
        let summary = summary.expect("hit trace recorded");
        let trees = assemble_traces(&summary.trace.spans);
        let lookup = trees[0].find("cache_lookup").expect("cache_lookup span");
        assert_eq!(lookup.span.attrs.get("cache"), Some(AttrValue::Str("hit")));
        assert!(trees[0].find("fanout").is_none());

        // A propagated parent context is continued, not restarted.
        let parent = ustr_obs::TraceContext {
            trace_id: 0xabcd_1234,
            parent_span: 77,
            sampled: true,
        };
        let summary = traced.answer(&request, Some(parent)).1;
        let summary = summary.expect("continued trace");
        assert_eq!(summary.trace.trace_id, parent.trace_id);
        assert!(summary
            .trace
            .spans
            .iter()
            .any(|s| s.name == "request" && s.parent_span == parent.parent_span));
    }

    #[test]
    fn each_stage_reads_as_its_span_and_each_segment_span_as_its_histogram_sample() {
        use ustr_obs::SAMPLE_SCALE;
        let service = QueryService::build(&collection(), 0.05, config(4, 3, 16)).unwrap();
        service.tracer().set_sample_permyriad(SAMPLE_SCALE);
        let segment_us =
            || service.metrics_snapshot().histograms["service.stage.segment_answer_us"].sum;
        let mut stages_seen = 0;
        // A miss (three stages), its hit (one), and every mode.
        for req in mixed_batch().iter().chain(&mixed_batch()[..1]) {
            let before = segment_us();
            let (result, summary) = service.answer(req, None);
            assert!(result.is_ok());
            let summary = summary.expect("trace recorded at 100%");
            let span = |name| summary.trace.spans.iter().filter(move |s| s.name == name);
            for &(name, us) in &summary.stages {
                let [stage] = span(name).collect::<Vec<_>>()[..] else {
                    panic!("one {name} span: {summary:?}");
                };
                assert_eq!(stage.duration_us(), us, "{name}: {summary:?}");
                stages_seen += 1;
            }
            let segments: u64 = span("segment_answer").map(|s| s.duration_us()).sum();
            assert_eq!(segments, segment_us() - before, "{summary:?}");
        }
        assert_eq!(stages_seen, 3 * mixed_batch().len() + 1);
    }

    #[test]
    fn tracing_off_answers_carry_no_summaries() {
        let docs = collection();
        let service = QueryService::build(&docs, 0.05, config(2, 2, 0)).unwrap();
        assert!(!service.tracer().enabled());
        let (result, summary) = service.answer(&threshold(b"AB", 0.3), None);
        assert!(result.is_ok());
        assert!(summary.is_none());
        assert!(service.tracer().spans().is_empty());
    }

    #[test]
    fn top_k_ranks_across_documents() {
        let service = QueryService::build(&collection(), 0.05, config(4, 3, 0)).unwrap();
        let ask = |k: usize| {
            let request = QueryRequest::TopK {
                pattern: b"AB".to_vec(),
                k,
            };
            match service.answer(&request, None).0.unwrap() {
                QueryResponse::TopK(top) => top,
                other => panic!("mode preserved, got {other:?}"),
            }
        };
        let top = ask(5);
        assert_eq!(top.len(), 5);
        // Four certain occurrences (doc 0 pos 3; doc 3 pos 0, 2, 4) rank
        // first in (doc, pos) tie-break order; then doc 0 pos 0 (p = .9).
        assert_eq!((top[0].doc, top[0].pos), (0, 3));
        assert_eq!((top[1].doc, top[1].pos), (3, 0));
        assert_eq!((top[2].doc, top[2].pos), (3, 2));
        assert_eq!((top[3].doc, top[3].pos), (3, 4));
        assert_eq!((top[4].doc, top[4].pos), (0, 0));
        assert!((top[4].prob - 0.9).abs() < 1e-9);
        for w in top.windows(2) {
            assert!(w[0].prob >= w[1].prob, "ranked descending");
        }
        // `k` is unvalidated wire input: past the number of occurrences it
        // answers exactly like `k = occurrences`, and never sizes a buffer.
        let expected = ask(ask(100).len());
        for k in [1usize << 40, usize::MAX] {
            assert_eq!(ask(k), expected, "k {k}");
        }
    }

    #[test]
    fn listing_reports_rel_max_per_document() {
        let docs = collection();
        let service = QueryService::build(&docs, 0.05, config(2, 2, 0)).unwrap();
        let request = QueryRequest::Listing {
            pattern: b"AB".to_vec(),
            tau: 0.45,
        };
        let Ok(QueryResponse::Listing(listed)) = service.answer(&request, None).0 else {
            panic!("a listing answer");
        };
        let ids: Vec<usize> = listed.iter().map(|h| h.doc).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        // Agrees with the §6 ListingIndex under Rel_max.
        let reference = ustr_core::ListingIndex::build(&docs, 0.05).unwrap();
        assert_eq!(*listed, reference.query(b"AB", 0.45).unwrap());
    }

    /// An `Approx` request answers as the `Threshold` request at its τ, bit
    /// for bit, whatever ε the service was configured with: the exact
    /// answer keeps the ε-sandwich for every ε.
    #[test]
    fn approx_answers_are_the_threshold_answers() {
        let with_epsilon = ServiceConfig {
            epsilon: Some(0.05),
            ..config(2, 2, 0)
        };
        let service = QueryService::build(&collection(), 0.05, with_epsilon).unwrap();
        for pattern in [&b"AB"[..], b"B", b"A", b"ZZ"] {
            for tau in [0.05, 0.3, 0.6, 0.9] {
                let approx = QueryRequest::Approx {
                    pattern: pattern.to_vec(),
                    tau,
                };
                assert_eq!(
                    hits(&service, &approx),
                    hits(&service, &threshold(pattern, tau))
                );
            }
        }
    }

    #[test]
    fn cache_serves_repeats_without_divergence() {
        let service = QueryService::build(&collection(), 0.05, config(2, 2, 8)).unwrap();
        let first = hits(&service, &threshold(b"AB", 0.3));
        let (h0, m0) = service.cache_stats();
        assert_eq!((h0, m0), (0, 1));
        let second = hits(&service, &threshold(b"AB", 0.3));
        assert_eq!(first, second);
        let (h1, m1) = service.cache_stats();
        assert_eq!((h1, m1), (1, 1));
        // Different τ is a different cache entry.
        let _ = hits(&service, &threshold(b"AB", 0.5));
        assert_eq!(service.cache_stats(), (1, 2));
    }

    #[test]
    fn cache_keys_tau_exactly_and_never_shares_entries_across_modes() {
        let service = QueryService::build(&collection(), 0.05, config(2, 2, 8)).unwrap();
        let ask = |request: QueryRequest| service.answer(&request, None).0.unwrap();
        let a = ask(threshold(b"AB", 0.3));
        assert_eq!(service.cache_stats(), (0, 1));
        // The same τ bit pattern hits; a neighbouring τ is its own entry.
        assert_eq!(ask(threshold(b"AB", 0.3)), a);
        assert_eq!(service.cache_stats(), (1, 1));
        ask(threshold(b"AB", 0.3 + 2e-13));
        assert_eq!(service.cache_stats(), (1, 2));
        // Modes never share entries, even for identical (pattern, τ).
        let pattern = b"AB".to_vec();
        ask(QueryRequest::Approx {
            pattern: pattern.clone(),
            tau: 0.3,
        });
        assert_eq!(service.cache_stats(), (1, 3));
        ask(QueryRequest::Listing { pattern, tau: 0.3 });
        assert_eq!(service.cache_stats(), (1, 4));
    }

    #[test]
    fn cached_answers_equal_uncached_across_an_occurrence_boundary() {
        // Document 2's best "AB" occurrence has p = 0.7, so the document
        // drops out of every τ-mode answer just above τ = 0.7·e^PROB_EPS.
        // Bisect to the two τ (1e-14 apart — far inside one cell of the old
        // 1e-12 cache lattice) on either side of that flip: a cache that
        // treats them as one key serves one's answer for the other.
        let docs = collection();
        let uncached = QueryService::build(&docs, 0.05, config(1, 1, 0)).unwrap();
        let modes: [fn(Vec<u8>, f64) -> QueryRequest; 3] = [
            |pattern, tau| QueryRequest::Threshold { pattern, tau },
            |pattern, tau| QueryRequest::Listing { pattern, tau },
            |pattern, tau| QueryRequest::Approx { pattern, tau },
        ];
        for mode in modes {
            let answer = |service: &QueryService, tau: f64| {
                service
                    .query_requests(&[mode(b"AB".to_vec(), tau)])
                    .remove(0)
                    .unwrap()
            };
            let lists_doc_2 = |tau: f64| match answer(&uncached, tau) {
                QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => {
                    hits.iter().any(|d| d.doc == 2)
                }
                QueryResponse::Listing(listed) => listed.iter().any(|h| h.doc == 2),
                QueryResponse::TopK(_) => panic!("no top-k mode in this test"),
            };
            let (mut below, mut above) = (0.7, 0.7 + 1e-6);
            assert!(lists_doc_2(below) && !lists_doc_2(above));
            while above - below > 1e-14 {
                let mid = below + (above - below) / 2.0;
                if lists_doc_2(mid) {
                    below = mid;
                } else {
                    above = mid;
                }
            }
            for order in [[below, above], [above, below]] {
                let cached = QueryService::build(&docs, 0.05, config(1, 1, 16)).unwrap();
                for tau in order {
                    assert_eq!(
                        answer(&cached, tau),
                        answer(&uncached, tau),
                        "cache-on != cache-off at tau = {tau:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn validation_errors_are_per_query() {
        let service = QueryService::build(&collection(), 0.1, config(2, 2, 4)).unwrap();
        let threshold = |pattern: &[u8], tau| QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        };
        let results = service.query_requests(&[
            threshold(b"", 0.3),
            threshold(b"AB", 0.05), // below tau_min
            threshold(b"AB", 0.3),
            threshold(b"A\0B", 0.3),
            threshold(b"AB", 1.5),
        ]);
        assert!(matches!(results[0], Err(Error::EmptyPattern)));
        assert!(matches!(
            results[1],
            Err(Error::ThresholdBelowTauMin { .. })
        ));
        assert!(results[2].is_ok());
        assert!(matches!(results[3], Err(Error::PatternContainsSentinel)));
        assert!(matches!(results[4], Err(Error::InvalidThreshold { .. })));
        // Top-k has no τ to validate, but patterns are still checked.
        let typed = service.query_requests(&[
            QueryRequest::TopK {
                pattern: b"".to_vec(),
                k: 3,
            },
            QueryRequest::TopK {
                pattern: b"AB".to_vec(),
                k: 0,
            },
        ]);
        assert!(matches!(typed[0], Err(Error::EmptyPattern)));
        let Ok(QueryResponse::TopK(empty)) = &typed[1] else {
            panic!("k = 0 answers with an empty ranking");
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn duplicate_queries_in_a_batch_compute_once() {
        let service = QueryService::build(&collection(), 0.05, config(2, 2, 16)).unwrap();
        let threshold = |pattern: &[u8], tau| QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        };
        let batch = [
            threshold(b"AB", 0.3),
            threshold(b"AB", 0.3),
            threshold(b"AB", 0.3),
            threshold(b"B", 0.5),
        ];
        let results = service.query_requests(&batch);
        let shared = |i: usize| match results[i].as_ref().unwrap() {
            QueryResponse::Threshold(hits) => hits,
            other => panic!("mode preserved, got {other:?}"),
        };
        // Followers share the leader's allocation, not a recomputation.
        assert!(Arc::ptr_eq(shared(0), shared(1)));
        assert!(Arc::ptr_eq(shared(0), shared(2)));
        // And duplicates still agree with sequential evaluation (served from
        // the now-warm cache).
        let seq = service.query_requests_sequential(&batch);
        for (a, b) in results.iter().zip(seq.iter()) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        let (hits, _) = service.cache_stats();
        assert_eq!(hits, 4, "sequential pass is fully cache-served");
    }

    #[test]
    fn a_panicking_segment_job_fails_only_its_own_request() {
        let service = QueryService::build(&collection(), 0.05, config(2, 2, 0)).unwrap();
        let mut batch = mixed_batch();
        batch.insert(
            3,
            QueryRequest::Threshold {
                pattern: engine::PANIC_PATTERN.to_vec(),
                tau: 0.3,
            },
        );
        let mut got = service.query_requests(&batch);
        let lost = got.remove(3).expect_err("its segment jobs panicked");
        assert!(lost.to_string().contains("never reported"), "{lost}");
        batch.remove(3);
        let seq = service.query_requests_sequential(&batch);
        for (q, (g, s)) in got.iter().zip(seq.iter()).enumerate() {
            assert_eq!(g.as_ref().unwrap(), s.as_ref().unwrap(), "request {q}");
        }
        // Both workers outlived the panics: the pool still fans out.
        assert!(service.answer(&threshold(b"AB", 0.3), None).0.is_ok());
    }

    #[test]
    fn a_batched_request_is_timed_logged_and_traced_as_itself() {
        // A tiny document beside one of 6 000 positions: "C" costs a few
        // microseconds, "AB" — matched 3 000 times — a hundred times that.
        let docs = vec![
            UncertainString::parse("C | C | C").unwrap(),
            UncertainString::deterministic(&b"AB".repeat(3000)),
        ];
        let service = QueryService::build(&docs, 0.5, config(2, 2, 0)).unwrap();
        let threshold = |pattern: &[u8]| QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau: 0.9,
        };
        let (cheap, expensive) = (threshold(b"C"), threshold(b"AB"));
        let request_us = || service.metrics_snapshot().histograms["service.request_us"].sum;
        // The `service.request_us` sample(s) answering `batch` leaves.
        let sampled_us = |batch: &[QueryRequest]| {
            let before = request_us();
            assert!(service.query_requests(batch).iter().all(|r| r.is_ok()));
            request_us() - before
        };
        // With the slow-query threshold between what each costs alone, a
        // batch of both logs the expensive one only, and what is left of
        // the two samples — the cheap one's — is under the threshold.
        // (Retried: a preempted thread can make either one slow.)
        let told_apart = (0..100).any(|_| {
            let cheap_us = sampled_us(std::slice::from_ref(&cheap));
            let expensive_us = sampled_us(std::slice::from_ref(&expensive));
            let between = (cheap_us + expensive_us) / 2;
            service.slow_log().set_threshold_us(between);
            service.slow_log().clear();
            let both_us = sampled_us(&[cheap.clone(), expensive.clone()]);
            let logged = service.slow_log().entries();
            cheap_us < between
                && logged.len() == 1
                && logged[0].pattern == "AB"
                && logged[0].stages.iter().map(|(_, us)| us).sum::<u64>() == logged[0].total_us
                && both_us - logged[0].total_us < between
        });
        assert!(told_apart, "each of two batched requests carried both");

        // Traced: each request of a batch has its own root, its stages sum
        // to no more than that root lasted, and its other spans lie inside.
        service
            .tracer()
            .set_sample_permyriad(ustr_obs::SAMPLE_SCALE);
        let batch = [cheap, expensive, threshold(b"BA")];
        assert!(service.query_requests(&batch).iter().all(|r| r.is_ok()));
        let traces = service.tracer().traces();
        assert_eq!(traces.len(), batch.len(), "one trace a request: {traces:?}");
        for tree in &traces {
            let [root] = &tree.roots[..] else {
                panic!("one root a request: {tree:?}");
            };
            assert_eq!(root.span.name, "request", "{tree:?}");
            // The root's children are its stages, one after another.
            let stage_sum: u64 = root.children.iter().map(|c| c.span.duration_us()).sum();
            assert!(stage_sum <= root.span.duration_us(), "{tree:?}");
            let mut inside: Vec<_> = root.children.iter().collect();
            while let Some(node) = inside.pop() {
                let (span, root) = (&node.span, &root.span);
                assert!(
                    root.start_ns <= span.start_ns && span.end_ns <= root.end_ns,
                    "{} outside its root: {tree:?}",
                    span.name
                );
                inside.extend(&node.children);
            }
        }
    }

    #[test]
    fn an_inline_answer_is_declined_until_measured_cheap_and_then_identical() {
        let service = QueryService::build(&collection(), 0.05, config(2, 2, 0)).unwrap();
        let batch = mixed_batch();
        // Nothing computed yet: no collection is first met on the caller.
        assert!(service.answer_inline(&batch[0], None, 0).is_none());
        assert_eq!(service.metrics_snapshot().counters["service.requests"], 0);
        let pooled = service.query_requests(&batch);
        // One preempted sample may hold the estimate up for a few more; a
        // five-document collection is cheap as soon as it is measured fairly.
        let primed = (0..200).any(|_| {
            service.query_requests(&batch[..1]);
            service.answer_inline(&batch[0], None, 0).is_some()
        });
        assert!(primed, "{:?}", service.metrics_snapshot().gauges);
        for (req, pooled) in batch.iter().zip(&pooled) {
            if let Some((inline, _)) = service.answer_inline(req, None, 0) {
                assert_eq!(&inline, pooled, "{req:?}");
            }
        }
        // A caller that has spent its allowance is declined whatever the
        // request costs.
        assert!(service.answer_inline(&batch[0], None, u64::MAX).is_none());
    }

    #[test]
    fn empty_collection_serves_empty_answers() {
        let service = QueryService::build(&[], 0.1, config(2, 2, 4)).unwrap();
        assert_eq!(service.num_docs(), 0);
        for request in mixed_batch() {
            let empty = match service.answer(&request, None).0.unwrap() {
                QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => hits.is_empty(),
                QueryResponse::TopK(top) => top.is_empty(),
                QueryResponse::Listing(listed) => listed.is_empty(),
            };
            assert!(empty, "{request:?}");
        }
    }

    #[test]
    fn one_doc_many_threads_clamps_to_one_shard() {
        let docs = vec![UncertainString::parse("A:.9,B:.1 | B | C").unwrap()];
        let service = QueryService::build(&docs, 0.05, config(8, 8, 0)).unwrap();
        assert_eq!(service.num_shards(), 1, "no empty shards are planned");
        assert_eq!(service.threads(), 8);
        let hits = hits(&service, &threshold(b"AB", 0.5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 0);
        let mixed = service.query_requests(&mixed_batch());
        let seq = service.query_requests_sequential(&mixed_batch());
        for (a, b) in mixed.iter().zip(seq.iter()) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn shard_planning_is_contiguous_and_nonempty() {
        assert_eq!(plan_shards(&[], 4), vec![0]);
        assert_eq!(plan_shards(&[1], 8), vec![1]);
        assert_eq!(plan_shards(&[1, 1, 1, 1, 1], 2).iter().sum::<usize>(), 5);
        // Weighted planning: a huge first doc gets its own shard.
        let sizes = plan_shards(&[1000, 1, 1, 1], 2);
        assert_eq!(sizes, vec![1, 3]);
        for n in 1..12usize {
            for shards in 1..12usize {
                let sizes = plan_shards(&vec![1; n], shards);
                assert_eq!(sizes.iter().sum::<usize>(), n);
                assert!(
                    sizes.iter().all(|&s| s >= 1),
                    "no empty shard for {n}/{shards}"
                );
                assert_eq!(sizes.len(), shards.min(n));
            }
        }
    }

    #[test]
    fn collection_snapshot_round_trips_every_mode() {
        let docs = collection();
        let built = QueryService::build(&docs, 0.05, config(2, 3, 0)).unwrap();
        let path = std::env::temp_dir().join("ustr_service_round_trip.coll");
        built.save_collection(&path).unwrap();
        // Reload at several thread/shard configurations: answers must be
        // identical to the freshly built service for every mode.
        let batch = mixed_batch();
        let reference = built.query_requests_sequential(&batch);
        for cfg in [config(1, 1, 0), config(4, 0, 0), config(8, 5, 0)] {
            let loaded = QueryService::load_collection(&path, cfg).unwrap();
            assert_eq!(loaded.num_docs(), docs.len());
            for (a, b) in loaded.query_requests(&batch).iter().zip(reference.iter()) {
                assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
        }
        // Built and loaded at one config, the same documents shard alike:
        // both plans weigh each document by its executor's heap.
        for cfg in [config(2, 0, 0), config(2, 3, 0), config(1, 5, 0)] {
            let built = QueryService::build(&docs, 0.05, cfg.clone()).unwrap();
            let loaded = QueryService::load_collection(&path, cfg).unwrap();
            let sizes = |s: &QueryService| -> Vec<usize> {
                s.segments().iter().map(|shard| shard.docs.len()).collect()
            };
            assert_eq!(sizes(&loaded), sizes(&built));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_collection_files_fail_cleanly() {
        let built = QueryService::build(&collection(), 0.05, config(1, 2, 0)).unwrap();
        let path = std::env::temp_dir().join("ustr_service_corrupt.coll");
        built.save_collection(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncation at several depths (header, manifest, section bodies).
        for cut in [0, 7, 39, 60, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                QueryService::load_collection(&path, config(1, 1, 0)).is_err(),
                "cut at {cut}: truncated collection must not load"
            );
        }
        // A flipped payload byte fails a checksum.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 9;
        flipped[at] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            QueryService::load_collection(&path, config(1, 1, 0)),
            Err(StoreError::ChecksumMismatch)
        ));
        let _ = std::fs::remove_file(&path);
    }
}
