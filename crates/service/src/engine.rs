//! The typed batch dispatcher: validation, per-mode result cache, thread
//! pool fan-out, and deterministic merge — over any [`SegmentSet`].
//!
//! [`Engine::run`] is the one concurrent dispatch path in the workspace.
//! The static [`crate::QueryService`] hands it a fixed shard list; the
//! mutable `ustr-live` service hands it a point-in-time snapshot of sealed
//! segments plus the memtable. Both get the same guarantees: parallel
//! answers identical to sequential evaluation, duplicate requests computed
//! once, and per-mode LRU caching keyed on the exact threshold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ustr_core::{Error, ListingHit};
use ustr_uncertain::canon;

use crate::sync::lock_clean;
use ustr_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SlowQueryEntry, SlowQueryLog,
    Span, SpanRecord, TraceContext, TraceSpan, Tracer,
};
use ustr_uncertain::kstats;

use crate::exec::{merge_partials, Segment};
use crate::{DocHits, LruCache, QueryRequest, QueryResponse, ThreadPool, TopHit};

/// τ values closer than this are treated as the same threshold by request
/// validation against the serving floor (see [`validate_request`]).
pub const TAU_TOLERANCE: f64 = canon::TAU_TOLERANCE;

/// Per-mode request key. The mode tag keeps e.g. `Threshold("AB", τ)` and
/// `Approx("AB", τ)` in distinct entries. τ is keyed by its bit pattern:
/// an occurrence is admitted iff `p ≥ τ − PROB_EPS`, so any two distinct τ
/// can straddle some occurrence's boundary and must never share an answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RequestKey {
    Threshold(Vec<u8>, u64),
    TopK(Vec<u8>, usize),
    Listing(Vec<u8>, u64),
    Approx(Vec<u8>, u64),
}

/// Full cache key: the request key plus the [`SegmentSet::cache_epoch`]
/// the answer was computed against. Keying on the epoch makes stale
/// entries unreachable even when a mutation races an in-flight batch —
/// the batch's `cache_put` lands under the *old* epoch, and every later
/// lookup uses the new one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    request: RequestKey,
}

fn request_key(req: &QueryRequest, epoch: u64) -> CacheKey {
    let request = match req {
        QueryRequest::Threshold { pattern, tau } => {
            RequestKey::Threshold(pattern.clone(), tau.to_bits())
        }
        QueryRequest::TopK { pattern, k } => RequestKey::TopK(pattern.clone(), *k),
        QueryRequest::Listing { pattern, tau } => {
            RequestKey::Listing(pattern.clone(), tau.to_bits())
        }
        QueryRequest::Approx { pattern, tau } => RequestKey::Approx(pattern.clone(), tau.to_bits()),
    };
    CacheKey { epoch, request }
}

use ustr_core::validate_pattern;

/// Validates one request against the serving threshold floor `tau_min`
/// (the largest `τmin` among the served documents).
pub fn validate_request(req: &QueryRequest, tau_min: f64) -> Result<(), Error> {
    match req {
        QueryRequest::Threshold { pattern, tau }
        | QueryRequest::Listing { pattern, tau }
        | QueryRequest::Approx { pattern, tau } => {
            validate_pattern(pattern)?;
            if !canon::valid_tau(*tau) {
                return Err(Error::InvalidThreshold { value: *tau });
            }
            if *tau < tau_min - TAU_TOLERANCE {
                return Err(Error::ThresholdBelowTauMin { tau: *tau, tau_min });
            }
            Ok(())
        }
        QueryRequest::TopK { pattern, .. } => validate_pattern(pattern),
    }
}

/// A point-in-time view of a served collection: an ordered list of
/// [`Segment`]s (ascending document order across the list) and the
/// validation threshold floor. [`Engine::run`] answers batches over any
/// implementor; a mutable service returns a fresh snapshot per batch.
pub trait SegmentSet {
    /// Segments in ascending document order. Partial answers are merged in
    /// exactly this order.
    fn segments(&self) -> Vec<Arc<Segment>>;

    /// The smallest τ the set accepts (largest `τmin` of its documents).
    fn tau_min(&self) -> f64;

    /// A monotone counter identifying the collection state this snapshot
    /// describes. Cached responses are keyed on it, so an answer computed
    /// against one state can never serve a lookup against another — even
    /// when a mutation races an in-flight batch. Immutable sets keep the
    /// default 0.
    fn cache_epoch(&self) -> u64 {
        0
    }
}

/// Per-engine telemetry handles, all registered in one instance-scoped
/// [`MetricsRegistry`] so concurrent engines (parallel tests, multiple
/// services in one process) never mix counts. Snapshot via
/// [`Engine::metrics_snapshot`].
struct EngineMetrics {
    registry: MetricsRegistry,
    cache_hits: Counter,
    cache_misses: Counter,
    requests: Counter,
    errors: Counter,
    batch_us: Histogram,
    lookup_us: Histogram,
    fanout_us: Histogram,
    merge_us: Histogram,
    request_us: Histogram,
    segment_us: Histogram,
}

impl EngineMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            cache_hits: registry.counter("service.cache.hits"),
            cache_misses: registry.counter("service.cache.misses"),
            requests: registry.counter("service.requests"),
            errors: registry.counter("service.errors"),
            batch_us: registry.histogram("service.batch_us"),
            lookup_us: registry.histogram("service.stage.cache_lookup_us"),
            fanout_us: registry.histogram("service.stage.fanout_us"),
            merge_us: registry.histogram("service.stage.merge_us"),
            request_us: registry.histogram("service.request_us"),
            segment_us: registry.histogram("service.stage.segment_answer_us"),
            registry,
        }
    }
}

/// How one request in a batch was resolved (drives per-request latency
/// accounting and the slow-query log).
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Invalid,
    CacheHit,
    Computed,
}

/// Display name of a request's mode for telemetry.
pub fn mode_name(req: &QueryRequest) -> &'static str {
    match req {
        QueryRequest::Threshold { .. } => "threshold",
        QueryRequest::TopK { .. } => "top_k",
        QueryRequest::Listing { .. } => "listing",
        QueryRequest::Approx { .. } => "approx",
    }
}

fn pattern_of(req: &QueryRequest) -> &[u8] {
    match req {
        QueryRequest::Threshold { pattern, .. }
        | QueryRequest::TopK { pattern, .. }
        | QueryRequest::Listing { pattern, .. }
        | QueryRequest::Approx { pattern, .. } => pattern,
    }
}

/// Test hook: a request for this pattern panics inside its segment jobs,
/// standing in for a bug in an executor.
#[cfg(test)]
pub(crate) const PANIC_PATTERN: &[u8] = b"!panic";

fn mismatched(mode: &str) -> Error {
    Error::internal(format!(
        "{mode} request produced a mismatched response kind"
    ))
}

/// What one traced request looked like from the inside: the flat stage
/// timings a network response can carry, and the full span set for the
/// slow-query log or an exporter. Produced by [`Engine::run_traced`] for
/// requests whose trace recorded; `None` otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The request's trace id.
    pub trace_id: u128,
    /// Root span duration in microseconds.
    pub duration_us: u64,
    /// Whether the trace was committed to the tracer's ring.
    pub kept: bool,
    /// `(stage, microseconds)` in lifecycle order — the wire-friendly
    /// flat breakdown.
    pub stages: Vec<(&'static str, u64)>,
    /// Every span of the request's trace, root included.
    pub spans: Vec<SpanRecord>,
}

/// Work under this many microseconds is *cheap*: doing it on the thread
/// that holds it beats handing it to another one. The measurement that
/// chose it: on `serve-wire` (62 documents, ~8 µs of work a request) the
/// loop → worker → loop hand-off adds 75 µs to a round trip when the host
/// schedules the guest slowly and 19 µs when it does so fast (CHANGES.md,
/// PR 18). A thread that keeps a request for less than the hand-off costs
/// delays whatever else it owes by less than handing *that* off would, so
/// the line sits between the two readings. One constant serves the three
/// questions that are the same question: is a request cheap enough to
/// answer where it was read, is a fan-out cheap enough to need no helper,
/// and has a thread with other duties done enough inline for now.
const CHEAP_WORK_US: u64 = 50;

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a computed request costs *in work* — Σ segment-answer time + merge,
/// not elapsed time, so it reads the same on whichever thread, with or
/// without helpers, the request ran — as a decaying maximum: a sample above
/// the estimate replaces it at once, a sample below lets it sink by an
/// eighth. Cache hits and validation failures compute nothing and feed
/// nothing.
struct WorkEstimate {
    /// Nanoseconds; [`WorkEstimate::UNPRIMED`] until the first sample.
    ns: AtomicU64,
    /// `service.inline_estimate_us`: the same number for a scrape, −1
    /// while unprimed.
    gauge: Gauge,
}

impl WorkEstimate {
    const UNPRIMED: u64 = u64::MAX;

    fn new(gauge: Gauge) -> Self {
        gauge.set(-1);
        Self {
            ns: AtomicU64::new(Self::UNPRIMED),
            gauge,
        }
    }

    fn feed(&self, sample_ns: u64) {
        let sample = sample_ns.min(Self::UNPRIMED - 1);
        let fed = |old: u64| match old {
            Self::UNPRIMED => sample,
            old => sample.max(old - old / 8),
        };
        let step = |old| Some(fed(old));
        // One atomic step, so a racing cheap sample never overwrites a slow one.
        // ordering: Relaxed — a statistic that publishes no other data.
        let replaced = self
            .ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, step);
        let (Ok(old) | Err(old)) = replaced;
        self.gauge
            .set(i64::try_from(fed(old) / 1_000).unwrap_or(i64::MAX));
    }

    /// Whether `requests` computed requests together are expected to stay
    /// under [`CHEAP_WORK_US`]. Unprimed means *not* cheap: nothing is
    /// assumed about a collection no request has yet been computed on.
    fn is_cheap(&self, requests: usize) -> bool {
        // ordering: Relaxed — see `feed`.
        let ns = self.ns.load(Ordering::Relaxed);
        ns != Self::UNPRIMED && ns.saturating_mul(requests as u64) < CHEAP_WORK_US * 1_000
    }
}

/// The reusable dispatch core: a fixed thread pool plus an optional LRU
/// result cache. Holds no documents — every batch runs over the
/// [`SegmentSet`] it is handed.
pub struct Engine {
    pool: ThreadPool,
    cache: Option<Mutex<LruCache<CacheKey, QueryResponse>>>,
    work: WorkEstimate,
    metrics: EngineMetrics,
    slow_log: Arc<SlowQueryLog>,
    tracer: Arc<Tracer>,
}

impl Engine {
    /// Spawns `threads` workers (0 = one per available core);
    /// `cache_capacity` of 0 disables the result cache.
    pub fn new(threads: usize, cache_capacity: usize) -> Self {
        let metrics = EngineMetrics::new();
        Self {
            pool: ThreadPool::new(threads),
            cache: (cache_capacity > 0).then(|| Mutex::new(LruCache::new(cache_capacity))),
            work: WorkEstimate::new(metrics.registry.gauge("service.inline_estimate_us")),
            metrics,
            slow_log: Arc::new(SlowQueryLog::default()),
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// This engine's tracer (sampling off by default; enable with
    /// [`Tracer::set_sample_permyriad`] / [`Tracer::set_slow_us`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `job` on the pool — the same workers [`Engine::run`] fans out
    /// over, so a front end that queues its request jobs here needs no
    /// query threads of its own. A job may call [`Engine::run`]: the
    /// fan-out is worked by the thread that asks for it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.pool.execute(job);
    }

    /// `(hits, misses)` of the result cache since the engine was created;
    /// zeros when caching is disabled. The counters are cumulative totals
    /// over the engine's lifetime — they are never reset, not even by
    /// [`Engine::invalidate_cache`]. They are the `service.cache.hits` /
    /// `service.cache.misses` counters of [`Engine::metrics_snapshot`]:
    /// one source of truth, two views.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.metrics.cache_hits.get(),
            self.metrics.cache_misses.get(),
        )
    }

    /// Point-in-time snapshot of this engine's metrics registry (cache
    /// counters, request/error totals, per-stage latency histograms).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// This engine's slow-query ring (threshold adjustable at runtime via
    /// [`SlowQueryLog::set_threshold_us`]).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    /// Drops every cached response (the hit/miss counters are preserved).
    /// A mutable service calls this on every write, because cached answers
    /// describe a collection state that no longer exists.
    pub fn invalidate_cache(&self) {
        if let Some(c) = &self.cache {
            lock_clean(c).clear();
        }
    }

    fn cache_get(&self, key: &CacheKey) -> Option<QueryResponse> {
        let cache = self.cache.as_ref()?;
        let hit = lock_clean(cache).get(key);
        match &hit {
            Some(_) => self.metrics.cache_hits.inc(),
            None => self.metrics.cache_misses.inc(),
        }
        hit
    }

    fn cache_put(&self, key: CacheKey, value: QueryResponse) {
        if let Some(c) = &self.cache {
            lock_clean(c).insert(key, value);
        }
    }

    /// Answers a typed batch of any mix of query modes, fanning each
    /// request across every segment of `set` on the thread pool. Responses
    /// are positionally aligned with `requests` and **identical** to
    /// [`Engine::run_sequential`] for every mode — per-segment answers are
    /// merged in segment order (top-k with a total tie-break), never in
    /// completion order.
    pub fn run(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        self.run_traced(set, requests, &[])
            .into_iter()
            .map(|(result, _)| result)
            .collect()
    }

    /// [`Engine::run`] with tracing: opens a root span per request (fresh,
    /// or continuing a propagated parent from `parents` — positionally
    /// aligned, missing tail = no parent), records cache-lookup / fanout /
    /// per-segment / merge child spans, and returns each request's
    /// [`TraceSummary`] alongside its response. Tracing disabled ⇒ every
    /// summary is `None` and the span sites cost one branch each; answers
    /// are identical either way.
    pub fn run_traced(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
        parents: &[Option<TraceContext>],
    ) -> Vec<(Result<QueryResponse, Error>, Option<TraceSummary>)> {
        self.run_batch(set, requests, parents, false)
    }

    /// Answers one request **on the calling thread, or declines** (`None`:
    /// nothing was computed, counted or traced — queue the request as
    /// usual). For a caller with other duties — an event loop holding a
    /// decoded request — that would rather not pay two thread wakes for a
    /// few microseconds of work. It is answered here only while the
    /// engine's measured estimate of a computed request's work and
    /// `spent_us`, what the caller has already spent on such answers since
    /// it last looked after its other duties, are each under the engine's
    /// one cheapness constant. Deciding and answering are one call, so the
    /// answer is computed without helper tickets whatever a concurrent
    /// sample does to the estimate meanwhile: an inline answer waits on no
    /// other thread. Same validation, cache, merge, tracing and accounting
    /// as [`Engine::run_traced`] — same answer.
    pub fn run_inline(
        &self,
        set: &dyn SegmentSet,
        request: &QueryRequest,
        parent: Option<TraceContext>,
        spent_us: u64,
    ) -> Option<(Result<QueryResponse, Error>, Option<TraceSummary>)> {
        if spent_us >= CHEAP_WORK_US || !self.work.is_cheap(1) {
            return None;
        }
        self.run_batch(
            set,
            std::slice::from_ref(request),
            std::slice::from_ref(&parent),
            true,
        )
        .pop()
    }

    /// The one dispatch path. `alone`: the caller may wait on no other
    /// thread, so the fan-out gets no helper tickets; otherwise it gets
    /// them unless the whole fan-out is expected to be cheaper than the
    /// wake a helper costs.
    fn run_batch(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
        parents: &[Option<TraceContext>],
        alone: bool,
    ) -> Vec<(Result<QueryResponse, Error>, Option<TraceSummary>)> {
        let batch_span = Span::on(self.metrics.batch_us.clone());
        self.metrics.requests.add(requests.len() as u64);
        let segments = set.segments();
        let tau_min = set.tau_min();
        let epoch = set.cache_epoch();
        let num_segments = segments.len();
        let mut results: Vec<Option<Result<QueryResponse, Error>>> = vec![None; requests.len()];
        let mut outcomes: Vec<Outcome> = vec![Outcome::Computed; requests.len()];

        // One root span per request: continuing the propagated context
        // when one was carried in, fresh otherwise. Disabled tracer ⇒
        // every root is a no-op and so is every child derived from it.
        let mut roots: Vec<TraceSpan> = requests
            .iter()
            .enumerate()
            .map(|(q, req)| {
                let mut root = match parents.get(q).copied().flatten() {
                    Some(ctx) => self.tracer.continue_span("request", ctx),
                    None => self.tracer.root_span("request"),
                };
                root.set_str("mode", mode_name(req));
                root
            })
            .collect();

        // Resolve validation failures and cache hits up front, and collapse
        // duplicate requests onto one computation: only the first occurrence
        // (the leader) fans out; followers copy its result.
        let lookup_span = Span::on(self.metrics.lookup_us.clone());
        let lookup_start_ns = self.tracer.now_ns();
        let mut pending: Vec<usize> = Vec::new();
        let mut fanned: Vec<QueryRequest> = Vec::new(); // pending's requests, owned by the jobs
        let mut leaders: HashMap<CacheKey, usize> = HashMap::new();
        let mut followers: Vec<(usize, usize)> = Vec::new(); // (request, leader)
        for (q, (req, (outcome, result))) in requests
            .iter()
            .zip(outcomes.iter_mut().zip(results.iter_mut()))
            .enumerate()
        {
            if let Err(e) = validate_request(req, tau_min) {
                self.metrics.errors.inc();
                *outcome = Outcome::Invalid;
                *result = Some(Err(e));
                continue;
            }
            let key = request_key(req, epoch);
            if let Some(hit) = self.cache_get(&key) {
                *outcome = Outcome::CacheHit;
                *result = Some(Ok(hit));
                continue;
            }
            match leaders.get(&key) {
                Some(&leader) => followers.push((q, leader)),
                None => {
                    leaders.insert(key, q);
                    pending.push(q);
                    fanned.push(req.clone());
                }
            }
        }
        let lookup_end_ns = self.tracer.now_ns();
        let lookup_us = lookup_span.finish();
        // The lookup stage is timed once for the batch; each request's
        // trace gets its own cache_lookup child with the hit/miss verdict.
        for (root, outcome) in roots.iter().zip(&outcomes) {
            if *outcome == Outcome::Invalid {
                continue;
            }
            let verdict = if *outcome == Outcome::CacheHit {
                "hit"
            } else {
                "miss"
            };
            root.add_child_at(
                "cache_lookup",
                lookup_start_ns,
                lookup_end_ns,
                &[("cache", ustr_obs::AttrValue::Str(verdict))],
            );
        }

        // Fan out: one job per (pending request, segment), request-major,
        // scattered over the pool and worked by this thread too — so a
        // request job already running *on* the pool fans out onto it
        // without waiting for a free worker. Each leader gets a live fanout
        // child span; its per-segment children are created here (so
        // parentage is right) but restarted inside the job so they measure
        // execution, not queue wait. Kernel counts come from the running
        // thread's scratch totals — the hot loop stays atomic-free and the
        // delta is exactly this segment's work.
        let fanout_span = Span::on(self.metrics.fanout_us.clone());
        let fanout_spans: Vec<TraceSpan> = pending
            .iter()
            .map(|&q| {
                roots
                    .get(q)
                    .map_or_else(TraceSpan::disabled, |root| root.child("fanout"))
            })
            .collect();
        let seg_spans: Vec<Mutex<TraceSpan>> = fanout_spans
            .iter()
            .flat_map(|f| (0..num_segments).map(|_| Mutex::new(f.child("segment_answer"))))
            .collect();
        let segment_us = self.metrics.segment_us.clone();
        let helpers = if alone || self.work.is_cheap(pending.len()) {
            0
        } else {
            usize::MAX
        };
        let jobs = pending.len() * num_segments;
        let answers = self.pool.scatter(jobs, helpers, move |job| {
            let s = job % num_segments;
            let (Some(req), Some(segment), Some(seg_span)) = (
                fanned.get(job / num_segments),
                segments.get(s),
                seg_spans.get(job),
            ) else {
                let outside = Error::internal("a fan-out job fell outside the batch");
                return (Err(outside), 0);
            };
            #[cfg(test)]
            assert!(pattern_of(req) != PANIC_PATTERN, "injected segment panic");
            let mut seg_span = std::mem::replace(&mut *lock_clean(seg_span), TraceSpan::disabled());
            seg_span.restart();
            let kernel_before = kstats::thread_totals();
            let started = Instant::now();
            let answer = segment.answer(req);
            let work_ns = ns_since(started);
            segment_us.record(work_ns / 1_000);
            if seg_span.is_recording() {
                let d = kstats::thread_totals().since(&kernel_before);
                seg_span.set_u64("segment", s as u64);
                seg_span.set_u64("candidates", d.candidates);
                seg_span.set_u64("verified", d.verified);
                seg_span.set_u64("plane_scans", d.plane_scans);
                seg_span.set_u64("cold_scans", d.cold_scans);
            }
            seg_span.finish();
            (answer, work_ns)
        });
        // Close every leader's fanout span now that all its segment
        // answers are in.
        for span in fanout_spans {
            span.finish();
        }
        let fanout_us = fanout_span.finish();

        // Merge in segment order, whatever order the jobs finished in.
        let merge_span = Span::on(self.metrics.merge_us.clone());
        let merge_start_ns = self.tracer.now_ns();
        let mut answers = answers.into_iter();
        for &q in &pending {
            let merge_started = Instant::now();
            let mut parts = Vec::with_capacity(num_segments);
            let mut error: Option<Error> = None;
            let mut work_ns = 0u64;
            for slot in answers.by_ref().take(num_segments) {
                let answer = slot.map(|(answer, ns)| {
                    work_ns = work_ns.saturating_add(ns);
                    answer
                });
                match answer {
                    Some(Ok(part)) => parts.push(part),
                    Some(Err(e)) => {
                        // Keep the first (lowest-segment) error: deterministic.
                        error.get_or_insert(e);
                    }
                    None => {
                        error.get_or_insert(Error::internal(
                            "a segment worker never reported its answer",
                        ));
                    }
                }
            }
            let resolved = match (error, requests.get(q)) {
                (Some(e), _) => {
                    self.metrics.errors.inc();
                    Err(e)
                }
                (None, Some(req)) => {
                    let response = merge_partials(req, parts);
                    self.cache_put(request_key(req, epoch), response.clone());
                    self.work
                        .feed(work_ns.saturating_add(ns_since(merge_started)));
                    Ok(response)
                }
                (None, None) => Err(Error::internal("a pending index fell outside the batch")),
            };
            if let Some(slot) = results.get_mut(q) {
                *slot = Some(resolved);
            }
        }

        for (q, leader) in followers {
            let resolved = results.get(leader).cloned().flatten().unwrap_or_else(|| {
                Err(Error::internal(
                    "a duplicate request's leader never resolved",
                ))
            });
            if let Some(slot) = results.get_mut(q) {
                *slot = Some(resolved);
            }
        }
        let merge_end_ns = self.tracer.now_ns();
        let merge_us = merge_span.finish();
        for (root, outcome) in roots.iter().zip(&outcomes) {
            if *outcome == Outcome::Computed {
                root.add_child_at("merge", merge_start_ns, merge_end_ns, &[]);
            }
        }

        // Stage timings are batch-level (requests in one batch share the
        // pool), so a request is attributed the stages it went through:
        // cache hits stop after the lookup, computed requests ride all
        // three.
        let stages = |outcome: Outcome| match outcome {
            Outcome::Invalid => Vec::new(),
            Outcome::CacheHit => vec![("cache_lookup", lookup_us)],
            Outcome::Computed => vec![
                ("cache_lookup", lookup_us),
                ("fanout", fanout_us),
                ("merge", merge_us),
            ],
        };
        // Close every root: this is where a trace commits to (or skips)
        // the ring, and where its span tree becomes available for the
        // slow-query log and the network response's stage breakdown.
        let mut summaries: Vec<Option<TraceSummary>> = Vec::with_capacity(requests.len());
        for (root, &outcome) in roots.drain(..).zip(&outcomes) {
            summaries.push(root.finish_trace().map(|finished| TraceSummary {
                trace_id: finished.trace_id,
                duration_us: finished.duration_us,
                kept: finished.kept,
                stages: stages(outcome),
                spans: finished.spans,
            }));
        }

        // Per-request accounting: a request's attributed latency is the
        // sum of its stages. The slow threshold is read once for the whole
        // batch — one decision per request even if it is adjusted
        // concurrently.
        let slow_threshold_us = self.slow_log.threshold_us();
        let computed_us = lookup_us + fanout_us + merge_us;
        for ((req, &outcome), summary) in requests.iter().zip(&outcomes).zip(&summaries) {
            let total_us = match outcome {
                Outcome::Invalid => continue,
                Outcome::CacheHit => lookup_us,
                Outcome::Computed => computed_us,
            };
            self.metrics.request_us.record(total_us);
            if total_us >= slow_threshold_us {
                self.slow_log.observe_at(
                    SlowQueryEntry {
                        pattern: String::from_utf8_lossy(pattern_of(req)).into_owned(),
                        mode: mode_name(req),
                        total_us,
                        stages: stages(outcome),
                        spans: summary
                            .as_ref()
                            .map(|s| s.spans.clone())
                            .unwrap_or_default(),
                    },
                    slow_threshold_us,
                );
            }
        }
        batch_span.finish();

        results
            .into_iter()
            .zip(summaries)
            .map(|(r, summary)| {
                (
                    r.unwrap_or_else(|| {
                        Err(Error::internal("a request in the batch was never resolved"))
                    }),
                    summary,
                )
            })
            .collect()
    }

    /// Answers one threshold query over `set`.
    pub fn query(
        &self,
        set: &dyn SegmentSet,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Vec<DocHits>, Error> {
        let pattern = pattern.to_vec();
        match self.one_request(set, QueryRequest::Threshold { pattern, tau })? {
            QueryResponse::Threshold(shared) => Ok(shared.as_ref().clone()),
            _ => Err(mismatched("threshold")),
        }
    }

    /// Answers one collection-wide top-k query over `set`.
    pub fn query_top_k(
        &self,
        set: &dyn SegmentSet,
        pattern: &[u8],
        k: usize,
    ) -> Result<Vec<TopHit>, Error> {
        let pattern = pattern.to_vec();
        match self.one_request(set, QueryRequest::TopK { pattern, k })? {
            QueryResponse::TopK(shared) => Ok(shared.as_ref().clone()),
            _ => Err(mismatched("top-k")),
        }
    }

    /// Answers one listing query over `set`.
    pub fn query_listing(
        &self,
        set: &dyn SegmentSet,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Vec<ListingHit>, Error> {
        let pattern = pattern.to_vec();
        match self.one_request(set, QueryRequest::Listing { pattern, tau })? {
            QueryResponse::Listing(shared) => Ok(shared.as_ref().clone()),
            _ => Err(mismatched("listing")),
        }
    }

    /// Answers one ε-approximate query over `set`.
    pub fn query_approx(
        &self,
        set: &dyn SegmentSet,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Vec<DocHits>, Error> {
        let pattern = pattern.to_vec();
        match self.one_request(set, QueryRequest::Approx { pattern, tau })? {
            QueryResponse::Approx(shared) => Ok(shared.as_ref().clone()),
            _ => Err(mismatched("approx")),
        }
    }

    fn one_request(&self, set: &dyn SegmentSet, req: QueryRequest) -> Result<QueryResponse, Error> {
        self.run(set, std::slice::from_ref(&req))
            .pop()
            .unwrap_or_else(|| {
                Err(Error::internal(
                    "the engine returned no response for a one-request batch",
                ))
            })
    }

    /// Reference implementation: the same typed batch answered
    /// segment-by-segment on the calling thread (no pool), sharing the same
    /// cache and merge code. Exists to state — and test — the determinism
    /// contract of [`Engine::run`].
    pub fn run_sequential(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        let segments = set.segments();
        let tau_min = set.tau_min();
        let epoch = set.cache_epoch();
        self.metrics.requests.add(requests.len() as u64);
        requests
            .iter()
            .map(|req| {
                let span = Span::on(self.metrics.request_us.clone());
                let result = (|| {
                    validate_request(req, tau_min)?;
                    let key = request_key(req, epoch);
                    if let Some(hit) = self.cache_get(&key) {
                        return Ok(hit);
                    }
                    let mut parts = Vec::with_capacity(segments.len());
                    for segment in &segments {
                        parts.push(segment.answer(req)?);
                    }
                    let response = merge_partials(req, parts);
                    self.cache_put(key, response.clone());
                    Ok(response)
                })();
                let total_us = span.finish();
                if result.is_err() {
                    self.metrics.errors.inc();
                }
                // One threshold read per request (see SlowQueryLog docs).
                let slow_threshold_us = self.slow_log.threshold_us();
                if total_us >= slow_threshold_us {
                    self.slow_log.observe_at(
                        SlowQueryEntry {
                            pattern: String::from_utf8_lossy(pattern_of(req)).into_owned(),
                            mode: mode_name(req),
                            total_us,
                            stages: vec![("sequential", total_us)],
                            spans: Vec::new(),
                        },
                        slow_threshold_us,
                    );
                }
                result
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn the_work_estimate_is_a_decaying_maximum() {
        let gauge = Gauge::new();
        let work = WorkEstimate::new(gauge.clone());
        assert!(!work.is_cheap(1), "unprimed is not cheap");
        assert!(!work.is_cheap(0), "not even for no requests at all");
        assert_eq!(gauge.get(), -1);

        work.feed(8 * US);
        assert!(work.is_cheap(1));
        assert_eq!(gauge.get(), 8);
        // A fan-out is cheap while *all* of it is expected under the line.
        assert!(work.is_cheap((CHEAP_WORK_US / 8) as usize));
        assert!(!work.is_cheap((CHEAP_WORK_US / 8) as usize + 1));

        // One slow sample: not cheap at once.
        work.feed(600 * US);
        assert!(!work.is_cheap(1));
        assert_eq!(gauge.get(), 600);
        // Cheap samples let it sink by an eighth each: 600 → under 50 takes
        // ⌈ln 12 / ln (8/7)⌉ = 19 of them, and not one fewer.
        for _ in 0..18 {
            work.feed(8 * US);
        }
        assert!(!work.is_cheap(1), "{} us", gauge.get());
        work.feed(8 * US);
        assert!(work.is_cheap(1), "{} us", gauge.get());
        // ...and never below what the samples say.
        for _ in 0..100 {
            work.feed(8 * US);
        }
        assert_eq!(gauge.get(), 8);

        // A sample exactly on the line is not under it.
        work.feed(CHEAP_WORK_US * US);
        assert!(!work.is_cheap(1));
    }
}
