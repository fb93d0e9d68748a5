//! One request, one answer function: `Core::answer` validates a request,
//! looks it up in the per-mode result cache, fans it out across the
//! segments of a [`SegmentSet`], merges the partial answers in segment
//! order, and times, traces and accounts it — all for that one request.
//!
//! Every door of [`Engine`] is that function. [`Engine::answer`] hands it
//! the thread pool for the segment fan-out; [`Engine::run_inline`] and
//! [`Engine::run_sequential`] hand it none, so the calling thread does all
//! the work; a batch ([`Engine::run`]) is a scatter of whole
//! requests over the pool, each answered without it. The static
//! [`crate::QueryService`] serves a fixed shard list through it; the
//! mutable `ustr-live` service a point-in-time snapshot of sealed segments
//! plus the memtable. Both get the same guarantees: an answer identical to
//! sequential evaluation on whichever threads it was computed, duplicate
//! requests of a batch computed once, and per-mode LRU caching keyed on
//! the exact threshold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ustr_core::Error;
use ustr_uncertain::canon;

use crate::sync::lock_clean;
use ustr_obs::{
    Counter, FinishedTrace, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SlowQueryEntry,
    SlowQueryLog, TraceContext, TraceSpan, Tracer,
};
use ustr_uncertain::kstats::{self, KernelTotals};

use crate::exec::{merge_partials, Segment, ShardPartial};
use crate::pool::run_each;
use crate::{LruCache, QueryRequest, QueryResponse, ThreadPool};

/// Per-mode request key: `(mode, pattern, τ bits or k)`. The mode tag keeps
/// e.g. `Threshold("AB", τ)` and `Approx("AB", τ)` in distinct entries. τ is
/// keyed by its bit pattern: an occurrence is admitted iff `ln p ≥ ln τ −
/// PROB_EPS`, so any two distinct τ can straddle some occurrence's boundary
/// and must never share an answer.
type RequestKey = (&'static str, Vec<u8>, u64);

fn request_key(req: &QueryRequest) -> RequestKey {
    let arg = match req {
        QueryRequest::Threshold { tau, .. }
        | QueryRequest::Listing { tau, .. }
        | QueryRequest::Approx { tau, .. } => tau.to_bits(),
        QueryRequest::TopK { k, .. } => *k as u64,
    };
    (mode_name(req), pattern_of(req).to_vec(), arg)
}

/// Full cache key: the [`SegmentSet::cache_epoch`] the answer was computed
/// against, then the request key. Keying on the epoch makes stale entries
/// unreachable even when a mutation races an in-flight request — the
/// request's insert lands under the *old* epoch, and every later lookup
/// uses the new one.
type CacheKey = (u64, RequestKey);

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
            if canon::below_floor(*tau, tau_min) {
                return Err(Error::ThresholdBelowTauMin { tau: *tau, tau_min });
            }
            Ok(())
        }
        QueryRequest::TopK { pattern, .. } => validate_pattern(pattern),
    }
}

/// A point-in-time view of a served collection: an ordered list of
/// [`Segment`]s (ascending document order across the list) and the
/// validation threshold floor. [`Engine`] answers over any implementor,
/// reading it once per call; a mutable service hands over a fresh snapshot
/// each time.
pub trait SegmentSet {
    /// Segments in ascending document order. Partial answers are merged in
    /// exactly this order.
    fn segments(&self) -> Vec<Arc<Segment>>;

    /// The smallest τ the set accepts (largest `τmin` of its documents).
    fn tau_min(&self) -> f64;

    /// A monotone counter identifying the collection state this snapshot
    /// describes. Cached responses are keyed on it, so an answer computed
    /// against one state can never serve a lookup against another — even
    /// when a mutation races an in-flight request. Immutable sets keep the
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

/// What one traced request looked like from the inside: its finished trace
/// (for the slow-query log or an exporter) and the flat stage timings a
/// network response can carry. Every answer carries one when the request's
/// trace recorded; `None` otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The request's trace: id, root duration, every span.
    pub trace: FinishedTrace,
    /// `(stage, microseconds)` in lifecycle order — the wire-friendly flat
    /// breakdown, each the duration of the trace's span of that name.
    pub stages: Vec<(&'static str, u64)>,
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

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One stage of a request (`cache_lookup`, `fanout`, `merge`). Its clock is
/// read once when it begins and once when it ends, and that one reading is
/// the stage histogram's sample, the request's `stages` entry and — when
/// the request is sampled — the extent of its span.
struct Stage {
    name: &'static str,
    started: Instant,
    span: TraceSpan,
}

impl Stage {
    fn begin(root: &TraceSpan, name: &'static str) -> Self {
        let started = Instant::now();
        let span = root.child(name, started);
        Self {
            name,
            started,
            span,
        }
    }

    /// Ends the stage at `ended`, feeding every consumer; returns its
    /// nanoseconds.
    fn end(
        self,
        ended: Instant,
        histogram: &Histogram,
        stages: &mut Vec<(&'static str, u64)>,
    ) -> u64 {
        let ns = nanos(ended.saturating_duration_since(self.started));
        histogram.record(ns / 1_000);
        stages.push((self.name, ns / 1_000));
        self.span.finish(ended);
        ns
    }
}

/// One segment job: its answer, its one clock reading (when it started, how
/// long it ran) and the kernel counts of that interval.
struct SegmentRun {
    answer: Result<ShardPartial, Error>,
    started: Instant,
    work_ns: u64,
    kernel: KernelTotals,
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

/// One request's answer and, when its trace recorded, its [`TraceSummary`].
pub type Answer = (Result<QueryResponse, Error>, Option<TraceSummary>);

/// The collection state one call answers over: a [`SegmentSet`] read once,
/// and owned, so a batch's request jobs can carry it onto the pool (and a
/// request's segment jobs its segment list, by one reference count).
struct View {
    segments: Arc<[Arc<Segment>]>,
    tau_min: f64,
    epoch: u64,
}

impl View {
    fn of(set: &dyn SegmentSet) -> Self {
        Self {
            segments: set.segments().into(),
            tau_min: set.tau_min(),
            epoch: set.cache_epoch(),
        }
    }
}

/// Everything answering a request needs except the pool — shared, so a
/// request job running *on* the pool can answer too.
struct Core {
    cache: Option<Mutex<LruCache<CacheKey, QueryResponse>>>,
    work: WorkEstimate,
    metrics: EngineMetrics,
    slow_log: SlowQueryLog,
    tracer: Arc<Tracer>,
}

impl Core {
    fn cache_get(&self, key: &CacheKey) -> Option<QueryResponse> {
        let cache = self.cache.as_ref()?;
        let hit = lock_clean(cache).get(key);
        match &hit {
            Some(_) => self.metrics.cache_hits.inc(),
            None => self.metrics.cache_misses.inc(),
        }
        hit
    }

    /// Answers one request over `view`: root span → validation → cache
    /// lookup → segment fan-out → merge in segment order → accounting.
    /// With a `pool` the fan-out is scattered over it — worked by this
    /// thread too, and by it alone while the whole fan-out is expected to
    /// be cheaper than the wake a helper costs; without one every segment
    /// is answered here, so the call waits on no other thread. The answer
    /// is the same either way: partial answers are merged in segment order
    /// (top-k with a total tie-break), never in completion order.
    fn answer(
        &self,
        view: &View,
        req: &QueryRequest,
        parent: Option<TraceContext>,
        pool: Option<&ThreadPool>,
    ) -> Answer {
        self.metrics.requests.inc();
        // Continuing the propagated context when one was carried in, fresh
        // otherwise. Disabled tracer ⇒ the root is a no-op and so is every
        // child derived from it.
        let opened = Instant::now();
        let mut root = match parent {
            Some(ctx) => self.tracer.continue_span("request", ctx, opened),
            None => self.tracer.root_span("request", opened),
        };
        root.set_str("mode", mode_name(req));
        // `(stage, microseconds)` in lifecycle order. A request that fails
        // validation goes through none, a cache hit stops after the lookup.
        let mut stages: Vec<(&'static str, u64)> = Vec::new();
        let result = 'resolved: {
            if let Err(e) = validate_request(req, view.tau_min) {
                break 'resolved Err(e);
            }

            // Without a cache there is nothing to key: no copy of the pattern.
            let key: Option<CacheKey> =
                (self.cache.as_ref()).map(|_| (view.epoch, request_key(req)));
            let mut lookup = Stage::begin(&root, "cache_lookup");
            let hit = key.as_ref().and_then(|key| self.cache_get(key));
            let cache = if hit.is_some() { "hit" } else { "miss" };
            lookup.span.set_str("cache", cache);
            lookup.end(Instant::now(), &self.metrics.lookup_us, &mut stages);
            if let Some(hit) = hit {
                break 'resolved Ok(hit);
            }

            // Fan out: one job per segment, each timed by its own reading —
            // execution, not queue wait. Kernel counts come from the running
            // thread's scratch totals: the hot loop stays atomic-free and the
            // delta is exactly this segment's work.
            let fanout = Stage::begin(&root, "fanout");
            let job = {
                let (req, segments) = (req.clone(), Arc::clone(&view.segments));
                move |s: usize| {
                    let segment = segments.get(s)?;
                    #[cfg(test)]
                    assert!(pattern_of(&req) != PANIC_PATTERN, "injected segment panic");
                    let kernel_before = kstats::thread_totals();
                    let started = Instant::now();
                    let answer = segment.answer(&req);
                    let work_ns = nanos(started.elapsed());
                    Some(SegmentRun {
                        answer,
                        started,
                        work_ns,
                        kernel: kstats::thread_totals().since(&kernel_before),
                    })
                }
            };
            let runs = match pool {
                Some(pool) => {
                    let helpers = if self.work.is_cheap(1) { 0 } else { usize::MAX };
                    pool.scatter(view.segments.len(), helpers, job)
                }
                None => run_each(view.segments.len(), job),
            };
            let fanned_in = Instant::now();
            // Each job's reading is its histogram sample, its share of the
            // work estimate and its span.
            let mut work_ns = 0u64;
            for (s, run) in runs.iter().enumerate() {
                let Some(Some(run)) = run else { continue };
                work_ns = work_ns.saturating_add(run.work_ns);
                self.metrics.segment_us.record(run.work_ns / 1_000);
                let mut span = fanout.span.child("segment_answer", run.started);
                span.set_u64("segment", s as u64);
                span.set_u64("candidates", run.kernel.candidates);
                span.set_u64("verified", run.kernel.verified);
                span.set_u64("plane_scans", run.kernel.plane_scans);
                span.set_u64("cold_scans", run.kernel.cold_scans);
                span.finish(run.started + Duration::from_nanos(run.work_ns));
            }
            fanout.end(fanned_in, &self.metrics.fanout_us, &mut stages);

            // Merge in segment order, whatever order the jobs finished in.
            let merge = Stage::begin(&root, "merge");
            let mut parts = Vec::with_capacity(view.segments.len());
            let mut error: Option<Error> = None;
            for run in runs {
                let answer = match run.flatten() {
                    Some(run) => run.answer,
                    // The job panicked.
                    None => Err(Error::internal(
                        "a segment worker never reported its answer",
                    )),
                };
                match answer {
                    Ok(part) => parts.push(part),
                    // Keep the first (lowest-segment) error: deterministic.
                    Err(e) => {
                        error.get_or_insert(e);
                    }
                }
            }
            let merged = match error {
                Some(e) => Err(e),
                None => {
                    let response = merge_partials(req, parts);
                    if let (Some(cache), Some(key)) = (&self.cache, key) {
                        lock_clean(cache).insert(key, response.clone());
                    }
                    Ok(response)
                }
            };
            let merge_ns = merge.end(Instant::now(), &self.metrics.merge_us, &mut stages);
            if merged.is_ok() {
                self.work.feed(work_ns.saturating_add(merge_ns));
            }
            merged
        };
        if result.is_err() {
            self.metrics.errors.inc();
        }

        // Closing the root is where the trace commits to the ring, and where
        // its span tree becomes available for the slow-query log and the
        // network response's stage breakdown.
        let summary = (root.finish_trace(Instant::now())).map(|trace| TraceSummary {
            trace,
            stages: stages.clone(),
        });
        // A request's latency is the sum of the stages it went through;
        // one that went through none is counted and traced, not timed.
        if !stages.is_empty() {
            let total_us = stages.iter().map(|&(_, us)| us).sum();
            self.metrics.request_us.record(total_us);
            // One threshold read: one decision even if it is adjusted
            // concurrently.
            let slow_threshold_us = self.slow_log.threshold_us();
            if total_us >= slow_threshold_us {
                self.slow_log.observe_at(
                    SlowQueryEntry {
                        pattern: String::from_utf8_lossy(pattern_of(req)).into_owned(),
                        mode: mode_name(req),
                        total_us,
                        stages,
                        spans: summary
                            .as_ref()
                            .map(|s| s.trace.spans.clone())
                            .unwrap_or_default(),
                    },
                    slow_threshold_us,
                );
            }
        }
        (result, summary)
    }
}

/// The reusable answering engine: a fixed thread pool plus an optional LRU
/// result cache. Holds no documents — every call answers over the
/// [`SegmentSet`] it is handed.
pub struct Engine {
    pool: ThreadPool,
    core: Arc<Core>,
}

impl Engine {
    /// Spawns `threads` workers (0 = one per available core);
    /// `cache_capacity` of 0 disables the result cache.
    pub fn new(threads: usize, cache_capacity: usize) -> Self {
        let metrics = EngineMetrics::new();
        Self {
            pool: ThreadPool::new(threads),
            core: Arc::new(Core {
                cache: (cache_capacity > 0).then(|| Mutex::new(LruCache::new(cache_capacity))),
                work: WorkEstimate::new(metrics.registry.gauge("service.inline_estimate_us")),
                metrics,
                slow_log: SlowQueryLog::default(),
                tracer: Arc::new(Tracer::new()),
            }),
        }
    }

    /// This engine's tracer (sampling off by default; enable with
    /// [`Tracer::set_sample_permyriad`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.core.tracer
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `job` on the pool — the same workers [`Engine::answer`] fans
    /// out over, so a front end that queues its request jobs here needs no
    /// query threads of its own. A job may call [`Engine::answer`]: the
    /// fan-out is worked by the thread that asks for it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.pool.execute(job);
    }

    /// `(hits, misses)` of the result cache since the engine was created;
    /// zeros when caching is disabled. The counters are cumulative totals
    /// over the engine's lifetime, never reset. They are the
    /// `service.cache.hits` / `service.cache.misses` counters of
    /// [`Engine::metrics_snapshot`]: one source of truth, two views.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.core.metrics.cache_hits.get(),
            self.core.metrics.cache_misses.get(),
        )
    }

    /// Point-in-time snapshot of this engine's metrics registry (cache
    /// counters, request/error totals, per-stage latency histograms).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.registry.snapshot()
    }

    /// This engine's slow-query ring (threshold adjustable at runtime via
    /// [`SlowQueryLog::set_threshold_us`]).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.core.slow_log
    }

    /// Answers one request of any mode over `set`, fanning it across every
    /// segment on the thread pool, with its [`TraceSummary`] when its trace
    /// recorded (`parent`: a propagated context the root span continues).
    /// **Identical** to [`Engine::run_sequential`] for every mode. Tracing
    /// disabled ⇒ no summary and the span sites cost one branch each.
    pub fn answer(
        &self,
        set: &dyn SegmentSet,
        request: &QueryRequest,
        parent: Option<TraceContext>,
    ) -> Answer {
        self.core
            .answer(&View::of(set), request, parent, Some(&self.pool))
    }

    /// Answers a typed batch of any mix of query modes, positionally aligned
    /// with `requests`. One request is [`Engine::answer`]. Several are
    /// scattered over the pool as whole requests, each answered by the
    /// thread that claims it — the calling thread among them, and it alone
    /// while the whole batch is expected to be cheaper than the wake a
    /// helper costs. Duplicate requests are collapsed onto their first
    /// occurrence first: it alone is answered, counted and traced, and the
    /// others copy its result — so cache hit and miss counts do not depend
    /// on how the batch was scheduled.
    pub fn run(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        let started = Instant::now();
        let answers = 'answered: {
            if let [request] = requests {
                break 'answered vec![self.answer(set, request, None).0];
            }
            let mut firsts: HashMap<RequestKey, usize> = HashMap::new();
            let mut unique: Vec<QueryRequest> = Vec::new();
            let slots: Vec<usize> = (requests.iter())
                .map(|req| {
                    *firsts.entry(request_key(req)).or_insert_with(|| {
                        unique.push(req.clone());
                        unique.len() - 1
                    })
                })
                .collect();
            let (core, view, jobs) = (Arc::clone(&self.core), View::of(set), unique.len());
            let helpers = if core.work.is_cheap(jobs) {
                0
            } else {
                usize::MAX
            };
            let answers = self.pool.scatter(jobs, helpers, move |u| {
                Some(core.answer(&view, unique.get(u)?, None, None).0)
            });
            (slots.iter())
                .map(|&u| match answers.get(u) {
                    Some(Some(Some(result))) => result.clone(),
                    // `None`: the job panicked outside its segment jobs.
                    _ => Err(Error::internal("a request job never reported its answer")),
                })
                .collect()
        };
        (self.core.metrics.batch_us).record(nanos(started.elapsed()) / 1_000);
        answers
    }

    /// Answers one request **on the calling thread, or declines** (`None`:
    /// nothing was computed, counted or traced — queue the request as
    /// usual). For a caller with other duties — an event loop holding a
    /// decoded request — that would rather not pay two thread wakes for a
    /// few microseconds of work. It is answered here only while the
    /// engine's measured estimate of a computed request's work and
    /// `spent_us`, what the caller has already spent on such answers since
    /// it last looked after its other duties, are each under the engine's
    /// one cheapness constant. The answer is computed without the pool, so
    /// whatever a concurrent sample does to the estimate meanwhile, an
    /// inline answer waits on no other thread. Same answer as
    /// [`Engine::answer`].
    pub fn run_inline(
        &self,
        set: &dyn SegmentSet,
        request: &QueryRequest,
        parent: Option<TraceContext>,
        spent_us: u64,
    ) -> Option<Answer> {
        if spent_us >= CHEAP_WORK_US || !self.core.work.is_cheap(1) {
            return None;
        }
        Some(self.core.answer(&View::of(set), request, parent, None))
    }

    /// Reference implementation: the same typed batch answered request by
    /// request, segment by segment, on the calling thread (no pool),
    /// through the same function. Exists to state — and test — the
    /// determinism contract of [`Engine::answer`] and [`Engine::run`].
    pub fn run_sequential(
        &self,
        set: &dyn SegmentSet,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        let view = View::of(set);
        (requests.iter())
            .map(|req| self.core.answer(&view, req, None, None).0)
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
