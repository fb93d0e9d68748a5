//! Per-request distributed tracing: propagated contexts, span trees, and
//! a lock-free finished-span ring.
//!
//! A [`Tracer`] hands out per-request [`TraceContext`]s — a 128-bit trace
//! id, the parent span id, and a sampling decision — and records finished
//! [`SpanRecord`]s (name, parent, start/end monotonic nanoseconds, a small
//! fixed-capacity key/value payload) into a fixed-capacity ring, assembled
//! on demand into span trees ([`Tracer::traces`]) and exported as Chrome
//! `trace_event` JSON ([`chrome_trace_json`], loadable in `chrome://tracing`
//! or Perfetto).
//!
//! Design rules:
//!
//! * **Deterministic sampling, no floats.** The sampler is a pure integer
//!   function of the trace id (an FNV-1a hash compared against a
//!   parts-per-[`SAMPLE_SCALE`] rate), so the same trace id makes the same
//!   decision on every node that sees it, and tracing can never perturb
//!   float-determinism-audited query code. The decision is made when the
//!   root opens: a trace that records is a trace that is kept.
//! * **The caller's clock.** A span opens and finishes at [`Instant`]s the
//!   caller read, so the one reading that times a stage for a histogram is
//!   also that stage's span — the two cannot disagree.
//! * **One branch per span site when off.** A disabled tracer returns
//!   no-op [`TraceSpan`]s; every operation on them is a tag check.
//! * **The ring never blocks a recorder.** Slots are claimed with one
//!   atomic increment and written under a `try_lock`; a contended slot
//!   drops the span (counted in [`Tracer::dropped_spans`]) instead of
//!   making a request path wait for an exporter.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum key/value attributes one span can carry; pushes past the
/// capacity are dropped (the payload is a fixed-size inline array so hot
/// paths never allocate per attribute).
pub const MAX_SPAN_ATTRS: usize = 8;

/// Sampling rates are expressed in parts per this scale (permyriad:
/// 10 000 = always, 100 = 1%, 0 = never).
pub const SAMPLE_SCALE: u32 = 10_000;

/// Default capacity of the finished-span ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One span attribute value: an integer or a static label — never a float,
/// so traces stay bit-reproducible and lint-clean in determinism-audited
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// An integer payload (counts, sizes, ids).
    U64(u64),
    /// A static label (e.g. `cache=hit`).
    Str(&'static str),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Fixed-capacity inline attribute payload (at most [`MAX_SPAN_ATTRS`]
/// entries; extra pushes are silently dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrSet {
    len: u8,
    items: [(&'static str, AttrValue); MAX_SPAN_ATTRS],
}

impl Default for AttrSet {
    fn default() -> Self {
        Self {
            len: 0,
            items: [("", AttrValue::U64(0)); MAX_SPAN_ATTRS],
        }
    }
}

impl AttrSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one attribute; returns `false` (and drops it) when full.
    pub fn push(&mut self, key: &'static str, value: AttrValue) -> bool {
        let Some(slot) = self.items.get_mut(self.len as usize) else {
            return false;
        };
        *slot = (key, value);
        self.len += 1;
        true
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The attributes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, AttrValue)> {
        self.items.iter().take(self.len as usize)
    }

    /// First value recorded under `key`, if any.
    pub fn get(&self, key: &str) -> Option<AttrValue> {
        self.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// A propagated trace context: enough to continue one trace on another
/// thread, process, or host (it is what `ustr-net` carries on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of the trace.
    pub trace_id: u128,
    /// Span id the continuation should parent under (0 = a root).
    pub parent_span: u64,
    /// The originator's sampling decision. Propagated `true` forces the
    /// continuation to record even when the local rate would not.
    pub sampled: bool,
}

/// One finished span, as stored in the ring and slow-query log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (unique within the trace, never 0).
    pub span_id: u64,
    /// Parent span id (0 = a trace root).
    pub parent_span: u64,
    /// Static site name (`request`, `cache_lookup`, `segment_answer`, …).
    pub name: &'static str,
    /// Start, in monotonic nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, same clock. Always `>= start_ns`.
    pub end_ns: u64,
    /// Fixed-capacity key/value payload.
    pub attrs: AttrSet,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_us(&self) -> u64 {
        self.duration_ns() / 1_000
    }
}

/// FNV-1a 64-bit over the 16 little-endian bytes of a trace id: the pure
/// integer hash behind the deterministic sampling decision.
fn trace_hash(trace_id: u128) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in trace_id.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: the id-sequence whitener.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-trace scratch: spans buffer here until the root finishes and
/// commits them to the ring in one batch (and hands them back to the
/// caller as a [`FinishedTrace`]).
struct TraceBuf {
    trace_id: u128,
    /// Whitened span-id allocator: unique within the process, and spread
    /// so spans minted by a remote continuation cannot collide with the
    /// originator's ids.
    id_base: u64,
    next_seq: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceBuf {
    fn next_span_id(&self) -> u64 {
        // ordering: Relaxed — a private allocator; ids only need uniqueness.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        mix64(self.id_base ^ seq).max(1)
    }
}

/// Fixed-capacity ring of finished spans. Writers claim a slot with one
/// atomic increment and fill it under a `try_lock` — a contended slot
/// drops the span rather than blocking a request path. Readers (exporters)
/// lock slots normally.
struct SpanRing {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, record: SpanRecord) {
        // ordering: Relaxed — the cursor only distributes slot indices;
        // slot contents are published by the slot's own lock.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        match self.slots.get(i).map(|s| s.try_lock()) {
            Some(Ok(mut slot)) => *slot = Some(record),
            _ => {
                // ordering: Relaxed — a lossy-telemetry counter.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn collect(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().ok().and_then(|slot| *slot))
            .collect();
        out.sort_by_key(|r| (r.start_ns, r.span_id));
        out
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            if let Ok(mut s) = slot.lock() {
                *s = None;
            }
        }
    }
}

/// The tracing subsystem: hands out contexts, buffers live traces, keeps
/// finished spans in a ring. Cheap to share (`Arc`) and cheap when off —
/// every span site is one branch on [`Tracer::enabled`].
pub struct Tracer {
    epoch: Instant,
    seed: u64,
    sample_permyriad: AtomicU32,
    next_trace: AtomicU64,
    ring: SpanRing,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer (sample rate 0) with the default ring capacity.
    /// Enable with [`Tracer::set_sample_permyriad`].
    pub fn new() -> Self {
        // Seed from a process counter plus wall-clock nanoseconds: trace
        // ids must differ across processes, not be cryptographic.
        static SEEDS: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — a uniqueness counter, nothing synchronizes on it.
        let n = SEEDS.fetch_add(1, Ordering::Relaxed);
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed = mix64(clock) ^ mix64(n.wrapping_add(0x5eed));
        Self::with_seed_and_capacity(seed, DEFAULT_TRACE_CAPACITY)
    }

    /// Deterministic construction for tests: trace ids and span ids are a
    /// pure function of `seed` and call order.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_seed_and_capacity(seed, DEFAULT_TRACE_CAPACITY)
    }

    fn with_seed_and_capacity(seed: u64, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            seed,
            sample_permyriad: AtomicU32::new(0),
            next_trace: AtomicU64::new(0),
            ring: SpanRing::new(capacity),
        }
    }

    /// Sets the rate sampler: parts per [`SAMPLE_SCALE`] (clamped).
    pub fn set_sample_permyriad(&self, rate: u32) {
        // ordering: Relaxed — a live-tunable knob; a racing request may use
        // the previous rate.
        self.sample_permyriad
            .store(rate.min(SAMPLE_SCALE), Ordering::Relaxed);
    }

    pub fn sample_permyriad(&self) -> u32 {
        // ordering: Relaxed — see set_sample_permyriad().
        self.sample_permyriad.load(Ordering::Relaxed)
    }

    /// `true` when a fresh trace could be recorded — the one branch a span
    /// site pays when tracing is off.
    pub fn enabled(&self) -> bool {
        self.sample_permyriad() > 0
    }

    /// Spans lost to ring-slot contention since construction.
    pub fn dropped_spans(&self) -> u64 {
        // ordering: Relaxed — a lossy-telemetry counter.
        self.ring.dropped.load(Ordering::Relaxed)
    }

    /// The deterministic rate decision for `trace_id`: a pure integer
    /// function (hash mod [`SAMPLE_SCALE`] under the rate), so every node
    /// that sees the same id decides the same way and replays reproduce
    /// the same sampled set. No floats anywhere.
    pub fn would_sample(&self, trace_id: u128) -> bool {
        let rate = self.sample_permyriad();
        rate > 0 && (trace_hash(trace_id) % u64::from(SAMPLE_SCALE)) < u64::from(rate)
    }

    /// `at` in nanoseconds since this tracer was created (the clock all its
    /// spans share).
    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_trace_id(&self) -> u128 {
        // ordering: Relaxed — a uniqueness counter.
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let hi = mix64(self.seed ^ n);
        let lo = mix64(n.wrapping_add(self.seed).wrapping_add(0x0bad_5eed));
        (u128::from(hi) << 64) | u128::from(lo.max(1))
    }

    /// Opens, at `start`, a root span for a fresh trace. Returns a no-op
    /// span unless the rate sampler picks the new trace id.
    pub fn root_span(self: &Arc<Self>, name: &'static str, start: Instant) -> TraceSpan {
        if !self.enabled() {
            return TraceSpan::disabled();
        }
        let trace_id = self.fresh_trace_id();
        if !self.would_sample(trace_id) {
            return TraceSpan::disabled();
        }
        self.start_span(name, trace_id, 0, start)
    }

    /// Continues a propagated trace (e.g. a context carried on a network
    /// request) under a new local root span opened at `start`. The
    /// propagated sampling decision wins: `ctx.sampled` records even at a
    /// 0% local rate.
    pub fn continue_span(
        self: &Arc<Self>,
        name: &'static str,
        ctx: TraceContext,
        start: Instant,
    ) -> TraceSpan {
        if !ctx.sampled && !self.would_sample(ctx.trace_id) {
            return TraceSpan::disabled();
        }
        self.start_span(name, ctx.trace_id, ctx.parent_span, start)
    }

    fn start_span(
        self: &Arc<Self>,
        name: &'static str,
        trace_id: u128,
        parent_span: u64,
        start: Instant,
    ) -> TraceSpan {
        let buf = Arc::new(TraceBuf {
            trace_id,
            id_base: mix64(self.seed ^ (trace_id as u64) ^ parent_span),
            next_seq: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        });
        let span_id = buf.next_span_id();
        TraceSpan {
            inner: Some(SpanInner {
                tracer: Arc::clone(self),
                buf,
                span_id,
                parent_span,
                name,
                start_ns: self.ns_at(start),
                attrs: AttrSet::new(),
                root: true,
            }),
        }
    }

    /// Every span currently in the ring, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.collect()
    }

    /// The ring's contents assembled into per-trace span trees, ordered by
    /// each trace's earliest span.
    pub fn traces(&self) -> Vec<TraceTree> {
        assemble_traces(&self.spans())
    }

    /// Empties the ring (the exporter's "consume what I just rendered").
    pub fn clear(&self) {
        self.ring.clear();
    }
}

struct SpanInner {
    tracer: Arc<Tracer>,
    buf: Arc<TraceBuf>,
    span_id: u64,
    parent_span: u64,
    name: &'static str,
    start_ns: u64,
    attrs: AttrSet,
    root: bool,
}

/// A finished root span's trace: the spans it committed to the ring and
/// the root duration, handed back so callers can reuse the tree (e.g. for a
/// slow-query log entry) without re-reading the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinishedTrace {
    pub trace_id: u128,
    /// Root span duration in microseconds.
    pub duration_us: u64,
    /// Every span of the trace, root included, ordered by start time.
    pub spans: Vec<SpanRecord>,
}

/// One live span. All operations are no-ops on a disabled span, so span
/// sites need no `if tracing` guards of their own. Roots commit their whole
/// trace when they finish; a span dropped unfinished (an early return, an
/// unwind) finishes when it is dropped.
pub struct TraceSpan {
    inner: Option<SpanInner>,
}

impl TraceSpan {
    /// The no-op span (what span sites get when tracing is off).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `true` when this span will produce a record.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The context a continuation (another thread or host) should carry to
    /// parent under this span. `None` when disabled.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|i| TraceContext {
            trace_id: i.buf.trace_id,
            parent_span: i.span_id,
            sampled: true,
        })
    }

    /// Opens, at `start`, a child span (same trace, parented under this
    /// span). Children of a disabled span are disabled.
    pub fn child(&self, name: &'static str, start: Instant) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return TraceSpan::disabled();
        };
        TraceSpan {
            inner: Some(SpanInner {
                tracer: Arc::clone(&inner.tracer),
                buf: Arc::clone(&inner.buf),
                span_id: inner.buf.next_span_id(),
                parent_span: inner.span_id,
                name,
                start_ns: inner.tracer.ns_at(start),
                attrs: AttrSet::new(),
                root: false,
            }),
        }
    }

    /// Attaches an integer attribute (dropped beyond [`MAX_SPAN_ATTRS`]).
    pub fn set_u64(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push(key, AttrValue::U64(value));
        }
    }

    /// Attaches a static-label attribute (dropped beyond
    /// [`MAX_SPAN_ATTRS`]).
    pub fn set_str(&mut self, key: &'static str, value: &'static str) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push(key, AttrValue::Str(value));
        }
    }

    /// Finishes the span at `end`. A root commits its whole trace here.
    pub fn finish(mut self, end: Instant) {
        self.finish_inner(end);
    }

    /// Finishes a root span at `end` and hands back the whole trace (`None`
    /// when disabled, or for a child: its record lives on in the trace
    /// buffer until the root finishes).
    pub fn finish_trace(mut self, end: Instant) -> Option<FinishedTrace> {
        self.finish_inner(end)
    }

    fn finish_inner(&mut self, end: Instant) -> Option<FinishedTrace> {
        let inner = self.inner.take()?;
        let end_ns = inner.tracer.ns_at(end).max(inner.start_ns);
        let record = SpanRecord {
            trace_id: inner.buf.trace_id,
            span_id: inner.span_id,
            parent_span: inner.parent_span,
            name: inner.name,
            start_ns: inner.start_ns,
            end_ns,
            attrs: inner.attrs,
        };
        if !inner.root {
            if let Ok(mut spans) = inner.buf.spans.lock() {
                spans.push(record);
            }
            return None;
        }
        // Root: the trace is complete — commit it in one batch.
        let mut spans = inner
            .buf
            .spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        spans.push(record);
        spans.sort_by_key(|r| (r.start_ns, r.span_id));
        for span in &spans {
            inner.tracer.ring.push(*span);
        }
        Some(FinishedTrace {
            trace_id: record.trace_id,
            duration_us: record.duration_us(),
            spans,
        })
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let _ = self.finish_inner(Instant::now());
    }
}

/// One span plus its children, in start order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    pub span: SpanRecord,
    pub children: Vec<TraceNode>,
}

/// All spans of one trace, assembled into root trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    pub trace_id: u128,
    /// Root nodes (parent 0, or parent not present in the span set —
    /// e.g. the server half of a propagated trace), in start order.
    pub roots: Vec<TraceNode>,
}

impl TraceTree {
    /// Spans in the tree (all roots, recursively).
    pub fn len(&self) -> usize {
        fn count(n: &TraceNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Depth-first search for a span by name.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        fn walk<'a>(n: &'a TraceNode, name: &str) -> Option<&'a TraceNode> {
            if n.span.name == name {
                return Some(n);
            }
            n.children.iter().find_map(|c| walk(c, name))
        }
        self.roots.iter().find_map(|r| walk(r, name))
    }
}

/// Groups `spans` by trace id and builds parent/child trees. A span whose
/// parent id is absent from its trace's span set becomes a root (the
/// remote half of a propagated trace looks exactly like this). Traces are
/// ordered by their earliest span, trees by start time.
pub fn assemble_traces(spans: &[SpanRecord]) -> Vec<TraceTree> {
    use std::collections::BTreeMap;
    // Group, keeping input (start-time) order within each trace.
    let mut by_trace: BTreeMap<u128, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut traces: Vec<TraceTree> = Vec::with_capacity(by_trace.len());
    for (trace_id, members) in by_trace {
        let present: std::collections::BTreeSet<u64> = members.iter().map(|s| s.span_id).collect();
        // children[parent] = spans parented there, in start order.
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for s in &members {
            if s.parent_span != 0 && present.contains(&s.parent_span) {
                children.entry(s.parent_span).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        fn build(span: &SpanRecord, children: &BTreeMap<u64, Vec<&SpanRecord>>) -> TraceNode {
            TraceNode {
                span: *span,
                children: children
                    .get(&span.span_id)
                    .map(|kids| kids.iter().map(|k| build(k, children)).collect())
                    .unwrap_or_default(),
            }
        }
        traces.push(TraceTree {
            trace_id,
            roots: roots.iter().map(|r| build(r, &children)).collect(),
        });
    }
    traces.sort_by_key(|t| {
        t.roots
            .first()
            .map(|r| (r.span.start_ns, r.span.span_id))
            .unwrap_or((u64::MAX, u64::MAX))
    });
    traces
}

/// Renders one trace as an indented text tree (`name duration [attrs]`
/// per line) — the slow-query log's span-tree form.
pub fn render_tree(tree: &TraceTree) -> String {
    fn walk(node: &TraceNode, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(node.span.name);
        out.push(' ');
        out.push_str(&node.span.duration_us().to_string());
        out.push_str("us");
        if !node.span.attrs.is_empty() {
            out.push_str(" [");
            for (i, (k, v)) in node.span.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        out.push('\n');
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    for root in &tree.roots {
        walk(root, 0, &mut out);
    }
    out
}

/// Renders span trees as Chrome `trace_event` JSON: an object with a
/// `traceEvents` array of complete (`"ph":"X"`) events, timestamps and
/// durations in integer microseconds, one `tid` track per trace. Loadable
/// in `chrome://tracing` and Perfetto; parseable by the workspace's bench
/// gate JSON reader.
pub fn chrome_trace_json(traces: &[TraceTree]) -> String {
    use std::fmt::Write as _;
    fn push_event(out: &mut String, node: &TraceNode, tid: usize, first: &mut bool) {
        let span = &node.span;
        let sep = if *first { "" } else { "," };
        *first = false;
        let _ = write!(
            out,
            "{sep}\n    {{\"name\": \"{}\", \"cat\": \"ustr\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\
             \"trace_id\": \"{:032x}\", \"span_id\": \"{:016x}\", \"parent_span\": \"{:016x}\"",
            crate::metrics::escape_json(span.name),
            span.start_ns / 1_000,
            span.duration_ns().div_ceil(1_000).max(1),
            tid,
            span.trace_id,
            span.span_id,
            span.parent_span,
        );
        for (k, v) in span.attrs.iter() {
            let key = crate::metrics::escape_json(k);
            match v {
                AttrValue::U64(n) => {
                    let _ = write!(out, ", \"{key}\": {n}");
                }
                AttrValue::Str(s) => {
                    let _ = write!(out, ", \"{key}\": \"{}\"", crate::metrics::escape_json(s));
                }
            }
        }
        out.push_str("}}");
        for child in &node.children {
            push_event(out, child, tid, first);
        }
    }
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    let mut first = true;
    for (i, tree) in traces.iter().enumerate() {
        for root in &tree.roots {
            push_event(&mut out, root, i + 1, &mut first);
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn on_tracer() -> Arc<Tracer> {
        let t = Arc::new(Tracer::with_seed(42));
        t.set_sample_permyriad(SAMPLE_SCALE); // 100%
        t
    }

    #[test]
    fn disabled_tracer_records_nothing_and_spans_are_noops() {
        let t = Arc::new(Tracer::with_seed(1));
        assert!(!t.enabled());
        let mut root = t.root_span("request", Instant::now());
        assert!(!root.is_recording());
        assert!(root.context().is_none());
        root.set_u64("candidates", 5);
        let child = root.child("stage", Instant::now());
        assert!(!child.is_recording());
        child.finish(Instant::now());
        assert!(root.finish_trace(Instant::now()).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn sampler_is_deterministic_per_trace_id_and_respects_rate() {
        let t = Tracer::with_seed(7);
        t.set_sample_permyriad(SAMPLE_SCALE / 2);
        let decisions: Vec<bool> = (0..2000u128).map(|id| t.would_sample(id)).collect();
        // Pure function of the id: same answers on a second pass and on a
        // different tracer with a different seed.
        let t2 = Tracer::with_seed(999);
        t2.set_sample_permyriad(SAMPLE_SCALE / 2);
        for (id, &d) in decisions.iter().enumerate() {
            assert_eq!(t.would_sample(id as u128), d);
            assert_eq!(t2.would_sample(id as u128), d);
        }
        // A 50% rate lands in a plausible band over 2000 hashed ids.
        let hits = decisions.iter().filter(|&&d| d).count();
        assert!((700..1300).contains(&hits), "hits = {hits}");
        // Boundary rates.
        t.set_sample_permyriad(0);
        assert!(!t.would_sample(3));
        t.set_sample_permyriad(SAMPLE_SCALE);
        assert!(t.would_sample(3));
    }

    #[test]
    fn span_tree_assembles_parent_child_structure() {
        let t = on_tracer();
        let mut root = t.root_span("request", Instant::now());
        assert!(root.is_recording());
        root.set_str("mode", "threshold");
        let mut lookup = root.child("cache_lookup", Instant::now());
        lookup.set_str("cache", "miss");
        lookup.finish(Instant::now());
        let fanout = root.child("fanout", Instant::now());
        let mut seg = fanout.child("segment_answer", Instant::now());
        seg.set_u64("candidates", 17);
        seg.set_u64("verified", 3);
        seg.finish(Instant::now());
        fanout.finish(Instant::now());
        root.child("merge", Instant::now()).finish(Instant::now());
        let finished = root.finish_trace(Instant::now()).expect("recording root");
        assert_eq!(finished.spans.len(), 5);

        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        let tree = &traces[0];
        assert_eq!(tree.len(), 5);
        let root_node = &tree.roots[0];
        assert_eq!(root_node.span.name, "request");
        assert_eq!(
            root_node.span.attrs.get("mode"),
            Some(AttrValue::Str("threshold"))
        );
        assert_eq!(root_node.children.len(), 3);
        let seg_node = tree.find("segment_answer").expect("segment span");
        assert_eq!(
            seg_node.span.attrs.get("candidates"),
            Some(AttrValue::U64(17))
        );
        assert_eq!(seg_node.span.attrs.get("verified"), Some(AttrValue::U64(3)));
        // The segment span parents under fanout, which parents under root.
        let fanout_node = tree.find("fanout").expect("fanout span");
        assert_eq!(seg_node.span.parent_span, fanout_node.span.span_id);
        assert_eq!(fanout_node.span.parent_span, root_node.span.span_id);
    }

    #[test]
    fn spans_open_and_finish_at_the_callers_readings() {
        let t = on_tracer();
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let root = t.root_span("request", t0);
        root.child("stage", at(1_500)).finish(at(4_000));
        // A reading before the start finishes the span empty, never negative.
        root.child("late", at(5_000)).finish(at(4_000));
        let finished = root.finish_trace(at(9_999)).expect("recording root");
        let span = |name| finished.spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(span("stage").duration_ns(), 2_500);
        assert_eq!(span("late").duration_ns(), 0);
        assert_eq!(span("request").duration_ns(), 9_999);
        assert_eq!(finished.duration_us, 9);
    }

    #[test]
    fn propagated_context_forces_recording_and_links_parents() {
        let server = Arc::new(Tracer::with_seed(5)); // rate 0: off
        let client = on_tracer();
        let client_root = client.root_span("client_request", Instant::now());
        let ctx = client_root.context().expect("recording");
        assert!(ctx.sampled);
        // The server tracer would record nothing on its own...
        assert!(!server.enabled());
        // ...but the propagated decision wins.
        let remote = server.continue_span("request", ctx, Instant::now());
        assert!(remote.is_recording());
        let finished = remote.finish_trace(Instant::now()).expect("continued root");
        assert_eq!(finished.trace_id, ctx.trace_id);
        let spans = server.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_span, ctx.parent_span);
        // Assembly treats the server half as a root (its parent span lives
        // on the client).
        let trees = server.traces();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].roots.len(), 1);
    }

    #[test]
    fn ring_is_bounded_and_lossy_not_blocking() {
        let t = Arc::new(Tracer::with_seed(3));
        let small = Arc::new(Tracer::with_seed_and_capacity(9, 8));
        small.set_sample_permyriad(SAMPLE_SCALE);
        for _ in 0..100 {
            small
                .root_span("request", Instant::now())
                .finish(Instant::now());
        }
        assert!(small.spans().len() <= 8);
        drop(t);
    }

    #[test]
    fn attrs_cap_at_fixed_capacity() {
        let mut set = AttrSet::new();
        for i in 0..(MAX_SPAN_ATTRS as u64 + 4) {
            set.push("k", AttrValue::U64(i));
        }
        assert_eq!(set.len(), MAX_SPAN_ATTRS);
        let t = on_tracer();
        let mut root = t.root_span("request", Instant::now());
        for i in 0..20 {
            root.set_u64("x", i);
        }
        let finished = root.finish_trace(Instant::now()).expect("recording");
        assert_eq!(finished.spans[0].attrs.len(), MAX_SPAN_ATTRS);
    }

    #[test]
    fn chrome_export_is_structurally_valid_json() {
        let t = on_tracer();
        let mut root = t.root_span("request", Instant::now());
        root.set_str("mode", "threshold");
        let mut seg = root.child("segment_answer", Instant::now());
        seg.set_u64("candidates", 9);
        seg.finish(Instant::now());
        root.finish(Instant::now());
        let json = chrome_trace_json(&t.traces());
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"segment_answer\""));
        assert!(json.contains("\"candidates\": 9"));
        // Balanced braces/brackets (cheap structural check; the bench
        // gate's real JSON parser validates this same output in the CLI
        // and net integration tests).
        let braces = json.matches('{').count() == json.matches('}').count();
        let brackets = json.matches('[').count() == json.matches(']').count();
        assert!(braces && brackets);
        // Empty ring still renders a valid document.
        t.clear();
        let empty = chrome_trace_json(&t.traces());
        assert!(empty.contains("\"traceEvents\": [\n  ]"));
    }

    #[test]
    fn render_tree_indents_children_with_attrs() {
        let t = on_tracer();
        let mut root = t.root_span("request", Instant::now());
        let mut child = root.child("cache_lookup", Instant::now());
        child.set_str("cache", "hit");
        child.finish(Instant::now());
        root.set_str("mode", "top_k");
        root.finish(Instant::now());
        let trees = t.traces();
        let text = render_tree(&trees[0]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("request "));
        assert!(lines[0].contains("[mode=top_k]"));
        assert!(lines[1].starts_with("  cache_lookup "));
        assert!(lines[1].contains("[cache=hit]"));
    }

    #[test]
    fn dropped_spans_never_block_and_are_counted() {
        // Hold a slot's lock while a recorder writes into it: the push
        // must not block, and the loss is visible in the counter.
        let t = Arc::new(Tracer::with_seed_and_capacity(13, 1));
        t.set_sample_permyriad(SAMPLE_SCALE);
        let guard = t.ring.slots[0].lock().unwrap();
        t.root_span("request", Instant::now())
            .finish(Instant::now());
        drop(guard);
        assert_eq!(t.dropped_spans(), 1);
        assert!(t.spans().is_empty());
    }
}
