//! # ustr-obs
//!
//! Std-only, zero-dependency telemetry for the uncertain-strings
//! workspace: named atomic [counters](Counter)/[gauges](Gauge) and
//! log2-bucketed latency [histograms](Histogram) in a
//! [`MetricsRegistry`], a ring-buffered [`SlowQueryLog`], a per-request
//! distributed tracing subsystem ([`Tracer`] / [`TraceSpan`], with Chrome
//! `trace_event` export by [`chrome_trace_json`]), and a plaintext
//! Prometheus-style exposition endpoint ([`MetricsServer`]).
//!
//! Design rules, enforced throughout the workspace:
//!
//! * **Lock-free record path.** Every observation is a handful of
//!   `Relaxed` atomic adds on pre-created handles; registry locks are
//!   taken only at handle creation and snapshot time.
//! * **Instance-scoped registries for served stats.** Components that
//!   answer a `Stats` request (an engine, a net server) keep their own
//!   [`MetricsRegistry`] so concurrent instances (e.g. parallel tests)
//!   never bleed into each other's snapshots — which is what makes two
//!   idle scrapes byte-identical.
//! * **Deterministic rendering.** [`MetricsSnapshot`] is sorted maps;
//!   [`render_text`](MetricsSnapshot::render_text) and
//!   [`render_json`](MetricsSnapshot::render_json) carry no timestamps,
//!   so identical states render to identical bytes.

#![forbid(unsafe_code)]

mod expose;
mod metrics;
mod slowlog;
mod trace;

pub use expose::{scrape, scrape_path, MetricsServer, SnapshotFn, TextFn};
pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use slowlog::{
    SlowQueryEntry, SlowQueryLog, DEFAULT_SLOW_QUERY_CAPACITY, DEFAULT_SLOW_QUERY_US,
};
pub use trace::{
    assemble_traces, chrome_trace_json, render_tree, AttrSet, AttrValue, FinishedTrace, SpanRecord,
    TraceContext, TraceNode, TraceSpan, TraceTree, Tracer, DEFAULT_TRACE_CAPACITY, MAX_SPAN_ATTRS,
    SAMPLE_SCALE,
};
