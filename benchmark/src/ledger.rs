//! The traced run's span recorder. Spans are taken in the benchmark's own
//! code, around the public call into each layer (spans inside the crates
//! are a later change): name, start, end, parent, request id, plus the
//! counter deltas read at the same boundary. They stay in memory and are
//! written as Chrome `trace_event` JSON when the run ends.
//!
//! Every pass pushes every pool request through every boundary in order,
//! so each boundary repeats the work of the one inside it; a layer's self
//! time is its span minus the next-inner span of the same request
//! ([`crate::stats::self_times`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::{Json, JsonExt};
use crate::stats::median;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Pool index of the request the span belongs to.
    pub request: usize,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas and sizes observed at this boundary.
    pub args: Vec<(&'static str, u64)>,
}

/// Span store plus the per-(boundary, request) durations of one epoch.
pub struct Ledger {
    origin: Instant,
    next_id: u64,
    /// Spans kept for the trace file (one pass per epoch; see `keep`).
    spans: Vec<SpanRec>,
    /// Whether the current pass's spans go to the trace file. Durations
    /// are always collected.
    keep: bool,
    /// `boundary → request → durations (µs)` for the current epoch.
    durations: BTreeMap<&'static str, Vec<Vec<f64>>>,
    requests: usize,
}

impl Ledger {
    pub fn new(requests: usize) -> Self {
        Self {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            keep: false,
            durations: BTreeMap::new(),
            requests,
        }
    }

    /// Keep (or stop keeping) full span records for the trace file. The
    /// first pass of each epoch is kept: enough to read a request's
    /// anatomy without writing hundreds of thousands of events.
    pub fn keep_spans(&mut self, keep: bool) {
        self.keep = keep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span `ledger.request` of one pool request.
    pub fn open_request(&mut self, request: usize) -> Root {
        let id = self.next_id;
        self.next_id += 1;
        Root {
            id,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a root span.
    pub fn close_request(&mut self, root: Root) {
        let end_ns = self.now_ns();
        if self.keep {
            self.spans.push(SpanRec {
                name: "ledger.request",
                request: root.request,
                id: root.id,
                parent: 0,
                start_ns: root.start_ns,
                end_ns,
                args: Vec::new(),
            });
        }
    }

    /// Times `call` as a child span `name` of `root` and notes its duration
    /// under `name`. `args` turns the call's result into the counters
    /// attached to the span (read by the caller around the same boundary).
    /// Returns the result and the span's duration in microseconds.
    pub fn span<T>(
        &mut self,
        root: &Root,
        name: &'static str,
        call: impl FnOnce() -> T,
        args: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> (T, f64) {
        let (out, us) = self.span_part(root, name, call, args);
        self.note(root, name, us);
        (out, us)
    }

    /// [`Ledger::span`] without the note: for a boundary crossed several
    /// times per request (one `service.segment_answer` span per segment),
    /// where the caller notes the sum and the slowest part itself.
    pub fn span_part<T>(
        &mut self,
        root: &Root,
        name: &'static str,
        call: impl FnOnce() -> T,
        args: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        if self.keep {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(SpanRec {
                name,
                request: root.request,
                id,
                parent: root.id,
                start_ns,
                end_ns,
                args: args(&out),
            });
        }
        (out, (end_ns - start_ns) as f64 / 1e3)
    }

    /// Adds a span another thread timed (a churn-phase write): a root of
    /// its own, kept regardless of `keep_spans`.
    pub fn add_finished(
        &mut self,
        name: &'static str,
        request: usize,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        let since_origin = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(SpanRec {
            name,
            request,
            id,
            parent: 0,
            start_ns: since_origin(start),
            end_ns: since_origin(end),
            args,
        });
    }

    /// Notes one pass's duration of `key` for the root's request.
    pub fn note(&mut self, root: &Root, key: &'static str, us: f64) {
        let requests = self.requests;
        self.durations
            .entry(key)
            .or_insert_with(|| vec![Vec::new(); requests])[root.request]
            .push(us);
    }

    /// Ends an epoch: per boundary, each request's median duration over
    /// the epoch's passes.
    pub fn end_epoch(&mut self) -> EpochTable {
        let table = self
            .durations
            .iter()
            .map(|(name, per_request)| (*name, per_request.iter().map(|d| median(d)).collect()))
            .collect();
        let raw = std::mem::take(&mut self.durations);
        EpochTable { table, raw }
    }

    /// Number of spans held for the trace file.
    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    /// Writes the kept spans as Chrome `trace_event` JSON ("X" complete
    /// events; `tid` is the request's pool index so each request reads as
    /// one row).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("request".to_string(), Json::Num(s.request as f64)),
                    ("span".to_string(), Json::Num(s.id as f64)),
                    ("parent".to_string(), Json::Num(s.parent as f64)),
                ];
                args.extend(
                    s.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v as f64))),
                );
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.request as f64)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// An open root span.
pub struct Root {
    id: u64,
    request: usize,
    start_ns: u64,
}

/// One epoch's durations: `boundary → per-request median (µs)`, and the
/// raw samples behind them.
pub struct EpochTable {
    table: BTreeMap<&'static str, Vec<f64>>,
    raw: BTreeMap<&'static str, Vec<Vec<f64>>>,
}

impl EpochTable {
    /// Per-request median durations of one boundary (empty when the
    /// workload never crossed it).
    pub fn per_request(&self, boundary: &str) -> &[f64] {
        self.table.get(boundary).map_or(&[], Vec::as_slice)
    }

    /// Every raw duration of one boundary, all requests pooled.
    pub fn raw(&self, boundary: &str) -> Vec<f64> {
        self.raw
            .get(boundary)
            .map(|per_request| per_request.iter().flatten().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;

    #[test]
    fn spans_nest_under_their_request_and_feed_self_times() {
        let mut ledger = Ledger::new(2);
        ledger.keep_spans(true);
        for request in 0..2 {
            let root = ledger.open_request(request);
            let (_, inner) =
                ledger.span(&root, "inner", || std::hint::black_box(1 + 1), |_| vec![]);
            let (_, outer) = ledger.span(
                &root,
                "outer",
                || std::thread::sleep(std::time::Duration::from_millis(2)),
                |_| vec![("bytes", 7)],
            );
            assert!(outer > inner);
            ledger.close_request(root);
        }
        assert_eq!(ledger.kept(), 6);
        let roots: Vec<u64> = ledger
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.id)
            .collect();
        assert_eq!(roots.len(), 2);
        assert!(ledger
            .spans
            .iter()
            .filter(|s| s.parent != 0)
            .all(|s| roots.contains(&s.parent)));

        let epoch = ledger.end_epoch();
        let added = self_times(epoch.per_request("outer"), epoch.per_request("inner"));
        assert_eq!(added.len(), 2);
        assert!(added.iter().all(|&us| us > 1_000.0), "{added:?}");
        assert_eq!(epoch.raw("outer").len(), 2);
        assert!(epoch.per_request("absent").is_empty());
        // The next epoch starts empty.
        assert!(ledger.end_epoch().per_request("outer").is_empty());
    }
}
