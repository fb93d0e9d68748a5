//! Ring-buffered slow-query log: queries whose total latency crosses a
//! configurable threshold are kept (pattern, mode, per-stage breakdown,
//! and — when the query was traced — its full span tree) for later
//! dumping, bounded by a fixed capacity.

use crate::trace::{assemble_traces, render_tree, SpanRecord};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded slow query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Pattern, lossily decoded for display.
    pub pattern: String,
    /// Query mode name (`threshold`, `top_k`, `listing`, `approx`).
    pub mode: &'static str,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// `(stage name, microseconds)` breakdown, in lifecycle order.
    pub stages: Vec<(&'static str, u64)>,
    /// The query's trace spans when it was traced (empty otherwise);
    /// rendered as an indented span tree under the flat stage line.
    pub spans: Vec<SpanRecord>,
}

impl SlowQueryEntry {
    /// One-line rendering: `12345us threshold "AT" [lookup=3 fanout=12000 merge=40]`.
    /// Traced entries append their span tree, indented, on following
    /// lines.
    pub fn render(&self) -> String {
        let mut out = format!("{}us {} {:?} [", self.total_us, self.mode, self.pattern);
        for (i, (stage, us)) in self.stages.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(out, "{sep}{stage}={us}");
        }
        out.push(']');
        for tree in assemble_traces(&self.spans) {
            for line in render_tree(&tree).lines() {
                out.push_str("\n  ");
                out.push_str(line);
            }
        }
        out
    }
}

/// Fixed-capacity ring of the most recent slow queries. The threshold is
/// an atomic so serving code can adjust it without locks; the ring itself
/// is mutex-guarded but only touched for queries that are already slow.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    threshold_us: AtomicU64,
    ring: Mutex<VecDeque<SlowQueryEntry>>,
}

/// Default slow-query threshold: 10ms.
pub const DEFAULT_SLOW_QUERY_US: u64 = 10_000;

/// Default ring capacity.
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 32;

impl Default for SlowQueryLog {
    fn default() -> Self {
        Self::new(DEFAULT_SLOW_QUERY_CAPACITY, DEFAULT_SLOW_QUERY_US)
    }
}

impl SlowQueryLog {
    pub fn new(capacity: usize, threshold_us: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            threshold_us: AtomicU64::new(threshold_us),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub fn threshold_us(&self) -> u64 {
        // ordering: Relaxed — a live-tunable threshold read racily; a stale
        // value only misclassifies the query in flight during the change.
        self.threshold_us.load(Ordering::Relaxed)
    }

    pub fn set_threshold_us(&self, us: u64) {
        // ordering: Relaxed — see threshold_us().
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records `entry` if it is at or over `threshold_us`, evicting the
    /// oldest entry when full. Returns whether it was kept. The threshold
    /// is the caller's one read of [`threshold_us`](Self::threshold_us), so
    /// one request makes exactly one threshold decision even if
    /// [`set_threshold_us`](Self::set_threshold_us) races with it.
    pub fn observe_at(&self, entry: SlowQueryEntry, threshold_us: u64) -> bool {
        if entry.total_us < threshold_us {
            return false;
        }
        let mut ring = self.ring.lock().expect("slow-query log poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Entries in arrival order (oldest first).
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring
            .lock()
            .expect("slow-query log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The `n` worst recent queries, slowest first (ties keep arrival
    /// order).
    pub fn worst(&self, n: usize) -> Vec<SlowQueryEntry> {
        let mut all = self.entries();
        all.sort_by_key(|e| std::cmp::Reverse(e.total_us));
        all.truncate(n);
        all
    }

    pub fn len(&self) -> usize {
        self.ring.lock().expect("slow-query log poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.ring.lock().expect("slow-query log poisoned").clear();
    }

    /// Multi-line dump of the worst `n` entries, one per line; empty
    /// string when nothing was recorded.
    pub fn render(&self, n: usize) -> String {
        let mut out = String::new();
        for e in self.worst(n) {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(total_us: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            pattern: "AT".to_string(),
            mode: "threshold",
            total_us,
            stages: vec![
                ("lookup", 1),
                ("fanout", total_us.saturating_sub(2)),
                ("merge", 1),
            ],
            spans: Vec::new(),
        }
    }

    #[test]
    fn threshold_filters_and_is_adjustable() {
        let log = SlowQueryLog::new(4, 100);
        assert!(!log.observe_at(entry(99), log.threshold_us()));
        assert!(log.observe_at(entry(100), log.threshold_us()));
        log.set_threshold_us(1000);
        assert!(!log.observe_at(entry(500), log.threshold_us()));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let log = SlowQueryLog::new(3, 0);
        for t in 1..=5 {
            log.observe_at(entry(t), 0);
        }
        let totals: Vec<u64> = log.entries().iter().map(|e| e.total_us).collect();
        assert_eq!(totals, vec![3, 4, 5]);
    }

    #[test]
    fn worst_sorts_descending() {
        let log = SlowQueryLog::new(8, 0);
        for t in [5, 900, 20, 300] {
            log.observe_at(entry(t), 0);
        }
        let worst: Vec<u64> = log.worst(2).iter().map(|e| e.total_us).collect();
        assert_eq!(worst, vec![900, 300]);
    }

    #[test]
    fn render_includes_stage_breakdown() {
        let log = SlowQueryLog::new(2, 0);
        log.observe_at(entry(1000), 0);
        let text = log.render(10);
        assert!(text.contains("1000us threshold \"AT\""));
        assert!(text.contains("fanout=998"));
    }

    #[test]
    fn traced_entries_render_their_span_tree() {
        use crate::{Tracer, SAMPLE_SCALE};
        let t = std::sync::Arc::new(Tracer::with_seed(17));
        t.set_sample_permyriad(SAMPLE_SCALE);
        let now = std::time::Instant::now;
        let root = t.root_span("request", now());
        let mut child = root.child("cache_lookup", now());
        child.set_str("cache", "miss");
        child.finish(now());
        let finished = root.finish_trace(now()).expect("recording root");
        let log = SlowQueryLog::new(2, 0);
        let mut e = entry(1000);
        e.spans = finished.spans;
        log.observe_at(e, 0);
        let text = log.render(10);
        assert!(text.contains("1000us threshold \"AT\""));
        // The span tree follows the flat stage line, indented.
        assert!(text.contains("\n  request "));
        assert!(text.contains("\n    cache_lookup "));
        assert!(text.contains("[cache=miss]"));
    }

    #[test]
    fn observe_at_uses_the_captured_threshold_not_the_live_one() {
        let log = SlowQueryLog::new(4, 100);
        let captured = log.threshold_us();
        // The threshold moves mid-request; the captured value decides.
        log.set_threshold_us(10_000);
        assert!(log.observe_at(entry(150), captured));
        // And vice versa: a raised captured threshold filters even after
        // the live one drops.
        log.set_threshold_us(0);
        assert!(!log.observe_at(entry(150), 10_000));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn threshold_race_makes_one_decision_per_request() {
        // A writer flips the threshold between "keep nothing" and "keep
        // everything" while observers record entries at a fixed captured
        // threshold of 0. Every observe_at must keep its entry — a
        // re-read of the live threshold inside it would drop some.
        let log = std::sync::Arc::new(SlowQueryLog::new(usize::MAX >> 1, 0));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        const PER_THREAD: u64 = 500;
        std::thread::scope(|s| {
            let flipper = {
                let log = std::sync::Arc::clone(&log);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    let mut up = false;
                    // ordering: Relaxed — a test stop flag.
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        log.set_threshold_us(if up { u64::MAX } else { 0 });
                        up = !up;
                        std::thread::yield_now();
                    }
                })
            };
            let mut workers = Vec::new();
            for _ in 0..3 {
                let log = std::sync::Arc::clone(&log);
                workers.push(s.spawn(move || {
                    let mut kept = 0u64;
                    for i in 0..PER_THREAD {
                        // One threshold read per request, then one decision.
                        let threshold = 0; // captured at request start
                        if log.observe_at(entry(i + 1), threshold) {
                            kept += 1;
                        }
                    }
                    kept
                }));
            }
            let kept: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
            // ordering: Relaxed — a test stop flag.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            flipper.join().unwrap();
            assert_eq!(kept, 3 * PER_THREAD);
            assert_eq!(log.len(), (3 * PER_THREAD) as usize);
        });
    }

    #[test]
    fn concurrent_observers_never_exceed_capacity() {
        let log = std::sync::Arc::new(SlowQueryLog::new(16, 0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        log.observe_at(entry(t * 1000 + i), 0);
                    }
                });
            }
        });
        assert_eq!(log.len(), 16);
    }
}
