//! Atomic metric primitives and the registry that names them.
//!
//! The record path is lock-free: every handle is an `Arc` around plain
//! atomics, updated with `Relaxed` ordering. The registry's mutex is only
//! taken when a handle is created, registered, or a snapshot is assembled —
//! never per observation. Snapshots are plain data: mergeable, comparable,
//! and rendered deterministically (counters, gauges, and histograms each
//! sorted by name) so two snapshots of the same state produce identical
//! bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two up
/// to 2^63. Bucket `i > 0` covers `[2^(i-1), 2^i)`, so every power of two
/// is the exact lower boundary of its bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value (`0` only for the value zero).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower boundary of bucket `i` (the value reported by
/// [`HistogramSnapshot::quantile`] for observations landing in it).
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Monotonically increasing `u64`. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        // ordering: Relaxed — an independent monotonic counter; no other
        // memory depends on its value.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — see inc().
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — snapshot reads tolerate racing increments.
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (e.g. open connections, in-flight permits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — a gauge is a standalone last-write-wins cell.
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        // ordering: Relaxed — see set().
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        // ordering: Relaxed — see set().
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — snapshot reads tolerate racing updates.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Fixed-bucket log2-scale histogram. Recording is three relaxed atomic
/// adds; no locks, no allocation. Values are unitless `u64`s — by
/// convention the workspace records microseconds (`*_us` names) or
/// nanoseconds (`*_ns` names).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        // ordering: Relaxed — independent monotone counters; a racing snapshot may see a partial sample.
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the cells. Concurrent recorders may land
    /// between the loads, but every completed `record` is eventually
    /// visible and no count is ever lost.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // ordering: Relaxed — tearing across the cells is accepted; each is a monotone reading.
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: mergeable and comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Per-bucket addition; associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Lower boundary of the bucket holding the `q`-quantile observation
    /// (rank `ceil(q * count)`). Exact when every recorded value is a
    /// power of two; otherwise within 2x below the true value. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(HISTOGRAM_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values, rounded down. 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named metric handles. `counter`/`gauge`/`histogram` get-or-create: the
/// same name always yields handles sharing one cell.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a registry, in plain sorted maps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters/gauges add, histograms merge
    /// per bucket. Associative, so snapshots from many sources can be
    /// combined in any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += *v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += *v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Prometheus-style plaintext exposition. Deterministic: names are
    /// sorted, no timestamps, and histogram buckets are emitted
    /// cumulatively up to the highest non-empty bucket. Metric names are
    /// sanitized (`[^a-zA-Z0-9_:]` → `_`) and prefixed with `ustr_`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE ustr_{n} counter");
            let _ = writeln!(out, "ustr_{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE ustr_{n} gauge");
            let _ = writeln!(out, "ustr_{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE ustr_{n} summary");
            let _ = writeln!(out, "ustr_{n}_count {}", h.count);
            let _ = writeln!(out, "ustr_{n}_sum {}", h.sum);
            for (q, label) in [(h.p50(), "0.5"), (h.p90(), "0.9"), (h.p99(), "0.99")] {
                let _ = writeln!(out, "ustr_{n}{{quantile=\"{label}\"}} {q}");
            }
            let top = h.buckets.iter().rposition(|&b| b != 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for i in 0..=top {
                cumulative += h.buckets[i];
                let _ = writeln!(
                    out,
                    "ustr_{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_ceiling_label(i)
                );
            }
            let _ = writeln!(out, "ustr_{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        }
        out
    }

    /// Deterministic JSON rendering (sorted maps, integer values): what
    /// `ustr stats --json` and the endpoint's JSON route serve.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape_json(k),
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            );
            first = false;
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Exclusive upper bound of bucket `i`, as the exposition `le` label.
fn bucket_ceiling_label(i: usize) -> String {
    if i == 0 {
        "0".to_string()
    } else if i >= 64 {
        "+Inf".to_string()
    } else {
        format!("{}", (1u64 << i) - 1)
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // Every power of two starts its own bucket...
        for k in 0..64u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_floor(bucket_index(v)), v, "2^{k}");
            // ...and the value just below it belongs to the bucket below.
            if v > 1 {
                assert!(bucket_index(v - 1) < bucket_index(v));
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_floor(0), 0);
        // A histogram of pure powers reports them back exactly.
        let h = Histogram::new();
        for k in 0..10u32 {
            h.record(1u64 << k);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.p50(), 16);
        assert_eq!(s.quantile(1.0), 512);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(8);
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), 8);
        assert_eq!(s.p90(), 8);
        // rank ceil(0.99*100)=99 is still the 8s; the outlier is rank 100.
        assert_eq!(s.p99(), 8);
        assert_eq!(s.quantile(1.0), 1 << 20);
        assert_eq!(s.mean(), (99 * 8 + (1 << 20)) / 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let s = Histogram::new().snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // One sample is rank 1 at every q: p50 and p99 agree, at the
        // bucket floor of 1000 (512..1024 → 512).
        assert_eq!(s.p50(), s.p99());
        assert_eq!(s.p50(), bucket_floor(bucket_index(1000)));
        assert_eq!(s.p50(), 512);
        assert_eq!(s.mean(), 1000);
        // A power-of-two single sample reports itself exactly.
        let h = Histogram::new();
        h.record(4096);
        let s = h.snapshot();
        assert_eq!(s.p50(), 4096);
        assert_eq!(s.p99(), 4096);
    }

    #[test]
    fn bucket_boundary_values_at_powers_of_two_split_cleanly() {
        // 2^k and 2^k - 1 land in adjacent buckets for every k; the
        // histogram's quantiles see the split.
        for k in 1..63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1, "2^{k}");
            assert_eq!(bucket_floor(bucket_index(v)), v);
            assert!(bucket_floor(bucket_index(v - 1)) < v);
        }
        // u64::MAX stays inside the top bucket rather than overflowing.
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.quantile(1.0), bucket_floor(HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn snapshot_merge_with_disjoint_bucket_ranges() {
        // One histogram entirely in the low buckets, one entirely in the
        // high ones: the merge keeps both populations intact and its
        // quantiles walk from one range into the other.
        let low = Histogram::new();
        for _ in 0..60 {
            low.record(4); // bucket for 4..8
        }
        let high = Histogram::new();
        for _ in 0..40 {
            high.record(1 << 30);
        }
        let mut merged = low.snapshot();
        merged.merge(&high.snapshot());
        assert_eq!(merged.count, 100);
        assert_eq!(merged.sum, 60 * 4 + 40 * (1u64 << 30));
        // No bucket between the two populated ones gained mass.
        let lo_i = bucket_index(4);
        let hi_i = bucket_index(1 << 30);
        assert_eq!(merged.buckets[lo_i], 60);
        assert_eq!(merged.buckets[hi_i], 40);
        for (i, &b) in merged.buckets.iter().enumerate() {
            if i != lo_i && i != hi_i {
                assert_eq!(b, 0, "bucket {i}");
            }
        }
        // rank 50 ≤ 60 → low range; rank 99 > 60 → high range.
        assert_eq!(merged.p50(), 4);
        assert_eq!(merged.p99(), 1 << 30);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 1000]);
        let b = mk(&[0, 0, 7, 1 << 40]);
        let c = mk(&[3]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        assert_eq!(left.count, 8);
        assert_eq!(left.sum, a.sum + b.sum + c.sum);
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let h = Histogram::new();
        let c = Counter::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                        c.inc();
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), threads * per_thread);
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn registry_get_or_create_shares_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(reg.counter("x").get(), 7);

        reg.gauge("g").set(-5);
        reg.histogram("h").record(8);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 7);
        assert_eq!(snap.gauges["g"], -5);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_merge_folds_by_name() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.counter("c").add(2);
        r2.counter("c").add(5);
        r2.counter("only2").add(1);
        r1.histogram("h").record(4);
        r2.histogram("h").record(4);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot());
        assert_eq!(s.counters["c"], 7);
        assert_eq!(s.counters["only2"], 1);
        assert_eq!(s.histograms["h"].count, 2);
    }

    #[test]
    fn render_text_is_deterministic_and_parseable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("net.frames_in").add(42);
        reg.gauge("net.conns_open").set(3);
        reg.histogram("service.request_us").record(128);
        let snap = reg.snapshot();
        let a = snap.render_text();
        let b = snap.render_text();
        assert_eq!(a, b);
        assert!(a.contains("ustr_net_frames_in 42"));
        assert!(a.contains("ustr_net_conns_open 3"));
        assert!(a.contains("ustr_service_request_us_count 1"));
        assert!(a.contains("quantile=\"0.99\""));
        assert!(a.contains("ustr_service_request_us_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn render_json_is_valid_enough_for_the_gate_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("a\"b").add(1);
        reg.histogram("h").record(1000);
        let json = reg.snapshot().render_json();
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"p50\": 512"));
        assert!(json.ends_with("}\n"));
    }
}
