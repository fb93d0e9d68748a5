//! Process-global kernel counters: how much candidate enumeration and
//! verification work the [`MatchKernel`](crate::MatchKernel) callers have
//! done, mirroring the paper's cost model (candidate count vs.
//! verification work, Biswas et al. §5).
//!
//! Plain relaxed atomics, zero dependencies. A [`Scan`](crate::Scan)
//! batches its counts and calls [`record_scan_on`] **once per scan**, so
//! the per-candidate cost of instrumentation is zero. Counters are
//! cumulative for the process lifetime; telemetry layers surface them via
//! [`kernel_totals`] (e.g. merged into an exposition snapshot under
//! `kernel.*` names).

// Telemetry counters stay integer: this is the one `ustr-uncertain` module
// outside the canonical-probability code (INVARIANTS.md §1).
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static CANDIDATES: AtomicU64 = AtomicU64::new(0);
static VERIFIED: AtomicU64 = AtomicU64::new(0);
static PLANE_SCANS: AtomicU64 = AtomicU64::new(0);
static COLD_SCANS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread mirror of the same counts. `Cell` adds, no atomics: a
    // worker can delta [`thread_totals`] around one segment answer and
    // attribute exactly its own kernel work (e.g. to a trace span)
    // without any cross-thread traffic in the hot loop.
    static TL_CANDIDATES: Cell<u64> = const { Cell::new(0) };
    static TL_VERIFIED: Cell<u64> = const { Cell::new(0) };
    static TL_PLANE_SCANS: Cell<u64> = const { Cell::new(0) };
    static TL_COLD_SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Which execution path performed a scan. Both verify through the flat
/// probability plane; they differ in who picks the candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanPath {
    /// An index's candidates (the paper's indexed path).
    Plane,
    /// Every window of a document no index serves (`ScanIndex`).
    Cold,
}

/// Cumulative kernel work since process start (or, via
/// [`thread_totals`], since the calling thread started).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTotals {
    /// Candidate windows handed to the kernel for evaluation.
    pub candidates: u64,
    /// Candidates that survived verification (reported as hits).
    pub verified: u64,
    /// Always 0: the kernel reads no clock. Kept for readers that still
    /// name the field.
    pub kernel_ns: u64,
    /// Scans answered via the plane fast path.
    pub plane_scans: u64,
    /// Scans answered via the cold path.
    pub cold_scans: u64,
}

/// Adds one scan's batched counts: `candidates` windows evaluated and
/// `verified` of them kept, attributed to `path`.
#[inline]
pub fn record_scan_on(path: ScanPath, candidates: u64, verified: u64) {
    // ordering: Relaxed — process-wide monotone counters; nothing synchronizes on them.
    CANDIDATES.fetch_add(candidates, Ordering::Relaxed);
    VERIFIED.fetch_add(verified, Ordering::Relaxed);
    let (path_cell, tl_path_cell) = match path {
        ScanPath::Plane => (&PLANE_SCANS, &TL_PLANE_SCANS),
        ScanPath::Cold => (&COLD_SCANS, &TL_COLD_SCANS),
    };
    // ordering: Relaxed — see above.
    path_cell.fetch_add(1, Ordering::Relaxed);
    TL_CANDIDATES.with(|c| c.set(c.get() + candidates));
    TL_VERIFIED.with(|c| c.set(c.get() + verified));
    tl_path_cell.with(|c| c.set(c.get() + 1));
}

/// Current process-wide totals.
pub fn kernel_totals() -> KernelTotals {
    KernelTotals {
        // ordering: Relaxed — a racy snapshot is fine; each cell is a monotone reading.
        candidates: CANDIDATES.load(Ordering::Relaxed),
        verified: VERIFIED.load(Ordering::Relaxed),
        kernel_ns: 0,
        // ordering: Relaxed — same racy-snapshot reasoning as the cells above.
        plane_scans: PLANE_SCANS.load(Ordering::Relaxed),
        cold_scans: COLD_SCANS.load(Ordering::Relaxed),
    }
}

/// The calling thread's cumulative totals. Deltas around a unit of work
/// executed on one thread attribute exactly that unit's kernel counts —
/// the scratch-passed handle trick that keeps hot loops atomic-free while
/// still feeding per-segment trace spans.
pub fn thread_totals() -> KernelTotals {
    KernelTotals {
        candidates: TL_CANDIDATES.with(Cell::get),
        verified: TL_VERIFIED.with(Cell::get),
        kernel_ns: 0,
        plane_scans: TL_PLANE_SCANS.with(Cell::get),
        cold_scans: TL_COLD_SCANS.with(Cell::get),
    }
}

impl KernelTotals {
    /// Component-wise saturating difference (`self - earlier`): the work
    /// done between two [`thread_totals`] / [`kernel_totals`] readings.
    pub fn since(&self, earlier: &KernelTotals) -> KernelTotals {
        KernelTotals {
            candidates: self.candidates.saturating_sub(earlier.candidates),
            verified: self.verified.saturating_sub(earlier.verified),
            kernel_ns: 0,
            plane_scans: self.plane_scans.saturating_sub(earlier.plane_scans),
            cold_scans: self.cold_scans.saturating_sub(earlier.cold_scans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests of the crate record scans on parallel test threads, so
    /// the exact counts come from this thread's totals, and the process
    /// totals only grow by at least as much.
    #[test]
    fn record_scan_accumulates() {
        let (before, mine) = (kernel_totals(), thread_totals());
        record_scan_on(ScanPath::Cold, 10, 3);
        record_scan_on(ScanPath::Cold, 5, 5);
        let d = thread_totals().since(&mine);
        assert_eq!((d.candidates, d.verified), (15, 8));
        let all = kernel_totals().since(&before);
        assert!(all.candidates >= 15 && all.verified >= 8, "{all:?}");
    }

    #[test]
    fn scan_paths_split_plane_and_cold_counts() {
        let (before, mine) = (kernel_totals(), thread_totals());
        record_scan_on(ScanPath::Plane, 4, 1);
        record_scan_on(ScanPath::Cold, 6, 2);
        record_scan_on(ScanPath::Plane, 2, 2);
        let d = thread_totals().since(&mine);
        assert_eq!(d.plane_scans, 2);
        assert_eq!(d.cold_scans, 1);
        assert_eq!(d.candidates, 12);
        assert_eq!(d.verified, 5);
        let all = kernel_totals().since(&before);
        assert!(all.plane_scans >= 2 && all.cold_scans >= 1, "{all:?}");
        assert!(all.candidates >= 12 && all.verified >= 5, "{all:?}");
    }

    #[test]
    fn thread_totals_are_isolated_per_thread() {
        let base = thread_totals();
        record_scan_on(ScanPath::Plane, 7, 3);
        let mine = thread_totals().since(&base);
        assert_eq!(mine.candidates, 7);
        assert_eq!(mine.plane_scans, 1);
        // Another thread's work never shows up in this thread's cells.
        std::thread::spawn(|| {
            let base = thread_totals();
            record_scan_on(ScanPath::Cold, 100, 50);
            let theirs = thread_totals().since(&base);
            assert_eq!(theirs.candidates, 100);
            assert_eq!(theirs.cold_scans, 1);
            assert_eq!(theirs.plane_scans, 0);
        })
        .join()
        .unwrap();
        let after = thread_totals().since(&base);
        assert_eq!(after.candidates, 7);
        assert_eq!(after.cold_scans, 0);
    }
}
