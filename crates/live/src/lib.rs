//! Mutable uncertain-document collections served live.
//!
//! The paper's motivating data — ECG annotations, RFID event streams,
//! sequencing reads — is produced *continuously*, yet the static serving
//! stack (`ustr-service`) is frozen at build time. This crate layers a
//! mutable collection on the existing machinery:
//!
//! ```text
//!            insert/delete
//!                 │
//!                 ▼
//!        ┌─── WAL (fsync) ───┐          durability: every acknowledged
//!        │   wal.log         │          write survives a crash
//!        └────────┬──────────┘
//!                 ▼
//!        ┌─── memtable ──────┐          recent documents, served by the
//!        │  ScanIndex (exact │          `ustr-baseline` scanner — answers
//!        │  scans, O(1) add) │          bit-identical to a built index
//!        └────────┬──────────┘
//!                 │ seal (background thread, off the query path)
//!                 ▼
//!        ┌─── sealed segments┐          a real `Index` per document,
//!        │ segment_<id>.coll │          built with the existing
//!        └────────┬──────────┘          constructor, persisted as `.coll`
//!                 │ compact (background)
//!                 ▼
//!        ┌─── one big segment┐          tombstoned documents dropped,
//!        │   + MANIFEST      │          small segments merged
//!        └───────────────────┘
//! ```
//!
//! A sealed segment is a collection snapshot: it is written and read by
//! `ustr_service::{save_coll, load_coll}`, the functions behind
//! `QueryService::{save_collection, load_collection}`. Segment files are
//! written before the manifest names them and removed after it stops
//! naming them; [`LiveService::open`] sweeps whatever a crash in between
//! left unnamed.
//!
//! Queries fan out over *sealed segments + sealing batches + memtable*
//! through the same typed [`QueryRequest`] dispatcher
//! ([`ustr_service::Engine`]) the static service uses, and merge
//! deterministically in ascending document order. Deletes are tombstones,
//! filtered when the per-batch segment snapshot is taken and physically
//! dropped at compaction. The per-mode LRU result cache keys every answer
//! by the view's epoch, which every insert, delete, seal install and
//! compaction install moves: an answer about a collection state that no
//! longer exists is never looked up again, and ages out of the LRU.
//!
//! Because the memtable's scan executor and a built index satisfy the
//! [`ustr_service::DocExecutor`] interchangeability contract, a
//! [`LiveService`] answers **byte-identically** to a static
//! [`ustr_service::QueryService`] rebuilt from scratch over the same live
//! documents — before, during, and after any seal or compaction — in every
//! mode, `Approx` included (both executors answer it exactly).
//!
//! ```
//! use ustr_live::{LiveConfig, LiveService};
//! use ustr_service::{QueryRequest, QueryResponse};
//! use ustr_uncertain::UncertainString;
//!
//! let dir = std::env::temp_dir().join("ustr_live_doc_example");
//! let _ = std::fs::remove_dir_all(&dir);
//! let live = LiveService::open(&dir, LiveConfig::default()).unwrap();
//! let id = live.insert(UncertainString::parse("A:.9,B:.1 | B | C").unwrap()).unwrap();
//! let ab = QueryRequest::Threshold { pattern: b"AB".to_vec(), tau: 0.5 };
//! let Ok(QueryResponse::Threshold(hits)) = live.answer(&ab, None).0 else { panic!() };
//! assert_eq!((hits[0].doc as u64, hits[0].hits[0].0), (id, 0));
//! live.delete(id).unwrap();
//! let Ok(QueryResponse::Threshold(hits)) = live.answer(&ab, None).0 else { panic!() };
//! assert!(hits.is_empty());
//! drop(live);
//! let _ = std::fs::remove_dir_all(&dir);
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

use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ustr_baseline::ScanIndex;
use ustr_core::Error;
use ustr_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceContext, TraceSpan};
use ustr_service::{
    load_coll, lock_clean, save_coll, wait_clean, Answer, DocExecutor, DocFilter, Engine,
    QueryRequest, QueryResponse, Segment, SegmentSet,
};
use ustr_store::{wal, RealIo, StoreError, StoreIo, WalOp, WalRecord, WalWriter};
use ustr_uncertain::{canon, UncertainString};

/// File name of the write-ahead log inside a live directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the manifest inside a live directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of the advisory lock inside a live directory.
pub const LOCK_FILE: &str = "LOCK";

/// Tuning knobs for a [`LiveService`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Worker threads in the query pool (0 = one per available core).
    pub threads: usize,
    /// LRU result-cache capacity in request entries (0 disables caching;
    /// every mutation moves the cache epoch either way).
    pub cache_capacity: usize,
    /// Construction threshold `τmin ∈ (0, 1]` for every document. Fixed at
    /// directory creation; reopening adopts the recorded value.
    pub tau_min: f64,
    /// Accepted and ignored: `Approx` requests are answered exactly, sealed
    /// or not, which keeps the §7 sandwich for every ε. Kept only because
    /// `benchmark/src` names it; removal is queued in ROADMAP item 1A(e).
    pub epsilon: Option<f64>,
    /// Memtable document count that triggers a background seal
    /// (0 = only seal on explicit [`LiveService::seal`]).
    pub seal_threshold: usize,
    /// Sealed-segment count that triggers background compaction
    /// (0 = only compact on explicit [`LiveService::compact`]).
    pub compact_min_segments: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_capacity: 1024,
            tau_min: 0.05,
            epsilon: None,
            seal_threshold: 64,
            compact_min_segments: 4,
        }
    }
}

/// Everything that can go wrong operating a live collection.
#[derive(Debug)]
pub enum LiveError {
    /// Index construction or query validation failed.
    Index(Error),
    /// The WAL, manifest, or a segment snapshot failed.
    Store(StoreError),
    /// Filesystem error outside the store layer.
    Io(std::io::Error),
    /// The configuration is invalid (e.g. `tau_min` outside `(0, 1]`).
    Config(String),
    /// A delete named a document id that is not live.
    UnknownDocument {
        /// The id that was not found.
        id: u64,
    },
    /// Another process holds the live directory open (advisory `LOCK`
    /// file): concurrent writers would interleave WAL appends and corrupt
    /// the log.
    DirectoryLocked {
        /// The contended live directory.
        dir: PathBuf,
    },
    /// A background seal or compaction failed earlier; the error is
    /// surfaced (sticky) on the next mutation.
    Background(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Index(e) => write!(f, "index error: {e}"),
            LiveError::Store(e) => write!(f, "store error: {e}"),
            LiveError::Io(e) => write!(f, "I/O error: {e}"),
            LiveError::Config(detail) => write!(f, "invalid live config: {detail}"),
            LiveError::UnknownDocument { id } => {
                write!(f, "document {id} is not live (never inserted or deleted)")
            }
            LiveError::DirectoryLocked { dir } => {
                write!(
                    f,
                    "live directory {} is in use by another process",
                    dir.display()
                )
            }
            LiveError::Background(detail) => {
                write!(f, "background maintenance failed: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<Error> for LiveError {
    fn from(e: Error) -> Self {
        LiveError::Index(e)
    }
}

impl From<StoreError> for LiveError {
    fn from(e: StoreError) -> Self {
        LiveError::Store(e)
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Io(e)
    }
}

/// One sealed segment: built per-document indexes plus the manifest
/// metadata tying local positions to stable document ids.
struct SealedSegment {
    meta: wal::SegmentMeta,
    /// `(stable_id, executor)` pairs in ascending stable-id order.
    docs: Vec<(u64, Arc<DocExecutor>)>,
    /// The bigram filter over `docs`, built once here; every view shares
    /// its table.
    filter: Option<DocFilter>,
}

impl SealedSegment {
    fn new(meta: wal::SegmentMeta, docs: Vec<(u64, Arc<DocExecutor>)>) -> Self {
        let filter = DocFilter::build(docs.iter().map(|(_, d)| d.as_ref()));
        Self { meta, docs, filter }
    }
}

/// A memtable batch handed to the background sealer. Still query-visible
/// (between the sealed segments and the current memtable) until the
/// segment install replaces it.
struct SealingBatch {
    batch_id: u64,
    docs: Vec<(u64, Arc<DocExecutor>)>,
    max_seq: u64,
}

/// Mutable state behind the service lock. The lock is held only for
/// snapshots, WAL appends, and installs — never while an index builds.
struct LiveState {
    wal: WalWriter,
    memtable: Vec<(u64, Arc<DocExecutor>)>,
    sealing: Vec<SealingBatch>,
    segments: Vec<Arc<SealedSegment>>,
    tombstones: BTreeSet<u64>,
    next_doc_id: u64,
    next_seq: u64,
    next_segment_id: u64,
    next_batch_id: u64,
    applied_seq: u64,
}

impl LiveState {
    /// Every run of physically present documents, in ascending document
    /// order: sealed segments, then sealing batches, then the memtable.
    fn runs(&self) -> impl Iterator<Item = &Vec<(u64, Arc<DocExecutor>)>> {
        (self.segments.iter().map(|seg| &seg.docs))
            .chain(self.sealing.iter().map(|batch| &batch.docs))
            .chain([&self.memtable])
    }

    /// Ids of every physically present document (tombstoned or not).
    fn present_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs().flatten().map(|(id, _)| *id)
    }
}

enum Job {
    Seal { batch_id: u64 },
    Compact,
    Shutdown,
}

/// Background-event telemetry, instance-scoped like the engine's (see
/// [`LiveService::metrics_snapshot`]). WAL metrics are recorded at the
/// append call sites so the storage layer stays telemetry-free.
struct LiveMetrics {
    registry: MetricsRegistry,
    inserts: Counter,
    deletes: Counter,
    wal_appends: Counter,
    wal_bytes: Counter,
    wal_fsync_us: Histogram,
    seals: Counter,
    sealed_docs: Counter,
    seal_us: Histogram,
    compactions: Counter,
    compact_drops: Counter,
    compact_us: Histogram,
    recovery_us: Histogram,
    recovered_records: Counter,
}

impl LiveMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            inserts: registry.counter("live.inserts"),
            deletes: registry.counter("live.deletes"),
            wal_appends: registry.counter("live.wal.appends"),
            wal_bytes: registry.counter("live.wal.appended_bytes"),
            wal_fsync_us: registry.histogram("live.wal.append_fsync_us"),
            seals: registry.counter("live.seals"),
            sealed_docs: registry.counter("live.sealed_docs"),
            seal_us: registry.histogram("live.seal_us"),
            compactions: registry.counter("live.compactions"),
            compact_drops: registry.counter("live.compaction.docs_dropped"),
            compact_us: registry.histogram("live.compaction_us"),
            recovery_us: registry.histogram("live.recovery_us"),
            recovered_records: registry.counter("live.recovery.replayed_records"),
            registry,
        }
    }
}

/// Shared core between the front handle and the background worker.
struct Inner {
    dir: PathBuf,
    /// The filesystem seam every durable operation goes through. `RealIo`
    /// in production; the fault-injection tests pass faulting ones.
    io: Arc<dyn StoreIo>,
    tau_min: f64,
    compact_min_segments: usize,
    state: Mutex<LiveState>,
    engine: Engine,
    /// Bumped **under the state lock** whenever the collection or its
    /// layout changes: every mutation, an explicit seal's move of the
    /// memtable to a sealing batch, and every seal or compaction install.
    /// Query snapshots carry it as their cache epoch, so responses computed
    /// against a superseded state can never serve a later lookup (see
    /// [`SegmentSet::cache_epoch`]), and it keys the memoized view below. A
    /// layout change moves it too: no answer changes across one (the
    /// `DocExecutor` contract), but no cached answer or view then outlives
    /// the layout it was computed on.
    generation: AtomicU64,
    /// Live (inserted, not deleted) documents, changed under the state lock
    /// wherever the live set changes and read without it: the net
    /// handshake reports it from an event thread, which must not wait on
    /// the lock `insert` holds across its WAL fsync.
    live_docs: AtomicUsize,
    /// The last built view, reused until `generation` moves so a
    /// read-heavy workload does not rebuild O(docs) segment vectors per
    /// batch.
    view_cache: Mutex<Option<(u64, LiveView)>>,
    /// Held (flock) for the service's lifetime to keep a second process
    /// from appending to the same WAL.
    _dir_lock: File,
    /// Outstanding background jobs, for [`LiveService::wait_idle`].
    pending_jobs: Mutex<usize>,
    idle: Condvar,
    background_error: Mutex<Option<String>>,
    metrics: LiveMetrics,
}

/// A point-in-time view of the live collection, in ascending document
/// order: sealed segments, then sealing batches, then the memtable —
/// tombstoned documents already filtered out. This is the live side of the
/// [`SegmentSet`] abstraction the shared dispatcher runs over.
#[derive(Clone)]
struct LiveView {
    segments: Vec<Arc<Segment>>,
    tau_min: f64,
    epoch: u64,
}

impl SegmentSet for LiveView {
    fn segments(&self) -> Vec<Arc<Segment>> {
        self.segments.clone()
    }

    fn tau_min(&self) -> f64 {
        self.tau_min
    }

    fn cache_epoch(&self) -> u64 {
        self.epoch
    }
}

impl Inner {
    /// Builds (or reuses) the query snapshot. The epoch is read under the
    /// state lock, so a view can never pair one collection state with
    /// another state's cache epoch.
    fn view(&self) -> LiveView {
        let st = lock_clean(&self.state);
        // ordering: Acquire pairs with the AcqRel bumps on mutation, so a view
        // built for epoch E observes every state change that produced E.
        let epoch = self.generation.load(Ordering::Acquire);
        {
            let cache = lock_clean(&self.view_cache);
            if let Some((cached_epoch, view)) = cache.as_ref() {
                if *cached_epoch == epoch {
                    return view.clone();
                }
            }
        }
        let live = |(id, _): &&(u64, Arc<DocExecutor>)| !st.tombstones.contains(id);
        let pairs = |docs: &Vec<(u64, Arc<DocExecutor>)>| -> Vec<(usize, Arc<DocExecutor>)> {
            let docs = docs.iter().filter(live);
            docs.map(|(id, d)| (*id as usize, Arc::clone(d))).collect()
        };
        // A sealed run shares its filter's table, less the columns of its
        // tombstoned documents; the scanned runs have none.
        let sealed = st.segments.iter().map(|seg| {
            let docs = pairs(&seg.docs);
            let filter = match &seg.filter {
                Some(filter) if docs.len() < seg.docs.len() => {
                    Some(filter.retain(seg.docs.iter().map(|d| live(&d))))
                }
                filter => filter.clone(),
            };
            Arc::new(Segment::with_filter(docs, filter))
        });
        let unsealed = (st.sealing.iter().map(|batch| &batch.docs)).chain([&st.memtable]);
        let segments = sealed
            .chain(unsealed.map(|docs| Arc::new(Segment::new(pairs(docs)))))
            .collect();
        let view = LiveView {
            segments,
            tau_min: self.tau_min,
            epoch,
        };
        *lock_clean(&self.view_cache) = Some((epoch, view.clone()));
        view
    }

    /// Drops tombstones for ids that exist nowhere (purged by compaction,
    /// or whose delete record outlived the document). A tombstone only
    /// carries information while the document is still physically present
    /// somewhere; keeping the rest would grow the manifest forever.
    fn prune_dead_tombstones(st: &mut LiveState) {
        let present: BTreeSet<u64> = st.present_ids().collect();
        st.tombstones.retain(|id| present.contains(id));
    }

    fn record_background_error(&self, detail: String) {
        let mut slot = lock_clean(&self.background_error);
        slot.get_or_insert(detail);
    }

    fn job_started(&self) {
        *lock_clean(&self.pending_jobs) += 1;
    }

    fn job_finished(&self) {
        let mut pending = lock_clean(&self.pending_jobs);
        *pending -= 1;
        if *pending == 0 {
            self.idle.notify_all();
        }
    }

    /// Persists the manifest reflecting the current (locked) state.
    fn write_manifest(&self, st: &LiveState) -> Result<(), StoreError> {
        let manifest = wal::LiveManifest {
            applied_seq: st.applied_seq,
            next_doc_id: st.next_doc_id,
            next_segment_id: st.next_segment_id,
            tau_min: self.tau_min,
            // The manifest keeps its field; nothing reads it.
            epsilon: None,
            tombstones: st.tombstones.iter().copied().collect(),
            segments: st.segments.iter().map(|s| s.meta.clone()).collect(),
        };
        wal::save_manifest(self.io.as_ref(), self.dir.join(MANIFEST_FILE), &manifest)
    }

    /// Rewrites the WAL keeping only records newer than `applied_seq`
    /// (everything older is reflected in the manifest + segments), then
    /// reopens the writer on the new file. One fsync for the whole file
    /// (plus the rename's directory fsync), not one per record — this
    /// runs under the state lock.
    fn rewrite_wal(&self, st: &mut LiveState) -> Result<(), StoreError> {
        let path = self.dir.join(WAL_FILE);
        let replay = wal::read_wal(self.io.as_ref(), &path)?;
        let keep: Vec<wal::WalRecord> = replay
            .records
            .into_iter()
            .filter(|r| r.seq > st.applied_seq)
            .collect();
        let replaced = wal::replace_wal_file(self.io.as_ref(), &path, &keep);
        if replaced.is_err() {
            // The replace may have failed *after* its rename (e.g. on the
            // directory fsync): the new file is at `path`, and the current
            // writer handle points at the old, now-unlinked inode — where
            // an acknowledged append would silently vanish. Retry the
            // directory fsync so the rename that did happen is durable.
            wal::fsync_parent_dir(self.io.as_ref(), &path)?;
        }
        // Re-attach the writer to whatever file is at `path` now — the new
        // file on success (or post-rename failure), the untouched old one
        // on a pre-rename failure — before surfacing the replace error.
        st.wal = WalWriter::open_append(self.io.as_ref(), &path)?;
        replaced
    }

    /// Background seal: build real indexes for one memtable batch, persist
    /// them as a `.coll` segment, and install. Only the install step takes
    /// the state lock — queries keep running against the scan-served batch
    /// while the indexes build.
    fn run_seal(&self, batch_id: u64) -> Result<(), LiveError> {
        // Snapshot the batch (and the tombstones as of now) without
        // holding the lock during the build. Documents already tombstoned
        // are skipped outright: building and persisting an index for a
        // deleted document is pure waste. A delete that lands *after* this
        // snapshot still seals and is filtered at query time until the
        // next compaction.
        let (docs, max_seq) = {
            let st = lock_clean(&self.state);
            let Some(batch) = st.sealing.iter().find(|b| b.batch_id == batch_id) else {
                return Ok(()); // already handled (e.g. duplicate schedule)
            };
            let docs: Vec<(u64, Arc<DocExecutor>)> = batch
                .docs
                .iter()
                .filter(|(id, _)| !st.tombstones.contains(id))
                .cloned()
                .collect();
            (docs, batch.max_seq)
        };
        // From here on this is a real seal (duplicate schedules returned
        // above); it is timed and traced on every exit, failures included.
        self.timed("seal", &self.metrics.seal_us, |trace| {
            trace.set_u64("batch", batch_id);
            trace.set_u64("docs", docs.len() as u64);
            self.metrics.seals.inc();
            // Nothing (left) to seal installs no segment: every document of
            // the batch is tombstoned, so its records are still fully
            // accounted for.
            let mut sealed = None;
            if !docs.is_empty() {
                let built = (docs.iter())
                    .map(|(id, exec)| {
                        let built = DocExecutor::build(&exec.to_source(), self.tau_min)?;
                        Ok((*id, Arc::new(built)))
                    })
                    .collect::<Result<Vec<_>, Error>>()?;
                // Durable before the manifest names it and the WAL drops its
                // records.
                let meta = self.write_segment(&built)?;
                self.metrics.sealed_docs.add(built.len() as u64);
                sealed = Some(Arc::new(SealedSegment::new(meta, built)));
            }
            // Install: swap the sealing batch for the sealed segment, advance
            // applied_seq, persist the manifest, shrink the WAL.
            let mut st = lock_clean(&self.state);
            st.segments.extend(sealed);
            st.sealing.retain(|b| b.batch_id != batch_id);
            st.applied_seq = st.applied_seq.max(max_seq);
            // ordering: AcqRel — the bump publishes the segment change to
            // the next view()'s Acquire loads.
            self.generation.fetch_add(1, Ordering::AcqRel);
            Inner::prune_dead_tombstones(&mut st);
            self.write_manifest(&st)?;
            self.rewrite_wal(&mut st)?;
            Ok(())
        })
    }

    /// Persists `docs` as the next `segment_<id>.coll` and returns its
    /// manifest entry. The segment is durable — file *and* directory entry —
    /// on return; nothing refers to it until a manifest names it (a crash
    /// before that leaves an orphan the next open sweeps).
    fn write_segment(
        &self,
        docs: &[(u64, Arc<DocExecutor>)],
    ) -> Result<wal::SegmentMeta, StoreError> {
        let id = {
            let mut st = lock_clean(&self.state);
            let id = st.next_segment_id;
            st.next_segment_id += 1;
            id
        };
        let file = format!("segment_{id:08}.coll");
        let path = self.dir.join(&file);
        let executors = docs.iter().map(|(_, d)| d.as_ref());
        save_coll(self.io.as_ref(), &path, executors)?;
        Ok(wal::SegmentMeta {
            id,
            file,
            docs: docs.iter().map(|(id, _)| *id).collect(),
        })
    }

    /// Background compaction: merge every sealed segment into one, dropping
    /// tombstoned documents for good. Reuses the already-built executors —
    /// per-document indexes are independent, so merging is a rewrite, not a
    /// rebuild.
    fn run_compact(&self) -> Result<(), LiveError> {
        let (captured, tombstones) = {
            let st = lock_clean(&self.state);
            (st.segments.clone(), st.tombstones.clone())
        };
        let has_garbage = captured
            .iter()
            .any(|s| s.meta.docs.iter().any(|id| tombstones.contains(id)));
        if captured.len() <= 1 && !has_garbage {
            return Ok(());
        }
        self.timed("compact", &self.metrics.compact_us, |trace| {
            trace.set_u64("segments", captured.len() as u64);
            let captured_docs: usize = captured.iter().map(|s| s.docs.len()).sum();
            let mut kept: Vec<(u64, Arc<DocExecutor>)> = Vec::new();
            for seg in &captured {
                for (id, d) in &seg.docs {
                    if !tombstones.contains(id) {
                        kept.push((*id, Arc::clone(d)));
                    }
                }
            }
            let kept_docs = kept.len();
            trace.set_u64("captured_docs", captured_docs as u64);
            trace.set_u64("kept_docs", kept_docs as u64);
            // Durable before the manifest points at it and the old segment
            // files (the only other copy) are deleted.
            let meta = self.write_segment(&kept)?;
            let old_files: Vec<String> = {
                let mut st = lock_clean(&self.state);
                // The background worker is the only segment mutator and runs
                // jobs serially, so the captured segments are exactly the
                // current prefix of the list.
                debug_assert!(st.segments.len() >= captured.len());
                let old_files = captured.iter().map(|s| s.meta.file.clone()).collect();
                let tail = st.segments.split_off(captured.len());
                st.segments = vec![Arc::new(SealedSegment::new(meta, kept))];
                st.segments.extend(tail);
                // Tombstoned documents are gone from the merged segment; drop
                // every tombstone whose document no longer exists anywhere
                // (including strays a replayed delete record resurrected
                // after an earlier compaction already removed the document).
                // ordering: AcqRel — the bump publishes the segment change
                // to the next view()'s Acquire loads.
                self.generation.fetch_add(1, Ordering::AcqRel);
                Inner::prune_dead_tombstones(&mut st);
                self.write_manifest(&st)?;
                old_files
            };
            // Best effort: a file that survives this is swept at the next open.
            for file in old_files {
                let _ = self.io.remove_file(&self.dir.join(file));
            }
            self.metrics.compactions.inc();
            (self.metrics.compact_drops).add((captured_docs - kept_docs) as u64);
            Ok(())
        })
    }

    /// Runs `work` as one measured interval: the clock is read once when it
    /// starts and once when it ends, and that one reading is `histogram`'s
    /// sample and the extent of a `name` background trace root (handed to
    /// `work` for its attributes).
    fn timed<T>(
        &self,
        name: &'static str,
        histogram: &Histogram,
        work: impl FnOnce(&mut TraceSpan) -> T,
    ) -> T {
        let started = Instant::now();
        let mut trace = self.engine.tracer().root_span(name, started);
        let out = work(&mut trace);
        let ended = Instant::now();
        histogram.record(micros(ended.saturating_duration_since(started)));
        trace.finish(ended);
        out
    }

    /// Appends `op` (about document `doc`) to the WAL as record
    /// `st.next_seq` — the one path a write takes to durability: timed once
    /// (`live.wal.append_fsync_us` and a `wal_append` root tagged with `doc`
    /// and the byte count), then counted, and the sequence advanced.
    fn append_wal(&self, st: &mut LiveState, doc: u64, op: WalOp) -> Result<(), StoreError> {
        let record = WalRecord {
            seq: st.next_seq,
            op,
        };
        let bytes = self.timed("wal_append", &self.metrics.wal_fsync_us, |trace| {
            let bytes = st.wal.append(&record)?;
            trace.set_u64("doc", doc);
            trace.set_u64("bytes", bytes);
            Ok::<_, StoreError>(bytes)
        })?;
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(bytes);
        st.next_seq += 1;
        Ok(())
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Removes every `segment_*.coll` in `dir` that `named` does not list, and
/// every `segment_*.coll.tmp`: the leftovers of a crash during a segment
/// write or between one and its manifest, or of a failed post-compaction
/// remove. Nothing will ever load them, and `next_segment_id` has moved
/// past them. Removal is best effort — the next open tries again.
fn sweep_orphan_segments(
    dir: &Path,
    io: &dyn StoreIo,
    named: &[wal::SegmentMeta],
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("segment_")
            && name.trim_end_matches(".tmp").ends_with(".coll")
            && !named.iter().any(|s| s.file == *name)
        {
            let _ = io.remove_file(&dir.join(&*name));
        }
    }
    Ok(())
}

/// A mutable uncertain-document collection: durable writes, immediately
/// queryable documents, and background index maintenance. See the
/// [module docs](self) for the architecture.
pub struct LiveService {
    inner: Arc<Inner>,
    jobs: Sender<Job>,
    seal_threshold: usize,
    worker: Option<JoinHandle<()>>,
}

impl LiveService {
    /// Opens (or creates) the live collection in `dir`. An existing
    /// directory recovers its durable state: the manifest names the sealed
    /// segments (loaded from their `.coll` files; `segment_*.coll` files it
    /// does not name are removed), and the WAL tail replays into the
    /// memtable — a torn final record (interrupted crash
    /// write) is discarded, every committed write is recovered. On an
    /// existing directory, `config.tau_min` is ignored in favor of the
    /// recorded value.
    pub fn open(dir: impl AsRef<Path>, config: LiveConfig) -> Result<Self, LiveError> {
        Self::open_with_io(dir, config, Arc::new(RealIo))
    }

    /// [`LiveService::open`] with an injectable filesystem seam: every
    /// durable operation (WAL appends, manifest replaces, segment
    /// saves/loads/removes) goes through `io`. The advisory `LOCK` file
    /// stays on the real filesystem — it guards against concurrent *real*
    /// processes, and faulting it would only test the test harness.
    pub fn open_with_io(
        dir: impl AsRef<Path>,
        config: LiveConfig,
        io: Arc<dyn StoreIo>,
    ) -> Result<Self, LiveError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // One writer per directory: two processes appending to the same
        // WAL would interleave records with duplicate sequence numbers.
        let dir_lock = File::create(dir.join(LOCK_FILE))?;
        if let Err(e) = dir_lock.try_lock() {
            return Err(match e {
                std::fs::TryLockError::WouldBlock => LiveError::DirectoryLocked { dir },
                std::fs::TryLockError::Error(io) => io.into(),
            });
        }
        let metrics = LiveMetrics::new();
        let recovery_started = Instant::now();
        let manifest = wal::load_manifest(io.as_ref(), dir.join(MANIFEST_FILE))?;
        let tau_min = manifest.as_ref().map_or(config.tau_min, |m| m.tau_min);
        if !canon::valid_tau(tau_min) {
            return Err(LiveError::Config(format!(
                "tau_min {tau_min} is outside (0, 1]"
            )));
        }
        let fresh_directory = manifest.is_none();
        let manifest = manifest.unwrap_or(wal::LiveManifest {
            tau_min,
            ..Default::default()
        });

        sweep_orphan_segments(&dir, io.as_ref(), &manifest.segments)?;

        // Load sealed segments from their collection snapshots.
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let in_segment = |detail: String| StoreError::Corrupt {
                detail: format!("segment {}: {detail}", meta.id),
            };
            // Whatever is wrong with the file's contents — an old format
            // version included — names the segment. An I/O error stays one:
            // callers tell a failing disk from a bad file by the variant.
            let loaded = load_coll(io.as_ref(), &dir.join(&meta.file)).map_err(|e| match e {
                StoreError::Io(_) => e,
                StoreError::Corrupt { detail } => in_segment(detail),
                other => in_segment(other.to_string()),
            })?;
            if loaded.len() != meta.docs.len() {
                return Err(in_segment(format!(
                    "holds {} documents, manifest says {}",
                    loaded.len(),
                    meta.docs.len()
                ))
                .into());
            }
            let docs = (meta.docs.iter().copied())
                .zip(loaded.into_iter().map(Arc::new))
                .collect();
            segments.push(Arc::new(SealedSegment::new(meta.clone(), docs)));
        }

        // Replay the WAL tail (everything newer than the manifest) into
        // the memtable and tombstone set.
        let wal_path = dir.join(WAL_FILE);
        let replay = wal::read_wal(io.as_ref(), &wal_path)?;
        let mut memtable: Vec<(u64, Arc<DocExecutor>)> = Vec::new();
        let mut tombstones: BTreeSet<u64> = manifest.tombstones.iter().copied().collect();
        let mut next_doc_id = manifest.next_doc_id;
        let mut next_seq = manifest.applied_seq + 1;
        for record in &replay.records {
            next_seq = next_seq.max(record.seq + 1);
            if record.seq <= manifest.applied_seq {
                continue; // already reflected in the manifest's segments
            }
            match &record.op {
                WalOp::Insert { doc, body } => {
                    let scan = ScanIndex::new(body, tau_min)?;
                    memtable.push((*doc, Arc::new(DocExecutor::Scanned(scan))));
                    next_doc_id = next_doc_id.max(doc + 1);
                }
                WalOp::Delete { doc } => {
                    tombstones.insert(*doc);
                }
                WalOp::Manifest(_) => {
                    return Err(LiveError::Store(StoreError::Corrupt {
                        detail: "manifest record inside the WAL".into(),
                    }))
                }
            }
        }
        if !replay.clean {
            // Drop the torn tail record before appending anything new.
            wal::replace_wal_file(io.as_ref(), &wal_path, &replay.records)?;
        }
        let wal = WalWriter::open_append(io.as_ref(), &wal_path)?;
        metrics.recovered_records.add(replay.records.len() as u64);
        metrics
            .recovery_us
            .record(micros(recovery_started.elapsed()));

        let mut state = LiveState {
            wal,
            memtable,
            sealing: Vec::new(),
            segments,
            tombstones,
            next_doc_id,
            next_seq,
            next_segment_id: manifest.next_segment_id,
            next_batch_id: 0,
            applied_seq: manifest.applied_seq,
        };
        Inner::prune_dead_tombstones(&mut state);
        let live_docs = (state.present_ids())
            .filter(|id| !state.tombstones.contains(id))
            .count();
        let inner = Arc::new(Inner {
            dir,
            io,
            tau_min,
            compact_min_segments: config.compact_min_segments,
            state: Mutex::new(state),
            engine: Engine::new(config.threads, config.cache_capacity),
            generation: AtomicU64::new(0),
            live_docs: AtomicUsize::new(live_docs),
            view_cache: Mutex::new(None),
            _dir_lock: dir_lock,
            pending_jobs: Mutex::new(0),
            idle: Condvar::new(),
            background_error: Mutex::new(None),
            metrics,
        });
        if fresh_directory {
            // Record tau_min immediately: a never-sealed directory
            // must not adopt whatever config the *next* opener passes.
            let st = lock_clean(&inner.state);
            inner.write_manifest(&st)?;
        }

        let (tx, rx) = channel::<Job>();
        let worker_inner = Arc::clone(&inner);
        let worker_tx = tx.clone();
        let worker = std::thread::Builder::new()
            .name("ustr-live-maintenance".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // Once any maintenance step fails, stop maintaining: a
                    // later seal would advance applied_seq past the failed
                    // batch's records and truncate them out of the WAL,
                    // losing acknowledged writes. The sticky error already
                    // blocks new mutations; draining jobs keeps wait_idle
                    // honest.
                    let halted = lock_clean(&worker_inner.background_error).is_some();
                    match job {
                        Job::Shutdown => break,
                        Job::Seal { .. } | Job::Compact if halted => {
                            worker_inner.job_finished();
                        }
                        Job::Seal { batch_id } => {
                            if let Err(e) = worker_inner.run_seal(batch_id) {
                                worker_inner.record_background_error(format!("seal failed: {e}"));
                            } else if worker_inner.compact_min_segments > 0 {
                                let count = {
                                    let st = lock_clean(&worker_inner.state);
                                    st.segments.len()
                                };
                                if count >= worker_inner.compact_min_segments {
                                    worker_inner.job_started();
                                    // The channel outlives the worker; a send
                                    // failure only means shutdown won the race.
                                    if worker_tx.send(Job::Compact).is_err() {
                                        worker_inner.job_finished();
                                    }
                                }
                            }
                            worker_inner.job_finished();
                        }
                        Job::Compact => {
                            if let Err(e) = worker_inner.run_compact() {
                                worker_inner
                                    .record_background_error(format!("compaction failed: {e}"));
                            }
                            worker_inner.job_finished();
                        }
                    }
                }
            })
            .map_err(LiveError::Io)?;

        Ok(Self {
            inner,
            jobs: tx,
            seal_threshold: config.seal_threshold,
            worker: Some(worker),
        })
    }

    /// Surfaces a sticky background failure, if any.
    fn check_background(&self) -> Result<(), LiveError> {
        let slot = lock_clean(&self.inner.background_error);
        match slot.as_ref() {
            Some(detail) => Err(LiveError::Background(detail.clone())),
            None => Ok(()),
        }
    }

    /// The sticky background failure, if any, without turning it into an
    /// error: reads keep serving a degraded (maintenance-halted)
    /// collection, and the serving layer uses this to *report* the
    /// degradation (e.g. the net protocol's health frame) instead of
    /// refusing queries.
    pub fn background_health(&self) -> Option<String> {
        lock_clean(&self.inner.background_error).clone()
    }

    fn enqueue(&self, job: Job) {
        self.inner.job_started();
        if self.jobs.send(job).is_err() {
            self.inner.job_finished();
        }
    }

    /// Inserts a document, returning its stable id. The write is in the
    /// fsynced WAL before this returns, and the document is immediately
    /// queryable (scan-served until a seal indexes it). May trigger a
    /// background seal per [`LiveConfig::seal_threshold`].
    pub fn insert(&self, body: UncertainString) -> Result<u64, LiveError> {
        self.check_background()?;
        let scan = ScanIndex::new(&body, self.inner.tau_min)?;
        let mut st = lock_clean(&self.inner.state);
        let id = st.next_doc_id;
        self.inner
            .append_wal(&mut st, id, WalOp::Insert { doc: id, body })?;
        self.inner.metrics.inserts.inc();
        // ordering: Relaxed — a count read only for reporting; nothing is
        // published through it, and the state lock orders its writers.
        self.inner.live_docs.fetch_add(1, Ordering::Relaxed);
        st.next_doc_id += 1;
        st.memtable.push((id, Arc::new(DocExecutor::Scanned(scan))));
        let batch = if self.seal_threshold > 0 && st.memtable.len() >= self.seal_threshold {
            Self::freeze_memtable(&mut st)
        } else {
            None
        };
        // ordering: AcqRel — the bump publishes the mutation to the next
        // view()'s Acquire loads.
        self.inner.generation.fetch_add(1, Ordering::AcqRel);
        drop(st);
        if let Some(batch_id) = batch {
            self.enqueue(Job::Seal { batch_id });
        }
        Ok(id)
    }

    /// Moves the current memtable into a sealing batch (still
    /// query-visible); returns its id, or `None` for an empty memtable.
    fn freeze_memtable(st: &mut LiveState) -> Option<u64> {
        if st.memtable.is_empty() {
            return None;
        }
        let batch_id = st.next_batch_id;
        st.next_batch_id += 1;
        let docs = std::mem::take(&mut st.memtable);
        // Every WAL record so far is covered once this batch is sealed:
        // inserts are in segments or this batch, deletes are tombstones
        // snapshotted into the manifest at install time.
        let max_seq = st.next_seq - 1;
        st.sealing.push(SealingBatch {
            batch_id,
            docs,
            max_seq,
        });
        Some(batch_id)
    }

    /// Tombstones a live document. The delete is durable (fsynced WAL)
    /// and takes effect immediately; the document's storage is reclaimed
    /// by the next compaction.
    pub fn delete(&self, id: u64) -> Result<(), LiveError> {
        self.check_background()?;
        let mut st = lock_clean(&self.inner.state);
        let exists = !st.tombstones.contains(&id) && st.present_ids().any(|d| d == id);
        if !exists {
            return Err(LiveError::UnknownDocument { id });
        }
        self.inner
            .append_wal(&mut st, id, WalOp::Delete { doc: id })?;
        self.inner.metrics.deletes.inc();
        // ordering: Relaxed — as in `insert`.
        self.inner.live_docs.fetch_sub(1, Ordering::Relaxed);
        st.tombstones.insert(id);
        // ordering: AcqRel — the bump publishes the mutation to the next
        // view()'s Acquire loads.
        self.inner.generation.fetch_add(1, Ordering::AcqRel);
        drop(st);
        Ok(())
    }

    /// Schedules a background seal of the current memtable (no-op when the
    /// memtable is empty). Returns immediately; [`LiveService::wait_idle`]
    /// blocks until the segment is installed.
    pub fn seal(&self) -> Result<(), LiveError> {
        self.check_background()?;
        let mut st = lock_clean(&self.inner.state);
        if let Some(batch_id) = Self::freeze_memtable(&mut st) {
            // ordering: AcqRel publishes the memtable's move to a sealing batch
            // to the next view()'s Acquire load.
            self.inner.generation.fetch_add(1, Ordering::AcqRel);
            drop(st);
            self.enqueue(Job::Seal { batch_id });
        }
        Ok(())
    }

    /// Schedules a background compaction merging every sealed segment into
    /// one and dropping tombstoned documents. Returns immediately.
    pub fn compact(&self) -> Result<(), LiveError> {
        self.check_background()?;
        self.enqueue(Job::Compact);
        Ok(())
    }

    /// Blocks until every scheduled background job (seals, compactions)
    /// has completed, then surfaces any background failure.
    pub fn wait_idle(&self) -> Result<(), LiveError> {
        let mut pending = lock_clean(&self.inner.pending_jobs);
        while *pending > 0 {
            pending = wait_clean(&self.inner.idle, pending);
        }
        drop(pending);
        self.check_background()
    }

    /// Seals the memtable and waits for the segment install (a synchronous
    /// flush: afterwards every document is index-served and the WAL holds
    /// only post-seal records).
    pub fn flush(&self) -> Result<(), LiveError> {
        self.seal()?;
        self.wait_idle()
    }

    /// The construction threshold every document uses.
    pub fn tau_min(&self) -> f64 {
        self.inner.tau_min
    }

    /// Number of live (inserted, not deleted) documents. Takes no lock.
    pub fn num_docs(&self) -> usize {
        // ordering: Relaxed — as in `insert`.
        self.inner.live_docs.load(Ordering::Relaxed)
    }

    /// The live documents themselves, in ascending stable-id order
    /// (cloned; used by tests and offline rebuilds).
    pub fn live_docs(&self) -> Vec<(u64, UncertainString)> {
        let st = lock_clean(&self.inner.state);
        let mut docs: Vec<(u64, UncertainString)> = st
            .runs()
            .flatten()
            .filter(|(id, _)| !st.tombstones.contains(id))
            .map(|(id, d)| (*id, d.to_source()))
            .collect();
        docs.sort_by_key(|&(id, _)| id);
        docs
    }

    /// Number of sealed segments currently serving.
    pub fn num_segments(&self) -> usize {
        lock_clean(&self.inner.state).segments.len()
    }

    /// Number of documents currently scan-served (memtable + batches whose
    /// seal has not installed yet).
    pub fn memtable_len(&self) -> usize {
        let st = lock_clean(&self.inner.state);
        st.memtable.len() + st.sealing.iter().map(|b| b.docs.len()).sum::<usize>()
    }

    /// `(hits, misses)` of the result cache — cumulative totals for the
    /// service's lifetime, never reset.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.engine.cache_stats()
    }

    /// Point-in-time snapshot of the service's metrics: background-event
    /// telemetry (WAL appends/bytes/fsync time, seal durations, compaction
    /// drops) merged with the engine's dispatch metrics (cache counters,
    /// stage histograms). Instance-scoped — two services in one process
    /// never mix counts.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.metrics.registry.snapshot();
        snap.merge(&self.inner.engine.metrics_snapshot());
        snap
    }

    /// The engine's slow-query ring buffer (threshold adjustable at
    /// runtime).
    pub fn slow_log(&self) -> &ustr_obs::SlowQueryLog {
        self.inner.engine.slow_log()
    }

    /// Answers one request of any mode over a point-in-time snapshot, fanned
    /// out on the thread pool, with its trace summary when its trace recorded
    /// (`parent`: a propagated context the root span continues). Document ids
    /// in the response are the stable insert-time ids. See [`Engine::answer`].
    pub fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
        let view = self.inner.view();
        self.inner.engine.answer(&view, request, parent)
    }

    /// Answers a typed batch of any mix of query modes over a consistent
    /// point-in-time snapshot, fanning out on the thread pool through the
    /// same dispatcher as the static service. Document ids in responses
    /// are the stable insert-time ids.
    pub fn query_requests(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, Error>> {
        let view = self.inner.view();
        self.inner.engine.run(&view, requests)
    }

    /// Runs `job` on the query pool (see [`Engine::execute`]).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.engine.execute(job);
    }

    /// The engine's tracer. Queries *and* background work (WAL appends,
    /// seals, compactions) trace through it, so one `/traces` export shows
    /// foreground latency next to the background churn that caused it.
    pub fn tracer(&self) -> &std::sync::Arc<ustr_obs::Tracer> {
        self.inner.engine.tracer()
    }

    /// Sequential reference for [`LiveService::query_requests`] (same
    /// snapshot semantics, same merge path, no pool) — answers are
    /// identical for every mode.
    pub fn query_requests_sequential(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, Error>> {
        let view = self.inner.view();
        self.inner.engine.run_sequential(&view, requests)
    }
}

impl Drop for LiveService {
    fn drop(&mut self) {
        let _ = self.jobs.send(Job::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_service::{DocHits, QueryService, ServiceConfig};

    fn doc(spec: &str) -> UncertainString {
        UncertainString::parse(spec).unwrap()
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(seal_threshold: usize) -> LiveConfig {
        LiveConfig {
            threads: 2,
            cache_capacity: 16,
            tau_min: 0.05,
            epsilon: None,
            seal_threshold,
            compact_min_segments: 0,
        }
    }

    fn sample_docs() -> Vec<UncertainString> {
        vec![
            doc("A:.9,B:.1 | B | C | A | B"),
            doc("C | C | C"),
            doc("A:.5,B:.5 | B | A:.7,C:.3 | B"),
            UncertainString::deterministic(b"ABABAB"),
            doc("B | A:.2,B:.8 | B"),
        ]
    }

    fn threshold(pattern: &[u8], tau: f64) -> QueryRequest {
        QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        }
    }

    /// What a threshold or approx request answers with.
    fn hits(live: &LiveService, request: &QueryRequest) -> Vec<DocHits> {
        match live.answer(request, None).0.unwrap() {
            QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => hits.to_vec(),
            other => panic!("not a hit list: {other:?}"),
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
        ]
    }

    #[test]
    fn background_work_and_queries_trace_through_one_tracer() {
        let dir = fresh_dir("ustr-live-trace-test");
        let live = LiveService::open(&dir, config(2)).unwrap();
        live.tracer().set_sample_permyriad(ustr_obs::SAMPLE_SCALE);
        for d in sample_docs() {
            live.insert(d).unwrap();
        }
        live.wait_idle().unwrap();
        live.compact().unwrap();
        live.wait_idle().unwrap();
        let (result, summary) = live.answer(&threshold(b"AB", 0.3), None);
        assert!(result.is_ok());
        assert!(summary.is_some());
        let spans = live.tracer().spans();
        let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
        // Foreground and background activity share the ring: WAL appends
        // (one per insert), at least one seal, and the traced query.
        assert!(names.contains("wal_append"), "names = {names:?}");
        assert!(names.contains("seal"), "names = {names:?}");
        assert!(names.contains("request"), "names = {names:?}");
        assert_eq!(
            spans.iter().filter(|s| s.name == "wal_append").count(),
            sample_docs().len()
        );
        let seal = spans.iter().find(|s| s.name == "seal").unwrap();
        assert!(matches!(
            seal.attrs.get("docs"),
            Some(ustr_obs::AttrValue::U64(n)) if n > 0
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sampled_delete_traces_its_wal_append_like_an_insert() {
        use ustr_obs::AttrValue;
        let dir = fresh_dir("ustr-live-delete-trace-test");
        let live = LiveService::open(&dir, config(0)).unwrap();
        let id = live.insert(doc("A | B")).unwrap();
        live.tracer().set_sample_permyriad(ustr_obs::SAMPLE_SCALE);
        let appended = || live.metrics_snapshot().counters["live.wal.appended_bytes"];
        let before = appended();
        live.delete(id).unwrap();
        let spans = live.tracer().spans();
        let [append] = spans.iter().collect::<Vec<_>>()[..] else {
            panic!("one span, the delete's append: {spans:?}");
        };
        assert_eq!(append.name, "wal_append");
        assert_eq!(append.attrs.get("doc"), Some(AttrValue::U64(id)));
        assert_eq!(
            append.attrs.get("bytes"),
            Some(AttrValue::U64(appended() - before))
        );
        // One append path: both writes are counted and timed alike.
        let snap = live.metrics_snapshot();
        assert_eq!(snap.counters["live.wal.appends"], 2);
        assert_eq!(snap.histograms["live.wal.append_fsync_us"].count, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_segments_and_reclaims_tombstones() {
        let dir = fresh_dir("ustr_live_compact");
        let live = LiveService::open(&dir, config(1)).unwrap();
        for d in sample_docs() {
            live.insert(d).unwrap();
        }
        live.wait_idle().unwrap();
        assert_eq!(live.num_segments(), 5);
        live.delete(1).unwrap();
        live.compact().unwrap();
        live.wait_idle().unwrap();
        assert_eq!(live.num_segments(), 1);
        assert_eq!(live.num_docs(), 4);
        // The tombstone was physically reclaimed: one segment file remains.
        let colls = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "coll")
            })
            .count();
        assert_eq!(colls, 1);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_segment_files_the_manifest_does_not_name() {
        let dir = fresh_dir("ustr_live_orphan_sweep");
        let live = LiveService::open(&dir, config(2)).unwrap();
        for d in sample_docs() {
            live.insert(d).unwrap();
        }
        live.wait_idle().unwrap();
        live.compact().unwrap();
        live.wait_idle().unwrap();
        let before = live.query_requests(&mixed_batch());
        drop(live);
        let manifest = ustr_store::load_manifest(&RealIo, dir.join(MANIFEST_FILE))
            .unwrap()
            .unwrap();
        let named = dir.join(&manifest.segments[0].file);
        // What a crash between compaction's manifest write and its removes
        // leaves behind: a superseded segment file nothing names.
        let orphan = dir.join("segment_00000000.coll");
        assert!(named.exists() && !orphan.exists());
        std::fs::copy(&named, &orphan).unwrap();
        // And what a crash during a segment write leaves: its temporary file.
        let torn = dir.join("segment_00000009.coll.tmp");
        std::fs::write(&torn, b"USTRCOLL").unwrap();
        let live = LiveService::open(&dir, config(0)).unwrap();
        assert!(!orphan.exists(), "the orphan is swept at open");
        assert!(!torn.exists(), "the temporary file is swept at open");
        assert!(named.exists(), "the manifest-named segment survives");
        assert_eq!(live.query_requests(&mixed_batch()), before);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sealed_segment_loads_as_a_static_collection() {
        let dir = fresh_dir("ustr_live_cross_load");
        let live = LiveService::open(&dir, config(0)).unwrap();
        for d in sample_docs() {
            live.insert(d).unwrap();
        }
        live.flush().unwrap();
        // No deletes, one segment: stable ids coincide with file ranks.
        let stat = QueryService::load_collection(
            dir.join("segment_00000000.coll"),
            ServiceConfig::default(),
        )
        .unwrap();
        let batch = mixed_batch();
        assert_eq!(stat.query_requests(&batch), live.query_requests(&batch));
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn well_formed_files_with_wrong_contents_fail_cleanly_through_every_door() {
        use ustr_store::{collection, Section, Snapshot, SnapshotKind, Writer};
        let mut w = Writer::new();
        ustr_core::Index::build(&doc("A:.9,B:.1 | B"), 0.05)
            .unwrap()
            .encode_payload(&mut w);
        let index = w.into_bytes();
        let section = |doc: usize, kind: SnapshotKind| Section {
            doc,
            kind,
            payload: &index,
        };
        // One document declared; each row's sections break one rule.
        let rows = [
            (
                vec![
                    section(0, SnapshotKind::Index),
                    section(1, SnapshotKind::Index),
                ],
                "names document 1",
            ),
            (
                vec![
                    section(0, SnapshotKind::Index),
                    section(0, SnapshotKind::Index),
                ],
                "2 sections for 1 documents",
            ),
        ];
        let dir = fresh_dir("ustr_live_semantic_corruption");
        std::fs::create_dir_all(&dir).unwrap();
        let file = "segment_00000000.coll";
        let manifest = wal::LiveManifest {
            next_doc_id: 1,
            next_segment_id: 1,
            tau_min: 0.05,
            segments: vec![wal::SegmentMeta {
                id: 0,
                file: file.into(),
                docs: vec![0],
            }],
            ..Default::default()
        };
        ustr_store::save_manifest(&RealIo, dir.join(MANIFEST_FILE), &manifest).unwrap();
        for (sections, expect) in rows {
            let mut bytes = Vec::new();
            collection::write_collection(&mut bytes, 1, &sections).unwrap();
            std::fs::write(dir.join(file), bytes).unwrap();
            let Err(StoreError::Corrupt { detail }) = load_coll(&RealIo, &dir.join(file)) else {
                panic!("{expect}: the shared reader must report Corrupt");
            };
            assert!(detail.contains(expect), "{detail}");
            match QueryService::load_collection(dir.join(file), ServiceConfig::default()) {
                Err(StoreError::Corrupt { detail: d }) => {
                    assert_eq!(d, detail)
                }
                _ => panic!("{expect}: load_collection must report Corrupt"),
            }
            match LiveService::open(&dir, config(0)) {
                Err(LiveError::Store(StoreError::Corrupt { detail: d })) => {
                    assert_eq!(d, format!("segment 0: {detail}"))
                }
                _ => panic!("{expect}: open must report Corrupt"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment written by the previous format (a version-1 collection,
    /// as the previous build wrote it) is refused by its version field,
    /// saying both versions and to rebuild, through every door — and the
    /// live directory says which segment it was.
    #[test]
    fn an_old_format_section_names_itself_through_every_door() {
        use ustr_store::{Snapshot, FORMAT_VERSION};
        let dir = fresh_dir("ustr_live_old_format");
        let live = LiveService::open(&dir, config(0)).unwrap();
        live.insert(doc("A:.9,B:.1 | B")).unwrap();
        live.flush().unwrap();
        drop(live);
        let file = dir.join("segment_00000000.coll");
        let old = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../store/tests/fixtures/format6.coll"
        );
        std::fs::copy(old, &file).unwrap();

        let refused = |e: Option<StoreError>| match e {
            Some(e @ StoreError::UnsupportedVersion { found: 1, .. }) => e.to_string(),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        };
        let said = refused(ustr_core::Index::load(&file).err());
        assert!(
            said.contains(&format!(
                "version 1 (this build reads version {FORMAT_VERSION})"
            )),
            "{said}"
        );
        assert!(said.ends_with("rebuild it from its source"), "{said}");
        assert_eq!(refused(load_coll(&RealIo, &file).err()), said);
        let loaded = QueryService::load_collection(&file, ServiceConfig::default());
        assert_eq!(refused(loaded.err()), said);
        match LiveService::open(&dir, config(0)) {
            Err(LiveError::Store(StoreError::Corrupt { detail })) => {
                assert_eq!(detail, format!("segment 0: {said}"))
            }
            _ => panic!("open must refuse the segment by name"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_memtable_segments_and_tombstones() {
        let dir = fresh_dir("ustr_live_recovery");
        {
            let live = LiveService::open(&dir, config(2)).unwrap();
            for d in sample_docs() {
                live.insert(d).unwrap();
            }
            live.wait_idle().unwrap();
            live.delete(2).unwrap();
        }
        // Reopen: sealed segments load from .coll, the WAL tail replays.
        let live = LiveService::open(&dir, config(0)).unwrap();
        assert_eq!(live.num_docs(), 4);
        let ids: Vec<u64> = live.live_docs().iter().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
        // New writes continue from the recovered counters.
        let id = live.insert(doc("C | A:.6,B:.4")).unwrap();
        assert_eq!(id, 5);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_run_concurrently_with_a_seal() {
        let dir = fresh_dir("ustr_live_concurrent");
        let live = Arc::new(LiveService::open(&dir, config(0)).unwrap());
        // A fat memtable so the background build takes a little while.
        for i in 0..40 {
            let spec = match i % 3 {
                0 => "A:.9,B:.1 | B | C | A | B | A:.5,C:.5 | B | A",
                1 => "C | C | C | A:.5,B:.5 | B | C | B:.7,C:.3",
                _ => "A:.5,B:.5 | B | A:.7,C:.3 | B | A | B | C | A:.4,B:.6",
            };
            live.insert(doc(spec)).unwrap();
        }
        let ab = threshold(b"AB", 0.3);
        let before = hits(&live, &ab);
        live.seal().unwrap();
        // Hammer queries while the seal builds and installs off-thread.
        let mut observed = 0u32;
        loop {
            let during = hits(&live, &ab);
            assert_eq!(during, before, "answers never change across a seal");
            observed += 1;
            let idle = *live.inner.pending_jobs.lock().unwrap() == 0;
            if idle && observed > 3 {
                break;
            }
        }
        live.wait_idle().unwrap();
        assert_eq!(live.num_segments(), 1);
        assert_eq!(live.memtable_len(), 0);
        assert_eq!(hits(&live, &ab), before);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directories_record_their_config_before_any_seal() {
        let dir = fresh_dir("ustr_live_fresh_manifest");
        {
            let cfg = LiveConfig {
                tau_min: 0.01,
                ..config(0)
            };
            let live = LiveService::open(&dir, cfg).unwrap();
            live.insert(doc("A:.2,B:.8 | B")).unwrap();
            // No seal ever ran; the manifest must still exist.
        }
        // A reopen with a *different* configured tau_min adopts the
        // recorded 0.01, so low-τ queries keep working.
        let live = LiveService::open(&dir, LiveConfig::default()).unwrap();
        assert_eq!(live.tau_min(), 0.01);
        assert_eq!(hits(&live, &threshold(b"AB", 0.02)).len(), 1);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_do_not_accumulate_across_compactions_and_reopens() {
        let dir = fresh_dir("ustr_live_tombstone_prune");
        {
            let live = LiveService::open(&dir, config(2)).unwrap();
            for d in sample_docs() {
                live.insert(d).unwrap();
            }
            live.flush().unwrap();
            live.delete(1).unwrap();
            live.compact().unwrap();
            live.wait_idle().unwrap();
        }
        // The WAL still holds the delete record; reopening must not let it
        // resurrect a tombstone for the already-purged document forever.
        let live = LiveService::open(&dir, config(0)).unwrap();
        assert_eq!(live.num_docs(), 4);
        live.flush().unwrap();
        live.compact().unwrap();
        live.wait_idle().unwrap();
        drop(live);
        let manifest = ustr_store::load_manifest(&RealIo, dir.join(MANIFEST_FILE))
            .unwrap()
            .unwrap();
        assert!(
            manifest.tombstones.is_empty(),
            "purged tombstones must not persist: {:?}",
            manifest.tombstones
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_is_rejected_while_the_directory_is_live() {
        let dir = fresh_dir("ustr_live_lock");
        let live = LiveService::open(&dir, config(0)).unwrap();
        live.insert(doc("A | B")).unwrap();
        assert!(matches!(
            LiveService::open(&dir, config(0)),
            Err(LiveError::DirectoryLocked { .. })
        ));
        drop(live);
        // The lock dies with the service: reopening now succeeds.
        let reopened = LiveService::open(&dir, config(0)).unwrap();
        assert_eq!(reopened.num_docs(), 1);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cached answers are keyed by the view's epoch: a mutation moves it,
    /// so the same query misses and recomputes against the new state.
    #[test]
    fn every_mutation_moves_the_cache_epoch() {
        let dir = fresh_dir("ustr_live_cache");
        let live = LiveService::open(&dir, config(0)).unwrap();
        let id = live.insert(doc("A:.9,B:.1 | B")).unwrap();
        let ab = threshold(b"AB", 0.5);
        let first = hits(&live, &ab);
        assert_eq!(first.len(), 1);
        assert_eq!(live.cache_stats(), (0, 1));
        let again = hits(&live, &ab);
        assert_eq!(again, first);
        assert_eq!(live.cache_stats(), (1, 1), "repeat is cache-served");
        live.insert(doc("A | B")).unwrap();
        let after = hits(&live, &ab);
        assert_eq!(after.len(), 2);
        assert_eq!(live.cache_stats(), (1, 2), "an insert moved the epoch");
        live.delete(id).unwrap();
        assert_eq!(hits(&live, &ab).len(), 1);
        assert_eq!(live.cache_stats(), (1, 3), "a delete moved the epoch");
        // The memtable's move to a sealing batch moves it too, whether or
        // not the background install (which moves it again) ran first.
        live.seal().unwrap();
        assert_eq!(hits(&live, &ab).len(), 1);
        assert_eq!(
            live.cache_stats(),
            (1, 4),
            "an explicit seal moved the epoch"
        );
        live.wait_idle().unwrap();
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With ε, a document answers `Approx` as it answers `Threshold` at the
    /// same τ, bit for bit, in the memtable and sealed: the ε is ignored.
    /// Asked before and after the flush with the cache on, the requests
    /// answer after it as they do in a cache-off directory.
    #[test]
    fn epsilon_directories_serve_approx_from_sealed_segments() {
        let dir = fresh_dir("ustr_live_epsilon");
        let uncached_dir = fresh_dir("ustr_live_epsilon_uncached");
        let cfg = LiveConfig {
            epsilon: Some(0.05),
            ..config(0)
        };
        let uncached_cfg = LiveConfig {
            cache_capacity: 0,
            ..cfg.clone()
        };
        // Near-certain choices in a row, which one §7 link would span: the
        // links answered below the exact probabilities there.
        let mut docs = sample_docs();
        docs.push(doc(
            "A:.97,B:.03 | B:.98,C:.02 | A:.96,C:.04 | A:.01,B:.99 | A:.97,B:.03 | C",
        ));
        docs.push(doc(
            "A:.05,B:.95 | A:.98,B:.02 | B:.97,C:.03 | A:.99,C:.01 | B",
        ));
        let requests: Vec<(&[u8], f64)> = [&b"A"[..], b"B", b"AB", b"BA", b"ABA", b"BAB"]
            .into_iter()
            .flat_map(|pattern| [(pattern, 0.4), (pattern, 0.9)])
            .collect();
        let live = LiveService::open(&dir, cfg).unwrap();
        let uncached = LiveService::open(&uncached_dir, uncached_cfg).unwrap();
        for d in docs {
            live.insert(d.clone()).unwrap();
            uncached.insert(d).unwrap();
        }
        let approx = |&(pattern, tau): &(&[u8], f64)| QueryRequest::Approx {
            pattern: pattern.to_vec(),
            tau,
        };
        // The approx requests alone, which the cache holds all of.
        let answers = |live: &LiveService| -> Vec<Vec<DocHits>> {
            requests.iter().map(|r| hits(live, &approx(r))).collect()
        };
        let exact = |live: &LiveService| -> Vec<Vec<DocHits>> {
            (requests.iter())
                .map(|&(pattern, tau)| hits(live, &threshold(pattern, tau)))
                .collect()
        };
        assert_eq!(answers(&live), exact(&live), "memtable");
        live.flush().unwrap();
        uncached.flush().unwrap();
        assert_eq!(
            answers(&live),
            answers(&uncached),
            "a seal left cached answers"
        );
        assert_eq!(answers(&live), exact(&live), "sealed");
        drop(uncached);
        let _ = std::fs::remove_dir_all(&uncached_dir);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sealed segment's bigram filter, seen through a view that
    /// tombstones a middle document, at reopen and after compaction: every
    /// mode answers what a static service over the surviving documents
    /// answers, ids mapped. Each document has letters of its own, so a bit
    /// left on the wrong document visits one that cannot answer.
    #[test]
    fn a_view_drops_the_filter_bits_of_its_tombstoned_documents() {
        use ustr_service::{ListingHit, TopHit};
        let dir = fresh_dir("ustr_live_filter_tombstone");
        let live = LiveService::open(&dir, config(0)).unwrap();
        let specs = [
            "A | B:.8,C:.2 | D",
            "E | F | G",
            "H:.6,I:.4 | J | K:.7,A:.3",
            "L | M | N",
            "J | K | L:.5,M:.5",
        ];
        let ids: Vec<u64> = (specs.iter())
            .map(|spec| live.insert(doc(spec)).unwrap())
            .collect();
        live.flush().unwrap();
        live.delete(ids[1]).unwrap();
        let fresh = live.insert(doc("O | P | H")).unwrap();
        let survivors: Vec<(u64, &str)> = [0, 2, 3, 4]
            .map(|i| (ids[i], specs[i]))
            .into_iter()
            .chain([(fresh, "O | P | H")])
            .collect();
        let docs: Vec<UncertainString> = survivors.iter().map(|(_, spec)| doc(spec)).collect();
        let stat = QueryService::build(&docs, 0.05, ServiceConfig::default()).unwrap();
        let id = |rank: usize| survivors[rank].0 as usize;
        let with_ids = |response: QueryResponse| match response {
            QueryResponse::Threshold(hits) | QueryResponse::Approx(hits) => {
                let hits = hits.iter().map(|h| DocHits {
                    doc: id(h.doc),
                    hits: h.hits.clone(),
                });
                QueryResponse::Threshold(Arc::new(hits.collect()))
            }
            QueryResponse::TopK(top) => QueryResponse::TopK(Arc::new(
                (top.iter())
                    .map(|h| TopHit {
                        doc: id(h.doc),
                        ..*h
                    })
                    .collect(),
            )),
            QueryResponse::Listing(listed) => QueryResponse::Listing(Arc::new(
                (listed.iter())
                    .map(|h| ListingHit {
                        doc: id(h.doc),
                        relevance: h.relevance,
                    })
                    .collect(),
            )),
        };
        let patterns: [&[u8]; 9] = [
            b"AB", b"BD", b"EF", b"HJ", b"JK", b"LM", b"MN", b"OPH", b"K",
        ];
        let requests: Vec<QueryRequest> = (patterns.iter())
            .flat_map(|p| {
                let pattern = p.to_vec();
                [
                    threshold(p, 0.1),
                    QueryRequest::Approx {
                        pattern: pattern.clone(),
                        tau: 0.1,
                    },
                    QueryRequest::TopK {
                        pattern: pattern.clone(),
                        k: 3,
                    },
                    QueryRequest::Listing { pattern, tau: 0.1 },
                ]
            })
            .collect();
        let want: Vec<Result<QueryResponse, Error>> = (stat.query_requests(&requests).into_iter())
            .map(|r| r.map(with_ids))
            .collect();
        // `with_ids` answers an approx request as a threshold one.
        let answers = |live: &LiveService| -> Vec<Result<QueryResponse, Error>> {
            let answers = live.query_requests(&requests).into_iter();
            answers
                .map(|r| {
                    r.map(|response| match response {
                        QueryResponse::Approx(hits) => QueryResponse::Threshold(hits),
                        other => other,
                    })
                })
                .collect()
        };
        let two = |r: &Result<QueryResponse, Error>| matches!(r, Ok(QueryResponse::Threshold(h)) if h.len() == 2);
        assert!(want.iter().any(two));
        assert_eq!(answers(&live), want, "sealed, tombstoned, then an insert");
        drop(live);
        let live = LiveService::open(&dir, config(0)).unwrap();
        assert_eq!(answers(&live), want, "reopened");
        live.compact().unwrap();
        live.wait_idle().unwrap();
        assert_eq!(answers(&live), want, "compacted");
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
