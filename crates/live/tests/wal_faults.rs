//! WAL recovery under injected fsync/write/rename failures, exercised at
//! every record boundary through the [`StoreIo`] seam (no real crashes
//! needed: the faulting io produces the exact byte states a crash would),
//! and the order of the durability steps themselves, recorded through the
//! same seam.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

mod fault;

use fault::{Fault, FaultIo, FaultPlan};
use ustr_live::{LiveConfig, LiveService};
use ustr_store::{
    load_manifest, read_wal, replace_wal_file, save_collection_file, save_manifest, wal::WalOp,
    wal::WalRecord, LiveManifest, RealIo, Section, SnapshotKind, StoreFile, StoreIo, WalWriter,
};
use ustr_uncertain::UncertainString;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ustr_live_walfaults_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn plans_are_deterministic_and_cover_every_fault_kind() {
    let mut kinds = [0; 3];
    for seed in 0..64 {
        let plan = FaultPlan::from_seed(seed);
        assert_eq!(plan, FaultPlan::from_seed(seed), "seed {seed}");
        kinds[match plan.fault {
            Fault::FailFsync { .. } => 0,
            Fault::TearWrite { .. } => 1,
            Fault::FailRename { .. } => 2,
        }] += 1;
    }
    assert!(kinds.iter().all(|&n| n > 0), "fsync/tear/rename {kinds:?}");
}

#[test]
fn fault_io_fires_exactly_once() {
    let dir = scratch("once");
    let io = FaultIo::new(FaultPlan {
        seed: 0,
        fault: Fault::FailFsync { nth: 1 },
    });
    let mut f = io.create(&dir.join("f.bin")).unwrap();
    f.write_all(b"x").unwrap();
    f.sync_data().unwrap(); // fsync #0: passes
    assert!(io.injection().is_none());
    assert!(f.sync_data().is_err(), "fsync #1 must fail");
    assert!(io.injection().unwrap().contains("fsync"));
    f.sync_data().unwrap(); // one-shot: later fsyncs pass
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_writes_leave_a_partial_prefix() {
    let dir = scratch("tear");
    let io = FaultIo::new(FaultPlan {
        seed: 0,
        fault: Fault::TearWrite {
            nth: 0,
            keep_permille: 500,
        },
    });
    let path = dir.join("torn.bin");
    let mut f = io.create(&path).unwrap();
    assert!(f.write_all(b"0123456789").is_err());
    drop(f);
    assert_eq!(std::fs::read(&path).unwrap(), b"01234");
    let _ = std::fs::remove_dir_all(&dir);
}

fn records(n: u64) -> Vec<WalRecord> {
    (0..n)
        .map(|i| WalRecord {
            seq: i + 1,
            op: WalOp::Insert {
                doc: i,
                body: UncertainString::parse("A:.6,B:.4 | B | C").unwrap(),
            },
        })
        .collect()
}

/// `WalWriter::create` performs fsync #0 (header) and #1 (parent
/// directory); append `i` is fsync `#2 + i`.
const APPEND_FSYNC_BASE: u64 = 2;

#[test]
fn fsync_failure_at_every_record_boundary_recovers_the_committed_prefix() {
    let dir = scratch("fsync_boundaries");
    let recs = records(6);
    for boundary in 0..recs.len() {
        let io = FaultIo::new(FaultPlan {
            seed: boundary as u64,
            fault: Fault::FailFsync {
                nth: APPEND_FSYNC_BASE + boundary as u64,
            },
        });
        let path = dir.join(format!("boundary_{boundary}.wal"));
        let mut wal = WalWriter::create(&io, &path).unwrap();
        for (i, rec) in recs.iter().enumerate() {
            let result = wal.append(rec);
            if i == boundary {
                result.expect_err("the injected fsync failure must surface");
                break;
            }
            result.unwrap_or_else(|e| panic!("append {i} before the boundary failed: {e}"));
        }
        drop(wal);

        // Recovery on the real filesystem: exactly the acknowledged prefix,
        // and *clean* — the failed append rolled the torn frame back.
        let replay = read_wal(&RealIo, &path).unwrap();
        assert!(
            replay.clean,
            "boundary {boundary}: rollback should leave no torn tail"
        );
        assert_eq!(
            replay.records,
            recs[..boundary],
            "boundary {boundary}: recovered records must be the acknowledged prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_append_rolls_back_and_the_writer_stays_usable() {
    let dir = scratch("retry");
    let recs = records(4);
    let io = FaultIo::new(FaultPlan {
        seed: 0,
        fault: Fault::FailFsync {
            nth: APPEND_FSYNC_BASE + 1, // fail the second append
        },
    });
    let path = dir.join("retry.wal");
    let mut wal = WalWriter::create(&io, &path).unwrap();
    wal.append(&recs[0]).unwrap();
    wal.append(&recs[1]).expect_err("injected failure");
    // The fault is one-shot (transient): re-issuing the same record must
    // succeed and the log must read back as if nothing happened.
    for rec in &recs[1..] {
        wal.append(rec).unwrap();
    }
    drop(wal);
    let replay = read_wal(&RealIo, &path).unwrap();
    assert!(replay.clean);
    assert_eq!(replay.records, recs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_append_write_is_truncated_to_the_record_boundary() {
    let dir = scratch("torn");
    let recs = records(3);
    for keep_permille in [0, 250, 500, 999] {
        let io = FaultIo::new(FaultPlan {
            seed: keep_permille,
            fault: Fault::TearWrite {
                // Write #0 is the header; append i is write #1 + i. Tear
                // the second append mid-frame.
                nth: 2,
                keep_permille,
            },
        });
        let path = dir.join(format!("torn_{keep_permille}.wal"));
        let mut wal = WalWriter::create(&io, &path).unwrap();
        wal.append(&recs[0]).unwrap();
        wal.append(&recs[1]).expect_err("torn write must surface");
        wal.append(&recs[2]).unwrap();
        drop(wal);
        let replay = read_wal(&RealIo, &path).unwrap();
        assert!(replay.clean, "keep_permille {keep_permille}");
        assert_eq!(
            replay.records,
            vec![recs[0].clone(), recs[2].clone()],
            "keep_permille {keep_permille}: the torn frame must be rolled back"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fails, exactly once after being armed, the directory fsync that follows
/// a rename onto `wal.log` — the final step of `replace_wal_file`, after
/// the new file is already in place. The failing call first raises
/// `reached` and then parks until `proceed`, so the test can line up a
/// racing insert while the seal still holds the state lock.
#[derive(Debug)]
struct FailWalReplaceDirSync {
    inner: RealIo,
    armed: AtomicBool,
    wal_renamed: AtomicBool,
    fired: AtomicBool,
    reached: AtomicBool,
    proceed: AtomicBool,
}

impl FailWalReplaceDirSync {
    fn new() -> Self {
        Self {
            inner: RealIo,
            armed: AtomicBool::new(false),
            wal_renamed: AtomicBool::new(false),
            fired: AtomicBool::new(false),
            reached: AtomicBool::new(false),
            proceed: AtomicBool::new(false),
        }
    }
}

impl StoreIo for FailWalReplaceDirSync {
    fn create(&self, path: &std::path::Path) -> std::io::Result<Box<dyn StoreFile>> {
        self.inner.create(path)
    }

    fn open_append(&self, path: &std::path::Path) -> std::io::Result<(Box<dyn StoreFile>, u64)> {
        self.inner.open_append(path)
    }

    fn read(&self, path: &std::path::Path) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        self.inner.rename(from, to)?;
        // ordering: Relaxed — test-only flags; the single background seal
        // thread is the only concurrent actor.
        if self.armed.load(Ordering::Relaxed) && to.file_name().is_some_and(|f| f == "wal.log") {
            // ordering: Relaxed — same test-only flag.
            self.wal_renamed.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        // ordering: Relaxed — test-only one-shot flags.
        if self.wal_renamed.swap(false, Ordering::Relaxed)
            && !self.fired.swap(true, Ordering::Relaxed)
        {
            // ordering: Relaxed — test rendezvous flags; the sleep loop
            // tolerates any staleness.
            self.reached.store(true, Ordering::Relaxed);
            while !self.proceed.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            return Err(std::io::Error::other(
                "injected: directory fsync after the wal replace rename",
            ));
        }
        self.inner.sync_dir(dir)
    }
}

/// The bug this pins (found by the seed sweep): when `replace_wal_file`
/// fails *after* its rename — on the directory fsync — the new WAL is
/// already at `wal.log`, but the live service's writer still held the
/// old, now-unlinked inode. An insert that passed its background check
/// before the seal failure was recorded then appended (and was
/// acknowledged) into a file nothing would ever read, and recovery
/// silently lost it.
#[test]
fn acknowledged_writes_survive_a_post_rename_fsync_failure_in_the_wal_replace() {
    let base = scratch("replace_dir_fsync");
    let dir = base.join("db");
    let io = Arc::new(FailWalReplaceDirSync::new());
    let cfg = LiveConfig {
        threads: 1,
        cache_capacity: 8,
        tau_min: 0.05,
        epsilon: None,
        seal_threshold: 0,       // manual seals only
        compact_min_segments: 0, // no auto compaction
    };
    let live = Arc::new(
        LiveService::open_with_io(&dir, cfg.clone(), Arc::clone(&io) as Arc<dyn StoreIo>).unwrap(),
    );
    let body = UncertainString::parse("A:.6,B:.4 | B | C").unwrap();
    let mut acked = Vec::new();
    for _ in 0..3 {
        acked.push(live.insert(body.clone()).unwrap());
    }
    // ordering: Relaxed — arming the one-shot test fault.
    io.armed.store(true, Ordering::Relaxed);
    live.seal().unwrap();

    // Wait for the seal to reach the failing fsync (it holds the state
    // lock there), then race an insert against the failure: the insert
    // passes its background check now — the failure is not recorded yet —
    // and parks on the state lock the seal still holds.
    // ordering: Relaxed — test rendezvous flag.
    while !io.reached.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let racer = {
        let live = Arc::clone(&live);
        let body = body.clone();
        std::thread::spawn(move || live.insert(body))
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    // ordering: Relaxed — releases the parked fsync, which now fails.
    io.proceed.store(true, Ordering::Relaxed);

    // The racing insert is acknowledged, so it must be on the file
    // recovery will read.
    acked.push(racer.join().unwrap().unwrap());
    let _ = live.wait_idle();
    assert!(
        live.background_health().is_some(),
        "the failed seal must report degraded background health"
    );
    drop(live);

    let recovered = LiveService::open(&dir, cfg).unwrap();
    assert_eq!(
        recovered
            .live_docs()
            .iter()
            .map(|d| d.0)
            .collect::<Vec<_>>(),
        acked,
        "every acknowledged insert must survive recovery"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn failed_rename_leaves_the_original_wal_intact() {
    let dir = scratch("rename");
    let recs = records(5);
    let path = dir.join("log.wal");
    let mut wal = WalWriter::create(&RealIo, &path).unwrap();
    for rec in &recs {
        wal.append(rec).unwrap();
    }
    drop(wal);

    let io = FaultIo::new(FaultPlan {
        seed: 0,
        fault: Fault::FailRename { nth: 0 },
    });
    replace_wal_file(&io, &path, &recs[3..]).expect_err("injected rename failure");
    // The replacement never became visible: the original log still replays.
    let replay = read_wal(&RealIo, &path).unwrap();
    assert!(replay.clean);
    assert_eq!(replay.records, recs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real filesystem, with every durability step recorded by file name:
/// `create F`, `write F`, `sync_data F`, `rename F>T` and `sync_dir`. A
/// rename onto `MANIFEST` also lists the segment files the new manifest
/// names.
#[derive(Debug, Default)]
struct RecordingIo(Arc<Mutex<Vec<String>>>);

/// A file [`RecordingIo`] created: its writes and syncs go into the same log.
#[derive(Debug)]
struct RecordingFile(Box<dyn StoreFile>, String, Arc<Mutex<Vec<String>>>);

fn name(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

impl RecordingIo {
    fn record(&self, op: String) {
        self.0.lock().unwrap().push(op);
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl Write for RecordingFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.2.lock().unwrap().push(format!("write {}", self.1));
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl StoreFile for RecordingFile {
    fn sync_data(&mut self) -> std::io::Result<()> {
        self.2.lock().unwrap().push(format!("sync_data {}", self.1));
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.set_len(len)
    }
}

impl StoreIo for RecordingIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        self.record(format!("create {}", name(path)));
        let file = RealIo.create(path)?;
        Ok(Box::new(RecordingFile(
            file,
            name(path),
            Arc::clone(&self.0),
        )))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<(Box<dyn StoreFile>, u64)> {
        RealIo.open_append(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Option<Vec<u8>>> {
        RealIo.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut op = format!("rename {}>{}", name(from), name(to));
        if name(to) == "MANIFEST" {
            for segment in load_manifest(&RealIo, from).unwrap().unwrap().segments {
                op = format!("{op} {}", segment.file);
            }
        }
        self.record(op);
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.record("sync_dir".into());
        RealIo.sync_dir(dir)
    }
}

/// Asserts that before op `upto`, `file` was created, written and then
/// synced (`sync_data` after its last write).
fn assert_synced_before(ops: &[String], upto: usize, file: &str) {
    let last = |op: &str| {
        ops[..upto]
            .iter()
            .rposition(|o| *o == format!("{op} {file}"))
    };
    match (last("create"), last("write"), last("sync_data")) {
        (Some(c), Some(w), Some(s)) if c < w && w < s => {}
        _ => panic!("{file} is not created, written and synced before op {upto}: {ops:#?}"),
    }
}

/// Asserts that op `rename` moves a synced file and a directory sync
/// follows it before the next rename (INVARIANTS.md §4).
fn assert_durable_rename(ops: &[String], rename: usize) {
    let from = ops[rename].strip_prefix("rename ").unwrap();
    assert_synced_before(ops, rename, from.split('>').next().unwrap());
    let mut after = ops[rename + 1..]
        .iter()
        .take_while(|o| !o.starts_with("rename "));
    assert!(
        after.any(|o| o == "sync_dir"),
        "no directory sync after op {rename} before the next rename: {ops:#?}"
    );
}

#[test]
fn atomic_replaces_sync_the_content_before_the_rename_and_the_directory_after() {
    let dir = scratch("op_order");
    let io = RecordingIo::default();
    replace_wal_file(&io, dir.join("wal.log"), &records(2)).unwrap();
    let ops = io.take();
    let rename = ops.iter().position(|o| o == "rename wal.tmp>wal.log");
    assert_durable_rename(&ops, rename.expect("the WAL replace renames"));

    save_manifest(&io, dir.join("MANIFEST"), &LiveManifest::default()).unwrap();
    let ops = io.take();
    let rename = ops.iter().position(|o| o == "rename MANIFEST.tmp>MANIFEST");
    assert_durable_rename(&ops, rename.expect("the manifest save renames"));

    // A snapshot saved over an existing one: the old file is never
    // truncated, only replaced by the rename.
    let coll = dir.join("data.coll");
    std::fs::write(&coll, b"the previous file").unwrap();
    let section = Section {
        doc: 0,
        kind: SnapshotKind::Index,
        payload: b"payload",
    };
    save_collection_file(&io, &coll, 1, &[section]).unwrap();
    let ops = io.take();
    assert!(!ops.contains(&"create data.coll".to_string()), "{ops:#?}");
    let rename = ops
        .iter()
        .position(|o| o == "rename data.coll.tmp>data.coll");
    assert_durable_rename(&ops, rename.expect("the snapshot save renames"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A property of the seal as a whole, across functions: the segment file is
/// written to a temporary name, synced and durably renamed to its own name
/// before the manifest rename that names it, and that rename is itself
/// durable.
#[test]
fn a_sealed_segment_is_durable_before_the_manifest_names_it() {
    let dir = scratch("seal_order");
    let io = Arc::new(RecordingIo::default());
    let cfg = LiveConfig {
        threads: 1,
        seal_threshold: 0, // manual seals only
        ..LiveConfig::default()
    };
    let live = LiveService::open_with_io(&dir, cfg, Arc::clone(&io) as Arc<dyn StoreIo>).unwrap();
    live.insert(UncertainString::parse("A:.6,B:.4 | B | C").unwrap())
        .unwrap();
    live.seal().unwrap();
    live.wait_idle().unwrap();
    drop(live);

    let ops = io.take();
    let segment = ops.iter().find_map(|o| o.strip_prefix("create segment_"));
    let segment = segment.expect("the seal writes a segment");
    let segment = format!("segment_{}", segment.strip_suffix(".tmp").unwrap());
    let named = ops
        .iter()
        .position(|o| o.starts_with("rename MANIFEST.tmp>MANIFEST") && o.ends_with(&segment))
        .expect("a manifest names the segment");
    let renamed = ops[..named]
        .iter()
        .position(|o| *o == format!("rename {segment}.tmp>{segment}"));
    assert_durable_rename(
        &ops,
        renamed.expect("the segment is renamed before it is named"),
    );
    assert_durable_rename(&ops, named);
    let _ = std::fs::remove_dir_all(&dir);
}
