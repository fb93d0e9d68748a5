//! WAL recovery under injected fsync/write/rename failures, exercised at
//! every record boundary through the [`StoreIo`] seam (no real crashes
//! needed: the faulting io produces the exact byte states a crash would).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ustr_chaos::{Fault, FaultIo, FaultPlan};
use ustr_live::{LiveConfig, LiveService};
use ustr_store::{
    read_wal, replace_wal_file, wal::WalOp, wal::WalRecord, RealIo, StoreFile, StoreIo, WalWriter,
};
use ustr_uncertain::UncertainString;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ustr_chaos_walfaults_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
        recovered.live_doc_ids(),
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
