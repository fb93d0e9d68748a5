//! Deterministic fault injection through the store's I/O seam, shared by
//! the live-collection checker (`model.rs`) and `wal_faults.rs`: a seeded
//! [`FaultPlan`] of exactly one fault (no clocks, no RNG: INVARIANTS §9),
//! and the [`FaultIo`] that executes it once over the real filesystem.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ustr_service::lock_clean;
use ustr_store::{RealIo, StoreFile, StoreIo};

/// FNV-1a 64 over the little-endian bytes of `seed` then `salt`: the one
/// integer-mixing primitive every plan decision derives from.
pub fn fnv_mix(seed: u64, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in seed.to_le_bytes().into_iter().chain(salt.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One injectable fault. `nth` counts operations of that kind from zero
/// across the whole [`FaultIo`] lifetime (all files together).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `nth` fsync (file `sync_data` or directory `sync_all`) fails.
    FailFsync {
        /// Zero-based fsync index at which to fail.
        nth: u64,
    },
    /// The `nth` file write is torn: only the first
    /// `len * keep_permille / 1000` bytes reach the file, then the write
    /// reports an error.
    TearWrite {
        /// Zero-based write index at which to tear.
        nth: u64,
        /// How much of the torn write survives, in thousandths.
        keep_permille: u64,
    },
    /// The `nth` rename fails (the atomic-replace primitive).
    FailRename {
        /// Zero-based rename index at which to fail.
        nth: u64,
    },
}

/// A seed-derived schedule of exactly one fault. Pure integer FNV mixing:
/// no clocks, no RNG, fully replayable from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The single fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// Derives the plan for `seed`. The modulus bounds are sized so the
    /// fault usually lands inside one checker schedule (which performs
    /// a few dozen fsyncs/writes and a handful of renames); plans whose
    /// index is never reached simply report the fault as unfired.
    pub fn from_seed(seed: u64) -> Self {
        let fault = match fnv_mix(seed, 0xFA01) % 3 {
            0 => Fault::FailFsync {
                nth: fnv_mix(seed, 0xFA02) % 48,
            },
            1 => Fault::TearWrite {
                nth: fnv_mix(seed, 0xFA03) % 64,
                keep_permille: fnv_mix(seed, 0xFA04) % 1000,
            },
            _ => Fault::FailRename {
                nth: fnv_mix(seed, 0xFA05) % 6,
            },
        };
        Self { seed, fault }
    }
}

/// State shared between a [`FaultIo`] and every file handle it opened.
#[derive(Debug)]
struct FaultShared {
    fault: Fault,
    fsyncs: AtomicU64,
    writes: AtomicU64,
    renames: AtomicU64,
    fired: AtomicBool,
    note: Mutex<Option<String>>,
}

impl FaultShared {
    /// Claims the fault exactly once. Returns `true` only for the single
    /// call that fires it.
    fn fire(&self, what: &str, n: u64) -> bool {
        // ordering: Relaxed — single-shot flag; the injected io::Error itself
        // synchronizes the outcome with the caller, no cross-variable
        // ordering is needed.
        if self.fired.swap(true, Ordering::Relaxed) {
            return false;
        }
        let mut note = lock_clean(&self.note);
        *note = Some(format!("{what} #{n}"));
        true
    }

    fn injected(&self, what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    fn on_fsync(&self) -> io::Result<()> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Fault::FailFsync { nth } = self.fault {
            if n == nth && self.fire("failed fsync", n) {
                return Err(self.injected("fsync failed"));
            }
        }
        Ok(())
    }

    fn on_rename(&self) -> io::Result<()> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.renames.fetch_add(1, Ordering::Relaxed);
        if let Fault::FailRename { nth } = self.fault {
            if n == nth && self.fire("failed rename", n) {
                return Err(self.injected("rename failed"));
            }
        }
        Ok(())
    }
}

/// A [`StoreIo`] that executes one [`FaultPlan`] against the real
/// filesystem, then passes everything through untouched. Share it between
/// the service under test and the assertion code via [`Arc`]; after the
/// run, [`FaultIo::injection`] reports what fired (if anything).
#[derive(Debug)]
pub struct FaultIo {
    inner: RealIo,
    shared: Arc<FaultShared>,
}

impl FaultIo {
    /// A faulting io executing `plan` over the real filesystem.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: RealIo,
            shared: Arc::new(FaultShared {
                fault: plan.fault,
                fsyncs: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                renames: AtomicU64::new(0),
                fired: AtomicBool::new(false),
                note: Mutex::new(None),
            }),
        }
    }

    /// Description of the fault that fired, or `None` while (or if) the
    /// plan's operation index was never reached.
    pub fn injection(&self) -> Option<String> {
        lock_clean(&self.shared.note).clone()
    }
}

/// A file handle that tears writes and fails fsyncs per the shared plan.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn StoreFile>,
    shared: Arc<FaultShared>,
}

impl io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.shared.writes.fetch_add(1, Ordering::Relaxed);
        if let Fault::TearWrite { nth, keep_permille } = self.shared.fault {
            if n == nth && self.shared.fire("torn write", n) {
                // Land a genuine partial write in the file, then error:
                // exactly what a crash mid-write leaves behind.
                let keep = (buf.len() as u64).saturating_mul(keep_permille) / 1000;
                let keep = keep as usize;
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                return Err(self.shared.injected("write torn"));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StoreFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.shared.on_fsync()?;
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl StoreIo for FaultIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)> {
        let (inner, len) = self.inner.open_append(path)?;
        Ok((
            Box::new(FaultFile {
                inner,
                shared: Arc::clone(&self.shared),
            }),
            len,
        ))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.on_rename()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.shared.on_fsync()?;
        self.inner.sync_dir(dir)
    }
}
