//! Injectable filesystem seam for the persistence layer.
//!
//! Every durability-relevant filesystem operation the store performs —
//! creating a file, appending, reading a whole file, renaming, removing,
//! fsyncing a directory — goes through a [`StoreIo`] so a test harness can
//! interpose deterministic faults (see `ustr-live`'s tests): fail the Nth
//! fsync, tear a write at byte k, error a rename. Production code passes
//! [`RealIo`], a zero-state passthrough to `std::fs`, so the seam costs one
//! dynamic dispatch per (already syscall-bound) operation and nothing else.
//!
//! The seam deliberately traffics in whole operations, not POSIX minutiae:
//! [`StoreIo::read`] returns the full contents (or `None` for a missing
//! file) because every store reader consumes whole files; writers get a
//! [`StoreFile`] handle exposing exactly the operations the WAL and
//! snapshot paths use (`write`, `sync_data`, `set_len`). Keeping the
//! surface minimal keeps fault coverage honest — there is no untested side
//! door to the filesystem.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// An open file handle as the store uses one: a writable, fsyncable,
/// truncatable sink. `std::fs::File` is the production implementation;
/// fault-injecting wrappers implement it to tear writes or fail syncs.
pub trait StoreFile: Write + Send + Debug {
    /// Flushes file content to stable storage (`fsync`/`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl StoreFile for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

/// The filesystem operations the persistence layer performs, as an
/// injectable object. Implementations must be shareable across threads:
/// the live collection's maintenance thread and its writers use one
/// instance concurrently.
pub trait StoreIo: Send + Sync + Debug {
    /// Creates (truncating) a writable file at `path`. Writes must land
    /// at end-of-file (append semantics): the WAL's failed-append recovery
    /// truncates with [`StoreFile::set_len`] and keeps writing, and a
    /// positional cursor left beyond the truncation point would silently
    /// fill the gap with zeros — corrupting the log.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;

    /// Opens `path` for appending, creating it when absent; returns the
    /// handle and the current length in bytes.
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)>;

    /// Reads the entire file at `path`; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Renames `from` over `to` (the atomic-replace primitive). Callers
    /// are responsible for the fsync-before / directory-fsync-after
    /// ordering; see INVARIANTS.md §4.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Fsyncs the directory `dir` itself, making renames and file
    /// creations within it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`StoreIo`]: a stateless passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        // O_APPEND, not a positional cursor: set_len rollback must compose
        // with subsequent writes (see the trait docs). OpenOptions forbids
        // truncate+append in one call, so truncate first, then reopen.
        drop(
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(path)?,
        );
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(file))
    }

    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok((Box::new(file), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match File::open(path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_round_trips_and_reports_missing_files() {
        let dir = std::env::temp_dir().join("ustr_store_io_real");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let _ = std::fs::remove_file(&path);

        let io = RealIo;
        assert!(io.read(&path).unwrap().is_none());

        let mut f = io.create(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        f.sync_data().unwrap();
        drop(f);

        let (mut f, len) = io.open_append(&path).unwrap();
        assert_eq!(len, 6);
        f.write_all(b"world").unwrap();
        f.sync_data().unwrap();
        drop(f);

        assert_eq!(io.read(&path).unwrap().unwrap(), b"hello world");

        let moved = dir.join("moved.bin");
        io.rename(&path, &moved).unwrap();
        io.sync_dir(&dir).unwrap();
        assert!(io.read(&path).unwrap().is_none());
        assert_eq!(io.read(&moved).unwrap().unwrap(), b"hello world");

        io.remove_file(&moved).unwrap();
        assert!(io.read(&moved).unwrap().is_none());
    }

    #[test]
    fn set_len_truncates_to_a_boundary() {
        let dir = std::env::temp_dir().join("ustr_store_io_real");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.bin");
        let io = RealIo;
        let mut f = io.create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.set_len(4).unwrap();
        // Writes after a truncation land at the *new* end of file — no
        // zero-filled hole from a stale cursor (the WAL rollback relies
        // on this).
        f.write_all(b"X").unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap().unwrap(), b"0123X");
        let _ = std::fs::remove_file(&path);
    }
}
