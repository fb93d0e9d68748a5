//! A handshake with a `LiveService` backend reads the document count
//! without the service's state lock, so a connection completes its `Hello`
//! while an insert holds that lock across its WAL fsync (INVARIANTS.md §8,
//! rule 1: no blocking call on an event thread).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ustr_live::{LiveConfig, LiveService};
use ustr_net::{ClientConfig, NetClient, NetServer, QueryBackend, ServerConfig};
use ustr_store::{RealIo, StoreFile, StoreIo};
use ustr_uncertain::UncertainString;

/// Once `armed`, the next file fsync raises `parked` and waits for
/// `proceed`.
#[derive(Debug, Default)]
struct Gate {
    armed: AtomicBool,
    parked: AtomicBool,
    proceed: AtomicBool,
}

/// The real filesystem, with every file opened for appending (the WAL)
/// behind the [`Gate`].
#[derive(Debug)]
struct ParkIo(Arc<Gate>);

#[derive(Debug)]
struct ParkFile(Box<dyn StoreFile>, Arc<Gate>);

impl Write for ParkFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StoreFile for ParkFile {
    fn sync_data(&mut self) -> io::Result<()> {
        // ordering: Relaxed — test rendezvous flags; the sleep loops
        // tolerate any staleness.
        if self.1.armed.swap(false, Ordering::Relaxed) {
            self.1.parked.store(true, Ordering::Relaxed);
            while !self.1.proceed.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl StoreIo for ParkIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        RealIo.create(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)> {
        let (file, len) = RealIo.open_append(path)?;
        Ok((Box::new(ParkFile(file, Arc::clone(&self.0))), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        RealIo.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealIo.sync_dir(dir)
    }
}

#[test]
fn a_handshake_does_not_wait_on_a_wal_fsync() {
    let dir = std::env::temp_dir().join(format!("ustr_net_handshake_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new(Gate::default());
    let config = LiveConfig {
        threads: 1,
        seal_threshold: 0,
        ..LiveConfig::default()
    };
    let io = Arc::new(ParkIo(Arc::clone(&gate)));
    let live = Arc::new(LiveService::open_with_io(&dir, config, io).unwrap());
    let doc = UncertainString::parse("A:.6,B:.4 | B | C").unwrap();
    live.insert(doc.clone()).unwrap();
    let backend = Arc::clone(&live) as Arc<dyn QueryBackend>;
    let server = NetServer::serve("127.0.0.1:0", backend, ServerConfig::default()).unwrap();

    // Park the second insert's WAL fsync: it holds the state lock there.
    // ordering: Relaxed — test rendezvous flags, as in `ParkFile`.
    gate.armed.store(true, Ordering::Relaxed);
    let insert = {
        let live = Arc::clone(&live);
        std::thread::spawn(move || live.insert(doc))
    };
    // ordering: Relaxed — as above.
    while !gate.parked.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let client = ClientConfig {
        read_timeout: Some(Duration::from_millis(500)),
        ..ClientConfig::default()
    };
    let handshake = NetClient::connect_with_config(server.local_addr(), client);
    // ordering: Relaxed — as above.
    gate.proceed.store(true, Ordering::Relaxed);
    assert_eq!(insert.join().unwrap().unwrap(), 1);

    let client = handshake.expect("the handshake must not wait on the insert's WAL fsync");
    assert_eq!(
        client.server_info().num_docs,
        1,
        "the parked insert is not acknowledged yet"
    );
    drop(client);
    server.shutdown();
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}
