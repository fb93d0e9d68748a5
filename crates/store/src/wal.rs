//! Write-ahead log and live-collection manifest: the durability substrate
//! of the mutable (`ustr-live`) serving path.
//!
//! Both artifacts share one checksummed record framing (the same FNV-1a
//! and little-endian wire conventions as index snapshots):
//!
//! ```text
//! file   := header record*
//! header := magic "USTRWAL1" | version u32 | reserved u32 (zero)
//! record := kind u8 | seq u64 | payload_len u64 | payload | checksum u64
//! ```
//!
//! `checksum` is FNV-1a 64 over `kind | seq | payload`. Record kinds:
//!
//! | kind | record | payload |
//! |---|---|---|
//! | 1 | document insert | `doc_id u64` + encoded [`UncertainString`] |
//! | 2 | document delete (tombstone) | `doc_id u64` |
//! | 3 | live manifest state | segment list, tombstones, counters |
//!
//! A **WAL** is an append-only stream of insert/delete records; every
//! append is flushed and fsynced before the mutation is acknowledged. A
//! **manifest** is a file in the same format holding manifest-state
//! records; it is rewritten atomically (temp file + rename) and the *last*
//! state record wins, so a reader never observes a half-applied manifest.
//!
//! # Crash model
//!
//! [`read_wal`] distinguishes a *torn tail* from *corruption*. A crash can
//! only truncate the file mid-record — or, crashing during creation, mid
//! *header*, which replays as an empty log — bytes are never altered, so a
//! record whose declared extent runs past the end of the file is dropped
//! and every complete record before it is recovered —
//! [`WalReplay::clean`] reports whether that happened. A complete record
//! that fails its checksum, declares an unknown kind, has a non-monotone
//! sequence number, or carries an undecodable payload is *corruption* and
//! surfaces as a [`StoreError`]. Replay therefore never panics, never
//! yields a duplicate sequence number, and never yields a torn document.

use std::io::Write;
use std::path::Path;

use ustr_uncertain::UncertainString;

use crate::io::{StoreFile, StoreIo};
use crate::{
    decode_uncertain_string, encode_uncertain_string, fnv1a, FileKind, Reader, StoreError, Writer,
};

/// The 8-byte magic prefix of every WAL / manifest file.
pub const WAL_MAGIC: [u8; 8] = *b"USTRWAL1";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Fixed-size WAL header length in bytes.
pub const WAL_HEADER_LEN: usize = 16;

/// `kind + seq + payload_len` — the fixed prefix of every record.
const RECORD_PREFIX_LEN: usize = 1 + 8 + 8;

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A document was added under `doc` (a stable, never-reused id).
    Insert {
        /// The stable document id.
        doc: u64,
        /// The document body.
        body: UncertainString,
    },
    /// The document `doc` was tombstoned.
    Delete {
        /// The stable document id.
        doc: u64,
    },
    /// A full manifest state (only meaningful in manifest files).
    Manifest(LiveManifest),
}

impl WalOp {
    fn kind(&self) -> u8 {
        match self {
            WalOp::Insert { .. } => 1,
            WalOp::Delete { .. } => 2,
            WalOp::Manifest(_) => 3,
        }
    }
}

/// One WAL record: a monotone sequence number and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Strictly increasing across the live collection's whole history.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// One sealed segment as the manifest records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Segment id (monotone; never reused).
    pub id: u64,
    /// File name of the segment's `.coll` snapshot, relative to the live
    /// directory.
    pub file: String,
    /// Stable document ids in segment order: the segment file's local
    /// document `i` is this collection's document `docs[i]`.
    pub docs: Vec<u64>,
}

/// The durable state of a live collection minus the WAL tail: which
/// segments exist, which documents are tombstoned, and where the counters
/// stand. Everything with `seq ≤ applied_seq` is reflected here; WAL
/// records beyond it replay into the memtable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveManifest {
    /// Highest WAL sequence number whose effect is fully captured by the
    /// segments + tombstones below.
    pub applied_seq: u64,
    /// Next stable document id to assign.
    pub next_doc_id: u64,
    /// Next segment id to assign.
    pub next_segment_id: u64,
    /// Construction threshold every segment (and the memtable) uses.
    pub tau_min: f64,
    /// Written as `None` and not read: sealed segments hold no §7 links
    /// since snapshot format 10. The field stays until the next MANIFEST
    /// version.
    pub epsilon: Option<f64>,
    /// Tombstoned stable document ids (sorted ascending).
    pub tombstones: Vec<u64>,
    /// Sealed segments in ascending document order.
    pub segments: Vec<SegmentMeta>,
}

fn encode_op(w: &mut Writer, op: &WalOp) {
    match op {
        WalOp::Insert { doc, body } => {
            w.put_u64(*doc);
            encode_uncertain_string(w, body);
        }
        WalOp::Delete { doc } => w.put_u64(*doc),
        WalOp::Manifest(m) => {
            w.put_u64(m.applied_seq);
            w.put_u64(m.next_doc_id);
            w.put_u64(m.next_segment_id);
            w.put_f64(m.tau_min);
            w.put_bool(m.epsilon.is_some());
            w.put_f64(m.epsilon.unwrap_or(0.0));
            w.put_u64s(&m.tombstones);
            w.put_u64(m.segments.len() as u64);
            for s in &m.segments {
                w.put_u64(s.id);
                w.put_bytes(s.file.as_bytes());
                w.put_u64s(&s.docs);
            }
        }
    }
}

fn decode_op(kind: u8, r: &mut Reader<'_>) -> Result<WalOp, StoreError> {
    match kind {
        1 => Ok(WalOp::Insert {
            doc: r.get_u64()?,
            body: decode_uncertain_string(r)?,
        }),
        2 => Ok(WalOp::Delete { doc: r.get_u64()? }),
        3 => {
            let applied_seq = r.get_u64()?;
            let next_doc_id = r.get_u64()?;
            let next_segment_id = r.get_u64()?;
            let tau_min = r.get_f64()?;
            let has_eps = r.get_bool()?;
            let eps = r.get_f64()?;
            let tombstones = r.get_u64s()?;
            let num_segments = r.get_len(17)?;
            let mut segments = Vec::with_capacity(num_segments);
            for _ in 0..num_segments {
                let id = r.get_u64()?;
                let file = String::from_utf8(r.get_bytes()?).map_err(|_| StoreError::Corrupt {
                    detail: "segment file name is not UTF-8".into(),
                })?;
                let docs = r.get_u64s()?;
                segments.push(SegmentMeta { id, file, docs });
            }
            Ok(WalOp::Manifest(LiveManifest {
                applied_seq,
                next_doc_id,
                next_segment_id,
                tau_min,
                epsilon: has_eps.then_some(eps),
                tombstones,
                segments,
            }))
        }
        other => Err(StoreError::UnknownKind { found: other }),
    }
}

/// Serializes one record into its framed byte form.
fn frame_record(record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    encode_op(&mut w, &record.op);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(RECORD_PREFIX_LEN + payload.len() + 8);
    out.push(record.op.kind());
    out.extend_from_slice(&record.seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let mut sum = Vec::with_capacity(9 + payload.len());
    sum.push(record.op.kind());
    sum.extend_from_slice(&record.seq.to_le_bytes());
    sum.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&sum).to_le_bytes());
    out
}

fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[0..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Fsyncs the directory containing `path`, making a just-persisted rename
/// or file creation durable (the file's own fsync does not cover its
/// directory entry).
pub fn fsync_parent_dir(io: &dyn StoreIo, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let dir = path.as_ref().parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        io.sync_dir(dir)?;
    }
    Ok(())
}

/// Append-only WAL writer. Every [`WalWriter::append`] flushes and fsyncs
/// before returning, so an acknowledged record survives a crash.
///
/// A failed append **rolls the file back** to the previous record
/// boundary (a half-written frame in the middle of the log would make
/// every *later* record unrecoverable — torn bytes are only tolerated at
/// the tail). If the rollback itself fails, the writer is poisoned and
/// refuses further appends.
#[derive(Debug)]
pub struct WalWriter {
    file: Box<dyn StoreFile>,
    /// Committed length: the file ends exactly here after every
    /// successful append.
    len: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Creates (truncating) a new WAL at `path` and writes the header.
    pub fn create(io: &dyn StoreIo, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut file = io.create(path)?;
        file.write_all(&wal_header())?;
        file.sync_data()?;
        fsync_parent_dir(io, path)?;
        Ok(Self {
            file,
            len: WAL_HEADER_LEN as u64,
            poisoned: false,
        })
    }

    /// Opens an existing WAL for appending (creating an empty one with a
    /// header when absent). The caller is expected to have replayed the
    /// file first; this does not validate existing content.
    pub fn open_append(io: &dyn StoreIo, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let (mut file, mut len) = io.open_append(path)?;
        if len == 0 {
            file.write_all(&wal_header())?;
            file.sync_data()?;
            fsync_parent_dir(io, path)?;
            len = WAL_HEADER_LEN as u64;
        }
        Ok(Self {
            file,
            len,
            poisoned: false,
        })
    }

    /// Appends one record, flushing and fsyncing before returning; on
    /// success yields the framed byte count (telemetry feeds on it). On
    /// failure the partial frame is truncated away; an unrecoverable
    /// partial write poisons the writer.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Corrupt {
                detail: "WAL writer is poisoned by an earlier failed append".into(),
            });
        }
        let frame = frame_record(record);
        let result = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data());
        match result {
            Ok(()) => {
                self.len += frame.len() as u64;
                Ok(frame.len() as u64)
            }
            Err(e) => {
                // Roll back to the last record boundary so the log stays
                // replayable; poison on a failed rollback.
                if self.file.set_len(self.len).is_err() {
                    self.poisoned = true;
                }
                Err(e.into())
            }
        }
    }
}

/// Writes a complete WAL file (header + `records`) to `path` with **one**
/// fsync at the end, then fsyncs the parent directory. Used by rewrite
/// paths (log compaction after a seal, torn-tail trimming on recovery)
/// where per-record fsyncs would multiply latency for no durability gain:
/// the rewrite only becomes visible via a subsequent rename.
pub fn write_wal_file(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    records: &[WalRecord],
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let mut file = io.create(path)?;
    let mut bytes = wal_header().to_vec();
    for record in records {
        bytes.extend_from_slice(&frame_record(record));
    }
    file.write_all(&bytes)?;
    file.sync_data()?;
    fsync_parent_dir(io, path)?;
    Ok(())
}

/// The outcome of replaying a WAL.
#[derive(Debug)]
pub struct WalReplay {
    /// Every complete, checksum-verified record, in log order (strictly
    /// increasing `seq`).
    pub records: Vec<WalRecord>,
    /// `false` when a torn tail record (an interrupted final append) was
    /// discarded; the records above are still a correct committed prefix.
    pub clean: bool,
}

/// Replays WAL bytes. See the [module docs](self) for the crash model:
/// truncation recovers a committed prefix; corruption is an error.
pub fn read_wal_bytes(bytes: &[u8]) -> Result<WalReplay, StoreError> {
    if bytes.is_empty() {
        // A WAL that was never created: nothing was committed.
        return Ok(WalReplay {
            records: Vec::new(),
            clean: true,
        });
    }
    if bytes.len() < WAL_HEADER_LEN {
        // A sub-header file can only be a crash during WAL creation (the
        // header is the first thing ever written): nothing was committed.
        // Reporting it torn lets recovery rewrite a clean log instead of
        // failing on every reopen.
        return Ok(WalReplay {
            records: Vec::new(),
            clean: false,
        });
    }
    if bytes[0..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic {
            expected: FileKind::Wal,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: FileKind::Wal,
            found: version,
            reads: WAL_VERSION,
        });
    }
    if bytes[12..16] != [0, 0, 0, 0] {
        return Err(StoreError::Corrupt {
            detail: "reserved WAL header bytes are not zero".into(),
        });
    }
    let mut records = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut at = WAL_HEADER_LEN;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < RECORD_PREFIX_LEN {
            // Torn tail: the final append was interrupted mid-prefix.
            return Ok(WalReplay {
                records,
                clean: false,
            });
        }
        let kind = bytes[at];
        let seq = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[at + 9..at + 17].try_into().unwrap());
        let payload_len = usize::try_from(payload_len).map_err(|_| StoreError::Corrupt {
            detail: "WAL record length overflows".into(),
        })?;
        let Some(body_end) = at
            .checked_add(RECORD_PREFIX_LEN)
            .and_then(|s| s.checked_add(payload_len))
        else {
            return Err(StoreError::Corrupt {
                detail: "WAL record extent overflows".into(),
            });
        };
        let Some(frame_end) = body_end.checked_add(8) else {
            return Err(StoreError::Corrupt {
                detail: "WAL record extent overflows".into(),
            });
        };
        if frame_end > bytes.len() {
            // Torn tail: the payload or checksum never finished writing.
            return Ok(WalReplay {
                records,
                clean: false,
            });
        }
        let payload = &bytes[at + RECORD_PREFIX_LEN..body_end];
        let stored_sum = u64::from_le_bytes(bytes[body_end..frame_end].try_into().unwrap());
        let mut sum = Vec::with_capacity(9 + payload.len());
        sum.push(kind);
        sum.extend_from_slice(&seq.to_le_bytes());
        sum.extend_from_slice(payload);
        if fnv1a(&sum) != stored_sum {
            return Err(StoreError::ChecksumMismatch);
        }
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(StoreError::Corrupt {
                    detail: format!("WAL sequence {seq} does not advance past {prev}"),
                });
            }
        }
        let mut r = Reader::new(payload);
        let op = decode_op(kind, &mut r)?;
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt {
                detail: "trailing bytes inside a WAL record payload".into(),
            });
        }
        last_seq = Some(seq);
        records.push(WalRecord { seq, op });
        at = frame_end;
    }
    Ok(WalReplay {
        records,
        clean: true,
    })
}

/// Replays the WAL at `path` ([`read_wal_bytes`] over the file contents).
/// A missing file replays as empty — the collection simply has no
/// committed writes yet.
pub fn read_wal(io: &dyn StoreIo, path: impl AsRef<Path>) -> Result<WalReplay, StoreError> {
    let bytes = io.read(path.as_ref())?.unwrap_or_default();
    read_wal_bytes(&bytes)
}

/// Atomically replaces the WAL at `path` with one containing exactly
/// `records`: sibling temp file, one fsync, rename, directory fsync. Used
/// to shrink the log after a seal (dropping records the manifest now
/// covers) and to trim a torn tail on recovery.
pub fn replace_wal_file(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    records: &[WalRecord],
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    write_wal_file(io, &tmp, records)?;
    io.rename(&tmp, path)?;
    fsync_parent_dir(io, path)?;
    Ok(())
}

/// Atomically writes `manifest` to `path`: the state is written to a
/// sibling temp file (WAL header + one kind-3 record), fsynced, renamed
/// over `path`, and the directory entry is fsynced — so a reader sees
/// either the old or the new state, never a mixture, even across power
/// loss.
pub fn save_manifest(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    manifest: &LiveManifest,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    write_wal_file(
        io,
        &tmp,
        std::slice::from_ref(&WalRecord {
            seq: manifest.applied_seq.max(1),
            op: WalOp::Manifest(manifest.clone()),
        }),
    )?;
    io.rename(&tmp, path)?;
    fsync_parent_dir(io, path)?;
    Ok(())
}

/// Loads the manifest at `path`: the last manifest-state record wins.
/// `Ok(None)` when the file does not exist (a brand-new live directory).
pub fn load_manifest(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
) -> Result<Option<LiveManifest>, StoreError> {
    let path = path.as_ref();
    let Some(bytes) = io.read(path)? else {
        return Ok(None);
    };
    let replay = read_wal_bytes(&bytes)?;
    let mut state = None;
    for record in replay.records {
        if let WalOp::Manifest(m) = record.op {
            state = Some(m);
        }
    }
    match state {
        Some(m) => Ok(Some(m)),
        None => Err(StoreError::Corrupt {
            detail: "manifest file holds no manifest-state record".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;

    fn doc(spec: &str) -> UncertainString {
        UncertainString::parse(spec).unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                op: WalOp::Insert {
                    doc: 0,
                    body: doc("a:.5,b:.5 | b | a"),
                },
            },
            WalRecord {
                seq: 2,
                op: WalOp::Insert {
                    doc: 1,
                    body: doc("c | c | a:.9,b:.1"),
                },
            },
            WalRecord {
                seq: 3,
                op: WalOp::Delete { doc: 0 },
            },
        ]
    }

    fn wal_bytes(records: &[WalRecord]) -> Vec<u8> {
        let mut out = wal_header().to_vec();
        for r in records {
            out.extend_from_slice(&frame_record(r));
        }
        out
    }

    #[test]
    fn wal_round_trips_through_a_file() {
        let path = std::env::temp_dir().join("ustr_wal_round_trip.wal");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        let mut w = WalWriter::create(&RealIo, &path).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let replay = read_wal(&RealIo, &path).unwrap();
        assert!(replay.clean);
        assert_eq!(replay.records, records);
        // Reopen and append more.
        let mut w = WalWriter::open_append(&RealIo, &path).unwrap();
        w.append(&WalRecord {
            seq: 9,
            op: WalOp::Delete { doc: 1 },
        })
        .unwrap();
        drop(w);
        let replay = read_wal(&RealIo, &path).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[3].seq, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_wal_replays_empty() {
        let replay = read_wal(
            &RealIo,
            std::env::temp_dir().join("ustr_wal_never_created.wal"),
        )
        .unwrap();
        assert!(replay.clean);
        assert!(replay.records.is_empty());
    }

    #[test]
    fn every_truncation_recovers_a_prefix_or_errors() {
        let records = sample_records();
        let bytes = wal_bytes(&records);
        let mut recovered_full_prefixes = 0;
        for cut in 0..bytes.len() {
            // A clean error (header truncation) is the acceptable alternative.
            if let Ok(replay) = read_wal_bytes(&bytes[..cut]) {
                assert!(replay.records.len() <= records.len());
                assert_eq!(
                    replay.records,
                    records[..replay.records.len()],
                    "cut {cut}: recovered records must be a committed prefix"
                );
                recovered_full_prefixes += 1;
            }
        }
        assert!(recovered_full_prefixes > 0, "some cuts recover records");
    }

    #[test]
    fn flipped_byte_is_corruption_not_recovery() {
        let bytes = wal_bytes(&sample_records());
        // Flip a byte inside the first record's payload.
        let mut flipped = bytes.clone();
        flipped[WAL_HEADER_LEN + RECORD_PREFIX_LEN + 2] ^= 0xFF;
        assert!(matches!(
            read_wal_bytes(&flipped),
            Err(StoreError::ChecksumMismatch)
        ));
    }

    /// A log of another version names the WAL format and the version this
    /// build reads, not the snapshot format's.
    #[test]
    fn a_foreign_wal_version_names_the_wal_format() {
        let mut bytes = wal_bytes(&sample_records());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = read_wal_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion {
                    file: FileKind::Wal,
                    found: 2,
                    reads: 1
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "unsupported WAL format version 2 (this build reads version 1)"
        );
        bytes[0] ^= 0xff;
        assert_eq!(
            read_wal_bytes(&bytes).unwrap_err().to_string(),
            "not a WAL file of this build's format (bad magic)"
        );
    }

    /// A checksummed insert whose string declares more positions, or more
    /// correlation rows, than its remaining bytes could hold — a position
    /// is at least its 4-byte choice count, a row 34 bytes — is refused
    /// before anything is allocated for them.
    #[test]
    fn declared_counts_are_bounded_by_the_remaining_bytes() {
        const REMAINING: usize = 64;
        let no_positions = 0u64.to_le_bytes().to_vec();
        for (before, count) in [(vec![], REMAINING / 2), (no_positions, REMAINING / 30)] {
            let mut payload = 7u64.to_le_bytes().to_vec();
            payload.extend(before);
            payload.extend((count as u64).to_le_bytes());
            payload.extend([0u8; REMAINING]);
            let mut summed = vec![1u8];
            summed.extend(1u64.to_le_bytes());
            summed.extend(&payload);
            let mut bytes = wal_header().to_vec();
            bytes.extend(&summed[..9]);
            bytes.extend((payload.len() as u64).to_le_bytes());
            bytes.extend(&payload);
            bytes.extend(fnv1a(&summed).to_le_bytes());
            let got = read_wal_bytes(&bytes);
            assert!(
                matches!(
                    got,
                    Err(StoreError::Truncated {
                        context: "sequence length"
                    })
                ),
                "{count} declared: {got:?}"
            );
        }
    }

    #[test]
    fn non_monotone_sequences_are_rejected() {
        let mut records = sample_records();
        records[2].seq = 2; // duplicate of the previous record
        let bytes = wal_bytes(&records);
        assert!(matches!(
            read_wal_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_round_trips_atomically() {
        let path = std::env::temp_dir().join("ustr_wal_manifest.mf");
        let _ = std::fs::remove_file(&path);
        assert!(load_manifest(&RealIo, &path).unwrap().is_none());
        let manifest = LiveManifest {
            applied_seq: 7,
            next_doc_id: 5,
            next_segment_id: 2,
            tau_min: 0.05,
            epsilon: Some(0.1),
            tombstones: vec![1, 3],
            segments: vec![SegmentMeta {
                id: 0,
                file: "segment_0.coll".into(),
                docs: vec![0, 1, 2],
            }],
        };
        save_manifest(&RealIo, &path, &manifest).unwrap();
        assert_eq!(load_manifest(&RealIo, &path).unwrap().unwrap(), manifest);
        // Overwrite with new state; the replacement is whole.
        let mut next = manifest.clone();
        next.applied_seq = 12;
        next.segments.push(SegmentMeta {
            id: 1,
            file: "segment_1.coll".into(),
            docs: vec![4],
        });
        save_manifest(&RealIo, &path, &next).unwrap();
        assert_eq!(load_manifest(&RealIo, &path).unwrap().unwrap(), next);
        let _ = std::fs::remove_file(&path);
    }
}
