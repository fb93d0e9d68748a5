//! The one snapshot container. Every snapshot file — a single-index `.idx`,
//! a `.coll` collection, a live segment — is a header, a manifest of
//! sections, and then the sections' bare payloads back to back: an `.idx` is
//! the container with one document and one `Index` section.
//!
//! A collection is one file with its manifest up front, so a whole
//! collection can be shipped, checksummed and memory-planned as a unit. This
//! is the persistence path of the `ustr-service` serving layer
//! (`QueryService::{save_collection, load_collection}`) and of `ustr-live`'s
//! sealed segments.
//!
//! # Container format (version 9)
//!
//! | field | encoding |
//! |---|---|
//! | magic `"USTRCOLL"` | 8 bytes |
//! | format version, currently 9 | `u32` little-endian |
//! | document count | varint |
//! | section count | varint |
//! | per section, in file order: document id, kind, payload length, checksum | varint, 1 byte, varint, FNV-1a 64 of the payload as a `u64` little-endian |
//! | the payloads | contiguous, in manifest order, to the end of the file |
//!
//! Varints are the payloads' own (`put_size`: LEB128, shortest form). A
//! section's offset is not written: it is the end of the manifest plus the
//! lengths before it. A one-section `.idx` spends at most 32 bytes on
//! framing. The version word covers the container and every payload
//! together (see the crate docs' versioning policy).
//!
//! Reading validates the magic, the version, the manifest's counts and
//! document ids, that the payloads fill the file exactly, and every
//! section's checksum — once, over the file's own buffer — before handing
//! out any section; truncation or corruption of any shape surfaces as a
//! [`StoreError`], never a panic. [`read_collection_manifest`] reads the
//! header and manifest alone, for inspection.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::error::corrupt;
use crate::io::StoreIo;
use crate::{
    fnv1a, fsync_parent_dir, get_count, get_size, get_usize, put_size, FileKind, Reader,
    SnapshotKind, StoreError, Writer, FORMAT_VERSION, MAGIC,
};

/// Magic and version: the fixed prefix of every snapshot file.
const PREFIX_LEN: usize = 12;

/// The fewest bytes a manifest row takes: three one-byte fields and the
/// checksum.
const MIN_ROW_LEN: usize = 3 + 8;

/// One section of a snapshot file: the bare payload of one structure of
/// one document, borrowed from the file's buffer (or the writer's).
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// Document id the section belongs to.
    pub doc: usize,
    /// Structure the payload holds.
    pub kind: SnapshotKind,
    /// The payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Section<'a> {
    /// Decodes the whole payload with `decode`; a byte it leaves unread is
    /// [`StoreError::Corrupt`].
    pub fn decode<T>(
        &self,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut r = Reader::new(self.payload);
        let value = decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(value)
    }
}

/// A snapshot file read whole: its document count and every
/// checksum-verified section.
#[derive(Debug)]
pub struct Collection<'a> {
    /// Number of documents the file declares.
    pub num_docs: usize,
    /// All sections, in manifest order.
    pub sections: Vec<Section<'a>>,
}

impl<'a> Collection<'a> {
    /// The one section of a single-structure file such as an `.idx`: one
    /// document, one section, of `kind`. Anything else — a collection
    /// included — is [`StoreError::NotSingle`].
    pub fn single(&self, kind: SnapshotKind) -> Result<Section<'a>, StoreError> {
        match self.sections[..] {
            [section] if self.num_docs == 1 && section.kind == kind => Ok(section),
            _ => Err(StoreError::NotSingle {
                kind,
                docs: self.num_docs,
                sections: self.sections.len(),
            }),
        }
    }
}

/// One manifest row, as stored (nothing about the payload is read).
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    /// Document id the section belongs to.
    pub doc: usize,
    /// Structure the section holds.
    pub kind: SnapshotKind,
    /// Payload length in bytes.
    pub len: u64,
    /// Recorded FNV-1a 64 checksum of the payload.
    pub checksum: u64,
}

/// The header and manifest of a snapshot file, read without touching (or
/// verifying) any payload.
#[derive(Debug, Clone)]
pub struct CollectionManifest {
    /// Number of documents the file declares.
    pub num_docs: usize,
    /// All manifest rows, in stored order.
    pub entries: Vec<ManifestEntry>,
}

/// Writes a snapshot file: header, manifest, then the payloads back to
/// back. `sections` must be in the order they should be laid out (by
/// ascending document id for deterministic loads).
pub fn write_collection(
    mut out: impl Write,
    num_docs: usize,
    sections: &[Section<'_>],
) -> Result<(), StoreError> {
    let mut w = Writer::new();
    w.put_raw(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    put_size(&mut w, num_docs as u64);
    put_size(&mut w, sections.len() as u64);
    for s in sections {
        put_size(&mut w, s.doc as u64);
        w.put_u8(s.kind as u8);
        put_size(&mut w, s.payload.len() as u64);
        w.put_u64(fnv1a(s.payload));
    }
    out.write_all(&w.into_bytes())?;
    for s in sections {
        out.write_all(s.payload)?;
    }
    Ok(())
}

/// [`write_collection`] to a file path (buffered), replacing any file there
/// atomically: the bytes go to the sibling `PATH.tmp`, which is fsynced and
/// renamed over `path`, and then the directory entry is fsynced. A crash or
/// an I/O error mid-save leaves the old file or the new one, never neither,
/// and callers recording it in a manifest (the live serving path truncates
/// its WAL once a segment is manifested) can rely on the file and its name
/// surviving a power loss.
pub fn save_collection_file(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    num_docs: usize,
    sections: &[Section<'_>],
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::new(io.create(&tmp)?);
    write_collection(&mut out, num_docs, sections)?;
    out.flush()?;
    out.get_mut().sync_data()?;
    drop(out);
    io.rename(&tmp, path)?;
    fsync_parent_dir(io, path)
}

/// The header and manifest at the front of `bytes`, and the offset where
/// the payloads start. Shared by the full reader and the manifest-only
/// inspector, so the two can never drift.
pub(crate) fn parse_manifest(bytes: &[u8]) -> Result<(CollectionManifest, usize), StoreError> {
    if bytes.len() < PREFIX_LEN {
        return Err(StoreError::Truncated {
            context: "snapshot header",
        });
    }
    let mut r = Reader::new(bytes);
    if r.get_raw(MAGIC.len())? != MAGIC {
        return Err(StoreError::BadMagic {
            expected: FileKind::Snapshot,
        });
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: FileKind::Snapshot,
            found: version,
            reads: FORMAT_VERSION,
        });
    }
    // The manifest is not checksummed: every count is bounded by the bytes
    // that could hold it before anything is allocated for it, and every
    // servable document needs at least one section.
    let num_docs = get_usize(&mut r)?;
    let num_sections = get_count(&mut r, MIN_ROW_LEN)?;
    if num_docs > num_sections {
        return Err(corrupt(format!(
            "collection declares {num_docs} documents but only {num_sections} sections"
        )));
    }
    let mut entries = Vec::with_capacity(num_sections);
    for i in 0..num_sections {
        let doc = get_usize(&mut r)?;
        if doc >= num_docs {
            return Err(corrupt(format!(
                "manifest entry {i} names document {doc}, but the collection declares {num_docs}"
            )));
        }
        entries.push(ManifestEntry {
            doc,
            kind: SnapshotKind::from_byte(r.get_u8()?)?,
            len: get_size(&mut r)?,
            checksum: r.get_u64()?,
        });
    }
    let manifest = CollectionManifest { num_docs, entries };
    Ok((manifest, bytes.len() - r.remaining()))
}

/// Reads only the header and manifest of a snapshot file — O(manifest) work
/// and memory however large the payloads are; none is verified or decoded.
/// Used to *inspect* a file (`ustr stats`) without loading any index.
pub fn read_collection_manifest(path: impl AsRef<Path>) -> Result<CollectionManifest, StoreError> {
    let file = File::open(path)?;
    // Varint rows have no fixed size: read a growing prefix until the
    // manifest parses, or the file ends.
    let mut prefix = Vec::new();
    let mut want = 4096;
    loop {
        let read = (&file)
            .take(want - prefix.len() as u64)
            .read_to_end(&mut prefix)?;
        match parse_manifest(&prefix) {
            Err(StoreError::Truncated { .. }) if read > 0 => want *= 2,
            parsed => return parsed.map(|(manifest, _)| manifest),
        }
    }
}

/// Reads and validates a whole snapshot file held in `bytes`: header,
/// manifest, that the payloads fill the rest exactly, and every section's
/// checksum. Sections borrow `bytes`; decoding each is the caller's job
/// ([`Section::decode`]).
pub fn read_collection(bytes: &[u8]) -> Result<Collection<'_>, StoreError> {
    let (manifest, mut at) = parse_manifest(bytes)?;
    let mut sections = Vec::with_capacity(manifest.entries.len());
    for e in manifest.entries {
        let end = usize::try_from(e.len)
            .ok()
            .and_then(|len| at.checked_add(len));
        let payload = end
            .and_then(|end| bytes.get(at..end))
            .ok_or(StoreError::Truncated {
                context: "snapshot section",
            })?;
        if fnv1a(payload) != e.checksum {
            return Err(StoreError::ChecksumMismatch);
        }
        at += payload.len();
        sections.push(Section {
            doc: e.doc,
            kind: e.kind,
            payload,
        });
    }
    if at != bytes.len() {
        return Err(corrupt("trailing bytes after the last section"));
    }
    Ok(Collection {
        num_docs: manifest.num_docs,
        sections,
    })
}

/// Reads the snapshot file at `path` and hands it, validated
/// ([`read_collection`]), to `decode`, which decodes straight from the
/// file's buffer. A missing file is an error here (unlike
/// [`StoreIo::read`]'s `None`): snapshot files are always named by a caller
/// or a manifest, so absence means a broken path or directory, not an
/// empty collection.
pub fn load_collection_file<T>(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    decode: impl FnOnce(Collection<'_>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let path = path.as_ref();
    let Some(bytes) = io.read(path)? else {
        return Err(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("snapshot file {} does not exist", path.display()),
        )));
    };
    decode(read_collection(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use ustr_core::Index;
    use ustr_uncertain::UncertainString;

    fn payloads() -> Vec<Vec<u8>> {
        ["a:.5,b:.5 | b | a", "b | a:.9,c:.1 | c | c"]
            .iter()
            .map(|spec| {
                let s = UncertainString::parse(spec).unwrap();
                let mut w = Writer::new();
                Index::build(&s, 0.1).unwrap().encode_payload(&mut w);
                w.into_bytes()
            })
            .collect()
    }

    fn sample_bytes() -> Vec<u8> {
        let payloads = payloads();
        let sections: Vec<Section> = (payloads.iter().enumerate())
            .map(|(doc, payload)| Section {
                doc,
                kind: SnapshotKind::Index,
                payload,
            })
            .collect();
        let mut out = Vec::new();
        write_collection(&mut out, sections.len(), &sections).unwrap();
        out
    }

    #[test]
    fn collection_round_trips() {
        let bytes = sample_bytes();
        let coll = read_collection(&bytes).unwrap();
        assert_eq!(coll.num_docs, 2);
        assert_eq!(coll.sections.len(), 2);
        for (i, s) in coll.sections.iter().enumerate() {
            assert_eq!(s.doc, i);
            assert_eq!(s.kind, SnapshotKind::Index);
            s.decode(Index::decode_payload).unwrap();
        }
        assert!(matches!(
            coll.single(SnapshotKind::Index),
            Err(StoreError::NotSingle {
                docs: 2,
                sections: 2,
                ..
            })
        ));
    }

    /// Header and manifest: magic, version, two one-byte counts, and per
    /// section a one-byte id, the kind, a one- or two-byte length, the
    /// checksum.
    #[test]
    fn framing_is_the_manifest_alone() {
        let bytes = sample_bytes();
        let sections = read_collection(&bytes).unwrap().sections;
        assert!(sections.iter().all(|s| s.payload.len() < 1 << 14));
        let payload_bytes: usize = sections.iter().map(|s| s.payload.len()).sum();
        let row = |len: usize| 1 + 1 + if len < 128 { 1 } else { 2 } + 8;
        let rows: usize = sections.iter().map(|s| row(s.payload.len())).sum();
        assert_eq!(bytes.len() - payload_bytes, PREFIX_LEN + 2 + rows);
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            assert!(
                read_collection(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }
    }

    #[test]
    fn flipped_section_byte_fails_checksum() {
        let mut bytes = sample_bytes();
        let at = bytes.len() - 10; // inside the last section
        bytes[at] ^= 0xFF;
        assert!(matches!(
            read_collection(&bytes),
            Err(StoreError::ChecksumMismatch)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_clean_errors() {
        let mut bytes = sample_bytes();
        bytes[0] = b'X';
        let err = read_collection(&bytes).unwrap_err();
        assert!(matches!(
            err,
            StoreError::BadMagic {
                expected: FileKind::Snapshot
            }
        ));
        assert!(err.to_string().contains("rebuild it"), "{err}");
        for version in [1, FORMAT_VERSION + 1] {
            let mut bytes = sample_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = read_collection(&bytes).unwrap_err();
            assert!(matches!(
                err,
                StoreError::UnsupportedVersion { found, reads: FORMAT_VERSION, .. } if found == version
            ));
            assert!(err.to_string().contains("rebuild it"), "{err}");
        }
    }

    #[test]
    fn absurd_doc_count_is_rejected_without_allocating() {
        // The manifest carries no checksum, so a flipped doc count must be
        // caught by the docs-vs-sections bound, not by an allocation.
        let mut bytes = sample_bytes();
        bytes[PREFIX_LEN] = 0x7f;
        assert!(matches!(
            read_collection(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_reader_inspects_without_decoding() {
        let bytes = sample_bytes();
        let path = std::env::temp_dir().join("ustr_store_manifest_read.coll");
        std::fs::write(&path, &bytes).unwrap();
        let m = read_collection_manifest(&path).unwrap();
        assert_eq!(m.num_docs, 2);
        assert_eq!(m.entries.len(), 2);
        // Entries agree with the full reader's sections.
        let coll = read_collection(&bytes).unwrap();
        for (e, s) in m.entries.iter().zip(coll.sections.iter()) {
            assert_eq!(e.doc, s.doc);
            assert_eq!(e.kind, s.kind);
            assert_eq!(e.len as usize, s.payload.len());
            assert_eq!(e.checksum, fnv1a(s.payload));
        }
        // A corrupt section count must fail cleanly *before* any
        // allocation sized from the untrusted manifest.
        let mut huge = bytes.clone();
        huge[PREFIX_LEN + 1] = 0xff;
        huge.splice(PREFIX_LEN + 2..PREFIX_LEN + 2, [0xff, 0xff, 0x7f]);
        std::fs::write(&path, &huge).unwrap();
        assert!(matches!(
            read_collection_manifest(&path),
            Err(StoreError::Truncated { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            read_collection(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
