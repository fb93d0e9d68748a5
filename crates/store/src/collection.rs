//! Single-file **collection snapshots**: a whole document collection (one or
//! two index snapshots per document) packed into one artifact.
//!
//! The per-document directory layout (`doc_<id>.idx` files) ties a collection
//! to a filesystem tree: moving it means moving thousands of files, and
//! nothing ties the files to each other. A collection snapshot is one file
//! with a manifest up front, so a whole collection can be shipped, checksummed
//! and memory-planned as a unit. This is the primary persistence path of the
//! `ustr-service` serving layer (`QueryService::{save_collection,
//! load_collection}`); the directory layout it replaced no longer exists.
//!
//! # Container format
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `"USTRCOLL"` |
//! | 8  | 4 | collection format version, `u32` little-endian (currently 1) |
//! | 12 | 4 | reserved, must be zero |
//! | 16 | 8 | document count, `u64` little-endian |
//! | 24 | 8 | shard plan hint (shard count at save time), `u64` little-endian |
//! | 32 | 8 | section count, `u64` little-endian |
//! | 40 | 33 × sections | manifest entries |
//! | …  | … | section bytes, contiguous, in manifest order |
//!
//! Each manifest entry is `doc_id: u64 | kind: u8 | offset: u64 | len: u64 |
//! checksum: u64` (all little-endian; offsets from the start of the file;
//! checksums are FNV-1a 64 over the section bytes). Every section is itself a
//! complete single-index snapshot (`USTRSNAP` header + payload), so sections
//! carry their own version and kind and can be extracted verbatim.
//!
//! Reading validates the magic, version, reserved bytes, manifest bounds,
//! section contiguity, and every per-section checksum before returning; any
//! truncation or corruption surfaces as a [`StoreError`], never a panic.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::error::corrupt;
use crate::io::StoreIo;
use crate::{fnv1a, SnapshotKind, StoreError};

/// The 8-byte magic prefix of every collection snapshot file.
pub const COLLECTION_MAGIC: [u8; 8] = *b"USTRCOLL";

/// Current collection container version (independent of the per-index
/// snapshot [`crate::FORMAT_VERSION`]; sections carry their own).
pub const COLLECTION_VERSION: u32 = 1;

/// Fixed-size collection header length in bytes.
pub const COLLECTION_HEADER_LEN: usize = 40;

/// Size of one manifest entry in bytes.
const MANIFEST_ENTRY_LEN: usize = 33;

/// One section of a collection file: a complete single-index snapshot
/// belonging to one document.
#[derive(Debug, Clone)]
pub struct CollectionSection {
    /// Document id the section belongs to.
    pub doc: usize,
    /// Index kind the section holds (mirrors the section's own header).
    pub kind: SnapshotKind,
    /// The complete snapshot bytes (`USTRSNAP` header + payload).
    pub bytes: Vec<u8>,
}

/// A decoded collection file: the manifest-level metadata plus every
/// checksum-verified section.
#[derive(Debug)]
pub struct Collection {
    /// Number of documents the collection declares.
    pub num_docs: usize,
    /// Shard count the collection was built with (a planning hint; loaders
    /// may override it).
    pub shard_hint: usize,
    /// All sections, in manifest order.
    pub sections: Vec<CollectionSection>,
}

/// Writes a collection snapshot: header, manifest, then the sections
/// back-to-back. `sections` must be in the order they should be laid out
/// (by ascending document id for deterministic loads).
pub fn write_collection(
    mut out: impl Write,
    num_docs: usize,
    shard_hint: usize,
    sections: &[CollectionSection],
) -> Result<(), StoreError> {
    let mut header = Vec::with_capacity(COLLECTION_HEADER_LEN);
    header.extend_from_slice(&COLLECTION_MAGIC);
    header.extend_from_slice(&COLLECTION_VERSION.to_le_bytes());
    header.extend_from_slice(&[0, 0, 0, 0]);
    header.extend_from_slice(&(num_docs as u64).to_le_bytes());
    header.extend_from_slice(&(shard_hint as u64).to_le_bytes());
    header.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    out.write_all(&header)?;

    let mut offset = (COLLECTION_HEADER_LEN + MANIFEST_ENTRY_LEN * sections.len()) as u64;
    for s in sections {
        out.write_all(&(s.doc as u64).to_le_bytes())?;
        out.write_all(&[s.kind as u8])?;
        out.write_all(&offset.to_le_bytes())?;
        out.write_all(&(s.bytes.len() as u64).to_le_bytes())?;
        out.write_all(&fnv1a(&s.bytes).to_le_bytes())?;
        offset += s.bytes.len() as u64;
    }
    for s in sections {
        out.write_all(&s.bytes)?;
    }
    Ok(())
}

/// Convenience wrapper: [`write_collection`] to a file path (buffered).
/// The file is fsynced before returning, so callers recording it in a
/// manifest (the live serving path truncates its WAL once a segment is
/// manifested) can rely on the bytes surviving a power loss.
pub fn save_collection_file(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
    num_docs: usize,
    shard_hint: usize,
    sections: &[CollectionSection],
) -> Result<(), StoreError> {
    let file = io.create(path.as_ref())?;
    let mut out = BufWriter::new(file);
    write_collection(&mut out, num_docs, shard_hint, sections)?;
    out.flush()?;
    out.get_mut().sync_data()?;
    Ok(())
}

/// Parsed collection header fields (shared by the full reader and the
/// manifest-only inspector, so the two can never drift).
struct HeaderFields {
    version: u32,
    num_docs: usize,
    shard_hint: usize,
    num_sections: usize,
}

/// Parses and validates the fixed-size collection header.
fn parse_collection_header(header: &[u8]) -> Result<HeaderFields, StoreError> {
    if header.len() < COLLECTION_HEADER_LEN {
        return Err(StoreError::Truncated {
            context: "collection header",
        });
    }
    if header[0..8] != COLLECTION_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != COLLECTION_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    if header[12..16] != [0, 0, 0, 0] {
        return Err(corrupt("reserved collection header bytes are not zero"));
    }
    let num_docs = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let shard_hint = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let num_sections = u64::from_le_bytes(header[32..40].try_into().unwrap());
    Ok(HeaderFields {
        version,
        num_docs: usize::try_from(num_docs).map_err(|_| corrupt("document count overflows"))?,
        shard_hint: usize::try_from(shard_hint).unwrap_or(0),
        num_sections: usize::try_from(num_sections)
            .map_err(|_| corrupt("section count overflows"))?,
    })
}

/// Decodes one 33-byte manifest row.
fn parse_manifest_entry(entry: &[u8]) -> Result<ManifestEntry, StoreError> {
    let doc = u64::from_le_bytes(entry[0..8].try_into().unwrap());
    Ok(ManifestEntry {
        doc: usize::try_from(doc).map_err(|_| corrupt("document id overflows"))?,
        kind: SnapshotKind::from_byte(entry[8])?,
        offset: u64::from_le_bytes(entry[9..17].try_into().unwrap()),
        len: u64::from_le_bytes(entry[17..25].try_into().unwrap()),
        checksum: u64::from_le_bytes(entry[25..33].try_into().unwrap()),
    })
}

/// One manifest row, as stored (nothing about the section bytes is read).
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    /// Document id the section belongs to.
    pub doc: usize,
    /// Index kind the section holds.
    pub kind: SnapshotKind,
    /// Byte offset of the section from the start of the file.
    pub offset: u64,
    /// Section length in bytes.
    pub len: u64,
    /// Recorded FNV-1a 64 checksum of the section bytes.
    pub checksum: u64,
}

/// The manifest-level metadata of a collection snapshot, read without
/// touching (or verifying) any section payload.
#[derive(Debug, Clone)]
pub struct CollectionManifest {
    /// Collection container format version.
    pub version: u32,
    /// Number of documents the collection declares.
    pub num_docs: usize,
    /// Shard count recorded at save time.
    pub shard_hint: usize,
    /// All manifest rows, in stored order.
    pub entries: Vec<ManifestEntry>,
}

/// Reads only the header and manifest of a collection snapshot — O(manifest)
/// work and memory regardless of how large the index payloads are. Used to
/// *inspect* a `.coll` file (`ustr stats`) without loading any index.
pub fn read_collection_manifest(path: impl AsRef<Path>) -> Result<CollectionManifest, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = [0u8; COLLECTION_HEADER_LEN];
    let mut filled = 0;
    while filled < COLLECTION_HEADER_LEN {
        let n = file.read(&mut header[filled..])?;
        if n == 0 {
            return Err(StoreError::Truncated {
                context: "collection header",
            });
        }
        filled += n;
    }
    let h = parse_collection_header(&header)?;
    // The header is not checksummed: bound the declared manifest size
    // against the actual file before allocating anything for it.
    let manifest_len = h
        .num_sections
        .checked_mul(MANIFEST_ENTRY_LEN)
        .filter(|&m| {
            m.checked_add(COLLECTION_HEADER_LEN)
                .is_some_and(|end| end as u64 <= file_len)
        })
        .ok_or(StoreError::Truncated {
            context: "collection manifest",
        })?;
    let mut manifest = vec![0u8; manifest_len];
    let mut filled = 0;
    while filled < manifest_len {
        let n = file.read(&mut manifest[filled..])?;
        if n == 0 {
            return Err(StoreError::Truncated {
                context: "collection manifest",
            });
        }
        filled += n;
    }
    let entries = manifest
        .chunks_exact(MANIFEST_ENTRY_LEN)
        .map(parse_manifest_entry)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CollectionManifest {
        version: h.version,
        num_docs: h.num_docs,
        shard_hint: h.shard_hint,
        entries,
    })
}

/// Reads and validates a collection snapshot: magic, version, manifest
/// bounds, section contiguity, and every per-section checksum. Sections are
/// returned verbatim; decoding each into an index (which re-verifies the
/// section's own header) is the caller's job.
pub fn read_collection(mut input: impl Read) -> Result<Collection, StoreError> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    parse_collection(&bytes)
}

fn parse_collection(bytes: &[u8]) -> Result<Collection, StoreError> {
    let h = parse_collection_header(bytes)?;
    let (num_docs, shard_hint, num_sections) = (h.num_docs, h.shard_hint, h.num_sections);
    let manifest_end = num_sections
        .checked_mul(MANIFEST_ENTRY_LEN)
        .and_then(|m| m.checked_add(COLLECTION_HEADER_LEN))
        .ok_or_else(|| corrupt("manifest size overflows"))?;
    if manifest_end > bytes.len() {
        return Err(StoreError::Truncated {
            context: "collection manifest",
        });
    }
    // The header itself is not checksummed, so bound the declared doc count
    // before anyone allocates per-document state: every servable document
    // needs at least one section, and num_sections is already bounded by the
    // manifest-fits-in-file check above.
    if num_docs > num_sections {
        return Err(corrupt(format!(
            "collection declares {num_docs} documents but only {num_sections} sections"
        )));
    }

    let mut sections = Vec::with_capacity(num_sections.min(1024));
    let mut expected_offset = manifest_end as u64;
    for i in 0..num_sections {
        let e = COLLECTION_HEADER_LEN + i * MANIFEST_ENTRY_LEN;
        let entry = parse_manifest_entry(&bytes[e..e + MANIFEST_ENTRY_LEN])?;
        if entry.doc >= num_docs {
            return Err(corrupt(format!(
                "manifest entry {i} names document {}, but the collection declares {num_docs}",
                entry.doc
            )));
        }
        if entry.offset != expected_offset {
            return Err(corrupt(format!(
                "section {i} is not contiguous (offset {}, expected {expected_offset})",
                entry.offset
            )));
        }
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or_else(|| corrupt("section extent overflows"))?;
        if end > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                context: "collection section",
            });
        }
        let section = bytes[entry.offset as usize..end as usize].to_vec();
        if fnv1a(&section) != entry.checksum {
            return Err(StoreError::ChecksumMismatch);
        }
        expected_offset = end;
        sections.push(CollectionSection {
            doc: entry.doc,
            kind: entry.kind,
            bytes: section,
        });
    }
    if expected_offset != bytes.len() as u64 {
        return Err(corrupt("trailing bytes after the last section"));
    }
    Ok(Collection {
        num_docs,
        shard_hint,
        sections,
    })
}

/// Convenience wrapper: [`read_collection`] from a file path. A missing
/// file is an error here (unlike [`StoreIo::read`]'s `None`): collection
/// files are always named by a caller or a manifest, so absence means a
/// broken path or directory, not an empty collection.
pub fn load_collection_file(
    io: &dyn StoreIo,
    path: impl AsRef<Path>,
) -> Result<Collection, StoreError> {
    let path = path.as_ref();
    let Some(bytes) = io.read(path)? else {
        return Err(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("collection file {} does not exist", path.display()),
        )));
    };
    parse_collection(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use ustr_core::Index;
    use ustr_uncertain::UncertainString;

    fn sample_sections() -> Vec<CollectionSection> {
        ["a:.5,b:.5 | b | a", "b | a:.9,c:.1 | c | c"]
            .iter()
            .enumerate()
            .map(|(doc, spec)| {
                let s = UncertainString::parse(spec).unwrap();
                let mut bytes = Vec::new();
                Index::build(&s, 0.1)
                    .unwrap()
                    .write_snapshot(&mut bytes)
                    .unwrap();
                CollectionSection {
                    doc,
                    kind: SnapshotKind::Index,
                    bytes,
                }
            })
            .collect()
    }

    fn sample_bytes() -> Vec<u8> {
        let sections = sample_sections();
        let mut out = Vec::new();
        write_collection(&mut out, sections.len(), 2, &sections).unwrap();
        out
    }

    #[test]
    fn collection_round_trips() {
        let bytes = sample_bytes();
        let coll = read_collection(&bytes[..]).unwrap();
        assert_eq!(coll.num_docs, 2);
        assert_eq!(coll.shard_hint, 2);
        assert_eq!(coll.sections.len(), 2);
        for (i, s) in coll.sections.iter().enumerate() {
            assert_eq!(s.doc, i);
            assert_eq!(s.kind, SnapshotKind::Index);
            let _ = Index::read_snapshot(&s.bytes[..]).unwrap();
        }
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
            read_collection(&bytes[..]),
            Err(StoreError::ChecksumMismatch)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_clean_errors() {
        let mut bytes = sample_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            read_collection(&bytes[..]),
            Err(StoreError::BadMagic)
        ));
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&(COLLECTION_VERSION + 1).to_le_bytes());
        assert!(matches!(
            read_collection(&bytes[..]),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn absurd_doc_count_is_rejected_without_allocating() {
        // The header carries no checksum, so a flipped doc-count field must
        // be caught by the docs-vs-sections bound, not by an allocation.
        let mut bytes = sample_bytes();
        bytes[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            read_collection(&bytes[..]),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_reader_inspects_without_decoding() {
        let bytes = sample_bytes();
        let path = std::env::temp_dir().join("ustr_store_manifest_read.coll");
        std::fs::write(&path, &bytes).unwrap();
        let m = read_collection_manifest(&path).unwrap();
        assert_eq!(m.version, COLLECTION_VERSION);
        assert_eq!(m.num_docs, 2);
        assert_eq!(m.shard_hint, 2);
        assert_eq!(m.entries.len(), 2);
        // Entries agree with the full reader's sections.
        let coll = read_collection(&bytes[..]).unwrap();
        for (e, s) in m.entries.iter().zip(coll.sections.iter()) {
            assert_eq!(e.doc, s.doc);
            assert_eq!(e.kind, s.kind);
            assert_eq!(e.len as usize, s.bytes.len());
            assert_eq!(e.checksum, fnv1a(&s.bytes));
        }
        // A corrupt section count must fail cleanly *before* any
        // allocation sized from the untrusted header.
        let mut huge = bytes.clone();
        huge[32..40].copy_from_slice(&(u64::MAX / 64).to_le_bytes());
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
            read_collection(&bytes[..]),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
