//! Errors surfaced by snapshot reading and writing.

use std::fmt;

use crate::SnapshotKind;

/// The two file formats this crate checks a magic and a version of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A snapshot file: an `.idx`, a `.coll` or a live segment.
    Snapshot,
    /// A write-ahead log or a live manifest.
    Wal,
}

impl FileKind {
    fn name(self) -> &'static str {
        match self {
            FileKind::Snapshot => "snapshot",
            FileKind::Wal => "WAL",
        }
    }

    /// What to do with a file of this kind that this build cannot read.
    fn remedy(self) -> &'static str {
        match self {
            FileKind::Snapshot => ": rebuild it from its source",
            FileKind::Wal => "",
        }
    }
}

/// Everything that can go wrong saving or loading a snapshot. Loading is
/// total: malformed input of any shape produces one of these variants, never
/// a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem / stream error.
    Io(std::io::Error),
    /// The file does not start with the magic of the kind expected.
    BadMagic {
        /// The kind of file the reader expected.
        expected: FileKind,
    },
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// The kind of file the reader expected.
        file: FileKind,
        /// Version found in the header.
        found: u32,
        /// The one version this build reads for `file`.
        reads: u32,
    },
    /// The kind byte is not a known index type.
    UnknownKind {
        /// Byte found in the manifest.
        found: u8,
    },
    /// A single-index file (an `.idx`) holds something else: a collection,
    /// or one section of another kind.
    NotSingle {
        /// The section kind requested.
        kind: SnapshotKind,
        /// Documents the file declares.
        docs: usize,
        /// Sections the file holds.
        sections: usize,
    },
    /// The input ended before the structure it encodes was complete.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// The payload checksum does not match the manifest.
    ChecksumMismatch,
    /// The payload decodes but its structure is inconsistent.
    Corrupt {
        /// Human-readable description.
        detail: String,
    },
    /// The decoded state fails the index layer's invariants.
    Index(ustr_core::Error),
    /// The decoded model data fails validation.
    Model(ustr_uncertain::ModelError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::BadMagic { expected } => write!(
                f,
                "not a {} file of this build's format (bad magic){}",
                expected.name(),
                expected.remedy()
            ),
            StoreError::UnsupportedVersion { file, found, reads } => write!(
                f,
                "unsupported {} format version {found} (this build reads version {reads}){}",
                file.name(),
                file.remedy()
            ),
            StoreError::UnknownKind { found } => {
                write!(f, "unknown snapshot kind byte {found}")
            }
            StoreError::NotSingle {
                kind,
                docs,
                sections,
            } => write!(
                f,
                "expected one document with one {kind:?} section, \
                 found {docs} document(s) in {sections} section(s)"
            ),
            StoreError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            StoreError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            StoreError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            StoreError::Index(e) => write!(f, "snapshot state rejected: {e}"),
            StoreError::Model(e) => write!(f, "snapshot model data rejected: {e}"),
        }
    }
}

/// A [`StoreError::Corrupt`] saying `detail`.
pub(crate) fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        detail: detail.into(),
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Index(e) => Some(e),
            StoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ustr_core::Error> for StoreError {
    fn from(e: ustr_core::Error) -> Self {
        StoreError::Index(e)
    }
}

impl From<ustr_uncertain::ModelError> for StoreError {
    fn from(e: ustr_uncertain::ModelError) -> Self {
        StoreError::Model(e)
    }
}
