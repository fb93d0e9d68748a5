//! Errors surfaced by snapshot reading and writing.

use std::fmt;

/// Everything that can go wrong saving or loading a snapshot. Loading is
/// total: malformed input of any shape produces one of these variants, never
/// a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem / stream error.
    Io(std::io::Error),
    /// The file does not start with the `USTRSNAP` magic.
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The kind byte is not a known index type.
    UnknownKind {
        /// Byte found in the header.
        found: u8,
    },
    /// The snapshot holds a different index type than requested.
    KindMismatch {
        /// Kind byte the caller expected.
        expected: u8,
        /// Kind byte in the header.
        found: u8,
    },
    /// The input ended before the structure it encodes was complete.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// The payload checksum does not match the header.
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
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads version {})",
                    crate::FORMAT_VERSION
                )
            }
            StoreError::UnknownKind { found } => {
                write!(f, "unknown snapshot kind byte {found}")
            }
            StoreError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot holds kind {found}, but kind {expected} was requested"
                )
            }
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
