//! Versioned binary snapshots of what a server loads.
//!
//! The paper's indexes are built once and queried many times; this crate
//! makes the "built once" part durable for the two structures the serving
//! stack loads. [`Snapshot::save`] serializes the query-critical state of
//! an [`Index`] — the source model, its position map, and the paper's §4
//! substrate, holding the only copy of the transformed text: the text with
//! its `(SA, LCP)` arrays and every per-level RMQ table (champion indices +
//! duplicate masks) — and [`Snapshot::load`] reassembles an index that
//! holds what the built one held, `C` summed again from the model, and
//! answers **byte-identical** query results, skipping the expensive
//! construction passes (the Lemma-2 transform, SA-IS, the level mask
//! sweeps). The other index types have no snapshot; each is built from its
//! input whenever it is wanted.
//!
//! # One container
//!
//! Every snapshot file is the [`collection`] container: a header (magic
//! `"USTRCOLL"`, the format version), a manifest of `(document, kind,
//! length, checksum)` rows, then the bare payloads. An `.idx` is one
//! document with one `Index` section; a `.coll` file or a live segment
//! holds one `Index` section per document. The byte layout is in the
//! [`collection`] module docs.
//!
//! | kind byte | section payload |
//! |---|---|
//! | 1 | an [`Index`] |
//!
//! Any other kind byte is refused ([`StoreError::UnknownKind`]): 5, which
//! format 9 wrote for the §7 links over an `Index`, included.
//!
//! All fixed-width payload integers are little-endian; `f64`s are stored as
//! their IEEE-754 bit patterns (so probabilities survive round-trips
//! bit-exactly). **One integer rule:** every integer of a payload below
//! other than the *string* piece — SA, LCP, factor starts, champions, and
//! every sequence length, level count and stat — is written as an
//! LEB128 varint (1–5 bytes for a `u32` value, 1–10 for a length or stat;
//! shortest form only), by value size, not by type. The *string* piece is
//! the WAL's record body too, and keeps its fixed-width `u64` lengths.
//!
//! # Payloads (version 10)
//!
//! A payload says what `build` produces and a query reads, each array
//! once. Shared pieces first, then the payload, every field in the order it
//! is written:
//!
//! | piece | fields |
//! |---|---|
//! | *string* | position count; per position: choice count (`u32`), then `(char, prob)` pairs; correlation count; *correlation* rows (shared with the WAL, so fixed-width) |
//! | *correlation* | subject position, subject char, condition position, condition char, `p_present`, `p_absent` |
//! | *scored text* | text bytes (0 = factor separator), SA, LCP, each after its length |
//! | *substrate* | *scored text*; short-level count `L`; per short level: mask words (`u64`s), champions (one per 64 slots, the `j`-th as `c − 64·j`); long-level count; per long level, the `k`-th of length `L·2ᵏ`: champions (one per `L·2ᵏ` slots, as `c − j·L·2ᵏ`) |
//! | *factor starts* | per stretch of the text (position 0 and every position after a separator start one), after their count: the source position of its first character, as the zigzag delta from the previous start (from 0 for the first; wrapping) |
//! | *stats* | source length, transformed length, factor count, build time in ns |
//!
//! | kind | payload |
//! |---|---|
//! | `Index` | *string* (the source); *substrate*; position map (*factor starts*); `τmin`; *stats* |
//!
//! The two level counts must be the text's own — `L = ⌈log₂(slots + 1)⌉`
//! short levels, a long level for every `L·2ᵏ` up to the text length: any
//! other ladder is refused, so a loaded index has a built one's levels.
//!
//! Not written, because another field fixes it: where the separators are
//! (the zero bytes of the text), the map past a factor's first character
//! (one more each), `C` (the model's probabilities at the mapped positions,
//! through the transform's rule, summed on load by the build's code), a
//! level's length (its place on the ladder) and block size (64, or the
//! length), the largest short pattern length (the short-level count), and
//! the heap footprint (a measurement of the loaded index, taken again).
//!
//! # Versioning policy
//!
//! One version, [`FORMAT_VERSION`], covers the container and every payload:
//! it is bumped whenever either changes in any way. Readers accept exactly
//! their own version — a file written at another fails with
//! [`StoreError::UnsupportedVersion`], whose message says to rebuild it,
//! instead of being misdecoded; rebuilding from source data is always
//! possible and is the supported migration path. Version 2 wrote the transformed text twice
//! (once under the suffix arrays, once with the position map), the
//! per-character probabilities beside their prefix sums, and the separator
//! counts. Version 3 wrote each array once but also every long level's
//! filter length (accepting any increasing sequence of them, and any number
//! of short levels), the listing index's document bases and the approximate
//! index's prefix sums. Version 4 wrote every `u32` array at four bytes an
//! entry (the position map at separators too, champions as slot numbers,
//! links at 24 bytes each). Version 5 wrote those arrays as varints but
//! every length, level count and stat as a `u64`, and an approximate index
//! (in a `.coll` file too) with a text, SA and LCP of its own and each
//! link's source position and `f64` probability. Version 6 wrote today's
//! payloads byte for byte, but each inside a 32-byte header of its own
//! (magic, version, kind, length, checksum): an `.idx` was one such
//! snapshot, and a `.coll` put them in a container with a version of its
//! own (1) whose manifest also recorded each section's offset and the shard
//! count at save time. Version 7 was the one container with bare payloads,
//! an `Index`'s with `C` and a map entry per character; version 8 wrote
//! one map entry per factor and no `C`, and named each link's origin by its
//! preorder rank in the tree; version 9 named it by the node's key, as the
//! tree does, and also wrote a `.coll` links section (kind 5) per document
//! served with ε; version 10 writes the same `Index` payloads byte for byte
//! and no links: the serving stack answers `Approx` from the `Index`.
//!
//! # Failure model
//!
//! Loading never panics on bad input: wrong magic, a foreign version, a
//! collection where a single index was asked for, truncation, checksum
//! failures, and structurally inconsistent (but well-checksummed) payloads
//! all surface as [`StoreError`] values.
//!
//! ```
//! use ustr_core::Index;
//! use ustr_store::Snapshot;
//! use ustr_uncertain::UncertainString;
//!
//! let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
//! let built = Index::build(&s, 0.1).unwrap();
//!
//! let path = std::env::temp_dir().join("ustr_store_doc_example.idx");
//! built.save(&path).unwrap();
//! let loaded = Index::load(&path).unwrap();
//! std::fs::remove_file(&path).unwrap();
//!
//! assert_eq!(
//!     built.query(b"QP", 0.2).unwrap().hits(),
//!     loaded.query(b"QP", 0.2).unwrap().hits(),
//! );
//! ```

#![forbid(unsafe_code)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

pub mod collection;
mod error;
pub mod io;
pub mod wal;
pub mod wire;

use std::path::Path;
use std::time::Duration;

use ustr_core::snapshot::{
    IndexState, LevelsParts, LongLevelParts, ScoredTextState, ShortLevelParts, SubstrateState,
};
use ustr_core::{BuildStats, Index};
use ustr_uncertain::{Correlation, UncertainString};

pub use collection::{
    load_collection_file, read_collection, read_collection_manifest, save_collection_file,
    write_collection, Collection, CollectionManifest, ManifestEntry, Section,
};
use error::corrupt;
pub use error::{FileKind, StoreError};
pub use io::{RealIo, StoreFile, StoreIo};
pub use wal::{
    fsync_parent_dir, load_manifest, read_wal, read_wal_bytes, replace_wal_file, save_manifest,
    write_wal_file, LiveManifest, SegmentMeta, WalOp, WalRecord, WalReplay, WalWriter, WAL_MAGIC,
    WAL_VERSION,
};
pub use wire::{read_frame, write_frame, Reader, Writer, FRAME_OVERHEAD};

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"USTRCOLL";

/// Current snapshot format version, of the container and every payload
/// together (see the crate docs for the policy). Version 2 added the
/// `ApproxIndex` record kind; version 3 stores each array once; version 4
/// only what `build` produces and a query reads; version 5 writes its
/// integer arrays as varints; version 6 writes the §7 links as a section of
/// their own over an `Index`, and every length, level count and stat as a
/// varint; version 7 is one container of bare payloads for every file;
/// version 8 writes the position map per factor and derives `C` on load;
/// version 9 keys each link's origin as the suffix tree keys its nodes;
/// version 10 writes no links.
pub const FORMAT_VERSION: u32 = 10;

/// Which structure a section holds: one a server loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A general substring [`Index`].
    Index = 1,
}

impl SnapshotKind {
    /// The kind a manifest byte names; any other byte — 2 to 5, which
    /// earlier builds wrote for other indexes and links, included — is
    /// [`StoreError::UnknownKind`].
    pub(crate) fn from_byte(b: u8) -> Result<Self, StoreError> {
        match b {
            1 => Ok(SnapshotKind::Index),
            other => Err(StoreError::UnknownKind { found: other }),
        }
    }
}

/// FNV-1a 64-bit hash (the payload checksum).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Save/load support for an index type: its section payload codec, and the
/// file-path pair over it.
pub trait Snapshot: Sized {
    /// The kind byte identifying this index type in a manifest row.
    const KIND: SnapshotKind;

    /// Encodes the section payload into `w`.
    fn encode_payload(&self, w: &mut Writer);

    /// Decodes the section payload and reassembles the index.
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, StoreError>;

    /// Saves `self` to `path` as a snapshot file of one document and one
    /// section, fsynced before returning.
    fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut w = Writer::new();
        self.encode_payload(&mut w);
        let payload = w.into_bytes();
        let section = Section {
            doc: 0,
            kind: Self::KIND,
            payload: &payload,
        };
        save_collection_file(&RealIo, path, 1, &[section])
    }

    /// Loads a file written by [`Snapshot::save`]: any other file — a
    /// collection of several documents included — is an error.
    fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        load_collection_file(&RealIo, path, |file| {
            file.single(Self::KIND)?.decode(Self::decode_payload)
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshot-local framing: every length, level count and stat of a payload,
// and every count, id and length of a manifest, is a varint. The WAL and the
// wire protocol share `Writer`/`Reader` and keep their fixed-width `u64`s,
// so these live here and not there.
// ---------------------------------------------------------------------------

/// `v` as an LEB128 varint: 1–10 bytes, low group first.
pub(crate) fn put_size(w: &mut Writer, mut v: u64) {
    while v >= 0x80 {
        w.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    w.put_u8(v as u8);
}

/// A varint written by [`put_size`]; anything but the shortest encoding of
/// a `u64` is [`StoreError::Corrupt`].
pub(crate) fn get_size(r: &mut Reader<'_>) -> Result<u64, StoreError> {
    let mut v = 0u64;
    for i in 0..10 {
        let b = r.get_u8()?;
        let bits = u64::from(b & 0x7f);
        if i == 9 && bits > 1 {
            return Err(corrupt("varint above u64::MAX"));
        }
        v |= bits << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(corrupt("overlong varint"));
            }
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than 10 bytes"))
}

pub(crate) fn get_usize(r: &mut Reader<'_>) -> Result<usize, StoreError> {
    usize::try_from(get_size(r)?).map_err(|_| corrupt("value exceeds the platform word size"))
}

/// A sequence length whose elements take at least `min_elem_bytes` each:
/// one no remaining input could hold is refused before anything is
/// allocated for it.
pub(crate) fn get_count(r: &mut Reader<'_>, min_elem_bytes: usize) -> Result<usize, StoreError> {
    let len = get_usize(r)?;
    if len.saturating_mul(min_elem_bytes.max(1)) > r.remaining() {
        return Err(StoreError::Truncated {
            context: "sequence length",
        });
    }
    Ok(len)
}

fn put_byte_seq(w: &mut Writer, v: &[u8]) {
    put_size(w, v.len() as u64);
    w.put_raw(v);
}

fn get_byte_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, StoreError> {
    let len = get_count(r, 1)?;
    Ok(r.get_raw(len)?.to_vec())
}

fn put_varint_seq(w: &mut Writer, v: impl ExactSizeIterator<Item = u32>) {
    put_size(w, v.len() as u64);
    v.for_each(|x| w.put_varint(x));
}

fn get_varint_seq(r: &mut Reader<'_>) -> Result<Vec<u32>, StoreError> {
    let len = get_count(r, 1)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_varint()?);
    }
    Ok(out)
}

/// `u64`s and `f64`s (as bit patterns) stay eight bytes each.
fn put_word_seq(w: &mut Writer, v: impl ExactSizeIterator<Item = u64>) {
    put_size(w, v.len() as u64);
    v.for_each(|x| w.put_u64(x));
}

fn get_word_seq<'a>(r: &mut Reader<'a>) -> Result<impl Iterator<Item = u64> + 'a, StoreError> {
    let len = get_count(r, 8)?;
    let words = r.get_raw(len * 8)?.chunks_exact(8);
    Ok(words.map(|c| u64::from_le_bytes(c.try_into().unwrap())))
}

/// The wrapping step from `prev` to `v`, zigzagged: a small step either way
/// is a small varint, and every `u32` round-trips.
fn zigzag(prev: u32, v: u32) -> u32 {
    let d = v.wrapping_sub(prev) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

/// The value [`zigzag`] stepped to from `prev`.
fn unzigzag(prev: u32, z: u32) -> u32 {
    prev.wrapping_add(((z >> 1) as i32 ^ -((z & 1) as i32)) as u32)
}

// ---------------------------------------------------------------------------
// Payload codecs for the shared building blocks.
// ---------------------------------------------------------------------------

pub(crate) fn encode_uncertain_string(w: &mut Writer, s: &UncertainString) {
    w.put_u64(s.len() as u64);
    for pos in s.positions() {
        let choices = pos.choices();
        w.put_u32(choices.len() as u32);
        for &(c, p) in choices {
            w.put_u8(c);
            w.put_f64(p);
        }
    }
    let correlations: Vec<&Correlation> = s.correlations().iter().collect();
    w.put_u64(correlations.len() as u64);
    for corr in correlations {
        encode_correlation(w, corr);
    }
}

fn encode_correlation(w: &mut Writer, corr: &Correlation) {
    w.put_u64(corr.subject_pos as u64);
    w.put_u8(corr.subject_char);
    w.put_u64(corr.cond_pos as u64);
    w.put_u8(corr.cond_char);
    w.put_f64(corr.p_present);
    w.put_f64(corr.p_absent);
}

fn decode_correlation(r: &mut Reader<'_>) -> Result<Correlation, StoreError> {
    Ok(Correlation {
        subject_pos: r.get_usize()?,
        subject_char: r.get_u8()?,
        cond_pos: r.get_usize()?,
        cond_char: r.get_u8()?,
        p_present: r.get_f64()?,
        p_absent: r.get_f64()?,
    })
}

pub(crate) fn decode_uncertain_string(r: &mut Reader<'_>) -> Result<UncertainString, StoreError> {
    // A position is at least its 4-byte choice count, a correlation row
    // its 34 bytes: a count no remaining input could hold allocates nothing.
    let n = r.get_len(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.get_u32()? as usize;
        if k.saturating_mul(9) > r.remaining() {
            return Err(StoreError::Truncated {
                context: "uncertain character choices",
            });
        }
        let mut row = Vec::with_capacity(k);
        for _ in 0..k {
            let c = r.get_u8()?;
            let p = r.get_f64()?;
            row.push((c, p));
        }
        rows.push(row);
    }
    let mut s = UncertainString::from_rows(rows)?;
    let num_corr = r.get_len(34)?;
    if num_corr > 0 {
        let mut set = ustr_uncertain::CorrelationSet::new();
        for _ in 0..num_corr {
            set.add(decode_correlation(r)?)?;
        }
        s.set_correlations(set)?;
    }
    Ok(s)
}

fn encode_scored_text(w: &mut Writer, t: &ScoredTextState) {
    put_byte_seq(w, &t.text);
    put_varint_seq(w, t.sa.iter().copied());
    put_varint_seq(w, t.lcp.iter().copied());
}

fn decode_scored_text(r: &mut Reader<'_>) -> Result<ScoredTextState, StoreError> {
    Ok(ScoredTextState {
        text: get_byte_seq(r)?,
        sa: get_varint_seq(r)?,
        lcp: get_varint_seq(r)?,
    })
}

/// Factor starts, as the crate docs lay them out: a build's rise by a
/// little from one factor to the next, so most take one byte.
fn encode_starts(w: &mut Writer, starts: &[u32]) {
    let prev = |k: usize| if k == 0 { 0 } else { starts[k - 1] };
    put_varint_seq(w, (0..starts.len()).map(|k| zigzag(prev(k), starts[k])));
}

fn decode_starts(r: &mut Reader<'_>) -> Result<Vec<u32>, StoreError> {
    let mut starts = get_varint_seq(r)?;
    let mut prev = 0;
    for start in &mut starts {
        *start = unzigzag(prev, *start);
        prev = *start;
    }
    Ok(starts)
}

/// Champions as offsets inside their blocks of `block` slots (one below its
/// block wraps, and does not decode).
fn encode_champions(w: &mut Writer, champions: &[u32], block: usize) {
    let offsets = champions.iter().enumerate();
    put_varint_seq(w, offsets.map(|(j, &c)| c.wrapping_sub((j * block) as u32)));
}

fn decode_champions(r: &mut Reader<'_>, block: usize) -> Result<Vec<u32>, StoreError> {
    let at = |j: usize, off| u32::try_from(j.checked_mul(block)?.checked_add(off as usize)?).ok();
    let offsets = get_varint_seq(r)?.into_iter().enumerate();
    offsets
        .map(|(j, off)| at(j, off).ok_or_else(|| corrupt("champion past u32")))
        .collect()
}

/// The §4 machinery of an `Index`: scored text, then levels (a level's length is its place on the ladder and its block
/// size 64 slots for a short level, the length for a long one: neither is
/// written, and a champion is its offset in its block). The one place its
/// byte layout is written down.
fn encode_substrate(w: &mut Writer, state: &SubstrateState) {
    encode_scored_text(w, &state.text);
    let l = &state.levels;
    put_size(w, l.short.len() as u64);
    for s in &l.short {
        put_word_seq(w, s.mask_words.iter().copied());
        encode_champions(w, &s.champions, 64);
    }
    put_size(w, l.long.len() as u64);
    for (k, lv) in l.long.iter().enumerate() {
        encode_champions(w, &lv.champions, l.short.len() << k);
    }
}

fn decode_substrate(r: &mut Reader<'_>) -> Result<SubstrateState, StoreError> {
    let text = decode_scored_text(r)?;
    // A short level is at least its two lengths, a long one its one.
    let num_short = get_count(r, 2)?;
    let mut short = Vec::with_capacity(num_short);
    for _ in 0..num_short {
        short.push(ShortLevelParts {
            mask_words: get_word_seq(r)?.collect(),
            champions: decode_champions(r, 64)?,
        });
    }
    let num_long = get_count(r, 1)?;
    let mut long = Vec::with_capacity(num_long);
    let mut block = num_short;
    for _ in 0..num_long {
        long.push(LongLevelParts {
            champions: decode_champions(r, block)?,
        });
        block = block.saturating_mul(2);
    }
    Ok(SubstrateState {
        text,
        levels: LevelsParts { short, long },
    })
}

/// The builder's record, its build time in whole nanoseconds. `heap_bytes`
/// is not part of it: that is a measurement of the index in memory, which
/// `from_snapshot` takes again.
fn encode_stats(w: &mut Writer, s: &BuildStats) {
    put_size(w, s.source_len as u64);
    put_size(w, s.transformed_len as u64);
    put_size(w, s.num_factors as u64);
    put_size(w, s.build_time.as_nanos().min(u64::MAX as u128) as u64);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<BuildStats, StoreError> {
    Ok(BuildStats {
        source_len: get_usize(r)?,
        transformed_len: get_usize(r)?,
        num_factors: get_usize(r)?,
        build_time: Duration::from_nanos(get_size(r)?),
        heap_bytes: 0,
    })
}

// ---------------------------------------------------------------------------
// The payload: an `Index`.
// ---------------------------------------------------------------------------

fn encode_index(w: &mut Writer, state: &IndexState) {
    encode_uncertain_string(w, &state.source);
    encode_substrate(w, &state.substrate);
    encode_starts(w, &state.starts);
    w.put_f64(state.tau_min);
    encode_stats(w, &state.stats);
}

impl Snapshot for Index {
    const KIND: SnapshotKind = SnapshotKind::Index;

    fn encode_payload(&self, w: &mut Writer) {
        encode_index(w, &self.to_snapshot());
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let source = decode_uncertain_string(r)?;
        let substrate = decode_substrate(r)?;
        let state = IndexState {
            source,
            starts: decode_starts(r)?,
            substrate,
            tau_min: r.get_f64()?,
            stats: decode_stats(r)?,
        };
        Ok(Index::from_snapshot(state)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> Index {
        let s = UncertainString::parse("Q:.7,S:.3 | Q:.3,P:.7 | P | A:.4,F:.3,P:.2,Q:.1").unwrap();
        Index::build(&s, 0.1).unwrap()
    }

    fn payload(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        encode(&mut w);
        w.into_bytes()
    }

    /// The bytes of a snapshot file of `num_docs` holding `sections`.
    fn file_of(num_docs: usize, sections: &[Section<'_>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_collection(&mut bytes, num_docs, sections).unwrap();
        bytes
    }

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("{name}.{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// An `.idx` is the container with one `Index` section, whose payload
    /// is the encoded index byte for byte, behind at most 32 bytes of
    /// header and manifest.
    #[test]
    fn an_index_file_is_one_bare_section() {
        let index = sample_index();
        let path = std::env::temp_dir().join(format!("ustr_store_one.{}.idx", std::process::id()));
        index.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let file = read_collection(&bytes).unwrap();
        let section = file.single(SnapshotKind::Index).unwrap();
        assert_eq!(section.payload, payload(|w| index.encode_payload(w)));
        assert!(bytes.len() - section.payload.len() <= 32);
        let loaded = Index::load(&path).unwrap();
        assert_eq!(loaded.to_snapshot(), index.to_snapshot());
        std::fs::remove_file(&path).unwrap();
    }

    /// `Index::load` reads one document with one `Index` section: a
    /// collection is [`StoreError::NotSingle`].
    #[test]
    fn index_load_wants_one_index_section() {
        let ib = payload(|w| sample_index().encode_payload(w));
        let section = |doc| Section {
            doc,
            kind: SnapshotKind::Index,
            payload: &ib[..],
        };
        for (docs, sections) in [
            (1, vec![section(0), section(0)]),
            (2, vec![section(0), section(1)]),
        ] {
            let path = temp_file("ustr_store_not_single.coll", &file_of(docs, &sections));
            let err = Index::load(&path).err();
            assert!(
                matches!(err, Some(StoreError::NotSingle { docs: d, sections: s, .. })
                    if d == docs && s == sections.len()),
                "{err:?}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A manifest kind byte other than 1 — 2, 3 and 4 were a
    /// `SpecialIndex`, a `ListingIndex` and a stand-alone `ApproxIndex` in
    /// earlier builds, 5 the links over an `Index` — is unknown.
    #[test]
    fn unknown_kinds_are_refused() {
        let ib = payload(|w| sample_index().encode_payload(w));
        let section = Section {
            doc: 0,
            kind: SnapshotKind::Index,
            payload: &ib,
        };
        let bytes = file_of(1, &[section]);
        // Magic, version, the two counts, the row's document id.
        let kind_at = 8 + 4 + 1 + 1 + 1;
        assert_eq!(bytes[kind_at], SnapshotKind::Index as u8);
        for kind in [0, 2, 3, 4, 5, 6] {
            let mut bytes = bytes.clone();
            bytes[kind_at] = kind;
            let err = read_collection(&bytes).err();
            assert!(
                matches!(err, Some(StoreError::UnknownKind { found }) if found == kind),
                "kind {kind}: {err:?}"
            );
        }
    }

    /// `(payload length, FNV-1a payload checksum)` of every manifest row.
    fn manifest_pins(bytes: &[u8]) -> Vec<(u64, u64)> {
        let (manifest, _) = collection::parse_manifest(bytes).unwrap();
        manifest
            .entries
            .iter()
            .map(|e| (e.len, e.checksum))
            .collect()
    }

    /// The payload of `index`, its build time set to zero.
    fn pinned(index: &Index) -> Vec<u8> {
        let mut state = index.to_snapshot();
        state.stats.build_time = std::time::Duration::ZERO;
        let index = Index::from_snapshot(state).unwrap();
        payload(|w| index.encode_payload(w))
    }

    /// A model with one correlation (one, so the set's iteration order is
    /// fixed) whose subject's only choice is exactly 1.0, and a single
    /// choice just below 1.0.
    fn correlated() -> UncertainString {
        let mut s = UncertainString::parse("A:.6,B:.4 | C | A:.999999999999 | B:.5,C:.5").unwrap();
        let mut corrs = ustr_uncertain::CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 1,
                subject_char: b'C',
                cond_pos: 0,
                cond_char: b'A',
                p_present: 0.9,
                p_absent: 0.7,
            })
            .unwrap();
        s.set_correlations(corrs).unwrap();
        s
    }

    /// The payloads of two fixtures, byte for byte, as the manifest rows
    /// of one file record them (version 8: the `Index` payloads lost `C`
    /// and the per-character map; versions 9 and 10 kept them).
    /// The one nondeterministic field, `build_time`, is set to zero through
    /// the public state struct; everything else — source, map, text, SA,
    /// LCP, `C`, mask words, champions — is what the checksums cover.
    #[test]
    fn snapshot_payloads_are_pinned() {
        // The second after the model went through a correlation, a
        // near-1.0 single choice and a correlated certain position.
        let correlated = Index::build(&correlated(), 0.1).unwrap();
        let payloads = [pinned(&sample_index()), pinned(&correlated)];
        let sections: Vec<Section> = (payloads.iter().enumerate())
            .map(|(doc, payload)| Section {
                doc,
                kind: SnapshotKind::Index,
                payload,
            })
            .collect();
        assert_eq!(
            manifest_pins(&file_of(2, &sections)),
            [
                (364, 18245839441643084873), // Index
                (328, 15807307767832286229), // Index, correlated
            ]
        );
    }

    fn encoded_len(encode: impl FnOnce(&mut Writer)) -> usize {
        payload(encode).len()
    }

    /// A payload holds the source, one copy of each per-slot array — text
    /// byte, SA and LCP — one factor start per factor, the levels, and
    /// nothing else that grows with the text. Version 2 spent 34 bytes per
    /// slot where version 4 allowed 21, and 24 per link. Version 5 writes
    /// an SA entry of this text (19 178 slots) in at most 3 bytes, an LCP
    /// or map entry in about 1: 14 per slot with `C`'s 8 (13.1 measured).
    /// Version 8 writes no `C` and a factor start, of about one byte, for
    /// every few slots: 6 per slot (4.23 measured).
    #[test]
    fn snapshot_holds_each_array_once() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(2_000, 0.3, 7));
        const FIXED: usize = 256;

        let index = Index::build(&s, 0.1).unwrap();
        let state = index.to_snapshot();
        let slots = state.substrate.text.text.len() + 1;
        let source = encoded_len(|w| encode_uncertain_string(w, &state.source));
        let levels = encoded_len(|w| encode_substrate(w, &state.substrate))
            - encoded_len(|w| encode_scored_text(w, &state.substrate.text));
        let payload = encoded_len(|w| index.encode_payload(w));
        assert!(
            payload <= source + slots * (1 + 3 + 1 + 1) + levels + FIXED,
            "{payload} bytes for {slots} slots, source {source}, levels {levels}"
        );
    }

    /// A length or stat takes one byte per started 7 bits, ten for
    /// `u64::MAX`; a longer, overlong or out-of-range one is corrupt.
    #[test]
    fn sizes_are_shortest_form_varints() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (1 << 35, 6), (u64::MAX, 10)] {
            let mut w = Writer::new();
            put_size(&mut w, v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), len, "{v} takes {len} bytes");
            assert_eq!(get_size(&mut Reader::new(&bytes)).unwrap(), v);
        }
        for bytes in [
            &[0x80; 10][..],                                               // an eleventh byte
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02], // 2⁶⁴
            &[0x80, 0x00],                                                 // an overlong zero
        ] {
            let got = get_size(&mut Reader::new(bytes));
            assert!(matches!(got, Err(StoreError::Corrupt { .. })), "{bytes:?}");
        }
    }

    /// A checksummed payload whose integers decode to no built state is a
    /// clean error: a factor start past the source, a champion offset past
    /// its block or past `u32`.
    #[test]
    fn checksummed_but_invalid_payloads_are_clean_errors() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(200, 0.3, 7));
        let index = Index::build(&s, 0.1).unwrap().to_snapshot();
        assert!(index.substrate.levels.short[0].champions.len() > 1);
        fn corrupt<T>(err: Result<T, StoreError>, says: &str) {
            match err {
                Err(StoreError::Corrupt { detail }) => assert!(detail.contains(says), "{detail}"),
                other => panic!("expected a corrupt {says:?}, got {:?}", other.err()),
            }
        }

        let encoded = |state: &IndexState| {
            let bytes = payload(|w| encode_index(w, state));
            let section = Section {
                doc: 0,
                kind: SnapshotKind::Index,
                payload: &bytes,
            };
            section.decode(Index::decode_payload)
        };
        assert!(encoded(&index).is_ok());
        // Every factor start decodes (its step wraps): one past the source
        // is the index's to refuse.
        let mut state = index.clone();
        state.starts[0] = u32::MAX;
        assert!(matches!(encoded(&state), Err(StoreError::Index(_))));
        // A champion offset past its block decodes, into the next block,
        // which the validators refuse.
        let mut state = index.clone();
        state.substrate.levels.short[0].champions[0] += 64;
        assert!(matches!(encoded(&state), Err(StoreError::Index(_))));
        // A champion below its block is an offset no block start can take.
        let mut state = index.clone();
        state.substrate.levels.short[0].champions[1] = 0;
        corrupt(encoded(&state), "champion past u32");
    }
}
