//! Versioned binary snapshots of what a server loads.
//!
//! The paper's indexes are built once and queried many times; this crate
//! makes the "built once" part durable for the two structures the serving
//! stack loads. [`Snapshot::save`] serializes the query-critical state of
//! an [`Index`] — the source model, its position map, and the paper's §4
//! substrate, holding the only copy of the transformed text and its
//! probabilities: the text with its `(SA, LCP)` arrays, the cumulative
//! log-probability prefix sums, and every per-level RMQ table (champion
//! indices + duplicate masks) — and [`Snapshot::load`] reassembles an index
//! that holds what the built one held and answers **byte-identical** query
//! results, skipping the expensive construction passes (the Lemma-2
//! transform, SA-IS, the level mask sweeps). The ε-refined links of an
//! [`ApproxIndex`] built over an [`Index`] are a payload of their own
//! ([`encode_links_payload`]), read back over that index
//! ([`decode_links_payload`]), skipping the link search: a `.coll` file
//! holds one text per document. The other index types have no snapshot;
//! each is built from its input whenever it is wanted.
//!
//! # One container
//!
//! Every snapshot file is the [`collection`] container: a header (magic
//! `"USTRCOLL"`, the format version), a manifest of `(document, kind,
//! length, checksum)` rows, then the bare payloads. An `.idx` is one
//! document with one `Index` section; a `.coll` file or a live segment
//! holds, per document, its `Index` section and, when it is served with ε,
//! its links section. The byte layout is in the [`collection`] module docs.
//!
//! | kind byte | section payload |
//! |---|---|
//! | 1 | an [`Index`] |
//! | 5 | the links of an [`ApproxIndex`] over its document's `Index` section |
//!
//! Any other kind byte is refused ([`StoreError::UnknownKind`]).
//!
//! All fixed-width payload integers are little-endian; `f64`s are stored as
//! their IEEE-754 bit patterns (so prefix sums survive round-trips
//! bit-exactly). **One integer rule:** every integer of a payload below
//! other than the *string* piece — SA, LCP, text maps, champions, links,
//! and every sequence length, level count and stat — is written as an
//! LEB128 varint (1–5 bytes for a `u32` value, 1–10 for a length or stat;
//! shortest form only), by value size, not by type. The *string* piece is
//! the WAL's record body too, and keeps its fixed-width `u64` lengths.
//!
//! # Payloads (version 7)
//!
//! A payload says what `build` produces and a query reads, each array
//! once. Shared pieces first, then the two payloads, every field in the
//! order it is written:
//!
//! | piece | fields |
//! |---|---|
//! | *string* | position count; per position: choice count (`u32`), then `(char, prob)` pairs; correlation count; *correlation* rows (shared with the WAL, so fixed-width) |
//! | *correlation* | subject position, subject char, condition position, condition char, `p_present`, `p_absent` |
//! | *scored text* | text bytes (0 = factor separator), SA, LCP, prefix sums `C` (`f64`s, text length + 1), each after its length |
//! | *substrate* | *scored text*; short-level count `L`; per short level: mask words (`u64`s), champions (one per 64 slots, the `j`-th as `c − 64·j`); long-level count; per long level, the `k`-th of length `L·2ᵏ`: champions (one per `L·2ᵏ` slots, as `c − j·L·2ᵏ`) |
//! | *text map* | after its text, per non-separator text byte: the zigzag delta from the previous such entry (from 0 for the first) |
//! | *links* | link count; per link, sorted by origin preorder (a build writes one origin's links by witness, then deepest first): origin preorder as the delta from the previous link's, origin depth, the gap origin depth − target depth, the witness (a text position below the origin) as the zigzag delta from the previous link's (from 0 for the first); ε (`f64`) |
//! | *stats* | source length, transformed length, factor count, build time in ns |
//!
//! | kind | payload |
//! |---|---|
//! | `Index` | *string* (the source); *substrate*; position map (*text map*); `τmin`; *stats* |
//! | `ApproxIndex` links | *links*; build time in ns — a `.coll` approx section, read over its document's `Index` section |
//!
//! The two level counts must be the text's own — `L = ⌈log₂(slots + 1)⌉`
//! short levels, a long level for every `L·2ᵏ` up to the text length: any
//! other ladder is refused, so a loaded index has a built one's levels.
//!
//! Not written, because another field fixes it: where the separators are
//! (the zero bytes of the text), a text map's entries at separators
//! (`u32::MAX`, the zero bytes of the text), a level's length (its place on
//! the ladder) and block size (64, or the length), the largest short pattern
//! length (the short-level count), and the heap footprint (a measurement
//! of the loaded index, taken again on load).
//! Not written: link probabilities and source positions (derived from `C`
//! and the position map at each link's witness — the probability with the
//! build's own `canon::exp` — on load), and, in a links section, the text,
//! `C`, position map and `τmin` (its document's `Index` section's).
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
//! count at save time. Version 7 is the one container with bare payloads.
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
    ApproxLinkState, ApproxLinksState, IndexState, LevelsParts, LongLevelParts, ScoredTextState,
    ShortLevelParts, SubstrateState,
};
use ustr_core::{ApproxIndex, BuildStats, Index};
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
/// varint; version 7 is one container of bare payloads for every file.
pub const FORMAT_VERSION: u32 = 7;

/// Which structure a section holds: one a server loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A general substring [`Index`].
    Index = 1,
    /// The links of an [`ApproxIndex`] built over an [`Index`], without
    /// that index's text: a `.coll` approx section.
    ApproxLinks = 5,
}

impl SnapshotKind {
    /// The kind a manifest byte names; any other byte — 2, 3 and 4, which
    /// earlier builds wrote for other indexes, included — is
    /// [`StoreError::UnknownKind`].
    pub(crate) fn from_byte(b: u8) -> Result<Self, StoreError> {
        match b {
            1 => Ok(SnapshotKind::Index),
            5 => Ok(SnapshotKind::ApproxLinks),
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

/// Writes the links of `approx` — built [`over`](ApproxIndex::over) an
/// [`Index`] — as a section payload of kind [`SnapshotKind::ApproxLinks`],
/// which holds no text.
pub fn encode_links_payload(approx: &ApproxIndex, w: &mut Writer) {
    encode_links(w, &approx.to_links_snapshot());
}

/// Reads a payload written by [`encode_links_payload`] and hangs its links
/// off `index` ([`ApproxIndex::from_links_snapshot`], which refuses links
/// that `index`'s tree does not carry).
pub fn decode_links_payload(r: &mut Reader<'_>, index: &Index) -> Result<ApproxIndex, StoreError> {
    Ok(ApproxIndex::from_links_snapshot(index, decode_links(r)?)?)
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

fn put_f64_seq(w: &mut Writer, v: &[f64]) {
    put_word_seq(w, v.iter().map(|x| x.to_bits()));
}

fn get_f64_seq(r: &mut Reader<'_>) -> Result<Vec<f64>, StoreError> {
    Ok(get_word_seq(r)?.map(f64::from_bits).collect())
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
    put_f64_seq(w, &t.prefix);
}

fn decode_scored_text(r: &mut Reader<'_>) -> Result<ScoredTextState, StoreError> {
    Ok(ScoredTextState {
        text: get_byte_seq(r)?,
        sa: get_varint_seq(r)?,
        lcp: get_varint_seq(r)?,
        prefix: get_f64_seq(r)?,
    })
}

/// A text map (`u32::MAX` exactly at the text's zero bytes), as the crate
/// docs lay it out. Its values — source positions, document ids, offsets in
/// a document — stay below 2³¹ for any model that fits in memory, so each
/// delta fits an `i32`.
fn encode_text_map(w: &mut Writer, text: &[u8], map: &[u32]) {
    let mut prev = 0u32;
    for (_, &v) in text.iter().zip(map).filter(|&(&b, _)| b != 0) {
        let d = v.wrapping_sub(prev) as i32;
        w.put_varint(((d << 1) ^ (d >> 31)) as u32);
        prev = v;
    }
}

fn decode_text_map(r: &mut Reader<'_>, text: &[u8]) -> Result<Vec<u32>, StoreError> {
    let mut prev = 0u32;
    let mut map = Vec::with_capacity(text.len());
    for &b in text {
        if b != 0 {
            let z = r.get_varint()?;
            let d = (z >> 1) as i32 ^ -((z & 1) as i32);
            prev = (prev.checked_add_signed(d))
                .filter(|&v| v != u32::MAX)
                .ok_or_else(|| corrupt("text map delta leaves u32"))?;
        }
        map.push(if b == 0 { u32::MAX } else { prev });
    }
    Ok(map)
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

/// The builder's record. `heap_bytes` is not part of it: that is a
/// measurement of the index in memory, which `from_snapshot` takes again.
fn encode_stats(w: &mut Writer, s: &BuildStats) {
    put_size(w, s.source_len as u64);
    put_size(w, s.transformed_len as u64);
    put_size(w, s.num_factors as u64);
    encode_build_time(w, s.build_time);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<BuildStats, StoreError> {
    Ok(BuildStats {
        source_len: get_usize(r)?,
        transformed_len: get_usize(r)?,
        num_factors: get_usize(r)?,
        build_time: decode_build_time(r)?,
        heap_bytes: 0,
    })
}

/// A build time in whole nanoseconds.
fn encode_build_time(w: &mut Writer, t: Duration) {
    put_size(w, t.as_nanos().min(u64::MAX as u128) as u64);
}

fn decode_build_time(r: &mut Reader<'_>) -> Result<Duration, StoreError> {
    Ok(Duration::from_nanos(get_size(r)?))
}

// ---------------------------------------------------------------------------
// The two payloads: an `Index`, and the links over one.
// ---------------------------------------------------------------------------

fn encode_index(w: &mut Writer, state: &IndexState) {
    encode_uncertain_string(w, &state.source);
    encode_substrate(w, &state.substrate);
    encode_text_map(w, &state.substrate.text.text, &state.pos);
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
            pos: decode_text_map(r, &substrate.text.text)?,
            substrate,
            tau_min: r.get_f64()?,
            stats: decode_stats(r)?,
        };
        Ok(Index::from_snapshot(state)?)
    }
}

/// A `.coll` approx section's payload: the ε-link table, ε and the build
/// time. A link's witness is its zigzag delta from the previous link's
/// (wrapping, so every `u32` round-trips): the links of one chain share a
/// witness, so most deltas are 0.
fn encode_links(w: &mut Writer, state: &ApproxLinksState) {
    put_size(w, state.links.len() as u64);
    // Links are sorted by origin preorder and each target depth is under
    // its origin depth (a state where not wraps, and does not decode).
    let (mut prev_pre, mut prev_witness) = (0u32, 0u32);
    for link in &state.links {
        w.put_varint(link.origin_pre.wrapping_sub(prev_pre));
        w.put_varint(link.origin_depth);
        w.put_varint(link.origin_depth.wrapping_sub(link.target_depth));
        let d = link.witness.wrapping_sub(prev_witness) as i32;
        w.put_varint(((d << 1) ^ (d >> 31)) as u32);
        (prev_pre, prev_witness) = (link.origin_pre, link.witness);
    }
    w.put_f64(state.epsilon);
    encode_build_time(w, state.build_time);
}

fn decode_links(r: &mut Reader<'_>) -> Result<ApproxLinksState, StoreError> {
    // Four varints of at least one byte each.
    let num_links = get_count(r, 4)?;
    let mut links = Vec::with_capacity(num_links);
    let (mut prev_pre, mut prev_witness) = (0u32, 0u32);
    for _ in 0..num_links {
        let origin_pre = (prev_pre.checked_add(r.get_varint()?))
            .ok_or_else(|| corrupt("link origin preorder past u32"))?;
        let origin_depth = r.get_varint()?;
        let target_depth = (origin_depth.checked_sub(r.get_varint()?))
            .ok_or_else(|| corrupt("link gap larger than its origin depth"))?;
        let z = r.get_varint()?;
        let witness = prev_witness.wrapping_add(((z >> 1) as i32 ^ -((z & 1) as i32)) as u32);
        links.push(ApproxLinkState {
            origin_pre,
            origin_depth,
            target_depth,
            witness,
        });
        (prev_pre, prev_witness) = (origin_pre, witness);
    }
    Ok(ApproxLinksState {
        links,
        epsilon: r.get_f64()?,
        build_time: decode_build_time(r)?,
    })
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

    /// `Index::load` reads one document with one `Index` section: a links
    /// section alone, or a collection, is [`StoreError::NotSingle`].
    #[test]
    fn index_load_wants_one_index_section() {
        let index = sample_index();
        let approx = ApproxIndex::over(&index, 0.05).unwrap();
        let (ib, lb) = (
            payload(|w| index.encode_payload(w)),
            payload(|w| encode_links_payload(&approx, w)),
        );
        let section = |doc, kind, payload| Section { doc, kind, payload };
        for (docs, sections) in [
            (1, vec![section(0, SnapshotKind::ApproxLinks, &lb[..])]),
            (
                1,
                vec![
                    section(0, SnapshotKind::Index, &ib[..]),
                    section(0, SnapshotKind::ApproxLinks, &lb[..]),
                ],
            ),
            (
                2,
                vec![
                    section(0, SnapshotKind::Index, &ib[..]),
                    section(1, SnapshotKind::Index, &ib[..]),
                ],
            ),
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

    /// A manifest kind byte other than 1 and 5 — 2, 3 and 4 were a
    /// `SpecialIndex`, a `ListingIndex` and a stand-alone `ApproxIndex` in
    /// earlier builds — is unknown.
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
        for kind in [0, 2, 3, 4, 6] {
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

    /// The payloads of three fixtures, byte for byte, as the manifest rows
    /// of one file record them (the payloads are version 6's, unchanged).
    /// The one nondeterministic field, `build_time`, is set to zero through
    /// the public state struct; everything else — source, map, text, SA,
    /// LCP, `C`, mask words, champions, links — is what the checksums cover.
    #[test]
    fn snapshot_payloads_are_pinned() {
        let index = sample_index();
        // The links over the index, as a `.coll` section writes them.
        let mut state = ApproxIndex::over(&index, 0.05).unwrap().to_links_snapshot();
        state.build_time = std::time::Duration::ZERO;
        let links = ApproxIndex::from_links_snapshot(&index, state).unwrap();
        // The same bytes after the model went through a correlation, a
        // near-1.0 single choice and a correlated certain position.
        let correlated = Index::build(&correlated(), 0.1).unwrap();
        let payloads = [
            (0, SnapshotKind::Index, pinned(&index)),
            (
                0,
                SnapshotKind::ApproxLinks,
                payload(|w| encode_links_payload(&links, w)),
            ),
            (1, SnapshotKind::Index, pinned(&correlated)),
        ];
        let sections: Vec<Section> = (payloads.iter())
            .map(|(doc, kind, payload)| Section {
                doc: *doc,
                kind: *kind,
                payload,
            })
            .collect();
        assert_eq!(
            manifest_pins(&file_of(2, &sections)),
            [
                (762, 11012587562498709977), // Index
                // ApproxIndex links: the links of one origin in witness
                // order, not in whatever order the std sort left them, so
                // the witness deltas (and the checksum) moved.
                (298, 2459065095511756565),
                (626, 13222628698494590206), // Index, correlated
            ]
        );
    }

    fn encoded_len(encode: impl FnOnce(&mut Writer)) -> usize {
        payload(encode).len()
    }

    /// A payload holds the source, one copy of each per-slot array — text
    /// byte, SA and LCP, the `C` entry and the position map — the levels,
    /// and nothing else that grows with the text. Version 2 spent 34 bytes
    /// per slot where version 4 allowed 21, and 24 per link. Version 5 writes an SA entry of this text (19 178 slots) in at
    /// most 3 bytes, an LCP or map entry in about 1: 14 per slot (13.1
    /// measured). Version 6 writes a link as its four integers alone, in
    /// at most 6 bytes (5.34 measured; 13.96 with the source position and
    /// `f64` probability of version 5), and a `.coll` approx section as
    /// its links alone.
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
            payload <= source + slots * (1 + 3 + 1 + 8 + 1) + levels + FIXED,
            "{payload} bytes for {slots} slots, source {source}, levels {levels}"
        );

        let approx = ApproxIndex::over(&index, 0.05).unwrap();
        let links = approx.num_links() * 6;
        let section = encoded_len(|w| encode_links(w, &approx.to_links_snapshot()));
        assert!(section <= links + FIXED, "{section} bytes, links {links}");
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

    /// `payload` decoded whole as a section of `kind`.
    fn decoded<T>(
        kind: SnapshotKind,
        payload: &[u8],
        decode: impl FnOnce(&mut Reader<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let section = Section {
            doc: 0,
            kind,
            payload,
        };
        section.decode(decode)
    }

    /// A checksummed payload whose integers decode to no built state is a
    /// clean error: a link gap above its origin depth, a position-map delta
    /// that leaves `u32`, a champion offset past its block or past `u32`.
    #[test]
    fn checksummed_but_invalid_payloads_are_clean_errors() {
        let s = ustr_workload::generate_string(&ustr_workload::DatasetConfig::new(200, 0.3, 7));
        let built = Index::build(&s, 0.1).unwrap();
        let links = ApproxIndex::over(&built, 0.05).unwrap().to_links_snapshot();
        let index = built.to_snapshot();
        assert!(index.substrate.levels.short[0].champions.len() > 1);
        let first = index.substrate.text.text.iter().position(|&b| b != 0);
        fn corrupt<T>(err: Result<T, StoreError>, says: &str) {
            match err {
                Err(StoreError::Corrupt { detail }) => assert!(detail.contains(says), "{detail}"),
                other => panic!("expected a corrupt {says:?}, got {:?}", other.err()),
            }
        }

        let encoded = |state: &ApproxLinksState| {
            let bytes = payload(|w| encode_links(w, state));
            decoded(SnapshotKind::ApproxLinks, &bytes, |r| {
                decode_links_payload(r, &built)
            })
        };
        assert!(encoded(&links).is_ok());
        let mut state = links.clone();
        state.links[0].target_depth = state.links[0].origin_depth + 1;
        corrupt(encoded(&state), "gap larger than its origin depth");

        let encoded = |state: &IndexState| {
            let bytes = payload(|w| encode_index(w, state));
            decoded(SnapshotKind::Index, &bytes, Index::decode_payload)
        };
        assert!(encoded(&index).is_ok());
        // The first entry written as the step from 0 to −1.
        let mut state = index.clone();
        state.pos[first.unwrap()] = u32::MAX;
        corrupt(encoded(&state), "text map delta leaves u32");
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
