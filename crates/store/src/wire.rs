//! Little-endian payload encoding primitives and checksummed framing.
//!
//! Scalars are fixed-width little-endian, or `u32` LEB128 varints (7 bits a
//! byte, low group first, 1–5 bytes) where a value's size should set its
//! width; `f64`s travel as IEEE-754 bit patterns (bit-exact round trips);
//! sequences are `u64`-length-prefixed. Every [`Reader`] accessor
//! bounds-checks before touching the buffer and validates declared sequence
//! lengths against the bytes actually remaining, so corrupt length fields
//! fail cleanly instead of over-allocating; a varint must be the shortest
//! encoding of a `u32`.
//!
//! [`write_frame`] / [`read_frame`] wrap one payload in the shared frame
//! format used by streaming consumers (the WAL's cousins and the `ustr-net`
//! wire protocol): a `u32` payload length, the payload, and an FNV-1a 64-bit
//! checksum trailer. Reading is total: truncation mid-frame, a length above
//! the caller's limit, and a checksum mismatch are all clean [`StoreError`]s,
//! and end-of-stream *between* frames is a well-formed `None`.

use std::io::{Read, Write};

use crate::error::corrupt;
use crate::StoreError;

/// Byte overhead of one frame around its payload: the `u32` length prefix
/// plus the `u64` FNV-1a checksum trailer.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// Writes one frame: `u32` payload length (little-endian), the payload
/// bytes, and the payload's FNV-1a 64-bit checksum (little-endian).
pub fn write_frame(mut out: impl Write, payload: &[u8]) -> Result<(), StoreError> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        corrupt(format!(
            "frame payload of {} bytes exceeds u32::MAX",
            payload.len()
        ))
    })?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&crate::fnv1a(payload).to_le_bytes())?;
    Ok(())
}

/// Fills `buf` from `input`; `Ok(0)` on immediate end-of-stream, an error on
/// end-of-stream after a partial read (a torn frame is never returned).
fn read_exact_or_eof(
    mut input: impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<usize, StoreError> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(0),
            Ok(0) => return Err(StoreError::Truncated { context }),
            Ok(n) => filled += n,
            // A signal mid-read is not end-of-stream: retry, exactly as
            // `Read::read_exact` does.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Reads one frame written by [`write_frame`]. Returns `Ok(None)` on a clean
/// end-of-stream at a frame boundary; a stream ending mid-frame is
/// [`StoreError::Truncated`], a declared length above `max_payload_len` is
/// [`StoreError::Corrupt`] (over-allocation guard — the oversized body is
/// **not** read), and a checksum mismatch is
/// [`StoreError::ChecksumMismatch`].
pub fn read_frame(
    mut input: impl Read,
    max_payload_len: usize,
) -> Result<Option<Vec<u8>>, StoreError> {
    let mut len_buf = [0u8; 4];
    if read_exact_or_eof(&mut input, &mut len_buf, "frame length")? == 0 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_payload_len {
        return Err(corrupt(format!(
            "frame payload of {len} bytes exceeds the {max_payload_len}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if len > 0 && read_exact_or_eof(&mut input, &mut payload, "frame payload")? == 0 {
        return Err(StoreError::Truncated {
            context: "frame payload",
        });
    }
    let mut sum_buf = [0u8; 8];
    if read_exact_or_eof(&mut input, &mut sum_buf, "frame checksum")? == 0 {
        return Err(StoreError::Truncated {
            context: "frame checksum",
        });
    }
    if u64::from_le_bytes(sum_buf) != crate::fnv1a(&payload) {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(Some(payload))
}

/// Append-only payload buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Raw bytes, no length prefix: the reader knows how many.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One `u32` as an LEB128 varint: one byte below 2⁷, five at most.
    pub fn put_varint(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Length-prefixed `u64` sequence.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Bounds-checked payload cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool byte {other}"))),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// A `u64` that must fit in `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| corrupt("value exceeds the platform word size"))
    }

    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// A sequence length whose elements occupy at least `min_elem_bytes`
    /// each; rejects lengths that could not possibly fit in the remaining
    /// input (over-allocation guard for corrupt length fields).
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let len = self.get_usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Truncated {
                context: "sequence length",
            });
        }
        Ok(len)
    }

    /// Length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.get_len(1)?;
        Ok(self.take(len, "byte sequence")?.to_vec())
    }

    /// The next `n` bytes, as [`Writer::put_raw`] wrote them.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n, "byte sequence")
    }

    /// One varint written by [`Writer::put_varint`]. A value above
    /// `u32::MAX`, a sixth byte and an overlong encoding (a last byte of 0
    /// after the first) are [`StoreError::Corrupt`].
    pub fn get_varint(&mut self) -> Result<u32, StoreError> {
        let mut v = 0u64;
        for i in 0..5 {
            let b = self.take(1, "varint")?[0];
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return u32::try_from(v).map_err(|_| corrupt("varint above u32::MAX"));
            }
        }
        Err(corrupt("varint longer than 5 bytes"))
    }

    /// Length-prefixed `u64` sequence.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, StoreError> {
        let len = self.get_len(8)?;
        let raw = self.take(len * 8, "u64 sequence")?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_sequences_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.25);
        w.put_bytes(b"hello");
        w.put_varint(300);
        w.put_raw(b"raw");
        w.put_u64s(&[u64::MAX, 0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_varint().unwrap(), 300);
        assert_eq!(r.get_raw(3).unwrap(), b"raw");
        assert_eq!(r.get_u64s().unwrap(), vec![u64::MAX, 0]);
        assert!(r.is_exhausted());
    }

    /// A varint takes one byte per started 7 bits of its value.
    #[test]
    fn varints_round_trip_at_every_width() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 21, 4),
            (u32::MAX, 5),
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), len, "{v} takes {len} bytes");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn malformed_varints_are_corrupt() {
        for bytes in [
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01][..], // a sixth byte
            &[0xff, 0xff, 0xff, 0xff, 0x10],           // 2³², past u32::MAX
            &[0x80, 0x00],                             // an overlong zero
        ] {
            let mut r = Reader::new(bytes);
            assert!(
                matches!(r.get_varint(), Err(StoreError::Corrupt { .. })),
                "{bytes:?} must be corrupt"
            );
        }
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let values = [1, 300, 70_000, u32::MAX];
        let mut w = Writer::new();
        values.into_iter().for_each(|v| w.put_varint(v));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let read = values.iter().try_for_each(|_| r.get_varint().map(drop));
            assert!(
                matches!(read, Err(StoreError::Truncated { .. })),
                "cut at {cut} must be a clean truncation error"
            );
        }
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // a sequence length no buffer can satisfy
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(StoreError::Truncated { .. })));
        // One byte short of one byte per element fails before allocating.
        let mut w = Writer::new();
        w.put_u64(4);
        w.put_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_bytes(),
            Err(StoreError::Truncated {
                context: "sequence length"
            })
        ));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut r = Reader::new(&[2u8]);
        assert!(matches!(r.get_bool(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[0xABu8; 300]).unwrap();
        let mut cursor = &stream[..];
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().unwrap(),
            vec![0xAB; 300]
        );
        // Clean end-of-stream at a frame boundary.
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload bytes").unwrap();
        for cut in 1..stream.len() {
            let mut cursor = &stream[..cut];
            assert!(
                matches!(
                    read_frame(&mut cursor, 1024),
                    Err(StoreError::Truncated { .. })
                ),
                "cut at {cut} must be a clean truncation error"
            );
        }
    }

    #[test]
    fn oversize_frame_length_is_rejected_without_reading_the_body() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        // No body at all: the length check must fire before any body read.
        let mut cursor = &stream[..];
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn flipped_frame_byte_fails_the_checksum() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"sensitive").unwrap();
        for at in 4..4 + 9 {
            let mut mutated = stream.clone();
            mutated[at] ^= 0x40;
            let mut cursor = &mutated[..];
            assert!(
                matches!(
                    read_frame(&mut cursor, 1024),
                    Err(StoreError::ChecksumMismatch)
                ),
                "flip at {at} must fail the checksum"
            );
        }
    }
}
