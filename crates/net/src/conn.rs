//! Per-connection state machines for the event-driven server: incremental
//! frame parsing over a partial-read buffer, and a partial-write response
//! queue. Pure buffer logic — no sockets, no clocks — so the non-blocking
//! framing path is unit-testable byte by byte.
//!
//! The wire format is [`crate::proto`]'s: a `u32` little-endian payload
//! length, the payload, and an FNV-1a-64 checksum trailer. What is
//! particular here is *delivery*: the event loop hands whatever bytes the
//! socket had, and [`FrameReader`] yields exactly the frames the blocking
//! `read_frame` would have — the same `StoreError`s for oversize
//! declarations (refused from the header alone, before any body arrives),
//! torn tails, and checksum mismatches — regardless of how reads were
//! split.

use std::collections::VecDeque;
use std::io::Write;

use ustr_store::{read_frame, StoreError, FRAME_OVERHEAD};

use crate::proto::{decode_frame, Frame};

/// What [`FrameReader::next`] found at the head of the buffer.
#[derive(Debug)]
pub(crate) enum FrameStep {
    /// The buffered bytes end mid-frame (or the buffer is empty) and the
    /// stream is still open: wait for more.
    NeedMore,
    /// One complete, checksum-verified, decoded frame; `wire_len` is its
    /// total on-the-wire size (payload plus framing overhead).
    Frame { frame: Frame, wire_len: u64 },
    /// The head of the buffer can never become a valid frame: an oversize
    /// declared length, a checksum mismatch, an undecodable payload — or a
    /// torn tail at end-of-stream. Identical errors to the blocking reader.
    Malformed(StoreError),
}

/// Incremental frame parser over a partial-read buffer.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Appends bytes as they arrive off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` when no partial frame is buffered — end-of-stream here is a
    /// clean close, exactly like `read_frame` returning `Ok(None)`.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to take one frame off the front of the buffer. `eof` says the
    /// stream has ended: buffered bytes that cannot complete a frame then
    /// become the blocking reader's truncation error instead of `NeedMore`.
    pub fn next(&mut self, max_payload_len: usize, eof: bool) -> FrameStep {
        // An oversize declared length is refused from the 4-byte header
        // alone — the body may never even be sent.
        let decidable = match self.buf.get(..4) {
            Some(header) => {
                let mut len = [0u8; 4];
                len.copy_from_slice(header);
                let payload_len = u32::from_le_bytes(len) as usize;
                payload_len > max_payload_len
                    || self.buf.len() >= payload_len.saturating_add(FRAME_OVERHEAD)
            }
            None => false,
        };
        let torn_tail = eof && !self.buf.is_empty();
        if !decidable && !torn_tail {
            return FrameStep::NeedMore;
        }
        // Either a whole frame (or a refusable header) is buffered, or the
        // stream ended mid-frame. Running the blocking `read_frame` over
        // the buffered bytes reproduces its behavior bit for bit — torn
        // tails, checksum mismatches, and the oversize guard included.
        let mut cursor: &[u8] = &self.buf;
        let before = cursor.len();
        match read_frame(&mut cursor, max_payload_len) {
            Ok(Some(payload)) => {
                let consumed = before - cursor.len();
                self.buf.drain(..consumed);
                let wire_len = (payload.len() + FRAME_OVERHEAD) as u64;
                match decode_frame(&payload) {
                    Ok(frame) => FrameStep::Frame { frame, wire_len },
                    Err(e) => FrameStep::Malformed(e),
                }
            }
            // Unreachable (`decidable || eof` guarantees a non-empty
            // buffer), but a clean "nothing" is the honest mapping.
            Ok(None) => FrameStep::NeedMore,
            Err(e) => FrameStep::Malformed(e),
        }
    }
}

/// One queued outbound frame.
#[derive(Debug)]
struct Outbound {
    bytes: Vec<u8>,
    /// Feeds the frames-out/bytes-out counters when fully written (query
    /// responses do; `Stats` answers and control frames never do).
    counted: bool,
    /// Releases one in-flight slot when fully written — the event-loop
    /// equivalent of the blocking writer releasing a permit after
    /// `write_all`. True for every answer to a client request.
    releases_slot: bool,
}

/// One frame's completion report from [`WriteQueue::flush`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Flushed {
    /// On-the-wire size of the completed frame.
    pub len: usize,
    /// The frame feeds the traffic counters.
    pub counted: bool,
    /// The frame releases an in-flight slot.
    pub releases_slot: bool,
}

/// Partial-write buffer: whole response frames in, as-many-bytes-as-fit
/// out. Frames leave in FIFO order and never interleave — a frame's bytes
/// are contiguous on the wire no matter how many short writes it takes.
#[derive(Debug, Default)]
pub(crate) struct WriteQueue {
    queue: VecDeque<Outbound>,
    /// How much of the front frame has already been written.
    offset: usize,
}

impl WriteQueue {
    /// Enqueues one pre-framed message.
    pub fn push(&mut self, bytes: Vec<u8>, counted: bool, releases_slot: bool) {
        self.queue.push_back(Outbound {
            bytes,
            counted,
            releases_slot,
        });
    }

    /// `true` when every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Writes as much as `out` accepts without blocking. Returns the
    /// frames that *completed* this call, or `Err(())` when the sink is
    /// dead (the connection should be dropped; remaining frames are
    /// undeliverable). A `WouldBlock` stops cleanly — the caller keeps
    /// write interest and retries on the next readiness.
    pub fn flush(&mut self, out: &mut impl Write) -> Result<Vec<Flushed>, ()> {
        let mut completed = Vec::new();
        while let Some(front) = self.queue.front() {
            let chunk = front.bytes.get(self.offset..).unwrap_or_default();
            // A degenerate empty frame completes without a write.
            if !chunk.is_empty() {
                match out.write(chunk) {
                    Ok(0) => return Err(()),
                    Ok(n) => self.offset += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(completed),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return Err(()),
                }
            }
            if self.offset >= front.bytes.len() {
                completed.push(Flushed {
                    len: front.bytes.len(),
                    counted: front.counted,
                    releases_slot: front.releases_slot,
                });
                self.queue.pop_front();
                self.offset = 0;
            }
        }
        Ok(completed)
    }
}

/// Where a connection is in its life. The event loop drives each
/// connection `Handshake → Serving → Draining → closed`; error paths jump
/// straight to `Draining` with a fatal frame queued behind the in-flight
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for the client's `Hello`; nothing has been promised yet.
    Handshake,
    /// Hello acknowledged: requests dispatch, responses flow.
    Serving,
    /// No more reads. In-flight answers finish and flush; then the final
    /// frame (fatal error, or `Goodbye` on server shutdown) goes out and
    /// the socket closes.
    Draining,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::frame_bytes;

    fn hello() -> Vec<u8> {
        frame_bytes(&Frame::Goodbye)
    }

    /// Feeding a valid frame whole or byte-at-a-time yields the same
    /// decoded frame and wire length.
    #[test]
    fn byte_at_a_time_parses_identically_to_whole_delivery() {
        let bytes = hello();
        let mut whole = FrameReader::default();
        whole.extend(&bytes);
        let FrameStep::Frame {
            frame: expect,
            wire_len: expect_len,
        } = whole.next(1 << 20, false)
        else {
            panic!("whole delivery parses");
        };

        let mut dribble = FrameReader::default();
        for (i, b) in bytes.iter().enumerate() {
            dribble.extend(std::slice::from_ref(b));
            let step = dribble.next(1 << 20, false);
            if i + 1 < bytes.len() {
                assert!(
                    matches!(step, FrameStep::NeedMore),
                    "byte {i}: a partial frame must wait, got {step:?}"
                );
            } else {
                let FrameStep::Frame { frame, wire_len } = step else {
                    panic!("final byte completes the frame, got {step:?}");
                };
                assert_eq!(format!("{frame:?}"), format!("{expect:?}"));
                assert_eq!(wire_len, expect_len);
                assert_eq!(wire_len as usize, bytes.len());
            }
        }
        assert!(dribble.is_empty(), "the frame was consumed exactly");
    }

    /// Every split point of a multi-frame stream — inside the length
    /// header, the payload, and the checksum trailer — parses to the same
    /// frame sequence.
    #[test]
    fn every_split_point_yields_the_same_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame_bytes(&Frame::HealthRequest { id: 7 }));
        stream.extend_from_slice(&frame_bytes(&Frame::Goodbye));
        for cut in 0..=stream.len() {
            let mut reader = FrameReader::default();
            reader.extend(&stream[..cut]);
            let mut got = Vec::new();
            while let FrameStep::Frame { frame, .. } = reader.next(1 << 20, false) {
                got.push(format!("{frame:?}"));
            }
            reader.extend(&stream[cut..]);
            while let FrameStep::Frame { frame, .. } = reader.next(1 << 20, false) {
                got.push(format!("{frame:?}"));
            }
            assert_eq!(
                got,
                vec![
                    format!("{:?}", Frame::HealthRequest { id: 7 }),
                    format!("{:?}", Frame::Goodbye)
                ],
                "split at byte {cut}"
            );
            assert!(reader.is_empty());
        }
    }

    /// An oversize declared length is refused from the header alone — the
    /// body never needs to arrive (the blocking reader's over-allocation
    /// guard, preserved).
    #[test]
    fn oversize_headers_are_refused_before_the_body_arrives() {
        let mut reader = FrameReader::default();
        reader.extend(&(u32::MAX).to_le_bytes());
        match reader.next(1024, false) {
            FrameStep::Malformed(StoreError::Corrupt { detail }) => {
                assert!(detail.contains("exceeds"), "{detail}");
            }
            other => panic!("expected the oversize refusal, got {other:?}"),
        }
    }

    /// A stream ending mid-frame is the blocking reader's truncation
    /// error; ending between frames is a clean nothing.
    #[test]
    fn torn_tails_error_and_clean_boundaries_do_not() {
        let bytes = hello();
        for cut in 1..bytes.len() {
            let mut reader = FrameReader::default();
            reader.extend(&bytes[..cut]);
            assert!(
                matches!(reader.next(1 << 20, false), FrameStep::NeedMore),
                "cut {cut}: still open means wait"
            );
            match reader.next(1 << 20, true) {
                FrameStep::Malformed(StoreError::Truncated { .. }) => {}
                other => panic!("cut {cut}: EOF mid-frame must be Truncated, got {other:?}"),
            }
        }
        let mut reader = FrameReader::default();
        assert!(matches!(reader.next(1 << 20, true), FrameStep::NeedMore));
        assert!(reader.is_empty(), "EOF at a boundary is clean");
    }

    /// A flipped payload byte fails the checksum; a bogus kind byte fails
    /// decoding — both as `Malformed`, exactly like the blocking path.
    #[test]
    fn corruption_is_malformed_not_a_frame() {
        let mut bytes = hello();
        bytes[4] ^= 0xFF;
        let mut reader = FrameReader::default();
        reader.extend(&bytes);
        match reader.next(1 << 20, false) {
            FrameStep::Malformed(StoreError::ChecksumMismatch) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }

        // A correctly-checksummed frame whose payload is an unknown kind.
        let payload = [0xEEu8];
        let mut framed = Vec::new();
        ustr_store::write_frame(&mut framed, &payload).unwrap();
        let mut reader = FrameReader::default();
        reader.extend(&framed);
        assert!(matches!(
            reader.next(1 << 20, false),
            FrameStep::Malformed(_)
        ));
    }

    /// The write queue completes frames in order across arbitrarily short
    /// writes and reports each exactly once.
    #[test]
    fn write_queue_survives_one_byte_writes() {
        /// A sink that accepts one byte per call.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                match buf.first() {
                    Some(&b) => {
                        self.0.push(b);
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let first = frame_bytes(&Frame::HealthRequest { id: 1 });
        let second = frame_bytes(&Frame::Goodbye);
        let mut wq = WriteQueue::default();
        wq.push(first.clone(), true, true);
        wq.push(second.clone(), false, false);

        let mut sink = Dribble(Vec::new());
        let completions = wq.flush(&mut sink).expect("dribble sink never dies");
        assert!(wq.is_empty());
        assert_eq!(
            completions,
            vec![
                Flushed {
                    len: first.len(),
                    counted: true,
                    releases_slot: true
                },
                Flushed {
                    len: second.len(),
                    counted: false,
                    releases_slot: false
                },
            ]
        );
        let mut expected = first;
        expected.extend_from_slice(&second);
        assert_eq!(sink.0, expected, "frames never interleave or reorder");
    }

    /// `WouldBlock` mid-frame parks the queue; the retry resumes at the
    /// exact byte offset.
    #[test]
    fn write_queue_resumes_after_would_block() {
        /// Accepts `budget` bytes, then `WouldBlock`s forever.
        struct Stall {
            budget: usize,
            got: Vec<u8>,
        }
        impl Write for Stall {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                self.got.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let frame = frame_bytes(&Frame::Goodbye);
        let mut wq = WriteQueue::default();
        wq.push(frame.clone(), true, true);
        let mut sink = Stall {
            budget: 5,
            got: Vec::new(),
        };
        assert_eq!(wq.flush(&mut sink).unwrap(), vec![]);
        assert!(!wq.is_empty(), "the frame is parked, not lost");
        sink.budget = usize::MAX;
        let completions = wq.flush(&mut sink).unwrap();
        assert_eq!(completions.len(), 1);
        assert_eq!(sink.got, frame, "resumed at the exact offset");
        assert!(wq.is_empty());
    }

    /// A dead sink reports `Err` so the loop can drop the connection.
    #[test]
    fn write_queue_reports_a_dead_sink() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wq = WriteQueue::default();
        wq.push(frame_bytes(&Frame::Goodbye), false, false);
        assert!(wq.flush(&mut Dead).is_err());
    }
}
