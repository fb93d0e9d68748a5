//! The `ustr-net` wire protocol: typed frames over the shared
//! [`ustr_store::wire`] framing.
//!
//! Every message travels as one checksummed frame
//! ([`ustr_store::write_frame`] / [`ustr_store::read_frame`]: `u32` payload
//! length, payload, FNV-1a 64-bit trailer). The payload's first byte is the
//! frame kind; the body is encoded with the bounds-checked
//! [`Writer`]/[`Reader`] primitives, so `f64` probabilities travel as IEEE-754
//! bit patterns and decode **bit-exactly** — a response decoded by the client
//! compares equal to the server's in-process [`QueryResponse`].
//!
//! # Session shape
//!
//! ```text
//! client                                server
//!   │── Hello { magic, version } ─────────▶│   exactly one, first
//!   │◀─ HelloAck { version, docs, τmin } ──│   (or Error + close)
//!   │── Request { id, query, trace? } ────▶│
//!   │── Request { id, query, trace? } ────▶│   pipelined freely
//!   │◀─ Response { id, result, timings } ──│   any order, matched by id
//!   │◀─ Response { id, result, timings } ──│
//!   │── StatsRequest { id, format } ─────▶│   telemetry scrape (text or JSON)
//!   │◀─ StatsResponse { id, text } ────────│   deterministic rendering
//!   │── HealthRequest { id } ────────────▶│   degradation probe
//!   │◀─ HealthResponse { id, degraded } ───│
//!   │◀─ Error { code, message } ───────────│   fatal: connection closes
//!   │◀─ Goodbye ───────────────────────────│   graceful server shutdown
//! ```
//!
//! Decoding is total: any truncated, corrupted, or structurally inconsistent
//! frame surfaces as a clean [`StoreError`], never a panic — the robustness
//! property tests in `tests/prop_frames.rs` fuzz this against a live server.

use std::sync::Arc;

use ustr_core::Error;
use ustr_service::{DocHits, ListingHit, QueryRequest, QueryResponse, TopHit};
use ustr_store::{write_frame, Reader, StoreError, Writer};

/// Magic bytes opening every [`Frame::Hello`].
pub const NET_MAGIC: [u8; 8] = *b"USTRNET1";

/// The one protocol version this build speaks. A `Hello` naming any other
/// version is answered with [`err_code::UNSUPPORTED_VERSION`] and a close.
pub const PROTOCOL_VERSION: u32 = 5;

/// Default cap on one frame's payload length (requests and responses).
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// Fatal protocol error codes carried by [`Frame::Error`]. After sending
/// one of these the server closes the connection (framing can no longer be
/// trusted, or the session never became valid).
pub mod err_code {
    /// The first frame was not a well-formed `Hello`.
    pub const BAD_HANDSHAKE: u32 = 1;
    /// The `Hello` named a protocol version this server does not speak.
    pub const UNSUPPORTED_VERSION: u32 = 2;
    /// A frame failed to decode (truncated, corrupt, oversize, or an
    /// unexpected kind mid-session).
    pub const MALFORMED_FRAME: u32 = 3;
    /// The connection produced more failing requests than the server's
    /// per-connection error budget allows. Pending answers are still
    /// delivered first — the answer-first contract.
    pub const ERROR_BUDGET_EXCEEDED: u32 = 4;
}

/// Frame kind bytes (the first payload byte).
mod kind {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const REQUEST: u8 = 3;
    pub const RESPONSE: u8 = 4;
    pub const ERROR: u8 = 5;
    pub const GOODBYE: u8 = 6;
    pub const STATS_REQUEST: u8 = 7;
    pub const STATS_RESPONSE: u8 = 8;
    pub const HEALTH_REQUEST: u8 = 9;
    pub const HEALTH_RESPONSE: u8 = 10;
}

/// A trace context as carried on the wire: the 128-bit
/// trace id split into two words, the parent span id, and the
/// originator's sampling decision. The deterministic sampler makes the
/// same keep/drop choice for the id on every node, so propagating the
/// originator's `sampled` bit only ever *adds* coverage (it forces
/// recording on servers whose local rate would skip the id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTraceContext {
    /// High 64 bits of the trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the trace id.
    pub trace_lo: u64,
    /// Span id the server's root span should parent under.
    pub parent_span: u64,
    /// The originator's sampling decision.
    pub sampled: bool,
}

impl From<ustr_obs::TraceContext> for WireTraceContext {
    fn from(ctx: ustr_obs::TraceContext) -> Self {
        WireTraceContext {
            trace_hi: (ctx.trace_id >> 64) as u64,
            trace_lo: ctx.trace_id as u64,
            parent_span: ctx.parent_span,
            sampled: ctx.sampled,
        }
    }
}

impl From<WireTraceContext> for ustr_obs::TraceContext {
    fn from(wire: WireTraceContext) -> Self {
        ustr_obs::TraceContext {
            trace_id: (u128::from(wire.trace_hi) << 64) | u128::from(wire.trace_lo),
            parent_span: wire.parent_span,
            sampled: wire.sampled,
        }
    }
}

/// A query-layer error transported over the wire (the remote twin of
/// [`ustr_core::Error`]). Carried inside a [`Frame::Response`]: the
/// connection stays healthy — only this request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// Stable numeric code (one per [`ustr_core::Error`] variant).
    pub code: u8,
    /// The error's rendered message.
    pub message: String,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (remote error code {})", self.message, self.code)
    }
}

impl std::error::Error for RemoteError {}

impl From<&Error> for RemoteError {
    fn from(e: &Error) -> Self {
        let code = match e {
            Error::EmptyPattern => 1,
            Error::PatternContainsSentinel => 2,
            Error::ThresholdBelowTauMin { .. } => 3,
            Error::InvalidThreshold { .. } => 4,
            Error::InvalidEpsilon { .. } => 5,
            Error::InvalidSnapshot { .. } => 6,
            Error::Model(_) => 7,
            Error::Internal { .. } => 8,
        };
        RemoteError {
            code,
            message: e.to_string(),
        }
    }
}

/// Which rendering of the telemetry snapshot a [`Frame::StatsRequest`]
/// asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// The plaintext exposition format
    /// (`ustr_obs::MetricsSnapshot::render_text`) followed by any
    /// slow-query lines.
    Text,
    /// The machine-readable JSON rendering
    /// (`ustr_obs::MetricsSnapshot::render_json`).
    Json,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client's opening frame: magic + the protocol version it speaks.
    Hello {
        /// Must equal [`NET_MAGIC`].
        magic: [u8; 8],
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Server's handshake acceptance, with a sketch of what it serves.
    HelloAck {
        /// The protocol version the session will speak.
        version: u32,
        /// Documents currently served (a point-in-time count for live
        /// collections).
        num_docs: u64,
        /// The serving threshold floor: τ below this fails validation.
        tau_min: f64,
    },
    /// One query, tagged with a connection-local id for pipelining.
    Request {
        /// Echoed verbatim in the matching [`Frame::Response`].
        id: u64,
        /// The query itself.
        request: QueryRequest,
        /// The client's trace context for this request, when it has one:
        /// the server continues the trace — its spans share the client's
        /// trace id — and reports per-stage timings in the response.
        trace: Option<WireTraceContext>,
    },
    /// The answer to the [`Frame::Request`] with the same `id`.
    Response {
        /// The id of the request this answers.
        id: u64,
        /// The engine's answer, or the per-request validation error. Its
        /// bytes do not depend on whether the request carried a trace
        /// context — tracing never changes an answer.
        result: Result<QueryResponse, RemoteError>,
        /// `(stage name, microseconds)` measured on the server, in
        /// lifecycle order. Empty unless the request carried a trace
        /// context and the server recorded the trace.
        timings: Vec<(String, u64)>,
    },
    /// Telemetry scrape, tagged like a request for pipelining.
    /// Deliberately excluded from the server's traffic counters so that
    /// two idle scrapes return byte-identical snapshots.
    StatsRequest {
        /// Echoed verbatim in the matching [`Frame::StatsResponse`].
        id: u64,
        /// The rendering to answer with.
        format: StatsFormat,
    },
    /// The server's telemetry snapshot — counters, gauges, and histograms
    /// — in the requested [`StatsFormat`].
    StatsResponse {
        /// The id of the [`Frame::StatsRequest`] this answers.
        id: u64,
        /// The rendering (stable byte-for-byte given equal state).
        text: String,
    },
    /// Health probe, tagged like a request for pipelining. Excluded from
    /// traffic counters like [`Frame::StatsRequest`].
    HealthRequest {
        /// Echoed verbatim in the matching [`Frame::HealthResponse`].
        id: u64,
    },
    /// The server's health report: whether the backend is degraded —
    /// still answering queries but with some capability impaired (e.g. a
    /// live collection whose background maintenance halted on a storage
    /// fault and is serving from memory until recovery).
    HealthResponse {
        /// The id of the [`Frame::HealthRequest`] this answers.
        id: u64,
        /// `true` when some backend capability is impaired.
        degraded: bool,
        /// Human-readable description of the impairment (empty when
        /// healthy).
        detail: String,
    },
    /// Fatal protocol failure; the sender closes the connection after it.
    Error {
        /// One of the [`err_code`] constants.
        code: u32,
        /// Human-readable description.
        message: String,
    },
    /// Graceful end-of-session notice (server shutdown drain complete).
    Goodbye,
}

fn put_string(w: &mut Writer, s: &str) {
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String, StoreError> {
    String::from_utf8(r.get_bytes()?).map_err(|_| StoreError::Corrupt {
        detail: "string field is not UTF-8".into(),
    })
}

/// Query-mode tag bytes shared by requests and responses.
mod mode {
    pub const THRESHOLD: u8 = 1;
    pub const TOP_K: u8 = 2;
    pub const LISTING: u8 = 3;
    pub const APPROX: u8 = 4;
}

/// A request travels as its mode tag, the pattern, and one 8-byte argument
/// (τ as its IEEE-754 bit pattern, or `k`).
fn encode_request(w: &mut Writer, req: &QueryRequest) {
    let (tag, pattern, arg) = match req {
        QueryRequest::Threshold { pattern, tau } => (mode::THRESHOLD, pattern, tau.to_bits()),
        QueryRequest::TopK { pattern, k } => (mode::TOP_K, pattern, *k as u64),
        QueryRequest::Listing { pattern, tau } => (mode::LISTING, pattern, tau.to_bits()),
        QueryRequest::Approx { pattern, tau } => (mode::APPROX, pattern, tau.to_bits()),
    };
    w.put_u8(tag);
    w.put_bytes(pattern);
    w.put_u64(arg);
}

fn decode_request(r: &mut Reader<'_>) -> Result<QueryRequest, StoreError> {
    let tag = r.get_u8()?;
    let pattern = r.get_bytes()?;
    Ok(match tag {
        mode::THRESHOLD => QueryRequest::Threshold {
            pattern,
            tau: r.get_f64()?,
        },
        mode::TOP_K => QueryRequest::TopK {
            pattern,
            k: r.get_usize()?,
        },
        mode::LISTING => QueryRequest::Listing {
            pattern,
            tau: r.get_f64()?,
        },
        mode::APPROX => QueryRequest::Approx {
            pattern,
            tau: r.get_f64()?,
        },
        other => {
            return Err(StoreError::Corrupt {
                detail: format!("unknown query mode byte {other}"),
            })
        }
    })
}

fn encode_doc_hits(w: &mut Writer, docs: &[DocHits]) {
    w.put_u64(docs.len() as u64);
    for d in docs {
        w.put_u64(d.doc as u64);
        w.put_u64(d.hits.len() as u64);
        for &(pos, p) in &d.hits {
            w.put_u64(pos as u64);
            w.put_f64(p);
        }
    }
}

fn decode_doc_hits(r: &mut Reader<'_>) -> Result<Vec<DocHits>, StoreError> {
    let n = r.get_len(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let doc = r.get_usize()?;
        let m = r.get_len(16)?;
        let mut hits = Vec::with_capacity(m);
        for _ in 0..m {
            hits.push((r.get_usize()?, r.get_f64()?));
        }
        out.push(DocHits { doc, hits });
    }
    Ok(out)
}

fn encode_result(w: &mut Writer, result: &Result<QueryResponse, RemoteError>) {
    match result {
        Err(e) => {
            w.put_u8(0);
            w.put_u8(e.code);
            put_string(w, &e.message);
        }
        Ok(QueryResponse::Threshold(docs)) => {
            w.put_u8(mode::THRESHOLD);
            encode_doc_hits(w, docs);
        }
        Ok(QueryResponse::TopK(top)) => {
            w.put_u8(mode::TOP_K);
            w.put_u64(top.len() as u64);
            for h in top.iter() {
                w.put_u64(h.doc as u64);
                w.put_u64(h.pos as u64);
                w.put_f64(h.prob);
            }
        }
        Ok(QueryResponse::Listing(listed)) => {
            w.put_u8(mode::LISTING);
            w.put_u64(listed.len() as u64);
            for h in listed.iter() {
                w.put_u64(h.doc as u64);
                w.put_f64(h.relevance);
            }
        }
        Ok(QueryResponse::Approx(docs)) => {
            w.put_u8(mode::APPROX);
            encode_doc_hits(w, docs);
        }
    }
}

fn decode_result(r: &mut Reader<'_>) -> Result<Result<QueryResponse, RemoteError>, StoreError> {
    Ok(match r.get_u8()? {
        0 => Err(RemoteError {
            code: r.get_u8()?,
            message: get_string(r)?,
        }),
        mode::THRESHOLD => Ok(QueryResponse::Threshold(Arc::new(decode_doc_hits(r)?))),
        mode::TOP_K => {
            let n = r.get_len(24)?;
            let mut top = Vec::with_capacity(n);
            for _ in 0..n {
                top.push(TopHit {
                    doc: r.get_usize()?,
                    pos: r.get_usize()?,
                    prob: r.get_f64()?,
                });
            }
            Ok(QueryResponse::TopK(Arc::new(top)))
        }
        mode::LISTING => {
            let n = r.get_len(16)?;
            let mut listed = Vec::with_capacity(n);
            for _ in 0..n {
                listed.push(ListingHit {
                    doc: r.get_usize()?,
                    relevance: r.get_f64()?,
                });
            }
            Ok(QueryResponse::Listing(Arc::new(listed)))
        }
        mode::APPROX => Ok(QueryResponse::Approx(Arc::new(decode_doc_hits(r)?))),
        other => {
            return Err(StoreError::Corrupt {
                detail: format!("unknown response tag byte {other}"),
            })
        }
    })
}

/// Encodes one frame's *payload* (kind byte + body, no length/checksum).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    match frame {
        Frame::Hello { magic, version } => {
            w.put_u8(kind::HELLO);
            for &b in magic {
                w.put_u8(b);
            }
            w.put_u32(*version);
        }
        Frame::HelloAck {
            version,
            num_docs,
            tau_min,
        } => {
            w.put_u8(kind::HELLO_ACK);
            w.put_u32(*version);
            w.put_u64(*num_docs);
            w.put_f64(*tau_min);
        }
        Frame::Request { id, request, trace } => {
            w.put_u8(kind::REQUEST);
            w.put_u64(*id);
            encode_request(&mut w, request);
            w.put_bool(trace.is_some());
            if let Some(trace) = trace {
                w.put_u64(trace.trace_hi);
                w.put_u64(trace.trace_lo);
                w.put_u64(trace.parent_span);
                w.put_bool(trace.sampled);
            }
        }
        Frame::Response {
            id,
            result,
            timings,
        } => {
            w.put_u8(kind::RESPONSE);
            w.put_u64(*id);
            encode_result(&mut w, result);
            // One flag byte when there is nothing to report — an untraced
            // answer pays a byte, not a length word.
            w.put_bool(!timings.is_empty());
            if !timings.is_empty() {
                w.put_u64(timings.len() as u64);
                for (stage, us) in timings {
                    put_string(&mut w, stage);
                    w.put_u64(*us);
                }
            }
        }
        Frame::StatsRequest { id, format } => {
            w.put_u8(kind::STATS_REQUEST);
            w.put_u64(*id);
            w.put_bool(*format == StatsFormat::Json);
        }
        Frame::StatsResponse { id, text } => {
            w.put_u8(kind::STATS_RESPONSE);
            w.put_u64(*id);
            put_string(&mut w, text);
        }
        Frame::HealthRequest { id } => {
            w.put_u8(kind::HEALTH_REQUEST);
            w.put_u64(*id);
        }
        Frame::HealthResponse {
            id,
            degraded,
            detail,
        } => {
            w.put_u8(kind::HEALTH_RESPONSE);
            w.put_u64(*id);
            w.put_bool(*degraded);
            put_string(&mut w, detail);
        }
        Frame::Error { code, message } => {
            w.put_u8(kind::ERROR);
            w.put_u32(*code);
            put_string(&mut w, message);
        }
        Frame::Goodbye => w.put_u8(kind::GOODBYE),
    }
    w.into_bytes()
}

/// Decodes one frame payload. Total: every malformed input is a clean
/// [`StoreError`]; trailing bytes after a well-formed body are rejected.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, StoreError> {
    let mut r = Reader::new(payload);
    let frame = match r.get_u8()? {
        kind::HELLO => {
            let mut magic = [0u8; 8];
            for b in &mut magic {
                *b = r.get_u8()?;
            }
            Frame::Hello {
                magic,
                version: r.get_u32()?,
            }
        }
        kind::HELLO_ACK => Frame::HelloAck {
            version: r.get_u32()?,
            num_docs: r.get_u64()?,
            tau_min: r.get_f64()?,
        },
        kind::REQUEST => Frame::Request {
            id: r.get_u64()?,
            request: decode_request(&mut r)?,
            trace: if r.get_bool()? {
                Some(WireTraceContext {
                    trace_hi: r.get_u64()?,
                    trace_lo: r.get_u64()?,
                    parent_span: r.get_u64()?,
                    sampled: r.get_bool()?,
                })
            } else {
                None
            },
        },
        kind::RESPONSE => Frame::Response {
            id: r.get_u64()?,
            result: decode_result(&mut r)?,
            timings: if r.get_bool()? {
                let n = r.get_len(16)?;
                let mut timings = Vec::with_capacity(n);
                for _ in 0..n {
                    let stage = get_string(&mut r)?;
                    timings.push((stage, r.get_u64()?));
                }
                timings
            } else {
                Vec::new()
            },
        },
        kind::STATS_REQUEST => Frame::StatsRequest {
            id: r.get_u64()?,
            format: if r.get_bool()? {
                StatsFormat::Json
            } else {
                StatsFormat::Text
            },
        },
        kind::STATS_RESPONSE => Frame::StatsResponse {
            id: r.get_u64()?,
            text: get_string(&mut r)?,
        },
        kind::HEALTH_REQUEST => Frame::HealthRequest { id: r.get_u64()? },
        kind::HEALTH_RESPONSE => Frame::HealthResponse {
            id: r.get_u64()?,
            degraded: r.get_bool()?,
            detail: get_string(&mut r)?,
        },
        kind::ERROR => Frame::Error {
            code: r.get_u32()?,
            message: get_string(&mut r)?,
        },
        kind::GOODBYE => Frame::Goodbye,
        other => {
            return Err(StoreError::Corrupt {
                detail: format!("unknown frame kind byte {other}"),
            })
        }
    };
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt {
            detail: "trailing bytes after frame body".into(),
        });
    }
    Ok(frame)
}

/// One frame, fully framed (length prefix + payload + checksum) as a single
/// buffer — so a connection writer can emit it with one `write_all` under
/// its lock, never interleaving two frames.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let payload = encode_frame(frame);
    let mut out = Vec::with_capacity(payload.len() + ustr_store::FRAME_OVERHEAD);
    // Writing into a Vec is infallible, so the Err arm is unreachable —
    // and if that ever changes, an unframed (empty) buffer is a no-op for
    // the writer, not a panic that takes the connection down.
    if write_frame(&mut out, &payload).is_err() {
        out.clear();
    }
    out
}

/// Reads and decodes one frame from a stream. `Ok(None)` is a clean
/// end-of-stream at a frame boundary; everything malformed is a
/// [`StoreError`].
pub fn read_message(
    input: impl std::io::Read,
    max_payload_len: usize,
) -> Result<Option<Frame>, StoreError> {
    match ustr_store::read_frame(input, max_payload_len)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_frame(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold_ab() -> QueryRequest {
        QueryRequest::Threshold {
            pattern: b"AB".to_vec(),
            tau: 0.25,
        }
    }

    fn trace_ctx() -> WireTraceContext {
        WireTraceContext {
            trace_hi: 0xdead_beef_0000_0001,
            trace_lo: 0x1234_5678_9abc_def0,
            parent_span: 42,
            sampled: true,
        }
    }

    /// The golden transcript: every frame kind (and every optional-field
    /// shape) with its exact v5 payload, hex with one group per field.
    fn transcript() -> Vec<(Frame, &'static str)> {
        vec![
            (
                Frame::Hello {
                    magic: NET_MAGIC,
                    version: PROTOCOL_VERSION,
                },
                "01 555354524e455431 05000000",
            ),
            (
                Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                    num_docs: 42,
                    tau_min: 0.05,
                },
                "02 05000000 2a00000000000000 9a9999999999a93f",
            ),
            (
                Frame::Request {
                    id: 7,
                    request: threshold_ab(),
                    trace: None,
                },
                "03 0700000000000000 01 0200000000000000 4142 000000000000d03f 00",
            ),
            (
                Frame::Request {
                    id: 8,
                    request: QueryRequest::TopK {
                        pattern: b"X".to_vec(),
                        k: 5,
                    },
                    trace: Some(trace_ctx()),
                },
                "03 0800000000000000 02 0100000000000000 58 0500000000000000 \
                 01 01000000efbeadde f0debc9a78563412 2a00000000000000 01",
            ),
            (
                Frame::Response {
                    id: 7,
                    result: Ok(QueryResponse::Threshold(Arc::new(vec![DocHits {
                        doc: 3,
                        hits: vec![(0, 0.9), (4, 0.25)],
                    }]))),
                    timings: Vec::new(),
                },
                "04 0700000000000000 01 0100000000000000 0300000000000000 0200000000000000 \
                 0000000000000000 cdccccccccccec3f 0400000000000000 000000000000d03f 00",
            ),
            (
                Frame::Response {
                    id: 8,
                    result: Ok(QueryResponse::TopK(Arc::new(vec![TopHit {
                        doc: 1,
                        pos: 2,
                        prob: 0.75,
                    }]))),
                    timings: vec![("fanout".to_string(), 1200), ("merge".to_string(), 40)],
                },
                "04 0800000000000000 02 0100000000000000 0100000000000000 0200000000000000 \
                 000000000000e83f 01 0200000000000000 0600000000000000 66616e6f7574 \
                 b004000000000000 0500000000000000 6d65726765 2800000000000000",
            ),
            (
                Frame::Response {
                    id: 9,
                    result: Ok(QueryResponse::Listing(Arc::new(vec![ListingHit {
                        doc: 0,
                        relevance: 0.5,
                    }]))),
                    timings: Vec::new(),
                },
                "04 0900000000000000 03 0100000000000000 0000000000000000 000000000000e03f 00",
            ),
            (
                Frame::Response {
                    id: 10,
                    result: Err(RemoteError {
                        code: 1,
                        message: "empty".into(),
                    }),
                    timings: Vec::new(),
                },
                "04 0a00000000000000 00 01 0500000000000000 656d707479 00",
            ),
            (
                Frame::StatsRequest {
                    id: 11,
                    format: StatsFormat::Text,
                },
                "07 0b00000000000000 00",
            ),
            (
                Frame::StatsRequest {
                    id: 12,
                    format: StatsFormat::Json,
                },
                "07 0c00000000000000 01",
            ),
            (
                Frame::StatsResponse {
                    id: 11,
                    text: "ustr_net_requests 12\n".into(),
                },
                "08 0b00000000000000 1500000000000000 757374725f6e65745f72657175657374732031320a",
            ),
            (Frame::HealthRequest { id: 15 }, "09 0f00000000000000"),
            (
                Frame::HealthResponse {
                    id: 15,
                    degraded: true,
                    detail: "halted".into(),
                },
                "0a 0f00000000000000 01 0600000000000000 68616c746564",
            ),
            (
                Frame::Error {
                    code: err_code::MALFORMED_FRAME,
                    message: "bad frame".into(),
                },
                "05 03000000 0900000000000000 626164206672616d65",
            ),
            (Frame::Goodbye, "06"),
        ]
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_transcript_pins_the_encoding_of_every_frame_kind() {
        let mut kinds = Vec::new();
        for (frame, hex) in transcript() {
            let bytes = unhex(hex);
            assert_eq!(encode_frame(&frame), bytes, "{frame:?}");
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
            kinds.push(bytes[0]);
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, (1..=10).collect::<Vec<u8>>(), "every kind is pinned");
    }

    #[test]
    fn a_session_transcript_round_trips_through_a_stream() {
        let mut stream = Vec::new();
        for (frame, _) in transcript() {
            stream.extend_from_slice(&frame_bytes(&frame));
        }
        let mut cursor = &stream[..];
        for (frame, _) in transcript() {
            assert_eq!(
                read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN)
                    .unwrap()
                    .unwrap(),
                frame
            );
        }
        assert!(read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_payloads_fail_cleanly_at_every_cut() {
        for (frame, _) in transcript() {
            let payload = encode_frame(&frame);
            for cut in 0..payload.len() {
                assert!(
                    decode_frame(&payload[..cut]).is_err(),
                    "{frame:?} cut at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_frame(&Frame::Goodbye);
        payload.push(0);
        assert!(matches!(
            decode_frame(&payload),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn wire_trace_context_round_trips_the_full_128_bit_id() {
        let ctx = ustr_obs::TraceContext {
            trace_id: 0xfedc_ba98_7654_3210_0123_4567_89ab_cdef,
            parent_span: u64::MAX,
            sampled: true,
        };
        let wire = WireTraceContext::from(ctx);
        assert_eq!(ustr_obs::TraceContext::from(wire), ctx);
    }

    /// Every one-byte flag admits only 0 and 1.
    #[test]
    fn invalid_flag_bytes_are_rejected() {
        let reject = |frame: &Frame, flag_at: usize| {
            let mut payload = encode_frame(frame);
            assert!(
                payload[flag_at] <= 1,
                "{frame:?}: byte {flag_at} is no flag"
            );
            payload[flag_at] = 2;
            assert!(
                matches!(decode_frame(&payload), Err(StoreError::Corrupt { .. })),
                "{frame:?} with flag byte {flag_at} set to 2 must be rejected"
            );
        };
        let traced = Frame::Request {
            id: 1,
            request: threshold_ab(),
            trace: Some(trace_ctx()),
        };
        let len = encode_frame(&traced).len();
        reject(&traced, len - 1); // sampled
        reject(&traced, len - 26); // trace-present, before hi + lo + parent + sampled
        let response = Frame::Response {
            id: 1,
            result: Ok(QueryResponse::Listing(Arc::new(Vec::new()))),
            timings: Vec::new(),
        };
        reject(&response, encode_frame(&response).len() - 1); // timings-present
        let stats = Frame::StatsRequest {
            id: 1,
            format: StatsFormat::Text,
        };
        reject(&stats, 9); // format, after kind(1) + id(8)
        let health = Frame::HealthResponse {
            id: 1,
            degraded: false,
            detail: String::new(),
        };
        reject(&health, 9); // degraded, after kind(1) + id(8)
    }

    /// Tracing never changes an answer's bytes, and the single frame pair
    /// costs an untraced exchange two bytes over the v4 `Request` +
    /// `Response` it replaces (kind + id + body each, no optional fields).
    #[test]
    fn an_untraced_exchange_costs_two_bytes_and_result_bytes_ignore_tracing() {
        let result = Ok(QueryResponse::Approx(Arc::new(vec![DocHits {
            doc: 3,
            hits: vec![(0, 0.9), (4, 0.25)],
        }])));
        let mut v4_request = Writer::new();
        encode_request(&mut v4_request, &threshold_ab());
        let mut v4_result = Writer::new();
        encode_result(&mut v4_result, &result);
        let result_bytes = v4_result.into_bytes();
        let v4_len = (1 + 8 + v4_request.into_bytes().len()) + (1 + 8 + result_bytes.len());

        let request = encode_frame(&Frame::Request {
            id: 7,
            request: threshold_ab(),
            trace: None,
        });
        let response = |timings| {
            encode_frame(&Frame::Response {
                id: 7,
                result: result.clone(),
                timings,
            })
        };
        let untraced = response(Vec::new());
        let traced = response(vec![("fanout".to_string(), 1200)]);
        assert_eq!(request.len() + untraced.len(), v4_len + 2);
        let result_span = 9..9 + result_bytes.len();
        assert_eq!(untraced[result_span.clone()], result_bytes[..]);
        assert_eq!(traced[result_span], result_bytes[..]);
    }

    #[test]
    fn remote_errors_carry_stable_codes() {
        let e = Error::ThresholdBelowTauMin {
            tau: 0.01,
            tau_min: 0.05,
        };
        let remote = RemoteError::from(&e);
        assert_eq!(remote.code, 3);
        assert!(remote.message.contains("0.05"), "{remote}");
    }
}
