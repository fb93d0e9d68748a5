//! The pipelining TCP client.
//!
//! [`NetClient::connect`] performs the version handshake;
//! [`NetClient::query_requests`] writes a whole batch as one buffer (full
//! pipelining — no write→read round trip per request) and then collects
//! responses, which the server may deliver **in any order**: they are
//! matched back to their requests by id, so the returned vector is always
//! positionally aligned with the input batch.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ustr_service::{QueryRequest, QueryResponse};
use ustr_store::StoreError;

use crate::proto::{
    frame_bytes, read_message, Frame, RemoteError, StatsFormat, WireTraceContext,
    DEFAULT_MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};

/// One answer plus the server's `(stage, microseconds)` timings for it.
pub type Timed = (Result<QueryResponse, RemoteError>, Vec<(String, u64)>);

/// Everything that can go wrong on the client side of a session. Per-query
/// failures (validation errors) are **not** here — they come back as
/// [`RemoteError`]s inside the result vector, and the connection stays
/// usable.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A configured deadline elapsed (connect, read, or write timeout —
    /// see [`ClientConfig`]). Split from [`NetError::Io`] because a
    /// timeout is the retryable failure: the peer may be mid-restart.
    Timeout(std::io::Error),
    /// The peer sent bytes that do not decode as a frame.
    Frame(StoreError),
    /// The peer sent a well-formed frame that violates the session state
    /// machine (e.g. a response id that was never requested).
    Protocol(String),
    /// The server reported a fatal session error and closed.
    Server {
        /// One of the [`crate::proto::err_code`] constants.
        code: u32,
        /// The server's description.
        message: String,
    },
    /// The connection ended (EOF or server goodbye) while responses were
    /// still outstanding.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O error: {e}"),
            NetError::Timeout(e) => write!(f, "network deadline elapsed: {e}"),
            NetError::Frame(e) => write!(f, "malformed frame from server: {e}"),
            NetError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            NetError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            NetError::Disconnected => {
                write!(f, "connection closed with responses outstanding")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A socket deadline surfaces as `WouldBlock` (Unix `SO_RCVTIMEO`) or
/// `TimedOut` (Windows, and `connect_timeout`) — either way it is the
/// retryable kind.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout(&e) {
            NetError::Timeout(e)
        } else {
            NetError::Io(e)
        }
    }
}

impl From<StoreError> for NetError {
    fn from(e: StoreError) -> Self {
        // A read deadline fires inside the framing layer; unwrap it so
        // every `?` site classifies timeouts uniformly.
        match e {
            StoreError::Io(io) if is_timeout(&io) => NetError::Timeout(io),
            other => NetError::Frame(other),
        }
    }
}

/// Connection-level knobs for [`NetClient::connect_with_config`]. The
/// default has no deadlines and the default frame cap — identical to
/// [`NetClient::connect`].
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Give up on `connect(2)` after this long (per resolved address).
    /// `None` uses the OS default.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each socket read; an expired deadline surfaces as
    /// [`NetError::Timeout`]. `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Deadline for each socket write. `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
    /// Cap on one response frame's payload length. `None` uses
    /// [`DEFAULT_MAX_FRAME_LEN`].
    pub max_frame_len: Option<usize>,
}

/// What the server advertised in its [`Frame::HelloAck`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerInfo {
    /// The protocol version the session speaks.
    pub protocol_version: u32,
    /// Documents served at handshake time.
    pub num_docs: u64,
    /// The serving threshold floor (τ below this fails validation).
    pub tau_min: f64,
}

/// One client connection (the client side of one pipelined session).
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    info: ServerInfo,
    next_id: u64,
    max_frame_len: usize,
}

impl NetClient {
    /// Connects and handshakes with the default frame-length cap and no
    /// deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// Connects and handshakes with explicit deadlines. With a
    /// `connect_timeout`, each resolved address is tried in turn under
    /// that deadline; read/write deadlines apply to every subsequent
    /// socket operation and surface as [`NetError::Timeout`].
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, NetError> {
        let max_frame_len = config.max_frame_len.unwrap_or(DEFAULT_MAX_FRAME_LEN);
        let mut writer = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(deadline) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, deadline) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(NetError::from(last_err.unwrap_or_else(|| {
                            std::io::Error::other("address resolved to no candidates")
                        })))
                    }
                }
            }
        };
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(config.read_timeout)?;
        writer.set_write_timeout(config.write_timeout)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        writer.write_all(&frame_bytes(&Frame::Hello {
            magic: NET_MAGIC,
            version: PROTOCOL_VERSION,
        }))?;
        let info = match read_message(&mut reader, max_frame_len)? {
            Some(Frame::HelloAck {
                version,
                num_docs,
                tau_min,
            }) => ServerInfo {
                protocol_version: version,
                num_docs,
                tau_min,
            },
            Some(Frame::Error { code, message }) => return Err(NetError::Server { code, message }),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            None => return Err(NetError::Disconnected),
        };
        Ok(NetClient {
            writer,
            reader,
            info,
            next_id: 0,
            max_frame_len,
        })
    }

    /// What the server advertised at handshake time.
    pub fn server_info(&self) -> ServerInfo {
        self.info
    }

    /// Answers a typed batch over the connection: all requests are written
    /// as one pipelined burst, then responses are collected and re-aligned
    /// by id. The outer `Err` is a session failure (the connection should
    /// be dropped); inner `Err`s are per-query validation errors from the
    /// server, after which the connection remains usable.
    #[allow(clippy::type_complexity)]
    pub fn query_requests(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<Result<QueryResponse, RemoteError>>, NetError> {
        let timed = self.exchange(requests, &[])?;
        Ok(timed.into_iter().map(|(result, _)| result).collect())
    }

    /// Answers a typed batch with client-propagated trace contexts:
    /// `contexts[i]` rides to the server on request `i`, whose engine-side
    /// root span continues the client's trace instead of starting a fresh
    /// one. Each answer carries the server's per-stage timings in
    /// microseconds (empty when the server did not record the trace).
    /// `contexts` must align positionally with `requests`.
    pub fn query_requests_traced(
        &mut self,
        requests: &[QueryRequest],
        contexts: &[ustr_obs::TraceContext],
    ) -> Result<Vec<Timed>, NetError> {
        if contexts.len() != requests.len() {
            return Err(NetError::Protocol(format!(
                "{} trace contexts for {} requests (must align positionally)",
                contexts.len(),
                requests.len()
            )));
        }
        self.exchange(requests, contexts)
    }

    /// The one pipelining routine: request `i` carries `contexts[i]` when
    /// there is one (a missing tail means untraced).
    fn exchange(
        &mut self,
        requests: &[QueryRequest],
        contexts: &[ustr_obs::TraceContext],
    ) -> Result<Vec<Timed>, NetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_id;
        self.next_id += requests.len() as u64;
        let mut burst = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            burst.extend_from_slice(&frame_bytes(&Frame::Request {
                id: base + i as u64,
                request: request.clone(),
                trace: contexts.get(i).copied().map(WireTraceContext::from),
            }));
        }
        // A burst bigger than the socket buffers could deadlock if written
        // synchronously: the server answers the first in-flight window,
        // its writer fills our receive buffer, and both sides block on
        // write. Large bursts are therefore written from a helper thread
        // while this thread drains responses; small ones (the common case)
        // fit in the kernel buffers and skip the thread.
        const SYNC_BURST_LIMIT: usize = 32 << 10;
        let write_thread = if burst.len() <= SYNC_BURST_LIMIT {
            self.writer.write_all(&burst)?;
            None
        } else {
            let mut writer = self.writer.try_clone()?;
            Some(std::thread::spawn(move || writer.write_all(&burst)))
        };

        let mut results: Vec<Option<Timed>> = Vec::new();
        results.resize_with(requests.len(), || None);
        let mut outstanding = requests.len();
        while outstanding > 0 {
            match read_message(&mut self.reader, self.max_frame_len)? {
                Some(Frame::Response {
                    id,
                    result,
                    timings,
                }) => {
                    let slot = id
                        .checked_sub(base)
                        .and_then(|i| results.get_mut(i as usize))
                        .ok_or_else(|| {
                            NetError::Protocol(format!("response for unknown request id {id}"))
                        })?;
                    if slot.is_some() {
                        return Err(NetError::Protocol(format!(
                            "duplicate response for request id {id}"
                        )));
                    }
                    *slot = Some((result, timings));
                    outstanding -= 1;
                }
                Some(Frame::Error { code, message }) => {
                    return Err(NetError::Server { code, message })
                }
                Some(Frame::Goodbye) | None => return Err(NetError::Disconnected),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected frame mid-session: {other:?}"
                    )))
                }
            }
        }
        if let Some(handle) = write_thread {
            handle
                .join()
                .map_err(|_| NetError::Protocol("burst writer thread panicked".into()))??;
        }
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r.ok_or_else(|| {
                NetError::Protocol("server closed the session with responses outstanding".into())
            })?);
        }
        Ok(out)
    }

    /// Convenience: one threshold query.
    pub fn query(
        &mut self,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Result<QueryResponse, RemoteError>, NetError> {
        let req = QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        };
        self.query_requests(std::slice::from_ref(&req))?
            .pop()
            .ok_or_else(|| NetError::Protocol("one-request batch yielded no response".into()))
    }

    /// One control round trip: sends the frame `request` builds around a
    /// fresh id and returns the reply, which must echo that id.
    fn control(&mut self, request: impl FnOnce(u64) -> Frame) -> Result<Frame, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&frame_bytes(&request(id)))?;
        match read_message(&mut self.reader, self.max_frame_len)? {
            Some(Frame::Error { code, message }) => Err(NetError::Server { code, message }),
            Some(
                reply @ (Frame::StatsResponse { id: got, .. }
                | Frame::HealthResponse { id: got, .. }),
            ) if got == id => Ok(reply),
            Some(other) => Err(NetError::Protocol(format!(
                "expected the reply to control request {id}, got {other:?}"
            ))),
            None => Err(NetError::Disconnected),
        }
    }

    /// Scrapes the server's telemetry as exposition-format text: one
    /// [`Frame::StatsRequest`]/[`Frame::StatsResponse`] round trip. The
    /// server holds the answer behind the connection's in-flight permits,
    /// so a scrape after a pipelined burst observes all of that burst's
    /// responses.
    pub fn stats(&mut self) -> Result<String, NetError> {
        self.scrape(StatsFormat::Text)
    }

    /// [`NetClient::stats`] in the machine-readable JSON rendering.
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        self.scrape(StatsFormat::Json)
    }

    fn scrape(&mut self, format: StatsFormat) -> Result<String, NetError> {
        match self.control(|id| Frame::StatsRequest { id, format })? {
            Frame::StatsResponse { text, .. } => Ok(text),
            other => Err(NetError::Protocol(format!(
                "expected StatsResponse, got {other:?}"
            ))),
        }
    }

    /// Probes the server's health: one
    /// [`Frame::HealthRequest`]/[`Frame::HealthResponse`] round trip.
    /// Returns `None` when healthy, or the server's description of the
    /// impairment — e.g. a live backend whose background maintenance
    /// halted on a storage fault (still answering queries, degraded).
    pub fn health(&mut self) -> Result<Option<String>, NetError> {
        match self.control(|id| Frame::HealthRequest { id })? {
            Frame::HealthResponse {
                degraded, detail, ..
            } => Ok(degraded.then_some(detail)),
            other => Err(NetError::Protocol(format!(
                "expected HealthResponse, got {other:?}"
            ))),
        }
    }

    /// Tells the server this session is done (it may drain and close).
    pub fn goodbye(mut self) -> Result<(), NetError> {
        self.writer.write_all(&frame_bytes(&Frame::Goodbye))?;
        Ok(())
    }
}
