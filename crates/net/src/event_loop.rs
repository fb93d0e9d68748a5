//! The readiness-driven I/O engine behind [`crate::NetServer`].
//!
//! One small set of event-loop threads drives every connection: each loop
//! owns a [`Poller`], a [`Waker`], and a share of the connections; loop 0
//! additionally owns the (non-blocking) listener and deals new connections
//! round-robin. Sockets are non-blocking and level-triggered — the loop
//! reads what is there, parses with [`FrameReader`], and answers each query
//! one of two ways, both through `respond`. **Run to completion:** the
//! backend is offered the request on this thread
//! ([`QueryBackend::answer_inline`](crate::QueryBackend::answer_inline));
//! when it takes it — it has opted in, it measures such a request to cost
//! less than the hand-off would, and this loop iteration has not already
//! spent its inline allowance — the response goes straight into the
//! connection's write queue and out on the same pass: no other thread is
//! woken, this one included. **Queued:** otherwise the request becomes one
//! job on the backend's pool
//! ([`QueryBackend::execute`](crate::QueryBackend::execute) — the server has
//! no query threads of its own) and its response comes back through a
//! [`WakeQueue`] (the push wakes the poller, so a response never waits for
//! an unrelated readiness event). So a lone cheap request costs no thread
//! wake at all, while a pipelined burst or a crowd of ready connections
//! overflows to the workers instead of serialising on one loop.
//!
//! # Event-thread invariants (see `INVARIANTS.md`)
//!
//! * **No blocking call and no unbounded work on the event thread.** The
//!   only place a loop thread parks is `Poller::wait`. Sockets are
//!   non-blocking from the moment they are accepted; writes go through
//!   [`WriteQueue`] which stops at `WouldBlock`; a query runs here only
//!   when the backend opted in, measures it cheap, and the iteration's
//!   allowance is not spent — everything else runs on the backend's pool.
//!   A panic while answering stops at `respond` and becomes that request's
//!   error result; it never unwinds a loop.
//! * **No guard held across `wait`.** The loop owns its connections
//!   outright (a plain `HashMap`, no locks); the only shared state it
//!   touches — the message queue and the lifecycle table — is locked
//!   briefly and released before the next poll.
//! * **Interest mirrors ability to act.** Read interest is dropped while a
//!   connection's in-flight window is full (backpressure: unread bytes
//!   stay in the kernel and TCP pushes back on the client) and while
//!   draining; write interest exists only while the write queue is
//!   non-empty. A level-triggered poller busy-loops otherwise.

use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ustr_obs::{Counter, Gauge, MetricsRegistry, TraceContext};
use ustr_poll::{Interest, Poller, Waker};
use ustr_service::{mode_name, QueryRequest, WakeQueue};

use crate::conn::{FrameReader, FrameStep, Phase, WriteQueue};
use crate::proto::{err_code, frame_bytes, Frame, RemoteError, NET_MAGIC, PROTOCOL_VERSION};
use crate::server::{stats_answer, Shared};

/// Token for the listening socket (loop 0 only).
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for each loop's waker.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Messages other threads hand an event loop through its [`WakeQueue`].
pub(crate) enum LoopMsg {
    /// A freshly accepted connection this loop should own.
    Conn(TcpStream),
    /// A pool worker finished a query for connection `conn`.
    Done { conn: u64, reply: Reply },
}

/// One request's framed `Response`, as `respond` builds it on either path
/// and [`Conn::deliver`] takes it.
pub(crate) struct Reply {
    bytes: Vec<u8>,
    /// The result is a per-request error (feeds the error budget).
    failed: bool,
    /// What answering and framing took — the `rtt` histogram's sample.
    took_us: u64,
}

/// How a request gets its answer — the one thing the two paths differ in.
enum Path {
    /// On the loop thread, if the backend will;
    /// `spent_us` is the iteration's inline time so far.
    Inline { spent_us: u64 },
    /// On a pool worker, queued at `since`.
    Queued { since: Instant },
}

/// Builds one request's `Response` frame — the one place an answer becomes
/// bytes, whichever thread runs it. `None` only when `Path::Inline` was
/// declined (nothing was computed or recorded). A panic on the way — a bug
/// in an executor, say — stops here and becomes the request's
/// `Error::internal` result in an ordinary frame: the client gets its
/// answer and its in-flight slot back, and the thread (a pool worker, or an
/// event loop with every connection it owns) lives.
fn respond(
    shared: &Shared,
    id: u64,
    request: &QueryRequest,
    parent: Option<TraceContext>,
    path: Path,
) -> Option<Reply> {
    let started = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        let (queue_wait, answer) = match path {
            Path::Inline { spent_us } => (
                None,
                shared.backend.answer_inline(request, parent, spent_us)?,
            ),
            Path::Queued { since } => {
                let waited = u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX);
                (Some(waited), shared.backend.answer(request, parent))
            }
        };
        let (result, summary) = answer;
        let result = result.map_err(|e| RemoteError::from(&e));
        let failed = result.is_err();
        // Per-stage server timings ride back only to a request that
        // carried a trace context (and whose trace was recorded); a queued
        // one leads with how long its job sat in the pool's queue.
        let timings = match summary {
            Some(s) if parent.is_some() => queue_wait
                .map(|us| ("queue_wait", us))
                .into_iter()
                .chain(s.stages)
                .map(|(name, us)| (name.to_string(), us))
                .collect(),
            _ => Vec::new(),
        };
        let frame = Frame::Response {
            id,
            result,
            timings,
        };
        Some((frame_bytes(&frame), failed))
    }));
    let (bytes, failed) = match built {
        Ok(Some(built)) => built,
        Ok(None) => return None,
        Err(_) => {
            let panicked = ustr_core::Error::internal("the request panicked while being answered");
            let frame = Frame::Response {
                id,
                result: Err(RemoteError::from(&panicked)),
                timings: Vec::new(),
            };
            (frame_bytes(&frame), true)
        }
    };
    let took_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.rtt_for(mode_name(request)).record(took_us);
    Some(Reply {
        bytes,
        failed,
        took_us,
    })
}

/// The handle other threads use to reach a loop: push a message, ring the
/// waker. Kept in [`Shared`] so `shutdown` can wake every loop, and so
/// loop 0 can route accepted connections.
pub(crate) struct LoopHandle {
    pub(crate) queue: Arc<WakeQueue<LoopMsg>>,
    pub(crate) waker: Arc<Waker>,
}

/// Event-loop telemetry, shared by all loops of one server: handles into a
/// registry of its own, kept *beside* the server's main one on purpose. A
/// `Stats` scrape over TCP is itself readiness events and wakeups, so
/// folding these counters into the TCP stats answer would break its
/// byte-stability guarantee. They are exposed through
/// [`crate::NetServer::loop_stats`] and merged into the HTTP
/// [`crate::NetServer::metrics_source`] exposition instead.
pub(crate) struct LoopStats {
    pub(crate) registry: MetricsRegistry,
    ready_events: Counter,
    wakeups: Counter,
    conns_registered: Gauge,
    reaped_idle: Counter,
    reaped_draining: Counter,
    budget_closes: Counter,
}

impl LoopStats {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::default();
        Self {
            ready_events: registry.counter("net.loop.ready_events"),
            wakeups: registry.counter("net.loop.wakeups"),
            conns_registered: registry.gauge("net.loop.conns_registered"),
            reaped_idle: registry.counter("net.loop.reaped_idle"),
            reaped_draining: registry.counter("net.loop.reaped_draining"),
            budget_closes: registry.counter("net.loop.budget_closes"),
            registry,
        }
    }

    /// Point-in-time copy of the loop counters.
    pub(crate) fn snapshot(&self) -> LoopStatsSnapshot {
        LoopStatsSnapshot {
            ready_events: self.ready_events.get(),
            wakeups: self.wakeups.get(),
            registered_conns: self.conns_registered.get().max(0) as u64,
            reaped_idle: self.reaped_idle.get(),
            reaped_draining: self.reaped_draining.get(),
            budget_closes: self.budget_closes.get(),
        }
    }
}

/// Point-in-time event-loop counters (see `LoopStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStatsSnapshot {
    /// Readiness events delivered across all loops since start.
    pub ready_events: u64,
    /// Waker firings (response completions, shutdown) across all loops.
    pub wakeups: u64,
    /// Connections currently registered with a poller.
    pub registered_conns: u64,
    /// Connections reaped for exceeding [`crate::ServerConfig::idle_timeout`].
    pub reaped_idle: u64,
    /// Draining connections reaped early because the peer disconnected
    /// (hangup or transport error) before the drain finished.
    pub reaped_draining: u64,
    /// Connections drained for exceeding [`crate::ServerConfig::error_budget`].
    pub budget_closes: u64,
}

/// One connection's full state. Owned by exactly one loop; never locked.
struct Conn {
    /// The poller token — unique per server, never reused, so a stale
    /// readiness event or pool completion for a closed connection can
    /// never be misdelivered to a newer one (fd numbers do get reused;
    /// tokens do not).
    id: u64,
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    phase: Phase,
    /// Requests dispatched (or stats answers queued) whose responses have
    /// not yet fully reached the socket — the backpressure window.
    inflight: usize,
    /// The read half is done: client EOF, client `Goodbye`, or a fatal
    /// protocol error. No more bytes are consumed.
    eof: bool,
    /// The `HelloAck` went out: this session may receive a `Goodbye`.
    handshaken: bool,
    /// Joined the `conns_accepted`/`conns_open` counters (first query).
    counted: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Fatal error frame to send once every accepted request has been
    /// answered and flushed (the answer-first contract).
    fatal: Option<Frame>,
    /// The closing frame (fatal error or `Goodbye`) has been queued; when
    /// the queue next runs dry the connection closes.
    finale_queued: bool,
    /// Last moment the connection made observable progress (bytes read,
    /// or a response frame fully flushed). Drives idle reaping.
    last_activity: Instant,
    /// Failing request results so far (feeds the error budget).
    errors: u32,
    /// Requests of this connection now with the pool. While there are any
    /// the next one is queued too: an inline answer never overtakes a
    /// queued one, so mixing the two paths reorders a connection's
    /// responses no more than the pool alone does (one worker: not at all).
    queued: usize,
}

impl Conn {
    /// Takes one finished response, from either path: queued for the
    /// socket (counted traffic; releases its in-flight slot once fully
    /// written), and a failing result counted against the error budget —
    /// whose verdict `drive` takes, once the frames already buffered have
    /// been answered too.
    fn deliver(&mut self, reply: Reply) {
        self.wq.push(reply.bytes, true, true);
        if reply.failed {
            self.errors = self.errors.saturating_add(1);
        }
    }

    /// Ends the session with a fatal error frame: no more reads, and once
    /// every accepted request has been answered and flushed the frame goes
    /// out and the socket closes.
    fn fail(&mut self, code: u32, message: String) {
        self.fatal = Some(Frame::Error { code, message });
        self.eof = true;
        self.phase = Phase::Draining;
    }
}

/// One readiness loop. `run` consumes it on a dedicated thread.
pub(crate) struct EventLoop {
    index: usize,
    shared: Arc<Shared>,
    poller: Poller,
    waker: Arc<Waker>,
    queue: Arc<WakeQueue<LoopMsg>>,
    /// Loop 0 owns the listener until shutdown or `max_conns`.
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Connections accepted so far (loop 0 only; drives `max_conns`).
    accepted: usize,
    /// Shutdown has been observed; no new work is admitted.
    draining: bool,
    /// Force-close moment for the shutdown drain.
    deadline: Option<Instant>,
    /// Microseconds this iteration of `run` has spent answering inline;
    /// the backend declines further inline answers once it is too many.
    inline_us: u64,
}

impl EventLoop {
    /// Builds one loop. The waker is already registered; the listener (loop
    /// 0 only) is registered here.
    pub(crate) fn new(
        index: usize,
        shared: Arc<Shared>,
        poller: Poller,
        waker: Arc<Waker>,
        queue: Arc<WakeQueue<LoopMsg>>,
        listener: Option<TcpListener>,
    ) -> std::io::Result<Self> {
        poller.register(waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        Ok(Self {
            index,
            shared,
            poller,
            waker,
            queue,
            listener,
            conns: HashMap::new(),
            accepted: 0,
            draining: false,
            deadline: None,
            inline_us: 0,
        })
    }

    /// The loop body: poll, dispatch readiness, drain the message queue,
    /// repeat — until shutdown has been observed and every connection is
    /// gone.
    pub(crate) fn run(mut self) {
        let mut events = Vec::new();
        loop {
            // ordering: SeqCst pairs with the store in shutdown(): once the
            // flag is visible anywhere, no loop admits new work.
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let timeout = match (self.deadline, self.next_idle_expiry()) {
                (Some(d), Some(i)) => Some(d.min(i)),
                (Some(d), None) => Some(d),
                (None, idle) => idle,
            }
            .map(|t| t.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot be waited on again without
                // spinning; force the drain path so the loop terminates.
                if !self.draining {
                    self.begin_drain();
                }
                self.force_close_all();
                continue;
            }
            self.shared.loop_stats.ready_events.add(events.len() as u64);
            self.inline_us = 0;
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(),
                    WAKER_TOKEN => {
                        self.shared.loop_stats.wakeups.inc();
                        self.waker.drain();
                    }
                    id => self.pump(id, ev.readable || ev.hangup, ev.hangup),
                }
            }
            self.drain_queue();
            self.reap_idle();
            if let Some(deadline) = self.deadline {
                if self.draining && Instant::now() >= deadline {
                    self.force_close_all();
                }
            }
        }
    }

    /// The soonest moment any reapable connection crosses the idle
    /// timeout — the poll deadline that makes reaping prompt even on a
    /// silent server. `None` when reaping is off or nothing qualifies.
    fn next_idle_expiry(&self) -> Option<Instant> {
        let idle = self.shared.config.idle_timeout?;
        self.conns
            .values()
            .filter(|c| c.phase != Phase::Draining && c.inflight == 0 && c.wq.is_empty())
            .map(|c| c.last_activity + idle)
            .min()
    }

    /// Closes every connection that has been completely quiet — nothing
    /// read, nothing in flight, nothing queued — past the idle timeout.
    fn reap_idle(&mut self) {
        let Some(idle) = self.shared.config.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .values()
            .filter(|c| {
                c.phase != Phase::Draining
                    && c.inflight == 0
                    && c.wq.is_empty()
                    && now.saturating_duration_since(c.last_activity) >= idle
            })
            .map(|c| c.id)
            .collect();
        for id in expired {
            self.shared.loop_stats.reaped_idle.inc();
            self.close_conn(id);
        }
    }

    /// Takes everything other threads queued: new connections to adopt,
    /// finished responses to enqueue and flush.
    fn drain_queue(&mut self) {
        for msg in self.queue.drain() {
            match msg {
                LoopMsg::Conn(stream) => {
                    if self.draining {
                        // Accepted but never served: shutdown won the race.
                        drop(stream);
                        self.shared.release_active();
                    } else {
                        self.adopt(stream);
                    }
                }
                LoopMsg::Done { conn, reply } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.queued = c.queued.saturating_sub(1);
                        c.deliver(reply);
                        self.pump(conn, false, false);
                    }
                    // A vanished connection's responses are undeliverable
                    // and dropped.
                }
            }
        }
    }

    /// Registers a routed connection with this loop's poller.
    fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.shared.release_active();
            return;
        }
        // ordering: Relaxed — a unique-id counter; ids only need to be
        // distinct, never ordered against other state.
        let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(stream.as_raw_fd(), id, Interest::READ)
            .is_err()
        {
            self.shared.release_active();
            return;
        }
        self.shared.loop_stats.conns_registered.add(1);
        self.conns.insert(
            id,
            Conn {
                id,
                stream,
                reader: FrameReader::default(),
                wq: WriteQueue::default(),
                phase: Phase::Handshake,
                inflight: 0,
                eof: false,
                handshaken: false,
                counted: false,
                interest: Interest::READ,
                fatal: None,
                finale_queued: false,
                last_activity: Instant::now(),
                errors: 0,
                queued: 0,
            },
        );
    }

    /// Accepts until the listener would block, routing connections across
    /// the loops round-robin. Loop 0 only.
    fn accept_burst(&mut self) {
        loop {
            // ordering: SeqCst pairs with the store in shutdown().
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return; // begin_drain (next iteration) retires the listener
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accepted += 1;
                    self.shared.acquire_active();
                    let n = self.shared.loops.len().max(1);
                    let target = (self.accepted - 1) % n;
                    if let Some(handle) = self.shared.loops.get(target) {
                        handle.queue.push(LoopMsg::Conn(stream));
                    } else {
                        // Unreachable (target < n); never leak the slot.
                        drop(stream);
                        self.shared.release_active();
                    }
                    let max = self.shared.config.max_conns;
                    if max > 0 && self.accepted >= max {
                        self.retire_listener();
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Persistent accept failures (EMFILE under fd pressure)
                // leave the listener readable; yield to the poller rather
                // than spin inside the burst.
                Err(_) => return,
            }
        }
    }

    /// Stops accepting for good: deregister, drop, and let `wait()` see
    /// that the accept side is finished.
    fn retire_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.shared.finish_accept();
    }

    /// First reaction to shutdown: retire the listener, close handshake
    /// connections (nothing promised yet), stop reading everywhere, and
    /// start the drain clock.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.deadline = Some(Instant::now() + self.shared.config.drain_timeout);
        if self.index == 0 {
            self.retire_listener();
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let close_now = match self.conns.get_mut(&id) {
                Some(conn) if conn.phase == Phase::Handshake => true,
                Some(conn) => {
                    // Not `eof = true`: the read half stays open as a
                    // *monitor* (bytes are discarded, no new work) so a
                    // peer that disconnects mid-drain is detected and
                    // reaped immediately instead of holding its slot
                    // until the drain deadline.
                    conn.phase = Phase::Draining;
                    false
                }
                None => false,
            };
            if close_now {
                self.close_conn(id);
            } else {
                // Flush what is queued; idle connections reach the finale
                // (Goodbye) immediately and close well inside the deadline.
                self.pump(id, false, false);
            }
        }
    }

    /// Force-closes every remaining connection (drain deadline, or a dead
    /// poller). Undelivered responses are dropped — the bounded-shutdown
    /// contract.
    fn force_close_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    /// Deregisters and drops one connection.
    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.retire(conn);
        }
    }

    /// Drops a connection already taken out of `conns`, balancing every
    /// counter it joined.
    fn retire(&self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.shared.loop_stats.conns_registered.sub(1);
        if conn.counted {
            self.shared.metrics.conns_open.sub(1);
        }
        drop(conn);
        self.shared.release_active();
    }

    /// Drives one connection as far as it can go without blocking: read,
    /// parse, dispatch, flush, finish. `readable` hints that the socket
    /// may have bytes; `hangup` reports a peer that is gone both ways (the
    /// connection closes after this pass — level-triggered pollers would
    /// otherwise report the hangup forever).
    fn pump(&mut self, id: u64, readable: bool, hangup: bool) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        let alive = self.drive(&mut conn, readable);
        if !alive || hangup {
            // A hangup on a still-alive draining connection is an early
            // peer disconnect; `drive` counts the monitor-read variant
            // itself, so only the hangup-while-alive path counts here.
            if alive && hangup && conn.phase == Phase::Draining && !conn.finale_queued {
                self.shared.loop_stats.reaped_draining.inc();
            }
            self.retire(conn);
            return;
        }
        let desired = Interest {
            readable: !conn.eof
                && match conn.phase {
                    Phase::Handshake => true,
                    Phase::Serving => conn.inflight < self.shared.config.inflight.max(1),
                    // Monitor-read: no new work is admitted, but the read
                    // half stays watched so a peer disconnect mid-drain is
                    // seen now, not at the drain deadline.
                    Phase::Draining => true,
                },
            writable: !conn.wq.is_empty(),
        };
        if desired != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), id, desired)
                .is_err()
            {
                self.retire(conn);
                return;
            }
            conn.interest = desired;
        }
        self.conns.insert(id, conn);
    }

    /// The state machine proper. Returns `false` when the connection is
    /// finished (drained, dead, or refused) and must close now.
    fn drive(&mut self, conn: &mut Conn, readable: bool) -> bool {
        let max_inflight = self.shared.config.inflight.max(1);
        let max_frame = self.shared.config.max_frame_len;
        let mut can_read = readable && !conn.eof;
        loop {
            // Read while the backpressure window is open: past it the bytes
            // stay in the kernel and TCP flow control stalls the client, so
            // per-connection memory stays bounded by inflight ×
            // max_frame_len plus one read chunk. While draining, the read
            // half is only a monitor: what the peer still sends is
            // discarded (no new work is admitted), its FIN is noted, and a
            // transport error (the peer is gone; no error frame could
            // reach it) reaps the connection now, not at the drain deadline.
            while can_read && (conn.phase == Phase::Draining || conn.inflight < max_inflight) {
                let mut buf = [0u8; 16 * 1024];
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // FIN: the peer is done talking but may still be
                        // reading its answers — keep draining to it.
                        conn.eof = true;
                        can_read = false;
                    }
                    Ok(n) => {
                        if conn.phase != Phase::Draining {
                            conn.reader.extend(buf.get(..n).unwrap_or_default());
                            conn.last_activity = Instant::now();
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => can_read = false,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        if conn.phase == Phase::Draining && !conn.finale_queued {
                            self.shared.loop_stats.reaped_draining.inc();
                        }
                        return false;
                    }
                }
            }

            // Parse and act on every complete frame the window allows.
            while conn.phase != Phase::Draining && conn.inflight < max_inflight {
                match conn.reader.next(max_frame, conn.eof) {
                    FrameStep::NeedMore => break,
                    FrameStep::Frame { frame, wire_len } => self.on_frame(conn, frame, wire_len),
                    FrameStep::Malformed(e) => {
                        let message = if conn.phase == Phase::Handshake {
                            format!("malformed handshake frame: {e}")
                        } else {
                            format!("malformed frame: {e}")
                        };
                        conn.fail(err_code::MALFORMED_FRAME, message);
                    }
                }
            }

            // The error-budget verdict, taken only here: every frame that
            // was already buffered has by now been answered or dispatched,
            // so a pipelined batch gets all its answers — the failing ones
            // that spent the budget included — before the fatal frame,
            // whichever path answered them.
            let budget = self.shared.config.error_budget;
            if budget > 0
                && conn.errors >= budget
                && conn.phase == Phase::Serving
                && conn.fatal.is_none()
            {
                conn.fail(
                    err_code::ERROR_BUDGET_EXCEEDED,
                    format!("connection exceeded its error budget ({budget} failing requests)"),
                );
                self.shared.loop_stats.budget_closes.inc();
            }

            // A clean end of stream (EOF at a frame boundary, or the
            // client's Goodbye already handled) starts the drain.
            if conn.eof && conn.phase != Phase::Draining && conn.reader.is_empty() {
                conn.phase = Phase::Draining;
            }

            // Flush as much as the socket accepts.
            let completions = match conn.wq.flush(&mut conn.stream) {
                Ok(c) => c,
                Err(()) => return false,
            };
            let mut released = false;
            for done in completions {
                conn.last_activity = Instant::now();
                if done.counted {
                    self.shared.metrics.frames_out.inc();
                    self.shared.metrics.bytes_out.add(done.len as u64);
                }
                if done.releases_slot {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    released = true;
                }
            }

            // Drain finish: every accepted request answered and flushed,
            // then exactly one closing frame, then close. A Goodbye is
            // only owed on a server-initiated drain of a handshaken
            // session.
            if conn.phase == Phase::Draining && conn.inflight == 0 && conn.wq.is_empty() {
                if conn.finale_queued {
                    return false;
                }
                conn.finale_queued = true;
                // ordering: SeqCst pairs with the store in shutdown():
                // only a server-initiated drain says Goodbye.
                let goodbye = conn.handshaken && self.shared.shutdown.load(Ordering::SeqCst);
                match conn.fatal.take() {
                    Some(frame) => conn.wq.push(frame_bytes(&frame), false, false),
                    None if goodbye => conn.wq.push(frame_bytes(&Frame::Goodbye), false, false),
                    None => return false,
                }
                continue; // flush the finale
            }

            // Freed slots may re-open the window over already-buffered
            // bytes (or a still-readable socket): go around again.
            if released && conn.phase != Phase::Draining && (can_read || !conn.reader.is_empty()) {
                continue;
            }
            return true;
        }
    }

    /// Handles one well-formed frame according to the connection's phase:
    /// the protocol's dispatch table.
    fn on_frame(&mut self, conn: &mut Conn, frame: Frame, wire_len: u64) {
        match (conn.phase, frame) {
            (Phase::Handshake, Frame::Hello { magic, version }) if magic == NET_MAGIC => {
                if version != PROTOCOL_VERSION {
                    conn.fail(
                        err_code::UNSUPPORTED_VERSION,
                        format!(
                            "protocol version {version} is not supported (this server \
                             speaks version {PROTOCOL_VERSION} only)"
                        ),
                    );
                    return;
                }
                conn.handshaken = true;
                conn.phase = Phase::Serving;
                conn.wq.push(
                    frame_bytes(&Frame::HelloAck {
                        version,
                        num_docs: self.shared.backend.num_docs() as u64,
                        tau_min: self.shared.backend.tau_min(),
                    }),
                    false,
                    false,
                );
            }
            (Phase::Handshake, _) => {
                conn.fail(
                    err_code::BAD_HANDSHAKE,
                    "the first frame must be Hello with magic USTRNET1".into(),
                );
            }
            (Phase::Serving, Frame::Request { id, request, trace }) => {
                self.note_request(conn, wire_len);
                conn.inflight += 1;
                let parent = trace.map(Into::into);
                let path = Path::Inline {
                    spent_us: self.inline_us,
                };
                let inline = (conn.queued == 0)
                    .then(|| respond(&self.shared, id, &request, parent, path))
                    .flatten();
                match inline {
                    Some(reply) => {
                        self.shared.metrics.requests_inline.inc();
                        // At least 1 µs each, so that even answers too
                        // quick for the clock use the allowance up.
                        self.inline_us += reply.took_us.max(1);
                        conn.deliver(reply);
                    }
                    None => {
                        self.shared.metrics.requests_queued.inc();
                        conn.queued += 1;
                        self.dispatch(conn.id, id, request, parent);
                    }
                }
            }
            (Phase::Serving, Frame::StatsRequest { id, format }) => {
                // Answered inline (a snapshot render, not a query) but
                // still through the in-flight window, so it stays ordered
                // behind the backpressure bound and the drain accounts for
                // it. Deliberately invisible to every counter: two idle
                // scrapes return identical bytes.
                conn.inflight += 1;
                let text = stats_answer(&self.shared, format);
                conn.wq
                    .push(frame_bytes(&Frame::StatsResponse { id, text }), false, true);
            }
            (Phase::Serving, Frame::HealthRequest { id }) => {
                // Answered inline like StatsRequest: a flag read, not a
                // query — and likewise invisible to the traffic counters.
                conn.inflight += 1;
                let health = self.shared.backend.health();
                conn.wq.push(
                    frame_bytes(&Frame::HealthResponse {
                        id,
                        degraded: health.is_some(),
                        detail: health.unwrap_or_default(),
                    }),
                    false,
                    true,
                );
            }
            (Phase::Serving, Frame::Goodbye) => {
                conn.eof = true;
                conn.phase = Phase::Draining;
            }
            (Phase::Serving, _) => {
                conn.fail(
                    err_code::MALFORMED_FRAME,
                    "unexpected frame kind mid-session".into(),
                );
            }
            // Parsing is gated off while draining; nothing reaches here.
            (Phase::Draining, _) => {}
        }
    }

    /// First-query connection accounting plus per-request traffic counters
    /// (query request frames only).
    fn note_request(&self, conn: &mut Conn, wire_len: u64) {
        if !conn.counted {
            conn.counted = true;
            self.shared.metrics.conns_accepted.inc();
            self.shared.metrics.conns_open.add(1);
        }
        self.shared.metrics.frames_in.inc();
        self.shared.metrics.bytes_in.add(wire_len);
        self.shared.metrics.requests.inc();
    }

    /// Queues one query as a job on the backend's pool; the job computes,
    /// frames, and pushes the response back through this loop's queue (the
    /// push rings the waker).
    fn dispatch(&self, conn: u64, id: u64, request: QueryRequest, parent: Option<TraceContext>) {
        let shared = Arc::clone(&self.shared);
        let queue = Arc::clone(&self.queue);
        let since = Instant::now();
        self.shared.backend.execute(Box::new(move || {
            if let Some(reply) = respond(&shared, id, &request, parent, Path::Queued { since }) {
                queue.push(LoopMsg::Done { conn, reply });
            }
        }));
    }
}
