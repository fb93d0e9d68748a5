//! The concurrent TCP server: readiness-driven event loops, per-connection
//! state machines, bounded in-flight backpressure, graceful drain.
//!
//! # Threading model
//!
//! A small fixed set of event-loop threads ([`ServerConfig::io_threads`])
//! drives every connection through a readiness poller
//! ([`ustr_poll::Poller`], epoll — Linux/Android only). Loop 0 owns
//! the non-blocking listener and deals accepted connections across the
//! loops round-robin; each loop owns its connections outright — their
//! partial-read buffers, write queues, and phase machines
//! (`Handshake → Serving → Draining`, see `crate::conn`) — so no
//! per-connection state is ever locked. The server owns no query threads,
//! and a decoded request is answered one of two ways. **On the loop that
//! read it**, when the backend takes it there
//! ([`QueryBackend::answer_inline`]): it must have opted in (the static
//! service does; the live one, whose view takes a lock held across fsyncs,
//! does not), its engine must *measure* a computed request to cost less
//! work than the hand-off would, and the loop must not already have spent
//! that much on inline answers this iteration — then the response goes
//! straight into the connection's write queue and no thread is woken for
//! it at all. **Otherwise as one job on the backend's own pool**
//! ([`QueryBackend::execute`] — for both services the `ustr-service`
//! [`ThreadPool`](ustr_service::ThreadPool) inside their engine), whose
//! shard fan-out lands on the same pool, worked by the job's own thread
//! beside whichever workers are free. So `N` connections pipelining
//! requests share one fixed set of workers — the backend's `threads` —
//! which bounds concurrent requests and per-request parallelism at once,
//! and a burst overflows to them rather than serialising on a loop. A
//! finished job pushes the framed response into the owning loop's wake
//! queue and rings its waker; the loop flushes it on the next pass. On a
//! connection with requests on the pool the next request is queued too, so
//! the two paths together reorder a connection's responses no more than
//! the pool alone does. Pool workers never touch a socket: a slow or
//! non-reading client backs up only its own write queue (bounded by the
//! in-flight window), never a query worker, so one bad client cannot
//! starve the other connections. A panic while answering, on either path,
//! becomes that request's error result (`event_loop::respond`).
//!
//! # Backpressure
//!
//! Every connection has a bounded in-flight window
//! ([`ServerConfig::inflight`]): requests decoded but not yet fully
//! answered *on the wire*. At the bound the loop stops reading and parsing
//! that connection — its unread bytes stay in the kernel and TCP flow
//! control propagates the stall to the client. Memory per connection is
//! therefore bounded by `inflight × max_frame_len` (plus one read chunk)
//! regardless of how aggressively a client pipelines. A slot is released
//! only when its response frame has completely reached the socket.
//!
//! # Shutdown
//!
//! [`NetServer::shutdown`] (also run on drop) is a drain, not an abort:
//! the listener retires, every connection stops *reading* (no new
//! requests), all in-flight queries run to completion and their responses
//! flush, then each handshaken connection receives [`crate::proto::Frame::Goodbye`] and
//! closes. A client that stops reading its responses cannot be drained;
//! after [`ServerConfig::drain_timeout`] its socket is force-closed so
//! shutdown always terminates. With only idle connections the drain is
//! just a Goodbye per socket — shutdown completes in milliseconds even
//! with hundreds of them. `shutdown` returns only after every event loop
//! has exited.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ustr_live::LiveService;
use ustr_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, TraceContext, Tracer};
use ustr_poll::{Poller, Waker};
use ustr_service::{lock_clean, wait_clean, Answer, QueryRequest, QueryService, WakeQueue};

use crate::event_loop::{EventLoop, LoopHandle, LoopMsg, LoopStats, LoopStatsSnapshot};
use crate::proto::{StatsFormat, DEFAULT_MAX_FRAME_LEN};

/// Anything the server can answer queries from: the static
/// [`QueryService`], the mutable [`ustr_live::LiveService`], or any other
/// implementor of the engine's typed dispatch path.
pub trait QueryBackend: Send + Sync {
    /// Answers one request. `parent`, when present, is a propagated client
    /// trace context the request's root span continues. The answer comes
    /// with the request's [`TraceSummary`](ustr_service::TraceSummary) when
    /// the backend recorded its trace; backends without a tracer report
    /// `None`.
    fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer;

    /// Runs `job` on the pool [`QueryBackend::answer`] fans out over. The
    /// server queues here every request job [`QueryBackend::answer_inline`]
    /// declined and keeps no query threads of its own; the job must not run
    /// on the calling (event-loop) thread.
    fn execute(&self, job: Box<dyn FnOnce() + Send>);

    /// Answers one request **on the calling thread — an event loop — or
    /// declines** (`None`: nothing happened; the server queues the request
    /// through [`QueryBackend::execute`]). `spent_us` is what the calling
    /// loop has already spent on inline answers in its current iteration.
    /// A backend opts in only if it can promise what the loop needs: the
    /// call never blocks (no lock that is held across I/O, no wait on
    /// another thread's work) and does a bounded, small amount of work —
    /// it decides that from its own measurements and `spent_us`, and
    /// deciding and answering are this one call so the promise cannot go
    /// stale in between. The same answer as [`QueryBackend::answer`] gives.
    /// The default declines everything: a backend that says nothing is
    /// never run on a loop.
    fn answer_inline(
        &self,
        _request: &QueryRequest,
        _parent: Option<TraceContext>,
        _spent_us: u64,
    ) -> Option<Answer> {
        None
    }

    /// Documents currently served (point-in-time for mutable backends).
    /// The handshake calls it on an event thread, so it must not wait on a
    /// lock a writer holds across I/O.
    fn num_docs(&self) -> usize;

    /// The serving threshold floor advertised in the handshake.
    fn tau_min(&self) -> f64;

    /// Point-in-time engine telemetry, folded into `Stats` answers.
    /// Backends without instrumentation report nothing.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Rendered slow-query lines, worst first, folded into `Stats`
    /// answers. Backends without a slow-query log report nothing.
    fn slow_queries(&self, _n: usize) -> Vec<String> {
        Vec::new()
    }

    /// The backend's tracer, when it has one — lets the server expose
    /// trace export without knowing the concrete backend type.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        None
    }

    /// `None` when fully healthy, or a description of a degraded-but-
    /// serving state (e.g. a live collection whose background maintenance
    /// halted on a storage fault: queries still answer from memory, but
    /// sealing/compaction stopped until recovery). Answers
    /// [`crate::proto::Frame::HealthRequest`]. Static backends are always
    /// healthy.
    fn health(&self) -> Option<String> {
        None
    }
}

/// Both services answer through one `ustr_service::Engine` and name its
/// façade alike, so one body serves both; health, and whether a loop
/// thread may answer, are all that differ.
macro_rules! engine_backend {
    ($service:ty, $health:expr, $inline:expr) => {
        impl QueryBackend for $service {
            fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
                <$service>::answer(self, request, parent)
            }

            fn execute(&self, job: Box<dyn FnOnce() + Send>) {
                <$service>::execute(self, job);
            }

            fn answer_inline(
                &self,
                request: &QueryRequest,
                parent: Option<TraceContext>,
                spent_us: u64,
            ) -> Option<Answer> {
                $inline(self, request, parent, spent_us)
            }

            fn num_docs(&self) -> usize {
                <$service>::num_docs(self)
            }

            fn tau_min(&self) -> f64 {
                <$service>::tau_min(self)
            }

            fn metrics_snapshot(&self) -> MetricsSnapshot {
                <$service>::metrics_snapshot(self)
            }

            fn slow_queries(&self, n: usize) -> Vec<String> {
                let worst = self.slow_log().worst(n);
                worst.iter().map(|e| e.render()).collect()
            }

            fn tracer(&self) -> Option<Arc<Tracer>> {
                Some(Arc::clone(<$service>::tracer(self)))
            }

            fn health(&self) -> Option<String> {
                $health(self)
            }
        }
    };
}

engine_backend!(
    QueryService,
    |_: &QueryService| None,
    QueryService::answer_inline
);
// Never inline: building a live view takes the state lock, which `insert`
// holds across a WAL fsync — a loop thread must not queue up behind a disk.
engine_backend!(
    LiveService,
    LiveService::background_health,
    |_: &LiveService, _: &QueryRequest, _: Option<TraceContext>, _: u64| None
);

/// Per-server-instance telemetry. Instance-scoped so that parallel servers
/// in one process — the test suite, or a benchmark harness — never bleed
/// into each other's `Stats` answers.
pub(crate) struct NetMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) conns_accepted: Counter,
    pub(crate) conns_open: Gauge,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) requests: Counter,
    /// The two paths a request can take; they sum to `requests`.
    pub(crate) requests_inline: Counter,
    pub(crate) requests_queued: Counter,
    rtt_threshold: Histogram,
    rtt_top_k: Histogram,
    rtt_listing: Histogram,
    rtt_approx: Histogram,
}

impl NetMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::default();
        Self {
            conns_accepted: registry.counter("net.conns_accepted"),
            conns_open: registry.gauge("net.conns_open"),
            frames_in: registry.counter("net.frames_in"),
            frames_out: registry.counter("net.frames_out"),
            bytes_in: registry.counter("net.bytes_in"),
            bytes_out: registry.counter("net.bytes_out"),
            requests: registry.counter("net.requests"),
            requests_inline: registry.counter("net.requests_inline"),
            requests_queued: registry.counter("net.requests_queued"),
            rtt_threshold: registry.histogram("net.rtt_us.threshold"),
            rtt_top_k: registry.histogram("net.rtt_us.top_k"),
            rtt_listing: registry.histogram("net.rtt_us.listing"),
            rtt_approx: registry.histogram("net.rtt_us.approx"),
            registry,
        }
    }

    pub(crate) fn rtt_for(&self, mode: &str) -> &Histogram {
        match mode {
            "threshold" => &self.rtt_threshold,
            "top_k" => &self.rtt_top_k,
            "listing" => &self.rtt_listing,
            _ => &self.rtt_approx,
        }
    }
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accepted and ignored: queries run on the backend's pool
    /// ([`QueryBackend::execute`]), sized by the backend's own `threads`.
    /// Kept only because `benchmark/src/serve.rs` names it; removal is
    /// queued in ROADMAP item 1A(e).
    pub threads: usize,
    /// Event-loop (I/O) threads driving connection readiness. Each loop
    /// owns a share of the connections; loop 0 also owns the listener.
    /// `0` picks a small automatic count from the available cores — I/O
    /// readiness is cheap, so a handful of loops drives hundreds of
    /// connections.
    pub io_threads: usize,
    /// Cap on one frame's payload length; larger frames are answered with a
    /// fatal error frame before the body is read.
    pub max_frame_len: usize,
    /// Per-connection bound on pipelined requests being computed or awaiting
    /// write (min 1). The loop stops reading that connection at the bound,
    /// so TCP flow control pushes back on the client.
    pub inflight: usize,
    /// When non-zero, stop accepting after this many connections (the
    /// already-accepted ones are served to completion). `0` accepts until
    /// [`NetServer::shutdown`].
    pub max_conns: usize,
    /// How long [`NetServer::shutdown`] waits for the graceful drain
    /// (in-flight responses flushing to clients) before force-closing the
    /// stragglers' sockets — without this bound, one client that stops
    /// reading its responses would wedge shutdown forever.
    pub drain_timeout: std::time::Duration,
    /// Reap a connection that has been completely quiet — no reads, no
    /// in-flight work, nothing queued to write — for this long. `None`
    /// (the default) never reaps: idle sessions are held open indefinitely.
    pub idle_timeout: Option<std::time::Duration>,
    /// Per-connection budget of *failing* requests. Once a connection has
    /// produced this many error results it is drained with a fatal
    /// [`crate::proto::err_code::ERROR_BUDGET_EXCEEDED`] frame — after its
    /// pending answers are delivered (the answer-first contract). `0`
    /// (the default) disables the budget.
    pub error_budget: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            io_threads: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            inflight: 64,
            max_conns: 0,
            drain_timeout: std::time::Duration::from_secs(5),
            idle_timeout: None,
            error_budget: 0,
        }
    }
}

/// What `wait`/`shutdown` block on: connections still alive anywhere, and
/// whether the accept side has permanently stopped.
#[derive(Default)]
pub(crate) struct Lifecycle {
    /// Accepted connections not yet closed (spans routing and serving).
    pub(crate) active: usize,
    /// The listener has retired (shutdown, or `max_conns` reached).
    pub(crate) accept_done: bool,
}

/// State shared by the event loops and the server handle.
pub(crate) struct Shared {
    pub(crate) backend: Arc<dyn QueryBackend>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) lifecycle: Mutex<Lifecycle>,
    pub(crate) lifecycle_changed: Condvar,
    pub(crate) next_conn: AtomicU64,
    pub(crate) metrics: NetMetrics,
    pub(crate) loop_stats: LoopStats,
    pub(crate) loops: Vec<LoopHandle>,
}

impl Shared {
    /// One more accepted connection is alive (counted at accept time, so a
    /// connection in transit between loops is never invisible to `wait`).
    pub(crate) fn acquire_active(&self) {
        lock_clean(&self.lifecycle).active += 1;
    }

    /// One connection fully closed.
    pub(crate) fn release_active(&self) {
        {
            let mut l = lock_clean(&self.lifecycle);
            l.active = l.active.saturating_sub(1);
        }
        self.lifecycle_changed.notify_all();
    }

    /// The accept side has permanently stopped.
    pub(crate) fn finish_accept(&self) {
        {
            lock_clean(&self.lifecycle).accept_done = true;
        }
        self.lifecycle_changed.notify_all();
    }
}

/// A running TCP query server. See the [module docs](self) for the
/// threading, backpressure, and shutdown guarantees.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Mutex<Vec<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back with
    /// [`NetServer::local_addr`]) and starts serving `backend`.
    pub fn serve(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn QueryBackend>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let io_threads = if config.io_threads > 0 {
            config.io_threads
        } else {
            // Readiness dispatch is cheap: one loop drives hundreds of
            // connections, so even large machines want only a few.
            std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).clamp(1, 4))
        };

        // Build each loop's poller/waker/queue first so every loop (and
        // `shutdown`) can reach every other loop through `Shared.loops`.
        let mut parts = Vec::with_capacity(io_threads);
        let mut handles = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            let queue = Arc::new(WakeQueue::new({
                let waker = Arc::clone(&waker);
                move || waker.wake()
            }));
            handles.push(LoopHandle {
                queue: Arc::clone(&queue),
                waker: Arc::clone(&waker),
            });
            parts.push((poller, waker, queue));
        }

        let shared = Arc::new(Shared {
            backend,
            config,
            shutdown: AtomicBool::new(false),
            lifecycle: Mutex::new(Lifecycle::default()),
            lifecycle_changed: Condvar::new(),
            next_conn: AtomicU64::new(0),
            metrics: NetMetrics::new(),
            loop_stats: LoopStats::new(),
            loops: handles,
        });

        let mut join = Vec::with_capacity(io_threads);
        let mut listener = Some(listener);
        for (index, (poller, waker, queue)) in parts.into_iter().enumerate() {
            let built = EventLoop::new(
                index,
                Arc::clone(&shared),
                poller,
                waker,
                queue,
                if index == 0 { listener.take() } else { None },
            );
            let spawned = built.and_then(|event_loop| {
                std::thread::Builder::new()
                    .name(format!("ustr-net-io-{index}"))
                    .spawn(move || event_loop.run())
            });
            match spawned {
                Ok(handle) => join.push(handle),
                Err(e) => {
                    // Unwind the loops already running before reporting.
                    // ordering: SeqCst — the shutdown edge (see shutdown()).
                    shared.shutdown.store(true, Ordering::SeqCst);
                    for h in &shared.loops {
                        h.waker.wake();
                    }
                    for handle in join {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            addr,
            shared,
            loops: Mutex::new(join),
        })
    }

    /// The bound address (the real port, when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time server telemetry: connection and traffic counters
    /// plus the per-mode round-trip histograms. Server-instance scope only
    /// — fold in [`QueryBackend::metrics_snapshot`] for the full picture.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Point-in-time event-loop counters: readiness events delivered,
    /// waker firings, connections registered with the pollers. Kept out of
    /// the TCP `Stats` answers on purpose (a scrape over TCP is itself
    /// readiness events, so counting it there would break the answers'
    /// byte-stability); the HTTP [`NetServer::metrics_source`] exposition
    /// carries them as `net.loop.*`.
    pub fn loop_stats(&self) -> LoopStatsSnapshot {
        self.shared.loop_stats.snapshot()
    }

    /// An owning snapshot source (server + backend metrics merged, plus
    /// the `net.loop.*` event-loop counters) for wiring into an exposition
    /// endpoint that must outlive any borrow of the server — e.g.
    /// `ustr_obs::MetricsServer::serve_routes`.
    pub fn metrics_source(&self) -> impl Fn() -> MetricsSnapshot + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || {
            let mut snap = shared.metrics.registry.snapshot();
            snap.merge(&shared.backend.metrics_snapshot());
            snap.merge(&shared.loop_stats.registry.snapshot());
            snap
        }
    }

    /// The backend's finished traces rendered as Chrome `trace_event`
    /// JSON (an empty but valid document when the backend is untraced or
    /// nothing has been sampled).
    pub fn traces_json(&self) -> String {
        traces_json(&self.shared)
    }

    /// An owning trace source for wiring into an exposition endpoint's
    /// `/traces` route (e.g. `ustr_obs::MetricsServer::serve_routes`).
    pub fn trace_source(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || traces_json(&shared)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        lock_clean(&self.shared.lifecycle).active
    }

    /// Blocks until accepting has stopped (shutdown requested, or
    /// [`ServerConfig::max_conns`] reached) **and** every accepted
    /// connection has fully drained. A `max_conns` server is "served to
    /// completion" when this returns.
    pub fn wait(&self) {
        let mut lifecycle = lock_clean(&self.shared.lifecycle);
        while !(lifecycle.accept_done && lifecycle.active == 0) {
            lifecycle = wait_clean(&self.shared.lifecycle_changed, lifecycle);
        }
    }

    /// Graceful shutdown: stop accepting, stop *reading* (no connection
    /// admits another request), let every in-flight query finish and its
    /// response flush, send [`crate::proto::Frame::Goodbye`], close. A connection whose
    /// client stops reading its responses cannot flush; after
    /// [`ServerConfig::drain_timeout`] such stragglers have their sockets
    /// force-closed (their remaining responses are dropped — the
    /// alternative is a shutdown that never returns). Returns when every
    /// event loop has exited. Idempotent.
    pub fn shutdown(&self) {
        // ordering: SeqCst — shutdown is a once-per-server edge whose flag
        // and waker signals must appear in one total order to every loop;
        // contention is irrelevant here.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for handle in &self.shared.loops {
            handle.waker.wake();
        }
        let joinable = {
            let mut guard = lock_clean(&self.loops);
            std::mem::take(&mut *guard)
        };
        for handle in joinable {
            let _ = handle.join();
        }
        // Final sweep: a connection routed in the same instant its target
        // loop exited would otherwise leak its lifecycle slot. All loops
        // are gone, so draining here races with nothing.
        for handle in &self.shared.loops {
            for msg in handle.queue.drain() {
                if let LoopMsg::Conn(stream) = msg {
                    drop(stream);
                    self.shared.release_active();
                }
            }
        }
        self.shared.finish_accept();
        self.wait();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How many slow-query lines a `Stats` answer carries at most.
const STATS_SLOW_QUERIES: usize = 8;

/// Renders a `StatsRequest` answer: server + backend telemetry merged into
/// one snapshot, as JSON or as exposition text followed by slow-query lines
/// as comments (a text-exposition affordance that stays out of the JSON).
/// Every source is instance-scoped and the stats path itself counts
/// nothing, so equal state renders to equal bytes. (The `net.loop.*`
/// counters stay out for the same reason: a TCP scrape is itself readiness
/// events.)
pub(crate) fn stats_answer(shared: &Shared, format: StatsFormat) -> String {
    let mut snap = shared.metrics.registry.snapshot();
    snap.merge(&shared.backend.metrics_snapshot());
    if format == StatsFormat::Json {
        return snap.render_json();
    }
    let mut text = snap.render_text();
    let slow = shared.backend.slow_queries(STATS_SLOW_QUERIES);
    if !slow.is_empty() {
        text.push_str("# slow queries (worst first)\n");
        for line in slow {
            text.push_str("# ");
            text.push_str(&line);
            text.push('\n');
        }
    }
    text
}

/// Renders the backend's finished traces as Chrome `trace_event` JSON.
/// Untraced backends render the empty (still valid) document.
fn traces_json(shared: &Shared) -> String {
    let traces = shared.backend.tracer().map(|t| t.traces());
    ustr_obs::chrome_trace_json(&traces.unwrap_or_default())
}
