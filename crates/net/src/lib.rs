//! `ustr-net` — the network serving layer: every query mode of the paper,
//! over TCP, from a std-only server and client.
//!
//! After `ustr-service` (concurrent in-process dispatch) and `ustr-live`
//! (mutable collections), the remaining gap to the ROADMAP's
//! "heavy traffic from millions of users" was the front door: queries could
//! only enter through an in-process CLI. This crate adds it, reusing every
//! existing layer instead of inventing parallel ones:
//!
//! * **Wire protocol** ([`proto`]) — length-prefixed, FNV-1a-checksummed
//!   frames built on [`ustr_store::wire`]'s framing and payload primitives.
//!   A session opens with a magic + version handshake; requests and
//!   responses are the *same* typed [`QueryRequest`]/[`QueryResponse`]
//!   values the in-process engine dispatches, with `f64` probabilities as
//!   IEEE-754 bit patterns — a decoded response compares equal to the
//!   in-process answer, bit for bit.
//! * **Server** ([`NetServer`]) — a small set of readiness-driven event
//!   loops ([`ustr_poll::Poller`], epoll — Linux/Android only) own
//!   a non-blocking listener and every connection's state machine
//!   (`conn`: handshake → framed read → dispatch → framed write, with
//!   partial-read and partial-write buffers). A query the backend measures
//!   to be cheaper than a thread hand-off is answered on the loop that read
//!   it ([`QueryBackend::answer_inline`] — opt-in, bounded per loop
//!   iteration); every other query runs as a job on the backend's own
//!   [`ustr_service::ThreadPool`] — the server keeps no query threads —
//!   and its response returns through a wakeable queue. The backend is anything
//!   implementing [`QueryBackend`]: a static
//!   [`ustr_service::QueryService`] (built, or loaded from a `.coll`
//!   snapshot) or a mutable [`ustr_live::LiveService`] — both reached
//!   through the same `Engine`/`SegmentSet` dispatch path, so network
//!   answers inherit the determinism contract (parallel ≡ sequential, at
//!   any thread count).
//! * **Client** ([`NetClient`]) — handshakes, pipelines whole batches in
//!   one write, and re-aligns out-of-order responses by request id.
//! * **Telemetry** — every server keeps an instance-scoped
//!   [`ustr_obs::MetricsRegistry`] (connections, frames/bytes in and out,
//!   per-mode round-trip histograms) and answers
//!   [`proto::Frame::StatsRequest`] with its own counters merged with the
//!   backend engine's, rendered as deterministic exposition text or JSON
//!   ([`StatsFormat`]). The stats path touches no counter, so two idle
//!   scrapes are byte-identical.
//! * **Tracing** — a [`proto::Frame::Request`] may carry a client
//!   [`ustr_obs::TraceContext`]: the server engine's root span then
//!   *continues* the client's trace (one distributed span tree across both
//!   processes) and the [`proto::Frame::Response`] reports per-stage server
//!   timings. The answer's bytes are the same either way.
//!   [`NetServer::traces_json`]/[`NetServer::trace_source`] export the
//!   backend's finished traces as Chrome `trace_event` JSON.
//!
//! # Guarantees
//!
//! **Backpressure.** Each connection may have at most
//! [`ServerConfig::inflight`] requests decoded-but-unanswered. At the bound
//! the reader stops consuming bytes, so TCP flow control stalls the client;
//! server memory per connection stays bounded by
//! `inflight × max_frame_len` no matter how hard a client pipelines.
//!
//! **Robustness.** Frame decoding is total: truncated, corrupted, oversize,
//! or out-of-state frames are answered with one fatal error frame
//! ([`proto::err_code`]) and a close — never a panic, never a hang, and
//! never a partial answer (fuzzed in `tests/prop_frames.rs`). Per-query
//! validation failures travel *inside* a response frame as
//! [`RemoteError`]s; the connection stays healthy.
//!
//! **Graceful shutdown.** [`NetServer::shutdown`] stops accepting, stops
//! *reading*, runs every already-accepted request to completion, writes its
//! response, then sends [`proto::Frame::Goodbye`] on each connection and
//! closes it. No accepted query is ever dropped and no new query is
//! admitted after the drain begins — with one bound: a client that stops
//! reading its responses is force-closed after
//! [`ServerConfig::drain_timeout`], because an unbounded drain would let
//! one stalled client wedge shutdown forever.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ustr_net::{NetClient, NetServer, ServerConfig};
//! use ustr_service::{QueryRequest, QueryService, ServiceConfig};
//! use ustr_uncertain::UncertainString;
//!
//! let docs = vec![UncertainString::parse("A:.9,B:.1 | B | C").unwrap()];
//! let service = QueryService::build(&docs, 0.05, ServiceConfig::default()).unwrap();
//! let server = NetServer::serve("127.0.0.1:0", Arc::new(service), ServerConfig::default())?;
//!
//! let mut client = NetClient::connect(server.local_addr())?;
//! let answers = client.query_requests(&[QueryRequest::Threshold {
//!     pattern: b"AB".to_vec(),
//!     tau: 0.5,
//! }])?;
//! assert!(answers[0].is_ok());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Serving paths never panic (INVARIANTS.md §2). The attribute, not a `[lints]`
// table: `tests/*.rs` are not swept in, and `clippy.toml` exempts unit tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing
)]
// Probabilities are computed once, in `ustr-uncertain` (INVARIANTS.md §1).
// `not(test)`: no `clippy.toml` key exempts unit tests from these lints.
#![cfg_attr(not(test), deny(clippy::float_arithmetic, clippy::float_cmp))]

pub mod client;
pub(crate) mod conn;
mod event_loop;
pub mod proto;
pub mod retry;
pub mod server;

pub use client::{ClientConfig, NetClient, NetError, ServerInfo};
pub use event_loop::LoopStatsSnapshot;
pub use proto::{
    Frame, RemoteError, StatsFormat, WireTraceContext, DEFAULT_MAX_FRAME_LEN, NET_MAGIC,
    PROTOCOL_VERSION,
};
pub use retry::{ResilientClient, RetryPolicy, RetryStats};
pub use server::{NetServer, QueryBackend, ServerConfig};

// Re-exported so downstream callers can speak the typed request/response
// vocabulary without a direct ustr-service dependency.
pub use ustr_service::{QueryRequest, QueryResponse};

#[allow(clippy::unreachable)] // clippy.toml has no in-tests switch for this one
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ustr_obs::TraceContext;
    use ustr_service::{Answer, QueryService, ServiceConfig};
    use ustr_uncertain::UncertainString;

    use super::*;

    fn service() -> QueryService {
        let docs = vec![
            UncertainString::parse("A:.9,B:.1 | B | C | A | B").unwrap(),
            UncertainString::parse("C | C | C").unwrap(),
            UncertainString::parse("A:.5,B:.5 | B | A:.7,C:.3 | B").unwrap(),
        ];
        QueryService::build(
            &docs,
            0.05,
            ServiceConfig {
                threads: 2,
                shards: 2,
                cache_capacity: 16,
                epsilon: Some(0.05),
            },
        )
        .unwrap()
    }

    /// A raw client's opening frame, naming `version`.
    fn hello(version: u32) -> Vec<u8> {
        proto::frame_bytes(&Frame::Hello {
            magic: NET_MAGIC,
            version,
        })
    }

    fn serve(backend: Arc<dyn QueryBackend>, config: ServerConfig) -> NetServer {
        NetServer::serve("127.0.0.1:0", backend, config).unwrap()
    }

    fn batch() -> Vec<QueryRequest> {
        vec![
            QueryRequest::Threshold {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
            QueryRequest::TopK {
                pattern: b"AB".to_vec(),
                k: 4,
            },
            QueryRequest::Listing {
                pattern: b"B".to_vec(),
                tau: 0.5,
            },
            QueryRequest::Approx {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
        ]
    }

    #[test]
    fn served_answers_equal_in_process_answers() {
        let service = Arc::new(service());
        let server = serve(Arc::clone(&service) as _, ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.server_info().num_docs, 3);
        assert_eq!(client.server_info().protocol_version, PROTOCOL_VERSION);

        let remote = client.query_requests(&batch()).unwrap();
        let local = service.query_requests(&batch());
        for (r, l) in remote.iter().zip(local.iter()) {
            assert_eq!(r.as_ref().unwrap(), l.as_ref().unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn an_oversized_top_k_frame_is_answered_and_the_session_survives() {
        // `k` crosses the wire unvalidated; it once sized an allocation
        // that aborted the whole server process.
        let service = Arc::new(service());
        let server = serve(Arc::clone(&service) as _, ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let top_k = |k: usize| QueryRequest::TopK {
            pattern: b"AB".to_vec(),
            k,
        };
        let huge = [top_k(1 << 40), top_k(usize::MAX)];
        let remote = client.query_requests(&huge).unwrap();
        let everything = service.query_requests(&[top_k(100)]);
        for answer in &remote {
            assert_eq!(answer.as_ref().unwrap(), everything[0].as_ref().unwrap());
        }
        assert_eq!(client.health().unwrap(), None, "same connection, alive");
        server.shutdown();
    }

    #[test]
    fn validation_errors_ride_inside_responses() {
        let server = serve(Arc::new(service()), ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let answers = client
            .query_requests(&[
                QueryRequest::Threshold {
                    pattern: b"".to_vec(),
                    tau: 0.3,
                },
                QueryRequest::Threshold {
                    pattern: b"AB".to_vec(),
                    tau: 0.3,
                },
            ])
            .unwrap();
        let err = answers[0].as_ref().unwrap_err();
        assert_eq!(err.code, 1, "EmptyPattern travels as code 1: {err}");
        assert!(answers[1].is_ok(), "the connection stays usable");
        server.shutdown();
    }

    #[test]
    fn deep_pipelining_respects_a_tiny_inflight_bound() {
        let server = serve(
            Arc::new(service()),
            ServerConfig {
                inflight: 1,
                threads: 4,
                ..ServerConfig::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        // 64 pipelined requests through a 1-permit window: all answered,
        // positionally aligned.
        let requests: Vec<QueryRequest> = (0..64)
            .map(|i| QueryRequest::TopK {
                pattern: b"AB".to_vec(),
                k: i % 5 + 1,
            })
            .collect();
        let answers = client.query_requests(&requests).unwrap();
        assert_eq!(answers.len(), 64);
        for (req, ans) in requests.iter().zip(answers.iter()) {
            let QueryRequest::TopK { k, .. } = req else {
                unreachable!()
            };
            let QueryResponse::TopK(top) = ans.as_ref().unwrap() else {
                panic!("mode preserved")
            };
            assert!(top.len() <= *k, "aligned answer for k={k}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_and_says_goodbye() {
        let service = Arc::new(service());
        let server = serve(Arc::clone(&service) as _, ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let first = client.query(b"AB", 0.3).unwrap().unwrap();
        server.shutdown();
        // The server stopped reading: the next query cannot complete, and
        // the failure is a clean error, not a hang or a panic.
        let after = client.query(b"AB", 0.3);
        assert!(after.is_err(), "post-shutdown query fails cleanly");
        assert_eq!(first, service.query_requests(&batch()).remove(0).unwrap());
    }

    #[test]
    fn a_non_reading_client_does_not_starve_other_connections() {
        use std::io::Write;
        // One big document so each threshold answer is ~50 KiB: a client
        // that pipelines 30 of those and never reads fills the kernel
        // buffers and stalls its *own* writer thread — the shared query
        // workers must stay free for other connections.
        let docs = vec![UncertainString::deterministic(&b"AB".repeat(3000))];
        let service = QueryService::build(
            &docs,
            0.5,
            ServiceConfig {
                threads: 2,
                shards: 1,
                cache_capacity: 0,
                epsilon: None,
            },
        )
        .unwrap();
        let server = serve(
            Arc::new(service),
            ServerConfig {
                threads: 2,
                drain_timeout: std::time::Duration::from_millis(300),
                ..ServerConfig::default()
            },
        );

        let mut stalled = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stalled.write_all(&hello(PROTOCOL_VERSION)).unwrap();
        for id in 0..30u64 {
            stalled
                .write_all(&proto::frame_bytes(&Frame::Request {
                    id,
                    request: QueryRequest::Threshold {
                        pattern: b"AB".to_vec(),
                        tau: 0.5,
                    },
                    trace: None,
                }))
                .unwrap();
        }
        // Never read: the stalled connection's responses back up.
        std::thread::sleep(std::time::Duration::from_millis(200));

        // A healthy client on another connection still gets answers. (With
        // workers writing responses themselves, both pool workers would be
        // wedged in write_all here and this would hang.)
        let mut healthy = NetClient::connect(server.local_addr()).unwrap();
        let answer = healthy.query(b"AB", 0.5).unwrap().unwrap();
        let QueryResponse::Threshold(hits) = answer else {
            panic!("mode preserved")
        };
        assert_eq!(hits[0].hits.len(), 3000);

        // Shutdown with the stalled client STILL connected and unread: the
        // drain cannot flush its responses, so the drain-timeout
        // force-close must fire and shutdown must return anyway.
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "shutdown must not wedge on a non-reading client"
        );
        drop(stalled);
    }

    #[test]
    fn stats_are_byte_stable_across_idle_scrapes() {
        let server = serve(Arc::new(service()), ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.query_requests(&batch()).unwrap();

        let first = client.stats().unwrap();
        let second = client.stats().unwrap();
        assert_eq!(first, second, "idle scrapes must render identical bytes");

        // A monitoring session on its own fresh connection reads the same
        // bytes too: stats-only connections stay out of every counter,
        // including conns_accepted/conns_open. (The query client stays
        // connected so the gauge state is identical across all scrapes.)
        let mut monitor = NetClient::connect(server.local_addr()).unwrap();
        let third = monitor.stats().unwrap();
        assert_eq!(first, third, "a stats-only connection must be invisible");

        // The scrape carries both layers: server traffic counters and the
        // backend engine's instrumentation.
        assert!(first.contains("ustr_net_requests 4"), "{first}");
        assert!(first.contains("ustr_net_conns_accepted 1"), "{first}");
        assert!(first.contains("ustr_service_requests 4"), "{first}");
        assert!(first.contains("ustr_net_rtt_us_top_k_count 1"), "{first}");
        server.shutdown();
    }

    #[test]
    fn traced_query_over_tcp_yields_the_full_span_tree_and_chrome_json() {
        // The acceptance scenario: 100% sampling, one Threshold query over
        // TCP with a propagated client context. The server engine's span
        // tree must carry the whole request anatomy, the answer must be
        // identical to the untraced one, and both export paths must render
        // valid Chrome trace JSON containing the tree.
        let service = Arc::new(service());
        service.tracer().set_sample_permyriad(10_000);
        let server = serve(Arc::clone(&service) as _, ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.server_info().protocol_version, PROTOCOL_VERSION);

        let ctx = ustr_obs::TraceContext {
            trace_id: 0x00c0_ffee_0000_0000_0000_0000_0000_0042,
            parent_span: 99,
            sampled: true,
        };
        let (answer, timings) = client
            .query_requests_traced(&batch()[..1], &[ctx])
            .unwrap()
            .remove(0);
        let plain = client.query(b"AB", 0.3).unwrap();
        assert_eq!(
            answer.as_ref().unwrap(),
            plain.as_ref().unwrap(),
            "traced and untraced answers are identical"
        );

        // Per-stage server timings ride back on the wire — led, for this
        // first request of a fresh service (never answered on the loop),
        // by its wait in the pool's queue.
        let stage_names: Vec<&str> = timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            stage_names,
            ["queue_wait", "cache_lookup", "fanout", "merge"],
            "{timings:?}"
        );

        // The server-side tree continues the client's trace: same 128-bit
        // id, root parented under the client's span, with the whole
        // anatomy (cache lookup, fanout, per-segment kernel spans, merge).
        let traces = service.tracer().traces();
        let tree = traces
            .iter()
            .find(|t| t.trace_id == ctx.trace_id)
            .expect("the propagated trace was kept");
        let root = tree
            .roots
            .iter()
            .find(|r| r.span.name == "request")
            .expect("request root");
        assert_eq!(root.span.parent_span, 99, "root continues the client span");
        assert!(root.children.iter().any(|c| c.span.name == "cache_lookup"));
        let fanout = root
            .children
            .iter()
            .find(|c| c.span.name == "fanout")
            .expect("fanout span");
        let segments: Vec<_> = fanout
            .children
            .iter()
            .filter(|c| c.span.name == "segment_answer")
            .collect();
        assert!(!segments.is_empty(), "at least one segment span");
        assert!(
            segments
                .iter()
                .any(|s| s.span.attrs.get("candidates").is_some()
                    && s.span.attrs.get("verified").is_some()),
            "segment spans carry kernel attribution"
        );
        assert!(root.children.iter().any(|c| c.span.name == "merge"));
        // Each server stage on the wire is the reading its span was built
        // from: the client's timings and the server's tree agree exactly.
        for (name, us) in &timings[1..] {
            let stage = root.children.iter().find(|c| c.span.name == name);
            let stage = stage.unwrap_or_else(|| panic!("no {name} span"));
            assert_eq!(stage.span.duration_us(), *us, "{name}: {timings:?}");
        }

        // Both export paths render the same valid Chrome trace JSON.
        let via_method = server.traces_json();
        let via_source = (server.trace_source())();
        assert_eq!(via_method, via_source);
        assert!(via_method.starts_with('{') && via_method.trim_end().ends_with('}'));
        assert!(via_method.contains("\"traceEvents\""), "{via_method}");
        for name in [
            "request",
            "cache_lookup",
            "fanout",
            "segment_answer",
            "merge",
        ] {
            assert!(
                via_method.contains(&format!("\"name\": \"{name}\"")),
                "missing {name} in {via_method}"
            );
        }
        assert!(via_method.contains("\"candidates\""), "{via_method}");
        server.shutdown();
    }

    #[test]
    fn traced_and_untraced_exchanges_carry_byte_identical_results() {
        use std::io::Write;
        // Tracing fully on: the untraced reply must still be byte-for-byte
        // the local encoding of the in-process answer with no timings, and
        // the traced reply the same result bytes plus its stage timings.
        let service = Arc::new(service());
        service.tracer().set_sample_permyriad(10_000);
        let server = serve(Arc::clone(&service) as _, ServerConfig::default());
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&hello(PROTOCOL_VERSION)).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let ack = proto::read_message(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(matches!(ack, Some(Frame::HelloAck { .. })), "{ack:?}");

        let request = batch().remove(0);
        let local = service.query_requests(&batch()[..1]).remove(0).unwrap();
        let mut exchange = |id: u64, trace: Option<proto::WireTraceContext>| {
            raw.write_all(&proto::frame_bytes(&Frame::Request {
                id,
                request: request.clone(),
                trace,
            }))
            .unwrap();
            ustr_store::read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap()
        };
        let untraced = exchange(11, None);
        let expected = proto::encode_frame(&Frame::Response {
            id: 11,
            result: Ok(local),
            timings: Vec::new(),
        });
        assert_eq!(untraced, expected, "the untraced reply is byte-identical");

        let traced = exchange(
            11,
            Some(proto::WireTraceContext::from(ustr_obs::TraceContext {
                trace_id: 1,
                parent_span: 2,
                sampled: true,
            })),
        );
        // Same id, same result: the payloads agree up to the timings flag.
        let result_end = untraced.len() - 1;
        assert_eq!(traced[..result_end], untraced[..result_end]);
        let Frame::Response { timings, .. } = proto::decode_frame(&traced).unwrap() else {
            panic!("expected a Response");
        };
        assert!(!timings.is_empty(), "the traced reply reports its stages");
        server.shutdown();
    }

    #[test]
    fn stats_json_round_trips_the_merged_snapshot() {
        let server = serve(Arc::new(service()), ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.query_requests(&batch()).unwrap();

        let json = client.stats_json().unwrap();
        assert!(
            json.starts_with('{') && json.trim_end().ends_with('}'),
            "{json}"
        );
        assert!(json.contains("\"net.requests\": 4"), "{json}");
        assert!(json.contains("\"service.requests\": 4"), "{json}");
        let again = client.stats_json().unwrap();
        assert_eq!(json, again, "idle JSON scrapes are byte-stable");
        server.shutdown();
    }

    #[test]
    fn every_other_protocol_version_is_refused_with_a_clear_error() {
        use std::io::Write;
        let server = serve(Arc::new(service()), ServerConfig::default());
        for version in [1, 2, 3, 4, 999] {
            let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
            raw.write_all(&hello(version)).unwrap();
            let reply = proto::read_message(&mut raw, DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            let Frame::Error { code, message } = reply else {
                panic!("version {version}: expected an error frame, got {reply:?}");
            };
            assert_eq!(code, proto::err_code::UNSUPPORTED_VERSION);
            assert!(
                message.contains(&format!("version {version} ")),
                "{message}"
            );
            assert!(
                message.contains(&format!("version {PROTOCOL_VERSION} only")),
                "the refusal names the supported version: {message}"
            );
            // The refusal closes the connection.
            assert!(proto::read_message(&mut raw, DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .is_none());
        }
        server.shutdown();
    }

    #[test]
    fn a_read_deadline_surfaces_as_a_timeout_error() {
        // A listener that accepts but never answers the handshake: the
        // configured read deadline must fire as the typed Timeout error,
        // not a hang and not a generic Io.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let err = match NetClient::connect_with_config(
            addr,
            ClientConfig {
                read_timeout: Some(std::time::Duration::from_millis(100)),
                ..ClientConfig::default()
            },
        ) {
            Err(err) => err,
            Ok(_) => panic!("no HelloAck ever comes, the connect cannot succeed"),
        };
        assert!(matches!(err, NetError::Timeout(_)), "{err}");
        drop(hold.join());
    }

    #[test]
    fn health_probes_report_backend_degradation() {
        // A static backend is always healthy.
        let server = serve(Arc::new(service()), ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.health().unwrap(), None);
        server.shutdown();

        // A degraded backend's detail rides back verbatim.
        struct Degraded(QueryService);
        impl QueryBackend for Degraded {
            fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
                self.0.answer(request, parent)
            }
            fn execute(&self, job: Box<dyn FnOnce() + Send>) {
                self.0.execute(job);
            }
            fn num_docs(&self) -> usize {
                self.0.num_docs()
            }
            fn tau_min(&self) -> f64 {
                self.0.tau_min()
            }
            fn health(&self) -> Option<String> {
                Some("background maintenance halted: injected fault".into())
            }
        }
        let server = serve(Arc::new(Degraded(service())), ServerConfig::default());
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let detail = client.health().unwrap().expect("degraded");
        assert!(detail.contains("halted"), "{detail}");

        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_after_the_timeout() {
        let server = serve(
            Arc::new(service()),
            ServerConfig {
                idle_timeout: Some(std::time::Duration::from_millis(150)),
                ..ServerConfig::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.query(b"AB", 0.3).unwrap().unwrap();
        // Go quiet past the timeout: the server must close the session.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.active_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert_eq!(server.active_connections(), 0, "the idle session lingers");
        assert_eq!(server.loop_stats().reaped_idle, 1);
        // The HTTP exposition carries the same counters, the TCP one none.
        let exposed = server.metrics_source()();
        assert_eq!(exposed.counters["net.loop.reaped_idle"], 1);
        assert_eq!(exposed.gauges["net.loop.conns_registered"], 0);
        assert!(!server
            .metrics_snapshot()
            .counters
            .contains_key("net.loop.reaped_idle"));
        let after = client.query(b"AB", 0.3);
        assert!(after.is_err(), "the reaped session is gone");
        server.shutdown();
    }

    #[test]
    fn an_error_budget_drains_the_connection_with_answers_first() {
        let server = serve(
            Arc::new(service()),
            ServerConfig {
                error_budget: 2,
                ..ServerConfig::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let bad = QueryRequest::Threshold {
            pattern: b"".to_vec(),
            tau: 0.3,
        };
        // Three failing requests against a budget of two: every answer is
        // still delivered (answer-first), then the connection drains.
        let answers = client
            .query_requests(&vec![bad.clone(); 3])
            .expect("answers beat the budget close");
        assert!(answers.iter().all(|a| a.is_err()));
        let after = client.query(b"AB", 0.3);
        assert!(after.is_err(), "the budget close ends the session");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.loop_stats().budget_closes == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.loop_stats().budget_closes, 1);
        server.shutdown();
    }

    #[test]
    fn a_dead_peer_mid_drain_is_reaped_immediately() {
        use std::io::Write;
        use std::sync::{Condvar, Mutex};
        // A backend whose queries block on a gate: the connection enters
        // shutdown-drain with one in-flight request, then its peer dies.
        // The drain must reap it now — not sit out the 10 s drain window.
        struct Gated {
            inner: QueryService,
            gate: Arc<(Mutex<bool>, Condvar)>,
        }
        impl QueryBackend for Gated {
            fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
                let (lock, cv) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                drop(open);
                self.inner.answer(request, parent)
            }
            fn execute(&self, job: Box<dyn FnOnce() + Send>) {
                self.inner.execute(job);
            }
            fn num_docs(&self) -> usize {
                self.inner.num_docs()
            }
            fn tau_min(&self) -> f64 {
                self.inner.tau_min()
            }
        }
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = serve(
            Arc::new(Gated {
                inner: service(),
                gate: Arc::clone(&gate),
            }),
            ServerConfig {
                threads: 1,
                drain_timeout: std::time::Duration::from_secs(10),
                ..ServerConfig::default()
            },
        );

        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&hello(PROTOCOL_VERSION)).unwrap();
        raw.write_all(&proto::frame_bytes(&Frame::Request {
            id: 0,
            request: QueryRequest::Threshold {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
            trace: None,
        }))
        .unwrap();
        // Let the request dispatch and park on the gate.
        std::thread::sleep(std::time::Duration::from_millis(200));

        let t0 = std::time::Instant::now();
        let shutdown = std::thread::spawn({
            let server = Arc::new(server);
            let server2 = Arc::clone(&server);
            move || {
                server2.shutdown();
                server
            }
        });
        // Give the drain a moment to begin, then kill the peer with its
        // HelloAck unread (an abortive close the monitor-read must see).
        std::thread::sleep(std::time::Duration::from_millis(300));
        drop(raw);
        let server = shutdown.join().expect("shutdown thread");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "shutdown waited out the drain window on a dead peer: {:?}",
            t0.elapsed()
        );
        assert!(
            server.loop_stats().reaped_draining >= 1,
            "the reap was not accounted: {:?}",
            server.loop_stats()
        );
        // Unblock the parked worker so the pool can join on drop.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        drop(server);
    }

    #[test]
    fn a_resilient_client_completes_its_batch_across_a_server_restart() {
        let local = service();
        let control: Vec<QueryResponse> = local
            .query_requests(&batch())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();

        let server1 = serve(Arc::new(service()), ServerConfig::default());
        let addr = server1.local_addr();
        let mut client = ResilientClient::new(
            addr.to_string(),
            RetryPolicy {
                max_attempts: 6,
                base_backoff: std::time::Duration::from_millis(10),
                max_backoff: std::time::Duration::from_millis(100),
            },
            ClientConfig {
                read_timeout: Some(std::time::Duration::from_secs(5)),
                ..ClientConfig::default()
            },
        );
        let before: Vec<QueryResponse> = client
            .query_requests(&batch())
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(before, control);

        // Kill the server and restart on the same port (SO_REUSEADDR).
        server1.shutdown();
        drop(server1);
        let server2 = NetServer::serve(addr, Arc::new(service()), ServerConfig::default())
            .expect("rebinding the drained port");

        // The cached connection is dead: the batch must complete anyway,
        // via reconnect + re-issue, with answers identical to an
        // uninterrupted run.
        let after: Vec<QueryResponse> = client
            .query_requests(&batch())
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(after, control, "retried answers must be identical");
        let stats = client.stats();
        assert!(
            stats.retries >= 1,
            "the dead connection was retried: {stats:?}"
        );
        assert!(stats.reconnects >= 1, "the client reconnected: {stats:?}");
        server2.shutdown();
    }
}
