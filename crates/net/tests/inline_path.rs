//! Run to completion, from the outside: which thread answers a request,
//! what that costs in wakes, and what the event loop is guarded against —
//! a backend that did not opt in, a request measured expensive, a burst
//! larger than one iteration's allowance, a panic while answering.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ustr_net::{
    ClientConfig, NetClient, NetServer, QueryBackend, QueryRequest, QueryResponse, ServerConfig,
};
use ustr_obs::TraceContext;
use ustr_service::{Answer, QueryService, ServiceConfig};
use ustr_uncertain::UncertainString;

/// A request for this pattern panics wherever it is answered.
const BOOM: &[u8] = b"BOOM";

fn pattern(request: &QueryRequest) -> &[u8] {
    let (QueryRequest::Threshold { pattern, .. }
    | QueryRequest::TopK { pattern, .. }
    | QueryRequest::Listing { pattern, .. }
    | QueryRequest::Approx { pattern, .. }) = request;
    pattern
}

/// A `QueryService` behind a wrapper that records the name of the thread
/// each request was answered on, opts in to inline answers or not, and
/// panics for [`BOOM`].
struct Probe {
    inner: QueryService,
    inline: bool,
    ran_on: Mutex<Vec<String>>,
}

impl Probe {
    fn serve(inner: QueryService, inline: bool, config: ServerConfig) -> (Arc<Self>, NetServer) {
        let probe = Arc::new(Self {
            inner,
            inline,
            ran_on: Mutex::new(Vec::new()),
        });
        let config = ServerConfig {
            io_threads: 1,
            ..config
        };
        let server = NetServer::serve("127.0.0.1:0", Arc::clone(&probe) as _, config).unwrap();
        (probe, server)
    }

    /// Records the calling thread as the one that answered `request` —
    /// unless the request is the one that panics instead.
    fn note(&self, request: &QueryRequest) {
        assert!(pattern(request) != BOOM, "injected answer panic");
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("unnamed").to_string();
        self.ran_on.lock().unwrap().push(name);
    }

    /// The thread the latest request was answered on.
    fn last(&self) -> String {
        self.ran_on
            .lock()
            .unwrap()
            .last()
            .cloned()
            .expect("answered")
    }
}

impl QueryBackend for Probe {
    fn answer(&self, request: &QueryRequest, parent: Option<TraceContext>) -> Answer {
        self.note(request);
        self.inner.answer(request, parent)
    }

    fn execute(&self, job: Box<dyn FnOnce() + Send>) {
        self.inner.execute(job);
    }

    fn answer_inline(
        &self,
        request: &QueryRequest,
        parent: Option<TraceContext>,
        spent_us: u64,
    ) -> Option<Answer> {
        if !self.inline {
            return None;
        }
        let answer = self.inner.answer_inline(request, parent, spent_us);
        // Noted — or panicked — right here on the loop thread whenever the
        // engine would answer, and for `BOOM` even when it would not yet.
        if answer.is_some() || pattern(request) == BOOM {
            self.note(request);
        }
        answer
    }

    fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }

    fn tau_min(&self) -> f64 {
        self.inner.tau_min()
    }
}

/// Three tiny documents: a few microseconds of work per request even in a
/// debug build.
fn cheap_service() -> QueryService {
    let docs = vec![
        UncertainString::parse("A:.9,B:.1 | B | C | A | B").unwrap(),
        UncertainString::parse("C | C | C").unwrap(),
        UncertainString::parse("A:.5,B:.5 | B | A:.7,C:.3 | B").unwrap(),
    ];
    let config = ServiceConfig {
        threads: 2,
        shards: 2,
        cache_capacity: 0,
        epsilon: None,
    };
    QueryService::build(&docs, 0.05, config).unwrap()
}

fn threshold(pattern: &[u8]) -> QueryRequest {
    QueryRequest::Threshold {
        pattern: pattern.to_vec(),
        tau: 0.3,
    }
}

fn one(
    client: &mut NetClient,
    request: &QueryRequest,
) -> Result<QueryResponse, ustr_net::RemoteError> {
    let mut answers = client
        .query_requests(std::slice::from_ref(request))
        .expect("the session survives");
    assert_eq!(answers.len(), 1);
    answers.remove(0)
}

/// Round trips until one is answered on the event loop: the estimate is
/// primed by the first, and a preempted sample can hold it up for a few.
fn prime(probe: &Probe, client: &mut NetClient) {
    for _ in 0..500 {
        one(client, &threshold(b"AB")).unwrap();
        if probe.last().starts_with("ustr-net-io-") {
            return;
        }
    }
    panic!("three tiny documents were never measured cheap");
}

fn path_counts(server: &NetServer) -> (u64, u64) {
    let counters = server.metrics_snapshot().counters;
    assert_eq!(
        counters["net.requests"],
        counters["net.requests_inline"] + counters["net.requests_queued"],
        "every request took exactly one of the two paths"
    );
    (
        counters["net.requests_inline"],
        counters["net.requests_queued"],
    )
}

/// The loop's wake count once it has stopped moving: a wake is counted
/// when the loop next polls, which may trail the response it announced.
fn settled_wakeups(server: &NetServer) -> u64 {
    loop {
        let before = server.loop_stats().wakeups;
        std::thread::sleep(Duration::from_millis(2));
        if server.loop_stats().wakeups == before {
            return before;
        }
    }
}

/// Serves `rounds` single requests on one connection and returns how many
/// were answered on the event loop. Those woke nobody: the loop's wakes
/// over the stretch number at most the answers given on a pool worker (at
/// most, because two wakes can coalesce in the waker) — none at all when
/// every answer was given on the loop.
fn where_it_ran(probe: &Probe, client: &mut NetClient, server: &NetServer, rounds: usize) -> usize {
    let request = QueryRequest::Threshold {
        pattern: b"AB".to_vec(),
        tau: 0.5,
    };
    let before = settled_wakeups(server);
    let mut on_loop = 0;
    for _ in 0..rounds {
        one(client, &request).unwrap();
        let thread = probe.last();
        if thread.starts_with("ustr-net-io-") {
            on_loop += 1;
        } else {
            assert!(thread.starts_with("ustr-service-"), "{thread}");
        }
    }
    let woke = settled_wakeups(server) - before;
    let queued = (rounds - on_loop) as u64;
    assert!(woke <= queued, "{woke} wakes for {queued} queued answers");
    assert_eq!(woke == 0, queued == 0, "a queued answer wakes the loop");
    on_loop
}

#[test]
fn a_request_is_answered_where_the_backend_and_its_measurements_say() {
    // Opted in and cheap: the first request meets the collection on the
    // pool, and once that has primed the estimate whole stretches are
    // answered on the loop without a single wake. (A stretch can be
    // interrupted: one preempted sample sends the next few to the pool.)
    let (probe, server) = Probe::serve(cheap_service(), true, ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(where_it_ran(&probe, &mut client, &server, 1), 0);
    let quiet = (0..100).any(|_| where_it_ran(&probe, &mut client, &server, 20) == 20);
    assert!(quiet, "never twenty inline answers in a row");
    let (inline, queued) = path_counts(&server);
    assert!(
        inline >= 20 && queued >= 1,
        "{inline} inline, {queued} queued"
    );
    server.shutdown();

    // Not opted in: the same cheap service, never on the loop.
    let (probe, server) = Probe::serve(cheap_service(), false, ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(where_it_ran(&probe, &mut client, &server, 50), 0);
    assert_eq!(path_counts(&server), (0, 50));
    server.shutdown();

    // Opted in but expensive — one 6 000-position document matched 3 000
    // times: the estimate crosses the line with the first answer and every
    // request stays on the pool.
    let docs = vec![UncertainString::deterministic(&b"AB".repeat(3000))];
    let config = ServiceConfig {
        threads: 2,
        shards: 1,
        cache_capacity: 0,
        epsilon: None,
    };
    let big = QueryService::build(&docs, 0.5, config).unwrap();
    let (probe, server) = Probe::serve(big, true, ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(where_it_ran(&probe, &mut client, &server, 10), 0);
    assert_eq!(path_counts(&server), (0, 10));
    server.shutdown();
}

#[test]
fn a_pipelined_burst_overflows_the_iteration_allowance_to_the_pool() {
    let (probe, server) = Probe::serve(cheap_service(), true, ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let burst: Vec<QueryRequest> = (0..256)
        .map(|i| QueryRequest::TopK {
            pattern: b"AB".to_vec(),
            k: i % 5 + 1,
        })
        .collect();
    // One write of 256 requests: more than one iteration may answer
    // inline, however cheap each is. (Retried, because a preempted sample
    // just before the burst sends all of it to the pool.)
    let overflowed = (0..10).any(|_| {
        prime(&probe, &mut client);
        let (inline_before, queued_before) = path_counts(&server);
        let answers = client.query_requests(&burst).unwrap();
        assert_eq!(answers.len(), burst.len());
        for (request, answer) in burst.iter().zip(&answers) {
            let QueryRequest::TopK { k, .. } = request else {
                unreachable!()
            };
            let QueryResponse::TopK(top) = answer.as_ref().unwrap() else {
                panic!("mode preserved")
            };
            assert_eq!(top.len(), (*k).min(4), "the answer re-aligned to k={k}");
        }
        let (inline, queued) = path_counts(&server);
        assert_eq!(
            (inline - inline_before) + (queued - queued_before),
            burst.len() as u64
        );
        inline > inline_before && queued > queued_before
    });
    assert!(overflowed, "a 256-request burst never took both paths");
    server.shutdown();
}

#[test]
fn an_error_budget_on_a_primed_connection_still_answers_first() {
    let config = ServerConfig {
        error_budget: 2,
        ..ServerConfig::default()
    };
    let (probe, server) = Probe::serve(cheap_service(), true, config);
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    prime(&probe, &mut client);
    // Three failing requests in one write against a budget of two: the
    // second answer spends the budget while the third frame is still
    // unparsed, and all three are answered before the close all the same.
    let answers = client
        .query_requests(&vec![threshold(b""); 3])
        .expect("answers beat the budget close");
    assert_eq!(answers.len(), 3);
    assert!(answers.iter().all(|a| a.is_err()));
    assert!(
        client.query(b"AB", 0.3).is_err(),
        "the budget close ends it"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.loop_stats().budget_closes == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.loop_stats().budget_closes, 1);
    server.shutdown();
}

#[test]
fn a_request_that_panics_is_answered_with_an_error_and_costs_no_thread() {
    for inline in [false, true] {
        let (probe, server) = Probe::serve(cheap_service(), inline, ServerConfig::default());
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect_with_config(server.local_addr(), config).unwrap();
        let lost = one(&mut client, &threshold(BOOM)).expect_err("its answer panicked");
        assert!(lost.message.contains("panicked"), "inline={inline}: {lost}");
        // Same connection, same threads: the slot came back, and neither
        // the worker nor the event loop went with the panic.
        one(&mut client, &threshold(b"AB")).expect("the next request answers");
        assert_eq!(probe.ran_on.lock().unwrap().len(), 1, "the survivor");
        // An opted-in backend's loop is alive *and still answering*.
        if inline {
            prime(&probe, &mut client);
        }
        assert_eq!(client.health().unwrap(), None, "inline={inline}");
        server.shutdown();
    }
}
