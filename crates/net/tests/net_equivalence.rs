//! Server/client equivalence: answers received over TCP are byte-identical
//! to in-process `Engine` answers for all four query modes — from a `.coll`
//! collection snapshot, from a live directory (including while ingest is
//! racing the queries), with both served concurrently to 8+ connections,
//! and whichever thread the server answers on.

use std::sync::Arc;

use ustr_live::{LiveConfig, LiveService};
use ustr_net::proto::{encode_frame, frame_bytes, Frame, NET_MAGIC, PROTOCOL_VERSION};
use ustr_net::{NetClient, NetServer, QueryBackend, QueryRequest, QueryResponse, ServerConfig};
use ustr_service::{QueryService, ServiceConfig};
use ustr_uncertain::UncertainString;
use ustr_workload::{generate_collection, DatasetConfig};

const CONNS: usize = 8;

fn mixed_batch() -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for pattern in [&b"ab"[..], b"ba", b"aab"] {
        out.push(QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau: 0.3,
        });
        out.push(QueryRequest::TopK {
            pattern: pattern.to_vec(),
            k: 5,
        });
        out.push(QueryRequest::Listing {
            pattern: pattern.to_vec(),
            tau: 0.2,
        });
        out.push(QueryRequest::Approx {
            pattern: pattern.to_vec(),
            tau: 0.3,
        });
    }
    out
}

/// Bitwise identity, checked on the wire encoding: two responses are
/// byte-identical when their encoded frames are equal byte for byte (f64s
/// compare as IEEE-754 bit patterns, not approximately).
fn assert_byte_identical(remote: &QueryResponse, local: &QueryResponse, what: &str) {
    let r = encode_frame(&Frame::Response {
        id: 0,
        result: Ok(remote.clone()),
        timings: Vec::new(),
    });
    let l = encode_frame(&Frame::Response {
        id: 0,
        result: Ok(local.clone()),
        timings: Vec::new(),
    });
    assert_eq!(r, l, "{what}: TCP answer is not byte-identical");
}

/// Runs `CONNS` concurrent clients against `addr`, each comparing `rounds`
/// full mixed-mode batches against the in-process reference answers.
fn assert_clients_match(addr: std::net::SocketAddr, reference: &dyn QueryBackend, rounds: usize) {
    let batch = mixed_batch();
    let local: Vec<_> = batch.iter().map(|q| reference.answer(q, None).0).collect();
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let batch = &batch;
            let local = &local;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for round in 0..rounds {
                    let remote = client.query_requests(batch).expect("batch");
                    for (q, (r, l)) in remote.iter().zip(local.iter()).enumerate() {
                        let r = r.as_ref().expect("remote answer");
                        let l = l.as_ref().expect("local answer");
                        assert_eq!(r, l, "conn {conn} round {round} query {q}");
                        assert_byte_identical(
                            r,
                            l,
                            &format!("conn {conn} round {round} query {q}"),
                        );
                    }
                }
                let _ = client.goodbye();
            });
        }
    });
}

#[test]
fn coll_snapshot_over_tcp_matches_in_process_for_all_modes() {
    let docs = generate_collection(&DatasetConfig::new(600, 0.25, 17));
    let built = QueryService::build(
        &docs,
        0.1,
        ServiceConfig {
            threads: 2,
            shards: 3,
            cache_capacity: 32,
            epsilon: Some(0.05),
        },
    )
    .unwrap();
    let path = std::env::temp_dir().join("ustr_net_equiv.coll");
    built.save_collection(&path).unwrap();
    let service = Arc::new(QueryService::load_collection(&path, ServiceConfig::default()).unwrap());
    let server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    assert_clients_match(server.local_addr(), service.as_ref(), 3);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_directory_over_tcp_matches_in_process_under_concurrent_ingest() {
    let dir = std::env::temp_dir().join("ustr_net_equiv_live");
    let _ = std::fs::remove_dir_all(&dir);
    let live = Arc::new(
        LiveService::open(
            &dir,
            LiveConfig {
                threads: 2,
                cache_capacity: 16,
                tau_min: 0.1,
                epsilon: None,
                seal_threshold: 8,
                compact_min_segments: 3,
            },
        )
        .unwrap(),
    );
    let seed_docs = generate_collection(&DatasetConfig::new(200, 0.25, 19));
    for d in &seed_docs {
        live.insert(d.clone()).unwrap();
    }

    let server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&live) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Phase 1 — churn: ingest (and delete) while 8 connections query. Every
    // answer must be a whole, valid response for *some* consistent state;
    // seals and deletes racing the batch must never surface as errors,
    // hangs, or torn answers.
    let churn_docs = generate_collection(&DatasetConfig::new(150, 0.3, 23));
    let ingest_live = Arc::clone(&live);
    let ingest = std::thread::spawn(move || {
        for (i, d) in churn_docs.into_iter().enumerate() {
            let id = ingest_live.insert(d).expect("insert");
            if i % 5 == 4 {
                ingest_live.delete(id).expect("delete");
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
    });
    let batch = mixed_batch();
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            let batch = &batch;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for _ in 0..20 {
                    let remote = client.query_requests(batch).expect("batch under churn");
                    for r in &remote {
                        assert!(r.is_ok(), "churn answers cleanly: {r:?}");
                    }
                }
                let _ = client.goodbye();
            });
        }
    });
    ingest.join().unwrap();
    live.wait_idle().unwrap();

    // Phase 2 — quiesced: TCP answers are byte-identical to in-process
    // dispatch on the settled state.
    assert_clients_match(addr, live.as_ref(), 2);
    server.shutdown();
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coll_and_live_directories_are_served_concurrently() {
    // One process, two servers: a static .coll snapshot and a live
    // directory, each answering 8 concurrent connections at once — the
    // serve-net deployment shape.
    let docs = generate_collection(&DatasetConfig::new(400, 0.25, 29));
    let built = QueryService::build(
        &docs,
        0.1,
        ServiceConfig {
            threads: 2,
            shards: 2,
            cache_capacity: 0,
            epsilon: Some(0.05),
        },
    )
    .unwrap();
    let path = std::env::temp_dir().join("ustr_net_dual.coll");
    built.save_collection(&path).unwrap();
    let coll = Arc::new(QueryService::load_collection(&path, ServiceConfig::default()).unwrap());

    let dir = std::env::temp_dir().join("ustr_net_dual_live");
    let _ = std::fs::remove_dir_all(&dir);
    let live = Arc::new(
        LiveService::open(
            &dir,
            LiveConfig {
                tau_min: 0.1,
                seal_threshold: 16,
                ..LiveConfig::default()
            },
        )
        .unwrap(),
    );
    for line in [
        "a | b:.6,a:.4 | a",
        "b | a | b:.7,c:.3",
        "a:.5,b:.5 | a | b",
    ] {
        live.insert(UncertainString::parse(line).unwrap()).unwrap();
    }
    live.wait_idle().unwrap();

    let coll_server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&coll) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let live_server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&live) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .unwrap();

    std::thread::scope(|scope| {
        let coll_addr = coll_server.local_addr();
        let live_addr = live_server.local_addr();
        let coll = Arc::clone(&coll);
        let live = Arc::clone(&live);
        scope.spawn(move || assert_clients_match(coll_addr, coll.as_ref(), 2));
        scope.spawn(move || assert_clients_match(live_addr, live.as_ref(), 2));
    });

    coll_server.shutdown();
    live_server.shutdown();
    drop(live);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The static service minus its opt-in: a backend that says nothing about
/// inline answers, so the server queues every request on the pool.
struct Declining(Arc<QueryService>);

impl QueryBackend for Declining {
    fn answer(
        &self,
        request: &QueryRequest,
        parent: Option<ustr_obs::TraceContext>,
    ) -> ustr_service::Answer {
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
}

/// One raw session: each request of `batch` in its own round trip, and the
/// response frames exactly as they came off the wire.
fn raw_response_frames(addr: std::net::SocketAddr, batch: &[QueryRequest]) -> Vec<Vec<u8>> {
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    let max = ustr_net::DEFAULT_MAX_FRAME_LEN;
    let mut exchange = |frame: Frame| {
        raw.write_all(&frame_bytes(&frame)).expect("write");
        ustr_store::read_frame(&mut reader, max)
            .expect("read")
            .expect("a reply")
    };
    exchange(Frame::Hello {
        magic: NET_MAGIC,
        version: PROTOCOL_VERSION,
    });
    let request = |(id, request): (usize, &QueryRequest)| Frame::Request {
        id: id as u64,
        request: request.clone(),
        trace: None,
    };
    batch
        .iter()
        .enumerate()
        .map(request)
        .map(exchange)
        .collect()
}

#[test]
fn both_request_paths_put_byte_identical_frames_on_the_wire() {
    // A collection small enough to be measured cheap even unoptimised, no
    // result cache (every request computes), and one service behind both
    // servers: primed in-process, it answers on the event loop where it may
    // and on its pool where the wrapper keeps it off the loop.
    let docs = generate_collection(&DatasetConfig::new(80, 0.25, 31));
    let config = ServiceConfig {
        threads: 2,
        shards: 2,
        cache_capacity: 0,
        epsilon: Some(0.05),
    };
    let service = Arc::new(QueryService::build(&docs, 0.1, config).unwrap());
    let batch = mixed_batch();
    let expected: Vec<Vec<u8>> = service
        .query_requests(&batch)
        .into_iter()
        .enumerate()
        .map(|(id, result)| {
            encode_frame(&Frame::Response {
                id: id as u64,
                result: Ok(result.expect("local answer")),
                timings: Vec::new(),
            })
        })
        .collect();

    let serve = |backend: Arc<dyn QueryBackend>| {
        NetServer::serve("127.0.0.1:0", backend, ServerConfig::default()).unwrap()
    };
    let path_counts = |server: &NetServer| {
        let counters = server.metrics_snapshot().counters;
        (
            counters["net.requests_inline"],
            counters["net.requests_queued"],
        )
    };
    let inline = serve(Arc::clone(&service) as _);
    let queued = serve(Arc::new(Declining(Arc::clone(&service))));
    for round in 0..10 {
        let on_loop = raw_response_frames(inline.local_addr(), &batch);
        let on_pool = raw_response_frames(queued.local_addr(), &batch);
        assert_eq!(on_loop, expected, "round {round}: inline vs in-process");
        assert_eq!(on_pool, expected, "round {round}: queued vs in-process");
    }
    let requests = 10 * batch.len() as u64;
    let (on_loop, on_pool) = path_counts(&inline);
    assert!(on_loop > 0, "nothing was ever answered on the event loop");
    assert_eq!(on_loop + on_pool, requests);
    assert_eq!(path_counts(&queued), (0, requests));
    inline.shutdown();
    queued.shutdown();
}
