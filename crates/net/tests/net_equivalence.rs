//! Server/client equivalence: answers received over TCP are byte-identical
//! to in-process `Engine` answers for all four query modes — from a `.coll`
//! collection snapshot, from a live directory (including while ingest is
//! racing the queries), and with both served concurrently to 8+
//! connections.

use std::sync::Arc;

use ustr_live::{LiveConfig, LiveService};
use ustr_net::proto::{encode_frame, Frame};
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
    let local: Vec<_> = reference
        .answer(&batch, &[])
        .into_iter()
        .map(|(result, _)| result)
        .collect();
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
