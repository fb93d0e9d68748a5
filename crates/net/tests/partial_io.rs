//! Partial-delivery robustness at the TCP level: sessions whose bytes
//! arrive one at a time, or split at every possible frame-boundary offset
//! (mid-header, mid-payload, mid-checksum), produce a response stream
//! byte-identical to whole-frame delivery; malformed frames are answered
//! with exactly one clean error frame before the connection closes; and
//! shutdown with many idle connections completes promptly.

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ustr_net::proto::{
    err_code, frame_bytes, read_message, Frame, DEFAULT_MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};
use ustr_net::{NetClient, NetServer, QueryBackend, QueryRequest, ServerConfig, WireTraceContext};
use ustr_service::{QueryService, ServiceConfig};
use ustr_workload::{generate_collection, DatasetConfig};

/// One query worker so pipelined responses come back in request order and
/// the response byte stream is deterministic across deliveries.
fn serve(config: ServerConfig) -> (NetServer, Arc<QueryService>) {
    let docs = generate_collection(&DatasetConfig::new(120, 0.25, 41));
    let service = Arc::new(
        QueryService::build(
            &docs,
            0.1,
            ServiceConfig {
                threads: 1,
                shards: 2,
                cache_capacity: 16,
                epsilon: Some(0.05),
            },
        )
        .unwrap(),
    );
    let server = NetServer::serve(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryBackend>,
        config,
    )
    .unwrap();
    (server, service)
}

fn ordered_server() -> (NetServer, Arc<QueryService>) {
    serve(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
}

/// Hello + each request (ids 0..) + Goodbye, as raw wire bytes. Even ids
/// carry a trace context, odd ids none, so both request shapes get split.
fn session_bytes(requests: &[QueryRequest]) -> Vec<u8> {
    let mut out = frame_bytes(&Frame::Hello {
        magic: NET_MAGIC,
        version: PROTOCOL_VERSION,
    });
    for (id, request) in requests.iter().enumerate() {
        out.extend_from_slice(&frame_bytes(&Frame::Request {
            id: id as u64,
            request: request.clone(),
            trace: (id % 2 == 0).then_some(WireTraceContext {
                trace_hi: 7,
                trace_lo: id as u64,
                parent_span: 3,
                sampled: false,
            }),
        }));
    }
    out.extend_from_slice(&frame_bytes(&Frame::Goodbye));
    out
}

fn sample_requests() -> Vec<QueryRequest> {
    vec![
        QueryRequest::Threshold {
            pattern: b"ab".to_vec(),
            tau: 0.3,
        },
        QueryRequest::TopK {
            pattern: b"ba".to_vec(),
            k: 5,
        },
        QueryRequest::Listing {
            pattern: b"aab".to_vec(),
            tau: 0.2,
        },
    ]
}

/// Writes `pieces` to a fresh connection in order (flushing between them),
/// then reads the server's entire response stream until it closes.
fn deliver(addr: SocketAddr, pieces: &mut dyn Iterator<Item = &[u8]>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for piece in pieces {
        stream.write_all(piece).expect("write piece");
        stream.flush().expect("flush piece");
        std::thread::yield_now();
    }
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read replies");
    reply
}

/// Decodes a raw response stream into frames (errors if any bytes are torn).
fn decode_stream(bytes: &[u8]) -> Vec<Frame> {
    let mut cursor = Cursor::new(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("clean frame") {
        frames.push(frame);
    }
    frames
}

#[test]
fn byte_at_a_time_sessions_match_whole_frame_delivery() {
    let (server, _service) = ordered_server();
    let addr = server.local_addr();
    let bytes = session_bytes(&sample_requests());

    let whole = deliver(addr, &mut std::iter::once(&bytes[..]));
    let frames = decode_stream(&whole);
    assert_eq!(
        frames.len(),
        1 + sample_requests().len(),
        "HelloAck plus one response per request: {frames:?}"
    );
    assert!(matches!(frames[0], Frame::HelloAck { .. }));

    let dribbled = deliver(addr, &mut bytes.chunks(1));
    assert_eq!(
        whole, dribbled,
        "byte-at-a-time delivery changed the response stream"
    );
    server.shutdown();
}

#[test]
fn every_split_point_matches_whole_frame_delivery() {
    let (server, _service) = ordered_server();
    let addr = server.local_addr();
    // One request keeps the session short enough to try *every* cut: each
    // split lands mid-header, mid-payload, or mid-checksum of some frame.
    let bytes = session_bytes(&sample_requests()[..1]);

    let whole = deliver(addr, &mut std::iter::once(&bytes[..]));
    assert!(!whole.is_empty(), "whole-frame session got no replies");
    for cut in 1..bytes.len() {
        let (head, tail) = bytes.split_at(cut);
        let split = deliver(addr, &mut [head, tail].into_iter());
        assert_eq!(whole, split, "split at byte {cut} changed the responses");
    }
    server.shutdown();
}

/// Expects `reply` to be a handshake ack followed by exactly one error
/// frame with `code`, then end-of-stream (the `ack` flag drops the
/// HelloAck expectation for pre-handshake failures).
fn assert_single_error(reply: &[u8], ack: bool, code: u32, what: &str) {
    let frames = decode_stream(reply);
    let mut frames = frames.into_iter();
    if ack {
        assert!(
            matches!(frames.next(), Some(Frame::HelloAck { .. })),
            "{what}: expected HelloAck first"
        );
    }
    match frames.next() {
        Some(Frame::Error { code: got, message }) => {
            assert_eq!(got, code, "{what}: wrong error code ({message})");
            assert!(!message.is_empty(), "{what}: empty error message");
        }
        other => panic!("{what}: expected an error frame, got {other:?}"),
    }
    assert!(
        frames.next().is_none(),
        "{what}: frames after the fatal error"
    );
}

#[test]
fn malformed_frames_yield_one_clean_error_frame() {
    let (server, _service) = ordered_server();
    let addr = server.local_addr();
    let hello = frame_bytes(&Frame::Hello {
        magic: NET_MAGIC,
        version: PROTOCOL_VERSION,
    });

    // A corrupt frame mid-session: flip the last byte (checksum) of a
    // valid request.
    let mut corrupt = hello.clone();
    let mut request = frame_bytes(&Frame::Request {
        id: 7,
        request: sample_requests()[0].clone(),
        trace: None,
    });
    let last = request.len() - 1;
    request[last] ^= 0xff;
    corrupt.extend_from_slice(&request);
    assert_single_error(
        &deliver(addr, &mut std::iter::once(&corrupt[..])),
        true,
        err_code::MALFORMED_FRAME,
        "corrupt checksum",
    );

    // An oversize header is refused from the 4 length bytes alone — the
    // claimed body never arrives, yet the error frame does.
    let mut oversize = hello.clone();
    oversize.extend_from_slice(&(u32::MAX - 8).to_le_bytes());
    oversize.extend_from_slice(&[0u8; 32]);
    assert_single_error(
        &deliver(addr, &mut std::iter::once(&oversize[..])),
        true,
        err_code::MALFORMED_FRAME,
        "oversize header",
    );

    // Garbage instead of a handshake: one error frame, no ack.
    let garbage = frame_bytes(&Frame::Goodbye);
    assert_single_error(
        &deliver(addr, &mut std::iter::once(&garbage[..])),
        false,
        err_code::BAD_HANDSHAKE,
        "handshake garbage",
    );
    server.shutdown();
}

#[test]
fn shutdown_with_many_idle_connections_is_fast() {
    let (server, _service) = serve(ServerConfig {
        threads: 1,
        io_threads: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let clients: Vec<NetClient> = (0..128)
        .map(|i| NetClient::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    assert_eq!(server.active_connections(), 128);

    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown with 128 idle connections took {elapsed:?}"
    );
    drop(clients);
}
