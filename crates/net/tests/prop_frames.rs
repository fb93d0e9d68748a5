//! Wire-protocol robustness: truncated, corrupted, and oversize frames fed
//! to a **live server** must each end in a clean error frame or a clean
//! disconnect — never a panic, a hang, or a partial answer — and must never
//! poison the server for the next, well-behaved client. (The WAL
//! truncation-fuzz style of `ustr-store/tests/prop_wal.rs`, aimed at a
//! socket instead of a log file.)

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use ustr_net::proto::{
    self, err_code, frame_bytes, Frame, DEFAULT_MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};
use ustr_net::{NetClient, NetServer, QueryRequest, ServerConfig, WireTraceContext};
use ustr_service::{QueryService, ServiceConfig};
use ustr_uncertain::UncertainString;

/// Frame-length cap the fuzz server enforces (small, so oversize cases are
/// cheap to construct).
const MAX_FRAME: usize = 4096;

fn fuzz_server() -> &'static NetServer {
    static SERVER: OnceLock<NetServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let docs = vec![
            UncertainString::parse("A:.9,B:.1 | B | C").unwrap(),
            UncertainString::parse("A:.5,B:.5 | B | C").unwrap(),
        ];
        let service = QueryService::build(
            &docs,
            0.05,
            ServiceConfig {
                threads: 2,
                shards: 2,
                cache_capacity: 8,
                epsilon: None,
            },
        )
        .unwrap();
        NetServer::serve(
            "127.0.0.1:0",
            Arc::new(service),
            ServerConfig {
                threads: 2,
                max_frame_len: MAX_FRAME,
                inflight: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    })
}

/// Writes `bytes` to a fresh connection, half-closes, and reads whatever
/// the server sends until EOF (or a 2-second stall, which would mean a
/// hang). Returns the server's reply frames — panics if the reply stream
/// is not a well-formed frame sequence.
fn raw_session(bytes: &[u8]) -> Vec<Frame> {
    let stream = TcpStream::connect(fuzz_server().local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // The server may close mid-write on malformed input: broken pipes are
    // part of the contract, not a failure.
    let _ = writer.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);

    let mut reply = Vec::new();
    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut chunk = [0u8; 1024];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("server stalled for 2s instead of answering or closing")
            }
            Err(_) => break, // reset by peer: a clean disconnect for us
        }
    }

    // Whatever came back must parse as complete frames: a partial answer
    // on the wire is a protocol bug.
    let mut frames = Vec::new();
    let mut cursor = &reply[..];
    loop {
        match proto::read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => break,
            Err(e) => panic!("server sent a malformed frame: {e}"),
        }
    }
    frames
}

/// Every reply frame a fuzzed session may legally contain.
fn assert_legal_replies(frames: &[Frame]) {
    for frame in frames {
        match frame {
            Frame::HelloAck { version, .. } => assert_eq!(*version, PROTOCOL_VERSION),
            Frame::Response { result, .. } => {
                // A response only ever answers a decoded request; errors
                // inside it are per-query validation failures.
                if let Err(e) = result {
                    assert!(!e.message.is_empty());
                }
            }
            Frame::Error { code, .. } => assert!(
                matches!(
                    *code,
                    err_code::BAD_HANDSHAKE
                        | err_code::UNSUPPORTED_VERSION
                        | err_code::MALFORMED_FRAME
                ),
                "unknown error code {code}"
            ),
            Frame::Goodbye => {}
            other => panic!("server must never send {other:?}"),
        }
    }
}

/// The server still serves a fresh, well-behaved client.
fn assert_server_healthy() {
    let mut client = NetClient::connect(fuzz_server().local_addr()).unwrap();
    let answers = client
        .query_requests(&[QueryRequest::Threshold {
            pattern: b"AB".to_vec(),
            tau: 0.3,
        }])
        .unwrap();
    assert!(answers[0].is_ok(), "healthy client must get an answer");
}

/// A well-formed session prefix: handshake plus `n` valid requests, each
/// carrying a trace context when `traced`.
fn valid_session_bytes(n: usize, traced: bool) -> Vec<u8> {
    let mut bytes = frame_bytes(&Frame::Hello {
        magic: NET_MAGIC,
        version: PROTOCOL_VERSION,
    });
    for id in 0..n as u64 {
        bytes.extend_from_slice(&frame_bytes(&Frame::Request {
            id,
            request: QueryRequest::Threshold {
                pattern: b"AB".to_vec(),
                tau: 0.3,
            },
            trace: traced.then_some(WireTraceContext {
                trace_hi: 1,
                trace_lo: id,
                parent_span: 9,
                sampled: true,
            }),
        }));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary byte blobs: the server answers with well-formed frames (if
    /// anything) and never wedges.
    #[test]
    fn random_garbage_is_answered_or_dropped_cleanly(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let frames = raw_session(&bytes);
        assert_legal_replies(&frames);
        assert_server_healthy();
    }

    /// A valid session truncated at an arbitrary byte boundary: every reply
    /// is a complete HelloAck/Response/Error frame — answered requests are
    /// answered whole, the torn tail is an error or a silent close.
    #[test]
    fn truncated_sessions_never_yield_partial_answers(
        nreq in 1usize..4,
        traced in any::<bool>(),
        cut_seed in 0usize..10_000,
    ) {
        let bytes = valid_session_bytes(nreq, traced);
        let cut = cut_seed % (bytes.len() + 1);
        let frames = raw_session(&bytes[..cut]);
        assert_legal_replies(&frames);
        // Every fully delivered request is answered exactly once, whole.
        let hello_len = frame_bytes(&Frame::Hello {
            magic: NET_MAGIC,
            version: PROTOCOL_VERSION,
        })
        .len();
        if cut >= hello_len {
            prop_assert!(
                matches!(frames.first(), Some(Frame::HelloAck { .. })),
                "complete handshake must be acknowledged: {frames:?}"
            );
            let req_len = (bytes.len() - hello_len) / nreq;
            let delivered = (cut - hello_len) / req_len;
            let answers = frames
                .iter()
                .filter(|f| matches!(f, Frame::Response { .. }))
                .count();
            prop_assert_eq!(answers, delivered, "one whole answer per whole request");
        }
        assert_server_healthy();
    }

    /// A flipped byte anywhere in a valid session: the checksum (or the
    /// decoder) catches it; replies stay well-formed; the server survives.
    #[test]
    fn corrupted_sessions_fail_cleanly(
        nreq in 1usize..4,
        traced in any::<bool>(),
        flip_seed in 0usize..10_000,
        mask in 1u8..255,
    ) {
        let mut bytes = valid_session_bytes(nreq, traced);
        let at = flip_seed % bytes.len();
        bytes[at] ^= mask;
        let frames = raw_session(&bytes);
        assert_legal_replies(&frames);
        assert_server_healthy();
    }
}

#[test]
fn oversize_frames_are_refused_before_the_body_is_read() {
    // As the handshake: a declared length just above the server's cap.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
    let frames = raw_session(&bytes);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Frame::Error { code, .. } if *code == err_code::MALFORMED_FRAME)),
        "oversize handshake frame must be answered with MALFORMED_FRAME: {frames:?}"
    );

    // Mid-session: a healthy handshake, then an oversize request frame.
    let mut bytes = frame_bytes(&Frame::Hello {
        magic: NET_MAGIC,
        version: PROTOCOL_VERSION,
    });
    bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
    let frames = raw_session(&bytes);
    assert!(matches!(frames.first(), Some(Frame::HelloAck { .. })));
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Frame::Error { code, .. } if *code == err_code::MALFORMED_FRAME)),
        "oversize request frame must be answered with MALFORMED_FRAME: {frames:?}"
    );
    assert_server_healthy();
}

#[test]
fn wrong_magic_is_a_bad_handshake() {
    let frames = raw_session(&frame_bytes(&Frame::Hello {
        magic: *b"NOTUSTR!",
        version: PROTOCOL_VERSION,
    }));
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Frame::Error { code, .. } if *code == err_code::BAD_HANDSHAKE)),
        "{frames:?}"
    );
    assert_server_healthy();
}

#[test]
fn out_of_state_frames_mid_session_are_fatal_but_answered() {
    // Handshake, one valid request, then a HelloAck (a frame only servers
    // send): the request is answered, the stray frame is a clean error.
    let mut bytes = valid_session_bytes(1, false);
    bytes.extend_from_slice(&frame_bytes(&Frame::HelloAck {
        version: PROTOCOL_VERSION,
        num_docs: 0,
        tau_min: 0.0,
    }));
    let frames = raw_session(&bytes);
    assert_legal_replies(&frames);
    assert!(frames.iter().any(|f| matches!(f, Frame::Response { .. })));
    assert!(frames
        .iter()
        .any(|f| matches!(f, Frame::Error { code, .. } if *code == err_code::MALFORMED_FRAME)));
    assert_server_healthy();
}
