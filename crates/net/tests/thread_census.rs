//! The thread census: a served backend runs its own query workers plus the
//! server's event loops, and nothing else. One test in its own binary —
//! the census reads every thread of the process, so no sibling test's pool
//! may be alive beside it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ustr_net::{NetClient, NetServer, QueryBackend, ServerConfig};
use ustr_service::{QueryService, ServiceConfig};
use ustr_uncertain::UncertainString;

/// How many threads of this process carry a name starting with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

#[test]
fn a_server_adds_event_loops_and_no_query_threads() {
    let docs = vec![
        UncertainString::parse("A:.9,B:.1 | B | C | A | B").unwrap(),
        UncertainString::parse("A:.5,B:.5 | B | A:.7,C:.3 | B").unwrap(),
    ];
    let config = ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::build(&docs, 0.05, config).unwrap());
    let server = NetServer::serve(
        "127.0.0.1:0",
        service as Arc<dyn QueryBackend>,
        ServerConfig {
            threads: 4, // accepted and ignored
            io_threads: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.query(b"AB", 0.3).unwrap().unwrap();

    // A thread names itself as it starts, which may trail the spawn that
    // created it: give stragglers a moment before the exact count.
    let census = || {
        (
            threads_named("ustr-service-"),
            threads_named("ustr-net-io-"),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while census() != (2, 1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(census(), (2, 1), "(query workers, event loops)");
    server.shutdown();
}
