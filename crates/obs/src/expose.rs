//! Metrics and trace exposition over HTTP: a dedicated listener thread
//! routes `GET /metrics` to the current snapshot (Prometheus-style text,
//! or JSON via `Accept: application/json` / `?format=json`) and
//! `GET /traces` to the sampled span trees as Chrome `trace_event` JSON.
//! Zero dependencies — just enough HTTP/1.0 for `curl`, a scraper, or a
//! raw `TcpStream` GET.

use crate::metrics::MetricsSnapshot;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Produces the snapshot served at scrape time. Callers compose layers
/// here (e.g. kernel counters + server registry + backend metrics).
pub type SnapshotFn = Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>;

/// Produces an already-rendered body at scrape time — the `/traces`
/// route's source (typically [`crate::chrome_trace_json`] over
/// [`Tracer::traces`](crate::Tracer::traces)).
pub type TextFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Background exposition endpoint. One listener thread; each request is
/// answered inline (scrapes are rare and the snapshot is cheap).
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Serves snapshots produced by `source`, plus a `/traces` route
    /// answering with `traces()` as Chrome `trace_event` JSON when given.
    pub fn serve_routes(
        addr: impl ToSocketAddrs,
        source: SnapshotFn,
        traces: Option<TextFn>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("ustr-obs-expose".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    // ordering: SeqCst — the poll loop must observe the stop flag in the
                    // same total order as the listener shutdown; once per poll tick.
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = answer(stream, &source, traces.as_ref());
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ordering: SeqCst pairs with the poll loop's load.
            self.shutdown.store(true, Ordering::SeqCst);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn answer(stream: TcpStream, source: &SnapshotFn, traces: Option<&TextFn>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    // Parse the request line for the path, then scan headers for an
    // `Accept: application/json` up to the blank line; tolerate clients
    // that close early.
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let target = request_line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/metrics")
        .to_string();
    let mut accept_json = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("accept:") && lower.contains("application/json") {
            accept_json = true;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let want_json = accept_json || query.split('&').any(|kv| kv == "format=json");
    let (status, content_type, body) = match path {
        "/traces" => match traces {
            Some(render) => ("200 OK", "application/json", render()),
            None => (
                "404 Not Found",
                "text/plain",
                "tracing is not enabled on this endpoint\n".to_string(),
            ),
        },
        "/" | "/metrics" | "/metrics.json" => {
            if want_json || path == "/metrics.json" {
                ("200 OK", "application/json", source().render_json())
            } else {
                (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    source().render_text(),
                )
            }
        }
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no such path: {path}\n"),
        ),
    };
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Performs one HTTP GET for `/metrics` against an exposition endpoint
/// and returns the body. Used by the bench harness and tests so they need
/// no external HTTP client.
pub fn scrape(addr: impl ToSocketAddrs) -> io::Result<String> {
    scrape_path(addr, "/metrics")
}

/// Performs one HTTP GET for an arbitrary `path` (e.g. `/traces`,
/// `/metrics?format=json`) and returns the body.
pub fn scrape_path(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: ustr\r\n\r\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before body",
            ));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "non-200 scrape response: {}",
                head.lines().next().unwrap_or("")
            ),
        ));
    }
    let mut body = String::new();
    io::Read::read_to_string(&mut reader, &mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    /// An endpoint on a free port serving `source`, without `/traces`.
    fn serve(source: SnapshotFn) -> MetricsServer {
        MetricsServer::serve_routes("127.0.0.1:0", source, None).unwrap()
    }

    #[test]
    fn scrape_round_trips_the_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("expose.test").add(7);
        let reg = Arc::new(reg);
        let source: SnapshotFn = {
            let reg = Arc::clone(&reg);
            Arc::new(move || reg.snapshot())
        };
        let server = serve(source);
        let body = scrape(server.local_addr()).unwrap();
        assert!(body.contains("ustr_expose_test 7"));
        // Scrapes are byte-stable while nothing records.
        let again = scrape(server.local_addr()).unwrap();
        assert_eq!(body, again);
        server.shutdown();
    }

    #[test]
    fn json_route_serves_render_json_and_traces_route_serves_chrome_json() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("expose.json").add(3);
        let source: SnapshotFn = {
            let reg = Arc::clone(&reg);
            Arc::new(move || reg.snapshot())
        };
        let tracer = Arc::new(crate::Tracer::with_seed(21));
        tracer.set_sample_permyriad(crate::SAMPLE_SCALE);
        let now = std::time::Instant::now;
        tracer.root_span("request", now()).finish(now());
        let traces: TextFn = Arc::new(move || crate::chrome_trace_json(&tracer.traces()));
        let server = MetricsServer::serve_routes("127.0.0.1:0", source, Some(traces)).unwrap();
        let addr = server.local_addr();
        // Query-string and path-suffix JSON both hit render_json.
        let json = scrape_path(addr, "/metrics?format=json").unwrap();
        assert!(json.contains("\"expose.json\": 3"));
        assert_eq!(json, scrape_path(addr, "/metrics.json").unwrap());
        // Plain /metrics stays Prometheus text.
        let text = scrape(addr).unwrap();
        assert!(text.contains("ustr_expose_json 3"));
        // /traces serves the sampled spans as Chrome trace-event JSON.
        let chrome = scrape_path(addr, "/traces").unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"name\": \"request\""));
        server.shutdown();
    }

    #[test]
    fn accept_header_negotiates_json() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("expose.accept").add(1);
        let source: SnapshotFn = {
            let reg = Arc::clone(&reg);
            Arc::new(move || reg.snapshot())
        };
        let server = serve(source);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            stream,
            "GET /metrics HTTP/1.0\r\nHost: ustr\r\nAccept: application/json\r\n\r\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let mut body = String::new();
        io::Read::read_to_string(&mut BufReader::new(stream), &mut body).unwrap();
        assert!(body.contains("Content-Type: application/json"));
        assert!(body.contains("\"expose.accept\": 1"));
        server.shutdown();
    }

    #[test]
    fn unknown_path_and_missing_traces_route_get_404() {
        let server = serve(Arc::new(MetricsSnapshot::default));
        let addr = server.local_addr();
        assert!(scrape_path(addr, "/nope").is_err());
        assert!(scrape_path(addr, "/traces").is_err());
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let server = serve(Arc::new(MetricsSnapshot::default));
        let addr = server.local_addr();
        server.shutdown();
        // The port is released; a fresh bind on it succeeds (racy in
        // principle, but the address was ours a moment ago).
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok());
    }
}
