//! Client-side resilience: deterministic retry with capped exponential
//! backoff, and a [`ResilientClient`] that survives server restarts by
//! reconnecting and re-issuing only the requests that were never answered.
//!
//! The failure taxonomy follows [`NetError`]: timeouts, socket errors,
//! disconnects, and framing desync (a restart can cut the byte stream
//! mid-frame) are **transient** — drop the connection, back off, retry.
//! Server-reported fatal errors and protocol violations are **permanent**
//! — retrying would repeat them, so they bubble immediately.
//!
//! Backoff is pure arithmetic (`base << attempt`, capped), no jitter and
//! no randomness: two runs with the same failure sequence wait the same
//! total time, which keeps resilience tests deterministic (INVARIANTS §7).

use std::net::ToSocketAddrs;
use std::time::Duration;

use ustr_service::{QueryRequest, QueryResponse};

use crate::client::{ClientConfig, NetClient, NetError};
use crate::proto::RemoteError;

/// How many unanswered requests ride in one wire batch. Progress is kept
/// per chunk: a connection that dies mid-batch loses at most one chunk's
/// answers, and only the still-unanswered chunks are re-issued (with
/// fresh ids) on the next connection.
const RETRY_CHUNK: usize = 32;

/// Deterministic retry schedule: up to `max_attempts` tries, waiting
/// `min(base_backoff << failures, max_backoff)` between them.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries, including the first (min 1).
    pub max_attempts: u32,
    /// Wait before the first retry; doubles per subsequent failure.
    pub base_backoff: Duration,
    /// Ceiling on any single wait.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The wait after `failures` consecutive failures (0-based):
    /// `min(base << failures, max)`, saturating.
    pub fn backoff(&self, failures: u32) -> Duration {
        let factor = 1u32.checked_shl(failures).unwrap_or(u32::MAX);
        let grown = self
            .base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff);
        grown.min(self.max_backoff)
    }
}

/// Counters describing what a [`ResilientClient`] had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient failures that triggered a backoff + retry.
    pub retries: u64,
    /// Successful reconnections after a dropped connection.
    pub reconnects: u64,
    /// Transient failures that were deadline expiries specifically.
    pub timeouts: u64,
}

/// A client wrapper that completes batches across transient failures:
/// connection refused while a server restarts, read deadlines, mid-batch
/// disconnects. Answers already received are kept; each retry reconnects
/// and re-issues only the unanswered requests under fresh ids.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    config: ClientConfig,
    client: Option<NetClient>,
    stats: RetryStats,
}

impl ResilientClient {
    /// Builds a lazy client for `addr` (connected on first use).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy, config: ClientConfig) -> Self {
        Self {
            addr: addr.into(),
            policy,
            config,
            client: None,
            stats: RetryStats::default(),
        }
    }

    /// What this client had to do so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// `true` when `error` is worth a reconnect-and-retry: the connection
    /// (or the server behind it) failed, rather than the request being
    /// wrong.
    fn is_transient(error: &NetError) -> bool {
        matches!(
            error,
            NetError::Io(_) | NetError::Timeout(_) | NetError::Disconnected | NetError::Frame(_)
        )
    }

    fn note_failure(&mut self, error: &NetError) {
        self.stats.retries += 1;
        if matches!(error, NetError::Timeout(_)) {
            self.stats.timeouts += 1;
        }
    }

    /// Returns the live connection, dialing (or re-dialing) when needed.
    fn connected(&mut self) -> Result<&mut NetClient, NetError> {
        if self.client.is_none() {
            let addrs: Vec<std::net::SocketAddr> = self.addr.to_socket_addrs()?.collect();
            let client = NetClient::connect_with_config(addrs.as_slice(), self.config.clone())?;
            let was_reconnect = self.stats.retries > 0;
            if was_reconnect {
                self.stats.reconnects += 1;
            }
            self.client = Some(client);
        }
        self.client
            .as_mut()
            .ok_or_else(|| NetError::Protocol("connection vanished after connect".into()))
    }

    /// Answers a typed batch, retrying transient failures under the
    /// policy. Positionally aligned with `requests`, exactly like
    /// [`NetClient::query_requests`] — and with the same answers a single
    /// uninterrupted connection would have produced, since queries are
    /// read-only and re-issue is keyed on the unanswered slots only.
    #[allow(clippy::type_complexity)]
    pub fn query_requests(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<Result<QueryResponse, RemoteError>>, NetError> {
        let mut slots: Vec<Option<Result<QueryResponse, RemoteError>>> = vec![None; requests.len()];
        self.retrying(|this| this.try_fill(requests, &mut slots))?;
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            out.push(
                slot.ok_or_else(|| NetError::Protocol("a filled batch left an empty slot".into()))?,
            );
        }
        Ok(out)
    }

    /// Runs `attempt` until it succeeds, a permanent error surfaces, or the
    /// policy is exhausted — dropping the connection (it can no longer be
    /// trusted mid-exchange) and backing off between tries.
    fn retrying<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut failures = 0u32;
        loop {
            let error = match attempt(self) {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            self.client = None;
            failures += 1;
            if !Self::is_transient(&error) || failures >= self.policy.max_attempts.max(1) {
                return Err(error);
            }
            self.note_failure(&error);
            std::thread::sleep(self.policy.backoff(failures - 1));
        }
    }

    /// One attempt: connect if needed, then push every unanswered chunk
    /// through the live connection. Slots filled by completed chunks
    /// survive a failure in a later chunk.
    fn try_fill(
        &mut self,
        requests: &[QueryRequest],
        slots: &mut [Option<Result<QueryResponse, RemoteError>>],
    ) -> Result<(), NetError> {
        let unanswered: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none())
            .map(|(i, _)| i)
            .collect();
        for chunk in unanswered.chunks(RETRY_CHUNK) {
            let batch: Vec<QueryRequest> = chunk
                .iter()
                .filter_map(|&i| requests.get(i).cloned())
                .collect();
            let answers = self.connected()?.query_requests(&batch)?;
            for (&index, answer) in chunk.iter().zip(answers) {
                if let Some(slot) = slots.get_mut(index) {
                    *slot = Some(answer);
                }
            }
        }
        Ok(())
    }

    /// One threshold query under the retry policy.
    pub fn query(
        &mut self,
        pattern: &[u8],
        tau: f64,
    ) -> Result<Result<QueryResponse, RemoteError>, NetError> {
        let req = QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        };
        self.query_requests(std::slice::from_ref(&req))?
            .pop()
            .ok_or_else(|| NetError::Protocol("one-request batch yielded no response".into()))
    }

    /// The server's handshake advertisement, dialing if needed (no retry:
    /// callers wanting resilience on first contact should issue a query).
    pub fn server_info(&mut self) -> Result<crate::client::ServerInfo, NetError> {
        Ok(self.connected()?.server_info())
    }

    /// Probes server health, with the same retry behavior as queries.
    pub fn health(&mut self) -> Result<Option<String>, NetError> {
        self.retrying(|this| this.connected()?.health())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(750),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(100));
        assert_eq!(policy.backoff(1), Duration::from_millis(200));
        assert_eq!(policy.backoff(2), Duration::from_millis(400));
        assert_eq!(policy.backoff(3), Duration::from_millis(750), "capped");
        assert_eq!(policy.backoff(63), Duration::from_millis(750));
        // Shift overflow saturates instead of wrapping back to tiny waits.
        assert_eq!(policy.backoff(64), Duration::from_millis(750));
    }

    #[test]
    fn refused_connections_exhaust_the_policy_then_surface() {
        // Nothing listens on this port (bound-then-dropped to claim one).
        let port = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().port()
        };
        let mut client = ResilientClient::new(
            format!("127.0.0.1:{port}"),
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ClientConfig::default(),
        );
        let err = client.query(b"AB", 0.5).expect_err("no server to answer");
        assert!(
            matches!(err, NetError::Io(_) | NetError::Timeout(_)),
            "{err}"
        );
        assert_eq!(client.stats().retries, 2, "two failures were retried");
        assert_eq!(client.stats().reconnects, 0, "no connect ever succeeded");
    }
}
