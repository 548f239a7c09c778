//! A tiny blocking HTTP/1.1 client for exercising `netloc-service`.
//!
//! Deliberately minimal (std-only, one request per connection,
//! `Connection: close`) — just enough to drive the analysis server from
//! integration tests and smoke checks without pulling in an HTTP stack.
//! The response keeps raw header lines and body bytes so tests can assert
//! on exact wire content (`Retry-After`, byte-identical JSON bodies).
//!
//! [`RetryPolicy`] adds deterministic resilience on top: `429`/`408`
//! responses (and transient connection failures, e.g. a server mid-
//! restart) are retried with capped exponential backoff whose jitter
//! comes from a seed, honoring the server's `Retry-After` hint when one
//! is present. Tests get the retries real clients would perform, with
//! reproducible timing decisions.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response: status code, header lines, body bytes.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line (200, 429, …).
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order, names as received.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics if it is not — service bodies always
    /// are).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("service responses are UTF-8 JSON")
    }
}

/// `GET path` against the server at `addr`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, b"")
}

/// `POST path` with a JSON body against the server at `addr`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, body.as_bytes())
}

/// `DELETE path` against the server at `addr` (job cancellation).
pub fn delete(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "DELETE", path, b"")
}

/// `POST path` with the body framed as `Transfer-Encoding: chunked`,
/// split into `chunk_size`-byte chunks, so the server never learns the
/// total length up front. Sent through [`send_raw`].
pub fn post_chunked(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    chunk_size: usize,
) -> std::io::Result<HttpResponse> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes();
    for chunk in body.chunks(chunk_size.max(1)) {
        wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        wire.extend_from_slice(chunk);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"0\r\n\r\n");
    send_raw(addr, &wire)
}

/// Send `raw` bytes verbatim on a fresh connection and parse whatever
/// comes back. For malformed-framing tests that need wire-level control
/// (broken chunk sizes, conflicting headers) a well-behaved client
/// would never emit.
///
/// The server may answer before it has read the whole request (a framing
/// error, a `413`, an upload shed by the in-flight cap) and then close
/// the connection, so a failed write is not an error by itself: the
/// answer is read either way.
pub fn send_raw(addr: SocketAddr, raw_request: &[u8]) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let _ = stream.write_all(raw_request);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// How a client retries shed requests: attempt budget, capped
/// exponential backoff, and a seed that makes the jitter reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling on any single wait, including server `Retry-After` hints.
    pub max_delay: Duration,
    /// Seed for the jitter stream; same seed → same waits.
    pub seed: u64,
}

impl RetryPolicy {
    /// A test-friendly default: 6 attempts, 25 ms base, 500 ms cap.
    pub fn deterministic(seed: u64) -> Self {
        RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(500),
            seed,
        }
    }

    /// The wait before retry number `retry` (0-based), honoring the
    /// server's `Retry-After` when present: the hint wins but is still
    /// capped at `max_delay`; otherwise exponential backoff with
    /// seeded jitter in the upper half of the window.
    pub fn delay(&self, retry: u32, retry_after: Option<Duration>) -> Duration {
        if let Some(hint) = retry_after {
            return hint.min(self.max_delay);
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_delay);
        // Jitter in [0.5, 1.0)× the scheduled wait, derived from
        // (seed, retry) so a rerun makes identical timing decisions.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        h = (h ^ u64::from(retry)).wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let frac = 0.5 + (h % 1024) as f64 / 2048.0;
        exp.mul_f64(frac)
    }
}

/// Whether a response should be retried under the policy: the shedding
/// statuses the admission pipeline emits.
fn is_retryable_status(status: u16) -> bool {
    matches!(status, 408 | 429)
}

/// Whether a transport error is worth retrying (peer resetting, server
/// restarting) as opposed to a programming error.
fn is_retryable_io(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Parse a `Retry-After: N` (seconds) header if the response carries one.
fn retry_after_hint(resp: &HttpResponse) -> Option<Duration> {
    resp.header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// `POST` with retries under `policy`. Returns the final response and
/// the number of attempts consumed; the final response may still be a
/// `429`/`408` if the budget ran out — callers assert on it either way.
pub fn post_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(HttpResponse, u32)> {
    request_with_retry(addr, "POST", path, body.as_bytes(), policy)
}

/// `GET` with retries under `policy` (see [`post_with_retry`]).
pub fn get_with_retry(
    addr: SocketAddr,
    path: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(HttpResponse, u32)> {
    request_with_retry(addr, "GET", path, b"", policy)
}

fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    policy: &RetryPolicy,
) -> std::io::Result<(HttpResponse, u32)> {
    let attempts = policy.attempts.max(1);
    let mut retry = 0u32;
    loop {
        let outcome = request(addr, method, path, body);
        let last = retry + 1 >= attempts;
        let wait = match &outcome {
            Ok(resp) if is_retryable_status(resp.status) && !last => {
                policy.delay(retry, retry_after_hint(resp))
            }
            Err(err) if is_retryable_io(err) && !last => policy.delay(retry, None),
            _ => return outcome.map(|resp| (resp, retry + 1)),
        };
        std::thread::sleep(wait);
        retry += 1;
    }
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head =
        std::str::from_utf8(&raw[..header_end]).map_err(|_| bad("non-UTF-8 response headers"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line '{status_line}'")))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: raw[header_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body_str(), "{}");
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn retry_delays_are_deterministic_capped_and_growing() {
        let policy = RetryPolicy::deterministic(42);
        let again = RetryPolicy::deterministic(42);
        for retry in 0..6 {
            assert_eq!(
                policy.delay(retry, None),
                again.delay(retry, None),
                "same seed must give identical waits"
            );
            assert!(policy.delay(retry, None) <= policy.max_delay);
        }
        let other = RetryPolicy::deterministic(43);
        assert_ne!(policy.delay(0, None), other.delay(0, None));
        // Backoff grows (up to the cap) while jitter stays in [0.5, 1.0)×.
        assert!(policy.delay(3, None) > policy.delay(0, None));
    }

    #[test]
    fn retry_after_hint_wins_but_is_capped() {
        let policy = RetryPolicy::deterministic(7);
        let hinted = policy.delay(0, Some(Duration::from_millis(90)));
        assert_eq!(hinted, Duration::from_millis(90));
        let capped = policy.delay(0, Some(Duration::from_secs(3600)));
        assert_eq!(capped, policy.max_delay);
    }
}
