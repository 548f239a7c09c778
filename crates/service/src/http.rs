//! Minimal HTTP/1.1 framing over blocking sockets.
//!
//! The server speaks just enough HTTP for JSON request/response tooling:
//! one request per connection (`Connection: close`), `Content-Length` or
//! `Transfer-Encoding: chunked` bodies, no keep-alive. Both directions are
//! capped — headers at [`MAX_HEADER_BYTES`], bodies at the server's
//! configured limit — so a hostile peer cannot make a worker buffer
//! unbounded input.
//!
//! [`read_request`] is the one framing entry: it reads the request line
//! and headers, then decodes either framing into one body `Vec`, so every
//! endpoint sees the same [`Request`] however the client framed it. An
//! HTTP/1.1 request that sends `Expect: 100-continue` gets its
//! `100 Continue` right before the first body read, after the body has
//! passed the size and in-flight checks, so a refused body costs the
//! client no upload (RFC 9110 §10.1.1).
//!
//! Admission hardening lives at this layer too, because this is where a
//! worker thread first touches untrusted I/O:
//!
//! * [`prepare_stream`] arms `SO_RCVTIMEO`/`SO_SNDTIMEO` on every
//!   accepted socket, so a dead peer can block a single `read`/`write`
//!   for at most the configured timeout instead of forever;
//! * [`RequestLimits::progress_deadline`] bounds the *total* time a
//!   request may take to arrive. Per-call socket timeouts alone do not
//!   stop a slow-loris client that drips one byte per interval — each
//!   drip resets the kernel timer — so `read_request` also checks a
//!   wall-clock deadline across the whole header + body and sheds the
//!   connection with `408 Request Timeout`;
//! * [`InflightBytes`] accounts every body byte the worker pool has
//!   buffered at once. A `Content-Length` that would push the total over
//!   the cap is answered `429` + `Retry-After` *before* any buffering; a
//!   chunked body, whose size is unknown up front, grows its reservation
//!   as it arrives and is shed the same way once it would cross the cap.
//!   Concurrent large uploads degrade into visible backpressure instead
//!   of an OOM kill.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Header-section ceiling (request line + headers). Analysis requests
/// carry everything interesting in the body; 16 KiB of headers is already
/// generous.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Arm the per-call socket timeouts (`SO_RCVTIMEO` / `SO_SNDTIMEO`) on an
/// accepted connection. Every accepted socket must pass through here
/// before a worker reads from it — a socket without these timeouts parks
/// a worker thread indefinitely the moment its peer dies silently.
pub fn prepare_stream(stream: &TcpStream, io_timeout: Duration) {
    let t = if io_timeout.is_zero() {
        None
    } else {
        Some(io_timeout)
    };
    let _ = stream.set_read_timeout(t);
    let _ = stream.set_write_timeout(t);
}

/// Shared accounting of request-body bytes currently buffered by the
/// worker pool. See the module docs; reservations are RAII
/// ([`InflightGuard`]) so a panicking handler still releases its bytes.
pub struct InflightBytes {
    limit: usize,
    current: AtomicUsize,
    shed: AtomicU64,
}

impl InflightBytes {
    /// A pool admitting at most `limit` concurrently buffered body bytes.
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(InflightBytes {
            limit: limit.max(1),
            current: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
        })
    }

    /// Reserve `bytes` against the cap, or count a shed and refuse.
    pub fn try_reserve(self: &Arc<Self>, bytes: usize) -> Option<InflightGuard> {
        self.reserve_raw(bytes).then(|| InflightGuard {
            pool: Arc::clone(self),
            bytes,
        })
    }

    /// CAS-reserve `bytes`; counts a shed and returns `false` when the cap
    /// would be exceeded. Shared by [`InflightBytes::try_reserve`] and
    /// [`InflightGuard::grow`].
    fn reserve_raw(&self, bytes: usize) -> bool {
        let mut current = self.current.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(bytes);
            if next > self.limit {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.current.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Body bytes currently reserved.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// The configured cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Requests refused because the cap was reached.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// An in-flight byte reservation, released on drop.
pub struct InflightGuard {
    pool: Arc<InflightBytes>,
    bytes: usize,
}

impl std::fmt::Debug for InflightGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InflightGuard({} bytes)", self.bytes)
    }
}

impl InflightGuard {
    /// Extend this reservation by `additional` bytes against the same
    /// pool. Returns `false` (reservation unchanged, shed counted) when
    /// the cap would be exceeded — chunked uploads, whose size is unknown
    /// at admission time, grow their reservation as bytes arrive instead
    /// of reserving up front.
    pub fn grow(&mut self, additional: usize) -> bool {
        if self.pool.reserve_raw(additional) {
            self.bytes += additional;
            true
        } else {
            false
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.pool.current.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The admission limits [`read_request`] enforces.
pub struct RequestLimits<'a> {
    /// Largest `Content-Length` accepted before answering 413.
    pub max_body: usize,
    /// Wall-clock budget for the whole request (headers + body) to
    /// arrive; exceeded → 408. `Duration::ZERO` disables the check.
    pub progress_deadline: Duration,
    /// Optional shared in-flight body-byte pool; over the cap → 429.
    pub inflight: Option<&'a Arc<InflightBytes>>,
}

impl RequestLimits<'_> {
    /// Limits with only the body cap armed (unit tests, simple callers).
    pub fn body_only(max_body: usize) -> RequestLimits<'static> {
        RequestLimits {
            max_body,
            progress_deadline: Duration::ZERO,
            inflight: None,
        }
    }
}

/// A parsed request: method, path, and the raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request path including any query string, e.g. `/v1/analyze`.
    pub path: String,
    /// Raw body bytes, decoded from either framing (empty without a body).
    pub body: Vec<u8>,
    /// The in-flight byte reservation backing `body`, released when the
    /// request is dropped: by the end of the handler, before the response
    /// is written. A registered trace's body moves on into the registry,
    /// which bounds it by its own byte cap.
    pub inflight: Option<InflightGuard>,
}

/// Why a request could not be read off the socket.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed framing (bad request line, unparsable `Content-Length`…).
    Bad(String),
    /// Malformed framing with a machine-readable failure class → 400 with
    /// a `code` field (`bad_chunked_frame` carries the byte offset of the
    /// fault in its message; `te_cl_conflict` flags the RFC 9112 §6.1
    /// request-smuggling ambiguity).
    Coded {
        /// Machine-readable failure class for the JSON `code` field.
        code: &'static str,
        /// Human-readable detail, including the chunked-body byte offset
        /// for framing faults.
        msg: String,
    },
    /// Body or header section exceeds the configured limit → HTTP 413.
    TooLarge(usize),
    /// The request did not finish arriving within the progress deadline
    /// (slow-loris or stalled peer) → HTTP 408.
    TimedOut(Duration),
    /// Admitting this body would exceed the in-flight byte cap → 429.
    Overloaded,
    /// Socket-level failure; the connection is just dropped.
    Io(std::io::Error),
}

impl ReadError {
    /// Render as the error response to send back, if any (`None` for I/O
    /// failures, where the peer is gone or too slow to care).
    pub fn to_response(&self) -> Option<Response> {
        match self {
            ReadError::Bad(msg) => Some(Response::error(400, msg)),
            ReadError::Coded { code, msg } => Some(Response::coded_error(400, code, msg)),
            ReadError::TooLarge(limit) => Some(Response::error(
                413,
                &format!("request body exceeds the {limit}-byte limit"),
            )),
            ReadError::TimedOut(budget) => Some(Response::coded_error(
                408,
                "slow_request",
                &format!(
                    "request did not arrive within the {:.1}s progress deadline",
                    budget.as_secs_f64()
                ),
            )),
            ReadError::Overloaded => Some(Response::overloaded(
                1,
                "inflight_bytes",
                "too many request bytes in flight; retry shortly",
            )),
            ReadError::Io(_) => None,
        }
    }
}

/// Classify one socket read: distinguish a timeout (the peer exists but
/// is not sending) from a hard failure.
fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    start: Instant,
    deadline: Duration,
) -> Result<usize, ReadError> {
    match stream.read(chunk) {
        Ok(n) => {
            if !deadline.is_zero() && start.elapsed() > deadline {
                return Err(ReadError::TimedOut(deadline));
            }
            Ok(n)
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // SO_RCVTIMEO fired: the connection is stalled outright.
            Err(ReadError::TimedOut(if deadline.is_zero() {
                start.elapsed()
            } else {
                deadline
            }))
        }
        Err(e) => Err(ReadError::Io(e)),
    }
}

/// Read and frame one request under `limits`, buffering the whole body.
///
/// Enforces the header ceiling and the progress deadline (which spans
/// head and body together), and rejects `Transfer-Encoding` combined
/// with `Content-Length` with a structured 400 (`te_cl_conflict`) — RFC
/// 9112 §6.1 treats the pair as a request smuggling vector, and a server
/// that guesses which one to trust can be desynchronized from any
/// intermediary that guessed differently.
///
/// A pending `Expect: 100-continue` (HTTP/1.1 only; RFC 9110 §10.1.1 has
/// servers ignore it in HTTP/1.0) is answered once, right before the
/// first body read: after a `Content-Length` body has passed the
/// `max_body` and in-flight checks, and before the first chunk of a
/// chunked body. A body refused by those checks gets its 413 or 429 as
/// the only response.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &RequestLimits<'_>,
) -> Result<Request, ReadError> {
    let start = Instant::now();
    let deadline = limits.progress_deadline;
    // Accumulate until the blank line that ends the header section.
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::TooLarge(MAX_HEADER_BYTES));
        }
        let n = read_some(stream, &mut chunk, start, deadline)?;
        if n == 0 {
            return Err(ReadError::Bad("connection closed mid-headers".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ReadError::Bad("non-UTF-8 header section".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.to_string()),
        _ => return Err(ReadError::Bad(format!("bad request line '{request_line}'"))),
    };
    let http11 = parts.next() == Some("HTTP/1.1");

    let mut content_length: Option<usize> = None;
    let mut transfer_encoding: Option<String> = None;
    let mut expect_continue = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| ReadError::Bad(format!("bad Content-Length '{value}'")))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                transfer_encoding = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("expect") {
                expect_continue = http11 && value.trim().eq_ignore_ascii_case("100-continue");
            }
        }
    }
    // Bytes read past the header terminator start the body.
    let carry = buf[header_end + 4..].to_vec();
    let (body, inflight) = match transfer_encoding {
        None => read_body_sized(
            start,
            carry,
            content_length.unwrap_or(0),
            stream,
            limits,
            expect_continue,
        )?,
        Some(_) if content_length.is_some() => {
            return Err(ReadError::Coded {
                code: "te_cl_conflict",
                msg: "Transfer-Encoding and Content-Length on the same request \
                      is rejected (RFC 9112 §6.1 request-smuggling ambiguity)"
                    .into(),
            })
        }
        Some(te) if te.eq_ignore_ascii_case("chunked") => {
            read_body_chunked(start, carry, stream, limits, expect_continue)?
        }
        Some(te) => {
            return Err(ReadError::Bad(format!(
                "unsupported Transfer-Encoding '{te}'"
            )))
        }
    };
    Ok(Request {
        method,
        path,
        body,
        inflight,
    })
}

/// Answer a pending `Expect: 100-continue` once, right before the first
/// body read: the client holds its body back until this arrives.
fn send_continue(stream: &mut TcpStream, pending: &mut bool) -> Result<(), ReadError> {
    if std::mem::take(pending) {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(ReadError::Io)?;
    }
    Ok(())
}

/// Read a `Content-Length` body. The declared size is reserved against
/// the in-flight pool *before* buffering a single body byte beyond what
/// rode in with the headers — the whole point is to refuse work we cannot
/// afford to hold.
fn read_body_sized(
    start: Instant,
    mut body: Vec<u8>,
    content_length: usize,
    stream: &mut TcpStream,
    limits: &RequestLimits<'_>,
    mut expect_continue: bool,
) -> Result<(Vec<u8>, Option<InflightGuard>), ReadError> {
    if content_length > limits.max_body {
        return Err(ReadError::TooLarge(limits.max_body));
    }
    let inflight = match (limits.inflight, content_length) {
        (Some(pool), n) if n > 0 => Some(pool.try_reserve(n).ok_or(ReadError::Overloaded)?),
        _ => None,
    };
    if body.len() > content_length {
        return Err(ReadError::Bad("body longer than Content-Length".into()));
    }
    let mut chunk = [0u8; 1024];
    while body.len() < content_length {
        send_continue(stream, &mut expect_continue)?;
        let n = read_some(stream, &mut chunk, start, limits.progress_deadline)?;
        if n == 0 {
            return Err(ReadError::Bad("connection closed mid-body".into()));
        }
        if body.len() + n > content_length {
            return Err(ReadError::Bad("body longer than Content-Length".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok((body, inflight))
}

/// Ceiling on one chunk-size line (hex digits + optional extension).
/// 16 hex digits already cover u64; 256 bytes is beyond generous.
const MAX_CHUNK_LINE: usize = 256;

/// Incremental RFC 9112 §7.1 chunked-transfer decoder. Fed raw socket
/// bytes, it appends decoded payload runs to the body and tracks the
/// absolute byte offset into the encoded stream so framing errors can say
/// *where* the client's encoder went wrong.
struct ChunkedDecoder {
    state: ChunkState,
    /// Absolute offset of the next unconsumed encoded byte.
    offset: u64,
}

enum ChunkState {
    /// Expecting a chunk-size line (`hex[;ext]\r\n`).
    Size,
    /// Inside chunk data; `usize` bytes still due.
    Data(usize),
    /// Expecting the CRLF that terminates a data chunk.
    DataCrlf,
    /// After the 0-size chunk: consuming (ignored) trailer lines until
    /// the blank line.
    Trailer,
    /// Terminal: the body is complete.
    Done,
}

impl ChunkedDecoder {
    fn new() -> Self {
        ChunkedDecoder {
            state: ChunkState::Size,
            offset: 0,
        }
    }

    fn bad(&self, msg: &str) -> ReadError {
        ReadError::Coded {
            code: "bad_chunked_frame",
            msg: format!("{msg} at chunked-body byte offset {}", self.offset),
        }
    }

    fn consume(&mut self, pending: &mut Vec<u8>, n: usize) {
        pending.drain(..n);
        self.offset += n as u64;
    }

    /// Decode as much of `pending` as possible, appending payload to
    /// `body` (at most `max_body` bytes in all). Returns with bytes left
    /// in `pending` only when more input is needed to make progress (or
    /// the body is `Done`).
    fn feed(
        &mut self,
        pending: &mut Vec<u8>,
        max_body: usize,
        body: &mut Vec<u8>,
    ) -> Result<(), ReadError> {
        loop {
            match self.state {
                ChunkState::Size => {
                    let Some(pos) = find_crlf(pending) else {
                        if pending.len() > MAX_CHUNK_LINE {
                            return Err(self.bad("unterminated chunk-size line"));
                        }
                        return Ok(());
                    };
                    if pos > MAX_CHUNK_LINE {
                        return Err(self.bad("chunk-size line too long"));
                    }
                    let line = std::str::from_utf8(&pending[..pos])
                        .map_err(|_| self.bad("non-UTF-8 chunk-size line"))?;
                    // A chunk extension (`;name=value`) is legal; ignore it.
                    let digits = line.split(';').next().unwrap_or("").trim();
                    if digits.is_empty() {
                        return Err(self.bad("empty chunk size"));
                    }
                    let size = u64::from_str_radix(digits, 16)
                        .map_err(|_| self.bad(&format!("malformed chunk size {digits:?}")))?;
                    self.consume(pending, pos + 2);
                    if size == 0 {
                        self.state = ChunkState::Trailer;
                    } else {
                        if size > (max_body as u64).saturating_sub(body.len() as u64) {
                            return Err(ReadError::TooLarge(max_body));
                        }
                        self.state = ChunkState::Data(size as usize);
                    }
                }
                ChunkState::Data(remaining) => {
                    if pending.is_empty() {
                        return Ok(());
                    }
                    let take = remaining.min(pending.len());
                    body.extend_from_slice(&pending[..take]);
                    self.consume(pending, take);
                    self.state = if take == remaining {
                        ChunkState::DataCrlf
                    } else {
                        ChunkState::Data(remaining - take)
                    };
                }
                ChunkState::DataCrlf => {
                    if pending.len() < 2 {
                        return Ok(());
                    }
                    if &pending[..2] != b"\r\n" {
                        return Err(self.bad("chunk data not terminated by CRLF"));
                    }
                    self.consume(pending, 2);
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailer => {
                    let Some(pos) = find_crlf(pending) else {
                        if pending.len() > MAX_HEADER_BYTES {
                            return Err(self.bad("unterminated trailer section"));
                        }
                        return Ok(());
                    };
                    let blank = pos == 0;
                    self.consume(pending, pos + 2);
                    if blank {
                        self.state = ChunkState::Done;
                    }
                }
                ChunkState::Done => {
                    if !pending.is_empty() {
                        return Err(self.bad("data after the final chunk"));
                    }
                    return Ok(());
                }
            }
        }
    }
}

/// Read a chunked body. Its size is unknown at admission time, so the
/// in-flight reservation starts empty and grows to cover the decoded body
/// plus the undecoded tail as bytes arrive; decoded totals beyond
/// `max_body` still answer 413.
fn read_body_chunked(
    start: Instant,
    mut pending: Vec<u8>,
    stream: &mut TcpStream,
    limits: &RequestLimits<'_>,
    mut expect_continue: bool,
) -> Result<(Vec<u8>, Option<InflightGuard>), ReadError> {
    let mut dec = ChunkedDecoder::new();
    let mut body = Vec::new();
    let mut inflight = limits.inflight.and_then(|pool| pool.try_reserve(0));
    let mut chunk = [0u8; 4096];
    loop {
        dec.feed(&mut pending, limits.max_body, &mut body)?;
        // The reservation is a high-water mark: consuming framing bytes
        // never hands any back before the request is dropped.
        if let Some(guard) = inflight.as_mut() {
            let need = body.len() + pending.len();
            if need > guard.bytes && !guard.grow(need - guard.bytes) {
                return Err(ReadError::Overloaded);
            }
        }
        if matches!(dec.state, ChunkState::Done) {
            return Ok((body, inflight));
        }
        send_continue(stream, &mut expect_continue)?;
        let n = read_some(stream, &mut chunk, start, limits.progress_deadline)?;
        if n == 0 {
            return Err(dec.bad("connection closed mid-chunked-body"));
        }
        pending.extend_from_slice(&chunk[..n]);
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to serialize: status, extra headers, JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (200, 400, 429, …).
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Type`,
    /// `Content-Length`, and `Connection: close`.
    pub headers: Vec<(String, String)>,
    /// Response body (canonical JSON throughout the service).
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let body = format!("{{\n  \"error\": {}\n}}\n", json_escape(message));
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// An error response whose body carries a machine-readable `code`
    /// alongside the human-readable message, so clients can branch on
    /// the failure class without parsing prose.
    pub fn coded_error(status: u16, code: &str, message: &str) -> Self {
        let body = format!(
            "{{\n  \"error\": {},\n  \"code\": {}\n}}\n",
            json_escape(message),
            json_escape(code)
        );
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// The `429 Too Many Requests` backpressure response, with the
    /// `Retry-After` hint the acceptor promises when the queue is full.
    pub fn busy(retry_after_s: u32) -> Self {
        Response::overloaded(
            retry_after_s,
            "queue_full",
            "analysis queue is full; retry shortly",
        )
    }

    /// A structured `429` with a `Retry-After` header and a `code`
    /// identifying which admission gate fired (`queue_full`,
    /// `rate_limited`, `inflight_bytes`).
    pub fn overloaded(retry_after_s: u32, code: &str, message: &str) -> Self {
        let mut resp = Response::coded_error(429, code, message);
        resp.headers
            .push(("Retry-After".into(), retry_after_s.to_string()));
        resp
    }

    /// Serialize onto the socket. Errors are ignored by callers (the peer
    /// may have hung up), so this returns the raw I/O result for tests.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Close a connection politely after the response has been written.
///
/// Closing a socket while unread request bytes sit in its receive buffer
/// makes the kernel send RST instead of FIN, which can destroy the
/// response before the peer reads it — exactly the rejection paths (413,
/// 429) where we answered without consuming the body. Half-close the
/// write side, then discard input until the peer's EOF (bounded by the
/// stream's read timeout and a byte budget so a firehose peer cannot pin
/// the thread).
pub fn finish(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut budget: usize = 1 << 20;
    while budget > 0 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Escape a string as a JSON string literal (quotes included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trip a raw request through a real socket pair.
    fn frame(raw: &[u8], max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, &RequestLimits::body_only(max_body))
    }

    #[test]
    fn parses_post_with_body() {
        let req = frame(
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/analyze");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = frame(b"GET /v1/healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_without_buffering() {
        let err = frame(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 1024).unwrap_err();
        match err {
            ReadError::TooLarge(limit) => assert_eq!(limit, 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(err.to_response().unwrap().status, 413);
    }

    #[test]
    fn truncated_request_is_a_clean_error() {
        assert!(matches!(
            frame(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(frame(b"", 1024), Err(ReadError::Bad(_))));
    }

    #[test]
    fn chunked_body_is_decoded() {
        let req = frame(
            b"POST /v1/traces HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn chunked_trailers_are_consumed() {
        let req = frame(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\nabc\r\n0\r\nX-Digest: deadbeef\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn malformed_chunk_size_is_a_coded_400_with_offset() {
        let err = frame(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nab\r\n0\r\n\r\n",
            1024,
        )
        .unwrap_err();
        let resp = err.to_response().unwrap();
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"code\": \"bad_chunked_frame\""), "{body}");
        assert!(body.contains("byte offset 0"), "{body}");
    }

    #[test]
    fn missing_chunk_crlf_reports_its_offset() {
        // "3\r\nabcX..." — the CRLF after the 3-byte chunk is wrong, at
        // encoded offset 3 (size line) + 3 (data) = 6.
        let err = frame(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXY\r\n0\r\n\r\n",
            1024,
        )
        .unwrap_err();
        match &err {
            ReadError::Coded { code, msg } => {
                assert_eq!(*code, "bad_chunked_frame");
                assert!(msg.contains("byte offset 6"), "{msg}");
            }
            other => panic!("expected Coded, got {other:?}"),
        }
    }

    #[test]
    fn te_cl_conflict_is_rejected() {
        let err = frame(
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\nabc\r\n0\r\n\r\n",
            1024,
        )
        .unwrap_err();
        let resp = err.to_response().unwrap();
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"code\": \"te_cl_conflict\""));
    }

    #[test]
    fn chunked_total_over_max_body_is_413() {
        let err = frame(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\n",
            16,
        )
        .unwrap_err();
        match err {
            ReadError::TooLarge(limit) => assert_eq!(limit, 16),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_chunked_body_is_a_framing_error() {
        let err = frame(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhe",
            1024,
        )
        .unwrap_err();
        assert!(
            matches!(&err, ReadError::Coded { code, .. } if *code == "bad_chunked_frame"),
            "got {err:?}"
        );
    }

    #[test]
    fn unsupported_transfer_encoding_is_rejected() {
        let err = frame(b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, ReadError::Bad(_)), "got {err:?}");
    }

    #[test]
    fn inflight_guard_grows_until_the_cap() {
        let pool = InflightBytes::new(100);
        let mut g = pool.try_reserve(40).expect("fits");
        assert!(g.grow(40));
        assert_eq!(pool.current(), 80);
        assert!(!g.grow(30), "past the cap");
        assert_eq!(pool.current(), 80, "failed grow leaves the pool unchanged");
        assert_eq!(pool.shed(), 1);
        drop(g);
        assert_eq!(pool.current(), 0);
    }

    #[test]
    fn chunked_upload_over_inflight_cap_is_shed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n")
            .unwrap();
        client.write_all(&[b'a'; 0x40]).unwrap();
        client.write_all(b"\r\n0\r\n\r\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let pool = InflightBytes::new(10);
        let limits = RequestLimits {
            max_body: 1024,
            progress_deadline: Duration::ZERO,
            inflight: Some(&pool),
        };
        let err = read_request(&mut server_side, &limits).unwrap_err();
        assert!(matches!(err, ReadError::Overloaded), "got {err:?}");
        drop(pool);
    }

    #[test]
    fn error_response_is_json_with_escapes() {
        let r = Response::error(400, "bad \"spec\"\nline2");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\\\"spec\\\""));
        assert!(body.contains("\\n"));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn busy_response_carries_retry_after() {
        let r = Response::busy(1);
        assert_eq!(r.status, 429);
        assert!(r
            .headers
            .iter()
            .any(|(n, v)| n == "Retry-After" && v == "1"));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"code\": \"queue_full\""));
    }

    #[test]
    fn coded_error_is_machine_readable() {
        let r = Response::coded_error(404, "unknown_digest", "no trace with that digest");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"error\": \"no trace with that digest\""));
        assert!(body.contains("\"code\": \"unknown_digest\""));
    }

    #[test]
    fn inflight_pool_reserves_and_releases() {
        let pool = InflightBytes::new(100);
        let a = pool.try_reserve(60).expect("fits");
        assert_eq!(pool.current(), 60);
        assert!(pool.try_reserve(50).is_none(), "would exceed the cap");
        assert_eq!(pool.shed(), 1);
        drop(a);
        assert_eq!(pool.current(), 0);
        let _b = pool.try_reserve(100).expect("full cap fits when idle");
    }

    #[test]
    fn inflight_overflow_maps_to_structured_429() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
            .unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let pool = InflightBytes::new(10);
        let limits = RequestLimits {
            max_body: 1024,
            progress_deadline: Duration::ZERO,
            inflight: Some(&pool),
        };
        let err = read_request(&mut server_side, &limits).unwrap_err();
        assert!(matches!(err, ReadError::Overloaded));
        let resp = err.to_response().unwrap();
        assert_eq!(resp.status, 429);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"code\": \"inflight_bytes\""));
    }

    #[test]
    fn stalled_peer_times_out_with_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // Half a request line, then silence: a half-open/slow-loris peer.
        client.write_all(b"POST /x HT").unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        prepare_stream(&server_side, Duration::from_millis(80));
        let limits = RequestLimits {
            max_body: 1024,
            progress_deadline: Duration::from_millis(200),
            inflight: None,
        };
        let start = Instant::now();
        let err = read_request(&mut server_side, &limits).unwrap_err();
        assert!(matches!(err, ReadError::TimedOut(_)), "got {err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly, not hang"
        );
        assert_eq!(err.to_response().unwrap().status, 408);
        drop(client);
    }

    #[test]
    fn dripping_peer_is_shed_by_the_progress_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        prepare_stream(&server_side, Duration::from_millis(100));
        // Drip one byte every 30 ms — each drip resets SO_RCVTIMEO, so
        // only the wall-clock deadline can stop this client.
        let writer = std::thread::spawn(move || {
            let mut client = client;
            for b in b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd".iter() {
                if client.write_all(&[*b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let limits = RequestLimits {
            max_body: 1024,
            progress_deadline: Duration::from_millis(150),
            inflight: None,
        };
        let err = read_request(&mut server_side, &limits).unwrap_err();
        assert!(matches!(err, ReadError::TimedOut(_)), "got {err:?}");
        writer.join().unwrap();
    }
}
