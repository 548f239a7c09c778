//! A timed HTTP/1.1 client: one request per connection, as the service
//! answers `Connection: close`. Each exchange is split into connect, time
//! to first response byte, and receive time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// TCP connect.
    pub connect: Duration,
    /// From the first request byte sent to the first response byte read.
    pub ttfb: Duration,
    /// From the first response byte to the end of the response.
    pub recv: Duration,
    pub start: Instant,
    pub end: Instant,
}

impl Exchange {
    pub fn total_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// How a request body is framed on the wire.
#[derive(Clone, Copy)]
pub enum Body<'a> {
    None,
    /// `Content-Length` framing.
    Whole(&'a [u8]),
    /// `Transfer-Encoding: chunked` in chunks of the given size.
    Chunked(&'a [u8], usize),
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Body<'_>,
) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut wire =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n").into_bytes();
    match body {
        Body::None => wire.extend_from_slice(b"Content-Length: 0\r\n\r\n"),
        Body::Whole(bytes) => {
            wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", bytes.len()).as_bytes());
            wire.extend_from_slice(bytes);
        }
        Body::Chunked(bytes, size) => {
            wire.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
            for chunk in bytes.chunks(size.max(1)) {
                wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                wire.extend_from_slice(chunk);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(b"0\r\n\r\n");
        }
    }
    stream.write_all(&wire)?;
    stream.flush()?;
    let mut raw = vec![0u8; 64 * 1024];
    let first = stream.read(&mut raw)?;
    let first_byte = Instant::now();
    raw.truncate(first);
    stream.read_to_end(&mut raw)?;
    let end = Instant::now();
    let (status, body) = parse_response(&raw)?;
    Ok(Exchange {
        status,
        body,
        connect: connected - start,
        ttfb: first_byte - connected,
        recv: end - first_byte,
        start,
        end,
    })
}

fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut body = raw[split + 4..].to_vec();
    let length = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    if let Some(n) = length {
        body.truncate(n);
    }
    Ok((status, body))
}
