//! Integration tests for the streaming ingest path: chunked
//! `Transfer-Encoding` uploads (registered and reserved exactly like
//! `Content-Length` ones), the columnar stream parser's memory bound, the
//! structured framing errors, and the time-resolved `windows` blocks in
//! `/v1/analyze` and `/v1/stats` payloads.

use netloc::core::canon::{content_digest, digest_hex};
use netloc::mpi::{
    write_trace, write_trace_columnar, write_trace_columnar_chunked, CollectiveOp, Payload, Rank,
    TraceBuilder,
};
use netloc::service::http::json_escape;
use netloc::service::{RunningServer, Server, ServerConfig};
use netloc::testkit::client;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start(config: ServerConfig) -> RunningServer {
    Server::start(config).expect("server starts on an ephemeral port")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 32,
        ..ServerConfig::default()
    }
}

/// A 27-rank trace with point-to-point and collective structure spread
/// over a 3-second execution, so time windows are non-degenerate.
fn sample_trace() -> netloc::mpi::Trace {
    let mut b = TraceBuilder::new("stream-itest", 27).exec_time_s(3.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r * 5 + 1) % 27), 10_000 + r as u64, 2);
    }
    b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(4096), 3);
    b.build()
}

/// `POST` raw bytes with ordinary `Content-Length` framing. The testkit
/// `post` helper takes UTF-8; binary columnar uploads need this instead.
fn post_bytes(addr: SocketAddr, path: &str, body: &[u8]) -> client::HttpResponse {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    client::send_raw(addr, &raw).expect("request completes")
}

/// Pull `"field": value` out of a flat JSON reply (the upload replies are
/// small enough that string surgery beats a parser here).
fn json_str_field(body: &str, field: &str) -> String {
    let needle = format!("\"{field}\": \"");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
        + needle.len();
    let end = body[start..].find('"').expect("closing quote") + start;
    body[start..end].to_string()
}

#[test]
fn chunked_columnar_upload_matches_whole_body_upload() {
    let server = start(test_config());
    let addr = server.addr();
    let trace = sample_trace();
    let columnar = write_trace_columnar(&trace);
    let expected_digest = digest_hex(content_digest(&columnar));

    // Whole-body upload of the canonical columnar bytes.
    let whole = post_bytes(addr, "/v1/traces", &columnar);
    assert_eq!(whole.status, 200, "{}", whole.body_str());
    assert_eq!(json_str_field(whole.body_str(), "digest"), expected_digest);

    // Chunked upload of the same bytes in tiny chunks: it must register
    // the identical digest and metadata.
    let streamed = client::post_chunked(addr, "/v1/traces", &columnar, 97).unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body_str());
    assert_eq!(
        streamed.body, whole.body,
        "streamed registration must be byte-identical to whole-body"
    );

    // Observability: both uploads counted, each with the full event count
    // (checked before the analyze below, which re-ingests by digest).
    let statusz = client::get(addr, "/v1/statusz").unwrap();
    let s = statusz.body_str();
    let events = trace.events.len() as u64;
    assert!(
        s.contains("\"traces_ingested\": 2"),
        "both uploads must be counted: {s}"
    );
    assert!(
        s.contains(&format!("\"ingest_events\": {}", 2 * events)),
        "streamed ingest must count its events: {s}"
    );

    // The registered digest is immediately analyzable.
    let by_digest = client::post(
        addr,
        "/v1/analyze",
        &format!(
            "{{\"trace_digest\": \"{expected_digest}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}"
        ),
    )
    .unwrap();
    assert_eq!(by_digest.status, 200, "{}", by_digest.body_str());
    assert!(by_digest.body_str().contains("\"app\": \"stream-itest\""));

    // A non-canonical encoding of the same trace (two-event frames):
    // framing never changes a registration, and the digest names the
    // uploaded bytes, not a re-encoding.
    let odd = write_trace_columnar_chunked(&trace, 2);
    assert_ne!(
        odd, columnar,
        "two-event frames are not the canonical encoding"
    );
    let whole = post_bytes(addr, "/v1/traces", &odd);
    assert_eq!(whole.status, 200, "{}", whole.body_str());
    let streamed = client::post_chunked(addr, "/v1/traces", &odd, 97).unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body_str());
    assert_eq!(
        streamed.body, whole.body,
        "framing must not change a registration"
    );
    assert_eq!(
        json_str_field(whole.body_str(), "digest"),
        digest_hex(content_digest(&odd))
    );
    assert!(
        whole
            .body_str()
            .contains(&format!("\"bytes\": {}", odd.len())),
        "{}",
        whole.body_str()
    );
    server.shutdown();
}

#[test]
fn chunked_upload_is_reserved_like_a_content_length_upload() {
    // The in-flight pool counts a chunked body as it arrives, so an
    // upload over the cap is shed exactly like the same bytes sent with
    // `Content-Length`, and neither leaves a reservation behind.
    let server = start(ServerConfig {
        max_inflight_bytes: 2 << 20,
        max_body_bytes: 64 << 20,
        ..test_config()
    });
    let addr = server.addr();
    let mut b = TraceBuilder::new("overcap", 64).exec_time_s(10.0);
    for i in 0..300_000u32 {
        b.send(
            Rank(i % 64),
            Rank((i * 7 + 3) % 64),
            64 + u64::from(i % 4096),
            1,
        );
    }
    let columnar = write_trace_columnar(&b.build());
    assert!(columnar.len() > 2 << 20, "{} bytes", columnar.len());

    for resp in [
        post_bytes(addr, "/v1/traces", &columnar),
        client::post_chunked(addr, "/v1/traces", &columnar, 64 << 10).unwrap(),
    ] {
        assert_eq!(resp.status, 429, "{}", resp.body_str());
        assert!(
            resp.body_str().contains("\"code\": \"inflight_bytes\""),
            "{}",
            resp.body_str()
        );
    }
    let statusz = client::get(addr, "/v1/statusz").unwrap();
    let s = statusz.body_str();
    assert!(s.contains("\"shed_inflight\": 2"), "{s}");
    assert!(s.contains("\"inflight_bytes\": 0"), "{s}");
    server.shutdown();
}

/// The interim response a client that sent `Expect: 100-continue` waits
/// for before it sends any body byte.
const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Open a connection and send a request head, as a client that sends
/// `Expect: 100-continue` does before its body.
fn send_head(addr: SocketAddr, head: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream
}

#[test]
fn expect_100_continue_is_answered_before_the_body() {
    let server = start(test_config());
    let addr = server.addr();
    let columnar = write_trace_columnar(&sample_trace());
    let plain = post_bytes(addr, "/v1/traces", &columnar);
    assert_eq!(plain.status, 200, "{}", plain.body_str());
    let digest = json_str_field(plain.body_str(), "digest");

    let mut chunked = Vec::new();
    for chunk in columnar.chunks(500) {
        chunked.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        chunked.extend_from_slice(chunk);
        chunked.extend_from_slice(b"\r\n");
    }
    chunked.extend_from_slice(b"0\r\n\r\n");
    for (framing, body) in [
        (format!("Content-Length: {}", columnar.len()), &columnar),
        ("Transfer-Encoding: chunked".to_string(), &chunked),
    ] {
        let mut stream = send_head(
            addr,
            &format!(
                "POST /v1/traces HTTP/1.1\r\nHost: {addr}\r\n{framing}\r\n\
                 Expect: 100-continue\r\nConnection: close\r\n\r\n"
            ),
        );
        // Nothing of the body is sent yet: the server must answer first.
        let mut interim = [0u8; CONTINUE.len()];
        stream
            .read_exact(&mut interim)
            .unwrap_or_else(|e| panic!("{framing}: no 100 Continue before the body: {e}"));
        assert_eq!(&interim[..], CONTINUE, "{framing}");
        stream.write_all(body).unwrap();
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 200 "), "{framing}: {rest}");
        assert_eq!(json_str_field(&rest, "digest"), digest, "{framing}");
    }
    server.shutdown();
}

#[test]
fn expect_100_continue_is_not_sent_for_a_refused_body() {
    // RFC 9110 §10.1.1: a final status instead of 100 lets the client
    // skip sending the body at all.
    let server = start(ServerConfig {
        max_body_bytes: 1024,
        ..test_config()
    });
    let addr = server.addr();
    let mut stream = send_head(
        addr,
        &format!(
            "POST /v1/traces HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 4096\r\n\
             Expect: 100-continue\r\nConnection: close\r\n\r\n"
        ),
    );
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(!reply.contains("100 Continue"), "{reply}");
    // The server drains the connection until the client closes it.
    drop(stream);
    server.shutdown();
}

#[test]
fn chunked_text_upload_buffers_and_matches_content_length() {
    let server = start(test_config());
    let addr = server.addr();
    let text = write_trace(&sample_trace());
    let expected_digest = digest_hex(content_digest(text.as_bytes()));

    let whole = client::post(addr, "/v1/traces", &text).unwrap();
    assert_eq!(whole.status, 200, "{}", whole.body_str());
    let streamed = client::post_chunked(addr, "/v1/traces", text.as_bytes(), 61).unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body_str());
    assert_eq!(
        json_str_field(streamed.body_str(), "digest"),
        expected_digest
    );
    assert_eq!(streamed.body, whole.body);
    server.shutdown();
}

#[test]
fn chunked_analyze_requests_also_work() {
    // Chunked framing is not limited to the upload lane: any endpoint
    // accepts it (the body is buffered, exactly like Content-Length).
    let server = start(test_config());
    let addr = server.addr();
    let text = write_trace(&sample_trace());
    let body = format!(
        "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}",
        json_escape(&text)
    );

    let plain = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body_str());
    let chunked = client::post_chunked(addr, "/v1/analyze", body.as_bytes(), 128).unwrap();
    assert_eq!(chunked.status, 200, "{}", chunked.body_str());
    assert_eq!(chunked.body, plain.body, "framing must not change results");
    server.shutdown();
}

#[test]
fn malformed_chunked_frames_get_structured_400s() {
    let server = start(test_config());
    let addr = server.addr();

    // Garbage where the chunk-size line should be.
    let bad_size = b"POST /v1/traces HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\nzz\r\nhello\r\n0\r\n\r\n";
    let resp = client::send_raw(addr, bad_size).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("\"code\": \"bad_chunked_frame\""),
        "{}",
        resp.body_str()
    );
    assert!(
        resp.body_str().contains("byte offset"),
        "framing errors must locate themselves: {}",
        resp.body_str()
    );

    // Transfer-Encoding and Content-Length on one request (RFC 9112 §6.1).
    let conflict = b"POST /v1/traces HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\nConnection: close\r\n\r\n0\r\n\r\n";
    let resp = client::send_raw(addr, conflict).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("\"code\": \"te_cl_conflict\""),
        "{}",
        resp.body_str()
    );

    // A truncated columnar stream: the decode failure surfaces as a
    // trace error, never a panic or hang.
    let trace = sample_trace();
    let columnar = write_trace_columnar(&trace);
    let truncated = &columnar[..columnar.len() - 7];
    let resp = client::post_chunked(addr, "/v1/traces", truncated, 97).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(resp.body_str().contains("bad trace"), "{}", resp.body_str());

    // A well-formed empty trace in the retired row-binary layout is not a
    // trace format any more: streamed or whole, it is a text parse error.
    let row_binary: &[u8] = b"NLDUMPI\x01\x04demo\x08\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00";
    for resp in [
        client::post_chunked(addr, "/v1/traces", row_binary, 5).unwrap(),
        post_bytes(addr, "/v1/traces", row_binary),
    ] {
        assert_eq!(resp.status, 400, "{}", resp.body_str());
        assert!(resp.body_str().contains("bad trace"), "{}", resp.body_str());
    }

    server.shutdown();
}

#[test]
fn analyze_and_stats_carry_windows_blocks_on_request() {
    let server = start(test_config());
    let addr = server.addr();
    let text = write_trace(&sample_trace());

    let windowed = client::post(
        addr,
        "/v1/analyze",
        &format!(
            "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\", \"windows\": 4}}",
            json_escape(&text)
        ),
    )
    .unwrap();
    assert_eq!(windowed.status, 200, "{}", windowed.body_str());
    let s = windowed.body_str();
    assert!(s.contains("\"windows\": ["), "{s}");
    for idx in 0..4 {
        assert!(
            s.contains(&format!("\"index\": {idx}")),
            "window {idx}: {s}"
        );
    }
    assert!(s.contains("\"t_start_s\""), "{s}");
    assert!(s.contains("\"hop_histogram\""), "{s}");

    // Without the knob the field stays null — historical cache keys and
    // response shapes are preserved.
    let plain = client::post(
        addr,
        "/v1/analyze",
        &format!(
            "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}",
            json_escape(&text)
        ),
    )
    .unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body_str());
    assert!(
        plain.body_str().contains("\"windows\": null"),
        "{}",
        plain.body_str()
    );

    // /v1/stats mirrors `netloc stats --windows`.
    let stats = client::post(
        addr,
        "/v1/stats",
        &format!("{{\"trace\": {}, \"windows\": 3}}", json_escape(&text)),
    )
    .unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body_str());
    let s = stats.body_str();
    assert!(s.contains("\"windows\": ["), "{s}");
    assert!(s.contains("\"rank_locality_90_pct\""), "{s}");

    // Out-of-range window counts are a structured 400, not a panic.
    let bad = client::post(
        addr,
        "/v1/stats",
        &format!("{{\"trace\": {}, \"windows\": 0}}", json_escape(&text)),
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body_str());
    let huge = client::post(
        addr,
        "/v1/stats",
        &format!("{{\"trace\": {}, \"windows\": 65536}}", json_escape(&text)),
    )
    .unwrap();
    assert_eq!(huge.status, 400, "{}", huge.body_str());

    server.shutdown();
}

#[test]
fn streamed_upload_bounds_resident_memory() {
    // The columnar stream parser must retain O(one column chunk), not the
    // whole file: stream a trace much larger than the parser's high-water
    // mark and assert the recorded peak.
    use netloc::mpi::ColStreamParser;
    let mut b = TraceBuilder::new("bigstream", 64).exec_time_s(10.0);
    for i in 0..200_000u32 {
        b.send(
            Rank(i % 64),
            Rank((i * 7 + 3) % 64),
            64 + u64::from(i % 4096),
            1,
        );
    }
    let trace = b.build();
    let columnar = write_trace_columnar(&trace);
    let mut parser = ColStreamParser::new();
    for chunk in columnar.chunks(4096) {
        parser.push(chunk).expect("canonical stream decodes");
    }
    let decoded = parser.max_buffered();
    assert!(
        decoded < columnar.len() / 2,
        "peak buffered {decoded} must stay well under the {} byte upload",
        columnar.len()
    );
    let round = parser.finish().expect("stream completes");
    assert_eq!(round.events.len(), trace.events.len());
}
