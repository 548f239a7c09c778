//! Integration tests for the `netloc-service` analysis server: concurrent
//! byte-identity against direct library calls, cache accounting,
//! backpressure, and graceful shutdown.

use netloc::core::canon::{canonical_json, content_digest, digest_hex};
use netloc::core::{analyze_network_routed, TrafficMatrix};
use netloc::mpi::{parse_trace, write_trace, CollectiveOp, Payload, Rank, Trace, TraceBuilder};
use netloc::service::http::json_escape;
use netloc::service::payload::{self, AnalyzeResponse, TraceMeta};
use netloc::service::{RunningServer, Server, ServerConfig};
use netloc::testkit::client;
use netloc::topology::optimize::greedy_mapping;
use netloc::topology::routetable::StoragePlan;
use netloc::topology::{Mapping, MappingSpec, RoutedTopology, TopologySpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A 27-rank trace with enough structure to exercise routing and the
/// collective translation.
fn sample_trace_text() -> String {
    let mut b = TraceBuilder::new("itest", 27).exec_time_s(3.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r * 5 + 1) % 27), 10_000 + r as u64, 2);
    }
    b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(4096), 3);
    write_trace(&b.build())
}

fn analyze_body(trace_text: &str, topology: &str, mapping: &str) -> String {
    format!(
        "{{\"trace\": {}, \"topology\": \"{topology}\", \"mapping\": \"{mapping}\"}}",
        json_escape(trace_text)
    )
}

/// The expected `/v1/analyze` bytes, computed through a *direct*
/// `analyze_network_routed` call plus the shared payload/canonicalizer —
/// no service code paths involved in the replay itself.
fn expected_analyze_bytes(trace_text: &str, topology: &str, mapping: &str) -> Vec<u8> {
    let trace = parse_trace(trace_text).unwrap();
    let topo_spec: TopologySpec = topology.parse().unwrap();
    let topo_spec = topo_spec.resolve(trace.num_ranks);
    let map_spec: MappingSpec = mapping.parse().unwrap();
    let topo = topo_spec.build().unwrap();
    let routed = RoutedTopology::auto(topo.as_ref());
    let tm = TrafficMatrix::from_trace_full(&trace);
    let m = map_spec
        .build_with_traffic(trace.num_ranks as usize, &routed, &tm.undirected_entries())
        .unwrap();
    let report = analyze_network_routed(&routed, &m, &tm);
    let digest = digest_hex(content_digest(trace_text.as_bytes()));
    let resp = AnalyzeResponse::from_report(
        TraceMeta::new(&trace, digest),
        &topo_spec,
        topo.num_nodes(),
        &map_spec,
        trace.exec_time_s,
        &report,
    );
    canonical_json(&resp).into_bytes()
}

/// Pull an unsigned counter out of a (possibly nested) JSON object.
fn json_counter(body: &str, path: &[&str]) -> u64 {
    let mut value = serde_json::from_str(body).expect("valid JSON");
    for key in path {
        let serde::Value::Object(fields) = value else {
            panic!("expected object at '{key}'")
        };
        value = fields
            .into_iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing field '{key}'"))
            .1;
    }
    match value {
        serde::Value::UInt(n) => n as u64,
        serde::Value::Int(n) => n as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_byte_identical_with_cache_accounting() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text, "torus:3,3,3", "consecutive");
    let expected = expected_analyze_bytes(&trace_text, "torus:3,3,3", "consecutive");

    // Warm-up: the one and only miss for this key.
    let warm = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    assert_eq!(warm.body, expected, "fresh response != direct library call");

    // ≥8 overlapping clients, same request: every byte identical, all
    // served from the result cache.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || client::post(addr, "/v1/analyze", &body).unwrap())
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected, "concurrent response diverged");
    }

    let statusz = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(statusz.status, 200);
    let s = statusz.body_str();
    assert_eq!(
        json_counter(s, &["result_cache", "misses"]),
        1,
        "exactly the warm-up misses: {s}"
    );
    assert_eq!(
        json_counter(s, &["result_cache", "hits"]),
        8,
        "all 8 concurrent requests hit: {s}"
    );
    assert_eq!(
        json_counter(s, &["route_tables_built"]),
        1,
        "one RouteTable for one distinct spec: {s}"
    );
    assert_eq!(server.state().topo_cache.tables_built(), 1);

    // Two spellings of one topology share a table (canonical keying), and
    // a genuinely new spec builds exactly one more.
    for spelling in ["torus:04,4,4", "torus:4,4,4", "torus:4, 4,4"] {
        let resp = client::post(
            addr,
            "/v1/analyze",
            &analyze_body(&trace_text, spelling, "random:5"),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(
            resp.body,
            expected_analyze_bytes(&trace_text, spelling, "random:5"),
            "spelling '{spelling}' diverged"
        );
    }
    assert_eq!(
        server.state().topo_cache.tables_built(),
        2,
        "canonicalization must collapse spellings to one table"
    );
    let s2 = client::get(addr, "/v1/statusz").unwrap();
    // The three spellings canonicalize to one cache key: 1 miss + 2 hits.
    assert_eq!(json_counter(s2.body_str(), &["result_cache", "misses"]), 2);
    assert_eq!(json_counter(s2.body_str(), &["result_cache", "hits"]), 10);

    server.shutdown();
}

#[test]
fn sweep_stats_metrics_and_workload_endpoints() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();

    let sweep_body = format!(
        "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mappings\": [\"consecutive\", \"random:3\"]}}",
        json_escape(&trace_text)
    );
    let sweep = client::post(addr, "/v1/sweep", &sweep_body).unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body_str());
    let s = sweep.body_str();
    assert!(s.contains("\"mapping\": \"consecutive\""), "{s}");
    assert!(s.contains("\"mapping\": \"random:3\""), "{s}");
    assert!(s.contains("\"topology\": \"torus:3,3,3\""), "{s}");

    // /v1/stats must serve the exact bytes `netloc stats --json` prints.
    let trace = parse_trace(&trace_text).unwrap();
    let stats_expected =
        canonical_json(&netloc::service::payload::StatsResponse::from_trace(&trace));
    let stats_body = format!("{{\"trace\": {}}}", json_escape(&trace_text));
    let stats = client::post(addr, "/v1/stats", &stats_body).unwrap();
    assert_eq!(stats.status, 200);
    assert_eq!(stats.body_str(), stats_expected);

    let metrics_expected = canonical_json(&netloc::service::payload::MetricsResponse::from_trace(
        &trace,
    ));
    let metrics = client::post(addr, "/v1/metrics", &stats_body).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.body_str(), metrics_expected);

    // Generated workloads skip the trace upload entirely.
    let workload = client::post(
        addr,
        "/v1/analyze",
        "{\"workload\": \"lulesh:64\", \"topology\": \"auto\"}",
    )
    .unwrap();
    assert_eq!(workload.status, 200, "{}", workload.body_str());
    assert!(workload.body_str().contains("\"app\": \"EXMATEX LULESH\""));

    server.shutdown();
}

#[test]
fn machines_past_the_table_limits_route_lazily_per_request() {
    // torus:13,13,13 has 2 197 nodes, so 4.8M ordered pairs: past the
    // dense limit, and a torus has no router symmetry. The storage plan
    // routes it with lazy rows, which the route cache never holds.
    let topo_spec: TopologySpec = "torus:13,13,13".parse().unwrap();
    let topo = topo_spec.build().unwrap();
    assert_eq!(StoragePlan::of(topo.as_ref()), StoragePlan::Lazy);

    let server = start(test_config());
    let addr = server.addr();
    let body = "{\"workload\": \"lulesh:64\", \"topology\": \"torus:13,13,13\"}";
    let resp = client::post(addr, "/v1/analyze", body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let (app, ranks, canonical) = netloc::workloads::parse_workload_spec("lulesh:64").unwrap();
    let ingest = netloc::core::ingest_trace(netloc::workloads::generate_workload(app, ranks));
    let expected = payload::analyze(
        &ingest.trace,
        &ingest.matrix,
        digest_hex(content_digest(format!("workload:{canonical}").as_bytes())),
        &topo_spec,
        &MappingSpec::Consecutive,
        &RoutedTopology::auto(topo.as_ref()),
    )
    .unwrap();
    assert_eq!(
        resp.body,
        canonical_json(&expected).into_bytes(),
        "uncached response != payload::analyze over RoutedTopology::auto"
    );
    let statusz = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(
        json_counter(statusz.body_str(), &["route_tables_built"]),
        0,
        "{}",
        statusz.body_str()
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_precise_errors() {
    let server = start(ServerConfig {
        max_body_bytes: 64 * 1024,
        ..test_config()
    });
    let addr = server.addr();

    let health = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains("\"ok\""));

    // Broken JSON → 400 with the parser's byte offset.
    let bad_json = client::post(addr, "/v1/analyze", "{\"trace\": ").unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(
        bad_json.body_str().contains("byte"),
        "error must carry a byte offset: {}",
        bad_json.body_str()
    );

    // Valid JSON, broken trace → 400 citing the trace parser.
    let bad_trace =
        client::post(addr, "/v1/analyze", "{\"trace\": \"not a dumpi trace\"}").unwrap();
    assert_eq!(bad_trace.status, 400);
    assert!(bad_trace.body_str().contains("bad trace"));

    // Bad topology spec → 400 echoing the spec grammar, not a panic.
    let trace_text = sample_trace_text();
    let bad_spec = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:0,0,0", "consecutive"),
    )
    .unwrap();
    assert_eq!(bad_spec.status, 400);

    // Topology too small for the ranks → 400, not a panic.
    let overfull = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:2,2,2", "consecutive"),
    )
    .unwrap();
    assert_eq!(overfull.status, 400, "{}", overfull.body_str());

    // Oversized body → 413 before any parsing.
    let huge = format!("{{\"trace\": \"{}\"}}", "x".repeat(100 * 1024));
    let too_large = client::post(addr, "/v1/analyze", &huge).unwrap();
    assert_eq!(too_large.status, 413);

    assert_eq!(client::post(addr, "/v1/healthz", "{}").unwrap().status, 405);
    assert_eq!(client::get(addr, "/v1/nothing").unwrap().status, 404);

    server.shutdown();
}

#[test]
fn saturated_queue_returns_429_and_retry_succeeds() {
    // One slow worker + a one-slot queue: overlapping requests must be
    // bounced with 429 immediately instead of piling up.
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        handler_delay: Duration::from_millis(300),
        ..test_config()
    });
    let addr = server.addr();

    let handles: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || client::get(addr, "/v1/healthz").unwrap()))
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let busy = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + busy, 8, "no hangs, no other statuses");
    assert!(ok >= 1, "the in-service request completes");
    assert!(busy >= 1, "overload must be visible as 429");
    for r in responses.iter().filter(|r| r.status == 429) {
        assert_eq!(
            r.header("Retry-After"),
            Some("1"),
            "429 must carry Retry-After"
        );
    }

    // After the burst drains, the same request succeeds on retry.
    let retry = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(retry.status, 200, "retry after backpressure must succeed");

    let statusz = client::get(addr, "/v1/statusz").unwrap();
    assert!(json_counter(statusz.body_str(), &["requests_rejected"]) >= busy as u64);

    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        handler_delay: Duration::from_millis(300),
        ..test_config()
    });
    let addr = server.addr();

    // Get a request accepted (and sitting in the slow worker)…
    let in_flight = std::thread::spawn(move || client::get(addr, "/v1/healthz").unwrap());
    std::thread::sleep(Duration::from_millis(100));

    // …then shut down. The drain guarantee: the request still completes.
    server.shutdown();
    let resp = in_flight.join().unwrap();
    assert_eq!(resp.status, 200, "in-flight request dropped by shutdown");
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netloc-service-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn trace_registry_round_trip_is_byte_identical_with_inline_traces() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let digest = digest_hex(content_digest(trace_text.as_bytes()));

    // Upload once; the server must answer with the canonical digest.
    let reg = client::post(addr, "/v1/traces", &trace_text).unwrap();
    assert_eq!(reg.status, 200, "{}", reg.body_str());
    assert!(
        reg.body_str()
            .contains(&format!("\"digest\": \"{digest}\"")),
        "{}",
        reg.body_str()
    );
    assert!(
        reg.body_str().contains("\"ranks\": 27"),
        "{}",
        reg.body_str()
    );

    // Analyze by digest == analyze inline, byte for byte (same cache key,
    // same canonical bytes).
    let inline = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:3,3,3", "consecutive"),
    )
    .unwrap();
    assert_eq!(inline.status, 200, "{}", inline.body_str());
    let by_digest_body = format!(
        "{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}"
    );
    let by_digest = client::post(addr, "/v1/analyze", &by_digest_body).unwrap();
    assert_eq!(by_digest.status, 200, "{}", by_digest.body_str());
    assert_eq!(
        by_digest.body, inline.body,
        "digest-referenced analysis must be byte-identical to inline"
    );

    // Unknown digest → structured 404, not a panic or a bare string.
    let unknown = client::post(
        addr,
        "/v1/analyze",
        "{\"trace_digest\": \"00000000deadbeef\", \"topology\": \"torus:3,3,3\"}",
    )
    .unwrap();
    assert_eq!(unknown.status, 404, "{}", unknown.body_str());
    assert!(
        unknown.body_str().contains("\"code\": \"unknown_digest\""),
        "{}",
        unknown.body_str()
    );

    // Ambiguous source → 400.
    let both = format!(
        "{{\"trace\": {}, \"trace_digest\": \"{digest}\"}}",
        json_escape(&trace_text)
    );
    assert_eq!(
        client::post(addr, "/v1/analyze", &both).unwrap().status,
        400
    );

    // Registry observability: the upload is one entry. The by-digest
    // analysis repeats the inline request's key, so it is answered from
    // the result cache without reading the registry; the unknown digest
    // is the registry's one lookup, and a miss.
    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    assert_eq!(json_counter(s, &["registry", "entries"]), 1, "{s}");
    assert!(json_counter(s, &["registry", "bytes"]) >= trace_text.len() as u64);
    assert_eq!(json_counter(s, &["registry", "hits"]), 0, "{s}");
    assert_eq!(json_counter(s, &["registry", "misses"]), 1, "{s}");
    server.shutdown();
}

/// A repeated analysis is answered from its key alone. For every trace
/// source, with and without windows, the repeat returns the same bytes and
/// neither reads nor folds the trace again.
#[test]
fn warm_hits_skip_the_trace_for_every_source() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let reg = client::post(addr, "/v1/traces", &trace_text).unwrap();
    assert_eq!(reg.status, 200, "{}", reg.body_str());
    let digest = digest_hex(content_digest(trace_text.as_bytes()));
    let ingest_counters = || {
        let s = client::get(addr, "/v1/statusz").unwrap();
        let s = s.body_str();
        (
            json_counter(s, &["traces_ingested"]),
            json_counter(s, &["ingest_events"]),
        )
    };

    let sources = [
        format!("\"trace\": {}", json_escape(&trace_text)),
        "\"workload\": \"lulesh:27\"".to_string(),
        format!("\"trace_digest\": \"{digest}\""),
    ];
    let mut seed = 0;
    for source in &sources {
        for windows in ["", ", \"windows\": 3"] {
            // A fresh mapping seed per request pair, so the first one is
            // a miss that loads the trace.
            seed += 1;
            let body = format!(
                "{{{source}, \"topology\": \"torus:3,3,3\", \"mapping\": \"random:{seed}\"{windows}}}"
            );
            let cold = client::post(addr, "/v1/analyze", &body).unwrap();
            assert_eq!(cold.status, 200, "{}", cold.body_str());
            let ingested = ingest_counters();
            let warm = client::post(addr, "/v1/analyze", &body).unwrap();
            assert_eq!(warm.status, 200, "{}", warm.body_str());
            assert_eq!(warm.body, cold.body, "warm hit diverged: {body}");
            assert_eq!(
                ingest_counters(),
                ingested,
                "warm hit read the trace: {body}"
            );
        }
    }

    // A workload names its rank count, so `auto` resolves without the
    // trace: the repeat is a pure lookup too, and the bytes are the ones
    // computed from the generated trace.
    let (app, ranks, canonical) = netloc::workloads::parse_workload_spec("lulesh:27").unwrap();
    let ingest = netloc::core::ingest_trace(netloc::workloads::generate_workload(app, ranks));
    let topo_spec = TopologySpec::Auto.resolve(ingest.trace.num_ranks);
    let topo = topo_spec.build().unwrap();
    let expected = payload::analyze(
        &ingest.trace,
        &ingest.matrix,
        digest_hex(content_digest(format!("workload:{canonical}").as_bytes())),
        &topo_spec,
        &MappingSpec::Consecutive,
        &RoutedTopology::auto(topo.as_ref()),
    )
    .unwrap();
    let body = "{\"workload\": \"lulesh:27\", \"topology\": \"auto\"}";
    let ingested = ingest_counters();
    for _ in 0..2 {
        let resp = client::post(addr, "/v1/analyze", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(resp.body, canonical_json(&expected).into_bytes());
    }
    assert_eq!(
        ingest_counters().0,
        ingested.0 + 1,
        "one generation, on the miss"
    );

    // On a trace source `auto` needs the trace's rank count, so it still
    // loads the trace first, and serves the same bytes as a direct call.
    let expected = expected_analyze_bytes(&trace_text, "auto", "consecutive");
    let by_digest = format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"auto\"}}");
    for body in [analyze_body(&trace_text, "auto", "consecutive"), by_digest] {
        let resp = client::post(addr, "/v1/analyze", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(resp.body, expected, "auto diverged: {body}");
    }
    server.shutdown();
}

/// The `/v1/analyze` bytes of `trace` on `topology` under `greedy`, built
/// from a direct `greedy_mapping` over the matrix's undirected fold.
fn greedy_analyze_bytes(trace: &Trace, digest: String, topology: &str) -> Vec<u8> {
    let tm = TrafficMatrix::from_trace_full(trace);
    let topo_spec: TopologySpec = topology.parse().unwrap();
    let topo = topo_spec.build().unwrap();
    let routed = RoutedTopology::auto(topo.as_ref());
    let mapping = greedy_mapping(&routed, trace.num_ranks as usize, &tm.undirected_entries());
    let report = analyze_network_routed(&routed, &mapping, &tm);
    let resp = AnalyzeResponse::from_report(
        TraceMeta::new(trace, digest),
        &topo_spec,
        topo.num_nodes(),
        &MappingSpec::Greedy,
        trace.exec_time_s,
        &report,
    );
    canonical_json(&resp).into_bytes()
}

/// `greedy` is the one mapping that reads traffic, so it is the one branch
/// of the analysis path that still folds the matrix into undirected
/// entries. `/v1/analyze`, `/v1/sweep` and a `/v1/jobs` cell must each
/// serve the bytes of a direct `greedy_mapping` over that fold.
#[test]
fn greedy_mapping_matches_the_direct_optimizer_on_every_path() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let trace = parse_trace(&trace_text).unwrap();
    let digest = digest_hex(content_digest(trace_text.as_bytes()));

    let expected = greedy_analyze_bytes(&trace, digest.clone(), "torus:3,3,3");
    let body = analyze_body(&trace_text, "torus:3,3,3", "greedy");
    let resp = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body, expected, "/v1/analyze greedy diverged");

    // A sweep with a greedy cell beside one that reads no traffic.
    let tm = TrafficMatrix::from_trace_full(&trace);
    let topo_spec: TopologySpec = "torus:3,3,3".parse().unwrap();
    let topo = topo_spec.build().unwrap();
    let routed = RoutedTopology::auto(topo.as_ref());
    let ranks = trace.num_ranks as usize;
    let cell = |mapping: &str, m: &Mapping| {
        let report = analyze_network_routed(&routed, m, &tm);
        payload::SweepCellResponse {
            mapping: mapping.to_string(),
            packets: report.packets,
            packet_hops: report.packet_hops,
            avg_hops: report.avg_hops(),
            used_links: report.used_links,
            utilization_pct: report.utilization_pct(trace.exec_time_s),
            global_message_share: report.global_message_share(),
        }
    };
    let greedy = greedy_mapping(&routed, ranks, &tm.undirected_entries());
    let expected = canonical_json(&payload::SweepResponse {
        trace: TraceMeta::new(&trace, digest),
        topology: topo_spec.to_string(),
        nodes: topo.num_nodes(),
        cells: vec![
            cell(
                "consecutive",
                &Mapping::consecutive(ranks, topo.num_nodes()),
            ),
            cell("greedy", &greedy),
        ],
    });
    let body = format!(
        "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mappings\": [\"consecutive\", \"greedy\"]}}",
        json_escape(&trace_text)
    );
    let resp = client::post(addr, "/v1/sweep", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body_str(), expected, "/v1/sweep greedy diverged");

    // A one-cell job: the finished cell answers the same analysis as a
    // result hit, so the bytes served are the ones the job cell stored.
    let (app, ranks, workload) = netloc::workloads::parse_workload_spec("lulesh:27").unwrap();
    let expected = greedy_analyze_bytes(
        &netloc::workloads::generate_workload(app, ranks),
        digest_hex(content_digest(format!("workload:{workload}").as_bytes())),
        "torus:3,3,3",
    );
    let submit = format!(
        "{{\"topologies\": [\"torus:3,3,3\"], \"mappings\": [\"greedy\"], \"workloads\": [\"{workload}\"]}}"
    );
    let resp = client::post(addr, "/v1/jobs", &submit).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let id = resp
        .body_str()
        .split("\"id\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("submit reply names the job")
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let poll = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
        if poll.body_str().contains("\"status\": \"complete\"") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job must complete");
        std::thread::sleep(Duration::from_millis(10));
    }
    let hits = || {
        let s = client::get(addr, "/v1/statusz").unwrap();
        json_counter(s.body_str(), &["result_cache", "hits"])
    };
    let before = hits();
    let body = format!(
        "{{\"workload\": \"{workload}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"greedy\"}}"
    );
    let resp = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        hits(),
        before + 1,
        "the job cell must answer as a result hit"
    );
    assert_eq!(resp.body, expected, "/v1/jobs greedy cell diverged");
    server.shutdown();
}

/// A 27-rank trace whose rank `r` sends to `(r * stride + 2) % 27`, so
/// each stride names a distinct trace of about the same size.
fn strided_trace_text(name: &str, stride: u32) -> String {
    let mut b = TraceBuilder::new(name, 27).exec_time_s(4.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r * stride + 2) % 27), 20_000 + r as u64, 2);
    }
    write_trace(&b.build())
}

/// A cached result outlives its registered trace. Once a memory-only
/// registry has evicted the trace, a repeated key for its digest still
/// answers from the result cache, while a key that needs the trace gets
/// the structured 404.
#[test]
fn cached_results_outlive_evicted_registry_traces() {
    let trace_text = sample_trace_text();
    let other = strided_trace_text("itest-other", 7);
    // Room for either trace, never both.
    let capacity = trace_text.len() + other.len() - 1;
    assert!(trace_text.len().max(other.len()) <= capacity);
    let server = start(ServerConfig {
        registry_cache_bytes: capacity,
        ..test_config()
    });
    let addr = server.addr();
    let digest = digest_hex(content_digest(trace_text.as_bytes()));
    let body = |mapping: &str| {
        format!(
            "{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"{mapping}\"}}"
        )
    };

    assert_eq!(
        client::post(addr, "/v1/traces", &trace_text)
            .unwrap()
            .status,
        200
    );
    let cold = client::post(addr, "/v1/analyze", &body("consecutive")).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(
        cold.body,
        expected_analyze_bytes(&trace_text, "torus:3,3,3", "consecutive"),
        "by-digest analysis != direct library call"
    );

    assert_eq!(
        client::post(addr, "/v1/traces", &other).unwrap().status,
        200
    );
    let s = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(json_counter(s.body_str(), &["registry", "evictions"]), 1);

    let warm = client::post(addr, "/v1/analyze", &body("consecutive")).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    assert_eq!(warm.body, cold.body, "the cached result must still answer");

    let fresh = client::post(addr, "/v1/analyze", &body("random:5")).unwrap();
    assert_eq!(fresh.status, 404, "{}", fresh.body_str());
    assert!(
        fresh.body_str().contains("\"code\": \"unknown_digest\""),
        "{}",
        fresh.body_str()
    );
    server.shutdown();
}

/// A warm by-digest hit reads none of the trace's bytes, but it still
/// keeps the trace resident: when the registry must evict, it evicts a
/// trace nobody asked about since, and the next cold analysis of the
/// trace in use finds it.
#[test]
fn warm_hits_keep_a_registered_trace_resident() {
    let traces = [
        sample_trace_text(),
        strided_trace_text("itest-second", 5),
        strided_trace_text("itest-third", 11),
    ];
    // Room for the first trace and either other one, never all three.
    let capacity = traces[0].len() + traces[1].len().max(traces[2].len());
    let server = start(ServerConfig {
        registry_cache_bytes: capacity,
        ..test_config()
    });
    let addr = server.addr();
    let digest = digest_hex(content_digest(traces[0].as_bytes()));
    let body = |mapping: &str| {
        format!(
            "{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"{mapping}\"}}"
        )
    };
    let upload = |text: &str| {
        let resp = client::post(addr, "/v1/traces", text).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    };

    upload(&traces[0]);
    let cold = client::post(addr, "/v1/analyze", &body("consecutive")).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    upload(&traces[1]);
    // The warm hit leaves the second trace the least recently used.
    let warm = client::post(addr, "/v1/analyze", &body("consecutive")).unwrap();
    assert_eq!(warm.body, cold.body);
    upload(&traces[2]);
    let s = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(json_counter(s.body_str(), &["registry", "evictions"]), 1);
    assert_eq!(json_counter(s.body_str(), &["registry", "entries"]), 2);

    let fresh = client::post(addr, "/v1/analyze", &body("random:5")).unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.body_str());
    assert_eq!(
        fresh.body,
        expected_analyze_bytes(&traces[0], "torus:3,3,3", "random:5")
    );
    server.shutdown();
}

#[test]
fn persistent_data_dir_survives_restart_with_disk_hits() {
    let dir = tmpdir("persist");
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text, "torus:3,3,3", "consecutive");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    };

    let server = start(config());
    let first = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    server.shutdown(); // write-behind store is flushed here

    // A fresh process-equivalent: empty memory caches, same data dir.
    let server = start(config());
    let addr = server.addr();
    let second = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert_eq!(
        second.body, first.body,
        "disk-served result must be byte-identical"
    );

    // A result-cache hit short-circuits before any routing; a *new*
    // result key on the same topology exercises the table restore path.
    let other = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:3,3,3", "random:5"),
    )
    .unwrap();
    assert_eq!(other.status, 200, "{}", other.body_str());

    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    assert!(
        json_counter(s, &["disk", "hits"]) >= 1,
        "result must come from disk: {s}"
    );
    assert_eq!(json_counter(s, &["disk", "quarantined"]), 0, "{s}");
    assert_eq!(
        json_counter(s, &["route_tables_from_disk"]),
        1,
        "the route table must be restored, not rebuilt: {s}"
    );
    assert_eq!(json_counter(s, &["route_tables_built"]), 0, "{s}");
    assert_eq!(
        server.state().result_cache.stats().misses,
        2,
        "cold memory: both lookups missed (one refilled from disk)"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_client_rate_limit_sheds_with_structured_429() {
    let server = start(ServerConfig {
        rate_limit_per_s: 1.0,
        rate_limit_burst: 3.0,
        ..test_config()
    });
    let addr = server.addr();

    // The burst passes; the next connection from the same client is shed
    // with the structured rate-limit error and a Retry-After hint.
    let mut statuses = Vec::new();
    for _ in 0..6 {
        statuses.push(client::get(addr, "/v1/healthz").unwrap());
    }
    let ok = statuses.iter().filter(|r| r.status == 200).count();
    let limited: Vec<_> = statuses.iter().filter(|r| r.status == 429).collect();
    assert_eq!(ok, 3, "exactly the burst is admitted");
    assert_eq!(limited.len(), 3, "the rest is rate limited");
    for r in &limited {
        assert!(
            r.body_str().contains("\"code\": \"rate_limited\""),
            "{}",
            r.body_str()
        );
        let retry_after: u64 = r
            .header("Retry-After")
            .expect("429 carries Retry-After")
            .parse()
            .expect("numeric Retry-After");
        assert!(retry_after >= 1);
    }
    let state = server.state();
    assert_eq!(state.rate_limited.load(Ordering::Relaxed), 3);
    let stats = state.limiter.stats();
    assert!(stats.enabled);
    assert_eq!(stats.limited, 3);
    assert_eq!(stats.clients_tracked, 1, "one loopback client");
    server.shutdown();
}

#[test]
fn statusz_reports_the_admission_and_durability_counters() {
    let server = start(test_config());
    let addr = server.addr();
    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    // The hardening counters are all present from the first scrape, in
    // their quiescent state (memory-only server, nothing shed).
    for (path, expected) in [
        (&["rate_limited"][..], 0),
        (&["shed_timeouts"][..], 0),
        (&["shed_inflight"][..], 0),
        (&["handler_panics"][..], 0),
        (&["inflight_bytes"][..], 0),
        (&["registry", "entries"][..], 0),
        (&["rate_limit", "limited"][..], 0),
        (&["route_tables_from_disk"][..], 0),
    ] {
        assert_eq!(json_counter(s, path), expected, "{path:?} in {s}");
    }
    assert!(json_counter(s, &["inflight_limit"]) > 0, "{s}");
    assert!(
        s.contains("\"disk\": null"),
        "memory-only must report no disk: {s}"
    );
    server.shutdown();
}

#[test]
fn shutdown_endpoint_flags_the_server_loop() {
    let server = start(test_config());
    let addr = server.addr();
    assert!(!server.shutdown_requested());
    let resp = client::post(addr, "/v1/shutdown", "{}").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("shutting down"));
    assert!(
        server.shutdown_requested(),
        "the serve loop polls this flag to exit"
    );
    server.shutdown();
}
