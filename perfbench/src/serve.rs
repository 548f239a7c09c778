//! `serve-mixed`: a fresh `netloc_service::Server` with a data directory,
//! driven by a closed loop over two client connections on a seeded
//! schedule of trace uploads (whole-body text and chunked columnar), cold
//! analyses, warm analyses and `/v1/stats`/`/v1/metrics` reads.
//!
//! Cold analyses name a new mapping, and every third one a new topology,
//! so they miss the result cache and sometimes build a route table. The
//! service never evicts route tables, so new topologies are 256-node
//! machines: the tables they add stay small next to the rest of the
//! server's memory, and peak RSS does not track request rate. Warm
//! analyses repeat keys against a small and a ~1M-event registered trace;
//! the large one shows what a warm hit pays for re-ingesting its trace.
//!
//! The repository records no usage mix, so the proportions below are a
//! choice, not measured traffic. Each is set by the sampling constraint
//! written next to it.

use crate::gen::{self, Format, SERVE_INPUTS};
use crate::http::{request, Body, Exchange};
use crate::inproc;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::RunOpts;
use netloc::core::canon::{canonical_json, content_digest, digest_hex};
use netloc::core::{ingest_trace, parse_trace_auto, IngestResult};
use netloc::mpi::{parse_trace_columnar, write_trace_columnar};
use netloc::service::cache::TopoCache;
use netloc::service::payload::{self, MetricsResponse, StatsResponse};
use netloc::service::{AppState, RunningServer, Server, ServerConfig};
use netloc::topology::{MappingSpec, RoutedTopology, TopologySpec};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const UPLOAD_CHUNK: usize = 64 * 1024;
const SETUPS: usize = 3;

/// The warm keys (used on both base traces) and the topologies cold
/// analyses reuse with fresh mapping seeds.
const WARM: [(&str, &str); 4] = [
    ("torus:8,8,4", "consecutive"),
    ("fattree:8,4", "random:7"),
    ("dragonfly:8,2,2", "block:2"),
    ("hyperx:4x4x4,4", "consecutive"),
];

/// One block of each client's schedule, shuffled per block: 5 uploads,
/// 5 cold analyses, 7 warm analyses and 3 reads. Each reported class is at
/// least a quarter of the block, so at ~60 requests/s it gets well over
/// 100 samples even in a 15 s traced run. Reads get a few slots only so
/// that they run beside uploads; no percentile is reported for them.
const BLOCK: [u8; 20] = *b"uuuuucccccwwwwwwwrrr";

/// Every fourth warm analysis targets the large base trace. At a 25 %
/// share the warm p90 falls inside the large-trace group and the p50
/// inside the small-trace group, each 15 points from the boundary, so
/// neither quantile sits between two input groups.
const LARGE_EVERY: usize = 4;

/// Every third cold analysis names a new topology and so builds a route
/// table. At a one-third share the cold p90 falls among the table builds
/// and the p50 among the mapping-only misses.
const NEW_TOPOLOGY_EVERY: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Op {
    Upload(usize),
    Cold { topology: String, mapping: String },
    Warm { base: usize, key: usize },
    Stats,
    Metrics,
}

struct Sample {
    op: Op,
    x: Exchange,
}

fn cold_key(k: usize, seed: u64) -> Op {
    let mapping = format!("random:{}", (seed % 1000) * 1_000_000 + k as u64 + 1);
    let topology = if k.is_multiple_of(NEW_TOPOLOGY_EVERY) {
        format!(
            "jellyfish:64,6,4,{}",
            (seed % 1000) * 1_000_000 + k as u64 + 1
        )
    } else {
        WARM[k % WARM.len()].0.to_string()
    };
    Op::Cold { topology, mapping }
}

struct Bases {
    bytes: [Vec<u8>; 2],
    digests: [String; 2],
}

fn analyze_body(digest: &str, topology: &str, mapping: &str) -> String {
    format!(
        "{{\"trace_digest\":\"{digest}\",\"topology\":\"{topology}\",\"mapping\":\"{mapping}\"}}"
    )
}

fn send(
    addr: SocketAddr,
    op: &Op,
    bases: &Bases,
    uploads: &[Vec<u8>],
) -> std::io::Result<Exchange> {
    match op {
        Op::Upload(i) => {
            let body = match SERVE_INPUTS[i + 2].format {
                Format::Text => Body::Whole(&uploads[*i]),
                Format::Columnar => Body::Chunked(&uploads[*i], UPLOAD_CHUNK),
            };
            request(addr, "POST", "/v1/traces", body)
        }
        Op::Cold { topology, mapping } => {
            let body = analyze_body(&bases.digests[0], topology, mapping);
            request(addr, "POST", "/v1/analyze", Body::Whole(body.as_bytes()))
        }
        Op::Warm { base, key } => {
            let (topology, mapping) = WARM[*key];
            let body = analyze_body(&bases.digests[*base], topology, mapping);
            request(addr, "POST", "/v1/analyze", Body::Whole(body.as_bytes()))
        }
        Op::Stats | Op::Metrics => {
            let path = if *op == Op::Stats {
                "/v1/stats"
            } else {
                "/v1/metrics"
            };
            let body = format!("{{\"trace_digest\":\"{}\"}}", bases.digests[0]);
            request(addr, "POST", path, Body::Whole(body.as_bytes()))
        }
    }
}

/// Start a server on a fresh data directory and register both base
/// traces; returns the server and the set-up time.
fn setup(dir: &Path, k: usize, bases: &Bases) -> (RunningServer, f64) {
    let data = dir.join(format!("data-{k}"));
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        max_body_bytes: 64 << 20,
        data_dir: Some(data),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let small = request(
        server.addr(),
        "POST",
        "/v1/traces",
        Body::Whole(&bases.bytes[0]),
    );
    let large = request(
        server.addr(),
        "POST",
        "/v1/traces",
        Body::Chunked(&bases.bytes[1], UPLOAD_CHUNK),
    );
    let elapsed = t.elapsed().as_secs_f64();
    for (i, x) in [small, large].into_iter().enumerate() {
        let x = x.expect("base trace registers");
        let body = String::from_utf8_lossy(&x.body);
        assert!(
            x.ok() && body.contains(&bases.digests[i]),
            "base trace {i} registration: {body}"
        );
    }
    // Warm-up, outside set-up and measurement: compute every warm key once.
    for base in 0..2 {
        for key in 0..WARM.len() {
            let x =
                send(server.addr(), &Op::Warm { base, key }, bases, &[]).expect("priming request");
            assert!(x.ok(), "priming {base}/{key} answered {}", x.status);
        }
    }
    (server, elapsed)
}

/// Server counters, each under the per-layer metric it feeds; the
/// metrics are deltas over the measured loop.
pub fn counters(state: &AppState) -> [(&'static str, u64); 12] {
    let cache = state.result_cache.stats();
    let disk = state.store.as_ref().map(|s| s.stats());
    let disk = |f: fn(&netloc::service::store::DiskStoreStats) -> u64| disk.as_ref().map_or(0, f);
    let jobs = state.jobs.stats();
    [
        ("service.cache.result_hits", cache.hits),
        ("service.cache.result_misses", cache.misses),
        ("service.cache.registry_hits", state.registry.stats().hits),
        ("service.store.writes", disk(|d| d.writes)),
        (
            "service.store.bytes_written",
            disk(|d| d.results.bytes + d.tables.bytes + d.traces.bytes + d.jobs.bytes),
        ),
        ("service.store.reads", disk(|d| d.hits + d.misses)),
        (
            "service.ingest.events",
            state.ingest_events.load(Ordering::Relaxed),
        ),
        (
            "service.queue.rejected",
            state.rejected.load(Ordering::Relaxed),
        ),
        (
            "service.queue.shed",
            state.shed_timeouts.load(Ordering::Relaxed)
                + state.inflight.shed()
                + state.rate_limited.load(Ordering::Relaxed),
        ),
        (
            "topology.routes.restores",
            state.topo_cache.tables_from_disk(),
        ),
        ("service.jobs.cells_done", jobs.cells_completed),
        ("service.jobs.cells_recomputed", jobs.cells_recomputed),
    ]
}

/// Add the counter deltas `after - before` to the per-layer metrics.
pub fn add_counters(
    report: &mut Report,
    before: &[(&'static str, u64); 12],
    after: &[(&'static str, u64); 12],
) {
    for ((name, b), (_, a)) in before.iter().zip(after) {
        report.add_layer(name, a.saturating_sub(*b) as f64);
    }
}

/// The closed loop: `CLIENTS` threads, each sending its next request once
/// the previous one completed, until `seconds` pass.
struct Drive {
    samples: Vec<Sample>,
    wall_s: f64,
    depth_max: usize,
    errors: u64,
}

fn drive(
    server: &RunningServer,
    bases: &Bases,
    uploads: &[Vec<u8>],
    seed: u64,
    seconds: f64,
    min_ops: usize,
) -> Drive {
    let addr = server.addr();
    let state = server.state();
    let cold_next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cold_next = &cold_next;
                scope.spawn(move || {
                    let mut rng = gen::stream(seed, &format!("client-{c}"));
                    let (mut block, mut samples, mut depth_max, mut errors) =
                        (Vec::new(), Vec::new(), 0, 0u64);
                    let (mut warm, mut up, mut reads) = (0usize, c * 3, 0usize);
                    while start.elapsed().as_secs_f64() < seconds || samples.len() < min_ops {
                        if block.is_empty() {
                            block = BLOCK.to_vec();
                            rng.shuffle(&mut block);
                        }
                        let op = match block.pop().expect("refilled above") {
                            b'u' => {
                                up += 1;
                                Op::Upload(up % uploads.len())
                            }
                            b'c' => cold_key(cold_next.fetch_add(1, Ordering::Relaxed), seed),
                            b'w' => {
                                warm += 1;
                                let base = usize::from(warm % LARGE_EVERY == 0);
                                Op::Warm {
                                    base,
                                    key: (warm / LARGE_EVERY + c) % WARM.len(),
                                }
                            }
                            _ => {
                                reads += 1;
                                if reads % 2 == 0 {
                                    Op::Stats
                                } else {
                                    Op::Metrics
                                }
                            }
                        };
                        match send(addr, &op, bases, uploads) {
                            Ok(x) => samples.push(Sample { op, x }),
                            Err(e) => {
                                eprintln!("serve-mixed request {op:?} failed: {e}");
                                errors += 1;
                            }
                        }
                        depth_max = depth_max.max(state.queue.depth());
                    }
                    (samples, depth_max, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut d = Drive {
        samples: Vec::new(),
        wall_s,
        depth_max: 0,
        errors: 0,
    };
    for (samples, depth, errors) in per_client {
        d.samples.extend(samples);
        d.depth_max = d.depth_max.max(depth);
        d.errors += errors;
    }
    d.samples.sort_by_key(|s| s.x.start);
    d
}

fn ms_of<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.x.total_ms()).collect()
}

/// Expected bodies, computed in-process after the measurement.
struct Oracle<'a> {
    bases: [IngestResult; 2],
    digests: &'a [String; 2],
    uploads: Vec<(String, usize)>,
    analyses: HashMap<(usize, String, String), Vec<u8>>,
    stats: Vec<u8>,
    metrics: Vec<u8>,
}

impl<'a> Oracle<'a> {
    fn new(bases: &'a Bases, uploads: &[Vec<u8>]) -> Self {
        let ingest = |b: &[u8]| ingest_trace(parse_trace_auto(b).expect("generated trace parses"));
        let small = ingest(&bases.bytes[0]);
        let stats =
            canonical_json(&StatsResponse::from_parts(&small.trace, &small.stats)).into_bytes();
        let metrics =
            canonical_json(&MetricsResponse::from_matrix(&small.trace, &small.p2p)).into_bytes();
        Oracle {
            bases: [small, ingest(&bases.bytes[1])],
            digests: &bases.digests,
            uploads: uploads
                .iter()
                .map(|b| {
                    let events = parse_trace_auto(b)
                        .expect("generated trace parses")
                        .events
                        .len();
                    (digest_hex(content_digest(b)), events)
                })
                .collect(),
            analyses: HashMap::new(),
            stats,
            metrics,
        }
    }

    fn analysis(&mut self, base: usize, topology: &str, mapping: &str) -> &[u8] {
        let key = (base, topology.to_string(), mapping.to_string());
        let (bases, digests) = (&self.bases, self.digests);
        self.analyses.entry(key).or_insert_with(|| {
            let ing = &bases[base];
            let topo_spec = topology
                .parse::<TopologySpec>()
                .expect("benchmark topology parses")
                .resolve(ing.trace.num_ranks);
            let map_spec: MappingSpec = mapping.parse().expect("benchmark mapping parses");
            let topo = topo_spec.build().expect("benchmark topology builds");
            let routed = RoutedTopology::direct(topo.as_ref());
            let resp = payload::analyze(
                &ing.trace,
                &ing.matrix,
                digests[base].clone(),
                &topo_spec,
                &map_spec,
                &routed,
            )
            .expect("benchmark mapping fits");
            canonical_json(&resp).into_bytes()
        })
    }

    /// Whether the response is the expected one.
    fn check(&mut self, s: &Sample) -> bool {
        if !s.x.ok() {
            return false;
        }
        match &s.op {
            Op::Upload(i) => {
                let (digest, events) = &self.uploads[*i];
                let body = String::from_utf8_lossy(&s.x.body);
                body.contains(&format!("\"digest\": \"{digest}\""))
                    && body.contains(&format!("\"events\": {events},"))
            }
            Op::Cold { topology, mapping } => self.analysis(0, topology, mapping) == s.x.body,
            Op::Warm { base, key } => self.analysis(*base, WARM[*key].0, WARM[*key].1) == s.x.body,
            Op::Stats => self.stats == s.x.body,
            Op::Metrics => self.metrics == s.x.body,
        }
    }
}

/// Re-execute each request's handler path in-process with spans (op =
/// sample index): digest, decode, ingest, then for cold analyses topology
/// build, route build on first use of a topology, mapping, replay and
/// serialization. Returns how many re-executed bodies differ from the
/// served ones.
fn reexec(
    samples: &[Sample],
    bases: &Bases,
    uploads: &[Vec<u8>],
    spans: &mut Spans,
    report: &mut Report,
) -> u64 {
    let routes = TopoCache::default();
    for (topology, _) in WARM {
        // Built while priming, before the measured loop.
        inproc::prebuild(&routes, &topology.parse().expect("warm topology parses"));
    }
    let mut mismatches = 0;
    for (i, s) in samples.iter().enumerate() {
        spans.set_op(i as u64);
        let bytes: &[u8] = match &s.op {
            Op::Upload(u) => &uploads[*u],
            Op::Cold { .. } => &bases.bytes[0],
            Op::Warm { base, .. } => &bases.bytes[*base],
            Op::Stats | Op::Metrics => continue,
        };
        report.add_layer("mpi.decode.bytes", bytes.len() as f64);
        let digest = spans.time("digest", "core.canon", || digest_hex(content_digest(bytes)));
        if let Op::Upload(u) = s.op {
            if SERVE_INPUTS[u + 2].format == Format::Columnar {
                // The streamed lane decodes and registers the canonical
                // re-encoding; it does not fold the trace.
                let trace = spans.time("decode", "mpi.decode", || parse_trace_columnar(bytes));
                let trace = trace.expect("generated trace parses");
                report.add_layer("mpi.decode.events", trace.events.len() as f64);
                spans.time("serialize", "mpi.encode", || write_trace_columnar(&trace));
                continue;
            }
        }
        let trace = spans.time("decode", "mpi.decode", || parse_trace_auto(bytes));
        let ing = spans.time("ingest", "core.ingest", || {
            ingest_trace(trace.expect("generated trace parses"))
        });
        let events = ing.trace.events.len() as f64;
        report.add_layer("mpi.decode.events", events);
        report.add_layer("core.ingest.events", events);
        let Op::Cold { topology, mapping } = &s.op else {
            continue;
        };
        let topo_spec = topology
            .parse::<TopologySpec>()
            .expect("benchmark topology parses")
            .resolve(ing.trace.num_ranks);
        let map_spec: MappingSpec = mapping.parse().expect("benchmark mapping parses");
        let body = inproc::analyze(spans, report, &routes, &ing, digest, &topo_spec, &map_spec);
        if s.x.ok() && body != s.x.body {
            eprintln!(
                "serve-mixed: in-process re-execution of {:?} differs from the served body",
                s.op
            );
            mismatches += 1;
        }
    }
    mismatches
}

/// The measured loop and the server counters around it.
struct Measured {
    drive: Drive,
    before: [(&'static str, u64); 12],
    after: [(&'static str, u64); 12],
}

fn measure(
    server: &RunningServer,
    bases: &Bases,
    uploads: &[Vec<u8>],
    seed: u64,
    seconds: f64,
    min_ops: usize,
) -> Measured {
    let before = counters(server.state());
    let drive = drive(server, bases, uploads, seed, seconds, min_ops);
    if let Some(store) = &server.state().store {
        store.flush();
    }
    Measured {
        drive,
        before,
        after: counters(server.state()),
    }
}

fn stop(server: RunningServer, dir: &Path, k: usize) {
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir.join(format!("data-{k}")));
}

pub fn run(dir: &Path, opts: &RunOpts) -> Report {
    let mut report = Report::new("serve-mixed");
    gen::generate("serve-mixed", opts.seed, opts.tiny, dir);
    let read = |i: usize| std::fs::read(dir.join(SERVE_INPUTS[i].file)).expect("generated input");
    let bases = {
        let bytes = [read(0), read(1)];
        let digests = [
            digest_hex(content_digest(&bytes[0])),
            digest_hex(content_digest(&bytes[1])),
        ];
        Bases { bytes, digests }
    };
    let uploads: Vec<Vec<u8>> = (2..SERVE_INPUTS.len()).map(read).collect();
    for (i, input) in SERVE_INPUTS.iter().enumerate() {
        let bytes = if i < 2 {
            bases.bytes[i].len()
        } else {
            uploads[i - 2].len()
        };
        report.note(format!(
            "{}: {} traffic, {} ranks, {} events, {bytes} bytes",
            input.file,
            input.pattern.name(),
            input.pattern.ranks(),
            input.events(opts.tiny)
        ));
    }
    report.note(format!(
        "{CLIENTS} client connections (closed loop), {WORKERS} server workers, {} cores; warm keys on torus:8,8,4, fattree:8,4, dragonfly:8,2,2, hyperx:4x4x4,4; new topologies are 256-node jellyfish",
        crate::sys::cores()
    ));

    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let (s, t) = setup(dir, k, &bases);
        setups.push(t);
        if let Some(old) = server.replace(s) {
            stop(old, dir, k - 1);
        }
    }
    let server = server.expect("at least one set-up");
    let min_ops = if opts.tiny { BLOCK.len() } else { 1 };
    // A traced run measures half as long: re-executing its requests
    // in-process afterwards takes about as long again.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = measure(&server, &bases, &uploads, opts.seed, seconds, min_ops);
    let peak = crate::sys::peak_rss_mb();
    stop(server, dir, SETUPS - 1);

    // Output checks, outside every timed interval.
    let mut oracle = Oracle::new(&bases, &uploads);
    let attempted = plain.drive.samples.len() as u64 + plain.drive.errors;
    let mut failed = plain.drive.errors;
    for s in &plain.drive.samples {
        if !oracle.check(s) {
            eprintln!(
                "serve-mixed: {:?} answered {} with unexpected bytes",
                s.op, s.x.status
            );
            failed += 1;
        }
    }

    let samples = &plain.drive.samples;
    let cold = ms_of(samples.iter().filter(|s| matches!(s.op, Op::Cold { .. })));
    let warm = ms_of(samples.iter().filter(|s| matches!(s.op, Op::Warm { .. })));
    let upload = ms_of(samples.iter().filter(|s| matches!(s.op, Op::Upload(_))));
    let ops = samples.len() as f64 / plain.drive.wall_s;
    let setup_s = median(&setups);
    report.set_e2e("setup_s", setup_s);
    report.set_e2e("peak_rss_mb", peak);
    report.set_e2e("ops_per_s", ops);
    report.set_e2e("heavy_ms.p50", quantile(&cold, 0.5));
    report.set_e2e("heavy_ms.p90", quantile(&cold, 0.9));
    report.set_e2e("light_ms.p50", quantile(&warm, 0.5));
    report.set_e2e("light_ms.p90", quantile(&warm, 0.9));
    report.set_detail("setup_s", setup_s);
    report.set_detail("peak_rss_mb", peak);
    report.set_detail("ops_per_s", ops);
    report.set_detail("analyze_cold_ms.p50", quantile(&cold, 0.5));
    report.set_detail("analyze_cold_ms.p90", quantile(&cold, 0.9));
    report.set_detail("analyze_warm_ms.p50", quantile(&warm, 0.5));
    report.set_detail("analyze_warm_ms.p90", quantile(&warm, 0.9));
    report.set_detail("upload_ms.p50", quantile(&upload, 0.5));
    report.set_detail("upload_ms.p90", quantile(&upload, 0.9));
    report.note(format!(
        "samples: {} cold, {} warm, {} upload, {} read",
        cold.len(),
        warm.len(),
        upload.len(),
        samples.len() - cold.len() - warm.len() - upload.len()
    ));

    if opts.trace {
        // The client's own timestamps are the `http` spans, so the
        // measured loop is the untraced one and the tracing overhead is 1
        // by construction; the layer spans come from re-executing each
        // request afterwards.
        let samples = &plain.drive.samples;
        let mut spans = Spans::new(
            true,
            samples.first().map_or_else(Instant::now, |s| s.x.start),
        );
        for (i, s) in samples.iter().enumerate() {
            spans.set_op(i as u64);
            spans.root("http", s.x.start, s.x.end);
        }
        failed += reexec(samples, &bases, &uploads, &mut spans, &mut report);
        layers(&mut report, &plain, &spans, opts.tiny);
        crate::write_spans(&spans, "serve-mixed", opts.seed);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.set_detail("error_ratio", report.error_ratio());
    report
}

fn layers(report: &mut Report, measured: &Measured, spans: &Spans, tiny: bool) {
    let samples = &measured.drive.samples;
    crate::set_http_layers(report, samples.iter().map(|s| &s.x));
    add_counters(report, &measured.before, &measured.after);
    report.set_layer("service.queue.depth_max", measured.drive.depth_max as f64);
    // Events that had to be folded: uploads, and analyses or reads whose
    // answer was not cached. Warm hits that ingest again are the waste.
    let ingested = report.layers["service.ingest.events"];
    let useful: f64 = samples
        .iter()
        .filter(|s| s.x.ok())
        .map(|s| match &s.op {
            Op::Upload(i) => SERVE_INPUTS[i + 2].events(tiny) as f64,
            Op::Cold { .. } | Op::Stats | Op::Metrics => SERVE_INPUTS[0].events(tiny) as f64,
            Op::Warm { .. } => 0.0,
        })
        .sum();
    report.set_layer("service.ingest.useful_ratio", ratio(useful, ingested));

    // The in-process split of analysis latency: the re-executed handler
    // path versus the service remainder (HTTP, queue, caches, store).
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (i, s) in samples.iter().enumerate() {
        let inproc = spans.op_child_s(i as u64) * 1e3;
        match s.op {
            Op::Cold { .. } => cold.push((inproc, s.x.total_ms() - inproc)),
            Op::Warm { .. } => warm.push((inproc, s.x.total_ms() - inproc)),
            _ => {}
        }
    }
    let part =
        |v: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    report.set_layer("split.cold.inproc_ms.p50", part(&cold, |p| p.0));
    report.set_layer("split.cold.service_ms.p50", part(&cold, |p| p.1));
    report.set_layer("split.warm.inproc_ms.p50", part(&warm, |p| p.0));
    report.set_layer("split.warm.service_ms.p50", part(&warm, |p| p.1));
    let ops = samples.len() as f64 / measured.drive.wall_s;
    crate::set_trace_layers(report, spans, ops, ops);
}
