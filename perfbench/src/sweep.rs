//! `sweep-job`: one `POST /v1/jobs` grid of 4 topologies × 3 mappings ×
//! 4 generated workloads on a fresh server, polled to completion over one
//! connection; repeated on a new server until the run's time is up.
//!
//! One route table per topology serves twelve cells and each workload is
//! generated and ingested once per job, so replay, mapping and the
//! per-cell store writes dominate the makespan. The grid runs 512-rank
//! workloads on 512-node machines, so a 30 s run completes only about 60
//! jobs. A 256-rank grid completes 170, but its workers sit idle between
//! cells, so its job time follows the host's thread wake-up latency and
//! spread two to three times as much from run to run.

use crate::http::{request, Body, Exchange};
use crate::inproc;
use crate::report::Report;
use crate::serve::counters;
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::{get as field, RunOpts};
use netloc::bench::sweepjob::run_grid_local;
use netloc::core::canon::{canonical_json, content_digest, digest_hex};
use netloc::core::sweep::GridSpec;
use netloc::core::{ingest_trace, IngestResult};
use netloc::service::cache::TopoCache;
use netloc::service::jobs::cell_bytes_local;
use netloc::service::{RunningServer, Server, ServerConfig};
use netloc::topology::{MappingSpec, TopologySpec};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// A poll waits for a worker to finish the cell it is computing, which
/// takes longer than this interval, so polling more often would add
/// requests without detecting completion sooner. Chosen, not derived from
/// a recorded client.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
const RESTARTS: usize = 15;

/// Generated workloads of the grid at 512 ranks: three point-to-point
/// proxy apps and the collective-only BigFFT.
const WORKLOADS: [&str; 4] = [
    "EXMATEX LULESH:512",
    "AMG:512",
    "Crystal Router:512",
    "BigFFT:512",
];

fn grid(seed: u64) -> GridSpec {
    let jelly = format!("jellyfish:64,6,8,{}", seed % 10_000);
    let topologies = ["torus:8,8,8", "fattree:16,3", "dragonfly:8,4,2", &jelly];
    let mappings = [
        "consecutive".to_string(),
        format!("random:{}", seed % 100_000),
        format!("random-block:2,{}", seed % 100_000 + 1),
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            netloc::workloads::parse_workload_spec(w)
                .expect("benchmark workload")
                .2
        })
        .collect();
    GridSpec::parse(&topologies, &mappings, &workloads).expect("benchmark grid parses")
}

fn submit_body(grid: &GridSpec) -> String {
    let strs = |axis: &[String]| Value::Array(axis.iter().map(|s| Value::Str(s.clone())).collect());
    canonical_json(&Value::Object(vec![
        ("topologies".into(), strs(grid.topologies())),
        ("mappings".into(), strs(grid.mappings())),
        ("workloads".into(), strs(grid.workloads())),
    ]))
}

fn uint(v: Option<&Value>) -> Option<u64> {
    match v? {
        Value::UInt(n) => u64::try_from(*n).ok(),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// One job on its own fresh server.
struct JobRun {
    makespan_s: f64,
    exchanges: Vec<Exchange>,
    /// Cell index → payload, rendered canonically.
    cells: BTreeMap<u64, String>,
    depth_max: usize,
    counters: [(&'static str, u64); 12],
}

fn start(data: &Path) -> Result<RunningServer, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        data_dir: Some(data.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Set-up time: the median of several restarts over the data directory a
/// completed job left behind, each timed until the restarted server has
/// served the job's results again. A restart starts the server, opens the
/// store (scanning every stored cell, table and manifest) and recovers the
/// job (`resume_all` finds every cell durable); the client then resubmits
/// the grid, which the server recognises as the finished job, and reads
/// every cell back from the store in one poll. A start on an empty
/// directory alone is a ~0.2 ms thread spawn, too short to time steadily.
fn setup(dir: &Path, grid: &GridSpec, body: &str) -> Result<f64, String> {
    let data = dir.join("setup");
    let server = start(&data)?;
    let first = drive_job(&server, grid, body);
    server.shutdown();
    let first = first?;
    let mut samples = Vec::new();
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let server = start(&data)?;
        let again = drive_job(&server, grid, body);
        samples.push(t.elapsed().as_secs_f64());
        let jobs = server.state().jobs.stats();
        server.shutdown();
        if again?.cells != first.cells || (jobs.resumed, jobs.cells_computed) != (1, 0) {
            return Err(format!(
                "a restart did not serve the finished job from its store: {jobs:?}"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&data);
    Ok(median(&samples))
}

fn run_job(dir: &Path, k: usize, grid: &GridSpec, body: &str) -> Result<JobRun, String> {
    let data = dir.join(format!("job-{k}"));
    let server = start(&data)?;
    let result = drive_job(&server, grid, body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    result
}

fn drive_job(server: &RunningServer, grid: &GridSpec, body: &str) -> Result<JobRun, String> {
    let addr = server.addr();
    let io = |e: std::io::Error| format!("http: {e}");
    let submit = request(addr, "POST", "/v1/jobs", Body::Whole(body.as_bytes())).map_err(io)?;
    let reply: Value =
        serde_json::from_str(&String::from_utf8_lossy(&submit.body)).map_err(|e| format!("{e}"))?;
    let id = match field(&reply, "id") {
        Some(Value::Str(id)) if submit.ok() => id.clone(),
        _ => return Err(format!("submit answered {}", submit.status)),
    };
    let total = grid.cell_count();
    let started = submit.start;
    let mut run = JobRun {
        makespan_s: 0.0,
        exchanges: vec![submit],
        cells: BTreeMap::new(),
        depth_max: 0,
        counters: counters(server.state()),
    };
    let mut cursor = 0u64;
    loop {
        let poll = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?from={cursor}&limit=512"),
            Body::None,
        )
        .map_err(io)?;
        run.depth_max = run.depth_max.max(server.state().queue.depth());
        let progress: Value = serde_json::from_str(&String::from_utf8_lossy(&poll.body))
            .map_err(|e| format!("{e}"))?;
        let ok = poll.ok();
        let end = poll.end;
        run.exchanges.push(poll);
        if !ok {
            return Err("progress poll failed".into());
        }
        if let Some(Value::Array(cells)) = field(&progress, "cells") {
            for cell in cells {
                if let (Some(index), Some(payload)) =
                    (uint(field(cell, "index")), field(cell, "payload"))
                {
                    run.cells.insert(index, canonical_json(payload));
                }
            }
        }
        while run.cells.contains_key(&cursor) {
            cursor += 1;
        }
        if cursor >= total {
            run.makespan_s = (end - started).as_secs_f64();
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    if let Some(store) = &server.state().store {
        store.flush();
    }
    run.counters = counters(server.state());
    Ok(run)
}

/// Jobs until `seconds` pass (at least `min_jobs`).
fn run_jobs(
    dir: &Path,
    grid: &GridSpec,
    body: &str,
    seconds: f64,
    min_jobs: usize,
) -> (Vec<JobRun>, u64) {
    let start = Instant::now();
    let (mut runs, mut errors) = (Vec::new(), 0);
    let mut k = 0;
    while start.elapsed().as_secs_f64() < seconds || runs.len() + (errors as usize) < min_jobs {
        match run_job(dir, k, grid, body) {
            Ok(run) => runs.push(run),
            Err(e) => {
                eprintln!("sweep-job job {k} failed: {e}");
                errors += 1;
            }
        }
        k += 1;
    }
    (runs, errors)
}

/// Re-execute every cell in-process with spans (op = cell index), the
/// way a service worker computes it: generate and ingest each workload
/// once, build each topology's route table once, then per cell build the
/// topology and mapping, replay and serialize. Returns the cells whose
/// bytes differ from `jobs::cell_bytes_local`.
fn reexec(grid: &GridSpec, spans: &mut Spans, report: &mut Report) -> u64 {
    let mut ingests: HashMap<String, IngestResult> = HashMap::new();
    let routes = TopoCache::default();
    let mut mismatches = 0;
    for index in 0..grid.cell_count() {
        let cell = grid.cell(index).expect("index < cell_count");
        spans.set_op(index);
        if !ingests.contains_key(&cell.workload) {
            let (app, ranks, _) =
                netloc::workloads::parse_workload_spec(&cell.workload).expect("benchmark workload");
            let trace = spans.time("decode", "workloads.generate", || {
                netloc::workloads::generate_workload(app, ranks)
            });
            report.add_layer("workloads.generate.events", trace.events.len() as f64);
            let ing = spans.time("ingest", "core.ingest", || ingest_trace(trace));
            report.add_layer("core.ingest.events", ing.trace.events.len() as f64);
            ingests.insert(cell.workload.clone(), ing);
        }
        let ing = &ingests[&cell.workload];
        let topo_spec: TopologySpec = cell
            .topology
            .parse()
            .expect("grid topologies are canonical");
        let map_spec: MappingSpec = cell.mapping.parse().expect("grid mappings are canonical");
        let digest = spans.time("digest", "core.canon", || {
            digest_hex(content_digest(
                format!("workload:{}", cell.workload).as_bytes(),
            ))
        });
        let bytes = inproc::analyze(spans, report, &routes, ing, digest, &topo_spec, &map_spec);
        if bytes != cell_bytes_local(ing, &cell) {
            eprintln!("sweep-job: in-process cell {index} differs from jobs::cell_bytes_local");
            mismatches += 1;
        }
    }
    mismatches
}

pub fn run(dir: &Path, opts: &RunOpts) -> Report {
    let mut report = Report::new("sweep-job");
    let grid = grid(opts.seed);
    let body = submit_body(&grid);
    report.note(format!(
        "grid of {} cells: topologies {}; mappings {}; workloads {}",
        grid.cell_count(),
        grid.topologies().join(" "),
        grid.mappings().join(" "),
        grid.workloads().join(", ")
    ));
    report.note(format!(
        "1 client connection polling every {} ms, {WORKERS} server workers, {} cores, a fresh server and data directory per job",
        POLL_INTERVAL.as_millis(),
        crate::sys::cores()
    ));
    // A traced run measures half as long: re-executing its work
    // in-process afterwards takes about as long again.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let min_jobs = if opts.tiny { 1 } else { 3 };
    let (setup_s, setup_errors) = match setup(dir, &grid, &body) {
        Ok(s) => (s, 0),
        Err(e) => {
            eprintln!("sweep-job set-up failed: {e}");
            (0.0, 1)
        }
    };
    let (runs, errors) = run_jobs(dir, &grid, &body, seconds, min_jobs);
    let peak = crate::sys::peak_rss_mb();

    // Output checks, outside every timed interval.
    let reference: Vec<String> = run_grid_local(&grid)
        .expect("local grid runs")
        .iter()
        .map(|c| canonical_json(&c.payload))
        .collect();
    let mut attempted = 1 + errors;
    let mut failed = setup_errors + errors;
    for run in &runs {
        attempted += (run.exchanges.len() + reference.len()) as u64;
        failed += run.exchanges.iter().filter(|x| !x.ok()).count() as u64;
        for (index, want) in reference.iter().enumerate() {
            if run.cells.get(&(index as u64)) != Some(want) {
                eprintln!("sweep-job: cell {index} differs from run_grid_local");
                failed += 1;
            }
        }
    }

    let makespans: Vec<f64> = runs.iter().map(|r| r.makespan_s * 1e3).collect();
    let polls: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.exchanges[1..].iter().map(Exchange::total_ms))
        .collect();
    let cells = (runs.len() as u64 * grid.cell_count()) as f64;
    let ops = ratio(cells, makespans.iter().sum::<f64>() / 1e3);
    report.set_e2e("setup_s", setup_s);
    report.set_e2e("peak_rss_mb", peak);
    report.set_e2e("ops_per_s", ops);
    report.set_e2e("heavy_ms.p50", quantile(&makespans, 0.5));
    report.set_e2e("heavy_ms.p90", quantile(&makespans, 0.9));
    report.set_e2e("light_ms.p50", quantile(&polls, 0.5));
    report.set_e2e("light_ms.p90", quantile(&polls, 0.9));
    report.set_detail("setup_s", setup_s);
    report.set_detail("peak_rss_mb", peak);
    report.set_detail("job_makespan_s", median(&makespans) / 1e3);
    report.note(format!(
        "samples: {} jobs, {} polls",
        makespans.len(),
        polls.len()
    ));

    if opts.trace {
        // The client's own timestamps are the `http` spans, so the
        // measured loop is the untraced one and the tracing overhead is 1
        // by construction; the layer spans come from re-executing one
        // grid afterwards.
        let epoch = runs
            .first()
            .and_then(|r| r.exchanges.first())
            .map_or_else(Instant::now, |x| x.start);
        let mut spans = Spans::new(true, epoch);
        for (op, x) in (grid.cell_count()..).zip(runs.iter().flat_map(|r| &r.exchanges)) {
            spans.set_op(op);
            spans.root("http", x.start, x.end);
        }
        attempted += grid.cell_count();
        failed += reexec(&grid, &mut spans, &mut report);
        let exchanges = runs.iter().flat_map(|r| &r.exchanges);
        crate::set_http_layers(&mut report, exchanges.clone());
        report.set_layer(
            "service.jobs.polls",
            (exchanges.count() - runs.len()) as f64,
        );
        // Each job ran on a fresh server, whose counters start at 0.
        for (name, value) in runs.iter().flat_map(|r| &r.counters) {
            report.add_layer(name, *value as f64);
        }
        report.set_layer(
            "service.queue.depth_max",
            runs.iter().map(|r| r.depth_max).max().unwrap_or(0) as f64,
        );
        crate::set_trace_layers(&mut report, &spans, ops, ops);
        crate::write_spans(&spans, "sweep-job", opts.seed);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.set_detail("error_ratio", report.error_ratio());
    report
}
