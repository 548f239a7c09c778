//! Fault and integration tests for the resumable job subsystem:
//! SIGKILL mid-job + restart resumes from durable cells without
//! recomputing them, cancellation frees the background lane, half-open
//! progress pollers leak nothing, oversized grids get structured 413s,
//! and a fleet merge is byte-identical to a local run.

use netloc::bench::sweepjob::{self, RemoteOptions};
use netloc::core::sweep::GridSpec;
use netloc::service::jobs::{self, ShardSpec};
use netloc::service::store::Kind;
use netloc::service::{DiskStore, RunningServer, Server, ServerConfig};
use netloc::testkit::client;
use netloc::testkit::fault;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netloc-jobs-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn statusz_counter(addr: SocketAddr, path: &[&str]) -> u64 {
    let resp = client::get(addr, "/v1/statusz").expect("statusz answers");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    json_counter(resp.body_str(), path)
}

fn json_str_field(body: &str, name: &str) -> String {
    let value = serde_json::from_str(body).expect("valid JSON");
    let serde::Value::Object(fields) = value else {
        panic!("expected object")
    };
    match fields.into_iter().find(|(k, _)| k == name) {
        Some((_, serde::Value::Str(s))) => s,
        other => panic!("expected string field '{name}', got {other:?}"),
    }
}

fn small_grid() -> GridSpec {
    GridSpec::parse(
        &["mesh:3,3,3", "torus:3,3,3"],
        &["consecutive", "random:7"],
        &["EXMATEX LULESH:27", "MiniFE:27"],
    )
    .expect("valid grid")
}

fn submit_body_json(grid: &GridSpec, seed: u64, count: u32, index: u32) -> String {
    let quote = |axis: &[String]| {
        axis.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"topologies\": [{}], \"mappings\": [{}], \"workloads\": [{}], \
         \"shard\": {{\"count\": {count}, \"index\": {index}, \"seed\": {seed}}}}}",
        quote(grid.topologies()),
        quote(grid.mappings()),
        quote(grid.workloads()),
    )
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    loop {
        if done() {
            return true;
        }
        if Instant::now() > until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Satellite (c): a two-instance fleet merge produces byte-identical
/// CSV and SVG reports to a purely local run of the same grid.
#[test]
fn fleet_merge_is_byte_identical_to_local_run() {
    let (dir_a, dir_b) = (tmpdir("fleet-a"), tmpdir("fleet-b"));
    let server_a = start(ServerConfig {
        data_dir: Some(dir_a.clone()),
        ..test_config()
    });
    let server_b = start(ServerConfig {
        data_dir: Some(dir_b.clone()),
        ..test_config()
    });
    let grid = small_grid();

    let opts = RemoteOptions {
        seed: 42,
        poll_interval: Duration::from_millis(20),
        deadline: Duration::from_secs(60),
    };
    let remote =
        sweepjob::run_grid_remote(&grid, &[server_a.addr(), server_b.addr()], &opts).unwrap();
    let local = sweepjob::run_grid_local(&grid).unwrap();

    assert_eq!(
        sweepjob::render_csv(&remote),
        sweepjob::render_csv(&local),
        "fleet CSV must match the local run byte-for-byte"
    );
    assert_eq!(
        sweepjob::render_svg(&remote),
        sweepjob::render_svg(&local),
        "fleet SVG must match the local run byte-for-byte"
    );

    // The shards were disjoint and covering: each instance computed only
    // its assigned cells, and together they computed all of them.
    let a_done = statusz_counter(server_a.addr(), &["jobs", "cells_completed"]);
    let b_done = statusz_counter(server_b.addr(), &["jobs", "cells_completed"]);
    assert!(a_done >= 1 && b_done >= 1, "both shards must do work");
    assert_eq!(a_done + b_done, grid.cell_count());

    server_a.shutdown();
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Job ids are content-addressed: resubmitting the same grid — under
/// different axis spellings — answers with the same job instead of
/// recomputing, which is what makes client resume-after-restart safe.
#[test]
fn resubmission_is_idempotent_across_spellings() {
    let server = start(test_config());
    let addr = server.addr();

    let first = client::post(
        addr,
        "/v1/jobs",
        "{\"topologies\": [\"torus:3,3,3\", \"mesh:3,3,3\"], \
          \"mappings\": [\"random:7\", \"consecutive\"], \
          \"workloads\": [\"lulesh:27\", \"minife:27\"]}",
    )
    .unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    let id = json_str_field(first.body_str(), "id");

    // Same grid: shuffled axes, canonical app spellings, zero-padded
    // topology extents.
    let second = client::post(
        addr,
        "/v1/jobs",
        "{\"topologies\": [\"mesh:03,3,3\", \"torus:3,3,3\"], \
          \"mappings\": [\"consecutive\", \"random:7\"], \
          \"workloads\": [\"MiniFE:27\", \"EXMATEX LULESH:27\"]}",
    )
    .unwrap();
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert_eq!(json_str_field(second.body_str(), "id"), id);
    assert_eq!(statusz_counter(addr, &["jobs", "jobs"]), 1);
    assert_eq!(statusz_counter(addr, &["jobs", "submitted"]), 1);

    // Wait for completion; every cell shows up exactly once in progress.
    assert!(
        wait_until(Duration::from_secs(60), || {
            let resp = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
            resp.body_str().contains("\"status\": \"complete\"")
        }),
        "job must complete"
    );
    let resp = client::get(addr, &format!("/v1/jobs/{id}?from=0&limit=4096")).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_counter(resp.body_str(), &["completed_cells"]), 8);
    server.shutdown();
}

/// A finished job's cells are entries of the interactive result cache:
/// analyzing one cell's workload, topology and mapping returns that
/// cell's bytes as a result hit, without generating or folding the
/// workload's trace.
#[test]
fn job_cells_answer_interactive_analyses_without_ingest() {
    let server = start(test_config());
    let addr = server.addr();
    let grid = small_grid();
    // One shard of one: every cell is assigned.
    let submitted = client::post(addr, "/v1/jobs", &submit_body_json(&grid, 0, 1, 0)).unwrap();
    assert_eq!(submitted.status, 200, "{}", submitted.body_str());
    let id = json_str_field(submitted.body_str(), "id");
    assert!(
        wait_until(Duration::from_secs(60), || {
            let resp = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
            resp.body_str().contains("\"status\": \"complete\"")
        }),
        "job must complete"
    );

    let cell = grid.cell(grid.cell_count() - 1).expect("last cell exists");
    let (app, ranks, _) = netloc::workloads::parse_workload_spec(&cell.workload).unwrap();
    let ingest = netloc::core::ingest_trace(netloc::workloads::generate_workload(app, ranks));
    let expected = netloc::service::jobs::cell_bytes_local(&ingest, &cell);

    let (hits, events) = (
        statusz_counter(addr, &["result_cache", "hits"]),
        statusz_counter(addr, &["ingest_events"]),
    );
    let resp = client::post(
        addr,
        "/v1/analyze",
        &format!(
            "{{\"workload\": \"{}\", \"topology\": \"{}\", \"mapping\": \"{}\"}}",
            cell.workload, cell.topology, cell.mapping
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body, expected, "analyze must serve the cell's bytes");
    assert_eq!(statusz_counter(addr, &["result_cache", "hits"]), hits + 1);
    assert_eq!(
        statusz_counter(addr, &["ingest_events"]),
        events,
        "a result hit must not ingest the workload"
    );
    server.shutdown();
}

/// Satellite (b): an oversized synchronous sweep is refused with a
/// structured 413 pointing at the job subsystem, and an oversized job
/// grid gets the same code at its own cap.
#[test]
fn oversized_grids_answer_structured_413s() {
    let server = start(ServerConfig {
        sweep_cell_cap: 4,
        job_cell_cap: 8,
        ..test_config()
    });
    let addr = server.addr();

    // 1 topology × 5 mappings × 1 workload = 5 cells > sweep cap 4.
    let sweep = client::post(
        addr,
        "/v1/sweep",
        "{\"trace\": \"bogus\", \"topology\": \"torus:3,3,3\", \
          \"mappings\": [\"consecutive\", \"random:1\", \"random:2\", \"random:3\", \"random:4\"]}",
    )
    .unwrap();
    assert_eq!(sweep.status, 413, "{}", sweep.body_str());
    assert!(
        sweep.body_str().contains("\"code\": \"grid_too_large\""),
        "sweep 413 must carry the structured code: {}",
        sweep.body_str()
    );
    assert!(
        sweep.body_str().contains("/v1/jobs"),
        "sweep 413 must point at the job subsystem: {}",
        sweep.body_str()
    );

    // 2 × 3 × 2 = 12 cells > job cap 8.
    let job = client::post(
        addr,
        "/v1/jobs",
        "{\"topologies\": [\"torus:3,3,3\", \"mesh:3,3,3\"], \
          \"mappings\": [\"consecutive\", \"random:1\", \"random:2\"], \
          \"workloads\": [\"lulesh:27\", \"minife:27\"]}",
    )
    .unwrap();
    assert_eq!(job.status, 413, "{}", job.body_str());
    assert!(
        job.body_str().contains("\"code\": \"grid_too_large\""),
        "job 413 must carry the structured code: {}",
        job.body_str()
    );
    server.shutdown();
}

/// Cancelling a job mid-flight skips its queued cells (counted, not
/// computed), drains the background lane, and leaves the server fully
/// responsive to interactive traffic.
#[test]
fn cancel_mid_job_frees_the_queue() {
    // One worker plus a per-request handler delay: the submit reply, the
    // cancel, and the first cells all serialize through a single thread,
    // and interactive work (the DELETE) always outranks queued cells —
    // so the cancel lands before most of the 64 cells run.
    let server = start(ServerConfig {
        workers: 1,
        handler_delay: Duration::from_millis(50),
        ..test_config()
    });
    let addr = server.addr();

    let mappings: Vec<String> = (0..8).map(|i| format!("\"random:{i}\"")).collect();
    let workloads: Vec<String> = (0..8).map(|i| format!("\"lulesh:{}\"", 8 + i)).collect();
    let body = format!(
        "{{\"topologies\": [\"torus:3,3,3\"], \"mappings\": [{}], \"workloads\": [{}]}}",
        mappings.join(", "),
        workloads.join(", ")
    );
    let submitted = client::post(addr, "/v1/jobs", &body).unwrap();
    assert_eq!(submitted.status, 200, "{}", submitted.body_str());
    let id = json_str_field(submitted.body_str(), "id");

    let cancelled = client::delete(addr, &format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(cancelled.status, 200, "{}", cancelled.body_str());
    assert!(
        cancelled.body_str().contains("\"status\": \"cancelled\""),
        "{}",
        cancelled.body_str()
    );

    // The lane drains — skipped cells are counted, never computed — and
    // interactive traffic keeps flowing.
    assert!(
        wait_until(Duration::from_secs(30), || {
            statusz_counter(addr, &["queue_background_depth"]) == 0
        }),
        "background lane must drain after cancellation"
    );
    assert!(statusz_counter(addr, &["jobs", "cells_cancelled"]) >= 1);
    assert_eq!(statusz_counter(addr, &["jobs", "cancelled"]), 1);
    let health = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);

    // Progress still answers for a cancelled job, and stays cancelled.
    let resp = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"status\": \"cancelled\""));
    // Cancelling again is idempotent.
    let again = client::delete(addr, &format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(again.status, 200);
    assert!(again.body_str().contains("\"status\": \"cancelled\""));
    server.shutdown();
}

/// Half-open and mid-request-hangup clients against the job endpoints
/// leak nothing: inflight bytes return to zero, no worker wedges, and a
/// well-behaved poller still gets full progress afterwards.
#[test]
fn half_open_progress_pollers_leak_nothing() {
    let server = start(ServerConfig {
        io_timeout: Duration::from_millis(200),
        progress_deadline: Duration::from_millis(500),
        ..test_config()
    });
    let addr = server.addr();

    let grid = small_grid();
    let submitted = client::post(addr, "/v1/jobs", &submit_body_json(&grid, 0, 1, 0)).unwrap();
    assert_eq!(submitted.status, 200, "{}", submitted.body_str());
    let id = json_str_field(submitted.body_str(), "id");

    // A volley of misbehaving pollers: connections that never send a
    // request, and requests whose bodies stop halfway.
    let mut half_open = Vec::new();
    for _ in 0..4 {
        half_open.push(fault::half_open_request(addr).unwrap());
    }
    for _ in 0..4 {
        let _ = fault::drop_mid_request(addr, "/v1/jobs", 4096);
    }
    drop(half_open);

    // The job still completes and a real poller reads every cell.
    assert!(
        wait_until(Duration::from_secs(60), || {
            let resp = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
            resp.status == 200 && resp.body_str().contains("\"status\": \"complete\"")
        }),
        "job must complete despite misbehaving pollers"
    );
    let resp = client::get(addr, &format!("/v1/jobs/{id}?from=0&limit=4096")).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        json_counter(resp.body_str(), &["completed_cells"]),
        grid.cell_count()
    );
    // Nothing leaked: inflight accounting is back to zero.
    assert!(
        wait_until(Duration::from_secs(10), || {
            statusz_counter(addr, &["inflight_bytes"]) == 0
        }),
        "inflight bytes must return to zero"
    );
    server.shutdown();
}

/// A stored manifest is decoded like a submission, so one whose shard
/// selector `POST /v1/jobs` would reject (`count` 0, or `index` not below
/// `count`) is dropped at startup like any manifest that does not parse:
/// no job is listed or resumed, and its frame leaves the store.
#[test]
fn manifests_with_invalid_shards_are_dropped_at_startup() {
    for (count, index) in [(0u32, 0u32), (2, 2)] {
        let dir = tmpdir("bad-shard");
        let grid = small_grid();
        let seed = 3u64;
        let id = jobs::job_id(&grid, Some(ShardSpec { count, index, seed }));
        {
            let store = DiskStore::open(&dir).unwrap();
            let manifest = submit_body_json(&grid, seed, count, index);
            store.put(Kind::Job, &id, manifest.as_bytes());
            store.flush();
        }

        let server = start(ServerConfig {
            data_dir: Some(dir.clone()),
            ..test_config()
        });
        let addr = server.addr();
        let listed = client::get(addr, "/v1/jobs").unwrap();
        assert_eq!(listed.status, 200, "{}", listed.body_str());
        let serde::Value::Object(fields) = serde_json::from_str(listed.body_str()).unwrap() else {
            panic!("the job list is an object");
        };
        assert!(
            matches!(&fields[..], [(k, serde::Value::Array(jobs))] if k == "jobs" && jobs.is_empty()),
            "shard {index}/{count}: {}",
            listed.body_str()
        );
        assert_eq!(statusz_counter(addr, &["jobs", "resumed"]), 0);
        server.shutdown();
        assert!(
            DiskStore::open(&dir).unwrap().scan(Kind::Job).is_empty(),
            "shard {index}/{count}: the manifest frame must be gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Spawn the real `netloc serve` binary on an ephemeral port with a
/// data dir and return (child, addr) once it reports its listening
/// address.
#[cfg(unix)]
fn spawn_serve(dir: &Path) -> (std::process::Child, SocketAddr) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_netloc"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
        ])
        .arg(dir)
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("netloc serve spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve must print its address before exiting")
            .expect("readable stderr");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or(rest);
            break addr.parse().expect("parsable listen address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The tentpole guarantee: SIGKILL a server mid-job, restart it on the
/// same data dir and port, and the job resumes from its last durable
/// cell — zero durable cells recomputed — with the final fleet merge
/// byte-identical to a local run of the same grid.
#[test]
#[cfg(unix)]
fn sigkill_mid_job_resumes_without_recomputing_durable_cells() {
    let dir = tmpdir("sigkill-job");
    // Big enough cells that the kill lands mid-job: 512-rank workloads
    // on 512-node topologies, 2 × 2 × 3 = 12 cells.
    let grid = GridSpec::parse(
        &["torus:8,8,8", "mesh:8,8,8"],
        &["consecutive", "random:5"],
        &["EXMATEX LULESH:512", "MiniFE:512", "AMG:512"],
    )
    .expect("valid grid");
    let seed = 7u64;

    let (mut child, addr) = spawn_serve(&dir);
    let submitted = client::post(addr, "/v1/jobs", &submit_body_json(&grid, seed, 1, 0)).unwrap();
    assert_eq!(submitted.status, 200, "{}", submitted.body_str());
    let id = json_str_field(submitted.body_str(), "id");

    // Kill as soon as some — but not necessarily all — cells are done.
    // (If the job outruns the poll, resume still must not recompute.)
    let _ = wait_until(Duration::from_secs(120), || {
        statusz_counter(addr, &["jobs", "cells_completed"]) >= grid.cell_count() / 3
    });
    // Let the write-behind flush so a durable prefix exists on disk.
    std::thread::sleep(Duration::from_millis(500));
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Restart on the same data dir (fresh ephemeral port): the manifest
    // resumes the job; the client finds it by its content-addressed id.
    let (mut child, addr) = spawn_serve(&dir);
    assert!(
        wait_until(Duration::from_secs(120), || {
            let resp = client::get(addr, &format!("/v1/jobs/{id}"));
            resp.map(|r| r.status == 200 && r.body_str().contains("\"status\": \"complete\""))
                .unwrap_or(false)
        }),
        "restarted server must resume and finish the job"
    );
    assert_eq!(
        statusz_counter(addr, &["jobs", "resumed"]),
        1,
        "the manifest must be resumed exactly once"
    );
    assert_eq!(
        statusz_counter(addr, &["jobs", "cells_recomputed"]),
        0,
        "no durable cell may be recomputed after the restart"
    );

    // The client-side merge (idempotent resubmit + poll) is
    // byte-identical to running the grid locally.
    let opts = RemoteOptions {
        seed,
        poll_interval: Duration::from_millis(20),
        deadline: Duration::from_secs(120),
    };
    let remote = sweepjob::run_grid_remote(&grid, &[addr], &opts).unwrap();
    let local = sweepjob::run_grid_local(&grid).unwrap();
    assert_eq!(
        sweepjob::render_csv(&remote),
        sweepjob::render_csv(&local),
        "post-crash merge must match the local run byte-for-byte"
    );

    child.kill().expect("cleanup kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
