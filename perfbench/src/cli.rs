//! `cli-cold`: a sequential list of `netloc replay` and `netloc simulate`
//! jobs, each run cold from a trace file the way `src/bin/netloc.rs` runs
//! it — map the file, decode, ingest, build the topology and mapping, then
//! replay with direct routing or simulate over an `auto` route table, and
//! render JSON. Nothing is cached between jobs; this is the only workload
//! that runs `netloc_sim`.

use crate::gen::{self, Format, CLI_INPUTS};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::RunOpts;
use netloc::core::canon::canonical_json;
use netloc::core::{
    analyze_network, analyze_network_reference, ingest_trace, node_pair_traffic, parse_trace_auto,
    IngestResult, NetworkReport,
};
use netloc::mpi::MappedFile;
use netloc::sim::{
    expand_trace, simulate_parallel, simulate_reference, simulate_trace, SimConfig, SimExec,
};
use netloc::topology::{Mapping, MappingSpec, RoutedTopology, Topology, TopologySpec};
use std::path::Path;
use std::time::Instant;

/// The CLI's `--max-msgs` default.
const MAX_INJECTIONS: usize = 2_000_000;
const SETUP_PASSES: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Replay,
    Simulate,
}

#[derive(Debug, Clone)]
struct Job {
    input: usize,
    kind: Kind,
    topology: String,
    mapping: String,
}

/// Replay inputs per cycle: nine small traces and three ~1M-event ones
/// (two of them the slowest to decode), so the replay p50 reads a small
/// trace and the p90 a large one, each well inside its group.
const REPLAY_INPUTS: [usize; 12] = [0, 1, 2, 3, 0, 1, 2, 3, 0, 4, 5, 5];
/// Simulation inputs per cycle, one per topology family: the small
/// point-to-point traces (the collective-only trace expands past the
/// injection cap).
const SIM_INPUTS: [usize; 5] = [0, 2, 2, 0, 2];

/// Five topology families sized for the trace's rank count.
fn topologies(ranks: u32, seed: u64) -> [String; 5] {
    let jelly = seed % 10_000;
    if ranks > 256 {
        [
            "torus:8,8,8".into(),
            "fattree:16,3".into(),
            "dragonfly:8,4,2".into(),
            "hyperx:8x8,8".into(),
            format!("jellyfish:64,6,8,{jelly}"),
        ]
    } else {
        [
            "torus:8,8,4".into(),
            "fattree:8,4".into(),
            "dragonfly:8,2,2".into(),
            "hyperx:4x4x4,4".into(),
            format!("jellyfish:64,6,4,{jelly}"),
        ]
    }
}

/// One cycle of jobs. Every seed gets the same inputs, topology families,
/// mapping kinds and order in each cycle, so job costs stay comparable
/// across seeds; the seed picks trace contents and the mapping and
/// Jellyfish seeds. The order is fixed because a job that follows a
/// 1M-event one runs up to 1.5x slower (it faults back in the memory the
/// large job returned to the system), and a seeded order moved that cost
/// between job kinds from seed to seed.
fn cycle(seed: u64) -> Vec<Job> {
    let mut rng = gen::stream(seed, "cli-cycle");
    let mut jobs = Vec::new();
    let replays = REPLAY_INPUTS
        .iter()
        .enumerate()
        .map(|(n, i)| (n, *i, Kind::Replay));
    let sims = SIM_INPUTS
        .iter()
        .enumerate()
        .map(|(n, i)| (n, *i, Kind::Simulate));
    for (n, input, kind) in replays.chain(sims) {
        let families = topologies(CLI_INPUTS[input].pattern.ranks(), seed);
        let topology = families[n % families.len()].clone();
        let mapping = match (kind, n % 3) {
            (_, 0) => "consecutive".to_string(),
            (Kind::Replay, 1) => "block:2".to_string(),
            _ => format!("random:{}", rng.range(0, 1 << 20)),
        };
        jobs.push(Job {
            input,
            kind,
            topology,
            mapping,
        });
    }
    jobs
}

/// What a job leaves behind; dropped after the job's clock stops, as
/// the CLI process would exit instead of freeing it.
struct Done {
    json: String,
    ing: IngestResult,
    mapping: Option<Mapping>,
    decoded_bytes: usize,
    packets: u64,
    injections: usize,
    table_bytes: usize,
}

fn topology_of(spec: &str, ranks: u32) -> Result<Box<dyn Topology>, String> {
    let parsed: TopologySpec = spec.parse().map_err(|e| format!("{e}"))?;
    parsed.resolve(ranks).build().map_err(|e| format!("{e}"))
}

fn mapping_of(spec: &str, ranks: usize, nodes: usize) -> Result<Mapping, String> {
    let parsed: MappingSpec = spec.parse().map_err(|e| format!("{e}"))?;
    parsed.build(ranks, nodes).map_err(|e| format!("{e}"))
}

fn sim_config(mapping: Option<Mapping>) -> SimConfig {
    SimConfig {
        max_injections: MAX_INJECTIONS,
        mapping,
        ..SimConfig::default()
    }
}

/// The fields `netloc replay --json` prints.
#[derive(serde::Serialize)]
struct ReplayJson<'a> {
    topology: &'a str,
    nodes: usize,
    packets: u64,
    packet_hops: u128,
    avg_hops: f64,
    used_links: usize,
    total_links: usize,
    utilization_pct: f64,
    global_message_share: f64,
}

fn replay_json(topo: &dyn Topology, rep: &NetworkReport, exec_time_s: f64) -> String {
    canonical_json(&ReplayJson {
        topology: topo.name(),
        nodes: topo.num_nodes(),
        packets: rep.packets,
        packet_hops: rep.packet_hops,
        avg_hops: rep.avg_hops(),
        used_links: rep.used_links,
        total_links: rep.total_links,
        utilization_pct: rep.utilization_pct(exec_time_s),
        global_message_share: rep.global_message_share(),
    })
}

/// Run one job through the same public calls as the CLI. With spans on,
/// each call is a span and `simulate_trace` is split into the calls it
/// is made of (expand, route-table build, engine).
fn run_job(job: &Job, path: &Path, spans: &mut Spans) -> Result<Done, String> {
    let mapped = spans.time("decode", "mpi.decode", || MappedFile::open(path));
    let mapped = mapped.map_err(|e| format!("{e}"))?;
    let decoded_bytes = mapped.len();
    let trace = spans.time("decode", "mpi.decode", || parse_trace_auto(mapped.bytes()));
    let trace = trace.map_err(|e| format!("{e}"))?;
    let ing = spans.time("ingest", "core.ingest", || ingest_trace(trace));
    // Unmapping a large file takes milliseconds; it belongs to decoding.
    spans.time("decode", "mpi.decode", || drop(mapped));
    let ranks = ing.trace.num_ranks;
    let topo = spans.time("topology_build", "topology.build", || {
        topology_of(&job.topology, ranks)
    })?;
    let consecutive = job.mapping == "consecutive";
    let mapping = if job.kind == Kind::Replay || !consecutive {
        let m = spans.time("mapping", "topology.mapping", || {
            mapping_of(&job.mapping, ranks as usize, topo.num_nodes())
        })?;
        Some(m)
    } else {
        None
    };
    let (json, packets, injections, table_bytes) = match job.kind {
        Kind::Replay => {
            let m = mapping.as_ref().expect("replay jobs build a mapping");
            let rep = spans.time("replay", "core.netmodel", || {
                analyze_network(topo.as_ref(), m, &ing.matrix)
            });
            let json = spans.time("serialize", "core.canon", || {
                replay_json(topo.as_ref(), &rep, ing.trace.exec_time_s)
            });
            (json, rep.packets, 0, 0)
        }
        Kind::Simulate if spans.is_on() => {
            let cfg = sim_config(mapping.clone());
            let (inj, stride) = spans.time("simulate", "sim.expand", || {
                expand_trace(&ing.trace, cfg.max_injections)
            });
            let sim_mapping = cfg
                .mapping
                .clone()
                .unwrap_or_else(|| Mapping::consecutive(ranks as usize, topo.num_nodes()));
            let routed = spans.time("route_build", "topology.routes", || {
                RoutedTopology::auto(topo.as_ref())
            });
            let mut rep = spans.time("simulate", "sim.engine", || {
                simulate_parallel(&routed, &sim_mapping, &inj, &cfg, &SimExec::default())
            });
            rep.sample_stride = stride;
            let json = spans.time("serialize", "core.canon", || canonical_json(&rep));
            let table_bytes = routed
                .table()
                .map(|t| t.memory_bytes())
                .or_else(|| routed.compressed_table().map(|t| t.memory_bytes()))
                .unwrap_or(0);
            (json, 0, inj.len(), table_bytes)
        }
        Kind::Simulate => {
            let rep = simulate_trace(&ing.trace, topo.as_ref(), &sim_config(mapping.clone()));
            let json = canonical_json(&rep);
            (json, 0, rep.messages as usize, 0)
        }
    };
    Ok(Done {
        json,
        ing,
        mapping,
        decoded_bytes,
        packets,
        injections,
        table_bytes,
    })
}

/// The expected output of `job`, from the single-threaded references.
fn reference(job: &Job, path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{e}"))?;
    let ing = ingest_trace(parse_trace_auto(&bytes).map_err(|e| format!("{e}"))?);
    let ranks = ing.trace.num_ranks;
    let topo = topology_of(&job.topology, ranks)?;
    let mapping = mapping_of(&job.mapping, ranks as usize, topo.num_nodes())?;
    Ok(match job.kind {
        Kind::Replay => {
            let rep = analyze_network_reference(topo.as_ref(), &mapping, &ing.matrix);
            replay_json(topo.as_ref(), &rep, ing.trace.exec_time_s)
        }
        Kind::Simulate => {
            let (inj, stride) = expand_trace(&ing.trace, MAX_INJECTIONS);
            let cfg = sim_config(None);
            let mut rep = simulate_reference(topo.as_ref(), &mapping, &inj, &cfg);
            rep.sample_stride = stride;
            canonical_json(&rep)
        }
    })
}

/// Timed results of one pass over the job cycle.
#[derive(Default)]
struct Pass {
    replay_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    wall_s: f64,
    /// `(cycle position, output)` per job.
    outputs: Vec<(usize, String)>,
    errors: u64,
}

impl Pass {
    fn jobs(&self) -> usize {
        self.replay_ms.len() + self.simulate_ms.len()
    }
}

/// Run jobs from the cycle until `seconds` pass (at least one cycle in
/// tiny mode, so every job kind is seen).
fn run_pass(
    jobs: &[Job],
    dir: &Path,
    seconds: f64,
    min_jobs: usize,
    spans: &mut Spans,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < seconds || n < min_jobs {
        let pos = n % jobs.len();
        let job = &jobs[pos];
        spans.set_op(n as u64);
        let t0 = Instant::now();
        let done = run_job(job, &dir.join(CLI_INPUTS[job.input].file), spans);
        let t1 = Instant::now();
        spans.root("other", t0, t1);
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        match job.kind {
            Kind::Replay => pass.replay_ms.push(ms),
            Kind::Simulate => pass.simulate_ms.push(ms),
        }
        match done {
            Ok(done) => {
                if spans.is_on() {
                    record_layers(report, &done, job);
                }
                pass.outputs.push((pos, done.json.clone()));
            }
            Err(e) => {
                eprintln!("cli-cold job {job:?} failed: {e}");
                pass.errors += 1;
            }
        }
        n += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

fn record_layers(report: &mut Report, done: &Done, job: &Job) {
    let events = done.ing.trace.events.len() as f64;
    report.add_layer("mpi.decode.bytes", done.decoded_bytes as f64);
    report.add_layer("mpi.decode.events", events);
    report.add_layer("core.ingest.events", events);
    report.add_layer("topology.build.count", 1.0);
    report.add_layer("core.canon.bytes", done.json.len() as f64);
    if done.mapping.is_some() {
        report.add_layer("topology.mapping.count", 1.0);
    }
    match job.kind {
        Kind::Replay => {
            let mapping = done.mapping.as_ref().expect("replay jobs build a mapping");
            report.add_layer(
                "core.netmodel.node_pairs",
                node_pair_traffic(mapping, &done.ing.matrix).len() as f64,
            );
            report.add_layer("core.netmodel.packets", done.packets as f64);
        }
        Kind::Simulate => {
            report.add_layer("topology.routes.builds", 1.0);
            report.add_layer("sim.injections", done.injections as f64);
            let max = report.layers["topology.routes.table_bytes"].max(done.table_bytes as f64);
            report.set_layer("topology.routes.table_bytes", max);
        }
    }
}

/// The CLI has no session set-up: every job starts cold. The set-up time
/// is the part of each job that depends on its machine alone — parsing,
/// resolving and building the topology, and for a simulation its `auto`
/// route table — as the median of several passes over the cycle.
fn setup(jobs: &[Job]) -> f64 {
    let samples: Vec<f64> = (0..SETUP_PASSES)
        .map(|_| {
            let t = Instant::now();
            for job in jobs {
                let ranks = CLI_INPUTS[job.input].pattern.ranks();
                let topo = topology_of(&job.topology, ranks).expect("benchmark topology builds");
                if job.kind == Kind::Simulate {
                    std::hint::black_box(RoutedTopology::auto(topo.as_ref()));
                }
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn run(dir: &Path, opts: &RunOpts) -> Report {
    let mut report = Report::new("cli-cold");
    gen::generate("cli-cold", opts.seed, opts.tiny, dir);
    for input in &CLI_INPUTS {
        let bytes = std::fs::metadata(dir.join(input.file))
            .map(|m| m.len())
            .unwrap_or(0);
        let format = match input.format {
            Format::Text => "text",
            Format::Columnar => "columnar",
        };
        report.note(format!(
            "{}: {} traffic, {} ranks, {} events, {} bytes {format}",
            input.file,
            input.pattern.name(),
            input.pattern.ranks(),
            input.events(opts.tiny),
            bytes
        ));
    }
    let jobs = cycle(opts.seed);
    report.note(format!(
        "cycle of {} jobs ({} replay with direct routing, {} simulate with an auto route table) over torus, fat tree, dragonfly, HyperX and Jellyfish, 256-528 nodes; {} cores, 1 process",
        jobs.len(),
        REPLAY_INPUTS.len(),
        SIM_INPUTS.len(),
        crate::sys::cores()
    ));
    let setup_s = setup(&jobs);
    let min_jobs = if opts.tiny { jobs.len() } else { 1 };
    let epoch = Instant::now();
    let mut off = Spans::new(false, epoch);
    // One untimed cycle first, so the timed loop starts with the inputs
    // and the allocator in the state every later cycle finds them in.
    run_pass(&jobs, dir, 0.0, jobs.len(), &mut off, &mut report);
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = run_pass(&jobs, dir, seconds, min_jobs, &mut off, &mut report);
    let peak = crate::sys::peak_rss_mb();
    let mut on = Spans::new(true, epoch);
    let traced = opts
        .trace
        .then(|| run_pass(&jobs, dir, seconds, min_jobs, &mut on, &mut report));

    // Output checks, outside every timed interval: one reference per
    // cycle position, compared with every output of that position.
    let mut expected: Vec<Option<String>> = vec![None; jobs.len()];
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for pass in std::iter::once(&plain).chain(traced.as_ref()) {
        attempted += (pass.jobs()) as u64;
        failed += pass.errors;
        for (pos, out) in &pass.outputs {
            let want = expected[*pos].get_or_insert_with(|| {
                let job = &jobs[*pos];
                reference(job, &dir.join(CLI_INPUTS[job.input].file))
                    .unwrap_or_else(|e| format!("reference failed: {e}"))
            });
            if want != out {
                eprintln!(
                    "cli-cold output mismatch at cycle position {pos} ({:?})",
                    jobs[*pos]
                );
                failed += 1;
            }
        }
    }
    report.attempted = attempted;
    report.failed = failed;

    let ops = plain.jobs() as f64 / plain.wall_s;
    let replay = |q| quantile(&plain.replay_ms, q);
    let simulate = |q| quantile(&plain.simulate_ms, q);
    report.set_e2e("setup_s", setup_s);
    report.set_e2e("peak_rss_mb", peak);
    report.set_e2e("ops_per_s", ops);
    report.set_e2e("heavy_ms.p50", simulate(0.5));
    report.set_e2e("heavy_ms.p90", simulate(0.9));
    report.set_e2e("light_ms.p50", replay(0.5));
    report.set_e2e("light_ms.p90", replay(0.9));
    report.set_detail("setup_s", setup_s);
    report.set_detail("peak_rss_mb", peak);
    report.set_detail("error_ratio", report.error_ratio());
    report.set_detail("ops_per_s", ops);
    report.set_detail("replay_ms.p50", replay(0.5));
    report.set_detail("replay_ms.p90", replay(0.9));
    report.set_detail("simulate_ms.p50", simulate(0.5));
    report.set_detail("simulate_ms.p90", simulate(0.9));
    report.note(format!(
        "samples: {} replay, {} simulate",
        plain.replay_ms.len(),
        plain.simulate_ms.len()
    ));

    if let Some(traced) = traced {
        crate::set_trace_layers(&mut report, &on, ops, traced.jobs() as f64 / traced.wall_s);
        let coverage = on.coverage();
        report.set_layer(
            "trace.coverage_min",
            coverage.iter().copied().fold(f64::INFINITY, f64::min),
        );
        report.set_layer(
            "trace.coverage_mean",
            ratio(coverage.iter().sum(), coverage.len() as f64),
        );
        crate::write_spans(&on, "cli-cold", opts.seed);
    }
    report
}
