//! `netloc` — command-line network-locality analysis for MPI traces.
//!
//! ```text
//! netloc generate <app> <ranks> [-o FILE] [--scaled]
//! netloc convert  <TRACE> [-o FILE] [--to columnar|text]
//!                                             transcode between the trace formats
//!                                             (columnar is the chunked binary
//!                                             format built for streaming ingest)
//! netloc stats    <TRACE> [--json] [--windows N]
//!                                             Table 1-style overview; --windows N
//!                                             adds time-resolved per-window rows
//! netloc metrics  <TRACE> [--json]            peers, rank locality, selectivity, 1D/2D/3D folds
//! netloc analyze  <TRACE> [--json]            every MPI-level metric at once
//! netloc replay   <TRACE> --topology SPEC [--mapping MAP] [--json]
//!                                             packet hops, hops̄, utilization, link classes
//! netloc heatmap  <TRACE> [--ascii]           traffic matrix as CSV (or ASCII art)
//! netloc timeline <TRACE> [--bins N]          injected volume over time, burstiness
//! netloc simulate <TRACE> --topology SPEC [--mapping MAP] [--max-msgs N]
//!                 [--windows N]               temporal store-and-forward replay
//!                                             with a per-window congestion profile
//! netloc serve    [--addr A] [--workers N] [--cache-mb M] [--queue Q]
//!                 [--data-dir DIR] [--rate-limit N] [--rate-burst B]
//!                 [--inflight-mb M] [--deadline-s S] [--sweep-cap N]
//!                 [--job-cap N]               the netloc-service analysis server
//!                                             (--data-dir persists caches across
//!                                             restarts; --rate-limit N conns/s
//!                                             per client)
//! netloc sweep    --topology SPEC [--topology SPEC…] --workload APP:RANKS
//!                 [--workload …] [--mapping MAP…] [--seed N]
//!                 [--csv FILE] [--svg FILE]
//!                 [--remote URL[,URL…]]       run a topology × mapping × workload
//!                                             grid — locally, or sharded across
//!                                             service instances as resumable
//!                                             jobs; the merged report is
//!                                             byte-identical either way
//! netloc verify   [--quiet]                   differential self-check: analytic
//!                                             routing vs BFS, the parallel replay
//!                                             and temporal simulation vs naive
//!                                             references, over a seeded corpus
//! ```
//!
//! `TRACE` is a file in the dumpi-like text format (see `netloc_mpi::dumpi`)
//! or the columnar format (see `netloc_mpi::colfmt`), told apart by magic
//! bytes; `-` reads from stdin. Window and bin counts (`--windows`,
//! `--bins`) are bounded by `netloc_core::MAX_WINDOWS`, the service's bound;
//! `--max-msgs` (default 2 000 000) takes any positive count.
//! Topology SPECs (parsed by `netloc_topology::spec`, shared with the
//! analysis service):
//!
//! ```text
//! torus:X,Y,Z      fattree:RADIX,STAGES      dragonfly:A,H,P
//! mesh:X,Y,Z       dragonfly-valiant:A,H,P   torusnd:D1,D2,…
//! slimfly:Q,P      hyperx:D1xD2x…,P          jellyfish:ROUTERS,DEGREE,P[,SEED]
//! auto             (the Table 2 torus for the trace's rank count)
//! ```
//!
//! Mappings: `consecutive` (default), `block:CORES`, `random[:SEED]`,
//! `random-block:CORES,SEED`, `greedy`.
//!
//! `--json` renders through `netloc_core::canon::canonical_json`, the same
//! canonicalizer the service uses — CLI and server output are diffable
//! byte-for-byte.

use netloc::core::canon::canonical_json;
use netloc::core::metrics::{dimensionality, peers, rank_locality, selectivity};
use netloc::core::{
    analyze_network, classes, heatmap, ingest_trace, timeline::Timeline, windowed_ingest,
    IngestResult, TrafficMatrix, MAX_WINDOWS,
};
use netloc::mpi::{parse_trace_auto, write_trace, write_trace_columnar, MappedFile, Trace};
use netloc::service::payload::{MetricsResponse, StatsResponse};
use netloc::topology::optimize::greedy_mapping;
use netloc::topology::{MappingSpec, RoutedTopology, Topology, TopologySpec};
use netloc::workloads::App;
use std::io::Read as _;
use std::ops::RangeInclusive;
use std::process::exit;

fn main() {
    install_broken_pipe_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => generate(rest),
        "convert" => convert_cmd(rest),
        "stats" => stats(rest),
        "metrics" => metrics(&load_ingest(rest), rest),
        "analyze" => analyze(rest),
        "replay" => replay(rest),
        "heatmap" => heatmap_cmd(rest),
        "timeline" => timeline_cmd(rest),
        "simulate" => simulate_cmd(rest),
        "serve" => serve_cmd(rest),
        "sweep" => sweep_cmd(rest),
        "verify" => verify_cmd(rest),
        "--help" | "-h" | "help" => usage_and_exit(),
        other => {
            eprintln!("unknown command '{other}'");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: netloc <generate|convert|stats|metrics|analyze|replay|heatmap|timeline|simulate|serve|sweep|verify> …\n\
         see the module docs (`cargo doc`) or the README for details"
    );
    exit(2);
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A count flag bounded to `range` (absent: `None`); any other value
/// exits 2 with a usage message.
fn count_flag(args: &[String], name: &str, range: RangeInclusive<usize>) -> Option<usize> {
    let value = flag_value(args, name)?;
    match value.parse() {
        Ok(n) if range.contains(&n) => Some(n),
        _ => {
            let bound = match range.into_inner() {
                (min, usize::MAX) => format!("of at least {min}"),
                (min, max) => format!("in {min}..={max}"),
            };
            eprintln!("usage: {name} takes an integer {bound}, not '{value}'");
            exit(2);
        }
    }
}

/// Read and decode a trace. The format (dumpi text or columnar) is
/// detected by magic bytes; files are mapped into memory rather than
/// copied, so a multi-GB trace parses with O(chunk) extra resident memory.
fn load_trace(args: &[String]) -> Trace {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("missing trace file argument");
        exit(2);
    };
    let parsed = if path == "-" {
        let mut buf = Vec::new();
        if std::io::stdin().read_to_end(&mut buf).is_err() {
            eprintln!("failed to read stdin");
            exit(1);
        }
        parse_trace_auto(&buf)
    } else {
        MappedFile::open(std::path::Path::new(path)).and_then(|m| parse_trace_auto(m.bytes()))
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

/// Decode a trace, then fold it into traffic matrices and Table 1 stats
/// with the same fused ingest the service uses.
fn load_ingest(args: &[String]) -> IngestResult {
    ingest_trace(load_trace(args))
}

fn generate(args: &[String]) {
    let (Some(app_name), Some(ranks_s)) = (args.first(), args.get(1)) else {
        eprintln!("usage: netloc generate <app> <ranks> [-o FILE]");
        exit(2);
    };
    let Some(app) = App::ALL
        .iter()
        .copied()
        .find(|a| a.name().to_lowercase().contains(&app_name.to_lowercase()))
    else {
        eprintln!("unknown app '{app_name}'; known apps:");
        for a in App::ALL {
            eprintln!("  {} @ {:?}", a.name(), a.scales());
        }
        exit(2);
    };
    let Ok(ranks) = ranks_s.parse::<u32>() else {
        eprintln!("bad rank count '{ranks_s}'");
        exit(2);
    };
    let scaled = args.iter().any(|a| a == "--scaled");
    if !scaled && !app.scales().contains(&ranks) {
        eprintln!(
            "{} is calibrated at {:?} ranks; pass --scaled to extrapolate",
            app.name(),
            app.scales()
        );
        exit(2);
    }
    let trace = if scaled {
        app.generate_scaled(ranks)
    } else {
        app.generate(ranks)
    };
    let payload = write_trace(&trace).into_bytes();
    match flag_value(args, "-o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, payload) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&payload);
        }
    }
}

/// `netloc convert` — transcode a trace between the dumpi text and
/// columnar formats (default: columnar). Round-tripping through either
/// format reproduces the same events byte-for-byte.
fn convert_cmd(args: &[String]) {
    let to = flag_value(args, "--to").unwrap_or("columnar");
    if to != "columnar" && to != "text" {
        eprintln!("unknown format '{to}' (expected columnar|text)");
        exit(2);
    }
    let trace = load_trace(args);
    let payload: Vec<u8> = if to == "columnar" {
        write_trace_columnar(&trace)
    } else {
        write_trace(&trace).into_bytes()
    };
    match flag_value(args, "-o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &payload) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {path} ({} bytes, {to})", payload.len());
        }
        None => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&payload);
        }
    }
}

fn stats(args: &[String]) {
    let windows = count_flag(args, "--windows", 1..=MAX_WINDOWS);
    let ing = load_ingest(args);
    let trace = &ing.trace;
    if args.iter().any(|a| a == "--json") {
        let base = StatsResponse::from_parts(trace, &ing.stats);
        let rendered = match windows {
            Some(n) => canonical_json(&base.with_windows(&windowed_ingest(trace, n))),
            None => canonical_json(&base),
        };
        print!("{rendered}");
        return;
    }
    let s = ing.stats;
    println!("application:   {}", trace.app);
    println!("ranks:         {}", trace.num_ranks);
    println!("exec time:     {:.4} s", trace.exec_time_s);
    println!("total volume:  {:.2} MB", s.total_mb());
    println!(
        "p2p share:     {:.2} %  ({} calls)",
        s.p2p_pct(),
        s.p2p_calls
    );
    println!(
        "coll share:    {:.2} %  ({} calls)",
        s.coll_pct(),
        s.coll_calls
    );
    println!("throughput:    {:.3} MB/s", s.throughput_mb_s());
    println!(
        "communicators: {} (global only: {})",
        trace.comms.len(),
        trace.uses_only_global_communicators()
    );
    if let Some(n) = windows {
        let wm = windowed_ingest(trace, n);
        println!("\ntime-resolved ({n} windows; columns sum to the whole-trace totals):");
        println!("  win        t [s]         p2p MB   coll MB  p2p calls  coll calls  locality %");
        for (i, w) in wm.windows.iter().enumerate() {
            let loc = rank_locality::rank_locality_90(&w.p2p)
                .map(|l| format!("{:.1}", 100.0 * l))
                .unwrap_or_else(|| "-".into());
            println!(
                "  {:>3} {:>8.4}-{:<8.4} {:>8.2} {:>9.2} {:>10} {:>11} {:>11}",
                i,
                w.t_start_s,
                w.t_end_s,
                w.p2p_bytes as f64 / 1e6,
                w.coll_bytes as f64 / 1e6,
                w.p2p_calls,
                w.coll_calls,
                loc
            );
        }
    }
}

fn metrics(ing: &IngestResult, args: &[String]) {
    if args.iter().any(|a| a == "--json") {
        print!(
            "{}",
            canonical_json(&MetricsResponse::from_matrix(&ing.trace, &ing.p2p))
        );
        return;
    }
    let tm = &ing.p2p;
    match peers::peers(tm) {
        None => println!("no point-to-point traffic — MPI-level metrics are N/A"),
        Some(p) => {
            println!("peers:                {p}");
            println!(
                "rank distance (90%):  {:.2}",
                rank_locality::rank_distance_90(tm).expect("has p2p")
            );
            println!(
                "rank locality (90%):  {:.2} %",
                100.0 * rank_locality::rank_locality_90(tm).expect("has p2p")
            );
            println!(
                "selectivity (90%):    {:.2}",
                selectivity::selectivity_90(tm).expect("has p2p")
            );
            for k in 1..=3 {
                if let Some(rep) = dimensionality::folded_locality(tm, k) {
                    println!(
                        "{k}D fold {:?}: locality {:.1} % (distance {:.2})",
                        rep.dims, rep.locality_pct, rep.distance90
                    );
                }
            }
        }
    }
}

fn analyze(args: &[String]) {
    let trace = load_trace(args);
    let report = netloc::core::analyze_trace(&trace);
    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
        return;
    }
    println!("{report:#?}");
}

/// Parse and build `--topology` through `netloc_topology::spec` — the
/// same grammar (and the same canonicalization) the analysis service
/// uses for its cache keys.
fn parse_topology(spec: &str, ranks: u32) -> Box<dyn Topology> {
    let parsed: TopologySpec = spec.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    parsed.resolve(ranks).build().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    })
}

/// Parse `--mapping` through the shared spec grammar.
fn parse_mapping(spec: &str) -> MappingSpec {
    spec.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    })
}

/// Instantiate a mapping spec, serving `greedy` through the optimizer.
fn build_mapping(
    spec: &MappingSpec,
    ranks: usize,
    topo: &dyn Topology,
    tm: &TrafficMatrix,
) -> netloc::topology::Mapping {
    match spec {
        MappingSpec::Greedy => {
            greedy_mapping(&RoutedTopology::auto(topo), ranks, &tm.undirected_entries())
        }
        other => other.build(ranks, topo.num_nodes()).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        }),
    }
}

fn replay(args: &[String]) {
    let ing = load_ingest(args);
    let trace = &ing.trace;
    let spec = flag_value(args, "--topology").unwrap_or("auto");
    let topo = parse_topology(spec, trace.num_ranks);
    if topo.num_nodes() < trace.num_ranks as usize {
        eprintln!(
            "topology has {} nodes but the trace has {} ranks",
            topo.num_nodes(),
            trace.num_ranks
        );
        exit(2);
    }
    let tm = &ing.matrix;
    let ranks = trace.num_ranks as usize;
    let map_spec = parse_mapping(flag_value(args, "--mapping").unwrap_or("consecutive"));
    let mapping = build_mapping(&map_spec, ranks, topo.as_ref(), tm);

    let rep = analyze_network(topo.as_ref(), &mapping, tm);
    if args.iter().any(|a| a == "--json") {
        #[derive(serde::Serialize)]
        struct JsonReport<'a> {
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
        let j = JsonReport {
            topology: topo.name(),
            nodes: topo.num_nodes(),
            packets: rep.packets,
            packet_hops: rep.packet_hops,
            avg_hops: rep.avg_hops(),
            used_links: rep.used_links,
            total_links: rep.total_links,
            utilization_pct: rep.utilization_pct(trace.exec_time_s),
            global_message_share: rep.global_message_share(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&j).expect("serializable")
        );
        return;
    }
    println!(
        "topology:        {} ({} nodes, {} links)",
        topo.name(),
        topo.num_nodes(),
        topo.links().len()
    );
    println!("packets:         {}", rep.packets);
    println!("packet hops:     {}", rep.packet_hops);
    println!("avg hops:        {:.3}", rep.avg_hops());
    println!("used links:      {}/{}", rep.used_links, rep.total_links);
    println!(
        "utilization:     {:.6} %",
        rep.utilization_pct(trace.exec_time_s)
    );
    if rep.global_packets > 0 {
        println!(
            "global share:    {:.1} % of messages, {:.1} % of packets",
            100.0 * rep.global_message_share(),
            100.0 * rep.global_packet_share()
        );
    }
    println!("\nper link class:");
    for u in classes::per_class_usage(topo.as_ref(), &rep, trace.exec_time_s) {
        println!(
            "  {:?}: {}/{} links used, {:.2} MB carried, {:.6} % utilization",
            u.class,
            u.used_links,
            u.links,
            u.bytes as f64 / 1e6,
            100.0 * u.utilization
        );
    }
}

fn heatmap_cmd(args: &[String]) {
    let ing = load_ingest(args);
    let tm = &ing.p2p;
    if args.iter().any(|a| a == "--ascii") {
        match heatmap::ascii_heatmap(tm, 256) {
            Some(art) => print!("{art}"),
            None => {
                eprintln!("trace too large for ASCII rendering (>256 ranks); use CSV");
                exit(1);
            }
        }
    } else {
        print!("{}", heatmap::to_csv(tm));
    }
}

fn simulate_cmd(args: &[String]) {
    use netloc::sim::{simulate_trace, SimConfig};
    // 0 windows means no congestion profile. The message cap has no upper
    // bound: the expansion never emits more injections than it allows.
    let report_windows = count_flag(args, "--windows", 0..=MAX_WINDOWS);
    let max_msgs = count_flag(args, "--max-msgs", 1..=usize::MAX);
    let ing = load_ingest(args);
    let trace = &ing.trace;
    let spec = flag_value(args, "--topology").unwrap_or("auto");
    let topo = parse_topology(spec, trace.num_ranks);
    if topo.num_nodes() < trace.num_ranks as usize {
        eprintln!(
            "topology has {} nodes but the trace has {} ranks",
            topo.num_nodes(),
            trace.num_ranks
        );
        exit(2);
    }
    let ranks = trace.num_ranks as usize;
    let map_spec = parse_mapping(flag_value(args, "--mapping").unwrap_or("consecutive"));
    let mapping = match &map_spec {
        MappingSpec::Consecutive => None,
        spec => Some(build_mapping(spec, ranks, topo.as_ref(), &ing.matrix)),
    };
    let defaults = SimConfig::default();
    let cfg = SimConfig {
        max_injections: max_msgs.unwrap_or(defaults.max_injections),
        mapping,
        report_windows: report_windows.unwrap_or(defaults.report_windows),
        ..defaults
    };
    let rep = simulate_trace(trace, topo.as_ref(), &cfg);
    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rep).expect("serializable")
        );
        return;
    }
    println!(
        "topology:          {} ({} nodes)",
        topo.name(),
        topo.num_nodes()
    );
    println!(
        "messages:          {} (sampling 1:{})",
        rep.messages, rep.sample_stride
    );
    println!("mean latency:      {:.3} us", rep.mean_latency_s * 1e6);
    println!("max latency:       {:.3} us", rep.max_latency_s * 1e6);
    println!("mean queueing:     {:.3} us", rep.mean_queueing_s * 1e6);
    println!("mean slowdown:     {:.3}x", rep.mean_slowdown());
    println!("makespan:          {:.4} s", rep.makespan_s);
    println!("used links:        {}", rep.used_links);
    println!(
        "measured util:     {:.6} % (static Eq.5 spreads volume over the full runtime)",
        100.0 * rep.measured_utilization()
    );
    if !rep.windows.is_empty() {
        println!(
            "congestion profile ({} windows over the {:.4} s injection horizon):",
            rep.windows.len(),
            rep.injection_horizon_s
        );
        println!("  win        t [s]      msgs   util %   offered %   slowdown (mean/max)");
        for (i, w) in rep.windows.iter().enumerate() {
            println!(
                "  {:>3} {:>7.4}-{:<7.4} {:>7} {:>8.4} {:>11.4}   {:.3}x / {:.3}x",
                i,
                w.t_start_s,
                w.t_end_s,
                w.messages,
                100.0 * w.measured_utilization,
                100.0 * w.offered_utilization,
                w.mean_slowdown,
                w.max_slowdown
            );
        }
    }
}

/// `netloc serve` — run the netloc-service analysis server until a
/// termination signal or a `POST /v1/shutdown`, then drain and exit 0.
fn serve_cmd(args: &[String]) {
    use netloc::service::{signal, Server, ServerConfig};
    let mut cfg = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        cfg.addr = addr.to_string();
    }
    let numeric = |name: &str| {
        flag_value(args, name).map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("bad value '{v}' for {name}");
                exit(2);
            })
        })
    };
    if let Some(w) = numeric("--workers") {
        cfg.workers = w.clamp(1, 256);
    }
    if let Some(q) = numeric("--queue") {
        cfg.queue_capacity = q.clamp(1, 65_536);
    }
    if let Some(mb) = numeric("--cache-mb") {
        cfg.result_cache_bytes = mb.clamp(1, 16_384) * 1024 * 1024;
    }
    if let Some(dir) = flag_value(args, "--data-dir") {
        cfg.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(rate) = numeric("--rate-limit") {
        cfg.rate_limit_per_s = rate as f64;
    }
    if let Some(burst) = numeric("--rate-burst") {
        cfg.rate_limit_burst = (burst.max(1)) as f64;
    }
    if let Some(mb) = numeric("--inflight-mb") {
        cfg.max_inflight_bytes = mb.clamp(1, 16_384) * 1024 * 1024;
    }
    if let Some(s) = numeric("--deadline-s") {
        cfg.progress_deadline = std::time::Duration::from_secs(s as u64);
    }
    if let Some(cap) = numeric("--sweep-cap") {
        cfg.sweep_cell_cap = cap.clamp(1, 65_536);
    }
    if let Some(cap) = numeric("--job-cap") {
        cfg.job_cell_cap = cap.clamp(1, 1_048_576);
    }
    let running = match Server::start(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            exit(1);
        }
    };
    eprintln!(
        "netloc-service listening on http://{} ({} workers, queue {}, cache {} MiB{})",
        running.addr(),
        running.state().config.workers,
        running.state().config.queue_capacity,
        running.state().config.result_cache_bytes / (1024 * 1024),
        match &running.state().config.data_dir {
            Some(dir) => format!(", data dir {}", dir.display()),
            None => ", memory-only".to_string(),
        },
    );
    signal::install();
    while !signal::termed() && !running.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("shutting down: draining in-flight requests …");
    running.shutdown();
    eprintln!("netloc-service stopped cleanly");
}

/// Every value of a repeatable flag, in order of appearance.
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// `netloc sweep` — run a topology × mapping × workload grid and write
/// the merged CSV (and optionally an SVG chart). Without `--remote` the
/// grid runs in-process; with `--remote URL[,URL…]` it is sharded
/// across service instances as resumable jobs and the results are
/// merged back byte-identically to the local run.
fn sweep_cmd(args: &[String]) {
    use netloc::bench::sweepjob;
    use netloc::core::sweep::GridSpec;

    let topologies = flag_values(args, "--topology");
    let mappings = {
        let m = flag_values(args, "--mapping");
        if m.is_empty() {
            vec!["consecutive"]
        } else {
            m
        }
    };
    let raw_workloads = flag_values(args, "--workload");
    if topologies.is_empty() || raw_workloads.is_empty() {
        eprintln!(
            "usage: netloc sweep --topology SPEC [--topology …] --workload APP:RANKS \
             [--workload …] [--mapping MAP …] [--seed N] [--csv FILE] [--svg FILE] \
             [--remote URL[,URL…]]"
        );
        exit(2);
    }
    // Canonicalize app names up front so the grid identity (and with it
    // the job ids and cell keys) matches what the service would derive.
    let workloads: Vec<String> = raw_workloads
        .iter()
        .map(|spec| {
            netloc::workloads::parse_workload_spec(spec)
                .map(|(_, _, canonical)| canonical)
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2);
                })
        })
        .collect();
    let grid = GridSpec::parse(&topologies, &mappings, &workloads).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad value '{s}' for --seed");
                exit(2);
            })
        })
        .unwrap_or(0);

    let cells = match flag_value(args, "--remote") {
        None => sweepjob::run_grid_local(&grid),
        Some(urls) => {
            let addrs: Vec<std::net::SocketAddr> = urls
                .split(',')
                .map(|u| {
                    let bare = u.trim().trim_start_matches("http://");
                    let bare = bare.strip_suffix('/').unwrap_or(bare);
                    bare.parse().unwrap_or_else(|_| {
                        eprintln!("bad --remote address '{u}' (expected HOST:PORT)");
                        exit(2);
                    })
                })
                .collect();
            eprintln!(
                "sweeping {} cells across {} instance(s) …",
                grid.cell_count(),
                addrs.len()
            );
            sweepjob::run_grid_remote(
                &grid,
                &addrs,
                &sweepjob::RemoteOptions {
                    seed,
                    ..Default::default()
                },
            )
        }
    };
    let cells = cells.unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        exit(1);
    });

    let csv = sweepjob::render_csv(&cells);
    match flag_value(args, "--csv") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    if let Some(path) = flag_value(args, "--svg") {
        if let Err(e) = std::fs::write(path, sweepjob::render_svg(&cells)) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        eprintln!("wrote {path}");
    }
}

/// `netloc verify` — run the differential oracles over the seeded corpus.
///
/// Exits 0 with a summary when every oracle agrees everywhere, 1 with
/// each mismatch printed otherwise.
fn verify_cmd(args: &[String]) {
    use netloc::testkit::{default_corpus, verify_corpus};
    let quiet = args.iter().any(|a| a == "--quiet");
    let corpus = default_corpus();
    if !quiet {
        eprintln!(
            "verifying {} seeded configurations (topology × mapping × workload) …",
            corpus.len()
        );
    }
    let summary = verify_corpus(&corpus);
    println!(
        "checked {} configs: {} route pairs, {} replay comparisons, {} ingest checks, {} window checks, {} sim comparisons",
        summary.configs,
        summary.route_pairs,
        summary.replay_checks,
        summary.ingest_checks,
        summary.windows_checks,
        summary.sim_checks
    );
    if summary.is_clean() {
        println!("all oracles agree: analytic routing matches BFS (exhaustive on small configs, seeded sampling on the zoo), flat and compressed route tables replay identically, parallel replay matches the single-threaded reference, parallel ingest matches the sequential parser, windowed metrics merge identically under every grouping and sum to the whole-trace aggregates, the parallel temporal simulation matches refsim byte-for-byte");
    } else {
        println!("{} MISMATCHES:", summary.mismatches.len());
        for m in &summary.mismatches {
            println!("  {m}");
        }
        exit(1);
    }
}

fn timeline_cmd(args: &[String]) {
    let bins = count_flag(args, "--bins", 1..=MAX_WINDOWS).unwrap_or(32);
    let trace = load_trace(args);
    let tl = Timeline::compute(&trace, bins);
    println!("window: {:.4} s, bins: {bins}", tl.window_s);
    println!("mean injected/window: {:.2} MB", tl.mean() / 1e6);
    println!("peak injected/window: {:.2} MB", tl.peak() / 1e6);
    println!("burstiness (peak/mean): {:.2}", tl.burstiness());
    println!("idle windows: {:.1} %", 100.0 * tl.idle_fraction());
    let peak = tl.peak().max(f64::MIN_POSITIVE);
    for (i, b) in tl.bins.iter().enumerate() {
        let bar = "#".repeat((b / peak * 50.0).round() as usize);
        println!("{:>4} |{bar}", i);
    }
}

/// Exit quietly when stdout is closed early (e.g. piping into `head`).
fn install_broken_pipe_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("Broken pipe"))
            .unwrap_or(false);
        if is_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}
