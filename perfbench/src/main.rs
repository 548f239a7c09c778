//! `perfbench` — the end-to-end benchmark of the netloc pipeline.
//!
//! ```text
//! perfbench --workload cli-cold|serve-mixed|sweep-job --seed N --seconds S --trace 0|1
//! perfbench --self-check
//! ```
//!
//! Each workload's inputs are generated from `--seed`; the program under
//! test only sees the generated files and requests. With `--trace 0` the
//! run measures the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics and the stage split from spans around every public
//! call. `cli-cold` records its spans while it runs, in a traced half
//! next to an untraced one; `serve-mixed` and `sweep-job` re-execute the
//! measured work in-process afterwards. Human-readable `#` lines come
//! first; the last stdout line is the JSON result. See `README.md`.

mod cli;
mod gen;
mod http;
mod inproc;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;
mod sys;

use report::{Report, DETAIL, E2E, PER_LAYER};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::exit;

pub const WORKLOADS: [&str; 3] = ["cli-cold", "serve-mixed", "sweep-job"];

/// Where runs keep their inputs, data directories and span files,
/// relative to the checkout the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-check mode: inputs shrunk by `gen::TINY_DIVISOR`.
    pub tiny: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    eprintln!("       perfbench --self-check");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--generate") {
        gen::child_main(&args[1..]);
        return;
    }
    if args.iter().any(|a| a == "--self-check") {
        exit(self_check());
    }
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| usage())
    };
    let workload = value("--workload");
    let Some(workload) = WORKLOADS.iter().find(|w| *w == workload) else {
        usage();
    };
    let opts = RunOpts {
        seed: value("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: value("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match value("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        tiny: false,
    };
    let report = run_workload(workload, &opts);
    print!("{}", report.render(opts.trace));
}

pub fn run_workload(workload: &str, opts: &RunOpts) -> Report {
    let dir = Path::new(WORK_DIR).join(format!(
        "run-{workload}-{}-{}",
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let report = match workload {
        "cli-cold" => cli::run(&dir, opts),
        "serve-mixed" => serve::run(&dir, opts),
        "sweep-job" => sweep::run(&dir, opts),
        other => panic!("unknown workload '{other}'"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The span-derived per-layer metrics of a traced run: busy time per
/// layer, stage self times, the rates and ratios built on counts the
/// workload recorded, span count and tracing overhead (untraced over
/// traced throughput).
pub fn set_trace_layers(report: &mut Report, spans: &Spans, untraced_ops: f64, traced_ops: f64) {
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".busy_s") {
            report.set_layer(name, spans.busy_s(layer));
        }
    }
    let per_s = |report: &Report, count: &str, layer: &str| {
        stats::ratio(report.layers[count], spans.busy_s(layer))
    };
    let pairs = per_s(report, "core.netmodel.node_pairs", "core.netmodel");
    report.set_layer("core.netmodel.pairs_per_s", pairs);
    let injections = per_s(report, "sim.injections", "sim.engine");
    report.set_layer("sim.injections_per_s", injections);
    let (hits, misses) = (
        report.layers["service.cache.result_hits"],
        report.layers["service.cache.result_misses"],
    );
    report.set_layer("service.cache.hit_ratio", stats::ratio(hits, hits + misses));
    for (stage, secs) in spans.stage_self_s() {
        let name = format!("stage.{stage}.self_s");
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("stage '{stage}' has no metric"));
        report.set_layer(key, secs);
    }
    report.set_layer("trace.spans", spans.len() as f64);
    report.set_layer("trace.untraced_ops_per_s", untraced_ops);
    report.set_layer("trace.traced_ops_per_s", traced_ops);
    report.set_layer(
        "trace.overhead_ratio",
        stats::ratio(untraced_ops, traced_ops),
    );
}

/// Client-side HTTP timings of the measured loop.
pub fn set_http_layers<'a>(
    report: &mut Report,
    exchanges: impl Iterator<Item = &'a http::Exchange>,
) {
    let (mut connect, mut ttfb, mut recv, mut non_2xx) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for x in exchanges {
        connect.push(x.connect.as_secs_f64() * 1e3);
        ttfb.push(x.ttfb.as_secs_f64() * 1e3);
        recv.push(x.recv.as_secs_f64() * 1e3);
        non_2xx += u32::from(!x.ok());
    }
    report.set_layer("service.http.connect_ms.p50", stats::median(&connect));
    report.set_layer("service.http.ttfb_ms.p50", stats::median(&ttfb));
    report.set_layer("service.http.ttfb_ms.p90", stats::quantile(&ttfb, 0.9));
    report.set_layer("service.http.recv_ms.p50", stats::median(&recv));
    report.set_layer("service.http.non_2xx", f64::from(non_2xx));
}

/// Write a traced run's spans as JSON lines under the work directory.
pub fn write_spans(spans: &Spans, workload: &str, seed: u64) {
    let dir = PathBuf::from(WORK_DIR).join("spans");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| spans.write_jsonl(&path)) {
        eprintln!("cannot write spans to {}: {e}", path.display());
    }
}

/// `--self-check`: run every workload on tiny inputs, traced and
/// untraced, and assert that every metric is printed by name with its
/// unit, that the names and units match `BENCHMARK.json`, and that no
/// output check failed. Exit 0 when all hold.
fn self_check() -> i32 {
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Err(e) => problems.push(format!("cannot read BENCHMARK.json: {e}")),
        Ok(text) => match serde_json::from_str(&text) {
            Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
            Ok(spec) => problems.extend(check_spec(&spec)),
        },
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 1,
                seconds: 1.0,
                trace,
                tiny: true,
            };
            let report = run_workload(workload, &opts);
            let text = report.render(trace);
            let found = check_output(workload, trace, &report, &text);
            eprintln!(
                "self-check {workload} trace={}: {}",
                u8::from(trace),
                if found.is_empty() { "ok" } else { "FAILED" }
            );
            problems.extend(found);
        }
    }
    for p in &problems {
        eprintln!("  {p}");
    }
    println!(
        "self-check: {} workloads, {} end-to-end and {} per-layer metrics, {} problems",
        WORKLOADS.len(),
        E2E.len(),
        PER_LAYER.len(),
        problems.len()
    );
    i32::from(!problems.is_empty())
}

/// Field `name` of a JSON object.
pub fn get<'a>(v: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn str_of(v: Option<&serde::Value>) -> String {
    match v {
        Some(serde::Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Names and units of one `BENCHMARK.json` metric list.
fn spec_list(spec: &serde::Value, key: &str) -> Vec<(String, String)> {
    match get(spec, key) {
        Some(serde::Value::Array(items)) => items
            .iter()
            .map(|m| (str_of(get(m, "name")), str_of(get(m, "unit"))))
            .collect(),
        _ => Vec::new(),
    }
}

fn check_spec(spec: &serde::Value) -> Vec<String> {
    let mut problems = Vec::new();
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if spec_list(spec, "end_to_end") != owned(&E2E) {
        problems.push("BENCHMARK.json end_to_end names/units differ from the benchmark's".into());
    }
    if spec_list(spec, "per_layer") != owned(&PER_LAYER) {
        problems.push("BENCHMARK.json per_layer names/units differ from the benchmark's".into());
    }
    let workloads: Vec<String> = spec_list(spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    if workloads != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {WORKLOADS:?}"
        ));
    }
    problems
}

fn check_output(workload: &str, trace: bool, report: &Report, text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let last = text.lines().last().unwrap_or("");
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
    match serde_json::from_str(last) {
        Err(e) => problems.push(format!("{workload}: last line is not JSON: {e}")),
        Ok(line) => {
            let printed: Vec<(String, String)> = match get(&line, "metrics") {
                Some(serde::Value::Object(fields)) => fields
                    .iter()
                    .map(|(name, m)| (name.clone(), str_of(get(m, "unit"))))
                    .collect(),
                _ => Vec::new(),
            };
            let want: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            if printed != want {
                problems.push(format!(
                    "{workload}: printed metrics differ from the declared list"
                ));
            }
        }
    }
    if !trace {
        for (name, _) in E2E {
            if report.e2e.get(name).is_none_or(|v| v.is_nan() || *v <= 0.0) {
                problems.push(format!(
                    "{workload}: end-to-end metric {name} is not positive"
                ));
            }
        }
    }
    for (w, name, unit) in DETAIL {
        let shown = text.lines().any(|l| {
            l.starts_with(&format!("# metric {name} = ")) && l.ends_with(&format!(" {unit}"))
        });
        if w == workload && !shown {
            problems.push(format!("{workload}: {name} [{unit}] is not printed"));
        }
    }
    if report.failed != 0 {
        problems.push(format!(
            "{workload}: {} of {} operations failed their output check",
            report.failed, report.attempted
        ));
    }
    problems
}
