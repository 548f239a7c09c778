//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` lists the same names; the self-check (`--self-check`)
//! asserts that the two agree.

use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// `heavy` is the workload's route-building class and `light` its class
/// that builds no route state; see `README.md` for each workload's
/// operations behind them.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("heavy_ms.p50", "ms"),
    ("heavy_ms.p90", "ms"),
    ("light_ms.p50", "ms"),
    ("light_ms.p90", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("mpi.decode.busy_s", "s"),
    ("mpi.decode.bytes", "B"),
    ("mpi.decode.events", "count"),
    ("core.ingest.busy_s", "s"),
    ("core.ingest.events", "count"),
    ("workloads.generate.busy_s", "s"),
    ("workloads.generate.events", "count"),
    ("topology.build.busy_s", "s"),
    ("topology.build.count", "count"),
    ("topology.routes.busy_s", "s"),
    ("topology.routes.builds", "count"),
    ("topology.routes.restores", "count"),
    ("topology.routes.table_bytes", "B"),
    ("topology.mapping.busy_s", "s"),
    ("topology.mapping.count", "count"),
    ("core.netmodel.busy_s", "s"),
    ("core.netmodel.node_pairs", "count"),
    ("core.netmodel.packets", "count"),
    ("core.netmodel.pairs_per_s", "1/s"),
    ("sim.expand.busy_s", "s"),
    ("sim.engine.busy_s", "s"),
    ("sim.injections", "count"),
    ("sim.injections_per_s", "1/s"),
    ("core.canon.busy_s", "s"),
    ("core.canon.bytes", "B"),
    ("service.http.connect_ms.p50", "ms"),
    ("service.http.ttfb_ms.p50", "ms"),
    ("service.http.ttfb_ms.p90", "ms"),
    ("service.http.recv_ms.p50", "ms"),
    ("service.http.non_2xx", "count"),
    ("service.cache.result_hits", "count"),
    ("service.cache.result_misses", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.registry_hits", "count"),
    ("service.ingest.events", "count"),
    ("service.ingest.useful_ratio", "ratio"),
    ("service.store.writes", "count"),
    ("service.store.bytes_written", "B"),
    ("service.store.reads", "count"),
    ("service.queue.depth_max", "count"),
    ("service.queue.rejected", "count"),
    ("service.queue.shed", "count"),
    ("service.jobs.cells_done", "count"),
    ("service.jobs.cells_recomputed", "count"),
    ("service.jobs.polls", "count"),
    ("stage.decode.self_s", "s"),
    ("stage.ingest.self_s", "s"),
    ("stage.digest.self_s", "s"),
    ("stage.topology_build.self_s", "s"),
    ("stage.route_build.self_s", "s"),
    ("stage.mapping.self_s", "s"),
    ("stage.replay.self_s", "s"),
    ("stage.simulate.self_s", "s"),
    ("stage.serialize.self_s", "s"),
    ("stage.http.self_s", "s"),
    ("stage.other.self_s", "s"),
    ("split.cold.inproc_ms.p50", "ms"),
    ("split.cold.service_ms.p50", "ms"),
    ("split.warm.inproc_ms.p50", "ms"),
    ("split.warm.service_ms.p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("trace.coverage_mean", "ratio"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.spans", "count"),
];

/// Each workload's own end-to-end metrics, printed by name in the
/// human-readable lines ahead of the result line.
pub const DETAIL: [(&str, &str, &str); 22] = [
    ("cli-cold", "setup_s", "s"),
    ("cli-cold", "peak_rss_mb", "MB"),
    ("cli-cold", "error_ratio", "ratio"),
    ("cli-cold", "ops_per_s", "1/s"),
    ("cli-cold", "replay_ms.p50", "ms"),
    ("cli-cold", "replay_ms.p90", "ms"),
    ("cli-cold", "simulate_ms.p50", "ms"),
    ("cli-cold", "simulate_ms.p90", "ms"),
    ("serve-mixed", "setup_s", "s"),
    ("serve-mixed", "peak_rss_mb", "MB"),
    ("serve-mixed", "error_ratio", "ratio"),
    ("serve-mixed", "ops_per_s", "1/s"),
    ("serve-mixed", "analyze_cold_ms.p50", "ms"),
    ("serve-mixed", "analyze_cold_ms.p90", "ms"),
    ("serve-mixed", "analyze_warm_ms.p50", "ms"),
    ("serve-mixed", "analyze_warm_ms.p90", "ms"),
    ("serve-mixed", "upload_ms.p50", "ms"),
    ("serve-mixed", "upload_ms.p90", "ms"),
    ("sweep-job", "setup_s", "s"),
    ("sweep-job", "peak_rss_mb", "MB"),
    ("sweep-job", "error_ratio", "ratio"),
    ("sweep-job", "job_makespan_s", "s"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared"))
}

/// One run's results.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-named metrics as `(name, value, unit)`.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Input properties and other context, one line each.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
            detail: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        unit_of(&E2E, name);
        self.e2e.insert(name, value);
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        unit_of(&PER_LAYER, name);
        self.layers.insert(name, value);
    }

    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        unit_of(&PER_LAYER, name);
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Record one of this workload's own named metrics.
    pub fn set_detail(&mut self, name: &'static str, value: f64) {
        let unit = DETAIL
            .iter()
            .find(|(w, n, _)| *w == self.workload && *n == name)
            .map(|(_, _, u)| *u)
            .unwrap_or_else(|| panic!("'{name}' is not a {} metric", self.workload));
        self.detail.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn error_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The human-readable lines, then the one-line JSON result with the
    /// end-to-end (`trace == false`) or per-layer metrics.
    pub fn render(&self, trace: bool) -> String {
        let mut out = format!("# workload {}\n", self.workload);
        for line in &self.notes {
            out.push_str(&format!("# input {line}\n"));
        }
        for (name, value, unit) in &self.detail {
            out.push_str(&format!("# metric {name} = {value} {unit}\n"));
        }
        for (name, unit) in E2E {
            if let Some(v) = self.e2e.get(name) {
                out.push_str(&format!("# e2e {name} = {v} {unit}\n"));
            }
        }
        let metrics: Vec<(String, Value)> = if trace {
            PER_LAYER
                .iter()
                .map(|(n, u)| metric(n, self.layers[n], u))
                .collect()
        } else {
            E2E.iter()
                .map(|(n, u)| metric(n, self.e2e.get(n).copied().unwrap_or(0.0), u))
                .collect()
        };
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::UInt(self.attempted as u128)),
            ("failed".into(), Value::UInt(self.failed as u128)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("infallible renderer"));
        out.push('\n');
        out
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Float(value)),
            ("unit".into(), Value::Str(unit.to_string())),
        ]),
    )
}
