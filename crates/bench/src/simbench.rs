//! Tracked temporal-simulation benchmark (`repro bench-sim`).
//!
//! Measures the sharded parallel simulation engine
//! ([`netloc_sim::simulate_parallel`]: conservative time windows + CSR
//! route-table lookups + slot-chain scheduling) against the sequential
//! reference it must stay byte-identical to
//! ([`netloc_sim::simulate_reference`]: one thread, a fresh
//! [`Topology::route`] per message, naive window attribution).
//!
//! | config           | topology               | nodes | injections (full) |
//! |------------------|------------------------|-------|-------------------|
//! | `sim-torus`      | `Torus3D [8,8,8]`      | 512   | ≥ 1 000 000       |
//! | `sim-fat-tree`   | `FatTree::new(16, 3)`  | 512   | ≥ 1 000 000       |
//! | `sim-dragonfly`  | `Dragonfly::new(8,4,4)`| 1 056 | ≥ 1 000 000       |
//!
//! Workloads are bursty halo-plus-transpose traces (a quarter
//! nearest-neighbour sends, the rest multi-scale shifted partners as in
//! spectral/FFT decompositions) expanded to over a million timed
//! injections (`sample_stride` 1 — no subsampling), simulated with a
//! 64-window congestion profile. Every
//! cell first asserts that the parallel engine reproduces the reference
//! `SimReport` **byte-identically** — at the auto execution settings and
//! at two adversarial worker/window combinations — before any timing, so
//! the benchmark doubles as a differential check and refuses to publish
//! numbers for a divergent engine. Reported per cell: wall-clock for both
//! engines, injections/s, the one-time route-table build cost, and the
//! end-to-end speedup.
//!
//! Results are written to `BENCH_sim.json` (`schema_version`-tagged; see
//! [`validate_json`]). `--smoke` shrinks the traces to ~30k injections
//! and a single timing iteration — that mode runs in CI and fails on
//! panic (engine divergence) or schema regression; the full run stays
//! manual because it needs minutes of quiet machine.

use crate::benchjson::{field, finite_number, time_best};
use netloc_mpi::{Rank, Trace, TraceBuilder};
use netloc_sim::{
    expand_trace, simulate_parallel, simulate_reference, Injection, SimConfig, SimExec,
};
use netloc_topology::routetable::StoragePlan;
use netloc_topology::{Dragonfly, FatTree, Mapping, RoutedTopology, Topology, Torus3D};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::time::Instant;

/// Version tag of the `BENCH_sim.json` layout. Bump on any field rename
/// or removal; CI smoke mode fails when the written file does not match
/// [`validate_json`] for this version.
pub const SCHEMA_VERSION: u32 = 1;

/// Target injections per cell in the full run (the ISSUE's ≥1M floor).
const FULL_INJECTIONS: usize = 1_050_000;
/// Target injections per cell in smoke mode (CI-friendly).
const SMOKE_INJECTIONS: usize = 30_000;
/// Timing iterations per cell; the minimum is reported.
const FULL_ITERS: usize = 3;

/// One benchmark topology.
struct BenchConfig {
    name: &'static str,
    topology: Box<dyn Topology>,
}

fn configs() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            name: "sim-torus",
            topology: Box::new(Torus3D::new([8, 8, 8])),
        },
        BenchConfig {
            name: "sim-fat-tree",
            topology: Box::new(FatTree::new(16, 3)),
        },
        BenchConfig {
            name: "sim-dragonfly",
            topology: Box::new(Dragonfly::new(8, 4, 4)),
        },
    ]
}

/// Generate a trace whose expansion is at least `target` injections:
/// a quarter nearest-neighbour halo sends, the rest shifted partners at
/// half-lattice strides — the pairing of transpose / butterfly phases in
/// spectral codes, which lands on near-diameter routes in a torus and
/// exercises the full up/down path in the indirect topologies. The shift
/// set is small, so the node-pair working set stays bounded the way real
/// decompositions are. Repeats are what expansion multiplies, so the
/// trace itself stays small while the injection list crosses the million
/// mark.
fn build_trace(name: &str, ranks: u32, target: usize, seed: u64) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = TraceBuilder::new(name, ranks).exec_time_s(2.0);
    let side = f64::from(ranks).cbrt().round().max(2.0) as i64;
    let near = [1i64, -1, side, -side];
    // Half-side offsets in every lattice dimension: the farthest partners
    // a dim-wise decomposition produces.
    let h = (side / 2).max(1);
    let far = [
        h + side * h + side * side * h,
        (h - 1).max(1) + side * h + side * side * h,
        h + side * (h - 1).max(1) + side * side * h,
        h + side * h + side * side * (h - 1).max(1),
    ];
    let mut expanded = 0usize;
    while expanded < target {
        let src = rng.gen_range(0..ranks);
        let shift = if rng.gen_range(0u32..100) < 25 {
            near[rng.gen_range(0..near.len())]
        } else {
            far[rng.gen_range(0..far.len())]
        };
        let dst = (i64::from(src) + shift).rem_euclid(i64::from(ranks)) as u32;
        if src == dst {
            continue;
        }
        let repeat = rng.gen_range(20u64..100);
        b.send(Rank(src), Rank(dst), rng.gen_range(256u64..262_144), repeat);
        expanded += repeat as usize;
    }
    b.build()
}

/// One (config) measurement.
#[derive(Serialize)]
pub struct SimRow {
    /// Config name (`sim-torus`, ...).
    pub config: String,
    /// Number of nodes in the topology.
    pub nodes: usize,
    /// Number of ranks in the workload.
    pub ranks: u32,
    /// Timed injections simulated (after expansion; stride 1).
    pub injections: u64,
    /// Report windows the horizon was cut into.
    pub windows: u64,
    /// Byte-identity comparisons performed before timing.
    pub identity_checks: u64,
    /// One-time dense CSR route-table construction cost, seconds.
    pub table_build_s: f64,
    /// Sequential reference engine: best wall-clock over the iterations.
    pub sequential_s: f64,
    /// Parallel engine (auto exec): best wall-clock over the iterations.
    pub parallel_s: f64,
    /// Injections simulated per second, sequential reference.
    pub sequential_inj_per_s: f64,
    /// Injections simulated per second, parallel engine.
    pub parallel_inj_per_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// Measured link utilization of the run (both engines agree).
    pub measured_utilization: f64,
    /// Mean queueing slowdown of the run (both engines agree).
    pub mean_slowdown: f64,
}

/// The full benchmark report serialized to `BENCH_sim.json`.
#[derive(Serialize)]
pub struct SimBenchReport {
    /// See [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// True when produced by `repro bench-sim --smoke` (tiny injection
    /// lists; timings are not comparable with full runs).
    pub smoke: bool,
    /// One row per topology config.
    pub results: Vec<SimRow>,
}

/// Run one cell: differential guard, then timing.
fn run_cell(cfg: &BenchConfig, injections: &[Injection], ranks: u32, iters: usize) -> SimRow {
    let topo = cfg.topology.as_ref();
    let mapping = Mapping::consecutive(ranks as usize, topo.num_nodes());
    // 64 windows: a finer congestion profile than the library default —
    // the per-window utilization/slowdown series is the feature under
    // test, so the benchmark resolves it properly.
    let sim_cfg = SimConfig {
        report_windows: 64,
        ..SimConfig::default()
    };

    let t = Instant::now();
    let routed = RoutedTopology::with_plan(topo, StoragePlan::Dense);
    let table_build_s = t.elapsed().as_secs_f64();

    // Byte-identity guard before any number is trusted — the benchmark
    // refuses to publish a speedup for an engine that diverges from the
    // reference. Also warms the allocator and page cache for both paths.
    let reference = simulate_reference(topo, &mapping, injections, &sim_cfg);
    let mut identity_checks = 0u64;
    for exec in [
        SimExec::default(),
        SimExec {
            workers: 2,
            window: 10_000,
        },
        SimExec {
            workers: 3,
            window: 1_000,
        },
    ] {
        let report = simulate_parallel(&routed, &mapping, injections, &sim_cfg, &exec);
        assert_eq!(
            report, reference,
            "{}: parallel engine (workers {}, window {}) diverged from refsim",
            cfg.name, exec.workers, exec.window
        );
        identity_checks += 1;
    }

    let sequential_s = time_best(iters, || {
        simulate_reference(topo, &mapping, injections, &sim_cfg)
    });
    let parallel_s = time_best(iters, || {
        simulate_parallel(&routed, &mapping, injections, &sim_cfg, &SimExec::default())
    });

    let n = injections.len() as f64;
    SimRow {
        config: cfg.name.to_string(),
        nodes: topo.num_nodes(),
        ranks,
        injections: injections.len() as u64,
        windows: reference.windows.len() as u64,
        identity_checks,
        table_build_s,
        sequential_s,
        parallel_s,
        sequential_inj_per_s: n / sequential_s,
        parallel_inj_per_s: n / parallel_s,
        speedup: sequential_s / parallel_s,
        measured_utilization: reference.measured_utilization(),
        mean_slowdown: reference.mean_slowdown(),
    }
}

/// Run the benchmark grid and return the report. Prints one line per cell.
///
/// # Panics
/// Panics if the parallel engine ever disagrees with the reference, or if
/// a full-mode expansion falls short of one million injections.
pub fn run(smoke: bool) -> SimBenchReport {
    let target = if smoke {
        SMOKE_INJECTIONS
    } else {
        FULL_INJECTIONS
    };
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut results = Vec::new();
    for (i, cfg) in configs().into_iter().enumerate() {
        let ranks = cfg.topology.num_nodes().min(512) as u32;
        let trace = build_trace(cfg.name, ranks, target, 0x51B0 + i as u64);
        // The cap is far above the target so expansion never subsamples:
        // stride 1, every repeat becomes its own timed injection.
        let (injections, stride) = expand_trace(&trace, 4 * target);
        assert_eq!(stride, 1, "{}: benchmark must not subsample", cfg.name);
        if !smoke {
            assert!(
                injections.len() >= 1_000_000,
                "{}: only {} injections",
                cfg.name,
                injections.len()
            );
        }
        let row = run_cell(&cfg, &injections, ranks, iters);
        println!(
            "[bench-sim] {:<13} nodes={:>5} inj={:>8} seq={:>8.1}ms par={:>8.1}ms ({:>5.1}M/s -> {:>5.1}M/s) speedup={:.2}x",
            row.config,
            row.nodes,
            row.injections,
            row.sequential_s * 1e3,
            row.parallel_s * 1e3,
            row.sequential_inj_per_s / 1e6,
            row.parallel_inj_per_s / 1e6,
            row.speedup
        );
        results.push(row);
    }
    SimBenchReport {
        schema_version: SCHEMA_VERSION,
        smoke,
        results,
    }
}

/// Structural check of a `BENCH_sim.json` value tree: version match,
/// required fields present with the right JSON types, finite non-negative
/// timings, at least one identity check per row, non-empty results.
/// Returns the first violation found.
pub fn validate_json(v: &Value) -> Result<(), String> {
    match field(v, "schema_version") {
        Some(Value::UInt(ver)) if *ver == u128::from(SCHEMA_VERSION) => {}
        Some(Value::UInt(ver)) => {
            return Err(format!("schema_version {ver} != expected {SCHEMA_VERSION}"))
        }
        _ => return Err("missing schema_version".into()),
    }
    if !matches!(field(v, "smoke"), Some(Value::Bool(_))) {
        return Err("missing smoke flag".into());
    }
    let results = match field(v, "results") {
        Some(Value::Array(rows)) => rows,
        _ => return Err("missing results array".into()),
    };
    if results.is_empty() {
        return Err("empty results array".into());
    }
    for (i, row) in results.iter().enumerate() {
        if !matches!(field(row, "config"), Some(Value::Str(_))) {
            return Err(format!("results[{i}].config missing or not a string"));
        }
        for key in ["nodes", "ranks", "injections", "windows", "identity_checks"] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("results[{i}].{key} missing or not an integer"));
            }
        }
        match field(row, "identity_checks") {
            Some(Value::UInt(n)) if *n >= 1 => {}
            _ => return Err(format!("results[{i}].identity_checks must be >= 1")),
        }
        for key in [
            "table_build_s",
            "sequential_s",
            "parallel_s",
            "sequential_inj_per_s",
            "parallel_inj_per_s",
            "speedup",
            "measured_utilization",
            "mean_slowdown",
        ] {
            match field(row, key).and_then(finite_number) {
                Some(x) if x >= 0.0 => {}
                Some(x) => {
                    return Err(format!("results[{i}].{key} = {x} is negative"));
                }
                None => {
                    return Err(format!("results[{i}].{key} missing or not a finite number"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_valid_schema() {
        let report = run(true);
        assert_eq!(report.results.len(), 3);
        validate_json(&report.to_value()).unwrap();
        for row in &report.results {
            assert!(row.injections > 0);
            assert!(row.identity_checks >= 3);
            assert!(row.sequential_s > 0.0 && row.parallel_s > 0.0);
            assert!(row.mean_slowdown >= 1.0);
        }
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let tree = run(true).to_value();

        let Value::Object(fields) = tree.clone() else {
            panic!("report serializes to an object");
        };
        let without_smoke =
            Value::Object(fields.into_iter().filter(|(k, _)| k != "smoke").collect());
        assert!(validate_json(&without_smoke).unwrap_err().contains("smoke"));

        let Value::Object(fields) = tree else {
            panic!("report serializes to an object");
        };
        let bumped = Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k == "schema_version" {
                        (k, Value::UInt(u128::from(SCHEMA_VERSION) + 1))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        );
        assert!(validate_json(&bumped)
            .unwrap_err()
            .contains("schema_version"));

        assert!(validate_json(&Value::Null).is_err());
    }
}
