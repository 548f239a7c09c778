//! Tracked replay-throughput benchmark (`repro bench`).
//!
//! Measures the routed per-source replay path ([`analyze_network_routed`])
//! against the pre-route-table baseline this module keeps for the purpose
//! (`rank_pair_baseline`) on the three paper-scale topologies:
//!
//! | config          | topology               | nodes  | route storage |
//! |-----------------|------------------------|--------|---------------|
//! | `torus-1728`    | `Torus3D [12,12,12]`   | 1 728  | dense CSR     |
//! | `fat-tree-2592` | `FatTree::new(48, 3)`  | 13 824 | lazy rows     |
//! | `dragonfly-1056`| `Dragonfly::new(8,4,4)`| 1 056  | dense CSR     |
//!
//! Each config replays an all-to-all matrix (the paper's BigFFT-style
//! worst case, and the pair-densest cell of any sweep) under one rank per
//! node, placed consecutively or at random (seed 1), and under the paper's
//! multicore placements: block (4 consecutive ranks per node) and
//! random-block (4 ranks per node, nodes scattered at random). The block
//! placements are where the per-source fold bites — up to 16× fewer route
//! walks at 4 ranks/node; the random placement relabels every destination
//! out of order.
//! Reported per cell: wall-clock, rank-pairs/s and packets/s for both
//! paths plus the speedup. Every cell first asserts the two paths produce
//! byte-identical [`NetworkReport`]s, so the benchmark doubles as a
//! differential check.
//!
//! On top of the replay grid, a **scale column** (PR 8) measures the
//! compressed hierarchical route tables on zoo machines at 10k, 100k and
//! 1M endpoints: per row the node/router counts, compressed table bytes
//! vs the flat-CSR projection, build wall-clock and replay events/s of a
//! seeded random-pairs workload. Every scale cell asserts the auto picker
//! chose compressed storage, verifies sampled routes byte-identical to
//! direct routing, and demands a ≥10× size reduction over the flat
//! projection. The smoke run keeps one mid-size Slim Fly cell plus a tiny
//! twin on which compressed, dense and lazy-compressed replays are
//! compared exhaustively.
//!
//! Results are written to `BENCH_netmodel.json`
//! (`schema_version`-tagged; see [`validate_json`]). `--smoke` swaps in
//! sub-second configs and a single timing iteration — that mode runs in
//! CI and fails on panic (report divergence) or schema regression; the
//! full run stays manual because it needs minutes of quiet machine.

use crate::benchjson::{field, finite_number, time_best};
use netloc_core::{
    analyze_network_routed, node_pair_traffic, patterns, NetworkReport, PairTraffic, TrafficMatrix,
};
use netloc_topology::routetable::StoragePlan;
use netloc_topology::{
    Dragonfly, FatTree, LinkClass, Mapping, MappingSpec, NodeId, RoutedTopology, Topology,
    TopologySpec, Torus3D,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Serialize, Value};
use std::time::Instant;

/// Version tag of the `BENCH_netmodel.json` layout. Bump on any field
/// rename or removal; CI smoke mode fails when the written file does not
/// match [`validate_json`] for this version. v2 added the `scale` column
/// (compressed route tables on zoo machines).
pub const SCHEMA_VERSION: u32 = 2;

/// Message payload in bytes (multiple packets per message).
const MESSAGE_BYTES: u64 = 4096;
/// Timing iterations per cell; the minimum is reported.
const FULL_ITERS: usize = 3;

/// One benchmark topology/workload combination.
struct BenchConfig {
    name: &'static str,
    topology: Box<dyn Topology>,
    ranks: u32,
}

fn paper_configs() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            name: "torus-1728",
            topology: Box::new(Torus3D::new([12, 12, 12])),
            ranks: 1728,
        },
        BenchConfig {
            name: "fat-tree-2592",
            topology: Box::new(FatTree::new(48, 3)),
            ranks: 2592,
        },
        BenchConfig {
            name: "dragonfly-1056",
            topology: Box::new(Dragonfly::new(8, 4, 4)),
            ranks: 1056,
        },
    ]
}

fn smoke_configs() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            name: "torus-216",
            topology: Box::new(Torus3D::new([6, 6, 6])),
            ranks: 216,
        },
        BenchConfig {
            name: "fat-tree-64",
            topology: Box::new(FatTree::new(8, 3)),
            ranks: 64,
        },
        BenchConfig {
            name: "dragonfly-72",
            topology: Box::new(Dragonfly::new(4, 2, 2)),
            ranks: 72,
        },
    ]
}

/// One (config, mapping) measurement.
#[derive(Serialize)]
pub struct BenchRow {
    /// Config name (`torus-1728`, ...).
    pub config: String,
    /// Number of nodes in the topology.
    pub nodes: usize,
    /// Number of ranks in the workload.
    pub ranks: u32,
    /// Mapping label (`consecutive`, `random`, `block4`, `random-block4`).
    pub mapping: String,
    /// Workload label.
    pub workload: String,
    /// Distinct communicating rank pairs in the matrix.
    pub rank_pairs: usize,
    /// Unique node pairs after collapsing under the mapping.
    pub node_pairs: usize,
    /// Total packets replayed.
    pub packets: u64,
    /// Whether the route table is a dense CSR (vs lazy per-source rows).
    pub dense_table: bool,
    /// One-time route-table construction cost (dense mode; ~0 for lazy).
    pub table_build_s: f64,
    /// Pre-PR path: best wall-clock over the timing iterations.
    pub baseline_s: f64,
    /// Routed per-source path: best wall-clock over the timing iterations.
    pub routed_s: f64,
    /// Rank pairs replayed per second, pre-PR path.
    pub baseline_pairs_per_s: f64,
    /// Rank pairs replayed per second, CSR path.
    pub routed_pairs_per_s: f64,
    /// Packets accounted per second, pre-PR path.
    pub baseline_packets_per_s: f64,
    /// Packets accounted per second, CSR path.
    pub routed_packets_per_s: f64,
    /// `baseline_s / routed_s`.
    pub speedup: f64,
}

/// One compressed-route-table scale measurement (see [`run_scale`]).
#[derive(Serialize)]
pub struct ScaleRow {
    /// Topology family (`slimfly`, `hyperx`, `jellyfish`).
    pub family: String,
    /// Canonical topology spec of the machine.
    pub spec: String,
    /// Endpoint (node) count.
    pub nodes: usize,
    /// Router count.
    pub routers: usize,
    /// Replay events (distinct rank pairs of the seeded workload).
    pub events: usize,
    /// Actual bytes of the compressed route table.
    pub table_bytes: usize,
    /// What a flat all-pairs CSR of the same routes would occupy.
    pub flat_projection_bytes: u128,
    /// `flat_projection_bytes / table_bytes`.
    pub compression_ratio: f64,
    /// Wall-clock to build the compressed table (via the auto picker).
    pub build_s: f64,
    /// Best replay wall-clock over the timing iterations.
    pub replay_s: f64,
    /// `events / replay_s`.
    pub replay_events_per_s: f64,
    /// True once sampled compressed routes were checked byte-identical to
    /// direct routing and the full replay report matched the direct
    /// storage mode (the row is never emitted otherwise).
    pub verified_against_direct: bool,
}

/// The full benchmark report serialized to `BENCH_netmodel.json`.
#[derive(Serialize)]
pub struct BenchReport {
    /// See [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// True when produced by `repro bench --smoke` (tiny configs; timings
    /// are not comparable with full runs).
    pub smoke: bool,
    /// One row per (config, mapping) cell.
    pub results: Vec<BenchRow>,
    /// Compressed-route-table scale column (one row per zoo machine).
    pub scale: Vec<ScaleRow>,
}

/// The pre-route-table replay, kept as this benchmark's baseline: it
/// collects and sorts the rank-pair list on every call and recomputes
/// every route with [`Topology::route_into`] per *rank* pair (no node-pair
/// deduplication, no route table), folding chunks of `chunk_size` pairs
/// in parallel and summing their reports in chunk order. Every field is
/// an exact integer sum, so it is byte-identical to the routed replay,
/// which every cell asserts before timing.
fn rank_pair_baseline(
    topo: &dyn Topology,
    mapping: &Mapping,
    tm: &TrafficMatrix,
    chunk_size: usize,
) -> NetworkReport {
    let classes: Vec<LinkClass> = topo.links().iter().map(|l| l.class).collect();
    let empty = || NetworkReport {
        packet_hops: 0,
        packets: 0,
        messages: 0,
        link_volume_bytes: 0,
        used_links: 0,
        total_links: classes.len(),
        global_packets: 0,
        global_messages: 0,
        link_loads: vec![0; classes.len()],
        hop_histogram: Vec::new(),
    };
    let mut pairs: Vec<((u32, u32), PairTraffic)> = tm.iter().map(|(k, p)| (*k, *p)).collect();
    pairs.sort_unstable_by_key(|(k, _)| *k);
    let mut report = pairs
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut rep = empty();
            let mut route = Vec::new();
            for ((src, dst), p) in chunk {
                let (ns, nd) = (
                    mapping.node_of(*src as usize),
                    mapping.node_of(*dst as usize),
                );
                route.clear();
                topo.route_into(ns, nd, &mut route);
                let hops = route.len();
                rep.packet_hops += hops as u128 * p.packets as u128;
                rep.packets += p.packets;
                rep.messages += p.messages;
                rep.link_volume_bytes += hops as u128 * p.bytes as u128;
                if rep.hop_histogram.len() <= hops {
                    rep.hop_histogram.resize(hops + 1, 0);
                }
                rep.hop_histogram[hops] += p.packets;
                if route.iter().any(|l| classes[l.idx()].is_global()) {
                    rep.global_packets += p.packets;
                    rep.global_messages += p.messages;
                }
                for l in &route {
                    rep.link_loads[l.idx()] += p.bytes;
                }
            }
            rep
        })
        .reduce(empty, |mut a, b| {
            a.packet_hops += b.packet_hops;
            a.packets += b.packets;
            a.messages += b.messages;
            a.link_volume_bytes += b.link_volume_bytes;
            a.global_packets += b.global_packets;
            a.global_messages += b.global_messages;
            for (x, y) in a.link_loads.iter_mut().zip(&b.link_loads) {
                *x += y;
            }
            if a.hop_histogram.len() < b.hop_histogram.len() {
                a.hop_histogram.resize(b.hop_histogram.len(), 0);
            }
            for (h, c) in b.hop_histogram.iter().enumerate() {
                a.hop_histogram[h] += c;
            }
            a
        });
    report.used_links = report.link_loads.iter().filter(|&&b| b > 0).count();
    report
}

/// Run the benchmark grid and return the report. Prints one line per cell.
///
/// Panics if the baseline and CSR paths ever disagree on a report — the
/// benchmark refuses to publish numbers for divergent replays.
pub fn run(smoke: bool) -> BenchReport {
    let configs = if smoke {
        smoke_configs()
    } else {
        paper_configs()
    };
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut results = Vec::new();
    for cfg in &configs {
        let topo: &dyn Topology = cfg.topology.as_ref();
        let nodes = topo.num_nodes();
        let tm = patterns::all_to_all(cfg.ranks, MESSAGE_BYTES, 1);
        let workload = "all-to-all".to_string();

        let t = Instant::now();
        let routed = RoutedTopology::auto(topo);
        let table_build_s = t.elapsed().as_secs_f64();

        let specs = [
            ("consecutive", MappingSpec::Consecutive),
            ("random", MappingSpec::Random { seed: 1 }),
            ("block4", MappingSpec::Block { cores: 4 }),
            (
                "random-block4",
                MappingSpec::RandomBlock { cores: 4, seed: 1 },
            ),
        ];
        for (label, spec) in &specs {
            let mapping = spec
                .build(cfg.ranks as usize, nodes)
                .expect("bench mappings fit their machines");
            let rank_pairs = tm.num_pairs();
            let chunk = 512.max(rank_pairs / 256 + 1);

            // Warm-up doubles as the differential guard: both paths must
            // produce byte-identical reports before any number is trusted.
            // For lazy tables this also pays the one-time row fills.
            let base_rep = rank_pair_baseline(topo, &mapping, &tm, chunk);
            let routed_rep = analyze_network_routed(&routed, &mapping, &tm);
            assert_eq!(
                base_rep, routed_rep,
                "replay divergence on {} / {label}",
                cfg.name
            );

            let node_pairs = node_pair_traffic(&mapping, &tm).len();
            let baseline_s = time_best(iters, || {
                std::hint::black_box(rank_pair_baseline(topo, &mapping, &tm, chunk));
            });
            let routed_s = time_best(iters, || {
                std::hint::black_box(analyze_network_routed(&routed, &mapping, &tm));
            });

            let packets = base_rep.packets;
            let row = BenchRow {
                config: cfg.name.to_string(),
                nodes,
                ranks: cfg.ranks,
                mapping: label.to_string(),
                workload: workload.clone(),
                rank_pairs,
                node_pairs,
                packets,
                dense_table: routed.is_precomputed(),
                table_build_s,
                baseline_s,
                routed_s,
                baseline_pairs_per_s: rank_pairs as f64 / baseline_s,
                routed_pairs_per_s: rank_pairs as f64 / routed_s,
                baseline_packets_per_s: packets as f64 / baseline_s,
                routed_packets_per_s: packets as f64 / routed_s,
                speedup: baseline_s / routed_s,
            };
            println!(
                "[bench] {:<14} {:<11} pairs={:>7} nodepairs={:>7} base={:>9.1}ms routed={:>9.1}ms speedup={:.2}x",
                row.config,
                row.mapping,
                row.rank_pairs,
                row.node_pairs,
                row.baseline_s * 1e3,
                row.routed_s * 1e3,
                row.speedup
            );
            results.push(row);
        }
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        smoke,
        results,
        scale: run_scale(smoke),
    }
}

/// Scale configs: canonical spec strings so the cell also exercises spec
/// parsing end to end. Full mode covers three families at ~10k endpoints
/// plus a 100k Slim Fly and a ~1M-endpoint HyperX; smoke keeps one
/// mid-size Slim Fly cell (~50k endpoints) CI can afford.
fn scale_configs(smoke: bool) -> Vec<(&'static str, &'static str, usize)> {
    if smoke {
        vec![("slimfly", "slimfly:37,18", 100_000)] // 49 284 nodes
    } else {
        vec![
            ("slimfly", "slimfly:17,18", 1_000_000),  // 10 404 nodes
            ("hyperx", "hyperx:16x16,40", 1_000_000), // 10 240 nodes
            ("jellyfish", "jellyfish:700,12,16,1", 1_000_000), // 11 200 nodes
            ("slimfly", "slimfly:53,18", 1_000_000),  // 101 124 nodes
            ("hyperx", "hyperx:64x64,244", 1_000_000), // 999 424 nodes
        ]
    }
}

/// Sampled pairs checked byte-identical against direct routing per cell.
const SCALE_VERIFY_PAIRS: usize = 4096;

/// Measure the compressed hierarchical route tables at scale. Every cell:
///
/// 1. builds storage through `RoutedTopology::auto` and asserts the
///    compressed representation was picked,
/// 2. checks sampled routes byte-identical to direct (storage-free)
///    routing and the full replay report equal to the direct-mode replay,
/// 3. asserts the compressed table is ≥10× smaller than the flat-CSR
///    projection of the same routes,
/// 4. times the replay of a seeded random-pairs workload.
///
/// In smoke mode a tiny Slim Fly twin additionally compares compressed,
/// dense and lazy-compressed storage on *all* pairs, so CI pins the
/// equivalence the big cells can only sample.
pub fn run_scale(smoke: bool) -> Vec<ScaleRow> {
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut rows = Vec::new();
    for (family, spec_str, raw_events) in scale_configs(smoke) {
        let spec: TopologySpec = spec_str.parse().expect("scale spec parses");
        let topo = spec.build().expect("scale spec builds");
        let nodes = topo.num_nodes();

        let t = Instant::now();
        let routed = RoutedTopology::auto(topo.as_ref());
        let build_s = t.elapsed().as_secs_f64();
        let table = routed
            .compressed_table()
            .expect("scale machines are past the dense limit and router-symmetric");
        let routers = table.num_routers();
        let table_bytes = table.memory_bytes();
        let flat_projection_bytes = table.flat_projection_bytes();
        let compression_ratio = flat_projection_bytes as f64 / table_bytes as f64;
        assert!(
            compression_ratio >= 10.0,
            "{spec_str}: compressed table only {compression_ratio:.1}x smaller than flat"
        );

        // Sampled byte-identity against direct (storage-free) routing.
        let direct = RoutedTopology::direct(topo.as_ref());
        let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1e);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..SCALE_VERIFY_PAIRS {
            let s = NodeId(rng.gen_range(0..nodes as u32));
            let d = NodeId(rng.gen_range(0..nodes as u32));
            assert_eq!(
                routed.route_of(s, d, &mut a),
                direct.route_of(s, d, &mut b),
                "{spec_str}: compressed route diverges from direct at {s:?}->{d:?}"
            );
        }

        // Seeded random-pairs workload over the whole machine, one rank
        // per node; `events` is the deduplicated pair count replayed.
        let mut tm = TrafficMatrix::new(nodes as u32);
        for _ in 0..raw_events {
            tm.record(
                rng.gen_range(0..nodes as u32),
                rng.gen_range(0..nodes as u32),
                MESSAGE_BYTES,
                1,
            );
        }
        let events = tm.num_pairs();
        let mapping = Mapping::consecutive(nodes, nodes);
        let direct_rep = analyze_network_routed(&direct, &mapping, &tm);
        let routed_rep = analyze_network_routed(&routed, &mapping, &tm);
        assert_eq!(direct_rep, routed_rep, "{spec_str}: replay divergence");

        let replay_s = time_best(iters, || {
            std::hint::black_box(analyze_network_routed(&routed, &mapping, &tm));
        });
        let row = ScaleRow {
            family: family.to_string(),
            spec: spec.to_string(),
            nodes,
            routers,
            events,
            table_bytes,
            flat_projection_bytes,
            compression_ratio,
            build_s,
            replay_s,
            replay_events_per_s: events as f64 / replay_s,
            verified_against_direct: true,
        };
        println!(
            "[scale] {:<22} nodes={:>7} routers={:>5} table={:>9}B ({:>8.0}x smaller) build={:>8.1}ms replay={:>9.2}Mev/s",
            row.spec,
            row.nodes,
            row.routers,
            row.table_bytes,
            row.compression_ratio,
            row.build_s * 1e3,
            row.replay_events_per_s / 1e6
        );
        rows.push(row);
    }

    if smoke {
        // Tiny twin: the smoke cell above can only sample; this machine is
        // small enough to compare compressed, dense and lazy-compressed
        // storage on every ordered pair.
        let twin = netloc_topology::SlimFly::new(5, 2);
        let dense = RoutedTopology::with_plan(&twin, StoragePlan::Dense);
        let modes = [
            (
                "compressed",
                RoutedTopology::with_plan(&twin, StoragePlan::Compressed),
            ),
            (
                "lazy-compressed",
                RoutedTopology::with_plan(&twin, StoragePlan::LazyCompressed),
            ),
        ];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for s in 0..twin.num_nodes() as u32 {
            for d in 0..twin.num_nodes() as u32 {
                let want = dense.route_of(NodeId(s), NodeId(d), &mut a);
                for (label, routed) in &modes {
                    assert_eq!(
                        routed.route_of(NodeId(s), NodeId(d), &mut b),
                        want,
                        "twin slimfly:5,2 {label} route diverges at {s}->{d}"
                    );
                }
            }
        }
        println!("[scale] twin slimfly:5,2        compressed == dense on all pairs");
    }
    rows
}

/// Structural check of a `BENCH_netmodel.json` value tree: version match,
/// required fields present with the right JSON types, finite non-negative
/// timings, non-empty results. Returns the first violation found.
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
        for key in ["config", "mapping", "workload"] {
            if !matches!(field(row, key), Some(Value::Str(_))) {
                return Err(format!("results[{i}].{key} missing or not a string"));
            }
        }
        for key in ["nodes", "ranks", "rank_pairs", "node_pairs", "packets"] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("results[{i}].{key} missing or not an integer"));
            }
        }
        if !matches!(field(row, "dense_table"), Some(Value::Bool(_))) {
            return Err(format!("results[{i}].dense_table missing or not a bool"));
        }
        for key in [
            "table_build_s",
            "baseline_s",
            "routed_s",
            "baseline_pairs_per_s",
            "routed_pairs_per_s",
            "baseline_packets_per_s",
            "routed_packets_per_s",
            "speedup",
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
    let scale = match field(v, "scale") {
        Some(Value::Array(rows)) => rows,
        _ => return Err("missing scale array".into()),
    };
    if scale.is_empty() {
        return Err("empty scale array".into());
    }
    for (i, row) in scale.iter().enumerate() {
        for key in ["family", "spec"] {
            if !matches!(field(row, key), Some(Value::Str(_))) {
                return Err(format!("scale[{i}].{key} missing or not a string"));
            }
        }
        for key in [
            "nodes",
            "routers",
            "events",
            "table_bytes",
            "flat_projection_bytes",
        ] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("scale[{i}].{key} missing or not an integer"));
            }
        }
        match field(row, "verified_against_direct") {
            Some(Value::Bool(true)) => {}
            Some(Value::Bool(false)) => {
                return Err(format!(
                    "scale[{i}] was not verified against direct routing"
                ));
            }
            _ => return Err(format!("scale[{i}].verified_against_direct missing")),
        }
        for key in [
            "compression_ratio",
            "build_s",
            "replay_s",
            "replay_events_per_s",
        ] {
            match field(row, key).and_then(finite_number) {
                Some(x) if x >= 0.0 => {}
                Some(x) => return Err(format!("scale[{i}].{key} = {x} is negative")),
                None => {
                    return Err(format!("scale[{i}].{key} missing or not a finite number"));
                }
            }
        }
        if let Some(ratio) = field(row, "compression_ratio").and_then(finite_number) {
            if ratio < 10.0 {
                return Err(format!(
                    "scale[{i}].compression_ratio = {ratio:.1} below the documented 10x floor"
                ));
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
        assert_eq!(report.results.len(), 12); // 3 configs × 4 mappings
        assert_eq!(report.scale.len(), 1); // one compressed scale cell
        let cell = &report.scale[0];
        assert_eq!(cell.spec, "slimfly:37,18");
        assert!(
            cell.nodes > 40_000,
            "smoke scale cell shrank: {}",
            cell.nodes
        );
        assert!(cell.verified_against_direct);
        assert!(cell.compression_ratio >= 10.0);
        validate_json(&report.to_value()).unwrap();
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

        let Value::Object(fields) = tree.clone() else {
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

        let Value::Object(fields) = tree else {
            panic!("report serializes to an object");
        };
        let without_scale =
            Value::Object(fields.into_iter().filter(|(k, _)| k != "scale").collect());
        assert!(validate_json(&without_scale).unwrap_err().contains("scale"));

        assert!(validate_json(&Value::Null).is_err());
    }
}
