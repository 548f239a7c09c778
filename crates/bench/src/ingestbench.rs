//! Tracked ingest-throughput benchmark (`repro bench-ingest`).
//!
//! Measures the parallel zero-copy ingest pipeline
//! ([`netloc_mpi::parse_trace_auto`] then [`netloc_core::ingest_trace`]:
//! chunked byte parsing + sharded traffic accumulation + fused Table 1/3
//! stats) against the sequential
//! baseline it replaced: [`netloc_mpi::parse_trace`] followed by the three
//! separate event walks `TrafficMatrix::from_trace_full`,
//! `TrafficMatrix::from_trace_p2p`, and `Trace::stats`.
//!
//! | config      | ranks | events (full) | shape                             |
//! |-------------|-------|---------------|-----------------------------------|
//! | `ingest-64` | 64    | 1 000 000     | stencil halo sends + 0.5% colls   |
//! | `ingest-256`| 256   | 1 000 000     | stencil halo sends + 0.5% colls   |
//! | `ingest-512`| 512   | 1 000 000     | stencil halo sends + 0.5% colls   |
//!
//! Each cell first asserts the parallel pipeline reproduces the sequential
//! results exactly — same parsed trace, same traffic matrices (pairs,
//! bytes, messages, packets), same stats — before any timing, so the
//! benchmark doubles as a differential check. Reported per cell:
//! wall-clock, MB/s over the raw trace text, and events/s for both paths,
//! plus the end-to-end speedup.
//!
//! Schema v2 adds the columnar and streaming lanes to every cell: the
//! trace is re-encoded with [`netloc_mpi::write_trace_columnar`], decoded
//! whole ([`netloc_mpi::parse_trace_columnar`]) and incrementally
//! ([`netloc_mpi::ColStreamParser`] fed fixed 64 KiB slices), and each
//! lane is asserted byte-identical to the text ingest before timing. The
//! committed full run must show `columnar_vs_text_parse >= 3` on every
//! row (the ISSUE's ≥3× floor, enforced by [`validate_json`] outside
//! smoke mode), and the streaming lane's peak buffered bytes are asserted
//! well under the encoded file size — the bound that makes multi-GB
//! chunked uploads O(one column chunk) resident.
//!
//! Results are written to `BENCH_ingest.json` (`schema_version`-tagged;
//! see [`validate_json`]). `--smoke` shrinks the traces to ~20k events and
//! a single timing iteration — that mode runs in CI and fails on panic
//! (pipeline divergence) or schema regression; the full run stays manual
//! because it needs minutes of quiet machine.

use crate::benchjson::{field, finite_number, time_best};
use netloc_core::{ingest_trace, IngestResult, TrafficMatrix};
use netloc_mpi::{
    parse_trace, parse_trace_auto, write_trace, CollectiveOp, Payload, Rank, Trace, TraceBuilder,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};

/// Version tag of the `BENCH_ingest.json` layout. Bump on any field
/// rename or removal; CI smoke mode fails when the written file does not
/// match [`validate_json`] for this version. v2 added the columnar and
/// streaming lanes (`columnar_*`, `text_parse_s`, `streamed_*`).
pub const SCHEMA_VERSION: u32 = 2;

/// Slice size fed to the incremental stream parser, mimicking the
/// socket-read granularity of a chunked HTTP upload.
const STREAM_SLICE: usize = 64 * 1024;

/// The committed full run must parse columnar traces at least this many
/// times faster than the text parser (the ISSUE's floor).
pub const COLUMNAR_SPEEDUP_FLOOR: f64 = 3.0;

/// Events per trace in the full run (the ISSUE's 1M-event configs).
const FULL_EVENTS: usize = 1_000_000;
/// Events per trace in smoke mode (CI-friendly).
const SMOKE_EVENTS: usize = 20_000;
/// Timing iterations per cell; the minimum is reported.
const FULL_ITERS: usize = 5;

/// Generate a trace shaped like the paper's workloads (Table 1): sends are
/// dominated by a 3D stencil halo exchange (85% go to one of the six
/// lattice neighbors, the rest are long-range), and every 200th event is a
/// small synchronizing collective. Sizes and repeats vary so the parser
/// sees realistic field distributions rather than one cached line shape.
fn build_trace(name: &str, ranks: u32, events: usize, seed: u64) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = TraceBuilder::new(name, ranks).exec_time_s(12.5);
    let colls = [
        CollectiveOp::Allreduce,
        CollectiveOp::Bcast,
        CollectiveOp::Barrier,
    ];
    let side = (f64::from(ranks)).cbrt().round().max(2.0) as i64;
    let offsets = [1i64, -1, side, -side, side * side, -(side * side)];
    for i in 0..events {
        if i % 200 == 199 {
            let op = colls[rng.gen_range(0..colls.len())];
            b.collective(
                op,
                op.is_rooted().then(|| rng.gen_range(0..ranks) as usize),
                Payload::Uniform(rng.gen_range(8u64..65_536)),
                rng.gen_range(1u64..4),
            );
        } else {
            let src = rng.gen_range(0..ranks);
            let dst = if rng.gen_range(0u32..100) < 85 {
                let d = i64::from(src) + offsets[rng.gen_range(0..offsets.len())];
                d.rem_euclid(i64::from(ranks)) as u32
            } else {
                rng.gen_range(0..ranks)
            };
            b.send(
                Rank(src),
                Rank(dst),
                rng.gen_range(1u64..1_000_000),
                rng.gen_range(1u64..8),
            );
        }
    }
    b.build()
}

/// What the sequential baseline produces in its three separate passes.
struct SequentialResult {
    trace: Trace,
    full: TrafficMatrix,
    p2p: TrafficMatrix,
    stats: netloc_mpi::TraceStats,
}

fn sequential_ingest(text: &str) -> SequentialResult {
    let trace = parse_trace(text).expect("benchmark trace parses");
    let full = TrafficMatrix::from_trace_full(&trace);
    let p2p = TrafficMatrix::from_trace_p2p(&trace);
    let stats = trace.stats();
    SequentialResult {
        trace,
        full,
        p2p,
        stats,
    }
}

/// Panic with `context` unless the parallel pipeline reproduced the
/// sequential baseline exactly: trace, both matrices, and stats.
fn assert_equal(seq: &SequentialResult, par: &IngestResult, context: &str) {
    assert_eq!(par.trace, seq.trace, "{context}: parsed trace differs");
    assert_eq!(par.stats, seq.stats, "{context}: fused stats differ");
    for (label, a, b) in [
        ("full matrix", &par.matrix, &seq.full),
        ("p2p matrix", &par.p2p, &seq.p2p),
    ] {
        assert_eq!(
            a.num_ranks(),
            b.num_ranks(),
            "{context}: {label} rank count differs"
        );
        assert_eq!(
            a.sorted_pairs(),
            b.sorted_pairs(),
            "{context}: {label} pairs differ"
        );
    }
}

/// One (config) measurement.
#[derive(Serialize)]
pub struct IngestRow {
    /// Config name (`ingest-64`, ...).
    pub config: String,
    /// Number of ranks in the trace.
    pub ranks: u32,
    /// Number of trace events (send + collective records).
    pub events: u64,
    /// Size of the dumpi text in bytes.
    pub text_bytes: u64,
    /// Sequential path (`parse_trace` + three event walks): best
    /// wall-clock over the timing iterations.
    pub sequential_s: f64,
    /// Parallel fused pipeline (`parse_trace_auto` + `ingest_trace`): best
    /// wall-clock.
    pub parallel_s: f64,
    /// Trace text megabytes ingested per second, sequential path.
    pub sequential_mb_per_s: f64,
    /// Trace text megabytes ingested per second, parallel pipeline.
    pub parallel_mb_per_s: f64,
    /// Events ingested per second, sequential path.
    pub sequential_events_per_s: f64,
    /// Events ingested per second, parallel pipeline.
    pub parallel_events_per_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// Size of the columnar encoding of the same trace, in bytes.
    pub columnar_bytes: u64,
    /// The text-dumpi parser alone (`parse_trace`, the sequential
    /// reference — the same baseline `sequential_s` builds on): best
    /// wall-clock.
    pub text_parse_s: f64,
    /// Columnar parser alone (`parse_trace_columnar`): best wall-clock.
    pub columnar_s: f64,
    /// Columnar megabytes decoded per second.
    pub columnar_mb_per_s: f64,
    /// Events decoded per second from the columnar encoding.
    pub columnar_events_per_s: f64,
    /// `text_parse_s / columnar_s` — the ≥3× floor lives here.
    pub columnar_vs_text_parse: f64,
    /// Incremental stream decode (64 KiB slices): best wall-clock.
    pub streamed_s: f64,
    /// Events decoded per second through the stream parser.
    pub streamed_events_per_s: f64,
    /// Peak bytes the stream parser ever buffered — the resident-memory
    /// bound a chunked upload of this trace would see.
    pub streamed_peak_buffered_bytes: u64,
}

/// The full benchmark report serialized to `BENCH_ingest.json`.
#[derive(Serialize)]
pub struct IngestReport {
    /// See [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// True when produced by `repro bench-ingest --smoke` (tiny traces;
    /// timings are not comparable with full runs).
    pub smoke: bool,
    /// One row per trace config.
    pub results: Vec<IngestRow>,
}

/// Decode a columnar encoding through the incremental stream parser in
/// fixed [`STREAM_SLICE`] pieces, returning the trace and the parser's
/// peak buffered byte count (the resident-memory high-water mark).
fn stream_decode(col: &[u8]) -> (Trace, usize) {
    let mut parser = netloc_mpi::ColStreamParser::new();
    for slice in col.chunks(STREAM_SLICE) {
        parser.push(slice).expect("canonical stream decodes");
    }
    let peak = parser.max_buffered();
    (parser.finish().expect("stream completes"), peak)
}

/// Run the benchmark grid and return the report. Prints one line per cell.
///
/// Panics if the parallel pipeline ever disagrees with the sequential
/// baseline — the benchmark refuses to publish numbers for a divergent
/// ingest.
pub fn run(smoke: bool) -> IngestReport {
    let events = if smoke { SMOKE_EVENTS } else { FULL_EVENTS };
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut results = Vec::new();
    for (i, ranks) in [64u32, 256, 512].into_iter().enumerate() {
        let config = format!("ingest-{ranks}");
        let trace = build_trace(&config, ranks, events, 0x1265 + i as u64);
        let text = write_trace(&trace);
        let mb = text.len() as f64 / 1e6;

        let col = netloc_mpi::write_trace_columnar(&trace);
        let col_mb = col.len() as f64 / 1e6;

        // Differential guard before any number is trusted; also warms the
        // page cache and allocator for every path. The columnar and
        // streamed decodes must reproduce the text ingest byte-for-byte.
        let seq = sequential_ingest(&text);
        let par = ingest_trace(parse_trace_auto(text.as_bytes()).expect("benchmark trace parses"));
        assert_equal(&seq, &par, &config);
        let col_ingest = ingest_trace(parse_trace_auto(&col).expect("columnar encoding parses"));
        assert_equal(&seq, &col_ingest, &format!("{config} (columnar)"));
        let (streamed_trace, peak_buffered) = stream_decode(&col);
        assert_eq!(
            streamed_trace, seq.trace,
            "{config}: stream decode diverged from the text parse"
        );
        assert!(
            peak_buffered < col.len().max(1),
            "{config}: stream parser buffered the whole {} byte upload",
            col.len()
        );
        drop((seq, par, col_ingest, streamed_trace));

        let sequential_s = time_best(iters, || sequential_ingest(&text));
        let parallel_s = time_best(iters, || {
            ingest_trace(parse_trace_auto(text.as_bytes()).expect("parses"))
        });
        let text_parse_s = time_best(iters, || parse_trace(&text).expect("parses"));
        let columnar_s = time_best(iters, || {
            netloc_mpi::parse_trace_columnar(&col).expect("parses")
        });
        let streamed_s = time_best(iters, || stream_decode(&col).0);

        let events_f = trace.events.len() as f64;
        let row = IngestRow {
            config,
            ranks,
            events: trace.events.len() as u64,
            text_bytes: text.len() as u64,
            sequential_s,
            parallel_s,
            sequential_mb_per_s: mb / sequential_s,
            parallel_mb_per_s: mb / parallel_s,
            sequential_events_per_s: events_f / sequential_s,
            parallel_events_per_s: events_f / parallel_s,
            speedup: sequential_s / parallel_s,
            columnar_bytes: col.len() as u64,
            text_parse_s,
            columnar_s,
            columnar_mb_per_s: col_mb / columnar_s,
            columnar_events_per_s: events_f / columnar_s,
            columnar_vs_text_parse: text_parse_s / columnar_s,
            streamed_s,
            streamed_events_per_s: events_f / streamed_s,
            streamed_peak_buffered_bytes: peak_buffered as u64,
        };
        println!(
            "[bench-ingest] {:<11} events={:>8} text={:>6.1}MB seq={:>8.1}ms par={:>8.1}ms ({:>6.1} MB/s -> {:>6.1} MB/s) speedup={:.2}x",
            row.config,
            row.events,
            mb,
            row.sequential_s * 1e3,
            row.parallel_s * 1e3,
            row.sequential_mb_per_s,
            row.parallel_mb_per_s,
            row.speedup
        );
        println!(
            "[bench-ingest] {:<11} columnar={:>6.1}MB parse={:>8.1}ms ({:>6.1} MB/s) vs text parse {:>8.1}ms = {:.2}x; streamed {:>8.1}ms peak-buffered {}B",
            "", col_mb,
            row.columnar_s * 1e3,
            row.columnar_mb_per_s,
            row.text_parse_s * 1e3,
            row.columnar_vs_text_parse,
            row.streamed_s * 1e3,
            row.streamed_peak_buffered_bytes
        );
        results.push(row);
    }
    IngestReport {
        schema_version: SCHEMA_VERSION,
        smoke,
        results,
    }
}

/// Structural check of a `BENCH_ingest.json` value tree: version match,
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
    let smoke = match field(v, "smoke") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing smoke flag".into()),
    };
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
        for key in [
            "ranks",
            "events",
            "text_bytes",
            "columnar_bytes",
            "streamed_peak_buffered_bytes",
        ] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("results[{i}].{key} missing or not an integer"));
            }
        }
        for key in [
            "sequential_s",
            "parallel_s",
            "sequential_mb_per_s",
            "parallel_mb_per_s",
            "sequential_events_per_s",
            "parallel_events_per_s",
            "speedup",
            "text_parse_s",
            "columnar_s",
            "columnar_mb_per_s",
            "columnar_events_per_s",
            "columnar_vs_text_parse",
            "streamed_s",
            "streamed_events_per_s",
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
        // The committed full run carries the ISSUE's floor: columnar
        // parsing at least 3× the text parser on every 1M-event config.
        // Smoke traces are too small for stable ratios, so only full runs
        // are held to it.
        if !smoke {
            let ratio = field(row, "columnar_vs_text_parse")
                .and_then(finite_number)
                .unwrap_or(0.0);
            if ratio < COLUMNAR_SPEEDUP_FLOOR {
                return Err(format!(
                    "results[{i}].columnar_vs_text_parse = {ratio:.2} is below the \
                     {COLUMNAR_SPEEDUP_FLOOR}x floor"
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
        assert_eq!(report.results.len(), 3);
        validate_json(&report.to_value()).unwrap();
        for row in &report.results {
            assert!(row.events > 0);
            assert!(row.sequential_s > 0.0 && row.parallel_s > 0.0);
            assert!(row.columnar_bytes > 0);
            assert!(row.text_parse_s > 0.0 && row.columnar_s > 0.0);
            assert!(row.streamed_s > 0.0);
            assert!(
                row.columnar_bytes < row.text_bytes,
                "columnar must encode tighter than text"
            );
            assert!(
                row.streamed_peak_buffered_bytes < row.columnar_bytes,
                "streaming must not buffer the whole encoding"
            );
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
