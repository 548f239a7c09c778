//! What every `repro bench*` report shares: best-of timing, the
//! validate-then-write step, and the two accessors its validator reads the
//! serialized tree with.

use serde::{Serialize, Value};
use std::time::Instant;

/// Best wall-clock of `iters` runs of `f`, in seconds. Each result is
/// dropped outside the timed window, so tearing down a large result is
/// not timed.
pub(crate) fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(r));
    }
    best
}

/// Validate the serialized tree of `report` with `validate`, then write
/// the report to `path` as pretty JSON — a schema regression fails at the
/// producer, before the file is consumed by anything downstream. `file`
/// names the report layout (e.g. `BENCH_netmodel.json`) in the panic.
///
/// # Panics
/// Panics when `validate` rejects the report's own serialization.
pub fn write_report<R: Serialize>(
    report: &R,
    path: &str,
    file: &str,
    validate: fn(&Value) -> Result<(), String>,
) -> std::io::Result<()> {
    if let Err(e) = validate(&report.to_value()) {
        panic!("{file} schema regression: {e}");
    }
    let json = serde_json::to_string_pretty(report).expect("bench report serializes");
    std::fs::write(path, json)
}

/// The value of `key` in a JSON object, if `v` is one and has it.
pub(crate) fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`, unless it is a non-finite float.
pub(crate) fn finite_number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) if x.is_finite() => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}
