//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public API; nothing is added to the program under test. Stage
//! names follow the ROADMAP stage vocabulary (`decode`, `ingest`,
//! `digest`, `topology_build`, `route_build`, `mapping`, `replay`,
//! `simulate`, `serialize`, `http`) so an in-program recorder can reuse
//! them later; each span also names the layer it timed. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every stage a span may carry, plus `other`: time inside an operation
/// that no child span covers.
pub const STAGES: [&str; 11] = [
    "decode",
    "ingest",
    "digest",
    "topology_build",
    "route_build",
    "mapping",
    "replay",
    "simulate",
    "serialize",
    "http",
    "other",
];

/// One timed interval. An operation (CLI job, HTTP request, grid cell)
/// has at most one root span; its other spans are the root's children.
#[derive(Debug, Clone)]
struct Span {
    op: u64,
    root: bool,
    stage: &'static str,
    layer: &'static str,
    start: Duration,
    end: Duration,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A recorder. When off, [`Spans::time`] only runs the closure.
pub struct Spans {
    epoch: Instant,
    on: bool,
    op: u64,
    list: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch` (shared by the
    /// recorders of one run, so their spans merge onto one clock).
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            epoch,
            on,
            op: 0,
            list: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attribute the following spans to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` as a child span of the current operation.
    pub fn time<T>(
        &mut self,
        stage: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.push(false, stage, layer, start, end);
        out
    }

    /// Record the current operation's root span over `[start, end)`.
    pub fn root(&mut self, stage: &'static str, start: Instant, end: Instant) {
        if self.on {
            let (s, e) = (start - self.epoch, end - self.epoch);
            self.push(true, stage, "op", s, e);
        }
    }

    fn push(
        &mut self,
        root: bool,
        stage: &'static str,
        layer: &'static str,
        start: Duration,
        end: Duration,
    ) {
        self.list.push(Span {
            op: self.op,
            root,
            stage,
            layer,
            start,
            end,
        });
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Seconds spent in child spans of `layer`.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| !s.root && s.layer == layer)
            .map(Span::secs)
            .sum()
    }

    /// Seconds of child spans per operation.
    fn child_s(&self) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.list.iter().filter(|s| !s.root) {
            *out.entry(s.op).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Seconds of child spans of `op`.
    pub fn op_child_s(&self, op: u64) -> f64 {
        self.list
            .iter()
            .filter(|s| !s.root && s.op == op)
            .map(Span::secs)
            .sum()
    }

    /// Self time per stage: a child span's whole duration, and a root
    /// span's duration minus what its children cover.
    pub fn stage_self_s(&self) -> BTreeMap<&'static str, f64> {
        let children = self.child_s();
        let mut out: BTreeMap<&'static str, f64> = STAGES.iter().map(|s| (*s, 0.0)).collect();
        for s in &self.list {
            let own = if s.root {
                (s.secs() - children.get(&s.op).copied().unwrap_or(0.0)).max(0.0)
            } else {
                s.secs()
            };
            *out.entry(s.stage).or_insert(0.0) += own;
        }
        out
    }

    /// For each operation with a root span, the share of its wall time
    /// that child spans cover.
    pub fn coverage(&self) -> Vec<f64> {
        let children = self.child_s();
        self.list
            .iter()
            .filter(|s| s.root && s.secs() > 0.0)
            .map(|s| children.get(&s.op).copied().unwrap_or(0.0) / s.secs())
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            writeln!(
                out,
                "{{\"op\":{},\"root\":{},\"stage\":\"{}\",\"layer\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.op,
                s.root,
                s.stage,
                s.layer,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}
