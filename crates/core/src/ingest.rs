//! Parallel fused trace ingest: trace → (traffic matrices, stats), whole
//! or cut into time windows.
//!
//! The sequential pipeline runs three analysis passes over a parsed trace —
//! [`TrafficMatrix::from_trace_full`], [`TrafficMatrix::from_trace_p2p`],
//! and [`TraceStats::compute`] each re-walk `trace.events`. This module
//! fuses them into one chunk-parallel fold; callers decode first
//! ([`parse_trace_auto`](netloc_mpi::parse_trace_auto) picks the
//! chunk-parallel text or columnar parser) and then call [`ingest_trace`]:
//!
//! * events are split into one chunk per rayon worker;
//! * each worker folds its chunk into a private [`WindowedAccum`] — one
//!   [`Shard`] per time window holding full matrix cells, p2p-only cells,
//!   and Table 1 counters accumulated together, with collectives expanded
//!   through the allocation-free [`for_each_translated`] callback;
//! * accumulators merge pairwise (plain `u64` additions) and the merged
//!   cells become the final [`TrafficMatrix`]s.
//!
//! The whole-trace ingest is the one-window case: [`ingest_trace`] folds
//! each chunk straight into window 0 and returns it as the
//! [`IngestResult`].
//!
//! Every per-pair update uses exactly [`TrafficMatrix::record`]'s
//! arithmetic, and `u64` addition is associative/commutative, so the result
//! is identical — same pairs, bytes, message and packet counts — to the
//! sequential constructors. The differential oracle in `netloc-testkit`
//! asserts that over the whole corpus; the property tests assert invariance
//! under worker count and chunk size.
//!
//! For small rank counts each whole-trace shard accumulates into a dense
//! `n × n` cell array (branch-free indexed adds on the hot path) and
//! converts to the hash-map form once at the end; large rank counts, wide
//! fan-outs and windowed folds use hash-map shards so memory stays bounded
//! by actual pair counts.

use crate::fxhash::FxHashMap;
use crate::netmodel::PACKET_PAYLOAD;
use crate::traffic::{PairTraffic, TrafficMatrix};
use netloc_mpi::{
    collective_volume, for_each_translated, CollectiveOp, CommId, Event, Payload, TimedEvent,
    Trace, TraceStats,
};
use rayon::prelude::*;

/// Everything the analysis layers need from one trace, produced by a single
/// fused pass: the trace itself, the full (p2p + translated collectives)
/// traffic matrix, the p2p-only matrix, and the Table 1 statistics.
#[derive(Debug, Clone)]
pub struct IngestResult {
    /// The parsed trace (header, communicators, events).
    pub trace: Trace,
    /// Full traffic matrix: p2p plus translated collectives
    /// (identical to [`TrafficMatrix::from_trace_full`]).
    pub matrix: TrafficMatrix,
    /// Point-to-point-only matrix
    /// (identical to [`TrafficMatrix::from_trace_p2p`]).
    pub p2p: TrafficMatrix,
    /// Table 1 statistics (identical to [`TraceStats::compute`]).
    pub stats: TraceStats,
}

/// Fold an already-parsed trace into matrices and stats in one
/// chunk-parallel pass.
pub fn ingest_trace(trace: Trace) -> IngestResult {
    ingest_trace_chunked(trace, 0)
}

/// [`ingest_trace`] with an explicit events-per-chunk size
/// (`0` = one chunk per rayon worker).
///
/// The result is invariant in the chunk size; the knob exists for the
/// invariance property tests.
pub fn ingest_trace_chunked(trace: Trace, chunk_events: usize) -> IngestResult {
    let whole = fold_parallel(&trace, 1, chunk_events)
        .finish(&trace)
        .windows
        .pop()
        .expect("one window");
    let stats = TraceStats {
        ranks: trace.num_ranks,
        exec_time_s: trace.exec_time_s,
        p2p_bytes: whole.p2p_bytes,
        coll_bytes: whole.coll_bytes,
        p2p_calls: whole.p2p_calls,
        coll_calls: whole.coll_calls,
    };
    IngestResult {
        trace,
        matrix: whole.matrix,
        p2p: whole.p2p,
        stats,
    }
}

/// The one parallel driver: fold `chunk_events`-sized chunks (`0` = one
/// chunk per rayon worker) into private accumulators and merge them.
/// Dense cells are reserved for the one-window fold, and only while
/// [`dense_shards_fit`]; windowed folds keep hash-map shards.
fn fold_parallel(trace: &Trace, windows: usize, chunk_events: usize) -> WindowedAccum {
    let workers = rayon::max_workers().max(1);
    let chunk = if chunk_events > 0 {
        chunk_events
    } else {
        trace.events.len().div_ceil(workers).max(1)
    };
    let shard_count = trace.events.len().div_ceil(chunk).max(1);
    let use_dense = windows == 1 && dense_shards_fit(trace.num_ranks, shard_count);
    let empty =
        |dense| WindowedAccum::with_storage(trace.num_ranks, windows, trace.exec_time_s, dense);
    trace
        .events
        .par_chunks(chunk)
        .map(|events| {
            let mut accum = empty(use_dense);
            accum.fold_events(trace, events);
            Some(accum)
        })
        .reduce(
            || None,
            |a, b| match (a, b) {
                (Some(mut x), Some(y)) => {
                    x.merge(y);
                    Some(x)
                }
                (x, None) | (None, x) => x,
            },
        )
        .unwrap_or_else(|| empty(false))
}

/// Dense cells cost `n² × sizeof(Cell)` bytes *per shard*, and all shards
/// are alive until the merge. Use them only while the whole fleet stays
/// within a fixed budget; otherwise hash-map shards bound memory by the
/// number of pairs actually touched.
fn dense_shards_fit(num_ranks: u32, shard_count: usize) -> bool {
    const DENSE_BUDGET_BYTES: usize = 256 << 20;
    let n = num_ranks as usize;
    n > 0
        && n <= 1024
        && n.pow(2)
            .saturating_mul(std::mem::size_of::<Cell>())
            .saturating_mul(shard_count)
            <= DENSE_BUDGET_BYTES
}

/// One dense accumulator cell: the full-matrix entry and the p2p-only entry
/// for a single ordered rank pair.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    full: PairTraffic,
    p2p: PairTraffic,
}

/// Pair map backing one [`TrafficMatrix`].
type PairMap = FxHashMap<(u32, u32), PairTraffic>;

/// Table 1 counters accumulated alongside the matrix cells.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    p2p_bytes: u64,
    coll_bytes: u64,
    p2p_calls: u64,
    coll_calls: u64,
}

/// Aggregation key for collectives with [`Payload::Uniform`]: under a
/// uniform payload every pair emitted by [`for_each_translated`] carries the
/// same byte count, and the pair *set* depends only on the operation, the
/// communicator, and (for rooted operations) the local root. Events sharing
/// a key therefore sum into per-phase scalars and expand into matrix cells
/// once per shard instead of once per event — an `Allreduce` on a 512-rank
/// communicator is 2·n cell updates per *key* rather than per *call*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CollKey {
    op: CollectiveOp,
    comm: u32,
    /// Communicator-local root for rooted operations, 0 otherwise.
    root: u32,
}

/// Per-pair sums of one collective phase (already multiplied by repeats).
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAcc {
    bytes: u64,
    messages: u64,
    packets: u64,
}

impl PhaseAcc {
    /// Fold one event's per-pair contribution in: `bytes` per pair,
    /// `repeat` calls. Zero-byte phases never reach here — the translation
    /// suppresses zero-byte messages entirely.
    fn add_event(&mut self, bytes: u64, repeat: u64) {
        self.bytes += bytes * repeat;
        self.messages += repeat;
        self.packets += bytes.div_ceil(PACKET_PAYLOAD).max(1) * repeat;
    }

    fn merge(&mut self, other: &PhaseAcc) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.packets += other.packets;
    }
}

/// Accumulated phases of one [`CollKey`]. Two-phase operations
/// (`Allreduce`, `ReduceScatter`) use both slots: `a` is the gather-to-hub
/// half, `b` the fan-out-from-hub half; single-phase operations use `a`.
#[derive(Debug, Clone, Copy, Default)]
struct CollAcc {
    a: PhaseAcc,
    b: PhaseAcc,
}

/// One window's private accumulator within one worker's chunk.
struct Shard {
    num_ranks: u32,
    counters: Counters,
    /// Dense `n × n` cells (index `src · n + dst`) when the budget allows.
    dense: Option<Box<[Cell]>>,
    /// Hash-map fallback (full matrix / p2p-only), mirroring
    /// [`TrafficMatrix`]'s own storage.
    full: FxHashMap<(u32, u32), PairTraffic>,
    p2p: FxHashMap<(u32, u32), PairTraffic>,
    /// Deferred uniform-payload collectives, expanded in [`Shard::into_parts`].
    coll: FxHashMap<CollKey, CollAcc>,
}

impl Shard {
    fn new(num_ranks: u32, use_dense: bool) -> Self {
        Shard {
            num_ranks,
            counters: Counters::default(),
            dense: use_dense
                .then(|| vec![Cell::default(); (num_ranks as usize).pow(2)].into_boxed_slice()),
            full: FxHashMap::default(),
            p2p: FxHashMap::default(),
            coll: FxHashMap::default(),
        }
    }

    /// Fold the leading events for which `in_run` holds into this shard:
    /// matrix cells and Table 1 counters from the same walk, collectives
    /// expanded via callback. Returns how many events were folded.
    ///
    /// The event walk is monomorphized per storage form so the per-record
    /// closure fully inlines — the dense path is a handful of indexed adds.
    fn fold(
        &mut self,
        trace: &Trace,
        events: &[TimedEvent],
        in_run: impl Fn(&TimedEvent) -> bool,
    ) -> usize {
        let Shard {
            num_ranks,
            counters,
            dense,
            full,
            p2p,
            coll,
        } = self;
        if let Some(dense) = dense.as_deref_mut() {
            let n = *num_ranks as usize;
            fold_events(
                trace,
                events,
                in_run,
                counters,
                coll,
                |src, dst, bytes, repeat, is_p2p| {
                    if src == dst || repeat == 0 {
                        return;
                    }
                    let add_bytes = bytes * repeat;
                    let add_packets = bytes.div_ceil(PACKET_PAYLOAD).max(1) * repeat;
                    let cell = &mut dense[src as usize * n + dst as usize];
                    cell.full.bytes += add_bytes;
                    cell.full.messages += repeat;
                    cell.full.packets += add_packets;
                    if is_p2p {
                        cell.p2p.bytes += add_bytes;
                        cell.p2p.messages += repeat;
                        cell.p2p.packets += add_packets;
                    }
                },
            )
        } else {
            fold_events(
                trace,
                events,
                in_run,
                counters,
                coll,
                |src, dst, bytes, repeat, is_p2p| {
                    if src == dst || repeat == 0 {
                        return;
                    }
                    let add_bytes = bytes * repeat;
                    let add_packets = bytes.div_ceil(PACKET_PAYLOAD).max(1) * repeat;
                    let apply = |e: &mut PairTraffic| {
                        e.bytes += add_bytes;
                        e.messages += repeat;
                        e.packets += add_packets;
                    };
                    apply(full.entry((src, dst)).or_default());
                    if is_p2p {
                        apply(p2p.entry((src, dst)).or_default());
                    }
                },
            )
        }
    }

    /// Add another shard's cells and counters into this one.
    fn merge(&mut self, other: Shard) {
        self.counters.p2p_bytes += other.counters.p2p_bytes;
        self.counters.coll_bytes += other.counters.coll_bytes;
        self.counters.p2p_calls += other.counters.p2p_calls;
        self.counters.coll_calls += other.counters.coll_calls;
        let add = |a: &mut PairTraffic, b: &PairTraffic| {
            a.bytes += b.bytes;
            a.messages += b.messages;
            a.packets += b.packets;
        };
        match (&mut self.dense, other.dense) {
            (Some(mine), Some(theirs)) => {
                for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                    add(&mut a.full, &b.full);
                    add(&mut a.p2p, &b.p2p);
                }
            }
            (None, None) => {
                for (k, p) in other.full {
                    add(self.full.entry(k).or_default(), &p);
                }
                for (k, p) in other.p2p {
                    add(self.p2p.entry(k).or_default(), &p);
                }
            }
            // Only `fold_parallel` builds dense shards, one form per fold.
            _ => unreachable!("merged shards share one storage form"),
        }
        for (k, acc) in other.coll {
            let mine = self.coll.entry(k).or_default();
            mine.a.merge(&acc.a);
            mine.b.merge(&acc.b);
        }
    }

    /// Convert to the pair maps that back [`TrafficMatrix`]. A pair exists
    /// in the sequential matrix iff `record` ran for it at least once, i.e.
    /// iff its message count is nonzero (zero-byte messages still count
    /// messages and packets, so `messages`, not `bytes`, is the witness).
    fn into_parts(self, trace: &Trace) -> (PairMap, PairMap, Counters) {
        let Shard {
            num_ranks,
            counters,
            mut dense,
            mut full,
            mut p2p,
            coll,
        } = self;
        let n = num_ranks as usize;
        if let Some(dense) = &mut dense {
            for (key, acc) in &coll {
                expand_coll(trace, key, acc, |src, dst, phase| {
                    let cell = &mut dense[src as usize * n + dst as usize];
                    cell.full.bytes += phase.bytes;
                    cell.full.messages += phase.messages;
                    cell.full.packets += phase.packets;
                });
            }
        } else {
            for (key, acc) in &coll {
                expand_coll(trace, key, acc, |src, dst, phase| {
                    let e = full.entry((src, dst)).or_default();
                    e.bytes += phase.bytes;
                    e.messages += phase.messages;
                    e.packets += phase.packets;
                });
            }
        }
        if let Some(dense) = dense {
            debug_assert!(full.is_empty() && p2p.is_empty());
            // Pre-size the maps: insert-with-growth roughly triples the
            // conversion cost at high rank counts.
            let (mut nf, mut np) = (0usize, 0usize);
            for cell in dense.iter() {
                nf += usize::from(cell.full.messages > 0);
                np += usize::from(cell.p2p.messages > 0);
            }
            full.reserve(nf);
            p2p.reserve(np);
            for (i, cell) in dense.iter().enumerate() {
                let key = ((i / n) as u32, (i % n) as u32);
                if cell.full.messages > 0 {
                    full.insert(key, cell.full);
                }
                if cell.p2p.messages > 0 {
                    p2p.insert(key, cell.p2p);
                }
            }
        }
        (full, p2p, counters)
    }
}

/// Walk the leading events for which `in_run` holds, feeding every (src,
/// dst, bytes, repeat, is_p2p) record and the Table 1 counters to the
/// caller's accumulator; returns how many events were walked.
///
/// Uniform-payload collectives are deferred into `coll` (see [`CollKey`])
/// instead of being expanded per event; everything else goes through
/// `record` with exactly the sequential constructors' arithmetic.
fn fold_events(
    trace: &Trace,
    events: &[TimedEvent],
    in_run: impl Fn(&TimedEvent) -> bool,
    counters: &mut Counters,
    coll: &mut FxHashMap<CollKey, CollAcc>,
    mut record: impl FnMut(u32, u32, u64, u64, bool),
) -> usize {
    for (i, te) in events.iter().enumerate() {
        if !in_run(te) {
            return i;
        }
        match &te.event {
            Event::Send {
                src, dst, repeat, ..
            } => {
                let bytes = te.event.p2p_bytes().expect("send has bytes");
                counters.p2p_bytes += bytes * repeat;
                counters.p2p_calls += repeat;
                record(src.0, dst.0, bytes, *repeat, true);
            }
            Event::Collective {
                op,
                comm,
                root,
                payload,
                repeat,
            } => {
                if let Some(c) = trace.comms.get(*comm) {
                    counters.coll_bytes += collective_volume(*op, c, *root, payload) * repeat;
                    if !defer_uniform_coll(coll, *op, comm.0, c.size(), *root, payload, *repeat) {
                        for_each_translated(*op, c, *root, payload, |src, dst, bytes| {
                            record(src.0, dst.0, bytes, *repeat, false);
                        });
                    }
                }
                counters.coll_calls += repeat;
            }
        }
    }
    events.len()
}

/// Try to fold one collective event into the deferred per-key sums.
/// Returns `false` for shapes whose per-pair bytes vary by position
/// ([`Payload::PerRank`]) — those expand per event via `record`.
fn defer_uniform_coll(
    coll: &mut FxHashMap<CollKey, CollAcc>,
    op: CollectiveOp,
    comm: u32,
    size: usize,
    root: Option<usize>,
    payload: &Payload,
    repeat: u64,
) -> bool {
    let Payload::Uniform(v) = payload else {
        return false;
    };
    if size <= 1 || repeat == 0 {
        // No traffic either way; nothing to defer.
        return true;
    }
    // Per-pair bytes of each phase, mirroring `for_each_translated`.
    let (a, b) = match op {
        CollectiveOp::Barrier => (0, 0),
        CollectiveOp::Bcast
        | CollectiveOp::Gather
        | CollectiveOp::Gatherv
        | CollectiveOp::Reduce
        | CollectiveOp::Scatter
        | CollectiveOp::Scatterv
        | CollectiveOp::Allgather
        | CollectiveOp::Allgatherv
        | CollectiveOp::Alltoall
        | CollectiveOp::Scan => (*v, 0),
        CollectiveOp::Alltoallv => (*v / (size as u64 - 1), 0),
        CollectiveOp::Allreduce => (*v, *v),
        CollectiveOp::ReduceScatter => (payload.total(size), *v),
    };
    if a == 0 && b == 0 {
        return true;
    }
    let root = if op.is_rooted() {
        root.unwrap_or(0).min(size - 1) as u32
    } else {
        0
    };
    let acc = coll.entry(CollKey { op, comm, root }).or_default();
    if a > 0 {
        acc.a.add_event(a, repeat);
    }
    if b > 0 {
        acc.b.add_event(b, repeat);
    }
    true
}

/// Expand one deferred collective key into per-pair cell updates, visiting
/// exactly the pair set `for_each_translated` emits for the operation (the
/// suppressed self-pairs included). The per-pair sums were accumulated with
/// the per-event arithmetic, so adding them here is identical to having
/// expanded each event — `u64` addition commutes. The differential oracle
/// and the chunk-invariance property tests pin this equivalence against the
/// sequential path.
fn expand_coll(
    trace: &Trace,
    key: &CollKey,
    acc: &CollAcc,
    mut add: impl FnMut(u32, u32, &PhaseAcc),
) {
    let Some(c) = trace.comms.get(CommId(key.comm)) else {
        return;
    };
    let n = c.size();
    let member = |i: usize| c.members[i];
    let to_root = |r: usize, phase: &PhaseAcc, add: &mut dyn FnMut(u32, u32, &PhaseAcc)| {
        if phase.messages == 0 {
            return;
        }
        let root = member(r);
        for i in 0..n {
            let src = member(i);
            if src != root {
                add(src.0, root.0, phase);
            }
        }
    };
    let from_root = |r: usize, phase: &PhaseAcc, add: &mut dyn FnMut(u32, u32, &PhaseAcc)| {
        if phase.messages == 0 {
            return;
        }
        let root = member(r);
        for i in 0..n {
            let dst = member(i);
            if root != dst {
                add(root.0, dst.0, phase);
            }
        }
    };
    match key.op {
        CollectiveOp::Barrier => {}
        CollectiveOp::Bcast | CollectiveOp::Scatter | CollectiveOp::Scatterv => {
            from_root(key.root as usize, &acc.a, &mut add);
        }
        CollectiveOp::Gather | CollectiveOp::Gatherv | CollectiveOp::Reduce => {
            to_root(key.root as usize, &acc.a, &mut add);
        }
        CollectiveOp::Allgather
        | CollectiveOp::Allgatherv
        | CollectiveOp::Alltoall
        | CollectiveOp::Alltoallv => {
            if acc.a.messages > 0 {
                for i in 0..n {
                    let src = member(i);
                    for j in 0..n {
                        let dst = member(j);
                        if src != dst {
                            add(src.0, dst.0, &acc.a);
                        }
                    }
                }
            }
        }
        CollectiveOp::Scan => {
            if acc.a.messages > 0 {
                for i in 0..n - 1 {
                    let (src, dst) = (member(i), member(i + 1));
                    if src != dst {
                        add(src.0, dst.0, &acc.a);
                    }
                }
            }
        }
        CollectiveOp::Allreduce | CollectiveOp::ReduceScatter => {
            to_root(0, &acc.a, &mut add);
            from_root(0, &acc.b, &mut add);
        }
    }
}

// ---- windowed metrics ------------------------------------------------
//
// Time-resolved analysis: the execution is cut into `windows` equal time
// slices and every per-event contribution lands in its slice's private
// shard. The shards are the whole-trace accumulator, so the per-window
// results are what the sequential constructors would produce on the
// window's sub-trace, and — because every counter is a `u64` sum — adding
// all windows together reproduces the whole-trace aggregates bit for bit.
// `WindowedAccum` is mergeable and associative: shards and chunks combine
// in any grouping.

/// The window an event timestamp falls into when `[0, exec_time_s)` is cut
/// into `windows` equal slices. Events at or past `exec_time_s` (clock
/// skew, rounding) land in the last window; non-finite or negative times
/// land in window 0 (the `as usize` cast saturates), deterministically.
pub fn window_index(time: f64, exec_time_s: f64, windows: usize) -> usize {
    if windows <= 1 {
        return 0;
    }
    let frac = if exec_time_s > 0.0 {
        time / exec_time_s
    } else {
        0.0
    };
    ((frac * windows as f64) as usize).min(windows - 1)
}

/// Ceiling on a window (or timeline bin) count: windows beyond the event
/// count are empty rows, and 4096 already renders a generous timeline.
/// The service and the CLI reject larger counts.
pub const MAX_WINDOWS: usize = 4096;

/// Mergeable per-window accumulation state. Feed any subset of a trace's
/// events with [`fold_events`](WindowedAccum::fold_events), combine
/// partial accumulators with [`merge`](WindowedAccum::merge) (associative
/// and commutative — shards and chunks combine in any grouping), and
/// convert to concrete per-window matrices with
/// [`finish`](WindowedAccum::finish).
pub struct WindowedAccum {
    num_ranks: u32,
    exec_time_s: f64,
    /// One shard per window, in time order.
    shards: Vec<Shard>,
}

impl WindowedAccum {
    /// An empty accumulator with `windows` (≥ 1) time slices.
    pub fn new(num_ranks: u32, windows: usize, exec_time_s: f64) -> Self {
        Self::with_storage(num_ranks, windows.max(1), exec_time_s, false)
    }

    fn with_storage(num_ranks: u32, windows: usize, exec_time_s: f64, dense: bool) -> Self {
        WindowedAccum {
            num_ranks,
            exec_time_s,
            shards: (0..windows).map(|_| Shard::new(num_ranks, dense)).collect(),
        }
    }

    /// Fold a slice of `trace`'s events into their windows, using exactly
    /// the whole-trace per-event arithmetic. Each maximal run of
    /// consecutive events in one window is folded in one call, which ends
    /// the run at the first event of another window; with a single window
    /// the run is the whole slice and no event is looked up.
    pub fn fold_events(&mut self, trace: &Trace, events: &[TimedEvent]) {
        let windows = self.shards.len();
        if windows == 1 {
            self.shards[0].fold(trace, events, |_| true);
            return;
        }
        let exec = self.exec_time_s;
        let window = |te: &TimedEvent| window_index(te.time, exec, windows);
        let mut rest = events;
        while let Some(first) = rest.first() {
            let w = window(first);
            let folded = self.shards[w].fold(trace, rest, |te| window(te) == w);
            rest = &rest[folded..];
        }
    }

    /// Add another accumulator's windows into this one. Both sides must
    /// describe the same trace cut into the same number of windows.
    pub fn merge(&mut self, other: WindowedAccum) {
        assert_eq!(self.shards.len(), other.shards.len(), "window count");
        assert_eq!(self.num_ranks, other.num_ranks, "rank count");
        for (mine, theirs) in self.shards.iter_mut().zip(other.shards) {
            mine.merge(theirs);
        }
    }

    /// Expand the deferred collectives and build the per-window matrices.
    pub fn finish(self, trace: &Trace) -> WindowedMetrics {
        let n = self.num_ranks;
        let exec = self.exec_time_s;
        let count = self.shards.len();
        let windows = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(w, shard)| {
                let (full, p2p, counters) = shard.into_parts(trace);
                WindowMetrics {
                    t_start_s: exec * w as f64 / count as f64,
                    t_end_s: exec * (w + 1) as f64 / count as f64,
                    matrix: TrafficMatrix::from_parts(n, full),
                    p2p: TrafficMatrix::from_parts(n, p2p),
                    p2p_bytes: counters.p2p_bytes,
                    coll_bytes: counters.coll_bytes,
                    p2p_calls: counters.p2p_calls,
                    coll_calls: counters.coll_calls,
                }
            })
            .collect();
        WindowedMetrics {
            num_ranks: n,
            exec_time_s: exec,
            windows,
        }
    }
}

/// One time slice's aggregates: the slice boundaries, the full and
/// p2p-only traffic matrices restricted to events in the slice, and the
/// slice's Table 1 counters.
#[derive(Debug, Clone)]
pub struct WindowMetrics {
    /// Inclusive window start time.
    pub t_start_s: f64,
    /// Exclusive window end time (the last window also absorbs later events).
    pub t_end_s: f64,
    /// Full (p2p + translated collectives) matrix of the window.
    pub matrix: TrafficMatrix,
    /// Point-to-point-only matrix of the window.
    pub p2p: TrafficMatrix,
    /// Bytes sent point-to-point within the window.
    pub p2p_bytes: u64,
    /// Collective volume within the window.
    pub coll_bytes: u64,
    /// Point-to-point calls within the window.
    pub p2p_calls: u64,
    /// Collective calls within the window.
    pub coll_calls: u64,
}

/// Time-resolved metrics: the whole execution cut into equal windows.
/// Summing any field over all windows reproduces the whole-trace
/// aggregate bit for bit.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    /// World size of the trace.
    pub num_ranks: u32,
    /// Execution time the windows partition.
    pub exec_time_s: f64,
    /// The per-window aggregates, in time order.
    pub windows: Vec<WindowMetrics>,
}

/// Compute windowed metrics with the chunk-parallel fold (one chunk per
/// rayon worker).
pub fn windowed_ingest(trace: &Trace, windows: usize) -> WindowedMetrics {
    windowed_ingest_chunked(trace, windows, 0)
}

/// [`windowed_ingest`] with an explicit events-per-chunk size (`0` = one
/// chunk per worker). The result is invariant in the chunk size; the knob
/// exists for the invariance property tests and the `check_windows`
/// oracle.
pub fn windowed_ingest_chunked(
    trace: &Trace,
    windows: usize,
    chunk_events: usize,
) -> WindowedMetrics {
    fold_parallel(trace, windows.max(1), chunk_events).finish(trace)
}

/// Independent sequential reference for the windowed fold: bucket the
/// events into per-window *sub-traces* and run the sequential whole-trace
/// constructors ([`TrafficMatrix::from_trace_full`],
/// [`TrafficMatrix::from_trace_p2p`], [`TraceStats::compute`]) on each.
/// Shares no accumulation code with [`windowed_ingest`], which is what
/// makes it an oracle.
pub fn windowed_reference(trace: &Trace, windows: usize) -> WindowedMetrics {
    let windows = windows.max(1);
    let mut buckets: Vec<Vec<TimedEvent>> = (0..windows).map(|_| Vec::new()).collect();
    for te in &trace.events {
        buckets[window_index(te.time, trace.exec_time_s, windows)].push(te.clone());
    }
    let count = windows;
    let out = buckets
        .into_iter()
        .enumerate()
        .map(|(w, events)| {
            let mut sub = trace.clone();
            sub.events = events;
            let stats = TraceStats::compute(&sub);
            WindowMetrics {
                t_start_s: trace.exec_time_s * w as f64 / count as f64,
                t_end_s: trace.exec_time_s * (w + 1) as f64 / count as f64,
                matrix: TrafficMatrix::from_trace_full(&sub),
                p2p: TrafficMatrix::from_trace_p2p(&sub),
                p2p_bytes: stats.p2p_bytes,
                coll_bytes: stats.coll_bytes,
                p2p_calls: stats.p2p_calls,
                coll_calls: stats.coll_calls,
            }
        })
        .collect();
    WindowedMetrics {
        num_ranks: trace.num_ranks,
        exec_time_s: trace.exec_time_s,
        windows: out,
    }
}

/// Byte-level comparison of two windowed results; an empty vector means
/// they are identical (f64 fields compared by bit pattern). Used by the
/// `check_windows` corpus oracle to report precise mismatches.
pub fn windows_diff(a: &WindowedMetrics, b: &WindowedMetrics) -> Vec<String> {
    let mut diffs = Vec::new();
    if a.num_ranks != b.num_ranks {
        diffs.push(format!("num_ranks {} vs {}", a.num_ranks, b.num_ranks));
    }
    if a.exec_time_s.to_bits() != b.exec_time_s.to_bits() {
        diffs.push(format!("exec_time {} vs {}", a.exec_time_s, b.exec_time_s));
    }
    if a.windows.len() != b.windows.len() {
        diffs.push(format!(
            "window count {} vs {}",
            a.windows.len(),
            b.windows.len()
        ));
        return diffs;
    }
    for (w, (x, y)) in a.windows.iter().zip(&b.windows).enumerate() {
        if x.t_start_s.to_bits() != y.t_start_s.to_bits()
            || x.t_end_s.to_bits() != y.t_end_s.to_bits()
        {
            diffs.push(format!("window {w}: bounds differ"));
        }
        if (x.p2p_bytes, x.coll_bytes, x.p2p_calls, x.coll_calls)
            != (y.p2p_bytes, y.coll_bytes, y.p2p_calls, y.coll_calls)
        {
            diffs.push(format!(
                "window {w}: counters ({}, {}, {}, {}) vs ({}, {}, {}, {})",
                x.p2p_bytes,
                x.coll_bytes,
                x.p2p_calls,
                x.coll_calls,
                y.p2p_bytes,
                y.coll_bytes,
                y.p2p_calls,
                y.coll_calls
            ));
        }
        for (name, ma, mb) in [("full", &x.matrix, &y.matrix), ("p2p", &x.p2p, &y.p2p)] {
            if ma.num_ranks() != mb.num_ranks() {
                diffs.push(format!("window {w}: {name} matrix rank count differs"));
            } else if ma.sorted_pairs() != mb.sorted_pairs() {
                diffs.push(format!("window {w}: {name} matrix pairs differ"));
            }
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_mpi::{
        parse_trace_auto, write_trace, CollectiveOp, Datatype, Payload, Rank, TraceBuilder,
    };

    fn mixed_trace(ranks: u32) -> Trace {
        let mut b = TraceBuilder::new("ingest-test", ranks).exec_time_s(3.5);
        let sub = b.register_comm((0..ranks.min(5)).map(Rank).collect());
        for i in 0..200u32 {
            b.send(
                Rank(i % ranks),
                Rank((i * 7 + 1) % ranks),
                64 + u64::from(i) * 13,
                1 + u64::from(i % 4),
            );
        }
        b.send_typed(Rank(0), Rank(1), 100, Datatype::Double, 3, 2);
        b.send(Rank(1), Rank(1), 999, 5); // self-traffic: counted in stats, not matrix
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(512), 4);
        b.collective(CollectiveOp::Alltoall, None, Payload::Uniform(33), 2);
        b.collective_on(
            CollectiveOp::Gatherv,
            sub,
            Some(1),
            Payload::PerRank((0..u64::from(ranks.min(5))).map(|i| i * 11).collect()),
            3,
        );
        b.collective(CollectiveOp::Barrier, None, Payload::Uniform(0), 7);
        b.build()
    }

    fn assert_matches_sequential(trace: &Trace, result: &IngestResult) {
        let full = TrafficMatrix::from_trace_full(trace);
        let p2p = TrafficMatrix::from_trace_p2p(trace);
        let stats = TraceStats::compute(trace);
        assert_eq!(result.stats, stats);
        for (a, b) in [(&result.matrix, &full), (&result.p2p, &p2p)] {
            assert_eq!(a.num_ranks(), b.num_ranks());
            assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        }
    }

    #[test]
    fn fused_fold_matches_sequential_passes() {
        let trace = mixed_trace(16);
        let result = ingest_trace(trace.clone());
        assert_matches_sequential(&trace, &result);
        assert_eq!(result.trace, trace);
    }

    #[test]
    fn result_invariant_under_chunk_size() {
        let trace = mixed_trace(16);
        let baseline = ingest_trace_chunked(trace.clone(), 1_000_000);
        for chunk in [1usize, 3, 17, 64] {
            let got = ingest_trace_chunked(trace.clone(), chunk);
            assert_eq!(got.stats, baseline.stats, "chunk={chunk}");
            assert_eq!(
                got.matrix.sorted_pairs(),
                baseline.matrix.sorted_pairs(),
                "chunk={chunk}"
            );
            assert_eq!(
                got.p2p.sorted_pairs(),
                baseline.p2p.sorted_pairs(),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn hash_shards_match_dense_shards() {
        // Rank count above the dense ceiling exercises the hash fallback.
        let trace = mixed_trace(1500);
        let result = ingest_trace(trace.clone());
        assert_matches_sequential(&trace, &result);
    }

    #[test]
    fn ingest_from_bytes_roundtrips() {
        let trace = mixed_trace(8);
        let text = write_trace(&trace);
        let result = ingest_trace(parse_trace_auto(text.as_bytes()).unwrap());
        assert_eq!(result.trace, trace);
        assert_matches_sequential(&trace, &result);
    }

    #[test]
    fn empty_trace_ingests_to_empty_result() {
        let trace = TraceBuilder::new("empty", 4).exec_time_s(1.0).build();
        let result = ingest_trace(trace.clone());
        assert_matches_sequential(&trace, &result);
        assert_eq!(result.matrix.num_pairs(), 0);
    }

    #[test]
    fn unknown_comm_counts_calls_but_no_bytes() {
        let mut trace = mixed_trace(8);
        trace.events.push(netloc_mpi::TimedEvent {
            time: 0.9,
            event: Event::Collective {
                op: CollectiveOp::Bcast,
                comm: netloc_mpi::CommId(99),
                root: Some(0),
                payload: Payload::Uniform(1000),
                repeat: 6,
            },
        });
        let result = ingest_trace(trace.clone());
        assert_matches_sequential(&trace, &result);
        assert!(result.stats.coll_calls >= 6);
    }

    #[test]
    fn auto_detect_parses_both_formats() {
        let trace = mixed_trace(8);
        let text = write_trace(&trace);
        let col = netloc_mpi::write_trace_columnar(&trace);
        for bytes in [text.as_bytes(), &col[..]] {
            let result = ingest_trace(parse_trace_auto(bytes).unwrap());
            assert_eq!(result.trace, trace);
            assert_matches_sequential(&trace, &result);
        }
        // Any other magic falls through to the text parser, which rejects it.
        assert!(parse_trace_auto(b"NLDUMPI\x01\x04demo").is_err());
    }

    #[test]
    fn mmap_path_matches_in_memory_ingest() {
        let trace = mixed_trace(8);
        let dir = std::env::temp_dir();
        for (name, bytes) in [
            ("text", write_trace(&trace).into_bytes()),
            ("col", netloc_mpi::write_trace_columnar(&trace)),
        ] {
            let path = dir.join(format!("netloc-ingest-{}-{name}.trace", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let file = netloc_mpi::MappedFile::open(&path).unwrap();
            let mapped = ingest_trace(parse_trace_auto(file.bytes()).unwrap());
            let in_mem = ingest_trace(parse_trace_auto(&bytes).unwrap());
            assert_eq!(mapped.trace, in_mem.trace);
            assert_eq!(mapped.stats, in_mem.stats);
            assert_eq!(mapped.matrix.sorted_pairs(), in_mem.matrix.sorted_pairs());
            assert_eq!(mapped.p2p.sorted_pairs(), in_mem.p2p.sorted_pairs());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn dense_cells_only_in_the_one_window_fold() {
        let trace = mixed_trace(16);
        let whole = fold_parallel(&trace, 1, 0);
        assert!(whole.shards[0].dense.is_some());
        let windowed = fold_parallel(&trace, 4, 0);
        assert!(windowed.shards.iter().all(|s| s.dense.is_none()));
        // Past the rank ceiling even the one-window fold uses hash maps.
        let wide = mixed_trace(1500);
        assert!(fold_parallel(&wide, 1, 0).shards[0].dense.is_none());
    }

    #[test]
    fn windowed_fold_matches_reference() {
        let trace = mixed_trace(16);
        // Out-of-order, non-finite and out-of-range times cut every chunk
        // into short same-window runs that revisit earlier windows.
        let mut scrambled = trace.clone();
        for (i, te) in scrambled.events.iter_mut().enumerate() {
            te.time = match i % 7 {
                0 => f64::NAN,
                1 => -1.0,
                2 => 99.0,
                _ => (i * 37 % 11) as f64 * 0.3,
            };
        }
        for trace in [&trace, &scrambled] {
            for windows in [1usize, 2, 5, 16] {
                let reference = windowed_reference(trace, windows);
                for chunk in [0usize, 1, 5] {
                    let par = windowed_ingest_chunked(trace, windows, chunk);
                    let diffs = windows_diff(&par, &reference);
                    assert!(diffs.is_empty(), "windows={windows}: {diffs:?}");
                }
            }
        }
    }

    #[test]
    fn windowed_invariant_under_chunking_and_merge_grouping() {
        let trace = mixed_trace(16);
        let baseline = windowed_ingest_chunked(&trace, 4, 1_000_000);
        for chunk in [1usize, 3, 17, 64] {
            let got = windowed_ingest_chunked(&trace, 4, chunk);
            let diffs = windows_diff(&got, &baseline);
            assert!(diffs.is_empty(), "chunk={chunk}: {diffs:?}");
        }
        // Uneven manual grouping: ((a ⊕ b) ⊕ c) vs (a ⊕ (b ⊕ c)).
        let thirds = trace.events.len() / 3;
        let (ea, rest) = trace.events.split_at(thirds);
        let (eb, ec) = rest.split_at(thirds);
        let fold = |events: &[TimedEvent]| {
            let mut a = WindowedAccum::new(trace.num_ranks, 4, trace.exec_time_s);
            a.fold_events(&trace, events);
            a
        };
        let mut left = fold(ea);
        left.merge(fold(eb));
        left.merge(fold(ec));
        let mut right_tail = fold(eb);
        right_tail.merge(fold(ec));
        let mut right = fold(ea);
        right.merge(right_tail);
        let diffs = windows_diff(&left.finish(&trace), &right.finish(&trace));
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn windows_sum_to_whole_trace_aggregates() {
        let trace = mixed_trace(16);
        let whole = ingest_trace(trace.clone());
        let windowed = windowed_ingest(&trace, 7);
        let sums = windowed
            .windows
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |acc, w| {
                (
                    acc.0 + w.p2p_bytes,
                    acc.1 + w.coll_bytes,
                    acc.2 + w.p2p_calls,
                    acc.3 + w.coll_calls,
                )
            });
        assert_eq!(
            sums,
            (
                whole.stats.p2p_bytes,
                whole.stats.coll_bytes,
                whole.stats.p2p_calls,
                whole.stats.coll_calls
            )
        );
        // Per-pair sums across windows reproduce the whole-trace matrix.
        let mut summed: PairMap = FxHashMap::default();
        for w in &windowed.windows {
            for (k, p) in w.matrix.sorted_pairs() {
                let e = summed.entry(*k).or_default();
                e.bytes += p.bytes;
                e.messages += p.messages;
                e.packets += p.packets;
            }
        }
        let rebuilt = TrafficMatrix::from_parts(trace.num_ranks, summed);
        assert_eq!(rebuilt.sorted_pairs(), whole.matrix.sorted_pairs());
    }

    #[test]
    fn window_index_is_total_and_clamped() {
        assert_eq!(window_index(0.0, 10.0, 4), 0);
        assert_eq!(window_index(9.99, 10.0, 4), 3);
        assert_eq!(window_index(10.0, 10.0, 4), 3); // at exec end
        assert_eq!(window_index(250.0, 10.0, 4), 3); // past the end
        assert_eq!(window_index(-5.0, 10.0, 4), 0); // saturating cast
        assert_eq!(window_index(f64::NAN, 10.0, 4), 0);
        assert_eq!(window_index(3.0, 0.0, 4), 0); // zero exec time
        assert_eq!(window_index(3.0, 10.0, 0), 0);
        assert_eq!(window_index(3.0, 10.0, 1), 0);
    }
}
