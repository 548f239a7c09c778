//! The parallel temporal simulation engine.
//!
//! ## Sharded event queues with conservative time windows
//!
//! The canonical injection order (time, then tie-breakers — see
//! [`Injection::canonical_cmp`]) is cut into contiguous **time windows**
//! of [`SimExec::window`] injections. Windows are synchronization
//! barriers, processed one after another; inside a window, messages run
//! concurrently under an exact dependency DAG:
//!
//! * every message's route is translated into directed-link *slots*
//!   (`2·link + direction`) via the PR 3 CSR route tables
//!   ([`RoutedTopology`]). On machines small enough for a dense pair
//!   index, each unique (src node, dst node) pair's slot chain is
//!   resolved **once** into a shared arena and every injection holds a
//!   range into it — the PR 3 node-pair deduplication carried over to
//!   the temporal engine. Larger machines fall back to per-window route
//!   walks in parallel chunks concatenated in order;
//! * a sequential sweep chains each slot's users in injection order — a
//!   message depends on the *immediately preceding* user of each of its
//!   slots (its window-local predecessors; earlier windows are already
//!   fully drained into `free_at`);
//! * a worker pool retires messages the moment their last predecessor
//!   finishes. Two messages are concurrently runnable only when their
//!   slot sets are disjoint, so every `free_at`/busy update touches
//!   state no other in-flight message can reach, and each message's
//!   float arithmetic consumes exactly the operand values the sequential
//!   replay would have produced.
//!
//! The result is not "close" to the sequential engine — it is
//! **byte-identical** to [`crate::refsim::simulate_reference`] at every
//! worker count and window size, which `netloc-testkit`'s sim oracle and
//! `repro bench-sim` assert before any timing. The speedup comes from two
//! places: CSR route lookups replace per-hop routing arithmetic (the PR 3
//! effect), and independent messages retire on all cores (the wavefronts
//! of real traffic are wide — contention is per-link, not global).

use crate::expand::{canonicalize, expand_trace, Injection};
use crate::kernel::{process_message, slots_of_route, F64Slots, MsgOutcome, SlotState};
use crate::report::SimReport;
use crate::windows::WindowGrid;
use netloc_core::netmodel::LINK_BANDWIDTH_BYTES_PER_S;
use netloc_mpi::Trace;
use netloc_topology::{Link, Mapping, RoutedTopology, Topology};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How messages occupy the links of their route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forwarding {
    /// Store-and-forward at message granularity: the message fully
    /// serializes on each link in turn. Pessimistic latency (multiplies by
    /// hop count), matches classic SAF switches.
    #[default]
    StoreAndForward,
    /// Cut-through/wormhole approximation: the message reserves its whole
    /// route from the time every link is free and pipelines through it —
    /// one serialization plus a per-hop header latency. Optimistic
    /// (circuit-like) but the right model for modern HPC switches.
    CutThrough,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Link bandwidth in bytes/s (paper default: 12 GB/s).
    pub bandwidth: f64,
    /// Per-hop fixed latency in seconds (switching + wire). The paper's
    /// static model has no latency constant; a small value keeps ordering
    /// effects realistic without dominating the bandwidth term.
    pub hop_latency_s: f64,
    /// Cap on expanded injections (larger traces are subsampled).
    pub max_injections: usize,
    /// Optional explicit rank→node mapping; consecutive if `None`.
    pub mapping: Option<Mapping>,
    /// Link-occupancy model.
    pub forwarding: Forwarding,
    /// Number of report windows the injection horizon is cut into for
    /// per-window utilization and slowdown statistics (0 disables them).
    pub report_windows: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth: LINK_BANDWIDTH_BYTES_PER_S,
            hop_latency_s: 100e-9,
            max_injections: 2_000_000,
            mapping: None,
            forwarding: Forwarding::StoreAndForward,
            report_windows: 32,
        }
    }
}

/// Execution strategy of [`simulate_parallel`]. The results are invariant
/// to every field — these trade wall-clock time only. The default (all
/// zeros) means "auto": rayon's worker cap and
/// [`DEFAULT_WINDOW_INJECTIONS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimExec {
    /// Worker threads; 0 picks the rayon worker cap
    /// ([`rayon::max_workers`]).
    pub workers: usize,
    /// Injections per synchronization window; 0 picks
    /// [`DEFAULT_WINDOW_INJECTIONS`].
    pub window: usize,
}

/// Default injections per conservative time window. Large enough that
/// per-window pool setup amortizes at the million-event scale, small
/// enough that the window-local scratch (one `u32` per route hop) stays
/// in-cache.
pub const DEFAULT_WINDOW_INJECTIONS: usize = 65_536;

/// Below this many messages in a window the pooled executor costs more
/// than it saves; the window runs on one thread (same results).
const PAR_THRESHOLD: usize = 256;

/// "No successor" marker in the per-occurrence successor array.
const NO_SUCC: u32 = u32::MAX;

/// Cap on the dense (src node × dst node) pair-index size, in entries
/// (16 MiB of `u32`). Machines under the cap get node-pair deduplicated
/// slot lists; larger ones fall back to per-window route walks.
const PAIR_INDEX_CAP: usize = 1 << 22;

/// Node-pair deduplicated slot lists: every unique (src node, dst node)
/// pair's directed-link slot chain lives once in `arena`, and each
/// injection carries its `(start, len)` range. The slot *values* are
/// exactly what [`slots_of_route`] produces, so sharing them cannot
/// perturb a single bit of the simulation.
struct PairSlots {
    /// Per-injection `(start, len)` into `arena`, in canonical order.
    ranges: Vec<(u32, u32)>,
    /// Concatenated slot chains, one entry per unique pair.
    arena: Vec<u32>,
}

/// Resolve every injection to a range in a deduplicated slot arena, or
/// `None` when the machine is too large for the dense pair index.
fn build_pair_slots(
    inj: &[Injection],
    mapping: &Mapping,
    routed: &RoutedTopology<'_>,
    links: &[Link],
    num_nodes: usize,
) -> Option<PairSlots> {
    let pairs = num_nodes.checked_mul(num_nodes)?;
    if pairs > PAIR_INDEX_CAP {
        return None;
    }
    let mut index = vec![u32::MAX; pairs];
    let mut offs: Vec<u32> = vec![0];
    let mut arena: Vec<u32> = Vec::new();
    let mut scratch = Vec::new();
    let mut ranges = Vec::with_capacity(inj.len());
    for m in inj {
        let (ns, nd) = (
            mapping.node_of(m.src as usize),
            mapping.node_of(m.dst as usize),
        );
        let key = ns.0 as usize * num_nodes + nd.0 as usize;
        let mut id = index[key];
        if id == u32::MAX {
            let route = routed.route_of(ns, nd, &mut scratch);
            slots_of_route(route, links, ns.0, &mut arena);
            offs.push(arena.len() as u32);
            id = (offs.len() - 2) as u32;
            index[key] = id;
        }
        let start = offs[id as usize];
        ranges.push((start, offs[id as usize + 1] - start));
    }
    Some(PairSlots { ranges, arena })
}

/// Where a window's slot lists live: either a window-local build (the
/// large-machine fallback) or ranges into the deduplicated arena.
enum SlotLists<'a> {
    /// `slots[offs[j]..offs[j+1]]`, as built by [`build_slot_lists`].
    Inline(&'a [u32]),
    /// `arena[start..start+len]` per message, from [`PairSlots`].
    Arena {
        /// Window slice of [`PairSlots::ranges`].
        ranges: &'a [(u32, u32)],
        /// The shared arena.
        arena: &'a [u32],
    },
}

/// Per-message outcome storage the workers write into (disjoint indices).
struct OutcomeSlots {
    completion: F64Slots,
    queueing: F64Slots,
    offered: F64Slots,
}

impl OutcomeSlots {
    fn new(n: usize) -> Self {
        OutcomeSlots {
            completion: F64Slots::zeroed(n),
            queueing: F64Slots::zeroed(n),
            offered: F64Slots::zeroed(n),
        }
    }

    #[inline]
    fn set(&self, i: usize, out: MsgOutcome) {
        self.completion.set(i, out.completion);
        self.queueing.set(i, out.queueing);
        self.offered.set(i, out.offered);
    }

    fn get(&self, i: usize) -> MsgOutcome {
        MsgOutcome {
            completion: self.completion.get(i),
            queueing: self.queueing.get(i),
            offered: self.offered.get(i),
        }
    }
}

/// Reused per-window scratch for the slot-chain sweep, epoch-stamped so
/// no O(slots) clear happens between windows.
struct ChainScratch {
    last_epoch: Vec<u64>,
    last_occ: Vec<u32>,
    last_msg: Vec<u32>,
    epoch: u64,
}

impl ChainScratch {
    fn new(slots: usize) -> Self {
        ChainScratch {
            last_epoch: vec![0; slots],
            last_occ: vec![0; slots],
            last_msg: vec![0; slots],
            epoch: 0,
        }
    }
}

/// Simulate a list of injections over precomputed routes, in parallel.
///
/// See the module docs for the windowed-synchronization scheme. The
/// report is byte-identical to [`crate::simulate_reference`] for every
/// `exec` (worker count and window size) and every supplied injection
/// order — both engines canonicalize the order first.
pub fn simulate_parallel(
    routed: &RoutedTopology<'_>,
    mapping: &Mapping,
    injections: &[Injection],
    cfg: &SimConfig,
    exec: &SimExec,
) -> SimReport {
    let topo = routed.topology();
    let links = topo.links();
    let num_links = links.len();
    let inj = canonicalize(injections);
    let n = inj.len();

    let horizon = inj.last().map(|i| i.time).unwrap_or(0.0);
    let wcount = if n == 0 { 0 } else { cfg.report_windows };
    let st = SlotState::new(num_links, WindowGrid::covering(horizon, wcount));
    let out = OutcomeSlots::new(n);

    let window = if exec.window == 0 {
        DEFAULT_WINDOW_INJECTIONS
    } else {
        exec.window
    };
    let max_workers = if exec.workers == 0 {
        rayon::max_workers()
    } else {
        exec.workers
    };
    let mut chains = ChainScratch::new(2 * num_links);
    let cache = build_pair_slots(&inj, mapping, routed, links, topo.num_nodes());

    let mut base = 0usize;
    while base < n {
        let end = (base + window).min(n);
        let chunk = &inj[base..end];
        // Giving every worker at least a few dozen messages bounds pool
        // overhead on tiny windows; 1 worker short-circuits to the
        // in-order sequential walk (identical results either way).
        let workers = max_workers.min(chunk.len() / 64).max(1);
        let (offs, inline_slots) = match &cache {
            // Deduplicated path: the slot chains already exist in the
            // arena; only the occurrence prefix sums are per-window.
            Some(c) => {
                let mut offs = Vec::with_capacity(chunk.len() + 1);
                offs.push(0u32);
                let mut acc = 0u32;
                for &(_, len) in &c.ranges[base..end] {
                    acc += len;
                    offs.push(acc);
                }
                (offs, Vec::new())
            }
            None => build_slot_lists(chunk, mapping, routed, links, workers),
        };
        let lists = match &cache {
            Some(c) => SlotLists::Arena {
                ranges: &c.ranges[base..end],
                arena: &c.arena,
            },
            None => SlotLists::Inline(&inline_slots),
        };
        let shard = Shard {
            chunk,
            base,
            offs: &offs,
            lists,
            cfg,
            st: &st,
            out: &out,
        };
        if workers == 1 || chunk.len() < PAR_THRESHOLD {
            shard.run_sequential();
        } else {
            shard.run_pooled(workers, &mut chains);
        }
        base = end;
    }

    let outcomes: Vec<MsgOutcome> = (0..n).map(|i| out.get(i)).collect();
    SimReport::build(&inj, &outcomes, &st, num_links)
}

/// Resolve every message of `chunk` to its directed-link slot list (CSR:
/// `slots[offs[i]..offs[i+1]]`), reading routes from the precomputed
/// tables. Parallel over sub-chunks, concatenated in order — the slot
/// lists are identical to a sequential walk.
fn build_slot_lists(
    chunk: &[Injection],
    mapping: &Mapping,
    routed: &RoutedTopology<'_>,
    links: &[Link],
    workers: usize,
) -> (Vec<u32>, Vec<u32>) {
    let per_msg = |msgs: &[Injection]| {
        let mut scratch = Vec::new();
        let mut lens: Vec<u32> = Vec::with_capacity(msgs.len());
        let mut slots: Vec<u32> = Vec::new();
        for m in msgs {
            let (ns, nd) = (
                mapping.node_of(m.src as usize),
                mapping.node_of(m.dst as usize),
            );
            let route = routed.route_of(ns, nd, &mut scratch);
            let before = slots.len();
            slots_of_route(route, links, ns.0, &mut slots);
            lens.push((slots.len() - before) as u32);
        }
        (lens, slots)
    };
    let (lens, slots) = if workers > 1 && chunk.len() >= PAR_THRESHOLD {
        let sub = chunk.len().div_ceil(workers * 4).max(64);
        chunk.par_chunks(sub).map(per_msg).reduce(
            || (Vec::new(), Vec::new()),
            |mut a, mut b| {
                a.0.append(&mut b.0);
                a.1.append(&mut b.1);
                a
            },
        )
    } else {
        per_msg(chunk)
    };
    let mut offs = Vec::with_capacity(lens.len() + 1);
    offs.push(0u32);
    let mut acc = 0u32;
    for len in lens {
        acc += len;
        offs.push(acc);
    }
    (offs, slots)
}

/// One window's worth of work, bound to the shared simulation state.
struct Shard<'a> {
    chunk: &'a [Injection],
    base: usize,
    /// Occurrence prefix sums: message `j` owns window-local occurrence
    /// indices `offs[j]..offs[j+1]` (the successor array's index space).
    offs: &'a [u32],
    lists: SlotLists<'a>,
    cfg: &'a SimConfig,
    st: &'a SlotState,
    out: &'a OutcomeSlots,
}

impl Shard<'_> {
    #[inline]
    fn slot_range(&self, j: usize) -> &[u32] {
        match self.lists {
            SlotLists::Inline(slots) => &slots[self.offs[j] as usize..self.offs[j + 1] as usize],
            SlotLists::Arena { ranges, arena } => {
                let (start, len) = ranges[j];
                &arena[start as usize..(start + len) as usize]
            }
        }
    }

    #[inline]
    fn retire(&self, j: usize) {
        let out = process_message(&self.chunk[j], self.slot_range(j), self.cfg, self.st);
        self.out.set(self.base + j, out);
    }

    /// Ascending injection index is a topological order of the slot-chain
    /// DAG (every edge points forward), so the plain loop is exact.
    fn run_sequential(&self) {
        for j in 0..self.chunk.len() {
            self.retire(j);
        }
    }

    /// Chain each slot's users in injection order, then drain the DAG
    /// with a pool of scoped workers sharing a ready queue.
    fn run_pooled(&self, workers: usize, chains: &mut ChainScratch) {
        let n = self.chunk.len();
        chains.epoch += 1;
        let mut succ = vec![NO_SUCC; self.offs[n] as usize];
        let mut dep_count = vec![0u32; n];
        for (j, deps) in dep_count.iter_mut().enumerate() {
            let occ_base = self.offs[j] as usize;
            for (k, &slot) in self.slot_range(j).iter().enumerate() {
                let o = occ_base + k;
                let s = slot as usize;
                if chains.last_epoch[s] == chains.epoch {
                    // Routes are link-disjoint walks, but a hostile route
                    // could revisit a slot: never depend on yourself.
                    if chains.last_msg[s] != j as u32 {
                        succ[chains.last_occ[s] as usize] = j as u32;
                        *deps += 1;
                    }
                } else {
                    chains.last_epoch[s] = chains.epoch;
                }
                chains.last_occ[s] = o as u32;
                chains.last_msg[s] = j as u32;
            }
        }

        let ready: Vec<u32> = (0..n as u32)
            .filter(|&j| dep_count[j as usize] == 0)
            .collect();
        let deps: Vec<AtomicU32> = dep_count.into_iter().map(AtomicU32::new).collect();
        let queue = Mutex::new(ready);
        let remaining = AtomicUsize::new(n);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut batch: Vec<u32> = Vec::with_capacity(16);
                    let mut newly: Vec<u32> = Vec::new();
                    loop {
                        {
                            let mut q = queue.lock().expect("sim queue poisoned");
                            let keep = q.len() - q.len().min(16);
                            batch.extend(q.drain(keep..));
                        }
                        if batch.is_empty() {
                            if remaining.load(Ordering::Acquire) == 0 {
                                return;
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                            continue;
                        }
                        for &j in &batch {
                            let j = j as usize;
                            self.retire(j);
                            let occ = self.offs[j] as usize..self.offs[j + 1] as usize;
                            for &k in &succ[occ] {
                                if k != NO_SUCC
                                    && deps[k as usize].fetch_sub(1, Ordering::AcqRel) == 1
                                {
                                    newly.push(k);
                                }
                            }
                        }
                        remaining.fetch_sub(batch.len(), Ordering::Release);
                        batch.clear();
                        if !newly.is_empty() {
                            let mut q = queue.lock().expect("sim queue poisoned");
                            q.append(&mut newly);
                        }
                    }
                });
            }
        });
        debug_assert_eq!(remaining.load(Ordering::Acquire), 0);
    }
}

/// Simulate a list of injections over a topology.
///
/// Store-and-forward at message granularity: a message traverses its route
/// link by link; on each link it waits until the link is free, then
/// occupies it for `bytes / bandwidth + hop_latency` seconds. Links are
/// full-duplex but serve one message at a time per direction — modeled as
/// one queue per (link, direction).
///
/// This is the convenience entry point: it precomputes routes
/// ([`RoutedTopology::auto`]) and runs [`simulate_parallel`] with the
/// default execution strategy. Results are byte-identical to
/// [`crate::simulate_reference`].
pub fn simulate(
    topo: &dyn Topology,
    mapping: &Mapping,
    injections: &[Injection],
    cfg: &SimConfig,
) -> SimReport {
    let routed = RoutedTopology::auto(topo);
    simulate_parallel(&routed, mapping, injections, cfg, &SimExec::default())
}

/// Expand a trace and simulate it over `topo` with the consecutive mapping
/// (or `cfg.mapping` when provided).
pub fn simulate_trace(trace: &Trace, topo: &dyn Topology, cfg: &SimConfig) -> SimReport {
    let (injections, stride) = expand_trace(trace, cfg.max_injections);
    let mapping = cfg
        .mapping
        .clone()
        .unwrap_or_else(|| Mapping::consecutive(trace.num_ranks as usize, topo.num_nodes()));
    let mut report = simulate(topo, &mapping, &injections, cfg);
    report.sample_stride = stride;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refsim::simulate_reference;
    use netloc_topology::routetable::StoragePlan;
    use netloc_topology::Torus3D;

    fn line4() -> Torus3D {
        Torus3D::new([4, 1, 1])
    }

    fn cfg() -> SimConfig {
        SimConfig {
            bandwidth: 1e9,
            hop_latency_s: 0.0,
            max_injections: 1_000_000,
            mapping: None,
            forwarding: Forwarding::StoreAndForward,
            report_windows: 8,
        }
    }

    fn inj(time: f64, src: u32, dst: u32, bytes: u64) -> Injection {
        Injection {
            time,
            src,
            dst,
            bytes,
        }
    }

    #[test]
    fn single_message_latency_is_hops_times_serialization() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        // 0 -> 2: 2 hops; 1e9 bytes at 1e9 B/s = 1 s per hop.
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &cfg());
        assert_eq!(r.messages, 1);
        assert!((r.mean_latency_s - 2.0).abs() < 1e-9);
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert_eq!(r.mean_queueing_s, 0.0);
    }

    #[test]
    fn shared_link_serializes() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        // Two messages over the same first link at the same instant.
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 0, 1, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        // first: 1 s; second waits 1 s then takes 1 s.
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert!((r.total_queueing_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let topo = Torus3D::new([8, 1, 1]);
        let m = Mapping::consecutive(8, 8);
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 4, 5, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert_eq!(r.total_queueing_s, 0.0);
        assert!((r.max_latency_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_share_nothing() {
        // Full-duplex: 0->1 and 1->0 at the same time don't queue.
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 1, 0, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert_eq!(r.total_queueing_s, 0.0);
    }

    #[test]
    fn hotspot_queueing_grows_linearly() {
        // n-1 senders to one destination: the terminal-ish last link (the
        // ring link into node 0) serializes everything arriving there.
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs: Vec<Injection> = (1..4).map(|s| inj(0.0, s, 0, 1_000_000_000)).collect();
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert!(r.total_queueing_s > 0.0);
        assert!(r.makespan_s >= 2.0);
    }

    #[test]
    fn busy_time_equals_serialization_sum() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs = [inj(0.0, 0, 2, 500_000_000), inj(0.5, 1, 3, 250_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        // total busy = Σ hops·serialize = 2·0.5 + 2·0.25 = 1.5 link-seconds
        assert!((r.total_busy_link_s - 1.5).abs() < 1e-9);
        assert!(r.peak_link_busy_s <= r.makespan_s + 1e-12);
        // ...and offered equals busy: all demanded work was performed.
        assert!((r.total_offered_link_s - r.total_busy_link_s).abs() < 1e-9);
    }

    #[test]
    fn cut_through_pipelines_multihop_messages() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.forwarding = Forwarding::CutThrough;
        // 0 -> 2: two hops, but the payload serializes once: 1 s total.
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &c);
        assert!((r.mean_latency_s - 1.0).abs() < 1e-9);
        // store-and-forward takes 2 s for the same message
        let saf = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &cfg());
        assert!(saf.mean_latency_s > r.mean_latency_s);
    }

    #[test]
    fn cut_through_still_serializes_shared_links() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.forwarding = Forwarding::CutThrough;
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 0, 1, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &c);
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert!((r.total_queueing_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hop_latency_adds_per_hop() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.hop_latency_s = 0.25;
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &c);
        assert!((r.mean_latency_s - 2.5).abs() < 1e-9);
    }

    /// A deterministic seeded mix of point-to-point messages with enough
    /// volume to exercise the pooled executor across several windows.
    fn crowded(n: usize, ranks: u32) -> Vec<Injection> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = (x >> 32) as u32 % ranks;
                let mut dst = (x >> 11) as u32 % ranks;
                if dst == src {
                    dst = (dst + 1) % ranks;
                }
                Injection {
                    // Bursts: many ties, short spacing — maximal contention.
                    time: (i as f64 / 50.0).floor() * 1e-5,
                    src,
                    dst,
                    bytes: 1 + (x % 100_000),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_is_byte_identical_to_reference_at_every_worker_and_window() {
        let topo = Torus3D::new([4, 4, 2]);
        let m = Mapping::consecutive(32, 32);
        let msgs = crowded(3_000, 32);
        for forwarding in [Forwarding::StoreAndForward, Forwarding::CutThrough] {
            let mut c = cfg();
            c.forwarding = forwarding;
            c.hop_latency_s = 100e-9;
            let reference = simulate_reference(&topo, &m, &msgs, &c);
            let routed = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
            for workers in [1usize, 2, 3, 0] {
                for window in [1usize, 7, 500, 0, usize::MAX] {
                    let exec = SimExec { workers, window };
                    let got = simulate_parallel(&routed, &m, &msgs, &c, &exec);
                    assert_eq!(
                        got, reference,
                        "{forwarding:?} diverged at workers={workers} window={window}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_are_invariant_under_injection_order() {
        let topo = Torus3D::new([3, 3, 3]);
        let m = Mapping::consecutive(27, 27);
        let mut msgs = crowded(1_000, 27);
        let reference = simulate_reference(&topo, &m, &msgs, &cfg());
        msgs.reverse();
        let routed = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
        let got = simulate_parallel(&routed, &m, &msgs, &cfg(), &SimExec::default());
        assert_eq!(got, reference);
        assert_eq!(simulate_reference(&topo, &m, &msgs, &cfg()), reference);
    }

    #[test]
    fn lazy_and_dense_storage_agree() {
        let topo = Torus3D::new([4, 4, 1]);
        let m = Mapping::consecutive(16, 16);
        let msgs = crowded(800, 16);
        let dense = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
        let lazy = RoutedTopology::with_plan(&topo, StoragePlan::Lazy);
        let exec = SimExec::default();
        assert_eq!(
            simulate_parallel(&dense, &m, &msgs, &cfg(), &exec),
            simulate_parallel(&lazy, &m, &msgs, &cfg(), &exec)
        );
    }
}
