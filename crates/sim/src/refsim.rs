//! The sequential reference engine — `refsim`.
//!
//! This is a deliberately independent re-implementation of the temporal
//! simulation, kept as the trusted baseline the sharded parallel engine
//! is verified against, exactly as `netloc_core::refmodel` anchors the
//! static replay: one thread, injections in canonical order, a fresh
//! route allocated per message by [`Topology::route`] (no CSR tables, no
//! preallocated buffers), directions recomputed per hop, and window
//! attribution done as a transparent scan over *every* window instead of
//! the engine's indexed fast path. Keep this module boring: its value as
//! an oracle comes from staying simple enough to be obviously correct.
//!
//! The float arithmetic — and therefore every produced bit — is the same
//! as the parallel engine's kernel: the same expressions evaluated in the
//! same per-slot order, writing the same storage layout, reduced by the
//! same `SimReport::build`. The contract — enforced by
//! `netloc-testkit`'s sim oracle, the root property tests, and every
//! `repro bench-sim` cell — is that [`crate::simulate_parallel`] returns
//! a [`SimReport`] **byte-identical** to this function at every worker
//! count and window size.

use crate::engine::{Forwarding, SimConfig};
use crate::expand::{canonicalize, Injection};
use crate::kernel::{MsgOutcome, SlotState};
use crate::report::SimReport;
use crate::windows::WindowGrid;
use netloc_topology::{Mapping, Topology};

/// Charge `[start, end)` on `slot` to the window grid, the obvious way:
/// walk every window and add whatever overlap it holds. The boundary
/// rules (`index_of` decides the first and last window; the first keeps
/// its exact `start`, the last absorbs any tail past the horizon) mirror
/// [`WindowGrid::attribute`] expression for expression, so the sums are
/// bit-identical — only the search is naive.
// `!(end > start)` mirrors [`WindowGrid::attribute`]'s guard exactly: a
// NaN bound must also charge nothing.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn charge_scan(st: &SlotState, grid: &WindowGrid, slot: usize, start: f64, end: f64) {
    let count = grid.count();
    if count == 0 || !(end > start) {
        return;
    }
    let first = grid.index_of(start);
    let last = grid.index_of(end);
    for w in 0..count {
        if w < first || w > last {
            continue;
        }
        let lo = if w == first { start } else { grid.start_of(w) };
        let hi = if w == last { end } else { grid.end_of(w) };
        if hi > lo {
            st.win_busy.add(slot * count + w, hi - lo);
        }
    }
}

/// Simulate `injections` with the single-threaded reference engine.
///
/// Semantics are identical to [`crate::simulate_parallel`] (same
/// forwarding formulas, same report reduction); only the execution
/// strategy differs — per-message routing and the naive window scan
/// instead of CSR lookups and indexed attribution.
pub fn simulate_reference(
    topo: &dyn Topology,
    mapping: &Mapping,
    injections: &[Injection],
    cfg: &SimConfig,
) -> SimReport {
    let inj = canonicalize(injections);
    let horizon = inj.last().map(|i| i.time).unwrap_or(0.0);
    let wcount = if inj.is_empty() {
        0
    } else {
        cfg.report_windows
    };
    let grid = WindowGrid::covering(horizon, wcount);
    let num_links = topo.links().len();
    let st = SlotState::new(num_links, grid.clone());

    let links = topo.links();
    let mut outcomes = Vec::with_capacity(inj.len());
    for i in &inj {
        let (ns, nd) = (
            mapping.node_of(i.src as usize),
            mapping.node_of(i.dst as usize),
        );
        let route = topo.route(ns, nd);
        let hops = route.len() as f64;
        let outcome = match cfg.forwarding {
            Forwarding::StoreAndForward => {
                // The message fully serializes on each directed link in
                // turn, waiting for the link to drain first.
                let serialize = i.bytes as f64 / cfg.bandwidth + cfg.hop_latency_s;
                let mut t = i.time;
                let mut prev = ns.0;
                for lid in &route {
                    let link = links[lid.idx()];
                    // Direction: 0 when traversing a→b, 1 when b→a.
                    let dir = usize::from(link.a != prev);
                    prev = link.other(prev).expect("contiguous route");
                    let slot = 2 * lid.idx() + dir;
                    let start = t.max(st.free_at.get(slot));
                    let end = start + serialize;
                    st.free_at.set(slot, end);
                    st.busy.add(slot, serialize);
                    charge_scan(&st, &grid, slot, start, end);
                    t = end;
                }
                let uncontended = i.time + hops * serialize;
                MsgOutcome {
                    completion: t,
                    queueing: t - uncontended,
                    offered: hops * serialize,
                }
            }
            Forwarding::CutThrough => {
                // Reserve the whole route from the instant every directed
                // link is free; pipeline the payload through it once.
                let mut start = i.time;
                let mut slots = Vec::with_capacity(route.len());
                let mut prev = ns.0;
                for lid in &route {
                    let link = links[lid.idx()];
                    let dir = usize::from(link.a != prev);
                    prev = link.other(prev).expect("contiguous route");
                    let slot = 2 * lid.idx() + dir;
                    start = start.max(st.free_at.get(slot));
                    slots.push(slot);
                }
                let occupy = i.bytes as f64 / cfg.bandwidth;
                let end = start + occupy + hops * cfg.hop_latency_s;
                for &slot in &slots {
                    st.free_at.set(slot, end);
                    st.busy.add(slot, occupy);
                    charge_scan(&st, &grid, slot, start, start + occupy);
                }
                let uncontended = i.time + occupy + hops * cfg.hop_latency_s;
                MsgOutcome {
                    completion: end,
                    queueing: end - uncontended,
                    offered: hops * occupy,
                }
            }
        };
        outcomes.push(outcome);
    }
    SimReport::build(&inj, &outcomes, &st, num_links)
}
