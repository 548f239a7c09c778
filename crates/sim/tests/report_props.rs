//! Property tests on the congestion accounting of [`SimReport`]: the
//! measured utilization is bounded by the static upper bound, slowdowns
//! never dip below 1, and the per-window decomposition conserves the
//! totals. Like the root crate's `proptests.rs`, these run a fixed number
//! of deterministic ChaCha8 cases instead of a proptest shrinker; the
//! failing case seed is printed on panic.

use netloc_sim::{
    simulate_parallel, simulate_reference, Forwarding, Injection, SimConfig, SimExec, SimReport,
};
use netloc_topology::routetable::StoragePlan;
use netloc_topology::{Dragonfly, FatTree, Mapping, RoutedTopology, Topology, Torus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 64;

/// Run `body` against `CASES` independently-seeded RNG streams (same
/// harness as the root crate's proptests).
fn check(name: &str, mut body: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
            .wrapping_add(case);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed on case {case} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random topology, matching mapping, and bursty injection list.
fn random_scenario(rng: &mut ChaCha8Rng) -> (Box<dyn Topology>, Mapping, Vec<Injection>) {
    let topo: Box<dyn Topology> = match rng.gen_range(0u8..3) {
        0 => Box::new(Torus::new([
            rng.gen_range(2usize..4),
            rng.gen_range(2usize..4),
            rng.gen_range(1usize..3),
        ])),
        1 => Box::new(FatTree::new(4, rng.gen_range(1usize..3))),
        _ => Box::new(Dragonfly::new(2, 1, 1)),
    };
    let nodes = topo.num_nodes();
    let ranks = rng.gen_range(2usize..=nodes);
    let mapping = Mapping::consecutive(ranks, nodes);
    let n = rng.gen_range(1usize..200);
    let injections: Vec<Injection> = (0..n)
        .map(|_| Injection {
            // Bursty times (clustered at a few instants) force queueing;
            // zero-time injections exercise the first window edge.
            time: f64::from(rng.gen_range(0u32..8)) * rng.gen_range(0.0..2e-4),
            src: rng.gen_range(0..ranks as u32),
            dst: rng.gen_range(0..ranks as u32),
            bytes: rng.gen_range(1u64..2_000_000),
        })
        .collect();
    (topo, mapping, injections)
}

fn random_cfg(rng: &mut ChaCha8Rng) -> SimConfig {
    SimConfig {
        forwarding: if rng.gen_range(0u8..2) == 0 {
            Forwarding::StoreAndForward
        } else {
            Forwarding::CutThrough
        },
        report_windows: rng.gen_range(1usize..12),
        ..SimConfig::default()
    }
}

/// Relative tolerance for conservation sums: the window decomposition
/// re-adds the same charges in a different grouping, so only float
/// association error (not model error) may appear.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// 0 ≤ measured utilization ≤ static upper bound (Eq. 5's denominator
/// uses the horizon, and the measured one the makespan ≥ horizon), and
/// every slowdown — global and per-window — is at least 1.
#[test]
fn utilization_bounded_and_slowdowns_at_least_one() {
    check("utilization_bounded_and_slowdowns_at_least_one", |rng| {
        let (topo, mapping, injections) = random_scenario(rng);
        let cfg = random_cfg(rng);
        let report = simulate_reference(topo.as_ref(), &mapping, &injections, &cfg);

        let util = report.measured_utilization();
        let bound = report.static_utilization_upper_bound();
        assert!(util >= 0.0, "negative utilization {util}");
        assert!(
            util <= bound + 1e-9 * bound.max(1.0),
            "measured {util} exceeds static bound {bound}"
        );
        assert!(report.mean_slowdown() >= 1.0);
        for (w, ws) in report.windows.iter().enumerate() {
            assert!(ws.measured_utilization >= 0.0, "window {w}");
            assert!(
                ws.mean_slowdown >= 1.0,
                "window {w}: mean slowdown {} below 1",
                ws.mean_slowdown
            );
            if ws.messages > 0 {
                assert!(
                    ws.max_slowdown >= ws.mean_slowdown,
                    "window {w}: max slowdown below mean"
                );
            } else {
                assert_eq!(ws.max_slowdown, 0.0, "window {w}: empty but max slowdown");
            }
            assert!(ws.t_end_s >= ws.t_start_s);
        }
    });
}

/// The per-window decomposition conserves every total: window busy sums
/// to the total busy link-seconds, window offered to the total offered,
/// and window messages/bytes to the report's counts. Cumulative busy
/// never exceeds cumulative offered — links cannot have been busier than
/// the demand injected so far.
#[test]
fn window_decomposition_conserves_totals() {
    check("window_decomposition_conserves_totals", |rng| {
        let (topo, mapping, injections) = random_scenario(rng);
        let cfg = random_cfg(rng);
        let report = simulate_reference(topo.as_ref(), &mapping, &injections, &cfg);
        if report.windows.is_empty() {
            return;
        }

        let busy: f64 = report.windows.iter().map(|w| w.busy_link_s).sum();
        let offered: f64 = report.windows.iter().map(|w| w.offered_link_s).sum();
        let messages: u64 = report.windows.iter().map(|w| w.messages).sum();
        let bytes: u128 = report.windows.iter().map(|w| w.bytes).sum();
        assert!(
            close(busy, report.total_busy_link_s),
            "window busy {busy} != total {}",
            report.total_busy_link_s
        );
        assert!(
            close(offered, report.total_offered_link_s),
            "window offered {offered} != total {}",
            report.total_offered_link_s
        );
        assert_eq!(messages, report.messages);
        assert_eq!(bytes, report.bytes);

        let (mut cum_busy, mut cum_offered) = (0.0f64, 0.0f64);
        for (w, ws) in report.windows.iter().enumerate() {
            cum_busy += ws.busy_link_s;
            cum_offered += ws.offered_link_s;
            assert!(
                cum_busy <= cum_offered + 1e-9 * cum_offered.max(1.0),
                "window {w}: cumulative busy {cum_busy} exceeds cumulative offered {cum_offered}"
            );
        }
    });
}

/// The per-link vector also conserves the totals, and the parallel engine
/// satisfies the exact same bounds (it is byte-identical to the
/// reference, checked here once more on the same random scenarios).
#[test]
fn link_vector_conserves_totals_and_parallel_agrees() {
    check("link_vector_conserves_totals_and_parallel_agrees", |rng| {
        let (topo, mapping, injections) = random_scenario(rng);
        let cfg = random_cfg(rng);
        let report = simulate_reference(topo.as_ref(), &mapping, &injections, &cfg);

        let total: f64 = report.link_busy_s.iter().sum();
        assert!(close(total, report.total_busy_link_s));
        let peak = report.link_busy_s.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(peak, report.peak_link_busy_s);
        assert_eq!(
            report.link_busy_s.iter().filter(|&&b| b > 0.0).count(),
            report.used_links
        );

        let routed = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense);
        let exec = SimExec {
            workers: rng.gen_range(1usize..4),
            window: rng.gen_range(1usize..100),
        };
        let parallel: SimReport = simulate_parallel(&routed, &mapping, &injections, &cfg, &exec);
        assert_eq!(parallel, report);
    });
}
