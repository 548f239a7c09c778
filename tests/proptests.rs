//! Property-based tests on the core invariants, spanning crates.
//!
//! The registry is unreachable in this build environment, so instead of the
//! `proptest` shrinker these run a fixed number of deterministic cases from
//! a seeded ChaCha8 stream. Failures print the case seed; re-running is
//! exactly reproducible.
// Node ids are dense indices; indexed loops over them read clearest.
#![allow(clippy::needless_range_loop)]

use netloc::core::metrics::{rank_locality, selectivity};
use netloc::core::TrafficMatrix;
use netloc::mpi::{
    parse_trace, translate_collective, write_trace, CollectiveOp, Communicator, Payload, Rank,
    TraceBuilder,
};
use netloc::topology::bfs::BfsRouter;
use netloc::topology::{grid, Dragonfly, FatTree, Mapping, NodeId, Topology, Torus3D};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cases per property (matches the old `ProptestConfig::with_cases(64)`).
const CASES: u64 = 64;

/// Run `body` against `CASES` independently-seeded RNG streams. The
/// per-case seed is printed in the panic message on failure.
fn check(name: &str, mut body: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        // Derive the stream from the property name so tests stay
        // independent of each other and of declaration order.
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

/// Torus dimension-order routing is a true shortest path.
#[test]
fn torus_routing_is_optimal() {
    check("torus_routing_is_optimal", |rng| {
        let dims = [
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..4),
        ];
        let t = Torus3D::new(dims);
        let n = t.num_nodes();
        let bfs = BfsRouter::new(&t);
        let src = NodeId(rng.gen_range(0..n as u32));
        let dist = bfs.distances_from(src);
        for d in 0..n {
            assert_eq!(t.hops(src, NodeId(d as u32)), dist[d]);
        }
    });
}

/// Torus routes are valid walks whose length equals the hop count.
#[test]
fn torus_routes_are_walks() {
    check("torus_routes_are_walks", |rng| {
        let dims = [
            rng.gen_range(2usize..6),
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..4),
        ];
        let t = Torus3D::new(dims);
        let n = t.num_nodes() as u32;
        let (s, d) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        let route = t.route(s, d);
        assert_eq!(route.len() as u32, t.hops(s, d));
        let mut cur = s.0;
        for lid in &route {
            let link = t.links()[lid.idx()];
            cur = link.other(cur).expect("contiguous");
        }
        assert_eq!(cur, d.0);
    });
}

/// Fat-tree routing is a true shortest path (small radix for speed).
#[test]
fn fattree_routing_is_optimal() {
    check("fattree_routing_is_optimal", |rng| {
        let stages = rng.gen_range(1usize..4);
        let ft = FatTree::new(8, stages);
        let n = ft.num_nodes();
        let bfs = BfsRouter::new(&ft);
        let src = NodeId(rng.gen_range(0..n as u32));
        let dist = bfs.distances_from(src);
        for d in 0..n {
            assert_eq!(ft.hops(src, NodeId(d as u32)), dist[d]);
        }
    });
}

/// Dragonfly minimal routing is within one hop of optimal and ≤ 5.
#[test]
fn dragonfly_minimal_close_to_optimal() {
    check("dragonfly_minimal_close_to_optimal", |rng| {
        let h = rng.gen_range(1usize..3);
        let a = 2 * h;
        let df = Dragonfly::new(a, h, h);
        let n = df.num_nodes();
        let bfs = BfsRouter::new(&df);
        let src = NodeId(rng.gen_range(0..n as u32));
        let dist = bfs.distances_from(src);
        for d in 0..n {
            let direct = df.hops(src, NodeId(d as u32));
            assert!(direct <= 5);
            let optimal = dist[d];
            assert!(
                direct == optimal || (direct == 5 && optimal == 4),
                "direct {direct} vs optimal {optimal}"
            );
        }
    });
}

/// Random mappings are injective and in range.
#[test]
fn random_mapping_is_injective() {
    check("random_mapping_is_injective", |rng| {
        let ranks = rng.gen_range(1usize..60);
        let extra = rng.gen_range(0usize..40);
        let nodes = ranks + extra;
        let m = Mapping::random(ranks, nodes, rng);
        let mut seen = std::collections::HashSet::new();
        for r in 0..ranks {
            let node = m.node_of(r);
            assert!(node.idx() < nodes);
            assert!(seen.insert(node));
        }
    });
}

/// The quantile rank distance is monotone in the share and bounded by
/// the maximum pair distance.
#[test]
fn rank_distance_quantile_monotone() {
    check("rank_distance_quantile_monotone", |rng| {
        let mut tm = TrafficMatrix::new(40);
        let mut max_dist = 0u32;
        let mut any = false;
        for _ in 0..rng.gen_range(1usize..50) {
            let (s, d) = (rng.gen_range(0u32..40), rng.gen_range(0u32..40));
            let b = rng.gen_range(1u64..1_000_000);
            if s != d {
                tm.record(s, d, b, 1);
                max_dist = max_dist.max(s.abs_diff(d));
                any = true;
            }
        }
        if !any {
            return;
        }
        let d50 = rank_locality::rank_distance_quantile(&tm, 0.5).unwrap();
        let d90 = rank_locality::rank_distance_quantile(&tm, 0.9).unwrap();
        let d100 = rank_locality::rank_distance_quantile(&tm, 1.0).unwrap();
        assert!(d50 <= d90 + 1e-9);
        assert!(d90 <= d100 + 1e-9);
        assert!(d100 <= max_dist as f64 + 1e-9);
        assert!(d50 >= 1.0);
    });
}

/// Selectivity lies in [≈0.9, peers] for every rank with traffic.
#[test]
fn selectivity_bounded_by_peers() {
    check("selectivity_bounded_by_peers", |rng| {
        let mut tm = TrafficMatrix::new(20);
        for _ in 0..rng.gen_range(1usize..60) {
            let (s, d) = (rng.gen_range(0u32..20), rng.gen_range(0u32..20));
            tm.record(s, d, rng.gen_range(1u64..1_000_000), 1);
        }
        for src in 0..20 {
            let profile = tm.out_profile(src);
            if profile.is_empty() {
                continue;
            }
            let sel = selectivity::rank_selectivity(&tm, src, 0.9).unwrap();
            assert!(sel <= profile.len() as f64 + 1e-9);
            assert!(sel >= 0.9 - 1e-9);
        }
    });
}

/// Collective translation conserves the closed-form volume and never
/// emits self-messages, for every op and random payloads.
#[test]
fn collective_translation_conserves_volume() {
    check("collective_translation_conserves_volume", |rng| {
        let n = rng.gen_range(2u32..20);
        let comm = Communicator::world(n);
        let root = rng.gen_range(0usize..20) % n as usize;
        let op = CollectiveOp::ALL[rng.gen_range(0..CollectiveOp::ALL.len())];
        let payload = Payload::PerRank(
            (0..n as usize)
                .map(|_| rng.gen_range(0u64..1_000_000))
                .collect(),
        );
        let msgs = translate_collective(op, &comm, Some(root), &payload);
        let total: u64 = msgs.iter().map(|m| m.bytes).sum();
        let closed = netloc::mpi::collective::collective_volume(op, &comm, Some(root), &payload);
        assert_eq!(total, closed);
        assert!(msgs.iter().all(|m| m.src != m.dst));
        assert!(msgs.iter().all(|m| m.src.0 < n && m.dst.0 < n));
    });
}

/// Dumpi-format round trips are lossless for random traces.
#[test]
fn dumpi_roundtrip_random_traces() {
    check("dumpi_roundtrip_random_traces", |rng| {
        let ranks = rng.gen_range(2u32..30);
        let time = rng.gen_range(0.001f64..1e6);
        let mut b = TraceBuilder::new("prop", ranks).exec_time_s(time);
        for _ in 0..rng.gen_range(0usize..20) {
            let (s, d) = (rng.gen_range(0u32..30), rng.gen_range(0u32..30));
            b.send(
                Rank(s % ranks),
                Rank(d % ranks),
                rng.gen_range(1u64..1_000_000),
                rng.gen_range(1u64..100),
            );
        }
        for _ in 0..rng.gen_range(0usize..5) {
            let op = CollectiveOp::ALL[rng.gen_range(0..CollectiveOp::ALL.len())];
            let root = op.is_rooted().then_some(0);
            b.collective(
                op,
                root,
                Payload::Uniform(rng.gen_range(1u64..10_000)),
                rng.gen_range(1u64..50),
            );
        }
        let trace = b.build();
        let parsed = parse_trace(&write_trace(&trace)).unwrap();
        assert_eq!(&parsed, &trace);
        // ...and so must the columnar codec, at any chunking: the frame
        // size changes the wire layout but never the decoded trace.
        let col = netloc::mpi::write_trace_columnar(&trace);
        assert_eq!(netloc::mpi::parse_trace_columnar(&col).unwrap(), trace);
        let chunk = rng.gen_range(1usize..40);
        let chunked = netloc::mpi::write_trace_columnar_chunked(&trace, chunk);
        assert_eq!(netloc::mpi::parse_trace_columnar(&chunked).unwrap(), trace);
    });
}

/// Remapping ranks with a permutation and mapping the inverse onto the
/// nodes leaves the network analysis invariant.
#[test]
fn remap_plus_inverse_mapping_is_invariant() {
    check("remap_plus_inverse_mapping_is_invariant", |rng| {
        use netloc::core::analyze_network;
        use netloc::mpi::transform::remap_ranks;
        use rand::seq::SliceRandom;
        let n = 27u32;
        let mut b = TraceBuilder::new("p", n).exec_time_s(1.0);
        for r in 0..n {
            b.send(Rank(r), Rank((r * 7 + 1) % n), 1000 + r as u64, 2);
        }
        let trace = b.build();
        let mut perm: Vec<u32> = (0..n).collect();
        perm.shuffle(rng);
        let remapped = remap_ranks(&trace, &perm).unwrap();

        let topo = Torus3D::new([3, 3, 3]);
        let base = analyze_network(
            &topo,
            &Mapping::consecutive(n as usize, 27),
            &TrafficMatrix::from_trace_full(&trace),
        );
        // Mapping rank r to node perm[r] undoes the renumbering: the
        // physical traffic is identical.
        let inverse_assignment: Vec<netloc::topology::NodeId> = {
            let mut inv = vec![0u32; n as usize];
            for (old, &new) in perm.iter().enumerate() {
                inv[new as usize] = old as u32;
            }
            inv.into_iter().map(netloc::topology::NodeId).collect()
        };
        let mapped = analyze_network(
            &topo,
            &Mapping::from_assignment(inverse_assignment, 27),
            &TrafficMatrix::from_trace_full(&remapped),
        );
        assert_eq!(base.packet_hops, mapped.packet_hops);
        assert_eq!(base.link_loads, mapped.link_loads);
    });
}

/// The network replay is a pure function of the traffic *matrix*, not of
/// how it was assembled or chunked: recording the same sends in any
/// order, and replaying with any chunk size, yields byte-identical
/// reports (the invariant `netloc verify` enforces over its corpus).
#[test]
fn analyze_network_invariant_under_pair_order_and_chunking() {
    check(
        "analyze_network_invariant_under_pair_order_and_chunking",
        |rng| {
            use netloc::core::{analyze_network, analyze_network_routed_chunked};
            use netloc::topology::RoutedTopology;
            use rand::seq::SliceRandom;
            let n = 24u32;
            let mut sends: Vec<(u32, u32, u64, u64)> = (0..rng.gen_range(5usize..60))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(1u64..200_000),
                        rng.gen_range(1u64..6),
                    )
                })
                .collect();
            let build = |sends: &[(u32, u32, u64, u64)]| {
                let mut tm = TrafficMatrix::new(n);
                for &(s, d, bytes, rep) in sends {
                    tm.record(s, d, bytes, rep);
                }
                tm
            };
            let tm = build(&sends);
            sends.shuffle(rng);
            let tm_shuffled = build(&sends);

            let topo = Torus3D::new([4, 3, 2]);
            let mapping = Mapping::consecutive(n as usize, topo.num_nodes());
            let base = analyze_network(&topo, &mapping, &tm);
            assert_eq!(
                base,
                analyze_network(&topo, &mapping, &tm_shuffled),
                "report depends on the order pairs were recorded in"
            );
            // Consecutive mapping: one source node per rank.
            let sources = n as usize;
            let direct = RoutedTopology::direct(&topo);
            for chunk in [1, rng.gen_range(1..=sources), sources] {
                assert_eq!(
                    base,
                    analyze_network_routed_chunked(&direct, &mapping, &tm, chunk),
                    "report depends on chunk size {chunk}"
                );
            }
        },
    );
}

/// The replay's per-source-node fold is exact under any placement: ranks
/// sharing a node out of rank order, empty nodes, every rank on one node,
/// or one rank per node. Every route storage and every chunking of the
/// source nodes must equal the single-threaded reference, and the node
/// pairs must come out sorted, each once, summing to the matrix totals.
#[test]
fn replay_fold_matches_reference_under_any_placement() {
    check("replay_fold_matches_reference_under_any_placement", |rng| {
        use netloc::core::{
            analyze_network_reference, analyze_network_routed, analyze_network_routed_chunked,
            node_pair_traffic, PairTraffic,
        };
        use netloc::topology::routetable::StoragePlan;
        use netloc::topology::RoutedTopology;
        use std::collections::BTreeMap;

        let topo: Box<dyn Topology> = if rng.gen() {
            random_symmetric_topo(rng).0
        } else {
            Box::new(Torus3D::new([3, 3, rng.gen_range(1usize..4)]))
        };
        let nodes = topo.num_nodes();
        let ranks = rng.gen_range(1usize..=32);
        let assignment: Vec<NodeId> = match rng.gen_range(0u8..4) {
            // Anywhere, so nodes share ranks and others stay empty.
            0 => (0..ranks)
                .map(|_| NodeId(rng.gen_range(0..nodes as u32)))
                .collect(),
            // Every rank on one node.
            1 => vec![NodeId(rng.gen_range(0..nodes as u32)); ranks],
            // A few nodes, each shared by ranks far apart in rank order.
            2 => {
                let few = rng.gen_range(1..=3.min(nodes) as u32);
                (0..ranks)
                    .map(|_| NodeId(nodes as u32 - 1 - rng.gen_range(0..few)))
                    .collect()
            }
            // One rank per node, where the machine has room.
            _ => Mapping::random(ranks.min(nodes), nodes, rng)
                .assignment()
                .iter()
                .copied()
                .cycle()
                .take(ranks)
                .collect(),
        };
        let sources = {
            let mut used = assignment.clone();
            used.sort_unstable();
            used.dedup();
            used.len()
        };
        let mapping = Mapping::from_nodes(assignment, nodes);
        let mut tm = TrafficMatrix::new(ranks as u32);
        for _ in 0..rng.gen_range(0usize..80) {
            tm.record(
                rng.gen_range(0..ranks as u32),
                rng.gen_range(0..ranks as u32),
                rng.gen_range(0u64..50_000),
                rng.gen_range(1u64..4),
            );
        }

        let reference = analyze_network_reference(topo.as_ref(), &mapping, &tm);
        let mut storages = vec![
            ("direct", RoutedTopology::direct(topo.as_ref())),
            (
                "dense",
                RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense),
            ),
            (
                "lazy",
                RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Lazy),
            ),
        ];
        if topo.symmetry_hint().is_some() {
            for (label, plan) in [
                ("compressed", StoragePlan::Compressed),
                ("lazy compressed", StoragePlan::LazyCompressed),
            ] {
                storages.push((label, RoutedTopology::with_plan(topo.as_ref(), plan)));
            }
        }
        for (label, routed) in &storages {
            assert_eq!(
                analyze_network_routed(routed, &mapping, &tm),
                reference,
                "{}: {label} replay diverged",
                topo.name()
            );
            for chunk in [1, 7, sources] {
                assert_eq!(
                    analyze_network_routed_chunked(routed, &mapping, &tm, chunk),
                    reference,
                    "{}: {label} replay diverged at {chunk} source nodes per chunk",
                    topo.name()
                );
            }
        }

        let pairs = node_pair_traffic(&mapping, &tm);
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "node pairs not sorted or not distinct: {pairs:?}"
        );
        let total = |p: &[((u32, u32), PairTraffic)]| {
            p.iter().fold((0, 0, 0), |(b, m, k), (_, t)| {
                (b + t.bytes, m + t.messages, k + t.packets)
            })
        };
        let messages: u64 = tm.iter().map(|(_, p)| p.messages).sum();
        assert_eq!(
            total(&pairs),
            (tm.total_bytes(), messages, tm.total_packets())
        );
        let mut naive: BTreeMap<(u32, u32), PairTraffic> = BTreeMap::new();
        for (&(s, d), p) in tm.iter() {
            let key = (mapping.node_of(s as usize).0, mapping.node_of(d as usize).0);
            let e = naive.entry(key).or_default();
            e.bytes += p.bytes;
            e.messages += p.messages;
            e.packets += p.packets;
        }
        assert_eq!(pairs, naive.into_iter().collect::<Vec<_>>());
    });
}

/// The text parser never panics on mutated input — it errors cleanly.
#[test]
fn dumpi_parser_survives_mutation() {
    check("dumpi_parser_survives_mutation", |rng| {
        let mut b = TraceBuilder::new("fuzz", 6).exec_time_s(1.0);
        b.send(Rank(0), Rank(1), 4096, 3);
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 2);
        let mut text = write_trace(&b.build()).into_bytes();
        for _ in 0..rng.gen_range(1usize..8) {
            let idx = rng.gen_range(0usize..4096) % text.len();
            text[idx] = rng.gen_range(0u8..255);
        }
        // Must not panic; any Ok result must be a valid trace.
        if let Ok(s) = std::str::from_utf8(&text) {
            if let Ok(t) = parse_trace(s) {
                assert!(t.validate().is_ok());
            }
        }
    });
}

/// The parallel ingest pipeline is a pure function of the trace bytes:
/// whatever the rayon worker count (1, 2, or the machine default) and
/// whatever the chunk size, the parsed trace, both traffic matrices, and
/// the fused Table 1 stats are identical to the sequential reference
/// (`parse_trace` + `from_trace_full` + `from_trace_p2p` + `stats()`).
#[test]
fn ingest_invariant_under_worker_count_and_chunk_size() {
    use netloc::core::ingest_trace_chunked;
    use netloc::mpi::parse_trace_bytes_chunked;
    check(
        "ingest_invariant_under_worker_count_and_chunk_size",
        |rng| {
            let ranks = rng.gen_range(2u32..24);
            let mut b = TraceBuilder::new("prop-ingest", ranks).exec_time_s(1.5);
            for _ in 0..rng.gen_range(1usize..40) {
                b.send(
                    Rank(rng.gen_range(0..ranks)),
                    Rank(rng.gen_range(0..ranks)),
                    rng.gen_range(0u64..500_000),
                    rng.gen_range(1u64..5),
                );
            }
            for _ in 0..rng.gen_range(0usize..4) {
                let op = CollectiveOp::ALL[rng.gen_range(0..CollectiveOp::ALL.len())];
                b.collective(
                    op,
                    op.is_rooted().then(|| rng.gen_range(0..ranks) as usize),
                    Payload::Uniform(rng.gen_range(1u64..10_000)),
                    rng.gen_range(1u64..4),
                );
            }
            let trace = b.build();
            let text = write_trace(&trace);

            let seq_full = TrafficMatrix::from_trace_full(&trace);
            let seq_p2p = TrafficMatrix::from_trace_p2p(&trace);
            let seq_stats = trace.stats();

            for workers in [1usize, 2, 0] {
                let saved = rayon::set_max_workers(workers);
                let chunk = rng.gen_range(0usize..200);
                let parsed = parse_trace_bytes_chunked(text.as_bytes(), chunk).unwrap();
                assert_eq!(parsed, trace, "workers {workers}, chunk {chunk}");
                let ing = ingest_trace_chunked(parsed, rng.gen_range(0usize..50));
                assert_eq!(ing.stats, seq_stats, "workers {workers}");
                assert_eq!(ing.matrix.sorted_pairs(), seq_full.sorted_pairs());
                assert_eq!(ing.p2p.sorted_pairs(), seq_p2p.sorted_pairs());
                rayon::set_max_workers(saved);
            }
        },
    );
}

/// The temporal simulation is a pure function of the injection *set*:
/// whatever the rayon worker cap, the explicit worker count, the window
/// size, and the order the injections are handed over in, the parallel
/// engine's report is byte-identical to the sequential `refsim`
/// reference (full-struct equality, floats included — the invariant the
/// `netloc verify` sim oracle enforces over its corpus).
#[test]
fn sim_invariant_under_workers_windows_and_order() {
    use netloc::sim::{expand_trace, simulate_parallel, simulate_reference, SimConfig, SimExec};
    use netloc::topology::routetable::StoragePlan;
    use netloc::topology::RoutedTopology;
    use rand::seq::SliceRandom;
    check("sim_invariant_under_workers_windows_and_order", |rng| {
        let ranks = rng.gen_range(2u32..24);
        let mut b = TraceBuilder::new("prop-sim", ranks).exec_time_s(1.0);
        for _ in 0..rng.gen_range(1usize..40) {
            b.send(
                Rank(rng.gen_range(0..ranks)),
                Rank(rng.gen_range(0..ranks)),
                rng.gen_range(1u64..500_000),
                rng.gen_range(1u64..5),
            );
        }
        if rng.gen_range(0u8..2) == 0 {
            b.collective(
                CollectiveOp::Alltoall,
                None,
                Payload::Uniform(rng.gen_range(1u64..10_000)),
                rng.gen_range(1u64..3),
            );
        }
        let (mut injections, _) = expand_trace(&b.build(), 2_000);
        let topo = Torus3D::new([3, 4, 2]);
        let mapping = Mapping::consecutive(ranks as usize, topo.num_nodes());
        let cfg = SimConfig {
            report_windows: rng.gen_range(0usize..6),
            ..SimConfig::default()
        };
        let reference = simulate_reference(&topo, &mapping, &injections, &cfg);
        let routed = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
        injections.shuffle(rng);
        for workers in [1usize, 2, 0] {
            let saved = rayon::set_max_workers(workers);
            let exec = SimExec {
                workers,
                window: rng.gen_range(0usize..200),
            };
            let report = simulate_parallel(&routed, &mapping, &injections, &cfg, &exec);
            rayon::set_max_workers(saved);
            assert_eq!(
                report, reference,
                "workers {workers}, window {}",
                exec.window
            );
        }
    });
}

/// `expand_trace` survives truncation and bit flips over the whole
/// columnar corpus: every corruption yields either a clean parse error or a
/// trace whose expansion respects the hard `max_injections` bound — never a
/// panic, and never an expansion driven past the cap by a corrupted
/// repeat count. A few flips per case (not more) keep enough corrupted
/// traces decodable to reach `expand_trace`.
#[test]
fn expand_trace_survives_corpus_corruption() {
    use netloc::sim::expand_trace;
    let corpus: Vec<Vec<u8>> = netloc::testkit::default_corpus()
        .iter()
        .map(|cfg| netloc::mpi::write_trace_columnar(&cfg.build_trace()))
        .collect();
    assert!(!corpus.is_empty());
    let mut expanded = 0;
    check("expand_trace_survives_corpus_corruption", |rng| {
        let mut bin = corpus[rng.gen_range(0..corpus.len())].clone();
        if rng.gen_range(0u8..2) == 0 {
            bin.truncate(rng.gen_range(0..=bin.len()));
        }
        if !bin.is_empty() {
            for _ in 0..rng.gen_range(1usize..4) {
                let idx = rng.gen_range(0..bin.len());
                bin[idx] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Corruption that still parses must still expand within bounds —
        // whatever the (possibly huge) corrupted byte counts and repeats.
        if let Ok(trace) = netloc::mpi::parse_trace_columnar(&bin) {
            expanded += 1;
            let max = rng.gen_range(1usize..300);
            let (injections, stride) = expand_trace(&trace, max);
            assert!(
                injections.len() <= max,
                "expansion {} exceeds hard bound {max}",
                injections.len()
            );
            assert!(stride >= 1);
        }
    });
    assert!(
        expanded >= 4,
        "only {expanded} corrupted traces reached expand_trace"
    );
}

/// The chunked byte parser agrees with the sequential reference parser on
/// corrupted corpus text: the same trace on accidental survival, or the
/// same first error — rendered message and line number included.
#[test]
fn text_parsers_agree_on_corpus_corruption() {
    use netloc::mpi::parse_trace_bytes;
    let corpus: Vec<String> = netloc::testkit::default_corpus()
        .iter()
        .map(|cfg| write_trace(&cfg.build_trace()))
        .collect();
    assert!(!corpus.is_empty());
    check("text_parsers_agree_on_corpus_corruption", |rng| {
        let mut bytes = corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
        if rng.gen_range(0u8..2) == 0 {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        if !bytes.is_empty() {
            // ASCII-only mutations keep the text valid UTF-8, so the byte
            // parser takes its chunked path instead of the UTF-8 bailout.
            for _ in 0..rng.gen_range(0usize..16) {
                let idx = rng.gen_range(0..bytes.len());
                bytes[idx] = rng.gen_range(0u8..128);
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
        match (parse_trace(&text), parse_trace_bytes(text.as_bytes())) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!(
                "parsers disagree on outcome: reference {:?}, bytes {:?}",
                a.map(|_| "Ok").map_err(|e| e.to_string()),
                b.map(|_| "Ok").map_err(|e| e.to_string()),
            ),
        }
    });
}

/// Windowed metrics are a pure function of the (trace, window count)
/// pair: whatever the worker cap and however the event stream is
/// chunked, the merged per-window states are identical to the
/// sequential single-bucket reference, and their counters sum to the
/// whole-trace aggregates — the invariant the `netloc verify` windows
/// oracle enforces over its corpus.
#[test]
fn windowed_merge_invariant_under_grouping() {
    use netloc::core::{windowed_ingest_chunked, windowed_reference, windows_diff};
    check("windowed_merge_invariant_under_grouping", |rng| {
        let ranks = rng.gen_range(2u32..24);
        let mut b = TraceBuilder::new("prop-windows", ranks).exec_time_s(rng.gen_range(0.5..20.0));
        for _ in 0..rng.gen_range(1usize..50) {
            b.send(
                Rank(rng.gen_range(0..ranks)),
                Rank(rng.gen_range(0..ranks)),
                rng.gen_range(0u64..500_000),
                rng.gen_range(1u64..5),
            );
        }
        for _ in 0..rng.gen_range(0usize..4) {
            let op = CollectiveOp::ALL[rng.gen_range(0..CollectiveOp::ALL.len())];
            b.collective(
                op,
                op.is_rooted().then(|| rng.gen_range(0..ranks) as usize),
                Payload::Uniform(rng.gen_range(1u64..10_000)),
                rng.gen_range(1u64..4),
            );
        }
        let trace = b.build();
        let windows = rng.gen_range(1usize..9);
        let reference = windowed_reference(&trace, windows);

        // Any worker count × any chunk size: identical windows.
        for workers in [1usize, 2, 0] {
            let saved = rayon::set_max_workers(workers);
            let chunk = rng.gen_range(0usize..40);
            let merged = windowed_ingest_chunked(&trace, windows, chunk);
            let diffs = windows_diff(&reference, &merged);
            rayon::set_max_workers(saved);
            assert!(
                diffs.is_empty(),
                "workers {workers}, chunk {chunk}: {diffs:?}"
            );
        }

        // The windows partition the whole trace: counter sums match the
        // fused Table-1 stats exactly.
        let stats = trace.stats();
        let sum = |f: fn(&netloc::core::WindowMetrics) -> u64| -> u64 {
            reference.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.p2p_bytes), stats.p2p_bytes);
        assert_eq!(sum(|w| w.coll_bytes), stats.coll_bytes);
        assert_eq!(sum(|w| w.p2p_calls), stats.p2p_calls);
        assert_eq!(sum(|w| w.coll_calls), stats.coll_calls);
    });
}

/// The columnar codec survives the on-disk fault harness over the whole
/// corpus: truncation, bit flips, clobbered tails, and garbage must all
/// yield either a clean offset-carrying `Err` or a trace that still
/// validates — never a panic, and never a count-driven allocation. The
/// incremental stream parser must agree with the whole-buffer parse on
/// every surviving input.
#[test]
fn columnar_codec_survives_corpus_corruption() {
    use netloc::testkit::fault::corrupt_file_randomly;
    let corpus: Vec<Vec<u8>> = netloc::testkit::default_corpus()
        .iter()
        .map(|cfg| netloc::mpi::write_trace_columnar(&cfg.build_trace()))
        .collect();
    assert!(!corpus.is_empty());
    let dir = std::env::temp_dir().join(format!("netloc-colfault-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    check("columnar_codec_survives_corpus_corruption", |rng| {
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let path = dir.join("case.col");
        std::fs::write(&path, base).unwrap();
        let mode = corrupt_file_randomly(&path, rng).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let whole = netloc::mpi::parse_trace_columnar(&bytes);
        match &whole {
            Ok(t) => assert!(t.validate().is_ok(), "{mode:?} produced an invalid trace"),
            Err(e) => {
                let msg = e.to_string();
                // Every decode error carries its byte offset, except the
                // up-front magic check (there is no position to report
                // when the file is not columnar at all).
                assert!(
                    msg.contains("offset") || msg.contains("magic"),
                    "{mode:?} error must locate itself: {msg}"
                );
            }
        }
        // The streaming parser sees the same bytes in arbitrary slices
        // and must not panic either; when both sides accept, they must
        // decode the identical trace.
        let mut parser = netloc::mpi::ColStreamParser::new();
        let mut rest: &[u8] = &bytes;
        let streamed = loop {
            if rest.is_empty() {
                break parser.finish();
            }
            let take = rng.gen_range(1usize..=rest.len().min(97));
            let (head, tail) = rest.split_at(take);
            rest = tail;
            if let Err(e) = parser.push(head) {
                break Err(e);
            }
        };
        if let (Ok(a), Ok(b)) = (&whole, &streamed) {
            assert_eq!(a, b, "{mode:?}: stream decode diverged from whole-buffer");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Grid foldings: exact product, descending dims, chebyshev symmetry
/// and triangle inequality.
#[test]
fn grid_fold_invariants() {
    check("grid_fold_invariants", |rng| {
        let n = rng.gen_range(1usize..600);
        let k = rng.gen_range(1usize..4);
        let dims = grid::fold_dims(n, k);
        assert_eq!(dims.iter().product::<usize>(), n);
        assert_eq!(dims.len(), k);
        assert!(dims.windows(2).all(|w| w[0] >= w[1]));
        let (a, b, c) = (
            rng.gen_range(0usize..600) % n,
            rng.gen_range(0usize..600) % n,
            rng.gen_range(0usize..600) % n,
        );
        let dab = grid::chebyshev_distance(a, b, &dims);
        assert_eq!(dab, grid::chebyshev_distance(b, a, &dims));
        let dac = grid::chebyshev_distance(a, c, &dims);
        let dcb = grid::chebyshev_distance(c, b, &dims);
        assert!(dab <= dac + dcb);
        assert_eq!(grid::chebyshev_distance(a, a, &dims), 0);
    });
}

/// Packet accounting: packets = Σ repeat·⌈bytes/4096⌉ exactly.
#[test]
fn packetization_is_exact() {
    use netloc::core::PACKET_PAYLOAD;
    let mut tm = TrafficMatrix::new(2);
    let cases = [(1u64, 1u64), (4096, 3), (4097, 2), (12288, 1), (0, 5)];
    let mut expect = 0;
    for (bytes, rep) in cases {
        tm.record(0, 1, bytes, rep);
        expect += bytes.div_ceil(PACKET_PAYLOAD).max(1) * rep;
    }
    assert_eq!(tm.get(0, 1).unwrap().packets, expect);
}

/// Random small instance of a router-symmetric family (the zoo plus
/// dragonfly). The bool is whether minimal routing may exceed BFS by a
/// one-hop detour (dragonfly only).
fn random_symmetric_topo(rng: &mut ChaCha8Rng) -> (Box<dyn Topology>, bool) {
    use netloc::topology::{HyperX, Jellyfish, SlimFly};
    match rng.gen_range(0u8..4) {
        0 => {
            let h = rng.gen_range(1usize..3);
            let df = Dragonfly::new(2 * h, h, rng.gen_range(1usize..3));
            (Box::new(df) as Box<dyn Topology>, true)
        }
        1 => (Box::new(SlimFly::new(5, rng.gen_range(1usize..4))), false),
        2 => {
            let ndims = rng.gen_range(2usize..4);
            let dims: Vec<usize> = (0..ndims).map(|_| rng.gen_range(2usize..5)).collect();
            (Box::new(HyperX::new(dims, rng.gen_range(1usize..4))), false)
        }
        _ => {
            let mut routers = rng.gen_range(6usize..24);
            let degree = rng.gen_range(2usize..5);
            if routers * degree % 2 != 0 {
                routers += 1;
            }
            let jf = Jellyfish::new(routers, degree, rng.gen_range(1usize..4), rng.gen());
            (Box::new(jf), false)
        }
    }
}

/// Zoo routing is BFS-optimal; dragonfly stays within its documented
/// one-hop detour. Checked from a random source against a full BFS.
#[test]
fn symmetric_family_routing_is_optimal() {
    check("symmetric_family_routing_is_optimal", |rng| {
        let (topo, allow_detour) = random_symmetric_topo(rng);
        let n = topo.num_nodes();
        let bfs = BfsRouter::new(topo.as_ref());
        let src = NodeId(rng.gen_range(0..n as u32));
        let dist = bfs.distances_from(src);
        for d in 0..n {
            let direct = topo.hops(src, NodeId(d as u32));
            let optimal = dist[d];
            assert!(
                direct == optimal || (allow_detour && direct == 5 && optimal == 4),
                "{}: {src:?}->{d}: direct {direct} vs optimal {optimal}",
                topo.name()
            );
        }
    });
}

/// Routes on router-symmetric families are valid walks, never repeat a
/// link, and have length-symmetric forward/reverse pairs.
#[test]
fn symmetric_family_routes_are_clean_walks() {
    use netloc::topology::bfs::validate_walk;
    check("symmetric_family_routes_are_clean_walks", |rng| {
        let (topo, _) = random_symmetric_topo(rng);
        let n = topo.num_nodes() as u32;
        for _ in 0..64 {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (src, dst) = (NodeId(s), NodeId(d));
            let fwd = topo.route(src, dst);
            let rev = topo.route(dst, src);
            assert_eq!(
                fwd.len(),
                rev.len(),
                "{}: {s}<->{d} asymmetric route lengths",
                topo.name()
            );
            validate_walk(topo.as_ref(), src, dst, &fwd)
                .unwrap_or_else(|e| panic!("{}: {s}->{d}: {e}", topo.name()));
            let mut links = fwd.clone();
            links.sort_unstable();
            links.dedup();
            assert_eq!(
                links.len(),
                fwd.len(),
                "{}: {s}->{d} repeats a link",
                topo.name()
            );
        }
    });
}

/// Replays over compressed route storage (eager and lazy) and the auto
/// picker are byte-identical to the dense CSR replay on every
/// router-symmetric family, for random traffic and random placements.
#[test]
fn compressed_replay_matches_dense_on_symmetric_machines() {
    use netloc::core::netmodel::analyze_network_routed;
    use netloc::topology::routetable::StoragePlan;
    use netloc::topology::RoutedTopology;
    check(
        "compressed_replay_matches_dense_on_symmetric_machines",
        |rng| {
            let (topo, _) = random_symmetric_topo(rng);
            let nodes = topo.num_nodes();
            let ranks = rng.gen_range(4usize..=24.min(nodes));
            let mut tm = TrafficMatrix::new(ranks as u32);
            for _ in 0..rng.gen_range(5usize..40) {
                tm.record(
                    rng.gen_range(0..ranks as u32),
                    rng.gen_range(0..ranks as u32),
                    rng.gen_range(1u64..100_000),
                    rng.gen_range(1u64..4),
                );
            }
            let mapping = Mapping::random(ranks, nodes, rng);
            let dense = analyze_network_routed(
                &RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense),
                &mapping,
                &tm,
            );
            for (label, routed) in [
                (
                    "compressed",
                    RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Compressed),
                ),
                (
                    "lazy compressed",
                    RoutedTopology::with_plan(topo.as_ref(), StoragePlan::LazyCompressed),
                ),
                ("auto", RoutedTopology::auto(topo.as_ref())),
            ] {
                assert_eq!(
                    analyze_network_routed(&routed, &mapping, &tm),
                    dense,
                    "{}: {label} replay diverged from dense",
                    topo.name()
                );
            }
        },
    );
}

/// Grid expansion is canonical and total-ordered: however the axes are
/// spelled, shuffled, or duplicated, the parsed grid is identical; cell
/// indices enumerate a strictly increasing (topology, mapping, workload)
/// order; and the seeded shard selector is an exact partition.
#[test]
fn grid_expansion_is_canonical_and_total_ordered() {
    use netloc::core::sweep::{shard_of, GridSpec};
    // (canonical spelling, equivalent re-spelling) per axis entry.
    const TOPOS: &[(&str, &str)] = &[
        ("torus:3,3,3", "torus:03,3,3"),
        ("mesh:2,3,4", "mesh:2,03,4"),
        ("torus:4,4,4", "torus:4,04,4"),
        ("dragonfly:4,2,2", "dragonfly:04,2,2"),
    ];
    const MAPS: &[(&str, &str)] = &[
        ("consecutive", "consecutive"),
        ("random:0", "random"),
        ("block:4", "block:04"),
        ("random:7", "random:07"),
    ];
    const WORK: &[(&str, &str)] = &[
        ("A:27", " A:27 "),
        ("B:27", "B:27  "),
        ("C:64", "  C:64"),
        ("D:8", " D:8"),
    ];
    check("grid_expansion_is_canonical_and_total_ordered", |rng| {
        // Pick a random non-empty subset of each axis pool, then build a
        // messy spelling of it: random variant per entry, random extra
        // duplicates, shuffled order.
        let mut subset = |pool: &[(&'static str, &'static str)]| {
            let mut picked: Vec<usize> = (0..pool.len()).filter(|_| rng.gen_bool(0.5)).collect();
            if picked.is_empty() {
                picked.push(rng.gen_range(0..pool.len()));
            }
            let canonical: Vec<&str> = picked.iter().map(|&i| pool[i].0).collect();
            let mut messy: Vec<&str> = picked
                .iter()
                .map(|&i| {
                    if rng.gen_bool(0.5) {
                        pool[i].0
                    } else {
                        pool[i].1
                    }
                })
                .collect();
            for _ in 0..rng.gen_range(0usize..3) {
                let i = picked[rng.gen_range(0..picked.len())];
                messy.push(if rng.gen_bool(0.5) {
                    pool[i].0
                } else {
                    pool[i].1
                });
            }
            for i in (1..messy.len()).rev() {
                let j = rng.gen_range(0..=i);
                messy.swap(i, j);
            }
            (canonical, messy)
        };
        let (ct, mt) = subset(TOPOS);
        let (cm, mm) = subset(MAPS);
        let (cw, mw) = subset(WORK);

        let canonical = GridSpec::parse(&ct, &cm, &cw).expect("canonical grid parses");
        let messy = GridSpec::parse(&mt, &mm, &mw).expect("messy grid parses");
        assert_eq!(canonical, messy, "axis spelling/order/dups must not matter");

        // Total order: cell(i) enumerates strictly increasing
        // (topology, mapping, workload) triples, and indices round-trip.
        let mut prev: Option<(String, String, String)> = None;
        for index in 0..canonical.cell_count() {
            let cell = canonical.cell(index).expect("index < cell_count");
            assert_eq!(cell.index, index);
            let triple = (cell.topology, cell.mapping, cell.workload);
            if let Some(p) = &prev {
                assert!(*p < triple, "expansion must be strictly increasing");
            }
            prev = Some(triple);
        }
        assert!(canonical.cell(canonical.cell_count()).is_none());

        // Seeded sharding is an exact partition: disjoint, covering, and
        // consistent with the per-cell selector.
        let shards = rng.gen_range(1u32..5);
        let seed = rng.gen::<u64>();
        let mut seen = vec![false; canonical.cell_count() as usize];
        for shard in 0..shards {
            let mut last = None;
            for index in canonical.assigned(seed, shards, shard) {
                assert_eq!(shard_of(index, seed, shards), shard);
                assert!(!std::mem::replace(&mut seen[index as usize], true));
                assert!(last < Some(index), "assigned list must be ascending");
                last = Some(index);
            }
        }
        assert!(seen.iter().all(|&s| s), "every cell lands in some shard");
    });
}
