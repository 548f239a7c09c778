//! Naive single-threaded reference replay of the network model.
//!
//! This is a deliberately independent re-implementation of
//! [`crate::netmodel::analyze_network`]: no chunking, no shared
//! accumulator type, no preallocated route buffer, and it walks the
//! traffic matrix in hash order instead of the sorted pair order. Every
//! field of [`NetworkReport`] is an exact integer, so whatever the
//! iteration or reduction order, both implementations must agree
//! *byte-identically* — which is exactly what the differential oracle in
//! `netloc-testkit` asserts over the whole seeded corpus.
//!
//! Keep this module boring. Its value as an oracle comes from staying
//! simple enough to be obviously correct against §4.2 of the paper.

use crate::netmodel::NetworkReport;
use crate::traffic::TrafficMatrix;
use netloc_topology::{Mapping, Topology};

/// Replay `tm` through `topo` under `mapping`, one pair at a time.
///
/// Same contract as [`crate::netmodel::analyze_network`]: the mapping must
/// cover every rank of the matrix, and co-located pairs contribute
/// zero-hop packets.
pub fn analyze_network_reference(
    topo: &dyn Topology,
    mapping: &Mapping,
    tm: &TrafficMatrix,
) -> NetworkReport {
    assert!(
        mapping.num_ranks() >= tm.num_ranks() as usize,
        "mapping covers {} ranks, traffic matrix has {}",
        mapping.num_ranks(),
        tm.num_ranks()
    );
    let links = topo.links();

    let mut packet_hops: u128 = 0;
    let mut packets: u64 = 0;
    let mut messages: u64 = 0;
    let mut link_volume: u128 = 0;
    let mut global_packets: u64 = 0;
    let mut global_messages: u64 = 0;
    let mut link_loads: Vec<u64> = vec![0; links.len()];
    let mut hop_histogram: Vec<u64> = Vec::new();

    for (&(src, dst), p) in tm.iter() {
        let route = topo.route(mapping.node_of(src as usize), mapping.node_of(dst as usize));
        let hops = route.len();

        packet_hops += hops as u128 * p.packets as u128;
        packets += p.packets;
        messages += p.messages;
        link_volume += hops as u128 * p.bytes as u128;

        if hop_histogram.len() <= hops {
            hop_histogram.resize(hops + 1, 0);
        }
        hop_histogram[hops] += p.packets;

        let mut crosses_global = false;
        for l in &route {
            link_loads[l.idx()] += p.bytes;
            crosses_global |= links[l.idx()].class.is_global();
        }
        if crosses_global {
            global_packets += p.packets;
            global_messages += p.messages;
        }
    }

    NetworkReport {
        packet_hops,
        packets,
        messages,
        link_volume_bytes: link_volume,
        used_links: link_loads.iter().filter(|&&b| b > 0).count(),
        total_links: links.len(),
        global_packets,
        global_messages,
        link_loads,
        hop_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::analyze_network;
    use netloc_topology::{Dragonfly, FatTree, Torus};

    #[test]
    fn reference_matches_chunked_on_ring_traffic() {
        let topo = Torus::new([3, 3, 3]);
        let m = Mapping::consecutive(27, 27);
        let mut tm = TrafficMatrix::new(27);
        for r in 0..27u32 {
            tm.record(r, (r * 5 + 2) % 27, 777 + r as u64 * 13, 3);
        }
        assert_eq!(
            analyze_network_reference(&topo, &m, &tm),
            analyze_network(&topo, &m, &tm)
        );
    }

    #[test]
    fn reference_matches_chunked_on_dragonfly_globals() {
        let topo = Dragonfly::new(4, 2, 2);
        let n = topo.num_nodes();
        let m = Mapping::consecutive(n, n);
        let mut tm = TrafficMatrix::new(n as u32);
        for r in 0..n as u32 {
            tm.record(r, (r + 7) % n as u32, 10_000, 1);
        }
        let reference = analyze_network_reference(&topo, &m, &tm);
        assert_eq!(reference, analyze_network(&topo, &m, &tm));
        assert!(reference.global_packets > 0, "corpus must exercise globals");
    }

    #[test]
    fn reference_handles_empty_matrix() {
        let topo = FatTree::new(8, 2);
        let m = Mapping::consecutive(8, topo.num_nodes());
        let tm = TrafficMatrix::new(8);
        let rep = analyze_network_reference(&topo, &m, &tm);
        assert_eq!(rep.packets, 0);
        assert_eq!(rep.hop_histogram, Vec::<u64>::new());
        assert_eq!(rep, analyze_network(&topo, &m, &tm));
    }
}
