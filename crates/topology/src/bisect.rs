//! Recursive-bisection mapping.
//!
//! The classic topology-aware placement strategy (cf. Sreepathi et al.,
//! ICPE 2016, cited by the paper's related work): recursively split the
//! rank set into two halves minimizing the traffic cut between them
//! (Kernighan–Lin-style pairwise improvement), and lay the resulting order
//! out consecutively over the node ids. Nodes with nearby ids are nearby in
//! all our topologies (same torus row, same fat-tree leaf, same dragonfly
//! router/group), so a cut-minimizing contiguous order is a strong general
//! mapping without per-topology special cases.

use crate::link::NodeId;
use crate::mapping::Mapping;
use crate::optimize::TrafficEntry;

/// Build a mapping by recursive bisection of the traffic graph.
///
/// `passes` controls the Kernighan–Lin refinement effort per bisection
/// (2–4 is plenty). The result places the reordered ranks consecutively on
/// nodes `0..num_ranks` of a machine with `nodes` nodes.
///
/// # Panics
/// Panics if `num_ranks > nodes`.
pub fn bisection_mapping(
    num_ranks: usize,
    nodes: usize,
    traffic: &[TrafficEntry],
    passes: usize,
) -> Mapping {
    assert!(num_ranks <= nodes);
    // Symmetric adjacency.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); num_ranks];
    for t in traffic {
        if t.src < num_ranks && t.dst < num_ranks && t.src != t.dst {
            adj[t.src].push((t.dst, t.bytes));
            adj[t.dst].push((t.src, t.bytes));
        }
    }

    let mut order: Vec<usize> = (0..num_ranks).collect();
    bisect(&mut order, &adj, passes);

    let mut node_of_rank = vec![NodeId(0); num_ranks];
    for (pos, &rank) in order.iter().enumerate() {
        node_of_rank[rank] = NodeId(pos as u32);
    }
    Mapping::from_assignment(node_of_rank, nodes)
}

/// Recursively reorder `slice` so heavily-linked ranks end up adjacent.
fn bisect(slice: &mut [usize], adj: &[Vec<(usize, u64)>], passes: usize) {
    let n = slice.len();
    if n <= 2 {
        return;
    }
    let half = n / 2;
    // side[rank-position-in-slice]: false = left, true = right.
    // Start from the current order and refine by pairwise swaps.
    let in_left = |idx: usize| idx < half;

    // Membership lookup: rank -> position side (only ranks in this slice).
    let mut side_of: std::collections::HashMap<usize, bool> =
        std::collections::HashMap::with_capacity(n);
    for (i, &r) in slice.iter().enumerate() {
        side_of.insert(r, !in_left(i));
    }

    // External cost of a rank w.r.t. the current sides: traffic to the
    // other side minus traffic to its own side (positive = wants to move).
    let gain_of = |rank: usize, side_of: &std::collections::HashMap<usize, bool>| -> i128 {
        let my_side = side_of[&rank];
        let mut g = 0i128;
        for &(peer, w) in &adj[rank] {
            if let Some(&peer_side) = side_of.get(&peer) {
                if peer_side != my_side {
                    g += w as i128;
                } else {
                    g -= w as i128;
                }
            }
        }
        g
    };

    for _ in 0..passes {
        // Greedy pass: find the best left/right pair to swap; repeat while
        // the combined gain is positive. One sweep per pass keeps this
        // O(passes · n²·deg) worst case, fine at trace scale.
        let mut improved = false;
        let lefts: Vec<usize> = slice[..half].to_vec();
        let rights: Vec<usize> = slice[half..].to_vec();
        let mut best: Option<(usize, usize, i128)> = None;
        for &l in &lefts {
            let gl = gain_of(l, &side_of);
            if gl <= 0 {
                continue;
            }
            for &r in &rights {
                let gr = gain_of(r, &side_of);
                if gr <= 0 {
                    continue;
                }
                // Swapping l and r: combined gain minus twice their mutual
                // edge (which stays cut).
                let mutual: i128 = adj[l]
                    .iter()
                    .filter(|&&(p, _)| p == r)
                    .map(|&(_, w)| w as i128)
                    .sum();
                let g = gl + gr - 2 * mutual;
                if g > 0 && best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((l, r, g));
                }
            }
        }
        if let Some((l, r, _)) = best {
            let li = slice.iter().position(|&x| x == l).expect("in slice");
            let ri = slice.iter().position(|&x| x == r).expect("in slice");
            slice.swap(li, ri);
            side_of.insert(l, true);
            side_of.insert(r, false);
            improved = true;
        }
        if !improved {
            break;
        }
    }

    let (left, right) = slice.split_at_mut(half);
    bisect(left, adj, passes);
    bisect(right, adj, passes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::mapping_cost;
    use crate::{Mapping, RoutedTopology, Torus};

    fn clique_traffic(groups: &[&[usize]], heavy: u64) -> Vec<TrafficEntry> {
        let mut t = Vec::new();
        for g in groups {
            for &a in *g {
                for &b in *g {
                    if a < b {
                        t.push(TrafficEntry {
                            src: a,
                            dst: b,
                            bytes: heavy,
                        });
                    }
                }
            }
        }
        t
    }

    #[test]
    fn bisection_groups_cliques() {
        // Two interleaved cliques: 0,2,4,6 and 1,3,5,7. Bisection should
        // separate them so each clique occupies one contiguous half.
        let traffic = clique_traffic(&[&[0, 2, 4, 6], &[1, 3, 5, 7]], 1000);
        let m = bisection_mapping(8, 8, &traffic, 4);
        let torus = Torus::new([8, 1, 1]);
        let rt = RoutedTopology::auto(&torus);
        let consecutive = Mapping::consecutive(8, 8);
        assert!(mapping_cost(&rt, &m, &traffic) < mapping_cost(&rt, &consecutive, &traffic));
    }

    #[test]
    fn already_local_order_is_not_worsened_much() {
        // A chain 0-1-2-…: consecutive is optimal; bisection must stay
        // within a small factor (it preserves contiguity of halves).
        let traffic: Vec<TrafficEntry> = (0..15)
            .map(|i| TrafficEntry {
                src: i,
                dst: i + 1,
                bytes: 100,
            })
            .collect();
        let torus = Torus::new([16, 1, 1]);
        let rt = RoutedTopology::auto(&torus);
        let m = bisection_mapping(16, 16, &traffic, 4);
        let consecutive = Mapping::consecutive(16, 16);
        let c_bis = mapping_cost(&rt, &m, &traffic);
        let c_con = mapping_cost(&rt, &consecutive, &traffic);
        assert!(c_bis <= 2 * c_con, "{c_bis} vs {c_con}");
    }

    #[test]
    fn result_is_a_permutation() {
        let traffic = clique_traffic(&[&[0, 5], &[1, 4], &[2, 3]], 10);
        let m = bisection_mapping(6, 10, &traffic, 2);
        let mut nodes: Vec<_> = m.assignment().to_vec();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
    }

    #[test]
    fn trivial_sizes_pass_through() {
        let m = bisection_mapping(2, 2, &[], 3);
        assert_eq!(m.num_ranks(), 2);
        let m1 = bisection_mapping(1, 5, &[], 3);
        assert_eq!(m1.num_ranks(), 1);
    }
}
