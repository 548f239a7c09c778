//! Generic breadth-first-search router over a topology's link graph.
//!
//! Serves as a *test oracle*: the analytic routing of each topology must
//! produce true shortest paths (the dragonfly's minimal routing is allowed
//! to exceed the BFS distance by at most one hop on 5-hop routes, because
//! minimal dragonfly routing always takes the single direct global link
//! while a 2-global detour can occasionally be one hop shorter — the paper
//! uses minimal routing, see §6.2).

use crate::link::NodeId;
use crate::Topology;
use std::collections::VecDeque;

/// BFS shortest-path distances over the explicit link graph of a topology.
pub struct BfsRouter<'a, T: Topology + ?Sized> {
    topo: &'a T,
    adjacency: Vec<Vec<u32>>,
}

impl<'a, T: Topology + ?Sized> BfsRouter<'a, T> {
    /// Build the adjacency structure from the topology's link list.
    pub fn new(topo: &'a T) -> Self {
        let mut max_vertex = topo.num_nodes() as u32;
        for l in topo.links() {
            max_vertex = max_vertex.max(l.a + 1).max(l.b + 1);
        }
        let mut adjacency = vec![Vec::new(); max_vertex as usize];
        for l in topo.links() {
            adjacency[l.a as usize].push(l.b);
            adjacency[l.b as usize].push(l.a);
        }
        BfsRouter { topo, adjacency }
    }

    /// Shortest hop distance from `src` to every vertex (`u32::MAX` where
    /// unreachable).
    pub fn distances_from(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.adjacency.len()];
        let mut queue = VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src.0);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for &n in &self.adjacency[v as usize] {
                if dist[n as usize] == u32::MAX {
                    dist[n as usize] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Shortest hop distance between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.distances_from(src)[dst.idx()]
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        self.topo
    }
}

/// Check that `route` is a valid walk from `src` to `dst` over `topo`'s
/// links: every consecutive link shares the current vertex, no link is
/// traversed twice, and the walk ends at `dst`. Returns a description of
/// the first violation, for readable oracle diffs.
pub fn validate_walk(
    topo: &(impl Topology + ?Sized),
    src: NodeId,
    dst: NodeId,
    route: &[crate::link::LinkId],
) -> Result<(), String> {
    let links = topo.links();
    let mut seen = std::collections::HashSet::new();
    let mut cur = src.0;
    for (i, lid) in route.iter().enumerate() {
        let link = links
            .get(lid.idx())
            .ok_or_else(|| format!("hop {i}: link {} out of range", lid.idx()))?;
        if !seen.insert(*lid) {
            return Err(format!("hop {i}: link {} repeated", lid.idx()));
        }
        cur = link
            .other(cur)
            .ok_or_else(|| format!("hop {i}: link {} does not touch node {cur}", lid.idx()))?;
    }
    if cur != dst.0 {
        return Err(format!("walk ends at node {cur}, expected {}", dst.0));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, FatTree, Torus};

    #[test]
    fn torus_routing_is_bfs_optimal() {
        let t = Torus::new([4, 3, 3]);
        let bfs = BfsRouter::new(&t);
        for s in 0..t.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..t.num_nodes() {
                assert_eq!(
                    t.hops(NodeId(s as u32), NodeId(d as u32)),
                    dist[d],
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn fattree_routing_is_bfs_optimal() {
        let ft = FatTree::new(8, 3); // k = 4, 64 nodes
        let bfs = BfsRouter::new(&ft);
        for s in 0..ft.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..ft.num_nodes() {
                assert_eq!(
                    ft.hops(NodeId(s as u32), NodeId(d as u32)),
                    dist[d],
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn dragonfly_minimal_routing_is_within_one_of_bfs() {
        let df = Dragonfly::new(4, 2, 2);
        let bfs = BfsRouter::new(&df);
        for s in 0..df.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..df.num_nodes() {
                let direct = df.hops(NodeId(s as u32), NodeId(d as u32));
                let optimal = dist[d];
                assert!(
                    direct == optimal || (direct == 5 && optimal == 4),
                    "{s}->{d}: direct {direct}, bfs {optimal}"
                );
                if df.group_of(NodeId(s as u32)) == df.group_of(NodeId(d as u32)) {
                    assert_eq!(direct, optimal, "intra-group must be optimal");
                }
            }
        }
    }

    #[test]
    fn single_stage_fattree_is_bfs_optimal() {
        let ft = FatTree::new(12, 1);
        let bfs = BfsRouter::new(&ft);
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(
                    ft.hops(NodeId(s), NodeId(d)),
                    bfs.hops(NodeId(s), NodeId(d))
                );
            }
        }
    }
}
