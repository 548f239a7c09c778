//! Two-level tapered (oversubscribed) fat tree.
//!
//! The paper closes with the observation that "exploiting locality in
//! combination with a network of reduced bandwidth could be a suitable
//! approach to reduce energy consumption and provide a higher utilization
//! without affecting performance" (§8). The standard way to reduce a fat
//! tree's bandwidth is *tapering*: leaf switches attach more nodes than
//! they have up-links (e.g. 2:1 or 4:1 oversubscription), cutting spine
//! switches and optical cables. This topology makes the trade-off
//! measurable: same reachability and hop structure as a 2-level fat tree,
//! fewer links — so static utilization rises and the temporal simulator
//! shows where queueing actually starts to bite.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::Topology;

/// A two-level fat tree with `taper : 1` oversubscription at the leaves.
///
/// Built from radix-`r` switches: each leaf attaches `d` nodes and has
/// `u = r − d` up-links, with `d = u · taper`. Spine switches use all `r`
/// ports downward. `taper = 1` is the full-bisection two-level tree.
#[derive(Debug, Clone)]
pub struct TaperedFatTree {
    radix: usize,
    taper: usize,
    leaves: usize,
    down_per_leaf: usize,
    up_per_leaf: usize,
    spines: usize,
    links: Vec<Link>,
}

impl TaperedFatTree {
    /// Build a tapered tree with enough leaves for `min_nodes` nodes.
    ///
    /// # Panics
    /// Panics if `radix` is not divisible by `taper + 1`, or parameters are
    /// degenerate, or `min_nodes` exceeds `radix × down`: past that the
    /// tree has more leaves than the radix, hence more spines than a leaf
    /// has up-ports, and two leaves may share no spine to route through.
    pub fn new(radix: usize, taper: usize, min_nodes: usize) -> Self {
        assert!(taper >= 1, "taper must be at least 1:1");
        assert!(
            radix.is_multiple_of(taper + 1),
            "radix {radix} must split into {taper}:1 down:up ports"
        );
        let up = radix / (taper + 1);
        let down = radix - up;
        assert!(down > 0 && up > 0);
        let leaves = min_nodes.div_ceil(down).max(2);
        assert!(
            leaves <= radix,
            "{min_nodes} nodes exceed the {} a radix-{radix} {taper}:1 tapered tree can route",
            radix * down
        );
        // Spines: enough ports for every up-link; round the spine count up.
        // With `leaves <= radix` there are at most `up` spines, so every
        // leaf reaches every spine.
        let spines = (leaves * up).div_ceil(radix).max(1);
        let nodes = leaves * down;

        let node_vertex = |p: usize| p as u32;
        let leaf_vertex = |l: usize| (nodes + l) as u32;
        let spine_vertex = |s: usize| (nodes + leaves + s) as u32;

        let mut links = Vec::new();
        // Terminal links: node p on leaf p / down. Link id == p.
        for p in 0..nodes {
            links.push(Link::new(
                node_vertex(p),
                leaf_vertex(p / down),
                LinkClass::Terminal,
            ));
        }
        // Up-links: leaf l's up-port k goes to spine (l·up + k) % spines,
        // spreading every leaf across all spines. Link id = nodes + l·up + k.
        for l in 0..leaves {
            for k in 0..up {
                links.push(Link::new(
                    leaf_vertex(l),
                    spine_vertex((l * up + k) % spines),
                    LinkClass::FatTreeStage(0),
                ));
            }
        }

        TaperedFatTree {
            radix,
            taper,
            leaves,
            down_per_leaf: down,
            up_per_leaf: up,
            spines,
            links,
        }
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Oversubscription ratio (down-links : up-links per leaf).
    pub fn taper(&self) -> usize {
        self.taper
    }

    #[inline]
    fn leaf_of(&self, n: NodeId) -> usize {
        n.idx() / self.down_per_leaf
    }

    /// The deterministic up-link used for traffic from `src` toward `dst`:
    /// destination-hashed over the source leaf's up ports (spreads load
    /// without flow state).
    #[inline]
    fn up_port(&self, src: NodeId, dst: NodeId) -> usize {
        (src.idx() ^ dst.idx()) % self.up_per_leaf
    }

    #[inline]
    fn up_link(&self, leaf: usize, port: usize) -> LinkId {
        LinkId((self.leaves * self.down_per_leaf + leaf * self.up_per_leaf + port) as u32)
    }
}

impl Topology for TaperedFatTree {
    fn name(&self) -> &'static str {
        "fattree-tapered"
    }

    fn num_nodes(&self) -> usize {
        self.leaves * self.down_per_leaf
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            0
        } else if self.leaf_of(src) == self.leaf_of(dst) {
            2
        } else {
            4
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        out.push(LinkId(src.0)); // terminal up
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        if ls != ld {
            // Up to a spine both leaves can reach. The up-port is chosen on
            // the source side; the destination leaf's port to that same
            // spine brings the packet down.
            let port = self.up_port(src, dst);
            let spine = (ls * self.up_per_leaf + port) % self.spines;
            out.push(self.up_link(ls, port));
            // Find the destination leaf's port reaching `spine`.
            let down_port = (0..self.up_per_leaf)
                .find(|k| (ld * self.up_per_leaf + k) % self.spines == spine)
                .expect("every leaf reaches every spine");
            out.push(self.up_link(ld, down_port));
        }
        out.push(LinkId(dst.0)); // terminal down
    }

    fn diameter(&self) -> u32 {
        if self.leaves > 1 {
            4
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsRouter;

    #[test]
    fn full_bisection_matches_expectations() {
        // radix 48, taper 1: 24 down / 24 up per leaf.
        let t = TaperedFatTree::new(48, 1, 500);
        assert_eq!(t.down_per_leaf, 24);
        assert_eq!(t.up_per_leaf, 24);
        assert!(t.num_nodes() >= 500);
    }

    #[test]
    fn tapering_cuts_uplinks_and_spines() {
        let full = TaperedFatTree::new(48, 1, 576);
        let tapered = TaperedFatTree::new(48, 2, 576);
        // 2:1 taper: 32 down / 16 up — fewer leaves AND fewer up-links.
        assert_eq!(tapered.down_per_leaf, 32);
        assert_eq!(tapered.up_per_leaf, 16);
        let uplinks = |t: &TaperedFatTree| t.leaves * t.up_per_leaf;
        assert!(uplinks(&tapered) < uplinks(&full));
        assert!(tapered.spines < full.spines);
    }

    #[test]
    fn hop_structure_is_two_or_four() {
        let t = TaperedFatTree::new(12, 2, 40); // 8 down / 4 up per leaf
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let h = t.hops(NodeId(s as u32), NodeId(d as u32));
                if s == d {
                    assert_eq!(h, 0);
                } else if s / 8 == d / 8 {
                    assert_eq!(h, 2);
                } else {
                    assert_eq!(h, 4);
                }
            }
        }
    }

    #[test]
    fn routes_are_contiguous_and_match_hops() {
        // 9 down / 3 up, and the two largest trees of their radix.
        for t in [
            TaperedFatTree::new(12, 3, 50),
            TaperedFatTree::new(4, 1, 8),
            TaperedFatTree::new(6, 2, 24),
        ] {
            for s in 0..t.num_nodes() {
                for d in 0..t.num_nodes() {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let route = t.route(s, d);
                    assert_eq!(route.len() as u32, t.hops(s, d));
                    let mut cur = s.0;
                    for lid in &route {
                        cur = t.links()[lid.idx()]
                            .other(cur)
                            .unwrap_or_else(|| panic!("broken {s}->{d}"));
                    }
                    assert_eq!(cur, d.0);
                }
            }
        }
    }

    #[test]
    fn routing_is_bfs_optimal() {
        // 4 down / 4 up, and the two largest trees of their radix.
        for t in [
            TaperedFatTree::new(8, 1, 16),
            TaperedFatTree::new(4, 1, 8),
            TaperedFatTree::new(6, 2, 24),
        ] {
            let bfs = BfsRouter::new(&t);
            for s in 0..t.num_nodes() {
                let dist = bfs.distances_from(NodeId(s as u32));
                for d in 0..t.num_nodes() {
                    assert_eq!(t.hops(NodeId(s as u32), NodeId(d as u32)), dist[d]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "9 nodes exceed the 8")]
    fn more_leaves_than_the_radix_panic() {
        TaperedFatTree::new(4, 1, 9); // 5 leaves of 2 nodes on radix-4 switches
    }

    #[test]
    #[should_panic(expected = "must split")]
    fn indivisible_radix_panics() {
        TaperedFatTree::new(48, 4, 100); // 48 % 5 != 0
    }
}
