//! Dragonfly topology with palm-tree global wiring.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::{SymmetryHint, Topology};

/// A dragonfly network (Kim et al., ISCA 2008) as configured in the paper:
/// groups of `a` routers, each attaching `p` nodes and hosting `h` global
/// links, with the balanced recommendation `a = 2h = 2p` and `g = a·h + 1`
/// groups, so every pair of groups is joined by **exactly one** global link.
/// Groups are wired in the *palm tree* pattern: group `i`'s global port `k`
/// (router `k / h`) connects to group `(i + k + 1) mod g` (§2.2.2).
///
/// Routers within a group form a complete local graph. Minimal routing uses
/// the single direct global link between two groups, with at most one local
/// detour on each side, bounding every route to 5 hops:
/// `terminal + (local) + global + (local) + terminal`.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    a: usize,
    h: usize,
    p: usize,
    g: usize,
    num_nodes: usize,
    links: Vec<Link>,
    /// `global_port[group * (g-1) + k]` = link id of global port `k` of `group`.
    global_port: Vec<u32>,
    local_base: u32,
    global_base: u32,
}

impl Dragonfly {
    /// Build a dragonfly from `(a, h, p)`.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(a: usize, h: usize, p: usize) -> Self {
        assert!(a > 0 && h > 0 && p > 0, "dragonfly parameters must be > 0");
        let g = a * h + 1;
        let num_nodes = a * p * g;

        let router_vertex = |group: usize, r: usize| (num_nodes + group * a + r) as u32;

        let mut links = Vec::new();
        // Terminal links: node n belongs to group n/(a·p), router (n/p) % a.
        for n in 0..num_nodes {
            let group = n / (a * p);
            let r = (n / p) % a;
            links.push(Link::new(
                n as u32,
                router_vertex(group, r),
                LinkClass::Terminal,
            ));
        }
        let local_base = links.len() as u32;
        // Local links: complete graph inside each group.
        for group in 0..g {
            for r1 in 0..a {
                for r2 in r1 + 1..a {
                    links.push(Link::new(
                        router_vertex(group, r1),
                        router_vertex(group, r2),
                        LinkClass::DragonflyLocal,
                    ));
                }
            }
        }
        let global_base = links.len() as u32;
        // Global links: one per group pair, palm-tree port assignment.
        let mut global_port = vec![u32::MAX; g * (g - 1)];
        for i in 0..g {
            for j in i + 1..g {
                let ki = j - i - 1; // group i's port toward j
                let kj = g - 2 - ki; // group j's port toward i
                let id = links.len() as u32;
                links.push(Link::new(
                    router_vertex(i, ki / h),
                    router_vertex(j, kj / h),
                    LinkClass::DragonflyGlobal,
                ));
                global_port[i * (g - 1) + ki] = id;
                global_port[j * (g - 1) + kj] = id;
            }
        }

        Dragonfly {
            a,
            h,
            p,
            g,
            num_nodes,
            links,
            global_port,
            local_base,
            global_base,
        }
    }

    /// Nodes per router.
    pub fn nodes_per_router(&self) -> usize {
        self.p
    }

    /// Number of groups (`a·h + 1`).
    pub fn num_groups(&self) -> usize {
        self.g
    }

    /// Group of a node.
    #[inline]
    pub fn group_of(&self, n: NodeId) -> usize {
        n.idx() / (self.a * self.p)
    }

    /// Router (within its group) of a node.
    #[inline]
    pub fn router_of(&self, n: NodeId) -> usize {
        (n.idx() / self.p) % self.a
    }

    /// Id of the local link between two distinct routers of one group.
    #[inline]
    fn local_link(&self, group: usize, r1: usize, r2: usize) -> LinkId {
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        // Triangular indexing into the per-group complete graph.
        let tri = lo * (2 * self.a - lo - 1) / 2 + (hi - lo - 1);
        let per_group = self.a * (self.a - 1) / 2;
        LinkId(self.local_base + (group * per_group + tri) as u32)
    }

    /// Global port and gateway routers for the pair `(gi, gj)`, `gi != gj`.
    /// Returns `(link, gateway router in gi, gateway router in gj)`.
    fn global_route(&self, gi: usize, gj: usize) -> (LinkId, usize, usize) {
        let ki = (gj + self.g - gi - 1) % self.g; // 0..g-2
        let kj = self.g - 2 - ki;
        let id = self.global_port[gi * (self.g - 1) + ki];
        debug_assert_ne!(id, u32::MAX);
        (LinkId(id), ki / self.h, kj / self.h)
    }

    /// The single global link
    /// joining two distinct groups and the gateway routers hosting it on
    /// each side (used by alternative routing schemes such as
    /// [`crate::valiant::ValiantDragonfly`]).
    pub fn global_route_of(&self, gi: usize, gj: usize) -> (LinkId, usize, usize) {
        self.global_route(gi, gj)
    }

    /// Public view of the local link between two distinct routers of one
    /// group.
    pub fn local_link_of(&self, group: usize, r1: usize, r2: usize) -> LinkId {
        self.local_link(group, r1, r2)
    }

    /// Whether a link id is a global link.
    pub fn is_global_link(&self, l: LinkId) -> bool {
        l.0 >= self.global_base
    }
}

impl Topology for Dragonfly {
    fn name(&self) -> &'static str {
        "dragonfly"
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let (gs, gd) = (self.group_of(src), self.group_of(dst));
        let (rs, rd) = (self.router_of(src), self.router_of(dst));
        if gs == gd {
            if rs == rd {
                2
            } else {
                3
            }
        } else {
            let (_, gw_s, gw_d) = self.global_route(gs, gd);
            3 + u32::from(rs != gw_s) + u32::from(rd != gw_d)
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        // Terminal link ids coincide with node ids by construction.
        out.push(LinkId(src.0));
        let (gs, gd) = (self.group_of(src), self.group_of(dst));
        let (rs, rd) = (self.router_of(src), self.router_of(dst));
        if gs == gd {
            if rs != rd {
                out.push(self.local_link(gs, rs, rd));
            }
        } else {
            let (global, gw_s, gw_d) = self.global_route(gs, gd);
            if rs != gw_s {
                out.push(self.local_link(gs, rs, gw_s));
            }
            out.push(global);
            if rd != gw_d {
                out.push(self.local_link(gd, gw_d, rd));
            }
        }
        out.push(LinkId(dst.0));
    }

    fn diameter(&self) -> u32 {
        // terminal + local + global + local + terminal
        if self.g > 1 {
            5
        } else if self.a > 1 {
            3
        } else {
            2
        }
    }

    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        // The palm-tree global link and the local detours depend only on
        // the (group, router) pair, i.e. on `node / p` — router-symmetric.
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: self.p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_node_counts() {
        assert_eq!(Dragonfly::new(4, 2, 2).num_nodes(), 72);
        assert_eq!(Dragonfly::new(6, 3, 3).num_nodes(), 342);
        assert_eq!(Dragonfly::new(8, 4, 4).num_nodes(), 1056);
        assert_eq!(Dragonfly::new(10, 5, 5).num_nodes(), 2550);
    }

    #[test]
    fn link_census() {
        let df = Dragonfly::new(4, 2, 2);
        let g = df.num_groups();
        assert_eq!(g, 9);
        let terminal = df.num_nodes();
        let local = g * 4 * 3 / 2;
        let global = g * (g - 1) / 2;
        assert_eq!(df.links().len(), terminal + local + global);
        let globals = df
            .links()
            .iter()
            .filter(|l| l.class == LinkClass::DragonflyGlobal)
            .count();
        assert_eq!(globals, global);
    }

    #[test]
    fn hop_cases() {
        let df = Dragonfly::new(4, 2, 2);
        // p = 2: nodes 0,1 share a router.
        assert_eq!(df.hops(NodeId(0), NodeId(1)), 2);
        // nodes 0 and 2: same group, different routers.
        assert_eq!(df.hops(NodeId(0), NodeId(2)), 3);
        // different groups: 3..=5 hops.
        let h = df.hops(NodeId(0), NodeId(8));
        assert!((3..=5).contains(&h), "got {h}");
        assert_eq!(df.hops(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn max_five_hops_everywhere() {
        let df = Dragonfly::new(4, 2, 2);
        for s in 0..df.num_nodes() {
            for d in 0..df.num_nodes() {
                assert!(df.hops(NodeId(s as u32), NodeId(d as u32)) <= 5);
            }
        }
    }

    #[test]
    fn hops_matches_route_length() {
        let df = Dragonfly::new(4, 2, 2);
        for s in 0..df.num_nodes() {
            for d in 0..df.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(df.hops(s, d), df.route(s, d).len() as u32, "{s}->{d}");
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        let df = Dragonfly::new(6, 3, 3);
        for (s, d) in [(0u32, 341u32), (17, 230), (100, 101), (9, 0), (2, 2)] {
            let route = df.route(NodeId(s), NodeId(d));
            let mut cur = s;
            for lid in route {
                let link = df.links()[lid.idx()];
                cur = link
                    .other(cur)
                    .unwrap_or_else(|| panic!("broken path {s}->{d} at {lid:?}"));
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn palm_tree_pairs_every_group_once() {
        let df = Dragonfly::new(4, 2, 2);
        let g = df.num_groups();
        for i in 0..g {
            for j in 0..g {
                if i == j {
                    continue;
                }
                let (lij, _, _) = df.global_route(i, j);
                let (lji, _, _) = df.global_route(j, i);
                assert_eq!(lij, lji, "pair ({i},{j}) disagrees on its link");
            }
        }
    }

    #[test]
    fn global_ports_are_balanced_across_routers() {
        // Each router hosts exactly h global links.
        let df = Dragonfly::new(4, 2, 2);
        let mut per_router = std::collections::HashMap::new();
        for l in df.links() {
            if l.class == LinkClass::DragonflyGlobal {
                *per_router.entry(l.a).or_insert(0) += 1;
                *per_router.entry(l.b).or_insert(0) += 1;
            }
        }
        assert_eq!(per_router.len(), df.num_groups() * df.a);
        assert!(per_router.values().all(|&c| c == 2));
    }

    #[test]
    fn routes_have_no_repeated_links() {
        let df = Dragonfly::new(4, 2, 2);
        for s in 0..df.num_nodes() {
            for d in 0..df.num_nodes() {
                let route = df.route(NodeId(s as u32), NodeId(d as u32));
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        // Minimal routing is source/destination-symmetric: the same
        // global link serves both directions of a group pair, and the
        // local legs mirror, so hop counts match either way.
        let df = Dragonfly::new(4, 2, 2);
        for s in 0..df.num_nodes() {
            for d in 0..df.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(
                    df.route(sn, dn).len(),
                    df.route(dn, sn).len(),
                    "{s}<->{d} asymmetric"
                );
            }
        }
    }

    #[test]
    fn inter_group_routes_use_exactly_one_global_link() {
        let df = Dragonfly::new(4, 2, 2);
        for s in (0..df.num_nodes()).step_by(7) {
            for d in (0..df.num_nodes()).step_by(5) {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                let globals = df
                    .route(sn, dn)
                    .iter()
                    .filter(|l| df.is_global_link(**l))
                    .count();
                let expected = usize::from(df.group_of(sn) != df.group_of(dn));
                assert_eq!(globals, expected);
            }
        }
    }
}
