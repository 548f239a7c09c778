//! Slim Fly topology over MMS (McKay–Miller–Širáň) router graphs.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::routergraph::RouterGraph;
use crate::{SymmetryHint, Topology};

/// A Slim Fly network (Besta & Hoefler, SC 2014): routers form an MMS
/// graph of diameter 2 that approaches the Moore bound, so any two routers
/// are joined by at most one intermediate router and every node pair is at
/// most 4 hops apart (`terminal + router + router + terminal`).
///
/// The MMS construction used here is the `δ = 1` family: for a prime
/// `q ≡ 1 (mod 4)` there are `2q²` routers of network radix `(3q−1)/2`,
/// split into two blocks indexed `(block, x, y) ∈ {0,1} × F_q × F_q`.
/// With `ξ` a primitive root of `F_q`, `X` the even powers of `ξ` and `X′`
/// the odd powers (both negation-closed exactly because `q ≡ 1 (mod 4)`):
///
/// - block 0: `(0, x, y) ~ (0, x, y′)` iff `y − y′ ∈ X` (intra links),
/// - block 1: `(1, m, c) ~ (1, m, c′)` iff `c − c′ ∈ X′` (intra links),
/// - across:  `(0, x, y) ~ (1, m, c)` iff `y = m·x + c` (cross links).
///
/// Each router attaches `p` nodes; node `i` sits on router `i / p`.
/// Minimal routing takes the direct router link when one exists, else the
/// lowest-indexed common neighbor — canonical, so routes are deterministic
/// and symmetric in length.
#[derive(Debug, Clone)]
pub struct SlimFly {
    q: usize,
    p: usize,
    num_nodes: usize,
    links: Vec<Link>,
    graph: RouterGraph,
}

/// Largest `q` accepted by [`SlimFly::new`]; keeps `2q²` routers (and the
/// O(q³) cross-link census) within the spec-size envelope.
const MAX_Q: usize = 1 << 10;

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Smallest primitive root of `F_q` (`q` prime), found by exhaustive check.
fn primitive_root(q: usize) -> usize {
    'candidate: for g in 2..q {
        let mut v = 1usize;
        // g generates F_q* iff its order is exactly q-1.
        for _ in 0..q - 2 {
            v = v * g % q;
            if v == 1 {
                continue 'candidate;
            }
        }
        return g;
    }
    unreachable!("every prime field has a primitive root");
}

impl SlimFly {
    /// Validate `(q, p)` without building: `q` must be a prime
    /// `≡ 1 (mod 4)` (the `δ = 1` MMS family) no larger than `MAX_Q`, and
    /// `p ≥ 1`.
    pub fn check_params(q: usize, p: usize) -> Result<(), String> {
        if !is_prime(q) || q % 4 != 1 {
            return Err(format!(
                "slimfly q must be a prime congruent to 1 mod 4, got {q}"
            ));
        }
        if q > MAX_Q {
            return Err(format!("slimfly q too large: {q} > {MAX_Q}"));
        }
        if p == 0 {
            return Err("slimfly needs p >= 1 nodes per router".into());
        }
        Ok(())
    }

    /// Build a Slim Fly from `(q, p)`: `2q²` routers, `p` nodes each.
    ///
    /// # Panics
    /// Panics if [`SlimFly::check_params`] rejects the parameters.
    pub fn new(q: usize, p: usize) -> Self {
        if let Err(e) = Self::check_params(q, p) {
            panic!("{e}");
        }
        let routers = 2 * q * q;
        let num_nodes = routers * p;

        // Membership masks for the generator sets X (even powers of ξ) and
        // X′ (odd powers). q ≡ 1 (mod 4) makes -1 an even power, so both
        // sets are closed under negation and the adjacencies are symmetric.
        let xi = primitive_root(q);
        let mut in_x = vec![false; q];
        let mut in_xp = vec![false; q];
        let mut v = 1usize;
        for e in 0..q - 1 {
            if e % 2 == 0 {
                in_x[v] = true;
            } else {
                in_xp[v] = true;
            }
            v = v * xi % q;
        }

        let router_index = |b: usize, x: usize, y: usize| (b * q * q + x * q + y) as u32;

        let mut links = Vec::new();
        for i in 0..num_nodes {
            links.push(Link::new(
                i as u32,
                (num_nodes + i / p) as u32,
                LinkClass::Terminal,
            ));
        }
        let mut edges: Vec<(u32, u32, LinkId)> = Vec::new();
        let mut push_edge = |links: &mut Vec<Link>, ra: u32, rb: u32, class: LinkClass| {
            let id = LinkId(links.len() as u32);
            links.push(Link::new(
                num_nodes as u32 + ra,
                num_nodes as u32 + rb,
                class,
            ));
            edges.push((ra, rb, id));
        };
        // Intra-block links within each line of constant (block, x).
        for b in 0..2 {
            let in_set = if b == 0 { &in_x } else { &in_xp };
            for x in 0..q {
                for y1 in 0..q {
                    for y2 in y1 + 1..q {
                        if in_set[(y2 - y1) % q] {
                            push_edge(
                                &mut links,
                                router_index(b, x, y1),
                                router_index(b, x, y2),
                                LinkClass::SlimFlyLocal,
                            );
                        }
                    }
                }
            }
        }
        // Cross links: (0, x, m·x + c) ~ (1, m, c).
        for x in 0..q {
            for m in 0..q {
                for c in 0..q {
                    let y = (m * x + c) % q;
                    push_edge(
                        &mut links,
                        router_index(0, x, y),
                        router_index(1, m, c),
                        LinkClass::SlimFlyGlobal,
                    );
                }
            }
        }

        let graph = RouterGraph::new(routers, &edges);
        SlimFly {
            q,
            p,
            num_nodes,
            links,
            graph,
        }
    }

    /// The prime `q` defining the MMS graph.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Nodes per router.
    pub fn nodes_per_router(&self) -> usize {
        self.p
    }

    /// Number of routers (`2q²`).
    pub fn num_routers(&self) -> usize {
        self.graph.num_routers()
    }

    /// Router-level adjacency, for oracles and diagnostics.
    pub fn router_graph(&self) -> &RouterGraph {
        &self.graph
    }

    #[inline]
    fn router_of(&self, n: NodeId) -> usize {
        n.idx() / self.p
    }

    /// Push the router-to-router core of the `rs → rd` route (`rs != rd`).
    fn core_into(&self, rs: usize, rd: usize, out: &mut Vec<LinkId>) {
        if let Some(l) = self.graph.link_between(rs, rd) {
            out.push(l);
        } else {
            let (_, l1, l2) = self
                .graph
                .common_neighbor(rs, rd)
                .expect("MMS router graph has diameter 2");
            out.push(l1);
            out.push(l2);
        }
    }
}

impl Topology for SlimFly {
    fn name(&self) -> &'static str {
        "slimfly"
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
        let (rs, rd) = (self.router_of(src), self.router_of(dst));
        if rs == rd {
            2
        } else if self.graph.link_between(rs, rd).is_some() {
            3
        } else {
            4
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        // Terminal link ids coincide with node ids by construction.
        out.push(LinkId(src.0));
        let (rs, rd) = (self.router_of(src), self.router_of(dst));
        if rs != rd {
            self.core_into(rs, rd, out);
        }
        out.push(LinkId(dst.0));
    }

    fn diameter(&self) -> u32 {
        // The MMS graph is not complete for q >= 5, so some router pair
        // needs an intermediate: terminal + 2 router hops + terminal.
        4
    }

    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: self.p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(SlimFly::check_params(5, 2).is_ok());
        assert!(SlimFly::check_params(13, 1).is_ok());
        // 7 and 11 are prime but ≡ 3 (mod 4); 9 is composite.
        assert!(SlimFly::check_params(7, 2).is_err());
        assert!(SlimFly::check_params(11, 2).is_err());
        assert!(SlimFly::check_params(9, 2).is_err());
        assert!(SlimFly::check_params(5, 0).is_err());
    }

    #[test]
    fn census_matches_mms_closed_forms() {
        let sf = SlimFly::new(5, 2);
        let q = 5;
        assert_eq!(sf.num_routers(), 2 * q * q);
        assert_eq!(sf.num_nodes(), 2 * q * q * 2);
        // Network radix (3q − 1)/2 at every router.
        for r in 0..sf.num_routers() {
            assert_eq!(sf.router_graph().degree(r), (3 * q - 1) / 2);
        }
        let intra = sf
            .links()
            .iter()
            .filter(|l| l.class == LinkClass::SlimFlyLocal)
            .count();
        let cross = sf
            .links()
            .iter()
            .filter(|l| l.class == LinkClass::SlimFlyGlobal)
            .count();
        // 2q lines of q(q-1)/4 intra edges each; q³ cross edges.
        assert_eq!(intra, 2 * q * (q * (q - 1) / 4));
        assert_eq!(cross, q * q * q);
        assert_eq!(sf.links().len(), sf.num_nodes() + intra + cross);
    }

    #[test]
    fn router_graph_has_diameter_two() {
        for q in [5usize, 13] {
            let sf = SlimFly::new(q, 1);
            let g = sf.router_graph();
            assert!(g.is_connected());
            for src in 0..g.num_routers() {
                let parents = g.bfs_parents(src);
                for dst in 0..g.num_routers() {
                    let mut d = 0;
                    let mut cur = dst as u32;
                    while cur != src as u32 {
                        cur = parents[cur as usize].0;
                        d += 1;
                        assert!(d <= 2, "q={q}: dist({src},{dst}) > 2");
                    }
                }
            }
        }
    }

    #[test]
    fn hops_matches_route_length_and_is_optimal() {
        let sf = SlimFly::new(5, 2);
        let g = sf.router_graph();
        for s in 0..sf.num_nodes() {
            let rs = s / 2;
            let parents = g.bfs_parents(rs);
            for d in 0..sf.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                let h = sf.hops(sn, dn);
                assert_eq!(h, sf.route(sn, dn).len() as u32, "{s}->{d}");
                // Closed-form hops must equal 2 + BFS router distance.
                if s != d {
                    let rd = d / 2;
                    let mut dist = 0;
                    let mut cur = rd as u32;
                    while cur != rs as u32 {
                        cur = parents[cur as usize].0;
                        dist += 1;
                    }
                    assert_eq!(h, 2 + dist, "{s}->{d} not BFS-minimal");
                }
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        let sf = SlimFly::new(5, 2);
        for (s, d) in [(0u32, 99u32), (17, 30), (40, 41), (9, 0), (2, 2), (55, 56)] {
            let route = sf.route(NodeId(s), NodeId(d));
            let mut cur = s;
            for lid in route {
                let link = sf.links()[lid.idx()];
                cur = link
                    .other(cur)
                    .unwrap_or_else(|| panic!("broken path {s}->{d} at {lid:?}"));
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn routes_are_symmetric_in_length_with_no_repeats() {
        let sf = SlimFly::new(5, 1);
        for s in 0..sf.num_nodes() {
            for d in 0..sf.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                let route = sf.route(sn, dn);
                assert_eq!(route.len(), sf.route(dn, sn).len(), "{s}<->{d}");
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn reports_router_symmetry() {
        let sf = SlimFly::new(5, 3);
        assert_eq!(
            sf.symmetry_hint(),
            Some(SymmetryHint::RouterSymmetric {
                nodes_per_router: 3
            })
        );
    }
}
