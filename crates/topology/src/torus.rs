//! Grid topologies: the paper's 3D torus, the N-dimensional torus and the
//! 3D mesh, all one dimension-ordered [`Torus`].
//!
//! The torus is a *direct* topology (§2.2.2): the switch is integrated into
//! the NIC, so there are no terminal links and a hop is a traversal of one
//! link between neighboring nodes. Wrap-around links turn each dimension's
//! chain into a ring, "which reduces the diameter"; the mesh drops them and
//! is the baseline that quantifies exactly that benefit. Production
//! machines have shipped 5D (Blue Gene/Q) and 6D (Tofu) tori, and the
//! paper's dimensionality analysis (Table 4) raises the question how
//! locality behaves when the *network* dimension grows too, so the same
//! type takes any number of dimensions.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::Topology;

const NO_LINK: u32 = u32::MAX;

/// A grid of nodes, wrapped into rings in every dimension (a torus) or not
/// (a mesh).
///
/// Node `i` sits at coordinates `c` with `i = c₀ + d₀·(c₁ + d₁·(c₂ + …))`
/// (dimension 0 fastest). Each node owns one link to its +1 neighbor per
/// dimension, numbered node-major, then dimension-minor. A torus skips
/// dimensions of size 1 and keeps both parallel links in rings of 2, so
/// every node has one link per dimension ("the torus has three links per
/// node, which equals one per dimension", §4.2.3). A mesh skips the upper
/// boundary.
///
/// Routing is dimension-order (dimension 0 first). A torus takes the
/// shorter ring direction, ties going positive; a mesh goes straight. Both
/// are shortest-path, as the paper's non-temporal model requires.
#[derive(Debug, Clone)]
pub struct Torus {
    name: &'static str,
    wrap: bool,
    dims: Vec<usize>,
    links: Vec<Link>,
    /// `plus_link[node * dims.len() + d]`: id of the link from `node` to
    /// its +1 neighbor in dimension `d`, or `NO_LINK` where there is none.
    plus_link: Vec<u32>,
}

impl Torus {
    /// The paper's 3D torus `x × y × z`, named `"torus3d"`. Dimensions of
    /// size 1 are allowed; they contribute no links.
    ///
    /// # Panics
    /// Panics if any dimension is 0 or the node count overflows `u32`.
    pub fn new(dims: [usize; 3]) -> Self {
        Self::grid("torus3d", true, &dims)
    }

    /// A torus of any dimension count, named `"torus-nd"`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or longer than 256, any dimension is 0,
    /// or the node count overflows `u32`.
    pub fn nd(dims: &[usize]) -> Self {
        Self::grid("torus-nd", true, dims)
    }

    /// The 3D mesh `x × y × z`: the torus without wrap-around links, named
    /// `"mesh3d"`.
    ///
    /// # Panics
    /// Panics if any dimension is 0 or the node count overflows `u32`.
    pub fn mesh(dims: [usize; 3]) -> Self {
        Self::grid("mesh3d", false, &dims)
    }

    fn grid(name: &'static str, wrap: bool, dims: &[usize]) -> Self {
        assert!(!dims.is_empty() && dims.len() <= 256, "1..=256 dimensions");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be > 0");
        let n = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let n = n
            .filter(|&n| u32::try_from(n).is_ok())
            .expect("grid too large");
        let nd = dims.len();
        let mut links = Vec::new();
        let mut plus_link = vec![NO_LINK; n * nd];
        for node in 0..n {
            let mut stride = 1;
            for (d, &size) in dims.iter().enumerate() {
                let c = node / stride % size;
                let next = if c + 1 < size {
                    Some(node + stride)
                } else {
                    (wrap && size > 1).then(|| node - c * stride)
                };
                if let Some(next) = next {
                    plus_link[node * nd + d] = links.len() as u32;
                    let class = LinkClass::TorusDim(d as u8);
                    links.push(Link::new(node as u32, next as u32, class));
                }
                stride *= size;
            }
        }
        Torus {
            name,
            wrap,
            dims: dims.to_vec(),
            links,
            plus_link,
        }
    }

    /// Direction (`true` for +1) and length of the walk from coordinate `a`
    /// to `b` in a dimension of `size`.
    #[inline]
    fn walk(&self, size: usize, a: usize, b: usize) -> (bool, usize) {
        if !self.wrap {
            return (b > a, a.abs_diff(b));
        }
        let fwd = if b >= a { b - a } else { b + size - a };
        if fwd <= size - fwd {
            (true, fwd)
        } else {
            (false, size - fwd)
        }
    }
}

impl Topology for Torus {
    fn name(&self) -> &'static str {
        self.name
    }

    fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (mut s, mut t) = (src.idx(), dst.idx());
        let mut hops = 0;
        for &size in &self.dims {
            hops += self.walk(size, s % size, t % size).1;
            (s, t) = (s / size, t / size);
        }
        hops as u32
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let (mut s, mut t) = (src.idx(), dst.idx());
        // `at` indexes `plus_link` at the current node and dimension. One
        // step along the dimension moves it by `step`; `base` is its value
        // at coordinate 0, so coordinate `k` owns `base + k * step`.
        let mut at = s * self.dims.len();
        let mut step = self.dims.len();
        for &size in &self.dims {
            let (c, b) = (s % size, t % size);
            (s, t) = (s / size, t / size);
            let base = at - c * step;
            let owner = |k: usize| LinkId(self.plus_link[base + k * step]);
            let (up, len) = self.walk(size, c, b);
            if up {
                // Owners c, c + 1, …, wrapping from size − 1 to 0.
                let first = len.min(size - c);
                out.extend((c..c + first).map(owner));
                out.extend((0..len - first).map(owner));
            } else {
                // A −1 step uses the link owned by the neighbor: owners
                // c − 1, c − 2, …, wrapping from 0 to size − 1.
                let first = len.min(c);
                out.extend((c - first..c).rev().map(owner));
                out.extend((size + first - len..size).rev().map(owner));
            }
            at = base + b * step + 1;
            step *= size;
        }
        debug_assert_eq!(at, (dst.idx() + 1) * self.dims.len());
    }

    fn diameter(&self) -> u32 {
        let radius = |&d: &usize| if self.wrap { d / 2 } else { d - 1 } as u32;
        self.dims.iter().map(radius).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsRouter;

    /// Node id at coordinates `c` of a grid with dimensions `dims`.
    fn at(dims: &[usize], c: &[usize]) -> NodeId {
        let idx = dims.iter().zip(c).rev().fold(0, |i, (&d, &c)| i * d + c);
        NodeId(idx as u32)
    }

    #[test]
    fn node_and_link_counts() {
        let t = Torus::new([4, 4, 4]);
        assert_eq!(t.num_nodes(), 64);
        // 3 links per node in a torus with all dims >= 2.
        assert_eq!(t.links().len(), 3 * 64);
    }

    #[test]
    fn degenerate_dims_have_fewer_links() {
        let t = Torus::new([4, 1, 1]);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.links().len(), 4); // one ring
    }

    #[test]
    fn neighbor_hop_is_one() {
        let t = Torus::new([4, 4, 4]);
        let dims = [4, 4, 4];
        assert_eq!(t.hops(at(&dims, &[0, 0, 0]), at(&dims, &[1, 0, 0])), 1);
        assert_eq!(t.hops(at(&dims, &[0, 0, 0]), at(&dims, &[0, 0, 1])), 1);
    }

    #[test]
    fn wraparound_reduces_distance() {
        let t = Torus::new([5, 5, 5]);
        // coordinate distance 4 becomes ring distance 1.
        let dims = [5, 5, 5];
        assert_eq!(t.hops(at(&dims, &[0, 0, 0]), at(&dims, &[4, 0, 0])), 1);
    }

    #[test]
    fn hops_matches_route_length() {
        let t = Torus::new([3, 4, 2]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(t.hops(s, d), t.route(s, d).len() as u32, "{s}->{d}");
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        // Walk the route, checking each link connects the current vertex.
        let t = Torus::new([4, 3, 3]);
        for (s, d) in [(0usize, 35usize), (7, 12), (35, 0), (1, 1)] {
            let route = t.route(NodeId(s as u32), NodeId(d as u32));
            let mut cur = s as u32;
            for lid in route {
                let link = t.links()[lid.idx()];
                cur = link.other(cur).expect("link must touch current vertex");
            }
            assert_eq!(cur, d as u32);
        }
    }

    #[test]
    fn routes_have_no_repeated_links() {
        let t = Torus::new([4, 3, 3]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let route = t.route(NodeId(s as u32), NodeId(d as u32));
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        // Dimension-ordered routing walks each ring the short way, so the
        // reverse route has the same hop count (though not the same links
        // on even-sized rings, where ties break toward the positive side).
        let t = Torus::new([4, 3, 2]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(
                    t.route(sn, dn).len(),
                    t.route(dn, sn).len(),
                    "{s}<->{d} asymmetric"
                );
            }
        }
    }

    #[test]
    fn diameter_is_sum_of_half_dims() {
        assert_eq!(Torus::new([4, 4, 4]).diameter(), 6);
        assert_eq!(Torus::new([3, 3, 3]).diameter(), 3);
        assert_eq!(Torus::new([16, 8, 8]).diameter(), 16);
    }

    #[test]
    fn size_two_ring_keeps_parallel_links() {
        let t = Torus::new([2, 2, 2]);
        // 3 links per node even with rings of 2 (parallel links kept).
        assert_eq!(t.links().len(), 3 * 8);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 3);
    }

    #[test]
    #[should_panic(expected = "dimensions must be > 0")]
    fn zero_dimension_panics() {
        Torus::nd(&[4, 0]);
    }

    #[test]
    fn six_dim_hypercube() {
        // [2; 6] is the 6-dimensional binary hypercube with doubled links.
        let t = Torus::nd(&[2; 6]);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.diameter(), 6);
        // antipodal nodes differ in every coordinate
        assert_eq!(t.hops(NodeId(0), NodeId(63)), 6);
    }

    #[test]
    fn routing_is_bfs_optimal_in_4d() {
        let t = Torus::nd(&[3, 3, 2, 2]);
        let bfs = BfsRouter::new(&t);
        for s in 0..t.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..t.num_nodes() {
                assert_eq!(t.hops(NodeId(s as u32), NodeId(d as u32)), dist[d]);
            }
        }
    }

    #[test]
    fn routes_are_contiguous_in_5d() {
        let t = Torus::nd(&[3, 2, 2, 2, 2]);
        for (s, d) in [(0u32, 47u32), (13, 31), (47, 0), (7, 7)] {
            let route = t.route(NodeId(s), NodeId(d));
            assert_eq!(route.len() as u32, t.hops(NodeId(s), NodeId(d)));
            let mut cur = s;
            for lid in route {
                cur = t.links()[lid.idx()].other(cur).expect("contiguous");
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn higher_dimensions_shrink_the_diameter() {
        // 64 nodes: 1D ring vs 2D vs 3D vs 6D.
        let d1 = Torus::nd(&[64]).diameter();
        let d2 = Torus::nd(&[8, 8]).diameter();
        let d3 = Torus::nd(&[4, 4, 4]).diameter();
        let d6 = Torus::nd(&[2; 6]).diameter();
        assert!(d1 > d2 && d2 > d3 && d3 == d6);
        assert_eq!((d1, d2, d3), (32, 8, 6));
    }

    #[test]
    fn one_dimensional_ring() {
        let t = Torus::nd(&[10]);
        assert_eq!(t.links().len(), 10);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 3);
    }

    #[test]
    fn link_count_is_boundaryless() {
        // 4x4x4 mesh: 3 * 4*4*3 = 144 links (vs 192 on the torus).
        let m = Torus::mesh([4, 4, 4]);
        assert_eq!(m.links().len(), 144);
    }

    #[test]
    fn manhattan_distance_routing() {
        let m = Torus::mesh([5, 5, 5]);
        let dims = [5, 5, 5];
        assert_eq!(m.hops(at(&dims, &[0, 0, 0]), at(&dims, &[4, 0, 0])), 4);
        assert_eq!(m.hops(at(&dims, &[0, 0, 0]), at(&dims, &[4, 4, 4])), 12);
        assert_eq!(m.diameter(), 12);
    }

    #[test]
    fn mesh_routing_is_bfs_optimal() {
        let m = Torus::mesh([3, 4, 2]);
        let bfs = BfsRouter::new(&m);
        for s in 0..m.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..m.num_nodes() {
                assert_eq!(m.hops(NodeId(s as u32), NodeId(d as u32)), dist[d]);
            }
        }
    }

    #[test]
    fn mesh_routes_are_contiguous() {
        let m = Torus::mesh([4, 3, 3]);
        for (s, d) in [(0u32, 35u32), (35, 0), (7, 20), (5, 5)] {
            let route = m.route(NodeId(s), NodeId(d));
            assert_eq!(route.len() as u32, m.hops(NodeId(s), NodeId(d)));
            let mut cur = s;
            for lid in route {
                cur = m.links()[lid.idx()].other(cur).expect("contiguous");
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn torus_wrap_beats_mesh_at_the_boundary() {
        let mesh = Torus::mesh([8, 8, 8]);
        let torus = Torus::new([8, 8, 8]);
        let dims = [8, 8, 8];
        let (a, b) = (at(&dims, &[0, 0, 0]), at(&dims, &[7, 7, 7]));
        assert_eq!(mesh.hops(a, b), 21);
        assert_eq!(torus.hops(a, b), 3);
        assert!(torus.diameter() < mesh.diameter());
    }
}
