//! # netloc-topology
//!
//! Non-temporal interconnect topology models with shortest-path routing —
//! the hardware-side substrate of the ICPP 2020 network-locality
//! reproduction.
//!
//! Three topologies are implemented, matching the paper's selection (§2.2.2
//! and Table 2):
//!
//! * [`Torus`] — a direct topology; the switch sits inside the NIC, so a
//!   hop is a link between neighboring nodes and routing is dimension-order
//!   over the shorter ring direction. The same type builds the
//!   N-dimensional torus ([`Torus::nd`]) and the 3D mesh without wrap
//!   links ([`Torus::mesh`]).
//! * [`FatTree`] — a k-ary n-tree built from radix-48 switches (half the
//!   ports up, half down), with the top stage halved as the paper describes;
//!   routing ascends to the nearest common ancestor and descends.
//! * [`Dragonfly`] — groups of `a` routers with `p` nodes and `h` global
//!   links each, `a = 2h = 2p`, globally wired in a palm-tree pattern;
//!   minimal routing uses at most one global link (≤ 5 hops).
//!
//! Beyond the paper's selection, the crate carries the extreme-scale
//! low-diameter zoo the literature benchmarks (EvalNet; Besta & Hoefler):
//!
//! * [`SlimFly`] — MMS router graphs of diameter 2 near the Moore bound.
//! * [`HyperX`] — flattened-butterfly lattices, one hop per dimension.
//! * [`Jellyfish`] — seeded random regular graphs with BFS-tree routing.
//!
//! All expose the same [`Topology`] trait: full link enumeration (for
//! utilization and per-link load accounting) and per-pair routes as explicit
//! link sequences. A generic BFS router ([`bfs::BfsRouter`]) over the same
//! link graph serves as a test oracle for the analytic routing of each
//! topology. Topologies whose routes factor through a router-pair core
//! advertise it via [`Topology::symmetry_hint`], which lets
//! [`routetable::CompressedRouteTable`] store each core once instead of a
//! per-node-pair flat CSR.
//!
//! ```
//! use netloc_topology::{Topology, Torus};
//!
//! let torus = Torus::new([4, 4, 4]);
//! assert_eq!(torus.num_nodes(), 64);
//! // opposite corner of the 4x4x4 torus: one wrap hop per dimension
//! assert_eq!(torus.hops(0.into(), 63.into()), 3);
//! // the mesh has no wrap links: three hops per dimension
//! assert_eq!(Torus::mesh([4, 4, 4]).hops(0.into(), 63.into()), 9);
//! ```

#![warn(missing_docs)]
// Node/rank ids are dense indices by construction throughout this crate;
// `for id in 0..n` with indexed access is the clearest way to write the
// id-driven loops, so the pedantic range-loop lint is disabled.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod bisect;
pub mod config;
pub mod dragonfly;
pub mod fattree;
pub mod grid;
pub mod hyperx;
pub mod jellyfish;
pub mod link;
pub mod mapping;
pub mod optimize;
pub mod routergraph;
pub mod routetable;
pub mod slimfly;
pub mod spec;
pub mod tapered;
pub mod torus;
pub mod valiant;

pub use config::{ConfigCatalog, TopologyConfig};
pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use hyperx::HyperX;
pub use jellyfish::Jellyfish;
pub use link::{Link, LinkClass, LinkId, NodeId};
pub use mapping::Mapping;
pub use routergraph::RouterGraph;
pub use routetable::{CompressedRouteTable, RouteTable, RoutedTopology};
pub use slimfly::SlimFly;
pub use spec::{MappingSpec, SpecError, TopologySpec};
pub use tapered::TaperedFatTree;
pub use torus::Torus;
pub use valiant::ValiantDragonfly;

/// Structural symmetry a topology can advertise so route storage can
/// exploit it (see [`Topology::symmetry_hint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymmetryHint {
    /// Routes factor as `terminal(src) ++ core(router(src), router(dst))
    /// ++ terminal(dst)`: node `i` sits on router `i / nodes_per_router`,
    /// terminal link ids equal node ids, and the router-to-router core of
    /// a route depends only on the router pair — every node pair sharing a
    /// router pair rides the same core. This is exactly the shape
    /// [`routetable::CompressedRouteTable`] compresses.
    RouterSymmetric {
        /// Nodes attached to each router (`num_nodes` must divide evenly).
        nodes_per_router: usize,
    },
}

/// A network topology: a set of compute nodes joined by links through
/// (implicit) switches, with deterministic shortest-path routing.
///
/// Routes are *link sequences*; the hop count of a packet is the length of
/// its route (every link traversal is one hop, exactly as the paper counts
/// them in §2.2.1).
pub trait Topology: Sync {
    /// Human-readable topology name (`"torus3d"`, `"torus-nd"`, `"mesh3d"`,
    /// `"fattree"`, `"dragonfly"`, …).
    fn name(&self) -> &'static str;

    /// Number of compute nodes (network endpoints).
    fn num_nodes(&self) -> usize;

    /// All links of the topology.
    fn links(&self) -> &[Link];

    /// Append the deterministic shortest route from `src` to `dst` to `out`
    /// as a link sequence. Routing a node to itself appends nothing.
    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>);

    /// Number of hops of the deterministic shortest route.
    ///
    /// The default materializes the route; implementations override this
    /// with closed-form hop arithmetic.
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let mut buf = Vec::new();
        self.route_into(src, dst, &mut buf);
        buf.len() as u32
    }

    /// Convenience wrapper around [`Topology::route_into`].
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// Structural symmetry of this topology's routes, if any. The default
    /// reports none; router-symmetric families (dragonfly, Slim Fly,
    /// HyperX, Jellyfish) override it so the [`routetable::StoragePlan`]
    /// can pick compressed route storage. Topologies whose core depends on
    /// more than the router pair (the fat tree's up-path follows
    /// destination digits; the torus has no terminal links at all) must
    /// stay `None`.
    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        None
    }

    /// The topology's diameter in hops (maximum over node pairs).
    fn diameter(&self) -> u32 {
        let n = self.num_nodes();
        let mut max = 0;
        for s in 0..n {
            for d in 0..n {
                max = max.max(self.hops(NodeId(s as u32), NodeId(d as u32)));
            }
        }
        max
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn route_default_matches_route_into() {
        let t = Torus::new([3, 3, 3]);
        let mut buf = Vec::new();
        t.route_into(NodeId(1), NodeId(20), &mut buf);
        assert_eq!(t.route(NodeId(1), NodeId(20)), buf);
    }

    #[test]
    fn self_route_is_empty_and_zero_hops() {
        let t = Torus::new([2, 2, 2]);
        assert!(t.route(NodeId(3), NodeId(3)).is_empty());
        assert_eq!(t.hops(NodeId(3), NodeId(3)), 0);
    }
}
