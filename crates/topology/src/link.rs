//! Nodes, links, and link classification.

use serde::Serialize;
use std::fmt;

/// A compute node (network endpoint). Ranks are mapped onto nodes by a
/// [`crate::Mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Numeric ID as `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a link within a topology's [`crate::Topology::links`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Numeric ID as `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Role of a link within its topology. Used for per-class accounting, e.g.
/// the paper's observation that ~95 % of dragonfly messages cross a global
/// link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LinkClass {
    /// Node ↔ first-stage switch (fat tree, dragonfly). The torus has no
    /// terminal links: its switch is integrated into the NIC (§2.2.2).
    Terminal,
    /// Grid link along dimension `d` (any dimension count; meshes too):
    /// a ring link of a torus or a chain link of a mesh.
    TorusDim(u8),
    /// Fat-tree link between stage `s` and stage `s + 1` switches
    /// (0-based; `FatTreeStage(0)` joins leaf and second-stage switches).
    FatTreeStage(u8),
    /// Dragonfly intra-group (electrical) router-to-router link.
    DragonflyLocal,
    /// Dragonfly inter-group (optical) link.
    DragonflyGlobal,
    /// Slim Fly intra-block MMS edge (within one Cayley-graph line).
    SlimFlyLocal,
    /// Slim Fly cross-block MMS edge (`y = m·x + c` bipartite wiring).
    SlimFlyGlobal,
    /// HyperX link along dimension 0, 1, … of the router lattice.
    HyperXDim(u8),
    /// Jellyfish random-regular-graph router-to-router link.
    Jellyfish,
}

impl LinkClass {
    /// Whether the link is a dragonfly global link.
    #[inline]
    pub fn is_global(self) -> bool {
        matches!(self, LinkClass::DragonflyGlobal)
    }
}

/// An undirected, full-duplex link between two vertices of the topology
/// graph. Vertices are opaque indices private to each topology; the pair is
/// kept for debugging, oracle routing, and link-level accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Link {
    /// First endpoint (topology-internal vertex index).
    pub a: u32,
    /// Second endpoint (topology-internal vertex index).
    pub b: u32,
    /// Role of the link.
    pub class: LinkClass,
}

impl Link {
    /// Construct a link.
    pub const fn new(a: u32, b: u32, class: LinkClass) -> Self {
        Link { a, b, class }
    }

    /// The vertex opposite to `v`, or `None` if `v` is not an endpoint.
    pub fn other(&self, v: u32) -> Option<u32> {
        if v == self.a {
            Some(self.b)
        } else if v == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_endpoint() {
        let l = Link::new(3, 9, LinkClass::Terminal);
        assert_eq!(l.other(3), Some(9));
        assert_eq!(l.other(9), Some(3));
        assert_eq!(l.other(4), None);
    }

    #[test]
    fn global_classification() {
        assert!(LinkClass::DragonflyGlobal.is_global());
        assert!(!LinkClass::DragonflyLocal.is_global());
        assert!(!LinkClass::TorusDim(1).is_global());
    }
}
