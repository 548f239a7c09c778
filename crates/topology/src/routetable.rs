//! Precomputed CSR route tables — the topology-side half of the two-level
//! replay engine.
//!
//! The paper's results grid is a large *static* sweep: every application
//! trace is replayed through 3 topologies × 3 mappings × several machine
//! sizes (§4.2, Tables 4–6). The routes of a fixed topology never change
//! between those replays, so recomputing them per replay (as
//! `route_into` callers in tight loops used to do) wastes the dominant
//! share of replay time. The tables here materialize routes once and
//! replays read them back as plain slices.
//!
//! ## One CSR core
//!
//! Every route store in this module is the same private compressed
//! sparse row (CSR) core, a flat run of entries where entry `i` is a link
//! sequence:
//!
//! ```text
//! offsets: [0, .., o(i), o(i + 1), ..]    (entries + 1 offsets, u32)
//! links:   [... entry(i) = links[o(i) .. o(i + 1)] ...]
//! ```
//!
//! The two stores differ only in what an entry holds:
//!
//! | store                    | entries            | entry                              |
//! |--------------------------|--------------------|------------------------------------|
//! | [`RouteTable`]           | `n²` node pairs    | `route(s, d)` at `s·n + d`         |
//! | [`CompressedRouteTable`] | `R²` router pairs  | `core(rs, rd)` at `rs·R + rd`      |
//!
//! One source-parallel builder makes both tables; one writer and one
//! validating reader are the codec of both. The parallel build uses rayon
//! (`par_chunks`) over sources and concatenates the chunks in source
//! order, so the table bytes are deterministic.
//!
//! ## Memory bound
//!
//! A dense table costs exactly `4·(n² + 1)` bytes of offsets plus
//! `4·Σ_{s,d} hops(s, d)` bytes of link ids — i.e. `4n²·(1 + hops̄′)`
//! where `hops̄′` is the mean route length over *all* ordered pairs. At
//! the paper's largest scales (Table 2):
//!
//! | topology            | nodes  | dense size |
//! |---------------------|--------|------------|
//! | torus 12×12×12      | 1 728  | ≈ 113 MiB  |
//! | dragonfly (8,4,4)   | 1 056  | ≈  21 MiB  |
//! | fat tree (48,3)     | 13 824 | ≈ 4.3 GiB  |
//!
//! Router-symmetric topologies (dragonfly, Slim Fly, HyperX, Jellyfish —
//! anything reporting [`SymmetryHint::RouterSymmetric`]) can instead use
//! a [`CompressedRouteTable`]: it stores one route *core* per router pair
//! instead of one route per node pair and expands the two terminal hops
//! on the fly, cutting memory by ~`p²` (nodes-per-router squared) while
//! replaying byte-identical routes. That is what makes 100k–1M endpoint
//! machines practical; see its type-level docs for the exact bound.
//! Machines past both limits get no table at all: their lookups route
//! directly, which is also what every one-shot replay wants, because it
//! reads each node pair at most once.
//!
//! ## One storage plan
//!
//! [`StoragePlan::of`] is the only place that chooses between these
//! stores, and [`StoragePlan::build_table`] is the only place that builds
//! a planned table, as a [`SharedRoutes`] that any number of handles
//! replay over. A table pays off only when something reuses it, such as
//! the analysis service's route cache, so one-shot paths route directly.
//! A [`RoutedTopology`] is made in one of four ways:
//!
//! * [`SharedRoutes::routed`] wraps a table built earlier, such as the one
//!   the route cache shares across requests;
//! * [`RoutedTopology::direct`] stores nothing and routes every lookup;
//! * [`RoutedTopology::with_plan`] builds the table a plan names, which
//!   is how the oracles and benches compare the two stores;
//! * [`RoutedTopology::auto`] builds the table [`StoragePlan::of`] plans,
//!   or routes directly when it plans none.

use crate::link::{LinkId, NodeId};
use crate::{SymmetryHint, Topology};
use rayon::prelude::*;
use std::sync::Arc;

/// Ordered **node**-pair count up to which [`StoragePlan::of`] picks a
/// dense table (4M pairs ≈ a 2 000-node machine ≈ 150–200 MiB with typical
/// mean route lengths; see the module docs for the exact bound).
pub const DENSE_PAIR_LIMIT: usize = 4_000_000;

/// Ordered **router**-pair count up to which [`StoragePlan::of`] fully
/// precomputes a [`CompressedRouteTable`] for router-symmetric topologies.
/// 64M router pairs ≈ 8 000 routers ≈ 256 MiB of offsets plus the core
/// links — the same memory envelope the dense limit allows, shifted from
/// node pairs to router pairs.
pub const COMPRESSED_PAIR_LIMIT: usize = 64_000_000;

/// The route table a topology gets: the one storage decision, shared by
/// [`RoutedTopology::auto`] and the analysis service's route cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePlan {
    /// A dense [`RouteTable`]: `n² ≤ `[`DENSE_PAIR_LIMIT`] — O(1) lookups,
    /// every route stored verbatim; unbeatable at paper scale.
    Dense,
    /// A [`CompressedRouteTable`]: past the dense limit, router symmetric,
    /// and `R² ≤ `[`COMPRESSED_PAIR_LIMIT`] — full precompute, ~`p²`
    /// smaller than flat.
    Compressed,
}

impl StoragePlan {
    /// Plan the route table of `topo` from its size and symmetry hint, or
    /// `None` past both limits, where lookups route directly.
    pub fn of(topo: &dyn Topology) -> Option<Self> {
        let n = topo.num_nodes();
        if n.saturating_mul(n) <= DENSE_PAIR_LIMIT {
            return Some(StoragePlan::Dense);
        }
        let p = router_symmetry(topo)?;
        ((n / p).saturating_mul(n / p) <= COMPRESSED_PAIR_LIMIT).then_some(StoragePlan::Compressed)
    }

    /// The one plan-to-table builder: the table this plan precomputes for
    /// `topo`.
    ///
    /// # Panics
    /// Panics as [`RouteTable::build`] or [`CompressedRouteTable::build`]
    /// does.
    pub fn build_table(self, topo: &dyn Topology) -> SharedRoutes {
        match self {
            StoragePlan::Dense => SharedRoutes::Flat(Arc::new(RouteTable::build(topo))),
            StoragePlan::Compressed => {
                SharedRoutes::Compressed(Arc::new(CompressedRouteTable::build(topo)))
            }
        }
    }
}

/// The `nodes_per_router` of a topology's [`SymmetryHint::RouterSymmetric`]
/// hint, when it is usable: positive and dividing the node count.
fn router_symmetry<T: Topology + ?Sized>(topo: &T) -> Option<usize> {
    match topo.symmetry_hint() {
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: p,
        }) if p > 0 && topo.num_nodes().is_multiple_of(p) => Some(p),
        _ => None,
    }
}

/// The CSR core of both route tables: `width` sources of `width` entries
/// each, entry `(s, d)` being the link sequence
/// `links[offsets[i] .. offsets[i + 1]]` at `i = s·width + d`.
#[derive(Debug, Clone)]
struct Csr {
    width: usize,
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl Csr {
    /// No entries yet, with offset room for `sources` rows.
    fn with_rows(width: usize, sources: usize) -> Self {
        let mut offsets = Vec::with_capacity(sources * width + 1);
        offsets.push(0);
        Csr {
            width,
            offsets,
            links: Vec::new(),
        }
    }

    /// Append one row: entry `d` holds what `fill(d, links)` appends.
    ///
    /// # Panics
    /// Panics if the links outgrow `u32` offsets.
    fn push_row(&mut self, mut fill: impl FnMut(usize, &mut Vec<LinkId>)) {
        for d in 0..self.width {
            fill(d, &mut self.links);
            let end = u32::try_from(self.links.len()).expect("CSR links fit u32 offsets");
            self.offsets.push(end);
        }
    }

    /// The table builder: `width` sources, entry `(s, d)` holding what
    /// `fill(s, d, links)` appends, built in parallel over sources and
    /// concatenated in source order.
    fn table(width: usize, fill: impl Fn(usize, usize, &mut Vec<LinkId>) + Sync) -> Self {
        let sources: Vec<usize> = (0..width).collect();
        // A handful of sources per chunk keeps all workers busy without
        // drowning the (in-order, deterministic) concatenation in tiny
        // intermediate vectors.
        sources
            .par_chunks((width / 64).max(1))
            .map(|chunk| {
                let mut csr = Csr::with_rows(width, chunk.len());
                for &s in chunk {
                    csr.push_row(|d, links| fill(s, d, links));
                }
                csr
            })
            .reduce(|| Csr::with_rows(width, width), Csr::append)
    }

    /// `self` followed by `tail`, whose offsets shift past `self`'s links.
    ///
    /// # Panics
    /// Panics if the joined links outgrow `u32` offsets.
    fn append(mut self, tail: Csr) -> Self {
        let end =
            u32::try_from(self.links.len() + tail.links.len()).expect("CSR links fit u32 offsets");
        let base = end - tail.links.len() as u32;
        self.offsets
            .extend(tail.offsets[1..].iter().map(|&o| base + o));
        self.links.extend_from_slice(&tail.links);
        self
    }

    #[inline]
    fn entry(&self, s: usize, d: usize) -> &[LinkId] {
        let i = s * self.width + d;
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The length of entry `(s, d)`, read off the offsets alone.
    #[inline]
    fn entry_len(&self, s: usize, d: usize) -> u32 {
        let i = s * self.width + d;
        self.offsets[i + 1] - self.offsets[i]
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.links.len() * std::mem::size_of::<LinkId>()
    }

    /// The writer of both table codecs, all little-endian: the `header`
    /// words (u64), the offsets (u32), the link ids (u32).
    fn to_bytes(&self, header: &[u64]) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 * header.len() + 4 * (self.offsets.len() + self.links.len()));
        for word in header {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &l in &self.links {
            out.extend_from_slice(&l.0.to_le_bytes());
        }
        out
    }

    /// The validating reader of both table codecs. It splits off `N`
    /// header words and lets `geometry` check them and name the table's
    /// width. The rest must be exactly `width² + 1` offsets that start at
    /// zero, never decrease and end at the number of link ids that follow.
    /// Any violation is an `Err`, never a panic; allocations are sized
    /// from the input length, never from decoded counts.
    fn from_bytes<const N: usize, G>(
        bytes: &[u8],
        geometry: impl FnOnce([u64; N]) -> Result<(G, usize), String>,
    ) -> Result<(G, Csr), String> {
        let (head, body) = bytes
            .split_at_checked(8 * N)
            .ok_or_else(|| format!("route table blob truncated at {} bytes", bytes.len()))?;
        let (geometry, width) = geometry(std::array::from_fn(|i| {
            u64::from_le_bytes(head[8 * i..8 * i + 8].try_into().expect("8-byte word"))
        }))?;
        let (offset_bytes, link_bytes) = width
            .checked_mul(width)
            .and_then(|entries| entries.checked_add(1))
            .and_then(|offsets| offsets.checked_mul(4))
            .filter(|_| body.len().is_multiple_of(4))
            .and_then(|len| body.split_at_checked(len))
            .ok_or_else(|| format!("{}-byte body is no width-{width} table", body.len()))?;
        let offsets: Vec<u32> = u32_words(offset_bytes).collect();
        let num_links = link_bytes.len() / 4;
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[1] < w[0])
            || offsets[offsets.len() - 1] as usize != num_links
        {
            return Err(format!(
                "offsets do not rise from 0 to the {num_links} stored link ids"
            ));
        }
        let links = u32_words(link_bytes).map(LinkId).collect();
        Ok((
            geometry,
            Csr {
                width,
                offsets,
                links,
            },
        ))
    }
}

/// The little-endian `u32` words of `bytes` (whose length is a multiple
/// of 4).
fn u32_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte word")))
}

/// Dense all-pairs CSR route table of one topology.
///
/// See the module docs for the layout and the memory bound. Routes are
/// byte-identical to what [`Topology::route_into`] produces — the
/// `netloc-testkit` route-table oracle asserts exactly that over the
/// whole verification corpus.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `n` wide: `route(s, d)` is entry `(s, d)`.
    csr: Csr,
}

impl RouteTable {
    /// Precompute every route of `topo`, in parallel over source nodes.
    ///
    /// # Panics
    /// Panics if the table would hold more than `u32::MAX` link ids; route
    /// machines that large with [`RoutedTopology::direct`].
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        let csr = Csr::table(topo.num_nodes(), |s, d, links| {
            topo.route_into(NodeId(s as u32), NodeId(d as u32), links)
        });
        RouteTable { csr }
    }

    /// Number of nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.csr.width
    }

    /// The precomputed route as a link slice.
    #[inline]
    pub fn route_of(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        self.csr.entry(src.idx(), dst.idx())
    }

    /// Hop count of a pair (CSR offset difference; no route walk).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.csr.entry_len(src.idx(), dst.idx())
    }

    /// Exact heap footprint of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }

    /// Serialize the table as little-endian bytes:
    /// `[n u64][offsets: (n²+1) × u32][links: offsets[n²] × u32]`.
    ///
    /// The encoding carries no checksum of its own — persistent callers
    /// (the analysis service's on-disk store) frame it with a verified
    /// length + digest footer and treat any [`from_bytes`] rejection as a
    /// cache miss.
    ///
    /// [`from_bytes`]: RouteTable::from_bytes
    pub fn to_bytes(&self) -> Vec<u8> {
        self.csr.to_bytes(&[self.num_nodes() as u64])
    }

    /// Decode a table serialized by [`to_bytes`](RouteTable::to_bytes),
    /// validating every structural invariant: the byte length must match
    /// the declared node count exactly, offsets must start at zero, be
    /// monotone, and end at the link count. Any violation — truncation,
    /// bit flips that survive the caller's checksum, a table written by a
    /// different machine size — is a clean `Err`, never a panic and never
    /// an oversized allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let ((), csr) = Csr::from_bytes(bytes, |[n]| {
            let n = usize::try_from(n).map_err(|_| format!("node count {n} overflows usize"))?;
            Ok(((), n))
        })?;
        Ok(RouteTable { csr })
    }
}

/// Magic prefix of [`CompressedRouteTable::to_bytes`] blobs ("NLOC-CRT" in
/// ASCII). Deliberately astronomical when read as a node count, so feeding
/// a compressed blob to [`RouteTable::from_bytes`] fails its pair-space
/// check instead of decoding garbage — and vice versa, flat blobs (whose
/// first word is a real node count) never match the magic.
const COMPRESSED_MAGIC: u64 = u64::from_le_bytes(*b"NLOC-CRT");

/// Append the router-to-router core of the `rs → rd` route: the full route
/// between representative nodes with the two terminal hops stripped.
/// Verifies the symmetry contract (terminal link ids equal node ids) so a
/// topology with a wrong hint fails loudly at build time, not with silent
/// route corruption.
fn core_into<T: Topology + ?Sized>(
    topo: &T,
    p: usize,
    rs: usize,
    rd: usize,
    out: &mut Vec<LinkId>,
) {
    if rs == rd {
        return;
    }
    let src = NodeId((rs * p) as u32);
    let dst = NodeId((rd * p) as u32);
    let start = out.len();
    topo.route_into(src, dst, out);
    assert!(
        out.len() >= start + 2
            && out[start] == LinkId(src.0)
            && *out.last().unwrap() == LinkId(dst.0),
        "{}: route {src}->{dst} does not match its router-symmetry hint",
        topo.name()
    );
    out.pop();
    out.remove(start);
}

/// Compressed hierarchical route table for router-symmetric topologies.
///
/// When a topology advertises [`SymmetryHint::RouterSymmetric`], every
/// route factors as
///
/// ```text
/// route(src, dst) = [terminal(src)] ++ core(src/p, dst/p) ++ [terminal(dst)]
/// ```
///
/// with terminal link ids equal to node ids. All `p²` node pairs sharing a
/// router pair ride the same core, so this table stores one CSR over the
/// `R²` *router* pairs and expands the two terminal hops on the fly into
/// the caller's scratch buffer — `~p²` smaller than the flat projection
/// while replaying byte-identical routes (asserted at build time and by
/// the testkit oracles). A 101k-node Slim Fly (`q = 53`, `p = 18`) costs
/// ~150 MiB compressed versus ~42 GiB flat.
#[derive(Debug, Clone)]
pub struct CompressedRouteTable {
    nodes_per_router: usize,
    /// `R` wide: `core(rs, rd)` is entry `(rs, rd)`.
    csr: Csr,
}

impl CompressedRouteTable {
    /// Precompute every route core of `topo`, in parallel over source
    /// routers.
    ///
    /// # Panics
    /// Panics if the topology reports no usable
    /// [`SymmetryHint::RouterSymmetric`] hint, if a route violates the
    /// hint's factorization, or if the core CSR overflows `u32` ids.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        let p = router_symmetry(topo)
            .expect("compressed route storage requires a router-symmetric topology");
        let csr = Csr::table(topo.num_nodes() / p, |rs, rd, links| {
            core_into(topo, p, rs, rd, links)
        });
        CompressedRouteTable {
            nodes_per_router: p,
            csr,
        }
    }

    /// Number of nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.csr.width * self.nodes_per_router
    }

    /// Nodes attached to each router.
    #[inline]
    pub fn nodes_per_router(&self) -> usize {
        self.nodes_per_router
    }

    /// Number of routers (`nodes / nodes_per_router`).
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.csr.width
    }

    /// The stored router-to-router core of a router pair (empty when
    /// `rs == rd`).
    #[inline]
    pub fn core_of(&self, rs: usize, rd: usize) -> &[LinkId] {
        self.csr.entry(rs, rd)
    }

    /// Expand the route of a node pair into `scratch` (cleared first) and
    /// return it as a slice: terminal, stored core, terminal, with
    /// terminal link ids equal to node ids. Nodes on one router share the
    /// empty core, and a node routes to itself over nothing.
    #[inline]
    pub fn route_of<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        scratch.clear();
        if src != dst {
            let p = self.nodes_per_router;
            scratch.push(LinkId(src.0));
            scratch.extend_from_slice(self.core_of(src.idx() / p, dst.idx() / p));
            scratch.push(LinkId(dst.0));
        }
        scratch
    }

    /// Hop count of a node pair (two terminals plus the core's CSR offset
    /// difference; no route expansion).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let p = self.nodes_per_router;
        2 + self.csr.entry_len(src.idx() / p, dst.idx() / p)
    }

    /// Total core link ids stored (Σ core length over ordered router pairs).
    #[inline]
    pub fn total_core_links(&self) -> usize {
        self.csr.links.len()
    }

    /// Exact heap footprint of the compressed CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }

    /// Exact size a dense flat-CSR [`RouteTable`] of the same routes would
    /// occupy: `4·(n² + 1)` offset bytes plus 4 bytes per flat link —
    /// `2·n·(n−1)` terminals and `p²` expansions of every stored core.
    /// Computed in `u128`; at the scales this table exists for, the flat
    /// projection does not fit in memory (or in a `usize` product chain).
    pub fn flat_projection_bytes(&self) -> u128 {
        let n = self.num_nodes() as u128;
        let p = self.nodes_per_router as u128;
        let flat_links = 2 * n * (n - 1) + p * p * self.total_core_links() as u128;
        4 * (n * n + 1) + 4 * flat_links
    }

    /// Serialize as little-endian bytes:
    /// `[magic u64][nodes u64][p u64][offsets: (R²+1) × u32][links × u32]`.
    ///
    /// Like [`RouteTable::to_bytes`] this carries no checksum; the service
    /// store frames it. The magic keeps flat and compressed blobs from
    /// ever decoding as each other.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.csr.to_bytes(&[
            COMPRESSED_MAGIC,
            self.num_nodes() as u64,
            self.nodes_per_router as u64,
        ])
    }

    /// Decode a table serialized by
    /// [`to_bytes`](CompressedRouteTable::to_bytes), validating the magic
    /// and every structural invariant exactly as
    /// [`RouteTable::from_bytes`] does; any violation is a clean `Err`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let (nodes_per_router, csr) = Csr::from_bytes(bytes, |[magic, nodes, p]| {
            match (magic, usize::try_from(nodes), usize::try_from(p)) {
                (COMPRESSED_MAGIC, Ok(nodes), Ok(p))
                    if p > 0 && nodes > 0 && nodes.is_multiple_of(p) =>
                {
                    Ok((p, nodes / p))
                }
                _ => Err(format!(
                    "not a compressed route table: magic {magic:#x}, {nodes} nodes across \
                     routers of {p}"
                )),
            }
        })?;
        Ok(CompressedRouteTable {
            nodes_per_router,
            csr,
        })
    }
}

/// A built route table, shared behind an [`Arc`] so many handles (e.g.
/// the analysis service's concurrent requests against one topology)
/// replay over one copy: the flat all-pairs CSR or the per-router
/// compressed table for machines past the dense limit. Both serialize to
/// self-describing blobs (the compressed codec leads with a magic the flat
/// decoder rejects, and vice versa), so one store entry holds either.
#[derive(Clone)]
pub enum SharedRoutes {
    /// Flat all-pairs CSR ([`StoragePlan::Dense`]).
    Flat(Arc<RouteTable>),
    /// Compressed per-router-pair core table ([`StoragePlan::Compressed`]).
    Compressed(Arc<CompressedRouteTable>),
}

impl SharedRoutes {
    /// The plan this table carries out.
    pub fn plan(&self) -> StoragePlan {
        match self {
            SharedRoutes::Flat(_) => StoragePlan::Dense,
            SharedRoutes::Compressed(_) => StoragePlan::Compressed,
        }
    }

    /// Number of nodes the routes cover.
    pub fn num_nodes(&self) -> usize {
        match self {
            SharedRoutes::Flat(t) => t.num_nodes(),
            SharedRoutes::Compressed(t) => t.num_nodes(),
        }
    }

    /// Exact heap footprint of the table.
    pub fn memory_bytes(&self) -> usize {
        match self {
            SharedRoutes::Flat(t) => t.memory_bytes(),
            SharedRoutes::Compressed(t) => t.memory_bytes(),
        }
    }

    /// Serialize to the variant's own byte format (self-describing).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            SharedRoutes::Flat(t) => t.to_bytes(),
            SharedRoutes::Compressed(t) => t.to_bytes(),
        }
    }

    /// Decode either variant: the compressed codec's leading magic
    /// dispatches, and each decoder rejects the other's blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<SharedRoutes, String> {
        if let Ok(t) = CompressedRouteTable::from_bytes(bytes) {
            return Ok(SharedRoutes::Compressed(Arc::new(t)));
        }
        RouteTable::from_bytes(bytes).map(|t| SharedRoutes::Flat(Arc::new(t)))
    }

    /// A handle that replays `topo` over this table without copying it.
    ///
    /// # Panics
    /// Panics if the table's node count does not match the topology's.
    pub fn routed<'a>(&self, topo: &'a dyn Topology) -> RoutedTopology<'a> {
        assert_eq!(
            self.num_nodes(),
            topo.num_nodes(),
            "route table built for a different machine size"
        );
        RoutedTopology {
            topo,
            routes: Some(self.clone()),
        }
    }
}

/// A topology bundled with the routes its lookups read — the handle the
/// replay engine and the mapping optimizers consume.
///
/// Every handle answers [`route_of`](RoutedTopology::route_of) and
/// [`hops`](RoutedTopology::hops) with identical values; the storage only
/// trades memory for lookup cost:
///
/// * a [`RouteTable`] ([`StoragePlan::Dense`]) — O(1) slice lookups,
///   `O(n²·hops̄)` memory. Best for sweeps at paper scale.
/// * a [`CompressedRouteTable`] ([`StoragePlan::Compressed`]) — one core
///   per router pair, terminal hops expanded into the caller's scratch.
///   Best for router-symmetric machines past the dense limit (100k–1M
///   endpoints).
/// * no table ([`direct`](RoutedTopology::direct)) — lookups route into
///   the caller's scratch buffer. Best for replays that read each pair
///   once, and the only choice past both limits.
///
/// The module docs list the four ways to make one.
pub struct RoutedTopology<'a> {
    topo: &'a dyn Topology,
    /// The table lookups read, or `None` to route every lookup.
    routes: Option<SharedRoutes>,
}

impl<'a> RoutedTopology<'a> {
    /// Storage as `plan` says: the table [`StoragePlan::build_table`]
    /// builds.
    ///
    /// # Panics
    /// Panics if a compressed plan meets a topology without a usable
    /// [`SymmetryHint::RouterSymmetric`] hint.
    pub fn with_plan(topo: &'a dyn Topology, plan: StoragePlan) -> Self {
        plan.build_table(topo).routed(topo)
    }

    /// Storage as [`StoragePlan::of`] plans it for `topo`: a dense table up
    /// to [`DENSE_PAIR_LIMIT`] node pairs; above that, a compressed table
    /// when the topology advertises router symmetry and has at most
    /// [`COMPRESSED_PAIR_LIMIT`] router pairs; direct routing otherwise.
    pub fn auto(topo: &'a dyn Topology) -> Self {
        match StoragePlan::of(topo) {
            Some(plan) => Self::with_plan(topo, plan),
            None => Self::direct(topo),
        }
    }

    /// No precomputation: lookups route into the caller's scratch buffer.
    pub fn direct(topo: &'a dyn Topology) -> Self {
        RoutedTopology { topo, routes: None }
    }

    /// The wrapped topology.
    #[inline]
    pub fn topology(&self) -> &'a dyn Topology {
        self.topo
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The dense table, when this handle holds (or shares) one.
    pub fn table(&self) -> Option<&RouteTable> {
        match &self.routes {
            Some(SharedRoutes::Flat(t)) => Some(t),
            _ => None,
        }
    }

    /// The compressed table, when this handle holds (or shares) one.
    pub fn compressed_table(&self) -> Option<&CompressedRouteTable> {
        match &self.routes {
            Some(SharedRoutes::Compressed(t)) => Some(t),
            _ => None,
        }
    }

    /// Whether lookups are served from a precomputed table.
    pub fn is_precomputed(&self) -> bool {
        self.routes.is_some()
    }

    /// The route of a pair. A dense table returns a slice into its CSR
    /// storage and leaves `scratch` untouched; a compressed table and
    /// direct routing clear and fill `scratch` (compressed expands the two
    /// terminal hops around the stored core). Callers in tight loops reuse
    /// one scratch buffer and never allocate per pair.
    #[inline]
    pub fn route_of<'s>(
        &'s self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        match &self.routes {
            Some(SharedRoutes::Flat(table)) => table.route_of(src, dst),
            Some(SharedRoutes::Compressed(table)) => table.route_of(src, dst, scratch),
            None => {
                scratch.clear();
                self.topo.route_into(src, dst, scratch);
                scratch
            }
        }
    }

    /// Hop count of a pair. Both tables read it off CSR offsets; direct
    /// routing defers to [`Topology::hops`] (closed-form on most
    /// topologies).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.routes {
            Some(SharedRoutes::Flat(table)) => table.hops(src, dst),
            Some(SharedRoutes::Compressed(table)) => table.hops(src, dst),
            None => self.topo.hops(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, FatTree, Torus};

    fn all_topos() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(Torus::new([3, 3, 2])),
            Box::new(FatTree::new(8, 2)),
            Box::new(Dragonfly::new(4, 2, 2)),
        ]
    }

    #[test]
    fn dense_table_matches_route_into_everywhere() {
        for topo in all_topos() {
            let table = RouteTable::build(topo.as_ref());
            let n = topo.num_nodes();
            let mut buf = Vec::new();
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    buf.clear();
                    topo.route_into(s, d, &mut buf);
                    assert_eq!(table.route_of(s, d), &buf[..], "{}: {s}->{d}", topo.name());
                    assert_eq!(table.hops(s, d), buf.len() as u32);
                }
            }
            assert_eq!(table.num_nodes(), n);
        }
    }

    #[test]
    fn direct_agrees_with_dense() {
        for topo in all_topos() {
            let dense = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense);
            let direct = RoutedTopology::direct(topo.as_ref());
            let n = topo.num_nodes();
            let (mut b1, mut b2) = (Vec::new(), Vec::new());
            for s in (0..n).step_by(3) {
                for d in (0..n).rev().step_by(2) {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = dense.route_of(s, d, &mut b1).to_vec();
                    assert_eq!(direct.route_of(s, d, &mut b2), &r[..]);
                    assert_eq!(dense.hops(s, d), r.len() as u32);
                    assert_eq!(direct.hops(s, d), r.len() as u32);
                }
            }
        }
    }

    #[test]
    fn memory_accounting_is_exact() {
        let topo = Torus::new([3, 3, 3]);
        let table = RouteTable::build(&topo);
        let n = topo.num_nodes();
        // One u32 offset per pair plus one, one u32 link id per hop of
        // every ordered pair.
        let hops: usize = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .map(|(s, d)| topo.hops(NodeId(s as u32), NodeId(d as u32)) as usize)
            .sum();
        assert_eq!(table.memory_bytes(), 4 * (n * n + 1) + 4 * hops);
    }

    #[test]
    fn auto_picks_dense_for_small_machines() {
        let small = Torus::new([4, 4, 4]);
        assert_eq!(StoragePlan::of(&small), Some(StoragePlan::Dense));
        assert!(RoutedTopology::auto(&small).table().is_some());
        assert!(RoutedTopology::auto(&small).is_precomputed());
        assert!(!RoutedTopology::direct(&small).is_precomputed());
    }

    #[test]
    fn shared_table_agrees_with_dense_across_handles() {
        let topo = Torus::new([3, 3, 2]);
        let table = Arc::new(RouteTable::build(&topo));
        let shared = SharedRoutes::Flat(Arc::clone(&table));
        let (a, b) = (shared.routed(&topo), shared.routed(&topo));
        let dense = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
        let (mut s1, mut s2, mut s3) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..topo.num_nodes() {
            for d in 0..topo.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                let r = dense.route_of(s, d, &mut s1).to_vec();
                assert_eq!(a.route_of(s, d, &mut s2), &r[..]);
                assert_eq!(b.route_of(s, d, &mut s3), &r[..]);
                assert_eq!(a.hops(s, d), r.len() as u32);
            }
        }
        assert!(a.is_precomputed());
        assert!(a.table().is_some());
        // Four consumers, one CSR allocation.
        assert_eq!(Arc::strong_count(&table), 4);
    }

    #[test]
    #[should_panic(expected = "different machine size")]
    fn shared_table_rejects_size_mismatch() {
        let a = Torus::new([2, 2, 2]);
        let b = Torus::new([3, 3, 3]);
        SharedRoutes::Flat(Arc::new(RouteTable::build(&a))).routed(&b);
    }

    #[test]
    fn byte_codec_round_trips_exactly() {
        let topo = Torus::new([3, 4, 2]);
        let table = RouteTable::build(&topo);
        let bytes = table.to_bytes();
        let back = RouteTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_nodes(), table.num_nodes());
        assert_eq!(back.to_bytes(), bytes, "round trip is byte-stable");
        let n = topo.num_nodes() as u32;
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    back.route_of(NodeId(s), NodeId(d)),
                    table.route_of(NodeId(s), NodeId(d))
                );
            }
        }
    }

    #[test]
    fn byte_codec_rejects_corruption_cleanly() {
        let table = RouteTable::build(&Torus::new([2, 2, 2]));
        let bytes = table.to_bytes();
        // Every truncation must fail (only the exact length decodes).
        for len in 0..bytes.len() {
            assert!(RouteTable::from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
        // A node count inflated past the data must fail, not allocate.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RouteTable::from_bytes(&huge).is_err());
        // 2^31 nodes: the offset byte count (4·(2^62 + 1)) overflows usize,
        // which must be an error, not a wrapped length and a huge alloc.
        let mut wrapped = (1u64 << 31).to_le_bytes().to_vec();
        wrapped.extend_from_slice(&[0; 8]);
        assert!(RouteTable::from_bytes(&wrapped).is_err());
        // Breaking offset monotonicity must fail.
        let mut swapped = bytes.clone();
        swapped[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(RouteTable::from_bytes(&swapped).is_err());
    }

    fn symmetric_topos() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(Dragonfly::new(4, 2, 2)),
            Box::new(crate::SlimFly::new(5, 2)),
            Box::new(crate::HyperX::new(vec![3, 4], 2)),
            Box::new(crate::Jellyfish::new(12, 3, 2, 7)),
        ]
    }

    #[test]
    fn compressed_matches_dense_everywhere() {
        for topo in symmetric_topos() {
            let dense = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense);
            let compressed = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Compressed);
            let n = topo.num_nodes();
            let (mut b1, mut b2) = (Vec::new(), Vec::new());
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = dense.route_of(s, d, &mut b1).to_vec();
                    assert_eq!(
                        compressed.route_of(s, d, &mut b2),
                        &r[..],
                        "{}: {s}->{d}",
                        topo.name()
                    );
                    assert_eq!(compressed.hops(s, d), r.len() as u32);
                }
            }
            assert!(compressed.compressed_table().is_some());
            assert!(compressed.table().is_none());
        }
    }

    #[test]
    fn compressed_is_much_smaller_than_flat_projection() {
        let topo = crate::SlimFly::new(5, 4);
        let table = CompressedRouteTable::build(&topo);
        // The flat projection must agree with an actually-built flat table.
        let flat = RouteTable::build(&topo);
        assert_eq!(table.flat_projection_bytes(), flat.memory_bytes() as u128);
        let ratio = table.flat_projection_bytes() as f64 / table.memory_bytes() as f64;
        assert!(ratio >= 10.0, "compression ratio only {ratio:.1}");
    }

    #[test]
    fn compressed_byte_codec_round_trips_exactly() {
        let topo = crate::SlimFly::new(5, 2);
        let table = CompressedRouteTable::build(&topo);
        let bytes = table.to_bytes();
        let back = CompressedRouteTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_nodes(), table.num_nodes());
        assert_eq!(back.nodes_per_router(), table.nodes_per_router());
        assert_eq!(back.to_bytes(), bytes, "round trip is byte-stable");
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for s in 0..topo.num_nodes() as u32 {
            for d in 0..topo.num_nodes() as u32 {
                assert_eq!(
                    back.route_of(NodeId(s), NodeId(d), &mut b1),
                    table.route_of(NodeId(s), NodeId(d), &mut b2)
                );
            }
        }
    }

    #[test]
    fn compressed_byte_codec_rejects_corruption_cleanly() {
        let table = CompressedRouteTable::build(&crate::HyperX::new(vec![2, 2], 2));
        let bytes = table.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                CompressedRouteTable::from_bytes(&bytes[..len]).is_err(),
                "len {len}"
            );
        }
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&huge).is_err());
        // 2^31 routers of one node: the offset byte count overflows usize.
        let mut wrapped = bytes[..8].to_vec();
        wrapped.extend_from_slice(&(1u64 << 31).to_le_bytes());
        wrapped.extend_from_slice(&1u64.to_le_bytes());
        wrapped.extend_from_slice(&[0; 8]);
        assert!(CompressedRouteTable::from_bytes(&wrapped).is_err());
        let mut bad_geometry = bytes.clone();
        // 7 nodes across routers of 2 does not divide evenly.
        bad_geometry[8..16].copy_from_slice(&7u64.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&bad_geometry).is_err());
        let mut swapped = bytes.clone();
        swapped[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&swapped).is_err());
    }

    #[test]
    fn flat_and_compressed_blobs_never_cross_decode() {
        let topo = crate::HyperX::new(vec![2, 2], 2);
        let compressed = CompressedRouteTable::build(&topo).to_bytes();
        let flat = RouteTable::build(&topo).to_bytes();
        assert!(RouteTable::from_bytes(&compressed).is_err());
        assert!(CompressedRouteTable::from_bytes(&flat).is_err());
    }

    #[test]
    fn auto_prefers_compressed_above_dense_limit_when_symmetric() {
        // 2366 nodes -> n² ≈ 5.6M > DENSE_PAIR_LIMIT, but only 338 routers.
        let sf = crate::SlimFly::new(13, 7);
        assert!(sf.num_nodes() * sf.num_nodes() > DENSE_PAIR_LIMIT);
        assert_eq!(StoragePlan::of(&sf), Some(StoragePlan::Compressed));
        let routed = RoutedTopology::auto(&sf);
        assert!(routed.compressed_table().is_some());
        assert!(routed.table().is_none());
        // The compressed pick replays the same routes as direct routing.
        let direct = RoutedTopology::direct(&sf);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for (s, d) in [(0u32, 2365u32), (17, 1200), (100, 101), (9, 9)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut b1).to_vec(),
                direct.route_of(NodeId(s), NodeId(d), &mut b2).to_vec()
            );
        }
    }

    #[test]
    fn auto_routes_directly_past_both_limits() {
        // 9 000 routers -> R² = 81M > COMPRESSED_PAIR_LIMIT, though
        // symmetric; an 80k-node torus is past the dense limit with no
        // symmetry hint. Neither gets a table (and none is built here).
        let jf = crate::Jellyfish::new(9_000, 4, 1, 1);
        let t = crate::Torus::nd(&[200, 200, 2]);
        for topo in [&jf as &dyn Topology, &t] {
            assert_eq!(StoragePlan::of(topo), None, "{}", topo.name());
            assert!(!RoutedTopology::auto(topo).is_precomputed());
        }
        let routed = RoutedTopology::auto(&jf);
        let mut scratch = Vec::new();
        for (s, d) in [(0u32, 8_999u32), (17, 1200), (100, 101), (9, 9)] {
            let (s, d) = (NodeId(s), NodeId(d));
            assert_eq!(routed.route_of(s, d, &mut scratch), jf.route(s, d));
            assert_eq!(routed.hops(s, d), jf.hops(s, d));
        }
    }

    #[test]
    #[should_panic(expected = "router-symmetric")]
    fn compressed_rejects_topologies_without_symmetry() {
        let t = Torus::new([3, 3, 3]);
        RoutedTopology::with_plan(&t, StoragePlan::Compressed);
    }

    #[test]
    fn shared_compressed_agrees_across_handles() {
        let topo = crate::SlimFly::new(5, 2);
        let table = Arc::new(CompressedRouteTable::build(&topo));
        let shared = SharedRoutes::Compressed(Arc::clone(&table));
        let (a, b) = (shared.routed(&topo), shared.routed(&topo));
        let dense = RoutedTopology::with_plan(&topo, StoragePlan::Dense);
        let (mut s1, mut s2, mut s3) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..topo.num_nodes() {
            for d in 0..topo.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                let r = dense.route_of(s, d, &mut s1).to_vec();
                assert_eq!(a.route_of(s, d, &mut s2), &r[..]);
                assert_eq!(b.route_of(s, d, &mut s3), &r[..]);
                assert_eq!(a.hops(s, d), r.len() as u32);
            }
        }
        assert_eq!(Arc::strong_count(&table), 4);
    }
}
