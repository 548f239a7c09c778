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
//! The stores differ only in what an entry holds:
//!
//! | store                    | entries            | entry                              |
//! |--------------------------|--------------------|------------------------------------|
//! | [`RouteTable`]           | `n²` node pairs    | `route(s, d)` at `s·n + d`         |
//! | [`CompressedRouteTable`] | `R²` router pairs  | `core(rs, rd)` at `rs·R + rd`      |
//! | [`SourceRow`]            | `n` destinations   | `route(src, d)` at `d`             |
//! | lazy core row            | `R` routers        | `core(rs, rd)` at `rd`             |
//!
//! One source-parallel builder makes both tables and one row builder makes
//! both kinds of row; one writer and one validating reader are the codec
//! of both tables. The parallel build uses rayon (`par_chunks`) over
//! sources and concatenates the chunks in source order, so the table
//! bytes are deterministic.
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
//! Machines too large for either table build one row per *touched*
//! source on demand, which is exactly what a replay with far fewer
//! communicating nodes than machine nodes needs.
//!
//! ## One storage plan
//!
//! [`StoragePlan::of`] is the only place that chooses among these stores,
//! and [`StoragePlan::build_table`] is the only place that builds a
//! planned table, as a [`SharedRoutes`] that any number of handles replay
//! over. A [`RoutedTopology`] is made in one of four ways:
//!
//! * [`RoutedTopology::auto`] follows the plan of its topology;
//! * [`RoutedTopology::with_plan`] follows a plan the caller names, which
//!   is how the oracles and benches compare the storage modes;
//! * [`SharedRoutes::routed`] wraps a table built earlier, such as the one
//!   the analysis service's route cache shares across requests;
//! * [`RoutedTopology::direct`] stores nothing and routes every lookup.

use crate::link::{LinkId, NodeId};
use crate::{SymmetryHint, Topology};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Ordered **node**-pair count up to which [`StoragePlan::of`] picks a
/// dense table (4M pairs ≈ a 2 000-node machine ≈ 150–200 MiB with typical
/// mean route lengths; see the module docs for the exact bound).
pub const DENSE_PAIR_LIMIT: usize = 4_000_000;

/// Ordered **router**-pair count up to which [`StoragePlan::of`] fully
/// precomputes a [`CompressedRouteTable`] for router-symmetric topologies.
/// 64M router pairs ≈ 8 000 routers ≈ 256 MiB of offsets plus the core
/// links — the same memory envelope the dense limit allows, shifted from
/// node pairs to router pairs. Above it, per-source-router core rows are
/// built lazily on first touch.
pub const COMPRESSED_PAIR_LIMIT: usize = 64_000_000;

/// The route storage a topology gets: the one storage decision, shared by
/// [`RoutedTopology::auto`] and the analysis service's route cache.
/// [`RoutedTopology::with_plan`] builds each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePlan {
    /// A dense [`RouteTable`]: `n² ≤ `[`DENSE_PAIR_LIMIT`] — O(1) lookups,
    /// every route stored verbatim; unbeatable at paper scale.
    Dense,
    /// A [`CompressedRouteTable`]: past the dense limit, router symmetric,
    /// and `R² ≤ `[`COMPRESSED_PAIR_LIMIT`] — full precompute, ~`p²`
    /// smaller than flat.
    Compressed,
    /// Router symmetric past both limits — core rows per touched source
    /// router, built on first touch.
    LazyCompressed,
    /// Past the dense limit with no usable symmetry hint — flat
    /// [`SourceRow`]s per touched source, built on first touch.
    Lazy,
}

impl StoragePlan {
    /// Plan the route storage of `topo` from its size and symmetry hint.
    pub fn of(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        if n.saturating_mul(n) <= DENSE_PAIR_LIMIT {
            return StoragePlan::Dense;
        }
        match router_symmetry(topo) {
            Some(p) if (n / p).saturating_mul(n / p) <= COMPRESSED_PAIR_LIMIT => {
                StoragePlan::Compressed
            }
            Some(_) => StoragePlan::LazyCompressed,
            None => StoragePlan::Lazy,
        }
    }

    /// The one plan-to-table builder: the table this plan precomputes for
    /// `topo`, or `None` for the lazy plans, whose rows each handle builds
    /// on first touch.
    ///
    /// # Panics
    /// Panics as [`RouteTable::build`] or [`CompressedRouteTable::build`]
    /// does.
    pub fn build_table(self, topo: &dyn Topology) -> Option<SharedRoutes> {
        match self {
            StoragePlan::Dense => Some(SharedRoutes::Flat(Arc::new(RouteTable::build(topo)))),
            StoragePlan::Compressed => Some(SharedRoutes::Compressed(Arc::new(
                CompressedRouteTable::build(topo),
            ))),
            StoragePlan::LazyCompressed | StoragePlan::Lazy => None,
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

/// Why compressed storage panics on a topology without the hint.
const NEEDS_SYMMETRY: &str = "compressed route storage requires a router-symmetric topology";

/// The CSR core of every route store: `width` entries per source, entry
/// `(s, d)` being the link sequence `links[offsets[i] .. offsets[i + 1]]`
/// at `i = s·width + d`. A table has `width` sources; a row has one.
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

    /// The row builder: one source's row, built on this thread.
    fn row(width: usize, fill: impl FnMut(usize, &mut Vec<LinkId>)) -> Self {
        let mut csr = Csr::with_rows(width, 1);
        csr.push_row(fill);
        csr
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

/// CSR routes from one source node to every destination of a topology.
///
/// The lazy building block of the replay engine: `route(src, d)` is the
/// row's entry `d`.
#[derive(Debug, Clone)]
pub struct SourceRow(Csr);

impl SourceRow {
    /// Materialize all routes out of `src`.
    ///
    /// # Panics
    /// Panics if the row holds more than `u32::MAX` link ids (impossible
    /// for any topology whose diameter × node count fits in 32 bits).
    pub fn build<T: Topology + ?Sized>(topo: &T, src: NodeId) -> Self {
        SourceRow(Csr::row(topo.num_nodes(), |d, links| {
            topo.route_into(src, NodeId(d as u32), links)
        }))
    }

    /// The precomputed route to `dst` as a link slice.
    #[inline]
    pub fn route_of(&self, dst: NodeId) -> &[LinkId] {
        self.0.entry(0, dst.idx())
    }

    /// Hop count to `dst` (CSR row-length difference; no route walk).
    #[inline]
    pub fn hops(&self, dst: NodeId) -> u32 {
        self.0.entry_len(0, dst.idx())
    }

    /// Number of destinations (= nodes of the topology).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.0.width
    }
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
    /// Panics if the table would hold more than `u32::MAX` link ids; use
    /// the lazy mode of [`RoutedTopology`] for machines that large.
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

    /// Total link ids stored (Σ hops over all ordered pairs).
    #[inline]
    pub fn total_route_links(&self) -> usize {
        self.csr.links.len()
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

/// The terminal expansion of every compressed store: with `p` nodes per
/// router, a route is `[terminal(src)] ++ core(src/p, dst/p) ++
/// [terminal(dst)]` with terminal link ids equal to node ids. Nodes on one
/// router share an empty core, and a node routes to itself over nothing.
/// Clears `scratch`, expands the route into it and returns it.
#[inline]
fn terminal_route<'s, 'c>(
    p: usize,
    src: NodeId,
    dst: NodeId,
    scratch: &'s mut Vec<LinkId>,
    core: impl FnOnce(usize, usize) -> &'c [LinkId],
) -> &'s [LinkId] {
    scratch.clear();
    if src != dst {
        scratch.push(LinkId(src.0));
        let (rs, rd) = (src.idx() / p, dst.idx() / p);
        if rs != rd {
            scratch.extend_from_slice(core(rs, rd));
        }
        scratch.push(LinkId(dst.0));
    }
    scratch
}

/// Hop count of the route [`terminal_route`] expands, without expanding
/// it: two terminal hops plus the core's length.
#[inline]
fn terminal_hops<'c>(
    p: usize,
    src: NodeId,
    dst: NodeId,
    core: impl FnOnce(usize, usize) -> &'c [LinkId],
) -> u32 {
    let (rs, rd) = (src.idx() / p, dst.idx() / p);
    match (src == dst, rs == rd) {
        (true, _) => 0,
        (false, true) => 2,
        (false, false) => 2 + core(rs, rd).len() as u32,
    }
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
        let p = router_symmetry(topo).expect(NEEDS_SYMMETRY);
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
    /// return it as a slice: terminal, stored core, terminal.
    #[inline]
    pub fn route_of<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        terminal_route(self.nodes_per_router, src, dst, scratch, |rs, rd| {
            self.core_of(rs, rd)
        })
    }

    /// Hop count of a node pair (two terminals plus the core's CSR offset
    /// difference; no route expansion).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        terminal_hops(self.nodes_per_router, src, dst, |rs, rd| {
            self.core_of(rs, rd)
        })
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
        let storage = match self {
            SharedRoutes::Flat(t) => Storage::Dense(Arc::clone(t)),
            SharedRoutes::Compressed(t) => Storage::Compressed(Arc::clone(t)),
        };
        RoutedTopology { topo, storage }
    }
}

/// Route storage of a [`RoutedTopology`].
enum Storage {
    /// Full dense CSR table.
    Dense(Arc<RouteTable>),
    /// Compressed router-pair core table.
    Compressed(Arc<CompressedRouteTable>),
    /// Per-source CSR rows, built on first touch (thread-safe).
    Lazy(Vec<OnceLock<SourceRow>>),
    /// Nodes per router and one core row per source router, each built
    /// on first touch — the compressed analogue of `Lazy` for
    /// router-symmetric machines past [`COMPRESSED_PAIR_LIMIT`].
    LazyCompressed(usize, Vec<OnceLock<Csr>>),
    /// No caching: every lookup routes into the caller's scratch buffer.
    Direct,
}

/// A topology bundled with precomputed (or on-demand) routes — the handle
/// the replay engine and the mapping optimizers consume.
///
/// All storage modes answer [`route_of`](RoutedTopology::route_of) and
/// [`hops`](RoutedTopology::hops) with identical values; they only trade
/// memory for lookup cost:
///
/// * [`StoragePlan::Dense`] — one [`RouteTable`], O(1) slice lookups,
///   `O(n²·hops̄)` memory. Best for sweeps at paper scale.
/// * [`StoragePlan::Compressed`] — one [`CompressedRouteTable`] over
///   router pairs, terminal hops expanded into the caller's scratch. Best
///   for router-symmetric machines past the dense limit (100k–1M
///   endpoints).
/// * [`StoragePlan::Lazy`] — one [`SourceRow`] per *touched* source,
///   built on first use. Best when the machine is much larger than the
///   communicating node set (e.g. the 13 824-node fat tree).
/// * [`StoragePlan::LazyCompressed`] — one core row per *touched source
///   router*, for symmetric machines past even [`COMPRESSED_PAIR_LIMIT`].
/// * [`direct`](RoutedTopology::direct) — no caching; lookups route into
///   a caller-provided scratch buffer. Best for one-shot replays.
///
/// The module docs list the four ways to make one.
pub struct RoutedTopology<'a> {
    topo: &'a dyn Topology,
    storage: Storage,
}

impl<'a> RoutedTopology<'a> {
    /// Storage as `plan` says: a table built up front for the dense and
    /// compressed plans (see [`StoragePlan::build_table`]), or rows built
    /// on first touch of each source (router) for the lazy ones.
    ///
    /// # Panics
    /// Panics if a compressed plan meets a topology without a usable
    /// [`SymmetryHint::RouterSymmetric`] hint.
    pub fn with_plan(topo: &'a dyn Topology, plan: StoragePlan) -> Self {
        let storage = match plan {
            StoragePlan::Dense | StoragePlan::Compressed => {
                let table = plan.build_table(topo).expect("table plans build a table");
                return table.routed(topo);
            }
            StoragePlan::Lazy => {
                Storage::Lazy((0..topo.num_nodes()).map(|_| OnceLock::new()).collect())
            }
            StoragePlan::LazyCompressed => {
                let p = router_symmetry(topo).expect(NEEDS_SYMMETRY);
                let rows = (0..topo.num_nodes() / p).map(|_| OnceLock::new()).collect();
                Storage::LazyCompressed(p, rows)
            }
        };
        RoutedTopology { topo, storage }
    }

    /// Storage as [`StoragePlan::of`] plans it for `topo`: dense up to
    /// [`DENSE_PAIR_LIMIT`] node pairs; above that, compressed storage when
    /// the topology advertises router symmetry (full table up to
    /// [`COMPRESSED_PAIR_LIMIT`] router pairs, lazy core rows beyond); lazy
    /// flat rows otherwise.
    pub fn auto(topo: &'a dyn Topology) -> Self {
        Self::with_plan(topo, StoragePlan::of(topo))
    }

    /// No precomputation: lookups route into the caller's scratch buffer.
    pub fn direct(topo: &'a dyn Topology) -> Self {
        RoutedTopology {
            storage: Storage::Direct,
            topo,
        }
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
        match &self.storage {
            Storage::Dense(t) => Some(t),
            _ => None,
        }
    }

    /// The compressed table, when this handle holds (or shares) one.
    pub fn compressed_table(&self) -> Option<&CompressedRouteTable> {
        match &self.storage {
            Storage::Compressed(t) => Some(t),
            _ => None,
        }
    }

    /// Whether lookups are served from precomputed CSR storage.
    pub fn is_precomputed(&self) -> bool {
        !matches!(self.storage, Storage::Direct)
    }

    /// The core `rs → rd` from lazily built core rows.
    fn lazy_core<'r>(
        &self,
        p: usize,
        rows: &'r [OnceLock<Csr>],
        rs: usize,
        rd: usize,
    ) -> &'r [LinkId] {
        rows[rs]
            .get_or_init(|| Csr::row(rows.len(), |d, links| core_into(self.topo, p, rs, d, links)))
            .entry(0, rd)
    }

    /// The route of a pair. Dense and lazy modes return a slice into CSR
    /// storage and leave `scratch` untouched; compressed and direct modes
    /// clear and fill `scratch` (compressed expands the two terminal hops
    /// around the stored core). Callers in tight loops reuse one scratch
    /// buffer and never allocate per pair.
    #[inline]
    pub fn route_of<'s>(
        &'s self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        match &self.storage {
            Storage::Dense(table) => table.route_of(src, dst),
            Storage::Compressed(table) => table.route_of(src, dst, scratch),
            Storage::Lazy(rows) => rows[src.idx()]
                .get_or_init(|| SourceRow::build(self.topo, src))
                .route_of(dst),
            Storage::LazyCompressed(p, rows) => terminal_route(*p, src, dst, scratch, |rs, rd| {
                self.lazy_core(*p, rows, rs, rd)
            }),
            Storage::Direct => {
                scratch.clear();
                self.topo.route_into(src, dst, scratch);
                scratch
            }
        }
    }

    /// Hop count of a pair. Dense, compressed and lazy modes read it off
    /// CSR offsets; direct mode defers to [`Topology::hops`] (closed-form
    /// on most topologies).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.storage {
            Storage::Dense(table) => table.hops(src, dst),
            Storage::Compressed(table) => table.hops(src, dst),
            Storage::Lazy(rows) => rows[src.idx()]
                .get_or_init(|| SourceRow::build(self.topo, src))
                .hops(dst),
            Storage::LazyCompressed(p, rows) => {
                terminal_hops(*p, src, dst, |rs, rd| self.lazy_core(*p, rows, rs, rd))
            }
            Storage::Direct => self.topo.hops(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, FatTree, Torus3D};

    fn all_topos() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(Torus3D::new([3, 3, 2])),
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
    fn lazy_and_direct_agree_with_dense() {
        for topo in all_topos() {
            let dense = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Dense);
            let lazy = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::Lazy);
            let direct = RoutedTopology::direct(topo.as_ref());
            let n = topo.num_nodes();
            let (mut b1, mut b2, mut b3) = (Vec::new(), Vec::new(), Vec::new());
            for s in (0..n).step_by(3) {
                for d in (0..n).rev().step_by(2) {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = dense.route_of(s, d, &mut b1).to_vec();
                    assert_eq!(lazy.route_of(s, d, &mut b2), &r[..]);
                    assert_eq!(direct.route_of(s, d, &mut b3), &r[..]);
                    assert_eq!(dense.hops(s, d), r.len() as u32);
                    assert_eq!(lazy.hops(s, d), r.len() as u32);
                    assert_eq!(direct.hops(s, d), r.len() as u32);
                }
            }
        }
    }

    #[test]
    fn source_row_matches_table_row() {
        let topo = Torus3D::new([4, 3, 2]);
        let table = RouteTable::build(&topo);
        for s in 0..topo.num_nodes() {
            let row = SourceRow::build(&topo, NodeId(s as u32));
            assert_eq!(row.num_nodes(), topo.num_nodes());
            for d in 0..topo.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(row.route_of(dn), table.route_of(sn, dn));
                assert_eq!(row.hops(dn), table.hops(sn, dn));
            }
        }
    }

    #[test]
    fn memory_accounting_is_exact() {
        let topo = Torus3D::new([3, 3, 3]);
        let table = RouteTable::build(&topo);
        let n = topo.num_nodes();
        assert_eq!(
            table.memory_bytes(),
            4 * (n * n + 1) + 4 * table.total_route_links()
        );
        // Σ hops over ordered pairs of the 3×3×3 torus: mean distance is
        // (6·1 + 12·2 + 8·3)/26 per source... just cross-check the matrix.
        let expect: usize = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .map(|(s, d)| topo.hops(NodeId(s as u32), NodeId(d as u32)) as usize)
            .sum();
        assert_eq!(table.total_route_links(), expect);
    }

    #[test]
    fn auto_picks_dense_for_small_machines() {
        let small = Torus3D::new([4, 4, 4]);
        assert_eq!(StoragePlan::of(&small), StoragePlan::Dense);
        assert!(RoutedTopology::auto(&small).table().is_some());
        assert!(RoutedTopology::auto(&small).is_precomputed());
        assert!(!RoutedTopology::direct(&small).is_precomputed());
    }

    #[test]
    fn shared_table_agrees_with_dense_across_handles() {
        let topo = Torus3D::new([3, 3, 2]);
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
        let a = Torus3D::new([2, 2, 2]);
        let b = Torus3D::new([3, 3, 3]);
        SharedRoutes::Flat(Arc::new(RouteTable::build(&a))).routed(&b);
    }

    #[test]
    fn byte_codec_round_trips_exactly() {
        let topo = Torus3D::new([3, 4, 2]);
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
        let table = RouteTable::build(&Torus3D::new([2, 2, 2]));
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
            let lazy_c = RoutedTopology::with_plan(topo.as_ref(), StoragePlan::LazyCompressed);
            let n = topo.num_nodes();
            let (mut b1, mut b2, mut b3) = (Vec::new(), Vec::new(), Vec::new());
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
                    assert_eq!(lazy_c.route_of(s, d, &mut b3), &r[..]);
                    assert_eq!(compressed.hops(s, d), r.len() as u32);
                    assert_eq!(lazy_c.hops(s, d), r.len() as u32);
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
        assert_eq!(StoragePlan::of(&sf), StoragePlan::Compressed);
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
    fn auto_falls_back_to_lazy_core_rows_past_compressed_limit() {
        // 9 000 routers -> R² = 81M > COMPRESSED_PAIR_LIMIT; symmetric, so
        // the picker takes lazy per-source-router core rows.
        let jf = crate::Jellyfish::new(9_000, 4, 1, 1);
        assert_eq!(StoragePlan::of(&jf), StoragePlan::LazyCompressed);
        let routed = RoutedTopology::auto(&jf);
        assert!(routed.compressed_table().is_none());
        assert!(routed.table().is_none());
        assert!(routed.is_precomputed());
        let direct = RoutedTopology::direct(&jf);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for (s, d) in [(0u32, 8_999u32), (17, 1200), (100, 101), (9, 9)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut b1).to_vec(),
                direct.route_of(NodeId(s), NodeId(d), &mut b2).to_vec()
            );
            assert_eq!(
                routed.hops(NodeId(s), NodeId(d)),
                direct.hops(NodeId(s), NodeId(d))
            );
        }
    }

    #[test]
    fn auto_keeps_lazy_flat_rows_for_asymmetric_machines() {
        // A 80k-node torus is past the dense limit and has no symmetry
        // hint; auto must fall back to lazy flat rows (allocation only,
        // no routing happens here).
        let t = crate::TorusNd::new(&[200, 200, 2]);
        assert_eq!(StoragePlan::of(&t), StoragePlan::Lazy);
        let routed = RoutedTopology::auto(&t);
        assert!(routed.table().is_none());
        assert!(routed.compressed_table().is_none());
        assert!(routed.is_precomputed());
    }

    #[test]
    #[should_panic(expected = "router-symmetric")]
    fn compressed_rejects_topologies_without_symmetry() {
        let t = Torus3D::new([3, 3, 3]);
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
