//! Shared machinery for the synthetic workload generators.
//!
//! Every generator describes its communication structure as a [`Pattern`]:
//! point-to-point entries with *relative weights* and repeat counts, plus
//! collective call specifications. [`Pattern::into_trace`] then calibrates
//! absolute byte sizes so that the trace's total p2p and collective volumes
//! match the Table 1 targets of the configuration — the pattern *shape*
//! (who talks to whom, and in which proportions) is the modeled quantity,
//! the volume scale is taken from the paper.

pub mod amg;
pub mod amr;
pub mod bigfft;
pub mod boxlib_cns;
pub mod boxlib_mg;
pub mod cmc;
pub mod crystal;
pub mod fillboundary;
pub mod lulesh;
pub mod minife;
pub mod mocfe;
pub mod multigrid_c;
pub mod nekbone;
pub mod partisn;
pub mod seeded;
pub mod snap;

use netloc_mpi::{CollectiveOp, Payload, Rank, Trace, TraceBuilder};
use netloc_topology::grid::{coords, rank_of};

/// One collective call specification with a relative volume weight.
#[derive(Debug, Clone)]
pub struct CollSpec {
    /// The operation.
    pub op: CollectiveOp,
    /// Communicator-local root for rooted operations.
    pub root: Option<usize>,
    /// Relative per-rank payload weight.
    pub weight: f64,
    /// Repeat count.
    pub repeat: u64,
}

/// A communication pattern in relative-weight form.
#[derive(Debug, Clone)]
pub struct Pattern {
    ranks: u32,
    p2p: Vec<(u32, u32, f64, u64)>,
    colls: Vec<CollSpec>,
}

impl Pattern {
    /// Empty pattern over `ranks` ranks.
    pub fn new(ranks: u32) -> Self {
        Pattern {
            ranks,
            p2p: Vec::new(),
            colls: Vec::new(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Add a p2p entry: `repeat` messages of relative size `weight`.
    /// Self-pairs and zero weights are ignored.
    pub fn p2p(&mut self, src: u32, dst: u32, weight: f64, repeat: u64) {
        debug_assert!(src < self.ranks && dst < self.ranks);
        if src != dst && weight > 0.0 && repeat > 0 {
            self.p2p.push((src, dst, weight, repeat));
        }
    }

    /// Add a world collective.
    pub fn coll(&mut self, op: CollectiveOp, root: Option<usize>, weight: f64, repeat: u64) {
        self.colls.push(CollSpec {
            op,
            root,
            weight,
            repeat,
        });
    }

    /// Calibrate to byte targets and build the trace.
    ///
    /// P2p message sizes become `weight × (p2p_target / Σ weight·repeat)`
    /// (at least 1 byte); collective per-rank payloads are scaled so the sum
    /// of their *translated* volumes meets `coll_target`.
    pub fn into_trace(
        self,
        app: &str,
        exec_time_s: f64,
        p2p_target: u64,
        coll_target: u64,
    ) -> Trace {
        let mut b = TraceBuilder::new(app, self.ranks).exec_time_s(exec_time_s);

        if p2p_target > 0 && !self.p2p.is_empty() {
            let unit: f64 = self.p2p.iter().map(|&(_, _, w, r)| w * r as f64).sum();
            let scale = p2p_target as f64 / unit;
            for (src, dst, w, repeat) in &self.p2p {
                let bytes = ((w * scale).round() as u64).max(1);
                b.send(Rank(*src), Rank(*dst), bytes, *repeat);
            }
        }

        if coll_target > 0 && !self.colls.is_empty() {
            // Translated volume of each op per 1.0 (real-valued) bytes of
            // uniform per-rank payload. A closed form is needed here: the
            // integer `collective_volume` floors vector splits, which would
            // make a 1-byte probe read as zero volume.
            let unit: f64 = self
                .colls
                .iter()
                .map(|c| unit_volume(c.op, self.ranks as f64) * c.weight * c.repeat as f64)
                .sum();
            let scale = if unit > 0.0 {
                coll_target as f64 / unit
            } else {
                0.0
            };
            for c in &self.colls {
                let payload = ((c.weight * scale).round() as u64).max(1);
                b.collective(c.op, c.root, Payload::Uniform(payload), c.repeat);
            }
        }
        b.build()
    }
}

/// Bytes injected by one collective call per 1.0 bytes of uniform per-rank
/// payload, as a real number (mirrors
/// [`netloc_mpi::collective::collective_volume`] without integer flooring).
fn unit_volume(op: CollectiveOp, n: f64) -> f64 {
    match op {
        CollectiveOp::Barrier => 0.0,
        CollectiveOp::Bcast
        | CollectiveOp::Gather
        | CollectiveOp::Gatherv
        | CollectiveOp::Scatter
        | CollectiveOp::Scatterv
        | CollectiveOp::Reduce
        | CollectiveOp::Scan => n - 1.0,
        CollectiveOp::Allgather | CollectiveOp::Allgatherv | CollectiveOp::Alltoall => {
            n * (n - 1.0)
        }
        // Per-rank payload is the rank's *total*, split over the others.
        CollectiveOp::Alltoallv => n,
        CollectiveOp::Allreduce => 2.0 * (n - 1.0),
        CollectiveOp::ReduceScatter => n * n - 1.0,
    }
}

/// Per-axis-direction weights of a 3D halo-exchange stencil.
///
/// Real halo exchanges are anisotropic: face messages scale with the face
/// area of the local box, edges with its edge length, corners are single
/// cells. The per-axis face weights additionally model non-cubic local
/// boxes (which is what pushes the paper's selectivity values below 6).
#[derive(Debug, Clone, Copy)]
pub struct StencilWeights {
    /// Face weights per axis (±x, ±y, ±z).
    pub face: [f64; 3],
    /// Weight of each of the 12 edge neighbors.
    pub edge: f64,
    /// Weight of each of the 8 corner neighbors.
    pub corner: f64,
}

/// Add a full 27-point (faces + edges + corners) halo exchange on `dims`
/// (row-major rank layout, no wraparound — grid boundaries simply have
/// fewer neighbors). `stride` spaces the participating ranks (used for
/// multigrid coarse levels): only ranks whose coordinates are multiples of
/// `stride` participate, and their neighbors sit `stride` cells away.
pub fn add_stencil27(
    p: &mut Pattern,
    dims: &[usize; 3],
    w: StencilWeights,
    weight_scale: f64,
    repeat: u64,
    stride: usize,
) {
    let n = dims[0] * dims[1] * dims[2];
    debug_assert!(n as u32 <= p.ranks());
    let s = stride.max(1) as i64;
    for r in 0..n {
        let c = coords(r, dims);
        if c.iter().any(|&x| x as i64 % s != 0) {
            continue;
        }
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let nx = c[0] as i64 + dx * s;
                    let ny = c[1] as i64 + dy * s;
                    let nz = c[2] as i64 + dz * s;
                    if nx < 0
                        || ny < 0
                        || nz < 0
                        || nx >= dims[0] as i64
                        || ny >= dims[1] as i64
                        || nz >= dims[2] as i64
                    {
                        continue;
                    }
                    let kind = dx.abs() + dy.abs() + dz.abs();
                    let weight = match kind {
                        1 => {
                            let axis = if dx != 0 {
                                0
                            } else if dy != 0 {
                                1
                            } else {
                                2
                            };
                            w.face[axis]
                        }
                        2 => w.edge,
                        _ => w.corner,
                    } * weight_scale;
                    let nb = rank_of(&[nx as usize, ny as usize, nz as usize], dims);
                    p.p2p(r as u32, nb as u32, weight, repeat);
                }
            }
        }
    }
}

/// 3D grid dimensions for `n` ranks using the shared folding convention.
pub fn grid3(n: u32) -> [usize; 3] {
    let d = netloc_topology::grid::fold_dims(n as usize, 3);
    [d[0], d[1], d[2]]
}

/// 2D grid dimensions for `n` ranks using the shared folding convention.
pub fn grid2(n: u32) -> [usize; 2] {
    let d = netloc_topology::grid::fold_dims(n as usize, 2);
    [d[0], d[1]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_mpi::Event;

    #[test]
    fn calibration_hits_p2p_target() {
        let mut p = Pattern::new(4);
        p.p2p(0, 1, 3.0, 10);
        p.p2p(1, 2, 1.0, 10);
        let t = p.into_trace("x", 1.0, 1_000_000, 0);
        let s = t.stats();
        assert!(s.p2p_bytes.abs_diff(1_000_000) < 20, "{}", s.p2p_bytes);
        assert_eq!(s.coll_bytes, 0);
    }

    #[test]
    fn calibration_hits_coll_target() {
        let mut p = Pattern::new(8);
        p.coll(CollectiveOp::Allreduce, None, 1.0, 100);
        p.coll(CollectiveOp::Bcast, Some(0), 2.0, 50);
        let t = p.into_trace("x", 1.0, 0, 5_000_000);
        let s = t.stats();
        let rel = (s.coll_bytes as f64 - 5e6).abs() / 5e6;
        assert!(rel < 0.01, "{}", s.coll_bytes);
    }

    #[test]
    fn weights_set_relative_message_sizes() {
        let mut p = Pattern::new(4);
        p.p2p(0, 1, 9.0, 1);
        p.p2p(0, 2, 1.0, 1);
        let t = p.into_trace("x", 1.0, 100_000, 0);
        let sizes: Vec<u64> = t
            .events
            .iter()
            .filter_map(|e| e.event.p2p_bytes())
            .collect();
        assert_eq!(sizes.len(), 2);
        let ratio = sizes[0] as f64 / sizes[1] as f64;
        assert!((ratio - 9.0).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn self_pairs_are_dropped() {
        let mut p = Pattern::new(4);
        p.p2p(1, 1, 5.0, 1);
        let t = p.into_trace("x", 1.0, 1000, 0);
        assert_eq!(t.events.len(), 0);
    }

    #[test]
    fn stencil_interior_rank_has_26_neighbors() {
        let mut p = Pattern::new(27);
        add_stencil27(
            &mut p,
            &[3, 3, 3],
            StencilWeights {
                face: [1.0; 3],
                edge: 1.0,
                corner: 1.0,
            },
            1.0,
            1,
            1,
        );
        let center = 13u32; // (1,1,1)
        let out = p.p2p.iter().filter(|&&(s, _, _, _)| s == center).count();
        assert_eq!(out, 26);
        // corner rank (0,0,0) has 7 neighbors
        let corner = p.p2p.iter().filter(|&&(s, _, _, _)| s == 0).count();
        assert_eq!(corner, 7);
    }

    #[test]
    fn strided_stencil_skips_fine_ranks() {
        let mut p = Pattern::new(64);
        add_stencil27(
            &mut p,
            &[4, 4, 4],
            StencilWeights {
                face: [1.0; 3],
                edge: 0.0,
                corner: 0.0,
            },
            1.0,
            1,
            2,
        );
        // participants have all-even coordinates: 2x2x2 = 8 ranks
        let mut sources: Vec<u32> = p.p2p.iter().map(|&(s, _, _, _)| s).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 8);
        // stride-2 neighbors are 2 apart in x: rank 0 -> rank 2
        assert!(p.p2p.iter().any(|&(s, d, _, _)| s == 0 && d == 2));
    }

    #[test]
    fn into_trace_validates() {
        let mut p = Pattern::new(16);
        add_stencil27(
            &mut p,
            &grid3(16).map(|x| x),
            StencilWeights {
                face: [4.0; 3],
                edge: 1.0,
                corner: 0.5,
            },
            1.0,
            5,
            1,
        );
        p.coll(CollectiveOp::Allreduce, None, 1.0, 3);
        let t = p.into_trace("grid", 2.0, 1 << 20, 1 << 16);
        t.validate().unwrap();
        assert!(matches!(t.events[0].event, Event::Send { .. }));
    }
}
