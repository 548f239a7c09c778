//! Canonical topology × mapping × workload sweep grids.
//!
//! The paper's results are a static grid — every application trace replayed
//! through 3 topologies × 3 mappings × several machine sizes (§4.2, Tables
//! 4–6). The job subsystem (service `POST /v1/jobs`, `netloc sweep
//! --remote`) needs a grid identity that is *total-ordered and canonical*:
//! every instance that receives the same spec — however its axes were
//! spelled or ordered — must expand it to the identical cell sequence,
//! because cell indices are the unit of sharding, progress reporting, and
//! resume-after-SIGKILL. [`GridSpec`] is that identity: axes are parsed,
//! rendered to their canonical spec strings, sorted, and deduplicated, so
//! the cell at index `i` is the same (topology, mapping, workload)
//! everywhere, forever. The runners (`netloc_bench::sweepjob` locally, the
//! service's job workers remotely) replay cells by index; the service's
//! workers share one route table per topology through its topology cache.
//!
//! ```
//! use netloc_core::sweep::GridSpec;
//!
//! let grid = GridSpec::parse(
//!     &["torus:04,4,4", "dragonfly:4,2,2"],
//!     &["random", "consecutive"],
//!     &["LULESH:64"],
//! )
//! .unwrap();
//! assert_eq!(grid.cell_count(), 4);
//! let first = grid.cell(0).unwrap();
//! assert_eq!(first.topology, "dragonfly:4,2,2");
//! assert_eq!(first.mapping, "consecutive");
//! // Spelling does not matter: `torus:04,4,4` is `torus:4,4,4`.
//! assert_eq!(grid.cell(3).unwrap().topology, "torus:4,4,4");
//! assert_eq!(grid.cell(3).unwrap().mapping, "random:0");
//! ```

use netloc_topology::spec::{MappingSpec, TopologySpec};

/// One fully-expanded cell of a [`GridSpec`]: its global index and the
/// canonical spec strings that identify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCell {
    /// Global cell index in grid order (topology-major, then mapping,
    /// then workload).
    pub index: u64,
    /// Canonical topology spec string.
    pub topology: String,
    /// Canonical mapping spec string.
    pub mapping: String,
    /// Canonical workload spec string (`"APP NAME:RANKS"`; the caller
    /// canonicalizes the application name before building the grid).
    pub workload: String,
}

/// A canonical topology × mapping × workload grid.
///
/// Construction normalizes each axis (parse → canonical `Display`,
/// sort, dedup), which makes the expansion a pure function of the
/// *meaning* of the spec, not its spelling: `torus:04,4,4` and
/// `torus:4,4,4` land in the same grid slot on every instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    topologies: Vec<String>,
    mappings: Vec<String>,
    workloads: Vec<String>,
}

impl GridSpec {
    /// Parse and canonicalize a grid. Every topology and mapping string
    /// must parse under the shared spec grammar (`auto` is rejected —
    /// a grid mixes rank counts, so there is nothing to resolve it
    /// against); workload strings are taken as given (callers resolve
    /// app names to their canonical form first) but must be non-empty.
    pub fn parse<T, M, W>(topologies: &[T], mappings: &[M], workloads: &[W]) -> Result<Self, String>
    where
        T: AsRef<str>,
        M: AsRef<str>,
        W: AsRef<str>,
    {
        if topologies.is_empty() || mappings.is_empty() || workloads.is_empty() {
            return Err("a grid needs at least one topology, mapping, and workload".into());
        }
        let mut topos = Vec::with_capacity(topologies.len());
        for t in topologies {
            let spec: TopologySpec = t
                .as_ref()
                .parse()
                .map_err(|e| format!("bad topology '{}': {e}", t.as_ref()))?;
            if spec == TopologySpec::Auto {
                return Err("grids need concrete topologies; 'auto' cannot be resolved \
                     against a multi-workload grid"
                    .into());
            }
            topos.push(spec.to_string());
        }
        let mut maps = Vec::with_capacity(mappings.len());
        for m in mappings {
            let spec: MappingSpec = m
                .as_ref()
                .parse()
                .map_err(|e| format!("bad mapping '{}': {e}", m.as_ref()))?;
            maps.push(spec.to_string());
        }
        let mut wls = Vec::with_capacity(workloads.len());
        for w in workloads {
            let w = w.as_ref().trim();
            if w.is_empty() {
                return Err("empty workload spec".into());
            }
            wls.push(w.to_string());
        }
        topos.sort();
        topos.dedup();
        maps.sort();
        maps.dedup();
        wls.sort();
        wls.dedup();
        Ok(GridSpec {
            topologies: topos,
            mappings: maps,
            workloads: wls,
        })
    }

    /// Canonical topology spec strings, sorted.
    pub fn topologies(&self) -> &[String] {
        &self.topologies
    }

    /// Canonical mapping spec strings, sorted.
    pub fn mappings(&self) -> &[String] {
        &self.mappings
    }

    /// Canonical workload spec strings, sorted.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Total cells in the grid.
    pub fn cell_count(&self) -> u64 {
        self.topologies.len() as u64 * self.mappings.len() as u64 * self.workloads.len() as u64
    }

    /// Expand cell `index` (grid order: topology-major, then mapping,
    /// then workload).
    pub fn cell(&self, index: u64) -> Option<GridCell> {
        if index >= self.cell_count() {
            return None;
        }
        let w = self.workloads.len() as u64;
        let m = self.mappings.len() as u64;
        let wi = (index % w) as usize;
        let mi = ((index / w) % m) as usize;
        let ti = (index / (w * m)) as usize;
        Some(GridCell {
            index,
            topology: self.topologies[ti].clone(),
            mapping: self.mappings[mi].clone(),
            workload: self.workloads[wi].clone(),
        })
    }

    /// The global indices assigned to `shard` under a seeded
    /// deterministic partition into `shards` parts, ascending. Every
    /// instance computes the same partition from (seed, shards) alone;
    /// the union over all shards is exactly `0..cell_count()` and the
    /// shards are pairwise disjoint by construction.
    pub fn assigned(&self, seed: u64, shards: u32, shard: u32) -> Vec<u64> {
        (0..self.cell_count())
            .filter(|&i| shard_of(i, seed, shards) == shard)
            .collect()
    }
}

/// Which of `shards` partitions cell `index` belongs to — a pure
/// splitmix64 hash of (seed, index), so assignment is deterministic
/// across instances and uniform enough that shards stay balanced.
pub fn shard_of(index: u64, seed: u64, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    (splitmix64(seed ^ splitmix64(index ^ 0x6e65_746c_6f63_5f6a)) % shards as u64) as u32
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spec_canonicalizes_spelling_and_order() {
        let a = GridSpec::parse(
            &["torus:04,4,4", "dragonfly:4,2,2"],
            &["random", "consecutive"],
            &["B:64", "A:64"],
        )
        .unwrap();
        let b = GridSpec::parse(
            &["dragonfly:4,2,2", "torus:4,4,4", "torus:4,4,4"],
            &["consecutive", "random:0"],
            &["A:64", "B:64", "B:64"],
        )
        .unwrap();
        assert_eq!(a, b, "spelling and order must not matter");
        assert_eq!(a.cell_count(), 2 * 2 * 2);
        let c0 = a.cell(0).unwrap();
        assert_eq!(
            (
                c0.topology.as_str(),
                c0.mapping.as_str(),
                c0.workload.as_str()
            ),
            ("dragonfly:4,2,2", "consecutive", "A:64")
        );
        let last = a.cell(7).unwrap();
        assert_eq!(last.topology, "torus:4,4,4");
        assert_eq!(last.workload, "B:64");
        assert!(a.cell(8).is_none());
    }

    #[test]
    fn grid_spec_rejects_bad_axes() {
        assert!(GridSpec::parse::<&str, &str, &str>(&[], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["auto"], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:0,1,1"], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:2,2,2"], &["nope"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:2,2,2"], &["consecutive"], &["  "]).is_err());
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let g = GridSpec::parse(
            &["torus:3,3,3", "torus:4,4,4", "mesh:2,2,2"],
            &["consecutive", "random:7"],
            &["A:27", "B:27", "C:27", "D:27", "E:27"],
        )
        .unwrap();
        for shards in [1u32, 2, 3, 7] {
            let mut seen = vec![false; g.cell_count() as usize];
            for s in 0..shards {
                for i in g.assigned(42, shards, s) {
                    assert!(!seen[i as usize], "cell {i} assigned twice");
                    seen[i as usize] = true;
                    assert_eq!(shard_of(i, 42, shards), s);
                }
            }
            assert!(seen.iter().all(|&x| x), "every cell must land in a shard");
        }
        // Different seeds give different partitions (with overwhelming
        // probability on 30 cells / 2 shards).
        assert_ne!(g.assigned(1, 2, 0), g.assigned(2, 2, 0));
    }
}
