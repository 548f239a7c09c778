//! Textual topology and mapping specs with a canonical form.
//!
//! One grammar, three consumers: the `netloc` CLI (`--topology`,
//! `--mapping`), the analysis service (request fields *and* cache keys),
//! and tests that want to name a configuration as a plain string. Parsing
//! (`FromStr`) validates eagerly and returns [`SpecError`] — it never
//! panics, whatever the input, because the service feeds it untrusted
//! request bytes. `Display` renders the *canonical* form: parse → display
//! is a normalization (`torus:04,4,4` → `torus:4,4,4`), and the canonical
//! string is exactly what the service's content-addressed result cache
//! keys on, so two spellings of the same configuration share one cache
//! entry.
//!
//! ```
//! use netloc_topology::spec::{MappingSpec, TopologySpec};
//!
//! let t: TopologySpec = "torus:04,4,4".parse().unwrap();
//! assert_eq!(t.to_string(), "torus:4,4,4");
//! assert_eq!(t.build().unwrap().num_nodes(), 64);
//!
//! let m: MappingSpec = "random".parse().unwrap();
//! assert_eq!(m.to_string(), "random:0"); // the implied seed made explicit
//! ```

use crate::config::ConfigCatalog;
use crate::{
    Dragonfly, FatTree, HyperX, Jellyfish, Mapping, NodeId, RoutedTopology, SlimFly, Topology,
    Torus, ValiantDragonfly,
};
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// Parse/validation failure for a topology or mapping spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Node-count ceiling accepted by spec parsing (2²² nodes ≈ 4M). The
/// topology constructors themselves only require the count to fit `u32`;
/// the tighter bound here keeps a hostile service request from asking for
/// a multi-terabyte link table.
pub const MAX_SPEC_NODES: usize = 1 << 22;

/// A parsed topology spec — the paper's three families plus the generic
/// N-dimensional torus, the mesh variant, Valiant-routed dragonfly, and
/// `auto` (the Table 2 torus for a given rank count).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// `torus:X,Y,Z`
    Torus([usize; 3]),
    /// `torusnd:D1,D2,…`
    TorusNd(Vec<usize>),
    /// `mesh:X,Y,Z`
    Mesh([usize; 3]),
    /// `fattree:RADIX,STAGES`
    FatTree {
        /// Switch radix.
        radix: usize,
        /// Number of stages.
        stages: usize,
    },
    /// `dragonfly:A,H,P`
    Dragonfly {
        /// Routers per group.
        a: usize,
        /// Global links per router.
        h: usize,
        /// Nodes per router.
        p: usize,
    },
    /// `dragonfly-valiant:A,H,P`
    ValiantDragonfly {
        /// Routers per group.
        a: usize,
        /// Global links per router.
        h: usize,
        /// Nodes per router.
        p: usize,
    },
    /// `slimfly:Q,P` — MMS graph over the prime `q ≡ 1 (mod 4)`, `p`
    /// nodes per router.
    SlimFly {
        /// MMS prime (`2q²` routers).
        q: usize,
        /// Nodes per router.
        p: usize,
    },
    /// `hyperx:D1xD2x…,P` — router lattice extents joined by `x`, `p`
    /// nodes per router.
    HyperX {
        /// Dimension extents of the router lattice.
        dims: Vec<usize>,
        /// Nodes per router.
        p: usize,
    },
    /// `jellyfish:ROUTERS,DEGREE,P[,SEED]` (bare spec implies seed 0,
    /// made explicit in the canonical form).
    Jellyfish {
        /// Number of routers.
        routers: usize,
        /// Router degree of the random regular graph.
        degree: usize,
        /// Nodes per router.
        p: usize,
        /// RNG seed; equal seeds give equal graphs.
        seed: u64,
    },
    /// `auto` — resolved against a rank count via [`TopologySpec::resolve`].
    Auto,
}

impl TopologySpec {
    /// Number of compute nodes the spec describes (`None` for `auto`,
    /// which has no size until resolved).
    pub fn num_nodes(&self) -> Option<usize> {
        match self {
            TopologySpec::Torus(d) | TopologySpec::Mesh(d) => Some(d.iter().product()),
            TopologySpec::TorusNd(d) => Some(d.iter().product()),
            TopologySpec::FatTree { radix, stages } => (radix / 2).checked_pow(*stages as u32),
            TopologySpec::Dragonfly { a, h, p } | TopologySpec::ValiantDragonfly { a, h, p } => {
                Some(a * p * (a * h + 1))
            }
            TopologySpec::SlimFly { q, p } => Some(2 * q * q * p),
            TopologySpec::HyperX { dims, p } => Some(dims.iter().product::<usize>() * p),
            TopologySpec::Jellyfish { routers, p, .. } => Some(routers * p),
            TopologySpec::Auto => None,
        }
    }

    /// Replace `auto` with the concrete Table 2 torus for `ranks` ranks;
    /// concrete specs pass through unchanged. The result has a canonical
    /// `Display`, which makes it usable as a cache key.
    pub fn resolve(&self, ranks: u32) -> TopologySpec {
        match self {
            TopologySpec::Auto => {
                TopologySpec::Torus(ConfigCatalog::for_ranks(ranks as usize).torus_dims)
            }
            concrete => concrete.clone(),
        }
    }

    /// Instantiate the topology model. Fails (never panics) on `auto`
    /// (resolve it first) and on parameter combinations the constructors
    /// would reject.
    pub fn build(&self) -> Result<Box<dyn Topology>, SpecError> {
        self.check()?;
        Ok(match self {
            TopologySpec::Torus(d) => Box::new(Torus::new(*d)),
            TopologySpec::TorusNd(d) => Box::new(Torus::nd(d)),
            TopologySpec::Mesh(d) => Box::new(Torus::mesh(*d)),
            TopologySpec::FatTree { radix, stages } => Box::new(FatTree::new(*radix, *stages)),
            TopologySpec::Dragonfly { a, h, p } => Box::new(Dragonfly::new(*a, *h, *p)),
            TopologySpec::ValiantDragonfly { a, h, p } => {
                Box::new(ValiantDragonfly::new(Dragonfly::new(*a, *h, *p)))
            }
            TopologySpec::SlimFly { q, p } => Box::new(SlimFly::new(*q, *p)),
            TopologySpec::HyperX { dims, p } => Box::new(HyperX::new(dims.clone(), *p)),
            TopologySpec::Jellyfish {
                routers,
                degree,
                p,
                seed,
            } => Box::new(Jellyfish::new(*routers, *degree, *p, *seed)),
            TopologySpec::Auto => unreachable!("check rejects auto"),
        })
    }

    /// Validate the parameters against the constructors' preconditions
    /// and [`MAX_SPEC_NODES`].
    fn check(&self) -> Result<(), SpecError> {
        let nodes = match self {
            TopologySpec::Auto => {
                return Err(SpecError::new(
                    "'auto' must be resolved against a rank count before building",
                ))
            }
            TopologySpec::Torus(d) | TopologySpec::Mesh(d) => {
                if d.contains(&0) {
                    return Err(SpecError::new("torus/mesh dimensions must be > 0"));
                }
                checked_product(d)?
            }
            TopologySpec::TorusNd(d) => {
                if d.is_empty() || d.len() > 256 {
                    return Err(SpecError::new("torusnd needs 1..=256 dimensions"));
                }
                if d.contains(&0) {
                    return Err(SpecError::new("torusnd dimensions must be > 0"));
                }
                checked_product(d)?
            }
            TopologySpec::FatTree { radix, stages } => {
                if *stages < 1 {
                    return Err(SpecError::new("fat tree needs at least one stage"));
                }
                if *radix < 2 {
                    return Err(SpecError::new("fat-tree radix must be at least 2"));
                }
                if *stages >= 2 && radix % 2 != 0 {
                    return Err(SpecError::new("multi-stage fat tree needs an even radix"));
                }
                if *stages > 8 {
                    return Err(SpecError::new("fat tree limited to 8 stages"));
                }
                let k = (radix / 2).max(1);
                let mut nodes: usize = 1;
                for _ in 0..*stages {
                    nodes = nodes
                        .checked_mul(k)
                        .ok_or_else(|| SpecError::new("fat tree too large"))?;
                }
                nodes
            }
            TopologySpec::Dragonfly { a, h, p } | TopologySpec::ValiantDragonfly { a, h, p } => {
                if *a == 0 || *h == 0 || *p == 0 {
                    return Err(SpecError::new("dragonfly parameters must be > 0"));
                }
                let groups = a
                    .checked_mul(*h)
                    .and_then(|g| g.checked_add(1))
                    .ok_or_else(|| SpecError::new("dragonfly too large"))?;
                a.checked_mul(*p)
                    .and_then(|n| n.checked_mul(groups))
                    .ok_or_else(|| SpecError::new("dragonfly too large"))?
            }
            TopologySpec::SlimFly { q, p } => {
                SlimFly::check_params(*q, *p).map_err(SpecError::new)?;
                q.checked_mul(*q)
                    .and_then(|q2| q2.checked_mul(2))
                    .and_then(|r| r.checked_mul(*p))
                    .ok_or_else(|| SpecError::new("slimfly too large"))?
            }
            TopologySpec::HyperX { dims, p } => {
                HyperX::check_params(dims, *p).map_err(SpecError::new)?;
                checked_product(dims)?
                    .checked_mul(*p)
                    .ok_or_else(|| SpecError::new("hyperx too large"))?
            }
            TopologySpec::Jellyfish {
                routers, degree, p, ..
            } => {
                Jellyfish::check_params(*routers, *degree, *p).map_err(SpecError::new)?;
                routers
                    .checked_mul(*p)
                    .ok_or_else(|| SpecError::new("jellyfish too large"))?
            }
        };
        if nodes > MAX_SPEC_NODES {
            return Err(SpecError::new(format!(
                "topology has {nodes} nodes, above the {MAX_SPEC_NODES}-node spec limit"
            )));
        }
        Ok(())
    }
}

fn checked_product(dims: &[usize]) -> Result<usize, SpecError> {
    dims.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d)
            .ok_or_else(|| SpecError::new("topology dimensions overflow"))
    })
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Torus(d) => write!(f, "torus:{},{},{}", d[0], d[1], d[2]),
            TopologySpec::TorusNd(d) => {
                write!(f, "torusnd:")?;
                for (i, x) in d.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            TopologySpec::Mesh(d) => write!(f, "mesh:{},{},{}", d[0], d[1], d[2]),
            TopologySpec::FatTree { radix, stages } => write!(f, "fattree:{radix},{stages}"),
            TopologySpec::Dragonfly { a, h, p } => write!(f, "dragonfly:{a},{h},{p}"),
            TopologySpec::ValiantDragonfly { a, h, p } => {
                write!(f, "dragonfly-valiant:{a},{h},{p}")
            }
            TopologySpec::SlimFly { q, p } => write!(f, "slimfly:{q},{p}"),
            TopologySpec::HyperX { dims, p } => {
                write!(f, "hyperx:")?;
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        f.write_str("x")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ",{p}")
            }
            TopologySpec::Jellyfish {
                routers,
                degree,
                p,
                seed,
            } => write!(f, "jellyfish:{routers},{degree},{p},{seed}"),
            TopologySpec::Auto => f.write_str("auto"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (kind, params) = s.split_once(':').unwrap_or((s, ""));
        // `hyperx` joins its dimension list with 'x', which the generic
        // comma-of-usize parse below would reject — handle it first.
        if kind == "hyperx" {
            let (dim_str, p_str) = params.split_once(',').ok_or_else(|| {
                SpecError::new(format!(
                    "bad topology spec '{s}'; expected hyperx:D1xD2x…,P"
                ))
            })?;
            let dims: Vec<usize> = dim_str
                .split('x')
                .map(|d| {
                    d.trim()
                        .parse::<usize>()
                        .map_err(|_| SpecError::new(format!("bad hyperx dimension '{d}' in '{s}'")))
                })
                .collect::<Result<_, _>>()?;
            let p = p_str
                .trim()
                .parse::<usize>()
                .map_err(|_| SpecError::new(format!("bad numeric parameter '{p_str}' in '{s}'")))?;
            let spec = TopologySpec::HyperX { dims, p };
            spec.check()?;
            return Ok(spec);
        }
        let nums: Vec<usize> = params
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|_| SpecError::new(format!("bad numeric parameter '{p}' in '{s}'")))
            })
            .collect::<Result<_, _>>()?;
        let spec = match (kind, nums.as_slice()) {
            ("auto", []) => TopologySpec::Auto,
            ("torus", [x, y, z]) => TopologySpec::Torus([*x, *y, *z]),
            ("torusnd", dims) if !dims.is_empty() => TopologySpec::TorusNd(dims.to_vec()),
            ("mesh", [x, y, z]) => TopologySpec::Mesh([*x, *y, *z]),
            ("fattree", [radix, stages]) => TopologySpec::FatTree {
                radix: *radix,
                stages: *stages,
            },
            ("dragonfly", [a, h, p]) => TopologySpec::Dragonfly {
                a: *a,
                h: *h,
                p: *p,
            },
            ("dragonfly-valiant", [a, h, p]) => TopologySpec::ValiantDragonfly {
                a: *a,
                h: *h,
                p: *p,
            },
            ("slimfly", [q, p]) => TopologySpec::SlimFly { q: *q, p: *p },
            ("jellyfish", [routers, degree, p]) => TopologySpec::Jellyfish {
                routers: *routers,
                degree: *degree,
                p: *p,
                seed: 0,
            },
            ("jellyfish", [routers, degree, p, seed]) => TopologySpec::Jellyfish {
                routers: *routers,
                degree: *degree,
                p: *p,
                seed: *seed as u64,
            },
            _ => {
                return Err(SpecError::new(format!(
                    "bad topology spec '{s}'; expected torus:X,Y,Z | torusnd:D1,D2,… | \
                     mesh:X,Y,Z | fattree:RADIX,STAGES | dragonfly:A,H,P | \
                     dragonfly-valiant:A,H,P | slimfly:Q,P | hyperx:D1xD2x…,P | \
                     jellyfish:ROUTERS,DEGREE,P[,SEED] | auto"
                )))
            }
        };
        if !matches!(spec, TopologySpec::Auto) {
            spec.check()?;
        }
        Ok(spec)
    }
}

/// A parsed mapping spec: the paper's placement schemes plus the greedy
/// optimizer, all seedable and canonically printable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MappingSpec {
    /// `consecutive` — rank `r` on node `r`.
    Consecutive,
    /// `block:CORES` — `CORES` consecutive ranks per node.
    Block {
        /// Ranks per node.
        cores: usize,
    },
    /// `random:SEED` (bare `random` implies seed 0).
    Random {
        /// RNG seed; equal seeds give equal mappings.
        seed: u64,
    },
    /// `random-block:CORES,SEED` — the paper's scattered multicore
    /// placement.
    RandomBlock {
        /// Ranks per node.
        cores: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `greedy` — the traffic-aware optimizer; needs traffic, so it is
    /// built by the caller via [`crate::optimize::greedy_mapping`].
    Greedy,
}

impl MappingSpec {
    /// Instantiate the mapping for `ranks` ranks on `nodes` nodes.
    ///
    /// Fails (never panics) when the placement does not fit, and for
    /// [`MappingSpec::Greedy`], which needs traffic — callers that support
    /// it build it via [`crate::optimize::greedy_mapping`] instead.
    pub fn build(&self, ranks: usize, nodes: usize) -> Result<Mapping, SpecError> {
        let fits = |needed: usize| {
            if needed <= nodes {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "mapping '{self}' needs {needed} nodes for {ranks} ranks, topology has {nodes}"
                )))
            }
        };
        match self {
            MappingSpec::Consecutive => {
                fits(ranks)?;
                Ok(Mapping::consecutive(ranks, nodes))
            }
            MappingSpec::Block { cores } => {
                if *cores == 0 {
                    return Err(SpecError::new("block mapping needs cores > 0"));
                }
                fits(ranks.div_ceil(*cores))?;
                Ok(Mapping::block(ranks, *cores, nodes))
            }
            MappingSpec::Random { seed } => {
                fits(ranks)?;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
                Ok(Mapping::random(ranks, nodes, &mut rng))
            }
            MappingSpec::RandomBlock { cores, seed } => {
                if *cores == 0 {
                    return Err(SpecError::new("random-block mapping needs cores > 0"));
                }
                let needed = ranks.div_ceil(*cores);
                fits(needed)?;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
                // Partial Fisher–Yates: the first `needed` entries become a
                // uniform random sample of distinct nodes.
                let mut pool: Vec<u32> = (0..nodes as u32).collect();
                for i in 0..needed {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                let assignment = (0..ranks).map(|r| NodeId(pool[r / cores])).collect();
                Ok(Mapping::from_nodes(assignment, nodes))
            }
            MappingSpec::Greedy => Err(SpecError::new(
                "greedy mapping needs traffic; build it with optimize::greedy_mapping",
            )),
        }
    }

    /// Build the mapping, with [`MappingSpec::Greedy`] served by the
    /// optimizer over `routed` and the caller's undirected traffic.
    pub fn build_with_traffic(
        &self,
        ranks: usize,
        routed: &RoutedTopology<'_>,
        undirected: &[crate::optimize::TrafficEntry],
    ) -> Result<Mapping, SpecError> {
        match self {
            MappingSpec::Greedy => {
                if ranks > routed.num_nodes() {
                    return Err(SpecError::new(format!(
                        "greedy mapping needs {ranks} nodes, topology has {}",
                        routed.num_nodes()
                    )));
                }
                Ok(crate::optimize::greedy_mapping(routed, ranks, undirected))
            }
            other => other.build(ranks, routed.num_nodes()),
        }
    }
}

impl fmt::Display for MappingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingSpec::Consecutive => f.write_str("consecutive"),
            MappingSpec::Block { cores } => write!(f, "block:{cores}"),
            MappingSpec::Random { seed } => write!(f, "random:{seed}"),
            MappingSpec::RandomBlock { cores, seed } => write!(f, "random-block:{cores},{seed}"),
            MappingSpec::Greedy => f.write_str("greedy"),
        }
    }
}

impl FromStr for MappingSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let bad = || {
            SpecError::new(format!(
                "bad mapping spec '{s}'; expected consecutive | block:CORES | random[:SEED] | \
                 random-block:CORES,SEED | greedy"
            ))
        };
        let (kind, params) = s.split_once(':').unwrap_or((s, ""));
        let spec = match kind {
            "consecutive" if params.is_empty() => MappingSpec::Consecutive,
            "greedy" if params.is_empty() => MappingSpec::Greedy,
            "block" => MappingSpec::Block {
                cores: params.parse().map_err(|_| bad())?,
            },
            "random" => MappingSpec::Random {
                seed: if params.is_empty() {
                    0
                } else {
                    params.parse().map_err(|_| bad())?
                },
            },
            "random-block" => {
                let (c, seed) = params.split_once(',').ok_or_else(bad)?;
                MappingSpec::RandomBlock {
                    cores: c.parse().map_err(|_| bad())?,
                    seed: seed.parse().map_err(|_| bad())?,
                }
            }
            _ => return Err(bad()),
        };
        if let MappingSpec::Block { cores } | MappingSpec::RandomBlock { cores, .. } = &spec {
            if *cores == 0 {
                return Err(SpecError::new("mapping needs cores > 0"));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_parse_display_roundtrip_is_canonical() {
        for (input, canonical) in [
            ("torus:04,4,4", "torus:4,4,4"),
            ("torus:4, 4,4", "torus:4,4,4"),
            ("mesh:2,3,4", "mesh:2,3,4"),
            ("fattree:8,2", "fattree:8,2"),
            ("dragonfly:4,2,2", "dragonfly:4,2,2"),
            ("dragonfly-valiant:4,2,2", "dragonfly-valiant:4,2,2"),
            ("torusnd:2,2,2,2", "torusnd:2,2,2,2"),
            ("slimfly:05,2", "slimfly:5,2"),
            ("hyperx:3x4,2", "hyperx:3x4,2"),
            ("hyperx:4x4x04, 2", "hyperx:4x4x4,2"),
            ("jellyfish:12,3,2", "jellyfish:12,3,2,0"),
            ("jellyfish:12,3,2,7", "jellyfish:12,3,2,7"),
            ("auto", "auto"),
        ] {
            let spec: TopologySpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{input}");
            // Canonical form re-parses to the same spec.
            assert_eq!(canonical.parse::<TopologySpec>().unwrap(), spec);
        }
    }

    #[test]
    fn topology_build_matches_direct_constructors() {
        let t: TopologySpec = "torus:3,4,5".parse().unwrap();
        assert_eq!(t.build().unwrap().num_nodes(), 60);
        let f: TopologySpec = "fattree:8,2".parse().unwrap();
        assert_eq!(
            f.build().unwrap().num_nodes(),
            FatTree::new(8, 2).num_nodes()
        );
        let d: TopologySpec = "dragonfly:4,2,2".parse().unwrap();
        assert_eq!(
            d.build().unwrap().num_nodes(),
            Dragonfly::new(4, 2, 2).num_nodes()
        );
        let sf: TopologySpec = "slimfly:5,2".parse().unwrap();
        assert_eq!(
            sf.build().unwrap().num_nodes(),
            SlimFly::new(5, 2).num_nodes()
        );
        let hx: TopologySpec = "hyperx:3x4,2".parse().unwrap();
        assert_eq!(
            hx.build().unwrap().num_nodes(),
            HyperX::new(vec![3, 4], 2).num_nodes()
        );
        let jf: TopologySpec = "jellyfish:12,3,2,7".parse().unwrap();
        let jf_topo = jf.build().unwrap();
        let direct = Jellyfish::new(12, 3, 2, 7);
        assert_eq!(jf_topo.num_nodes(), direct.num_nodes());
        // Same seed through the spec gives the same wiring, not just the
        // same size.
        assert_eq!(jf_topo.links(), direct.links());
    }

    #[test]
    fn bad_topology_specs_error_instead_of_panicking() {
        for bad in [
            "",
            "frobnicate",
            "torus",
            "torus:0,1,1",
            "torus:4,4",
            "torus:4,4,4,4",
            "torus:a,b,c",
            "torus:99999,99999,99999",
            "mesh:1,2",
            "fattree:3,2",
            "fattree:0,1",
            "fattree:8,0",
            "dragonfly:0,1,1",
            "torusnd:",
            "torusnd:0",
            "auto:3",
            "torus:18446744073709551616,1,1",
            "slimfly:6,2",          // q must be prime ≡ 1 (mod 4)
            "slimfly:7,2",          // prime but 7 ≡ 3 (mod 4)
            "slimfly:5",            // missing p
            "slimfly:5,0",          // p must be > 0
            "hyperx:3x4",           // missing p
            "hyperx:1x4,2",         // extents must be ≥ 2
            "hyperx:3y4,2",         // bad separator
            "hyperx:,2",            // empty dimension list
            "jellyfish:12,3,2,0,9", // too many params
            "jellyfish:12,12,2",    // degree must be < routers
            "jellyfish:13,3,2",     // odd routers*degree
            "jellyfish:12,1,2",     // degree must be ≥ 2
            "slimfly:1021,9999",    // over the node ceiling
        ] {
            assert!(bad.parse::<TopologySpec>().is_err(), "accepted '{bad}'");
        }
        // `auto` parses but cannot build unresolved.
        assert!(TopologySpec::Auto.build().is_err());
    }

    #[test]
    fn auto_resolves_to_the_table2_torus() {
        let resolved = TopologySpec::Auto.resolve(64);
        let expect = ConfigCatalog::for_ranks(64).torus_dims;
        assert_eq!(resolved, TopologySpec::Torus(expect));
        assert!(resolved.build().unwrap().num_nodes() >= 64);
        // Concrete specs resolve to themselves.
        let t: TopologySpec = "mesh:2,2,2".parse().unwrap();
        assert_eq!(t.resolve(999), t);
    }

    #[test]
    fn mapping_parse_display_roundtrip_is_canonical() {
        for (input, canonical) in [
            ("consecutive", "consecutive"),
            ("random", "random:0"),
            ("random:7", "random:7"),
            ("block:4", "block:4"),
            ("random-block:4,9", "random-block:4,9"),
            ("greedy", "greedy"),
        ] {
            let spec: MappingSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{input}");
            assert_eq!(canonical.parse::<MappingSpec>().unwrap(), spec);
        }
        for bad in [
            "",
            "block",
            "block:0",
            "random:x",
            "random-block:4",
            "greed",
        ] {
            assert!(bad.parse::<MappingSpec>().is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn mapping_build_is_seed_deterministic_and_bounded() {
        let spec: MappingSpec = "random:9".parse().unwrap();
        let a = spec.build(20, 27).unwrap();
        let b = spec.build(20, 27).unwrap();
        let c = MappingSpec::Random { seed: 10 }.build(20, 27).unwrap();
        let nodes = |m: &Mapping| (0..20).map(|r| m.node_of(r)).collect::<Vec<_>>();
        assert_eq!(nodes(&a), nodes(&b));
        assert_ne!(nodes(&a), nodes(&c), "different seeds, same mapping");
        assert!(spec.build(28, 27).is_err(), "random overfit accepted");
        assert!(MappingSpec::Consecutive.build(28, 27).is_err());
        assert!(MappingSpec::Block { cores: 4 }.build(28, 27).is_ok());
        assert!(
            MappingSpec::Greedy.build(4, 27).is_err(),
            "greedy needs traffic"
        );
    }

    #[test]
    fn random_block_spec_packs_cores_ranks_per_distinct_node() {
        let spec: MappingSpec = "random-block:4,3".parse().unwrap();
        let m = spec.build(24, 27).unwrap();
        let mut used = std::collections::BTreeSet::new();
        for chunk in 0..6 {
            let node = m.node_of(chunk * 4);
            for r in chunk * 4..chunk * 4 + 4 {
                assert_eq!(m.node_of(r), node, "rank {r} off its chunk's node");
            }
            assert!(used.insert(node.0), "node {} reused across chunks", node.0);
        }
        let again = MappingSpec::RandomBlock { cores: 4, seed: 3 }
            .build(24, 27)
            .unwrap();
        assert_eq!(m.assignment(), again.assignment());
        assert!(spec.build(24, 5).is_err(), "6 nodes needed, 5 available");
    }

    #[test]
    fn greedy_builds_through_the_optimizer() {
        let topo = Torus::new([3, 3, 3]);
        let routed = RoutedTopology::auto(&topo);
        let traffic = vec![crate::optimize::TrafficEntry {
            src: 0,
            dst: 1,
            bytes: 1_000_000,
        }];
        let m = MappingSpec::Greedy
            .build_with_traffic(4, &routed, &traffic)
            .unwrap();
        assert!(m.num_ranks() >= 4);
        // The hot pair lands on adjacent (or same) nodes.
        let hops = topo.hops(m.node_of(0), m.node_of(1));
        assert!(hops <= 1, "greedy placed the hot pair {hops} hops apart");
    }
}
