//! Deterministic seeded corpus of small-but-diverse configurations.
//!
//! The corpus is the input set for every differential oracle in this
//! crate: each entry names a topology, a rank→node mapping, and a seeded
//! workload. All three topology families and all three mapping kinds are
//! covered in a full cross product, with the workload pattern and seed
//! varied per entry. Everything derives from [`CorpusConfig`]'s fields
//! plus the seed, so a failing config can be reproduced from its `id`
//! alone.

use netloc_core::TrafficMatrix;
use netloc_mpi::Trace;
use netloc_topology::{Dragonfly, FatTree, HyperX, Jellyfish, Mapping, SlimFly, Topology, Torus};
use netloc_workloads::gen::seeded::{self, SeededPattern};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Topology families of the paper (§5) plus the PR 8 zoo additions, at
/// corpus-friendly sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// 3D torus with the given dimensions.
    Torus([usize; 3]),
    /// Fat tree built from radix-`radix` switches with `stages` stages.
    FatTree {
        /// Switch radix.
        radix: usize,
        /// Number of stages.
        stages: usize,
    },
    /// Dragonfly with `a` routers/group, `h` global links/router and
    /// `p` nodes/router.
    Dragonfly {
        /// Routers per group.
        a: usize,
        /// Global links per router.
        h: usize,
        /// Nodes per router.
        p: usize,
    },
    /// Slim Fly MMS graph over the prime `q` with `p` nodes per router.
    SlimFly {
        /// MMS prime (`2q²` routers).
        q: usize,
        /// Nodes per router.
        p: usize,
    },
    /// 3-dimensional HyperX lattice with `p` nodes per router.
    HyperX {
        /// Router lattice extents.
        dims: [usize; 3],
        /// Nodes per router.
        p: usize,
    },
    /// Jellyfish random regular graph with `p` nodes per router.
    Jellyfish {
        /// Number of routers.
        routers: usize,
        /// Router degree.
        degree: usize,
        /// Nodes per router.
        p: usize,
        /// Wiring seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Instantiate the topology model.
    pub fn build(&self) -> Box<dyn Topology> {
        match *self {
            TopologySpec::Torus(dims) => Box::new(Torus::new(dims)),
            TopologySpec::FatTree { radix, stages } => Box::new(FatTree::new(radix, stages)),
            TopologySpec::Dragonfly { a, h, p } => Box::new(Dragonfly::new(a, h, p)),
            TopologySpec::SlimFly { q, p } => Box::new(SlimFly::new(q, p)),
            TopologySpec::HyperX { dims, p } => Box::new(HyperX::new(dims.to_vec(), p)),
            TopologySpec::Jellyfish {
                routers,
                degree,
                p,
                seed,
            } => Box::new(Jellyfish::new(routers, degree, p, seed)),
        }
    }

    /// Whether minimal routing may legally exceed the BFS distance by one
    /// hop (dragonfly 5-hop routes, see `netloc_topology::bfs`). The zoo
    /// families route BFS-optimally everywhere.
    pub fn allows_one_hop_detour(&self) -> bool {
        matches!(self, TopologySpec::Dragonfly { .. })
    }

    /// Stable lowercase name for config ids and goldens.
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Torus(d) => format!("torus{}x{}x{}", d[0], d[1], d[2]),
            TopologySpec::FatTree { radix, stages } => format!("fattree{radix}s{stages}"),
            TopologySpec::Dragonfly { a, h, p } => format!("dragonfly{a}h{h}p{p}"),
            TopologySpec::SlimFly { q, p } => format!("slimfly{q}p{p}"),
            TopologySpec::HyperX { dims, p } => {
                format!("hyperx{}x{}x{}p{p}", dims[0], dims[1], dims[2])
            }
            TopologySpec::Jellyfish {
                routers,
                degree,
                p,
                seed,
            } => format!("jellyfish{routers}d{degree}p{p}s{seed}"),
        }
    }
}

/// Mapping kinds of the paper's placement study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Rank `r` on node `r`.
    Consecutive,
    /// `cores` consecutive ranks share each node.
    Block(usize),
    /// Seeded random injective placement.
    Random,
}

impl MappingKind {
    /// Stable lowercase name for config ids and goldens.
    pub fn name(&self) -> String {
        match self {
            MappingKind::Consecutive => "consecutive".into(),
            MappingKind::Block(c) => format!("block{c}"),
            MappingKind::Random => "random".into(),
        }
    }
}

/// One corpus entry: everything needed to replay a workload through a
/// topology deterministically.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Topology family and size.
    pub topology: TopologySpec,
    /// Rank placement.
    pub mapping: MappingKind,
    /// Seeded workload pattern.
    pub pattern: SeededPattern,
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Master seed; workload bytes and random placements derive from it.
    pub seed: u64,
}

impl CorpusConfig {
    /// Unique, reproducible identifier (doubles as the golden key).
    pub fn id(&self) -> String {
        format!(
            "{}__{}__{}_r{}_s{}",
            self.topology.name(),
            self.mapping.name(),
            self.pattern.name(),
            self.ranks,
            self.seed
        )
    }

    /// Instantiate the topology.
    pub fn build_topology(&self) -> Box<dyn Topology> {
        self.topology.build()
    }

    /// Instantiate the mapping over `nodes` nodes (pass
    /// `topology.num_nodes()`). Random placements derive from the config
    /// seed, offset so they don't correlate with the workload stream.
    pub fn build_mapping(&self, nodes: usize) -> Mapping {
        let ranks = self.ranks as usize;
        match self.mapping {
            MappingKind::Consecutive => Mapping::consecutive(ranks, nodes),
            MappingKind::Block(cores) => Mapping::block(ranks, cores, nodes),
            MappingKind::Random => {
                // Offset = "mapping" in ASCII, so placement and workload
                // streams never share a seed.
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x006d_6170_7069_6e67);
                Mapping::random(ranks, nodes, &mut rng)
            }
        }
    }

    /// Generate the seeded workload trace.
    pub fn build_trace(&self) -> Trace {
        seeded::generate(self.pattern, self.ranks, self.seed)
    }

    /// Full (p2p + translated collectives) traffic matrix of the workload.
    pub fn build_traffic(&self) -> TrafficMatrix {
        TrafficMatrix::from_trace_full(&self.build_trace())
    }
}

/// The default corpus: every paper topology family × every mapping kind ×
/// several workload patterns, plus one transpose per topology and one
/// config per zoo family (Slim Fly, HyperX, Jellyfish) — 33 configs. The
/// paper-family entries are small enough for exhaustive all-pairs route
/// checking; the zoo entries are sized for the sampled route oracle.
pub fn default_corpus() -> Vec<CorpusConfig> {
    let topologies = [
        TopologySpec::Torus([3, 3, 3]),
        TopologySpec::FatTree {
            radix: 8,
            stages: 2,
        },
        TopologySpec::Dragonfly { a: 4, h: 2, p: 2 },
    ];
    let mappings = [
        MappingKind::Consecutive,
        MappingKind::Block(4),
        MappingKind::Random,
    ];
    let patterns = [
        SeededPattern::Ring,
        SeededPattern::RandomPairs,
        SeededPattern::HotSpot,
    ];

    let mut corpus = Vec::new();
    let mut seed = 0xc0ffee_u64;
    for topology in topologies {
        let nodes = topology.build().num_nodes();
        for mapping in mappings {
            for pattern in patterns {
                seed += 1;
                // Keep the rank count below the node count so random
                // placements always fit; block mappings pack 4 ranks per
                // node and so cover the multi-core (zero-hop) case.
                let ranks = (nodes as u32).clamp(8, 24);
                corpus.push(CorpusConfig {
                    topology,
                    mapping,
                    pattern,
                    ranks,
                    seed,
                });
            }
        }
    }
    // One transpose per topology on top of the cross product, at a
    // different scale, to exercise permutation traffic.
    for topology in topologies {
        seed += 1;
        corpus.push(CorpusConfig {
            topology,
            mapping: MappingKind::Consecutive,
            pattern: SeededPattern::Transpose,
            ranks: 16,
            seed,
        });
    }
    // One config per zoo family (PR 8), appended after the original 30 so
    // golden selections keyed on corpus order stay stable. All three are
    // past the ~500-node exhaustive-BFS comfort zone, so `verify_corpus`
    // route-checks them through the sampled oracle.
    for (topology, mapping, pattern) in [
        (
            TopologySpec::SlimFly { q: 13, p: 2 }, // 676 nodes
            MappingKind::Block(4),
            SeededPattern::RandomPairs,
        ),
        (
            TopologySpec::HyperX {
                dims: [6, 6, 4],
                p: 4,
            }, // 576 nodes
            MappingKind::Random,
            SeededPattern::Ring,
        ),
        (
            TopologySpec::Jellyfish {
                routers: 150,
                degree: 8,
                p: 4,
                seed: 42,
            }, // 600 nodes
            MappingKind::Consecutive,
            SeededPattern::HotSpot,
        ),
    ] {
        seed += 1;
        corpus.push(CorpusConfig {
            topology,
            mapping,
            pattern,
            ranks: 24,
            seed,
        });
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_at_least_twenty_diverse_configs() {
        let corpus = default_corpus();
        assert!(corpus.len() >= 20, "only {} configs", corpus.len());
        let ids: std::collections::HashSet<String> = corpus.iter().map(CorpusConfig::id).collect();
        assert_eq!(ids.len(), corpus.len(), "config ids must be unique");
        // Every topology family and every mapping kind must appear.
        for name in [
            "torus",
            "fattree",
            "dragonfly",
            "slimfly",
            "hyperx",
            "jellyfish",
        ] {
            assert!(ids.iter().any(|i| i.starts_with(name)), "missing {name}");
        }
        for name in ["consecutive", "block", "random"] {
            assert!(ids.iter().any(|i| i.contains(name)), "missing {name}");
        }
    }

    #[test]
    fn configs_build_consistent_pieces() {
        for cfg in default_corpus() {
            let topo = cfg.build_topology();
            let mapping = cfg.build_mapping(topo.num_nodes());
            assert!(mapping.num_ranks() >= cfg.ranks as usize, "{}", cfg.id());
            let tm = cfg.build_traffic();
            assert!(tm.num_pairs() > 0, "{} has no traffic", cfg.id());
            assert_eq!(tm.num_ranks(), cfg.ranks, "{}", cfg.id());
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a: Vec<String> = default_corpus().iter().map(CorpusConfig::id).collect();
        let b: Vec<String> = default_corpus().iter().map(CorpusConfig::id).collect();
        assert_eq!(a, b);
    }
}
