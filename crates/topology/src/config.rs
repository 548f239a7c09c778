//! Topology configurations at scale — the paper's Table 2.

use crate::{Dragonfly, FatTree, Torus};
use serde::Serialize;

/// The topology configuration the paper assigns to one problem size
/// (one row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TopologyConfig {
    /// Problem size (number of ranks) the row is for.
    pub size: usize,
    /// 3D torus dimensions `(x, y, z)`.
    pub torus_dims: [usize; 3],
    /// Fat-tree `(radix, stages)`.
    pub fattree: (usize, usize),
    /// Dragonfly `(a, h, p)`.
    pub dragonfly: (usize, usize, usize),
}

impl TopologyConfig {
    /// Instantiate the torus of this row.
    pub fn build_torus(&self) -> Torus {
        Torus::new(self.torus_dims)
    }

    /// Instantiate the fat tree of this row.
    pub fn build_fattree(&self) -> FatTree {
        FatTree::new(self.fattree.0, self.fattree.1)
    }

    /// Instantiate the dragonfly of this row.
    pub fn build_dragonfly(&self) -> Dragonfly {
        let (a, h, p) = self.dragonfly;
        Dragonfly::new(a, h, p)
    }

    /// Torus node count.
    pub fn torus_nodes(&self) -> usize {
        self.torus_dims.iter().product()
    }
}

/// The exact rows of the paper's Table 2, plus a fallback rule for sizes
/// not listed.
pub struct ConfigCatalog;

/// Verbatim Table 2 of the paper.
const TABLE2: &[TopologyConfig] = &[
    row(8, [2, 2, 2], (48, 1), (4, 2, 2)),
    row(9, [3, 2, 2], (48, 1), (4, 2, 2)),
    row(10, [3, 2, 2], (48, 1), (4, 2, 2)),
    row(18, [3, 3, 2], (48, 1), (4, 2, 2)),
    row(27, [3, 3, 3], (48, 1), (4, 2, 2)),
    row(64, [4, 4, 4], (48, 2), (4, 2, 2)),
    row(100, [5, 5, 4], (48, 2), (6, 3, 3)),
    row(125, [5, 5, 5], (48, 2), (6, 3, 3)),
    row(144, [6, 6, 4], (48, 2), (6, 3, 3)),
    row(168, [7, 6, 4], (48, 2), (6, 3, 3)),
    row(216, [6, 6, 6], (48, 2), (6, 3, 3)),
    row(256, [8, 8, 4], (48, 2), (6, 3, 3)),
    row(512, [8, 8, 8], (48, 2), (8, 4, 4)),
    row(1000, [10, 10, 10], (48, 3), (8, 4, 4)),
    row(1024, [16, 8, 8], (48, 3), (8, 4, 4)),
    row(1152, [12, 12, 8], (48, 3), (10, 5, 5)),
    row(1728, [12, 12, 12], (48, 3), (10, 5, 5)),
];

const fn row(
    size: usize,
    torus_dims: [usize; 3],
    fattree: (usize, usize),
    dragonfly: (usize, usize, usize),
) -> TopologyConfig {
    TopologyConfig {
        size,
        torus_dims,
        fattree,
        dragonfly,
    }
}

impl ConfigCatalog {
    /// All rows of Table 2.
    pub fn table2() -> &'static [TopologyConfig] {
        TABLE2
    }

    /// The configuration for `ranks`: the exact Table 2 row if listed,
    /// otherwise derived by the same rules the paper used (smallest
    /// near-cubic torus of at least `ranks` nodes; smallest fat tree /
    /// dragonfly from the standard series with sufficient capacity).
    pub fn for_ranks(ranks: usize) -> TopologyConfig {
        if let Some(cfg) = TABLE2.iter().find(|c| c.size == ranks) {
            return *cfg;
        }
        TopologyConfig {
            size: ranks,
            torus_dims: Self::torus_dims_for(ranks),
            fattree: Self::fattree_for(ranks),
            dragonfly: Self::dragonfly_for(ranks),
        }
    }

    /// Near-cubic torus dimensions with at least `n` nodes, `x ≥ y ≥ z`,
    /// minimizing node surplus and then the largest dimension.
    pub fn torus_dims_for(n: usize) -> [usize; 3] {
        assert!(n > 0);
        let mut best: Option<([usize; 3], usize)> = None;
        let cap = (n as f64).cbrt().ceil() as usize + 2;
        for z in 1..=cap {
            for y in z..=n.div_ceil(z) {
                let x = n.div_ceil(z * y);
                if x < y {
                    continue;
                }
                let nodes = x * y * z;
                let surplus = nodes - n;
                let better = match best {
                    None => true,
                    Some((b, s)) => (surplus, x) < (s, b[0]),
                };
                if better {
                    best = Some(([x, y, z], surplus));
                }
            }
        }
        best.expect("some factorization exists").0
    }

    /// Smallest 48-port fat tree with capacity ≥ `n`.
    pub fn fattree_for(n: usize) -> (usize, usize) {
        let radix = 48;
        if n <= radix {
            return (radix, 1);
        }
        let k = radix / 2;
        let mut cap = k * k;
        let mut stages = 2;
        while cap < n {
            cap *= k;
            stages += 1;
        }
        (radix, stages)
    }

    /// Smallest balanced dragonfly (`a = 2h = 2p`) with capacity ≥ `n`,
    /// taken from the even-`a` series the paper uses.
    pub fn dragonfly_for(n: usize) -> (usize, usize, usize) {
        let mut a = 4;
        loop {
            let (h, p) = (a / 2, a / 2);
            let nodes = a * p * (a * h + 1);
            if nodes >= n {
                return (a, h, p);
            }
            a += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology as _;

    #[test]
    fn table2_sizes_fit_their_topologies() {
        for cfg in ConfigCatalog::table2() {
            assert!(
                cfg.torus_nodes() >= cfg.size,
                "torus too small for {}",
                cfg.size
            );
            assert!(
                cfg.build_fattree().capacity() >= cfg.size,
                "fat tree too small for {}",
                cfg.size
            );
            assert!(
                cfg.build_dragonfly().num_nodes() >= cfg.size,
                "dragonfly too small for {}",
                cfg.size
            );
        }
    }

    #[test]
    fn table2_node_counts_match_paper() {
        // Spot-check the node-count columns of Table 2.
        let c8 = ConfigCatalog::for_ranks(8);
        assert_eq!(c8.torus_nodes(), 8);
        assert_eq!(c8.build_fattree().capacity(), 48);
        assert_eq!(c8.build_dragonfly().num_nodes(), 72);

        let c1000 = ConfigCatalog::for_ranks(1000);
        assert_eq!(c1000.torus_nodes(), 1000);
        assert_eq!(c1000.build_fattree().capacity(), 13824);
        assert_eq!(c1000.build_dragonfly().num_nodes(), 1056);

        let c1728 = ConfigCatalog::for_ranks(1728);
        assert_eq!(c1728.build_dragonfly().num_nodes(), 2550);
    }

    #[test]
    fn fallback_rule_covers_unlisted_sizes() {
        let cfg = ConfigCatalog::for_ranks(300);
        assert!(cfg.torus_nodes() >= 300);
        assert!(cfg.build_fattree().capacity() >= 300);
        assert!(cfg.build_dragonfly().num_nodes() >= 300);
    }

    #[test]
    fn torus_dims_are_near_cubic_and_ordered() {
        let d = ConfigCatalog::torus_dims_for(64);
        assert_eq!(d, [4, 4, 4]);
        let d = ConfigCatalog::torus_dims_for(1000);
        assert_eq!(d, [10, 10, 10]);
        let d = ConfigCatalog::torus_dims_for(100);
        assert_eq!(d[0] * d[1] * d[2], 100);
        assert!(d[0] >= d[1] && d[1] >= d[2]);
    }

    #[test]
    fn fattree_series_matches_paper() {
        assert_eq!(ConfigCatalog::fattree_for(48), (48, 1));
        assert_eq!(ConfigCatalog::fattree_for(49), (48, 2));
        assert_eq!(ConfigCatalog::fattree_for(576), (48, 2));
        assert_eq!(ConfigCatalog::fattree_for(577), (48, 3));
        assert_eq!(ConfigCatalog::fattree_for(13824), (48, 3));
    }

    #[test]
    fn dragonfly_series_matches_paper() {
        assert_eq!(ConfigCatalog::dragonfly_for(72), (4, 2, 2));
        assert_eq!(ConfigCatalog::dragonfly_for(73), (6, 3, 3));
        assert_eq!(ConfigCatalog::dragonfly_for(342), (6, 3, 3));
        assert_eq!(ConfigCatalog::dragonfly_for(1056), (8, 4, 4));
        assert_eq!(ConfigCatalog::dragonfly_for(2550), (10, 5, 5));
    }
}
