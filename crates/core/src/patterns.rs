//! Classic synthetic traffic patterns.
//!
//! The interconnection-network literature evaluates topologies against
//! standard synthetic patterns (uniform random, transpose, tornado,
//! bit-reversal, nearest neighbor). They complement the proxy-app traces:
//! their hop statistics have known analytic values, which makes them
//! valuable as test oracles for the topology models, and they bound the
//! behaviour of real workloads (uniform random ≈ zero locality, neighbor ≈
//! maximal locality).

use crate::traffic::TrafficMatrix;
use rand::Rng;

/// Uniform random: every rank sends `messages` messages of `bytes` bytes to
/// destinations drawn uniformly from the other ranks.
pub fn uniform_random<R: Rng>(n: u32, bytes: u64, messages: u64, rng: &mut R) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    for src in 0..n {
        for _ in 0..messages {
            let mut dst = rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            tm.record(src, dst, bytes, 1);
        }
    }
    tm
}

/// Matrix transpose: rank `i` sends to `(i + n/2) mod n` — the classic
/// worst case for rings and tori (all traffic crosses half the machine).
pub fn transpose(n: u32, bytes: u64, messages: u64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    for src in 0..n {
        tm.record(src, (src + n / 2) % n, bytes, messages);
    }
    tm
}

/// Tornado: rank `i` sends to `(i + ⌈n/2⌉ − 1) mod n`, the adversarial
/// pattern for minimal ring routing.
pub fn tornado(n: u32, bytes: u64, messages: u64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    let offset = n.div_ceil(2).saturating_sub(1).max(1);
    for src in 0..n {
        tm.record(src, (src + offset) % n, bytes, messages);
    }
    tm
}

/// Bit reversal: rank `i` sends to the rank whose index is `i` with its
/// bits reversed (within ⌈log₂ n⌉ bits); destinations falling outside the
/// rank range are skipped, as is self traffic.
pub fn bit_reversal(n: u32, bytes: u64, messages: u64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    let width = 32 - (n - 1).leading_zeros();
    for src in 0..n {
        let dst = src.reverse_bits() >> (32 - width);
        if dst < n {
            tm.record(src, dst, bytes, messages);
        }
    }
    tm
}

/// Ring nearest neighbor: rank `i` sends to `i ± 1` (wrapping), the maximal
/// 1D-locality pattern (rank locality = 100 % up to the wrap pair).
pub fn neighbor_ring(n: u32, bytes: u64, messages: u64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    for src in 0..n {
        tm.record(src, (src + 1) % n, bytes, messages);
        tm.record(src, (src + n - 1) % n, bytes, messages);
    }
    tm
}

/// All-to-all: every ordered pair exchanges the same volume (what a
/// translated uniform `MPI_Alltoall` looks like).
pub fn all_to_all(n: u32, bytes: u64, messages: u64) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    for src in 0..n {
        for dst in 0..n {
            tm.record(src, dst, bytes, messages);
        }
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rank_locality;
    use crate::netmodel::analyze_network;
    use netloc_topology::{Mapping, Torus};
    use rand::SeedableRng;

    #[test]
    fn uniform_random_avg_hops_approaches_mean_distance() {
        // On a k-ary 1D ring folded in a torus [k,1,1], the mean ring
        // distance over random pairs is ~k/4.
        let k = 16u32;
        let topo = Torus::new([k as usize, 1, 1]);
        let m = Mapping::consecutive(k as usize, k as usize);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let tm = uniform_random(k, 4096, 2000, &mut rng);
        let rep = analyze_network(&topo, &m, &tm);
        let expected = k as f64 / 4.0 * (k as f64 / (k as f64 - 1.0)); // excl. self pairs
        assert!(
            (rep.avg_hops() - expected).abs() / expected < 0.05,
            "{} vs {expected}",
            rep.avg_hops()
        );
    }

    #[test]
    fn transpose_crosses_half_the_ring() {
        let k = 16u32;
        let topo = Torus::new([k as usize, 1, 1]);
        let m = Mapping::consecutive(k as usize, k as usize);
        let rep = analyze_network(&topo, &m, &transpose(k, 4096, 1));
        assert_eq!(rep.avg_hops(), (k / 2) as f64); // the ring diameter
    }

    #[test]
    fn tornado_hits_near_diameter() {
        let k = 17u32; // odd ring: tornado offset = 8, ring distance 8
        let topo = Torus::new([k as usize, 1, 1]);
        let m = Mapping::consecutive(k as usize, k as usize);
        let rep = analyze_network(&topo, &m, &tornado(k, 4096, 1));
        assert_eq!(rep.avg_hops(), 8.0);
    }

    #[test]
    fn neighbor_ring_has_perfect_locality_inside() {
        let tm = neighbor_ring(32, 1000, 1);
        // Wrap pairs (0, 31) sit at rank distance 31, but 90 % of the
        // volume is at distance 1.
        let d90 = rank_locality::rank_distance_90(&tm).unwrap();
        assert!(d90 <= 2.0, "{d90}");
    }

    #[test]
    fn bit_reversal_is_an_involution_where_defined() {
        let tm = bit_reversal(64, 100, 1);
        for (&(s, d), _) in tm.iter() {
            assert!(tm.get(d, s).is_some(), "{s}->{d} not mirrored");
        }
    }

    #[test]
    fn all_to_all_fills_every_pair() {
        let tm = all_to_all(10, 5, 2);
        assert_eq!(tm.num_pairs(), 90);
        assert_eq!(tm.total_bytes(), 90 * 10);
    }

    #[test]
    fn uniform_random_is_seed_deterministic() {
        let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let ta = uniform_random(20, 64, 50, &mut a);
        let tb = uniform_random(20, 64, 50, &mut b);
        assert_eq!(ta.sorted_pairs(), tb.sorted_pairs());
    }
}
