//! Rank locality (§4.1.1): the 90 %-quantile of the volume-weighted rank
//! distance distribution.

use super::crossing_point;
use crate::fxhash::FxHashMap;
use crate::traffic::TrafficMatrix;

/// Share of the total traffic that defines the quantile metrics (the paper
/// fixes 90 %).
pub const TRAFFIC_SHARE: f64 = 0.9;

/// Volume histogram over linear rank distance: `(distance, bytes)`, sorted
/// by distance ascending. The input should be a *p2p-only* matrix — the
/// paper excludes collectives from the MPI-level metrics because on global
/// communicators they are a uniform bias (§4.1.1).
pub fn distance_histogram(tm: &TrafficMatrix) -> Vec<(u32, u64)> {
    let mut hist: FxHashMap<u32, u64> = FxHashMap::default();
    for (&(s, d), p) in tm.iter() {
        *hist.entry(s.abs_diff(d)).or_default() += p.bytes;
    }
    let mut v: Vec<_> = hist.into_iter().collect();
    v.sort_unstable_by_key(|&(d, _)| d);
    v
}

/// The *rank distance (90 %)*: the (interpolated) linear rank distance below
/// which 90 % of the point-to-point volume stays. `None` if the matrix
/// carries no traffic.
///
/// Matches Table 3's "Rank Distance (90 %)" column; fractional values arise
/// from linear interpolation inside the crossing distance bucket.
pub fn rank_distance_90(tm: &TrafficMatrix) -> Option<f64> {
    rank_distance_quantile(tm, TRAFFIC_SHARE)
}

/// Generalization of [`rank_distance_90`] to an arbitrary traffic share in
/// `(0, 1]`.
pub fn rank_distance_quantile(tm: &TrafficMatrix, share: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&share) && share > 0.0);
    let hist = distance_histogram(tm);
    let total: u64 = hist.iter().map(|&(_, b)| b).sum();
    if total == 0 {
        return None;
    }
    let mut cum = 0u64;
    let points: Vec<(f64, f64)> = hist
        .iter()
        .map(|&(d, b)| {
            cum += b;
            (d as f64, cum as f64)
        })
        .collect();
    crossing_point(&points, share * total as f64)
}

/// The *rank locality (90 %)* = `1 / rank_distance_90`, as a fraction
/// (1.0 = 100 %). `None` if the matrix carries no traffic.
pub fn rank_locality_90(tm: &TrafficMatrix) -> Option<f64> {
    rank_distance_90(tm).map(|d| 1.0 / d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm_from(entries: &[(u32, u32, u64)]) -> TrafficMatrix {
        let n = entries
            .iter()
            .map(|&(s, d, _)| s.max(d) + 1)
            .max()
            .unwrap_or(1);
        let mut tm = TrafficMatrix::new(n);
        for &(s, d, b) in entries {
            tm.record(s, d, b, 1);
        }
        tm
    }

    #[test]
    fn pure_nearest_neighbor_is_distance_one() {
        let tm = tm_from(&[(0, 1, 100), (1, 2, 100), (2, 3, 100), (3, 2, 100)]);
        assert_eq!(rank_distance_90(&tm), Some(1.0));
        assert_eq!(rank_locality_90(&tm), Some(1.0)); // 100 % locality
    }

    #[test]
    fn empty_matrix_is_none() {
        let tm = TrafficMatrix::new(8);
        assert_eq!(rank_distance_90(&tm), None);
        assert_eq!(rank_locality_90(&tm), None);
    }

    #[test]
    fn far_partner_raises_the_quantile() {
        // 80 % of volume at distance 1, 20 % at distance 10:
        // the 90 % point sits inside the distance-10 bucket.
        let tm = tm_from(&[(0, 1, 800), (0, 10, 200)]);
        let d = rank_distance_90(&tm).unwrap();
        assert!(d > 1.0 && d <= 10.0, "{d}");
        // interpolation: cum(1)=800, cum(10)=1000, target 900 -> x = 5.5
        assert!((d - 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_share_is_monotone() {
        let tm = tm_from(&[(0, 1, 500), (0, 5, 300), (0, 20, 200)]);
        let d50 = rank_distance_quantile(&tm, 0.5).unwrap();
        let d90 = rank_distance_quantile(&tm, 0.9).unwrap();
        let d100 = rank_distance_quantile(&tm, 1.0).unwrap();
        assert!(d50 <= d90 && d90 <= d100);
        assert_eq!(d100, 20.0);
    }

    #[test]
    fn direction_does_not_matter_for_distance() {
        let a = tm_from(&[(0, 7, 100)]);
        let b = tm_from(&[(7, 0, 100)]);
        assert_eq!(rank_distance_90(&a), rank_distance_90(&b));
    }

    #[test]
    fn histogram_is_sorted_and_complete() {
        let tm = tm_from(&[(0, 3, 10), (5, 2, 20), (9, 8, 30)]);
        let h = distance_histogram(&tm);
        assert_eq!(h, vec![(1, 30), (3, 30)]);
    }
}
