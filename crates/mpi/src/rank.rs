//! MPI rank identifiers.

use serde::Serialize;
use std::fmt;

/// An MPI rank within a communicator (usually `MPI_COMM_WORLD`).
///
/// Ranks are dense integers `0..num_ranks`. The paper's *rank distance*
/// metric (Eq. 1) is defined directly on the numeric distance between two
/// rank IDs, which [`Rank::distance`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Rank(pub u32);

impl Rank {
    /// Numeric ID as `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Linear rank distance `|self - other|` (Eq. 1 of the paper).
    #[inline]
    pub fn distance(self, other: Rank) -> u32 {
        self.0.abs_diff(other.0)
    }

    /// Rank locality `1 / dist` (Eq. 2 of the paper).
    ///
    /// Returns `None` for self-communication (distance 0), which the paper
    /// excludes: a message from a rank to itself never enters the network.
    #[inline]
    pub fn locality(self, other: Rank) -> Option<f64> {
        let d = self.distance(other);
        (d != 0).then(|| 1.0 / d as f64)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<Rank> for u32 {
    fn from(r: Rank) -> Self {
        r.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        assert_eq!(Rank(3).distance(Rank(10)), 7);
        assert_eq!(Rank(10).distance(Rank(3)), 7);
    }

    #[test]
    fn distance_to_self_is_zero() {
        assert_eq!(Rank(5).distance(Rank(5)), 0);
    }

    #[test]
    fn locality_of_neighbors_is_one() {
        assert_eq!(Rank(4).locality(Rank(5)), Some(1.0));
    }

    #[test]
    fn locality_of_self_is_none() {
        assert_eq!(Rank(4).locality(Rank(4)), None);
    }

    #[test]
    fn locality_decreases_with_distance() {
        let l1 = Rank(0).locality(Rank(2)).unwrap();
        let l2 = Rank(0).locality(Rank(8)).unwrap();
        assert!(l1 > l2);
        assert_eq!(l1, 0.5);
        assert_eq!(l2, 0.125);
    }
}
