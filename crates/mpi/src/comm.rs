//! MPI communicators.

use crate::rank::Rank;
use serde::Serialize;

/// Identifier of a communicator within a trace. `CommId(0)` is always
/// `MPI_COMM_WORLD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct CommId(pub u32);

impl CommId {
    /// The world communicator, containing every rank of the trace.
    pub const WORLD: CommId = CommId(0);
}

/// A communicator: an ordered set of world ranks eligible to take part in a
/// collective operation.
///
/// Member order matters: position `i` in [`Communicator::members`] is the
/// *communicator-local* rank `i`, and `root` arguments of collectives are
/// local ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Communicator {
    /// Identifier, unique within a trace.
    pub id: CommId,
    /// World ranks, ordered by communicator-local rank.
    pub members: Vec<Rank>,
}

impl Communicator {
    /// Create the world communicator over `num_ranks` ranks.
    pub fn world(num_ranks: u32) -> Self {
        Communicator {
            id: CommId::WORLD,
            members: (0..num_ranks).map(Rank).collect(),
        }
    }

    /// Number of member ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether this communicator spans exactly ranks `0..n` in order, i.e.
    /// behaves like the global communicator. The paper restricts its
    /// analysis to traces using global communicators (§4.3).
    pub fn is_global(&self) -> bool {
        self.members
            .iter()
            .enumerate()
            .all(|(i, r)| r.0 as usize == i)
    }
}

/// Registry of all communicators appearing in a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CommRegistry {
    comms: Vec<Communicator>,
}

impl CommRegistry {
    /// New registry containing only the world communicator.
    pub fn new(num_ranks: u32) -> Self {
        CommRegistry {
            comms: vec![Communicator::world(num_ranks)],
        }
    }

    /// Register a sub-communicator from a list of world ranks; returns its id.
    pub fn register(&mut self, members: Vec<Rank>) -> CommId {
        let id = CommId(self.comms.len() as u32);
        self.comms.push(Communicator { id, members });
        id
    }

    /// Look up a communicator.
    #[inline]
    pub fn get(&self, id: CommId) -> Option<&Communicator> {
        self.comms.get(id.0 as usize)
    }

    /// The world communicator.
    #[inline]
    pub fn world(&self) -> &Communicator {
        &self.comms[0]
    }

    /// All communicators, world first.
    pub fn iter(&self) -> impl Iterator<Item = &Communicator> {
        self.comms.iter()
    }

    /// Number of registered communicators (including world).
    pub fn len(&self) -> usize {
        self.comms.len()
    }

    /// Whether only the world communicator is registered.
    pub fn is_empty(&self) -> bool {
        self.comms.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_contains_all_ranks_in_order() {
        let w = Communicator::world(5);
        assert_eq!(w.size(), 5);
        assert!(w.is_global());
        assert_eq!(w.members.get(3), Some(&Rank(3)));
        assert_eq!(w.members.get(5), None);
    }

    #[test]
    fn sub_communicator_is_not_global() {
        let mut reg = CommRegistry::new(8);
        let id = reg.register(vec![Rank(1), Rank(3), Rank(5)]);
        let c = reg.get(id).unwrap();
        assert!(!c.is_global());
        assert_eq!(c.members.get(2), Some(&Rank(5)));
    }

    #[test]
    fn shuffled_full_set_is_not_global() {
        let mut reg = CommRegistry::new(3);
        let id = reg.register(vec![Rank(2), Rank(0), Rank(1)]);
        assert!(!reg.get(id).unwrap().is_global());
    }

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut reg = CommRegistry::new(4);
        assert_eq!(reg.register(vec![Rank(0)]), CommId(1));
        assert_eq!(reg.register(vec![Rank(1)]), CommId(2));
        assert_eq!(reg.len(), 3);
        assert!(reg.world().is_global());
    }
}
