//! Collective operations and their translation to point-to-point messages.
//!
//! The paper's network model is technology-independent and translates every
//! collective into plain point-to-point messages "sent in the pattern of the
//! particular operation" — explicitly *without* tree-based spreading
//! (§4.4). For example a gather is all ranks sending one message to the
//! root. Data in vector-based collectives is split evenly across all ranks.
//! This module implements exactly those rules.

use crate::comm::Communicator;
use crate::rank::Rank;
use serde::Serialize;
use std::fmt;

/// The collective operations supported by the trace model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CollectiveOp {
    /// Synchronization only; carries no payload bytes.
    Barrier,
    /// Root sends the payload to every other member.
    Bcast,
    /// Every non-root member sends its contribution to the root.
    Gather,
    /// Vector gather: member *i* sends its own per-rank volume to the root.
    Gatherv,
    /// Root sends one block to every other member.
    Scatter,
    /// Vector scatter: root sends per-rank volume *i* to member *i*.
    Scatterv,
    /// Every member sends its contribution to every other member.
    Allgather,
    /// Vector allgather: member *i* sends its per-rank volume to all others.
    Allgatherv,
    /// Every member sends one block to every other member.
    Alltoall,
    /// Vector all-to-all: member *i*'s volume is split evenly over the
    /// other members (the paper's stated convention for vector collectives).
    Alltoallv,
    /// Every non-root member sends its contribution to the root.
    Reduce,
    /// Naive reduce-then-broadcast through member 0 (no tree).
    Allreduce,
    /// All members send their full contribution to member 0, which then
    /// scatters one block back to every member.
    ReduceScatter,
    /// Pipeline: member *i* sends its contribution to member *i + 1*.
    Scan,
}

impl CollectiveOp {
    /// Whether the operation takes a root argument.
    pub const fn is_rooted(self) -> bool {
        matches!(
            self,
            CollectiveOp::Bcast
                | CollectiveOp::Gather
                | CollectiveOp::Gatherv
                | CollectiveOp::Scatter
                | CollectiveOp::Scatterv
                | CollectiveOp::Reduce
        )
    }

    /// Short name used in the dumpi-like text format.
    pub const fn name(self) -> &'static str {
        match self {
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Gatherv => "gatherv",
            CollectiveOp::Scatter => "scatter",
            CollectiveOp::Scatterv => "scatterv",
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Allgatherv => "allgatherv",
            CollectiveOp::Alltoall => "alltoall",
            CollectiveOp::Alltoallv => "alltoallv",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::ReduceScatter => "reducescatter",
            CollectiveOp::Scan => "scan",
        }
    }

    /// Parse from the short name used in the dumpi-like text format.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "barrier" => CollectiveOp::Barrier,
            "bcast" => CollectiveOp::Bcast,
            "gather" => CollectiveOp::Gather,
            "gatherv" => CollectiveOp::Gatherv,
            "scatter" => CollectiveOp::Scatter,
            "scatterv" => CollectiveOp::Scatterv,
            "allgather" => CollectiveOp::Allgather,
            "allgatherv" => CollectiveOp::Allgatherv,
            "alltoall" => CollectiveOp::Alltoall,
            "alltoallv" => CollectiveOp::Alltoallv,
            "reduce" => CollectiveOp::Reduce,
            "allreduce" => CollectiveOp::Allreduce,
            "reducescatter" => CollectiveOp::ReduceScatter,
            "scan" => CollectiveOp::Scan,
            _ => return None,
        })
    }

    /// All operation variants, for exhaustive tests.
    pub const ALL: [CollectiveOp; 14] = [
        CollectiveOp::Barrier,
        CollectiveOp::Bcast,
        CollectiveOp::Gather,
        CollectiveOp::Gatherv,
        CollectiveOp::Scatter,
        CollectiveOp::Scatterv,
        CollectiveOp::Allgather,
        CollectiveOp::Allgatherv,
        CollectiveOp::Alltoall,
        CollectiveOp::Alltoallv,
        CollectiveOp::Reduce,
        CollectiveOp::Allreduce,
        CollectiveOp::ReduceScatter,
        CollectiveOp::Scan,
    ];
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload of a collective call.
///
/// `Uniform(b)` means every participating rank contributes (or receives)
/// `b` bytes; `PerRank(v)` gives each communicator-local rank its own
/// volume, as vector collectives (`*v`) do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Payload {
    /// The same per-rank volume for every member.
    Uniform(u64),
    /// One volume per communicator-local rank (`len == comm.size()`).
    PerRank(Vec<u64>),
}

impl Payload {
    /// Volume attributed to communicator-local rank `i`.
    #[inline]
    pub fn volume_of(&self, i: usize) -> u64 {
        match self {
            Payload::Uniform(b) => *b,
            Payload::PerRank(v) => v.get(i).copied().unwrap_or(0),
        }
    }

    /// Sum of all per-rank volumes.
    pub fn total(&self, comm_size: usize) -> u64 {
        match self {
            Payload::Uniform(b) => *b * comm_size as u64,
            Payload::PerRank(v) => v.iter().sum(),
        }
    }
}

/// One point-to-point message produced by translating a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatedMessage {
    /// World rank of the sender.
    pub src: Rank,
    /// World rank of the receiver.
    pub dst: Rank,
    /// Message size in bytes.
    pub bytes: u64,
}

/// Translate one collective call into point-to-point messages following the
/// paper's rules (§4.4). Self-messages are never emitted: a rank sending to
/// itself does not enter the network.
///
/// `root` is a *communicator-local* rank and is required exactly for the
/// rooted operations ([`CollectiveOp::is_rooted`]); it is ignored otherwise.
/// Zero-byte messages are suppressed except that the structure of the
/// pattern is preserved for nonzero payloads only — a [`CollectiveOp::Barrier`]
/// therefore translates to no messages at all.
pub fn translate_collective(
    op: CollectiveOp,
    comm: &Communicator,
    root: Option<usize>,
    payload: &Payload,
) -> Vec<TranslatedMessage> {
    let mut out = Vec::new();
    for_each_translated(op, comm, root, payload, |src, dst, bytes| {
        out.push(TranslatedMessage { src, dst, bytes });
    });
    out
}

/// Callback form of [`translate_collective`]: invoke `emit(src, dst, bytes)`
/// for every translated message, in the same order, without materializing a
/// `Vec`. This is the allocation-free primitive the fused ingest fold uses —
/// an all-to-all over a large communicator expands to `n·(n-1)` messages,
/// and the accumulator only ever needs them one at a time.
pub fn for_each_translated(
    op: CollectiveOp,
    comm: &Communicator,
    root: Option<usize>,
    payload: &Payload,
    mut emit: impl FnMut(Rank, Rank, u64),
) {
    let n = comm.size();
    if n <= 1 {
        return;
    }
    let mut push = |src: Rank, dst: Rank, bytes: u64| {
        if src != dst && bytes > 0 {
            emit(src, dst, bytes);
        }
    };
    let member = |i: usize| comm.members[i];
    let root_local = root.unwrap_or(0).min(n - 1);
    let root_rank = member(root_local);

    match op {
        CollectiveOp::Barrier => {}
        CollectiveOp::Bcast => {
            let b = payload.volume_of(root_local);
            for i in 0..n {
                push(root_rank, member(i), b);
            }
        }
        CollectiveOp::Gather | CollectiveOp::Gatherv | CollectiveOp::Reduce => {
            for i in 0..n {
                push(member(i), root_rank, payload.volume_of(i));
            }
        }
        CollectiveOp::Scatter | CollectiveOp::Scatterv => {
            for i in 0..n {
                push(root_rank, member(i), payload.volume_of(i));
            }
        }
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            for i in 0..n {
                let b = payload.volume_of(i);
                for j in 0..n {
                    push(member(i), member(j), b);
                }
            }
        }
        CollectiveOp::Alltoall => {
            // Uniform all-to-all: `volume_of(i)` is the per-destination block.
            for i in 0..n {
                let b = payload.volume_of(i);
                for j in 0..n {
                    push(member(i), member(j), b);
                }
            }
        }
        CollectiveOp::Alltoallv => {
            // Vector collective: each rank's volume is split evenly across
            // the other members (paper §4.4, last sentence).
            for i in 0..n {
                let total = payload.volume_of(i);
                let per_dst = total / (n as u64 - 1);
                for j in 0..n {
                    push(member(i), member(j), per_dst);
                }
            }
        }
        CollectiveOp::Allreduce => {
            // Naive reduce to member 0, then broadcast back out.
            let hub = member(0);
            for i in 0..n {
                push(member(i), hub, payload.volume_of(i));
            }
            let b = payload.volume_of(0);
            for i in 0..n {
                push(hub, member(i), b);
            }
        }
        CollectiveOp::ReduceScatter => {
            let hub = member(0);
            for i in 0..n {
                // Everyone contributes the full vector to the hub...
                push(member(i), hub, payload.total(n));
            }
            for i in 0..n {
                // ...which scatters each member's block back.
                push(hub, member(i), payload.volume_of(i));
            }
        }
        CollectiveOp::Scan => {
            for i in 0..n - 1 {
                push(member(i), member(i + 1), payload.volume_of(i));
            }
        }
    }
}

/// Total number of bytes injected into the network by one collective call,
/// i.e. the sum over [`translate_collective`] without materializing it.
///
/// Used by trace statistics (Table 1's volume and collective share), where
/// translating large all-to-alls per call would be wasteful.
pub fn collective_volume(
    op: CollectiveOp,
    comm: &Communicator,
    root: Option<usize>,
    payload: &Payload,
) -> u64 {
    let n = comm.size();
    if n <= 1 {
        return 0;
    }
    let root_local = root.unwrap_or(0).min(n - 1);
    let nn = n as u64;
    match op {
        CollectiveOp::Barrier => 0,
        CollectiveOp::Bcast => payload.volume_of(root_local) * (nn - 1),
        CollectiveOp::Gather | CollectiveOp::Gatherv | CollectiveOp::Reduce => {
            payload.total(n) - payload.volume_of(root_local)
        }
        CollectiveOp::Scatter | CollectiveOp::Scatterv => {
            payload.total(n) - payload.volume_of(root_local)
        }
        CollectiveOp::Allgather | CollectiveOp::Allgatherv | CollectiveOp::Alltoall => {
            payload.total(n) * (nn - 1)
        }
        CollectiveOp::Alltoallv => {
            let mut sum = 0;
            for i in 0..n {
                sum += (payload.volume_of(i) / (nn - 1)) * (nn - 1);
            }
            sum
        }
        CollectiveOp::Allreduce => {
            (payload.total(n) - payload.volume_of(0)) + payload.volume_of(0) * (nn - 1)
        }
        CollectiveOp::ReduceScatter => {
            let total = payload.total(n);
            total * (nn - 1) + (total - payload.volume_of(0))
        }
        CollectiveOp::Scan => (0..n - 1).map(|i| payload.volume_of(i)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: u32) -> Communicator {
        Communicator::world(n)
    }

    fn total(msgs: &[TranslatedMessage]) -> u64 {
        msgs.iter().map(|m| m.bytes).sum()
    }

    #[test]
    fn barrier_translates_to_nothing() {
        let msgs = translate_collective(
            CollectiveOp::Barrier,
            &world(8),
            None,
            &Payload::Uniform(64),
        );
        assert!(msgs.is_empty());
    }

    #[test]
    fn gather_is_all_to_root() {
        let msgs = translate_collective(
            CollectiveOp::Gather,
            &world(4),
            Some(2),
            &Payload::Uniform(100),
        );
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().all(|m| m.dst == Rank(2) && m.bytes == 100));
        assert!(msgs.iter().all(|m| m.src != Rank(2)));
    }

    #[test]
    fn bcast_is_root_to_all() {
        let msgs = translate_collective(
            CollectiveOp::Bcast,
            &world(5),
            Some(0),
            &Payload::Uniform(7),
        );
        assert_eq!(msgs.len(), 4);
        assert!(msgs.iter().all(|m| m.src == Rank(0) && m.bytes == 7));
    }

    #[test]
    fn alltoall_has_full_pair_fanout() {
        let msgs = translate_collective(
            CollectiveOp::Alltoall,
            &world(4),
            None,
            &Payload::Uniform(10),
        );
        assert_eq!(msgs.len(), 4 * 3);
        assert_eq!(total(&msgs), 120);
    }

    #[test]
    fn alltoallv_splits_evenly_across_others() {
        let msgs = translate_collective(
            CollectiveOp::Alltoallv,
            &world(4),
            None,
            &Payload::PerRank(vec![300, 0, 30, 3000]),
        );
        // rank 0 sends 100 to each of the 3 others, rank 2 sends 10, rank 3 sends 1000.
        let from0: Vec<_> = msgs.iter().filter(|m| m.src == Rank(0)).collect();
        assert_eq!(from0.len(), 3);
        assert!(from0.iter().all(|m| m.bytes == 100));
        assert!(msgs.iter().all(|m| m.src != Rank(1)));
    }

    #[test]
    fn allreduce_is_reduce_plus_bcast_through_member_zero() {
        let msgs = translate_collective(
            CollectiveOp::Allreduce,
            &world(3),
            None,
            &Payload::Uniform(50),
        );
        // 2 inbound to rank 0 + 2 outbound from rank 0.
        assert_eq!(msgs.len(), 4);
        assert_eq!(total(&msgs), 200);
    }

    #[test]
    fn scan_is_a_pipeline() {
        let msgs = translate_collective(CollectiveOp::Scan, &world(4), None, &Payload::Uniform(9));
        assert_eq!(msgs.len(), 3);
        for (k, m) in msgs.iter().enumerate() {
            assert_eq!(m.src, Rank(k as u32));
            assert_eq!(m.dst, Rank(k as u32 + 1));
        }
    }

    #[test]
    fn no_self_messages_in_any_translation() {
        for op in CollectiveOp::ALL {
            let msgs = translate_collective(op, &world(6), Some(1), &Payload::Uniform(128));
            assert!(msgs.iter().all(|m| m.src != m.dst), "self message in {op}");
        }
    }

    #[test]
    fn closed_form_volume_matches_translation() {
        let payload_u = Payload::Uniform(123);
        let payload_v = Payload::PerRank(vec![5, 17, 0, 900, 31, 64]);
        for op in CollectiveOp::ALL {
            for payload in [&payload_u, &payload_v] {
                let comm = world(6);
                let msgs = translate_collective(op, &comm, Some(2), payload);
                let vol = collective_volume(op, &comm, Some(2), payload);
                assert_eq!(total(&msgs), vol, "volume mismatch for {op}");
            }
        }
    }

    #[test]
    fn singleton_communicator_produces_no_traffic() {
        for op in CollectiveOp::ALL {
            let comm = world(1);
            assert!(translate_collective(op, &comm, None, &Payload::Uniform(10)).is_empty());
            assert_eq!(collective_volume(op, &comm, None, &Payload::Uniform(10)), 0);
        }
    }

    #[test]
    fn subcommunicator_uses_world_ranks() {
        let mut reg = crate::comm::CommRegistry::new(10);
        let id = reg.register(vec![Rank(2), Rank(5), Rank(9)]);
        let comm = reg.get(id).unwrap();
        let msgs = translate_collective(CollectiveOp::Gather, comm, Some(1), &Payload::Uniform(8));
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().all(|m| m.dst == Rank(5)));
        let srcs: Vec<_> = msgs.iter().map(|m| m.src).collect();
        assert!(srcs.contains(&Rank(2)) && srcs.contains(&Rank(9)));
    }

    #[test]
    fn op_name_roundtrip() {
        for op in CollectiveOp::ALL {
            assert_eq!(CollectiveOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CollectiveOp::from_name("ibcast"), None);
    }
}
