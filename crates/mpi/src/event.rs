//! Trace events.

use crate::collective::{CollectiveOp, Payload};
use crate::comm::CommId;
use crate::datatype::Datatype;
use crate::rank::Rank;
use serde::Serialize;

/// One communication event of a trace.
///
/// Traces in this crate are *aggregated*: an event carries a `repeat` count
/// so that an iterative application exchanging the same message thousands of
/// times stays compact while packet-level arithmetic (`repeat × ⌈bytes/4 KiB⌉`
/// packets) remains exact. The event-per-call layout of raw dumpi traces maps
/// onto this with `repeat = 1`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A point-to-point message (`MPI_Send`/`MPI_Isend` paired with the
    /// matching receive). Only the sender side is recorded; the receive is
    /// implied, as the static analysis needs no temporal matching.
    Send {
        /// Sending world rank.
        src: Rank,
        /// Receiving world rank.
        dst: Rank,
        /// Number of datatype elements per message.
        count: u64,
        /// Element datatype (derived datatypes count 1 byte, per the paper).
        datatype: Datatype,
        /// MPI tag (kept for trace fidelity; unused by the analysis).
        tag: u32,
        /// How many times this exact message is sent.
        repeat: u64,
    },
    /// A collective call over a communicator, recorded once per call (not
    /// once per participant as raw dumpi would).
    Collective {
        /// The operation.
        op: CollectiveOp,
        /// Communicator the call operates on.
        comm: CommId,
        /// Communicator-local root rank for rooted operations.
        root: Option<usize>,
        /// Per-rank payload volumes in bytes.
        payload: Payload,
        /// How many times this exact call is issued.
        repeat: u64,
    },
}

impl Event {
    /// Bytes of one instance of a p2p event; `None` for collectives.
    pub fn p2p_bytes(&self) -> Option<u64> {
        match self {
            Event::Send {
                count, datatype, ..
            } => Some(datatype.volume(*count)),
            Event::Collective { .. } => None,
        }
    }

    /// Repeat count of the event.
    pub fn repeat(&self) -> u64 {
        match self {
            Event::Send { repeat, .. } | Event::Collective { repeat, .. } => *repeat,
        }
    }
}

/// An [`Event`] stamped with the wall-clock time (seconds from trace start)
/// at which its first instance was issued.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimedEvent {
    /// Seconds since trace start.
    pub time: f64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_bytes_uses_datatype_size() {
        let e = Event::Send {
            src: Rank(0),
            dst: Rank(1),
            count: 10,
            datatype: Datatype::Double,
            tag: 0,
            repeat: 3,
        };
        assert_eq!(e.p2p_bytes(), Some(80));
        assert_eq!(e.repeat(), 3);
    }

    #[test]
    fn collective_has_no_p2p_bytes() {
        let e = Event::Collective {
            op: CollectiveOp::Allreduce,
            comm: CommId::WORLD,
            root: None,
            payload: Payload::Uniform(8),
            repeat: 1,
        };
        assert_eq!(e.p2p_bytes(), None);
    }
}
