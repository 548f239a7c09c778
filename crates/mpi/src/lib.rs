//! # netloc-mpi
//!
//! MPI trace model and dumpi-like trace format for network-locality analysis.
//!
//! This crate provides the *software side* substrate of the reproduction of
//! "On Network Locality in MPI-Based HPC Applications" (Zahn & Fröning,
//! ICPP 2020): an event-level model of MPI communication (point-to-point
//! messages and collective operations over communicators), a compact
//! aggregated trace container, per-trace statistics matching the paper's
//! Table 1 columns, the paper's collective→point-to-point translation rules
//! (§4.4), a plain-text serialization loosely modeled after the SST
//! `dumpi` ASCII dumps, and a chunked columnar binary format ([`colfmt`]),
//! each with a writer and a parser; [`parse_trace_auto`] picks the parser
//! from the magic prefix.
//!
//! ## Quick example
//!
//! ```
//! use netloc_mpi::{Trace, TraceBuilder, Rank, CollectiveOp, Payload};
//!
//! let mut b = TraceBuilder::new("demo", 4).exec_time_s(1.0);
//! b.send(Rank(0), Rank(1), 4096, 10); // 10 messages of 4 KiB
//! b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(512), 3);
//! let trace: Trace = b.build();
//! assert_eq!(trace.num_ranks, 4);
//! let stats = trace.stats();
//! assert!(stats.p2p_bytes > 0 && stats.coll_bytes > 0);
//! ```

#![warn(missing_docs)]

pub mod colfmt;
pub mod collective;
pub mod comm;
pub mod datatype;
pub mod dumpi;
mod dumpi_bytes;
pub mod error;
pub mod event;
pub mod mapped;
pub mod rank;
pub mod stats;
pub mod trace;
pub mod transform;

pub use colfmt::{
    parse_trace_columnar, write_trace_columnar, write_trace_columnar_chunked, ColStreamParser,
    COL_CHUNK_EVENTS,
};
pub use collective::{
    collective_volume, for_each_translated, translate_collective, CollectiveOp, Payload,
    TranslatedMessage,
};
pub use comm::{CommId, CommRegistry, Communicator};
pub use datatype::Datatype;
pub use dumpi::{parse_trace, parse_trace_bytes, parse_trace_bytes_chunked, write_trace};
pub use error::{MpiError, Result};
pub use event::{Event, TimedEvent};
pub use mapped::MappedFile;
pub use rank::Rank;
pub use stats::TraceStats;
pub use trace::{Trace, TraceBuilder};

/// Parse trace bytes in whichever format the magic prefix announces:
/// columnar ([`colfmt::MAGIC`]) or, for anything else, the dumpi text
/// dialect. Both parsers are chunk-parallel.
pub fn parse_trace_auto(bytes: &[u8]) -> Result<Trace> {
    if bytes.starts_with(colfmt::MAGIC) {
        parse_trace_columnar(bytes)
    } else {
        parse_trace_bytes(bytes)
    }
}
