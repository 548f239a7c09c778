//! # netloc-bench
//!
//! The reproduction harness: computes every table and figure of the paper
//! from the synthetic workload catalog and the topology models. The
//! [`rows`] module produces the numbers; [`mod@format`] renders them as aligned
//! text or CSV; the `repro` binary drives both; the Criterion benches under
//! `benches/` time the computations that regenerate each experiment.

#![warn(missing_docs)]

pub mod benchjson;
pub mod format;
pub mod goldens;
pub mod ingestbench;
pub mod netbench;
pub mod rows;
pub mod servicebench;
pub mod simbench;
pub mod svg;
pub mod sweepjob;

pub use rows::{
    fig1_profile, fig3_curves, fig4_amg_curves, fig5_multicore, fig5_topology, table1, table2,
    table3, table3_row, table4, MulticoreTopoPoint, Table1Row, Table3Row, Table4Row, TopoCols,
};
