//! Trace statistics — the columns of the paper's Table 1.

use crate::collective::collective_volume;
use crate::event::Event;
use crate::trace::Trace;
use serde::Serialize;

/// Fundamental MPI characteristics of one trace, matching the columns of
/// Table 1 of the paper: ranks, execution time, total volume, the
/// point-to-point vs. collective split, and throughput.
///
/// Collective volume is counted after the paper's collective→p2p translation
/// (§4.4), i.e. as the bytes the naive point-to-point expansion would inject.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceStats {
    /// Number of world ranks.
    pub ranks: u32,
    /// Execution time in seconds (trace metadata).
    pub exec_time_s: f64,
    /// Point-to-point bytes injected.
    pub p2p_bytes: u64,
    /// Collective bytes injected (after p2p translation).
    pub coll_bytes: u64,
    /// Number of point-to-point calls (repeats expanded).
    pub p2p_calls: u64,
    /// Number of collective calls (repeats expanded).
    pub coll_calls: u64,
}

impl TraceStats {
    /// Compute statistics over a trace.
    pub fn compute(trace: &Trace) -> Self {
        let mut s = TraceStats {
            ranks: trace.num_ranks,
            exec_time_s: trace.exec_time_s,
            p2p_bytes: 0,
            coll_bytes: 0,
            p2p_calls: 0,
            coll_calls: 0,
        };
        for te in &trace.events {
            match &te.event {
                Event::Send { repeat, .. } => {
                    let bytes = te.event.p2p_bytes().unwrap_or(0);
                    s.p2p_bytes += bytes * repeat;
                    s.p2p_calls += repeat;
                }
                Event::Collective {
                    op,
                    comm,
                    root,
                    payload,
                    repeat,
                } => {
                    if let Some(c) = trace.comms.get(*comm) {
                        s.coll_bytes += collective_volume(*op, c, *root, payload) * repeat;
                    }
                    s.coll_calls += repeat;
                }
            }
        }
        s
    }

    /// Total injected bytes (p2p + translated collectives).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.p2p_bytes + self.coll_bytes
    }

    /// Total volume in megabytes (10^6 bytes, as Table 1 uses).
    #[inline]
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / 1e6
    }

    /// Point-to-point share of the volume, in percent (Table 1 "P2P [%]").
    pub fn p2p_pct(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            100.0 * self.p2p_bytes as f64 / total as f64
        }
    }

    /// Collective share of the volume, in percent (Table 1 "Coll. [%]").
    pub fn coll_pct(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            100.0 * self.coll_bytes as f64 / total as f64
        }
    }

    /// Throughput in MB/s (Table 1 "Vol./t").
    pub fn throughput_mb_s(&self) -> f64 {
        self.total_mb() / self.exec_time_s
    }
}

#[cfg(test)]
mod tests {
    use crate::collective::{CollectiveOp, Payload};
    use crate::rank::Rank;
    use crate::trace::TraceBuilder;

    #[test]
    fn pure_p2p_trace_is_100_percent_p2p() {
        let mut b = TraceBuilder::new("t", 4).exec_time_s(2.0);
        b.send(Rank(0), Rank(1), 1_000_000, 2);
        let s = b.build().stats();
        assert_eq!(s.p2p_bytes, 2_000_000);
        assert_eq!(s.coll_bytes, 0);
        assert_eq!(s.p2p_pct(), 100.0);
        assert_eq!(s.coll_pct(), 0.0);
        assert_eq!(s.total_mb(), 2.0);
        assert_eq!(s.throughput_mb_s(), 1.0);
    }

    #[test]
    fn collective_volume_counts_translated_bytes() {
        let mut b = TraceBuilder::new("t", 5).exec_time_s(1.0);
        // bcast of 100 bytes on 5 ranks -> 4 messages of 100 bytes.
        b.collective(CollectiveOp::Bcast, Some(0), Payload::Uniform(100), 3);
        let s = b.build().stats();
        assert_eq!(s.coll_bytes, 3 * 4 * 100);
        assert_eq!(s.coll_pct(), 100.0);
    }

    #[test]
    fn mixed_trace_splits_percentages() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(1.0);
        b.send(Rank(0), Rank(1), 300, 1);
        b.collective(CollectiveOp::Bcast, Some(0), Payload::Uniform(100), 1);
        let s = b.build().stats();
        assert_eq!(s.total_bytes(), 400);
        assert!((s.p2p_pct() - 75.0).abs() < 1e-12);
        assert!((s.coll_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_zero_shares() {
        let s = TraceBuilder::new("empty", 3).build().stats();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.p2p_pct(), 0.0);
        assert_eq!(s.coll_pct(), 0.0);
    }

    #[test]
    fn call_counts_expand_repeats() {
        let mut b = TraceBuilder::new("t", 4);
        b.send(Rank(0), Rank(1), 8, 7);
        b.collective(CollectiveOp::Barrier, None, Payload::Uniform(0), 9);
        let s = b.build().stats();
        assert_eq!(s.p2p_calls, 7);
        assert_eq!(s.coll_calls, 9);
    }
}
