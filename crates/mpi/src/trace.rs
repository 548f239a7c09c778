//! The trace container and its builder.

use crate::collective::{CollectiveOp, Payload};
use crate::comm::{CommId, CommRegistry};
use crate::datatype::Datatype;
use crate::error::{MpiError, Result};
use crate::event::{Event, TimedEvent};
use crate::rank::Rank;
use crate::stats::TraceStats;
use serde::Serialize;

/// A complete (aggregated) MPI communication trace of one application run.
///
/// The execution time is carried as metadata: a static locality analysis
/// cannot reconstruct compute time, and the paper itself takes it from the
/// original trace headers (it enters only the utilization metric, Eq. 5).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    /// Application name (e.g. `"LULESH"`).
    pub app: String,
    /// Number of world ranks.
    pub num_ranks: u32,
    /// Wall-clock execution time of the traced run, in seconds.
    pub exec_time_s: f64,
    /// Communicators referenced by events. `CommId(0)` is the world.
    pub comms: CommRegistry,
    /// Aggregated communication events.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// Compute Table 1-style statistics (volume, p2p/collective split,
    /// throughput).
    pub fn stats(&self) -> TraceStats {
        TraceStats::compute(self)
    }

    /// Validate structural invariants: ranks in range, communicators known,
    /// payload vectors sized to their communicator, roots in range.
    pub fn validate(&self) -> Result<()> {
        if self.num_ranks == 0 {
            return Err(MpiError::Invalid("trace has zero ranks".into()));
        }
        if !(self.exec_time_s.is_finite() && self.exec_time_s > 0.0) {
            return Err(MpiError::Invalid(format!(
                "execution time must be positive, got {}",
                self.exec_time_s
            )));
        }
        // The member-range check is invariant per communicator; find each
        // communicator's first out-of-range member once instead of
        // rescanning the member list for every collective event.
        let mut bad_member: Vec<Option<Rank>> = Vec::new();
        while let Some(c) = self.comms.get(CommId(bad_member.len() as u32)) {
            bad_member.push(c.members.iter().copied().find(|m| m.0 >= self.num_ranks));
        }
        for (i, te) in self.events.iter().enumerate() {
            match &te.event {
                Event::Send {
                    src,
                    dst,
                    count,
                    datatype,
                    ..
                } => {
                    if src.0 >= self.num_ranks || dst.0 >= self.num_ranks {
                        return Err(MpiError::Invalid(format!(
                            "event {i}: rank out of range ({src} -> {dst}, {} ranks)",
                            self.num_ranks
                        )));
                    }
                    if count.checked_mul(datatype.size_bytes()).is_none() {
                        return Err(MpiError::Invalid(format!(
                            "event {i}: message volume overflows 64 bits"
                        )));
                    }
                }
                Event::Collective {
                    comm,
                    root,
                    payload,
                    ..
                } => {
                    let Some(c) = self.comms.get(*comm) else {
                        return Err(MpiError::Invalid(format!(
                            "event {i}: unknown communicator {}",
                            comm.0
                        )));
                    };
                    if let Some(r) = root {
                        if *r >= c.size() {
                            return Err(MpiError::Invalid(format!(
                                "event {i}: root {r} out of range for communicator of size {}",
                                c.size()
                            )));
                        }
                    }
                    if let Payload::PerRank(v) = payload {
                        if v.len() != c.size() {
                            return Err(MpiError::Invalid(format!(
                                "event {i}: payload vector length {} != communicator size {}",
                                v.len(),
                                c.size()
                            )));
                        }
                    }
                    // `Payload::total` must be representable.
                    let total = match payload {
                        Payload::Uniform(b) => b.checked_mul(c.size() as u64),
                        Payload::PerRank(v) => v.iter().try_fold(0u64, |a, &b| a.checked_add(b)),
                    };
                    if total.is_none() {
                        return Err(MpiError::Invalid(format!(
                            "event {i}: collective payload overflows 64 bits"
                        )));
                    }
                    if let Some(m) = bad_member[comm.0 as usize] {
                        return Err(MpiError::Invalid(format!(
                            "communicator {} references rank {m} beyond {} ranks",
                            comm.0, self.num_ranks
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether every collective in the trace runs on a global communicator.
    ///
    /// The paper restricts itself to such traces (§4.3) because custom
    /// communicators (e.g. from `MPI_Cart_sub`) break the rank-identity
    /// assumption of the static analysis.
    pub fn uses_only_global_communicators(&self) -> bool {
        self.events.iter().all(|te| match &te.event {
            Event::Collective { comm, .. } => self
                .comms
                .get(*comm)
                .map(|c| c.is_global())
                .unwrap_or(false),
            Event::Send { .. } => true,
        })
    }
}

/// Incremental builder for [`Trace`].
///
/// Events get monotonically increasing synthetic timestamps spread evenly
/// over the execution time unless explicit times are supplied.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    app: String,
    num_ranks: u32,
    exec_time_s: f64,
    comms: CommRegistry,
    events: Vec<TimedEvent>,
}

impl TraceBuilder {
    /// Start building a trace for `app` with `num_ranks` world ranks.
    pub fn new(app: impl Into<String>, num_ranks: u32) -> Self {
        TraceBuilder {
            app: app.into(),
            num_ranks,
            exec_time_s: 1.0,
            comms: CommRegistry::new(num_ranks),
            events: Vec::new(),
        }
    }

    /// Set the execution time metadata (seconds).
    pub fn exec_time_s(mut self, t: f64) -> Self {
        self.exec_time_s = t;
        self
    }

    /// Register a sub-communicator and return its id.
    pub fn register_comm(&mut self, members: Vec<Rank>) -> CommId {
        self.comms.register(members)
    }

    /// Record `repeat` identical point-to-point byte messages.
    pub fn send(&mut self, src: Rank, dst: Rank, bytes: u64, repeat: u64) {
        self.send_typed(src, dst, bytes, Datatype::Byte, 0, repeat);
    }

    /// Record `repeat` identical typed point-to-point messages.
    pub fn send_typed(
        &mut self,
        src: Rank,
        dst: Rank,
        count: u64,
        datatype: Datatype,
        tag: u32,
        repeat: u64,
    ) {
        self.events.push(TimedEvent {
            time: 0.0,
            event: Event::Send {
                src,
                dst,
                count,
                datatype,
                tag,
                repeat,
            },
        });
    }

    /// Record `repeat` identical collective calls on the world communicator.
    pub fn collective(
        &mut self,
        op: CollectiveOp,
        root: Option<usize>,
        payload: Payload,
        repeat: u64,
    ) {
        self.collective_on(op, CommId::WORLD, root, payload, repeat);
    }

    /// Record `repeat` identical collective calls on a given communicator.
    pub fn collective_on(
        &mut self,
        op: CollectiveOp,
        comm: CommId,
        root: Option<usize>,
        payload: Payload,
        repeat: u64,
    ) {
        self.events.push(TimedEvent {
            time: 0.0,
            event: Event::Collective {
                op,
                comm,
                root,
                payload,
                repeat,
            },
        });
    }

    /// Finish: assigns synthetic timestamps spread evenly over
    /// `[0, exec_time_s)` in insertion order and returns the trace.
    pub fn build(mut self) -> Trace {
        let n = self.events.len().max(1) as f64;
        for (i, te) in self.events.iter_mut().enumerate() {
            te.time = self.exec_time_s * i as f64 / n;
        }
        Trace {
            app: self.app,
            num_ranks: self.num_ranks,
            exec_time_s: self.exec_time_s,
            comms: self.comms,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("test", 4).exec_time_s(2.0);
        b.send(Rank(0), Rank(1), 1024, 5);
        b.send(Rank(1), Rank(2), 2048, 1);
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 10);
        b.build()
    }

    #[test]
    fn build_assigns_monotonic_times_within_exec_time() {
        let t = sample();
        let times: Vec<f64> = t.events.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|&x| (0.0..2.0).contains(&x)));
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let mut b = TraceBuilder::new("bad", 2);
        b.send(Rank(0), Rank(7), 10, 1);
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_payload_length() {
        let mut b = TraceBuilder::new("bad", 3);
        b.collective(
            CollectiveOp::Alltoallv,
            None,
            Payload::PerRank(vec![1, 2]),
            1,
        );
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn validate_rejects_root_out_of_range() {
        let mut b = TraceBuilder::new("bad", 3);
        b.collective(CollectiveOp::Bcast, Some(3), Payload::Uniform(1), 1);
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn validate_rejects_volumes_that_overflow() {
        let mut b = TraceBuilder::new("bad", 2);
        b.send_typed(Rank(0), Rank(1), u64::MAX / 4, Datatype::Double, 0, 1);
        assert!(b.build().validate().is_err());
        let mut b = TraceBuilder::new("bad", 3);
        let payload = Payload::Uniform(u64::MAX / 2);
        b.collective(CollectiveOp::ReduceScatter, None, payload, 1);
        assert!(b.build().validate().is_err());
        let mut b = TraceBuilder::new("bad", 2);
        let payload = Payload::PerRank(vec![u64::MAX, 1]);
        b.collective(CollectiveOp::Alltoallv, None, payload, 1);
        assert!(b.build().validate().is_err());
        // The largest representable volumes still validate.
        let mut b = TraceBuilder::new("edge", 2);
        b.send_typed(Rank(0), Rank(1), u64::MAX / 8, Datatype::Double, 0, 1);
        b.collective(
            CollectiveOp::Bcast,
            Some(0),
            Payload::Uniform(u64::MAX / 2),
            1,
        );
        b.build().validate().unwrap();
    }

    #[test]
    fn validate_rejects_nonpositive_exec_time() {
        let t = TraceBuilder::new("bad", 2).exec_time_s(0.0).build();
        assert!(t.validate().is_err());
    }

    #[test]
    fn global_communicator_detection() {
        let t = sample();
        assert!(t.uses_only_global_communicators());

        let mut b = TraceBuilder::new("sub", 4);
        let sub = b.register_comm(vec![Rank(0), Rank(2)]);
        b.collective_on(CollectiveOp::Bcast, sub, Some(0), Payload::Uniform(8), 1);
        assert!(!b.build().uses_only_global_communicators());
    }

    #[test]
    fn call_count_expands_repeats() {
        let t = sample();
        assert_eq!(t.events.len(), 3);
        let stats = t.stats();
        assert_eq!(stats.p2p_calls + stats.coll_calls, 16);
    }
}
