//! Trace transformations: renumber the ranks of a trace, to study a
//! different logical-to-physical assignment at the *trace* level.

use crate::error::{MpiError, Result};
use crate::event::Event;
use crate::rank::Rank;
use crate::trace::Trace;

/// Renumber the ranks of a trace with `perm` (`perm[old] = new`).
/// Communicator member lists are renumbered too; the permutation must be a
/// bijection over `0..num_ranks`.
pub fn remap_ranks(trace: &Trace, perm: &[u32]) -> Result<Trace> {
    let n = trace.num_ranks as usize;
    if perm.len() != n {
        return Err(MpiError::Invalid(format!(
            "permutation length {} != {} ranks",
            perm.len(),
            n
        )));
    }
    let mut seen = vec![false; n];
    for &p in perm {
        let Some(slot) = seen.get_mut(p as usize) else {
            return Err(MpiError::Invalid(format!("rank {p} out of range")));
        };
        if std::mem::replace(slot, true) {
            return Err(MpiError::Invalid(format!("rank {p} mapped twice")));
        }
    }

    let mut out = trace.clone();
    // Rebuild communicators with renumbered members. The world communicator
    // stays 0..n by definition; sub-communicators renumber their members.
    let mut comms = crate::comm::CommRegistry::new(trace.num_ranks);
    for comm in trace.comms.iter().skip(1) {
        comms.register(comm.members.iter().map(|r| Rank(perm[r.idx()])).collect());
    }
    out.comms = comms;
    for te in &mut out.events {
        if let Event::Send { src, dst, .. } = &mut te.event {
            *src = Rank(perm[src.idx()]);
            *dst = Rank(perm[dst.idx()]);
        }
    }
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollectiveOp, Payload};
    use crate::trace::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("a", 4).exec_time_s(2.0);
        let sub = b.register_comm(vec![Rank(1), Rank(3)]);
        b.send(Rank(0), Rank(1), 100, 2);
        b.collective_on(CollectiveOp::Bcast, sub, Some(0), Payload::Uniform(10), 1);
        b.build()
    }

    #[test]
    fn remap_reverses_cleanly() {
        let t = sample();
        let perm = [3u32, 2, 1, 0];
        let mapped = remap_ranks(&t, &perm).unwrap();
        // 0 -> 1 became 3 -> 2.
        assert!(matches!(
            mapped.events[0].event,
            Event::Send {
                src: Rank(3),
                dst: Rank(2),
                ..
            }
        ));
        // The sub-communicator {1,3} became {2,0}.
        let sub = mapped.comms.iter().nth(1).unwrap();
        assert_eq!(sub.members, vec![Rank(2), Rank(0)]);
        // Applying the inverse (same, here — an involution) restores it.
        let back = remap_ranks(&mapped, &perm).unwrap();
        assert_eq!(back.events, t.events);
    }

    #[test]
    fn remap_rejects_non_bijections() {
        let t = sample();
        assert!(remap_ranks(&t, &[0, 0, 1, 2]).is_err());
        assert!(remap_ranks(&t, &[0, 1, 2, 9]).is_err());
        assert!(remap_ranks(&t, &[0, 1]).is_err());
    }
}
