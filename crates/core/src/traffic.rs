//! Aggregated rank-pair traffic matrices.

use crate::fxhash::FxHashMap;
use crate::netmodel::PACKET_PAYLOAD;
use netloc_mpi::{translate_collective, Event, Trace};
use std::sync::OnceLock;

/// Aggregated traffic between one ordered rank pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTraffic {
    /// Total bytes sent from `src` to `dst`.
    pub bytes: u64,
    /// Number of messages.
    pub messages: u64,
    /// Number of network packets after splitting messages into
    /// [`PACKET_PAYLOAD`]-byte packets (§4.2.1).
    pub packets: u64,
}

/// A directed traffic matrix over ranks: for every ordered pair the total
/// bytes, message count, and packet count.
///
/// Self-traffic (`src == dst`) is never recorded — a message from a rank to
/// itself does not enter the network. Two constructors mirror the paper's
/// two analysis layers: [`TrafficMatrix::from_trace_p2p`] for the MPI-level
/// metrics (which consider only point-to-point messages, §4.1) and
/// [`TrafficMatrix::from_trace_full`] for the network model (which adds
/// collectives translated to p2p patterns, §4.4).
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    num_ranks: u32,
    pairs: FxHashMap<(u32, u32), PairTraffic>,
    /// Frozen sorted view of `pairs`, built on first [`sorted_pairs`] call
    /// and dropped by [`record`] — replays and sweeps read the matrix many
    /// times between mutations, so the collect + sort must not repeat.
    ///
    /// [`sorted_pairs`]: TrafficMatrix::sorted_pairs
    /// [`record`]: TrafficMatrix::record
    sorted: OnceLock<SortedPairs>,
}

/// The pairs sorted by `(src, dst)`, with each source rank's run located:
/// rank `r`'s pairs are `pairs[runs[r]..runs[r + 1]]` (ranks past the last
/// sender have no entry).
#[derive(Debug, Clone)]
struct SortedPairs {
    pairs: Vec<((u32, u32), PairTraffic)>,
    runs: Vec<usize>,
}

impl TrafficMatrix {
    /// An empty matrix over `num_ranks` ranks.
    pub fn new(num_ranks: u32) -> Self {
        TrafficMatrix {
            num_ranks,
            pairs: FxHashMap::default(),
            sorted: OnceLock::new(),
        }
    }

    /// Assemble a matrix from an already-accumulated pair map. Used by the
    /// parallel ingest fold in [`crate::ingest`], whose shards aggregate
    /// with exactly [`TrafficMatrix::record`]'s arithmetic before merging.
    pub(crate) fn from_parts(num_ranks: u32, pairs: FxHashMap<(u32, u32), PairTraffic>) -> Self {
        TrafficMatrix {
            num_ranks,
            pairs,
            sorted: OnceLock::new(),
        }
    }

    /// Record `repeat` messages of `bytes` bytes from `src` to `dst`.
    pub fn record(&mut self, src: u32, dst: u32, bytes: u64, repeat: u64) {
        debug_assert!(src < self.num_ranks && dst < self.num_ranks);
        if src == dst || repeat == 0 {
            return;
        }
        self.sorted.take();
        let e = self.pairs.entry((src, dst)).or_default();
        e.bytes += bytes * repeat;
        e.messages += repeat;
        e.packets += bytes.div_ceil(PACKET_PAYLOAD).max(1) * repeat;
    }

    /// Build from the point-to-point events of a trace only.
    pub fn from_trace_p2p(trace: &Trace) -> Self {
        let mut tm = TrafficMatrix::new(trace.num_ranks);
        for te in &trace.events {
            if let Event::Send {
                src, dst, repeat, ..
            } = &te.event
            {
                let bytes = te.event.p2p_bytes().expect("send has bytes");
                tm.record(src.0, dst.0, bytes, *repeat);
            }
        }
        tm
    }

    /// Build from all events, translating collectives into point-to-point
    /// messages per the paper's rules.
    pub fn from_trace_full(trace: &Trace) -> Self {
        let mut tm = Self::from_trace_p2p(trace);
        for te in &trace.events {
            if let Event::Collective {
                op,
                comm,
                root,
                payload,
                repeat,
            } = &te.event
            {
                let Some(c) = trace.comms.get(*comm) else {
                    continue;
                };
                for m in translate_collective(*op, c, *root, payload) {
                    tm.record(m.src.0, m.dst.0, m.bytes, *repeat);
                }
            }
        }
        tm
    }

    /// Number of ranks the matrix is defined over.
    #[inline]
    pub fn num_ranks(&self) -> u32 {
        self.num_ranks
    }

    /// Total bytes over all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.pairs.values().map(|p| p.bytes).sum()
    }

    /// Total packets over all pairs.
    pub fn total_packets(&self) -> u64 {
        self.pairs.values().map(|p| p.packets).sum()
    }

    /// Number of ordered pairs with traffic.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Traffic of one ordered pair, if any.
    pub fn get(&self, src: u32, dst: u32) -> Option<&PairTraffic> {
        self.pairs.get(&(src, dst))
    }

    /// Iterate over `((src, dst), traffic)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &PairTraffic)> {
        self.pairs.iter()
    }

    /// The pairs sorted by `(src, dst)` — deterministic order for reports
    /// and parallel sweeps. Computed once per matrix state and cached;
    /// [`TrafficMatrix::record`] invalidates the cache.
    pub fn sorted_pairs(&self) -> &[((u32, u32), PairTraffic)] {
        &self.sorted().pairs
    }

    /// The pairs rank `src` sends, sorted by destination: one contiguous
    /// run of [`TrafficMatrix::sorted_pairs`], located without a search.
    pub(crate) fn source_run(&self, src: u32) -> &[((u32, u32), PairTraffic)] {
        let sorted = self.sorted();
        match sorted.runs.get(src as usize..src as usize + 2) {
            Some(&[lo, hi]) => &sorted.pairs[lo..hi],
            _ => &[],
        }
    }

    fn sorted(&self) -> &SortedPairs {
        self.sorted.get_or_init(|| {
            let mut pairs: Vec<_> = self.pairs.iter().map(|(k, p)| (*k, *p)).collect();
            pairs.sort_unstable_by_key(|(k, _)| *k);
            let sources = pairs.last().map_or(0, |&((s, _), _)| s as usize + 1);
            let mut runs = vec![0; sources + 1];
            for &((s, _), _) in &pairs {
                runs[s as usize + 1] += 1;
            }
            for r in 1..runs.len() {
                runs[r] += runs[r - 1];
            }
            SortedPairs { pairs, runs }
        })
    }

    /// Outgoing volume per destination for one source rank, sorted by
    /// volume descending (the paper's Figure 1 view).
    pub fn out_profile(&self, src: u32) -> Vec<(u32, u64)> {
        let mut v = Vec::new();
        self.out_profile_into(src, &mut v);
        v
    }

    /// [`TrafficMatrix::out_profile`] into a caller-owned buffer, so
    /// per-rank loops (selectivity curves, peers) reuse one allocation
    /// instead of collecting a fresh `Vec` per rank. Reads the source's run
    /// of the cached [`TrafficMatrix::sorted_pairs`] view instead of
    /// scanning the map.
    pub fn out_profile_into(&self, src: u32, out: &mut Vec<(u32, u64)>) {
        out.clear();
        out.extend(self.source_run(src).iter().map(|&((_, d), p)| (d, p.bytes)));
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// Symmetrized undirected volume per unordered pair (used by the
    /// mapping optimizer).
    pub fn undirected_entries(&self) -> Vec<netloc_topology::optimize::TrafficEntry> {
        let mut acc: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for (&(s, d), p) in &self.pairs {
            let key = if s <= d { (s, d) } else { (d, s) };
            *acc.entry(key).or_default() += p.bytes;
        }
        let mut v: Vec<_> = acc
            .into_iter()
            .map(|((s, d), bytes)| netloc_topology::optimize::TrafficEntry {
                src: s as usize,
                dst: d as usize,
                bytes,
            })
            .collect();
        v.sort_unstable_by_key(|e| (e.src, e.dst));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_mpi::{CollectiveOp, Payload, Rank, TraceBuilder};

    #[test]
    fn record_aggregates_pairs() {
        let mut tm = TrafficMatrix::new(4);
        tm.record(0, 1, 100, 2);
        tm.record(0, 1, 50, 1);
        let p = tm.get(0, 1).unwrap();
        assert_eq!(p.bytes, 250);
        assert_eq!(p.messages, 3);
        assert_eq!(p.packets, 3); // all messages below one packet payload
    }

    #[test]
    fn self_traffic_is_dropped() {
        let mut tm = TrafficMatrix::new(4);
        tm.record(2, 2, 1000, 5);
        assert_eq!(tm.num_pairs(), 0);
        assert_eq!(tm.total_bytes(), 0);
    }

    #[test]
    fn packetization_rounds_up() {
        let mut tm = TrafficMatrix::new(2);
        tm.record(0, 1, PACKET_PAYLOAD, 1); // exactly one packet
        tm.record(0, 1, PACKET_PAYLOAD + 1, 1); // two packets
        tm.record(0, 1, 0, 1); // zero-byte message still is one packet
        assert_eq!(tm.get(0, 1).unwrap().packets, 4);
    }

    #[test]
    fn p2p_matrix_ignores_collectives() {
        let mut b = TraceBuilder::new("t", 4);
        b.send(Rank(0), Rank(1), 100, 1);
        b.collective(CollectiveOp::Alltoall, None, Payload::Uniform(10), 1);
        let tm = TrafficMatrix::from_trace_p2p(&b.build());
        assert_eq!(tm.total_bytes(), 100);
        assert_eq!(tm.num_pairs(), 1);
    }

    #[test]
    fn full_matrix_translates_collectives() {
        let mut b = TraceBuilder::new("t", 4);
        b.send(Rank(0), Rank(1), 100, 1);
        b.collective(CollectiveOp::Alltoall, None, Payload::Uniform(10), 2);
        let tm = TrafficMatrix::from_trace_full(&b.build());
        // 100 p2p + 2 * (4*3*10) collective bytes.
        assert_eq!(tm.total_bytes(), 100 + 240);
        assert_eq!(tm.num_pairs(), 12); // all ordered pairs
    }

    #[test]
    fn out_profile_sorted_by_volume() {
        let mut tm = TrafficMatrix::new(5);
        tm.record(0, 1, 10, 1);
        tm.record(0, 2, 300, 1);
        tm.record(0, 3, 50, 1);
        tm.record(4, 0, 999, 1); // different source, excluded
        let profile = tm.out_profile(0);
        assert_eq!(profile, vec![(2, 300), (3, 50), (1, 10)]);
        assert_eq!(profile.iter().map(|&(_, b)| b).sum::<u64>(), 360);
    }

    #[test]
    fn undirected_entries_merge_directions() {
        let mut tm = TrafficMatrix::new(3);
        tm.record(0, 1, 100, 1);
        tm.record(1, 0, 40, 1);
        tm.record(2, 0, 7, 1);
        let und = tm.undirected_entries();
        assert_eq!(und.len(), 2);
        assert_eq!(und[0].src, 0);
        assert_eq!(und[0].dst, 1);
        assert_eq!(und[0].bytes, 140);
        assert_eq!(und[1].bytes, 7);
    }

    #[test]
    fn sorted_pairs_is_deterministic() {
        let mut tm = TrafficMatrix::new(4);
        tm.record(3, 0, 1, 1);
        tm.record(0, 3, 2, 1);
        tm.record(1, 2, 3, 1);
        let keys: Vec<_> = tm.sorted_pairs().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 3), (1, 2), (3, 0)]);
    }

    #[test]
    fn sorted_pairs_cache_invalidated_by_record() {
        let mut tm = TrafficMatrix::new(4);
        tm.record(2, 1, 10, 1);
        assert_eq!(tm.sorted_pairs().len(), 1);
        // Cache is warm now; a record must drop it, not serve stale pairs.
        tm.record(0, 3, 5, 2);
        let keys: Vec<_> = tm.sorted_pairs().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 3), (2, 1)]);
        // Repeated reads return the same frozen slice.
        assert_eq!(tm.sorted_pairs().as_ptr(), tm.sorted_pairs().as_ptr());
    }
}
