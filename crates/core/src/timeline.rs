//! Time-resolved injection analysis (extension).
//!
//! The paper's model is static, and its discussion flags temporal effects
//! ("slackness") as future work (§7). This module takes the first step that
//! is possible without a simulator: it bins the *injection* of traffic over
//! the trace's timestamps and reports how bursty the offered load is. The
//! peak-to-mean ratio bounds how much a bandwidth-reduced network (the
//! paper's energy proposal) would stretch the busiest phase.
//!
//! Repeated events (`repeat > 1`) are spread evenly from their timestamp to
//! the end of the trace — the aggregated trace format does not retain the
//! exact per-call times, and an even spread is the least-biased choice for
//! iterative applications.

use netloc_mpi::{collective_volume, Event, Trace};

/// Injected-volume histogram over execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Window length in seconds.
    pub window_s: f64,
    /// Injected bytes per window.
    pub bins: Vec<f64>,
}

impl Timeline {
    /// Bin a trace's injected volume (p2p + translated collectives) into
    /// `num_bins` equal windows over `[0, exec_time]`.
    ///
    /// # Panics
    /// Panics if `num_bins == 0`.
    pub fn compute(trace: &Trace, num_bins: usize) -> Self {
        assert!(num_bins > 0, "need at least one bin");
        let t_end = trace.exec_time_s.max(f64::MIN_POSITIVE);
        let window = t_end / num_bins as f64;
        let mut bins = vec![0.0f64; num_bins];
        let bin_of = |time: f64| (((time / t_end) * num_bins as f64) as usize).min(num_bins - 1);
        for te in &trace.events {
            let (bytes_per_call, repeat) = match &te.event {
                Event::Send { repeat, .. } => (te.event.p2p_bytes().unwrap_or(0) as f64, *repeat),
                Event::Collective {
                    op,
                    comm,
                    root,
                    payload,
                    repeat,
                } => {
                    let Some(c) = trace.comms.get(*comm) else {
                        continue;
                    };
                    (collective_volume(*op, c, *root, payload) as f64, *repeat)
                }
            };
            if repeat == 1 {
                bins[bin_of(te.time)] += bytes_per_call;
                continue;
            }
            // Spread the repeats evenly from the event time to the end.
            // Sample `k`'s bin is monotone in `k`, so the samples fill runs
            // of one bin each: bisect for each run's end and deposit the
            // run at once, O(bins · log repeat) instead of O(repeat).
            let span = t_end - te.time;
            let sample_bin = |k: u64| bin_of(te.time + span * (k as f64 + 0.5) / repeat as f64);
            let mut k = 0;
            while k < repeat {
                let bin = sample_bin(k);
                let (mut last, mut past) = (k, repeat);
                while past - last > 1 {
                    let mid = last + (past - last) / 2;
                    if sample_bin(mid) == bin {
                        last = mid;
                    } else {
                        past = mid;
                    }
                }
                bins[bin] += bytes_per_call * (past - k) as f64;
                k = past;
            }
        }
        Timeline {
            window_s: window,
            bins,
        }
    }

    /// Mean injected bytes per window.
    pub fn mean(&self) -> f64 {
        self.bins.iter().sum::<f64>() / self.bins.len() as f64
    }

    /// Peak injected bytes in any window.
    pub fn peak(&self) -> f64 {
        self.bins.iter().copied().fold(0.0, f64::max)
    }

    /// Peak-to-mean burstiness ratio (1.0 = perfectly smooth offered load).
    pub fn burstiness(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.peak() / mean
        }
    }

    /// Fraction of windows with zero injection — idle phases an
    /// energy-saving link policy could exploit.
    pub fn idle_fraction(&self) -> f64 {
        self.bins.iter().filter(|&&b| b == 0.0).count() as f64 / self.bins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_mpi::{CollectiveOp, Payload, Rank, TraceBuilder};

    #[test]
    fn total_volume_is_conserved() {
        let mut b = TraceBuilder::new("t", 4).exec_time_s(10.0);
        b.send(Rank(0), Rank(1), 1000, 7);
        b.collective(CollectiveOp::Bcast, Some(0), Payload::Uniform(100), 3);
        let trace = b.build();
        let tl = Timeline::compute(&trace, 16);
        let total: f64 = tl.bins.iter().sum();
        let expect = trace.stats().total_bytes() as f64;
        assert!((total - expect).abs() < 1e-6, "{total} vs {expect}");
    }

    #[test]
    fn spread_repeats_are_smooth() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(1.0);
        b.send(Rank(0), Rank(1), 100, 10_000);
        let tl = Timeline::compute(&b.build(), 10);
        assert!(tl.burstiness() < 1.2, "{}", tl.burstiness());
        assert_eq!(tl.idle_fraction(), 0.0);
    }

    #[test]
    fn single_event_is_a_spike() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(10.0);
        b.send(Rank(0), Rank(1), 1 << 20, 1);
        let tl = Timeline::compute(&b.build(), 10);
        assert_eq!(tl.burstiness(), 10.0); // everything in one window
        assert_eq!(tl.idle_fraction(), 0.9);
    }

    #[test]
    fn empty_trace_is_all_idle() {
        let trace = TraceBuilder::new("t", 2).exec_time_s(1.0).build();
        let tl = Timeline::compute(&trace, 8);
        assert_eq!(tl.burstiness(), 0.0);
        assert_eq!(tl.idle_fraction(), 1.0);
    }

    /// The O(repeat) per-sample loop that `compute`'s run deposits replace.
    fn per_repeat_bins(trace: &Trace, num_bins: usize) -> Vec<f64> {
        let t_end = trace.exec_time_s.max(f64::MIN_POSITIVE);
        let mut bins = vec![0.0f64; num_bins];
        let mut deposit = |time: f64, bytes: f64| {
            let idx = ((time / t_end) * num_bins as f64) as usize;
            bins[idx.min(num_bins - 1)] += bytes;
        };
        for te in &trace.events {
            let (bytes, repeat) = match &te.event {
                Event::Send { repeat, .. } => (te.event.p2p_bytes().unwrap() as f64, *repeat),
                Event::Collective {
                    op,
                    comm,
                    root,
                    payload,
                    repeat,
                } => {
                    let c = trace.comms.get(*comm).unwrap();
                    (collective_volume(*op, c, *root, payload) as f64, *repeat)
                }
            };
            if repeat == 1 {
                deposit(te.time, bytes);
            } else {
                let span = t_end - te.time;
                for k in 0..repeat {
                    deposit(te.time + span * (k as f64 + 0.5) / repeat as f64, bytes);
                }
            }
        }
        bins
    }

    #[test]
    fn run_deposits_equal_the_per_repeat_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(25);
        for _ in 0..40 {
            let exec_time = rng.gen_range(0.001..100.0);
            let mut b = TraceBuilder::new("t", 8).exec_time_s(exec_time);
            for _ in 0..rng.gen_range(1..30) {
                let repeat = rng.gen_range(1..=10_000);
                if rng.gen_bool(0.7) {
                    let (src, dst) = (rng.gen_range(0..8), rng.gen_range(0..8));
                    b.send(Rank(src), Rank(dst), rng.gen_range(0..1 << 20), repeat);
                } else {
                    let payload = Payload::Uniform(rng.gen_range(0..1 << 16));
                    b.collective(CollectiveOp::Allgather, None, payload, repeat);
                }
            }
            let mut trace = b.build();
            // Events past the end or before the start spread backwards or
            // over the whole window; both keep the bins monotone in `k`.
            for te in &mut trace.events {
                if rng.gen_bool(0.2) {
                    te.time = exec_time * rng.gen_range(-0.5..1.5);
                }
            }
            for bins in [1, 7, 64, 1000] {
                let tl = Timeline::compute(&trace, bins);
                assert_eq!(tl.bins, per_repeat_bins(&trace, bins), "{bins} bins");
            }
        }
    }

    #[test]
    fn huge_repeat_counts_finish_and_conserve_volume() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(3.0);
        b.send(Rank(0), Rank(1), 1 << 20, 1);
        b.send(Rank(1), Rank(0), 300, u64::MAX);
        let start = std::time::Instant::now();
        let tl = Timeline::compute(&b.build(), 4096);
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
        let total: f64 = tl.bins.iter().sum();
        let expect = (1u64 << 20) as f64 + 300.0 * u64::MAX as f64;
        assert!(
            ((total - expect) / expect).abs() < 1e-9,
            "{total} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let trace = TraceBuilder::new("t", 2).build();
        Timeline::compute(&trace, 0);
    }
}
