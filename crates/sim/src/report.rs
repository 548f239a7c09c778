//! Simulation results.
//!
//! Both engines — the sequential reference ([`crate::refsim`]) and the
//! sharded parallel engine ([`crate::engine`]) — produce the same raw
//! arrays (per-message outcomes in injection order, per-slot busy time,
//! per-slot-per-window busy time) and hand them to one shared builder,
//! `SimReport::build`. Every aggregate is therefore reduced in a fixed
//! order regardless of which engine (or how many workers) produced the
//! inputs, which is what lets `netloc verify` demand *byte-identical*
//! reports rather than tolerance comparisons.

use crate::expand::Injection;
use crate::kernel::{MsgOutcome, SlotState};
use crate::windows::WindowStats;
use serde::Serialize;

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Messages simulated.
    pub messages: u64,
    /// Bytes injected.
    pub bytes: u128,
    /// Mean end-to-end latency (injection → last-hop completion), seconds.
    pub mean_latency_s: f64,
    /// Maximum end-to-end latency, seconds.
    pub max_latency_s: f64,
    /// Total queueing (contention-induced) delay over all messages.
    pub total_queueing_s: f64,
    /// Mean queueing delay per message.
    pub mean_queueing_s: f64,
    /// Completion time of the last message, seconds.
    pub makespan_s: f64,
    /// Time of the last injection, seconds — the end of the window grid.
    pub injection_horizon_s: f64,
    /// Σ over links of their busy time (link-seconds).
    pub total_busy_link_s: f64,
    /// Σ over messages of offered link-seconds (hops × serialization):
    /// the static demand the busy time is bounded by.
    pub total_offered_link_s: f64,
    /// Busiest single link's busy time, seconds.
    pub peak_link_busy_s: f64,
    /// Links that carried at least one message.
    pub used_links: usize,
    /// Subsampling stride applied during expansion (1 = exact).
    pub sample_stride: u64,
    /// Per-window congestion statistics over the injection horizon.
    pub windows: Vec<WindowStats>,
    /// Per-link busy seconds.
    #[serde(skip)]
    pub link_busy_s: Vec<f64>,
}

impl SimReport {
    /// Reduce per-message outcomes and slot-state arrays into the report.
    ///
    /// `outcomes[i]` must correspond to `injections[i]` (canonical
    /// injection order); the reduction walks them once in that order.
    pub(crate) fn build(
        injections: &[Injection],
        outcomes: &[MsgOutcome],
        st: &SlotState,
        num_links: usize,
    ) -> Self {
        debug_assert_eq!(injections.len(), outcomes.len());
        let grid = &st.grid;
        let wcount = grid.count();

        let mut messages = 0u64;
        let mut bytes = 0u128;
        let mut sum_latency = 0.0f64;
        let mut max_latency = 0.0f64;
        let mut total_queueing = 0.0f64;
        let mut makespan = 0.0f64;
        let mut total_offered = 0.0f64;
        let mut w_messages = vec![0u64; wcount];
        let mut w_bytes = vec![0u128; wcount];
        let mut w_offered = vec![0.0f64; wcount];
        let mut w_slow_sum = vec![0.0f64; wcount];
        let mut w_slow_max = vec![0.0f64; wcount];

        for (inj, out) in injections.iter().zip(outcomes) {
            messages += 1;
            bytes += inj.bytes as u128;
            let latency = out.completion - inj.time;
            sum_latency += latency;
            max_latency = max_latency.max(latency);
            total_queueing += out.queueing.max(0.0);
            makespan = makespan.max(out.completion);
            total_offered += out.offered;
            if wcount > 0 {
                let w = grid.index_of(inj.time);
                w_messages[w] += 1;
                w_bytes[w] += inj.bytes as u128;
                w_offered[w] += out.offered;
                // Contention-free latency recovered from the unclamped
                // queueing; the clamp keeps slowdown ≥ 1 under float
                // re-association noise.
                let uncontended = latency - out.queueing;
                let slowdown = if uncontended > 0.0 {
                    (latency / uncontended).max(1.0)
                } else {
                    1.0
                };
                w_slow_sum[w] += slowdown;
                w_slow_max[w] = w_slow_max[w].max(slowdown);
            }
        }

        // Per-link busy: both directions of a link, combined in index
        // order (a fixed order, unlike the seed's interleaved-by-arrival
        // accumulation).
        let mut link_busy = Vec::with_capacity(num_links);
        for l in 0..num_links {
            link_busy.push(st.busy.get(2 * l) + st.busy.get(2 * l + 1));
        }
        let total_busy: f64 = link_busy.iter().sum();
        let peak_busy = link_busy.iter().copied().fold(0.0, f64::max);
        let used_links = link_busy.iter().filter(|&&b| b > 0.0).count();

        // Per-window busy: ascending slot order within each window.
        let mut windows = Vec::with_capacity(wcount);
        for w in 0..wcount {
            let mut busy = 0.0f64;
            for s in 0..2 * num_links {
                busy += st.win_busy.get(s * wcount + w);
            }
            let duration = grid.end_of(w) - grid.start_of(w);
            let denom = duration * used_links as f64;
            let (measured, offered_util) = if denom > 0.0 {
                (busy / denom, w_offered[w] / denom)
            } else {
                (0.0, 0.0)
            };
            windows.push(WindowStats {
                t_start_s: grid.start_of(w),
                t_end_s: grid.end_of(w),
                messages: w_messages[w],
                bytes: w_bytes[w],
                offered_link_s: w_offered[w],
                busy_link_s: busy,
                measured_utilization: measured,
                offered_utilization: offered_util,
                mean_slowdown: if w_messages[w] > 0 {
                    w_slow_sum[w] / w_messages[w] as f64
                } else {
                    1.0
                },
                max_slowdown: w_slow_max[w],
            });
        }

        SimReport {
            messages,
            bytes,
            mean_latency_s: if messages > 0 {
                sum_latency / messages as f64
            } else {
                0.0
            },
            max_latency_s: max_latency,
            total_queueing_s: total_queueing,
            mean_queueing_s: if messages > 0 {
                total_queueing / messages as f64
            } else {
                0.0
            },
            makespan_s: makespan,
            injection_horizon_s: grid.horizon(),
            total_busy_link_s: total_busy,
            total_offered_link_s: total_offered,
            peak_link_busy_s: peak_busy,
            used_links,
            sample_stride: 1,
            windows,
            link_busy_s: link_busy,
        }
    }

    /// Mean busy fraction of the used links over the makespan — the
    /// *measured* counterpart of the paper's static utilization (Eq. 5).
    pub fn measured_utilization(&self) -> f64 {
        if self.used_links == 0 || self.makespan_s <= 0.0 {
            0.0
        } else {
            self.total_busy_link_s / (self.makespan_s * self.used_links as f64)
        }
    }

    /// Static upper bound on [`measured_utilization`](Self::measured_utilization):
    /// the offered link-seconds spread over the injection horizon and the
    /// used links, as the paper's Eq. 5 spreads volume over the runtime.
    /// The bound holds because the links perform exactly the offered work
    /// and the makespan can never precede the last injection; it is
    /// `+inf` in the degenerate case of a zero-length horizon.
    pub fn static_utilization_upper_bound(&self) -> f64 {
        if self.used_links == 0 {
            return 0.0;
        }
        let denom = self.injection_horizon_s * self.used_links as f64;
        if denom > 0.0 {
            self.total_offered_link_s / denom
        } else if self.total_offered_link_s > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Mean slowdown factor: observed latency over contention-free latency.
    /// 1.0 means the network was effectively uncontended.
    pub fn mean_slowdown(&self) -> f64 {
        let uncontended = self.mean_latency_s - self.mean_queueing_s;
        if uncontended <= 0.0 {
            1.0
        } else {
            self.mean_latency_s / uncontended
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::process_message;
    use crate::windows::WindowGrid;
    use crate::SimConfig;

    fn inj(time: f64, bytes: u64) -> Injection {
        Injection {
            time,
            src: 0,
            dst: 1,
            bytes,
        }
    }

    /// Drive the real kernel over a tiny two-link line and build a report.
    fn run(injections: &[(f64, u64, Vec<u32>)], windows: usize) -> SimReport {
        let cfg = SimConfig {
            bandwidth: 1e9,
            hop_latency_s: 0.0,
            ..Default::default()
        };
        let horizon = injections.iter().map(|i| i.0).fold(0.0, f64::max);
        let st = SlotState::new(2, WindowGrid::covering(horizon, windows));
        let (mut injs, mut outs) = (Vec::new(), Vec::new());
        for (time, bytes, slots) in injections {
            let i = inj(*time, *bytes);
            outs.push(process_message(&i, slots, &cfg, &st));
            injs.push(i);
        }
        SimReport::build(&injs, &outs, &st, 2)
    }

    #[test]
    fn aggregates_are_consistent() {
        // Two 1 GB messages over the same slot: the second queues 1 s.
        let r = run(
            &[(0.0, 1_000_000_000, vec![0]), (0.0, 1_000_000_000, vec![0])],
            4,
        );
        assert_eq!(r.messages, 2);
        assert_eq!(r.bytes, 2_000_000_000);
        assert!((r.mean_latency_s - 1.5).abs() < 1e-12);
        assert!((r.max_latency_s - 2.0).abs() < 1e-12);
        assert!((r.total_queueing_s - 1.0).abs() < 1e-12);
        assert_eq!(r.makespan_s, 2.0);
        assert_eq!(r.used_links, 1);
        assert!((r.total_busy_link_s - 2.0).abs() < 1e-12);
        assert!((r.peak_link_busy_s - 2.0).abs() < 1e-12);
        assert!((r.total_offered_link_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_busy_and_offered_are_conserved() {
        let r = run(
            &[
                (0.0, 500_000_000, vec![0, 2]),
                (1.0, 250_000_000, vec![2]),
                (2.0, 1_000_000_000, vec![0]),
            ],
            3,
        );
        assert_eq!(r.windows.len(), 3);
        let wb: f64 = r.windows.iter().map(|w| w.busy_link_s).sum();
        assert!((wb - r.total_busy_link_s).abs() < 1e-9 * r.total_busy_link_s);
        let wo: f64 = r.windows.iter().map(|w| w.offered_link_s).sum();
        assert!((wo - r.total_offered_link_s).abs() < 1e-9 * r.total_offered_link_s);
        let wm: u64 = r.windows.iter().map(|w| w.messages).sum();
        assert_eq!(wm, r.messages);
        assert!(r.windows.iter().all(|w| w.mean_slowdown >= 1.0));
        assert!(r.windows.iter().all(|w| w.t_end_s >= w.t_start_s));
    }

    #[test]
    fn measured_utilization_within_static_bound() {
        let r = run(
            &[(0.0, 1_000_000_000, vec![0]), (1.5, 1_000_000_000, vec![0])],
            2,
        );
        let util = r.measured_utilization();
        assert!(util > 0.0);
        assert!(util <= r.static_utilization_upper_bound() + 1e-12);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let st = SlotState::new(3, WindowGrid::covering(0.0, 0));
        let r = SimReport::build(&[], &[], &st, 3);
        assert_eq!(r.messages, 0);
        assert_eq!(r.measured_utilization(), 0.0);
        assert_eq!(r.static_utilization_upper_bound(), 0.0);
        assert_eq!(r.mean_slowdown(), 1.0);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn zero_horizon_bound_is_infinite_not_nan() {
        let r = run(&[(0.0, 1_000_000_000, vec![0])], 2);
        assert_eq!(r.injection_horizon_s, 0.0);
        assert!(r.static_utilization_upper_bound().is_infinite());
        assert!(r.measured_utilization() <= r.static_utilization_upper_bound());
    }
}
