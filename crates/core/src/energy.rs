//! Interconnect energy model (extension).
//!
//! The paper motivates the utilization metric with energy: links consume
//! power statically regardless of load, with ~85 % of switch power in the
//! SerDes and ~15 % in the switching logic (§2.2.1, citing Zahn et al.,
//! HiPINEB 2016). This module turns a [`crate::NetworkReport`] into the
//! energy figures the paper's discussion reasons about: the energy a
//! constantly-powered network burns during the run, versus the lower bound
//! an ideal energy-proportional network would need.

use crate::netmodel::NetworkReport;
use serde::Serialize;

/// Per-link power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    /// Static power drawn by one powered link end-to-end, in watts.
    pub link_power_w: f64,
    /// Fraction of that power spent in the SerDes (the part an idle-aware
    /// link could power-gate).
    pub serdes_share: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // A representative HPC link: ~10 W static, 85 % SerDes (paper §2.2.1).
        EnergyModel {
            link_power_w: 10.0,
            serdes_share: 0.85,
        }
    }
}

/// Energy figures for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyReport {
    /// Energy of today's always-on network over the run, counting only the
    /// links that serve the application (joules).
    pub static_energy_j: f64,
    /// Lower bound with perfect energy proportionality: SerDes power only
    /// while a link transmits, logic always on (joules).
    pub proportional_energy_j: f64,
    /// `proportional / static` — how much of the energy is actually needed.
    pub proportionality_ratio: f64,
}

impl EnergyModel {
    /// Estimate run energy from a network report and the execution time.
    pub fn estimate(&self, report: &NetworkReport, exec_time_s: f64) -> EnergyReport {
        let links = report.used_links as f64;
        let static_energy = self.link_power_w * links * exec_time_s;
        // Mean busy time per used link = utilization × exec time.
        let busy = report.utilization(exec_time_s) * exec_time_s;
        let proportional = links
            * self.link_power_w
            * ((1.0 - self.serdes_share) * exec_time_s + self.serdes_share * busy);
        EnergyReport {
            static_energy_j: static_energy,
            proportional_energy_j: proportional,
            proportionality_ratio: if static_energy > 0.0 {
                proportional / static_energy
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::analyze_network;
    use crate::traffic::TrafficMatrix;
    use netloc_topology::{Mapping, Torus};

    fn report() -> NetworkReport {
        let topo = Torus::new([4, 1, 1]);
        let m = Mapping::consecutive(4, 4);
        let mut tm = TrafficMatrix::new(4);
        for r in 0..4u32 {
            tm.record(r, (r + 1) % 4, 1_000_000, 10);
        }
        analyze_network(&topo, &m, &tm)
    }

    #[test]
    fn static_energy_scales_with_links_and_time() {
        let model = EnergyModel::default();
        let rep = report();
        let e1 = model.estimate(&rep, 1.0);
        let e2 = model.estimate(&rep, 2.0);
        assert!((e2.static_energy_j - 2.0 * e1.static_energy_j).abs() < 1e-9);
        assert_eq!(e1.static_energy_j, 10.0 * rep.used_links as f64);
    }

    #[test]
    fn proportional_energy_is_bounded_by_static() {
        let model = EnergyModel::default();
        let rep = report();
        let e = model.estimate(&rep, 1.0);
        assert!(e.proportional_energy_j <= e.static_energy_j);
        assert!(e.proportional_energy_j > 0.0);
        assert!((0.0..=1.0).contains(&e.proportionality_ratio));
    }

    #[test]
    fn idle_network_still_pays_logic_power() {
        let model = EnergyModel::default();
        let rep = report();
        // Extremely long run: utilization → 0, ratio → 1 - serdes_share.
        let e = model.estimate(&rep, 1e9);
        assert!((e.proportionality_ratio - 0.15).abs() < 1e-3);
    }
}
