//! Per-event energy model behind the Fig 9b power breakdown.
//!
//! Average power = (Σ event energies) / execution time. Constants follow
//! published HBM2/SRAM figures at 14/12 nm ([32, 63] in the paper) and the
//! FU TDPs of Table 2 converted to energy per busy cycle.

use crate::area::fu_tdp_w;
use crate::config::ArchConfig;
use f1_isa::FuType;

/// Energy cost constants (picojoules per byte unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// HBM2 access energy per byte (≈ 3.9 pJ/bit including PHY \[63\]).
    pub hbm_pj_per_byte: f64,
    /// Scratchpad SRAM access energy per byte.
    pub scratchpad_pj_per_byte: f64,
    /// On-chip network traversal energy per byte.
    pub noc_pj_per_byte: f64,
    /// Register-file access energy per byte.
    pub rf_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            hbm_pj_per_byte: 31.2,
            scratchpad_pj_per_byte: 2.4,
            noc_pj_per_byte: 1.9,
            rf_pj_per_byte: 1.1,
        }
    }
}

/// Event counts the simulator derives from a schedule's streams.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EnergyCounters {
    /// Bytes moved over HBM (both directions).
    pub hbm_bytes: u64,
    /// Bytes read/written at scratchpad banks.
    pub scratchpad_bytes: u64,
    /// Bytes traversing the NoC.
    pub noc_bytes: u64,
    /// Bytes read/written at register files.
    pub rf_bytes: u64,
    /// Busy cycles per FU class, summed over all instances.
    pub fu_busy_cycles: [u64; 4],
}

impl EnergyCounters {
    /// Records `cycles` of activity on one FU of class `fu`.
    pub fn add_fu_busy(&mut self, fu: FuType, cycles: u64) {
        self.fu_busy_cycles[fu.index()] += cycles;
    }
}

/// The Fig 9b breakdown: average power per component class, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// HBM accesses.
    pub hbm_w: f64,
    /// Scratchpad accesses.
    pub scratchpad_w: f64,
    /// NoC traffic.
    pub noc_w: f64,
    /// Register files.
    pub rf_w: f64,
    /// Functional units.
    pub fus_w: f64,
}

impl PowerBreakdown {
    /// Total average power.
    pub fn total_w(&self) -> f64 {
        self.hbm_w + self.scratchpad_w + self.noc_w + self.rf_w + self.fus_w
    }

    /// Fraction of power spent on data movement (everything but FUs) —
    /// the paper's "computation consumes 20-30% of power, and data
    /// movement dominates" claim (§8.2).
    pub fn data_movement_fraction(&self) -> f64 {
        1.0 - self.fus_w / self.total_w()
    }
}

impl EnergyModel {
    /// Converts event counters plus a makespan into the average-power
    /// breakdown of Fig 9b.
    pub fn power_breakdown(
        &self,
        counters: &EnergyCounters,
        makespan_cycles: u64,
        cfg: &ArchConfig,
    ) -> PowerBreakdown {
        let seconds = makespan_cycles.max(1) as f64 / (cfg.freq_ghz * 1e9);
        let pj = |bytes: u64, per_byte: f64| bytes as f64 * per_byte * 1e-12;
        let mut fus_j = 0.0;
        for fu in FuType::ALL {
            let busy = counters.fu_busy_cycles[fu.index()] as f64;
            fus_j += busy * fu_tdp_w(fu) / (cfg.freq_ghz * 1e9);
        }
        PowerBreakdown {
            hbm_w: pj(counters.hbm_bytes, self.hbm_pj_per_byte) / seconds,
            scratchpad_w: pj(counters.scratchpad_bytes, self.scratchpad_pj_per_byte) / seconds,
            noc_w: pj(counters.noc_bytes, self.noc_pj_per_byte) / seconds,
            rf_w: pj(counters.rf_bytes, self.rf_pj_per_byte) / seconds,
            fus_w: fus_j / seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bandwidth_hbm_power_is_plausible() {
        // Streaming 1 TB/s for 1M cycles (1 ms): HBM power ≈ 32 W, the
        // ballpark of HBM2 at full tilt.
        let model = EnergyModel::default();
        let cfg = ArchConfig::f1_default();
        // 1 KB/cycle for 1M cycles.
        let c = EnergyCounters { hbm_bytes: 1024 * 1_000_000, ..Default::default() };
        let p = model.power_breakdown(&c, 1_000_000, &cfg);
        assert!((25.0..40.0).contains(&p.hbm_w), "hbm power {}", p.hbm_w);
    }

    #[test]
    fn fu_power_caps_at_tdp() {
        // All 16 NTT units busy every cycle: power = 16 × 4.8 W.
        let model = EnergyModel::default();
        let cfg = ArchConfig::f1_default();
        let mut c = EnergyCounters::default();
        c.add_fu_busy(FuType::Ntt, 16 * 1_000_000);
        let p = model.power_breakdown(&c, 1_000_000, &cfg);
        assert!((p.fus_w - 16.0 * 4.8).abs() < 0.1, "{}", p.fus_w);
    }

    #[test]
    fn breakdown_totals_and_fraction() {
        let model = EnergyModel::default();
        let cfg = ArchConfig::f1_default();
        let mut c = EnergyCounters {
            hbm_bytes: 500_000_000,
            scratchpad_bytes: 2_000_000_000,
            noc_bytes: 1_500_000_000,
            rf_bytes: 3_000_000_000,
            ..Default::default()
        };
        c.add_fu_busy(FuType::Mul, 10_000_000);
        let p = model.power_breakdown(&c, 1_000_000, &cfg);
        let sum = p.hbm_w + p.scratchpad_w + p.noc_w + p.rf_w + p.fus_w;
        assert!((p.total_w() - sum).abs() < 1e-9);
        assert!(p.data_movement_fraction() > 0.5, "data movement should dominate");
    }
}
