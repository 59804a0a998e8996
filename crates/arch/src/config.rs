//! The architecture description (Fig 3's input file) and timing model.

use f1_isa::{FuType, ValueId};

/// Complete description of an F1 configuration.
///
/// The default ([`ArchConfig::f1_default`]) matches the paper's
/// implementation (§6): 16 compute clusters × 128 lanes, each cluster with
/// 1 NTT, 1 automorphism, 2 multiplier and 2 adder FUs plus a 512 KB
/// banked register file; a 64 MB scratchpad in 16 banks; two HBM2 PHYs at
/// 512 GB/s each; compute at 1 GHz with double-pumped memories.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Number of compute clusters.
    pub clusters: usize,
    /// Vector lanes per FU (`E`).
    pub lanes: usize,
    /// NTT units per cluster.
    pub ntts_per_cluster: usize,
    /// Automorphism units per cluster.
    pub auts_per_cluster: usize,
    /// Multiplier units per cluster.
    pub muls_per_cluster: usize,
    /// Adder units per cluster.
    pub adds_per_cluster: usize,
    /// Register-file bytes per cluster.
    pub rf_bytes_per_cluster: u64,
    /// Scratchpad banks.
    pub scratchpad_banks: usize,
    /// Bytes per scratchpad bank.
    pub bank_bytes: u64,
    /// HBM2 PHYs.
    pub hbm_phys: usize,
    /// Bandwidth per PHY in GB/s.
    pub hbm_gbps_per_phy: u64,
    /// Independent HBM channels across all PHYs (8 per HBM2 stack). The
    /// cycle-level scheduler issues loads on all channels concurrently
    /// with compute, each at `hbm_bytes_per_cycle / hbm_channels`,
    /// instead of serializing transfers on one aggregate counter.
    pub hbm_channels: usize,
    /// Parallel 512-byte port lanes per (source, destination) pair on
    /// the on-chip crossbars (§6: three 16×16 crossbars). A transfer
    /// occupies one lane for `net_cycles(bytes)` cycles; contention is
    /// explicit instead of a flat per-hop constant.
    pub xbar_ports: usize,
    /// Compute clock in GHz (memories run at 2×, §6).
    pub freq_ghz: f64,
    /// Worst-case HBM access latency in compute cycles (§3: static
    /// scheduling assumes the worst case and buffers early arrivals).
    pub hbm_latency_cycles: u64,
    /// Table 5 ablation: replace the four-step NTT unit with HEAX-style
    /// low-throughput units (one butterfly stage per cycle), scaled in
    /// count so aggregate throughput matches.
    pub low_throughput_ntt: bool,
    /// Table 5 ablation: replace the vector automorphism unit with serial
    /// SRAM-based units, scaled in count so aggregate throughput matches.
    pub low_throughput_aut: bool,
}

impl ArchConfig {
    /// The paper's F1 configuration (§6, Table 2).
    pub fn f1_default() -> Self {
        Self {
            clusters: 16,
            lanes: 128,
            ntts_per_cluster: 1,
            auts_per_cluster: 1,
            muls_per_cluster: 2,
            adds_per_cluster: 2,
            rf_bytes_per_cluster: 512 * 1024,
            scratchpad_banks: 16,
            bank_bytes: 4 * 1024 * 1024,
            hbm_phys: 2,
            hbm_gbps_per_phy: 512,
            hbm_channels: 16,
            xbar_ports: 1,
            freq_ghz: 1.0,
            hbm_latency_cycles: 250,
            low_throughput_ntt: false,
            low_throughput_aut: false,
        }
    }

    /// A scaled configuration for the Fig 11 design-space sweep: `factor`
    /// scales clusters, scratchpad banks and HBM PHYs together (rounding
    /// up to at least one of each).
    pub fn scaled(factor: f64) -> Self {
        let base = Self::f1_default();
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        let phys = ((base.hbm_phys as f64 * factor).round() as usize).clamp(1, 4);
        Self {
            clusters: scale(base.clusters),
            scratchpad_banks: scale(base.scratchpad_banks),
            hbm_phys: phys,
            hbm_channels: 8 * phys,
            ..base
        }
    }

    /// Total scratchpad capacity in bytes.
    pub fn scratchpad_bytes(&self) -> u64 {
        self.scratchpad_banks as u64 * self.bank_bytes
    }

    /// The scratchpad bank that holds value `v`: values are striped
    /// across the banks by id.
    pub fn bank_of(&self, v: ValueId) -> usize {
        v.0 as usize % self.scratchpad_banks
    }

    /// Resizes the scratchpad to `mb` megabytes, keeping the bank count
    /// (the tiny-pad sweep knob: capacity-constrained configurations keep
    /// the paper's banking/NoC topology while shrinking storage).
    ///
    /// # Panics
    ///
    /// Panics if `mb` megabytes do not divide evenly across the banks.
    pub fn with_scratchpad_mb(mut self, mb: u64) -> Self {
        let total = mb * 1024 * 1024;
        assert_eq!(
            total % self.scratchpad_banks as u64,
            0,
            "{mb} MB does not split across {} banks",
            self.scratchpad_banks
        );
        self.bank_bytes = total / self.scratchpad_banks as u64;
        self
    }

    /// Total off-chip bandwidth in bytes per compute cycle.
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        (self.hbm_phys as u64 * self.hbm_gbps_per_phy) as f64 / self.freq_ghz
    }

    /// Number of FUs of a class in one cluster.
    pub fn fus_per_cluster(&self, fu: FuType) -> usize {
        match fu {
            FuType::Ntt => {
                if self.low_throughput_ntt {
                    // Aggregate-throughput-matched serial units (§8.3).
                    self.ntts_per_cluster * LT_NTT_COUNT
                } else {
                    self.ntts_per_cluster
                }
            }
            FuType::Aut => {
                if self.low_throughput_aut {
                    self.auts_per_cluster * LT_AUT_COUNT
                } else {
                    self.auts_per_cluster
                }
            }
            FuType::Mul => self.muls_per_cluster,
            FuType::Add => self.adds_per_cluster,
        }
    }

    /// Issue occupancy in cycles for one `n`-element vector operation on
    /// an FU of class `fu`: fully pipelined units consume `E` elements per
    /// cycle, so a residue vector occupies the unit for `n / lanes` cycles
    /// (§3). Low-throughput ablation units are slower per §8.3.
    pub fn occupancy(&self, fu: FuType, n: usize) -> u64 {
        let base = (n / self.lanes).max(1) as u64;
        match fu {
            FuType::Ntt if self.low_throughput_ntt => base * LT_NTT_COUNT as u64,
            FuType::Aut if self.low_throughput_aut => base * LT_AUT_COUNT as u64,
            _ => base,
        }
    }

    /// Pipeline latency in cycles from first input to first output for an
    /// `n`-element vector operation (§3: fixed latencies exposed to the
    /// compiler; no stall logic exists in hardware).
    pub fn latency(&self, fu: FuType, n: usize) -> u64 {
        let g = (n / self.lanes).max(1) as u64;
        match fu {
            // The G input vectors stream through two E-point NTT passes
            // around a transpose (§5.2). The transpose buffers E/2 vectors
            // before its first output (Fig 7), and each pass is a pipeline
            // of log2 E butterfly stages, so the passes add 2·log2 E.
            FuType::Ntt => {
                let fill = self.lanes as u64 / 2 + 2 * (self.lanes as u64).ilog2() as u64;
                let lat = g + fill;
                if self.low_throughput_ntt {
                    lat * LT_NTT_COUNT as u64
                } else {
                    lat
                }
            }
            // Column permute, transpose, row permute, transpose back
            // (§5.1, Figs 5–6). Each of the two transposes buffers E/2
            // vectors before its first output, so the fill is 2·E/2 = E; the
            // permutations add none.
            FuType::Aut => {
                let lat = g + self.lanes as u64;
                if self.low_throughput_aut {
                    lat * LT_AUT_COUNT as u64
                } else {
                    lat
                }
            }
            FuType::Mul => 8,
            FuType::Add => 4,
        }
    }

    /// Cycles for one value transfer of `bytes` over the on-chip network:
    /// bank and network ports are 512 bytes wide (§3), so a 64 KB residue
    /// vector streams at the rate its consumer eats it.
    pub fn net_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(512)
    }

    /// Cycles to move `bytes` between HBM and a scratchpad bank at the
    /// configured aggregate bandwidth.
    pub fn mem_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.hbm_bytes_per_cycle()).ceil() as u64
    }

    /// Cycles one HBM channel needs to move `bytes`: channels split the
    /// aggregate bandwidth evenly, so a single transfer streams slower
    /// but `hbm_channels` transfers proceed concurrently.
    pub fn mem_channel_cycles(&self, bytes: u64) -> u64 {
        let per_channel = self.hbm_bytes_per_cycle() / self.hbm_channels.max(1) as f64;
        (bytes as f64 / per_channel).ceil() as u64
    }

    /// Peak modular-arithmetic throughput in tera-ops/second: every lane
    /// of every multiplier/adder FU plus the NTT unit's internal
    /// butterflies (896 multipliers and as many adders, §5.2) can retire
    /// one 32-bit modular op per cycle — the paper's "36 tera-ops/second"
    /// (§1).
    pub fn peak_tops(&self) -> f64 {
        let ntt_ops = 2 * 896 * self.ntts_per_cluster;
        let lane_ops = self.lanes * (self.muls_per_cluster + self.adds_per_cluster);
        (self.clusters as f64) * (ntt_ops + lane_ops) as f64 * self.freq_ghz / 1000.0
    }
}

/// Throughput-matching multiplier for the low-throughput-NTT ablation: a
/// HEAX-style pipeline processes one butterfly stage per cycle, i.e.
/// `log2(N) ≈ 14` passes; we deploy 8× more units at 8× the occupancy
/// each, matching aggregate throughput as §8.3 prescribes.
pub const LT_NTT_COUNT: usize = 8;
/// Same for the serial SRAM automorphism ablation.
pub const LT_AUT_COUNT: usize = 8;

impl Default for ArchConfig {
    fn default() -> Self {
        Self::f1_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ArchConfig::f1_default();
        assert_eq!(c.scratchpad_bytes(), 64 * 1024 * 1024, "64 MB scratchpad");
        assert_eq!(c.hbm_phys as u64 * c.hbm_gbps_per_phy, 1024, "1 TB/s HBM");
        assert_eq!(c.clusters, 16);
        assert_eq!(c.lanes, 128);
        // "36 tera-ops/second of 32-bit modular arithmetic" (§1).
        let tops = c.peak_tops();
        assert!((30.0..42.0).contains(&tops), "peak {tops} TOPS");
    }

    #[test]
    fn occupancy_scales_with_vector_length() {
        let c = ArchConfig::f1_default();
        assert_eq!(c.occupancy(FuType::Ntt, 16384), 128);
        assert_eq!(c.occupancy(FuType::Ntt, 1024), 8);
        assert_eq!(c.occupancy(FuType::Add, 16384), 128);
    }

    #[test]
    fn low_throughput_ablations_conserve_aggregate() {
        let mut c = ArchConfig::f1_default();
        c.low_throughput_ntt = true;
        let per_unit = c.occupancy(FuType::Ntt, 16384);
        let units = c.fus_per_cluster(FuType::Ntt);
        assert_eq!(per_unit, 128 * 8);
        assert_eq!(units, 8);
        // aggregate vectors/cycle identical to the baseline
        let baseline = ArchConfig::f1_default();
        let agg_lt = units as f64 / per_unit as f64;
        let agg = baseline.fus_per_cluster(FuType::Ntt) as f64
            / baseline.occupancy(FuType::Ntt, 16384) as f64;
        assert!((agg_lt - agg).abs() < 1e-12);
    }

    #[test]
    fn latencies_are_positive_and_exposed() {
        let c = ArchConfig::f1_default();
        for fu in FuType::ALL {
            assert!(c.latency(fu, 16384) > 0);
        }
        assert!(c.latency(FuType::Ntt, 16384) > c.latency(FuType::Mul, 16384));
        // At N = 2^14 on 128 lanes, G = 128 vectors stream through each unit.
        // NTT: G + E/2 transpose fill + 2·log2 E butterfly stages.
        assert_eq!(c.latency(FuType::Ntt, 16384), 128 + 64 + 14);
        // Automorphism: G + the E/2 fill of each of its two transposes.
        assert_eq!(c.latency(FuType::Aut, 16384), 128 + 2 * 64);
        assert_eq!(c.occupancy(FuType::Aut, 16384), 128);
    }

    #[test]
    fn scratchpad_resize_keeps_banking() {
        let c = ArchConfig::f1_default().with_scratchpad_mb(4);
        assert_eq!(c.scratchpad_bytes(), 4 * 1024 * 1024);
        assert_eq!(c.scratchpad_banks, 16, "bank count unchanged");
        assert_eq!(ArchConfig::f1_default().with_scratchpad_mb(64), ArchConfig::f1_default());
    }

    #[test]
    fn scaled_configs_change_resources() {
        let half = ArchConfig::scaled(0.5);
        assert_eq!(half.clusters, 8);
        assert_eq!(half.scratchpad_banks, 8);
        assert_eq!(half.hbm_phys, 1);
        assert_eq!(half.hbm_channels, 8, "8 channels per HBM2 stack");
        let double = ArchConfig::scaled(2.0);
        assert_eq!(double.clusters, 32);
        assert_eq!(double.hbm_phys, 4, "PHY count clamps at 4");
        assert_eq!(double.hbm_channels, 32);
    }

    #[test]
    fn channel_bandwidth_partitions_aggregate() {
        let c = ArchConfig::f1_default();
        // 16 channels split 1 KB/cycle: a 64 KB residue vector takes 1024
        // cycles on one channel, but 16 vectors stream concurrently at
        // the same aggregate rate as `mem_cycles`.
        assert_eq!(c.mem_channel_cycles(65536), 1024);
        assert_eq!(c.mem_channel_cycles(65536), c.mem_cycles(65536) * c.hbm_channels as u64);
    }

    #[test]
    fn transfer_cycle_model() {
        let c = ArchConfig::f1_default();
        // A 64 KB residue vector over a 512-byte port: 128 cycles — the
        // rate one FU consumes it (§3).
        assert_eq!(c.net_cycles(65536), 128);
        assert_eq!(c.mem_cycles(65536), 64, "1 TB/s moves 1 KB per cycle");
    }
}
