//! Per-component static instruction streams (§3 "Distributed control").
//!
//! F1 has no global instruction stream: each functional unit, register
//! file, network switch, scratchpad bank and memory controller follows its
//! own linear sequence of `(operation, wait-cycles)` entries. We store
//! absolute issue cycles for clarity and expose the paper's compact
//! delta encoding through [`StaticSchedule::encoded_bytes`] to reproduce
//! the "<0.1% of memory traffic" instruction-fetch claim.

use crate::dfg::{InstrId, ValueId};

/// Functional-unit classes (per cluster: 1 NTT, 1 automorphism, 2
/// multipliers, 2 adders in the paper's configuration, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuType {
    /// Four-step NTT unit (forward and inverse).
    Ntt,
    /// Automorphism unit.
    Aut,
    /// Modular multiplier (element-wise and scalar).
    Mul,
    /// Modular adder.
    Add,
}

impl FuType {
    /// All FU classes.
    pub const ALL: [FuType; 4] = [FuType::Ntt, FuType::Aut, FuType::Mul, FuType::Add];

    /// Dense index of this class (its position in [`FuType::ALL`]), for
    /// array-indexed per-FU state in scheduler hot loops.
    #[inline(always)]
    pub fn index(self) -> usize {
        match self {
            FuType::Ntt => 0,
            FuType::Aut => 1,
            FuType::Mul => 2,
            FuType::Add => 3,
        }
    }
}

/// A hardware component with its own instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentId {
    /// Compute cluster `index`.
    Cluster(usize),
    /// Scratchpad bank `index`.
    Bank(usize),
    /// HBM memory controller `index`.
    MemCtrl(usize),
}

/// One entry in a compute cluster's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeEntry {
    /// Absolute issue cycle (compute clock, 1 GHz domain).
    pub cycle: u64,
    /// The DFG instruction this entry executes.
    pub instr: InstrId,
    /// Which FU class services it.
    pub fu: FuType,
    /// Index of the FU within its class (e.g. multiplier 0 or 1).
    pub fu_index: usize,
}

/// Direction of an off-chip transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemDir {
    /// HBM → scratchpad.
    Load,
    /// Scratchpad → HBM.
    Store,
}

/// One entry in a memory controller / scratchpad-bank stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Cycle the transfer is issued.
    pub cycle: u64,
    /// Load or store.
    pub dir: MemDir,
    /// The value moved.
    pub value: ValueId,
    /// Bytes moved.
    pub bytes: u64,
    /// Destination / source scratchpad bank.
    pub bank: usize,
    /// HBM channel carrying the transfer. Channels are independent
    /// streams (`ArchConfig::hbm_channels` of them); transfers on
    /// different channels proceed concurrently, each at the per-channel
    /// bandwidth, and the checker verifies per-channel exclusivity.
    pub channel: usize,
}

/// One on-chip network transfer (bank→cluster, cluster→bank, or
/// cluster→cluster over the three crossbars, §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetEntry {
    /// Cycle the transfer starts.
    pub cycle: u64,
    /// The value moved.
    pub value: ValueId,
    /// Source component.
    pub from: ComponentId,
    /// Destination component.
    pub to: ComponentId,
    /// Bytes moved.
    pub bytes: u64,
    /// Crossbar port lane within the (from, to) pair. Each pair has
    /// `ArchConfig::xbar_ports` 512-byte lanes; a transfer occupies its
    /// lane for `net_cycles(bytes)` cycles and the checker verifies no
    /// lane is double-booked.
    pub port: usize,
}

/// One scratchpad release: the cycle at which a value's on-chip bytes
/// are freed (a Belady eviction, a spill store completing, or a dead
/// output's store completing). Between an eviction and the completion of
/// the value's next load, the value has **no on-chip copy**; the checker
/// rejects any consumer reading in that window and uses these entries to
/// prove the resident set never exceeds scratchpad capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictEntry {
    /// Cycle the bytes are free (for spills: the writeback completion).
    pub cycle: u64,
    /// The value whose residency ends.
    pub value: ValueId,
    /// Bytes freed.
    pub bytes: u64,
}

/// A complete static schedule: every component's stream plus the horizon.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StaticSchedule {
    /// Compute entries, grouped by cluster index.
    pub compute: Vec<Vec<ComputeEntry>>,
    /// Off-chip transfers, tagged with their HBM channel (sorted by
    /// cycle across channels; per-channel exclusivity is the checker's
    /// concern).
    pub mem: Vec<MemEntry>,
    /// On-chip transfers.
    pub net: Vec<NetEntry>,
    /// Scratchpad releases (sorted by cycle). Together with loads and
    /// production cycles these define every value's residency intervals.
    pub evict: Vec<EvictEntry>,
    /// Total cycles (makespan) of the schedule.
    pub makespan: u64,
}

impl StaticSchedule {
    /// Creates an empty schedule for `clusters` compute clusters.
    pub fn new(clusters: usize) -> Self {
        Self { compute: vec![Vec::new(); clusters], ..Default::default() }
    }

    /// Total number of stream entries across all components (evictions
    /// are free-list updates in the owning bank's stream).
    pub fn entry_count(&self) -> usize {
        self.compute.iter().map(Vec::len).sum::<usize>()
            + self.mem.len()
            + self.net.len()
            + self.evict.len()
    }

    /// Bytes of the paper's compact encoding: each entry is one operation
    /// descriptor plus a wait-cycle delta (§3) — 8 bytes covers opcode,
    /// operands and the delta for the sizes we generate.
    pub fn encoded_bytes(&self) -> u64 {
        self.entry_count() as u64 * 8
    }

    /// Total off-chip traffic in bytes.
    pub fn offchip_bytes(&self) -> u64 {
        self.mem.iter().map(|m| m.bytes).sum()
    }

    /// Checks stream monotonicity (entries sorted by cycle per component).
    ///
    /// # Panics
    ///
    /// Panics if any component's stream goes backwards in time.
    pub fn validate_monotone(&self) {
        for (c, stream) in self.compute.iter().enumerate() {
            for w in stream.windows(2) {
                assert!(w[0].cycle <= w[1].cycle, "cluster {c} stream not monotone");
            }
        }
        for w in self.mem.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "memory stream not monotone");
        }
        for w in self.evict.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "evict stream not monotone");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_bookkeeping() {
        let mut s = StaticSchedule::new(2);
        s.compute[0].push(ComputeEntry {
            cycle: 0,
            instr: InstrId(0),
            fu: FuType::Ntt,
            fu_index: 0,
        });
        s.compute[0].push(ComputeEntry {
            cycle: 5,
            instr: InstrId(1),
            fu: FuType::Mul,
            fu_index: 1,
        });
        s.mem.push(MemEntry {
            cycle: 0,
            dir: MemDir::Load,
            value: ValueId(0),
            bytes: 65536,
            bank: 3,
            channel: 7,
        });
        s.makespan = 100;
        assert_eq!(s.entry_count(), 3);
        assert_eq!(s.encoded_bytes(), 24);
        assert_eq!(s.offchip_bytes(), 65536);
        s.validate_monotone();
    }

    #[test]
    #[should_panic(expected = "not monotone")]
    fn catches_backwards_stream() {
        let mut s = StaticSchedule::new(1);
        s.compute[0].push(ComputeEntry {
            cycle: 9,
            instr: InstrId(0),
            fu: FuType::Add,
            fu_index: 0,
        });
        s.compute[0].push(ComputeEntry {
            cycle: 3,
            instr: InstrId(1),
            fu: FuType::Add,
            fu_index: 0,
        });
        s.validate_monotone();
    }

    #[test]
    fn instruction_fetch_overhead_is_tiny() {
        // The paper: instruction fetches are <0.1% of memory traffic. With
        // 8-byte entries and 64 KB residue vectors, one compute entry per
        // value transfer keeps the ratio near 8/65536 ≈ 0.012%.
        let ratio = 8.0 / 65536.0;
        assert!(ratio < 0.001);
    }
}
