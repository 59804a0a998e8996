//! Per-component static instruction streams (§3 "Distributed control").
//!
//! F1 has no global instruction stream: each functional unit, register
//! file, network switch, scratchpad bank and memory controller follows its
//! own linear sequence of `(operation, wait-cycles)` entries. We store
//! absolute issue cycles for clarity and size the paper's compact delta
//! encoding through [`StaticSchedule::encoded_bytes`].
//!
//! An entry records only what the scheduler chose: when, which value or
//! instruction, and which unit, channel, lane or endpoint. Facts other
//! code already owns are not copied into it. Every value is one residue
//! vector of `Dfg::vector_bytes` bytes, so a transfer's size and duration
//! follow from the DFG; a value's scratchpad bank is
//! `ArchConfig::bank_of`; an instruction's FU class is its op's
//! `fu_type`; and the makespan is `CycleSchedule::makespan`.

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

/// An on-chip network endpoint, a component with its own instruction
/// stream (HBM channels are [`MemEntry::channel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentId {
    /// Compute cluster `index`.
    Cluster(usize),
    /// Scratchpad bank `index`.
    Bank(usize),
}

/// One entry in a compute cluster's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeEntry {
    /// Absolute issue cycle (compute clock, 1 GHz domain).
    pub cycle: u64,
    /// The DFG instruction this entry executes; its op's `fu_type` is
    /// the FU class that services it.
    pub instr: InstrId,
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

/// One entry in a memory controller / scratchpad-bank stream. The
/// transfer moves one whole value between HBM and the value's bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Cycle the transfer is issued.
    pub cycle: u64,
    /// Load or store.
    pub dir: MemDir,
    /// The value moved.
    pub value: ValueId,
    /// HBM channel carrying the transfer. Channels are independent
    /// streams (`ArchConfig::hbm_channels` of them); transfers on
    /// different channels proceed concurrently, each at the per-channel
    /// bandwidth, and the checker verifies per-channel exclusivity.
    pub channel: usize,
}

/// One on-chip network transfer of a whole value (bank→cluster,
/// cluster→bank, or cluster→cluster over the three crossbars, §6).
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
    /// Crossbar port lane within the (from, to) pair. Each pair has
    /// `ArchConfig::xbar_ports` 512-byte lanes; a transfer occupies its
    /// lane for `net_cycles` of one value and the checker verifies no
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
}

/// A complete static schedule: every component's stream.
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
    ///
    /// §3 puts instruction fetches below 0.1% of memory traffic. This
    /// encoding does not reach that: on Table 3's seven programs at full
    /// size it measures 0.93% (LoLa-MNIST, unencrypted weights) to 8.6%
    /// (logistic regression) of off-chip bytes, 1.3–3.6% on the other
    /// five.
    pub fn encoded_bytes(&self) -> u64 {
        self.entry_count() as u64 * 8
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
        for w in self.net.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "net stream not monotone");
        }
        for w in self.evict.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "evict stream not monotone");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(cycle: u64, instr: u32) -> ComputeEntry {
        ComputeEntry { cycle, instr: InstrId(instr), fu_index: 0 }
    }

    fn net(cycle: u64, value: u32) -> NetEntry {
        NetEntry {
            cycle,
            value: ValueId(value),
            from: ComponentId::Bank(0),
            to: ComponentId::Cluster(0),
            port: 0,
        }
    }

    #[test]
    fn schedule_bookkeeping() {
        let mut s = StaticSchedule::new(2);
        s.compute[0].push(compute(0, 0));
        s.compute[0].push(compute(5, 1));
        s.mem.push(MemEntry { cycle: 0, dir: MemDir::Load, value: ValueId(0), channel: 7 });
        s.net.push(net(3, 0));
        assert_eq!(s.entry_count(), 4);
        assert_eq!(s.encoded_bytes(), 32);
        s.validate_monotone();
    }

    #[test]
    #[should_panic(expected = "cluster 0 stream not monotone")]
    fn catches_backwards_stream() {
        let mut s = StaticSchedule::new(1);
        s.compute[0].push(compute(9, 0));
        s.compute[0].push(compute(3, 1));
        s.validate_monotone();
    }

    #[test]
    #[should_panic(expected = "net stream not monotone")]
    fn catches_backwards_net_stream() {
        let mut s = StaticSchedule::new(1);
        s.net.push(net(9, 0));
        s.net.push(net(3, 1));
        s.validate_monotone();
    }
}
