//! Pass 3 — the cycle-level scheduler (§4.4), as a resource-explicit
//! list scheduler over pass 2's residency event graph.
//!
//! Takes the data-movement plan and assigns every instruction **and every
//! data-movement event** (first loads, spill stores, capacity refetches,
//! scratchpad releases, output stores) to a resource at an exact cycle.
//! Every contended resource is modeled explicitly with its own occupancy
//! timeline:
//!
//! * **HBM channels** — `arch.hbm_channels` independent streams, each at
//!   the per-channel bandwidth. Loads, refetches and spill stores all
//!   compete for the same channel timelines and run *concurrently with
//!   compute*; ready loads drain in pass 2's liveness-deadline order.
//! * **Functional units** — per (cluster, class, instance) interval
//!   timelines with first-fit gap insertion, so a late-ready instruction
//!   never blocks an idle window.
//! * **Crossbar ports** — per (source, destination) lane occupancy
//!   (`net_busy`), `arch.xbar_ports` lanes per pair. Consumers prefer
//!   their operands' home cluster; register-file overflow writes values
//!   back to their scratchpad bank over the same lanes.
//!
//! **Scratchpad capacity is a scheduling constraint, not an accounting
//! afterthought.** The scratchpad's resident bytes have a timeline of
//! their own (`PadTimeline`): an allocation (a load's channel start or
//! an instruction's issue) adds its bytes, and a release removes them at
//! its evict cycle. An allocation starts no earlier than the first cycle
//! from which its bytes stay within capacity at every later cycle. Pass 2
//! hands over a byte lineage: each allocation names the release events
//! (`space_from`) whose freed bytes it reuses. The scheduler keeps those
//! only as commit order. An allocation commits after its donors, so its
//! bytes are free at the end of the timeline, but it may start before
//! they release wherever other bytes are free by then. A release may not
//! happen before the value's producer has drained and every reader has
//! streamed it, and a refetch may not start before the spill store that
//! put the value off-chip completes. Consumers of a refetched value are
//! gated on the refetch's completion. The `f1-sim` checker re-verifies
//! capacity from the emitted streams alone.
//!
//! A plan that moves only compulsory traffic skips the lineage at first.
//! Pass 2 evicted no live value for it, so its donors record only the
//! order in which free space was reused, not a capacity decision. Such a
//! plan is scheduled without donor edges on a pad with no capacity bound,
//! and that schedule is kept when its peak residency fits the pad. The
//! peak is sound: the timeline's deltas are the checker's residency
//! intervals, an allocation's bytes from its start to its release. A
//! plan that spills or refetches, or whose lineage-free peak overflows,
//! is scheduled with the lineage.
//!
//! On-chip, produced values live in their cluster's register file until
//! its capacity (`arch.rf_bytes_per_cluster`) overflows; the scheduler
//! then *re-homes* the oldest values to their scratchpad bank with a
//! crossbar writeback, and later consumers fetch them from the bank.
//!
//! Ready instructions are ranked by critical-path depth on the DFG
//! (longest streaming path to a sink, [`f1_isa::dfg::Dfg::critical_depths`]),
//! not by pass-2 order.
//!
//! Timing uses F1's rate-matched streaming semantics: every standard unit
//! and 512-byte port produces and consumes at `lanes` elements per cycle,
//! so a dependent instruction can issue `latency` cycles after its
//! producer (Cray-style chaining), reading elements exactly as they are
//! produced: a result is available [`stream_weight`] cycles after its
//! producer issues. The full vector has drained `occupancy` cycles after
//! that, which is what `makespan` accounts. Slow producers (the
//! low-throughput ablation units) add a catch-up term so a standard-rate
//! consumer never outruns them. Because the schedule is fully static, this
//! pass doubles as the performance model.
//!
//! The emitted streams are the only record of when and where each
//! instruction and transfer runs. The `f1-sim` checker derives issue and
//! availability cycles, the makespan and the energy counters from them.
//! An entry carries no fact another owner already holds: every value is
//! one [`Dfg::vector_bytes`]-byte residue vector, so this pass computes
//! one HBM-channel and one crossbar duration up front; a value's bank is
//! [`ArchConfig::bank_of`]; an instruction's FU class is its op's; and
//! [`CycleSchedule::makespan`] is the makespan's only copy.

use crate::expand::Expanded;
use crate::movement::{MoveEvent, MovePlan};
use f1_arch::ArchConfig;
use f1_isa::dfg::{Dfg, InstrId, ValueId};
use f1_isa::streams::{ComputeEntry, EvictEntry, MemDir, MemEntry, NetEntry, StaticSchedule};
use f1_isa::{ComponentId, FuType};
use std::cell::Cell;
use std::collections::{BinaryHeap, VecDeque};

/// Cycles a value spends crossing one bit-sliced crossbar switch. The
/// transfer then streams behind the wavefront at the port rate, holding
/// its lane for `net_cycles` of one value.
pub const XBAR_HOP_CYCLES: u64 = 1;

/// The cycle-level schedule: per-component streams and their makespan.
#[derive(Debug, Clone)]
pub struct CycleSchedule {
    /// Per-component static streams, the only record of each
    /// instruction's issue cycle, cluster and FU instance.
    pub schedule: StaticSchedule,
    /// Total makespan in compute cycles (last drained result or
    /// transfer); the checker re-derives it from the streams.
    pub makespan: u64,
}

impl CycleSchedule {
    /// Execution time in seconds at the configuration's clock.
    pub fn seconds(&self, arch: &ArchConfig) -> f64 {
        self.makespan as f64 / (arch.freq_ghz * 1e9)
    }
}

/// Streaming availability weight of one instruction: how long after its
/// issue cycle a rate-matched consumer may issue. `latency` for standard
/// units; slow units add the cycles by which they trail the standard
/// streaming rate so consumers never read elements that do not exist yet.
pub fn stream_weight(arch: &ArchConfig, fu: FuType, n: usize) -> u64 {
    let base = (n / arch.lanes).max(1) as u64;
    let occ = arch.occupancy(fu, n);
    arch.latency(fu, n) + occ.saturating_sub(base)
}

/// `busy.partition_point(pred)`, found by galloping back from the tail:
/// step back 1, 2, 4, … intervals until an entry satisfies `pred`, then
/// binary-search the last window. Costs O(log d) for a split point `d`
/// intervals from the tail, and touches only the cache-hot end of the
/// list.
fn tail_partition_point(busy: &[(u64, u64)], pred: impl Fn(&(u64, u64)) -> bool) -> usize {
    // Every entry in `busy[hi..]` fails `pred`.
    let mut hi = busy.len();
    let mut step = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        if pred(&busy[lo]) {
            return lo + 1 + busy[lo + 1..hi].partition_point(&pred);
        }
        hi = lo;
        step *= 2;
    }
    0
}

/// Sorted, disjoint busy intervals for one exclusive resource (FU
/// instance, crossbar lane, HBM channel) with first-fit gap insertion.
#[derive(Debug, Default, Clone)]
struct Occupancy {
    busy: Vec<(u64, u64)>,
    /// The shortest request this timeline serves: a gap narrower than
    /// this can never be used, so [`Self::commit`] closes it.
    min_len: u64,
}

impl Occupancy {
    fn new(min_len: u64) -> Self {
        Self { busy: Vec::new(), min_len }
    }

    /// Earliest `start >= ready` such that `[start, start + len)` is free.
    fn probe(&self, ready: u64, len: u64) -> u64 {
        let mut t = ready;
        let i = tail_partition_point(&self.busy, |&(_, end)| end <= t);
        debug_assert_eq!(i, self.busy.partition_point(|&(_, end)| end <= t));
        for &(s, e) in &self.busy[i..] {
            if t + len <= s {
                break;
            }
            t = t.max(e);
        }
        t
    }

    /// Reserves `[start, start + len)`; the caller must have probed.
    ///
    /// The new interval absorbs any neighbouring gap shorter than
    /// `min_len`: no request could start there, so the probe answers for
    /// requests of at least `min_len` do not change, and the timeline
    /// stays short. The paper suite's spilling programs leave many such
    /// slivers between back-to-back vector operations. Searches stay
    /// cheap because they land near the tail, which is where
    /// [`tail_partition_point`] starts.
    fn commit(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let pos = tail_partition_point(&self.busy, |&(s, _)| s < start);
        debug_assert_eq!(pos, self.busy.partition_point(|&(s, _)| s < start));
        debug_assert!(pos == 0 || self.busy[pos - 1].1 <= start, "overlapping commit");
        debug_assert!(pos == self.busy.len() || end <= self.busy[pos].0);
        let unusable = self.min_len.max(1);
        let glue_prev = pos > 0 && start - self.busy[pos - 1].1 < unusable;
        let glue_next = pos < self.busy.len() && self.busy[pos].0 - end < unusable;
        match (glue_prev, glue_next) {
            (true, true) => {
                self.busy[pos - 1].1 = self.busy[pos].1;
                self.busy.remove(pos);
            }
            (true, false) => self.busy[pos - 1].1 = end,
            (false, true) => self.busy[pos].0 = start,
            (false, false) => self.busy.insert(pos, (start, end)),
        }
    }
}

/// Interchangeable units of one resource: the FU instances of one class
/// in one cluster, the lanes of one crossbar pair, or the HBM channels.
#[derive(Debug, Clone)]
struct Units {
    units: Vec<Occupancy>,
    /// The last [`Self::fit`] answer `(ready, len, unit, start)`, cleared
    /// by every commit.
    memo: Cell<Option<(u64, u64, usize, u64)>>,
}

impl Units {
    fn new(count: usize, min_len: u64) -> Self {
        Self { units: vec![Occupancy::new(min_len); count], memo: Cell::new(None) }
    }

    /// The unit that can start a `len`-cycle request earliest at or after
    /// `ready` (ties to the lowest index), and that start.
    ///
    /// The scan stops at the first unit free at `ready`, which no other
    /// unit can beat. A memoized answer `(r, len, unit, start)` also
    /// answers every `ready` in `[r, start]`: no unit can start in
    /// `[r, start)`, and `unit` still can at `start`.
    fn fit(&self, ready: u64, len: u64) -> (usize, u64) {
        let fit = match self.memo.get() {
            Some((r, l, i, s)) if l == len && r <= ready && ready <= s => (i, s),
            _ => {
                let mut best = (0, u64::MAX);
                for (i, u) in self.units.iter().enumerate() {
                    let s = u.probe(ready, len);
                    if s < best.1 {
                        best = (i, s);
                        if s == ready {
                            break;
                        }
                    }
                }
                self.memo.set(Some((ready, len, best.0, best.1)));
                best
            }
        };
        #[cfg(test)]
        assert_eq!(fit, self.fit_full(ready, len), "memoized fit != full scan");
        fit
    }

    /// Reference for [`Self::fit`]: probes every unit.
    #[cfg(test)]
    fn fit_full(&self, ready: u64, len: u64) -> (usize, u64) {
        let probes = self.units.iter().map(|u| u.probe(ready, len));
        probes.enumerate().min_by_key(|&(i, s)| (s, i)).unwrap()
    }

    /// Reserves `[start, start + len)` on unit `i`.
    fn commit(&mut self, i: usize, start: u64, len: u64) {
        self.units[i].commit(start, len);
        self.memo.set(None);
    }
}

/// Cycles per [`PadTimeline`] leaf.
const PAD_LEAF_CYCLES: u64 = 256;

/// The capacity of a [`PadTimeline`] that no allocation can overflow.
const UNBOUNDED: u64 = i64::MAX as u64;

/// The scratchpad's resident bytes over time, as net per-cycle deltas:
/// `+bytes` at each allocation's start, `-bytes` at each release. The
/// resident set at cycle `t` is the sum of the deltas through `t`, so a
/// release and an allocation in the same cycle net out, as under the
/// checker's release-first rule.
///
/// Each leaf holds the sorted `(cycle, delta)` entries of
/// [`PAD_LEAF_CYCLES`] cycles. A segment tree over the leaves keeps, per
/// node, the delta `sum` of its span and `peak`, the largest resident set
/// just *before* one of its entries, relative to the span's start. That
/// is what [`Self::fit`] needs: the resident set only changes at entries,
/// so the last cycle a request would overflow is the cycle before the
/// last entry preceded by too many bytes.
#[derive(Debug)]
struct PadTimeline {
    cap: u64,
    /// `leaves[k]` holds the entries of cycles
    /// `[k * PAD_LEAF_CYCLES, (k + 1) * PAD_LEAF_CYCLES)`; its length is a
    /// power of two.
    leaves: Vec<Vec<(u64, i64)>>,
    /// `(sum, peak)` per node: node 1 is the root, node `i` has children
    /// `2i` and `2i + 1`, and leaf `k` is node `leaves.len() + k`.
    tree: Vec<(i64, i64)>,
}

impl PadTimeline {
    /// An empty span: no entries, so no peak. Half of `i64::MIN` stays
    /// below every real peak after adding any span's sum.
    const EMPTY: (i64, i64) = (0, i64::MIN / 2);

    fn new(cap: u64) -> Self {
        Self { cap, leaves: vec![Vec::new()], tree: vec![Self::EMPTY; 2] }
    }

    fn join((ls, lp): (i64, i64), (rs, rp): (i64, i64)) -> (i64, i64) {
        (ls + rs, lp.max(ls + rp))
    }

    /// Records `delta` bytes at `cycle`.
    fn add(&mut self, cycle: u64, delta: i64) {
        let k = (cycle / PAD_LEAF_CYCLES) as usize;
        if k >= self.leaves.len() {
            self.grow(k + 1);
        }
        let leaf = &mut self.leaves[k];
        let i = leaf.partition_point(|&(c, _)| c < cycle);
        match leaf.get_mut(i) {
            Some(e) if e.0 == cycle => {
                e.1 += delta;
                if e.1 == 0 {
                    leaf.remove(i);
                }
            }
            _ => leaf.insert(i, (cycle, delta)),
        }
        let (mut sum, mut peak) = Self::EMPTY;
        for &(_, d) in leaf.iter() {
            peak = peak.max(sum);
            sum += d;
        }
        let (mut node, mut span) = (self.leaves.len() + k, (sum, peak));
        self.tree[node] = span;
        while node > 1 {
            let sibling = self.tree[node ^ 1];
            span =
                if node % 2 == 0 { Self::join(span, sibling) } else { Self::join(sibling, span) };
            node /= 2;
            self.tree[node] = span;
        }
    }

    /// Doubles the leaf count until it reaches `need`, rebuilding the tree.
    fn grow(&mut self, need: usize) {
        let size = need.next_power_of_two();
        let old = self.leaves.len();
        self.leaves.resize_with(size, Vec::new);
        let mut tree = vec![Self::EMPTY; 2 * size];
        tree[size..size + old].copy_from_slice(&self.tree[old..2 * old]);
        for node in (1..size).rev() {
            tree[node] = Self::join(tree[2 * node], tree[2 * node + 1]);
        }
        self.tree = tree;
    }

    /// The first cycle from which `bytes` more stay within capacity at
    /// every later cycle.
    ///
    /// # Panics
    ///
    /// Panics if the bytes resident at the end of the timeline leave no
    /// room for `bytes`. On the machine's pad, pass 2's byte lineage rules
    /// that out, because an allocation commits only after the releases
    /// that free its bytes. A lineage-free schedule runs on an
    /// [`UNBOUNDED`] pad, where the end always has room.
    fn fit(&self, bytes: u64) -> u64 {
        let room = self.cap as i64 - bytes as i64;
        let (total, peak) = self.tree[1];
        assert!(total <= room, "no scratchpad room for {bytes} bytes: {total} stay resident");
        let fit = if peak <= room {
            0
        } else {
            // Descend toward the last entry preceded by more than `room`.
            let (mut node, mut before) = (1, 0i64);
            while node < self.leaves.len() {
                let (ls, _) = self.tree[2 * node];
                let (_, rp) = self.tree[2 * node + 1];
                node = if before + ls + rp > room {
                    before += ls;
                    2 * node + 1
                } else {
                    2 * node
                };
            }
            let mut last = 0;
            for &(c, d) in &self.leaves[node - self.leaves.len()] {
                if before > room {
                    last = c;
                }
                before += d;
            }
            last
        };
        #[cfg(test)]
        assert_eq!(fit, self.fit_linear(bytes), "pad fit != linear scan");
        fit
    }

    /// Reference for [`Self::fit`]: walks every entry.
    #[cfg(test)]
    fn fit_linear(&self, bytes: u64) -> u64 {
        let room = self.cap as i64 - bytes as i64;
        let (mut resident, mut fit) = (0i64, 0);
        for &(c, d) in self.leaves.iter().flatten() {
            if resident > room {
                fit = c;
            }
            resident += d;
        }
        fit
    }

    /// The most bytes resident at any cycle: the larger of the root's
    /// peak before an entry and its total after the last one.
    fn peak(&self) -> u64 {
        let (total, peak) = self.tree[1];
        let most = total.max(peak) as u64;
        #[cfg(test)]
        assert_eq!(most, self.peak_linear(), "pad peak != linear scan");
        most
    }

    /// Reference for [`Self::peak`]: walks every entry.
    #[cfg(test)]
    fn peak_linear(&self) -> u64 {
        let (mut resident, mut most) = (0i64, 0i64);
        for &(_, d) in self.leaves.iter().flatten() {
            resident += d;
            most = most.max(resident);
        }
        most as u64
    }
}

/// How a predecessor's commit time gates a successor's earliest start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Ordering only; timing flows through the value-availability maps.
    Order,
    /// Wait until the predecessor (a reader) has streamed the value:
    /// `issue + occupancy`.
    ReaderHold,
    /// Wait until the predecessor (the producer of the value being
    /// released) has fully drained it: `issue + occupancy + latency`.
    Drain,
    /// Wait for the predecessor's completion time (a release cycle,
    /// store completion, or load completion).
    Done,
}

/// Non-instruction node kinds (instruction nodes are `0..n_instr`).
#[derive(Debug, Clone, Copy)]
enum MemNode {
    Load { ev: u32 },
    Store { ev: u32 },
    Drop { ev: u32 },
}

/// Schedules the plan onto the machine.
///
/// A plan that moves only compulsory traffic is first scheduled without
/// its byte lineage on an unbounded scratchpad, and that schedule is kept
/// when its peak residency fits the pad. Otherwise, and for every plan
/// that spills or refetches, allocations commit behind their lineage.
pub fn schedule(expanded: &Expanded, plan: &MovePlan, arch: &ArchConfig) -> CycleSchedule {
    if plan.traffic.non_compulsory() == 0 {
        let (cs, peak) = CycleScheduler::new(expanded, plan, arch, false).run();
        if peak <= arch.scratchpad_bytes() {
            return cs;
        }
    }
    CycleScheduler::new(expanded, plan, arch, true).run().0
}

/// Sentinel for "no entry" in the dense per-value tables.
const NONE_U32: u32 = u32::MAX;

struct CycleScheduler<'a> {
    dfg: &'a Dfg,
    plan: &'a MovePlan,
    arch: &'a ArchConfig,
    n_instr: usize,
    /// Event nodes (ids `n_instr + k`).
    mem_nodes: Vec<MemNode>,
    /// Successor edges in CSR form: node `i`'s successors are
    /// `succ_dat[succ_off[i]..succ_off[i + 1]]`, in the order pass 2's
    /// replay discovered them. One flat allocation instead of millions of
    /// short `Vec`s — the event-graph build dominated `new()` at full
    /// benchmark scale.
    succ_off: Vec<u32>,
    succ_dat: Vec<(u32, Gate)>,
    indeg: Vec<u32>,
    /// Earliest start each node inherits from its gating predecessors.
    gate_time: Vec<u64>,
    depth: Vec<u64>,
    /// Per-FU-class `occupancy` / [`stream_weight`] / `latency` at ring
    /// size `n`, indexed by [`FuType::index`] (identical for every
    /// instruction of a class — no need to re-derive per commit).
    fu_occ: [u64; 4],
    fu_weight: [u64; 4],
    fu_lat: [u64; 4],
    /// Bytes of every value ([`Dfg::vector_bytes`]) and the cycles one
    /// value holds an HBM channel or a crossbar lane.
    vector_bytes: u64,
    mem_cycles: u64,
    net_cycles: u64,
    // Resources. All per-value and per-resource state is held in dense
    // Vec-indexed tables (ValueIds and FU classes are dense): the
    // scheduler touches them hundreds of times per instruction, and
    // hashing dominated the pass at full-size benchmark scale.
    channels: Units,
    /// `fu_slots[cluster][FuType::index()]`.
    fu_slots: Vec<[Units; 4]>,
    /// `net_busy[comp_index(from) * n_comp + comp_index(to)]`.
    net_busy: Vec<Units>,
    n_comp: usize,
    /// Scratchpad bytes resident over time.
    pad: PadTimeline,
    // Value state (indexed by ValueId).
    avail: Vec<u64>,
    home: Vec<Option<ComponentId>>,
    /// Per-value remote copies: small (cluster, arrival) lists.
    copies: Vec<Vec<(u32, u64)>>,
    /// When a re-homed value's bank copy lands (transfers from the bank
    /// may not start earlier).
    bank_ready: Vec<u64>,
    /// Writeback completion per re-homed value (its release must wait).
    wb_done: Vec<u64>,
    // Register-file occupancy model.
    rf_used: Vec<u64>,
    rf_queue: Vec<VecDeque<ValueId>>,
    /// Cluster whose register file holds the value, `NONE_U32` if none.
    rf_member: Vec<u32>,
    /// Reusable operand buffer (avoids cloning instruction input lists).
    input_buf: Vec<ValueId>,
    /// Reusable scratch for [`Self::pick_cluster`]: the sorted
    /// `(start lower bound, remote bytes, cluster)` bounds of the clusters
    /// holding an operand's home or copy, merged during the scan with the
    /// other clusters' shared bound.
    order_buf: Vec<(u64, u64, usize)>,
    // Ready queues.
    instr_ready: BinaryHeap<(u64, std::cmp::Reverse<u32>)>,
    mem_ready: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    // Output.
    out: StaticSchedule,
    makespan: u64,
}

impl<'a> CycleScheduler<'a> {
    /// Builds the event graph of `plan`. With `lineage`, every allocation
    /// also waits for its `space_from` donors to commit, and the pad is
    /// the machine's; without it, the pad has no capacity bound.
    fn new(
        expanded: &'a Expanded,
        plan: &'a MovePlan,
        arch: &'a ArchConfig,
        lineage: bool,
    ) -> Self {
        let dfg = &expanded.dfg;
        let n = dfg.n;
        let n_instr = dfg.instrs().len();

        // --- Build the event graph by replaying pass 2's script. All
        // bookkeeping tables are dense (indexed by event id / value id).
        // Edges are collected into one flat list and scattered into CSR
        // afterwards (stable, so each node's successor order is exactly
        // the replay's discovery order).
        let n_values = dfg.values().len();
        let n_mem = plan.events.iter().filter(|e| !matches!(e, MoveEvent::Issue { .. })).count();
        assert_eq!(plan.events.len() - n_mem, n_instr, "plan must issue every instruction");
        let total = n_instr + n_mem;
        let mut mem_nodes = Vec::with_capacity(n_mem);
        let mut edges: Vec<(u32, u32, Gate)> = Vec::with_capacity(total * 2);
        let mut indeg = vec![0u32; total];
        let mut ev_node: Vec<u32> = vec![NONE_U32; plan.events.len()];
        let mut cur_alloc: Vec<u32> = vec![NONE_U32; n_values];
        // Each value's readers since its current allocation, as a linked
        // list through one shared pool: `reader_head[v]` indexes its
        // newest `(reader, next)` entry. The release edges from these
        // readers each land in a different node's CSR row, so walking the
        // list newest-first leaves every row in discovery order.
        let mut reader_head: Vec<u32> = vec![NONE_U32; n_values];
        let mut reader_pool: Vec<(u32, u32)> = Vec::new();
        let mut last_release: Vec<u32> = vec![NONE_U32; n_values];
        let edge = |edges: &mut Vec<(u32, u32, Gate)>,
                    indeg: &mut Vec<u32>,
                    from: u32,
                    to: u32,
                    g: Gate| {
            edges.push((from, to, g));
            indeg[to as usize] += 1;
        };
        for (ei, ev) in plan.events.iter().enumerate() {
            match ev {
                MoveEvent::Issue { instr, space_from } => {
                    let nid = instr.0;
                    for &v in &dfg.instr(*instr).inputs {
                        let a = cur_alloc[v.0 as usize];
                        if a != NONE_U32 {
                            edge(&mut edges, &mut indeg, a, nid, Gate::Order);
                        }
                        let head = &mut reader_head[v.0 as usize];
                        reader_pool.push((nid, *head));
                        *head = (reader_pool.len() - 1) as u32;
                    }
                    for &d in space_from.iter().filter(|_| lineage) {
                        edge(&mut edges, &mut indeg, ev_node[d as usize], nid, Gate::Order);
                    }
                    let out = dfg.instr(*instr).output.0 as usize;
                    cur_alloc[out] = nid;
                    reader_head[out] = NONE_U32;
                }
                MoveEvent::Load { value, space_from, .. } => {
                    let nid = (n_instr + mem_nodes.len()) as u32;
                    mem_nodes.push(MemNode::Load { ev: ei as u32 });
                    for &d in space_from.iter().filter(|_| lineage) {
                        edge(&mut edges, &mut indeg, ev_node[d as usize], nid, Gate::Order);
                    }
                    // A reload may not start before the previous copy's
                    // release (and, for spills, the writeback) completes.
                    let r = last_release[value.0 as usize];
                    if r != NONE_U32 {
                        edge(&mut edges, &mut indeg, r, nid, Gate::Done);
                    }
                    let vi = value.0 as usize;
                    cur_alloc[vi] = nid;
                    reader_head[vi] = NONE_U32;
                }
                MoveEvent::SpillStore { value, .. }
                | MoveEvent::Drop { value, .. }
                | MoveEvent::OutputStore { value, .. } => {
                    let nid = (n_instr + mem_nodes.len()) as u32;
                    mem_nodes.push(if matches!(ev, MoveEvent::Drop { .. }) {
                        MemNode::Drop { ev: ei as u32 }
                    } else {
                        MemNode::Store { ev: ei as u32 }
                    });
                    let vi = value.0 as usize;
                    let a = cur_alloc[vi];
                    if a != NONE_U32 {
                        let g = if (a as usize) < n_instr { Gate::Drain } else { Gate::Done };
                        edge(&mut edges, &mut indeg, a, nid, g);
                    }
                    let mut k = reader_head[vi];
                    while k != NONE_U32 {
                        let (r, next) = reader_pool[k as usize];
                        edge(&mut edges, &mut indeg, r, nid, Gate::ReaderHold);
                        k = next;
                    }
                    ev_node[ei] = nid;
                    if ev.frees_space() {
                        cur_alloc[vi] = NONE_U32;
                        reader_head[vi] = NONE_U32;
                        last_release[vi] = nid;
                    }
                }
            }
        }
        drop((reader_head, reader_pool));
        // Counts → prefix sums → stable scatter.
        let mut succ_off = vec![0u32; total + 1];
        for &(from, _, _) in &edges {
            succ_off[from as usize + 1] += 1;
        }
        for i in 0..total {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor: Vec<u32> = succ_off[..total].to_vec();
        let mut succ_dat = vec![(0u32, Gate::Order); edges.len()];
        for &(from, to, g) in &edges {
            let slot = &mut cursor[from as usize];
            succ_dat[*slot as usize] = (to, g);
            *slot += 1;
        }
        drop(edges);

        // Rank = streaming critical-path depth (matches the availability
        // semantics the schedule is checked under).
        let depth = dfg.critical_depths(&|i| stream_weight(arch, i.op.fu_type(), n));

        let fu_occ = FuType::ALL.map(|fu| arch.occupancy(fu, n));
        let fu_weight = FuType::ALL.map(|fu| stream_weight(arch, fu, n));
        let fu_lat = FuType::ALL.map(|fu| arch.latency(fu, n));

        // Every request a timeline serves is one value's worth of work.
        let vector_bytes = dfg.vector_bytes();
        let mem_cycles = arch.mem_channel_cycles(vector_bytes);
        let net_cycles = arch.net_cycles(vector_bytes);
        let fu_slots = (0..arch.clusters)
            .map(|_| FuType::ALL.map(|fu| Units::new(arch.fus_per_cluster(fu), fu_occ[fu.index()])))
            .collect();
        let n_comp = arch.clusters + arch.scratchpad_banks;
        let net_busy = vec![Units::new(arch.xbar_ports.max(1), net_cycles); n_comp * n_comp];

        let mut s = Self {
            dfg,
            plan,
            arch,
            n_instr,
            mem_nodes,
            succ_off,
            succ_dat,
            indeg,
            gate_time: vec![0; total],
            depth,
            fu_occ,
            fu_weight,
            fu_lat,
            vector_bytes,
            mem_cycles,
            net_cycles,
            channels: Units::new(arch.hbm_channels.max(1), mem_cycles),
            fu_slots,
            net_busy,
            n_comp,
            pad: PadTimeline::new(if lineage { arch.scratchpad_bytes() } else { UNBOUNDED }),
            avail: vec![0; n_values],
            home: vec![None; n_values],
            copies: vec![Vec::new(); n_values],
            bank_ready: vec![0; n_values],
            wb_done: vec![0; n_values],
            rf_used: vec![0; arch.clusters],
            rf_queue: vec![VecDeque::new(); arch.clusters],
            rf_member: vec![NONE_U32; n_values],
            input_buf: Vec::new(),
            order_buf: Vec::new(),
            instr_ready: BinaryHeap::new(),
            mem_ready: BinaryHeap::new(),
            out: StaticSchedule::new(arch.clusters),
            makespan: 0,
        };
        for nid in 0..total as u32 {
            if s.indeg[nid as usize] == 0 {
                s.enqueue(nid);
            }
        }
        s
    }

    fn enqueue(&mut self, nid: u32) {
        if (nid as usize) < self.n_instr {
            self.instr_ready.push((self.depth[nid as usize], std::cmp::Reverse(nid)));
        } else {
            let key = match self.mem_nodes[nid as usize - self.n_instr] {
                MemNode::Load { ev } => match &self.plan.events[ev as usize] {
                    MoveEvent::Load { deadline, .. } => *deadline,
                    _ => 0,
                },
                _ => 0,
            };
            self.mem_ready.push(std::cmp::Reverse((key, nid)));
        }
    }

    /// Propagates a committed node's gating times to its successors and
    /// enqueues the newly ready ones. `hold`/`drain` only matter for
    /// instruction predecessors; mem nodes pass their completion time.
    fn finish(&mut self, nid: u32, hold: u64, drain: u64, done: u64) {
        let lo = self.succ_off[nid as usize] as usize;
        let hi = self.succ_off[nid as usize + 1] as usize;
        for k in lo..hi {
            let (s, g) = self.succ_dat[k];
            let t = match g {
                Gate::Order => 0,
                Gate::ReaderHold => hold,
                Gate::Drain => drain,
                Gate::Done => done,
            };
            let si = s as usize;
            self.gate_time[si] = self.gate_time[si].max(t);
            self.indeg[si] -= 1;
            if self.indeg[si] == 0 {
                self.enqueue(s);
            }
        }
    }

    /// Commits every node and returns the schedule with the peak bytes
    /// resident on the scratchpad.
    fn run(mut self) -> (CycleSchedule, u64) {
        let total = self.n_instr + self.mem_nodes.len();
        let mut committed = 0usize;
        while committed < total {
            let mut progressed = false;
            while let Some(std::cmp::Reverse((_, nid))) = self.mem_ready.pop() {
                self.commit_mem(nid);
                committed += 1;
                progressed = true;
            }
            if let Some((_, std::cmp::Reverse(nid))) = self.instr_ready.pop() {
                self.commit_instr(nid);
                committed += 1;
                progressed = true;
            }
            assert!(progressed, "residency event graph deadlock at {committed}/{total}");
        }

        // Stable sorts keep same-cycle entries in commit order.
        self.out.mem.sort_by_key(|m| m.cycle);
        for stream in self.out.compute.iter_mut() {
            stream.sort_by_key(|e| e.cycle);
        }
        self.out.net.sort_by_key(|e| e.cycle);
        self.out.evict.sort_by_key(|e| e.cycle);
        self.out.validate_monotone();

        (CycleSchedule { schedule: self.out, makespan: self.makespan }, self.pad.peak())
    }

    /// Commits one value's transfer on the HBM channel that can start it
    /// earliest at or after `ready`, ties to the lowest index.
    fn commit_channel(&mut self, ready: u64) -> (usize, u64) {
        let (ci, start) = self.channels.fit(ready, self.mem_cycles);
        self.channels.commit(ci, start, self.mem_cycles);
        (ci, start)
    }

    /// Dense index of a crossbar endpoint (clusters, then banks).
    #[inline(always)]
    fn comp_index(&self, c: ComponentId) -> usize {
        match c {
            ComponentId::Cluster(i) => i,
            ComponentId::Bank(b) => self.arch.clusters + b,
        }
    }

    /// Index into `net_busy` of the `(from, to)` crossbar pair's lanes.
    #[inline(always)]
    fn lane_index(&self, from: ComponentId, to: ComponentId) -> usize {
        self.comp_index(from) * self.n_comp + self.comp_index(to)
    }

    /// Commits a crossbar transfer of `v` on the `(from, to)` lane that can
    /// start it earliest at or after `ready`, and returns its start.
    fn commit_net(&mut self, v: ValueId, from: ComponentId, to: ComponentId, ready: u64) -> u64 {
        let (dur, pair) = (self.net_cycles, self.lane_index(from, to));
        let (port, cycle) = self.net_busy[pair].fit(ready, dur);
        self.net_busy[pair].commit(port, cycle, dur);
        self.out.net.push(NetEntry { cycle, value: v, from, to, port });
        cycle
    }

    /// Ends a value's residency at `cycle`: frees its scratchpad bytes,
    /// invalidates every on-chip location and releases its register-file
    /// slot.
    fn release(&mut self, v: ValueId, cycle: u64) {
        let vi = v.0 as usize;
        self.pad.add(cycle, -(self.vector_bytes as i64));
        self.home[vi] = None;
        self.copies[vi].clear();
        self.bank_ready[vi] = 0;
        self.wb_done[vi] = 0;
        let c = self.rf_member[vi];
        if c != NONE_U32 {
            self.rf_member[vi] = NONE_U32;
            self.rf_used[c as usize] -= self.vector_bytes;
        }
    }

    fn commit_mem(&mut self, nid: u32) {
        let node = self.mem_nodes[nid as usize - self.n_instr];
        match node {
            MemNode::Load { ev } => {
                let MoveEvent::Load { value, .. } = self.plan.events[ev as usize] else {
                    unreachable!()
                };
                let ready = self.gate_time[nid as usize].max(self.pad.fit(self.vector_bytes));
                let (channel, cycle) = self.commit_channel(ready);
                self.pad.add(cycle, self.vector_bytes as i64);
                self.out.mem.push(MemEntry { cycle, dir: MemDir::Load, value, channel });
                let landed = cycle + self.mem_cycles;
                let done = landed + self.arch.hbm_latency_cycles;
                self.avail[value.0 as usize] = done;
                self.home[value.0 as usize] = Some(ComponentId::Bank(self.arch.bank_of(value)));
                self.makespan = self.makespan.max(landed);
                self.finish(nid, 0, 0, done);
            }
            MemNode::Store { ev } => {
                let (value, frees) = match self.plan.events[ev as usize] {
                    MoveEvent::SpillStore { value } => (value, true),
                    MoveEvent::OutputStore { value, frees } => (value, frees),
                    _ => unreachable!(),
                };
                let ready = self.gate_time[nid as usize].max(self.wb_done[value.0 as usize]);
                let (channel, cycle) = self.commit_channel(ready);
                self.out.mem.push(MemEntry { cycle, dir: MemDir::Store, value, channel });
                let done = cycle + self.mem_cycles;
                if frees {
                    self.out.evict.push(EvictEntry { cycle: done, value });
                    self.release(value, done);
                }
                self.makespan = self.makespan.max(done);
                self.finish(nid, 0, 0, done);
            }
            MemNode::Drop { ev } => {
                let MoveEvent::Drop { value } = self.plan.events[ev as usize] else {
                    unreachable!()
                };
                let done = self.gate_time[nid as usize].max(self.wb_done[value.0 as usize]);
                self.out.evict.push(EvictEntry { cycle: done, value });
                self.release(value, done);
                self.finish(nid, 0, 0, done);
            }
        }
    }

    /// Earliest cycle operand `v` could be consumed on cluster `c`
    /// without committing any transfer; `true` if it would be remote.
    fn arrival(&self, v: ValueId, c: usize) -> (u64, bool) {
        let vi = v.0 as usize;
        let t0 = self.avail[vi];
        if self.home[vi] == Some(ComponentId::Cluster(c)) {
            return (t0, false);
        }
        if let Some(&(_, tc)) = self.copies[vi].iter().find(|&&(cc, _)| cc == c as u32) {
            return (tc, false);
        }
        let from = self.source_of(v);
        let t0 = self.source_ready(v, t0, from);
        let pair = self.lane_index(from, ComponentId::Cluster(c));
        let (_, start) = self.net_busy[pair].fit(t0, self.net_cycles);
        (start + XBAR_HOP_CYCLES, true)
    }

    fn source_of(&self, v: ValueId) -> ComponentId {
        self.home[v.0 as usize].unwrap_or(ComponentId::Bank(self.arch.bank_of(v)))
    }

    /// Transfers from a bank may not start before a re-homed value's
    /// writeback has landed there.
    fn source_ready(&self, v: ValueId, t0: u64, from: ComponentId) -> u64 {
        match from {
            ComponentId::Bank(_) => t0.max(self.bank_ready[v.0 as usize]),
            _ => t0,
        }
    }

    /// Probes running an `fu` instruction over `inputs` on cluster `c`
    /// without committing anything; returns its key `(start, remote
    /// bytes, c)`.
    fn probe_cluster(
        &self,
        inputs: &[ValueId],
        fu: FuType,
        base: u64,
        c: usize,
    ) -> (u64, u64, usize) {
        let mut ready = base;
        let mut remote = 0u64;
        for &v in inputs {
            let (t, is_remote) = self.arrival(v, c);
            if is_remote {
                remote += self.vector_bytes;
            }
            ready = ready.max(t);
        }
        let occ = self.fu_occ[fu.index()];
        let (_, start) = self.fu_slots[c][fu.index()].fit(ready, occ);
        (start, remote, c)
    }

    /// Picks the cluster minimizing `(start, remote bytes, cluster id)`:
    /// the earliest start, then the fewest operand bytes pulled over the
    /// crossbar, then the lowest id.
    ///
    /// Probing every cluster's lanes and FU slots is the pass's hot loop,
    /// so the scan visits clusters in ascending `(lb, rb, c)` order and
    /// stops at the first one whose triple exceeds the incumbent's key.
    /// `rb` is the cluster's exact remote byte count: `home`/`copies`
    /// decide it before any probe, by the same test [`Self::arrival`]
    /// makes. `lb` is a lower bound on its start that omits only the
    /// lane and FU probes, which can only push a start later. So
    /// `(lb, rb, c)` is a lexicographic lower bound on the cluster's key,
    /// and every cluster after the stop has a key above the incumbent's:
    /// the pruned argmin is exactly the full scan's.
    ///
    /// Only the few *special* clusters, those holding an operand's home
    /// or a copy, get a triple of their own, sorted. Every other cluster
    /// pulls every operand remotely, so its triple is `(max(base, each
    /// operand's source ready + hop), Σ bytes, c)`: those clusters are
    /// already in order by id, and merging them with the sorted special
    /// ones gives exactly the ascending order of all triples.
    fn pick_cluster(&mut self, inputs: &[ValueId], fu: FuType, base: u64) -> usize {
        debug_assert!(inputs.len() <= 2, "vector ops have at most two operands");
        // The bound shared by every cluster that holds no operand: each
        // input is remote, arriving no earlier than its source is ready
        // plus the crossbar hop.
        let (mut default_lb, mut default_rb) = (base, 0u64);
        for &v in inputs {
            let from = self.source_of(v);
            default_rb += self.vector_bytes;
            default_lb = default_lb
                .max(self.source_ready(v, self.avail[v.0 as usize], from) + XBAR_HOP_CYCLES);
        }
        // The special clusters, deduplicated (`add(x, x)` reads one value
        // twice, and a home may also hold a copy), each with its triple.
        let mut special = std::mem::take(&mut self.order_buf);
        special.clear();
        for &v in inputs {
            let vi = v.0 as usize;
            let home = match self.home[vi] {
                Some(ComponentId::Cluster(h)) => Some(h),
                _ => None,
            };
            for c in home.into_iter().chain(self.copies[vi].iter().map(|&(cc, _)| cc as usize)) {
                if special.iter().all(|&(_, _, sc)| sc != c) {
                    special.push(self.cluster_bound(inputs, base, c));
                }
            }
        }
        special.sort_unstable();
        let is_special = |c: usize| special.iter().any(|&(_, _, sc)| sc == c);
        let mut next_special = special.iter().copied().peekable();
        let mut next_default = (0..self.arch.clusters)
            .filter(|&c| !is_special(c))
            .map(|c| (default_lb, default_rb, c))
            .peekable();
        let mut best: Option<(u64, u64, usize)> = None;
        loop {
            let bound = match (next_special.peek(), next_default.peek()) {
                (Some(s), Some(d)) if s < d => next_special.next(),
                (_, Some(_)) => next_default.next(),
                _ => next_special.next(),
            };
            let Some((lb, rb, c)) = bound else { break };
            if best.is_some_and(|b| (lb, rb, c) > b) {
                break;
            }
            // The FU cannot start before its fit at `lb`, so a cluster
            // that loses even then needs no lane probes.
            let (_, fu_lb) = self.fu_slots[c][fu.index()].fit(lb, self.fu_occ[fu.index()]);
            if best.is_some_and(|b| (fu_lb, rb, c) > b) {
                continue;
            }
            let key = self.probe_cluster(inputs, fu, base, c);
            debug_assert_eq!(key.1, rb, "remote bytes must be exact before the probe");
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        self.order_buf = special;
        let (_, _, cluster) = best.unwrap();
        #[cfg(test)]
        assert_eq!(cluster, self.pick_cluster_full(inputs, fu, base), "pruned pick != full scan");
        cluster
    }

    /// The `(lb, rb, c)` bound [`Self::pick_cluster`] orders cluster `c`
    /// by: a start lower bound and the exact remote operand bytes.
    fn cluster_bound(&self, inputs: &[ValueId], base: u64, c: usize) -> (u64, u64, usize) {
        let (mut lb, mut rb) = (base, 0u64);
        for &v in inputs {
            let vi = v.0 as usize;
            let t = if self.home[vi] == Some(ComponentId::Cluster(c)) {
                self.avail[vi]
            } else if let Some(&(_, tc)) = self.copies[vi].iter().find(|&&(cc, _)| cc == c as u32) {
                tc
            } else {
                let from = self.source_of(v);
                rb += self.vector_bytes;
                self.source_ready(v, self.avail[vi], from) + XBAR_HOP_CYCLES
            };
            lb = lb.max(t);
        }
        (lb, rb, c)
    }

    /// Reference for [`Self::pick_cluster`]: probes every cluster.
    #[cfg(test)]
    fn pick_cluster_full(&self, inputs: &[ValueId], fu: FuType, base: u64) -> usize {
        (0..self.arch.clusters).map(|c| self.probe_cluster(inputs, fu, base, c)).min().unwrap().2
    }

    fn commit_instr(&mut self, id: u32) {
        let iid = InstrId(id);
        let (fu, output) = {
            let instr = self.dfg.instr(iid);
            self.input_buf.clear();
            self.input_buf.extend_from_slice(&instr.inputs);
            (instr.op.fu_type(), instr.output)
        };
        let inputs = std::mem::take(&mut self.input_buf);
        let occ = self.fu_occ[fu.index()];
        let weight = self.fu_weight[fu.index()];
        let lat = self.fu_lat[fu.index()];
        let out_bytes = self.vector_bytes;
        let base = self.gate_time[id as usize].max(self.pad.fit(out_bytes));

        let cluster = self.pick_cluster(&inputs, fu, base);

        // Commit operand transfers on the chosen cluster.
        let mut ready = base;
        for &v in &inputs {
            let vi = v.0 as usize;
            let t0 = self.avail[vi];
            let t = if self.home[vi] == Some(ComponentId::Cluster(cluster)) {
                t0
            } else if let Some(&(_, tc)) =
                self.copies[vi].iter().find(|&&(cc, _)| cc == cluster as u32)
            {
                tc
            } else {
                let from = self.source_of(v);
                let t0 = self.source_ready(v, t0, from);
                let arrive =
                    self.commit_net(v, from, ComponentId::Cluster(cluster), t0) + XBAR_HOP_CYCLES;
                self.copies[vi].push((cluster as u32, arrive));
                arrive
            };
            ready = ready.max(t);
        }

        let slots = &mut self.fu_slots[cluster][fu.index()];
        let (slot, start) = slots.fit(ready, occ);
        slots.commit(slot, start, occ);
        self.pad.add(start, out_bytes as i64);
        let available = start + weight;
        self.makespan = self.makespan.max(start + occ + lat);
        self.avail[output.0 as usize] = available;
        self.home[output.0 as usize] = Some(ComponentId::Cluster(cluster));
        self.out.compute[cluster].push(ComputeEntry { cycle: start, instr: iid, fu_index: slot });

        // Register-file occupancy: the result claims RF space; overflow
        // re-homes the oldest still-resident values to their bank.
        self.rf_used[cluster] += out_bytes;
        self.rf_queue[cluster].push_back(output);
        self.rf_member[output.0 as usize] = cluster as u32;
        while self.rf_used[cluster] > self.arch.rf_bytes_per_cluster {
            let Some(w) = self.rf_queue[cluster].pop_front() else { break };
            if self.rf_member[w.0 as usize] != cluster as u32 {
                continue; // already evicted or re-homed
            }
            if w == output {
                // Never flush the value being produced this cycle.
                self.rf_queue[cluster].push_front(w);
                break;
            }
            self.rehome(w, cluster);
        }

        self.input_buf = inputs;
        self.finish(id, start + occ, start + occ + lat, available);
    }

    /// Writes a register-file-resident value back to its scratchpad bank
    /// over the crossbar; later consumers fetch it from the bank.
    fn rehome(&mut self, w: ValueId, c: usize) {
        let wi = w.0 as usize;
        let from = ComponentId::Cluster(c);
        let to = ComponentId::Bank(self.arch.bank_of(w));
        let landed = self.commit_net(w, from, to, self.avail[wi]) + self.net_cycles;
        self.home[wi] = Some(to);
        self.bank_ready[wi] = landed;
        self.wb_done[wi] = landed;
        self.copies[wi].retain(|&(cc, _)| cc != c as u32);
        self.rf_used[c] -= self.vector_bytes;
        self.rf_member[wi] = NONE_U32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Program;
    use crate::expand::{expand, ExpandOptions, KeySwitchChoice};
    use crate::ir::{FheProgram, Scheme};
    use crate::{listing2, movement};
    use std::collections::HashMap;

    fn compile(p: &Program, arch: &ArchConfig) -> (Expanded, MovePlan, CycleSchedule) {
        let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
        let ex = expand(p, &opts);
        let plan = movement::schedule(&ex, arch);
        let cs = schedule(&ex, &plan, arch);
        (ex, plan, cs)
    }

    fn tiny_pad(mb: u64) -> ArchConfig {
        ArchConfig::f1_default().with_scratchpad_mb(mb)
    }

    /// Issue cycle per instruction, read from the compute streams.
    fn issue_cycles(cs: &CycleSchedule, dfg: &Dfg) -> Vec<u64> {
        let mut issue = vec![u64::MAX; dfg.instrs().len()];
        for e in cs.schedule.compute.iter().flatten() {
            issue[e.instr.0 as usize] = e.cycle;
        }
        issue
    }

    /// Cycle instruction `i`'s result becomes available to rate-matched
    /// consumers: its issue plus [`stream_weight`].
    fn done_cycle(issue: &[u64], dfg: &Dfg, arch: &ArchConfig, i: InstrId) -> u64 {
        issue[i.0 as usize] + stream_weight(arch, dfg.instr(i).op.fu_type(), dfg.n)
    }

    #[test]
    fn dependences_hold_in_time() {
        let p = listing2(1 << 12, 4, 2);
        let arch = ArchConfig::f1_default();
        let (ex, _, cs) = compile(&p, &arch);
        let issue = issue_cycles(&cs, &ex.dfg);
        for instr in ex.dfg.instrs() {
            for &v in &instr.inputs {
                if let Some(prod) = ex.dfg.producer(v) {
                    assert!(
                        done_cycle(&issue, &ex.dfg, &arch, prod) <= issue[instr.id.0 as usize],
                        "instr {:?} issues before its operand {:?} is available",
                        instr.id,
                        v
                    );
                }
            }
        }
        assert!(cs.makespan > 0);
    }

    #[test]
    fn no_fu_double_booking() {
        // No two ComputeEntrys may share (cluster, fu, fu_index) with
        // overlapping occupancy windows — checked directly here,
        // independent of the f1-sim checker.
        let p = listing2(1 << 12, 8, 4);
        let arch = ArchConfig::f1_default();
        let (ex, _, cs) = compile(&p, &arch);
        let mut by_slot: HashMap<(usize, FuType, usize), Vec<u64>> = HashMap::new();
        for (c, stream) in cs.schedule.compute.iter().enumerate() {
            for e in stream {
                let fu = ex.dfg.instr(e.instr).op.fu_type();
                by_slot.entry((c, fu, e.fu_index)).or_default().push(e.cycle);
            }
        }
        for ((c, fu, slot), mut cycles) in by_slot {
            let occ = arch.occupancy(fu, ex.dfg.n);
            cycles.sort_unstable();
            for w in cycles.windows(2) {
                assert!(
                    w[1] >= w[0] + occ,
                    "cluster {c} {fu:?}[{slot}] double-booked: {} then {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn utilization_regression_matvec() {
        // The headline scheduling result: overlapped loads + critical-path
        // list scheduling keep average FU utilization above 15% (§8.2
        // reports ~30% across benchmarks; the greedy seed scheduler
        // managed ~6% on private inference).
        let p = listing2(1 << 13, 8, 4);
        let arch = ArchConfig::f1_default();
        let (ex, _, cs) = compile(&p, &arch);
        let total_fus: u64 =
            FuType::ALL.iter().map(|&f| arch.fus_per_cluster(f) as u64).sum::<u64>()
                * arch.clusters as u64;
        let busy: u64 =
            ex.dfg.instrs().iter().map(|i| arch.occupancy(i.op.fu_type(), ex.dfg.n)).sum();
        let util = busy as f64 / (total_fus * cs.makespan) as f64;
        assert!(util >= 0.15, "avg FU utilization {util:.3} regressed below 15%");
    }

    #[test]
    fn auto_expansion_schedules_like_the_forced_variant() {
        // Pass 1's `Auto` chooser walks each candidate's critical depths
        // before keeping one; pass 3 must schedule the kept expansion
        // exactly as a fresh expansion forced to the same variant. The
        // 64 MB machine keeps decomposition, the 1 MB one flips to GHS.
        let p = listing2(1 << 12, 4, 4);
        let mut used_ghs = Vec::new();
        for arch in [ArchConfig::f1_default(), tiny_pad(1)] {
            let auto =
                expand(&p, &ExpandOptions { machine: Some(arch.clone()), ..Default::default() });
            let keyswitch =
                if auto.used_ghs { KeySwitchChoice::Ghs } else { KeySwitchChoice::Decomposition };
            let forced = expand(
                &p,
                &ExpandOptions { keyswitch, machine: Some(arch.clone()), ..Default::default() },
            );
            let run = |ex: &Expanded| {
                let plan = movement::schedule(ex, &arch);
                format!("{:?}", schedule(ex, &plan, &arch))
            };
            assert_eq!(run(&auto), run(&forced), "used_ghs = {}", auto.used_ghs);
            used_ghs.push(auto.used_ghs);
        }
        assert_eq!(used_ghs, [false, true], "the two machines must pick different variants");
    }

    #[test]
    fn loads_overlap_compute() {
        // The overlapping property: the last load must not complete before
        // the first instruction issues (the seed scheduler serialized the
        // whole load prologue ahead of compute on big programs).
        let p = listing2(1 << 13, 8, 4);
        let arch = ArchConfig::f1_default();
        let (ex, _, cs) = compile(&p, &arch);
        let first_issue = cs.schedule.compute.iter().flatten().map(|e| e.cycle).min().unwrap();
        let dur = arch.mem_channel_cycles(ex.dfg.vector_bytes());
        let last_load_end = cs
            .schedule
            .mem
            .iter()
            .filter(|m| m.dir == MemDir::Load)
            .map(|m| m.cycle + dur)
            .max()
            .unwrap();
        assert!(
            first_issue < last_load_end,
            "compute (first issue {first_issue}) must overlap the load stream (ends {last_load_end})"
        );
    }

    #[test]
    fn channels_load_concurrently() {
        let p = listing2(1 << 13, 8, 4);
        let arch = ArchConfig::f1_default();
        let (_, _, cs) = compile(&p, &arch);
        let used: std::collections::HashSet<usize> =
            cs.schedule.mem.iter().map(|m| m.channel).collect();
        assert!(used.len() > 1, "only one HBM channel ever used");
        assert!(used.iter().all(|&c| c < arch.hbm_channels));
    }

    #[test]
    fn occupancy_gap_insertion() {
        let mut o = Occupancy::default();
        assert_eq!(o.probe(0, 10), 0);
        o.commit(0, 10);
        assert_eq!(o.probe(0, 10), 10);
        o.commit(20, 10);
        // A 10-wide request fits the [10, 20) gap; an 11-wide one skips it.
        assert_eq!(o.probe(0, 10), 10);
        assert_eq!(o.probe(0, 11), 30);
        assert_eq!(o.probe(12, 5), 12);
        o.commit(10, 10);
        assert_eq!(o.probe(0, 1), 30);
    }

    #[test]
    fn tail_search_matches_partition_point() {
        // Both predicates the timelines search by, at every split point of
        // every list length up to well past a few galloping steps.
        for len in 0..=130u64 {
            let busy: Vec<(u64, u64)> = (0..len).map(|i| (10 * i, 10 * i + 5)).collect();
            for split in 0..=len as usize {
                let t = if split == 0 { 0 } else { busy[split - 1].1 };
                let ends = |&(_, end): &(u64, u64)| end <= t;
                assert_eq!(tail_partition_point(&busy, ends), split, "end <= t, len {len}");
                assert_eq!(busy.partition_point(ends), split);
                let start = busy.get(split).map_or(u64::MAX, |&(s, _)| s);
                let starts = |&(s, _): &(u64, u64)| s < start;
                assert_eq!(tail_partition_point(&busy, starts), split, "s < start, len {len}");
                assert_eq!(busy.partition_point(starts), split);
            }
        }
    }

    #[test]
    fn occupancy_finds_gap_far_behind_tail() {
        // 199 intervals 10 wide with 5-cycle gaps, except one 20-cycle gap
        // where interval 100 is missing, 98 intervals behind the tail.
        let mut o = Occupancy::default();
        for i in (0..200).filter(|&i| i != 100) {
            o.commit(15 * i, 10);
        }
        assert_eq!(o.busy.len(), 199);
        let tail_end = 15 * 199 + 10;
        assert_eq!(o.probe(0, 20), 15 * 99 + 10);
        assert_eq!(o.probe(0, 21), tail_end);
        assert_eq!(o.probe(15 * 99 + 12, 15), 15 * 99 + 12);
        assert_eq!(o.probe(15 * 99 + 12, 19), tail_end);
        // Filling the gap exactly joins its two neighbours into one.
        o.commit(15 * 99 + 10, 20);
        assert_eq!(o.busy.len(), 198);
        assert_eq!(o.probe(0, 20), tail_end);
    }

    /// A small xorshift generator for the randomized timeline tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn closing_short_gaps_keeps_probe_answers() {
        // Two timelines take the same commits; one closes every gap
        // shorter than its 8-cycle minimum request. Probes for requests
        // of at least 8 cycles answer the same on both.
        let min_len = 8;
        let (mut open, mut closed) = (Occupancy::default(), Occupancy::new(min_len));
        let mut rng = 0x2545_f491_4f6c_dd1d;
        for _ in 0..2000 {
            let ready = xorshift(&mut rng) % 20_000;
            let len = min_len + xorshift(&mut rng) % (2 * min_len);
            let start = open.probe(ready, len);
            assert_eq!(closed.probe(ready, len), start);
            open.commit(start, len);
            closed.commit(start, len);
            for _ in 0..4 {
                let ready = xorshift(&mut rng) % 25_000;
                let len = min_len + xorshift(&mut rng) % (4 * min_len);
                assert_eq!(closed.probe(ready, len), open.probe(ready, len), "at {ready}+{len}");
            }
        }
        assert!(closed.busy.len() < open.busy.len(), "no gap was short enough to close");
    }

    #[test]
    fn pad_release_and_allocation_in_one_cycle_net_out() {
        let mut pad = PadTimeline::new(100);
        pad.add(0, 60);
        assert_eq!(pad.fit(40), 0);
        pad.add(10, -60);
        // Bytes released at cycle 10 are free for an allocation at 10.
        assert_eq!(pad.fit(50), 10);
        pad.add(10, 50);
        assert_eq!(pad.leaves[0], [(0, 60), (10, -10)]);
        assert_eq!(pad.fit(50), 10);
        assert_eq!(pad.fit(40), 0);
        // Entries that net to zero leave the leaf.
        pad.add(10, 10);
        assert_eq!(pad.leaves[0], [(0, 60)]);
    }

    #[test]
    fn pad_allocations_placed_at_fit_stay_within_capacity() {
        // Allocations start at their ready cycle or their fit, whichever
        // is later; releases land at random later cycles, often in the
        // cycle of another allocation. In a test build every `fit` also
        // checks itself against a linear scan of the deltas. The
        // timeline spans many leaves, so the tree grows several times.
        let cap = 1 << 20;
        let mut pad = PadTimeline::new(cap);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let (mut resident, mut rng) = (0u64, 0x9e37_79b9_7f4a_7c15_u64);
        let mut starts = Vec::new();
        for _ in 0..3000 {
            let bytes = (1 + xorshift(&mut rng) % 16) << 14;
            while resident + bytes > cap {
                let (start, b) = live.swap_remove(xorshift(&mut rng) as usize % live.len());
                // Half the releases reuse the cycle an allocation started.
                let at = match xorshift(&mut rng) % 2 {
                    0 => starts[xorshift(&mut rng) as usize % starts.len()],
                    _ => start + xorshift(&mut rng) % 5000,
                };
                pad.add(at.max(start), -(b as i64));
                resident -= b;
            }
            let ready = xorshift(&mut rng) % 200_000;
            let start = ready.max(pad.fit(bytes));
            pad.add(start, bytes as i64);
            live.push((start, bytes));
            starts.push(start);
            resident += bytes;
        }
        assert!(pad.leaves.len() >= 512, "only {} leaves", pad.leaves.len());
        let mut occupied = 0i64;
        for &(cycle, d) in pad.leaves.iter().flatten() {
            occupied += d;
            assert!((0..=cap as i64).contains(&occupied), "{occupied} bytes at cycle {cycle}");
        }
        assert_eq!(occupied, resident as i64);
    }

    #[test]
    fn pad_peak_matches_linear_scan() {
        // Random allocations and releases, some netting out in one cycle;
        // in a test build every `peak` also checks itself against a linear
        // scan of the deltas.
        let mut pad = PadTimeline::new(UNBOUNDED);
        assert_eq!(pad.peak(), 0, "an empty pad holds nothing");
        pad.add(0, 60);
        pad.add(10, -60);
        pad.add(10, 50);
        assert_eq!(pad.peak(), 60, "the peak precedes the last entry");
        pad.add(20, 30);
        assert_eq!(pad.peak(), 80, "the peak follows the last entry");
        let mut rng = 0x0123_4567_89ab_cdef_u64;
        let mut live: Vec<(u64, i64)> = Vec::new();
        for _ in 0..4000 {
            if live.is_empty() || !xorshift(&mut rng).is_multiple_of(3) {
                let (at, bytes) = (xorshift(&mut rng) % 300_000, (xorshift(&mut rng) % 64) as i64);
                pad.add(at, bytes);
                live.push((at, bytes));
            } else {
                let (at, bytes) = live.swap_remove(xorshift(&mut rng) as usize % live.len());
                pad.add(at + xorshift(&mut rng) % 2000, -bytes);
            }
            assert_eq!(pad.peak(), pad.peak_linear());
        }
        assert!(pad.leaves.len() >= 512, "only {} leaves", pad.leaves.len());
    }

    /// `p` through the optimizer and lowering, as [`crate::compile_fhe`]
    /// runs it.
    fn optimized(p: &FheProgram) -> Program {
        p.optimize().0.lower().program
    }

    /// The schedules of one plan without and with its byte lineage, and
    /// the lineage-free one's peak residency.
    fn both_schedules(
        ex: &Expanded,
        plan: &MovePlan,
        arch: &ArchConfig,
    ) -> (CycleSchedule, u64, CycleSchedule) {
        let (free, peak) = CycleScheduler::new(ex, plan, arch, false).run();
        let (lineage, _) = CycleScheduler::new(ex, plan, arch, true).run();
        (free, peak, lineage)
    }

    #[test]
    fn compulsory_only_plans_keep_a_lineage_free_schedule_that_fits() {
        // The BGV block (mul, rotate, mod-switch at N = 2^14, L = 16)
        // moves only compulsory traffic on the 64 MB machine. Without the
        // byte lineage its loads and instructions are no longer held to
        // pass 2's reuse order, and the schedule still fits the pad. It
        // took 25,429 cycles against the lineage's 31,133 when written.
        let mut f = FheProgram::new(1 << 14, Scheme::Bgv);
        let (x, y) = (f.input(16), f.input(16));
        let m = f.mul(x, y);
        let r = f.rotate(m, 1);
        let s = f.mod_switch(r);
        f.output(s);
        let arch = ArchConfig::f1_default();
        let (ex, plan, cs) = compile(&optimized(&f), &arch);
        assert_eq!(plan.traffic.non_compulsory(), 0);
        let (free, peak, lineage) = both_schedules(&ex, &plan, &arch);
        assert!(peak <= arch.scratchpad_bytes(), "lineage-free peak {peak} over the pad");
        assert_eq!(format!("{cs:?}"), format!("{free:?}"), "the lineage-free schedule is kept");
        assert!(free.makespan < lineage.makespan, "{} vs {}", free.makespan, lineage.makespan);
    }

    #[test]
    fn lineage_free_schedules_over_the_pad_fall_back_to_the_lineage() {
        // Sixteen inputs, each rotated and summed, on a 4 MB pad. Pass 2
        // fits them with compulsory traffic only. Without the lineage,
        // pass 3 loads them faster than the key-switches consume them,
        // and they pile up past the pad: the lineage schedule is kept,
        // though the discarded one is shorter.
        let mut f = FheProgram::new(1 << 12, Scheme::Bgv);
        let xs: Vec<_> = (0..16).map(|_| f.input(4)).collect();
        let mut acc = f.rotate(xs[0], 1);
        for &x in &xs[1..] {
            let r = f.rotate(x, 1);
            acc = f.add(acc, r);
        }
        f.output(acc);
        let arch = tiny_pad(4);
        let (ex, plan, cs) = compile(&optimized(&f), &arch);
        assert_eq!(plan.traffic.non_compulsory(), 0);
        let (free, peak, lineage) = both_schedules(&ex, &plan, &arch);
        assert!(peak > arch.scratchpad_bytes(), "lineage-free peak {peak} fits the pad");
        assert!(free.makespan < lineage.makespan);
        assert_eq!(format!("{cs:?}"), format!("{lineage:?}"), "the lineage schedule is kept");
    }

    #[test]
    fn more_clusters_run_faster() {
        let p = listing2(1 << 13, 8, 4);
        let mut small = ArchConfig::f1_default();
        small.clusters = 2;
        let big = ArchConfig::f1_default();
        let (_, _, cs_small) = compile(&p, &small);
        let (_, _, cs_big) = compile(&p, &big);
        assert!(
            cs_big.makespan < cs_small.makespan,
            "16 clusters ({}) should beat 2 ({})",
            cs_big.makespan,
            cs_small.makespan
        );
    }

    #[test]
    fn low_throughput_ntt_is_slower() {
        // Table 5, column "LT NTT": same aggregate throughput, worse time.
        // One expansion scheduled on both machines (as the table does), so
        // the key-switch chooser cannot mask the FU ablation.
        let p = listing2(1 << 13, 8, 4);
        let ex = expand(&p, &ExpandOptions::default());
        let base = ArchConfig::f1_default();
        let mut lt = ArchConfig::f1_default();
        lt.low_throughput_ntt = true;
        let cs_base = schedule(&ex, &movement::schedule(&ex, &base), &base);
        let cs_lt = schedule(&ex, &movement::schedule(&ex, &lt), &lt);
        assert!(
            cs_lt.makespan > cs_base.makespan,
            "LT NTT {} must be slower than baseline {}",
            cs_lt.makespan,
            cs_base.makespan
        );
    }

    #[test]
    fn seconds_conversion() {
        let p = listing2(1 << 12, 4, 2);
        let arch = ArchConfig::f1_default();
        let (_, _, cs) = compile(&p, &arch);
        let s = cs.seconds(&arch);
        assert!((s - cs.makespan as f64 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn consumers_gate_on_refetch_completion() {
        // The tentpole property: under a capacity-constrained scratchpad,
        // every consumer of a refetched value issues only after the
        // refetch completes, and the capacity pressure costs makespan.
        let p = listing2(1 << 12, 8, 4);
        let arch = tiny_pad(2);
        let (ex, plan, cs) = compile(&p, &arch);
        let refetched: Vec<ValueId> = plan
            .events
            .iter()
            .filter_map(|e| match e {
                MoveEvent::Load { value, refetch: true, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(!refetched.is_empty(), "2 MB pad must force refetches");
        let issue = issue_cycles(&cs, &ex.dfg);
        let dur = arch.mem_channel_cycles(ex.dfg.vector_bytes());
        // Reconstruct per-value load completions and evictions, then
        // assert every read falls inside a residency interval.
        for &v in &refetched {
            let mut allocs: Vec<u64> = cs
                .schedule
                .mem
                .iter()
                .filter(|m| m.dir == MemDir::Load && m.value == v)
                .map(|m| m.cycle + dur + arch.hbm_latency_cycles)
                .collect();
            if let Some(p) = ex.dfg.producer(v) {
                allocs.push(done_cycle(&issue, &ex.dfg, &arch, p));
            }
            let mut ends: Vec<u64> =
                cs.schedule.evict.iter().filter(|e| e.value == v).map(|e| e.cycle).collect();
            allocs.sort_unstable();
            ends.sort_unstable();
            for &u in ex.dfg.users(v) {
                let t = issue[u.0 as usize];
                let covered = allocs
                    .iter()
                    .zip(ends.iter().map(Some).chain(std::iter::repeat(None)))
                    .any(|(&a, e)| a <= t && e.map(|&e| t <= e).unwrap_or(true));
                assert!(covered, "consumer {u:?} of {v:?} reads at {t} outside residency");
            }
        }
        // Capacity pressure must cost real cycles vs the 64 MB machine.
        let (_, _, cs_big) = compile(&p, &ArchConfig::f1_default());
        assert!(
            cs.makespan > cs_big.makespan,
            "2 MB pad ({}) must be slower than 64 MB ({})",
            cs.makespan,
            cs_big.makespan
        );
    }

    #[test]
    fn spills_share_channels_with_loads() {
        // Spill stores and refetches are co-scheduled on the same HBM
        // channel timelines as first loads — not replayed after compute.
        let p = listing2(1 << 12, 8, 4);
        let arch = tiny_pad(2);
        let (_, _, cs) = compile(&p, &arch);
        let stores: Vec<&MemEntry> =
            cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Store).collect();
        assert!(!stores.is_empty());
        let last_compute = cs.schedule.compute.iter().flatten().map(|e| e.cycle).max().unwrap();
        let overlapped = stores.iter().any(|m| m.cycle < last_compute);
        assert!(overlapped, "no spill store overlaps the compute window");
    }

    #[test]
    fn rf_overflow_rehomes_values() {
        // A dependence chain whose produced values exceed the per-cluster
        // register file: the scheduler must write some back to banks.
        let mut f = FheProgram::new(1 << 14, Scheme::Bgv); // 64 KB values
        let x = f.input(4);
        let mut acc = f.add(x, x);
        for _ in 0..12 {
            acc = f.add(acc, x);
        }
        f.output(acc);
        let p = f.lower().program;
        let mut arch = ArchConfig::f1_default();
        arch.clusters = 1; // concentrate production on one register file
        arch.rf_bytes_per_cluster = 256 * 1024; // 4 values
        let (_, _, cs) = compile(&p, &arch);
        let writebacks = cs
            .schedule
            .net
            .iter()
            .filter(|e| {
                matches!(e.from, ComponentId::Cluster(_)) && matches!(e.to, ComponentId::Bank(_))
            })
            .count();
        assert!(writebacks > 0, "RF overflow must re-home values to banks");
    }

    #[test]
    fn pruned_cluster_pick_matches_full_scan() {
        // Every `pick_cluster` call in a test build also runs the
        // full-scan reference and asserts the two picks agree. The tiny
        // pad and register file put operands in banks, on their home
        // cluster and in copies on others (the cases that give clusters
        // different bounds); the full pad leaves clusters whose bound
        // ties the incumbent's start, which only an exact prune probes.
        let p = listing2(1 << 12, 4, 2);
        for pad_mb in [2, 64] {
            for clusters in [1, 3, 16] {
                for xbar_ports in [1, 2] {
                    let mut arch = tiny_pad(pad_mb);
                    arch.clusters = clusters;
                    arch.xbar_ports = xbar_ports;
                    arch.rf_bytes_per_cluster = 128 * 1024; // 8 vectors
                    let (_, _, cs) = compile(&p, &arch);
                    let net = &cs.schedule.net;
                    let to_bank = net.iter().filter(|e| matches!(e.to, ComponentId::Bank(_)));
                    let to_cluster = net.iter().filter(|e| matches!(e.to, ComponentId::Cluster(_)));
                    let cfg = format!("{pad_mb} MB, {clusters} clusters, {xbar_ports} ports");
                    assert!(to_bank.count() > 0, "{cfg}: no re-home");
                    assert!(to_cluster.count() > 0, "{cfg}: no copy");
                }
            }
        }

        // Two shared operands fanned out to parallel products spread over
        // the clusters, so both gain copies on several of them. `x` and
        // each rotated product are also read twice by one instruction.
        // That exercises the special-cluster dedupe and its merge with the
        // shared bound of the other clusters (visiting the special
        // clusters first, say, picks a later cluster here).
        let mut f = FheProgram::new(1 << 13, Scheme::Bgv);
        let x = f.input(4);
        let y = f.input(4);
        let mut acc = f.add(x, x);
        for i in 0..16 {
            let prod = f.mul(x, y);
            let rot = f.rotate(prod, i + 1);
            let twice = f.add(rot, rot);
            acc = f.add(acc, twice);
        }
        f.output(acc);
        let p = f.lower().program;
        for clusters in [3, 16] {
            let mut arch = ArchConfig::f1_default();
            arch.clusters = clusters;
            let (ex, _, cs) = compile(&p, &arch);
            let doubled = ex
                .dfg
                .instrs()
                .iter()
                .filter(|i| i.inputs.len() == 2 && i.inputs[0] == i.inputs[1]);
            assert!(doubled.count() > 0, "{clusters} clusters: no instruction reads a value twice");
            let mut copied_to: HashMap<ValueId, std::collections::HashSet<usize>> = HashMap::new();
            for e in &cs.schedule.net {
                if let ComponentId::Cluster(c) = e.to {
                    copied_to.entry(e.value).or_default().insert(c);
                }
            }
            let widest = copied_to.values().map(|to| to.len()).max().unwrap_or(0);
            assert!(widest >= 2, "{clusters} clusters: no value copied to two clusters");
        }
    }
}
