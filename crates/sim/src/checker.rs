//! The checker-style cycle simulator (§7) and evaluation statistics.

use f1_arch::energy::{EnergyCounters, EnergyModel, PowerBreakdown};
use f1_arch::ArchConfig;
use f1_compiler::expand::Expanded;
use f1_compiler::movement::TrafficBreakdown;
use f1_compiler::{CycleSchedule, MovePlan};
use f1_isa::dfg::ValueId;
use f1_isa::streams::MemDir;
use f1_isa::{ComponentId, FuType};
use std::collections::HashMap;
use std::hash::Hash;

/// Per-window utilization series — the data behind Fig 10.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Window width in cycles.
    pub window: u64,
    /// Active-FU count per window, per class (Ntt, Aut, Mul, Add).
    pub fu_active: [Vec<f64>; 4],
    /// HBM bandwidth utilization per window, percent.
    pub hbm_util: Vec<f64>,
}

/// The simulator's verdict and statistics for one compiled program.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total cycles.
    pub makespan: u64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Off-chip traffic split (Fig 9a).
    pub traffic: TrafficBreakdown,
    /// Average-power split (Fig 9b).
    pub power: PowerBreakdown,
    /// Utilization series (Fig 10).
    pub timeline: Timeline,
    /// Average FU utilization (0..1) across the run (§8.2 reports ~30%).
    pub avg_fu_utilization: f64,
    /// Instruction-stream bytes ([`f1_isa::streams::StaticSchedule::encoded_bytes`])
    /// as a fraction of off-chip traffic. §3 reports under 0.1%; on Table
    /// 3's programs at full size this measures 0.93–8.6%.
    pub instr_fetch_fraction: f64,
}

/// Entries grouped by value id in one flat array: value `v`'s entries are
/// `items[offsets[v]..offsets[v + 1]]`, in the order they were fed in.
struct ByValue<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> ByValue<T> {
    /// Groups `entries` by value with a counting sort (one pass to count,
    /// one to place), keeping each value's entries in input order. Every
    /// value id must be below `values`.
    fn build<I>(values: usize, entries: I) -> Self
    where
        I: Iterator<Item = (ValueId, T)> + Clone,
    {
        let mut offsets = vec![0usize; values + 1];
        for (v, _) in entries.clone() {
            offsets[v.0 as usize + 1] += 1;
        }
        for v in 0..values {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..values].to_vec();
        // Every slot is overwritten below; the first entry only fills
        // the array so `T` needs no default.
        let mut items = match entries.clone().next() {
            Some((_, first)) => vec![first; offsets[values]],
            None => Vec::new(),
        };
        for (v, x) in entries {
            let slot = &mut next[v.0 as usize];
            items[*slot] = x;
            *slot += 1;
        }
        Self { offsets, items }
    }

    fn get(&self, v: usize) -> &[T] {
        &self.items[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// One on-chip residency interval of a value, reconstructed from the
/// emitted streams alone (loads, production cycles, evictions).
#[derive(Debug, Clone, Copy)]
struct Residency {
    /// Cycle the scratchpad bytes are claimed (load start / issue).
    start: u64,
    /// Cycle the data is usable (load completion / producer done).
    avail: u64,
    /// Cycle the bytes are freed (`u64::MAX` = resident to the end).
    end: u64,
    /// Whether this interval began with an off-chip load.
    loaded: bool,
}

/// An allocation (load or production) or release (eviction) of a value's
/// scratchpad bytes at `cycle`.
#[derive(Debug, Clone, Copy)]
struct ResidencyEvent {
    cycle: u64,
    /// 0 = release, 1 = allocation: at equal cycles the release happens
    /// first (byte lineage: an allocation may reuse bytes freed that
    /// cycle).
    phase: u8,
    /// Allocations only: cycle the data is usable.
    avail: u64,
    /// Allocations only: whether the bytes arrive by an off-chip load.
    loaded: bool,
}

/// Per-value residency intervals, derived independently of the scheduler
/// by pairing allocation events (loads, production) with [`f1_isa::streams::EvictEntry`]s
/// in time order. Values are paired in id order. `issue` is
/// [`issue_table`]'s issue cycle per instruction, a result is usable
/// `weight[fu]` after its issue, and a load's data `load_cycles` after it
/// starts.
///
/// # Panics
///
/// Panics when the streams are malformed: two allocations without an
/// intervening eviction, an eviction of a value with no on-chip copy, or
/// a refetch starting before the previous copy's bytes are released.
fn residency_intervals(
    expanded: &Expanded,
    cs: &CycleSchedule,
    issue: &[u64],
    weight: &[u64; 4],
    load_cycles: u64,
) -> ByValue<Residency> {
    let dfg = &expanded.dfg;
    let alloc = |cycle, avail, loaded| ResidencyEvent { cycle, phase: 1, avail, loaded };
    let loads = cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Load);
    let loads = loads.map(|m| (m.value, alloc(m.cycle, m.cycle + load_cycles, true)));
    let produced = issue.iter().zip(dfg.instrs()).map(|(&issue, instr)| {
        (instr.output, alloc(issue, issue + weight[instr.op.fu_type().index()], false))
    });
    let released =
        cs.schedule.evict.iter().map(|e| {
            (e.value, ResidencyEvent { cycle: e.cycle, phase: 0, avail: 0, loaded: false })
        });
    let values = dfg.values().len();
    let mut events = ByValue::build(values, loads.chain(produced).chain(released));

    // A value has at most one interval per allocation, so `items` never
    // outgrows the event count.
    let mut offsets = Vec::with_capacity(values + 1);
    let mut items = Vec::with_capacity(events.items.len());
    offsets.push(0);
    for v in 0..values {
        let evs = &mut events.items[events.offsets[v]..events.offsets[v + 1]];
        evs.sort_by_key(|e| (e.cycle, e.phase));
        let mut open: Option<Residency> = None;
        for e in evs.iter() {
            let cycle = e.cycle;
            if e.phase == 1 {
                assert!(
                    open.is_none(),
                    "value {v}: refetch at {cycle} before the previous copy is evicted"
                );
                open = Some(Residency {
                    start: cycle,
                    avail: e.avail,
                    end: u64::MAX,
                    loaded: e.loaded,
                });
            } else {
                let mut cur = open.take().unwrap_or_else(|| {
                    panic!("value {v}: eviction at {cycle} with no on-chip copy")
                });
                cur.end = cycle;
                items.push(cur);
            }
        }
        items.extend(open);
        offsets.push(items.len());
    }
    ByValue { offsets, items }
}

/// When and where each instruction ran, read from the compute streams,
/// the only record of it: the issue cycle per instruction, the cluster
/// that produced each value ([`NO_CLUSTER`] for values no instruction
/// produces), and the FU class of each compute entry (its instruction's
/// op's) in stream order.
///
/// Rejects a stream entry naming a value or instruction the DFG does not
/// have before any check indexes a per-value or per-instruction array
/// with it. Every instruction must appear on exactly one compute entry.
fn issue_table(expanded: &Expanded, cs: &CycleSchedule) -> (Vec<u64>, Vec<u32>, Vec<FuType>) {
    let dfg = &expanded.dfg;
    let (values, instrs) = (dfg.values().len(), dfg.instrs().len());
    let mut issue = vec![0; instrs];
    // Each instruction has its own output value, so a produced value
    // marks its producer as seen.
    let mut cluster_of = vec![NO_CLUSTER; values];
    let mut fu = Vec::with_capacity(instrs);
    for (c, stream) in cs.schedule.compute.iter().enumerate() {
        for e in stream {
            assert!(
                (e.instr.0 as usize) < instrs,
                "cluster {c} stream names unknown instr {:?} ({instrs} instrs)",
                e.instr
            );
            let instr = dfg.instr(e.instr);
            fu.push(instr.op.fu_type());
            let home = &mut cluster_of[instr.output.0 as usize];
            assert!(*home == NO_CLUSTER, "{:?} issues twice (cluster {c})", e.instr);
            *home = c as u32;
            issue[e.instr.0 as usize] = e.cycle;
        }
    }
    if let Some(i) = dfg.instrs().iter().find(|i| cluster_of[i.output.0 as usize] == NO_CLUSTER) {
        panic!("{:?} is on no compute stream", i.id);
    }
    let known = |stream: &str, v: ValueId| {
        assert!(
            (v.0 as usize) < values,
            "{stream} stream names unknown value {v:?} ({values} values)"
        );
    };
    cs.schedule.mem.iter().for_each(|m| known("mem", m.value));
    cs.schedule.net.iter().for_each(|e| known("net", e.value));
    cs.schedule.evict.iter().for_each(|e| known("evict", e.value));
    (issue, cluster_of, fu)
}

/// `cluster_of` entry of a value no compute stream produces (an input,
/// or a value living in a scratchpad bank).
const NO_CLUSTER: u32 = u32::MAX;

/// Validates a schedule's emitted streams without computing statistics.
///
/// Independently re-verifies the overlapped schedule the list scheduler
/// emits, from the streams and the DFG alone: every instruction issues
/// exactly once, and its result is available
/// [`f1_compiler::cycle::stream_weight`] cycles after that for its op's
/// FU class. On top of that it checks per-(cluster, FU, instance)
/// occupancy, per-HBM-channel exclusivity, per-crossbar-lane exclusivity,
/// crossbar endpoints, load/store ordering against value production,
/// streaming dependence timing, and the makespan: the last compute
/// entry's drain or memory transfer's end must equal `cs.makespan`.
///
/// Every value is one [`f1_isa::dfg::Dfg::vector_bytes`]-byte vector, so
/// one HBM-channel time and one crossbar-lane time serve every transfer.
///
/// Capacity faithfulness (§4.3) is checked without any access to the
/// scheduler's internal state:
///
/// * **Residency**: every consumer must read each operand inside one of
///   the value's on-chip residency intervals — a value whose last copy
///   was evicted may not be read until its refetch *completes*.
/// * **Bank and register-file copies**: a crossbar transfer out of a bank
///   reads a copy that a load or a re-home put there. Its residency
///   interval began with a load, or a re-home made within the interval
///   landed before it starts. A transfer out of a cluster starts before
///   the value's re-home, which frees its register-file slot, has landed.
/// * **Capacity**: the byte-weighted overlap of all residency intervals
///   must stay within the scratchpad at every cycle.
/// * **Ordering**: a refetch may not start before the previous copy's
///   release; a spilled intermediate's refetch additionally requires its
///   writeback to have completed.
///
/// This is the right entry for re-verifying a schedule without its
/// [`MovePlan`]. Returns the verified makespan (at least 1).
///
/// All per-value state lives in flat arrays indexed by value id, so the
/// cost is linear in the stream entries plus small per-value sorts and
/// one sort of the allocation cycles.
///
/// # Panics
///
/// Panics (like the paper's checker) on any missed dependence, resource
/// double-booking, capacity overflow, makespan mismatch, stream entry
/// naming a value or instruction the DFG does not have, crossbar
/// transfer between the wrong endpoints, out of a bank that holds no
/// copy or out of a register file the value's re-home freed, or
/// instruction missing from or repeated in the compute streams.
///
/// The first violation found is reported, and which one that is does not
/// vary from run to run: the checks run in a fixed order (ids and the
/// issue table, structural resources, crossbar endpoints, residency,
/// capacity, transfers, dependences, memory ordering, makespan),
/// residency and dependences walk values in id order, and the other
/// checks walk the streams in stream order. Of several values with
/// broken residency or a broken read, the panic names the lowest id.
pub fn check_streams(expanded: &Expanded, cs: &CycleSchedule, arch: &ArchConfig) -> u64 {
    verify(expanded, cs, arch).0
}

/// [`check_streams`], also returning each compute entry's FU class.
fn verify(expanded: &Expanded, cs: &CycleSchedule, arch: &ArchConfig) -> (u64, Vec<FuType>) {
    let dfg = &expanded.dfg;
    let n = dfg.n;
    let vector = dfg.vector_bytes();
    let (mem_cycles, net_cycles) = (arch.mem_channel_cycles(vector), arch.net_cycles(vector));
    let weight = FuType::ALL.map(|fu| f1_compiler::cycle::stream_weight(arch, fu, n));
    let (issue, cluster_of, fu) = issue_table(expanded, cs);
    check_structural(cs, arch, n, &fu, mem_cycles, net_cycles);

    // --- Crossbar endpoints: a bank end is the value's own bank, a
    // cluster source is the cluster that produced the value (remote
    // copies are never forwarded), and no transfer ends where it starts.
    for e in &cs.schedule.net {
        let bank = ComponentId::Bank(arch.bank_of(e.value));
        let producer = cluster_of[e.value.0 as usize];
        let from_ok = e.from == bank
            || (producer != NO_CLUSTER && e.from == ComponentId::Cluster(producer as usize));
        let to_ok = e.to != e.from
            && (e.to == bank || matches!(e.to, ComponentId::Cluster(c) if c < arch.clusters));
        assert!(
            from_ok && to_ok,
            "net transfer of {:?} at {} from {:?} to {:?}: a bank end must be {bank:?}, \
             a cluster source its producer, and the ends must differ",
            e.value,
            e.cycle,
            e.from,
            e.to
        );
    }

    // --- Residency intervals (from the streams alone) and the capacity
    // invariant: the byte-weighted overlap of all on-chip intervals must
    // never exceed the scratchpad.
    let intervals =
        residency_intervals(expanded, cs, &issue, &weight, mem_cycles + arch.hbm_latency_cycles);
    {
        let cap = arch.scratchpad_bytes();
        // Every interval holds one vector. Each eviction closed exactly
        // one interval (`residency_intervals` panics otherwise), so the
        // releases are the evict stream's cycles, already in cycle order;
        // only the allocations need sorting. Releases up to cycle t apply
        // before an allocation at t: bytes freed at t may be reused then.
        let mut starts: Vec<u64> = intervals.items.iter().map(|r| r.start).collect();
        starts.sort_unstable();
        let mut releases = cs.schedule.evict.iter().map(|e| e.cycle).peekable();
        let (bytes, mut occupied) = (vector as i64, 0i64);
        for cycle in starts {
            while releases.next_if(|&end| end <= cycle).is_some() {
                occupied -= bytes;
            }
            occupied += bytes;
            assert!(
                occupied <= cap as i64,
                "resident set ({occupied} bytes) exceeds scratchpad capacity ({cap}) at cycle {cycle}"
            );
        }
    }
    let covering = |v: ValueId, t: u64| -> Option<Residency> {
        intervals.get(v.0 as usize).iter().find(|r| r.avail <= t && t <= r.end).copied()
    };

    // --- Dependences under rate-matched streaming semantics. A value is
    // available `latency` (plus the slow-producer catch-up) after its
    // producer issues, or once a load of it completes; either way the
    // read must fall inside an on-chip residency interval — a value whose
    // last copy was evicted may not be read until its refetch completes.
    // Remote consumption additionally needs a crossbar transfer, within
    // the same interval, that lands before the consumer issues. A bank
    // holds a copy only once a load or a re-home (a cluster-to-bank
    // writeback) put one there: a transfer out of a bank must read an
    // interval that began with a load, or start after a re-home made
    // within its interval has landed. A re-home frees the value's
    // register-file slot once it lands, so a transfer out of the cluster
    // must start before then.
    let rehomes = ByValue::build(
        dfg.values().len(),
        cs.schedule
            .net
            .iter()
            .filter(|e| matches!((e.from, e.to), (ComponentId::Cluster(_), ComponentId::Bank(_))))
            .map(|e| (e.value, e.cycle)),
    );
    for e in &cs.schedule.net {
        let r = covering(e.value, e.cycle).unwrap_or_else(|| {
            panic!(
                "net transfer of {:?} at {} outside any on-chip residency interval",
                e.value, e.cycle
            )
        });
        let rehomed = rehomes.get(e.value.0 as usize);
        match e.from {
            ComponentId::Bank(_) if !r.loaded => {
                let ok = rehomed.iter().any(|&s| s >= r.start && s + net_cycles <= e.cycle);
                assert!(
                    ok,
                    "net transfer of {:?} at {} from {:?} reads no copy: the value was not \
                     loaded, and no re-home of it landed there by then",
                    e.value, e.cycle, e.from
                );
            }
            ComponentId::Cluster(_) => {
                if let Some(freed) = rehomed.iter().map(|&s| s + net_cycles).find(|&l| l <= e.cycle)
                {
                    panic!(
                        "net transfer of {:?} at {} from {:?} reads a register-file slot its \
                         re-home freed at {freed}",
                        e.value, e.cycle, e.from
                    );
                }
            }
            _ => {}
        }
    }
    // Crossbar deliveries per value: (destination, start, arrival).
    let arrivals = ByValue::build(
        dfg.values().len(),
        cs.schedule
            .net
            .iter()
            .map(|e| (e.value, (e.to, e.cycle, e.cycle + f1_compiler::cycle::XBAR_HOP_CYCLES))),
    );
    // Operand reads per value: (issue cycle, cluster, instruction), so
    // each value's intervals, deliveries and reads are checked together
    // and the per-value arrays are walked in order.
    let reads = ByValue::build(
        dfg.values().len(),
        dfg.instrs().iter().flat_map(|instr| {
            let read = (issue[instr.id.0 as usize], cluster_of[instr.output.0 as usize], instr.id);
            instr.inputs().iter().map(move |&v| (v, read))
        }),
    );
    for v in (0..dfg.values().len()).map(|v| ValueId(v as u32)) {
        let deliveries = arrivals.get(v.0 as usize);
        for &(cycle, c, id) in reads.get(v.0 as usize) {
            let r = covering(v, cycle).unwrap_or_else(|| {
                panic!(
                    "instr {id:?} at {cycle} reads {v:?} while it is evicted \
                     (no completed on-chip copy: refetch not done or value never loaded)"
                )
            });
            let local = !r.loaded && cluster_of[v.0 as usize] == c;
            if !local {
                // Remote (bank-resident or other-cluster) operands MUST
                // arrive over the crossbar within this same residency
                // interval — a missing transfer is a scheduler bug, and a
                // transfer from before the eviction carries stale bytes,
                // not a free pass.
                let here = ComponentId::Cluster(c as usize);
                let ok = deliveries.iter().any(|&(to, s, arrive)| {
                    to == here && arrive <= cycle && s >= r.start && s <= r.end
                });
                assert!(
                    ok,
                    "instr {id:?} on cluster {c} consumes remote {v:?} with no \
                     crossbar transfer inside the value's residency interval"
                );
            }
        }
    }

    // --- Memory ordering against production and spills: a store must not
    // start before its value exists, and a spilled intermediate's refetch
    // must not start before a writeback of it completes (equivalently,
    // before its earliest writeback completes).
    let mut first_writeback = vec![u64::MAX; dfg.values().len()];
    for m in cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Store) {
        let done = &mut first_writeback[m.value.0 as usize];
        *done = (*done).min(m.cycle + mem_cycles);
    }
    for m in &cs.schedule.mem {
        if m.dir == MemDir::Store {
            // A store reads the scratchpad: the value must be resident
            // (within an on-chip interval) when the transfer starts.
            assert!(
                covering(m.value, m.cycle).is_some(),
                "store of {:?} at {} reads a value with no on-chip copy",
                m.value,
                m.cycle
            );
        }
        if let Some(p) = dfg.producer(m.value) {
            let done = issue[p.0 as usize] + weight[dfg.instr(p).op.fu_type().index()];
            assert!(
                m.cycle >= done,
                "{:?} transfer of {:?} at {} before production",
                m.dir,
                m.value,
                m.cycle
            );
            if m.dir == MemDir::Load {
                // An intermediate can only be in HBM because it was spilled.
                assert!(
                    first_writeback[m.value.0 as usize] <= m.cycle,
                    "refetch of spilled {:?} at {} before any writeback completes",
                    m.value,
                    m.cycle
                );
            }
        }
    }

    // --- Makespan: the last result to drain or transfer to end.
    let drain = FuType::ALL.map(|fu| arch.occupancy(fu, n) + arch.latency(fu, n));
    let drained = cs.schedule.compute.iter().flatten().zip(&fu);
    let drained = drained.map(|(e, fu)| e.cycle + drain[fu.index()]);
    let transferred = cs.schedule.mem.iter().map(|m| m.cycle + mem_cycles);
    let makespan = drained.chain(transferred).max().unwrap_or(0);
    assert!(
        cs.makespan == makespan,
        "makespan claimed as {} but the streams end at {makespan}",
        cs.makespan
    );
    (makespan.max(1), fu)
}

/// Exclusivity of one kind of resource: `uses` yields `(resource, start
/// cycle)` in cycle order, and two uses of one resource must be `busy`
/// cycles apart. Each use then only needs comparing with its resource's
/// previous one.
fn check_exclusive<K: Hash + Eq + Copy + std::fmt::Debug>(
    what: &str,
    uses: impl Iterator<Item = (K, u64)>,
    busy: u64,
) {
    let mut last: HashMap<K, u64> = HashMap::new();
    for (key, c1) in uses {
        if let Some(c0) = last.insert(key, c1) {
            assert!(c1 >= c0 + busy, "{what} {key:?} double-booked: transfers at {c0} and {c1}");
        }
    }
}

/// Structural-resource validation from the streams and each compute
/// entry's FU class `fu`: stream monotonicity, per-(cluster, FU,
/// instance) occupancy spacing, and per-HBM-channel and per-crossbar-lane
/// exclusivity (one value holds a channel `mem_cycles` and a lane
/// `net_cycles`).
fn check_structural(
    cs: &CycleSchedule,
    arch: &ArchConfig,
    n: usize,
    fu: &[FuType],
    mem_cycles: u64,
    net_cycles: u64,
) {
    cs.schedule.validate_monotone();

    // --- Structural hazards: per (cluster, fu, slot), issues must be at
    // least `occupancy` apart (fully pipelined units, one vector each).
    // Each compute stream is sorted by cycle (just validated), so a
    // slot's issues arrive in cycle order and each only needs comparing
    // with the slot's previous one.
    let occ = FuType::ALL.map(|fu| arch.occupancy(fu, n));
    let slots = FuType::ALL.map(|fu| vec![None::<u64>; arch.fus_per_cluster(fu)]);
    let mut last_issue = vec![slots; cs.schedule.compute.len()];
    let streams = cs.schedule.compute.iter().enumerate();
    for ((c, e), &fu) in streams.flat_map(|(c, s)| s.iter().map(move |e| (c, e))).zip(fu) {
        assert!(
            e.fu_index < arch.fus_per_cluster(fu),
            "cluster {c} has no {fu:?} instance {}",
            e.fu_index
        );
        if let Some(prev) = last_issue[c][fu.index()][e.fu_index].replace(e.cycle) {
            assert!(
                e.cycle >= prev + occ[fu.index()],
                "structural hazard on cluster {c} {fu:?}[{}]: issues at {prev} and {}",
                e.fu_index,
                e.cycle
            );
        }
    }

    // --- HBM channels: each channel is exclusive; transfers on it must
    // be spaced by their per-channel streaming time. The memory and net
    // streams are sorted by cycle too, so uses arrive in cycle order.
    let channel_uses = cs.schedule.mem.iter().map(|m| {
        assert!(m.channel < arch.hbm_channels, "unknown HBM channel {}", m.channel);
        (m.channel, m.cycle)
    });
    check_exclusive("HBM channel", channel_uses, mem_cycles);

    // --- Crossbar ports: per ((from, to), lane), transfers must be
    // spaced by their streaming time.
    let lane_uses = cs.schedule.net.iter().map(|e| {
        assert!(e.port < arch.xbar_ports, "unknown crossbar lane {}", e.port);
        ((e.from, e.to, e.port), e.cycle)
    });
    check_exclusive("crossbar lane", lane_uses, net_cycles);
}

/// The event counts behind the power breakdown, derived from the streams
/// and the DFG: HBM bytes are the memory stream's, the scratchpad serves
/// those plus every crossbar write into a bank, the NoC carries every
/// crossbar transfer, each instruction reads its inputs from and writes
/// its output to a register file, and holds its FU for one occupancy.
/// Every transfer and operand is one [`f1_isa::dfg::Dfg::vector_bytes`]
/// vector.
fn energy_counters(expanded: &Expanded, cs: &CycleSchedule, arch: &ArchConfig) -> EnergyCounters {
    let dfg = &expanded.dfg;
    let vector = dfg.vector_bytes();
    let net = &cs.schedule.net;
    let into_banks = net.iter().filter(|e| matches!(e.to, ComponentId::Bank(_))).count();
    let hbm_bytes = cs.schedule.mem.len() as u64 * vector;
    let mut c = EnergyCounters {
        hbm_bytes,
        scratchpad_bytes: hbm_bytes + into_banks as u64 * vector,
        noc_bytes: net.len() as u64 * vector,
        ..Default::default()
    };
    for instr in dfg.instrs() {
        c.rf_bytes += (instr.inputs().len() as u64 + 1) * vector;
        let fu = instr.op.fu_type();
        c.add_fu_busy(fu, arch.occupancy(fu, dfg.n));
    }
    c
}

/// Validates a schedule ([`check_streams`]) and derives its statistics,
/// power included, from its streams.
///
/// # Panics
///
/// Panics (like the paper's checker) on any missed dependence, resource
/// double-booking, capacity overflow, or accounting mismatch, such as
/// memory streams that move other than the plan's traffic total.
pub fn check_schedule(
    expanded: &Expanded,
    plan: &MovePlan,
    cs: &CycleSchedule,
    arch: &ArchConfig,
) -> SimReport {
    let (makespan, fu) = verify(expanded, cs, arch);
    let counters = energy_counters(expanded, cs, arch);
    assert_eq!(
        counters.hbm_bytes,
        plan.traffic.total(),
        "memory streams move {} bytes but the plan's traffic totals {}",
        counters.hbm_bytes,
        plan.traffic.total()
    );
    let n = expanded.dfg.n;

    // --- Statistics.
    let window = (makespan / 160).max(1);
    let buckets = makespan.div_ceil(window) as usize;
    let mut timeline = Timeline {
        window,
        fu_active: [vec![0.0; buckets], vec![0.0; buckets], vec![0.0; buckets], vec![0.0; buckets]],
        hbm_util: vec![0.0; buckets],
    };
    let add_interval = |series: &mut Vec<f64>, start: u64, end: u64| {
        let mut c = start;
        while c < end {
            let b = (c / window) as usize;
            let bucket_end = (c / window + 1) * window;
            let step = bucket_end.min(end) - c;
            if b < series.len() {
                series[b] += step as f64;
            }
            c += step;
        }
    };
    let occ = FuType::ALL.map(|fu| arch.occupancy(fu, n));
    for (e, fu) in cs.schedule.compute.iter().flatten().zip(fu) {
        add_interval(&mut timeline.fu_active[fu.index()], e.cycle, e.cycle + occ[fu.index()]);
    }
    let mc = arch.mem_channel_cycles(expanded.dfg.vector_bytes());
    for m in &cs.schedule.mem {
        add_interval(&mut timeline.hbm_util, m.cycle, m.cycle + mc);
    }
    for series in timeline.fu_active.iter_mut() {
        for v in series.iter_mut() {
            *v /= window as f64; // busy-cycles -> average active units
        }
    }
    // Channel busy-cycles over window × channels = bandwidth utilization.
    for v in timeline.hbm_util.iter_mut() {
        *v = *v / (window * arch.hbm_channels.max(1) as u64) as f64 * 100.0;
    }

    let total_fus: usize = (0..arch.clusters)
        .map(|_| FuType::ALL.iter().map(|&f| arch.fus_per_cluster(f)).sum::<usize>())
        .sum();
    let total_busy: u64 = counters.fu_busy_cycles.iter().sum();
    let avg_fu_utilization = total_busy as f64 / (total_fus as u64 * makespan) as f64;

    let model = EnergyModel::default();
    let power = model.power_breakdown(&counters, makespan, arch);
    let instr_fetch_fraction =
        cs.schedule.encoded_bytes() as f64 / counters.hbm_bytes.max(1) as f64;

    SimReport {
        makespan,
        seconds: cs.seconds(arch),
        traffic: plan.traffic,
        power,
        timeline,
        avg_fu_utilization,
        instr_fetch_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_compiler::{compile_fhe, FheProgram};
    use f1_isa::streams::ComputeEntry;

    fn run(p: &FheProgram) -> (Expanded, MovePlan, CycleSchedule, ArchConfig) {
        let arch = ArchConfig::f1_default();
        let (_, _, ex, plan, cs) = compile_fhe(p, &arch);
        (ex, plan, cs, arch)
    }

    #[test]
    fn matvec_schedule_validates_and_reports() {
        let p = FheProgram::listing2_matvec(1 << 14, 8, 4);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.makespan > 0);
        assert!(report.seconds > 0.0);
        assert!(report.traffic.total() > 0);
        assert!(report.power.total_w() > 0.0);
        // At the paper's N = 16K the residue vectors are 64 KB, and this
        // program's instruction fetches were 1.5% of its traffic when
        // written. Smaller vectors raise the ratio: at N = 4096 it read
        // 5.2%.
        assert!(
            report.instr_fetch_fraction < 0.02,
            "instruction fetches {} must be a tiny fraction of traffic",
            report.instr_fetch_fraction
        );
        assert!((0.0..=1.0).contains(&report.avg_fu_utilization));
    }

    #[test]
    fn timeline_conserves_busy_cycles() {
        let p = FheProgram::listing2_matvec(1 << 12, 4, 2);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        let t = &report.timeline;
        // Sum of (avg active × window) over buckets equals total busy
        // cycles per class.
        let ntt_busy: f64 = t.fu_active[0].iter().map(|v| v * t.window as f64).sum();
        let is_ntt = |e: &&ComputeEntry| ex.dfg.instr(e.instr).op.fu_type() == FuType::Ntt;
        let ntt_entries = cs.schedule.compute.iter().flatten().filter(is_ntt);
        let expected = (ntt_entries.count() as u64 * arch.occupancy(FuType::Ntt, ex.dfg.n)) as f64;
        assert!(
            (ntt_busy - expected).abs() / expected.max(1.0) < 0.01,
            "timeline NTT busy {ntt_busy} vs streams {expected}"
        );
    }

    #[test]
    fn power_is_dominated_by_data_movement() {
        // §8.2: computation is 20-30% of power for realistic programs.
        let p = FheProgram::listing2_matvec(1 << 13, 8, 4);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(
            report.power.data_movement_fraction() > 0.4,
            "data movement fraction {}",
            report.power.data_movement_fraction()
        );
    }

    /// A hand-built four-instruction schedule exercising the full
    /// capacity machinery: load → read → evict → refetch → read → store.
    /// `pad_values` sizes the scratchpad in 4 KB value slots; `i1_issue`
    /// places the post-refetch consumer.
    fn handmade(pad_values: u64, i1_issue: u64) -> (Expanded, MovePlan, CycleSchedule, ArchConfig) {
        use f1_isa::dfg::{Dfg, Limb, ValueKind, VectorOp};
        use f1_isa::streams::{EvictEntry, MemEntry, NetEntry, StaticSchedule};
        use f1_isa::ComponentId;

        let n = 1024usize; // 4 KB values
        let mut dfg = Dfg::new(n);
        let a = dfg.add_value(ValueKind::Input, Limb::Q(0), Some("a".into()));
        let v1 = dfg.add_instr(VectorOp::Ntt, &[a], Limb::Q(0), 0); // i0: reads a pre-evict
        let v2 = dfg.add_instr(VectorOp::Ntt, &[a], Limb::Q(0), 1); // i1: reads a post-refetch
        let v3 = dfg.add_instr(VectorOp::Add, &[v1, v2], Limb::Q(0), 2); // i2
        dfg.mark_output(v3);

        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = pad_values * 4096;

        let dur = arch.mem_channel_cycles(4096); // 64
        let lat = arch.hbm_latency_cycles; // 250
        let avail1 = dur + lat; // first load of `a` completes: 314
        let refetch_start = 448;
        let avail2 = refetch_start + dur + lat; // 762

        let mut s = StaticSchedule::new(arch.clusters);
        s.mem.push(MemEntry { cycle: 0, dir: MemDir::Load, value: a, channel: 0 });
        s.mem.push(MemEntry { cycle: refetch_start, dir: MemDir::Load, value: a, channel: 0 });
        s.mem.push(MemEntry { cycle: 950, dir: MemDir::Store, value: v3, channel: 1 });
        s.evict.push(EvictEntry { cycle: 400, value: a });
        for cycle in [avail1, avail2] {
            let (from, to) = (ComponentId::Bank(0), ComponentId::Cluster(0));
            s.net.push(NetEntry { cycle, value: a, from, to, port: 0 });
        }
        let issue = [320u64, i1_issue, 900];
        for (i, &cycle) in issue.iter().enumerate() {
            let instr = f1_isa::dfg::InstrId(i as u32);
            s.compute[0].push(ComputeEntry { cycle, instr, fu_index: 0 });
        }
        s.compute[0].sort_by_key(|e| e.cycle);
        let drained = |e: &ComputeEntry| {
            let fu = dfg.instr(e.instr).op.fu_type();
            e.cycle + arch.occupancy(fu, n) + arch.latency(fu, n)
        };
        let makespan = s.compute[0].iter().map(drained).max().unwrap().max(950 + dur);

        let cs = CycleSchedule { makespan, schedule: s };
        // `a`'s first load and `v3`'s store are compulsory; the refetch
        // is not.
        let traffic = TrafficBreakdown {
            input_compulsory: 2 * 4096,
            input_non_compulsory: 4096,
            ..Default::default()
        };
        let mut plan = MovePlan::default();
        plan.traffic = traffic;
        let ex =
            Expanded { dfg, hint_values: std::collections::BTreeMap::new(), hom_order: vec![] };
        (ex, plan, cs, arch)
    }

    #[test]
    fn handmade_capacity_schedule_validates() {
        // Baseline sanity: the hand-built evict/refetch schedule is legal
        // at a 4-value pad with the consumer after refetch completion.
        let (ex, plan, cs, arch) = handmade(4, 775);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.makespan > 0);
    }

    #[test]
    #[should_panic(expected = "while it is evicted")]
    fn checker_rejects_read_before_refetch_completes() {
        // i1 issues at 700: after `a`'s eviction (400) but before its
        // refetch completes (762). The value has no on-chip copy there.
        let (ex, plan, cs, arch) = handmade(4, 700);
        check_schedule(&ex, &plan, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "exceeds scratchpad capacity")]
    fn checker_rejects_resident_set_over_capacity() {
        // Same legal-timing schedule, but a 3-value pad: at cycle 900 the
        // resident set is {a, v1, v2, v3} = 4 values.
        let (ex, plan, cs, arch) = handmade(3, 775);
        check_schedule(&ex, &plan, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "before the previous copy is evicted")]
    fn checker_rejects_overlapping_residency() {
        // Drop the evict entry: two loads of `a` with no release between
        // them is a malformed residency stream.
        let (ex, plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.evict.clear();
        check_schedule(&ex, &plan, &cs, &arch);
    }

    /// Runs the full checker over a copy of the legal [`handmade`]
    /// schedule after `corrupt` has broken it.
    fn check_corrupted(corrupt: impl FnOnce(&mut CycleSchedule, &ArchConfig)) {
        let (ex, plan, mut cs, arch) = handmade(4, 775);
        corrupt(&mut cs, &arch);
        check_schedule(&ex, &plan, &cs, &arch);
    }

    /// Appends a 4 KB transfer to the memory stream, keeping it sorted.
    /// The transfer ends before the makespan, and the plan's traffic total
    /// is checked only after the streams, so only the check under test
    /// can object to it.
    fn push_mem(cs: &mut CycleSchedule, m: f1_isa::streams::MemEntry) {
        cs.schedule.mem.push(m);
        cs.schedule.mem.sort_by_key(|m| m.cycle);
    }

    fn mem(cycle: u64, dir: MemDir, value: u32, channel: usize) -> f1_isa::streams::MemEntry {
        f1_isa::streams::MemEntry { cycle, dir, value: f1_isa::dfg::ValueId(value), channel }
    }

    fn evict(cycle: u64, value: u32) -> f1_isa::streams::EvictEntry {
        f1_isa::streams::EvictEntry { cycle, value: f1_isa::dfg::ValueId(value) }
    }

    #[test]
    #[should_panic(expected = "HBM channel 0 double-booked: transfers at 0 and 10")]
    fn checker_rejects_double_booked_hbm_channel() {
        // The refetch of `a` starts while the first load still streams
        // on the same channel.
        check_corrupted(|cs, _| cs.schedule.mem[1].cycle = 10);
    }

    #[test]
    #[should_panic(expected = "crossbar lane (Bank(0), Cluster(0), 0) double-booked")]
    fn checker_rejects_double_booked_crossbar_lane() {
        check_corrupted(|cs, _| cs.schedule.net[1].cycle = cs.schedule.net[0].cycle + 1);
    }

    #[test]
    #[should_panic(expected = "unknown HBM channel")]
    fn checker_rejects_unknown_hbm_channel() {
        check_corrupted(|cs, arch| cs.schedule.mem[2].channel = arch.hbm_channels);
    }

    #[test]
    #[should_panic(expected = "unknown crossbar lane")]
    fn checker_rejects_unknown_crossbar_lane() {
        check_corrupted(|cs, arch| cs.schedule.net[0].port = arch.xbar_ports);
    }

    #[test]
    #[should_panic(expected = "cluster 0 has no Ntt instance")]
    fn checker_rejects_missing_fu_instance() {
        check_corrupted(|cs, arch| {
            cs.schedule.compute[0][0].fu_index = arch.fus_per_cluster(FuType::Ntt);
        });
    }

    #[test]
    #[should_panic(expected = "value 0: eviction at 0 with no on-chip copy")]
    fn checker_rejects_eviction_without_copy() {
        // Released in the same cycle its first load claims the bytes:
        // releases order first, so there is nothing to release yet.
        check_corrupted(|cs, _| cs.schedule.evict[0].cycle = 0);
    }

    #[test]
    #[should_panic(expected = "net transfer of ValueId(0) at 420 outside any on-chip residency")]
    fn checker_rejects_net_transfer_while_evicted() {
        // `a` is evicted at 400 and its refetch lands at 762.
        check_corrupted(|cs, _| cs.schedule.net[1].cycle = 420);
    }

    #[test]
    #[should_panic(expected = "on cluster 0 consumes remote ValueId(0) with no crossbar transfer")]
    fn checker_rejects_missing_crossbar_transfer() {
        // Drop the post-refetch delivery of `a`: i1 then only has the
        // transfer of the evicted copy, which carries stale bytes.
        check_corrupted(|cs, _| {
            cs.schedule.net.pop();
        });
    }

    #[test]
    #[should_panic(expected = "store of ValueId(3) at 950 reads a value with no on-chip copy")]
    fn checker_rejects_store_of_evicted_value() {
        // v3 is released at 940, before its output store starts.
        check_corrupted(|cs, _| cs.schedule.evict.push(evict(940, 3)));
    }

    #[test]
    #[should_panic(expected = "Load transfer of ValueId(1) at 10 before production")]
    fn checker_rejects_load_before_production() {
        // v1 is loaded (and released again) before i0 produces it.
        check_corrupted(|cs, _| {
            push_mem(cs, mem(10, MemDir::Load, 1, 1));
            cs.schedule.evict.insert(0, evict(100, 1));
        });
    }

    #[test]
    #[should_panic(
        expected = "refetch of spilled ValueId(1) at 960 before any writeback completes"
    )]
    fn checker_rejects_refetch_without_writeback() {
        // v1 is released after its last read and loaded back with no
        // store ever writing it to HBM.
        check_corrupted(|cs, _| {
            cs.schedule.evict.push(evict(910, 1));
            push_mem(cs, mem(960, MemDir::Load, 1, 2));
        });
    }

    #[test]
    #[should_panic(expected = "value 1: eviction at 920 with no on-chip copy")]
    fn checker_reports_lowest_broken_value_first() {
        // Two values break residency independently: v3 is released at
        // 800, before i2 produces it, and v1 is released twice. v3's
        // violation is earlier in time, but values are walked in id
        // order, so the report names v1 on every run.
        check_corrupted(|cs, _| {
            cs.schedule.evict.extend([evict(800, 3), evict(910, 1), evict(920, 1)]);
        });
    }

    #[test]
    #[should_panic(expected = "net stream names unknown value ValueId(4) (4 values)")]
    fn checker_rejects_unknown_value_id() {
        check_corrupted(|cs, _| cs.schedule.net[0].value = f1_isa::dfg::ValueId(4));
    }

    #[test]
    #[should_panic(expected = "cluster 0 stream names unknown instr InstrId(3) (3 instrs)")]
    fn checker_rejects_unknown_instr_id() {
        check_corrupted(|cs, _| cs.schedule.compute[0][2].instr = f1_isa::dfg::InstrId(3));
    }

    #[test]
    #[should_panic(expected = "InstrId(1) is on no compute stream")]
    fn checker_rejects_missing_instr() {
        check_corrupted(|cs, _| {
            cs.schedule.compute[0].remove(1);
        });
    }

    #[test]
    #[should_panic(expected = "InstrId(0) issues twice (cluster 1)")]
    fn checker_rejects_instr_issued_twice() {
        check_corrupted(|cs, _| {
            let copy = cs.schedule.compute[0][0].clone();
            cs.schedule.compute[1].push(copy);
        });
    }

    #[test]
    #[should_panic(expected = "makespan claimed as 1013 but the streams end at 1014")]
    fn checker_rejects_understated_makespan() {
        check_corrupted(|cs, _| cs.makespan -= 1);
    }

    #[test]
    #[should_panic(expected = "memory streams move 12288 bytes but the plan's traffic totals 8192")]
    fn checker_rejects_traffic_total_mismatch() {
        let (ex, mut plan, cs, arch) = handmade(4, 775);
        plan.traffic.input_non_compulsory = 0;
        check_schedule(&ex, &plan, &cs, &arch);
    }

    /// Whether [`check_schedule`] rejects `cs`.
    fn rejects(ex: &Expanded, plan: &MovePlan, cs: &CycleSchedule, arch: &ArchConfig) -> bool {
        let check = || check_schedule(ex, plan, cs, arch);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_err()
    }

    /// Applies mutation operators to copies of a legal schedule and
    /// counts, per operator, the mutants tried and the mutants
    /// [`check_schedule`] accepted.
    struct Mutants<'a, const K: usize> {
        ex: &'a Expanded,
        plan: &'a MovePlan,
        cs: &'a CycleSchedule,
        arch: &'a ArchConfig,
        tried: [usize; K],
        survived: [usize; K],
    }

    impl<'a, const K: usize> Mutants<'a, K> {
        fn new(
            ex: &'a Expanded,
            plan: &'a MovePlan,
            cs: &'a CycleSchedule,
            arch: &'a ArchConfig,
        ) -> Self {
            check_schedule(ex, plan, cs, arch);
            Self { ex, plan, cs, arch, tried: [0; K], survived: [0; K] }
        }

        fn try_op(&mut self, op: usize, mutate: impl FnOnce(&mut CycleSchedule)) {
            let mut m = self.cs.clone();
            mutate(&mut m);
            self.tried[op] += 1;
            self.survived[op] += usize::from(!rejects(self.ex, self.plan, &m, self.arch));
        }
    }

    #[test]
    fn checker_rejects_every_compute_stream_mutant() {
        // Three mutation operators over a compiled schedule: drop one
        // compute entry, append a copy of one on the next cluster (kept
        // in cycle order), and claim one cycle less of makespan. The
        // streams are the only record of when each instruction ran, so
        // every mutant must be rejected.
        let p = FheProgram::listing2_matvec(1 << 10, 3, 2);
        let (ex, plan, cs, arch) = run(&p);
        let mut m = Mutants::<3>::new(&ex, &plan, &cs, &arch);
        for (c, stream) in cs.schedule.compute.iter().enumerate() {
            for (k, e) in stream.iter().enumerate() {
                m.try_op(0, |m| {
                    m.schedule.compute[c].remove(k);
                });
                m.try_op(1, |m| {
                    let other = &mut m.schedule.compute[(c + 1) % arch.clusters];
                    other.push(e.clone());
                    other.sort_by_key(|e| e.cycle);
                });
            }
        }
        m.try_op(2, |m| m.makespan -= 1);
        assert_eq!(m.tried[0], ex.dfg.instrs().len());
        assert_eq!(
            m.survived, [0; 3],
            "mutants accepted of {:?} (drop, duplicate, makespan - 1)",
            m.tried
        );
    }

    #[test]
    fn checker_rejects_every_crossbar_endpoint_mutant() {
        // Six mutation operators over the crossbar stream of a compiled
        // schedule whose small register files force re-homes: move a
        // transfer's source to the next bank or cluster, move a re-home's
        // destination to the next bank, source a transfer from a bank past
        // the last, send a transfer back to its own source, re-source a
        // cluster-to-cluster transfer from the value's bank, and move a
        // value's re-home earlier so it lands as a cluster-to-cluster
        // transfer of the value starts. A bank end must be the value's own
        // bank, a cluster source its producer, the ends must differ, a
        // bank source must hold a loaded or re-homed copy, and a cluster
        // source must still hold the value in its register file, so every
        // mutant must be rejected.
        // Register files of eight values: with four, no transfer of a
        // re-homed value starts late enough for an early re-home to start
        // after its value exists, so only other checks would be tested.
        let p = FheProgram::listing2_matvec(1 << 10, 3, 2);
        let mut arch = ArchConfig::f1_default();
        arch.rf_bytes_per_cluster = 8 * 4096;
        let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
        let next = |end: ComponentId| match end {
            ComponentId::Bank(b) => ComponentId::Bank((b + 1) % arch.scratchpad_banks),
            ComponentId::Cluster(c) => ComponentId::Cluster((c + 1) % arch.clusters),
        };
        let net_cycles = arch.net_cycles(ex.dfg.vector_bytes());
        let rehomes: Vec<_> = (cs.schedule.net.iter().enumerate())
            .filter(|(_, e)| {
                matches!((e.from, e.to), (ComponentId::Cluster(_), ComponentId::Bank(_)))
            })
            .collect();
        let mut m = Mutants::<6>::new(&ex, &plan, &cs, &arch);
        for (k, e) in cs.schedule.net.iter().enumerate() {
            m.try_op(0, |m| m.schedule.net[k].from = next(e.from));
            if matches!(e.to, ComponentId::Bank(_)) {
                m.try_op(1, |m| m.schedule.net[k].to = next(e.to));
            }
            m.try_op(2, |m| m.schedule.net[k].from = ComponentId::Bank(arch.scratchpad_banks + 7));
            m.try_op(3, |m| m.schedule.net[k].to = e.from);
            if matches!((e.from, e.to), (ComponentId::Cluster(_), ComponentId::Cluster(_))) {
                m.try_op(4, |m| m.schedule.net[k].from = ComponentId::Bank(arch.bank_of(e.value)));
                let Some(early) = e.cycle.checked_sub(net_cycles) else { continue };
                for &(j, _) in rehomes.iter().filter(|(_, r)| r.value == e.value) {
                    m.try_op(5, |m| {
                        m.schedule.net[j].cycle = early;
                        m.schedule.net.sort_by_key(|e| e.cycle);
                    });
                }
            }
        }
        assert!(m.tried[1] > 0, "the schedule must re-home values to their banks");
        assert!(m.tried[4] > 0, "the schedule must copy values between clusters");
        assert!(m.tried[5] > 0, "the schedule must copy a value it later re-homes");
        assert_eq!(
            m.survived, [0; 6],
            "mutants accepted of {:?} (next source, next re-home bank, bank out of range, \
             back to source, cluster source moved to the bank, re-home before a read)",
            m.tried
        );
    }

    #[test]
    fn compiled_tiny_pad_schedule_validates() {
        // The real pipeline at a thrashing 2 MB scratchpad must satisfy
        // the strengthened checker end to end.
        let p = FheProgram::listing2_matvec(1 << 12, 8, 4);
        let arch = ArchConfig::f1_default().with_scratchpad_mb(2);
        let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
        assert!(plan.traffic.non_compulsory() > 0, "2 MB pad must thrash");
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.traffic.total() > report.traffic.compulsory());
    }

    #[test]
    #[should_panic(expected = "structural hazard")]
    fn checker_catches_fu_hazards() {
        let p = FheProgram::listing2_matvec(1 << 12, 4, 2);
        let (ex, plan, mut cs, arch) = run(&p);
        // Corrupt: delay the first of two same-slot NTT issues onto the
        // second's cycle (delaying keeps dependences satisfied, so the
        // checker must trip on the structural hazard specifically).
        let mut found = None;
        let is_ntt = |e: &ComputeEntry| ex.dfg.instr(e.instr).op.fu_type() == FuType::Ntt;
        'outer: for stream in cs.schedule.compute.iter_mut() {
            let mut first: Option<usize> = None;
            for idx in 0..stream.len() {
                if is_ntt(&stream[idx]) {
                    if let Some(fidx) = first {
                        if stream[fidx].fu_index == stream[idx].fu_index {
                            stream[fidx].cycle = stream[idx].cycle;
                            found = Some(());
                            break 'outer;
                        }
                    } else {
                        first = Some(idx);
                    }
                }
            }
        }
        assert!(found.is_some(), "test needs two NTT entries on one slot");
        // Re-sort so monotonicity holds but the hazard remains.
        for stream in cs.schedule.compute.iter_mut() {
            stream.sort_by_key(|e| e.cycle);
        }
        check_schedule(&ex, &plan, &cs, &arch);
    }
}
