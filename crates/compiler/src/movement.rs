//! Pass 2 — the off-chip data movement scheduler (§4.3).
//!
//! Consumes the instruction DFG and produces an approximate schedule with
//! decoupled data transfers. Uses the paper's simplified machine model
//! (functional units directly attached to the scratchpad) and its greedy
//! algorithm: instructions issue in priority order among *ready* ones
//! (operands resident); loads get priority from their earliest user and
//! issue as bandwidth allows; evictions pick dead values first, then the
//! value with the furthest expected reuse — an approximation of Belady's
//! optimal policy \[8\]. Dirty evictions add spill stores (and later fills)
//! to the plan. Eviction candidates come off a max-heap keyed by
//! `(next use, Reverse(value id))`, kept current as users issue, so an
//! eviction costs a heap pop rather than a sort of the resident set.
//!
//! The pass's product is a **residency event script** ([`MoveEvent`]):
//! every load, instruction issue, spill store, refetch, silent drop and
//! output store, in simulation order, with each allocation carrying the
//! *byte lineage* of the scratchpad space it occupies (`space_from`: the
//! release events whose freed bytes it reuses). Pass 3 schedules this
//! script against real resource timelines, the scratchpad's resident
//! bytes among them. It commits every allocation after its donors, so
//! room for the allocation always exists, and starts it wherever its
//! bytes fit, which can be before those donors release. A plan with only
//! compulsory traffic is first scheduled without the donors, and that
//! schedule is kept if it fits the pad (see [`crate::cycle`]). The
//! `f1-sim` checker verifies capacity independently.
//!
//! An instruction's result also keeps a **reserve** of free space ahead
//! of it. Free chunks leave the pool in release order. On a full pad, an
//! exact-fit eviction leaves the pool holding only what the previous
//! instruction just released, so every allocation would reuse its
//! predecessor's bytes. Before allocating, `Scheduler::issue` therefore
//! tries to free the result's bytes plus `reserve_bytes` (best effort),
//! then makes the exact call it needs, and the allocation takes the
//! older releases at the front of the pool. The reserve is derived from
//! the machine, not tuned: one result-sized vector in flight per HBM
//! channel, capped at one bank so tiny pads do not thrash. Since pass 3
//! places allocations by free space, the reserve is a trade-off: without
//! it, the paper suite's off-chip traffic is 1.4% lower and its simulated
//! gmean 4% higher.
//!
//! Prefetching and eviction must not fight. Once the pad is full, filling
//! free space with the most urgent pending load can fetch a value whose
//! first use is far off; the next instruction's allocation then evicts it
//! again, unread, because it is now the resident reused furthest in the
//! future. Prefetch therefore follows the **do-no-harm** rule of
//! integrated prefetching and caching (Cao, Felten, Karlin & Li, 1995):
//! never prefetch a value that would itself be the next live victim, i.e.
//! one reused no sooner than every live, evictable resident. The rule is
//! gated on **pressure**: it applies only after capacity has forced a live
//! eviction, so programs whose live data always fits keep prefetching
//! freely. A skipped request stays pending, and `force_one_load` serves it
//! when nothing is ready to issue.

use f1_arch::ArchConfig;
use f1_isa::dfg::{Dfg, InstrId, ValueId, ValueKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use crate::expand::Expanded;

/// Index of an event in [`MovePlan::events`].
pub type EventId = u32;

/// Off-chip traffic split by data class and necessity — the Fig 9a
/// categories.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// First-time loads of key-switch hints.
    pub ksh_compulsory: u64,
    /// Hint reloads forced by capacity.
    pub ksh_non_compulsory: u64,
    /// First-time loads of inputs plus final output stores.
    pub input_compulsory: u64,
    /// Input reloads forced by capacity.
    pub input_non_compulsory: u64,
    /// Loads of spilled intermediates.
    pub interm_load: u64,
    /// Stores of spilled intermediates.
    pub interm_store: u64,
}

impl TrafficBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.ksh_compulsory
            + self.ksh_non_compulsory
            + self.input_compulsory
            + self.input_non_compulsory
            + self.interm_load
            + self.interm_store
    }

    /// Compulsory bytes (the lower bound a perfect scheduler approaches).
    pub fn compulsory(&self) -> u64 {
        self.ksh_compulsory + self.input_compulsory
    }

    /// Capacity-induced (non-compulsory) bytes.
    pub fn non_compulsory(&self) -> u64 {
        self.total() - self.compulsory()
    }
}

/// One step of the residency script pass 2 hands to pass 3. Every
/// transfer or release moves all of its value's bytes
/// (`dfg.vector_bytes()`).
///
/// Events appear in pass-2 simulation order, which is a legal order for
/// every constraint they encode: an allocation's `space_from` donors
/// always precede it, a refetch always follows the eviction it undoes,
/// and every release follows the reads it must wait out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveEvent {
    /// Fetch `value` from HBM into the scratchpad (first load *or*
    /// capacity refetch — pass 3 schedules both on the HBM channel
    /// timelines and gates consumers on their completion).
    Load {
        /// The value fetched.
        value: ValueId,
        /// `true` when this re-fetches a previously evicted value.
        refetch: bool,
        /// Liveness-derived deadline: the issue rank of the earliest
        /// unissued consumer (lower = needed sooner). Pass 3 drains
        /// ready loads in this order.
        deadline: u64,
        /// Release events whose freed bytes this allocation reuses.
        space_from: Vec<EventId>,
    },
    /// Issue an instruction; its output value is allocated here.
    Issue {
        /// The instruction issued.
        instr: InstrId,
        /// Release events whose freed bytes the output reuses.
        space_from: Vec<EventId>,
    },
    /// Evict a dirty, still-needed `value`: write it back to HBM. The
    /// bytes are free once the store completes; a later [`MoveEvent::Load`]
    /// with `refetch = true` brings it back.
    SpillStore {
        /// The value spilled.
        value: ValueId,
    },
    /// Release a clean or dead copy of `value` (no writeback: the HBM
    /// copy is still valid, or nothing reads the value again).
    Drop {
        /// The value dropped.
        value: ValueId,
    },
    /// Store a program output to HBM. With `frees` set this doubles as
    /// the value's eviction (a dead output squeezed out by capacity —
    /// its store is compulsory anyway, so eviction costs nothing extra).
    OutputStore {
        /// The output value stored.
        value: ValueId,
        /// Whether the scratchpad bytes are freed at store completion.
        frees: bool,
    },
}

impl MoveEvent {
    /// The value this event moves or releases (`None` for `Issue`).
    pub fn value(&self) -> Option<ValueId> {
        match self {
            MoveEvent::Load { value, .. }
            | MoveEvent::SpillStore { value, .. }
            | MoveEvent::Drop { value, .. }
            | MoveEvent::OutputStore { value, .. } => Some(*value),
            MoveEvent::Issue { .. } => None,
        }
    }

    /// Whether this event releases scratchpad bytes.
    pub fn frees_space(&self) -> bool {
        matches!(
            self,
            MoveEvent::SpillStore { .. }
                | MoveEvent::Drop { .. }
                | MoveEvent::OutputStore { frees: true, .. }
        )
    }
}

/// The pass-2 result: the residency event script (its `Issue` events are
/// the instruction issue order) and traffic accounting.
#[derive(Debug, Clone)]
pub struct MovePlan {
    /// The residency script, in simulation order (see [`MoveEvent`]).
    pub events: Vec<MoveEvent>,
    /// Traffic accounting.
    pub traffic: TrafficBreakdown,
}

impl MovePlan {
    /// Values loaded at least once (convenience for tests/diagnostics).
    pub fn loaded_values(&self) -> HashSet<ValueId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                MoveEvent::Load { value, .. } => Some(*value),
                _ => None,
            })
            .collect()
    }
}

/// Runs the data-movement scheduler with the DFG's priority order.
pub fn schedule(expanded: &Expanded, arch: &ArchConfig) -> MovePlan {
    schedule_with_order(expanded, arch, None)
}

/// Runs the scheduler with an explicit instruction order (used by the CSR
/// baseline of §8.3); `None` uses DFG priorities.
pub fn schedule_with_order(
    expanded: &Expanded,
    arch: &ArchConfig,
    order_override: Option<&[InstrId]>,
) -> MovePlan {
    Scheduler::new(expanded, arch, order_override).run()
}

/// Scratchpad bytes [`Scheduler::issue`] tries to keep free beyond an
/// instruction's `result_bytes`: one result-sized vector in flight per
/// HBM channel, capped at one bank so tiny pads do not thrash. At the
/// paper's 64 MB and N = 2^14 this is 16 × 64 KB = 1 MB.
fn reserve_bytes(arch: &ArchConfig, result_bytes: u64) -> u64 {
    (arch.hbm_channels as u64 * result_bytes).min(arch.bank_bytes)
}

struct Scheduler<'a> {
    dfg: &'a Dfg,
    arch: &'a ArchConfig,
    free_bytes: u64,
    /// Free scratchpad chunks in FIFO order, each tagged with the release
    /// event that freed it (`None` = the initial empty pad). Consuming a
    /// chunk makes its release event a `space_from` donor.
    free_pool: VecDeque<(u64, Option<EventId>)>,
    // All per-value state is dense (indexed by ValueId): the scheduler
    // touches it several times per instruction, and hashing dominated the
    // pass at full-size benchmark scale.
    /// Loadable values (inputs, hints) not loaded yet: their first load
    /// is compulsory traffic.
    never_loaded: Vec<bool>,
    /// Whether HBM holds a valid copy: loadable values from the start,
    /// intermediates once spilled or stored as outputs. Values never
    /// change, so the copy stays valid.
    in_hbm: Vec<bool>,
    dirty: Vec<bool>,
    resident: Vec<bool>,
    /// Eviction candidates: a max-heap of `(next use rank, Reverse(value
    /// id))`, so the top is the value reused furthest in the future (dead
    /// values, rank `u64::MAX`, first) with ties to the lowest id — the
    /// deterministic Belady order. Entries are never updated in place: a
    /// value gets a fresh entry when it becomes resident and whenever its
    /// next use moves (one of its users issues). An entry is valid only
    /// while its value is resident and its key equals `heap_key`; stale
    /// entries are dropped when they reach the top.
    evict_heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Per value: the key of its current `evict_heap` entry.
    heap_key: Vec<u64>,
    output_set: Vec<bool>,
    stored_outputs: Vec<bool>,
    /// Per-value user lists sorted by `(rank, instruction id)`. With the
    /// cursor below, [`Self::next_use_rank`] is amortized O(1): the first
    /// unissued entry at/after the cursor *is* the minimum-rank unissued
    /// user. (The DFG's creation-order lists made it a scan of every
    /// remaining user — O(users²) per value over a run, which dominated
    /// the pass on high-fanout key-switch hints at full scale.)
    sorted_users: Vec<Vec<u32>>,
    /// Per-value cursor into its `sorted_users` list.
    user_cursor: Vec<u32>,
    issued: Vec<bool>,
    /// rank[instr] = issue-order key (priority by default, CSR override).
    rank: Vec<u64>,
    /// Ready instructions (all operands resident): min-heap by rank.
    ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Operands still missing per instruction.
    missing: Vec<usize>,
    /// Pending load requests: min-heap by (earliest-user rank, value).
    pending_loads: BinaryHeap<Reverse<(u64, u32)>>,
    requested: Vec<bool>,
    /// Set once capacity has forced a live eviction; from then on
    /// [`Self::drain_loads`] skips prefetches that would be the next live
    /// victim.
    pressure: bool,
    /// Instructions issued so far.
    issued_count: usize,
    mem_cycle: u64,
    compute_cycle: [f64; 4],
    out: MovePlan,
    /// How often each eviction path fired (test builds only).
    #[cfg(test)]
    paths: EvictionPaths,
}

/// Counts of [`Scheduler::make_space_pinned`]'s skip and early-exit paths,
/// so tests can check none of them is exercised vacuously.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct EvictionPaths {
    /// Candidates set aside because the pinned instruction reads them.
    pinned_skips: u64,
    /// Candidates set aside because they are outputs still to be read.
    live_output_skips: u64,
    /// Calls that stopped at a live candidate because `allow_live` was off.
    no_live_returns: u64,
    /// Prefetches [`Scheduler::drain_loads`] held back by the do-no-harm
    /// rule.
    held_prefetches: u64,
}

impl<'a> Scheduler<'a> {
    fn new(
        expanded: &'a Expanded,
        arch: &'a ArchConfig,
        order_override: Option<&[InstrId]>,
    ) -> Self {
        let dfg = &expanded.dfg;
        let n_instr = dfg.instrs().len();
        let mut rank: Vec<u64> = dfg.instrs().iter().map(|i| i.priority).collect();
        if let Some(order) = order_override {
            assert_eq!(order.len(), n_instr, "override must order every instruction");
            for (pos, &i) in order.iter().enumerate() {
                rank[i.0 as usize] = pos as u64;
            }
        }
        let mut missing = vec![0usize; n_instr];
        let mut ready = BinaryHeap::new();
        for instr in dfg.instrs() {
            missing[instr.id.0 as usize] = instr.inputs.len();
            if instr.inputs.is_empty() {
                ready.push(Reverse((rank[instr.id.0 as usize], instr.id.0)));
            }
        }
        let capacity = arch.scratchpad_bytes();
        let n_values = dfg.values().len();
        let mut output_set = vec![false; n_values];
        for &v in dfg.outputs() {
            output_set[v.0 as usize] = true;
        }
        // Per-value lineage/liveness tables: each value's users sorted by
        // final rank.
        let sorted_users: Vec<Vec<u32>> = (0..n_values as u32)
            .map(|vi| {
                let mut us: Vec<u32> = dfg.users(ValueId(vi)).iter().map(|u| u.0).collect();
                us.sort_unstable_by_key(|&u| (rank[u as usize], u));
                us
            })
            .collect();
        Self {
            dfg,
            arch,
            free_bytes: capacity,
            free_pool: VecDeque::from([(capacity, None)]),
            never_loaded: vec![false; n_values],
            in_hbm: vec![false; n_values],
            dirty: vec![false; n_values],
            resident: vec![false; n_values],
            evict_heap: BinaryHeap::new(),
            heap_key: vec![0; n_values],
            output_set,
            stored_outputs: vec![false; n_values],
            sorted_users,
            user_cursor: vec![0; n_values],
            issued: vec![false; n_instr],
            rank,
            ready,
            missing,
            pending_loads: BinaryHeap::new(),
            requested: vec![false; n_values],
            pressure: false,
            mem_cycle: 0,
            compute_cycle: [0.0; 4],
            out: MovePlan { events: Vec::new(), traffic: TrafficBreakdown::default() },
            issued_count: 0,
            #[cfg(test)]
            paths: EvictionPaths::default(),
        }
    }

    fn run(mut self) -> MovePlan {
        self.simulate();
        self.out
    }

    /// Runs the whole pass, leaving its product in `self.out`.
    fn simulate(&mut self) {
        // Seed load requests for every loadable value that has users.
        // (User-less pass-through outputs stay off-chip: HBM already
        // holds their authoritative bits, so no load or store is owed.)
        for v in self.dfg.values() {
            let loadable = matches!(v.kind, ValueKind::Input | ValueKind::KeySwitchHint);
            if loadable {
                self.never_loaded[v.id.0 as usize] = true;
                self.in_hbm[v.id.0 as usize] = true;
                if !self.dfg.users(v.id).is_empty() {
                    self.request_load(v.id);
                }
            }
        }
        let total = self.dfg.instrs().len();
        let mut guard = 0u64;
        while self.issued_count < total {
            guard += 1;
            assert!(
                guard < 40 * total as u64 + 10_000,
                "movement scheduler livelock at {}/{total}",
                self.issued_count
            );
            // Decoupled prefetch: stay ahead of compute while space lasts.
            self.drain_loads();
            if let Some(i) = self.pop_ready() {
                self.issue(i);
            } else {
                // Blocked on memory: force the most urgent load through,
                // evicting live data if necessary.
                assert!(
                    self.force_one_load(),
                    "scheduler deadlock: nothing ready and nothing loadable"
                );
            }
        }
        // Store outputs not already squeezed out by capacity (compulsory
        // output traffic). Outputs whose authoritative copy already sits
        // in HBM — never-touched pass-through inputs, or clean copies
        // dropped after an earlier spill — have nothing on chip to move,
        // so no store is emitted (and none charged): a store of bytes the
        // scratchpad does not hold would be physically unrealizable, and
        // the checker rejects exactly that.
        for &v in self.dfg.outputs() {
            let vi = v.0 as usize;
            if self.stored_outputs[vi] {
                continue;
            }
            self.stored_outputs[vi] = true;
            if !self.resident[vi] {
                assert!(self.in_hbm[vi], "output {v:?} is neither on chip nor in HBM");
                continue;
            }
            let bytes = self.dfg.vector_bytes();
            self.mem_cycle += self.arch.mem_cycles(bytes);
            self.out.traffic.input_compulsory += bytes;
            self.out.events.push(MoveEvent::OutputStore { value: v, frees: false });
        }
    }

    fn compute_front(&self) -> u64 {
        self.compute_cycle.iter().cloned().fold(0.0f64, f64::max) as u64
    }

    /// Claims `bytes` from the free pool, returning the distinct release
    /// events whose space is being reused (the allocation's byte lineage).
    fn take_space(&mut self, bytes: u64) -> Vec<EventId> {
        assert!(self.free_bytes >= bytes, "allocation without space");
        self.free_bytes -= bytes;
        let mut need = bytes;
        let mut donors = Vec::new();
        while need > 0 {
            let (sz, src) = self.free_pool.pop_front().expect("free pool out of sync");
            if let Some(e) = src {
                if !donors.contains(&e) {
                    donors.push(e);
                }
            }
            if sz > need {
                self.free_pool.push_front((sz - need, src));
                need = 0;
            } else {
                need -= sz;
            }
        }
        donors
    }

    /// Returns `bytes` to the free pool, tagged with the release event.
    fn release_space(&mut self, bytes: u64, donor: EventId) {
        self.free_bytes += bytes;
        self.free_pool.push_back((bytes, Some(donor)));
    }

    /// Whether a pending load request is still worth serving: the value
    /// has an unissued consumer. (A request can go stale when every user
    /// issued after the value was re-requested — loading a dead value
    /// back would even be unsound for dropped intermediates, whose bits
    /// no longer exist in HBM. Outputs never need loading for their
    /// final store: one that is off-chip already has valid HBM bits.)
    fn still_wanted(&mut self, v: ValueId) -> bool {
        self.next_use_rank(v) != u64::MAX
    }

    /// Issues pending loads while memory is not too far ahead of compute
    /// and space is free (evicting only dead or clean-and-distant data).
    fn drain_loads(&mut self) {
        const LOOKAHEAD: u64 = 20_000;
        while let Some(&Reverse((_, vid))) = self.pending_loads.peek() {
            let v = ValueId(vid);
            if self.resident[vid as usize] || !self.still_wanted(v) {
                self.pending_loads.pop();
                self.requested[vid as usize] = false;
                continue;
            }
            let have_ready = !self.ready.is_empty();
            if have_ready && self.mem_cycle > self.compute_front() + LOOKAHEAD {
                break;
            }
            let bytes = self.dfg.vector_bytes();
            if !self.make_space(bytes, false) {
                break;
            }
            // Do no harm: under pressure, a value reused no sooner than the
            // first live victim would itself be the next victim, so loading
            // it now only gets it evicted unread.
            if self.pressure {
                let next = self.next_use_rank(v);
                if self.first_live_victim_rank().is_some_and(|f| f <= next) {
                    #[cfg(test)]
                    {
                        self.paths.held_prefetches += 1;
                    }
                    break;
                }
            }
            self.pending_loads.pop();
            self.do_load(v, bytes);
        }
    }

    /// Next use rank of the value [`Self::make_space_pinned`] would evict
    /// first once dead values are gone, ignoring pins: the top of
    /// `evict_heap` past stale entries, dead values and live outputs.
    /// `None` when no live value is evictable.
    fn first_live_victim_rank(&mut self) -> Option<u64> {
        let mut set_aside: Vec<(u64, Reverse<u32>)> = Vec::new();
        let mut found = None;
        // Peek first: the top is almost always the answer, and leaving it
        // in place saves a pop and a push per call.
        while let Some(&entry) = self.evict_heap.peek() {
            let (next, Reverse(id)) = entry;
            let vi = id as usize;
            let valid = self.resident[vi] && self.heap_key[vi] == next;
            if valid && next != u64::MAX && !self.output_set[vi] {
                found = Some(next);
                break;
            }
            self.evict_heap.pop();
            if valid {
                set_aside.push(entry); // dead or a live output
            }
        }
        self.evict_heap.extend(set_aside);
        #[cfg(test)]
        assert_eq!(found, self.first_live_victim_by_scan(), "heap live victim != resident scan");
        found
    }

    /// Reference for [`Self::first_live_victim_rank`]: the largest next
    /// use among resident values that are neither dead nor outputs.
    #[cfg(test)]
    fn first_live_victim_by_scan(&mut self) -> Option<u64> {
        let mut max = None;
        for vi in 0..self.resident.len() {
            if self.resident[vi] && !self.output_set[vi] {
                let next = self.next_use_rank(ValueId(vi as u32));
                if next != u64::MAX {
                    max = max.max(Some(next));
                }
            }
        }
        max
    }

    fn force_one_load(&mut self) -> bool {
        while let Some(Reverse((_, vid))) = self.pending_loads.pop() {
            let v = ValueId(vid);
            if self.resident[vid as usize] || !self.still_wanted(v) {
                self.requested[vid as usize] = false;
                continue;
            }
            let bytes = self.dfg.vector_bytes();
            assert!(self.make_space(bytes, true), "cannot evict enough for one value");
            self.do_load(v, bytes);
            return true;
        }
        false
    }

    fn do_load(&mut self, v: ValueId, bytes: u64) {
        debug_assert!(
            self.dfg.producer(v).is_none_or(|p| self.issued[p.0 as usize]),
            "load of unproduced {v:?}"
        );
        let first_time = std::mem::take(&mut self.never_loaded[v.0 as usize]);
        let kind = self.dfg.value(v).kind;
        match (kind, first_time) {
            (ValueKind::KeySwitchHint, true) => self.out.traffic.ksh_compulsory += bytes,
            (ValueKind::KeySwitchHint, false) => self.out.traffic.ksh_non_compulsory += bytes,
            (ValueKind::Input, true) => self.out.traffic.input_compulsory += bytes,
            (ValueKind::Input, false) => self.out.traffic.input_non_compulsory += bytes,
            _ => self.out.traffic.interm_load += bytes,
        }
        self.mem_cycle += self.arch.mem_cycles(bytes);
        let space_from = self.take_space(bytes);
        let deadline = self.next_use_rank(v);
        self.out.events.push(MoveEvent::Load {
            value: v,
            refetch: !first_time,
            deadline,
            space_from,
        });
        self.requested[v.0 as usize] = false;
        self.mark_resident(v, false);
    }

    /// Records residency (space must already be claimed via
    /// [`Self::take_space`]), enters `v` as an eviction candidate and wakes
    /// users whose operands are now all resident.
    fn mark_resident(&mut self, v: ValueId, dirty: bool) {
        let vi = v.0 as usize;
        self.resident[vi] = true;
        let next = self.next_use_rank(v);
        self.push_candidate(v, next);
        if dirty {
            self.dirty[vi] = true;
        }
        for &u in self.dfg.users(v) {
            let ui = u.0 as usize;
            if self.issued[ui] {
                continue;
            }
            self.missing[ui] = self.missing[ui].saturating_sub(1);
            if self.missing[ui] == 0 {
                self.ready.push(Reverse((self.rank[ui], u.0)));
            }
        }
    }

    fn pop_ready(&mut self) -> Option<InstrId> {
        while let Some(&Reverse((_, id))) = self.ready.peek() {
            let i = InstrId(id);
            let ii = id as usize;
            if self.issued[ii] {
                self.ready.pop();
                continue;
            }
            // Revalidate: an operand may have been evicted since. Vector
            // ops have at most two operands, so two slots hold the misses.
            let mut missing = [ValueId(0); 2];
            let mut n_missing = 0;
            for &v in &self.dfg.instr(i).inputs {
                if !self.resident[v.0 as usize] {
                    missing[n_missing] = v;
                    n_missing += 1;
                }
            }
            self.ready.pop();
            if n_missing == 0 {
                return Some(i);
            }
            self.missing[ii] = n_missing;
            for &v in &missing[..n_missing] {
                // Only request values that exist somewhere: loadable
                // graph inputs, or intermediates whose producer has
                // issued (an unissued producer will wake this consumer
                // via mark_resident when it runs — requesting a load for
                // its output would fetch bits HBM never held).
                let producible = match self.dfg.producer(v) {
                    None => true,
                    Some(p) => self.issued[p.0 as usize],
                };
                if producible {
                    self.request_load(v);
                }
            }
        }
        None
    }

    fn request_load(&mut self, v: ValueId) {
        let vi = v.0 as usize;
        if self.resident[vi] || self.requested[vi] {
            return;
        }
        self.requested[vi] = true;
        let urgency = self.next_use_rank(v);
        self.pending_loads.push(Reverse((urgency, v.0)));
    }

    fn issue(&mut self, i: InstrId) {
        let instr = self.dfg.instr(i);
        let fu = instr.op.fu_type();
        let output = instr.output;
        // Pin operands; account compute time on the FU class.
        let occ = self.arch.occupancy(fu, self.dfg.n) as f64;
        let fus = (self.arch.fus_per_cluster(fu) * self.arch.clusters) as f64;
        self.compute_cycle[fu.index()] += occ / fus;
        // Make room for the result (operands pinned).
        let bytes = self.dfg.vector_bytes();
        // First try to leave the reserve free too (best effort, result
        // ignored), so this allocation takes older releases from the
        // front of `free_pool` rather than the ones just made.
        self.make_space_pinned(bytes + reserve_bytes(self.arch, bytes), true, Some(i));
        assert!(self.make_space_pinned(bytes, true, Some(i)), "cannot allocate result space");
        let space_from = self.take_space(bytes);
        self.out.events.push(MoveEvent::Issue { instr: i, space_from });
        self.issued[i.0 as usize] = true;
        self.issued_count += 1;
        self.mark_resident(output, true);
        // Free operands that just died; re-key the others, whose next use
        // just moved past this instruction.
        let n_inputs = self.dfg.instr(i).inputs.len();
        for k in 0..n_inputs {
            let v = self.dfg.instr(i).inputs[k];
            let vi = v.0 as usize;
            let next = self.next_use_rank(v);
            if next == u64::MAX && !self.output_set[vi] {
                self.evict(v, false);
            } else if self.resident[vi] && self.heap_key[vi] != next {
                self.push_candidate(v, next);
            }
        }
    }

    /// Enters `v` into the eviction heap under key `next` (its current
    /// next use rank), superseding any older entry.
    fn push_candidate(&mut self, v: ValueId, next: u64) {
        self.heap_key[v.0 as usize] = next;
        self.evict_heap.push((next, Reverse(v.0)));
    }

    /// Rank of the next unissued user of `v` (`u64::MAX` if none). The
    /// user list is rank-sorted, so the first unissued entry at/after the
    /// cursor is the minimum.
    fn next_use_rank(&mut self, v: ValueId) -> u64 {
        let users = &self.sorted_users[v.0 as usize];
        let cur = &mut self.user_cursor[v.0 as usize];
        while (*cur as usize) < users.len() && self.issued[users[*cur as usize] as usize] {
            *cur += 1;
        }
        match users.get(*cur as usize) {
            Some(&u) => self.rank[u as usize],
            None => u64::MAX,
        }
    }

    fn make_space(&mut self, bytes: u64, allow_live: bool) -> bool {
        self.make_space_pinned(bytes, allow_live, None)
    }

    /// Frees at least `bytes`, evicting dead values first, then (if
    /// allowed) the live value with the furthest next use (§4.3's
    /// Belady-style policy), ties to the lowest value id. Dead outputs are
    /// evictable: their eviction doubles as the compulsory output store.
    /// Operands of the `pinned` instruction and live outputs (outputs
    /// still to be read) stay resident.
    ///
    /// Victims come off `evict_heap` in exactly the order a sort of the
    /// resident set by `(Reverse(next use), value id)` gives: every
    /// resident value has one valid entry keyed by its current next use
    /// (see [`Self::issue`]), and the entries it skips are pushed back.
    fn make_space_pinned(&mut self, bytes: u64, allow_live: bool, pinned: Option<InstrId>) -> bool {
        if self.free_bytes >= bytes {
            return true;
        }
        #[cfg(test)]
        let expected = self.victims_by_sort(bytes, allow_live, pinned);
        #[cfg(test)]
        let mut victims = Vec::new();
        let mut set_aside: Vec<(u64, Reverse<u32>)> = Vec::new();
        while self.free_bytes < bytes {
            let Some(entry) = self.evict_heap.pop() else { break };
            let (next, Reverse(id)) = entry;
            let v = ValueId(id);
            let vi = id as usize;
            if !self.resident[vi] || self.heap_key[vi] != next {
                continue; // stale entry
            }
            debug_assert_eq!(next, self.next_use_rank(v), "stale eviction key for {v:?}");
            if pinned.is_some_and(|p| self.dfg.instr(p).inputs.contains(&v)) {
                #[cfg(test)]
                {
                    self.paths.pinned_skips += 1;
                }
                set_aside.push(entry);
                continue;
            }
            if self.output_set[vi] && next != u64::MAX {
                #[cfg(test)]
                {
                    self.paths.live_output_skips += 1;
                }
                set_aside.push(entry);
                continue;
            }
            if next != u64::MAX && !allow_live {
                #[cfg(test)]
                {
                    self.paths.no_live_returns += 1;
                }
                set_aside.push(entry);
                break;
            }
            #[cfg(test)]
            victims.push(v);
            self.evict(v, next != u64::MAX);
        }
        self.evict_heap.extend(set_aside);
        #[cfg(test)]
        assert_eq!(victims, expected, "heap eviction order != sorted resident set");
        self.free_bytes >= bytes
    }

    /// Reference for [`Self::make_space_pinned`]: the victims that sorting
    /// every resident candidate by `(Reverse(next use), value id)` picks.
    #[cfg(test)]
    fn victims_by_sort(
        &mut self,
        bytes: u64,
        allow_live: bool,
        pinned: Option<InstrId>,
    ) -> Vec<ValueId> {
        let mut candidates: Vec<(u64, ValueId)> = Vec::new();
        for vi in 0..self.resident.len() {
            let v = ValueId(vi as u32);
            if !self.resident[vi] || pinned.is_some_and(|p| self.dfg.instr(p).inputs.contains(&v)) {
                continue;
            }
            let next = self.next_use_rank(v);
            if self.output_set[vi] && next != u64::MAX {
                continue;
            }
            candidates.push((next, v));
        }
        candidates.sort_unstable_by_key(|&(next, v)| (Reverse(next), v.0));
        let mut free = self.free_bytes;
        let mut victims = Vec::new();
        for (next, v) in candidates {
            if free >= bytes || (next != u64::MAX && !allow_live) {
                break;
            }
            free += self.dfg.vector_bytes();
            victims.push(v);
        }
        victims
    }

    fn evict(&mut self, v: ValueId, still_needed: bool) {
        let vi = v.0 as usize;
        if !self.resident[vi] {
            return;
        }
        self.resident[vi] = false;
        self.pressure |= still_needed;
        let bytes = self.dfg.vector_bytes();
        let was_dirty = self.dirty[vi];
        self.dirty[vi] = false;
        let eid = self.out.events.len() as EventId;
        if was_dirty && still_needed {
            // Spill store (the later refetch is gated on its completion).
            self.out.traffic.interm_store += bytes;
            self.mem_cycle += self.arch.mem_cycles(bytes);
            self.out.events.push(MoveEvent::SpillStore { value: v });
            self.in_hbm[vi] = true;
        } else if was_dirty && self.output_set[vi] && !self.stored_outputs[vi] {
            // Dead output squeezed out: store it now (compulsory anyway).
            self.out.traffic.input_compulsory += bytes;
            self.mem_cycle += self.arch.mem_cycles(bytes);
            self.out.events.push(MoveEvent::OutputStore { value: v, frees: true });
            self.stored_outputs[vi] = true;
            self.in_hbm[vi] = true;
        } else {
            // A clean copy was loaded, so HBM already holds the value.
            self.out.events.push(MoveEvent::Drop { value: v });
        }
        self.release_space(bytes, eid);
        if still_needed {
            // Users will re-request on revalidation; proactively enqueue.
            self.requested[vi] = false;
            self.request_load(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Program;
    use crate::expand::{expand, ExpandOptions};
    use crate::ir::{FheProgram, Scheme};
    use crate::listing2;
    use std::collections::HashMap;

    fn plan_for(p: &Program, arch: &ArchConfig) -> (Expanded, MovePlan) {
        let ex = expand(p, &ExpandOptions::default());
        let plan = schedule(&ex, arch);
        (ex, plan)
    }

    #[test]
    fn small_program_has_only_compulsory_traffic() {
        let mut f = FheProgram::new(1 << 12, Scheme::Bgv);
        let x = f.input(4);
        let y = f.input(4);
        let m = f.mul(x, y);
        f.output(m);
        let p = f.lower().program;
        let arch = ArchConfig::f1_default();
        let (ex, plan) = plan_for(&p, &arch);
        let issues = plan.events.iter().filter(|e| matches!(e, MoveEvent::Issue { .. })).count();
        assert_eq!(issues, ex.dfg.instrs().len());
        let t = plan.traffic;
        assert_eq!(t.ksh_non_compulsory, 0);
        assert_eq!(t.input_non_compulsory, 0);
        assert_eq!(t.interm_load + t.interm_store, 0);
        // Compulsory = all hints + all inputs + outputs.
        let expect_inputs = 4 * 4 * (1 << 12) * 4u64; // 2 cts × 2 polys × 4 limbs
        let expect_out = 2 * 4 * (1 << 12) * 4u64;
        assert_eq!(t.input_compulsory, expect_inputs + expect_out);
        assert_eq!(t.ksh_compulsory, 2 * 16 * (1 << 12) * 4);
    }

    #[test]
    fn order_respects_dependences() {
        let p = listing2(1 << 12, 4, 4);
        let arch = ArchConfig::f1_default();
        let (ex, plan) = plan_for(&p, &arch);
        let mut produced: std::collections::HashSet<ValueId> = ex
            .dfg
            .values()
            .iter()
            .filter(|v| ex.dfg.producer(v.id).is_none())
            .map(|v| v.id)
            .collect();
        for e in &plan.events {
            let MoveEvent::Issue { instr: i, .. } = *e else { continue };
            for &inp in &ex.dfg.instr(i).inputs {
                assert!(produced.contains(&inp), "instr {i:?} uses unproduced {inp:?}");
            }
            produced.insert(ex.dfg.instr(i).output);
        }
    }

    #[test]
    fn tiny_scratchpad_forces_noncompulsory_traffic() {
        // Shrink the scratchpad below the hint working set: hints must be
        // re-fetched (the §4.2 thrashing scenario).
        let p = listing2(1 << 12, 8, 4);
        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = 4 * 1024 * 1024; // 4 MB << 15 hints × 2 MB
        let (_, plan) = plan_for(&p, &arch);
        let big = plan.traffic;
        let mut arch2 = ArchConfig::f1_default();
        arch2.scratchpad_banks = 16;
        let (_, plan2) = plan_for(&listing2(1 << 12, 8, 4), &arch2);
        let small = plan2.traffic;
        assert!(
            big.total() > small.total(),
            "tiny scratchpad {} must move more than full {}",
            big.total(),
            small.total()
        );
        assert_eq!(small.ksh_non_compulsory, 0, "64 MB pad fits the matvec working set");
    }

    #[test]
    fn hint_reuse_keeps_traffic_near_compulsory() {
        // The paper's headline scheduling result (§8.2): non-compulsory
        // traffic is a small fraction for reuse-friendly programs.
        let p = listing2(1 << 13, 8, 4);
        let arch = ArchConfig::f1_default();
        let (_, plan) = plan_for(&p, &arch);
        let t = plan.traffic;
        let frac = (t.total() - t.compulsory()) as f64 / t.total() as f64;
        assert!(frac < 0.2, "non-compulsory fraction {frac:.2}");
    }

    #[test]
    fn loads_are_planned_before_users() {
        let mut f = FheProgram::new(1 << 12, Scheme::Bgv);
        let x = f.input(2);
        let y = f.input(2);
        let s = f.add(x, y);
        f.output(s);
        let p = f.lower().program;
        let arch = ArchConfig::f1_default();
        let (ex, plan) = plan_for(&p, &arch);
        // Every input value must appear as a load in the plan, before the
        // first instruction consuming it.
        let loaded = plan.loaded_values();
        for v in ex.dfg.values() {
            if v.kind == ValueKind::Input && !ex.dfg.users(v.id).is_empty() {
                assert!(loaded.contains(&v.id), "input {:?} never loaded", v.id);
            }
        }
        for (i, ev) in plan.events.iter().enumerate() {
            if let MoveEvent::Issue { instr, .. } = ev {
                for &inp in &ex.dfg.instr(*instr).inputs {
                    let pos = plan.events[..i].iter().position(|e| {
                        matches!(e, MoveEvent::Load { value, .. } if *value == inp)
                            || matches!(e, MoveEvent::Issue { instr: p, .. }
                                if ex.dfg.instr(*p).output == inp)
                    });
                    assert!(pos.is_some(), "operand {inp:?} not resident before issue");
                }
            }
        }
    }

    #[test]
    fn event_script_is_internally_consistent() {
        // Replay the script with a byte-exact scratchpad: allocations must
        // reference donors that already freed their space, occupancy must
        // never exceed capacity, and refetches must follow evictions.
        let p = listing2(1 << 12, 8, 4);
        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = 2 * 1024 * 1024; // thrash hard
        let (ex, plan) = plan_for(&p, &arch);
        let cap = arch.scratchpad_bytes();
        let mut occupied = 0u64;
        let mut freed_bytes: HashMap<EventId, u64> = HashMap::new();
        let mut resident: HashSet<ValueId> = HashSet::new();
        for (i, ev) in plan.events.iter().enumerate() {
            match ev {
                MoveEvent::Load { value, refetch, space_from, .. } => {
                    assert!(!resident.contains(value), "double load of {value:?}");
                    if *refetch {
                        let prior = plan.events[..i]
                            .iter()
                            .any(|e| e.frees_space() && e.value() == Some(*value));
                        assert!(prior, "refetch of {value:?} with no prior eviction");
                    }
                    for d in space_from {
                        assert!(freed_bytes.contains_key(d), "donor {d} has not freed yet");
                    }
                    occupied += ex.dfg.vector_bytes();
                    resident.insert(*value);
                }
                MoveEvent::Issue { instr, space_from } => {
                    for d in space_from {
                        assert!(freed_bytes.contains_key(d), "donor {d} has not freed yet");
                    }
                    occupied += ex.dfg.vector_bytes();
                    resident.insert(ex.dfg.instr(*instr).output);
                }
                MoveEvent::SpillStore { value }
                | MoveEvent::Drop { value }
                | MoveEvent::OutputStore { value, frees: true } => {
                    assert!(resident.remove(value), "eviction of non-resident {value:?}");
                    let bytes = ex.dfg.vector_bytes();
                    occupied -= bytes;
                    freed_bytes.insert(i as EventId, bytes);
                }
                MoveEvent::OutputStore { .. } => {}
            }
            assert!(occupied <= cap, "script exceeds capacity at event {i}");
        }
        assert!(plan.traffic.interm_store > 0, "this configuration must spill");
        let refetches = plan
            .events
            .iter()
            .filter(|e| matches!(e, MoveEvent::Load { refetch: true, .. }))
            .count();
        assert!(refetches > 0, "this configuration must refetch");
    }

    #[test]
    fn reserve_is_one_vector_per_hbm_channel_capped_at_a_bank() {
        let mut f = FheProgram::new(1 << 14, Scheme::Bgv);
        let x = f.input(1);
        let y = f.input(1);
        let s = f.add(x, y);
        f.output(s);
        let p = f.lower().program;
        let ex = expand(&p, &ExpandOptions::default());
        let vector = ex.dfg.vector_bytes();
        assert_eq!(vector, 64 * 1024, "one N = 2^14 residue vector");
        assert_eq!(reserve_bytes(&ArchConfig::f1_default(), vector), 1024 * 1024);
        // A 1 MB pad has 64 KB banks, so the bank cap binds.
        let tiny = ArchConfig::f1_default().with_scratchpad_mb(1);
        assert_eq!(reserve_bytes(&tiny, vector), 64 * 1024);
    }

    #[test]
    fn reserve_breaks_the_donor_chain() {
        // An allocation whose donor was released after the previous issue
        // reuses that instruction's dead operands, so pass 3 must commit
        // the two one after the other. Without the reserve, 12% of the
        // allocations here (and 22% at 2 MB) chain that way; with it,
        // almost every allocation reuses bytes freed several issues back.
        let p = listing2(1 << 13, 8, 4);
        let arch = ArchConfig::f1_default().with_scratchpad_mb(4);
        let (_, plan) = plan_for(&p, &arch);
        assert!(plan.traffic.non_compulsory() > 0, "4 MB must thrash");
        let mut prev_issue = None;
        let (mut allocations, mut chained) = (0usize, 0usize);
        for (i, e) in plan.events.iter().enumerate() {
            if let MoveEvent::Issue { space_from, .. } = e {
                allocations += 1;
                let newest = space_from.iter().max().map(|&d| d as usize);
                chained += usize::from(prev_issue.is_some_and(|p| newest > Some(p)));
                prev_issue = Some(i);
            }
        }
        assert!(
            chained * 100 < allocations,
            "{chained} of {allocations} allocations reuse the previous instruction's release"
        );
    }

    #[test]
    fn dead_outputs_can_be_squeezed_out() {
        // Many outputs + a pad smaller than their sum: the scheduler must
        // store outputs early instead of deadlocking, and total output
        // traffic must stay compulsory (each output stored exactly once).
        let mut f = FheProgram::new(1 << 12, Scheme::Bgv);
        let l = 4usize;
        let mut outs = Vec::new();
        for _ in 0..8 {
            let x = f.input(l);
            let y = f.input(l);
            outs.push(f.mul(x, y));
        }
        for o in outs {
            f.output(o);
        }
        let p = f.lower().program;
        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = 1024 * 1024;
        let (ex, plan) = plan_for(&p, &arch);
        let store_count =
            plan.events.iter().filter(|e| matches!(e, MoveEvent::OutputStore { .. })).count();
        let unique_outputs: HashSet<ValueId> = ex.dfg.outputs().iter().copied().collect();
        assert_eq!(store_count, unique_outputs.len(), "each output stored exactly once");
    }

    #[test]
    fn heap_eviction_exercises_every_path() {
        // Every slow-path `make_space_pinned` call in a test build, the
        // best-effort reserve call in `issue` included, also sorts the
        // resident set and asserts the heap evicts the same victims, and
        // every `first_live_victim_rank` call checks its answer against a
        // scan of the resident set. Small pads make every path of the
        // eviction loop fire, so the check is not vacuous: operands of the
        // issuing instruction set aside, outputs that later instructions
        // still read set aside, prefetches that stop at a live value,
        // prefetches held back under pressure, and spilled values reloaded.
        // The second program's outputs are read again at the end of a long
        // rotation chain.
        let mut outs = FheProgram::new(1 << 12, Scheme::Bgv);
        let products: Vec<_> = (0..4)
            .map(|_| {
                let (a, b) = (outs.input(4), outs.input(4));
                let m = outs.mul(a, b);
                outs.output(m);
                m
            })
            .collect();
        let mut z = outs.input(4);
        for k in 1..12 {
            z = outs.rotate(z, k);
        }
        for m in products {
            z = outs.add(z, m);
        }
        outs.output(z);
        let mut total = EvictionPaths::default();
        let mut spill_reloads = 0;
        for p in [listing2(1 << 12, 4, 4), outs.lower().program] {
            let ex = expand(&p, &ExpandOptions::default());
            for mb in 1..=4 {
                let arch = ArchConfig::f1_default().with_scratchpad_mb(mb);
                let mut s = Scheduler::new(&ex, &arch, None);
                s.simulate();
                total.pinned_skips += s.paths.pinned_skips;
                total.live_output_skips += s.paths.live_output_skips;
                total.no_live_returns += s.paths.no_live_returns;
                total.held_prefetches += s.paths.held_prefetches;
                let mut spilled = HashSet::new();
                for e in &s.out.events {
                    match *e {
                        MoveEvent::SpillStore { value, .. } => {
                            spilled.insert(value);
                        }
                        MoveEvent::Load { value, refetch: true, .. } => {
                            spill_reloads += usize::from(spilled.contains(&value));
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(total.pinned_skips > 0, "no pinned operand was set aside");
        assert!(total.live_output_skips > 0, "no live output was set aside");
        assert!(total.no_live_returns > 0, "no prefetch stopped at a live value");
        assert!(total.held_prefetches > 0, "no prefetch was held back under pressure");
        assert!(spill_reloads > 0, "no spilled value was reloaded");
    }
}
