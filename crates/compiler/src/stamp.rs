//! Schedule stamping: compiling a rolled program in time proportional to
//! the loop *body*, not body × trip count.
//!
//! A [`crate::ir::RepeatSpec`] chain at trip count T unrolls to O(T)
//! nodes, and the three scheduling passes are linear in nodes — so a
//! 10^7-node bootstrapping stress program pays minutes of compile time
//! repeating work the scheduler has already done thousands of times.
//! This module exploits the pipeline's determinism instead: it compiles
//! a handful of *truncations* of the same program (trip counts `W..W+6`)
//! and proves, byte-for-byte, that the resulting static schedules are
//! eventually periodic in the trip count. Once proven, the schedule for
//! any larger trip count is produced by **stamping**: replicating the
//! per-trip block of the truncated schedule with exact cycle/id
//! relocation, never running the passes over the full unrolling.
//!
//! ## The periodicity structure
//!
//! Let `S_i` be the full compile at `W + i` trips. Empirically — and
//! verified per program, per stream at stamping time — the pipeline is
//! *eventually periodic with period 2* in the trip count:
//!
//! * Value and instruction counts grow by constants `dv`, `di` per trip,
//!   and the makespan by `P` cycles per trip.
//! * `S_i` and `S_{i+2}` agree on a long common prefix; the divergence
//!   is confined to the last few (≤ `BACK`) trips of the schedule (the
//!   scheduler's drain), whose entries relocate *exactly* — cycles shift
//!   by `2P`, and ids above fixed thresholds shift by `2dv`/`2di`.
//!   Between the common prefix and the relocated drain sits a 2-trip
//!   steady-state block `K` that repeats verbatim (shifted) as trips
//!   grow.
//!
//! The period is 2, not 1, because the drain's cluster assignment
//! alternates with trip parity; predicting from the same-parity
//! predecessor absorbs the alternation. The predicted schedule is
//!
//! ```text
//! S_{i+2k} = S_i[..L] ++ K ++ sh(K,1) ++ … ++ sh(K,k-1) ++ sh(S_i[L..], k)
//! ```
//!
//! per stream, where `L` is the longest common prefix of `S_{i-2}` and
//! `S_i`, `K = S_i[L..L+Δlen]`, and `sh(·, j)` relocates by `2jP` cycles
//! and `2j·dv`/`2j·di` on ids above the thresholds.
//!
//! ## Safety
//!
//! Stamping is **unconditionally verified before use**: the engine
//! compiles seven truncations and requires (a) exact `dv`/`di`/`P`
//! constancy, (b) four byte-exact predictions across the probed window —
//! `S_4` from `(S_0,S_2)`, `S_5` from `(S_1,S_3)`, `S_6` from
//! `(S_2,S_4)`, and the two-step `S_6` from `(S_0,S_2)` — (c) exact
//! issue/done-cycle reconstruction from the streams, (d) affine energy
//! counters, and (e) the bank-homing invariant `dv ≡ 0 (mod banks)` that
//! keeps relocated values in their scratchpad banks. Any failure falls
//! back to the ordinary flat compile; the fast path can mispredict
//! nothing silently. `f1_sim::checker::check_stamped` additionally
//! re-verifies the base truncation and the materialized streams.

use std::time::Instant;

use f1_arch::energy::EnergyCounters;
use f1_arch::ArchConfig;
use f1_isa::streams::StaticSchedule;

use crate::cycle::{stream_weight, CycleSchedule};
use crate::expand::Expanded;
use crate::{compile_fhe, FheProgram};

/// Warm-up window W: truncations compile at `W .. W+6` trips. Chosen so
/// the scheduler's prologue/steady-state boundary lies inside the common
/// prefix; the byte-exact verification would reject a too-small window.
pub const WINDOW: u32 = 10;

/// Truncations probed (`S_0..S_6`): the minimum that supports two
/// disjoint same-parity predictions plus a two-step composition check.
const PROBES: u32 = 7;

/// Stamping engages only when it saves work: the probe compiles
/// `7·W + 21` trips' worth of schedule, so targets below `W + MIN_GAIN`
/// trips just compile flat.
const MIN_GAIN: u32 = 16;

/// Drain depth in trips: ids belonging to the last `BACK` trips of a
/// truncated schedule may relocate; everything below the threshold is
/// prefix-stable. Validated by the byte-exact predictions.
const BACK: u32 = 4;

/// Cycle/id relocation parameters shared by every stamped stream.
#[derive(Debug, Clone, Copy)]
struct Shift {
    period: u64,
    dv: u32,
    v_lo: u32,
    di: u32,
    i_lo: u32,
}

impl Shift {
    fn cycle(&self, c: u64, m: u64) -> u64 {
        c + m * self.period
    }
    fn value(&self, v: u32, m: u64) -> u32 {
        if v >= self.v_lo {
            v + m as u32 * self.dv
        } else {
            v
        }
    }
    fn instr(&self, i: u32, m: u64) -> u32 {
        if i >= self.i_lo {
            i + m as u32 * self.di
        } else {
            i
        }
    }
}

/// Timings and shape parameters of one stamped compile, for reporting.
#[derive(Debug, Clone)]
pub struct StampInfo {
    /// Trip count of the base (same-parity) truncation.
    pub base_trips: u32,
    /// Trip count actually requested.
    pub target_trips: u32,
    /// Stamped 2-trip blocks appended beyond the base truncation.
    pub k: u64,
    /// Makespan cycles per trip.
    pub period: u64,
    /// Expanded values per trip.
    pub dv: u32,
    /// Expanded instructions per trip.
    pub di: u32,
    /// Seconds compiling + verifying the seven truncations.
    pub probe_s: f64,
    /// Seconds materializing the target streams.
    pub materialize_s: f64,
}

/// Public view of the cycle/id relocation parameters, for external
/// verification: `f1_sim::checker::check_stamped` uses it to relocate
/// stamped blocks *independently* of [`StampedSchedule::materialize`]
/// and compare against the materialized streams.
#[derive(Debug, Clone, Copy)]
pub struct Relocation {
    /// Makespan cycles per trip (entries shift by `2j·period`).
    pub period: u64,
    /// Expanded values per trip.
    pub dv: u32,
    /// Value ids `>= v_lo` relocate; below are prefix-stable.
    pub v_lo: u32,
    /// Expanded instructions per trip.
    pub di: u32,
    /// Instruction ids `>= i_lo` relocate; below are prefix-stable.
    pub i_lo: u32,
}

impl Relocation {
    /// Relocates a cycle by `m` trips.
    pub fn cycle(&self, c: u64, m: u64) -> u64 {
        c + m * self.period
    }
    /// Relocates a value id by `m` trips (threshold-gated).
    pub fn value(&self, v: u32, m: u64) -> u32 {
        if v >= self.v_lo {
            v + m as u32 * self.dv
        } else {
            v
        }
    }
    /// Relocates an instruction id by `m` trips (threshold-gated).
    pub fn instr(&self, i: u32, m: u64) -> u32 {
        if i >= self.i_lo {
            i + m as u32 * self.di
        } else {
            i
        }
    }
}

/// A verified schedule template: the base truncation's full compile plus
/// the relocation parameters that extend it to any same-parity trip
/// count. [`Self::materialize`] produces the full [`CycleSchedule`];
/// `f1_sim::checker::check_stamped` consumes the template directly.
#[derive(Debug)]
pub struct StampedSchedule {
    /// Full compile of the base truncation (`base_trips` trips).
    pub base: CycleSchedule,
    /// Streams of the truncation two trips shorter (defines the common
    /// prefix per stream).
    pub prev: StaticSchedule,
    /// Pass-1 output for the base truncation — the checker re-verifies
    /// the base schedule against it.
    pub base_expanded: Expanded,
    /// Cycle/id relocation parameters (see module docs).
    pub info: StampInfo,
    /// Per-trip energy-counter increment (verified constant across the
    /// probe window).
    pub counters_per_trip: EnergyCounters,
}

/// How a rolled compile was carried out.
#[derive(Debug)]
pub enum RolledOutcome {
    /// The periodicity proof succeeded; the schedule was stamped from
    /// the retained template.
    Stamped(Box<StampedSchedule>),
    /// The program was compiled flat (unrolled), with the reason the
    /// fast path declined.
    Flat {
        /// Why stamping was not used.
        reason: String,
    },
}

/// Result of [`compile_rolled`].
#[derive(Debug)]
pub struct RolledCompile {
    /// The cycle-level schedule for the full trip count — byte-identical
    /// to what the flat pipeline produces, whichever path ran.
    pub schedule: CycleSchedule,
    /// Which path produced it.
    pub outcome: RolledOutcome,
}

/// Compiles a rolled program, taking the stamping fast path when the
/// program is eligible and the periodicity proof succeeds, and falling
/// back to the ordinary flat compile otherwise. The returned schedule is
/// byte-identical between the two paths (the equivalence suite pins
/// this); only the compile time differs.
pub fn compile_rolled(program: &FheProgram, arch: &ArchConfig) -> RolledCompile {
    match try_stamp(program, arch) {
        Ok((schedule, stamped)) => {
            RolledCompile { schedule, outcome: RolledOutcome::Stamped(Box::new(stamped)) }
        }
        Err(reason) => {
            let (_, _, _, _, schedule) = compile_fhe(program, arch);
            RolledCompile { schedule, outcome: RolledOutcome::Flat { reason } }
        }
    }
}

/// Longest common prefix of two entry slices.
fn lcp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Extends one stream from its `prev`/`base` truncation pair by `k`
/// stamped 2-trip blocks (see module docs for the recursion).
fn extend<T: Clone + PartialEq>(
    prev: &[T],
    base: &[T],
    k: u64,
    apply: impl Fn(&T, u64) -> T,
) -> Result<Vec<T>, String> {
    if base.len() < prev.len() {
        return Err("stream shrank between truncations".into());
    }
    let l = lcp(prev, base);
    let block2 = base.len() - prev.len();
    if l + block2 > base.len() {
        return Err("divergence exceeds the 2-trip block".into());
    }
    let mut out = Vec::with_capacity(base.len() + k as usize * block2);
    out.extend_from_slice(&base[..l]);
    for j in 0..k {
        out.extend(base[l..l + block2].iter().map(|e| apply(e, 2 * j)));
    }
    out.extend(base[l..].iter().map(|e| apply(e, 2 * k)));
    Ok(out)
}

/// Extends every stream of a schedule by `k` stamped blocks.
fn extend_schedule(
    prev: &StaticSchedule,
    base: &StaticSchedule,
    k: u64,
    sh: Shift,
) -> Result<StaticSchedule, String> {
    if prev.compute.len() != base.compute.len() {
        return Err("compute stream count changed between truncations".into());
    }
    let mut compute = Vec::with_capacity(base.compute.len());
    for (p, b) in prev.compute.iter().zip(&base.compute) {
        compute.push(extend(p, b, k, |e, m| {
            let mut e = e.clone();
            e.cycle = sh.cycle(e.cycle, m);
            e.instr.0 = sh.instr(e.instr.0, m);
            e
        })?);
    }
    let mem = extend(&prev.mem, &base.mem, k, |e, m| {
        let mut e = e.clone();
        e.cycle = sh.cycle(e.cycle, m);
        e.value.0 = sh.value(e.value.0, m);
        e
    })?;
    let net = extend(&prev.net, &base.net, k, |e, m| {
        let mut e = e.clone();
        e.cycle = sh.cycle(e.cycle, m);
        e.value.0 = sh.value(e.value.0, m);
        e
    })?;
    let evict = extend(&prev.evict, &base.evict, k, |e, m| {
        let mut e = *e;
        e.cycle = sh.cycle(e.cycle, m);
        e.value.0 = sh.value(e.value.0, m);
        e
    })?;
    Ok(StaticSchedule { compute, mem, net, evict, makespan: base.makespan + 2 * k * sh.period })
}

/// Reconstructs per-instruction issue/done cycles from materialized
/// compute streams: `issue = entry.cycle`, `done = issue +
/// stream_weight` (the scheduler defines done exactly this way). The
/// probe verifies the reconstruction bit-for-bit against a full compile
/// before the fast path trusts it.
fn issue_done(
    schedule: &StaticSchedule,
    arch: &ArchConfig,
    n: usize,
    total_instrs: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut issue = vec![0u64; total_instrs];
    let mut done = vec![0u64; total_instrs];
    for stream in &schedule.compute {
        for e in stream {
            let i = e.instr.0 as usize;
            issue[i] = e.cycle;
            done[i] = e.cycle + stream_weight(arch, e.fu, n);
        }
    }
    (issue, done)
}

impl StampedSchedule {
    /// Relocation parameters derived from the template.
    fn shift(&self) -> Shift {
        let vals = self.base_expanded.dfg.values().len() as u32;
        let instrs = self.base_expanded.dfg.instrs().len() as u32;
        Shift {
            period: self.info.period,
            dv: self.info.dv,
            v_lo: vals - BACK * self.info.dv,
            di: self.info.di,
            i_lo: instrs - BACK * self.info.di,
        }
    }

    /// The relocation parameters, for external re-verification.
    pub fn relocation(&self) -> Relocation {
        let s = self.shift();
        Relocation { period: s.period, dv: s.dv, v_lo: s.v_lo, di: s.di, i_lo: s.i_lo }
    }

    /// Materializes the full [`CycleSchedule`] for the target trip
    /// count from the template. O(output size); runs no scheduling.
    pub fn materialize(&self, arch: &ArchConfig) -> Result<CycleSchedule, String> {
        let k = self.info.k;
        let schedule = extend_schedule(&self.prev, &self.base.schedule, k, self.shift())?;
        let n = self.base_expanded.n;
        let total =
            self.base_expanded.dfg.instrs().len() + 2 * k as usize * self.info.di as usize;
        let (issue_cycle, done_cycle) = issue_done(&schedule, arch, n, total);
        let makespan = schedule.makespan;
        let counters = self.base.counters.plus_scaled(&self.counters_per_trip, 2 * k);
        Ok(CycleSchedule { schedule, issue_cycle, done_cycle, makespan, counters })
    }
}

/// The verified fast path: probe, prove, stamp. Any violated invariant
/// returns `Err` with the reason, and the caller compiles flat.
fn try_stamp(
    program: &FheProgram,
    arch: &ArchConfig,
) -> Result<(CycleSchedule, StampedSchedule), String> {
    if program.repeats().len() != 1 {
        return Err(format!(
            "stamping needs exactly one repeat region (program has {})",
            program.repeats().len()
        ));
    }
    let trips = program.repeats()[0].trips;
    if trips < WINDOW + MIN_GAIN {
        return Err(format!("trip count {trips} too small to amortize the probe"));
    }

    let t0 = Instant::now();
    // Compile the seven truncations S_0..S_6 at W..W+6 trips. A
    // truncation can assert-fail where the full program would not (e.g.
    // an epilogue typed against the full trip count); treat that as
    // ineligibility, not an error.
    let mut comp: Vec<(Expanded, CycleSchedule)> = Vec::with_capacity(PROBES as usize);
    for i in 0..PROBES {
        let truncated = program.with_trips(0, WINDOW + i);
        let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (_, _, expanded, _, cs) = compile_fhe(&truncated, arch);
            (expanded, cs)
        }));
        match compiled {
            Ok(pair) => comp.push(pair),
            Err(_) => return Err(format!("truncation at {} trips does not compile", WINDOW + i)),
        }
    }
    let vals: Vec<u32> = comp.iter().map(|c| c.0.dfg.values().len() as u32).collect();
    let instrs: Vec<u32> = comp.iter().map(|c| c.0.dfg.instrs().len() as u32).collect();
    let mks: Vec<u64> = comp.iter().map(|c| c.1.makespan).collect();

    // (a) Exact per-trip growth constants.
    let dv = vals[1] - vals[0];
    let di = instrs[1] - instrs[0];
    let period = mks[2].checked_sub(mks[1]).ok_or("makespan not monotone")?;
    if dv == 0 || di == 0 || period == 0 {
        return Err("degenerate per-trip growth (empty loop body?)".into());
    }
    for i in 1..PROBES as usize {
        if vals[i] - vals[i - 1] != dv || instrs[i] - instrs[i - 1] != di {
            return Err(format!("per-trip value/instr growth not constant at probe {i}"));
        }
        if i >= 2 && mks[i] - mks[i - 1] != period {
            return Err(format!("per-trip makespan growth not constant at probe {i}"));
        }
    }
    // (e) Bank homing: relocated values must land in the same
    // scratchpad bank (loads/stores address bank = value mod banks).
    // Ids only ever shift by multiples of 2·dv, so that is the quantum
    // that must preserve the bank; the byte-exact predictions below
    // witness it inside the probe window, this guards every larger k.
    if 2 * dv as usize % arch.scratchpad_banks != 0 {
        return Err(format!(
            "2dv = {} not a multiple of {} scratchpad banks",
            2 * dv,
            arch.scratchpad_banks
        ));
    }
    if instrs[0] < BACK * di || vals[0] < BACK * dv {
        return Err("truncations smaller than the relocation window".into());
    }

    // (b) Byte-exact periodicity: predict S_4, S_5, S_6 (and S_6 again
    // via a two-step stamp) from same-parity pairs and require equality.
    let shift_at = |base: usize| Shift {
        period,
        dv,
        v_lo: vals[base] - BACK * dv,
        di,
        i_lo: instrs[base] - BACK * di,
    };
    for (prev, base, k, tgt) in
        [(0usize, 2usize, 1u64, 4usize), (1, 3, 1, 5), (2, 4, 1, 6), (0, 2, 2, 6)]
    {
        let pred =
            extend_schedule(&comp[prev].1.schedule, &comp[base].1.schedule, k, shift_at(base))?;
        if pred != comp[tgt].1.schedule {
            return Err(format!(
                "probe prediction S_{tgt} from (S_{prev}, S_{base}) diverged; not periodic"
            ));
        }
    }

    // (c) Issue/done reconstruction must be exact on a full compile.
    let last = PROBES as usize - 1;
    let (ri, rd) =
        issue_done(&comp[last].1.schedule, arch, comp[last].0.n, instrs[last] as usize);
    if ri != comp[last].1.issue_cycle || rd != comp[last].1.done_cycle {
        return Err("issue/done reconstruction diverged from the scheduler".into());
    }

    // (d) Energy counters must grow by a constant per trip.
    let per_trip = comp[1].1.counters.delta(&comp[0].1.counters);
    for i in 1..PROBES as usize {
        if comp[i].1.counters.delta(&comp[i - 1].1.counters) != per_trip {
            return Err(format!("energy counters not affine in trips at probe {i}"));
        }
    }
    let probe_s = t0.elapsed().as_secs_f64();

    // Target: same-parity base among S_4/S_5, stamped k times.
    let i_t = trips - WINDOW;
    let (prev_i, base_i) = if i_t % 2 == 0 { (2usize, 4usize) } else { (3usize, 5usize) };
    let k = (i_t as u64 - base_i as u64) / 2;

    let t1 = Instant::now();
    let base = comp[base_i].1.clone();
    let prev = comp[prev_i].1.schedule.clone();
    let base_expanded = comp.swap_remove(base_i).0;
    let info = StampInfo {
        base_trips: WINDOW + base_i as u32,
        target_trips: trips,
        k,
        period,
        dv,
        di,
        probe_s,
        materialize_s: 0.0,
    };
    let mut stamped =
        StampedSchedule { base, prev, base_expanded, info, counters_per_trip: per_trip };
    let schedule = stamped.materialize(arch)?;
    stamped.info.materialize_s = t1.elapsed().as_secs_f64();
    Ok((schedule, stamped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_fhe, FheProgram, Scheme};

    /// The steady-state chain the periodicity analysis was validated on.
    fn rolled_chain(l: usize, trips: u32) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let acc = p.input(l);
        let t = p.begin_repeat();
        let m = p.square(acc);
        let r = p.aut(m, 9);
        let acc2 = p.add(r, m);
        p.end_repeat(t, trips, vec![(acc, acc2)], vec![]);
        p.output(acc2);
        p
    }

    #[test]
    fn stamped_equals_flat_compile() {
        let arch = ArchConfig::f1_default();
        for trips in [WINDOW + MIN_GAIN, WINDOW + MIN_GAIN + 1, WINDOW + 31] {
            let p = rolled_chain(6, trips);
            let rolled = compile_rolled(&p, &arch);
            assert!(
                matches!(rolled.outcome, RolledOutcome::Stamped(_)),
                "fast path must engage at {trips} trips: {:?}",
                match &rolled.outcome {
                    RolledOutcome::Flat { reason } => reason.clone(),
                    _ => String::new(),
                }
            );
            let (_, _, _, _, flat) = compile_fhe(&p, &arch);
            assert_eq!(rolled.schedule.makespan, flat.makespan);
            assert_eq!(rolled.schedule.schedule, flat.schedule, "streams differ at {trips}");
            assert_eq!(rolled.schedule.issue_cycle, flat.issue_cycle);
            assert_eq!(rolled.schedule.done_cycle, flat.done_cycle);
            assert_eq!(rolled.schedule.counters, flat.counters);
        }
    }

    #[test]
    fn small_trip_counts_fall_back_flat() {
        let arch = ArchConfig::f1_default();
        let p = rolled_chain(6, 8);
        let rolled = compile_rolled(&p, &arch);
        assert!(matches!(rolled.outcome, RolledOutcome::Flat { .. }));
        let (_, _, _, _, flat) = compile_fhe(&p, &arch);
        assert_eq!(rolled.schedule.schedule, flat.schedule);
    }

    #[test]
    fn non_periodic_programs_fall_back_flat() {
        let arch = ArchConfig::f1_default();
        // A level-descending body: every iteration compiles differently,
        // so the per-trip growth constants cannot hold.
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let acc0 = p.input(40);
        let t = p.begin_repeat();
        let m = p.square(acc0);
        let acc = p.mod_switch(m);
        p.end_repeat(t, 30, vec![(acc0, acc)], vec![]);
        p.output(acc);
        let rolled = compile_rolled(&p, &arch);
        assert!(matches!(rolled.outcome, RolledOutcome::Flat { .. }));
        let (_, _, _, _, flat) = compile_fhe(&p, &arch);
        assert_eq!(rolled.schedule.schedule, flat.schedule);
    }
}
