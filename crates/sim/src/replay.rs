//! Capacity-faithful functional replay of a static schedule.
//!
//! The checker proves the schedule's *timing* is legal; this module
//! proves its *data routing* is. It executes the emitted streams in cycle
//! order against an explicit memory hierarchy — an HBM map and a
//! byte-counted scratchpad — with eviction semantics taken literally:
//!
//! * a load copies the value HBM → scratchpad at its completion cycle;
//! * a store copies scratchpad → HBM at its completion cycle;
//! * an eviction **destroys** the scratchpad copy (spilled data survives
//!   only because its writeback ran first);
//! * an instruction reads its operands from the scratchpad at its issue
//!   cycle — if an operand was evicted and its refetch has not landed,
//!   the replay panics, because the bits are simply not there.
//!
//! Replaying a schedule and comparing every program output bit-for-bit
//! against direct dataflow evaluation ([`eval_dfg`]) therefore proves the
//! scheduler reordered, spilled, refetched and re-homed values without
//! ever computing on stale or missing data. Operations use deterministic
//! mock semantics (distinct mixing functions per opcode), so any operand
//! mix-up changes the output bits.

use f1_arch::ArchConfig;
use f1_compiler::CycleSchedule;
use f1_isa::dfg::{Dfg, ValueId, VectorOp};
use f1_isa::streams::MemDir;
use std::collections::HashMap;

/// Elements per mock value vector (small: routing, not throughput).
pub const REPLAY_LANES: usize = 4;

/// Deterministic pseudo-random fill for a graph input, keyed by value id.
pub fn mock_inputs(dfg: &Dfg) -> HashMap<ValueId, Vec<u64>> {
    let mut out = HashMap::new();
    for v in dfg.values() {
        if dfg.producer(v.id).is_none() {
            out.insert(
                v.id,
                (0..REPLAY_LANES).map(|i| splitmix(v.id.0 as u64, i as u64)).collect(),
            );
        }
    }
    out
}

fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z =
        seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i.wrapping_mul(0xBF58476D1CE4E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mock vector semantics: one distinct, order-sensitive mixing function
/// per opcode (shared by direct evaluation and replay).
fn apply(op: VectorOp, ins: &[&Vec<u64>]) -> Vec<u64> {
    let len = REPLAY_LANES;
    match op {
        VectorOp::Add => (0..len).map(|i| ins[0][i].wrapping_add(ins[1][i])).collect(),
        VectorOp::Sub => (0..len).map(|i| ins[0][i].wrapping_sub(ins[1][i])).collect(),
        VectorOp::Mul => (0..len).map(|i| ins[0][i].wrapping_mul(ins[1][i]) ^ 0xF1).collect(),
        VectorOp::ScalarMul { .. } => {
            (0..len).map(|i| ins[0][i].wrapping_mul(0x10001).wrapping_add(7)).collect()
        }
        VectorOp::ScalarMulAdd { .. } => {
            (0..len).map(|i| ins[0][i].wrapping_add(ins[1][i].wrapping_mul(0x101))).collect()
        }
        VectorOp::Ntt => (0..len).map(|i| ins[0][(i + 1) % len].rotate_left(7) ^ 0xA5A5).collect(),
        VectorOp::Intt => {
            (0..len).map(|i| ins[0][(i + len - 1) % len].rotate_right(5) ^ 0x5A5A).collect()
        }
        VectorOp::Aut { k } => {
            (0..len).map(|i| ins[0][(i * (k | 1)) % len].wrapping_add(k as u64)).collect()
        }
        VectorOp::Copy => ins[0].clone(),
    }
}

/// Direct dataflow evaluation in DFG creation order (the reference).
/// Returns every value's bits.
pub fn eval_dfg(dfg: &Dfg, inputs: &HashMap<ValueId, Vec<u64>>) -> HashMap<ValueId, Vec<u64>> {
    let mut vals: HashMap<ValueId, Vec<u64>> = inputs.clone();
    for instr in dfg.instrs() {
        let ins: Vec<&Vec<u64>> = instr
            .inputs()
            .iter()
            .map(|v| vals.get(v).unwrap_or_else(|| panic!("operand {v:?} undefined")))
            .collect();
        let out = apply(instr.op, &ins);
        vals.insert(instr.output, out);
    }
    vals
}

/// Replays a schedule's streams in cycle order against an explicit
/// scratchpad + HBM, returning the bits stored to HBM for each program
/// output.
///
/// # Panics
///
/// Panics when the schedule computes on missing data (operand evicted
/// with no completed refetch), stores a value with no scratchpad copy,
/// or refetches a value HBM never received — each a
/// capacity-faithfulness bug the schedule must not contain. (The
/// byte-exact capacity proof lives in [`crate::check_schedule`].)
pub fn replay_schedule(
    dfg: &Dfg,
    cs: &CycleSchedule,
    arch: &ArchConfig,
    inputs: &HashMap<ValueId, Vec<u64>>,
) -> HashMap<ValueId, Vec<u64>> {
    // Phases order simultaneous events for data flow: a store lands in
    // HBM before anything destroys the pad copy, loads land before
    // compute reads, and evictions destroy copies last (the checker
    // guarantees every read is at or before its interval's end, and owns
    // the byte-exact capacity proof with allocation-at-start semantics).
    #[derive(Clone, Copy)]
    enum Ev {
        StoreDone(ValueId),
        LoadDone(ValueId),
        Exec(u32),
        Evict(ValueId),
    }
    let mut events: Vec<(u64, u8, Ev)> = Vec::new();
    let transfer = arch.mem_channel_cycles(dfg.vector_bytes());
    for m in &cs.schedule.mem {
        let done = m.cycle + transfer;
        match m.dir {
            MemDir::Store => events.push((done, 0, Ev::StoreDone(m.value))),
            MemDir::Load => events.push((done + arch.hbm_latency_cycles, 1, Ev::LoadDone(m.value))),
        }
    }
    for stream in &cs.schedule.compute {
        for e in stream {
            events.push((e.cycle, 2, Ev::Exec(e.instr.0)));
        }
    }
    for e in &cs.schedule.evict {
        events.push((e.cycle, 3, Ev::Evict(e.value)));
    }
    events.sort_by_key(|&(cycle, phase, ev)| {
        (
            cycle,
            phase,
            match ev {
                Ev::Exec(i) => i as u64,
                Ev::StoreDone(v) | Ev::Evict(v) | Ev::LoadDone(v) => v.0 as u64,
            },
        )
    });

    let mut hbm: HashMap<ValueId, Vec<u64>> = inputs.clone();
    let mut pad: HashMap<ValueId, Vec<u64>> = HashMap::new();
    for (cycle, _, ev) in events {
        match ev {
            Ev::LoadDone(v) => {
                let data = hbm
                    .get(&v)
                    .unwrap_or_else(|| panic!("load of {v:?} at {cycle}: HBM has no copy"))
                    .clone();
                pad.insert(v, data);
            }
            Ev::StoreDone(v) => {
                let data = pad
                    .get(&v)
                    .unwrap_or_else(|| panic!("store of {v:?} at {cycle}: not in scratchpad"))
                    .clone();
                hbm.insert(v, data);
            }
            Ev::Evict(v) => {
                assert!(pad.remove(&v).is_some(), "evict of {v:?} at {cycle}: not in scratchpad");
            }
            Ev::Exec(i) => {
                let instr = &dfg.instrs()[i as usize];
                let ins: Vec<&Vec<u64>> = instr
                    .inputs()
                    .iter()
                    .map(|v| {
                        pad.get(v).unwrap_or_else(|| {
                            panic!(
                                "instr {i} at {cycle} reads {v:?} which is not in the \
                                 scratchpad (evicted with refetch incomplete?)"
                            )
                        })
                    })
                    .collect();
                let out = apply(instr.op, &ins);
                pad.insert(instr.output, out);
            }
        }
    }
    let mut outs = HashMap::new();
    for &o in dfg.outputs() {
        let data =
            hbm.get(&o).unwrap_or_else(|| panic!("output {o:?} never stored to HBM")).clone();
        outs.insert(o, data);
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_compiler::{compile_fhe, FheProgram};

    fn arch_with_pad(kb: u64) -> ArchConfig {
        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = kb * 1024;
        arch
    }

    #[test]
    fn replay_matches_direct_eval_at_full_capacity() {
        let p = FheProgram::listing2_matvec(1 << 10, 4, 2);
        let arch = ArchConfig::f1_default();
        let (_, _, ex, _, cs) = compile_fhe(&p, &arch);
        let inputs = mock_inputs(&ex.dfg);
        let direct = eval_dfg(&ex.dfg, &inputs);
        let replayed = replay_schedule(&ex.dfg, &cs, &arch, &inputs);
        for &o in ex.dfg.outputs() {
            assert_eq!(replayed[&o], direct[&o], "output {o:?} differs");
        }
    }

    #[test]
    fn replay_matches_under_heavy_thrashing() {
        // A scratchpad of a few dozen 4 KB polynomials: the schedule is
        // full of spills, refetches and re-loads, and replay must still
        // reproduce the exact bits.
        let p = FheProgram::listing2_matvec(1 << 10, 4, 2);
        let arch = arch_with_pad(64); // 16 values of 4 KB
        let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
        assert!(plan.traffic.non_compulsory() > 0, "this pad must thrash");
        let inputs = mock_inputs(&ex.dfg);
        let direct = eval_dfg(&ex.dfg, &inputs);
        let replayed = replay_schedule(&ex.dfg, &cs, &arch, &inputs);
        for &o in ex.dfg.outputs() {
            assert_eq!(replayed[&o], direct[&o], "output {o:?} differs");
        }
    }

    #[test]
    #[should_panic(expected = "not in the")]
    fn replay_catches_premature_reads() {
        // Corrupt a valid schedule: pull an eviction earlier than a
        // reader of its value — the replay must see the missing bits.
        let p = FheProgram::listing2_matvec(1 << 10, 4, 2);
        let arch = arch_with_pad(64);
        let (_, _, ex, _, mut cs) = compile_fhe(&p, &arch);
        let load = arch.mem_channel_cycles(ex.dfg.vector_bytes()) + arch.hbm_latency_cycles;
        // Find an evicted, loaded value and destroy its pad copy right
        // after the load lands: every reader in between now reads a hole.
        let mut moved = false;
        for i in 0..cs.schedule.evict.len() {
            let v = cs.schedule.evict[i].value;
            if let Some(done) = cs
                .schedule
                .mem
                .iter()
                .filter(|m| m.dir == MemDir::Load && m.value == v)
                .map(|m| m.cycle + load)
                .min()
            {
                if done + 1 < cs.schedule.evict[i].cycle {
                    cs.schedule.evict[i].cycle = done + 1;
                    moved = true;
                    break;
                }
            }
        }
        assert!(moved, "need an evicted loaded value to corrupt");
        cs.schedule.evict.sort_by_key(|e| e.cycle);
        let inputs = mock_inputs(&ex.dfg);
        replay_schedule(&ex.dfg, &cs, &arch, &inputs);
    }
}
