//! Property-based tests over the compilation pipeline: random small
//! programs must always produce valid, hazard-free schedules with
//! traffic at least the compulsory bound — and, under scratchpad
//! capacities down to a few polynomials, schedules whose replayed
//! execution is bit-identical to direct dataflow evaluation. Random
//! loop-shaped programs must compile end to end through `compile_fhe`.

use f1::arch::ArchConfig;
use f1::compiler::ir::{FheProgram, Scheme};
use f1::compiler::movement::MoveEvent;
use f1::compiler::{CycleSchedule, ExpandOptions, Expanded, MovePlan, Program};
use proptest::prelude::*;

/// A random program: a sequence of ops over a growing set of ciphertexts,
/// lowered unoptimized so the ops that do not reach the output stay in
/// the schedule.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(0u8..5, 1..20).prop_map(|choices| {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let mut cts = vec![p.input(4), p.input(4)];
        let mut idx = 0usize;
        for c in choices {
            let a = cts[idx % cts.len()];
            let b = cts[(idx / 2) % cts.len()];
            idx += 1;
            let lvl_a = p.level_of(a);
            let lvl_b = p.level_of(b);
            let new = match c {
                0 if lvl_a == lvl_b => p.add(a, b),
                1 if lvl_a == lvl_b => p.mul(a, b),
                2 => p.aut(a, 3),
                3 => p.rotate(a, 1 + idx % 4),
                4 if lvl_a >= 2 => p.mod_switch(a),
                _ => p.aut(a, 5),
            };
            cts.push(new);
        }
        p.output(*cts.last().unwrap());
        p.lower().program
    })
}

/// Passes 1–3 of `compile_fhe`, without its optimizer.
fn schedule(p: &Program, arch: &ArchConfig) -> (Expanded, MovePlan, CycleSchedule) {
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let ex = f1::compiler::expand::expand(p, &opts);
    let plan = f1::compiler::movement::schedule(&ex, arch);
    let cycles = f1::compiler::cycle::schedule(&ex, &plan, arch);
    (ex, plan, cycles)
}

/// Random single-carry loop at a fixed level, built flat: each opcode
/// byte appends one level-preserving node reading earlier values of the
/// same iteration, and each iteration's last node feeds the next.
fn loop_program(ops: &[u8], trips: u32) -> FheProgram {
    let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
    let mut acc = p.input(6);
    for _ in 0..trips {
        let mut vals = vec![acc];
        for &op in ops {
            let a = vals[(op as usize / 8) % vals.len()];
            let b = vals[(op as usize / 64) % vals.len()];
            let v = match op % 4 {
                0 => p.square(a),
                1 => p.aut(a, [3, 5, 9][(op as usize / 4) % 3]),
                2 => p.add(a, b),
                _ => p.mul(a, b),
            };
            vals.push(v);
        }
        acc = *vals.last().expect("body is non-empty");
    }
    p.output(acc);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rolled_programs_compile_and_validate(
        ops in proptest::collection::vec(0u8..=255, 1..6),
        trips in 1u32..40,
    ) {
        let p = loop_program(&ops, trips);
        let arch = ArchConfig::f1_default();
        let (_, _, ex, plan, cycles) = f1::compiler::compile_fhe(&p, &arch);
        let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
        prop_assert_eq!(report.makespan, cycles.makespan);
    }

    #[test]
    fn random_programs_schedule_validly(p in arb_program()) {
        let arch = ArchConfig::f1_default();
        let (ex, plan, cycles) = schedule(&p, &arch);
        // check_schedule panics on any dependence/hazard violation.
        let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
        prop_assert!(report.traffic.total() >= report.traffic.compulsory());
        let issues = plan.events.iter().filter(|e| matches!(e, MoveEvent::Issue { .. })).count();
        prop_assert_eq!(issues, ex.dfg.instrs().len());
        prop_assert!(report.makespan > 0);
    }

    #[test]
    fn scratchpad_size_never_increases_traffic_when_grown(p in arb_program()) {
        // Monotonicity: a bigger scratchpad cannot force more traffic.
        let mut small = ArchConfig::f1_default();
        small.scratchpad_banks = 1;
        small.bank_bytes = 2 * 1024 * 1024;
        let big = ArchConfig::f1_default();
        let ex = f1::compiler::expand::expand(&p, &ExpandOptions::default());
        let t_small = f1::compiler::movement::schedule(&ex, &small).traffic.total();
        let t_big = f1::compiler::movement::schedule(&ex, &big).traffic.total();
        prop_assert!(t_big <= t_small, "big pad {t_big} > small pad {t_small}");
    }

    #[test]
    fn no_fu_slot_is_ever_double_booked(p in arb_program()) {
        // Direct property over the list scheduler's output, independent
        // of check_schedule: no two ComputeEntrys may share a
        // (cluster, fu, fu_index) slot with overlapping occupancy.
        let arch = ArchConfig::f1_default();
        let (ex, _, cycles) = schedule(&p, &arch);
        let mut by_slot: std::collections::HashMap<(usize, f1::isa::FuType, usize), Vec<u64>> =
            std::collections::HashMap::new();
        for (c, stream) in cycles.schedule.compute.iter().enumerate() {
            for e in stream {
                let fu = ex.dfg.instr(e.instr).op.fu_type();
                by_slot.entry((c, fu, e.fu_index)).or_default().push(e.cycle);
            }
        }
        for ((c, fu, slot), mut starts) in by_slot {
            starts.sort_unstable();
            let occ = arch.occupancy(fu, ex.dfg.n);
            for w in starts.windows(2) {
                prop_assert!(
                    w[1] >= w[0] + occ,
                    "cluster {} {:?}[{}] double-booked at {} and {}",
                    c, fu, slot, w[0], w[1]
                );
            }
        }
    }

    #[test]
    fn cycle_schedule_replay_matches_direct_evaluation(p in arb_program()) {
        // The capacity-faithfulness differential: at scratchpads from
        // 48 KB (a dozen 4 KB polynomials — heavy spilling/refetching)
        // up to the full 64 MB, the cycle-scheduled execution replayed
        // through f1-sim's scratchpad-literal interpreter must produce
        // bit-identical outputs to direct DFG evaluation, and the
        // strengthened checker must accept every schedule.
        for pad_kb in [48u64, 96, 64 * 1024] {
            let mut arch = ArchConfig::f1_default();
            arch.scratchpad_banks = 1;
            arch.bank_bytes = pad_kb * 1024;
            let (ex, plan, cycles) = schedule(&p, &arch);
            let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
            prop_assert!(report.makespan > 0);
            let inputs = f1::sim::mock_inputs(&ex.dfg);
            let direct = f1::sim::eval_dfg(&ex.dfg, &inputs);
            let replayed = f1::sim::replay_schedule(&ex.dfg, &cycles, &arch, &inputs);
            for &o in ex.dfg.outputs() {
                prop_assert_eq!(
                    &replayed[&o], &direct[&o],
                    "output {:?} differs at a {} KB scratchpad", o, pad_kb
                );
            }
        }
    }

    #[test]
    fn csr_orders_are_always_valid(p in arb_program()) {
        let ex = f1::compiler::expand::expand(&p, &ExpandOptions::default());
        if let Some(order) = f1::compiler::csr::csr_order(&ex.dfg) {
            let arch = ArchConfig::f1_default();
            let plan = f1::compiler::movement::schedule_with_order(&ex, &arch, Some(&order));
            let cycles = f1::compiler::cycle::schedule(&ex, &plan, &arch);
            let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
            prop_assert!(report.makespan > 0);
        }
    }
}
