//! Cross-crate integration tests: the full pipeline from `FheProgram` to
//! validated cycle-accurate schedule, cross-checked against functional
//! execution on the real FHE implementation.

use f1::arch::ArchConfig;
use f1::compiler::{compile_fhe, CtId, ExpandOptions, FheProgram, Scheme};
use f1::fhe::encoding::SlotEncoder;
use f1::fhe::params::BgvParams;
use f1::sim::BgvExecutor;
use rand::SeedableRng;
use std::collections::HashMap;

#[test]
fn compile_simulate_and_verify_matvec() {
    // One program, two worlds: (a) compiled and cycle-simulated for F1,
    // (b) functionally executed on real BGV; both must succeed, and the
    // functional result must be numerically correct.
    let n_hw = 1 << 13;
    let p_hw = FheProgram::listing2_matvec(n_hw, 8, 4);
    let arch = ArchConfig::f1_default();
    let (_, _, ex, plan, cycles) = compile_fhe(&p_hw, &arch);
    let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
    assert!(report.makespan > 0);
    assert!(report.traffic.compulsory() > 0);
    assert!(report.seconds < 1.0, "a 4-row matvec must run far under a second");

    let n_sw = 64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let params = BgvParams::test_small(n_sw, 4);
    let enc = SlotEncoder::new(&params);
    let mut f = FheProgram::new(n_sw, Scheme::Bgv);
    let row = f.input(4);
    let v = f.input(4);
    let prod = f.mul(row, v);
    let sum = f.inner_sum(prod, n_sw / 2);
    f.output(sum);
    let p = f.lower().program;
    let exec = BgvExecutor::new(params.clone(), &p, &mut rng);
    let row_data: Vec<u64> = (0..n_sw / 2).map(|j| (j % 5) as u64).collect();
    let vec_data: Vec<u64> = (0..n_sw / 2).map(|j| (j % 3) as u64).collect();
    let mut inputs = HashMap::new();
    inputs.insert(CtId(row.0), enc.encode(&[row_data.clone(), row_data.clone()], &params));
    inputs.insert(CtId(v.0), enc.encode(&[vec_data.clone(), vec_data.clone()], &params));
    let run = exec.run(&p, &inputs, &HashMap::new(), &mut rng);
    let want: u64 = row_data.iter().zip(&vec_data).map(|(&a, &b)| a * b).sum::<u64>()
        % params.plaintext_modulus;
    assert_eq!(enc.decode(&run.outputs[0])[0][0], want);
}

#[test]
fn every_benchmark_compiles_validates_and_is_memory_sane() {
    let arch = ArchConfig::f1_default();
    for b in f1::workloads::all_benchmarks(16) {
        let (_, _, ex, plan, cycles) = compile_fhe(&b.fhe, &arch);
        let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
        // Traffic can never be below the compulsory bound.
        assert!(report.traffic.total() >= report.traffic.compulsory(), "{}", b.name);
        // The schedule must beat a fully serialized execution.
        let serial: u64 =
            ex.dfg.instrs().iter().map(|i| arch.occupancy(i.op.fu_type(), ex.dfg.n)).sum();
        assert!(
            report.makespan < serial,
            "{}: makespan {} not better than serial {serial}",
            b.name,
            report.makespan
        );
    }
}

#[test]
fn ghs_and_decomposition_schedules_both_validate() {
    let arch = ArchConfig::f1_default();
    let mut f = FheProgram::new(1 << 12, Scheme::Bgv);
    let x = f.input(8);
    let y = f.input(8);
    let m = f.mul(x, y);
    let r = f.aut(m, 3);
    f.output(r);
    let p = f.lower().program;
    for choice in [f1::compiler::KeySwitchChoice::Decomposition, f1::compiler::KeySwitchChoice::Ghs]
    {
        let opts = ExpandOptions { keyswitch: choice, ..Default::default() };
        let ex = f1::compiler::expand::expand(&p, &opts);
        let plan = f1::compiler::movement::schedule(&ex, &arch);
        let cycles = f1::compiler::cycle::schedule(&ex, &plan, &arch);
        let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
        assert!(report.makespan > 0, "{choice:?}");
    }
}

#[test]
fn hint_reuse_beats_program_order_on_traffic() {
    // The §4.2 motivating claim, end to end: reuse-ordered compilation
    // must move no more hint bytes than program-order compilation on a
    // capacity-constrained scratchpad.
    let p = FheProgram::listing2_matvec(1 << 13, 8, 4).lower().program;
    let mut arch = ArchConfig::f1_default();
    arch.scratchpad_banks = 4; // 16 MB: each hint is 4 MB, 13 hints don't fit
    let reuse = {
        let ex = f1::compiler::expand::expand(&p, &ExpandOptions::default());
        f1::compiler::movement::schedule(&ex, &arch).traffic.total()
    };
    let program_order = {
        let opts = ExpandOptions { keep_program_order: true, ..Default::default() };
        let ex = f1::compiler::expand::expand(&p, &opts);
        f1::compiler::movement::schedule(&ex, &arch).traffic.total()
    };
    assert!(
        reuse <= program_order,
        "hint-reuse {reuse} must not exceed program-order {program_order}"
    );
}

#[test]
fn listing2_hom_op_counts() {
    // Unoptimized: the optimizer drops each row's identity rotation.
    let p = FheProgram::listing2_matvec(1 << 14, 16, 4).lower().program;
    // 15 hint groups: 1 relin + 14 rotations (log2 16K); §4.2's "480 MB"
    // example counts 15 hint sets of Listing 1's decomposition variant
    // (pinned explicitly — the Auto cost model switches this very
    // program to GHS precisely because of that footprint).
    let opts = ExpandOptions {
        keyswitch: f1::compiler::KeySwitchChoice::Decomposition,
        ..Default::default()
    };
    let ex = f1::compiler::expand::expand(&p, &opts);
    assert_eq!(ex.hint_values.len(), 15);
    let hint_bytes: u64 =
        ex.hint_values.values().flat_map(|vals| vals.iter().map(|&v| ex.dfg.value(v).bytes)).sum();
    // 15 hints × 32 MB = 480 MB, exceeding on-chip storage — the paper's
    // exact number.
    assert_eq!(hint_bytes, 480 * 1024 * 1024);
}
