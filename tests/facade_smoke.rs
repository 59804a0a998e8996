//! Smoke test for the `f1` facade: the README/doc-example entry point
//! must keep compiling a real program end to end through the re-exported
//! stack, and the resulting schedule must validate.

use f1::arch::ArchConfig;
use f1::compiler::Program;

#[test]
fn facade_compiles_listing2_matvec_end_to_end() {
    let program = Program::listing2_matvec(1 << 12, 4, 2);
    let arch = ArchConfig::f1_default();

    let (ex, plan, cycles) = f1::compiler::compile(&program, &arch);

    assert!(cycles.makespan > 0, "schedule must have a positive makespan");
    assert_eq!(
        plan.order.len(),
        ex.dfg.instrs().len(),
        "movement plan must order every expanded instruction"
    );

    // The checker replays the schedule and panics on any dependence or
    // hazard violation; its report must be self-consistent.
    let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
    assert_eq!(report.makespan, cycles.makespan);
    assert!(
        report.traffic.total() >= report.traffic.compulsory(),
        "total off-chip traffic cannot beat the compulsory bound"
    );
}

#[test]
fn facade_reexports_reach_every_layer() {
    // One token from each re-exported crate, so a facade wiring regression
    // fails here rather than in downstream examples.
    let _ = f1::modarith::WORD_BITS;
    let _ = f1::poly::MIN_LOG_N;
    let _ = f1::fhe::params::BgvParams::test_small(64, 3);
    let _ = f1::isa::FuType::Ntt;
    let _ = f1::arch::ArchConfig::f1_default();
    let _ = f1::workloads::all_benchmarks(8);
}
