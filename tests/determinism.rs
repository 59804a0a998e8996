//! Determinism regression tests: compiling the same program twice must
//! produce byte-identical static schedules — zero makespan wobble.
//!
//! Background (ROADMAP): pass 2's eviction scan was made deterministic
//! in PR 4, but full-size runs still wobbled ~0.3% run to run because
//! pass 1's hint-popularity vote broke count ties by `HashMap`
//! iteration order (per-process random hash seeds → different hom-op
//! orders → different schedules). The vote now uses an ordered map with
//! value-id tie-breaks, `Expanded::hint_values` is a `BTreeMap`, and
//! the IR passes iterate node lists only. Each `HashMap` in std gets a
//! distinct hash seed even within one process, so the double-compile
//! below catches hash-order leaks without needing two process runs (CI
//! additionally diffs two separate runs of the `determinism_check` bin).

use f1::arch::ArchConfig;
use f1::compiler::CycleSchedule;
use f1::workloads::benchmarks::lola_mnist_uw;

fn fingerprint(cs: &CycleSchedule) -> String {
    format!("{:?}", cs.schedule)
}

#[test]
fn lola_mnist_double_compile_is_byte_identical() {
    // The satellite's pinned case: LoLa-MNIST at scale 8, compiled
    // twice from independently built programs; the emitted
    // StaticSchedule streams must match byte for byte and the makespan
    // delta must be exactly 0.
    let arch = ArchConfig::f1_default();
    let b1 = lola_mnist_uw(8);
    let b2 = lola_mnist_uw(8);
    let (.., cs1) = f1::compiler::compile_fhe(&b1.fhe, &arch);
    let (.., cs2) = f1::compiler::compile_fhe(&b2.fhe, &arch);
    assert_eq!(cs1.makespan, cs2.makespan, "makespan delta must be exactly 0");
    assert_eq!(
        fingerprint(&cs1),
        fingerprint(&cs2),
        "StaticSchedule streams must be byte-identical"
    );
}

#[test]
fn whole_suite_double_compiles_identically_at_test_scale() {
    // Every benchmark (scale 16 keeps this fast), plus the move plans:
    // schedules, event scripts and hom orders all identical.
    let arch = ArchConfig::f1_default();
    for (a, b) in
        f1::workloads::all_benchmarks(16).into_iter().zip(f1::workloads::all_benchmarks(16))
    {
        let (_, _, ex1, plan1, cs1) = f1::compiler::compile_fhe(&a.fhe, &arch);
        let (_, _, ex2, plan2, cs2) = f1::compiler::compile_fhe(&b.fhe, &arch);
        assert_eq!(ex1.hom_order, ex2.hom_order, "{}: hom-op order differs", a.name);
        assert_eq!(
            format!("{plan1:?}"),
            format!("{plan2:?}"),
            "{}: residency event scripts differ",
            a.name
        );
        assert_eq!(cs1.makespan, cs2.makespan, "{}: makespan wobble", a.name);
        assert_eq!(fingerprint(&cs1), fingerprint(&cs2), "{}: stream bytes differ", a.name);
    }
}

#[test]
fn ir_optimize_lower_is_deterministic() {
    // The frontend half of the pipeline: optimize + lower twice, same
    // lowered program out (ids included).
    let build = || lola_mnist_uw(8).fhe;
    let (o1, s1) = build().optimize();
    let (o2, s2) = build().optimize();
    assert_eq!(format!("{o1:?}"), format!("{o2:?}"));
    assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
    assert_eq!(
        format!("{:?}", o1.lower().program.ops()),
        format!("{:?}", o2.lower().program.ops())
    );
}
