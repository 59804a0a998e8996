//! Regressions pinned by the static analysis framework.
//!
//! The between-pass typing validator (wired into `optimize()`) caught a
//! real miscompile on its first run over the suite: `constant_fold`'s
//! `x * 1` identity rewrite aliased a CKKS `MulPlain` to its operand
//! even though the two differ in scale (`MulPlain` adds the plaintext's
//! scale), silently dropping a rescale obligation from every downstream
//! type. These tests pin the fix and keep the validator exercised on
//! the full benchmark suite.

use f1::compiler::analysis::{self, typing};
use f1::compiler::ir::{FheProgram, Scheme};

/// A CKKS program whose only simplification opportunity is `x * 1`.
fn ckks_times_one() -> FheProgram {
    let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
    let x = p.input(4);
    let one = p.scalar(1, 4);
    let m = p.mul_plain(x, one); // scale 2: carries a rescale obligation
    let r = p.rescale(m); // back to scale 1
    let s = p.square(r);
    p.output(s);
    p
}

#[test]
fn ckks_mul_by_one_is_not_folded_into_a_scale_drift() {
    let p = ckks_times_one();
    let before = typing::interface(&p);
    // With the unsound fold this panicked inside optimize(): the pass
    // validator flagged constant_fold for drifting the output scale.
    let (opt, _) = p.optimize();
    assert!(
        typing::verify_step(&before, &opt, "optimize").is_empty(),
        "optimized CKKS program drifted its interface"
    );
    // The multiplication by 1 must survive: its scale contribution is
    // semantically meaningful in CKKS.
    assert_eq!(
        p.node(*p.outputs().first().unwrap()).ty.scale,
        opt.node(*opt.outputs().first().unwrap()).ty.scale,
        "output scale changed under optimization"
    );
    assert!(typing::check(&opt).is_empty(), "optimized program is ill-typed");
}

#[test]
fn bgv_mul_by_one_still_folds() {
    // The same shape in BGV (scale is identically 0) must keep folding.
    let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
    let x = p.input(4);
    let one = p.scalar(1, 4);
    let m = p.mul_plain(x, one);
    let s = p.square(m);
    p.output(s);
    let (opt, stats) = p.optimize();
    assert!(stats.folded >= 1, "BGV x*1 no longer folds: {stats:?}");
    assert!(typing::check(&opt).is_empty());
}

#[test]
fn every_benchmark_passes_between_pass_verification() {
    // Benchmark::finish runs optimize(), which now asserts the typing
    // interface after every pass — so building the suite is itself the
    // test. Re-check the final programs explicitly for good measure.
    for b in f1::workloads::all_benchmarks(8) {
        let before = typing::interface(&b.fhe);
        let (opt, _) = b.fhe.optimize();
        assert!(
            typing::verify_step(&before, &opt, "optimize").is_empty(),
            "{}: optimized program drifted its interface",
            b.name
        );
        assert!(typing::check(&opt).is_empty(), "{}: ill-typed after optimize", b.name);
    }
}

#[test]
fn analyzer_reports_no_errors_on_the_benchmark_suite() {
    // The hand-managed programs run at the paper's (N, L), which
    // under-provisions the deep benchmarks by design; their margins are
    // informational, so `noise::budget-exhausted` is demoted to Info
    // (exactly what the `analyze` bin records as a waiver). The Error
    // gate lives on the managed programs — see the test below.
    for b in f1::workloads::all_benchmarks(8) {
        let mut analyzer = analysis::Analyzer::new();
        analyzer.registry_mut().override_severity(
            "noise::budget-exhausted",
            analysis::Severity::Info,
            f1::workloads::Benchmark::HAND_MANAGED_NOTE,
        );
        let (opt, _) = b.fhe.optimize();
        let report = analyzer.analyze(&opt);
        let errors: Vec<_> =
            report.diagnostics.iter().filter(|d| d.severity == analysis::Severity::Error).collect();
        assert!(errors.is_empty(), "{}: {errors:?}", b.name);
    }
}

#[test]
fn managed_suite_proves_positive_margins_without_waivers() {
    // The merge gate: every benchmark reflowed by insert_rescales at the
    // param_search-found (N, L) must carry a positive worst-case margin
    // and pass the full analyzer with NO severity overrides — the two
    // bootstrapping budget-exhausted waivers are gone.
    let spec = analysis::SearchSpec::default();
    for b in f1::workloads::all_benchmarks(8) {
        let r = analysis::param_search::search(&b.fhe, &spec)
            .unwrap_or_else(|| panic!("{}: no (N, L) meets the margin target", b.name));
        assert!(
            r.stats.min_margin_wc_after >= spec.target_margin_bits,
            "{}: managed wc margin {:.1} below target",
            b.name,
            r.stats.min_margin_wc_after
        );
        let report = analysis::Analyzer::new().analyze(&r.managed);
        let errors: Vec<_> =
            report.diagnostics.iter().filter(|d| d.severity == analysis::Severity::Error).collect();
        assert!(errors.is_empty(), "{} (managed, no waivers): {errors:?}", b.name);
    }
}

#[test]
fn the_suite_compiles_end_to_end_under_an_opt_in_noise_policy() {
    // `insert_rescales` followed by `compile_fhe` must take every
    // benchmark through reflow, optimization, lowering, expansion and
    // cycle scheduling — the full pipeline — at a heavy width reduction.
    // GSW programs pass through the reflow unchanged, so the whole suite
    // is eligible.
    let arch = f1::arch::ArchConfig::f1_default();
    let policy = f1::compiler::NoisePolicy::LazyAtThreshold(8.0);
    for b in f1::workloads::all_benchmarks(64) {
        let (managed, _) = f1::compiler::ir::rescale::insert_rescales(&b.fhe, policy);
        let (lowered, _, ex, _, cycles) = f1::compiler::compile_fhe(&managed, &arch);
        assert!(!lowered.program.ops().is_empty(), "{}: empty lowering", b.name);
        assert!(!ex.dfg.instrs().is_empty(), "{}: empty expansion", b.name);
        assert!(cycles.makespan > 0, "{}: empty schedule", b.name);
    }
}

/// Regression for the silent CKKS rescale saturation: `mod_switch` on a
/// scale-1 value clamps the scale at the Δ floor, burning a level for no
/// scale reduction. Strict-scale programs now reject it at build time…
#[test]
#[should_panic(expected = "saturates")]
fn strict_scale_program_rejects_rescale_at_unit_scale() {
    let mut p = FheProgram::new(1 << 10, Scheme::Ckks).with_strict_scale();
    let x = p.input(4); // scale 1 already
    let r = p.mod_switch(x); // must panic: nothing to rescale away
    p.output(r);
}

/// …and non-strict programs get a default-set lint pointing at it.
#[test]
fn lax_program_lints_saturated_rescale() {
    let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
    let x = p.input(4);
    let r = p.mod_switch(x); // scale-1 rescale: saturates silently
    p.output(r);
    let report = analysis::Analyzer::new().analyze(&p);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "scale::saturated-rescale"),
        "scale::saturated-rescale missing from default set: {:?}",
        report.diagnostics
    );
}
