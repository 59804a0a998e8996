//! Differential property tests for the IR optimization pipeline: a
//! random typed `FheProgram`, optimized and unoptimized, must produce
//! **bit-identical decrypted results** through `f1-sim::functional`
//! (real BGV execution), and each variant's static schedule must replay
//! bit-identically to direct dataflow evaluation through
//! `f1-sim::replay` under a thrashing scratchpad.

use f1::arch::ArchConfig;
use f1::compiler::analysis::noise as noise_analysis;
use f1::compiler::analysis::{Analyzer, Severity};
use f1::compiler::ir::rescale::reflow_at;
use f1::compiler::ir::{FheProgram, IrId, Scheme};
use f1::compiler::ExpandOptions;
use f1::fhe::bgv::Plaintext;
use f1::fhe::noise::NoiseModel;
use f1::fhe::params::BgvParams;
use f1::sim::BgvExecutor;
use proptest::prelude::*;
use rand::SeedableRng;

/// Materializes a random op recipe as a typed program over ring `n`.
/// The recipe deliberately revisits operands and rotation amounts so
/// CSE, rotation dedup and DCE all get real work; only the last value
/// is an output, leaving plenty dead.
fn build_fhe(n: usize, start_level: usize, choices: &[(u8, u8)]) -> FheProgram {
    let mut p = FheProgram::new(n, Scheme::Bgv);
    let mut vals = vec![p.input(start_level), p.input(start_level)];
    for (idx, &(c, sel)) in choices.iter().enumerate() {
        let a = vals[sel as usize % vals.len()];
        let b = vals[(sel as usize / 2) % vals.len()];
        let (la, lb) = (p.level_of(a), p.level_of(b));
        let new = match c % 8 {
            0 if la == lb => p.add(a, b),
            // Depth guard keeps the BGV noise budget comfortable.
            1 if la == lb && p.depth_of(a) + p.depth_of(b) < 2 => p.mul(a, b),
            2 => p.aut(a, 3),
            3 => p.rotate(a, 1 + idx % 3),
            4 if la >= 2 => p.mod_switch(a),
            5 => {
                let k = p.scalar(1 + (sel as u64 % 4), la);
                p.mul_plain(a, k)
            }
            6 => {
                let w = p.plain_input(la);
                p.add_plain(a, w)
            }
            // A deliberate identity: x * 1 (constant folding fodder).
            _ => {
                let one = p.scalar(1, la);
                p.mul_plain(a, one)
            }
        };
        vals.push(new);
    }
    p.output(*vals.last().unwrap());
    p
}

/// Runs a variant on real BGV with inputs bound by build-time ordinal,
/// returning the full run (decrypted outputs plus measured noise).
fn run_functional(
    fhe: &FheProgram,
    params: &BgvParams,
    ct_data: &[Plaintext],
    pt_data: &[Plaintext],
) -> f1::sim::FunctionalRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D1F);
    BgvExecutor::new(params.clone(), fhe, &mut rng).run(fhe, ct_data, pt_data, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn optimized_and_unoptimized_decrypt_identically(
        recipe in proptest::collection::vec((0u8..8, 0u8..16), 1..12)
    ) {
        // Functional differential on real BGV at a small ring: the same
        // plaintext inputs, fed by ordinal to both variants, must
        // decrypt to exactly the same outputs.
        let n = 64usize;
        let fhe = build_fhe(n, 4, &recipe);
        let (opt, stats) = fhe.optimize();
        prop_assert!(stats.nodes_after <= stats.nodes_before);

        let params = BgvParams::test_small(n, 4);
        let ct_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(3 * i + 1) as u64, (i % 5) as u64]))
            .collect();
        let pt_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(2 * i + 1) as u64]))
            .collect();
        let out_u = run_functional(&fhe, &params, &ct_data, &pt_data).outputs;
        let out_o = run_functional(&opt, &params, &ct_data, &pt_data).outputs;
        prop_assert_eq!(out_u.len(), out_o.len());
        for (i, (u, o)) in out_u.iter().zip(&out_o).enumerate() {
            for j in 0..n {
                prop_assert_eq!(
                    u.coeff(j), o.coeff(j),
                    "output {} coeff {} differs after optimization", i, j
                );
            }
        }
    }

    #[test]
    fn both_variants_replay_bit_identically(
        recipe in proptest::collection::vec((0u8..8, 0u8..16), 1..12)
    ) {
        // Scheduler differential at a hardware-plausible ring: each
        // variant compiles under a thrashing 64 KB pad and the full
        // 64 MB machine, and its replayed execution matches direct DFG
        // evaluation bit for bit.
        let fhe = build_fhe(1 << 10, 4, &recipe);
        let (opt, _) = fhe.optimize();
        for variant in [&fhe, &opt] {
            let lowered = variant.lower();
            for pad_kb in [64u64, 64 * 1024] {
                let mut arch = ArchConfig::f1_default();
                arch.scratchpad_banks = 1;
                arch.bank_bytes = pad_kb * 1024;
                // Passes 1-3 only: `compile_fhe` would optimize `fhe` too.
                let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
                let ex = f1::compiler::expand::expand(&lowered.program, &opts);
                let plan = f1::compiler::movement::schedule(&ex, &arch);
                let cs = f1::compiler::cycle::schedule(&ex, &plan, &arch);
                let inputs = f1::sim::mock_inputs(&ex.dfg);
                let direct = f1::sim::eval_dfg(&ex.dfg, &inputs);
                let replayed = f1::sim::replay_schedule(&ex.dfg, &cs, &arch, &inputs);
                for &o in ex.dfg.outputs() {
                    prop_assert_eq!(
                        &replayed[&o], &direct[&o],
                        "output {:?} differs at {} KB", o, pad_kb
                    );
                }
            }
        }
    }

    #[test]
    fn optimization_never_changes_output_types(
        recipe in proptest::collection::vec((0u8..8, 0u8..16), 1..16)
    ) {
        let fhe = build_fhe(1 << 10, 4, &recipe);
        let (opt, _) = fhe.optimize();
        prop_assert_eq!(fhe.outputs().len(), opt.outputs().len());
        for (&a, &b) in fhe.outputs().iter().zip(opt.outputs()) {
            prop_assert_eq!(
                fhe.level_of(a), opt.level_of(b),
                "output level drifted under optimization"
            );
        }
        let _ = IrId(0);
    }

    #[test]
    fn rescale_insertion_proves_margin_and_preserves_semantics(
        recipe in proptest::collection::vec((0u8..8, 0u8..16), 1..12)
    ) {
        // The automatic noise-management gate, end to end: reflow an
        // under-provisioned random program (hand switches dropped,
        // placement re-derived, inputs re-provisioned at a level the
        // bound can prove), then (1) the managed program must carry a
        // positive worst-case margin and pass the analyzer with no
        // Error-severity diagnostics, and (2) it must decrypt
        // bit-identically to the hand-managed original on real BGV —
        // mod-switch placement is semantically free in BGV because the
        // executor divides the accumulated correction factors out at
        // decryption.
        let n = 64usize;
        let fhe = build_fhe(n, 4, &recipe);
        let (managed, stats) = reflow_at(&fhe, 12);
        prop_assert!(
            stats.min_margin_wc_after > 0.0,
            "managed program must prove a positive margin: {:?}", stats
        );
        let report = Analyzer::new().analyze(&managed);
        for d in &report.diagnostics {
            prop_assert!(
                d.severity != Severity::Error,
                "managed program fails the lint gate: {:?}", d
            );
        }

        let params = BgvParams::test_small(n, 12);
        let ct_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(3 * i + 1) as u64, (i % 5) as u64]))
            .collect();
        let pt_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(2 * i + 1) as u64]))
            .collect();
        let out_hand = run_functional(&fhe, &params, &ct_data, &pt_data).outputs;
        let out_managed = run_functional(&managed, &params, &ct_data, &pt_data).outputs;
        prop_assert_eq!(out_hand.len(), out_managed.len());
        for (i, (h, m)) in out_hand.iter().zip(&out_managed).enumerate() {
            for j in 0..n {
                prop_assert_eq!(
                    h.coeff(j), m.coeff(j),
                    "output {} coeff {} differs after rescale insertion", i, j
                );
            }
        }
    }

    #[test]
    fn static_noise_bound_dominates_measured_noise(
        recipe in proptest::collection::vec((0u8..8, 0u8..16), 1..12)
    ) {
        // Soundness of the compiler's noise abstract interpretation: on
        // every random program — optimized and unoptimized — the static
        // worst-case bound at each output must dominate the noise a real
        // BGV execution actually accumulates there.
        let n = 64usize;
        let fhe = build_fhe(n, 4, &recipe);
        let (opt, _) = fhe.optimize();

        let params = BgvParams::test_small(n, 4);
        let model = NoiseModel::bgv(n, params.plaintext_modulus, params.error_eta);
        let ct_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(3 * i + 1) as u64, (i % 5) as u64]))
            .collect();
        let pt_data: Vec<Plaintext> = (0..16)
            .map(|i| Plaintext::from_coeffs(&params, &[(2 * i + 1) as u64]))
            .collect();
        for (which, variant) in [("unoptimized", &fhe), ("optimized", &opt)] {
            let report = noise_analysis::analyze_with(variant, model.clone());
            let run = run_functional(variant, &params, &ct_data, &pt_data);
            prop_assert_eq!(variant.outputs().len(), run.output_noise.len());
            for (i, &o) in variant.outputs().iter().enumerate() {
                let bound = report.facts[o.0 as usize].wc;
                let measured = run.output_noise[i];
                prop_assert!(
                    measured <= bound,
                    "{} output {}: measured noise 2^{:.1} exceeds static bound 2^{:.1}",
                    which, i, measured, bound
                );
            }
        }
    }
}
