//! Quickstart: encrypt data with BGV, compute on it homomorphically,
//! compile the same computation for F1 through the typed IR frontend,
//! and compare execution estimates.
//!
//! Run with: `cargo run -p f1 --release --example quickstart`

use f1::arch::ArchConfig;
use f1::compiler::ir::{FheProgram, Scheme};
use f1::fhe::bgv::{KeySet, Plaintext};
use f1::fhe::params::BgvParams;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // --- 1. Software FHE: encrypt, compute, decrypt.
    let params = BgvParams::test_small(1024, 3);
    let keys = KeySet::generate(&params, &mut rng);
    let x = Plaintext::from_coeffs(&params, &[7]);
    let y = Plaintext::from_coeffs(&params, &[6]);
    let ct = keys.encrypt(&x, &mut rng).mul(&keys.encrypt(&y, &mut rng), keys.relin_hint());
    println!("homomorphic 7 * 6 = {}", keys.decrypt(&ct).coeff(0));
    assert_eq!(keys.decrypt(&ct).coeff(0), 42);

    // --- 2. The same computation as a typed F1 program, run through the
    // IR passes and statically scheduled.
    let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
    let a = p.input(16);
    let b = p.input(16);
    let prod = p.mul(a, b);
    p.output(prod);
    let arch = ArchConfig::f1_default();
    let (_, _, ex, plan, cycles) = f1::compiler::compile_fhe(&p, &arch);
    let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
    println!(
        "one homomorphic multiply at N=16K, L=16: {} instructions, {} cycles ({:.2} µs), {} MB off-chip",
        ex.dfg.instrs().len(),
        report.makespan,
        report.seconds * 1e6,
        report.traffic.total() / (1024 * 1024),
    );
    println!(
        "key-switch hints fetched: {} MB via GHS key-switching (decomposition would move the paper's 32 MB hint, §2.4)",
        plan.traffic.ksh_compulsory / (1024 * 1024),
    );
}
