//! Table 4: microbenchmark reciprocal throughputs — F1 vs CPU vs HEAX_σ.

use f1_arch::ArchConfig;
use f1_compiler::ir::{FheProgram, Scheme};
use f1_fhe::params::table4_parameter_sets;
use f1_workloads::cpu_baseline::CpuBaseline;
use f1_workloads::micro::{f1_reciprocal_s, heax_reciprocal_s, micro_program, MicroOp};

/// A measurement program containing every op kind at level `l`, so the
/// baseline has real timings for each class.
fn measurement_program(l: usize) -> f1_compiler::Program {
    let mut p = FheProgram::new(256, Scheme::Bgv);
    let x = p.input(l);
    let y = p.input(l);
    let m = p.mul(x, y);
    let r = p.aut(m, 3);
    let a = p.add(r, m);
    let s = p.mod_switch(a);
    p.output(s);
    p.lower().program
}

fn main() {
    let arch = ArchConfig::f1_default();
    println!("Table 4: Microbenchmarks — F1 reciprocal throughput (ns/ciphertext op)");
    println!("and speedups vs CPU (measured f1-fhe) and HEAX_sigma (model)\n");
    println!(
        "{:<26} {:>8} {:>6} {:>12} {:>12} {:>12}",
        "Operation", "N", "L", "F1 [ns]", "vs CPU", "vs HEAX_s"
    );
    for (n, _logq, l) in table4_parameter_sets() {
        let base = CpuBaseline::measure(&measurement_program(l), 256);
        for op in MicroOp::ALL {
            let f1 = f1_reciprocal_s(op, n, l, &arch);
            let hx = heax_reciprocal_s(op, n, l);
            let p = micro_program(op, n, l);
            let cpu = base.estimate_seconds(&p, n);
            println!(
                "{:<26} {:>8} {:>6} {:>12.1} {:>11.0}x {:>11.0}x",
                op.label(),
                n,
                l,
                f1 * 1e9,
                cpu / f1,
                hx / f1
            );
        }
    }
    println!("\nPaper shape: NTT/automorphism speedups vs HEAX in the hundreds-to-thousands,");
    println!(
        "hom-mul/perm vs HEAX in the low hundreds; all CPU speedups exceed full-program ones."
    );
}
