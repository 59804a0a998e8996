//! Table 4 microbenchmarks: single ciphertext operations at the paper's
//! three parameter points.

use f1_arch::heax::HeaxModel;
use f1_arch::ArchConfig;
use f1_compiler::dsl::Program;
use f1_compiler::ir::{FheProgram, Scheme};
use f1_isa::FuType;

/// One microbenchmark row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// NTT of one ciphertext (2 polynomials × L limbs).
    Ntt,
    /// Automorphism of one ciphertext.
    Automorphism,
    /// Homomorphic multiplication.
    HomMul,
    /// Homomorphic permutation (automorphism + key-switch).
    HomPerm,
}

impl MicroOp {
    /// All four rows, Table 4 order.
    pub const ALL: [MicroOp; 4] =
        [MicroOp::Ntt, MicroOp::Automorphism, MicroOp::HomMul, MicroOp::HomPerm];

    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            MicroOp::Ntt => "NTT",
            MicroOp::Automorphism => "Automorphism",
            MicroOp::HomMul => "Homomorphic multiply",
            MicroOp::HomPerm => "Homomorphic permutation",
        }
    }
}

/// F1's reciprocal throughput for a microbenchmark, in seconds.
///
/// Microbenchmarks are pure compute (the paper notes they "miss the data
/// movement bottlenecks"), so reciprocal throughput is the steady-state
/// issue rate of the work on the available FUs, not the latency of one
/// isolated operation.
pub fn f1_reciprocal_s(op: MicroOp, n: usize, l: usize, arch: &ArchConfig) -> f64 {
    let g = arch.occupancy(FuType::Ntt, n); // = N/lanes for all FU classes
    let cyc = |vectors: usize, fu: FuType| -> f64 {
        let units = (arch.fus_per_cluster(fu) * arch.clusters) as f64;
        vectors as f64 * g as f64 / units
    };
    let cycles = match op {
        MicroOp::Ntt => cyc(2 * l, FuType::Ntt),
        MicroOp::Automorphism => cyc(2 * l, FuType::Aut),
        MicroOp::HomMul => {
            // Tensor 4L mults + keyswitch: L² NTTs, 2L² mults, ~2L² adds;
            // classes run concurrently, the slowest pipe dominates.
            let ntts = cyc(l * l, FuType::Ntt);
            let muls = cyc(4 * l + 2 * l * l, FuType::Mul);
            let adds = cyc(3 * l + 2 * l * (l - 1), FuType::Add);
            ntts.max(muls).max(adds)
        }
        MicroOp::HomPerm => {
            let auts = cyc(2 * l, FuType::Aut);
            let ntts = cyc(l * l, FuType::Ntt);
            let muls = cyc(2 * l * l, FuType::Mul);
            auts.max(ntts).max(muls)
        }
    };
    cycles / (arch.freq_ghz * 1e9)
}

/// The HEAX_σ comparator's reciprocal throughput (see
/// [`f1_arch::heax`]).
pub fn heax_reciprocal_s(op: MicroOp, n: usize, l: usize) -> f64 {
    let m = HeaxModel::default();
    match op {
        MicroOp::Ntt => m.ciphertext_ntt_s(n, l),
        MicroOp::Automorphism => m.ciphertext_aut_s(n, l),
        MicroOp::HomMul => m.hom_mul_s(n, l),
        MicroOp::HomPerm => m.hom_perm_s(n, l),
    }
}

/// A single-operation program for CPU-baseline measurement, built on the
/// typed frontend and lowered through the IR pipeline.
pub fn micro_program(op: MicroOp, n: usize, l: usize) -> Program {
    let mut p = FheProgram::new(n, Scheme::Bgv);
    let x = p.input(l);
    match op {
        MicroOp::Ntt | MicroOp::HomMul => {
            // The CPU cost of a standalone NTT is measured from hom-mul
            // pieces; as homomorphic ops both reduce to Mul.
            let y = p.input(l);
            let m = p.mul(x, y);
            p.output(m);
        }
        MicroOp::Automorphism | MicroOp::HomPerm => {
            let r = p.aut(x, 3);
            p.output(r);
        }
    }
    p.optimize().0.lower().program
}

/// The paper's Table 4 reference speedups (the shape reference for this
/// module's tests): `(op, N, logQ, F1 ns, vs CPU, vs HEAX_σ)`.
pub fn paper_table4() -> Vec<(&'static str, usize, u32, f64, f64, f64)> {
    vec![
        ("NTT", 1 << 12, 109, 12.8, 17148.0, 1600.0),
        ("NTT", 1 << 13, 218, 44.8, 10736.0, 1733.0),
        ("NTT", 1 << 14, 438, 179.2, 8838.0, 1866.0),
        ("Automorphism", 1 << 12, 109, 12.8, 7364.0, 440.0),
        ("Automorphism", 1 << 13, 218, 44.8, 8250.0, 426.0),
        ("Automorphism", 1 << 14, 438, 179.2, 16957.0, 430.0),
        ("Homomorphic multiply", 1 << 12, 109, 60.0, 48640.0, 172.0),
        ("Homomorphic multiply", 1 << 13, 218, 300.0, 27069.0, 148.0),
        ("Homomorphic multiply", 1 << 14, 438, 2000.0, 14396.0, 190.0),
        ("Homomorphic permutation", 1 << 12, 109, 40.0, 17488.0, 256.0),
        ("Homomorphic permutation", 1 << 13, 218, 224.0, 10814.0, 198.0),
        ("Homomorphic permutation", 1 << 14, 438, 1680.0, 6421.0, 227.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_fhe::params::table4_parameter_sets;

    #[test]
    fn f1_micro_times_track_paper_order_of_magnitude() {
        let arch = ArchConfig::f1_default();
        for (label, n, _logq, f1_ns, _, _) in paper_table4() {
            let op = MicroOp::ALL.iter().copied().find(|o| o.label() == label).unwrap();
            let l = table4_parameter_sets()
                .iter()
                .find(|&&(tn, _, _)| tn == n)
                .map(|&(_, _, l)| l)
                .unwrap();
            let modeled_ns = f1_reciprocal_s(op, n, l, &arch) * 1e9;
            let ratio = modeled_ns / f1_ns;
            assert!(
                (0.1..10.0).contains(&ratio),
                "{label} at N={n}: modeled {modeled_ns:.1} ns vs paper {f1_ns} ns"
            );
        }
    }

    #[test]
    fn f1_beats_heax_by_orders_of_magnitude() {
        let arch = ArchConfig::f1_default();
        for (n, _logq, l) in table4_parameter_sets() {
            for op in MicroOp::ALL {
                let f1 = f1_reciprocal_s(op, n, l, &arch);
                let hx = heax_reciprocal_s(op, n, l);
                let speedup = hx / f1;
                assert!(speedup > 50.0, "{op:?} at N={n}: speedup over HEAX only {speedup:.0}x");
            }
        }
    }

    #[test]
    fn micro_programs_compile() {
        for op in MicroOp::ALL {
            let p = micro_program(op, 1 << 12, 4);
            let ex = f1_compiler::expand::expand(&p, &Default::default());
            assert!(!ex.dfg.instrs().is_empty());
        }
    }
}
