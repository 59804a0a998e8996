//! The functional simulator (§8.5).
//!
//! The paper's functional simulator executes FHE computations in software
//! (on top of a number-theory library) to verify input-output correctness
//! and generate dataflow graphs; the algorithms match common software
//! implementations rather than F1's hardware dataflow. Here that role is
//! played by `f1-fhe`: this module interprets the typed [`FheProgram`]
//! the user built against the real BGV implementation, to validate
//! results end-to-end and to measure each output's noise. Its timed
//! evaluation is not Table 3's CPU baseline, which charges
//! `f1_workloads::cpu_baseline`'s per-op costs: it only cross-checks
//! those charges on small programs (`CpuBaseline::measure_direct`).

use f1_compiler::analysis::typing;
use f1_compiler::ir::{FheOp, FheProgram, IrId, Scheme};
use f1_fhe::bgv::{Ciphertext, KeySet, Plaintext};
use f1_fhe::params::BgvParams;
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Executes typed BGV programs against the real BGV scheme.
pub struct BgvExecutor {
    params: BgvParams,
    keys: KeySet,
}

/// The result of a functional run.
pub struct FunctionalRun {
    /// Decrypted outputs, in program-output order.
    pub outputs: Vec<Plaintext>,
    /// Measured log2 noise magnitude of each output ciphertext at
    /// decryption time (same order as `outputs`) — the ground truth the
    /// compiler's static noise bounds are validated against.
    pub output_noise: Vec<f64>,
    /// Wall-clock time of the homomorphic evaluation only (encryption and
    /// decryption excluded, as in the paper's baselines).
    pub eval_time: Duration,
    /// Number of homomorphic operations executed.
    pub hom_ops: usize,
}

/// Panics unless `program` is a well-typed BGV program over `params`'
/// ring: anything else would run as BGV on the wrong ring unnoticed.
fn assert_runnable(params: &BgvParams, program: &FheProgram) {
    assert!(
        program.scheme() == Scheme::Bgv,
        "BgvExecutor runs BGV programs only, not {}",
        program.scheme()
    );
    assert!(
        program.n == params.n,
        "program ring dimension {} differs from the parameters' {}",
        program.n,
        params.n
    );
    typing::assert_valid(program);
}

/// The input bound to build-time `ordinal`: inputs cycle when there are
/// fewer than the program declares, and an empty slice binds `zero`.
fn bind<'a>(data: &'a [Plaintext], ordinal: u32, zero: &'a Plaintext) -> &'a Plaintext {
    data.get(ordinal as usize % data.len().max(1)).unwrap_or(zero)
}

impl BgvExecutor {
    /// Creates an executor, generating keys and every rotation hint the
    /// program needs.
    ///
    /// # Panics
    ///
    /// Panics unless `program` is a well-typed BGV program over ring
    /// dimension `params.n`.
    pub fn new(params: BgvParams, program: &FheProgram, rng: &mut impl Rng) -> Self {
        assert_runnable(&params, program);
        let mut keys = KeySet::generate(&params, rng);
        let mut seen = std::collections::HashSet::new();
        for node in program.nodes() {
            if let FheOp::Aut { k, .. } = node.op {
                if seen.insert(k) {
                    keys.add_rotation_hint(k, rng);
                }
            }
        }
        Self { params, keys }
    }

    /// Runs a program. Each ciphertext input encrypts `cts[ordinal]` and
    /// each plaintext input binds `pts[ordinal]`, by its build-time
    /// ordinal, so differently-optimized variants of one program read
    /// the same data. Shorter slices cycle, and an empty one binds zero.
    /// Constants are encoded mod `t` before the timed evaluation, which
    /// runs the ciphertext ops only.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn run(
        &self,
        program: &FheProgram,
        cts: &[Plaintext],
        pts: &[Plaintext],
        rng: &mut impl Rng,
    ) -> FunctionalRun {
        assert_runnable(&self.params, program);
        // Encrypt inputs and bind plaintexts (client side and compile
        // time; not timed).
        let mut ct: HashMap<IrId, Ciphertext> = HashMap::new();
        let mut pt: HashMap<IrId, Plaintext> = HashMap::new();
        let zero = Plaintext::from_coeffs(&self.params, &[]);
        for (idx, node) in program.nodes().iter().enumerate() {
            let id = IrId(idx as u32);
            match &node.op {
                FheOp::CtInput { level, ordinal } => {
                    let m = bind(cts, *ordinal, &zero);
                    ct.insert(id, self.keys.encrypt_at_level(m, *level, rng));
                }
                FheOp::PtInput { ordinal, .. } => {
                    pt.insert(id, bind(pts, *ordinal, &zero).clone());
                }
                FheOp::Constant { coeffs, .. } => {
                    pt.insert(id, Plaintext::from_coeffs(&self.params, coeffs));
                }
                _ => {}
            }
        }
        // Homomorphic evaluation (timed — the server-side work F1
        // accelerates).
        let start = Instant::now();
        let mut hom_ops = 0usize;
        for (idx, node) in program.nodes().iter().enumerate() {
            let r = match &node.op {
                FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => continue,
                FheOp::Add(a, b) => ct[a].add(&ct[b]),
                FheOp::AddPlain(a, p) => ct[a].add_plain(&pt[p], &self.params),
                FheOp::Mul(a, b) => ct[a].mul(&ct[b], self.keys.relin_hint()),
                FheOp::MulPlain(a, p) => ct[a].mul_plain(&pt[p], &self.params),
                FheOp::Aut { a, k } => ct[a].automorphism(*k, self.keys.rotation_hint(*k)),
                FheOp::ModSwitch(a) => ct[a].mod_switch_down(),
            };
            hom_ops += 1;
            ct.insert(IrId(idx as u32), r);
        }
        let eval_time = start.elapsed();
        let output_noise =
            program.outputs().iter().map(|o| self.keys.decrypt_noise(&ct[o])).collect();
        let outputs = program.outputs().iter().map(|o| self.keys.decrypt(&ct[o])).collect();
        FunctionalRun { outputs, output_noise, eval_time, hom_ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_fhe::encoding::SlotEncoder;
    use rand::SeedableRng;

    #[test]
    fn functional_matvec_is_correct() {
        // Listing 2's matrix-vector multiply, executed on real BGV with
        // slot-packed data: every slot of each output row must hold the
        // dot product of that row with the vector.
        let n = 64usize;
        let rows = 2usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F1);
        let params = BgvParams::test_small(n, 4);
        let enc = SlotEncoder::new(&params);
        let t = params.plaintext_modulus;

        // The program: per row, Mul + innerSum over the slot count.
        let mut f = FheProgram::new(n, Scheme::Bgv);
        let m_rows: Vec<IrId> = (0..rows).map(|_| f.input(4)).collect();
        let v = f.input(4);
        for &row in &m_rows {
            let prod = f.mul(row, v);
            let sum = f.inner_sum(prod, n / 2);
            f.output(sum);
        }

        let exec = BgvExecutor::new(params.clone(), &f, &mut rng);
        // Data: small values so slot products stay below t. The rows are
        // inputs 0.., the vector the last input.
        let vec_data: Vec<u64> = (0..n / 2).map(|j| (j % 7) as u64).collect();
        let row_data: Vec<Vec<u64>> =
            (0..rows).map(|r| (0..n / 2).map(|j| ((j + r) % 5) as u64).collect()).collect();
        let mut inputs: Vec<Plaintext> =
            row_data.iter().map(|row| enc.encode(&[row.clone(), row.clone()], &params)).collect();
        inputs.push(enc.encode(&[vec_data.clone(), vec_data.clone()], &params));

        let run = exec.run(&f, &inputs, &[], &mut rng);
        assert_eq!(run.outputs.len(), rows);
        assert!(run.eval_time.as_nanos() > 0);
        for (r, out) in run.outputs.iter().enumerate() {
            let dot: u64 = row_data[r].iter().zip(&vec_data).map(|(&a, &b)| a * b).sum::<u64>() % t;
            let slots = enc.decode(out);
            assert!(
                slots[0].iter().all(|&s| s == dot),
                "row {r}: expected all slots = {dot}, got {:?}",
                &slots[0][..4]
            );
        }
    }

    #[test]
    fn functional_depth_chain_with_modswitch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F2);
        let params = BgvParams::test_small(64, 3);
        let mut f = FheProgram::new(64, Scheme::Bgv);
        let x = f.input(3);
        let sq = f.mul(x, x);
        let down = f.mod_switch(sq);
        let y = f.mul(down, down);
        f.output(y);
        let exec = BgvExecutor::new(params.clone(), &f, &mut rng);
        let run = exec.run(&f, &[Plaintext::from_coeffs(&params, &[3])], &[], &mut rng);
        assert_eq!(run.outputs[0].coeff(0), 81, "3^4 = 81");
        assert_eq!(run.hom_ops, 3);
    }

    #[test]
    fn plain_operand_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F3);
        let params = BgvParams::test_small(64, 2);
        let mut f = FheProgram::new(64, Scheme::Bgv);
        let x = f.input(2);
        let w = f.plain_input(2);
        let y = f.mul_plain(x, w);
        let z = f.add_plain(y, w);
        f.output(z);
        let exec = BgvExecutor::new(params.clone(), &f, &mut rng);
        let (xs, ws) =
            ([Plaintext::from_coeffs(&params, &[7])], [Plaintext::from_coeffs(&params, &[3])]);
        let run = exec.run(&f, &xs, &ws, &mut rng);
        assert_eq!(run.outputs[0].coeff(0), 7 * 3 + 3);
    }

    #[test]
    fn constant_operands_run() {
        // Constants are encoded mod t and CSE merges the repeated one:
        // x·6 and x + 6 decrypt alike unoptimized and optimized, to 42
        // and 13 at x = 7.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F4);
        let params = BgvParams::test_small(64, 2);
        let mut f = FheProgram::new(64, Scheme::Bgv);
        let x = f.input(2);
        let c6 = f.scalar(6, 2);
        let m = f.mul_plain(x, c6);
        f.output(m);
        let c6 = f.scalar(6, 2);
        let s = f.add_plain(x, c6);
        f.output(s);
        let (opt, stats) = f.optimize();
        assert_eq!(stats.cse_merged, 1, "the repeated constant merges");
        let xs = [Plaintext::from_coeffs(&params, &[7])];
        let exec = BgvExecutor::new(params.clone(), &f, &mut rng);
        let unopt = exec.run(&f, &xs, &[], &mut rng).outputs;
        let opt = exec.run(&opt, &xs, &[], &mut rng).outputs;
        assert_eq!(unopt, opt);
        let want = [7 * 6, 7 + 6].map(|v| Plaintext::from_coeffs(&params, &[v]));
        assert_eq!(unopt, want);
    }

    #[test]
    fn inputs_bind_by_ordinal_after_dce() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F5);
        let params = BgvParams::test_small(64, 2);
        let mut f = FheProgram::new(64, Scheme::Bgv);
        let _unused = f.input(2); // dropped by DCE
        let x = f.input(2);
        let m = f.square(x);
        f.output(m);
        let (q, _) = f.optimize();
        // The surviving input is now the program's first node, and keeps
        // ordinal 1, so it still reads `cts[1]`.
        assert!(matches!(q.nodes()[0].op, FheOp::CtInput { ordinal: 1, .. }));
        let xs = [7, 3].map(|v| Plaintext::from_coeffs(&params, &[v]));
        let exec = BgvExecutor::new(params, &q, &mut rng);
        assert_eq!(exec.run(&q, &xs, &[], &mut rng).outputs[0].coeff(0), 9);
    }

    #[test]
    #[should_panic(expected = "BGV programs only, not CKKS")]
    fn non_bgv_programs_are_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F6);
        let mut f = FheProgram::new(64, Scheme::Ckks);
        let x = f.input(2);
        f.output(x);
        BgvExecutor::new(BgvParams::test_small(64, 2), &f, &mut rng);
    }

    #[test]
    #[should_panic(expected = "program ring dimension 128 differs from the parameters' 64")]
    fn ring_mismatch_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F7);
        let mut f = FheProgram::new(128, Scheme::Bgv);
        let x = f.input(2);
        f.output(x);
        BgvExecutor::new(BgvParams::test_small(64, 2), &f, &mut rng);
    }
}
