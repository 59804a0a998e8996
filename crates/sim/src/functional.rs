//! The functional simulator (§8.5) — and the timed CPU software baseline.
//!
//! The paper's functional simulator executes FHE computations in software
//! (on top of a number-theory library) to verify input-output correctness
//! and generate dataflow graphs; the algorithms match common software
//! implementations rather than F1's hardware dataflow. Here that role is
//! played by `f1-fhe`: this module interprets DSL programs against the
//! real BGV implementation, both to validate results end-to-end and to
//! *time* the software execution — the CPU baseline of Table 3, in place
//! of the paper's Xeon baseline.

use f1_compiler::dsl::{CtId, HomOp, Program};
use f1_compiler::ir::Lowered;
use f1_fhe::bgv::{Ciphertext, KeySet, Plaintext};
use f1_fhe::params::BgvParams;
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Binds a lowering's compile-time constants ([`Lowered::constants`],
/// the plaintexts the IR's constant folder produced) as plaintext
/// operands for [`BgvExecutor::run`]. Folding is overflow-checked exact
/// integer arithmetic, so reducing the folded coefficients mod `t` here
/// yields the same residues as evaluating the original constant ops.
pub fn bind_constants(lowered: &Lowered, params: &BgvParams) -> HashMap<CtId, Plaintext> {
    lowered
        .constants
        .iter()
        .map(|(id, coeffs)| (*id, Plaintext::from_coeffs(params, coeffs)))
        .collect()
}

/// Executes DSL programs against the real BGV scheme.
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

impl BgvExecutor {
    /// Creates an executor, generating keys and every rotation hint the
    /// program needs.
    pub fn new(params: BgvParams, program: &Program, rng: &mut impl Rng) -> Self {
        let mut keys = KeySet::generate(&params, rng);
        let mut seen = std::collections::HashSet::new();
        for op in program.ops() {
            if let HomOp::Aut { k, .. } = op {
                if seen.insert(*k) {
                    keys.add_rotation_hint(*k, rng);
                }
            }
        }
        Self { params, keys }
    }

    /// The key set (e.g. for encrypting extra inputs in tests).
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// Runs a program. `inputs` supplies plaintexts for `Input` ops (by
    /// op id); missing entries default to zero. `plains` supplies
    /// unencrypted operands for `PlainInput` ops.
    pub fn run(
        &self,
        program: &Program,
        inputs: &HashMap<CtId, Plaintext>,
        plains: &HashMap<CtId, Plaintext>,
        rng: &mut impl Rng,
    ) -> FunctionalRun {
        // Encrypt inputs (client side; not timed).
        let mut cts: HashMap<CtId, Ciphertext> = HashMap::new();
        let mut pts: HashMap<CtId, Plaintext> = HashMap::new();
        let zero = Plaintext::from_coeffs(&self.params, &[]);
        for (idx, op) in program.ops().iter().enumerate() {
            let id = CtId(idx as u32);
            match op {
                HomOp::Input { level } => {
                    let m = inputs.get(&id).unwrap_or(&zero);
                    cts.insert(id, self.keys.encrypt_at_level(m, *level, rng));
                }
                HomOp::PlainInput { .. } => {
                    pts.insert(id, plains.get(&id).unwrap_or(&zero).clone());
                }
                _ => {}
            }
        }
        // Homomorphic evaluation (timed — the server-side work F1
        // accelerates).
        let start = Instant::now();
        let mut hom_ops = 0usize;
        for (idx, op) in program.ops().iter().enumerate() {
            let id = CtId(idx as u32);
            match op {
                HomOp::Input { .. } | HomOp::PlainInput { .. } => {}
                HomOp::Add { a, b } => {
                    hom_ops += 1;
                    let r = cts[a].add(&cts[b]);
                    cts.insert(id, r);
                }
                HomOp::AddPlain { a, p } => {
                    hom_ops += 1;
                    let r = cts[a].add_plain(&pts[p], &self.params);
                    cts.insert(id, r);
                }
                HomOp::Mul { a, b } => {
                    hom_ops += 1;
                    let r = cts[a].mul(&cts[b], self.keys.relin_hint());
                    cts.insert(id, r);
                }
                HomOp::MulPlain { a, p } => {
                    hom_ops += 1;
                    let r = cts[a].mul_plain(&pts[p], &self.params);
                    cts.insert(id, r);
                }
                HomOp::Aut { a, k } => {
                    hom_ops += 1;
                    let r = cts[a].automorphism(*k, self.keys.rotation_hint(*k));
                    cts.insert(id, r);
                }
                HomOp::ModSwitch { a } => {
                    hom_ops += 1;
                    let r = cts[a].mod_switch_down();
                    cts.insert(id, r);
                }
            }
        }
        let eval_time = start.elapsed();
        let output_noise =
            program.outputs().iter().map(|o| self.keys.decrypt_noise(&cts[o])).collect();
        let outputs = program.outputs().iter().map(|o| self.keys.decrypt(&cts[o])).collect();
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

        // The DSL program: per row, Mul + innerSum over the slot count.
        let mut p = Program::new(n);
        let m_rows: Vec<CtId> = (0..rows).map(|_| p.input(4)).collect();
        let v = p.input(4);
        for &row in &m_rows {
            let prod = p.mul(row, v);
            let sum = p.inner_sum(prod, n / 2);
            p.output(sum);
        }

        let exec = BgvExecutor::new(params.clone(), &p, &mut rng);
        // Data: small values so slot products stay below t.
        let vec_data: Vec<u64> = (0..n / 2).map(|j| (j % 7) as u64).collect();
        let row_data: Vec<Vec<u64>> =
            (0..rows).map(|r| (0..n / 2).map(|j| ((j + r) % 5) as u64).collect()).collect();
        let mut inputs = HashMap::new();
        for (r, &id) in m_rows.iter().enumerate() {
            inputs.insert(id, enc.encode(&[row_data[r].clone(), row_data[r].clone()], &params));
        }
        inputs.insert(v, enc.encode(&[vec_data.clone(), vec_data.clone()], &params));

        let run = exec.run(&p, &inputs, &HashMap::new(), &mut rng);
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
        let mut p = Program::new(64);
        let x = p.input(3);
        let sq = p.mul(x, x);
        let down = p.mod_switch(sq);
        let y = p.mul(down, down);
        p.output(y);
        let exec = BgvExecutor::new(params.clone(), &p, &mut rng);
        let mut inputs = HashMap::new();
        inputs.insert(x, Plaintext::from_coeffs(&params, &[3]));
        let run = exec.run(&p, &inputs, &HashMap::new(), &mut rng);
        assert_eq!(run.outputs[0].coeff(0), 81, "3^4 = 81");
        assert_eq!(run.hom_ops, 3);
    }

    #[test]
    fn plain_operand_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1F3);
        let params = BgvParams::test_small(64, 2);
        let mut p = Program::new(64);
        let x = p.input(2);
        let w = p.plain_input(2);
        let y = p.mul_plain(x, w);
        let z = p.add_plain(y, w);
        p.output(z);
        let exec = BgvExecutor::new(params.clone(), &p, &mut rng);
        let mut inputs = HashMap::new();
        inputs.insert(x, Plaintext::from_coeffs(&params, &[7]));
        let mut plains = HashMap::new();
        plains.insert(w, Plaintext::from_coeffs(&params, &[3]));
        let run = exec.run(&p, &inputs, &plains, &mut rng);
        assert_eq!(run.outputs[0].coeff(0), 7 * 3 + 3);
    }
}
