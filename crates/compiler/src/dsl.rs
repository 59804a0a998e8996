//! The high-level FHE DSL of Listing 2.
//!
//! Programs are written at the level of the FHE interface (§2.1):
//! ciphertext inputs, homomorphic multiply/add/rotate, and explicit
//! noise-budget management via `mod_switch` (the compiler does not
//! automate noise management; the DSL encodes the desired budget, §4.1).

/// Identifies a ciphertext (or plaintext operand) in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtId(pub u32);

/// One homomorphic operation.
#[derive(Debug, Clone)]
pub enum HomOp {
    /// An encrypted input at a given level.
    Input {
        /// Number of RNS limbs at entry.
        level: usize,
    },
    /// An unencrypted operand (one polynomial instead of two; the cheap
    /// multiplicand of §2.1).
    PlainInput {
        /// Number of RNS limbs at entry.
        level: usize,
    },
    /// Homomorphic addition.
    Add {
        /// Left operand.
        a: CtId,
        /// Right operand.
        b: CtId,
    },
    /// Addition of an unencrypted operand.
    AddPlain {
        /// Ciphertext operand.
        a: CtId,
        /// Plaintext operand.
        p: CtId,
    },
    /// Homomorphic multiplication (tensor + key-switch, §2.2.1).
    Mul {
        /// Left operand.
        a: CtId,
        /// Right operand.
        b: CtId,
    },
    /// Multiplication by an unencrypted operand (no key-switch needed).
    MulPlain {
        /// Ciphertext operand.
        a: CtId,
        /// Plaintext operand.
        p: CtId,
    },
    /// Homomorphic automorphism `σ_k` + key-switch (rotations use
    /// `k = 3^amount`).
    Aut {
        /// Ciphertext operand.
        a: CtId,
        /// Automorphism exponent.
        k: usize,
    },
    /// Modulus switch to the next level down (§2.2.2).
    ModSwitch {
        /// Ciphertext operand.
        a: CtId,
    },
}

/// A homomorphic program: a DAG of [`HomOp`]s over ring dimension `N`.
#[derive(Debug, Clone)]
pub struct Program {
    /// Ring dimension.
    pub n: usize,
    ops: Vec<HomOp>,
    /// level[i] = RNS limbs of the value produced by op i.
    levels: Vec<usize>,
    /// Whether the produced value is a plaintext (single polynomial).
    plain: Vec<bool>,
    outputs: Vec<CtId>,
}

impl Program {
    /// Creates an empty program over ring dimension `n` (Listing 2's
    /// `Program(N = 16384)`).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "ring dimension must be a power of two");
        Self { n, ops: Vec::new(), levels: Vec::new(), plain: Vec::new(), outputs: Vec::new() }
    }

    fn push(&mut self, op: HomOp, level: usize, plain: bool) -> CtId {
        let id = CtId(self.ops.len() as u32);
        self.ops.push(op);
        self.levels.push(level);
        self.plain.push(plain);
        id
    }

    /// Declares an encrypted input with `level` RNS limbs (Listing 2's
    /// `p.Input(L = 16)`).
    pub fn input(&mut self, level: usize) -> CtId {
        assert!(level >= 1);
        self.push(HomOp::Input { level }, level, false)
    }

    /// Declares an unencrypted input.
    pub fn plain_input(&mut self, level: usize) -> CtId {
        assert!(level >= 1);
        self.push(HomOp::PlainInput { level }, level, true)
    }

    /// Homomorphic addition.
    pub fn add(&mut self, a: CtId, b: CtId) -> CtId {
        let l = self.join_levels(a, b);
        assert!(!self.plain[a.0 as usize] && !self.plain[b.0 as usize]);
        self.push(HomOp::Add { a, b }, l, false)
    }

    /// Adds an unencrypted operand to a ciphertext. The plaintext may sit
    /// at a higher level (its excess RNS limbs are ignored); the result
    /// takes the ciphertext's level.
    pub fn add_plain(&mut self, a: CtId, p: CtId) -> CtId {
        let l = self.join_plain_level(a, p);
        assert!(self.plain[p.0 as usize], "second operand must be plain");
        self.push(HomOp::AddPlain { a, p }, l, false)
    }

    /// Homomorphic multiplication (Listing 2's `Mul`).
    pub fn mul(&mut self, a: CtId, b: CtId) -> CtId {
        let l = self.join_levels(a, b);
        assert!(!self.plain[a.0 as usize] && !self.plain[b.0 as usize]);
        self.push(HomOp::Mul { a, b }, l, false)
    }

    /// Multiplication by an unencrypted operand. As with
    /// [`Self::add_plain`], the plaintext's level only needs to cover the
    /// ciphertext's.
    pub fn mul_plain(&mut self, a: CtId, p: CtId) -> CtId {
        let l = self.join_plain_level(a, p);
        assert!(self.plain[p.0 as usize], "second operand must be plain");
        self.push(HomOp::MulPlain { a, p }, l, false)
    }

    /// Homomorphic rotation by `amount` slots (Listing 2's `Rotate`):
    /// automorphism with exponent `3^amount mod 2N`.
    pub fn rotate(&mut self, a: CtId, amount: usize) -> CtId {
        let two_n = 2 * self.n;
        let mut k = 1usize;
        for _ in 0..amount {
            k = k * 3 % two_n;
        }
        self.aut(a, k)
    }

    /// Homomorphic automorphism with an explicit exponent.
    pub fn aut(&mut self, a: CtId, k: usize) -> CtId {
        assert!(k % 2 == 1 && k < 2 * self.n, "invalid automorphism exponent {k}");
        let l = self.levels[a.0 as usize];
        self.push(HomOp::Aut { a, k }, l, false)
    }

    /// Modulus switch one level down.
    pub fn mod_switch(&mut self, a: CtId) -> CtId {
        let l = self.levels[a.0 as usize];
        assert!(l >= 2, "cannot switch below level 1");
        self.push(HomOp::ModSwitch { a }, l - 1, false)
    }

    /// The `innerSum` idiom of Listing 2: `log2(count)` rotate-and-add
    /// steps that leave every slot holding the sum.
    pub fn inner_sum(&mut self, mut x: CtId, count: usize) -> CtId {
        assert!(count.is_power_of_two());
        let steps = count.trailing_zeros();
        for i in 0..steps {
            let r = self.rotate(x, 1 << i);
            x = self.add(x, r);
        }
        x
    }

    /// Marks a value as a program output.
    pub fn output(&mut self, x: CtId) {
        self.outputs.push(x);
    }

    fn join_levels(&self, a: CtId, b: CtId) -> usize {
        let (la, lb) = (self.levels[a.0 as usize], self.levels[b.0 as usize]);
        assert_eq!(la, lb, "operand levels differ ({la} vs {lb}); insert mod_switch");
        la
    }

    fn join_plain_level(&self, a: CtId, p: CtId) -> usize {
        let (la, lp) = (self.levels[a.0 as usize], self.levels[p.0 as usize]);
        assert!(lp >= la, "plaintext level {lp} does not cover ciphertext level {la}");
        la
    }

    /// All operations, in creation order.
    pub fn ops(&self) -> &[HomOp] {
        &self.ops
    }

    /// Level of a value.
    pub fn level_of(&self, x: CtId) -> usize {
        self.levels[x.0 as usize]
    }

    /// Program outputs.
    pub fn outputs(&self) -> &[CtId] {
        &self.outputs
    }

    /// Builds the 4×16K matrix-vector multiply of Listing 2 at level `l`
    /// (the running example of §4.1).
    pub fn listing2_matvec(n: usize, l: usize, rows: usize) -> Self {
        let mut p = Self::new(n);
        let m_rows: Vec<CtId> = (0..rows).map(|_| p.input(l)).collect();
        let v = p.input(l);
        for &row in &m_rows {
            let prod = p.mul(row, v);
            let sum = p.inner_sum(prod, n);
            p.output(sum);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing2_shape() {
        // 4 multiplies + log2(16K)=14 rotations and adds per row.
        let p = Program::listing2_matvec(1 << 14, 16, 4);
        let muls = p.ops().iter().filter(|o| matches!(o, HomOp::Mul { .. })).count();
        let auts = p.ops().iter().filter(|o| matches!(o, HomOp::Aut { .. })).count();
        let adds = p.ops().iter().filter(|o| matches!(o, HomOp::Add { .. })).count();
        assert_eq!(muls, 4);
        assert_eq!(auts, 4 * 14);
        assert_eq!(adds, 4 * 14);
        assert_eq!(p.outputs().len(), 4);
    }

    #[test]
    fn rotations_use_3_pow_k() {
        let mut p = Program::new(1024);
        let x = p.input(2);
        p.rotate(x, 2);
        match p.ops().last().unwrap() {
            HomOp::Aut { k, .. } => assert_eq!(*k, 9),
            other => panic!("expected Aut, got {other:?}"),
        }
    }

    #[test]
    fn mod_switch_drops_level() {
        let mut p = Program::new(1024);
        let x = p.input(3);
        let y = p.mod_switch(x);
        assert_eq!(p.level_of(y), 2);
    }

    #[test]
    #[should_panic(expected = "levels differ")]
    fn level_mismatch_is_rejected() {
        let mut p = Program::new(1024);
        let x = p.input(3);
        let y = p.input(2);
        p.add(x, y);
    }

    #[test]
    fn inner_sum_emits_log_steps() {
        let mut p = Program::new(1024);
        let x = p.input(2);
        let _ = p.inner_sum(x, 1024);
        let auts = p.ops().iter().filter(|o| matches!(o, HomOp::Aut { .. })).count();
        assert_eq!(auts, 10);
    }
}
