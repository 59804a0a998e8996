//! The homomorphic-operation list of Listing 2, as pass 1 reads it.
//!
//! A [`Program`] is the lowered form of an [`crate::FheProgram`]:
//! ciphertext inputs, homomorphic multiply/add/rotate and explicit
//! noise-budget management via `mod_switch` (§2.1, §4.1), with every
//! value's level already checked by the typed frontend. Programs are
//! written on `FheProgram`; this module holds only the lowering's output.

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

/// A homomorphic program: a DAG of [`HomOp`]s over ring dimension `N`,
/// the scheduler-facing form of an [`crate::FheProgram`]. Only
/// [`crate::FheProgram::lower`] builds one; op `i` is the IR node
/// `IrId(i)`.
#[derive(Debug, Clone)]
pub struct Program {
    /// Ring dimension.
    pub n: usize,
    ops: Vec<HomOp>,
    /// level[i] = RNS limbs of the value produced by op i.
    levels: Vec<usize>,
    outputs: Vec<CtId>,
}

impl Program {
    /// Creates an empty program over ring dimension `n` with the given
    /// outputs (ops pushed later must define them).
    pub(crate) fn with_outputs(n: usize, outputs: Vec<CtId>) -> Self {
        Self { n, ops: Vec::new(), levels: Vec::new(), outputs }
    }

    /// Appends `op`, whose value sits at `level` RNS limbs. The lowering
    /// has already type-checked it against the IR's typing rules.
    pub(crate) fn push(&mut self, op: HomOp, level: usize) {
        self.ops.push(op);
        self.levels.push(level);
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
}
