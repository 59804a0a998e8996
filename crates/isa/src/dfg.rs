//! The instruction-level dataflow graph (Fig 3's "Instruction DFG").
//!
//! Values are single residue polynomials (`RVec`s); instructions are the
//! vector operations F1's functional units implement. The graph is in SSA
//! form — each value has exactly one producer (or none, for inputs loaded
//! from memory) — and is acyclic by construction because instructions may
//! only reference already-registered values.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Identifies a value (one `RVec`) in a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifies an instruction in a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

/// The vector operations F1's functional units implement (§3, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOp {
    /// Element-wise modular addition.
    Add,
    /// Element-wise modular subtraction (executes on the adder FU).
    Sub,
    /// Element-wise modular multiplication.
    Mul,
    /// Multiplication by a scalar constant (modular multiplier with one
    /// broadcast operand; used by modulus switching and the base
    /// conversions of GHS key-switching). The operand's centered
    /// representative is reduced modulo the output's limb first, so a
    /// `ScalarMul` can move a residue vector to another limb.
    ScalarMul {
        /// The constant.
        c: Scalar,
    },
    /// Scalar multiply-accumulate `dst = src0 + c * src1`, with `src1`
    /// moved to the output's limb like a [`VectorOp::ScalarMul`] operand:
    /// one step of a base conversion. [`VectorOp::fu_type`] puts it on the
    /// Mul class only, so pass 3 books one Mul slot for it and no adder,
    /// and the checker and the energy counters charge it likewise. Whether
    /// the add half should occupy an adder is the ROADMAP item "Charge the
    /// base conversions' multiply-accumulates to the units that run them".
    ScalarMulAdd {
        /// The constant `c`.
        c: Scalar,
    },
    /// Forward NTT (limb-local; §5.2's four-step unit).
    Ntt,
    /// Inverse NTT.
    Intt,
    /// Automorphism `σ_k` (§5.1's column/transpose/row unit).
    Aut {
        /// The automorphism exponent (odd, `< 2N`).
        k: usize,
    },
    /// Copy/move (realized by the network + register files, but counted
    /// as an instruction when materializing a value under a new id).
    Copy,
}

impl VectorOp {
    /// The functional-unit class that executes this operation.
    pub fn fu_type(&self) -> crate::streams::FuType {
        use crate::streams::FuType;
        match self {
            VectorOp::Add | VectorOp::Sub | VectorOp::Copy => FuType::Add,
            VectorOp::Mul | VectorOp::ScalarMul { .. } | VectorOp::ScalarMulAdd { .. } => {
                FuType::Mul
            }
            VectorOp::Ntt | VectorOp::Intt => FuType::Ntt,
            VectorOp::Aut { .. } => FuType::Aut,
        }
    }

    /// Number of input operands.
    pub fn arity(&self) -> usize {
        match self {
            VectorOp::Add | VectorOp::Sub | VectorOp::Mul => 2,
            VectorOp::ScalarMulAdd { .. } => 2,
            VectorOp::ScalarMul { .. }
            | VectorOp::Ntt
            | VectorOp::Intt
            | VectorOp::Aut { .. }
            | VectorOp::Copy => 1,
        }
    }
}

/// A scalar constant, named by what it is rather than by its value:
/// pass 1 knows a program's RNS structure but not its primes. Here
/// `Q_l = q_0 ⋯ q_{l-1}` is the modulus at level `l`, `P = p_0 ⋯ p_{k-1}`
/// the product of the `k` special primes, and `t` the plaintext modulus
/// (1 for CKKS). The constant is reduced modulo the instruction's output
/// limb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// `(Q_l / q_i)^{-1}`: scales digit `i` of a level-`l` polynomial
    /// before a base conversion out of `Q_l`.
    QHatInv {
        /// The level `l`.
        l: u16,
        /// The digit `i`.
        i: u16,
    },
    /// `Q_l / q_i`: the weight of digit `i` in a base conversion out of
    /// `Q_l`.
    QHat {
        /// The level `l`.
        l: u16,
        /// The digit `i`.
        i: u16,
    },
    /// `t · p_i^{-1}`: the weight of special digit `i` in ModDown's base
    /// conversion out of `P`. It is the CRT weight `P / p_i`, times `t` so
    /// that the converted value is a multiple of `t`, times the `P^{-1}`
    /// that ends a key-switch. GHS hints carry that `P^{-1}` and the
    /// digits' `(t · P / p_i)^{-1}` scales as key material, so ModDown
    /// multiplies by no other constant.
    TPInv {
        /// The digit `i`.
        i: u16,
    },
    /// `q_i^{-1}`: the division by the limb a modulus switch drops.
    QInv {
        /// The dropped limb `i`.
        i: u16,
    },
}

/// The RNS prime a residue vector is reduced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limb {
    /// Program prime `q_i`.
    Q(u16),
    /// Special prime `p_i`, of the basis GHS key-switching extends into.
    P(u16),
}

/// What a value is, for the data-movement accounting of Fig 9a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// A residue vector of a key-switch hint (streamed from memory,
    /// heavily reused; the dominant traffic class, §2.4).
    KeySwitchHint,
    /// A program input (ciphertext or plaintext residue vector).
    Input,
    /// An intermediate produced by computation.
    Intermediate,
    /// A program output (must be stored to memory at the end).
    Output,
}

/// Metadata for one value.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    /// The value's id.
    pub id: ValueId,
    /// Traffic class.
    pub kind: ValueKind,
    /// The prime its residues are reduced by.
    pub limb: Limb,
    /// Optional label for diagnostics (e.g. `"ksh_mul[3][7]"`).
    pub label: Option<String>,
}

/// One vector instruction.
#[derive(Debug, Clone)]
pub struct Instruction {
    /// The instruction's id (index into the DFG's instruction list).
    pub id: InstrId,
    /// The operation.
    pub op: VectorOp,
    /// Input values, in operand order: the first `op.arity()` slots (see
    /// [`Instruction::inputs`]). Inline, so an instruction allocates
    /// nothing.
    operands: [ValueId; 2],
    /// The single produced value.
    pub output: ValueId,
    /// Global order priority assigned by the homomorphic-operation
    /// compiler (§4.2): lower = earlier in the reuse-maximizing order.
    pub priority: u64,
}

impl Instruction {
    /// Input values, in operand order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.operands[..self.op.arity()]
    }
}

/// The instruction-level dataflow graph.
///
/// Producer/user relations are dense arrays indexed by [`ValueId`] (ids
/// are allocated densely by construction): the schedulers touch them
/// several times per instruction and hashing dominated the passes at
/// full benchmark scale.
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    /// Ring dimension: every value is an `N`-element residue vector.
    pub n: usize,
    values: Vec<ValueInfo>,
    instrs: Vec<Instruction>,
    /// producer[v] = instruction that writes v (None for graph inputs).
    producer: Vec<Option<InstrId>>,
    /// Every value's users, built from `instrs` on the first
    /// [`Dfg::users`] call and dropped by any later addition.
    users: OnceLock<Users>,
    /// Values that must be written back to memory.
    outputs: Vec<ValueId>,
}

impl Dfg {
    /// Creates an empty graph over ring dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n, ..Default::default() }
    }

    /// Registers a new value of the given kind on `limb` and returns its
    /// id.
    pub fn add_value(&mut self, kind: ValueKind, limb: Limb, label: Option<String>) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo { id, kind, limb, label });
        self.producer.push(None);
        self.users.take();
        id
    }

    /// Adds an instruction producing a fresh intermediate value on `limb`.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the op's arity or an
    /// input id is unknown.
    pub fn add_instr(
        &mut self,
        op: VectorOp,
        inputs: &[ValueId],
        limb: Limb,
        priority: u64,
    ) -> ValueId {
        assert_eq!(inputs.len(), op.arity(), "operand count mismatch for {op:?}");
        for &v in inputs {
            assert!((v.0 as usize) < self.values.len(), "unknown input value {v:?}");
        }
        let out = self.add_value(ValueKind::Intermediate, limb, None);
        let id = InstrId(self.instrs.len() as u32);
        self.producer[out.0 as usize] = Some(id);
        // An unused second slot repeats the first operand.
        let operands = [inputs[0], inputs[inputs.len() - 1]];
        self.instrs.push(Instruction { id, op, operands, output: out, priority });
        out
    }

    /// Marks a value as a program output.
    pub fn mark_output(&mut self, v: ValueId) {
        if let Some(info) = self.values.get_mut(v.0 as usize) {
            if info.kind == ValueKind::Intermediate {
                info.kind = ValueKind::Output;
            }
        }
        self.outputs.push(v);
    }

    /// All values.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// Bytes of every value: one `N`-element residue vector of 32-bit
    /// words.
    pub fn vector_bytes(&self) -> u64 {
        4 * self.n as u64
    }

    /// Metadata for a value.
    pub fn value(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    /// All instructions, in creation order.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// An instruction by id.
    pub fn instr(&self, i: InstrId) -> &Instruction {
        &self.instrs[i.0 as usize]
    }

    /// The producing instruction of a value, if any (inputs have none).
    pub fn producer(&self, v: ValueId) -> Option<InstrId> {
        self.producer[v.0 as usize]
    }

    /// The instructions consuming a value, in creation order (an
    /// instruction reading `v` twice appears twice).
    pub fn users(&self, v: ValueId) -> &[InstrId] {
        let users = self.users.get_or_init(|| Users::new(self));
        let v = v.0 as usize;
        &users.instrs[users.start[v] as usize..users.start[v + 1] as usize]
    }

    /// Program outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Operation histogram, keyed by vector-op name (diagnostics and
    /// pass 1's instruction-count tests).
    pub fn op_counts(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for i in &self.instrs {
            let key = match i.op {
                VectorOp::Add => "add",
                VectorOp::Sub => "sub",
                VectorOp::Mul => "mul",
                VectorOp::ScalarMul { .. } => "scalar_mul",
                VectorOp::ScalarMulAdd { .. } => "scalar_mul_add",
                VectorOp::Ntt => "ntt",
                VectorOp::Intt => "intt",
                VectorOp::Aut { .. } => "aut",
                VectorOp::Copy => "copy",
            };
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }

    /// Critical-path depth of every instruction: the weighted longest
    /// path from the instruction to any sink, where `weight(i)` is the
    /// contribution of instruction `i` itself (e.g. its exposed latency).
    /// The cycle-level scheduler ranks ready instructions by this (§4.4:
    /// longest dependence chains first). Runs in O(V + E) because
    /// instructions are topologically ordered by construction.
    pub fn critical_depths(&self, weight: &dyn Fn(&Instruction) -> u64) -> Vec<u64> {
        let mut depth = vec![0u64; self.instrs.len()];
        for instr in self.instrs.iter().rev() {
            let below =
                self.users(instr.output).iter().map(|u| depth[u.0 as usize]).max().unwrap_or(0);
            depth[instr.id.0 as usize] = weight(instr) + below;
        }
        depth
    }

    /// Validates SSA and acyclicity invariants; returns instruction count.
    ///
    /// # Panics
    ///
    /// Panics on violation (this is a checker, mirroring the paper's
    /// validation-style simulator, §7).
    pub fn validate(&self) -> usize {
        for instr in &self.instrs {
            for &v in instr.inputs() {
                if let Some(p) = self.producer(v) {
                    assert!(p < instr.id, "instruction {:?} uses value produced later", instr.id);
                }
            }
        }
        self.instrs.len()
    }
}

/// Every value's users as one compressed index: value `v`'s users are
/// `instrs[start[v]..start[v + 1]]`. One allocation per table, where a
/// list per value made one per value and kept the allocator's heap high
/// after the graph was dropped.
#[derive(Debug, Clone)]
struct Users {
    start: Vec<u32>,
    instrs: Vec<InstrId>,
}

impl Users {
    fn new(dfg: &Dfg) -> Self {
        let mut start = vec![0u32; dfg.values.len() + 1];
        for v in dfg.instrs.iter().flat_map(|i| i.inputs()) {
            start[v.0 as usize + 1] += 1;
        }
        for v in 0..dfg.values.len() {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut instrs = vec![InstrId(0); start[dfg.values.len()] as usize];
        for i in &dfg.instrs {
            for v in i.inputs() {
                let slot = &mut next[v.0 as usize];
                instrs[*slot as usize] = i.id;
                *slot += 1;
            }
        }
        Self { start, instrs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q0: Limb = Limb::Q(0);

    fn tiny_graph() -> (Dfg, ValueId, ValueId, ValueId) {
        let mut g = Dfg::new(1024);
        let a = g.add_value(ValueKind::Input, Q0, Some("a".into()));
        let b = g.add_value(ValueKind::Input, Q0, Some("b".into()));
        let h = g.add_value(ValueKind::KeySwitchHint, Q0, Some("ksh".into()));
        (g, a, b, h)
    }

    #[test]
    fn ssa_and_users() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, &[a, b], Q0, 0);
        let p = g.add_instr(VectorOp::Mul, &[s, h], Q0, 1);
        let t = g.add_instr(VectorOp::Ntt, &[p], Q0, 2);
        g.mark_output(t);
        assert_eq!(g.validate(), 3);
        assert_eq!(g.users(s).len(), 1);
        assert_eq!(g.producer(t), Some(InstrId(2)));
        assert_eq!(g.producer(a), None);
        assert_eq!(g.outputs(), &[t]);
        assert_eq!(g.value(t).kind, ValueKind::Output);
        // An addition after a `users` call is seen by the next one, and
        // an instruction reading a value twice is listed twice.
        g.add_instr(VectorOp::Mul, &[s, s], Q0, 3);
        assert_eq!(g.users(s), &[InstrId(1), InstrId(3), InstrId(3)]);
    }

    #[test]
    fn arity_checked() {
        let (mut g, a, _, _) = tiny_graph();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add_instr(VectorOp::Add, &[a], Q0, 0);
        }));
        assert!(r.is_err(), "Add with one operand must panic");
    }

    #[test]
    fn value_sizes_follow_ring() {
        let g = Dfg::new(16384);
        assert_eq!(g.vector_bytes(), 64 * 1024, "one RVec at N=16K is 64 KB (§2.4)");
    }

    #[test]
    fn op_histogram() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, &[a, b], Q0, 0);
        let m = g.add_instr(VectorOp::Mul, &[s, h], Q0, 1);
        let _ = g.add_instr(VectorOp::Aut { k: 3 }, &[m], Q0, 2);
        let counts = g.op_counts();
        assert_eq!(counts["add"], 1);
        assert_eq!(counts["mul"], 1);
        assert_eq!(counts["aut"], 1);
    }

    #[test]
    fn critical_depths_follow_longest_path() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, &[a, b], Q0, 0); // depth: w(add)+w(mul)+w(ntt)
        let p = g.add_instr(VectorOp::Mul, &[s, h], Q0, 1);
        let t = g.add_instr(VectorOp::Ntt, &[p], Q0, 2);
        g.mark_output(t);
        let w = |i: &Instruction| match i.op {
            VectorOp::Add => 4u64,
            VectorOp::Mul => 8,
            VectorOp::Ntt => 100,
            _ => 1,
        };
        let d = g.critical_depths(&w);
        assert_eq!(d, vec![112, 108, 100]);
    }
}
