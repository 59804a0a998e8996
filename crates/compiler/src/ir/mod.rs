//! The `FheProgram` IR — the typed, scheme-aware frontend every program
//! is written on.
//!
//! Pass 1 reads Listing 2's thin homomorphic-op list ([`crate::dsl`]):
//! untyped ciphertext handles and exactly the operations it expands.
//! Real workloads want more — scheme-specific typing (BGV levels, CKKS
//! scales, GSW depth), plaintext *constants* the compiler can fold, and
//! redundancy elimination before the expensive key-switch expansion
//! multiplies every homomorphic op into hundreds of vector instructions.
//! This module is that layer:
//!
//! * [`FheProgram`] is simultaneously the circuit **builder** (typed
//!   `input`/`mul`/`rotate`/... methods that check levels and scales at
//!   construction time, by [`crate::analysis::typing::infer`]'s rules)
//!   and the **normalized IR**: a flat SSA node list whose value ids
//!   ([`IrId`]) are dense indices in creation order — stable and
//!   deterministic by construction, never derived from hash iteration.
//! * [`passes`] implements the optimization pipeline — constant folding,
//!   rotation/automorphism dedup, common-subexpression elimination,
//!   key-switch hoisting and dead-code elimination (see
//!   [`FheProgram::optimize`]).
//! * [`lower`] translates the (optimized) IR 1:1 into a
//!   [`crate::dsl::Program`] for the three scheduling passes. Functional
//!   execution (`f1_sim::BgvExecutor`) runs the IR itself.
//!
//! The pipeline is therefore: **frontend → IR passes → DFG → pass 1/2/3**
//! (Fig 3, with the IR inserted where the paper's "homomorphic-operation
//! compiler" consumes its input program).

pub mod lower;
pub mod passes;
pub mod rescale;

pub use lower::Lowered;
pub use passes::OptStats;
pub use rescale::RescaleStats;

use crate::analysis::typing;

/// Identifies one value (node) in an [`FheProgram`].
///
/// Ids are dense indices into the node list in creation order; every
/// pass renumbers survivors in that same order, so ids are deterministic
/// for a given builder call sequence — no hash-iteration order anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrId(pub u32);

/// The FHE scheme a program is typed against (§2.5: at the instruction
/// level all three compile to the same vector operations; the scheme
/// governs frontend *typing* — what the builder accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// BGV: exact modular arithmetic, level-typed modulus chain.
    Bgv,
    /// CKKS: approximate arithmetic; additionally tracks a scale (in
    /// units of the base scaling factor Δ) that rescaling consumes.
    Ckks,
    /// GSW: no modulus chain — `mod_switch` is rejected, multiplicative
    /// depth is tracked instead (the bootstrapping building block, §2.5).
    Gsw,
}

impl Scheme {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Bgv => "BGV",
            Scheme::Ckks => "CKKS",
            Scheme::Gsw => "GSW",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The type of one IR value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValType {
    /// Plaintext operand (one polynomial) vs ciphertext (two).
    pub plain: bool,
    /// RNS limbs (BGV/CKKS modulus-chain position; constant for GSW).
    pub level: usize,
    /// CKKS scale in units of Δ (0 for BGV/GSW). Rescaling decrements,
    /// saturating at 1 — the benchmarks follow the paper in treating a
    /// `mod_switch` as "rescale and renormalize to Δ".
    pub scale: u32,
    /// Multiplicative depth consumed so far (diagnostics; typing for GSW).
    pub depth: u32,
}

/// One IR operation. Operands always reference earlier nodes (SSA,
/// acyclic by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FheOp {
    /// An encrypted input. `ordinal` is the input's position among all
    /// ciphertext inputs (stable across passes, never merged by CSE): the
    /// executor binds its data by ordinal, so differently-optimized
    /// variants of one program read the same inputs.
    CtInput {
        /// RNS limbs at entry.
        level: usize,
        /// Position among ciphertext inputs at build time.
        ordinal: u32,
    },
    /// An unencrypted runtime input (the cheap multiplicand of §2.1).
    PtInput {
        /// RNS limbs at entry.
        level: usize,
        /// Position among plaintext inputs at build time.
        ordinal: u32,
    },
    /// A plaintext constant known at compile time (coefficients of the
    /// plaintext polynomial; scalars are single-element). Constants are
    /// foldable and CSE-mergeable, unlike runtime inputs.
    Constant {
        /// Plaintext coefficients (reduced mod t when bound).
        coeffs: Vec<u64>,
        /// RNS limbs the constant is encoded at.
        level: usize,
    },
    /// Homomorphic addition (ciphertext + ciphertext).
    Add(IrId, IrId),
    /// Addition of a plaintext operand.
    AddPlain(IrId, IrId),
    /// Homomorphic multiplication (tensor + relinearization key-switch).
    /// When the product is a term of a sum, pass 1 may move the
    /// relinearization to the sum's root, which key-switches the summed
    /// products once ([`crate::expand::relin_plan`]).
    Mul(IrId, IrId),
    /// Multiplication by a plaintext operand (no key-switch).
    MulPlain(IrId, IrId),
    /// Automorphism `σ_k` + key-switch (rotations use `k = 3^amount`).
    Aut {
        /// Ciphertext operand.
        a: IrId,
        /// Automorphism exponent (odd, `< 2N`).
        k: usize,
    },
    /// Modulus switch / CKKS rescale one level down.
    ModSwitch(IrId),
}

impl FheOp {
    /// Operand ids, in order.
    pub fn operands(&self) -> Vec<IrId> {
        match self {
            FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => vec![],
            FheOp::Add(a, b) | FheOp::Mul(a, b) | FheOp::AddPlain(a, b) | FheOp::MulPlain(a, b) => {
                vec![*a, *b]
            }
            FheOp::Aut { a, .. } | FheOp::ModSwitch(a) => vec![*a],
        }
    }

    /// Whether this op performs a key switch when lowered (the expensive
    /// class: each becomes hundreds of vector instructions at depth).
    pub fn is_keyswitch(&self) -> bool {
        matches!(self, FheOp::Mul(..) | FheOp::Aut { .. })
    }
}

/// One IR node: an operation plus the type of the value it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The operation.
    pub op: FheOp,
    /// Type of the produced value.
    pub ty: ValType,
}

/// A typed, scheme-aware FHE program: the circuit builder and the
/// normalized SSA IR in one. See the module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct FheProgram {
    /// Ring dimension.
    pub n: usize,
    scheme: Scheme,
    /// Enforce CKKS scale equality on additions (off by default: the
    /// paper's benchmarks rescale at multiplication boundaries only).
    strict_scale: bool,
    nodes: Vec<Node>,
    outputs: Vec<IrId>,
    next_ct_ordinal: u32,
    next_pt_ordinal: u32,
}

impl FheProgram {
    /// Creates an empty program over ring dimension `n`, typed for
    /// `scheme`.
    pub fn new(n: usize, scheme: Scheme) -> Self {
        assert!(n.is_power_of_two(), "ring dimension must be a power of two");
        Self {
            n,
            scheme,
            strict_scale: false,
            nodes: Vec::new(),
            outputs: Vec::new(),
            next_ct_ordinal: 0,
            next_pt_ordinal: 0,
        }
    }

    /// Enables strict CKKS scale checking: additions need equal scales,
    /// and a rescale needs a scale above one Δ.
    pub fn with_strict_scale(mut self) -> Self {
        self.strict_scale = true;
        self
    }

    /// The program's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Whether strict CKKS scale checking is enabled.
    pub fn strict_scale(&self) -> bool {
        self.strict_scale
    }

    /// Types `op` with [`typing::infer`] and appends it, panicking with
    /// the message of the typing rule it breaks.
    fn push(&mut self, op: FheOp) -> IrId {
        let ty = typing::infer(self, &op).unwrap_or_else(|d| panic!("{}", d.message));
        let id = IrId(self.nodes.len() as u32);
        self.nodes.push(Node { op, ty });
        id
    }

    /// Declares an encrypted input with `level` RNS limbs.
    pub fn input(&mut self, level: usize) -> IrId {
        let ordinal = self.next_ct_ordinal;
        self.next_ct_ordinal += 1;
        self.push(FheOp::CtInput { level, ordinal })
    }

    /// Declares an unencrypted runtime input.
    pub fn plain_input(&mut self, level: usize) -> IrId {
        let ordinal = self.next_pt_ordinal;
        self.next_pt_ordinal += 1;
        self.push(FheOp::PtInput { level, ordinal })
    }

    /// Declares a plaintext constant with the given coefficients, encoded
    /// at `level`. Unlike [`Self::plain_input`], constants participate in
    /// constant folding and CSE.
    pub fn constant(&mut self, coeffs: &[u64], level: usize) -> IrId {
        self.push(FheOp::Constant { coeffs: coeffs.to_vec(), level })
    }

    /// A scalar constant (degree-0 plaintext).
    pub fn scalar(&mut self, value: u64, level: usize) -> IrId {
        self.constant(&[value], level)
    }

    /// Homomorphic addition. Both operands must be ciphertexts at the
    /// same level (and, under [`Self::with_strict_scale`], the same CKKS
    /// scale) — or both plaintext constants, which fold at compile time.
    pub fn add(&mut self, a: IrId, b: IrId) -> IrId {
        self.check_foldable(a, b, true);
        self.push(FheOp::Add(a, b))
    }

    /// Adds a plaintext operand (runtime input or constant) to a
    /// ciphertext. The plaintext may sit at a *higher* level — its excess
    /// limbs are ignored; the result takes the ciphertext's level.
    pub fn add_plain(&mut self, a: IrId, p: IrId) -> IrId {
        self.push(FheOp::AddPlain(a, p))
    }

    /// Homomorphic multiplication (tensor + relinearization).
    pub fn mul(&mut self, a: IrId, b: IrId) -> IrId {
        self.check_foldable(a, b, false);
        self.push(FheOp::Mul(a, b))
    }

    /// Squares a ciphertext (sugar for `mul(a, a)`).
    pub fn square(&mut self, a: IrId) -> IrId {
        self.mul(a, a)
    }

    /// Multiplication by a plaintext operand (no key-switch). As with
    /// [`Self::add_plain`], the plaintext's level only needs to cover the
    /// ciphertext's; the result takes the ciphertext's level.
    pub fn mul_plain(&mut self, a: IrId, p: IrId) -> IrId {
        self.push(FheOp::MulPlain(a, p))
    }

    /// The rule for an operation between two plaintext values: legal
    /// only when both are compile-time constants whose exact-integer fold
    /// exists (no u64 overflow, no non-scalar constant product), so the
    /// optimizer folds every such node and the executor's mod-`t`
    /// evaluation of it agrees with the fold. Runtime plain x plain
    /// compute is refused outright.
    fn check_foldable(&self, a: IrId, b: IrId, is_add: bool) {
        if !(self.node(a).ty.plain && self.node(b).ty.plain) {
            return;
        }
        let constant = |v: IrId| match &self.node(v).op {
            FheOp::Constant { coeffs, .. } => Some(coeffs),
            _ => None,
        };
        let (Some(ca), Some(cb)) = (constant(a), constant(b)) else {
            panic!("plaintext-plaintext arithmetic requires compile-time constants");
        };
        let foldable = if is_add {
            passes::fold_add(ca, cb).is_some()
        } else {
            passes::fold_mul_scalar(ca, cb).is_some()
        };
        assert!(
            foldable,
            "constant {} has no lowering (u64 overflow or non-scalar constant product)",
            if is_add { "add" } else { "mul" }
        );
    }

    /// Homomorphic rotation by `amount` slots: automorphism with
    /// exponent `3^amount mod 2N`.
    pub fn rotate(&mut self, a: IrId, amount: usize) -> IrId {
        let two_n = 2 * self.n;
        let mut k = 1usize;
        for _ in 0..amount {
            k = k * 3 % two_n;
        }
        self.aut(a, k)
    }

    /// Homomorphic automorphism with an explicit exponent.
    pub fn aut(&mut self, a: IrId, k: usize) -> IrId {
        self.push(FheOp::Aut { a, k })
    }

    /// Modulus switch (BGV) / rescale (CKKS) one level down. Rejected
    /// for GSW, which has no modulus chain.
    ///
    /// A CKKS rescale at scale 1 *saturates*: the scale cannot drop below
    /// one Δ, so the op burns a level without buying scale headroom.
    /// Under [`Self::with_strict_scale`] that is rejected outright; in
    /// lax programs the `scale::saturated-rescale` lint flags it.
    pub fn mod_switch(&mut self, a: IrId) -> IrId {
        self.push(FheOp::ModSwitch(a))
    }

    /// CKKS-flavored alias for [`Self::mod_switch`].
    pub fn rescale(&mut self, a: IrId) -> IrId {
        self.mod_switch(a)
    }

    /// The `innerSum` idiom of Listing 2: `log2(count)` rotate-and-add
    /// steps that leave every slot holding the sum.
    pub fn inner_sum(&mut self, mut x: IrId, count: usize) -> IrId {
        assert!(count.is_power_of_two());
        for i in 0..count.trailing_zeros() {
            let r = self.rotate(x, 1 << i);
            x = self.add(x, r);
        }
        x
    }

    /// Marks a value as a program output (must be a ciphertext).
    pub fn output(&mut self, x: IrId) {
        if let Err(d) = typing::check_output(self, x) {
            panic!("{}", d.message);
        }
        self.outputs.push(x);
    }

    /// Always empty: the IR has no rolled loop regions. Exists only for
    /// perfbench and goes with ROADMAP item 4's benchmark change.
    pub fn repeats(&self) -> &[std::convert::Infallible] {
        &[]
    }

    /// Returns a copy: the IR is always flat. Exists only for perfbench
    /// and goes with ROADMAP item 4's benchmark change.
    pub fn unroll(&self) -> FheProgram {
        self.clone()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, v: IrId) -> &Node {
        &self.nodes[v.0 as usize]
    }

    /// Program outputs, in declaration order.
    pub fn outputs(&self) -> &[IrId] {
        &self.outputs
    }

    /// Mutable access to a node, bypassing the builder's typing rules.
    /// Exists so the static analyzer's tests can construct ill-typed IR
    /// that the safe builder refuses to produce; never use it to build
    /// real programs.
    #[doc(hidden)]
    pub fn raw_node_mut(&mut self, v: IrId) -> &mut Node {
        &mut self.nodes[v.0 as usize]
    }

    /// Appends a node with an arbitrary claimed type and no SSA check.
    /// Test-only escape hatch; see [`FheProgram::raw_node_mut`].
    #[doc(hidden)]
    pub fn raw_push(&mut self, op: FheOp, ty: ValType) -> IrId {
        let id = IrId(self.nodes.len() as u32);
        self.nodes.push(Node { op, ty });
        id
    }

    /// Marks `x` as an output without the ciphertext check. Test-only
    /// escape hatch; see [`FheProgram::raw_node_mut`].
    #[doc(hidden)]
    pub fn raw_output(&mut self, x: IrId) {
        self.outputs.push(x);
    }

    /// Level of a value.
    pub fn level_of(&self, v: IrId) -> usize {
        self.node(v).ty.level
    }

    /// CKKS scale of a value (units of Δ; 0 outside CKKS).
    pub fn scale_of(&self, v: IrId) -> u32 {
        self.node(v).ty.scale
    }

    /// Multiplicative depth consumed by a value.
    pub fn depth_of(&self, v: IrId) -> u32 {
        self.node(v).ty.depth
    }

    /// Number of key-switching operations (Mul/Aut) — the expansion-cost
    /// drivers the optimization passes try to reduce.
    pub fn keyswitch_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_keyswitch()).count()
    }

    /// Runs the full optimization pipeline to a fixpoint: constant
    /// folding → rotation dedup → CSE → key-switch hoisting → CSE → DCE,
    /// iterated (bounded) until the node count stabilizes. Returns the
    /// optimized program and per-pass statistics. Deterministic: passes
    /// iterate the node list in id order only.
    pub fn optimize(&self) -> (FheProgram, OptStats) {
        passes::optimize(self)
    }

    /// Lowers this program 1:1 into a [`crate::dsl::Program`] for the
    /// scheduling passes (usually after [`Self::optimize`]).
    ///
    /// # Panics
    ///
    /// Panics on the first Error of [`crate::analysis::typing::check`];
    /// see [`lower::lower`].
    pub fn lower(&self) -> Lowered {
        lower::lower(self)
    }

    /// Builds the 4×16K matrix-vector multiply of Listing 2 at level `l`
    /// (the running example of §4.1).
    pub fn listing2_matvec(n: usize, l: usize, rows: usize) -> Self {
        let mut p = Self::new(n, Scheme::Bgv);
        let m_rows: Vec<IrId> = (0..rows).map(|_| p.input(l)).collect();
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
    fn typed_builder_tracks_levels_and_depth() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(4);
        let m = p.mul(x, y);
        assert_eq!(p.level_of(m), 4);
        assert_eq!(p.depth_of(m), 1);
        let d = p.mod_switch(m);
        assert_eq!(p.level_of(d), 3);
        let m2 = p.square(d);
        assert_eq!(p.depth_of(m2), 2);
        p.output(m2);
        assert!(typing::check(&p).is_empty());
    }

    #[test]
    #[should_panic(expected = "levels differ")]
    fn level_mismatch_is_rejected() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(3);
        let y = p.input(2);
        p.add(x, y);
    }

    #[test]
    fn ckks_scale_tracking() {
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
        let x = p.input(4);
        assert_eq!(p.scale_of(x), 1);
        let sq = p.square(x);
        assert_eq!(p.scale_of(sq), 2, "mul adds scales");
        let r = p.rescale(sq);
        assert_eq!(p.scale_of(r), 1, "rescale consumes one Δ");
        assert_eq!(p.level_of(r), 3);
    }

    #[test]
    #[should_panic(expected = "scales differ")]
    fn strict_ckks_rejects_mismatched_scales() {
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks).with_strict_scale();
        let x = p.input(4);
        let sq = p.square(x); // scale 2
        p.add(sq, x); // scale 2 vs 1
    }

    #[test]
    #[should_panic(expected = "no modulus chain")]
    fn gsw_rejects_mod_switch() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        p.mod_switch(x);
    }

    #[test]
    fn gsw_tracks_external_product_depth() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        let y = p.input(2);
        let m1 = p.mul(x, y);
        let m2 = p.mul(m1, y);
        assert_eq!(p.depth_of(m2), 2);
    }

    #[test]
    fn constants_are_typed_plaintexts() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(2);
        let c = p.scalar(3, 2);
        let m = p.mul_plain(x, c);
        p.output(m);
        assert!(p.node(c).ty.plain);
        assert!(typing::check(&p).is_empty());
    }

    #[test]
    #[should_panic(expected = "compile-time constants")]
    fn runtime_plain_pair_compute_is_rejected() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let a = p.plain_input(2);
        let b = p.plain_input(2);
        p.add(a, b); // no lowering exists for runtime plain x plain
    }

    #[test]
    fn rotations_use_3_pow_k() {
        let mut p = FheProgram::new(1024, Scheme::Bgv);
        let x = p.input(2);
        let r = p.rotate(x, 2);
        match &p.node(r).op {
            FheOp::Aut { k, .. } => assert_eq!(*k, 9),
            other => panic!("expected Aut, got {other:?}"),
        }
    }

    #[test]
    fn ids_are_dense_creation_order() {
        let mut p = FheProgram::new(1024, Scheme::Bgv);
        let a = p.input(2);
        let b = p.input(2);
        let s = p.add(a, b);
        assert_eq!((a, b, s), (IrId(0), IrId(1), IrId(2)));
    }

    #[test]
    fn matvec_mirror_matches_dsl_shape() {
        let p = FheProgram::listing2_matvec(1 << 14, 16, 4);
        let muls = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Mul(..))).count();
        let auts = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Aut { .. })).count();
        let adds = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Add(..))).count();
        // 4 multiplies + log2(16K) = 14 rotations and adds per row.
        assert_eq!(muls, 4);
        assert_eq!(auts, 4 * 14);
        assert_eq!(adds, 4 * 14);
        assert_eq!(p.outputs().len(), 4);
    }
}
