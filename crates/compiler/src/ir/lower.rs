//! Lowering: [`FheProgram`] → [`crate::dsl::Program`].
//!
//! The translation is 1:1 — every IR node becomes exactly one DSL
//! homomorphic op at the same index, so the lowered program inherits the
//! IR's dense, deterministic ids (`ct_of[i] == CtId(i)` always; the
//! mapping is returned anyway so callers never hard-code it). Plaintext
//! constants lower to `plain_input` ops plus a side table of their
//! coefficient values, which functional executors bind at run time
//! ([`Lowered::constants`]).

use super::{FheOp, FheProgram, IrId};
use crate::dsl::{CtId, Program};

/// The result of lowering an [`FheProgram`].
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The scheduler-facing DSL program.
    pub program: Program,
    /// DSL id of each IR node (dense: `ct_of[i] == CtId(i)`).
    pub ct_of: Vec<CtId>,
    /// Folded compile-time constants: the `plain_input` op that carries
    /// each constant, with its plaintext coefficients.
    pub constants: Vec<(CtId, Vec<u64>)>,
    /// Ciphertext inputs as `(build-time ordinal, DSL id)` — the stable
    /// binding key for feeding the same data to differently-optimized
    /// variants of one program (passes may drop unused inputs, but an
    /// ordinal never changes).
    pub ct_inputs: Vec<(u32, CtId)>,
    /// Runtime plaintext inputs as `(build-time ordinal, DSL id)`.
    pub pt_inputs: Vec<(u32, CtId)>,
}

/// Lowers an IR program (see [`FheProgram::lower`]).
///
/// Plaintext-constant arithmetic that has not been folded yet (lowering
/// an unoptimized program is allowed) is const-evaluated here, so every
/// constant-pair node still lowers to a `plain_input` with a known
/// value.
///
/// # Panics
///
/// Panics on constant arithmetic with no runtime lowering *and* no fold:
/// u64 overflow, or a product of non-scalar constants (negacyclic
/// convolution needs the plaintext modulus the IR does not know).
pub fn lower(ir: &FheProgram) -> Lowered {
    ir.validate();
    let mut program = Program::new(ir.n);
    let mut ct_of = Vec::with_capacity(ir.nodes().len());
    let mut constants = Vec::new();
    let mut ct_inputs = Vec::new();
    let mut pt_inputs = Vec::new();
    // Constant values per node, for const-evaluating plain-pair ops.
    let mut const_vals: Vec<Option<Vec<u64>>> = Vec::with_capacity(ir.nodes().len());
    for (i, node) in ir.nodes().iter().enumerate() {
        let c = |v: &IrId| ct_of[v.0 as usize];
        let mut const_val: Option<Vec<u64>> = None;
        let id = match &node.op {
            FheOp::CtInput { level, ordinal } => {
                let id = program.input(*level);
                ct_inputs.push((*ordinal, id));
                id
            }
            FheOp::PtInput { level, ordinal } => {
                let id = program.plain_input(*level);
                pt_inputs.push((*ordinal, id));
                id
            }
            FheOp::Constant { coeffs, level } => {
                let id = program.plain_input(*level);
                constants.push((id, coeffs.clone()));
                const_val = Some(coeffs.clone());
                id
            }
            FheOp::Add(a, b) | FheOp::Mul(a, b) if node.ty.plain => {
                // Constant-pair arithmetic: const-evaluate (the builder
                // only admits compile-time constants here).
                let (ca, cb) =
                    (const_vals[a.0 as usize].as_deref(), const_vals[b.0 as usize].as_deref());
                let (ca, cb) = (
                    ca.unwrap_or_else(|| panic!("node {i}: non-constant plain operand")),
                    cb.unwrap_or_else(|| panic!("node {i}: non-constant plain operand")),
                );
                let folded = if matches!(node.op, FheOp::Add(..)) {
                    super::passes::fold_add(ca, cb)
                } else {
                    super::passes::fold_mul_scalar(ca, cb)
                };
                let coeffs = folded.unwrap_or_else(|| {
                    panic!(
                        "node {i}: constant arithmetic has no lowering (u64 overflow \
                         or non-scalar constant product)"
                    )
                });
                let id = program.plain_input(node.ty.level);
                constants.push((id, coeffs.clone()));
                const_val = Some(coeffs);
                id
            }
            FheOp::Add(a, b) => program.add(c(a), c(b)),
            FheOp::Mul(a, b) => program.mul(c(a), c(b)),
            FheOp::AddPlain(a, p) => program.add_plain(c(a), c(p)),
            FheOp::MulPlain(a, p) => program.mul_plain(c(a), c(p)),
            FheOp::Aut { a, k } => program.aut(c(a), *k),
            FheOp::ModSwitch(a) => program.mod_switch(c(a)),
        };
        debug_assert_eq!(id, CtId(i as u32), "lowering must stay 1:1");
        ct_of.push(id);
        const_vals.push(const_val);
    }
    for &o in ir.outputs() {
        program.output(ct_of[o.0 as usize]);
    }
    Lowered { program, ct_of, constants, ct_inputs, pt_inputs }
}

#[cfg(test)]
mod tests {
    use super::super::Scheme;
    use super::*;
    use crate::dsl::HomOp;

    #[test]
    fn lowering_is_one_to_one_and_ordered() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let w = p.plain_input(4);
        let c = p.scalar(5, 4);
        let m = p.mul_plain(x, w);
        let m2 = p.mul_plain(m, c);
        let r = p.rotate(m2, 1);
        let s = p.add(m2, r);
        let d = p.mod_switch(s);
        p.output(d);
        let lo = p.lower();
        assert_eq!(lo.program.ops().len(), p.nodes().len());
        assert_eq!(lo.ct_of, (0..p.nodes().len() as u32).map(CtId).collect::<Vec<_>>());
        assert_eq!(lo.constants, vec![(CtId(2), vec![5])]);
        assert_eq!(lo.ct_inputs, vec![(0, CtId(0))]);
        assert_eq!(lo.pt_inputs, vec![(0, CtId(1))]);
        assert!(matches!(lo.program.ops()[5], HomOp::Aut { .. }));
        assert_eq!(lo.program.outputs(), &[CtId(7)]);
        assert_eq!(lo.program.level_of(CtId(7)), 3);
    }

    #[test]
    fn unoptimized_constant_arithmetic_lowers_via_const_eval() {
        // lower() must be total on unoptimized programs: a constant-pair
        // product const-evaluates to a plain_input even without passes.
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(2);
        let c2 = p.scalar(2, 2);
        let c3 = p.scalar(3, 2);
        let c6 = p.mul(c2, c3);
        let m = p.mul_plain(x, c6);
        p.output(m);
        let lo = p.lower();
        assert_eq!(lo.program.ops().len(), 5);
        // The product node carries the evaluated constant.
        assert!(lo.constants.iter().any(|(_, v)| v == &vec![6]));
    }

    #[test]
    fn optimized_lowering_keeps_input_ordinals() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let unused = p.input(4); // dropped by DCE
        let x = p.input(4);
        let _ = unused;
        let m = p.square(x);
        p.output(m);
        let (q, _) = p.optimize();
        let lo = q.lower();
        // The surviving input keeps ordinal 1 even though it is now the
        // program's first op.
        assert_eq!(lo.ct_inputs, vec![(1, CtId(0))]);
    }

    #[test]
    fn lowered_matvec_expands_like_the_dsl_original() {
        // The unoptimized typed frontend must reproduce the DSL program
        // exactly (same ops, same expansion) — the IR changes nothing
        // until passes run.
        let fhe = FheProgram::listing2_matvec(1 << 12, 4, 2);
        let dsl = Program::listing2_matvec(1 << 12, 4, 2);
        let lo = fhe.lower();
        assert_eq!(format!("{:?}", lo.program.ops()), format!("{:?}", dsl.ops()));
        let ex_a = crate::expand::expand(&lo.program, &Default::default());
        let ex_b = crate::expand::expand(&dsl, &Default::default());
        assert_eq!(ex_a.dfg.instrs().len(), ex_b.dfg.instrs().len());
    }
}
