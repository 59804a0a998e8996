//! Lowering: [`FheProgram`] → [`crate::dsl::Program`].
//!
//! The translation is 1:1 — every IR node becomes exactly one
//! homomorphic op at the same index, so the lowered program inherits the
//! IR's dense, deterministic ids. Plaintext constants lower to
//! `PlainInput` ops plus a side table of their coefficient values, which
//! functional executors bind at run time ([`Lowered::constants`]).

use super::{FheOp, FheProgram, IrId};
use crate::analysis::typing;
use crate::dsl::{CtId, HomOp, Program};

/// The result of lowering an [`FheProgram`].
///
/// Ids are 1:1: IR node `IrId(i)` is lowered op `CtId(i)`, with the same
/// level, so `program.level_of(CtId(i)) == ir.level_of(IrId(i))`.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The scheduler-facing homomorphic-op list.
    pub program: Program,
    /// Folded compile-time constants: the `PlainInput` op that carries
    /// each constant, with its plaintext coefficients.
    pub constants: Vec<(CtId, Vec<u64>)>,
    /// Ciphertext inputs as `(build-time ordinal, id)` — the stable
    /// binding key for feeding the same data to differently-optimized
    /// variants of one program (passes may drop unused inputs, but an
    /// ordinal never changes).
    pub ct_inputs: Vec<(u32, CtId)>,
    /// Runtime plaintext inputs as `(build-time ordinal, id)`.
    pub pt_inputs: Vec<(u32, CtId)>,
}

/// Lowers an IR program (see [`FheProgram::lower`]).
///
/// The program is validated first with [`typing::check`], so IR
/// assembled through the `raw_*` escape hatches cannot reach the
/// scheduler with anything the builder would have refused.
///
/// Plaintext-constant arithmetic that has not been folded yet (lowering
/// an unoptimized program is allowed) is const-evaluated here, so every
/// constant-pair node still lowers to a `PlainInput` with a known
/// value.
///
/// # Panics
///
/// Panics on the first Error [`typing::check`] reports, naming its rule,
/// and on constant arithmetic with no lowering: a non-constant plaintext
/// operand, u64 overflow, or a product of non-scalar constants
/// (negacyclic convolution needs the plaintext modulus the IR does not
/// know).
pub fn lower(ir: &FheProgram) -> Lowered {
    typing::assert_valid(ir);
    let outputs = ir.outputs().iter().map(|o| CtId(o.0)).collect();
    let mut program = Program::with_outputs(ir.n, outputs);
    let mut constants = Vec::new();
    let mut ct_inputs = Vec::new();
    let mut pt_inputs = Vec::new();
    // Constant values per node, for const-evaluating plain-pair ops.
    let mut const_vals: Vec<Option<Vec<u64>>> = Vec::with_capacity(ir.nodes().len());
    for (i, node) in ir.nodes().iter().enumerate() {
        let c = |v: &IrId| CtId(v.0);
        let id = CtId(i as u32);
        let mut const_val: Option<Vec<u64>> = None;
        let op = match &node.op {
            FheOp::CtInput { level, ordinal } => {
                ct_inputs.push((*ordinal, id));
                HomOp::Input { level: *level }
            }
            FheOp::PtInput { level, ordinal } => {
                pt_inputs.push((*ordinal, id));
                HomOp::PlainInput { level: *level }
            }
            FheOp::Constant { coeffs, level } => {
                constants.push((id, coeffs.clone()));
                const_val = Some(coeffs.clone());
                HomOp::PlainInput { level: *level }
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
                constants.push((id, coeffs.clone()));
                const_val = Some(coeffs);
                HomOp::PlainInput { level: node.ty.level }
            }
            FheOp::Add(a, b) => HomOp::Add { a: c(a), b: c(b) },
            FheOp::Mul(a, b) => HomOp::Mul { a: c(a), b: c(b) },
            FheOp::AddPlain(a, p) => HomOp::AddPlain { a: c(a), p: c(p) },
            FheOp::MulPlain(a, p) => HomOp::MulPlain { a: c(a), p: c(p) },
            FheOp::Aut { a, k } => HomOp::Aut { a: c(a), k: *k },
            FheOp::ModSwitch(a) => HomOp::ModSwitch { a: c(a) },
        };
        program.push(op, node.ty.level);
        const_vals.push(const_val);
    }
    Lowered { program, constants, ct_inputs, pt_inputs }
}

#[cfg(test)]
mod tests {
    use super::super::Scheme;
    use super::super::ValType;
    use super::*;

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
    #[should_panic(expected = "levels differ")]
    fn raw_level_mismatch_is_rejected_at_lower() {
        // The builder refuses this add; lower() must refuse it too when
        // it arrives through the raw escape hatch.
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(3);
        let y = p.input(2);
        let ty = ValType { plain: false, level: 3, scale: 0, depth: 0 };
        let s = p.raw_push(FheOp::Add(x, y), ty);
        p.output(s);
        p.lower();
    }
}
