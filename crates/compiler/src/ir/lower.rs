//! Lowering: [`FheProgram`] → [`crate::dsl::Program`].
//!
//! The translation is 1:1 — every IR node becomes exactly one
//! homomorphic op at the same index, so the lowered program inherits the
//! IR's dense, deterministic ids. Every plaintext (runtime input or
//! constant) lowers to a `PlainInput` op: pass 1 needs its level only.
//! Functional execution runs the `FheProgram` itself, which keeps the
//! values.

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
}

/// Lowers an IR program (see [`FheProgram::lower`]).
///
/// The program is validated first with [`typing::check`], so IR
/// assembled through the `raw_*` escape hatches cannot reach the
/// scheduler with anything the builder would have refused.
///
/// # Panics
///
/// Panics on the first Error [`typing::check`] reports, naming its rule.
pub fn lower(ir: &FheProgram) -> Lowered {
    typing::assert_valid(ir);
    let outputs = ir.outputs().iter().map(|o| CtId(o.0)).collect();
    let mut program = Program::with_outputs(ir.n, outputs);
    for node in ir.nodes() {
        let c = |v: &IrId| CtId(v.0);
        let op = match &node.op {
            FheOp::CtInput { level, .. } => HomOp::Input { level: *level },
            FheOp::PtInput { .. } | FheOp::Constant { .. } => {
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
    }
    Lowered { program }
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
        assert!(matches!(lo.program.ops()[5], HomOp::Aut { .. }));
        assert_eq!(lo.program.outputs(), &[CtId(7)]);
        assert_eq!(lo.program.level_of(CtId(7)), 3);
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
