//! The scheme-typing rules and the IR validator.
//!
//! [`infer`] is the only copy of the typing rules. The builder
//! ([`FheProgram`]'s typed methods) panics with the message of the rule
//! a new node breaks, and [`check`] re-proves every node of a finished
//! program with the same function. The optimization passes rewrite node
//! lists wholesale, and a pass bug produces a program that *looks*
//! well-formed while its stored types no longer match its structure:
//! [`check`] finds that, and [`verify_step`] compares program interfaces
//! across a pass boundary so [`crate::ir::passes::optimize`] can name
//! the pass that broke an invariant. [`crate::ir::lower::lower`] panics
//! on [`check`]'s first Error.

use super::{Diagnostic, Severity};
use crate::ir::{FheOp, FheProgram, IrId, Scheme, ValType};
use std::collections::BTreeSet;

fn ill(rule: &'static str, message: String) -> Result<ValType, Diagnostic> {
    Err(Diagnostic::error(rule, None, message))
}

/// The typing rules: the type `op` produces from its operands' stored
/// types, or the rule it breaks, as an Error with no node (the caller
/// anchors it). Every operand must be an existing node of `p`.
pub fn infer(p: &FheProgram, op: &FheOp) -> Result<ValType, Diagnostic> {
    let ty = |v: IrId| p.node(v).ty;
    // Operand `v` of `what` must be a plaintext (`plain`) or a ciphertext.
    let kind = |what: &str, v: IrId, plain: bool| {
        let t = ty(v);
        if t.plain == plain {
            return Ok(t);
        }
        let want = if plain { "plaintext" } else { "ciphertext" };
        ill("typing::operand-kind", format!("{what}: operand %{} must be a {want}", v.0))
    };
    let ckks = p.scheme() == Scheme::Ckks;
    let leaf = |level: usize, plain: bool, what: &str| {
        if level == 0 {
            return ill("typing::level-underflow", format!("{what} at level 0"));
        }
        Ok(ValType { plain, level, scale: u32::from(ckks), depth: 0 })
    };
    match op {
        FheOp::CtInput { level, .. } => leaf(*level, false, "ciphertext input"),
        FheOp::PtInput { level, .. } => leaf(*level, true, "plaintext input"),
        FheOp::Constant { level, .. } => leaf(*level, true, "constant"),
        FheOp::Add(a, b) | FheOp::Mul(a, b) => {
            let is_mul = matches!(op, FheOp::Mul(..));
            let what = if is_mul { "mul" } else { "add" };
            let (ta, tb) = (kind(what, *a, false)?, kind(what, *b, false)?);
            if ta.level != tb.level {
                return ill(
                    "typing::level-mismatch",
                    format!(
                        "operand levels differ ({} vs {}); insert mod_switch",
                        ta.level, tb.level
                    ),
                );
            }
            let depth = ta.depth.max(tb.depth);
            Ok(if is_mul {
                ValType { scale: ta.scale + tb.scale, depth: depth + 1, ..ta }
            } else {
                ValType { scale: ta.scale.max(tb.scale), depth, ..ta }
            })
        }
        FheOp::AddPlain(a, pt) | FheOp::MulPlain(a, pt) => {
            let is_mul = matches!(op, FheOp::MulPlain(..));
            let what = if is_mul { "mul_plain" } else { "add_plain" };
            let (ta, tp) = (kind(what, *a, false)?, kind(what, *pt, true)?);
            // Plaintexts need only *cover* the ciphertext level: an RNS
            // plaintext encoded at `l >= level` holds every residue of the
            // ciphertext's chain prefix, and the backend ignores its top
            // limbs. The result takes the ciphertext's level.
            if tp.level < ta.level {
                return ill(
                    "typing::level-mismatch",
                    format!(
                        "plaintext level {} does not cover ciphertext level {}",
                        tp.level, ta.level
                    ),
                );
            }
            Ok(if is_mul { ValType { scale: ta.scale + tp.scale, ..ta } } else { ta })
        }
        FheOp::Aut { a, k } => {
            if k % 2 == 0 || *k >= 2 * p.n {
                return ill(
                    "typing::aut-exponent",
                    format!("invalid automorphism exponent {k} (need odd, < 2N)"),
                );
            }
            kind("aut", *a, false)
        }
        FheOp::ModSwitch(a) => {
            if p.scheme() == Scheme::Gsw {
                return ill("typing::gsw-mod-switch", "GSW has no modulus chain to switch".into());
            }
            let ta = kind("mod_switch", *a, false)?;
            if ta.level < 2 {
                return ill(
                    "typing::level-underflow",
                    format!("cannot switch below level 1 (operand at level {})", ta.level),
                );
            }
            // A CKKS rescale consumes one Δ, saturating at the Δ floor.
            let scale = if ckks { ta.scale.saturating_sub(1).max(1) } else { 0 };
            Ok(ValType { level: ta.level - 1, scale, ..ta })
        }
    }
}

/// The output rule: a program output must be an existing ciphertext.
pub(crate) fn check_output(p: &FheProgram, o: IrId) -> Result<(), Diagnostic> {
    if o.0 as usize >= p.nodes().len() {
        let message = format!("output references unknown node %{}", o.0);
        Err(Diagnostic::error("typing::ssa", Some(o), message))
    } else if p.node(o).ty.plain {
        let message = "program output is a plaintext".into();
        Err(Diagnostic::error("typing::plain-output", Some(o), message))
    } else {
        Ok(())
    }
}

/// The IR validator: SSA operand order, input-ordinal uniqueness, the
/// output rule, and [`infer`] diffed against every stored type. Returns
/// every violation found (empty = provably well-formed).
pub fn check(p: &FheProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, node) in p.nodes().iter().enumerate() {
        for o in node.op.operands() {
            if o.0 as usize >= i {
                out.push(Diagnostic::error(
                    "typing::ssa",
                    Some(IrId(i as u32)),
                    format!("operand %{} does not precede its user", o.0),
                ));
            }
        }
    }
    let mut ct_seen = BTreeSet::new();
    let mut pt_seen = BTreeSet::new();
    for (i, node) in p.nodes().iter().enumerate() {
        let (set, ord, kind) = match node.op {
            FheOp::CtInput { ordinal, .. } => (&mut ct_seen, ordinal, "ciphertext"),
            FheOp::PtInput { ordinal, .. } => (&mut pt_seen, ordinal, "plaintext"),
            _ => continue,
        };
        if !set.insert(ord) {
            out.push(Diagnostic::error(
                "typing::input-ordinals",
                Some(IrId(i as u32)),
                format!("duplicate {kind} input ordinal {ord}"),
            ));
        }
    }
    out.extend(p.outputs().iter().filter_map(|&o| check_output(p, o).err()));
    // Forward references leave operand types unsettled; report the SSA
    // breakage alone rather than noise on top of it.
    if out.iter().any(|d| d.rule == "typing::ssa") {
        return out;
    }
    // One in-order sweep: ids are in SSA creation order, so every operand
    // is checked before its users. A node with an ill-typed operand is
    // not itself news and is skipped.
    let mut bad = vec![false; p.nodes().len()];
    for (i, node) in p.nodes().iter().enumerate() {
        if node.op.operands().iter().any(|o| bad[o.0 as usize]) {
            bad[i] = true;
            continue;
        }
        let id = IrId(i as u32);
        let diag = match infer(p, &node.op) {
            Ok(t) if t == node.ty => continue,
            Ok(t) => Diagnostic::error(
                "typing::type-drift",
                Some(id),
                format!("stored type {:?} != inferred {t:?}", node.ty),
            ),
            Err(d) => Diagnostic { node: Some(id), ..d },
        };
        out.push(diag);
        bad[i] = true;
    }
    out
}

/// [`check`], panicking on the first Error: the validator behind
/// [`crate::ir::lower::lower`].
pub fn assert_valid(p: &FheProgram) {
    if let Some(d) = check(p).iter().find(|d| d.severity == Severity::Error) {
        panic!("ill-typed IR: {d}");
    }
}

/// A program's observable interface: output types (in declaration order)
/// and the surviving input ordinals. Captured before an optimization
/// pass and compared after — a pass may drop dead inputs and merge
/// duplicates, but must never change what the program computes *for*.
#[derive(Debug, Clone, PartialEq)]
pub struct Interface {
    /// Output value types, in output order.
    pub outputs: Vec<ValType>,
    /// Build-time ordinals of live ciphertext inputs.
    pub ct_ordinals: BTreeSet<u32>,
    /// Build-time ordinals of live plaintext runtime inputs.
    pub pt_ordinals: BTreeSet<u32>,
}

/// Captures `p`'s interface.
pub fn interface(p: &FheProgram) -> Interface {
    let mut ct_ordinals = BTreeSet::new();
    let mut pt_ordinals = BTreeSet::new();
    for node in p.nodes() {
        match node.op {
            FheOp::CtInput { ordinal, .. } => {
                ct_ordinals.insert(ordinal);
            }
            FheOp::PtInput { ordinal, .. } => {
                pt_ordinals.insert(ordinal);
            }
            _ => {}
        }
    }
    let outputs = p.outputs().iter().map(|&o| p.node(o).ty).collect();
    Interface { outputs, ct_ordinals, pt_ordinals }
}

/// Verifies one pass boundary: `after` must be fully well-formed
/// ([`check`]) and must preserve `before`'s interface — same output
/// types in the same order, and surviving input ordinals a subset of the
/// originals. `pass` names the pass for the messages.
pub fn verify_step(before: &Interface, after: &FheProgram, pass: &str) -> Vec<Diagnostic> {
    let mut out = check(after);
    let now = interface(after);
    if now.outputs.len() != before.outputs.len() {
        out.push(Diagnostic::error(
            "typing::interface",
            None,
            format!(
                "pass '{pass}' changed the output count ({} -> {})",
                before.outputs.len(),
                now.outputs.len()
            ),
        ));
    } else {
        for (i, (b, a)) in before.outputs.iter().zip(&now.outputs).enumerate() {
            if b != a {
                out.push(Diagnostic::error(
                    "typing::interface",
                    Some(after.outputs()[i]),
                    format!("pass '{pass}' changed output {i}'s type: {b:?} -> {a:?}"),
                ));
            }
        }
    }
    if !now.ct_ordinals.is_subset(&before.ct_ordinals) {
        out.push(Diagnostic::error(
            "typing::interface",
            None,
            format!("pass '{pass}' invented ciphertext input ordinals"),
        ));
    }
    if !now.pt_ordinals.is_subset(&before.pt_ordinals) {
        out.push(Diagnostic::error(
            "typing::interface",
            None,
            format!("pass '{pass}' invented plaintext input ordinals"),
        ));
    }
    out
}

/// `check`, panicking with the pass name on the first Error (the
/// always-on between-pass verifier behind [`crate::ir::FheProgram::optimize`]).
pub fn assert_verified(before: &Interface, after: &FheProgram, pass: &str) {
    let diags = verify_step(before, after, pass);
    if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
        panic!("optimization pass '{pass}' broke a typing invariant: {d}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Node, Scheme};

    fn well_typed() -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(4);
        let m = p.mul(x, y);
        let d = p.mod_switch(m);
        let w = p.plain_input(3);
        let s = p.add_plain(d, w);
        p.output(s);
        p
    }

    /// `well_typed` with the mul's stored depth off by 7.
    fn drifted() -> FheProgram {
        let mut p = well_typed();
        let ty = p.node(IrId(2)).ty;
        p.raw_node_mut(IrId(2)).ty = ValType { depth: ty.depth + 7, ..ty };
        p
    }

    /// `well_typed` with the mul pointing at a later node.
    fn forward_ref() -> FheProgram {
        let mut p = well_typed();
        p.raw_node_mut(IrId(2)).op = FheOp::Mul(IrId(5), IrId(1));
        p
    }

    /// Two ciphertext inputs sharing ordinal 0.
    fn duplicate_ordinal() -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(4);
        let s = p.add(x, y);
        p.output(s);
        p.raw_node_mut(y).op = FheOp::CtInput { level: 4, ordinal: 0 };
        p
    }

    /// A program with ciphertexts `x` (level 2) and `y` (level 1), a
    /// constant `c` (level 1) and `m = x * x`, returned as `[x, y, c, m]`.
    fn prefix(scheme: Scheme) -> (FheProgram, [IrId; 4]) {
        let mut p = FheProgram::new(1 << 10, scheme);
        let (x, y, c) = (p.input(2), p.input(1), p.scalar(3, 1));
        let m = p.square(x);
        (p, [x, y, c, m])
    }

    /// Every typing rule an op can break through a builder method: the
    /// rule, the program [`prefix`] it is built on, and the op.
    type Case = (&'static str, Scheme, fn([IrId; 4]) -> FheOp);

    fn cases() -> Vec<Case> {
        use Scheme::{Bgv, Gsw};
        vec![
            ("typing::level-underflow", Bgv, |_| FheOp::CtInput { level: 0, ordinal: 9 }),
            ("typing::level-underflow", Bgv, |_| FheOp::PtInput { level: 0, ordinal: 9 }),
            ("typing::level-underflow", Bgv, |_| FheOp::Constant { coeffs: vec![1], level: 0 }),
            ("typing::level-underflow", Bgv, |[_, y, _, _]| FheOp::ModSwitch(y)),
            ("typing::level-mismatch", Bgv, |[x, y, _, _]| FheOp::Add(x, y)),
            ("typing::level-mismatch", Bgv, |[x, _, c, _]| FheOp::AddPlain(x, c)),
            ("typing::operand-kind", Bgv, |[_, y, c, _]| FheOp::Add(y, c)),
            // A plaintext is a leaf: no arithmetic yields one.
            ("typing::operand-kind", Bgv, |[_, _, c, _]| FheOp::Add(c, c)),
            ("typing::operand-kind", Bgv, |[_, _, c, _]| FheOp::Mul(c, c)),
            ("typing::operand-kind", Bgv, |[_, y, _, _]| FheOp::MulPlain(y, y)),
            ("typing::operand-kind", Bgv, |[_, _, c, _]| FheOp::Aut { a: c, k: 3 }),
            ("typing::operand-kind", Bgv, |[_, _, c, _]| FheOp::ModSwitch(c)),
            ("typing::aut-exponent", Bgv, |[x, ..]| FheOp::Aut { a: x, k: 4 }),
            ("typing::gsw-mod-switch", Gsw, |[x, ..]| FheOp::ModSwitch(x)),
        ]
    }

    /// The type a raw node claims; every case is rejected before it is read.
    const CLAIMED: ValType = ValType { plain: false, level: 1, scale: 0, depth: 0 };

    /// Applies `op` through the builder method that creates it.
    fn build(p: &mut FheProgram, op: &FheOp) -> IrId {
        match op.clone() {
            FheOp::CtInput { level, .. } => p.input(level),
            FheOp::PtInput { level, .. } => p.plain_input(level),
            FheOp::Constant { coeffs, level } => p.constant(&coeffs, level),
            FheOp::Add(a, b) => p.add(a, b),
            FheOp::Mul(a, b) => p.mul(a, b),
            FheOp::AddPlain(a, b) => p.add_plain(a, b),
            FheOp::MulPlain(a, b) => p.mul_plain(a, b),
            FheOp::Aut { a, k } => p.aut(a, k),
            FheOp::ModSwitch(a) => p.mod_switch(a),
        }
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(err) => err.downcast_ref::<&str>().expect("a string panic").to_string(),
        }
    }

    #[test]
    fn builder_programs_check_clean() {
        assert!(check(&well_typed()).is_empty());
    }

    #[test]
    fn type_drift_is_detected() {
        let diags = check(&drifted());
        assert!(diags.iter().any(|d| d.rule == "typing::type-drift"), "{diags:?}");
    }

    #[test]
    fn ssa_violation_is_detected() {
        let diags = check(&forward_ref());
        assert!(diags.iter().any(|d| d.rule == "typing::ssa"), "{diags:?}");
    }

    #[test]
    fn builder_panics_with_the_validators_message() {
        for (rule, scheme, op) in cases() {
            let (mut p, ids) = prefix(scheme);
            let op = op(ids);
            let said = panic_message(|| {
                build(&mut p.clone(), &op);
            });
            let v = p.raw_push(op, CLAIMED);
            let diags = check(&p);
            let d = diags.iter().find(|d| d.node == Some(v)).expect("the raw node is reported");
            assert_eq!((d.rule, &d.message), (rule, &said));
        }
        let (p, [_, _, c, _]) = prefix(Scheme::Bgv);
        for (rule, o) in [("typing::plain-output", c), ("typing::ssa", IrId(9))] {
            let said = panic_message(|| p.clone().output(o));
            let mut q = p.clone();
            q.raw_output(o);
            let diags = check(&q);
            let d = diags.iter().find(|d| d.node == Some(o)).expect("the output is reported");
            assert_eq!((d.rule, &d.message), (rule, &said));
        }
    }

    #[test]
    fn lower_refuses_every_program_check_rejects() {
        let mut plain_output = FheProgram::new(1 << 10, Scheme::Bgv);
        let c = plain_output.scalar(3, 2);
        plain_output.raw_output(c);
        let mut table = vec![
            ("typing::type-drift", drifted()),
            ("typing::ssa", forward_ref()),
            ("typing::input-ordinals", duplicate_ordinal()),
            ("typing::plain-output", plain_output),
        ];
        for (rule, scheme, op) in cases() {
            let (mut p, ids) = prefix(scheme);
            let v = p.raw_push(op(ids), CLAIMED);
            p.raw_output(v);
            table.push((rule, p));
        }
        for (rule, p) in table {
            let diags = check(&p);
            assert!(diags.iter().any(|d| d.rule == rule), "{rule}: {diags:?}");
            let said = panic_message(|| {
                p.lower();
            });
            assert!(said.contains(&format!("[{rule}]")), "{rule}: lower() said {said:?}");
        }
    }

    #[test]
    fn downstream_of_ill_node_is_not_double_reported() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(3);
        // Force a level mismatch behind the builder's back, with users.
        let bad =
            p.raw_push(FheOp::Add(x, y), ValType { plain: false, level: 4, scale: 0, depth: 0 });
        let r = p.aut(bad, 3);
        p.output(r);
        let diags = check(&p);
        let errs: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(errs, vec!["typing::level-mismatch"], "{diags:?}");
    }

    #[test]
    fn interface_survives_legit_optimization() {
        let p = well_typed();
        let before = interface(&p);
        let (q, _) = p.optimize();
        assert!(verify_step(&before, &q, "pipeline").is_empty());
    }

    #[test]
    fn interface_catches_output_type_change() {
        let p = well_typed();
        let before = interface(&p);
        let mut q = p;
        let out = *q.outputs().last().unwrap();
        let ty = q.node(out).ty;
        // Simulate a pass that silently dropped a level: rewrite the
        // output node into a deeper mod-switch chain.
        let op = q.node(out).op.clone();
        *q.raw_node_mut(out) = Node { op, ty: ValType { level: ty.level - 1, ..ty } };
        let diags = verify_step(&before, &q, "bogus");
        assert!(diags.iter().any(|d| d.rule == "typing::interface"), "{diags:?}");
    }

    #[test]
    fn duplicate_ordinals_are_detected() {
        let diags = check(&duplicate_ordinal());
        assert!(diags.iter().any(|d| d.rule == "typing::input-ordinals"), "{diags:?}");
    }
}
