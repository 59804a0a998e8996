//! Optimization passes over the [`FheProgram`] IR.
//!
//! Every pass follows the same discipline: walk the node list **in id
//! order**, record rewrites in an alias table (`alias[i] = j` means
//! "value `i` is replaced by the earlier value `j`"), then rebuild the
//! program with survivors renumbered densely in their original order.
//! No pass ever iterates a hash map, so for a given input program the
//! output — ids included — is bit-for-bit deterministic.
//!
//! The passes (run by [`optimize`] to a bounded fixpoint):
//!
//! * **Rotation dedup** — `σ_1` is the identity and disappears (Listing
//!   2's `innerSum` over all `N` slots emits one per output row because
//!   `ord(3) = 2N/4`).
//! * **CSE** — structurally identical nodes merge (commutative operands
//!   canonicalized by id order). Runtime inputs carry build-time
//!   ordinals precisely so CSE can never merge two distinct inputs.
//! * **Key-switch hoisting** — `ModSwitch(Aut(x, k))` with a single-use
//!   automorphism becomes `Aut(ModSwitch(x), k)`: the automorphism's GHS
//!   key-switch runs one level lower, where its hint holds `4(l-1)`
//!   vectors instead of `4l` and its base-conversion multiply-accumulates,
//!   which grow as about `3l²`, shrink with it. Every output level is
//!   preserved (mod-switch rounds coefficients independently, so it
//!   commutes with the Galois permutation exactly).
//! * **DCE** — nodes that cannot reach an output are dropped.
//!
//! A plaintext is a leaf of the IR (no op yields one), so there is no
//! constant arithmetic to fold.

use super::{FheOp, FheProgram, IrId, Node};
use crate::analysis::typing;
use std::collections::HashMap;

pub use super::rescale::{insert_rescales, insert_rescales_with, reflow_at, RescaleStats};

/// Statistics from one [`optimize`] run (printed by the paper bins to
/// make the IR's effect visible per benchmark).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptStats {
    /// Homomorphic-op (IR node) count before optimization.
    pub nodes_before: usize,
    /// Node count after.
    pub nodes_after: usize,
    /// Key-switching ops (Mul/Aut) before — the expansion-cost drivers.
    pub keyswitch_before: usize,
    /// Key-switching ops after.
    pub keyswitch_after: usize,
    /// Identity rotations (`σ_1`) removed.
    pub rotations_merged: usize,
    /// Common subexpressions merged.
    pub cse_merged: usize,
    /// Mod-switches hoisted above automorphisms.
    pub hoisted: usize,
    /// Dead nodes removed.
    pub dead_removed: usize,
}

impl OptStats {
    /// Nodes eliminated end to end.
    pub fn removed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

/// Runs the full pipeline to a bounded fixpoint. See module docs.
///
/// After every pass [`typing::check`] re-proves the IR invariants and
/// [`typing::verify_step`] checks the program interface (output types,
/// input ordinals) against the input program, panicking with the
/// offending pass's name if a pass broke either; the last pass's check
/// is the final one. The validation is O(nodes) per pass — cheap next
/// to the passes themselves — so it is always on, not debug-only.
pub fn optimize(input: &FheProgram) -> (FheProgram, OptStats) {
    let interface = typing::interface(input);
    let verified = |q: FheProgram, pass: &str| {
        typing::assert_verified(&interface, &q, pass);
        q
    };
    let mut p = input.clone();
    let mut stats = OptStats {
        nodes_before: p.nodes.len(),
        keyswitch_before: p.keyswitch_count(),
        ..Default::default()
    };
    for _ in 0..8 {
        let (q, r) = rotation_dedup(&p);
        let q = verified(q, "rotation_dedup");
        let (q, c1) = cse(&q);
        let q = verified(q, "cse");
        let (q, h) = hoist_keyswitch(&q);
        let q = verified(q, "hoist_keyswitch");
        let (q, c2) = cse(&q);
        let q = verified(q, "cse#2");
        let (q, d) = dce(&q);
        let q = verified(q, "dce");
        stats.rotations_merged += r;
        stats.cse_merged += c1 + c2;
        stats.hoisted += h;
        stats.dead_removed += d;
        p = q;
        if r + c1 + h + c2 + d == 0 {
            break;
        }
    }
    stats.nodes_after = p.nodes.len();
    stats.keyswitch_after = p.keyswitch_count();
    (p, stats)
}

/// Follows an alias chain to its root.
fn resolve(alias: &[u32], mut v: u32) -> u32 {
    while alias[v as usize] != v {
        v = alias[v as usize];
    }
    v
}

/// Rebuilds a program through an alias table: aliased nodes are dropped
/// (every reference to them has been redirected to their root), the rest
/// keep their original relative order under dense renumbering.
fn apply_alias(p: &FheProgram, alias: &[u32]) -> FheProgram {
    let mut new_id = vec![u32::MAX; p.nodes.len()];
    let mut nodes = Vec::with_capacity(p.nodes.len());
    for (i, node) in p.nodes.iter().enumerate() {
        if alias[i] as usize != i {
            continue;
        }
        new_id[i] = nodes.len() as u32;
        let remap = |v: IrId| IrId(new_id[resolve(alias, v.0) as usize]);
        nodes.push(Node { op: remap_op(&node.op, &remap), ty: node.ty });
    }
    let outputs =
        p.outputs.iter().map(|&o| IrId(new_id[resolve(alias, o.0) as usize])).collect::<Vec<_>>();
    FheProgram {
        n: p.n,
        scheme: p.scheme,
        nodes,
        outputs,
        next_ct_ordinal: p.next_ct_ordinal,
        next_pt_ordinal: p.next_pt_ordinal,
    }
}

fn remap_op(op: &FheOp, remap: &dyn Fn(IrId) -> IrId) -> FheOp {
    match op {
        FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => op.clone(),
        FheOp::Add(a, b) => FheOp::Add(remap(*a), remap(*b)),
        FheOp::AddPlain(a, b) => FheOp::AddPlain(remap(*a), remap(*b)),
        FheOp::Mul(a, b) => FheOp::Mul(remap(*a), remap(*b)),
        FheOp::MulPlain(a, b) => FheOp::MulPlain(remap(*a), remap(*b)),
        FheOp::Aut { a, k } => FheOp::Aut { a: remap(*a), k: *k },
        FheOp::ModSwitch(a) => FheOp::ModSwitch(remap(*a)),
    }
}

/// Use counts after alias resolution; program outputs count as uses.
fn use_counts(p: &FheProgram) -> Vec<usize> {
    let mut uses = vec![0usize; p.nodes.len()];
    for node in &p.nodes {
        for o in node.op.operands() {
            uses[o.0 as usize] += 1;
        }
    }
    for &o in &p.outputs {
        uses[o.0 as usize] += 1;
    }
    uses
}

/// Rotation dedup: `σ_1` is the identity, so each `Aut` with `k = 1`
/// aliases to its operand. Returns (program, rewrites).
pub fn rotation_dedup(p: &FheProgram) -> (FheProgram, usize) {
    let mut alias: Vec<u32> = (0..p.nodes.len() as u32).collect();
    let mut rewrites = 0usize;
    for (i, node) in p.nodes.iter().enumerate() {
        if let FheOp::Aut { a, k: 1 } = node.op {
            alias[i] = resolve(&alias, a.0);
            rewrites += 1;
        }
    }
    (apply_alias(p, &alias), rewrites)
}

/// Canonical structural key for CSE. Commutative ops sort operand ids;
/// runtime inputs key on their build-time ordinal (two distinct inputs
/// never merge), constants on their full value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Ct(u32),
    Pt(u32),
    Const(usize, Vec<u64>),
    Add(u32, u32),
    AddPlain(u32, u32),
    Mul(u32, u32),
    MulPlain(u32, u32),
    Aut(u32, usize),
    ModSwitch(u32),
}

/// Common-subexpression elimination. Returns (program, merges).
pub fn cse(p: &FheProgram) -> (FheProgram, usize) {
    let mut alias: Vec<u32> = (0..p.nodes.len() as u32).collect();
    // Keyed lookup only — iteration stays over the node list in id
    // order, so hash order never shapes the output.
    let mut seen: HashMap<Key, u32> = HashMap::new();
    let mut merges = 0usize;
    for (i, node) in p.nodes.iter().enumerate() {
        let r = |v: &IrId| resolve(&alias, v.0);
        let sorted = |a: &IrId, b: &IrId| {
            let (x, y) = (r(a), r(b));
            if x <= y {
                (x, y)
            } else {
                (y, x)
            }
        };
        let key = match &node.op {
            FheOp::CtInput { ordinal, .. } => Key::Ct(*ordinal),
            FheOp::PtInput { ordinal, .. } => Key::Pt(*ordinal),
            FheOp::Constant { coeffs, level } => Key::Const(*level, coeffs.clone()),
            FheOp::Add(a, b) => {
                let (x, y) = sorted(a, b);
                Key::Add(x, y)
            }
            FheOp::Mul(a, b) => {
                let (x, y) = sorted(a, b);
                Key::Mul(x, y)
            }
            FheOp::AddPlain(a, b) => Key::AddPlain(r(a), r(b)),
            FheOp::MulPlain(a, b) => Key::MulPlain(r(a), r(b)),
            FheOp::Aut { a, k } => Key::Aut(r(a), *k),
            FheOp::ModSwitch(a) => Key::ModSwitch(r(a)),
        };
        match seen.get(&key) {
            Some(&first) => {
                alias[i] = first;
                merges += 1;
            }
            None => {
                seen.insert(key, i as u32);
            }
        }
    }
    (apply_alias(p, &alias), merges)
}

/// Key-switch hoisting: `ModSwitch(Aut(x, k))` with a single-use
/// automorphism becomes `Aut(ModSwitch(x), k)` by swapping the two nodes
/// in place (the mod-switch moves into the automorphism's slot, so SSA
/// order is preserved without renumbering). The automorphism's GHS
/// key-switch then runs one level lower: at level `l` it fetches a
/// `4l`-vector hint and spends about `3l²` multiplies on base
/// conversion, so one level saves about `6l` of them. Every downstream
/// level is unchanged. Returns (program, hoists).
pub fn hoist_keyswitch(p: &FheProgram) -> (FheProgram, usize) {
    let mut p = p.clone();
    let uses = use_counts(&p);
    let mut hoists = 0usize;
    for i in 0..p.nodes.len() {
        let FheOp::ModSwitch(a) = p.nodes[i].op else { continue };
        let FheOp::Aut { a: x, k } = p.nodes[a.0 as usize].op else { continue };
        if uses[a.0 as usize] != 1 {
            continue;
        }
        // σ_k keeps its operand's type, so x switches wherever σ_k(x) did.
        let switched =
            typing::infer(&p, &FheOp::ModSwitch(x)).expect("the mod-switch typed before hoisting");
        let out_ty = p.nodes[i].ty;
        p.nodes[a.0 as usize] = Node { op: FheOp::ModSwitch(x), ty: switched };
        p.nodes[i] = Node { op: FheOp::Aut { a, k }, ty: out_ty };
        hoists += 1;
    }
    (p, hoists)
}

/// Dead-code elimination: drops nodes that cannot reach an output.
/// Returns (program, removed).
pub fn dce(p: &FheProgram) -> (FheProgram, usize) {
    let mut live = vec![false; p.nodes.len()];
    for &o in &p.outputs {
        live[o.0 as usize] = true;
    }
    for i in (0..p.nodes.len()).rev() {
        if live[i] {
            for o in p.nodes[i].op.operands() {
                live[o.0 as usize] = true;
            }
        }
    }
    // Reuse the alias machinery: a dead node aliased to id 0 is dropped,
    // and since nothing live references it the redirect is never read.
    // (Dead node 0 with live successors cannot happen: liveness is
    // transitive over operands, and node 0 has none.)
    let mut alias: Vec<u32> = (0..p.nodes.len() as u32).collect();
    let mut removed = 0usize;
    for (i, &l) in live.iter().enumerate() {
        if !l {
            alias[i] = 0;
            removed += 1;
        }
    }
    if removed == p.nodes.len() {
        // Fully dead program (no outputs): rebuild empty directly.
        let mut q = p.clone();
        q.nodes.clear();
        q.outputs.clear();
        return (q, removed);
    }
    if !live[0] {
        // Root the alias table at the first live node instead.
        let root = live.iter().position(|&l| l).unwrap() as u32;
        for (i, &l) in live.iter().enumerate() {
            if !l {
                alias[i] = root;
            }
        }
        alias[root as usize] = root;
    }
    (apply_alias(p, &alias), removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Scheme;

    fn bgv(n: usize) -> FheProgram {
        FheProgram::new(n, Scheme::Bgv)
    }

    #[test]
    fn cse_merges_identical_muls() {
        let mut p = bgv(1 << 10);
        let x = p.input(4);
        let y = p.input(4);
        let m1 = p.mul(x, y);
        let m2 = p.mul(y, x); // commutative duplicate
        let s = p.add(m1, m2);
        p.output(s);
        let (q, stats) = optimize(&p);
        let muls = q.nodes().iter().filter(|n| matches!(n.op, FheOp::Mul(..))).count();
        assert_eq!(muls, 1, "commutative duplicate must merge");
        assert!(stats.cse_merged >= 1);
        // The add survives as add(m, m).
        assert_eq!(q.outputs().len(), 1);
    }

    #[test]
    fn cse_never_merges_distinct_inputs() {
        let mut p = bgv(1 << 10);
        let x = p.input(4);
        let y = p.input(4); // same level/shape, different data
        let s = p.add(x, y);
        p.output(s);
        let (q, _) = optimize(&p);
        let inputs = q.nodes().iter().filter(|n| matches!(n.op, FheOp::CtInput { .. })).count();
        assert_eq!(inputs, 2);
    }

    #[test]
    fn dce_drops_dead_rotations() {
        let mut p = bgv(1 << 10);
        let x = p.input(4);
        let _dead = p.rotate(x, 3); // a full key-switch, never used
        let live = p.square(x);
        p.output(live);
        let (q, stats) = optimize(&p);
        assert!(stats.dead_removed >= 1);
        assert!(
            !q.nodes().iter().any(|n| matches!(n.op, FheOp::Aut { .. })),
            "dead rotation must be eliminated"
        );
    }

    #[test]
    fn identity_rotation_is_eliminated() {
        // ord(3) mod 2N = 2N/4, so rotating by 2N/4 slots is σ_1 = id.
        let n = 1 << 10;
        let mut p = bgv(n);
        let x = p.input(4);
        let r = p.rotate(x, 2 * n / 4);
        let s = p.add(x, r); // becomes add(x, x)
        p.output(s);
        let (q, stats) = optimize(&p);
        assert!(stats.rotations_merged >= 1);
        assert!(!q.nodes().iter().any(|n| matches!(n.op, FheOp::Aut { .. })));
        assert_eq!(q.outputs().len(), 1);
    }

    #[test]
    fn hoisting_moves_keyswitch_below_modswitch_and_preserves_levels() {
        let mut p = bgv(1 << 10);
        let x = p.input(4);
        let r = p.aut(x, 3);
        let d = p.mod_switch(r);
        p.output(d);
        let before_out_level = p.level_of(*p.outputs().last().unwrap());
        let (q, stats) = optimize(&p);
        assert_eq!(stats.hoisted, 1);
        let out = *q.outputs().last().unwrap();
        assert_eq!(q.level_of(out), before_out_level, "hoisting must preserve output level");
        // The automorphism now runs at the reduced level.
        let aut_level = q
            .nodes()
            .iter()
            .find_map(|n| match n.op {
                FheOp::Aut { .. } => Some(n.ty.level),
                _ => None,
            })
            .unwrap();
        assert_eq!(aut_level, 3, "key-switch must run below the mod-switch");
        // And the result is the automorphism node (order swapped).
        assert!(matches!(q.node(out).op, FheOp::Aut { .. }));
    }

    #[test]
    fn hoisting_skips_shared_automorphisms() {
        let mut p = bgv(1 << 10);
        let x = p.input(4);
        let r = p.aut(x, 3);
        let d = p.mod_switch(r);
        let e = p.aut(r, 5); // second user of r
        p.output(d);
        let d2 = p.mod_switch(e);
        p.output(d2);
        let (_, stats) = hoist_keyswitch(&p);
        assert_eq!(stats, 1, "only the single-use chain may hoist");
    }

    #[test]
    fn hoisting_saves_keyswitch_multiplies() {
        // The fhe-ops BGV block: mul → rotate → mod_switch at N = 2^14,
        // L = 16. Hoisting runs the rotation's key-switch at l = 15.
        let mut p = bgv(1 << 14);
        let (x, y) = (p.input(16), p.input(16));
        let m = p.mul(x, y);
        let r = p.rotate(m, 1);
        let d = p.mod_switch(r);
        p.output(d);
        let (q, stats) = optimize(&p);
        assert_eq!(stats.hoisted, 1);
        let muls = |p: &FheProgram| {
            let ex = crate::expand::expand(&p.lower().program, &Default::default());
            let mul = f1_isa::streams::FuType::Mul;
            ex.dfg.instrs().iter().filter(|i| i.op.fu_type() == mul).count()
        };
        let (before, after) = (muls(&p), muls(&q));
        assert!(after < before, "Mul-class instructions {before} -> {after}");
    }

    #[test]
    fn matvec_identity_rotations_vanish() {
        // Listing 2 at N=16K: innerSum over all N slots wraps its last
        // rotation to σ_1 (ord(3) = 2N/4) — one dead key-switch per row.
        let p = FheProgram::listing2_matvec(1 << 14, 16, 4);
        let (q, stats) = optimize(&p);
        let before = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Aut { .. })).count();
        let after = q.nodes().iter().filter(|n| matches!(n.op, FheOp::Aut { .. })).count();
        assert_eq!(before, 4 * 14);
        assert_eq!(after, 4 * 13, "one identity rotation per row must vanish");
        assert_eq!(stats.keyswitch_before - stats.keyswitch_after, 4);
    }

    #[test]
    fn optimize_is_deterministic() {
        let build = || {
            let mut p = bgv(1 << 12);
            let x = p.input(6);
            let y = p.input(6);
            let m1 = p.mul(x, y);
            let m2 = p.mul(y, x);
            let r = p.rotate(m1, 2);
            let r2 = p.rotate(m2, 2);
            let s = p.add(r, r2);
            let d = p.mod_switch(s);
            let _dead = p.square(d);
            let out = p.rotate(d, 1);
            p.output(out);
            p
        };
        let (a, _) = optimize(&build());
        let (b, _) = optimize(&build());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "optimize must be bit-deterministic");
    }
}
