//! Automatic rescale / mod-switch insertion — the noise-management pass.
//!
//! F1 leaves noise management to the programmer (§4.1): the DSL encodes
//! mod-switches by hand and a forgotten one silently erodes the margin
//! the static analysis reports. This pass closes that gap. Driven by the
//! [`crate::analysis::noise`] abstract interpretation, [`insert_rescales`]
//! *reflows* a typed [`FheProgram`]: it walks the node list in id order,
//! **drops every hand-placed `ModSwitch`**, and re-derives placement
//! under one fixed rule:
//!
//! * **CKKS** — every ciphertext operand of a `mul`/`mul_plain` is
//!   rescaled back to scale Δ first (the paper's hand placement).
//! * **BGV** — before a ciphertext product, the operand pair switches
//!   down one level at a time while the joint worst-case noise reduction
//!   exceeds the one-level budget cost (`limb_bits − 1` bits) by more
//!   than 8 bits. Plaintext products never switch: one switch removes at
//!   most `limb_bits − 1` bits of noise, never more than it costs.
//!
//! Placement decisions consult operand *noise*, never the
//! chain *budget*, so they are independent of the provisioned `L` and
//! the resulting margins are monotone in it. BGV correctness is
//! placement-independent:
//! the runtime accumulates a correction factor per switch and divides it
//! out at decryption, so a reflowed program decrypts bit-identically to
//! its hand-managed original (property-checked against the real software
//! BGV stack in `tests/ir_differential.rs`).
//!
//! [`reflow_at`] additionally re-provisions every input at a caller-chosen
//! level — the oracle the `(N, L)` parameter search
//! ([`crate::analysis::param_search`]) binary-searches over.
//!
//! After rebuilding, the pass re-runs the between-pass typing validator
//! ([`crate::analysis::typing::check`]) and the noise analysis, returning
//! the before/after worst-case margins in [`RescaleStats`]. It does *not*
//! use the stricter interface check of `optimize`'s verifier: changing
//! mod-switch placement legitimately changes output levels — that is the
//! point of the pass.

use super::{FheOp, FheProgram, IrId, Scheme};
use crate::analysis::noise::{analyze_with, default_model, NoiseAnalysis, NoiseFact};
use crate::analysis::typing;
use f1_fhe::noise::NoiseModel;
use std::collections::HashMap;

/// Profitability slack (bits) of the BGV rule: a product's operands
/// switch down only while the joint noise reduction beats the one-level
/// budget cost by more than this.
const BGV_SLACK_BITS: f64 = 8.0;

/// Statistics from one [`insert_rescales`] run.
#[derive(Debug, Clone, Copy)]
pub struct RescaleStats {
    /// Mod-switch / rescale nodes the pass inserted.
    pub inserted: usize,
    /// Hand-placed mod-switch nodes the pass dropped before re-deriving.
    pub dropped: usize,
    /// Minimum worst-case margin of the input program (bits).
    pub min_margin_wc_before: f64,
    /// Minimum worst-case margin after insertion (bits).
    pub min_margin_wc_after: f64,
    /// Minimum tracked-estimate margin after insertion (bits).
    ///
    /// The estimate mirrors the runtime's per-op recurrences, which are
    /// deliberately cheap and can be *more pessimistic than the sound
    /// bound* on some shapes (BGV `add_est = max + 1` pays a full bit
    /// per add where the exact sum grows logarithmically; the CKKS
    /// exact-add and automorphism recurrences similarly over-shoot). A
    /// negative value here with a positive [`min_margin_wc_after`]
    /// means the estimate drifted, not the program — the worst-case
    /// bound is the correctness authority.
    ///
    /// [`min_margin_wc_after`]: RescaleStats::min_margin_wc_after
    pub min_margin_est_after: f64,
}

/// Reflows `p` with the scheme's default noise model. See the module
/// docs. GSW programs (no modulus chain) pass through unchanged.
pub fn insert_rescales(p: &FheProgram) -> (FheProgram, RescaleStats) {
    insert_rescales_with(p, default_model(p), None)
}

/// Reflows `p` with every ciphertext and plaintext input re-provisioned
/// at `input_level` limbs — the parameter-search oracle. Plaintext
/// operands follow the inputs up (they only need to *cover* their
/// consumers' levels).
pub fn reflow_at(p: &FheProgram, input_level: usize) -> (FheProgram, RescaleStats) {
    insert_rescales_with(p, default_model(p), Some(input_level))
}

/// Full-control variant: explicit model and optional input re-leveling.
///
/// # Panics
///
/// Panics if the rebuilt program fails the typing validator or changes
/// the program interface (a pass bug, not an input property).
pub fn insert_rescales_with(
    p: &FheProgram,
    model: NoiseModel,
    input_level: Option<usize>,
) -> (FheProgram, RescaleStats) {
    let before = analyze_with(p, model.clone());
    if p.scheme() == Scheme::Gsw {
        // No modulus chain: nothing to place. Identity reflow.
        let stats = RescaleStats {
            inserted: 0,
            dropped: 0,
            min_margin_wc_before: before.min_margin_wc,
            min_margin_wc_after: before.min_margin_wc,
            min_margin_est_after: before.min_margin_est,
        };
        return (p.clone(), stats);
    }
    let mut r = Reflow {
        new: FheProgram::new(p.n, p.scheme()),
        analysis: NoiseAnalysis::new(p, model.clone()),
        facts: Vec::new(),
        switch_cache: HashMap::new(),
        inserted: 0,
        dropped: 0,
    };
    // Plaintext operands must *cover* their consumers (level ≥ the
    // ciphertext's). Dropping hand switches can leave ciphertexts above
    // the level the original program declared its plaintexts at, so
    // plain values are re-provisioned at least as high as any ciphertext
    // can sit — the top ciphertext input level (ct levels only decrease
    // from there). Plaintexts carry no noise; their level is free.
    let ct_top = p
        .nodes()
        .iter()
        .filter_map(|n| match n.op {
            FheOp::CtInput { level, .. } => Some(level),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut map: Vec<IrId> = Vec::with_capacity(p.nodes().len());
    for node in p.nodes() {
        let new_id = match &node.op {
            FheOp::CtInput { level, .. } => {
                let v = r.new.input(input_level.unwrap_or(*level));
                r.track(v)
            }
            FheOp::PtInput { level, .. } => {
                let v = r.new.plain_input(input_level.unwrap_or((*level).max(ct_top)));
                r.track(v)
            }
            FheOp::Constant { coeffs, level } => {
                let v = r.new.constant(coeffs, input_level.unwrap_or((*level).max(ct_top)));
                r.track(v)
            }
            // Hand-placed switches alias through: the rule re-derives
            // placement from scratch.
            FheOp::ModSwitch(a) => {
                r.dropped += 1;
                map[a.0 as usize]
            }
            // Compile-time constant pairs reconstruct verbatim.
            FheOp::Add(a, b) if node.ty.plain => {
                let v = r.new.add(map[a.0 as usize], map[b.0 as usize]);
                r.track(v)
            }
            FheOp::Mul(a, b) if node.ty.plain => {
                let v = r.new.mul(map[a.0 as usize], map[b.0 as usize]);
                r.track(v)
            }
            FheOp::Add(a, b) => r.emit_add(map[a.0 as usize], map[b.0 as usize]),
            FheOp::AddPlain(a, pt) => r.emit_add_plain(map[a.0 as usize], map[pt.0 as usize]),
            FheOp::Mul(a, b) => r.emit_mul(map[a.0 as usize], map[b.0 as usize]),
            FheOp::MulPlain(a, pt) => r.emit_mul_plain(map[a.0 as usize], map[pt.0 as usize]),
            FheOp::Aut { a, k } => r.emit_aut(map[a.0 as usize], *k),
        };
        map.push(new_id);
    }
    for &o in p.outputs() {
        let mapped = map[o.0 as usize];
        r.new.output(mapped);
    }
    let mut out = r.new;
    // The pass builds lax (its own insertions may transiently misalign
    // CKKS scales); the caller's strictness travels with the program.
    out.strict_scale = p.strict_scale;

    // Re-prove the invariants: the typing validator from scratch, plus
    // the interface properties a reflow must preserve (output count and
    // input ordinals — output *levels* legitimately change).
    let diags = typing::check(&out);
    assert!(diags.is_empty(), "insert_rescales produced ill-typed IR: {diags:?}");
    assert_eq!(out.outputs().len(), p.outputs().len(), "insert_rescales changed output count");
    let (before_iface, after_iface) = (typing::interface(p), typing::interface(&out));
    assert_eq!(
        before_iface.ct_ordinals, after_iface.ct_ordinals,
        "insert_rescales changed ciphertext input ordinals"
    );
    assert_eq!(
        before_iface.pt_ordinals, after_iface.pt_ordinals,
        "insert_rescales changed plaintext input ordinals"
    );

    let after = analyze_with(&out, model);
    let stats = RescaleStats {
        inserted: r.inserted,
        dropped: r.dropped,
        min_margin_wc_before: before.min_margin_wc,
        min_margin_wc_after: after.min_margin_wc,
        min_margin_est_after: after.min_margin_est,
    };
    (out, stats)
}

/// The rebuild state: the program under construction plus an incremental
/// noise interpretation of it (one [`NoiseFact`] per new node, computed
/// with the same transfer function the batch analysis sweeps).
struct Reflow {
    new: FheProgram,
    analysis: NoiseAnalysis,
    facts: Vec<NoiseFact>,
    /// `(value, target_level) -> switched value`: switch chains are
    /// shared, so two consumers needing the same operand one level down
    /// reuse a single inserted node.
    switch_cache: HashMap<(u32, usize), IrId>,
    inserted: usize,
    dropped: usize,
}

impl Reflow {
    /// Records the noise fact of a just-pushed node (the batch analysis'
    /// in-order sweep, one node at a time).
    fn track(&mut self, id: IrId) -> IrId {
        debug_assert_eq!(id.0 as usize, self.facts.len(), "track must follow every push");
        let f = self.analysis.transfer(&self.new, id, &self.facts);
        self.facts.push(f);
        id
    }

    fn level(&self, v: IrId) -> usize {
        self.new.level_of(v)
    }

    fn wc(&self, v: IrId) -> f64 {
        self.facts[v.0 as usize].wc
    }

    fn ckks(&self) -> bool {
        self.new.scheme() == Scheme::Ckks
    }

    /// Inserts cached mod-switch chains until `v` sits at `target`.
    fn switch_to(&mut self, mut v: IrId, target: usize) -> IrId {
        while self.level(v) > target {
            let key = (v.0, self.level(v) - 1);
            v = match self.switch_cache.get(&key) {
                Some(&w) => w,
                None => {
                    let w = self.new.mod_switch(v);
                    self.track(w);
                    self.inserted += 1;
                    self.switch_cache.insert(key, w);
                    w
                }
            };
        }
        v
    }

    /// CKKS: rescales `v` until its scale is back at Δ (or the chain runs
    /// out one level above the floor). A no-op outside CKKS.
    fn rescale_to_unit(&mut self, mut v: IrId) -> IrId {
        while self.ckks() && self.new.scale_of(v) > 1 && self.level(v) >= 2 {
            v = self.switch_to(v, self.level(v) - 1);
        }
        v
    }

    fn emit_add(&mut self, a: IrId, b: IrId) -> IrId {
        let t = self.level(a).min(self.level(b));
        let (a, b) = (self.switch_to(a, t), self.switch_to(b, t));
        let v = self.new.add(a, b);
        self.track(v)
    }

    fn emit_add_plain(&mut self, a: IrId, p: IrId) -> IrId {
        // The plaintext covers any level at or below its own; never
        // switch it (plaintexts carry no noise to manage).
        let v = self.new.add_plain(a, p);
        self.track(v)
    }

    fn emit_aut(&mut self, a: IrId, k: usize) -> IrId {
        let v = self.new.aut(a, k);
        self.track(v)
    }

    fn emit_mul(&mut self, a: IrId, b: IrId) -> IrId {
        // CKKS scale discipline is mandatory, not a profitability call:
        // a skipped rescale doubles the scale at every downstream square,
        // so its true cost compounds multiplicatively — operands
        // renormalize to Δ at every mul boundary (the standard CKKS
        // practice and the paper's hand placement).
        let (a, b) = (self.rescale_to_unit(a), self.rescale_to_unit(b));
        let t = self.level(a).min(self.level(b));
        let (mut a, mut b) = (self.switch_to(a, t), self.switch_to(b, t));
        if !self.ckks() {
            let target = self.renorm_level_for_mul(a, b);
            a = self.switch_to(a, target);
            b = self.switch_to(b, target);
        }
        let v = self.new.mul(a, b);
        self.track(v)
    }

    fn emit_mul_plain(&mut self, a: IrId, p: IrId) -> IrId {
        let a = self.rescale_to_unit(a);
        let v = self.new.mul_plain(a, p);
        self.track(v)
    }

    /// Pre-multiplication planning for a BGV ciphertext product: starting
    /// from the aligned level of `a`/`b`, simulate switching *both*
    /// operands one level down while the joint worst-case noise reduction
    /// exceeds the one-level budget cost (`limb_bits - 1`) by more than
    /// [`BGV_SLACK_BITS`]. Returns the chosen operand level.
    ///
    /// The decision never consults the budget at the current level, so
    /// placement is identical at every provisioned `L` — the property the
    /// parameter search's binary search requires (margins affine in `L`).
    fn renorm_level_for_mul(&self, a: IrId, b: IrId) -> usize {
        let m = self.analysis.model();
        let mut level = self.level(a);
        debug_assert_eq!(level, self.level(b));
        let square = a == b;
        let (mut awc, mut bwc) = (self.wc(a), self.wc(b));
        let cost = f64::from(m.limb_bits - 1);
        while level >= 2 {
            let awc2 = m.wc_mod_switch(awc, level);
            let bwc2 = if square { awc2 } else { m.wc_mod_switch(bwc, level) };
            let gain_a = awc - awc2;
            let gain_b = if square { gain_a } else { bwc - bwc2 };
            if gain_a + gain_b <= cost + BGV_SLACK_BITS {
                break;
            }
            level -= 1;
            (awc, bwc) = (awc2, bwc2);
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::noise;

    /// An under-provisioned BGV squaring chain with no hand-placed
    /// switches: depth 3 at a level that can absorb it only if managed.
    fn unmanaged_bgv(level: usize, depth: usize) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let mut x = p.input(level);
        for _ in 0..depth {
            x = p.square(x);
        }
        p.output(x);
        p
    }

    fn switches(q: &FheProgram) -> usize {
        q.nodes().iter().filter(|n| matches!(n.op, FheOp::ModSwitch(_))).count()
    }

    #[test]
    fn lazy_improves_margin_on_unmanaged_chain() {
        let p = unmanaged_bgv(8, 5);
        assert!(noise::analyze(&p).min_margin_wc < 8.0, "premise: chain needs management");
        let (q, stats) = insert_rescales(&p);
        assert!(stats.inserted > 0, "{stats:?}");
        assert!(
            stats.min_margin_wc_after > stats.min_margin_wc_before,
            "managed margin must improve: {stats:?}"
        );
        assert!(crate::analysis::typing::check(&q).is_empty());
    }

    #[test]
    fn hand_placed_switches_are_dropped_and_rederived() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(12);
        let m = p.square(x);
        let d = p.mod_switch(m);
        let d = p.mod_switch(d); // gratuitous second switch
        let m2 = p.square(d);
        p.output(m2);
        let (q, stats) = insert_rescales(&p);
        assert_eq!(stats.dropped, 2);
        assert!(switches(&q) > 0, "the second square must re-derive switches");
        assert_eq!(stats.inserted, switches(&q));
        assert!(stats.min_margin_wc_after >= stats.min_margin_wc_before - 1e-9, "{stats:?}");
    }

    #[test]
    fn mul_boundary_renormalizes_ckks_scales() {
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
        let x = p.input(8);
        let m = p.square(x); // scale 2
        let m2 = p.square(m); // scale 4 unmanaged
        p.output(m2);
        let (q, _) = insert_rescales(&p);
        // Every mul's operands are at scale 1 when it fires.
        for node in q.nodes() {
            if let FheOp::Mul(a, b) = node.op {
                assert_eq!(q.scale_of(a), 1, "mul-boundary operand scale");
                assert_eq!(q.scale_of(b), 1);
            }
        }
        assert!(crate::analysis::typing::check(&q).is_empty());
    }

    #[test]
    fn gsw_passes_through_unchanged() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        let y = p.input(2);
        let m = p.mul(x, y);
        p.output(m);
        let (q, stats) = insert_rescales(&p);
        assert_eq!(stats.inserted, 0);
        assert_eq!(q.nodes().len(), p.nodes().len());
    }

    #[test]
    fn reflow_at_reprovisions_inputs_and_goes_positive() {
        // Depth-4 chain, hopeless at level 2 — reflow at a generous level
        // must turn the worst-case margin positive.
        let p = unmanaged_bgv(2, 4);
        let before = noise::analyze(&p);
        assert!(before.min_margin_wc < 0.0, "premise: unmanaged is broken");
        let (q, stats) = reflow_at(&p, 12);
        assert!(stats.min_margin_wc_after > 0.0, "{stats:?}");
        for node in q.nodes() {
            if let FheOp::CtInput { level, .. } = node.op {
                assert_eq!(level, 12);
            }
        }
    }

    #[test]
    fn reflow_is_deterministic() {
        let p = unmanaged_bgv(12, 3);
        let (a, _) = insert_rescales(&p);
        let (b, _) = insert_rescales(&p);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn shared_operands_reuse_switch_chains() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(12);
        let y = p.square(x); // noisy enough that squaring it pays a switch
        let a = p.square(y);
        let b = p.square(y); // same operand squared twice (CSE'd later)
        let s = p.add(a, b);
        p.output(s);
        let (q, _) = insert_rescales(&p);
        assert!(switches(&q) > 0, "squaring y must switch it down");
        // Both squares take y down the same chain: no value is switched
        // twice.
        let mut switched: Vec<IrId> = q
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                FheOp::ModSwitch(v) => Some(v),
                _ => None,
            })
            .collect();
        let n = switched.len();
        switched.sort_by_key(|v| v.0);
        switched.dedup();
        assert_eq!(switched.len(), n, "duplicate switch chain: {q:?}");
    }

    #[test]
    fn plaintext_operands_follow_without_switching() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(12);
        let c = p.scalar(3, 12);
        let m = p.square(x);
        let m = p.square(m); // switched down first: the ct ends below c
        let m = p.mul_plain(m, c);
        p.output(m);
        let (q, _) = insert_rescales(&p);
        assert!(crate::analysis::typing::check(&q).is_empty());
        assert!(switches(&q) > 0, "the second square must switch");
        // The constant stays at its declared level; the covering rule
        // admits the lower-level ciphertext.
        let c_level = q
            .nodes()
            .iter()
            .find_map(|n| match n.op {
                FheOp::Constant { level, .. } => Some(level),
                _ => None,
            })
            .unwrap();
        assert_eq!(c_level, 12);
        let out = *q.outputs().last().unwrap();
        assert!(q.level_of(out) < c_level, "premise: the ct sits below the constant");
    }
}
