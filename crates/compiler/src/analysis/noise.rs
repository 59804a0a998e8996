//! Static noise-budget estimation: abstract interpretation of noise
//! growth in bits per node.
//!
//! Each node carries two numbers, both `log2` of the noise magnitude
//! `|t·e|`: the **tracked estimate** (the same recurrences the runtime
//! [`f1_fhe::bgv::Ciphertext`] uses) and a **worst-case sound bound**
//! (see [`f1_fhe::noise::NoiseModel`]). The margin against the
//! decryption ceiling `log2(Q_l/2)` is reported per node; the minimum
//! over the program plus the chain of worst operands from an input to
//! that node is the **critical noise path** — the place a rescale or an
//! extra level would have to go.
//!
//! BGV correction factors are tracked abstractly: modulus switching
//! multiplies the embedded plaintext by `q_top^{-1} mod t`, so two
//! operands that took different mod-switch histories need a re-scale
//! before addition (worth up to `t/2×` noise growth) — the analysis
//! models the history as a multiset of switched-from levels and charges
//! the alignment only when histories differ, exactly as the runtime
//! does.
//!
//! Every `Mul` is charged its own relinearization key-switch. Pass 1 may
//! instead relinearize a sum of products once, at the sum's root
//! ([`crate::expand::relin_plan`]): the sum then carries one key-switch
//! error instead of one per product, and a `MulPlain` of a deferred
//! product no longer scales that error. So the per-`Mul` charge stays an
//! upper bound on the noise of the DFG pass 1 emits.
//!
//! Soundness: `tests/ir_differential.rs` property-checks `wc ≥ measured`
//! against the real software BGV executor for random optimized and
//! unoptimized programs. The CKKS and GSW models use the same machinery
//! but have no executor to validate against, so lints cap their findings
//! at warning severity (see [`super::lints`]).

use crate::ir::{FheOp, FheProgram, IrId, Scheme};
use f1_fhe::noise::NoiseModel;

/// Per-node abstract noise state.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseFact {
    /// Tracked-estimate noise bits (the runtime recurrence).
    pub est: f64,
    /// Worst-case sound bound on noise bits.
    pub wc: f64,
    /// Abstract BGV correction history: sorted (switched-from level,
    /// count) pairs. Empty outside BGV.
    pub correction: Vec<(usize, u32)>,
    /// The operand contributing the largest worst-case noise (critical
    /// noise path back-pointer).
    pub worst_operand: Option<IrId>,
}

/// The bottom fact: no encryption noise. Plaintexts carry it, and so
/// does an operand that is not an earlier node (malformed IR, which the
/// typing validator reports).
static NOISELESS: NoiseFact = NoiseFact {
    est: f64::NEG_INFINITY,
    wc: f64::NEG_INFINITY,
    correction: Vec::new(),
    worst_operand: None,
};

fn merge_corrections(a: &[(usize, u32)], b: &[(usize, u32)]) -> Vec<(usize, u32)> {
    let mut out = a.to_vec();
    for &(level, count) in b {
        match out.binary_search_by_key(&level, |&(l, _)| l) {
            Ok(i) => out[i].1 += count,
            Err(i) => out.insert(i, (level, count)),
        }
    }
    out
}

fn bump_correction(c: &[(usize, u32)], level: usize) -> Vec<(usize, u32)> {
    merge_corrections(c, &[(level, 1)])
}

/// The noise abstract interpretation: one transfer function, applied in
/// one in-order sweep by [`analyze_with`] and node by node by the
/// rescale pass ([`crate::ir::rescale`]) as it builds a program.
pub struct NoiseAnalysis {
    model: NoiseModel,
    track_corrections: bool,
}

impl NoiseAnalysis {
    /// An analysis over `model` (correction tracking on for BGV only).
    pub fn new(p: &FheProgram, model: NoiseModel) -> Self {
        Self { model, track_corrections: p.scheme() == Scheme::Bgv }
    }

    /// The model this analysis interprets under.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The fact of node `id`, given `facts`, the facts of the nodes
    /// before it. Ids are in SSA creation order, so that prefix holds
    /// every operand of a well-formed node; any other operand reads the
    /// noiseless bottom fact.
    pub fn transfer(&self, p: &FheProgram, id: IrId, facts: &[NoiseFact]) -> NoiseFact {
        let m = &self.model;
        let node = p.node(id);
        if node.ty.plain {
            // Constants, runtime plaintexts and compile-time constant
            // pairs carry no encryption noise.
            return NOISELESS.clone();
        }
        let level = node.ty.level;
        let fact = |v: &IrId| facts.get(v.0 as usize).unwrap_or(&NOISELESS);
        let scale = |v: &IrId| p.nodes().get(v.0 as usize).map_or(0, |n| n.ty.scale);
        match &node.op {
            FheOp::CtInput { .. } => NoiseFact {
                est: m.est_fresh(),
                wc: m.wc_fresh(),
                correction: Vec::new(),
                worst_operand: None,
            },
            FheOp::Add(a_id, b_id) => {
                let (a, b) = (fact(a_id), fact(b_id));
                let aligned = !self.track_corrections || a.correction == b.correction;
                let (b_est, b_wc) =
                    if aligned { (b.est, b.wc) } else { (m.est_align(b.est), m.wc_align(b.wc)) };
                NoiseFact {
                    est: m.est_add(a.est, b_est),
                    wc: m.wc_add(a.wc, b_wc),
                    correction: a.correction.clone(),
                    worst_operand: Some(if a.wc >= b_wc { *a_id } else { *b_id }),
                }
            }
            FheOp::AddPlain(a_id, _) => {
                let a = fact(a_id);
                NoiseFact {
                    est: m.est_add_plain(a.est),
                    // BGV: the scaled plaintext re-centers mod t (+ t);
                    // CKKS: only the encoding-rounding error is added.
                    wc: m.wc_add_plain(a.wc),
                    correction: a.correction.clone(),
                    worst_operand: Some(*a_id),
                }
            }
            FheOp::Mul(a_id, b_id) => {
                let (a, b) = (fact(a_id), fact(b_id));
                let (est, wc) = if p.scheme() == Scheme::Ckks {
                    // The CKKS bound needs the operand scales: the message
                    // magnitude (Δ^scale) multiplies the other operand's
                    // noise in the cross terms.
                    let (sa, sb) = (scale(a_id), scale(b_id));
                    (
                        m.est_mul_ckks(a.est, sa, b.est, sb, level),
                        m.wc_mul_ckks(a.wc, sa, b.wc, sb, level),
                    )
                } else {
                    (m.est_mul(a.est, b.est, level), m.wc_mul(a.wc, b.wc, level))
                };
                NoiseFact {
                    est,
                    wc,
                    correction: merge_corrections(&a.correction, &b.correction),
                    worst_operand: Some(if a.wc >= b.wc { *a_id } else { *b_id }),
                }
            }
            FheOp::MulPlain(a_id, b_id) => {
                let a = fact(a_id);
                let (est, wc) = if p.scheme() == Scheme::Ckks {
                    let (sa, sp) = (scale(a_id), scale(b_id));
                    (m.est_mul_plain_ckks(a.est, sa, sp), m.wc_mul_plain_ckks(a.wc, sa, sp))
                } else {
                    (m.est_mul_plain(a.est), m.wc_mul_plain(a.wc))
                };
                NoiseFact { est, wc, correction: a.correction.clone(), worst_operand: Some(*a_id) }
            }
            FheOp::Aut { a: a_id, .. } => {
                let a = fact(a_id);
                NoiseFact {
                    est: m.est_aut(a.est),
                    wc: m.wc_aut(a.wc, level),
                    correction: a.correction.clone(),
                    worst_operand: Some(*a_id),
                }
            }
            FheOp::ModSwitch(a_id) => {
                let a = fact(a_id);
                // `level` is the post-switch level; the switch happened
                // from level + 1.
                let from = level + 1;
                let correction = if self.track_corrections {
                    bump_correction(&a.correction, from)
                } else {
                    Vec::new()
                };
                NoiseFact {
                    est: m.est_mod_switch(a.est, from),
                    wc: m.wc_mod_switch(a.wc, from),
                    correction,
                    worst_operand: Some(*a_id),
                }
            }
            FheOp::PtInput { .. } | FheOp::Constant { .. } => NOISELESS.clone(),
        }
    }
}

/// The scheme's default noise model for a program (what [`analyze`]
/// interprets under).
pub fn default_model(p: &FheProgram) -> NoiseModel {
    match p.scheme() {
        Scheme::Bgv => NoiseModel::bgv_default(p.n),
        Scheme::Ckks => NoiseModel::ckks(p.n),
        Scheme::Gsw => NoiseModel::gsw(p.n),
    }
}

/// The result of the noise analysis over one program.
#[derive(Debug, Clone)]
pub struct NoiseReport {
    /// The model the program was interpreted under.
    pub model: NoiseModel,
    /// Per-node abstract state (indexed by id).
    pub facts: Vec<NoiseFact>,
    /// Minimum worst-case margin over all ciphertext nodes (`+inf` if
    /// the program has none).
    pub min_margin_wc: f64,
    /// Minimum tracked-estimate margin.
    pub min_margin_est: f64,
    /// The node attaining `min_margin_wc`.
    pub critical: Option<IrId>,
    /// Worst-operand chain from an input to [`NoiseReport::critical`].
    pub critical_path: Vec<IrId>,
}

impl NoiseReport {
    /// Bits the value occupies before noise starts (CKKS holds the
    /// message at scale `Δ^s`; BGV/GSW noise `t·e` already includes the
    /// plaintext's span).
    fn headroom(&self, p: &FheProgram, id: IrId) -> f64 {
        if p.scheme() == Scheme::Ckks {
            f64::from(p.node(id).ty.scale) * f64::from(self.model.limb_bits)
        } else {
            0.0
        }
    }

    /// Worst-case margin of one node: budget − value headroom − bound.
    pub fn margin_wc(&self, p: &FheProgram, id: IrId) -> f64 {
        self.model.budget_bits(p.node(id).ty.level)
            - self.headroom(p, id)
            - self.facts[id.0 as usize].wc
    }

    /// Tracked-estimate margin of one node.
    pub fn margin_est(&self, p: &FheProgram, id: IrId) -> f64 {
        self.model.budget_bits(p.node(id).ty.level)
            - self.headroom(p, id)
            - self.facts[id.0 as usize].est
    }
}

/// Runs the noise analysis with the scheme's default model.
pub fn analyze(p: &FheProgram) -> NoiseReport {
    analyze_with(p, default_model(p))
}

/// Runs the noise analysis under an explicit model (e.g. a non-default
/// plaintext modulus).
pub fn analyze_with(p: &FheProgram, model: NoiseModel) -> NoiseReport {
    let analysis = NoiseAnalysis::new(p, model);
    let mut facts = Vec::with_capacity(p.nodes().len());
    for i in 0..p.nodes().len() {
        let fact = analysis.transfer(p, IrId(i as u32), &facts);
        facts.push(fact);
    }
    let mut report = NoiseReport {
        model: analysis.model,
        facts,
        min_margin_wc: f64::INFINITY,
        min_margin_est: f64::INFINITY,
        critical: None,
        critical_path: Vec::new(),
    };
    for (i, node) in p.nodes().iter().enumerate() {
        if node.ty.plain {
            continue;
        }
        let id = IrId(i as u32);
        let wc = report.margin_wc(p, id);
        let est = report.margin_est(p, id);
        report.min_margin_est = report.min_margin_est.min(est);
        if wc < report.min_margin_wc {
            report.min_margin_wc = wc;
            report.critical = Some(id);
        }
    }
    if let Some(mut at) = report.critical {
        let mut path = vec![at];
        // An operand that is not an earlier node (malformed IR) ends the
        // path, so a cycle of forward references cannot loop here.
        while let Some(prev) = report.facts[at.0 as usize].worst_operand.filter(|v| *v < at) {
            path.push(prev);
            at = prev;
        }
        path.reverse();
        report.critical_path = path;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(depth: usize, level: usize) -> FheProgram {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let mut x = p.input(level);
        for _ in 0..depth {
            x = p.square(x);
            x = p.mod_switch(x);
        }
        p.output(x);
        p
    }

    #[test]
    fn noise_grows_with_depth() {
        let shallow = analyze(&chain(1, 8));
        let deep = analyze(&chain(4, 8));
        assert!(deep.min_margin_wc < shallow.min_margin_wc);
        assert!(deep.min_margin_est < shallow.min_margin_est);
    }

    #[test]
    fn wc_dominates_est_everywhere() {
        let p = chain(3, 8);
        let r = analyze(&p);
        for (i, node) in p.nodes().iter().enumerate() {
            if node.ty.plain {
                continue;
            }
            let f = &r.facts[i];
            assert!(f.wc >= f.est - 1.0, "node {i}: wc {} < est {}", f.wc, f.est);
        }
    }

    #[test]
    fn critical_path_leads_from_input_to_critical_node() {
        let p = chain(3, 8);
        let r = analyze(&p);
        let path = &r.critical_path;
        assert!(!path.is_empty());
        assert!(matches!(p.node(path[0]).op, FheOp::CtInput { .. }), "path starts at an input");
        assert_eq!(*path.last().unwrap(), r.critical.unwrap());
        // Path edges follow operand relations.
        for w in path.windows(2) {
            assert!(p.node(w[1]).op.operands().contains(&w[0]));
        }
    }

    #[test]
    fn misaligned_corrections_cost_more_than_aligned() {
        // x switched down twice vs y input directly at the low level:
        // their correction histories differ, so the add pays alignment.
        let build = |aligned: bool| {
            let mut p = FheProgram::new(64, Scheme::Bgv);
            let x = p.input(6);
            let d1 = p.mod_switch(x);
            let d2 = p.mod_switch(d1);
            let y = if aligned {
                let y = p.input(6);
                let e1 = p.mod_switch(y);
                p.mod_switch(e1)
            } else {
                p.input(4)
            };
            let s = p.add(d2, y);
            p.output(s);
            analyze(&p)
        };
        let aligned = build(true);
        let misaligned = build(false);
        assert!(
            misaligned.min_margin_wc < aligned.min_margin_wc,
            "alignment penalty must show: {} vs {}",
            misaligned.min_margin_wc,
            aligned.min_margin_wc
        );
    }

    #[test]
    fn ckks_margin_subtracts_scale_headroom() {
        let mut p = FheProgram::new(64, Scheme::Ckks);
        let x = p.input(4);
        let sq = p.square(x); // scale 2
        p.output(sq);
        let r = analyze(&p);
        let m_x = r.margin_wc(&p, x);
        let m_sq = r.margin_wc(&p, sq);
        assert!(m_sq < m_x, "deeper scale must shrink the margin");
    }
}
