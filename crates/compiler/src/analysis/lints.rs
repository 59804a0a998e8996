//! The lint driver: five rule functions run in a fixed order, plus a
//! registry of per-rule severity overrides.
//!
//! Rule catalog (default severities; `analyze` in `f1-bench` serializes
//! findings into `ANALYSIS.json` and CI fails on Errors):
//!
//! | rule | default | meaning |
//! |------|---------|---------|
//! | `typing::*` | Error | structural/typing invariant broken (see [`super::typing`]) |
//! | `scale::exceeds-level` | Warning | CKKS scale exceeds remaining levels: cannot rescale back to Δ |
//! | `scale::saturated-rescale` | Warning | CKKS rescale at scale 1 hit the saturation floor |
//! | `noise::budget-exhausted` | Error (BGV) / Warning | estimate AND worst-case bound both overrun `log2(Q_l/2)` |
//! | `noise::unproven` | Warning | worst-case bound overruns the budget (correctness not statically proven) |
//! | `noise::pessimistic-estimate` | Info | estimate overruns but the sound bound fits (heuristic drift, not a failure) |
//! | `noise::low-margin` | Info | worst-case margin below 10 bits |
//! | `redundancy::dead-node` | Warning | nodes that cannot reach an output (run `optimize`) |
//! | `program::no-outputs` | Warning | the program computes nothing observable |
//!
//! The BGV/CKKS split on `noise::budget-exhausted` is deliberate: only
//! the BGV model is validated against a real executor (see
//! [`super::noise`]), so CKKS/GSW noise findings never gate CI.

use super::{Diagnostic, NoiseReport, Severity};
use crate::ir::{FheProgram, IrId, Scheme};

/// `scale::*`: CKKS scale bookkeeping beyond plain type-correctness.
fn scale_lint(p: &FheProgram) -> Vec<Diagnostic> {
    if p.scheme() != Scheme::Ckks {
        return Vec::new();
    }
    let mut out = Vec::new();
    // One summary per program (anchored at the worst offender), not
    // one warning per node: deep CKKS circuits can carry thousands
    // of over-scale values, and per-node spam buries every other
    // finding. Warning, not Error: the paper's benchmarks (and this
    // repo's suite) legitimately defer rescaling across several
    // multiplications, letting scale transiently exceed the
    // remaining levels before a rescale chain brings it back.
    let mut over = 0usize;
    let mut worst: Option<(IrId, usize)> = None;
    let mut saturated = 0usize;
    let mut first_saturated = None;
    for (i, node) in p.nodes().iter().enumerate() {
        let id = IrId(i as u32);
        if !node.ty.plain && node.ty.scale as usize > node.ty.level {
            over += 1;
            let excess = node.ty.scale as usize - node.ty.level;
            if worst.is_none_or(|(_, w)| excess > w) {
                worst = Some((id, excess));
            }
        }
        if let crate::ir::FheOp::ModSwitch(a) = node.op {
            if p.nodes().get(a.0 as usize).is_some_and(|n| n.ty.scale == 1) {
                saturated += 1;
                first_saturated.get_or_insert(id);
            }
        }
    }
    if saturated > 0 {
        out.push(Diagnostic::warning(
            "scale::saturated-rescale",
            first_saturated,
            format!(
                "{saturated} rescale(s) of a scale-1 value saturate at the Δ floor \
                     (first: %{}): a level is burned for no scale reduction \
                     (with_strict_scale programs reject this at build time)",
                first_saturated.expect("saturated > 0").0
            ),
        ));
    }
    if let Some((id, excess)) = worst {
        out.push(Diagnostic::warning(
            "scale::exceeds-level",
            Some(id),
            format!(
                "{over} value(s) carry a scale exceeding their remaining levels \
                     (worst: %{} by {excess}Δ): they cannot be rescaled back to Δ \
                     before the chain runs out",
                id.0
            ),
        ));
    }
    out
}

/// `noise::*`: noise-budget findings from the abstract interpretation.
fn noise_lint(p: &FheProgram, r: &NoiseReport) -> Vec<Diagnostic> {
    let Some(critical) = r.critical else { return Vec::new() };
    let mut out = Vec::new();
    // Only the BGV model is executor-validated; other schemes never
    // exceed Warning.
    let ceiling = if p.scheme() == Scheme::Bgv { Severity::Error } else { Severity::Warning };
    if r.min_margin_wc < 0.0 && r.min_margin_est < 0.0 {
        // Both quantities overrun: the program is exhausted by any
        // reading. Anchor at the node with the worst *estimate*
        // margin (the runtime's view of where it dies first).
        let worst_est = (0..p.nodes().len())
            .map(|i| IrId(i as u32))
            .filter(|&id| !p.node(id).ty.plain)
            .min_by(|&a, &b| {
                r.margin_est(p, a).partial_cmp(&r.margin_est(p, b)).expect("margins are finite")
            })
            .expect("critical implies a ciphertext node exists");
        out.push(Diagnostic {
            rule: "noise::budget-exhausted",
            severity: ceiling,
            node: Some(worst_est),
            message: format!(
                "tracked noise estimate overruns the budget by {:.1} bits at level {}",
                -r.min_margin_est,
                p.node(worst_est).ty.level
            ),
        });
    } else if r.min_margin_wc < 0.0 {
        out.push(Diagnostic::warning(
            "noise::unproven",
            Some(critical),
            format!(
                "worst-case noise bound overruns the budget by {:.1} bits \
                     (estimate still fits by {:.1}): correctness is not statically proven",
                -r.min_margin_wc, r.min_margin_est
            ),
        ));
    } else if r.min_margin_est < 0.0 {
        // The sound worst-case bound fits, so correctness IS
        // statically proven; the heuristic estimate overrunning is
        // accumulated per-op pessimism (e.g. BGV `add_est = max+1`
        // adds a full bit where the exact sum adds almost nothing,
        // so deep addition trees drift tens of bits above the true
        // noise). Informational only — the bound is the authority.
        out.push(Diagnostic::info(
            "noise::pessimistic-estimate",
            Some(critical),
            format!(
                "tracked estimate overruns by {:.1} bits but the worst-case bound \
                     fits with {:.1} bits to spare: the estimate recurrence is \
                     pessimistic on this shape, not the program",
                -r.min_margin_est, r.min_margin_wc
            ),
        ));
    } else if r.min_margin_wc < 10.0 {
        out.push(Diagnostic::info(
            "noise::low-margin",
            Some(critical),
            format!("worst-case noise margin is only {:.1} bits", r.min_margin_wc),
        ));
    }
    out
}

/// `redundancy::dead-node`: nodes that cannot reach any program output.
fn dead_node_lint(p: &FheProgram) -> Vec<Diagnostic> {
    let n = p.nodes().len();
    let mut live = vec![false; n];
    for &o in p.outputs() {
        if (o.0 as usize) < n {
            live[o.0 as usize] = true;
        }
    }
    for i in (0..n).rev() {
        if live[i] {
            for o in p.nodes()[i].op.operands() {
                if (o.0 as usize) < n {
                    live[o.0 as usize] = true;
                }
            }
        }
    }
    let dead: Vec<usize> = (0..n).filter(|&i| !live[i]).collect();
    if dead.is_empty() {
        return Vec::new();
    }
    vec![Diagnostic::warning(
        "redundancy::dead-node",
        Some(IrId(dead[0] as u32)),
        format!(
            "{} node(s) cannot reach any output (first: %{}); run optimize() to \
                     eliminate them",
            dead.len(),
            dead[0]
        ),
    )]
}

/// `program::no-outputs`: the program computes nothing observable.
fn no_outputs_lint(p: &FheProgram) -> Vec<Diagnostic> {
    if p.outputs().is_empty() {
        vec![Diagnostic::warning(
            "program::no-outputs",
            None,
            "program declares no outputs; everything is dead code".into(),
        )]
    } else {
        Vec::new()
    }
}

/// A registered severity override (waiver or escalation) with its
/// justification — recorded so reports can show *why* a rule was waived.
#[derive(Debug, Clone)]
pub struct SeverityOverride {
    /// Exact diagnostic rule id the override applies to.
    pub rule: String,
    /// The severity diagnostics of that rule are clamped to.
    pub severity: Severity,
    /// Why (serialized into `ANALYSIS.json` next to the finding).
    pub justification: String,
}

/// The severity overrides applied on top of every rule in this module.
#[derive(Default)]
pub struct LintRegistry {
    overrides: Vec<SeverityOverride>,
}

impl LintRegistry {
    /// Overrides the severity of every diagnostic with exactly `rule`,
    /// with a recorded justification (e.g. waiving a known-benign
    /// finding for one benchmark).
    pub fn override_severity(&mut self, rule: &str, severity: Severity, justification: &str) {
        self.overrides.push(SeverityOverride {
            rule: rule.to_string(),
            severity,
            justification: justification.to_string(),
        });
    }

    /// The registered overrides.
    pub fn overrides(&self) -> &[SeverityOverride] {
        &self.overrides
    }

    /// Runs every rule (`typing::*` is the full
    /// [`super::typing::check`] validator) and applies severity
    /// overrides.
    pub fn run(&self, p: &FheProgram, noise: &NoiseReport) -> Vec<Diagnostic> {
        let mut out = super::typing::check(p);
        out.extend(scale_lint(p));
        out.extend(noise_lint(p, noise));
        out.extend(dead_node_lint(p));
        out.extend(no_outputs_lint(p));
        for d in &mut out {
            if let Some(o) = self.overrides.iter().find(|o| o.rule == d.rule) {
                d.severity = o.severity;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::Analyzer;
    use super::*;
    use crate::ir::{FheOp, ValType};

    fn diags(p: &FheProgram) -> Vec<Diagnostic> {
        Analyzer::new().analyze(p).diagnostics
    }

    fn has(d: &[Diagnostic], rule: &str) -> bool {
        d.iter().any(|x| x.rule == rule)
    }

    #[test]
    fn triggers_type_drift() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let x = p.input(4);
        let s = p.square(x);
        p.output(s);
        p.raw_node_mut(s).ty = ValType { depth: 9, ..p.node(s).ty };
        assert!(has(&diags(&p), "typing::type-drift"));
    }

    #[test]
    fn triggers_plain_output() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let c = p.scalar(3, 2);
        p.raw_output(c);
        assert!(has(&diags(&p), "typing::plain-output"));
    }

    #[test]
    fn triggers_gsw_mod_switch() {
        let mut p = FheProgram::new(64, Scheme::Gsw);
        let x = p.input(2);
        let bad =
            p.raw_push(FheOp::ModSwitch(x), ValType { plain: false, level: 1, scale: 0, depth: 0 });
        p.output(bad);
        assert!(has(&diags(&p), "typing::gsw-mod-switch"));
    }

    #[test]
    fn triggers_level_underflow() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let x = p.input(1);
        let bad =
            p.raw_push(FheOp::ModSwitch(x), ValType { plain: false, level: 1, scale: 0, depth: 0 });
        p.output(bad);
        assert!(has(&diags(&p), "typing::level-underflow"));
    }

    #[test]
    fn triggers_aut_exponent() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let x = p.input(2);
        let bad = p.raw_push(
            FheOp::Aut { a: x, k: 4 },
            ValType { plain: false, level: 2, scale: 0, depth: 0 },
        );
        p.output(bad);
        assert!(has(&diags(&p), "typing::aut-exponent"));
    }

    #[test]
    fn triggers_operand_kind() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let x = p.input(2);
        let c = p.scalar(3, 2);
        let bad =
            p.raw_push(FheOp::Add(x, c), ValType { plain: false, level: 2, scale: 0, depth: 0 });
        p.output(bad);
        assert!(has(&diags(&p), "typing::operand-kind"));
    }

    #[test]
    fn triggers_scale_exceeds_level() {
        let mut p = FheProgram::new(64, Scheme::Ckks);
        let x = p.input(2);
        let m = p.square(x);
        let m2 = p.square(m); // scale 4 > level 2
        p.output(m2);
        assert!(has(&diags(&p), "scale::exceeds-level"));
    }

    #[test]
    fn triggers_scale_saturated_rescale() {
        let mut p = FheProgram::new(64, Scheme::Ckks);
        let x = p.input(3); // scale 1
        let r = p.rescale(x); // saturates at 1
        p.output(r);
        assert!(has(&diags(&p), "scale::saturated-rescale"));
    }

    #[test]
    fn triggers_noise_budget_exhausted() {
        // Relentless squaring at one level: the estimate itself overruns.
        let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
        let mut x = p.input(2);
        for _ in 0..4 {
            x = p.square(x);
        }
        p.output(x);
        let d = diags(&p);
        assert!(has(&d, "noise::budget-exhausted"), "{d:?}");
        assert!(
            d.iter().any(|x| x.rule == "noise::budget-exhausted" && x.severity == Severity::Error),
            "BGV exhaustion must be an Error"
        );
    }

    #[test]
    fn proven_bound_downgrades_estimate_overrun_to_info() {
        // A long addition chain: the estimate pays a full bit per add
        // (`add_est = max + 1`) while the exact worst-case sum grows
        // logarithmically, so after ~200 adds the estimate overruns a
        // budget the sound bound fits comfortably. Correctness is
        // proven, so this must NOT be budget-exhausted.
        let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
        let mut x = p.input(4);
        let y = p.input(4);
        for _ in 0..200 {
            x = p.add(x, y);
        }
        p.output(x);
        let d = diags(&p);
        assert!(!has(&d, "noise::budget-exhausted"), "{d:?}");
        assert!(has(&d, "noise::pessimistic-estimate"), "{d:?}");
        assert!(d.iter().all(|x| x.severity != Severity::Error), "{d:?}");
    }

    #[test]
    fn triggers_noise_unproven() {
        // One mul at a level the estimate fits but the worst case
        // doesn't: est ≈ 17+17+14 = 48, wc ≈ 14+2·16+ks ≈ 70+ vs
        // budget 2·29-1 = 57.
        let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
        let x = p.input(2);
        let m = p.square(x);
        p.output(m);
        let d = diags(&p);
        assert!(has(&d, "noise::unproven"), "{d:?}");
    }

    #[test]
    fn triggers_noise_low_margin() {
        // Two plain-muls at level 2: wc ≈ 2·(14+15) + fresh 19 ≈ 50
        // against budget 57 — inside the 10-bit band.
        let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
        let x = p.input(2);
        let c = p.scalar(3, 2);
        let m = p.mul_plain(x, c);
        p.output(m);
        let d = diags(&p);
        assert!(
            has(&d, "noise::low-margin") || has(&d, "noise::unproven"),
            "expected a thin-margin finding: {d:?}"
        );
    }

    #[test]
    fn triggers_dead_node() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let x = p.input(4);
        let _dead = p.square(x);
        let live = p.aut(x, 3);
        p.output(live);
        assert!(has(&diags(&p), "redundancy::dead-node"));
    }

    #[test]
    fn triggers_no_outputs() {
        let mut p = FheProgram::new(64, Scheme::Bgv);
        let _ = p.input(4);
        assert!(has(&diags(&p), "program::no-outputs"));
    }

    #[test]
    fn override_downgrades_severity_with_justification() {
        let mut p = FheProgram::new(1 << 14, Scheme::Bgv);
        let mut x = p.input(2);
        for _ in 0..4 {
            x = p.square(x);
        }
        p.output(x);
        let mut analyzer = Analyzer::new();
        analyzer.registry_mut().override_severity(
            "noise::budget-exhausted",
            Severity::Warning,
            "exercised by the waiver test",
        );
        let report = analyzer.analyze(&p);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "noise::budget-exhausted" && d.severity == Severity::Warning));
    }
}
