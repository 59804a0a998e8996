//! Static analyses over the [`FheProgram`] IR.
//!
//! F1 leaves noise management and parameter correctness to the
//! programmer (§3); this module is the compiler's answer — a composable
//! static-analysis framework that *proves* properties of a program
//! before the scheduling passes spend minutes on it:
//!
//! * [`typing`] — the scheme-typing rules ([`typing::infer`], which the
//!   builder also applies) and the only IR validator ([`typing::check`]):
//!   SSA well-formedness, levels, operand kinds, CKKS scale bookkeeping,
//!   GSW restrictions and input-ordinal integrity. It powers the
//!   between-pass verification [`crate::ir::passes::optimize`] runs, so
//!   a miscompiling pass is caught at the boundary that introduced it,
//!   and [`crate::ir::lower::lower`] refuses any program it rejects.
//! * [`noise`] — abstract interpretation of noise growth in bits per
//!   node (tracked-estimate and worst-case-bound recurrences from
//!   [`f1_fhe::noise`]), reporting each node's remaining budget margin
//!   and the critical noise path.
//! * [`lints`] — the lint rules binding it all into
//!   machine-readable diagnostics (the `analyze` bin in `f1-bench`
//!   serializes them into `ANALYSIS.json`; CI fails on any
//!   [`Severity::Error`]).
//! * [`param_search`] — the `(N, L)` parameter search: binary-searches
//!   the smallest modulus chain whose automatically-managed program
//!   (see [`crate::ir::rescale`]) proves a requested worst-case noise
//!   margin, then sizes the ring for a security target.
//!
//! Entry point: [`Analyzer::analyze`] runs everything and returns an
//! [`AnalysisReport`]. Every analysis is one in-order sweep over the
//! node list: ids are in SSA creation order, so a node's operands are
//! done before it. On malformed IR an operand that is not an earlier
//! node reads the analysis' bottom fact, and `typing::ssa` reports it.

pub mod lints;
pub mod noise;
pub mod param_search;
pub mod typing;

use crate::ir::{FheProgram, IrId};

pub use lints::LintRegistry;
pub use noise::NoiseReport;
pub use param_search::{SearchResult, SearchSpec};

/// How bad a diagnostic is. `Error` means the program is wrong (ill-typed
/// or statically guaranteed to fail); `Warning` means it is suspicious or
/// unproven; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious or statically unproven, but not known-broken.
    Warning,
    /// The program violates an invariant or cannot work.
    Error,
}

impl Severity {
    /// Lower-case label (`"error"`, `"warning"`, `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One machine-readable finding: a rule id (`family::name`), a severity,
/// an optional anchoring node and a human message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `"typing::type-drift"`.
    pub rule: &'static str,
    /// Severity after any registry overrides.
    pub severity: Severity,
    /// The IR node the finding anchors to, if any.
    pub node: Option<IrId>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(rule: &'static str, node: Option<IrId>, message: String) -> Self {
        Self { rule, severity: Severity::Error, node, message }
    }

    /// Builds a warning diagnostic.
    pub fn warning(rule: &'static str, node: Option<IrId>, message: String) -> Self {
        Self { rule, severity: Severity::Warning, node, message }
    }

    /// Builds an info diagnostic.
    pub fn info(rule: &'static str, node: Option<IrId>, message: String) -> Self {
        Self { rule, severity: Severity::Info, node, message }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(n) => {
                write!(f, "{}: [{}] node %{}: {}", self.severity, self.rule, n.0, self.message)
            }
            None => write!(f, "{}: [{}] {}", self.severity, self.rule, self.message),
        }
    }
}

/// Everything-at-once result of [`Analyzer::analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The noise-budget abstract interpretation.
    pub noise: NoiseReport,
    /// All lint findings, in registry order then node order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any Error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }
}

/// The analysis driver: owns a lint registry and runs the full
/// framework over a program.
pub struct Analyzer {
    registry: LintRegistry,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// An analyzer with the default lint set.
    pub fn new() -> Self {
        Self { registry: LintRegistry::default() }
    }

    /// Mutable access to the lint registry (to override severities).
    pub fn registry_mut(&mut self) -> &mut LintRegistry {
        &mut self.registry
    }

    /// Runs every analysis and lint over `p`.
    pub fn analyze(&self, p: &FheProgram) -> AnalysisReport {
        let noise = noise::analyze(p);
        let diagnostics = self.registry.run(p, &noise);
        AnalysisReport { noise, diagnostics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Scheme;

    #[test]
    fn clean_program_has_no_errors() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(4);
        let m = p.mul(x, y);
        let d = p.mod_switch(m);
        p.output(d);
        let report = Analyzer::new().analyze(&p);
        assert!(!report.has_errors(), "diagnostics: {:?}", report.diagnostics);
        assert!(report.noise.min_margin_wc > 0.0);
    }

    #[test]
    fn analyzer_terminates_on_malformed_ir() {
        use crate::ir::FheOp;
        let mut programs = Vec::new();
        for scheme in [Scheme::Bgv, Scheme::Ckks, Scheme::Gsw] {
            let mut p = FheProgram::new(1 << 10, scheme);
            let x = p.input(4);
            let y = p.input(4);
            let m = p.mul(x, y);
            let r = p.aut(m, 3);
            p.output(r);
            // %2 <-> %3 is a cycle, and %9 does not exist.
            p.raw_node_mut(m).op = FheOp::Mul(IrId(3), IrId(9));
            programs.push(p);
        }
        // A rescale of a later, larger value, and one of a missing node.
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
        let a = p.input(1);
        let _ = p.input(4);
        let c = p.input(1);
        p.output(a);
        p.output(c);
        p.raw_node_mut(a).op = FheOp::ModSwitch(IrId(1));
        p.raw_node_mut(c).op = FheOp::ModSwitch(IrId(9));
        programs.push(p);
        for p in programs {
            let report = Analyzer::new().analyze(&p);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == "typing::ssa" && d.severity == Severity::Error),
                "{:?}",
                report.diagnostics
            );
        }
    }

    #[test]
    fn diagnostic_display_is_readable() {
        let d = Diagnostic::error("typing::ssa", Some(IrId(3)), "bad operand".into());
        assert_eq!(d.to_string(), "error: [typing::ssa] node %3: bad operand");
    }
}
