//! Static analyses over the [`FheProgram`] IR.
//!
//! F1 leaves noise management and parameter correctness to the
//! programmer (§3); this module is the compiler's answer — a composable
//! static-analysis framework that *proves* properties of a program
//! before the scheduling passes spend minutes on it:
//!
//! * [`dataflow`] — the generic forward engine: a worklist over the
//!   dense creation-order ids driving per-analysis transfer functions.
//! * [`noise`] — abstract interpretation of noise growth in bits per
//!   node (tracked-estimate and worst-case-bound recurrences from
//!   [`f1_fhe::noise`]), reporting each node's remaining budget margin
//!   and the critical noise path.
//! * [`typing`] — the scheme-typing validator: re-proves SSA
//!   well-formedness, level monotonicity, CKKS scale bookkeeping, GSW
//!   restrictions and input-ordinal integrity from scratch, and powers
//!   the between-pass verification [`crate::ir::passes::optimize`] runs
//!   so a miscompiling pass is caught at the boundary that introduced
//!   it.
//! * [`pressure`] — peak-live-ciphertext-bytes from IR liveness vs the
//!   [`f1_arch::ArchConfig`] scratchpad, flagging programs that will
//!   thrash the pad before pass 2/3 run.
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
//! [`AnalysisReport`].

pub mod dataflow;
pub mod lints;
pub mod noise;
pub mod param_search;
pub mod pressure;
pub mod typing;

use crate::ir::{FheProgram, IrId};
use f1_arch::ArchConfig;

pub use dataflow::{run_forward, ForwardAnalysis};
pub use lints::LintRegistry;
pub use noise::NoiseReport;
pub use param_search::{SearchResult, SearchSpec};
pub use pressure::PressureReport;

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
    /// The scratchpad pressure analysis.
    pub pressure: PressureReport,
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

/// The analysis driver: owns a lint registry and an architecture model
/// and runs the full framework over a program.
pub struct Analyzer {
    registry: LintRegistry,
    arch: ArchConfig,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// An analyzer with the default lint set against the F1 default
    /// machine.
    pub fn new() -> Self {
        Self { registry: LintRegistry::default(), arch: ArchConfig::f1_default() }
    }

    /// Replaces the architecture model (pressure analysis capacity).
    pub fn with_arch(mut self, arch: ArchConfig) -> Self {
        self.arch = arch;
        self
    }

    /// Mutable access to the lint registry (to override severities).
    pub fn registry_mut(&mut self) -> &mut LintRegistry {
        &mut self.registry
    }

    /// Runs every analysis and lint over `p`.
    pub fn analyze(&self, p: &FheProgram) -> AnalysisReport {
        let noise = noise::analyze(p);
        let pressure = pressure::analyze(p, &self.arch);
        let diagnostics = self.registry.run(p, &noise, &pressure);
        AnalysisReport { noise, pressure, diagnostics }
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
    fn diagnostic_display_is_readable() {
        let d = Diagnostic::error("typing::ssa", Some(IrId(3)), "bad operand".into());
        assert_eq!(d.to_string(), "error: [typing::ssa] node %3: bad operand");
    }
}
