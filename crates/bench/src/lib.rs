//! # f1-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see the
//! README's "Running the experiments"). Run e.g.:
//!
//! ```text
//! cargo run -p f1-bench --release --bin table3_benchmarks
//! ```
//!
//! The `F1_SCALE` environment variable divides benchmark widths (default
//! 8; use `F1_SCALE=1` for full-size instances — slower to schedule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use f1_arch::ArchConfig;
use f1_sim::SimReport;
use f1_workloads::Benchmark;

mod env;

/// Reads the benchmark reduction scale from `F1_SCALE` (default 8).
pub fn bench_scale() -> usize {
    bench_scale_or(8)
}

/// Reads `F1_SCALE` with an explicit default — figures whose paper shape
/// only emerges at full size (e.g. Fig 10) default to 1 instead of 8.
///
/// # Panics
///
/// Panics on a malformed or zero `F1_SCALE` (e.g. `F1_SCALE=ful`): a
/// typo must not silently run the reduced suite claiming full size.
pub fn bench_scale_or(default: usize) -> usize {
    env::parse_env_nonzero_or("F1_SCALE", default)
}

/// Compiles and simulates one benchmark on a configuration.
pub fn run_benchmark(b: &Benchmark, arch: &ArchConfig) -> SimReport {
    let (ex, plan, cs) = f1_compiler::compile(&b.lowered().0, arch);
    f1_sim::check_schedule(&ex, &plan, &cs, arch)
}

/// Geometric mean helper.
pub fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
