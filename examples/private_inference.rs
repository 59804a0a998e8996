//! Private deep learning inference (the paper's motivating application,
//! §1): compile the full-size LoLa-MNIST for F1 and compare against the
//! measured CPU baseline — the "20 minutes to 241 milliseconds" story.
//!
//! Run with: `cargo run -p f1 --release --example private_inference`

use f1::arch::ArchConfig;
use f1::workloads::benchmarks::lola_mnist_uw;
use f1::workloads::CpuBaseline;

fn main() {
    let b = lola_mnist_uw(1);
    let arch = ArchConfig::f1_default();
    let (lowered, opt, ex, plan, cycles) = f1::compiler::compile_fhe(&b.fhe, &arch);
    let program = lowered.program;
    let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
    let baseline = CpuBaseline::measure(&program, 1024);
    let cpu_s = baseline.estimate_seconds_parallel(&program, b.n);
    println!("{} ({}, scale 1/{}):", b.name, b.scheme, b.scale);
    println!(
        "  IR passes: {} hom ops -> {} before key-switch expansion",
        opt.nodes_before, opt.nodes_after
    );
    println!(
        "  F1:  {:.3} ms  ({} instructions, {} cycles, {} key-switching)",
        report.seconds * 1e3,
        ex.dfg.instrs().len(),
        report.makespan,
        if ex.used_ghs { "GHS" } else { "decomposition" }
    );
    println!(
        "  CPU: {:.1} ms  (measured f1-fhe per-op costs, {:.1}x parallel)",
        cpu_s * 1e3,
        baseline.parallel_speedup
    );
    println!("  speedup: {:.0}x", cpu_s / report.seconds);
    println!("  avg FU utilization {:.0}% (paper: ~30%) — loads stream on {} HBM channels concurrently with compute",
        report.avg_fu_utilization * 100.0, arch.hbm_channels);
}
