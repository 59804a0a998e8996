//! Fig 9: per-benchmark off-chip data movement breakdown (a) and average
//! power breakdown (b).

use f1_arch::ArchConfig;
use f1_bench::{bench_scale, run_benchmark};
use f1_workloads::all_benchmarks;

fn main() {
    let scale = bench_scale();
    let arch = ArchConfig::f1_default();
    println!(
        "Fig 9a: Off-chip data movement breakdown (fractions of total bytes; scale 1/{scale})\n"
    );
    println!(
        "{:<30} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "Benchmark", "KSH-C", "In-C", "KSH-NC", "In-NC", "Int-Ld", "Int-St", "Total[MB]"
    );
    let mut reports = Vec::new();
    for b in &all_benchmarks(scale) {
        let r = run_benchmark(b, &arch);
        let t = r.traffic;
        let tot = t.total().max(1) as f64;
        println!(
            "{:<30} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>10.1}",
            b.name,
            t.ksh_compulsory as f64 / tot * 100.0,
            t.input_compulsory as f64 / tot * 100.0,
            t.ksh_non_compulsory as f64 / tot * 100.0,
            t.input_non_compulsory as f64 / tot * 100.0,
            t.interm_load as f64 / tot * 100.0,
            t.interm_store as f64 / tot * 100.0,
            tot / (1024.0 * 1024.0)
        );
        reports.push((b.name, r));
    }
    println!("\nPaper shape: hints dominate deep workloads (LogReg, DB Lookup, bootstrapping, up to 94%);");
    println!(
        "non-compulsory traffic adds only 5-18% except LoLa-CIFAR (intermediates dominate).\n"
    );

    println!("Fig 9b: Average power breakdown [W]\n");
    println!(
        "{:<30} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Benchmark", "HBM", "Scratch", "NoC", "RF", "FUs", "Total", "Move%"
    );
    for (name, r) in &reports {
        let p = &r.power;
        println!(
            "{:<30} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>7.0}%",
            name,
            p.hbm_w,
            p.scratchpad_w,
            p.noc_w,
            p.rf_w,
            p.fus_w,
            p.total_w(),
            p.data_movement_fraction() * 100.0
        );
    }
    println!(
        "\nPaper shape: 59-96 W averages; computation is 20-30% of power, data movement dominates."
    );
}
