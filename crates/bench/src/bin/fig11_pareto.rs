//! Fig 11: performance vs area across F1 configurations (design-space
//! sweep of clusters / scratchpad banks / HBM PHYs).

use f1_arch::{ArchConfig, AreaBreakdown};
use f1_bench::{bench_scale, gmean};
use f1_workloads::all_benchmarks;

fn main() {
    let scale = bench_scale();
    println!("Fig 11: gmean normalized performance vs area (scale 1/{scale})\n");
    println!("{:<10} {:>12} {:>14} {:>12}", "factor", "area [mm2]", "gmean cycles", "norm perf");
    let programs: Vec<_> = all_benchmarks(scale).iter().map(|b| b.lowered().0).collect();
    let factors = [0.25, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    for &f in &factors {
        let arch = ArchConfig::scaled(f);
        let area = AreaBreakdown::for_config(&arch).total_area_mm2;
        let mut cycles = Vec::new();
        for program in &programs {
            let (ex, plan, cs) = f1_compiler::compile(program, &arch);
            let _ = (&ex, &plan);
            cycles.push(cs.makespan as f64);
        }
        rows.push((f, area, gmean(&cycles)));
    }
    let best = rows.last().unwrap().2;
    for (f, area, g) in &rows {
        println!("{:<10.2} {:>12.1} {:>14.0} {:>12.3}", f, area, g, best / g);
    }
    println!("\nPaper shape: performance grows about linearly with area over this range.");
}
