//! Table 5: sensitivity studies — slowdowns of F1 variants with
//! low-throughput NTT FUs, low-throughput automorphism FUs, and the CSR
//! register-pressure scheduler.
//!
//! CSR is reported twice: at the paper's 64 MB scratchpad, where the
//! depth-ranked cycle scheduler is largely insensitive to issue order
//! (working sets fit, nothing thrashes), and at a capacity-constrained
//! 4 MB scratchpad, where CSR's disregard for hint reuse turns into real
//! spill/refetch traffic that the capacity-faithful pass 3 must schedule
//! on the HBM channels — the regime where scheduler quality shows.

use f1_arch::ArchConfig;
use f1_bench::{bench_scale, gmean};
use f1_workloads::all_benchmarks;

fn main() {
    let scale = bench_scale();
    println!("Table 5: Slowdowns of F1 over alternate configurations (scale 1/{scale})\n");
    println!("{:<30} {:>9} {:>9} {:>9} {:>10}", "Benchmark", "LT NTT", "LT Aut", "CSR", "CSR@4MB");
    let base_arch = ArchConfig::f1_default();
    let tiny_arch = ArchConfig::f1_default().with_scratchpad_mb(4);
    let mut lt_ntt_all = Vec::new();
    let mut lt_aut_all = Vec::new();
    let mut csr_all = Vec::new();
    let mut csr4_all = Vec::new();
    for b in all_benchmarks(scale) {
        let ex = f1_compiler::expand::expand(&b.lowered().0, &Default::default());
        let base = {
            let plan = f1_compiler::movement::schedule(&ex, &base_arch);
            f1_compiler::cycle::schedule(&ex, &plan, &base_arch).makespan
        };
        let with = |mutate: &dyn Fn(&mut ArchConfig)| {
            let mut a = ArchConfig::f1_default();
            mutate(&mut a);
            let plan = f1_compiler::movement::schedule(&ex, &a);
            f1_compiler::cycle::schedule(&ex, &plan, &a).makespan
        };
        let lt_ntt = with(&|a| a.low_throughput_ntt = true) as f64 / base as f64;
        let lt_aut = with(&|a| a.low_throughput_aut = true) as f64 / base as f64;
        let csr_order = f1_compiler::csr::csr_order(&ex.dfg);
        let makespan_with_order = |arch: &ArchConfig, order: Option<&[f1_isa::InstrId]>| -> u64 {
            let plan = f1_compiler::movement::schedule_with_order(&ex, arch, order);
            f1_compiler::cycle::schedule(&ex, &plan, arch).makespan
        };
        let (csr, csr4) = match csr_order {
            Some(order) => {
                let csr = makespan_with_order(&base_arch, Some(&order)) as f64 / base as f64;
                let base4 = makespan_with_order(&tiny_arch, None);
                let csr4 = makespan_with_order(&tiny_arch, Some(&order)) as f64 / base4 as f64;
                (Some(csr), Some(csr4))
            }
            None => (None, None),
        };
        lt_ntt_all.push(lt_ntt);
        lt_aut_all.push(lt_aut);
        match (csr, csr4) {
            (Some(c), Some(c4)) => {
                csr_all.push(c);
                csr4_all.push(c4);
                println!(
                    "{:<30} {:>8.1}x {:>8.1}x {:>8.1}x {:>9.2}x",
                    b.name, lt_ntt, lt_aut, c, c4
                );
            }
            _ => println!(
                "{:<30} {:>8.1}x {:>8.1}x {:>9} {:>10}",
                b.name, lt_ntt, lt_aut, "--*", "--*"
            ),
        }
    }
    println!(
        "{:<30} {:>8.1}x {:>8.1}x {:>8.1}x {:>9.2}x",
        "gmean slowdown",
        gmean(&lt_ntt_all),
        gmean(&lt_aut_all),
        gmean(&csr_all),
        gmean(&csr4_all)
    );
    println!("\n* CSR is intractable for this benchmark (paper Table 5 footnote).");
    println!("Paper gmean slowdowns (64 MB): LT NTT 2.5x, LT Aut 3.6x, CSR 4.2x.");
    println!("CSR@4MB: same CSR order on a 4 MB scratchpad vs the priority order at 4 MB —");
    println!("capacity pressure is where issue order starts to matter again.");
}
