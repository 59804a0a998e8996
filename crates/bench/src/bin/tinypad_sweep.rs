//! Tiny-pad sweep: makespan and traffic vs scratchpad capacity, 1–64 MB.
//!
//! The paper's decoupled data-movement design (§4.3) is only credible if
//! schedules stay *physically realizable* when the scratchpad shrinks:
//! spills and refetches must be co-scheduled with compute on the HBM
//! channel timelines, and consumers gated on refetch completion. This
//! sweep compiles LoLa-MNIST with unencrypted and with encrypted weights
//! at capacities from 1 MB to the paper's 64 MB, validates every schedule
//! with the capacity-strict checker, and emits each makespan/traffic
//! curve. On the larger pads both plans move only compulsory traffic, and
//! the encrypted-weights program keeps schedules made without pass 2's
//! byte lineage there, so the sweep also covers those.
//!
//! Exits non-zero if makespan ever *increases* with capacity — the
//! self-check CI runs at `F1_SCALE=8`.

use f1_arch::ArchConfig;
use f1_bench::bench_scale;
use f1_workloads::benchmarks::{lola_mnist_ew, lola_mnist_uw};

fn main() {
    let scale = bench_scale();
    for b in [lola_mnist_uw(scale), lola_mnist_ew(scale)] {
        println!("# Tiny-pad sweep: {} (scale 1/{scale})", b.name);
        println!(
            "capacity_mb,makespan_cycles,ms,traffic_mb,noncompulsory_mb,spill_refetch_mb,fu_util_pct"
        );
        let mut prev: Option<(u64, u64)> = None;
        for mb in [1u64, 2, 4, 8, 16, 32, 64] {
            let arch = ArchConfig::f1_default().with_scratchpad_mb(mb);
            let (_, _, ex, plan, cs) = f1_compiler::compile_fhe(&b.fhe, &arch);
            let r = f1_sim::check_schedule(&ex, &plan, &cs, &arch);
            let t = r.traffic;
            println!(
                "{mb},{},{:.3},{:.1},{:.1},{:.1},{:.1}",
                r.makespan,
                r.seconds * 1e3,
                t.total() as f64 / (1 << 20) as f64,
                t.non_compulsory() as f64 / (1 << 20) as f64,
                (t.interm_load + t.interm_store) as f64 / (1 << 20) as f64,
                r.avg_fu_utilization * 100.0
            );
            if let Some((pmb, pm)) = prev {
                assert!(
                    r.makespan <= pm,
                    "{}: makespan must not increase with capacity: {pm} @ {pmb} MB -> {} @ {mb} MB",
                    b.name,
                    r.makespan
                );
            }
            prev = Some((mb, r.makespan));
        }
        println!();
    }
    eprintln!("Shape: thrashing below the working set, flat once it fits (paper: no");
    eprintln!("benchmark spills at 64 MB; the knee is where capacity stops binding).");
}
