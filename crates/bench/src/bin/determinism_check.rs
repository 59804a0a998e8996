//! Determinism probe: compiles the benchmark suite twice and proves the
//! emitted static schedules are byte-identical (exit 1 otherwise), then
//! prints a stable per-benchmark fingerprint.
//!
//! CI runs this binary twice in separate processes and diffs the two
//! outputs: std's per-process random hash seeds mean any surviving
//! hash-iteration-order leak shows up as a fingerprint (or makespan)
//! difference between runs.

use f1_arch::ArchConfig;
use f1_bench::bench_scale;
use f1_workloads::all_benchmarks;

/// FNV-1a over the Debug rendering of the schedule streams.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let scale = bench_scale();
    let arch = ArchConfig::f1_default();
    println!("Determinism check (scale 1/{scale}): double-compile fingerprints\n");
    println!("{:<30} {:>12} {:>18}", "Benchmark", "Makespan", "Stream FNV-1a");
    let mut failed = false;
    for b in all_benchmarks(scale) {
        let program = b.lowered().0;
        let (_, _, cs1) = f1_compiler::compile(&program, &arch);
        let (_, _, cs2) = f1_compiler::compile(&program, &arch);
        let f1 = fnv(format!("{:?}", cs1.schedule).as_bytes());
        let f2 = fnv(format!("{:?}", cs2.schedule).as_bytes());
        let ok = cs1.makespan == cs2.makespan && f1 == f2;
        if !ok {
            failed = true;
            eprintln!(
                "NONDETERMINISM: {} makespan {} vs {}, fnv {:016x} vs {:016x}",
                b.name, cs1.makespan, cs2.makespan, f1, f2
            );
        }
        println!("{:<30} {:>12} {:>18}", b.name, cs1.makespan, format!("{f1:016x}"));
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nAll schedules byte-identical across the in-process double compile.");
    println!("(CI diffs two separate runs of this output to catch cross-process leaks.)");
}
