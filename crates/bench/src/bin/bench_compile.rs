//! Compile-time benchmark: per-pass wall-clock over the benchmark
//! suite and a synthetic stress program ~10× the largest benchmark
//! (built as a rolled loop region and compiled flat after `unroll()`).
//!
//! ```text
//! cargo run -p f1-bench --release --bin bench_compile            # full scale
//! cargo run ... --bin bench_compile -- --quick --check           # CI smoke
//! ```
//!
//! Flags:
//!
//! * `--quick` — run at the reduced `F1_SCALE` default (8) with a small
//!   stress program; without it the suite runs at full scale.
//! * `--check` — enforce the regression gates (exit 1 on violation).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_compile.json`).
//! * `--schema-ref PATH` — compare this run's JSON key set against a
//!   reference report (the committed `BENCH_compile.json`); exit 1 on
//!   schema drift.
//!
//! Timings are wall-clock and machine-dependent; the schedule
//! fingerprints are not. The committed `BENCH_compile.json` records a
//! full-scale run; the seed baseline it gates pass 3 against was
//! measured at commit 82ebae9 on the same machine that produced the
//! committed report.

use f1_arch::ArchConfig;
use f1_bench::bench_scale_or;
use f1_compiler::dsl::Program;
use f1_compiler::expand::{self, ExpandOptions};
use f1_compiler::ir::{FheProgram, Scheme};
use f1_compiler::{cycle, movement};
use f1_workloads::all_benchmarks;
use std::time::Instant;

/// Pass-3 wall-clock on the largest full-scale benchmark at the growth
/// seed (commit 82ebae9), before this module's scheduler rework — the
/// denominator of the ≥2× pass-3 gate.
const SEED_PASS3_S: f64 = 11.16;
const SEED_BENCH: &str = "Logistic Regression";
const SEED_SOURCE: &str = "measured at commit 82ebae9, F1_SCALE=1, single-threaded";

/// FNV-1a accumulator fed by `Debug` formatting — the repo's schedule
/// fingerprint idiom (`fnv64(format!("{:?}", ..))`), but streamed so
/// the stress program's multi-million-entry schedule never has to
/// materialize as one giant string.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn fnv_debug(x: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write;
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    write!(w, "{x:?}").expect("fnv writer is infallible");
    w.0
}

struct PassTimes {
    name: String,
    instrs: usize,
    values: usize,
    events: usize,
    expand_s: f64,
    movement_s: f64,
    cycle_s: f64,
    makespan: u64,
    fingerprint: u64,
}

impl PassTimes {
    fn total_s(&self) -> f64 {
        self.expand_s + self.movement_s + self.cycle_s
    }
}

/// Times the three passes separately and fingerprints the emitted
/// schedule.
fn time_passes(name: &str, program: &Program, arch: &ArchConfig) -> PassTimes {
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let t0 = Instant::now();
    let ex = expand::expand(program, &opts);
    let t1 = t0.elapsed().as_secs_f64();
    let plan = movement::schedule(&ex, arch);
    let t2 = t0.elapsed().as_secs_f64();
    let cs = cycle::schedule(&ex, &plan, arch);
    let t3 = t0.elapsed().as_secs_f64();
    PassTimes {
        name: name.to_string(),
        instrs: ex.dfg.instrs().len(),
        values: ex.dfg.values().len(),
        events: plan.events.len(),
        expand_s: t1,
        movement_s: t2 - t1,
        cycle_s: t3 - t2,
        makespan: cs.makespan,
        fingerprint: fnv_debug(&cs.schedule),
    }
}

/// Builds the synthetic stress program as a *rolled* loop region: a
/// steady-state square → rotate → add chain, with the trip count
/// calibrated (via two cheap truncation compiles) so the unrolled
/// expanded-DFG instruction count lands near `target_instrs`.
fn stress_rolled(n: usize, l: usize, target_instrs: usize, arch: &ArchConfig) -> FheProgram {
    let chain = |trips: u32| {
        let mut p = FheProgram::new(n, Scheme::Bgv);
        let acc = p.input(l);
        let t = p.begin_repeat();
        let m = p.square(acc);
        let r = p.aut(m, 9);
        let acc2 = p.add(r, m);
        p.end_repeat(&t, trips, vec![(acc, acc2)], vec![]);
        p.output(acc2);
        p
    };
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let instrs_at = |trips: u32| {
        let (opt, _) = chain(trips).unroll().optimize();
        expand::expand(&opt.lower().program, &opts).dfg.instrs().len()
    };
    let base = instrs_at(8);
    let probe = instrs_at(12);
    let per_trip = (probe.saturating_sub(base) / 4).max(1);
    // Floor of 18 extra trips keeps the program well past the two
    // calibration points even for tiny targets.
    let trips = 8 + (target_instrs.saturating_sub(base) / per_trip).max(18) as u32;
    chain(trips)
}

fn json_num(x: f64) -> String {
    format!("{x:.4}")
}

fn pass_times_json(r: &PassTimes) -> String {
    format!(
        "{{\"name\": \"{}\", \"instrs\": {}, \"values\": {}, \"events\": {}, \
         \"expand_s\": {}, \"movement_s\": {}, \"cycle_s\": {}, \"total_s\": {}, \
         \"makespan\": {}, \"fingerprint\": \"{:016x}\"}}",
        r.name,
        r.instrs,
        r.values,
        r.events,
        json_num(r.expand_s),
        json_num(r.movement_s),
        json_num(r.cycle_s),
        json_num(r.total_s()),
        r.makespan,
        r.fingerprint
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let quick = flag("--quick");
    let check = flag("--check");
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_compile.json".to_string());
    let schema_ref = opt("--schema-ref");

    let scale = if quick { bench_scale_or(8) } else { bench_scale_or(1) };
    let arch = ArchConfig::f1_default();
    let benches = all_benchmarks(scale);
    let cores = rayon::current_num_threads();
    println!(
        "bench_compile: scale 1/{scale}, {cores} core(s){}",
        if quick { ", quick" } else { "" }
    );

    // --- Per-benchmark pass timings.
    let mut rows: Vec<PassTimes> = Vec::new();
    println!(
        "\n{:<30} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "instrs", "events", "expand", "movemnt", "cycle", "total"
    );
    for b in &benches {
        let pt = time_passes(b.name, &b.lowered().0, &arch);
        println!(
            "{:<30} {:>9} {:>9} {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s",
            pt.name,
            pt.instrs,
            pt.events,
            pt.expand_s,
            pt.movement_s,
            pt.cycle_s,
            pt.total_s()
        );
        rows.push(pt);
    }

    // --- Stress program: ~10× the largest benchmark's expanded size at
    // full scale (~2× in quick mode, to keep CI smoke fast). The program
    // is a rolled loop region, unrolled and optimized up front; only the
    // three scheduling passes are timed.
    let largest_idx = (0..rows.len()).max_by_key(|&i| rows[i].instrs).expect("suite is non-empty");
    let factor = if quick { 2 } else { 10 };
    let (n, l) = (1 << 10, 6);
    let sp = stress_rolled(n, l, rows[largest_idx].instrs * factor, &arch);
    let trips = sp.repeats()[0].trips;
    let lowered = {
        let (opt, _) = sp.unroll().optimize();
        opt.lower()
    };
    let stress = time_passes("synthetic-stress", &lowered.program, &arch);
    println!(
        "stress ({}x largest, {} trips): {} instrs  expand {:.2}s  movement {:.2}s  cycle {:.2}s",
        factor, trips, stress.instrs, stress.expand_s, stress.movement_s, stress.cycle_s
    );

    // --- Gates.
    let pass3_s = rows[largest_idx].cycle_s;
    let pass3_speedup = SEED_PASS3_S / pass3_s.max(1e-9);
    let pass3_enforced = !quick && scale == 1;
    let pass3_pass = !pass3_enforced || pass3_speedup >= 2.0;

    // --- JSON report.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"f1-bench-compile-v4\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            pass_times_json(r),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"stress\": {},\n", pass_times_json(&stress)));
    out.push_str(&format!(
        "  \"seed_baseline\": {{\"benchmark\": \"{SEED_BENCH}\", \"pass3_s\": {SEED_PASS3_S}, \
         \"source\": \"{SEED_SOURCE}\"}},\n"
    ));
    out.push_str("  \"gates\": {\n");
    out.push_str(&format!(
        "    \"pass3_speedup_vs_seed\": {{\"required\": 2.0, \"actual\": {}, \"enforced\": {}, \"pass\": {}}}\n",
        json_num(pass3_speedup),
        pass3_enforced,
        pass3_pass
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("failed to write bench_compile JSON");
    println!("wrote {out_path}");

    // --- Schema diff vs the committed report: the key *set* must match
    // (values are machine-dependent; the shape is the contract).
    if let Some(ref_path) = &schema_ref {
        let reference = std::fs::read_to_string(ref_path)
            .unwrap_or_else(|e| panic!("cannot read schema reference {ref_path}: {e}"));
        let keys = |s: &str| -> Vec<String> {
            let mut ks: Vec<String> = s
                .split('"')
                .skip(1)
                .step_by(2)
                .zip(s.split('"').skip(2).step_by(2))
                .filter(|(_, after)| after.trim_start().starts_with(':'))
                .map(|(k, _)| k.to_string())
                .collect();
            ks.sort();
            ks.dedup();
            ks
        };
        let (got, want) = (keys(&out), keys(&reference));
        if got != want {
            let missing: Vec<_> = want.iter().filter(|k| !got.contains(k)).collect();
            let extra: Vec<_> = got.iter().filter(|k| !want.contains(k)).collect();
            eprintln!("SCHEMA DRIFT vs {ref_path}: missing {missing:?}, extra {extra:?}");
            std::process::exit(1);
        }
        println!("schema matches {ref_path}");
    }

    if check {
        if !pass3_pass {
            eprintln!("GATE FAILURE: pass3_speedup_vs_seed ({pass3_speedup:.2} < 2.0)");
            std::process::exit(1);
        }
        println!("all enforced gates pass");
    }
}
