//! Every call the benchmark makes into `f1-compiler` and
//! `f1-sim`, in one place.
//!
//! The end-to-end run uses only the two public entry points,
//! [`compile_fhe`] and [`check_schedule`]. The traced run calls the
//! stages those entry points are made of, one by one, so each layer gets
//! its own span. No compile goes through the schedule cache, so a cache
//! hit can never land inside a compile time.

use crate::trace::Tracer;
use f1_arch::ArchConfig;
use f1_compiler::expand::{self, ExpandOptions, Expanded};
use f1_compiler::ir::FheProgram;
use f1_compiler::{compile_fhe, cycle, movement, CycleSchedule, MovePlan, OptStats, Program};
use f1_sim::{check_schedule, check_streams, SimReport};

/// A compiled program: what `compile_fhe` returns, minus the lowering's
/// constant table.
pub struct Compiled {
    pub program: Program,
    pub stats: OptStats,
    pub expanded: Expanded,
    pub plan: MovePlan,
    pub schedule: CycleSchedule,
}

impl Compiled {
    /// Homomorphic operations in the lowered program (inputs excluded).
    pub fn hom_ops(&self) -> usize {
        use f1_compiler::HomOp;
        let ops = self.program.ops();
        ops.iter()
            .filter(|op| !matches!(op, HomOp::Input { .. } | HomOp::PlainInput { .. }))
            .count()
    }

    /// Streamed FNV-1a fingerprint of the emitted static schedule.
    pub fn fingerprint(&self) -> u64 {
        fnv_debug(&self.schedule.schedule)
    }
}

/// The default compile entry point.
pub fn compile(p: &FheProgram, arch: &ArchConfig) -> Compiled {
    let (lowered, stats, expanded, plan, schedule) = compile_fhe(p, arch);
    Compiled { program: lowered.program, stats, expanded, plan, schedule }
}

/// The default checker entry point.
pub fn check(c: &Compiled, arch: &ArchConfig) -> SimReport {
    check_schedule(&c.expanded, &c.plan, &c.schedule, arch)
}

/// [`compile`], stage by stage, one span per layer. Mirrors
/// `compile_fhe` without a noise policy; the benchmark checks that both
/// emit the same schedule. `expand.order` re-runs the hint-reuse
/// ordering on the same input as a separate call: it is reported beside
/// `expand`, not subtracted from it.
pub fn compile_staged(t: &mut Tracer, p: &FheProgram, arch: &ArchConfig) -> Compiled {
    let unrolled = t.layer("ir.unroll", |_| (!p.repeats().is_empty()).then(|| p.unroll()));
    let p = unrolled.as_ref().unwrap_or(p);
    let (optimized, stats) = t.layer("ir.optimize", |_| p.optimize());
    let program = t.layer("ir.lower", |_| optimized.lower()).program;
    drop(optimized);
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let expanded = t.layer("expand", |_| expand::expand(&program, &opts));
    t.layer("expand.order", |_| std::hint::black_box(expand::hint_reuse_order(&program)));
    let plan = t.layer("movement", |_| movement::schedule(&expanded, arch));
    let schedule = t.layer("cycle", |_| cycle::schedule(&expanded, &plan, arch));
    Compiled { program, stats, expanded, plan, schedule }
}

/// [`check`] split in two: `checker.streams` times `check_streams`
/// alone; `checker.schedule` times the whole `check_schedule`, which
/// re-runs the stream check before deriving statistics. Returns the
/// report and the stream check's makespan.
pub fn check_staged(t: &mut Tracer, c: &Compiled, arch: &ArchConfig) -> (SimReport, u64) {
    let makespan = t.layer("checker.streams", |_| check_streams(&c.expanded, &c.schedule, arch));
    let report = t.layer("checker.schedule", |_| check(c, arch));
    (report, makespan)
}

/// FNV-1a accumulator fed by `Debug` formatting: the repository's
/// schedule fingerprint (`fnv64(format!("{:?}", ..))`), streamed so a
/// multi-million-entry schedule never materializes as one string.
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
