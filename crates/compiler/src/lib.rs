//! # f1-compiler — F1's static scheduling compiler (§4)
//!
//! F1 is statically scheduled: the compiler decides the exact cycle of
//! every operation and data transfer (§3). This crate implements the full
//! stack of Fig 3, fronted by a typed IR:
//!
//! 0. [`ir`] — the `FheProgram` frontend: a typed, scheme-aware circuit
//!    builder (BGV/CKKS/GSW, level/scale/depth tracking, plaintext
//!    constants as leaves) over a normalized SSA IR with dense
//!    deterministic ids, plus the optimization pipeline (`σ_1` removal,
//!    CSE, key-switch hoisting, DCE) that runs *before* key-switch
//!    expansion multiplies every homomorphic op by ~100×.
//! 1. [`dsl`] — Listing 2's homomorphic-op list (`Program`): what the
//!    IR lowers into 1:1 and pass 1 reads. [`compile_fhe`] is the one
//!    entry point that runs the whole stack.
//! 2. [`expand`] — the homomorphic-operation compiler (§4.2): orders
//!    homomorphic operations to maximize key-switch-hint reuse within a
//!    live-bytes budget of a quarter of the scratchpad, and translates
//!    each operation into residue-vector instructions, with every
//!    key-switch in GHS's RNS form (ModUp, hint product, ModDown).
//! 3. [`movement`] — the off-chip data movement scheduler (§4.3): greedy
//!    priority scheduling against a scratchpad model with Belady-style
//!    furthest-reuse eviction, emitting a residency event script whose
//!    allocations carry the byte lineage of the space they reuse (pass 3
//!    keeps it as commit order only, and skips it for a compulsory-only
//!    plan whose lineage-free schedule fits the pad).
//! 4. [`cycle`] — the cycle-level scheduler (§4.4): a resource-explicit
//!    list scheduler over the event graph that ranks instructions by
//!    critical-path depth, overlaps loads/spills/refetches with compute
//!    on the HBM-channel timelines, gates consumers on refetch
//!    completion, models FU/crossbar/register-file occupancy, starts
//!    each allocation once its bytes fit on a scratchpad occupancy
//!    timeline, and emits per-component static streams whose resident
//!    set fits the scratchpad at every cycle.
//! 5. [`csr`] — the Goodman–Hsu register-pressure-aware baseline
//!    scheduler used by the Table 5 sensitivity study.
//!
//! Because schedules are fully static, the cycle-level scheduler doubles
//! as the performance model (§4.4 "our scheduler also doubles as a
//! performance measurement tool").

#![forbid(unsafe_code)]
// Index loops intentionally mirror the per-element/cluster/slot loops structure of the
// hardware they model; iterator rewrites obscure that correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod analysis;
pub mod csr;
pub mod cycle;
pub mod dsl;
pub mod expand;
pub mod ir;
pub mod movement;

pub use analysis::{AnalysisReport, Analyzer, Diagnostic, Severity};
pub use cycle::CycleSchedule;
pub use dsl::{CtId, HomOp, Program};
pub use expand::{ExpandOptions, Expanded};
pub use ir::{FheProgram, IrId, Lowered, OptStats, RescaleStats, Scheme};
pub use movement::MovePlan;

/// Compiles a typed [`FheProgram`] end-to-end: optimize (IR passes) →
/// lower → the three scheduling passes. Returns the lowering, the
/// optimization statistics, the expanded DFG, the data-movement plan and
/// the cycle-level schedule.
/// The target architecture sets pass 1's live-bytes budget (a quarter of
/// its scratchpad) as well as the two scheduling passes.
/// For automatic noise management, run [`ir::rescale::insert_rescales`]
/// on the program first.
pub fn compile_fhe(
    program: &FheProgram,
    arch: &f1_arch::ArchConfig,
) -> (Lowered, OptStats, Expanded, MovePlan, CycleSchedule) {
    let (optimized, stats) = program.optimize();
    let lowered = optimized.lower();
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let expanded = expand::expand(&lowered.program, &opts);
    let plan = movement::schedule(&expanded, arch);
    let cycles = cycle::schedule(&expanded, &plan, arch);
    (lowered, stats, expanded, plan, cycles)
}

/// Listing 2's matrix-vector multiply, lowered without the optimizer so
/// its shape stays exactly Listing 2's: `optimize` drops each row's last
/// `inner_sum` rotation, the identity automorphism `k = 1`.
#[cfg(test)]
pub(crate) fn listing2(n: usize, l: usize, rows: usize) -> Program {
    FheProgram::listing2_matvec(n, l, rows).lower().program
}
