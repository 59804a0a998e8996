//! # f1-isa — the F1 instruction set and dataflow-graph IR
//!
//! F1 executes *vector instructions over residue polynomials*: every
//! instruction consumes and produces `RVec`s (`N` 32-bit residues, §2.4).
//! Programs are compiled into an instruction-level dataflow graph
//! ([`Dfg`]) with no control flow (loops are fully unrolled, §3), then
//! scheduled into per-component static instruction streams
//! ([`streams`]) that the cycle-accurate simulator checks and times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dfg;
pub mod streams;

pub use dfg::{Dfg, InstrId, Instruction, Limb, Scalar, ValueId, ValueInfo, ValueKind, VectorOp};
pub use streams::{ComponentId, FuType};
