//! # f1-sim — simulation and validation for the F1 reproduction
//!
//! F1's simulator is unusual (§7): because the architecture is statically
//! scheduled, it "acts more as a checker: it runs the instruction stream
//! at each component and verifies that latencies are as expected and
//! there are no missed dependences or structural hazards". This crate
//! provides:
//!
//! * [`checker`] — that checker: validates a compiled [`f1_compiler::CycleSchedule`]
//!   against its DFG and architecture (dependences, FU structural
//!   hazards, memory bandwidth, scratchpad capacity, makespan) from the
//!   emitted streams alone, the only record of when and where each
//!   instruction ran, and derives the evaluation statistics from them:
//!   traffic breakdown (Fig 9a), power breakdown (Fig 9b) and
//!   utilization-over-time series (Fig 10).
//! * [`functional`] — the functional simulator of §8.5: executes lowered
//!   `FheProgram`s against the real BGV implementation to verify input-output
//!   correctness, and doubles as the *timed CPU software baseline* of
//!   Table 3.
//! * [`replay`] — capacity-faithful replay: executes a schedule's
//!   streams in cycle order against an explicit scratchpad + HBM (with
//!   evictions literally destroying on-chip copies) and compares outputs
//!   bit-for-bit against direct dataflow evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod functional;
pub mod replay;

pub use checker::{check_schedule, check_streams, SimReport, Timeline};
pub use functional::{bind_constants, BgvExecutor, FunctionalRun};
pub use replay::{eval_dfg, mock_inputs, replay_schedule};
