//! # f1-workloads — the paper's evaluation benchmarks (§7)
//!
//! Seven full FHE programs expressed on the typed `FheProgram` frontend
//! (scheme-aware levels/scales, optimized and lowered through the IR
//! pass pipeline), mirroring the paper's benchmark suite: the three LoLa
//! neural networks, HELR logistic regression, HElib's DB lookup, and
//! non-packed BGV/CKKS bootstrapping.
//! Workload *structure* (operation mix, depths, rotation patterns,
//! parameters) follows the sources the paper ports; weights/data are
//! synthetic.
//!
//! Also provides the Table 4 microbenchmarks and the timed CPU software
//! baseline used by Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod cpu_baseline;
pub mod micro;

pub use benchmarks::{all_benchmarks, Benchmark};
pub use cpu_baseline::CpuBaseline;
