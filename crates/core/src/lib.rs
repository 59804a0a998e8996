//! # f1 — facade crate for the F1 accelerator reproduction
//!
//! Re-exports the whole stack. See the README for the architecture
//! overview and its crate map.
//!
//! Writing a new workload is ~20 lines — an encrypted dot-product
//! service, typed for CKKS, compiled end to end (the README's example):
//!
//! ```
//! use f1::arch::ArchConfig;
//! use f1::compiler::ir::{FheProgram, Scheme};
//!
//! let mut p = FheProgram::new(1 << 14, Scheme::Ckks);
//! let x = p.input(8);              // packed client vector, L = 8
//! let w = p.input(8);              // packed encrypted weights
//! let prod = p.mul(x, w);          // scale 2 after the product
//! let dot = p.inner_sum(prod, 1 << 14); // rotate-and-add reduction
//! let dot = p.rescale(dot);        // back to scale 1, L = 7
//! let bias = p.scalar(42, 7);      // compile-time constant
//! let out = p.add_plain(dot, bias);
//! p.output(out);
//!
//! let arch = ArchConfig::f1_default();
//! let (lowered, stats, ex, plan, cycles) = f1::compiler::compile_fhe(&p, &arch);
//! let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
//! println!("{} hom ops (-{} by IR passes), {} cycles",
//!          stats.nodes_after, stats.removed(), report.makespan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use f1_arch as arch;
pub use f1_compiler as compiler;
pub use f1_fhe as fhe;
pub use f1_isa as isa;
pub use f1_modarith as modarith;
pub use f1_poly as poly;
pub use f1_sim as sim;
pub use f1_workloads as workloads;
