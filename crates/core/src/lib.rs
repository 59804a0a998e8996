//! # f1 — facade crate for the F1 accelerator reproduction
//!
//! Re-exports the whole stack. See the README for the architecture
//! overview and its crate map.
//!
//! ```
//! use f1::arch::ArchConfig;
//! use f1::compiler::Program;
//!
//! let program = Program::listing2_matvec(1 << 12, 4, 2);
//! let arch = ArchConfig::f1_default();
//! let (_ex, _plan, cycles) = f1::compiler::compile(&program, &arch);
//! assert!(cycles.makespan > 0);
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
