//! # f1-poly — polynomial substrate for the F1 reproduction
//!
//! FHE ciphertexts are pairs of polynomials in `R_Q = Z_Q[X]/(X^N + 1)`,
//! stored in RNS form as `L` residue polynomials with 32-bit coefficients
//! (paper §2.2–2.3). This crate implements the data types and the
//! reference kernels behind every residue the FHE layer computes:
//!
//! * [`ntt`] — negacyclic NTTs (merged-ψ Cooley–Tukey forward, Gentleman–
//!   Sande inverse) over each RNS limb.
//! * [`automorphism`] — Galois automorphisms `σ_k` in both coefficient and
//!   NTT domains.
//! * [`rns`] — RNS contexts and [`rns::RnsPoly`], the `RVec`-of-limbs type
//!   every F1 instruction operates on (flat limb-major storage, in-place
//!   operators).
//! * [`par`] — scoped-thread limb parallelism for the RNS hot loops.
//! * [`crt`] — CRT reconstruction of wide coefficients (client-side only).
//!
//! # Example
//!
//! ```
//! use f1_poly::rns::{RnsContext, RnsPoly};
//!
//! let ctx = RnsContext::for_ring(1024, 30, 3); // N=1024, three 30-bit primes
//! let a = RnsPoly::random(&ctx, &mut rand::thread_rng());
//! let b = RnsPoly::random(&ctx, &mut rand::thread_rng());
//! // Multiplication is element-wise in the NTT domain (paper §2.3).
//! let prod = a.to_ntt().mul(&b.to_ntt());
//! assert_eq!(prod, b.to_ntt().mul(&a.to_ntt()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automorphism;
pub mod crt;
pub mod ntt;
pub mod par;
pub mod rns;

pub use rns::{Domain, ResiduePoly, RnsContext, RnsPoly};

/// Supported ring dimensions: powers of two from 1K to 16K (paper §3).
pub const MIN_LOG_N: u32 = 10;
/// Maximum supported `log2 N`.
pub const MAX_LOG_N: u32 = 14;
