//! # f1-poly — polynomial substrate for the F1 reproduction
//!
//! FHE ciphertexts are pairs of polynomials in `R_Q = Z_Q[X]/(X^N + 1)`,
//! stored in RNS form as `L` residue polynomials with 32-bit coefficients
//! (paper §2.2–2.3). This crate implements the data types and the three
//! non-trivial kernels F1 builds functional units for:
//!
//! * [`ntt`] — negacyclic NTTs (merged-ψ Cooley–Tukey forward, Gentleman–
//!   Sande inverse) over each RNS limb.
//! * [`four_step`] — the four-step NTT decomposition that F1's NTT unit
//!   implements in hardware (§5.2): two passes of `E`-point NTTs around a
//!   twiddle multiplication and a transpose.
//! * [`automorphism`] — Galois automorphisms `σ_k` in both coefficient and
//!   NTT domains, plus the column-permute / transpose / row-permute
//!   decomposition of §5.1 (Fig 5) that makes them vectorizable.
//! * [`transpose`] — the quadrant-swap transpose unit of Fig 7, modeled
//!   operationally (the same unit serves the NTT and automorphism FUs).
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
// Index loops intentionally mirror the per-element/NTT/transpose kernels structure of the
// hardware they model; iterator rewrites obscure that correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod automorphism;
pub mod crt;
pub mod four_step;
pub mod ntt;
pub mod par;
pub mod rns;
pub mod transpose;

pub use rns::{Domain, ResiduePoly, RnsContext, RnsPoly};

/// Supported ring dimensions: powers of two from 1K to 16K (paper §3).
pub const MIN_LOG_N: u32 = 10;
/// Maximum supported `log2 N`.
pub const MAX_LOG_N: u32 = 14;
