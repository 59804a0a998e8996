//! # f1-modarith — modular arithmetic substrate for the F1 reproduction
//!
//! F1 (MICRO 2021) performs all ciphertext arithmetic on vectors of 32-bit
//! residues; the modular multiplier is "the most expensive and frequent
//! operation" (paper §5.3). This crate provides:
//!
//! * [`Modulus`] — a word-sized prime modulus with every precomputed constant
//!   the four multiplier designs need (Barrett µ, Montgomery constants,
//!   word-level Montgomery constants, Shoup constants for fixed operands),
//!   and [`CenteredLift`], the division-free centered lift between two
//!   moduli that RNS key-switching and modulus switching run per digit.
//! * [`mul`] — the four modular-multiplier designs compared in the paper's
//!   Table 1: Barrett, Montgomery, NTT-friendly (word-level Montgomery of
//!   Mert et al. \[51\]) and F1's FHE-friendly multiplier.
//! * [`primes`] — NTT-friendly and FHE-friendly prime generation plus the
//!   prime census backing the paper's "6,186 prime moduli" claim (§5.3).
//! * [`slice_ops`] — batched element-wise kernels (`add_slice`, `mul_slice`,
//!   `fma_slice`, …): the software analogue of F1's vector FUs, written so
//!   the compiler can auto-vectorize the hot loops.
//! * [`cost`] — the structural hardware cost model that regenerates Table 1.
//! * [`ubig`] — a minimal unsigned big integer used for CRT reconstruction
//!   of wide-coefficient values (decryption and noise measurement only;
//!   the accelerator itself never touches wide arithmetic, §2.3).
//!
//! # Example
//!
//! ```
//! use f1_modarith::{Modulus, primes};
//!
//! // A 30-bit FHE-friendly prime: q ≡ 1 (mod 2^16), so it supports
//! // negacyclic NTTs up to N = 2^15 *and* the cheap reduction of §5.3.
//! let q = primes::fhe_friendly_primes(30, 1)[0];
//! let m = Modulus::new(q);
//! let a = 123_456_789 % q;
//! let b = 987_654_321 % q;
//! assert_eq!(m.mul(a, b), ((a as u64 * b as u64) % q as u64) as u32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod modulus;
pub mod mul;
pub mod primes;
pub mod slice_ops;
pub mod ubig;

pub use cost::{MultiplierCost, MultiplierKind};
pub use modulus::{CenteredLift, Modulus};
pub use ubig::UBig;

/// The machine word width of the accelerator datapath, in bits.
///
/// F1 fixes the RNS limb width to one 32-bit word (§2.3): every residue
/// polynomial coefficient is an integer modulo a prime that fits in
/// [`WORD_BITS`] bits.
pub const WORD_BITS: u32 = 32;

/// The sub-word width used by the word-level Montgomery multipliers (§5.3).
///
/// The NTT-friendly and FHE-friendly designs reduce a 64-bit product in
/// 16-bit steps; FHE-friendly moduli satisfy `q ≡ 1 (mod 2^HALF_WORD_BITS)`.
pub const HALF_WORD_BITS: u32 = 16;
