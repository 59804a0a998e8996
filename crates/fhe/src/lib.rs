//! # f1-fhe — the FHE schemes F1 accelerates
//!
//! F1 accelerates *primitive* operations (modular arithmetic, NTTs,
//! automorphisms) rather than full homomorphic operations, which lets one
//! set of functional units serve BGV, CKKS and GSW (paper §2.5). This crate
//! is the software substrate implementing those schemes end to end:
//!
//! * [`params`] — parameter sets (ring dimension, RNS chain, plaintext
//!   modulus, security estimation per §2.2.3).
//! * [`keys`] — secret keys and key generation.
//! * [`keyswitch`] — key-switching (§2.4): the GHS variant with `O(L)`
//!   hints, which BGV and CKKS run and the compiler's pass 1 expands.
//! * [`rlwe`] — the RLWE core the three schemes share: the `(a, b)` pair,
//!   its encryption and phase, limb-wise arithmetic, the key-switched
//!   tensor product and automorphism, and the hint set.
//! * [`bgv`] — the BGV scheme over that core: plaintext modulus and
//!   correction factor, modulus switching, noise measurement (§2.2).
//! * [`encoding`] — SIMD slot packing for BGV plaintexts.
//! * [`ckks`] — CKKS approximate arithmetic over that core, with
//!   encode/decode through the canonical embedding and rescaling.
//! * [`gsw`] — ring-GSW bit encryption, whose rows are the core's RLWE
//!   encryptions, and the external product.
//! * [`bootstrap`] — non-packed bootstrapping for BGV (digit extraction)
//!   and CKKS (sine-series EvalMod), the procedures behind the paper's two
//!   bootstrapping benchmarks (§7).
//!
//! # Example
//!
//! ```
//! use f1_fhe::params::BgvParams;
//! use f1_fhe::bgv;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = BgvParams::test_small(64, 3);
//! let keys = bgv::KeySet::generate(&params, &mut rng);
//! let m = bgv::Plaintext::from_coeffs(&params, &[1, 2, 3]);
//! let ct = keys.encrypt(&m, &mut rng);
//! let ct2 = ct.mul(&ct, keys.relin_hint());
//! assert_eq!(keys.decrypt(&ct2).coeff(0), 1); // 1*1
//! ```

#![forbid(unsafe_code)]
// Index loops intentionally mirror the per-element/slot/limb loops structure of the
// hardware they model; iterator rewrites obscure that correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bgv;
pub mod bootstrap;
pub mod ckks;
pub mod encoding;
pub mod gsw;
pub mod keys;
pub mod keyswitch;
pub mod noise;
pub mod params;
pub mod rlwe;

pub use params::{BgvParams, CkksParams};
