//! The four modular-multiplier designs of Table 1.
//!
//! F1's functional units spend most of their area and power on modular
//! multipliers, so §5.3 compares four designs:
//!
//! | design | idea | restriction on `q` |
//! |---|---|---|
//! | [`barrett`] | reciprocal-estimate division | none |
//! | [`montgomery`] | single 32-bit Montgomery fold | odd `q` |
//! | [`ntt_friendly`] | word-level Montgomery, trivial `q'` multiply (Mert et al. \[51\]) | `q ≡ 1 mod 2^m`, program-dependent `m = log 2N` |
//! | [`fhe_friendly`] | F1's design: fixed two-stage 16-bit datapath, one multiplier stage removed | `q ≡ 1 mod 2^16` (paper uses the mirror class `≡ −1`) |
//!
//! All four are implemented bit-exactly in software so that correctness can
//! be cross-checked; the *hardware* area/power/delay ranking is produced by
//! the structural model in [`crate::cost`]. The Montgomery-family functions
//! return values with a `2^{-32}` factor, as the hardware does inside NTT
//! datapaths where the factor is folded into the twiddles; use the
//! `*_normalized` helpers to compare against plain products.

use crate::Modulus;

/// Barrett modular multiplication: `a * b mod q` with no restriction on `q`.
///
/// This mirrors a classic two-multiplier hardware Barrett unit: one 32×32
/// product, one 64×34 reciprocal estimate, one subtract-and-correct.
#[inline]
pub fn barrett(m: &Modulus, a: u32, b: u32) -> u32 {
    debug_assert!(a < m.value() && b < m.value());
    let x = a as u64 * b as u64;
    let t = ((x as u128 * m.barrett_mu() as u128) >> 64) as u64;
    let mut r = x - t * m.value() as u64;
    while r >= m.value() as u64 {
        r -= m.value() as u64;
    }
    r as u32
}

/// Montgomery modular multiplication: returns `a * b * 2^{-32} mod q`.
///
/// One 32×32 product plus one 32×32 fold by `-q^{-1} mod 2^32` and one
/// 32×32 product by `q`: three multiplier stages in hardware.
#[inline]
pub fn montgomery(m: &Modulus, a: u32, b: u32) -> u32 {
    debug_assert!(a < m.value() && b < m.value());
    let t = a as u64 * b as u64;
    mont_reduce(m, t)
}

/// Montgomery reduction of a 64-bit value: `t * 2^{-32} mod q`.
#[inline]
pub fn mont_reduce(m: &Modulus, t: u64) -> u32 {
    let k = (t as u32).wrapping_mul(m.mont_qinv_neg());
    let folded = (t.wrapping_add(k as u64 * m.value() as u64)) >> 32;
    // t + k*q < 2^62 + 2^63 so no u64 overflow; result < 2q.
    let r = folded;
    if r >= m.value() as u64 {
        (r - m.value() as u64) as u32
    } else {
        r as u32
    }
}

/// Montgomery multiplication normalized back to the plain domain.
///
/// Computes `a * b mod q` by post-multiplying with `2^64 mod q` inside a
/// second Montgomery fold. Used by tests; real datapaths keep values in
/// Montgomery form.
#[inline]
pub fn montgomery_normalized(m: &Modulus, a: u32, b: u32) -> u32 {
    let ab_r_inv = montgomery(m, a, b);
    montgomery(m, ab_r_inv, m.mont_r2())
}

/// Word-level Montgomery multiplication (Mert et al. \[51\]): returns
/// `a * b * 2^{-32} mod q`, reducing the 64-bit product in 16-bit steps.
///
/// The generic design multiplies the low word by `q' = -q^{-1} mod 2^16`
/// at each step; because every NTT-friendly modulus with `2N ≥ 2^16`
/// satisfies `q ≡ 1 mod 2^16`, `q'` is `0xFFFF ≡ -1` and the multiply is a
/// two's-complement negation. For smaller `2N` the `q'` multiply is a real
/// 16×16 multiplier stage; [`crate::cost`] accounts for the difference.
#[inline]
pub fn ntt_friendly(m: &Modulus, a: u32, b: u32) -> u32 {
    debug_assert!(a < m.value() && b < m.value());
    let mut t = a as u64 * b as u64;
    for _ in 0..2 {
        let t_low = (t & 0xFFFF) as u16;
        // k = t_low * q' mod 2^16, with q' = -q^{-1} mod 2^16.
        let k = t_low.wrapping_mul(m.word_qinv_neg());
        t = (t + k as u64 * m.value() as u64) >> 16;
    }
    let r = t;
    debug_assert!(r < 2 * m.value() as u64);
    if r >= m.value() as u64 {
        (r - m.value() as u64) as u32
    } else {
        r as u32
    }
}

/// F1's FHE-friendly multiplier (§5.3): returns `a * b * 2^{-32} mod q`.
///
/// Requires `q ≡ 1 (mod 2^16)` (checked by a debug assertion), which pins
/// `q' = -q^{-1} ≡ -1 (mod 2^16)`: the per-stage `q'` multiplier of the
/// generic word-level design degenerates into a negation that is hardwired
/// here, removing a multiplier stage from the pipeline (19% area, 30% power
/// in the paper's synthesis).
#[inline]
pub fn fhe_friendly(m: &Modulus, a: u32, b: u32) -> u32 {
    debug_assert!(a < m.value() && b < m.value());
    debug_assert!(m.is_fhe_friendly(), "fhe_friendly requires q ≡ 1 mod 2^16");
    let mut t = a as u64 * b as u64;
    for _ in 0..2 {
        let t_low = (t & 0xFFFF) as u16;
        // q' ≡ -1 (mod 2^16): k = (-t_low) mod 2^16, no multiplier needed.
        let k = t_low.wrapping_neg();
        t = (t + k as u64 * m.value() as u64) >> 16;
    }
    let r = t;
    if r >= m.value() as u64 {
        (r - m.value() as u64) as u32
    } else {
        r as u32
    }
}

/// A precomputed Shoup constant for multiplying by a *fixed* operand `w`.
///
/// NTT butterflies multiply by fixed twiddles, so software (and the paper's
/// CPU baseline) precompute `w' = floor(w * 2^32 / q)` once and reduce each
/// product with a single high-multiply — the fastest software path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The fixed multiplicand, reduced mod `q`.
    pub operand: u32,
    /// `floor(operand * 2^32 / q)`.
    pub quotient: u32,
}

impl ShoupMul {
    /// Precomputes the Shoup constant for `operand` under `m`.
    pub fn new(operand: u32, m: &Modulus) -> Self {
        debug_assert!(operand < m.value());
        let quotient = (((operand as u64) << 32) / m.value() as u64) as u32;
        Self { operand, quotient }
    }

    /// Computes `x * operand mod q` with one high-half multiply.
    #[inline(always)]
    pub fn mul(&self, x: u32, q: u32) -> u32 {
        let r = self.mul_lazy(x, q);
        if r >= q {
            r - q
        } else {
            r
        }
    }

    /// Harvey's lazy Shoup multiply: returns `x * operand mod q` as a
    /// representative in `[0, 2q)`, skipping the final conditional subtract.
    ///
    /// Correct for *any* `x: u32` (the quotient estimate
    /// `hi = floor(x * quotient / 2^32)` undershoots the true quotient by
    /// less than `1 + x/2^32 < 2`, so the remainder lands in `[0, 2q)`; the
    /// wrapping arithmetic is exact because `2q < 2^32`). This is the
    /// butterfly primitive of the lazy-reduction NTT kernels.
    #[inline(always)]
    pub fn mul_lazy(&self, x: u32, q: u32) -> u32 {
        let hi = ((x as u64 * self.quotient as u64) >> 32) as u32;
        let r = (x.wrapping_mul(self.operand)).wrapping_sub(hi.wrapping_mul(q));
        debug_assert!((r as u64) < 2 * q as u64);
        r
    }
}

/// Identifies one of the four multiplier designs for dispatch in benches.
pub fn by_kind(kind: crate::MultiplierKind, m: &Modulus, a: u32, b: u32) -> u32 {
    use crate::MultiplierKind::*;
    match kind {
        Barrett => barrett(m, a, b),
        Montgomery => montgomery_normalized(m, a, b),
        NttFriendly => normalize_word_level(m, ntt_friendly(m, a, b)),
        FheFriendly => normalize_word_level(m, fhe_friendly(m, a, b)),
    }
}

/// Removes the `2^{-32}` factor of a word-level Montgomery result.
#[inline]
pub fn normalize_word_level(m: &Modulus, r: u32) -> u32 {
    m.mul(r, m.r_mod_q())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;
    use rand::{Rng, SeedableRng};

    fn fhe_modulus() -> Modulus {
        Modulus::new(primes::fhe_friendly_primes(30, 1)[0])
    }

    #[test]
    fn all_designs_agree_with_reference() {
        let m = fhe_modulus();
        let q = m.value() as u64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
        for _ in 0..2000 {
            let a = rng.gen_range(0..m.value());
            let b = rng.gen_range(0..m.value());
            let want = ((a as u64 * b as u64) % q) as u32;
            assert_eq!(barrett(&m, a, b), want, "barrett");
            assert_eq!(montgomery_normalized(&m, a, b), want, "montgomery");
            assert_eq!(normalize_word_level(&m, ntt_friendly(&m, a, b)), want, "ntt_friendly");
            assert_eq!(normalize_word_level(&m, fhe_friendly(&m, a, b)), want, "fhe_friendly");
        }
    }

    #[test]
    fn montgomery_family_shares_domain() {
        // All three Montgomery-style designs must return the identical
        // 2^{-32}-scaled representative.
        let m = fhe_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let a = rng.gen_range(0..m.value());
            let b = rng.gen_range(0..m.value());
            let mont = montgomery(&m, a, b);
            assert_eq!(ntt_friendly(&m, a, b), mont);
            assert_eq!(fhe_friendly(&m, a, b), mont);
        }
    }

    #[test]
    fn shoup_matches_barrett() {
        let m = fhe_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let w = rng.gen_range(0..m.value());
            let s = ShoupMul::new(w, &m);
            for _ in 0..20 {
                let x = rng.gen_range(0..m.value());
                assert_eq!(s.mul(x, m.value()), m.mul(x, w));
            }
        }
    }

    #[test]
    fn edge_operands() {
        let m = fhe_modulus();
        let q = m.value();
        for (a, b) in [(0, 0), (0, q - 1), (q - 1, q - 1), (1, 1), (1, q - 1)] {
            let want = ((a as u64 * b as u64) % q as u64) as u32;
            assert_eq!(barrett(&m, a, b), want);
            assert_eq!(montgomery_normalized(&m, a, b), want);
            assert_eq!(normalize_word_level(&m, fhe_friendly(&m, a, b)), want);
        }
    }

    #[test]
    fn by_kind_dispatches_every_design() {
        let m = fhe_modulus();
        let want = m.mul(12345, 67890);
        for kind in crate::MultiplierKind::ALL {
            assert_eq!(by_kind(kind, &m, 12345, 67890), want, "{kind:?}");
        }
    }
}
