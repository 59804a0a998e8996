//! FHE parameter sets (§2.2.3, §7).
//!
//! A parameter set fixes the ring dimension `N`, the RNS modulus chain
//! `q_1..q_L` (plus the special primes GHS key-switching needs),
//! the plaintext modulus `t` (BGV) or scale (CKKS), and the error
//! distribution. The paper's security rule of thumb — `N / log Q` must
//! stay above a scheme-dependent floor — is checked by
//! [`security_level_bits`].

use f1_poly::rns::RnsContext;
use std::sync::Arc;

/// Width in bits of every generated BGV RNS limb prime.
///
/// The paper's functional simulator samples NTT-friendly primes of roughly
/// 24 bits (§8.5); we default to 30 bits (still one 32-bit word) for extra
/// noise headroom per limb.
pub const LIMB_BITS: u32 = 30;

/// Width in bits of CKKS limb primes.
///
/// CKKS rescaling divides the fixed-point scale by one limb prime per
/// multiplication, so limbs are sized to the scale (`q_i ≈ Δ`) to keep the
/// scale stationary across levels — the standard RNS-CKKS discipline.
pub const CKKS_LIMB_BITS: u32 = 25;

/// Estimates the security level in bits for ring dimension `n` and total
/// ciphertext modulus width `log_q` bits, following the homomorphic
/// encryption standard's ternary-secret tables \[2\] (linear interpolation
/// between table rows; the paper's §2.2.3 rule).
pub fn security_level_bits(n: usize, log_q: u32) -> f64 {
    // (N, log Q) pairs giving ~128-bit security per the HE standard.
    // At fixed N, halving log Q roughly doubles the security level.
    const TABLE_128: &[(usize, f64)] =
        &[(1024, 27.0), (2048, 54.0), (4096, 109.0), (8192, 218.0), (16384, 438.0), (32768, 881.0)];
    let budget_128 = TABLE_128
        .iter()
        .find(|&&(tn, _)| tn >= n)
        .map(|&(_, b)| b)
        .unwrap_or(881.0 * (n as f64 / 32768.0));
    128.0 * budget_128 / log_q as f64
}

/// Parameters for the BGV scheme.
#[derive(Debug, Clone)]
pub struct BgvParams {
    /// Ring dimension `N`.
    pub n: usize,
    /// Number of ciphertext limbs at the top level (the paper's `L`).
    /// The chain carries as many special primes after them (`K = L`).
    pub max_level: usize,
    /// Plaintext modulus `t`.
    pub plaintext_modulus: u64,
    /// Centered-binomial error parameter η (std-dev ≈ sqrt(η/2)).
    pub error_eta: u32,
    /// Shared polynomial context over the full chain (limbs + specials).
    ctx: Arc<RnsContext>,
}

impl BgvParams {
    /// Builds a parameter set, generating the RNS chain: `max_level`
    /// program limbs followed by `K = max_level` special primes, so that
    /// `P ≈ Q` and a GHS key-switch adds only small noise at every level.
    /// That is pass 1's `K = l` at the top level.
    ///
    /// # Panics
    ///
    /// Panics if `t < 2`, if `t` shares a factor with the generated chain
    /// (BGV needs `gcd(t, Q·P) = 1`), or the chain cannot be generated.
    pub fn new(n: usize, max_level: usize, t: u64) -> Self {
        Self::with_prime_class(n, max_level, t, false)
    }

    /// Builds a parameter set whose chain consists of *FHE-friendly* primes
    /// (`q ≡ 1 mod 2^16`, §5.3). Besides enabling the cheap modular
    /// multiplier, this class makes `q^{-1} ≡ 1` modulo every power-of-two
    /// plaintext modulus up to `2^16`, so bootstrapping's digit extraction
    /// runs with trivial correction factors.
    pub fn new_fhe_friendly(n: usize, max_level: usize, t: u64) -> Self {
        Self::with_prime_class(n, max_level, t, true)
    }

    fn with_prime_class(n: usize, max_level: usize, t: u64, fhe_friendly: bool) -> Self {
        assert!(t >= 2, "plaintext modulus must be at least 2");
        let ctx = if fhe_friendly {
            let qs = f1_modarith::primes::fhe_friendly_primes(LIMB_BITS, 2 * max_level);
            RnsContext::from_moduli(n, &qs)
        } else {
            RnsContext::for_ring(n, LIMB_BITS, 2 * max_level)
        };
        for m in ctx.moduli() {
            assert!(
                !(m.value() as u64).is_multiple_of(t),
                "plaintext modulus must be coprime to the chain"
            );
        }
        Self { n, max_level, plaintext_modulus: t, error_eta: 8, ctx }
    }

    /// A small parameter set for fast unit tests: `t = 65537` (SIMD-capable
    /// for every supported `N`).
    pub fn test_small(n: usize, levels: usize) -> Self {
        Self::new(n, levels, 65537)
    }

    /// The shared polynomial context (program limbs followed by special
    /// primes).
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Security estimate at the top level, over the key-switch modulus
    /// `Q·P` (`2·max_level` limbs).
    pub fn security_bits(&self) -> f64 {
        security_level_bits(self.n, self.ctx.log_q(2 * self.max_level))
    }

    /// `log2` of the top-level ciphertext modulus (excluding specials).
    pub fn log_q(&self) -> u32 {
        self.ctx.log_q(self.max_level)
    }

    /// A parameter set sharing this one's ring context but with a
    /// different plaintext modulus — bootstrapping temporarily raises the
    /// plaintext modulus to `2^{ν+ρ+1}` while keeping the same keys.
    ///
    /// # Panics
    ///
    /// Panics if the new modulus shares a factor with the chain.
    pub fn with_plaintext_modulus(&self, t: u64) -> Self {
        assert!(t >= 2);
        for m in self.ctx.moduli() {
            assert!(
                !(m.value() as u64).is_multiple_of(t),
                "plaintext modulus must be coprime to the chain"
            );
        }
        Self { plaintext_modulus: t, ..self.clone() }
    }
}

/// Parameters for the CKKS scheme.
#[derive(Debug, Clone)]
pub struct CkksParams {
    /// Ring dimension `N` (slots = N/2).
    pub n: usize,
    /// Number of ciphertext limbs at the top level.
    pub max_level: usize,
    /// Number of special primes for GHS key-switching.
    pub special_levels: usize,
    /// Fixed-point scale Δ applied at encoding.
    pub scale: f64,
    /// Centered-binomial error parameter.
    pub error_eta: u32,
    ctx: Arc<RnsContext>,
}

impl CkksParams {
    /// Builds a CKKS parameter set.
    pub fn new(n: usize, max_level: usize, special_levels: usize, scale: f64) -> Self {
        let ctx = RnsContext::for_ring(n, CKKS_LIMB_BITS, max_level + special_levels);
        Self { n, max_level, special_levels, scale, error_eta: 4, ctx }
    }

    /// Small test parameters: scale 2^25 matches the 25-bit limb width so
    /// the scale is stationary under rescaling, with enough special primes
    /// for GHS rotation key-switching (`P >= Q`).
    pub fn test_small(n: usize, levels: usize) -> Self {
        Self::new(n, levels, levels + 1, (1u64 << 25) as f64)
    }

    /// The shared polynomial context.
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Security estimate at the top level.
    pub fn security_bits(&self) -> f64 {
        security_level_bits(self.n, self.ctx.log_q(self.max_level + self.special_levels))
    }
}

/// The three microbenchmark parameter sets of Table 4.
///
/// Returns `(N, target log Q, L at 30-bit limbs)` triples: the paper's
/// `(2^12, 109)`, `(2^13, 218)`, `(2^14, 438)`.
pub fn table4_parameter_sets() -> [(usize, u32, usize); 3] {
    [(1 << 12, 109, 4), (1 << 13, 218, 8), (1 << 14, 438, 15)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_matches_he_standard_anchors() {
        // The anchor points themselves must give ~128 bits.
        for (n, logq) in [(1024usize, 27u32), (4096, 109), (16384, 438)] {
            let s = security_level_bits(n, logq);
            assert!((s - 128.0).abs() < 1e-9, "n={n} logq={logq}: {s}");
        }
        // Narrower Q at the same N is more secure.
        assert!(security_level_bits(16384, 219) > security_level_bits(16384, 438));
        // Wider Q at the same N is less secure.
        assert!(security_level_bits(4096, 218) < 128.0);
    }

    #[test]
    fn bgv_params_build_chain() {
        let p = BgvParams::test_small(64, 4);
        assert_eq!(p.max_level, 4);
        assert_eq!(p.plaintext_modulus, 65537);
        assert!(p.log_q() >= 4 * (LIMB_BITS - 1));
    }

    #[test]
    fn specials_extend_the_chain() {
        // K = L special primes follow the program limbs.
        let p = BgvParams::test_small(64, 3);
        assert_eq!(p.max_level, 3);
        assert_eq!(p.context().max_level(), 6);
    }

    #[test]
    fn table4_sets_cover_paper_columns() {
        let sets = table4_parameter_sets();
        assert_eq!(sets[0].0, 4096);
        assert_eq!(sets[1].1, 218);
        assert_eq!(sets[2].2, 15);
        for (n, logq, l) in sets {
            // L limbs at 30 bits must reach the paper's target log Q.
            assert!((l as u32 * LIMB_BITS) >= logq, "n={n}: {l} limbs < {logq} bits");
        }
    }
}
