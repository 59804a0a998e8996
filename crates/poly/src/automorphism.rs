//! Galois automorphisms `σ_k` and their vectorizable decomposition (§5.1).
//!
//! An automorphism maps `a(X) → a(X^k)` in `Z_q[X]/(X^N + 1)`, i.e. it
//! sends the coefficient at index `i` to index `ik mod N` with a sign flip
//! when `ik mod 2N >= N`. There are `N` automorphisms: `σ_k` and `σ_{-k}`
//! for every odd `0 < k < N` (paper §2.2.1).
//!
//! The hardware challenge (§5.1) is that each `σ_k` spreads elements with a
//! different stride, defeating banked-SRAM vectorization. F1's insight:
//! viewing the residue polynomial as a `G × E` matrix, every `σ_k` factors
//! into a *column permutation* that is identical for every chunk, a
//! transpose, a *row permutation* local to each transposed chunk, and a
//! transpose back — all operations on `E`-element vectors.
//!
//! That decomposition is not executed here. The simulator charges it
//! through the `Aut` term of `ArchConfig::latency` in f1-arch (`G` input
//! vectors plus the `E/2` fill of each of its two transposes), and every
//! residue is computed by the direct kernels below.

use crate::ntt::bit_reverse;
use f1_modarith::Modulus;

/// Validates an automorphism exponent: odd and in `(0, 2N)`.
///
/// `k` and `2N - k` give the `σ_k`/`σ_{-k}` pair of the paper.
pub fn assert_valid_exponent(k: usize, n: usize) {
    assert!(k % 2 == 1, "automorphism exponent must be odd, got {k}");
    assert!(k > 0 && k < 2 * n, "automorphism exponent must lie in (0, 2N), got {k} for N={n}");
}

/// Applies `σ_k` to a polynomial in coefficient representation.
///
/// `out[ik mod N] = ± a[i]`, negated when `ik mod 2N >= N`.
pub fn apply_coeff(a: &[u32], k: usize, m: &Modulus) -> Vec<u32> {
    let mut out = vec![0u32; a.len()];
    apply_coeff_into(a, k, m, &mut out);
    out
}

/// [`apply_coeff`] writing into a caller-provided buffer (`out` must not
/// alias `a`; every index is written exactly once because `σ_k` permutes
/// indices, so stale contents never leak through).
pub fn apply_coeff_into(a: &[u32], k: usize, m: &Modulus, out: &mut [u32]) {
    let n = a.len();
    assert!(n.is_power_of_two());
    assert_eq!(out.len(), n, "output buffer length must equal N");
    assert_valid_exponent(k, n);
    let two_n = 2 * n;
    for (i, &v) in a.iter().enumerate() {
        let j2 = (i * k) % two_n;
        if j2 < n {
            out[j2] = v;
        } else {
            out[j2 - n] = m.neg(v);
        }
    }
}

/// Applies `σ_k` to a polynomial in the NTT domain (bit-reversed order, the
/// convention of [`crate::ntt::NttTables`]).
///
/// In the evaluation domain the automorphism is a pure permutation: slot
/// `i` (holding the evaluation at `ψ^{2i+1}`) reads from slot
/// `(k(2i+1) - 1)/2 mod N`. No arithmetic is needed, which is why FHE
/// implementations keep ciphertexts in the NTT domain across automorphisms
/// (§2.3).
pub fn apply_ntt(a_hat: &[u32], k: usize) -> Vec<u32> {
    let mut out = vec![0u32; a_hat.len()];
    apply_ntt_into(a_hat, k, &mut out);
    out
}

/// [`apply_ntt`] writing into a caller-provided buffer (`out` must not
/// alias `a_hat`; every slot is written).
pub fn apply_ntt_into(a_hat: &[u32], k: usize, out: &mut [u32]) {
    let n = a_hat.len();
    assert!(n.is_power_of_two());
    assert_eq!(out.len(), n, "output buffer length must equal N");
    assert_valid_exponent(k, n);
    let log_n = n.trailing_zeros();
    let two_n = 2 * n;
    for (s, x) in out.iter_mut().enumerate() {
        let i = bit_reverse(s, log_n); // evaluation index of slot s
        let src_eval = (k * (2 * i + 1)) % two_n;
        debug_assert!(src_eval % 2 == 1);
        let j = (src_eval - 1) / 2;
        *x = a_hat[bit_reverse(j, log_n)];
    }
}

/// The exponent used to homomorphically rotate packed slots by `amount`
/// positions: `k = 3^amount mod 2N` (the standard BGV/CKKS convention where
/// 3 generates the slot-rotation subgroup of `(Z/2N)^*`).
pub fn rotation_exponent(amount: usize, n: usize) -> usize {
    let two_n = 2 * n as u64;
    let mut k = 1u64;
    for _ in 0..amount {
        k = (k * 3) % two_n;
    }
    k as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTables;
    use f1_modarith::primes;
    use rand::{Rng, SeedableRng};

    fn modulus(n: usize) -> Modulus {
        Modulus::new(primes::ntt_friendly_primes(n, 30, 1)[0])
    }

    #[test]
    fn sigma_1_is_identity() {
        let m = modulus(64);
        let a: Vec<u32> = (0..64).collect();
        assert_eq!(apply_coeff(&a, 1, &m), a);
        assert_eq!(apply_ntt(&a, 1), a);
    }

    #[test]
    fn composition_of_automorphisms() {
        // σ_j ∘ σ_k = σ_{jk mod 2N}.
        let n = 128;
        let m = modulus(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let (j, k) = (5usize, 11usize);
        let lhs = apply_coeff(&apply_coeff(&a, k, &m), j, &m);
        let rhs = apply_coeff(&a, (j * k) % (2 * n), &m);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn inverse_automorphism_roundtrip() {
        // σ_k ∘ σ_{k^{-1} mod 2N} = identity.
        let n = 256;
        let m = modulus(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let k = 77usize;
        // Find k^{-1} mod 2N by brute force (test-only).
        let k_inv = (1..2 * n).step_by(2).find(|&x| (x * k) % (2 * n) == 1).unwrap();
        assert_eq!(apply_coeff(&apply_coeff(&a, k, &m), k_inv, &m), a);
    }

    #[test]
    fn ntt_domain_commutes_with_coeff_domain() {
        // NTT(σ_k(a)) == σ̂_k(NTT(a)) — the paper's §2.3 identity.
        let n = 512;
        let m = modulus(n);
        let tables = NttTables::new(n, m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        for k in [3usize, 5, 9, 2 * n - 1, n + 1] {
            let mut lhs = apply_coeff(&a, k, &m);
            tables.forward(&mut lhs);
            let mut a_hat = a.clone();
            tables.forward(&mut a_hat);
            let rhs = apply_ntt(&a_hat, k);
            assert_eq!(lhs, rhs, "k={k}");
        }
    }

    #[test]
    fn rotation_exponents_are_valid() {
        let n = 1024;
        for r in 0..10 {
            let k = rotation_exponent(r, n);
            assert_valid_exponent(k.max(1), n);
        }
        assert_eq!(rotation_exponent(0, n), 1);
        assert_eq!(rotation_exponent(1, n), 3);
        assert_eq!(rotation_exponent(2, n), 9);
    }

    #[test]
    fn all_n_automorphisms_are_permutations() {
        // Every odd k < 2N induces a bijection on indices (magnitude-wise).
        let n = 64;
        let m = modulus(n);
        let a: Vec<u32> = (1..=n as u32).collect();
        for k in (1..2 * n).step_by(2) {
            let out = apply_coeff(&a, k, &m);
            let mut seen: Vec<u32> =
                out.iter().map(|&v| if v > m.value() / 2 { m.neg(v) } else { v }).collect();
            seen.sort_unstable();
            let want: Vec<u32> = (1..=n as u32).collect();
            assert_eq!(seen, want, "k={k} must permute all magnitudes");
        }
    }
}
