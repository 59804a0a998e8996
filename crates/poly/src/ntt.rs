//! Negacyclic number-theoretic transforms (§2.3, §5.2).
//!
//! Polynomial multiplication in `Z_q[X]/(X^N + 1)` becomes element-wise
//! multiplication under the *negacyclic* NTT, which evaluates a polynomial
//! at the odd powers of a primitive `2N`-th root of unity `ψ`. We use the
//! standard merged-twist formulation: the forward transform is a
//! decimation-in-time Cooley–Tukey butterfly network with ψ-powers merged
//! into the twiddles, the inverse a decimation-in-frequency Gentleman–Sande
//! network with ψ^{-1}-powers merged (Lyubashevsky et al. \[49\], Pöppelmann
//! et al. \[62\], Roy et al. \[67\] — the same lineage the paper cites).
//!
//! Two implementations share the twiddle tables:
//!
//! * [`NttTables::forward_reference`] / [`NttTables::inverse_reference`] —
//!   the strict transforms, every intermediate canonical (`< q`). These are
//!   the retained bit-exact oracles.
//! * [`NttTables::forward`] / [`NttTables::inverse`] — Harvey lazy-reduction
//!   butterflies: residues are carried in `[0, 2q)` with transient values in
//!   `[0, 4q)`, twiddle products use the lazy Shoup multiply
//!   ([`ShoupMul::mul_lazy`], result in `[0, 2q)`), and a single correction
//!   pass at the end restores canonical residues. Requires `q < 2^30` so
//!   `4q` fits a `u32` (every paper modulus is ≤ 30 bits); wider moduli fall
//!   back to the reference kernels. Outputs are bit-identical to the
//!   reference transforms.
//!
//! F1's NTT unit computes these transforms as two passes of `E`-point NTTs
//! around a twiddle multiply and a transpose (§5.2). That dataflow is
//! modelled by its timing only, `ArchConfig::{occupancy, latency}` in
//! f1-arch; every residue is computed here.

use f1_modarith::mul::ShoupMul;
use f1_modarith::Modulus;

/// Largest modulus the lazy kernels accept: `q < 2^30` keeps `4q - 1`
/// representable in a `u32`.
const LAZY_Q_MAX: u32 = 1 << 30;

/// Precomputed twiddle tables for size-`n` negacyclic NTTs modulo one prime.
///
/// Construction is `O(n)` space and is meant to be shared: clone the
/// [`std::sync::Arc`] that [`crate::rns::RnsContext`] wraps around it.
#[derive(Debug, Clone)]
pub struct NttTables {
    n: usize,
    modulus: Modulus,
    /// ψ^bitrev(i) in Shoup form, for the forward DIT butterflies.
    fwd_twiddles: Vec<ShoupMul>,
    /// ψ^{-bitrev(i)} in Shoup form, for the inverse DIF butterflies.
    inv_twiddles: Vec<ShoupMul>,
    /// `n^{-1} mod q` in Shoup form, applied at the end of the inverse NTT.
    n_inv: ShoupMul,
    /// ψ (primitive 2n-th root of unity).
    psi: u32,
}

impl NttTables {
    /// Builds tables for ring dimension `n` (a power of two) modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q ≢ 1 (mod 2n)` (no primitive `2n`-th root exists) or if
    /// `n` is not a power of two.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(n.is_power_of_two(), "NTT size must be a power of two");
        assert!(modulus.supports_ntt(n), "q = {} is not NTT-friendly for n = {n}", modulus.value());
        let psi = modulus.primitive_root_of_unity(2 * n as u64);
        let psi_inv = modulus.inv(psi);
        let log_n = n.trailing_zeros();
        let mut fwd = Vec::with_capacity(n);
        let mut inv = Vec::with_capacity(n);
        let mut pow_f: u32 = 1;
        let mut pow_i: u32 = 1;
        // Tables store psi^i indexed by bit-reversed position, the classic
        // layout that lets both loops below walk the table linearly.
        let mut fwd_nat = vec![0u32; n];
        let mut inv_nat = vec![0u32; n];
        for i in 0..n {
            fwd_nat[i] = pow_f;
            inv_nat[i] = pow_i;
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, psi_inv);
        }
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            fwd.push(ShoupMul::new(fwd_nat[r], &modulus));
            inv.push(ShoupMul::new(inv_nat[r], &modulus));
        }
        let n_inv_val = modulus.inv(n as u32 % modulus.value());
        Self {
            n,
            modulus,
            fwd_twiddles: fwd,
            inv_twiddles: inv,
            n_inv: ShoupMul::new(n_inv_val, &modulus),
            psi,
        }
    }

    /// The ring dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus these tables were built for.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive `2n`-th root of unity used by the tables.
    pub fn psi(&self) -> u32 {
        self.psi
    }

    /// In-place forward negacyclic NTT (coefficient → NTT domain).
    ///
    /// Dispatches to the Harvey lazy-reduction kernel when the modulus
    /// leaves `4q` headroom in a `u32` (`q < 2^30`, true for every paper
    /// modulus) and to [`NttTables::forward_reference`] otherwise. Both
    /// paths produce identical canonical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u32]) {
        if self.modulus.value() < LAZY_Q_MAX {
            self.forward_lazy(a);
        } else {
            self.forward_reference(a);
        }
    }

    /// In-place inverse negacyclic NTT (NTT → coefficient domain).
    ///
    /// Dispatches to the lazy Gentleman–Sande kernel when `q < 2^30`, else
    /// to [`NttTables::inverse_reference`]. Both paths produce identical
    /// canonical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u32]) {
        if self.modulus.value() < LAZY_Q_MAX {
            self.inverse_lazy(a);
        } else {
            self.inverse_reference(a);
        }
    }

    /// Forward NTT with Harvey lazy reduction (requires `q < 2^30`).
    ///
    /// Invariant: at each stage every lane holds a representative in
    /// `[0, 4q)`. The x-lane is folded into `[0, 2q)` by one conditional
    /// subtract, the twiddle product `v = w * y` comes out of
    /// [`ShoupMul::mul_lazy`] in `[0, 2q)` for *any* `u32` input, and the
    /// butterfly writes `x + v < 4q` and `x + 2q - v < 4q`. A final pass of
    /// two conditional subtracts restores canonical residues — bit-exact
    /// with [`NttTables::forward_reference`].
    fn forward_lazy(&self, a: &mut [u32]) {
        assert_eq!(a.len(), self.n, "input length must equal ring dimension");
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = self.n / 2;
        let mut m = 1usize;
        while m < self.n {
            for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
                let w = &self.fwd_twiddles[m + i];
                let (lo, hi) = chunk.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let mut u = *x;
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = w.mul_lazy(*y, q);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m *= 2;
            t /= 2;
        }
        for x in a.iter_mut() {
            let mut r = *x;
            if r >= two_q {
                r -= two_q;
            }
            if r >= q {
                r -= q;
            }
            *x = r;
        }
    }

    /// Inverse NTT with lazy reduction (requires `q < 2^30`).
    ///
    /// Invariant: every lane stays in `[0, 2q)` across stages (the sum is
    /// folded by one conditional subtract; the difference `x + 2q - y < 4q`
    /// feeds the lazy Shoup multiply, which lands back in `[0, 2q)`). The
    /// final `n^{-1}` scaling pass uses the fully-reduced Shoup multiply, so
    /// outputs are canonical and bit-exact with
    /// [`NttTables::inverse_reference`].
    fn inverse_lazy(&self, a: &mut [u32]) {
        assert_eq!(a.len(), self.n, "input length must equal ring dimension");
        let q = self.modulus.value();
        let two_q = 2 * q;
        let mut t = 1usize;
        let mut m = self.n / 2;
        while m >= 1 {
            for (i, chunk) in a.chunks_exact_mut(2 * t).enumerate() {
                let w = &self.inv_twiddles[m + i];
                let (lo, hi) = chunk.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *x;
                    let v = *y;
                    let mut s = u + v;
                    if s >= two_q {
                        s -= two_q;
                    }
                    *x = s;
                    *y = w.mul_lazy(u + two_q - v, q);
                }
            }
            m /= 2;
            t *= 2;
        }
        for x in a.iter_mut() {
            *x = self.n_inv.mul(*x, q);
        }
    }

    /// The strict forward transform: the retained bit-exact oracle.
    ///
    /// Uses the merged-ψ DIT Cooley–Tukey network with every intermediate
    /// kept canonical — the dataflow F1's NTT FU pipelines (§5.2). Works for
    /// any supported modulus (`q < 2^31`).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_reference(&self, a: &mut [u32]) {
        assert_eq!(a.len(), self.n, "input length must equal ring dimension");
        let q = self.modulus.value();
        let mut t = self.n / 2;
        let mut m = 1usize;
        while m < self.n {
            for i in 0..m {
                let w = &self.fwd_twiddles[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    // CT butterfly: (x, y) -> (x + w*y, x - w*y)
                    let u = a[j];
                    let v = w.mul(a[j + t], q);
                    a[j] = self.modulus.add(u, v);
                    a[j + t] = self.modulus.sub(u, v);
                }
            }
            m *= 2;
            t /= 2;
        }
    }

    /// The strict inverse transform: the retained bit-exact oracle.
    ///
    /// Uses the merged-ψ^{-1} DIF Gentleman–Sande network followed by the
    /// `n^{-1}` scaling, every intermediate canonical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_reference(&self, a: &mut [u32]) {
        assert_eq!(a.len(), self.n, "input length must equal ring dimension");
        let q = self.modulus.value();
        let mut t = 1usize;
        let mut m = self.n / 2;
        while m >= 1 {
            for i in 0..m {
                let w = &self.inv_twiddles[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    // GS butterfly: (x, y) -> (x + y, w*(x - y))
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = self.modulus.add(u, v);
                    a[j + t] = w.mul(self.modulus.sub(u, v), q);
                }
            }
            m /= 2;
            t *= 2;
        }
        for x in a.iter_mut() {
            *x = self.n_inv.mul(*x, q);
        }
    }

    /// Negacyclic convolution of `a` and `b` via NTT, for reference tests.
    pub fn negacyclic_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        f1_modarith::slice_ops::mul_slice(&self.modulus, &mut fa, &fb);
        self.inverse(&mut fa);
        fa
    }
}

/// Reverses the low `bits` bits of `i`.
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Schoolbook negacyclic multiplication, the `O(n^2)` oracle for tests.
// The oracle indexes `a[i]`, `b[j]` and `out[i + j]` as the definition does.
#[allow(clippy::needless_range_loop)]
pub fn negacyclic_mul_schoolbook(a: &[u32], b: &[u32], m: &Modulus) -> Vec<u32> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u32; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let p = m.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = m.add(out[k], p);
            } else {
                // X^n = -1: wraparound with sign flip.
                out[k - n] = m.sub(out[k - n], p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_modarith::primes;
    use rand::{Rng, SeedableRng};

    fn tables(n: usize) -> NttTables {
        let q = primes::ntt_friendly_primes(n, 30, 1)[0];
        NttTables::new(n, Modulus::new(q))
    }

    fn random_poly(n: usize, q: u32, rng: &mut impl Rng) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for log_n in [3u32, 6, 10, 12] {
            let n = 1usize << log_n;
            let t = tables(n);
            let a = random_poly(n, t.modulus().value(), &mut rng);
            let mut b = a.clone();
            t.forward(&mut b);
            assert_ne!(a, b, "forward must not be the identity");
            t.inverse(&mut b);
            assert_eq!(a, b, "inverse(forward(a)) == a for n={n}");
        }
    }

    #[test]
    fn ntt_of_constant_is_constant_vector() {
        // The polynomial c (degree 0) evaluates to c at every point.
        let n = 64;
        let t = tables(n);
        let mut a = vec![0u32; n];
        a[0] = 12345;
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x == 12345));
    }

    #[test]
    fn ntt_matches_schoolbook_multiplication() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for n in [8usize, 32, 256] {
            let t = tables(n);
            let q = t.modulus().value();
            let a = random_poly(n, q, &mut rng);
            let b = random_poly(n, q, &mut rng);
            let want = negacyclic_mul_schoolbook(&a, &b, t.modulus());
            let got = t.negacyclic_mul(&a, &b);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // (X^{n-1}) * X = X^n = -1.
        let n = 16;
        let t = tables(n);
        let q = t.modulus().value();
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        a[n - 1] = 1;
        b[1] = 1;
        let prod = t.negacyclic_mul(&a, &b);
        let mut want = vec![0u32; n];
        want[0] = q - 1; // -1 mod q
        assert_eq!(prod, want);
    }

    #[test]
    fn linearity_of_ntt() {
        let n = 128;
        let t = tables(n);
        let q = t.modulus().value();
        let m = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = random_poly(n, q, &mut rng);
        let b = random_poly(n, q, &mut rng);
        let sum: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let mut fa = a;
        let mut fb = b;
        let mut fsum = sum;
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fsum);
        let fadd: Vec<u32> = fa.iter().zip(&fb).map(|(&x, &y)| m.add(x, y)).collect();
        assert_eq!(fsum, fadd, "NTT(a+b) == NTT(a) + NTT(b)");
    }

    #[test]
    // Slot `i` both indexes the output and names its evaluation point.
    #[allow(clippy::needless_range_loop)]
    fn ntt_is_evaluation_at_odd_psi_powers() {
        // Pin the domain convention: forward NTT output in bit-reversed
        // order corresponds to evaluations at psi^{2*bitrev(i)+1}. We verify
        // through direct evaluation on a small ring.
        let n = 8usize;
        let t = tables(n);
        let m = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = random_poly(n, m.value(), &mut rng);
        let mut f = a.clone();
        t.forward(&mut f);
        let log_n = n.trailing_zeros();
        for i in 0..n {
            let exp = 2 * bit_reverse(i, log_n) as u64 + 1;
            let point = m.pow(t.psi(), exp);
            let mut val = 0u32;
            let mut x_pow = 1u32;
            for &c in &a {
                val = m.add(val, m.mul(c, x_pow));
                x_pow = m.mul(x_pow, point);
            }
            assert_eq!(f[i], val, "evaluation mismatch at slot {i}");
        }
    }

    #[test]
    fn lazy_kernels_are_bit_exact_with_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for log_n in [4u32, 8, 11] {
            let n = 1usize << log_n;
            let t = tables(n);
            let q = t.modulus().value();
            assert!(q < 1 << 30, "paper moduli take the lazy path");
            let a = random_poly(n, q, &mut rng);
            let mut lazy = a.clone();
            let mut strict = a.clone();
            t.forward(&mut lazy);
            t.forward_reference(&mut strict);
            assert_eq!(lazy, strict, "forward n={n}");
            t.inverse(&mut lazy);
            t.inverse_reference(&mut strict);
            assert_eq!(lazy, strict, "inverse n={n}");
            assert_eq!(lazy, a, "roundtrip n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "not NTT-friendly")]
    fn rejects_unfriendly_modulus() {
        // 999983 is prime but 999982 = 2 * 499991 lacks 2^11 as a factor.
        NttTables::new(1024, Modulus::new(999_983));
    }
}
