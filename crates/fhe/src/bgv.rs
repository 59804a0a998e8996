//! The BGV scheme (§2.2): encryption, homomorphic operations, modulus
//! switching and noise measurement.
//!
//! Conventions: a ciphertext is `(a, b)` with `b = a*s + t*e + m (mod Q_l)`;
//! decryption recovers `e' = b - a*s` centered mod `Q_l`, then `m = e' mod
//! t`. Homomorphic multiplication tensors and key-switches exactly as
//! §2.2.1 describes; homomorphic permutation applies the automorphism to
//! both polynomials and key-switches `σ_k(a)`. Every key-switch is GHS
//! ([`GhsHint`]), the one pass 1 of the compiler expands. The RLWE
//! arithmetic is the shared [`crate::rlwe`] core; this module adds `t`,
//! the correction factor and the plaintext encoding.

use crate::keys::SecretKey;
use crate::keyswitch::{GhsHint, KsScratch};
use crate::params::BgvParams;
use crate::rlwe::{HintSet, Rlwe};
use f1_poly::crt;
use f1_poly::rns::RnsPoly;
use rand::Rng;
use std::borrow::Cow;

/// A BGV plaintext: `N` coefficients modulo `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    t: u64,
    coeffs: Vec<u64>,
}

impl Plaintext {
    /// Builds a plaintext from (not necessarily reduced) coefficients;
    /// missing positions are zero.
    pub fn from_coeffs(params: &BgvParams, coeffs: &[u64]) -> Self {
        assert!(coeffs.len() <= params.n);
        let mut c = vec![0u64; params.n];
        for (dst, &src) in c.iter_mut().zip(coeffs) {
            *dst = src % params.plaintext_modulus;
        }
        Self { t: params.plaintext_modulus, coeffs: c }
    }

    /// The plaintext modulus.
    pub fn modulus(&self) -> u64 {
        self.t
    }

    /// Coefficient `i`.
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs[i]
    }

    /// All coefficients.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Negacyclic product of two plaintexts (mod t), the expected result
    /// of a homomorphic multiplication.
    pub fn ring_mul(&self, other: &Self) -> Self {
        assert_eq!(self.t, other.t);
        let n = self.coeffs.len();
        let mut out = vec![0i128; n];
        for i in 0..n {
            if self.coeffs[i] == 0 {
                continue;
            }
            for j in 0..n {
                let p = self.coeffs[i] as i128 * other.coeffs[j] as i128;
                if i + j < n {
                    out[i + j] += p;
                } else {
                    out[i + j - n] -= p;
                }
            }
        }
        let t = self.t as i128;
        Self { t: self.t, coeffs: out.iter().map(|&x| x.rem_euclid(t) as u64).collect() }
    }

    /// Element-wise sum mod t.
    pub fn ring_add(&self, other: &Self) -> Self {
        assert_eq!(self.t, other.t);
        Self {
            t: self.t,
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| (a + b) % self.t)
                .collect(),
        }
    }
}

/// A BGV ciphertext: an [`Rlwe`] pair in NTT form at some level, plus its
/// plaintext bookkeeping.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// The `(a, b)` pair.
    pub rlwe: Rlwe,
    /// Plaintext correction factor `F`: the raw decryption equals
    /// `F * m (mod t)`. Modulus switching multiplies the embedded plaintext
    /// by `q_top^{-1} mod t`, so `F` accumulates those factors (SEAL-style
    /// bookkeeping); [`KeySet::decrypt`] divides it back out.
    pub correction: u64,
    /// The plaintext modulus `t` (carried so correction arithmetic is
    /// self-contained).
    pub pt_modulus: u64,
}

impl Ciphertext {
    /// Current level (number of RNS limbs).
    pub fn level(&self) -> usize {
        self.rlwe.level()
    }

    /// `rlwe` with this ciphertext's correction factor and plaintext
    /// modulus.
    pub(crate) fn with(&self, rlwe: Rlwe) -> Self {
        Self { rlwe, correction: self.correction, pt_modulus: self.pt_modulus }
    }
}

/// Key material: the secret key plus its [`HintSet`].
///
/// This struct is what workloads hand to the compiler to size hint
/// traffic. Every hint is a [`GhsHint`] over the parameter set's `K = L`
/// special primes.
pub struct KeySet {
    params: BgvParams,
    sk: SecretKey,
    hints: HintSet,
}

impl KeySet {
    /// Generates a key set (no rotation hints yet; see
    /// [`KeySet::add_rotation_hint`]).
    pub fn generate(params: &BgvParams, rng: &mut impl Rng) -> Self {
        let sk = SecretKey::generate(params.context(), rng);
        Self::from_secret_key(params, sk, rng)
    }

    /// Builds hints for an existing secret key (bootstrapping shares the
    /// secret key between the base scheme and the boot plaintext space).
    pub fn from_secret_key(params: &BgvParams, sk: SecretKey, rng: &mut impl Rng) -> Self {
        let (l, t) = (params.max_level, params.plaintext_modulus);
        let hints = HintSet::generate(&sk, l, t, params.error_eta, rng);
        Self { params: params.clone(), sk, hints }
    }

    /// The parameter set.
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// The secret key (client-side material; bootstrapping setup needs it
    /// to build the encrypted key).
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// The key-switch hints.
    pub fn hints(&self) -> &HintSet {
        &self.hints
    }

    /// The relinearization hint (for homomorphic multiplication): it
    /// targets `s²`.
    pub fn relin_hint(&self) -> &GhsHint {
        self.hints.relin()
    }

    /// Generates and caches the hint for automorphism exponent `k`.
    ///
    /// The hint targets `-σ_k(s)`, pass 1's convention, so
    /// [`Ciphertext::automorphism`] key-switches `σ_k(a)` as it is.
    pub fn add_rotation_hint(&mut self, k: usize, rng: &mut impl Rng) {
        self.hints.add_rotation(&self.sk, k, rng);
    }

    /// The hint for automorphism exponent `k`.
    ///
    /// # Panics
    ///
    /// Panics if the hint was never generated.
    pub fn rotation_hint(&self, k: usize) -> &GhsHint {
        self.hints.rotation(k)
    }

    /// Symmetric encryption at the top level: `ct = (a, a*s + t*e + m)`.
    pub fn encrypt(&self, m: &Plaintext, rng: &mut impl Rng) -> Ciphertext {
        self.encrypt_at_level(m, self.params.max_level, rng)
    }

    /// Symmetric encryption at a chosen level.
    pub fn encrypt_at_level(&self, m: &Plaintext, level: usize, rng: &mut impl Rng) -> Ciphertext {
        let t = self.params.plaintext_modulus;
        let mut rlwe = Rlwe::encrypt_zero(&self.sk, level, t, self.params.error_eta, rng);
        rlwe.b.add_assign(&plaintext_to_poly(m, level, &self.params).to_ntt());
        Ciphertext { rlwe, correction: 1, pt_modulus: t }
    }

    /// Decrypts a ciphertext (using the plaintext modulus the ciphertext
    /// carries, which bootstrapping changes mid-pipeline).
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let t = ct.pt_modulus;
        let f_inv = inv_mod(ct.correction % t, t);
        let raw = raw_plaintext(&ct.rlwe.phase(&self.sk), t);
        Plaintext { t, coeffs: raw.coeffs.iter().map(|&c| mul_mod_u64(c, f_inv, t)).collect() }
    }

    /// Measures the true noise magnitude `log2 |b - a*s - m|`, the ground
    /// truth the static bound [`crate::noise::NoiseModel`] must dominate.
    pub fn decrypt_noise(&self, ct: &Ciphertext) -> f64 {
        let phase = ct.rlwe.phase(&self.sk);
        let m_raw = raw_plaintext(&phase, ct.pt_modulus);
        crt::log2_infinity_norm(&phase.sub(&plaintext_to_poly(&m_raw, ct.level(), &self.params)))
    }

    /// Measured noise budget in bits: `log2(Q_l/2) - decrypt_noise(ct)`.
    /// Decryption fails when this reaches zero (§2.2.2).
    pub fn noise_budget_bits(&self, ct: &Ciphertext) -> f64 {
        let ctx = ct.rlwe.a.context();
        let log2_q: f64 = (0..ct.level()).map(|j| f64::from(ctx.modulus(j).value()).log2()).sum();
        log2_q - 1.0 - self.decrypt_noise(ct)
    }
}

/// The centered `phase` (coefficient form) mod `t`: the plaintext times
/// the ciphertext's correction factor.
fn raw_plaintext(phase: &RnsPoly, t: u64) -> Plaintext {
    let centered = crt::reconstruct_centered(phase);
    Plaintext { t, coeffs: centered.iter().map(|c| crt::centered_mod_small(c, t)).collect() }
}

/// Lifts a plaintext into an RNS polynomial with centered coefficients.
fn plaintext_to_poly(m: &Plaintext, level: usize, params: &BgvParams) -> RnsPoly {
    let t = m.t as i64;
    let signed: Vec<i64> =
        m.coeffs.iter().map(|&c| if c as i64 > t / 2 { c as i64 - t } else { c as i64 }).collect();
    RnsPoly::from_signed_coeffs(params.context(), level, &signed)
}

impl Ciphertext {
    /// Homomorphic addition (pure polynomial adds, §2.2.1).
    ///
    /// If the two operands carry different correction factors (e.g. one
    /// was modulus-switched and the other freshly encrypted), the other
    /// operand is scaled by the factor ratio first.
    pub fn add(&self, other: &Self) -> Self {
        self.with(self.rlwe.add(&other.aligned_to(self)))
    }

    /// Negation (the plaintext negates; noise magnitude is unchanged).
    pub fn neg(&self) -> Self {
        self.with(self.rlwe.neg())
    }

    /// Exactly divides the embedded plaintext by `2^k`, reducing the
    /// declared plaintext modulus from `t` to `t / 2^k`.
    ///
    /// Valid only when the ciphertext phase is divisible by `2^k` as an
    /// integer (e.g. after the bootstrap trace multiplies the value by
    /// `N = 2^ν`): multiplying both polynomials by `2^{-k} mod Q` then
    /// yields the small quotient exactly. The noise divides along with the
    /// value.
    pub fn exact_divide_pow2(&self, k: u32, new_params: &BgvParams) -> Self {
        assert_eq!(
            self.pt_modulus >> k,
            new_params.plaintext_modulus,
            "target plaintext modulus must be t / 2^k"
        );
        Self {
            rlwe: self.rlwe.divide_pow2(k),
            correction: self.correction % new_params.plaintext_modulus,
            pt_modulus: new_params.plaintext_modulus,
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.with(self.rlwe.sub(&other.aligned_to(self)))
    }

    /// This ciphertext's pair, rescaled so its correction factor matches
    /// `target`'s: a multiply by the centered representative of
    /// `F_target / F_self (mod t)`, which turns an `F_self`-corrected
    /// ciphertext into an `F_target`-corrected one.
    fn aligned_to(&self, target: &Self) -> Cow<'_, Rlwe> {
        if self.correction == target.correction {
            return Cow::Borrowed(&self.rlwe);
        }
        let t = self.pt_modulus;
        let ratio = mul_mod_u64(target.correction, inv_mod(self.correction % t, t), t);
        let centered = if ratio > t / 2 { ratio as i64 - t as i64 } else { ratio as i64 };
        Cow::Owned(self.rlwe.mul_int(centered))
    }

    /// Adds an unencrypted plaintext (cheap, §2.1). The plaintext is
    /// pre-scaled by this ciphertext's correction factor.
    pub fn add_plain(&self, m: &Plaintext, params: &BgvParams) -> Self {
        let t = params.plaintext_modulus;
        let f = self.correction % t;
        let scaled: Vec<u64> = m.coeffs().iter().map(|&c| mul_mod_u64(c, f, t)).collect();
        let m_f = Plaintext { t, coeffs: scaled };
        let mp = plaintext_to_poly(&m_f, self.level(), params).to_ntt();
        self.with(Rlwe { a: self.rlwe.a.clone(), b: self.rlwe.b.add(&mp) })
    }

    /// Multiplies by an unencrypted plaintext (both polynomials scale;
    /// noise grows by the plaintext magnitude — the "cheaper" unencrypted
    /// operand multiply of §2.1).
    pub fn mul_plain(&self, m: &Plaintext, params: &BgvParams) -> Self {
        self.with(self.rlwe.mul_poly(&plaintext_to_poly(m, self.level(), params).to_ntt()))
    }

    /// Homomorphic multiplication: tensor + key-switch (§2.2.1, see
    /// [`Rlwe::mul`]). One-shot arena; programs evaluating many
    /// multiplies should hold a [`KsScratch`] and call
    /// [`Ciphertext::mul_with_scratch`].
    pub fn mul(&self, other: &Self, relin: &GhsHint) -> Self {
        self.mul_with_scratch(other, relin, &mut KsScratch::default())
    }

    /// Homomorphic multiplication reusing a caller-held key-switch scratch
    /// arena.
    pub fn mul_with_scratch(&self, other: &Self, relin: &GhsHint, scratch: &mut KsScratch) -> Self {
        Self {
            rlwe: self.rlwe.mul(&other.rlwe, relin, scratch),
            correction: mul_mod_u64(self.correction, other.correction, self.pt_modulus),
            pt_modulus: self.pt_modulus,
        }
    }

    /// Homomorphic permutation: automorphism on both polynomials followed
    /// by a key-switch of `σ_k(a)` (§2.2.1). `hint` must target `-σ_k(s)`
    /// ([`KeySet::add_rotation_hint`]).
    pub fn automorphism(&self, k: usize, hint: &GhsHint) -> Self {
        self.automorphism_with_scratch(k, hint, &mut KsScratch::default())
    }

    /// [`Ciphertext::automorphism`] reusing a caller-held key-switch arena.
    pub fn automorphism_with_scratch(
        &self,
        k: usize,
        hint: &GhsHint,
        scratch: &mut KsScratch,
    ) -> Self {
        self.with(self.rlwe.automorphism(k, hint, scratch))
    }

    /// BGV modulus switching (§2.2.2), driven by the ciphertext's own
    /// plaintext modulus (bootstrapping changes that modulus
    /// mid-pipeline): rescales from `Q_l` to `Q_{l-1}`, dividing the noise
    /// by `q_l` while preserving `m mod t` ([`Rlwe::mod_switch`]).
    pub fn mod_switch_down(&self) -> Self {
        let l = self.level();
        assert!(l >= 2, "cannot modulus-switch below level 1");
        let t = self.pt_modulus;
        let q_top = self.rlwe.a.context().modulus(l - 1).value() as u64;
        let q_top_inv_t = inv_mod(q_top % t, t);
        Self {
            rlwe: self.rlwe.mod_switch(t),
            correction: mul_mod_u64(self.correction, q_top_inv_t, t),
            pt_modulus: self.pt_modulus,
        }
    }
}

/// `x^{-1} mod m` via the extended Euclidean algorithm.
///
/// # Panics
///
/// Panics if `gcd(x, m) != 1`.
pub(crate) fn inv_mod(x: u64, m: u64) -> u64 {
    let (mut r0, mut r1) = (m as i128, (x % m) as i128);
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    assert_eq!(r0, 1, "inv_mod: arguments not coprime");
    t0.rem_euclid(m as i128) as u64
}

pub(crate) fn mul_mod_u64(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise;
    use rand::SeedableRng;

    fn setup(levels: usize) -> (BgvParams, KeySet, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB61);
        let params = BgvParams::test_small(64, levels);
        let keys = KeySet::generate(&params, &mut rng);
        (params, keys, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (params, keys, mut rng) = setup(3);
        let m = Plaintext::from_coeffs(&params, &[5, 17, 65536, 0, 42]);
        let ct = keys.encrypt(&m, &mut rng);
        assert_eq!(keys.decrypt(&ct), m);
        let budget = keys.noise_budget_bits(&ct);
        assert!(budget > 40.0, "fresh budget: {budget}");
    }

    #[test]
    fn homomorphic_addition() {
        let (params, keys, mut rng) = setup(3);
        let m1 = Plaintext::from_coeffs(&params, &[1, 2, 3]);
        let m2 = Plaintext::from_coeffs(&params, &[10, 20, 65530]);
        let ct = keys.encrypt(&m1, &mut rng).add(&keys.encrypt(&m2, &mut rng));
        assert_eq!(keys.decrypt(&ct), m1.ring_add(&m2));
    }

    #[test]
    fn homomorphic_multiplication() {
        let (params, keys, mut rng) = setup(3);
        let m1 = Plaintext::from_coeffs(&params, &[3, 1]);
        let m2 = Plaintext::from_coeffs(&params, &[5, 0, 2]);
        let ct1 = keys.encrypt(&m1, &mut rng);
        let ct2 = keys.encrypt(&m2, &mut rng);
        let prod = ct1.mul(&ct2, keys.relin_hint());
        assert_eq!(keys.decrypt(&prod), m1.ring_mul(&m2));
    }

    #[test]
    fn multiplication_with_negacyclic_wraparound() {
        let (params, keys, mut rng) = setup(3);
        let mut c1 = vec![0u64; 64];
        c1[63] = 1;
        let mut c2 = vec![0u64; 64];
        c2[1] = 1;
        let m1 = Plaintext::from_coeffs(&params, &c1);
        let m2 = Plaintext::from_coeffs(&params, &c2);
        let prod = keys.encrypt(&m1, &mut rng).mul(&keys.encrypt(&m2, &mut rng), keys.relin_hint());
        // X^63 * X = X^64 = -1 ≡ t-1 mod t.
        let got = keys.decrypt(&prod);
        assert_eq!(got.coeff(0), params.plaintext_modulus - 1);
    }

    #[test]
    fn plain_operations() {
        let (params, keys, mut rng) = setup(2);
        let m = Plaintext::from_coeffs(&params, &[7, 8]);
        let p = Plaintext::from_coeffs(&params, &[3]);
        let ct = keys.encrypt(&m, &mut rng);
        assert_eq!(keys.decrypt(&ct.add_plain(&p, &params)), m.ring_add(&p));
        assert_eq!(keys.decrypt(&ct.mul_plain(&p, &params)), m.ring_mul(&p));
    }

    #[test]
    fn homomorphic_automorphism() {
        let (params, mut keys, mut rng) = setup(3);
        let k = 3usize;
        keys.add_rotation_hint(k, &mut rng);
        let m = Plaintext::from_coeffs(&params, &[1, 2, 3, 4]);
        let ct = keys.encrypt(&m, &mut rng);
        let rotated = ct.automorphism(k, keys.rotation_hint(k));
        let got = keys.decrypt(&rotated);
        // Expected: σ_k applied to the plaintext polynomial mod t.
        let t = params.plaintext_modulus;
        let mut want = vec![0u64; 64];
        for i in 0..64 {
            let j2 = (i * k) % 128;
            let v = m.coeff(i);
            if j2 < 64 {
                want[j2] = (want[j2] + v) % t;
            } else {
                want[j2 - 64] = (want[j2 - 64] + t - v % t) % t;
            }
        }
        assert_eq!(got.coeffs(), &want[..]);
    }

    #[test]
    fn mod_switch_preserves_plaintext_and_cuts_noise() {
        let (params, keys, mut rng) = setup(3);
        let m = Plaintext::from_coeffs(&params, &[11, 22, 33]);
        // Grow the noise first (a fresh ciphertext already sits at the
        // mod-switch rounding floor, so switching it cannot shrink noise —
        // the paper applies mod switching right before multiplications,
        // after noise has accumulated, §2.2.2).
        let ct = keys.encrypt(&m, &mut rng);
        let ct = ct.mul(&ct, keys.relin_hint());
        let m_sq = m.ring_mul(&m);
        let noise_before = keys.decrypt_noise(&ct);
        let switched = ct.mod_switch_down();
        assert_eq!(switched.level(), 2);
        assert_eq!(keys.decrypt(&switched), m_sq);
        let noise_after = keys.decrypt_noise(&switched);
        // Noise must shrink by roughly log2(q_top) ≈ 30 bits, modulo the
        // additive rounding term.
        assert!(
            noise_after < noise_before - 5.0,
            "noise {noise_before:.1} -> {noise_after:.1} did not shrink"
        );
    }

    #[test]
    fn multiplicative_depth_chain() {
        // Square 3 times, mod-switching before each subsequent square
        // (the paper's usage, §2.2.2). The final multiply happens at
        // level 2, leaving level 1 for additions.
        let (params, keys, mut rng) = setup(4);
        let m = Plaintext::from_coeffs(&params, &[2]);
        let mut acc = keys.encrypt(&m, &mut rng);
        let mut expected = 2u64;
        for step in 0..3 {
            if step > 0 {
                acc = acc.mod_switch_down();
            }
            acc = acc.mul(&acc, keys.relin_hint());
            expected = expected * expected % params.plaintext_modulus;
        }
        assert_eq!(acc.level(), 2);
        assert_eq!(keys.decrypt(&acc).coeff(0), expected);
    }

    #[test]
    fn rotation_keyswitch_noise_is_pinned() {
        // One rotation at N = 2^12, L = 4 (K = 4 specials, t = 65537): the
        // BGV twin of `ckks::tests::rotation_keyswitch_precision_is_pinned`.
        // The measured noise is the input's fresh `t·e` (about 2^20),
        // permuted, plus the GHS key-switch's: the hint error divided by
        // `P ≈ Q`, and ModDown's rounding times `t`. This seed reads
        // 2^24.17 (seeds 0x5109..0x510f read 2^24.09 to 2^24.23). The pin
        // 2^25 leaves 0.8 bits, so a key-switch that loses a bit fails
        // here.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5108);
        let params = BgvParams::test_small(1 << 12, 4);
        let mut keys = KeySet::generate(&params, &mut rng);
        let coeffs: Vec<u64> = (0..params.n as u64).map(|i| i * i % 65537).collect();
        let m = Plaintext::from_coeffs(&params, &coeffs);
        let ct = keys.encrypt(&m, &mut rng);
        keys.add_rotation_hint(3, &mut rng);
        let noise = keys.decrypt_noise(&ct.automorphism(3, keys.rotation_hint(3)));
        let model = noise::NoiseModel::bgv(params.n, params.plaintext_modulus, params.error_eta);
        assert!(noise < 25.0, "rotation key-switch noise 2^{noise:.2} (pinned 2^24.17)");
        assert!(noise < model.wc_keyswitch(4), "2^{noise:.1} above the worst-case bound");
    }
}
