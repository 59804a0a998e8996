//! The BGV scheme (§2.2): encryption, homomorphic operations, modulus
//! switching and noise measurement.
//!
//! Conventions: a ciphertext is `(a, b)` with `b = a*s + t*e + m (mod Q_l)`;
//! decryption recovers `e' = b - a*s` centered mod `Q_l`, then `m = e' mod
//! t`. Homomorphic multiplication tensors and key-switches exactly as
//! §2.2.1 describes; homomorphic permutation applies the automorphism to
//! both polynomials and key-switches `σ_k(a)`. Every key-switch is GHS
//! ([`GhsHint`]), the one pass 1 of the compiler expands.

use crate::keys::SecretKey;
use crate::keyswitch::{GhsHint, KsScratch};
use crate::params::BgvParams;
use f1_modarith::CenteredLift;
use f1_poly::crt;
use f1_poly::rns::{Domain, RnsPoly};
use rand::Rng;
use std::collections::HashMap;

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

/// A BGV ciphertext: `(a, b)` in NTT form at some level, plus its
/// plaintext bookkeeping.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// The `a` polynomial (mask).
    pub a: RnsPoly,
    /// The `b` polynomial (body).
    pub b: RnsPoly,
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
        self.a.level()
    }

    /// Ciphertext size in bytes (2 polynomials).
    pub fn size_bytes(&self) -> usize {
        self.a.size_bytes() + self.b.size_bytes()
    }
}

/// Key material: the secret key plus relinearization and rotation hints.
///
/// Key-switch hints are the dominant working set of FHE programs (§2.4);
/// this struct is what workloads hand to the compiler to size hint traffic.
/// Every hint is a [`GhsHint`] over the parameter set's `K = L` special
/// primes, generated at the top level and valid at every level below it.
pub struct KeySet {
    params: BgvParams,
    sk: SecretKey,
    relin: GhsHint,
    rotation: HashMap<usize, GhsHint>,
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
        let full = params.context().max_level();
        let relin = ghs_hint(params, &sk, &sk.s_squared_at_level(full), rng);
        Self { params: params.clone(), sk, relin, rotation: HashMap::new() }
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

    /// The relinearization hint (for homomorphic multiplication): it
    /// targets `s²`.
    pub fn relin_hint(&self) -> &GhsHint {
        &self.relin
    }

    /// Generates and caches the hint for automorphism exponent `k`.
    ///
    /// The hint targets `-σ_k(s)`, pass 1's convention, so
    /// [`Ciphertext::automorphism`] key-switches `σ_k(a)` as it is.
    pub fn add_rotation_hint(&mut self, k: usize, rng: &mut impl Rng) {
        let full = self.params.context().max_level();
        let target = self.sk.s_automorphism_at_level(k, full).neg();
        self.rotation.insert(k, ghs_hint(&self.params, &self.sk, &target, rng));
    }

    /// The hint for automorphism exponent `k`.
    ///
    /// # Panics
    ///
    /// Panics if the hint was never generated.
    pub fn rotation_hint(&self, k: usize) -> &GhsHint {
        self.rotation
            .get(&k)
            .unwrap_or_else(|| panic!("no rotation hint for k={k}; call add_rotation_hint"))
    }

    /// Symmetric encryption at the top level: `ct = (a, a*s + t*e + m)`.
    pub fn encrypt(&self, m: &Plaintext, rng: &mut impl Rng) -> Ciphertext {
        self.encrypt_at_level(m, self.params.max_level, rng)
    }

    /// Symmetric encryption at a chosen level.
    pub fn encrypt_at_level(&self, m: &Plaintext, level: usize, rng: &mut impl Rng) -> Ciphertext {
        let ctx = self.params.context();
        let t = self.params.plaintext_modulus;
        let mut a = RnsPoly::random_at_level(ctx, level, rng);
        a.ntt_inplace();
        let mut te = RnsPoly::random_error(ctx, level, self.params.error_eta, rng);
        te.mul_scalar_assign(u32::try_from(t).expect("t fits u32"));
        te.ntt_inplace();
        let mut m_poly = plaintext_to_poly(m, level, &self.params);
        m_poly.ntt_inplace();
        let s = self.sk.s_at_level(level);
        let mut b = a.mul(&s);
        b.add_assign(&te);
        b.add_assign(&m_poly);
        Ciphertext { a, b, correction: 1, pt_modulus: t }
    }

    /// Decrypts a ciphertext (using the plaintext modulus the ciphertext
    /// carries, which bootstrapping changes mid-pipeline).
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let l = ct.level();
        let s = self.sk.s_at_level(l);
        let noise_poly = ct.b.sub(&ct.a.mul(&s)).to_coeff();
        let t = ct.pt_modulus;
        let f_inv = inv_mod(ct.correction % t, t);
        let centered = crt::reconstruct_centered(&noise_poly);
        let coeffs: Vec<u64> = centered
            .iter()
            .map(|c| {
                let raw = crt::centered_mod_small(c, t);
                ((raw as u128 * f_inv as u128) % t as u128) as u64
            })
            .collect();
        Plaintext { t, coeffs }
    }

    /// Measures the true noise magnitude `log2 |b - a*s - m|`, the ground
    /// truth the static bound [`crate::noise::NoiseModel`] must dominate.
    pub fn decrypt_noise(&self, ct: &Ciphertext) -> f64 {
        let l = ct.level();
        let s = self.sk.s_at_level(l);
        let m = self.decrypt(ct);
        let t = ct.pt_modulus;
        let raw: Vec<u64> = m
            .coeffs()
            .iter()
            .map(|&c| ((c as u128 * (ct.correction % t) as u128) % t as u128) as u64)
            .collect();
        let m_raw = Plaintext { t, coeffs: raw };
        let m_poly = plaintext_to_poly(&m_raw, l, &self.params);
        let noise = ct.b.sub(&ct.a.mul(&s)).sub(&m_poly.to_ntt()).to_coeff();
        crt::log2_infinity_norm(&noise)
    }

    /// Measured noise budget in bits: `log2(Q_l/2) - decrypt_noise(ct)`.
    /// Decryption fails when this reaches zero (§2.2.2).
    pub fn noise_budget_bits(&self, ct: &Ciphertext) -> f64 {
        let ctx = ct.a.context();
        let log2_q: f64 = (0..ct.level()).map(|j| f64::from(ctx.modulus(j).value()).log2()).sum();
        log2_q - 1.0 - self.decrypt_noise(ct)
    }
}

/// A GHS hint re-encrypting `target` (NTT domain over the whole chain)
/// into `sk`, for ciphertexts up to the top level.
fn ghs_hint(params: &BgvParams, sk: &SecretKey, target: &RnsPoly, rng: &mut impl Rng) -> GhsHint {
    let (l, t) = (params.max_level, params.plaintext_modulus);
    GhsHint::generate(sk, target, l, t, params.error_eta, rng)
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
        let other = other.align_correction_to(self);
        Self {
            a: self.a.add(&other.a),
            b: self.b.add(&other.b),
            correction: self.correction,
            pt_modulus: self.pt_modulus,
        }
    }

    /// Negation (the plaintext negates; noise magnitude is unchanged).
    pub fn neg(&self) -> Self {
        Self {
            a: self.a.neg(),
            b: self.b.neg(),
            correction: self.correction,
            pt_modulus: self.pt_modulus,
        }
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
        let mut a = self.a.clone();
        let mut b = self.b.clone();
        let ctx = self.a.context().clone();
        for j in 0..self.level() {
            let m = ctx.modulus(j);
            let inv = m.inv(m.pow(2, k as u64));
            for poly in [&mut a, &mut b] {
                for x in poly.limb_mut(j).iter_mut() {
                    *x = m.mul(*x, inv);
                }
            }
        }
        Self {
            a,
            b,
            correction: self.correction % new_params.plaintext_modulus,
            pt_modulus: new_params.plaintext_modulus,
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        let other = other.align_correction_to(self);
        Self {
            a: self.a.sub(&other.a),
            b: self.b.sub(&other.b),
            correction: self.correction,
            pt_modulus: self.pt_modulus,
        }
    }

    /// Rescales this ciphertext's embedded plaintext so its correction
    /// factor matches `target`'s (a centered scalar multiply mod t).
    fn align_correction_to(&self, target: &Self) -> Self {
        if self.correction == target.correction {
            return self.clone();
        }
        let t = self.pt_modulus;
        // ratio = F_target / F_self (mod t); scaling raw by ratio turns an
        // F_self-corrected ciphertext into an F_target-corrected one.
        let ratio = ((target.correction as u128 * inv_mod(self.correction % t, t) as u128)
            % t as u128) as u64;
        let scaled = self.scale_raw_mod_t(ratio, t);
        Self { correction: target.correction, ..scaled }
    }

    /// Multiplies both polynomials by the centered representative of
    /// `factor mod t` (used for correction alignment).
    fn scale_raw_mod_t(&self, factor: u64, t: u64) -> Self {
        let f_centered = if factor > t / 2 { factor as i64 - t as i64 } else { factor as i64 };
        let (fr, neg) =
            if f_centered < 0 { ((-f_centered) as u32, true) } else { (f_centered as u32, false) };
        let mut a = self.a.mul_scalar(fr);
        let mut b = self.b.mul_scalar(fr);
        if neg {
            a = a.neg();
            b = b.neg();
        }
        Self { a, b, correction: self.correction, pt_modulus: self.pt_modulus }
    }

    /// Adds an unencrypted plaintext (cheap, §2.1). The plaintext is
    /// pre-scaled by this ciphertext's correction factor.
    pub fn add_plain(&self, m: &Plaintext, params: &BgvParams) -> Self {
        let t = params.plaintext_modulus;
        let f = self.correction % t;
        let scaled: Vec<u64> =
            m.coeffs().iter().map(|&c| ((c as u128 * f as u128) % t as u128) as u64).collect();
        let m_f = Plaintext { t, coeffs: scaled };
        let mp = plaintext_to_poly(&m_f, self.level(), params).to_ntt();
        Self {
            a: self.a.clone(),
            b: self.b.add(&mp),
            correction: self.correction,
            pt_modulus: self.pt_modulus,
        }
    }

    /// Multiplies by an unencrypted plaintext (both polynomials scale;
    /// noise grows by the plaintext magnitude — the "cheaper" unencrypted
    /// operand multiply of §2.1).
    pub fn mul_plain(&self, m: &Plaintext, params: &BgvParams) -> Self {
        let mp = plaintext_to_poly(m, self.level(), params).to_ntt();
        Self {
            a: self.a.mul(&mp),
            b: self.b.mul(&mp),
            correction: self.correction,
            pt_modulus: self.pt_modulus,
        }
    }

    /// Homomorphic multiplication: tensor + key-switch (§2.2.1).
    ///
    /// `ct× = (l2, l1, l0) = (a0a1, a0b1 + a1b0, b0b1)`; `l2` is
    /// key-switched to produce `(u0, u1)` and the result is
    /// `(l1 + u1, l0 + u0)`. One-shot arena; programs evaluating many
    /// multiplies should hold a [`KsScratch`] and call
    /// [`Ciphertext::mul_with_scratch`].
    pub fn mul(&self, other: &Self, relin: &GhsHint) -> Self {
        self.mul_with_scratch(other, relin, &mut KsScratch::default())
    }

    /// Homomorphic multiplication reusing a caller-held key-switch scratch
    /// arena: the tensor products run in place ([`RnsPoly::mul_assign`] /
    /// [`RnsPoly::fma_assign`]), so steady state allocates only the output
    /// ciphertext.
    pub fn mul_with_scratch(&self, other: &Self, relin: &GhsHint, scratch: &mut KsScratch) -> Self {
        let mut l2 = self.a.clone();
        l2.mul_assign(&other.a);
        let (u0, u1) = relin.apply_with_scratch(&l2, scratch);
        // l1 = a0*b1 + a1*b0, then + u1 — fused into one accumulator.
        let mut a = self.a.clone();
        a.mul_assign(&other.b);
        a.fma_assign(&other.a, &self.b);
        a.add_assign(&u1);
        let mut b = self.b.clone();
        b.mul_assign(&other.b);
        b.add_assign(&u0);
        Self {
            a,
            b,
            correction: mul_mod_u64(self.correction, other.correction, self.pt_modulus),
            pt_modulus: self.pt_modulus,
        }
    }

    /// Squares the ciphertext (saves one tensor multiply vs `mul`).
    pub fn square(&self, relin: &GhsHint) -> Self {
        self.mul(self, relin)
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
        // Key-switch σ_k(a) to -σ_k(s): (u0, u1) with u0 - u1*s =
        // -σ(a)σ(s) + tE, so (u1, σ(b) + u0) decrypts to σ(m): b' - a'*s =
        // σ(b) + u0 - u1*s = σ(b) - σ(a)σ(s) + tE = σ(m) + t(σ(e) + E).
        let (u0, u1) = hint.apply_with_scratch(&self.a.automorphism(k), scratch);
        let mut b = self.b.automorphism(k);
        b.add_assign(&u0);
        Self { a: u1, b, correction: self.correction, pt_modulus: self.pt_modulus }
    }

    /// BGV modulus switching (§2.2.2): rescales from `Q_l` to `Q_{l-1}`,
    /// dividing the noise by `q_l` while preserving `m mod t`.
    ///
    /// Per remaining limb `j`: `c'_j = (c_j - δ) * q_l^{-1} mod q_j`, where
    /// `δ ≡ c (mod q_l)`, `δ ≡ 0 (mod t)`, `|δ| <= t*q_l/2`.
    pub fn mod_switch(&self, params: &BgvParams) -> Self {
        debug_assert_eq!(params.plaintext_modulus, self.pt_modulus);
        self.mod_switch_down()
    }

    /// Modulus switching driven by the ciphertext's own plaintext modulus
    /// (bootstrapping changes that modulus mid-pipeline).
    pub fn mod_switch_down(&self) -> Self {
        let l = self.level();
        assert!(l >= 2, "cannot modulus-switch below level 1");
        let t = self.pt_modulus;
        let q_top = self.a.context().modulus(l - 1).value() as u64;
        let q_top_inv_t = inv_mod(q_top % t, t);
        Self {
            a: mod_switch_poly(&self.a, t),
            b: mod_switch_poly(&self.b, t),
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

/// Divide-and-round one polynomial by its top limb prime, preserving the
/// value mod `t` (set `t = 1` for CKKS-style plain rounding; CKKS rescaling
/// reuses this kernel).
pub fn mod_switch_poly(p: &RnsPoly, t: u64) -> RnsPoly {
    let l = p.level();
    let ctx = p.context().clone();
    let top_idx = l - 1;
    let coeff = p.to_coeff();
    let top_m = *ctx.modulus(top_idx);
    let t_inv_top = if t == 1 { 1 } else { top_m.inv((t % top_m.value() as u64) as u32) };
    let mut out = RnsPoly::zero_at_level(&ctx, l - 1);
    let top_limb = coeff.limb(top_idx);
    for j in 0..l - 1 {
        let mj = *ctx.modulus(j);
        let q_top_inv = mj.inv((top_m.value() as u64 % mj.value() as u64) as u32);
        let t_red = (t % mj.value() as u64) as u32;
        let lift = CenteredLift::new(&top_m, &mj);
        let src = coeff.limb(j);
        let dst = out.limb_mut(j);
        for ((d, &s), &top) in dst.iter_mut().zip(src).zip(top_limb) {
            let mu = top_m.mul(top, t_inv_top);
            let delta = mj.mul(lift.lift(mu), t_red);
            *d = mj.mul(mj.sub(s, delta), q_top_inv);
        }
    }
    if p.domain() == Domain::Ntt {
        out.to_ntt()
    } else {
        out
    }
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
        let ct = keys.encrypt(&m, &mut rng).square(keys.relin_hint());
        let m_sq = m.ring_mul(&m);
        let noise_before = keys.decrypt_noise(&ct);
        let switched = ct.mod_switch(&params);
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
                acc = acc.mod_switch(&params);
            }
            acc = acc.square(keys.relin_hint());
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
