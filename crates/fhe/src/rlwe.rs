//! The RLWE core BGV, CKKS and GSW share (§2.5): one set of functional
//! units serves all three because they are built from the same primitives.
//! This module holds the `(a, b)` pair with phase `b - a*s`, its
//! encryption, its limb-wise operations, the key-switched tensor product
//! and automorphism, and the [`HintSet`]. The schemes keep only their own
//! bookkeeping: BGV's correction factor and `t`, CKKS's scale and level
//! alignment, their encoders. Every key-switch follows pass 1 of the
//! compiler (relinearization targets `s²`, a rotation switches `σ_k(a)`
//! with a hint targeting `-σ_k(s)`), so a scheduled program computes these
//! residues bit for bit.

use crate::keys::SecretKey;
use crate::keyswitch::{GhsHint, KsScratch};
use f1_modarith::{slice_ops, CenteredLift, Modulus};
use f1_poly::rns::{Domain, RnsPoly};
use rand::Rng;
use std::collections::HashMap;

/// An RLWE sample `(a, b)` with phase `φ = b - a*s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rlwe {
    /// Mask polynomial (NTT domain).
    pub a: RnsPoly,
    /// Body polynomial (NTT domain).
    pub b: RnsPoly,
}

impl Rlwe {
    /// A trivial (noiseless, unmasked) encryption of `m`: `(0, m)`.
    pub fn trivial(m: &RnsPoly) -> Self {
        assert_eq!(m.domain(), Domain::Ntt);
        Self { a: RnsPoly::zero_ntt_at_level(m.context(), m.level()), b: m.clone() }
    }

    /// A fresh encryption of `m` (NTT domain) under `sk` with error
    /// parameter `eta`: `(a, a*s + e + m)` at `m`'s level.
    pub fn encrypt(m: &RnsPoly, sk: &SecretKey, eta: u32, rng: &mut impl Rng) -> Self {
        let mut ct = Self::encrypt_zero(sk, m.level(), 1, eta, rng);
        ct.b.add_assign(m);
        ct
    }

    /// A fresh encryption of zero at level `l` whose error is scaled by
    /// `t`: `(a, a*s + t*e)`, the one place a mask and an error are drawn
    /// (the mask first). BGV passes its plaintext modulus, CKKS and GSW
    /// `t = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not fit in 32 bits.
    pub fn encrypt_zero(sk: &SecretKey, l: usize, t: u64, eta: u32, rng: &mut impl Rng) -> Self {
        let ctx = sk.context();
        let a = RnsPoly::random_at_level(ctx, l, rng).to_ntt();
        let mut b = RnsPoly::random_error(ctx, l, eta, rng);
        if t != 1 {
            b.mul_scalar_assign(u32::try_from(t).expect("error scale fits u32"));
        }
        b.ntt_inplace();
        b.fma_assign(&a, &sk.s_at_level(l));
        Self { a, b }
    }

    /// Current level (number of RNS limbs).
    pub fn level(&self) -> usize {
        self.a.level()
    }

    /// Size in bytes (2 polynomials).
    pub fn size_bytes(&self) -> usize {
        self.a.size_bytes() + self.b.size_bytes()
    }

    /// The phase `b - a*s` in coefficient form (decryption modulo noise).
    pub fn phase(&self, sk: &SecretKey) -> RnsPoly {
        self.b.sub(&self.a.mul(&sk.s_at_level(self.level()))).to_coeff()
    }

    /// Limb-wise sum.
    pub fn add(&self, other: &Self) -> Self {
        Self { a: self.a.add(&other.a), b: self.b.add(&other.b) }
    }

    /// Limb-wise difference.
    pub fn sub(&self, other: &Self) -> Self {
        Self { a: self.a.sub(&other.a), b: self.b.sub(&other.b) }
    }

    /// Negation (the phase negates).
    pub fn neg(&self) -> Self {
        Self { a: self.a.neg(), b: self.b.neg() }
    }

    /// Both polynomials times the signed integer `c`, reduced per limb.
    pub fn mul_int(&self, c: i64) -> Self {
        self.scale_limbs(|m| m.reduce_i64(c))
    }

    /// Both polynomials times `2^{-k}` per limb: an exact division of the
    /// phase when it is divisible by `2^k` as an integer.
    pub fn divide_pow2(&self, k: u32) -> Self {
        self.scale_limbs(|m| m.inv(m.pow(2, u64::from(k))))
    }

    /// Both polynomials times `c(q_j)` on each limb `j`.
    fn scale_limbs(&self, c: impl Fn(&Modulus) -> u32) -> Self {
        let mut out = self.clone();
        let ctx = self.a.context();
        for j in 0..self.level() {
            let (m, c) = (ctx.modulus(j), c(ctx.modulus(j)));
            slice_ops::scalar_mul_slice(m, out.a.limb_mut(j), c);
            slice_ops::scalar_mul_slice(m, out.b.limb_mut(j), c);
        }
        out
    }

    /// Both polynomials times the NTT-domain polynomial `m` (the
    /// unencrypted-operand multiply of §2.1).
    pub fn mul_poly(&self, m: &RnsPoly) -> Self {
        Self { a: self.a.mul(m), b: self.b.mul(m) }
    }

    /// The first `level` limbs of both polynomials.
    pub fn truncate_level(&self, level: usize) -> Self {
        Self { a: self.a.truncate_level(level), b: self.b.truncate_level(level) }
    }

    /// Divides both polynomials by the top limb's prime and rounds,
    /// keeping the value modulo `t`: BGV's modulus switch, and with
    /// `t = 1` CKKS's rescale.
    pub fn mod_switch(&self, t: u64) -> Self {
        Self { a: mod_switch_poly(&self.a, t), b: mod_switch_poly(&self.b, t) }
    }

    /// Homomorphic multiplication: the tensor `(l2, l1, l0) = (a0a1,
    /// a0b1 + a1b0, b0b1)`, then `l2` key-switched by `relin` to `(u0, u1)`,
    /// giving `(l1 + u1, l0 + u0)` (§2.2.1). The products run in place
    /// ([`RnsPoly::mul_assign`] / [`RnsPoly::fma_assign`]) and the
    /// key-switch in `scratch`, so steady state allocates only the output.
    pub fn mul(&self, other: &Self, relin: &GhsHint, scratch: &mut KsScratch) -> Self {
        let mut l2 = self.a.clone();
        l2.mul_assign(&other.a);
        let (u0, u1) = relin.apply_with_scratch(&l2, scratch);
        // l1 = a0*b1 + a1*b0, then + u1, fused into one accumulator.
        let mut a = self.a.clone();
        a.mul_assign(&other.b);
        a.fma_assign(&other.a, &self.b);
        a.add_assign(&u1);
        let mut b = self.b.clone();
        b.mul_assign(&other.b);
        b.add_assign(&u0);
        Self { a, b }
    }

    /// Homomorphic permutation: `σ_k` on both polynomials, then a
    /// key-switch of `σ_k(a)` (§2.2.1). `hint` must target `-σ_k(s)`
    /// ([`HintSet::add_rotation`]).
    pub fn automorphism(&self, k: usize, hint: &GhsHint, scratch: &mut KsScratch) -> Self {
        // (u0, u1) with u0 - u1*s = -σ(a)σ(s) + tE, so (u1, σ(b) + u0) has
        // phase σ(b) - σ(a)σ(s) + tE = σ(φ) + tE.
        let (u0, u1) = hint.apply_with_scratch(&self.a.automorphism(k), scratch);
        let mut b = self.b.automorphism(k);
        b.add_assign(&u0);
        Self { a: u1, b }
    }
}

/// Divide-and-round one polynomial by its top limb prime, preserving the
/// value mod `t` (`t = 1` is plain rounding).
///
/// Per remaining limb `j`: `c'_j = (c_j - δ) * q_l^{-1} mod q_j`, where
/// `δ ≡ c (mod q_l)`, `δ ≡ 0 (mod t)`, `|δ| <= t*q_l/2`.
fn mod_switch_poly(p: &RnsPoly, t: u64) -> RnsPoly {
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

/// The key-switch hints of one secret key: relinearization and rotations.
///
/// Key-switch hints are the dominant working set of FHE programs (§2.4).
/// Every hint is a [`GhsHint`] over the chain's special primes, generated
/// at the top program level `level` with error scale `t` and error
/// parameter `eta`, and valid at every level below it.
#[derive(Debug, Clone)]
pub struct HintSet {
    level: usize,
    t: u64,
    eta: u32,
    relin: GhsHint,
    rotation: HashMap<usize, GhsHint>,
}

impl HintSet {
    /// Generates the relinearization hint of `sk` (no rotation hints yet)
    /// for ciphertexts of up to `level` limbs; the chain's limbs above it
    /// are the special primes. `t` is BGV's plaintext modulus, or 1 for
    /// CKKS.
    pub fn generate(sk: &SecretKey, level: usize, t: u64, eta: u32, rng: &mut impl Rng) -> Self {
        let s2 = sk.s_squared_at_level(sk.context().max_level());
        let relin = GhsHint::generate(sk, &s2, level, t, eta, rng);
        Self { level, t, eta, relin, rotation: HashMap::new() }
    }

    /// The relinearization hint: it targets `s²`.
    pub fn relin(&self) -> &GhsHint {
        &self.relin
    }

    /// Generates and caches the hint for automorphism exponent `k`.
    ///
    /// The hint targets `-σ_k(s)`, pass 1's convention, so
    /// [`Rlwe::automorphism`] key-switches `σ_k(a)` as it is.
    pub fn add_rotation(&mut self, sk: &SecretKey, k: usize, rng: &mut impl Rng) {
        let target = sk.s_automorphism_at_level(k, sk.context().max_level()).neg();
        let hint = GhsHint::generate(sk, &target, self.level, self.t, self.eta, rng);
        self.rotation.insert(k, hint);
    }

    /// The hint for automorphism exponent `k`.
    ///
    /// # Panics
    ///
    /// Panics if the hint was never generated.
    pub fn rotation(&self, k: usize) -> &GhsHint {
        self.rotation
            .get(&k)
            .unwrap_or_else(|| panic!("no rotation hint for k={k}; call add_rotation_hint"))
    }
}
