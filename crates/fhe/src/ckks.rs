//! The CKKS scheme (§2.5): approximate arithmetic on encrypted fixed-point
//! vectors.
//!
//! CKKS encodes `N/2` complex values through the canonical embedding: a
//! plaintext polynomial evaluates to (scaled copies of) the values at the
//! primitive `2N`-th roots of unity. Multiplication rescales by one RNS
//! limb to keep the fixed-point scale bounded — the modulus-switching
//! machinery shared with BGV (`t = 1` rounding). The RLWE arithmetic is
//! the shared [`crate::rlwe`] core; this module adds the scale and the
//! encoder.

use crate::keys::SecretKey;
use crate::keyswitch::{GhsHint, KsScratch};
use crate::params::CkksParams;
use crate::rlwe::{HintSet, Rlwe};
use f1_poly::crt;
use f1_poly::ntt::bit_reverse;
use f1_poly::rns::RnsPoly;
use rand::Rng;
use std::borrow::Cow;

/// A complex number (we avoid external dependencies).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs `re + im*i`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex exponential `e^{i theta}`.
    pub fn cis(theta: f64) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}
impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}
impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}
impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

/// Encoder between complex slot vectors and integer polynomials via the
/// canonical embedding (a floating-point negacyclic FFT with the same
/// merged-ψ structure as the NTT).
#[derive(Debug)]
pub struct CkksEncoder {
    n: usize,
    scale: f64,
    /// Slot j (0..N/2) reads FFT output position `slot_of[j]` (evaluation
    /// exponent 3^j, the orbit indexing that makes σ_3 a slot rotation).
    slot_of: Vec<usize>,
}

impl CkksEncoder {
    /// Builds an encoder for the parameter set.
    pub fn new(params: &CkksParams) -> Self {
        let n = params.n;
        let log_n = n.trailing_zeros();
        let two_n = 2 * n;
        let mut slot_of = Vec::with_capacity(n / 2);
        let mut k = 1usize;
        for _ in 0..n / 2 {
            slot_of.push(bit_reverse((k - 1) / 2, log_n));
            k = (k * 3) % two_n;
        }
        Self { n, scale: params.scale, slot_of }
    }

    /// Forward negacyclic FFT: coefficients -> evaluations at ψ^{2i+1}
    /// (bit-reversed slot order, matching the NTT convention).
    fn fft_forward(&self, a: &mut [Complex]) {
        let n = self.n;
        let mut t = n / 2;
        let mut m = 1usize;
        while m < n {
            for i in 0..m {
                // Twiddle = psi^{bitrev(m+i)} over 2N-th roots.
                let exp = bit_reverse(m + i, (2 * n).trailing_zeros() - 1);
                let w = Complex::cis(std::f64::consts::PI * exp as f64 / n as f64);
                let base = 2 * i * t;
                for j in base..base + t {
                    let u = a[j];
                    let v = a[j + t] * w;
                    a[j] = u + v;
                    a[j + t] = u - v;
                }
            }
            m *= 2;
            t /= 2;
        }
    }

    /// Inverse negacyclic FFT.
    fn fft_inverse(&self, a: &mut [Complex]) {
        let n = self.n;
        let mut t = 1usize;
        let mut m = n / 2;
        while m >= 1 {
            for i in 0..m {
                let exp = bit_reverse(m + i, (2 * n).trailing_zeros() - 1);
                let w = Complex::cis(-std::f64::consts::PI * exp as f64 / n as f64);
                let base = 2 * i * t;
                for j in base..base + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = u + v;
                    a[j + t] = (u - v) * w;
                }
            }
            m /= 2;
            t *= 2;
        }
        let inv_n = 1.0 / n as f64;
        for x in a.iter_mut() {
            *x = *x * inv_n;
        }
    }

    /// Encodes `N/2` complex values into an integer polynomial scaled by Δ.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub fn encode(
        &self,
        values: &[Complex],
        ctx: &std::sync::Arc<f1_poly::rns::RnsContext>,
        level: usize,
    ) -> RnsPoly {
        self.encode_with_scale(values, ctx, level, self.scale)
    }

    /// Encodes with an explicit scale (bootstrapping encodes its input at
    /// a scale far below `q_1`).
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub fn encode_with_scale(
        &self,
        values: &[Complex],
        ctx: &std::sync::Arc<f1_poly::rns::RnsContext>,
        level: usize,
        scale: f64,
    ) -> RnsPoly {
        assert!(values.len() <= self.n / 2, "too many slots");
        let mut evals = vec![Complex::default(); self.n];
        let log_n = self.n.trailing_zeros();
        // Fill the orbit slots and their conjugate mirrors. The conjugate
        // of evaluation exponent k sits at exponent 2N-k.
        let two_n = 2 * self.n;
        let mut k = 1usize;
        for j in 0..self.n / 2 {
            let v = values.get(j).copied().unwrap_or_default();
            evals[self.slot_of[j]] = v;
            let conj_slot = bit_reverse((two_n - k - 1) / 2, log_n);
            evals[conj_slot] = v.conj();
            k = (k * 3) % two_n;
        }
        self.fft_inverse(&mut evals);
        let coeffs: Vec<i64> = evals
            .iter()
            .map(|c| {
                debug_assert!(c.im.abs() < 1e-3, "conjugate symmetry violated: {}", c.im);
                (c.re * scale).round() as i64
            })
            .collect();
        RnsPoly::from_signed_coeffs(ctx, level, &coeffs)
    }

    /// Decodes a coefficient-domain polynomial (with the given scale) back
    /// into complex slot values.
    pub fn decode(&self, p: &RnsPoly, scale: f64) -> Vec<Complex> {
        let centered = crt::reconstruct_centered(p);
        let mut a: Vec<Complex> = centered
            .iter()
            .map(|(neg, mag)| {
                let v = mag.to_f64();
                Complex::new(if *neg { -v } else { v }, 0.0)
            })
            .collect();
        self.fft_forward(&mut a);
        (0..self.n / 2).map(|j| a[self.slot_of[j]] * (1.0 / scale)).collect()
    }

    /// The automorphism exponent rotating slots by `amount` (`3^amount`).
    pub fn rotation_exponent(&self, amount: usize) -> usize {
        f1_poly::automorphism::rotation_exponent(amount, self.n)
    }
}

/// A CKKS ciphertext: an [`Rlwe`] pair plus the fixed-point scale.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// The `(a, b)` pair.
    pub rlwe: Rlwe,
    /// Fixed-point scale Δ of the embedded values.
    pub scale: f64,
}

impl Ciphertext {
    /// Current level.
    pub fn level(&self) -> usize {
        self.rlwe.level()
    }
}

/// CKKS key material: the secret key, its [`HintSet`] and the encoder.
pub struct KeySet {
    params: CkksParams,
    encoder: CkksEncoder,
    sk: SecretKey,
    hints: HintSet,
}

impl KeySet {
    /// Generates keys (relinearization hint included).
    ///
    /// Like BGV, CKKS key-switches by GHS: its noise is divided back down
    /// by `P`, while Listing 1's digit decomposition would add `q`-sized
    /// noise, which a CKKS payload at scale Δ ≈ q cannot absorb (§2.4).
    pub fn generate(params: &CkksParams, rng: &mut impl Rng) -> Self {
        let sk = SecretKey::generate(params.context(), rng);
        let hints = HintSet::generate(&sk, params.max_level, 1, params.error_eta, rng);
        Self { params: params.clone(), encoder: CkksEncoder::new(params), sk, hints }
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The slot encoder.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// The key-switch hints.
    pub fn hints(&self) -> &HintSet {
        &self.hints
    }

    /// The relinearization hint.
    pub fn relin_hint(&self) -> &GhsHint {
        self.hints.relin()
    }

    /// Generates and caches the hint for automorphism exponent `k`.
    ///
    /// The hint targets `-σ_k(s)`, pass 1's convention, as BGV's does, so
    /// [`Ciphertext::automorphism`] key-switches `σ_k(a)` as it is.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set has no special primes.
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

    /// Encrypts complex slot values at the top level.
    pub fn encrypt(&self, values: &[Complex], rng: &mut impl Rng) -> Ciphertext {
        self.encrypt_at_level(values, self.params.max_level, rng)
    }

    /// Encrypts at a chosen level.
    pub fn encrypt_at_level(
        &self,
        values: &[Complex],
        level: usize,
        rng: &mut impl Rng,
    ) -> Ciphertext {
        let ctx = self.params.context();
        let m = self.encoder.encode(values, ctx, level).to_ntt();
        self.encrypt_poly(&m, level, self.params.scale, rng)
    }

    /// Encrypts an already-encoded polynomial (NTT domain, at `level`)
    /// with a given scale — the entry point bootstrapping uses.
    pub fn encrypt_poly(
        &self,
        m: &RnsPoly,
        level: usize,
        scale: f64,
        rng: &mut impl Rng,
    ) -> Ciphertext {
        assert_eq!(m.level(), level, "plaintext level");
        Ciphertext { rlwe: Rlwe::encrypt(m, &self.sk, self.params.error_eta, rng), scale }
    }

    /// Decrypts to complex slot values.
    pub fn decrypt(&self, ct: &Ciphertext) -> Vec<Complex> {
        self.encoder.decode(&ct.rlwe.phase(&self.sk), ct.scale)
    }
}

impl Ciphertext {
    /// Homomorphic addition (scales must match; levels are aligned by
    /// truncation).
    ///
    /// # Panics
    ///
    /// Panics if the operand scales differ by more than 0.01%.
    pub fn add(&self, other: &Self) -> Self {
        self.combine(other, Rlwe::add)
    }

    /// Homomorphic subtraction (same conditions as [`Ciphertext::add`]).
    pub fn sub(&self, other: &Self) -> Self {
        self.combine(other, Rlwe::sub)
    }

    /// `op` on the level-aligned pairs of two ciphertexts of one scale.
    fn combine(&self, other: &Self, op: fn(&Rlwe, &Rlwe) -> Rlwe) -> Self {
        let (s, o) = (self.scale, other.scale);
        assert!((s / o - 1.0).abs() < 1e-4, "scale mismatch: {s} vs {o}");
        let (x, y) = self.aligned(other);
        Self { rlwe: op(&x.rlwe, &y.rlwe), scale: self.scale }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self { rlwe: self.rlwe.neg(), scale: self.scale }
    }

    /// Homomorphic multiplication: tensor, relinearize ([`Rlwe::mul`]),
    /// then rescale by the top limb (scale becomes `Δ² / q_top`). Operands
    /// at different levels are aligned by truncating the deeper one.
    /// One-shot arena; see [`Ciphertext::mul_with_scratch`].
    pub fn mul(&self, other: &Self, relin: &GhsHint) -> Self {
        self.mul_with_scratch(other, relin, &mut KsScratch::default())
    }

    /// [`Ciphertext::mul`] reusing a caller-held key-switch arena.
    pub fn mul_with_scratch(&self, other: &Self, relin: &GhsHint, scratch: &mut KsScratch) -> Self {
        let (x, y) = self.aligned(other);
        Self { rlwe: x.rlwe.mul(&y.rlwe, relin, scratch), scale: x.scale * y.scale }.rescale()
    }

    /// Adds the real constant `c` (broadcast to every slot) at this
    /// ciphertext's scale: the constant polynomial `round(c * scale)` is
    /// added to every NTT slot of `b`.
    pub fn add_const(&self, c: f64) -> Self {
        let v = (c * self.scale).round() as i64;
        let mut out = self.clone();
        let b = &mut out.rlwe.b;
        for j in 0..b.level() {
            let m = *b.context().modulus(j);
            let vr = m.reduce_i64(v);
            for x in b.limb_mut(j).iter_mut() {
                *x = m.add(*x, vr);
            }
        }
        out
    }

    /// Multiplies by an unencrypted (already encoded, NTT-domain) plaintext
    /// polynomial with the given scale, then rescales.
    pub fn mul_plain(&self, m: &RnsPoly, m_scale: f64) -> Self {
        Self { rlwe: self.rlwe.mul_poly(m), scale: self.scale * m_scale }.rescale()
    }

    /// Multiplies by a real scalar by scaling the encoded values (the
    /// scalar is absorbed into integer multiplication at the current
    /// scale), then rescales.
    pub fn mul_scalar_f64(&self, s: f64, scale: f64) -> Self {
        let rlwe = self.rlwe.mul_int((s * scale).round() as i64);
        Self { rlwe, scale: self.scale * scale }.rescale()
    }

    /// Exactly divides the phase by `2^k` via multiplication with
    /// `2^{-k} mod Q` on every limb. Valid only when the phase is
    /// divisible by `2^k` as an integer (e.g. after the bootstrap trace
    /// multiplies it by `N`); unlike a rescale this keeps `q_0·I`
    /// structure exact, consumes no level, and leaves the scale declared
    /// unchanged (the *value* divides by `2^k`).
    pub fn exact_divide_pow2(&self, k: u32) -> Self {
        Self { rlwe: self.rlwe.divide_pow2(k), scale: self.scale }
    }

    /// Rescales by the top RNS limb: divides values (and the scale) by
    /// `q_top` — CKKS's modulus-switching (§2.5 "forgoing" note: B/FV
    /// skips this; CKKS embraces it).
    pub fn rescale(&self) -> Self {
        let q_top = self.rlwe.a.context().modulus(self.level() - 1).value() as f64;
        Self { rlwe: self.rlwe.mod_switch(1), scale: self.scale / q_top }
    }

    /// Both operands at the lower of their levels: the deeper one is
    /// truncated, an operand already at that level is borrowed as is.
    fn aligned<'a>(&'a self, other: &'a Self) -> (Cow<'a, Self>, Cow<'a, Self>) {
        let l = self.level().min(other.level());
        let at_l = |c: &'a Self| {
            if c.level() == l {
                Cow::Borrowed(c)
            } else {
                Cow::Owned(Self { rlwe: c.rlwe.truncate_level(l), scale: c.scale })
            }
        };
        (at_l(self), at_l(other))
    }

    /// Homomorphic slot rotation via `σ_k` + key-switch of `σ_k(a)`
    /// ([`Rlwe::automorphism`]); `hint` must target `-σ_k(s)` (see
    /// [`KeySet::add_rotation_hint`]).
    pub fn automorphism(&self, k: usize, hint: &GhsHint) -> Self {
        let rlwe = self.rlwe.automorphism(k, hint, &mut KsScratch::default());
        Self { rlwe, scale: self.scale }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn setup(levels: usize) -> (CkksParams, KeySet, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCC5);
        let params = CkksParams::test_small(64, levels);
        let keys = KeySet::generate(&params, &mut rng);
        (params, keys, rng)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (params, keys, _) = setup(3);
        let vals: Vec<Complex> =
            (0..32).map(|j| Complex::new(j as f64 / 7.0, -(j as f64) / 11.0)).collect();
        let p = keys.encoder().encode(&vals, params.context(), 3);
        let back = keys.encoder().decode(&p, params.scale);
        for (a, b) in back.iter().zip(&vals) {
            assert!(close(*a, *b, 1e-4), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (_params, keys, mut rng) = setup(3);
        let vals: Vec<Complex> = (0..32).map(|j| Complex::new(1.5 * j as f64, 0.25)).collect();
        let ct = keys.encrypt(&vals, &mut rng);
        let got = keys.decrypt(&ct);
        for (a, b) in got.iter().zip(&vals) {
            assert!(close(*a, *b, 1e-2), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn homomorphic_add_and_mul() {
        let (_params, keys, mut rng) = setup(3);
        let v1: Vec<Complex> = (0..32).map(|j| Complex::new(0.1 * j as f64, 0.0)).collect();
        let v2: Vec<Complex> = (0..32).map(|j| Complex::new(2.0 - 0.05 * j as f64, 0.0)).collect();
        let ct1 = keys.encrypt(&v1, &mut rng);
        let ct2 = keys.encrypt(&v2, &mut rng);
        let sum = keys.decrypt(&ct1.add(&ct2));
        let prod_ct = ct1.mul(&ct2, keys.relin_hint());
        assert_eq!(prod_ct.level(), 2, "mul must rescale one limb away");
        let prod = keys.decrypt(&prod_ct);
        for j in 0..32 {
            assert!(close(sum[j], v1[j] + v2[j], 1e-2));
            assert!(close(prod[j], v1[j] * v2[j], 0.05), "slot {j}: {:?}", prod[j]);
        }
    }

    #[test]
    fn rotation_permutes_slots() {
        let (_params, mut keys, mut rng) = setup(3);
        let vals: Vec<Complex> = (0..32).map(|j| Complex::new(j as f64, 0.0)).collect();
        let ct = keys.encrypt(&vals, &mut rng);
        let k = keys.encoder().rotation_exponent(1);
        keys.add_rotation_hint(k, &mut rng);
        let rot = keys.decrypt(&ct.automorphism(k, keys.rotation_hint(k)));
        // One-position cyclic rotation (either direction, pinned once).
        let fwd: Vec<Complex> = (0..32).map(|j| vals[(j + 1) % 32]).collect();
        let bwd: Vec<Complex> = (0..32).map(|j| vals[(j + 31) % 32]).collect();
        let matches = |target: &[Complex]| rot.iter().zip(target).all(|(a, b)| close(*a, *b, 0.05));
        assert!(matches(&fwd) || matches(&bwd), "rotation result incorrect: {:?}", &rot[..4]);
    }

    #[test]
    fn rotation_keyswitch_precision_is_pinned() {
        // One rotation at N = 2^12, L = 4 (5 specials, scale 2^25). The
        // automorphism permutes the input's noise exactly, so the error
        // against the rotated decryption of the input is the key-switch's
        // alone: ModDown's rounding, which the fast base conversion widens
        // to at most K/2 per coefficient. This seed reads a max slot error
        // of 2.79e-4 (seeds 0x5107..0x510e read 2.66e-4 to 3.28e-4). The
        // bound 4.0e-4 leaves a 1.43x margin, so a conversion change that
        // loses half a bit or more fails here.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5107);
        let params = CkksParams::test_small(1 << 12, 4);
        let mut keys = KeySet::generate(&params, &mut rng);
        let slots = params.n / 2;
        let vals: Vec<Complex> = (0..slots)
            .map(|j| Complex::new((j as f64 * 0.37).sin(), (j as f64 * 0.11).cos()))
            .collect();
        let ct = keys.encrypt(&vals, &mut rng);
        let k = keys.encoder().rotation_exponent(1);
        keys.add_rotation_hint(k, &mut rng);
        let input = keys.decrypt(&ct);
        let rotated = keys.decrypt(&ct.automorphism(k, keys.rotation_hint(k)));
        let err =
            (0..slots).map(|j| (rotated[j] - input[(j + 1) % slots]).abs()).fold(0.0, f64::max);
        assert!(err < 4.0e-4, "rotation key-switch max slot error {err:e} (pinned 2.79e-4)");
    }

    #[test]
    fn scalar_multiplication() {
        let (_params, keys, mut rng) = setup(3);
        let vals: Vec<Complex> = (0..32).map(|j| Complex::new(0.5 + j as f64 * 0.1, 0.0)).collect();
        let ct = keys.encrypt(&vals, &mut rng);
        let scaled = keys.decrypt(&ct.mul_scalar_f64(0.125, keys.params().scale));
        for j in 0..32 {
            assert!(close(scaled[j], vals[j] * 0.125, 1e-2));
        }
    }

    #[test]
    fn depth_two_circuit() {
        let (_params, keys, mut rng) = setup(4);
        let v: Vec<Complex> = (0..32).map(|j| Complex::new(0.9 - 0.02 * j as f64, 0.0)).collect();
        let ct = keys.encrypt(&v, &mut rng);
        let sq = ct.mul(&ct, keys.relin_hint());
        let quad = sq.mul(&sq, keys.relin_hint());
        let got = keys.decrypt(&quad);
        for j in 0..32 {
            let want = v[j] * v[j] * v[j] * v[j];
            assert!(close(got[j], want, 0.1), "slot {j}: {:?} vs {want:?}", got[j]);
        }
    }
}
