//! Static noise bounds (§2.2.2): the formulas the compiler's analyzer
//! interprets programs over, checked against the noise the runtime
//! schemes measure.
//!
//! One static quantity lives here: the **worst-case bound**
//! (`NoiseModel::wc_*`), a sound upper bound on the noise magnitude
//! `|t·e|` (infinity norm of the decryption residue) in the `log2`
//! domain, derived from the centered-binomial error bound `|e| ≤ η` and
//! per-coefficient magnitudes. The compiler's static noise-budget
//! analysis interprets programs over it; the differential proptests in
//! `tests/ir_differential.rs` check the bound dominates the noise
//! measured on the real BGV stack. The only other noise number is that
//! measurement itself, [`crate::bgv::KeySet::decrypt_noise`], which
//! needs the secret key.
//!
//! Only the BGV bounds are validated against a real executor; the CKKS
//! and GSW models follow the same derivation style but are
//! heuristic-grade until those schemes gain functional executors (the
//! analyzer accordingly caps their findings at warning severity).

use crate::params::{CKKS_LIMB_BITS, LIMB_BITS};

/// `log2(2^a + 2^b)` — addition of magnitudes carried in the log domain.
///
/// Tolerates `-inf` (the magnitude of an exactly-zero term, e.g. the
/// noise of an unencrypted operand).
pub fn log2_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if lo == f64::NEG_INFINITY || hi - lo > 64.0 {
        return hi;
    }
    hi + (1.0 + (lo - hi).exp2()).log2()
}

/// Which scheme's recurrences a [`NoiseModel`] uses where the formulas
/// differ (multiplication and level changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseScheme {
    /// BGV: exact integers mod `t`, noise is `|t·e|`.
    Bgv,
    /// CKKS: fixed-point; "noise" is the error under the scale.
    Ckks,
    /// GSW: matrix ciphertexts driving external products.
    Gsw,
}

/// A static noise model: everything the abstract interpreter needs to
/// evaluate per-op noise growth without a key or a ciphertext.
///
/// Limb widths are taken conservatively: generated chain primes of
/// `limb_bits` bits lie in `[2^(limb_bits-1), 2^limb_bits)`, so the model
/// uses `limb_bits - 1` as each limb's guaranteed width when *crediting*
/// modulus (budget, mod-switch reduction) — an under-estimate of capacity
/// and of noise reduction, hence sound in both uses.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Ring dimension `N`.
    pub n: usize,
    /// Bits per RNS limb prime.
    pub limb_bits: u32,
    /// `log2` of the plaintext modulus `t` (BGV), of the scale Δ (CKKS),
    /// or `1` bit (GSW bit plaintexts).
    pub log2_t: f64,
    /// `log2` of the centered-binomial error bound η.
    pub log2_eta: f64,
    /// Scheme selector for the recurrences that differ.
    pub scheme: NoiseScheme,
}

impl NoiseModel {
    /// BGV model for plaintext modulus `t` and error parameter `eta`.
    pub fn bgv(n: usize, t: u64, eta: u32) -> Self {
        Self {
            n,
            limb_bits: LIMB_BITS,
            log2_t: (t as f64).log2(),
            log2_eta: (eta as f64).log2(),
            scheme: NoiseScheme::Bgv,
        }
    }

    /// BGV model at the workload defaults (`t = 65537`, `η = 8`).
    pub fn bgv_default(n: usize) -> Self {
        Self::bgv(n, 65537, 8)
    }

    /// CKKS model at the workload defaults (Δ = 2^25, `η = 4`).
    pub fn ckks(n: usize) -> Self {
        Self {
            n,
            limb_bits: CKKS_LIMB_BITS,
            log2_t: f64::from(CKKS_LIMB_BITS),
            log2_eta: 2.0,
            scheme: NoiseScheme::Ckks,
        }
    }

    /// GSW model (bit plaintexts, BGV-width limbs, `η = 8`).
    pub fn gsw(n: usize) -> Self {
        Self { n, limb_bits: LIMB_BITS, log2_t: 1.0, log2_eta: 3.0, scheme: NoiseScheme::Gsw }
    }

    /// `log2 N`.
    fn log2_n(&self) -> f64 {
        (self.n as f64).log2()
    }

    /// Worst-case ring-convolution expansion in the canonical embedding:
    /// `√N` with a small constant for the sub-Gaussian tail (the
    /// high-probability bound CKKS analyses use; coefficient-domain `N`
    /// would re-count the embedding the scale headroom already pays for).
    fn log2_conv_wc(&self) -> f64 {
        0.5 * self.log2_n() + 3.0
    }

    /// Guaranteed (lower-bound) `log2 Q_l` at `level` limbs.
    pub fn log2_q(&self, level: usize) -> f64 {
        level as f64 * f64::from(self.limb_bits - 1)
    }

    /// Decryption-correctness ceiling at `level`: noise above
    /// `log2(Q_l / 2)` breaks decryption (§2.2.2). The remaining margin
    /// for a node is `budget_bits(level) - noise`.
    pub fn budget_bits(&self, level: usize) -> f64 {
        self.log2_q(level) - 1.0
    }

    /// Bound on fresh-encryption noise: `|t·e| ≤ t·η` (BGV); for CKKS the
    /// raw error plus the `√N`-grade encoding-rounding term.
    pub fn wc_fresh(&self) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv => self.log2_t + self.log2_eta,
            NoiseScheme::Ckks => log2_add(self.log2_eta + 1.0, self.log2_conv_wc()),
            NoiseScheme::Gsw => self.log2_eta + 1.0,
        }
    }

    /// Bound on key-switch additive noise at `level` limbs.
    ///
    /// BGV/GSW: `l · N · 2^limb_bits · t · η`, the noise of a
    /// limb-decomposition key-switch (one hint row per limb, each row's
    /// error `t·e` convolved with a limb-sized digit). GSW's external
    /// product decomposes so. BGV key-switches by GHS with `K = L` special
    /// primes ([`crate::params::BgvParams::new`]), whose noise, the hint
    /// error divided back down by `P ≈ Q` plus ModDown's rounding, is far
    /// below this, so for BGV the bound is sound but loose. CKKS parameter
    /// sets provision GHS-grade special primes too (`P ≥ Q`,
    /// [`crate::params::CkksParams::test_small`]), and there only
    /// `≈ √N·η` survives the rounded division — no digit-width or `t`
    /// term.
    pub fn wc_keyswitch(&self, level: usize) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv | NoiseScheme::Gsw => {
                (level.max(1) as f64).log2()
                    + self.log2_n()
                    + f64::from(self.limb_bits)
                    + self.log2_t
                    + self.log2_eta
            }
            NoiseScheme::Ckks => self.log2_n() + self.log2_eta + 1.0,
        }
    }

    /// Bound on addition of aligned operands: `n_a + n_b + 2t` (the sum
    /// of plaintexts re-centers mod t, absorbing ≤ 2·(t/2) into noise).
    /// CKKS addition is exact on the encoded reals: noises just add.
    pub fn wc_add(&self, a: f64, b: f64) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv | NoiseScheme::Gsw => log2_add(log2_add(a, b), self.log2_t + 1.0),
            NoiseScheme::Ckks => log2_add(a, b),
        }
    }

    /// Bound on adding a runtime plaintext: BGV re-centers mod `t`; CKKS
    /// picks up only the plaintext's encoding-rounding error.
    pub fn wc_add_plain(&self, a: f64) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv | NoiseScheme::Gsw => log2_add(a, self.log2_t),
            NoiseScheme::Ckks => log2_add(a, self.log2_conv_wc()),
        }
    }

    /// Bound on correction-factor alignment: scaling by a centered
    /// factor `|f| ≤ t/2` gives `(t/2)·(n + t/2) + t`.
    pub fn wc_align(&self, a: f64) -> f64 {
        let half_t = self.log2_t - 1.0;
        log2_add(log2_add(a + half_t, 2.0 * half_t), self.log2_t)
    }

    /// Bound on ciphertext multiplication at `level` limbs:
    /// `N·(n_a + t/2)·(n_b + t/2) + t + ks(level)` — the phase product
    /// convolves the full phases (noise plus embedded plaintext), then
    /// the embedded product re-centers mod t, then relinearization adds
    /// its key-switch noise.
    ///
    /// For CKKS this signature has no operand scales to work with, so it
    /// assumes scale Δ on both sides; the analyzer calls the scale-aware
    /// [`NoiseModel::wc_mul_ckks`] directly.
    pub fn wc_mul(&self, a: f64, b: f64, level: usize) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv => {
                let half_t = self.log2_t - 1.0;
                let phases = log2_add(a, half_t) + log2_add(b, half_t);
                log2_add(log2_add(self.log2_n() + phases, self.log2_t), self.wc_keyswitch(level))
            }
            NoiseScheme::Ckks => self.wc_mul_ckks(a, 1, b, 1, level),
            NoiseScheme::Gsw => {
                log2_add(a, b)
                    + self.log2_n()
                    + f64::from(self.limb_bits)
                    + (level.max(1) as f64).log2()
            }
        }
    }

    /// Scale-aware CKKS multiplication bound. Operand scales are in Δ
    /// units ([`crate::params::CkksParams`] discipline: a value at scale
    /// `s` embeds its message at magnitude ≈ `Δ^s`). The product noise is
    /// the cross terms `m_a·e_b + m_b·e_a + e_a·e_b` — the message
    /// product `m_a·m_b` is *not* noise; the margin computation charges
    /// it separately as scale headroom — convolved at `√N` grade, plus
    /// relinearization's key-switch noise.
    pub fn wc_mul_ckks(&self, a: f64, sa: u32, b: f64, sb: u32, level: usize) -> f64 {
        let ma = f64::from(sa) * self.log2_t; // log2 |m_a| ≤ sa·log2 Δ
        let mb = f64::from(sb) * self.log2_t;
        let cross = log2_add(log2_add(ma + b, mb + a), a + b);
        log2_add(self.log2_conv_wc() + cross, self.wc_keyswitch(level))
    }

    /// Bound on plaintext multiplication: `N·(t/2)·(n + t/2) + t`.
    ///
    /// CKKS callers with scale information should use
    /// [`NoiseModel::wc_mul_plain_ckks`]; this signature assumes a Δ-scale
    /// plaintext operand.
    pub fn wc_mul_plain(&self, a: f64) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv | NoiseScheme::Gsw => {
                let half_t = self.log2_t - 1.0;
                log2_add(self.log2_n() + half_t + log2_add(a, half_t), self.log2_t)
            }
            NoiseScheme::Ckks => self.wc_mul_plain_ckks(a, 1, 1),
        }
    }

    /// Scale-aware CKKS plaintext multiplication bound: the ciphertext's
    /// noise scaled by the plaintext magnitude (`Δ^sp`), plus the
    /// ciphertext's message (`Δ^sa`) times the plaintext's sub-unit
    /// encoding-rounding error, both at `√N` convolution grade.
    pub fn wc_mul_plain_ckks(&self, a: f64, sa: u32, sp: u32) -> f64 {
        let mp = f64::from(sp) * self.log2_t;
        let ma = f64::from(sa) * self.log2_t;
        self.log2_conv_wc() + log2_add(mp + a, ma - 1.0)
    }

    /// Bound on an automorphism: the permuted noise plus the key-switch
    /// of the permuted mask — `n + ks(level) + t` for BGV (key-switch
    /// noise is a multiple of `t`), no `t` term for CKKS.
    pub fn wc_aut(&self, a: f64, level: usize) -> f64 {
        match self.scheme {
            NoiseScheme::Bgv | NoiseScheme::Gsw => {
                log2_add(log2_add(a, self.wc_keyswitch(level)), self.log2_t)
            }
            NoiseScheme::Ckks => log2_add(a, self.wc_keyswitch(level)),
        }
    }

    /// Bound on modulus switching from `level`: the noise divides by the
    /// dropped prime (credited at its guaranteed width) and gains the
    /// rounding term from the δ-correction — `t·(N + 2)` for BGV, the
    /// `√N`-grade canonical rounding for CKKS.
    pub fn wc_mod_switch(&self, a: f64, _level: usize) -> f64 {
        let rounding = match self.scheme {
            NoiseScheme::Bgv => self.log2_t + (self.n as f64 + 2.0).log2(),
            NoiseScheme::Ckks => self.log2_conv_wc() - 1.0,
            NoiseScheme::Gsw => (self.n as f64 + 2.0).log2(),
        };
        log2_add(a - f64::from(self.limb_bits - 1), rounding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgv::{KeySet, Plaintext};
    use crate::params::BgvParams;
    use rand::SeedableRng;

    #[test]
    fn log2_add_basics() {
        assert!((log2_add(3.0, 3.0) - 4.0).abs() < 1e-12);
        assert!((log2_add(10.0, f64::NEG_INFINITY) - 10.0).abs() < 1e-12);
        assert!((log2_add(0.0, 10.0) - log2_add(10.0, 0.0)).abs() < 1e-12);
        // Far-apart terms collapse to the max.
        assert_eq!(log2_add(200.0, 1.0), 200.0);
    }

    #[test]
    fn wc_bounds_measured_noise_on_real_bgv() {
        // Spot soundness check against the real scheme at a small ring;
        // the full differential proptest lives in tests/ir_differential.rs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x2015E);
        let n = 64usize;
        let params = BgvParams::test_small(n, 4);
        let keys = KeySet::generate(&params, &mut rng);
        let model = NoiseModel::bgv(n, params.plaintext_modulus, params.error_eta);

        let m1 = Plaintext::from_coeffs(&params, &[7, 65535, 3]);
        let m2 = Plaintext::from_coeffs(&params, &[12345, 1]);
        let c1 = keys.encrypt(&m1, &mut rng);
        let c2 = keys.encrypt(&m2, &mut rng);
        let fresh_wc = model.wc_fresh();
        assert!(fresh_wc >= keys.decrypt_noise(&c1), "fresh bound");

        let sum = c1.add(&c2);
        let sum_wc = model.wc_add(fresh_wc, fresh_wc);
        assert!(sum_wc >= keys.decrypt_noise(&sum), "add bound");

        let prod = c1.mul(&c2, keys.relin_hint());
        let prod_wc = model.wc_mul(fresh_wc, fresh_wc, 4);
        assert!(prod_wc >= keys.decrypt_noise(&prod), "mul bound");

        let down = prod.mod_switch_down();
        let down_wc = model.wc_mod_switch(prod_wc, 4);
        assert!(down_wc >= keys.decrypt_noise(&down), "mod-switch bound");

        let rot = {
            let mut keys = keys;
            keys.add_rotation_hint(3, &mut rng);
            let r = sum.automorphism(3, keys.rotation_hint(3));
            let aut_wc = model.wc_aut(sum_wc, 4);
            assert!(aut_wc >= keys.decrypt_noise(&r), "aut bound");
            r
        };
        drop(rot);
    }

    #[test]
    fn budget_is_conservative_vs_real_chain() {
        // The model's log2_q must under-estimate the real chain width so
        // "fits the budget" statically implies it fits at runtime.
        let params = BgvParams::test_small(64, 6);
        let model = NoiseModel::bgv(64, params.plaintext_modulus, params.error_eta);
        for l in 1..=6usize {
            let real = f64::from(params.context().log_q(l));
            assert!(model.log2_q(l) <= real, "level {l}: model {} > real {real}", model.log2_q(l));
        }
    }
}
