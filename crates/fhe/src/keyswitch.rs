//! Key-switching: the dominant FHE kernel (§2.4) in its two variants.
//!
//! Key-switching re-encrypts a polynomial `x` that is implicitly multiplied
//! by some other secret `s'` (e.g. `s²` after a tensor product, `σ_k(s)`
//! after an automorphism) into the original key `s`. It returns `(u0, u1)`
//! with
//!
//! ```text
//!   u0 - u1 * s  =  x * s'  +  t_err * E      (mod Q_l)
//! ```
//!
//! where `t_err` is the plaintext modulus for BGV (so the added noise stays
//! a multiple of `t`) or 1 for CKKS.
//!
//! Two implementations, matching the algorithmic choice the paper's
//! compiler exploits (§2.4, §4.2):
//!
//! * [`DecompHint`] — the RNS-decomposition variant of **Listing 1**:
//!   hints are `L × L` matrices of residue vectors (32 MB at `L = 16`,
//!   `N = 16K` — exactly the paper's example), compute is `L²` NTTs +
//!   `2L²` multiplies + `2L²` adds.
//! * [`GhsHint`] — a GHS-style variant [34, 45] whose hint grows `O(L)`:
//!   one pair of polynomials over the extended basis `Q·P` (`P` a product
//!   of special primes). It needs more compute per limb (basis extension
//!   into the special primes and a rounded division by `P`) but much less
//!   hint traffic, becoming attractive at very large `L` — the tradeoff
//!   §2.4 describes.

use crate::keys::SecretKey;
use f1_modarith::slice_ops;
use f1_poly::rns::{Domain, RnsContext, RnsPoly};
use rand::Rng;
use std::sync::Arc;

/// Reusable scratch buffers for the decomposition key-switch.
///
/// [`DecompHint::apply_with_scratch`] needs two working polynomials: the
/// coefficient-domain copy of the input (`y` in Listing 1) and the lifted
/// digit being accumulated. Holding them in a caller-owned arena means the
/// digit-decomposition inner loop of a whole program reuses one pair of
/// allocations; `Default::default()` starts empty and the buffers are
/// grown (and re-homed to a new context) on first use.
#[derive(Debug, Default)]
pub struct KsScratch {
    /// Coefficient-domain copy of the key-switch input.
    y: Option<RnsPoly>,
    /// The lifted digit polynomial (Listing 1's `xqj` row).
    lifted: Option<RnsPoly>,
}

/// Which key-switch implementation to use (the compiler's choice, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySwitchVariant {
    /// Listing 1: `L²` hints, lowest compute.
    Decomposition,
    /// GHS-style: `O(L)` hints, more compute.
    Ghs,
}

/// Operation counts for one key-switch at level `l`, used by the compiler
/// cost model and by the paper's Listing-1 analysis (`L²` NTTs, `2L²`
/// multiplies, `2L²` adds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySwitchCost {
    /// Number of `N`-point NTT/INTT invocations.
    pub ntts: usize,
    /// Number of element-wise `N`-vector multiplies.
    pub muls: usize,
    /// Number of element-wise `N`-vector adds.
    pub adds: usize,
    /// Hint bytes that must be resident for the operation.
    pub hint_bytes: usize,
}

impl KeySwitchVariant {
    /// The cost of one key-switch at level `l` with ring dimension `n`
    /// (and `k` special primes for the GHS variant).
    pub fn cost(&self, l: usize, k_special: usize, n: usize) -> KeySwitchCost {
        match self {
            // Listing 1: L INTTs for y, L*(L-1) forward NTTs for the lifts,
            // 2L^2 multiplies and 2L^2 adds; hints are 2 * L * L RVecs.
            KeySwitchVariant::Decomposition => KeySwitchCost {
                ntts: l + l * (l - 1),
                muls: 2 * l * l,
                adds: 2 * l * l,
                hint_bytes: 2 * l * l * n * 4,
            },
            // GHS: INTT the l limbs, extend into k specials (l*k NTTs on
            // the lifted limbs... k NTTs per special over the lifted value),
            // 2 (l+k) multiplies for the hint product, then the rounded
            // division by P: per special, (l + k) scalar-multiply-add
            // passes and INTT/NTT pairs to move between domains.
            KeySwitchVariant::Ghs => KeySwitchCost {
                ntts: l + k_special + 2 * (l + k_special),
                muls: 2 * (l + k_special) + 2 * k_special * (l + k_special),
                adds: 2 * (l + k_special) + 2 * k_special * (l + k_special),
                hint_bytes: 2 * (l + k_special) * n * 4,
            },
        }
    }
}

/// The Listing-1 hint: one `(ksh0, ksh1)` row per source limb.
///
/// Row `i` quasi-encrypts `s' * e_i` under `s`, where `e_i` is the CRT
/// idempotent of limb `i` (whose RNS representation is the indicator
/// vector) — truncating rows and limbs therefore yields a correct hint for
/// every lower level, which is how one hint serves the whole program as
/// modulus switching sheds limbs.
#[derive(Debug, Clone)]
pub struct DecompHint {
    level: usize,
    /// The noise multiplier the hint was generated with (t for BGV, 1 for
    /// CKKS); retained for diagnostics and scheduling metadata.
    pub error_scale: u64,
    /// `rows[i] = (ksh0_i, ksh1_i)`, NTT domain, `level` limbs each.
    rows: Vec<(RnsPoly, RnsPoly)>,
}

impl DecompHint {
    /// Generates a hint re-encrypting `target` (e.g. `s²` or `σ_k(s)`, NTT
    /// domain at `level`) into `sk`.
    pub fn generate(
        sk: &SecretKey,
        target: &RnsPoly,
        level: usize,
        error_scale: u64,
        eta: u32,
        rng: &mut impl Rng,
    ) -> Self {
        Self::generate_with(sk, target, level, error_scale, eta, rng, true, true)
    }

    /// Test-isolation constructor: toggles the random mask and the noise
    /// term independently.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn generate_with(
        sk: &SecretKey,
        target: &RnsPoly,
        level: usize,
        error_scale: u64,
        eta: u32,
        rng: &mut impl Rng,
        with_mask: bool,
        with_noise: bool,
    ) -> Self {
        assert_eq!(target.domain(), Domain::Ntt);
        assert_eq!(target.level(), level);
        let ctx = sk.context().clone();
        let s = sk.s_at_level(level);
        let mut rows = Vec::with_capacity(level);
        for i in 0..level {
            let a = if with_mask {
                RnsPoly::random_at_level(&ctx, level, rng).to_ntt()
            } else {
                RnsPoly::zero_ntt_at_level(&ctx, level)
            };
            let e = if with_noise {
                RnsPoly::random_error(&ctx, level, eta, rng)
                    .to_ntt()
                    .mul_scalar(scale_residue(error_scale))
            } else {
                RnsPoly::zero_ntt_at_level(&ctx, level)
            };
            // gadget * target: zero every limb except limb i.
            let mut g_target = target.clone();
            for j in 0..level {
                if j != i {
                    g_target.limb_mut(j).iter_mut().for_each(|x| *x = 0);
                }
            }
            // ksh0 = a*s + t*e + g_i*s', ksh1 = a, so that
            // u0 - u1*s = Σ lift_i*(t*e_i) + x*s'.
            let ksh0 = a.mul(&s).add(&e).add(&g_target);
            rows.push((ksh0, a));
        }
        Self { level, error_scale, rows }
    }

    /// The level the hint was generated at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Read access to hint row `i`: the `(ksh0_i, ksh1_i)` pair (NTT
    /// domain, `level` limbs each). Exposed for benchmarks and traffic
    /// analyses.
    pub fn row(&self, i: usize) -> (&RnsPoly, &RnsPoly) {
        let (r0, r1) = &self.rows[i];
        (r0, r1)
    }

    /// Hint size in bytes when used at level `l`.
    pub fn size_bytes_at(&self, l: usize) -> usize {
        let n = self.rows[0].0.n();
        2 * l * l * n * 4
    }

    /// Applies the key-switch to `x` (NTT domain, level `l <= level`).
    ///
    /// Convenience wrapper over [`DecompHint::apply_with_scratch`] with a
    /// one-shot arena.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in NTT domain or exceeds the hint's level.
    pub fn apply(&self, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        self.apply_with_scratch(x, &mut KsScratch::default())
    }

    /// Applies the key-switch to `x`, reusing `scratch`'s buffers for the
    /// digit-decomposition inner loop.
    ///
    /// This is Listing 1: INTT each limb, lift into the other bases, NTT
    /// back, and multiply-accumulate the hint products — the lift lands in
    /// the scratch arena and the accumulation is fused ([`RnsPoly::fma_assign`]
    /// shape), so steady state allocates only the returned `(u0, u1)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in NTT domain or exceeds the hint's level.
    pub fn apply_with_scratch(&self, x: &RnsPoly, scratch: &mut KsScratch) -> (RnsPoly, RnsPoly) {
        assert_eq!(x.domain(), Domain::Ntt, "key-switch input must be in NTT domain");
        let l = x.level();
        assert!(l <= self.level, "hint level {} below input level {l}", self.level);
        let ctx = x.context().clone();
        // Line 3 of Listing 1: y = [INTT(x[i])], into the scratch arena.
        let y = match &mut scratch.y {
            Some(y) => {
                y.clone_from(x);
                y
            }
            slot => slot.insert(x.clone()),
        };
        y.intt_inplace();
        let lifted = match &mut scratch.lifted {
            Some(p) if Arc::ptr_eq(p.context(), &ctx) => p,
            slot => slot.insert(RnsPoly::zero_at_level(&ctx, l)),
        };
        let mut u0 = RnsPoly::zero_ntt_at_level(&ctx, l);
        let mut u1 = RnsPoly::zero_ntt_at_level(&ctx, l);
        for (i, (row0, row1)) in self.rows.iter().take(l).enumerate() {
            // Lines 7-8: lift limb i into every base (xqj); the j == i case
            // reuses x[i] directly.
            lift_limb_into(y, i, l, &ctx, Some(x), lifted);
            // Lines 9-10: multiply-accumulate against both hint rows. Rows
            // live at the hint's level; reading their first `l` limbs is the
            // truncation that keeps one hint valid for every lower level.
            for j in 0..l {
                let mj = ctx.modulus(j);
                slice_ops::fma_slice(mj, u0.limb_mut(j), lifted.limb(j), row0.limb(j));
                slice_ops::fma_slice(mj, u1.limb_mut(j), lifted.limb(j), row1.limb(j));
            }
        }
        (u0, u1)
    }
}

/// The GHS-style hint: a single row over the extended basis `Q_max * P`.
#[derive(Debug, Clone)]
pub struct GhsHint {
    /// Program level the hint serves (max level).
    level: usize,
    /// Index where special primes start in the chain (= max program level).
    special_start: usize,
    /// Number of special primes `K`.
    special_count: usize,
    error_scale: u64,
    /// `(ksh0, ksh1)` over `special_start + special_count` limbs, NTT.
    ksh0: RnsPoly,
    ksh1: RnsPoly,
}

impl GhsHint {
    /// Generates a GHS hint re-encrypting `target` into `sk`.
    ///
    /// `target` must be given at the *full* chain length (program limbs +
    /// specials); the hint encrypts `P * target` so that the rounded
    /// division by `P` after the product leaves `x * target` plus small
    /// noise.
    ///
    /// # Panics
    ///
    /// Panics if the context has no special primes.
    pub fn generate(
        sk: &SecretKey,
        target_full: &RnsPoly,
        program_level: usize,
        error_scale: u64,
        eta: u32,
        rng: &mut impl Rng,
    ) -> Self {
        let ctx = sk.context().clone();
        let full = ctx.max_level();
        let k = full - program_level;
        assert!(k > 0, "GHS key-switching requires special primes in the chain");
        assert_eq!(target_full.level(), full);
        assert_eq!(target_full.domain(), Domain::Ntt);
        let s = sk.s_at_level(full);
        let a = RnsPoly::random_at_level(&ctx, full, rng).to_ntt();
        let e = RnsPoly::random_error(&ctx, full, eta, rng)
            .to_ntt()
            .mul_scalar(scale_residue(error_scale));
        // P mod each limb: product of the special primes.
        let mut p_target = target_full.clone();
        for j in 0..full {
            let m = ctx.modulus(j);
            let mut p_mod = 1u32;
            for sp in program_level..full {
                p_mod = m.mul(p_mod, (ctx.modulus(sp).value() as u64 % m.value() as u64) as u32);
            }
            for x in p_target.limb_mut(j).iter_mut() {
                *x = m.mul(*x, p_mod);
            }
        }
        // ksh0 = a*s + t*e + P*s', ksh1 = a (same convention as DecompHint).
        let ksh0 = a.mul(&s).add(&e).add(&p_target);
        Self {
            level: program_level,
            special_start: program_level,
            special_count: k,
            error_scale,
            ksh0,
            ksh1: a,
        }
    }

    /// Hint size in bytes when used at level `l`.
    pub fn size_bytes_at(&self, l: usize) -> usize {
        2 * (l + self.special_count) * self.ksh0.n() * 4
    }

    /// Applies the GHS key-switch to `x` (NTT domain, level `l <= level`).
    ///
    /// Pipeline: lift `x` into the special basis, multiply by the hint over
    /// `Q_l * P`, then divide by `P` with `t`-preserving rounding.
    pub fn apply(&self, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        assert_eq!(x.domain(), Domain::Ntt);
        let l = x.level();
        assert!(l <= self.level);
        let ctx = x.context().clone();
        let n = x.n();
        // Lift x into program limbs 0..l plus the specials using the
        // floating-point-assisted RNS base extension (HPS-style): exact for
        // chains far deeper than ours, and O(N * l * (l+K)) word ops — the
        // same arithmetic shape the accelerator executes as vector ops.
        let y = x.to_coeff();
        let lvl_limbs: Vec<usize> =
            (0..l).chain(self.special_start..self.special_start + self.special_count).collect();
        let crt = ctx.crt_level(l);
        // Per-coefficient digits yhat_i = [x_i * (Q/q_i)^{-1}]_{q_i} and the
        // overflow estimate alpha = round(sum yhat_i / q_i), so that
        // x = sum yhat_i * (Q/q_i) - alpha * Q exactly, with x in [0, Q).
        let mut yhat = vec![vec![0u32; n]; l];
        let mut alpha = vec![0u64; n];
        {
            let mut frac = vec![0f64; n];
            for i in 0..l {
                let mi = ctx.modulus(i);
                let inv = crt.q_over_qi_inv[i];
                let qi_f = mi.value() as f64;
                let src = y.limb(i);
                for c in 0..n {
                    let d = mi.mul(src[c], inv);
                    yhat[i][c] = d;
                    frac[c] += d as f64 / qi_f;
                }
            }
            for c in 0..n {
                alpha[c] = frac[c].round() as u64;
            }
        }
        let mut ext_limbs: Vec<Vec<u32>> = Vec::with_capacity(lvl_limbs.len());
        for &j in &lvl_limbs {
            let mj = ctx.modulus(j);
            let w_ij: Vec<u32> =
                (0..l).map(|i| crt.q_over_qi[i].rem_u64(mj.value() as u64) as u32).collect();
            let q_mod_j = crt.q_big.rem_u64(mj.value() as u64) as u32;
            let mut limb = vec![0u32; n];
            for c in 0..n {
                let mut acc = 0u64;
                for i in 0..l {
                    acc += yhat[i][c] as u64 * w_ij[i] as u64 % mj.value() as u64;
                }
                // acc sums l reduced terms (< q_j < 2^31 each) and alpha
                // counts at most l overflow units, so both operands stay
                // < l * 2^31 << 2^63 — reduce_u64's Barrett fast path.
                let pos = mj.reduce_u64(acc);
                let corr = mj.reduce_u64(alpha[c] * q_mod_j as u64);
                limb[c] = mj.sub(pos, corr);
            }
            self.ntt_limb(&ctx, j, &mut limb);
            ext_limbs.push(limb);
        }
        // Multiply by the hint over the extended basis.
        let mut u0_limbs: Vec<Vec<u32>> = Vec::with_capacity(lvl_limbs.len());
        let mut u1_limbs: Vec<Vec<u32>> = Vec::with_capacity(lvl_limbs.len());
        for (pos, &j) in lvl_limbs.iter().enumerate() {
            let m = ctx.modulus(j);
            let h0 = self.ksh0.limb(j);
            let h1 = self.ksh1.limb(j);
            let mut l0 = vec![0u32; n];
            let mut l1 = vec![0u32; n];
            for c in 0..n {
                l0[c] = m.mul(ext_limbs[pos][c], h0[c]);
                l1[c] = m.mul(ext_limbs[pos][c], h1[c]);
            }
            u0_limbs.push(l0);
            u1_limbs.push(l1);
        }
        // Rounded division by P with t-preserving correction, special by
        // special. Work in coefficient domain.
        for limbs in [&mut u0_limbs, &mut u1_limbs] {
            for (pos, &j) in lvl_limbs.iter().enumerate() {
                self.intt_limb(&ctx, j, &mut limbs[pos]);
            }
        }
        let t = self.error_scale;
        for sp in (0..self.special_count).rev() {
            let sp_pos = l + sp;
            let sp_idx = self.special_start + sp;
            let p = ctx.modulus(sp_idx);
            let t_inv_p = if t == 1 { 1 } else { p.inv((t % p.value() as u64) as u32) };
            for limbs in [&mut u0_limbs, &mut u1_limbs] {
                let (head, tail) = limbs.split_at_mut(sp_pos);
                let top = &tail[0];
                for (pos2, limb) in head.iter_mut().enumerate() {
                    let j = if pos2 < l { pos2 } else { self.special_start + (pos2 - l) };
                    let mj = ctx.modulus(j);
                    let p_inv = mj.inv((p.value() as u64 % mj.value() as u64) as u32);
                    let t_red = (t % mj.value() as u64) as u32;
                    for c in 0..top.len() {
                        // delta = t * [top * t^{-1}]_p centered: congruent to
                        // the residue mod p and to 0 mod t.
                        let mu = p.mul(top[c], t_inv_p);
                        let mu_c = p.center(mu);
                        let delta = mj.mul(mj.reduce_i64(mu_c), t_red);
                        let num = mj.sub(limb[c], delta);
                        limb[c] = mj.mul(num, p_inv);
                    }
                }
                limbs.truncate(sp_pos);
            }
        }
        // Re-assemble RnsPolys at level l (NTT domain).
        let mut u0 = RnsPoly::zero_at_level(&ctx, l);
        let mut u1 = RnsPoly::zero_at_level(&ctx, l);
        for j in 0..l {
            u0.limb_mut(j).copy_from_slice(&u0_limbs[j]);
            u1.limb_mut(j).copy_from_slice(&u1_limbs[j]);
        }
        (u0.to_ntt(), u1.to_ntt())
    }

    fn ntt_limb(&self, ctx: &Arc<RnsContext>, j: usize, limb: &mut [u32]) {
        ctx.tables(j).forward(limb);
    }

    fn intt_limb(&self, ctx: &Arc<RnsContext>, j: usize, limb: &mut [u32]) {
        ctx.tables(j).inverse(limb);
    }
}

/// Lifts limb `i` of the coefficient-domain polynomial `y` into all `l`
/// bases via the centered representative, writing an NTT-domain polynomial
/// into `out` (Listing 1 lines 7-8). When `orig` is given, limb `i` is
/// copied from it verbatim (the `i == j` shortcut of line 8). The per-base
/// reductions and NTTs run limb-parallel on large rings.
fn lift_limb_into(
    y: &RnsPoly,
    i: usize,
    l: usize,
    ctx: &Arc<RnsContext>,
    orig: Option<&RnsPoly>,
    out: &mut RnsPoly,
) {
    let mi = *ctx.modulus(i);
    let src = y.limb(i);
    // Every coefficient of every limb is written below (copy or
    // reduce+NTT), so the scratch reshape skips zeroing.
    out.reshape_for_overwrite(l, Domain::Coefficient);
    let tables = ctx.clone();
    out.for_each_limb_mut(|j, mj, limb| {
        if j == i {
            if let Some(o) = orig {
                limb.copy_from_slice(o.limb(i));
                return;
            }
        }
        for (x, &s) in limb.iter_mut().zip(src) {
            *x = mj.reduce_i64(mi.center(s));
        }
        tables.tables(j).forward(limb);
    });
    // The limbs were filled with NTT-domain data directly.
    out.assume_domain(Domain::Ntt);
}

fn scale_residue(t: u64) -> u32 {
    // Error scale as a small residue multiplier; t < 2^31 in all our
    // parameter sets.
    u32::try_from(t).expect("error scale must fit in 32 bits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_poly::crt;
    use rand::SeedableRng;

    /// Checks u0 - u1*s ≡ x*target + t*E with small E.
    fn check_keyswitch(
        _ctx: &Arc<RnsContext>,
        sk: &SecretKey,
        x: &RnsPoly,
        target: &RnsPoly,
        (u0, u1): (RnsPoly, RnsPoly),
        t: u64,
        max_noise_log2: f64,
    ) {
        let l = x.level();
        let s = sk.s_at_level(l);
        let lhs = u0.sub(&u1.mul(&s));
        let want = x.mul(&target.truncate_level(l));
        let diff = lhs.sub(&want).to_coeff();
        // The difference must be t * (small); verify magnitude and
        // divisibility by t.
        let centered = crt::reconstruct_centered(&diff);
        for (c, val) in centered.iter().enumerate() {
            assert_eq!(val.1.rem_u64(t), 0, "noise at coeff {c} not a multiple of t");
        }
        let noise = crt::log2_infinity_norm(&diff);
        assert!(
            noise < max_noise_log2,
            "key-switch noise too large: 2^{noise:.1} (limit 2^{max_noise_log2})"
        );
    }

    #[test]
    fn decomp_keyswitch_is_correct() {
        let ctx = RnsContext::for_ring(64, 30, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target = sk.s_squared_at_level(3);
        let hint = DecompHint::generate(&sk, &target, 3, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, 3, &mut rng).to_ntt();
        let out = hint.apply(&x);
        // Noise bound: |x̂_i| < q/2 ~ 2^29, times t*e (~2^20), times N*L.
        check_keyswitch(&ctx, &sk, &x, &target, out, 65537, 29.0 + 17.0 + 4.0 + 12.0);
    }

    #[test]
    fn decomp_keyswitch_at_lower_level() {
        // A hint generated at level 3 must remain correct after modulus
        // switching drops the ciphertext to level 2.
        let ctx = RnsContext::for_ring(64, 30, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target = sk.s_squared_at_level(3);
        let hint = DecompHint::generate(&sk, &target, 3, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, 2, &mut rng).to_ntt();
        let out = hint.apply(&x);
        check_keyswitch(&ctx, &sk, &x, &target, out, 65537, 62.0);
    }

    #[test]
    fn ghs_keyswitch_is_correct() {
        // 3 program limbs + 3 specials (P > Q so the rounded division
        // leaves small noise).
        let ctx = RnsContext::for_ring(64, 30, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target_full = sk.s_squared_at_level(6);
        let hint = GhsHint::generate(&sk, &target_full, 3, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, 3, &mut rng).to_ntt();
        let out = hint.apply(&x);
        check_keyswitch(&ctx, &sk, &x, &target_full, out, 65537, 60.0);
    }

    #[test]
    fn keyswitch_outputs_are_canonical_and_scratch_invariant() {
        // The fused fma accumulation must leave every residue < q, and a
        // reused scratch arena must not change results (including across
        // inputs of different levels).
        let ctx = RnsContext::for_ring(64, 30, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target = sk.s_squared_at_level(3);
        let hint = DecompHint::generate(&sk, &target, 3, 65537, 8, &mut rng);
        let mut scratch = KsScratch::default();
        for level in [3usize, 2, 3] {
            let x = RnsPoly::random_at_level(&ctx, level, &mut rng).to_ntt();
            let (u0, u1) = hint.apply(&x);
            let (s0, s1) = hint.apply_with_scratch(&x, &mut scratch);
            assert_eq!(u0, s0, "scratch reuse changed u0 at level {level}");
            assert_eq!(u1, s1, "scratch reuse changed u1 at level {level}");
            for p in [&u0, &u1] {
                for i in 0..p.level() {
                    let q = ctx.modulus(i).value();
                    assert!(p.limb(i).iter().all(|&c| c < q), "residue >= q in limb {i}");
                }
            }
        }
    }

    #[test]
    fn hint_sizes_scale_as_documented() {
        // Paper §2.4: at L=16, N=16K, decomposition hints total 32 MB per
        // (ksh0, ksh1) pair; GHS hints grow linearly.
        let cost_decomp = KeySwitchVariant::Decomposition.cost(16, 0, 16384);
        assert_eq!(cost_decomp.hint_bytes, 32 * 1024 * 1024);
        let cost_ghs = KeySwitchVariant::Ghs.cost(16, 16, 16384);
        assert!(cost_ghs.hint_bytes < cost_decomp.hint_bytes / 7);
        assert!(cost_ghs.muls > cost_decomp.muls, "GHS trades compute for hint size");
    }

    #[test]
    fn listing1_op_counts() {
        // L^2 NTTs (L inverse + L(L-1) forward), 2L^2 muls, 2L^2 adds.
        let c = KeySwitchVariant::Decomposition.cost(16, 0, 16384);
        assert_eq!(c.ntts, 16 * 16);
        assert_eq!(c.muls, 2 * 16 * 16);
        assert_eq!(c.adds, 2 * 16 * 16);
    }
}
