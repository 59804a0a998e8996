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
use f1_modarith::mul::ShoupMul;
use f1_modarith::{slice_ops, CenteredLift};
use f1_poly::par::par_limbs;
use f1_poly::rns::{Domain, RnsContext, RnsPoly};
use rand::Rng;
use std::sync::Arc;

/// Reusable scratch buffer for the decomposition key-switch.
///
/// [`DecompHint::apply_with_scratch`] needs one working polynomial: the
/// coefficient-domain copy of the input (`y` in Listing 1). Holding it in
/// a caller-owned arena means the key-switches of a whole program reuse
/// one allocation; `Default::default()` starts empty and the buffer is
/// grown (and re-homed to a new context) on first use. The lifted digits
/// never exist as polynomials: `decompose_mac` lifts them one limb at a
/// time into a buffer owned by the output limb being accumulated.
#[derive(Debug, Default)]
pub struct KsScratch {
    /// Coefficient-domain copy of the key-switch input.
    y: Option<RnsPoly>,
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
            // GHS, as `GhsHint::apply` runs it: l INTTs for the digits, k
            // NTTs for the extended special limbs (the program limbs are x
            // itself), 2(l+k) INTTs after the hint product, and 2l NTTs
            // returning the result. 2(l+k) multiplies for the hint product,
            // then the rounded division by P: per special, at most (l+k)
            // scalar multiply-subtract passes on each polynomial.
            KeySwitchVariant::Ghs => KeySwitchCost {
                ntts: 5 * l + 3 * k_special,
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
    /// This is Listing 1: INTT the input into the scratch arena (line 3),
    /// then `decompose_mac` lifts, NTTs and multiply-accumulates every
    /// digit against the hint rows (lines 5-10), so steady state allocates
    /// only the returned `(u0, u1)`, their accumulator and one scratch
    /// limb per output limb.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in NTT domain or exceeds the hint's level.
    pub fn apply_with_scratch(&self, x: &RnsPoly, scratch: &mut KsScratch) -> (RnsPoly, RnsPoly) {
        assert_eq!(x.domain(), Domain::Ntt, "key-switch input must be in NTT domain");
        let l = x.level();
        assert!(l <= self.level, "hint level {} below input level {l}", self.level);
        let y = match &mut scratch.y {
            Some(y) => {
                y.clone_from(x);
                y
            }
            slot => slot.insert(x.clone()),
        };
        y.intt_inplace();
        decompose_mac(&[Digits { ntt: x, coeff: y, rows: &self.rows }])
    }
}

/// One source of digits for [`decompose_mac`]: a polynomial at level `l`
/// in both domains and the `(r0, r1)` rows its digits multiply (at least
/// `l` of them, each at level `l` or above).
pub(crate) struct Digits<'a> {
    /// The polynomial, NTT domain: digit `i` lifted into its own base `i`.
    pub(crate) ntt: &'a RnsPoly,
    /// The same polynomial in coefficient domain, which the lifts read.
    pub(crate) coeff: &'a RnsPoly,
    /// Row `i` multiplies digit `i`: Listing 1's hint rows or a GSW block.
    pub(crate) rows: &'a [(RnsPoly, RnsPoly)],
}

/// The digit-decomposition multiply-accumulate of Listing 1 (lines 5-10),
/// shared by [`DecompHint`] and the GSW external product. Returns
/// `(u0, u1) = Σ_sources Σ_i lift(digit_i) * (r0_i, r1_i)` in NTT domain at
/// the sources' level `l`.
///
/// Runs limb-parallel over the *output* limbs `j`: for each digit `i`, a
/// thread lifts limb `i` of `coeff` into base `j` through its centered
/// representative and NTTs it in that output limb's scratch buffer (or reads
/// `ntt[i]` as is when `i == j`), then `fma`s it into both accumulators'
/// limb `j`. Rows live at their own level; reading their first `l` limbs
/// is the truncation that keeps one hint valid for every lower level.
/// Each output limb is independent, so results are bit-identical to a
/// serial loop.
pub(crate) fn decompose_mac(sources: &[Digits<'_>]) -> (RnsPoly, RnsPoly) {
    let first = sources[0].ntt;
    let (ctx, l, n) = (first.context().clone(), first.level(), first.n());
    for src in sources {
        assert_eq!(src.ntt.domain(), Domain::Ntt, "digit source must be in NTT domain");
        assert_eq!(src.coeff.domain(), Domain::Coefficient);
        assert!(src.ntt.level() == l && src.coeff.level() == l && src.rows.len() >= l);
    }
    // One [u0_j | u1_j] pair per output limb, limb-major.
    let mut acc = vec![0u32; 2 * l * n];
    par_limbs(&mut acc, 2 * n, |j, pair| {
        let (u0, u1) = pair.split_at_mut(n);
        let mj = *ctx.modulus(j);
        let mut buf = vec![0u32; n];
        for src in sources {
            for (i, (r0, r1)) in src.rows[..l].iter().enumerate() {
                let lifted = if i == j {
                    src.ntt.limb(j)
                } else {
                    let lift = CenteredLift::new(ctx.modulus(i), &mj);
                    for (x, &s) in buf.iter_mut().zip(src.coeff.limb(i)) {
                        *x = lift.lift(s);
                    }
                    ctx.tables(j).forward(&mut buf);
                    &buf[..]
                };
                slice_ops::fma_slice(&mj, u0, lifted, r0.limb(j));
                slice_ops::fma_slice(&mj, u1, lifted, r1.limb(j));
            }
        }
    });
    split_pairs(&ctx, l, &acc)
}

/// Copies the first `l` `[u0_j | u1_j]` pairs of `acc` (NTT-domain limbs)
/// out as the polynomials `(u0, u1)`.
fn split_pairs(ctx: &Arc<RnsContext>, l: usize, acc: &[u32]) -> (RnsPoly, RnsPoly) {
    let n = ctx.n();
    let mut u0 = RnsPoly::zero_ntt_at_level(ctx, l);
    let mut u1 = RnsPoly::zero_ntt_at_level(ctx, l);
    for (j, pair) in acc.chunks_exact(2 * n).take(l).enumerate() {
        u0.limb_mut(j).copy_from_slice(&pair[..n]);
        u1.limb_mut(j).copy_from_slice(&pair[n..]);
    }
    (u0, u1)
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

    /// Applies the GHS key-switch to `x` (NTT domain, level `l <= level`).
    ///
    /// Pipeline: lift `x` into the special basis, multiply by the hint over
    /// `Q_l * P`, then divide by `P` with `t`-preserving rounding, one
    /// special at a time. Every step but the overflow estimate runs
    /// limb-parallel, and no per-coefficient loop divides: the constants
    /// are Shoup multipliers and the reductions are Barrett.
    pub fn apply(&self, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        assert_eq!(x.domain(), Domain::Ntt);
        let l = x.level();
        assert!(l <= self.level);
        let ctx = x.context().clone();
        let n = x.n();
        let k = self.special_count;
        // Position in the extended basis -> chain index: the program limbs
        // 0..l, then the specials.
        let limb_of = |pos: usize| if pos < l { pos } else { self.special_start + pos - l };
        // Lift x into the specials with the floating-point-assisted RNS base
        // extension (HPS-style): exact for chains far deeper than ours, and
        // O(N * l * K) word ops — the same arithmetic shape the accelerator
        // executes as vector ops. Per-coefficient digits
        // yhat_i = [y_i * (Q/q_i)^{-1}]_{q_i} of y = INTT(x) and the overflow
        // estimate alpha = round(sum yhat_i / q_i), so that
        // y = sum yhat_i * (Q/q_i) - alpha * Q exactly, with y in [0, Q).
        let crt = ctx.crt_level(l);
        let mut yhat = x.flat().to_vec();
        par_limbs(&mut yhat, n, |i, limb| {
            let mi = ctx.modulus(i);
            ctx.tables(i).inverse(limb);
            let inv = ShoupMul::new(crt.q_over_qi_inv[i], mi);
            limb.iter_mut().for_each(|d| *d = inv.mul(*d, mi.value()));
        });
        // The f64 sum runs i-ascending per coefficient: its rounding is
        // part of the result.
        let mut frac = vec![0f64; n];
        for (i, digits) in yhat.chunks_exact(n).enumerate() {
            let qi_f = ctx.modulus(i).value() as f64;
            frac.iter_mut().zip(digits).for_each(|(f, &d)| *f += d as f64 / qi_f);
        }
        let alpha: Vec<u32> = frac.iter().map(|f| f.round() as u32).collect();
        // One [u0 | u1] limb pair per extended-basis position: extend, NTT,
        // multiply by the hint, and INTT for the rounding below.
        let mut acc = vec![0u32; 2 * (l + k) * n];
        par_limbs(&mut acc, 2 * n, |pos, pair| {
            let j = limb_of(pos);
            let mj = *ctx.modulus(j);
            let q = mj.value();
            let (w0, w1) = pair.split_at_mut(n);
            if pos < l {
                // Q ≡ 0 mod q_j: the extension's program limbs are x itself.
                w0.copy_from_slice(x.limb(j));
            } else {
                for (i, digits) in yhat.chunks_exact(n).enumerate() {
                    let w_ij = crt.q_over_qi[i].rem_u64(q as u64) as u32;
                    let w_ij = ShoupMul::new(w_ij, &mj);
                    for (o, &d) in w0.iter_mut().zip(digits) {
                        let s = *o + w_ij.mul(d, q);
                        *o = s.min(s.wrapping_sub(q));
                    }
                }
                let q_mod_j = ShoupMul::new(crt.q_big.rem_u64(q as u64) as u32, &mj);
                for (o, &a) in w0.iter_mut().zip(&alpha) {
                    *o = mj.sub(*o, q_mod_j.mul(a, q));
                }
                ctx.tables(j).forward(w0);
            }
            slice_ops::mul_slice_into(&mj, w1, w0, self.ksh1.limb(j));
            slice_ops::mul_slice(&mj, w0, self.ksh0.limb(j));
            ctx.tables(j).inverse(w0);
            ctx.tables(j).inverse(w1);
        });
        // Rounded division by P with t-preserving correction, special by
        // special from the top, in coefficient domain; the last round
        // returns the surviving program limbs to the NTT domain.
        let t = self.error_scale;
        let mut mu = vec![0u32; 2 * n];
        for sp in (0..k).rev() {
            let p = *ctx.modulus(self.special_start + sp);
            let t_inv_p = if t == 1 { 1 } else { p.inv((t % p.value() as u64) as u32) };
            let t_inv_p = ShoupMul::new(t_inv_p, &p);
            let (head, top) = acc.split_at_mut((l + sp) * 2 * n);
            // mu = [top * t^{-1}]_p, for u0 then u1: once per (special,
            // coefficient), shared by every remaining limb.
            for (m, &v) in mu.iter_mut().zip(&top[..2 * n]) {
                *m = t_inv_p.mul(v, p.value());
            }
            par_limbs(head, 2 * n, |pos, pair| {
                let j = limb_of(pos);
                let mj = *ctx.modulus(j);
                let q = mj.value();
                let lift = CenteredLift::new(&p, &mj);
                let p_inv = ShoupMul::new(mj.inv((p.value() as u64 % q as u64) as u32), &mj);
                let t_red = ShoupMul::new((t % q as u64) as u32, &mj);
                for (w, &m) in pair.iter_mut().zip(&mu) {
                    // delta = t * centered(mu): congruent to the top
                    // residue mod p and to 0 mod t.
                    let delta = t_red.mul(lift.lift(m), q);
                    *w = p_inv.mul(mj.sub(*w, delta), q);
                }
                if sp == 0 {
                    let (w0, w1) = pair.split_at_mut(n);
                    ctx.tables(j).forward(w0);
                    ctx.tables(j).forward(w1);
                }
            });
        }
        split_pairs(&ctx, l, &acc)
    }
}

fn scale_residue(t: u64) -> u32 {
    // Error scale as a small residue multiplier; t < 2^31 in all our
    // parameter sets.
    u32::try_from(t).expect("error scale must fit in 32 bits")
}

/// Reference for [`decompose_mac`]'s lift: limb `i` of the
/// coefficient-domain `y` lifted into all `l` bases as one NTT-domain
/// polynomial, serially.
#[cfg(test)]
pub(crate) fn lift_reference(y: &RnsPoly, i: usize, l: usize) -> RnsPoly {
    let ctx = y.context();
    let mi = *ctx.modulus(i);
    let mut out = RnsPoly::zero_at_level(ctx, l);
    for j in 0..l {
        let mj = *ctx.modulus(j);
        let src = y.limb(i);
        for (x, &s) in out.limb_mut(j).iter_mut().zip(src) {
            *x = mi.center(s).rem_euclid(mj.value() as i64) as u32;
        }
    }
    out.to_ntt()
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

    /// Reference for [`DecompHint::apply`]: every digit lifted into a
    /// whole polynomial, then multiply-accumulated limb by limb, serially.
    fn decomp_reference(hint: &DecompHint, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let l = x.level();
        let y = x.to_coeff();
        let mut u0 = RnsPoly::zero_ntt_at_level(x.context(), l);
        let mut u1 = u0.clone();
        for (i, (row0, row1)) in hint.rows.iter().take(l).enumerate() {
            let lifted = lift_reference(&y, i, l);
            u0.fma_assign(&lifted, &row0.truncate_level(l));
            u1.fma_assign(&lifted, &row1.truncate_level(l));
        }
        (u0, u1)
    }

    /// Reference for [`GhsHint::apply`]: the serial loops with a 64-bit
    /// `%` per (coefficient, digit, limb) and a full extension of every
    /// limb, program limbs included.
    fn ghs_reference(hint: &GhsHint, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let l = x.level();
        let ctx = x.context().clone();
        let n = x.n();
        let y = x.to_coeff();
        let lvl_limbs: Vec<usize> =
            (0..l).chain(hint.special_start..hint.special_start + hint.special_count).collect();
        let crt = ctx.crt_level(l);
        let mut yhat = vec![vec![0u32; n]; l];
        let mut frac = vec![0f64; n];
        for i in 0..l {
            let mi = ctx.modulus(i);
            let qi_f = mi.value() as f64;
            for c in 0..n {
                yhat[i][c] = mi.mul(y.limb(i)[c], crt.q_over_qi_inv[i]);
                frac[c] += yhat[i][c] as f64 / qi_f;
            }
        }
        let alpha: Vec<u64> = frac.iter().map(|f| f.round() as u64).collect();
        let mut u0_limbs = Vec::new();
        let mut u1_limbs = Vec::new();
        for &j in &lvl_limbs {
            let mj = ctx.modulus(j);
            let q = mj.value() as u64;
            let q_mod_j = crt.q_big.rem_u64(q);
            let mut ext = vec![0u32; n];
            for c in 0..n {
                let mut acc = 0u64;
                for i in 0..l {
                    acc += yhat[i][c] as u64 * crt.q_over_qi[i].rem_u64(q) % q;
                }
                ext[c] = mj.sub((acc % q) as u32, (alpha[c] * q_mod_j % q) as u32);
            }
            ctx.tables(j).forward(&mut ext);
            let mut l0: Vec<u32> = (0..n).map(|c| mj.mul(ext[c], hint.ksh0.limb(j)[c])).collect();
            let mut l1: Vec<u32> = (0..n).map(|c| mj.mul(ext[c], hint.ksh1.limb(j)[c])).collect();
            ctx.tables(j).inverse(&mut l0);
            ctx.tables(j).inverse(&mut l1);
            u0_limbs.push(l0);
            u1_limbs.push(l1);
        }
        let t = hint.error_scale;
        for sp in (0..hint.special_count).rev() {
            let sp_pos = l + sp;
            let p = ctx.modulus(hint.special_start + sp);
            let t_inv_p = if t == 1 { 1 } else { p.inv((t % p.value() as u64) as u32) };
            for limbs in [&mut u0_limbs, &mut u1_limbs] {
                let (head, tail) = limbs.split_at_mut(sp_pos);
                for (pos, limb) in head.iter_mut().enumerate() {
                    let mj = ctx.modulus(lvl_limbs[pos]);
                    let p_inv = mj.inv((p.value() as u64 % mj.value() as u64) as u32);
                    let t_red = (t % mj.value() as u64) as u32;
                    for c in 0..n {
                        let mu = p.center(p.mul(tail[0][c], t_inv_p));
                        let delta = mj.mul(mu.rem_euclid(mj.value() as i64) as u32, t_red);
                        limb[c] = mj.mul(mj.sub(limb[c], delta), p_inv);
                    }
                }
                limbs.truncate(sp_pos);
            }
        }
        let mut u0 = RnsPoly::zero_at_level(&ctx, l);
        let mut u1 = RnsPoly::zero_at_level(&ctx, l);
        for j in 0..l {
            u0.limb_mut(j).copy_from_slice(&u0_limbs[j]);
            u1.limb_mut(j).copy_from_slice(&u1_limbs[j]);
        }
        (u0.to_ntt(), u1.to_ntt())
    }

    #[test]
    fn fused_decomp_keyswitch_matches_serial_reference() {
        // N = 2^12 runs the output limbs on threads, N = 2^10 serially;
        // both below the hint's level, where rows are read truncated.
        for n in [1 << 12, 1 << 10] {
            let ctx = RnsContext::for_ring(n, 30, 4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(14);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let hint = DecompHint::generate(&sk, &sk.s_squared_at_level(4), 4, 65537, 8, &mut rng);
            for l in [3, 4] {
                let x = RnsPoly::random_at_level(&ctx, l, &mut rng).to_ntt();
                assert_eq!(hint.apply(&x), decomp_reference(&hint, &x), "n={n} l={l}");
            }
        }
    }

    #[test]
    fn ghs_apply_matches_serial_reference() {
        // BGV's t = 65537 and CKKS's t = 1; 3 program limbs + 2 specials,
        // applied at and below the hint's program level.
        for n in [1 << 12, 1 << 10] {
            let ctx = RnsContext::for_ring(n, 30, 5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(15);
            let sk = SecretKey::generate(&ctx, &mut rng);
            for t in [65537, 1] {
                let hint = GhsHint::generate(&sk, &sk.s_squared_at_level(5), 3, t, 8, &mut rng);
                for l in [2, 3] {
                    let x = RnsPoly::random_at_level(&ctx, l, &mut rng).to_ntt();
                    assert_eq!(hint.apply(&x), ghs_reference(&hint, &x), "n={n} t={t} l={l}");
                }
            }
        }
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

    #[test]
    fn ghs_op_counts() {
        // GhsHint::apply at l = 8, K = 9: 8 digit INTTs, 9 special NTTs,
        // 2 * 17 INTTs after the hint product, 2 * 8 NTTs back: 5l + 3K.
        let c = KeySwitchVariant::Ghs.cost(8, 9, 16384);
        assert_eq!(c.ntts, 8 + 9 + 2 * 17 + 2 * 8);
        assert_eq!(c.ntts, 5 * 8 + 3 * 9);
    }
}
